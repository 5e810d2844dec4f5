//! Property-based tests for the transfer chain: random
//! register/transfer/release interleavings against an in-test model.
//!
//! The invariants, per the issue: collapsed resolution always equals
//! the naive chain walk, collapsing is idempotent, and a
//! cycle-creating transfer is rejected. And the service's messages keep
//! the length law the fabric charges by.

use std::collections::HashMap;
use std::sync::Arc;

use proptest::prelude::*;

use clearinghouse::auth::Credentials;
use clearinghouse::db::ChDb;
use clearinghouse::name::ThreePartName;
use clearinghouse::server::{deploy, ChServer};
use hrpc::net::RpcNet;
use regd::registry::{Registry, Resolution};
use regd::{RegError, Register, Release, Resolve, Transfer, Update};
use simnet::world::World;
use wire::{Message, WireError, WireFormat};

const OWNERS: usize = 5;
const NAMES: [&str; 3] = ["alpha", "beta", "gamma"];

fn owner(i: usize) -> String {
    format!("o{i}")
}

fn key(i: usize) -> u64 {
    0x1000 + i as u64
}

fn fresh_registry() -> Registry {
    let world = World::paper();
    let ch_host = world.add_host("ch");
    let frontend = world.add_host("frontend");
    let net = RpcNet::new(world);
    let server = ChServer::new("ch", ChDb::new(vec![("cs".into(), "uw".into())]));
    let identity = ThreePartName::parse("regd:cs:uw").expect("name");
    server.register_key(identity.clone(), 7);
    let dep = deploy(&net, ch_host, server);
    let reg = Registry::new(
        net,
        frontend,
        dep.binding,
        Credentials::new(identity, 7),
        "cs",
        "uw",
    );
    for i in 0..OWNERS {
        reg.register_owner(owner(i), key(i));
    }
    reg
}

/// One abstract operation; indices are reduced modulo the pools.
#[derive(Debug, Clone)]
enum Op {
    Register { name: usize, owner: usize },
    Transfer { name: usize, from: usize, to: usize },
    Release { name: usize, owner: usize },
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..NAMES.len(), 0..OWNERS).prop_map(|(name, owner)| Op::Register { name, owner }),
        (0..NAMES.len(), 0..OWNERS, 0..OWNERS).prop_map(|(name, from, to)| Op::Transfer {
            name,
            from,
            to
        }),
        (0..NAMES.len(), 0..OWNERS).prop_map(|(name, owner)| Op::Release { name, owner }),
    ]
}

/// The model: per registered name, every holder in order (head last).
type Model = HashMap<&'static str, Vec<usize>>;

/// The law the fabric's charges rest on: a message states, under either
/// format, the length its tree encodes to — or the error encoding it
/// fails with.
fn states_the_length_of_its_encoded_tree(msg: &dyn Message) -> Option<WireError> {
    let mut refused = None;
    for format in [WireFormat::Xdr, WireFormat::Courier] {
        let encoded = format.encode(&msg.tree()).map(|bytes| bytes.len());
        assert_eq!(msg.encoded_len(format), encoded, "{format}");
        refused = refused.or(encoded.err());
    }
    refused
}

/// Text, now and then around what a Courier word can count.
fn arb_text() -> impl Strategy<Value = String> {
    prop_oneof![
        "[ -~]{0,24}",
        (wire::courier::MAX_LEN - 2..wire::courier::MAX_LEN + 3).prop_map(|n| "t".repeat(n)),
    ]
}

proptest! {
    /// Every request and the resolution state the length their trees
    /// encode to, and are what decoding those trees gives back.
    #[test]
    fn every_message_states_its_length_and_is_its_decoded_tree(
        texts in proptest::collection::vec(arb_text(), 4..5),
        key in any::<u64>(),
        depth in any::<u32>(),
        flags in (any::<bool>(), any::<bool>()),
    ) {
        let [owner, name, service, to] = [&texts[0], &texts[1], &texts[2], &texts[3]];
        let refused = |texts: &[&String]| texts.iter().any(|t| t.len() > wire::courier::MAX_LEN);
        let (owner, name, service, to) = (owner.clone(), name.clone(), service.clone(), to.clone());
        let register = Register { owner: owner.clone(), key, name: name.clone(), service: service.clone() };
        let long = refused(&[&owner, &name, &service]);
        prop_assert_eq!(states_the_length_of_its_encoded_tree(&register).is_some(), long);
        prop_assert_eq!(Register::from_value(&register.tree()), Ok(register));
        let update = Update { owner: owner.clone(), key, name: name.clone(), service: service.clone() };
        prop_assert_eq!(states_the_length_of_its_encoded_tree(&update).is_some(), long);
        prop_assert_eq!(Update::from_value(&update.tree()), Ok(update));
        let rebind = flags.0.then(|| service.clone());
        let transfer = Transfer { owner: owner.clone(), key, name: name.clone(), to: to.clone(), rebind };
        let long = refused(&[&owner, &name, &to]) || (flags.0 && refused(&[&service]));
        prop_assert_eq!(states_the_length_of_its_encoded_tree(&transfer).is_some(), long);
        prop_assert_eq!(Transfer::from_value(&transfer.tree()), Ok(transfer));
        let release = Release { owner: owner.clone(), key, name: name.clone() };
        prop_assert_eq!(states_the_length_of_its_encoded_tree(&release).is_some(), refused(&[&owner, &name]));
        prop_assert_eq!(Release::from_value(&release.tree()), Ok(release));
        let resolve = Resolve { name: name.clone() };
        prop_assert_eq!(states_the_length_of_its_encoded_tree(&resolve).is_some(), refused(&[&name]));
        prop_assert_eq!(Resolve::from_value(&resolve.tree()), Ok(resolve));
        let resolution = Resolution {
            name: name.clone(),
            owner: to.clone(),
            base_owner: owner.clone(),
            service: service.clone(),
            depth,
            walked: flags.1,
        };
        let long = refused(&[&name, &to, &owner, &service]);
        prop_assert_eq!(states_the_length_of_its_encoded_tree(&resolution).is_some(), long);
        prop_assert_eq!(Resolution::from_value(&resolution.tree()), Ok(resolution));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Drives a random interleaving through the real registry and a
    /// trivial in-memory model, checking after every operation that
    /// the collapsed resolution agrees with a naive end-to-end chain
    /// walk — and at the end that collapsing is idempotent.
    #[test]
    fn interleavings_match_the_naive_walk(ops in proptest::collection::vec(arb_op(), 1..24)) {
        let reg = fresh_registry();
        let mut model: Model = HashMap::new();

        for op in &ops {
            match *op {
                Op::Register { name, owner: oi } => {
                    let name = NAMES[name];
                    let r = reg.register(&owner(oi), key(oi), name, "BIND");
                    match model.get(name) {
                        Some(_) => prop_assert!(
                            matches!(r, Err(RegError::AlreadyRegistered(_))),
                            "double register: {r:?}"
                        ),
                        None => {
                            prop_assert!(r.is_ok(), "register: {r:?}");
                            model.insert(name, vec![oi]);
                        }
                    }
                }
                Op::Transfer { name, from, to } => {
                    let name = NAMES[name];
                    let r = reg.transfer(&owner(from), key(from), name, &owner(to), None);
                    match model.get_mut(name) {
                        None => prop_assert!(
                            matches!(r, Err(RegError::NotRegistered(_))),
                            "transfer of unregistered: {r:?}"
                        ),
                        Some(holders) if *holders.last().expect("nonempty") != from => {
                            prop_assert!(
                                matches!(r, Err(RegError::NotOwner { .. })),
                                "non-holder transfer: {r:?}"
                            );
                        }
                        Some(holders) if holders.contains(&to) => prop_assert!(
                            matches!(r, Err(RegError::CycleRejected { .. })),
                            "cycle-creating transfer must be rejected: {r:?}"
                        ),
                        Some(holders) => {
                            prop_assert!(r.is_ok(), "transfer: {r:?}");
                            holders.push(to);
                        }
                    }
                }
                Op::Release { name, owner: oi } => {
                    let name = NAMES[name];
                    let r = reg.release(&owner(oi), key(oi), name);
                    match model.get(name) {
                        None => prop_assert!(
                            matches!(r, Err(RegError::NotRegistered(_))),
                            "release of unregistered: {r:?}"
                        ),
                        Some(holders) if *holders.last().expect("nonempty") != oi => {
                            prop_assert!(
                                matches!(r, Err(RegError::NotOwner { .. })),
                                "non-holder release: {r:?}"
                            );
                        }
                        Some(_) => {
                            prop_assert!(r.is_ok(), "release: {r:?}");
                            model.remove(name);
                        }
                    }
                }
            }

            // After every operation: collapsed view == naive walk for
            // every name, registered or not.
            for name in NAMES {
                let fast = reg.resolve(name);
                let naive = reg.resolve_naive(name);
                match model.get(name) {
                    None => {
                        prop_assert!(matches!(fast, Err(RegError::NotRegistered(_))), "{fast:?}");
                        prop_assert!(matches!(naive, Err(RegError::NotRegistered(_))), "{naive:?}");
                    }
                    Some(holders) => {
                        let fast = fast.expect("registered");
                        let naive = naive.expect("registered");
                        prop_assert_eq!(&fast.owner, &naive.owner);
                        prop_assert_eq!(fast.depth, naive.depth);
                        prop_assert_eq!(&fast.service, &naive.service);
                        prop_assert_eq!(&fast.base_owner, &naive.base_owner);
                        prop_assert_eq!(&fast.owner, &owner(*holders.last().expect("nonempty")));
                        prop_assert_eq!(fast.depth as usize, holders.len() - 1);
                    }
                }
            }
        }

        // Collapse is idempotent: once resolved, resolving again is a
        // cache hit with an identical result.
        for name in NAMES {
            if model.contains_key(name) {
                let first = reg.resolve(name).expect("registered");
                let second = reg.resolve(name).expect("registered");
                prop_assert!(!second.walked, "second resolve must be a collapse hit");
                prop_assert_eq!(&first.owner, &second.owner);
                prop_assert_eq!(first.depth, second.depth);
                prop_assert_eq!(&first.service, &second.service);
            }
        }
    }

    /// A frontend that never observed the writes (cold cache) agrees
    /// with the one that made them, and its own collapse is idempotent.
    #[test]
    fn cold_reader_agrees_with_writer(transfers in proptest::collection::vec(0usize..OWNERS, 0..8)) {
        let world = World::paper();
        let ch_host = world.add_host("ch");
        let net = RpcNet::new(Arc::clone(&world));
        let server = ChServer::new("ch", ChDb::new(vec![("cs".into(), "uw".into())]));
        let identity = ThreePartName::parse("regd:cs:uw").expect("name");
        server.register_key(identity.clone(), 7);
        let dep = deploy(&net, ch_host, server);
        let build = |host: &str| {
            let reg = Registry::new(
                Arc::clone(&net),
                world.add_host(host),
                dep.binding,
                Credentials::new(identity.clone(), 7),
                "cs",
                "uw",
            );
            for i in 0..OWNERS {
                reg.register_owner(owner(i), key(i));
            }
            reg
        };
        let writer = build("writer");
        let reader = build("reader");

        writer.register(&owner(0), key(0), "alpha", "BIND").expect("register");
        let mut head = 0;
        let mut held = vec![0];
        for to in transfers {
            if held.contains(&to) {
                continue;
            }
            writer
                .transfer(&owner(head), key(head), "alpha", &owner(to), None)
                .expect("transfer");
            held.push(to);
            head = to;
        }

        let cold = reader.resolve("alpha").expect("cold");
        prop_assert!(cold.walked);
        prop_assert_eq!(&cold.owner, &owner(head));
        prop_assert_eq!(cold.depth as usize, held.len() - 1);
        let warm = reader.resolve("alpha").expect("warm");
        prop_assert!(!warm.walked, "collapse is idempotent across resolves");
        prop_assert_eq!(&warm.owner, &cold.owner);
        let naive = reader.resolve_naive("alpha").expect("naive");
        prop_assert_eq!(&naive.owner, &cold.owner);
        prop_assert_eq!(naive.depth, cold.depth);
    }
}
