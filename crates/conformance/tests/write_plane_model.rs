//! The write plane against its model (`conformance::model::{ch, reg}`).
//!
//! Seeded sequences of `regd` registrations, re-binds, transfers,
//! releases and resolutions, and of raw Clearinghouse writes and reads,
//! run against the real stack and against the models side by side. Each
//! call goes either through the typed client (`RegClient`, `ChClient`) or
//! as a tree from a peer that knows no struct; a second frontend, built
//! cold for each of its writes, extends chains behind the exported one's
//! back. Every answer must be the model's, and so must what a naive chain
//! walk finds after each step and the Clearinghouse database at the end.

use std::sync::Arc;

use clearinghouse::property::{Property, PropertyId, PROP_ADDRESS, PROP_MEMBERS};
use clearinghouse::server::{
    PROC_ADD_ALIAS, PROC_ADD_ENTRY, PROC_ADD_MEMBER, PROC_DELETE, PROC_LIST, PROC_LOOKUP,
    PROC_LOOKUP_RUN, PROC_SET_ITEM,
};
use clearinghouse::{
    deploy as deploy_ch, AddAlias, AddMember, ChClient, ChDb, ChError, ChServer, Credentials, List,
    Lookup, LookupRun, Named, SetItem, ThreePartName,
};
use conformance::model::ch::ChModel;
use conformance::model::reg::{Held, RegModel};
use hrpc::{HrpcBinding, RpcError, RpcNet, RpcResult};
use proptest::prelude::*;
use regd::registry::{Registry, Resolution};
use regd::server::{PROC_REGISTER, PROC_RELEASE, PROC_RESOLVE, PROC_TRANSFER, PROC_UPDATE};
use regd::{RegClient, RegError, RegServer, Register, Release, Resolve, Transfer, Update};
use simnet::topology::HostId;
use simnet::world::World;
use wire::{Message, Value};

/// Owners with keys on file; the last one has none.
const OWNERS: [&str; 5] = ["o0", "o1", "o2", "o3", "mallory"];
/// Registered names; the last two are refused (no meta key, upper case).
const NAMES: [&str; 4] = ["alpha", "beta", "my.svc", "Svc"];
const SERVICES: [&str; 2] = ["BIND", "Clearinghouse"];
/// Entries the raw Clearinghouse operations touch: none of `regd`'s, and
/// one in a domain the server does not serve.
const OBJECTS: [&str; 5] = ["a:cs:uw", "b:cs:uw", "hub:cs:uw", "x:cs:uw", "y:ee:uw"];
const PROPS: [PropertyId; 2] = [PROP_ADDRESS, PROP_MEMBERS];
const PATTERNS: [&str; 3] = ["*", "reg--*", "hub"];

fn key(owner: &str) -> u64 {
    owner.bytes().fold(0x5eed, |k, b| k * 31 + u64::from(b))
}

fn tpn(s: &str) -> ThreePartName {
    ThreePartName::parse(s).expect("name")
}

/// What the server maps a database refusal to on the wire.
fn on_the_wire(e: ChError) -> RpcError {
    match e {
        ChError::NotFound(n) => RpcError::NotFound(n),
        ChError::AuthFailed(w) => RpcError::AuthFailed(w),
        other => RpcError::Service(other.to_string()),
    }
}

/// The stack and its models.
struct Pair {
    world: Arc<World>,
    net: Arc<RpcNet>,
    client: HostId,
    second: HostId,
    ch_server: Arc<ChServer>,
    ch_binding: HrpcBinding,
    creds: Credentials,
    registry: Arc<Registry>,
    reg_binding: HrpcBinding,
    ch: ChModel,
    reg: RegModel,
}

impl Pair {
    fn new() -> Pair {
        let world = World::paper();
        let (ch_host, frontend) = (world.add_host("ch"), world.add_host("frontend"));
        let (client, second) = (world.add_host("client"), world.add_host("second"));
        let net = RpcNet::new(Arc::clone(&world));
        let ch_server = ChServer::new("ch", ChDb::new(vec![("cs".into(), "uw".into())]));
        let creds = Credentials::new(tpn("regd:cs:uw"), 7);
        ch_server.register_key(creds.identity.clone(), creds.key);
        let ch_binding = deploy_ch(&net, ch_host, Arc::clone(&ch_server)).binding;
        let registry = Arc::new(Pair::frontend(&net, frontend, ch_binding, &creds));
        let reg_binding = regd::deploy(&net, frontend, RegServer::new(Arc::clone(&registry)));
        let keys: Vec<(String, u64)> = OWNERS[..4]
            .iter()
            .map(|o| (o.to_string(), key(o)))
            .collect();
        Pair {
            world,
            net,
            client,
            second,
            ch_server,
            ch_binding,
            creds,
            registry,
            reg_binding,
            ch: ChModel::new("cs", "uw"),
            reg: RegModel::new("cs", "uw", &keys),
        }
    }

    /// A frontend on `host` with every owner's key on file and a cold
    /// collapse cache.
    fn frontend(net: &Arc<RpcNet>, host: HostId, ch: HrpcBinding, creds: &Credentials) -> Registry {
        let registry = Registry::new(Arc::clone(net), host, ch, creds.clone(), "cs", "uw");
        for owner in &OWNERS[..4] {
            registry.register_owner(*owner, key(owner));
        }
        registry
    }

    /// Sends `request` as the tree a peer that knows no struct builds.
    fn tree_call(
        &self,
        binding: &HrpcBinding,
        proc_id: u32,
        request: &dyn Message,
    ) -> RpcResult<Value> {
        let tree = request.tree().into_owned();
        self.net.call(self.client, binding, proc_id, &tree)
    }

    /// A `regd` call through the typed client or as a tree.
    fn reg_call(
        &self,
        tree: bool,
        proc_id: u32,
        request: &dyn Message,
        typed: impl FnOnce(&RegClient) -> Result<Option<Resolution>, RegError>,
    ) -> RpcResult<Option<Held>> {
        let resolution = if tree {
            let reply = self.tree_call(&self.reg_binding, proc_id, request)?;
            match reply {
                Value::Void => None,
                reply => Some(Resolution::from_value(&reply)?),
            }
        } else {
            let client = RegClient::new(Arc::clone(&self.net), self.client, self.reg_binding);
            typed(&client).map_err(RpcError::from)?
        };
        Ok(resolution.as_ref().map(held))
    }

    /// A Clearinghouse write through the typed client or as a tree.
    fn ch_write(
        &self,
        tree: bool,
        proc_id: u32,
        request: &dyn Message,
        typed: impl FnOnce(&ChClient) -> RpcResult<()>,
    ) -> RpcResult<()> {
        if tree {
            let reply = self.tree_call(&self.ch_binding, proc_id, request)?;
            assert_eq!(reply, Value::Void);
            Ok(())
        } else {
            typed(&self.ch_client())
        }
    }

    fn ch_client(&self) -> ChClient {
        ChClient::new(
            Arc::clone(&self.net),
            self.client,
            self.ch_binding,
            self.creds.clone(),
        )
    }

    /// Runs one generated step against both, and compares.
    fn step(&mut self, (kind, a, b, c, tree): (u8, usize, usize, usize, bool)) {
        let owner = OWNERS[a % OWNERS.len()];
        // One call in seven signs with the wrong key.
        let key = key(owner) ^ u64::from(c % 7 == 6);
        let name = NAMES[b % NAMES.len()];
        let service = SERVICES[c % SERVICES.len()];
        let to = OWNERS[c % OWNERS.len()];
        let what = format!("step {kind} {owner} {name} {service} {to} tree {tree}");
        let (reg, ch) = (&mut self.reg, &mut self.ch);
        match kind {
            0 | 1 => {
                let want = reg.register(ch, owner, key, name, service).map(Some);
                let request = Register {
                    owner: owner.into(),
                    key,
                    name: name.into(),
                    service: service.into(),
                };
                let got = self.reg_call(tree, PROC_REGISTER, &request, |c| {
                    c.register(owner, key, name, service).map(Some)
                });
                assert_eq!(got, want.map_err(RpcError::from), "{what}");
            }
            2 => {
                let want = reg.update(ch, owner, key, name, service).map(|()| None);
                let request = Update {
                    owner: owner.into(),
                    key,
                    name: name.into(),
                    service: service.into(),
                };
                let got = self.reg_call(tree, PROC_UPDATE, &request, |c| {
                    c.update(owner, key, name, service).map(|()| None)
                });
                assert_eq!(got, want.map_err(RpcError::from), "{what}");
            }
            3 => {
                let rebind = (c % 3 == 0).then_some(service);
                let want = reg.transfer(ch, owner, key, name, to, rebind).map(Some);
                let request = Transfer {
                    owner: owner.into(),
                    key,
                    name: name.into(),
                    to: to.into(),
                    rebind: rebind.map(String::from),
                };
                let got = self.reg_call(tree, PROC_TRANSFER, &request, |c| {
                    c.transfer(owner, key, name, to, rebind).map(Some)
                });
                assert_eq!(got, want.map_err(RpcError::from), "{what}");
            }
            4 => {
                let want = reg.release(ch, owner, key, name).map(|()| None);
                let request = Release {
                    owner: owner.into(),
                    key,
                    name: name.into(),
                };
                let got = self.reg_call(tree, PROC_RELEASE, &request, |c| {
                    c.release(owner, key, name).map(|()| None)
                });
                assert_eq!(got, want.map_err(RpcError::from), "{what}");
            }
            5 => {
                let want = reg.resolve(name).map(Some);
                let request = Resolve { name: name.into() };
                let got =
                    self.reg_call(tree, PROC_RESOLVE, &request, |c| c.resolve(name).map(Some));
                assert_eq!(got, want.map_err(RpcError::from), "{what}");
            }
            6 => {
                // The second frontend hands a name on, unseen by the first.
                let want = reg.transfer(ch, owner, key, name, to, None);
                let second = Pair::frontend(&self.net, self.second, self.ch_binding, &self.creds);
                let got = second.transfer(owner, key, name, to, None);
                assert_eq!(got.map(|r| held(&r)), want, "second frontend: {what}");
            }
            7..=9 => self.ch_write_step(a, b, c, tree),
            _ => self.ch_read_step(a, b, c, tree),
        }
        self.check();
    }

    /// A raw Clearinghouse write of the kind `c` picks.
    fn ch_write_step(&mut self, a: usize, b: usize, c: usize, tree: bool) {
        let (name, other) = (
            tpn(OBJECTS[a % OBJECTS.len()]),
            tpn(OBJECTS[b % OBJECTS.len()]),
        );
        let prop = PROPS[b % PROPS.len()];
        let creds = self.creds.clone();
        let what = format!("write {c} {name} {other} {prop:?} tree {tree}");
        let (want, got) = match c % 5 {
            0 => {
                let want = self.ch.add_entry(&name);
                let request = Named {
                    creds,
                    name: name.clone(),
                };
                let got = self.ch_write(tree, PROC_ADD_ENTRY, &request, |ch| ch.add_entry(&name));
                (want, got)
            }
            1 => {
                let value = Value::U32(c as u32);
                let want = self.ch.set_item(&name, prop, value.clone());
                let request = SetItem {
                    creds,
                    name: name.clone(),
                    prop,
                    value: value.clone().into(),
                };
                let got = self.ch_write(tree, PROC_SET_ITEM, &request, |ch| {
                    ch.set_item(&name, prop, value)
                });
                (want, got)
            }
            2 => {
                let member = OBJECTS[c % OBJECTS.len()];
                let want = self.ch.add_member(&name, prop, member);
                let request = AddMember {
                    creds,
                    name: name.clone(),
                    prop,
                    member: member.into(),
                };
                let got = self.ch_write(tree, PROC_ADD_MEMBER, &request, |ch| {
                    ch.add_member(&name, prop, member)
                });
                (want, got)
            }
            3 => {
                let want = self.ch.add_alias(&name, &other);
                let request = AddAlias {
                    creds,
                    name: name.clone(),
                    target: other.clone(),
                };
                let got = self.ch_write(tree, PROC_ADD_ALIAS, &request, |ch| {
                    ch.add_alias(&name, &other)
                });
                (want, got)
            }
            _ => {
                let want = self.ch.delete(&name);
                let request = Named {
                    creds,
                    name: name.clone(),
                };
                let got = self.ch_write(tree, PROC_DELETE, &request, |ch| ch.delete(&name));
                (want, got)
            }
        };
        assert_eq!(got, want.map_err(on_the_wire), "{what}");
    }

    /// A raw Clearinghouse read of the kind `c` picks.
    fn ch_read_step(&mut self, a: usize, b: usize, c: usize, tree: bool) {
        let (name, other) = (
            tpn(OBJECTS[a % OBJECTS.len()]),
            tpn(OBJECTS[b % OBJECTS.len()]),
        );
        let prop = PROPS[b % PROPS.len()];
        let creds = self.creds.clone();
        let what = format!("read {c} {name} {other} {prop:?} tree {tree}");
        match c % 3 {
            0 => {
                let want = self.ch.lookup(&name, prop).map_err(on_the_wire);
                let got = if tree {
                    let request = Lookup { creds, name, prop };
                    (self.tree_call(&self.ch_binding, PROC_LOOKUP, &request)).and_then(|v| {
                        Property::from_value(&v).map_err(|e| RpcError::Service(e.to_string()))
                    })
                } else {
                    self.ch_client().lookup(&name, prop)
                };
                assert_eq!(got, want, "{what}");
            }
            1 => {
                let pattern = PATTERNS[a % PATTERNS.len()];
                let want = Ok(self.ch.list("cs", "uw", pattern));
                let got = if tree {
                    let request = List::new(creds, "cs", "uw", pattern);
                    let reply = self.tree_call(&self.ch_binding, PROC_LIST, &request);
                    reply.map(|v| {
                        let names = v.as_list().expect("a list").iter();
                        names.map(|n| tpn(n.as_str().expect("a name"))).collect()
                    })
                } else {
                    self.ch_client().list("cs", "uw", pattern)
                };
                assert_eq!(got, want, "{what}");
            }
            _ => {
                let names = [name, other];
                let want = self.ch.lookup_run(&names, prop).map_err(on_the_wire);
                let got = if tree {
                    let request = LookupRun {
                        creds,
                        names: names.to_vec(),
                        prop,
                    };
                    let reply = self.tree_call(&self.ch_binding, PROC_LOOKUP_RUN, &request);
                    reply.map(|v| v.as_list().expect("a list").to_vec())
                } else {
                    self.ch_client().lookup_item_run(&names, prop)
                };
                assert_eq!(got, want, "{what}");
            }
        }
    }

    /// What a naive walk finds of every name is the model's.
    fn check(&self) {
        for name in NAMES {
            let walked = self.registry.resolve_naive(name);
            assert_eq!(walked.map(|r| held(&r)), self.reg.resolve(name), "{name}");
        }
    }

    /// The exported frontend resolves every name as the model does, and
    /// the database is the model's, entry for entry.
    fn finish(&self) {
        for name in NAMES {
            let resolved = self.registry.resolve(name);
            assert_eq!(resolved.map(|r| held(&r)), self.reg.resolve(name), "{name}");
        }
        let snapshot = self.ch_server.with_db(|db| db.snapshot());
        assert_eq!(snapshot, self.ch.snapshot());
        assert!(self.world.counters().remote_calls > 0);
    }
}

fn held(r: &Resolution) -> Held {
    Held {
        owner: r.owner.clone(),
        base_owner: r.base_owner.clone(),
        service: r.service.clone(),
        depth: r.depth,
    }
}

proptest! {
    #[test]
    fn the_write_plane_answers_what_its_model_does(
        steps in proptest::collection::vec(
            (0u8..12, 0usize..8, 0usize..8, 0usize..64, any::<bool>()),
            1..100,
        ),
    ) {
        let mut pair = Pair::new();
        for step in steps {
            pair.step(step);
        }
        pair.finish();
    }
}

/// A chain the second frontend grew behind the first one's back is found
/// by the first's probe, and walked forward from there, to the answer the
/// model gives.
#[test]
fn a_chain_extended_behind_the_frontends_back_resolves_as_the_model_says() {
    let mut pair = Pair::new();
    for step in [
        (0, 0, 0, 0, false), // o0 registers alpha
        (5, 0, 0, 0, true),  // the frontend collapses it
        (6, 0, 0, 1, false), // the second frontend: o0 -> o1
        (6, 1, 0, 2, true),  // o1 -> o2
        (5, 0, 0, 0, false), // the first frontend's probe hits: a walk
        (3, 2, 0, 3, true),  // o2 -> o3 through the first frontend
        (6, 3, 0, 0, false), // back to o0: a cycle
        (4, 3, 0, 0, false), // o3 releases
        (0, 1, 0, 1, true),  // o1 registers it afresh
        (6, 1, 0, 0, false), // and hands it to o0, whom the new chain has not had
    ] {
        pair.step(step);
    }
    pair.finish();
    assert!(pair
        .reg
        .resolve("alpha")
        .is_ok_and(|held| held.owner == "o0" && held.depth == 1));
}

/// Writes through an alias land on the entry it stands for; a delete
/// names an entry, never an alias's target; aliases do not chain.
#[test]
fn writes_and_deletes_through_an_alias_answer_as_the_model_says() {
    let mut pair = Pair::new();
    for step in [
        (7, 0, 0, 1, false),  // a:cs:uw prop 4 = 1
        (7, 2, 0, 3, true),   // hub stands for a
        (7, 2, 0, 6, false),  // prop 4 = 6, through hub
        (10, 2, 0, 0, true),  // read through hub
        (7, 2, 1, 2, false),  // a member of prop 40, through hub
        (7, 2, 0, 4, true),   // delete hub: no entry of that name
        (10, 0, 0, 1, false), // list everything
        (7, 3, 2, 3, false),  // x for hub: an alias of an alias
        (11, 0, 1, 2, true),  // the run [a, b] of prop 40: a group
        (7, 0, 0, 4, false),  // delete a
        (10, 2, 0, 0, false), // hub stands for nothing now
    ] {
        pair.step(step);
    }
    pair.finish();
}
