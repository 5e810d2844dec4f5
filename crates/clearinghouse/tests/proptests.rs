//! Property-based tests for the Clearinghouse substrate.

use std::collections::BTreeSet;
use std::hash::{BuildHasher, RandomState};
use std::sync::Arc;

use proptest::prelude::*;

use clearinghouse::db::ChDb;
use clearinghouse::name::ThreePartName;
use clearinghouse::property::{Property, PropertyId};
use clearinghouse::server::{deploy, ChServer, PROC_LOOKUP};
use clearinghouse::{
    AddAlias, AddMember, ChClient, Credentials, List, Lookup, LookupRun, Named, SetItem,
};
use hrpc::RpcNet;
use simnet::world::World;
use wire::{Message, Value, WireError, WireFormat};

fn arb_part() -> impl Strategy<Value = String> {
    "[a-z0-9][a-z0-9._-]{0,12}"
}

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

/// What an entry may hold: an item of each shape a client stores — a
/// number, a string, a record, a record in a record — or a group.
#[derive(Debug, Clone)]
enum Stored {
    Item(Value),
    Group(BTreeSet<String>),
}

fn arb_stored() -> impl Strategy<Value = Stored> {
    let item = prop_oneof![
        any::<u32>().prop_map(Value::U32),
        arb_text().prop_map(Value::str),
        (arb_text(), arb_text()).prop_map(|(host, root)| {
            Value::record([("host", Value::str(host)), ("root", Value::str(root))])
        }),
        (arb_text(), any::<u32>(), arb_text()).prop_map(|(owner, port, path)| {
            let inner = Value::record([("port", Value::U32(port)), ("path", Value::str(path))]);
            Value::record([("owner", Value::str(owner)), ("service", inner)])
        }),
    ];
    prop_oneof![
        item.prop_map(Stored::Item),
        proptest::collection::btree_set(arb_text(), 1..3).prop_map(Stored::Group),
    ]
}

/// Writes `stored` under `name`'s property `prop`.
fn store(db: &mut ChDb, name: &ThreePartName, prop: PropertyId, stored: &Stored) {
    match stored {
        Stored::Item(value) => db.set_item(name, prop, value.clone()).expect("set"),
        Stored::Group(members) => {
            for member in members {
                db.add_member(name, prop, member).expect("add");
            }
        }
    }
}

/// `reply` as the server built it while it copied an item out of its
/// entry: the same property, owning its own value.
fn cloned(reply: &Property) -> Property {
    match reply {
        Property::Item(value) => Property::Item(Arc::new(Value::clone(value))),
        group => group.clone(),
    }
}

/// A name's text: now and then upper case, two or four parts, an empty
/// part, or a part at or just past its 64-byte limit.
fn arb_name_text() -> impl Strategy<Value = String> {
    let part = prop_oneof![
        "[a-z0-9][a-z0-9._-]{0,6}",
        "[a-z0-9][a-z0-9._-]{0,6}",
        "[A-Za-z0-9][A-Za-z0-9._-]{0,6}",
        "[a-z0-9]{0,1}",
        (63usize..66).prop_map(|n| "p".repeat(n)),
    ];
    proptest::collection::vec(part, 1..5).prop_map(|parts| parts.join(":"))
}

proptest! {
    /// The `LOOKUP` reply shares the item its entry keeps; it is the reply
    /// that copied it out, tree and length under both formats, and a
    /// later write to the entry leaves it as it was.
    #[test]
    fn a_shared_reply_is_the_reply_that_copied_its_item(stored in arb_stored()) {
        let mut db = ChDb::new(vec![("cs".into(), "uw".into())]);
        let (name, prop) = (ThreePartName::parse("designs:cs:uw").expect("name"), PropertyId(50));
        store(&mut db, &name, prop, &stored);
        let reply = db.lookup(&name, prop).expect("stored");
        let copy = cloned(&reply);
        prop_assert_eq!(&reply, &copy);
        prop_assert_eq!(reply.tree(), copy.tree());
        for format in [WireFormat::Xdr, WireFormat::Courier] {
            prop_assert_eq!(reply.encoded_len(format), copy.encoded_len(format), "{}", format);
        }
        if let (Property::Item(kept), Property::Item(again)) = (&reply, &db.lookup(&name, prop).expect("stored")) {
            prop_assert!(Arc::ptr_eq(kept, again), "two replies share the entry's item");
        }
        db.set_item(&name, prop, Value::str("rewritten")).expect("set");
        prop_assert_eq!(&reply, &copy);
        prop_assert_eq!(reply.tree(), copy.tree());
    }

    /// Over the fabric, a caller that reads the `Property` and one that
    /// sends and reads trees get the same answer, or the same refusal of
    /// a reply too long for Courier.
    #[test]
    fn a_typed_caller_and_a_tree_caller_get_the_same_answer(stored in arb_stored()) {
        let world = World::paper();
        let (client, host) = (world.add_host("client"), world.add_host("xerox-d0"));
        let net = RpcNet::new(Arc::clone(&world));
        let identity = ThreePartName::parse("hns:cs:uw").expect("name");
        let server = ChServer::new("clearinghouse", ChDb::new(vec![("cs".into(), "uw".into())]));
        server.register_key(identity.clone(), 7);
        let (name, prop) = (ThreePartName::parse("designs:cs:uw").expect("name"), PropertyId(50));
        server.with_db(|db| store(db, &name, prop, &stored));
        let dep = deploy(&net, host, server);
        let creds = Credentials::new(identity, 7);
        let typed = ChClient::new(Arc::clone(&net), client, dep.binding, creds.clone());
        let request = Lookup { creds, name: name.clone(), prop };
        let tree = net.call(client, &dep.binding, PROC_LOOKUP, &request.tree());
        let from_tree = tree.map(|tree| Property::from_value(&tree).expect("a property"));
        prop_assert_eq!(typed.lookup(&name, prop), from_tree);
    }

    /// A name that shares its text is the name `parse` makes of it —
    /// equal, hashed alike, ordered alike — and shares exactly when the
    /// text was canonical, which is when `parse` left it as it was; any
    /// other text is refused as `parse` refuses it.
    #[test]
    fn a_shared_name_is_the_parsed_name(text in arb_name_text()) {
        let held: Arc<str> = Arc::from(text.as_str());
        match (ThreePartName::share(&held), ThreePartName::parse(&text)) {
            (Ok(shared), Ok(parsed)) => {
                let hasher = RandomState::new();
                prop_assert_eq!(&shared, &parsed);
                prop_assert_eq!(hasher.hash_one(&shared), hasher.hash_one(&parsed));
                prop_assert_eq!(shared.cmp(&parsed), std::cmp::Ordering::Equal);
                prop_assert_eq!(shared.as_str(), parsed.as_str());
                let canonical = parsed.as_str() == text;
                prop_assert_eq!(std::ptr::eq(shared.as_str(), &*held), canonical);
            }
            (shared, parsed) => prop_assert_eq!(shared, parsed),
        }
    }

    #[test]
    fn lookups_and_properties_state_the_length_of_their_encoded_trees(
        identity in arb_part(),
        key in any::<u64>(),
        object in arb_part(),
        prop in any::<u32>(),
        item in arb_text(),
        members in proptest::collection::btree_set(arb_text(), 0..3),
    ) {
        let lookup = Lookup {
            creds: Credentials::new(ThreePartName::new(&identity, "cs", "uw").expect("valid"), key),
            name: ThreePartName::new(&object, "cs", "uw").expect("valid"),
            prop: PropertyId(prop),
        };
        prop_assert_eq!(states_the_length_of_its_encoded_tree(&lookup), None);
        let long = |t: &String| t.len() > wire::courier::MAX_LEN;
        let record = Value::record([("host", Value::str(&item)), ("port", Value::U32(prop))]);
        let item_refused = long(&item);
        for value in [Value::str(&item), record] {
            let refused = states_the_length_of_its_encoded_tree(&Property::Item(value.into()));
            prop_assert_eq!(refused.is_some(), item_refused);
        }
        let group_refused = members.iter().any(long);
        let refused = states_the_length_of_its_encoded_tree(&Property::Group(members));
        prop_assert_eq!(refused.is_some(), group_refused);
    }

    /// Every request a client writes or enumerates with states the length
    /// its tree encodes to, and is what decoding that tree gives back.
    #[test]
    fn every_request_states_its_length_and_is_its_decoded_tree(
        identity in arb_part(),
        key in any::<u64>(),
        objects in proptest::collection::vec(arb_part(), 1..5),
        prop in any::<u32>(),
        texts in proptest::collection::vec(arb_text(), 4..5),
    ) {
        let tpn = |object: &str| ThreePartName::new(object, "cs", "uw").expect("valid");
        let creds = Credentials::new(tpn(&identity), key);
        let (name, prop) = (tpn(&objects[0]), PropertyId(prop));
        let long = |texts: &[&String]| texts.iter().any(|t| t.len() > wire::courier::MAX_LEN);
        let [a, b, c, d] = [&texts[0], &texts[1], &texts[2], &texts[3]];

        let set = SetItem { creds: creds.clone(), name: name.clone(), prop, value: Value::str(a).into() };
        prop_assert_eq!(states_the_length_of_its_encoded_tree(&set).is_some(), long(&[a]));
        prop_assert_eq!(SetItem::from_value(&set.tree()), Ok(set));
        let named = Named { creds: creds.clone(), name: name.clone() };
        prop_assert_eq!(states_the_length_of_its_encoded_tree(&named), None);
        prop_assert_eq!(Named::from_value(&named.tree()), Ok(named));
        let member = AddMember { creds: creds.clone(), name: name.clone(), prop, member: b.clone() };
        prop_assert_eq!(states_the_length_of_its_encoded_tree(&member).is_some(), long(&[b]));
        prop_assert_eq!(AddMember::from_value(&member.tree()), Ok(member));
        let alias = AddAlias {
            creds: creds.clone(),
            name: name.clone(),
            target: tpn(objects.last().expect("one at least")),
        };
        prop_assert_eq!(states_the_length_of_its_encoded_tree(&alias), None);
        prop_assert_eq!(AddAlias::from_value(&alias.tree()), Ok(alias));
        let run = LookupRun { creds: creds.clone(), names: objects.iter().map(|o| tpn(o)).collect(), prop };
        prop_assert_eq!(states_the_length_of_its_encoded_tree(&run), None);
        prop_assert_eq!(LookupRun::from_value(&run.tree()), Ok(run));
        let list = List::new(creds, b, c, d);
        prop_assert_eq!(states_the_length_of_its_encoded_tree(&list).is_some(), long(&[b, c, d]) || list.name.len() > wire::courier::MAX_LEN);
        prop_assert_eq!(List::from_value(&list.tree()), Ok(list));
    }

    #[test]
    fn names_roundtrip(object in arb_part(), domain in arb_part(), org in arb_part()) {
        let name = ThreePartName::new(&object, &domain, &org).expect("valid");
        let reparsed = ThreePartName::parse(&name.to_string()).expect("reparse");
        prop_assert_eq!(name, reparsed);
    }

    #[test]
    fn name_parse_never_panics(s in "[ -~]{0,64}") {
        let _ = ThreePartName::parse(&s);
    }

    #[test]
    fn db_lookup_matches_last_write(
        writes in proptest::collection::vec((arb_part(), 1u32..16, any::<u32>()), 1..24)
    ) {
        let mut db = ChDb::new(vec![("cs".into(), "uw".into())]);
        let mut expected = std::collections::HashMap::new();
        for (object, prop, value) in &writes {
            let name = ThreePartName::new(object, "cs", "uw").expect("valid");
            db.set_item(&name, PropertyId(*prop), Value::U32(*value)).expect("set");
            expected.insert((name, PropertyId(*prop)), *value);
        }
        for ((name, prop), value) in expected {
            let got = db.lookup(&name, prop).expect("present");
            prop_assert_eq!(got.as_item().expect("item"), &Value::U32(value));
        }
    }

    #[test]
    fn snapshot_restore_is_lossless(
        writes in proptest::collection::vec((arb_part(), 1u32..8, any::<u32>()), 0..16)
    ) {
        let mut primary = ChDb::new(vec![("cs".into(), "uw".into())]);
        for (object, prop, value) in &writes {
            let name = ThreePartName::new(object, "cs", "uw").expect("valid");
            primary.set_item(&name, PropertyId(*prop), Value::U32(*value)).expect("set");
        }
        let mut replica = ChDb::new(vec![("cs".into(), "uw".into())]);
        replica.restore(primary.snapshot());
        prop_assert_eq!(replica.len(), primary.len());
        for (object, prop, _) in &writes {
            let name = ThreePartName::new(object, "cs", "uw").expect("valid");
            prop_assert_eq!(
                replica.lookup(&name, PropertyId(*prop)).ok(),
                primary.lookup(&name, PropertyId(*prop)).ok()
            );
        }
    }

    #[test]
    fn wrong_domain_always_rejected(object in arb_part(), domain in arb_part()) {
        prop_assume!(domain != "cs");
        let db = ChDb::new(vec![("cs".into(), "uw".into())]);
        let name = ThreePartName::new(&object, &domain, "uw").expect("valid");
        prop_assert!(db.lookup(&name, PropertyId(4)).is_err());
    }
}
