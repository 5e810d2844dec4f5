//! Property-based tests for the Clearinghouse substrate.

use proptest::prelude::*;

use clearinghouse::db::ChDb;
use clearinghouse::name::ThreePartName;
use clearinghouse::property::{Entry, Property, PropertyId};
use clearinghouse::{Credentials, Lookup};
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

proptest! {
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
            let refused = states_the_length_of_its_encoded_tree(&Property::Item(value));
            prop_assert_eq!(refused.is_some(), item_refused);
        }
        let group_refused = members.iter().any(long);
        let refused = states_the_length_of_its_encoded_tree(&Property::Group(members));
        prop_assert_eq!(refused.is_some(), group_refused);
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
    fn entries_roundtrip_through_wire(
        items in proptest::collection::btree_map(1u32..64, any::<u32>(), 0..8),
        members in proptest::collection::btree_set("[a-z:]{1,16}", 0..6),
    ) {
        let mut entry = Entry::new();
        for (id, v) in &items {
            entry.set_item(PropertyId(*id), Value::U32(*v));
        }
        for m in &members {
            entry.add_member(PropertyId(200), m.clone()).expect("group");
        }
        let v = entry.to_value();
        prop_assert_eq!(Entry::from_value(&v).expect("decode"), entry);
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
