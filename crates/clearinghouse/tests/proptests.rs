//! Property-based tests for the Clearinghouse substrate.

use proptest::prelude::*;

use clearinghouse::db::ChDb;
use clearinghouse::name::ThreePartName;
use clearinghouse::property::{Property, PropertyId};
use clearinghouse::{AddAlias, AddMember, Credentials, List, Lookup, LookupRun, Named, SetItem};
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

        let set = SetItem { creds: creds.clone(), name: name.clone(), prop, value: Value::str(a) };
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
