//! Property-based tests on the name-service invariants.

use proptest::prelude::*;

use bindns::message::{Answer, MultiAnswer, MultiQuestion, Question};
use bindns::name::DomainName;
use bindns::rr::{RData, RType, ResourceRecord};
use bindns::update::UpdateOp;
use bindns::zone::Zone;
use bindns::Rcode;
use simnet::topology::{HostId, NetAddr};
use wire::{Message, WireError, WireFormat};

fn arb_label() -> impl Strategy<Value = String> {
    "[a-z0-9][a-z0-9_-]{0,12}"
}

fn arb_name_under(origin: &'static str) -> impl Strategy<Value = DomainName> {
    proptest::collection::vec(arb_label(), 1..3).prop_map(move |labels| {
        DomainName::parse(&format!("{}.{origin}", labels.join("."))).expect("valid")
    })
}

/// A few labels over a four-letter alphabet that includes `-` (which
/// sorts below `.`) and `_`, so generated names often share prefixes,
/// suffixes and whole labels.
fn arb_labels() -> impl Strategy<Value = Vec<String>> {
    proptest::collection::vec("[ab_-]{1,3}", 0..4)
}

/// The naive reference for [`DomainName`]: a name *is* its label list.
struct RefName(Vec<String>);

impl RefName {
    fn name(&self) -> DomainName {
        DomainName::parse(&self.0.join(".")).expect("valid")
    }

    fn is_within(&self, zone: &RefName) -> bool {
        self.0.len() >= zone.0.len() && self.0[self.0.len() - zone.0.len()..] == zone.0[..]
    }

    fn wire_len(&self) -> usize {
        if self.0.is_empty() {
            1
        } else {
            self.0.iter().map(String::len).sum::<usize>() + self.0.len() - 1
        }
    }
}

fn arb_rdata() -> impl Strategy<Value = RData> {
    prop_oneof![
        (0u32..256).prop_map(|h| RData::Addr(NetAddr::of(HostId(h)))),
        "[ -~]{0,64}".prop_map(RData::Text),
        proptest::collection::vec(any::<u8>(), 0..64).prop_map(|b| RData::Opaque(b.into())),
    ]
}

fn rtype_for(rdata: &RData) -> RType {
    match rdata {
        RData::Addr(_) => RType::A,
        RData::Text(_) => RType::Txt,
        RData::Opaque(_) => RType::Unspec,
        RData::Domain(_) => RType::Cname,
        RData::Soa { .. } => RType::Soa,
    }
}

/// Any rdata kind, a domain and a start of authority included.
fn arb_any_rdata() -> impl Strategy<Value = RData> {
    let soa = (arb_name_under("edu"), any::<u32>(), any::<u32>()).prop_map(
        |(primary, serial, default_ttl)| RData::Soa {
            primary,
            serial,
            default_ttl,
        },
    );
    prop_oneof![
        arb_rdata(),
        arb_name_under("edu").prop_map(RData::Domain),
        soa
    ]
}

fn arb_record() -> impl Strategy<Value = ResourceRecord> {
    (arb_name_under("edu"), any::<u32>(), arb_any_rdata()).prop_map(|(name, ttl, rdata)| {
        ResourceRecord {
            name,
            rtype: rtype_for(&rdata),
            ttl,
            rdata,
        }
    })
}

fn arb_answer() -> impl Strategy<Value = Answer> {
    (0u32..7, proptest::collection::vec(arb_record(), 0..7)).prop_map(|(code, records)| Answer {
        rcode: Rcode::from_u32(code).expect("a code"),
        records,
    })
}

fn arb_question() -> impl Strategy<Value = Question> {
    (arb_name_under("edu"), arb_any_rdata())
        .prop_map(|(name, rdata)| Question::new(name, rtype_for(&rdata)))
}

/// One hint in three is longer than a Courier word can count.
fn arb_hint() -> impl Strategy<Value = String> {
    prop_oneof![
        "[a-z]{0,12}",
        "[ -~]{0,40}",
        (wire::courier::MAX_LEN - 2..wire::courier::MAX_LEN + 3).prop_map(|n| "h".repeat(n)),
    ]
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

/// More records than a Courier word can count: refused by the length as
/// by the encoder, and by neither under XDR.
#[test]
fn a_record_count_beyond_the_format_is_refused_by_length_and_encoder_alike() {
    let owner = DomainName::parse("many.edu").expect("valid");
    let records = vec![ResourceRecord::txt(owner, 60, "t"); wire::courier::MAX_LEN + 1];
    let count = records.len();
    let answer = Answer::ok(records);
    assert_eq!(
        states_the_length_of_its_encoded_tree(&answer),
        Some(WireError::Oversize(count))
    );
    assert!(answer.encoded_len(WireFormat::Xdr).is_ok());
}

#[test]
fn shared_string_name_handles_the_label_boundary_cases() {
    let name = |s: &str| DomainName::parse(s).expect("valid");
    // `-` sorts below `.`, so a plain byte compare would get this wrong:
    // label-wise, `a` < `a-b`.
    assert!(name("a.c") < name("a-b.c"));
    assert!(name("a") < name("a.c"), "a shorter name first on a tie");
    assert!(
        name("a.c") < name("ab"),
        "`a` < `ab` decides, not `.` vs `b`"
    );
    // A suffix of the text that does not start a label is not an ancestor.
    assert!(!name("xcs.washington.edu").is_within(&name("cs.washington.edu")));
    assert!(name("x.cs.washington.edu").is_within(&name("cs.washington.edu")));
}

proptest! {
    // Many cheap cases: the interesting pairs (first difference at a
    // `-` against a label end) are a small share of all pairs.
    #![proptest_config(ProptestConfig::with_cases(4096))]

    #[test]
    fn shared_string_name_agrees_with_label_list_reference(
        head in arb_labels(),
        a_mid in arb_labels(),
        b_mid in arb_labels(),
        tail in arb_labels(),
    ) {
        // A shared head exercises the compare past its first bytes, a
        // shared tail the ancestor test.
        let ra = RefName([head.clone(), a_mid, tail.clone()].concat());
        let rb = RefName([head, b_mid, tail].concat());
        let (na, nb) = (ra.name(), rb.name());
        prop_assert_eq!(na.cmp(&nb), ra.0.cmp(&rb.0), "order of {} vs {}", na, nb);
        prop_assert_eq!(na == nb, ra.0 == rb.0);
        prop_assert_eq!(na.is_within(&nb), ra.is_within(&rb), "{} within {}", na, nb);
        prop_assert_eq!(nb.is_within(&na), rb.is_within(&ra), "{} within {}", nb, na);
        prop_assert_eq!(na.depth(), ra.0.len());
        prop_assert_eq!(na.wire_len(), ra.wire_len());
        prop_assert_eq!(na.labels().collect::<Vec<_>>(), ra.0.iter().map(String::as_str).collect::<Vec<_>>());
        let parent = (!ra.0.is_empty()).then(|| RefName(ra.0[1..].to_vec()).name());
        prop_assert_eq!(na.parent(), parent);
    }
}

proptest! {
    #[test]
    fn rdata_bytes_roundtrip(rdata in arb_rdata()) {
        let bytes = rdata.to_bytes().expect("encode");
        prop_assert_eq!(RData::from_bytes(&bytes).expect("decode"), rdata);
    }

    #[test]
    fn rdata_decoder_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..128)) {
        let _ = RData::from_bytes(&bytes);
    }

    #[test]
    fn record_value_roundtrip(name in arb_name_under("cs.washington.edu"), ttl in 0u32..1_000_000, rdata in arb_rdata()) {
        let rr = ResourceRecord { name, rtype: rtype_for(&rdata), ttl, rdata };
        let v = rr.to_value().expect("encode");
        prop_assert_eq!(ResourceRecord::from_value(&v).expect("decode"), rr);
    }

    #[test]
    fn zone_serial_is_strictly_monotone_under_mutation(
        records in proptest::collection::vec(
            (proptest::collection::vec(arb_label(), 1..3), arb_rdata()),
            1..20,
        )
    ) {
        let mut zone = Zone::new(DomainName::parse("z").expect("origin"), 60);
        let mut last_serial = zone.serial();
        for (labels, rdata) in records {
            let name = DomainName::parse(&format!("{}.z", labels.join("."))).expect("valid");
            let rr = ResourceRecord { name, rtype: rtype_for(&rdata), ttl: 60, rdata };
            if zone.add(rr).is_ok() {
                prop_assert!(zone.serial() > last_serial, "serial must advance");
                last_serial = zone.serial();
            }
        }
    }

    #[test]
    fn zone_lookup_finds_exactly_what_was_added(
        entries in proptest::collection::btree_map(
            proptest::collection::vec(arb_label(), 1..3),
            0u32..64,
            1..12,
        )
    ) {
        let mut zone = Zone::new(DomainName::parse("z").expect("origin"), 60);
        for (labels, host) in &entries {
            let name = DomainName::parse(&format!("{}.z", labels.join("."))).expect("valid");
            zone.add(ResourceRecord::a(name, 60, NetAddr::of(HostId(*host)))).expect("add");
        }
        prop_assert_eq!(zone.record_count(), entries.len());
        for (labels, host) in &entries {
            let name = DomainName::parse(&format!("{}.z", labels.join("."))).expect("valid");
            let found = zone.lookup(&name, RType::A).expect("present");
            prop_assert_eq!(found.len(), 1);
            prop_assert_eq!(&found[0].rdata, &RData::Addr(NetAddr::of(HostId(*host))));
        }
    }

    #[test]
    fn zone_transfer_preserves_every_record(
        entries in proptest::collection::btree_map(
            proptest::collection::vec(arb_label(), 1..3),
            arb_rdata(),
            1..10,
        )
    ) {
        let mut zone = Zone::new(DomainName::parse("z").expect("origin"), 60);
        for (labels, rdata) in &entries {
            let name = DomainName::parse(&format!("{}.z", labels.join("."))).expect("valid");
            let rr = ResourceRecord { name, rtype: rtype_for(rdata), ttl: 60, rdata: rdata.clone() };
            zone.add(rr).expect("add");
        }
        // AXFR payload rebuilt into a fresh zone is equivalent.
        let mut copy = Zone::new(DomainName::parse("z").expect("origin"), 60);
        for rr in zone.all_records() {
            copy.add(rr).expect("copy");
        }
        prop_assert_eq!(copy.record_count(), zone.record_count());
        prop_assert_eq!(copy.size_bytes(), zone.size_bytes());
        for (labels, rdata) in &entries {
            let name = DomainName::parse(&format!("{}.z", labels.join("."))).expect("valid");
            prop_assert!(copy.lookup(&name, rtype_for(rdata)).is_ok());
        }
    }

    #[test]
    fn update_ops_value_roundtrip(
        labels in proptest::collection::vec(arb_label(), 1..3),
        rdata in arb_rdata(),
    ) {
        let name = DomainName::parse(&format!("{}.z", labels.join("."))).expect("valid");
        let rr = ResourceRecord { name: name.clone(), rtype: rtype_for(&rdata), ttl: 60, rdata };
        for op in [
            UpdateOp::Add(rr.clone()),
            UpdateOp::Delete { name: name.clone(), rtype: rr.rtype },
            UpdateOp::Replace { name, rtype: rr.rtype, records: vec![rr.clone()] },
        ] {
            let v = op.to_value().expect("encode");
            prop_assert_eq!(UpdateOp::from_value(&v).expect("decode"), op);
        }
    }

    #[test]
    fn every_message_states_the_length_of_its_encoded_tree(
        questions in proptest::collection::vec(arb_question(), 0..4),
        hints in proptest::collection::vec(arb_hint(), 0..3),
        answers in proptest::collection::vec(arb_answer(), 0..3),
        additional in proptest::collection::vec(arb_answer(), 0..3),
        records in proptest::collection::vec(arb_record(), 1..4),
    ) {
        for question in &questions {
            prop_assert_eq!(states_the_length_of_its_encoded_tree(question), None);
        }
        let long_hint = hints.iter().map(String::len).find(|len| *len > wire::courier::MAX_LEN);
        let batch = MultiQuestion::new(questions, hints);
        prop_assert_eq!(
            states_the_length_of_its_encoded_tree(&batch),
            long_hint.map(WireError::Oversize)
        );
        for answer in answers.iter().chain(&additional) {
            prop_assert_eq!(states_the_length_of_its_encoded_tree(answer), None);
        }
        let multi = MultiAnswer { answers, additional };
        prop_assert_eq!(states_the_length_of_its_encoded_tree(&multi), None);
        let (name, rtype) = (records[0].name.clone(), records[0].rtype);
        for op in [
            UpdateOp::Add(records[0].clone()),
            UpdateOp::Delete { name: name.clone(), rtype },
            UpdateOp::Replace { name, rtype, records },
        ] {
            prop_assert_eq!(states_the_length_of_its_encoded_tree(&op), None);
        }
    }

    #[test]
    fn add_then_remove_restores_absence(
        labels in proptest::collection::vec(arb_label(), 1..3),
        rdata in arb_rdata(),
    ) {
        let mut zone = Zone::new(DomainName::parse("z").expect("origin"), 60);
        let name = DomainName::parse(&format!("{}.z", labels.join("."))).expect("valid");
        let rtype = rtype_for(&rdata);
        let rr = ResourceRecord { name: name.clone(), rtype, ttl: 60, rdata };
        zone.add(rr).expect("add");
        prop_assert_eq!(zone.remove(&name, rtype), 1);
        prop_assert!(zone.lookup(&name, rtype).is_err());
        prop_assert_eq!(zone.record_count(), 0);
    }

    #[test]
    fn domain_parse_never_panics(s in "[ -~]{0,80}") {
        let _ = DomainName::parse(&s);
    }
}
