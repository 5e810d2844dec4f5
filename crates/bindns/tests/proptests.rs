//! Property-based tests on the name-service invariants.

use std::borrow::Cow;
use std::sync::Arc;

use proptest::prelude::*;

use bindns::axfr::{IncrementalTransfer, IxfrMode, IxfrRequest, ZoneRequest, ZoneTransfer};
use bindns::error::NsError;
use bindns::message::{Answer, MultiAnswer, MultiQuestion, Question};
use bindns::name::DomainName;
use bindns::rr::{RData, RType, Records, ResourceRecord, RrBody, Soa, MAX_RDATA};
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
        "[ -~]{0,64}".prop_map(|text| RData::Text(text.into())),
        proptest::collection::vec(any::<u8>(), 0..64).prop_map(|b| RData::Opaque(b.into())),
    ]
}

fn rtype_for(rdata: &RData) -> RType {
    match rdata {
        RData::Addr(_) => RType::A,
        RData::Text(_) => RType::Txt,
        RData::Opaque(_) => RType::Unspec,
        RData::Domain(_) => RType::Cname,
        RData::Soa(_) => RType::Soa,
    }
}

/// Any rdata kind, a domain and a start of authority included.
fn arb_any_rdata() -> impl Strategy<Value = RData> {
    let soa = (arb_name_under("edu"), any::<u32>(), any::<u32>()).prop_map(
        |(primary, serial, default_ttl)| {
            RData::Soa(Arc::new(Soa {
                primary,
                serial,
                default_ttl,
            }))
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
        records: records.into_iter().collect(),
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
    let answer = Answer::ok(records.into_iter().collect());
    assert_eq!(
        states_the_length_of_its_encoded_tree(&answer),
        Some(WireError::Oversize(count))
    );
    assert!(answer.encoded_len(WireFormat::Xdr).is_ok());
}

/// An owner of `total` bytes, labels of at most 63 joined by dots.
fn owner_of_len(total: usize) -> DomainName {
    let mut labels = Vec::new();
    let mut left = total;
    while left > 0 {
        // Never leave exactly a dot behind: an empty label.
        let mut len = left.min(63);
        if left - len == 1 {
            len -= 1;
        }
        labels.push("o".repeat(len));
        left = (left - len).saturating_sub(1);
    }
    let owner = DomainName::parse(&labels.join(".")).expect("valid");
    assert_eq!(owner.as_str().len(), total);
    owner
}

/// A short owner, or one from 200 bytes up to 255, the longest a name can
/// be (`DomainName` refuses a longer one, so no owner over 255 bytes can
/// reach an answer).
fn arb_fast_owner() -> impl Strategy<Value = DomainName> {
    prop_oneof![
        arb_name_under("edu"),
        (200usize..=255).prop_map(owner_of_len)
    ]
}

/// Any rdata, or text or opaque bytes around [`MAX_RDATA`], on both sides.
fn arb_fast_rdata() -> impl Strategy<Value = RData> {
    let near = MAX_RDATA - 3..MAX_RDATA + 3;
    prop_oneof![
        arb_any_rdata(),
        arb_any_rdata(),
        near.clone().prop_map(|n| RData::Text("x".repeat(n).into())),
        near.prop_map(|n| RData::Opaque(vec![7; n].into())),
    ]
}

/// More records than the fast format's count holds: `fast_len` refuses
/// them as encoding does, and sizes the most it holds exactly.
#[test]
fn fast_len_refuses_a_record_count_beyond_the_format_as_encoding_does() {
    let owner = DomainName::parse("many.edu").expect("valid");
    let most = usize::from(u16::MAX);
    for count in [most, most + 1] {
        let records = vec![ResourceRecord::txt(owner.clone(), 60, "t"); count];
        let answer = Answer::ok(records.into_iter().collect());
        let encoded = answer.to_fast_bytes().map(|bytes| bytes.len());
        assert_eq!(answer.fast_len(), encoded, "{count} records");
        assert_eq!(encoded.is_err(), count > most, "{count} records");
    }
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
    /// `Answer::fast_len` is the length of `to_fast_bytes`, and fails
    /// exactly when it does, with the same error — a record of a second
    /// owner (an alias's target, a referral's glue) included.
    #[test]
    fn fast_len_is_the_fast_encodings_length_or_its_error(
        owner in arb_fast_owner(),
        code in 0u32..7,
        body in proptest::collection::vec((any::<u32>(), arb_fast_rdata()), 0..8),
        others in proptest::collection::vec(arb_record(), 0..2),
    ) {
        let bodies = body.into_iter().map(|(ttl, rdata)| RrBody {
            rtype: rtype_for(&rdata),
            ttl,
            rdata,
        });
        let mut records = Records::of(owner, bodies);
        for other in others {
            let (name, body) = other.into_parts();
            records.push(name, body);
        }
        let answer = Answer {
            rcode: Rcode::from_u32(code).expect("a code"),
            records,
        };
        prop_assert_eq!(answer.fast_len(), answer.to_fast_bytes().map(|bytes| bytes.len()));
    }

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
        prop_assert_eq!(ResourceRecord::from_value(&rr.tree()).expect("decode"), rr);
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
            prop_assert_eq!(&found.bodies()[0].rdata, &RData::Addr(NetAddr::of(HostId(*host))));
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
    fn every_transfer_message_states_its_length_and_is_its_decoded_tree(
        origin in arb_name_under("edu"),
        serial in any::<u32>(),
        size in any::<u32>(),
        mode in prop_oneof![Just(IxfrMode::Unchanged), Just(IxfrMode::Incremental), Just(IxfrMode::Full)],
        records in proptest::collection::vec(arb_record(), 0..6),
        removed in proptest::collection::vec(arb_name_under("edu"), 0..3),
    ) {
        let axfr = ZoneRequest { origin: origin.clone() };
        prop_assert_eq!(states_the_length_of_its_encoded_tree(&axfr), None);
        prop_assert_eq!(ZoneRequest::from_value(&axfr.tree()), Ok(axfr));
        let ixfr = IxfrRequest { origin, from_serial: serial };
        prop_assert_eq!(states_the_length_of_its_encoded_tree(&ixfr), None);
        prop_assert_eq!(IxfrRequest::from_value(&ixfr.tree()), Ok(ixfr));
        let size_bytes = size as usize;
        let full = ZoneTransfer { serial, size_bytes, records: records.clone() };
        prop_assert_eq!(states_the_length_of_its_encoded_tree(&full), None);
        prop_assert_eq!(ZoneTransfer::from_value(&full.tree()), Ok(full));
        let delta = IncrementalTransfer { serial, mode, size_bytes, records, removed };
        prop_assert_eq!(states_the_length_of_its_encoded_tree(&delta), None);
        prop_assert_eq!(IncrementalTransfer::from_value(&delta.tree()), Ok(delta));
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

    /// `canonical` gives the text `parse` gives its name, or the error
    /// `parse` refuses with — both held to the parser as first written —
    /// and borrows unless a label needed lowering: over labels empty, of
    /// upper case, of 62 to 65 bytes, holding a bad byte or a dot, and
    /// names past 255 bytes, with and without a trailing dot.
    #[test]
    fn canonical_accepts_and_refuses_what_parse_does(
        labels in proptest::collection::vec(arb_name_piece(), 0..6),
        dot in any::<bool>(),
    ) {
        let mut text = labels.join(".");
        if dot {
            text.push('.');
        }
        let canonical = DomainName::canonical(&text);
        let want = parse_as_first_written(&text);
        let parsed = DomainName::parse(&text).map(|name| name.as_str().to_string());
        prop_assert_eq!(parsed, want.clone());
        prop_assert_eq!(canonical.clone().map(Cow::into_owned), want);
        if let Ok(canonical) = &canonical {
            let lowered = text.bytes().any(|b| b.is_ascii_uppercase());
            prop_assert_eq!(matches!(canonical, Cow::Owned(_)), lowered, "`{}`", text);
        }
    }
}

/// A piece of a name's text: a label of either case (empty at times), a
/// label at the length limit, one holding a byte no label may, or dots.
fn arb_name_piece() -> impl Strategy<Value = String> {
    prop_oneof![
        "[a-zA-Z0-9_-]{0,4}",
        "[a-zA-Z0-9_-]{0,4}",
        "[a-zA-Z]{62,65}",
        "[a-z *]{1,3}",
        "[a-z.]{0,3}",
    ]
}

/// `DomainName::parse` as first written, a label at a time: its text, or
/// its refusal.
fn parse_as_first_written(s: &str) -> Result<String, NsError> {
    let trimmed = s.strip_suffix('.').unwrap_or(s);
    if trimmed.is_empty() {
        return Ok(".".to_string());
    }
    if trimmed.len() > 255 {
        let total = trimmed.len();
        return Err(NsError::BadName(format!("name too long ({total} bytes)")));
    }
    for label in trimmed.split('.') {
        if label.is_empty() {
            return Err(NsError::BadName(format!("empty label in `{trimmed}`")));
        }
        if label.len() > 63 {
            return Err(NsError::BadName(format!("label `{label}` too long")));
        }
        if !label
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'-' || b == b'_')
        {
            return Err(NsError::BadName(format!(
                "bad character in label `{label}`"
            )));
        }
    }
    Ok(trimmed.to_ascii_lowercase())
}
