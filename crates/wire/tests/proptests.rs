//! Property-based tests for the wire representations.

use proptest::prelude::*;
use wire::fast::{decode_rr_batch, encode_rr_batch, WireRecord};
use wire::generated::Compiled;
use wire::{TypeDesc, Value, WireFormat};

/// Strategy for arbitrary values of bounded depth and width.
fn arb_value() -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        Just(Value::Void),
        any::<bool>().prop_map(Value::Bool),
        any::<u32>().prop_map(Value::U32),
        any::<i32>().prop_map(Value::I32),
        any::<u64>().prop_map(Value::U64),
        "[a-zA-Z0-9._-]{0,24}".prop_map(Value::Str),
        proptest::collection::vec(any::<u8>(), 0..32).prop_map(Value::Bytes),
    ];
    leaf.prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 0..4).prop_map(Value::List),
            proptest::collection::vec(("[a-z]{1,8}", inner.clone()), 0..4).prop_map(|fields| {
                // Struct field names must be unique for describe/check
                // round-trips to be meaningful.
                let mut seen = std::collections::HashSet::new();
                Value::Struct(
                    fields
                        .into_iter()
                        .filter(|(k, _)| seen.insert(k.clone()))
                        .map(|(k, v)| (k.into(), v))
                        .collect(),
                )
            }),
            inner.prop_map(|v| Value::Opt(Some(Box::new(v)))),
            Just(Value::Opt(None)),
        ]
    })
}

proptest! {
    #[test]
    fn xdr_roundtrip(v in arb_value()) {
        let bytes = wire::xdr::encode(&v).expect("encode");
        prop_assert_eq!(wire::xdr::decode(&bytes).expect("decode"), v);
    }

    #[test]
    fn courier_roundtrip(v in arb_value()) {
        let bytes = wire::courier::encode(&v).expect("encode");
        prop_assert_eq!(wire::courier::decode(&bytes).expect("decode"), v);
    }

    #[test]
    fn xdr_length_is_word_aligned(v in arb_value()) {
        let bytes = wire::xdr::encode(&v).expect("encode");
        prop_assert_eq!(bytes.len() % 4, 0);
    }

    #[test]
    fn courier_length_is_even(v in arb_value()) {
        let bytes = wire::courier::encode(&v).expect("encode");
        prop_assert_eq!(bytes.len() % 2, 0);
    }

    #[test]
    fn describe_accepts_own_value(v in arb_value()) {
        let desc = TypeDesc::describe(&v);
        // Lists may be heterogeneous in the generator, in which case the
        // first element's description need not accept the rest; restrict
        // the property to conforming values.
        if desc.check(&v).is_ok() {
            let again = TypeDesc::describe(&v);
            prop_assert_eq!(desc, again);
        }
    }

    #[test]
    fn generated_matches_direct_xdr_when_conforming(v in arb_value()) {
        let desc = TypeDesc::describe(&v);
        if desc.check(&v).is_ok() {
            let compiled = Compiled::new(desc);
            if let Ok(generated) = compiled.marshal(&v) {
                let direct = wire::xdr::encode(&v).expect("encode");
                prop_assert_eq!(&generated, &direct);
                prop_assert_eq!(compiled.unmarshal(&generated).expect("unmarshal"), v);
            }
        }
    }

    #[test]
    fn xdr_decoder_never_panics_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = wire::xdr::decode(&bytes);
    }

    #[test]
    fn courier_decoder_never_panics_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = wire::courier::decode(&bytes);
    }

    #[test]
    fn fast_rr_roundtrip(
        name in "[a-z0-9.]{1,48}",
        records in proptest::collection::vec(
            (any::<u16>(), any::<u32>(), proptest::collection::vec(any::<u8>(), 0..64)),
            0..8,
        )
    ) {
        let records: Vec<WireRecord> = records
            .into_iter()
            .map(|(rtype, ttl, rdata)| WireRecord { rtype, ttl, rdata })
            .collect();
        let bytes = encode_rr_batch(&name, &records).expect("encode");
        let (back_name, back_records) = decode_rr_batch(&bytes).expect("decode");
        prop_assert_eq!(back_name, name);
        prop_assert_eq!(back_records, records);
    }

    #[test]
    fn fast_rr_decoder_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = decode_rr_batch(&bytes);
    }

    #[test]
    fn formats_roundtrip_through_dispatch(v in arb_value()) {
        for fmt in [WireFormat::Xdr, WireFormat::Courier] {
            let bytes = fmt.encode(&v).expect("encode");
            prop_assert_eq!(fmt.decode(&bytes).expect("decode"), v.clone());
        }
    }

    #[test]
    fn encoded_len_matches_encode(v in arb_value()) {
        // The simulated delivery path charges on `encoded_len` instead of
        // materializing the datagram, so the two must agree exactly.
        for fmt in [WireFormat::Xdr, WireFormat::Courier] {
            let bytes = fmt.encode(&v).expect("encode");
            prop_assert_eq!(fmt.encoded_len(&v).expect("len"), bytes.len(), "{}", fmt);
        }
    }
}
