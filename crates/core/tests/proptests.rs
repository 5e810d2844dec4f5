//! Property-based tests for the HNS core.

use proptest::prelude::*;

use hns_core::analysis::{Eq1Inputs, PreloadModel};
use hns_core::cache::{host_addr_key, CacheMode, HnsCache};
use hns_core::name::{Context, HnsName, NameMapping};
use hns_core::nsm::{NsmBinding, NsmInfo, SuiteTag};
use hns_core::query::QueryClass;
use hrpc::ProgramId;
use simnet::time::SimDuration;
use wire::Value;

fn arb_suite() -> impl Strategy<Value = SuiteTag> {
    prop_oneof![
        Just(SuiteTag::Sun),
        Just(SuiteTag::Courier),
        Just(SuiteTag::RawTcp),
        Just(SuiteTag::RawUdp),
    ]
}

proptest! {
    #[test]
    fn hns_name_display_parse_roundtrip(
        ctx in "[a-zA-Z][a-zA-Z0-9 ._-]{0,20}",
        individual in "[a-zA-Z0-9:. _-]{1,40}",
    ) {
        let context = Context::new(&ctx).expect("no bang, nonempty");
        let name = HnsName::new(context, individual).expect("name");
        let reparsed = HnsName::parse(&name.to_string()).expect("parse");
        prop_assert_eq!(name, reparsed);
    }

    #[test]
    fn nsm_info_records_roundtrip(
        nsm in "[a-z][a-z0-9-]{0,24}",
        host in "[a-z0-9.]{1,32}",
        ctx in "[a-z][a-z0-9-]{0,16}",
        program in any::<u32>(),
        port in any::<u16>(),
        suite in arb_suite(),
        version in any::<u32>(),
        owner in "[a-z0-9 -]{0,16}",
    ) {
        let info = NsmInfo {
            nsm_name: nsm.clone(),
            binding: NsmBinding {
                host_name: host,
                host_context: Context::new(&ctx).expect("ctx"),
                program: ProgramId(program),
                port,
                suite,
                version,
                owner,
            },
        };
        let records = info.binding.to_records();
        prop_assert_eq!(records.len(), NsmInfo::RECORDS);
        let back = NsmInfo::from_records(&nsm, &records).expect("decode");
        prop_assert_eq!(back, info);
    }

    #[test]
    fn query_classes_normalize(name in "[a-zA-Z][a-zA-Z0-9]{0,24}") {
        let a = QueryClass::new(&name);
        let b = QueryClass::new(name.to_ascii_uppercase());
        prop_assert_eq!(a, b);
    }

    #[test]
    fn cache_insert_get_identity(
        payloads in proptest::collection::vec("[ -~]{0,32}", 0..8),
        rrs in 1usize..8,
        ttl in 1u32..100_000,
    ) {
        let world = simnet::World::paper();
        let value = Value::List(payloads.iter().map(Value::str).collect());
        for mode in [CacheMode::Marshalled, CacheMode::Demarshalled] {
            let cache = HnsCache::new(mode);
            let key = host_addr_key("NS", "host");
            cache.insert(&world, key, &value, rrs, ttl);
            prop_assert_eq!(cache.get(&world, &key), Some(value.clone()));
        }
    }

    #[test]
    fn marshalled_hits_never_beat_demarshalled(rrs in 1usize..10) {
        let world = simnet::World::paper();
        let value = Value::str("payload");
        let measure = |mode| {
            let cache = HnsCache::new(mode);
            let key = host_addr_key("NS", "h");
            cache.insert(&world, key, &value, rrs, 1000);
            let (_, took, _) = world.measure(|| cache.get(&world, &key));
            took.as_ms_f64()
        };
        prop_assert!(measure(CacheMode::Marshalled) > measure(CacheMode::Demarshalled));
    }

    #[test]
    fn eq1_threshold_is_the_indifference_point(
        remote in 1.0f64..100.0,
        hit in 1.0f64..200.0,
        extra_miss in 1.0f64..500.0,
        p in 0.0f64..0.5,
    ) {
        let inputs = Eq1Inputs { remote_call_ms: remote, hit_ms: hit, miss_ms: hit + extra_miss };
        let q = inputs.remote_threshold().expect("miss > hit");
        if p + q <= 1.0 {
            let local = inputs.local_cost(p);
            let remote_cost = inputs.remote_cost(p, q);
            // At exactly q, the two placements cost the same.
            prop_assert!((remote_cost - local).abs() < 1e-6, "{} vs {}", remote_cost, local);
        }
    }

    #[test]
    fn preload_break_even_is_consistent(
        preload in 1.0f64..2000.0,
        warm in 1.0f64..100.0,
        extra_cold in 1.0f64..1000.0,
    ) {
        let model = PreloadModel { preload_ms: preload, cold_ms: warm + extra_cold, warm_ms: warm };
        let k = model.break_even_calls().expect("cold > warm");
        prop_assert!(model.with_preload(k) <= model.without_preload(k));
        if k > 1 {
            prop_assert!(model.with_preload(k - 1) > model.without_preload(k - 1));
        }
    }

    #[test]
    fn sharded_cache_matches_single_map_model(
        ops in proptest::collection::vec(
            (0u8..3, 0usize..6, any::<u32>(), any::<bool>()),
            1..40,
        ),
    ) {
        // The lock-striped cache must be observationally identical to a
        // single-map model: same hit/miss answers, same entry count.
        // Expired entries are hidden from normal reads but *retained* as
        // the serve-stale fallback, so the model never removes them
        // either. TTLs are either 1 s (expired by any 2 s advance, with
        // a margin far exceeding the sub-ms cost charges lookups add) or
        // 10_000 s (never expires in-sequence).
        let world = simnet::World::paper();
        let cache = HnsCache::new(CacheMode::Demarshalled);
        let key_of = |k: usize| format!("NS-host-{k}");
        let mut model: std::collections::HashMap<usize, (u32, simnet::time::SimTime)> =
            std::collections::HashMap::new();
        for (op, k, v, long_ttl) in ops {
            match op {
                0 => {
                    let ttl_secs = if long_ttl { 10_000 } else { 1 };
                    let expires = world.now().after_secs(ttl_secs);
                    cache.insert(&world, key_of(k), &Value::U32(v), 1, ttl_secs);
                    model.insert(k, (v, expires));
                }
                1 => {
                    let expected = match model.get(&k) {
                        Some((v, exp)) if *exp > world.now() => Some(Value::U32(*v)),
                        // Expired: hidden, but retained for serve-stale.
                        _ => None,
                    };
                    prop_assert_eq!(cache.get(&world, &key_of(k)), expected);
                }
                _ => world.wait(SimDuration::from_ms(2_000)),
            }
        }
        prop_assert_eq!(cache.len(), model.len());
    }

    #[test]
    fn mapping_decode_never_panics(s in "[ -~]{0,40}") {
        let _ = NameMapping::decode(&s);
    }

    #[test]
    fn context_rejects_bang_everywhere(s in "[a-z]{0,8}", t in "[a-z]{0,8}") {
        let with_bang = format!("{s}!{t}");
        prop_assert!(Context::new(&with_bang).is_err());
    }
}
