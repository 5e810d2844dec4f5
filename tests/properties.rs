//! Cross-crate property-based tests on the reproduction's invariants.

use proptest::prelude::*;

use hns_repro::bindns::DomainName;
use hns_repro::hns_core::name::{Context, HnsName, NameMapping};
use hns_repro::hrpc::{ComponentSet, HrpcBinding, ProgramId};
use hns_repro::simnet::rng::DetRng;
use hns_repro::simnet::time::SimDuration;
use hns_repro::simnet::topology::{HostId, NetAddr};

fn arb_label() -> impl Strategy<Value = String> {
    "[a-z0-9][a-z0-9-]{0,14}"
}

fn arb_domain() -> impl Strategy<Value = String> {
    proptest::collection::vec(arb_label(), 1..5).prop_map(|labels| labels.join("."))
}

proptest! {
    #[test]
    fn domain_names_roundtrip(s in arb_domain()) {
        let n = DomainName::parse(&s).expect("valid");
        let reparsed = DomainName::parse(&n.to_string()).expect("reparse");
        prop_assert_eq!(n, reparsed);
    }

    #[test]
    fn domain_within_is_a_partial_order(a in arb_domain(), b in arb_domain()) {
        let na = DomainName::parse(&a).expect("valid");
        let nb = DomainName::parse(&b).expect("valid");
        // Reflexive; antisymmetric up to equality.
        prop_assert!(na.is_within(&na));
        if na.is_within(&nb) && nb.is_within(&na) {
            prop_assert_eq!(na, nb);
        }
    }

    #[test]
    fn hns_names_roundtrip(ctx in "[a-z][a-z0-9-]{0,12}", ind in "[a-z0-9.:_-]{1,32}") {
        let name = HnsName::new(Context::new(&ctx).expect("ctx"), ind).expect("name");
        let reparsed = HnsName::parse(&name.to_string()).expect("parse");
        prop_assert_eq!(name, reparsed);
    }

    #[test]
    fn name_mappings_invert(
        local in "[a-z0-9.]{1,24}",
        prefix in "[a-z0-9-]{0,8}",
        suffix in "[a-z0-9-]{0,8}",
    ) {
        for mapping in [
            NameMapping::Identity,
            NameMapping::Prefixed { prefix: prefix.clone() },
            NameMapping::Suffixed { suffix: suffix.clone() },
        ] {
            let individual = mapping.to_individual(&local);
            prop_assert_eq!(mapping.to_local(&individual).expect("invert"), local.clone());
            // Encode/decode through the meta store's spelling.
            let decoded = NameMapping::decode(&mapping.encode()).expect("decode");
            prop_assert_eq!(decoded, mapping);
        }
    }

    #[test]
    fn mapping_injectivity_prevents_conflicts(
        locals in proptest::collection::hash_set("[a-z0-9.]{1,16}", 1..20),
        prefix in "[a-z0-9-]{1,6}",
    ) {
        // Distinct local names must map to distinct individual names — the
        // paper's "no naming conflicts can ever be created" guarantee.
        let mapping = NameMapping::Prefixed { prefix };
        let individuals: std::collections::HashSet<String> =
            locals.iter().map(|l| mapping.to_individual(l)).collect();
        prop_assert_eq!(individuals.len(), locals.len());
    }

    #[test]
    fn bindings_roundtrip_through_every_representation(
        host in 0u32..64,
        program in 1u32..1_000_000,
        port in 1u16..u16::MAX,
    ) {
        for components in [
            ComponentSet::sun(),
            ComponentSet::courier(),
            ComponentSet::raw_tcp(port),
            ComponentSet::raw_udp(port),
        ] {
            let binding = HrpcBinding {
                host: HostId(host),
                addr: NetAddr::of(HostId(host)),
                program: ProgramId(program),
                port,
                components,
            };
            let v = binding.to_value();
            // Through the binding's own value form...
            prop_assert_eq!(HrpcBinding::from_value(&v).expect("decode"), binding);
            // ...and over both wire representations.
            for fmt in [wire::WireFormat::Xdr, wire::WireFormat::Courier] {
                let bytes = fmt.encode(&v).expect("encode");
                let back = fmt.decode(&bytes).expect("decode");
                prop_assert_eq!(HrpcBinding::from_value(&back).expect("decode"), binding);
            }
        }
    }

    #[test]
    fn det_rng_is_reproducible(seed in any::<u64>()) {
        let mut a = DetRng::new(seed);
        let mut b = DetRng::new(seed);
        for _ in 0..32 {
            prop_assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn cache_respects_any_ttl(ttl in 1u32..10_000, wait_ms in 0u64..20_000_000) {
        use hns_repro::hns_core::cache::{host_addr_key, CacheMode, HnsCache};
        let world = hns_repro::simnet::World::paper();
        let cache = HnsCache::new(CacheMode::Demarshalled);
        let key = host_addr_key("BIND", "h");
        cache.insert(&world, key, &wire::Value::U32(1), 1, ttl);
        world.wait(SimDuration::from_ms(wait_ms));
        let hit = cache.get(&world, &key).is_some();
        let expired = wait_ms >= u64::from(ttl) * 1000;
        prop_assert_eq!(hit, !expired, "ttl {} wait {}", ttl, wait_ms);
    }
}
