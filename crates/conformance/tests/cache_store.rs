//! The caches at the size they report.
//!
//! Every cache is a `simnet::ttl::TtlMap` — one slab of entries under a
//! `u32` index, their keys' bytes in an arena beside it — wrapped by
//! `bindns::TtlCache`, `hns_core`'s `HnsCache` and `BindingCache`, and
//! `nsms`'s `NsmCache`. This holds each wrapper's
//! `resident_bytes` to the bytes the counting allocator sees the cache
//! keep while it is filled, and holds the resolver cache, filled to
//! `ttl::CAPACITY` with answers shaped like a scale cell's, to a per-entry
//! ceiling. Print the gauges against the counts with
//!
//! ```text
//! cargo test -p conformance --test cache_store -- --nocapture
//! ```

use std::sync::Arc;

use bindns::rr::{RData, RType, ResourceRecord};
use bindns::{DomainName, TtlCache};
use conformance::alloc::{measure_live, CountingAlloc};
use hns_core::binding_cache::BindingCache;
use hns_core::cache::{host_addr_key, CacheMode, HnsCache};
use hns_core::meta::MetaRecord;
use hrpc::{ComponentSet, HrpcBinding, ProgramId};
use nsms::nsm_cache::{NsmCache, NsmCacheForm};
use simnet::time::SimTime;
use simnet::topology::{HostId, NetAddr};
use simnet::ttl::CAPACITY;
use simnet::world::World;
use wire::Value;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// The `UNSPEC` payloads of a pool of eight NSMs, sized as the scale
/// world's are. A resolver's answer shares its payload with the zone that
/// served it, so the pool is built before anything is measured.
fn payloads() -> Vec<Arc<[u8]>> {
    (0..8)
        .map(|slot| {
            format!(
                "nsm=nsm-cell0-{slot};host=ns.cell0.hns;context=cell0;\
                 program=30000{slot};port=102{slot};suite=sun;version=1;owner=admin-cell0"
            )
            .into_bytes()
            .into()
        })
        .collect()
}

/// Fills a resolver cache with `names` one-record answers, each owned by
/// the name it is cached under — `n{i}.cell0.hns`, its text shared by key
/// and record as a typed reply's is — and, with `whole`, an address
/// record beside it, so the set is kept whole.
fn fill(names: usize, pool: &[Arc<[u8]>], whole: bool) -> TtlCache {
    let cache = TtlCache::new();
    for i in 0..names {
        let name = DomainName::parse(&format!("n{i}.cell0.hns")).expect("owner");
        let binding = ResourceRecord::unspec(name.clone(), 600, Arc::clone(&pool[i % pool.len()]));
        let records: Arc<[ResourceRecord]> = if whole {
            let addr = ResourceRecord::a(name.clone(), 600, NetAddr::of(HostId(i as u32)));
            Arc::from([binding, addr])
        } else {
            Arc::from([binding])
        };
        cache.insert(SimTime::ZERO, name, RType::Unspec, records);
    }
    cache
}

/// `gauge` within a tenth of `live`, both printed per entry.
fn within_a_tenth(what: &str, entries: usize, gauge: usize, live: Option<i64>) {
    let live = live.expect("the counting allocator is installed");
    let gauge = gauge as i64;
    println!(
        "{what}: gauge {gauge} B, allocator {live} B ({:.1} vs {:.1} B/entry)",
        gauge as f64 / entries as f64,
        live as f64 / entries as f64
    );
    assert!(
        (gauge - live).abs() * 10 <= live,
        "{what}: gauge {gauge} B against {live} B live"
    );
}

/// The resolver cache full, as `scale_zipf` keeps it: at most 76 B an
/// entry by the allocator's count — the slab slot of a 32-byte body, its
/// share of the index, and the key's bytes in the arena; no handle on
/// the owner name, no record set of one, and no doubling's slack in the
/// arena (218 B while it was a `HashMap` of `Arc<[ResourceRecord]>`,
/// 120 B with each key an `Arc<str>` beside the slot, 82 B while a body
/// was 40 bytes).
#[test]
fn a_full_resolver_cache_holds_at_most_76_bytes_an_entry() {
    let pool = payloads();
    let (cache, live) = measure_live(|| fill(CAPACITY, &pool, false));
    assert_eq!(cache.resident(), CAPACITY);
    let per_entry = live.expect("the counting allocator is installed") as f64 / CAPACITY as f64;
    println!("full resolver cache: {per_entry:.1} B/entry");
    assert!(per_entry <= 76.0, "{per_entry:.1} B/entry");
    within_a_tenth(
        "full resolver cache",
        CAPACITY,
        cache.resident_bytes(),
        live,
    );
}

/// A kept body answers as the set it was: the record rebuilt on the
/// asker's name, equal to what went in.
#[test]
fn a_kept_body_answers_the_record_it_was() {
    let pool = payloads();
    for whole in [false, true] {
        let cache = fill(16, &pool, whole);
        let name = DomainName::parse("n3.cell0.hns").expect("owner");
        let got = cache
            .get(SimTime::ZERO, &name, RType::Unspec)
            .expect("cached");
        assert_eq!(got.len(), if whole { 2 } else { 1 });
        assert_eq!(got[0].name, name);
        assert_eq!(got[0].rdata, RData::Opaque(Arc::clone(&pool[3])));
        assert_eq!((got[0].rtype, got[0].ttl), (RType::Unspec, 600));
    }
}

#[test]
fn the_resolver_gauge_is_within_a_tenth_of_the_allocator() {
    let pool = payloads();
    for (shape, whole) in [("bodies", false), ("whole sets", true)] {
        let (cache, live) = measure_live(|| fill(4096, &pool, whole));
        within_a_tenth(shape, 4096, cache.resident_bytes(), live);
    }
}

fn binding(i: u32) -> HrpcBinding {
    HrpcBinding {
        host: HostId(i),
        addr: NetAddr::of(HostId(i)),
        program: ProgramId(30_000 + i),
        port: 1024,
        components: ComponentSet::sun(),
    }
}

/// The HNS meta cache in both stored forms, negatives among the entries,
/// each key's text counted in the map's arena.
#[test]
fn the_hns_cache_gauge_is_within_a_tenth_of_the_allocator() {
    let world = World::paper();
    let hosts: Vec<String> = (0..4096).map(|i| format!("host{i}")).collect();
    let keys: Vec<_> = hosts
        .iter()
        .map(|host| host_addr_key("BIND", host))
        .collect();
    for mode in [CacheMode::Demarshalled, CacheMode::Marshalled] {
        let (cache, live) = measure_live(|| {
            let cache = HnsCache::of(mode);
            for (i, key) in keys.iter().enumerate() {
                if i % 8 == 0 {
                    cache.insert_negative(&world, *key);
                } else {
                    let record = MetaRecord::NsmName(format!("nsm-hrpcbinding-{i}"));
                    cache.insert(&world, *key, &record, 1, 600);
                }
            }
            cache
        });
        within_a_tenth(
            &format!("{mode:?} HNS cache"),
            keys.len(),
            cache.resident_bytes(),
            live,
        );
    }
}

/// Both composed levels, their keys' bytes counted in each level's arena.
#[test]
fn the_binding_cache_gauge_is_within_a_tenth_of_the_allocator() {
    let world = World::paper();
    let scopes: Vec<String> = (0..4096).map(|i| format!("ctx{i}")).collect();
    let (cache, live) = measure_live(|| {
        let cache = BindingCache::of(true);
        for (i, scope) in (0u32..).zip(&scopes) {
            let expires_at = world.now().after_secs(600);
            cache.insert_until(&world, "hrpcbinding", scope, binding(i), expires_at);
            cache.insert_service(&world, "hrpcbinding", scope, binding(i), expires_at);
        }
        cache
    });
    within_a_tenth(
        "binding cache",
        2 * scopes.len(),
        cache.resident_bytes(),
        live,
    );
}

/// The binding NSMs' typed cache and the default tree cache, under
/// string keys, their bytes counted in the arena.
#[test]
fn the_nsm_cache_gauge_is_within_a_tenth_of_the_allocator() {
    let world = World::paper();
    let (typed, live) = measure_live(|| {
        let cache: NsmCache<HrpcBinding> = NsmCache::of(NsmCacheForm::Demarshalled);
        for i in 0..4096 {
            cache.insert(
                &world,
                format!("host{i}.cs.washington.edu"),
                &binding(i),
                2,
                600,
            );
        }
        cache
    });
    within_a_tenth("typed NSM cache", 4096, typed.resident_bytes(), live);
    let (trees, live) = measure_live(|| {
        let cache = NsmCache::new(NsmCacheForm::Demarshalled);
        for i in 0..4096 {
            let value = Value::record([
                ("host", Value::str(format!("host{i}"))),
                ("port", Value::U32(i)),
            ]);
            cache.insert(&world, format!("host{i}"), &value, 1, 600);
        }
        cache
    });
    within_a_tenth("tree NSM cache", 4096, trees.resident_bytes(), live);
}
