//! The behaviours every cache gets from the one TTL-cache core
//! (`simnet::ttl::TtlMap`), driven through the four public caches from
//! one table. What only one cache does — Table 3.2 charges, negative
//! entries, min-TTL insert, the composed-TTL rule —
//! is tested next to that cache; the core itself is checked against a
//! naive model in `crates/simnet/src/ttl.rs`.

use std::sync::Arc;

use hns_repro::bindns::cache::TtlCache;
use hns_repro::bindns::name::DomainName;
use hns_repro::bindns::rr::{RType, ResourceRecord};
use hns_repro::hns_core::binding_cache::BindingCache;
use hns_repro::hns_core::cache::{host_addr_key, CacheLookup, CacheMode, HnsCache};
use hns_repro::hrpc::{ComponentSet, HrpcBinding, ProgramId};
use hns_repro::nsms::nsm_cache::{NsmCache, NsmCacheForm};
use hns_repro::simnet::obs::MetricsRegistry;
use hns_repro::simnet::topology::{HostId, NetAddr};
use hns_repro::simnet::{SimDuration, World};
use hns_repro::wire::Value;

/// One cache behind the operations the shared script needs.
struct Driver<'a> {
    name: &'static str,
    /// Inserts the one entry, valid for `ttl_secs`.
    insert: Box<dyn Fn(u32) + 'a>,
    /// A counted probe: on a hit, the address of what was handed out when
    /// the cache hands out a shared allocation (0 when it hands out a copy).
    probe: Box<dyn Fn() -> Option<usize> + 'a>,
    /// The serve-stale probe, for the caches that have one.
    stale: Option<Box<dyn Fn() -> bool + 'a>>,
    /// Entries resident (expired ones included), where the cache says.
    resident: Option<Box<dyn Fn() -> usize + 'a>>,
    /// `(hits, every other probe)` as the cache's public stats report them.
    hits_and_others: Box<dyn Fn() -> (u64, u64) + 'a>,
    /// Files the cache under component `c` of a registry.
    register: Box<dyn Fn(&MetricsRegistry) + 'a>,
    /// The counter names a snapshot reads from the cache once it has
    /// served stale (if it can).
    exported: &'static [&'static str],
}

fn binding() -> HrpcBinding {
    HrpcBinding {
        host: HostId(7),
        addr: NetAddr::of(HostId(7)),
        program: ProgramId(17),
        port: 1234,
        components: ComponentSet::sun(),
    }
}

#[test]
fn shared_ttl_behaviour_holds_through_every_public_cache() {
    let world = World::paper();
    let w = &*world;

    let hns = Arc::new(HnsCache::new(CacheMode::Demarshalled));
    let key = host_addr_key("BIND", "fiji");
    let composed = Arc::new(BindingCache::of(true));
    let nsm = Arc::new(NsmCache::new(NsmCacheForm::Demarshalled));
    let bind = Arc::new(TtlCache::new());
    let owner = DomainName::parse("fiji.cs.washington.edu").expect("name");
    let rr = |ttl| ResourceRecord::a(owner.clone(), ttl, NetAddr::of(HostId(1)));

    let drivers = [
        Driver {
            name: "HnsCache",
            insert: Box::new(|ttl| hns.insert(w, key, &Value::U32(7), 1, ttl)),
            probe: Box::new(|| match hns.lookup(w, &key) {
                CacheLookup::Hit { value, .. } => Some(Arc::as_ptr(&value) as usize),
                _ => None,
            }),
            stale: Some(Box::new(|| hns.lookup_stale(w, &key).is_some())),
            resident: Some(Box::new(|| hns.len())),
            hits_and_others: Box::new(|| {
                let s = hns.stats();
                (s.hits, s.misses + s.expired)
            }),
            register: Box::new(|m| m.register("c", &hns)),
            exported: &[
                "entries",
                "expired",
                "hits",
                "inserts",
                "misses",
                "negative_hits",
                "preloaded",
                "stale_serves",
            ],
        },
        Driver {
            name: "BindingCache",
            insert: Box::new(|ttl| {
                composed.insert_until(w, "qc", "ctx", binding(), w.now().after_secs(ttl))
            }),
            probe: Box::new(|| composed.lookup(w, "qc", "ctx").map(|_| 0)),
            stale: None,
            resident: None,
            hits_and_others: Box::new(|| {
                let s = composed.stats();
                (s.hits, s.misses + s.expired)
            }),
            register: Box::new(|m| m.register("c", &composed)),
            exported: &[
                "expired",
                "hits",
                "inserts",
                "misses",
                "service_expired",
                "service_hits",
                "service_inserts",
                "service_misses",
            ],
        },
        Driver {
            name: "NsmCache",
            insert: Box::new(|ttl| nsm.insert(w, "k", &Value::U32(7), 1, ttl)),
            probe: Box::new(|| nsm.get(w, "k").map(|_| 0)),
            stale: None,
            resident: None,
            hits_and_others: Box::new(|| nsm.stats()),
            register: Box::new(|m| m.register("c", &nsm)),
            exported: &["entries", "hits", "misses"],
        },
        Driver {
            name: "TtlCache",
            insert: Box::new(|ttl| bind.insert(w.now(), owner.clone(), RType::A, vec![rr(ttl)])),
            probe: Box::new(|| {
                bind.get(w.now(), &owner, RType::A)
                    .map(|records| Arc::as_ptr(&records) as *const u8 as usize)
            }),
            stale: Some(Box::new(|| {
                bind.get_stale(w.now(), &owner, RType::A).is_some()
            })),
            resident: Some(Box::new(|| usize::from(!bind.is_empty()))),
            hits_and_others: Box::new(|| {
                let s = bind.stats();
                (s.hits, s.misses)
            }),
            register: Box::new(|m| m.register("c", &bind)),
            exported: &["entries", "expirations", "hits", "misses", "stale_serves"],
        },
    ];

    for d in &drivers {
        let name = d.name;
        let stale = || d.stale.as_ref().map(|stale| stale());
        let resident = || d.resident.as_ref().map(|resident| resident());

        assert_eq!((d.probe)(), None, "{name}: a cold probe misses");
        assert_eq!(stale(), d.stale.as_ref().map(|_| false), "{name}: absent");

        // An insert whose expiry is `now` (TTL 0) files an entry expired on
        // arrival: no live probe returns it, and the caches that serve
        // stale hold it. The composed cache refuses it outright.
        (d.insert)(0);
        assert_eq!((d.probe)(), None, "{name}: expired on arrival");
        assert_eq!(stale(), d.stale.as_ref().map(|_| true), "{name}: filed");

        // A live hit hands out the stored allocation, not a copy of it.
        (d.insert)(2);
        let first = (d.probe)().unwrap_or_else(|| panic!("{name}: live hit"));
        let second = (d.probe)().unwrap_or_else(|| panic!("{name}: live hit"));
        assert_eq!(first, second, "{name}: hits share one allocation");
        assert_eq!(
            stale(),
            d.stale.as_ref().map(|_| false),
            "{name}: a live entry is never served stale"
        );

        // Expiry hides the entry from probes but keeps it resident…
        w.wait(SimDuration::from_ms(2_000));
        assert_eq!((d.probe)(), None, "{name}: expired entries are hidden");
        assert_eq!(resident(), d.resident.as_ref().map(|_| 1), "{name}: kept");
        // …which is what the stale probe serves.
        assert_eq!(stale(), d.stale.as_ref().map(|_| true), "{name}: stale");

        // A re-insert overwrites the expired entry in place.
        (d.insert)(600);
        assert!((d.probe)().is_some(), "{name}: refreshed entry is live");
        assert_eq!(resident(), d.resident.as_ref().map(|_| 1), "{name}: one");

        assert_eq!(
            (d.hits_and_others)(),
            (3, 3),
            "{name}: every probe is a hit or exactly one kind of miss"
        );

        let metrics = MetricsRegistry::new();
        (d.register)(&metrics);
        let published: Vec<String> = metrics
            .snapshot()
            .counters
            .into_iter()
            .map(|c| c.name)
            .collect();
        assert_eq!(published, d.exported, "{name}: published counter names");
    }
}
