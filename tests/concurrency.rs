//! Thread-safety: the fabric, caches, and HNS instances are shared state
//! (`Arc` + locks); concurrent clients must resolve correctly. Virtual
//! time is a global accumulator, so timings are not meaningful here —
//! only correctness and absence of deadlocks/poisoning.

use std::sync::{Arc, Barrier};

use hns_repro::hns_core::cache::{CacheLookup, CacheMode, HnsCache, MetaKey};
use hns_repro::hns_core::name::HnsName;
use hns_repro::hns_core::query::QueryClass;
use hns_repro::nsms::harness::{Testbed, DESIRED_SERVICE_PROGRAM};
use hns_repro::nsms::nsm_cache::NsmCacheForm;
use hns_repro::wire::Value;

#[test]
fn concurrent_findnsm_on_shared_instance() {
    let tb = Testbed::build();
    tb.deploy_binding_nsms(tb.hosts.nsm, NsmCacheForm::Demarshalled);
    let hns = tb.make_hns(tb.hosts.client, CacheMode::Demarshalled);
    let name = HnsName::new(tb.ctx_bind(), "fiji.cs.washington.edu").expect("name");

    let mut handles = Vec::new();
    for t in 0..8 {
        let hns = Arc::clone(&hns);
        let name = name.clone();
        let expect_host = tb.hosts.nsm;
        handles.push(std::thread::spawn(move || {
            let qc = QueryClass::hrpc_binding();
            for i in 0..50 {
                let binding = hns
                    .find_nsm(&qc, &name)
                    .unwrap_or_else(|e| panic!("thread {t} iter {i}: {e}"));
                assert_eq!(binding.host, expect_host);
            }
        }));
    }
    for h in handles {
        h.join().expect("no panics");
    }
    // Every lookup lands in exactly one accounting bucket: a warm walk
    // probes the cache at least once.
    let stats = hns.cache_stats();
    assert!(
        stats.hits + stats.misses >= 8 * 50,
        "all lookups accounted: {stats:?}"
    );
}

#[test]
fn concurrent_misses_on_one_key_each_fetch_and_leave_one_entry() {
    // K threads miss on the same key at once (the barrier after the probe
    // holds every insert back until all have missed); nothing gates the
    // miss, so each performs the (simulated) fetch and inserts an equal
    // value, the later inserts overwriting the earlier ones.
    const THREADS: usize = 8;
    let world = hns_repro::simnet::World::paper();
    let cache = Arc::new(HnsCache::new(CacheMode::Demarshalled));
    let key = MetaKey::host_addr("BIND", "fiji");
    let barrier = Arc::new(Barrier::new(THREADS));

    let mut handles = Vec::new();
    for _ in 0..THREADS {
        let world = Arc::clone(&world);
        let cache = Arc::clone(&cache);
        let barrier = Arc::clone(&barrier);
        handles.push(std::thread::spawn(move || {
            barrier.wait();
            assert!(matches!(cache.lookup(&world, &key), CacheLookup::Miss));
            barrier.wait();
            cache.insert(&world, key, &Value::U32(7), 1, 600);
            match cache.lookup(&world, &key) {
                CacheLookup::Hit { value, .. } => (*value).clone(),
                other => panic!("own insert must be live, got {other:?}"),
            }
        }));
    }
    for h in handles {
        assert_eq!(h.join().expect("no panics"), Value::U32(7));
    }
    assert_eq!(cache.len(), 1, "one key, one resident entry");
    let stats = cache.stats();
    assert_eq!(stats.misses, THREADS as u64);
    assert_eq!(stats.inserts, THREADS as u64);
    assert_eq!(
        stats.hits + stats.misses + stats.expired + stats.negative_hits,
        2 * THREADS as u64,
        "every lookup lands in exactly one bucket: {stats:?}"
    );
}

#[test]
fn concurrent_batched_findnsm_on_shared_instance() {
    let tb = Testbed::build();
    tb.deploy_binding_nsms(tb.hosts.nsm, NsmCacheForm::Demarshalled);
    let hns = tb.make_hns(tb.hosts.client, CacheMode::Demarshalled);
    hns.set_batching(true);
    let name = HnsName::new(tb.ctx_bind(), "fiji.cs.washington.edu").expect("name");

    let mut handles = Vec::new();
    for t in 0..8 {
        let hns = Arc::clone(&hns);
        let name = name.clone();
        let expect_host = tb.hosts.nsm;
        handles.push(std::thread::spawn(move || {
            let qc = QueryClass::hrpc_binding();
            for i in 0..50 {
                let binding = hns
                    .find_nsm(&qc, &name)
                    .unwrap_or_else(|e| panic!("thread {t} iter {i}: {e}"));
                assert_eq!(binding.host, expect_host);
            }
        }));
    }
    for h in handles {
        h.join().expect("no panics");
    }
}

#[test]
fn concurrent_hits_and_misses_keep_stats_consistent() {
    // Disjoint key sets per thread: every thread's first probe of a key is
    // a miss and the rest are hits; no count may be lost.
    const THREADS: u64 = 4;
    const KEYS: u64 = 16;
    const ROUNDS: u64 = 10;
    let world = hns_repro::simnet::World::paper();
    let cache = Arc::new(HnsCache::new(CacheMode::Demarshalled));
    let mut handles = Vec::new();
    for t in 0..THREADS {
        let world = Arc::clone(&world);
        let cache = Arc::clone(&cache);
        handles.push(std::thread::spawn(move || {
            for k in 0..KEYS {
                let key = MetaKey::host_addr(&format!("ns-{t}"), &format!("host-{k}"));
                for round in 0..ROUNDS {
                    match cache.lookup(&world, &key) {
                        CacheLookup::Hit { value, .. } => {
                            assert_eq!(*value, Value::U32((t * KEYS + k) as u32));
                            assert!(round > 0, "first probe cannot hit");
                        }
                        CacheLookup::Miss => {
                            assert_eq!(round, 0, "only the first probe may miss");
                            cache.insert(&world, key, &Value::U32((t * KEYS + k) as u32), 1, 600);
                        }
                        CacheLookup::NegativeHit => panic!("no negatives inserted"),
                    }
                }
            }
        }));
    }
    for h in handles {
        h.join().expect("no panics");
    }
    let stats = cache.stats();
    assert_eq!(stats.misses, THREADS * KEYS);
    assert_eq!(stats.hits, THREADS * KEYS * (ROUNDS - 1));
    assert_eq!(stats.inserts, THREADS * KEYS);
    assert_eq!(cache.len() as u64, THREADS * KEYS);
}

#[test]
fn concurrent_clients_over_the_fabric() {
    let tb = Testbed::build();
    tb.deploy_binding_nsms(tb.hosts.nsm, NsmCacheForm::Demarshalled);
    let mut handles = Vec::new();
    for t in 0..6 {
        let net = Arc::clone(&tb.net);
        let fiji = tb.hosts.fiji;
        let client = tb.hosts.client;
        handles.push(std::thread::spawn(move || {
            let port = net
                .portmap_getport(fiji, DESIRED_SERVICE_PROGRAM)
                .expect("port");
            let binding = hns_repro::hrpc::HrpcBinding {
                host: fiji,
                addr: hns_repro::simnet::NetAddr::of(fiji),
                program: DESIRED_SERVICE_PROGRAM,
                port,
                components: hns_repro::hrpc::ComponentSet::sun(),
            };
            for i in 0..100 {
                let payload = Value::U32(t * 1000 + i);
                let reply = net.call(client, &binding, 1, &payload).expect("call");
                assert_eq!(reply, Value::record(vec![("echo", payload)]));
            }
        }));
    }
    for h in handles {
        h.join().expect("no panics");
    }
}

#[test]
fn concurrent_registration_and_lookup() {
    // Writers re-register NSM locations while readers resolve; readers
    // must always see one of the valid registrations, never torn state.
    let tb = Testbed::build();
    tb.deploy_binding_nsms(tb.hosts.nsm, NsmCacheForm::Demarshalled);
    let name = HnsName::new(tb.ctx_bind(), "fiji.cs.washington.edu").expect("name");

    let writer_tb = tb.make_hns(tb.hosts.meta, CacheMode::Disabled);
    let valid_hosts = [tb.hosts.nsm, tb.hosts.agent];
    let writer_hosts = valid_hosts;
    let world = Arc::clone(&tb.world);
    let topology_names: Vec<String> = writer_hosts
        .iter()
        .map(|h| world.topology.host_name(*h).expect("host"))
        .collect();

    let writer = std::thread::spawn(move || {
        for round in 0..40 {
            let idx = round % 2;
            writer_tb
                .register_nsm_info(&hns_repro::hns_core::NsmInfo {
                    nsm_name: hns_repro::nsms::BindingBindNsm::NAME.into(),
                    binding: hns_repro::hns_core::NsmBinding {
                        host_name: topology_names[idx].clone(),
                        host_context: hns_repro::hns_core::Context::new("hns-hosts").expect("ctx"),
                        program: hns_repro::nsms::harness::NSM_EXPORT_PROGRAM,
                        port: 1024,
                        suite: hns_repro::hns_core::SuiteTag::Sun,
                        version: 1,
                        owner: "writer".into(),
                    },
                })
                .expect("re-register");
        }
    });

    let mut readers = Vec::new();
    for _ in 0..4 {
        // Uncached readers observe every write directly.
        let hns = tb.make_hns(tb.hosts.client, CacheMode::Disabled);
        let name = name.clone();
        readers.push(std::thread::spawn(move || {
            let qc = QueryClass::hrpc_binding();
            for _ in 0..25 {
                let binding = hns.find_nsm(&qc, &name).expect("resolve during churn");
                assert!(
                    valid_hosts.contains(&binding.host),
                    "torn registration: {:?}",
                    binding.host
                );
            }
        }));
    }
    writer.join().expect("writer ok");
    for r in readers {
        r.join().expect("reader ok");
    }
}
