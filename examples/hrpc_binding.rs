//! The paper's §3 worked example, step by step.
//!
//! ```text
//! Import(ServiceName: "DesiredService",
//!        HostName:    "BIND,fiji.cs.washington.edu",
//!        ResultBinding: DesiredBinding)
//! ```
//!
//! This example performs the same operation *without* the `Importer`
//! convenience wrapper, showing each phase the paper narrates: the
//! `FindNSM` call, the call to the designated binding NSM, and the final
//! system-independent binding — then demonstrates the caching behaviour
//! that §3 measures (460 → 88 ms FindNSM, Table 3.1 row 1).
//!
//! ```text
//! cargo run --example hrpc_binding
//! ```

use std::sync::Arc;

use hns_repro::hns_core::cache::CacheMode;
use hns_repro::hns_core::name::HnsName;
use hns_repro::hns_core::nsm::NsmClient;
use hns_repro::hns_core::query::QueryClass;
use hns_repro::hrpc::HrpcBinding;
use hns_repro::nsms::harness::{Testbed, DESIRED_SERVICE, DESIRED_SERVICE_PROGRAM};
use hns_repro::nsms::nsm_cache::NsmCacheForm;
use hns_repro::wire::Value;

fn main() {
    let tb = Testbed::build();
    tb.deploy_binding_nsms(tb.hosts.client, NsmCacheForm::Marshalled);
    let hns = tb.make_hns(tb.hosts.client, CacheMode::Marshalled);

    // The client presents an HNS name: context + individual name. The
    // paper spells the pair "BIND,fiji.cs.washington.edu"; here the
    // context registered for BIND-named hosts is `bind-uw`.
    let hns_name = HnsName::new(tb.ctx_bind(), "fiji.cs.washington.edu").expect("name");
    println!("HNS name: {hns_name}");

    // Phase 1 — FindNSM: context + query class -> binding for the NSM.
    let (nsm_binding, ledger) = tb
        .world
        .measure(|| hns.find_nsm(&QueryClass::hrpc_binding(), &hns_name));
    let find_cold = ledger.total();
    let calls = ledger.counters();
    let nsm_binding = nsm_binding.expect("FindNSM");
    println!(
        "FindNSM (cold): {:.1} ms, {} remote data mappings -> NSM at {}:{}",
        find_cold.as_ms_f64(),
        calls.remote_calls,
        nsm_binding.host,
        nsm_binding.port
    );

    // Phase 2 — call the designated NSM with the original HNS name plus
    // the query-class-specific arguments.
    let nsm_client = NsmClient::new(Arc::clone(&tb.net), tb.hosts.client);
    let (reply, ledger) = tb.world.measure(|| {
        nsm_client.call(
            &nsm_binding,
            &hns_name,
            vec![
                ("service", Value::str(DESIRED_SERVICE)),
                ("program", Value::U32(DESIRED_SERVICE_PROGRAM.0)),
            ],
        )
    });
    let nsm_ms = ledger.total();
    let reply = reply.expect("binding NSM");
    let desired_binding = HrpcBinding::from_value(&reply).expect("binding decodes");
    println!(
        "binding NSM: {:.1} ms -> DesiredService at {}:{} over {:?}",
        nsm_ms.as_ms_f64(),
        desired_binding.host,
        desired_binding.port,
        desired_binding.components.suite_kind()
    );

    // Phase 3 — the client calls the service through the returned binding.
    let reply = tb
        .net
        .call(tb.hosts.client, &desired_binding, 1, &Value::str("ping"))
        .expect("DesiredService");
    println!("DesiredService replied: {reply}");

    // The caching behaviour of §3: the same FindNSM again, now warm.
    let (r, ledger) = tb
        .world
        .measure(|| hns.find_nsm(&QueryClass::hrpc_binding(), &hns_name));
    let find_warm = ledger.total();
    let warm_calls = ledger.counters();
    r.expect("warm FindNSM");
    println!(
        "FindNSM (warm): {:.1} ms, {} remote calls (paper: 460 -> 88 ms)",
        find_warm.as_ms_f64(),
        warm_calls.remote_calls
    );
    let stats = hns.cache_stats();
    println!("HNS cache: {} hits, {} misses", stats.hits, stats.misses);
}
