//! End-to-end tests of `FindNSM` and `Import` over the full testbed:
//! structure (exact remote-call counts) and calibrated timings (Table 3.1
//! row 1 and the §3 inline numbers).

use std::sync::Arc;

use hns_core::cache::CacheMode;
use hns_core::colocation::HnsHandle;
use hns_core::name::{HnsName, NameMapping};
use hns_core::query::QueryClass;
use hns_core::service::HnsConfig;
use hrpc::ProgramId;
use nsms::harness::{
    Testbed, DESIRED_SERVICE, DESIRED_SERVICE_PROGRAM, NSM_EXPORT_PROGRAM, NS_BIND, PRINT_SERVICE,
    PRINT_SERVICE_PROGRAM,
};
use nsms::mail::MailBindNsm;
use nsms::nsm_cache::NsmCacheForm;
use nsms::Importer;
use simnet::time::SimDuration;
use wire::Value;

fn fiji_name(tb: &Testbed) -> HnsName {
    HnsName::new(tb.ctx_bind(), "fiji.cs.washington.edu").expect("name")
}

fn printer_name(tb: &Testbed) -> HnsName {
    HnsName::new(tb.ctx_ch(), "printserver:cs:uw").expect("name")
}

#[test]
fn cold_findnsm_makes_exactly_six_data_mappings() {
    // "the basic HNS scheme requires six data mappings, each of which
    // involves a remote call in the case of a cache miss".
    let tb = Testbed::build();
    tb.deploy_binding_nsms(tb.hosts.nsm, NsmCacheForm::Marshalled);
    let hns = tb.make_hns(tb.hosts.client, CacheMode::Marshalled);
    let (result, ledger) = tb
        .world
        .measure(|| hns.find_nsm(&QueryClass::hrpc_binding(), &fiji_name(&tb)));
    let delta = ledger.counters();
    assert!(result.is_ok(), "{result:?}");
    assert_eq!(
        delta.remote_calls, 6,
        "cold FindNSM must make 6 remote calls"
    );
}

#[test]
fn warm_findnsm_makes_no_remote_calls() {
    let tb = Testbed::build();
    tb.deploy_binding_nsms(tb.hosts.nsm, NsmCacheForm::Marshalled);
    let hns = tb.make_hns(tb.hosts.client, CacheMode::Marshalled);
    let qc = QueryClass::hrpc_binding();
    hns.find_nsm(&qc, &fiji_name(&tb)).expect("cold");
    let (result, ledger) = tb.world.measure(|| hns.find_nsm(&qc, &fiji_name(&tb)));
    let took = ledger.total();
    let delta = ledger.counters();
    assert!(result.is_ok());
    assert_eq!(delta.remote_calls, 0, "warm FindNSM must be fully cached");
    // Warm, marshalled-form FindNSM: the paper's 88 ms figure.
    let ms = took.as_ms_f64();
    assert!(
        (ms - 88.0).abs() < 8.0,
        "warm FindNSM took {ms} ms, paper 88"
    );
}

#[test]
fn cold_findnsm_cost_matches_decomposition() {
    // 4 one-record meta lookups (~65.7 each) + the six-record NSM info
    // lookup (~77.8) + one public BIND lookup (~26.7) + bookkeeping.
    let tb = Testbed::build();
    tb.deploy_binding_nsms(tb.hosts.nsm, NsmCacheForm::Marshalled);
    let hns = tb.make_hns(tb.hosts.client, CacheMode::Marshalled);
    let (result, ledger) = tb
        .world
        .measure(|| hns.find_nsm(&QueryClass::hrpc_binding(), &fiji_name(&tb)));
    let took = ledger.total();
    assert!(result.is_ok());
    let ms = took.as_ms_f64();
    assert!(
        (ms - 370.0).abs() < 15.0,
        "cold FindNSM took {ms} ms, expected ~370"
    );
}

#[test]
fn uncached_findnsm_always_pays_full_price() {
    let tb = Testbed::build();
    tb.deploy_binding_nsms(tb.hosts.nsm, NsmCacheForm::Marshalled);
    let hns = tb.make_hns(tb.hosts.client, CacheMode::Disabled);
    let qc = QueryClass::hrpc_binding();
    hns.find_nsm(&qc, &fiji_name(&tb)).expect("first");
    let (_, ledger) = tb.world.measure(|| hns.find_nsm(&qc, &fiji_name(&tb)));
    let took = ledger.total();
    let delta = ledger.counters();
    assert_eq!(delta.remote_calls, 6, "disabled cache must refetch");
    assert!(took.as_ms_f64() > 300.0);
}

#[test]
fn import_row1_cold_matches_table_3_1_column_a() {
    // Arrangement [Client, HNS, NSMs], cache miss: paper 460 ms.
    let tb = Testbed::build();
    tb.deploy_binding_nsms(tb.hosts.client, NsmCacheForm::Marshalled);
    let hns = tb.make_hns(tb.hosts.client, CacheMode::Marshalled);
    let importer = Importer::new(Arc::clone(&tb.net), tb.hosts.client, HnsHandle::Linked(hns));
    let (binding, ledger) = tb
        .world
        .measure(|| importer.import(DESIRED_SERVICE, DESIRED_SERVICE_PROGRAM, &fiji_name(&tb)));
    let took = ledger.total();
    let binding = binding.expect("import");
    assert_eq!(binding.host, tb.hosts.fiji);
    let ms = took.as_ms_f64();
    assert!(
        (ms - 460.0).abs() / 460.0 < 0.05,
        "row1 column A: {ms} ms vs paper 460 (±5%)"
    );
}

#[test]
fn import_row1_hns_hit_matches_table_3_1_column_b() {
    // HNS cache hit, NSM cache miss: paper 180 ms.
    let tb = Testbed::build();
    let nsms = tb.deploy_binding_nsms(tb.hosts.client, NsmCacheForm::Marshalled);
    let hns = tb.make_hns(tb.hosts.client, CacheMode::Marshalled);
    let importer = Importer::new(Arc::clone(&tb.net), tb.hosts.client, HnsHandle::Linked(hns));
    importer
        .import(DESIRED_SERVICE, DESIRED_SERVICE_PROGRAM, &fiji_name(&tb))
        .expect("warm HNS");
    nsms.bind.clear_cache(); // Force the NSM phase to miss again.
    let (_, ledger) = tb
        .world
        .measure(|| importer.import(DESIRED_SERVICE, DESIRED_SERVICE_PROGRAM, &fiji_name(&tb)));
    let took = ledger.total();
    let ms = took.as_ms_f64();
    assert!(
        (ms - 180.0).abs() / 180.0 < 0.08,
        "row1 column B: {ms} ms vs paper 180 (±8%)"
    );
}

#[test]
fn import_row1_both_hit_matches_table_3_1_column_c() {
    // Both caches hit: paper 104 ms.
    let tb = Testbed::build();
    tb.deploy_binding_nsms(tb.hosts.client, NsmCacheForm::Marshalled);
    let hns = tb.make_hns(tb.hosts.client, CacheMode::Marshalled);
    let importer = Importer::new(Arc::clone(&tb.net), tb.hosts.client, HnsHandle::Linked(hns));
    importer
        .import(DESIRED_SERVICE, DESIRED_SERVICE_PROGRAM, &fiji_name(&tb))
        .expect("warm everything");
    let (_, ledger) = tb
        .world
        .measure(|| importer.import(DESIRED_SERVICE, DESIRED_SERVICE_PROGRAM, &fiji_name(&tb)));
    let took = ledger.total();
    let delta = ledger.counters();
    let ms = took.as_ms_f64();
    assert_eq!(delta.remote_calls, 0);
    assert!(
        (ms - 104.0).abs() / 104.0 < 0.06,
        "row1 column C: {ms} ms vs paper 104 (±6%)"
    );
}

#[test]
fn imported_binding_actually_calls_the_service() {
    let tb = Testbed::build();
    tb.deploy_binding_nsms(tb.hosts.nsm, NsmCacheForm::Marshalled);
    let hns = tb.make_hns(tb.hosts.client, CacheMode::Demarshalled);
    let importer = Importer::new(Arc::clone(&tb.net), tb.hosts.client, HnsHandle::Linked(hns));
    let binding = importer
        .import(DESIRED_SERVICE, DESIRED_SERVICE_PROGRAM, &fiji_name(&tb))
        .expect("import");
    let reply = tb
        .net
        .call(tb.hosts.client, &binding, 1, &Value::str("ping"))
        .expect("call service");
    assert_eq!(reply, Value::record(vec![("echo", Value::str("ping"))]));
}

#[test]
fn identical_client_code_binds_courier_service_via_clearinghouse() {
    // The heterogeneity claim: the same Import call works for a name that
    // lives in the Clearinghouse, without the client knowing.
    let tb = Testbed::build();
    tb.deploy_binding_nsms(tb.hosts.nsm, NsmCacheForm::Marshalled);
    let hns = tb.make_hns(tb.hosts.client, CacheMode::Demarshalled);
    let importer = Importer::new(Arc::clone(&tb.net), tb.hosts.client, HnsHandle::Linked(hns));
    let binding = importer
        .import(PRINT_SERVICE, PRINT_SERVICE_PROGRAM, &printer_name(&tb))
        .expect("import via CH");
    assert_eq!(binding.host, tb.hosts.printer);
    assert_eq!(
        binding.components.suite_kind(),
        simnet::costs::RpcSuiteKind::Courier,
        "CH-named service must come back with its native Courier suite"
    );
    let reply = tb
        .net
        .call(tb.hosts.client, &binding, 1, &Value::Void)
        .expect("call print service");
    assert_eq!(reply, Value::str("queued"));
}

#[test]
fn clearinghouse_binding_is_slower_due_to_auth_and_disk() {
    let tb = Testbed::build();
    tb.deploy_binding_nsms(tb.hosts.nsm, NsmCacheForm::Marshalled);
    let hns = tb.make_hns(tb.hosts.client, CacheMode::Marshalled);
    let importer = Importer::new(
        Arc::clone(&tb.net),
        tb.hosts.client,
        HnsHandle::Linked(Arc::clone(&hns)),
    );
    let (_, ledger) = tb
        .world
        .measure(|| importer.import(DESIRED_SERVICE, DESIRED_SERVICE_PROGRAM, &fiji_name(&tb)));
    let bind_cold = ledger.total();
    // Fresh meta cache so both paths pay the same FindNSM cost and the
    // difference isolates the NSM phase.
    hns.clear_cache();
    let (_, ledger) = tb
        .world
        .measure(|| importer.import(PRINT_SERVICE, PRINT_SERVICE_PROGRAM, &printer_name(&tb)));
    let ch_cold = ledger.total();
    assert!(
        ch_cold.as_ms_f64() > bind_cold.as_ms_f64() + 100.0,
        "CH path {ch_cold} should exceed BIND path {bind_cold} by the 156-27 ms gap"
    );
}

#[test]
fn unknown_context_and_missing_nsm_report_specific_errors() {
    let tb = Testbed::build();
    let hns = tb.make_hns(tb.hosts.client, CacheMode::Demarshalled);
    let bad_ctx = HnsName::parse("nowhere!fiji.cs.washington.edu").expect("name");
    assert!(matches!(
        hns.find_nsm(&QueryClass::hrpc_binding(), &bad_ctx),
        Err(hns_core::HnsError::NoSuchContext(_))
    ));
    // Context exists but no NSM registered for this query class.
    let name = fiji_name(&tb);
    assert!(matches!(
        hns.find_nsm(&QueryClass::new("Bogus"), &name),
        Err(hns_core::HnsError::NoSuchNsm { .. })
    ));
}

#[test]
fn batched_cold_findnsm_makes_at_most_two_remote_calls() {
    // The batched meta pipeline: one MQUERY carries mapping 1 and the
    // chaser piggybacks mappings 2-5, leaving only the public-BIND host
    // lookup as a second round trip.
    let tb = Testbed::build();
    tb.deploy_binding_nsms(tb.hosts.nsm, NsmCacheForm::Marshalled);
    let hns = tb.make_hns(tb.hosts.client, CacheMode::Marshalled);
    hns.set_batching(true);
    let (result, ledger) = tb
        .world
        .measure(|| hns.find_nsm(&QueryClass::hrpc_binding(), &fiji_name(&tb)));
    let delta = ledger.counters();
    assert!(result.is_ok(), "{result:?}");
    assert!(
        delta.remote_calls <= 2,
        "batched cold FindNSM made {} remote calls, want <= 2",
        delta.remote_calls
    );
    // Warm path is unchanged: everything the batch seeded now hits.
    let (result, ledger) = tb
        .world
        .measure(|| hns.find_nsm(&QueryClass::hrpc_binding(), &fiji_name(&tb)));
    let delta = ledger.counters();
    assert!(result.is_ok());
    assert_eq!(delta.remote_calls, 0, "warm batched FindNSM must be cached");
}

#[test]
fn batched_findnsm_returns_the_same_binding_faster() {
    let sequential = Testbed::build();
    sequential.deploy_binding_nsms(sequential.hosts.nsm, NsmCacheForm::Marshalled);
    let seq_hns = sequential.make_hns(sequential.hosts.client, CacheMode::Marshalled);
    let (seq_binding, ledger) = sequential
        .world
        .measure(|| seq_hns.find_nsm(&QueryClass::hrpc_binding(), &fiji_name(&sequential)));
    let seq_took = ledger.total();
    let seq_binding = seq_binding.expect("sequential");

    let batched = Testbed::build();
    batched.deploy_binding_nsms(batched.hosts.nsm, NsmCacheForm::Marshalled);
    let bat_hns = batched.make_hns(batched.hosts.client, CacheMode::Marshalled);
    bat_hns.set_batching(true);
    let (bat_binding, ledger) = batched
        .world
        .measure(|| bat_hns.find_nsm(&QueryClass::hrpc_binding(), &fiji_name(&batched)));
    let bat_took = ledger.total();
    let bat_binding = bat_binding.expect("batched");

    assert_eq!(bat_binding.host, seq_binding.host);
    assert_eq!(bat_binding.program, seq_binding.program);
    assert_eq!(bat_binding.port, seq_binding.port);
    // Four round trips elided, each saving a Raw-TCP RTT (22 ms) plus the
    // per-call resolver overhead (15.5 ms); marshalling work is unchanged.
    let saving = seq_took.as_ms_f64() - bat_took.as_ms_f64();
    assert!(
        (saving - 150.0).abs() < 15.0,
        "batching saved {saving} ms, expected ~150"
    );
}

#[test]
fn batching_serves_even_a_disabled_cache_via_the_overlay() {
    // With caching off the batch cannot seed anything persistent, but the
    // overlay still carries the piggybacked sets through one FindNSM —
    // for every (query class, context) pair the testbed deploys: a key
    // the server's chase derived differently from the client's walk
    // would miss the overlay and cost a third round trip.
    let tb = Testbed::build();
    tb.deploy_binding_nsms(tb.hosts.nsm, NsmCacheForm::Marshalled);
    tb.deploy_extension_nsms(tb.hosts.nsm);
    tb.deploy_user_nsms(tb.hosts.nsm);
    let hns = tb.make_hns(tb.hosts.client, CacheMode::Disabled);
    hns.set_batching(true);
    let classes = [
        QueryClass::hrpc_binding(),
        QueryClass::mailbox_location(),
        QueryClass::file_location(),
        QueryClass::user_info(),
    ];
    for qc in &classes {
        for name in [fiji_name(&tb), printer_name(&tb)] {
            let (result, ledger) = tb.world.measure(|| hns.find_nsm(qc, &name));
            let delta = ledger.counters();
            assert!(result.is_ok(), "{qc} in {}: {result:?}", name.context);
            assert!(
                delta.remote_calls <= 2,
                "uncached batched FindNSM({qc}, {}) made {} remote calls, want <= 2",
                name.context,
                delta.remote_calls
            );
        }
    }
}

#[test]
fn dynamic_updates_flow_into_findnsm_without_client_changes() {
    // "Registering an NSM with the HNS extends the functionality of all
    // machines at once": an application registers a brand-new query class
    // at runtime, through a different HNS instance, and a client built
    // (and turned away) before that resolves it with no change at all —
    // once its own memory of the refusal, `NEGATIVE_TTL`, has lapsed.
    for composed in [false, true] {
        let tb = Testbed::build();
        tb.deploy_binding_nsms(tb.hosts.nsm, NsmCacheForm::Marshalled);
        let cache = CacheMode::Demarshalled;
        let client = tb.make_hns(tb.hosts.client, HnsConfig { cache, composed });
        let (qc, name) = (QueryClass::mailbox_location(), fiji_name(&tb));
        let unserved = |result| matches!(result, Err(hns_core::HnsError::NoSuchNsm { .. }));
        assert!(unserved(client.find_nsm(&qc, &name)));

        let registrar = tb.make_hns(tb.hosts.meta, CacheMode::Disabled);
        let nsm = MailBindNsm::new(tb.std_resolver(tb.hosts.nsm), NameMapping::Identity);
        let program = ProgramId(NSM_EXPORT_PROGRAM.0 + 2);
        let hosts_ctx = tb.ctx_nsm_hosts();
        let registered = registrar
            .deploy_nsm(NS_BIND, nsm, tb.hosts.nsm, program, &hosts_ctx, "mail-team")
            .expect("register the mail NSM");

        // Inside the negative TTL the client answers from memory.
        let (again, ledger) = tb.world.measure(|| client.find_nsm(&qc, &name));
        let delta = ledger.counters();
        assert!(unserved(again), "composed={composed}");
        assert_eq!(delta.remote_calls, 0);
        tb.world.wait(SimDuration::from_ms(
            u64::from(hns_core::cache::NEGATIVE_TTL) * 1000,
        ));
        let found = client.find_nsm(&qc, &name).expect("mail NSM findable");
        assert_eq!(found, registered, "composed={composed}");
        assert_eq!((found.host, found.program), (tb.hosts.nsm, program));
    }
}
