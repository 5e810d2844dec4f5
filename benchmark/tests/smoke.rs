//! The benchmark's own end-to-end checks, on 1/100-length runs: every
//! workload answers correctly, the generator is deterministic, tracing
//! from outside changes nothing the stack computes, every catalogued
//! metric is produced, and `BENCHMARK.json` is the catalogue.

use hnsbench::cellworld::CellStack;
use hnsbench::probes;
use hnsbench::report::{self, END_TO_END, PER_LAYER};
use hnsbench::rng::Rng;
use hnsbench::runner::Stack;
use hnsbench::spans::{Kind, Tracer};
use hnsbench::testbed::{Config, TestbedStack};
use hnsbench::workload::{measure, Measured, Spec, Workload};

fn smoke(workload: Workload, seed: u64) -> Spec {
    Spec {
        workload,
        seed,
        seconds: 12.0,
        smoke: true,
    }
}

fn value(metrics: &[report::Metric], name: &str) -> f64 {
    metrics
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("{name} missing"))
        .value
}

fn assert_clean(workload: Workload, m: &Measured) {
    assert_eq!(
        m.window.failed,
        0,
        "{}: {:?}",
        workload.name(),
        m.window.first_failure
    );
    assert!(
        m.window.ops > 100,
        "{} ran {}",
        workload.name(),
        m.window.ops
    );
    assert!(!m.window.slices.is_empty());
}

#[test]
fn every_workload_is_correct_and_shims_change_nothing() {
    let probes = probes::run_all(0.05);
    for workload in Workload::ALL {
        let spec = smoke(workload, 1987);
        let plain = measure(&spec, None, 1.0, 1);
        let traced = measure(&spec, Some(Tracer::new()), 1.0, 1);
        assert_clean(workload, &plain);
        assert_clean(workload, &traced);

        // Interposing shims on every server and recording spans must
        // leave every answer, every call count and virtual time alone.
        assert_eq!(
            plain.window.digest,
            traced.window.digest,
            "{}",
            workload.name()
        );
        assert_eq!(
            plain.window.counts,
            traced.window.counts,
            "{}",
            workload.name()
        );
        assert!(plain.spans.is_empty());
        let roots = traced.spans.iter().filter(|s| s.kind == Kind::Op).count();
        assert_eq!(roots as u64, traced.window.ops);
        assert!(traced.spans.iter().any(|s| s.kind.is_server()));

        let e2e = report::end_to_end(&plain);
        assert_eq!(e2e.len(), END_TO_END.len());
        for m in &e2e {
            assert!(
                m.value.is_finite() && m.value > 0.0,
                "{} = {}",
                m.name,
                m.value
            );
        }

        let layers = report::per_layer(&probes, &plain, &traced);
        assert_eq!(layers.len(), PER_LAYER.len());
        for m in &layers {
            assert!(m.value.is_finite(), "{} = {}", m.name, m.value);
        }
        assert_eq!(value(&layers, "fail_ratio"), 0.0);
        assert!(value(&layers, "virt_ms_per_op") > 0.0);
        assert!(value(&layers, "trace.overhead_ratio") > 0.0);
        let calls = value(&layers, "hrpc.remote_calls_per_op");
        match workload {
            // Six meta mappings + the NSM call + its name-service lookup.
            Workload::ColdWalk => {
                assert!(
                    (7.9..8.3).contains(&calls),
                    "cold_walk made {calls} calls/op"
                );
                assert_eq!(value(&layers, "hns-core.binding_cache.hit_ratio"), 0.0);
                assert_eq!(value(&layers, "regd.resolve.self_ns"), 0.0);
            }
            // Exactly one NSM call per op; the rest is the Clearinghouse
            // NSMs' own lookup and TTL re-walks.
            Workload::WarmQuery => {
                assert_eq!(value(&layers, "nsms.serve.calls_per_op"), 1.0);
                assert!(calls < 2.0, "warm_query made {calls} calls/op");
                assert_eq!(value(&layers, "clearinghouse.write.calls"), 0.0);
            }
            Workload::WriteMix => {
                assert!(value(&layers, "clearinghouse.write.calls") > 0.0);
                assert!(value(&layers, "bindns.update.calls") > 0.0);
                assert!(value(&layers, "regd.update.self_ns") > 0.0);
                assert!(value(&layers, "regd.collapse_hit_ratio") > 0.9);
            }
            Workload::ScaleZipf => {
                assert!(value(&layers, "bindns.cell_serve.calls_per_op") > 0.0);
                assert!(value(&layers, "bindns.resolver_cache.entries") > 0.0);
                assert!(value(&layers, "hns-core.preload.incremental_ns") > 0.0);
                assert!(value(&layers, "simnet.zone_resident_bytes_per_name") > 0.0);
            }
            Workload::OpenMixed => {
                assert_eq!(plain.window.phases.len(), 3);
                assert!(value(&layers, "sojourn_p99_ns.hi") > 0.0);
                assert!(value(&layers, "clearinghouse.write.calls") > 0.0);
            }
        }
    }
}

#[test]
fn a_seed_fixes_the_run_and_another_seed_changes_it() {
    for workload in [Workload::WriteMix, Workload::ScaleZipf, Workload::OpenMixed] {
        let a = measure(&smoke(workload, 7), None, 1.0, 1);
        let b = measure(&smoke(workload, 7), None, 1.0, 1);
        let c = measure(&smoke(workload, 8), None, 1.0, 1);
        assert_clean(workload, &a);
        assert_eq!(a.window.ops, b.window.ops);
        assert_eq!(a.window.digest, b.window.digest, "{}", workload.name());
        assert_eq!(a.window.counts, b.window.counts, "{}", workload.name());
        assert_ne!(a.window.digest, c.window.digest, "{}", workload.name());
    }
}

#[test]
fn op_sequences_are_pre_generated_from_the_seed_alone() {
    let gen = |seed: u64| {
        let mut stack = TestbedStack::build(Config::write_mix(), None);
        stack.gen(&mut Rng::new(seed), 20_000)
    };
    let (a, b, c) = (gen(3), gen(3), gen(4));
    assert_eq!(a, b);
    assert_ne!(a, c);
    // The mix is the one the workload states: 50 / 20 / 30.
    let share = |f: fn(&hnsbench::testbed::Op) -> bool| {
        a.iter().filter(|op| f(op)).count() as f64 / a.len() as f64
    };
    use hnsbench::testbed::Op;
    assert!((share(|op| matches!(op, Op::Query { .. })) - 0.5).abs() < 0.02);
    assert!((share(|op| matches!(op, Op::Resolve { .. })) - 0.2).abs() < 0.02);
    assert!((share(|op| matches!(op, Op::Update { .. })) - 0.225).abs() < 0.02);

    let names = |seed: u64| -> Vec<String> {
        let mut stack = CellStack::build(20_000, 500, 11, None);
        stack
            .gen(&mut Rng::new(seed), 2_000)
            .iter()
            .map(|op| match op {
                hnsbench::cellworld::CellOp::Query { name, gens, .. } => format!("q {name} {gens}"),
                hnsbench::cellworld::CellOp::Update { name, gen, .. } => format!("u {name} {gen}"),
                hnsbench::cellworld::CellOp::Preload => "preload".into(),
            })
            .collect()
    };
    assert_eq!(names(5), names(5));
    assert_ne!(names(5), names(6));
    assert_eq!(names(5).iter().filter(|n| *n == "preload").count(), 3);
}

#[test]
fn benchmark_json_is_the_catalogue() {
    let committed = include_str!("../../BENCHMARK.json");
    assert_eq!(
        committed,
        report::manifest(),
        "regenerate with `bash benchmark/run.sh manifest > BENCHMARK.json`"
    );
}
