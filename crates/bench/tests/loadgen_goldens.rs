//! The load engine must not perturb the virtual-time goldens.
//!
//! The sharded dispatch work (composed binding cache, per-worker
//! worlds) is pure throughput machinery: it must never change what the
//! simulation *computes*. This test drives an 8-thread open-loop run —
//! binding cache on — and then re-renders the
//! flagship deterministic experiments in the same process, asserting
//! they are byte-identical to the committed output and to a fresh
//! render. Any leakage from the load path into simulation semantics
//! (a stray charge, a perturbed instant, thread-dependent metric
//! registration) fails here.

use hns_bench::experiments as exp;
use hns_bench::loadgen;

#[test]
fn eight_thread_load_run_leaves_goldens_byte_identical() {
    let config = loadgen::LoadConfig {
        offered_qps: vec![8_000.0],
        open_threads: 8,
        open_duration_ms: 100,
        ..loadgen::LoadConfig::default()
    };
    let rep = loadgen::run(&config);
    let run = &rep.open_runs[0];
    assert_eq!(run.threads, 8);
    assert!(run.ops > 400, "8 workers ran their schedules: {}", run.ops);

    // table31, after the load run, in the load run's process:
    // byte-identical to its section of the committed `experiments all`
    // output (which `tests/cli.rs` holds the binary to as a whole).
    let rendered = format!(
        "=== experiment: table31 ===\n{}\n",
        exp::table31::run().render()
    );
    let all = include_str!("../../../experiments_output.txt");
    let next = all[1..].find("=== experiment:").expect("a second table") + 1;
    let golden = &all[..next];
    assert!(
        rendered == golden,
        "table31 diverged after an 8-thread load run\n--- golden ---\n{golden}\n--- got ---\n{rendered}"
    );

    // The traced scenario (spans + metrics snapshot) is equally a pure
    // function of the cost model; two renders must agree byte-for-byte.
    let a = exp::traced::run().render();
    let b = exp::traced::run().render();
    assert_eq!(a, b, "traced render must stay deterministic");
}
