//! E-W — the work record: what an op of the benchmark's query mix
//! ([`crate::mix`]) does, counted, not timed. For the warm mix (every
//! cache on, `warm_query`'s shape) and the cold one (every cache off,
//! `cold_walk`'s), each of the six pair kinds by how its `FindNSM` was
//! answered: the ops, and their allocations, bytes allocated and remote
//! calls, in all and an op. The counts are deterministic, so the output
//! is committed as `WORK_exact.txt` and a change in any line is a change
//! in the work.

use std::fmt::Write;

use hns_core::cache::CacheMode;
use nsms::nsm_cache::NsmCacheForm;

use crate::mix::{OpWork, Outcome, PairKind, QueryMix};

/// Ops of the warm mix.
pub const WARM_OPS: usize = 60_000;
/// Ops of the cold mix.
pub const COLD_OPS: usize = 20_000;

/// Runs both mixes and renders their tables.
pub fn run() -> String {
    let mut out = String::new();
    let warm = QueryMix::build(CacheMode::Demarshalled, true, NsmCacheForm::Demarshalled);
    let what =
        "every cache on: HNS demarshalled, composed binding cache, binding NSMs demarshalled";
    render(&mut out, "warm", what, &warm.run(WARM_OPS));
    drop(warm);
    let cold = QueryMix::build(CacheMode::Disabled, false, NsmCacheForm::Disabled);
    let what = "the HNS, composed and binding-NSM caches off";
    render(&mut out, "cold", what, &cold.run(COLD_OPS));
    out
}

/// One mix's table: a row per pair kind and outcome, then the mix.
fn render(out: &mut String, mix: &str, what: &str, work: &[OpWork]) {
    let _ = writeln!(out, "{mix} mix, {} ops; {what}", work.len());
    let _ = writeln!(
        out,
        "{:<13} {:<15} {:>6} {:>7} {:>6} {:>9} {:>7} {:>6} {:>6}",
        "pair kind", "FindNSM", "ops", "allocs", "/op", "bytes", "/op", "remote", "/op"
    );
    for kind in PairKind::ALL {
        for outcome in Outcome::ALL {
            let ops = work
                .iter()
                .filter(|op| op.kind == kind && op.outcome == outcome);
            row(out, &kind.to_string(), &outcome.to_string(), ops);
        }
    }
    row(out, "all", "", work.iter());
}

/// The totals of `ops`, and each an op (`-` when there are none).
fn row<'a>(out: &mut String, kind: &str, outcome: &str, ops: impl Iterator<Item = &'a OpWork>) {
    let (n, allocs, bytes, remote) = ops.fold((0, 0, 0, 0), |(n, a, b, r), op| {
        (n + 1, a + op.allocations, b + op.bytes, r + op.remote_calls)
    });
    let per_op = |total: u64| match n {
        0 => "-".to_string(),
        n => format!("{:.2}", total as f64 / n as f64),
    };
    let _ = writeln!(
        out,
        "{kind:<13} {outcome:<15} {n:>6} {allocs:>7} {:>6} {bytes:>9} {:>7} {remote:>6} {:>6}",
        per_op(allocs),
        per_op(bytes),
        per_op(remote)
    );
}
