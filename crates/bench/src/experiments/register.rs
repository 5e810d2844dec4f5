//! E-R — the write-heavy registration workload.
//!
//! Drives the `regd` frontend over the replicated Clearinghouse
//! through five phases:
//!
//! 1. **register** — N names registered to distinct owners; every
//!    registration is one primary write plus a meta-zone re-bind.
//! 2. **transfer** — each name's chain grows to a seeded depth; each
//!    transfer is a single signed link write.
//! 3. **resolve** — a second frontend with a cold collapse cache walks
//!    each chain once, then resolves it repeatedly in a single hop:
//!    the collapse hit ratio and chain-walk count come from the
//!    `regd/*` counters.
//! 4. **staleness** — rounds of re-bind → seeded gap → lazy
//!    propagation, with a partitioned reader probing the replica in
//!    the gap: the staleness window is the virtual time a failed-over
//!    read can observe the old binding, and `stale reads` counts the
//!    probes that actually did.
//! 5. **partition** — the primary becomes unreachable from the write
//!    front: writes degrade to typed `HostUnreachable` (never silent
//!    loss), failed-over reads keep answering, and after healing the
//!    write path recovers.
//!
//! Everything runs in virtual time under a seeded plan, so the
//! rendered report and the `hns-reg-v1` JSON export are byte-identical
//! across runs with the same configuration.

use hns_core::obs::metrics::HistogramStats;
use hns_core::obs::MetricsSnapshot;
use nsms::harness::{NS_BIND, NS_CH};
use regd::harness::{owner_key, owner_name, RegTestbed};
use regd::RegError;
use simnet::faults::FaultPlan;
use simnet::rng::DetRng;
use simnet::SimDuration;

use super::chaos::{events_json, events_table, Event};

/// Workload shape for `experiments register`.
#[derive(Debug, Clone, Copy)]
pub struct RegisterConfig {
    /// Names registered (each to its own owner).
    pub names: usize,
    /// Upper bound (inclusive) on each name's seeded chain depth.
    pub max_depth: u32,
    /// Warm resolves per name in the resolve phase.
    pub warm_resolves: usize,
    /// Re-bind → propagate rounds in the staleness phase.
    pub staleness_rounds: usize,
    /// Seed for depths, gaps, and window jitter.
    pub seed: u64,
}

impl Default for RegisterConfig {
    fn default() -> Self {
        RegisterConfig {
            names: 12,
            max_depth: 8,
            warm_resolves: 4,
            staleness_rounds: 5,
            seed: 1987,
        }
    }
}

/// Aggregates the acceptance assertions and the export read.
#[derive(Debug, Clone)]
pub struct RegisterOutcomes {
    /// Clearinghouse-write operations (registers + transfers + re-binds).
    pub write_ops: u64,
    /// Write operations per virtual second over the write phases.
    pub write_qps: f64,
    /// Full chain walks (`regd/chain_walks`).
    pub chain_walks: u64,
    /// Single-hop collapsed resolutions (`regd/collapse_hits`).
    pub collapse_hits: u64,
    /// Total resolutions (`regd/resolves`).
    pub resolves: u64,
    /// `collapse_hits / resolves`.
    pub hit_ratio: f64,
    /// Distribution of chain depths at transfer time.
    pub chain_depth: HistogramStats,
    /// Mean staleness window (write → propagation), virtual ms.
    pub staleness_mean_ms: f64,
    /// Largest staleness window, virtual ms.
    pub staleness_max_ms: f64,
    /// Failed-over reads that observed the old binding in the gap.
    pub stale_reads: u64,
    /// Writes that degraded to typed unreachability (`regd/write_unreachable`).
    pub write_unreachable: u64,
    /// The write path worked again after healing.
    pub recovered: bool,
}

/// The full registration run.
#[derive(Debug, Clone)]
pub struct RegisterRun {
    /// The workload it ran with.
    pub config: RegisterConfig,
    /// Per-operation observations, in execution order.
    pub events: Vec<Event>,
    /// Aggregates.
    pub outcomes: RegisterOutcomes,
    /// The unified metrics snapshot taken at the end.
    pub snapshot: MetricsSnapshot,
}

fn reg_counter(snapshot: &MetricsSnapshot, name: &str) -> u64 {
    snapshot.counter("regd", name).unwrap_or(0)
}

/// Runs the registration workload.
pub fn run(config: &RegisterConfig) -> RegisterRun {
    let owners = config.names + config.max_depth as usize + 1;
    let rtb = RegTestbed::build(owners);
    let reg = &rtb.registry;
    let world = &rtb.tb.world;
    let mut rng = DetRng::new(config.seed);
    let mut events = Vec::new();
    let mut observed = |t0, phase, label: &str, outcome: String| {
        events.push(Event::finished(world, t0, phase, label, outcome));
    };
    let names: Vec<String> = (0..config.names).map(|i| format!("svc{i}")).collect();

    // Phase 1: register. Owner i takes svc{i}, bound to BIND.
    let write_t0 = world.now();
    for (i, name) in names.iter().enumerate() {
        let t0 = world.now();
        reg.register(&owner_name(i), owner_key(i), name, NS_BIND)
            .expect("register");
        observed(t0, "register", name, "ok".into());
    }

    // Phase 2: transfer. Each chain grows to a seeded depth through a
    // fresh run of owners (the cycle rule forbids revisits).
    let mut holder: Vec<usize> = (0..config.names).collect();
    for (i, name) in names.iter().enumerate() {
        let depth = rng.next_below(u64::from(config.max_depth) + 1) as u32;
        let t0 = world.now();
        for step in 0..depth {
            let from = holder[i];
            // Owners `names..owners` are the transfer pool; stepping
            // through it in order never revisits a holder.
            let to = config.names + step as usize;
            reg.transfer(
                &owner_name(from),
                owner_key(from),
                name,
                &owner_name(to),
                None,
            )
            .expect("transfer");
            holder[i] = to;
        }
        observed(t0, "transfer", name, format!("depth {depth}"));
    }
    let write_elapsed = world.now().since(write_t0);

    // Phase 3: resolve through a second, cold frontend.
    let reader = rtb.reader(rtb.tb.hosts.client, owners);
    for name in &names {
        let t0 = world.now();
        let cold = reader.resolve(name).expect("cold resolve");
        let outcome = format!("walked depth={} head={}", cold.depth, cold.owner);
        observed(t0, "resolve", name, outcome);
        let t0 = world.now();
        let mut last = cold;
        for _ in 0..config.warm_resolves {
            last = reader.resolve(name).expect("warm resolve");
            assert!(!last.walked, "warm resolve must be a collapse hit");
        }
        let outcome = format!("collapsed x{} head={}", config.warm_resolves, last.owner);
        observed(t0, "resolve", name, outcome);
    }

    // Phase 4: staleness. Re-bind the first name, leave a seeded gap,
    // then propagate; a reader cut off from the primary probes the
    // replica inside the gap.
    rtb.cluster.propagate();
    let probe = rtb.reader(rtb.tb.hosts.client, owners);
    let name0 = &names[0];
    let owner0 = holder[0];
    let mut windows_ms: Vec<f64> = Vec::new();
    let mut stale_reads = 0u64;
    for round in 0..config.staleness_rounds {
        let new_service = if round % 2 == 0 { NS_CH } else { NS_BIND };
        let old_service = if round % 2 == 0 { NS_BIND } else { NS_CH };
        let t_write = world.now();
        reg.update(&owner_name(owner0), owner_key(owner0), name0, new_service)
            .expect("re-bind");
        world.wait(SimDuration::from_ms(500 + rng.next_below(2_000)));

        // Cut the probe's host off from the primary: its read fails
        // over to the replica, which has not seen the re-bind yet.
        let mut plan = FaultPlan::new();
        plan.partition(rtb.tb.hosts.client, rtb.tb.hosts.ch, world.now(), None);
        world.set_faults(Some(plan));
        let seen = probe.resolve_naive(name0).expect("failed-over read");
        world.set_faults(None);
        let stale = seen.service == old_service;
        if stale {
            stale_reads += 1;
        }

        rtb.cluster.propagate();
        let window = world.now().since(t_write);
        windows_ms.push(window.as_ms_f64());
        let read = if stale { "stale" } else { "fresh" };
        let outcome = format!("window {:.3}ms replica read: {read}", window.as_ms_f64());
        observed(t_write, "staleness", &format!("round {round}"), outcome);
    }

    // Phase 5: partition. The primary becomes unreachable from the
    // write front; writes fail typed, failed-over reads keep working.
    let now = world.now();
    let mut plan = FaultPlan::new();
    plan.partition(rtb.tb.hosts.agent, rtb.tb.hosts.ch, now, None);
    plan.partition(rtb.tb.hosts.client, rtb.tb.hosts.ch, now, None);
    world.set_faults(Some(plan));
    {
        let t0 = world.now();
        let err = reg
            .update(&owner_name(owner0), owner_key(owner0), name0, NS_CH)
            .expect_err("write must not silently succeed");
        assert!(err.is_unreachable(), "typed fail-fast, got {err}");
        let outcome = match err {
            RegError::Rpc(e) => format!("{e}"),
            other => format!("error: {other}"),
        };
        observed(t0, "partition", "re-bind (write)", outcome);
        let t0 = world.now();
        let seen = probe.resolve_naive(name0).expect("failed-over resolve");
        let outcome = format!("ok (failover) head={}", seen.owner);
        observed(t0, "partition", "resolve (read)", outcome);
    }
    world.set_faults(None);
    let t0 = world.now();
    let recovered = reg
        .update(&owner_name(owner0), owner_key(owner0), name0, NS_BIND)
        .is_ok();
    let outcome = if recovered { "ok" } else { "failed" };
    observed(t0, "partition", "re-bind (healed)", outcome.into());

    let snapshot = world.metrics().snapshot();
    let registers = reg_counter(&snapshot, "registers");
    let transfers = reg_counter(&snapshot, "transfers");
    let updates = reg_counter(&snapshot, "updates");
    let write_ops = registers + transfers + updates;
    let resolves = reg_counter(&snapshot, "resolves");
    let collapse_hits = reg_counter(&snapshot, "collapse_hits");
    let write_secs = write_elapsed.as_ms_f64() / 1000.0;
    let chain_depth = snapshot.histogram("regd", "chain_depth").cloned();
    let chain_depth = chain_depth.unwrap_or_default();
    let outcomes = RegisterOutcomes {
        write_ops,
        write_qps: if write_secs > 0.0 {
            (registers + transfers) as f64 / write_secs
        } else {
            0.0
        },
        chain_walks: reg_counter(&snapshot, "chain_walks"),
        collapse_hits,
        resolves,
        hit_ratio: if resolves > 0 {
            collapse_hits as f64 / resolves as f64
        } else {
            0.0
        },
        chain_depth,
        staleness_mean_ms: if windows_ms.is_empty() {
            0.0
        } else {
            windows_ms.iter().sum::<f64>() / windows_ms.len() as f64
        },
        staleness_max_ms: windows_ms.iter().copied().fold(0.0, f64::max),
        stale_reads,
        write_unreachable: reg_counter(&snapshot, "write_unreachable"),
        recovered,
    };
    RegisterRun {
        config: *config,
        events,
        outcomes,
        snapshot,
    }
}

impl RegisterRun {
    /// Human-readable report: the event table, the outcome summary,
    /// and the metrics snapshot.
    pub fn render(&self) -> String {
        let c = &self.config;
        let title = format!(
            "E-R — register: names={} max-depth={} warm-resolves={} \
             staleness-rounds={} seed={}",
            c.names, c.max_depth, c.warm_resolves, c.staleness_rounds, c.seed
        );
        let o = &self.outcomes;
        let mut out = events_table(title, &self.events);
        out.push_str(&format!(
            "\nwrite ops: {} ({:.3}/s)  chain walks: {}  collapse hits: {}/{} ({:.3})\n\
             chain depth: p50={} p95={} max={}  staleness: mean {:.3}ms max {:.3}ms \
             stale reads: {}\nwrite unreachable: {}  recovered: {}\n\n",
            o.write_ops,
            o.write_qps,
            o.chain_walks,
            o.collapse_hits,
            o.resolves,
            o.hit_ratio,
            o.chain_depth.p50,
            o.chain_depth.p95,
            o.chain_depth.max,
            o.staleness_mean_ms,
            o.staleness_max_ms,
            o.stale_reads,
            o.write_unreachable,
            o.recovered
        ));
        out.push_str(&self.snapshot.render());
        out
    }

    /// The `hns-reg-v1` JSON document for this run.
    pub fn to_json(&self) -> String {
        use hns_core::obs::json::number;
        let c = &self.config;
        let mut out = format!(
            "{{\"schema\": \"hns-reg-v1\", \"config\": {{\"names\": {}, \
             \"max_depth\": {}, \"warm_resolves\": {}, \"staleness_rounds\": {}, \
             \"seed\": {}}}, \"events\": {}",
            c.names,
            c.max_depth,
            c.warm_resolves,
            c.staleness_rounds,
            c.seed,
            events_json(&self.events)
        );
        let o = &self.outcomes;
        let d = &o.chain_depth;
        out.push_str(&format!(
            ", \"outcomes\": {{\"write_ops\": {}, \"write_qps\": {}, \
             \"chain_walks\": {}, \"collapse_hits\": {}, \"resolves\": {}, \
             \"hit_ratio\": {}, \"chain_depth\": {{\"count\": {}, \"min\": {}, \
             \"max\": {}, \"p50\": {}, \"p95\": {}, \"p99\": {}}}, \
             \"staleness\": {{\"rounds\": {}, \"mean_ms\": {}, \"max_ms\": {}, \
             \"stale_reads\": {}}}, \"write_unreachable\": {}, \"recovered\": {}}}, \
             \"metrics\": ",
            o.write_ops,
            number(o.write_qps),
            o.chain_walks,
            o.collapse_hits,
            o.resolves,
            number(o.hit_ratio),
            d.count,
            d.min,
            d.max,
            d.p50,
            d.p95,
            d.p99,
            c.staleness_rounds,
            number(o.staleness_mean_ms),
            number(o.staleness_max_ms),
            o.stale_reads,
            o.write_unreachable,
            o.recovered
        ));
        out.push_str(&self.snapshot.to_json());
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_run_exercises_the_whole_write_path() {
        let run = run(&RegisterConfig::default());
        let o = &run.outcomes;
        assert_eq!(
            o.write_ops,
            o.chain_depth.count + run.config.names as u64 + run.config.staleness_rounds as u64 + 1, // the healed re-bind; the partitioned one never lands
            "registers + transfers + updates"
        );
        assert!(o.write_qps > 0.0);
        // Each name walked once by the cold reader, then only
        // single-hop collapse hits.
        assert_eq!(o.chain_walks, run.config.names as u64);
        assert!(o.hit_ratio > 0.5, "hit ratio {}", o.hit_ratio);
        assert!(o.chain_depth.max <= u64::from(run.config.max_depth));
        assert!(o.staleness_mean_ms >= 500.0, "{}", o.staleness_mean_ms);
        assert!(o.stale_reads > 0, "the gap must be observable");
        assert!(o.write_unreachable >= 1, "{}", o.write_unreachable);
        assert!(o.recovered);
    }

    #[test]
    fn same_seed_runs_are_byte_identical() {
        let config = RegisterConfig::default();
        let a = run(&config);
        let b = run(&config);
        assert_eq!(a.to_json(), b.to_json());
        assert_eq!(a.render(), b.render());
    }

    #[test]
    fn different_seeds_differ() {
        let a = run(&RegisterConfig::default());
        let b = run(&RegisterConfig {
            seed: 7,
            ..RegisterConfig::default()
        });
        assert_ne!(a.to_json(), b.to_json());
    }
}
