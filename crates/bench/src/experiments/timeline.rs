//! E-TL — the chaos scenario as a *time series*: windowed sampling
//! through baseline → fault → recovery, exported as `hns-timeline-v1`.
//!
//! The event-table chaos scenario ([`super::chaos`]) proves the
//! degradation modes happen; this one shows their *shape over time*,
//! which is what ROADMAP item 5's self-tuning controller needs. A probe
//! loop (warm `FindNSM`, cold `FindNSM`, `Import` with an NSM-failover
//! alternate) runs every [`PROBE_MS`] virtual milliseconds while the
//! [`World`]'s sampler closes fixed windows:
//!
//! 1. **baseline** — probes succeed, the warm cache fills and hits.
//! 2. **quiet TTL gap** — no probes while every cache entry expires
//!    (one big virtual-time jump; the crossed windows land in the
//!    timeline as empty rows, exercising the zero-activity sparkline
//!    clamp).
//! 3. **fault** — the seeded [`FaultPlan`] windows open: serve-stale on
//!    the warm path, fail-fast `HostUnreachable` on the cold path, NSM
//!    failover on `Import` — visible per window in `faults/*` deltas.
//! 4. **recovery** — time passes the last fault window (the plan stays
//!    installed; closed windows are inert) and probing resumes.
//!
//! Recovery accounting, derived from the probe stream and the timeline:
//! *time-to-first-success* (virtual time from the last fault window
//! closing to the first fully-successful probe round), and
//! *windows-to-baseline* / *MTTR* (windows / virtual time until the
//! first post-clear window with probe traffic and zero fault activity).
//!
//! Everything runs in virtual time under seeded jitter, so the render
//! and the JSON export are byte-identical across same-seed runs
//! (golden-tested below).

use hns_core::obs::json::{number, string};
use hns_core::obs::{Timeline, TimelineWindow};
use simnet::time::{SimDuration, SimTime};

use super::chaos::{ChaosConfig, Scenario};

/// Virtual milliseconds between probe rounds.
pub const PROBE_MS: u64 = 2_000;
/// Default sampling window width in virtual milliseconds.
pub const DEFAULT_WINDOW_MS: u64 = 10_000;
/// Probe rounds per active phase (baseline / fault / recovery).
const ROUNDS: u64 = 30;

/// Configuration: the chaos fault selection plus the window width.
#[derive(Debug, Clone, Copy)]
pub struct TimelineConfig {
    /// Fault selection and seed (shared with `experiments chaos`).
    pub chaos: ChaosConfig,
    /// Sampling window width, virtual milliseconds.
    pub window_ms: u64,
}

impl Default for TimelineConfig {
    fn default() -> Self {
        TimelineConfig {
            chaos: ChaosConfig::default(),
            window_ms: DEFAULT_WINDOW_MS,
        }
    }
}

/// One phase of the scenario, in virtual time.
#[derive(Debug, Clone)]
pub struct Phase {
    /// `baseline`, `ttl-gap`, `fault`, or `recovery`.
    pub label: &'static str,
    /// Phase start, virtual µs.
    pub from_us: u64,
    /// Phase end, virtual µs.
    pub until_us: u64,
}

/// Recovery accounting derived from the probe stream and the timeline.
#[derive(Debug, Clone, Copy)]
pub struct Recovery {
    /// When the fault plan was installed (virtual µs).
    pub fault_start_us: u64,
    /// When the last fault window closed (virtual µs).
    pub fault_clear_us: u64,
    /// Virtual µs from fault clear to the end of the first
    /// fully-successful probe round.
    pub time_to_first_success_us: u64,
    /// Whole windows between the one containing the fault clear and the
    /// first window with probe traffic and zero fault activity.
    pub windows_to_baseline: u64,
    /// Virtual µs from fault start to the start of the first
    /// back-to-baseline window — the mean-time-to-recovery the timeline
    /// measures.
    pub mttr_us: u64,
    /// Whether a back-to-baseline window was found at all.
    pub recovered: bool,
}

/// The full timeline run.
#[derive(Debug, Clone)]
pub struct TimelineRun {
    /// The configuration it ran with.
    pub config: TimelineConfig,
    /// The sampled timeline (windows + phase marks).
    pub timeline: Timeline,
    /// Phase spans, in order.
    pub phases: Vec<Phase>,
    /// Recovery accounting.
    pub recovery: Recovery,
}

/// Runs the timeline scenario.
pub fn run(config: &TimelineConfig) -> TimelineRun {
    let scenario = Scenario::build();
    let world = &scenario.tb.world;
    let probe_step = SimDuration::from_ms(PROBE_MS);
    // A round is clean when all three probes succeed with no stale serve
    // and no failover.
    let probe_round = || {
        let mut clean = true;
        scenario.probe(|_, _, result| clean &= matches!(result, Ok("ok")));
        clean
    };

    world.start_sampling(SimDuration::from_ms(config.window_ms));
    let mut phases: Vec<Phase> = Vec::new();
    let phase_open = |phases: &mut Vec<Phase>, label: &'static str| {
        let now = world.now().as_us();
        if let Some(last) = phases.last_mut() {
            last.until_us = now;
        }
        world.sample_mark(label);
        phases.push(Phase {
            label,
            from_us: now,
            until_us: now,
        });
    };
    // Pads virtual time forward to `target` (sampler ticks ride along).
    let pace = |target: SimTime| {
        let now = world.now();
        if now < target {
            world.charge(target.since(now));
        }
    };

    // Phase 1: baseline probing.
    phase_open(&mut phases, "baseline");
    let baseline_t0 = world.now();
    for i in 0..ROUNDS {
        pace(baseline_t0 + probe_step * i);
        probe_round();
    }

    // Phase 2: quiet gap — every cache entry expires; no probes, so the
    // crossed windows stay empty.
    phase_open(&mut phases, "ttl-gap");
    world.charge_ms(f64::from(hns_core::META_TTL) * 1000.0 + 1_000.0);

    // Phase 3: open the fault windows (the chaos scenario's, with the
    // same seeded jitter) and probe through them.
    let last_heal = scenario.install_faults(&config.chaos);
    let fault_start_us = world.now().as_us();
    phase_open(&mut phases, "fault");
    // Step past the largest possible jitter, well inside the windows.
    world.charge_ms(6_000.0);
    let fault_t0 = world.now();
    for i in 0..ROUNDS {
        pace(fault_t0 + probe_step * i);
        probe_round();
    }

    // Phase 4: heal — advance exactly to the last window's close (the
    // plan stays installed; closed windows must be inert), then probe
    // until the service is fully clean again.
    pace(last_heal);
    let fault_clear_us = world.now().as_us();
    phase_open(&mut phases, "recovery");
    let mut first_success_us = None;
    let recovery_t0 = world.now() + SimDuration::from_ms(1_000);
    for i in 0..ROUNDS {
        pace(recovery_t0 + probe_step * i);
        let clean = probe_round();
        if clean && first_success_us.is_none() {
            first_success_us = Some(world.now().as_us());
        }
    }
    if let Some(last) = phases.last_mut() {
        last.until_us = world.now().as_us();
    }

    let timeline = world.finish_sampling().expect("sampler installed");

    // Recovery accounting from the timeline: the first window after the
    // fault clear with probe traffic and zero fault activity.
    let clear_window = fault_clear_us.saturating_sub(timeline.origin_us) / timeline.interval_us;
    let is_baseline_like = |w: &TimelineWindow| {
        w.counter("hns", "find_nsm_calls") > 0
            && w.counter("faults", "stale_served") == 0
            && w.counter("faults", "unreachable_calls") == 0
            && w.counter("faults", "nsm_failovers") == 0
    };
    let back_to_baseline = timeline
        .windows
        .iter()
        .find(|w| w.index > clear_window && is_baseline_like(w));
    let recovery = Recovery {
        fault_start_us,
        fault_clear_us,
        time_to_first_success_us: first_success_us
            .map(|t| t.saturating_sub(fault_clear_us))
            .unwrap_or(0),
        windows_to_baseline: back_to_baseline
            .map(|w| w.index - clear_window)
            .unwrap_or(0),
        mttr_us: back_to_baseline
            .map(|w| w.start_us.saturating_sub(fault_start_us))
            .unwrap_or(0),
        recovered: first_success_us.is_some() && back_to_baseline.is_some(),
    };

    TimelineRun {
        config: *config,
        timeline,
        phases,
        recovery,
    }
}

impl TimelineRun {
    /// The named per-window series of the export: probe traffic, fault
    /// activity, cache hit ratio, stale-serve rate, and windowed
    /// `find_nsm_us` percentiles. Ratios clamp to 0 on empty windows —
    /// no division by zero reaches the export or the sparklines.
    pub fn series(&self) -> Vec<(String, Vec<f64>)> {
        let t = &self.timeline;
        let counters = [
            ("hns", "find_nsm_calls"),
            ("faults", "stale_served"),
            ("faults", "unreachable_calls"),
            ("faults", "nsm_failovers"),
        ];
        let mut out: Vec<(String, Vec<f64>)> = counters
            .iter()
            .map(|(component, name)| {
                let deltas = t.counter_series(component, name);
                let series = deltas.into_iter().map(|v| v as f64).collect();
                (format!("{component}/{name}"), series)
            })
            .collect();
        let hit_ratio = t.series(|w| {
            let hits = w.counter("hns_cache", "hits") as f64;
            let lookups = hits
                + w.counter("hns_cache", "misses") as f64
                + w.counter("hns_cache", "expired") as f64
                + w.counter("hns_cache", "negative_hits") as f64
                + w.counter("hns_cache", "stale_serves") as f64;
            if lookups > 0.0 {
                hits / lookups
            } else {
                0.0
            }
        });
        out.push(("hns_cache/hit_ratio".into(), hit_ratio));
        let stale_rate = t.series(|w| {
            let calls = w.counter("hns", "find_nsm_calls") as f64;
            if calls > 0.0 {
                w.counter("faults", "stale_served") as f64 / calls
            } else {
                0.0
            }
        });
        out.push(("hns/stale_serve_rate".into(), stale_rate));
        for (suffix, pick) in [("p50", 0usize), ("p95", 1), ("p99", 2)] {
            let series = t.series(|w| {
                w.histogram("hns", "find_nsm_us")
                    .map(|h| [h.p50, h.p95, h.p99][pick] as f64)
                    .unwrap_or(0.0)
            });
            out.push((format!("hns/find_nsm_us_{suffix}"), series));
        }
        out
    }

    /// Human-readable report: the sparkline rows, the phase table, and
    /// the recovery accounting.
    pub fn render(&self) -> String {
        let c = &self.config.chaos;
        let mut out = format!(
            "E-TL — chaos timeline: crash={} partition={} latency-spike={} seed={} window={} ms\n",
            c.crash, c.partition, c.latency_spike, c.seed, self.config.window_ms
        );
        out.push_str(&self.timeline.render_series(&self.series()));
        out.push_str("phases:\n");
        for p in &self.phases {
            out.push_str(&format!(
                "  {:<9} {:>7} ms .. {:>7} ms\n",
                p.label,
                p.from_us / 1000,
                p.until_us / 1000
            ));
        }
        let r = &self.recovery;
        out.push_str(&format!(
            "recovery: fault cleared @ {} ms; first clean probe +{} ms; \
             {} window(s) to baseline; MTTR {} ms; recovered={}\n",
            r.fault_clear_us / 1000,
            r.time_to_first_success_us / 1000,
            r.windows_to_baseline,
            r.mttr_us / 1000,
            r.recovered
        ));
        out
    }

    /// The `hns-timeline-v1` JSON document for this run.
    pub fn to_json(&self) -> String {
        let c = &self.config.chaos;
        let mut out = format!(
            "{{\"schema\": \"hns-timeline-v1\",\n  \"scenario\": \"chaos\",\n  \
             \"config\": {{\"crash\": {}, \"partition\": {}, \"latency_spike\": {}, \
             \"seed\": {}, \"window_ms\": {}}},\n  ",
            c.crash, c.partition, c.latency_spike, c.seed, self.config.window_ms
        );
        out.push_str(&self.timeline.json_fields());
        let series = self.series().into_iter().map(|(name, values)| {
            let values: Vec<String> = values.into_iter().map(number).collect();
            format!("\n    {}: [{}]", string(&name), values.join(", "))
        });
        let series: Vec<String> = series.collect();
        let phases = self.phases.iter().map(|p| {
            let label = string(p.label);
            let (from, until) = (p.from_us, p.until_us);
            format!("{{\"label\": {label}, \"from_us\": {from}, \"until_us\": {until}}}")
        });
        let phases: Vec<String> = phases.collect();
        let r = &self.recovery;
        out.push_str(&format!(
            ",\n  \"series\": {{{}\n  }},\n  \"phases\": [{}],\n  \
             \"recovery\": {{\"fault_start_us\": {}, \"fault_clear_us\": {}, \
             \"time_to_first_success_us\": {}, \"windows_to_baseline\": {}, \
             \"mttr_us\": {}, \"recovered\": {}}}\n}}",
            series.join(","),
            phases.join(", "),
            r.fault_start_us,
            r.fault_clear_us,
            r.time_to_first_success_us,
            r.windows_to_baseline,
            r.mttr_us,
            r.recovered
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn windows_in<'a>(run: &'a TimelineRun, label: &str) -> Vec<&'a TimelineWindow> {
        let phase = run
            .phases
            .iter()
            .find(|p| p.label == label)
            .unwrap_or_else(|| panic!("missing phase {label}"));
        // Full containment: a window straddling a phase boundary (e.g.
        // the one the fault clears inside) belongs to neither phase.
        run.timeline
            .windows
            .iter()
            .filter(|w| w.start_us >= phase.from_us && w.end_us <= phase.until_us)
            .collect()
    }

    #[test]
    fn three_phases_are_visible_in_the_series() {
        let run = run(&TimelineConfig::default());
        // Baseline: probe traffic, no fault activity.
        let baseline = windows_in(&run, "baseline");
        assert!(!baseline.is_empty());
        assert!(baseline
            .iter()
            .all(|w| w.counter("faults", "stale_served") == 0));
        assert!(baseline
            .iter()
            .any(|w| w.counter("hns", "find_nsm_calls") > 0));
        // The TTL gap leaves quiet windows behind.
        assert!(
            windows_in(&run, "ttl-gap").iter().any(|w| w.is_quiet()),
            "expected quiet windows in the TTL gap"
        );
        // Fault: stale serves and unreachable calls per window.
        let fault = windows_in(&run, "fault");
        assert!(fault
            .iter()
            .any(|w| w.counter("faults", "stale_served") > 0));
        assert!(fault
            .iter()
            .any(|w| w.counter("faults", "unreachable_calls") > 0));
        // Recovery: probe traffic with no fault activity again.
        let recovery = windows_in(&run, "recovery");
        assert!(recovery
            .iter()
            .any(|w| w.counter("hns", "find_nsm_calls") > 0
                && w.counter("faults", "stale_served") == 0
                && w.counter("faults", "unreachable_calls") == 0));
    }

    #[test]
    fn recovery_accounting_reports_a_finite_mttr() {
        let run = run(&TimelineConfig::default());
        let r = &run.recovery;
        assert!(r.recovered);
        assert!(r.fault_clear_us > r.fault_start_us);
        assert!(r.time_to_first_success_us > 0);
        assert!(r.mttr_us > 0);
        // MTTR spans at least the fault windows themselves.
        assert!(r.mttr_us >= r.fault_clear_us - r.fault_start_us);
    }

    #[test]
    fn windowed_percentiles_differ_from_cumulative_ones() {
        let run = run(&TimelineConfig::default());
        // The fault phase's warm path answers from stale cache (fast),
        // so its windowed p95 must sit below the baseline cold-walk p95
        // — invisible in a cumulative histogram.
        let p95 = |windows: &[&TimelineWindow]| {
            windows
                .iter()
                .filter_map(|w| w.histogram("hns", "find_nsm_us"))
                .map(|h| h.p95)
                .max()
                .unwrap_or(0)
        };
        let baseline = p95(&windows_in(&run, "baseline"));
        let fault = p95(&windows_in(&run, "fault"));
        assert!(baseline > 0 && fault > 0);
        assert!(
            fault < baseline,
            "fault-phase windowed p95 ({fault}) should drop below baseline ({baseline})"
        );
    }

    #[test]
    fn same_seed_runs_are_byte_identical() {
        let config = TimelineConfig::default();
        let a = run(&config);
        let b = run(&config);
        assert_eq!(a.to_json(), b.to_json());
        assert_eq!(a.render(), b.render());
    }

    #[test]
    fn json_export_carries_series() {
        let run = run(&TimelineConfig::default());
        let json = run.to_json();
        let v = hns_core::obs::json::parse(&json).expect("parses");
        let windows = v.get("windows").unwrap().as_array().unwrap().len();
        assert!(windows >= 10);
        let series = v.get("series").unwrap();
        for name in [
            "faults/stale_served",
            "hns_cache/hit_ratio",
            "hns/find_nsm_us_p95",
            "hns/stale_serve_rate",
        ] {
            let s = series.get(name).unwrap_or_else(|| panic!("series {name}"));
            assert_eq!(s.as_array().unwrap().len(), windows);
        }
        assert_eq!(
            v.get("recovery")
                .and_then(|r| r.get("recovered"))
                .and_then(|x| x.as_bool()),
            Some(true)
        );
    }

    #[test]
    fn render_prints_the_fault_and_recovery_curve() {
        let run = run(&TimelineConfig::default());
        let r = run.render();
        assert!(r.contains("faults/stale_served"), "{r}");
        assert!(r.contains("hns_cache/hit_ratio"), "{r}");
        assert!(r.contains("recovery: fault cleared"), "{r}");
        assert!(r.contains("MTTR"), "{r}");
        assert!(!r.contains("NaN"), "{r}");
    }
}
