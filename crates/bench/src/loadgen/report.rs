//! JSON export of a load sweep (`hns-load-v2`; its schema is a row of
//! [`crate::export::SCHEMAS`]) plus the baseline regression check the CI
//! guard runs.
//!
//! # Cold-operation cache semantics
//!
//! The per-run `hns_cache` object covers only the *warm* HNS instance.
//! Cold operations deliberately run a `CacheMode::Disabled` instance —
//! a full meta walk every time, the paper's uncached shape — and a
//! disabled cache counts nothing, so cold traffic never shows up as
//! cache misses (the `"misses": 0` a warm run reports is correct, not
//! missing accounting). The explicit `cold_walks` field carries the
//! cold volume instead. `binding_cache` reports the composed
//! fast path that serves the warm mix.

use hns_core::obs::json;
use hns_core::obs::metrics::HistogramStats;

use super::{LoadReport, OpenRunResult, RunResult};

fn stats_json(s: &HistogramStats) -> String {
    format!(
        "{{\"count\": {}, \"min\": {}, \"max\": {}, \"p50\": {}, \"p95\": {}, \
         \"p99\": {}, \"mean\": {}}}",
        s.count,
        s.min,
        s.max,
        s.p50,
        s.p95,
        s.p99,
        json::number(s.mean())
    )
}

fn run_json(r: &RunResult) -> String {
    format!(
        "{{\"threads\": {}, \"ops\": {}, \"errors\": {}, \"wall_secs\": {}, \
         \"qps\": {}, \"warm_ops\": {}, \"cold_ops\": {}, \"bind_ops\": {}, \
         \"write_ops\": {}, \"transfer_ops\": {}, \
         \"latency_us\": {}, \
         \"hns_cache\": {{\"hits\": {}, \"misses\": {}, \"expired\": {}, \"cold_walks\": {}}}, \
         \"binding_cache\": {{\"hits\": {}, \"misses\": {}, \"inserts\": {}}}}}",
        r.threads,
        r.ops,
        r.errors,
        json::number(r.wall_secs),
        json::number(r.qps),
        r.warm_ops,
        r.cold_ops,
        r.bind_ops,
        r.write_ops,
        r.transfer_ops,
        stats_json(&r.latency_us),
        r.hns_hits,
        r.hns_misses,
        r.hns_expired,
        r.cold_ops,
        r.binding_hits,
        r.binding_misses,
        r.binding_inserts,
    )
}

fn open_run_json(r: &OpenRunResult) -> String {
    let windows: Vec<String> = r
        .windows
        .iter()
        .map(|w| {
            format!(
                "{{\"index\": {}, \"ops\": {}, \"errors\": {}, \"late_ops\": {}, \
                 \"backlog_max\": {}, \"lateness_mean_us\": {}, \"lateness_max_us\": {}, \
                 \"sojourn_mean_us\": {}, \"sojourn_max_us\": {}}}",
                w.index,
                w.ops,
                w.errors,
                w.late_ops,
                w.backlog_max,
                json::number(w.lateness_mean_us()),
                w.lateness_max_us,
                json::number(w.sojourn_mean_us()),
                w.sojourn_max_us,
            )
        })
        .collect();
    format!(
        "{{\"offered_qps\": {}, \"threads\": {}, \"duration_ms\": {}, \
         \"scheduled\": {}, \"ops\": {}, \"errors\": {}, \"wall_secs\": {}, \
         \"achieved_qps\": {}, \"latency_us\": {}, \"lateness_us\": {}, \
         \"late_ops\": {}, \"backlog_max\": {}, \"window_ms\": {}, \
         \"windows\": [{}]}}",
        json::number(r.offered_qps),
        r.threads,
        r.duration_ms,
        r.scheduled,
        r.ops,
        r.errors,
        json::number(r.wall_secs),
        json::number(r.achieved_qps),
        stats_json(&r.latency_us),
        stats_json(&r.lateness_us),
        r.late_ops,
        r.backlog_max,
        r.window_ms,
        windows.join(", "),
    )
}

/// Renders the whole sweep as an `hns-load-v2` JSON document.
pub fn to_json(report: &LoadReport) -> String {
    let config = &report.config;
    let closed: Vec<String> = report.runs.iter().map(run_json).collect();
    let open: Vec<String> = report.open_runs.iter().map(open_run_json).collect();
    let offered: Vec<String> = config
        .offered_qps
        .iter()
        .map(|&q| json::number(q))
        .collect();
    format!(
        "{{\n  \"schema\": \"hns-load-v2\",\n  \
         \"host\": {{\"cores\": {}, \"os\": \"{}\", \"arch\": \"{}\"}},\n  \
         \"config\": {{\"dispatch\": \"sharded\", \"ops_per_thread\": {}, \
         \"duration_ms\": {}, \"zipf_s\": {}, \"cold_frac\": {}, \
         \"bind_frac\": {}, \"write_frac\": {}, \"transfer_frac\": {}, \
         \"seed\": {}, \"faults\": {}, \
         \"offered_qps\": [{}], \"open_threads\": {}, \"open_duration_ms\": {}}},\n  \
         \"closed_runs\": [\n    {}\n  ],\n  \
         \"open_runs\": [\n    {}\n  ]\n}}\n",
        report.cores,
        report.os,
        report.arch,
        config.ops_per_thread,
        config
            .duration_ms
            .map_or("null".to_string(), |d| d.to_string()),
        json::number(config.zipf_s),
        json::number(config.cold_frac),
        json::number(config.bind_frac),
        json::number(config.write_frac),
        json::number(config.transfer_frac),
        config.seed,
        config.faults,
        offered.join(", "),
        config.open_threads,
        config.open_duration_ms,
        closed.join(",\n    "),
        open.join(",\n    "),
    )
}

/// Compares a fresh sweep against a committed baseline document: every
/// thread count present in both must keep at least `factor` of the
/// baseline's closed-loop QPS. Returns a human-readable summary on
/// success.
pub fn check_regression(
    report: &LoadReport,
    baseline_text: &str,
    factor: f64,
) -> Result<String, String> {
    let v = json::parse(baseline_text).map_err(|e| format!("baseline parse error: {e}"))?;
    let runs = v
        .get("closed_runs")
        .and_then(|r| r.as_array())
        .ok_or("baseline has no `closed_runs`")?;
    let mut compared = Vec::new();
    for current in &report.runs {
        let Some(base_qps) = runs.iter().find_map(|run| {
            (run.get("threads").and_then(|t| t.as_u64()) == Some(current.threads as u64))
                .then(|| run.get("qps").and_then(|q| q.as_f64()))
                .flatten()
        }) else {
            continue;
        };
        let floor = base_qps * factor;
        if current.qps < floor {
            return Err(format!(
                "regression at {} threads: {:.0} QPS < {:.0} ({}x of baseline {:.0})",
                current.threads, current.qps, floor, factor, base_qps
            ));
        }
        compared.push(format!(
            "{} threads: {:.0} QPS >= {:.0} ({}x of baseline {:.0})",
            current.threads, current.qps, floor, factor, base_qps
        ));
    }
    if compared.is_empty() {
        return Err("no thread count present in both the run and the baseline".into());
    }
    Ok(compared.join("\n"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loadgen::{LoadConfig, OpenWindow};

    fn sample_run() -> RunResult {
        RunResult {
            threads: 2,
            ops: 1000,
            errors: 0,
            warm_ops: 880,
            cold_ops: 50,
            bind_ops: 50,
            write_ops: 20,
            transfer_ops: 5,
            wall_secs: 0.5,
            qps: 2000.0,
            latency_us: HistogramStats {
                count: 1000,
                sum: 500_000,
                min: 100,
                max: 9000,
                p50: 400,
                p95: 2000,
                p99: 5000,
            },
            hns_hits: 800,
            hns_misses: 100,
            hns_expired: 10,
            binding_hits: 850,
            binding_misses: 36,
            binding_inserts: 36,
        }
    }

    fn sample_open_run() -> OpenRunResult {
        OpenRunResult {
            offered_qps: 50_000.0,
            threads: 4,
            duration_ms: 500,
            scheduled: 25_000,
            ops: 25_000,
            errors: 0,
            wall_secs: 0.51,
            achieved_qps: 49_000.0,
            latency_us: HistogramStats {
                count: 25_000,
                sum: 1_000_000,
                min: 5,
                max: 900,
                p50: 30,
                p95: 120,
                p99: 400,
            },
            lateness_us: HistogramStats {
                count: 25_000,
                sum: 100_000,
                min: 0,
                max: 300,
                p50: 2,
                p95: 20,
                p99: 80,
            },
            late_ops: 7_000,
            backlog_max: 3,
            window_ms: 100,
            windows: (0..5)
                .map(|i| OpenWindow {
                    index: i,
                    ops: 5_000,
                    errors: 0,
                    late_ops: 1_400,
                    backlog_max: if i == 4 { 3 } else { 1 },
                    lateness_sum_us: 20_000,
                    lateness_max_us: 300,
                    sojourn_sum_us: 200_000,
                    sojourn_max_us: 900,
                })
                .collect(),
        }
    }

    fn sample_report() -> LoadReport {
        LoadReport {
            config: LoadConfig {
                offered_qps: vec![50_000.0],
                ..LoadConfig::default()
            },
            cores: 8,
            os: "linux",
            arch: "x86_64",
            runs: vec![sample_run()],
            open_runs: vec![sample_open_run()],
        }
    }

    #[test]
    fn export_carries_the_run_fields() {
        let rep = sample_report();
        let doc = rep.to_json();
        let v = json::parse(&doc).expect("parses");
        assert_eq!(
            v.get("schema").and_then(|s| s.as_str()),
            Some("hns-load-v2")
        );
        let closed = v
            .get("closed_runs")
            .and_then(|r| r.as_array())
            .expect("closed_runs");
        assert_eq!(closed[0].get("threads").and_then(|t| t.as_u64()), Some(2));
        assert_eq!(
            closed[0]
                .get("hns_cache")
                .and_then(|c| c.get("cold_walks"))
                .and_then(|c| c.as_u64()),
            Some(50),
            "cold volume is explicit, not buried in misses"
        );
        assert_eq!(
            closed[0]
                .get("binding_cache")
                .and_then(|c| c.get("hits"))
                .and_then(|h| h.as_u64()),
            Some(850)
        );
        assert_eq!(
            closed[0].get("write_ops").and_then(|w| w.as_u64()),
            Some(20)
        );
        assert_eq!(
            closed[0].get("transfer_ops").and_then(|t| t.as_u64()),
            Some(5)
        );
        let open = v
            .get("open_runs")
            .and_then(|r| r.as_array())
            .expect("open_runs");
        assert_eq!(open[0].get("backlog_max").and_then(|b| b.as_u64()), Some(3));
        let windows = open[0]
            .get("windows")
            .and_then(|w| w.as_array())
            .expect("per-window series");
        assert_eq!(windows.len(), 5);
        assert_eq!(
            windows[4].get("backlog_max").and_then(|b| b.as_u64()),
            Some(3)
        );
        assert_eq!(
            windows[0].get("lateness_mean_us").and_then(|m| m.as_f64()),
            Some(4.0),
            "20_000 µs of lateness over 5_000 ops"
        );
    }

    #[test]
    fn regression_check_compares_matching_thread_counts() {
        let rep = sample_report();
        let baseline = rep.to_json();
        // Identical run: trivially above any factor < 1.
        check_regression(&rep, &baseline, 0.5).expect("no regression vs itself");
        // A baseline 3x faster at the same thread count trips the guard.
        let mut fast = sample_report();
        fast.runs[0].qps = 6000.0;
        let fast_baseline = fast.to_json();
        let err = check_regression(&rep, &fast_baseline, 0.5).expect_err("regression");
        assert!(err.contains("regression at 2 threads"), "{err}");
        // Disjoint thread counts are an error, not a silent pass.
        let disjoint = "{\"closed_runs\": [{\"threads\": 64, \"qps\": 1.0}]}";
        assert!(check_regression(&rep, disjoint, 0.5).is_err());
    }
}
