//! JSON export of a load sweep (`hns-load-v3`; its schema is a row of
//! [`crate::export::SCHEMAS`]). Every time in it is in nanoseconds.
//!
//! Cold operations deliberately run a `CacheMode::Disabled` instance —
//! a full meta walk every time, the paper's uncached shape — so their
//! volume is the explicit `cold_ops` count, not a cache-miss figure.

use hns_core::obs::json;
use hns_core::obs::metrics::HistogramStats;

use super::{LoadReport, OpenRunResult};

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

fn open_run_json(r: &OpenRunResult) -> String {
    let windows: Vec<String> = r
        .windows
        .iter()
        .map(|w| {
            format!(
                "{{\"index\": {}, \"ops\": {}, \"errors\": {}, \"late_ops\": {}, \
                 \"backlog_max\": {}, \"lateness_mean_ns\": {}, \"lateness_max_ns\": {}, \
                 \"sojourn_mean_ns\": {}, \"sojourn_max_ns\": {}}}",
                w.index,
                w.ops,
                w.errors,
                w.late_ops,
                w.backlog_max,
                json::number(w.lateness_mean_ns()),
                w.lateness_max_ns,
                json::number(w.sojourn_mean_ns()),
                w.sojourn_max_ns,
            )
        })
        .collect();
    format!(
        "{{\"offered_qps\": {}, \"threads\": {}, \"duration_ms\": {}, \
         \"scheduled\": {}, \"ops\": {}, \"errors\": {}, \"warm_ops\": {}, \
         \"cold_ops\": {}, \"bind_ops\": {}, \"write_ops\": {}, \"transfer_ops\": {}, \
         \"wall_secs\": {}, \"achieved_qps\": {}, \"latency_ns\": {}, \
         \"lateness_ns\": {}, \"late_ops\": {}, \"backlog_max\": {}, \
         \"window_ms\": {}, \"windows\": [{}]}}",
        json::number(r.offered_qps),
        r.threads,
        r.duration_ms,
        r.scheduled,
        r.ops,
        r.errors,
        r.warm_ops,
        r.cold_ops,
        r.bind_ops,
        r.write_ops,
        r.transfer_ops,
        json::number(r.wall_secs),
        json::number(r.achieved_qps),
        stats_json(&r.latency_ns),
        stats_json(&r.lateness_ns),
        r.late_ops,
        r.backlog_max,
        r.window_ms,
        windows.join(", "),
    )
}

/// Renders the whole sweep as an `hns-load-v3` JSON document.
pub fn to_json(report: &LoadReport) -> String {
    let config = &report.config;
    let runs: Vec<String> = report.open_runs.iter().map(open_run_json).collect();
    let offered: Vec<String> = config
        .offered_qps
        .iter()
        .map(|&q| json::number(q))
        .collect();
    format!(
        "{{\n  \"schema\": \"hns-load-v3\",\n  \
         \"host\": {{\"cores\": {}, \"os\": \"{}\", \"arch\": \"{}\"}},\n  \
         \"config\": {{\"zipf_s\": {}, \"cold_frac\": {}, \
         \"bind_frac\": {}, \"write_frac\": {}, \"transfer_frac\": {}, \
         \"seed\": {}, \"faults\": {}, \
         \"offered_qps\": [{}], \"open_threads\": {}, \"open_duration_ms\": {}}},\n  \
         \"open_runs\": [\n    {}\n  ]\n}}\n",
        report.cores,
        report.os,
        report.arch,
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
        runs.join(",\n    "),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loadgen::{LoadConfig, OpenWindow};

    fn sample_open_run() -> OpenRunResult {
        OpenRunResult {
            offered_qps: 50_000.0,
            threads: 1,
            duration_ms: 500,
            scheduled: 25_000,
            ops: 25_000,
            errors: 0,
            warm_ops: 22_000,
            cold_ops: 1_250,
            bind_ops: 1_250,
            write_ops: 500,
            transfer_ops: 125,
            wall_secs: 0.51,
            achieved_qps: 49_000.0,
            latency_ns: HistogramStats {
                count: 25_000,
                sum: 1_000_000_000,
                min: 900,
                max: 900_000,
                p50: 3_000,
                p95: 120_000,
                p99: 400_000,
            },
            lateness_ns: HistogramStats {
                count: 25_000,
                sum: 100_000_000,
                min: 0,
                max: 300_000,
                p50: 200,
                p95: 20_000,
                p99: 80_000,
            },
            late_ops: 1_500,
            backlog_max: 3,
            window_ms: 100,
            windows: (0..5)
                .map(|i| OpenWindow {
                    index: i,
                    ops: 5_000,
                    errors: 0,
                    late_ops: 300,
                    backlog_max: if i == 4 { 3 } else { 0 },
                    lateness_sum_ns: 20_000_000,
                    lateness_max_ns: 300_000,
                    sojourn_sum_ns: 200_000_000,
                    sojourn_max_ns: 900_000,
                })
                .collect(),
        }
    }

    #[test]
    fn export_carries_the_run_fields() {
        let rep = LoadReport {
            config: LoadConfig {
                offered_qps: vec![50_000.0],
                ..LoadConfig::default()
            },
            cores: 8,
            os: "linux",
            arch: "x86_64",
            open_runs: vec![sample_open_run()],
        };
        let doc = rep.to_json();
        assert_eq!(crate::export::check(&doc), Ok("hns-load-v3"));
        let v = json::parse(&doc).expect("parses");
        let open = v
            .get("open_runs")
            .and_then(|r| r.as_array())
            .expect("open_runs");
        let field = |name| open[0].get(name).and_then(|f| f.as_u64());
        assert_eq!(field("threads"), Some(1));
        assert_eq!(
            field("cold_ops"),
            Some(1_250),
            "cold volume is explicit, not buried in cache misses"
        );
        assert_eq!(field("write_ops"), Some(500));
        assert_eq!(field("transfer_ops"), Some(125));
        assert_eq!(field("backlog_max"), Some(3));
        let p50 = open[0].get("latency_ns").and_then(|s| s.get("p50"));
        assert_eq!(p50.and_then(|p| p.as_u64()), Some(3_000));
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
            windows[0].get("lateness_mean_ns").and_then(|m| m.as_f64()),
            Some(4_000.0),
            "20 ms of lateness over 5_000 ops"
        );
    }
}
