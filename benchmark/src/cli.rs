//! Command line of both binaries.
//!
//! * `--workload W --seed N --seconds S --trace 0|1 [--smoke]` — one
//!   run of one workload in this process; the last line of stdout is
//!   the result object the driver reads.
//! * `run [--smoke] [--seed N] [--seconds S]` — every workload, each
//!   in a fresh process, measured then traced; prints every metric as
//!   `workload name value unit` and fails if any answer was wrong.
//! * `aa [--smoke] ...` — `run` twice; fails if the two sets disagree.
//! * `manifest` — prints `BENCHMARK.json`.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode};

use crate::probes;
use crate::report::{self, END_TO_END, RUN_SECONDS};
use crate::runner::midmean;
use crate::spans::Tracer;
use crate::workload::{measure, Measured, Spec, Workload};
use crate::yardstick::KERNELS;

/// The seed when none is given.
pub const DEFAULT_SEED: u64 = 1987;
/// The traced run is this fraction of the measured run's length.
const TRACED_LENGTH: f64 = 0.1;

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: f64::from(RUN_SECONDS),
        trace: false,
        smoke: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                out.workload = Some(
                    Workload::parse(name).ok_or_else(|| format!("unknown workload `{name}`"))?,
                );
            }
            "--seed" => out.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                out.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(out.seconds > 0.0 && out.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => {
                out.trace = match value()? {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--smoke" => out.smoke = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(out)
}

/// Entry point shared by `hnsbench` and `hnsbench-traced`;
/// `counting_alloc` says whether this binary installed the counting
/// allocator (only the traced one does, so the measured binary runs on
/// the plain system allocator).
pub fn main(counting_alloc: bool) -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("manifest") => {
            print!("{}", report::manifest());
            Ok(true)
        }
        Some("run") => parse(&args[1..]).and_then(|a| run_set(&a).map(|set| set.correct)),
        Some("aa") => parse(&args[1..]).and_then(|a| aa(&a)),
        _ => parse(&args).and_then(|a| one(&a, counting_alloc)),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(why) => {
            eprintln!("hnsbench: {why}");
            eprintln!(
                "usage: hnsbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1] [--smoke]\n\
                 \x20      hnsbench run|aa [--smoke] [--seed N] [--seconds S]\n\
                 \x20      hnsbench manifest",
                Workload::ALL.map(Workload::name).join("|")
            );
            ExitCode::from(2)
        }
    }
}

fn sibling(name: &str) -> Result<PathBuf, String> {
    let me = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    Ok(me.with_file_name(name))
}

/// One run in this process. Lines starting `D` carry values that must
/// repeat exactly for a seed, `N` sample counts, `M` the metrics; the
/// last line is the result object.
fn one(args: &Args, counting_alloc: bool) -> Result<bool, String> {
    let workload = args.workload.ok_or("--workload is required")?;
    if args.trace && !counting_alloc {
        // Allocation counts need the counting allocator, which only the
        // traced binary installs.
        let status = Command::new(sibling("hnsbench-traced")?)
            .args(std::env::args().skip(1))
            .status()
            .map_err(|e| format!("hnsbench-traced: {e}"))?;
        return Ok(status.success());
    }
    let spec = Spec {
        workload,
        seed: args.seed,
        seconds: args.seconds,
        smoke: args.smoke,
    };
    let (metrics, attempted, failed) = if args.trace {
        let probes = probes::run_all(if args.smoke { 0.05 } else { 1.0 });
        let plain = measure(&spec, None, TRACED_LENGTH, 1);
        let traced = measure(&spec, Some(Tracer::new()), TRACED_LENGTH, 1);
        deterministic(&traced);
        println!("N spans {}", traced.spans.len());
        println!(
            "I mean_op_ns untraced {:.1} traced {:.1}",
            plain.window.mean_service_ns(),
            traced.window.mean_service_ns()
        );
        for line in report::attribution(&traced) {
            println!("I span {line}");
        }
        report_failure(&plain);
        report_failure(&traced);
        (
            report::per_layer(&probes, &plain, &traced),
            plain.window.ops + traced.window.ops,
            plain.window.failed + traced.window.failed,
        )
    } else {
        let reps = match (args.smoke, workload) {
            (true, _) => 1,
            (false, Workload::ScaleZipf) => 3,
            (false, _) => 5,
        };
        let m = measure(&spec, None, 1.0, reps);
        deterministic(&m);
        println!("N lat_samples {}", m.window.ops);
        println!("N slices {}", m.window.slices.len());
        println!("N setup_samples {}", m.setups_s.len());
        // As the clocks read, before the yardstick's factor is divided
        // out; and the tail, which is a per-layer metric.
        let raw = &m.window.slices;
        println!(
            "I uncalibrated ops_per_s {:.1} lat_mid_ns {:.1} lat_p50_ns {:.1} lat_p99_ns {:.1} \
             host_speed_factor {:.4}",
            midmean(raw.iter().map(|s| s.ops_per_s)),
            midmean(raw.iter().map(|s| s.mid_ns)),
            midmean(raw.iter().map(|s| s.p50_ns)),
            midmean(raw.iter().map(|s| s.p99_ns)),
            midmean(raw.iter().map(|s| s.speed)),
        );
        println!(
            "I yardstick burst_ns {:.0} {:.0} nominal {} {}",
            m.yardstick_ns[0], m.yardstick_ns[1], KERNELS[0].1, KERNELS[1].1
        );
        println!(
            "I calibrated lat_p50_ns {:.1} lat_p99_ns {:.1}",
            midmean(raw.iter().map(|s| s.calibrated().p50_ns)),
            midmean(raw.iter().map(|s| s.calibrated().p99_ns))
        );
        for p in &m.window.phases {
            println!(
                "I phase {} offered {} ops/s scheduled {} sojourn_p50_ns {:.0} sojourn_p99_ns {:.0} \
                 late_start_ratio {:.4} backlog_max {} slo_miss_ratio {:.6} utilisation {:.3}",
                p.label,
                p.rate_per_s,
                p.scheduled,
                p.p50_ns(),
                p.p99_ns(),
                p.late_starts as f64 / p.scheduled.max(1) as f64,
                p.backlog_max,
                p.slo_misses as f64 / p.scheduled.max(1) as f64,
                p.busy_ns as f64 / p.wall_ns.max(1) as f64,
            );
        }
        report_failure(&m);
        (report::end_to_end(&m), m.window.ops, m.window.failed)
    };
    for m in &metrics {
        println!("M {} {} {}", m.name, m.value, m.unit);
    }
    println!(
        "{}",
        report::result_json(attempted.max(1), failed, &metrics)
    );
    Ok(true)
}

fn report_failure(m: &Measured) {
    if let Some(why) = &m.window.first_failure {
        println!("I first_failure {why}");
    }
}

/// Everything that must not differ between two runs of one seed.
fn deterministic(m: &Measured) {
    use crate::counts::C;
    let w = &m.window;
    let c = &w.counts;
    println!("D ops {}", w.ops);
    println!("D failed {}", w.failed);
    println!("D digest {:016x}", w.digest.0);
    println!("D virt_ms {}", c.virt_ms);
    for (name, counter) in [
        ("remote_calls", C::RemoteCalls),
        ("local_calls", C::LocalCalls),
        ("bytes_sent", C::BytesSent),
        ("binding_hits", C::BindingHits),
        ("binding_expired", C::BindingExpired),
        ("hns_hits", C::HnsHits),
        ("hns_expired", C::HnsExpired),
        ("nsm_cache_hits", C::NsmCacheHits),
        ("resolver_hits", C::ResolverHits),
        ("reg_collapse_hits", C::RegCollapseHits),
    ] {
        println!("D {name} {}", c[counter]);
    }
}

/// What `run` collected from the ten child processes.
struct Set {
    correct: bool,
    /// (workload, metric) -> (value, unit)
    metrics: BTreeMap<(String, String), (f64, String)>,
    /// (workload, trace, name) -> value, verbatim
    exact: BTreeMap<(String, bool, String), String>,
}

fn run_set(args: &Args) -> Result<Set, String> {
    let mut set = Set {
        correct: true,
        metrics: BTreeMap::new(),
        exact: BTreeMap::new(),
    };
    let mut results = Vec::new();
    for workload in Workload::ALL {
        for trace in [false, true] {
            let exe = sibling(if trace { "hnsbench-traced" } else { "hnsbench" })?;
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", workload.name()])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }]);
            if args.smoke {
                cmd.arg("--smoke");
            }
            let out = cmd
                .output()
                .map_err(|e| format!("{}: {e}", exe.display()))?;
            let stdout = String::from_utf8_lossy(&out.stdout);
            if !out.status.success() {
                return Err(format!(
                    "{} trace={} exited with {}:\n{}{}",
                    workload.name(),
                    u8::from(trace),
                    out.status,
                    stdout,
                    String::from_utf8_lossy(&out.stderr)
                ));
            }
            for line in stdout.lines() {
                let mut parts = line.splitn(4, ' ');
                match (parts.next(), parts.next(), parts.next(), parts.next()) {
                    (Some("M"), Some(name), Some(value), Some(unit)) => {
                        let value: f64 = value.parse().map_err(|e| format!("{line}: {e}"))?;
                        println!("{} {name} {value} {unit}", workload.name());
                        set.metrics
                            .insert((workload.name().into(), name.into()), (value, unit.into()));
                    }
                    (Some("D"), Some(name), Some(value), None) => {
                        println!(
                            "{} {name}{} {value} exact",
                            workload.name(),
                            if trace { ".traced" } else { "" }
                        );
                        set.exact
                            .insert((workload.name().into(), trace, name.into()), value.into());
                    }
                    (Some("N"), Some(name), Some(value), None) => {
                        println!("{} {name} {value} samples", workload.name());
                    }
                    (Some("I"), ..) => println!("{} {}", workload.name(), &line[2..]),
                    _ => {}
                }
            }
            let last = stdout.lines().last().unwrap_or_default();
            set.correct &= last.starts_with("{\"correct\": true");
            results.push(format!(
                "{{\"workload\": \"{}\", \"trace\": {}, \"result\": {last}}}",
                workload.name(),
                u8::from(trace)
            ));
        }
    }
    // Next to the sources, wherever the command was started from.
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("last_run.json");
    let json = format!("[\n  {}\n]\n", results.join(",\n  "));
    if std::fs::write(&path, json).is_ok() {
        println!("# results written to {}", path.display());
    }
    if !set.correct {
        println!("# FAILED: at least one answer was wrong (see first_failure above)");
    }
    Ok(set)
}

fn aa(args: &Args) -> Result<bool, String> {
    println!("# set A");
    let a = run_set(args)?;
    println!("# set B");
    let b = run_set(args)?;
    let mut ok = a.correct && b.correct;
    for (key, va) in &a.exact {
        let vb = b.exact.get(key);
        if vb != Some(va) {
            ok = false;
            println!(
                "# MISMATCH {} {}{}: A={va} B={}",
                key.0,
                key.2,
                if key.1 { ".traced" } else { "" },
                vb.map_or("missing", String::as_str)
            );
        }
    }
    // A 1/100-length run is a functional check; its timings are noise.
    if !args.smoke {
        for def in &END_TO_END {
            for workload in Workload::ALL {
                let key = (workload.name().to_string(), def.name.to_string());
                let (Some((va, _)), Some((vb, _))) = (a.metrics.get(&key), b.metrics.get(&key))
                else {
                    return Err(format!("{} {} missing from a set", key.0, key.1));
                };
                let worse = if def.better == "lower" {
                    vb / va - 1.0
                } else {
                    va / vb - 1.0
                };
                let off = worse.abs();
                let verdict = if off > def.bound {
                    "OUT OF BOUND"
                } else {
                    "ok"
                };
                ok &= off <= def.bound;
                println!(
                    "# A/A {} {}: A={va} B={vb} differ {:.2}% (bound {:.0}%) {verdict}",
                    key.0,
                    key.1,
                    off * 100.0,
                    def.bound * 100.0
                );
            }
        }
    }
    println!("# A/A {}", if ok { "agree" } else { "DISAGREE" });
    Ok(ok)
}
