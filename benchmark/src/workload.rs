//! The five workloads and how one run of each is measured.

use crate::cellworld::CellStack;
use crate::cputime::thread_cpu_ns;
use crate::rng::Rng;
use crate::runner::{closed_loop, median, midmean, open_loop, Window};
use crate::spans::{Span, Tracer};
use crate::testbed::{Config, TestbedStack};
use crate::yardstick::Yardstick;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    WarmQuery,
    ColdWalk,
    WriteMix,
    ScaleZipf,
    OpenMixed,
}

/// `open_mixed`'s offered rates, ops/s. Fixed once at a quarter, a half
/// and three quarters of the mix's closed-loop capacity on the
/// reference host, rounded to 10k; they never follow the code.
pub const OPEN_RATES: [(&str, f64); 3] = [("lo", 30_000.0), ("mid", 60_000.0), ("hi", 90_000.0)];

/// Names in `scale_zipf`'s world (20,000 in a smoke run).
pub const SCALE_NAMES: usize = 1_000_000;
/// `scale_zipf` preloads cell 0 incrementally after this many ops.
pub const PRELOAD_EVERY: usize = 50_000;

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::WarmQuery,
        Workload::ColdWalk,
        Workload::WriteMix,
        Workload::ScaleZipf,
        Workload::OpenMixed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::WarmQuery => "warm_query",
            Workload::ColdWalk => "cold_walk",
            Workload::WriteMix => "write_mix",
            Workload::ScaleZipf => "scale_zipf",
            Workload::OpenMixed => "open_mixed",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Operations per second of requested run length. The count is
    /// fixed, not the time: every run of a seed executes the same
    /// sequence, so digests, call counts and virtual time repeat
    /// exactly. Sized so `--seconds N` takes about N seconds on the
    /// reference host's code at the commit that added the benchmark.
    pub fn ops_per_run_second(self) -> usize {
        match self {
            Workload::WarmQuery => 180_000,
            Workload::ColdWalk => 27_000,
            Workload::WriteMix => 125_000,
            Workload::ScaleZipf => 135_000,
            // Open loop: the mean offered rate; the Poisson schedule
            // sets the exact count.
            Workload::OpenMixed => {
                OPEN_RATES.iter().map(|(_, r)| *r as usize).sum::<usize>() / OPEN_RATES.len()
            }
        }
    }

    /// Ops in one closed-loop slice: 20–40 ms of work, and at least the
    /// thousand samples a slice's 99th percentile needs.
    pub fn slice_ops(self) -> usize {
        match self {
            Workload::WarmQuery => 4_000,
            Workload::ColdWalk => 1_000,
            Workload::WriteMix | Workload::ScaleZipf => 3_000,
            // Open loop: cut by time (`runner::WINDOW_NS`), not by count.
            Workload::OpenMixed => usize::MAX,
        }
    }
}

/// One run's inputs.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    /// 1/100 length on a small world: a functional check, not a
    /// measurement.
    pub smoke: bool,
}

/// Readings that are levels, not deltas.
#[derive(Debug, Clone, Copy, Default)]
pub struct Gauges {
    pub intern_strings: u64,
    pub intern_resident_str_bytes: u64,
    pub zone_resident_bytes_per_name: f64,
}

pub struct Measured {
    /// Time each set-up repetition took, seconds, calibrated like the
    /// slices: on-CPU time over the host's speed factor around it.
    pub setups_s: Vec<f64>,
    pub window: Window,
    /// The middle of the yardstick's bursts, ns per kernel.
    pub yardstick_ns: [f64; 2],
    pub gauges: Gauges,
    pub spans: Vec<Span>,
}

/// Yardstick bursts either side of one set-up repetition. A set-up is
/// timed a few times, not hundreds, so its speed factor is the median
/// of several bursts, not the mean of two.
const SETUP_BURSTS: usize = 3;

fn set_up<S>(reps: usize, yardstick: &mut Yardstick, build: impl Fn() -> S) -> (S, Vec<f64>) {
    let mut times = Vec::with_capacity(reps);
    let mut stack = None;
    let bursts = |y: &mut Yardstick| -> Vec<f64> { (0..SETUP_BURSTS).map(|_| y.burst()).collect() };
    let mut before = bursts(yardstick);
    for _ in 0..reps.max(1) {
        // Free the previous world first: peak RSS is one world's.
        drop(stack.take());
        let started = thread_cpu_ns();
        stack = Some(build());
        let on_cpu_s = (thread_cpu_ns() - started) as f64 / 1e9;
        let after = bursts(yardstick);
        let speed = median(before.iter().chain(&after).copied());
        times.push(on_cpu_s / speed);
        before = after;
    }
    (stack.expect("at least one repetition"), times)
}

/// Sets the workload up `setup_reps` times (timing each), then measures
/// one window of `length` times the nominal op count on the last one.
pub fn measure(spec: &Spec, tracer: Option<Tracer>, length: f64, setup_reps: usize) -> Measured {
    let scale = length * if spec.smoke { 0.01 } else { 1.0 };
    let ops = ((spec.workload.ops_per_run_second() as f64 * spec.seconds * scale) as usize).max(1);
    let mut rng = Rng::new(spec.seed).fork(spec.workload.name());
    let mut gauges = Gauges::default();
    let mut yardstick = Yardstick::new();
    let slice_ops = spec.workload.slice_ops();
    let drain = |tracer: &Option<Tracer>| tracer.as_ref().map(Tracer::drain).unwrap_or_default();

    let (setups_s, window, spans) = match spec.workload {
        Workload::ScaleZipf => {
            let (names, every) = if spec.smoke {
                (20_000, 500)
            } else {
                (SCALE_NAMES, PRELOAD_EVERY)
            };
            let (mut stack, setups) = set_up(setup_reps, &mut yardstick, || {
                CellStack::build(names, every, spec.seed, tracer.clone())
            });
            drain(&tracer);
            let window = closed_loop(&mut stack, &mut rng, &mut yardstick, ops, slice_ops);
            gauges.zone_resident_bytes_per_name = stack.zone_resident_bytes_per_name();
            (setups, window, drain(&tracer))
        }
        workload => {
            let config = match workload {
                Workload::WarmQuery => Config::warm_query(),
                Workload::ColdWalk => Config::cold_walk(),
                Workload::WriteMix => Config::write_mix(),
                _ => Config::open_mixed(),
            };
            let (mut stack, setups) = set_up(setup_reps, &mut yardstick, || {
                TestbedStack::build(config, tracer.clone())
            });
            drain(&tracer);
            let window = if workload == Workload::OpenMixed {
                let phase_ns = (spec.seconds * scale / OPEN_RATES.len() as f64 * 1e9) as u64;
                open_loop(&mut stack, &mut rng, &mut yardstick, &OPEN_RATES, phase_ns)
            } else {
                closed_loop(&mut stack, &mut rng, &mut yardstick, ops, slice_ops)
            };
            (setups, window, drain(&tracer))
        }
    };
    gauges.intern_strings = intern::global().len() as u64;
    gauges.intern_resident_str_bytes = intern::global().resident_str_bytes() as u64;
    Measured {
        setups_s,
        window,
        yardstick_ns: [0, 1].map(|k| midmean(yardstick.log().iter().map(|b| b[k] as f64))),
        gauges,
        spans,
    }
}

/// Peak resident set of this process so far, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
