//! The load generator: one thread that generates, executes, times and
//! checks every operation. Closed loop for the four throughput
//! workloads, open loop (Poisson arrivals paced by spinning on
//! `Instant`, no sleeps, no helper threads) for `open_mixed`.

use std::sync::Arc;
use std::time::Instant;

use simnet::world::World;

use crate::counts::Counts;
use crate::cputime::thread_cpu_ns;
use crate::hist::Histogram;
use crate::oracle::{Digest, Verdict};
use crate::rng::{poisson_schedule, Rng};
use crate::spans::Tracer;
use crate::yardstick::{factor, Yardstick};

/// What the generator drives. `gen` runs outside the timed region,
/// `exec` is the timed call into the stack, `check` is the oracle.
pub trait Stack {
    type Op;
    type Answer;
    fn gen(&mut self, rng: &mut Rng, n: usize) -> Vec<Self::Op>;
    fn exec(&self, op: &Self::Op) -> Self::Answer;
    fn check(&mut self, op: &Self::Op, answer: Self::Answer) -> Verdict;
    fn counts(&self) -> Counts;
    fn world(&self) -> &Arc<World>;
    fn tracer(&self) -> Option<&Tracer>;
}

/// An open-loop phase is cut into windows this long by scheduled
/// arrival, as a closed-loop window is cut into slices of a fixed op
/// count (`Workload::slice_ops`, 20–40 ms each). Inputs for a slice are
/// generated between slices, off the clock, and a [`Yardstick`] burst
/// runs between any two, so each slice knows how fast the host was
/// running while it was taken. The reported throughput and percentiles
/// are the [`midmean`] of the slices' own, each calibrated by its speed
/// factor: a stall moves the slices it covers, not the result, and a
/// slow spell that outlasts the run is divided out. At the lowest rate a
/// window still holds 1,200 arrivals, enough for a 99th percentile.
pub const WINDOW_NS: u64 = 40_000_000;

/// An op that starts more than this after its scheduled instant counts
/// as started late.
pub const LATE_START_NS: u64 = 10_000;
/// Sojourn limit for `gen.slo_miss_ratio.*`.
pub const SLO_NS: u64 = 1_000_000;

/// One closed-loop slice or open-loop window, as the clocks read.
#[derive(Debug, Clone, Copy)]
pub struct Slice {
    pub ops_per_s: f64,
    /// Mean latency of the middle half of the operations.
    pub mid_ns: f64,
    pub p50_ns: f64,
    pub p99_ns: f64,
    /// Speed factor of the host while the slice ran, from the yardstick
    /// bursts either side of it: above 1 when the host was slow.
    pub speed: f64,
}

impl Slice {
    /// The samples in `hist`, taken in `ns` on the clock (on-CPU time for
    /// a closed-loop slice, scheduled time for an open-loop window). The
    /// 99th percentile falls back to the highest one with ten samples
    /// beyond it when the slice is short (smoke runs).
    fn of(hist: &Histogram, ns: u64, speed: f64) -> Slice {
        Slice {
            ops_per_s: hist.count() as f64 / (ns as f64 / 1e9),
            mid_ns: hist.mean_between(0.25, 0.75),
            p50_ns: hist.quantile(0.5),
            p99_ns: hist.quantile(hist.supported(0.99)),
            speed,
        }
    }

    /// The slice as it would have read on the reference host when
    /// quiet: every duration divided by the speed factor.
    pub fn calibrated(&self) -> Slice {
        Slice {
            ops_per_s: self.ops_per_s * self.speed,
            mid_ns: self.mid_ns / self.speed,
            p50_ns: self.p50_ns / self.speed,
            p99_ns: self.p99_ns / self.speed,
            speed: 1.0,
        }
    }
}

impl Phase {
    /// Median over the windows of each window's median sojourn.
    pub fn p50_ns(&self) -> f64 {
        median(self.windows.iter().map(|w| w.p50_ns))
    }

    /// Median over the windows of each window's 99th-percentile sojourn.
    pub fn p99_ns(&self) -> f64 {
        median(self.windows.iter().map(|w| w.p99_ns))
    }
}

/// One open-loop phase at a fixed offered rate.
pub struct Phase {
    pub label: &'static str,
    pub rate_per_s: f64,
    pub scheduled: u64,
    /// Latency from each op's *scheduled* instant, per window.
    pub windows: Vec<Slice>,
    pub late_starts: u64,
    pub backlog_max: u64,
    pub slo_misses: u64,
    /// Time inside `exec`; over `wall_ns` it is the utilisation.
    pub busy_ns: u64,
    pub wall_ns: u64,
}

/// Everything one measured window produced.
pub struct Window {
    pub ops: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
    pub digest: Digest,
    /// Time on the clock (slice or phase walls, summed).
    pub wall_ns: u64,
    /// Time spent inside `exec`, summed over the ops.
    pub busy_ns: u64,
    /// Throughput and per-op latency (time inside `exec`) percentiles
    /// of each closed-loop slice or open-loop window. Open-loop sojourn
    /// times, which add the wait behind earlier arrivals, are per phase.
    pub slices: Vec<Slice>,
    pub phases: Vec<Phase>,
    /// Counter deltas across the window.
    pub counts: Counts,
}

impl Window {
    fn new() -> Self {
        Window {
            ops: 0,
            failed: 0,
            first_failure: None,
            digest: Digest::default(),
            wall_ns: 0,
            busy_ns: 0,
            slices: Vec::new(),
            phases: Vec::new(),
            counts: Counts::default(),
        }
    }

    fn judge(&mut self, verdict: Verdict) -> bool {
        self.ops += 1;
        match verdict {
            Verdict::Ok(fold) => {
                self.digest.fold(fold);
                true
            }
            Verdict::Rejected(why) => {
                self.failed += 1;
                self.first_failure.get_or_insert(why);
                false
            }
        }
    }

    pub fn ops_per_s(&self) -> f64 {
        self.ops as f64 / (self.wall_ns as f64 / 1e9)
    }

    /// Mean time inside `exec` per op, ns.
    pub fn mean_service_ns(&self) -> f64 {
        self.busy_ns as f64 / self.ops.max(1) as f64
    }
}

pub fn median(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut v: Vec<f64> = values.into_iter().collect();
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The mean of the middle half of `values` (the interquartile mean). As
/// robust as the median to a spoilt quarter of the slices on either
/// side, but it moves smoothly where the slices fall into two groups
/// (`scale_zipf`'s early and late slices) and the median would jump
/// from one group to the other.
pub fn midmean(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut v: Vec<f64> = values.into_iter().collect();
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let cut = v.len() / 4;
    let middle = &v[cut..v.len() - cut];
    middle.iter().sum::<f64>() / middle.len() as f64
}

/// Runs `ops` operations back to back in slices of `slice_ops`, with a
/// yardstick burst before the first, between any two and after the last.
pub fn closed_loop<S: Stack>(
    stack: &mut S,
    rng: &mut Rng,
    yardstick: &mut Yardstick,
    ops: usize,
    slice_ops: usize,
) -> Window {
    let tracer = stack.tracer().cloned();
    let mut w = Window::new();
    let mut slice_hist = Histogram::new();
    let before = stack.counts();
    let mut burst_before = yardstick.burst();
    for first in (0..ops).step_by(slice_ops.max(1)) {
        let batch = stack.gen(rng, slice_ops.min(ops - first));
        slice_hist.clear();
        let (started, started_cpu) = (Instant::now(), thread_cpu_ns());
        for op in &batch {
            let root = tracer.as_ref().map(|t| t.enter_op(w.ops));
            let t0 = Instant::now();
            let answer = stack.exec(op);
            let ns = t0.elapsed().as_nanos() as u64;
            drop(root);
            slice_hist.record(ns);
            w.busy_ns += ns;
            let verdict = stack.check(op, answer);
            w.judge(verdict);
        }
        let on_cpu = thread_cpu_ns() - started_cpu;
        w.wall_ns += started.elapsed().as_nanos() as u64;
        let burst_after = yardstick.burst();
        w.slices.push(Slice::of(
            &slice_hist,
            on_cpu,
            factor(burst_before, burst_after),
        ));
        burst_before = burst_after;
    }
    // Batched virtual-time charges sit in a thread-local buffer until
    // read; `counts` reads the clock, which flushes them.
    w.counts = stack.counts().since(&before);
    w
}

fn close_window(hist: &mut Histogram, speed: f64, windows: &mut Vec<Slice>) {
    if hist.count() > 0 {
        windows.push(Slice::of(hist, WINDOW_NS, speed));
        hist.clear();
    }
}

/// Runs one phase per `(label, rate)`, each `phase_ns` long: every
/// scheduled arrival is executed, however late, so op counts and
/// virtual time are exact per seed. Between two windows the phase clock
/// stops for a yardstick burst; the arrivals of a window have all been
/// served by then, so a backlog neither gains nor loses by it.
pub fn open_loop<S: Stack>(
    stack: &mut S,
    rng: &mut Rng,
    yardstick: &mut Yardstick,
    rates: &[(&'static str, f64)],
    phase_ns: u64,
) -> Window {
    let tracer = stack.tracer().cloned();
    let mut w = Window::new();
    let before = stack.counts();
    for &(label, rate_per_s) in rates {
        let schedule = poisson_schedule(rate_per_s, phase_ns, &mut rng.fork(label));
        let batch = stack.gen(rng, schedule.len());
        let mut phase = Phase {
            label,
            rate_per_s,
            scheduled: schedule.len() as u64,
            windows: Vec::new(),
            late_starts: 0,
            backlog_max: 0,
            slo_misses: 0,
            busy_ns: 0,
            wall_ns: 0,
        };
        // Index of the first arrival not yet due, for the backlog.
        let mut due = 0usize;
        let (mut sojourns, mut services) = (Histogram::new(), Histogram::new());
        let mut burst_before = yardstick.burst();
        // Time on the phase clock: wall time less the bursts.
        let started = Instant::now();
        let mut in_bursts = 0u64;
        let mut last_window = 0;
        for (i, (op, &at)) in batch.iter().zip(&schedule).enumerate() {
            if at / WINDOW_NS != last_window {
                last_window = at / WINDOW_NS;
                let paused = started.elapsed().as_nanos() as u64;
                let burst_after = yardstick.burst();
                let speed = factor(burst_before, burst_after);
                burst_before = burst_after;
                close_window(&mut sojourns, speed, &mut phase.windows);
                close_window(&mut services, speed, &mut w.slices);
                in_bursts += started.elapsed().as_nanos() as u64 - paused;
            }
            let mut now = started.elapsed().as_nanos() as u64 - in_bursts;
            // No `spin_loop` hint: a long PAUSE loop invites a hypervisor
            // to take the core away (pause-loop exiting), and the op
            // that follows would pay for getting it back.
            while now < at {
                now = started.elapsed().as_nanos() as u64 - in_bursts;
            }
            while due < schedule.len() && schedule[due] <= now {
                due += 1;
            }
            phase.backlog_max = phase.backlog_max.max((due - i - 1) as u64);
            phase.late_starts += u64::from(now - at > LATE_START_NS);

            let root = tracer.as_ref().map(|t| t.enter_op(w.ops));
            let answer = stack.exec(op);
            let done = started.elapsed().as_nanos() as u64 - in_bursts;
            drop(root);
            let sojourn = done - at;
            phase.busy_ns += done - now;
            services.record(done - now);
            sojourns.record(sojourn);
            let verdict = stack.check(op, answer);
            // A failed op misses any limit.
            if !w.judge(verdict) || sojourn > SLO_NS {
                phase.slo_misses += 1;
            }
        }
        phase.wall_ns = started.elapsed().as_nanos() as u64 - in_bursts;
        let speed = factor(burst_before, yardstick.burst());
        close_window(&mut sojourns, speed, &mut phase.windows);
        close_window(&mut services, speed, &mut w.slices);
        w.wall_ns += phase.wall_ns;
        w.busy_ns += phase.busy_ns;
        w.phases.push(phase);
    }
    w.counts = stack.counts().since(&before);
    w
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn midmean_ignores_the_outer_quarters() {
        // 20 slices, five of them spoilt: the result is untouched.
        let mut slices = vec![100.0; 15];
        slices.extend([900.0, 5_000.0, 1.0, 2.0, 3.0]);
        assert_eq!(midmean(slices), 100.0);
        // Two groups of slices: between them, not on either.
        let two = [[20.0; 10], [40.0; 10]].concat();
        assert_eq!(midmean(two), 30.0);
        assert_eq!(midmean([7.0]), 7.0);
        assert_eq!(midmean([1.0, 2.0, 3.0]), 2.0);
        assert_eq!(midmean(std::iter::empty()), 0.0);
    }

    #[test]
    fn calibration_divides_the_speed_factor_out_of_every_duration() {
        // A slice taken while the host ran at half speed.
        let slow = Slice {
            ops_per_s: 50_000.0,
            mid_ns: 8_000.0,
            p50_ns: 7_000.0,
            p99_ns: 40_000.0,
            speed: 2.0,
        };
        let c = slow.calibrated();
        assert_eq!(
            (c.ops_per_s, c.mid_ns, c.p50_ns, c.p99_ns, c.speed),
            (100_000.0, 4_000.0, 3_500.0, 20_000.0, 1.0)
        );
    }

    #[test]
    fn median_of_even_and_odd_sets() {
        assert_eq!(median([3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median([4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(std::iter::empty()), 0.0);
    }
}
