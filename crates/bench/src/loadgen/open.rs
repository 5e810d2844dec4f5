//! The open-loop (offered-load) arrival process and its clock.
//!
//! A loop that waits for one operation to finish before issuing the
//! next can never overload the stack: under saturation the *arrival
//! rate adapts to the service rate* and queueing delay is invisible
//! (coordinated omission). The open loop instead fixes the offered
//! load: each worker precomputes a Poisson arrival schedule at its
//! share of the offered QPS, dispatches each operation at (or as soon
//! as possible after) its scheduled instant, and charges latency from
//! the *scheduled arrival* — sojourn time — so time spent queued behind
//! a slow operation counts against the system. Every reading is in
//! nanoseconds of one monotonic clock started at the barrier release.
//!
//! Three overload signals ride along:
//!
//! * **lateness** — how far past its scheduled instant each operation
//!   was actually dispatched,
//! * **late ops** — how many operations were dispatched more than
//!   [`LATE_NS`] late,
//! * **max backlog** — the deepest the queue of due-but-not-yet-
//!   dispatched arrivals got.
//!
//! Schedules are deterministic for a fixed seed (proptested below):
//! worker `w` at offered level `q` draws from a seed derived from the
//! config seed, `q`'s bit pattern, and `w`, so re-running a sweep
//! replays identical arrival processes.

use std::sync::Barrier;
use std::time::{Duration, Instant};

use hns_core::obs::metrics::HistogramStats;
use hns_core::obs::LocalHistogram;
use simnet::rng::DetRng;

use super::zipf::ZipfSampler;
use super::{build_shards, LoadConfig, CONTEXTS};

/// An operation is *late* when it was dispatched more than this long
/// after its scheduled instant: `benchmark/`'s `LATE_START_NS`, so the
/// two harnesses mean the same thing by the word. Below it a reading is
/// the pacer's own granularity, not queueing.
pub const LATE_NS: u64 = 10_000;

/// One fixed wall-clock window of an open-loop run. Operations bin by
/// *scheduled* arrival (`at_ns / window`), so window membership is
/// deterministic for a fixed seed even though the measured values are
/// wall-clock. Sums and maxima merge exactly across workers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpenWindow {
    /// Window index; window `i` covers scheduled arrivals in
    /// `[i*window_ms, (i+1)*window_ms)`.
    pub index: u64,
    /// Operations whose scheduled arrival fell in this window.
    pub ops: u64,
    /// Of those, how many returned an error.
    pub errors: u64,
    /// Of those, how many were dispatched more than [`LATE_NS`] late.
    pub late_ops: u64,
    /// Deepest due-but-undispatched backlog observed at a dispatch in
    /// this window.
    pub backlog_max: u64,
    /// Sum of dispatch lateness (ns) over the window's operations.
    pub lateness_sum_ns: u64,
    /// Worst dispatch lateness (ns) in the window.
    pub lateness_max_ns: u64,
    /// Sum of sojourn latency (ns; completion minus scheduled arrival).
    pub sojourn_sum_ns: u64,
    /// Worst sojourn latency (ns) in the window.
    pub sojourn_max_ns: u64,
}

impl OpenWindow {
    fn mean(&self, sum: u64) -> f64 {
        if self.ops == 0 {
            0.0
        } else {
            sum as f64 / self.ops as f64
        }
    }

    /// Mean dispatch lateness (ns); 0 for an empty window.
    pub fn lateness_mean_ns(&self) -> f64 {
        self.mean(self.lateness_sum_ns)
    }

    /// Mean sojourn latency (ns); 0 for an empty window.
    pub fn sojourn_mean_ns(&self) -> f64 {
        self.mean(self.sojourn_sum_ns)
    }

    /// Folds another worker's same-index window into this one. Sums add
    /// and maxima max, so the merge is exact — the merged window equals
    /// what a single worker observing all the operations would report.
    fn merge(&mut self, other: &OpenWindow) {
        self.ops += other.ops;
        self.errors += other.errors;
        self.late_ops += other.late_ops;
        self.backlog_max = self.backlog_max.max(other.backlog_max);
        self.lateness_sum_ns += other.lateness_sum_ns;
        self.lateness_max_ns = self.lateness_max_ns.max(other.lateness_max_ns);
        self.sojourn_sum_ns += other.sojourn_sum_ns;
        self.sojourn_max_ns = self.sojourn_max_ns.max(other.sojourn_max_ns);
    }
}

/// Result of one open-loop run (one offered-load level).
#[derive(Debug, Clone)]
pub struct OpenRunResult {
    /// Total offered load (QPS) across all workers.
    pub offered_qps: f64,
    /// Worker threads driven.
    pub threads: usize,
    /// Scheduled duration of the run.
    pub duration_ms: u64,
    /// Arrivals scheduled across all workers.
    pub scheduled: u64,
    /// Operations completed (every scheduled arrival is eventually
    /// dispatched; the run ends when the last one finishes).
    pub ops: u64,
    /// Operations that returned an error.
    pub errors: u64,
    /// Warm `FindNSM` operations.
    pub warm_ops: u64,
    /// Cold `FindNSM` operations: a deliberately cache-disabled
    /// instance, a full meta walk every time.
    pub cold_ops: u64,
    /// Full `Import` operations.
    pub bind_ops: u64,
    /// `regd` write operations (re-bind updates plus transfers).
    pub write_ops: u64,
    /// Ownership transfers (a subset of `write_ops`).
    pub transfer_ops: u64,
    /// Wall-clock seconds from barrier release to last worker done.
    pub wall_secs: f64,
    /// Completed operations per wall-clock second. Tracks
    /// `offered_qps` while the stack keeps up; falls below it (with the
    /// run overrunning `duration_ms`) under overload.
    pub achieved_qps: f64,
    /// Sojourn latency (ns): completion minus *scheduled* arrival, so
    /// queueing delay is visible. Merged exactly from the per-worker
    /// histograms.
    pub latency_ns: HistogramStats,
    /// Dispatch lateness (ns): actual minus scheduled dispatch instant.
    pub lateness_ns: HistogramStats,
    /// Operations dispatched more than [`LATE_NS`] after their
    /// scheduled instant.
    pub late_ops: u64,
    /// Deepest due-but-undispatched arrival queue observed.
    pub backlog_max: u64,
    /// Width of the per-window series, wall-clock milliseconds.
    pub window_ms: u64,
    /// Per-window overload series covering the whole scheduled horizon
    /// (`ceil(duration_ms / window_ms)` windows, empty ones included),
    /// merged exactly across workers.
    pub windows: Vec<OpenWindow>,
}

/// Draws a Poisson arrival schedule: nanosecond offsets from run start,
/// strictly within `duration_ms`, with exponential inter-arrival times
/// of mean `1/rate`. Deterministic for a fixed seed. An empty schedule
/// results from a non-positive rate.
pub fn poisson_schedule(seed: u64, rate_per_sec: f64, duration_ms: u64) -> Vec<u64> {
    let mut out = Vec::new();
    if rate_per_sec <= 0.0 {
        return out;
    }
    let mut rng = DetRng::new(seed);
    let mean_ns = 1e9 / rate_per_sec;
    let horizon_ns = duration_ms as f64 * 1e6;
    let mut t = 0.0;
    loop {
        t += rng.next_exp(mean_ns);
        if t >= horizon_ns {
            return out;
        }
        out.push(t as u64);
    }
}

/// Seed for worker `w`'s arrival schedule at offered level `q`.
fn schedule_seed(config_seed: u64, offered_qps: f64, worker: u64) -> u64 {
    config_seed ^ offered_qps.to_bits().rotate_left(17) ^ worker.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// What one worker observed; workers' tallies merge exactly into the
/// run's.
struct Tally {
    /// Operations by kind, indexed as `run_op` numbers them.
    counts: [u64; 5],
    errors: u64,
    latency: LocalHistogram,
    lateness: LocalHistogram,
    late_ops: u64,
    backlog_max: u64,
    windows: Vec<OpenWindow>,
}

impl Tally {
    fn new(n_windows: usize) -> Tally {
        let window = |i| OpenWindow {
            index: i as u64,
            ..OpenWindow::default()
        };
        Tally {
            counts: [0; 5],
            errors: 0,
            latency: LocalHistogram::new(),
            lateness: LocalHistogram::new(),
            late_ops: 0,
            backlog_max: 0,
            windows: (0..n_windows).map(window).collect(),
        }
    }

    fn merge(&mut self, other: &Tally) {
        for (mine, theirs) in self.counts.iter_mut().zip(other.counts) {
            *mine += theirs;
        }
        self.errors += other.errors;
        self.latency.merge(&other.latency);
        self.lateness.merge(&other.lateness);
        self.late_ops += other.late_ops;
        self.backlog_max = self.backlog_max.max(other.backlog_max);
        for (mine, theirs) in self.windows.iter_mut().zip(&other.windows) {
            mine.merge(theirs);
        }
    }
}

/// Runs one offered-load level: `config.open_threads` workers, each
/// with its own stack and its own Poisson schedule at an equal share of
/// `offered_qps`.
pub fn run_open(config: &LoadConfig, offered_qps: f64) -> OpenRunResult {
    let threads = config.open_threads;
    let duration_ms = config.open_duration_ms;
    let window_ms = config.open_window_ms;
    let window_ns = window_ms * 1_000_000;
    let n_windows = duration_ms.div_ceil(window_ms) as usize;
    let sampler = ZipfSampler::new(CONTEXTS * 3, config.zipf_s);
    let stacks = build_shards(threads, config);
    let schedules: Vec<Vec<u64>> = (0..threads)
        .map(|w| {
            poisson_schedule(
                schedule_seed(config.seed, offered_qps, w as u64),
                offered_qps / threads as f64,
                duration_ms,
            )
        })
        .collect();
    let barrier = Barrier::new(threads + 1);
    let mut master = DetRng::new(config.seed ^ offered_qps.to_bits());

    // Workers spawn and park on the barrier, which releases the moment
    // the main thread (the final waiter) arrives — so the timestamp
    // taken just *before* main waits marks the release to within the
    // barrier's own overhead. `scope` returning means every worker has
    // finished, so `started.elapsed()` is the run's wall time.
    let mut started = Instant::now();
    let outs: Vec<Tally> = std::thread::scope(|scope| {
        let handles: Vec<_> = stacks
            .iter()
            .zip(&schedules)
            .map(|(stack, schedule)| {
                let mut rng = master.fork();
                let sampler = &sampler;
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut out = Tally::new(n_windows);
                    // Index of the first arrival not yet due.
                    let mut due = 0;
                    barrier.wait();
                    let start = Instant::now();
                    let now = || start.elapsed().as_nanos() as u64;
                    for (i, &at) in schedule.iter().enumerate() {
                        // Wait out the gap to the scheduled arrival:
                        // sleep for the bulk, spin the last stretch
                        // (sleep granularity is far coarser than the
                        // schedule).
                        let dispatched = loop {
                            let t = now();
                            if t >= at {
                                break t;
                            }
                            if at - t > 300_000 {
                                std::thread::sleep(Duration::from_nanos(at - t - 200_000));
                            } else {
                                std::hint::spin_loop();
                            }
                        };
                        let late = dispatched - at;
                        let is_late = u64::from(late > LATE_NS);
                        // The backlog is the arrivals already due but
                        // not yet started: this one is being started,
                        // so it does not count.
                        while due < schedule.len() && schedule[due] <= dispatched {
                            due += 1;
                        }
                        let backlog = (due - i - 1) as u64;
                        let (kind, failed) = stack.run_op(&mut rng, sampler, config);
                        let sojourn = now() - at;
                        out.counts[kind as usize] += 1;
                        out.errors += u64::from(failed);
                        out.latency.record(sojourn);
                        out.lateness.record(late);
                        out.late_ops += is_late;
                        out.backlog_max = out.backlog_max.max(backlog);
                        // Schedules stay inside the horizon, so the
                        // window index is always in range.
                        let w = &mut out.windows[(at / window_ns) as usize];
                        w.ops += 1;
                        w.errors += u64::from(failed);
                        w.late_ops += is_late;
                        w.backlog_max = w.backlog_max.max(backlog);
                        w.lateness_sum_ns += late;
                        w.lateness_max_ns = w.lateness_max_ns.max(late);
                        w.sojourn_sum_ns += sojourn;
                        w.sojourn_max_ns = w.sojourn_max_ns.max(sojourn);
                    }
                    out
                })
            })
            .collect();
        started = Instant::now();
        barrier.wait();
        handles
            .into_iter()
            .map(|h| h.join().expect("open-loop worker panicked"))
            .collect()
    });
    let wall_secs = started.elapsed().as_secs_f64();

    let mut total = Tally::new(n_windows);
    for out in &outs {
        total.merge(out);
    }
    let [warm_ops, cold_ops, bind_ops, update_ops, transfer_ops] = total.counts;
    let ops: u64 = total.counts.iter().sum();
    OpenRunResult {
        offered_qps,
        threads,
        duration_ms,
        scheduled: schedules.iter().map(|s| s.len() as u64).sum(),
        ops,
        errors: total.errors,
        warm_ops,
        cold_ops,
        bind_ops,
        write_ops: update_ops + transfer_ops,
        transfer_ops,
        wall_secs,
        achieved_qps: ops as f64 / wall_secs,
        latency_ns: total.latency.stats(),
        lateness_ns: total.lateness.stats(),
        late_ops: total.late_ops,
        backlog_max: total.backlog_max,
        window_ms,
        windows: total.windows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn schedule_is_sorted_and_bounded() {
        let s = poisson_schedule(42, 10_000.0, 100);
        assert!(!s.is_empty());
        assert!(s.windows(2).all(|w| w[0] <= w[1]), "sorted");
        assert!(s.iter().all(|&t| t < 100_000_000), "within the horizon");
    }

    #[test]
    fn zero_rate_schedules_nothing() {
        assert!(poisson_schedule(1, 0.0, 1_000).is_empty());
        assert!(poisson_schedule(1, -5.0, 1_000).is_empty());
    }

    #[test]
    fn window_merge_is_exact() {
        let a = OpenWindow {
            index: 3,
            ops: 10,
            errors: 1,
            late_ops: 4,
            backlog_max: 2,
            lateness_sum_ns: 500,
            lateness_max_ns: 200,
            sojourn_sum_ns: 9_000,
            sojourn_max_ns: 4_000,
        };
        let b = OpenWindow {
            index: 3,
            ops: 5,
            errors: 0,
            late_ops: 5,
            backlog_max: 7,
            lateness_sum_ns: 1_500,
            lateness_max_ns: 900,
            sojourn_sum_ns: 1_000,
            sojourn_max_ns: 350,
        };
        let mut merged = a;
        merged.merge(&b);
        assert_eq!(merged.ops, 15);
        assert_eq!(merged.errors, 1);
        assert_eq!(merged.late_ops, 9);
        assert_eq!(merged.backlog_max, 7);
        assert_eq!(merged.lateness_sum_ns, 2_000);
        assert_eq!(merged.lateness_max_ns, 900);
        assert_eq!(merged.sojourn_sum_ns, 10_000);
        assert_eq!(merged.sojourn_max_ns, 4_000);
        assert_eq!(merged.lateness_mean_ns(), 2_000.0 / 15.0);
    }

    #[test]
    fn windows_cover_every_scheduled_op_exactly_once() {
        let config = LoadConfig {
            open_threads: 2,
            open_duration_ms: 120,
            open_window_ms: 25,
            ..LoadConfig::default()
        };
        let r = run_open(&config, 2_000.0);
        assert_eq!(r.window_ms, 25);
        assert_eq!(r.windows.len(), 5, "ceil(120 / 25) windows, empty included");
        for (i, w) in r.windows.iter().enumerate() {
            assert_eq!(w.index, i as u64, "contiguous indices");
            assert!(w.late_ops <= w.ops);
            assert!(w.lateness_max_ns <= w.lateness_sum_ns);
        }
        // The windows partition the scheduled horizon: totals reassemble.
        assert_eq!(r.windows.iter().map(|w| w.ops).sum::<u64>(), r.ops);
        assert_eq!(r.windows.iter().map(|w| w.errors).sum::<u64>(), r.errors);
        assert_eq!(
            r.windows.iter().map(|w| w.late_ops).sum::<u64>(),
            r.late_ops
        );
        assert_eq!(
            r.windows.iter().map(|w| w.backlog_max).max().unwrap_or(0),
            r.backlog_max
        );
    }

    #[test]
    fn an_idle_run_has_no_backlog_in_any_window() {
        // One arrival at a time, each long done before the next is due:
        // nothing is ever waiting, so the backlog is 0, not 1. (This
        // seed's gaps are all over 30 ms, far beyond a scheduler stall.)
        let config = LoadConfig {
            open_threads: 1,
            open_duration_ms: 400,
            open_window_ms: 50,
            seed: 3,
            ..LoadConfig::default()
        };
        let offered = 25.0;
        let schedule = poisson_schedule(schedule_seed(config.seed, offered, 0), offered, 400);
        assert!(schedule.len() >= 4, "{schedule:?}");
        let gaps = schedule.windows(2).map(|w| w[1] - w[0]);
        assert!(
            gaps.min() >= Some(1_000_000),
            "a gap under 1 ms: {schedule:?}"
        );
        let r = run_open(&config, offered);
        assert_eq!(r.ops, schedule.len() as u64);
        for w in &r.windows {
            assert_eq!(w.backlog_max, 0, "window {}", w.index);
        }
        assert_eq!(r.backlog_max, 0);
    }

    proptest! {
        /// Fixed seed ⇒ identical arrival schedule, run to run.
        #[test]
        fn schedule_is_deterministic_for_fixed_seed(
            seed in 0u64..u64::MAX,
            rate in 1.0f64..100_000.0,
            duration_ms in 1u64..2_000,
        ) {
            let a = poisson_schedule(seed, rate, duration_ms);
            let b = poisson_schedule(seed, rate, duration_ms);
            prop_assert_eq!(a, b);
        }

        /// Arrival count concentrates around rate × duration: for a
        /// Poisson process the count over the horizon has mean λT, so a
        /// generous ±50% band plus slack catches only real breakage
        /// (wrong unit, wrong mean) and never the stochastic tail.
        #[test]
        fn schedule_count_tracks_offered_load(
            seed in 0u64..u64::MAX,
            rate in 1_000.0f64..50_000.0,
        ) {
            let duration_ms = 1_000;
            let n = poisson_schedule(seed, rate, duration_ms).len() as f64;
            let expect = rate * duration_ms as f64 / 1_000.0;
            prop_assert!(
                n > expect * 0.5 && n < expect * 1.5,
                "count {} vs expected {}", n, expect
            );
        }

        /// Per-worker schedules merged equal one global offered load:
        /// the union of W independent Poisson processes at λ/W is a
        /// Poisson process at λ, so the merged count tracks λT too.
        #[test]
        fn split_schedules_sum_to_the_offered_load(
            seed in 0u64..u64::MAX,
            workers in 1usize..8,
        ) {
            let rate = 20_000.0;
            let duration_ms = 500;
            let total: usize = (0..workers)
                .map(|w| {
                    poisson_schedule(
                        schedule_seed(seed, rate, w as u64),
                        rate / workers as f64,
                        duration_ms,
                    )
                    .len()
                })
                .sum();
            let expect = rate * duration_ms as f64 / 1_000.0;
            let total = total as f64;
            prop_assert!(
                total > expect * 0.5 && total < expect * 1.5,
                "count {} vs expected {}", total, expect
            );
        }
    }
}
