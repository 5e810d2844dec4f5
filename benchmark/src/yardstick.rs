//! The yardstick: a fixed piece of work the benchmark runs in short
//! bursts between the slices of every measured window, to tell how fast
//! the host is running *at that moment*.
//!
//! The host is a few cores of a shared machine. For minutes at a time it
//! runs everything up to twice as slow (busy sibling threads, a crowded
//! cache, the hypervisor taking the core away), and no statistic taken
//! inside a run survives a spell that outlasts the run. So every
//! duration the benchmark reports is divided by the *speed factor* of
//! the moment it was taken in: how long the yardstick bursts either side
//! of it took, over what they take on the reference host when it is
//! quiet. A metric so calibrated reads as "on the reference host,
//! undisturbed"; on that host, undisturbed, the factor is 1. Durations
//! are on the thread's on-CPU clock (`src/cputime.rs`), so time the core
//! was taken away is in neither.
//!
//! The yardstick uses nothing of the repository, so no change to the
//! stack can move it. It is shaped like the stack's own work, so that
//! the host slows both alike: formatted string keys, SipHash look-ups
//! in a table of `Arc`-ed records, a `Mutex`-guarded cache, and
//! length-prefixed encoding and decoding with small allocations. A
//! burst runs it twice, on a table the core's own caches hold and on one
//! they do not, because a busy host slows the two by different amounts
//! and the workloads by an amount in between; the factor is the
//! geometric mean of the two (README, "Repeatability", has the
//! measurements this rests on). Every measured run prints how long the
//! bursts took in it (`I yardstick …`).

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::sync::{Arc, Mutex};

use crate::cputime::thread_cpu_ns;

/// Timed look-ups per kernel and burst.
const BURST_UNITS: usize = 2_500;
/// Look-ups before the clock starts, which bring the kernel's code and
/// the allocator's paths back into the caches the slice before it filled.
const WARM_UP_UNITS: usize = 300;
/// Entries a kernel's locked cache holds before it is emptied.
const CACHE_ENTRIES: usize = 2 * 1024;

/// Records in each kernel's table, and what its part of a burst takes on
/// the reference host when quiet, ns: 256 records (~64 KB, which the
/// warm-up brings back into the core's caches) and 8,192 (~3 MB, more
/// than they hold). Fixed once, as the middle of the bursts between
/// `warm_query` slices over ten runs in a quiet spell; they never follow
/// the code.
pub const KERNELS: [(usize, f64); 2] = [(256, 1_060_000.0), (8 * 1024, 1_870_000.0)];

struct Record {
    name: String,
    host: String,
    program: u32,
    port: u32,
    payload: Vec<u8>,
}

/// SipHash like the default, but with the same keys in every process, so
/// that every run probes the same buckets.
type FixedState = BuildHasherDefault<DefaultHasher>;

struct Kernel {
    table: HashMap<String, Arc<Record>, FixedState>,
    cache: Mutex<HashMap<u64, Arc<Record>, FixedState>>,
    state: u64,
    sink: u64,
}

pub struct Yardstick {
    kernels: [Kernel; 2],
    /// Every burst so far, ns per kernel.
    log: Vec<[u64; 2]>,
}

fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    out.extend_from_slice(&(bytes.len() as u32).to_be_bytes());
    out.extend_from_slice(bytes);
    out.resize(out.len().next_multiple_of(4), 0);
}

fn take_bytes<'a>(input: &mut &'a [u8]) -> &'a [u8] {
    let (len, rest) = input.split_at(4);
    let len = u32::from_be_bytes([len[0], len[1], len[2], len[3]]) as usize;
    let (bytes, rest) = rest.split_at(len.next_multiple_of(4));
    *input = rest;
    &bytes[..len]
}

fn key(i: usize) -> String {
    format!("ctx-{}.svc-{}.yardstick", i % 1024, i / 1024)
}

impl Kernel {
    fn new(records: usize) -> Self {
        let table = (0..records)
            .map(|i| {
                let record = Record {
                    name: key(i),
                    host: format!("host-{}.example", i % 61),
                    program: 100_000 + i as u32,
                    port: 1024 + (i % 4096) as u32,
                    payload: (0..48 + i % 64).map(|b| (b * 7 + i) as u8).collect(),
                };
                (record.name.clone(), Arc::new(record))
            })
            .collect();
        Kernel {
            table,
            cache: Mutex::new(HashMap::default()),
            state: 0x9e37_79b9_7f4a_7c15,
            sink: 0,
        }
    }

    /// One look-up: format the key, find the record, pass it through the
    /// locked cache, encode it, decode it again and fold the result.
    fn unit(&mut self) {
        self.state = self
            .state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let i = (self.state >> 33) as usize % self.table.len();
        let record = Arc::clone(&self.table[&key(i)]);
        {
            let mut cache = self.cache.lock().expect("yardstick cache");
            if cache.len() >= CACHE_ENTRIES {
                cache.clear();
            }
            cache.insert(self.state >> 40, Arc::clone(&record));
        }
        let mut wire = Vec::new();
        put_bytes(&mut wire, record.name.as_bytes());
        put_bytes(&mut wire, record.host.as_bytes());
        wire.extend_from_slice(&record.program.to_be_bytes());
        wire.extend_from_slice(&record.port.to_be_bytes());
        put_bytes(&mut wire, &record.payload);

        let mut input = wire.as_slice();
        let name = String::from_utf8_lossy(take_bytes(&mut input)).into_owned();
        let host = String::from_utf8_lossy(take_bytes(&mut input)).into_owned();
        let (numbers, mut input) = input.split_at(8);
        let payload = take_bytes(&mut input).to_vec();
        self.sink = self
            .sink
            .wrapping_add(name.len() as u64 + host.len() as u64)
            .wrapping_add(numbers.iter().map(|b| u64::from(*b)).sum::<u64>())
            .wrapping_add(payload.iter().map(|b| u64::from(*b)).sum::<u64>());
    }

    /// How long the thread was on a CPU for [`BURST_UNITS`] look-ups, ns.
    fn burst_ns(&mut self) -> u64 {
        for _ in 0..WARM_UP_UNITS {
            self.unit();
        }
        let started = thread_cpu_ns();
        for _ in 0..BURST_UNITS {
            self.unit();
        }
        std::hint::black_box(self.sink);
        thread_cpu_ns() - started
    }
}

impl Default for Yardstick {
    fn default() -> Self {
        Self::new()
    }
}

impl Yardstick {
    pub fn new() -> Self {
        Yardstick {
            kernels: KERNELS.map(|(records, _)| Kernel::new(records)),
            log: Vec::new(),
        }
    }

    /// Every burst run so far, ns per kernel.
    pub fn log(&self) -> &[[u64; 2]] {
        &self.log
    }

    /// Runs one burst and returns the host's speed factor over it: the
    /// geometric mean of each kernel's time over its nominal time, above
    /// 1 when the host runs slower than the reference host does when
    /// quiet.
    pub fn burst(&mut self) -> f64 {
        let [small, large] = &mut self.kernels;
        let ns = [small.burst_ns(), large.burst_ns()];
        self.log.push(ns);
        let [(_, small_nominal), (_, large_nominal)] = KERNELS;
        (ns[0] as f64 / small_nominal * ns[1] as f64 / large_nominal).sqrt()
    }
}

/// The speed factor of an interval between two bursts.
pub fn factor(before: f64, after: f64) -> f64 {
    (before + after) / 2.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encoding_round_trips_and_pads() {
        let mut wire = Vec::new();
        put_bytes(&mut wire, b"abcde");
        put_bytes(&mut wire, b"");
        put_bytes(&mut wire, b"wxyz");
        assert_eq!(wire.len(), 4 + 8 + 4 + 4 + 4);
        let mut input = wire.as_slice();
        assert_eq!(take_bytes(&mut input), b"abcde");
        assert_eq!(take_bytes(&mut input), b"");
        assert_eq!(take_bytes(&mut input), b"wxyz");
        assert!(input.is_empty());
    }

    #[test]
    fn bursts_do_the_same_work_every_time() {
        // Two yardsticks fold the same values in the same order.
        let (mut a, mut b) = (Yardstick::new(), Yardstick::new());
        assert!(a.burst() > 0.0);
        b.burst();
        for (x, y) in a.kernels.iter().zip(&b.kernels) {
            assert_eq!(x.sink, y.sink);
            assert_ne!(x.sink, 0);
        }
        assert_eq!(a.kernels[0].table.len(), 256);
        assert_eq!(a.kernels[1].table.len(), 8 * 1024);
    }

    #[test]
    fn factor_is_the_mean_of_the_bursts_either_side() {
        assert_eq!(factor(1.0, 1.0), 1.0);
        assert_eq!(factor(1.5, 2.5), 2.0);
    }
}
