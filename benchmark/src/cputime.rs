//! The generator thread's on-CPU clock.
//!
//! Slices, yardstick bursts and set-ups are timed by how long the thread
//! was *running*, not by the wall clock: when the hypervisor or the
//! guest's scheduler takes the core away for a few milliseconds, the
//! wall clock runs on and this one stops (the guest kernel subtracts
//! steal time from a task's run time, `CONFIG_PARAVIRT_TIME_ACCOUNTING`).
//! On an undisturbed core the two agree, so a duration on this clock is
//! what the wall clock would have shown had nothing else wanted the core.
//! Single operations are still timed with `Instant`: a clock read here is
//! a system call, and a stall hits too few operations to move a
//! percentile.

#[cfg(target_os = "linux")]
mod sys {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }

    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }

    pub fn thread_cpu_ns() -> u64 {
        let mut ts = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
        // fields on every 64-bit Linux target) for the length of the call.
        let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
        assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
        ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
    }
}

#[cfg(not(target_os = "linux"))]
mod sys {
    /// No per-thread clock to hand: the wall clock since first use.
    pub fn thread_cpu_ns() -> u64 {
        use std::sync::OnceLock;
        use std::time::Instant;
        static START: OnceLock<Instant> = OnceLock::new();
        START.get_or_init(Instant::now).elapsed().as_nanos() as u64
    }
}

/// Time the calling thread has spent on a CPU so far, ns.
pub fn thread_cpu_ns() -> u64 {
    sys::thread_cpu_ns()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    #[test]
    fn runs_while_working_and_stops_while_asleep() {
        let (cpu, wall) = (thread_cpu_ns(), Instant::now());
        let mut x = 1u64;
        while wall.elapsed() < Duration::from_millis(20) {
            x = std::hint::black_box(x.wrapping_mul(3).wrapping_add(1));
        }
        let worked = thread_cpu_ns() - cpu;
        // Most of 20 ms of spinning, however busy the host.
        assert!(worked > 2_000_000, "{worked} ns on CPU in a 20 ms spin");
        assert!(worked < 40_000_000, "{worked} ns on CPU in a 20 ms spin");

        let cpu = thread_cpu_ns();
        std::thread::sleep(Duration::from_millis(30));
        let slept = thread_cpu_ns() - cpu;
        if cfg!(target_os = "linux") {
            assert!(slept < 5_000_000, "{slept} ns on CPU while asleep 30 ms");
        }
    }
}
