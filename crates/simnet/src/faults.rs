//! Deterministic fault injection: crash windows, link partitions,
//! latency spikes and datagram loss.
//!
//! A [`FaultPlan`] is a declarative schedule installed on a
//! [`crate::world::World`]. Components that move data between hosts (the
//! HRPC fabric) consult it at each attempt:
//!
//! * a host inside a **crash window** answers nothing — datagrams and
//!   connection attempts to it vanish;
//! * a **partition window** symmetrically severs one (host, host) link;
//! * a **latency spike** adds a fixed per-attempt delay to a link while
//!   its window is active;
//! * **loss** drops each datagram leg with a fixed probability, drawn
//!   from the leg itself ([`FaultPlan::drops`]).
//!
//! Windows are expressed in virtual time and loss draws in call ids, so a
//! plan is exactly as deterministic as the simulation it is installed on:
//! two runs with the same plan (and the same workload) charge the same
//! costs, trip the same faults, and export byte-identical traces. With no
//! plan installed every query below is a no-op and no cost is charged,
//! keeping fault-free runs byte-identical to a build without the
//! subsystem.

use crate::time::SimTime;
use crate::topology::HostId;

/// Why traffic from one host to another is blocked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// An endpoint is inside a crash window.
    Crashed,
    /// The link between the two hosts is partitioned.
    Partitioned,
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            FaultKind::Crashed => "crashed",
            FaultKind::Partitioned => "partitioned",
        })
    }
}

/// A half-open `[from, until)` window in virtual time; `None` means the
/// fault never heals.
#[derive(Debug, Clone, Copy)]
struct Window {
    from: SimTime,
    until: Option<SimTime>,
}

impl Window {
    fn active(&self, now: SimTime) -> bool {
        self.from <= now && self.until.is_none_or(|u| now < u)
    }
}

#[derive(Debug, Clone, Copy)]
struct CrashWindow {
    host: HostId,
    window: Window,
}

#[derive(Debug, Clone, Copy)]
struct PartitionWindow {
    a: HostId,
    b: HostId,
    window: Window,
}

#[derive(Debug, Clone, Copy)]
struct LatencySpike {
    a: HostId,
    b: HostId,
    window: Window,
    extra_ms: f64,
}

/// The request leg of a datagram exchange, for [`FaultPlan::drops`].
pub const LEG_REQUEST: u8 = 0;
/// The reply leg of a datagram exchange, for [`FaultPlan::drops`].
pub const LEG_REPLY: u8 = 1;

#[derive(Debug, Clone, Copy)]
struct Loss {
    drop_prob: f64,
    seed: u64,
}

/// A deterministic schedule of crashes, partitions, latency spikes and
/// datagram loss.
///
/// Built imperatively (each window builder appends one window; `loss`
/// sets the one loss rate) and installed via
/// [`crate::world::World::set_faults`]. Windows may overlap freely; a
/// host may crash and restart repeatedly by adding several windows for
/// it.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    crashes: Vec<CrashWindow>,
    partitions: Vec<PartitionWindow>,
    spikes: Vec<LatencySpike>,
    loss: Option<Loss>,
}

impl FaultPlan {
    /// An empty plan (identical in effect to no plan at all).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Schedules `host` to be crashed during `[from, until)`; `None`
    /// means it never restarts.
    pub fn crash(&mut self, host: HostId, from: SimTime, until: Option<SimTime>) -> &mut Self {
        self.crashes.push(CrashWindow {
            host,
            window: Window { from, until },
        });
        self
    }

    /// Schedules a symmetric partition of the `a` ↔ `b` link during
    /// `[from, until)`.
    pub fn partition(
        &mut self,
        a: HostId,
        b: HostId,
        from: SimTime,
        until: Option<SimTime>,
    ) -> &mut Self {
        self.partitions.push(PartitionWindow {
            a,
            b,
            window: Window { from, until },
        });
        self
    }

    /// Schedules `extra_ms` of additional one-way latency on the `a` ↔
    /// `b` link during `[from, until)`. Overlapping spikes add up.
    pub fn latency_spike(
        &mut self,
        a: HostId,
        b: HostId,
        from: SimTime,
        until: Option<SimTime>,
        extra_ms: f64,
    ) -> &mut Self {
        self.spikes.push(LatencySpike {
            a,
            b,
            window: Window { from, until },
            extra_ms,
        });
        self
    }

    /// Drops each datagram leg with probability `drop_prob`, drawn from
    /// `seed` and the leg ([`FaultPlan::drops`]); replaces any earlier
    /// rate. Stream transports are not subject to loss.
    pub fn loss(&mut self, drop_prob: f64, seed: u64) -> &mut Self {
        self.loss = Some(Loss { drop_prob, seed });
        self
    }

    /// Whether `host` is inside a crash window at `now`.
    pub fn host_down(&self, host: HostId, now: SimTime) -> bool {
        self.crashes
            .iter()
            .any(|c| c.host == host && c.window.active(now))
    }

    /// Whether the `a` ↔ `b` link is partitioned at `now` (symmetric).
    pub fn link_partitioned(&self, a: HostId, b: HostId, now: SimTime) -> bool {
        self.partitions
            .iter()
            .any(|p| ((p.a == a && p.b == b) || (p.a == b && p.b == a)) && p.window.active(now))
    }

    /// Additional one-way latency on the `a` ↔ `b` link at `now`, in
    /// milliseconds (0 with no active spike; overlapping spikes add up).
    pub fn extra_latency_ms(&self, a: HostId, b: HostId, now: SimTime) -> f64 {
        self.spikes
            .iter()
            .filter(|s| ((s.a == a && s.b == b) || (s.a == b && s.b == a)) && s.window.active(now))
            .map(|s| s.extra_ms)
            .sum()
    }

    /// Whether traffic from `src` to `dst` is blocked at `now`, and why.
    /// A crashed endpoint takes precedence over a partition.
    pub fn blocks(&self, src: HostId, dst: HostId, now: SimTime) -> Option<FaultKind> {
        if self.host_down(dst, now) || self.host_down(src, now) {
            return Some(FaultKind::Crashed);
        }
        if self.link_partitioned(src, dst, now) {
            return Some(FaultKind::Partitioned);
        }
        None
    }

    /// Whether the datagram leg (`xid`, `attempt`, `leg`) is lost.
    ///
    /// The draw is hash-derived from `(seed, xid, attempt, leg)`, not
    /// consumed from a shared sequential stream: equal inputs always
    /// agree, however calls from different threads interleave. Uses the
    /// same splitmix64 finalizer as [`crate::rng::DetRng`] over the mixed
    /// key. Never true without a loss rate.
    pub fn drops(&self, xid: u64, attempt: u32, leg: u8) -> bool {
        let Some(Loss { drop_prob, seed }) = self.loss else {
            return false;
        };
        let mut z = seed
            .wrapping_add(xid.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add(
                ((u64::from(attempt) << 8) | u64::from(leg)).wrapping_mul(0x94D0_49BB_1331_11EB),
            );
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        ((z >> 11) as f64 / (1u64 << 53) as f64) < drop_prob
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_ms(ms)
    }

    #[test]
    fn empty_plan_blocks_nothing() {
        let plan = FaultPlan::new();
        assert!(!plan.host_down(HostId(1), t(0)));
        assert!(plan.blocks(HostId(1), HostId(2), t(5)).is_none());
        assert_eq!(plan.extra_latency_ms(HostId(1), HostId(2), t(5)), 0.0);
        assert!(!plan.drops(1, 1, LEG_REQUEST));
    }

    #[test]
    fn crash_window_is_half_open_and_restart_heals() {
        let mut plan = FaultPlan::new();
        plan.crash(HostId(3), t(100), Some(t(200)));
        assert!(!plan.host_down(HostId(3), t(99)));
        assert!(plan.host_down(HostId(3), t(100)), "inclusive start");
        assert!(plan.host_down(HostId(3), t(199)));
        assert!(!plan.host_down(HostId(3), t(200)), "exclusive end");
        assert!(!plan.host_down(HostId(4), t(150)), "only the named host");
        assert_eq!(
            plan.blocks(HostId(1), HostId(3), t(150)),
            Some(FaultKind::Crashed)
        );
        assert_eq!(
            plan.blocks(HostId(3), HostId(1), t(150)),
            Some(FaultKind::Crashed),
            "a crashed host cannot send either"
        );
        assert!(plan.blocks(HostId(1), HostId(3), t(250)).is_none());
    }

    #[test]
    fn open_ended_crash_never_heals() {
        let mut plan = FaultPlan::new();
        plan.crash(HostId(1), t(10), None);
        assert!(plan.host_down(HostId(1), t(1_000_000)));
    }

    #[test]
    fn partitions_are_symmetric() {
        let mut plan = FaultPlan::new();
        plan.partition(HostId(1), HostId(2), t(0), Some(t(50)));
        assert!(plan.link_partitioned(HostId(1), HostId(2), t(10)));
        assert!(plan.link_partitioned(HostId(2), HostId(1), t(10)));
        assert!(!plan.link_partitioned(HostId(1), HostId(3), t(10)));
        assert_eq!(
            plan.blocks(HostId(2), HostId(1), t(10)),
            Some(FaultKind::Partitioned)
        );
        assert!(plan.blocks(HostId(2), HostId(1), t(60)).is_none());
    }

    #[test]
    fn crash_takes_precedence_over_partition() {
        let mut plan = FaultPlan::new();
        plan.partition(HostId(1), HostId(2), t(0), None);
        plan.crash(HostId(2), t(0), None);
        assert_eq!(
            plan.blocks(HostId(1), HostId(2), t(5)),
            Some(FaultKind::Crashed)
        );
    }

    #[test]
    fn overlapping_spikes_add_up() {
        let mut plan = FaultPlan::new();
        plan.latency_spike(HostId(1), HostId(2), t(0), Some(t(100)), 40.0);
        plan.latency_spike(HostId(2), HostId(1), t(50), Some(t(150)), 10.0);
        assert_eq!(plan.extra_latency_ms(HostId(1), HostId(2), t(10)), 40.0);
        assert_eq!(plan.extra_latency_ms(HostId(1), HostId(2), t(60)), 50.0);
        assert_eq!(plan.extra_latency_ms(HostId(2), HostId(1), t(120)), 10.0);
        assert_eq!(plan.extra_latency_ms(HostId(1), HostId(2), t(150)), 0.0);
        assert!(
            plan.blocks(HostId(1), HostId(2), t(60)).is_none(),
            "spikes slow traffic, they do not block it"
        );
    }

    #[test]
    fn repeated_windows_model_crash_restart_crash() {
        let mut plan = FaultPlan::new();
        plan.crash(HostId(7), t(0), Some(t(10)))
            .crash(HostId(7), t(20), Some(t(30)));
        assert!(plan.host_down(HostId(7), t(5)));
        assert!(!plan.host_down(HostId(7), t(15)), "restarted");
        assert!(plan.host_down(HostId(7), t(25)), "crashed again");
    }
}
