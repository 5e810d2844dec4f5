//! A4 — ablation: the costs of reregistration that direct access avoids.
//!
//! §2 rejects reregistration for four reasons: "problems with name
//! conflicts and consistency of information on the global and local
//! levels, because the reregistration cost is one that continues without
//! end, because the degree of system heterogeneity would be limited by the
//! rate at which the global name service could absorb the
//! reregistrations". This ablation measures staleness windows, recurring
//! absorption cost, and conflicts against the sync period.

use baselines::reregistration::{Reregistrar, SourceService};
use simnet::{SimDuration, World};

use crate::cells::PlainTable;

/// Result of one sync-period setting.
#[derive(Debug, Clone, Copy)]
pub struct ReregPoint {
    /// Sync period, hours.
    pub period_h: f64,
    /// Mean staleness window of a freshly updated name, minutes.
    pub mean_staleness_min: f64,
    /// Global-service absorption cost per day, seconds of service time.
    pub absorb_cost_s_per_day: f64,
    /// Name conflicts discovered.
    pub conflicts: usize,
}

const NAMES_PER_SOURCE: usize = 60;
const SOURCES: usize = 3;
const SHARED_NAMES: usize = 5;
/// Local updates per hour across the whole system.
const UPDATES_PER_HOUR: usize = 12;
const HORIZON_H: u64 = 24;

/// Runs one setting of the sync period.
pub fn run_point(period_h: f64) -> ReregPoint {
    let world = World::paper();
    let mut r = Reregistrar::new();
    let mut source_ids = Vec::new();
    for s in 0..SOURCES {
        let mut src = SourceService::new();
        for n in 0..NAMES_PER_SOURCE {
            src.upsert(format!("src{s}-name{n}"), world.now());
        }
        // Shared names collide across sources — the conflict case the
        // HNS's per-context name space rules out.
        for n in 0..SHARED_NAMES {
            src.upsert(format!("shared-{n}"), world.now());
        }
        source_ids.push(r.add_source(src));
    }

    let mut conflicts = 0usize;
    let mut staleness_ms: Vec<f64> = Vec::new();
    let mut absorb_ms = 0.0;
    let period_ms = period_h * 3600.0 * 1000.0;
    let update_gap_ms = 3600.0 * 1000.0 / UPDATES_PER_HOUR as f64;
    let horizon_ms = HORIZON_H as f64 * 3600.0 * 1000.0;

    let mut next_sync = period_ms;
    let mut next_update = update_gap_ms;
    let mut update_seq = 0usize;
    let mut pending_updates: Vec<f64> = Vec::new(); // update times awaiting sync
    while world.now().as_ms_f64() < horizon_ms {
        let now = world.now().as_ms_f64();
        if next_update < next_sync && next_update <= horizon_ms {
            world.wait(SimDuration::from_ms_f64(next_update - now));
            let src = source_ids[update_seq % SOURCES];
            let name = format!(
                "src{}-name{}",
                update_seq % SOURCES,
                update_seq % NAMES_PER_SOURCE
            );
            r.source_mut(src).upsert(name, world.now());
            pending_updates.push(world.now().as_ms_f64());
            update_seq += 1;
            next_update += update_gap_ms;
        } else if next_sync <= horizon_ms {
            world.wait(SimDuration::from_ms_f64(next_sync - now));
            let sync_start = world.now().as_ms_f64();
            let (report, took, _) = world.measure(|| r.sync(&world));
            conflicts += report.conflicts;
            absorb_ms += took.as_ms_f64();
            for update_at in pending_updates.drain(..) {
                staleness_ms.push(sync_start - update_at);
            }
            next_sync += period_ms;
        } else {
            world.wait(SimDuration::from_ms_f64(horizon_ms - now));
        }
    }

    let mean_staleness_min = if staleness_ms.is_empty() {
        period_h * 30.0 // No update landed; report the analytic mean.
    } else {
        staleness_ms.iter().sum::<f64>() / staleness_ms.len() as f64 / 60_000.0
    };
    ReregPoint {
        period_h,
        mean_staleness_min,
        absorb_cost_s_per_day: absorb_ms / 1000.0,
        conflicts,
    }
}

/// Runs the sweep.
pub fn run() -> PlainTable {
    let mut table = PlainTable::new(
        format!(
            "Ablation A4 — reregistration vs direct access \
             ({SOURCES} sources x {} names, {UPDATES_PER_HOUR} updates/h, 24 h)",
            NAMES_PER_SOURCE + SHARED_NAMES
        ),
        vec![
            "scheme",
            "mean staleness (min)",
            "global absorb cost (s/day)",
            "name conflicts",
        ],
    );
    for period_h in [0.5, 2.0, 8.0, 24.0] {
        let p = run_point(period_h);
        table.push_row(vec![
            format!("reregistration, sync every {period_h} h"),
            format!("{:.0}", p.mean_staleness_min),
            format!("{:.0}", p.absorb_cost_s_per_day),
            p.conflicts.to_string(),
        ]);
    }
    // Direct access: updates land in the local service immediately; global
    // clients see them as soon as any cached copy expires (TTL 600 s), and
    // the per-context name space admits no cross-system conflicts.
    table.push_row(vec![
        "direct access (HNS)".into(),
        format!("{:.0}", 600.0 / 60.0 / 2.0),
        "0".into(),
        "0".into(),
    ]);
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn longer_periods_mean_more_staleness_less_cost() {
        let fast = run_point(0.5);
        let slow = run_point(8.0);
        assert!(slow.mean_staleness_min > fast.mean_staleness_min * 3.0);
        assert!(slow.absorb_cost_s_per_day < fast.absorb_cost_s_per_day);
    }

    #[test]
    fn shared_names_conflict() {
        let p = run_point(2.0);
        assert!(
            p.conflicts > 0,
            "colliding namespaces must surface conflicts"
        );
    }

    #[test]
    fn absorb_cost_never_ends() {
        // Even with zero updates the periodic sync keeps paying.
        let p = run_point(0.5);
        assert!(
            p.absorb_cost_s_per_day > 100.0,
            "cost {}",
            p.absorb_cost_s_per_day
        );
    }
}
