//! The reregistration *process* and why the paper rejects it.
//!
//! §2 gives four reasons reregistration is "inappropriate": name conflicts,
//! consistency between global and local levels, a never-ending cost, and a
//! scalability ceiling set by "the rate at which the global name service
//! could absorb the reregistrations". This module models the process so
//! ablation A4 can measure all four.

use std::collections::HashMap;

use simnet::costs::Term;
use simnet::time::SimTime;
use simnet::world::World;

/// One local name service feeding the reregistrar.
#[derive(Debug, Default)]
pub struct SourceService {
    /// Local names and the virtual time of their last modification.
    entries: HashMap<String, SimTime>,
}

impl SourceService {
    /// Creates an empty source.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates or touches a name at virtual time `now`.
    pub fn upsert(&mut self, name: impl Into<String>, now: SimTime) {
        self.entries.insert(name.into(), now);
    }

    /// Number of names.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// An entry in the global (reregistered) store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GlobalEntry {
    /// Which source the copy came from.
    pub source: usize,
    /// Modification time of the copy (at its source).
    pub copied_mtime: SimTime,
}

/// Outcome of one synchronization pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SyncReport {
    /// Names copied or refreshed.
    pub copied: usize,
    /// Names that collided with a different source's name.
    pub conflicts: usize,
}

/// The reregistrar: periodically copies every source's names into one
/// global namespace.
#[derive(Debug, Default)]
pub struct Reregistrar {
    sources: Vec<SourceService>,
    global: HashMap<String, GlobalEntry>,
    conflict_log: Vec<String>,
}

impl Reregistrar {
    /// Creates a reregistrar with no sources.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a source service; returns its index.
    pub fn add_source(&mut self, source: SourceService) -> usize {
        self.sources.push(source);
        self.sources.len() - 1
    }

    /// Mutable access to a source (local applications keep writing to
    /// their own name services between syncs).
    pub fn source_mut(&mut self, idx: usize) -> &mut SourceService {
        &mut self.sources[idx]
    }

    /// Runs one full synchronization, charging the per-name absorption
    /// cost on the global service.
    ///
    /// Conflicting names (same global name from different sources) are the
    /// collisions the HNS's context scheme makes impossible; the first
    /// source wins and the conflict is logged.
    pub fn sync(&mut self, world: &World) -> SyncReport {
        let mut report = SyncReport::default();
        for (idx, source) in self.sources.iter().enumerate() {
            for (name, &mtime) in &source.entries {
                world.charge(Term::ReregPerName);
                match self.global.get(name) {
                    Some(entry) if entry.source != idx => {
                        report.conflicts += 1;
                        self.conflict_log.push(name.clone());
                    }
                    Some(entry) if entry.copied_mtime >= mtime => {}
                    _ => {
                        self.global.insert(
                            name.clone(),
                            GlobalEntry {
                                source: idx,
                                copied_mtime: mtime,
                            },
                        );
                        report.copied += 1;
                    }
                }
            }
        }
        report
    }

    /// Looks a name up in the global store.
    pub fn lookup(&self, name: &str) -> Option<&GlobalEntry> {
        self.global.get(name)
    }

    /// Names whose global copy lags their source (the staleness window).
    pub fn stale_names(&self) -> Vec<String> {
        let mut stale = Vec::new();
        for (idx, source) in self.sources.iter().enumerate() {
            for (name, &mtime) in &source.entries {
                match self.global.get(name) {
                    Some(entry) if entry.source == idx && entry.copied_mtime >= mtime => {}
                    _ => stale.push(name.clone()),
                }
            }
        }
        stale.sort();
        stale
    }

    /// All conflicts observed so far.
    pub fn conflicts(&self) -> &[String] {
        &self.conflict_log
    }

    /// Total names across all sources.
    pub fn total_source_names(&self) -> usize {
        self.sources.iter().map(SourceService::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::time::{SimDuration, SimTime};

    #[test]
    fn sync_copies_and_charges_per_name() {
        let world = simnet::World::paper();
        let mut r = Reregistrar::new();
        let mut src = SourceService::new();
        for i in 0..10 {
            src.upsert(format!("host{i}"), SimTime::ZERO);
        }
        r.add_source(src);
        let (report, took, _) = world.measure(|| r.sync(&world));
        assert_eq!(report.copied, 10);
        assert_eq!(report.conflicts, 0);
        // 10 names at rereg_per_name (45 ms) each.
        assert!((took.as_ms_f64() - 450.0).abs() < 1.0, "took {took}");
    }

    #[test]
    fn resync_of_unchanged_names_copies_nothing_but_still_costs() {
        let world = simnet::World::paper();
        let mut r = Reregistrar::new();
        let mut src = SourceService::new();
        src.upsert("a", SimTime::ZERO);
        r.add_source(src);
        r.sync(&world);
        let (report, took, _) = world.measure(|| r.sync(&world));
        assert_eq!(report.copied, 0);
        // "the reregistration cost is one that continues without end".
        assert!(took.as_ms_f64() > 0.0);
    }

    #[test]
    fn cross_source_name_conflicts_are_detected() {
        // Two previously separate systems both have a host named "mail".
        let world = simnet::World::paper();
        let mut r = Reregistrar::new();
        let mut a = SourceService::new();
        a.upsert("mail", SimTime::ZERO);
        let mut b = SourceService::new();
        b.upsert("mail", SimTime::ZERO);
        r.add_source(a);
        r.add_source(b);
        let report = r.sync(&world);
        assert_eq!(report.conflicts, 1);
        assert_eq!(r.conflicts(), &["mail".to_string()]);
        assert_eq!(
            r.lookup("mail").expect("entry").source,
            0,
            "first source wins"
        );
    }

    #[test]
    fn updates_between_syncs_are_stale_until_next_sync() {
        let world = simnet::World::paper();
        let mut r = Reregistrar::new();
        let mut src = SourceService::new();
        src.upsert("svc", SimTime::ZERO);
        let idx = r.add_source(src);
        r.sync(&world);
        assert!(r.stale_names().is_empty());
        // A local application moves the service.
        world.wait(SimDuration::from_ms(60_000));
        r.source_mut(idx).upsert("svc", world.now());
        assert_eq!(r.stale_names(), vec!["svc".to_string()]);
        r.sync(&world);
        assert!(r.stale_names().is_empty());
    }

    #[test]
    fn source_accessors() {
        let mut src = SourceService::new();
        assert!(src.is_empty());
        src.upsert("x", SimTime::ZERO);
        assert_eq!(src.len(), 1);
        let mut r = Reregistrar::new();
        r.add_source(src);
        assert_eq!(r.total_source_names(), 1);
    }
}
