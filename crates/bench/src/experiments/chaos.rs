//! E-C — chaos: graceful degradation under injected faults.
//!
//! Installs a seeded [`FaultPlan`] on the testbed — the meta server and
//! the primary NSM host crash, the client ↔ meta link partitions, the
//! client ↔ public-BIND link takes a latency spike — and walks the same
//! warm / cold / `Import` trio through three phases:
//!
//! 1. **baseline** — faults scheduled but not yet active; every path
//!    succeeds and the warm cache fills.
//! 2. **fault** — virtual time is advanced past the cache TTL and into
//!    the fault windows. The warm `FindNSM` keeps answering from expired
//!    cache entries (serve-stale, paper §4, marked `stale_served`), the
//!    cold `FindNSM` fails fast with a typed `HostUnreachable`, and
//!    `Import` fails over from the crashed primary binding NSM to a
//!    replica on another host.
//! 3. **recovery** — time is advanced past every window; all three paths
//!    succeed again with no stale serves and no failovers, proving
//!    nothing got permanently stuck.
//!
//! Everything runs in virtual time under a seeded plan, so the rendered
//! report and the `hns-chaos-v1` JSON export are byte-identical across
//! runs with the same configuration.

use std::sync::Arc;

use hns_core::cache::CacheMode;
use hns_core::colocation::HnsHandle;
use hns_core::error::HnsError;
use hns_core::name::HnsName;
use hns_core::obs::json::string;
use hns_core::obs::MetricsSnapshot;
use hns_core::query::QueryClass;
use hns_core::service::Hns;
use hrpc::RpcError;
use nsms::harness::{Testbed, DESIRED_SERVICE, DESIRED_SERVICE_PROGRAM};
use nsms::nsm_cache::NsmCacheForm;
use nsms::Importer;
use simnet::faults::FaultPlan;
use simnet::rng::DetRng;
use simnet::time::{SimDuration, SimTime};
use simnet::World;

use crate::cells::PlainTable;

/// Which faults the chaos scenario injects (the `experiments chaos`
/// flags).
#[derive(Debug, Clone, Copy)]
pub struct ChaosConfig {
    /// Crash the meta server and the primary NSM host.
    pub crash: bool,
    /// Partition the client ↔ meta link.
    pub partition: bool,
    /// Add a latency spike to the client ↔ public-BIND link.
    pub latency_spike: bool,
    /// Seed for the window-jitter RNG.
    pub seed: u64,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            crash: true,
            partition: true,
            latency_spike: true,
            seed: 42,
        }
    }
}

/// One operation observed during a scenario: a row of the event table
/// and of the export's `events` (here and in [`super::register`]).
#[derive(Debug, Clone)]
pub struct Event {
    /// Which phase the operation ran in.
    pub phase: &'static str,
    /// Which operation ran (or the name it ran on).
    pub label: String,
    /// What happened (`ok`, `ok (stale)`, `ok (failover)`, an error, ...).
    pub outcome: String,
    /// Virtual time the operation took.
    pub took_us: u64,
}

impl Event {
    /// An operation that started at `t0` and has just finished.
    pub(super) fn finished(
        world: &World,
        t0: SimTime,
        phase: &'static str,
        label: &str,
        outcome: String,
    ) -> Event {
        Event {
            phase,
            label: label.to_string(),
            outcome,
            took_us: world.now().since(t0).as_us(),
        }
    }
}

/// The phase / operation / outcome / took table of a scenario report.
pub(super) fn events_table(title: String, events: &[Event]) -> String {
    let mut table = PlainTable::new(title, vec!["phase", "operation", "outcome", "took (ms)"]);
    for e in events {
        table.push_row(vec![
            e.phase.to_string(),
            e.label.clone(),
            e.outcome.clone(),
            format!("{:.3}", e.took_us as f64 / 1000.0),
        ]);
    }
    table.render()
}

/// The `events` array of a scenario's JSON export.
pub(super) fn events_json(events: &[Event]) -> String {
    let rows: Vec<String> = events
        .iter()
        .map(|e| {
            format!(
                "{{\"phase\": {}, \"label\": {}, \"outcome\": {}, \"took_us\": {}}}",
                string(e.phase),
                string(&e.label),
                string(&e.outcome),
                e.took_us
            )
        })
        .collect();
    format!("[{}]", rows.join(", "))
}

/// Aggregate outcomes the acceptance assertions read.
#[derive(Debug, Clone, Copy)]
pub struct ChaosOutcomes {
    /// Queries answered from expired cache entries (`faults/stale_served`).
    pub stale_served: u64,
    /// Calls that gave up with `HostUnreachable` (`faults/unreachable_calls`).
    pub host_unreachable: u64,
    /// Imports served by the alternate NSM (`faults/nsm_failovers`).
    pub nsm_failovers: u64,
    /// Every recovery-phase operation succeeded without stale serves.
    pub recovered: bool,
}

/// The full chaos run.
#[derive(Debug, Clone)]
pub struct ChaosRun {
    /// The fault selection it ran with.
    pub config: ChaosConfig,
    /// Per-operation observations, in execution order.
    pub events: Vec<Event>,
    /// Aggregate outcomes.
    pub outcomes: ChaosOutcomes,
    /// The unified metrics snapshot taken after recovery.
    pub snapshot: MetricsSnapshot,
}

/// The latency added to the client ↔ public-BIND link, in milliseconds.
pub const SPIKE_MS: f64 = 250.0;
/// Length of every fault window, in virtual seconds.
pub const WINDOW_SECS: u64 = 120;

/// What both fault scenarios (this one and [`super::timeline`]) probe:
/// binding NSMs with a replica on another host, a warm and a cold HNS
/// linked at the client, and an importer that fails over to the replica.
pub(super) struct Scenario {
    pub tb: Testbed,
    warm: Arc<Hns>,
    cold: Arc<Hns>,
    importer: Importer,
    name: HnsName,
    qc: QueryClass,
}

impl Scenario {
    pub fn build() -> Scenario {
        let tb = Testbed::build();
        tb.deploy_binding_nsms(tb.hosts.nsm, NsmCacheForm::Demarshalled);
        let replica = tb.deploy_binding_bind_replica(tb.hosts.agent, NsmCacheForm::Demarshalled);
        let warm = tb.make_hns(tb.hosts.client, CacheMode::Demarshalled);
        let cold = tb.make_hns(tb.hosts.client, CacheMode::Disabled);
        let mut importer = Importer::new(
            Arc::clone(&tb.net),
            tb.hosts.client,
            HnsHandle::Linked(Arc::clone(&warm)),
        );
        importer.set_alternate_nsm(Some(replica));
        let name = HnsName::new(tb.ctx_bind(), "fiji.cs.washington.edu").expect("name");
        Scenario {
            tb,
            warm,
            cold,
            importer,
            name,
            qc: QueryClass::hrpc_binding(),
        }
    }

    /// `faults/nsm_failovers`, read through a snapshot: asking the
    /// registry for the counter would *register* it, and `faults/*` rows
    /// must only appear once a fault actually fires.
    fn failovers(&self) -> u64 {
        let snapshot = self.tb.world.metrics().snapshot();
        snapshot.counter("faults", "nsm_failovers").unwrap_or(0)
    }

    /// One probe round — warm `FindNSM`, cold `FindNSM`, `Import` — each
    /// reported to `observe` with its label, its start and `ok`,
    /// `ok (stale)`, `ok (failover)` or the error.
    pub fn probe(&self, mut observe: impl FnMut(&'static str, SimTime, Result<&str, HnsError>)) {
        let world = &self.tb.world;
        let t0 = world.now();
        let warm = self.warm.find_nsm_report(&self.qc, &self.name);
        let warm = warm.map(|(_, report)| {
            if report.stale_served {
                "ok (stale)"
            } else {
                "ok"
            }
        });
        observe("warm FindNSM", t0, warm);
        let t0 = world.now();
        let cold = self.cold.find_nsm(&self.qc, &self.name);
        observe("cold FindNSM", t0, cold.map(|_| "ok"));
        let (t0, before) = (world.now(), self.failovers());
        let import = self
            .importer
            .import(DESIRED_SERVICE, DESIRED_SERVICE_PROGRAM, &self.name);
        let failed_over = self.failovers() > before;
        let tag = if failed_over { "ok (failover)" } else { "ok" };
        observe("Import", t0, import.map(|_| tag));
    }

    /// Installs the fault windows `config` selects, each opening at now
    /// plus a little seeded jitter so different seeds exercise different
    /// window alignments (all still in virtual time — fully
    /// deterministic). Returns the instant the last window heals.
    pub fn install_faults(&self, config: &ChaosConfig) -> SimTime {
        let hosts = &self.tb.hosts;
        let mut rng = DetRng::new(config.seed);
        let base = self.tb.world.now();
        let mut plan = FaultPlan::new();
        let mut last_heal = base;
        let mut open = || {
            let from = base + SimDuration::from_ms(rng.next_below(5_000));
            let until = from + SimDuration::from_ms(WINDOW_SECS * 1000);
            last_heal = last_heal.max(until);
            (from, Some(until))
        };
        if config.crash {
            let (from, until) = open();
            plan.crash(hosts.meta, from, until);
            let (from, until) = open();
            plan.crash(hosts.nsm, from, until);
        }
        if config.partition {
            let (from, until) = open();
            plan.partition(hosts.client, hosts.meta, from, until);
        }
        if config.latency_spike {
            let (from, until) = open();
            plan.latency_spike(hosts.client, hosts.bind, from, until, SPIKE_MS);
        }
        self.tb.world.set_faults(Some(plan));
        last_heal
    }
}

/// Runs the chaos scenario.
pub fn run(config: &ChaosConfig) -> ChaosRun {
    let scenario = Scenario::build();
    let world = &scenario.tb.world;
    let mut events = Vec::new();
    let mut round = |phase| {
        scenario.probe(|label, t0, result| {
            let outcome = match result {
                Ok(tag) => tag.to_string(),
                Err(HnsError::Rpc(RpcError::HostUnreachable { host, attempts })) => {
                    format!("HostUnreachable({host}, {attempts} attempts)")
                }
                Err(other) => format!("error: {other}"),
            };
            events.push(Event::finished(world, t0, phase, label, outcome));
        })
    };

    // Faults not yet scheduled: every path succeeds, the warm cache fills.
    round("baseline");

    // Let every cache entry expire, open the fault windows, and step into
    // them: past the largest possible jitter plus a margin, but well
    // inside the 120 s windows.
    world.wait(SimDuration::from_ms(
        u64::from(hns_core::META_TTL) * 1000 + 1_000,
    ));
    let last_heal = scenario.install_faults(config);
    world.wait(SimDuration::from_ms(6_000));
    round("fault");

    // Heal: advance past every window (the plan stays installed — closed
    // windows must be inert on their own).
    world.wait(last_heal.since(world.now()) + SimDuration::from_ms(1_000));
    round("recovery");

    let snapshot = world.metrics().snapshot();
    let recovered = events
        .iter()
        .filter(|e| e.phase == "recovery")
        .all(|e| e.outcome == "ok");
    ChaosRun {
        config: *config,
        events,
        outcomes: ChaosOutcomes {
            stale_served: snapshot.counter("faults", "stale_served").unwrap_or(0),
            host_unreachable: snapshot.counter("faults", "unreachable_calls").unwrap_or(0),
            nsm_failovers: snapshot.counter("faults", "nsm_failovers").unwrap_or(0),
            recovered,
        },
        snapshot,
    }
}

impl ChaosRun {
    /// Human-readable report: the event table, the outcome summary, and
    /// the metrics snapshot.
    pub fn render(&self) -> String {
        let c = &self.config;
        let title = format!(
            "E-C — chaos: crash={} partition={} latency-spike={} seed={}",
            c.crash, c.partition, c.latency_spike, c.seed
        );
        let mut out = events_table(title, &self.events);
        out.push_str(&format!(
            "\nstale served: {}  unreachable calls: {}  NSM failovers: {}  recovered: {}\n\n",
            self.outcomes.stale_served,
            self.outcomes.host_unreachable,
            self.outcomes.nsm_failovers,
            self.outcomes.recovered
        ));
        out.push_str(&self.snapshot.render());
        out
    }

    /// The `hns-chaos-v1` JSON document for this run.
    pub fn to_json(&self) -> String {
        let (c, o) = (&self.config, &self.outcomes);
        format!(
            "{{\"schema\": \"hns-chaos-v1\", \"config\": {{\"crash\": {}, \
             \"partition\": {}, \"latency_spike\": {}, \"seed\": {}}}, \"events\": {}, \
             \"outcomes\": {{\"stale_served\": {}, \"host_unreachable\": {}, \
             \"nsm_failovers\": {}, \"recovered\": {}}}, \"metrics\": {}}}",
            c.crash,
            c.partition,
            c.latency_spike,
            c.seed,
            events_json(&self.events),
            o.stale_served,
            o.host_unreachable,
            o.nsm_failovers,
            o.recovered,
            self.snapshot.to_json()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_run_degrades_gracefully_and_recovers() {
        let run = run(&ChaosConfig::default());
        let by = |phase: &str, label: &str| {
            run.events
                .iter()
                .find(|e| e.phase == phase && e.label == label)
                .unwrap_or_else(|| panic!("missing event {phase}/{label}"))
                .outcome
                .clone()
        };
        for label in ["warm FindNSM", "cold FindNSM", "Import"] {
            assert_eq!(by("baseline", label), "ok", "{label}");
            assert_eq!(by("recovery", label), "ok", "{label}");
        }
        assert_eq!(by("fault", "warm FindNSM"), "ok (stale)");
        assert!(
            by("fault", "cold FindNSM").starts_with("HostUnreachable"),
            "{}",
            by("fault", "cold FindNSM")
        );
        assert_eq!(by("fault", "Import"), "ok (failover)");
        assert!(run.outcomes.stale_served > 0);
        assert!(run.outcomes.host_unreachable > 0);
        assert_eq!(run.outcomes.nsm_failovers, 1);
        assert!(run.outcomes.recovered);
    }

    #[test]
    fn same_seed_runs_are_byte_identical() {
        let config = ChaosConfig::default();
        let a = run(&config);
        let b = run(&config);
        assert_eq!(a.to_json(), b.to_json());
        assert_eq!(a.render(), b.render());
    }

    #[test]
    fn partition_alone_still_blocks_the_cold_path() {
        let run = run(&ChaosConfig {
            crash: false,
            latency_spike: false,
            ..ChaosConfig::default()
        });
        let fault_cold = run
            .events
            .iter()
            .find(|e| e.phase == "fault" && e.label == "cold FindNSM")
            .expect("event");
        assert!(
            fault_cold.outcome.starts_with("HostUnreachable"),
            "{}",
            fault_cold.outcome
        );
        // The primary NSM host is up, so Import needs no failover.
        assert_eq!(run.outcomes.nsm_failovers, 0);
        assert!(run.outcomes.recovered);
    }
}
