//! Deployment scenarios: the Table 3.1 colocation matrix and the
//! cell-sharded world generator for the scale-out experiment (E-S).

use std::sync::Arc;

use bindns::name::DomainName;
use bindns::rr::{RData, RType};
use bindns::server::{deploy as deploy_bind, single_zone_server, BindDeployment};
use bindns::zone::{RrBody, Zone};
use simnet::rng::DetRng;
use simnet::world::World;
use simnet::HostId;

use crate::cells::{CellPlan, PAYLOAD_POOL};

use hns_core::cache::CacheMode;
use hns_core::colocation::{
    AgentClient, AgentService, HnsHandle, HnsService, AGENT_PROGRAM, HNS_PROGRAM,
};
use hns_core::name::HnsName;
use hns_core::service::Hns;
use hrpc::{ComponentSet, HrpcBinding};
use nsms::harness::{Testbed, DESIRED_SERVICE, DESIRED_SERVICE_PROGRAM};
use nsms::nsm_cache::NsmCacheForm;
use nsms::{DeployedBindingNsms, Importer};
use simnet::topology::NetAddr;
use wire::Value;

/// The five colocation arrangements of Table 3.1. `[x, y]` means
/// colocated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arrangement {
    /// 1. `[Client, HNS, NSMs]`
    AllLinked,
    /// 2. `[Client] [HNS, NSMs]` — the agent structure.
    Agent,
    /// 3. `[HNS] [Client, NSMs]`
    RemoteHns,
    /// 4. `[NSMs] [Client, HNS]`
    RemoteNsms,
    /// 5. `[Client] [HNS] [NSMs]`
    AllRemote,
}

impl Arrangement {
    /// All five, in table order.
    pub fn all() -> [Arrangement; 5] {
        [
            Arrangement::AllLinked,
            Arrangement::Agent,
            Arrangement::RemoteHns,
            Arrangement::RemoteNsms,
            Arrangement::AllRemote,
        ]
    }

    /// The paper's row label.
    pub fn label(&self) -> &'static str {
        match self {
            Arrangement::AllLinked => "1. [Client, HNS, NSMs]",
            Arrangement::Agent => "2. [Client] [HNS, NSMs]",
            Arrangement::RemoteHns => "3. [HNS] [Client, NSMs]",
            Arrangement::RemoteNsms => "4. [NSMs] [Client, HNS]",
            Arrangement::AllRemote => "5. [Client] [HNS] [NSMs]",
        }
    }
}

/// The cache states of Table 3.1's columns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheState {
    /// Column A: both caches miss.
    Miss,
    /// Column B: HNS cache hits, NSM cache misses.
    HnsHit,
    /// Column C: both caches hit.
    BothHit,
}

/// A deployed arrangement, ready to run imports.
pub struct DeployedArrangement {
    /// The environment.
    pub testbed: Testbed,
    /// The HNS instance (wherever it is linked).
    pub hns: Arc<Hns>,
    /// The deployed binding NSMs.
    pub nsms: DeployedBindingNsms,
    runner: Runner,
}

enum Runner {
    Importer(Importer),
    Agent(AgentClient),
}

/// Builds the testbed and deploys one arrangement with the given NSM/HNS
/// cache form.
pub fn deploy(
    arrangement: Arrangement,
    form: NsmCacheForm,
    mode: CacheMode,
) -> DeployedArrangement {
    let tb = Testbed::build();
    let client = tb.hosts.client;
    let (hns_host, nsm_host) = match arrangement {
        Arrangement::AllLinked => (client, client),
        Arrangement::Agent => (tb.hosts.agent, tb.hosts.agent),
        Arrangement::RemoteHns => (tb.hosts.hns, client),
        Arrangement::RemoteNsms => (client, tb.hosts.nsm),
        Arrangement::AllRemote => (tb.hosts.hns, tb.hosts.nsm),
    };
    let nsms = tb.deploy_binding_nsms(nsm_host, form);
    let hns = tb.make_hns(hns_host, mode);

    let runner = match arrangement {
        Arrangement::AllLinked | Arrangement::RemoteNsms => Runner::Importer(Importer::new(
            Arc::clone(&tb.net),
            client,
            HnsHandle::Linked(Arc::clone(&hns)),
        )),
        Arrangement::RemoteHns | Arrangement::AllRemote => {
            let port = tb
                .net
                .export(hns_host, HNS_PROGRAM, HnsService::new(Arc::clone(&hns)));
            let binding = HrpcBinding {
                host: hns_host,
                addr: NetAddr::of(hns_host),
                program: HNS_PROGRAM,
                port,
                components: ComponentSet::raw_tcp(port),
            };
            Runner::Importer(Importer::new(
                Arc::clone(&tb.net),
                client,
                HnsHandle::Remote(binding),
            ))
        }
        Arrangement::Agent => {
            let port = tb.net.export(
                tb.hosts.agent,
                AGENT_PROGRAM,
                AgentService::new(Arc::clone(&hns), tb.hosts.agent),
            );
            let binding = HrpcBinding {
                host: tb.hosts.agent,
                addr: NetAddr::of(tb.hosts.agent),
                program: AGENT_PROGRAM,
                port,
                components: ComponentSet::raw_tcp(port),
            };
            Runner::Agent(AgentClient::new(Arc::clone(&tb.net), client, binding))
        }
    };
    DeployedArrangement {
        testbed: tb,
        hns,
        nsms,
        runner,
    }
}

impl DeployedArrangement {
    /// The HNS name of the target Sun service's host.
    pub fn target_name(&self) -> HnsName {
        HnsName::new(self.testbed.ctx_bind(), "fiji.cs.washington.edu").expect("name")
    }

    /// Performs one import end to end; returns nothing (timing is read
    /// from the world by the caller).
    pub fn run_import(&self) -> Result<(), String> {
        let name = self.target_name();
        match &self.runner {
            Runner::Importer(importer) => importer
                .import(DESIRED_SERVICE, DESIRED_SERVICE_PROGRAM, &name)
                .map(|_| ())
                .map_err(|e| e.to_string()),
            Runner::Agent(agent) => agent
                .query(
                    &hns_core::QueryClass::hrpc_binding(),
                    &name,
                    vec![
                        ("service", Value::str(DESIRED_SERVICE)),
                        ("program", Value::U32(DESIRED_SERVICE_PROGRAM.0)),
                    ],
                )
                .map(|_| ())
                .map_err(|e| e.to_string()),
        }
    }

    /// Forces the given cache state, then measures one import in virtual
    /// milliseconds.
    pub fn measure(&self, state: CacheState) -> f64 {
        match state {
            CacheState::Miss => {
                self.hns.clear_cache();
                self.nsms.bind.clear_cache();
            }
            CacheState::HnsHit => {
                self.run_import().expect("warming import");
                self.nsms.bind.clear_cache();
            }
            CacheState::BothHit => {
                self.run_import().expect("warming import");
                self.run_import().expect("warming import");
            }
        }
        let (result, took, _) = self.testbed.world.measure(|| self.run_import());
        result.expect("measured import");
        took.as_ms_f64()
    }
}

/// A cell-sharded world: a root meta server whose `hns` zone delegates
/// `cell{c}.hns` to per-cell meta servers, each holding that cell's
/// context directories, NSM-binding mappings, and registered-name
/// records. This is the paper's federation story at scale — thousands
/// of contexts spread over a zone-delegation tree instead of one flat
/// meta zone.
pub struct CellWorld {
    /// The simulated world.
    pub world: Arc<World>,
    /// Its RPC fabric.
    pub net: Arc<hrpc::net::RpcNet>,
    /// The querying client's host.
    pub client: HostId,
    /// The root meta server (zone `hns`, NS cuts + glue only).
    pub root: BindDeployment,
    /// Per-cell meta servers, in cell order.
    pub cells: Vec<BindDeployment>,
    /// The sizing plan the world was built from.
    pub plan: CellPlan,
    /// Total resource records across the root and every cell zone.
    pub records: usize,
}

/// Origin of cell `cell`'s delegated zone.
pub fn cell_origin(cell: usize) -> DomainName {
    DomainName::parse(&format!("cell{cell}.hns")).expect("cell origin")
}

/// The `index`-th registered name in cell `cell`.
pub fn cell_name(cell: usize, index: usize) -> DomainName {
    DomainName::parse(&format!("n{index}.cell{cell}.hns")).expect("cell name")
}

/// One of the `PAYLOAD_POOL` near-identical NSM binding blobs names in
/// `cell` point at. A compact record store keeps each blob once per
/// cell; a naive per-name copy keeps it once per name.
fn binding_payload(cell: usize, slot: usize) -> Arc<[u8]> {
    format!(
        "nsm=nsm-cell{cell}-{slot};host=ns.cell{cell}.hns;context=cell{cell};\
         program=30000{slot};port=102{slot};suite=sun;version=1;owner=admin-cell{cell}"
    )
    .into_bytes()
    .into()
}

/// An owner label `{prefix}{index}` — `n17`, `ctx3`, `ns.cell5` —
/// written on the stack as `format!` would write it: the digits from the
/// last one back, then the prefix before them, so the label ends the
/// buffer.
struct Label {
    text: [u8; Label::MAX],
    start: u8,
}

impl Label {
    /// Bytes a label holds: a prefix of up to twelve, and any `usize`.
    const MAX: usize = 32;

    fn new(prefix: &str, index: usize) -> Label {
        let (mut text, mut start, mut rest) = ([0; Label::MAX], Label::MAX, index);
        loop {
            start -= 1;
            text[start] = b'0' + (rest % 10) as u8;
            rest /= 10;
            if rest == 0 {
                break;
            }
        }
        start -= prefix.len();
        text[start..start + prefix.len()].copy_from_slice(prefix.as_bytes());
        Label {
            text,
            start: start as u8,
        }
    }
}

impl AsRef<str> for Label {
    fn as_ref(&self) -> &str {
        std::str::from_utf8(&self.text[usize::from(self.start)..])
            .expect("an ASCII prefix and digits")
    }
}

/// Cell `cell`'s records, made as they are loaded: per context
/// directory `k` its `ctx{k}` and `map{k}` records, then the names
/// `n0`, `n1`, …, each mapping and name a binding drawn from the cell's
/// pool by `rng`. Each blob is built once and shared; each record is
/// its owner's label, written on the stack, and its body, as
/// [`Zone::load`] takes them. The count is exact, so the zone is sized
/// once.
fn cell_records<'a>(
    plan: &CellPlan,
    cell: usize,
    rng: &'a mut DetRng,
    ttl: u32,
) -> impl ExactSizeIterator<Item = (Label, RrBody)> + 'a {
    let pool: Vec<Arc<[u8]>> = (0..PAYLOAD_POOL)
        .map(|slot| binding_payload(cell, slot))
        .collect();
    let context: Arc<[u8]> = format!("ns=NS-cell{cell};map=identity").into_bytes().into();
    let mut draw = move || Arc::clone(&pool[rng.next_below(PAYLOAD_POOL as u64) as usize]);
    let directories = 2 * plan.contexts_in_cell(cell);
    (0..directories + plan.names_in_cell(cell)).map(move |i| {
        let (prefix, index, data) = match i.checked_sub(directories) {
            None if i % 2 == 0 => ("ctx", i / 2, Arc::clone(&context)),
            None => ("map", i / 2, draw()),
            Some(index) => ("n", index, draw()),
        };
        let body = RrBody {
            rtype: RType::Unspec,
            ttl,
            rdata: RData::Opaque(data),
        };
        (Label::new(prefix, index), body)
    })
}

/// Builds and deploys a cell-sharded world for `plan`, assigning each
/// name's binding payload with a rng seeded from `seed` (so worlds are
/// byte-identical per seed). Every zone is stood up by one
/// [`Zone::load`].
pub fn build_cell_world(plan: &CellPlan, seed: u64) -> CellWorld {
    let world = World::paper();
    let client = world.add_host("client");
    let root_host = world.add_host("root.hns");
    let net = hrpc::net::RpcNet::new(Arc::clone(&world));
    let mut rng = DetRng::new(seed);
    let ttl = 600;

    // The root's delegation and glue for each cell, in cell order.
    let mut delegations = Vec::with_capacity(2 * plan.cells);
    let mut cells = Vec::with_capacity(plan.cells);
    let mut records = 0usize;
    for c in 0..plan.cells {
        let host = world.add_host(format!("ns.cell{c}.hns"));
        let origin = cell_origin(c);
        let ns_name = origin.child("ns").expect("ns name");
        let cut = RrBody {
            rtype: RType::Ns,
            ttl,
            rdata: RData::Domain(ns_name),
        };
        let glue = RrBody {
            rtype: RType::A,
            ttl,
            rdata: RData::Addr(NetAddr::of(host)),
        };
        delegations.push((Label::new("cell", c), cut));
        delegations.push((Label::new("ns.cell", c), glue));
        let cell_records = cell_records(plan, c, &mut rng, ttl);
        records += cell_records.len();
        let zone = Zone::load(origin, ttl, cell_records).expect("cell zone");
        cells.push(deploy_bind(
            &net,
            host,
            single_zone_server(format!("meta-cell{c}"), zone, true),
        ));
    }
    records += delegations.len();
    let hns = DomainName::parse("hns").expect("origin");
    let root_zone = Zone::load(hns, ttl, delegations).expect("root zone");
    let root = deploy_bind(
        &net,
        root_host,
        single_zone_server("root", root_zone, false),
    );
    CellWorld {
        world,
        net,
        client,
        root,
        cells,
        plan: *plan,
        records,
    }
}

impl CellWorld {
    /// Bytes actually resident across every zone's compact store
    /// (shared record bodies counted once).
    pub fn resident_bytes(&self) -> usize {
        self.deployments()
            .map(|d| {
                d.server
                    .with_db(|db| Self::db_bytes(db, Zone::resident_bytes))
            })
            .sum()
    }

    /// Bytes the same zones would hold under naive per-record copies —
    /// the `String`-keyed baseline the compact store is measured against.
    pub fn naive_bytes(&self) -> usize {
        self.deployments()
            .map(|d| d.server.with_db(|db| Self::db_bytes(db, Zone::size_bytes)))
            .sum()
    }

    fn deployments(&self) -> impl Iterator<Item = &BindDeployment> {
        std::iter::once(&self.root).chain(self.cells.iter())
    }

    fn db_bytes(db: &mut bindns::ZoneDb, f: impl Fn(&Zone) -> usize) -> usize {
        db.origins().iter().filter_map(|o| db.zone(o)).map(f).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The labels written on the stack are the ones `format!` writes,
    /// at every change in the count of digits.
    #[test]
    fn a_label_is_its_prefix_and_index_as_format_writes_them() {
        for index in [0, 9, 10, 99, 100, 4095, 4096, 999_999, usize::MAX] {
            for prefix in ["n", "ctx", "map", "cell", "ns.cell"] {
                let label = Label::new(prefix, index);
                assert_eq!(label.as_ref(), format!("{prefix}{index}"));
            }
        }
    }

    #[test]
    fn cell_world_delegates_and_dedups_record_bodies() {
        let plan = CellPlan::for_names(2048);
        let cw = build_cell_world(&plan, 7);
        assert_eq!(cw.plan.cells, 1);
        // Names resolve through the root's referral to the cell server.
        let resolver = bindns::recursive::RecursiveResolver::new(
            Arc::clone(&cw.net),
            cw.client,
            cw.root.std_binding,
        );
        let records = resolver
            .resolve(&cell_name(0, 5), RType::Unspec)
            .expect("resolve via delegation");
        assert_eq!(records.len(), 1);
        // The compact store keeps the shared payload pool once; the
        // naive accounting pays for it once per name.
        assert!(
            cw.resident_bytes() < cw.naive_bytes(),
            "resident {} vs naive {}",
            cw.resident_bytes(),
            cw.naive_bytes()
        );
    }

    /// The resolver keeps each cell's delegation: N first-time names cost
    /// one referral per cell and one answer each, not two calls apiece.
    #[test]
    fn distinct_names_cost_one_call_each_plus_one_referral_per_cell() {
        let plan = CellPlan::for_names(10_000);
        let cw = build_cell_world(&plan, 7);
        let resolver = bindns::recursive::RecursiveResolver::new(
            Arc::clone(&cw.net),
            cw.client,
            cw.root.std_binding,
        );
        let queries = 500;
        let (_, _, delta) = cw.world.measure(|| {
            for q in 0..queries {
                let (cell, index) = plan.locate(q * (plan.names / queries));
                resolver
                    .resolve(&cell_name(cell, index), RType::Unspec)
                    .expect("resolves");
            }
        });
        assert!(plan.cells > 1, "{plan:?}");
        assert_eq!(delta.remote_calls, (queries + plan.cells) as u64);
        assert_eq!(resolver.cache_stats().misses, queries as u64);
    }

    #[test]
    fn cell_worlds_are_deterministic_per_seed() {
        let plan = CellPlan::for_names(1000);
        let a = build_cell_world(&plan, 42);
        let b = build_cell_world(&plan, 42);
        assert_eq!(a.records, b.records);
        assert_eq!(a.resident_bytes(), b.resident_bytes());
        assert_eq!(a.naive_bytes(), b.naive_bytes());
    }

    #[test]
    fn every_arrangement_imports_successfully() {
        for arrangement in Arrangement::all() {
            let deployed = deploy(arrangement, NsmCacheForm::Marshalled, CacheMode::Marshalled);
            deployed.run_import().unwrap_or_else(|e| {
                panic!("{}: {e}", arrangement.label());
            });
        }
    }

    #[test]
    fn arrangements_order_by_remote_hops_on_miss() {
        let ms: Vec<f64> = Arrangement::all()
            .into_iter()
            .map(|a| {
                deploy(a, NsmCacheForm::Marshalled, CacheMode::Marshalled).measure(CacheState::Miss)
            })
            .collect();
        // Row 1 (no hops) is cheapest; row 5 (two hops) is dearest.
        assert!(ms[0] < ms[1] && ms[0] < ms[2] && ms[0] < ms[3], "{ms:?}");
        assert!(ms[4] > ms[1] && ms[4] > ms[2] && ms[4] > ms[3], "{ms:?}");
    }

    #[test]
    fn cache_states_order_within_a_row() {
        let deployed = deploy(
            Arrangement::AllLinked,
            NsmCacheForm::Marshalled,
            CacheMode::Marshalled,
        );
        let a = deployed.measure(CacheState::Miss);
        let b = deployed.measure(CacheState::HnsHit);
        let c = deployed.measure(CacheState::BothHit);
        assert!(a > b && b > c, "A={a} B={b} C={c}");
    }
}
