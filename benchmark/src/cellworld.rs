//! `scale_zipf`'s stack: the cell-sharded million-name world, driven
//! through `RecursiveResolver::query`, `HrpcResolver::update` and
//! incremental `Hns::preload`.

use std::collections::HashMap;
use std::sync::Arc;

use bindns::message::PROC_UPDATE;
use bindns::name::DomainName;
use bindns::rr::{RData, RType, ResourceRecord};
use bindns::server::BindDeployment;
use bindns::update::UpdateOp;
use bindns::{HrpcResolver, RecursiveResolver};
use hns_bench::cells::CellPlan;
use hns_bench::scenario::{build_cell_world, cell_name, cell_origin, CellWorld};
use hns_core::cache::CacheMode;
use hns_core::error::HnsResult;
use hns_core::service::{Hns, PreloadMode, PreloadReport};
use hrpc::error::RpcResult;
use hrpc::server::RpcService;
use simnet::world::World;

use crate::counts::{Counts, C};
use crate::oracle::{fnv, Verdict};
use crate::rng::{permutation, Rng, Zipf};
use crate::runner::Stack;
use crate::shim::{self, Target};
use crate::spans::{self, Kind, SpanGuard, Tracer};

/// Share of operations that replace a name's record.
const UPDATE_SHARE: f64 = 0.04;

pub enum CellOp {
    /// `gens` is how many payloads the generator has written to this
    /// name so far: any of them, or the original, is a valid answer (the
    /// resolver may still hold an older one within its TTL).
    Query {
        global: u32,
        name: DomainName,
        gens: u32,
    },
    Update {
        global: u32,
        name: DomainName,
        gen: u32,
    },
    /// Incremental preload of cell 0's meta zone.
    Preload,
}

pub enum CellAnswer {
    Records(RpcResult<Arc<[ResourceRecord]>>),
    Updated(RpcResult<()>),
    Preloaded(HnsResult<PreloadReport>),
}

pub struct CellStack {
    cw: CellWorld,
    resolver: RecursiveResolver,
    /// One dynamic-update client per cell server.
    updaters: Vec<HrpcResolver>,
    /// The warm client that keeps cell 0's meta zone preloaded.
    preloader: Hns,
    zipf: Zipf,
    /// Zipf rank -> global name index, so the hot names are scattered
    /// over the cells instead of all living in cell 0.
    perm: Vec<u32>,
    /// Payload generations the generator has written, per name.
    written: HashMap<u32, u32>,
    preload_every: usize,
    until_preload: usize,
    last_serial: u32,
    preload_bytes: u64,
    tracer: Option<Tracer>,
}

fn payload(global: u32, gen: u32) -> Vec<u8> {
    format!("rebound={global}.{gen}").into_bytes()
}

impl CellStack {
    /// Builds the world for `names` names from `seed`, deploys the
    /// clients and preloads cell 0 once in full.
    pub fn build(names: usize, preload_every: usize, seed: u64, tracer: Option<Tracer>) -> Self {
        let plan = CellPlan::for_names(names);
        let cw = build_cell_world(&plan, seed);
        if let Some(tracer) = &tracer {
            let classify = |proc_id| {
                if proc_id == PROC_UPDATE {
                    Kind::BindUpdateServe
                } else {
                    Kind::CellServe
                }
            };
            let target = |d: &BindDeployment| Target {
                host: d.host,
                port: d.std_binding.port,
                program: d.std_binding.program,
                inner: Arc::clone(&d.server) as Arc<dyn RpcService>,
                classify,
            };
            let targets = std::iter::once(&cw.root)
                .chain(&cw.cells)
                .map(target)
                .collect();
            shim::interpose(&cw.net, targets, tracer);
        }
        let resolver = RecursiveResolver::new(Arc::clone(&cw.net), cw.client, cw.root.std_binding);
        let updaters = cw
            .cells
            .iter()
            .map(|cell| HrpcResolver::new(Arc::clone(&cw.net), cw.client, cell.hrpc_binding))
            .collect();
        let preloader = Hns::new(
            Arc::clone(&cw.net),
            cw.client,
            cw.cells[0].hrpc_binding,
            cell_origin(0),
            CacheMode::Demarshalled,
        );
        let full = preloader.preload().expect("cold preload of cell 0");
        assert_eq!(
            full.mode,
            PreloadMode::Full,
            "a cold client transfers fully"
        );
        let mut rng = Rng::new(seed).fork("permutation");
        cw.world.clock.set_batched(true);
        CellStack {
            zipf: Zipf::new(names, 1.0),
            perm: permutation(names, &mut rng),
            written: HashMap::new(),
            preload_every,
            until_preload: preload_every,
            last_serial: full.serial,
            preload_bytes: 0,
            resolver,
            updaters,
            preloader,
            cw,
            tracer,
        }
    }

    fn span(&self, kind: Kind) -> Option<SpanGuard<'_>> {
        spans::enter(&self.tracer, kind)
    }

    /// Bytes resident in the compact zone stores, per registered name.
    pub fn zone_resident_bytes_per_name(&self) -> f64 {
        self.cw.resident_bytes() as f64 / self.cw.plan.names as f64
    }
}

impl Stack for CellStack {
    type Op = CellOp;
    type Answer = CellAnswer;

    fn gen(&mut self, rng: &mut Rng, n: usize) -> Vec<CellOp> {
        (0..n)
            .map(|_| {
                if self.until_preload == 0 {
                    self.until_preload = self.preload_every;
                    return CellOp::Preload;
                }
                self.until_preload -= 1;
                let update = rng.next_f64() < UPDATE_SHARE;
                let global = self.perm[self.zipf.sample(rng)];
                let (cell, index) = self.cw.plan.locate(global as usize);
                let name = cell_name(cell, index);
                if update {
                    let gens = self.written.entry(global).or_insert(0);
                    *gens += 1;
                    CellOp::Update {
                        global,
                        name,
                        gen: *gens - 1,
                    }
                } else {
                    CellOp::Query {
                        global,
                        name,
                        gens: self.written.get(&global).copied().unwrap_or(0),
                    }
                }
            })
            .collect()
    }

    fn exec(&self, op: &CellOp) -> CellAnswer {
        match op {
            CellOp::Query { name, .. } => {
                let _s = self.span(Kind::Query);
                CellAnswer::Records(self.resolver.query(name, RType::Unspec))
            }
            CellOp::Update { global, name, gen } => {
                let (cell, _) = self.cw.plan.locate(*global as usize);
                let op = UpdateOp::Replace {
                    name: name.clone(),
                    rtype: RType::Unspec,
                    records: vec![ResourceRecord::unspec(
                        name.clone(),
                        600,
                        payload(*global, *gen),
                    )],
                };
                let _s = self.span(Kind::Update);
                CellAnswer::Updated(self.updaters[cell].update(&op))
            }
            CellOp::Preload => {
                let _s = self.span(Kind::Preload);
                CellAnswer::Preloaded(self.preloader.preload())
            }
        }
    }

    fn check(&mut self, op: &CellOp, answer: CellAnswer) -> Verdict {
        match (op, answer) {
            (CellOp::Query { global, name, gens }, CellAnswer::Records(got)) => {
                let records = match got {
                    Ok(r) => r,
                    Err(e) => return Verdict::Rejected(format!("query {name}: {e}")),
                };
                let [rr] = &records[..] else {
                    return Verdict::Rejected(format!("{name}: {} records", records.len()));
                };
                let RData::Opaque(bytes) = &rr.rdata else {
                    return Verdict::Rejected(format!("{name}: rdata {:?}", rr.rdata));
                };
                let (cell, _) = self.cw.plan.locate(*global as usize);
                let original = bytes.starts_with(format!("nsm=nsm-cell{cell}-").as_bytes());
                // One of the generations this generator wrote to the name.
                let rebound = || {
                    std::str::from_utf8(bytes)
                        .ok()
                        .and_then(|s| s.strip_prefix("rebound=")?.split_once('.'))
                        .is_some_and(|(g, k)| {
                            g.parse() == Ok(*global) && k.parse::<u32>().is_ok_and(|k| k < *gens)
                        })
                };
                if rr.name == *name && rr.rtype == RType::Unspec && (original || rebound()) {
                    Verdict::Ok(fnv(bytes))
                } else {
                    Verdict::Rejected(format!(
                        "{name}: unexpected record {:?}",
                        String::from_utf8_lossy(bytes)
                    ))
                }
            }
            (CellOp::Update { global, gen, .. }, CellAnswer::Updated(r)) => match r {
                Ok(()) => Verdict::Ok(u64::from(*global) << 32 | u64::from(*gen)),
                Err(e) => Verdict::Rejected(format!("update: {e}")),
            },
            (CellOp::Preload, CellAnswer::Preloaded(r)) => match r {
                Ok(report)
                    if report.mode != PreloadMode::Full && report.serial >= self.last_serial =>
                {
                    self.last_serial = report.serial;
                    self.preload_bytes += report.bytes as u64;
                    Verdict::Ok(u64::from(report.serial) << 32 | report.records as u64)
                }
                Ok(report) => Verdict::Rejected(format!("warm preload reported {report:?}")),
                Err(e) => Verdict::Rejected(format!("preload: {e}")),
            },
            _ => Verdict::Rejected("answer does not belong to the op".into()),
        }
    }

    fn counts(&self) -> Counts {
        let world = &self.cw.world;
        let net = world.counters();
        let cache = self.resolver.cache_stats();
        let mut c = Counts::at(world.now().as_ms_f64());
        c[C::RemoteCalls] = net.remote_calls;
        c[C::LocalCalls] = net.local_calls;
        c[C::BytesSent] = net.bytes_sent;
        c[C::ResolverHits] = cache.hits;
        c[C::ResolverMisses] = cache.misses;
        c[C::ResolverExpirations] = cache.expirations;
        c[C::PreloadBytes] = self.preload_bytes;
        c
    }

    fn world(&self) -> &Arc<World> {
        &self.cw.world
    }

    fn tracer(&self) -> Option<&Tracer> {
        self.tracer.as_ref()
    }
}
