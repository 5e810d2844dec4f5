//! The benchmark's query mix on the paper's testbed: Zipf(1.0) over 1,024
//! contexts, half BIND- and half Clearinghouse-backed, times the three
//! query classes — the six (query class × service) pair kinds. A binding
//! query is one `Importer::import`; a mail or file query is
//! `Hns::find_nsm` and one `NsmClient::call`. `experiments work` runs it
//! warm and cold; the cold query's allocation bound runs it cold.
//!
//! Cold turns off the querying HNS's per-mapping and composed caches and
//! the binding NSMs' result caches. It does not reach the `StdResolver`
//! of the BIND-backed mail and file NSMs, which keeps its TTL cache: after
//! a name's first query their lookup is a hit, so a cold BIND mail or file
//! op makes 7 remote calls (six mappings and the NSM call) where its
//! Clearinghouse twin makes 8.

use std::fmt;
use std::sync::Arc;

use conformance::alloc::measure_calls;
use hns_core::cache::CacheMode;
use hns_core::colocation::HnsHandle;
use hns_core::name::{Context, HnsName, NameMapping};
use hns_core::nsm::NsmClient;
use hns_core::query::QueryClass;
use hns_core::{Hns, HnsConfig};
use hrpc::ProgramId;
use nsms::harness::{
    Testbed, DESIRED_SERVICE, DESIRED_SERVICE_PROGRAM, NS_BIND, NS_CH, PRINT_SERVICE,
    PRINT_SERVICE_PROGRAM,
};
use nsms::import::Importer;
use nsms::nsm_cache::NsmCacheForm;
use simnet::rng::DetRng;
use wire::Value;

const CONTEXTS: usize = 1024;

/// One of the six (query class × service) pair kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PairKind {
    /// An HRPC-binding `Import` in a BIND-backed context.
    BindBinding,
    /// A mailbox query in a BIND-backed context.
    BindMail,
    /// A file-location query in a BIND-backed context.
    BindFile,
    /// An HRPC-binding `Import` in a Clearinghouse-backed context.
    ChBinding,
    /// A mailbox query in a Clearinghouse-backed context.
    ChMail,
    /// A file-location query in a Clearinghouse-backed context.
    ChFile,
}

impl PairKind {
    /// Every kind, in the order a context's pairs are laid out.
    pub const ALL: [PairKind; 6] = [
        PairKind::BindBinding,
        PairKind::BindMail,
        PairKind::BindFile,
        PairKind::ChBinding,
        PairKind::ChMail,
        PairKind::ChFile,
    ];
}

impl fmt::Display for PairKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            PairKind::BindBinding => "BIND binding",
            PairKind::BindMail => "BIND mail",
            PairKind::BindFile => "BIND file",
            PairKind::ChBinding => "CH binding",
            PairKind::ChMail => "CH mail",
            PairKind::ChFile => "CH file",
        })
    }
}

/// How an op's `FindNSM` was answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// One probe of the composed binding cache.
    ComposedHit,
    /// The mapping walk, every mapping from the HNS cache.
    CachedRewalk,
    /// The mapping walk, some mapping fetched from the meta store.
    RemoteRewalk,
}

impl Outcome {
    /// Every outcome, cheapest first.
    pub const ALL: [Outcome; 3] = [
        Outcome::ComposedHit,
        Outcome::CachedRewalk,
        Outcome::RemoteRewalk,
    ];
}

impl fmt::Display for Outcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Outcome::ComposedHit => "composed hit",
            Outcome::CachedRewalk => "cached re-walk",
            Outcome::RemoteRewalk => "remote re-walk",
        })
    }
}

/// What one op of the mix did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpWork {
    /// The op's pair kind.
    pub kind: PairKind,
    /// How its `FindNSM` was answered.
    pub outcome: Outcome,
    /// Allocator calls the op made.
    pub allocations: u64,
    /// Bytes those calls requested.
    pub bytes: u64,
    /// Remote calls the op made, the NSM's own among them.
    pub remote_calls: u64,
}

/// One (context, query class) pair and what its query sends.
enum Ask {
    Import(&'static str, ProgramId),
    Nsm(QueryClass, Option<&'static str>),
}

/// The mix's testbed, its querying HNS and every pair, each queried
/// once (unmeasured) so that what is measured is the steady state.
pub struct QueryMix {
    tb: Testbed,
    hns: Arc<Hns>,
    importer: Importer,
    nsm_client: NsmClient,
    pairs: Vec<(PairKind, HnsName, Ask)>,
}

impl QueryMix {
    /// The mix with the querying HNS's per-mapping cache in `cache`, its
    /// composed binding cache on if `composed`, and the binding NSMs'
    /// caches in `nsm_form`.
    pub fn build(cache: CacheMode, composed: bool, nsm_form: NsmCacheForm) -> QueryMix {
        let tb = Testbed::build();
        tb.deploy_binding_nsms(tb.hosts.nsm, nsm_form);
        tb.deploy_extension_nsms(tb.hosts.nsm);
        let registrar = tb.make_hns(tb.hosts.meta, CacheMode::Disabled);
        let mut pairs = Vec::with_capacity(3 * CONTEXTS);
        for i in 0..CONTEXTS {
            let bind = i % 2 == 0;
            let (ns, suffix) = if bind {
                (NS_BIND, "bind")
            } else {
                (NS_CH, "ch")
            };
            let ctx = Context::new(format!("dept{i}-{suffix}")).expect("context");
            registrar
                .register_context(&ctx, ns, &NameMapping::Identity)
                .expect("register context");
            let mail = || Ask::Nsm(QueryClass::mailbox_location(), None);
            let file = |path| Ask::Nsm(QueryClass::file_location(), Some(path));
            let asks = if bind {
                [
                    (
                        "fiji.cs.washington.edu",
                        Ask::Import(DESIRED_SERVICE, DESIRED_SERVICE_PROGRAM),
                    ),
                    ("alice.cs.washington.edu", mail()),
                    ("sources.cs.washington.edu", file("hrpc/stubs.c")),
                ]
            } else {
                [
                    (
                        "printserver:cs:uw",
                        Ask::Import(PRINT_SERVICE, PRINT_SERVICE_PROGRAM),
                    ),
                    ("bob:cs:uw", mail()),
                    ("designs:cs:uw", file("dlion/board.dwg")),
                ]
            };
            let kinds = &PairKind::ALL[if bind { 0..3 } else { 3..6 }];
            for (kind, (individual, ask)) in kinds.iter().zip(asks) {
                let name = HnsName::new(ctx.clone(), individual).expect("name");
                pairs.push((*kind, name, ask));
            }
        }

        let hns = tb.make_hns(tb.hosts.client, HnsConfig { cache, composed });
        let importer = Importer::new(
            Arc::clone(&tb.net),
            tb.hosts.client,
            HnsHandle::Linked(Arc::clone(&hns)),
        );
        let nsm_client = NsmClient::new(Arc::clone(&tb.net), tb.hosts.client);
        let mix = QueryMix {
            tb,
            hns,
            importer,
            nsm_client,
            pairs,
        };
        (0..mix.pairs.len()).for_each(|pair| mix.query(pair));
        mix
    }

    /// Queries pair `pair` once.
    fn query(&self, pair: usize) {
        match &self.pairs[pair] {
            (_, name, Ask::Import(service, program)) => {
                let import = self.importer.import(service, *program, name);
                import.expect("import");
            }
            (_, name, Ask::Nsm(qc, path)) => {
                let binding = self.hns.find_nsm(qc, name).expect("find_nsm");
                let extra = path.map_or_else(Vec::new, |path| vec![("path", Value::str(path))]);
                let call = self.nsm_client.call(&binding, name, extra);
                call.expect("nsm call");
            }
        }
    }

    /// `ops` queries of the mix, the pairs drawn Zipf(1.0) by their place
    /// above from a fixed seed, each with what it did. Allocations are
    /// counted by the counting allocator the calling binary installs.
    pub fn run(&self, ops: usize) -> Vec<OpWork> {
        let mut cdf: Vec<f64> = (1..=self.pairs.len())
            .map(|rank| 1.0 / rank as f64)
            .collect();
        let total: f64 = cdf.iter().sum();
        let mut acc = 0.0;
        for weight in &mut cdf {
            acc += *weight / total;
            *weight = acc;
        }
        let mut rng = DetRng::new(1987);
        let picks: Vec<usize> = (0..ops)
            .map(|_| {
                let x = rng.next_f64();
                cdf.partition_point(|&c| c < x).min(self.pairs.len() - 1)
            })
            .collect();

        let world = &self.tb.world;
        let walked_remote = world
            .metrics()
            .counter("hns", "find_nsm_remote_round_trips");
        let mut work = Vec::with_capacity(ops);
        for pair in picks {
            let composed = self.hns.binding_cache_stats().hits;
            let (walked, calls) = (walked_remote.value(), world.counters().remote_calls);
            let (_, used) = measure_calls(|| self.query(pair));
            let (bytes, allocations) = used.expect("the counting allocator is installed");
            let outcome = if self.hns.binding_cache_stats().hits > composed {
                Outcome::ComposedHit
            } else if walked_remote.value() > walked {
                Outcome::RemoteRewalk
            } else {
                Outcome::CachedRewalk
            };
            work.push(OpWork {
                kind: self.pairs[pair].0,
                outcome,
                allocations,
                bytes,
                remote_calls: world.counters().remote_calls - calls,
            });
        }
        work
    }
}
