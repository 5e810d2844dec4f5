//! The benchmark's query mix on the paper's testbed, shared by the
//! allocation bounds of a warm and of a cold query: Zipf(1.0) over 1,024
//! contexts, half BIND- and half Clearinghouse-backed, times the three
//! query classes — the six (query class × service) pair kinds. A binding
//! query is one `Importer::import`; a mail or file query is
//! `Hns::find_nsm` and one `NsmClient::call`.

use std::sync::Arc;

use conformance::alloc::measure_calls;
use hns_core::cache::CacheMode;
use hns_core::colocation::HnsHandle;
use hns_core::name::{Context, HnsName, NameMapping};
use hns_core::nsm::NsmClient;
use hns_core::query::QueryClass;
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

/// One (context, query class) pair and what its query sends.
enum Ask {
    Import(&'static str, ProgramId),
    Nsm(QueryClass, Option<&'static str>),
}

/// What `ops` queries of the mix allocate: `(allocations, bytes)` an op,
/// counted by the counting allocator the calling test installs, after one
/// unmeasured pass over every pair. The querying HNS keeps its
/// per-mapping cache in `hns_mode` and its composed binding cache if
/// `binding_cache`; the binding NSMs keep theirs in `nsm_form`.
pub fn allocations_an_op(
    hns_mode: CacheMode,
    binding_cache: bool,
    nsm_form: NsmCacheForm,
    ops: usize,
) -> (f64, f64) {
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
        let asks = if bind {
            [
                (
                    "fiji.cs.washington.edu",
                    Ask::Import(DESIRED_SERVICE, DESIRED_SERVICE_PROGRAM),
                ),
                (
                    "alice.cs.washington.edu",
                    Ask::Nsm(QueryClass::mailbox_location(), None),
                ),
                (
                    "sources.cs.washington.edu",
                    Ask::Nsm(QueryClass::file_location(), Some("hrpc/stubs.c")),
                ),
            ]
        } else {
            [
                (
                    "printserver:cs:uw",
                    Ask::Import(PRINT_SERVICE, PRINT_SERVICE_PROGRAM),
                ),
                ("bob:cs:uw", Ask::Nsm(QueryClass::mailbox_location(), None)),
                (
                    "designs:cs:uw",
                    Ask::Nsm(QueryClass::file_location(), Some("dlion/board.dwg")),
                ),
            ]
        };
        for (individual, ask) in asks {
            let name = HnsName::new(ctx.clone(), individual).expect("name");
            pairs.push((name, ask));
        }
    }

    let hns = tb.make_hns(tb.hosts.client, hns_mode);
    hns.set_binding_cache(binding_cache);
    let importer = Importer::new(
        Arc::clone(&tb.net),
        tb.hosts.client,
        HnsHandle::Linked(Arc::clone(&hns)),
    );
    let nsm_client = NsmClient::new(Arc::clone(&tb.net), tb.hosts.client);
    let query = |(name, ask): &(HnsName, Ask)| match ask {
        Ask::Import(service, program) => {
            importer.import(service, *program, name).expect("import");
        }
        Ask::Nsm(qc, path) => {
            let binding = hns.find_nsm(qc, name).expect("find_nsm");
            let extra = path.map_or_else(Vec::new, |path| vec![("path", Value::str(path))]);
            nsm_client.call(&binding, name, extra).expect("nsm call");
        }
    };
    pairs.iter().for_each(query);
    tb.world.clock.set_batched(true);

    // Zipf(1.0) by rank, the rank being the pair's place above.
    let mut cdf: Vec<f64> = (1..=pairs.len()).map(|rank| 1.0 / rank as f64).collect();
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
            cdf.partition_point(|&c| c < x).min(pairs.len() - 1)
        })
        .collect();

    let (_, used) = measure_calls(|| picks.iter().for_each(|&pair| query(&pairs[pair])));
    let (bytes, calls) = used.expect("the counting allocator is installed");
    (calls as f64 / ops as f64, bytes as f64 / ops as f64)
}
