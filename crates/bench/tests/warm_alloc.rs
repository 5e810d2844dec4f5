//! What a warm query allocates, by the counting allocator: the
//! benchmark's warm mix — Zipf(1.0) over 1,024 contexts, half BIND- and
//! half Clearinghouse-backed, times the three query classes, every cache
//! on — on the paper's testbed. A binding query is one `Importer::import`;
//! a mail or file query is `Hns::find_nsm` and one `NsmClient::call`. Most
//! ops are a composed-cache hit and one NSM call; the rest re-walk a
//! lapsed entry. Print the count with
//!
//! ```text
//! cargo test --release -p hns-bench --test warm_alloc -- --nocapture
//! ```

use std::sync::Arc;

use conformance::alloc::{measure_calls, CountingAlloc};
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

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const CONTEXTS: usize = 1024;
const OPS: usize = 60_000;

/// One (context, query class) pair and what its query sends.
enum Ask {
    Import(&'static str, ProgramId),
    Nsm(QueryClass, Option<&'static str>),
}

/// At most eight allocations a warm op. (10.70 while every probe of a
/// shared name copied its text: the context and individual name into
/// each request, the local name out of every NSM's mapping, the path out
/// of the caller's fields.)
#[test]
fn a_warm_query_allocates_at_most_eight_blocks() {
    let tb = Testbed::build();
    tb.deploy_binding_nsms(tb.hosts.nsm, NsmCacheForm::Demarshalled);
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

    let warm = tb.make_hns(tb.hosts.client, CacheMode::Demarshalled);
    warm.set_binding_cache(true);
    let importer = Importer::new(
        Arc::clone(&tb.net),
        tb.hosts.client,
        HnsHandle::Linked(Arc::clone(&warm)),
    );
    let nsm_client = NsmClient::new(Arc::clone(&tb.net), tb.hosts.client);
    let query = |(name, ask): &(HnsName, Ask)| match ask {
        Ask::Import(service, program) => {
            importer.import(service, *program, name).expect("import");
        }
        Ask::Nsm(qc, path) => {
            let binding = warm.find_nsm(qc, name).expect("find_nsm");
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
    let ops: Vec<usize> = (0..OPS)
        .map(|_| {
            let x = rng.next_f64();
            cdf.partition_point(|&c| c < x).min(pairs.len() - 1)
        })
        .collect();

    let (_, used) = measure_calls(|| ops.iter().for_each(|&pair| query(&pairs[pair])));
    let (bytes, calls) = used.expect("the counting allocator is installed");
    let per_op = calls as f64 / OPS as f64;
    let bytes_per_op = bytes as f64 / OPS as f64;
    println!("{OPS} warm ops: {calls} allocations ({per_op:.2} an op), {bytes_per_op:.0} B an op");
    assert!(per_op <= 8.0, "{per_op:.2} allocations a warm op");
}
