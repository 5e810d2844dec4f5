//! Concurrent stacks must not perturb the virtual-time goldens.
//!
//! Eight threads each build a private stack — testbed, deployed NSMs, a
//! warm `Hns` with the composed cache on, a cold one and an `Importer` —
//! and drive a few hundred warm, cold and `Import` operations through
//! it. Then, in the same process, the flagship deterministic experiments
//! must render byte-identical to the committed output and to a fresh
//! render. The stacks share only the process, every cache keying on its
//! own bytes, so a leak between them (a stray charge, a perturbed
//! instant, thread-dependent metric registration) into what the
//! simulation computes fails here.

use std::sync::Arc;

use hns_bench::experiments as exp;
use hns_core::cache::CacheMode;
use hns_core::colocation::HnsHandle;
use hns_core::name::{Context, HnsName};
use hns_core::query::QueryClass;
use hns_core::HnsConfig;
use nsms::harness::{
    Testbed, CTX_BIND, CTX_CH, DESIRED_SERVICE, DESIRED_SERVICE_PROGRAM, PRINT_SERVICE,
    PRINT_SERVICE_PROGRAM,
};
use nsms::import::Importer;
use nsms::nsm_cache::NsmCacheForm;

const THREADS: usize = 8;
const OPS_PER_THREAD: usize = 300;

/// Builds one private stack and runs [`OPS_PER_THREAD`] operations over
/// it, cycling warm `FindNSM`, cold `FindNSM` and `Import`.
fn run_one_stack() {
    let tb = Testbed::build();
    tb.deploy_binding_nsms(tb.hosts.nsm, NsmCacheForm::Demarshalled);
    tb.deploy_extension_nsms(tb.hosts.nsm);
    let cache = CacheMode::Demarshalled;
    let warm = tb.make_hns(
        tb.hosts.client,
        HnsConfig {
            cache,
            composed: true,
        },
    );
    let cold = tb.make_hns(tb.hosts.client, CacheMode::Disabled);
    let handle = HnsHandle::Linked(Arc::clone(&warm));
    let importer = Importer::new(Arc::clone(&tb.net), tb.hosts.client, handle);

    let name = |ctx, individual| HnsName::new(Context::new(ctx).expect("context"), individual);
    let services = [
        (
            name(CTX_BIND, "fiji.cs.washington.edu").expect("name"),
            (DESIRED_SERVICE, DESIRED_SERVICE_PROGRAM),
        ),
        (
            name(CTX_CH, "printserver:cs:uw").expect("name"),
            (PRINT_SERVICE, PRINT_SERVICE_PROGRAM),
        ),
    ];
    let classes = [
        QueryClass::hrpc_binding(),
        QueryClass::mailbox_location(),
        QueryClass::file_location(),
    ];
    for i in 0..OPS_PER_THREAD {
        let (name, (service, program)) = &services[i % services.len()];
        let qc = &classes[(i / services.len()) % classes.len()];
        let answered = match i % 3 {
            0 => warm.find_nsm(qc, name).map(drop),
            1 => cold.find_nsm(qc, name).map(drop),
            _ => importer.import(service, *program, name).map(drop),
        };
        answered.unwrap_or_else(|e| panic!("op {i} on {name:?}: {e:?}"));
    }
    let composed = warm.binding_cache_stats();
    assert!(
        composed.hits > 0,
        "the composed cache answered: {composed:?}"
    );
}

#[test]
fn eight_concurrent_stacks_leave_goldens_byte_identical() {
    std::thread::scope(|s| {
        for _ in 0..THREADS {
            s.spawn(run_one_stack);
        }
    });

    // table31, after the stacks ran, in their process: byte-identical to
    // its section of the committed `experiments all` output (which
    // `tests/cli.rs` holds the binary to as a whole).
    let rendered = format!(
        "=== experiment: table31 ===\n{}\n",
        exp::table31::run().render()
    );
    let all = include_str!("../../../experiments_output.txt");
    let next = all[1..].find("=== experiment:").expect("a second table") + 1;
    let golden = &all[..next];
    assert!(
        rendered == golden,
        "table31 diverged after {THREADS} concurrent stacks\n--- golden ---\n{golden}\n--- got ---\n{rendered}"
    );

    // The traced scenario (spans + metrics snapshot) is equally a pure
    // function of the cost model; two renders must agree byte-for-byte.
    let a = exp::traced::run().render();
    let b = exp::traced::run().render();
    assert_eq!(a, b, "traced render must stay deterministic");
}
