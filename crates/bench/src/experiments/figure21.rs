//! E7 — Figure 2.1: HNS query processing, as an executable trace.
//!
//! Two successive queries through identical client code: one name lives in
//! BIND, the other in the Clearinghouse; the client calls whichever NSM the
//! HNS designates without knowing which name service answers.

use std::sync::Arc;

use hns_core::cache::CacheMode;
use hns_core::colocation::HnsHandle;
use hns_core::name::HnsName;
use nsms::harness::{
    Testbed, DESIRED_SERVICE, DESIRED_SERVICE_PROGRAM, PRINT_SERVICE, PRINT_SERVICE_PROGRAM,
};
use nsms::nsm_cache::NsmCacheForm;
use nsms::Importer;
use simnet::obs::trace::TraceKind;

/// Runs the walkthrough and returns the rendered trace.
pub fn run() -> String {
    let tb = Testbed::build();
    tb.deploy_binding_nsms(tb.hosts.nsm, NsmCacheForm::Demarshalled);
    let hns = tb.make_hns(tb.hosts.client, CacheMode::Demarshalled);
    let importer = Importer::new(Arc::clone(&tb.net), tb.hosts.client, HnsHandle::Linked(hns));

    tb.world.tracer.set_enabled(true);
    tb.world.trace(None, TraceKind::Info, || {
        "--- query 1: a BIND name ---".into()
    });
    let bind_name = HnsName::new(tb.ctx_bind(), "fiji.cs.washington.edu").expect("name");
    importer
        .import(DESIRED_SERVICE, DESIRED_SERVICE_PROGRAM, &bind_name)
        .expect("BIND import");

    tb.world.trace(None, TraceKind::Info, || {
        "--- query 2: a Clearinghouse name ---".into()
    });
    let ch_name = HnsName::new(tb.ctx_ch(), "printserver:cs:uw").expect("name");
    importer
        .import(PRINT_SERVICE, PRINT_SERVICE_PROGRAM, &ch_name)
        .expect("CH import");
    tb.world.tracer.set_enabled(false);

    format!(
        "Figure 2.1 — HNS query processing (executable trace)\n\
         Client -> HNS (FindNSM) -> designated NSM -> underlying name service\n\n{}",
        tb.world.tracer.render_tree()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_shows_both_name_services() {
        let trace = run();
        assert!(trace.contains("FindNSM"), "missing FindNSM:\n{trace}");
        assert!(trace.contains("public-bind"), "missing BIND:\n{trace}");
        assert!(trace.contains("clearinghouse"), "missing CH:\n{trace}");
        assert!(
            trace.contains("nsm-hrpcbinding-bind"),
            "missing BIND NSM:\n{trace}"
        );
        assert!(
            trace.contains("nsm-hrpcbinding-ch"),
            "missing CH NSM:\n{trace}"
        );
    }

    #[test]
    fn queries_flow_client_hns_nsm_service() {
        let trace = run();
        // Within query 1, FindNSM precedes the NSM which precedes the
        // public BIND's lookup for the portmapper phase.
        let find = trace.find("FindNSM(query class hrpcbinding").expect("find");
        let nsm = trace.find("nsm-hrpcbinding-bind: query").expect("nsm");
        assert!(find < nsm, "FindNSM must precede the NSM call");
    }
}
