//! Nothing crosses the fabric as a tree.
//!
//! Every in-tree server — the Clearinghouse, the `regd` frontend, both
//! BIND servers and every remotely exported NSM — is put back at its port
//! behind a recorder that notes, per procedure, whether the request
//! reached it as a struct or as a tree. Every client method is then
//! driven once. The procedures that arrived as trees would be the
//! fabric's untyped remainder; this pins the set empty, so a procedure
//! that goes back to the tree is written down here.

use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};

use bindns::axfr::{read_serial, transfer_zone, transfer_zone_incremental};
use bindns::message::{
    Question, PROC_AXFR, PROC_IXFR, PROC_MQUERY, PROC_QUERY, PROC_SERIAL, PROC_UPDATE,
};
use bindns::server::BIND_PROGRAM;
use bindns::{
    DomainName, HrpcResolver, RType, RecursiveResolver, ResourceRecord, StdResolver, UpdateOp,
    DNS_PORT,
};
use clearinghouse::property::{PROP_ADDRESS, PROP_MAILBOX, PROP_MEMBERS};
use clearinghouse::server::CH_PROGRAM;
use clearinghouse::ThreePartName;
use hns_core::cache::CacheMode;
use hns_core::colocation::HnsHandle;
use hns_core::name::{HnsName, NameMapping};
use hns_core::nsm::{Nsm, NsmClient, NsmService, NSM_PROC_QUERY};
use hns_core::query::QueryClass;
use hrpc::error::RpcResult;
use hrpc::server::{CallCtx, Reply, RpcService};
use hrpc::{HrpcBinding, ProgramId, RpcNet};
use nsms::file_loc::{FileBindNsm, FileChNsm};
use nsms::harness::{
    DESIRED_SERVICE, DESIRED_SERVICE_PROGRAM, NSM_EXPORT_PROGRAM, NS_BIND, NS_CH, PRINT_SERVICE,
    PRINT_SERVICE_PROGRAM,
};
use nsms::mail::{MailBindNsm, MailChNsm};
use nsms::nsm_cache::NsmCacheForm;
use nsms::user_info::{UserBindNsm, UserChNsm};
use nsms::Importer;
use regd::{owner_key, owner_name, RegClient, RegServer, RegTestbed, REG_PROGRAM};
use simnet::topology::HostId;
use wire::{Message, Value};

/// `(server, procedure, arrived as a tree)`, for every call served.
type Log = Arc<Mutex<BTreeSet<(&'static str, u32, bool)>>>;

/// A server put back at its port, noting how each request arrived.
struct Recorder {
    label: &'static str,
    inner: Arc<dyn RpcService>,
    log: Log,
}

impl RpcService for Recorder {
    fn service_name(&self) -> &str {
        self.inner.service_name()
    }

    fn dispatch(&self, ctx: &CallCtx<'_>, proc_id: u32, args: &Value) -> RpcResult<Value> {
        self.dispatch_msg(ctx, proc_id, args).map(Reply::into_value)
    }

    fn dispatch_msg(
        &self,
        ctx: &CallCtx<'_>,
        proc_id: u32,
        args: &dyn Message,
    ) -> RpcResult<Reply> {
        let tree = args.downcast_ref::<Value>().is_some();
        let entry = (self.label, proc_id, tree);
        self.log.lock().expect("log").insert(entry);
        self.inner.dispatch_msg(ctx, proc_id, args)
    }
}

fn record(
    net: &RpcNet,
    log: &Log,
    label: &'static str,
    (host, port, program): (HostId, u16, ProgramId),
    inner: Arc<dyn RpcService>,
) {
    net.unexport(host, port);
    let log = Arc::clone(log);
    net.export_at(
        host,
        port,
        program,
        Arc::new(Recorder { label, inner, log }),
    );
}

#[test]
fn no_request_reaches_a_server_as_a_tree() {
    let rt = RegTestbed::build(3);
    let tb = &rt.tb;
    let (net, nsm_host, client) = (&tb.net, tb.hosts.nsm, tb.hosts.client);
    let bound = tb.deploy_binding_nsms(nsm_host, NsmCacheForm::Demarshalled);
    tb.deploy_extension_nsms(nsm_host);
    tb.deploy_user_nsms(nsm_host);
    let frontend = RegServer::new(Arc::clone(&rt.registry));
    let reg_binding = regd::deploy(net, tb.hosts.agent, Arc::clone(&frontend) as _);

    let log = Log::default();
    for bind in [&tb.public_bind, &tb.meta_bind] {
        let at = (bind.host, DNS_PORT, BIND_PROGRAM);
        record(net, &log, "bind", at, Arc::clone(&bind.server) as _);
    }
    let ch = (tb.ch.host, tb.ch.binding.port, CH_PROGRAM);
    record(
        net,
        &log,
        "clearinghouse",
        ch,
        Arc::clone(&tb.ch.server) as _,
    );
    let reg = (tb.hosts.agent, reg_binding.port, REG_PROGRAM);
    record(net, &log, "regd", reg, frontend);
    // The harness keeps no handle to most NSMs: the recorders wrap fresh
    // ones built as it builds them, in the order it exports them.
    let (resolver, ch_client) = (|| tb.std_resolver(nsm_host), || tb.ch_client(nsm_host));
    let identity = || NameMapping::Identity;
    let nsms: [Arc<dyn Nsm>; 8] = [
        bound.bind,
        bound.ch,
        MailBindNsm::new(resolver(), identity()),
        MailChNsm::new(ch_client(), identity()),
        FileBindNsm::new(resolver(), identity()),
        FileChNsm::new(ch_client(), identity()),
        UserBindNsm::new(resolver(), identity()),
        UserChNsm::new(ch_client(), identity()),
    ];
    for (offset, nsm) in (0..).zip(nsms) {
        let program = ProgramId(NSM_EXPORT_PROGRAM.0 + offset);
        let port = net
            .portmap_getport(nsm_host, program)
            .expect("NSM exported");
        record(
            net,
            &log,
            "nsm",
            (nsm_host, port, program),
            NsmService::new(nsm),
        );
    }

    // bindns: each resolver's query, MQUERY, UPDATE, a referral walk and
    // the three zone-transfer procedures.
    let dn = |s: &str| DomainName::parse(s).expect("name");
    let fiji = dn("fiji.cs.washington.edu");
    let std = StdResolver::new(Arc::clone(net), client, tb.public_bind.std_binding);
    std.query(&fiji, RType::A).expect("std query");
    std.query_uncached(&fiji, RType::A).expect("uncached query");
    let hrpc = HrpcResolver::new(Arc::clone(net), client, tb.meta_bind.hrpc_binding);
    let origin = &tb.meta_origin;
    hrpc.query(origin, RType::Soa).ok();
    let questions = [Question::new(origin.clone(), RType::Soa)];
    hrpc.mquery(&questions, &[]).expect("mquery");
    let added = ResourceRecord::txt(dn(&format!("probe.{origin}")), 60, "x");
    hrpc.update(&UpdateOp::Add(added)).expect("update");
    let walker = RecursiveResolver::new(Arc::clone(net), client, tb.public_bind.std_binding);
    walker.query(&fiji, RType::A).expect("walk");
    let meta = &tb.meta_bind.hrpc_binding;
    let serial = read_serial(net, client, meta, origin).expect("serial");
    transfer_zone(net, client, meta, origin).expect("axfr");
    transfer_zone_incremental(net, client, meta, origin, serial - 1).expect("ixfr");

    // The NSMs: an Import, and every remotely served query class.
    let hns = tb.make_hns(client, CacheMode::Demarshalled);
    let importer = Importer::new(Arc::clone(net), client, HnsHandle::Linked(Arc::clone(&hns)));
    let (bind, ch) = (
        |s: &str| HnsName::new(tb.ctx_bind(), s).expect("name"),
        |s: &str| HnsName::new(tb.ctx_ch(), s).expect("name"),
    );
    importer
        .import(
            DESIRED_SERVICE,
            DESIRED_SERVICE_PROGRAM,
            &bind("fiji.cs.washington.edu"),
        )
        .expect("import");
    importer
        .import(
            PRINT_SERVICE,
            PRINT_SERVICE_PROGRAM,
            &ch("printserver:cs:uw"),
        )
        .expect("import");
    let nsm = NsmClient::new(Arc::clone(net), client);
    let path = |p: &str| vec![("path", Value::str(p))];
    for (qc, name, extra) in [
        (
            QueryClass::mailbox_location(),
            bind("alice.cs.washington.edu"),
            vec![],
        ),
        (QueryClass::mailbox_location(), ch("bob:cs:uw"), vec![]),
        (
            QueryClass::file_location(),
            bind("sources.cs.washington.edu"),
            path("hrpc/stubs.c"),
        ),
        (
            QueryClass::file_location(),
            ch("designs:cs:uw"),
            path("dlion/board.dwg"),
        ),
        (
            QueryClass::user_info(),
            bind("mfs.cs.washington.edu"),
            vec![],
        ),
        (QueryClass::user_info(), ch("bob:cs:uw"), vec![]),
    ] {
        let binding: HrpcBinding = hns.find_nsm(&qc, &name).expect("FindNSM");
        nsm.call(&binding, &name, extra).expect("NSM call");
    }

    // The Clearinghouse: every `ChClient` method.
    let chc = tb.ch_client(client);
    let tpn = |s: &str| ThreePartName::parse(s).expect("name");
    let (temp, staff, lp) = (tpn("temp:cs:uw"), tpn("staff:cs:uw"), tpn("lp:cs:uw"));
    chc.add_entry(&temp).expect("add_entry");
    chc.set_item(&temp, PROP_ADDRESS, Value::U32(9))
        .expect("set_item");
    chc.add_member(&staff, PROP_MEMBERS, "alice:cs:uw")
        .expect("add_member");
    chc.add_alias(&lp, &temp).expect("add_alias");
    chc.lookup(&lp, PROP_ADDRESS).expect("lookup");
    chc.lookup_item(&tpn("bob:cs:uw"), PROP_MAILBOX)
        .expect("lookup_item");
    chc.lookup_group(&staff, PROP_MEMBERS)
        .expect("lookup_group");
    chc.lookup_item_run(std::slice::from_ref(&temp), PROP_ADDRESS)
        .expect("run");
    chc.list("cs", "uw", "*").expect("list");
    chc.delete(&temp).expect("delete");

    // regd: every `RegClient` method.
    let regc = RegClient::new(Arc::clone(net), client, reg_binding);
    let ((o0, k0), (o1, k1)) = ((owner_name(0), owner_key(0)), (owner_name(1), owner_key(1)));
    regc.register(&o0, k0, "relay", NS_BIND).expect("register");
    regc.update(&o0, k0, "relay", NS_CH).expect("update");
    regc.transfer(&o0, k0, "relay", &o1, None)
        .expect("transfer");
    regc.resolve("relay").expect("resolve");
    regc.release(&o1, k1, "relay").expect("release");

    let log = log.lock().expect("log");
    let trees: BTreeSet<(&str, u32)> = (log.iter())
        .filter(|(_, _, tree)| *tree)
        .map(|&(label, proc_id, _)| (label, proc_id))
        .collect();
    assert_eq!(trees, BTreeSet::new(), "{log:?}");
    // And every procedure the clients sent was seen: the recorders stood
    // where the calls went.
    let typed = |label: &str| -> BTreeSet<u32> {
        let typed = log.iter().filter(|(l, _, tree)| *l == label && !tree);
        typed.map(|&(_, proc_id, _)| proc_id).collect()
    };
    assert_eq!(typed("clearinghouse"), [1, 2, 3, 4, 5, 7, 8, 9].into());
    assert_eq!(typed("regd"), (1..=5).collect());
    let bind = [
        PROC_QUERY,
        PROC_UPDATE,
        PROC_MQUERY,
        PROC_AXFR,
        PROC_IXFR,
        PROC_SERIAL,
    ];
    assert_eq!(typed("bind"), bind.into());
    assert_eq!(typed("nsm"), [NSM_PROC_QUERY].into());
}
