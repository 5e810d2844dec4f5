//! Nothing crosses the fabric as a tree but the replies that are one.
//!
//! Every in-tree server — the Clearinghouse, the `regd` frontend, both
//! BIND servers and every remotely exported NSM — is put back at its port
//! behind a recorder that notes, per procedure, whether the request
//! reached it as a struct or as a tree, and whether the reply left it as
//! one. Every client method is then driven once, each reading the struct
//! the procedure answers with. The procedures whose requests arrived as
//! trees would be the fabric's untyped remainder; this pins the set
//! empty. The replies that left as trees are the ones that are a bare
//! value — a serial, an acknowledgement, a list — and this pins that set
//! too, so a procedure that goes back to the tree either way is written
//! down here. (The built-in portmapper and exchange listener, which no
//! recorder can stand in front of, answer a bare port number too.)

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
use clearinghouse::server::{
    CH_PROGRAM, PROC_ADD_ALIAS, PROC_ADD_ENTRY, PROC_ADD_MEMBER, PROC_DELETE, PROC_LIST,
    PROC_LOOKUP_RUN, PROC_SET_ITEM,
};
use clearinghouse::ThreePartName;
use hns_core::cache::CacheMode;
use hns_core::colocation::HnsHandle;
use hns_core::name::{HnsName, NameMapping};
use hns_core::nsm::{Nsm, NsmClient, NsmRequest, NsmService, QueryArgs, NSM_PROC_QUERY};
use hns_core::query::QueryClass;
use hns_core::service::Hns;
use hrpc::error::{RpcError, RpcResult};
use hrpc::server::{CallCtx, ReplySlot, RpcService};
use hrpc::{HrpcBinding, ProgramId, RpcNet};
use nsms::file_loc::{FileBindNsm, FileChNsm, FileLocation};
use nsms::harness::{
    DESIRED_SERVICE, DESIRED_SERVICE_PROGRAM, NSM_EXPORT_PROGRAM, NS_BIND, NS_CH, PRINT_SERVICE,
    PRINT_SERVICE_PROGRAM,
};
use nsms::mail::{MailBindNsm, MailChNsm, MailboxLocation};
use nsms::nsm_cache::NsmCacheForm;
use nsms::user_info::{UserBindNsm, UserChNsm, UserInfo};
use nsms::Importer;
use regd::{owner_key, owner_name, RegClient, RegServer, RegTestbed, REG_PROGRAM};
use simnet::topology::HostId;
use wire::{Message, Value, WireResult};

/// `(server, procedure, request arrived as a tree, reply left as one)`,
/// for every call served.
type Log = Arc<Mutex<BTreeSet<(&'static str, u32, bool, bool)>>>;

/// A server put back at its port, noting how each request arrived and
/// each reply left.
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
        ReplySlot::tree(|reply| self.dispatch_msg(ctx, proc_id, args, reply))
    }

    fn dispatch_msg(
        &self,
        ctx: &CallCtx<'_>,
        proc_id: u32,
        args: &dyn Message,
        reply: &mut ReplySlot<'_>,
    ) -> RpcResult<()> {
        let tree = |msg: &dyn Message| msg.downcast_ref::<Value>().is_some();
        self.inner.dispatch_msg(ctx, proc_id, args, reply)?;
        let left = reply.message().expect("a reply was left");
        let entry = (self.label, proc_id, tree(args), tree(left));
        self.log.lock().expect("log").insert(entry);
        Ok(())
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

/// Asks the NSM `FindNSM` names for `qc` about `name`, reading the
/// class's reply struct.
fn ask<T: Message>(
    hns: &Hns,
    nsm: &NsmClient,
    qc: &QueryClass,
    name: HnsName,
    args: QueryArgs,
    decode: fn(&Value) -> WireResult<T>,
) -> T {
    let binding: HrpcBinding = hns.find_nsm(qc, &name).expect("FindNSM");
    let decode = |tree: &Value| Ok::<_, RpcError>(decode(tree)?);
    let request = NsmRequest::new(name, args);
    let call = |reply: &mut ReplySlot<'_>| nsm.call_into(&binding, &request, reply);
    ReplySlot::read(call, decode).expect("NSM call")
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
    std.resolve(&fiji, RType::A).expect("std query");
    std.query_uncached(&fiji, RType::A).expect("uncached query");
    let hrpc = HrpcResolver::new(Arc::clone(net), client, tb.meta_bind.hrpc_binding);
    let origin = &tb.meta_origin;
    hrpc.query(origin, RType::Soa).ok();
    let questions = [Question::new(origin.clone(), RType::Soa)];
    hrpc.mquery(&questions, &[]).expect("mquery");
    let added = ResourceRecord::txt(dn(&format!("probe.{origin}")), 60, "x");
    hrpc.update(&UpdateOp::Add(added)).expect("update");
    let walker = RecursiveResolver::new(Arc::clone(net), client, tb.public_bind.std_binding);
    walker.resolve(&fiji, RType::A).expect("walk");
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
    let path = |p: &str| QueryArgs::from_fields(vec![("path", Value::str(p))]).expect("args");
    let mail = QueryClass::mailbox_location();
    ask(
        &hns,
        &nsm,
        &mail,
        bind("alice.cs.washington.edu"),
        QueryArgs::None,
        MailboxLocation::from_value,
    );
    ask(
        &hns,
        &nsm,
        &mail,
        ch("bob:cs:uw"),
        QueryArgs::None,
        MailboxLocation::from_value,
    );
    let file = QueryClass::file_location();
    let stubs = path("hrpc/stubs.c");
    ask(
        &hns,
        &nsm,
        &file,
        bind("sources.cs.washington.edu"),
        stubs,
        FileLocation::from_value,
    );
    let board = path("dlion/board.dwg");
    ask(
        &hns,
        &nsm,
        &file,
        ch("designs:cs:uw"),
        board,
        FileLocation::from_value,
    );
    let user = QueryClass::user_info();
    ask(
        &hns,
        &nsm,
        &user,
        bind("mfs.cs.washington.edu"),
        QueryArgs::None,
        UserInfo::from_value,
    );
    ask(
        &hns,
        &nsm,
        &user,
        ch("bob:cs:uw"),
        QueryArgs::None,
        UserInfo::from_value,
    );

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
        .filter(|(_, _, tree, _)| *tree)
        .map(|&(label, proc_id, _, _)| (label, proc_id))
        .collect();
    assert_eq!(trees, BTreeSet::new(), "{log:?}");
    // The replies that are a bare value: `SERIAL`'s number, the
    // Clearinghouse's and `regd`'s acknowledgements, and the
    // Clearinghouse's lists.
    let tree_replies: BTreeSet<(&str, u32)> = (log.iter())
        .filter(|(_, _, _, tree)| *tree)
        .map(|&(label, proc_id, _, _)| (label, proc_id))
        .collect();
    let bare = [
        ("bind", PROC_SERIAL),
        ("clearinghouse", PROC_ADD_ENTRY),
        ("clearinghouse", PROC_SET_ITEM),
        ("clearinghouse", PROC_ADD_MEMBER),
        ("clearinghouse", PROC_DELETE),
        ("clearinghouse", PROC_ADD_ALIAS),
        ("clearinghouse", PROC_LIST),
        ("clearinghouse", PROC_LOOKUP_RUN),
        ("regd", regd::server::PROC_UPDATE),
        ("regd", regd::server::PROC_RELEASE),
    ];
    assert_eq!(tree_replies, bare.into(), "{log:?}");
    // And every procedure the clients sent was seen: the recorders stood
    // where the calls went.
    let typed = |label: &str| -> BTreeSet<u32> {
        let typed = log.iter().filter(|(l, _, tree, _)| *l == label && !tree);
        typed.map(|&(_, proc_id, _, _)| proc_id).collect()
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
