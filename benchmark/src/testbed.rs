//! The Testbed workloads' stack: the paper's §3 environment with 1,024
//! registered contexts, driven through `Importer::import`,
//! `Hns::find_nsm` + `NsmClient::call`, and the `regd` write path.
//!
//! `warm_query`, `cold_walk`, `write_mix` and `open_mixed` differ only
//! in [`Config`]: which caches are on, whether the registration
//! frontend is deployed, and the operation mix.

use std::sync::Arc;

use bindns::message::PROC_UPDATE;
use clearinghouse::server::{
    CH_PROGRAM, PROC_ADD_ALIAS, PROC_ADD_ENTRY, PROC_ADD_MEMBER, PROC_DELETE, PROC_SET_ITEM,
};
use hns_core::cache::CacheMode;
use hns_core::colocation::HnsHandle;
use hns_core::error::HnsResult;
use hns_core::name::{Context, HnsName, NameMapping};
use hns_core::nsm::{Nsm, NsmClient, NsmService};
use hns_core::query::QueryClass;
use hns_core::service::Hns;
use hrpc::error::RpcResult;
use hrpc::server::{ProcServer, RpcService};
use hrpc::{HrpcBinding, ProgramId};
use nsms::file_loc::{FileBindNsm, FileChNsm};
use nsms::harness::{
    DeployedBindingNsms, Testbed, DESIRED_SERVICE, DESIRED_SERVICE_PROGRAM, NSM_EXPORT_PROGRAM,
    NS_BIND, NS_CH, PRINT_SERVICE, PRINT_SERVICE_PROGRAM,
};
use nsms::import::Importer;
use nsms::mail::{MailBindNsm, MailChNsm};
use nsms::nsm_cache::NsmCacheForm;
use regd::harness::{owner_key, owner_name, RegTestbed};
use regd::{RegResult, Registry, Resolution};
use simnet::topology::HostId;
use simnet::world::World;
use wire::Value;

use crate::counts::{Counts, C};
use crate::oracle::{fnv, Verdict};
use crate::rng::{Rng, Zipf};
use crate::runner::Stack;
use crate::shim::{self, Target};
use crate::spans::{self, Kind, SpanGuard, Tracer};

/// Registered contexts (even = BIND-backed, odd = Clearinghouse-backed).
pub const CONTEXTS: usize = 1024;
/// Query classes per context: `hrpc_binding`, `mailbox_location`,
/// `file_location`.
pub const CLASSES: usize = 3;
/// Names the registration frontend manages.
pub const REG_NAMES: usize = 64;
/// Owner pool; transfers step through it and reset at the end, so the
/// cycle rule never fires.
pub const REG_OWNERS: usize = 12;
/// Share of writes that are ownership transfers.
const TRANSFER_SHARE: f64 = 0.25;

/// Operation mix as shares of all operations; what the three leave
/// over are `regd` writes (update or transfer).
#[derive(Debug, Clone, Copy)]
pub struct Mix {
    /// Full client query through the warm HNS.
    pub query: f64,
    /// The same query through the cache-disabled HNS.
    pub cold_query: f64,
    /// `Registry::resolve` + `find_nsm` on a registered name.
    pub resolve: f64,
}

#[derive(Debug, Clone, Copy)]
pub struct Config {
    pub hns_mode: CacheMode,
    pub nsm_form: NsmCacheForm,
    pub binding_cache: bool,
    /// Deploy the replicated Clearinghouse + registration frontend.
    pub reg: bool,
    pub mix: Mix,
}

impl Config {
    pub fn warm_query() -> Self {
        Config {
            hns_mode: CacheMode::Demarshalled,
            nsm_form: NsmCacheForm::Demarshalled,
            binding_cache: true,
            reg: false,
            mix: Mix {
                query: 1.0,
                cold_query: 0.0,
                resolve: 0.0,
            },
        }
    }

    pub fn cold_walk() -> Self {
        Config {
            hns_mode: CacheMode::Disabled,
            nsm_form: NsmCacheForm::Disabled,
            binding_cache: false,
            ..Self::warm_query()
        }
    }

    pub fn write_mix() -> Self {
        Config {
            reg: true,
            mix: Mix {
                query: 0.5,
                cold_query: 0.0,
                resolve: 0.2,
            },
            ..Self::warm_query()
        }
    }

    pub fn open_mixed() -> Self {
        Config {
            reg: true,
            mix: Mix {
                query: 0.90,
                cold_query: 0.05,
                resolve: 0.0,
            },
            ..Self::warm_query()
        }
    }
}

/// The two federated name services.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ns {
    Bind,
    Ch,
}

impl Ns {
    fn name(self) -> &'static str {
        match self {
            Ns::Bind => NS_BIND,
            Ns::Ch => NS_CH,
        }
    }

    fn other(self) -> Ns {
        match self {
            Ns::Bind => Ns::Ch,
            Ns::Ch => Ns::Bind,
        }
    }
}

/// One generated operation. Everything the oracle needs to judge the
/// answer travels in the op, fixed when the sequence was generated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Query {
        pair: u16,
        cold: bool,
    },
    Resolve {
        name: u8,
        owner: u8,
        service: Ns,
        depth: u32,
    },
    Update {
        name: u8,
        owner: u8,
        service: Ns,
    },
    /// `from` hands the name to `from + 1`; `depth` is the chain length
    /// afterwards.
    Transfer {
        name: u8,
        from: u8,
        service: Ns,
        depth: u32,
    },
    /// End of the owner pool: release, then re-register to owner 0.
    Reset {
        name: u8,
        from: u8,
    },
}

pub enum Answer {
    Binding(HnsResult<HrpcBinding>),
    Nsm(HnsResult<HrpcBinding>, Option<RpcResult<Value>>),
    Resolved(RegResult<Resolution>, Option<HnsResult<HrpcBinding>>),
    Wrote(RegResult<()>),
    Transferred(RegResult<Resolution>),
}

enum PairKind {
    Binding {
        service: &'static str,
        program: ProgramId,
        host: HostId,
        port: u16,
    },
    Mail {
        nsm: ProgramId,
        mailbox_host: &'static str,
    },
    File {
        nsm: ProgramId,
        path: &'static str,
        file_host: &'static str,
        local_path: &'static str,
    },
}

/// One (context, query class) pair of the universe with the answer the
/// generator expects, from what it deployed and registered.
struct Pair {
    qc: QueryClass,
    name: HnsName,
    kind: PairKind,
}

/// What the generator believes each registered name looks like after
/// the writes it has generated so far.
#[derive(Debug, Clone, Copy)]
struct Held {
    owner: u8,
    service: Ns,
    depth: u32,
}

enum Env {
    Plain(Testbed),
    Reg(RegTestbed),
}

impl Env {
    fn tb(&self) -> &Testbed {
        match self {
            Env::Plain(tb) => tb,
            Env::Reg(r) => &r.tb,
        }
    }
}

pub struct TestbedStack {
    env: Env,
    mix: Mix,
    nsms: DeployedBindingNsms,
    warm: Arc<Hns>,
    cold: Arc<Hns>,
    importer: Importer,
    cold_importer: Importer,
    nsm_client: NsmClient,
    pairs: Vec<Pair>,
    zipf: Zipf,
    reg_names: Vec<String>,
    reg_hns_names: Vec<HnsName>,
    owners: Vec<(String, u64)>,
    held: Vec<Held>,
    tracer: Option<Tracer>,
    query_errors: u64,
    reg_write_errors: u64,
}

fn bind_classify(proc_id: u32) -> Kind {
    if proc_id == PROC_UPDATE {
        Kind::BindUpdateServe
    } else {
        Kind::MetaServe
    }
}

fn ch_classify(proc_id: u32) -> Kind {
    match proc_id {
        PROC_ADD_ENTRY | PROC_SET_ITEM | PROC_ADD_MEMBER | PROC_DELETE | PROC_ADD_ALIAS => {
            Kind::ChWriteServe
        }
        _ => Kind::ChServe,
    }
}

impl TestbedStack {
    /// Builds the world, registers the universe and pre-warms it with
    /// one pass over every pair. With a tracer, every server is put
    /// behind a timing shim before anything is queried.
    pub fn build(config: Config, tracer: Option<Tracer>) -> TestbedStack {
        let env = if config.reg {
            Env::Reg(RegTestbed::build(REG_OWNERS))
        } else {
            Env::Plain(Testbed::build())
        };
        let tb = env.tb();
        let nsm_host = tb.hosts.nsm;
        let nsms = tb.deploy_binding_nsms(nsm_host, config.nsm_form);
        tb.deploy_extension_nsms(nsm_host);
        if let Some(tracer) = &tracer {
            interpose_servers(tb, &nsms, tracer);
        }

        // The answers the generator expects come from what it deployed:
        // the NSM programs by deployment order, the target services'
        // ports from the hosts' own portmapper / exchange tables.
        let nsm_program = |offset: u32| ProgramId(NSM_EXPORT_PROGRAM.0 + offset);
        let desired_port = tb
            .net
            .portmap_getport(tb.hosts.fiji, DESIRED_SERVICE_PROGRAM)
            .expect("DesiredService is exported");
        let print_port = tb
            .net
            .exchange_resolve(tb.hosts.printer, PRINT_SERVICE)
            .expect("PrintService is exported");

        let registrar = tb.make_hns(tb.hosts.meta, CacheMode::Disabled);
        let classes = [
            QueryClass::hrpc_binding(),
            QueryClass::mailbox_location(),
            QueryClass::file_location(),
        ];
        let mut pairs = Vec::with_capacity(CONTEXTS * CLASSES);
        for i in 0..CONTEXTS {
            let ns = if i % 2 == 0 { Ns::Bind } else { Ns::Ch };
            let ctx = Context::new(format!(
                "dept{i}-{}",
                if ns == Ns::Bind { "bind" } else { "ch" }
            ))
            .expect("context name");
            registrar
                .register_context(&ctx, ns.name(), &NameMapping::Identity)
                .expect("register context");
            let kinds = match ns {
                Ns::Bind => [
                    (
                        "fiji.cs.washington.edu",
                        PairKind::Binding {
                            service: DESIRED_SERVICE,
                            program: DESIRED_SERVICE_PROGRAM,
                            host: tb.hosts.fiji,
                            port: desired_port,
                        },
                    ),
                    (
                        "alice.cs.washington.edu",
                        PairKind::Mail {
                            nsm: nsm_program(2),
                            mailbox_host: "fiji.cs.washington.edu",
                        },
                    ),
                    (
                        "sources.cs.washington.edu",
                        PairKind::File {
                            nsm: nsm_program(4),
                            path: "hrpc/stubs.c",
                            file_host: "fiji.cs.washington.edu",
                            local_path: "/usr/src/hrpc/stubs.c",
                        },
                    ),
                ],
                Ns::Ch => [
                    (
                        "printserver:cs:uw",
                        PairKind::Binding {
                            service: PRINT_SERVICE,
                            program: PRINT_SERVICE_PROGRAM,
                            host: tb.hosts.printer,
                            port: print_port,
                        },
                    ),
                    (
                        "bob:cs:uw",
                        PairKind::Mail {
                            nsm: nsm_program(3),
                            mailbox_host: "printserver:cs:uw",
                        },
                    ),
                    (
                        "designs:cs:uw",
                        PairKind::File {
                            nsm: nsm_program(5),
                            path: "dlion/board.dwg",
                            file_host: "printserver:cs:uw",
                            local_path: "/designs/dlion/board.dwg",
                        },
                    ),
                ],
            };
            for (qc, (individual, kind)) in classes.iter().zip(kinds) {
                pairs.push(Pair {
                    qc: qc.clone(),
                    name: HnsName::new(ctx.clone(), individual).expect("hns name"),
                    kind,
                });
            }
        }

        let client = tb.hosts.client;
        let warm = tb.make_hns(client, config.hns_mode);
        warm.set_binding_cache(config.binding_cache);
        let cold = tb.make_hns(client, CacheMode::Disabled);
        let importer = Importer::new(
            Arc::clone(&tb.net),
            client,
            HnsHandle::Linked(Arc::clone(&warm)),
        );
        let cold_importer = Importer::new(
            Arc::clone(&tb.net),
            client,
            HnsHandle::Linked(Arc::clone(&cold)),
        );
        let nsm_client = NsmClient::new(Arc::clone(&tb.net), client);

        let owners: Vec<(String, u64)> = (0..REG_OWNERS)
            .map(|i| (owner_name(i), owner_key(i)))
            .collect();
        let mut reg_names = Vec::new();
        let mut reg_hns_names = Vec::new();
        if let Env::Reg(r) = &env {
            for i in 0..REG_NAMES {
                let name = format!("wsvc{i}");
                r.registry
                    .register(&owners[0].0, owners[0].1, &name, NS_BIND)
                    .expect("register write-path name");
                reg_hns_names.push(
                    HnsName::new(
                        Context::new(&name).expect("registered name is a context"),
                        "fiji.cs.washington.edu",
                    )
                    .expect("hns name"),
                );
                reg_names.push(name);
            }
        }

        let mut stack = TestbedStack {
            held: vec![
                Held {
                    owner: 0,
                    service: Ns::Bind,
                    depth: 0,
                };
                reg_names.len()
            ],
            zipf: Zipf::new(pairs.len(), 1.0),
            env,
            mix: config.mix,
            nsms,
            warm,
            cold,
            importer,
            cold_importer,
            nsm_client,
            pairs,
            reg_names,
            reg_hns_names,
            owners,
            tracer,
            query_errors: 0,
            reg_write_errors: 0,
        };

        // Pre-warm: one pass over every pair (and every registered
        // name), checked like any other answer.
        for pair in 0..stack.pairs.len() {
            stack.expect_ok(&Op::Query {
                pair: pair as u16,
                cold: false,
            });
        }
        for name in 0..stack.reg_names.len() {
            stack.expect_ok(&Op::Resolve {
                name: name as u8,
                owner: 0,
                service: Ns::Bind,
                depth: 0,
            });
        }
        stack.world().clock.set_batched(true);
        stack
    }

    fn expect_ok(&mut self, op: &Op) {
        let answer = self.exec(op);
        if let Verdict::Rejected(why) = self.check(op, answer) {
            panic!("set-up operation {op:?} failed: {why}");
        }
    }

    /// Judges an answer against what the generator registered.
    fn judge(&self, op: &Op, answer: Answer) -> Verdict {
        let nsm_host = self.env.tb().hosts.nsm;
        let fold_binding = |b: &HrpcBinding| {
            u64::from(b.host.0) << 48 | u64::from(b.program.0) << 16 | u64::from(b.port)
        };
        match (op, answer) {
            (Op::Query { pair, .. }, Answer::Binding(got)) => {
                let PairKind::Binding {
                    program,
                    host,
                    port,
                    ..
                } = self.pairs[usize::from(*pair)].kind
                else {
                    return Verdict::Rejected("binding answer for a non-binding pair".into());
                };
                match got {
                    Ok(b) if b.host == host && b.program == program && b.port == port => {
                        Verdict::Ok(fold_binding(&b))
                    }
                    Ok(b) => Verdict::Rejected(format!("import returned {b:?}")),
                    Err(e) => Verdict::Rejected(format!("import: {e}")),
                }
            }
            (Op::Query { pair, .. }, Answer::Nsm(found, reply)) => {
                let binding = match found {
                    Ok(b) => b,
                    Err(e) => return Verdict::Rejected(format!("find_nsm: {e}")),
                };
                let reply = match reply {
                    Some(Ok(v)) => v,
                    Some(Err(e)) => return Verdict::Rejected(format!("nsm call: {e}")),
                    None => return Verdict::Rejected("nsm call skipped".into()),
                };
                let (want_nsm, answered) = match self.pairs[usize::from(*pair)].kind {
                    PairKind::Mail { nsm, mailbox_host } => (
                        nsm,
                        reply
                            .str_field("mailbox_host")
                            .ok()
                            .filter(|got| *got == mailbox_host)
                            .map(|got| fnv(got.as_bytes())),
                    ),
                    PairKind::File {
                        nsm,
                        file_host,
                        local_path,
                        ..
                    } => (
                        nsm,
                        reply
                            .str_field("file_host")
                            .ok()
                            .filter(|got| *got == file_host)
                            .and_then(|host| {
                                let path = reply.str_field("local_path").ok()?;
                                (path == local_path).then(|| {
                                    fnv(host.as_bytes()) ^ fnv(path.as_bytes()).rotate_left(1)
                                })
                            }),
                    ),
                    PairKind::Binding { .. } => {
                        return Verdict::Rejected("nsm answer for a binding pair".into())
                    }
                };
                if binding.host != nsm_host || binding.program != want_nsm {
                    return Verdict::Rejected(format!("find_nsm designated {binding:?}"));
                }
                match answered {
                    Some(fold) => Verdict::Ok(fold_binding(&binding) ^ fold),
                    None => Verdict::Rejected(format!("nsm replied {reply:?}")),
                }
            }
            (
                Op::Resolve {
                    name,
                    owner,
                    service,
                    depth,
                },
                Answer::Resolved(resolved, found),
            ) => {
                let r = match resolved {
                    Ok(r) => r,
                    Err(e) => return Verdict::Rejected(format!("resolve: {e}")),
                };
                if r.name != self.reg_names[usize::from(*name)]
                    || r.owner != self.owners[usize::from(*owner)].0
                    || r.base_owner != self.owners[0].0
                    || r.service != service.name()
                    || r.depth != *depth
                {
                    return Verdict::Rejected(format!("resolve returned {r:?}"));
                }
                // The meta zone was re-bound by the write, but the
                // client's caches may still hold the previous binding
                // until its TTL passes: either binding NSM is valid.
                match found {
                    Some(Ok(b))
                        if b.host == nsm_host
                            && (b.program == NSM_EXPORT_PROGRAM
                                || b.program.0 == NSM_EXPORT_PROGRAM.0 + 1) =>
                    {
                        Verdict::Ok(fold_binding(&b) ^ u64::from(r.depth) << 8 ^ u64::from(*owner))
                    }
                    Some(Ok(b)) => Verdict::Rejected(format!("find_nsm designated {b:?}")),
                    Some(Err(e)) => Verdict::Rejected(format!("find_nsm: {e}")),
                    None => Verdict::Rejected("find_nsm skipped".into()),
                }
            }
            (Op::Update { name, service, .. }, Answer::Wrote(r)) => match r {
                Ok(()) => Verdict::Ok(u64::from(*name) << 8 | *service as u64),
                Err(e) => Verdict::Rejected(format!("update: {e}")),
            },
            (
                Op::Transfer {
                    name,
                    from,
                    service,
                    depth,
                },
                Answer::Transferred(r),
            ) => match r {
                Ok(r)
                    if r.owner == self.owners[usize::from(*from) + 1].0
                        && r.depth == *depth
                        && r.service == service.name() =>
                {
                    Verdict::Ok(u64::from(*name) << 40 | u64::from(*depth) << 8 | u64::from(*from))
                }
                Ok(r) => Verdict::Rejected(format!("transfer returned {r:?}")),
                Err(e) => Verdict::Rejected(format!("transfer: {e}")),
            },
            (Op::Reset { name, .. }, Answer::Transferred(r)) => match r {
                Ok(r) if r.owner == self.owners[0].0 && r.depth == 0 && r.service == NS_BIND => {
                    Verdict::Ok(u64::from(*name) << 40)
                }
                Ok(r) => Verdict::Rejected(format!("re-register returned {r:?}")),
                Err(e) => Verdict::Rejected(format!("release/re-register: {e}")),
            },
            _ => Verdict::Rejected(format!("answer does not belong to {op:?}")),
        }
    }

    fn registry(&self) -> &Registry {
        match &self.env {
            Env::Reg(r) => &r.registry,
            Env::Plain(_) => panic!("this workload has no registration frontend"),
        }
    }

    fn span(&self, kind: Kind) -> Option<SpanGuard<'_>> {
        spans::enter(&self.tracer, kind)
    }
}

impl Stack for TestbedStack {
    type Op = Op;
    type Answer = Answer;

    fn world(&self) -> &Arc<World> {
        &self.env.tb().world
    }

    fn tracer(&self) -> Option<&Tracer> {
        self.tracer.as_ref()
    }

    /// Generates the next `n` operations of the sequence.
    fn gen(&mut self, rng: &mut Rng, n: usize) -> Vec<Op> {
        let mix = self.mix;
        (0..n)
            .map(|_| {
                let x = rng.next_f64();
                if x < mix.query + mix.cold_query {
                    Op::Query {
                        pair: self.zipf.sample(rng) as u16,
                        cold: x >= mix.query,
                    }
                } else {
                    let name = rng.below(self.held.len() as u64) as usize;
                    let h = &mut self.held[name];
                    let name = name as u8;
                    if x < mix.query + mix.cold_query + mix.resolve {
                        Op::Resolve {
                            name,
                            owner: h.owner,
                            service: h.service,
                            depth: h.depth,
                        }
                    } else if rng.next_f64() >= TRANSFER_SHARE {
                        h.service = h.service.other();
                        Op::Update {
                            name,
                            owner: h.owner,
                            service: h.service,
                        }
                    } else if usize::from(h.owner) + 1 < REG_OWNERS {
                        let from = h.owner;
                        h.owner += 1;
                        h.depth += 1;
                        Op::Transfer {
                            name,
                            from,
                            service: h.service,
                            depth: h.depth,
                        }
                    } else {
                        let from = h.owner;
                        *h = Held {
                            owner: 0,
                            service: Ns::Bind,
                            depth: 0,
                        };
                        Op::Reset { name, from }
                    }
                }
            })
            .collect()
    }

    /// Runs one operation against the stack. Nothing is checked here.
    fn exec(&self, op: &Op) -> Answer {
        match *op {
            Op::Query { pair, cold } => {
                let p = &self.pairs[usize::from(pair)];
                let (hns, importer) = if cold {
                    (&self.cold, &self.cold_importer)
                } else {
                    (&self.warm, &self.importer)
                };
                let extra = match p.kind {
                    PairKind::Binding {
                        service, program, ..
                    } => {
                        let _s = self.span(Kind::Import);
                        return Answer::Binding(importer.import(service, program, &p.name));
                    }
                    PairKind::Mail { .. } => Vec::new(),
                    PairKind::File { path, .. } => vec![("path", Value::str(path))],
                };
                let found = {
                    let _s = self.span(Kind::FindNsm);
                    hns.find_nsm(&p.qc, &p.name)
                };
                let reply = found.as_ref().ok().map(|binding| {
                    let _s = self.span(Kind::NsmCall);
                    self.nsm_client.call(binding, &p.name, extra)
                });
                Answer::Nsm(found, reply)
            }
            Op::Resolve { name, .. } => {
                let resolved = {
                    let _s = self.span(Kind::RegResolve);
                    self.registry().resolve(&self.reg_names[usize::from(name)])
                };
                let found = resolved.is_ok().then(|| {
                    let _s = self.span(Kind::FindNsm);
                    self.warm
                        .find_nsm(&self.pairs[0].qc, &self.reg_hns_names[usize::from(name)])
                });
                Answer::Resolved(resolved, found)
            }
            Op::Update {
                name,
                owner,
                service,
            } => {
                let (owner, key) = &self.owners[usize::from(owner)];
                let _s = self.span(Kind::RegUpdate);
                Answer::Wrote(self.registry().update(
                    owner,
                    *key,
                    &self.reg_names[usize::from(name)],
                    service.name(),
                ))
            }
            Op::Transfer { name, from, .. } => {
                let (owner, key) = &self.owners[usize::from(from)];
                let _s = self.span(Kind::RegTransfer);
                Answer::Transferred(self.registry().transfer(
                    owner,
                    *key,
                    &self.reg_names[usize::from(name)],
                    &self.owners[usize::from(from) + 1].0,
                    None,
                ))
            }
            Op::Reset { name, from } => {
                let (owner, key) = &self.owners[usize::from(from)];
                let name = &self.reg_names[usize::from(name)];
                let _s = self.span(Kind::RegTransfer);
                let reg = self.registry();
                Answer::Transferred(reg.release(owner, *key, name).and_then(|()| {
                    reg.register(&self.owners[0].0, self.owners[0].1, name, NS_BIND)
                }))
            }
        }
    }

    fn check(&mut self, op: &Op, answer: Answer) -> Verdict {
        let verdict = self.judge(op, answer);
        if matches!(verdict, Verdict::Rejected(_)) {
            match op {
                Op::Query { .. } | Op::Resolve { .. } => self.query_errors += 1,
                _ => self.reg_write_errors += 1,
            }
        }
        verdict
    }

    /// Reads every public counter the per-layer ledger uses.
    fn counts(&self) -> Counts {
        let world = self.world();
        let metric = |component: &str, name: &str| world.metrics().counter(component, name).value();
        let (bind_hits, bind_misses) = self.nsms.bind.cache_stats();
        let (ch_hits, ch_misses) = self.nsms.ch.cache_stats();
        let net = world.counters();
        let hns = self.warm.cache_stats();
        let binding = self.warm.binding_cache_stats();
        let mut c = Counts::at(world.now().as_ms_f64());
        c[C::RemoteCalls] = net.remote_calls;
        c[C::LocalCalls] = net.local_calls;
        c[C::BytesSent] = net.bytes_sent;
        c[C::HnsHits] = hns.hits;
        c[C::HnsMisses] = hns.misses;
        c[C::HnsExpired] = hns.expired;
        c[C::HnsInserts] = hns.inserts;
        c[C::BindingHits] = binding.hits;
        c[C::BindingMisses] = binding.misses;
        c[C::BindingExpired] = binding.expired;
        c[C::BindingInserts] = binding.inserts;
        c[C::NsmCacheHits] = bind_hits + ch_hits;
        c[C::NsmCacheMisses] = bind_misses + ch_misses;
        c[C::FindNsmCalls] = metric("hns", "find_nsm_calls");
        c[C::FindNsmErrors] = metric("hns", "find_nsm_errors");
        c[C::FindNsmRoundTrips] = metric("hns", "find_nsm_remote_round_trips");
        c[C::NsmQueries] = metric("nsm", "queries");
        c[C::RegResolves] = metric("regd", "resolves");
        c[C::RegCollapseHits] = metric("regd", "collapse_hits");
        c[C::RegChainWalks] = metric("regd", "chain_walks");
        c[C::RegWriteUnreachable] = metric("regd", "write_unreachable");
        c[C::QueryErrors] = self.query_errors;
        c[C::RegWriteErrors] = self.reg_write_errors;
        c
    }
}

/// Puts every deployed server of the testbed behind a timing shim.
fn interpose_servers(tb: &Testbed, nsms: &DeployedBindingNsms, tracer: &Tracer) {
    let host = nsms.host;
    let mut targets = vec![
        Target {
            host: tb.hosts.meta,
            port: tb.meta_bind.hrpc_binding.port,
            program: tb.meta_bind.hrpc_binding.program,
            inner: Arc::clone(&tb.meta_bind.server) as Arc<dyn RpcService>,
            classify: bind_classify,
        },
        Target {
            host: tb.hosts.bind,
            port: tb.public_bind.std_binding.port,
            program: tb.public_bind.std_binding.program,
            inner: Arc::clone(&tb.public_bind.server) as Arc<dyn RpcService>,
            classify: |_| Kind::PublicServe,
        },
        Target {
            host: tb.hosts.ch,
            port: tb.ch.binding.port,
            program: CH_PROGRAM,
            inner: Arc::clone(&tb.ch.server) as Arc<dyn RpcService>,
            classify: ch_classify,
        },
        // Unexporting the servers above also drops the portmapper row
        // of any other host's service on the same port number, and the
        // Sun binding protocol looks DesiredService up there. The
        // harness keeps no handle to the original, so an identical
        // stand-in (never called by any workload) restores the row.
        Target {
            host: tb.hosts.fiji,
            port: tb
                .net
                .portmap_getport(tb.hosts.fiji, DESIRED_SERVICE_PROGRAM)
                .expect("DesiredService is exported"),
            program: DESIRED_SERVICE_PROGRAM,
            inner: Arc::new(
                ProcServer::new(DESIRED_SERVICE)
                    .with_proc(1, |_c, a| Ok(Value::record(vec![("echo", a.clone())]))),
            ),
            classify: |_| Kind::TargetServe,
        },
    ];
    // `deploy_extension_nsms` keeps no handle to the NSMs it exports, so
    // the shims wrap fresh ones built exactly as the harness builds
    // them; nothing has been queried yet, so no cached state is lost.
    let identity = || NameMapping::Identity;
    let nsm_services: [(u32, Arc<dyn Nsm>); 6] = [
        (0, nsms.bind.clone()),
        (1, nsms.ch.clone()),
        (2, MailBindNsm::new(tb.std_resolver(host), identity())),
        (3, MailChNsm::new(tb.ch_client(host), identity())),
        (4, FileBindNsm::new(tb.std_resolver(host), identity())),
        (5, FileChNsm::new(tb.ch_client(host), identity())),
    ];
    for (offset, nsm) in nsm_services {
        let program = ProgramId(NSM_EXPORT_PROGRAM.0 + offset);
        targets.push(Target {
            host,
            port: tb
                .net
                .portmap_getport(host, program)
                .expect("NSM is exported"),
            program,
            inner: NsmService::new(nsm),
            classify: |_| Kind::NsmServe,
        });
    }
    shim::interpose(&tb.net, targets, tracer);
}
