//! The authoritative name server as an RPC service.
//!
//! Two configurations exist, as in the paper:
//!
//! * [`BindServer::conventional`] — serves queries and zone transfers; no
//!   dynamic updates, no `UNSPEC` data. This is the *public* BIND holding
//!   actual naming data.
//! * [`BindServer::modified`] — additionally accepts dynamic updates and
//!   `UNSPEC` records. "The former serves only as a simple repository for
//!   the HNS meta-information, while the latter holds actual naming data"
//!   — note the paper's roles are the reverse wording: the *modified* BIND
//!   is the HNS meta repository.

use std::sync::Arc;

use parking_lot::RwLock;
use simnet::costs::Term;
use simnet::obs::trace::TraceKind;
use simnet::obs::LazyCounter;
use simnet::topology::HostId;

use hrpc::binding::ProgramId;
use hrpc::error::{RpcError, RpcResult};
use hrpc::net::RpcNet;
use hrpc::server::{CallCtx, ReplySlot, RpcService};
use hrpc::HrpcBinding;
use wire::{Message, Value};

use crate::axfr::{IncrementalTransfer, IxfrMode, IxfrRequest, ZoneRequest, ZoneTransfer};
use crate::db::ZoneDb;
use crate::error::{NsError, Rcode};
use crate::message::{
    Answer, MultiAnswer, MultiQuestion, Question, PROC_AXFR, PROC_IXFR, PROC_MQUERY, PROC_QUERY,
    PROC_SERIAL, PROC_UPDATE,
};
use crate::name::DomainName;
use crate::rr::{Records, ResourceRecord};
use crate::update::UpdateOp;
use crate::zone::Zone;

/// Supplies speculative additional record sets for a batched query
/// ([`PROC_MQUERY`]).
///
/// Given the first question and its successful answer, a provider may chase
/// further lookups against the zone database and return the record sets the
/// client is likely to ask for next, so they ride back in the same reply.
/// The server charges one service quantum per returned set — the provider
/// does a real lookup's work; only the per-call transport is elided.
pub trait AdditionalProvider: Send + Sync {
    /// Returns additional record sets, each of its own owner, to
    /// piggyback onto the reply. `hints` are opaque client-supplied
    /// strings (for the HNS meta pipeline, the query classes being
    /// resolved).
    fn additional(
        &self,
        db: &ZoneDb,
        question: &Question,
        answer: &Records,
        hints: &[String],
    ) -> Vec<Records>;
}

/// The Sun-style program number BIND servers are exported under.
pub const BIND_PROGRAM: ProgramId = ProgramId(100_053);
/// Well-known DNS port.
pub const DNS_PORT: u16 = 53;

/// A BIND-like authoritative server.
pub struct BindServer {
    name: String,
    db: RwLock<ZoneDb>,
    allow_updates: bool,
    allow_unspec: bool,
    additional: RwLock<Option<Arc<dyn AdditionalProvider>>>,
    /// Per-call counters (`bindns/queries`, `mqueries`, `updates`),
    /// resolved against the world's registry on first use.
    queries: LazyCounter,
    mqueries: LazyCounter,
    updates: LazyCounter,
}

impl BindServer {
    fn new(name: String, db: ZoneDb, modified: bool) -> Arc<Self> {
        Arc::new(BindServer {
            name,
            db: RwLock::new(db),
            allow_updates: modified,
            allow_unspec: modified,
            additional: RwLock::new(None),
            queries: LazyCounter::new(),
            mqueries: LazyCounter::new(),
            updates: LazyCounter::new(),
        })
    }

    /// A conventional server: queries and transfers only.
    pub fn conventional(name: impl Into<String>, db: ZoneDb) -> Arc<Self> {
        Self::new(name.into(), db, false)
    }

    /// The modified server: dynamic updates + `UNSPEC` data (the HNS meta
    /// repository).
    pub fn modified(name: impl Into<String>, db: ZoneDb) -> Arc<Self> {
        Self::new(name.into(), db, true)
    }

    /// Installs (or replaces) the additional-record provider consulted by
    /// [`PROC_MQUERY`]. Without one, batched queries still answer every
    /// question but piggyback nothing.
    pub fn set_additional_provider(&self, provider: Arc<dyn AdditionalProvider>) {
        *self.additional.write() = Some(provider);
    }

    /// Runs a lookup directly against the database (test/seed access; does
    /// not charge service time).
    pub fn lookup_direct(
        &self,
        name: &DomainName,
        rtype: crate::rr::RType,
    ) -> crate::error::NsResult<Records> {
        self.db.read().lookup(name, rtype)
    }

    /// Mutates the database directly (seeding fixtures).
    pub fn with_db<R>(&self, f: impl FnOnce(&mut ZoneDb) -> R) -> R {
        f(&mut self.db.write())
    }

    /// Answers one question against the database, honoring zone cuts: a
    /// delegation below the authoritative data produces a referral to the
    /// delegated servers rather than an answer. The zone is found once,
    /// for the cut and the lookup both.
    fn answer_one(db: &ZoneDb, question: &Question) -> Answer {
        let name = &question.name;
        let Some(zone) = db.find_zone(name) else {
            return Answer::from_result(Err(NsError::NotAuthoritative(name.to_string())));
        };
        match zone.find_delegation(name) {
            Some(records) => Answer {
                rcode: Rcode::Referral,
                records,
            },
            None => Answer::from_result(zone.lookup(name, question.rtype)),
        }
    }

    fn serve_query(&self, ctx: &CallCtx<'_>, args: &dyn Message) -> RpcResult<Answer> {
        ctx.world.charge(Term::BindLookup);
        self.queries
            .get(ctx.world.metrics(), "bindns", "queries")
            .inc();
        let question = args.read(Question::from_value)?;
        let _span = ctx
            .world
            .span_lazy(Some(ctx.host), TraceKind::NameService, || {
                format!("{}: query {} {}", self.name, question.name, question.rtype)
            });
        let db = self.db.read();
        let answer = Self::answer_one(&db, &question);
        drop(db);
        ctx.world.trace(Some(ctx.host), TraceKind::NameService, || {
            format!(
                "{}: query {} {} -> {:?} ({} records)",
                self.name,
                question.name,
                question.rtype,
                answer.rcode,
                answer.records.len()
            )
        });
        Ok(answer)
    }

    fn serve_mquery(&self, ctx: &CallCtx<'_>, args: &dyn Message) -> RpcResult<MultiAnswer> {
        let mq = args.read(MultiQuestion::from_value)?;
        self.mqueries
            .get(ctx.world.metrics(), "bindns", "mqueries")
            .inc();
        ctx.world
            .metrics()
            .add("bindns", "mquery_questions", mq.questions.len() as u64);
        let _span = ctx
            .world
            .span_lazy(Some(ctx.host), TraceKind::NameService, || {
                format!("{}: mquery ({} questions)", self.name, mq.questions.len())
            });
        let db = self.db.read();
        let mut answers = Vec::with_capacity(mq.questions.len());
        for question in &mq.questions {
            // Each question is a full lookup's work on the server, exactly
            // as if it had arrived alone; the batch elides only transport.
            ctx.world.charge(Term::BindLookup);
            answers.push(Self::answer_one(&db, question));
        }
        let mut additional = Vec::new();
        let provider = self.additional.read().clone();
        if let Some(provider) = provider {
            if let (Some(question), Some(answer)) = (mq.questions.first(), answers.first()) {
                if answer.rcode == Rcode::Ok {
                    for records in provider.additional(&db, question, &answer.records, &mq.hints) {
                        if records.is_empty() {
                            continue;
                        }
                        ctx.world.charge(Term::BindLookup);
                        additional.push(Answer::ok(records));
                    }
                }
            }
        }
        drop(db);
        ctx.world
            .metrics()
            .add("bindns", "chaser_additional_sets", additional.len() as u64);
        ctx.world.trace(Some(ctx.host), TraceKind::NameService, || {
            format!(
                "{}: mquery {} questions -> {} additional sets",
                self.name,
                mq.questions.len(),
                additional.len()
            )
        });
        Ok(MultiAnswer {
            answers,
            additional,
        })
    }

    fn serve_axfr(&self, ctx: &CallCtx<'_>, args: &dyn Message) -> RpcResult<ZoneTransfer> {
        ctx.world.charge(Term::BindService);
        ctx.world.metrics().inc("bindns", "zone_transfers");
        let origin = &args.read(ZoneRequest::from_value)?.origin;
        let db = self.db.read();
        let zone = served_zone(&db, origin)?;
        ctx.world.trace(Some(ctx.host), TraceKind::NameService, || {
            format!(
                "{}: AXFR {} ({} bytes)",
                self.name,
                origin,
                zone.size_bytes()
            )
        });
        Ok(ZoneTransfer {
            serial: zone.serial(),
            size_bytes: zone.size_bytes(),
            records: zone.all_records(),
        })
    }

    /// Incremental transfer: records of names changed since the client's
    /// serial. The reply's mode is [`IxfrMode::Unchanged`] (client is
    /// current), [`IxfrMode::Incremental`] (only changed sets shipped; a
    /// changed name whose records were all removed appears in `removed`),
    /// or [`IxfrMode::Full`] (the delta log no longer reaches the
    /// client's serial — the entire zone rides back, exactly an AXFR).
    fn serve_ixfr(&self, ctx: &CallCtx<'_>, args: &dyn Message) -> RpcResult<IncrementalTransfer> {
        ctx.world.charge(Term::BindService);
        ctx.world.metrics().inc("bindns", "zone_transfers");
        let request = args.read(IxfrRequest::from_value)?;
        let (origin, from_serial) = (&request.origin, request.from_serial);
        let db = self.db.read();
        let zone = served_zone(&db, origin)?;
        let serial = zone.serial();
        let (mode, records, removed, size_bytes) = if from_serial == serial {
            (IxfrMode::Unchanged, Vec::new(), Vec::new(), 0usize)
        } else {
            match zone.deltas_since(from_serial) {
                Some(changed) => {
                    let mut records: Vec<ResourceRecord> = Vec::new();
                    let mut removed: Vec<DomainName> = Vec::new();
                    for name in changed {
                        match zone.records_at(&name) {
                            Some(set) => records.extend(set.whole()),
                            None => removed.push(name),
                        }
                    }
                    let size: usize = records
                        .iter()
                        .map(ResourceRecord::size_bytes)
                        .sum::<usize>()
                        + removed.iter().map(DomainName::wire_len).sum::<usize>();
                    (IxfrMode::Incremental, records, removed, size)
                }
                None => {
                    ctx.world.metrics().inc("bindns", "ixfr_fallbacks");
                    (
                        IxfrMode::Full,
                        zone.all_records(),
                        Vec::new(),
                        zone.size_bytes(),
                    )
                }
            }
        };
        ctx.world.trace(Some(ctx.host), TraceKind::NameService, || {
            format!(
                "{}: IXFR {origin} from serial {from_serial} -> {} ({size_bytes} bytes)",
                self.name,
                mode.as_str()
            )
        });
        Ok(IncrementalTransfer {
            serial,
            mode,
            size_bytes,
            records,
            removed,
        })
    }

    fn serve_update(&self, ctx: &CallCtx<'_>, args: &dyn Message) -> RpcResult<Answer> {
        ctx.world.charge(Term::BindService);
        self.updates
            .get(ctx.world.metrics(), "bindns", "updates")
            .inc();
        if !self.allow_updates {
            return Ok(Answer::err(Rcode::Refused));
        }
        let op = args
            .read(UpdateOp::from_value)
            .map_err(|e| RpcError::Service(e.to_string()))?;
        if op.uses_unspec() && !self.allow_unspec {
            return Ok(Answer::err(Rcode::Refused));
        }
        let mut db = self.db.write();
        let outcome = match db.find_zone_mut(op.target()) {
            Some(zone) => op.apply(zone),
            None => Err(NsError::NotAuthoritative(op.target().to_string())),
        };
        ctx.world.trace(Some(ctx.host), TraceKind::NameService, || {
            format!(
                "{}: update {} -> {:?}",
                self.name,
                op.target(),
                outcome.as_ref().err()
            )
        });
        Ok(Answer::from_result(outcome.map(|()| Records::none())))
    }

    fn serve_serial(&self, ctx: &CallCtx<'_>, args: &dyn Message) -> RpcResult<Value> {
        ctx.world.charge(Term::BindService);
        let origin = &args.read(ZoneRequest::from_value)?.origin;
        Ok(Value::U32(served_zone(&self.db.read(), origin)?.serial()))
    }
}

/// The zone at `origin`, or the `NotFound` a transfer of one not served
/// here fails with.
fn served_zone<'a>(db: &'a ZoneDb, origin: &DomainName) -> RpcResult<&'a Zone> {
    db.zone(origin)
        .ok_or_else(|| RpcError::NotFound(format!("zone {origin}")))
}

impl RpcService for BindServer {
    fn service_name(&self) -> &str {
        &self.name
    }

    fn dispatch(&self, ctx: &CallCtx<'_>, proc_id: u32, args: &Value) -> RpcResult<Value> {
        ReplySlot::tree(|reply| self.dispatch_msg(ctx, proc_id, args, reply))
    }

    /// Every procedure is served on its request struct — this crate's
    /// resolvers and transfer clients send them, and read the struct that
    /// comes back (`SERIAL`'s, a bare number, as a tree).
    fn dispatch_msg(
        &self,
        ctx: &CallCtx<'_>,
        proc_id: u32,
        args: &dyn Message,
        reply: &mut ReplySlot<'_>,
    ) -> RpcResult<()> {
        match proc_id {
            PROC_QUERY => reply.put(self.serve_query(ctx, args)?),
            PROC_MQUERY => reply.put(self.serve_mquery(ctx, args)?),
            PROC_UPDATE => reply.put(self.serve_update(ctx, args)?),
            PROC_AXFR => reply.put(self.serve_axfr(ctx, args)?),
            PROC_IXFR => reply.put(self.serve_ixfr(ctx, args)?),
            PROC_SERIAL => reply.put(self.serve_serial(ctx, args)?),
            other => return Err(RpcError::BadProcedure(other)),
        }
        Ok(())
    }
}

impl std::fmt::Debug for BindServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BindServer")
            .field("name", &self.name)
            .field("zones", &self.db.read().zone_count())
            .field("allow_updates", &self.allow_updates)
            .finish()
    }
}

/// A deployed BIND server: where it lives and how to reach it.
#[derive(Debug, Clone)]
pub struct BindDeployment {
    /// Host the server runs on.
    pub host: HostId,
    /// Binding for the native (standard resolver) path.
    pub std_binding: HrpcBinding,
    /// Binding for the HRPC interface (Raw HRPC over TCP).
    pub hrpc_binding: HrpcBinding,
    /// The server object (for direct seeding in tests and fixtures).
    pub server: Arc<BindServer>,
}

/// Exports `server` on `host` at the well-known DNS port and returns both
/// ways of reaching it.
pub fn deploy(net: &RpcNet, host: HostId, server: Arc<BindServer>) -> BindDeployment {
    net.export_at(
        host,
        DNS_PORT,
        BIND_PROGRAM,
        Arc::clone(&server) as Arc<dyn RpcService>,
    );
    let std_binding = HrpcBinding {
        host,
        addr: simnet::topology::NetAddr::of(host),
        program: BIND_PROGRAM,
        port: DNS_PORT,
        components: hrpc::ComponentSet::native_dns(DNS_PORT),
    };
    let hrpc_binding = HrpcBinding {
        components: hrpc::ComponentSet::raw_tcp(DNS_PORT),
        ..std_binding
    };
    BindDeployment {
        host,
        std_binding,
        hrpc_binding,
        server,
    }
}

/// Convenience: build a server with one zone.
pub fn single_zone_server(name: impl Into<String>, zone: Zone, modified: bool) -> Arc<BindServer> {
    let mut db = ZoneDb::new();
    db.add_zone(zone);
    if modified {
        BindServer::modified(name, db)
    } else {
        BindServer::conventional(name, db)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rr::RType;
    use simnet::topology::NetAddr;
    use simnet::world::World;
    use simnet::HostId;

    fn name(s: &str) -> DomainName {
        DomainName::parse(s).expect("valid name")
    }

    fn setup(modified: bool) -> (Arc<simnet::World>, Arc<RpcNet>, HostId, BindDeployment) {
        let world = World::paper();
        let client = world.add_host("client");
        let server_host = world.add_host("ns.cs.washington.edu");
        let net = RpcNet::new(Arc::clone(&world));
        let mut zone = Zone::new(name("cs.washington.edu"), 3600);
        zone.add(ResourceRecord::a(
            name("fiji.cs.washington.edu"),
            86_400,
            NetAddr::of(HostId(7)),
        ))
        .expect("add");
        let server = single_zone_server("public-bind", zone, modified);
        let deployment = deploy(&net, server_host, server);
        (world, net, client, deployment)
    }

    #[test]
    fn query_over_fabric_returns_records() {
        let (world, net, client, dep) = setup(false);
        let q = Question::new(name("fiji.cs.washington.edu"), RType::A);
        let (reply, ledger) =
            world.measure(|| net.call(client, &dep.std_binding, PROC_QUERY, &q.tree()));
        let took = ledger.total();
        let delta = ledger.counters();
        let answer = Answer::from_value(&reply.expect("call ok")).expect("decode");
        assert_eq!(answer.rcode, Rcode::Ok);
        assert_eq!(answer.records.len(), 1);
        // Native path: 18 (udp) + 8 (service) = 26; marshalling is charged
        // by the resolver layer, not here.
        assert!((took.as_ms_f64() - 26.0).abs() < 1.0, "took {took}");
        assert_eq!(delta.ns_lookups, 1);
    }

    #[test]
    fn missing_name_yields_name_error() {
        let (_world, net, client, dep) = setup(false);
        let q = Question::new(name("ghost.cs.washington.edu"), RType::A);
        let reply = net
            .call(client, &dep.std_binding, PROC_QUERY, &q.tree())
            .expect("call");
        assert_eq!(
            Answer::from_value(&reply).expect("decode").rcode,
            Rcode::NameError
        );
    }

    #[test]
    fn conventional_server_refuses_updates() {
        let (_world, net, client, dep) = setup(false);
        let op = UpdateOp::Add(ResourceRecord::txt(name("new.cs.washington.edu"), 60, "x"));
        let reply = net
            .call(
                client,
                &dep.hrpc_binding,
                PROC_UPDATE,
                &op.to_value().expect("encode"),
            )
            .expect("call");
        assert_eq!(
            Answer::from_value(&reply).expect("decode").rcode,
            Rcode::Refused
        );
    }

    #[test]
    fn modified_server_applies_updates_and_serves_them() {
        let (_world, net, client, dep) = setup(true);
        let rr = ResourceRecord::unspec(name("meta.cs.washington.edu"), 600, b"v".to_vec());
        let op = UpdateOp::Add(rr.clone());
        let reply = net
            .call(
                client,
                &dep.hrpc_binding,
                PROC_UPDATE,
                &op.to_value().expect("encode"),
            )
            .expect("call");
        assert_eq!(Answer::from_value(&reply).expect("decode").rcode, Rcode::Ok);

        let q = Question::new(name("meta.cs.washington.edu"), RType::Unspec);
        let reply = net
            .call(client, &dep.std_binding, PROC_QUERY, &q.tree())
            .expect("call");
        let answer = Answer::from_value(&reply).expect("decode");
        assert_eq!(answer.records.whole().collect::<Vec<_>>(), vec![rr]);
    }

    /// A typed caller reads a reply the at-most-once reply cache kept: the
    /// first reply is lost, the retransmission is answered from the cache
    /// as a tree, and the caller decodes it into the answer a lossless
    /// call reads — the server having run once.
    #[test]
    fn a_typed_caller_reads_a_reply_the_reply_cache_kept() {
        use crate::message::decoded;
        use simnet::faults::{FaultPlan, LEG_REPLY, LEG_REQUEST};
        let question = Question::new(name("fiji.cs.washington.edu"), RType::A);
        let ask = |loss: Option<FaultPlan>| {
            let (world, net, client, dep) = setup(false);
            let components = hrpc::ComponentSet::raw_udp_at_most_once(DNS_PORT);
            let binding = HrpcBinding {
                components,
                ..dep.std_binding
            };
            world.set_faults(loss);
            let decode = decoded(Answer::from_value);
            let answer = net.call_msg(client, &binding, PROC_QUERY, &question, decode);
            let counters = world.metrics().snapshot();
            let served = counters.counter("bindns", "queries");
            let hits = counters.counter("hrpc_net", "reply_cache_hits");
            (answer.expect("answered"), served, hits)
        };
        // The first call on a fresh fabric is xid 1: its first attempt
        // delivers the request and loses the reply, its second delivers
        // both.
        let seed = (0..100_000u64)
            .find(|&s| {
                let plan = FaultPlan::new().loss(0.5, s).clone();
                !plan.drops(1, 1, LEG_REQUEST)
                    && plan.drops(1, 1, LEG_REPLY)
                    && !plan.drops(1, 2, LEG_REQUEST)
                    && !plan.drops(1, 2, LEG_REPLY)
            })
            .expect("a drop-reply-only seed exists");
        let (lossless, served, hits) = ask(None);
        assert_eq!((lossless.rcode, served, hits), (Rcode::Ok, Some(1), None));
        let (retransmitted, served, hits) = ask(Some(FaultPlan::new().loss(0.5, seed).clone()));
        assert_eq!(retransmitted, lossless);
        assert_eq!(served, Some(1), "the server ran once");
        assert_eq!(
            hits,
            Some(1),
            "the retransmission came from the reply cache"
        );
    }

    /// Test provider: for every hint, attaches the A records of
    /// `<hint>.cs.washington.edu` when present.
    struct HintProvider;

    impl AdditionalProvider for HintProvider {
        fn additional(
            &self,
            db: &ZoneDb,
            _question: &Question,
            _answer: &Records,
            hints: &[String],
        ) -> Vec<Records> {
            hints
                .iter()
                .filter_map(|hint| {
                    let owner = name(&format!("{hint}.cs.washington.edu"));
                    db.lookup(&owner, RType::A).ok()
                })
                .collect()
        }
    }

    #[test]
    fn mquery_without_provider_answers_each_question() {
        let (_world, net, client, dep) = setup(false);
        let mq = MultiQuestion::new(
            vec![
                Question::new(name("fiji.cs.washington.edu"), RType::A),
                Question::new(name("ghost.cs.washington.edu"), RType::A),
            ],
            vec!["fiji".to_string()],
        );
        let reply = net
            .call(client, &dep.hrpc_binding, PROC_MQUERY, &mq.tree())
            .expect("call");
        let multi = MultiAnswer::from_value(&reply).expect("decode");
        assert_eq!(multi.answers.len(), 2);
        assert_eq!(multi.answers[0].rcode, Rcode::Ok);
        assert_eq!(multi.answers[1].rcode, Rcode::NameError);
        assert!(multi.additional.is_empty());
    }

    #[test]
    fn mquery_provider_piggybacks_additional_sets() {
        let (world, net, client, dep) = setup(true);
        dep.server.with_db(|db| {
            db.find_zone_mut(&name("tonga.cs.washington.edu"))
                .expect("zone")
                .add(ResourceRecord::a(
                    name("tonga.cs.washington.edu"),
                    86_400,
                    NetAddr::of(HostId(8)),
                ))
                .expect("add");
        });
        dep.server.set_additional_provider(Arc::new(HintProvider));
        let mq = MultiQuestion::new(
            vec![Question::new(name("fiji.cs.washington.edu"), RType::A)],
            vec!["tonga".to_string(), "missing".to_string()],
        );
        let (reply, ledger) =
            world.measure(|| net.call(client, &dep.hrpc_binding, PROC_MQUERY, &mq.tree()));
        let delta = ledger.counters();
        let multi = MultiAnswer::from_value(&reply.expect("call")).expect("decode");
        assert_eq!(multi.answers.len(), 1);
        assert_eq!(multi.additional.len(), 1, "one hint resolves");
        assert_eq!(multi.additional[0].records.len(), 1);
        assert_eq!(delta.remote_calls, 1);
        // One lookup for the question, one for the attached set; the
        // unresolvable hint is probed by the provider but not charged as an
        // answered set.
        assert_eq!(delta.ns_lookups, 2);
    }

    #[test]
    fn mquery_skips_additional_when_primary_fails() {
        let (_world, net, client, dep) = setup(true);
        dep.server.set_additional_provider(Arc::new(HintProvider));
        let mq = MultiQuestion::new(
            vec![Question::new(name("ghost.cs.washington.edu"), RType::A)],
            vec!["fiji".to_string()],
        );
        let reply = net
            .call(client, &dep.hrpc_binding, PROC_MQUERY, &mq.tree())
            .expect("call");
        let multi = MultiAnswer::from_value(&reply).expect("decode");
        assert_eq!(multi.answers[0].rcode, Rcode::NameError);
        assert!(
            multi.additional.is_empty(),
            "no speculation off a failed primary"
        );
    }

    #[test]
    fn serial_and_axfr_expose_zone_state() {
        let (_world, net, client, dep) = setup(true);
        let origin_args = Value::record([("origin", Value::str("cs.washington.edu"))]);
        let serial0 = net
            .call(client, &dep.hrpc_binding, PROC_SERIAL, &origin_args)
            .expect("serial")
            .as_u32()
            .expect("u32");

        let op = UpdateOp::Add(ResourceRecord::txt(name("a.cs.washington.edu"), 60, "x"));
        net.call(
            client,
            &dep.hrpc_binding,
            PROC_UPDATE,
            &op.to_value().expect("encode"),
        )
        .expect("update");

        let serial1 = net
            .call(client, &dep.hrpc_binding, PROC_SERIAL, &origin_args)
            .expect("serial")
            .as_u32()
            .expect("u32");
        assert!(serial1 > serial0);

        let xfer = net
            .call(client, &dep.hrpc_binding, PROC_AXFR, &origin_args)
            .expect("axfr");
        let records = xfer
            .field("records")
            .and_then(Value::as_list)
            .expect("records");
        assert_eq!(records.len(), 2);
        assert!(xfer.u32_field("size_bytes").expect("size") > 0);
    }

    #[test]
    fn axfr_of_unknown_zone_fails() {
        let (_world, net, client, dep) = setup(true);
        let args = Value::record([("origin", Value::str("mit.edu"))]);
        assert!(matches!(
            net.call(client, &dep.hrpc_binding, PROC_AXFR, &args),
            Err(RpcError::NotFound(_))
        ));
    }

    #[test]
    fn update_outside_authority_is_not_auth() {
        let (_world, net, client, dep) = setup(true);
        let op = UpdateOp::Add(ResourceRecord::txt(name("x.mit.edu"), 60, "x"));
        let reply = net
            .call(
                client,
                &dep.hrpc_binding,
                PROC_UPDATE,
                &op.to_value().expect("encode"),
            )
            .expect("call");
        assert_eq!(
            Answer::from_value(&reply).expect("decode").rcode,
            Rcode::NotAuth
        );
    }

    #[test]
    fn bad_procedure_rejected() {
        let (_world, net, client, dep) = setup(false);
        assert!(matches!(
            net.call(client, &dep.std_binding, 99, &Value::Void),
            Err(RpcError::BadProcedure(99))
        ));
    }
}
