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
use simnet::obs::LazyCounter;
use simnet::topology::HostId;
use simnet::trace::TraceKind;

use hrpc::binding::ProgramId;
use hrpc::error::{RpcError, RpcResult};
use hrpc::net::RpcNet;
use hrpc::server::{CallCtx, Reply, RpcService};
use hrpc::HrpcBinding;
use wire::{Message, Value};

use crate::db::ZoneDb;
use crate::error::{NsError, Rcode};
use crate::message::{
    Answer, MultiAnswer, MultiQuestion, Question, PROC_AXFR, PROC_IXFR, PROC_MQUERY, PROC_QUERY,
    PROC_SERIAL, PROC_UPDATE,
};
use crate::name::DomainName;
use crate::rr::ResourceRecord;
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
    /// Returns additional `(owner name, records)` sets to piggyback onto
    /// the reply. `hints` are opaque client-supplied strings (for the HNS
    /// meta pipeline, the query classes being resolved).
    fn additional(
        &self,
        db: &ZoneDb,
        question: &Question,
        answer: &[ResourceRecord],
        hints: &[String],
    ) -> Vec<(DomainName, Vec<ResourceRecord>)>;
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

    /// Whether dynamic updates are accepted.
    pub fn updates_enabled(&self) -> bool {
        self.allow_updates
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
    ) -> crate::error::NsResult<Vec<ResourceRecord>> {
        self.db.read().lookup(name, rtype)
    }

    /// Mutates the database directly (seeding fixtures).
    pub fn with_db<R>(&self, f: impl FnOnce(&mut ZoneDb) -> R) -> R {
        f(&mut self.db.write())
    }

    /// Answers one question against the database, honoring zone cuts: a
    /// delegation below the authoritative data produces a referral to the
    /// delegated servers rather than an answer.
    fn answer_one(db: &ZoneDb, question: &Question) -> Answer {
        let delegation = db
            .find_zone(&question.name)
            .and_then(|zone| zone.find_delegation(&question.name));
        match delegation {
            Some(records) => Answer {
                rcode: Rcode::Referral,
                records,
            },
            None => Answer::from_result(db.lookup(&question.name, question.rtype)),
        }
    }

    fn serve_query(&self, ctx: &CallCtx<'_>, args: &dyn Message) -> RpcResult<Answer> {
        ctx.world.charge_ms(ctx.world.costs.bind_service);
        ctx.world.count_ns_lookup();
        self.queries
            .get(ctx.world.metrics(), "bindns", "queries")
            .inc();
        let question = args.read(Question::from_value).map_err(service_err)?;
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
        let mq = args.read(MultiQuestion::from_value).map_err(service_err)?;
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
            ctx.world.charge_ms(ctx.world.costs.bind_service);
            ctx.world.count_ns_lookup();
            answers.push(Self::answer_one(&db, question));
        }
        let mut additional = Vec::new();
        let provider = self.additional.read().clone();
        if let Some(provider) = provider {
            if let (Some(question), Some(answer)) = (mq.questions.first(), answers.first()) {
                if answer.rcode == Rcode::Ok {
                    for (_owner, records) in
                        provider.additional(&db, question, &answer.records, &mq.hints)
                    {
                        if records.is_empty() {
                            continue;
                        }
                        ctx.world.charge_ms(ctx.world.costs.bind_service);
                        ctx.world.count_ns_lookup();
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

    fn serve_axfr(&self, ctx: &CallCtx<'_>, args: &Value) -> RpcResult<Value> {
        ctx.world.charge_ms(ctx.world.costs.bind_service);
        ctx.world.metrics().inc("bindns", "zone_transfers");
        let origin = DomainName::parse(args.str_field("origin")?).map_err(service_err)?;
        let db = self.db.read();
        let zone = db
            .zone(&origin)
            .ok_or_else(|| RpcError::NotFound(format!("zone {origin}")))?;
        let records: Result<Vec<Value>, _> = zone
            .all_records()
            .iter()
            .map(ResourceRecord::to_value)
            .collect();
        ctx.world.trace(Some(ctx.host), TraceKind::NameService, || {
            format!(
                "{}: AXFR {} ({} bytes)",
                self.name,
                origin,
                zone.size_bytes()
            )
        });
        Ok(Value::record([
            ("serial", Value::U32(zone.serial())),
            ("size_bytes", Value::U32(zone.size_bytes() as u32)),
            ("records", Value::List(records.map_err(service_err)?)),
        ]))
    }

    /// Incremental transfer: records of names changed since the client's
    /// serial. Reply `mode` is `"unchanged"` (client is current),
    /// `"incremental"` (only changed sets shipped; a changed name whose
    /// records were all removed appears in `removed`), or `"full"` (the
    /// delta log no longer reaches the client's serial — the entire zone
    /// rides back, exactly an AXFR).
    fn serve_ixfr(&self, ctx: &CallCtx<'_>, args: &Value) -> RpcResult<Value> {
        ctx.world.charge_ms(ctx.world.costs.bind_service);
        ctx.world.metrics().inc("bindns", "zone_transfers");
        let origin = DomainName::parse(args.str_field("origin")?).map_err(service_err)?;
        let from_serial = args.u32_field("from_serial")?;
        let db = self.db.read();
        let zone = db
            .zone(&origin)
            .ok_or_else(|| RpcError::NotFound(format!("zone {origin}")))?;
        let serial = zone.serial();
        let (mode, records, removed, size_bytes) = if from_serial == serial {
            ("unchanged", Vec::new(), Vec::new(), 0usize)
        } else {
            match zone.deltas_since(from_serial) {
                Some(changed) => {
                    let mut records: Vec<ResourceRecord> = Vec::new();
                    let mut removed: Vec<DomainName> = Vec::new();
                    for name in changed {
                        match zone.records_at(&name) {
                            Some(set) => records.extend(set),
                            None => removed.push(name),
                        }
                    }
                    let size: usize = records
                        .iter()
                        .map(ResourceRecord::size_bytes)
                        .sum::<usize>()
                        + removed.iter().map(DomainName::wire_len).sum::<usize>();
                    ("incremental", records, removed, size)
                }
                None => {
                    ctx.world.metrics().inc("bindns", "ixfr_fallbacks");
                    ("full", zone.all_records(), Vec::new(), zone.size_bytes())
                }
            }
        };
        ctx.world.trace(Some(ctx.host), TraceKind::NameService, || {
            format!(
                "{}: IXFR {origin} from serial {from_serial} -> {mode} ({size_bytes} bytes)",
                self.name
            )
        });
        let records: Result<Vec<Value>, _> = records.iter().map(ResourceRecord::to_value).collect();
        Ok(Value::record([
            ("serial", Value::U32(serial)),
            ("mode", Value::str(mode)),
            ("size_bytes", Value::U32(size_bytes as u32)),
            ("records", Value::List(records.map_err(service_err)?)),
            (
                "removed",
                Value::List(removed.iter().map(|n| Value::str(n.as_str())).collect()),
            ),
        ]))
    }

    fn serve_update(&self, ctx: &CallCtx<'_>, args: &dyn Message) -> RpcResult<Answer> {
        ctx.world.charge_ms(ctx.world.costs.bind_service);
        self.updates
            .get(ctx.world.metrics(), "bindns", "updates")
            .inc();
        if !self.allow_updates {
            return Ok(Answer::err(Rcode::Refused));
        }
        let op = args.read(UpdateOp::from_value).map_err(service_err)?;
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
        Ok(Answer::from_result(outcome.map(|()| Vec::new())))
    }

    fn serve_serial(&self, ctx: &CallCtx<'_>, args: &Value) -> RpcResult<Value> {
        ctx.world.charge_ms(ctx.world.costs.bind_service);
        let origin = DomainName::parse(args.str_field("origin")?).map_err(service_err)?;
        let db = self.db.read();
        let zone = db
            .zone(&origin)
            .ok_or_else(|| RpcError::NotFound(format!("zone {origin}")))?;
        Ok(Value::U32(zone.serial()))
    }
}

fn service_err(e: NsError) -> RpcError {
    RpcError::Service(e.to_string())
}

impl RpcService for BindServer {
    fn service_name(&self) -> &str {
        &self.name
    }

    fn dispatch(&self, ctx: &CallCtx<'_>, proc_id: u32, args: &Value) -> RpcResult<Value> {
        self.dispatch_msg(ctx, proc_id, args).map(Reply::into_value)
    }

    /// `QUERY`, `MQUERY` and `UPDATE` are served on their structs — this
    /// crate's resolvers send them, and read the struct that comes back;
    /// the transfer procedures have none and stay on the tree.
    fn dispatch_msg(
        &self,
        ctx: &CallCtx<'_>,
        proc_id: u32,
        args: &dyn Message,
    ) -> RpcResult<Reply> {
        match proc_id {
            PROC_QUERY => self.serve_query(ctx, args).map(Reply::typed),
            PROC_MQUERY => self.serve_mquery(ctx, args).map(Reply::typed),
            PROC_UPDATE => self.serve_update(ctx, args).map(Reply::typed),
            PROC_AXFR => self.serve_axfr(ctx, &args.tree()).map(Reply::Tree),
            PROC_IXFR => self.serve_ixfr(ctx, &args.tree()).map(Reply::Tree),
            PROC_SERIAL => self.serve_serial(ctx, &args.tree()).map(Reply::Tree),
            other => Err(RpcError::BadProcedure(other)),
        }
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
        let (reply, took, delta) =
            world.measure(|| net.call(client, &dep.std_binding, PROC_QUERY, &q.to_value()));
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
            .call(client, &dep.std_binding, PROC_QUERY, &q.to_value())
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
        assert!(!dep.server.updates_enabled());
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
            .call(client, &dep.std_binding, PROC_QUERY, &q.to_value())
            .expect("call");
        let answer = Answer::from_value(&reply).expect("decode");
        assert_eq!(answer.records, vec![rr]);
    }

    /// Test provider: for every hint, attaches the A records of
    /// `<hint>.cs.washington.edu` when present.
    struct HintProvider;

    impl AdditionalProvider for HintProvider {
        fn additional(
            &self,
            db: &ZoneDb,
            _question: &Question,
            _answer: &[ResourceRecord],
            hints: &[String],
        ) -> Vec<(DomainName, Vec<ResourceRecord>)> {
            hints
                .iter()
                .filter_map(|hint| {
                    let owner = name(&format!("{hint}.cs.washington.edu"));
                    match db.lookup(&owner, RType::A) {
                        Ok(records) => Some((owner, records)),
                        Err(_) => None,
                    }
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
            .call(client, &dep.hrpc_binding, PROC_MQUERY, &mq.to_value())
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
        let (reply, _, delta) =
            world.measure(|| net.call(client, &dep.hrpc_binding, PROC_MQUERY, &mq.to_value()));
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
            .call(client, &dep.hrpc_binding, PROC_MQUERY, &mq.to_value())
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
