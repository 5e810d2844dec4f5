//! Naming Semantics Managers.
//!
//! "Each NSM understands the semantics of naming for a particular query
//! class and a particular name service. ... All NSMs for a particular
//! query class have identical client interfaces." The trait below is that
//! interface; concrete NSMs (for BIND, for the Clearinghouse, per query
//! class) live in the `nsms` crate.
//!
//! "The NSMs are neither HNS nor application code per se. Rather, they are
//! code managed by the HNS and shared by the applications."

use std::borrow::Cow;
use std::sync::Arc;

use simnet::costs::Term;
use simnet::obs::trace::TraceKind;
use simnet::obs::LazyCounter;
use simnet::topology::{HostId, NetAddr};

use hrpc::error::{RpcError, RpcResult};
use hrpc::net::RpcNet;
use hrpc::server::{CallCtx, ReplySlot, RpcService};
use hrpc::{ComponentSet, HrpcBinding, ProgramId};
use wire::message::{Shape, Shaped};
use wire::{Message, Value, WireError, WireResult};

use crate::error::{HnsError, HnsResult};
use crate::meta::META_TTL;
use crate::name::{Context, HnsName};
use crate::query::QueryClass;

/// The single NSM procedure: perform a query.
pub const NSM_PROC_QUERY: u32 = 1;

/// The standard argument record, the one message every call made for an
/// HNS query carries: the query class when the callee serves them all
/// (the HNS, an agent — an NSM serves one and is sent none), the HNS name
/// as `context` and `name`, then the query class's own fields.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NsmRequest {
    /// The query class, for a callee that serves them all.
    pub query_class: Option<QueryClass>,
    /// The HNS name asked about.
    pub name: HnsName,
    /// The query class's own fields.
    pub args: QueryArgs,
}

/// A query class's own fields, in wire order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryArgs {
    /// None: `MailboxLocation`, `UserInfo`, `HostAddress`, `FindNSM`.
    None,
    /// `HRPCBinding`'s: the service to bind to, and its program.
    Binding {
        /// The service's name.
        service: String,
        /// The service's program number.
        program: ProgramId,
    },
    /// `FileLocation`'s: the file's path under its volume.
    File {
        /// The path.
        path: String,
    },
}

fn missing(field: &str) -> RpcError {
    RpcError::Wire(WireError::FieldMissing(field.to_string()))
}

impl NsmRequest {
    /// A request to an NSM, which serves one query class and is sent none.
    pub fn new(name: HnsName, args: QueryArgs) -> NsmRequest {
        NsmRequest {
            query_class: None,
            name,
            args,
        }
    }

    /// The query class a callee that serves them all was asked for; its
    /// absence is that callee's first complaint.
    pub fn class(&self) -> RpcResult<&QueryClass> {
        self.query_class
            .as_ref()
            .ok_or_else(|| missing("query_class"))
    }

    /// Decodes the record from an untyped peer's tree. Fields of a query
    /// class this record has no place for are not read.
    pub fn from_value(v: &Value) -> RpcResult<NsmRequest> {
        let service_err = |e: HnsError| RpcError::Service(e.to_string());
        let query_class = match v.field("query_class") {
            Ok(class) => Some(QueryClass::new(class.as_str()?)),
            Err(_) => None,
        };
        let context = Context::new(v.str_field("context")?).map_err(service_err)?;
        let name = HnsName::new(context, v.str_field("name")?).map_err(service_err)?;
        let args = QueryArgs::read(|field| v.field(field).ok().map(Cow::Borrowed))?;
        Ok(NsmRequest {
            query_class,
            name,
            args,
        })
    }
}

impl Shaped for NsmRequest {
    fn shape<S: Shape>(&self, s: &S) -> S::Out {
        let context = ("context", s.str(self.name.context.as_str()));
        let name = ("name", s.str(&self.name.individual));
        let class = |qc: &QueryClass| ("query_class", s.str(qc.as_str()));
        let binding = |service: &str, program: ProgramId| {
            [("service", s.str(service)), ("program", s.u32(program.0))]
        };
        match (&self.query_class, &self.args) {
            (None, QueryArgs::None) => s.record([context, name]),
            (Some(qc), QueryArgs::None) => s.record([class(qc), context, name]),
            (None, QueryArgs::Binding { service, program }) => {
                let [service, program] = binding(service, *program);
                s.record([context, name, service, program])
            }
            (Some(qc), QueryArgs::Binding { service, program }) => {
                let [service, program] = binding(service, *program);
                s.record([class(qc), context, name, service, program])
            }
            (None, QueryArgs::File { path }) => s.record([context, name, ("path", s.str(path))]),
            (Some(qc), QueryArgs::File { path }) => {
                s.record([class(qc), context, name, ("path", s.str(path))])
            }
        }
    }
}

impl QueryArgs {
    /// The class's own fields as a caller of [`NsmClient::call`] or
    /// [`crate::colocation::AgentClient::query`] names them, each moved
    /// out of the caller's vector rather than copied.
    pub fn from_fields(mut fields: Vec<(&str, Value)>) -> WireResult<QueryArgs> {
        QueryArgs::read(|field| {
            let at = fields.iter().position(|(k, _)| *k == field)?;
            Some(Cow::Owned(fields.swap_remove(at).1))
        })
    }

    /// Reads the fields `field` finds by name: `service` and `program`
    /// are an `HRPCBinding` query's, `path` a `FileLocation` query's; a
    /// query with neither has none. A text field `field` hands over owned
    /// is moved, one it lends is copied.
    fn read<'a>(mut field: impl FnMut(&str) -> Option<Cow<'a, Value>>) -> WireResult<QueryArgs> {
        fn text(value: Cow<'_, Value>) -> WireResult<String> {
            match value {
                Cow::Borrowed(value) => value.as_str().map(str::to_string),
                Cow::Owned(value) => value.into_str(),
            }
        }
        if let Some(service) = field("service") {
            let program = field("program")
                .ok_or_else(|| WireError::FieldMissing("program".into()))?
                .as_u32()?;
            return Ok(QueryArgs::Binding {
                service: text(service)?,
                program: ProgramId(program),
            });
        }
        match field("path") {
            Some(path) => Ok(QueryArgs::File { path: text(path)? }),
            None => Ok(QueryArgs::None),
        }
    }

    /// An `HRPCBinding` query's service and program.
    pub fn binding(&self) -> RpcResult<(&str, ProgramId)> {
        match self {
            QueryArgs::Binding { service, program } => Ok((service, *program)),
            _ => Err(missing("service")),
        }
    }

    /// A `FileLocation` query's path.
    pub fn path(&self) -> RpcResult<&str> {
        match self {
            QueryArgs::File { path } => Ok(path),
            _ => Err(missing("path")),
        }
    }
}

/// The `HostAddress` query class's standard reply: the host, and the
/// seconds the answer may be kept.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HostAddress {
    /// The host.
    pub host: HostId,
    /// Seconds the answer may be kept.
    pub ttl: u32,
}

impl HostAddress {
    /// Decodes an untyped NSM's reply; one that states no TTL may be kept
    /// as long as a meta record.
    pub fn from_value(v: &Value) -> WireResult<HostAddress> {
        Ok(HostAddress {
            host: HostId(v.u32_field("host")?),
            ttl: v.u32_field("ttl").unwrap_or(META_TTL),
        })
    }
}

impl Shaped for HostAddress {
    fn shape<S: Shape>(&self, s: &S) -> S::Out {
        s.record([("host", s.u32(self.host.0)), ("ttl", s.u32(self.ttl))])
    }
}

/// A Naming Semantics Manager.
pub trait Nsm: Send + Sync {
    /// Globally unique NSM name (registered in the HNS meta store).
    fn nsm_name(&self) -> &str;

    /// The query class this NSM serves.
    fn query_class(&self) -> QueryClass;

    /// Handles one query. `request.name` is the original HNS name; the
    /// NSM translates the individual name to the local name, interrogates
    /// its name service, and leaves the query class's standard reply in
    /// `reply` — its struct ([`ReplySlot::put`]), for a typed caller to
    /// read as it is.
    fn handle(&self, request: &NsmRequest, reply: &mut ReplySlot<'_>) -> RpcResult<()>;
}

/// Adapts an [`Nsm`] into an RPC service so it can be exported remotely.
pub struct NsmService {
    inner: Arc<dyn Nsm>,
    queries: LazyCounter,
}

impl NsmService {
    /// Wraps an NSM.
    pub fn new(inner: Arc<dyn Nsm>) -> Arc<Self> {
        Arc::new(NsmService {
            inner,
            queries: LazyCounter::new(),
        })
    }

    /// Exports `nsm` on `host` under `program` and returns the binding it
    /// now answers at — the half of registering an NSM that touches no
    /// meta record (see [`crate::service::Hns::deploy_nsm`] for the whole).
    pub fn export(
        net: &RpcNet,
        host: HostId,
        program: ProgramId,
        nsm: Arc<dyn Nsm>,
    ) -> HrpcBinding {
        let port = net.export(host, program, NsmService::new(nsm));
        HrpcBinding {
            host,
            addr: NetAddr::of(host),
            program,
            port,
            components: EXPORT_SUITE.components(port),
        }
    }
}

impl RpcService for NsmService {
    fn service_name(&self) -> &str {
        self.inner.nsm_name()
    }

    fn dispatch(&self, ctx: &CallCtx<'_>, proc_id: u32, args: &Value) -> RpcResult<Value> {
        ReplySlot::tree(|reply| self.dispatch_msg(ctx, proc_id, args, reply))
    }

    /// Served on the [`NsmRequest`]: a caller's own, or decoded from the
    /// tree of a caller that sent one.
    fn dispatch_msg(
        &self,
        ctx: &CallCtx<'_>,
        proc_id: u32,
        args: &dyn Message,
        reply: &mut ReplySlot<'_>,
    ) -> RpcResult<()> {
        if proc_id != NSM_PROC_QUERY {
            return Err(RpcError::BadProcedure(proc_id));
        }
        let request = args.read(NsmRequest::from_value)?;
        self.queries
            .get(ctx.world.metrics(), "nsm", "queries")
            .inc();
        let name = &request.name;
        ctx.world.trace(Some(ctx.host), TraceKind::Nsm, || {
            format!("{}: query for {}", self.inner.nsm_name(), name)
        });
        let span = ctx.world.span_lazy(Some(ctx.host), TraceKind::Nsm, || {
            format!("NSM {} handles {}", self.inner.nsm_name(), name)
        });
        let result = self.inner.handle(&request, reply);
        drop(span);
        result
    }
}

impl std::fmt::Debug for NsmService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NsmService")
            .field("nsm", &self.inner.nsm_name())
            .finish()
    }
}

/// Client-side helper for calling NSMs through the identical per-query-class
/// interface.
pub struct NsmClient {
    net: Arc<RpcNet>,
    host: HostId,
    client_calls: LazyCounter,
}

impl NsmClient {
    /// Creates a client for code running on `host`.
    pub fn new(net: Arc<RpcNet>, host: HostId) -> Self {
        NsmClient {
            net,
            host,
            client_calls: LazyCounter::new(),
        }
    }

    /// Calls the NSM designated by `binding` with the original HNS name
    /// and the query class's own fields, and reads its reply as a tree:
    /// [`NsmClient::call_into`] for a caller that names fields and reads
    /// trees.
    pub fn call(
        &self,
        binding: &HrpcBinding,
        hns_name: &HnsName,
        extra: Vec<(&'static str, Value)>,
    ) -> RpcResult<Value> {
        let request = NsmRequest::new(hns_name.clone(), QueryArgs::from_fields(extra)?);
        ReplySlot::tree(|reply| self.call_into(binding, &request, reply))
    }

    /// Sends `request` to the NSM designated by `binding`, which leaves
    /// its reply in the caller's `reply` slot.
    pub fn call_into(
        &self,
        binding: &HrpcBinding,
        request: &NsmRequest,
        reply: &mut ReplySlot<'_>,
    ) -> RpcResult<()> {
        let world = self.net.world();
        self.client_calls
            .get(world.metrics(), "nsm", "client_calls")
            .inc();
        if !world.topology.colocated(self.host, binding.host) {
            // Marshalling of the NSM interface arguments on a remote hop.
            world.charge(Term::NsmArgMarshal);
        }
        self.net
            .call_into(self.host, binding, NSM_PROC_QUERY, request, reply)
    }
}

impl std::fmt::Debug for NsmClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NsmClient")
            .field("host", &self.host)
            .finish()
    }
}

/// The suite every NSM export answers ([`NsmService::export`]).
pub(crate) const EXPORT_SUITE: SuiteTag = SuiteTag::Sun;

/// The RPC suite an NSM is reachable through, as stored in the meta store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SuiteTag {
    /// Sun RPC.
    Sun,
    /// Courier.
    Courier,
    /// Raw HRPC over TCP.
    RawTcp,
    /// Raw HRPC over UDP.
    RawUdp,
}

impl SuiteTag {
    /// Meta-store spelling.
    pub fn encode(self) -> &'static str {
        match self {
            SuiteTag::Sun => "sun",
            SuiteTag::Courier => "courier",
            SuiteTag::RawTcp => "rawtcp",
            SuiteTag::RawUdp => "rawudp",
        }
    }

    /// Parses the meta-store spelling.
    pub fn decode(s: &str) -> HnsResult<SuiteTag> {
        match s {
            "sun" => Ok(SuiteTag::Sun),
            "courier" => Ok(SuiteTag::Courier),
            "rawtcp" => Ok(SuiteTag::RawTcp),
            "rawudp" => Ok(SuiteTag::RawUdp),
            other => Err(HnsError::BadMetaRecord(format!("bad suite `{other}`"))),
        }
    }

    /// The component set for calling an NSM at a known port.
    pub fn components(self, port: u16) -> ComponentSet {
        match self {
            SuiteTag::Sun => ComponentSet {
                binding: hrpc::BindingProtocol::StaticPort(port),
                ..ComponentSet::sun()
            },
            SuiteTag::Courier => ComponentSet {
                binding: hrpc::BindingProtocol::StaticPort(port),
                ..ComponentSet::courier()
            },
            SuiteTag::RawTcp => ComponentSet::raw_tcp(port),
            SuiteTag::RawUdp => ComponentSet::raw_udp(port),
        }
    }
}

/// Registration-time description of an NSM: its registered name and the
/// "binding information" mapping 3 of `FindNSM` retrieves under it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NsmInfo {
    /// The NSM's registered name.
    pub nsm_name: String,
    /// What its six records say.
    pub binding: NsmBinding,
}

impl NsmInfo {
    /// Number of resource records this info occupies in the meta store.
    pub const RECORDS: usize = 6;
}

/// What mapping 3's six records say ("contains, among other information,
/// the host name on which the NSM resides"): an NSM's binding less the
/// name it is registered under, which keys the records and is not in
/// them — so one decoded set serves whoever asks, under whatever spelling
/// of the name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NsmBinding {
    /// Host name the NSM runs on — itself an HNS-resolvable name.
    pub host_name: String,
    /// Context in which `host_name` is interpreted.
    pub host_context: Context,
    /// Exported program number.
    pub program: ProgramId,
    /// Exported port.
    pub port: u16,
    /// RPC suite to call it with.
    pub suite: SuiteTag,
    /// Interface version.
    pub version: u32,
    /// Administrative owner (who registered it).
    pub owner: String,
}

impl NsmBinding {
    /// Encodes into the six meta-store record payloads.
    pub fn to_records(&self) -> Vec<String> {
        vec![
            format!("host={}", self.host_name),
            format!("hostctx={}", self.host_context),
            format!("prog={};port={}", self.program.0, self.port),
            format!("suite={}", self.suite.encode()),
            format!("ver={}", self.version),
            format!("owner={}", self.owner),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::meta::{Kind, MetaRecord};

    struct EchoNsm;

    impl Nsm for EchoNsm {
        fn nsm_name(&self) -> &str {
            "nsm-echo"
        }
        fn query_class(&self) -> QueryClass {
            QueryClass::new("Echo")
        }
        /// An untyped NSM: it answers with a tree.
        fn handle(&self, request: &NsmRequest, reply: &mut ReplySlot<'_>) -> RpcResult<()> {
            reply.put(Value::str(&*request.name.individual));
            Ok(())
        }
    }

    fn info() -> NsmInfo {
        NsmInfo {
            nsm_name: "nsm-hrpcbinding-bind".into(),
            binding: NsmBinding {
                host_name: "june.cs.washington.edu".into(),
                host_context: Context::new("bind-uw").expect("ctx"),
                program: ProgramId(300_001),
                port: 1025,
                suite: SuiteTag::Sun,
                version: 1,
                owner: "hcs-project".into(),
            },
        }
    }

    #[test]
    fn info_occupies_six_records() {
        let records = info().binding.to_records();
        assert_eq!(records.len(), NsmInfo::RECORDS);
    }

    #[test]
    fn info_roundtrips_through_records() {
        let i = info();
        let records = i.binding.to_records();
        let back = MetaRecord::decode(Kind::NsmInfo, &records).expect("decode");
        assert_eq!(back.as_nsm_info().expect("binding"), &i.binding);
    }

    #[test]
    fn info_rejects_missing_fields() {
        let records = vec!["host=x".to_string()];
        assert!(MetaRecord::decode(Kind::NsmInfo, &records).is_err());
        let records = vec!["bogus".to_string()];
        assert!(MetaRecord::decode(Kind::NsmInfo, &records).is_err());
        let records = vec!["mystery=1".to_string()];
        assert!(MetaRecord::decode(Kind::NsmInfo, &records).is_err());
    }

    #[test]
    fn suite_tags_roundtrip() {
        for tag in [
            SuiteTag::Sun,
            SuiteTag::Courier,
            SuiteTag::RawTcp,
            SuiteTag::RawUdp,
        ] {
            assert_eq!(SuiteTag::decode(tag.encode()).expect("decode"), tag);
        }
        assert!(SuiteTag::decode("smoke-signals").is_err());
    }

    #[test]
    fn suite_components_use_static_port() {
        for tag in [
            SuiteTag::Sun,
            SuiteTag::Courier,
            SuiteTag::RawTcp,
            SuiteTag::RawUdp,
        ] {
            let c = tag.components(4242);
            assert_eq!(c.binding, hrpc::BindingProtocol::StaticPort(4242));
        }
    }

    /// The parent's `encode_args`, kept as the reference the request's
    /// shape is held to: the query class when given, `context`, `name`,
    /// then the class's own fields as the caller listed them.
    fn encode_args(
        qc: Option<&QueryClass>,
        hns_name: &HnsName,
        extra: Vec<(&'static str, Value)>,
    ) -> Value {
        let qc = qc.map(|qc| ("query_class", Value::str(qc.as_str())));
        let mut fields = Vec::with_capacity(usize::from(qc.is_some()) + 2 + extra.len());
        fields.extend(qc);
        fields.push(("context", Value::str(hns_name.context.as_str())));
        fields.push(("name", Value::str(&*hns_name.individual)));
        fields.extend(extra);
        Value::record(fields)
    }

    fn every_request() -> Vec<(NsmRequest, Vec<(&'static str, Value)>)> {
        let name = HnsName::new(Context::new("Bind-UW").expect("ctx"), "fiji").expect("name");
        let binding = QueryArgs::Binding {
            service: "DesiredService".into(),
            program: ProgramId(100_005),
        };
        let binding_fields = vec![
            ("service", Value::str("DesiredService")),
            ("program", Value::U32(100_005)),
        ];
        let file = QueryArgs::File {
            path: "hrpc/stubs.c".into(),
        };
        let file_fields = vec![("path", Value::str("hrpc/stubs.c"))];
        let mut all = Vec::new();
        for class in [None, Some(QueryClass::hrpc_binding())] {
            for (args, fields) in [
                (QueryArgs::None, vec![]),
                (binding.clone(), binding_fields.clone()),
                (file.clone(), file_fields.clone()),
            ] {
                let request = NsmRequest {
                    query_class: class.clone(),
                    name: name.clone(),
                    args,
                };
                all.push((request, fields));
            }
        }
        all
    }

    /// To an NSM no query class, to the HNS or an agent the class first;
    /// either way the tree the parent built by hand, the length its
    /// encoding has, and the request back when decoded.
    #[test]
    fn the_request_is_the_record_the_parent_built_by_hand() {
        for (request, fields) in every_request() {
            let by_hand = encode_args(request.query_class.as_ref(), &request.name, fields.clone());
            assert_eq!(request.tree().into_owned(), by_hand, "{request:?}");
            for format in [wire::WireFormat::Xdr, wire::WireFormat::Courier] {
                let bytes = format.encode(&by_hand).expect("encodes");
                assert_eq!(request.encoded_len(format), Ok(bytes.len()), "{format}");
            }
            assert_eq!(NsmRequest::from_value(&by_hand).as_ref(), Ok(&request));
            assert_eq!(QueryArgs::from_fields(fields), Ok(request.args.clone()));
        }
    }

    #[test]
    fn a_request_says_what_it_lacks() {
        let (to_nsm, _) = every_request().swap_remove(0);
        let missing = to_nsm.class().unwrap_err();
        assert!(missing.to_string().contains("query_class"), "{missing}");
        for (absent, got) in [
            ("service", to_nsm.args.binding().map(|_| ())),
            ("path", to_nsm.args.path().map(|_| ())),
        ] {
            assert!(got.unwrap_err().to_string().contains(absent));
        }
        // A nameless record; a service without its program; a path that
        // is no string.
        assert!(NsmRequest::from_value(&Value::record([("name", Value::str("n"))])).is_err());
        let half = vec![("service", Value::str("S"))];
        assert!(QueryArgs::from_fields(half).is_err());
        assert!(QueryArgs::from_fields(vec![("path", Value::U32(1))]).is_err());
        // A field no query class takes is not read.
        let odd = vec![("flavour", Value::str("vanilla"))];
        assert_eq!(QueryArgs::from_fields(odd), Ok(QueryArgs::None));
    }

    /// The reply the parent's host-address NSMs built by hand; one that
    /// states no TTL is kept as long as a meta record.
    #[test]
    fn a_host_address_is_the_record_built_by_hand() {
        let reply = HostAddress {
            host: HostId(7),
            ttl: 86_400,
        };
        let by_hand = Value::record([("host", Value::U32(7)), ("ttl", Value::U32(86_400))]);
        assert_eq!(reply.tree().into_owned(), by_hand);
        assert_eq!(HostAddress::from_value(&by_hand), Ok(reply));
        let bare = Value::record([("host", Value::U32(7))]);
        assert_eq!(HostAddress::from_value(&bare).map(|r| r.ttl), Ok(META_TTL));
        assert!(HostAddress::from_value(&Value::Void).is_err());
    }

    #[test]
    fn nsm_service_roundtrip_over_fabric() {
        use simnet::world::World;
        let world = World::paper();
        let client_host = world.add_host("client");
        let nsm_host = world.add_host("nsm-host");
        let net = RpcNet::new(std::sync::Arc::clone(&world));
        let binding = NsmService::export(&net, nsm_host, ProgramId(300_009), Arc::new(EchoNsm));
        assert_eq!(binding.components, SuiteTag::Sun.components(binding.port));
        let client = NsmClient::new(net, client_host);
        let hns_name = HnsName::new(Context::new("bind-uw").expect("ctx"), "fiji").expect("name");
        let reply = client.call(&binding, &hns_name, vec![]).expect("call");
        assert_eq!(reply, Value::str("fiji"));
    }

    #[test]
    fn nsm_client_charges_marshalling_only_when_remote() {
        use simnet::world::World;
        let world = World::paper();
        let host = world.add_host("shared");
        let net = RpcNet::new(std::sync::Arc::clone(&world));
        let binding = NsmService::export(&net, host, ProgramId(300_009), Arc::new(EchoNsm));
        let client = NsmClient::new(net, host);
        let hns_name = HnsName::new(Context::new("c").expect("ctx"), "x").expect("name");
        let (_, ledger) = world.measure(|| client.call(&binding, &hns_name, vec![]));
        let took = ledger.total();
        let delta = ledger.counters();
        assert!(took.as_ms_f64() < 1.0, "local NSM call took {took}");
        assert_eq!(delta.remote_calls, 0);
    }

    #[test]
    fn nsm_service_rejects_unknown_proc() {
        use simnet::world::World;
        let world = World::paper();
        let host = world.add_host("h");
        let net = RpcNet::new(std::sync::Arc::clone(&world));
        let binding = NsmService::export(&net, host, ProgramId(300_009), Arc::new(EchoNsm));
        let err = net.call(host, &binding, 77, &Value::Void).unwrap_err();
        assert!(matches!(err, RpcError::BadProcedure(77)));
    }
}
