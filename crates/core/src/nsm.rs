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

use simnet::obs::LazyCounter;
use simnet::topology::{HostId, NetAddr};

use hrpc::error::{RpcError, RpcResult};
use hrpc::net::RpcNet;
use hrpc::server::{CallCtx, RpcService};
use hrpc::{ComponentSet, HrpcBinding, ProgramId};
use wire::Value;

use crate::error::{HnsError, HnsResult};
use crate::meta::{Kind, MetaRecord};
use crate::name::{Context, HnsName};
use crate::query::QueryClass;

/// The single NSM procedure: perform a query.
pub const NSM_PROC_QUERY: u32 = 1;

/// One named field of an argument record.
pub(crate) type Field = (Cow<'static, str>, Value);

/// The standard fields of an argument record, in wire order.
const STANDARD: [&str; 3] = ["query_class", "context", "name"];

/// Encodes the standard argument record, the one shape every call made
/// for an HNS query carries: the query class when the callee serves them
/// all (the HNS, an agent — an NSM serves one and is sent none), the HNS
/// name as `context` and `name`, then the query class's own fields.
pub(crate) fn encode_args(
    qc: Option<&QueryClass>,
    hns_name: &HnsName,
    extra: impl Iterator<Item = Field>,
) -> Value {
    let [class, context, name] = STANDARD.map(Cow::Borrowed);
    let qc = qc.map(|qc| (class, Value::str(qc.as_str())));
    let mut fields = Vec::with_capacity(usize::from(qc.is_some()) + 2 + extra.size_hint().0);
    fields.extend(qc);
    fields.push((context, Value::str(hns_name.context.as_str())));
    fields.push((name, Value::str(hns_name.individual.clone())));
    fields.extend(extra);
    Value::Struct(fields)
}

/// The query class [`encode_args`] wrote for a callee that serves them
/// all; its absence is that callee's first complaint.
pub(crate) fn decode_class(args: &Value) -> RpcResult<QueryClass> {
    Ok(QueryClass::new(args.str_field(STANDARD[0])?))
}

/// Decodes the rest of what [`encode_args`] wrote: the HNS name, and the
/// query class's own fields — every field that is not a standard one.
pub(crate) fn decode_args(args: &Value) -> RpcResult<(HnsName, impl Iterator<Item = &Field>)> {
    let [_, context, name] = STANDARD;
    let service_err = |e: HnsError| RpcError::Service(e.to_string());
    let context = Context::new(args.str_field(context)?).map_err(service_err)?;
    let hns_name = HnsName::new(context, args.str_field(name)?).map_err(service_err)?;
    let fields = args.as_struct()?.iter();
    Ok((
        hns_name,
        fields.filter(|(k, _)| !STANDARD.contains(&k.as_ref())),
    ))
}

/// A Naming Semantics Manager.
pub trait Nsm: Send + Sync {
    /// Globally unique NSM name (registered in the HNS meta store).
    fn nsm_name(&self) -> &str;

    /// The query class this NSM serves.
    fn query_class(&self) -> QueryClass;

    /// Handles one query. `hns_name` is the original HNS name; the NSM
    /// translates the individual name to the local name, interrogates its
    /// name service, and returns the query class's standard result format.
    fn handle(&self, hns_name: &HnsName, args: &Value) -> RpcResult<Value>;
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
        if proc_id != NSM_PROC_QUERY {
            return Err(RpcError::BadProcedure(proc_id));
        }
        let (hns_name, _) = decode_args(args)?;
        self.queries
            .get(ctx.world.metrics(), "nsm", "queries")
            .inc();
        ctx.world
            .trace(Some(ctx.host), simnet::trace::TraceKind::Nsm, || {
                format!("{}: query for {}", self.inner.nsm_name(), hns_name)
            });
        let span = ctx
            .world
            .span_lazy(Some(ctx.host), simnet::trace::TraceKind::Nsm, || {
                format!("NSM {} handles {}", self.inner.nsm_name(), hns_name)
            });
        let result = self.inner.handle(&hns_name, args);
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
    /// and any query-specific arguments.
    pub fn call(
        &self,
        binding: &HrpcBinding,
        hns_name: &HnsName,
        extra: Vec<(&'static str, Value)>,
    ) -> RpcResult<Value> {
        let extra = extra.into_iter().map(|(k, v)| (Cow::Borrowed(k), v));
        self.call_with_fields(binding, hns_name, extra)
    }

    /// [`NsmClient::call`] for a caller relaying fields it decoded from
    /// a message (the agent), whose names are owned.
    pub(crate) fn call_with_fields(
        &self,
        binding: &HrpcBinding,
        hns_name: &HnsName,
        extra: impl Iterator<Item = Field>,
    ) -> RpcResult<Value> {
        let world = self.net.world();
        self.client_calls
            .get(world.metrics(), "nsm", "client_calls")
            .inc();
        if !world.topology.colocated(self.host, binding.host) {
            // Marshalling of the NSM interface arguments on a remote hop.
            world.charge_ms(world.costs.nsm_arg_marshal);
        }
        let args = encode_args(None, hns_name, extra);
        self.net.call(self.host, binding, NSM_PROC_QUERY, &args)
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

/// Registration-time description of an NSM: the "binding information"
/// mapping 3 of `FindNSM` retrieves. Stored as six resource records
/// ("contains, among other information, the host name on which the NSM
/// resides").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NsmInfo {
    /// The NSM's registered name.
    pub nsm_name: String,
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

impl NsmInfo {
    /// Number of resource records this info occupies in the meta store.
    pub const RECORDS: usize = 6;

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

    /// Decodes from meta-store record payloads — [`MetaRecord::decode`]
    /// of the six records, under the name they are registered under
    /// (which they do not carry).
    pub fn from_records<P: AsRef<[u8]>>(
        nsm_name: &str,
        records: impl IntoIterator<Item = P>,
    ) -> HnsResult<NsmInfo> {
        let record = MetaRecord::decode(Kind::NsmInfo, records)?;
        Ok(record.as_nsm_info()?.clone().named(nsm_name))
    }
}

/// What mapping 3's six records say: an [`NsmInfo`] less the name it is
/// registered under, which keys the records and is not in them — so one
/// decoded set serves whoever asks, under whatever spelling of the name.
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
    /// The registration-time description of the NSM called `nsm_name`.
    pub fn named(self, nsm_name: &str) -> NsmInfo {
        NsmInfo {
            nsm_name: nsm_name.to_string(),
            host_name: self.host_name,
            host_context: self.host_context,
            program: self.program,
            port: self.port,
            suite: self.suite,
            version: self.version,
            owner: self.owner,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct EchoNsm;

    impl Nsm for EchoNsm {
        fn nsm_name(&self) -> &str {
            "nsm-echo"
        }
        fn query_class(&self) -> QueryClass {
            QueryClass::new("Echo")
        }
        fn handle(&self, hns_name: &HnsName, _args: &Value) -> RpcResult<Value> {
            Ok(Value::str(hns_name.individual.clone()))
        }
    }

    fn info() -> NsmInfo {
        NsmInfo {
            nsm_name: "nsm-hrpcbinding-bind".into(),
            host_name: "june.cs.washington.edu".into(),
            host_context: Context::new("bind-uw").expect("ctx"),
            program: ProgramId(300_001),
            port: 1025,
            suite: SuiteTag::Sun,
            version: 1,
            owner: "hcs-project".into(),
        }
    }

    #[test]
    fn info_occupies_six_records() {
        let records = info().to_records();
        assert_eq!(records.len(), NsmInfo::RECORDS);
    }

    #[test]
    fn info_roundtrips_through_records() {
        let i = info();
        let records = i.to_records();
        let back = NsmInfo::from_records(&i.nsm_name, &records).expect("decode");
        assert_eq!(back, i);
    }

    #[test]
    fn info_rejects_missing_fields() {
        let records = vec!["host=x".to_string()];
        assert!(NsmInfo::from_records("n", &records).is_err());
        let records = vec!["bogus".to_string()];
        assert!(NsmInfo::from_records("n", &records).is_err());
        let records = vec!["mystery=1".to_string()];
        assert!(NsmInfo::from_records("n", &records).is_err());
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

    #[test]
    fn the_argument_record_is_one_shape_in_one_order() {
        let name = HnsName::new(Context::new("Bind-UW").expect("ctx"), "fiji").expect("name");
        let own = || [(Cow::Borrowed("service"), Value::str("S"))].into_iter();
        let keys = |args: &Value| -> Vec<String> {
            let fields = args.as_struct().expect("struct").iter();
            fields.map(|(k, _)| k.to_string()).collect()
        };
        // To an NSM: no query class. To the HNS or an agent: it leads.
        let qc = QueryClass::hrpc_binding();
        let (to_nsm, to_agent) = (
            encode_args(None, &name, own()),
            encode_args(Some(&qc), &name, own()),
        );
        assert_eq!(keys(&to_nsm), ["context", "name", "service"]);
        assert_eq!(keys(&to_agent)[0], "query_class");
        assert_eq!(keys(&to_agent)[1..], keys(&to_nsm));
        for args in [&to_nsm, &to_agent] {
            let (decoded, extra) = decode_args(args).expect("decode");
            assert_eq!(decoded, name);
            assert!(extra.cloned().eq(own()));
        }
        assert_eq!(decode_class(&to_agent).expect("class"), qc);
        // A callee that needs the class says so; so does a nameless record.
        let missing = decode_class(&to_nsm).unwrap_err();
        assert!(missing.to_string().contains("query_class"), "{missing}");
        assert!(decode_args(&Value::record([("name", Value::str("n"))])).is_err());
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
        let (_, took, delta) = world.measure(|| client.call(&binding, &hns_name, vec![]));
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
