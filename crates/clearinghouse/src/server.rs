//! The Clearinghouse server as an RPC service.
//!
//! Every operation authenticates the caller and touches disk, which is why
//! the paper measures a Clearinghouse lookup at 156 ms against BIND's
//! 27 ms: `courier rtt (38) + auth (48) + disk (60) + service (10)`.

use std::borrow::Cow;
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
use wire::message::{Shape, Shaped};
use wire::{Message, Value};

use crate::auth::{Authenticator, Credentials};
use crate::db::ChDb;
use crate::error::ChError;
use crate::name::ThreePartName;
use crate::property::{Entry, Property, PropertyId};

/// Program number Clearinghouse servers are exported under.
pub const CH_PROGRAM: ProgramId = ProgramId(200_001);

/// Procedure: read one property.
pub const PROC_LOOKUP: u32 = 1;
/// Procedure: create an entry.
pub const PROC_ADD_ENTRY: u32 = 2;
/// Procedure: set an item property.
pub const PROC_SET_ITEM: u32 = 3;
/// Procedure: add a group member.
pub const PROC_ADD_MEMBER: u32 = 4;
/// Procedure: delete an entry.
pub const PROC_DELETE: u32 = 5;
/// Procedure: dump all entries (replication).
pub const PROC_SNAPSHOT: u32 = 6;
/// Procedure: install an alias.
pub const PROC_ADD_ALIAS: u32 = 7;
/// Procedure: enumerate entries by object-part pattern.
pub const PROC_LIST: u32 = 8;
/// Procedure: read the same item property for a run of names, returning
/// the values of the longest prefix that exists.
pub const PROC_LOOKUP_RUN: u32 = 9;

/// `LOOKUP`'s request: who asks, about which entry, for which property.
/// Name and credentials are shared strings, so a client builds one for
/// two reference-count bumps.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lookup {
    /// The caller's credentials.
    pub creds: Credentials,
    /// The entry.
    pub name: ThreePartName,
    /// The property.
    pub prop: PropertyId,
}

impl Lookup {
    /// Decodes an untyped caller's tree.
    pub fn from_value(v: &Value) -> RpcResult<Lookup> {
        Ok(Lookup {
            creds: creds_of(v)?,
            name: name_of(v)?,
            prop: prop_of(v)?,
        })
    }
}

impl Shaped for Lookup {
    fn shape<S: Shape>(&self, s: &S) -> S::Out {
        s.record([
            ("creds", self.creds.shape(s)),
            ("name", s.str(self.name.as_str())),
            ("prop", s.u32(self.prop.0)),
        ])
    }
}

/// The pieces of a request's tree, each read where the server checks it.
fn creds_of(v: &Value) -> RpcResult<Credentials> {
    Credentials::from_value(v.field("creds")?).map_err(|e| RpcError::Service(e.to_string()))
}

fn name_of(v: &Value) -> RpcResult<ThreePartName> {
    ThreePartName::parse(v.str_field("name")?).map_err(|e| RpcError::Service(e.to_string()))
}

fn prop_of(v: &Value) -> RpcResult<PropertyId> {
    Ok(PropertyId(v.u32_field("prop")?))
}

/// A call as the server reads it: `LOOKUP` from a caller that sent its
/// struct, or any procedure's tree.
enum Args<'a> {
    Lookup(&'a Lookup),
    Tree(Cow<'a, Value>),
}

/// A Clearinghouse server.
pub struct ChServer {
    name: String,
    db: RwLock<ChDb>,
    auth: Authenticator,
    requests: LazyCounter,
}

impl ChServer {
    /// Creates a server over `db` with an empty key table.
    pub fn new(name: impl Into<String>, db: ChDb) -> Arc<Self> {
        Arc::new(ChServer {
            name: name.into(),
            db: RwLock::new(db),
            auth: Authenticator::new(),
            requests: LazyCounter::new(),
        })
    }

    /// Registers credentials that the server will accept.
    pub fn register_key(&self, identity: ThreePartName, key: u64) {
        self.auth.register(identity, key);
    }

    /// Direct database access for fixtures and assertions.
    pub fn with_db<R>(&self, f: impl FnOnce(&mut ChDb) -> R) -> R {
        f(&mut self.db.write())
    }

    fn authenticate(&self, ctx: &CallCtx<'_>, args: &Args<'_>) -> RpcResult<()> {
        ctx.world.charge_ms(ctx.world.costs.ch_auth);
        let creds = match args {
            Args::Lookup(lookup) => Cow::Borrowed(&lookup.creds),
            Args::Tree(tree) => Cow::Owned(creds_of(tree)?),
        };
        self.auth
            .verify(&creds)
            .map_err(|_| RpcError::AuthFailed(creds.identity.to_string()))
    }

    fn charge_access(&self, ctx: &CallCtx<'_>) {
        // "virtually all data is retrieved from disk".
        ctx.world
            .charge_ms(ctx.world.costs.ch_disk + ctx.world.costs.ch_service);
    }

    fn serve_lookup(
        &self,
        ctx: &CallCtx<'_>,
        name: &ThreePartName,
        prop: PropertyId,
    ) -> RpcResult<Property> {
        let p = self.db.read().lookup(name, prop).map_err(ch_err)?;
        ctx.world.trace(Some(ctx.host), TraceKind::NameService, || {
            format!("{}: lookup {} prop {}", self.name, name, prop.0)
        });
        Ok(p)
    }

    /// The procedures that travel as trees.
    fn serve_tree(&self, ctx: &CallCtx<'_>, proc_id: u32, args: &Value) -> RpcResult<Value> {
        match proc_id {
            PROC_ADD_ENTRY => {
                let name = name_of(args)?;
                self.db.write().add_entry(name).map_err(ch_err)?;
                Ok(Value::Void)
            }
            PROC_SET_ITEM => {
                let name = name_of(args)?;
                let prop = PropertyId(args.u32_field("prop")?);
                let value = args.field("value")?.clone();
                self.db
                    .write()
                    .set_item(&name, prop, value)
                    .map_err(ch_err)?;
                Ok(Value::Void)
            }
            PROC_ADD_MEMBER => {
                let name = name_of(args)?;
                let prop = PropertyId(args.u32_field("prop")?);
                let member = args.str_field("member")?.to_string();
                self.db
                    .write()
                    .add_member(&name, prop, &member)
                    .map_err(ch_err)?;
                Ok(Value::Void)
            }
            PROC_DELETE => {
                let name = name_of(args)?;
                self.db.write().delete_entry(&name).map_err(ch_err)?;
                Ok(Value::Void)
            }
            PROC_ADD_ALIAS => {
                let alias = name_of(args)?;
                let target = ThreePartName::parse(args.str_field("target")?)
                    .map_err(|e| RpcError::Service(e.to_string()))?;
                self.db.write().add_alias(alias, target).map_err(ch_err)?;
                Ok(Value::Void)
            }
            PROC_LIST => {
                let domain = args.str_field("domain")?;
                let organization = args.str_field("organization")?;
                let pattern = args.str_field("pattern")?;
                let names = self.db.read().list(domain, organization, pattern);
                Ok(Value::List(
                    names.iter().map(|n| Value::str(n.to_string())).collect(),
                ))
            }
            PROC_LOOKUP_RUN => {
                // One RPC covers a run of entries: the round trip and
                // auth are paid once, but every entry examined past the
                // first is still a disk access.
                let prop = PropertyId(args.u32_field("prop")?);
                let names = args.field("names").and_then(Value::as_list)?;
                let db = self.db.read();
                let mut values = Vec::new();
                let mut examined = 0usize;
                for raw in names {
                    let name = ThreePartName::parse(raw.as_str()?)
                        .map_err(|e| RpcError::Service(e.to_string()))?;
                    examined += 1;
                    match db.lookup(&name, prop) {
                        Ok(p) => values.push(p.as_item().cloned().map_err(ch_err)?),
                        Err(ChError::NotFound(_)) => break,
                        Err(e) => return Err(ch_err(e)),
                    }
                }
                if examined > 1 {
                    ctx.world
                        .charge_ms(ctx.world.costs.ch_disk * (examined - 1) as f64);
                }
                ctx.world.trace(Some(ctx.host), TraceKind::NameService, || {
                    format!(
                        "{}: lookup run prop {} ({} of {} present)",
                        self.name,
                        prop.0,
                        values.len(),
                        names.len()
                    )
                });
                Ok(Value::List(values))
            }
            PROC_SNAPSHOT => {
                // The entry dump only: replication, which needs the alias
                // table too, is `ChCluster::propagate`'s in-process copy.
                let (entries, _aliases) = self.db.read().snapshot();
                Ok(Value::List(
                    entries
                        .into_iter()
                        .map(|(n, e)| {
                            Value::record([
                                ("name", Value::str(n.to_string())),
                                ("entry", e.to_value()),
                            ])
                        })
                        .collect(),
                ))
            }
            other => Err(RpcError::BadProcedure(other)),
        }
    }
}

fn ch_err(e: ChError) -> RpcError {
    match e {
        ChError::NotFound(n) => RpcError::NotFound(n),
        ChError::AuthFailed(w) => RpcError::AuthFailed(w),
        other => RpcError::Service(other.to_string()),
    }
}

impl RpcService for ChServer {
    fn service_name(&self) -> &str {
        &self.name
    }

    fn dispatch(&self, ctx: &CallCtx<'_>, proc_id: u32, args: &Value) -> RpcResult<Value> {
        self.dispatch_msg(ctx, proc_id, args).map(Reply::into_value)
    }

    /// `LOOKUP` is served on its structs — [`crate::ChClient`] sends a
    /// [`Lookup`] and reads the [`Property`] that comes back; the other
    /// procedures have none and stay on the tree. Either way a request is
    /// authenticated and charged before anything else of it is read.
    fn dispatch_msg(
        &self,
        ctx: &CallCtx<'_>,
        proc_id: u32,
        args: &dyn Message,
    ) -> RpcResult<Reply> {
        self.requests
            .get(ctx.world.metrics(), "clearinghouse", "requests")
            .inc();
        let _span = ctx
            .world
            .span_lazy(Some(ctx.host), TraceKind::NameService, || {
                format!("{}: proc {proc_id}", self.name)
            });
        let args = match args.downcast_ref::<Lookup>() {
            Some(lookup) if proc_id == PROC_LOOKUP => Args::Lookup(lookup),
            _ => Args::Tree(args.tree()),
        };
        self.authenticate(ctx, &args).inspect_err(|_| {
            ctx.world.metrics().inc("clearinghouse", "auth_failures");
        })?;
        self.charge_access(ctx);
        ctx.world.count_ns_lookup();
        let property = match args {
            Args::Lookup(lookup) => self.serve_lookup(ctx, &lookup.name, lookup.prop),
            Args::Tree(tree) if proc_id == PROC_LOOKUP => {
                self.serve_lookup(ctx, &name_of(&tree)?, prop_of(&tree)?)
            }
            Args::Tree(tree) => return self.serve_tree(ctx, proc_id, &tree).map(Reply::Tree),
        };
        property.map(Reply::typed)
    }
}

impl std::fmt::Debug for ChServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChServer")
            .field("name", &self.name)
            .field("entries", &self.db.read().len())
            .finish()
    }
}

/// A deployed Clearinghouse server.
#[derive(Debug, Clone)]
pub struct ChDeployment {
    /// Host it runs on.
    pub host: HostId,
    /// Courier-suite binding for clients.
    pub binding: HrpcBinding,
    /// The server object.
    pub server: Arc<ChServer>,
}

/// Exports `server` on `host` and returns its deployment.
pub fn deploy(net: &RpcNet, host: HostId, server: Arc<ChServer>) -> ChDeployment {
    let port = net.export(host, CH_PROGRAM, Arc::clone(&server) as Arc<dyn RpcService>);
    let binding = HrpcBinding {
        host,
        addr: simnet::topology::NetAddr::of(host),
        program: CH_PROGRAM,
        port,
        components: hrpc::ComponentSet::courier(),
    };
    ChDeployment {
        host,
        binding,
        server,
    }
}

/// Decodes a `PROC_SNAPSHOT` reply into entries.
pub fn snapshot_from_value(v: &Value) -> RpcResult<Vec<(ThreePartName, Entry)>> {
    let mut out = Vec::new();
    for item in v.as_list()? {
        let name = ThreePartName::parse(item.str_field("name")?)
            .map_err(|e| RpcError::Service(e.to_string()))?;
        let entry = Entry::from_value(item.field("entry")?)
            .map_err(|e| RpcError::Service(e.to_string()))?;
        out.push((name, entry));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::property::PROP_ADDRESS;
    use simnet::world::World;

    fn setup() -> (
        Arc<simnet::World>,
        Arc<RpcNet>,
        HostId,
        ChDeployment,
        Credentials,
    ) {
        let world = World::paper();
        let client = world.add_host("client");
        let ch_host = world.add_host("xerox-d0");
        let net = RpcNet::new(Arc::clone(&world));
        let db = ChDb::new(vec![("cs".into(), "uw".into())]);
        let server = ChServer::new("clearinghouse", db);
        let identity = ThreePartName::parse("hns:cs:uw").expect("name");
        server.register_key(identity.clone(), 0xC0FFEE);
        let dep = deploy(&net, ch_host, server);
        (
            world,
            net,
            client,
            dep,
            Credentials::new(identity, 0xC0FFEE),
        )
    }

    fn lookup_args(creds: &Credentials, name: &str, prop: u32) -> Value {
        Value::record([
            ("creds", creds.to_value()),
            ("name", Value::str(name)),
            ("prop", Value::U32(prop)),
        ])
    }

    #[test]
    fn authenticated_lookup_costs_156ms() {
        let (world, net, client, dep, creds) = setup();
        dep.server.with_db(|db| {
            db.set_item(
                &ThreePartName::parse("fiji:cs:uw").expect("name"),
                PROP_ADDRESS,
                Value::U32(9),
            )
            .expect("set");
        });
        let (reply, took, _) = world.measure(|| {
            net.call(
                client,
                &dep.binding,
                PROC_LOOKUP,
                &lookup_args(&creds, "fiji:cs:uw", 4),
            )
        });
        let p = Property::from_value(&reply.expect("call")).expect("property");
        assert_eq!(p.as_item().expect("item"), &Value::U32(9));
        // The paper's primitive: 156 ms.
        assert!((took.as_ms_f64() - 156.0).abs() < 1.0, "took {took}");
    }

    #[test]
    fn bad_credentials_rejected_after_auth_charge() {
        let (world, net, client, dep, creds) = setup();
        let bad = Credentials::new(creds.identity.clone(), 0xBAD);
        let (result, took, _) = world.measure(|| {
            net.call(
                client,
                &dep.binding,
                PROC_LOOKUP,
                &lookup_args(&bad, "fiji:cs:uw", 4),
            )
        });
        assert!(matches!(result, Err(RpcError::AuthFailed(_))));
        // Auth is charged even on failure (38 rtt + 48 auth).
        assert!(took.as_ms_f64() >= 85.0, "took {took}");
    }

    #[test]
    fn write_then_read_through_wire() {
        let (_world, net, client, dep, creds) = setup();
        let set = Value::record([
            ("creds", creds.to_value()),
            ("name", Value::str("printer:cs:uw")),
            ("prop", Value::U32(4)),
            ("value", Value::U32(17)),
        ]);
        net.call(client, &dep.binding, PROC_SET_ITEM, &set)
            .expect("set");
        let reply = net
            .call(
                client,
                &dep.binding,
                PROC_LOOKUP,
                &lookup_args(&creds, "printer:cs:uw", 4),
            )
            .expect("lookup");
        let p = Property::from_value(&reply).expect("property");
        assert_eq!(p.as_item().expect("item"), &Value::U32(17));
    }

    #[test]
    fn group_membership_through_wire() {
        let (_world, net, client, dep, creds) = setup();
        let add = Value::record([
            ("creds", creds.to_value()),
            ("name", Value::str("staff:cs:uw")),
            ("prop", Value::U32(40)),
            ("member", Value::str("alice:cs:uw")),
        ]);
        net.call(client, &dep.binding, PROC_ADD_MEMBER, &add)
            .expect("add");
        let reply = net
            .call(
                client,
                &dep.binding,
                PROC_LOOKUP,
                &lookup_args(&creds, "staff:cs:uw", 40),
            )
            .expect("lookup");
        let p = Property::from_value(&reply).expect("property");
        assert!(p.as_group().expect("group").contains("alice:cs:uw"));
    }

    #[test]
    fn missing_entry_maps_to_not_found() {
        let (_world, net, client, dep, creds) = setup();
        assert!(matches!(
            net.call(
                client,
                &dep.binding,
                PROC_LOOKUP,
                &lookup_args(&creds, "ghost:cs:uw", 4)
            ),
            Err(RpcError::NotFound(_))
        ));
    }

    #[test]
    fn add_and_delete_entries() {
        let (_world, net, client, dep, creds) = setup();
        let args = Value::record([
            ("creds", creds.to_value()),
            ("name", Value::str("temp:cs:uw")),
        ]);
        net.call(client, &dep.binding, PROC_ADD_ENTRY, &args)
            .expect("add");
        assert!(matches!(
            net.call(client, &dep.binding, PROC_ADD_ENTRY, &args),
            Err(RpcError::Service(_))
        ));
        net.call(client, &dep.binding, PROC_DELETE, &args)
            .expect("delete");
        assert!(net.call(client, &dep.binding, PROC_DELETE, &args).is_err());
    }

    #[test]
    fn snapshot_roundtrips() {
        let (_world, net, client, dep, creds) = setup();
        dep.server.with_db(|db| {
            db.set_item(
                &ThreePartName::parse("a:cs:uw").expect("name"),
                PROP_ADDRESS,
                Value::U32(1),
            )
            .expect("set");
        });
        let args = Value::record([("creds", creds.to_value())]);
        let reply = net
            .call(client, &dep.binding, PROC_SNAPSHOT, &args)
            .expect("snapshot");
        let entries = snapshot_from_value(&reply).expect("decode");
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].0.to_string(), "a:cs:uw");
    }

    /// `lookup_args` — the tree the parent's client built by hand — is
    /// what a [`Lookup`] yields, and states its length.
    #[test]
    fn a_lookup_is_the_record_the_parent_built_by_hand() {
        let (_world, _net, _client, _dep, creds) = setup();
        let lookup = Lookup {
            creds: creds.clone(),
            name: ThreePartName::parse("fiji:cs:uw").expect("name"),
            prop: PropertyId(4),
        };
        let by_hand = lookup_args(&creds, "fiji:cs:uw", 4);
        assert_eq!(lookup.tree().into_owned(), by_hand);
        for format in [wire::WireFormat::Xdr, wire::WireFormat::Courier] {
            let bytes = format.encode(&by_hand).expect("encodes");
            assert_eq!(lookup.encoded_len(format), Ok(bytes.len()), "{format}");
        }
        assert_eq!(Lookup::from_value(&by_hand), Ok(lookup));
        assert!(Lookup::from_value(&lookup_args(&creds, "two:parts", 4)).is_err());
    }

    /// Typed or tree, a lookup is authenticated and charged before its
    /// name is read: a bad name from an untyped caller costs what it did.
    #[test]
    fn a_lookup_is_charged_alike_typed_or_not() {
        let (world, net, client, dep, creds) = setup();
        dep.server.with_db(|db| {
            let name = ThreePartName::parse("fiji:cs:uw").expect("name");
            db.set_item(&name, PROP_ADDRESS, Value::U32(9))
                .expect("set");
        });
        let typed = Lookup {
            creds: creds.clone(),
            name: ThreePartName::parse("fiji:cs:uw").expect("name"),
            prop: PROP_ADDRESS,
        };
        let tree = lookup_args(&creds, "fiji:cs:uw", 4);
        let (by_struct, typed_took, _) =
            world.measure(|| net.call_msg(client, &dep.binding, PROC_LOOKUP, &typed));
        let (by_tree, tree_took, _) =
            world.measure(|| net.call(client, &dep.binding, PROC_LOOKUP, &tree));
        let by_struct = by_struct.expect("typed").downcast::<Property>().ok();
        assert_eq!(by_struct, Some(Property::Item(Value::U32(9))));
        assert_eq!(by_tree.ok(), Some(Property::Item(Value::U32(9)).to_value()));
        assert_eq!(typed_took, tree_took);
        let (refused, took, delta) = world.measure(|| {
            net.call(
                client,
                &dep.binding,
                PROC_LOOKUP,
                &lookup_args(&creds, "x", 4),
            )
        });
        assert!(matches!(refused, Err(RpcError::Service(_))), "{refused:?}");
        assert!(took.as_ms_f64() > 150.0, "auth and disk charged: {took}");
        assert_eq!(delta.ns_lookups, 1);
    }
}
