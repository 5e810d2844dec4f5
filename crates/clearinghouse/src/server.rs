//! The Clearinghouse server as an RPC service.
//!
//! Every operation authenticates the caller and touches disk, which is why
//! the paper measures a Clearinghouse lookup at 156 ms against BIND's
//! 27 ms: `courier rtt (38) + auth (48) + disk (60) + service (10)`.

use std::sync::Arc;

use parking_lot::RwLock;
use simnet::costs::Term;
use simnet::obs::LazyCounter;
use simnet::topology::HostId;
use simnet::trace::TraceKind;

use hrpc::binding::ProgramId;
use hrpc::error::{RpcError, RpcResult};
use hrpc::net::RpcNet;
use hrpc::server::{CallCtx, ReplySlot, RpcService};
use hrpc::HrpcBinding;
use wire::{Message, Value};

use crate::auth::{Authenticator, Credentials};
use crate::db::ChDb;
use crate::error::ChError;
use crate::name::ThreePartName;
use crate::property::Property;
use crate::request::{AddAlias, AddMember, List, Lookup, LookupRun, Named, Request, SetItem};

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
/// Procedure: install an alias.
pub const PROC_ADD_ALIAS: u32 = 7;
/// Procedure: enumerate entries by object-part pattern.
pub const PROC_LIST: u32 = 8;
/// Procedure: read the same item property for a run of names, returning
/// the values of the longest prefix that exists.
pub const PROC_LOOKUP_RUN: u32 = 9;

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

    /// Charges authentication, then checks `creds` (a request whose
    /// credentials did not decode fails here too), then charges the disk
    /// access every operation makes — before anything else of the request
    /// is read.
    fn admit(&self, ctx: &CallCtx<'_>, creds: RpcResult<&Credentials>) -> RpcResult<()> {
        ctx.world.charge(Term::ChAuth);
        let verified = creds.and_then(|creds| {
            (self.auth.verify(creds)).map_err(|_| RpcError::AuthFailed(creds.identity.to_string()))
        });
        verified.inspect_err(|_| {
            ctx.world.metrics().inc("clearinghouse", "auth_failures");
        })?;
        // "virtually all data is retrieved from disk".
        ctx.world.charge(Term::ChRead);
        ctx.world.count_ns_lookup();
        Ok(())
    }

    /// Admits a request and serves it as the `T` it is: the caller's own
    /// struct, or — from a caller that sent a tree — the struct decoded
    /// from it once admitted, so that a request whose name does not parse
    /// is charged as one that does.
    fn serve<T: Request, R: Message>(
        &self,
        ctx: &CallCtx<'_>,
        args: &dyn Message,
        reply: &mut ReplySlot<'_>,
        serve: impl FnOnce(&T) -> RpcResult<R>,
    ) -> RpcResult<()> {
        let served = match args.downcast_ref::<T>() {
            Some(request) => {
                self.admit(ctx, Ok(request.creds()))?;
                serve(request)?
            }
            None => {
                let tree = args.tree();
                self.admit_tree(ctx, &tree)?;
                serve(&T::read(&tree)?)?
            }
        };
        reply.put(served);
        Ok(())
    }

    /// [`ChServer::admit`] on the credentials of a request's tree.
    fn admit_tree(&self, ctx: &CallCtx<'_>, tree: &Value) -> RpcResult<()> {
        let creds = tree.field("creds").and_then(Credentials::from_value);
        self.admit(ctx, creds.as_ref().map_err(|e| e.clone().into()))
    }

    /// A write, acknowledged with nothing.
    fn write(&self, write: impl FnOnce(&mut ChDb) -> Result<(), ChError>) -> RpcResult<Value> {
        write(&mut self.db.write()).map_err(ch_err)?;
        Ok(Value::Void)
    }

    fn serve_lookup(&self, ctx: &CallCtx<'_>, request: &Lookup) -> RpcResult<Property> {
        let Lookup { name, prop, .. } = request;
        let p = self.db.read().lookup(name, *prop).map_err(ch_err)?;
        ctx.world.trace(Some(ctx.host), TraceKind::NameService, || {
            format!("{}: lookup {} prop {}", self.name, name, prop.0)
        });
        Ok(p)
    }

    /// One RPC covers a run of entries: the round trip and auth are paid
    /// once, but every entry examined past the first is still a disk
    /// access. The reply is the items of the run's longest present prefix.
    fn serve_lookup_run(&self, ctx: &CallCtx<'_>, request: &LookupRun) -> RpcResult<Value> {
        let LookupRun { names, prop, .. } = request;
        let db = self.db.read();
        let mut values = Vec::new();
        let mut examined = 0usize;
        for name in names {
            examined += 1;
            match db.lookup(name, *prop) {
                Ok(p) => values.push(p.as_item().cloned().map_err(ch_err)?),
                Err(ChError::NotFound(_)) => break,
                Err(e) => return Err(ch_err(e)),
            }
        }
        if examined > 1 {
            ctx.world.charge(Term::ChDiskReads { n: examined - 1 });
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

    fn serve_list(&self, request: &List) -> RpcResult<Value> {
        let List {
            domain,
            organization,
            pattern,
            ..
        } = request;
        let names = self.db.read().list(domain, organization, pattern);
        Ok(Value::List(
            names.iter().map(|n| Value::str(n.as_str())).collect(),
        ))
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
        ReplySlot::tree(|reply| self.dispatch_msg(ctx, proc_id, args, reply))
    }

    /// Every procedure is served on its request struct —
    /// [`crate::ChClient`] sends one, and reads a `LOOKUP`'s
    /// [`crate::Property`] as the struct that comes back. Typed or tree, a request is
    /// authenticated and charged before anything else of it is read.
    fn dispatch_msg(
        &self,
        ctx: &CallCtx<'_>,
        proc_id: u32,
        args: &dyn Message,
        reply: &mut ReplySlot<'_>,
    ) -> RpcResult<()> {
        self.requests
            .get(ctx.world.metrics(), "clearinghouse", "requests")
            .inc();
        let _span = ctx
            .world
            .span_lazy(Some(ctx.host), TraceKind::NameService, || {
                format!("{}: proc {proc_id}", self.name)
            });
        match proc_id {
            PROC_LOOKUP => self.serve(ctx, args, reply, |r: &Lookup| self.serve_lookup(ctx, r)),
            PROC_SET_ITEM => self.serve(ctx, args, reply, |r: &SetItem| {
                self.write(|db| db.set_item(&r.name, r.prop, Arc::clone(&r.value)))
            }),
            PROC_ADD_ENTRY => self.serve(ctx, args, reply, |r: &Named| {
                self.write(|db| db.add_entry(r.name.clone()))
            }),
            PROC_DELETE => self.serve(ctx, args, reply, |r: &Named| {
                self.write(|db| db.delete_entry(&r.name))
            }),
            PROC_ADD_MEMBER => self.serve(ctx, args, reply, |r: &AddMember| {
                self.write(|db| db.add_member(&r.name, r.prop, &r.member))
            }),
            PROC_ADD_ALIAS => self.serve(ctx, args, reply, |r: &AddAlias| {
                self.write(|db| db.add_alias(r.name.clone(), r.target.clone()))
            }),
            PROC_LOOKUP_RUN => self.serve(ctx, args, reply, |r: &LookupRun| {
                self.serve_lookup_run(ctx, r)
            }),
            PROC_LIST => self.serve(ctx, args, reply, |r: &List| self.serve_list(r)),
            other => {
                self.admit_tree(ctx, &args.tree())?;
                Err(RpcError::BadProcedure(other))
            }
        }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::property::{Property, PropertyId, PROP_ADDRESS, PROP_MEMBERS};
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
            ("creds", creds.tree().into_owned()),
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
            ("creds", creds.tree().into_owned()),
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
            ("creds", creds.tree().into_owned()),
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
            ("creds", creds.tree().into_owned()),
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

    /// Every procedure's request as [`crate::ChClient`] sends it, to a
    /// server holding `fiji:cs:uw`.
    fn requests(creds: &Credentials) -> Vec<(u32, Box<dyn Message>)> {
        let tpn = |s: &str| ThreePartName::parse(s).expect("name");
        let creds = || creds.clone();
        vec![
            (
                PROC_LOOKUP,
                Box::new(Lookup {
                    creds: creds(),
                    name: tpn("fiji:cs:uw"),
                    prop: PROP_ADDRESS,
                }),
            ),
            (
                PROC_SET_ITEM,
                Box::new(SetItem {
                    creds: creds(),
                    name: tpn("fiji:cs:uw"),
                    prop: PropertyId(5),
                    value: Value::record([("port", Value::U32(2049))]).into(),
                }),
            ),
            (
                PROC_ADD_ENTRY,
                Box::new(Named {
                    creds: creds(),
                    name: tpn("temp:cs:uw"),
                }),
            ),
            (
                PROC_DELETE,
                Box::new(Named {
                    creds: creds(),
                    name: tpn("fiji:cs:uw"),
                }),
            ),
            (
                PROC_ADD_MEMBER,
                Box::new(AddMember {
                    creds: creds(),
                    name: tpn("staff:cs:uw"),
                    prop: PROP_MEMBERS,
                    member: "alice:cs:uw".into(),
                }),
            ),
            (
                PROC_ADD_ALIAS,
                Box::new(AddAlias {
                    creds: creds(),
                    name: tpn("hub:cs:uw"),
                    target: tpn("fiji:cs:uw"),
                }),
            ),
            (
                PROC_LOOKUP_RUN,
                Box::new(LookupRun {
                    creds: creds(),
                    names: vec![tpn("fiji:cs:uw"), tpn("ghost:cs:uw")],
                    prop: PROP_ADDRESS,
                }),
            ),
            (PROC_LIST, Box::new(List::new(creds(), "cs", "UW", "f*"))),
        ]
    }

    /// What one call shows on a fresh server holding `fiji:cs:uw`: the
    /// reply as a tree, the virtual time, the counters and the database
    /// it leaves.
    fn call_fresh(
        proc_id: u32,
        request: &dyn Message,
    ) -> (
        RpcResult<Value>,
        simnet::time::SimDuration,
        simnet::world::CounterSnapshot,
        String,
    ) {
        let (world, net, client, dep, _) = setup();
        let fiji = ThreePartName::parse("fiji:cs:uw").expect("name");
        dep.server.with_db(|db| {
            db.set_item(&fiji, PROP_ADDRESS, Value::U32(9))
                .expect("set")
        });
        let (reply, took, delta) = world.measure(|| {
            ReplySlot::tree(|r| net.call_into(client, &dep.binding, proc_id, request, r))
        });
        let after = dep.server.with_db(|db| format!("{:?}", db.snapshot()));
        (reply, took, delta, after)
    }

    /// `tree` with `field` replaced by `value`.
    fn with_field(tree: &Value, field: &str, value: Value) -> Value {
        let fields = tree.as_struct().expect("a record");
        let swapped = fields.iter().map(|(name, v)| {
            let v = if name == field {
                value.clone()
            } else {
                v.clone()
            };
            (name.clone(), v)
        });
        Value::Struct(swapped.collect())
    }

    /// Typed or tree, every procedure answers, charges and leaves the
    /// same; and a request is authenticated and charged before its names
    /// are read, so a tree whose name does not parse costs auth and disk.
    #[test]
    fn every_procedure_is_charged_alike_typed_or_not() {
        let (_world, _net, _client, _dep, creds) = setup();
        for (proc_id, typed) in requests(&creds) {
            let tree = typed.tree().into_owned();
            let by_struct = call_fresh(proc_id, &*typed);
            assert!(by_struct.0.is_ok(), "proc {proc_id}: {:?}", by_struct.0);
            assert_eq!(by_struct, call_fresh(proc_id, &tree), "proc {proc_id}");
            let names = [
                ("name", Value::str("x")),
                ("target", Value::str("two:parts")),
                ("names", Value::List(vec![Value::str("x")])),
            ];
            let parsed = names.into_iter().filter(|(field, _)| {
                tree.field(field).is_ok() && !(proc_id == PROC_LIST && *field == "name")
            });
            for (field, unparsable) in parsed {
                let bad = with_field(&tree, field, unparsable);
                let (refused, took, delta, _) = call_fresh(proc_id, &bad);
                let what = format!("proc {proc_id}, {field}");
                assert!(matches!(refused, Err(RpcError::Service(_))), "{what}");
                assert!(took.as_ms_f64() > 150.0, "{what}: auth and disk: {took}");
                assert_eq!(delta.ns_lookups, 1, "{what}");
            }
        }
    }
}
