//! The exported registration service.
//!
//! Wraps a [`Registry`] as an [`RpcService`] so remote clients drive
//! the write path over the simulated wire. Errors cross the wire via
//! `From<RegError> for RpcError`: the transport variant passes through
//! unchanged, so a caller still observes a typed `HostUnreachable` when
//! the registry's own Clearinghouse write leg is partitioned away.

use std::sync::Arc;

use hrpc::binding::ProgramId;
use hrpc::net::RpcNet;
use hrpc::server::{CallCtx, ReplySlot, RpcService};
use hrpc::{HrpcBinding, RpcError, RpcResult};
use simnet::topology::{HostId, NetAddr};
use wire::{Message, Value};

use crate::message::{Register, Release, Resolve, Transfer, Update};
use crate::registry::Registry;

/// Program number of the registration service.
pub const REG_PROGRAM: ProgramId = ProgramId(400_001);

/// Registers a name to an owner.
pub const PROC_REGISTER: u32 = 1;
/// Re-binds a registered name to a different name service.
pub const PROC_UPDATE: u32 = 2;
/// Appends a signed transfer link (optionally re-binding).
pub const PROC_TRANSFER: u32 = 3;
/// Releases a registered name.
pub const PROC_RELEASE: u32 = 4;
/// Resolves a name to its collapsed chain head.
pub const PROC_RESOLVE: u32 = 5;

/// The registration service: a [`Registry`] behind [`REG_PROGRAM`].
pub struct RegServer {
    registry: Arc<Registry>,
}

impl RegServer {
    /// Wraps a registry for export.
    pub fn new(registry: Arc<Registry>) -> Arc<RegServer> {
        Arc::new(RegServer { registry })
    }

    /// The wrapped registry.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }
}

/// Exports `server` on `host` and returns the binding clients dial.
pub fn deploy(net: &RpcNet, host: HostId, server: Arc<RegServer>) -> HrpcBinding {
    let port = net.export(host, REG_PROGRAM, server as Arc<dyn RpcService>);
    HrpcBinding {
        host,
        addr: NetAddr::of(host),
        program: REG_PROGRAM,
        port,
        components: hrpc::ComponentSet::courier(),
    }
}

impl RpcService for RegServer {
    fn service_name(&self) -> &str {
        "regd"
    }

    fn dispatch(&self, ctx: &CallCtx<'_>, proc_id: u32, args: &Value) -> RpcResult<Value> {
        ReplySlot::tree(|reply| self.dispatch_msg(ctx, proc_id, args, reply))
    }

    /// Served on the request structs ([`crate::message`]): a caller's own,
    /// or decoded from the tree it sent. A resolution goes back as itself.
    fn dispatch_msg(
        &self,
        _ctx: &CallCtx<'_>,
        proc_id: u32,
        args: &dyn Message,
        reply: &mut ReplySlot<'_>,
    ) -> RpcResult<()> {
        let reg = &self.registry;
        match proc_id {
            PROC_REGISTER => {
                let r = args.read(Register::from_value)?;
                reply.put(reg.register(&r.owner, r.key, &r.name, &r.service)?);
            }
            PROC_UPDATE => {
                let r = args.read(Update::from_value)?;
                reg.update(&r.owner, r.key, &r.name, &r.service)?;
                reply.put(Value::Void);
            }
            PROC_TRANSFER => {
                let r = args.read(Transfer::from_value)?;
                let rebind = r.rebind.as_deref();
                reply.put(reg.transfer(&r.owner, r.key, &r.name, &r.to, rebind)?);
            }
            PROC_RELEASE => {
                let r = args.read(Release::from_value)?;
                reg.release(&r.owner, r.key, &r.name)?;
                reply.put(Value::Void);
            }
            PROC_RESOLVE => {
                let r = args.read(Resolve::from_value)?;
                reply.put(reg.resolve(&r.name)?);
            }
            other => return Err(RpcError::BadProcedure(other)),
        }
        Ok(())
    }
}

impl std::fmt::Debug for RegServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RegServer")
            .field("registry", &self.registry)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{Register, Release, Resolve, Transfer, Update};
    use clearinghouse::auth::Credentials;
    use clearinghouse::db::ChDb;
    use clearinghouse::name::ThreePartName;
    use clearinghouse::server::ChServer;
    use simnet::world::World;

    /// Every procedure's request as [`crate::RegClient`] sends it, to a
    /// frontend where `alice` holds `svc`.
    fn requests() -> Vec<(u32, Box<dyn Message>)> {
        let (alice, bob, key) = (String::from("alice"), String::from("bob"), 0xA11CE);
        let svc = String::from("svc");
        let transfer = |rebind: Option<&str>| Transfer {
            owner: alice.clone(),
            key,
            name: svc.clone(),
            to: bob.clone(),
            rebind: rebind.map(String::from),
        };
        vec![
            (
                PROC_REGISTER,
                Box::new(Register {
                    owner: bob.clone(),
                    key: 0xB0B,
                    name: "other".into(),
                    service: "BIND".into(),
                }),
            ),
            (
                PROC_UPDATE,
                Box::new(Update {
                    owner: alice.clone(),
                    key,
                    name: svc.clone(),
                    service: "Clearinghouse".into(),
                }),
            ),
            (PROC_TRANSFER, Box::new(transfer(None))),
            (PROC_TRANSFER, Box::new(transfer(Some("Clearinghouse")))),
            (
                PROC_RELEASE,
                Box::new(Release {
                    owner: alice.clone(),
                    key,
                    name: svc.clone(),
                }),
            ),
            (PROC_RESOLVE, Box::new(Resolve { name: svc.clone() })),
        ]
    }

    /// What one call shows on a fresh frontend where `alice` holds `svc`:
    /// the reply as a tree, the virtual time, the counters, and what a
    /// naive walk finds of `svc` after.
    fn call_fresh(
        proc_id: u32,
        request: &dyn Message,
    ) -> (
        RpcResult<Value>,
        simnet::time::SimDuration,
        simnet::world::CounterSnapshot,
        String,
    ) {
        let world = World::paper();
        let (ch_host, frontend, client) = (
            world.add_host("ch"),
            world.add_host("frontend"),
            world.add_host("client"),
        );
        let net = RpcNet::new(Arc::clone(&world));
        let server = ChServer::new("ch", ChDb::new(vec![("cs".into(), "uw".into())]));
        let identity = ThreePartName::parse("regd:cs:uw").expect("name");
        server.register_key(identity.clone(), 7);
        let ch = clearinghouse::deploy(&net, ch_host, server);
        let creds = Credentials::new(identity, 7);
        let registry = Registry::new(Arc::clone(&net), frontend, ch.binding, creds, "cs", "uw");
        registry.register_owner("alice", 0xA11CE);
        registry.register_owner("bob", 0xB0B);
        registry
            .register("alice", 0xA11CE, "svc", "BIND")
            .expect("register");
        let registry = Arc::new(registry);
        let binding = deploy(&net, frontend, RegServer::new(Arc::clone(&registry)));
        let (reply, ledger) = world
            .measure(|| ReplySlot::tree(|r| net.call_into(client, &binding, proc_id, request, r)));
        let took = ledger.total();
        let delta = ledger.counters();
        let after = format!("{:?}", registry.resolve_naive("svc"));
        (reply, took, delta, after)
    }

    /// Typed or tree, every procedure answers, costs and leaves the same.
    #[test]
    fn every_procedure_is_charged_alike_typed_or_not() {
        for (proc_id, typed) in requests() {
            let by_struct = call_fresh(proc_id, &*typed);
            assert!(by_struct.0.is_ok(), "proc {proc_id}: {:?}", by_struct.0);
            let tree = typed.tree().into_owned();
            assert_eq!(by_struct, call_fresh(proc_id, &tree), "proc {proc_id}");
        }
    }
}
