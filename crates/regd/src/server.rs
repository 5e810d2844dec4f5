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
use hrpc::server::{CallCtx, RpcService};
use hrpc::{HrpcBinding, RpcError, RpcResult};
use simnet::topology::{HostId, NetAddr};
use wire::Value;

use crate::registry::{Registry, Resolution};

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

fn resolution_value(r: &Resolution) -> Value {
    Value::record([
        ("name", Value::str(&*r.name)),
        ("owner", Value::str(&*r.owner)),
        ("base_owner", Value::str(&*r.base_owner)),
        ("service", Value::str(&*r.service)),
        ("depth", Value::U32(r.depth)),
        ("walked", Value::Bool(r.walked)),
    ])
}

/// Decodes a resolution record from the wire.
pub fn resolution_from_value(v: &Value) -> RpcResult<Resolution> {
    Ok(Resolution {
        name: v.str_field("name")?.to_string(),
        owner: v.str_field("owner")?.to_string(),
        base_owner: v.str_field("base_owner")?.to_string(),
        service: v.str_field("service")?.to_string(),
        depth: v.u32_field("depth")?,
        walked: v.field("walked")?.as_bool()?,
    })
}

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

    fn dispatch(&self, _ctx: &CallCtx<'_>, proc_id: u32, args: &Value) -> RpcResult<Value> {
        let owner = || args.str_field("owner");
        let key = || args.field("key").and_then(Value::as_u64);
        let name = || args.str_field("name");
        match proc_id {
            PROC_REGISTER => {
                let r = self.registry.register(
                    owner()?,
                    key()?,
                    name()?,
                    args.str_field("service")?,
                )?;
                Ok(resolution_value(&r))
            }
            PROC_UPDATE => {
                self.registry
                    .update(owner()?, key()?, name()?, args.str_field("service")?)?;
                Ok(Value::Void)
            }
            PROC_TRANSFER => {
                let rebind = match args.field("rebind")? {
                    Value::Opt(inner) => inner.as_deref().map(Value::as_str).transpose()?,
                    other => {
                        return Err(RpcError::Service(format!(
                            "rebind must be opt, got {}",
                            other.kind()
                        )))
                    }
                };
                let r = self.registry.transfer(
                    owner()?,
                    key()?,
                    name()?,
                    args.str_field("to")?,
                    rebind,
                )?;
                Ok(resolution_value(&r))
            }
            PROC_RELEASE => {
                self.registry.release(owner()?, key()?, name()?)?;
                Ok(Value::Void)
            }
            PROC_RESOLVE => Ok(resolution_value(&self.registry.resolve(name()?)?)),
            other => Err(RpcError::BadProcedure(other)),
        }
    }
}

impl std::fmt::Debug for RegServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RegServer")
            .field("registry", &self.registry)
            .finish()
    }
}
