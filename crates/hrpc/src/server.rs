//! Server-side service abstraction.

use std::collections::HashMap;
use std::sync::Arc;

use simnet::topology::HostId;
use simnet::world::World;
use wire::Value;

use crate::error::{RpcError, RpcResult};
use crate::net::RpcNet;

/// Context passed to a service for one call.
///
/// Services that need to make nested calls (an NSM querying its underlying
/// name service, the HNS querying its meta store) do so through `net`,
/// originating from their own `host`.
pub struct CallCtx<'a> {
    /// The RPC fabric, for nested calls.
    pub net: &'a RpcNet,
    /// The shared simulation environment.
    pub world: &'a Arc<World>,
    /// Host the service is running on.
    pub host: HostId,
    /// Host the call originated from.
    pub caller: HostId,
}

/// A dispatchable service.
pub trait RpcService: Send + Sync {
    /// Human-readable service name (for traces and errors).
    fn service_name(&self) -> &str;

    /// Handles one procedure call.
    fn dispatch(&self, ctx: &CallCtx<'_>, proc_id: u32, args: &Value) -> RpcResult<Value>;
}

/// Procedure handler type used by [`ProcServer`].
pub type ProcHandler = Box<dyn Fn(&CallCtx<'_>, &Value) -> RpcResult<Value> + Send + Sync>;

/// A simple service built from per-procedure closures.
///
/// # Examples
///
/// ```
/// use hrpc::server::{ProcServer, RpcService};
/// use wire::Value;
///
/// let echo = ProcServer::new("echo").with_proc(1, |_ctx, args| Ok(args.clone()));
/// assert_eq!(echo.service_name(), "echo");
/// ```
pub struct ProcServer {
    name: String,
    procs: HashMap<u32, ProcHandler>,
}

impl ProcServer {
    /// Creates an empty service.
    pub fn new(name: impl Into<String>) -> Self {
        ProcServer {
            name: name.into(),
            procs: HashMap::new(),
        }
    }

    /// Registers a procedure handler (builder style).
    pub fn with_proc(
        mut self,
        proc_id: u32,
        handler: impl Fn(&CallCtx<'_>, &Value) -> RpcResult<Value> + Send + Sync + 'static,
    ) -> Self {
        self.procs.insert(proc_id, Box::new(handler));
        self
    }
}

impl RpcService for ProcServer {
    fn service_name(&self) -> &str {
        &self.name
    }

    fn dispatch(&self, ctx: &CallCtx<'_>, proc_id: u32, args: &Value) -> RpcResult<Value> {
        match self.procs.get(&proc_id) {
            Some(handler) => handler(ctx, args),
            None => Err(RpcError::BadProcedure(proc_id)),
        }
    }
}

impl std::fmt::Debug for ProcServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProcServer")
            .field("name", &self.name)
            .field("procs", &self.procs.keys().collect::<Vec<_>>())
            .finish()
    }
}
