//! Server-side service abstraction.

use std::collections::HashMap;
use std::sync::Arc;

use simnet::topology::HostId;
use simnet::world::World;
use wire::{Message, Value};

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

/// What a call brings back: the server's reply as it made it.
pub enum Reply {
    /// A tree — an untyped server's reply, or one the at-most-once cache
    /// kept.
    Tree(Value),
    /// The server's own struct.
    Typed(Box<dyn Message>),
}

impl Reply {
    /// The reply of a typed server.
    pub fn typed(msg: impl Message) -> Reply {
        Reply::Typed(Box::new(msg))
    }

    /// The reply as the fabric charges for it and the at-most-once cache
    /// keeps it.
    pub fn as_message(&self) -> &dyn Message {
        match self {
            Reply::Tree(tree) => tree,
            Reply::Typed(msg) => &**msg,
        }
    }

    /// The reply as a tree, for a caller that does not know its type.
    pub fn into_value(self) -> Value {
        match self {
            Reply::Tree(tree) => tree,
            Reply::Typed(msg) => msg.tree().into_owned(),
        }
    }

    /// The reply as the `T` a typed server sent; from any other peer,
    /// its tree, for the caller to decode.
    pub fn downcast<T: Message>(self) -> Result<T, Value> {
        match self {
            Reply::Tree(tree) => Err(tree),
            Reply::Typed(msg) => msg.downcast().map_err(|other| other.tree().into_owned()),
        }
    }

    /// The reply as the `T` a typed server sent; from any other peer,
    /// `decode`d — once, here — from its tree.
    pub fn read<T: Message, E>(self, decode: impl FnOnce(&Value) -> Result<T, E>) -> Result<T, E> {
        self.downcast().or_else(|tree| decode(&tree))
    }
}

/// A dispatchable service.
pub trait RpcService: Send + Sync {
    /// Human-readable service name (for traces and errors).
    fn service_name(&self) -> &str;

    /// Handles one procedure call on trees.
    fn dispatch(&self, ctx: &CallCtx<'_>, proc_id: u32, args: &Value) -> RpcResult<Value>;

    /// Handles one procedure call as the fabric delivers it. A service
    /// that knows the structs its callers send overrides this, downcasts
    /// `args` (decoding the tree of a caller that sent one) and replies
    /// with [`Reply::typed`]; every other service is reached through
    /// [`RpcService::dispatch`], on the caller's tree.
    fn dispatch_msg(
        &self,
        ctx: &CallCtx<'_>,
        proc_id: u32,
        args: &dyn Message,
    ) -> RpcResult<Reply> {
        self.dispatch(ctx, proc_id, &args.tree()).map(Reply::Tree)
    }
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
