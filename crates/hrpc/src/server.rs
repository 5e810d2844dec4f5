//! Server-side service abstraction.

use std::any::Any;
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

/// Where a served call leaves its reply: a slot its caller owns, of the
/// type the caller reads. A reply of that type is moved in; any other is
/// kept as its tree, for the caller to decode once — an untyped server's,
/// or one the at-most-once cache kept.
pub struct ReplySlot<'a> {
    typed: &'a mut dyn Typed,
    tree: Option<Value>,
}

/// The caller's half of a slot: the `Option<T>` of the type it reads.
trait Typed: Any {
    fn message(&self) -> Option<&dyn Message>;
}

impl<T: Message> Typed for Option<T> {
    fn message(&self) -> Option<&dyn Message> {
        self.as_ref().map(|reply| reply as &dyn Message)
    }
}

impl ReplySlot<'_> {
    /// Leaves `reply` for the caller, in place of anything left before:
    /// moved into the slot if it is what the caller reads, else as its
    /// tree.
    pub fn put<M: Message>(&mut self, reply: M) {
        let typed: &mut dyn Any = self.typed;
        match typed.downcast_mut::<Option<M>>() {
            Some(slot) => {
                *slot = Some(reply);
                self.tree = None;
            }
            None => self.put_tree(reply.into_tree()),
        }
    }

    /// Leaves a tree: in the slot of a caller that reads trees; beside
    /// any other's, where it is read before what that slot holds.
    pub(crate) fn put_tree(&mut self, tree: Value) {
        let typed: &mut dyn Any = self.typed;
        match typed.downcast_mut::<Option<Value>>() {
            Some(slot) => *slot = Some(tree),
            None => self.tree = Some(tree),
        }
    }

    /// The reply left so far, as the fabric charges for it and the
    /// at-most-once cache keeps it.
    pub fn message(&self) -> Option<&dyn Message> {
        match &self.tree {
            Some(tree) => Some(tree),
            None => self.typed.message(),
        }
    }

    /// Runs `serve` with a slot for a `T` and hands back what it left: the
    /// `T` itself, or the tree of any other reply.
    pub fn fill<T: Message>(
        serve: impl FnOnce(&mut ReplySlot<'_>) -> RpcResult<()>,
    ) -> RpcResult<Result<T, Value>> {
        let mut typed: Option<T> = None;
        let mut slot = ReplySlot {
            typed: &mut typed,
            tree: None,
        };
        serve(&mut slot)?;
        match (slot.tree, typed) {
            (Some(tree), _) => Ok(Err(tree)),
            (None, Some(reply)) => Ok(Ok(reply)),
            (None, None) => Err(no_reply()),
        }
    }

    /// [`ReplySlot::fill`] for a caller that reads a `T`: any other reply
    /// is `decode`d — once, here — from its tree.
    pub fn read<T: Message, E: From<RpcError>>(
        serve: impl FnOnce(&mut ReplySlot<'_>) -> RpcResult<()>,
        decode: impl FnOnce(&Value) -> Result<T, E>,
    ) -> Result<T, E> {
        Self::fill(serve)?.or_else(|tree| decode(&tree))
    }

    /// [`ReplySlot::fill`] for a caller that reads trees: every reply
    /// lands in its slot as one.
    pub fn tree(serve: impl FnOnce(&mut ReplySlot<'_>) -> RpcResult<()>) -> RpcResult<Value> {
        Self::fill(serve).map(|reply| reply.unwrap_or_else(|tree| tree))
    }
}

/// What a service that returned without leaving a reply answered.
pub(crate) fn no_reply() -> RpcError {
    RpcError::Service("the service left no reply".into())
}

/// A dispatchable service.
pub trait RpcService: Send + Sync {
    /// Human-readable service name (for traces and errors).
    fn service_name(&self) -> &str;

    /// Handles one procedure call on trees.
    fn dispatch(&self, ctx: &CallCtx<'_>, proc_id: u32, args: &Value) -> RpcResult<Value>;

    /// Handles one procedure call as the fabric delivers it, leaving the
    /// reply in the caller's slot. A service that knows the structs its
    /// callers send overrides this, downcasts `args` (decoding the tree
    /// of a caller that sent one) and [`ReplySlot::put`]s its reply
    /// struct; every other service is reached through
    /// [`RpcService::dispatch`], on the caller's tree.
    fn dispatch_msg(
        &self,
        ctx: &CallCtx<'_>,
        proc_id: u32,
        args: &dyn Message,
        reply: &mut ReplySlot<'_>,
    ) -> RpcResult<()> {
        reply.put(self.dispatch(ctx, proc_id, &args.tree())?);
        Ok(())
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bindproto::GetPort;

    /// A reply of the type the caller reads is moved into its slot; any
    /// other lands as its tree, which a reader of trees takes as it is and
    /// a reader of the struct decodes. A service that leaves nothing is
    /// refused.
    #[test]
    fn a_reply_lands_as_the_type_read_or_as_its_tree() {
        let port = GetPort { program: 7 };
        let tree = port.tree().into_owned();
        let typed = |reply: &mut ReplySlot<'_>| {
            reply.put(port.clone());
            Ok(())
        };
        let untyped = |reply: &mut ReplySlot<'_>| {
            reply.put(tree.clone());
            Ok(())
        };
        assert_eq!(ReplySlot::fill::<GetPort>(typed), Ok(Ok(port.clone())));
        assert_eq!(ReplySlot::fill::<Value>(typed), Ok(Ok(tree.clone())));
        assert_eq!(ReplySlot::tree(typed), Ok(tree.clone()));
        assert_eq!(ReplySlot::fill::<GetPort>(untyped), Ok(Err(tree.clone())));
        let decode = |tree: &Value| Ok::<_, RpcError>(GetPort::from_value(tree)?);
        assert_eq!(ReplySlot::read(untyped, decode), Ok(port));
        assert_eq!(ReplySlot::fill::<GetPort>(|_| Ok(())), Err(no_reply()));
    }
}
