//! Colocation arrangements.
//!
//! "Because the HNS accesses its data from other servers ... even the HNS
//! can be linked locally. Similarly, the NSMs can be linked with any
//! process. ... We call the choice of where the HNS and NSMs are linked
//! for each client the colocation arrangement."
//!
//! This module provides the machinery for every arrangement of Table 3.1:
//!
//! * a linked HNS — the client holds an [`crate::service::Hns`] directly;
//! * a remote HNS — [`HnsService`] exports `FindNSM` over HRPC and
//!   [`HnsHandle::Remote`] calls it, paying argument marshalling;
//! * an agent — [`AgentService`] is "a single process remote from the
//!   client [that acts] as the client's agent, making local calls to the
//!   HNS and then to the NSM" (row 2).

use std::sync::Arc;

use simnet::costs::Term;
use simnet::topology::HostId;

use hrpc::error::{RpcError, RpcResult};
use hrpc::net::RpcNet;
use hrpc::server::{CallCtx, ReplySlot, RpcService};
use hrpc::{HrpcBinding, ProgramId};
use wire::{Message, Value};

use crate::error::{HnsError, HnsResult};
use crate::name::HnsName;
use crate::nsm::{NsmClient, NsmRequest, QueryArgs};
use crate::query::QueryClass;
use crate::service::Hns;

/// Program number for a remotely exported HNS.
pub const HNS_PROGRAM: ProgramId = ProgramId(400_001);
/// HNS procedure: `FindNSM`.
pub const HNS_PROC_FINDNSM: u32 = 1;
/// Program number for an agent process.
pub const AGENT_PROGRAM: ProgramId = ProgramId(400_002);
/// Agent procedure: full query (find NSM + call it).
pub const AGENT_PROC_QUERY: u32 = 1;

/// Exports an [`Hns`] as a remote service.
pub struct HnsService {
    hns: Arc<Hns>,
}

impl HnsService {
    /// Wraps an HNS instance.
    pub fn new(hns: Arc<Hns>) -> Arc<Self> {
        Arc::new(HnsService { hns })
    }
}

fn hns_err(e: HnsError) -> RpcError {
    match e {
        HnsError::Rpc(rpc) => rpc,
        HnsError::NoSuchContext(c) => RpcError::NotFound(format!("context {c}")),
        HnsError::NoSuchNsm {
            name_service,
            query_class,
        } => RpcError::NotFound(format!("NSM for {query_class} on {name_service}")),
        other => RpcError::Service(other.to_string()),
    }
}

impl RpcService for HnsService {
    fn service_name(&self) -> &str {
        "hns"
    }

    fn dispatch(&self, ctx: &CallCtx<'_>, proc_id: u32, args: &Value) -> RpcResult<Value> {
        ReplySlot::tree(|reply| self.dispatch_msg(ctx, proc_id, args, reply))
    }

    /// `FindNSM` is served on the [`NsmRequest`] and answers with the
    /// [`HrpcBinding`] itself.
    fn dispatch_msg(
        &self,
        _ctx: &CallCtx<'_>,
        proc_id: u32,
        args: &dyn Message,
        reply: &mut ReplySlot<'_>,
    ) -> RpcResult<()> {
        if proc_id != HNS_PROC_FINDNSM {
            return Err(RpcError::BadProcedure(proc_id));
        }
        let request = args.read(NsmRequest::from_value)?;
        let binding = self
            .hns
            .find_nsm(request.class()?, &request.name)
            .map_err(hns_err)?;
        reply.put(binding);
        Ok(())
    }
}

impl std::fmt::Debug for HnsService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HnsService").finish()
    }
}

/// How a client reaches the HNS.
#[derive(Clone)]
pub enum HnsHandle {
    /// The HNS is linked into the client's address space.
    Linked(Arc<Hns>),
    /// The HNS runs remotely behind a binding.
    Remote(HrpcBinding),
}

/// Client-side access to `FindNSM` under any colocation arrangement.
pub struct HnsClient {
    net: Arc<RpcNet>,
    host: HostId,
    handle: HnsHandle,
}

impl HnsClient {
    /// Creates a client on `host` using `handle`.
    pub fn new(net: Arc<RpcNet>, host: HostId, handle: HnsHandle) -> Self {
        HnsClient { net, host, handle }
    }

    /// The caller host.
    pub fn host(&self) -> HostId {
        self.host
    }

    /// Calls `FindNSM`.
    pub fn find_nsm(&self, qc: &QueryClass, name: &HnsName) -> HnsResult<HrpcBinding> {
        match &self.handle {
            HnsHandle::Linked(hns) => hns.find_nsm(qc, name),
            HnsHandle::Remote(binding) => {
                let world = self.net.world();
                if !world.topology.colocated(self.host, binding.host) {
                    world.charge(Term::FindNsmArgMarshal);
                }
                let request = NsmRequest {
                    query_class: Some(qc.clone()),
                    ..NsmRequest::new(name.clone(), QueryArgs::None)
                };
                let decode = |tree: &Value| HrpcBinding::from_value(tree).map_err(HnsError::from);
                (self.net).call_msg(self.host, binding, HNS_PROC_FINDNSM, &request, decode)
            }
        }
    }
}

impl std::fmt::Debug for HnsClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HnsClient")
            .field("host", &self.host)
            .finish()
    }
}

/// The agent arrangement (Table 3.1 row 2): a remote process linked with
/// both the HNS and the NSMs; the client makes one call and the agent does
/// the rest locally.
///
/// "This structure provides a mixture of colocation efficiency and ease of
/// NSM update, as the code to be modified with changes to the NSM is well
/// contained."
pub struct AgentService {
    hns: Arc<Hns>,
    host: HostId,
}

impl AgentService {
    /// Wraps an HNS linked into the agent process on `host`.
    pub fn new(hns: Arc<Hns>, host: HostId) -> Arc<Self> {
        Arc::new(AgentService { hns, host })
    }
}

impl RpcService for AgentService {
    fn service_name(&self) -> &str {
        "hns-agent"
    }

    fn dispatch(&self, ctx: &CallCtx<'_>, proc_id: u32, args: &Value) -> RpcResult<Value> {
        ReplySlot::tree(|reply| self.dispatch_msg(ctx, proc_id, args, reply))
    }

    /// Served on the [`NsmRequest`]; the NSM leaves its reply in the
    /// caller's slot.
    fn dispatch_msg(
        &self,
        _ctx: &CallCtx<'_>,
        proc_id: u32,
        args: &dyn Message,
        reply: &mut ReplySlot<'_>,
    ) -> RpcResult<()> {
        if proc_id != AGENT_PROC_QUERY {
            return Err(RpcError::BadProcedure(proc_id));
        }
        let request = args.read(NsmRequest::from_value)?;
        let nsm_binding = self
            .hns
            .find_nsm(request.class()?, &request.name)
            .map_err(hns_err)?;
        // The query class's own fields travel on to the NSM as they came.
        let to_nsm = NsmRequest::new(request.name.clone(), request.args.clone());
        let nsm_client = NsmClient::new(Arc::clone(self.hns.net()), self.host);
        nsm_client.call_into(&nsm_binding, &to_nsm, reply)
    }
}

impl std::fmt::Debug for AgentService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AgentService")
            .field("host", &self.host)
            .finish()
    }
}

/// Client-side access to an agent.
pub struct AgentClient {
    net: Arc<RpcNet>,
    host: HostId,
    binding: HrpcBinding,
}

impl AgentClient {
    /// Creates a client on `host` calling the agent behind `binding`.
    pub fn new(net: Arc<RpcNet>, host: HostId, binding: HrpcBinding) -> Self {
        AgentClient { net, host, binding }
    }

    /// Performs a complete query through the agent.
    pub fn query(
        &self,
        qc: &QueryClass,
        name: &HnsName,
        extra: Vec<(&'static str, Value)>,
    ) -> HnsResult<Value> {
        let world = self.net.world();
        if !world.topology.colocated(self.host, self.binding.host) {
            world.charge(Term::AgentArgMarshal);
        }
        let request = NsmRequest {
            query_class: Some(qc.clone()),
            ..NsmRequest::new(name.clone(), QueryArgs::from_fields(extra)?)
        };
        let call = |reply: &mut ReplySlot<'_>| {
            (self.net).call_into(self.host, &self.binding, AGENT_PROC_QUERY, &request, reply)
        };
        ReplySlot::tree(call).map_err(HnsError::Rpc)
    }
}

impl std::fmt::Debug for AgentClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AgentClient")
            .field("host", &self.host)
            .finish()
    }
}
