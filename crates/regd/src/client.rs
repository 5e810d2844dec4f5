//! Typed client for the exported registration service.

use std::sync::Arc;

use hrpc::net::RpcNet;
use hrpc::server::ReplySlot;
use hrpc::HrpcBinding;
use simnet::topology::HostId;
use wire::{Message, Value};

use crate::error::RegResult;
use crate::message::{Register, Release, Resolve, Transfer, Update};
use crate::registry::Resolution;
use crate::server::{PROC_REGISTER, PROC_RELEASE, PROC_RESOLVE, PROC_TRANSFER, PROC_UPDATE};

/// A client of a remote registration frontend.
///
/// Transport failures come back as `RegError::Rpc` with the exact
/// server-side error value — a partitioned Clearinghouse primary behind
/// the frontend surfaces here as a typed `HostUnreachable`, not a
/// generic service failure.
#[derive(Clone)]
pub struct RegClient {
    net: Arc<RpcNet>,
    host: HostId,
    server: HrpcBinding,
}

impl RegClient {
    /// Creates a client on `host` dialing the frontend at `server`.
    pub fn new(net: Arc<RpcNet>, host: HostId, server: HrpcBinding) -> RegClient {
        RegClient { net, host, server }
    }

    /// Sends a write, whose acknowledgement carries nothing.
    fn call(&self, proc_id: u32, request: &dyn Message) -> RegResult<()> {
        let call = |reply: &mut ReplySlot<'_>| {
            (self.net).call_into(self.host, &self.server, proc_id, request, reply)
        };
        ReplySlot::tree(call)?;
        Ok(())
    }

    fn resolution(&self, proc_id: u32, request: &dyn Message) -> RegResult<Resolution> {
        let decode = |tree: &Value| Ok(Resolution::from_value(tree)?);
        (self.net).call_msg(self.host, &self.server, proc_id, request, decode)
    }

    /// Registers `name` to `owner`, bound to `service`.
    pub fn register(
        &self,
        owner: &str,
        key: u64,
        name: &str,
        service: &str,
    ) -> RegResult<Resolution> {
        let request = Register {
            owner: owner.into(),
            key,
            name: name.into(),
            service: service.into(),
        };
        self.resolution(PROC_REGISTER, &request)
    }

    /// Re-binds a registered name to a different name service.
    pub fn update(&self, owner: &str, key: u64, name: &str, service: &str) -> RegResult<()> {
        let request = Update {
            owner: owner.into(),
            key,
            name: name.into(),
            service: service.into(),
        };
        self.call(PROC_UPDATE, &request)
    }

    /// Transfers `name` from `from` to `to`, optionally re-binding it.
    pub fn transfer(
        &self,
        from: &str,
        key: u64,
        name: &str,
        to: &str,
        rebind: Option<&str>,
    ) -> RegResult<Resolution> {
        let request = Transfer {
            owner: from.into(),
            key,
            name: name.into(),
            to: to.into(),
            rebind: rebind.map(str::to_string),
        };
        self.resolution(PROC_TRANSFER, &request)
    }

    /// Releases a registered name.
    pub fn release(&self, owner: &str, key: u64, name: &str) -> RegResult<()> {
        let request = Release {
            owner: owner.into(),
            key,
            name: name.into(),
        };
        self.call(PROC_RELEASE, &request)
    }

    /// Resolves a name to its collapsed chain head.
    pub fn resolve(&self, name: &str) -> RegResult<Resolution> {
        self.resolution(PROC_RESOLVE, &Resolve { name: name.into() })
    }
}

impl std::fmt::Debug for RegClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RegClient")
            .field("host", &self.host)
            .field("server", &self.server)
            .finish()
    }
}
