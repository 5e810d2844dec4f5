//! Typed client for the exported registration service.

use std::sync::Arc;

use hrpc::net::RpcNet;
use hrpc::HrpcBinding;
use simnet::topology::HostId;
use wire::Value;

use crate::error::{RegError, RegResult};
use crate::registry::Resolution;
use crate::server::{
    resolution_from_value, PROC_REGISTER, PROC_RELEASE, PROC_RESOLVE, PROC_TRANSFER, PROC_UPDATE,
};

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

    fn call(&self, proc_id: u32, args: Value) -> RegResult<Value> {
        self.net
            .call(self.host, &self.server, proc_id, &args)
            .map_err(RegError::Rpc)
    }

    fn auth_args(owner: &str, key: u64, name: &str) -> Vec<(&'static str, Value)> {
        vec![
            ("owner", Value::str(owner)),
            ("key", Value::U64(key)),
            ("name", Value::str(name)),
        ]
    }

    /// Registers `name` to `owner`, bound to `service`.
    pub fn register(
        &self,
        owner: &str,
        key: u64,
        name: &str,
        service: &str,
    ) -> RegResult<Resolution> {
        let mut args = Self::auth_args(owner, key, name);
        args.push(("service", Value::str(service)));
        let v = self.call(PROC_REGISTER, Value::record(args))?;
        Ok(resolution_from_value(&v)?)
    }

    /// Re-binds a registered name to a different name service.
    pub fn update(&self, owner: &str, key: u64, name: &str, service: &str) -> RegResult<()> {
        let mut args = Self::auth_args(owner, key, name);
        args.push(("service", Value::str(service)));
        self.call(PROC_UPDATE, Value::record(args))?;
        Ok(())
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
        let mut args = Self::auth_args(from, key, name);
        args.push(("to", Value::str(to)));
        args.push((
            "rebind",
            Value::Opt(rebind.map(|s| Box::new(Value::str(s)))),
        ));
        let v = self.call(PROC_TRANSFER, Value::record(args))?;
        Ok(resolution_from_value(&v)?)
    }

    /// Releases a registered name.
    pub fn release(&self, owner: &str, key: u64, name: &str) -> RegResult<()> {
        self.call(
            PROC_RELEASE,
            Value::record(Self::auth_args(owner, key, name)),
        )?;
        Ok(())
    }

    /// Resolves a name to its collapsed chain head.
    pub fn resolve(&self, name: &str) -> RegResult<Resolution> {
        let v = self.call(PROC_RESOLVE, Value::record([("name", Value::str(name))]))?;
        Ok(resolution_from_value(&v)?)
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
