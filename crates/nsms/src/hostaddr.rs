//! Host-address NSMs: host name → network address, for both underlying
//! name services.
//!
//! Instances of these are linked directly with every HNS to break the
//! `FindNSM` recursion ("so that their network addresses need not be
//! found"). The identical client interface for the `HostAddress` query
//! class: no extra arguments; reply `{ host: u32, ttl: u32 }`.

use std::sync::Arc;

use bindns::name::DomainName;
use bindns::resolver::StdResolver;
use bindns::rr::{RData, RType};
use clearinghouse::client::ChClient;
use clearinghouse::name::ThreePartName;
use clearinghouse::property::PROP_ADDRESS;
use hns_core::name::{HnsName, NameMapping};
use hns_core::nsm::Nsm;
use hns_core::query::QueryClass;
use hrpc::error::{RpcError, RpcResult};
use wire::Value;

/// Builds the standard `HostAddress` reply.
pub fn host_reply(host: u32, ttl: u32) -> Value {
    Value::record([("host", Value::U32(host)), ("ttl", Value::U32(ttl))])
}

/// Host-address NSM backed by the public BIND.
pub struct HostAddrBindNsm {
    name: String,
    resolver: Arc<StdResolver>,
    mapping: NameMapping,
}

impl HostAddrBindNsm {
    /// Conventional NSM name for a BIND host-address NSM.
    pub const NAME: &'static str = "nsm-hostaddress-bind";

    /// Creates the NSM over a standard resolver.
    pub fn new(resolver: Arc<StdResolver>, mapping: NameMapping) -> Arc<Self> {
        Self::named(Self::NAME, resolver, mapping)
    }

    /// Creates the NSM under a custom registered name (for additional
    /// BIND-style subsystems joining the federation).
    pub fn named(
        name: impl Into<String>,
        resolver: Arc<StdResolver>,
        mapping: NameMapping,
    ) -> Arc<Self> {
        Arc::new(HostAddrBindNsm {
            name: name.into(),
            resolver,
            mapping,
        })
    }
}

impl Nsm for HostAddrBindNsm {
    fn nsm_name(&self) -> &str {
        &self.name
    }

    fn query_class(&self) -> QueryClass {
        QueryClass::host_address()
    }

    fn handle(&self, hns_name: &HnsName, _args: &Value) -> RpcResult<Value> {
        let local = self
            .mapping
            .to_local(&hns_name.individual)
            .map_err(|e| RpcError::Service(e.to_string()))?;
        let domain = DomainName::parse(&local).map_err(|e| RpcError::Service(e.to_string()))?;
        let records = self.resolver.query_uncached(&domain, RType::A)?;
        let rr = records
            .iter()
            .find(|r| r.rtype == RType::A)
            .ok_or_else(|| RpcError::NotFound(local.clone()))?;
        match &rr.rdata {
            RData::Addr(addr) => Ok(host_reply(addr.host.0, rr.ttl)),
            other => Err(RpcError::Service(format!("bad A rdata {other:?}"))),
        }
    }
}

/// Host-address NSM backed by the Clearinghouse.
pub struct HostAddrChNsm {
    name: String,
    client: Arc<ChClient>,
    mapping: NameMapping,
    default_ttl: u32,
}

impl HostAddrChNsm {
    /// Conventional NSM name for a Clearinghouse host-address NSM.
    pub const NAME: &'static str = "nsm-hostaddress-ch";

    /// Creates the NSM over a Clearinghouse client.
    pub fn new(client: Arc<ChClient>, mapping: NameMapping, default_ttl: u32) -> Arc<Self> {
        Arc::new(HostAddrChNsm {
            name: Self::NAME.to_string(),
            client,
            mapping,
            default_ttl,
        })
    }
}

impl Nsm for HostAddrChNsm {
    fn nsm_name(&self) -> &str {
        &self.name
    }

    fn query_class(&self) -> QueryClass {
        QueryClass::host_address()
    }

    fn handle(&self, hns_name: &HnsName, _args: &Value) -> RpcResult<Value> {
        let local = self
            .mapping
            .to_local(&hns_name.individual)
            .map_err(|e| RpcError::Service(e.to_string()))?;
        let tpn = ThreePartName::parse(&local).map_err(|e| RpcError::Service(e.to_string()))?;
        let value = self.client.lookup_item(&tpn, PROP_ADDRESS)?;
        Ok(host_reply(value.as_u32()?, self.default_ttl))
    }
}

impl std::fmt::Debug for HostAddrBindNsm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HostAddrBindNsm").finish()
    }
}

impl std::fmt::Debug for HostAddrChNsm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HostAddrChNsm").finish()
    }
}
