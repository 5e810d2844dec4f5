//! Host-address NSMs: host name → network address, for both underlying
//! name services.
//!
//! Instances of these are linked directly with every HNS to break the
//! `FindNSM` recursion ("so that their network addresses need not be
//! found"). The identical client interface for the `HostAddress` query
//! class: no fields of its own; reply [`HostAddress`].

use std::sync::Arc;

use bindns::resolver::StdResolver;
use clearinghouse::client::ChClient;
use hns_core::name::NameMapping;
use hns_core::nsm::{HostAddress, Nsm, NsmRequest};
use hns_core::query::QueryClass;
use hrpc::error::RpcResult;
use hrpc::server::ReplySlot;

use crate::adapter::{Adapter, HostLookup};

/// The host-address NSM, written once over the adapter of either service:
/// the adapter knows what a host's address is there and how long it keeps
/// (a BIND record's own TTL; [`hns_core::META_TTL`] for the Clearinghouse,
/// which has none).
#[derive(Debug)]
pub struct HostAddrNsm<S> {
    name: String,
    adapter: Adapter<S>,
}

/// Host-address NSM backed by the public BIND.
pub type HostAddrBindNsm = HostAddrNsm<StdResolver>;
/// Host-address NSM backed by the Clearinghouse.
pub type HostAddrChNsm = HostAddrNsm<ChClient>;

impl<S> HostAddrNsm<S> {
    /// Creates the NSM under a custom registered name (for additional
    /// subsystems of the same kind joining the federation).
    pub fn named(name: impl Into<String>, service: Arc<S>, mapping: NameMapping) -> Arc<Self> {
        Arc::new(HostAddrNsm {
            name: name.into(),
            adapter: Adapter::new(service, mapping),
        })
    }
}

impl HostAddrBindNsm {
    /// Conventional NSM name for a BIND host-address NSM.
    pub const NAME: &'static str = "nsm-hostaddress-bind";

    /// Creates the NSM over a standard resolver.
    pub fn new(resolver: Arc<StdResolver>, mapping: NameMapping) -> Arc<Self> {
        Self::named(Self::NAME, resolver, mapping)
    }
}

impl HostAddrChNsm {
    /// Conventional NSM name for a Clearinghouse host-address NSM.
    pub const NAME: &'static str = "nsm-hostaddress-ch";

    /// Creates the NSM over a Clearinghouse client.
    pub fn new(client: Arc<ChClient>, mapping: NameMapping) -> Arc<Self> {
        Self::named(Self::NAME, client, mapping)
    }
}

impl<S> Nsm for HostAddrNsm<S>
where
    Adapter<S>: HostLookup,
{
    fn nsm_name(&self) -> &str {
        &self.name
    }

    fn query_class(&self) -> QueryClass {
        QueryClass::host_address()
    }

    fn handle(&self, request: &NsmRequest, reply: &mut ReplySlot<'_>) -> RpcResult<()> {
        let (host, ttl) = self.adapter.address(&request.name)?;
        reply.put(HostAddress { host, ttl });
        Ok(())
    }
}
