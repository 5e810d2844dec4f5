//! Mailbox-location NSMs — the second application query class.
//!
//! The paper's HCS project provided network-wide mail atop the HNS; these
//! NSMs answer "where does this user's mail go?" from each underlying
//! service. Client interface for `MailboxLocation`: no extra args; reply
//! `{ mailbox_host: str }`.

use std::sync::Arc;

use bindns::name::DomainName;
use bindns::resolver::StdResolver;
use bindns::rr::{RData, RType};
use clearinghouse::client::ChClient;
use clearinghouse::name::ThreePartName;
use clearinghouse::property::PROP_MAILBOX;
use hns_core::name::{HnsName, NameMapping};
use hns_core::nsm::Nsm;
use hns_core::query::QueryClass;
use hrpc::error::{RpcError, RpcResult};
use wire::Value;

/// Builds the standard `MailboxLocation` reply.
pub fn mailbox_reply(host: &str) -> Value {
    Value::record([("mailbox_host", Value::str(host))])
}

/// Mailbox NSM over BIND `MX` records.
pub struct MailBindNsm {
    resolver: Arc<StdResolver>,
    mapping: NameMapping,
}

impl MailBindNsm {
    /// Conventional NSM name.
    pub const NAME: &'static str = "nsm-mailboxlocation-bind";

    /// Creates the NSM.
    pub fn new(resolver: Arc<StdResolver>, mapping: NameMapping) -> Arc<Self> {
        Arc::new(MailBindNsm { resolver, mapping })
    }
}

impl Nsm for MailBindNsm {
    fn nsm_name(&self) -> &str {
        Self::NAME
    }

    fn query_class(&self) -> QueryClass {
        QueryClass::mailbox_location()
    }

    fn handle(&self, hns_name: &HnsName, _args: &Value) -> RpcResult<Value> {
        let local = self
            .mapping
            .to_local(&hns_name.individual)
            .map_err(|e| RpcError::Service(e.to_string()))?;
        let domain = DomainName::parse(&local).map_err(|e| RpcError::Service(e.to_string()))?;
        let records = self.resolver.query(&domain, RType::Mx)?;
        let rr = records
            .iter()
            .find(|r| r.rtype == RType::Mx)
            .ok_or_else(|| RpcError::NotFound(local.clone()))?;
        match &rr.rdata {
            RData::Domain(target) => Ok(mailbox_reply(&target.to_string())),
            other => Err(RpcError::Service(format!("bad MX rdata {other:?}"))),
        }
    }
}

/// Mailbox NSM over the Clearinghouse mailbox property.
pub struct MailChNsm {
    client: Arc<ChClient>,
    mapping: NameMapping,
}

impl MailChNsm {
    /// Conventional NSM name.
    pub const NAME: &'static str = "nsm-mailboxlocation-ch";

    /// Creates the NSM.
    pub fn new(client: Arc<ChClient>, mapping: NameMapping) -> Arc<Self> {
        Arc::new(MailChNsm { client, mapping })
    }
}

impl Nsm for MailChNsm {
    fn nsm_name(&self) -> &str {
        Self::NAME
    }

    fn query_class(&self) -> QueryClass {
        QueryClass::mailbox_location()
    }

    fn handle(&self, hns_name: &HnsName, _args: &Value) -> RpcResult<Value> {
        let local = self
            .mapping
            .to_local(&hns_name.individual)
            .map_err(|e| RpcError::Service(e.to_string()))?;
        let tpn = ThreePartName::parse(&local).map_err(|e| RpcError::Service(e.to_string()))?;
        let value = self.client.lookup_item(&tpn, PROP_MAILBOX)?;
        Ok(mailbox_reply(value.as_str()?))
    }
}

impl std::fmt::Debug for MailBindNsm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MailBindNsm").finish()
    }
}

impl std::fmt::Debug for MailChNsm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MailChNsm").finish()
    }
}
