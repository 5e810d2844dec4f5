//! Mailbox-location NSMs — the second application query class.
//!
//! The paper's HCS project provided network-wide mail atop the HNS; these
//! NSMs answer "where does this user's mail go?" from each underlying
//! service. Client interface for `MailboxLocation`: no extra args; reply
//! `{ mailbox_host: str }`.

use std::sync::Arc;

use bindns::resolver::StdResolver;
use bindns::rr::{RData, RType};
use clearinghouse::client::ChClient;
use clearinghouse::property::PROP_MAILBOX;
use hns_core::name::{HnsName, NameMapping};
use hns_core::nsm::Nsm;
use hns_core::query::QueryClass;
use hrpc::error::RpcResult;
use wire::Value;

use crate::adapter::{BindAdapter, ChAdapter};

/// Builds the standard `MailboxLocation` reply.
pub fn mailbox_reply(host: &str) -> Value {
    Value::record([("mailbox_host", Value::str(host))])
}

/// Mailbox NSM over BIND `MX` records.
#[derive(Debug)]
pub struct MailBindNsm(BindAdapter);

impl MailBindNsm {
    /// Conventional NSM name.
    pub const NAME: &'static str = "nsm-mailboxlocation-bind";

    /// Creates the NSM.
    pub fn new(resolver: Arc<StdResolver>, mapping: NameMapping) -> Arc<Self> {
        Arc::new(MailBindNsm(BindAdapter::new(resolver, mapping)))
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
        self.0.lookup(hns_name, RType::Mx, |rdata| match rdata {
            RData::Domain(target) => Some(mailbox_reply(&target.to_string())),
            _ => None,
        })
    }
}

/// Mailbox NSM over the Clearinghouse mailbox property.
#[derive(Debug)]
pub struct MailChNsm(ChAdapter);

impl MailChNsm {
    /// Conventional NSM name.
    pub const NAME: &'static str = "nsm-mailboxlocation-ch";

    /// Creates the NSM.
    pub fn new(client: Arc<ChClient>, mapping: NameMapping) -> Arc<Self> {
        Arc::new(MailChNsm(ChAdapter::new(client, mapping)))
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
        let mailbox = self.0.lookup(hns_name, PROP_MAILBOX)?;
        Ok(mailbox_reply(mailbox.as_str()?))
    }
}
