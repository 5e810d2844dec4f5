//! Mailbox-location NSMs — the second application query class.
//!
//! The paper's HCS project provided network-wide mail atop the HNS; these
//! NSMs answer "where does this user's mail go?" from each underlying
//! service. Client interface for `MailboxLocation`: no fields of its own;
//! reply [`MailboxLocation`].

use std::sync::Arc;

use bindns::resolver::StdResolver;
use bindns::rr::{RData, RType};
use clearinghouse::client::ChClient;
use clearinghouse::property::PROP_MAILBOX;
use hns_core::name::NameMapping;
use hns_core::nsm::{Nsm, NsmRequest};
use hns_core::query::QueryClass;
use hrpc::error::RpcResult;
use hrpc::server::ReplySlot;

use crate::adapter::{BindAdapter, ChAdapter};

/// The `MailboxLocation` query class's standard reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MailboxLocation {
    /// Where the user's mail is delivered.
    pub mailbox_host: String,
}

wire::record!(MailboxLocation { mailbox_host });

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

    fn handle(&self, request: &NsmRequest, reply: &mut ReplySlot<'_>) -> RpcResult<()> {
        let mailbox_host = self
            .0
            .lookup(&request.name, RType::Mx, |rdata| match rdata {
                RData::Domain(target) => Some(target.to_string()),
                _ => None,
            })?;
        reply.put(MailboxLocation { mailbox_host });
        Ok(())
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

    fn handle(&self, request: &NsmRequest, reply: &mut ReplySlot<'_>) -> RpcResult<()> {
        let mailbox_host = (self.0).lookup(&request.name, PROP_MAILBOX, |item| {
            item.as_str().map(str::to_string)
        })?;
        reply.put(MailboxLocation { mailbox_host });
        Ok(())
    }
}
