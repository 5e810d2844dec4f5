//! User-information NSMs — the `UserInfo` query class.
//!
//! Peterson's problem (§4, *Administrative Autonomy*) is naming *users*
//! across autonomous organizations; the HCS answer is the same structure
//! as everything else: a query class with one NSM per underlying service.
//! Client interface: no extra args; reply
//! `{ full_name: str, host: str }`.

use std::sync::Arc;

use bindns::name::DomainName;
use bindns::resolver::StdResolver;
use bindns::rr::{RData, RType};
use clearinghouse::client::ChClient;
use clearinghouse::name::ThreePartName;
use clearinghouse::property::PropertyId;
use hns_core::name::{HnsName, NameMapping};
use hns_core::nsm::Nsm;
use hns_core::query::QueryClass;
use hrpc::error::{RpcError, RpcResult};
use wire::Value;

/// The Clearinghouse property carrying user descriptions.
pub const PROP_USER: PropertyId = PropertyId(20);

/// Builds the standard `UserInfo` reply.
pub fn user_reply(full_name: &str, host: &str) -> Value {
    Value::record([
        ("full_name", Value::str(full_name)),
        ("host", Value::str(host)),
    ])
}

fn parse_user_record(text: &str) -> RpcResult<Value> {
    let mut full_name = None;
    let mut host = None;
    for piece in text.split(';') {
        match piece.split_once('=') {
            Some(("name", v)) => full_name = Some(v),
            Some(("host", v)) => host = Some(v),
            _ => {}
        }
    }
    match (full_name, host) {
        (Some(n), Some(h)) => Ok(user_reply(n, h)),
        _ => Err(RpcError::Service(format!("bad user record `{text}`"))),
    }
}

/// User-info NSM over BIND `TXT` records of the form
/// `name=<full name>;host=<home host>`.
pub struct UserBindNsm {
    resolver: Arc<StdResolver>,
    mapping: NameMapping,
}

impl UserBindNsm {
    /// Conventional NSM name.
    pub const NAME: &'static str = "nsm-userinfo-bind";

    /// Creates the NSM.
    pub fn new(resolver: Arc<StdResolver>, mapping: NameMapping) -> Arc<Self> {
        Arc::new(UserBindNsm { resolver, mapping })
    }
}

impl Nsm for UserBindNsm {
    fn nsm_name(&self) -> &str {
        Self::NAME
    }

    fn query_class(&self) -> QueryClass {
        QueryClass::user_info()
    }

    fn handle(&self, hns_name: &HnsName, _args: &Value) -> RpcResult<Value> {
        let local = self
            .mapping
            .to_local(&hns_name.individual)
            .map_err(|e| RpcError::Service(e.to_string()))?;
        let domain = DomainName::parse(&local).map_err(|e| RpcError::Service(e.to_string()))?;
        let records = self.resolver.query(&domain, RType::Txt)?;
        let rr = records
            .iter()
            .find(|r| r.rtype == RType::Txt)
            .ok_or_else(|| RpcError::NotFound(local.clone()))?;
        match &rr.rdata {
            RData::Text(text) => parse_user_record(text),
            other => Err(RpcError::Service(format!("bad TXT rdata {other:?}"))),
        }
    }
}

/// User-info NSM over the Clearinghouse user property, whose value is
/// `{ name: str, host: str }`.
pub struct UserChNsm {
    client: Arc<ChClient>,
    mapping: NameMapping,
}

impl UserChNsm {
    /// Conventional NSM name.
    pub const NAME: &'static str = "nsm-userinfo-ch";

    /// Creates the NSM.
    pub fn new(client: Arc<ChClient>, mapping: NameMapping) -> Arc<Self> {
        Arc::new(UserChNsm { client, mapping })
    }
}

impl Nsm for UserChNsm {
    fn nsm_name(&self) -> &str {
        Self::NAME
    }

    fn query_class(&self) -> QueryClass {
        QueryClass::user_info()
    }

    fn handle(&self, hns_name: &HnsName, _args: &Value) -> RpcResult<Value> {
        let local = self
            .mapping
            .to_local(&hns_name.individual)
            .map_err(|e| RpcError::Service(e.to_string()))?;
        let tpn = ThreePartName::parse(&local).map_err(|e| RpcError::Service(e.to_string()))?;
        let value = self.client.lookup_item(&tpn, PROP_USER)?;
        Ok(user_reply(
            value.str_field("name")?,
            value.str_field("host")?,
        ))
    }
}

impl std::fmt::Debug for UserBindNsm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("UserBindNsm").finish()
    }
}

impl std::fmt::Debug for UserChNsm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("UserChNsm").finish()
    }
}
