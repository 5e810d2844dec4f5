//! User-information NSMs — the `UserInfo` query class.
//!
//! Peterson's problem (§4, *Administrative Autonomy*) is naming *users*
//! across autonomous organizations; the HCS answer is the same structure
//! as everything else: a query class with one NSM per underlying service.
//! Client interface: no extra args; reply
//! `{ full_name: str, host: str }`.

use std::sync::Arc;

use bindns::resolver::StdResolver;
use clearinghouse::client::ChClient;
use clearinghouse::property::PropertyId;
use hns_core::name::{HnsName, NameMapping};
use hns_core::nsm::Nsm;
use hns_core::query::QueryClass;
use hrpc::error::RpcResult;
use wire::Value;

use crate::adapter::{BindAdapter, ChAdapter};

/// The Clearinghouse property carrying user descriptions.
pub const PROP_USER: PropertyId = PropertyId(20);

/// Builds the standard `UserInfo` reply.
pub fn user_reply(full_name: &str, host: &str) -> Value {
    Value::record([
        ("full_name", Value::str(full_name)),
        ("host", Value::str(host)),
    ])
}

/// User-info NSM over BIND `TXT` records of the form
/// `name=<full name>;host=<home host>`.
#[derive(Debug)]
pub struct UserBindNsm(BindAdapter);

impl UserBindNsm {
    /// Conventional NSM name.
    pub const NAME: &'static str = "nsm-userinfo-bind";

    /// Creates the NSM.
    pub fn new(resolver: Arc<StdResolver>, mapping: NameMapping) -> Arc<Self> {
        Arc::new(UserBindNsm(BindAdapter::new(resolver, mapping)))
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
        self.0
            .lookup_pair(hns_name, "user", ["name", "host"], user_reply)
    }
}

/// User-info NSM over the Clearinghouse user property, whose value is
/// `{ name: str, host: str }`.
#[derive(Debug)]
pub struct UserChNsm(ChAdapter);

impl UserChNsm {
    /// Conventional NSM name.
    pub const NAME: &'static str = "nsm-userinfo-ch";

    /// Creates the NSM.
    pub fn new(client: Arc<ChClient>, mapping: NameMapping) -> Arc<Self> {
        Arc::new(UserChNsm(ChAdapter::new(client, mapping)))
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
        let user = self.0.lookup(hns_name, PROP_USER)?;
        Ok(user_reply(user.str_field("name")?, user.str_field("host")?))
    }
}
