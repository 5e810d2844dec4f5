//! User-information NSMs — the `UserInfo` query class.
//!
//! Peterson's problem (§4, *Administrative Autonomy*) is naming *users*
//! across autonomous organizations; the HCS answer is the same structure
//! as everything else: a query class with one NSM per underlying service.
//! Client interface: no fields of its own; reply [`UserInfo`].

use std::sync::Arc;

use bindns::resolver::StdResolver;
use clearinghouse::client::ChClient;
use clearinghouse::property::PropertyId;
use hns_core::name::NameMapping;
use hns_core::nsm::{Nsm, NsmRequest};
use hns_core::query::QueryClass;
use hrpc::error::RpcResult;
use hrpc::server::Reply;
use wire::message::{Shape, Shaped};
use wire::{Value, WireResult};

use crate::adapter::{BindAdapter, ChAdapter};

/// The Clearinghouse property carrying user descriptions.
pub const PROP_USER: PropertyId = PropertyId(20);

/// The `UserInfo` query class's standard reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UserInfo {
    /// The user's full name.
    pub full_name: String,
    /// The user's home host.
    pub host: String,
}

impl UserInfo {
    fn new(full_name: &str, host: &str) -> UserInfo {
        UserInfo {
            full_name: full_name.to_string(),
            host: host.to_string(),
        }
    }

    /// Decodes an untyped NSM's reply.
    pub fn from_value(v: &Value) -> WireResult<UserInfo> {
        Ok(UserInfo::new(
            v.str_field("full_name")?,
            v.str_field("host")?,
        ))
    }
}

impl Shaped for UserInfo {
    fn shape<S: Shape>(&self, s: &S) -> S::Out {
        s.record([
            ("full_name", s.str(&self.full_name)),
            ("host", s.str(&self.host)),
        ])
    }
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

    fn handle(&self, request: &NsmRequest) -> RpcResult<Reply> {
        let keys = ["name", "host"];
        let user = (self.0).lookup_pair(&request.name, "user", keys, UserInfo::new)?;
        Ok(Reply::typed(user))
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

    fn handle(&self, request: &NsmRequest) -> RpcResult<Reply> {
        let user = self.0.lookup(&request.name, PROP_USER)?;
        let info = UserInfo::new(user.str_field("name")?, user.str_field("host")?);
        Ok(Reply::typed(info))
    }
}
