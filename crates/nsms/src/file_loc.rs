//! File-location NSMs — the heterogeneous-filing extension.
//!
//! §5 of the paper: "We are pursuing this structure in the context of ...
//! a heterogeneous file system that mediates access to the set of local
//! file systems present in the environment." These NSMs answer "which file
//! service holds this file, and under what local path?" Client interface
//! for `FileLocation`: extra args `{ path: str }`; reply
//! `{ file_host: str, local_path: str }`.

use std::sync::Arc;

use bindns::name::DomainName;
use bindns::resolver::StdResolver;
use bindns::rr::{RData, RType};
use clearinghouse::client::ChClient;
use clearinghouse::name::ThreePartName;
use clearinghouse::property::PROP_FILE_SERVICE;
use hns_core::name::{HnsName, NameMapping};
use hns_core::nsm::Nsm;
use hns_core::query::QueryClass;
use hrpc::error::{RpcError, RpcResult};
use wire::Value;

/// Builds the standard `FileLocation` reply.
pub fn file_reply(file_host: &str, local_path: &str) -> Value {
    Value::record([
        ("file_host", Value::str(file_host)),
        ("local_path", Value::str(local_path)),
    ])
}

/// File-location NSM over BIND `TXT` records of the form
/// `fileservice=<host>;root=<path>`.
pub struct FileBindNsm {
    resolver: Arc<StdResolver>,
    mapping: NameMapping,
}

impl FileBindNsm {
    /// Conventional NSM name.
    pub const NAME: &'static str = "nsm-filelocation-bind";

    /// Creates the NSM.
    pub fn new(resolver: Arc<StdResolver>, mapping: NameMapping) -> Arc<Self> {
        Arc::new(FileBindNsm { resolver, mapping })
    }
}

fn parse_file_record(text: &str, path: &str) -> RpcResult<Value> {
    let mut host = None;
    let mut root = None;
    for piece in text.split(';') {
        match piece.split_once('=') {
            Some(("fileservice", v)) => host = Some(v),
            Some(("root", v)) => root = Some(v),
            _ => {}
        }
    }
    match (host, root) {
        (Some(h), Some(r)) => Ok(file_reply(h, &format!("{r}/{path}"))),
        _ => Err(RpcError::Service(format!("bad file record `{text}`"))),
    }
}

impl Nsm for FileBindNsm {
    fn nsm_name(&self) -> &str {
        Self::NAME
    }

    fn query_class(&self) -> QueryClass {
        QueryClass::file_location()
    }

    fn handle(&self, hns_name: &HnsName, args: &Value) -> RpcResult<Value> {
        let path = args.str_field("path")?;
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
            RData::Text(text) => parse_file_record(text, path),
            other => Err(RpcError::Service(format!("bad TXT rdata {other:?}"))),
        }
    }
}

/// File-location NSM over the Clearinghouse file-service property, whose
/// value is `{ host: str, root: str }`.
pub struct FileChNsm {
    client: Arc<ChClient>,
    mapping: NameMapping,
}

impl FileChNsm {
    /// Conventional NSM name.
    pub const NAME: &'static str = "nsm-filelocation-ch";

    /// Creates the NSM.
    pub fn new(client: Arc<ChClient>, mapping: NameMapping) -> Arc<Self> {
        Arc::new(FileChNsm { client, mapping })
    }
}

impl Nsm for FileChNsm {
    fn nsm_name(&self) -> &str {
        Self::NAME
    }

    fn query_class(&self) -> QueryClass {
        QueryClass::file_location()
    }

    fn handle(&self, hns_name: &HnsName, args: &Value) -> RpcResult<Value> {
        let path = args.str_field("path")?;
        let local = self
            .mapping
            .to_local(&hns_name.individual)
            .map_err(|e| RpcError::Service(e.to_string()))?;
        let tpn = ThreePartName::parse(&local).map_err(|e| RpcError::Service(e.to_string()))?;
        let value = self.client.lookup_item(&tpn, PROP_FILE_SERVICE)?;
        let host = value.str_field("host")?;
        let root = value.str_field("root")?;
        Ok(file_reply(host, &format!("{root}/{path}")))
    }
}

impl std::fmt::Debug for FileBindNsm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FileBindNsm").finish()
    }
}

impl std::fmt::Debug for FileChNsm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FileChNsm").finish()
    }
}
