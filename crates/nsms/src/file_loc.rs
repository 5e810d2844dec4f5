//! File-location NSMs — the heterogeneous-filing extension.
//!
//! §5 of the paper: "We are pursuing this structure in the context of ...
//! a heterogeneous file system that mediates access to the set of local
//! file systems present in the environment." These NSMs answer "which file
//! service holds this file, and under what local path?" Client interface
//! for `FileLocation`: extra args `{ path: str }`; reply
//! `{ file_host: str, local_path: str }`.

use std::sync::Arc;

use bindns::resolver::StdResolver;
use clearinghouse::client::ChClient;
use clearinghouse::property::PROP_FILE_SERVICE;
use hns_core::name::{HnsName, NameMapping};
use hns_core::nsm::Nsm;
use hns_core::query::QueryClass;
use hrpc::error::RpcResult;
use wire::Value;

use crate::adapter::{BindAdapter, ChAdapter};

/// Builds the standard `FileLocation` reply.
pub fn file_reply(file_host: &str, local_path: &str) -> Value {
    Value::record([
        ("file_host", Value::str(file_host)),
        ("local_path", Value::str(local_path)),
    ])
}

/// File-location NSM over BIND `TXT` records of the form
/// `fileservice=<host>;root=<path>`.
#[derive(Debug)]
pub struct FileBindNsm(BindAdapter);

impl FileBindNsm {
    /// Conventional NSM name.
    pub const NAME: &'static str = "nsm-filelocation-bind";

    /// Creates the NSM.
    pub fn new(resolver: Arc<StdResolver>, mapping: NameMapping) -> Arc<Self> {
        Arc::new(FileBindNsm(BindAdapter::new(resolver, mapping)))
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
        let keys = ["fileservice", "root"];
        self.0.lookup_pair(hns_name, "file", keys, |host, root| {
            file_reply(host, &format!("{root}/{path}"))
        })
    }
}

/// File-location NSM over the Clearinghouse file-service property, whose
/// value is `{ host: str, root: str }`.
#[derive(Debug)]
pub struct FileChNsm(ChAdapter);

impl FileChNsm {
    /// Conventional NSM name.
    pub const NAME: &'static str = "nsm-filelocation-ch";

    /// Creates the NSM.
    pub fn new(client: Arc<ChClient>, mapping: NameMapping) -> Arc<Self> {
        Arc::new(FileChNsm(ChAdapter::new(client, mapping)))
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
        let service = self.0.lookup(hns_name, PROP_FILE_SERVICE)?;
        let (host, root) = (service.str_field("host")?, service.str_field("root")?);
        Ok(file_reply(host, &format!("{root}/{path}")))
    }
}
