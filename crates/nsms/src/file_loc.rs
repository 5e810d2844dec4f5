//! File-location NSMs — the heterogeneous-filing extension.
//!
//! §5 of the paper: "We are pursuing this structure in the context of ...
//! a heterogeneous file system that mediates access to the set of local
//! file systems present in the environment." These NSMs answer "which file
//! service holds this file, and under what local path?" Client interface
//! for `FileLocation`: the request's own field `path`
//! ([`hns_core::nsm::QueryArgs::File`]); reply [`FileLocation`].

use std::sync::Arc;

use bindns::resolver::StdResolver;
use clearinghouse::client::ChClient;
use clearinghouse::property::PROP_FILE_SERVICE;
use hns_core::name::NameMapping;
use hns_core::nsm::{Nsm, NsmRequest};
use hns_core::query::QueryClass;
use hrpc::error::RpcResult;
use hrpc::server::ReplySlot;

use crate::adapter::{BindAdapter, ChAdapter};

/// The `FileLocation` query class's standard reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileLocation {
    /// The file service holding the file.
    pub file_host: String,
    /// The file's path there.
    pub local_path: String,
}

impl FileLocation {
    /// The file at `path` under the volume `root` of `file_host`.
    fn under(file_host: String, root: &str, path: &str) -> FileLocation {
        FileLocation {
            file_host,
            local_path: [root, "/", path].concat(),
        }
    }
}

wire::record!(FileLocation {
    file_host,
    local_path
});

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

    fn handle(&self, request: &NsmRequest, reply: &mut ReplySlot<'_>) -> RpcResult<()> {
        let path = request.args.path()?;
        let keys = ["fileservice", "root"];
        let location = self
            .0
            .lookup_pair(&request.name, "file", keys, |host, root| {
                FileLocation::under(host.to_string(), root, path)
            })?;
        reply.put(location);
        Ok(())
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

    fn handle(&self, request: &NsmRequest, reply: &mut ReplySlot<'_>) -> RpcResult<()> {
        let path = request.args.path()?;
        let location = (self.0).lookup(&request.name, PROP_FILE_SERVICE, |service| {
            let host = service.str_field("host")?.to_string();
            Ok(FileLocation::under(host, service.str_field("root")?, path))
        })?;
        reply.put(location);
        Ok(())
    }
}
