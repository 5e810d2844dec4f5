//! `Import` — the HRPC binding operation, as a client of the HNS.
//!
//! The paper's walkthrough:
//!
//! ```text
//! Import(ServiceName: "DesiredService",
//!        HostName:    "BIND,fiji.cs.washington.edu",
//!        ResultBinding: DesiredBinding)
//! ```
//!
//! `Import` acts as a client of the HNS: it calls `FindNSM` with query
//! class `HRPCBinding`, then calls the designated binding NSM with the
//! original HNS name and the service name, and returns the completed,
//! system-independent binding to its caller.

use std::sync::Arc;

use hns_core::colocation::{HnsClient, HnsHandle};
use hns_core::error::{HnsError, HnsResult};
use hns_core::name::HnsName;
use hns_core::nsm::{NsmClient, NsmRequest, QueryArgs};
use hns_core::query::QueryClass;
use hrpc::net::RpcNet;
use hrpc::{HrpcBinding, ProgramId};
use simnet::topology::HostId;
use simnet::trace::TraceKind;

/// The HRPC `Import` entry point for one client process.
pub struct Importer {
    net: Arc<RpcNet>,
    host: HostId,
    hns: HnsClient,
    nsm: NsmClient,
    /// The query class every `Import` asks `FindNSM` for, built once.
    query_class: QueryClass,
    alternate_nsm: Option<HrpcBinding>,
}

impl Importer {
    /// Creates an importer for a client on `host` reaching the HNS through
    /// `handle` (linked or remote — the colocation arrangement).
    pub fn new(net: Arc<RpcNet>, host: HostId, handle: HnsHandle) -> Self {
        Importer {
            hns: HnsClient::new(Arc::clone(&net), host, handle),
            nsm: NsmClient::new(Arc::clone(&net), host),
            query_class: QueryClass::hrpc_binding(),
            net,
            host,
            alternate_nsm: None,
        }
    }

    /// Links an alternate binding NSM (typically a replica on another
    /// host). When the NSM designated by `FindNSM` is unreachable —
    /// crashed or partitioned away — `import` fails over to this binding
    /// instead of surfacing the error. Set while the importer is being
    /// built, before it is shared.
    pub fn set_alternate_nsm(&mut self, binding: Option<HrpcBinding>) {
        self.alternate_nsm = binding;
    }

    /// Imports a service: returns a binding the client can call.
    pub fn import(
        &self,
        service_name: &str,
        program: ProgramId,
        host_name: &HnsName,
    ) -> HnsResult<HrpcBinding> {
        // FindNSM: which NSM understands binding for this context?
        let nsm_binding = self.hns.find_nsm(&self.query_class, host_name)?;
        // Call the designated binding NSM with the original HNS name.
        let service = service_name.to_string();
        let request = NsmRequest::new(host_name.clone(), QueryArgs::Binding { service, program });
        let reply = match self.nsm.call_msg(&nsm_binding, &request) {
            Ok(reply) => reply,
            Err(err) if err.is_unreachable() => {
                // The designated NSM never answered. If an alternate NSM
                // on a different host is linked, fail over to it.
                match self
                    .alternate_nsm
                    .filter(|alt| alt.host != nsm_binding.host)
                {
                    Some(alt) => {
                        let world = self.net.world();
                        world.metrics().inc("faults", "nsm_failovers");
                        world.trace(Some(self.host), TraceKind::Nsm, || {
                            format!("NSM failover: {} -> {} ({err})", nsm_binding.host, alt.host)
                        });
                        self.nsm.call_msg(&alt, &request).map_err(HnsError::Rpc)?
                    }
                    None => return Err(HnsError::Rpc(err)),
                }
            }
            Err(err) => return Err(HnsError::Rpc(err)),
        };
        reply.read(HrpcBinding::from_value).map_err(HnsError::from)
    }
}

impl std::fmt::Debug for Importer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Importer").finish()
    }
}
