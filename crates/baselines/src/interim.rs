//! The interim binding mechanism: replicated local files.
//!
//! "The interim HRPC binding mechanism, used prior to the construction of
//! the HNS prototype, was based on information reregistered in replicated
//! local files. Binding using this scheme took 200 msec."
//!
//! A master table maps service names to (host, program); every client host
//! holds a replica pushed out of band. A bind reads and parses the local
//! replica (the dominant cost on 1987 disks), then runs the Sun portmapper
//! protocol against the listed host.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::RwLock;
use simnet::costs::{RpcSuiteKind, Term};
use simnet::topology::{HostId, NetAddr};
use simnet::world::World;

use hrpc::bindproto;
use hrpc::error::{RpcError, RpcResult};
use hrpc::net::RpcNet;
use hrpc::{ComponentSet, HrpcBinding, ProgramId};

/// One service's registration in the file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileEntry {
    /// Host the service runs on.
    pub host: HostId,
    /// Program number.
    pub program: ProgramId,
}

/// The master copy plus per-host replicas.
pub struct InterimBinder {
    net: Arc<RpcNet>,
    master: RwLock<HashMap<String, FileEntry>>,
    replicas: RwLock<HashMap<HostId, HashMap<String, FileEntry>>>,
}

impl InterimBinder {
    /// Creates an empty registry.
    pub fn new(net: Arc<RpcNet>) -> Self {
        InterimBinder {
            net,
            master: RwLock::new(HashMap::new()),
            replicas: RwLock::new(HashMap::new()),
        }
    }

    fn world(&self) -> &Arc<World> {
        self.net.world()
    }

    /// Registers a service in the master file (does not reach a replica
    /// until [`InterimBinder::push_replica`] refreshes it — reregistration
    /// lag).
    pub fn register(&self, service: &str, host: HostId, program: ProgramId) {
        self.master
            .write()
            .insert(service.to_string(), FileEntry { host, program });
    }

    /// Creates (or refreshes) the replica on `host` from the master.
    pub fn push_replica(&self, host: HostId) {
        let snapshot = self.master.read().clone();
        // One file push per host: a remote copy of the whole table.
        self.world().charge(Term::ReplicaPush {
            suite: RpcSuiteKind::RawTcp,
            bytes: snapshot.len() * 64,
        });
        self.replicas.write().insert(host, snapshot);
    }

    /// Binds `service` from `client`, using the client's local replica.
    ///
    /// Total cost reproduces the paper's 200 ms: file read + parse
    /// (~170 ms), portmapper exchange (~26 ms), fixed overhead (~4 ms).
    pub fn bind(&self, client: HostId, service: &str) -> RpcResult<HrpcBinding> {
        let world = Arc::clone(self.world());
        // Read and parse the replicated local file.
        world.charge(Term::InterimFileBind);
        let entry = self
            .replicas
            .read()
            .get(&client)
            .and_then(|file| file.get(service))
            .cloned()
            .ok_or_else(|| RpcError::NotFound(format!("{service} in local file")))?;
        // Port determination against the (possibly stale) listed host.
        let components = ComponentSet::sun();
        let port = bindproto::resolve_port(
            &self.net,
            client,
            entry.host,
            entry.program,
            service,
            components,
        )?;
        Ok(HrpcBinding {
            host: entry.host,
            addr: NetAddr::of(entry.host),
            program: entry.program,
            port,
            components,
        })
    }
}

impl std::fmt::Debug for InterimBinder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InterimBinder")
            .field("services", &self.master.read().len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hrpc::server::ProcServer;
    use simnet::world::World;
    use wire::Value;

    fn setup() -> (Arc<World>, Arc<RpcNet>, HostId, HostId, InterimBinder) {
        let world = World::paper();
        let client = world.add_host("client");
        let server = world.add_host("fiji");
        let net = RpcNet::new(Arc::clone(&world));
        let svc = Arc::new(ProcServer::new("DesiredService").with_proc(1, |_c, a| Ok(a.clone())));
        net.export(server, ProgramId(100_005), svc);
        let binder = InterimBinder::new(Arc::clone(&net));
        binder.register("DesiredService", server, ProgramId(100_005));
        binder.push_replica(client);
        (world, net, client, server, binder)
    }

    #[test]
    fn binding_costs_200ms() {
        let (world, _net, client, server, binder) = setup();
        let (binding, ledger) = world.measure(|| binder.bind(client, "DesiredService"));
        let took = ledger.total();
        let binding = binding.expect("bind");
        assert_eq!(binding.host, server);
        let ms = took.as_ms_f64();
        assert!(
            (ms - 200.0).abs() < 2.0,
            "interim bind took {ms} ms, paper 200"
        );
    }

    #[test]
    fn bound_service_is_callable() {
        let (_world, net, client, _server, binder) = setup();
        let binding = binder.bind(client, "DesiredService").expect("bind");
        let reply = net.call(client, &binding, 1, &Value::U32(7)).expect("call");
        assert_eq!(reply, Value::U32(7));
    }

    #[test]
    fn unreplicated_host_cannot_bind() {
        let (world, _net, _client, _server, binder) = setup();
        let stranger = world.add_host("stranger");
        assert!(matches!(
            binder.bind(stranger, "DesiredService"),
            Err(RpcError::NotFound(_))
        ));
    }

    #[test]
    fn replicas_go_stale_until_pushed() {
        let (world, _net, client, server, binder) = setup();
        let moved = world.add_host("new-home");
        binder.register("DesiredService", moved, ProgramId(100_005));
        // The stale replica still binds to the OLD host — the consistency
        // problem the paper holds against reregistration.
        let binding = binder.bind(client, "DesiredService").expect("bind");
        assert_eq!(binding.host, server, "replica must lag the master");
        binder.push_replica(client);
        let binding = binder.bind(client, "DesiredService");
        // The new host has no portmapper registration in this test, so the
        // bind may fail — what matters is that it now targets `moved`.
        match binding {
            Ok(b) => assert_eq!(b.host, moved),
            Err(RpcError::NoSuchProgram { host, .. }) => assert_eq!(host, moved),
            Err(other) => panic!("unexpected error {other}"),
        }
    }
}
