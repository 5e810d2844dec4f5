//! The reregistered-Clearinghouse comparator.
//!
//! "We should also compare our HNS-based binding timings with a scheme in
//! which a name service holds all of the (reregistered) data. We
//! implemented such a scheme on top of the Clearinghouse, and found that
//! binding took 166 msec."
//!
//! Binding information for *every* service — whatever system it lives on —
//! is copied into Clearinghouse entries, so a bind is one authenticated
//! lookup plus assembly. Fast, but the copy must be kept fresh (see
//! [`crate::reregistration`]).

use std::sync::Arc;

use simnet::costs::Term;
use simnet::topology::{HostId, NetAddr};

use clearinghouse::client::ChClient;
use clearinghouse::name::ThreePartName;
use clearinghouse::property::PropertyId;
use hrpc::error::{RpcError, RpcResult};
use hrpc::net::RpcNet;
use hrpc::{ComponentSet, HrpcBinding, ProgramId};
use wire::Value;

/// The property holding a reregistered binding.
pub const PROP_REREG_BINDING: PropertyId = PropertyId(77);

/// Binder over a Clearinghouse that holds all (reregistered) binding data.
pub struct ReregisteredChBinder {
    net: Arc<RpcNet>,
    client: Arc<ChClient>,
    domain: String,
    organization: String,
}

impl ReregisteredChBinder {
    /// Creates a binder storing entries under `domain:organization`.
    pub fn new(
        net: Arc<RpcNet>,
        client: Arc<ChClient>,
        domain: impl Into<String>,
        organization: impl Into<String>,
    ) -> Self {
        ReregisteredChBinder {
            net,
            client,
            domain: domain.into(),
            organization: organization.into(),
        }
    }

    fn entry_name(&self, service: &str) -> RpcResult<ThreePartName> {
        ThreePartName::new(service, &self.domain, &self.organization)
            .map_err(|e| RpcError::Service(e.to_string()))
    }

    /// Copies one service's binding data into the Clearinghouse.
    pub fn reregister(
        &self,
        service: &str,
        host: HostId,
        program: ProgramId,
        port: u16,
    ) -> RpcResult<()> {
        let value = Value::record([
            ("host", Value::U32(host.0)),
            ("program", Value::U32(program.0)),
            ("port", Value::U32(port as u32)),
        ]);
        self.client
            .set_item(&self.entry_name(service)?, PROP_REREG_BINDING, value)
    }

    /// Binds a service from the reregistered data: one Clearinghouse
    /// lookup (156 ms) plus assembly (10 ms) — the paper's 166 ms.
    pub fn bind(&self, service: &str) -> RpcResult<HrpcBinding> {
        let value = self
            .client
            .lookup_item(&self.entry_name(service)?, PROP_REREG_BINDING)?;
        let world = self.net.world();
        world.charge(Term::ReregAssemble);
        let host = HostId(value.u32_field("host")?);
        Ok(HrpcBinding {
            host,
            addr: NetAddr::of(host),
            program: ProgramId(value.u32_field("program")?),
            port: value.u16_field("port")?,
            components: ComponentSet::sun(),
        })
    }
}

impl std::fmt::Debug for ReregisteredChBinder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReregisteredChBinder").finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clearinghouse::auth::Credentials;
    use clearinghouse::db::ChDb;
    use clearinghouse::server::{deploy, ChServer};
    use hrpc::server::ProcServer;
    use simnet::world::World;

    fn setup() -> (
        Arc<World>,
        Arc<RpcNet>,
        HostId,
        HostId,
        ReregisteredChBinder,
    ) {
        let world = World::paper();
        let client_host = world.add_host("client");
        let ch_host = world.add_host("dlion");
        let fiji = world.add_host("fiji");
        let net = RpcNet::new(Arc::clone(&world));
        let server = ChServer::new("clearinghouse", ChDb::new(vec![("cs".into(), "uw".into())]));
        let who = ThreePartName::parse("hcs:cs:uw").expect("name");
        server.register_key(who.clone(), 9);
        let dep = deploy(&net, ch_host, server);
        let ch_client = Arc::new(ChClient::new(
            Arc::clone(&net),
            client_host,
            dep.binding,
            Credentials::new(who, 9),
        ));
        let svc = Arc::new(ProcServer::new("DesiredService").with_proc(1, |_c, a| Ok(a.clone())));
        let port = net.export(fiji, ProgramId(100_005), svc);
        let binder = ReregisteredChBinder::new(Arc::clone(&net), ch_client, "cs", "uw");
        binder
            .reregister("DesiredService", fiji, ProgramId(100_005), port)
            .expect("reregister");
        (world, net, client_host, fiji, binder)
    }

    #[test]
    fn binding_costs_166ms() {
        let (world, _net, _client, fiji, binder) = setup();
        let (binding, ledger) = world.measure(|| binder.bind("DesiredService"));
        let took = ledger.total();
        assert_eq!(binding.expect("bind").host, fiji);
        let ms = took.as_ms_f64();
        assert!(
            (ms - 166.0).abs() < 2.0,
            "rereg-CH bind took {ms} ms, paper 166"
        );
    }

    #[test]
    fn bound_service_is_callable() {
        let (_world, net, client, _fiji, binder) = setup();
        let binding = binder.bind("DesiredService").expect("bind");
        let reply = net
            .call(client, &binding, 1, &Value::str("hi"))
            .expect("call");
        assert_eq!(reply, Value::str("hi"));
    }

    /// An entry some other writer left with a port beyond 16 bits is
    /// refused; it used to bind to the port's low half (65,589 as 53).
    #[test]
    fn a_port_beyond_sixteen_bits_is_refused_not_truncated() {
        let (_world, _net, _client, fiji, binder) = setup();
        let value = Value::record([
            ("host", Value::U32(fiji.0)),
            ("program", Value::U32(100_005)),
            ("port", Value::U32(65_589)),
        ]);
        let entry = binder.entry_name("Wide").expect("entry name");
        binder
            .client
            .set_item(&entry, PROP_REREG_BINDING, value)
            .expect("stored");
        assert!(matches!(binder.bind("Wide"), Err(RpcError::Wire(_))));
    }

    #[test]
    fn unregistered_service_fails() {
        let (_world, _net, _client, _fiji, binder) = setup();
        assert!(binder.bind("Ghost").is_err());
    }
}
