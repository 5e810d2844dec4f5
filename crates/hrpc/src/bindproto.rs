//! Binding protocols: locating a program's port on a host.
//!
//! "While the binding process is similar for most RPC systems, the actual
//! mechanisms employed for naming, server activation, and port
//! determination vary considerably." Each [`BindingProtocol`] reproduces
//! one such mechanism; binding NSMs execute the protocol appropriate to the
//! system their name came from.

use simnet::topology::{HostId, NetAddr};
use wire::Value;

use crate::binding::{HrpcBinding, ProgramId};
use crate::components::{BindingProtocol, ComponentSet};
use crate::error::RpcResult;
use crate::net::{RpcNet, EXCHANGE_PORT, EXCHANGE_RESOLVE, PMAP_GETPORT, PORTMAP_PORT};
use crate::server::ReplySlot;

/// A portmapper's [`PMAP_GETPORT`] request: the program whose port is
/// asked for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GetPort {
    /// The program number.
    pub program: u32,
}

wire::record!(GetPort { program });

/// A Courier exchange listener's [`EXCHANGE_RESOLVE`] request: the
/// service whose port is asked for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResolveService {
    /// The service's name.
    pub service: String,
}

wire::record!(ResolveService { service });

/// Resolves the port for (`server`, `program`, `service_name`) by running
/// the binding protocol of `components`, originating from `caller`.
///
/// Port-determination exchanges are real calls: a portmapper query pays a
/// UDP round trip to the server host, a Courier exchange query pays a
/// Courier round trip. A static port costs nothing.
pub fn resolve_port(
    net: &RpcNet,
    caller: HostId,
    server: HostId,
    program: ProgramId,
    service_name: &str,
    components: ComponentSet,
) -> RpcResult<u16> {
    let (binding, proc_id, request): (_, _, &dyn wire::Message) = match components.binding {
        BindingProtocol::StaticPort(port) => return Ok(port),
        BindingProtocol::SunPortmapper => (
            RpcNet::builtin_binding(server, PORTMAP_PORT, ComponentSet::raw_udp(PORTMAP_PORT)),
            PMAP_GETPORT,
            &GetPort { program: program.0 },
        ),
        BindingProtocol::CourierExchange => (
            RpcNet::builtin_binding(server, EXCHANGE_PORT, ComponentSet::courier()),
            EXCHANGE_RESOLVE,
            &ResolveService {
                service: service_name.to_string(),
            },
        ),
    };
    let reply = ReplySlot::tree(|reply| net.call_into(caller, &binding, proc_id, request, reply))?;
    port_of(&reply)
}

/// The port a portmapper or exchange listener replied with.
fn port_of(reply: &Value) -> RpcResult<u16> {
    Ok(reply.as_u16()?)
}

/// Runs the full binding protocol and assembles a complete [`HrpcBinding`].
pub fn bind(
    net: &RpcNet,
    caller: HostId,
    server: HostId,
    program: ProgramId,
    service_name: &str,
    components: ComponentSet,
) -> RpcResult<HrpcBinding> {
    let port = resolve_port(net, caller, server, program, service_name, components)?;
    Ok(HrpcBinding {
        host: server,
        addr: NetAddr::of(server),
        program,
        port,
        components,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::ProcServer;
    use simnet::world::World;
    use std::sync::Arc;

    fn setup() -> (Arc<World>, Arc<RpcNet>, HostId, HostId, u16) {
        let world = World::paper();
        let client = world.add_host("client");
        let server = world.add_host("server");
        let net = RpcNet::new(Arc::clone(&world));
        let svc = Arc::new(ProcServer::new("DesiredService").with_proc(1, |_c, a| Ok(a.clone())));
        let port = net.export(server, ProgramId(100_005), svc);
        (world, net, client, server, port)
    }

    #[test]
    fn portmapper_binding_resolves_and_charges() {
        let (world, net, client, server, port) = setup();
        let (binding, ledger) = world.measure(|| {
            bind(
                &net,
                client,
                server,
                ProgramId(100_005),
                "DesiredService",
                ComponentSet::sun(),
            )
        });
        let took = ledger.total();
        let delta = ledger.counters();
        let binding = binding.expect("bind ok");
        assert_eq!(binding.port, port);
        assert_eq!(binding.host, server);
        // One UDP round trip (25) + portmap service (1).
        assert!((took.as_ms_f64() - 26.0).abs() < 1.0, "took {took}");
        assert_eq!(delta.remote_calls, 1);
    }

    #[test]
    fn courier_exchange_binding_resolves() {
        let (world, net, client, server, port) = setup();
        let (binding, ledger) = world.measure(|| {
            bind(
                &net,
                client,
                server,
                ProgramId(100_005),
                "DesiredService",
                ComponentSet::courier(),
            )
        });
        let took = ledger.total();
        assert_eq!(binding.expect("bind ok").port, port);
        // One Courier round trip (38) + service (1).
        assert!((took.as_ms_f64() - 39.0).abs() < 1.0, "took {took}");
    }

    /// Either listener's reply of 65,589 used to bind to port 53.
    #[test]
    fn a_replied_port_beyond_sixteen_bits_is_refused_not_truncated() {
        assert_eq!(port_of(&Value::U32(65_535)), Ok(65_535));
        assert!(matches!(
            port_of(&Value::U32(65_589)),
            Err(crate::RpcError::Wire(_))
        ));
    }

    #[test]
    fn static_port_binding_is_free() {
        let (world, net, client, server, _port) = setup();
        let (binding, ledger) = world.measure(|| {
            bind(
                &net,
                client,
                server,
                ProgramId(7),
                "x",
                ComponentSet::raw_tcp(53),
            )
        });
        let took = ledger.total();
        let delta = ledger.counters();
        assert_eq!(binding.expect("bind ok").port, 53);
        assert_eq!(took.as_ms_f64(), 0.0);
        assert_eq!(delta.remote_calls, 0);
    }

    #[test]
    fn unknown_program_reports_error() {
        let (_world, net, client, server, _port) = setup();
        let result = bind(
            &net,
            client,
            server,
            ProgramId(42),
            "nope",
            ComponentSet::sun(),
        );
        assert!(result.is_err());
    }

    #[test]
    fn bound_binding_actually_calls() {
        let (_world, net, client, server, _port) = setup();
        let binding = bind(
            &net,
            client,
            server,
            ProgramId(100_005),
            "DesiredService",
            ComponentSet::sun(),
        )
        .expect("bind");
        let reply = net
            .call(client, &binding, 1, &Value::str("ping"))
            .expect("call");
        assert_eq!(reply, Value::str("ping"));
    }

    #[test]
    fn colocated_portmapper_query_is_local() {
        let (world, net, _client, server, _port) = setup();
        let (result, ledger) = world.measure(|| {
            resolve_port(
                &net,
                server,
                server,
                ProgramId(100_005),
                "DesiredService",
                ComponentSet::sun(),
            )
        });
        let took = ledger.total();
        let delta = ledger.counters();
        assert!(result.is_ok());
        assert!(took.as_ms_f64() < 2.0, "took {took}");
        assert_eq!(delta.remote_calls, 0);
    }
}
