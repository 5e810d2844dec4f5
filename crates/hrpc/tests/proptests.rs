//! Property-based tests for the RPC fabric.

use std::sync::Arc;

use proptest::prelude::*;

use hrpc::net::RpcNet;
use hrpc::server::ProcServer;
use hrpc::{ComponentSet, HrpcBinding, ProgramId, RpcError};
use simnet::faults::FaultPlan;
use simnet::topology::NetAddr;
use simnet::world::World;
use wire::Value;

fn arb_value() -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        Just(Value::Void),
        any::<bool>().prop_map(Value::Bool),
        any::<u32>().prop_map(Value::U32),
        "[a-zA-Z0-9 .:_-]{0,32}".prop_map(Value::Str),
        proptest::collection::vec(any::<u8>(), 0..48).prop_map(Value::Bytes),
    ];
    leaf.prop_recursive(2, 16, 4, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 0..4).prop_map(Value::List),
            proptest::collection::vec(("[a-z]{1,6}", inner), 0..3).prop_map(|fields| {
                let mut seen = std::collections::HashSet::new();
                Value::Struct(
                    fields
                        .into_iter()
                        .filter(|(k, _)| seen.insert(k.clone()))
                        .map(|(k, v)| (k.into(), v))
                        .collect(),
                )
            }),
        ]
    })
}

fn suites() -> [ComponentSet; 4] {
    [
        ComponentSet::sun(),
        ComponentSet::courier(),
        ComponentSet::raw_tcp(0),
        ComponentSet::raw_udp(0),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn any_payload_survives_any_suite(payload in arb_value()) {
        let world = World::paper();
        let client = world.add_host("client");
        let server = world.add_host("server");
        let net = RpcNet::new(Arc::clone(&world));
        let svc = Arc::new(ProcServer::new("echo").with_proc(1, |_c, a| Ok(a.clone())));
        let port = net.export(server, ProgramId(7), svc);
        for components in suites() {
            let binding = HrpcBinding {
                host: server,
                addr: NetAddr::of(server),
                program: ProgramId(7),
                port,
                components,
            };
            let reply = net.call(client, &binding, 1, &payload).expect("call");
            prop_assert_eq!(reply, payload.clone());
        }
    }

    #[test]
    fn loss_outcomes_are_deterministic_per_seed(seed in any::<u64>(), prob in 0.0f64..1.0) {
        let run = |seed: u64| {
            let world = World::paper();
            let client = world.add_host("client");
            let server = world.add_host("server");
            let net = RpcNet::new(Arc::clone(&world));
            let svc = Arc::new(ProcServer::new("echo").with_proc(1, |_c, a| Ok(a.clone())));
            let port = net.export(server, ProgramId(7), svc);
            world.set_faults(Some(FaultPlan::new().loss(prob, seed).clone()));
            let binding = HrpcBinding {
                host: server,
                addr: NetAddr::of(server),
                program: ProgramId(7),
                port,
                components: ComponentSet::raw_udp(port),
            };
            (0..16)
                .map(|_| net.call(client, &binding, 1, &Value::U32(1)).is_ok())
                .collect::<Vec<bool>>()
        };
        prop_assert_eq!(run(seed), run(seed));
    }

    #[test]
    fn stream_suites_never_time_out(prob in 0.0f64..1.0, seed in any::<u64>()) {
        let world = World::paper();
        let client = world.add_host("client");
        let server = world.add_host("server");
        let net = RpcNet::new(Arc::clone(&world));
        let svc = Arc::new(ProcServer::new("echo").with_proc(1, |_c, a| Ok(a.clone())));
        let port = net.export(server, ProgramId(7), svc);
        world.set_faults(Some(FaultPlan::new().loss(prob, seed).clone()));
        for components in [ComponentSet::sun(), ComponentSet::courier(), ComponentSet::raw_tcp(port)] {
            let binding = HrpcBinding {
                host: server,
                addr: NetAddr::of(server),
                program: ProgramId(7),
                port,
                components,
            };
            prop_assert!(net.call(client, &binding, 1, &Value::Void).is_ok());
        }
    }

    #[test]
    fn remote_calls_always_cost_more_than_local(payload in arb_value()) {
        let world = World::paper();
        let client = world.add_host("client");
        let server = world.add_host("server");
        let net = RpcNet::new(Arc::clone(&world));
        let svc = Arc::new(ProcServer::new("echo").with_proc(1, |_c, a| Ok(a.clone())));
        let port = net.export(server, ProgramId(7), svc);
        let binding = HrpcBinding {
            host: server,
            addr: NetAddr::of(server),
            program: ProgramId(7),
            port,
            components: ComponentSet::sun(),
        };
        let (_, ledger) = world.measure(|| net.call(client, &binding, 1, &payload));
        let remote = ledger.total();
        let (_, ledger) = world.measure(|| net.call(server, &binding, 1, &payload));
        let local = ledger.total();
        prop_assert!(remote > local, "remote {} <= local {}", remote, local);
        prop_assert!(remote.as_ms_f64() >= 33.0);
        prop_assert!(local.as_ms_f64() < 1.0);
    }

    #[test]
    fn unknown_targets_error_not_panic(port in 1u16..u16::MAX, proc_id in 0u32..64) {
        let world = World::paper();
        let client = world.add_host("client");
        let server = world.add_host("server");
        let net = RpcNet::new(Arc::clone(&world));
        let binding = HrpcBinding {
            host: server,
            addr: NetAddr::of(server),
            program: ProgramId(1),
            port,
            components: ComponentSet::raw_tcp(port),
        };
        let result = net.call(client, &binding, proc_id, &Value::Void);
        // Built-in ports answer their own protocols; everything else must
        // be a clean error.
        if port != hrpc::net::PORTMAP_PORT && port != hrpc::net::EXCHANGE_PORT {
            let is_no_service = matches!(result, Err(RpcError::NoSuchService { .. }));
            prop_assert!(is_no_service);
        } else {
            prop_assert!(result.is_err());
        }
    }
}
