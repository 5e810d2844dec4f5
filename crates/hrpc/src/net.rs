//! The RPC fabric: service export, port assignment, and synchronous calls
//! with virtual-time charging.
//!
//! Cost accounting rules (kept strict so nothing is double-charged):
//!
//! * `RpcNet::call_msg` (and `call`, its wrapper for trees) charges only
//!   *network* costs: the suite's round-trip overhead plus a per-kilobyte
//!   component computed from `Message::encoded_len`, or the (effectively
//!   zero) local-call cost when caller and server are colocated.
//! * Interface-specific marshalling costs (Table 3.2's generated vs fast
//!   paths, `FindNSM` argument marshalling on remote hops, …) are charged
//!   by the *caller* that owns that interface.
//! * Server-side service time (BIND lookup, Clearinghouse auth + disk) is
//!   charged inside the service's `dispatch`.
//!
//! What the network does to a call — crash and partition windows, latency
//! spikes, datagram loss — is the world's [`simnet::faults::FaultPlan`],
//! read once per call; the fabric holds no fault state of its own.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};
use simnet::costs::Term;
use simnet::faults::{FaultKind, LEG_REPLY, LEG_REQUEST};
use simnet::index::FixedState;
use simnet::obs::{LazyCounter, LazyHistogram};
use simnet::topology::{HostId, NetAddr};
use simnet::trace::TraceKind;
use simnet::world::World;
use wire::{Message, Value};

use crate::binding::{HrpcBinding, ProgramId};
use crate::bindproto::{GetPort, ResolveService};
use crate::components::ComponentSet;
use crate::error::{RpcError, RpcResult};
use crate::server::{no_reply, CallCtx, ReplySlot, RpcService};

/// Well-known port of the per-host Sun portmapper.
pub const PORTMAP_PORT: u16 = 111;
/// Well-known port of the per-host Courier exchange listener.
pub const EXCHANGE_PORT: u16 = 5;
/// Portmapper procedure: map a program number to its port.
pub const PMAP_GETPORT: u32 = 3;
/// Courier exchange procedure: map a service name to its port.
pub const EXCHANGE_RESOLVE: u32 = 1;

/// First dynamically assigned port.
const FIRST_DYNAMIC_PORT: u16 = 1024;

/// Service/port/name registries, behind one lock. A reader copies out the
/// one row it needs and releases the lock before anything is dispatched, so
/// a service may export or unexport from inside its own `dispatch`. Keys
/// are the simulation's own, so the tables hash with the fixed hash.
#[derive(Default)]
struct NetTables {
    services: HashMap<(HostId, u16), Arc<dyn RpcService>, FixedState>,
    /// Per-host portmapper table: program number → (port, service name).
    programs: HashMap<(HostId, u32), (u16, String), FixedState>,
    /// Per-host Courier exchange table: service name → port, a map a
    /// host so that a name is probed as the `&str` it arrives as.
    by_name: HashMap<HostId, HashMap<String, u16, FixedState>, FixedState>,
    next_port: HashMap<HostId, u16, FixedState>,
}

/// Base of the capped exponential backoff charged between attempts to
/// an unreachable (crashed or partitioned) host, in virtual ms.
pub const RETRY_BACKOFF_BASE_MS: f64 = 50.0;
/// Cap of the exponential backoff, in virtual ms.
pub const RETRY_BACKOFF_CAP_MS: f64 = 800.0;

/// Backoff charged after failed `attempt` (1-based) to an unreachable
/// host: 50, 100, 200, 400, 800, 800, … virtual milliseconds. Charged
/// against the virtual clock only — never wall-clock.
pub fn retry_backoff_ms(attempt: u32) -> f64 {
    let exp = attempt.saturating_sub(1).min(10);
    (RETRY_BACKOFF_BASE_MS * f64::from(1u32 << exp)).min(RETRY_BACKOFF_CAP_MS)
}

/// Total reply-cache entries kept for at-most-once bookkeeping.
const REPLY_CACHE_LIMIT: usize = 65_536;

/// The length of the reply left in `reply`, as the fabric charges it.
fn reply_len(reply: &ReplySlot<'_>, components: ComponentSet) -> RpcResult<usize> {
    let reply = reply.message().ok_or_else(no_reply)?;
    Ok(reply.encoded_len(components.data_rep)?)
}

#[derive(Default)]
struct ReplyTable {
    map: HashMap<(HostId, u64), Value, FixedState>,
    /// Insertion order, for FIFO eviction.
    order: VecDeque<(HostId, u64)>,
}

/// The at-most-once reply cache, keyed by (caller, call id).
///
/// One table that evicts its own oldest entries when it exceeds its
/// capacity, so a reply stays answerable until `capacity` later calls
/// have been cached. The seed design *cleared the whole table* at the
/// limit — a burst of fresh calls could wipe the cached reply an
/// in-flight retransmission still needed, silently re-executing a call
/// the protocol promised to execute at most once.
struct ReplyCache {
    table: Mutex<ReplyTable>,
    capacity: usize,
}

impl ReplyCache {
    fn new(capacity: usize) -> Self {
        ReplyCache {
            table: Mutex::new(ReplyTable::default()),
            capacity,
        }
    }

    fn get(&self, key: &(HostId, u64)) -> Option<Value> {
        self.table.lock().map.get(key).cloned()
    }

    fn insert(&self, key: (HostId, u64), value: Value) {
        let mut table = self.table.lock();
        if table.map.insert(key, value).is_none() {
            table.order.push_back(key);
        }
        while table.map.len() > self.capacity {
            let Some(oldest) = table.order.pop_front() else {
                break;
            };
            table.map.remove(&oldest);
        }
    }

    #[cfg(test)]
    fn len(&self) -> usize {
        self.table.lock().map.len()
    }
}

/// Cached registry handles for the fabric's hot-path metrics, resolved
/// on first use so unexercised metrics never register (keeps snapshots
/// identical to the seed's lazy registration).
#[derive(Default)]
struct CallMetricHandles {
    remote_call_us: LazyHistogram,
    datagrams_lost: LazyCounter,
    reply_cache_hits: LazyCounter,
    call_errors: LazyCounter,
    fault_crashed: LazyCounter,
    fault_partitioned: LazyCounter,
    fault_spiked: LazyCounter,
    fault_unreachable: LazyCounter,
}

/// The RPC fabric shared by all simulated components.
pub struct RpcNet {
    world: Arc<World>,
    tables: RwLock<NetTables>,
    next_xid: std::sync::atomic::AtomicU64,
    replies: ReplyCache,
    call_metrics: CallMetricHandles,
}

impl RpcNet {
    /// Creates a fabric over `world`.
    pub fn new(world: Arc<World>) -> Arc<Self> {
        Arc::new(RpcNet {
            world,
            tables: RwLock::default(),
            next_xid: std::sync::atomic::AtomicU64::new(1),
            replies: ReplyCache::new(REPLY_CACHE_LIMIT),
            call_metrics: CallMetricHandles::default(),
        })
    }

    /// The underlying simulation environment.
    pub fn world(&self) -> &Arc<World> {
        &self.world
    }

    /// Exports `service` on `host` under `program`, assigning a fresh port.
    ///
    /// The program is registered with the host's portmapper and the service
    /// name with its Courier exchange listener, so both binding protocols
    /// can find it.
    pub fn export(&self, host: HostId, program: ProgramId, service: Arc<dyn RpcService>) -> u16 {
        let mut t = self.tables.write();
        let port_ref = t.next_port.entry(host).or_insert(FIRST_DYNAMIC_PORT);
        let port = *port_ref;
        *port_ref += 1;
        let name = service.service_name().to_string();
        t.services.insert((host, port), service);
        t.programs.insert((host, program.0), (port, name.clone()));
        t.by_name.entry(host).or_default().insert(name, port);
        port
    }

    /// Exports `service` at a fixed well-known port (e.g. a DNS server at
    /// port 53). Also registers program and name mappings.
    ///
    /// # Panics
    ///
    /// Panics if the port is already taken on that host or collides with a
    /// built-in service port.
    pub fn export_at(
        &self,
        host: HostId,
        port: u16,
        program: ProgramId,
        service: Arc<dyn RpcService>,
    ) {
        assert!(
            port != PORTMAP_PORT && port != EXCHANGE_PORT,
            "port {port} is reserved for a built-in service"
        );
        let mut t = self.tables.write();
        assert!(
            !t.services.contains_key(&(host, port)),
            "port {port} already exported on {host}"
        );
        let name = service.service_name().to_string();
        t.services.insert((host, port), service);
        t.programs.insert((host, program.0), (port, name.clone()));
        t.by_name.entry(host).or_default().insert(name, port);
    }

    /// Removes an exported service (used by failure-injection tests),
    /// with the portmapper and exchange rows that point at its port. Rows
    /// a later export of the same program or name has re-pointed at
    /// another port are left alone.
    pub fn unexport(&self, host: HostId, port: u16) {
        let mut t = self.tables.write();
        if let Some(service) = t.services.remove(&(host, port)) {
            let (name, names) = (service.service_name(), t.by_name.get_mut(&host));
            if let Some(names) = names.filter(|names| names.get(name) == Some(&port)) {
                names.remove(name);
            }
            t.programs
                .retain(|(h, _), (p, _)| !(*h == host && *p == port));
        }
    }

    fn lookup_service(&self, host: HostId, port: u16) -> RpcResult<Arc<dyn RpcService>> {
        self.tables
            .read()
            .services
            .get(&(host, port))
            .cloned()
            .ok_or(RpcError::NoSuchService { host, port })
    }

    /// Looks up a program's port via the host's portmapper table (the
    /// server side of [`PMAP_GETPORT`]).
    pub fn portmap_getport(&self, host: HostId, program: ProgramId) -> RpcResult<u16> {
        self.tables
            .read()
            .programs
            .get(&(host, program.0))
            .map(|(p, _)| *p)
            .ok_or(RpcError::NoSuchProgram {
                host,
                program: program.0,
            })
    }

    /// Looks up a service's port by name via the host's Courier exchange
    /// table (the server side of [`EXCHANGE_RESOLVE`]).
    pub fn exchange_resolve(&self, host: HostId, name: &str) -> RpcResult<u16> {
        self.tables
            .read()
            .by_name
            .get(&host)
            .and_then(|names| names.get(name))
            .copied()
            .ok_or_else(|| RpcError::NotFound(format!("service `{name}` on {host}")))
    }

    /// [`RpcNet::call_into`] for a caller that sends a tree and reads one.
    pub fn call(
        &self,
        caller: HostId,
        binding: &HrpcBinding,
        proc_id: u32,
        args: &Value,
    ) -> RpcResult<Value> {
        ReplySlot::tree(|reply| self.call_into(caller, binding, proc_id, args, reply))
    }

    /// [`RpcNet::call_into`] for a caller that reads a `T`: a typed
    /// server's `T` is moved to it, and any other reply `decode`d — once,
    /// here — from its tree.
    pub fn call_msg<T: Message, E: From<RpcError>>(
        &self,
        caller: HostId,
        binding: &HrpcBinding,
        proc_id: u32,
        args: &dyn Message,
        decode: impl FnOnce(&Value) -> Result<T, E>,
    ) -> Result<T, E> {
        let call =
            |reply: &mut ReplySlot<'_>| self.call_into(caller, binding, proc_id, args, reply);
        ReplySlot::read(call, decode)
    }

    /// Makes a synchronous call through `binding`, charging network costs.
    /// The message reaches the server as it is, and the server leaves its
    /// reply in the caller's `reply` slot.
    ///
    /// Under the world's fault plan, datagram transports may lose the
    /// request or the reply; the control protocol retransmits up to its
    /// attempt budget. When a reply is lost the server has already
    /// executed the call — a control protocol with at-most-once
    /// bookkeeping answers the retransmission from its reply cache, while
    /// the plain Raw suite re-executes (observable duplicate effects, the
    /// classic datagram caveat).
    pub fn call_into(
        &self,
        caller: HostId,
        binding: &HrpcBinding,
        proc_id: u32,
        args: &dyn Message,
        reply: &mut ReplySlot<'_>,
    ) -> RpcResult<()> {
        let components = binding.components;
        // Cost accounting follows the real wire representation without
        // materializing it: the self-describing encodings round-trip
        // losslessly (the wire crate's proptests pin this), so the
        // simulated delivery path computes the exact datagram length for
        // charging and hands the caller's message straight to the server
        // instead of allocating an encode/decode copy per datagram.
        let req_len = args.encoded_len(components.data_rep)?;

        let faults = self.world.faults();

        if self.world.topology.colocated(caller, binding.host) {
            // Even a colocated call observes a crash window: the caller
            // and the target died together, and there is no network to
            // retry over, so the failure is immediate.
            if let Some(plan) = &faults {
                if plan.host_down(binding.host, self.world.now()) {
                    self.call_metrics
                        .fault_crashed
                        .get(self.world.metrics(), "faults", "crashed_attempts")
                        .inc();
                    self.call_metrics
                        .fault_unreachable
                        .get(self.world.metrics(), "faults", "unreachable_calls")
                        .inc();
                    return Err(RpcError::HostUnreachable {
                        host: binding.host,
                        attempts: 1,
                    });
                }
            }
            self.world.charge(Term::LocalCall);
            self.world.count_local_call();
            self.serve(caller, binding, proc_id, args, reply)?;
            reply_len(reply, components)?;
            return Ok(());
        }

        let suite = components.suite_kind();
        let datagram = components.transport.is_datagram();
        let xid = self
            .next_xid
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);

        let span = self.world.span_lazy(Some(caller), TraceKind::Rpc, || {
            format!(
                "rpc {} -> {}:{} prog {} ({:?})",
                caller, binding.host, binding.port, binding.program.0, suite
            )
        });
        let t0 = self.world.now();
        // One attempt budget for every retry: a lost datagram leg is
        // retransmitted, and a crash or partition outage is retried even
        // on stream transports (the connection attempt itself times out).
        let budget = components.control.max_attempts();
        let dedup = (datagram && components.control.at_most_once()).then_some(xid);
        let mut attempts = 0;
        let result = loop {
            attempts += 1;
            self.world.charge(Term::RemoteRequest {
                suite,
                bytes: req_len,
            });
            self.world.count_remote_call(req_len as u64);

            // Fault legs: a crashed or partitioned target answers
            // nothing, so the attempt is spent and the caller backs off
            // exponentially before retrying, up to the budget.
            if let Some(kind) = faults
                .as_ref()
                .and_then(|plan| plan.blocks(caller, binding.host, self.world.now()))
            {
                match kind {
                    FaultKind::Crashed => self
                        .call_metrics
                        .fault_crashed
                        .get(self.world.metrics(), "faults", "crashed_attempts")
                        .inc(),
                    FaultKind::Partitioned => self
                        .call_metrics
                        .fault_partitioned
                        .get(self.world.metrics(), "faults", "partitioned_attempts")
                        .inc(),
                }
                self.world.trace(Some(caller), TraceKind::Rpc, || {
                    format!("{} unreachable: {kind} (attempt {attempts})", binding.host)
                });
                if attempts >= budget {
                    self.call_metrics
                        .fault_unreachable
                        .get(self.world.metrics(), "faults", "unreachable_calls")
                        .inc();
                    break Err(RpcError::HostUnreachable {
                        host: binding.host,
                        attempts,
                    });
                }
                let ms = retry_backoff_ms(attempts);
                self.world.charge(Term::RetryBackoff { ms });
                continue;
            }

            // An active latency spike slows the attempt without
            // blocking it.
            if let Some(extra) = faults
                .as_ref()
                .map(|plan| plan.extra_latency_ms(caller, binding.host, self.world.now()))
            {
                if extra > 0.0 {
                    self.call_metrics
                        .fault_spiked
                        .get(self.world.metrics(), "faults", "spiked_attempts")
                        .inc();
                    self.world.charge(Term::LatencySpike { ms: extra });
                }
            }

            // The request leg, execution, then the reply leg; a lost leg
            // spends the attempt.
            let drops =
                |leg| datagram && faults.as_ref().is_some_and(|f| f.drops(xid, attempts, leg));
            let lost = if drops(LEG_REQUEST) {
                Some("request to")
            } else if let Err(err) = self.execute(caller, binding, proc_id, args, reply, dedup) {
                break Err(err);
            } else {
                drops(LEG_REPLY).then_some("reply from")
            };
            if let Some(leg) = lost {
                self.call_metrics
                    .datagrams_lost
                    .get(self.world.metrics(), "hrpc_net", "datagrams_lost")
                    .inc();
                self.world.trace(Some(caller), TraceKind::Rpc, || {
                    format!("{leg} {} lost (attempt {attempts})", binding.host)
                });
                if attempts >= budget {
                    break Err(RpcError::Timeout { attempts });
                }
                continue;
            }

            self.world.trace(Some(caller), TraceKind::Rpc, || {
                format!(
                    "call {} -> {}:{} prog {} ({:?})",
                    caller, binding.host, binding.port, binding.program.0, suite
                )
            });
            break reply_len(reply, components);
        };
        let result = result.map(|bytes| self.world.charge(Term::ReplyBytes { bytes }));

        span.add_round_trips(u64::from(attempts));
        drop(span);
        let took = self.world.now().since(t0);
        self.call_metrics
            .remote_call_us
            .get(self.world.metrics(), "hrpc_net", "remote_call_us")
            .record(took.as_us());
        if result.is_err() {
            self.call_metrics
                .call_errors
                .get(self.world.metrics(), "hrpc_net", "call_errors")
                .inc();
        }
        result
    }

    /// Runs the call on the server. `dedup` is the call id where the
    /// control protocol keeps at-most-once call state: a retransmission
    /// is then answered from the reply cache, not executed again.
    fn execute(
        &self,
        caller: HostId,
        binding: &HrpcBinding,
        proc_id: u32,
        args: &dyn Message,
        reply: &mut ReplySlot<'_>,
        dedup: Option<u64>,
    ) -> RpcResult<()> {
        let Some(xid) = dedup else {
            return self.serve(caller, binding, proc_id, args, reply);
        };
        let key = (caller, xid);
        if let Some(cached) = self.replies.get(&key) {
            self.call_metrics
                .reply_cache_hits
                .get(self.world.metrics(), "hrpc_net", "reply_cache_hits")
                .inc();
            self.world.trace(Some(binding.host), TraceKind::Rpc, || {
                format!("duplicate xid {xid} answered from reply cache")
            });
            reply.put_tree(cached);
            return Ok(());
        }
        self.serve(caller, binding, proc_id, args, reply)?;
        let kept = reply.message().ok_or_else(no_reply)?.tree();
        self.replies.insert(key, kept.into_owned());
        Ok(())
    }

    fn serve(
        &self,
        caller: HostId,
        binding: &HrpcBinding,
        proc_id: u32,
        args: &dyn Message,
        reply: &mut ReplySlot<'_>,
    ) -> RpcResult<()> {
        if let PORTMAP_PORT | EXCHANGE_PORT = binding.port {
            let port = self.serve_listener(binding, proc_id, args)?;
            reply.put(Value::U32(u32::from(port)));
            return Ok(());
        }
        let service = self.lookup_service(binding.host, binding.port)?;
        let ctx = CallCtx {
            net: self,
            world: &self.world,
            host: binding.host,
            caller,
        };
        service.dispatch_msg(&ctx, proc_id, args, reply)
    }

    /// The built-in per-host listeners: the portmapper maps a program to
    /// its port, the Courier exchange listener a service's name; either
    /// answers the port as a bare number.
    fn serve_listener(
        &self,
        listener: &HrpcBinding,
        proc_id: u32,
        args: &dyn Message,
    ) -> RpcResult<u16> {
        self.world.charge(Term::PortmapService);
        match (listener.port, proc_id) {
            (PORTMAP_PORT, PMAP_GETPORT) => {
                let program = ProgramId(args.read(GetPort::from_value)?.program);
                self.portmap_getport(listener.host, program)
            }
            (EXCHANGE_PORT, EXCHANGE_RESOLVE) => {
                let request = args.read(ResolveService::from_value)?;
                self.exchange_resolve(listener.host, &request.service)
            }
            (_, other) => Err(RpcError::BadProcedure(other)),
        }
    }

    /// Builds the binding for a built-in per-host service (portmapper or
    /// exchange listener) reachable over the given suite.
    pub fn builtin_binding(host: HostId, port: u16, components: ComponentSet) -> HrpcBinding {
        HrpcBinding {
            host,
            addr: NetAddr::of(host),
            program: ProgramId(0),
            port,
            components,
        }
    }
}

impl std::fmt::Debug for RpcNet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let t = self.tables.read();
        f.debug_struct("RpcNet")
            .field("services", &t.services.len())
            .field("programs", &t.programs.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::components::ComponentSet;
    use crate::server::ProcServer;
    use simnet::faults::FaultPlan;

    fn setup() -> (Arc<World>, Arc<RpcNet>, HostId, HostId) {
        let world = World::paper();
        let client = world.add_host("client");
        let server = world.add_host("server");
        let net = RpcNet::new(Arc::clone(&world));
        (world, net, client, server)
    }

    fn echo_service() -> Arc<dyn RpcService> {
        Arc::new(ProcServer::new("echo").with_proc(1, |_ctx, args| Ok(args.clone())))
    }

    fn binding_for(net: &RpcNet, host: HostId, components: ComponentSet) -> HrpcBinding {
        let port = net
            .portmap_getport(host, ProgramId(77))
            .expect("registered");
        HrpcBinding {
            host,
            addr: NetAddr::of(host),
            program: ProgramId(77),
            port,
            components,
        }
    }

    #[test]
    fn remote_call_roundtrips_and_charges_rtt() {
        let (world, net, client, server) = setup();
        net.export(server, ProgramId(77), echo_service());
        let b = binding_for(&net, server, ComponentSet::sun());
        let args = Value::record([("msg", Value::str("hello"))]);
        let (reply, took, delta) = world.measure(|| net.call(client, &b, 1, &args));
        assert_eq!(reply.expect("call ok"), args);
        assert!(took.as_ms_f64() >= 33.0, "took {took}");
        assert!(took.as_ms_f64() < 36.0, "took {took}");
        assert_eq!(delta.remote_calls, 1);
    }

    #[test]
    fn local_call_is_effectively_free() {
        let (world, net, _client, server) = setup();
        net.export(server, ProgramId(77), echo_service());
        let b = binding_for(&net, server, ComponentSet::sun());
        let (reply, took, delta) = world.measure(|| net.call(server, &b, 1, &Value::U32(5)));
        assert!(reply.is_ok());
        assert!(took.as_ms_f64() < 1.0, "took {took}");
        assert_eq!(delta.remote_calls, 0);
        assert_eq!(delta.local_calls, 1);
    }

    #[test]
    fn suites_have_distinct_costs() {
        let (world, net, client, server) = setup();
        net.export(server, ProgramId(77), echo_service());
        let mut times = Vec::new();
        for components in [
            ComponentSet::raw_tcp(0),
            ComponentSet::raw_udp(0),
            ComponentSet::sun(),
            ComponentSet::courier(),
        ] {
            let mut b = binding_for(&net, server, components);
            b.components = components;
            let (_r, took, _d) = world.measure(|| net.call(client, &b, 1, &Value::Void));
            times.push(took.as_ms_f64());
        }
        // raw_tcp < raw_udp < sun < courier per the calibrated model.
        assert!(
            times[0] < times[1] && times[1] < times[2] && times[2] < times[3],
            "{times:?}"
        );
    }

    #[test]
    fn unknown_service_and_procedure_fail() {
        let (_world, net, client, server) = setup();
        net.export(server, ProgramId(77), echo_service());
        let b = binding_for(&net, server, ComponentSet::sun());
        assert!(matches!(
            net.call(client, &b, 99, &Value::Void),
            Err(RpcError::BadProcedure(99))
        ));
        let mut bad = b;
        bad.port = 9999;
        assert!(matches!(
            net.call(client, &bad, 1, &Value::Void),
            Err(RpcError::NoSuchService { .. })
        ));
    }

    #[test]
    fn portmapper_builtin_resolves_programs() {
        let (_world, net, client, server) = setup();
        let port = net.export(server, ProgramId(100_005), echo_service());
        let pm = RpcNet::builtin_binding(server, PORTMAP_PORT, ComponentSet::raw_udp(PORTMAP_PORT));
        let reply = net
            .call(
                client,
                &pm,
                PMAP_GETPORT,
                &Value::record([("program", Value::U32(100_005))]),
            )
            .expect("getport");
        assert_eq!(reply, Value::U32(port as u32));
    }

    #[test]
    fn exchange_builtin_resolves_names() {
        let (_world, net, client, server) = setup();
        let port = net.export(server, ProgramId(5), echo_service());
        let ex = RpcNet::builtin_binding(server, EXCHANGE_PORT, ComponentSet::courier());
        let reply = net
            .call(
                client,
                &ex,
                EXCHANGE_RESOLVE,
                &Value::record([("service", Value::str("echo"))]),
            )
            .expect("resolve");
        assert_eq!(reply, Value::U32(port as u32));
    }

    #[test]
    fn datagram_loss_retries_then_times_out() {
        let (world, net, client, server) = setup();
        net.export(server, ProgramId(77), echo_service());
        let b = binding_for(&net, server, ComponentSet::raw_udp(0));

        // Total loss: every attempt drops, so the call times out after the
        // control protocol's maximum attempts, charging each attempt.
        world.set_faults(Some(FaultPlan::new().loss(1.0, 42).clone()));
        let (result, took, delta) = world.measure(|| net.call(client, &b, 1, &Value::Void));
        assert!(matches!(result, Err(RpcError::Timeout { attempts: 4 })));
        assert!(took.as_ms_f64() >= 4.0 * 25.0, "took {took}");
        assert_eq!(delta.remote_calls, 4);

        // No loss: immediate success.
        world.set_faults(None);
        assert!(net.call(client, &b, 1, &Value::Void).is_ok());
    }

    #[test]
    fn stream_transports_ignore_loss_plan() {
        let (world, net, client, server) = setup();
        net.export(server, ProgramId(77), echo_service());
        world.set_faults(Some(FaultPlan::new().loss(1.0, 42).clone()));
        let b = binding_for(&net, server, ComponentSet::sun());
        assert!(net.call(client, &b, 1, &Value::Void).is_ok());
    }

    #[test]
    fn unexport_removes_service() {
        let (_world, net, client, server) = setup();
        let port = net.export(server, ProgramId(77), echo_service());
        let b = binding_for(&net, server, ComponentSet::sun());
        net.unexport(server, port);
        assert!(matches!(
            net.call(client, &b, 1, &Value::Void),
            Err(RpcError::NoSuchService { .. })
        ));
        assert!(net.portmap_getport(server, ProgramId(77)).is_err());
    }

    #[test]
    fn unexport_leaves_other_hosts_using_the_same_port_mapped() {
        let (world, net, client, server) = setup();
        let other = world.add_host("other");
        net.export_at(server, 1024, ProgramId(77), echo_service());
        net.export_at(other, 1024, ProgramId(78), echo_service());
        net.unexport(server, 1024);
        assert!(net.portmap_getport(server, ProgramId(77)).is_err());
        assert_eq!(
            net.portmap_getport(other, ProgramId(78)).expect("kept"),
            1024
        );
        assert_eq!(net.exchange_resolve(other, "echo").expect("kept"), 1024);
        let b = HrpcBinding {
            host: other,
            addr: NetAddr::of(other),
            program: ProgramId(78),
            port: 1024,
            components: ComponentSet::sun(),
        };
        assert!(net.call(client, &b, 1, &Value::Void).is_ok());
    }

    /// Registering a service again replaces its rows (`Hns::deploy_nsm`
    /// relies on it); unexporting the superseded port must not take the
    /// live port's exchange row with it.
    #[test]
    fn unexporting_a_superseded_port_keeps_the_live_ports_rows() {
        let (_world, net, _client, server) = setup();
        let old = net.export(server, ProgramId(77), echo_service());
        let new = net.export(server, ProgramId(77), echo_service());
        assert_ne!(old, new);
        net.unexport(server, old);
        assert_eq!(net.portmap_getport(server, ProgramId(77)), Ok(new));
        assert_eq!(net.exchange_resolve(server, "echo"), Ok(new));
    }

    /// No table lock is held while a service runs: a service that exports
    /// and unexports on the fabric serving it completes.
    #[test]
    fn a_service_may_export_and_unexport_from_inside_dispatch() {
        let (_world, net, client, server) = setup();
        let redeploy = Arc::new(ProcServer::new("redeploy").with_proc(1, |ctx, _args| {
            let port = ctx.net.export(ctx.host, ProgramId(78), echo_service());
            ctx.net.unexport(ctx.host, port);
            Ok(Value::U32(u32::from(port)))
        }));
        net.export(server, ProgramId(77), redeploy);
        let b = binding_for(&net, server, ComponentSet::sun());
        let reply = net.call(client, &b, 1, &Value::Void).expect("completes");
        assert_eq!(reply, Value::U32(1025));
        assert!(net.portmap_getport(server, ProgramId(78)).is_err());
    }

    #[test]
    fn nested_calls_originate_from_service_host() {
        let (world, net, client, server) = setup();
        let backend_host = world.add_host("backend");
        net.export(backend_host, ProgramId(88), echo_service());
        let backend_port = net
            .portmap_getport(backend_host, ProgramId(88))
            .expect("port");
        let backend = HrpcBinding {
            host: backend_host,
            addr: NetAddr::of(backend_host),
            program: ProgramId(88),
            port: backend_port,
            components: ComponentSet::raw_tcp(backend_port),
        };
        let frontend = Arc::new(ProcServer::new("frontend").with_proc(1, move |ctx, args| {
            ctx.net.call(ctx.host, &backend, 1, args)
        }));
        net.export(server, ProgramId(77), frontend);
        let b = binding_for(&net, server, ComponentSet::sun());
        let (reply, took, delta) = world.measure(|| net.call(client, &b, 1, &Value::U32(9)));
        assert_eq!(reply.expect("ok"), Value::U32(9));
        // Two remote hops: client->frontend (33) + frontend->backend (22).
        assert!(took.as_ms_f64() >= 55.0, "took {took}");
        assert_eq!(delta.remote_calls, 2);
    }

    /// The at-most-once window: a reply is still answerable after
    /// `capacity - 1` fresh calls have been cached behind it, whatever
    /// their callers and call ids — the seed design cleared the *entire*
    /// table at the limit, so a burst could wipe the reply a
    /// retransmission still needed. The next insert is the one that
    /// retires it.
    #[test]
    fn reply_cache_entry_survives_a_burst_shorter_than_the_capacity() {
        let cache = ReplyCache::new(64);
        let victim = (HostId(1), 0u64);
        cache.insert(victim, Value::U32(42));
        for xid in 1..64 {
            cache.insert((HostId(2), xid), Value::Void);
            assert_eq!(cache.get(&victim), Some(Value::U32(42)), "after {xid}");
        }
        cache.insert((HostId(2), 64), Value::Void);
        assert_eq!(cache.get(&victim), None);
        assert_eq!(cache.len(), 64);
    }

    #[test]
    fn reply_cache_evicts_oldest_when_full() {
        let cache = ReplyCache::new(4);
        let keys: Vec<_> = (0..6).map(|i| (HostId(1), i)).collect();
        for (i, key) in keys.iter().enumerate() {
            cache.insert(*key, Value::U32(i as u32));
        }
        // 6 inserts into a 4-entry table: the two oldest are gone, the
        // rest (and nothing else) remain.
        assert_eq!(cache.get(&keys[0]), None);
        assert_eq!(cache.get(&keys[1]), None);
        for (i, key) in keys.iter().enumerate().skip(2) {
            assert_eq!(cache.get(key), Some(Value::U32(i as u32)));
        }
        assert_eq!(cache.len(), 4);
    }

    #[test]
    fn reply_cache_reinsert_does_not_duplicate_order_entries() {
        let cache = ReplyCache::new(64);
        let key = (HostId(1), 0u64);
        for i in 0..10 {
            cache.insert(key, Value::U32(i));
        }
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.get(&key), Some(Value::U32(9)));
    }

    #[test]
    fn duplicate_after_lost_reply_is_answered_from_reply_cache() {
        // An at-most-once datagram suite whose first reply is lost: the
        // retransmission must be answered from the reply cache, not by
        // re-executing the procedure.
        let (world, net, client, server) = setup();
        let calls = Arc::new(std::sync::atomic::AtomicU32::new(0));
        let counted = {
            let calls = Arc::clone(&calls);
            Arc::new(ProcServer::new("counted").with_proc(1, move |_ctx, _args| {
                calls.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                Ok(Value::U32(7))
            }))
        };
        net.export(server, ProgramId(77), counted);
        let b = binding_for(&net, server, ComponentSet::raw_udp_at_most_once(0));
        // The first call on a fresh net has xid 1 and each attempt has a
        // request and a reply leg. Pick a seed where attempt 1 delivers
        // the request but loses the reply, and attempt 2 delivers both:
        // the retransmission must be answered from the reply cache.
        let seed = (0..100_000u64)
            .find(|&s| {
                let plan = FaultPlan::new().loss(0.5, s).clone();
                !plan.drops(1, 1, LEG_REQUEST)
                    && plan.drops(1, 1, LEG_REPLY)
                    && !plan.drops(1, 2, LEG_REQUEST)
                    && !plan.drops(1, 2, LEG_REPLY)
            })
            .expect("a drop-reply-only seed exists");
        world.set_faults(Some(FaultPlan::new().loss(0.5, seed).clone()));
        let ok = net.call(client, &b, 1, &Value::Void).expect("retried call");
        assert_eq!(ok, Value::U32(7));
        assert_eq!(
            calls.load(std::sync::atomic::Ordering::Relaxed),
            1,
            "the duplicate must come from the reply cache, not re-execution"
        );
        let snap = world.metrics().snapshot();
        assert_eq!(snap.counter("hrpc_net", "reply_cache_hits"), Some(1));
        assert_eq!(snap.counter("hrpc_net", "datagrams_lost"), Some(1));
    }

    #[test]
    fn crashed_host_fails_fast_with_typed_error_and_backoff() {
        let (world, net, client, server) = setup();
        net.export(server, ProgramId(77), echo_service());
        let b = binding_for(&net, server, ComponentSet::sun());

        let mut plan = FaultPlan::new();
        plan.crash(server, world.now(), None);
        world.set_faults(Some(plan));

        let (result, took, delta) = world.measure(|| net.call(client, &b, 1, &Value::Void));
        assert!(
            matches!(result, Err(RpcError::HostUnreachable { host, attempts: 3 }) if host == server),
            "{result:?}"
        );
        // Three charged attempts (~33 ms each) plus backoffs 50 + 100.
        assert!(took.as_ms_f64() >= 3.0 * 33.0 + 150.0, "took {took}");
        assert_eq!(delta.remote_calls, 3);

        let snap = world.metrics().snapshot();
        assert_eq!(snap.counter("faults", "crashed_attempts"), Some(3));
        assert_eq!(snap.counter("faults", "unreachable_calls"), Some(1));

        // Clearing the plan heals the host.
        world.set_faults(None);
        assert!(net.call(client, &b, 1, &Value::Void).is_ok());
    }

    #[test]
    fn partition_blocks_link_until_window_closes() {
        use simnet::time::SimDuration;

        let (world, net, client, server) = setup();
        net.export(server, ProgramId(77), echo_service());
        let b = binding_for(&net, server, ComponentSet::raw_tcp(0));

        let heal = world.now() + SimDuration::from_ms(10_000);
        let mut plan = FaultPlan::new();
        plan.partition(client, server, world.now(), Some(heal));
        world.set_faults(Some(plan));

        // raw_tcp's control protocol budgets a single attempt.
        let result = net.call(client, &b, 1, &Value::Void);
        assert!(
            matches!(result, Err(RpcError::HostUnreachable { attempts: 1, .. })),
            "{result:?}"
        );
        assert_eq!(
            world
                .metrics()
                .snapshot()
                .counter("faults", "partitioned_attempts"),
            Some(1)
        );

        // The same plan heals once virtual time passes the window.
        let now = world.now();
        world.wait(heal.since(now) + SimDuration::from_ms(1));
        assert!(net.call(client, &b, 1, &Value::Void).is_ok());
    }

    #[test]
    fn latency_spike_slows_but_does_not_block() {
        let (world, net, client, server) = setup();
        net.export(server, ProgramId(77), echo_service());
        let b = binding_for(&net, server, ComponentSet::sun());

        let (_r, clean, _d) = world.measure(|| net.call(client, &b, 1, &Value::Void));

        let mut plan = FaultPlan::new();
        plan.latency_spike(client, server, world.now(), None, 250.0);
        world.set_faults(Some(plan));
        let (result, spiked, _d) = world.measure(|| net.call(client, &b, 1, &Value::Void));
        assert!(result.is_ok(), "a spike must not fail the call");
        assert!(
            (spiked.as_ms_f64() - clean.as_ms_f64() - 250.0).abs() < 1.0,
            "clean {clean}, spiked {spiked}"
        );
        assert_eq!(
            world
                .metrics()
                .snapshot()
                .counter("faults", "spiked_attempts"),
            Some(1)
        );
    }

    #[test]
    fn colocated_call_to_crashed_host_fails_immediately() {
        let (world, net, _client, server) = setup();
        net.export(server, ProgramId(77), echo_service());
        let b = binding_for(&net, server, ComponentSet::sun());

        let mut plan = FaultPlan::new();
        plan.crash(server, world.now(), None);
        world.set_faults(Some(plan));
        let (result, took, delta) = world.measure(|| net.call(server, &b, 1, &Value::U32(5)));
        assert!(
            matches!(result, Err(RpcError::HostUnreachable { attempts: 1, .. })),
            "{result:?}"
        );
        assert_eq!(took.as_us(), 0, "no retries, no backoff: the host is dead");
        assert_eq!(delta.local_calls, 0);
    }

    #[test]
    #[should_panic(expected = "reserved for a built-in service")]
    fn export_at_reserved_port_panics() {
        let (_world, net, _client, server) = setup();
        net.export_at(server, PORTMAP_PORT, ProgramId(1), echo_service());
    }

    #[test]
    fn export_at_fixed_port() {
        let (_world, net, client, server) = setup();
        net.export_at(server, 53, ProgramId(99), echo_service());
        let b = HrpcBinding {
            host: server,
            addr: NetAddr::of(server),
            program: ProgramId(99),
            port: 53,
            components: ComponentSet::raw_tcp(53),
        };
        assert!(net.call(client, &b, 1, &Value::Void).is_ok());
    }
}
