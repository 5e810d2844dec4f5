//! Control-protocol semantics under message loss: retransmission,
//! duplicate execution, and at-most-once suppression.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use hrpc::net::{retry_backoff_ms, RpcNet, RETRY_BACKOFF_BASE_MS, RETRY_BACKOFF_CAP_MS};
use hrpc::server::{CallCtx, RpcService};
use hrpc::{ComponentSet, HrpcBinding, ProgramId, RpcError, RpcResult};
use simnet::faults::{FaultPlan, LEG_REPLY, LEG_REQUEST};
use simnet::topology::{HostId, NetAddr};
use simnet::world::World;
use wire::Value;

/// A service with an observable side effect per execution.
struct Counter {
    executions: AtomicU32,
}

impl RpcService for Counter {
    fn service_name(&self) -> &str {
        "counter"
    }
    fn dispatch(&self, _ctx: &CallCtx<'_>, _proc: u32, _args: &Value) -> RpcResult<Value> {
        let n = self.executions.fetch_add(1, Ordering::SeqCst) + 1;
        Ok(Value::U32(n))
    }
}

struct Env {
    world: Arc<World>,
    net: Arc<RpcNet>,
    client: HostId,
    server: HostId,
    counter: Arc<Counter>,
    port: u16,
}

fn env() -> Env {
    let world = World::paper();
    let client = world.add_host("client");
    let server = world.add_host("server");
    let net = RpcNet::new(Arc::clone(&world));
    let counter = Arc::new(Counter {
        executions: AtomicU32::new(0),
    });
    let port = net.export(
        server,
        ProgramId(5),
        Arc::clone(&counter) as Arc<dyn RpcService>,
    );
    Env {
        world,
        net,
        client,
        server,
        counter,
        port,
    }
}

fn binding(env: &Env, components: ComponentSet) -> HrpcBinding {
    HrpcBinding {
        host: env.server,
        addr: NetAddr::of(env.server),
        program: ProgramId(5),
        port: env.port,
        components,
    }
}

/// Runs calls under loss and returns (successful calls, executions).
fn run_lossy(env: &Env, components: ComponentSet, calls: u32, seed: u64) -> (u32, u32) {
    env.world
        .set_faults(Some(FaultPlan::new().loss(0.35, seed).clone()));
    env.counter.executions.store(0, Ordering::SeqCst);
    let b = binding(env, components);
    let mut ok = 0;
    for _ in 0..calls {
        if env.net.call(env.client, &b, 1, &Value::Void).is_ok() {
            ok += 1;
        }
    }
    env.world.set_faults(None);
    (ok, env.counter.executions.load(Ordering::SeqCst))
}

#[test]
fn raw_udp_without_call_state_executes_duplicates() {
    let env = env();
    let (ok, executions) = run_lossy(&env, ComponentSet::raw_udp(env.port), 60, 7);
    assert!(ok >= 50, "too few successes: {ok}");
    // Lost replies force retransmissions that re-execute the call.
    assert!(
        executions > ok,
        "expected duplicate executions: ok {ok}, executions {executions}"
    );
}

#[test]
fn at_most_once_suppresses_duplicate_executions() {
    let env = env();
    let (ok, executions) = run_lossy(&env, ComponentSet::raw_udp_at_most_once(env.port), 60, 7);
    assert!(ok >= 50, "too few successes: {ok}");
    // Every successful call executed exactly once; failed calls executed
    // at most once.
    assert!(
        executions <= 60,
        "at-most-once violated: ok {ok}, executions {executions}"
    );
    assert!(executions >= ok, "every success implies one execution");
}

#[test]
fn lossless_calls_execute_exactly_once_under_any_control() {
    let env = env();
    for components in [
        ComponentSet::sun(),
        ComponentSet::courier(),
        ComponentSet::raw_tcp(env.port),
        ComponentSet::raw_udp(env.port),
        ComponentSet::raw_udp_at_most_once(env.port),
    ] {
        env.counter.executions.store(0, Ordering::SeqCst);
        let b = binding(&env, components);
        for _ in 0..10 {
            env.net.call(env.client, &b, 1, &Value::Void).expect("call");
        }
        assert_eq!(env.counter.executions.load(Ordering::SeqCst), 10);
    }
}

#[test]
fn retransmissions_cost_virtual_time() {
    let env = env();
    // No loss: baseline.
    let b = binding(&env, ComponentSet::raw_udp(env.port));
    let (_, ledger) = env
        .world
        .measure(|| env.net.call(env.client, &b, 1, &Value::Void));
    let clean = ledger.total();

    // Certain request loss on the first three attempts is impossible to
    // arrange exactly with a probabilistic plan, so compare aggregates:
    env.world
        .set_faults(Some(FaultPlan::new().loss(0.5, 11).clone()));
    let mut total = 0.0;
    let calls = 40;
    for _ in 0..calls {
        let (_, ledger) = env
            .world
            .measure(|| env.net.call(env.client, &b, 1, &Value::Void));
        let took = ledger.total();
        total += took.as_ms_f64();
    }
    env.world.set_faults(None);
    let mean = total / f64::from(calls);
    assert!(
        mean > clean.as_ms_f64() * 1.4,
        "loss must cost time: clean {} vs lossy mean {mean}",
        clean.as_ms_f64()
    );
}

#[test]
fn total_loss_times_out_with_attempt_budget() {
    let env = env();
    env.world
        .set_faults(Some(FaultPlan::new().loss(1.0, 3).clone()));
    let b = binding(&env, ComponentSet::raw_udp_at_most_once(env.port));
    let err = env.net.call(env.client, &b, 1, &Value::Void).unwrap_err();
    assert!(matches!(err, RpcError::Timeout { attempts: 4 }), "{err}");
    assert_eq!(env.counter.executions.load(Ordering::SeqCst), 0);
}

#[test]
fn backoff_is_capped_exponential() {
    // 50 · 2^(attempt−1), capped at 800 ms, for any attempt number.
    assert_eq!(retry_backoff_ms(1), RETRY_BACKOFF_BASE_MS);
    assert_eq!(retry_backoff_ms(2), 100.0);
    assert_eq!(retry_backoff_ms(3), 200.0);
    assert_eq!(retry_backoff_ms(4), 400.0);
    assert_eq!(retry_backoff_ms(5), 800.0);
    assert_eq!(retry_backoff_ms(6), RETRY_BACKOFF_CAP_MS, "capped");
    assert_eq!(retry_backoff_ms(100), RETRY_BACKOFF_CAP_MS, "no overflow");
    assert_eq!(retry_backoff_ms(0), RETRY_BACKOFF_BASE_MS, "degenerate");
}

#[test]
fn crashed_host_honors_attempt_budget_and_charges_virtual_backoff() {
    let env = env();
    let mut plan = FaultPlan::new();
    plan.crash(env.server, env.world.now(), None);
    env.world.set_faults(Some(plan));

    let b = binding(&env, ComponentSet::raw_udp(env.port));
    let budget = b.components.control.max_attempts();
    #[allow(
        clippy::disallowed_methods,
        reason = "the assertion is about the wall clock: backoff must not sleep"
    )]
    let wall = std::time::Instant::now();
    let (result, ledger) = env
        .world
        .measure(|| env.net.call(env.client, &b, 1, &Value::Void));
    let took = ledger.total();
    let wall = wall.elapsed();

    match result.unwrap_err() {
        RpcError::HostUnreachable { host, attempts } => {
            assert_eq!(host, env.server);
            assert_eq!(attempts, budget, "gave up exactly at the budget");
        }
        other => panic!("expected HostUnreachable, got {other}"),
    }
    assert_eq!(env.counter.executions.load(Ordering::SeqCst), 0);
    // The backoff between the budget's attempts is charged to *virtual*
    // time (50 + 100 + 200 ms for a budget of 4)…
    let backoff_ms: f64 = (1..budget).map(retry_backoff_ms).sum();
    assert!(
        took.as_ms_f64() >= backoff_ms,
        "virtual time must include the backoff: {} < {backoff_ms}",
        took.as_ms_f64()
    );
    // …while wall-clock time stays at simulation speed: nothing sleeps.
    assert!(
        wall < std::time::Duration::from_secs(2),
        "backoff must not sleep on the wall clock: {wall:?}"
    );

    env.world.set_faults(None);
    env.net
        .call(env.client, &b, 1, &Value::Void)
        .expect("heals");
}

/// Regression for the loss-determinism bug: the old implementation drew
/// from a shared RNG under the loss mutex on every datagram attempt, so
/// the *order* of concurrent caller threads changed which calls lost
/// their datagrams. Hash-derived draws depend only on (xid, attempt,
/// leg), so an 8-thread run must match a sequential replay exactly.
#[test]
fn concurrent_loss_draws_are_order_independent() {
    const THREADS: u64 = 8;
    const CALLS_PER_THREAD: u64 = 50;
    let plan = FaultPlan::new().loss(0.5, 1987).clone();

    let env = env();
    env.world.set_faults(Some(plan.clone()));
    let b = binding(&env, ComponentSet::raw_udp(env.port));
    let budget = b.components.control.max_attempts();
    let ok = Arc::new(AtomicU32::new(0));
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            let env = &env;
            let b = &b;
            let ok = Arc::clone(&ok);
            scope.spawn(move || {
                for _ in 0..CALLS_PER_THREAD {
                    if env.net.call(env.client, b, 1, &Value::Void).is_ok() {
                        ok.fetch_add(1, Ordering::SeqCst);
                    }
                }
            });
        }
    });
    env.world.set_faults(None);

    // Sequential replay over the same xid range (fresh nets assign xids
    // from 1): per xid, walk the attempts the control protocol makes and
    // classify from the pure per-(xid, attempt, leg) draws alone.
    let mut expect_ok = 0u32;
    let mut expect_lost = 0u64;
    for xid in 1..=(THREADS * CALLS_PER_THREAD) {
        let mut succeeded = false;
        for attempt in 1..=budget {
            if plan.drops(xid, attempt, LEG_REQUEST) {
                expect_lost += 1;
                continue;
            }
            if plan.drops(xid, attempt, LEG_REPLY) {
                expect_lost += 1;
                continue;
            }
            succeeded = true;
            break;
        }
        if succeeded {
            expect_ok += 1;
        }
    }
    assert_eq!(
        ok.load(Ordering::SeqCst),
        expect_ok,
        "thread interleaving must not change which calls fail"
    );
    let snap = env.world.metrics().snapshot();
    assert_eq!(
        snap.counter("hrpc_net", "datagrams_lost"),
        Some(expect_lost),
        "…nor how many datagrams were lost"
    );
}

#[test]
fn distinct_calls_never_share_reply_cache_entries() {
    let env = env();
    // At-most-once must not confuse *different* calls: each fresh call
    // gets a fresh xid and a fresh execution.
    let b = binding(&env, ComponentSet::raw_udp_at_most_once(env.port));
    let first = env.net.call(env.client, &b, 1, &Value::Void).expect("call");
    let second = env.net.call(env.client, &b, 1, &Value::Void).expect("call");
    assert_eq!(first, Value::U32(1));
    assert_eq!(second, Value::U32(2));
}
