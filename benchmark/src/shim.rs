//! Timing shims: every deployed server is taken off the fabric and put
//! back at the same host, port and program behind a wrapper that opens
//! a span around `dispatch`. Bindings the stack already holds keep
//! working, and the stack is not edited.

use std::sync::Arc;

use hrpc::error::RpcResult;
use hrpc::net::RpcNet;
use hrpc::server::{CallCtx, RpcService};
use hrpc::ProgramId;
use simnet::topology::HostId;
use wire::Value;

use crate::spans::{Kind, Tracer};

/// Picks the span kind for one call from its procedure number (a BIND
/// update and a BIND query are different work on the same port).
pub type Classify = fn(u32) -> Kind;

struct TimingShim {
    inner: Arc<dyn RpcService>,
    classify: Classify,
    tracer: Tracer,
}

impl RpcService for TimingShim {
    fn service_name(&self) -> &str {
        self.inner.service_name()
    }

    fn dispatch(&self, ctx: &CallCtx<'_>, proc_id: u32, args: &Value) -> RpcResult<Value> {
        let _span = self.tracer.enter((self.classify)(proc_id));
        self.inner.dispatch(ctx, proc_id, args)
    }
}

/// One server to interpose on.
pub struct Target {
    pub host: HostId,
    pub port: u16,
    pub program: ProgramId,
    pub inner: Arc<dyn RpcService>,
    pub classify: Classify,
}

/// Wraps every target. All are unexported before any is re-exported:
/// `RpcNet::unexport` drops portmapper rows by port number alone, so an
/// interleaved order would unmap a server that shares a port number
/// with one interposed later (every BIND listens on 53, every host's
/// first dynamic port is 1024).
pub fn interpose(net: &RpcNet, targets: Vec<Target>, tracer: &Tracer) {
    for t in &targets {
        net.unexport(t.host, t.port);
    }
    for t in targets {
        net.export_at(
            t.host,
            t.port,
            t.program,
            Arc::new(TimingShim {
                inner: t.inner,
                classify: t.classify,
                tracer: tracer.clone(),
            }),
        );
    }
}
