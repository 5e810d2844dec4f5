//! Client stubs.
//!
//! A stub pairs a caller host with the fabric, so application code reads
//! like a procedure call: `stub.call(&binding, PROC, &args)`.

use std::sync::Arc;

use simnet::topology::HostId;
use wire::{TypeDesc, Value};

use crate::binding::HrpcBinding;
use crate::error::{RpcError, RpcResult};
use crate::net::RpcNet;

/// A client-side stub bound to one caller host.
#[derive(Clone)]
pub struct ClientStub {
    net: Arc<RpcNet>,
    host: HostId,
}

impl ClientStub {
    /// Creates a stub for code running on `host`.
    pub fn new(net: Arc<RpcNet>, host: HostId) -> Self {
        ClientStub { net, host }
    }

    /// The host this stub originates calls from.
    pub fn host(&self) -> HostId {
        self.host
    }

    /// The underlying fabric.
    pub fn net(&self) -> &Arc<RpcNet> {
        &self.net
    }

    /// Makes a call through `binding`.
    pub fn call(&self, binding: &HrpcBinding, proc_id: u32, args: &Value) -> RpcResult<Value> {
        self.net.call(self.host, binding, proc_id, args)
    }

    /// Makes a call and validates the reply against an interface
    /// description, reproducing the stub's type discipline.
    pub fn call_typed(
        &self,
        binding: &HrpcBinding,
        proc_id: u32,
        args: &Value,
        reply_desc: &TypeDesc,
    ) -> RpcResult<Value> {
        let reply = self.call(binding, proc_id, args)?;
        reply_desc.check(&reply).map_err(RpcError::Wire)?;
        Ok(reply)
    }
}

impl std::fmt::Debug for ClientStub {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClientStub")
            .field("host", &self.host)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binding::ProgramId;
    use crate::components::ComponentSet;
    use crate::server::ProcServer;
    use simnet::topology::NetAddr;
    use simnet::world::World;

    fn setup() -> (ClientStub, HrpcBinding) {
        let world = World::paper();
        let client = world.add_host("client");
        let server = world.add_host("server");
        let net = RpcNet::new(world);
        let svc = Arc::new(
            ProcServer::new("svc").with_proc(2, |_c, a| Ok(Value::record([("echo", a.clone())]))),
        );
        let port = net.export(server, ProgramId(1), svc);
        let binding = HrpcBinding {
            host: server,
            addr: NetAddr::of(server),
            program: ProgramId(1),
            port,
            components: ComponentSet::sun(),
        };
        (ClientStub::new(net, client), binding)
    }

    #[test]
    fn stub_calls_through_binding() {
        let (stub, binding) = setup();
        let reply = stub.call(&binding, 2, &Value::U32(7)).expect("call");
        assert_eq!(reply, Value::record([("echo", Value::U32(7))]));
        assert_eq!(stub.host(), stub.host());
    }

    #[test]
    fn typed_call_accepts_conforming_reply() {
        let (stub, binding) = setup();
        let desc = TypeDesc::record(vec![("echo", TypeDesc::U32)]);
        assert!(stub.call_typed(&binding, 2, &Value::U32(7), &desc).is_ok());
    }

    #[test]
    fn typed_call_rejects_nonconforming_reply() {
        let (stub, binding) = setup();
        let desc = TypeDesc::record(vec![("echo", TypeDesc::Str)]);
        let err = stub
            .call_typed(&binding, 2, &Value::U32(7), &desc)
            .unwrap_err();
        assert!(matches!(err, RpcError::Wire(_)));
    }
}
