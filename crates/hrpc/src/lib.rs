//! `hrpc` — the heterogeneous RPC facility (Bershad et al. 1987).
//!
//! HRPC decomposes an RPC system into five independently selectable
//! components — stubs, binding protocol, data representation, transport
//! protocol, and control protocol — "mixed and matched" at bind time so a
//! single client can call Sun RPC, Courier, or raw message-passing peers by
//! emulating a homogeneous peer of each.
//!
//! * [`components`] — the component model and the Sun / Courier / Raw
//!   suites.
//! * [`binding`] — the system-independent [`binding::HrpcBinding`] handle.
//! * [`net`] — the fabric: service export, synchronous calls with
//!   virtual-time charging, built-in portmapper and Courier exchange,
//!   datagram loss injection.
//! * [`bindproto`] — port determination per native binding protocol.
//! * [`server`] — the service trait and a closure-based service builder.
//!
//! What crosses the fabric is a [`wire::Message`]: [`RpcNet::call_into`]
//! is the one call path, [`RpcNet::call_msg`] its wrapper for a caller
//! that reads a struct and [`RpcNet::call`] for one that reads trees. A
//! service sees the caller's own struct if it overrides
//! [`RpcService::dispatch_msg`], and leaves its reply in a [`ReplySlot`]
//! the caller owns: moved there if it is the type the caller reads.
//!
//! # Examples
//!
//! ```
//! use std::sync::Arc;
//! use hrpc::binding::ProgramId;
//! use hrpc::components::ComponentSet;
//! use hrpc::net::RpcNet;
//! use hrpc::server::ProcServer;
//! use simnet::world::World;
//! use wire::Value;
//!
//! let world = World::paper();
//! let client = world.add_host("client");
//! let server = world.add_host("fiji.cs.washington.edu");
//! let net = RpcNet::new(Arc::clone(&world));
//!
//! // Export a Sun RPC style service.
//! let svc = Arc::new(ProcServer::new("DesiredService").with_proc(1, |_ctx, args| Ok(args.clone())));
//! net.export(server, ProgramId(100_005), svc);
//!
//! // Bind (runs the Sun portmapper protocol) and call.
//! let binding = hrpc::bindproto::bind(
//!     &net, client, server, ProgramId(100_005), "DesiredService", ComponentSet::sun(),
//! ).expect("bind");
//! let reply = net.call(client, &binding, 1, &Value::str("ping")).expect("call");
//! assert_eq!(reply, Value::str("ping"));
//! ```
#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod binding;
pub mod bindproto;
pub mod components;
pub mod error;
pub mod net;
pub mod server;

pub use binding::{HrpcBinding, ProgramId};
pub use components::{BindingProtocol, ComponentSet, ControlProtocol, Transport};
pub use error::{RpcError, RpcResult};
pub use net::RpcNet;
pub use server::{CallCtx, ProcServer, ReplySlot, RpcService};
