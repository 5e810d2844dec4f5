//! `simnet` — the deterministic virtual-time substrate.
//!
//! The paper measured its prototype on MicroVAX-IIs joined by an Ethernet.
//! This crate substitutes a calibrated simulation for that testbed:
//!
//! * [`time`] / [`clock`] — microsecond-resolution virtual time; components
//!   charge calibrated costs against a shared [`clock::VirtualClock`] as a
//!   single logical operation proceeds, reproducing the paper's
//!   "elapsed time at light load" methodology deterministically.
//! * [`topology`] — named hosts on a flat LAN; colocation (same host) is
//!   what makes a call local and effectively free.
//! * [`costs`] — every calibrated constant, each traced to a measured
//!   primitive in the paper.
//! * [`trace`] — re-export of the [`obs`] span/event recorder used by the
//!   Figure 2.1 walkthrough and the per-query flame breakdowns.
//! * [`ttl`] — the TTL-cache core: the one expiry map every
//!   cache in the workspace is built on.
//! * [`world`] — the shared environment (clock + topology + costs + trace +
//!   structural counters + the unified [`obs::MetricsRegistry`]).
//! * [`rng`] — a self-contained deterministic PRNG.
//! * [`faults`] — deterministic fault injection (crash windows, link
//!   partitions, latency spikes) scheduled in virtual time.
//!
//! # Examples
//!
//! ```
//! use simnet::world::World;
//!
//! let world = World::paper();
//! let client = world.add_host("tahiti.cs.washington.edu");
//! let server = world.add_host("fiji.cs.washington.edu");
//! assert!(!world.topology.colocated(client, server));
//!
//! // A component charges the cost of one native BIND lookup.
//! let ms = world.costs.native_bind_lookup(1);
//! world.charge_ms(ms);
//! assert!((world.now().as_ms_f64() - 27.0).abs() < 1.0);
//! ```
#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod clock;
pub mod costs;
pub mod faults;
pub mod rng;
pub mod time;
pub mod topology;
pub mod trace;
pub mod ttl;
pub mod world;

pub use obs;

pub use clock::VirtualClock;
pub use costs::{CacheForm, CostModel, RpcSuiteKind};
pub use faults::{FaultKind, FaultPlan};
pub use time::{SimDuration, SimTime};
pub use topology::{HostId, NetAddr, Topology};
pub use world::{CounterSnapshot, World, WorldSpan};
