//! `simnet` — the deterministic virtual-time substrate.
//!
//! The paper measured its prototype on MicroVAX-IIs joined by an Ethernet.
//! This crate substitutes a calibrated simulation for that testbed:
//!
//! * [`time`] / [`clock`] — microsecond-resolution virtual time; components
//!   charge calibrated costs against a shared [`clock::VirtualClock`] as a
//!   single logical operation proceeds, reproducing the paper's
//!   "elapsed time at light load" methodology deterministically. The
//!   clock's [`Ledger`] files each charge under its term's [`Kind`].
//! * [`topology`] — named hosts on a flat LAN; colocation (same host) is
//!   what makes a call local and effectively free.
//! * [`costs`] — every calibrated constant, each traced to a measured
//!   primitive in the paper, and the [`Term`]s components charge, which
//!   [`CostModel::price`] alone prices.
//! * [`obs`] — re-export of the observability crate: its
//!   [`obs::trace`] span/event recorder (the Figure 2.1 walkthrough, the
//!   per-query flame breakdowns) and its metrics registry.
//! * [`ttl`] — the TTL-cache core: the one expiry map every
//!   cache in the workspace is built on.
//! * [`index`] — the open-addressed `u32` index, with its fixed hash,
//!   that the TTL maps and the zone's owner store find entries by.
//! * [`world`] — the shared environment (clock and ledger + topology +
//!   costs + trace + the unified [`obs::MetricsRegistry`], whose `net`
//!   counters are read off the ledger).
//! * [`rng`] — a self-contained deterministic PRNG.
//! * [`faults`] — deterministic fault injection (crash windows, link
//!   partitions, latency spikes) scheduled in virtual time.
//!
//! # Examples
//!
//! ```
//! use simnet::{RpcSuiteKind, Term, World};
//!
//! let world = World::paper();
//! let client = world.add_host("tahiti.cs.washington.edu");
//! let server = world.add_host("fiji.cs.washington.edu");
//! assert!(!world.topology.colocated(client, server));
//!
//! // One native BIND lookup, term by term: the DNS round trip, the
//! // server's service, the standard routines' marshalling of one record.
//! let suite = RpcSuiteKind::DnsUdp;
//! world.charge(Term::RemoteRequest { suite, bytes: 0 });
//! world.charge(Term::BindService);
//! world.charge(Term::FastMarshal { rrs: 1 });
//! assert!((world.now().as_ms_f64() - 27.0).abs() < 1.0);
//! ```
#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod clock;
pub mod costs;
pub mod faults;
pub mod index;
pub mod rng;
pub mod time;
pub mod topology;
pub mod ttl;
pub mod world;

pub use obs;

pub use clock::{Ledger, Row, VirtualClock};
pub use costs::{CacheForm, Charge, CostModel, Kind, RpcSuiteKind, Term};
pub use faults::{FaultKind, FaultPlan};
pub use time::{SimDuration, SimTime};
pub use topology::{HostId, NetAddr, Topology};
pub use world::{CounterSnapshot, World, WorldSpan};
