//! `regd` — the registration frontend.
//!
//! The paper's evolution story in executable form: names are created,
//! re-bound, and handed between administrative domains, while the read
//! path keeps resolving them in one hop. The service owns the write
//! path end to end — `register` / `update` / `transfer` / `release` —
//! with per-name ownership records and **transfer chains**: each
//! transfer appends a link signed by the departing owner; resolution
//! walks the chain once and caches the collapsed head, so arbitrarily
//! long chains resolve in a single Clearinghouse read on every
//! subsequent lookup, with chain-aware invalidation when the chain
//! grows under a different frontend.
//!
//! * [`chain`] — signed links, the naive walk, and the cycle rule.
//! * [`registry`] — storage over the Clearinghouse (writes primary,
//!   reads may fail over) and the collapse cache.
//! * [`server`] / [`client`] — the exported Courier-style service and
//!   its typed client; transport errors stay typed across the wire.
//! * [`message`] — the service's request structs and its reply.
//! * [`harness`] — the replicated write-path testbed the experiments
//!   build on.
//! * [`error`] — [`RegError`], including typed fail-fast
//!   unreachability when the primary is partitioned away.
#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod chain;
pub mod client;
pub mod error;
pub mod harness;
pub mod message;
pub mod registry;
pub mod server;

pub use chain::{sign_link, TransferLink};
pub use client::RegClient;
pub use error::{RegError, RegResult};
pub use harness::{owner_key, owner_name, RegTestbed};
pub use message::{Register, Release, Resolve, Transfer, Update};
pub use registry::{Registry, Resolution, PROP_REG_LINK, PROP_REG_RECORD};
pub use server::{deploy, RegServer, REG_PROGRAM};
