//! `bindns` — a BIND-like domain name service.
//!
//! This is the reproduction's stand-in for Berkeley BIND (Terry et al.
//! 1984): an in-memory, unauthenticated, fast name server over a domain
//! tree of resource records. It provides everything the paper's HNS needs
//! from BIND:
//!
//! * [`zone`] / [`db`] — authoritative zones with serial numbers.
//! * [`server`] — the server as an RPC service, in two configurations:
//!   conventional, and the *modified* BIND supporting dynamic updates and
//!   `UNSPEC` data that serves as the HNS meta-naming repository.
//! * [`resolver`] — both client paths: the standard resolver (native
//!   datagrams + hand-written marshalling, the 27 ms primitive) and the
//!   HRPC interface (Raw HRPC + generated marshalling, the expensive path
//!   of Table 3.2).
//! * [`cache`] — the TTL cache.
//! * [`axfr`] — zone transfer and secondary servers (also the HNS cache
//!   preload mechanism).
//! * [`update`] — dynamic update operations.
#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod axfr;
pub mod cache;
pub mod db;
pub mod error;
pub mod message;
pub mod name;
pub mod recursive;
pub mod rr;
pub mod server;
pub mod update;
pub mod zone;

pub mod resolver;

pub use cache::{CacheStats, TtlCache};
pub use db::ZoneDb;
pub use error::{NsError, NsResult, Rcode};
pub use name::DomainName;
pub use recursive::RecursiveResolver;
pub use resolver::{HrpcResolver, StdResolver};
pub use rr::{RData, RType, Records, ResourceRecord, RrBody};
pub use server::{deploy, single_zone_server, BindDeployment, BindServer, DNS_PORT};
pub use update::UpdateOp;
pub use zone::Zone;
