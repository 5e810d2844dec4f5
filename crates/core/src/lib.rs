//! `hns-core` — the HCS Name Service (HNS).
//!
//! The paper's primary contribution: a *federated* name service that
//! integrates existing heterogeneous name services by **direct access** —
//! using them in place rather than reregistering their data — with the
//! understanding of per-service naming semantics encapsulated in **Naming
//! Semantics Managers** (NSMs) and the HNS itself reduced to managing
//! meta-naming information.
//!
//! * [`name`] — HNS names (`context` + individual name) and the invertible
//!   local↔individual name mappings that guarantee conflict freedom.
//! * [`query`] — open-ended query classes.
//! * [`nsm`] — the NSM trait, its identical per-query-class client
//!   interface, and NSM registration metadata.
//! * [`meta`] — the meta store over the modified BIND, including the
//!   batched `MQUERY` fetch path.
//! * [`chaser`] — the server-side mapping chaser that piggybacks
//!   speculative meta record sets on batched replies.
//! * [`service`] — the HNS library routines and `FindNSM` (three mappings,
//!   six cached remote lookups cold, recursion broken by linked
//!   host-address NSMs; at most two remote round trips with batching
//!   enabled), plus zone-transfer cache preload.
//! * [`cache`] — the marshalled/demarshalled TTL cache of Table 3.2, with
//!   negative caching.
//! * [`binding_cache`] — an opt-in composed-result cache: a warm
//!   `FindNSM` collapses to one probe returning the final binding,
//!   fresh for the minimum TTL of the constituent mapping entries.
//! * [`colocation`] — linked / remote / agent arrangements of Table 3.1.
//! * [`analysis`] — equation (1) and the preload break-even model.
#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod analysis;
pub mod binding_cache;
pub mod cache;
pub mod chaser;
pub mod colocation;
pub mod error;
pub mod meta;
pub mod name;
pub mod nsm;
pub mod query;
pub mod service;

pub use intern;
pub use simnet::obs;

pub use binding_cache::{BindingCache, BindingCacheStats};
pub use cache::{CacheLookup, CacheMode, Cacheable, HnsCache, HnsCacheStats, MetaKey};
pub use chaser::MetaChaser;
pub use colocation::{AgentClient, AgentService, HnsClient, HnsHandle, HnsService};
pub use error::{HnsError, HnsResult};
pub use meta::{ContextInfo, Fetched, Kind, MetaBatch, MetaRecord, MetaStore, META_TTL};
pub use name::{Context, HnsName, NameMapping};
pub use nsm::{
    HostAddress, Nsm, NsmBinding, NsmClient, NsmInfo, NsmRequest, NsmService, QueryArgs, SuiteTag,
    NSM_PROC_QUERY,
};
pub use query::QueryClass;
pub use service::{FindNsmReport, Hns, PreloadMode, PreloadReport};
