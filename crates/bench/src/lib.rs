//! `hns-bench` — the experiment harness.
//!
//! Regenerates every table and figure of the paper's evaluation in
//! calibrated virtual time ([`experiments`]), drives the real-time load
//! engine ([`loadgen`]), and checks every JSON export either writes
//! against one schema table ([`export`]). Run everything with:
//!
//! ```text
//! cargo run -p hns-bench --bin experiments -- all
//! ```
#![warn(missing_docs)]

pub mod cells;
pub mod experiments;
pub mod export;
pub mod loadgen;
pub mod scenario;

pub use cells::{Cell, PaperTable, PlainTable};
pub use hns_core::obs;
pub use scenario::{deploy, Arrangement, CacheState, DeployedArrangement};
