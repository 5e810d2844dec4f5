//! `hns-bench` — the experiment harness.
//!
//! Regenerates every table and figure of the paper's evaluation in
//! calibrated virtual time ([`experiments`]) and checks every JSON export
//! they write against one schema table ([`export`]). Wall-clock time is
//! measured by `benchmark/` and nowhere else. Run everything with:
//!
//! ```text
//! cargo run -p hns-bench --bin experiments -- all
//! ```
#![warn(missing_docs)]

pub mod cells;
pub mod experiments;
pub mod export;
pub mod mix;
pub mod mutants;
pub mod scenario;

pub use cells::{Cell, PaperTable, PlainTable};
pub use hns_core::obs;
pub use scenario::{deploy, Arrangement, CacheState, DeployedArrangement};
