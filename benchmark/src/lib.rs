//! The repo's wall-clock benchmark: five workloads over the HNS tower,
//! measured from outside through public functions only, with a
//! per-layer ledger from timing shims and isolated probes. See
//! `README.md` for what each workload and metric is for.

pub mod cellworld;
pub mod cli;
pub mod counts;
pub mod cputime;
pub mod hist;
pub mod oracle;
pub mod probes;
pub mod report;
pub mod rng;
pub mod runner;
pub mod shim;
pub mod spans;
pub mod testbed;
pub mod workload;
pub mod yardstick;
