//! `nsms` — concrete Naming Semantics Managers and the HCS testbed.
//!
//! "Each NSM understands the semantics of naming for a particular query
//! class and a particular name service", and each is the same three
//! steps: translate the HNS name to the local name, interrogate the local
//! name service, hand back the query class's standard format. Steps one
//! and two are written once per name service, in an [`adapter::Adapter`];
//! step three is each NSM's `handle`, one adapter call plus the shaping of
//! its reply. The paper's binding NSM ([`binding`], with the NSM-side
//! result cache of [`nsm_cache`]) and the host-address NSM linked with
//! every HNS ([`hostaddr`]) are one body over either adapter; the
//! extension query classes of §5 ([`mail`], [`file_loc`], [`user_info`])
//! are one small NSM per (query class, name service). [`import`] is the
//! `Import` operation, and [`harness::Testbed`] the full simulated HCS
//! environment used by examples, integration tests, and the experiment
//! harness; it registers every NSM through [`hns_core::Hns::deploy_nsm`].
#![warn(missing_docs)]

pub mod adapter;
pub mod binding;
pub mod file_loc;
pub mod harness;
pub mod hostaddr;
pub mod import;
pub mod mail;
pub mod nsm_cache;
pub mod user_info;

pub use binding::{BindingBindNsm, BindingChNsm};
pub use harness::{DeployedBindingNsms, Hosts, Testbed};
pub use hostaddr::{HostAddrBindNsm, HostAddrChNsm};
pub use import::Importer;
pub use nsm_cache::{NsmCache, NsmCacheForm};
