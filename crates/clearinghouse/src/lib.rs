//! `clearinghouse` — a Clearinghouse-like name service.
//!
//! The reproduction's stand-in for the Xerox Clearinghouse (Oppen & Dalal
//! 1983), the second underlying name service the paper's prototype
//! federates:
//!
//! * [`name`] — three-part names `object:domain:organization`.
//! * [`property`] — property lists (item and group properties).
//! * [`db`] — per-domain databases.
//! * [`auth`] / [`server`] — the authenticated, disk-bound server whose
//!   per-lookup cost reproduces the paper's 156 ms primitive.
//! * [`client`] — a typed client over the Courier suite.
//! * [`replication`] — lazy primary/replica propagation.
#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod auth;
pub mod client;
pub mod db;
pub mod error;
pub mod name;
pub mod property;
pub mod replication;
pub mod server;

pub use auth::{Authenticator, Credentials};
pub use client::ChClient;
pub use db::ChDb;
pub use error::{ChError, ChResult};
pub use name::ThreePartName;
pub use property::{Entry, Property, PropertyId};
pub use server::{deploy, ChDeployment, ChServer, Lookup, CH_PROGRAM};
