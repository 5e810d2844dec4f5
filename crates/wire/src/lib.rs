//! `wire` — data representations for heterogeneous RPC.
//!
//! The paper's HRPC facility treats the *data representation* as one of five
//! independently selectable components. This crate provides:
//!
//! * [`value::Value`] — the self-describing data model NSM interfaces
//!   exchange.
//! * [`xdr`] — Sun-style external data representation (32-bit units).
//! * [`courier`] — Xerox Courier representation (16-bit words). Both are
//!   one self-describing codec instantiated at two unit widths.
//! * [`format::WireFormat`] — bind-time dispatch between them.
//! * [`message::Message`] — the fabric's unit of exchange: a `Value`, or
//!   a typed struct that states its encoded length and yields its tree
//!   from one description of its shape. A plain record's description is
//!   its field list, given once to [`record!`]: the shape and the tree
//!   decoder are both read off it, each field a [`message::Field`].
//! * [`idl::TypeDesc`] — interface descriptions.
//! * [`generated`] — the stub-compiler-style marshaller: correct but
//!   layered, reproducing the expensive code path of Table 3.2.
//! * [`fast`] — the hand-written "standard BIND library" path.
//!
//! # Examples
//!
//! ```
//! use wire::{Value, WireFormat};
//!
//! let binding = Value::record([
//!     ("host", Value::str("fiji.cs.washington.edu")),
//!     ("port", Value::U32(2049)),
//! ]);
//! let bytes = WireFormat::Xdr.encode(&binding)?;
//! assert_eq!(WireFormat::Xdr.decode(&bytes)?, binding);
//! # Ok::<(), wire::WireError>(())
//! ```
#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

mod codec;
pub mod courier;
pub mod error;
pub mod fast;
pub mod format;
pub mod generated;
pub mod idl;
pub mod message;
pub mod value;
pub mod xdr;

pub use codec::MAX_DEPTH;
pub use error::{WireError, WireResult};
pub use format::WireFormat;
pub use idl::TypeDesc;
pub use message::Message;
pub use value::Value;
