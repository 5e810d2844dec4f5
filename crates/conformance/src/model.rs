//! Naive executable specifications the stateful parts of the stack are
//! checked against: ordered maps and plain loops, no caches, no indexes,
//! nothing shared. A model is written for obviousness, not speed; where
//! it and the real structure disagree on an answer, the real one is
//! wrong or the model's rule is, and either way the rule gets written
//! down.
//!
//! * [`zone`] — a `bindns` zone: records by owner, serial, delta log.
//! * [`ch`] — a Clearinghouse database: entries, item and group
//!   properties, aliases.
//! * [`reg`] — `regd`: holders per name, the cycle rule, release and
//!   re-registration, written through into a [`ch::ChModel`].

pub mod ch;
pub mod reg;
pub mod zone;
