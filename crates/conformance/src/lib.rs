//! `conformance` — the hermetic conformance and adversarial-input harness.
//!
//! The paper's federation argument rests on every participant
//! interpreting the same messages identically; this crate is the safety
//! net that keeps the reproduction honest while its marshalling and
//! dispatch layers keep being refactored for performance. Three pillars:
//!
//! * [`corpus`] — a committed golden wire corpus under `corpus/`:
//!   canonical byte encodings of every message kind in every wire
//!   format, pinned as reviewable hex dumps. Any encoder change that
//!   moves bytes fails the golden tests loudly; intentional changes are
//!   regenerated with `experiments fuzz --regen-corpus` and reviewed as
//!   an ordinary diff.
//! * [`fuzz`] — a deterministic seeded mutation fuzzer: corpus-valid
//!   messages are truncated, bit-flipped, length-inflated, and spliced
//!   under a [`simnet::rng::DetRng`] stream, asserting decoders never
//!   panic, never allocate more than a budget proportional to the input
//!   length (see [`alloc`]), and satisfy decode→encode→decode
//!   idempotence whenever decoding succeeds.
//! * [`differential`] — seeded whole-world runs pinning the sequential,
//!   MQUERY-batched, and composed-BindingCache `FindNSM` paths — and
//!   the serve-stale, NSM-failover, and ChClient-failover fault paths —
//!   to byte-identical bindings.
//! * [`model`] — naive executable specifications of the stateful parts
//!   (a zone today), which seeded operation sequences hold the real
//!   structures to.
//!
//! `TESTING.md` at the repository root describes the harness design and
//! the regeneration workflow.

#![warn(missing_docs)]

pub mod alloc;
pub mod corpus;
pub mod differential;
pub mod fuzz;
pub mod hexdump;
pub mod model;
