//! `baselines` — the binding mechanisms the paper compares the HNS against.
//!
//! * [`interim`] — the pre-HNS mechanism: binding data reregistered in
//!   replicated local files (200 ms per bind, plus staleness).
//! * [`rereg_ch`] — all binding data reregistered into the Clearinghouse
//!   (166 ms per bind).
//! * [`reregistration`] — the reregistration process itself: per-name
//!   absorption cost, staleness windows, and the cross-system name
//!   conflicts that direct access avoids by construction.
#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod interim;
pub mod rereg_ch;
pub mod reregistration;

pub use interim::InterimBinder;
pub use rereg_ch::ReregisteredChBinder;
pub use reregistration::{Reregistrar, SourceService, SyncReport};
