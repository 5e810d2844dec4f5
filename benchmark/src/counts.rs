//! Readings of the stack's existing public counters, taken at the same
//! boundaries as the spans so ratios are measured where the work
//! happens.

use std::ops::{Index, IndexMut};

/// One counter the per-layer ledger reads. Not every stack has every
/// counter; the ones it lacks stay zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum C {
    RemoteCalls,
    LocalCalls,
    BytesSent,
    HnsHits,
    HnsMisses,
    HnsExpired,
    HnsInserts,
    BindingHits,
    BindingMisses,
    BindingExpired,
    BindingInserts,
    NsmCacheHits,
    NsmCacheMisses,
    FindNsmCalls,
    FindNsmErrors,
    FindNsmRoundTrips,
    NsmQueries,
    RegResolves,
    RegCollapseHits,
    RegChainWalks,
    RegWriteUnreachable,
    ResolverHits,
    ResolverMisses,
    ResolverExpirations,
    /// Bytes shipped by incremental preloads (from their reports).
    PreloadBytes,
    /// Client queries the oracle rejected (errors included).
    QueryErrors,
    /// `regd` writes the oracle rejected (errors included).
    RegWriteErrors,
}

const N: usize = C::RegWriteErrors as usize + 1;

/// Cumulative readings at one instant; [`Counts::since`] gives a window.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Counts {
    v: [u64; N],
    /// Virtual (simulated 1987-testbed) milliseconds elapsed.
    pub virt_ms: f64,
}

impl Index<C> for Counts {
    type Output = u64;
    fn index(&self, c: C) -> &u64 {
        &self.v[c as usize]
    }
}

impl IndexMut<C> for Counts {
    fn index_mut(&mut self, c: C) -> &mut u64 {
        &mut self.v[c as usize]
    }
}

impl Counts {
    /// All-zero counters at virtual time `virt_ms`.
    pub fn at(virt_ms: f64) -> Counts {
        Counts {
            virt_ms,
            ..Counts::default()
        }
    }

    pub fn since(&self, earlier: &Counts) -> Counts {
        let mut out = *self;
        for (a, b) in out.v.iter_mut().zip(&earlier.v) {
            *a -= b;
        }
        out.virt_ms -= earlier.virt_ms;
        out
    }

    /// `hits` as a share of `hits` plus every kind of non-hit, or 0
    /// when nothing was probed.
    pub fn hit_ratio(&self, hits: C, others: &[C]) -> f64 {
        let total = self[hits] + others.iter().map(|&c| self[c]).sum::<u64>();
        if total == 0 {
            0.0
        } else {
            self[hits] as f64 / total as f64
        }
    }
}
