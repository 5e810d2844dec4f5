//! A counting global allocator for the fuzzer's allocation budget.
//!
//! The length-prefix bomb defence (reject a length claim the remaining
//! bytes cannot satisfy *before* allocating) is only testable if tests
//! can observe allocation. [`CountingAlloc`] wraps the system allocator
//! and charges every allocation to a thread-local counter, so parallel
//! test threads measure independently. Binaries that want measurement
//! declare it as their `#[global_allocator]`; when none is installed,
//! [`measure`] still runs the closure and reports `None` for the byte
//! count, so library consumers need no special setup.
//!
//! Beside what is requested, the allocator keeps what is *live* on each
//! thread — allocations less frees, a `realloc` charged its difference —
//! which [`measure_live`] reads: the bytes a structure built in the
//! closure still holds when it returns.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};

/// Set by the first [`CountingAlloc`] call; lets [`measure`] distinguish
/// "zero bytes allocated" from "no counting allocator installed".
static INSTALLED: AtomicBool = AtomicBool::new(false);

thread_local! {
    /// `(bytes requested, allocator calls)` on this thread so far.
    static ALLOCATED: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
    /// Bytes allocated on this thread less those freed on it.
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

/// Charges a request of `bytes` that leaves the live count `delta` bytes
/// higher.
fn charge(bytes: usize, delta: i64) {
    INSTALLED.store(true, Ordering::Relaxed);
    // try_with: the allocator can be re-entered during thread teardown
    // after the TLS slot is destroyed; dropping the charge there is fine.
    let _ = ALLOCATED.try_with(|c| {
        let (total, calls) = c.get();
        c.set((total + bytes as u64, calls + 1));
    });
    let _ = LIVE.try_with(|live| live.set(live.get() + delta));
}

/// A [`System`]-backed allocator that counts bytes requested, and bytes
/// live, per thread.
pub struct CountingAlloc;

// SAFETY: defers entirely to `System`; the bookkeeping does not touch
// the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        charge(layout.size(), layout.size() as i64);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        let _ = LIVE.try_with(|live| live.set(live.get() - layout.size() as i64));
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        charge(layout.size(), layout.size() as i64);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        charge(new_size, new_size as i64 - layout.size() as i64);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Runs `f` and reports the bytes allocated on this thread during the
/// call, or `None` when no [`CountingAlloc`] is installed as the global
/// allocator. The count is cumulative-requested (frees are not
/// subtracted): a decoder that allocates a huge buffer and drops it
/// still gets charged, which is exactly what the bomb defence bounds.
pub fn measure<R>(f: impl FnOnce() -> R) -> (R, Option<u64>) {
    let (result, used) = measure_calls(f);
    (result, used.map(|(bytes, _calls)| bytes))
}

/// [`measure`], also reporting how many allocator calls (`alloc`,
/// `alloc_zeroed`, `realloc`) the closure made: `(bytes, calls)`.
pub fn measure_calls<R>(f: impl FnOnce() -> R) -> (R, Option<(u64, u64)>) {
    let before = ALLOCATED.with(Cell::get);
    let result = f();
    let after = ALLOCATED.with(Cell::get);
    if INSTALLED.load(Ordering::Relaxed) {
        (result, Some((after.0 - before.0, after.1 - before.1)))
    } else {
        (result, None)
    }
}

/// Runs `f` and reports by how many bytes it left this thread's live
/// count higher — for a closure that builds and returns a structure,
/// what the structure holds — or `None` when no [`CountingAlloc`] is
/// installed. A block freed on another thread than the one that
/// allocated it skews both threads' counts.
pub fn measure_live<R>(f: impl FnOnce() -> R) -> (R, Option<i64>) {
    let before = LIVE.with(Cell::get);
    let result = f();
    let after = LIVE.with(Cell::get);
    (
        result,
        INSTALLED.load(Ordering::Relaxed).then_some(after - before),
    )
}
