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

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};

/// Set by the first [`CountingAlloc`] call; lets [`measure`] distinguish
/// "zero bytes allocated" from "no counting allocator installed".
static INSTALLED: AtomicBool = AtomicBool::new(false);

thread_local! {
    /// `(bytes requested, allocator calls)` on this thread so far.
    static ALLOCATED: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

fn charge(bytes: usize) {
    INSTALLED.store(true, Ordering::Relaxed);
    // try_with: the allocator can be re-entered during thread teardown
    // after the TLS slot is destroyed; dropping the charge there is fine.
    let _ = ALLOCATED.try_with(|c| {
        let (total, calls) = c.get();
        c.set((total + bytes as u64, calls + 1));
    });
}

/// A [`System`]-backed allocator that counts bytes requested per thread.
pub struct CountingAlloc;

// SAFETY: defers entirely to `System`; the bookkeeping does not touch
// the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        charge(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        charge(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        charge(new_size);
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
