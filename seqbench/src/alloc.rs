//! Heap accounting: a global allocator that counts live bytes and their
//! high-water mark.
//!
//! The resident-set peak cannot see the program's memory here: the input
//! pools are synthesized first, and the allocator reuses their freed
//! transients, so `VmHWM` barely moves (64 KiB on `device-511`). Counting
//! heap bytes is exact instead. Each thread batches its changes and
//! publishes them once they reach [`FLUSH`] bytes, so the hot paths touch
//! no shared cache line per allocation; the peak is exact to within
//! `FLUSH` bytes per thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicIsize, Ordering};

/// Bytes a thread accumulates before publishing them.
const FLUSH: isize = 16 << 10;

static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);

thread_local! {
    static PENDING: Cell<isize> = const { Cell::new(0) };
}

fn note(delta: isize) {
    let publish = PENDING.try_with(|p| {
        let v = p.get() + delta;
        if v.abs() >= FLUSH {
            p.set(0);
            v
        } else {
            p.set(v);
            0
        }
    });
    // A thread being torn down has lost its batch: publish directly.
    let d = publish.unwrap_or(delta);
    if d != 0 {
        // Relaxed: the counters publish no other data.
        let now = LIVE.fetch_add(d, Ordering::Relaxed) + d;
        PEAK.fetch_max(now, Ordering::Relaxed);
    }
}

/// The system allocator, counted.
pub struct Counting;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged and only adds bookkeeping on plain atomics and a `const`
// thread-local `Cell`, which never allocate; `System` upholds the
// `GlobalAlloc` contract.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            note(layout.size() as isize);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded unchanged; the caller upholds the contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            note(layout.size() as isize);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator (i.e. `System`) with
        // `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) };
        note(-(layout.size() as isize));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwarded unchanged; the caller upholds `realloc`'s
        // contract for `ptr`, `layout` and `new_size`.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            note(new_size as isize - layout.size() as isize);
        }
        p
    }
}

/// Restarts the high-water mark at the current live count and returns
/// that count.
pub fn mark() -> isize {
    let live = LIVE.load(Ordering::Relaxed);
    PEAK.store(live, Ordering::Relaxed);
    live
}

/// Highest live heap above `baseline` (from [`mark`]) since it was taken,
/// MiB. 0 when the counting allocator is not installed.
pub fn peak_mib_since(baseline: isize) -> f64 {
    (PEAK.load(Ordering::Relaxed) - baseline).max(0) as f64 / (1024.0 * 1024.0)
}
