//! Opt-in allocation accounting: a counting [`GlobalAlloc`] wrapper plus
//! the thread-local totals the span layer samples from.
//!
//! # Design
//!
//! [`CountingAlloc`] wraps [`System`] and, when tracking is on, bumps two
//! `const`-initialized thread-local [`Cell`]s on every `alloc` /
//! `alloc_zeroed` / `realloc`-growth. That is the *entire* hot path: the
//! allocator never calls back into the registry (which itself
//! allocates), never takes a lock, and the thread-locals have no `Drop`
//! impl, so there is no TLS-destructor reentrancy hazard during thread
//! teardown. The span layer does the attribution instead: a span samples
//! [`thread_totals`] when it opens and again when it closes, and charges
//! the delta (minus its children's deltas) to itself.
//!
//! # Installation
//!
//! The allocator is **not** installed by this crate — a library must not
//! claim `#[global_allocator]`. Binaries that want allocation profiles
//! (the `malgraph` CLI, `repro`, `e2ebench`, test binaries) install
//! it themselves:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: obs::alloc::CountingAlloc = obs::alloc::CountingAlloc::new();
//! ```
//!
//! Even when installed, counting is gated behind a runtime flag
//! ([`enable_tracking`]) that defaults to off, so the steady-state cost
//! in a binary that never profiles is one relaxed atomic load per
//! allocation. Binaries without the allocator still work fully — spans
//! simply report zero allocation deltas.
//!
//! # Determinism
//!
//! Allocation counts feed the folded profile and JSON snapshots but
//! never pipeline output, and byte/call totals for a fixed workload are
//! a property of the code path taken, not of timing — the same build
//! running the same work reports the same numbers.

#![allow(unsafe_code)] // GlobalAlloc is an unsafe trait; this module is the one carve-out.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};

/// Global gate: when false (the default) the allocator is a transparent
/// passthrough apart from one relaxed load.
static TRACKING: AtomicBool = AtomicBool::new(false);

thread_local! {
    // const-init Cells: no lazy-init branch, no Drop, safe to touch from
    // the allocator even while TLS is being torn down.
    static BYTES: Cell<u64> = const { Cell::new(0) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Turn allocation counting on. A no-op unless a binary installed
/// [`CountingAlloc`] as its `#[global_allocator]`.
pub fn enable_tracking() {
    TRACKING.store(true, Ordering::Relaxed);
}

/// Turn allocation counting off again.
pub fn disable_tracking() {
    TRACKING.store(false, Ordering::Relaxed);
}

/// Whether allocation counting is currently on.
pub fn tracking_enabled() -> bool {
    TRACKING.load(Ordering::Relaxed)
}

/// Monotonic `(bytes, allocation_calls)` recorded on *this* thread since
/// it started. Spans sample this at open and close and attribute the
/// difference; the counters only ever grow, so deltas are well-defined.
pub fn thread_totals() -> (u64, u64) {
    (BYTES.with(Cell::get), ALLOCS.with(Cell::get))
}

#[inline]
fn charge(bytes: usize) {
    // `try_with` rather than `with`: during thread teardown TLS may be
    // unavailable; losing a few exit-path allocations is fine, aborting
    // inside the allocator is not.
    let _ = BYTES.try_with(|b| b.set(b.get() + bytes as u64));
    let _ = ALLOCS.try_with(|a| a.set(a.get() + 1));
}

/// A [`System`]-backed global allocator that counts per-thread allocation
/// bytes and calls when [`enable_tracking`] has been called.
///
/// Deallocations are not tracked: the profile answers "which span
/// *allocates*", the churn question, not live-set size — and a span that
/// frees another span's memory should not go negative.
pub struct CountingAlloc(());

impl CountingAlloc {
    /// `const` constructor for `static` installation sites.
    pub const fn new() -> Self {
        CountingAlloc(())
    }
}

impl Default for CountingAlloc {
    fn default() -> Self {
        Self::new()
    }
}

// SAFETY: every method delegates directly to `System`, which upholds the
// GlobalAlloc contract; the counting side-effect touches only Cells on
// the current thread and never observes or alters the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if TRACKING.load(Ordering::Relaxed) {
            charge(layout.size());
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if TRACKING.load(Ordering::Relaxed) {
            charge(layout.size());
        }
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if TRACKING.load(Ordering::Relaxed) && new_size > layout.size() {
            // Only the growth is new memory pressure; shrinking reallocs
            // are free from the churn perspective.
            charge(new_size - layout.size());
        }
        System.realloc(ptr, layout, new_size)
    }
}
