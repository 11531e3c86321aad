//! A counting global allocator, switched on only for traced segments.
//!
//! Always installed (the binary has one allocator), but while disabled
//! it adds a single relaxed load to each call, on traced and untraced
//! runs alike.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};

/// The system allocator plus two counters.
pub struct Counting;

static ENABLED: AtomicBool = AtomicBool::new(false);
static COUNT: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
/// Bytes allocated minus bytes freed while counting was on.
static LIVE: AtomicI64 = AtomicI64::new(0);

// ordering: Relaxed throughout — the counters are statistics that
// publish no other data, and readers only read them at quiescent
// points (after the barrier that ends a day segment).
#[inline]
fn note(size: usize) {
    if ENABLED.load(Ordering::Relaxed) {
        COUNT.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(size as u64, Ordering::Relaxed);
        LIVE.fetch_add(size as i64, Ordering::Relaxed);
    }
}

#[inline]
fn note_free(size: usize) {
    if ENABLED.load(Ordering::Relaxed) {
        LIVE.fetch_sub(size as i64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters touch no
// allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_free(layout.size());
        note(new_size);
        // SAFETY: `ptr`/`layout` come from this allocator, i.e. from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note_free(layout.size());
        // SAFETY: `ptr`/`layout` come from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Turns counting on or off.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// `(allocations, bytes requested)` counted so far.
pub fn totals() -> (u64, u64) {
    (COUNT.load(Ordering::Relaxed), BYTES.load(Ordering::Relaxed))
}

/// What [`counted`] saw while its closure ran (on any thread).
#[derive(Debug, Clone, Copy)]
pub struct Counted {
    /// Allocator calls that obtained memory.
    pub allocations: u64,
    /// Bytes requested minus bytes freed: what the closure left
    /// allocated (negative if it freed older memory).
    pub live: i64,
}

/// Counts the allocations made while `f` runs.
pub fn counted<T>(f: impl FnOnce() -> T) -> (T, Counted) {
    let was = ENABLED.swap(true, Ordering::Relaxed);
    let (c0, l0) = (totals().0, LIVE.load(Ordering::Relaxed));
    let out = f();
    let (c1, l1) = (totals().0, LIVE.load(Ordering::Relaxed));
    ENABLED.store(was, Ordering::Relaxed);
    (
        out,
        Counted {
            allocations: c1 - c0,
            live: l1 - l0,
        },
    )
}
