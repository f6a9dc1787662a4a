//! Heap accounting and the pre-fault.
//!
//! The benchmark binary counts live heap bytes through a wrapper around the
//! system allocator (two relaxed atomics per call, always on, so the cost is
//! the same on both sides of any comparison). Peak live heap repeats to the
//! byte for a fixed seed, which resident-set size does not; RSS also cannot
//! be read in a process whose heap was pre-faulted.

use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// `System` with live/peak byte counters.
pub struct CountingAlloc;

fn grew(by: usize) {
    let live = LIVE.fetch_add(by, Relaxed) + by;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters publish no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Relaxed);
            }
        }
        p
    }
}

/// Live heap bytes now.
pub fn live() -> usize {
    LIVE.load(Relaxed)
}

/// Forget the peak seen so far: the next [`peak`] covers only what follows.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Relaxed), Relaxed);
}

/// Highest live heap since the last [`reset_peak`].
pub fn peak() -> usize {
    PEAK.load(Relaxed)
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn keep_heap_in_one_piece() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_TRIM_THRESHOLD: i32 = -1;
    const M_MMAP_MAX: i32 = -4;
    // SAFETY: `mallopt` only stores two tunables of glibc's allocator; it is
    // called from the single thread of the process before the pre-fault.
    unsafe {
        // No mmap-backed blocks: those would come back from the kernel
        // unfaulted on every large allocation.
        mallopt(M_MMAP_MAX, 0);
        // Never hand the top of the heap back.
        mallopt(M_TRIM_THRESHOLD, i32::MAX);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn keep_heap_in_one_piece() {}

/// Keeps the pre-faulted pages in the process for as long as it lives.
pub struct HeapPin(#[allow(dead_code)] Box<[u8; 64]>);

/// Touch `bytes` of heap once, so the timed regions that follow meet no
/// minor page faults (a fault costs 2-15 us here and the cost flips between
/// two regimes from run to run). The memory is allocated in 64 KiB chunks,
/// every page is written, a small block is allocated on top and the chunks
/// are freed: glibc keeps the pages because the top of the heap is pinned.
pub fn prefault(bytes: usize) -> HeapPin {
    const CHUNK: usize = 64 * 1024;
    const PAGE: usize = 4096;
    keep_heap_in_one_piece();
    let mut chunks: Vec<Vec<u8>> = Vec::with_capacity(bytes / CHUNK + 1);
    for _ in 0..bytes.div_ceil(CHUNK) {
        let mut chunk = vec![0u8; CHUNK];
        for page in chunk.chunks_mut(PAGE) {
            page[0] = 1;
        }
        chunks.push(black_box(chunk));
    }
    let pin = HeapPin(Box::new([0u8; 64]));
    drop(chunks);
    reset_peak();
    pin
}
