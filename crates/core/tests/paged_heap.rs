//! What the lazy Q-table costs in heap and in struct size, counted: the
//! gate behind "a first write costs a row, not a page".
//!
//! An integration test is its own binary, so this one installs a counting
//! allocator (the pattern of `benchmark/src/alloc.rs`: live bytes in a
//! relaxed atomic around `System`). Live heap repeats to the byte, so the
//! bounds below are exact where a timing of the same code carries 25 %.
//! Both heap peaks of the benchmark are such counts too, and struct sizes
//! show in them: 48 bytes more per table were +12,672 B on the *dense*
//! 1,056-node workload (the agent's storage enum is sized by its larger
//! variant) and +665,856 B in the scale workload's checkpoint cycle.

use qadaptive_core::agent::QAdaptiveAgent;
use qadaptive_core::paged::{InitFn, PagedQTable, PAGE_ROWS};
use qadaptive_core::table::QValueTable;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::Arc;

static LIVE: AtomicUsize = AtomicUsize::new(0);

struct CountingAlloc;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter publishes no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            LIVE.fetch_add(layout.size(), Relaxed);
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
            LIVE.fetch_add(new_size, Relaxed);
            LIVE.fetch_sub(layout.size(), Relaxed);
        }
        p
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

// One test function: the counter is the process's, and the harness runs
// test functions on parallel threads.
#[test]
fn a_first_write_costs_a_row_and_an_untouched_table_nothing() {
    // Measured at the commit before the unit became the row; nothing here
    // may grow past it.
    assert!(std::mem::size_of::<PagedQTable>() <= 104);
    assert!(std::mem::size_of::<QAdaptiveAgent>() <= 264);

    // The shape of one router's table on the 110,976-node system. The
    // init function is the caller's, so it exists before the count starts.
    let init: InitFn = Arc::new(|row, out| out.fill(row as f64 + 500.0));
    let before = LIVE.load(Relaxed);
    let mut table = PagedQTable::new(4_624, 35, init);

    // Never written: nothing, then the one-row cache once a row has been
    // read. The page-granular table held a 584-byte page table from
    // construction on.
    assert_eq!(LIVE.load(Relaxed) - before, 0);
    for row in [0, 70, 4_623] {
        assert_eq!(table.best_in_row(row), (0, row as f64 + 500.0));
    }
    let cache = LIVE.load(Relaxed) - before;
    assert!(cache <= 584, "{cache}");
    assert_eq!(table.memory_bytes(), 0);

    // One first write per index page, the costliest pattern there is: 73
    // of them. The page-granular table grew by 18,037 B per write here.
    let pages = table.rows().div_ceil(PAGE_ROWS);
    assert_eq!(pages, 73);
    let untouched = LIVE.load(Relaxed);
    for page in 0..pages {
        table.set(page * PAGE_ROWS, 0, 1.0);
    }
    let grown = LIVE.load(Relaxed) - untouched;
    assert!(
        grown <= pages * 1_024,
        "{grown} B for {pages} first writes, {} each",
        grown / pages
    );
    // What the table reports is what the allocator saw.
    assert_eq!(table.memory_bytes(), grown);
    assert_eq!(table.occupied_rows().len(), pages);

    // Writing the page-mates of written rows allocates slots, not pages.
    let sparse = LIVE.load(Relaxed);
    for page in 0..pages {
        table.set(page * PAGE_ROWS + 1, 0, 1.0);
    }
    assert!(LIVE.load(Relaxed) - sparse <= pages * (35 * 8 + 4) * 2);
}
