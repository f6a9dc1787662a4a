//! A sparse, lazily materialised Q-value table for large systems.
//!
//! A dense Q-table costs `rows × columns × 8` bytes per router, and the
//! row count grows with system size (`g·p` for the two-level table, the
//! router count for the Q-routing baseline), so a 100k-node system pays
//! gigabytes for table entries most routers never touch: under realistic
//! traffic each router only ever *updates* the rows of destinations it
//! actually forwards packets towards.
//!
//! [`PagedQTable`] exploits that sparsity. Rows live in fixed pages of
//! [`PAGE_ROWS`] rows; a page is only allocated on the first **write**
//! into one of its rows, at which point it is filled from the table's
//! deterministic init function (the same congestion-free estimates the
//! dense tables are seeded with — see [`crate::init`]). Reads of
//! untouched rows evaluate the init function directly, so a paged table
//! is **observationally identical** to the dense table it replaces —
//! same values, same argmin tie-breaks, same learning trajectory — while
//! its memory footprint is proportional to the rows actually written.
//!
//! The per-row argmin cache of [`crate::table`] is kept inside each
//! materialised page. For untouched rows, `best_in_row` scans the init
//! function over the columns (columns are a router radix, a few dozen at
//! most); after the first write the row answers from its page cache in
//! O(1), which is where the routing hot path lives.
//!
//! The table is deliberately **not** serializable: its checkpoint form is
//! the sparse row list of [`PagedQTable::occupied_rows`] plus
//! [`crate::table::QValueTable::sparse_values`], carried in
//! `AgentCheckpoint::q_rows` — everything else is rebuilt from
//! `(topology, config, router)` by the algorithm factory.

use crate::qtable::{maintain_argmin, scan_row_argmin};
use crate::table::QValueTable;
use std::cell::RefCell;
use std::fmt;
use std::sync::Arc;

/// Rows per lazily allocated page. Small enough that a router learning
/// about a handful of destinations stays small, large enough that the
/// page table itself is negligible.
pub const PAGE_ROWS: usize = 64;

/// The deterministic initial value of a cell, `(row, column) -> value`.
pub type InitFn = Arc<dyn Fn(usize, usize) -> f64 + Send + Sync>;

/// One materialised page: a row-major value slab plus the per-row argmin
/// cache, both sized `rows_in_page` (the last page may be partial).
#[derive(Clone)]
struct Page {
    values: Vec<f64>,
    argmin: Vec<u32>,
}

/// The init values of the most recently read **unmaterialised** row.
///
/// Routing reads an untouched row many times per decision (`best_in_row`,
/// then one `get` per column for near-tie detection), and every such read
/// would otherwise re-evaluate the init closure — whose topology estimates
/// allocate — once per cell, making a single decision O(columns²) closure
/// calls. Caching one row's init values makes the burst O(columns).
///
/// The cache needs no invalidation: it only ever holds *init* values,
/// which are deterministic constants of `(row, column)`, and once a row's
/// page materialises every read is answered from the page before the
/// cache is consulted.
#[derive(Clone)]
struct RowCache {
    /// Cached row index, or `usize::MAX` when empty.
    row: usize,
    /// Lowest-index argmin column of the cached row.
    argmin: u32,
    /// The row's `columns` init values.
    values: Vec<f64>,
}

/// A `rows × columns` Q-value table with lazily allocated pages.
#[derive(Clone)]
pub struct PagedQTable {
    rows: usize,
    columns: usize,
    init: InitFn,
    pages: Vec<Option<Box<Page>>>,
    cache: RefCell<RowCache>,
}

impl fmt::Debug for PagedQTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PagedQTable")
            .field("rows", &self.rows)
            .field("columns", &self.columns)
            .field("pages", &self.pages.len())
            .field(
                "materialized_pages",
                &self.pages.iter().filter(|p| p.is_some()).count(),
            )
            .finish()
    }
}

impl PagedQTable {
    /// Create an empty (fully unmaterialised) table whose cells read as
    /// `init(row, column)` until first written.
    pub fn new(rows: usize, columns: usize, init: InitFn) -> Self {
        let num_pages = rows.div_ceil(PAGE_ROWS);
        Self {
            rows,
            columns,
            init,
            pages: vec![None; num_pages],
            cache: RefCell::new(RowCache {
                row: usize::MAX,
                argmin: 0,
                values: Vec::new(),
            }),
        }
    }

    fn rows_in_page(&self, page: usize) -> usize {
        PAGE_ROWS.min(self.rows - page * PAGE_ROWS)
    }

    /// Evaluate `f` against the cached init values of (unmaterialised)
    /// `row`, filling the cache first on a miss — one init-closure pass
    /// over the columns instead of one call per subsequent read.
    fn with_init_row<T>(&self, row: usize, f: impl FnOnce(&RowCache) -> T) -> T {
        let mut cache = self.cache.borrow_mut();
        if cache.row != row {
            cache.values.clear();
            cache.values.reserve(self.columns);
            let mut best_col = 0u32;
            let mut best_val = f64::INFINITY;
            for c in 0..self.columns {
                let v = (self.init)(row, c);
                if v < best_val {
                    best_val = v;
                    best_col = c as u32;
                }
                cache.values.push(v);
            }
            cache.argmin = best_col;
            cache.row = row;
        }
        f(&cache)
    }

    /// Materialise a page from the init function (values and argmin cache,
    /// filled in a single pass).
    fn materialize(&mut self, page: usize) -> &mut Page {
        if self.pages[page].is_none() {
            let start = page * PAGE_ROWS;
            let n = self.rows_in_page(page);
            let mut values = Vec::with_capacity(n * self.columns);
            let mut argmin = Vec::with_capacity(n);
            for r in 0..n {
                let mut best_col = 0u32;
                let mut best_val = f64::INFINITY;
                for c in 0..self.columns {
                    let v = (self.init)(start + r, c);
                    if v < best_val {
                        best_val = v;
                        best_col = c as u32;
                    }
                    values.push(v);
                }
                argmin.push(best_col);
            }
            self.pages[page] = Some(Box::new(Page { values, argmin }));
        }
        self.pages[page].as_mut().unwrap()
    }

    /// Number of pages currently materialised.
    pub fn materialized_pages(&self) -> usize {
        self.pages.iter().filter(|p| p.is_some()).count()
    }

    /// Ascending row indices of every materialised page — the sparse
    /// checkpoint row set. Restoring these rows via
    /// [`QValueTable::load_sparse_values`] into a fresh table reproduces
    /// both the values and the materialisation pattern (and therefore the
    /// memory accounting) of the checkpointed table.
    pub fn occupied_rows(&self) -> Vec<u32> {
        let mut rows = Vec::new();
        for (p, page) in self.pages.iter().enumerate() {
            if page.is_some() {
                let start = p * PAGE_ROWS;
                rows.extend((start..start + self.rows_in_page(p)).map(|r| r as u32));
            }
        }
        rows
    }
}

impl QValueTable for PagedQTable {
    fn rows(&self) -> usize {
        self.rows
    }

    fn columns(&self) -> usize {
        self.columns
    }

    #[inline]
    fn get(&self, row: usize, column: usize) -> f64 {
        debug_assert!(row < self.rows && column < self.columns);
        match &self.pages[row / PAGE_ROWS] {
            Some(p) => p.values[(row % PAGE_ROWS) * self.columns + column],
            None => self.with_init_row(row, |cache| cache.values[column]),
        }
    }

    fn set(&mut self, row: usize, column: usize, value: f64) {
        debug_assert!(row < self.rows && column < self.columns);
        let columns = self.columns;
        let local = row % PAGE_ROWS;
        let page = self.materialize(row / PAGE_ROWS);
        let idx = local * columns + column;
        let old = page.values[idx];
        page.values[idx] = value;
        page.argmin[local] = maintain_argmin(
            &page.values,
            local,
            columns,
            column,
            old,
            value,
            page.argmin[local],
        );
    }

    fn best_in_row(&self, row: usize) -> (usize, f64) {
        if self.columns == 0 {
            return (0, f64::INFINITY);
        }
        match &self.pages[row / PAGE_ROWS] {
            Some(p) => {
                let local = row % PAGE_ROWS;
                let c = p.argmin[local] as usize;
                (c, p.values[local * self.columns + c])
            }
            None => {
                // Untouched row: answer from the cached init row (the
                // cache fill uses the same strict-less tie-break as the
                // dense scan, so the answer is bit-identical).
                self.with_init_row(row, |cache| {
                    (cache.argmin as usize, cache.values[cache.argmin as usize])
                })
            }
        }
    }

    /// Restore the sparse checkpoint form. Overrides the per-cell default
    /// with direct page construction: a run of listed rows that covers a
    /// whole unmaterialised page becomes that page's value slab verbatim,
    /// skipping the init-closure evaluation `set` would trigger for every
    /// page-mate — on a 110k-node restore that is the difference between
    /// copying the snapshot and re-deriving millions of path estimates.
    fn load_sparse_values(&mut self, rows: &[u32], values: &[f64]) {
        assert_eq!(
            values.len(),
            rows.len() * self.columns,
            "sparse Q-table checkpoint shape does not match this table"
        );
        if self.columns == 0 {
            return;
        }
        let mut i = 0;
        while i < rows.len() {
            let page = rows[i] as usize / PAGE_ROWS;
            let start = page * PAGE_ROWS;
            let n = self.rows_in_page(page);
            let whole_page = self.pages[page].is_none()
                && rows[i] as usize == start
                && i + n <= rows.len()
                && (1..n).all(|k| rows[i + k] as usize == start + k);
            if whole_page {
                let slab = &values[i * self.columns..(i + n) * self.columns];
                let mut page_values = Vec::with_capacity(n * self.columns);
                page_values.extend_from_slice(slab);
                let argmin = (0..n)
                    .map(|r| scan_row_argmin(&page_values, r, self.columns))
                    .collect();
                self.pages[page] = Some(Box::new(Page {
                    values: page_values,
                    argmin,
                }));
                i += n;
            } else {
                let r = rows[i] as usize;
                for c in 0..self.columns {
                    self.set(r, c, values[i * self.columns + c]);
                }
                i += 1;
            }
        }
    }

    /// Memory actually allocated: the page table plus every materialised
    /// page's value slab and argmin cache. Untouched rows cost nothing
    /// beyond their `Option` slot — this is the number reports roll up
    /// into `memory_bytes`.
    fn memory_bytes(&self) -> usize {
        let mut bytes = self.pages.capacity() * std::mem::size_of::<Option<Box<Page>>>();
        for page in self.pages.iter().flatten() {
            bytes += std::mem::size_of::<Page>();
            bytes += page.values.capacity() * std::mem::size_of::<f64>();
            bytes += page.argmin.capacity() * std::mem::size_of::<u32>();
        }
        bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qtable::QTable;

    fn init_fn() -> InitFn {
        Arc::new(|row, col| ((row * 31 + col * 17) % 23) as f64 + 1.0)
    }

    fn dense_twin(rows: usize, columns: usize) -> QTable {
        let f = init_fn();
        QTable::from_fn(rows, columns, |r, c| f(r.index(), c))
    }

    #[test]
    fn unwritten_table_reads_init_and_allocates_nothing() {
        let t = PagedQTable::new(200, 7, init_fn());
        let d = dense_twin(200, 7);
        assert_eq!(t.rows(), 200);
        assert_eq!(t.columns(), 7);
        assert_eq!(t.materialized_pages(), 0);
        assert!(t.occupied_rows().is_empty());
        for row in [0, 63, 64, 150, 199] {
            for c in 0..7 {
                assert_eq!(t.get(row, c), d.get(row, c));
            }
            assert_eq!(t.best_in_row(row), d.best_in_row(row));
        }
        // Page table only: far below the dense 200*7*8 bytes.
        assert!(t.memory_bytes() < d.memory_bytes() / 10);
    }

    #[test]
    fn writes_materialize_only_the_touched_page() {
        let mut t = PagedQTable::new(200, 7, init_fn());
        t.set(70, 3, 0.25);
        assert_eq!(t.materialized_pages(), 1);
        assert_eq!(t.get(70, 3), 0.25);
        // Page-mates got init values; other pages stay virtual.
        let d = dense_twin(200, 7);
        assert_eq!(t.get(71, 2), d.get(71, 2));
        assert_eq!(t.get(0, 0), d.get(0, 0));
        assert_eq!(t.occupied_rows(), (64..128).collect::<Vec<u32>>());
        // The last, partial page materialises its true row count.
        t.set(199, 0, 9.0);
        assert_eq!(t.materialized_pages(), 2);
        assert_eq!(t.occupied_rows().len(), 64 + 8);
    }

    #[test]
    fn paged_tracks_dense_bit_for_bit_under_updates() {
        let mut paged = PagedQTable::new(130, 5, init_fn());
        let mut dense = dense_twin(130, 5);
        let mut x = 5u64;
        for step in 0..3_000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let row = (x >> 33) as usize % 130;
            let col = (x >> 17) as usize % 5;
            let value = ((x >> 7) % 1000) as f64 / 8.0;
            paged.set(row, col, value);
            dense.set(row, col, value);
            assert_eq!(paged.get(row, col), dense.get(row, col));
            assert_eq!(
                paged.best_in_row(row),
                dense.best_in_row(row),
                "step {step}"
            );
            let probe = (x >> 40) as usize % 130;
            assert_eq!(
                paged.best_in_row(probe),
                dense.best_in_row(probe),
                "probe at step {step}"
            );
        }
        assert_eq!(paged.values(), dense.values());
    }

    #[test]
    fn sparse_checkpoint_round_trips_values_and_materialisation() {
        let mut t = PagedQTable::new(300, 4, init_fn());
        t.set(10, 1, 0.5);
        t.set(250, 3, 7.5);
        let rows = t.occupied_rows();
        let values = t.sparse_values(&rows);
        let mut back = PagedQTable::new(300, 4, init_fn());
        back.load_sparse_values(&rows, &values);
        assert_eq!(back.values(), t.values());
        assert_eq!(back.occupied_rows(), t.occupied_rows());
        assert_eq!(back.memory_bytes(), t.memory_bytes());
    }

    #[test]
    fn degenerate_shapes_are_safe() {
        let t = PagedQTable::new(0, 4, init_fn());
        assert!(t.is_empty());
        assert!(t.occupied_rows().is_empty());
        let z = PagedQTable::new(3, 0, init_fn());
        assert_eq!(z.best_in_row(1), (0, f64::INFINITY));
    }
}
