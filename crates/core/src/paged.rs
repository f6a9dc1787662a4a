//! A sparse, lazily materialised Q-value table for large systems.
//!
//! A dense Q-table costs `rows × columns × 8` bytes per router, and the
//! row count grows with system size (`g·p` for the two-level table, the
//! router count for the Q-routing baseline), so a 100k-node system pays
//! gigabytes for table entries most routers never touch: under realistic
//! traffic each router only ever *updates* the rows of destinations it
//! actually forwards packets towards.
//!
//! [`PagedQTable`] exploits that sparsity, and its unit is the **row**.
//! A row that was never written has no storage: reads evaluate the
//! table's deterministic init function (the same congestion-free
//! estimates the dense tables are seeded with — see [`crate::init`]), so
//! a paged table is **observationally identical** to the dense table it
//! replaces — same values, same argmin tie-breaks, same learning
//! trajectory. The first **write** to a row copies that row's `columns`
//! init values into a slot of one per-table slab (slots in first-write
//! order); no other row is evaluated, stored or snapshotted. Rows are
//! found through a page table of [`PAGE_ROWS`]-row index pages (slot + 1
//! per row, 0 = never written), so `get` and `best_in_row` stay O(1).
//!
//! # What a first write costs
//!
//! * **Evaluations: none** on the learning path. `RouterAgent::feedback`
//!   reads `get(row, col)` immediately before `set(row, col, …)`, so the
//!   one-row init cache already holds the row being written and the first
//!   write is a copy out of it (280 bytes at 35 columns) plus the cached
//!   argmin. A `set` with no preceding read fills the cache first: one
//!   row, `columns` cells.
//! * **Bytes:** `8·columns + 4` for the slot (values + argmin; the slab
//!   grows by doubling, so up to twice that amortised), 256 for the index
//!   page if the row is the first written of its 64, and once per table
//!   72 for the header plus 8 per index-page pointer. Everything that
//!   exists only after a first write sits behind one lazily allocated box:
//!   a never-written table owns no heap beyond its init function and the
//!   one-row cache.
//!
//! Index pages over one slab were chosen over a sorted `(row, slot)` list
//! (O(log n) reads and O(n) inserts once a long run has written most
//! rows) and over one box per row (an allocation per first write): on the
//! 110,976-node rung a first write went from 18,037 B and ~160 µs per
//! page to under 1 KB and ~2 µs, and the tables from 515 MB to ~26 MB.
//!
//! # Why a one-row cache, not eager templates
//!
//! Routing reads an untouched row many times per decision (`best_in_row`,
//! then one `get` per column for near-tie detection); the cache makes that
//! burst one init evaluation of the row instead of one per read. The
//! alternative — build the init rows once per router (the two-level init
//! depends only on the destination domain, so `g` template rows) — costs
//! 289 × 35 × 8 B = 81 KB per router × 6,936 routers = 561 MB on the
//! 110,976-node system before the first packet moves, more than the pages
//! this module used to allocate, plus 70 M estimate calls at set-up.
//!
//! The per-row argmin cache of [`crate::table`] is kept beside each
//! written row; an untouched row answers `best_in_row` from the init
//! cache with the same strict-less tie-break.
//!
//! # Checkpoint form
//!
//! The table is deliberately **not** serializable: its checkpoint form is
//! the sparse row list of [`PagedQTable::occupied_rows`] — exactly the
//! rows ever written — plus [`crate::table::QValueTable::sparse_values`],
//! carried in `AgentCheckpoint::q_rows`; everything else is rebuilt from
//! `(topology, config, router)` by the algorithm factory. Restoring copies
//! every listed row into a slot, never through the init function. Files
//! written when the unit was the page list whole pages (page-mates at
//! their init values); they load unchanged, and those page-mates simply
//! count as written from then on.

use crate::qtable::{maintain_argmin, scan_row_argmin};
use crate::table::QValueTable;
use std::cell::RefCell;
use std::fmt;
use std::sync::Arc;

/// Rows per index page: the granularity of the row → slot lookup, not of
/// storage. Small enough that a router learning about a handful of
/// destinations pays for a handful of 256-byte pages, large enough that
/// the page table itself is negligible.
pub const PAGE_ROWS: usize = 64;

/// The deterministic initial values of a row: `init(row, out)` fills
/// `out`, one cell per column. Evaluated per row so that whatever is
/// constant along a row is computed once, not once per cell.
pub type InitFn = Arc<dyn Fn(usize, &mut [f64]) + Send + Sync>;

/// Everything that exists only once a row has been written.
#[derive(Clone)]
struct Written {
    /// One entry per [`PAGE_ROWS`] rows, allocated on the first write into
    /// the page: slot + 1 of each of its rows, 0 = never written.
    index: Vec<Option<Box<[u32; PAGE_ROWS]>>>,
    /// The row slab: `columns` values per slot, slots in first-write order.
    values: Vec<f64>,
    /// Per-slot argmin cache (see [`crate::table`]).
    argmin: Vec<u32>,
}

impl Written {
    fn slot_of(&self, row: usize) -> Option<usize> {
        match self.index[row / PAGE_ROWS].as_deref()?[row % PAGE_ROWS] {
            0 => None,
            slot => Some(slot as usize - 1),
        }
    }

    /// Append never-written `row` as a new slot holding `values`.
    fn push_row(&mut self, row: usize, values: &[f64], argmin: u32) -> usize {
        let slot = self.argmin.len();
        self.values.extend_from_slice(values);
        self.argmin.push(argmin);
        let page = self.index[row / PAGE_ROWS].get_or_insert_with(|| Box::new([0; PAGE_ROWS]));
        page[row % PAGE_ROWS] = slot as u32 + 1;
        slot
    }
}

/// The init values of the most recently read **unwritten** row (see the
/// module docs for why it exists and why it is one row).
///
/// The cache needs no invalidation: it only ever holds *init* values,
/// which are deterministic constants of `(row, column)`, and once a row
/// is written every read is answered from its slot before the cache is
/// consulted.
#[derive(Clone)]
struct RowCache {
    /// Cached row index, or `usize::MAX` when empty.
    row: usize,
    /// Lowest-index argmin column of the cached row.
    argmin: u32,
    /// The row's `columns` init values.
    values: Vec<f64>,
}

/// A `rows × columns` Q-value table that stores only the rows ever
/// written.
#[derive(Clone)]
pub struct PagedQTable {
    rows: usize,
    columns: usize,
    init: InitFn,
    written: Option<Box<Written>>,
    cache: RefCell<RowCache>,
}

impl fmt::Debug for PagedQTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PagedQTable")
            .field("rows", &self.rows)
            .field("columns", &self.columns)
            .field("written_rows", &self.written_rows())
            .finish()
    }
}

impl PagedQTable {
    /// Create an empty table whose rows read as `init` until first
    /// written. Allocates nothing.
    pub fn new(rows: usize, columns: usize, init: InitFn) -> Self {
        Self {
            rows,
            columns,
            init,
            written: None,
            cache: RefCell::new(RowCache {
                row: usize::MAX,
                argmin: 0,
                values: Vec::new(),
            }),
        }
    }

    /// Evaluate `f` against the cached init values of (unwritten) `row`,
    /// filling the cache first on a miss — one init evaluation of the row
    /// instead of one per subsequent read.
    fn with_init_row<T>(&self, row: usize, f: impl FnOnce(&RowCache) -> T) -> T {
        let mut cache = self.cache.borrow_mut();
        if cache.row != row {
            cache.values.resize(self.columns, 0.0);
            (self.init)(row, &mut cache.values);
            // The dense scan's strict-less tie-break, so the answer is
            // bit-identical.
            cache.argmin = scan_row_argmin(&cache.values, 0, self.columns);
            cache.row = row;
        }
        f(&cache)
    }

    /// The slab and the slot of `row`, if it was ever written.
    fn written_row(&self, row: usize) -> Option<(&Written, usize)> {
        let written = self.written.as_deref()?;
        Some((written, written.slot_of(row)?))
    }

    /// The slab, allocated (with its page table) on first use.
    fn written_mut(written: &mut Option<Box<Written>>, rows: usize) -> &mut Written {
        written.get_or_insert_with(|| {
            Box::new(Written {
                index: vec![None; rows.div_ceil(PAGE_ROWS)],
                values: Vec::new(),
                argmin: Vec::new(),
            })
        })
    }

    /// Give never-written `row` a slot holding its init values: a copy out
    /// of the init cache, which a preceding read of the row already filled.
    fn first_write(&mut self, row: usize) -> usize {
        self.with_init_row(row, |_| ());
        let cache = self.cache.get_mut();
        Self::written_mut(&mut self.written, self.rows).push_row(row, &cache.values, cache.argmin)
    }

    /// Number of rows ever written (and therefore stored).
    pub fn written_rows(&self) -> usize {
        self.written.as_ref().map_or(0, |w| w.argmin.len())
    }

    /// Ascending indices of exactly the rows ever written — the sparse
    /// checkpoint row set. Restoring these rows via
    /// [`QValueTable::load_sparse_values`] into a fresh table reproduces
    /// the values, the row set and the memory accounting of the
    /// checkpointed table.
    pub fn occupied_rows(&self) -> Vec<u32> {
        let Some(w) = &self.written else {
            return Vec::new();
        };
        let mut rows = Vec::with_capacity(w.argmin.len());
        for (p, page) in w.index.iter().enumerate() {
            let Some(page) = page else { continue };
            let written = (0..PAGE_ROWS).filter(|&local| page[local] != 0);
            rows.extend(written.map(|local| (p * PAGE_ROWS + local) as u32));
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
        match self.written_row(row) {
            Some((w, slot)) => w.values[slot * self.columns + column],
            None => self.with_init_row(row, |cache| cache.values[column]),
        }
    }

    fn set(&mut self, row: usize, column: usize, value: f64) {
        debug_assert!(row < self.rows && column < self.columns);
        let columns = self.columns;
        let slot = match self.written_row(row) {
            Some((_, slot)) => slot,
            None => self.first_write(row),
        };
        let w = self
            .written
            .as_deref_mut()
            .expect("a row with a slot has a slab");
        let idx = slot * columns + column;
        let old = w.values[idx];
        w.values[idx] = value;
        w.argmin[slot] =
            maintain_argmin(&w.values, slot, columns, column, old, value, w.argmin[slot]);
    }

    fn best_in_row(&self, row: usize) -> (usize, f64) {
        if self.columns == 0 {
            return (0, f64::INFINITY);
        }
        match self.written_row(row) {
            Some((w, slot)) => {
                let c = w.argmin[slot] as usize;
                (c, w.values[slot * self.columns + c])
            }
            None => self.with_init_row(row, |cache| {
                (cache.argmin as usize, cache.values[cache.argmin as usize])
            }),
        }
    }

    /// Restore the sparse checkpoint form: every listed row becomes (or
    /// overwrites) a slot by copy. The init function is never evaluated —
    /// on a 110k-node restore that is the difference between copying the
    /// snapshot and re-deriving millions of path estimates.
    fn load_sparse_values(&mut self, rows: &[u32], values: &[f64]) {
        assert_eq!(
            values.len(),
            rows.len() * self.columns,
            "sparse Q-table checkpoint shape does not match this table"
        );
        if self.columns == 0 || rows.is_empty() {
            return;
        }
        let columns = self.columns;
        let w = Self::written_mut(&mut self.written, self.rows);
        for (&row, src) in rows.iter().zip(values.chunks_exact(columns)) {
            match w.slot_of(row as usize) {
                Some(slot) => {
                    w.values[slot * columns..(slot + 1) * columns].copy_from_slice(src);
                    w.argmin[slot] = scan_row_argmin(src, 0, columns);
                }
                None => {
                    w.push_row(row as usize, src, scan_row_argmin(src, 0, columns));
                }
            }
        }
    }

    /// Memory actually allocated for written rows: the header and page
    /// table, the index pages, and the slab with its argmin cache (at
    /// their capacities). A never-written table reports 0 — this is the
    /// number reports roll up into `memory_bytes`.
    fn memory_bytes(&self) -> usize {
        let Some(w) = &self.written else {
            return 0;
        };
        std::mem::size_of::<Written>()
            + w.index.capacity() * std::mem::size_of::<Option<Box<[u32; PAGE_ROWS]>>>()
            + w.index.iter().flatten().count() * std::mem::size_of::<[u32; PAGE_ROWS]>()
            + w.values.capacity() * std::mem::size_of::<f64>()
            + w.argmin.capacity() * std::mem::size_of::<u32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qtable::QTable;
    use std::collections::BTreeSet;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn cell(row: usize, col: usize) -> f64 {
        ((row * 31 + col * 17) % 23) as f64 + 1.0
    }

    fn init_fn() -> InitFn {
        Arc::new(|row, out| {
            for (col, v) in out.iter_mut().enumerate() {
                *v = cell(row, col);
            }
        })
    }

    /// `init_fn` that adds the cells it evaluates to `evaluated`.
    fn counting_init_fn(evaluated: &Arc<AtomicUsize>) -> InitFn {
        let (evaluated, init) = (evaluated.clone(), init_fn());
        Arc::new(move |row, out| {
            evaluated.fetch_add(out.len(), Ordering::Relaxed);
            init(row, out)
        })
    }

    fn dense_twin(rows: usize, columns: usize) -> QTable {
        QTable::from_fn(rows, columns, |r, c| cell(r.index(), c))
    }

    #[test]
    fn unwritten_table_reads_init_and_allocates_nothing() {
        let t = PagedQTable::new(200, 7, init_fn());
        let d = dense_twin(200, 7);
        assert_eq!(t.rows(), 200);
        assert_eq!(t.columns(), 7);
        assert_eq!(t.written_rows(), 0);
        assert!(t.occupied_rows().is_empty());
        for row in [0, 63, 64, 150, 199] {
            for c in 0..7 {
                assert_eq!(t.get(row, c), d.get(row, c));
            }
            assert_eq!(t.best_in_row(row), d.best_in_row(row));
        }
        assert_eq!(t.memory_bytes(), 0);
    }

    #[test]
    fn a_write_materialises_only_the_touched_row() {
        let mut t = PagedQTable::new(200, 7, init_fn());
        t.set(70, 3, 0.25);
        assert_eq!(t.get(70, 3), 0.25);
        assert_eq!(t.occupied_rows(), [70]);
        // Page-mates and other pages still read as init, and stay virtual.
        let d = dense_twin(200, 7);
        assert_eq!(t.get(70, 2), d.get(70, 2));
        assert_eq!(t.get(71, 2), d.get(71, 2));
        assert_eq!(t.get(0, 0), d.get(0, 0));
        assert_eq!(t.best_in_row(70), (3, 0.25));
        assert_eq!(t.best_in_row(71), d.best_in_row(71));
        assert_eq!(t.occupied_rows(), [70]);
        // The last page is partial (rows 192..200).
        t.set(199, 0, 9.0);
        t.set(64, 6, 0.5);
        assert_eq!(t.get(199, 0), 9.0);
        assert_eq!(t.occupied_rows(), [64, 70, 199]);
        assert_eq!(t.written_rows(), 3);
    }

    #[test]
    fn paged_tracks_dense_bit_for_bit_under_updates() {
        let mut paged = PagedQTable::new(130, 5, init_fn());
        let mut dense = dense_twin(130, 5);
        let mut written = BTreeSet::new();
        let mut x = 5u64;
        for step in 0..3_000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            // Every third row is never written.
            let row = (x >> 33) as usize % 130 / 3 * 3;
            let col = (x >> 17) as usize % 5;
            let value = ((x >> 7) % 1000) as f64 / 8.0;
            paged.set(row, col, value);
            dense.set(row, col, value);
            written.insert(row as u32);
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
        let rows = paged.occupied_rows();
        assert_eq!(rows, written.into_iter().collect::<Vec<u32>>());
        assert!(rows.len() < 130 / 2);

        // The sparse round trip restores values, row set and accounting.
        let mut back = PagedQTable::new(130, 5, init_fn());
        back.load_sparse_values(&rows, &paged.sparse_values(&rows));
        assert_eq!(back.values(), dense.values());
        assert_eq!(back.occupied_rows(), rows);
        assert_eq!(back.memory_bytes(), paged.memory_bytes());
        for row in 0..130 {
            assert_eq!(back.best_in_row(row), dense.best_in_row(row));
        }
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
        // Loading over written rows overwrites them in place.
        back.set(10, 0, 99.0);
        back.load_sparse_values(&rows, &values);
        assert_eq!(back.values(), t.values());
        assert_eq!(back.best_in_row(10), t.best_in_row(10));
        assert_eq!(back.written_rows(), 2);
    }

    #[test]
    fn init_is_evaluated_by_the_row_and_never_for_a_neighbour() {
        const COLUMNS: usize = 35;
        let evaluated = Arc::new(AtomicUsize::new(0));
        let spent = |since: usize| evaluated.load(Ordering::Relaxed) - since;
        let mut t = PagedQTable::new(4_624, COLUMNS, counting_init_fn(&evaluated));

        // What `RouterAgent::feedback` does to a never-written row.
        let current = t.get(1_000, 4);
        t.set(1_000, 4, current * 0.5);
        assert!(spent(0) <= COLUMNS, "get → set evaluated {}", spent(0));
        // A first write with no read before it: the one row, no page-mate.
        let before = spent(0);
        t.set(2_000, 0, 1.0);
        assert!(spent(before) <= COLUMNS);
        // Written rows answer from their slots.
        let before = spent(0);
        t.set(1_000, 5, 3.0);
        assert_eq!(t.get(2_000, 0), 1.0);
        t.best_in_row(1_000);
        assert_eq!(spent(before), 0);

        // A routing decision on an untouched row: the argmin, then every
        // column for near-tie detection.
        let before = spent(0);
        t.best_in_row(3_000);
        for c in 0..COLUMNS {
            t.get(3_000, c);
        }
        assert!(spent(before) <= COLUMNS);

        // A restore copies; it derives nothing.
        let rows = t.occupied_rows();
        let values = t.sparse_values(&rows);
        let mut back = PagedQTable::new(4_624, COLUMNS, counting_init_fn(&evaluated));
        let before = spent(0);
        back.load_sparse_values(&rows, &values);
        assert_eq!(spent(before), 0);
        assert_eq!(back.occupied_rows(), [1_000, 2_000]);
        assert_eq!(back.get(1_000, 5), 3.0);
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
