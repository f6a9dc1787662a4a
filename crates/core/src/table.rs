//! The common interface of Q-value tables.
//!
//! The original destination-router-indexed table ([`crate::QTable`]), the
//! paper's two-level table ([`crate::TwoLevelQTable`]) and the sparse,
//! row-granular [`crate::PagedQTable`] all implement this trait, which lets the routing
//! agents, the ablation benches and the memory-comparison experiment treat
//! them interchangeably.
//!
//! ## The cached-argmin contract
//!
//! [`QValueTable::best_in_row`] sits on the routing hot path (every
//! decision and every feedback bootstrap asks for a row minimum), so the
//! default full-column scan is only the *semantic specification*, not the
//! implementation shipped tables use. All three shipped tables maintain a
//! per-row argmin cache with the following invalidation contract, which
//! any new implementation overriding `best_in_row` must honour:
//!
//! * the cache stores, for every row, the **lowest column index achieving
//!   the row minimum** — the exact tie-break of the default scan, so a
//!   cached lookup is bit-for-bit indistinguishable from the scan;
//! * [`QValueTable::set`] keeps the cache coherent *eagerly*: lowering a
//!   cell (or tying it at a lower column index) moves the cached argmin in
//!   O(1); raising the cached argmin cell itself triggers one O(columns)
//!   row rescan inside `set`. `best_in_row` therefore stays a pure `&self`
//!   O(1) read;
//! * the cache is derived state — never serialized, always rebuilt
//!   deterministically from the values — so checkpoints and equality
//!   comparisons see only the values.

/// A `rows × columns` table of Q-values (estimated delivery times in
/// nanoseconds — *lower is better*).
pub trait QValueTable {
    /// Number of rows.
    fn rows(&self) -> usize;

    /// Number of columns (one per non-host port).
    fn columns(&self) -> usize;

    /// Read one value.
    fn get(&self, row: usize, column: usize) -> f64;

    /// Overwrite one value.
    fn set(&mut self, row: usize, column: usize, value: f64);

    /// The column with the smallest value in `row` and that value.
    /// Ties are broken towards the lowest column index, which makes the
    /// lookup deterministic.
    fn best_in_row(&self, row: usize) -> (usize, f64) {
        let mut best_col = 0;
        let mut best_val = f64::INFINITY;
        for c in 0..self.columns() {
            let v = self.get(row, c);
            if v < best_val {
                best_val = v;
                best_col = c;
            }
        }
        (best_col, best_val)
    }

    /// The smallest value in `row`.
    fn min_in_row(&self, row: usize) -> f64 {
        self.best_in_row(row).1
    }

    /// Memory footprint of the value storage in bytes (the paper's
    /// router-memory comparison).
    fn memory_bytes(&self) -> usize {
        self.rows() * self.columns() * std::mem::size_of::<f64>()
    }

    /// Number of stored Q-values.
    fn len(&self) -> usize {
        self.rows() * self.columns()
    }

    /// All values in row-major order — the checkpoint representation of
    /// the learned state (see `dragonfly_engine::checkpoint`).
    fn values(&self) -> Vec<f64> {
        let mut v = Vec::with_capacity(self.len());
        for r in 0..self.rows() {
            for c in 0..self.columns() {
                v.push(self.get(r, c));
            }
        }
        v
    }

    /// Overwrite every value from a row-major slice captured by
    /// [`QValueTable::values`] on an identically shaped table.
    fn load_values(&mut self, values: &[f64]) {
        assert_eq!(
            values.len(),
            self.len(),
            "checkpointed Q-table shape does not match this table"
        );
        let mut i = 0;
        for r in 0..self.rows() {
            for c in 0..self.columns() {
                self.set(r, c, values[i]);
                i += 1;
            }
        }
    }

    /// Whether the table is empty (degenerate configuration).
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Row-major values of a selected set of rows — the **sparse**
    /// checkpoint representation used by paged tables, which only persist
    /// the rows ever written (every other row is the deterministic init
    /// value and is rebuilt by the factory).
    fn sparse_values(&self, rows: &[u32]) -> Vec<f64> {
        let mut v = Vec::with_capacity(rows.len() * self.columns());
        for &r in rows {
            for c in 0..self.columns() {
                v.push(self.get(r as usize, c));
            }
        }
        v
    }

    /// Overwrite the listed rows from a row-major slice captured by
    /// [`QValueTable::sparse_values`]. Unlisted rows are left untouched
    /// (at their init value on a freshly built table), so a sparse
    /// checkpoint restores into dense and paged storage alike.
    fn load_sparse_values(&mut self, rows: &[u32], values: &[f64]) {
        assert_eq!(
            values.len(),
            rows.len() * self.columns(),
            "sparse Q-table checkpoint shape does not match this table"
        );
        let mut i = 0;
        for &r in rows {
            for c in 0..self.columns() {
                self.set(r as usize, c, values[i]);
                i += 1;
            }
        }
    }
}

/// Restore a table from its checkpoint form: `rows` non-empty selects the
/// sparse representation ([`QValueTable::load_sparse_values`]), an empty
/// `rows` with full-length `values` the dense one, and empty `rows` with
/// empty `values` means nothing was ever written (a paged table with no
/// written row) — the freshly built table is already correct.
///
/// Both forms restore into either storage kind: a sparse checkpoint
/// applied to a dense table only overwrites the listed rows (the rest are
/// at their init values, exactly what the sparse form implies), and a
/// dense checkpoint applied to a paged table writes every row.
///
/// The loaders assert the shape; a checkpoint read from a file goes
/// through [`check_checkpoint_values`] first.
pub fn load_checkpoint_values(table: &mut dyn QValueTable, rows: &[u32], values: &[f64]) {
    if !rows.is_empty() {
        table.load_sparse_values(rows, values);
    } else if !values.is_empty() || table.is_empty() {
        table.load_values(values);
    }
}

/// Whether [`load_checkpoint_values`] can restore `(rows, values)` into
/// `table`: `q_rows` strictly ascending and inside the table, `q_values`
/// holding exactly the listed rows (sparse) or the whole table (dense).
/// The error names the offending `AgentCheckpoint` field.
pub fn check_checkpoint_values(
    table: &dyn QValueTable,
    rows: &[u32],
    values: &[f64],
) -> Result<(), String> {
    let (table_rows, columns) = (table.rows(), table.columns());
    for (i, &row) in rows.iter().enumerate() {
        if row as usize >= table_rows {
            return Err(format!(
                "q_rows[{i}] = {row} is outside a table of {table_rows} rows"
            ));
        }
        if i > 0 && rows[i - 1] >= row {
            return Err(format!(
                "q_rows is not strictly ascending: q_rows[{}] = {}, q_rows[{i}] = {row}",
                i - 1,
                rows[i - 1]
            ));
        }
    }
    let (listed, what) = match rows.len() {
        0 if values.is_empty() => return Ok(()),
        0 => (table_rows, "the whole table".to_string()),
        n => (n, format!("the {n} rows of q_rows")),
    };
    if values.len() != listed * columns {
        return Err(format!(
            "q_values holds {} values, {what} at {columns} columns need {}",
            values.len(),
            listed * columns
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A minimal in-memory implementation used to test the default methods.
    struct Dense {
        rows: usize,
        cols: usize,
        v: Vec<f64>,
    }

    impl QValueTable for Dense {
        fn rows(&self) -> usize {
            self.rows
        }
        fn columns(&self) -> usize {
            self.cols
        }
        fn get(&self, row: usize, column: usize) -> f64 {
            self.v[row * self.cols + column]
        }
        fn set(&mut self, row: usize, column: usize, value: f64) {
            self.v[row * self.cols + column] = value;
        }
    }

    #[test]
    fn best_in_row_breaks_ties_towards_low_columns() {
        let t = Dense {
            rows: 1,
            cols: 4,
            v: vec![5.0, 3.0, 3.0, 9.0],
        };
        assert_eq!(t.best_in_row(0), (1, 3.0));
        assert_eq!(t.min_in_row(0), 3.0);
    }

    #[test]
    fn sparse_values_round_trip_selected_rows() {
        let src = Dense {
            rows: 3,
            cols: 2,
            v: vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
        };
        let rows = [0u32, 2];
        let sparse = src.sparse_values(&rows);
        assert_eq!(sparse, vec![1.0, 2.0, 5.0, 6.0]);
        let mut dst = Dense {
            rows: 3,
            cols: 2,
            v: vec![0.0; 6],
        };
        dst.load_sparse_values(&rows, &sparse);
        assert_eq!(dst.v, vec![1.0, 2.0, 0.0, 0.0, 5.0, 6.0]);
    }

    #[test]
    fn checkpoint_values_are_checked_against_the_table() {
        let t = Dense {
            rows: 3,
            cols: 2,
            v: vec![0.0; 6],
        };
        let check = |rows: &[u32], n: usize| check_checkpoint_values(&t, rows, &vec![0.0; n]);
        for (rows, n) in [(&[][..], 0), (&[], 6), (&[0, 2], 4), (&[1], 2)] {
            check(rows, n).unwrap_or_else(|e| panic!("{rows:?} x {n}: {e}"));
        }
        for (rows, n, field) in [
            (&[0u32, 3][..], 4, "q_rows[1] = 3"),
            (&[2, 0], 4, "not strictly ascending"),
            (&[1, 1], 4, "not strictly ascending"),
            (&[0, 2], 3, "q_values holds 3 values"),
            (&[], 5, "q_values holds 5 values"),
        ] {
            let err = check(rows, n).expect_err(field);
            assert!(err.contains(field), "{rows:?} x {n}: {err}");
        }
    }

    #[test]
    fn memory_accounting() {
        let t = Dense {
            rows: 10,
            cols: 4,
            v: vec![0.0; 40],
        };
        assert_eq!(t.len(), 40);
        assert!(!t.is_empty());
        assert_eq!(t.memory_bytes(), 40 * 8);
    }
}
