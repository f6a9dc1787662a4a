//! Run settings, engine-override helpers and table formatting shared by
//! the figure registry and the CLI.

use dragonfly_engine::config::ShardKind;
use dragonfly_engine::time::SimTime;

/// How much simulated time to spend per point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunMode {
    /// Reduced windows / fewer points; finishes in minutes on a laptop.
    Quick,
    /// Paper-scale measurement windows (the paper averages over 100 µs
    /// after stabilisation).
    Full,
}

/// The settings of one figure run (`qadaptive-cli figure` fills them in
/// from its flags).
#[derive(Debug, Clone)]
pub struct BenchArgs {
    /// Quick or full windows.
    pub mode: RunMode,
    /// Worker threads for parallel sweeps (0 = all CPUs). When runs are
    /// sharded this budget is divided between sweep workers and per-run
    /// shards.
    pub threads: usize,
    /// Base seed.
    pub seed: u64,
    /// Conservative-parallel shard override applied to every simulation
    /// of the figure (`None` = the engine default, `Auto`: one shard per
    /// CPU, which a sweep divides between its points).
    pub shards: Option<ShardKind>,
    /// Window-grid override for sharded runs (`None` = the engine default,
    /// lockstep lookahead windows; `--pipeline` runs half-lookahead
    /// windows with one window of slack). Results are bit-for-bit
    /// identical either way.
    pub pipeline: Option<bool>,
    /// Serve unchanged simulation points from this result-cache directory
    /// (see `dragonfly_bench::cache`).
    pub cache_dir: Option<std::path::PathBuf>,
    /// Bypass the cache even when `cache_dir` is set.
    pub no_cache: bool,
}

impl Default for BenchArgs {
    /// Quick mode, seed 1, all CPUs, engine defaults, no cache.
    fn default() -> Self {
        Self {
            mode: RunMode::Quick,
            threads: 0,
            seed: 1,
            shards: None,
            pipeline: None,
            cache_dir: None,
            no_cache: false,
        }
    }
}

impl BenchArgs {
    /// Warmup time per simulation point. Q-adaptive needs a learning period
    /// before the measurement window (the paper observes convergence within
    /// 200–500 µs), so even quick mode warms up for 120 µs.
    pub fn warmup_ns(&self) -> SimTime {
        match self.mode {
            RunMode::Quick => 120_000,
            RunMode::Full => 300_000,
        }
    }

    /// Measurement window per simulation point.
    pub fn measure_ns(&self) -> SimTime {
        match self.mode {
            RunMode::Quick => 40_000,
            RunMode::Full => 100_000,
        }
    }

    /// Offered-load grid for uniform-random sweeps (Figure 5 top row).
    pub fn ur_loads(&self) -> Vec<f64> {
        match self.mode {
            RunMode::Quick => vec![0.2, 0.4, 0.6, 0.8, 0.95],
            RunMode::Full => vec![0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 1.0],
        }
    }

    /// Offered-load grid for adversarial sweeps (Figure 5 rows 2–3).
    pub fn adv_loads(&self) -> Vec<f64> {
        match self.mode {
            RunMode::Quick => vec![0.1, 0.2, 0.3, 0.4, 0.5],
            RunMode::Full => vec![0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45, 0.5],
        }
    }

    /// A one-line banner describing the run.
    pub fn banner(&self, what: &str) -> String {
        format!(
            "== {} | mode={:?} warmup={} µs measure={} µs threads={} seed={} ==",
            what,
            self.mode,
            self.warmup_ns() / 1_000,
            self.measure_ns() / 1_000,
            if self.threads == 0 {
                "auto".to_string()
            } else {
                self.threads.to_string()
            },
            self.seed
        )
    }
}

/// Apply `--shards` and `--pipeline`/`--no-pipeline` overrides to a
/// spec's optional engine config. An untouched spec stays `None` (no
/// override materialised) so scenario files keep full control when no
/// flag was given.
pub fn apply_engine_overrides(
    engine: &mut Option<dragonfly_engine::EngineConfig>,
    shards: Option<ShardKind>,
    pipeline: Option<bool>,
) {
    if let Some(kind) = shards {
        engine.get_or_insert_with(Default::default).shards = kind;
    }
    if let Some(pipeline) = pipeline {
        engine.get_or_insert_with(Default::default).pipeline = pipeline;
    }
}

/// Parse a `--shards` value: `single`, `auto`, or a shard count.
pub fn parse_shards(value: &str) -> Result<ShardKind, String> {
    match value.to_ascii_lowercase().as_str() {
        "single" | "1" => Ok(ShardKind::Single),
        "auto" => Ok(ShardKind::Auto),
        n => n
            .parse::<usize>()
            .map(ShardKind::Fixed)
            .map_err(|_| format!("--shards takes `auto`, `single` or a count (got `{value}`)")),
    }
}

/// Render a markdown-style table.
pub fn markdown_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| {
        let padded: Vec<String> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:<width$}", c, width = widths.get(i).copied().unwrap_or(4)))
            .collect();
        format!("| {} |", padded.join(" | "))
    };
    let header_cells: Vec<String> = headers.iter().map(|s| s.to_string()).collect();
    let mut out = fmt_row(&header_cells);
    out.push('\n');
    let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
    out.push_str(&fmt_row(&sep));
    for row in rows {
        out.push('\n');
        out.push_str(&fmt_row(row));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn default_args_are_quick_mode() {
        let a = BenchArgs::default();
        assert_eq!(a.mode, RunMode::Quick);
        assert_eq!(a.threads, 0);
        assert_eq!(a.seed, 1);
        assert!(a.warmup_ns() < 300_000);
        assert_eq!(a.shards, None);
        assert_eq!(a.pipeline, None, "engine default unless a flag is given");
        assert_eq!(a.cache_dir, None);
        assert!(!a.no_cache);
    }

    #[test]
    fn full_mode_widens_the_windows_and_grids() {
        let quick = BenchArgs::default();
        let full = BenchArgs {
            mode: RunMode::Full,
            ..BenchArgs::default()
        };
        assert_eq!(full.measure_ns(), 100_000);
        assert!(full.warmup_ns() > quick.warmup_ns());
        assert!(full.ur_loads().len() > full.adv_loads().len());
        assert!(full.ur_loads().len() > quick.ur_loads().len());
        assert!(full.banner("fig5").contains("fig5"));
    }

    #[test]
    fn shard_values_parse() {
        assert_eq!(parse_shards("auto"), Ok(ShardKind::Auto));
        assert_eq!(parse_shards("single"), Ok(ShardKind::Single));
        assert_eq!(parse_shards("6"), Ok(ShardKind::Fixed(6)));
        assert!(parse_shards("lots").is_err());
    }

    #[test]
    fn effective_shards_defaults_to_auto_on_multi_core_hosts() {
        // No `--shards` leaves the engine default in force, and that
        // default is `Auto`: a multi-core host shards, a single-core one
        // resolves to the sequential loop.
        assert_eq!(BenchArgs::default().shards, None);
        let mut engine = None;
        apply_engine_overrides(&mut engine, BenchArgs::default().shards, None);
        let resolved = engine.unwrap_or_default().shards;
        assert_eq!(resolved, ShardKind::Auto);
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(resolved.resolve(64, 300), cpus.min(64));
    }

    #[test]
    fn engine_overrides_compose_and_leave_untouched_specs_alone() {
        let mut engine = None;
        apply_engine_overrides(&mut engine, None, None);
        assert_eq!(engine, None, "no flags → no override materialised");
        apply_engine_overrides(&mut engine, None, Some(false));
        let cfg = engine.unwrap();
        assert!(!cfg.pipeline);
        assert_eq!(cfg.shards, ShardKind::Auto, "the engine default");
        let mut engine = Some(cfg);
        apply_engine_overrides(&mut engine, Some(ShardKind::Single), None);
        let cfg = engine.unwrap();
        assert_eq!(cfg.shards, ShardKind::Single);
        assert!(!cfg.pipeline, "earlier --no-pipeline survives --shards");
    }

    #[test]
    fn load_grids_are_sorted_and_in_range() {
        for mode in [RunMode::Quick, RunMode::Full] {
            let args = BenchArgs {
                mode,
                ..BenchArgs::default()
            };
            for grid in [args.ur_loads(), args.adv_loads()] {
                assert!(grid.windows(2).all(|w| w[0] < w[1]));
                assert!(grid.iter().all(|l| *l > 0.0 && *l <= 1.0));
            }
            assert!(args.adv_loads().iter().all(|l| *l <= 0.5));
        }
    }

    #[test]
    fn markdown_table_aligns_columns() {
        let t = markdown_table(&["a", "metric"], &[s(&["x", "1.0"]), s(&["longer", "2.5"])]);
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines.iter().all(|l| l.starts_with('|') && l.ends_with('|')));
        assert_eq!(lines[0].len(), lines[3].len());
    }
}
