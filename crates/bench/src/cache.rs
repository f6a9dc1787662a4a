//! Cached figure results: skip re-running simulation points whose spec has
//! not changed.
//!
//! Every figure panel is data — a [`SweepSpec`] grid of [`ExperimentSpec`]
//! points or a convergence [`ExperimentSpec`] — and the engine is
//! deterministic for a fixed spec, so a result keyed by the full spec
//! (topology, routing, traffic, load, windows, seed **and** the
//! engine/shard hardware config) can be reused forever. The cache is a
//! directory of JSON files named by an FNV-1a hash of the canonical spec
//! JSON plus a schema-version salt; `qadaptive-cli figure --cache-dir DIR`
//! turns it on and `--no-cache` bypasses it.
//!
//! Cached reports replay the original run's `wall_seconds` /
//! `events_processed`, so perf numbers printed from cache hits describe
//! the recording machine, not the current one — results, not timings, are
//! the contract.

use dragonfly_metrics::report::SimulationReport;
use dragonfly_sim::convergence::ConvergenceResult;
use dragonfly_sim::spec::{ExperimentSpec, SweepSpec};
use dragonfly_sim::sweep::SweepResult;
use std::path::{Path, PathBuf};

/// Bump when the cached JSON schema or the simulation semantics change in
/// a way that invalidates old results (e.g. the PR 3 event-ordering key;
/// v4: `topology` became the tagged `TopologySpec` union; v5: closed-loop
/// `workload` specs and completion-time report fields; v6: fault-injection
/// `faults` specs and the resilience report fields; v7: the `metrics`
/// mode knob, the `memory_bytes` report field and the Q-table paging
/// threshold in engine overrides).
const CACHE_VERSION: &str = "qadaptive-cache-v7";

/// 64-bit FNV-1a (no external hashing crates in the offline build).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in bytes {
        hash ^= *byte as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// A directory of cached simulation results.
#[derive(Debug, Clone)]
pub struct ResultCache {
    dir: PathBuf,
}

impl ResultCache {
    /// Open (and create if needed) a cache directory.
    pub fn new(dir: impl Into<PathBuf>) -> Result<Self, String> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create cache dir {}: {e}", dir.display()))?;
        Ok(Self { dir })
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Cache key of one sweep point (prefix distinguishes result schemas).
    pub fn point_key(spec: &ExperimentSpec) -> String {
        Self::key("pt", spec)
    }

    /// Cache key of a convergence run.
    pub fn convergence_key(spec: &ExperimentSpec) -> String {
        Self::key("cv", spec)
    }

    fn key(prefix: &str, spec: &ExperimentSpec) -> String {
        let mut payload = String::from(CACHE_VERSION);
        payload.push('\n');
        // The canonical JSON covers everything that determines the result,
        // including the optional engine override (hardware timings), with
        // the execution-mode knobs stripped: a cache warmed without
        // `--shards` keeps serving hits when the user later turns sharding,
        // pipelining or table paging on or off.
        payload.push_str(&spec.result_identity().to_json());
        format!("{prefix}_{:016x}", fnv1a(payload.as_bytes()))
    }

    fn path(&self, key: &str) -> PathBuf {
        self.dir.join(format!("{key}.json"))
    }

    fn load_json<T: serde::Deserialize>(&self, key: &str) -> Option<T> {
        let text = std::fs::read_to_string(self.path(key)).ok()?;
        // A corrupt or schema-incompatible file is treated as a miss.
        serde_json::from_str(&text).ok()
    }

    fn store_json<T: serde::Serialize>(&self, key: &str, value: &T) {
        // Caching is best-effort: an unwritable directory degrades to
        // re-running, never to a failed figure.
        if let Ok(text) = serde_json::to_string(value) {
            let _ = std::fs::write(self.path(key), text);
        }
    }

    /// Fetch a cached sweep-point report.
    pub fn load_report(&self, key: &str) -> Option<SimulationReport> {
        self.load_json(key)
    }

    /// Store a sweep-point report.
    pub fn store_report(&self, key: &str, report: &SimulationReport) {
        self.store_json(key, report);
    }

    /// Fetch a cached convergence result.
    pub fn load_convergence(&self, key: &str) -> Option<ConvergenceResult> {
        self.load_json(key)
    }

    /// Store a convergence result.
    pub fn store_convergence(&self, key: &str, result: &ConvergenceResult) {
        self.store_json(key, result);
    }
}

/// Run a sweep, serving unchanged points from `cache` and executing only
/// the misses (in parallel, with the sweep's usual thread budgeting).
/// Returns the full in-order result plus the number of cache hits.
pub fn run_sweep_cached(
    sweep: &SweepSpec,
    threads: usize,
    cache: Option<&ResultCache>,
) -> (SweepResult, usize) {
    let Some(cache) = cache else {
        return (sweep.run_parallel(threads), 0);
    };
    let points = sweep.points();
    let keys: Vec<String> = points.iter().map(ResultCache::point_key).collect();
    let mut reports: Vec<Option<SimulationReport>> =
        keys.iter().map(|k| cache.load_report(k)).collect();
    let hits = reports.iter().filter(|r| r.is_some()).count();
    let misses: Vec<usize> = (0..points.len())
        .filter(|i| reports[*i].is_none())
        .collect();
    if !misses.is_empty() {
        let todo: Vec<ExperimentSpec> = misses.iter().map(|&i| points[i].clone()).collect();
        let fresh = sweep.run_points(&todo, threads);
        for (&index, report) in misses.iter().zip(fresh) {
            cache.store_report(&keys[index], &report);
            reports[index] = Some(report);
        }
    }
    (
        SweepResult {
            reports: reports
                .into_iter()
                .map(|r| r.expect("every point is a hit or was just run"))
                .collect(),
        },
        hits,
    )
}

/// Run a convergence spec through the cache.
pub fn run_convergence_cached(
    spec: &ExperimentSpec,
    cache: Option<&ResultCache>,
) -> (ConvergenceResult, bool) {
    let key = ResultCache::convergence_key(spec);
    if let Some(cache) = cache {
        if let Some(hit) = cache.load_convergence(&key) {
            return (hit, true);
        }
    }
    let result = dragonfly_sim::convergence::run_convergence_spec(spec);
    if let Some(cache) = cache {
        cache.store_convergence(&key, &result);
    }
    (result, false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dragonfly_topology::config::DragonflyConfig;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("qadaptive-cache-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn tiny_spec(seed: u64) -> ExperimentSpec {
        let mut spec = ExperimentSpec::new(DragonflyConfig::tiny());
        spec.warmup_ns = 2_000;
        spec.measure_ns = 5_000;
        spec.load = Some(0.2);
        spec.seed = Some(seed);
        spec
    }

    #[test]
    fn keys_are_stable_and_spec_sensitive() {
        let a = ResultCache::point_key(&tiny_spec(1));
        assert_eq!(a, ResultCache::point_key(&tiny_spec(1)), "stable");
        assert_ne!(a, ResultCache::point_key(&tiny_spec(2)), "seed-sensitive");
        // Result-relevant engine fields (hardware timings) change the key...
        let mut slow = tiny_spec(1);
        slow.engine = Some(dragonfly_engine::EngineConfig {
            global_latency_ns: 600,
            ..Default::default()
        });
        let mut default_engine = tiny_spec(1);
        default_engine.engine = Some(Default::default());
        assert_eq!(
            a,
            ResultCache::point_key(&default_engine),
            "a pure-default engine override hashes like no override"
        );
        assert_ne!(
            ResultCache::point_key(&default_engine),
            ResultCache::point_key(&slow),
            "hardware timings are part of the key"
        );
        // ...but the shard count does not (results are pinned bit-for-bit
        // identical across it), so a warm cache survives turning
        // `--shards` on.
        let mut sharded = tiny_spec(1);
        sharded.engine = Some(dragonfly_engine::EngineConfig {
            shards: dragonfly_engine::ShardKind::Fixed(2),
            ..Default::default()
        });
        assert_eq!(
            ResultCache::point_key(&default_engine),
            ResultCache::point_key(&sharded),
            "the shard count must not invalidate the cache"
        );
        assert_ne!(
            ResultCache::point_key(&tiny_spec(1)),
            ResultCache::convergence_key(&tiny_spec(1)),
            "result schemas do not collide"
        );
    }

    #[test]
    fn keys_change_with_the_topology_but_not_with_execution_modes() {
        use dragonfly_topology::{FatTreeConfig, HyperXConfig};
        // Same experiment on different topologies → different keys: a
        // cache warmed on the Dragonfly must never serve a fat-tree or
        // HyperX request (the result would be from the wrong fabric).
        let dragonfly = ResultCache::point_key(&tiny_spec(1));
        let mut on_fattree = tiny_spec(1);
        on_fattree.topology = FatTreeConfig::tiny().into();
        let fattree = ResultCache::point_key(&on_fattree);
        let mut on_hyperx = tiny_spec(1);
        on_hyperx.topology = HyperXConfig::tiny().into();
        let hyperx = ResultCache::point_key(&on_hyperx);
        assert_ne!(dragonfly, fattree, "fat-tree must miss a dragonfly cache");
        assert_ne!(dragonfly, hyperx, "hyperx must miss a dragonfly cache");
        assert_ne!(fattree, hyperx);
        // Different parameters of the same kind are different keys too.
        let mut bigger = tiny_spec(1);
        bigger.topology = FatTreeConfig { k: 6 }.into();
        assert_ne!(fattree, ResultCache::point_key(&bigger));
        // ...while toggling shards/pipeline on the non-Dragonfly topology
        // still hits warm (execution modes stay result-invariant).
        let mut sharded = on_fattree.clone();
        sharded.engine = Some(dragonfly_engine::EngineConfig {
            shards: dragonfly_engine::ShardKind::Fixed(2),
            pipeline: false,
            ..Default::default()
        });
        assert_eq!(
            fattree,
            ResultCache::point_key(&sharded),
            "shards/pipeline must not invalidate a fat-tree cache entry"
        );
    }

    #[test]
    fn keys_are_invariant_to_every_execution_mode_field() {
        // Both execution knobs — pipeline and shards — are pinned
        // result-invariant by the mode matrices, so neither may
        // change the cache key: a cache warmed with the default
        // (pipelined) engine keeps serving hits after `--no-pipeline` or
        // `--shards N`, in any combination.
        let plain = ResultCache::point_key(&tiny_spec(1));
        for pipeline in [true, false] {
            for shards in [
                dragonfly_engine::ShardKind::Single,
                dragonfly_engine::ShardKind::Fixed(4),
                dragonfly_engine::ShardKind::Auto,
            ] {
                let mut spec = tiny_spec(1);
                spec.engine = Some(dragonfly_engine::EngineConfig {
                    pipeline,
                    shards,
                    ..Default::default()
                });
                assert_eq!(
                    plain,
                    ResultCache::point_key(&spec),
                    "pipeline={pipeline} shards={shards:?} must not invalidate the cache"
                );
            }
        }
        // Hardware timings still matter even with execution knobs set.
        let mut slow = tiny_spec(1);
        slow.engine = Some(dragonfly_engine::EngineConfig {
            pipeline: false,
            local_latency_ns: 60,
            ..Default::default()
        });
        assert_ne!(plain, ResultCache::point_key(&slow));
    }

    #[test]
    fn keys_strip_the_paging_threshold_but_not_the_metrics_mode() {
        use dragonfly_sim::spec::{MetricsMode, MetricsSpec};
        // The Q-table representation is pinned bit-for-bit
        // result-invariant (the paging axis of the sim mode matrix), so
        // forcing paging on or off must keep the cache warm...
        let plain = ResultCache::point_key(&tiny_spec(1));
        for threshold in [0, usize::MAX] {
            let mut spec = tiny_spec(1);
            spec.engine = Some(dragonfly_engine::EngineConfig {
                qtable_page_rows_threshold: threshold,
                ..Default::default()
            });
            assert_eq!(
                plain,
                ResultCache::point_key(&spec),
                "paging threshold {threshold} must not invalidate the cache"
            );
        }
        // ...while the metrics mode changes the reported percentiles
        // (bucket lower bounds vs exact order statistics), so it must be
        // part of the key.
        let mut streaming = tiny_spec(1);
        streaming.metrics = Some(MetricsSpec {
            mode: MetricsMode::Streaming,
        });
        assert_ne!(
            plain,
            ResultCache::point_key(&streaming),
            "the metrics mode determines the result"
        );
    }

    #[test]
    fn keys_are_workload_sensitive() {
        use dragonfly_workload::WorkloadSpec;
        // A closed-loop workload determines the result, so it must be part
        // of the key: same point with/without a workload, with different
        // workloads, or at different intensities must never collide.
        let open_loop = ResultCache::point_key(&tiny_spec(1));
        let mut allreduce = tiny_spec(1);
        allreduce.workload = Some(WorkloadSpec::AllReduce { messages: 4 });
        let allreduce_key = ResultCache::point_key(&allreduce);
        assert_ne!(
            open_loop, allreduce_key,
            "workload presence changes the key"
        );
        let mut alltoall = allreduce.clone();
        alltoall.workload = Some(WorkloadSpec::AllToAll { messages: 4 });
        assert_ne!(
            allreduce_key,
            ResultCache::point_key(&alltoall),
            "workload kind changes the key"
        );
        let mut heavier = allreduce.clone();
        heavier.workload = Some(WorkloadSpec::AllReduce { messages: 8 });
        assert_ne!(
            allreduce_key,
            ResultCache::point_key(&heavier),
            "workload parameters change the key"
        );
        let mut intense = allreduce.clone();
        intense.load = Some(0.7);
        assert_ne!(
            allreduce_key,
            ResultCache::point_key(&intense),
            "intensity changes the key"
        );
        // ...while execution modes still never do, workload or not.
        let mut sharded = allreduce.clone();
        sharded.engine = Some(dragonfly_engine::EngineConfig {
            shards: dragonfly_engine::ShardKind::Fixed(2),
            pipeline: false,
            ..Default::default()
        });
        assert_eq!(
            allreduce_key,
            ResultCache::point_key(&sharded),
            "execution modes must not invalidate closed-loop cache entries"
        );
    }

    #[test]
    fn warm_hit_survives_every_execution_mode_knob_under_a_workload() {
        use dragonfly_workload::WorkloadSpec;
        // End-to-end satellite contract: warm the cache with a collective
        // workload under the default engine, then toggle every
        // execution-mode knob at once (shards, pipeline) — the sweep must
        // be served entirely from the cache with identical completion
        // metrics.
        let cache = ResultCache::new(tmp_dir("workload-toggle")).unwrap();
        let mut sweep = SweepSpec {
            name: String::new(),
            topology: DragonflyConfig::tiny().into(),
            traffics: vec![],
            workload: Some(WorkloadSpec::AllReduce { messages: 2 }),
            routings: vec![dragonfly_routing::RoutingSpec::Minimal],
            loads: vec![1.0],
            warmup_ns: 0,
            measure_ns: 10_000_000,
            seed: Some(17),
            seeds_per_point: None,
            engine: None,
            series_bin_ns: None,
            faults: Vec::new(),
            metrics: None,
        };
        let (first, hits_cold) = run_sweep_cached(&sweep, 1, Some(&cache));
        assert_eq!(hits_cold, 0);
        assert_eq!(first.reports[0].ranks_finished, 72);
        assert!(first.reports[0].job_completion_us > 0.0);
        sweep.engine = Some(dragonfly_engine::EngineConfig {
            shards: dragonfly_engine::ShardKind::Fixed(2),
            pipeline: false,
            ..Default::default()
        });
        let (second, hits_warm) = run_sweep_cached(&sweep, 1, Some(&cache));
        assert_eq!(
            hits_warm, 1,
            "shards + pipeline toggles keep a workload cache warm"
        );
        assert_eq!(
            first.reports[0].job_completion_us,
            second.reports[0].job_completion_us
        );
        assert_eq!(
            first.reports[0].phase_completion_us,
            second.reports[0].phase_completion_us
        );
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn warm_hit_survives_toggling_the_pipeline_flag() {
        // End-to-end: warm the cache with the default engine, re-run with
        // `pipeline = false` (what `--no-pipeline` produces) and the
        // sweep must be served entirely from the cache.
        let cache = ResultCache::new(tmp_dir("pipeline-toggle")).unwrap();
        let mut sweep = SweepSpec {
            name: String::new(),
            topology: DragonflyConfig::tiny().into(),
            traffics: vec![],
            workload: None,
            routings: vec![dragonfly_routing::RoutingSpec::Minimal],
            loads: vec![0.2],
            warmup_ns: 2_000,
            measure_ns: 5_000,
            seed: Some(9),
            seeds_per_point: None,
            engine: None,
            series_bin_ns: None,
            faults: Vec::new(),
            metrics: None,
        };
        let (first, hits_cold) = run_sweep_cached(&sweep, 1, Some(&cache));
        assert_eq!(hits_cold, 0);
        sweep.engine = Some(dragonfly_engine::EngineConfig {
            pipeline: false,
            shards: dragonfly_engine::ShardKind::Fixed(2),
            ..Default::default()
        });
        let (second, hits_warm) = run_sweep_cached(&sweep, 1, Some(&cache));
        assert_eq!(
            hits_warm, 1,
            "toggling --pipeline/--shards keeps the cache warm"
        );
        assert_eq!(
            first.reports[0].packets_delivered,
            second.reports[0].packets_delivered
        );
        assert_eq!(
            first.reports[0].mean_latency_us,
            second.reports[0].mean_latency_us
        );
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn keys_are_fault_sensitive() {
        use dragonfly_sim::fault::FaultSpecEntry;
        // A fault schedule determines the result, so every distinguishing
        // part of it — presence, kind, target, time, fraction and fault
        // seed — must change the key; execution modes still must not.
        let clean = ResultCache::point_key(&tiny_spec(1));
        let mut faulted = tiny_spec(1);
        faulted.faults = vec![FaultSpecEntry::random_global_down(50.0, 0.05, 7)];
        let faulted_key = ResultCache::point_key(&faulted);
        assert_ne!(clean, faulted_key, "fault presence changes the key");
        let mut heavier = faulted.clone();
        heavier.faults = vec![FaultSpecEntry::random_global_down(50.0, 0.10, 7)];
        assert_ne!(
            faulted_key,
            ResultCache::point_key(&heavier),
            "the killed fraction changes the key"
        );
        let mut reseeded = faulted.clone();
        reseeded.faults = vec![FaultSpecEntry::random_global_down(50.0, 0.05, 8)];
        assert_ne!(
            faulted_key,
            ResultCache::point_key(&reseeded),
            "the fault seed changes the key"
        );
        let mut later = faulted.clone();
        later.faults = vec![FaultSpecEntry::random_global_down(60.0, 0.05, 7)];
        assert_ne!(
            faulted_key,
            ResultCache::point_key(&later),
            "the fault time changes the key"
        );
        let mut other_kind = faulted.clone();
        other_kind.faults = vec![FaultSpecEntry::router_down(50.0, 2)];
        assert_ne!(
            faulted_key,
            ResultCache::point_key(&other_kind),
            "the fault kind changes the key"
        );
        // Execution modes stay key-invariant on faulted specs too (the
        // mode matrix's faulted cases pin shards/pipeline bit-for-bit).
        let mut sharded = faulted.clone();
        sharded.engine = Some(dragonfly_engine::EngineConfig {
            shards: dragonfly_engine::ShardKind::Fixed(2),
            pipeline: false,
            ..Default::default()
        });
        assert_eq!(
            faulted_key,
            ResultCache::point_key(&sharded),
            "execution modes must not invalidate faulted cache entries"
        );
    }

    #[test]
    fn corrupted_cache_files_fall_back_to_recompute() {
        // A truncated, garbage or schema-incompatible cache file must be
        // treated as a miss (recompute and overwrite), never a panic.
        let cache = ResultCache::new(tmp_dir("corrupt")).unwrap();
        let spec = tiny_spec(11);
        let key = ResultCache::point_key(&spec);
        let fresh = spec.run();
        cache.store_report(&key, &fresh);
        assert!(cache.load_report(&key).is_some(), "sanity: clean hit");
        let path = cache.dir().join(format!("{key}.json"));
        for garbage in [
            "",                       // empty file
            "{\"packets_deliv",       // truncated mid-key
            "not json at all \u{7f}", // binary-ish garbage
            "{\"unexpected\": true}", // valid JSON, wrong schema
        ] {
            std::fs::write(&path, garbage).unwrap();
            assert!(
                cache.load_report(&key).is_none(),
                "corrupt file ({garbage:?}) must read as a miss"
            );
        }
        // And the sweep path recomputes through the corruption untouched.
        let sweep = SweepSpec {
            name: String::new(),
            topology: DragonflyConfig::tiny().into(),
            traffics: vec![],
            workload: None,
            routings: vec![dragonfly_routing::RoutingSpec::Minimal],
            loads: vec![0.1],
            warmup_ns: 2_000,
            measure_ns: 5_000,
            seed: Some(13),
            seeds_per_point: None,
            engine: None,
            series_bin_ns: None,
            faults: Vec::new(),
            metrics: None,
        };
        let keys: Vec<String> = sweep.points().iter().map(ResultCache::point_key).collect();
        let (first, _) = run_sweep_cached(&sweep, 1, Some(&cache));
        std::fs::write(cache.dir().join(format!("{}.json", keys[0])), "garbage").unwrap();
        let (recomputed, hits) = run_sweep_cached(&sweep, 1, Some(&cache));
        assert_eq!(hits, 0, "corrupt entry is a miss, not a panic");
        assert_eq!(
            first.reports[0].packets_delivered,
            recomputed.reports[0].packets_delivered
        );
        let (rewarmed, hits_after) = run_sweep_cached(&sweep, 1, Some(&cache));
        assert_eq!(hits_after, 1, "the recompute repaired the cache entry");
        assert_eq!(
            first.reports[0].mean_latency_us,
            rewarmed.reports[0].mean_latency_us
        );
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn reports_round_trip_through_the_cache() {
        let cache = ResultCache::new(tmp_dir("report")).unwrap();
        let spec = tiny_spec(3);
        let key = ResultCache::point_key(&spec);
        assert!(cache.load_report(&key).is_none());
        let report = spec.run();
        cache.store_report(&key, &report);
        let cached = cache.load_report(&key).expect("hit after store");
        assert_eq!(cached.packets_delivered, report.packets_delivered);
        assert_eq!(cached.mean_latency_us, report.mean_latency_us);
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn cached_sweep_skips_unchanged_points() {
        let cache = ResultCache::new(tmp_dir("sweep")).unwrap();
        let sweep = SweepSpec {
            name: String::new(),
            topology: DragonflyConfig::tiny().into(),
            traffics: vec![],
            workload: None,
            routings: vec![dragonfly_routing::RoutingSpec::Minimal],
            loads: vec![0.1, 0.3],
            warmup_ns: 2_000,
            measure_ns: 5_000,
            seed: Some(5),
            seeds_per_point: None,
            engine: None,
            series_bin_ns: None,
            faults: Vec::new(),
            metrics: None,
        };
        let (first, hits_first) = run_sweep_cached(&sweep, 1, Some(&cache));
        assert_eq!(hits_first, 0, "cold cache");
        let (second, hits_second) = run_sweep_cached(&sweep, 1, Some(&cache));
        assert_eq!(hits_second, 2, "warm cache serves every point");
        for (a, b) in first.reports.iter().zip(second.reports.iter()) {
            assert_eq!(a.packets_delivered, b.packets_delivered);
            assert_eq!(a.mean_latency_us, b.mean_latency_us);
            assert_eq!(a.offered_load, b.offered_load);
        }
        // A different seed is a different point: misses again.
        let mut reseeded = sweep.clone();
        reseeded.seed = Some(6);
        let (_, hits_reseeded) = run_sweep_cached(&reseeded, 1, Some(&cache));
        assert_eq!(hits_reseeded, 0);
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn convergence_results_cache_too() {
        let cache = ResultCache::new(tmp_dir("conv")).unwrap();
        let mut spec = tiny_spec(7);
        spec.series_bin_ns = Some(2_000);
        let (fresh, was_hit) = run_convergence_cached(&spec, Some(&cache));
        assert!(!was_hit);
        let (cached, was_hit) = run_convergence_cached(&spec, Some(&cache));
        assert!(was_hit);
        assert_eq!(
            fresh.report.packets_delivered,
            cached.report.packets_delivered
        );
        assert_eq!(fresh.series.len(), cached.series.len());
        let _ = std::fs::remove_dir_all(cache.dir());
    }
}
