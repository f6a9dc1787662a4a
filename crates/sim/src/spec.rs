//! Serializable experiment descriptions — the single source of truth for
//! *every* experiment this repository can run.
//!
//! * [`ExperimentSpec`] — one simulation point: topology, routing, traffic,
//!   load (constant or scheduled), measurement windows, seed, optional
//!   engine (hardware) overrides and time-series collection. Loadable from
//!   TOML or JSON scenario files and runnable directly; its `run*` methods
//!   are short compositions of the [`Simulation`] stages.
//! * [`SweepSpec`] — a cartesian grid (traffics × routings × loads ×
//!   seeds-per-point) of experiment points, each with a seed derived
//!   from the base seed and its position in the grid.
//!
//! ```
//! use dragonfly_sim::spec::ExperimentSpec;
//!
//! let spec: ExperimentSpec = toml::from_str(r#"
//!     name = "quick look"
//!     load = 0.2
//!     warmup_ns = 10000
//!     measure_ns = 10000
//!     routing = "UgalG"
//!     traffic = { Adversarial = { shift = 1 } }
//!
//!     [topology]
//!     p = 2
//!     a = 4
//!     h = 2
//! "#).unwrap();
//! let report = spec.run();
//! assert!(report.packets_delivered > 0);
//! ```

use crate::builder::Simulation;
use crate::checkpoint::RunCheckpoint;
use crate::fault::FaultSpecEntry;
use crate::sweep::{run_specs_parallel, SweepResult};
use dragonfly_engine::config::{EngineConfig, ShardKind};
use dragonfly_engine::time::SimTime;
use dragonfly_metrics::report::SimulationReport;
use dragonfly_metrics::timeseries::TimeSeries;
use dragonfly_routing::RoutingSpec;
use dragonfly_topology::{Topology, TopologySpec};
use dragonfly_traffic::schedule::LoadSchedule;
use dragonfly_traffic::TrafficSpec;
use dragonfly_workload::WorkloadSpec;
use serde::{Deserialize, Serialize};
use std::path::Path;

/// Error produced when loading or validating a spec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError(pub String);

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for SpecError {}

impl From<serde::Error> for SpecError {
    fn from(e: serde::Error) -> Self {
        SpecError(e.to_string())
    }
}

/// The default base seed used when a spec omits `seed`.
pub const DEFAULT_SEED: u64 = 1;

/// Measurement-statistics configuration (a scenario file's `[metrics]`
/// table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct MetricsSpec {
    /// How latency statistics are stored (see [`MetricsMode`]).
    #[serde(default)]
    pub mode: MetricsMode,
}

/// Latency-statistics storage mode.
///
/// `Exact` keeps every sample (exact quantiles, memory grows with the
/// packet count); `Streaming` folds samples into a fixed-size log-binned
/// sketch (quantiles within one ≈1.6 % bucket, bounded memory — the mode
/// the 100k-node scale runs use). Counting metrics, means and extremes
/// are identical in both modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum MetricsMode {
    /// Keep every latency sample (the default; exact quantiles).
    #[default]
    Exact,
    /// Fold samples into the bounded-memory log-binned sketch.
    Streaming,
}

/// A complete, serialisable description of one simulation run.
///
/// Optional fields and their defaults:
///
/// | field | default |
/// |---|---|
/// | `name` | `""` |
/// | `routing` | `"Minimal"` |
/// | `traffic` | `"UniformRandom"` |
/// | `load` / `schedule` | exactly one must be present |
/// | `tail_ns` | `0` |
/// | `seed` | `1` |
/// | `series_bin_ns` | none (no time series) |
/// | `engine` | paper hardware parameters |
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentSpec {
    /// Human-readable experiment name (free-form, used in output headers).
    #[serde(default)]
    pub name: String,
    /// Topology configuration (tagged: dragonfly / fattree / hyperx;
    /// a legacy bare `[topology]` table with p/a/h still reads as a
    /// Dragonfly).
    pub topology: TopologySpec,
    /// Routing algorithm.
    #[serde(default)]
    pub routing: RoutingSpec,
    /// Traffic pattern.
    #[serde(default)]
    pub traffic: TrafficSpec,
    /// Closed-loop application workload. When present the open-loop
    /// injector is replaced by per-node task programs (collectives,
    /// halo exchanges, …) and `load` acts as a message-count intensity
    /// multiplier (default 1.0). Mutually exclusive with `schedule`.
    #[serde(default)]
    pub workload: Option<WorkloadSpec>,
    /// Constant offered load in `[0, 1]` — shorthand for a single-segment
    /// schedule. Mutually exclusive with `schedule`. With a `workload`
    /// this becomes the optional intensity multiplier instead.
    #[serde(default)]
    pub load: Option<f64>,
    /// Piecewise-constant offered-load schedule (dynamic-load studies).
    /// Mutually exclusive with `load`.
    #[serde(default)]
    pub schedule: Option<LoadSchedule>,
    /// Warmup time excluded from measurement (ns).
    pub warmup_ns: SimTime,
    /// Measurement-window length (ns).
    pub measure_ns: SimTime,
    /// Unmeasured tail after the window (keeps the window unbiased by an
    /// emptying network).
    #[serde(default)]
    pub tail_ns: SimTime,
    /// Base RNG seed (default 1).
    #[serde(default)]
    pub seed: Option<u64>,
    /// Record a whole-run time series with this bin width (ns).
    #[serde(default)]
    pub series_bin_ns: Option<u64>,
    /// Hardware overrides (link latencies, buffers, packet size). The
    /// number of virtual channels is still forced to the routing
    /// algorithm's requirement.
    #[serde(default)]
    pub engine: Option<EngineConfig>,
    /// Fault-injection events (`[[faults]]` sections): link/router kills
    /// and restores, or seeded random global-link loss. Empty = fault-free.
    #[serde(default)]
    pub faults: Vec<FaultSpecEntry>,
    /// Measurement-statistics mode (`[metrics]`): exact sample storage
    /// (default) or bounded-memory streaming sketches for scale runs.
    /// Optional with a `None` default, so scenario files and checkpoint
    /// spec embeddings that predate the field still parse (TOML output
    /// omits the table entirely when unset).
    #[serde(default)]
    pub metrics: Option<MetricsSpec>,
}

impl ExperimentSpec {
    /// The defaults every field-by-field construction starts from (fill
    /// in the rest with struct-update syntax): minimal routing,
    /// uniform-random traffic at 10 % load, 20 µs warmup, 100 µs
    /// measurement.
    pub fn new(topology: impl Into<TopologySpec>) -> Self {
        Self {
            name: String::new(),
            topology: topology.into(),
            routing: RoutingSpec::default(),
            traffic: TrafficSpec::default(),
            workload: None,
            load: Some(0.1),
            schedule: None,
            warmup_ns: 20_000,
            measure_ns: 100_000,
            tail_ns: 0,
            seed: None,
            series_bin_ns: None,
            engine: None,
            faults: Vec::new(),
            metrics: None,
        }
    }

    /// The effective offered-load schedule.
    pub fn effective_schedule(&self) -> LoadSchedule {
        match (&self.schedule, self.load) {
            (Some(schedule), _) => schedule.clone(),
            (None, Some(load)) => LoadSchedule::constant(load),
            (None, None) => LoadSchedule::constant(0.1),
        }
    }

    /// The effective base seed.
    pub fn effective_seed(&self) -> u64 {
        self.seed.unwrap_or(DEFAULT_SEED)
    }

    /// The effective closed-loop intensity multiplier (only meaningful
    /// when `workload` is set): `load` when given, else 1.0.
    pub fn effective_intensity(&self) -> f64 {
        self.load.unwrap_or(1.0)
    }

    /// Total simulated time of the run ([`ExperimentSpec::validate`]
    /// refuses windows whose sum overflows).
    pub fn total_ns(&self) -> SimTime {
        self.warmup_ns + self.measure_ns + self.tail_ns
    }

    /// The spec with every execution-mode knob — shard count, pipelining,
    /// Q-table paging threshold — reset to its default. All three are
    /// pinned bit-for-bit result-invariant by the mode matrix, so
    /// two specs that agree on this projection describe the same simulated
    /// outcome: the figure cache keys results by it and resume accepts them
    /// interchangeably. A fully default engine block collapses to `None`,
    /// since CLI overrides materialise one just to set a knob on it.
    pub fn result_identity(&self) -> Self {
        let mut identity = self.clone();
        if let Some(engine) = &mut identity.engine {
            let defaults = EngineConfig::default();
            engine.shards = defaults.shards;
            engine.pipeline = defaults.pipeline;
            engine.qtable_page_rows_threshold = defaults.qtable_page_rows_threshold;
            if *engine == defaults {
                identity.engine = None;
            }
        }
        identity
    }

    /// Check the spec for structural problems (bad topology, out-of-range
    /// loads, contradictory fields, empty or overflowing windows, hardware
    /// values no run can make sense of).
    pub fn validate(&self) -> Result<(), SpecError> {
        self.topology
            .validate()
            .map_err(|e| SpecError(format!("topology: {e}")))?;
        if self.load.is_some() && self.schedule.is_some() {
            return Err(SpecError(
                "specify either `load` or `schedule`, not both".to_string(),
            ));
        }
        if let Some(workload) = &self.workload {
            if self.schedule.is_some() {
                return Err(SpecError(
                    "a closed-loop `workload` paces itself; `schedule` is open-loop only \
                     (use `load` as an intensity multiplier instead)"
                        .to_string(),
                ));
            }
            if let Some(load) = self.load {
                if load <= 0.0 || !load.is_finite() {
                    return Err(SpecError(format!(
                        "workload intensity (`load`) must be a positive number, got {load}"
                    )));
                }
            }
            workload
                .validate(&self.topology.build())
                .map_err(|e| SpecError(format!("workload: {e}")))?;
        } else {
            if self.load.is_none() && self.schedule.is_none() {
                return Err(SpecError(
                    "an experiment needs a `load`, a `schedule` or a `workload`".to_string(),
                ));
            }
            if let Some(load) = self.load {
                if !(0.0..=1.0).contains(&load) {
                    return Err(SpecError(format!("load {load} must be in [0, 1]")));
                }
            }
        }
        if let Some(schedule) = &self.schedule {
            schedule.validate().map_err(SpecError)?;
        }
        validate_hardware_and_windows(
            &self.engine,
            [self.warmup_ns, self.measure_ns, self.tail_ns],
            self.series_bin_ns,
        )?;
        validate_traffic(&self.traffic, &self.topology)?;
        if !self.faults.is_empty() {
            // Compiling checks both the entry structure and the targets
            // (router/port existence) against the concrete topology.
            crate::fault::compile_faults(&self.faults, &self.topology.build())?;
        }
        if let Some(params) = self.qadaptive_params() {
            params.validate().map_err(SpecError)?;
        }
        Ok(())
    }

    fn qadaptive_params(&self) -> Option<qadaptive_core::QAdaptiveParams> {
        match self.routing {
            RoutingSpec::QAdaptive(params) => Some(params),
            _ => None,
        }
    }

    /// Run, returning the measurement report.
    ///
    /// # Panics
    ///
    /// Panics if the spec does not pass [`ExperimentSpec::validate`]
    /// (specs loaded through `from_toml` / `from_json` / `from_path`
    /// always do).
    pub fn run(&self) -> SimulationReport {
        self.run_to_end().report()
    }

    /// Run with a whole-run time series (a default 10 µs bin width is used
    /// when `series_bin_ns` is unset). Panics like [`ExperimentSpec::run`].
    pub fn run_with_series(&self) -> (SimulationReport, TimeSeries) {
        let sim = Self {
            series_bin_ns: self.series_bin_ns.or(Some(10_000)),
            ..self.clone()
        }
        .run_to_end();
        let report = sim.report();
        let series = sim.into_series().expect("a series bin width is set above");
        (report, series)
    }

    fn run_to_end(&self) -> Simulation {
        let mut sim = Simulation::start(self).expect("running needs a spec that validates");
        sim.advance_to(self.total_ns());
        sim
    }

    /// Run with checkpoint/resume support (the CLI's `--checkpoint-every`
    /// / `--resume-from`): continue from `resume` when given — after
    /// verifying it belongs to this spec; it is dropped once restored, so
    /// the resumed run does not hold it to the end — and hand a fresh
    /// [`RunCheckpoint`] to `sink` at every `checkpoint_every_ns` boundary
    /// strictly before the end of the run. A closed-loop run that has
    /// drained stops stepping (further boundaries would rewrite the same
    /// snapshot). The first error `sink` returns stops the run and is
    /// returned. Works under any engine configuration — snapshots are
    /// partition-independent, so the checkpointing and resuming runs may
    /// use different shard counts and pipeline settings.
    pub fn run_checkpointed(
        &self,
        resume: Option<RunCheckpoint>,
        checkpoint_every_ns: Option<SimTime>,
        sink: impl FnMut(RunCheckpoint) -> Result<(), SpecError>,
    ) -> Result<SimulationReport, SpecError> {
        self.run_checkpointed_to_end(resume, checkpoint_every_ns, sink)
            .map(|sim| sim.report())
    }

    /// [`ExperimentSpec::run_checkpointed`], handing back the finished
    /// [`Simulation`] instead of its report, for callers that also want
    /// the run's side channels (`Simulation::memory_breakdown`).
    pub fn run_checkpointed_to_end(
        &self,
        resume: Option<RunCheckpoint>,
        checkpoint_every_ns: Option<SimTime>,
        mut sink: impl FnMut(RunCheckpoint) -> Result<(), SpecError>,
    ) -> Result<Simulation, SpecError> {
        let mut sim = match resume {
            Some(checkpoint) => Simulation::resume(self, &checkpoint)?,
            None => Simulation::start(self)?,
        };
        let total = self.total_ns();
        let every = checkpoint_every_ns.unwrap_or(total).max(1);
        let mut t = sim.now();
        loop {
            t = t.saturating_add(every).min(total);
            if !sim.advance_to(t) {
                return Ok(sim);
            }
            sink(sim.snapshot())?;
        }
    }

    /// A one-line description used in output headers.
    pub fn label(&self) -> String {
        let base = format!(
            "{} over {} on {} @ {}",
            self.routing.label(),
            match &self.workload {
                Some(w) => w.label(),
                None => self.traffic.label(),
            },
            self.topology,
            match (&self.workload, &self.schedule, self.load) {
                (Some(_), _, _) => format!("intensity {:.2}", self.effective_intensity()),
                (None, Some(s), _) => format!("peak load {:.2}", s.peak_load()),
                (None, None, Some(l)) => format!("load {l:.2}"),
                (None, None, None) => "load 0.10".to_string(),
            }
        );
        if self.name.is_empty() {
            base
        } else {
            format!("{} ({base})", self.name)
        }
    }

    // -- serialisation front-ends -------------------------------------------

    /// Parse from TOML text and validate.
    pub fn from_toml(text: &str) -> Result<Self, SpecError> {
        let spec: Self = spec_from_tree(&toml::parse_value(text)?)?;
        spec.validate()?;
        Ok(spec)
    }

    /// Parse from JSON text and validate.
    pub fn from_json(text: &str) -> Result<Self, SpecError> {
        let spec: Self = spec_from_tree(&serde_json::parse_value(text)?)?;
        spec.validate()?;
        Ok(spec)
    }

    /// Load from a `.toml` or `.json` file (dispatching on the extension).
    pub fn from_path(path: impl AsRef<Path>) -> Result<Self, SpecError> {
        let (text, is_json) = read_spec_file(path.as_ref())?;
        if is_json {
            Self::from_json(&text)
        } else {
            Self::from_toml(&text)
        }
    }

    /// Render as a TOML scenario file.
    pub fn to_toml(&self) -> String {
        toml::to_string(self).expect("experiment specs are always maps")
    }

    /// Render as pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("serialisation is infallible")
    }
}

/// A cartesian experiment grid: every traffic × routing × load × seed
/// combination becomes one [`ExperimentSpec`] point.
///
/// [`SweepSpec::points`] fixes the point order and the per-point seeds.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepSpec {
    /// Human-readable sweep name.
    #[serde(default)]
    pub name: String,
    /// Topology configuration shared by all points.
    pub topology: TopologySpec,
    /// Traffic patterns (empty → uniform random only).
    #[serde(default)]
    pub traffics: Vec<TrafficSpec>,
    /// Closed-loop workload shared by all points. When present every
    /// point runs this workload and `loads` become intensity multipliers
    /// (load-vs-job-completion-time curves).
    #[serde(default)]
    pub workload: Option<WorkloadSpec>,
    /// Routing algorithms (empty → the paper's six-algorithm lineup).
    #[serde(default)]
    pub routings: Vec<RoutingSpec>,
    /// Offered loads to evaluate.
    pub loads: Vec<f64>,
    /// Warmup time per point (ns).
    pub warmup_ns: SimTime,
    /// Measurement window per point (ns).
    pub measure_ns: SimTime,
    /// Base RNG seed (default 1); each point derives its own.
    #[serde(default)]
    pub seed: Option<u64>,
    /// Independent repetitions per point with distinct seeds (default 1).
    #[serde(default)]
    pub seeds_per_point: Option<usize>,
    /// Hardware overrides shared by all points.
    #[serde(default)]
    pub engine: Option<EngineConfig>,
    /// Record a whole-run time series with this bin width (ns) at every
    /// point. Required for a meaningful `recovery_time_us` on faulted
    /// sweeps; unset = no series (the pre-existing default).
    #[serde(default)]
    pub series_bin_ns: Option<u64>,
    /// Fault-injection events shared by all points (resilience sweeps).
    #[serde(default)]
    pub faults: Vec<FaultSpecEntry>,
    /// Measurement-statistics mode shared by all points (see
    /// [`ExperimentSpec::metrics`]); optional so pre-existing sweep files
    /// still parse.
    #[serde(default)]
    pub metrics: Option<MetricsSpec>,
}

/// Seed stride between consecutive `(routing, load)` points of one traffic.
const POINT_SEED_STRIDE: u64 = 7919;
/// Seed stride between repetitions of the same point.
const REPEAT_SEED_STRIDE: u64 = 15_485_863;

impl SweepSpec {
    /// A sweep with the paper's six-algorithm lineup under one pattern.
    pub fn paper_lineup(
        topology: impl Into<TopologySpec>,
        traffic: TrafficSpec,
        loads: Vec<f64>,
        warmup_ns: SimTime,
        measure_ns: SimTime,
    ) -> Self {
        Self {
            name: String::new(),
            topology: topology.into(),
            traffics: vec![traffic],
            workload: None,
            routings: RoutingSpec::paper_lineup(),
            loads,
            warmup_ns,
            measure_ns,
            seed: None,
            seeds_per_point: None,
            engine: None,
            series_bin_ns: None,
            faults: Vec::new(),
            metrics: None,
        }
    }

    /// The effective traffic list.
    pub fn effective_traffics(&self) -> Vec<TrafficSpec> {
        if self.traffics.is_empty() {
            vec![TrafficSpec::default()]
        } else {
            self.traffics.clone()
        }
    }

    /// The effective routing list.
    pub fn effective_routings(&self) -> Vec<RoutingSpec> {
        if self.routings.is_empty() {
            RoutingSpec::paper_lineup()
        } else {
            self.routings.clone()
        }
    }

    /// The effective repetition count.
    pub fn effective_seeds_per_point(&self) -> usize {
        self.seeds_per_point.unwrap_or(1).max(1)
    }

    /// Number of simulation points in the grid.
    pub fn len(&self) -> usize {
        self.effective_traffics().len()
            * self.effective_routings().len()
            * self.loads.len()
            * self.effective_seeds_per_point()
    }

    /// Whether the grid is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Check the grid for structural problems.
    pub fn validate(&self) -> Result<(), SpecError> {
        self.topology
            .validate()
            .map_err(|e| SpecError(format!("topology: {e}")))?;
        if self.loads.is_empty() {
            return Err(SpecError("a sweep needs at least one load".to_string()));
        }
        for load in &self.loads {
            if self.workload.is_some() {
                if *load <= 0.0 || !load.is_finite() {
                    return Err(SpecError(format!(
                        "workload intensity (`loads` entry) must be a positive number, got {load}"
                    )));
                }
            } else if !(0.0..=1.0).contains(load) {
                return Err(SpecError(format!("load {load} must be in [0, 1]")));
            }
        }
        if let Some(workload) = &self.workload {
            workload
                .validate(&self.topology.build())
                .map_err(|e| SpecError(format!("workload: {e}")))?;
        }
        validate_hardware_and_windows(
            &self.engine,
            [self.warmup_ns, self.measure_ns, 0],
            self.series_bin_ns,
        )?;
        for traffic in self.effective_traffics() {
            validate_traffic(&traffic, &self.topology)?;
        }
        if !self.faults.is_empty() {
            crate::fault::compile_faults(&self.faults, &self.topology.build())?;
        }
        Ok(())
    }

    /// Expand the grid into concrete experiment points.
    ///
    /// Point order is: traffic-major, then routing, then load, then
    /// repetition. The `(routing, load)` index restarts at 0 in every
    /// traffic block, so point `i` of each block shares a seed:
    /// `seed + i · 7919 + repeat · 15_485_863` (wrapping).
    pub fn points(&self) -> Vec<ExperimentSpec> {
        let base_seed = self.seed.unwrap_or(DEFAULT_SEED);
        let repeats = self.effective_seeds_per_point();
        let mut points = Vec::with_capacity(self.len());
        for traffic in self.effective_traffics() {
            let mut index: u64 = 0;
            for routing in self.effective_routings() {
                for &load in &self.loads {
                    for repeat in 0..repeats {
                        points.push(ExperimentSpec {
                            name: self.name.clone(),
                            routing,
                            traffic,
                            workload: self.workload.clone(),
                            load: Some(load),
                            warmup_ns: self.warmup_ns,
                            measure_ns: self.measure_ns,
                            seed: Some(
                                base_seed
                                    .wrapping_add(index * POINT_SEED_STRIDE)
                                    .wrapping_add(repeat as u64 * REPEAT_SEED_STRIDE),
                            ),
                            series_bin_ns: self.series_bin_ns,
                            engine: self.engine,
                            faults: self.faults.clone(),
                            metrics: self.metrics,
                            ..ExperimentSpec::new(self.topology)
                        });
                    }
                    index += 1;
                }
            }
        }
        points
    }

    /// The shards each of `points` concurrent runs of this sweep uses on a
    /// budget of `threads` (0 = one per available CPU): what the engine
    /// override, or the engine default, resolves to. A sweep fills the
    /// cores with points first, so `Auto` shards a point only when there
    /// are fewer points than threads, on the threads the points leave
    /// free; `Single` and `Fixed(n)` are taken as given.
    pub fn shards_per_point(&self, threads: usize, points: usize) -> usize {
        let engine = self.engine.unwrap_or_default();
        // Mirror Engine::new exactly: the lookahead is the topology's
        // minimum cross-domain link latency, not bare global latency, so
        // the thread-budget split always agrees with the shard count the
        // engine actually resolves.
        let lookahead = self
            .topology
            .build()
            .min_cross_domain_latency(engine.local_latency_ns, engine.global_latency_ns);
        let resolved = engine
            .shards
            .resolve(self.topology.num_domains(), lookahead);
        match engine.shards {
            ShardKind::Auto => resolved.min(thread_budget(threads) / points.max(1)).max(1),
            ShardKind::Single | ShardKind::Fixed(_) => resolved,
        }
    }

    /// Run every point in parallel on a budget of `threads` (0 = one per
    /// available CPU); see [`SweepSpec::run_points`].
    pub fn run_parallel(&self, threads: usize) -> SweepResult {
        SweepResult {
            reports: self.run_points(&self.points(), threads),
        }
    }

    /// Run `points` (this sweep's, or some of them) on a budget of
    /// `threads`, divided between concurrent points and the shards of each
    /// ([`SweepSpec::shards_per_point`]), so that `sweep workers × shards`
    /// stays within the budget. Each point runs at the shard count the
    /// split gives it; reports do not depend on it.
    pub fn run_points(&self, points: &[ExperimentSpec], threads: usize) -> Vec<SimulationReport> {
        let shards = self.shards_per_point(threads, points.len());
        let pinned: Vec<ExperimentSpec> = points
            .iter()
            .map(|point| ExperimentSpec {
                engine: Some(EngineConfig {
                    shards: ShardKind::Fixed(shards),
                    ..point.engine.unwrap_or_default()
                }),
                ..point.clone()
            })
            .collect();
        run_specs_parallel(&pinned, budget_workers(threads, shards))
    }

    // -- serialisation front-ends -------------------------------------------

    /// Parse from TOML text and validate.
    pub fn from_toml(text: &str) -> Result<Self, SpecError> {
        let spec: Self = spec_from_tree(&toml::parse_value(text)?)?;
        spec.validate()?;
        Ok(spec)
    }

    /// Parse from JSON text and validate.
    pub fn from_json(text: &str) -> Result<Self, SpecError> {
        let spec: Self = spec_from_tree(&serde_json::parse_value(text)?)?;
        spec.validate()?;
        Ok(spec)
    }

    /// Load from a `.toml` or `.json` file (dispatching on the extension).
    pub fn from_path(path: impl AsRef<Path>) -> Result<Self, SpecError> {
        let (text, is_json) = read_spec_file(path.as_ref())?;
        if is_json {
            Self::from_json(&text)
        } else {
            Self::from_toml(&text)
        }
    }

    /// Render as a TOML scenario file.
    pub fn to_toml(&self) -> String {
        toml::to_string(self).expect("sweep specs are always maps")
    }

    /// Render as pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("serialisation is infallible")
    }
}

/// Deserialize a scenario file's value tree, refusing `[engine]` keys
/// [`EngineConfig`] does not have. The derive drops unknown fields, so
/// without this a typo (`pipline = false`) or a retired knob would parse
/// and silently do nothing.
fn spec_from_tree<T: Deserialize>(tree: &serde::Value) -> Result<T, SpecError> {
    use serde::Value::Map;
    if let (Some(Map(engine)), Map(known)) =
        (tree.get("engine"), EngineConfig::default().to_value())
    {
        let valid: Vec<&str> = known.iter().map(|(name, _)| name.as_str()).collect();
        if let Some((key, _)) = engine
            .iter()
            .find(|(key, _)| !valid.contains(&key.as_str()))
        {
            return Err(SpecError(format!(
                "unknown [engine] key `{key}` (valid keys: {})",
                valid.join(", ")
            )));
        }
    }
    Ok(T::from_value(tree)?)
}

/// A thread budget: `threads`, or one per available CPU when it is 0.
fn thread_budget(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism().map_or(4, |n| n.get())
    } else {
        threads
    }
}

/// Split a sweep-level thread budget between inter-run workers and
/// intra-run shards: with `shards_per_run`-way sharded points, only
/// `budget / shards_per_run` points should run concurrently (0 = one per
/// available CPU, resolved before dividing).
pub fn budget_workers(threads: usize, shards_per_run: usize) -> usize {
    (thread_budget(threads) / shards_per_run.max(1)).max(1)
}

/// The checks both spec kinds share: `[engine]` overrides the hardware
/// model can run on, a non-empty measurement window, `[warmup, measure,
/// tail]` lengths whose sum fits the simulated clock (a wrapped total
/// would end the run inside its own warmup), and a positive series bin.
fn validate_hardware_and_windows(
    engine: &Option<EngineConfig>,
    windows_ns: [SimTime; 3],
    series_bin_ns: Option<u64>,
) -> Result<(), SpecError> {
    if let Some(engine) = engine {
        engine
            .validate()
            .map_err(|e| SpecError(format!("[engine] {e}")))?;
    }
    let [warmup_ns, measure_ns, tail_ns] = windows_ns;
    if measure_ns == 0 {
        return Err(SpecError("measure_ns must be positive".to_string()));
    }
    if windows_ns
        .iter()
        .try_fold(0, |total: SimTime, ns| total.checked_add(*ns))
        .is_none()
    {
        return Err(SpecError(format!(
            "warmup_ns ({warmup_ns}) + measure_ns ({measure_ns}) + tail_ns ({tail_ns}) \
             overflows the 64-bit simulated clock"
        )));
    }
    if series_bin_ns == Some(0) {
        return Err(SpecError("series_bin_ns must be positive".to_string()));
    }
    Ok(())
}

/// Catch traffic/topology combinations whose pattern constructor would
/// panic mid-run (after validation has nominally passed).
fn validate_traffic(traffic: &TrafficSpec, topology: &TopologySpec) -> Result<(), SpecError> {
    if let TrafficSpec::Adversarial { shift } = *traffic {
        let domains = topology.num_domains();
        if shift % domains == 0 {
            return Err(SpecError(format!(
                "adversarial shift {shift} is a multiple of the domain count {domains}, \
                 so every node would target its own domain"
            )));
        }
    }
    Ok(())
}

fn read_spec_file(path: &Path) -> Result<(String, bool), SpecError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| SpecError(format!("cannot read {}: {e}", path.display())))?;
    let is_json = path
        .extension()
        .map(|ext| ext.eq_ignore_ascii_case("json"))
        .unwrap_or(false);
    Ok((text, is_json))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dragonfly_topology::config::DragonflyConfig;
    use dragonfly_topology::{FatTreeConfig, HyperXConfig};
    use qadaptive_core::QAdaptiveParams;

    fn sample_spec() -> ExperimentSpec {
        ExperimentSpec {
            name: "adv1".to_string(),
            topology: DragonflyConfig::tiny().into(),
            routing: RoutingSpec::QAdaptive(QAdaptiveParams::paper_1056()),
            traffic: TrafficSpec::Adversarial { shift: 1 },
            workload: None,
            load: Some(0.25),
            schedule: None,
            warmup_ns: 10_000,
            measure_ns: 20_000,
            tail_ns: 5_000,
            seed: Some(9),
            series_bin_ns: Some(5_000),
            engine: Some(EngineConfig::default()),
            faults: Vec::new(),
            metrics: None,
        }
    }

    #[test]
    fn toml_and_json_round_trip() {
        let spec = sample_spec();
        let toml_text = spec.to_toml();
        let json_text = spec.to_json();
        assert_eq!(ExperimentSpec::from_toml(&toml_text).unwrap(), spec);
        assert_eq!(ExperimentSpec::from_json(&json_text).unwrap(), spec);
    }

    #[test]
    fn minimal_toml_uses_defaults() {
        let spec = ExperimentSpec::from_toml(
            "load = 0.2\nwarmup_ns = 5000\nmeasure_ns = 5000\n[topology]\np = 2\na = 4\nh = 2\n",
        )
        .unwrap();
        assert_eq!(spec.routing, RoutingSpec::Minimal);
        assert_eq!(spec.traffic, TrafficSpec::UniformRandom);
        assert_eq!(spec.effective_seed(), DEFAULT_SEED);
        assert_eq!(spec.tail_ns, 0);
        assert_eq!(spec.effective_schedule(), LoadSchedule::constant(0.2));
    }

    #[test]
    fn validation_rejects_contradictions() {
        let mut spec = sample_spec();
        spec.schedule = Some(LoadSchedule::constant(0.4));
        assert!(spec.validate().unwrap_err().0.contains("not both"));
        spec.schedule = None;
        spec.load = None;
        assert!(spec.validate().is_err());
        let mut bad_load = sample_spec();
        bad_load.load = Some(1.5);
        assert!(bad_load.validate().is_err());
        let mut bad_window = sample_spec();
        bad_window.measure_ns = 0;
        assert!(bad_window.validate().is_err());
        // Windows whose sum wraps the simulated clock would end the run
        // inside its own warmup.
        bad_window.measure_ns = 3_000;
        bad_window.warmup_ns = u64::MAX;
        let err = bad_window.validate().unwrap_err().0;
        assert!(
            err.contains("warmup_ns (18446744073709551615)") && err.contains("overflows"),
            "{err}"
        );
        let mut sweep = sample_sweep();
        sweep.warmup_ns = u64::MAX;
        assert!(sweep.validate().unwrap_err().0.contains("overflows"));
        // Hostile `[engine]` values are refused by field and value, for
        // runs and sweeps alike; zero latencies and every execution-mode
        // knob stay legal.
        type Break = fn(&mut EngineConfig);
        let hostile: [(Break, &str, &str); 8] = [
            (|e| e.link_bytes_per_ns = 0.0, "link_bytes_per_ns", "got 0"),
            (
                |e| e.link_bytes_per_ns = -1.0,
                "link_bytes_per_ns",
                "got -1",
            ),
            (
                |e| e.link_bytes_per_ns = f64::NAN,
                "link_bytes_per_ns",
                "got NaN",
            ),
            (|e| e.packet_bytes = 0, "packet_bytes", "got 0"),
            (|e| e.vc_buffer_packets = 0, "vc_buffer_packets", "got 0"),
            (
                |e| e.output_queue_packets = 0,
                "output_queue_packets",
                "got 0",
            ),
            // A router counts both buffers in 16 bits.
            (
                |e| e.vc_buffer_packets = 65_536,
                "vc_buffer_packets must be at most 65535",
                "got 65536",
            ),
            (
                |e| e.output_queue_packets = 1 << 20,
                "output_queue_packets must be at most 65535",
                "got 1048576",
            ),
        ];
        for (break_it, field, value) in hostile {
            let mut engine = EngineConfig::default();
            break_it(&mut engine);
            let mut spec = sample_spec();
            spec.engine = Some(engine);
            let err = spec.validate().unwrap_err().0;
            assert!(err.contains(field) && err.contains(value), "{err}");
            let mut sweep = sample_sweep();
            sweep.engine = Some(engine);
            let err = sweep.validate().unwrap_err().0;
            assert!(err.contains(field) && err.contains(value), "{err}");
        }
        let mut legal = sample_spec();
        legal.engine = Some(EngineConfig {
            local_latency_ns: 0,
            global_latency_ns: 0,
            host_latency_ns: 0,
            router_latency_ns: 0,
            qtable_page_rows_threshold: 1,
            ..Default::default()
        });
        legal.validate().expect("zero latencies are a tested path");
    }

    /// Each `(topology, what the error names)` is refused by `validate`,
    /// naming the fabric and the field, without building the system.
    fn assert_ids_refused(cases: &[(TopologySpec, &str)]) {
        for (topology, clue) in cases {
            let spec = ExperimentSpec {
                topology: *topology,
                traffic: TrafficSpec::UniformRandom,
                ..sample_spec()
            };
            let err = spec.validate().expect_err(clue).0;
            let fabric = format!("topology: {}: ", topology.kind_name());
            assert!(err.starts_with(&fabric) && err.contains(clue), "{err}");
        }
    }

    #[test]
    fn dragonfly_ids_that_would_wrap_are_refused() {
        let df = |p, a, h| TopologySpec::Dragonfly(DragonflyConfig { p, a, h });
        assert_ids_refused(&[
            (
                df(257, 2, 1),
                "257 host ports per router exceeds the limit of 256",
            ),
            (df(1, 70_000, 1), "70001 radix exceeds the limit of 65535"),
            (df(1, 2, 40_000), "80001 domains exceeds the limit of 65536"),
            (df(256, 32_767, 1), "nodes exceeds the limit of 4294967295"),
            (
                df(1, usize::MAX, 2),
                "counting its radix overflows a machine word",
            ),
        ]);
        for legal in [df(256, 2, 1), df(1, 2, 32_767)] {
            legal.validate().expect("at the limits");
        }
    }

    #[test]
    fn fattree_ids_that_would_wrap_are_refused() {
        let ft = |k| TopologySpec::FatTree(FatTreeConfig { k });
        assert_ids_refused(&[
            (
                ft(514),
                "257 host ports per router exceeds the limit of 256",
            ),
            (
                ft(usize::MAX - 1),
                "host ports per router exceeds the limit of 256",
            ),
        ]);
        ft(512).validate().expect("256 host ports per edge switch");
    }

    #[test]
    fn hyperx_ids_that_would_wrap_are_refused() {
        let hx = |p, rows, cols| TopologySpec::HyperX(HyperXConfig { p, rows, cols });
        assert_ids_refused(&[
            (
                hx(300, 2, 2),
                "300 host ports per router exceeds the limit of 256",
            ),
            (hx(1, 2, 70_000), "70001 radix exceeds the limit of 65535"),
            (
                hx(256, 30_000, 30_000),
                "nodes exceeds the limit of 4294967295",
            ),
        ]);
        hx(256, 2, 2).validate().expect("at the limits");
    }

    #[test]
    fn validation_rejects_out_of_range_schedule_loads() {
        // Deserialisation bypasses the LoadSchedule constructor asserts, so
        // validate() must catch what `load = 1.7` would catch.
        let spec = ExperimentSpec::from_toml(
            "warmup_ns = 1000\nmeasure_ns = 1000\n[schedule]\nsegments = [[0, 1.7]]\n\
             [topology]\np = 2\na = 4\nh = 2\n",
        );
        assert!(spec.unwrap_err().0.contains("must be in [0, 1]"));
        let unsorted = ExperimentSpec::from_toml(
            "warmup_ns = 1000\nmeasure_ns = 1000\n[schedule]\nsegments = [[5000, 0.2], [0, 0.4]]\n\
             [topology]\np = 2\na = 4\nh = 2\n",
        );
        assert!(unsorted.is_err());
    }

    #[test]
    fn validation_rejects_self_targeting_adversarial_shift() {
        // tiny() has 9 groups; shift 9 (or 0) would make every node target
        // its own group and panic inside the pattern constructor mid-run.
        let mut spec = sample_spec();
        spec.traffic = TrafficSpec::Adversarial { shift: 9 };
        assert!(spec
            .validate()
            .unwrap_err()
            .0
            .contains("multiple of the domain count"));
        spec.traffic = TrafficSpec::Adversarial { shift: 10 };
        assert!(spec.validate().is_ok());
        let mut sweep = sample_sweep();
        sweep.traffics = vec![TrafficSpec::Adversarial { shift: 0 }];
        assert!(sweep.validate().is_err());
    }

    fn sample_sweep() -> SweepSpec {
        SweepSpec {
            name: "tiny".to_string(),
            topology: DragonflyConfig::tiny().into(),
            traffics: vec![TrafficSpec::UniformRandom],
            workload: None,
            routings: vec![RoutingSpec::Minimal, RoutingSpec::UgalG],
            loads: vec![0.1, 0.3],
            warmup_ns: 5_000,
            measure_ns: 10_000,
            seed: Some(2),
            seeds_per_point: None,
            engine: None,
            series_bin_ns: None,
            faults: Vec::new(),
            metrics: None,
        }
    }

    #[test]
    fn sweep_round_trips_and_counts_points() {
        let sweep = sample_sweep();
        assert_eq!(SweepSpec::from_toml(&sweep.to_toml()).unwrap(), sweep);
        assert_eq!(SweepSpec::from_json(&sweep.to_json()).unwrap(), sweep);
        assert_eq!(sweep.len(), 4);
        let mut repeated = sweep.clone();
        repeated.seeds_per_point = Some(3);
        assert_eq!(repeated.len(), 12);
        // Repetitions of a point share everything but the seed.
        let points = repeated.points();
        assert_eq!(points[0].routing, points[1].routing);
        assert_eq!(points[0].load, points[1].load);
        assert_ne!(points[0].seed, points[1].seed);
    }

    #[test]
    fn sweep_points_derive_their_seeds_from_grid_position() {
        // 2 traffics x (2 routings x 2 loads) x 2 repetitions from base
        // seed 2: the (routing, load) index restarts in every traffic
        // block, consecutive points are 7919 apart, repetitions
        // 15_485_863 apart. Cached results and published figures depend
        // on these exact values.
        let mut sweep = sample_sweep();
        sweep.traffics = vec![
            TrafficSpec::UniformRandom,
            TrafficSpec::Adversarial { shift: 1 },
        ];
        sweep.seeds_per_point = Some(2);
        let block = [
            (RoutingSpec::Minimal, 0.1, 2),
            (RoutingSpec::Minimal, 0.1, 15_485_865),
            (RoutingSpec::Minimal, 0.3, 7_921),
            (RoutingSpec::Minimal, 0.3, 15_493_784),
            (RoutingSpec::UgalG, 0.1, 15_840),
            (RoutingSpec::UgalG, 0.1, 15_501_703),
            (RoutingSpec::UgalG, 0.3, 23_759),
            (RoutingSpec::UgalG, 0.3, 15_509_622),
        ];
        let points = sweep.points();
        assert_eq!(points.len(), 16);
        for (traffic, chunk) in sweep.traffics.iter().zip(points.chunks(block.len())) {
            for (point, (routing, load, seed)) in chunk.iter().zip(block) {
                assert_eq!(point.traffic, *traffic);
                assert_eq!(point.routing, routing);
                assert_eq!(point.load, Some(load));
                assert_eq!(point.seed, Some(seed), "{routing:?} @ {load}");
            }
        }
    }

    /// `from_toml` / `from_json` of one spec type must refuse a misspelt
    /// and a retired `[engine]` key, naming it and listing the valid ones.
    fn assert_unknown_engine_keys_are_refused<T: std::fmt::Debug>(
        toml: &str,
        json: &str,
        from_toml: fn(&str) -> Result<T, SpecError>,
        from_json: fn(&str) -> Result<T, SpecError>,
    ) {
        assert!(toml.contains("pipeline = false") && json.contains("\"pipeline\""));
        from_toml(toml).expect("the unedited TOML parses");
        from_json(json).expect("the unedited JSON parses");
        let typo = from_toml(&toml.replace("pipeline = false", "pipline = true")).unwrap_err();
        assert!(typo.0.contains("unknown [engine] key `pipline`"), "{typo}");
        assert!(
            typo.0.contains("pipeline") && typo.0.contains("qtable_page_rows_threshold"),
            "lists the valid keys: {typo}"
        );
        let typo = from_json(&json.replace("\"pipeline\"", "\"pipline\"")).unwrap_err();
        assert!(typo.0.contains("unknown [engine] key `pipline`"), "{typo}");
        let retired = "pipeline = false\nscheduler = \"BinaryHeap\"";
        let retired = from_toml(&toml.replace("pipeline = false", retired)).unwrap_err();
        assert!(
            retired.0.contains("unknown [engine] key `scheduler`"),
            "{retired}"
        );
    }

    #[test]
    fn experiment_specs_refuse_unknown_engine_keys() {
        let spec = sample_spec();
        assert_unknown_engine_keys_are_refused(
            &spec.to_toml(),
            &spec.to_json(),
            ExperimentSpec::from_toml,
            ExperimentSpec::from_json,
        );
    }

    #[test]
    fn sweep_specs_refuse_unknown_engine_keys() {
        let mut sweep = sample_sweep();
        sweep.engine = Some(EngineConfig::default());
        assert_unknown_engine_keys_are_refused(
            &sweep.to_toml(),
            &sweep.to_json(),
            SweepSpec::from_toml,
            SweepSpec::from_json,
        );
    }

    #[test]
    fn engine_shards_round_trip_through_scenario_files() {
        use dragonfly_engine::config::ShardKind;
        let mut spec = sample_spec();
        spec.engine.as_mut().unwrap().shards = ShardKind::Fixed(3);
        assert_eq!(ExperimentSpec::from_toml(&spec.to_toml()).unwrap(), spec);
        assert_eq!(ExperimentSpec::from_json(&spec.to_json()).unwrap(), spec);
        spec.engine.as_mut().unwrap().shards = ShardKind::Auto;
        assert_eq!(ExperimentSpec::from_toml(&spec.to_toml()).unwrap(), spec);
        // The TOML key is documented in scenarios/README.md.
        let parsed = ExperimentSpec::from_toml(
            "load = 0.2\nwarmup_ns = 5000\nmeasure_ns = 5000\n[topology]\np = 2\na = 4\nh = 2\n\
             [engine]\npacket_bytes = 128\nlink_bytes_per_ns = 4.0\nlocal_latency_ns = 30\n\
             global_latency_ns = 300\nhost_latency_ns = 10\nrouter_latency_ns = 100\n\
             vc_buffer_packets = 20\noutput_queue_packets = 20\nnum_vcs = 5\n\
             shards = { Fixed = 2 }\n",
        )
        .unwrap();
        assert_eq!(parsed.engine.unwrap().shards, ShardKind::Fixed(2));
    }

    #[test]
    fn sharded_spec_run_matches_unsharded_run_exactly() {
        use dragonfly_engine::config::ShardKind;
        let mut spec = sample_spec();
        spec.series_bin_ns = None;
        spec.tail_ns = 0;
        let single = spec.run();
        spec.engine.as_mut().unwrap().shards = ShardKind::Fixed(2);
        let sharded = spec.run();
        assert_eq!(single.packets_delivered, sharded.packets_delivered);
        assert_eq!(single.mean_latency_us, sharded.mean_latency_us);
        assert_eq!(single.p99_latency_us, sharded.p99_latency_us);
        assert_eq!(single.throughput, sharded.throughput);
        assert_eq!(single.mean_hops, sharded.mean_hops);
        assert_eq!(single.events_processed, sharded.events_processed);
    }

    #[test]
    fn thread_budget_divides_between_sweep_and_shards() {
        assert_eq!(budget_workers(8, 1), 8);
        assert_eq!(budget_workers(8, 4), 2);
        assert_eq!(budget_workers(8, 3), 2);
        assert_eq!(budget_workers(2, 4), 1, "never starves the sweep");
        assert!(budget_workers(0, 1) >= 1, "0 resolves to the CPU count");
        // The default engine (`Auto`): the cores go to points first. With
        // at least as many points as threads each point runs one shard;
        // with fewer, a point takes the threads the others leave free, up
        // to what `Auto` resolves to on this host.
        let mut sweep = sample_sweep();
        assert_eq!(sweep.engine, None);
        let auto = ShardKind::Auto.resolve(sweep.topology.num_domains(), 300);
        assert_eq!(sweep.shards_per_point(8, 8), 1);
        assert_eq!(sweep.shards_per_point(8, 100), 1);
        assert_eq!(sweep.shards_per_point(8, 4), auto.min(2));
        assert_eq!(sweep.shards_per_point(8, 1), auto.min(8));
        assert_eq!(
            budget_workers(8, sweep.shards_per_point(8, 4)),
            8 / auto.min(2),
            "workers x shards stays within the budget"
        );
        let cpus = thread_budget(0);
        assert_eq!(
            sweep.shards_per_point(0, cpus),
            1,
            "a sweep of a point per CPU never oversubscribes"
        );
        // An explicit count is taken as given, whatever the point count.
        sweep.engine = Some(dragonfly_engine::EngineConfig {
            shards: ShardKind::Fixed(2),
            ..Default::default()
        });
        assert_eq!(sweep.shards_per_point(8, 100), 2);
        sweep.engine = Some(dragonfly_engine::EngineConfig {
            shards: ShardKind::Single,
            ..Default::default()
        });
        assert_eq!(sweep.shards_per_point(8, 1), 1);
    }

    #[test]
    fn a_default_engine_sweep_matches_its_sequential_twin() {
        // Points pinned to the shard count of the split report what the
        // sequential engine reports; two threads a point shard them on any
        // multi-core host.
        let mut sweep = sample_sweep();
        sweep.warmup_ns = 2_000;
        sweep.measure_ns = 4_000;
        let sharded = sweep.run_parallel(2 * sweep.len());
        sweep.engine = Some(dragonfly_engine::EngineConfig {
            shards: ShardKind::Single,
            ..Default::default()
        });
        let sequential = sweep.run_parallel(1);
        assert_eq!(sharded.reports.len(), sweep.len());
        for (a, b) in sharded.reports.iter().zip(&sequential.reports) {
            assert_eq!(a.packets_delivered, b.packets_delivered);
            assert_eq!(a.mean_latency_us, b.mean_latency_us);
            assert_eq!(a.p99_latency_us, b.p99_latency_us);
            assert_eq!(a.events_processed, b.events_processed);
        }
    }

    #[test]
    fn workload_specs_round_trip_and_validate() {
        let mut spec = sample_spec();
        spec.traffic = TrafficSpec::UniformRandom;
        spec.workload = Some(WorkloadSpec::AllReduce { messages: 2 });
        spec.load = None;
        assert_eq!(ExperimentSpec::from_toml(&spec.to_toml()).unwrap(), spec);
        assert_eq!(ExperimentSpec::from_json(&spec.to_json()).unwrap(), spec);
        assert_eq!(spec.effective_intensity(), 1.0);
        assert!(spec.label().contains("AllReduce"));
        // A workload intensity may exceed the open-loop load cap of 1.0.
        spec.load = Some(2.5);
        assert!(spec.validate().is_ok());
        assert_eq!(spec.effective_intensity(), 2.5);
        // ...but must stay positive, and cannot mix with a schedule.
        spec.load = Some(0.0);
        assert!(spec.validate().unwrap_err().0.contains("positive"));
        spec.load = None;
        spec.schedule = Some(LoadSchedule::constant(0.4));
        assert!(spec.validate().unwrap_err().0.contains("open-loop"));
        // Workload/topology mismatches surface as friendly spec errors.
        spec.schedule = None;
        spec.workload = Some(WorkloadSpec::HaloExchange {
            phases: 9,
            messages: 1,
            compute_ns: 0,
        });
        assert!(spec.validate().unwrap_err().0.contains("usable axes"));
    }

    #[test]
    fn workload_toml_scenario_parses_from_text() {
        let spec = ExperimentSpec::from_toml(
            "warmup_ns = 0\nmeasure_ns = 100000\nrouting = \"UgalG\"\n\
             [workload.allreduce]\nmessages = 2\n\
             [topology]\np = 2\na = 4\nh = 2\n",
        )
        .unwrap();
        assert_eq!(spec.workload, Some(WorkloadSpec::AllReduce { messages: 2 }));
        assert!(spec.load.is_none());
    }

    #[test]
    fn sweeps_carry_workloads_into_every_point() {
        let mut sweep = sample_sweep();
        sweep.workload = Some(WorkloadSpec::Barrier);
        assert_eq!(SweepSpec::from_toml(&sweep.to_toml()).unwrap(), sweep);
        assert!(sweep.validate().is_ok());
        let points = sweep.points();
        assert!(points
            .iter()
            .all(|p| p.workload == Some(WorkloadSpec::Barrier)));
        // Intensities above 1.0 are legal in workload sweeps...
        sweep.loads = vec![0.5, 2.0];
        assert!(sweep.validate().is_ok());
        // ...but not in open-loop sweeps, and never non-positive.
        sweep.workload = None;
        assert!(sweep.validate().is_err());
        sweep.workload = Some(WorkloadSpec::Barrier);
        sweep.loads = vec![0.0];
        assert!(sweep.validate().unwrap_err().0.contains("positive"));
    }

    #[test]
    fn fault_entries_round_trip_and_parse_from_scenario_syntax() {
        use crate::fault::FaultSpecEntry;
        let mut spec = sample_spec();
        spec.faults = vec![
            FaultSpecEntry::random_global_down(50.0, 0.05, 7),
            FaultSpecEntry::router_down(60.0, 2),
        ];
        assert_eq!(ExperimentSpec::from_toml(&spec.to_toml()).unwrap(), spec);
        assert_eq!(ExperimentSpec::from_json(&spec.to_json()).unwrap(), spec);
        // The documented scenario syntax uses [[faults]] headers.
        let parsed = ExperimentSpec::from_toml(
            "load = 0.2\nwarmup_ns = 5000\nmeasure_ns = 5000\n\
             [topology]\np = 2\na = 4\nh = 2\n\
             [[faults]]\nat_us = 50.0\nkind = \"random_global_down\"\nfraction = 0.05\n\
             [[faults]]\nat_us = 70.0\nkind = \"router_up\"\nrouter = 3\n",
        )
        .unwrap();
        assert_eq!(parsed.faults.len(), 2);
        assert_eq!(parsed.faults[0].fraction, Some(0.05));
        assert_eq!(parsed.faults[1].router, Some(3));
        assert_eq!(parsed.faults[1].at_ns(), 70_000);
    }

    #[test]
    fn bad_fault_entries_name_the_field_and_legal_forms() {
        let err = ExperimentSpec::from_toml(
            "load = 0.2\nwarmup_ns = 5000\nmeasure_ns = 5000\n\
             [topology]\np = 2\na = 4\nh = 2\n\
             [[faults]]\nat_us = 50.0\nkind = \"melt\"\n",
        )
        .unwrap_err()
        .0;
        assert!(err.contains("faults[0]"), "{err}");
        assert!(err.contains("`kind`"), "{err}");
        assert!(err.contains("link_down"), "names the legal forms: {err}");
        // Topology-level target errors surface through validate() too.
        let err = ExperimentSpec::from_toml(
            "load = 0.2\nwarmup_ns = 5000\nmeasure_ns = 5000\n\
             [topology]\np = 2\na = 4\nh = 2\n\
             [[faults]]\nat_us = 50.0\nkind = \"router_down\"\nrouter = 999\n",
        )
        .unwrap_err()
        .0;
        assert!(err.contains("router 999"), "{err}");
        // Sweeps validate their shared fault list the same way.
        let mut sweep = sample_sweep();
        sweep.faults = vec![crate::fault::FaultSpecEntry::router_down(1.0, 999)];
        assert!(sweep.validate().unwrap_err().0.contains("router 999"));
        sweep.faults = vec![crate::fault::FaultSpecEntry::router_down(1.0, 3)];
        assert!(sweep.validate().is_ok());
        assert!(sweep.points().iter().all(|p| p.faults == sweep.faults));
    }

    #[test]
    fn metrics_mode_parses_round_trips_and_stays_out_of_legacy_files() {
        // An unset `[metrics]` table must not appear in TOML output
        // (keeps older scenario files byte-identical), and files from
        // before the field existed must still parse in both encodings.
        let spec = sample_spec();
        assert!(!spec.to_toml().contains("[metrics]"));
        let legacy = ExperimentSpec::from_json(
            r#"{"topology": {"p": 2, "a": 4, "h": 2},
                "load": 0.2, "warmup_ns": 5000, "measure_ns": 5000}"#,
        )
        .unwrap();
        assert_eq!(legacy.metrics, None);
        // The documented scenario syntax.
        let parsed = ExperimentSpec::from_toml(
            "load = 0.2\nwarmup_ns = 5000\nmeasure_ns = 5000\n\
             [topology]\np = 2\na = 4\nh = 2\n\
             [metrics]\nmode = \"Streaming\"\n",
        )
        .unwrap();
        assert_eq!(
            parsed.metrics,
            Some(MetricsSpec {
                mode: MetricsMode::Streaming
            })
        );
        assert_eq!(
            ExperimentSpec::from_toml(&parsed.to_toml()).unwrap(),
            parsed
        );
        assert_eq!(
            ExperimentSpec::from_json(&parsed.to_json()).unwrap(),
            parsed
        );
        // Sweeps share the knob with every point.
        let mut sweep = sample_sweep();
        sweep.metrics = Some(MetricsSpec {
            mode: MetricsMode::Streaming,
        });
        assert_eq!(SweepSpec::from_toml(&sweep.to_toml()).unwrap(), sweep);
        assert!(sweep.points().iter().all(|p| p.metrics == sweep.metrics));
    }

    #[test]
    fn streaming_spec_reports_match_exact_within_one_sketch_bucket() {
        let mut exact = sample_spec();
        exact.series_bin_ns = None;
        exact.tail_ns = 0;
        let mut streaming = exact.clone();
        streaming.metrics = Some(MetricsSpec {
            mode: MetricsMode::Streaming,
        });
        let a = exact.run();
        let b = streaming.run();
        // Counting metrics are mode-independent; means are exact in both
        // modes (integer sums); quantiles agree within one sketch bucket
        // (the sketch reports the bucket lower bound, so streamed values
        // are <= exact and within the <=1/64 relative bucket width).
        assert_eq!(a.packets_delivered, b.packets_delivered);
        assert_eq!(a.mean_latency_us, b.mean_latency_us);
        assert_eq!(a.mean_hops, b.mean_hops);
        assert_eq!(a.max_latency_us, b.max_latency_us);
        assert_eq!(a.fraction_below_2us, b.fraction_below_2us);
        for (ex, st) in [
            (a.median_latency_us, b.median_latency_us),
            (a.p95_latency_us, b.p95_latency_us),
            (a.p99_latency_us, b.p99_latency_us),
        ] {
            assert!(
                st <= ex + 1e-9 && ex - st <= ex / 60.0 + 1e-9,
                "streamed quantile {st} vs exact {ex}"
            );
        }
        assert!(b.memory_bytes > 0, "report carries the memory rollup");
    }

    #[test]
    fn empty_lists_fall_back_to_paper_defaults() {
        let sweep = SweepSpec::from_toml(
            "loads = [0.2]\nwarmup_ns = 1000\nmeasure_ns = 1000\n[topology]\np = 2\na = 4\nh = 2\n",
        )
        .unwrap();
        assert_eq!(sweep.effective_routings(), RoutingSpec::paper_lineup());
        assert_eq!(sweep.effective_traffics(), vec![TrafficSpec::UniformRandom]);
        assert_eq!(sweep.len(), 6);
    }
}
