//! # dragonfly-sim
//!
//! The experiment harness: glues the topology, the flit-level engine, the
//! routing algorithms, the traffic patterns and the metric collectors into
//! runnable experiments.
//!
//! * [`injector::PatternInjector`] — converts a traffic pattern plus an
//!   offered-load schedule into the time-ordered injection stream the
//!   engine consumes (deterministic inter-arrival interval per node, with a
//!   random per-node phase).
//! * [`collector::MetricsCollector`] — a [`dragonfly_engine::SimObserver`]
//!   that applies the paper's measurement methodology: ignore a warmup
//!   period, then collect latency/hop/throughput statistics over the
//!   measurement window (the paper averages over 100 µs after the system
//!   stabilises) and optionally a binned time series.
//! * [`builder::Simulation`] — **the one staged driver**: `start` (or
//!   `resume` from a snapshot) builds the engine a spec describes,
//!   `advance_to` applies the stopping rule, `snapshot` captures a
//!   resumable [`RunCheckpoint`], `report` assembles the
//!   [`dragonfly_metrics::SimulationReport`]. Every front-end below reaches
//!   the engine through these four stages.
//! * [`checkpoint`] — snapshot files: [`RunCheckpoint`] and its `QADBIN`
//!   byte stream, written and read without an intermediate tree.
//! * [`fault`] — serialisable fault injection (`[[faults]]` scenario
//!   sections): link/router kill+restore events and seeded random
//!   global-link loss, compiled into the engine's deterministic
//!   [`dragonfly_engine::fault::FaultSchedule`].
//! * [`spec`] — **the one description of an experiment**:
//!   [`spec::ExperimentSpec`] (one run: plain public fields, loadable from
//!   TOML/JSON scenario files, `run` / `run_with_series` /
//!   `run_checkpointed` compose the stages above) and [`spec::SweepSpec`]
//!   (cartesian grids of runs). Every figure/table of the paper and every
//!   scenario file in `scenarios/` is expressed as one of these two values.
//! * [`sweep`] — parallel execution of a sweep's points with crossbeam
//!   scoped threads (each point is an independent simulation) and the
//!   [`sweep::SweepResult`] they produce.
//! * [`convergence`] — helpers for the convergence and dynamic-load studies
//!   (Figures 7 and 8).

mod binary;
pub mod builder;
pub mod checkpoint;
pub mod collector;
pub mod convergence;
pub mod fault;
pub mod injector;
pub mod spec;
pub mod sweep;

pub use builder::Simulation;
pub use checkpoint::RunCheckpoint;
pub use collector::MetricsCollector;
pub use fault::{compile_faults, FaultSpecEntry};
pub use injector::PatternInjector;
pub use spec::{ExperimentSpec, SweepSpec};
pub use sweep::SweepResult;
