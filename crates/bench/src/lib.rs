//! # dragonfly-bench
//!
//! The figure registry and result cache behind `qadaptive-cli figure`.
//! (Performance is measured by the separate `benchmark/` package, see
//! `BENCHMARK.json`; nothing here times anything.)
//!
//! | `figure <id>` | Paper artefact |
//! |---|---|
//! | `table1` | Table 1 — Dragonfly configurations |
//! | `fig5` | Figure 5 — latency / throughput / hops vs offered load (1,056 nodes) |
//! | `fig6` | Figure 6 — packet-latency distribution and tail latency (1,056 nodes) |
//! | `fig7` | Figure 7 — convergence from an empty network |
//! | `fig8` | Figure 8 — dynamic offered loads |
//! | `fig9` | Figure 9 — 2,550-node case study (UR, ADV+1, Stencil, Many-to-Many, Random Neighbors) |
//! | `maxq` | Section 2.3.2 — why naive Q-routing needs a per-pattern maxQ |
//! | `memory` | Section 4 — two-level Q-table memory claim |
//!
//! `qadaptive-cli list` prints the full catalog (it also holds the
//! non-paper `jct`, `resilience` and `scale` studies). Every figure runs
//! in quick mode (reduced simulated time, fewer load points) or full mode
//! (paper-scale measurement windows) — see [`harness::BenchArgs`].
//!
//! The [`figures`] registry expresses every artefact as data —
//! serialisable [`dragonfly_sim::spec::SweepSpec`] /
//! [`dragonfly_sim::spec::ExperimentSpec`] values — plus shared rendering
//! and CSV/JSON export; [`cache`] serves unchanged simulation points from
//! disk across invocations.

pub mod cache;
pub mod figures;
pub mod harness;

pub use cache::{run_sweep_cached, ResultCache};
pub use figures::{run_figure, FigurePlan, FigureResult};
pub use harness::{BenchArgs, RunMode};
