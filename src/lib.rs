//! # qadaptive — facade crate
//!
//! A from-scratch Rust reproduction of *"Q-adaptive: A Multi-Agent
//! Reinforcement Learning Based Routing on Dragonfly Network"* (HPDC 2021).
//!
//! This crate re-exports the whole workspace under a single name so that
//! examples, integration tests and downstream users can depend on one
//! crate:
//!
//! * [`topology`] — the topology abstraction (`Topology` trait, locality
//!   domains) with three implementations: the paper's Dragonfly, a
//!   three-level fat-tree and a 2-D HyperX, selectable from scenario
//!   files via the tagged `TopologySpec`.
//! * [`engine`] — the flit-level, event-driven network simulator substrate
//!   (routers with virtual channels, credit-based flow control, links).
//! * [`core`] — the paper's contribution: the two-level Q-table, hysteretic
//!   Q-learning, and the Q-adaptive routing agent.
//! * [`routing`] — every routing algorithm evaluated by the paper
//!   (MIN, VALg, VALn, UGALg, UGALn, PAR, Q-routing, Q-adaptive).
//! * [`traffic`] — traffic patterns (UR, ADV+i, 3D Stencil, Many-to-Many,
//!   Random Neighbors) and dynamic load schedules.
//! * [`metrics`] — latency/throughput/hop statistics and time series.
//! * [`sim`] — the experiment harness: **one description of an
//!   experiment** ([`sim::spec::ExperimentSpec`], with
//!   [`sim::spec::SweepSpec`] for grids of them, both loadable from the
//!   TOML/JSON scenario files under `scenarios/`) and **one staged driver**
//!   ([`sim::builder::Simulation`]: start or resume → advance → snapshot →
//!   report) that every run, sweep, convergence study, figure and CLI
//!   command goes through.
//!
//! ## Quickstart
//!
//! Experiments are *data*: one [`ExperimentSpec`] value describes the
//! topology, routing, traffic, load and measurement windows of a run, and
//! the same value round-trips through TOML/JSON scenario files (see
//! `scenarios/README.md`) and the `qadaptive-cli` binary.
//!
//! ```
//! use qadaptive::prelude::*;
//!
//! // A small Dragonfly (p=2, a=4, h=2 → 72 nodes) under uniform-random
//! // traffic, routed by Q-adaptive. Fields are plain and public; start
//! // from `ExperimentSpec::new` and name the ones that differ.
//! let spec = ExperimentSpec {
//!     routing: RoutingSpec::QAdaptive(QAdaptiveParams::default()),
//!     load: Some(0.3),
//!     warmup_ns: 20_000,
//!     measure_ns: 20_000,
//!     seed: Some(7),
//!     ..ExperimentSpec::new(DragonflyConfig::new(2, 4, 2).unwrap())
//! };
//!
//! let report = spec.run();
//! assert!(report.packets_delivered > 0);
//!
//! // The exact same experiment as a scenario file:
//! let round_tripped = ExperimentSpec::from_toml(&spec.to_toml()).unwrap();
//! assert_eq!(round_tripped, spec);
//! ```
//!
//! `run()` is three of the four stages of the one driver, [`Simulation`],
//! back to back: `Simulation::start(&spec)` validates the spec and builds
//! its engine, `advance_to(t)` applies the stopping rule (open loop: to the
//! clock; closed loop: to drain), `report()` assembles the
//! [`SimulationReport`]. The fourth stage, `snapshot()`, captures a
//! resumable checkpoint that `Simulation::resume` continues bit for bit at
//! any shard count — see the example on [`Simulation`].
//!
//! Grids over routings × loads × traffics × seeds are [`SweepSpec`]s:
//!
//! ```no_run
//! use qadaptive::prelude::*;
//!
//! let sweep = SweepSpec::paper_lineup(
//!     DragonflyConfig::paper_1056(),
//!     TrafficSpec::Adversarial { shift: 1 },
//!     vec![0.1, 0.2, 0.3, 0.4, 0.5],
//!     120_000,
//!     40_000,
//! );
//! let result = sweep.run_parallel(0); // one worker per CPU
//! println!("{}", result.to_csv());
//! ```
//!
//! [`ExperimentSpec`]: sim::spec::ExperimentSpec
//! [`SweepSpec`]: sim::spec::SweepSpec
//! [`Simulation`]: sim::builder::Simulation
//! [`SimulationReport`]: metrics::SimulationReport

pub use dragonfly_engine as engine;
pub use dragonfly_metrics as metrics;
pub use dragonfly_routing as routing;
pub use dragonfly_sim as sim;
pub use dragonfly_topology as topology;
pub use dragonfly_traffic as traffic;
pub use qadaptive_core as core;

/// Commonly used types, re-exported for convenience.
pub mod prelude {
    pub use dragonfly_engine::config::EngineConfig;
    pub use dragonfly_metrics::latency::LatencyStats;
    pub use dragonfly_metrics::report::SimulationReport;
    pub use dragonfly_routing::RoutingSpec;
    pub use dragonfly_sim::builder::Simulation;
    pub use dragonfly_sim::spec::{ExperimentSpec, SweepSpec};
    pub use dragonfly_sim::sweep::SweepResult;
    pub use dragonfly_topology::config::DragonflyConfig;
    pub use dragonfly_topology::{
        AnyTopology, Dragonfly, FatTree, FatTreeConfig, HyperX, HyperXConfig, Topology,
        TopologySpec,
    };
    pub use dragonfly_traffic::TrafficSpec;
    pub use qadaptive_core::params::QAdaptiveParams;
}
