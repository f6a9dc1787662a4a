//! Helpers shared by the determinism and checkpoint/resume suites: put a
//! spec into one execution mode, and compare two reports on every field of
//! the bit-for-bit contract.

// Each suite is its own crate and uses a subset of these.
#![allow(dead_code)]

use dragonfly_engine::config::ShardKind;
use dragonfly_metrics::report::SimulationReport;
use dragonfly_sim::spec::ExperimentSpec;

/// `spec` with only its execution mode (shards × pipeline) overridden,
/// keeping any other engine knobs it already carries.
pub fn in_mode(mut spec: ExperimentSpec, shards: ShardKind, pipeline: bool) -> ExperimentSpec {
    let mut engine = spec.engine.unwrap_or_default();
    engine.shards = shards;
    engine.pipeline = pipeline;
    spec.engine = Some(engine);
    spec
}

/// Run `spec` under one execution mode.
pub fn run_mode(spec: ExperimentSpec, shards: ShardKind, pipeline: bool) -> SimulationReport {
    in_mode(spec, shards, pipeline).run()
}

/// Every report field must match, except the two outside the contract
/// (`wall_seconds`, `memory_bytes` — see
/// [`SimulationReport::first_difference`]); the failure names the first
/// diverging field and both values.
pub fn assert_same_report(reference: &SimulationReport, got: &SimulationReport, label: &str) {
    if let Some(diff) = reference.first_difference(got) {
        panic!("{label}: reports diverge at {diff}");
    }
}
