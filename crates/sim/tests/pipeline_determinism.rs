//! Both sharded grids — pipelined half windows and lockstep windows — are
//! bit-for-bit the sequential run on the real routing algorithms, through
//! the full spec → report pipeline: the cases of the sim mode matrix
//! ([`mode_matrix`]) that this suite runs, each in every execution mode and
//! one split cell; and the spec layer carries the `pipeline` flag.

mod common;
mod mode_matrix;

use dragonfly_engine::config::{EngineConfig, ShardKind};
use dragonfly_sim::spec::ExperimentSpec;
use dragonfly_topology::config::DragonflyConfig;
use mode_matrix::{run, Slice};

#[test]
fn ugal_random_workloads_are_pipeline_invariant() {
    run(Slice::DrawnUgal);
}

#[test]
fn qadaptive_random_workloads_are_pipeline_invariant() {
    run(Slice::DrawnQAdaptive);
}

#[test]
fn fattree_and_hyperx_workloads_are_pipeline_invariant() {
    run(Slice::FatTreeAndHyperXAdversarial);
}

#[test]
fn closed_loop_workloads_are_pipeline_invariant() {
    run(Slice::HaloAndBarrier);
}

/// A router dies mid-collective and comes back: the windows a fault fires
/// in commit as the sequential run does.
#[test]
fn faulted_workloads_are_pipeline_invariant() {
    run(Slice::ClosedLoopFaults);
}

#[test]
fn auto_sharding_with_pipelining_matches_single() {
    run(Slice::AutoShardingPipelined);
}

/// The streaming sketch and paged Q-tables: paging is an axis of the
/// matrix's modes.
#[test]
fn streaming_metrics_and_paged_tables_are_pipeline_invariant() {
    run(Slice::StreamingQRouting);
}

#[test]
fn pipeline_flag_round_trips_through_scenario_files() {
    // The spec layer must carry `engine.pipeline` losslessly in both
    // encodings, and files that predate the field must default to `true`.
    let spec = ExperimentSpec {
        load: Some(0.2),
        warmup_ns: 12_000,
        measure_ns: 20_000,
        seed: Some(5),
        engine: Some(EngineConfig {
            pipeline: false,
            shards: ShardKind::Fixed(2),
            ..Default::default()
        }),
        ..ExperimentSpec::new(DragonflyConfig { p: 2, a: 4, h: 2 })
    };
    assert_eq!(ExperimentSpec::from_toml(&spec.to_toml()).unwrap(), spec);
    assert_eq!(ExperimentSpec::from_json(&spec.to_json()).unwrap(), spec);
    // A pre-pipeline scenario file (no `pipeline` key) gets the default.
    let legacy = ExperimentSpec::from_toml(
        "load = 0.2\nwarmup_ns = 5000\nmeasure_ns = 5000\n[topology]\np = 2\na = 4\nh = 2\n\
         [engine]\npacket_bytes = 128\nlink_bytes_per_ns = 4.0\nlocal_latency_ns = 30\n\
         global_latency_ns = 300\nhost_latency_ns = 10\nrouter_latency_ns = 100\n\
         vc_buffer_packets = 20\noutput_queue_packets = 20\nnum_vcs = 5\n\
         shards = { Fixed = 2 }\n",
    )
    .unwrap();
    assert!(
        legacy.engine.unwrap().pipeline,
        "scenario files without the key default to the pipelined engine"
    );
}
