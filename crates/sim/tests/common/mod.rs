//! Helpers shared by the mode matrix and the checkpoint suites: put a spec
//! into one execution mode, compare two reports on every field of the
//! bit-for-bit contract, and send a snapshot through its file encoding
//! with the tree encoder it replaced as the referee.

// Each suite is its own crate and uses a subset of these.
#![allow(dead_code)]

pub mod tree_codec;

use dragonfly_engine::config::ShardKind;
use dragonfly_metrics::report::SimulationReport;
use dragonfly_sim::checkpoint::RunCheckpoint;
use dragonfly_sim::spec::ExperimentSpec;
use serde::Serialize;

/// `spec` with only its execution mode (shards × pipeline) overridden,
/// keeping any other engine knobs it already carries.
pub fn in_mode(mut spec: ExperimentSpec, shards: ShardKind, pipeline: bool) -> ExperimentSpec {
    let mut engine = spec.engine.unwrap_or_default();
    engine.shards = shards;
    engine.pipeline = pipeline;
    spec.engine = Some(engine);
    spec
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

/// `ck` as a later process would load it: encoded and decoded. On the way,
/// the differential check of the streaming codec: the bytes are the ones
/// the tree encoder writes for the same snapshot, and the decoded snapshot
/// encodes to them again.
pub fn through_the_file_encoding(ck: &RunCheckpoint) -> RunCheckpoint {
    let bytes = ck.to_binary();
    assert!(
        bytes == tree_codec::value_to_vec(&ck.to_value()),
        "{}: the streaming writer and the tree encoder disagree",
        ck.spec.name
    );
    let back = RunCheckpoint::from_binary(&bytes).expect("a snapshot just written decodes");
    assert!(
        back.to_binary() == bytes,
        "{}: decoding and re-encoding changed the bytes",
        ck.spec.name
    );
    back
}

/// Q-adaptive under ADV+1 on the smallest Dragonfly there is (`p=1, a=2,
/// h=1`: 3 groups, 6 routers, 6 nodes).
pub fn smallest_spec() -> ExperimentSpec {
    ExperimentSpec {
        name: "smallest".to_string(),
        routing: dragonfly_routing::RoutingSpec::QAdaptive(
            qadaptive_core::QAdaptiveParams::paper_1056(),
        ),
        traffic: dragonfly_traffic::TrafficSpec::Adversarial { shift: 1 },
        load: Some(0.3),
        warmup_ns: 200,
        measure_ns: 1_000,
        seed: Some(5),
        ..ExperimentSpec::new(dragonfly_topology::config::DragonflyConfig { p: 1, a: 2, h: 1 })
    }
}

/// Q-adaptive under ADV+1 at load 0.6 on the 72-node Dragonfly: by
/// [`CONGESTED_CUT_NS`] the fabric is full and the NICs queue.
pub fn congested_spec() -> ExperimentSpec {
    ExperimentSpec {
        name: "congested".to_string(),
        routing: dragonfly_routing::RoutingSpec::QAdaptive(
            qadaptive_core::QAdaptiveParams::paper_1056(),
        ),
        traffic: dragonfly_traffic::TrafficSpec::Adversarial { shift: 1 },
        load: Some(0.6),
        warmup_ns: 3_000,
        measure_ns: 6_000,
        seed: Some(31),
        ..ExperimentSpec::new(dragonfly_topology::config::DragonflyConfig::tiny())
    }
}

/// Where [`congested_snapshot`] cuts.
pub const CONGESTED_CUT_NS: u64 = 5_000;

/// [`congested_spec`] cut at [`CONGESTED_CUT_NS`] with packets queued at
/// NICs, in router buffers and on links.
pub fn congested_snapshot() -> RunCheckpoint {
    use dragonfly_engine::event::EventKind;
    use dragonfly_sim::builder::Simulation;
    let mut sim = Simulation::start(&congested_spec()).expect("valid spec");
    assert!(sim.advance_to(CONGESTED_CUT_NS), "the cut is mid-run");
    let ck = sim.snapshot();
    let shard = &ck.engine.shard;
    assert!(
        !shard.backlog.is_empty()
            && shard.routers.iter().any(|r| r.buffered_packets() > 0)
            && shard
                .queue
                .events
                .iter()
                .any(|e| matches!(e.kind, EventKind::RouterArrive { .. })),
        "the snapshot must hold packets at NICs, in routers and on links"
    );
    ck
}

/// A real snapshot small enough to damage byte by byte: [`smallest_spec`]
/// cut with learning state, queued packets and pending events in it.
pub fn smallest_snapshot() -> RunCheckpoint {
    use dragonfly_sim::builder::Simulation;
    let spec = smallest_spec();
    let mut sim = Simulation::start(&spec).expect("valid spec");
    assert!(sim.advance_to(300), "the cut is mid-run");
    let ck = sim.snapshot();
    let shard = &ck.engine.shard;
    assert!(
        !shard.arena.is_empty() && !shard.queue.events.is_empty(),
        "the snapshot must hold packets in flight"
    );
    ck
}
