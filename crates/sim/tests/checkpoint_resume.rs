//! Checkpoint/resume through the spec pipeline: the cases of the sim mode
//! matrix ([`mode_matrix`]) that this suite runs — faulted and mid-collective
//! cuts, learning state, streaming metrics, congested cuts — each in every
//! execution mode and one split cell (snapshot in one mode, resume in
//! another); then what no mode changes — the spec guard, the one file
//! format, the disk round trip, the sink's error, the staged API, and the
//! refusal of damaged snapshots, naming what is wrong.

mod common;
mod mode_matrix;

use common::{assert_same_report, in_mode, through_the_file_encoding};
use dragonfly_engine::config::{EngineConfig, ShardKind};
use dragonfly_metrics::report::SimulationReport;
use dragonfly_routing::RoutingSpec;
use dragonfly_sim::builder::Simulation;
use dragonfly_sim::checkpoint::RunCheckpoint;
use dragonfly_sim::fault::FaultSpecEntry;
use dragonfly_sim::spec::ExperimentSpec;
use dragonfly_topology::config::DragonflyConfig;
use dragonfly_workload::WorkloadSpec;
use mode_matrix::{run, Slice};
use qadaptive_core::QAdaptiveParams;
use serde::{Serialize, Value};

/// A faulted open-loop base spec on the tiny Dragonfly.
fn openloop_spec(routing: RoutingSpec, seed: u64) -> ExperimentSpec {
    ExperimentSpec {
        name: format!("ck-{routing:?}"),
        routing,
        load: Some(0.3),
        warmup_ns: 15_000,
        measure_ns: 30_000,
        tail_ns: 5_000,
        seed: Some(seed),
        series_bin_ns: Some(5_000),
        faults: vec![
            FaultSpecEntry::random_global_down(20.0, 0.05, 11),
            FaultSpecEntry::router_down(25.0, 1),
            FaultSpecEntry::router_up(40.0, 1),
        ],
        ..ExperimentSpec::new(DragonflyConfig::tiny())
    }
}

/// A closed-loop AllReduce spec with a mid-collective router kill and
/// restore (exercises NIC retransmits, retry counters and task state
/// across the checkpoint boundary).
fn closedloop_spec(seed: u64) -> ExperimentSpec {
    ExperimentSpec {
        name: "ck-allreduce".to_string(),
        routing: RoutingSpec::UgalG,
        workload: Some(WorkloadSpec::AllReduce { messages: 2 }),
        load: Some(1.0),
        warmup_ns: 0,
        measure_ns: 10_000_000,
        seed: Some(seed),
        faults: vec![
            FaultSpecEntry::router_down(5.0, 2),
            FaultSpecEntry::router_up(60.0, 2),
        ],
        ..ExperimentSpec::new(DragonflyConfig::tiny())
    }
}

/// Run `spec` to the end, collecting a snapshot every `every_ns`.
fn run_collecting(spec: &ExperimentSpec, every_ns: u64) -> (SimulationReport, Vec<RunCheckpoint>) {
    let mut checkpoints = Vec::new();
    let report = spec
        .run_checkpointed(None, Some(every_ns), |ck| {
            checkpoints.push(ck);
            Ok(())
        })
        .expect("stepped run succeeds");
    (report, checkpoints)
}

/// Continue `spec` from `checkpoint` to the end of the run.
fn resume(spec: &ExperimentSpec, checkpoint: &RunCheckpoint) -> SimulationReport {
    spec.run_checkpointed(Some(checkpoint.clone()), None, |_| Ok(()))
        .unwrap_or_else(|e| panic!("resume of {:?} failed: {e}", spec.name))
}

#[test]
fn openloop_ugal_resume_is_bit_identical_across_faults() {
    run(Slice::ResumeUgalFaults);
}

/// Per-router RNG streams and Q-tables are in the compared snapshot
/// section: a resume that lost them would diverge there first.
#[test]
fn qadaptive_learning_state_survives_resume() {
    run(Slice::ResumeQAdaptive);
}

/// A router killed mid-collective forces retransmissions, and the restored
/// router lets every rank finish.
#[test]
fn closedloop_allreduce_resume_preserves_retransmit_state() {
    run(Slice::ResumeRetransmits);
}

/// Log-binned sketch counters ride the collector's section; paging is an
/// axis of the matrix's modes.
#[test]
fn streaming_sketch_and_paged_tables_survive_resume() {
    run(Slice::ResumeStreaming);
}

#[test]
fn sharded_pipelined_checkpoint_resumes_at_any_shard_count() {
    run(Slice::ResumeBeforeTheKill);
}

#[test]
fn sharded_qadaptive_checkpoint_resumes_across_modes() {
    run(Slice::ResumeQAdaptiveOnHyperX);
}

/// Locality domains are fat-tree pods or HyperX rows instead of Dragonfly
/// groups.
#[test]
fn sharded_checkpoints_are_fabric_generic() {
    run(Slice::ResumeOnFatTreeAndHyperX);
}

#[test]
fn sharded_closedloop_resume_preserves_midcollective_state() {
    run(Slice::ResumeMidCollective);
}

/// The canonical form numbers arena slots by one walk over the whole
/// system, so a cut with packets at NICs, in routers and on links is the
/// same snapshot in every mode.
#[test]
fn a_sharded_snapshot_is_the_single_shard_snapshot() {
    run(Slice::CongestedSnapshot);
}

/// Every split cell checks that the resumed run's first snapshot is the one
/// it resumed from.
#[test]
fn snapshot_restore_snapshot_is_a_fixpoint() {
    run(Slice::LateCongestedSnapshot);
}

/// A `repeat` runs as one loop body per rank: a cut inside it resumes, in
/// every mode, to the uninterrupted run.
#[test]
fn a_looped_job_resumes_mid_loop() {
    run(Slice::ResumeMidLoop);
}

#[test]
fn resume_under_a_different_spec_is_rejected() {
    let spec = openloop_spec(RoutingSpec::UgalG, 44);
    let (_, checkpoints) = run_collecting(&spec, 15_000);
    let mut other = spec.clone();
    other.seed = Some(999);
    let err = other
        .run_checkpointed(Some(checkpoints[0].clone()), None, |_| Ok(()))
        .expect_err("spec mismatch must be rejected");
    assert!(
        err.0.contains("differs"),
        "error explains the mismatch: {err}"
    );
}

#[test]
fn only_v4_binary_checkpoint_files_load() {
    // One container, one tag: the saved file resumes to the exact report
    // of the uninterrupted run — learning state included, so Q-adaptive
    // is the algorithm under test — while the same snapshot as JSON text
    // or under the retired v3 or v4 tag is refused, naming the file and
    // the tag this build reads.
    use dragonfly_sim::checkpoint::CHECKPOINT_VERSION;
    let spec = openloop_spec(RoutingSpec::QAdaptive(QAdaptiveParams::paper_1056()), 49);
    let reference = spec.run();

    let (_, checkpoints) = run_collecting(&spec, 18_000);
    let ck = checkpoints.last().unwrap();

    let dir = std::env::temp_dir().join("qadaptive-ck-crossformat-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("cross.ckpt");
    ck.save(&path).unwrap();
    let loaded = RunCheckpoint::load(&path).unwrap();
    assert_eq!(loaded.version, CHECKPOINT_VERSION);
    assert_same_report(&reference, &resume(&spec, &loaded), "file resume");

    let tagged = |tag: &str| {
        let mut old = ck.clone();
        old.version = format!("qadaptive-checkpoint-{tag}");
        old.to_binary()
    };
    for (what, bytes) in [
        ("JSON text", ck.to_json().into_bytes()),
        ("v3 tag", tagged("v3")),
        ("v4 tag", tagged("v4")),
    ] {
        std::fs::write(&path, bytes).unwrap();
        let err = RunCheckpoint::load(&path).expect_err(what);
        assert!(
            err.0.contains("cross.ckpt") && err.0.contains(CHECKPOINT_VERSION),
            "{what}: error names the file and the supported tag: {err}"
        );
    }
    std::fs::remove_file(&path).ok();
}

/// A closed-loop snapshot stores each rank's counters, not its program:
/// cut in the first iteration of a repeated halo exchange + all-reduce, the
/// `engine` section is as long at 20 repeats as at 2, and each resumes to
/// its uninterrupted report.
#[test]
fn a_closed_loop_snapshot_does_not_grow_with_the_repeat_count() {
    use dragonfly_workload::WorkloadSpec::{AllReduce, HaloExchange, Repeat, Sequence};
    const CUT_NS: u64 = 2_000;
    let mut lengths = Vec::new();
    for times in [2, 20] {
        let body = Sequence(vec![
            HaloExchange {
                phases: 2,
                messages: 8,
                compute_ns: 500,
            },
            AllReduce { messages: 4 },
        ]);
        let spec = ExperimentSpec {
            name: format!("halo-allreduce-x{times}"),
            routing: RoutingSpec::UgalG,
            workload: Some(Repeat {
                times,
                body: Box::new(body),
            }),
            load: Some(1.0),
            warmup_ns: 0,
            measure_ns: 10_000_000,
            seed: Some(3),
            ..ExperimentSpec::new(DragonflyConfig::tiny())
        };
        let mut sim = Simulation::start(&spec).expect("valid spec");
        assert!(sim.advance_to(CUT_NS), "x{times}: the cut is mid-run");
        let cut = through_the_file_encoding(&sim.snapshot());
        // Every rank is still in its first iteration of `times`.
        let workload = spec.workload.as_ref().expect("a closed-loop spec");
        let programs = workload
            .compile(&spec.topology.build(), spec.effective_intensity())
            .expect("the spec compiles");
        for (node, task) in cut.engine.shard.tasks.iter().enumerate() {
            let Some(&Value::Int(pc)) = task.to_value().get("pc") else {
                panic!("node {node}: a task's pc is an integer");
            };
            assert!(
                pc as usize * (times as usize) < programs[node].len(),
                "x{times}: node {node} is past its first iteration at the cut"
            );
        }
        sim.advance_to(spec.total_ns());
        let mut resumed = Simulation::resume(&spec, &cut).expect("the same spec");
        resumed.advance_to(spec.total_ns());
        assert_same_report(&sim.report(), &resumed.report(), &spec.name);
        lengths.push(common::tree_codec::value_to_vec(&cut.engine.to_value()).len());
    }
    assert_eq!(
        lengths[0], lengths[1],
        "the engine section at 2 and at 20 repeats"
    );
}

#[test]
fn checkpoint_files_round_trip_through_disk() {
    // The persistence path the CLI uses: save the last checkpoint to a
    // file, load it back, resume — identical report.
    let spec = openloop_spec(RoutingSpec::UgalG, 45);
    let reference = spec.run();

    let (_, checkpoints) = run_collecting(&spec, 18_000);
    let dir = std::env::temp_dir().join("qadaptive-ck-resume-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("mid.ckpt");
    checkpoints.last().unwrap().save(&path).unwrap();

    let loaded = RunCheckpoint::load(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert_same_report(&reference, &resume(&spec, &loaded), "file round trip");
}

#[test]
fn failing_sink_stops_the_run_at_the_first_snapshot() {
    // The sink's first error ends the run there: no later snapshot is
    // taken and no report is produced for a result the caller cannot keep.
    let spec = openloop_spec(RoutingSpec::UgalG, 50);
    let mut offered = 0;
    let err = spec
        .run_checkpointed(None, Some(12_000), |_| {
            offered += 1;
            Err(dragonfly_sim::spec::SpecError("disk full".to_string()))
        })
        .expect_err("the sink's error is returned");
    assert_eq!((offered, err.0.as_str()), (1, "disk full"));
}

#[test]
fn staged_run_snapshot_and_resume_agree_with_run() {
    // What only the staged API can say: one `Simulation` advanced to a
    // cut, snapshotted and advanced to the end reports what a second one
    // resumed from that snapshot reports, and both report what `run()`
    // does — open loop with learning state, and closed loop to drain.
    let openloop = openloop_spec(RoutingSpec::QAdaptive(QAdaptiveParams::paper_1056()), 51);
    for (spec, cut_ns) in [(openloop, 22_000), (closedloop_spec(9), 30_000)] {
        let end = spec.total_ns();
        let mut first = Simulation::start(&spec).expect("valid spec");
        assert!(
            first.advance_to(cut_ns),
            "{}: the cut is mid-run",
            spec.name
        );
        let snapshot = first.snapshot();
        first.advance_to(end);
        let mut second = Simulation::resume(&spec, &snapshot).expect("same spec");
        assert_eq!(second.now(), snapshot.engine.now);
        second.advance_to(end);
        let reference = spec.run();
        assert!(reference.packets_delivered > 100, "{}", spec.name);
        assert_same_report(&reference, &first.report(), "uninterrupted stages vs run()");
        assert_same_report(&reference, &second.report(), "resumed stages vs run()");
    }
}

/// The smallest system with paged tables under uniform random traffic
/// (under ADV+1 a router learns about one destination group only), cut at
/// 900 ns: agent sections then list several written rows.
fn smallest_paged_snapshot() -> (ExperimentSpec, RunCheckpoint) {
    let spec = ExperimentSpec {
        traffic: dragonfly_traffic::TrafficSpec::UniformRandom,
        engine: Some(EngineConfig {
            qtable_page_rows_threshold: 0,
            ..Default::default()
        }),
        ..common::smallest_spec()
    };
    let mut sim = Simulation::start(&spec).expect("valid spec");
    assert!(sim.advance_to(900), "the cut is mid-run");
    (spec, sim.snapshot())
}

#[test]
fn a_snapshot_with_a_bad_q_row_list_is_refused_not_restored() {
    // Every one of these decodes: the codec knows lists of integers and
    // floats, not tables. The resume must say which router and which field
    // it cannot take, before anything is restored — they used to die on an
    // index or an assertion inside the table loader.
    let (spec, good) = smallest_paged_snapshot();
    let router = good
        .engine
        .shard
        .agents
        .iter()
        .position(|a| a.q_rows.len() >= 2)
        .expect("some router has learned about two destinations");
    Simulation::resume(&spec, &through_the_file_encoding(&good)).expect("the good one resumes");

    type Damage = fn(&mut dragonfly_engine::checkpoint::AgentCheckpoint);
    let cases: [(&str, Damage, &str); 5] = [
        (
            "a row outside the table",
            |a| *a.q_rows.last_mut().unwrap() = 1_000_000,
            "q_rows[",
        ),
        (
            "a value short",
            |a| {
                a.q_values.pop();
            },
            "q_values holds",
        ),
        ("unsorted rows", |a| a.q_rows.swap(0, 1), "q_rows is not"),
        (
            "a duplicated row",
            |a| a.q_rows[1] = a.q_rows[0],
            "q_rows is not",
        ),
        (
            "a dense table of the wrong length",
            |a| {
                a.q_rows.clear();
                a.q_values.truncate(1);
            },
            "q_values holds",
        ),
    ];
    for (what, damage, field) in cases {
        let mut bad = good.clone();
        damage(&mut bad.engine.shard.agents[router]);
        let bad = RunCheckpoint::from_binary(&bad.to_binary()).expect("it still decodes");
        for shards in [ShardKind::Single, ShardKind::Fixed(2)] {
            let err = match Simulation::resume(&in_mode(spec.clone(), shards, true), &bad) {
                Ok(_) => panic!("{what}: resumed"),
                Err(e) => e.0,
            };
            assert!(
                err.contains(&format!("agent of router {router}:")) && err.contains(field),
                "{what}: {err}"
            );
        }
    }

    // The dense loader had the same hole.
    let dense_spec = common::smallest_spec();
    let mut bad = common::smallest_snapshot();
    bad.engine.shard.agents[0].q_values.pop();
    let err = match Simulation::resume(&dense_spec, &bad) {
        Ok(_) => panic!("a short dense table resumed"),
        Err(e) => e.0,
    };
    assert!(
        err.contains("agent of router 0:") && err.contains("the whole table"),
        "{err}"
    );
}

/// The value under `key` of a map in a snapshot's value tree.
fn entry<'a>(v: &'a mut Value, key: &str) -> &'a mut Value {
    match v {
        Value::Map(entries) => &mut entries.iter_mut().find(|(k, _)| k == key).unwrap().1,
        other => panic!("{key}: expected a map, found {}", other.kind()),
    }
}

/// The items of a sequence in a snapshot's value tree.
fn items(v: &mut Value) -> &mut Vec<Value> {
    match v {
        Value::Seq(items) => items,
        other => panic!("expected a sequence, found {}", other.kind()),
    }
}

#[test]
fn a_snapshot_with_a_damaged_router_section_is_refused_not_restored() {
    // Router sections that decoded and then panicked inside the router
    // (index out of bounds) in the middle of the resumed run, or resumed
    // silently with the wrong shape. Decoding refuses the inconsistent
    // ones and the resume refuses the one that fits another router; both
    // name the router and the field.
    let spec = common::smallest_spec();
    let good = common::smallest_snapshot();
    let with_router_0 = |damage: &dyn Fn(&mut Value)| {
        let mut tree = good.to_value();
        let routers = entry(entry(entry(&mut tree, "engine"), "shard"), "routers");
        damage(&mut items(routers)[0]);
        common::tree_codec::value_to_vec(&tree)
    };
    let refusal = |bytes: &[u8], shards: ShardKind| -> String {
        let ck = match RunCheckpoint::from_binary(bytes) {
            Ok(ck) => ck,
            Err(e) => return e.0,
        };
        match Simulation::resume(&in_mode(spec.clone(), shards, true), &ck) {
            Ok(_) => panic!("resumed"),
            Err(e) => e.0,
        }
    };
    let untouched = with_router_0(&|_| {});
    let ck = RunCheckpoint::from_binary(&untouched).expect("the tree encoding decodes");
    Simulation::resume(&spec, &ck).expect("the good one resumes");

    let mut wrong_shape = good.clone();
    wrong_shape.engine.shard.routers[0] = dragonfly_engine::router::RouterState::new(
        &dragonfly_topology::Dragonfly::new(DragonflyConfig { p: 2, a: 2, h: 1 }).into(),
        dragonfly_topology::ids::RouterId(0),
        &EngineConfig::paper(5),
    );
    let cases: [(&str, Vec<u8>, &str); 5] = [
        (
            "a short input",
            with_router_0(&|r| drop(items(entry(r, "input")).pop())),
            "input holds 14 entries, 3 ports × 5 VCs need 15",
        ),
        (
            "a short credits",
            with_router_0(&|r| drop(items(entry(r, "credits")).pop())),
            "credits holds 14 entries",
        ),
        (
            "a waiter on input port 999",
            with_router_0(&|r| {
                let waiter = Value::Map(vec![
                    ("in_port".into(), Value::Int(999)),
                    ("vc".into(), Value::Int(0)),
                ]);
                items(entry(r, "waiters"))[0] = Value::Seq(vec![waiter]);
            }),
            "waiters[0] lists input port 999 VC 0, outside 3 ports × 5 VCs",
        ),
        (
            "an empty output_occupancy",
            with_router_0(&|r| items(entry(r, "output_occupancy")).clear()),
            "output_occupancy holds 0 entries",
        ),
        (
            "the section of a radix-4 router",
            wrong_shape.to_binary(),
            "num_ports = 4, the topology gives this router 3",
        ),
    ];
    for (what, bytes, field) in cases {
        for shards in [ShardKind::Single, ShardKind::Fixed(2)] {
            let err = refusal(&bytes, shards);
            assert!(
                err.contains(&format!("state of router 0: {field}")),
                "{what} at {shards:?}: {err}"
            );
        }
    }
}

#[test]
fn a_snapshot_with_a_damaged_nic_section_is_refused_not_restored() {
    // A NIC queue that named a packet outside the arena panicked in the
    // middle of the resume (index out of bounds), and one aliasing a packet
    // another owner held resumed and ran. A NIC now counts its messages in
    // the backlog section: counts that do not add up to the backlog's
    // columns are refused, and so is a record its NIC could not have
    // generated, naming the section, the index and the column.
    use dragonfly_engine::workload::workload_packet_id;
    use dragonfly_topology::ids::NodeId;
    let spec = common::congested_spec();
    let good = common::congested_snapshot();
    let shard = &good.engine.shard;
    let n = (shard.nics.iter())
        .position(|nic| nic.queued >= 2)
        .expect("a NIC queues two messages");
    // NIC `n`'s oldest message is record `i` of the backlog.
    let i: usize = shard.nics[..n].iter().map(|nic| nic.queued).sum();
    let (messages, id) = (shard.backlog.len(), shard.backlog.id[i]);
    let (now, next_id) = (good.engine.now, good.engine.next_packet_id);
    type Damage = Box<dyn Fn(&mut RunCheckpoint)>;
    let count = move |by: isize| -> Damage {
        Box::new(move |bad| {
            let queued = &mut bad.engine.shard.nics[n].queued;
            *queued = queued.checked_add_signed(by).expect("a count");
        })
    };
    let sum = |counts: usize, held: usize| {
        format!("nics: the queued counts sum to {counts}, the backlog holds {held} messages")
    };
    let at = format!("NIC {n}: backlog[{i}]: message");
    let other = workload_packet_id(NodeId::from_index((n + 1) % 72), 0);
    let cases: Vec<(&str, Damage, String)> = vec![
        (
            "a count one above its messages",
            count(1),
            sum(messages + 1, messages),
        ),
        (
            "a count one below its messages",
            count(-1),
            sum(messages - 1, messages),
        ),
        (
            "a record no NIC counts",
            Box::new(move |bad| {
                let backlog = &mut bad.engine.shard.backlog;
                backlog.id.push(backlog.id[i]);
                backlog.dst.push(backlog.dst[i]);
                backlog.created_ns.push(backlog.created_ns[i]);
            }),
            sum(messages, messages + 1),
        ),
        (
            "a backlog column one short",
            Box::new(|bad| {
                bad.engine.shard.backlog.dst.pop();
            }),
            format!(
                "backlog: the dst column holds {} messages, the id column {messages}",
                messages - 1
            ),
        ),
        (
            "a message for a node that does not exist",
            Box::new(move |bad| bad.engine.shard.backlog.dst[i] = NodeId(5_000)),
            format!("{at} {id} has dst = 5000, outside the 72 nodes"),
        ),
        (
            "an injector id not handed out yet",
            Box::new(move |bad| bad.engine.shard.backlog.id[i] = next_id),
            format!("{at} {next_id} has id = {next_id}, not handed out yet (next_packet_id = {next_id})"),
        ),
        (
            "another node's workload id",
            Box::new(move |bad| bad.engine.shard.backlog.id[i] = other),
            format!("{at} {other} has id = {other}, a workload id of node {}", (n + 1) % 72),
        ),
        (
            "a message generated after the cut",
            Box::new(move |bad| bad.engine.shard.backlog.created_ns[i] = now + 1),
            format!("{at} {id} has created_ns = {}, after the cut at {now} ns", now + 1),
        ),
    ];
    for (what, damage, clue) in cases {
        let mut bad = good.clone();
        damage(&mut bad);
        assert_refused(&spec, &bad, what, &clue);
    }
}

#[test]
fn a_snapshot_with_a_damaged_fabric_packet_is_refused_not_restored() {
    // Only NIC-queued packets were checked: a packet in a router buffer or
    // on a link was restored as it stood, and one on a VC the engine does
    // not run panicked mid-run. Both holders are refused now, naming the
    // holder, the slot and the column, and so are packet columns of unequal
    // length and a packet no router or event holds.
    use dragonfly_engine::checkpoint::ArenaCheckpoint;
    use dragonfly_engine::event::EventKind;
    use dragonfly_topology::ids::{NodeId, Port};
    let spec = common::congested_spec();
    let good = common::congested_snapshot();
    let shard = &good.engine.shard;
    let in_router = shard.routers.iter().enumerate().find_map(|(r, state)| {
        (0..state.num_ports()).find_map(|port| {
            (0..state.num_vcs() as u8).find_map(|vc| {
                let head = state.input_head(Port::from_index(port), vc)?;
                Some((
                    format!("state of router {r}: input port {port} VC {vc}"),
                    head,
                ))
            })
        })
    });
    let on_link = shard
        .queue
        .events
        .iter()
        .enumerate()
        .find_map(|(i, ev)| match ev.kind {
            EventKind::RouterArrive { packet, .. } => Some((
                format!("event {i} (RouterArrive at {} ns): packet", ev.time),
                packet,
            )),
            _ => None,
        });
    let holders = [
        in_router.expect("a router buffers a packet"),
        on_link.expect("a packet is on a link"),
    ];
    type Damage = fn(&mut ArenaCheckpoint, usize) -> String;
    let damages: [(&str, Damage); 6] = [
        ("a dst that does not exist", |p, i| {
            p.dst[i] = NodeId(5_000);
            "dst = 5000, outside the 72 nodes".to_string()
        }),
        ("a previous router that does not exist", |p, i| {
            p.last_router[i] = 36;
            "last_router = 36, outside the 36 routers".to_string()
        }),
        ("a VC the engine does not run", |p, i| {
            p.vc[i] = 5;
            "vc = 5, the engine runs 5 VCs".to_string()
        }),
        ("a pending VC the engine does not run", |p, i| {
            p.pending_port[i] = 0;
            p.pending_vc[i] = 9;
            "pending_vc = 9, the engine runs 5 VCs".to_string()
        }),
        ("a flags bit no packet sets", |p, i| {
            p.flags[i] |= 0x80;
            format!("flags = {:#04x}, with bits no packet sets", p.flags[i])
        }),
        ("two via kinds", |p, i| {
            p.flags[i] |= 0b111;
            format!("flags = {:#04x}, naming two via kinds", p.flags[i])
        }),
    ];
    for (holder, slot) in &holders {
        let i = slot.index();
        let id = shard.arena.id[i];
        for (what, damage) in damages {
            let mut bad = good.clone();
            let column = damage(&mut bad.engine.shard.arena, i);
            let clue = format!("{holder}, arena slot {i}: packet {id} has {column}");
            assert_refused(&spec, &bad, &format!("{what} at {holder}"), &clue);
        }
    }

    let packets = shard.arena.len();
    let mut bad = good.clone();
    bad.engine.shard.arena.hops.push(0);
    let clue = format!(
        "arena: the hops column holds {} packets, the id column {packets}",
        packets + 1
    );
    assert_refused(&spec, &bad, "a column one long", &clue);
    // Every column one entry longer: a packet no router or event holds.
    let mut tree = good.to_value();
    let Value::Map(columns) = entry(entry(entry(&mut tree, "engine"), "shard"), "arena") else {
        panic!("the arena is a map of columns");
    };
    for (_, column) in columns {
        let column = items(column);
        column.push(column[0].clone());
    }
    let bad = RunCheckpoint::from_binary(&common::tree_codec::value_to_vec(&tree))
        .expect("the tree encoding decodes");
    let clue = format!("arena slot {packets} is held by no router or event");
    assert_refused(&spec, &bad, "a slot nobody holds", &clue);
}

/// `bad`, through its file encoding, resumes at neither `Single` nor
/// `Fixed(2)`, with an error that contains `clue`.
fn assert_refused(spec: &ExperimentSpec, bad: &RunCheckpoint, what: &str, clue: &str) {
    let bad = RunCheckpoint::from_binary(&bad.to_binary()).expect("it still decodes");
    for shards in [ShardKind::Single, ShardKind::Fixed(2)] {
        let err = match Simulation::resume(&in_mode(spec.clone(), shards, true), &bad) {
            Ok(_) => panic!("{what}: resumed at {shards:?}"),
            Err(e) => e.0,
        };
        assert!(err.contains(clue), "{what} at {shards:?}: {err}");
    }
}

#[test]
fn a_snapshot_whose_collector_disagrees_with_its_spec_is_refused_not_restored() {
    // The spec decides the collector: its latency mode, its window and its
    // time series. A snapshot whose collector says otherwise (a damaged
    // `streaming` flag, a shifted window) is refused naming the field:
    // exact samples under a streaming spec made a sharded `report()` panic
    // in the merge, and at one shard reported exact quantiles.
    use dragonfly_metrics::timeseries::TimeSeries;
    use dragonfly_sim::spec::{MetricsMode, MetricsSpec};
    let exact = common::congested_spec();
    let streaming = ExperimentSpec {
        metrics: Some(MetricsSpec {
            mode: MetricsMode::Streaming,
        }),
        ..exact.clone()
    };
    let cut = |spec: &ExperimentSpec| {
        let mut sim = Simulation::start(spec).expect("valid spec");
        assert!(
            sim.advance_to(common::CONGESTED_CUT_NS),
            "the cut is mid-run"
        );
        sim.snapshot()
    };
    let (exact_ck, streaming_ck) = (cut(&exact), cut(&streaming));
    assert!(exact_ck.collector.latency.count() > 0, "the window is open");

    let mut bad = streaming_ck.clone();
    bad.collector = exact_ck.collector.clone();
    let clue = "`collector.latency` is Exact in the snapshot but Streaming under the spec";
    assert_refused(&streaming, &bad, "exact samples, streaming spec", clue);
    let mut bad = exact_ck.clone();
    bad.collector = streaming_ck.collector.clone();
    let clue = "`collector.latency` is Streaming in the snapshot but Exact under the spec";
    assert_refused(&exact, &bad, "a sketch, exact spec", clue);

    let mut bad = exact_ck.clone();
    bad.collector.window_start_ns += 1;
    let clue = "`collector.window_start_ns` is 3001 in the snapshot but 3000 under the spec";
    assert_refused(&exact, &bad, "a later window start", clue);
    let mut bad = exact_ck.clone();
    bad.collector.window_end_ns -= 1;
    let clue = "`collector.window_end_ns` is 8999 in the snapshot but 9000 under the spec";
    assert_refused(&exact, &bad, "an earlier window end", clue);
    let mut bad = exact_ck.clone();
    bad.collector.series = Some(TimeSeries::new(500));
    let clue = "`collector.series` is 500 ns bins in the snapshot but none under the spec";
    assert_refused(&exact, &bad, "a series the spec lacks", clue);

    for (spec, ck) in [(&exact, &exact_ck), (&streaming, &streaming_ck)] {
        Simulation::resume(spec, &through_the_file_encoding(ck)).expect("the cut resumes");
    }
}

#[test]
fn a_snapshot_with_an_injection_marker_is_refused_not_restored() {
    // The writer leaves the `TrafficArrival` markers out of every snapshot and
    // restore regenerates them from the pending injections, so a snapshot
    // that holds one is damaged.
    use dragonfly_engine::event::{Event, EventKind};
    let mut bad = common::congested_snapshot();
    let first = bad.engine.shard.queue.events[0];
    let marker = Event {
        kind: EventKind::TrafficArrival,
        ..first
    };
    bad.engine.shard.queue.events.insert(0, marker);
    let clue = format!(
        "event 0 (TrafficArrival at {} ns): a snapshot holds no injection markers",
        first.time
    );
    assert_refused(&common::congested_spec(), &bad, "a marker", &clue);
}

#[test]
fn a_snapshot_with_damaged_event_fault_or_retry_ids_is_refused_not_restored() {
    // Only the arena's refs were checked: an event naming a router outside
    // the topology panicked inside the restore, a fault cursor past the
    // schedule panicked on resume, and a retry entry for no node resumed
    // silently. Each is refused now, naming the entry and the field, and
    // restore keeps the fault schedule the engine was built with.
    use dragonfly_engine::event::EventKind;
    use dragonfly_engine::fault::{CompiledFault, FaultOp};
    use dragonfly_engine::sync::QueuedInjection;
    use dragonfly_engine::workload::workload_packet_id;
    use dragonfly_topology::ids::{NodeId, Port, RouterId};
    let spec = common::congested_spec();
    let good = common::congested_snapshot();
    let shard = &good.engine.shard;
    let (routers, nodes) = (shard.routers.len(), shard.nics.len());
    let (i, ev) = (shard.queue.events.iter().enumerate())
        .find(|(_, ev)| matches!(ev.kind, EventKind::SwitchAttempt { .. }))
        .expect("a head packet waits to switch");
    let EventKind::SwitchAttempt { router, port, vc } = ev.kind else {
        unreachable!()
    };
    let radix = shard.routers[router.index()].num_ports();
    let vcs = shard.routers[router.index()].num_vcs();
    let at = |kind: &str| format!("event {i} ({kind} at {} ns): ", ev.time);
    let injection = |src: u32, dst: u32, id: u64| QueuedInjection {
        time: good.engine.now + 1,
        src: NodeId(src),
        dst: NodeId(dst),
        id,
    };
    let next_id = good.engine.next_packet_id;
    type Damage = Box<dyn Fn(&mut RunCheckpoint)>;
    let event = move |kind: EventKind| -> Damage {
        Box::new(move |bad| bad.engine.shard.queue.events[i].kind = kind)
    };
    let pending = |first: QueuedInjection, then: QueuedInjection| -> Damage {
        Box::new(move |bad| bad.engine.shard.pending_injections.extend([first, then]))
    };
    let retry = |id: u64| -> Damage {
        Box::new(move |bad| {
            bad.engine.shard.retry_counts.insert(id, 1);
        })
    };
    let kill = CompiledFault {
        at_ns: 10_000,
        ops: vec![FaultOp::RouterDown {
            router: RouterId(1),
        }],
    };
    let outside_nodes = |field: &str| format!("{field} = 5000, outside the {nodes} nodes");
    let cases: Vec<(&str, Damage, String)> = vec![
        (
            "a router outside the topology",
            event(EventKind::SwitchAttempt {
                router: RouterId(1_000_000),
                port,
                vc,
            }),
            format!(
                "{}router = 1000000, outside the {routers} routers",
                at("SwitchAttempt")
            ),
        ),
        (
            "a port the router lacks",
            event(EventKind::OutputAttempt {
                router,
                port: Port(radix as u16),
            }),
            format!(
                "{}port = {radix}, outside the {radix} ports of its router",
                at("OutputAttempt")
            ),
        ),
        (
            "a VC the engine does not run",
            event(EventKind::CreditArrive {
                router,
                port,
                vc: vcs as u8,
            }),
            format!("{}vc = {vcs}, outside the {vcs} VCs", at("CreditArrive")),
        ),
        (
            "a node outside the topology",
            event(EventKind::NicTryInject {
                node: NodeId(5_000),
            }),
            format!("{}{}", at("NicTryInject"), outside_nodes("node")),
        ),
        (
            "a drop notice for no destination",
            event(EventKind::DropNotice {
                node: NodeId(3),
                dst: NodeId(5_000),
                id: workload_packet_id(NodeId(3), 0),
            }),
            format!("{}{}", at("DropNotice"), outside_nodes("dst")),
        ),
        (
            "an injection from no node",
            pending(injection(5_000, 1, next_id), injection(2, 1, next_id + 1)),
            format!(
                "pending_injections[{}]: {}",
                shard.pending_injections.len(),
                outside_nodes("src")
            ),
        ),
        (
            "injections out of id order",
            pending(injection(2, 1, next_id + 1), injection(3, 1, next_id)),
            format!(
                "pending_injections[{}]: id = {next_id}, not above the one before",
                shard.pending_injections.len() + 1
            ),
        ),
        (
            "a retry entry for an injector id",
            retry(12_345),
            format!("retry_counts key 12345: not a workload packet id of one of the {nodes} nodes"),
        ),
        (
            "a retry entry for no node",
            retry(workload_packet_id(NodeId(5_000), 0)),
            format!(
                "retry_counts key {}: not a workload packet id of one of the {nodes} nodes",
                workload_packet_id(NodeId(5_000), 0)
            ),
        ),
        (
            "a fault the engine was not built with",
            Box::new(move |bad| bad.engine.shard.faults.push(kill.clone())),
            "faults[0] = Some(CompiledFault { at_ns: 10000, ops: [RouterDown { router: \
             RouterId(1) }] }), this engine installed None"
                .to_string(),
        ),
        (
            "a fault cursor past the schedule",
            Box::new(|bad| bad.engine.shard.fault_cursor = 5),
            "fault_cursor = 5, past the 0 fault entries".to_string(),
        ),
    ];
    for (what, damage, clue) in cases {
        let mut bad = good.clone();
        damage(&mut bad);
        assert_refused(&spec, &bad, what, &clue);
    }
}

#[test]
fn a_snapshot_with_a_damaged_task_section_is_refused_not_restored() {
    // A closed-loop snapshot carries every rank's counters, not its
    // program: restore keeps the program the spec compiles, so a task
    // section that does not fit it is refused, naming the node and the
    // field. These used to resume silently (a `pc` past the program's end,
    // `avail` counters for no source) or panic inside the restore (a short
    // list).
    let spec = closedloop_spec(9);
    let mut sim = Simulation::start(&spec).expect("valid spec");
    assert!(sim.advance_to(30_000), "the cut is mid-collective");
    let good = sim.snapshot();
    let tree = good.to_value();
    let damaged = |damage: &dyn Fn(&mut Value)| {
        let mut tree = tree.clone();
        damage(entry(&mut tree, "engine"));
        RunCheckpoint::from_binary(&common::tree_codec::value_to_vec(&tree))
            .expect("the tree encoding decodes")
    };
    fn tasks(engine: &mut Value) -> &mut Vec<Value> {
        items(entry(entry(engine, "shard"), "tasks"))
    }
    Simulation::resume(&spec, &damaged(&|_| {})).expect("the good one resumes");

    // The length of node 5's program, as the spec compiles it.
    let k = 5;
    let workload = spec.workload.as_ref().expect("a closed-loop spec");
    let programs = workload
        .compile(&spec.topology.build(), spec.effective_intensity())
        .expect("the spec compiles");
    let len = programs[k].len() as i128;
    let at = format!("task of node {k}:");
    let pair = |node: i128, count: i128| Value::Seq(vec![Value::Int(node), Value::Int(count)]);
    type Damage = Box<dyn Fn(&mut Value)>;
    let cases: Vec<(&str, Damage, String)> = vec![
        (
            "a task short",
            Box::new(move |e| drop(tasks(e).pop())),
            "has_tasks = true with 71 tasks, this engine runs 72 task programs".to_string(),
        ),
        (
            "no workload",
            Box::new(|e| *entry(entry(e, "shard"), "has_tasks") = Value::Bool(false)),
            "has_tasks = false with 72 tasks, this engine runs 72 task programs".to_string(),
        ),
        (
            "a rank without a task",
            Box::new(move |e| tasks(e)[k] = Value::Null),
            format!("{at} the snapshot has no task, this engine one"),
        ),
        (
            "a pc past the program's end",
            Box::new(move |e| *entry(&mut tasks(e)[k], "pc") = Value::Int(len + 1)),
            format!("{at} pc = {}, beyond the program's {len} ops", len + 1),
        ),
        (
            "a count from a node that does not exist",
            Box::new(move |e| {
                *entry(&mut tasks(e)[k], "avail") = Value::Seq(vec![pair(5_000, 1)]);
            }),
            format!("{at} avail[0] names node 5000, outside the 72 nodes"),
        ),
        (
            "counts out of order",
            Box::new(move |e| {
                *entry(&mut tasks(e)[k], "avail") = Value::Seq(vec![pair(3, 1), pair(2, 1)]);
            }),
            format!("{at} avail[1] names node 2, not above avail[0]'s"),
        ),
        (
            "two counts from one source",
            Box::new(move |e| {
                *entry(&mut tasks(e)[k], "avail") = Value::Seq(vec![pair(3, 1), pair(3, 1)]);
            }),
            format!("{at} avail[1] names node 3, not above avail[0]'s"),
        ),
    ];
    for (what, damage, clue) in cases {
        assert_refused(&spec, &damaged(&*damage), what, &clue);
    }
    // A `pc` at the end of the program is a finished rank's.
    let finished = damaged(&|e| *entry(&mut tasks(e)[k], "pc") = Value::Int(len));
    Simulation::resume(&spec, &finished).expect("a pc at the end resumes");
}
