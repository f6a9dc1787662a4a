//! The checkpoint byte stream, from outside: files written before the
//! streaming codec still mean what they meant, and damaged ones are
//! refused cleanly by the typed reader.
//!
//! `tests/data/*.ckpt` hold four real cuts, each next to the report of the
//! same run left uninterrupted:
//!
//! * `qadp_tiny` — Q-adaptive under ADV+1 at load 0.3 on the 72-node
//!   system, cut at 2,500 ns with 1,193 packets queued in router buffers;
//! * `allreduce_tiny` — closed-loop AllReduce under UGALg, cut
//!   mid-collective at 5,994 ns.
//!
//! The two were first written by the commit before the streaming writer
//! (the tree encoder, `qadaptive-cli run … --checkpoint-every …`).
//! `paged_qadp_tiny` and `paged_qrouting_tiny` were first written by the
//! commit before the lazy Q-table's unit became the row (`run …
//! --checkpoint-every 700`, ADV+1 at load 0.3 on the 72-node system,
//! `qtable_page_rows_threshold = 0`): their `q_rows` are page-granular — a
//! router that had learned anything lists its whole page, page-mates at
//! their init values — and nine routers had not yet learned anything.
//!
//! When the format became `qadaptive-checkpoint-v5` (fabric packets as
//! columns, the NIC backlog as records, ranks without programs), each file
//! was converted content for content: decoded by the v4 reader, rewritten
//! by the v5 writer. Every cut, Q-row list and counter is the one first
//! written, so each still resumes to its `.report.json`.
//!
//! The differential half — streaming writer against tree encoder on every
//! snapshot the mode matrix resumes — rides on its split cells' round trips
//! (`common::through_the_file_encoding`); the byte-flip half of the
//! hostile suite runs under the counting allocator of `checkpoint_heap.rs`.

mod common;

use common::{assert_same_report, in_mode, smallest_snapshot, through_the_file_encoding};
use dragonfly_engine::config::{EngineConfig, ShardKind};
use dragonfly_metrics::report::SimulationReport;
use dragonfly_sim::builder::Simulation;
use dragonfly_sim::checkpoint::{RunCheckpoint, CHECKPOINT_VERSION};
use dragonfly_sim::spec::ExperimentSpec;

#[test]
fn wide_latency_samples_round_trip_in_delivery_order() {
    // A sample of 2^32 ns or more is a marker in its chunk and a value
    // beside it; on the wire it is the sample, in its place, in the bytes
    // the tree encoder writes.
    use serde::{Serialize, Value};
    let mut ck = smallest_snapshot();
    let added = [
        (1u64 << 32) + 1,
        7,
        u64::from(u32::MAX),
        u64::MAX,
        3,
        1 << 40,
    ];
    for v in added {
        ck.collector.latency.record(v);
    }
    let samples = |ck: &RunCheckpoint| match ck.collector.latency.to_value().get("samples") {
        Some(Value::Seq(items)) => items.clone(),
        other => panic!("exact samples are a sequence, not {other:?}"),
    };
    let before = samples(&ck);
    let tail: Vec<Value> = added.iter().map(|&v| Value::Int(v.into())).collect();
    assert_eq!(before[before.len() - added.len()..], tail[..]);
    let back = through_the_file_encoding(&ck);
    assert_eq!(samples(&back), before);
    assert_eq!(back.collector.latency.max_ns(), u64::MAX);
}

fn fixture(name: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/data")
        .join(name)
}

#[test]
fn files_written_by_the_tree_encoder_load_reencode_and_resume() {
    for name in ["qadp_tiny", "allreduce_tiny"] {
        let path = fixture(&format!("{name}.ckpt"));
        let bytes = std::fs::read(&path).expect("fixture");
        let ck = RunCheckpoint::load(&path).expect("an old file loads");
        assert_eq!(ck.version, CHECKPOINT_VERSION);
        assert!(
            ck.to_binary() == bytes,
            "{name}: re-encoding an old file must reproduce it to the byte"
        );
        let ck = through_the_file_encoding(&ck);

        let report = std::fs::read_to_string(fixture(&format!("{name}.report.json")))
            .expect("the uninterrupted run's report");
        let uninterrupted: SimulationReport = serde_json::from_str(&report).expect("a report");
        assert!(uninterrupted.packets_delivered > 100, "{name}");
        let resumed = ck
            .spec
            .run_checkpointed(Some(ck.clone()), None, |_| Ok(()))
            .expect("resume under the file's own spec");
        assert_same_report(&uninterrupted, &resumed, name);
    }
}

#[test]
fn page_granular_snapshots_resume_and_are_rewritten_by_the_row() {
    for (name, table_rows) in [("paged_qadp_tiny", 18), ("paged_qrouting_tiny", 36)] {
        let path = fixture(&format!("{name}.ckpt"));
        let file = RunCheckpoint::load(&path).expect("a page-granular file loads");
        assert!(
            file.to_binary() == std::fs::read(&path).expect("fixture"),
            "{name}: re-encoding the file must reproduce it to the byte"
        );
        let spec = file.spec.clone();
        assert_eq!(
            spec.engine.map(|e| e.qtable_page_rows_threshold),
            Some(0),
            "{name}"
        );
        let listed: Vec<&[u32]> = (file.engine.shard.agents.iter())
            .map(|a| a.q_rows.as_slice())
            .collect();
        let whole_page: Vec<u32> = (0..table_rows).collect();
        assert!(
            listed.iter().all(|r| r.is_empty() || *r == whole_page)
                && listed.iter().any(|r| r.is_empty())
                && listed.iter().any(|r| !r.is_empty()),
            "{name}: the fixture is page-granular, with untouched routers"
        );

        // It resumes to the report of that commit's uninterrupted run.
        let report = std::fs::read_to_string(fixture(&format!("{name}.report.json")))
            .expect("the uninterrupted run's report");
        let uninterrupted: SimulationReport = serde_json::from_str(&report).expect("a report");
        assert!(uninterrupted.packets_delivered > 100, "{name}");
        let mut later = None;
        for shards in [ShardKind::Single, ShardKind::Fixed(2)] {
            let mode = in_mode(spec.clone(), shards, true);
            let mut sim = Simulation::resume(&mode, &file).expect("the file's own spec");
            assert!(sim.advance_to(1_000), "{name}: 1,000 ns is mid-run");
            later = Some(through_the_file_encoding(&sim.snapshot()));
            sim.advance_to(spec.total_ns());
            assert_same_report(
                &uninterrupted,
                &sim.report(),
                &format!("{name} at {shards:?}"),
            );
        }

        // A later snapshot of the resumed run lists what the file listed
        // (its init-valued page-mates count as written from now on) plus
        // the rows an uninterrupted run of this build has written by then,
        // and nothing else; a page-mate nothing wrote still holds its init
        // values, which a dense table of the same experiment spells out.
        let mut fresh = Simulation::start(&spec).expect("the file's own spec");
        fresh.advance_to(1_000);
        let fresh = fresh.snapshot();
        let dense = ExperimentSpec {
            engine: Some(EngineConfig::default()),
            ..spec.clone()
        };
        let init = Simulation::start(&dense).expect("dense tables").snapshot();
        let later = later.expect("two modes ran");
        let mut by_the_row = 0;
        for (r, agent) in later.engine.shard.agents.iter().enumerate() {
            let (fresh, init) = (&fresh.engine.shard.agents[r], &init.engine.shard.agents[r]);
            let mut expected: Vec<u32> = [listed[r], &fresh.q_rows].concat();
            expected.sort_unstable();
            expected.dedup();
            assert_eq!(agent.q_rows, expected, "{name}: router {r}");
            let columns = init.q_values.len() / table_rows as usize;
            let row_of = |values: &[f64], k: usize| values[k * columns..(k + 1) * columns].to_vec();
            for (i, &row) in agent.q_rows.iter().enumerate() {
                let want = match fresh.q_rows.iter().position(|&f| f == row) {
                    Some(k) => row_of(&fresh.q_values, k),
                    None => row_of(&init.q_values, row as usize),
                };
                assert_eq!(
                    row_of(&agent.q_values, i),
                    want,
                    "{name}: router {r} row {row}"
                );
            }
            if listed[r].is_empty() && !agent.q_rows.is_empty() {
                assert!(
                    agent.q_rows.len() < table_rows as usize,
                    "{name}: router {r}"
                );
                by_the_row += 1;
            }
        }
        assert!(by_the_row > 0, "{name}: no router learned between the cuts");
    }
}

#[test]
fn truncation_is_a_clean_error_everywhere() {
    // A real snapshot chopped at every prefix length: each must be
    // refused with the offset (or, inside the first 8 bytes, for want of a
    // magic), never panic, never decode.
    let bytes = smallest_snapshot().to_binary();
    for cut in 0..bytes.len() {
        let err = RunCheckpoint::from_binary(&bytes[..cut])
            .expect_err("a prefix is not a snapshot")
            .0;
        assert!(
            err.contains("truncated or corrupted binary stream at byte")
                || (cut < 8 && err.contains("QADBIN magic")),
            "prefix of {cut} bytes: {err}"
        );
    }
    RunCheckpoint::from_binary(&bytes).expect("the whole stream decodes");
}

#[test]
fn foreign_and_padded_streams_are_refused_by_name() {
    let good = smallest_snapshot().to_binary();

    let mut bad = good.clone();
    bad.push(0);
    let err = RunCheckpoint::from_binary(&bad).unwrap_err().0;
    assert!(err.contains("trailing bytes"), "{err}");

    let mut bad = good.clone();
    bad[0] = b'X';
    let err = RunCheckpoint::from_binary(&bad).unwrap_err().0;
    assert!(err.contains("QADBIN magic"), "{err}");

    let mut bad = good.clone();
    bad[7] = 99;
    let err = RunCheckpoint::from_binary(&bad).unwrap_err().0;
    assert!(err.contains("codec version 99"), "{err}");
}

/// A stream whose root map holds `value` under a key no snapshot has.
fn under_an_unknown_key(value: &[u8]) -> Vec<u8> {
    const T_MAP: u8 = 7;
    let mut bytes = b"QADBIN\x00\x01".to_vec();
    bytes.extend_from_slice(&[1, 1, b'x']); // dictionary: ["x"]
    bytes.extend_from_slice(&[T_MAP, 1, 0]); // { x: …
    bytes.extend_from_slice(value);
    bytes
}

#[test]
fn what_the_typed_reader_skips_is_still_bounded() {
    const T_NULL: u8 = 0;
    const T_SEQ: u8 = 6;
    const T_FSEQ_RLE: u8 = 9;
    // Unknown keys are skipped, not trusted: nesting under one is capped…
    let mut deep = Vec::new();
    for _ in 0..100 {
        deep.extend_from_slice(&[T_SEQ, 1]);
    }
    deep.push(T_NULL);
    let err = RunCheckpoint::from_binary(&under_an_unknown_key(&deep))
        .unwrap_err()
        .0;
    assert!(err.contains("nesting too deep"), "{err}");
    // …and a run-length total under one is charged to the budget: 2^40
    // copies of one float, in a file of 32 bytes.
    let mut run = vec![T_FSEQ_RLE];
    let total = [0x80, 0x80, 0x80, 0x80, 0x80, 0x20]; // varint 2^40
    run.extend_from_slice(&total);
    run.extend_from_slice(&total);
    run.extend_from_slice(&1.0f64.to_le_bytes());
    let err = RunCheckpoint::from_binary(&under_an_unknown_key(&run))
        .unwrap_err()
        .0;
    assert!(err.contains("expansion budget"), "{err}");
    // Skipped cleanly, the rest is read as usual: the snapshot's own
    // fields are then missing, and the error names the first.
    let err = RunCheckpoint::from_binary(&under_an_unknown_key(&[T_NULL]))
        .unwrap_err()
        .0;
    assert!(
        err.contains("RunCheckpoint: missing field `version`"),
        "{err}"
    );
}
