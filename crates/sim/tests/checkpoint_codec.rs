//! The checkpoint byte stream, from outside: files written before the
//! streaming codec still mean what they meant, and damaged ones are
//! refused cleanly by the typed reader.
//!
//! `tests/data/*.ckpt` were written by the commit before the streaming
//! writer (the tree encoder, `qadaptive-cli run … --checkpoint-every …`),
//! each next to the report of the same run left uninterrupted by that
//! commit's binary:
//!
//! * `qadp_tiny` — Q-adaptive under ADV+1 at load 0.3 on the 72-node
//!   system, cut at 2,500 ns with 1,193 packets queued in router buffers;
//! * `allreduce_tiny` — closed-loop AllReduce under UGALg, cut
//!   mid-collective at 5,994 ns.
//!
//! The differential half — streaming writer against tree encoder on every
//! snapshot `checkpoint_resume.rs` builds — rides on that suite's round
//! trips (`common::through_the_file_encoding`); the byte-flip half of the
//! hostile suite runs under the counting allocator of `checkpoint_heap.rs`.

mod common;

use common::{assert_same_report, smallest_snapshot, through_the_file_encoding};
use dragonfly_metrics::report::SimulationReport;
use dragonfly_sim::checkpoint::{RunCheckpoint, CHECKPOINT_VERSION};

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
            .run_checkpointed(Some(&ck), None, |_| Ok(()))
            .expect("resume under the file's own spec");
        assert_same_report(&uninterrupted, &resumed, name);
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
