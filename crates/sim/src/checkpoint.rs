//! Run-level checkpoint files — the persistence layer behind the CLI's
//! `--checkpoint-every` and `--resume-from` flags.
//!
//! A [`RunCheckpoint`] bundles everything a later process needs to
//! continue a run bit-for-bit (see `dragonfly_engine::checkpoint` for the
//! engine-side contract):
//!
//! * the originating [`ExperimentSpec`] — resume refuses to continue under
//!   a different spec, because the engine snapshot only stores state the
//!   spec cannot reconstruct;
//! * the [`EngineCheckpoint`] (event queue, packet arena, router/NIC/agent
//!   state, fault cursor, injector state);
//! * the [`MetricsCollector`], which the engine snapshot deliberately
//!   excludes (observers are a sim-layer concern).
//!
//! A file is one `QADBIN` stream (the private `binary` module of this
//! crate holds the format): the magic, the key dictionary, then the
//! snapshot tagged [`CHECKPOINT_VERSION`]. [`RunCheckpoint::to_binary`]
//! walks the typed snapshot once and writes packet columns, Q-rows, events
//! and the backlog straight into the bytes; [`RunCheckpoint::from_binary`]
//! fills the typed structs straight from them. No `serde::Value` tree of
//! the snapshot is built in either direction, so a checkpoint costs about
//! what it stores; [`RunCheckpoint::to_json`] (`qadaptive-cli checkpoint
//! dump FILE`, for reading and diffing) is the only code that builds one.
//! The magic, the codec version byte and the tag are all checked on load,
//! so a foreign, damaged or incompatible file is refused with an error
//! naming it rather than resumed from.

use crate::binary;
use crate::collector::MetricsCollector;
use crate::spec::{ExperimentSpec, SpecError};
use dragonfly_engine::checkpoint::EngineCheckpoint;
use dragonfly_metrics::report::first_tree_difference;
use serde::{Deserialize, Serialize};
use std::path::Path;

/// Format tag stored in every checkpoint file; the only one this build
/// writes or reads. Bump when any serialized layout changes incompatibly.
pub const CHECKPOINT_VERSION: &str = "qadaptive-checkpoint-v5";

/// A complete, self-contained snapshot of a running experiment.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunCheckpoint {
    /// Format tag ([`CHECKPOINT_VERSION`]).
    pub version: String,
    /// The experiment this snapshot belongs to (after any CLI overrides).
    pub spec: ExperimentSpec,
    /// Engine state (see `dragonfly_engine::checkpoint`).
    pub engine: EngineCheckpoint,
    /// The measurement observer at snapshot time.
    pub collector: MetricsCollector,
}

impl RunCheckpoint {
    /// Bundle a snapshot taken mid-run.
    pub fn new(
        spec: ExperimentSpec,
        engine: EngineCheckpoint,
        collector: MetricsCollector,
    ) -> Self {
        Self {
            version: CHECKPOINT_VERSION.to_string(),
            spec,
            engine,
            collector,
        }
    }

    /// Render as JSON, for people and `diff` (`checkpoint dump`); no
    /// loader reads it back. The one place a whole snapshot becomes a tree.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("checkpoints always serialize")
    }

    /// Serialize to the on-disk encoding.
    pub fn to_binary(&self) -> Vec<u8> {
        binary::to_vec(self)
    }

    /// Parse the on-disk encoding, rejecting streams without the magic
    /// and unknown format versions.
    pub fn from_binary(bytes: &[u8]) -> Result<Self, SpecError> {
        if !binary::looks_binary(bytes) {
            return Err(SpecError(format!(
                "malformed checkpoint file: no QADBIN magic (this build reads only \
                 binary {CHECKPOINT_VERSION:?} snapshots)"
            )));
        }
        let ck: Self = binary::from_slice(bytes)
            .map_err(|e| SpecError(format!("malformed checkpoint file: {e}")))?;
        if ck.version != CHECKPOINT_VERSION {
            return Err(SpecError(format!(
                "checkpoint version {:?} is not supported (this build reads {:?})",
                ck.version, CHECKPOINT_VERSION
            )));
        }
        Ok(ck)
    }

    /// Write the checkpoint to a file, atomically: the bytes go to a
    /// temporary file in the same directory, which is renamed over the
    /// final path only once fully written. A crash mid-write (power
    /// loss, kill -9) therefore never leaves a truncated snapshot at the
    /// path a later `--resume-from` will read — the old snapshot (if
    /// any) survives intact and at worst a stale `.tmp` file remains.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), SpecError> {
        let path = path.as_ref();
        let file_name = path.file_name().ok_or_else(|| {
            SpecError(format!(
                "checkpoint path {} has no file name",
                path.display()
            ))
        })?;
        let tmp = path.with_file_name(format!("{}.tmp", file_name.to_string_lossy()));
        std::fs::write(&tmp, self.to_binary())
            .map_err(|e| SpecError(format!("cannot write checkpoint {}: {e}", tmp.display())))?;
        std::fs::rename(&tmp, path).map_err(|e| {
            let _ = std::fs::remove_file(&tmp);
            SpecError(format!(
                "cannot move checkpoint into place at {}: {e}",
                path.display()
            ))
        })
    }

    /// Read a checkpoint from a file. Both I/O and parse failures name
    /// the offending file, so a truncated or corrupted snapshot yields a
    /// clean contextual error rather than a panic.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, SpecError> {
        let path = path.as_ref();
        let bytes = std::fs::read(path)
            .map_err(|e| SpecError(format!("cannot read checkpoint {}: {e}", path.display())))?;
        Self::from_binary(&bytes)
            .map_err(|e| SpecError(format!("checkpoint {}: {}", path.display(), e.0)))
    }

    /// Verify that `spec` describes the same experiment this checkpoint
    /// was taken from. The engine snapshot only stores state the spec
    /// cannot rebuild, so resuming under a different spec would silently
    /// mix two experiments.
    ///
    /// Execution-mode knobs — shard count, pipelining, Q-table paging
    /// threshold — are deliberately **excluded** from the comparison: the
    /// snapshot is partition-independent, and resuming a `shards = N`
    /// checkpoint at `shards = M` is part of the contract. Everything
    /// else must match exactly; the error names the first mismatched
    /// field.
    pub fn check_spec_matches(&self, spec: &ExperimentSpec) -> Result<(), SpecError> {
        let ours = self.spec.result_identity().to_value();
        let theirs = spec.result_identity().to_value();
        let sides = ("the checkpoint", "the request");
        if let Some(diff) = first_tree_difference("spec", &ours, &theirs, sides, &[]) {
            return Err(SpecError(format!(
                "checkpoint was taken from experiment {:?}, which differs from the \
                 requested experiment {:?} at {diff}; resume with the same scenario \
                 file, seed and overrides (execution-mode knobs — shards, pipeline — \
                 may differ)",
                self.spec.name, spec.name
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dragonfly_engine::EngineConfig;
    use dragonfly_topology::config::DragonflyConfig;

    fn spec() -> ExperimentSpec {
        let mut s = ExperimentSpec::new(DragonflyConfig::tiny());
        s.name = "ck-test".to_string();
        s
    }

    fn sample() -> RunCheckpoint {
        let mut engine = EngineCheckpoint {
            now: 123,
            ..Default::default()
        };
        engine.shard.generated = 5;
        RunCheckpoint::new(spec(), engine, MetricsCollector::new(0, 1_000))
    }

    #[test]
    fn unknown_version_is_rejected_with_context() {
        let mut ck = sample();
        ck.version = "qadaptive-checkpoint-v999".to_string();
        let err = RunCheckpoint::from_binary(&ck.to_binary()).unwrap_err();
        assert!(err.0.contains("v999"), "error names the bad version: {err}");
    }

    #[test]
    fn spec_mismatch_is_rejected_with_both_names() {
        let ck = sample();
        let mut other = spec();
        other.seed = Some(999);
        let err = ck.check_spec_matches(&other).unwrap_err();
        assert!(
            err.0.contains("ck-test"),
            "error names the experiments: {err}"
        );
        assert!(
            err.0.contains("spec.seed"),
            "error names the mismatched field: {err}"
        );
    }

    #[test]
    fn execution_mode_overrides_do_not_block_resume() {
        // A resume may change shards / pipeline / paging threshold
        // freely — only knobs that alter the simulated experiment must
        // match.
        use dragonfly_engine::config::ShardKind;
        let ck = sample(); // engine: None
        let mut other = spec();
        other.engine = Some(EngineConfig {
            shards: ShardKind::Fixed(4),
            pipeline: true,
            ..Default::default()
        });
        ck.check_spec_matches(&other).unwrap();

        // But an engine knob that changes physics still trips the guard.
        let mut physical = spec();
        physical.engine = Some(EngineConfig {
            local_latency_ns: 99,
            ..Default::default()
        });
        let err = ck.check_spec_matches(&physical).unwrap_err();
        assert!(
            err.0.contains("spec.engine"),
            "error names the engine block: {err}"
        );
    }

    #[test]
    fn save_is_atomic_and_overwrites_cleanly() {
        let dir = std::env::temp_dir().join("qadaptive-ck-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("atomic.ckpt");
        let tmp = dir.join("atomic.ckpt.tmp");

        // First write, then overwrite with a different snapshot — the
        // rename must replace the old file and leave no temp file behind.
        sample().save(&path).unwrap();
        let mut second = sample();
        second.engine.now = 456;
        second.save(&path).unwrap();
        assert!(!tmp.exists(), "temp file must not survive a save");
        let back = RunCheckpoint::load(&path).unwrap();
        assert_eq!(back.engine.now, 456);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn binary_round_trip_preserves_everything() {
        let back = RunCheckpoint::from_binary(&sample().to_binary()).unwrap();
        assert_eq!(back.version, CHECKPOINT_VERSION);
        assert_eq!(back.engine.now, 123);
        assert_eq!(back.engine.shard.generated, 5);
        assert_eq!(back.collector.window_end_ns, 1_000);
        back.check_spec_matches(&spec()).unwrap();
        // Nothing is lost on the way: the JSON rendering is unchanged.
        assert_eq!(sample().to_json(), back.to_json());
    }

    #[test]
    fn default_save_is_binary_and_load_sniffs_it() {
        let dir = std::env::temp_dir().join("qadaptive-ck-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("default.ckpt");
        sample().save(&path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        assert!(
            binary::looks_binary(&bytes),
            "save() writes the binary encoding"
        );
        let back = RunCheckpoint::load(&path).unwrap();
        assert_eq!(back.engine.now, 123);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncated_binary_file_is_a_contextual_error_naming_the_path() {
        let dir = std::env::temp_dir().join("qadaptive-ck-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("truncated.ckpt");
        let mut bytes = sample().to_binary();
        bytes.truncate(bytes.len() / 2); // simulate a torn non-atomic write
        std::fs::write(&path, bytes).unwrap();
        let err = RunCheckpoint::load(&path).unwrap_err();
        assert!(
            err.0.contains("truncated.ckpt") && err.0.contains("truncated or corrupted"),
            "error names the file and the cause: {err}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupted_binary_payload_is_a_contextual_error_naming_the_path() {
        let dir = std::env::temp_dir().join("qadaptive-ck-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("corrupt.ckpt");
        let mut bytes = sample().to_binary();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        // Decoding may fail at the codec layer or at the typed layer
        // (a flipped byte can still be a well-formed tree of the wrong
        // shape); either way the error is clean and names the file.
        if let Err(err) = RunCheckpoint::load(&path) {
            assert!(
                err.0.contains("corrupt.ckpt"),
                "error names the file: {err}"
            );
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn wrong_magic_binary_file_is_a_contextual_error_naming_the_path() {
        let dir = std::env::temp_dir().join("qadaptive-ck-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wrongmagic.ckpt");
        let mut bytes = sample().to_binary();
        bytes[0] = b'X';
        // A damaged magic and a JSON rendering are the same case: no
        // magic, so not a snapshot this build reads.
        for content in [bytes, sample().to_json().into_bytes()] {
            std::fs::write(&path, &content).unwrap();
            let err = RunCheckpoint::load(&path).unwrap_err();
            assert!(
                err.0.contains("wrongmagic.ckpt")
                    && err.0.contains("malformed")
                    && err.0.contains(CHECKPOINT_VERSION),
                "error names the file, the cause and the supported tag: {err}"
            );
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn future_binary_codec_version_is_rejected_cleanly() {
        let mut bytes = sample().to_binary();
        bytes[7] = 200; // codec version byte inside the magic
        let err = RunCheckpoint::from_binary(&bytes).unwrap_err();
        assert!(err.0.contains("version 200"), "{err}");
    }

    #[test]
    fn save_and_load_round_trip_through_a_file() {
        let dir = std::env::temp_dir().join("qadaptive-ck-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.ckpt");
        sample().save(&path).unwrap();
        let back = RunCheckpoint::load(&path).unwrap();
        assert_eq!(back.engine.now, 123);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_a_contextual_error() {
        let err = RunCheckpoint::load("/nonexistent/qadaptive.ckpt").unwrap_err();
        assert!(err.0.contains("cannot read checkpoint"), "{err}");
    }
}
