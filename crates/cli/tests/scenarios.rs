//! End-to-end tests over the checked-in scenario library: every file under
//! `scenarios/` must parse, validate and round-trip through both
//! encodings, and the quickstart scenario must run through the actual
//! `qadaptive-cli` binary.

use dragonfly_sim::spec::{ExperimentSpec, SweepSpec};
use std::path::PathBuf;
use std::process::Command;

fn scenarios_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../scenarios")
}

fn scenario_files() -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(scenarios_dir())
        .expect("scenarios/ exists")
        .map(|entry| entry.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "toml"))
        .collect();
    files.sort();
    assert!(files.len() >= 5, "the scenario library went missing");
    files
}

/// Each scenario parses as exactly one of the two spec kinds and
/// round-trips through TOML and JSON.
#[test]
fn every_scenario_parses_and_round_trips() {
    for path in scenario_files() {
        let name = path.file_name().unwrap().to_string_lossy().to_string();
        match ExperimentSpec::from_path(&path) {
            Ok(spec) => {
                assert_eq!(
                    ExperimentSpec::from_toml(&spec.to_toml()).unwrap(),
                    spec,
                    "{name}: TOML round trip"
                );
                assert_eq!(
                    ExperimentSpec::from_json(&spec.to_json()).unwrap(),
                    spec,
                    "{name}: JSON round trip"
                );
            }
            Err(as_experiment) => {
                let sweep = SweepSpec::from_path(&path).unwrap_or_else(|as_sweep| {
                    panic!("{name}: not a spec ({as_experiment} / {as_sweep})")
                });
                assert_eq!(
                    SweepSpec::from_toml(&sweep.to_toml()).unwrap(),
                    sweep,
                    "{name}: TOML round trip"
                );
                assert_eq!(
                    SweepSpec::from_json(&sweep.to_json()).unwrap(),
                    sweep,
                    "{name}: JSON round trip"
                );
            }
        }
    }
}

/// The quickstart scenario runs end to end through the real binary and
/// produces a parseable JSON report.
#[test]
fn quickstart_scenario_runs_through_the_cli_binary() {
    let output = Command::new(env!("CARGO_BIN_EXE_qadaptive-cli"))
        .args([
            "run",
            scenarios_dir()
                .join("quickstart_tiny.toml")
                .to_str()
                .unwrap(),
            "--format",
            "json",
        ])
        .output()
        .expect("binary runs");
    assert!(
        output.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let report: dragonfly_metrics::report::SimulationReport =
        serde_json::from_str(&String::from_utf8_lossy(&output.stdout)).expect("valid JSON report");
    assert_eq!(report.routing, "Q-adp");
    assert_eq!(report.traffic, "UR");
    assert!(report.packets_delivered > 100);
    assert!(report.throughput > 0.1);
}

/// A repeated-seed sweep emits both raw rows and per-point mean/std-error
/// aggregation in the JSON output.
#[test]
fn repeated_seed_sweep_reports_raw_and_aggregated_rows() {
    let output = Command::new(env!("CARGO_BIN_EXE_qadaptive-cli"))
        .args([
            "sweep",
            scenarios_dir()
                .join("seeds_mean_ci_tiny.toml")
                .to_str()
                .unwrap(),
            "--format",
            "json",
        ])
        .output()
        .expect("binary runs");
    assert!(
        output.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let result: dragonfly_sim::sweep::SweepOutput =
        serde_json::from_str(&String::from_utf8_lossy(&output.stdout)).expect("valid JSON output");
    assert_eq!(result.raw.len(), 12, "2 routings x 2 loads x 3 seeds");
    assert_eq!(result.aggregated.len(), 4, "one row per (routing, load)");
    for row in &result.aggregated {
        assert_eq!(row.runs, 3);
        assert!(row.throughput.mean > 0.0);
    }
    // The stderr perf line makes engine regressions visible in normal use.
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("events/s"), "stderr: {stderr}");
}

/// `figure` ids resolve and the static ones execute through the binary.
#[test]
fn static_figures_run_through_the_cli_binary() {
    for id in ["table1", "memory"] {
        let output = Command::new(env!("CARGO_BIN_EXE_qadaptive-cli"))
            .args(["figure", id, "--format", "csv"])
            .output()
            .expect("binary runs");
        assert!(output.status.success(), "figure {id} failed");
        let stdout = String::from_utf8_lossy(&output.stdout);
        assert!(stdout.contains("1,056-node"), "figure {id}: {stdout}");
    }
}

/// `checkpoint dump` prints a snapshot written by `run --checkpoint-every`
/// as JSON carrying the one supported format tag.
#[test]
fn checkpoint_dump_prints_a_snapshot_as_json() {
    let dir = std::env::temp_dir().join("qadaptive-cli-dump-test");
    std::fs::create_dir_all(&dir).unwrap();
    let snapshot = dir.join("retransmit.ckpt");
    let cli = |args: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_qadaptive-cli"))
            .args(args)
            .output()
            .expect("binary runs")
    };
    let scenario = scenarios_dir().join("faults_retransmit_tiny.toml");
    let run = cli(&[
        "run",
        scenario.to_str().unwrap(),
        "--checkpoint-every",
        "20000",
        "--checkpoint-path",
        snapshot.to_str().unwrap(),
    ]);
    assert!(
        run.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&run.stderr)
    );
    let dump = cli(&["checkpoint", "dump", snapshot.to_str().unwrap()]);
    std::fs::remove_file(&snapshot).ok();
    assert!(
        dump.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&dump.stderr)
    );
    let tree = serde_json::parse_value(&String::from_utf8_lossy(&dump.stdout))
        .expect("the dump is valid JSON");
    assert_eq!(
        tree.get("version"),
        Some(&serde_json::Value::Str(
            "qadaptive-checkpoint-v5".to_string()
        ))
    );
    assert!(tree.get("engine").is_some() && tree.get("collector").is_some());
    // Read-only and flag-free.
    let flagged = cli(&["checkpoint", "dump", "x.ckpt", "--format", "json"]);
    assert_eq!(flagged.status.code(), Some(2));
}

/// The retired `bench` subcommand and its flags, and the retired snapshot
/// format flag, are refused like any other unknown command or flag.
#[test]
fn retired_commands_and_flags_exit_2_as_unknown() {
    let scenario = scenarios_dir().join("quickstart_tiny.toml");
    let scenario = scenario.to_str().unwrap();
    for (args, complaint) in [
        (vec!["bench"], "unknown command `bench`"),
        (
            vec!["run", scenario, "--checkpoint-format", "json"],
            "unknown flag `--checkpoint-format`",
        ),
        (
            vec!["run", scenario, "--baseline", "x"],
            "unknown flag `--baseline`",
        ),
    ] {
        let output = Command::new(env!("CARGO_BIN_EXE_qadaptive-cli"))
            .args(&args)
            .output()
            .expect("binary runs");
        assert_eq!(output.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(stderr.contains(complaint), "{args:?}: {stderr}");
    }
}

/// A checkpoint that cannot be written stops the run there: exit 1 (a
/// runtime failure, not a usage error), the path named on stderr, and no
/// report left behind for a run that was abandoned.
#[test]
fn failed_checkpoint_write_stops_the_run_with_exit_1() {
    let dir = std::env::temp_dir().join("qadaptive-cli-ckpt-fail-test");
    std::fs::create_dir_all(&dir).unwrap();
    let report = dir.join("report.json");
    std::fs::remove_file(&report).ok();
    let snapshot = dir.join("no-such-dir").join("x.ckpt");
    let output = Command::new(env!("CARGO_BIN_EXE_qadaptive-cli"))
        .args([
            "run",
            scenarios_dir()
                .join("faults_retransmit_tiny.toml")
                .to_str()
                .unwrap(),
            "--checkpoint-every",
            "20000",
            "--checkpoint-path",
            snapshot.to_str().unwrap(),
            "--format",
            "json",
            "--out",
            report.to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(1), "stderr: {stderr}");
    assert!(stderr.contains(snapshot.to_str().unwrap()), "{stderr}");
    assert!(!report.exists(), "an abandoned run must not write a report");
}

/// A snapshot that cannot be read back is a runtime failure naming the
/// file — and a clean one even for the 30 bytes that claim 2^40 floats in
/// one run, which used to abort the process inside the allocator.
#[test]
fn unreadable_snapshot_fails_resume_with_exit_1_naming_the_file() {
    let dir = std::env::temp_dir().join("qadaptive-cli-resume-fail-test");
    std::fs::create_dir_all(&dir).unwrap();
    let snapshot = dir.join("bomb.ckpt");
    let mut bytes = b"QADBIN\x00\x01".to_vec();
    bytes.push(0); // empty key dictionary
    bytes.push(9); // a run-length encoded float sequence…
    let two_to_the_40 = [0x80, 0x80, 0x80, 0x80, 0x80, 0x20];
    bytes.extend_from_slice(&two_to_the_40); // …of 2^40 elements…
    bytes.extend_from_slice(&two_to_the_40); // …in one run…
    bytes.extend_from_slice(&1.0f64.to_le_bytes()); // …of 1.0
    assert_eq!(bytes.len(), 30);
    std::fs::write(&snapshot, bytes).unwrap();
    let output = Command::new(env!("CARGO_BIN_EXE_qadaptive-cli"))
        .args([
            "run",
            scenarios_dir()
                .join("quickstart_tiny.toml")
                .to_str()
                .unwrap(),
            "--resume-from",
            snapshot.to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    std::fs::remove_file(&snapshot).ok();
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(1), "stderr: {stderr}");
    assert!(
        stderr.contains(snapshot.to_str().unwrap()) && stderr.contains("at byte"),
        "{stderr}"
    );
}

/// A snapshot that reads back but does not fit the engine it describes — a
/// Q-row index far outside the table — is the same kind of failure: exit 1
/// naming the file, the router and the field, where the table loader used
/// to panic (exit 101) half-way through the restore.
#[test]
fn unrestorable_snapshot_fails_resume_with_exit_1_naming_the_file() {
    use dragonfly_sim::checkpoint::RunCheckpoint;
    let fixture =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../sim/tests/data/paged_qadp_tiny.ckpt");
    let mut ck = RunCheckpoint::load(&fixture).expect("fixture");
    let dir = std::env::temp_dir().join("qadaptive-cli-unrestorable-test");
    std::fs::create_dir_all(&dir).unwrap();
    let scenario = dir.join("scenario.toml");
    std::fs::write(&scenario, ck.spec.to_toml()).unwrap();
    let snapshot = dir.join("bad-rows.ckpt");
    *ck.engine.shard.agents[1].q_rows.last_mut().unwrap() = 1_000_000;
    ck.save(&snapshot).unwrap();
    let output = Command::new(env!("CARGO_BIN_EXE_qadaptive-cli"))
        .args([
            "run",
            scenario.to_str().unwrap(),
            "--resume-from",
            snapshot.to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(1), "stderr: {stderr}");
    assert!(
        stderr.contains(snapshot.to_str().unwrap())
            && stderr.contains("agent of router 1: q_rows[17] = 1000000"),
        "{stderr}"
    );

    // The untouched fixture under a scenario it was not taken from is
    // still a usage error.
    let output = Command::new(env!("CARGO_BIN_EXE_qadaptive-cli"))
        .args([
            "run",
            scenario.to_str().unwrap(),
            "--seed",
            "999",
            "--resume-from",
            fixture.to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains("differs"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

/// A router section that reads back but belongs to a router of another
/// shape resumed silently, or panicked inside the router half-way through
/// the run; it is refused the same way, naming the router and the field.
#[test]
fn misshapen_router_section_fails_resume_with_exit_1_naming_the_file() {
    use dragonfly_sim::checkpoint::RunCheckpoint;
    let fixture =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../sim/tests/data/qadp_tiny.ckpt");
    let mut ck = RunCheckpoint::load(&fixture).expect("fixture");
    let dir = std::env::temp_dir().join("qadaptive-cli-misshapen-router-test");
    std::fs::create_dir_all(&dir).unwrap();
    let scenario = dir.join("scenario.toml");
    std::fs::write(&scenario, ck.spec.to_toml()).unwrap();
    let snapshot = dir.join("bad-router.ckpt");
    let radix_3 = dragonfly_topology::Dragonfly::new(dragonfly_topology::DragonflyConfig {
        p: 1,
        a: 2,
        h: 1,
    });
    ck.engine.shard.routers[1] = dragonfly_engine::router::RouterState::new(
        &radix_3.into(),
        dragonfly_topology::RouterId(0),
        &dragonfly_engine::EngineConfig::paper(ck.engine.shard.routers[1].num_vcs()),
    );
    ck.save(&snapshot).unwrap();
    let output = Command::new(env!("CARGO_BIN_EXE_qadaptive-cli"))
        .args([
            "run",
            scenario.to_str().unwrap(),
            "--resume-from",
            snapshot.to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    std::fs::remove_dir_all(&dir).ok();
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(1), "stderr: {stderr}");
    assert!(
        stderr.contains(snapshot.to_str().unwrap())
            && stderr
                .contains("state of router 1: num_ports = 3, the topology gives this router 7"),
        "{stderr}"
    );
}

/// A NIC source queue pointing outside the arena panicked with an index
/// out of bounds half-way through the resume. A NIC now counts its queued
/// messages in the backlog section, and a count the backlog does not hold
/// is refused the same way, naming the section and the field.
#[test]
fn damaged_nic_section_fails_resume_with_exit_1_naming_the_file() {
    use dragonfly_sim::checkpoint::RunCheckpoint;
    let fixture =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../sim/tests/data/qadp_tiny.ckpt");
    let mut ck = RunCheckpoint::load(&fixture).expect("fixture");
    let dir = std::env::temp_dir().join("qadaptive-cli-damaged-nic-test");
    std::fs::create_dir_all(&dir).unwrap();
    let scenario = dir.join("scenario.toml");
    std::fs::write(&scenario, ck.spec.to_toml()).unwrap();
    let snapshot = dir.join("bad-nic.ckpt");
    let messages = ck.engine.shard.backlog.len();
    ck.engine.shard.nics[0].queued += 1;
    ck.save(&snapshot).unwrap();
    let output = Command::new(env!("CARGO_BIN_EXE_qadaptive-cli"))
        .args([
            "run",
            scenario.to_str().unwrap(),
            "--resume-from",
            snapshot.to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    std::fs::remove_dir_all(&dir).ok();
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(1), "stderr: {stderr}");
    assert!(
        stderr.contains(snapshot.to_str().unwrap())
            && stderr.contains(&format!(
                "nics: the queued counts sum to {}, the backlog holds {messages} messages",
                messages + 1
            )),
        "{stderr}"
    );
}
