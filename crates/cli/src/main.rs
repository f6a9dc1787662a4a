//! `qadaptive-cli` — the data-driven experiment runner.
//!
//! Every experiment in this repository is described by a serialisable spec
//! (see `dragonfly_sim::spec`); this binary loads those specs from TOML or
//! JSON scenario files and runs them:
//!
//! ```text
//! qadaptive-cli run   scenarios/adv1_qadaptive.toml [--seed S] [--format text|csv|json] [--out FILE]
//! qadaptive-cli sweep scenarios/adv_shift_sweep.toml [--threads N] [--format text|csv|json] [--out FILE]
//! qadaptive-cli figure <5|6|7|8|9|table1|memory|maxq> [--quick|--full] [--threads N] [--seed S]
//!                      [--format text|csv|json] [--out FILE]
//! qadaptive-cli list
//! qadaptive-cli topologies                              # registered topologies + parameter schemas
//! qadaptive-cli workloads                               # closed-loop workload kinds + scenario forms
//! qadaptive-cli show  scenarios/adv1_qadaptive.toml     # parse, validate, echo as TOML + JSON
//! qadaptive-cli checkpoint dump run.ckpt                # print a snapshot as JSON
//! ```

use dragonfly_bench::figures;
use dragonfly_bench::harness::{apply_engine_overrides, markdown_table, parse_shards, BenchArgs};
use dragonfly_engine::config::ShardKind;
use dragonfly_sim::spec::{ExperimentSpec, SweepSpec};
use std::process::ExitCode;

/// Output format for results.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Format {
    Text,
    Csv,
    Json,
}

/// A CLI failure: the message printed to stderr plus the process exit
/// code. Usage and configuration mistakes exit 2 (the historical code
/// for every error); runtime failures — a snapshot that cannot be read
/// back or restored (`--resume-from` on a missing, damaged or foreign
/// file, or one whose contents do not fit the engine it describes), a
/// checkpoint that cannot be written, the finished report failing to
/// serialise — exit 1, so scripts can tell "you called it wrong" from
/// "it broke".
struct CliError {
    message: String,
    code: u8,
}

impl CliError {
    /// A runtime failure (exit code 1).
    fn runtime(message: String) -> Self {
        Self { message, code: 1 }
    }
}

impl From<String> for CliError {
    fn from(message: String) -> Self {
        Self { message, code: 2 }
    }
}

/// Flags shared by all subcommands.
struct CommonFlags {
    threads: usize,
    format: Format,
    out: Option<String>,
    quick_full: Option<bool>, // Some(false) = --quick, Some(true) = --full
    seed: Option<u64>,
    shards: Option<ShardKind>,
    pipeline: Option<bool>,
    cache_dir: Option<String>,
    no_cache: bool,
    checkpoint_every: Option<u64>,
    checkpoint_path: Option<String>,
    resume_from: Option<String>,
    positional: Vec<String>,
}

fn parse_flags(args: &[String]) -> Result<CommonFlags, String> {
    let mut flags = CommonFlags {
        threads: 0,
        format: Format::Text,
        out: None,
        quick_full: None,
        seed: None,
        shards: None,
        pipeline: None,
        cache_dir: None,
        no_cache: false,
        checkpoint_every: None,
        checkpoint_path: None,
        resume_from: None,
        positional: Vec::new(),
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--threads" => {
                flags.threads = next_value(args, &mut i, "--threads")?
                    .parse()
                    .map_err(|e| format!("--threads: {e}"))?;
            }
            "--seed" => {
                flags.seed = Some(
                    next_value(args, &mut i, "--seed")?
                        .parse()
                        .map_err(|e| format!("--seed: {e}"))?,
                );
            }
            "--format" => {
                flags.format = match next_value(args, &mut i, "--format")?.as_str() {
                    "text" => Format::Text,
                    "csv" => Format::Csv,
                    "json" => Format::Json,
                    other => return Err(format!("unknown format `{other}`")),
                };
            }
            "--out" => flags.out = Some(next_value(args, &mut i, "--out")?),
            "--shards" => {
                flags.shards = Some(parse_shards(&next_value(args, &mut i, "--shards")?)?);
            }
            "--pipeline" => flags.pipeline = Some(true),
            "--no-pipeline" => flags.pipeline = Some(false),
            "--cache-dir" => flags.cache_dir = Some(next_value(args, &mut i, "--cache-dir")?),
            "--no-cache" => flags.no_cache = true,
            "--checkpoint-every" => {
                flags.checkpoint_every = Some(
                    next_value(args, &mut i, "--checkpoint-every")?
                        .parse()
                        .map_err(|e| format!("--checkpoint-every (simulated ns): {e}"))?,
                );
            }
            "--checkpoint-path" => {
                flags.checkpoint_path = Some(next_value(args, &mut i, "--checkpoint-path")?);
            }
            "--resume-from" => {
                flags.resume_from = Some(next_value(args, &mut i, "--resume-from")?);
            }
            "--quick" => flags.quick_full = Some(false),
            "--full" => flags.quick_full = Some(true),
            flag if flag.starts_with("--") => return Err(format!("unknown flag `{flag}`")),
            positional => flags.positional.push(positional.to_string()),
        }
        i += 1;
    }
    Ok(flags)
}

fn next_value(args: &[String], i: &mut usize, flag: &str) -> Result<String, String> {
    *i += 1;
    args.get(*i)
        .cloned()
        .ok_or_else(|| format!("{flag} needs a value"))
}

/// Write to `--out` or stdout.
fn emit(flags: &CommonFlags, content: &str) -> Result<(), String> {
    match &flags.out {
        Some(path) => {
            std::fs::write(path, content).map_err(|e| format!("cannot write {path}: {e}"))?;
            eprintln!("wrote {path}");
            Ok(())
        }
        None => {
            println!("{content}");
            Ok(())
        }
    }
}

fn usage() -> String {
    let figure_ids: Vec<&str> = figures::catalog().iter().map(|f| f.id).collect();
    format!(
        "qadaptive-cli — data-driven Dragonfly experiment runner\n\
         \n\
         USAGE:\n\
         \u{20}   qadaptive-cli run    <spec.toml|spec.json>  [--seed S] [--shards auto|single|N]\n\
         \u{20}                        [--pipeline|--no-pipeline] [--format text|csv|json] [--out FILE]\n\
         \u{20}                        [--checkpoint-every NS [--checkpoint-path FILE]]\n\
         \u{20}                        [--resume-from FILE]\n\
         \u{20}   qadaptive-cli sweep  <spec.toml|spec.json>  [--threads N] [--seed S] [--shards ...]\n\
         \u{20}                        [--pipeline|--no-pipeline] [--format text|csv|json] [--out FILE]\n\
         \u{20}   qadaptive-cli figure <id>  [--quick|--full] [--threads N] [--seed S] [--shards ...]\n\
         \u{20}                        [--pipeline|--no-pipeline] [--cache-dir DIR] [--no-cache]\n\
         \u{20}                        [--format text|csv|json] [--out FILE]\n\
         \u{20}   qadaptive-cli show   <spec.toml|spec.json>   (parse + validate + echo both encodings)\n\
         \u{20}   qadaptive-cli list                           (catalog of figures and their titles)\n\
         \u{20}   qadaptive-cli topologies                     (registered topologies + parameter schemas)\n\
         \u{20}   qadaptive-cli workloads                      (closed-loop workload kinds + scenario forms)\n\
         \u{20}   qadaptive-cli checkpoint dump <FILE>         (print a snapshot as JSON)\n\
         \n\
         FIGURE IDS: {}\n\
         \n\
         `run` takes a single-experiment spec, `sweep` a grid spec — see\n\
         scenarios/README.md for the file format. `--shards` runs each\n\
         simulation on N conservative-parallel cores (every run defaults\n\
         to `auto`, one per CPU; a sweep gives its points the cores first;\n\
         `single` is the sequential loop); sharded runs go in lockstep on\n\
         lookahead windows, and `--pipeline` lets them run one window\n\
         apart on half-lookahead ones; results are bit-for-bit identical\n\
         for every combination. `figure --cache-dir`\n\
         reuses results of unchanged points across invocations — shard\n\
         and pipeline choices never invalidate the cache.\n\
         \n\
         `run --checkpoint-every NS` snapshots the full simulation state\n\
         every NS simulated nanoseconds (to --checkpoint-path, default\n\
         <scenario>.ckpt, each snapshot atomically overwriting the\n\
         last). Snapshots are compact binary files; `checkpoint dump`\n\
         prints one as JSON. `--resume-from FILE` continues a snapshotted\n\
         run bit-for-bit — the resumed run reproduces the uninterrupted\n\
         report exactly. Works with any --shards/--pipeline setting, and\n\
         the resuming run may use a different one (snapshots are\n\
         partition-independent); the scenario, seed and all other\n\
         overrides must match the checkpointing run.",
        figure_ids.join(", ")
    )
}

/// Reject accepted-but-ignored flags: an unknown flag already errors, so a
/// silently dropped one would wrongly look like it took effect.
fn reject_mode_flags(flags: &CommonFlags, command: &str) -> Result<(), String> {
    if flags.quick_full.is_some() {
        return Err(format!(
            "--quick/--full only apply to `figure`; `{command}` takes its windows from the spec file"
        ));
    }
    Ok(())
}

/// `--cache-dir`/`--no-cache` only make sense for `figure`.
fn reject_cache_flags(flags: &CommonFlags, command: &str) -> Result<(), String> {
    if flags.cache_dir.is_some() || flags.no_cache {
        return Err(format!(
            "--cache-dir/--no-cache only apply to `figure`, not `{command}`"
        ));
    }
    Ok(())
}

/// `--checkpoint-every`/`--checkpoint-path`/`--resume-from` only make
/// sense for `run` (one resumable simulation).
fn reject_checkpoint_flags(flags: &CommonFlags, command: &str) -> Result<(), String> {
    if flags.checkpoint_every.is_some()
        || flags.checkpoint_path.is_some()
        || flags.resume_from.is_some()
    {
        return Err(format!(
            "--checkpoint-every/--checkpoint-path/--resume-from only apply to `run`, \
             not `{command}`"
        ));
    }
    Ok(())
}

/// Execute one experiment, honouring `--checkpoint-every`,
/// `--checkpoint-path` and `--resume-from` (without them the run takes one
/// step to its end and the sink below is never called).
///
/// Checkpoints are written atomically (temp file + rename, see
/// `RunCheckpoint::save`) to `--checkpoint-path`, defaulting to the
/// scenario path with `.ckpt` appended; each snapshot replaces the
/// previous one, so the path always holds a complete resumable state even
/// if the process dies mid-write. The first snapshot that cannot be
/// written stops the run (exit 1): simulating on would only produce a
/// report the caller asked to be able to resume towards and cannot.
fn run_spec(
    flags: &CommonFlags,
    scenario_path: &str,
    spec: &ExperimentSpec,
) -> Result<dragonfly_sim::builder::Simulation, CliError> {
    use dragonfly_sim::checkpoint::RunCheckpoint;
    if flags.checkpoint_path.is_some() && flags.checkpoint_every.is_none() {
        return Err(
            "--checkpoint-path needs --checkpoint-every NS to decide when to snapshot"
                .to_string()
                .into(),
        );
    }
    let resume = match &flags.resume_from {
        Some(file) => {
            let ck = RunCheckpoint::load(file).map_err(|e| CliError::runtime(e.to_string()))?;
            // The wrong scenario for this snapshot is a usage error; once
            // it matches, whatever still stops the resume is in the file.
            ck.check_spec_matches(spec).map_err(|e| e.to_string())?;
            eprintln!(
                "resuming from {file} at t = {} ns (simulated)",
                ck.engine.now
            );
            Some(ck)
        }
        None => None,
    };
    let ck_path = flags
        .checkpoint_path
        .clone()
        .unwrap_or_else(|| format!("{scenario_path}.ckpt"));
    let mut save_failed = false;
    spec.run_checkpointed_to_end(resume, flags.checkpoint_every, |ck| {
        ck.save(&ck_path).inspect_err(|_| save_failed = true)?;
        eprintln!(
            "checkpoint: {ck_path} @ t = {} ns (simulated)",
            ck.engine.now
        );
        Ok(())
    })
    .map_err(|e| {
        if save_failed {
            CliError::runtime(format!(
                "stopped at the first failed checkpoint write to {ck_path}: {e}"
            ))
        } else if let Some(file) = &flags.resume_from {
            CliError::runtime(format!("{file}: {e}"))
        } else {
            e.to_string().into()
        }
    })
}

fn cmd_run(flags: &CommonFlags) -> Result<(), CliError> {
    reject_mode_flags(flags, "run")?;
    reject_cache_flags(flags, "run")?;
    if flags.threads != 0 {
        return Err(
            "--threads only applies to `sweep` and `figure` (a `run` is one simulation)"
                .to_string()
                .into(),
        );
    }
    let path = flags
        .positional
        .first()
        .ok_or_else(|| format!("`run` needs a scenario file\n\n{}", usage()))?;
    let mut spec = ExperimentSpec::from_path(path).map_err(|e| {
        if SweepSpec::from_path(path).is_ok() {
            format!("{path} is a sweep spec — use `qadaptive-cli sweep {path}`")
        } else {
            e.to_string()
        }
    })?;
    if let Some(seed) = flags.seed {
        spec.seed = Some(seed);
    }
    apply_engine_overrides(&mut spec.engine, flags.shards, flags.pipeline);
    eprintln!("running: {}", spec.label());
    let sim = run_spec(flags, path, &spec)?;
    let report = sim.report();
    eprintln!(
        "perf: {} events in {:.3} s wall ({:.2} M events/s)",
        report.events_processed,
        report.wall_seconds,
        report.events_processed as f64 / report.wall_seconds.max(1e-9) / 1e6
    );
    eprintln!("heap: {}", sim.memory_breakdown());
    match flags.format {
        Format::Text => emit(flags, &report.summary())?,
        Format::Csv => emit(
            flags,
            &format!(
                "{}\n{}",
                dragonfly_metrics::report::SimulationReport::csv_header(),
                report.csv_row()
            ),
        )?,
        Format::Json => {
            let json = serde_json::to_string_pretty(&report).map_err(|e| {
                CliError::runtime(format!("cannot serialise the finished report as JSON: {e}"))
            })?;
            emit(flags, &json)?;
        }
    }
    Ok(())
}

fn cmd_sweep(flags: &CommonFlags) -> Result<(), CliError> {
    reject_mode_flags(flags, "sweep")?;
    reject_cache_flags(flags, "sweep")?;
    reject_checkpoint_flags(flags, "sweep")?;
    let path = flags
        .positional
        .first()
        .ok_or_else(|| format!("`sweep` needs a scenario file\n\n{}", usage()))?;
    let mut sweep = SweepSpec::from_path(path).map_err(|e| {
        if ExperimentSpec::from_path(path).is_ok() {
            format!("{path} is a single-experiment spec — use `qadaptive-cli run {path}`")
        } else {
            e.to_string()
        }
    })?;
    if let Some(seed) = flags.seed {
        sweep.seed = Some(seed);
    }
    apply_engine_overrides(&mut sweep.engine, flags.shards, flags.pipeline);
    eprintln!(
        "sweeping: {} ({} points)",
        if sweep.name.is_empty() {
            path.as_str()
        } else {
            &sweep.name
        },
        sweep.len()
    );
    let result = sweep.run_parallel(flags.threads);
    let (total_events, total_wall): (u64, f64) =
        result.reports.iter().fold((0, 0.0), |(e, w), r| {
            (e + r.events_processed, w + r.wall_seconds)
        });
    eprintln!(
        "perf: {} events in {:.3} s simulation wall time ({:.2} M events/s per worker)",
        total_events,
        total_wall,
        total_events as f64 / total_wall.max(1e-9) / 1e6
    );
    match flags.format {
        Format::Text => {
            let rows: Vec<Vec<String>> = result
                .reports
                .iter()
                .map(|r| {
                    vec![
                        r.routing.clone(),
                        r.traffic.clone(),
                        format!("{:.2}", r.offered_load),
                        format!("{:.3}", r.throughput),
                        format!("{:.2}", r.mean_latency_us),
                        format!("{:.2}", r.p99_latency_us),
                        format!("{:.2}", r.mean_hops),
                    ]
                })
                .collect();
            let mut text = markdown_table(
                &[
                    "routing",
                    "traffic",
                    "load",
                    "throughput",
                    "mean (us)",
                    "p99 (us)",
                    "hops",
                ],
                &rows,
            );
            if result.has_repetitions() {
                let aggregated = result.aggregated();
                let agg_rows: Vec<Vec<String>> = aggregated
                    .iter()
                    .map(|a| {
                        vec![
                            a.routing.clone(),
                            a.traffic.clone(),
                            format!("{:.2}", a.offered_load),
                            a.runs.to_string(),
                            a.throughput.display(),
                            a.mean_latency_us.display(),
                            a.p99_latency_us.display(),
                        ]
                    })
                    .collect();
                text.push_str("\n\naggregated over repeated seeds (mean ± std error):\n");
                text.push_str(&markdown_table(
                    &[
                        "routing",
                        "traffic",
                        "load",
                        "runs",
                        "throughput",
                        "mean (us)",
                        "p99 (us)",
                    ],
                    &agg_rows,
                ));
            }
            emit(flags, &text)?;
        }
        Format::Csv => {
            if !result.has_repetitions() {
                return Ok(emit(flags, &result.to_csv())?);
            }
            // Raw and aggregated rows have different schemas, so a single
            // CSV stream would not be machine-readable. With --out the
            // aggregation goes to a sibling `<stem>_aggregated.csv` file;
            // on stdout the two blocks are printed with a separator.
            match &flags.out {
                Some(path) => {
                    emit(flags, &result.to_csv())?;
                    let agg_path = match path.strip_suffix(".csv") {
                        Some(stem) => format!("{stem}_aggregated.csv"),
                        None => format!("{path}_aggregated.csv"),
                    };
                    std::fs::write(&agg_path, result.to_csv_aggregated())
                        .map_err(|e| format!("cannot write {agg_path}: {e}"))?;
                    eprintln!("wrote {agg_path}");
                }
                None => {
                    println!("{}", result.to_csv());
                    println!("\n# aggregated over repeated seeds");
                    println!("{}", result.to_csv_aggregated());
                }
            }
        }
        Format::Json => {
            let json = serde_json::to_string_pretty(&result.with_aggregates()).map_err(|e| {
                CliError::runtime(format!(
                    "cannot serialise the finished sweep results as JSON: {e}"
                ))
            })?;
            emit(flags, &json)?;
        }
    }
    Ok(())
}

/// `checkpoint dump FILE`: print a snapshot as JSON. Read-only, no flags.
fn cmd_checkpoint(args: &[String]) -> Result<(), String> {
    if let Some(flag) = args.iter().find(|a| a.starts_with("--")) {
        return Err(format!(
            "unknown flag `{flag}` (`checkpoint dump` takes none)"
        ));
    }
    match args {
        [action, file] if action == "dump" => {
            let ck =
                dragonfly_sim::checkpoint::RunCheckpoint::load(file).map_err(|e| e.to_string())?;
            println!("{}", ck.to_json());
            Ok(())
        }
        _ => Err(format!(
            "`checkpoint` takes exactly `dump <FILE>`\n\n{}",
            usage()
        )),
    }
}

fn cmd_figure(flags: &CommonFlags) -> Result<(), String> {
    reject_checkpoint_flags(flags, "figure")?;
    let id = flags
        .positional
        .first()
        .ok_or_else(|| format!("`figure` needs an id\n\n{}", usage()))?;
    let defaults = BenchArgs::default();
    let bench_args = BenchArgs {
        mode: match flags.quick_full {
            Some(true) => dragonfly_bench::RunMode::Full,
            Some(false) => dragonfly_bench::RunMode::Quick,
            None => defaults.mode,
        },
        threads: flags.threads,
        seed: flags.seed.unwrap_or(defaults.seed),
        shards: flags.shards,
        pipeline: flags.pipeline,
        cache_dir: flags.cache_dir.as_ref().map(std::path::PathBuf::from),
        no_cache: flags.no_cache,
    };
    if flags.format == Format::Text && flags.out.is_some() {
        // Text output streams to stdout as the figure runs; silently
        // producing no file would look like success.
        return Err(
            "`figure --out` needs `--format csv` or `--format json` (text streams to stdout)"
                .to_string(),
        );
    }
    let result = figures::run_figure(id, &bench_args)?;
    match flags.format {
        Format::Text => Ok(()), // already streamed to stdout by run_figure
        Format::Csv => emit(flags, &result.to_csv()),
        Format::Json => emit(flags, &result.to_json()),
    }
}

fn cmd_show(flags: &CommonFlags) -> Result<(), String> {
    reject_cache_flags(flags, "show")?;
    reject_checkpoint_flags(flags, "show")?;
    if flags.shards.is_some() || flags.pipeline.is_some() {
        return Err(
            "--shards/--pipeline apply to commands that run simulations, not `show`".to_string(),
        );
    }
    let path = flags
        .positional
        .first()
        .ok_or_else(|| format!("`show` needs a scenario file\n\n{}", usage()))?;
    // A scenario file is either a single experiment or a sweep; try both.
    match ExperimentSpec::from_path(path) {
        Ok(spec) => {
            println!("# valid single-experiment spec: {}\n", spec.label());
            println!("# --- TOML ---\n{}", spec.to_toml());
            println!("# --- JSON ---\n{}", spec.to_json());
            Ok(())
        }
        Err(experiment_error) => match SweepSpec::from_path(path) {
            Ok(sweep) => {
                println!("# valid sweep spec ({} points)\n", sweep.len());
                println!("# --- TOML ---\n{}", sweep.to_toml());
                println!("# --- JSON ---\n{}", sweep.to_json());
                Ok(())
            }
            Err(sweep_error) => Err(format!(
                "not a valid spec:\n  as experiment: {experiment_error}\n  as sweep: {sweep_error}"
            )),
        },
    }
}

fn cmd_topologies() -> Result<(), String> {
    let rows: Vec<Vec<String>> = dragonfly_topology::TopologySpec::catalog()
        .iter()
        .map(|info| {
            vec![
                info.name.to_string(),
                info.parameters.to_string(),
                info.constraints.to_string(),
                info.domains.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        markdown_table(
            &["topology", "parameters", "constraints", "sharding domains"],
            &rows
        )
    );
    println!("\nscenario-file forms (the legacy bare [topology] p/a/h table still reads as a dragonfly):\n");
    for info in dragonfly_topology::TopologySpec::catalog() {
        println!("{}\n", info.example);
    }
    Ok(())
}

fn cmd_workloads() -> Result<(), String> {
    let rows: Vec<Vec<String>> = dragonfly_workload::WorkloadSpec::catalog()
        .iter()
        .map(|info| {
            vec![
                info.name.to_string(),
                info.parameters.to_string(),
                info.constraints.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        markdown_table(&["workload", "parameters", "constraints"], &rows)
    );
    println!(
        "\nscenario-file forms (add a [workload] to any run or sweep spec; the spec's\n\
         `load` then acts as a message-count intensity multiplier, default 1.0):\n"
    );
    for info in dragonfly_workload::WorkloadSpec::catalog() {
        println!("{}\n", info.example);
    }
    Ok(())
}

fn cmd_list() -> Result<(), String> {
    let rows: Vec<Vec<String>> = figures::catalog()
        .iter()
        .map(|f| vec![f.id.to_string(), f.title.to_string()])
        .collect();
    println!("{}", markdown_table(&["id", "title"], &rows));
    println!("\nrun one with: qadaptive-cli figure <id> [--quick|--full]");
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprintln!("{}", usage());
        return ExitCode::from(2);
    };
    let outcome: Result<(), CliError> = match (command.as_str(), parse_flags(rest)) {
        // `checkpoint dump` takes no flags, not even the common ones.
        ("checkpoint", _) => cmd_checkpoint(rest).map_err(CliError::from),
        (_, Err(e)) => Err(e.into()),
        (command, Ok(flags)) => match command {
            "run" => cmd_run(&flags),
            "sweep" => cmd_sweep(&flags),
            "figure" => cmd_figure(&flags).map_err(CliError::from),
            "show" => cmd_show(&flags).map_err(CliError::from),
            "list" => cmd_list().map_err(CliError::from),
            "topologies" | "--list-topologies" => cmd_topologies().map_err(CliError::from),
            "workloads" | "--list-workloads" => cmd_workloads().map_err(CliError::from),
            "help" | "--help" | "-h" => {
                println!("{}", usage());
                Ok(())
            }
            other => Err(CliError::from(format!(
                "unknown command `{other}`\n\n{}",
                usage()
            ))),
        },
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {}", e.message);
            ExitCode::from(e.code)
        }
    }
}
