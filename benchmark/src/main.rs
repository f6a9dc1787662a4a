//! The repository's benchmark.
//!
//! ```text
//! qadaptive-benchmark --workload NAME --seed N --seconds S --trace 0|1 [--quick] [--trace-out DIR]
//!     one workload in this process; the last line of output is the result
//!     (`--trace 0`: end-to-end metrics, `--trace 1`: per-layer metrics)
//! qadaptive-benchmark bench [--seed N] [--workload NAME] [--quick]
//!     the form above with `--trace 0` once per workload, a child process
//!     each, `--seconds` from `BENCHMARK.json`
//! qadaptive-benchmark trace [--seed N] [--workload NAME] [--quick] [--trace-out DIR]
//!     the same with `--trace 1`
//! qadaptive-benchmark aa --sets 2 --runs N [--seed N] [--workload NAME]
//!     `bench` over and over in alternating sets: does the benchmark agree
//!     with itself within its own bounds?
//! ```
//!
//! See `README.md` beside this crate for every metric and workload.

mod aa;
mod alloc;
mod harness;
mod host;
mod kernels;
mod metrics;
mod run;
mod trace;
mod workloads;

use metrics::{int, obj, text};
use serde::Value;
use std::path::PathBuf;
use std::process::{Command, ExitCode};

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

#[derive(Debug, Default)]
struct Args {
    command: Option<String>,
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    trace_out: Option<PathBuf>,
    sets: usize,
    runs: usize,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        sets: 2,
        runs: 5,
        ..Args::default()
    };
    let mut it = argv.iter().peekable();
    if it.peek().is_some_and(|a| !a.starts_with("--")) {
        args.command = it.next().cloned();
    }
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        fn number<T: std::str::FromStr>(flag: &str, v: String) -> Result<T, String> {
            v.parse()
                .map_err(|_| format!("{flag}: `{v}` is not a number"))
        }
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => args.seed = number(flag, value("a number")?)?,
            "--seconds" => args.seconds = Some(number(flag, value("a number")?)?),
            "--trace" => args.trace = number::<u8>(flag, value("0 or 1")?)? != 0,
            "--trace-out" => args.trace_out = Some(PathBuf::from(value("a path")?)),
            "--sets" => args.sets = number(flag, value("a number")?)?,
            "--runs" => args.runs = number(flag, value("a number")?)?,
            "--quick" => args.quick = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

fn find_workload(name: &str) -> Result<&'static workloads::Workload, String> {
    workloads::find(name).ok_or_else(|| {
        let names: Vec<&str> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
        format!(
            "unknown workload `{name}` (expected one of {})",
            names.join(", ")
        )
    })
}

fn print(value: &Value) {
    println!(
        "{}",
        serde_json::to_string(value).expect("results always serialise")
    );
}

/// One workload in this process.
fn single(args: &Args) -> Result<bool, String> {
    let name = args
        .workload
        .as_deref()
        .ok_or("--workload is required (or use `bench`, `trace` or `aa`)")?;
    let outcome = run::run(&run::Options {
        workload: find_workload(name)?,
        seed: args.seed,
        seconds: match args.seconds {
            Some(seconds) => seconds,
            None => metrics::run_seconds()? as f64,
        },
        trace: args.trace,
        quick: args.quick,
        trace_out: args.trace_out.clone(),
    });
    print(&outcome.detail);
    print(&outcome.result);
    Ok(outcome.correct())
}

/// Run one workload in a child process of its own and read its two lines.
fn child(
    name: &str,
    seed: u64,
    trace: bool,
    quick: bool,
    trace_out: Option<&PathBuf>,
) -> Result<run::Outcome, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this program: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", name, "--seed", &seed.to_string()])
        .args(["--seconds", &metrics::run_seconds()?.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if quick {
        cmd.arg("--quick");
    }
    if let Some(dir) = trace_out {
        cmd.arg("--trace-out").arg(dir);
    }
    // `output` waits for the child to end.
    let out = cmd
        .output()
        .map_err(|e| format!("cannot start the {name} child: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines = stdout.lines().rev();
    let parse = |line: Option<&str>| {
        line.and_then(|l| serde_json::parse_value(l).ok())
            .ok_or_else(|| {
                format!(
                    "the {name} child printed no result ({}): {}",
                    out.status,
                    String::from_utf8_lossy(&out.stderr).trim()
                )
            })
    };
    let result = parse(lines.next())?;
    let detail = parse(lines.next())?;
    Ok(run::Outcome { detail, result })
}

fn selected(args: &Args) -> Result<Vec<&'static workloads::Workload>, String> {
    match &args.workload {
        Some(name) => Ok(vec![find_workload(name)?]),
        None => Ok(workloads::WORKLOADS.iter().collect()),
    }
}

/// Every selected workload, one after another, each in its own child.
/// Returns the combined report and whether every check passed.
pub fn bench_once(
    workloads: &[&'static workloads::Workload],
    seed: u64,
    trace: bool,
    quick: bool,
    trace_out: Option<&PathBuf>,
) -> Result<(Value, bool), String> {
    let mut ok = true;
    let mut entries = Vec::new();
    for w in workloads {
        let c = child(w.name, seed, trace, quick, trace_out)?;
        ok &= c.correct();
        entries.push((
            w.name.to_string(),
            obj([("detail", c.detail), ("result", c.result)]),
        ));
    }
    let report = obj([
        ("command", text(if trace { "trace" } else { "bench" })),
        ("seed", int(seed)),
        ("quick", Value::Bool(quick)),
        ("run_seconds", int(metrics::run_seconds()?)),
        ("host", host::describe()),
        ("workloads", Value::Map(entries)),
    ]);
    Ok((report, ok))
}

fn dispatch(args: &Args) -> Result<bool, String> {
    match args.command.as_deref() {
        None => single(args),
        Some(cmd @ ("bench" | "trace")) => {
            let trace = cmd == "trace";
            let (report, ok) = bench_once(
                &selected(args)?,
                args.seed,
                trace,
                args.quick,
                args.trace_out.as_ref(),
            )?;
            println!(
                "{}",
                serde_json::to_string_pretty(&report).expect("results always serialise")
            );
            Ok(ok)
        }
        Some("aa") => aa::run(&selected(args)?, args.seed, args.sets, args.runs),
        Some(other) => Err(format!(
            "unknown command `{other}` (expected bench, trace or aa)"
        )),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match parse(&argv).and_then(|args| dispatch(&args)) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("qadaptive-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
