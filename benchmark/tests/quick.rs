//! `bench --quick` end to end, and the names it prints against the lists in
//! `BENCHMARK.json`: the two must agree one to one, in order.

use serde_json::Value;
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_qadaptive-benchmark");

fn contract() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is at the repository root");
    serde_json::parse_value(&text).expect("BENCHMARK.json is JSON")
}

fn run(args: &[&str]) -> String {
    let out = Command::new(BIN)
        .args(args)
        .output()
        .expect("the benchmark starts");
    assert!(
        out.status.success(),
        "{args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("the benchmark prints UTF-8")
}

fn text<'a>(v: &'a Value, key: &str) -> &'a str {
    match v.get(key) {
        Some(Value::Str(s)) => s,
        other => panic!("`{key}` should be a string, found {other:?}"),
    }
}

/// `(name, unit)` of every entry of a list in `BENCHMARK.json`.
fn listed(contract: &Value, list: &str) -> Vec<(String, String)> {
    let Some(Value::Seq(items)) = contract.get(list) else {
        panic!("BENCHMARK.json has no `{list}` list");
    };
    items
        .iter()
        .map(|m| (text(m, "name").to_string(), text(m, "unit").to_string()))
        .collect()
}

/// `(name, unit)` of every metric of a result line, in printed order.
fn printed(result: &Value) -> Vec<(String, String)> {
    let Some(Value::Map(metrics)) = result.get("metrics") else {
        panic!("a result without `metrics`: {result:?}");
    };
    metrics
        .iter()
        .map(|(name, m)| (name.clone(), text(m, "unit").to_string()))
        .collect()
}

#[test]
fn quick_bench_prints_the_contract_names() {
    let contract = contract();
    let report = serde_json::parse_value(&run(&["bench", "--quick"])).expect("bench prints JSON");
    let Some(Value::Map(workloads)) = report.get("workloads") else {
        panic!("bench prints its workloads");
    };

    let Some(Value::Seq(listed_workloads)) = contract.get("workloads") else {
        panic!("BENCHMARK.json lists workloads");
    };
    let listed_names: Vec<&str> = listed_workloads.iter().map(|w| text(w, "name")).collect();
    let printed_names: Vec<&str> = workloads.iter().map(|(name, _)| name.as_str()).collect();
    assert_eq!(printed_names, listed_names);

    let end_to_end = listed(&contract, "end_to_end");
    for (name, entry) in workloads {
        let result = entry
            .get("result")
            .expect("each workload has a result line");
        assert_eq!(result.get("correct"), Some(&Value::Bool(true)), "{name}");
        assert_eq!(result.get("failed"), Some(&Value::Int(0)), "{name}");
        assert_eq!(printed(result), end_to_end, "{name}");
    }
}

#[test]
fn quick_trace_prints_the_per_layer_names() {
    let contract = contract();
    let out = run(&[
        "--workload",
        "scale_qadp_110k",
        "--seed",
        "3",
        "--seconds",
        "1",
        "--trace",
        "1",
        "--quick",
    ]);
    let last = out.lines().last().expect("a result line");
    let result = serde_json::parse_value(last).expect("the last line is JSON");
    assert_eq!(result.get("correct"), Some(&Value::Bool(true)));
    assert_eq!(printed(&result), listed(&contract, "per_layer"));
}
