//! `aa`: the benchmark against itself. `bench` is run `sets x runs` times
//! on the same code, the sets taking turns, and every workload x end-to-end
//! metric is compared between the sets the way a change would be compared
//! with its parent: medians, quartiles, their distance and the bound.

use crate::metrics::{
    as_f64, contract, int, lookup, median, min_max, num, obj, quartiles, text, END_TO_END,
};
use crate::workloads::Workload;
use crate::{bench_once, host};
use serde::Value;

/// The bound of every end-to-end metric, from `BENCHMARK.json`, in the order
/// of [`END_TO_END`].
fn bounds() -> Result<Vec<f64>, String> {
    let contract = contract()?;
    let Some(Value::Seq(listed)) = contract.get("end_to_end") else {
        return Err("BENCHMARK.json has no `end_to_end` list".to_string());
    };
    END_TO_END
        .iter()
        .map(|(name, _)| {
            listed
                .iter()
                .find(|m| m.get("name") == Some(&Value::Str(name.to_string())))
                .and_then(|m| m.get("bound"))
                .and_then(as_f64)
                .ok_or_else(|| format!("BENCHMARK.json gives no bound for {name}"))
        })
        .collect()
}

pub fn run(
    workloads: &[&'static Workload],
    seed: u64,
    sets: usize,
    runs: usize,
) -> Result<bool, String> {
    if sets < 2 || runs < 2 {
        return Err("aa needs --sets 2 (or more) and --runs 2 (or more)".to_string());
    }
    let bounds = bounds()?;
    // samples[set][workload][metric] and every calibration time seen.
    let mut samples = vec![vec![vec![Vec::new(); END_TO_END.len()]; workloads.len()]; sets];
    let mut calib = Vec::new();
    let mut ok = true;
    for run in 0..runs {
        // The sets take turns at going first.
        let mut order: Vec<usize> = (0..sets).collect();
        order.rotate_left(run % sets);
        for set in order {
            eprintln!("aa: run {} of {runs}, set {set}", run + 1);
            let (report, passed) = bench_once(workloads, seed, false, false, None)?;
            ok &= passed;
            for (w, workload) in workloads.iter().enumerate() {
                let detail = lookup(&report, &["workloads", workload.name, "detail"])
                    .ok_or("a bench report without its workload")?;
                for (m, (metric, _)) in END_TO_END.iter().enumerate() {
                    let value = lookup(detail, &["metrics", metric, "median"])
                        .and_then(as_f64)
                        .ok_or_else(|| format!("{}: no {metric}", workload.name))?;
                    samples[set][w][m].push(value);
                }
                if let Some(Value::Seq(times)) = detail.get("calib_s") {
                    calib.extend(times.iter().filter_map(as_f64));
                }
            }
        }
    }

    let mut rows = Vec::new();
    for (w, workload) in workloads.iter().enumerate() {
        for (m, (metric, unit)) in END_TO_END.iter().enumerate() {
            let bound = bounds[m];
            let mut medians = Vec::new();
            let mut resolved = true;
            let mut per_set = Vec::new();
            for set in samples.iter() {
                let values = &set[w][m];
                let (q1, q3) = quartiles(values);
                let mid = median(values);
                let spread = (q3 - q1) / mid;
                resolved &= spread <= bound;
                medians.push(mid);
                per_set.push(obj([
                    ("median", num(mid)),
                    ("q1", num(q1)),
                    ("q3", num(q3)),
                    ("spread", num(spread)),
                    (
                        "values",
                        Value::Seq(values.iter().copied().map(num).collect()),
                    ),
                ]));
            }
            let (low, high) = min_max(&medians);
            let difference = (high - low) / low;
            let within = difference <= bound;
            ok &= within;
            rows.push(obj([
                ("workload", text(workload.name)),
                ("metric", text(metric)),
                ("unit", text(unit)),
                ("bound", num(bound)),
                ("sets", Value::Seq(per_set)),
                ("difference", num(difference)),
                ("within_bound", Value::Bool(within)),
                // Spread wider than the bound: a change of the bound's size
                // could not be told from noise.
                (
                    "verdict",
                    text(if resolved { "resolved" } else { "unresolved" }),
                ),
            ]));
        }
    }
    let report = obj([
        ("command", text("aa")),
        ("sets", int(sets as u64)),
        ("runs", int(runs as u64)),
        ("seed", int(seed)),
        ("host", host::describe()),
        (
            "host.calib_s",
            num(if calib.is_empty() {
                0.0
            } else {
                median(&calib)
            }),
        ),
        ("all_within_bounds", Value::Bool(ok)),
        ("rows", Value::Seq(rows)),
    ]);
    println!(
        "{}",
        serde_json::to_string_pretty(&report).expect("results always serialise")
    );
    Ok(ok)
}
