//! The metric tables (`BENCHMARK.json` lists the same names and units; a
//! test keeps the two in step) and the small statistics both commands use.

use serde::Value;

/// End-to-end metrics, name and unit: what a user of the simulator waits for
/// (host time), pays (host memory, snapshot bytes) or reads (simulated
/// latency; `sim_*` is simulated time and never mixed with host time). Lower
/// is better for every one. Their bounds live in `BENCHMARK.json` alone.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("ckpt_cycle_s", "s"),
    ("ckpt_bytes", "B"),
    ("heap_peak_bytes", "B"),
    ("ckpt_heap_peak_bytes", "B"),
    ("sim_mean_latency_us", "us"),
    ("sim_p99_latency_us", "us"),
];

/// Per-layer metrics of the traced run, `layer.metric` with the crate as
/// the layer (`host`: what belongs to no crate; `bench`: the harness).
pub const PER_LAYER: [(&str, &str); 84] = [
    // Self time of the spans around each public call.
    ("sim.spec_parse_s", "s"),
    ("topology.build_s", "s"),
    ("routing.build_s", "s"),
    ("traffic.build_s", "s"),
    ("workload.compile_s", "s"),
    ("sim.injector_new_s", "s"),
    ("engine.new_s", "s"),
    ("engine.install_workload_s", "s"),
    ("engine.warmup_run_s", "s"),
    ("engine.checkpoint_s", "s"),
    ("engine.merged_observer_s", "s"),
    ("sim.ckpt_encode_s", "s"),
    ("sim.ckpt_decode_s", "s"),
    ("sim.ckpt_rebuild_s", "s"),
    ("engine.restore_s", "s"),
    ("engine.run_window_s", "s"),
    ("metrics.report_s", "s"),
    ("bench.setup_untraced_share", "1"),
    ("bench.ckpt_untraced_share", "1"),
    ("bench.run_untraced_share", "1"),
    ("bench.trace_overhead", "1"),
    // Counts and ratios from the engine; they repeat exactly.
    ("engine.outstanding_at_ckpt", "count"),
    ("sim.ckpt_bytes_per_outstanding", "B"),
    ("sim.ckpt_heap_blowup", "1"),
    ("engine.warmup_events", "count"),
    ("engine.run_events", "count"),
    ("engine.generated", "count"),
    ("engine.delivered", "count"),
    ("engine.dropped", "count"),
    ("engine.warmup_ns_per_event", "ns"),
    ("engine.run_ns_per_event", "ns"),
    ("engine.slice_ns_per_event_min", "ns"),
    ("engine.slice_ns_per_event_max", "ns"),
    ("engine.events_per_delivered", "1"),
    ("engine.scale_gap_ratio", "1"),
    ("core.memory_bytes_end", "B"),
    ("core.heap_bytes_per_event", "B"),
    ("sim.throughput", "1"),
    ("sim.mean_hops", "1"),
    ("sim.jct_us", "us"),
    // Replay kernels: ns per call, then the estimated share of `run_s`.
    ("engine.queue_push_pop_ns", "ns"),
    ("engine.event_key_ns", "ns"),
    ("core.dense_decide_ns", "ns"),
    ("core.dense_update_ns", "ns"),
    ("core.agent_feedback_dense_ns", "ns"),
    ("core.agent_feedback_paged_ns", "ns"),
    ("core.paged_read_untouched_ns", "ns"),
    ("core.paged_first_write_ns", "ns"),
    ("core.paged_first_write_bytes", "B"),
    ("core.paged_warm_update_ns", "ns"),
    ("topology.minimal_port_1056_ns", "ns"),
    ("topology.minimal_port_110k_ns", "ns"),
    ("traffic.next_dest_ur_ns", "ns"),
    ("traffic.next_dest_adv_ns", "ns"),
    ("sim.injector_next_ns", "ns"),
    ("metrics.record_exact_ns", "ns"),
    ("metrics.record_streaming_ns", "ns"),
    ("routing.ugal_over_min_ns_per_event", "ns"),
    ("engine.queue_push_pop_share", "1"),
    ("engine.event_key_share", "1"),
    ("core.decide_share", "1"),
    ("core.update_share", "1"),
    ("core.agent_feedback_share", "1"),
    ("core.paged_first_write_share", "1"),
    ("topology.minimal_port_share", "1"),
    ("traffic.next_dest_share", "1"),
    ("sim.injector_next_share", "1"),
    ("metrics.record_share", "1"),
    ("routing.ugal_over_min_share", "1"),
    ("engine.unattributed_share", "1"),
    ("engine.hops", "count"),
    ("core.pages_materialised", "count"),
    // Sharded execution of the same window (overhead only when nproc <= 2).
    ("engine.shards2_barrier_run_s", "s"),
    ("engine.shards2_pipeline_run_s", "s"),
    // One uninterrupted run through `ExperimentSpec::run()`, heap not
    // pre-faulted.
    ("host.peak_rss_bytes", "B"),
    ("host.minor_faults", "count"),
    ("host.run_user_s", "s"),
    ("host.run_sys_s", "s"),
    ("host.run_cold_wall_s", "s"),
    ("host.rss_bytes_per_event", "B"),
    ("host.calib_s", "s"),
    ("host.nproc", "count"),
    ("host.max_region_faults", "count"),
    ("host.prefault_s", "s"),
];

/// `BENCHMARK.json`, which alone holds the bounds and `run_seconds`.
pub fn contract() -> Result<Value, String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {path}: {e}"))
        .and_then(|t| serde_json::parse_value(&t).map_err(|e| format!("{path}: {e}")))
}

/// `run_seconds` of `BENCHMARK.json`: the `--seconds` the parent commands
/// pass to every child.
pub fn run_seconds() -> Result<u64, String> {
    match contract()?.get("run_seconds") {
        Some(Value::Int(s)) if *s > 0 => Ok(*s as u64),
        _ => Err("BENCHMARK.json has no `run_seconds`".to_string()),
    }
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of nothing");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the exclusive method), which is what the driver uses.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n >= 2, "quartiles need two values");
    let cut = |i: usize| {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Smallest and largest of `values`.
pub fn min_max(values: &[f64]) -> (f64, f64) {
    values
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
            (lo.min(v), hi.max(v))
        })
}

/// Follow `path` through nested JSON objects.
pub fn lookup<'a>(v: &'a Value, path: &[&str]) -> Option<&'a Value> {
    path.iter().try_fold(v, |v, key| v.get(key))
}

pub fn as_f64(v: &Value) -> Option<f64> {
    match v {
        Value::Float(f) => Some(*f),
        Value::Int(i) => Some(*i as f64),
        _ => None,
    }
}

pub fn obj<const N: usize>(entries: [(&str, Value); N]) -> Value {
    Value::Map(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

pub fn num(x: f64) -> Value {
    Value::Float(x)
}

pub fn int(x: u64) -> Value {
    Value::Int(x as i128)
}

pub fn text(s: &str) -> Value {
    Value::Str(s.to_string())
}

/// `{"value": x, "unit": u}`, the form the driver reads.
pub fn measured(value: f64, unit: &str) -> Value {
    obj([("value", num(value)), ("unit", text(unit))])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        // -> [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) -> [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
