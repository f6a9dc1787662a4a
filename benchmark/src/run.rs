//! One workload in one process: the timed reps (`--trace 0`) or the traced
//! run with its replay kernels and extra legs (`--trace 1`).

use crate::alloc;
use crate::harness::{
    self, advance, build_engine, digest, report_of, Checks, Rep, MAX_REGION_FAULTS, SLICES,
};
use crate::host::{self, Calibration};
use crate::kernels::{self, KernelNs};
use crate::metrics::{int, measured, median, min_max, num, obj, text, END_TO_END, PER_LAYER};
use crate::trace::Tracer;
use crate::workloads::{self, Sizing, Workload};
use dragonfly_engine::config::{EngineConfig, ShardKind};
use dragonfly_metrics::report::SimulationReport;
use dragonfly_routing::RoutingSpec;
use dragonfly_sim::spec::{ExperimentSpec, MetricsMode};
use dragonfly_topology::Topology;
use dragonfly_traffic::TrafficSpec;
use serde::Value;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

pub struct Options {
    pub workload: &'static Workload,
    pub seed: u64,
    /// Another rep starts while fewer than this many seconds were measured.
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
    pub trace_out: Option<PathBuf>,
}

/// Reps per invocation: at least [`MIN_REPS`] for a median, at most
/// [`MAX_REPS`] however short they are.
const MIN_REPS: usize = 2;
const MAX_REPS: usize = 64;
/// `--quick` has no timing bounds and runs a fixed number of reps.
const QUICK_REPS: usize = 3;

/// What an invocation prints: a detail line for people and the parent
/// commands, then the line the driver reads.
pub struct Outcome {
    pub detail: Value,
    pub result: Value,
}

impl Outcome {
    /// Every correctness check passed.
    pub fn correct(&self) -> bool {
        self.result.get("correct") == Some(&Value::Bool(true))
    }
}

pub fn run(opts: &Options) -> Outcome {
    if opts.trace {
        traced(opts)
    } else {
        timed(opts)
    }
}

fn rep_samples(rep: &Rep, sizing: &Sizing) -> [f64; 8] {
    [
        rep.setup.seconds,
        rep.run.seconds,
        rep.ckpt_cycle_s(sizing),
        rep.ckpt_bytes as f64,
        rep.heap_peak_bytes as f64,
        rep.ckpt_heap_peak_bytes as f64,
        rep.report.mean_latency_us,
        rep.p99_latency_us,
    ]
}

fn timed(opts: &Options) -> Outcome {
    let sizing = opts.workload.sizing(opts.quick);
    let text_in = opts.workload.scenario_text(opts.quick, opts.seed);
    let calibration = Calibration::new();
    let prefault_started = Instant::now();
    let _pin = alloc::prefault(sizing.prefault_bytes);
    let prefault_s = prefault_started.elapsed().as_secs_f64();

    let mut tracer = Tracer::new(false);
    let mut reps: Vec<Rep> = Vec::new();
    let mut measured_s = 0.0;
    loop {
        let done = reps.len();
        let enough = if opts.quick {
            done >= QUICK_REPS
        } else {
            done >= MAX_REPS || (done >= MIN_REPS && measured_s >= opts.seconds)
        };
        if enough {
            break;
        }
        let first_digest = reps.first().map(|r| r.digest);
        let rep = harness::rep(
            &text_in,
            sizing,
            first_digest,
            None,
            &mut tracer,
            &calibration,
        );
        measured_s += rep.setup.seconds + rep.cycle.seconds + rep.run.seconds;
        reps.push(rep);
    }

    let mut metrics = Vec::new();
    let mut detail_metrics = Vec::new();
    for (i, (name, unit)) in END_TO_END.iter().enumerate() {
        let samples: Vec<f64> = reps.iter().map(|r| rep_samples(r, sizing)[i]).collect();
        let mid = median(&samples);
        let (min, max) = min_max(&samples);
        metrics.push((name.to_string(), measured(mid, unit)));
        detail_metrics.push((
            name.to_string(),
            obj([
                ("median", num(mid)),
                ("min", num(min)),
                ("max", num(max)),
                ("unit", text(unit)),
                (
                    "samples",
                    Value::Seq(samples.into_iter().map(num).collect()),
                ),
            ]),
        ));
    }
    let (total, failures) = tally(reps.iter().map(|r| &r.checks));
    let valid = reps.iter().all(Rep::valid);
    let detail = obj([
        ("workload", text(opts.workload.name)),
        ("seed", int(opts.seed)),
        ("quick", Value::Bool(opts.quick)),
        ("reps", int(reps.len() as u64)),
        ("valid", Value::Bool(valid)),
        ("checks_total", int(total)),
        ("checks_failed", int(failures.len() as u64)),
        (
            "failures",
            Value::Seq(failures.iter().map(|f| text(f)).collect()),
        ),
        ("digest", text(&format!("{:016x}", reps[0].digest))),
        ("prefault_s", num(prefault_s)),
        (
            "calib_s",
            Value::Seq(reps.iter().map(|r| num(r.calib_s)).collect()),
        ),
        (
            "region_faults",
            Value::Seq(
                reps.iter()
                    .map(|r| {
                        Value::Seq(vec![
                            int(r.setup.faults),
                            int(r.cycle.faults),
                            int(r.run.faults),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("metrics", Value::Map(detail_metrics)),
    ]);
    Outcome {
        detail,
        result: result_line(total, failures.len() as u64, Value::Map(metrics)),
    }
}

/// Checks made and the failures among them.
fn tally<'a>(all: impl IntoIterator<Item = &'a Checks>) -> (u64, Vec<String>) {
    let mut total = 0;
    let mut failures = Vec::new();
    for c in all {
        total += c.total as u64;
        failures.extend(c.failures.iter().cloned());
    }
    (total, failures)
}

fn result_line(attempted: u64, failed: u64, metrics: Value) -> Value {
    obj([
        ("correct", Value::Bool(failed == 0)),
        ("attempted", int(attempted)),
        ("failed", int(failed)),
        ("metrics", metrics),
    ])
}

/// Set-up and the window on a plain engine, no checkpoint, no spans: the
/// extra legs of the traced run (two shards, minimal routing).
struct Leg {
    run_s: f64,
    run_events: u64,
    report: SimulationReport,
}

fn leg(spec: &ExperimentSpec) -> Leg {
    let mut off = Tracer::new(false);
    let mut engine = build_engine(spec, &mut off);
    let closed = spec.workload.is_some();
    advance(&mut engine, closed, spec.warmup_ns);
    let started = Instant::now();
    let run_events = advance(&mut engine, closed, spec.total_ns());
    let (report, _) = report_of(spec, &engine);
    Leg {
        run_s: started.elapsed().as_secs_f64(),
        run_events,
        report,
    }
}

/// Per-layer metric values by name; what is never inserted prints as 0.
type Ledger = BTreeMap<&'static str, f64>;

fn traced(opts: &Options) -> Outcome {
    let sizing = opts.workload.sizing(opts.quick);
    let text_in = opts.workload.scenario_text(opts.quick, opts.seed);
    let mut extra = Checks::default();
    let mut out = Ledger::new();

    let (spec, product) = cold_pass(&text_in, &mut out);

    // Pass A: pre-faulted, an untraced rep and a traced one.
    let calibration = Calibration::new();
    let prefault_started = Instant::now();
    let _pin = alloc::prefault(sizing.prefault_bytes);
    out.insert("host.prefault_s", prefault_started.elapsed().as_secs_f64());
    let plain = harness::rep(
        &text_in,
        sizing,
        None,
        None,
        &mut Tracer::new(false),
        &calibration,
    );
    let jct_ns = (plain.report.job_completion_us * 1_000.0) as u64;
    let hint = spec.workload.is_some().then_some(jct_ns);
    let mut tracer = Tracer::new(true);
    tracer.rep = 1;
    let rep = harness::rep(
        &text_in,
        sizing,
        Some(plain.digest),
        hint,
        &mut tracer,
        &calibration,
    );
    extra.check(digest(&product) == plain.digest, || {
        "ExperimentSpec::run() and the harness's engine build give different reports".to_string()
    });

    spans_and_counts(&mut out, &tracer, &plain, &rep);
    let ugal_over_min = extra_legs(&mut out, opts, &spec, &plain, &mut extra);
    kernel_shares(&mut out, &spec, &plain, &rep, ugal_over_min);

    if let Some(dir) = &opts.trace_out {
        let path = dir.join(format!("{}.spans.json", opts.workload.name));
        let spans = serde_json::to_string(&tracer.to_value()).expect("spans serialise");
        if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, spans)) {
            extra.check(false, || format!("cannot write {}: {e}", path.display()));
        }
    }

    let metrics: Vec<(String, Value)> = PER_LAYER
        .iter()
        .map(|(name, unit)| {
            let value = out.get(name).copied().unwrap_or(0.0);
            (name.to_string(), measured(value, unit))
        })
        .collect();
    let (total, failures) = tally([&plain.checks, &rep.checks, &extra]);
    let valid = plain.valid() && rep.valid();
    let detail = obj([
        ("workload", text(opts.workload.name)),
        ("seed", int(opts.seed)),
        ("quick", Value::Bool(opts.quick)),
        ("valid", Value::Bool(valid)),
        ("max_region_faults_allowed", int(MAX_REGION_FAULTS)),
        ("checks_total", int(total)),
        ("checks_failed", int(failures.len() as u64)),
        (
            "failures",
            Value::Seq(failures.iter().map(|f| text(f)).collect()),
        ),
        ("digest", text(&format!("{:016x}", plain.digest))),
        ("spans", int(tracer.spans.len() as u64)),
    ]);
    Outcome {
        detail,
        result: result_line(total, failures.len() as u64, Value::Map(metrics)),
    }
}

/// Pass B, first, while the heap is as the simulator's own users meet it:
/// one uninterrupted run through the product's entry point, for the `host.*`
/// numbers. Its report is also the drift check on the harness's copy of
/// `build_engine`.
fn cold_pass(text_in: &str, out: &mut Ledger) -> (ExperimentSpec, SimulationReport) {
    let rss_before = host::status_bytes("VmRSS");
    let stat_before = host::proc_stat();
    let cold_started = Instant::now();
    let spec = ExperimentSpec::from_toml(text_in).expect("benchmark scenarios are valid");
    let product = spec.run();
    let cold_wall_s = cold_started.elapsed().as_secs_f64();
    let stat_after = host::proc_stat();
    let peak_rss = host::status_bytes("VmHWM");
    out.insert("host.run_cold_wall_s", cold_wall_s);
    out.insert("host.peak_rss_bytes", peak_rss as f64);
    out.insert(
        "host.minor_faults",
        (stat_after.minor_faults - stat_before.minor_faults) as f64,
    );
    out.insert("host.run_user_s", stat_after.user_s - stat_before.user_s);
    out.insert("host.run_sys_s", stat_after.sys_s - stat_before.sys_s);
    out.insert(
        "host.rss_bytes_per_event",
        peak_rss.saturating_sub(rss_before) as f64 / product.events_processed.max(1) as f64,
    );
    out.insert("host.nproc", host::nproc() as f64);
    (spec, product)
}

/// Self time of every span, what each timed region's spans leave over, and
/// the engine's counts and ratios, from the traced rep (`plain` is the
/// untraced rep before it).
fn spans_and_counts(out: &mut Ledger, tracer: &Tracer, plain: &Rep, rep: &Rep) {
    let self_s = tracer.self_seconds();
    let span = |name: &str| self_s.get(name).copied().unwrap_or(0.0);
    for (name, _) in PER_LAYER.iter().filter(|(n, _)| self_s.contains_key(n)) {
        out.insert(name, span(name));
    }
    for (share, region, wall) in [
        ("bench.setup_untraced_share", "setup_s", rep.setup.seconds),
        (
            "bench.ckpt_untraced_share",
            "ckpt_cycle_s",
            rep.cycle.seconds,
        ),
        ("bench.run_untraced_share", "run_s", rep.run.seconds),
    ] {
        out.insert(share, span(region) / wall);
    }
    out.insert("bench.trace_overhead", rep.run.seconds / plain.run.seconds);
    out.insert("host.calib_s", median(&[plain.calib_s, rep.calib_s]));
    let regions = [
        plain.setup,
        plain.cycle,
        plain.run,
        rep.setup,
        rep.cycle,
        rep.run,
    ];
    out.insert(
        "host.max_region_faults",
        regions.iter().map(|r| r.faults).max().unwrap_or(0) as f64,
    );

    let run_events = rep.run_events() as f64;
    let run_delivered = (rep.end_stats.delivered - rep.warmup_stats.delivered) as f64;
    let slice_ns: Vec<f64> = rep
        .slices
        .iter()
        .take(SLICES)
        .filter(|(events, _)| *events > 0)
        .map(|(events, s)| s * 1e9 / *events as f64)
        .collect();
    let (slice_min, slice_max) = min_max(&slice_ns);
    out.insert("engine.outstanding_at_ckpt", rep.outstanding_at_ckpt as f64);
    out.insert(
        "sim.ckpt_bytes_per_outstanding",
        rep.ckpt_bytes as f64 / rep.outstanding_at_ckpt.max(1) as f64,
    );
    out.insert(
        "sim.ckpt_heap_blowup",
        rep.ckpt_heap_peak_bytes as f64 / rep.ckpt_bytes as f64,
    );
    out.insert("engine.warmup_events", rep.warmup_stats.events as f64);
    out.insert("engine.run_events", run_events);
    out.insert("engine.generated", rep.end_stats.generated as f64);
    out.insert("engine.delivered", rep.end_stats.delivered as f64);
    out.insert("engine.dropped", rep.end_stats.dropped as f64);
    out.insert(
        "engine.warmup_ns_per_event",
        span("engine.warmup_run_s") * 1e9 / rep.warmup_stats.events.max(1) as f64,
    );
    out.insert(
        "engine.run_ns_per_event",
        span("engine.run_window_s") * 1e9 / run_events.max(1.0),
    );
    out.insert("engine.slice_ns_per_event_min", slice_min);
    out.insert("engine.slice_ns_per_event_max", slice_max);
    out.insert(
        "engine.events_per_delivered",
        run_events / run_delivered.max(1.0),
    );
    out.insert("engine.hops", run_delivered * rep.report.mean_hops);
    out.insert("core.memory_bytes_end", rep.memory_bytes_end as f64);
    out.insert(
        "core.heap_bytes_per_event",
        rep.window_heap_growth as f64 / run_events.max(1.0),
    );
    out.insert("sim.throughput", rep.report.throughput);
    out.insert("sim.mean_hops", rep.report.mean_hops);
    out.insert("sim.jct_us", rep.report.job_completion_us);
}

/// Windows on plain engines: this workload's on two shards, lockstep and
/// pipelined, and the engine reference workload's, where the sizing asks for
/// them; this workload's under `Minimal` where it is routed by `UgalG`.
/// Returns UGAL's ns per event over minimal's.
fn extra_legs(
    out: &mut Ledger,
    opts: &Options,
    spec: &ExperimentSpec,
    plain: &Rep,
    extra: &mut Checks,
) -> f64 {
    let sizing = opts.workload.sizing(opts.quick);
    if sizing.sharded_legs {
        for (name, pipeline) in [
            ("engine.shards2_barrier_run_s", false),
            ("engine.shards2_pipeline_run_s", true),
        ] {
            let mut two_shards = spec.clone();
            two_shards.engine = Some(EngineConfig {
                shards: ShardKind::Fixed(2),
                pipeline,
                ..spec.engine.unwrap_or_default()
            });
            let sharded = leg(&two_shards);
            extra.check(digest(&sharded.report) == plain.digest, || {
                format!("{name}: the two-shard report differs from the single-shard one")
            });
            out.insert(name, sharded.run_s);
        }
    }
    let ns_per_event = |run_s: f64, events: u64| run_s * 1e9 / events.max(1) as f64;
    if sizing.scale_gap {
        let reference = workloads::find("ur_ugal_1056").expect("the engine reference workload");
        let text_in = reference.scenario_text(opts.quick, opts.seed);
        let small =
            leg(&ExperimentSpec::from_toml(&text_in).expect("benchmark scenarios are valid"));
        out.insert(
            "engine.scale_gap_ratio",
            ns_per_event(plain.run.seconds, plain.run_events())
                / ns_per_event(small.run_s, small.run_events),
        );
    }
    let mut ugal_over_min = 0.0;
    if spec.routing == RoutingSpec::UgalG {
        let mut minimal = spec.clone();
        minimal.routing = RoutingSpec::Minimal;
        let min = leg(&minimal);
        ugal_over_min = ns_per_event(plain.run.seconds, plain.run_events())
            - ns_per_event(min.run_s, min.run_events);
    }
    out.insert("routing.ugal_over_min_ns_per_event", ugal_over_min);
    ugal_over_min
}

/// The replay kernels, and for each the share of the untraced `run_s` that
/// its ns per call times the run's count of such calls comes to.
fn kernel_shares(
    out: &mut Ledger,
    spec: &ExperimentSpec,
    plain: &Rep,
    rep: &Rep,
    ugal_over_min: f64,
) {
    let topo = spec.topology.build();
    let learning = matches!(spec.routing, RoutingSpec::QAdaptive(_));
    let shape = kernels::Shape {
        entities: topo.num_routers() + topo.num_nodes(),
        pending_events: rep.pending_events_at_ckpt,
        learning,
        // The engine's own rule for choosing paged tables.
        paged: learning
            && topo.num_domains() * topo.max_nodes_per_router()
                > spec.engine.unwrap_or_default().qtable_page_rows_threshold,
        large: topo.num_nodes() > 10_000,
        open_loop: spec.workload.is_none(),
        adversarial: matches!(spec.traffic, TrafficSpec::Adversarial { .. }),
        streaming: spec
            .metrics
            .is_some_and(|m| m.mode == MetricsMode::Streaming),
    };
    let k = kernels::run(&shape);
    insert_kernels(out, &k);

    let run_events = rep.run_events() as f64;
    let run_generated = (rep.end_stats.generated - rep.warmup_stats.generated) as f64;
    let hops = out["engine.hops"];
    let pages = if k.paged_first_write_bytes > 0.0 {
        (rep.memory_bytes_end.saturating_sub(rep.memory_bytes_warmup)) as f64
            / k.paged_first_write_bytes
    } else {
        0.0
    };
    out.insert("core.pages_materialised", pages);

    let share = |ns: f64, count: f64| ns * count / (plain.run.seconds * 1e9);
    // Of each pair only the kernel the workload's shape calls for ran; the
    // other is 0.
    let decide = k.paged_read_untouched + k.dense_decide;
    let update = k.paged_warm_update + k.dense_update;
    let feedback = k.agent_feedback_paged + k.agent_feedback_dense;
    let minimal_port = k.minimal_port_110k + k.minimal_port_1056;
    let next_dest = k.next_dest_adv + k.next_dest_ur;
    let record = k.record_streaming + k.record_exact;
    let delivered_in_window = rep.report.packets_delivered as f64;
    // (name, share, whether it overlaps no other share).
    let shares = [
        (
            "engine.queue_push_pop_share",
            share(k.queue_push_pop, run_events),
            true,
        ),
        (
            "engine.event_key_share",
            share(k.event_key, run_events),
            true,
        ),
        ("core.decide_share", share(decide, hops), true),
        // Inside `RouterAgent::feedback`.
        ("core.update_share", share(update, hops), false),
        ("core.agent_feedback_share", share(feedback, hops), true),
        (
            "core.paged_first_write_share",
            share(k.paged_first_write, pages),
            true,
        ),
        (
            "topology.minimal_port_share",
            share(minimal_port, hops),
            true,
        ),
        // Inside `PatternInjector::next_injection`.
        (
            "traffic.next_dest_share",
            share(next_dest, run_generated),
            false,
        ),
        (
            "sim.injector_next_share",
            share(k.injector_next, run_generated),
            true,
        ),
        (
            "metrics.record_share",
            share(record, delivered_in_window),
            true,
        ),
        // The difference of two noisy runs can come out negative; a negative
        // share would pass for attributed time.
        (
            "routing.ugal_over_min_share",
            share(ugal_over_min.max(0.0), run_events),
            true,
        ),
    ];
    let mut attributed = 0.0;
    for (name, value, disjoint) in shares {
        out.insert(name, value);
        if disjoint {
            attributed += value;
        }
    }
    out.insert("engine.unattributed_share", 1.0 - attributed);
}

fn insert_kernels(out: &mut Ledger, k: &KernelNs) {
    for (name, ns) in [
        ("engine.queue_push_pop_ns", k.queue_push_pop),
        ("engine.event_key_ns", k.event_key),
        ("core.dense_decide_ns", k.dense_decide),
        ("core.dense_update_ns", k.dense_update),
        ("core.agent_feedback_dense_ns", k.agent_feedback_dense),
        ("core.agent_feedback_paged_ns", k.agent_feedback_paged),
        ("core.paged_read_untouched_ns", k.paged_read_untouched),
        ("core.paged_first_write_ns", k.paged_first_write),
        ("core.paged_first_write_bytes", k.paged_first_write_bytes),
        ("core.paged_warm_update_ns", k.paged_warm_update),
        ("topology.minimal_port_1056_ns", k.minimal_port_1056),
        ("topology.minimal_port_110k_ns", k.minimal_port_110k),
        ("traffic.next_dest_ur_ns", k.next_dest_ur),
        ("traffic.next_dest_adv_ns", k.next_dest_adv),
        ("sim.injector_next_ns", k.injector_next),
        ("metrics.record_exact_ns", k.record_exact),
        ("metrics.record_streaming_ns", k.record_streaming),
    ] {
        out.insert(name, ns);
    }
}
