//! One rep of one workload: set-up, the checkpoint cycle, the measured run
//! and the correctness checks, every layer reached through its public items.

use crate::alloc;
use crate::host::{self, Calibration};
use crate::trace::Tracer;
use crate::workloads::Sizing;
use dragonfly_engine::injector::{EmptyInjector, TrafficInjector};
use dragonfly_engine::time::SimTime;
use dragonfly_engine::{Engine, EngineStats};
use dragonfly_metrics::latency::{bucket_width_ns, LatencyStats};
use dragonfly_metrics::report::SimulationReport;
use dragonfly_sim::checkpoint::RunCheckpoint;
use dragonfly_sim::collector::MetricsCollector;
use dragonfly_sim::injector::PatternInjector;
use dragonfly_sim::spec::{ExperimentSpec, MetricsMode};
use dragonfly_topology::Topology;
use std::time::Instant;

/// A timed region with more minor page faults than this (16 MiB of fresh
/// pages) makes its rep invalid: raise the workload's `prefault_bytes`.
pub const MAX_REGION_FAULTS: u64 = 4096;

/// Slices the traced run cuts the measurement window into.
pub const SLICES: usize = 10;

/// Wall time and minor faults of a region whose clock can be paused.
#[derive(Debug, Clone, Copy, Default)]
pub struct Region {
    pub seconds: f64,
    pub faults: u64,
}

impl Region {
    fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let faults = host::proc_stat().minor_faults;
        let started = Instant::now();
        let out = f();
        self.seconds += started.elapsed().as_secs_f64();
        self.faults += host::proc_stat().minor_faults - faults;
        out
    }
}

/// `SimulationBuilder::build_engine` is private, so this is that function
/// again from public constructors, the `seed ^ 0xA5A5_5A5A` traffic seed
/// included. `trace` compares a report made this way with one from
/// `ExperimentSpec::run()` and fails when they differ.
pub fn build_engine(spec: &ExperimentSpec, tr: &mut Tracer) -> Engine<MetricsCollector> {
    assert!(
        spec.faults.is_empty() && spec.series_bin_ns.is_none(),
        "benchmark scenarios use neither faults nor a time series"
    );
    let seed = spec.effective_seed();
    let topo = tr.span("topology.build_s", |_| spec.topology.build());
    let algorithm = tr.span("routing.build_s", |_| spec.routing.build());
    let mut cfg = spec.engine.unwrap_or_default();
    cfg.num_vcs = algorithm.num_vcs();
    let mut programs = None;
    let injector: Box<dyn TrafficInjector> = match &spec.workload {
        Some(workload) => {
            programs = Some(tr.span("workload.compile_s", |_| {
                workload
                    .compile(&topo, spec.effective_intensity())
                    .expect("the scenario was validated")
            }));
            Box::new(EmptyInjector)
        }
        None => {
            let pattern = tr.span("traffic.build_s", |_| {
                spec.traffic.build(&topo, seed ^ 0xA5A5_5A5A)
            });
            Box::new(tr.span("sim.injector_new_s", |_| {
                PatternInjector::new(
                    &topo,
                    &cfg,
                    pattern,
                    spec.effective_schedule(),
                    spec.total_ns(),
                    seed,
                )
            }))
        }
    };
    let window_end = spec.warmup_ns + spec.measure_ns;
    let streaming = spec
        .metrics
        .is_some_and(|m| m.mode == MetricsMode::Streaming);
    let collector = if streaming {
        MetricsCollector::streaming(spec.warmup_ns, window_end)
    } else {
        MetricsCollector::new(spec.warmup_ns, window_end)
    };
    let mut engine = tr.span("engine.new_s", |_| {
        Engine::new(topo, cfg, algorithm.as_ref(), injector, collector, seed)
    });
    if let Some(programs) = programs {
        tr.span("engine.install_workload_s", |_| {
            engine.install_workload(programs)
        });
    }
    engine
}

/// The 99th percentile of `latency` in microseconds. Exact samples give it
/// to the nanosecond. The streaming sketch answers with the lower edge of the
/// bucket that holds it, which on an unloaded fabric is the same number at
/// every seed; the counts below the bucket's two edges are exact, so the
/// percentile is placed between the edges in proportion to them.
fn p99_us(latency: &mut LatencyStats) -> f64 {
    let p99 = latency.p99_ns();
    if !latency.is_streaming() {
        return p99 as f64 / 1_000.0;
    }
    let width = bucket_width_ns(p99);
    // Buckets are aligned to their width; `p99` itself may have been clamped
    // to the smallest sample.
    let lower = p99 - p99 % width;
    let below = latency.fraction_below(lower);
    let inside = latency.fraction_below(lower + width) - below;
    let part = if inside > 0.0 {
        ((0.99 - below) / inside).clamp(0.0, 1.0)
    } else {
        0.0
    };
    (lower as f64 + width as f64 * part) / 1_000.0
}

/// `SimulationBuilder::report_from` again (also private), for scenarios
/// without faults or a time series, and beside it [`p99_us`] of the same
/// collector. Wall time and memory are left at zero: they are the two fields
/// the digest leaves out.
pub fn report_of(
    spec: &ExperimentSpec,
    engine: &Engine<MetricsCollector>,
) -> (SimulationReport, f64) {
    let stats = engine.stats();
    let cfg = *engine.config();
    let nodes = engine.topology().num_nodes();
    let mut collector = engine.merged_observer();
    let window_ns = collector.window_ns();
    let throughput =
        collector
            .throughput
            .normalized(window_ns, nodes, cfg.injection_bytes_per_ns());
    let ranks_finished = collector.ranks_finished;
    let (job_completion_us, collective_skew_us) = if ranks_finished > 0 {
        (
            collector.job_end_max_ns as f64 / 1_000.0,
            collector
                .job_end_max_ns
                .saturating_sub(collector.job_end_min_ns) as f64
                / 1_000.0,
        )
    } else {
        (0.0, 0.0)
    };
    let report = SimulationReport {
        routing: spec.routing.label(),
        traffic: match &spec.workload {
            Some(workload) => workload.label(),
            None => spec.traffic.label(),
        },
        offered_load: match &spec.workload {
            Some(_) => spec.effective_intensity(),
            None => spec.effective_schedule().peak_load(),
        },
        window_ns,
        packets_generated: collector.generated_in_window,
        packets_delivered: collector.latency.count() as u64,
        throughput,
        mean_latency_us: collector.latency.mean_us(),
        median_latency_us: collector.latency.median_ns() as f64 / 1_000.0,
        q1_latency_us: collector.latency.q1_ns() as f64 / 1_000.0,
        q3_latency_us: collector.latency.q3_ns() as f64 / 1_000.0,
        p95_latency_us: collector.latency.p95_ns() as f64 / 1_000.0,
        p99_latency_us: collector.latency.p99_ns() as f64 / 1_000.0,
        max_latency_us: collector.latency.max_ns() as f64 / 1_000.0,
        mean_hops: collector.hops.mean(),
        fraction_below_2us: collector.latency.fraction_below(2_000),
        wall_seconds: 0.0,
        events_processed: stats.events,
        job_completion_us,
        ranks_finished,
        phase_completion_us: collector
            .phase_end_ns
            .iter()
            .map(|&ns| ns as f64 / 1_000.0)
            .collect(),
        barrier_wait_us: collector.barrier_wait_ns as f64 / 1_000.0,
        collective_skew_us,
        dropped_packets: collector.dropped_total,
        retransmits: collector.retransmits_total,
        unreachable_pairs: collector.gave_up_pairs.len() as u64,
        recovery_time_us: 0.0,
        memory_bytes: 0,
    };
    (report, p99_us(&mut collector.latency))
}

/// FNV-1a over the report's JSON with wall time and memory zeroed: equal
/// digests mean every simulated statistic is identical.
pub fn digest(report: &SimulationReport) -> u64 {
    let mut report = report.clone();
    report.wall_seconds = 0.0;
    report.memory_bytes = 0;
    let json = serde_json::to_string(&report).expect("reports always serialise");
    json.bytes().fold(0xCBF2_9CE4_8422_2325u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// Advance to `t`: closed-loop runs drain, open-loop runs stop at the clock.
pub fn advance(engine: &mut Engine<MetricsCollector>, closed_loop: bool, t: SimTime) -> u64 {
    if closed_loop {
        engine.run_to_drain(t).1
    } else {
        engine.run_until(t)
    }
}

/// The fields of [`EngineStats`] a resumed run must reproduce.
fn progress(s: &EngineStats) -> [u64; 5] {
    [s.generated, s.injected, s.delivered, s.dropped, s.events]
}

/// Every outstanding packet is in an arena or a mailbox: an independent
/// count of `generated - delivered - dropped`.
fn conserved(s: &EngineStats) -> bool {
    let held: u64 = s.shards.iter().map(|d| d.resident + d.inbound_mail).sum();
    s.generated == s.delivered + s.dropped + held
}

/// The outcome of the correctness checks of one rep.
#[derive(Debug, Default)]
pub struct Checks {
    pub total: u32,
    pub failures: Vec<String>,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.total += 1;
        if !ok {
            self.failures.push(what());
        }
    }
}

/// What one checkpoint round trip leaves behind.
struct Cycle {
    bytes: Vec<u8>,
    decoded: RunCheckpoint,
    restored: Engine<MetricsCollector>,
    outstanding: u64,
    pending_events: usize,
}

/// `Engine::checkpoint` to `Engine::restore`, in memory: what
/// `ExperimentSpec::run_checkpointed` and `--resume-from` do between them,
/// without the file system (whose timings drift).
fn ckpt_cycle(
    spec: &ExperimentSpec,
    engine: &mut Engine<MetricsCollector>,
    tr: &mut Tracer,
) -> Cycle {
    let snapshot = tr.span("engine.checkpoint_s", |_| engine.checkpoint());
    let observer = tr.span("engine.merged_observer_s", |_| engine.merged_observer());
    let outstanding =
        (snapshot.shard.generated - snapshot.shard.delivered) - snapshot.shard.dropped;
    let pending_events = snapshot.shard.queue.events.len();
    let bytes = tr.span("sim.ckpt_encode_s", |_| {
        RunCheckpoint::new(spec.clone(), snapshot, observer).to_binary()
    });
    let decoded = tr.span("sim.ckpt_decode_s", |_| {
        RunCheckpoint::from_binary(&bytes).expect("a snapshot just written decodes")
    });
    let mut restored = tr.span("sim.ckpt_rebuild_s", |tr| build_engine(&decoded.spec, tr));
    tr.span("engine.restore_s", |_| {
        restored.restore(&decoded.engine);
        restored.seed_observer(decoded.collector.clone());
    });
    Cycle {
        bytes,
        decoded,
        restored,
        outstanding,
        pending_events,
    }
}

/// Everything one rep measured.
#[derive(Debug)]
pub struct Rep {
    pub calib_s: f64,
    pub setup: Region,
    pub cycle: Region,
    pub run: Region,
    pub ckpt_bytes: u64,
    pub heap_peak_bytes: u64,
    pub ckpt_heap_peak_bytes: u64,
    pub report: SimulationReport,
    /// `sim_p99_latency_us`: [`p99_us`] of the window's latencies.
    pub p99_latency_us: f64,
    pub digest: u64,
    pub checks: Checks,
    /// Engine counters at the start of the window.
    pub warmup_stats: EngineStats,
    pub end_stats: EngineStats,
    pub outstanding_at_ckpt: u64,
    pub pending_events_at_ckpt: usize,
    /// `Engine::memory_bytes()` at the start of the window and at the end.
    pub memory_bytes_warmup: u64,
    pub memory_bytes_end: u64,
    /// Live heap growth over the measurement window.
    pub window_heap_growth: i64,
    /// Events and seconds of each traced slice of the window.
    pub slices: Vec<(u64, f64)>,
}

impl Rep {
    /// No timed region met more fresh pages than [`MAX_REGION_FAULTS`].
    pub fn valid(&self) -> bool {
        [self.setup, self.cycle, self.run]
            .iter()
            .all(|r| r.faults <= MAX_REGION_FAULTS)
    }

    pub fn run_events(&self) -> u64 {
        self.end_stats.events - self.warmup_stats.events
    }

    pub fn ckpt_cycle_s(&self, sizing: &Sizing) -> f64 {
        self.cycle.seconds / sizing.cycles as f64
    }
}

/// One rep. `first_digest` is the digest of this invocation's first rep;
/// `window_end_hint` is where the traced run stops slicing a closed-loop
/// window (the job's completion time, known from an earlier rep).
pub fn rep(
    text: &str,
    sizing: &Sizing,
    first_digest: Option<u64>,
    window_end_hint: Option<SimTime>,
    tr: &mut Tracer,
    calibration: &Calibration,
) -> Rep {
    let calib_s = calibration.seconds();
    let mut checks = Checks::default();
    let (mut setup, mut cycle_region, mut run) =
        (Region::default(), Region::default(), Region::default());
    // Peaks are counted from here, so that what the harness itself holds
    // (earlier reps' results) is in neither of them.
    let heap_base = alloc::live();
    alloc::reset_peak();

    // Set-up: from the scenario text to an engine standing at `warmup_ns`.
    let (spec, mut engine) = setup.time(|| {
        tr.span("setup_s", |tr| {
            let spec = tr.span("sim.spec_parse_s", |_| {
                ExperimentSpec::from_toml(text).expect("benchmark scenarios are valid")
            });
            let mut engine = build_engine(&spec, tr);
            let closed = spec.workload.is_some();
            tr.span("engine.warmup_run_s", |_| {
                advance(&mut engine, closed, sizing.ckpt_at_ns)
            });
            (spec, engine)
        })
    });
    let closed = spec.workload.is_some();
    let (warmup_ns, total_ns) = (spec.warmup_ns, spec.total_ns());
    assert!(
        sizing.ckpt_at_ns <= warmup_ns && sizing.check_at_ns > sizing.ckpt_at_ns,
        "the checkpoint lies in set-up and the resume check after it"
    );
    let mut heap_peak = alloc::peak();

    // The checkpoint cycle, with the set-up clock stopped.
    let at_ckpt = engine.stats();
    checks.check(conserved(&at_ckpt), || {
        format!(
            "packets not conserved at {} ns: {at_ckpt:?}",
            sizing.ckpt_at_ns
        )
    });
    alloc::reset_peak();
    let cycle = cycle_region.time(|| {
        tr.span("ckpt_cycle_s", |tr| {
            let mut last = ckpt_cycle(&spec, &mut engine, tr);
            for _ in 1..sizing.cycles {
                last = ckpt_cycle(&spec, &mut engine, tr);
            }
            last
        })
    });
    let ckpt_heap_peak = alloc::peak();
    checks.check(cycle.decoded.to_binary() == cycle.bytes, || {
        "decoding and re-encoding the snapshot changed its bytes".to_string()
    });
    // The restored engine goes ahead to `check_at_ns` and is dropped before
    // the clocks start again, so it is in nobody's heap peak.
    let Cycle {
        bytes,
        decoded,
        mut restored,
        outstanding,
        pending_events,
    } = cycle;
    let ckpt_bytes = bytes.len() as u64;
    drop((bytes, decoded));
    advance(&mut restored, closed, sizing.check_at_ns);
    let resumed = progress(&restored.stats());
    drop(restored);
    let mut uninterrupted = None;
    // The original stops at `check_at_ns` too, inside whichever timed
    // region that instant falls in.
    let mut advance_via_check =
        |engine: &mut Engine<MetricsCollector>, from: SimTime, to: SimTime| -> u64 {
            let mut events = 0;
            if from < sizing.check_at_ns && sizing.check_at_ns <= to {
                events += advance(engine, closed, sizing.check_at_ns);
                uninterrupted = Some(progress(&engine.stats()));
            }
            events + advance(engine, closed, to)
        };

    alloc::reset_peak();
    if sizing.ckpt_at_ns < warmup_ns {
        setup.time(|| {
            tr.span("setup_s", |tr| {
                tr.span("engine.warmup_run_s", |_| {
                    advance_via_check(&mut engine, sizing.ckpt_at_ns, warmup_ns)
                })
            })
        });
    }
    let warmup_stats = engine.stats();
    let memory_bytes_warmup = engine.memory_bytes() as u64;
    let heap_at_window_start = alloc::live();

    // The measured run: the window (or the drain), then the report.
    let window_end = window_end_hint
        .unwrap_or(total_ns)
        .clamp(warmup_ns + 1, total_ns);
    let mut marks: Vec<SimTime> = if tr.enabled() {
        (1..=SLICES as u64)
            .map(|i| warmup_ns + (window_end - warmup_ns) * i / SLICES as u64)
            .collect()
    } else {
        Vec::new()
    };
    marks.push(total_ns);
    let mut slices = Vec::new();
    let mut window_heap_growth = 0;
    let (report, p99_latency_us) = run.time(|| {
        tr.span("run_s", |tr| {
            let mut from = warmup_ns;
            for &to in &marks {
                let started = Instant::now();
                let events = tr.span("engine.run_window_s", |_| {
                    advance_via_check(&mut engine, from, to)
                });
                slices.push((events, started.elapsed().as_secs_f64()));
                from = to;
            }
            window_heap_growth = alloc::live() as i64 - heap_at_window_start as i64;
            tr.span("metrics.report_s", |_| report_of(&spec, &engine))
        })
    });
    heap_peak = heap_peak.max(alloc::peak());

    let end_stats = engine.stats();
    checks.check(conserved(&end_stats), || {
        format!("packets not conserved at the end: {end_stats:?}")
    });
    checks.check(report.packets_delivered > 0, || {
        "no packet was delivered in the window".to_string()
    });
    if closed {
        let ranks = engine.topology().num_nodes() as u64;
        checks.check(report.ranks_finished == ranks, || {
            format!("{} of {ranks} ranks finished", report.ranks_finished)
        });
    }
    let digest = digest(&report);
    if let Some(first) = first_digest {
        checks.check(digest == first, || {
            format!("report digest {digest:016x} differs from the first rep's {first:016x}")
        });
    }
    checks.check(uninterrupted == Some(resumed), || {
        format!(
            "at {} ns the resumed engine stood at {resumed:?}, the uninterrupted one at {uninterrupted:?}",
            sizing.check_at_ns
        )
    });
    if let Some(tolerance) = sizing.throughput_tolerance {
        let off = (report.throughput / report.offered_load - 1.0).abs();
        checks.check(off <= tolerance, || {
            format!(
                "throughput {} is {:.1} % off the offered load {}",
                report.throughput,
                off * 100.0,
                report.offered_load
            )
        });
    }

    let rep = Rep {
        calib_s,
        setup,
        cycle: cycle_region,
        run,
        ckpt_bytes,
        heap_peak_bytes: (heap_peak - heap_base) as u64,
        ckpt_heap_peak_bytes: (ckpt_heap_peak - heap_base) as u64,
        report,
        p99_latency_us,
        digest,
        warmup_stats,
        memory_bytes_warmup,
        end_stats,
        outstanding_at_ckpt: outstanding,
        pending_events_at_ckpt: pending_events,
        memory_bytes_end: engine.memory_bytes() as u64,
        window_heap_growth,
        slices,
        checks: Checks::default(),
    };
    // A process that was not pre-faulted (`--quick`) is not held to this.
    checks.check(sizing.prefault_bytes == 0 || rep.valid(), || {
        format!(
            "a timed region met more than {MAX_REGION_FAULTS} minor faults (set-up {}, cycle {}, run {}): raise `prefault_bytes`",
            setup.faults, cycle_region.faults, run.faults
        )
    });
    Rep { checks, ..rep }
}
