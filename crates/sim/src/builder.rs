//! The one staged driver behind every front-end: build the engine from an
//! [`ExperimentSpec`], advance it, snapshot it mid-run, resume it, and
//! assemble the report.
//!
//! [`ExperimentSpec::run`], `run_with_series` and `run_checkpointed`,
//! sweeps, convergence studies, the figure cache and the CLI all reach the
//! engine through [`Simulation`], so each decision is made once, here:
//!
//! * **the engine build** — [`Simulation::start`]: topology, routing, the
//!   open-loop pattern injector or the compiled closed-loop programs, the
//!   exact or streaming collector, faults. The traffic pattern draws from
//!   its own RNG stream, the run seed XOR `TRAFFIC_SEED_SALT`, so it
//!   never shares draws with the injector's per-node phases;
//! * **the stopping rule** — [`Simulation::advance_to`]: open-loop runs
//!   stop at the clock, closed-loop runs drain their task programs, capped
//!   at the same clock so a deadlocked program cannot hang the run;
//! * **the report** — [`Simulation::report`], the fault-recovery time read
//!   off the time series included.

use crate::checkpoint::RunCheckpoint;
use crate::collector::MetricsCollector;
use crate::fault::{compile_faults, FaultSpecEntry};
use crate::injector::PatternInjector;
use crate::spec::{ExperimentSpec, MetricsMode, SpecError};
use dragonfly_engine::injector::{EmptyInjector, TrafficInjector};
use dragonfly_engine::observer::ShardObserver;
use dragonfly_engine::time::SimTime;
use dragonfly_engine::Engine;
use dragonfly_metrics::report::SimulationReport;
use dragonfly_metrics::timeseries::TimeSeries;
use dragonfly_topology::Topology;
use std::time::Instant;

/// XORed into the run seed to seed the traffic pattern.
const TRAFFIC_SEED_SALT: u64 = 0xA5A5_5A5A;

/// One experiment in flight: the spec it was built from, the engine, and
/// the wall clock since the build began.
///
/// ```
/// use dragonfly_sim::builder::Simulation;
/// use dragonfly_sim::spec::ExperimentSpec;
/// use dragonfly_topology::config::DragonflyConfig;
///
/// let spec = ExperimentSpec {
///     load: Some(0.2),
///     warmup_ns: 10_000,
///     measure_ns: 10_000,
///     ..ExperimentSpec::new(DragonflyConfig::tiny())
/// };
/// let mut sim = Simulation::start(&spec).unwrap();
/// sim.advance_to(12_000);
/// let snapshot = sim.snapshot();
/// sim.advance_to(spec.total_ns());
///
/// // A second process picks the run up from the snapshot.
/// let mut resumed = Simulation::resume(&spec, &snapshot).unwrap();
/// assert_eq!(resumed.now(), 12_000);
/// resumed.advance_to(spec.total_ns());
/// assert_eq!(sim.report().first_difference(&resumed.report()), None);
/// ```
pub struct Simulation {
    spec: ExperimentSpec,
    engine: Engine<MetricsCollector>,
    started: Instant,
}

impl Simulation {
    /// Validate `spec` and build its engine at simulated time zero.
    pub fn start(spec: &ExperimentSpec) -> Result<Self, SpecError> {
        spec.validate()?;
        let started = Instant::now();
        let seed = spec.effective_seed();
        let topo = spec.topology.build();
        let algorithm = spec.routing.build();
        let mut cfg = spec.engine.unwrap_or_default();
        cfg.num_vcs = algorithm.num_vcs();
        // Closed-loop runs compile their task programs against the
        // topology before it is moved into the engine; open-loop runs
        // build the pattern injector instead.
        let mut programs = None;
        let injector: Box<dyn TrafficInjector> = match &spec.workload {
            Some(workload) => {
                programs = Some(
                    workload
                        .compile(&topo, spec.effective_intensity())
                        .map_err(|e| SpecError(format!("workload: {e}")))?,
                );
                Box::new(EmptyInjector)
            }
            None => Box::new(PatternInjector::new(
                &topo,
                &cfg,
                spec.traffic.build(&topo, seed ^ TRAFFIC_SEED_SALT),
                spec.effective_schedule(),
                spec.total_ns(),
                seed,
            )),
        };
        let window_end = spec.warmup_ns + spec.measure_ns;
        let streaming = spec
            .metrics
            .is_some_and(|m| m.mode == MetricsMode::Streaming);
        let mut collector = if streaming {
            MetricsCollector::streaming(spec.warmup_ns, window_end)
        } else {
            MetricsCollector::new(spec.warmup_ns, window_end)
        };
        if let Some(bin) = spec.series_bin_ns {
            collector = collector.with_series(bin);
        }
        let mut engine = Engine::new(topo, cfg, algorithm.as_ref(), injector, collector, seed);
        if let Some(programs) = programs {
            engine.install_workload(programs);
        }
        if !spec.faults.is_empty() {
            engine.install_faults(&compile_faults(&spec.faults, engine.topology())?);
        }
        Ok(Self {
            spec: spec.clone(),
            engine,
            started,
        })
    }

    /// Rebuild the engine of `spec` and restore `checkpoint` into it, after
    /// checking that the checkpoint was taken from the same experiment
    /// (execution-mode knobs may differ, see
    /// [`ExperimentSpec::result_identity`]) and that its engine section and
    /// its collector fit what the spec builds. The continued run is
    /// bit-for-bit identical to an uninterrupted one.
    pub fn resume(spec: &ExperimentSpec, checkpoint: &RunCheckpoint) -> Result<Self, SpecError> {
        checkpoint.check_spec_matches(spec)?;
        let mut sim = Self::start(spec)?;
        sim.engine
            .check_restorable(&checkpoint.engine)
            .and_then(|()| {
                checkpoint
                    .collector
                    .check_fits(&sim.engine.merged_observer())
            })
            .map_err(|e| SpecError(format!("checkpoint cannot be restored: {e}")))?;
        sim.engine.restore(&checkpoint.engine);
        sim.engine.seed_observer(checkpoint.collector.clone());
        Ok(sim)
    }

    /// Current simulated time (ns).
    pub fn now(&self) -> SimTime {
        self.engine.now()
    }

    /// Advance to simulated time `t_ns`, clamped to the end of the run.
    /// Returns whether anything is left to simulate afterwards: `false`
    /// once the end of the run is reached or a closed-loop run has drained.
    pub fn advance_to(&mut self, t_ns: SimTime) -> bool {
        let end = self.spec.total_ns();
        let t = t_ns.min(end);
        if self.spec.workload.is_some() {
            self.engine.run_to_drain(t);
            t < end && self.engine.has_pending_events()
        } else {
            self.engine.run_until(t);
            t < end
        }
    }

    /// Capture the complete state of the run. Every point `advance_to`
    /// returns at is a globally consistent cut, and the snapshot is stored
    /// in canonical partition-independent form, so one taken at
    /// `shards = N` resumes at any `shards = M`, pipeline on or off.
    pub fn snapshot(&mut self) -> RunCheckpoint {
        let engine = self.engine.checkpoint();
        RunCheckpoint::new(self.spec.clone(), engine, self.engine.merged_observer())
    }

    /// Assemble the measurement report from the engine as it stands.
    pub fn report(&self) -> SimulationReport {
        let spec = &self.spec;
        let engine = &self.engine;
        let nodes = engine.topology().num_nodes();
        // Merge the per-shard collectors (a single-shard engine merges
        // trivially); quantile queries need the merged sample set anyway.
        let collector = engine.merged_observer();
        let memory_bytes = (engine.memory_bytes() + collector.memory_bytes()) as u64;
        let window_ns = collector.window_ns();
        let throughput = collector.throughput.normalized(
            window_ns,
            nodes,
            engine.config().injection_bytes_per_ns(),
        );
        // Closed-loop completion metrics (all zero for open-loop runs).
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
        let recovery_time_us = match (
            spec.faults.iter().map(FaultSpecEntry::at_ns).min(),
            collector.series.as_ref(),
        ) {
            (Some(fault_at_ns), Some(series)) => recovery_time_us(series, fault_at_ns),
            _ => 0.0,
        };
        SimulationReport {
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
            wall_seconds: self.started.elapsed().as_secs_f64(),
            events_processed: engine.stats().events,
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
            recovery_time_us,
            memory_bytes,
        }
    }

    /// Where the engine's heap is, by owner (a side channel like
    /// `memory_bytes`; never part of the report).
    pub fn memory_breakdown(&self) -> dragonfly_engine::MemoryBreakdown {
        self.engine.memory_breakdown()
    }

    /// Consume the run and return its whole-run time series (`None`
    /// unless the spec set `series_bin_ns`).
    pub fn into_series(self) -> Option<TimeSeries> {
        self.engine.into_observer().series
    }
}

/// Latency-recovery time after the first fault, in µs, from the run's
/// time series: the pre-fault mean latency is the baseline; recovery is
/// reached at the first non-empty bin at/after the fault whose mean
/// latency is within 10 % of the baseline. A run that never recovers
/// counts the whole remaining series. 0.0 when the fault precedes any
/// delivery (no baseline to recover to).
fn recovery_time_us(series: &TimeSeries, fault_at_ns: u64) -> f64 {
    let width = series.bin_width_ns();
    let fault_bin = (fault_at_ns / width) as usize;
    let (mut packets, mut latency_sum) = (0u64, 0u128);
    for idx in 0..fault_bin.min(series.len()) {
        let bin = series.bin(idx);
        packets += bin.packets;
        latency_sum += bin.latency_sum_ns;
    }
    if packets == 0 {
        return 0.0;
    }
    let baseline_ns = latency_sum as f64 / packets as f64;
    for idx in fault_bin..series.len() {
        let bin = series.bin(idx);
        if bin.packets > 0 {
            let mean_ns = bin.latency_sum_ns as f64 / bin.packets as f64;
            if mean_ns <= 1.1 * baseline_ns {
                let recovered_at = (idx as u64 + 1) * width;
                return recovered_at.saturating_sub(fault_at_ns) as f64 / 1_000.0;
            }
        }
    }
    (series.len() as u64 * width).saturating_sub(fault_at_ns) as f64 / 1_000.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use dragonfly_engine::config::{EngineConfig, ShardKind};
    use dragonfly_routing::RoutingSpec;
    use dragonfly_topology::config::DragonflyConfig;
    use dragonfly_traffic::TrafficSpec;
    use dragonfly_workload::WorkloadSpec;
    use qadaptive_core::QAdaptiveParams;

    #[test]
    fn minimal_ur_low_load_has_near_theoretical_latency() {
        let report = ExperimentSpec {
            routing: RoutingSpec::Minimal,
            traffic: TrafficSpec::UniformRandom,
            load: Some(0.1),
            warmup_ns: 20_000,
            measure_ns: 40_000,
            seed: Some(3),
            ..ExperimentSpec::new(DragonflyConfig::tiny())
        }
        .run();
        assert!(report.packets_delivered > 100);
        // Zero-load minimal latency on the tiny system is ~0.6-0.9 us;
        // at 10% load it must stay well under 2 us.
        assert!(
            report.mean_latency_us < 2.0,
            "latency {}",
            report.mean_latency_us
        );
        assert!(report.mean_hops <= 3.0 + 1e-9);
        // Throughput roughly tracks the offered load on an uncongested net.
        assert!(report.throughput > 0.05 && report.throughput < 0.15);
    }

    #[test]
    fn qadaptive_runs_end_to_end_on_the_tiny_system() {
        let report = ExperimentSpec {
            routing: RoutingSpec::QAdaptive(QAdaptiveParams::paper_1056()),
            traffic: TrafficSpec::Adversarial { shift: 1 },
            load: Some(0.2),
            warmup_ns: 30_000,
            measure_ns: 30_000,
            seed: Some(5),
            ..ExperimentSpec::new(DragonflyConfig::tiny())
        }
        .run();
        assert!(report.packets_delivered > 100);
        assert!(report.throughput > 0.05);
        assert!(report.mean_hops >= 1.0);
    }

    #[test]
    fn run_with_series_produces_bins() {
        let (report, series) = ExperimentSpec {
            routing: RoutingSpec::UgalG,
            traffic: TrafficSpec::UniformRandom,
            load: Some(0.3),
            warmup_ns: 10_000,
            measure_ns: 20_000,
            series_bin_ns: Some(5_000),
            seed: Some(9),
            ..ExperimentSpec::new(DragonflyConfig::tiny())
        }
        .run_with_series();
        assert!(report.packets_delivered > 0);
        assert!(series.len() >= 4);
        let total: u64 = series.iter().map(|(_, b)| b.packets).sum();
        assert!(total >= report.packets_delivered);
    }

    #[test]
    fn closed_loop_allreduce_reports_completion_metrics() {
        let report = ExperimentSpec {
            routing: RoutingSpec::UgalG,
            workload: Some(WorkloadSpec::AllReduce { messages: 2 }),
            load: None,
            warmup_ns: 0,
            measure_ns: 10_000_000,
            seed: Some(7),
            ..ExperimentSpec::new(DragonflyConfig::tiny())
        }
        .run();
        assert_eq!(report.ranks_finished, 72, "every rank must finish");
        assert!(report.job_completion_us > 0.0);
        assert!(report.collective_skew_us >= 0.0);
        assert!(report.traffic.contains("AllReduce"));
        assert_eq!(report.offered_load, 1.0);
        // One trailing phase marker per collective.
        assert_eq!(report.phase_completion_us.len(), 1);
        assert!(report.phase_completion_us[0] <= report.job_completion_us);
    }

    #[test]
    fn closed_loop_runs_are_shard_invariant() {
        let make = |shards| {
            ExperimentSpec {
                routing: RoutingSpec::Minimal,
                workload: Some(WorkloadSpec::Sequence(vec![
                    WorkloadSpec::HaloExchange {
                        phases: 2,
                        messages: 2,
                        compute_ns: 100,
                    },
                    WorkloadSpec::Barrier,
                ])),
                load: Some(2.0),
                warmup_ns: 0,
                measure_ns: 10_000_000,
                seed: Some(11),
                engine: Some(EngineConfig {
                    shards,
                    ..Default::default()
                }),
                ..ExperimentSpec::new(DragonflyConfig::tiny())
            }
            .run()
        };
        let single = make(ShardKind::Single);
        let sharded = make(ShardKind::Fixed(3));
        assert_eq!(single.ranks_finished, 72);
        assert_eq!(single.job_completion_us, sharded.job_completion_us);
        assert_eq!(single.phase_completion_us, sharded.phase_completion_us);
        assert_eq!(single.barrier_wait_us, sharded.barrier_wait_us);
        assert_eq!(single.collective_skew_us, sharded.collective_skew_us);
        assert_eq!(single.packets_delivered, sharded.packets_delivered);
        assert!(single.barrier_wait_us > 0.0, "barrier waits are recorded");
    }

    #[test]
    fn same_seed_reproduces_the_same_report() {
        let make = || {
            ExperimentSpec {
                routing: RoutingSpec::UgalN,
                traffic: TrafficSpec::UniformRandom,
                load: Some(0.4),
                warmup_ns: 10_000,
                measure_ns: 20_000,
                seed: Some(42),
                ..ExperimentSpec::new(DragonflyConfig::tiny())
            }
            .run()
        };
        let a = make();
        let b = make();
        assert_eq!(a.packets_delivered, b.packets_delivered);
        assert_eq!(a.mean_latency_us, b.mean_latency_us);
        assert_eq!(a.mean_hops, b.mean_hops);
    }
}
