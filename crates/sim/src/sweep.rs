//! Sweep execution and results.
//!
//! Each point of a [`crate::spec::SweepSpec`] is an independent
//! simulation, so a sweep is embarrassingly parallel: a crossbeam scope
//! spawns the budgeted number of workers (bounded by the number of jobs)
//! and the workers pull jobs from a shared counter.

use crate::spec::ExperimentSpec;
use dragonfly_metrics::report::{AggregatedReport, SimulationReport};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The result of a sweep: one report per `(routing, load)` point, in the
/// order the points were defined.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct SweepResult {
    /// All reports, sorted by routing then by load.
    pub reports: Vec<SimulationReport>,
}

impl SweepResult {
    /// Reports for one routing label, sorted by offered load.
    pub fn for_routing(&self, label: &str) -> Vec<&SimulationReport> {
        let mut v: Vec<&SimulationReport> =
            self.reports.iter().filter(|r| r.routing == label).collect();
        v.sort_by(|a, b| a.offered_load.total_cmp(&b.offered_load));
        v
    }

    /// The saturation throughput (maximum observed throughput) of a routing
    /// label across the sweep.
    pub fn saturation_throughput(&self, label: &str) -> f64 {
        self.for_routing(label)
            .iter()
            .map(|r| r.throughput)
            .fold(0.0, f64::max)
    }

    /// CSV rendering of the whole sweep.
    pub fn to_csv(&self) -> String {
        let mut out = SimulationReport::csv_header();
        for r in &self.reports {
            out.push('\n');
            out.push_str(&r.csv_row());
        }
        out
    }

    /// Aggregate repetitions of the same `(routing, traffic, load)` point
    /// into mean/standard-error rows, in first-appearance order. With one
    /// seed per point this is one row per report with zero standard errors.
    pub fn aggregated(&self) -> Vec<AggregatedReport> {
        /// The identity of one sweep point (load compared bitwise).
        type PointKey<'a> = (&'a str, &'a str, u64);
        let mut groups: Vec<(Vec<&SimulationReport>, PointKey<'_>)> = Vec::new();
        for report in &self.reports {
            let key: PointKey<'_> = (
                report.routing.as_str(),
                report.traffic.as_str(),
                report.offered_load.to_bits(),
            );
            match groups.iter_mut().find(|(_, k)| *k == key) {
                Some((members, _)) => members.push(report),
                None => groups.push((vec![report], key)),
            }
        }
        groups
            .iter()
            .map(|(members, _)| AggregatedReport::from_group(members))
            .collect()
    }

    /// Whether any point has more than one repetition (i.e. aggregation
    /// adds information beyond the raw rows). Cheap duplicate-key scan —
    /// no aggregation statistics are computed.
    pub fn has_repetitions(&self) -> bool {
        let mut seen: Vec<(&str, &str, u64)> = Vec::with_capacity(self.reports.len());
        self.reports.iter().any(|r| {
            let key = (
                r.routing.as_str(),
                r.traffic.as_str(),
                r.offered_load.to_bits(),
            );
            if seen.contains(&key) {
                true
            } else {
                seen.push(key);
                false
            }
        })
    }

    /// CSV rendering of the aggregated rows.
    pub fn to_csv_aggregated(&self) -> String {
        let mut out = AggregatedReport::csv_header();
        for row in self.aggregated() {
            out.push('\n');
            out.push_str(&row.csv_row());
        }
        out
    }

    /// Both views of the sweep as one serialisable value (used by the CLI's
    /// JSON output so consumers get raw and aggregated rows together).
    pub fn with_aggregates(&self) -> SweepOutput {
        SweepOutput {
            raw: self.reports.clone(),
            aggregated: self.aggregated(),
        }
    }
}

/// Raw per-repetition reports plus their per-point aggregation — the full
/// output of a sweep run.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct SweepOutput {
    /// One report per simulation run (repetitions listed individually).
    pub raw: Vec<SimulationReport>,
    /// One mean/std-error row per `(routing, traffic, load)` point.
    pub aggregated: Vec<AggregatedReport>,
}

/// Run a batch of experiments on `workers` threads (a count from
/// [`crate::spec::budget_workers`]), preserving input order. This is the
/// execution engine behind [`crate::spec::SweepSpec::run_parallel`] and
/// the figure cache's miss path.
pub fn run_specs_parallel(specs: &[ExperimentSpec], workers: usize) -> Vec<SimulationReport> {
    let next_job = AtomicUsize::new(0);
    let results: Mutex<Vec<Option<SimulationReport>>> = Mutex::new(vec![None; specs.len()]);

    crossbeam::scope(|scope| {
        for _ in 0..workers.clamp(1, specs.len().max(1)) {
            scope.spawn(|_| loop {
                // A plain ticket counter: it publishes no other data.
                let job = next_job.fetch_add(1, Ordering::Relaxed);
                let Some(spec) = specs.get(job) else { break };
                let report = spec.run();
                results.lock()[job] = Some(report);
            });
        }
    })
    .expect("sweep worker panicked");

    results
        .into_inner()
        .into_iter()
        .map(|r| r.expect("every job produces a report"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::SweepSpec;
    use dragonfly_routing::RoutingSpec;
    use dragonfly_topology::config::DragonflyConfig;
    use dragonfly_traffic::TrafficSpec;

    fn tiny_sweep() -> SweepSpec {
        SweepSpec {
            name: String::new(),
            topology: DragonflyConfig::tiny().into(),
            traffics: vec![TrafficSpec::UniformRandom],
            workload: None,
            routings: vec![RoutingSpec::Minimal, RoutingSpec::UgalG],
            loads: vec![0.1, 0.3],
            warmup_ns: 5_000,
            measure_ns: 10_000,
            seed: Some(2),
            seeds_per_point: None,
            engine: None,
            series_bin_ns: None,
            faults: Vec::new(),
            metrics: None,
        }
    }

    #[test]
    fn sequential_and_parallel_agree() {
        let sweep = tiny_sweep();
        assert_eq!(sweep.len(), 4);
        let seq = sweep.run_parallel(1);
        let par = sweep.run_parallel(3);
        assert_eq!(seq.reports.len(), 4);
        assert_eq!(par.reports.len(), 4);
        for (a, b) in seq.reports.iter().zip(par.reports.iter()) {
            assert_eq!(a.routing, b.routing);
            assert_eq!(a.offered_load, b.offered_load);
            assert_eq!(a.packets_delivered, b.packets_delivered);
            assert_eq!(a.mean_latency_us, b.mean_latency_us);
        }
    }

    #[test]
    fn aggregation_collapses_repeated_seeds() {
        let mut spec = tiny_sweep();
        spec.seeds_per_point = Some(3);
        let result = spec.run_parallel(0);
        assert_eq!(result.reports.len(), 12, "3 repetitions of 4 points");
        assert!(result.has_repetitions());
        let agg = result.aggregated();
        assert_eq!(agg.len(), 4, "one aggregated row per (routing, load)");
        for row in &agg {
            assert_eq!(row.runs, 3);
            assert!(row.throughput.mean > 0.0);
        }
        // Aggregated means equal the hand-computed group means.
        let min_01: Vec<&SimulationReport> = result
            .reports
            .iter()
            .filter(|r| r.routing == "MIN" && r.offered_load == 0.1)
            .collect();
        assert_eq!(min_01.len(), 3);
        let expect = min_01.iter().map(|r| r.throughput).sum::<f64>() / 3.0;
        let row = agg
            .iter()
            .find(|a| a.routing == "MIN" && a.offered_load == 0.1)
            .unwrap();
        assert!((row.throughput.mean - expect).abs() < 1e-12);
        // Both views travel together in the serialisable output.
        let output = result.with_aggregates();
        assert_eq!(output.raw.len(), 12);
        assert_eq!(output.aggregated.len(), 4);
        let csv = result.to_csv_aggregated();
        assert_eq!(csv.lines().count(), 5);
    }

    #[test]
    fn single_seed_sweeps_have_no_repetitions() {
        let result = tiny_sweep().run_parallel(0);
        assert!(!result.has_repetitions());
        assert_eq!(result.aggregated().len(), result.reports.len());
        assert!(result.aggregated().iter().all(|a| a.throughput.se == 0.0));
    }

    #[test]
    fn result_queries_group_by_routing() {
        let result = tiny_sweep().run_parallel(0);
        let min_points = result.for_routing("MIN");
        assert_eq!(min_points.len(), 2);
        assert!(min_points[0].offered_load < min_points[1].offered_load);
        assert!(result.saturation_throughput("MIN") > 0.0);
        let csv = result.to_csv();
        assert_eq!(csv.lines().count(), 5);
    }
}
