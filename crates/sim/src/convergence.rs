//! Convergence and dynamic-load studies (Figures 7 and 8 of the paper).
//!
//! Both boil down to running one simulation with a whole-run time series
//! and reporting the per-bin latency or throughput curve.

use crate::spec::ExperimentSpec;
use dragonfly_metrics::report::SimulationReport;
use dragonfly_metrics::timeseries::TimeSeries;
use serde::{Deserialize, Serialize};

/// The outcome of a convergence / dynamic-load run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ConvergenceResult {
    /// The aggregate report over the measurement window (the tail of the
    /// run, once converged).
    pub report: SimulationReport,
    /// The whole-run time series.
    pub series: TimeSeries,
    /// Time (µs) at which the latency settled, if it did
    /// (see [`TimeSeries::convergence_bin`]).
    pub convergence_us: Option<f64>,
    /// Number of nodes (needed to normalise throughput curves).
    pub nodes: usize,
    /// Per-node injection bandwidth in bytes/ns.
    pub injection_bytes_per_ns: f64,
}

impl ConvergenceResult {
    /// The latency curve `(time_us, mean_latency_us)`.
    pub fn latency_curve(&self) -> Vec<(f64, f64)> {
        self.series.latency_curve_us()
    }

    /// The throughput curve `(time_us, normalised_throughput)`.
    pub fn throughput_curve(&self) -> Vec<(f64, f64)> {
        self.series
            .throughput_curve(self.nodes, self.injection_bytes_per_ns)
    }
}

/// Run a convergence study described by an [`ExperimentSpec`]: start from
/// an empty network and record how the latency evolves over the whole run.
/// The spec's warmup/measure windows play their usual roles (the aggregate
/// report covers the tail once converged); the series bin width is the
/// spec's, or [`ExperimentSpec::run_with_series`]'s default when unset.
pub fn run_convergence_spec(spec: &ExperimentSpec) -> ConvergenceResult {
    let (report, series) = spec.run_with_series();
    let convergence_us = series
        .convergence_bin(5, 0.25)
        .map(|bin| bin as f64 * series.bin_width_ns() as f64 / 1_000.0);
    ConvergenceResult {
        report,
        series,
        convergence_us,
        nodes: spec.topology.num_nodes(),
        injection_bytes_per_ns: spec.engine.unwrap_or_default().injection_bytes_per_ns(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dragonfly_routing::RoutingSpec;
    use dragonfly_topology::config::DragonflyConfig;
    use dragonfly_traffic::schedule::LoadSchedule;
    use qadaptive_core::QAdaptiveParams;

    /// A study over `duration_ns` in 10 µs bins whose report covers the
    /// final 20 µs.
    fn study(
        routing: RoutingSpec,
        schedule: LoadSchedule,
        duration_ns: u64,
        seed: u64,
    ) -> ExperimentSpec {
        ExperimentSpec {
            routing,
            load: None,
            schedule: Some(schedule),
            warmup_ns: duration_ns - 20_000,
            measure_ns: 20_000,
            seed: Some(seed),
            series_bin_ns: Some(10_000),
            ..ExperimentSpec::new(DragonflyConfig::tiny())
        }
    }

    #[test]
    fn convergence_run_produces_curves() {
        let result = run_convergence_spec(&study(
            RoutingSpec::QAdaptive(QAdaptiveParams::paper_1056()),
            LoadSchedule::constant(0.3),
            60_000,
            7,
        ));
        assert!(result.report.packets_delivered > 0);
        let lat = result.latency_curve();
        let tput = result.throughput_curve();
        assert_eq!(lat.len(), tput.len());
        assert!(lat.len() >= 5);
        // Throughput in every bin is a sane fraction.
        assert!(tput.iter().all(|(_, v)| *v >= 0.0 && *v <= 1.0));
    }

    #[test]
    fn dynamic_load_step_shows_up_in_the_throughput_curve() {
        let result = run_convergence_spec(&study(
            RoutingSpec::Minimal,
            LoadSchedule::step(0.1, 0.4, 40_000),
            80_000,
            3,
        ));
        let curve = result.throughput_curve();
        // Average throughput before the step must be clearly below after.
        let before: f64 = curve[1..4].iter().map(|(_, v)| v).sum::<f64>() / 3.0;
        let after: f64 = curve[5..8].iter().map(|(_, v)| v).sum::<f64>() / 3.0;
        assert!(after > before * 2.0, "before={before:.3} after={after:.3}");
    }
}
