//! The per-simulation result record consumed by the experiment harness,
//! the examples and the figure-reproduction binaries.

use serde::{Deserialize, Serialize, Value};

/// Everything measured in one simulation run (one routing algorithm, one
/// traffic pattern, one offered load).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct SimulationReport {
    /// Routing algorithm label (e.g. "Q-adp").
    pub routing: String,
    /// Traffic pattern label (e.g. "ADV+1").
    pub traffic: String,
    /// Offered load in `[0, 1]`.
    pub offered_load: f64,
    /// Measurement-window length in ns.
    pub window_ns: u64,
    /// Packets generated during the measurement window.
    pub packets_generated: u64,
    /// Packets delivered during the measurement window.
    pub packets_delivered: u64,
    /// Normalised system throughput in `[0, 1]`.
    pub throughput: f64,
    /// Mean packet latency (µs).
    pub mean_latency_us: f64,
    /// Median packet latency (µs).
    pub median_latency_us: f64,
    /// First-quartile latency (µs).
    pub q1_latency_us: f64,
    /// Third-quartile latency (µs).
    pub q3_latency_us: f64,
    /// 95th-percentile latency (µs).
    pub p95_latency_us: f64,
    /// 99th-percentile latency (µs).
    pub p99_latency_us: f64,
    /// Maximum observed latency (µs).
    pub max_latency_us: f64,
    /// Mean hop count of delivered packets.
    pub mean_hops: f64,
    /// Fraction of delivered packets with latency below 2 µs (the paper's
    /// Figure 6(c) discussion).
    pub fraction_below_2us: f64,
    /// Wall-clock seconds the simulation took (for performance reporting).
    pub wall_seconds: f64,
    /// Simulated events processed.
    pub events_processed: u64,
    /// Job completion time in µs: when the last rank's task program
    /// finished (closed-loop workload runs only; 0 otherwise).
    #[serde(default)]
    pub job_completion_us: f64,
    /// Ranks whose task program ran to completion (equals the node count
    /// when the job drained fully).
    #[serde(default)]
    pub ranks_finished: u64,
    /// Completion time of each workload phase in µs (the last rank to
    /// pass the phase marker; index = phase slot).
    #[serde(default)]
    pub phase_completion_us: Vec<f64>,
    /// Total time ranks spent blocked in barrier receives, in µs.
    #[serde(default)]
    pub barrier_wait_us: f64,
    /// Collective skew in µs: the spread between the last and the first
    /// rank to finish the job.
    #[serde(default)]
    pub collective_skew_us: f64,
    /// Packets dropped during the whole run (fault-killed resources, TTL
    /// expiry, exhausted retry budgets); 0 on fault-free runs.
    #[serde(default)]
    pub dropped_packets: u64,
    /// NIC retransmissions triggered by drop notifications.
    #[serde(default)]
    pub retransmits: u64,
    /// Distinct `(src, dst)` node pairs that abandoned at least one
    /// message after exhausting the retry budget.
    #[serde(default)]
    pub unreachable_pairs: u64,
    /// Time from the first injected fault until the per-bin mean latency
    /// returned to within 10 % of its pre-fault baseline, in µs (0 when
    /// the run had no faults or no time series).
    #[serde(default)]
    pub recovery_time_us: f64,
    /// Approximate resident bytes held by the simulation state at the end
    /// of the run: Q-tables and per-agent scratch, the packet arena, and
    /// the metrics accumulators (sketches, histograms, time series). Used
    /// by the bounded-memory scale benchmarks.
    #[serde(default)]
    pub memory_bytes: u64,
}

impl SimulationReport {
    /// The CSV header matching [`SimulationReport::csv_row`].
    pub fn csv_header() -> String {
        "routing,traffic,offered_load,throughput,mean_latency_us,median_latency_us,\
         q1_latency_us,q3_latency_us,p95_latency_us,p99_latency_us,mean_hops,\
         packets_delivered,packets_generated,job_completion_us,ranks_finished,\
         barrier_wait_us,collective_skew_us,dropped_packets,retransmits,\
         unreachable_pairs,recovery_time_us,phase_completion_us"
            .to_string()
    }

    /// One CSV row. The per-phase completion vector is ';'-joined so it
    /// stays a single CSV column.
    pub fn csv_row(&self) -> String {
        let phases = self
            .phase_completion_us
            .iter()
            .map(|v| format!("{v:.3}"))
            .collect::<Vec<_>>()
            .join(";");
        format!(
            "{},{},{:.3},{:.4},{:.3},{:.3},{:.3},{:.3},{:.3},{:.3},{:.3},{},{},{:.3},{},{:.3},{:.3},{},{},{},{:.3},{}",
            self.routing,
            self.traffic,
            self.offered_load,
            self.throughput,
            self.mean_latency_us,
            self.median_latency_us,
            self.q1_latency_us,
            self.q3_latency_us,
            self.p95_latency_us,
            self.p99_latency_us,
            self.mean_hops,
            self.packets_delivered,
            self.packets_generated,
            self.job_completion_us,
            self.ranks_finished,
            self.barrier_wait_us,
            self.collective_skew_us,
            self.dropped_packets,
            self.retransmits,
            self.unreachable_pairs,
            self.recovery_time_us,
            phases,
        )
    }

    /// A compact single-line human-readable summary.
    pub fn summary(&self) -> String {
        let mut s = format!(
            "{:<10} {:<14} load={:.2}  tput={:.3}  lat(mean/p95/p99)={:.2}/{:.2}/{:.2} us  hops={:.2}",
            self.routing,
            self.traffic,
            self.offered_load,
            self.throughput,
            self.mean_latency_us,
            self.p95_latency_us,
            self.p99_latency_us,
            self.mean_hops
        );
        if self.ranks_finished > 0 {
            s.push_str(&format!(
                "  jct={:.2} us ({} ranks, skew {:.2} us)",
                self.job_completion_us, self.ranks_finished, self.collective_skew_us
            ));
        }
        s
    }

    /// Delivered-to-generated ratio of the measurement window (1.0 means
    /// the network kept up with the offered load).
    pub fn delivery_ratio(&self) -> f64 {
        if self.packets_generated == 0 {
            0.0
        } else {
            self.packets_delivered as f64 / self.packets_generated as f64
        }
    }

    /// The first field on which two reports disagree, as
    /// [`first_tree_difference`] renders it, or `None` when they describe
    /// the same simulated outcome. `wall_seconds` and `memory_bytes` are
    /// skipped: both legitimately vary with the host, the execution mode
    /// and resume's exact-length buffers, so they are outside the
    /// bit-for-bit contract between runs of one experiment.
    pub fn first_difference(&self, other: &Self) -> Option<String> {
        first_tree_difference(
            "report",
            &self.to_value(),
            &other.to_value(),
            ("self", "other"),
            &["wall_seconds", "memory_bytes"],
        )
    }
}

/// First leaf where two serialised trees disagree, as a dotted path rooted
/// at `path` followed by the two values, or `None` when the trees are
/// equal. `sides` names where `a` and `b` came from in the message; map
/// keys listed in `skip` are ignored at every depth. Floats are equal when
/// their bits are: a NaN equals the same NaN, and `-0.0` is not `0.0`.
pub fn first_tree_difference(
    path: &str,
    a: &Value,
    b: &Value,
    sides: (&str, &str),
    skip: &[&str],
) -> Option<String> {
    let (in_a, in_b) = sides;
    match (a, b) {
        (Value::Map(ea), Value::Map(eb)) => {
            for (k, va) in ea.iter().filter(|(k, _)| !skip.contains(&k.as_str())) {
                match b.get(k) {
                    Some(vb) => {
                        let inner = format!("{path}.{k}");
                        if let Some(d) = first_tree_difference(&inner, va, vb, sides, skip) {
                            return Some(d);
                        }
                    }
                    None => return Some(format!("{path}.{k} (set in {in_a}, absent in {in_b})")),
                }
            }
            eb.iter()
                .find(|(k, _)| !skip.contains(&k.as_str()) && a.get(k).is_none())
                .map(|(k, _)| format!("{path}.{k} (absent in {in_a}, set in {in_b})"))
        }
        (Value::Seq(sa), Value::Seq(sb)) if sa.len() != sb.len() => Some(format!(
            "{path} (length {} in {in_a} vs {} in {in_b})",
            sa.len(),
            sb.len()
        )),
        (Value::Seq(sa), Value::Seq(sb)) => {
            sa.iter().zip(sb).enumerate().find_map(|(i, (va, vb))| {
                first_tree_difference(&format!("{path}[{i}]"), va, vb, sides, skip)
            })
        }
        _ => {
            let same = match (a, b) {
                (Value::Float(fa), Value::Float(fb)) => fa.to_bits() == fb.to_bits(),
                _ => a == b,
            };
            (!same).then(|| {
                format!(
                    "{path} ({} in {in_a} vs {} in {in_b})",
                    render(a),
                    render(b)
                )
            })
        }
    }
}

/// A leaf as a scenario file would spell it (shape mismatches fall back to
/// the debug rendering of the whole subtree).
fn render(value: &Value) -> String {
    match value {
        Value::Null => "null".to_string(),
        Value::Bool(b) => b.to_string(),
        Value::Int(i) => i.to_string(),
        Value::Float(f) => format!("{f:?}"),
        Value::Str(s) => format!("{s:?}"),
        Value::Seq(_) | Value::Map(_) => format!("{value:?}"),
    }
}

/// Mean and standard error of one measured quantity across repetitions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct MeanSe {
    /// Sample mean across the repetitions.
    pub mean: f64,
    /// Standard error of the mean (sample std-dev / sqrt(n)); 0 for n = 1.
    pub se: f64,
}

impl MeanSe {
    /// Compute mean and standard error of `values`.
    pub fn of(values: &[f64]) -> Self {
        let n = values.len();
        if n == 0 {
            return Self::default();
        }
        let mean = values.iter().sum::<f64>() / n as f64;
        if n == 1 {
            return Self { mean, se: 0.0 };
        }
        let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (n - 1) as f64;
        Self {
            mean,
            se: (var / n as f64).sqrt(),
        }
    }

    /// `mean ± se` rendered with three decimals.
    pub fn display(&self) -> String {
        format!("{:.3} ± {:.3}", self.mean, self.se)
    }
}

/// One sweep point aggregated across `seeds_per_point` repetitions: the
/// mean and standard error of every headline metric.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct AggregatedReport {
    /// Routing algorithm label.
    pub routing: String,
    /// Traffic pattern label.
    pub traffic: String,
    /// Offered load in `[0, 1]`.
    pub offered_load: f64,
    /// Number of repetitions aggregated.
    pub runs: usize,
    /// Normalised throughput.
    pub throughput: MeanSe,
    /// Mean packet latency (µs).
    pub mean_latency_us: MeanSe,
    /// 99th-percentile latency (µs).
    pub p99_latency_us: MeanSe,
    /// Mean hop count.
    pub mean_hops: MeanSe,
    /// Packets delivered in the measurement window.
    pub packets_delivered: MeanSe,
}

impl AggregatedReport {
    /// Aggregate a group of repetitions of the same `(routing, traffic,
    /// load)` point. Panics on an empty group.
    pub fn from_group(reports: &[&SimulationReport]) -> Self {
        let first = reports
            .first()
            .expect("aggregation group must be non-empty");
        let col = |f: fn(&SimulationReport) -> f64| {
            MeanSe::of(&reports.iter().map(|r| f(r)).collect::<Vec<_>>())
        };
        Self {
            routing: first.routing.clone(),
            traffic: first.traffic.clone(),
            offered_load: first.offered_load,
            runs: reports.len(),
            throughput: col(|r| r.throughput),
            mean_latency_us: col(|r| r.mean_latency_us),
            p99_latency_us: col(|r| r.p99_latency_us),
            mean_hops: col(|r| r.mean_hops),
            packets_delivered: col(|r| r.packets_delivered as f64),
        }
    }

    /// The CSV header matching [`AggregatedReport::csv_row`].
    pub fn csv_header() -> String {
        "routing,traffic,offered_load,runs,throughput_mean,throughput_se,\
         mean_latency_us_mean,mean_latency_us_se,p99_latency_us_mean,p99_latency_us_se,\
         mean_hops_mean,mean_hops_se,packets_delivered_mean"
            .to_string()
    }

    /// One CSV row.
    pub fn csv_row(&self) -> String {
        format!(
            "{},{},{:.3},{},{:.4},{:.4},{:.3},{:.3},{:.3},{:.3},{:.3},{:.3},{:.1}",
            self.routing,
            self.traffic,
            self.offered_load,
            self.runs,
            self.throughput.mean,
            self.throughput.se,
            self.mean_latency_us.mean,
            self.mean_latency_us.se,
            self.p99_latency_us.mean,
            self.p99_latency_us.se,
            self.mean_hops.mean,
            self.mean_hops.se,
            self.packets_delivered.mean,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_difference_names_the_field_and_skips_wall_clock_and_memory() {
        let reference = report();
        let mut tail = report();
        tail.p99_latency_us = 1.5;
        let diff = reference.first_difference(&tail).expect("p99 differs");
        assert_eq!(diff, "report.p99_latency_us (1.42 in self vs 1.5 in other)");
        let mut phases = report();
        phases.phase_completion_us = vec![1.0];
        let diff = reference.first_difference(&phases).expect("phases differ");
        assert!(
            diff.starts_with("report.phase_completion_us (length 2 in self vs 1"),
            "{diff}"
        );
        // Host- and mode-dependent fields are outside the contract.
        let mut elsewhere = report();
        elsewhere.wall_seconds = 99.0;
        elsewhere.memory_bytes = 1 << 30;
        assert_eq!(reference.first_difference(&elsewhere), None);
    }

    #[test]
    fn floats_compare_by_their_bits() {
        let nan = f64::from_bits(0x7ff8_0000_0000_0abc);
        let mut a = report();
        a.mean_hops = nan;
        let mut b = report();
        b.mean_hops = nan;
        assert_eq!(a.first_difference(&b), None, "the same NaN is equal");
        let (mut zero, mut negative) = (report(), report());
        zero.barrier_wait_us = 0.0;
        negative.barrier_wait_us = -0.0;
        assert_eq!(
            zero.first_difference(&negative).as_deref(),
            Some("report.barrier_wait_us (0.0 in self vs -0.0 in other)")
        );
    }

    fn report() -> SimulationReport {
        SimulationReport {
            routing: "Q-adp".to_string(),
            traffic: "UR".to_string(),
            offered_load: 0.8,
            window_ns: 100_000,
            packets_generated: 1_000,
            packets_delivered: 990,
            throughput: 0.79,
            mean_latency_us: 0.76,
            median_latency_us: 0.7,
            q1_latency_us: 0.6,
            q3_latency_us: 0.9,
            p95_latency_us: 1.2,
            p99_latency_us: 1.42,
            max_latency_us: 3.0,
            mean_hops: 2.9,
            fraction_below_2us: 0.99,
            wall_seconds: 0.5,
            events_processed: 12345,
            job_completion_us: 41.5,
            ranks_finished: 72,
            phase_completion_us: vec![20.0, 41.5],
            barrier_wait_us: 3.25,
            collective_skew_us: 1.75,
            dropped_packets: 7,
            retransmits: 5,
            unreachable_pairs: 1,
            recovery_time_us: 12.5,
            memory_bytes: 4096,
        }
    }

    #[test]
    fn csv_row_matches_header_arity() {
        let header_fields = SimulationReport::csv_header().split(',').count();
        let row_fields = report().csv_row().split(',').count();
        assert_eq!(header_fields, row_fields);
    }

    #[test]
    fn phase_vector_stays_one_csv_column() {
        let row = report().csv_row();
        assert_eq!(
            row.split(',').count(),
            SimulationReport::csv_header().split(',').count()
        );
        assert!(row.ends_with("20.000;41.500"), "{row}");
    }

    #[test]
    fn reports_without_completion_fields_still_deserialize() {
        // A PR-5-era report JSON has none of the closed-loop fields.
        let legacy = r#"{"routing":"MIN","traffic":"UR","offered_load":0.5,
            "window_ns":1000,"packets_generated":10,"packets_delivered":10,
            "throughput":0.5,"mean_latency_us":1.0,"median_latency_us":1.0,
            "q1_latency_us":1.0,"q3_latency_us":1.0,"p95_latency_us":1.0,
            "p99_latency_us":1.0,"max_latency_us":1.0,"mean_hops":2.0,
            "fraction_below_2us":1.0,"wall_seconds":0.1,"events_processed":99}"#;
        let r: SimulationReport = serde_json::from_str(legacy).unwrap();
        assert_eq!(r.ranks_finished, 0);
        assert_eq!(r.job_completion_us, 0.0);
        assert!(r.phase_completion_us.is_empty());
        // Resilience fields (PR 7) default to zero as well.
        assert_eq!(r.dropped_packets, 0);
        assert_eq!(r.retransmits, 0);
        assert_eq!(r.unreachable_pairs, 0);
        assert_eq!(r.recovery_time_us, 0.0);
        // Memory accounting (PR 8) defaults to zero.
        assert_eq!(r.memory_bytes, 0);
    }

    #[test]
    fn summary_contains_the_key_numbers() {
        let s = report().summary();
        assert!(s.contains("Q-adp"));
        assert!(s.contains("UR"));
        assert!(s.contains("0.80") || s.contains("0.8"));
        assert!(s.contains("1.42"));
    }

    #[test]
    fn delivery_ratio() {
        assert!((report().delivery_ratio() - 0.99).abs() < 1e-12);
        let empty = SimulationReport::default();
        assert_eq!(empty.delivery_ratio(), 0.0);
    }

    #[test]
    fn mean_se_basics() {
        assert_eq!(MeanSe::of(&[]), MeanSe::default());
        let single = MeanSe::of(&[4.0]);
        assert_eq!((single.mean, single.se), (4.0, 0.0));
        // Known case: values 1..5 have mean 3, sample sd sqrt(2.5),
        // se = sqrt(2.5/5) = sqrt(0.5).
        let m = MeanSe::of(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert!((m.mean - 3.0).abs() < 1e-12);
        assert!((m.se - (0.5f64).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn aggregation_across_repetitions() {
        let mut a = report();
        let mut b = report();
        a.throughput = 0.7;
        b.throughput = 0.9;
        a.packets_delivered = 900;
        b.packets_delivered = 1_100;
        let agg = AggregatedReport::from_group(&[&a, &b]);
        assert_eq!(agg.runs, 2);
        assert!((agg.throughput.mean - 0.8).abs() < 1e-12);
        assert!(agg.throughput.se > 0.0);
        assert!((agg.packets_delivered.mean - 1_000.0).abs() < 1e-12);
        assert_eq!(agg.routing, "Q-adp");
    }

    #[test]
    fn aggregated_csv_row_matches_header_arity() {
        let agg = AggregatedReport::from_group(&[&report()]);
        let header_fields = AggregatedReport::csv_header().split(',').count();
        let row_fields = agg.csv_row().split(',').count();
        assert_eq!(header_fields, row_fields);
        assert_eq!(agg.runs, 1);
        assert_eq!(agg.throughput.se, 0.0, "single run has zero std error");
    }
}
