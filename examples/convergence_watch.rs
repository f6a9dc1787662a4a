//! Watch the multi-agent system converge: start from an empty network and
//! print the per-10-µs average packet latency as the routers learn
//! (the paper's Figure 7, scaled down).
//!
//! ```text
//! cargo run --release --example convergence_watch
//! ```

use qadaptive::prelude::*;
use qadaptive::routing::RoutingSpec as Spec;
use qadaptive::sim::convergence::run_convergence_spec;

fn main() {
    let result = run_convergence_spec(&ExperimentSpec {
        routing: Spec::QAdaptive(QAdaptiveParams::paper_1056()),
        traffic: TrafficSpec::Adversarial { shift: 1 },
        load: Some(0.35),
        warmup_ns: 300_000,          // 400 µs total ...
        measure_ns: 100_000,         // ... reporting on the final 100 µs
        series_bin_ns: Some(10_000), // 10 µs bins
        seed: Some(21),
        ..ExperimentSpec::new(DragonflyConfig::small())
    });

    println!("Q-adaptive convergence under ADV+1, offered load 0.35\n");
    println!("{:>10} {:>18}", "time (µs)", "mean latency (µs)");
    for (t, lat) in result.latency_curve() {
        let bar_len = (lat * 10.0).min(60.0) as usize;
        println!("{:>10.0} {:>18.2}  {}", t, lat, "#".repeat(bar_len));
    }
    match result.convergence_us {
        Some(t) => println!("\nLatency settled after ~{t:.0} µs (paper: under 500 µs)."),
        None => println!("\nLatency had not settled within the simulated window."),
    }
    println!("\nConverged-window summary: {}", result.report.summary());
}
