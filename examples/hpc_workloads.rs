//! HPC communication patterns (the paper's Section 6 case study, scaled
//! down): 3D Stencil, Many-to-Many and Random Neighbors, comparing minimal
//! routing, UGALg and Q-adaptive.
//!
//! ```text
//! cargo run --release --example hpc_workloads
//! ```

use qadaptive::prelude::*;
use qadaptive::routing::RoutingSpec as Spec;
use qadaptive::traffic::TrafficSpec as Traffic;

fn main() {
    let config = DragonflyConfig::small();
    let patterns = [
        Traffic::Stencil3D,
        Traffic::ManyToMany,
        Traffic::RandomNeighbors,
    ];
    let routings = [
        ("MIN", Spec::Minimal),
        ("UGALg", Spec::UgalG),
        ("Q-adp", Spec::QAdaptive(QAdaptiveParams::paper_2550())),
    ];

    println!("HPC workloads on {config}\n");
    for pattern in patterns {
        println!("--- {} ---", pattern.label());
        println!(
            "{:<8} {:>10} {:>14} {:>10} {:>8}",
            "routing", "throughput", "mean lat (µs)", "p99 (µs)", "hops"
        );
        for (label, spec) in routings {
            let report = ExperimentSpec {
                routing: spec,
                traffic: pattern,
                load: Some(0.5),
                warmup_ns: 60_000,
                measure_ns: 60_000,
                seed: Some(11),
                ..ExperimentSpec::new(config)
            }
            .run();
            println!(
                "{:<8} {:>10.3} {:>14.2} {:>10.2} {:>8.2}",
                label,
                report.throughput,
                report.mean_latency_us,
                report.p99_latency_us,
                report.mean_hops
            );
        }
        println!();
    }
    println!(
        "The paper's observation: Q-adaptive matches the best baseline on every\n\
         pattern because it adapts per (source, destination-group) rather than\n\
         committing to one routing style."
    );
}
