//! Quickstart: build a small Dragonfly, run uniform-random traffic under
//! Q-adaptive routing, and print the measured statistics.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use qadaptive::prelude::*;
use qadaptive::routing::RoutingSpec as Spec;

fn main() {
    // A 342-node Dragonfly (p=3, a=6, h=3 → 19 groups); small enough to run
    // in a couple of seconds, large enough to show path diversity.
    let config = DragonflyConfig::small();
    println!("Topology: {config}");

    let qadaptive = ExperimentSpec {
        routing: Spec::QAdaptive(QAdaptiveParams::paper_1056()),
        traffic: TrafficSpec::UniformRandom,
        load: Some(0.5),
        warmup_ns: 50_000,  // 50 µs to let the agents learn
        measure_ns: 50_000, // measure over the next 50 µs
        seed: Some(42),
        ..ExperimentSpec::new(config)
    };
    let report = qadaptive.run();

    println!("\n== Q-adaptive under uniform random traffic, offered load 0.5 ==");
    println!("packets delivered   : {}", report.packets_delivered);
    println!("system throughput   : {:.3}", report.throughput);
    println!("mean latency        : {:.2} µs", report.mean_latency_us);
    println!("p99 latency         : {:.2} µs", report.p99_latency_us);
    println!("mean hops           : {:.2}", report.mean_hops);
    println!("events simulated    : {}", report.events_processed);
    println!("wall-clock time     : {:.2} s", report.wall_seconds);

    // Compare against plain minimal routing on the same workload.
    let min_report = ExperimentSpec {
        routing: Spec::Minimal,
        ..qadaptive
    }
    .run();

    println!("\n== Minimal routing on the same workload ==");
    println!("{}", min_report.summary());
    println!("{}", report.summary());
    println!(
        "\nUnder benign uniform traffic Q-adaptive should be close to the \
         minimal-routing optimum (it learns to route minimally)."
    );
}
