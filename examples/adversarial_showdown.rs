//! Adversarial-traffic showdown: the motivating scenario of the paper.
//!
//! Under ADV+1 traffic every group sends all of its packets to the next
//! group, so the single global link between the two groups saturates and
//! minimal routing collapses. Valiant routing fixes the throughput but
//! wastes bandwidth when it is not needed; adaptive routing has to figure
//! out the right mix from local congestion signals. Q-adaptive learns it.
//!
//! ```text
//! cargo run --release --example adversarial_showdown
//! ```

use qadaptive::metrics::report::SimulationReport;
use qadaptive::prelude::*;
use qadaptive::routing::RoutingSpec as Spec;

fn run(routing: Spec, load: f64) -> SimulationReport {
    ExperimentSpec {
        routing,
        traffic: TrafficSpec::Adversarial { shift: 1 },
        load: Some(load),
        warmup_ns: 80_000,
        measure_ns: 60_000,
        seed: Some(7),
        ..ExperimentSpec::new(DragonflyConfig::small())
    }
    .run()
}

fn main() {
    let load = 0.40;
    println!(
        "ADV+1 adversarial traffic at offered load {load} on {}",
        DragonflyConfig::small()
    );
    println!(
        "(paper: MIN collapses, VALn is the classic fix, Q-adaptive should match or beat it)\n"
    );

    let lineup = [
        Spec::Minimal,
        Spec::ValiantNode,
        Spec::UgalG,
        Spec::UgalN,
        Spec::Par,
        Spec::QAdaptive(QAdaptiveParams::paper_1056()),
    ];

    println!(
        "{:<10} {:>10} {:>14} {:>12} {:>10}",
        "routing", "throughput", "mean lat (µs)", "p99 (µs)", "hops"
    );
    for spec in lineup {
        let r = run(spec, load);
        println!(
            "{:<10} {:>10.3} {:>14.2} {:>12.2} {:>10.2}",
            r.routing, r.throughput, r.mean_latency_us, r.p99_latency_us, r.mean_hops
        );
    }

    println!(
        "\nExpected shape: MIN saturates well below the offered load; VALn and the\n\
         adaptive algorithms keep up; Q-adaptive reaches the highest throughput with\n\
         the shortest paths because it only reroutes when the Q-table says it pays off."
    );
}
