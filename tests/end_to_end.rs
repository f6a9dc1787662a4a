//! Cross-crate integration tests: full simulations on small Dragonfly
//! systems exercising the public API end to end.

use qadaptive::prelude::*;
use qadaptive::routing::RoutingSpec;
use qadaptive::traffic::TrafficSpec;

fn run(
    routing: RoutingSpec,
    traffic: TrafficSpec,
    load: f64,
    warmup: u64,
    measure: u64,
    seed: u64,
) -> SimulationReport {
    ExperimentSpec {
        routing,
        traffic,
        load: Some(load),
        warmup_ns: warmup,
        measure_ns: measure,
        seed: Some(seed),
        ..ExperimentSpec::new(DragonflyConfig::tiny())
    }
    .run()
}

#[test]
fn every_algorithm_delivers_uniform_traffic() {
    let mut specs = RoutingSpec::paper_lineup();
    specs.push(RoutingSpec::ValiantGlobal);
    specs.push(RoutingSpec::QRouting { max_q: 2 });
    for spec in specs {
        let report = run(spec, TrafficSpec::UniformRandom, 0.3, 20_000, 30_000, 3);
        assert!(
            report.packets_delivered > 500,
            "{}: only {} packets delivered",
            report.routing,
            report.packets_delivered
        );
        assert!(
            report.throughput > 0.2,
            "{}: throughput {}",
            report.routing,
            report.throughput
        );
        assert!(report.mean_latency_us > 0.0);
        assert!(report.mean_hops <= 7.0);
    }
}

#[test]
fn minimal_routing_is_optimal_under_light_uniform_traffic() {
    let min = run(
        RoutingSpec::Minimal,
        TrafficSpec::UniformRandom,
        0.2,
        20_000,
        30_000,
        5,
    );
    let valn = run(
        RoutingSpec::ValiantNode,
        TrafficSpec::UniformRandom,
        0.2,
        20_000,
        30_000,
        5,
    );
    // Valiant wastes bandwidth on detours: longer paths and higher latency.
    assert!(min.mean_hops < valn.mean_hops);
    assert!(min.mean_latency_us < valn.mean_latency_us);
}

#[test]
fn minimal_routing_collapses_under_adversarial_traffic() {
    let min = run(
        RoutingSpec::Minimal,
        TrafficSpec::Adversarial { shift: 1 },
        0.4,
        30_000,
        30_000,
        7,
    );
    let valn = run(
        RoutingSpec::ValiantNode,
        TrafficSpec::Adversarial { shift: 1 },
        0.4,
        30_000,
        30_000,
        7,
    );
    // The single global link between the two groups caps MIN throughput at
    // roughly 1 / (a*p) of the injection bandwidth; Valiant spreads it.
    assert!(
        valn.throughput > 2.0 * min.throughput,
        "VALn {} vs MIN {}",
        valn.throughput,
        min.throughput
    );
    assert!(min.mean_latency_us > valn.mean_latency_us);
}

#[test]
fn qadaptive_beats_minimal_under_adversarial_traffic() {
    let min = run(
        RoutingSpec::Minimal,
        TrafficSpec::Adversarial { shift: 1 },
        0.35,
        120_000,
        40_000,
        11,
    );
    let qadp = run(
        RoutingSpec::QAdaptive(QAdaptiveParams::paper_1056()),
        TrafficSpec::Adversarial { shift: 1 },
        0.35,
        120_000,
        40_000,
        11,
    );
    assert!(
        qadp.throughput > 1.5 * min.throughput,
        "Q-adaptive {} vs MIN {}",
        qadp.throughput,
        min.throughput
    );
}

#[test]
fn qadaptive_stays_near_minimal_under_uniform_traffic() {
    let min = run(
        RoutingSpec::Minimal,
        TrafficSpec::UniformRandom,
        0.4,
        40_000,
        40_000,
        13,
    );
    let qadp = run(
        RoutingSpec::QAdaptive(QAdaptiveParams::paper_1056()),
        TrafficSpec::UniformRandom,
        0.4,
        40_000,
        40_000,
        13,
    );
    // Under benign traffic Q-adaptive learns to route (close to) minimally:
    // throughput matches the offered load and the hop count stays minimal-ish.
    assert!((qadp.throughput - min.throughput).abs() < 0.05);
    assert!(qadp.mean_hops < min.mean_hops + 0.5);
    assert!(qadp.mean_latency_us < 3.0 * min.mean_latency_us);
}

#[test]
fn hpc_patterns_run_end_to_end() {
    for traffic in [
        TrafficSpec::Stencil3D,
        TrafficSpec::ManyToMany,
        TrafficSpec::RandomNeighbors,
    ] {
        let report = run(
            RoutingSpec::QAdaptive(QAdaptiveParams::paper_2550()),
            traffic,
            0.3,
            20_000,
            30_000,
            17,
        );
        assert!(report.packets_delivered > 200, "{}", report.traffic);
        assert!(report.throughput > 0.1, "{}", report.traffic);
    }
}

#[test]
fn throughput_never_exceeds_offered_load() {
    for spec in RoutingSpec::paper_lineup() {
        let report = run(spec, TrafficSpec::UniformRandom, 0.5, 20_000, 30_000, 19);
        assert!(
            report.throughput <= 0.5 + 0.03,
            "{}: throughput {} exceeds offered load",
            report.routing,
            report.throughput
        );
    }
}

#[test]
fn reports_are_reproducible_across_identical_runs() {
    let a = run(
        RoutingSpec::Par,
        TrafficSpec::Adversarial { shift: 2 },
        0.3,
        20_000,
        20_000,
        23,
    );
    let b = run(
        RoutingSpec::Par,
        TrafficSpec::Adversarial { shift: 2 },
        0.3,
        20_000,
        20_000,
        23,
    );
    assert_eq!(a.packets_delivered, b.packets_delivered);
    assert_eq!(a.mean_latency_us, b.mean_latency_us);
    assert_eq!(a.p99_latency_us, b.p99_latency_us);
    assert_eq!(a.mean_hops, b.mean_hops);
}
