//! Property-style integration tests: the simulator's conservation and
//! boundedness invariants must hold for arbitrary (small) workloads and all
//! routing algorithms. The offline build has no proptest, so the old
//! random strategies are replaced by a deterministic sample: every routing
//! algorithm is paired with a rotating traffic pattern, load and seed.

use qadaptive::prelude::*;
use qadaptive::routing::RoutingSpec;
use qadaptive::traffic::TrafficSpec;

fn all_routings() -> Vec<RoutingSpec> {
    vec![
        RoutingSpec::Minimal,
        RoutingSpec::ValiantGlobal,
        RoutingSpec::ValiantNode,
        RoutingSpec::UgalG,
        RoutingSpec::UgalN,
        RoutingSpec::Par,
        RoutingSpec::QRouting { max_q: 2 },
        RoutingSpec::QAdaptive(QAdaptiveParams::paper_1056()),
    ]
}

fn all_traffics() -> Vec<TrafficSpec> {
    vec![
        TrafficSpec::UniformRandom,
        TrafficSpec::Adversarial { shift: 1 },
        TrafficSpec::Adversarial { shift: 4 },
        TrafficSpec::Stencil3D,
        TrafficSpec::ManyToMany,
        TrafficSpec::RandomNeighbors,
    ]
}

/// For any routing algorithm, traffic pattern, load and seed:
/// * some packets are delivered,
/// * throughput never exceeds the offered load (by more than rounding),
/// * hop counts stay within the largest legal budget (PAR's 7),
/// * latency percentiles are ordered.
#[test]
fn simulation_invariants() {
    let traffics = all_traffics();
    for (i, routing) in all_routings().into_iter().enumerate() {
        // Rotate patterns/loads/seeds so that each algorithm sees a
        // different-but-deterministic workload, covering the same space the
        // old 12-case proptest run sampled from.
        let traffic = traffics[i % traffics.len()];
        let load = 0.10 + 0.05 * (i % 8) as f64;
        let seed = 1 + 97 * i as u64;
        let report = ExperimentSpec {
            routing,
            traffic,
            load: Some(load),
            warmup_ns: 10_000,
            measure_ns: 15_000,
            seed: Some(seed),
            ..ExperimentSpec::new(DragonflyConfig::tiny())
        }
        .run();
        let context = format!("routing={routing:?} traffic={traffic:?} load={load} seed={seed}");
        assert!(report.packets_delivered > 0, "{context}");
        assert!(report.throughput <= load + 0.05, "{context}");
        assert!(report.mean_hops <= 8.0, "{context}");
        assert!(
            report.q1_latency_us <= report.median_latency_us + 1e-9,
            "{context}"
        );
        assert!(
            report.median_latency_us <= report.q3_latency_us + 1e-9,
            "{context}"
        );
        assert!(
            report.q3_latency_us <= report.p99_latency_us + 1e-9,
            "{context}"
        );
        assert!(
            report.p99_latency_us <= report.max_latency_us + 1e-9,
            "{context}"
        );
        assert!(report.mean_latency_us > 0.0, "{context}");
    }
}
