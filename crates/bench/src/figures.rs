//! The paper-figure registry: every table and figure of the paper as a
//! *data-driven* experiment description.
//!
//! Each figure is a [`FigurePlan`] built from the serialisable
//! [`SweepSpec`] / [`ExperimentSpec`] types of `dragonfly-sim` — the same
//! types scenario files use — plus shared rendering. `qadaptive-cli
//! figure <id>` is a thin wrapper over [`run_figure`]; nothing else
//! constructs a paper sweep by hand.

use crate::cache::{run_convergence_cached, run_sweep_cached, ResultCache};
use crate::harness::{apply_engine_overrides, markdown_table, BenchArgs, RunMode};
use dragonfly_routing::RoutingSpec;
use dragonfly_sim::convergence::ConvergenceResult;
use dragonfly_sim::fault::FaultSpecEntry;
use dragonfly_sim::spec::{ExperimentSpec, MetricsMode, MetricsSpec, SweepSpec};
use dragonfly_sim::sweep::SweepResult;
use dragonfly_topology::config::DragonflyConfig;
use dragonfly_traffic::schedule::LoadSchedule;
use dragonfly_traffic::TrafficSpec;
use dragonfly_workload::WorkloadSpec;
use qadaptive_core::table::QValueTable;
use qadaptive_core::{QAdaptiveParams, QTable, TwoLevelQTable};
use serde::{Serialize, Value};

/// Which columns a sweep panel prints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColumnSet {
    /// Load sweeps: throughput + mean/p99 latency + hops (Figure 5).
    LoadSweep,
    /// Latency distributions: quartiles + tail percentiles (Figure 6).
    Distribution,
    /// Case study: mean/median/p95/p99 + throughput + hops (Figure 9).
    CaseStudy,
    /// Ablation: throughput + mean latency + hops (Section 2.3.2).
    Ablation,
    /// Closed-loop workloads: job-completion time + skew + barrier wait.
    CompletionTime,
    /// Fault-injection sweeps: completion time + drop/retransmit counters
    /// + series-derived recovery time.
    Resilience,
    /// Bounded-memory scale runs: throughput + streamed latency stats +
    /// the end-of-run `memory_bytes` rollup.
    Scale,
}

/// Which curve a convergence panel prints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CurveKind {
    /// Mean latency over time, every 3rd bin (Figure 7).
    Latency,
    /// System throughput over time, every 2nd bin (Figure 8).
    Throughput,
}

/// A figure, fully described as data.
pub enum FigurePlan {
    /// One or more sweep panels sharing a column layout.
    Sweeps {
        /// `(panel title, grid)` pairs, run and printed in order.
        panels: Vec<(String, SweepSpec)>,
        /// Table layout.
        columns: ColumnSet,
        /// Append a per-panel saturation-throughput summary (Figure 5).
        saturation_summary: bool,
    },
    /// Whole-run time-series studies (Figures 7 and 8).
    Convergence {
        /// `(panel title, run)` pairs; every spec has `series_bin_ns` set.
        runs: Vec<(String, ExperimentSpec)>,
        /// Which curve to print.
        curve: CurveKind,
    },
    /// A table computed without simulation (Table 1, the memory claim).
    Static {
        /// Rendered human-readable table.
        text: String,
        /// The same table as CSV.
        csv: String,
    },
}

/// Catalog entry for one reproducible artefact.
pub struct Figure {
    /// Canonical id (`fig5`, `table1`, ...).
    pub id: &'static str,
    /// Human title.
    pub title: &'static str,
    /// Reference numbers quoted from the paper, printed after the run.
    pub notes: &'static str,
}

/// Every artefact the registry can produce, in paper order.
pub fn catalog() -> Vec<Figure> {
    vec![
        Figure {
            id: "table1",
            title: "Table 1: Dragonfly configurations",
            notes: "Paper values: 1,056-node (p=4, a=8, h=4, k=15, g=33, m=264) and \
                    2,550-node (p=5, a=10, h=5, k=19, g=51, m=510).",
        },
        Figure {
            id: "fig5",
            title: "Figure 5: 1,056-node Dragonfly, load sweeps",
            notes: "Paper reference points: UR max load — Q-adaptive 88.25% throughput \
                    (+6.6%/+10.5%/+8.3% vs UGALg/UGALn/PAR, −3.3% vs MIN); \
                    ADV+1 — Q-adaptive 48.2% (beats VALn by 3%); ADV+4 — Q-adaptive 44.9% \
                    (1.7% below VALn), mean hops 4.27 at load 0.5 vs 3.06 under ADV+1.",
        },
        Figure {
            id: "fig6",
            title: "Figure 6: latency distribution on the 1,056-node Dragonfly",
            notes: "Paper reference points: UR — Q-adaptive p99 = 1.42 us (5.9x / 3.8x / 18.2x \
                    below UGALg / UGALn / PAR); ADV+1 — Q-adaptive p99 = 5.10 us; ADV+4 — \
                    Q-adaptive p99 = 8.08 us and 81% of packets under 2 us vs 64% for PAR.",
        },
        Figure {
            id: "fig7",
            title: "Figure 7: Q-adaptive convergence from an empty network",
            notes: "Paper reference: Q-adaptive converges within 500 us of a cold start.",
        },
        Figure {
            id: "fig8",
            title: "Figure 8: Q-adaptive under varying offered loads",
            notes: "Paper reference points: after the UR 0.4->0.8 step Q-adaptive re-converges \
                    in ~156 us (faster than the 200 us cold start); load decreases are followed \
                    almost instantly; ADV+4 steps take ~440-455 us.",
        },
        Figure {
            id: "fig9",
            title: "Figure 9: 2,550-node Dragonfly case study",
            notes: "Paper reference points: UR — Q-adaptive mean 0.84 us / p99 1.67 us (near the \
                    MIN optimum); ADV+1 — mean 0.96 us, beating VALn (1.75 us); 3D Stencil — mean \
                    0.62 us (1.77x below UGALg); Many-to-Many — mean 1.15 us; Random Neighbors — \
                    near-optimal 1.04 us vs MIN 1.01 us.",
        },
        Figure {
            id: "maxq",
            title: "Section 2.3.2 ablation: Q-routing maxQ threshold",
            notes: "Expected shape (paper): small maxQ is best under UR and poor under ADV+i; \
                    larger maxQ helps ADV+1 but never fixes ADV+4 (local-link congestion); \
                    Q-adaptive handles all three with one configuration.",
        },
        Figure {
            id: "jct",
            title: "Closed-loop AllReduce: intensity vs job-completion time",
            notes: "Not a paper figure: a closed-loop companion to Figure 5. Each rank runs a \
                    recursive-doubling AllReduce and the tables report job-completion time \
                    (slowest rank), rank skew and barrier wait per routing algorithm on the \
                    Dragonfly, fat-tree and HyperX systems.",
        },
        Figure {
            id: "resilience",
            title: "Resilience: failed-global-link fraction vs completion and recovery",
            notes: "Not a paper figure: a robustness companion. Each panel kills a random \
                    fraction of the global links 5 us into a closed-loop AllReduce and reports \
                    job-completion time, drop/retransmission counts and the time-series \
                    recovery point for the six routing algorithms on the Dragonfly, fat-tree \
                    and HyperX systems.",
        },
        Figure {
            id: "memory",
            title: "Per-router Q-table memory (Section 4 claim: the two-level table saves 50%)",
            notes: "",
        },
        Figure {
            id: "scale",
            title: "Bounded-memory scale: 110,976-node Dragonfly, streamed metrics",
            notes: "Not a paper figure: the ROADMAP's 100x-scale check. UR on a p=16, a=24, \
                    h=12 Dragonfly (289 groups, 6,936 routers) with the streaming latency \
                    sketch and lazily paged two-level Q-tables; MIN gives the no-table \
                    memory floor and Q-adaptive the learned-table rollup. The memory \
                    column is the end-of-run memory_bytes estimate (Q-tables + packet \
                    arena + metric accumulators); a dense two-level allocation at this \
                    scale would be ~13 GiB per run before the first packet moved.",
        },
    ]
}

/// Resolve user-supplied ids (`5`, `fig5`, `table_memory`, ...).
pub fn canonical_id(id: &str) -> Option<&'static str> {
    let id = id.trim().to_ascii_lowercase();
    let canonical = match id.as_str() {
        "5" | "fig5" => "fig5",
        "6" | "fig6" => "fig6",
        "7" | "fig7" => "fig7",
        "8" | "fig8" => "fig8",
        "9" | "fig9" => "fig9",
        "table1" | "1" => "table1",
        "memory" | "table_memory" => "memory",
        "maxq" | "ablation_maxq" => "maxq",
        "jct" | "allreduce_jct" | "completion" => "jct",
        "resilience" | "faults" | "fault" => "resilience",
        "scale" | "scale100k" | "bounded_memory" => "scale",
        _ => return None,
    };
    Some(canonical)
}

/// Look up the catalog entry for an id.
pub fn figure(id: &str) -> Option<Figure> {
    let id = canonical_id(id)?;
    catalog().into_iter().find(|f| f.id == id)
}

/// The `scale` figure's system: a 110,976-node Dragonfly (p=16, a=24, h=12
/// → 289 groups, 6,936 routers) — two orders of magnitude beyond the
/// paper's 1,056 nodes. Its two-level Q-tables have 4,624 rows per router,
/// above the default `qtable_page_rows_threshold` of 4,096, so the engine
/// picks the lazily paged representation without any override.
fn scale_system() -> DragonflyConfig {
    DragonflyConfig {
        p: 16,
        a: 24,
        h: 12,
    }
}

/// Offered load and measurement window of the `scale` figure. The load is
/// kept low (5% quick / 30% full) and the window short: at 110k nodes even
/// a microsecond of simulated time is tens of millions of events, and every
/// hop's feedback can be the first write to a Q-table row (0.3 KB from then
/// on), so these settings bound both the wall clock and the memory the
/// figure reports.
fn scale_params(quick: bool) -> (f64, u64) {
    if quick {
        (0.05, 1_500)
    } else {
        (0.3, 2_000)
    }
}

/// The two Dragonfly systems of the paper, with display names.
fn paper_systems() -> [(&'static str, DragonflyConfig); 2] {
    [
        ("1,056-node", DragonflyConfig::paper_1056()),
        ("2,550-node", DragonflyConfig::paper_2550()),
    ]
}

/// Build the named, ready-to-run experiment descriptions of every paper
/// artefact at the given settings. This is the single place in the
/// repository where the paper's experiment grids are written down.
pub fn paper_specs(id: &str, args: &BenchArgs) -> Option<FigurePlan> {
    let plan = match canonical_id(id)? {
        "table1" => static_table1(),
        "fig5" => {
            let mut panels = Vec::new();
            for (traffic, loads, panel) in [
                (TrafficSpec::UniformRandom, args.ur_loads(), "Figure 5(a-c)"),
                (
                    TrafficSpec::Adversarial { shift: 1 },
                    args.adv_loads(),
                    "Figure 5(d-f)",
                ),
                (
                    TrafficSpec::Adversarial { shift: 4 },
                    args.adv_loads(),
                    "Figure 5(g-i)",
                ),
            ] {
                let mut sweep = SweepSpec::paper_lineup(
                    DragonflyConfig::paper_1056(),
                    traffic,
                    loads,
                    args.warmup_ns(),
                    args.measure_ns(),
                );
                sweep.name = format!("fig5/{}", traffic.label());
                sweep.seed = Some(args.seed);
                panels.push((format!("{panel} — {}", traffic.label()), sweep));
            }
            FigurePlan::Sweeps {
                panels,
                columns: ColumnSet::LoadSweep,
                saturation_summary: true,
            }
        }
        "fig6" => {
            let mut panels = Vec::new();
            for (traffic, load, panel) in [
                (TrafficSpec::UniformRandom, 0.8, "Figure 6(a) UR @ 0.8"),
                (
                    TrafficSpec::Adversarial { shift: 1 },
                    0.45,
                    "Figure 6(b) ADV+1 @ 0.45",
                ),
                (
                    TrafficSpec::Adversarial { shift: 4 },
                    0.45,
                    "Figure 6(c) ADV+4 @ 0.45",
                ),
            ] {
                let mut sweep = SweepSpec::paper_lineup(
                    DragonflyConfig::paper_1056(),
                    traffic,
                    vec![load],
                    args.warmup_ns(),
                    args.measure_ns(),
                );
                sweep.name = format!("fig6/{}", traffic.label());
                sweep.seed = Some(args.seed);
                panels.push((panel.to_string(), sweep));
            }
            FigurePlan::Sweeps {
                panels,
                columns: ColumnSet::Distribution,
                saturation_summary: false,
            }
        }
        "fig7" => {
            // The paper simulates ~750 us; quick mode uses 300 us which is
            // enough to see the latency surge and the settling.
            let (duration_ns, bin_ns) = match args.mode {
                RunMode::Quick => (300_000u64, 10_000u64),
                RunMode::Full => (750_000, 10_000),
            };
            let tail_ns = 100_000.min(duration_ns / 3);
            let runs = [
                ("Fig 7(a) UR load 0.4", TrafficSpec::UniformRandom, 0.4),
                ("Fig 7(a) UR load 0.8", TrafficSpec::UniformRandom, 0.8),
                (
                    "Fig 7(b) ADV+1 load 0.2",
                    TrafficSpec::Adversarial { shift: 1 },
                    0.2,
                ),
                (
                    "Fig 7(b) ADV+4 load 0.2",
                    TrafficSpec::Adversarial { shift: 4 },
                    0.2,
                ),
                (
                    "Fig 7(b) ADV+1 load 0.4",
                    TrafficSpec::Adversarial { shift: 1 },
                    0.4,
                ),
                (
                    "Fig 7(b) ADV+4 load 0.4",
                    TrafficSpec::Adversarial { shift: 4 },
                    0.4,
                ),
            ]
            .into_iter()
            .map(|(title, traffic, load)| {
                (
                    title.to_string(),
                    ExperimentSpec {
                        name: format!("fig7/{}/{load}", traffic.label()),
                        topology: DragonflyConfig::paper_1056().into(),
                        routing: RoutingSpec::QAdaptive(QAdaptiveParams::paper_1056()),
                        traffic,
                        workload: None,
                        load: Some(load),
                        schedule: None,
                        warmup_ns: duration_ns - tail_ns,
                        measure_ns: tail_ns,
                        tail_ns: 0,
                        seed: Some(args.seed),
                        series_bin_ns: Some(bin_ns),
                        engine: None,
                        faults: Vec::new(),
                        metrics: None,
                    },
                )
            })
            .collect();
            FigurePlan::Convergence {
                runs,
                curve: CurveKind::Latency,
            }
        }
        "fig8" => {
            // The paper switches the UR load at 1600 us (up) / 1280 us
            // (down) and the ADV+4 load at 3215 us / 2610 us into
            // multi-millisecond runs. Quick mode compresses the timeline
            // while keeping the step shape.
            let scale = match args.mode {
                RunMode::Quick => 1u64,
                RunMode::Full => 4,
            };
            let bin_ns = 20_000u64;
            let tail_ns = 100_000u64;
            let runs = [
                (
                    "Fig 8(a) UR 0.4 -> 0.8",
                    TrafficSpec::UniformRandom,
                    LoadSchedule::step(0.4, 0.8, 200_000 * scale),
                    400_000 * scale,
                ),
                (
                    "Fig 8(a) UR 0.8 -> 0.4",
                    TrafficSpec::UniformRandom,
                    LoadSchedule::step(0.8, 0.4, 200_000 * scale),
                    400_000 * scale,
                ),
                (
                    "Fig 8(b) ADV+4 0.2 -> 0.4",
                    TrafficSpec::Adversarial { shift: 4 },
                    LoadSchedule::step(0.2, 0.4, 300_000 * scale),
                    600_000 * scale,
                ),
                (
                    "Fig 8(b) ADV+4 0.4 -> 0.2",
                    TrafficSpec::Adversarial { shift: 4 },
                    LoadSchedule::step(0.4, 0.2, 300_000 * scale),
                    600_000 * scale,
                ),
            ]
            .into_iter()
            .map(|(title, traffic, schedule, duration_ns)| {
                (
                    title.to_string(),
                    ExperimentSpec {
                        name: format!("fig8/{}", traffic.label()),
                        topology: DragonflyConfig::paper_1056().into(),
                        routing: RoutingSpec::QAdaptive(QAdaptiveParams::paper_1056()),
                        traffic,
                        workload: None,
                        load: None,
                        schedule: Some(schedule),
                        warmup_ns: duration_ns - tail_ns,
                        measure_ns: tail_ns,
                        tail_ns: 0,
                        seed: Some(args.seed),
                        series_bin_ns: Some(bin_ns),
                        engine: None,
                        faults: Vec::new(),
                        metrics: None,
                    },
                )
            })
            .collect();
            FigurePlan::Convergence {
                runs,
                curve: CurveKind::Throughput,
            }
        }
        "fig9" => {
            // The paper plots latency distributions at a fixed operating
            // point per pattern; UR / ADV+1 use the Figure 6 loads, the HPC
            // patterns a moderate load. The 2,550-node system is ~2.4x
            // larger, so quick mode trims the windows.
            let load_for = |spec: &TrafficSpec| match spec {
                TrafficSpec::UniformRandom => 0.8,
                TrafficSpec::Adversarial { .. } => 0.45,
                _ => 0.5,
            };
            let (warmup_ns, measure_ns) = match args.mode {
                RunMode::Quick => (60_000u64, 30_000u64),
                RunMode::Full => (args.warmup_ns(), args.measure_ns()),
            };
            let panels = TrafficSpec::paper_case_study()
                .into_iter()
                .map(|traffic| {
                    let load = load_for(&traffic);
                    let sweep = SweepSpec {
                        name: format!("fig9/{}", traffic.label()),
                        topology: DragonflyConfig::paper_2550().into(),
                        traffics: vec![traffic],
                        workload: None,
                        routings: RoutingSpec::paper_lineup_2550(),
                        loads: vec![load],
                        warmup_ns,
                        measure_ns,
                        seed: Some(args.seed),
                        seeds_per_point: None,
                        engine: None,
                        series_bin_ns: None,
                        faults: Vec::new(),
                        metrics: None,
                    };
                    (
                        format!("Figure 9 — {} @ load {load:.2}", traffic.label()),
                        sweep,
                    )
                })
                .collect();
            FigurePlan::Sweeps {
                panels,
                columns: ColumnSet::CaseStudy,
                saturation_summary: false,
            }
        }
        "maxq" => {
            let routings: Vec<RoutingSpec> = vec![
                RoutingSpec::QRouting { max_q: 0 },
                RoutingSpec::QRouting { max_q: 1 },
                RoutingSpec::QRouting { max_q: 2 },
                RoutingSpec::QRouting { max_q: 4 },
                RoutingSpec::QAdaptive(QAdaptiveParams::paper_1056()),
            ];
            let panels = [
                (TrafficSpec::UniformRandom, 0.8),
                (TrafficSpec::Adversarial { shift: 1 }, 0.4),
                (TrafficSpec::Adversarial { shift: 4 }, 0.4),
            ]
            .into_iter()
            .map(|(traffic, load)| {
                let sweep = SweepSpec {
                    name: format!("maxq/{}", traffic.label()),
                    topology: DragonflyConfig::paper_1056().into(),
                    traffics: vec![traffic],
                    workload: None,
                    routings: routings.clone(),
                    loads: vec![load],
                    warmup_ns: args.warmup_ns(),
                    measure_ns: args.measure_ns(),
                    seed: Some(args.seed),
                    seeds_per_point: None,
                    engine: None,
                    series_bin_ns: None,
                    faults: Vec::new(),
                    metrics: None,
                };
                (format!("{} @ load {load:.2}", traffic.label()), sweep)
            })
            .collect();
            FigurePlan::Sweeps {
                panels,
                columns: ColumnSet::Ablation,
                saturation_summary: false,
            }
        }
        "jct" => {
            // Closed-loop: `loads` are message-count intensity multipliers
            // and `measure_ns` is the drain cap, not a window. Quick mode
            // uses the tiny systems; full mode the paper-scale Dragonfly
            // next to mid-size fat-tree and HyperX machines.
            use dragonfly_topology::{FatTreeConfig, HyperXConfig};
            let (dragonfly, fattree, hyperx, intensities, drain_cap_ns) = match args.mode {
                RunMode::Quick => (
                    DragonflyConfig::tiny(),
                    FatTreeConfig::tiny(),
                    HyperXConfig::tiny(),
                    vec![0.5, 1.0, 2.0],
                    10_000_000u64,
                ),
                RunMode::Full => (
                    DragonflyConfig::paper_1056(),
                    FatTreeConfig::small(),
                    HyperXConfig::small(),
                    vec![0.5, 1.0, 2.0, 4.0],
                    100_000_000,
                ),
            };
            let panels: [(String, dragonfly_topology::TopologySpec); 3] = [
                ("AllReduce JCT — Dragonfly".to_string(), dragonfly.into()),
                ("AllReduce JCT — fat-tree".to_string(), fattree.into()),
                ("AllReduce JCT — HyperX".to_string(), hyperx.into()),
            ];
            let panels = panels
                .into_iter()
                .map(|(title, topology)| {
                    let sweep = SweepSpec {
                        name: format!("jct/{}", topology.kind_name()),
                        topology,
                        traffics: vec![],
                        workload: Some(WorkloadSpec::AllReduce { messages: 2 }),
                        routings: RoutingSpec::paper_lineup(),
                        loads: intensities.clone(),
                        warmup_ns: 0,
                        measure_ns: drain_cap_ns,
                        seed: Some(args.seed),
                        seeds_per_point: None,
                        engine: None,
                        series_bin_ns: None,
                        faults: Vec::new(),
                        metrics: None,
                    };
                    (title, sweep)
                })
                .collect();
            FigurePlan::Sweeps {
                panels,
                columns: ColumnSet::CompletionTime,
                saturation_summary: false,
            }
        }
        "resilience" => {
            // Not a paper figure: kill a random fraction of the global
            // links 5 us into a closed-loop AllReduce and chart how the
            // six algorithms degrade and recover. `loads` stays a single
            // intensity; the fraction is the panel axis. Every point
            // records a time series so `recovery_time_us` is meaningful.
            use dragonfly_topology::{FatTreeConfig, HyperXConfig};
            let (dragonfly, fattree, hyperx, fractions, drain_cap_ns) = match args.mode {
                RunMode::Quick => (
                    DragonflyConfig::tiny(),
                    FatTreeConfig::tiny(),
                    HyperXConfig::tiny(),
                    vec![0.05, 0.15],
                    10_000_000u64,
                ),
                RunMode::Full => (
                    DragonflyConfig::paper_1056(),
                    FatTreeConfig::small(),
                    HyperXConfig::small(),
                    vec![0.02, 0.05, 0.10, 0.20],
                    100_000_000,
                ),
            };
            let systems: [(&str, dragonfly_topology::TopologySpec); 3] = [
                ("Dragonfly", dragonfly.into()),
                ("fat-tree", fattree.into()),
                ("HyperX", hyperx.into()),
            ];
            let mut panels = Vec::new();
            for (label, topology) in systems {
                for &fraction in &fractions {
                    let sweep = SweepSpec {
                        name: format!("resilience/{}/f{:.2}", topology.kind_name(), fraction),
                        topology,
                        traffics: vec![],
                        workload: Some(WorkloadSpec::AllReduce { messages: 2 }),
                        routings: RoutingSpec::paper_lineup(),
                        loads: vec![1.0],
                        warmup_ns: 0,
                        measure_ns: drain_cap_ns,
                        seed: Some(args.seed),
                        seeds_per_point: None,
                        engine: None,
                        series_bin_ns: Some(2_000),
                        faults: vec![FaultSpecEntry::random_global_down(5.0, fraction, args.seed)],
                        metrics: None,
                    };
                    panels.push((
                        format!(
                            "Resilience — {label}, {:.0}% global links down",
                            fraction * 100.0
                        ),
                        sweep,
                    ));
                }
            }
            FigurePlan::Sweeps {
                panels,
                columns: ColumnSet::Resilience,
                saturation_summary: false,
            }
        }
        "memory" => static_memory(),
        "scale" => {
            // The ROADMAP's 100x-scale check as a runnable figure. MIN
            // carries no Q-state and anchors the memory column; Q-adaptive
            // pays for exactly the table rows its feedback has written.
            let (load, measure_ns) = scale_params(args.mode == RunMode::Quick);
            let loads = match args.mode {
                RunMode::Quick => vec![load],
                RunMode::Full => vec![0.05, load],
            };
            let sweep = SweepSpec {
                name: "scale/UR".to_string(),
                topology: scale_system().into(),
                traffics: vec![TrafficSpec::UniformRandom],
                workload: None,
                routings: vec![
                    RoutingSpec::Minimal,
                    RoutingSpec::QAdaptive(QAdaptiveParams::paper_1056()),
                ],
                loads,
                warmup_ns: 0,
                measure_ns,
                seed: Some(args.seed),
                seeds_per_point: None,
                engine: None,
                series_bin_ns: Some(500),
                faults: Vec::new(),
                metrics: Some(MetricsSpec {
                    mode: MetricsMode::Streaming,
                }),
            };
            FigurePlan::Sweeps {
                panels: vec![(
                    "110,976-node Dragonfly — streamed metrics, paged Q-tables".to_string(),
                    sweep,
                )],
                columns: ColumnSet::Scale,
                saturation_summary: false,
            }
        }
        _ => return None,
    };
    Some(plan)
}

fn static_table1() -> FigurePlan {
    let systems = paper_systems();
    let rows: Vec<Vec<String>> = [
        ("N (nodes)", systems.map(|(_, c)| c.nodes().to_string())),
        (
            "p (nodes per router)",
            systems.map(|(_, c)| c.p.to_string()),
        ),
        (
            "a (routers per group)",
            systems.map(|(_, c)| c.a.to_string()),
        ),
        (
            "h (global links per router)",
            systems.map(|(_, c)| c.h.to_string()),
        ),
        (
            "k = p+h+a-1 (ports per router)",
            systems.map(|(_, c)| c.radix().to_string()),
        ),
        (
            "g = a*h+1 (groups)",
            systems.map(|(_, c)| c.groups().to_string()),
        ),
        (
            "m = g*a (routers)",
            systems.map(|(_, c)| c.routers().to_string()),
        ),
        (
            "balanced (a = 2p = 2h)",
            systems.map(|(_, c)| c.is_balanced().to_string()),
        ),
        (
            "global links (total)",
            systems.map(|(_, c)| c.global_links().to_string()),
        ),
        (
            "local links (total)",
            systems.map(|(_, c)| c.local_links().to_string()),
        ),
    ]
    .into_iter()
    .map(|(name, vals)| {
        let mut row = vec![name.to_string()];
        row.extend(vals);
        row
    })
    .collect();
    let headers = ["parameter", systems[0].0, systems[1].0];
    FigurePlan::Static {
        text: markdown_table(&headers, &rows),
        csv: rows_to_csv(&headers, &rows),
    }
}

fn static_memory() -> FigurePlan {
    let mut rows = Vec::new();
    for (name, cfg) in paper_systems() {
        let original = QTable::new(cfg.routers(), cfg.fabric_ports(), 0.0);
        let two_level = TwoLevelQTable::new(cfg.groups(), cfg.p, cfg.fabric_ports(), 0.0);
        rows.push(vec![
            name.to_string(),
            format!("{} x {}", original.rows(), original.columns()),
            format!("{}", original.memory_bytes()),
            format!("{} x {}", two_level.rows(), two_level.columns()),
            format!("{}", two_level.memory_bytes()),
            format!(
                "{:.1}%",
                100.0 * (1.0 - two_level.memory_bytes() as f64 / original.memory_bytes() as f64)
            ),
        ]);
    }
    let headers = [
        "system",
        "Q-routing table (rows x cols)",
        "bytes",
        "two-level table (rows x cols)",
        "bytes",
        "savings",
    ];
    FigurePlan::Static {
        text: markdown_table(&headers, &rows),
        csv: rows_to_csv(&headers, &rows),
    }
}

fn rows_to_csv(headers: &[&str], rows: &[Vec<String>]) -> String {
    let escape = |cell: &str| {
        if cell.contains(',') || cell.contains('"') {
            format!("\"{}\"", cell.replace('"', "\"\""))
        } else {
            cell.to_string()
        }
    };
    let mut out = headers
        .iter()
        .map(|h| escape(h))
        .collect::<Vec<_>>()
        .join(",");
    for row in rows {
        out.push('\n');
        out.push_str(&row.iter().map(|c| escape(c)).collect::<Vec<_>>().join(","));
    }
    out
}

/// The structured outcome of running a [`FigurePlan`].
pub enum FigureResult {
    /// Per-panel sweep results.
    Sweeps(Vec<(String, SweepResult)>),
    /// Per-panel convergence results.
    Convergence(Vec<(String, ConvergenceResult)>),
    /// A static table.
    Static {
        /// Rendered table.
        text: String,
        /// CSV rendering.
        csv: String,
    },
}

impl FigureResult {
    /// All results as CSV (panels separated by `# panel:` comment lines
    /// for sweeps; convergence curves as `panel,time_us,...` rows).
    pub fn to_csv(&self) -> String {
        match self {
            FigureResult::Sweeps(panels) => {
                let mut out = String::new();
                for (title, result) in panels {
                    out.push_str(&format!("# panel: {title}\n"));
                    out.push_str(&result.to_csv());
                    out.push('\n');
                }
                out
            }
            FigureResult::Convergence(panels) => {
                let mut out = String::from("panel,time_us,mean_latency_us,throughput\n");
                for (title, result) in panels {
                    let latency = result.latency_curve();
                    let throughput = result.throughput_curve();
                    for ((t, lat), (_, tput)) in latency.iter().zip(throughput.iter()) {
                        out.push_str(&format!("{title},{t:.1},{lat:.4},{tput:.4}\n"));
                    }
                }
                out
            }
            FigureResult::Static { csv, .. } => csv.clone(),
        }
    }

    /// All results as pretty JSON, keyed by panel title.
    pub fn to_json(&self) -> String {
        let value = match self {
            FigureResult::Sweeps(panels) => Value::Map(
                panels
                    .iter()
                    .map(|(title, result)| (title.clone(), result.to_value()))
                    .collect(),
            ),
            FigureResult::Convergence(panels) => Value::Map(
                panels
                    .iter()
                    .map(|(title, result)| (title.clone(), result.to_value()))
                    .collect(),
            ),
            FigureResult::Static { text, .. } => {
                Value::Map(vec![("table".to_string(), Value::Str(text.clone()))])
            }
        };
        serde_json::to_string_pretty(&value).expect("serialisation is infallible")
    }
}

/// The result cache selected by `args` (`--cache-dir` without
/// `--no-cache`), or `None`.
fn cache_from_args(args: &BenchArgs) -> Result<Option<ResultCache>, String> {
    match (&args.cache_dir, args.no_cache) {
        (Some(dir), false) => ResultCache::new(dir).map(Some),
        _ => Ok(None),
    }
}

/// Execute a plan, streaming human-readable progress and tables to stdout
/// (exactly what the legacy binaries printed), and return the structured
/// results for CSV/JSON export.
pub fn run_plan(plan: FigurePlan, args: &BenchArgs) -> FigureResult {
    let cache = cache_from_args(args).unwrap_or_else(|e| {
        eprintln!("warning: {e}; running without a cache");
        None
    });
    match plan {
        FigurePlan::Sweeps {
            panels,
            columns,
            saturation_summary,
        } => {
            let mut results = Vec::new();
            for (title, mut sweep) in panels {
                // Without `--shards` the engine default (`Auto`) shards
                // the points on the cores the sweep leaves free; identical
                // results, so cached points stay valid.
                apply_engine_overrides(&mut sweep.engine, args.shards, args.pipeline);
                println!("\n{title} ({} simulations)...", sweep.len());
                let (result, hits) = run_sweep_cached(&sweep, args.threads, cache.as_ref());
                if hits > 0 {
                    println!("(served {hits}/{} points from the cache)", sweep.len());
                }
                print_sweep_table(&result, columns);
                if saturation_summary {
                    print_saturation_summary(&sweep, &result);
                }
                results.push((title, result));
            }
            FigureResult::Sweeps(results)
        }
        FigurePlan::Convergence { runs, curve } => {
            let mut results = Vec::new();
            for (title, mut spec) in runs {
                apply_engine_overrides(&mut spec.engine, args.shards, args.pipeline);
                println!("\n{title} (simulating {} us)...", spec.total_ns() / 1_000);
                let (result, hit) = run_convergence_cached(&spec, cache.as_ref());
                if hit {
                    println!("(served from the cache)");
                }
                print_convergence_panel(&result, curve);
                results.push((title, result));
            }
            FigureResult::Convergence(results)
        }
        FigurePlan::Static { text, csv } => {
            println!("{text}");
            FigureResult::Static { text, csv }
        }
    }
}

fn print_sweep_table(result: &SweepResult, columns: ColumnSet) {
    let (headers, rows): (Vec<&str>, Vec<Vec<String>>) = match columns {
        ColumnSet::LoadSweep => (
            vec![
                "routing",
                "offered load",
                "throughput",
                "mean latency (us)",
                "p99 latency (us)",
                "mean hops",
            ],
            result
                .reports
                .iter()
                .map(|r| {
                    vec![
                        r.routing.clone(),
                        format!("{:.2}", r.offered_load),
                        format!("{:.3}", r.throughput),
                        format!("{:.2}", r.mean_latency_us),
                        format!("{:.2}", r.p99_latency_us),
                        format!("{:.2}", r.mean_hops),
                    ]
                })
                .collect(),
        ),
        ColumnSet::Distribution => (
            vec![
                "routing",
                "Q1 (us)",
                "median (us)",
                "Q3 (us)",
                "mean (us)",
                "p95 (us)",
                "p99 (us)",
                "< 2 us",
            ],
            result
                .reports
                .iter()
                .map(|r| {
                    vec![
                        r.routing.clone(),
                        format!("{:.2}", r.q1_latency_us),
                        format!("{:.2}", r.median_latency_us),
                        format!("{:.2}", r.q3_latency_us),
                        format!("{:.2}", r.mean_latency_us),
                        format!("{:.2}", r.p95_latency_us),
                        format!("{:.2}", r.p99_latency_us),
                        format!("{:.1}%", 100.0 * r.fraction_below_2us),
                    ]
                })
                .collect(),
        ),
        ColumnSet::CaseStudy => (
            vec![
                "routing",
                "mean (us)",
                "median (us)",
                "p95 (us)",
                "p99 (us)",
                "throughput",
                "hops",
            ],
            result
                .reports
                .iter()
                .map(|r| {
                    vec![
                        r.routing.clone(),
                        format!("{:.2}", r.mean_latency_us),
                        format!("{:.2}", r.median_latency_us),
                        format!("{:.2}", r.p95_latency_us),
                        format!("{:.2}", r.p99_latency_us),
                        format!("{:.3}", r.throughput),
                        format!("{:.2}", r.mean_hops),
                    ]
                })
                .collect(),
        ),
        ColumnSet::Ablation => (
            vec!["routing", "throughput", "mean latency (us)", "mean hops"],
            result
                .reports
                .iter()
                .map(|r| {
                    vec![
                        r.routing.clone(),
                        format!("{:.3}", r.throughput),
                        format!("{:.2}", r.mean_latency_us),
                        format!("{:.2}", r.mean_hops),
                    ]
                })
                .collect(),
        ),
        ColumnSet::CompletionTime => (
            vec![
                "routing",
                "intensity",
                "JCT (us)",
                "skew (us)",
                "barrier wait (us)",
                "ranks",
            ],
            result
                .reports
                .iter()
                .map(|r| {
                    vec![
                        r.routing.clone(),
                        format!("{:.2}", r.offered_load),
                        format!("{:.3}", r.job_completion_us),
                        format!("{:.3}", r.collective_skew_us),
                        format!("{:.3}", r.barrier_wait_us),
                        format!("{}", r.ranks_finished),
                    ]
                })
                .collect(),
        ),
        ColumnSet::Resilience => (
            vec![
                "routing",
                "JCT (us)",
                "dropped",
                "retransmits",
                "unreachable pairs",
                "recovery (us)",
            ],
            result
                .reports
                .iter()
                .map(|r| {
                    vec![
                        r.routing.clone(),
                        format!("{:.3}", r.job_completion_us),
                        format!("{}", r.dropped_packets),
                        format!("{}", r.retransmits),
                        format!("{}", r.unreachable_pairs),
                        format!("{:.1}", r.recovery_time_us),
                    ]
                })
                .collect(),
        ),
        ColumnSet::Scale => (
            vec![
                "routing",
                "offered load",
                "throughput",
                "mean (us)",
                "p99 (us)",
                "delivered",
                "memory (MiB)",
            ],
            result
                .reports
                .iter()
                .map(|r| {
                    vec![
                        r.routing.clone(),
                        format!("{:.2}", r.offered_load),
                        format!("{:.3}", r.throughput),
                        format!("{:.2}", r.mean_latency_us),
                        format!("{:.2}", r.p99_latency_us),
                        format!("{}", r.packets_delivered),
                        format!("{:.0}", r.memory_bytes as f64 / (1024.0 * 1024.0)),
                    ]
                })
                .collect(),
        ),
    };
    println!("{}", markdown_table(&headers, &rows));
}

fn print_saturation_summary(sweep: &SweepSpec, result: &SweepResult) {
    let mut summary = Vec::new();
    for spec in sweep.effective_routings() {
        let label = spec.label();
        summary.push(vec![
            label.clone(),
            format!("{:.3}", result.saturation_throughput(&label)),
        ]);
    }
    let traffic_labels: Vec<String> = sweep
        .effective_traffics()
        .iter()
        .map(TrafficSpec::label)
        .collect();
    println!("\nSaturation throughput ({}):", traffic_labels.join(", "));
    println!(
        "{}",
        markdown_table(&["routing", "max throughput"], &summary)
    );
}

fn print_convergence_panel(result: &ConvergenceResult, curve: CurveKind) {
    match curve {
        CurveKind::Latency => {
            // Print at a 30 us granularity to keep the table readable (the
            // full series is available programmatically / via CSV).
            let rows: Vec<Vec<String>> = result
                .latency_curve()
                .iter()
                .step_by(3)
                .map(|(t, lat)| vec![format!("{t:.0}"), format!("{lat:.2}")])
                .collect();
            println!(
                "{}",
                markdown_table(&["time (us)", "mean latency (us)"], &rows)
            );
            match result.convergence_us {
                Some(t) => println!("converged after ~{t:.0} us (paper: within 500 us)"),
                None => println!("not yet settled within the simulated window"),
            }
            println!("converged-window summary: {}", result.report.summary());
        }
        CurveKind::Throughput => {
            let rows: Vec<Vec<String>> = result
                .throughput_curve()
                .iter()
                .step_by(2)
                .map(|(t, tp)| vec![format!("{t:.0}"), format!("{tp:.3}")])
                .collect();
            println!(
                "{}",
                markdown_table(&["time (us)", "system throughput"], &rows)
            );
            println!("final-window summary: {}", result.report.summary());
        }
    }
}

/// Run one figure end to end — banner, panels, paper notes — and return
/// its structured results. This is the whole implementation of
/// `qadaptive-cli figure`.
pub fn run_figure(id: &str, args: &BenchArgs) -> Result<FigureResult, String> {
    let figure = figure(id).ok_or_else(|| {
        format!(
            "unknown figure `{id}` (known: {})",
            catalog()
                .iter()
                .map(|f| f.id)
                .collect::<Vec<_>>()
                .join(", ")
        )
    })?;
    let plan = paper_specs(figure.id, args).expect("catalog and registry agree");
    println!("{}", args.banner(figure.title));
    let result = run_plan(plan, args);
    if !figure.notes.is_empty() {
        println!("\n{}", figure.notes);
    }
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_args() -> BenchArgs {
        BenchArgs::default()
    }

    #[test]
    fn every_catalog_entry_has_a_plan() {
        for figure in catalog() {
            assert!(
                paper_specs(figure.id, &quick_args()).is_some(),
                "no plan for {}",
                figure.id
            );
        }
    }

    #[test]
    fn ids_resolve_in_all_spellings() {
        for (alias, id) in [
            ("5", "fig5"),
            ("fig9", "fig9"),
            ("table1", "table1"),
            ("table_memory", "memory"),
            ("ablation_maxq", "maxq"),
            ("MAXQ", "maxq"),
        ] {
            assert_eq!(canonical_id(alias), Some(id));
        }
        assert_eq!(canonical_id("fig12"), None);
    }

    #[test]
    fn fig5_quick_matches_the_legacy_definition() {
        // The exact grids the pre-registry fig5 binary hand-assembled,
        // written out field by field: cached results are keyed on them.
        let args = quick_args();
        let FigurePlan::Sweeps {
            panels,
            columns,
            saturation_summary,
        } = paper_specs("fig5", &args).unwrap()
        else {
            panic!("fig5 must be a sweep plan");
        };
        assert_eq!(columns, ColumnSet::LoadSweep);
        assert!(saturation_summary);
        let patterns = [
            (TrafficSpec::UniformRandom, args.ur_loads()),
            (TrafficSpec::Adversarial { shift: 1 }, args.adv_loads()),
            (TrafficSpec::Adversarial { shift: 4 }, args.adv_loads()),
        ];
        assert_eq!(panels.len(), patterns.len());
        for ((_, panel), (traffic, loads)) in panels.iter().zip(patterns) {
            let expected = SweepSpec {
                name: panel.name.clone(),
                topology: DragonflyConfig::paper_1056().into(),
                traffics: vec![traffic],
                workload: None,
                routings: RoutingSpec::paper_lineup(),
                loads,
                warmup_ns: args.warmup_ns(),
                measure_ns: args.measure_ns(),
                seed: Some(args.seed),
                seeds_per_point: None,
                engine: None,
                series_bin_ns: None,
                faults: Vec::new(),
                metrics: None,
            };
            assert_eq!(panel, &expected);
        }
    }

    #[test]
    fn fig7_runs_are_series_enabled_experiment_specs() {
        match paper_specs("fig7", &quick_args()).unwrap() {
            FigurePlan::Convergence { runs, curve } => {
                assert_eq!(curve, CurveKind::Latency);
                assert_eq!(runs.len(), 6);
                for (_, spec) in &runs {
                    assert!(spec.series_bin_ns.is_some());
                    assert!(spec.validate().is_ok());
                    assert_eq!(spec.total_ns(), 300_000);
                }
            }
            _ => panic!("fig7 must be a convergence plan"),
        }
    }

    #[test]
    fn static_tables_render_and_export() {
        for id in ["table1", "memory"] {
            match paper_specs(id, &quick_args()).unwrap() {
                FigurePlan::Static { text, csv } => {
                    assert!(text.contains('|'));
                    assert!(csv.lines().count() >= 3);
                }
                _ => panic!("{id} must be static"),
            }
        }
    }

    #[test]
    fn jct_panels_are_closed_loop_on_all_three_topologies() {
        let FigurePlan::Sweeps {
            panels,
            columns,
            saturation_summary,
        } = paper_specs("jct", &quick_args()).unwrap()
        else {
            panic!("jct must be a sweep plan");
        };
        assert_eq!(columns, ColumnSet::CompletionTime);
        assert!(!saturation_summary);
        let kinds: Vec<&str> = panels.iter().map(|(_, s)| s.topology.kind_name()).collect();
        assert_eq!(kinds, vec!["dragonfly", "fattree", "hyperx"]);
        for (title, sweep) in &panels {
            assert!(
                matches!(sweep.workload, Some(WorkloadSpec::AllReduce { .. })),
                "{title} must run a closed-loop AllReduce"
            );
            assert!(sweep.traffics.is_empty(), "{title} must not inject traffic");
            assert_eq!(sweep.routings, RoutingSpec::paper_lineup());
            assert!(
                sweep.loads.iter().any(|&l| l > 1.0),
                "intensities may exceed 1.0 (they are not offered loads)"
            );
            assert!(sweep.validate().is_ok(), "invalid panel {title}");
        }
    }

    #[test]
    fn resilience_panels_fault_all_three_topologies() {
        let FigurePlan::Sweeps {
            panels,
            columns,
            saturation_summary,
        } = paper_specs("resilience", &quick_args()).unwrap()
        else {
            panic!("resilience must be a sweep plan");
        };
        assert_eq!(columns, ColumnSet::Resilience);
        assert!(!saturation_summary);
        // topologies × fractions panels, each with a seeded random
        // global-link kill, a closed-loop workload and a time series (so
        // `recovery_time_us` is computable).
        let kinds: std::collections::BTreeSet<&str> =
            panels.iter().map(|(_, s)| s.topology.kind_name()).collect();
        assert_eq!(
            kinds.into_iter().collect::<Vec<_>>(),
            vec!["dragonfly", "fattree", "hyperx"]
        );
        for (title, sweep) in &panels {
            assert_eq!(sweep.faults.len(), 1, "{title}");
            assert!(sweep.faults[0].fraction.is_some(), "{title}");
            assert!(sweep.workload.is_some(), "{title}");
            assert!(sweep.series_bin_ns.is_some(), "{title}");
            assert!(sweep.validate().is_ok(), "invalid panel {title}");
            assert!(sweep
                .points()
                .iter()
                .all(|p| p.faults == sweep.faults && p.series_bin_ns == sweep.series_bin_ns));
        }
        assert_eq!(canonical_id("faults"), Some("resilience"));
    }

    #[test]
    fn scale_system_engages_the_paged_tables() {
        // The figure exists to exercise the bounded-memory
        // representations: the system must exceed 100k nodes and its
        // two-level table rows must sit above the default paging threshold.
        let cfg = scale_system();
        assert!(cfg.nodes() > 100_000, "{} nodes", cfg.nodes());
        let rows = cfg.groups() * cfg.p;
        assert!(
            rows > dragonfly_engine::config::EngineConfig::default().qtable_page_rows_threshold,
            "{rows} two-level rows must engage paging"
        );
        // Both modes keep the window short enough that the figure
        // terminates in minutes and low-loaded enough that memory stays
        // bounded.
        for quick in [true, false] {
            let (load, measure_ns) = scale_params(quick);
            assert!(load <= 0.3 && measure_ns <= 2_000);
        }
    }

    #[test]
    fn scale_panel_is_the_bounded_memory_configuration() {
        // 100k+ nodes, streaming metrics, a window short enough to
        // terminate, and a MIN memory floor next to the Q-adaptive paged
        // tables.
        use dragonfly_sim::spec::MetricsMode;
        let FigurePlan::Sweeps {
            panels, columns, ..
        } = paper_specs("scale", &quick_args()).unwrap()
        else {
            panic!("scale must be a sweep plan");
        };
        assert_eq!(columns, ColumnSet::Scale);
        assert_eq!(panels.len(), 1);
        let (_, sweep) = &panels[0];
        assert!(sweep.topology.num_nodes() > 100_000);
        assert_eq!(
            sweep.metrics.as_ref().map(|m| m.mode),
            Some(MetricsMode::Streaming),
            "the scale figure must stream its statistics"
        );
        assert!(sweep.series_bin_ns.is_some(), "per-window streamed metrics");
        assert_eq!(sweep.routings[0], RoutingSpec::Minimal);
        assert!(matches!(sweep.routings[1], RoutingSpec::QAdaptive(_)));
        assert!(sweep.validate().is_ok());
        assert_eq!(canonical_id("bounded_memory"), Some("scale"));
    }

    #[test]
    fn every_sweep_panel_validates() {
        for figure in catalog() {
            if let Some(FigurePlan::Sweeps { panels, .. }) = paper_specs(figure.id, &quick_args()) {
                for (title, sweep) in panels {
                    assert!(sweep.validate().is_ok(), "invalid panel {title}");
                    assert!(!sweep.is_empty(), "empty panel {title}");
                }
            }
        }
    }
}
