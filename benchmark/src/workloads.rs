//! The four workloads: scenario text and the constants the harness needs
//! beside it. Why each workload exists is recorded in `BENCHMARK.json` and
//! `README.md`.

use dragonfly_engine::time::SimTime;

/// How one workload is run at one size.
#[derive(Debug, Clone, Copy)]
pub struct Sizing {
    /// Scenario file without its `seed` line.
    pub scenario: &'static str,
    /// Simulated time of the checkpoint cycle; at most the scenario's
    /// `warmup_ns`. Inside set-up the set-up clock stops for the cycle.
    pub ckpt_at_ns: SimTime,
    /// Simulated time at which resumed and uninterrupted engines are compared.
    pub check_at_ns: SimTime,
    /// Back-to-back checkpoint cycles per rep (their mean is the sample):
    /// more than one where a single cycle is too short to time.
    pub cycles: usize,
    /// Heap to touch before the first rep; about 1.3 x the larger of
    /// `heap_peak_bytes` and `ckpt_heap_peak_bytes`.
    pub prefault_bytes: usize,
    /// Largest relative distance between throughput and offered load, on
    /// workloads whose fabric is unsaturated.
    pub throughput_tolerance: Option<f64>,
    /// Whether the traced run repeats the window on two shards (lockstep
    /// and pipelined): on the workload that is all engine.
    pub sharded_legs: bool,
    /// Whether the traced run also times the `ur_ugal_1056` window, to give
    /// `engine.scale_gap_ratio`: on the workload at scale.
    pub scale_gap: bool,
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// `--seed` is added to this.
    pub base_seed: u64,
    pub full: Sizing,
    /// The same workload on a 72-node system, for `--quick`.
    pub quick: Sizing,
}

impl Workload {
    pub fn sizing(&self, quick: bool) -> &Sizing {
        if quick {
            &self.quick
        } else {
            &self.full
        }
    }

    /// The scenario the simulator sees: the file with its seed in front.
    pub fn scenario_text(&self, quick: bool, seed: u64) -> String {
        format!(
            "seed = {}\n{}",
            self.base_seed.wrapping_add(seed),
            self.sizing(quick).scenario
        )
    }
}

const MB: usize = 1 << 20;

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "ur_ugal_1056",
        base_seed: 11,
        full: Sizing {
            scenario: include_str!("../workloads/ur_ugal_1056.toml"),
            ckpt_at_ns: 20_000,
            check_at_ns: 21_800,
            cycles: 7,
            prefault_bytes: 320 * MB,
            throughput_tolerance: Some(0.02),
            sharded_legs: true,
            scale_gap: false,
        },
        quick: Sizing {
            scenario: include_str!("../workloads/quick/ur_ugal_1056.toml"),
            ckpt_at_ns: 5_000,
            check_at_ns: 7_000,
            cycles: 5,
            prefault_bytes: 0,
            throughput_tolerance: Some(0.1),
            sharded_legs: true,
            scale_gap: false,
        },
    },
    Workload {
        name: "adv_qadp_1056",
        base_seed: 21,
        full: Sizing {
            scenario: include_str!("../workloads/adv_qadp_1056.toml"),
            ckpt_at_ns: 24_000,
            check_at_ns: 26_000,
            cycles: 1,
            prefault_bytes: 800 * MB,
            throughput_tolerance: None,
            sharded_legs: false,
            scale_gap: false,
        },
        quick: Sizing {
            scenario: include_str!("../workloads/quick/adv_qadp_1056.toml"),
            ckpt_at_ns: 10_000,
            check_at_ns: 11_000,
            cycles: 1,
            prefault_bytes: 0,
            throughput_tolerance: None,
            sharded_legs: false,
            scale_gap: false,
        },
    },
    Workload {
        name: "halo_allreduce_ugal_1056",
        base_seed: 7,
        full: Sizing {
            scenario: include_str!("../workloads/halo_allreduce_ugal_1056.toml"),
            ckpt_at_ns: 190_000,
            check_at_ns: 210_000,
            cycles: 1,
            prefault_bytes: 800 * MB,
            throughput_tolerance: None,
            sharded_legs: false,
            scale_gap: false,
        },
        quick: Sizing {
            scenario: include_str!("../workloads/quick/halo_allreduce_ugal_1056.toml"),
            ckpt_at_ns: 10_000,
            check_at_ns: 12_000,
            cycles: 1,
            prefault_bytes: 0,
            throughput_tolerance: None,
            sharded_legs: false,
            scale_gap: false,
        },
    },
    Workload {
        name: "scale_qadp_110k",
        base_seed: 8,
        full: Sizing {
            scenario: include_str!("../workloads/scale_qadp_110k.toml"),
            ckpt_at_ns: 300,
            check_at_ns: 400,
            cycles: 1,
            prefault_bytes: 1200 * MB,
            throughput_tolerance: None,
            sharded_legs: false,
            scale_gap: true,
        },
        quick: Sizing {
            scenario: include_str!("../workloads/quick/scale_qadp_110k.toml"),
            ckpt_at_ns: 1_000,
            check_at_ns: 4_400,
            cycles: 1,
            prefault_bytes: 0,
            throughput_tolerance: None,
            sharded_legs: false,
            scale_gap: true,
        },
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}
