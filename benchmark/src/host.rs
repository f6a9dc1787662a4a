//! What belongs to no crate: the process's own fault and CPU counters, the
//! calibration loop, and the description of the host.

use crate::metrics::{int, obj, text};
use serde::Value;
use std::fs;
use std::hint::black_box;
use std::time::Instant;

/// Kernel clock ticks per second in `/proc/self/stat` (`USER_HZ`, 100 on
/// every Linux configuration in use).
const TICKS_PER_S: f64 = 100.0;

/// Counters of this process from `/proc/self/stat`; all zero where `/proc`
/// is missing.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcStat {
    pub minor_faults: u64,
    pub user_s: f64,
    pub sys_s: f64,
}

pub fn proc_stat() -> ProcStat {
    let Ok(text) = fs::read_to_string("/proc/self/stat") else {
        return ProcStat::default();
    };
    // The command name (field 2) may hold spaces; fields are counted from
    // the closing parenthesis.
    let rest = text.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let num = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    ProcStat {
        // Field numbers of proc(5) minus the three consumed above.
        minor_faults: num(10 - 3),
        user_s: num(14 - 3) as f64 / TICKS_PER_S,
        sys_s: num(15 - 3) as f64 / TICKS_PER_S,
    }
}

/// A `kB` line of `/proc/self/status` in bytes (`VmHWM`, `VmRSS`).
pub fn status_bytes(key: &str) -> u64 {
    let Ok(text) = fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    text.lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))
        .and_then(|v| v.split_whitespace().next()?.parse::<u64>().ok())
        .map_or(0, |kb| kb * 1024)
}

/// The calibration loop: a fixed walk through a 64 MiB random cycle (about
/// 0.05 s on the reference host), timed before every rep so that a noisy
/// invocation can be recognised afterwards. Dependent loads over a working
/// set of the simulator's size, because the noise that matters on a shared
/// host is in the memory system: a register-only loop stayed within 10 %
/// through phases in which the simulator ran 40 % slower.
pub struct Calibration {
    next: Vec<u32>,
}

impl Calibration {
    const ENTRIES: usize = 16 << 20;
    const STEPS: usize = 1 << 18;

    pub fn new() -> Self {
        // Sattolo's algorithm: a permutation that is one single cycle.
        let mut next: Vec<u32> = (0..Self::ENTRIES as u32).collect();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for i in (1..Self::ENTRIES).rev() {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            next.swap(i, ((x >> 33) as usize) % i);
        }
        Self { next }
    }

    pub fn seconds(&self) -> f64 {
        let started = Instant::now();
        let mut at = 0u32;
        for _ in 0..Self::STEPS {
            at = self.next[at as usize];
        }
        black_box(at);
        started.elapsed().as_secs_f64()
    }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// CPU model, core count and kernel, recorded beside every result.
pub fn describe() -> Value {
    let cpu = fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find_map(|l| l.strip_prefix("model name")?.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_default();
    let kernel = fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_default();
    obj([
        ("cpu_model", text(&cpu)),
        ("nproc", int(nproc() as u64)),
        ("kernel", text(&kernel)),
    ])
}
