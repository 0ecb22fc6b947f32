//! The host: its description, its memory high-water mark, and the
//! reference kernel that measures its current speed.
//!
//! On a shared VM the same op runs up to 1.5x slower, in phases of a
//! fraction of a second to tens of seconds, on both vCPUs, with no
//! steal time to show for it (another tenant contends for the core).
//! Every timing is therefore scaled by the speed of a fixed kernel
//! timed just before and just after it, and reported in ms (or s) on a
//! host where that kernel takes [`REF_NOMINAL_MS`]. The kernel is this
//! benchmark's own code, so no change to the simulator can move it.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::hint::black_box;
use std::time::Instant;

/// Reference kernel time at nominal host speed, ms (about the median
/// on the 2-vCPU Xeon VM the bounds were set on).
pub const REF_NOMINAL_MS: f64 = 8.0;

/// A fixed event loop shaped like the simulator's own work: a binary
/// heap of timed events, floating-point accounting, and small
/// allocations.
fn reference_kernel(seed: u64) -> u64 {
    let mut heap = BinaryHeap::new();
    let mut labels: Vec<String> = Vec::new();
    for i in 0..64u64 {
        heap.push(Reverse((crate::splitmix64(seed ^ i) % 1000, i)));
    }
    let (mut t, mut energy) = (0u64, 0.0f64);
    for step in 0..150_000u64 {
        let Reverse((at, id)) = heap.pop().expect("the heap never empties");
        t = at;
        energy += (1.0 + (id % 7) as f64 * 0.37) * (1.0 + (t as f64).sqrt() * 1e-3);
        if step % 64 == 0 {
            labels.push(format!("k{id}"));
        }
        heap.push(Reverse((t + 1 + crate::splitmix64(step ^ seed) % 500, id)));
    }
    let index: BTreeMap<&str, usize> = labels
        .iter()
        .enumerate()
        .map(|(i, l)| (l.as_str(), i))
        .collect();
    t ^ energy.to_bits() ^ index.len() as u64
}

fn kernel_ms() -> f64 {
    let start = Instant::now();
    black_box(reference_kernel(black_box(0)));
    start.elapsed().as_secs_f64() * 1e3
}

/// Samples host speed between timed intervals.
pub struct Speedometer {
    last_ms: f64,
    samples: Vec<f64>,
}

impl Speedometer {
    /// Take the first sample.
    pub fn new() -> Self {
        let last_ms = kernel_ms();
        Self {
            last_ms,
            samples: vec![last_ms],
        }
    }

    /// Sample again and return the factor that scales the interval
    /// since the previous sample to nominal host speed: the nominal
    /// kernel time over the mean of the two samples around it.
    pub fn factor(&mut self) -> f64 {
        let now = kernel_ms();
        let factor = 2.0 * REF_NOMINAL_MS / (self.last_ms + now).max(f64::MIN_POSITIVE);
        self.last_ms = now;
        self.samples.push(now);
        factor
    }

    /// Every kernel time sampled, ms.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }
}

/// `VmHWM` of this process, MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The CPU model `/proc/cpuinfo` reports.
pub fn cpu_model() -> String {
    let info = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    info.lines()
        .find_map(|l| l.strip_prefix("model name"))
        .map_or("unknown".into(), |v| {
            v.trim_start_matches([' ', '\t', ':']).to_string()
        })
}
