//! Host fingerprint and process memory readings.
//!
//! Every record names the host it was taken on, so two records compare
//! like with like: core count, CPU model, compiler and build profile,
//! plus the time of a fixed calibration kernel that moves with the
//! host's speed and not with the code under test.

use crate::stats::Samples;
use std::time::Instant;

pub struct Host {
    pub nproc: usize,
    pub cpu_model: String,
    pub rustc: String,
    pub profile: &'static str,
    /// Median wall time of [`calibration_kernel`], in ms.
    pub calib_ms: f64,
}

impl Host {
    pub fn probe() -> Host {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        let rustc = std::process::Command::new("rustc")
            .arg("--version")
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".into());
        let mut calib = Samples::default();
        for _ in 0..5 {
            let t0 = Instant::now();
            std::hint::black_box(calibration_kernel(std::hint::black_box(CALIBRATION_ROUNDS)));
            calib.push(t0.elapsed().as_secs_f64() * 1e3);
        }
        Host {
            nproc: nproc(),
            cpu_model,
            rustc,
            profile: if cfg!(debug_assertions) { "debug" } else { "release" },
            calib_ms: calib.median().expect("five calibration samples"),
        }
    }

    pub fn describe(&self) -> String {
        format!(
            "nproc={} cpu=\"{}\" rustc=\"{}\" profile={} calib_ms={:.3}",
            self.nproc, self.cpu_model, self.rustc, self.profile, self.calib_ms
        )
    }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Rounds of [`calibration_kernel`] per sample (about 0.1 s on a
/// 2020s x86-64 core).
const CALIBRATION_ROUNDS: u64 = 40_000_000;

/// A fixed single-threaded integer kernel: an xorshift chain folded
/// with a rotate into one accumulator. It touches no memory beyond
/// registers, so its time tracks the core's speed and nothing else.
pub fn calibration_kernel(rounds: u64) -> u64 {
    let (mut x, mut acc) = (0x9E37_79B9_7F4A_7C15u64, 0u64);
    for i in 0..rounds {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc = acc.rotate_left(5) ^ x.wrapping_add(i);
    }
    acc
}

/// High-water resident set size of process `pid` (`VmHWM`), in MB
/// (10^6 bytes).
pub fn peak_rss_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let kb: f64 = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()?;
    Some(kb * 1024.0 / 1e6)
}

/// Resets this process's `VmHWM` to its current RSS, so a peak read
/// later covers only what ran after the call. Best effort: kernels
/// without `clear_refs` keep the process-lifetime peak.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}
