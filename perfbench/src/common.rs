//! Query shapes, correctness checks and timing loops shared by the
//! workloads.

use crate::stats::Samples;
use std::time::{Duration, Instant};
use tnm_graph::{global_index_cache, global_projection_cache, Time};
use tnm_motifs::prelude::*;

/// The paper's ΔW anchor (Section 5.2).
pub const DELTA_W: Time = 3000;
/// ΔC of the walker-only Kovanen job (the paper's inducedness ΔC).
pub const DELTA_C_KOVANEN: Time = 1500;

/// Paranjape et al.'s shape: 3 events on at most 3 nodes within ΔW,
/// non-induced. The stream engine answers it without enumerating.
pub fn paranjape_shape() -> EnumConfig {
    EnumConfig::new(3, 3).with_timing(Timing::only_w(DELTA_W))
}

/// Kovanen et al.'s model (ΔC only, consecutive events): walkers only.
pub fn kovanen_walk() -> EnumConfig {
    EnumConfig::for_model(&MotifModel::kovanen(DELTA_C_KOVANEN), 3, 3)
}

/// The paper's evaluation as one batch: the four models at ΔW = 3000
/// and ΔC = ratio·ΔW for every 3-event ratio, 3 events on ≤ 3 nodes.
/// Ordered ratio-major; within a ratio, Kovanen, Song, Hulovatyy,
/// Paranjape.
pub fn model_sweep_configs() -> Vec<EnumConfig> {
    let mut cfgs = Vec::new();
    for ratio in tnm_analysis::experiments::RATIOS_3E {
        let timing = Timing::from_ratio(DELTA_W, ratio);
        for model in MotifModel::all_four(timing.delta_c.unwrap_or(DELTA_W), DELTA_W) {
            cfgs.push(EnumConfig::for_model(&model, 3, 3).with_timing(timing));
        }
    }
    cfgs
}

/// Equal as count tables: same signatures with the same non-zero
/// counts (a table may carry explicit zeros).
pub fn same_counts(a: &MotifCounts, b: &MotifCounts) -> bool {
    let nonzero = |c: &MotifCounts| {
        let mut v: Vec<(MotifSignature, u64)> = c.iter().filter(|&(_, n)| n > 0).collect();
        v.sort_unstable();
        v
    };
    nonzero(a) == nonzero(b)
}

/// A one-line description of a mismatch.
pub fn mismatch(what: &str, got: &MotifCounts, want: &MotifCounts) -> String {
    format!(
        "{what}: got {} instances over {} signatures, want {} over {}",
        got.total(),
        got.num_signatures(),
        want.total(),
        want.num_signatures()
    )
}

/// Empties the process-global window-index and projection caches, so a
/// job over a freshly loaded graph never finds the previous job's
/// structures at a reused buffer address.
pub fn clear_caches() {
    global_index_cache().clear();
    global_projection_cache().clear();
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Times `f`, returning its result and the wall time.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed())
}

/// Runs `job` until the jobs have taken `seconds` of wall time (and at
/// least `min_jobs` times), collecting each job's wall time in s.
/// `setup` runs `setup_reps` more times at evenly spaced points of the
/// phase, its times added to `setup_samples`: set-up and jobs are then
/// sampled over the same stretch of time, and a slow spell of the host
/// weighs on both alike. Set-up time does not count against `seconds`.
pub fn run_for(
    seconds: f64,
    min_jobs: usize,
    setup_reps: usize,
    setup_samples: &mut Samples,
    mut setup: impl FnMut() -> Result<(), String>,
    mut job: impl FnMut(),
) -> Result<Samples, String> {
    let mut jobs = Samples::default();
    let mut done = 0;
    while jobs.len() < min_jobs || jobs.sum() < seconds || done < setup_reps {
        if done < setup_reps && jobs.sum() >= seconds * (done + 1) as f64 / (setup_reps + 1) as f64
        {
            let (r, d) = timed(&mut setup);
            r?;
            setup_samples.push(d.as_secs_f64());
            done += 1;
        } else {
            let ((), d) = timed(&mut job);
            jobs.push(d.as_secs_f64());
        }
    }
    Ok(jobs)
}

/// Runs the set-up `unit` `reps` times and returns the wall-time
/// samples (in s) with the last repetition's result.
pub fn repeat_setup<T>(
    reps: usize,
    mut unit: impl FnMut() -> Result<T, String>,
) -> Result<(Samples, T), String> {
    let mut samples = Samples::default();
    let mut last = None;
    for _ in 0..reps.max(1) {
        let (r, d) = timed(&mut unit);
        samples.push(d.as_secs_f64());
        last = Some(r?);
    }
    Ok((samples, last.expect("at least one repetition")))
}
