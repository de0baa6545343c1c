//! The three workloads. Each generates its inputs from the seed, sets
//! up, checks every timed operation, and reports either the end-to-end
//! metrics or, traced, the per-layer table.
//!
//! Every workload reports the same end-to-end metrics, each with the
//! same meaning:
//!
//! | metric | unit | meaning |
//! |---|---|---|
//! | `setup_s` | s | median of the set-up repetitions (see each workload) |
//! | `job_s_p50` | s | median wall time of one job |
//! | `peak_rss_mb` | MB | high-water RSS of the process doing the work |

mod file_to_counts;
mod model_sweep;
mod serve_mixed;

use crate::common::run_for;
use crate::host::{self, Host};
use crate::report::Record;
use crate::stats::Samples;
use crate::Ctx;

/// The end-to-end metrics every workload reports, with their units.
pub const END_TO_END: [(&str, &str); 3] =
    [("setup_s", "s"), ("job_s_p50", "s"), ("peak_rss_mb", "MB")];

pub const NAMES: [&str; 3] = ["file_to_counts", "model_sweep", "serve_mixed"];

pub fn run(ctx: &Ctx, host: &Host, rec: &mut Record) -> Result<(), String> {
    match ctx.workload.as_str() {
        "file_to_counts" => file_to_counts::run(ctx, host, rec),
        "model_sweep" => model_sweep::run(ctx, host, rec),
        "serve_mixed" => serve_mixed::run(ctx, host, rec),
        other => Err(format!("unknown workload {other}")),
    }
}

/// Prints the input line every record carries.
pub fn describe_input(label: &str, graph: &tnm_graph::TemporalGraph, file_mb: Option<f64>) {
    let proj = tnm_graph::StaticProjection::from_graph(graph);
    let mut triangles = 0u64;
    proj.for_each_undirected_triangle(|_| triangles += 1);
    println!(
        "# input {label}: events={} nodes={} static_edges={} triangles={triangles} file_mb={}",
        graph.num_events(),
        graph.num_nodes(),
        graph.num_static_edges(),
        file_mb.map_or_else(|| "-".to_string(), |mb| format!("{mb:.3}")),
    );
}

/// The timed phase of a workload whose jobs run in this process: one
/// untimed warm-up job, then jobs for `--seconds` with the remaining
/// set-up repetitions spread through them, then the end-to-end metrics.
/// `peak_rss_mb` covers only what runs after the warm-up.
pub fn run_jobs(
    ctx: &Ctx,
    rec: &mut Record,
    mut setup: Samples,
    setup_reps: usize,
    unit: impl FnMut() -> Result<(), String>,
    mut job: impl FnMut(&mut Record),
) -> Result<(), String> {
    job(rec);
    host::reset_peak_rss();
    let jobs = run_for(ctx.seconds, 5, setup_reps - setup.len(), &mut setup, unit, || job(rec))?;
    let rss = host::peak_rss_mb(std::process::id()).ok_or("cannot read VmHWM")?;
    report_end_to_end(rec, &setup, &jobs, jobs.len(), jobs.sum(), rss);
    Ok(())
}

/// Adds the [`END_TO_END`] metrics, and prints the throughput: `ops`
/// operations completed in `ops_seconds`. The throughput is not gated:
/// on serve_mixed it swings with the host more than the job times do
/// (both connections need both cores), and elsewhere it restates the
/// job time.
pub fn report_end_to_end(
    rec: &mut Record,
    setup: &Samples,
    jobs: &Samples,
    ops: usize,
    ops_seconds: f64,
    peak_rss_mb: f64,
) {
    println!("# setup_s samples: {}", setup.describe());
    println!("# job_s samples: {}", jobs.describe());
    println!(
        "# throughput: {:.4} ops/s ({ops} ops in {ops_seconds:.3} s)",
        ops as f64 / ops_seconds
    );
    let values = [
        (setup.median().expect("set-up ran"), setup.len()),
        (jobs.median().expect("jobs ran"), jobs.len()),
        (peak_rss_mb, 1),
    ];
    for ((name, unit), (value, n)) in END_TO_END.into_iter().zip(values) {
        rec.metric(name, value, unit, n);
    }
}
