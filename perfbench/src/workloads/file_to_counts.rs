//! `file_to_counts`: SNAP text file in, Paranjape-shape counts out.
//!
//! Each job reads a ~10⁶-event CollegeMsg-shaped edge list with
//! `read_edge_list_file` and answers `Query::Report` for 3 events on ≤ 3
//! nodes within ΔW = 3000 on the auto engine (the stream DPs) with the
//! host's thread budget. It is the one workload through the ingest
//! layer; walkers, batch and serve stay idle.

use crate::common::{self, clear_caches, mismatch, paranjape_shape, repeat_setup, same_counts};
use crate::corpus;
use crate::host::Host;
use crate::layers::{self, LayerSet};
use crate::report::Record;
use crate::Ctx;
use std::path::Path;
use std::time::Duration;
use tnm_datasets::DatasetSpec;
use tnm_graph::global_projection_cache;
use tnm_graph::io::{read_edge_list_file, write_edge_list_file};
use tnm_motifs::engine::{auto_select, stream_hotpath, EngineKind, Query};
use tnm_motifs::MotifCounts;

/// 50 copies of the 20k-event CollegeMsg graph: 10⁶ events.
const COPIES: usize = 50;
/// Set-up samples per run: one before the timed phase, the rest spread
/// through it.
const SETUP_REPS: usize = 5;

pub fn run(ctx: &Ctx, host: &Host, rec: &mut Record) -> Result<(), String> {
    let path = ctx.work.join("collegemsg_x50.txt");
    let cfg = paranjape_shape();
    let query = Query::Report { cfg: cfg.clone(), engine: EngineKind::Auto, threads: ctx.threads };

    // Set-up: generate and replicate the corpus, write the SNAP file,
    // and read it back once (page cache and allocator warm).
    let unit = || {
        let graph = corpus::replicated_graph(&DatasetSpec::college_msg(), ctx.seed, COPIES);
        write_edge_list_file(&graph, &path).map_err(|e| e.to_string())?;
        read_edge_list_file(&path).map_err(|e| e.to_string())?;
        Ok(graph)
    };
    let (setup, graph) = repeat_setup(1, &unit)?;
    let file_mb = std::fs::metadata(&path).map_err(|e| e.to_string())?.len() as f64 / 1e6;
    super::describe_input("collegemsg_x50", &graph, Some(file_mb));
    // The reference: a second exact engine, on the generated graph.
    let reference = EngineKind::Windowed.count(&graph, &cfg, 1);

    let job = |rec: &mut Record| {
        clear_caches();
        let counts = read_edge_list_file(&path)
            .map_err(|e| e.to_string())
            .and_then(|g| query.run(&g).map_err(|e| e.to_string()))
            .map(|r| r.counts());
        match counts {
            Ok(c) => rec.check(same_counts(&c, &reference), || mismatch("report", &c, &reference)),
            Err(e) => rec.check(false, || e),
        }
    };

    if ctx.trace {
        let mut layer_set = LayerSet::default();
        let mut scratch = Record::default();
        layers::traced_jobs(
            ctx.seconds,
            &mut layer_set,
            || job(&mut scratch),
            |l| {
                clear_caches();
                let (counts, covered) = traced_job(l, &path, &query, ctx.threads);
                let ((), excluded) = common::timed(|| {
                    rec.check(same_counts(&counts, &reference), || {
                        mismatch("traced", &counts, &reference)
                    })
                });
                layers::Traced { covered, excluded }
            },
        );
        rec.attempted += scratch.attempted;
        rec.failed += scratch.failed;
        layers::probe_all(ctx, host, &graph, Some(&path), &mut layer_set, rec)?;
        return layers::report(&layer_set, rec);
    }

    super::run_jobs(ctx, rec, setup, SETUP_REPS, || unit().map(drop), job)
}

/// The job as one timed call per layer: read (parse and build), the SoA
/// columns, engine choice, the static projection, and the three stream
/// DP classes; their merged counts are the report's.
fn traced_job(
    l: &mut LayerSet,
    path: &Path,
    query: &Query,
    threads: usize,
) -> (MotifCounts, Duration) {
    let mut covered = Duration::ZERO;
    let graph = l
        .lap("io.read_ms", &mut covered, || read_edge_list_file(path).expect("corpus file parses"));
    l.lap("columns.build_ms", &mut covered, || graph.columns());
    let cfg = &query.configs()[0];
    let ((), d) = common::timed(|| {
        auto_select(&graph, cfg, threads);
    });
    l.push("auto_select.us", d.as_secs_f64() * 1e6);
    covered += d;
    l.lap("static_proj.build_ms", &mut covered, || global_projection_cache().get_or_build(&graph));
    let delta = cfg.timing.delta_w.expect("ΔW job");
    let mut counts =
        l.lap("stream.pair_ms", &mut covered, || stream_hotpath::pair_triples(&graph, delta));
    counts.merge(
        &l.lap("stream.star_ms", &mut covered, || stream_hotpath::star_stars(&graph, delta)),
    );
    counts.merge(
        &l.lap("stream.triad_ms", &mut covered, || stream_hotpath::triad_triads(&graph, delta)),
    );
    (counts, covered)
}
