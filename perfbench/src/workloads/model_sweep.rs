//! `model_sweep`: the paper's model comparison on resident graphs.
//!
//! Each job answers the four models at ΔW = 3000 and ΔC = ratio·ΔW for
//! every 3-event ratio as one `Query::Batch` per resident graph: a
//! CollegeMsg-shaped graph (dense, 97% unique timestamps) and an
//! SMS-A-shaped one (sparse, 60% unique, so the tie paths run). It is
//! walker- and batch-planner-heavy with index-cache hits and no ingest.

use crate::common::{self, mismatch, model_sweep_configs, repeat_setup, same_counts};
use crate::corpus::{self, derive_seed};
use crate::host::Host;
use crate::layers::{self, LayerSet};
use crate::report::Record;
use crate::Ctx;
use std::time::Duration;
use tnm_datasets::DatasetSpec;
use tnm_graph::{StaticProjection, TemporalGraph, WindowIndex};
use tnm_motifs::engine::{BatchPlanner, EngineKind, Query};
use tnm_motifs::MotifCounts;

/// 5 × 20k CollegeMsg events and 4 × 30k SMS-A events: 10⁵ and 1.2·10⁵.
const CORPORA: [(&str, usize); 2] = [("CollegeMsg", 5), ("SMS-A", 4)];
/// Set-up samples per run: one before the timed phase, the rest spread
/// through it.
const SETUP_REPS: usize = 10;

pub fn run(ctx: &Ctx, host: &Host, rec: &mut Record) -> Result<(), String> {
    let cfgs = model_sweep_configs();
    let query = Query::Batch { cfgs: cfgs.clone(), engine: EngineKind::Auto, threads: ctx.threads };

    // Set-up: generate the resident graphs and build the derived
    // structures their queries use (SoA columns, window index, static
    // projection). The structures are built directly, not through the
    // process-global caches, so every repetition does the same work; the
    // untimed warm-up job fills the caches for the graphs that stay.
    let unit = || {
        let graphs: Vec<TemporalGraph> = CORPORA
            .iter()
            .enumerate()
            .map(|(i, &(name, copies))| {
                let spec = DatasetSpec::by_name(name).expect("known dataset");
                let g = corpus::replicated_graph(&spec, derive_seed(ctx.seed, i as u64), copies);
                g.columns();
                std::hint::black_box(WindowIndex::build(&g));
                std::hint::black_box(StaticProjection::from_graph(&g));
                g
            })
            .collect();
        Ok(graphs)
    };
    let (setup, graphs) = repeat_setup(1, &unit)?;
    for ((name, copies), g) in CORPORA.iter().zip(&graphs) {
        super::describe_input(&format!("{name}_x{copies}"), g, None);
    }
    // The reference: every config counted solo.
    let reference: Vec<Vec<MotifCounts>> = graphs
        .iter()
        .map(|g| cfgs.iter().map(|c| EngineKind::Auto.count(g, c, ctx.threads)).collect())
        .collect();
    let check = |rec: &mut Record, got: &[MotifCounts], want: &[MotifCounts]| {
        let bad = got.iter().zip(want).position(|(g, w)| !same_counts(g, w));
        rec.check(got.len() == want.len() && bad.is_none(), || match bad {
            Some(i) => mismatch(&format!("batch member {i}"), &got[i], &want[i]),
            None => format!("batch returned {} results for {} configs", got.len(), want.len()),
        });
    };
    let job = |rec: &mut Record| {
        for (g, want) in graphs.iter().zip(&reference) {
            match query.run(g) {
                Ok(tnm_motifs::engine::QueryResponse::Batch(got)) => check(rec, &got, want),
                Ok(_) => rec.check(false, || "batch query answered another shape".into()),
                Err(e) => rec.check(false, || e.to_string()),
            }
        }
    };

    if ctx.trace {
        let mut layer_set = LayerSet::default();
        let mut scratch = Record::default();
        let before = tnm_obs::global().snapshot();
        layers::traced_jobs(
            ctx.seconds,
            &mut layer_set,
            || job(&mut scratch),
            |l| {
                let (mut covered, mut excluded) = (Duration::ZERO, Duration::ZERO);
                for (g, want) in graphs.iter().zip(&reference) {
                    let plan = l.lap("batch.plan_ms", &mut covered, || {
                        BatchPlanner::plan(g, &cfgs, EngineKind::Auto, ctx.threads)
                    });
                    let got = l
                        .lap("batch.exec_ms", &mut covered, || plan.execute(g, &cfgs, ctx.threads));
                    excluded += common::timed(|| check(rec, &got, want)).1;
                }
                layers::Traced { covered, excluded }
            },
        );
        let after = tnm_obs::global().snapshot();
        for name in ["index_cache.hits", "index_cache.misses"] {
            let counter = name.replace("index_cache", "cache.index");
            layer_set.push(name, layers::counter_delta(&before, &after, &counter) as f64);
        }
        rec.attempted += scratch.attempted;
        rec.failed += scratch.failed;
        layers::probe_all(ctx, host, &graphs[0], None, &mut layer_set, rec)?;
        return layers::report(&layer_set, rec);
    }

    super::run_jobs(ctx, rec, setup, SETUP_REPS, || unit().map(drop), job)
}
