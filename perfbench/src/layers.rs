//! The traced run: per-layer times taken from outside the program.
//!
//! Every layer is timed by wrapping the benchmark's own call into that
//! layer's public function; the program itself is not changed. A traced
//! run does three things on the workload's inputs:
//!
//! 1. it alternates untraced jobs with traced jobs — the same work,
//!    split into one timed call per layer, with the metrics registry
//!    on — and reports each layer's median time, the part of the job no
//!    timed layer covers, and the tracing overhead;
//! 2. it probes every remaining layer once on the workload's main graph,
//!    so each traced run reports the whole table below;
//! 3. it prints the table with the end-to-end metric each row should
//!    move.

use crate::common::{self, kovanen_walk, model_sweep_configs, paranjape_shape, timed, DELTA_W};
use crate::daemon::Daemon;
use crate::host::Host;
use crate::report::Record;
use crate::stats::Samples;
use crate::Ctx;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};
use tnm_graph::io::{read_edge_list_file, write_edge_list_file};
use tnm_graph::shard::{plan_shards, ShardGoal};
use tnm_graph::{
    global_index_cache, Event, EventColumns, StaticProjection, TemporalGraph, WindowIndex,
};
use tnm_motifs::engine::{
    auto_select, stream_hotpath, BatchPlanner, DistributedEngine, EngineKind, IncrementalStream,
    Query, ShardedEngine, DEFAULT_SHARD_EVENTS,
};
use tnm_motifs::MotifModel;

/// Every per-layer metric: name, unit, and the end-to-end metric (on
/// which workload) it should move. A traced run reports all of them.
pub const LAYERS: &[(&str, &str, &str)] = &[
    // ingest: graph::io, graph::builder
    ("io.read_ms", "ms", "job_s_p50 @ file_to_counts"),
    ("io.read_mb_per_s", "MB/s", "job_s_p50 @ file_to_counts"),
    ("graph.build_ms", "ms", "job_s_p50 @ file_to_counts; query_ms (rebuild) @ serve_mixed"),
    // derived structures: graph::columns, window_index, index_cache, static_proj
    ("columns.build_ms", "ms", "job_s_p50 @ file_to_counts; query_ms @ serve_mixed"),
    ("window_index.build_ms", "ms", "job_s_p50 @ file_to_counts; query_ms @ serve_mixed"),
    ("static_proj.build_ms", "ms", "job_s_p50 @ file_to_counts; query_ms @ serve_mixed"),
    ("static_proj.triangles", "count", "sizes the triad DP"),
    ("index_cache.hit_ms", "ms", "job_s_p50 @ model_sweep; read_ms_p90 @ serve_mixed"),
    ("index_cache.hits", "count", "job_s_p50 @ model_sweep; read_ms_p90 @ serve_mixed"),
    ("index_cache.misses", "count", "job_s_p50 @ model_sweep; read_ms_p90 @ serve_mixed"),
    // planning: engine::auto_select, engine::batch, graph::shard
    ("auto_select.us", "us", "job_s_p50 @ every workload"),
    ("batch.plan_ms", "ms", "job_s_p50 @ model_sweep"),
    ("batch.groups", "count", "job_s_p50 @ model_sweep"),
    ("batch.configs", "count", "job_s_p50 @ model_sweep"),
    ("shard.plan_ms", "ms", "none: no workload runs shards"),
    ("shard.shards", "count", "none: no workload runs shards"),
    // execution: engine::stream, walker/parallel, sharded, distributed
    ("stream.pair_ms", "ms", "job_s_p50 @ file_to_counts"),
    ("stream.star_ms", "ms", "job_s_p50 @ file_to_counts"),
    ("stream.triad_ms", "ms", "job_s_p50 @ file_to_counts"),
    ("walker.kovanen_ms", "ms", "job_s_p50 @ model_sweep"),
    ("walker.hulovatyy_ms", "ms", "job_s_p50 @ model_sweep"),
    ("walker.paranjape_ms", "ms", "job_s_p50 @ model_sweep"),
    ("batch.exec_ms", "ms", "job_s_p50 @ model_sweep"),
    ("walker.instances_per_scan", "ratio", "job_s_p50 @ model_sweep"),
    ("sharded.count_ms", "ms", "none: no workload runs shards"),
    ("shard.spills", "count", "none: no workload runs shards"),
    ("shard.loads", "count", "none: no workload runs shards"),
    ("distributed.count_ms", "ms", "none: no workload runs shards"),
    ("distributed.workers_lost", "count", "none: no workload runs shards (must be 0)"),
    // serve: engine::serve, graph::wire
    ("serve.load_ms", "ms", "setup_s @ serve_mixed"),
    ("serve.rtt_us", "us", "every metric @ serve_mixed"),
    ("serve.rebuild_ms", "ms", "query_ms_p50 @ serve_mixed"),
    ("incremental.advance_us", "us", "append_ms @ serve_mixed"),
    ("serve.server_query_ms", "ms", "query_ms_p90 @ serve_mixed"),
    // obs, and the remainder of the traced job no layer covers
    ("obs.trace_overhead_pct", "%", "every metric @ this workload"),
    ("job.uncovered_ms", "ms", "job_s_p50 @ this workload"),
    ("job.uncovered_pct", "%", "job_s_p50 @ this workload"),
    // the record's input and host
    ("input.events", "count", "input size"),
    ("input.nodes", "count", "input size"),
    ("input.static_edges", "count", "input size"),
    ("input.file_mb", "MB", "input size"),
    ("host.calib_ms", "ms", "host speed"),
    ("host.nproc", "count", "host cores"),
];

/// Per-layer readings of one traced run, keyed by [`LAYERS`] name.
#[derive(Default)]
pub struct LayerSet(BTreeMap<&'static str, Samples>);

impl LayerSet {
    pub fn has(&self, name: &'static str) -> bool {
        self.0.contains_key(name)
    }

    pub fn push(&mut self, name: &'static str, value: f64) {
        debug_assert!(LAYERS.iter().any(|l| l.0 == name), "{name} is not in LAYERS");
        self.0.entry(name).or_default().push(value);
    }

    /// Times `f` as one sample of layer `name` (in ms).
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let (r, d) = timed(f);
        self.push(name, common::ms(d));
        r
    }

    /// Times `f` as one sample of layer `name` (in ms) and adds the time
    /// to `covered`: one step of a traced job.
    pub fn lap<R>(
        &mut self,
        name: &'static str,
        covered: &mut Duration,
        f: impl FnOnce() -> R,
    ) -> R {
        let (r, d) = timed(f);
        self.push(name, common::ms(d));
        *covered += d;
        r
    }

    /// Times `f` repeatedly as layer `name` unless already measured:
    /// at least once, then again while under `budget` of total time and
    /// five samples. `scale` converts ms to the layer's unit.
    fn probe<R>(
        &mut self,
        name: &'static str,
        scale: f64,
        budget: Duration,
        mut f: impl FnMut() -> R,
    ) {
        if self.has(name) {
            return;
        }
        let start = Instant::now();
        while self.0.get(name).map_or(0, Samples::len) < 5 {
            let (r, d) = timed(&mut f);
            drop(std::hint::black_box(r));
            self.push(name, common::ms(d) * scale);
            if start.elapsed() >= budget {
                break;
            }
        }
    }

    /// Sets a single reading unless already measured.
    fn set(&mut self, name: &'static str, value: f64) {
        if !self.has(name) {
            self.push(name, value);
        }
    }
}

/// What one traced job reports besides its wall time: the time its
/// timed layers cover, and time spent inside the call that is not part
/// of the job (metric reads, checks), which is left out of its wall.
pub struct Traced {
    pub covered: Duration,
    pub excluded: Duration,
}

/// Alternates untraced and traced jobs for about `seconds` (at least
/// three pairs) and records the tracing overhead and each traced job's
/// uncovered remainder.
pub fn traced_jobs(
    seconds: f64,
    layers: &mut LayerSet,
    mut untraced: impl FnMut(),
    mut traced: impl FnMut(&mut LayerSet) -> Traced,
) {
    let (mut plain, mut with) = (Samples::default(), Samples::default());
    let start = Instant::now();
    let mut pair = 0;
    while pair < 3 || start.elapsed().as_secs_f64() < seconds {
        let ((), d) = timed(&mut untraced);
        plain.push(d.as_secs_f64());
        tnm_obs::set_enabled(true);
        let (t, d) = timed(|| traced(layers));
        tnm_obs::set_enabled(false);
        let wall = d.saturating_sub(t.excluded);
        with.push(wall.as_secs_f64());
        let uncovered = wall.saturating_sub(t.covered);
        let pct = 100.0 * uncovered.as_secs_f64() / wall.as_secs_f64();
        println!(
            "trace job {pair}: wall {:.3} ms, layers {:.3} ms, uncovered {:.3} ms ({pct:.2}%)",
            common::ms(wall),
            common::ms(t.covered),
            common::ms(uncovered),
        );
        layers.push("job.uncovered_ms", common::ms(uncovered));
        layers.push("job.uncovered_pct", pct);
        pair += 1;
    }
    let (p, w) = (plain.median().expect("three pairs"), with.median().expect("three pairs"));
    println!(
        "trace overhead: untraced job {:.3} ms, traced job {:.3} ms (n={pair} each)",
        p * 1e3,
        w * 1e3
    );
    layers.push("obs.trace_overhead_pct", 100.0 * (w / p - 1.0));
}

/// Registry counter delta helper: the value of `name` in `after` minus
/// `before`.
pub fn counter_delta(before: &tnm_obs::Snapshot, after: &tnm_obs::Snapshot, name: &str) -> u64 {
    let get = |s: &tnm_obs::Snapshot| s.counters.get(name).copied().unwrap_or(0);
    get(after).saturating_sub(get(before))
}

/// Probes every layer not yet measured on `graph`, whose SNAP text is
/// written to `ctx.work` first unless `file` names it already.
pub fn probe_all(
    ctx: &Ctx,
    host: &Host,
    graph: &TemporalGraph,
    file: Option<&Path>,
    layers: &mut LayerSet,
    rec: &mut Record,
) -> Result<(), String> {
    const BUDGET: Duration = Duration::from_millis(1500);
    let threads = ctx.threads;
    let written;
    let file = match file {
        Some(f) => f,
        None => {
            written = ctx.work.join("probe.txt");
            write_edge_list_file(graph, &written).map_err(|e| e.to_string())?;
            &written
        }
    };
    let file_mb = std::fs::metadata(file).map_err(|e| e.to_string())?.len() as f64 / 1e6;

    // ingest
    layers
        .probe("io.read_ms", 1.0, BUDGET, || read_edge_list_file(file).expect("probe file parses"));
    let read_ms = layers.0["io.read_ms"].median().expect("measured");
    layers.set("io.read_mb_per_s", file_mb / (read_ms / 1e3));
    let events = graph.events().to_vec();
    layers.probe("graph.build_ms", 1.0, BUDGET, || {
        TemporalGraph::from_events(events.clone()).expect("valid events")
    });
    drop(events);

    // derived structures
    layers.probe("columns.build_ms", 1.0, BUDGET, || EventColumns::build(graph.events()));
    layers.probe("window_index.build_ms", 1.0, BUDGET, || WindowIndex::build(graph));
    layers.probe("static_proj.build_ms", 1.0, BUDGET, || StaticProjection::from_graph(graph));
    let proj = StaticProjection::from_graph(graph);
    let mut triangles = 0u64;
    proj.for_each_undirected_triangle(|_| triangles += 1);
    layers.set("static_proj.triangles", triangles as f64);
    global_index_cache().get_or_build(graph);
    layers.probe("index_cache.hit_ms", 1.0, BUDGET, || global_index_cache().get_or_build(graph));

    // planning
    let stream_cfg = paranjape_shape();
    layers.probe("auto_select.us", 1e3, BUDGET, || auto_select(graph, &stream_cfg, threads));
    let sweep = model_sweep_configs();
    let plan = BatchPlanner::plan(graph, &sweep, EngineKind::Auto, threads);
    layers.probe("batch.plan_ms", 1.0, BUDGET, || {
        BatchPlanner::plan(graph, &sweep, EngineKind::Auto, threads)
    });
    layers.set("batch.groups", plan.num_groups() as f64);
    layers.set("batch.configs", sweep.len() as f64);
    let kov = kovanen_walk();
    let reach = kov.admissible_reach(graph);
    let goal = ShardGoal::EventsPerShard(DEFAULT_SHARD_EVENTS);
    layers.probe("shard.plan_ms", 1.0, BUDGET, || plan_shards(graph, reach, goal));
    layers.set("shard.shards", plan_shards(graph, reach, goal).len() as f64);

    // execution
    layers.probe("stream.pair_ms", 1.0, BUDGET, || stream_hotpath::pair_triples(graph, DELTA_W));
    layers.probe("stream.star_ms", 1.0, BUDGET, || stream_hotpath::star_stars(graph, DELTA_W));
    layers.probe("stream.triad_ms", 1.0, BUDGET, || stream_hotpath::triad_triads(graph, DELTA_W));
    let both = tnm_motifs::Timing::from_ratio(DELTA_W, 0.66);
    let delta_c = both.delta_c.expect("ratio below 1 keeps ΔC");
    let walkers: [(&'static str, MotifModel); 3] = [
        ("walker.kovanen_ms", MotifModel::kovanen(delta_c)),
        ("walker.hulovatyy_ms", MotifModel::hulovatyy(delta_c)),
        ("walker.paranjape_ms", MotifModel::paranjape(DELTA_W)),
    ];
    tnm_obs::set_enabled(true);
    let before = tnm_obs::global().snapshot();
    for (name, model) in &walkers {
        let cfg = tnm_motifs::EnumConfig::for_model(model, 3, 3).with_timing(both);
        layers.probe(name, 1.0, BUDGET, || EngineKind::Auto.count(graph, &cfg, threads));
    }
    let after = tnm_obs::global().snapshot();
    tnm_obs::set_enabled(false);
    let scanned = counter_delta(&before, &after, "engine.events_scanned");
    let emitted = counter_delta(&before, &after, "engine.instances_emitted");
    layers.set("walker.instances_per_scan", emitted as f64 / scanned.max(1) as f64);
    for name in ["index_cache.hits", "index_cache.misses"] {
        let counter = name.replace("index_cache", "cache.index");
        layers.set(name, counter_delta(&before, &after, &counter) as f64);
    }
    layers.probe("batch.exec_ms", 1.0, BUDGET, || plan.execute(graph, &sweep, threads));
    if !layers.has("sharded.count_ms") {
        tnm_obs::set_enabled(true);
        let before = tnm_obs::global().snapshot();
        let engine =
            ShardedEngine::new(DEFAULT_SHARD_EVENTS).with_threads(threads).with_max_resident(1);
        layers.time("sharded.count_ms", || engine.count_with_stats(graph, &kov));
        let after = tnm_obs::global().snapshot();
        tnm_obs::set_enabled(false);
        layers.set("shard.spills", counter_delta(&before, &after, "shard.spills") as f64);
        layers.set("shard.loads", counter_delta(&before, &after, "shard.loads") as f64);
    }
    if !layers.has("distributed.count_ms") {
        tnm_obs::set_enabled(true);
        let before = tnm_obs::global().snapshot();
        let engine = DistributedEngine::new(2)
            .with_shard_events(DEFAULT_SHARD_EVENTS)
            .with_worker_threads((threads / 2).max(1))
            .with_worker_bin(&ctx.tnm);
        layers.time("distributed.count_ms", || engine.count_with_stats(graph, &kov));
        let after = tnm_obs::global().snapshot();
        tnm_obs::set_enabled(false);
        layers.set(
            "distributed.workers_lost",
            counter_delta(&before, &after, "distributed.workers_lost") as f64,
        );
    }

    // serve
    probe_serve(ctx, graph, layers)?;

    // input and host
    layers.set("input.events", graph.num_events() as f64);
    layers.set("input.nodes", f64::from(graph.num_nodes()));
    layers.set("input.static_edges", graph.num_static_edges() as f64);
    layers.set("input.file_mb", file_mb);
    layers.set("host.calib_ms", host.calib_ms);
    layers.set("host.nproc", host.nproc as f64);

    let lost = layers.0["distributed.workers_lost"].median().unwrap_or(0.0);
    rec.check(lost == 0.0, || format!("{lost} distributed workers lost"));
    Ok(())
}

/// The serve layer against a daemon of its own: load time, Stats round
/// trip, the rebuild an append forces on the next query, the
/// incremental advance, and the daemon-side query time.
fn probe_serve(ctx: &Ctx, graph: &TemporalGraph, layers: &mut LayerSet) -> Result<(), String> {
    let cfg = paranjape_shape();
    let count = Query::Count { cfg: cfg.clone(), engine: EngineKind::Auto, threads: 1 };
    let events = graph.events();
    // Appended batches: the graph's first 512 events, shifted past its
    // end by a day per batch.
    let period = graph.timespan() + 86_400;
    let first = graph.first_time().unwrap_or(0);
    let batch = |k: i64| -> Vec<Event> {
        events[..events.len().min(512)]
            .iter()
            .map(|e| Event {
                time: e.time - first + k * period + graph.last_time().unwrap_or(0),
                ..*e
            })
            .collect()
    };

    if !layers.has("incremental.advance_us") {
        let mut inc = IncrementalStream::new(graph, &cfg)?;
        for k in 1..=20 {
            let b = batch(k);
            let ((), d) = timed(|| inc.append(&b).expect("time-ordered batch"));
            layers.push("incremental.advance_us", d.as_secs_f64() * 1e6);
        }
    }

    let daemon = Daemon::start(&ctx.tnm)?;
    let mut client = daemon.client()?;
    let cerr = |e: tnm_motifs::engine::ClientError| e.to_string();
    layers
        .time("serve.load_ms", || client.load_graph("probe", events, graph.num_nodes()))
        .map_err(cerr)?;
    for _ in 0..50 {
        let (r, d) = timed(|| client.stats());
        r.map_err(cerr)?;
        layers.push("serve.rtt_us", d.as_secs_f64() * 1e6);
    }
    client.query("probe", &count).map_err(cerr)?;
    let start = Instant::now();
    for k in 1..=5 {
        client.append_events("probe", &batch(k)).map_err(cerr)?;
        let (r, cold) = timed(|| client.query("probe", &count));
        r.map_err(cerr)?;
        let (r, warm) = timed(|| client.query("probe", &count));
        r.map_err(cerr)?;
        layers.push("serve.rebuild_ms", common::ms(cold) - common::ms(warm));
        if k >= 2 && start.elapsed() > Duration::from_secs(5) {
            break;
        }
    }
    let metrics = client.metrics().map_err(cerr)?;
    if let Some(h) = metrics.histograms.get("serve.query.count_ns") {
        layers.set("serve.server_query_ms", h.sum as f64 / h.count.max(1) as f64 / 1e6);
    }
    daemon.stop(client)?;
    Ok(())
}

/// Adds every [`LAYERS`] metric to the record, each noted with the
/// end-to-end metric it should move.
pub fn report(layers: &LayerSet, rec: &mut Record) -> Result<(), String> {
    for &(name, unit, moves) in LAYERS {
        let s =
            layers.0.get(name).ok_or_else(|| format!("layer metric {name} was not measured"))?;
        let value = s.median().expect("non-empty samples");
        rec.metric_with_note(name, value, unit, s.len(), moves);
    }
    Ok(())
}
