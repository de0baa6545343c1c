//! `serve_mixed`: writes beside reads against a `tnm serve` daemon.
//!
//! A closed loop over two client connections (one per core), each
//! running a fixed script. Connection A alternates 512-event appends to
//! a live graph that carries one Paranjape-shape subscription with
//! ad-hoc Count queries on it (thread budget 1); connection B sends the
//! same query, back to back, to a second graph that is never modified
//! (the warm-cache path) until A's script ends. It exercises the wire
//! codec, the incremental advance, the rebuild every append forces on
//! the next query, and the caches' mutexes under concurrency; ingest and
//! batch are bypassed.
//!
//! A job is one step of A's script: an append, then a query. A's script
//! length is fixed by `--seconds` alone, so every run appends the same
//! events and queries graphs of the same sizes, however fast it goes.

use crate::common::{self, mismatch, paranjape_shape, repeat_setup, same_counts, timed};
use crate::corpus::{self, derive_seed};
use crate::daemon::Daemon;
use crate::host::Host;
use crate::layers::{self, LayerSet};
use crate::report::Record;
use crate::stats::Samples;
use crate::Ctx;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};
use tnm_datasets::{generate, DatasetSpec};
use tnm_graph::{Event, TemporalGraph};
use tnm_motifs::engine::{EngineKind, Query, ServeClient, StreamEngine};
use tnm_motifs::{CountEngine, MotifCounts};

/// Events per append batch.
const BATCH: usize = 512;
/// Copies of the base graph the live graph starts with (4·10⁴ events).
const LIVE_COPIES: usize = 2;
/// Copies in the never-modified graph (6·10⁴ events).
const STATIC_COPIES: usize = 3;
/// A's script: steps per second of `--seconds`. A fixed constant, not a
/// measurement, so the script does not depend on the speed of the code.
const STEPS_PER_SECOND: f64 = 14.0;
/// Set-up samples per run: half before A's script, half after it, so
/// they span the same stretch of time as the script.
const SETUP_REPS: usize = 10;

/// Expected live counts after each step, from from-scratch
/// `StreamEngine` recounts. The live graph is whole copies of one base
/// graph plus a prefix of the next; no ΔW window spans two copies, so
/// its counts are (whole copies) × (one copy's counts) plus the
/// prefix's counts. Each distinct prefix is recounted once.
struct LiveReference {
    base: TemporalGraph,
    one_copy: MotifCounts,
    prefixes: HashMap<usize, MotifCounts>,
}

impl LiveReference {
    fn new(base: TemporalGraph) -> LiveReference {
        let one_copy = StreamEngine.count(&base, &paranjape_shape());
        LiveReference { base, one_copy, prefixes: HashMap::new() }
    }

    /// Counts of the live graph after `steps` appended batches.
    fn at(&mut self, steps: usize) -> MotifCounts {
        let appended = steps * BATCH;
        let per_copy = self.base.num_events();
        let (whole, rest) = (LIVE_COPIES + appended / per_copy, appended % per_copy);
        let base = &self.base;
        let prefix = self.prefixes.entry(rest).or_insert_with(|| {
            let events = base.events()[..rest].to_vec();
            let g = TemporalGraph::from_sorted_events(events, base.num_nodes());
            StreamEngine.count(&g, &paranjape_shape())
        });
        let mut counts = MotifCounts::new();
        for (sig, n) in self.one_copy.iter() {
            counts.add(sig, n * whole as u64);
        }
        counts.merge(prefix);
        counts
    }
}

struct Session {
    daemon: Daemon,
    a: ServeClient,
}

pub fn run(ctx: &Ctx, host: &Host, rec: &mut Record) -> Result<(), String> {
    let steps = ((ctx.seconds * STEPS_PER_SECOND).round() as usize).max(10);
    let cfg = paranjape_shape();
    let query = Query::Count { cfg: cfg.clone(), engine: EngineKind::Auto, threads: 1 };
    let cerr = |e: tnm_motifs::engine::ClientError| e.to_string();

    let base = generate(&DatasetSpec::college_msg(), ctx.seed);
    let live_base = corpus::replicate(&base, 0, LIVE_COPIES * base.num_events());
    let appended =
        corpus::replicate(&base, live_base.len(), live_base.len() + (3 * steps + 64) * BATCH);
    let static_graph = corpus::replicated_graph(
        &DatasetSpec::college_msg(),
        derive_seed(ctx.seed, 1),
        STATIC_COPIES,
    );
    let live_graph = TemporalGraph::from_events(live_base.clone()).expect("valid events");
    super::describe_input("live_collegemsg_x2", &live_graph, None);
    super::describe_input("static_collegemsg_x3", &static_graph, None);

    // Set-up: start the daemon, load both graphs, subscribe, and answer
    // one query on each. Earlier repetitions' daemons are killed.
    let num_nodes = base.num_nodes();
    let unit = || {
        let daemon = Daemon::start(&ctx.tnm)?;
        let mut a = daemon.client()?;
        a.load_graph("live", &live_base, num_nodes).map_err(cerr)?;
        a.load_graph("static", static_graph.events(), static_graph.num_nodes()).map_err(cerr)?;
        a.subscribe("live", &cfg).map_err(cerr)?;
        a.query("live", &query).map_err(cerr)?;
        a.query("static", &query).map_err(cerr)?;
        Ok(Session { daemon, a })
    };
    let before = if ctx.trace { 1 } else { SETUP_REPS / 2 };
    let (mut setup, session) = repeat_setup(before, &unit)?;

    // References: the never-modified graph through a second exact
    // engine, and the live graph per step through stream recounts.
    let static_ref = EngineKind::Windowed.count(&static_graph, &cfg, 1);
    let mut live_ref = LiveReference::new(base);
    if !same_counts(&live_ref.at(0), &StreamEngine.count(&live_graph, &cfg)) {
        return Err("live reference does not add up over copies".into());
    }
    // A traced run steps for about as long as the script but at its own
    // pace, so it gets references for every prepared batch.
    let prepared = if ctx.trace { appended.len() / BATCH } else { steps };
    let expected: Vec<MotifCounts> = (0..=prepared).map(|k| live_ref.at(k)).collect();

    let Session { daemon, mut a } = session;
    if ctx.trace {
        let result = traced(ctx, host, &mut a, &appended, &query, &expected, &static_graph, rec);
        daemon.stop(a)?;
        return result;
    }
    let result =
        timed_phase(&mut a, &daemon, &appended, &query, &expected, &static_ref, steps, rec);
    daemon.stop(a)?;
    let (jobs, ops, elapsed, rss) = result?;
    for _ in before..SETUP_REPS {
        let (session, d) = timed(unit);
        let Session { daemon, a } = session?;
        setup.push(d.as_secs_f64());
        daemon.stop(a)?;
    }
    super::report_end_to_end(rec, &setup, &jobs, ops, elapsed, rss);
    Ok(())
}

#[allow(clippy::too_many_arguments)]
fn timed_phase(
    a: &mut ServeClient,
    daemon: &Daemon,
    appended: &[Event],
    query: &Query,
    expected: &[MotifCounts],
    static_ref: &MotifCounts,
    steps: usize,
    rec: &mut Record,
) -> Result<(Samples, usize, f64, f64), String> {
    let mut b = daemon.client()?;
    let a_done = AtomicBool::new(false);
    let (mut appends, mut queries, mut jobs, mut reads) =
        (Samples::default(), Samples::default(), Samples::default(), Samples::default());
    let mut b_rec = Record::default();
    let start = Instant::now();
    std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            while !a_done.load(Ordering::Acquire) {
                let (r, d) = timed(|| b.query("static", query));
                reads.push(common::ms(d));
                match r {
                    Ok(resp) => {
                        let c = resp.counts();
                        b_rec.check(same_counts(&c, static_ref), || {
                            mismatch("static read", &c, static_ref)
                        });
                    }
                    Err(e) => b_rec.check(false, || e.to_string()),
                }
            }
        });
        for k in 1..=steps {
            let batch = &appended[(k - 1) * BATCH..k * BATCH];
            let want = &expected[k];
            let (ack, d_append) = timed(|| a.append_events("live", batch));
            let (reply, d_query) = timed(|| a.query("live", query));
            appends.push(common::ms(d_append));
            queries.push(common::ms(d_query));
            check_step(rec, ack, reply, want);
            jobs.push((d_append + d_query).as_secs_f64());
        }
        a_done.store(true, Ordering::Release);
        reader.join().expect("reader thread panicked");
    });
    let elapsed = start.elapsed().as_secs_f64();
    rec.attempted += b_rec.attempted;
    rec.failed += b_rec.failed;
    println!("# script: {steps} steps on connection A, {} reads on connection B", reads.len());
    for (name, s) in [("query_ms", &queries), ("read_ms", &reads), ("append_ms", &appends)] {
        let p90 = s.p90().map_or_else(|| "-".to_string(), |v| format!("{v:.4}"));
        println!(
            "latency {name}: p50 {:.4} ms, p90 {p90} ms (n={})",
            s.median().expect("samples"),
            s.len()
        );
    }
    let ops = appends.len() + queries.len() + reads.len();
    let rss = daemon.peak_rss_mb().ok_or("cannot read the daemon's VmHWM")?;
    Ok((jobs, ops, elapsed, rss))
}

/// Traced steps: the append's subscription advance comes from the
/// daemon's `serve.subscription_advance_ns` histogram, the query's
/// server time from the span tree of a traced query; the rest of the
/// step (wire, queueing, the rebuild before the query) is uncovered.
#[allow(clippy::too_many_arguments)]
fn traced(
    ctx: &Ctx,
    host: &Host,
    a: &mut ServeClient,
    appended: &[Event],
    query: &Query,
    expected: &[MotifCounts],
    static_graph: &TemporalGraph,
    rec: &mut Record,
) -> Result<(), String> {
    let mut layer_set = LayerSet::default();
    let step = std::cell::Cell::new(0usize);
    let next = || {
        let k = step.get() + 1;
        step.set(k);
        assert!(k * BATCH <= appended.len(), "traced run outgrew its appended events");
        (&appended[(k - 1) * BATCH..k * BATCH], &expected[k])
    };
    let a = std::cell::RefCell::new(a);
    let mut scratch = Record::default();
    layers::traced_jobs(
        ctx.seconds,
        &mut layer_set,
        || {
            let (batch, want) = next();
            let mut a = a.borrow_mut();
            check_step(&mut scratch, a.append_events("live", batch), a.query("live", query), want);
        },
        |l| {
            let (batch, want) = next();
            let mut a = a.borrow_mut();
            let (before, d_before) = timed(|| a.metrics().map(|m| advance_ns(&m)));
            let ack = a.append_events("live", batch);
            let reply = a.query_traced("live", query);
            let (after, d_after) = timed(|| a.metrics().map(|m| advance_ns(&m)));
            let advance = match (before, after) {
                (Ok(b), Ok(a)) => Duration::from_nanos(a.saturating_sub(b)),
                _ => Duration::ZERO,
            };
            l.push("incremental.advance_us", advance.as_secs_f64() * 1e6);
            let server = match &reply {
                Ok((_, trace)) => {
                    let root =
                        trace.spans.iter().filter(|s| s.name == "serve.query").map(|s| s.dur_ns);
                    Duration::from_nanos(root.max().unwrap_or(0))
                }
                Err(_) => Duration::ZERO,
            };
            l.push("serve.server_query_ms", common::ms(server));
            let ((), d_check) = timed(|| check_step(rec, ack, reply.map(|(r, _)| r), want));
            layers::Traced { covered: advance + server, excluded: d_before + d_after + d_check }
        },
    );
    rec.attempted += scratch.attempted;
    rec.failed += scratch.failed;
    layers::probe_all(ctx, host, static_graph, None, &mut layer_set, rec)?;
    layers::report(&layer_set, rec)
}

/// Checks one append's subscription counts and the query after it
/// against the step's expected counts: one op each.
fn check_step(
    rec: &mut Record,
    ack: Result<tnm_motifs::engine::AppendAck, tnm_motifs::engine::ClientError>,
    reply: Result<tnm_motifs::engine::QueryResponse, tnm_motifs::engine::ClientError>,
    want: &MotifCounts,
) {
    match ack {
        Ok(ack) => {
            let live = ack.subscriptions.first().map(|(_, c)| c.clone()).unwrap_or_default();
            rec.check(same_counts(&live, want), || mismatch("subscription", &live, want));
        }
        Err(e) => rec.check(false, || e.to_string()),
    }
    match reply {
        Ok(resp) => {
            let c = resp.counts();
            rec.check(same_counts(&c, want), || mismatch("live query", &c, want));
        }
        Err(e) => rec.check(false, || e.to_string()),
    }
}

fn advance_ns(m: &tnm_obs::Snapshot) -> u64 {
    m.histograms.get("serve.subscription_advance_ns").map_or(0, |h| h.sum)
}
