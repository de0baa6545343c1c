//! [`ParallelEngine`] — work-stealing parallel counting.
//!
//! The seed repo's parallel path split start events into `threads` static
//! chunks and merged results through a `Mutex`. Static chunking is a poor
//! fit for motif counting: work per start event is wildly skewed (a burst
//! of activity around one timestamp can cost orders of magnitude more
//! than a quiet region), so one unlucky worker becomes the critical path.
//!
//! This executor replaces both decisions:
//!
//! * **Work stealing via an atomic cursor** — start events live behind a
//!   single `AtomicUsize`; each worker claims the next
//!   [`ParallelConfig::steal_chunk`] start events with `fetch_add` and
//!   returns for more when done. Fast workers automatically absorb the
//!   skew; there is no partitioning decision to get wrong.
//! * **Lock-free merge at join** — each worker counts into a private
//!   [`MotifCounts`] and *returns it from the scoped thread*; the spawning
//!   thread merges the locals after `join`, so no lock is ever contended
//!   (the old design serialized every worker's full-table merge behind a
//!   `Mutex` while peers were still counting).
//!
//! Candidate generation inside each worker uses the windowed index by
//! default (fetched once from the
//! [global index cache](tnm_graph::index_cache::global_index_cache) and
//! shared by reference across workers) or the plain node index when
//! constructed via [`ParallelEngine::over_backtrack`].

use crate::count::MotifCounts;
use crate::engine::config::{EnumConfig, MotifInstance};
use crate::engine::walker::{CandidateSource, NodeListCandidates, Walker, WindowedCandidates};
use crate::engine::{BacktrackEngine, CountEngine, EngineCaps, WindowedEngine};
use std::sync::atomic::{AtomicUsize, Ordering};
use tnm_graph::index_cache::global_index_cache;
use tnm_graph::TemporalGraph;

/// Tuning knobs of the work-stealing executor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParallelConfig {
    /// Worker count. Clamped to at least 1; 1 degenerates to serial.
    pub threads: usize,
    /// Below this many events the **auto** engine
    /// ([`EngineKind::Auto`](crate::engine::EngineKind)) prefers a serial
    /// engine — thread spawn/merge overhead dominates tiny graphs. An
    /// explicitly constructed `ParallelEngine` ignores it and honors
    /// `threads` as asked.
    pub serial_fallback_events: usize,
    /// Start events claimed per `fetch_add`. Larger chunks amortise the
    /// atomic; smaller chunks balance better. The default suits start
    /// events whose cost varies by orders of magnitude.
    pub steal_chunk: usize,
}

/// Default for [`ParallelConfig::serial_fallback_events`] (the seed
/// repo's hardcoded `m < 1024` check, now named and overridable).
pub const SERIAL_FALLBACK_EVENTS: usize = 1024;

/// Default for [`ParallelConfig::steal_chunk`].
pub const DEFAULT_STEAL_CHUNK: usize = 64;

impl ParallelConfig {
    /// Standard configuration for `threads` workers.
    pub const fn new(threads: usize) -> Self {
        ParallelConfig {
            threads: if threads == 0 { 1 } else { threads },
            serial_fallback_events: SERIAL_FALLBACK_EVENTS,
            steal_chunk: DEFAULT_STEAL_CHUNK,
        }
    }
}

impl Default for ParallelConfig {
    fn default() -> Self {
        Self::new(std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4))
    }
}

/// Which candidate source the workers use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Inner {
    Windowed,
    Backtrack,
}

/// Work-stealing parallel counting engine.
#[derive(Debug, Clone, Copy)]
pub struct ParallelEngine {
    config: ParallelConfig,
    inner: Inner,
}

impl ParallelEngine {
    /// Work-stealing workers over the windowed candidate index.
    pub fn new(threads: usize) -> Self {
        ParallelEngine { config: ParallelConfig::new(threads), inner: Inner::Windowed }
    }

    /// Work-stealing workers over the plain node index (for apples-to-
    /// apples scheduler benchmarks against [`BacktrackEngine`]).
    pub fn over_backtrack(threads: usize) -> Self {
        ParallelEngine { config: ParallelConfig::new(threads), inner: Inner::Backtrack }
    }

    /// Overrides the executor tuning.
    pub fn with_config(mut self, config: ParallelConfig) -> Self {
        self.config = ParallelConfig { threads: config.threads.max(1), ..config };
        self
    }

    /// The executor configuration.
    pub fn config(&self) -> &ParallelConfig {
        &self.config
    }

    /// Runs the work-stealing loop with a per-worker `CandidateSource`
    /// factory, merging the per-worker local counts after join.
    fn run<C, M>(&self, graph: &TemporalGraph, cfg: &EnumConfig, make_source: M) -> MotifCounts
    where
        C: CandidateSource + Send,
        M: Fn() -> C + Sync,
    {
        // Build the SoA time column before the fan-out so no worker
        // stalls on its first window probe while another initializes it.
        let _ = graph.columns();
        work_steal_count(
            graph,
            cfg,
            0..graph.num_events(),
            self.config.threads,
            self.config.steal_chunk,
            make_source,
            |local, inst| local.add(inst.signature, 1),
        )
    }
}

/// The generic work-stealing executor: `threads` workers claim
/// `chunk`-sized index ranges of `0..len` through an atomic cursor,
/// each folding its claims into a private per-worker accumulator built
/// by `make_acc` (which typically bundles reusable scratch — a
/// [`Walker`], an RNG-free sampling state — with the results). The
/// per-worker accumulators are returned **in spawn order** after join,
/// so callers that need deterministic merges (the sampling engine's
/// seeded confidence intervals) can reduce them — or per-item results
/// stored inside them — in a fixed order regardless of how the work was
/// actually interleaved.
pub(crate) fn work_steal_map<A, MS, W>(
    len: usize,
    threads: usize,
    chunk: usize,
    make_acc: MS,
    work: W,
) -> Vec<A>
where
    A: Send,
    MS: Fn() -> A + Sync,
    W: Fn(&mut A, std::ops::Range<usize>) + Sync,
{
    let threads = threads.max(1).min(len.max(1));
    let chunk = chunk.max(1);
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|worker| {
                let cursor = &cursor;
                let make_acc = &make_acc;
                let work = &work;
                scope.spawn(move || {
                    let _span = tnm_obs::span!("walk.worker", worker = worker);
                    let mut acc = make_acc();
                    loop {
                        let lo = cursor.fetch_add(chunk, Ordering::Relaxed);
                        if lo >= len {
                            break;
                        }
                        work(&mut acc, lo..(lo + chunk).min(len));
                    }
                    acc
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("worker panicked")).collect()
    })
}

/// The counting instantiation of [`work_steal_map`], decoupled from
/// [`ParallelEngine`] so the sharded engine can drive it **within a
/// shard**: workers claim slices of `starts`, walk them with a
/// per-worker [`Walker`] over `make_source`'s candidate source, fold
/// each instance into a per-worker local table via `tally`, and the
/// locals merge lock-free after join (u64 additions commute, so the
/// merge order never affects the result).
pub(crate) fn work_steal_count<C, M, T>(
    graph: &TemporalGraph,
    cfg: &EnumConfig,
    starts: std::ops::Range<usize>,
    threads: usize,
    chunk: usize,
    make_source: M,
    tally: T,
) -> MotifCounts
where
    C: CandidateSource + Send,
    M: Fn() -> C + Sync,
    T: Fn(&mut MotifCounts, &MotifInstance<'_>) + Sync,
{
    let base = starts.start;
    let len = starts.len();
    let locals = work_steal_map(
        len,
        threads,
        chunk,
        || (MotifCounts::new(), Walker::new(graph, cfg, make_source())),
        |state, claimed| {
            let (local, walker) = state;
            walker.run_range(base + claimed.start..base + claimed.end, |inst| tally(local, inst));
        },
    );
    let mut merged = MotifCounts::new();
    for (local, _walker) in &locals {
        merged.merge(local);
    }
    merged
}

impl CountEngine for ParallelEngine {
    fn name(&self) -> &'static str {
        match self.inner {
            Inner::Windowed => "parallel",
            Inner::Backtrack => "parallel-backtrack",
        }
    }

    fn capabilities(&self) -> EngineCaps {
        EngineCaps {
            parallel: true,
            windowed_pruning: self.inner == Inner::Windowed,
            // Counting is deterministic; *enumeration order* under a
            // callback falls back to the serial engine (see `enumerate`).
            deterministic_enumeration: true,
            supports_signature_filter: true,
        }
    }

    fn count(&self, graph: &TemporalGraph, cfg: &EnumConfig) -> MotifCounts {
        if self.config.threads <= 1 {
            // One worker: skip the executor, not the semantics.
            return match self.inner {
                Inner::Windowed => WindowedEngine.count(graph, cfg),
                Inner::Backtrack => BacktrackEngine.count(graph, cfg),
            };
        }
        match self.inner {
            Inner::Windowed => {
                let index = global_index_cache().get_or_build(graph);
                self.run(graph, cfg, || WindowedCandidates::new(&index))
            }
            Inner::Backtrack => self.run(graph, cfg, || NodeListCandidates),
        }
    }

    /// Enumeration hands instances to a `&mut dyn FnMut` callback, which
    /// cannot be shared across workers; it therefore delegates to the
    /// matching serial engine so callers get the deterministic
    /// start-event order the serial engines guarantee.
    fn enumerate(
        &self,
        graph: &TemporalGraph,
        cfg: &EnumConfig,
        callback: &mut dyn FnMut(&MotifInstance<'_>),
    ) {
        match self.inner {
            Inner::Windowed => WindowedEngine.enumerate(graph, cfg, callback),
            Inner::Backtrack => BacktrackEngine.enumerate(graph, cfg, callback),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_order_under_the_work_stealing_executor() {
        let _guard = tnm_obs::test_guard();
        tnm_obs::set_enabled(true);
        tnm_obs::drain_spans();
        let processed: Vec<usize> =
            work_steal_map(97, 4, 8, Vec::new, |acc: &mut Vec<usize>, r| {
                let _chunk = tnm_obs::span!("test.chunk", lo = r.start);
                acc.extend(r);
            })
            .into_iter()
            .flatten()
            .collect();
        let spans = tnm_obs::drain_spans();
        tnm_obs::set_enabled(false);
        // Every index processed exactly once regardless of interleaving.
        let mut sorted = processed;
        sorted.sort_unstable();
        assert_eq!(sorted, (0..97).collect::<Vec<_>>());
        let workers: Vec<_> = spans.iter().filter(|s| s.name == "walk.worker").collect();
        let chunks: Vec<_> = spans.iter().filter(|s| s.name == "test.chunk").collect();
        assert_eq!(workers.len(), 4, "one span per spawned worker");
        assert_eq!(chunks.len(), 13, "97 indices in chunks of 8 → 13 claims");
        for c in &chunks {
            // Each chunk span nests inside its thread's worker span:
            // same tid, one level deeper, interval contained.
            let parent =
                workers.iter().find(|w| w.tid == c.tid).expect("chunk ran on a worker thread");
            assert_eq!(c.depth, parent.depth + 1);
            assert!(c.start_ns >= parent.start_ns);
            assert!(c.start_ns + c.dur_ns <= parent.start_ns + parent.dur_ns);
        }
        // Worker threads are distinct, and chunk spans within one
        // thread are disjoint and time-ordered.
        let mut tids: Vec<_> = workers.iter().map(|w| w.tid).collect();
        tids.sort_unstable();
        tids.dedup();
        assert_eq!(tids.len(), 4);
        for w in &workers {
            let mut mine: Vec<_> = chunks.iter().filter(|c| c.tid == w.tid).collect();
            mine.sort_by_key(|c| c.start_ns);
            for pair in mine.windows(2) {
                assert!(pair[0].start_ns + pair[0].dur_ns <= pair[1].start_ns);
            }
        }
    }
}
