//! Star and wedge counting: per-center streaming over incident events.
//!
//! A 3-node star motif has a center `C` and two distinct leaves; all
//! three events run between the center and a leaf. Counting them without
//! enumeration follows Paranjape et al.'s decomposition by the position
//! of the *lone* event (the one on the minority leaf):
//!
//! * **pre** — the same-leaf pair comes first (`lone` is event 3):
//!   `E12 − E123`,
//! * **post** — the same-leaf pair comes last (`lone` is event 1):
//!   `E23 − E123`,
//! * **peri** — the pair straddles the lone event (`lone` is event 2):
//!   `E13 − E123`,
//!
//! where `E12`/`E23`/`E13` count strictly-ordered in-window event
//! triples incident to the center whose named positions share a leaf
//! (the third position unconstrained) and `E123` counts the all-one-leaf
//! triples. The subtraction removes exactly the 2-node sequences, which
//! the [`pair`](super::pair) class counts instead; triples with three
//! distinct leaves (4-node motifs) never enter any `E` table, and a
//! triangle's third edge is not incident to the center at all — so the
//! classes stay disjoint.
//!
//! `E12` falls out of a past-window sweep (same-leaf pair counts before
//! each event), `E23` of a future-window sweep, and the coupled `E13` of
//! a prefix identity: the same-leaf δ-pairs straddling time `t` are
//! those *started* before `t` minus those *finished* by `t`, both of
//! which are running sums over the per-event pair counts (`pstart`,
//! `pend`) the two sweeps already produced. Everything is `O(events at
//! the center)` per center with `O(nodes)` reusable scratch.
//!
//! Data layout (see [`super::arena`]): the center's incident list lives
//! in the arena's SoA scratch — dense `times` plus `aux` packing
//! `nbr << 1 | dir` — with the timestamp-group boundary array computed
//! **once** per center and shared by all three sweeps; tie-free logs
//! never build it at all, sweeping per-event through the identity
//! [`DenseGroups`] map instead. The straddle
//! tables are flat bit-indexed `[u64; K]` accumulators (`(d1 << 2) |
//! (d2 << 1) | d3` for triples), merged into per-lone-position totals
//! once per center, so every table update is an unconditional indexed
//! add.

use super::arena::{expiry_cut, DenseGroups, DpArena, GroupMap, SealedGroups};
use super::{fan_out, star_signature, SweepStats};
use crate::count::MotifCounts;
use tnm_graph::{NodeId, TemporalGraph, Time};

/// Per-direction triple counts, indexed `(d1 << 2) | (d2 << 1) | d3`.
type Triples = [u64; 8];

/// Reusable per-center tables; neighbor-indexed scratch is sized once
/// to the graph's node count and wiped via the center's own event list.
struct CenterScratch {
    /// In-window events per `(neighbor << 1) | dir`.
    cnt_nbr: Vec<u64>,
    /// In-window same-leaf ordered pairs per `nbr * 4 + ((d1 << 1) | d2)`.
    per_nbr_pair: Vec<u64>,
    /// Same-leaf δ-pairs ending at each event (`[d1]` of the earlier).
    pend: Vec<[u64; 2]>,
    /// Same-leaf δ-pairs starting at each event (`[d3]` of the later).
    pstart: Vec<[u64; 2]>,
}

impl CenterScratch {
    fn new(num_nodes: usize) -> Self {
        CenterScratch {
            cnt_nbr: vec![0; num_nodes * 2],
            per_nbr_pair: vec![0; num_nodes * 4],
            pend: Vec::new(),
            pstart: Vec::new(),
        }
    }

    /// Zeroes the neighbor-indexed tables touched by this center.
    fn wipe_nbr_tables(&mut self, aux: &[u32]) {
        for &a in aux {
            let nbr = (a >> 1) as usize;
            self.cnt_nbr[nbr * 2] = 0;
            self.cnt_nbr[nbr * 2 + 1] = 0;
            self.per_nbr_pair[nbr * 4..nbr * 4 + 4].fill(0);
        }
    }
}

/// Unpacks an `aux` entry into `(nbr_base2, nbr_base4, dir)` — the two
/// table base offsets plus the direction bit.
#[inline]
fn unpack(a: u32) -> (usize, usize, usize) {
    let nbr = (a >> 1) as usize;
    (nbr * 2, nbr * 4, (a & 1) as usize)
}

/// Loads the center's incident events into the arena (already
/// time-ordered: the node index stores event indices in global time
/// order), reading endpoints from the dense SoA columns. Callers seal
/// the group boundaries only when the log has timestamp ties; tie-free
/// centers sweep with the identity [`DenseGroups`] map instead.
fn load(graph: &TemporalGraph, center: NodeId, arena: &mut DpArena) {
    arena.clear();
    let cols = graph.columns();
    let (times, srcs, dsts) = (cols.times(), cols.srcs(), cols.dsts());
    let list = graph.node_events(center);
    arena.times.reserve(list.len());
    arena.aux.reserve(list.len());
    for &idx in list {
        let i = idx as usize;
        let (nbr, dir) = if srcs[i] == center.0 { (dsts[i], 0u32) } else { (srcs[i], 1u32) };
        arena.times.push(times[i]);
        arena.aux.push((nbr << 1) | dir);
    }
}

/// Runs the three sweeps of one center under the given group map.
fn center_sweeps<B: GroupMap>(
    scratch: &mut CenterScratch,
    arena: &DpArena,
    delta: Time,
    groups: &B,
) -> (Triples, Triples, Triples, Triples) {
    let (e12, e123) = forward_sweep(scratch, arena, delta, groups);
    let e23 = future_sweep(scratch, arena, delta, groups);
    let e13 = straddle_sweep(scratch, arena, groups);
    (e12, e123, e23, e13)
}

/// Centers claimed per work-stealing step.
const CENTER_CHUNK: usize = 4;

/// One worker's state: its arena, its per-center scratch, its
/// accumulator `A` and its tallies.
struct CenterWorker<A> {
    arena: DpArena,
    scratch: CenterScratch,
    acc: A,
    stats: SweepStats,
}

/// Fans the centers with at least `min_events` incident events out over
/// `threads` workers, calling `sweep` once per loaded center (the
/// arena's group boundaries sealed iff the log has timestamp ties), and
/// returns the workers. Parallel runs claim centers highest degree
/// first, so the heaviest sweeps start early and the tail balances.
fn for_each_center<A, F>(
    graph: &TemporalGraph,
    threads: usize,
    min_events: usize,
    sweep: F,
) -> Vec<CenterWorker<A>>
where
    A: Default + Send,
    F: Fn(&mut CenterScratch, &DpArena, bool, &mut A) + Sync,
{
    let n = graph.num_nodes();
    let tie_free = !graph.columns().has_time_ties();
    let order: Option<Vec<u32>> = (threads > 1).then(|| {
        let mut order: Vec<u32> = (0..n).collect();
        order.sort_unstable_by_key(|&c| std::cmp::Reverse(graph.node_degree(NodeId(c))));
        order
    });
    let make = || CenterWorker {
        arena: DpArena::default(),
        scratch: CenterScratch::new(n as usize),
        acc: A::default(),
        stats: SweepStats::default(),
    };
    fan_out(threads, n as usize, CENTER_CHUNK, make, |w, range| {
        for i in range {
            let c = order.as_ref().map_or(i as u32, |o| o[i]);
            load(graph, NodeId(c), &mut w.arena);
            if w.arena.times.len() < min_events {
                continue;
            }
            w.stats.record(0, w.arena.times.len());
            if !tie_free {
                w.arena.seal_groups();
            }
            sweep(&mut w.scratch, &w.arena, tie_free, &mut w.acc);
        }
    })
}

/// Sums the workers' tallies and records them.
fn record_center_stats<A>(workers: &[CenterWorker<A>]) {
    if tnm_obs::enabled() {
        let mut stats = SweepStats::default();
        for w in workers {
            stats.absorb(&w.stats);
        }
        let reg = tnm_obs::global();
        reg.counter("stream.star.centers_swept").add(stats.swept);
        reg.gauge("stream.star.center_events").set(stats.peak);
    }
}

/// Counts every 3-event, exactly-2-leaf star into `out`, the centers
/// fanned out over `threads` workers.
pub(crate) fn count_stars(
    graph: &TemporalGraph,
    delta: Time,
    out: &mut MotifCounts,
    threads: usize,
) {
    // lone[pos][(d1 << 2) | (d2 << 1) | d3]: stars whose minority-leaf
    // event sits at `pos`, summed over all centers.
    let workers =
        for_each_center(graph, threads, 3, |scratch, arena, tie_free, lone: &mut [Triples; 3]| {
            let (e12, e123, e23, e13) = if tie_free {
                center_sweeps(scratch, arena, delta, &DenseGroups(arena.times.len()))
            } else {
                center_sweeps(scratch, arena, delta, &SealedGroups(&arena.bounds))
            };
            // Merge the per-center tables into the lone-position totals
            // in one flat pass — one add per signature slot, no bit
            // unpacking.
            for s in 0..8 {
                lone[2][s] += e12[s] - e123[s];
                lone[0][s] += e23[s] - e123[s];
                lone[1][s] += e13[s] - e123[s];
            }
        });
    record_center_stats(&workers);
    let mut lone = [Triples::default(); 3];
    for w in &workers {
        for (total, part) in lone.iter_mut().zip(&w.acc) {
            for (s, &n) in total.iter_mut().zip(part) {
                *s += n;
            }
        }
    }
    // Leaf layout per lone position: the minority leaf is B, the pair
    // leaf A; canonicalization makes the naming immaterial.
    const LEGS: [[u8; 3]; 3] = [[1, 0, 0], [0, 1, 0], [0, 0, 1]];
    for (pos, legs) in LEGS.iter().enumerate() {
        for (slot, &n) in lone[pos].iter().enumerate() {
            if n > 0 {
                let dirs = [(slot >> 2) as u8 & 1, (slot >> 1) as u8 & 1, slot as u8 & 1];
                out.add(star_signature(legs, &dirs), n);
            }
        }
    }
}

/// Counts every 2-event wedge (two events sharing exactly the center)
/// into `out`, the centers fanned out over `threads` workers.
pub(crate) fn count_wedges(
    graph: &TemporalGraph,
    delta: Time,
    out: &mut MotifCounts,
    threads: usize,
) {
    // acc[(d1 << 1) | d2].
    let workers =
        for_each_center(graph, threads, 2, |scratch, arena, tie_free, acc: &mut [u64; 4]| {
            if tie_free {
                wedge_center_dp(scratch, arena, delta, &DenseGroups(arena.times.len()), acc);
            } else {
                wedge_center_dp(scratch, arena, delta, &SealedGroups(&arena.bounds), acc);
            }
        });
    record_center_stats(&workers);
    let mut acc = [0u64; 4];
    for w in &workers {
        for (s, &n) in acc.iter_mut().zip(&w.acc) {
            *s += n;
        }
    }
    for (slot, &n) in acc.iter().enumerate() {
        if n > 0 {
            out.add(star_signature(&[0, 1], &[(slot >> 1) as u8 & 1, slot as u8 & 1]), n);
        }
    }
}

/// One center's wedge DP under the given group map.
fn wedge_center_dp<B: GroupMap>(
    scratch: &mut CenterScratch,
    arena: &DpArena,
    delta: Time,
    groups: &B,
    acc: &mut [u64; 4],
) {
    let (times, aux) = (&arena.times[..], &arena.aux[..]);
    let mut cnt_any = [0u64; 2];
    let mut front = 0usize;
    for g in 0..groups.num_groups() {
        let (start, end) = (groups.start(g), groups.start(g + 1));
        let t = times[start];
        let cut = expiry_cut(times, groups, front, g, t - delta);
        while front < cut {
            let (gs, ge) = (groups.start(front), groups.start(front + 1));
            for &a in &aux[gs..ge] {
                let (b2, _, dir) = unpack(a);
                cnt_any[dir] -= 1;
                scratch.cnt_nbr[b2 | dir] -= 1;
            }
            front += 1;
        }
        for &a in &aux[start..end] {
            let (b2, _, dir) = unpack(a);
            // Any in-window predecessor on a *different* leaf.
            acc[dir] += cnt_any[0] - scratch.cnt_nbr[b2];
            acc[2 | dir] += cnt_any[1] - scratch.cnt_nbr[b2 | 1];
        }
        for &a in &aux[start..end] {
            let (b2, _, dir) = unpack(a);
            cnt_any[dir] += 1;
            scratch.cnt_nbr[b2 | dir] += 1;
        }
    }
    scratch.wipe_nbr_tables(aux);
}

/// Past-window sweep: fills `pend` and returns `(E12, E123)`.
fn forward_sweep<B: GroupMap>(
    scratch: &mut CenterScratch,
    arena: &DpArena,
    delta: Time,
    groups: &B,
) -> (Triples, Triples) {
    let (times, aux) = (&arena.times[..], &arena.aux[..]);
    let mut e12 = Triples::default();
    let mut e123 = Triples::default();
    // same_pair[(d1 << 1) | d2].
    let mut same_pair = [0u64; 4];
    scratch.pend.clear();
    scratch.pend.resize(times.len(), [0; 2]);
    let mut front = 0usize;
    for g in 0..groups.num_groups() {
        let (start, end) = (groups.start(g), groups.start(g + 1));
        let t = times[start];
        // Expire whole timestamp groups below the window start.
        let cut = expiry_cut(times, groups, front, g, t - delta);
        while front < cut {
            let (gs, ge) = (groups.start(front), groups.start(front + 1));
            for &a in &aux[gs..ge] {
                let (b2, _, dir) = unpack(a);
                scratch.cnt_nbr[b2 | dir] -= 1;
            }
            for &a in &aux[gs..ge] {
                let (b2, b4, dir) = unpack(a);
                // Retract the expired event's open pairs: everything
                // left on its leaf is strictly later.
                let (c0, c1) = (scratch.cnt_nbr[b2], scratch.cnt_nbr[b2 | 1]);
                let d = dir << 1;
                same_pair[d] -= c0;
                same_pair[d | 1] -= c1;
                scratch.per_nbr_pair[b4 + d] -= c0;
                scratch.per_nbr_pair[b4 + d + 1] -= c1;
            }
            front += 1;
        }
        // Close each group member as the last event of a triple.
        for (&a, slot) in aux[start..end].iter().zip(&mut scratch.pend[start..end]) {
            let (b2, b4, dir) = unpack(a);
            *slot = [scratch.cnt_nbr[b2], scratch.cnt_nbr[b2 | 1]];
            e12[dir] += same_pair[0];
            e12[2 | dir] += same_pair[1];
            e12[4 | dir] += same_pair[2];
            e12[6 | dir] += same_pair[3];
            e123[dir] += scratch.per_nbr_pair[b4];
            e123[2 | dir] += scratch.per_nbr_pair[b4 + 1];
            e123[4 | dir] += scratch.per_nbr_pair[b4 + 2];
            e123[6 | dir] += scratch.per_nbr_pair[b4 + 3];
        }
        // Push: pair against the pre-group snapshot, then admit.
        for &a in &aux[start..end] {
            let (b2, b4, dir) = unpack(a);
            let (c0, c1) = (scratch.cnt_nbr[b2], scratch.cnt_nbr[b2 | 1]);
            same_pair[dir] += c0;
            same_pair[2 | dir] += c1;
            scratch.per_nbr_pair[b4 + dir] += c0;
            scratch.per_nbr_pair[b4 + 2 + dir] += c1;
        }
        for &a in &aux[start..end] {
            let (b2, _, dir) = unpack(a);
            scratch.cnt_nbr[b2 | dir] += 1;
        }
    }
    scratch.wipe_nbr_tables(aux);
    (e12, e123)
}

/// Future-window sweep: fills `pstart` and returns `E23`.
fn future_sweep<B: GroupMap>(
    scratch: &mut CenterScratch,
    arena: &DpArena,
    delta: Time,
    groups: &B,
) -> Triples {
    let (times, aux) = (&arena.times[..], &arena.aux[..]);
    let num_groups = groups.num_groups();
    let mut e23 = Triples::default();
    let mut same_pair = [0u64; 4];
    scratch.pstart.clear();
    scratch.pstart.resize(times.len(), [0; 2]);
    // Window edges as *group* indices over the shared group map.
    let (mut ws, mut we) = (0usize, 0usize);
    for g in 0..num_groups {
        let (start, end) = (groups.start(g), groups.start(g + 1));
        let t = times[start];
        // Drop everything at or before the current time: pop pushed
        // groups (retracting their open pairs), skip never-pushed ones.
        while ws < num_groups && times[groups.start(ws)] <= t {
            if ws < we {
                let (gs, ge) = (groups.start(ws), groups.start(ws + 1));
                for &a in &aux[gs..ge] {
                    let (b2, _, dir) = unpack(a);
                    scratch.cnt_nbr[b2 | dir] -= 1;
                }
                for &a in &aux[gs..ge] {
                    let (b2, _, dir) = unpack(a);
                    let d = dir << 1;
                    same_pair[d] -= scratch.cnt_nbr[b2];
                    same_pair[d | 1] -= scratch.cnt_nbr[b2 | 1];
                }
            } else {
                we = ws + 1;
            }
            ws += 1;
        }
        // Admit groups within (t, t + ΔW], newest-last.
        while we < num_groups && times[groups.start(we)] <= t + delta {
            let (gs, ge) = (groups.start(we), groups.start(we + 1));
            for &a in &aux[gs..ge] {
                let (b2, _, dir) = unpack(a);
                same_pair[dir] += scratch.cnt_nbr[b2];
                same_pair[2 | dir] += scratch.cnt_nbr[b2 | 1];
            }
            for &a in &aux[gs..ge] {
                let (b2, _, dir) = unpack(a);
                scratch.cnt_nbr[b2 | dir] += 1;
            }
            we += 1;
        }
        // Close each group member as the first event of a triple.
        for (&a, slot) in aux[start..end].iter().zip(&mut scratch.pstart[start..end]) {
            let (b2, _, dir) = unpack(a);
            *slot = [scratch.cnt_nbr[b2], scratch.cnt_nbr[b2 | 1]];
            let d = dir << 2;
            e23[d] += same_pair[0];
            e23[d | 1] += same_pair[1];
            e23[d | 2] += same_pair[2];
            e23[d | 3] += same_pair[3];
        }
    }
    scratch.wipe_nbr_tables(aux);
    e23
}

/// Running-sum sweep over `pend`/`pstart`: returns `E13`.
///
/// The same-leaf δ-pairs straddling an event at time `t` are exactly
/// those whose first element lies before `t` (`F`, the running sum of
/// `pstart` over events with time < `t`) minus those fully finished by
/// `t` (`G`, the running sum of `pend` over events with time ≤ `t` —
/// a pair ending *at* `t` cannot straddle it under strict ordering).
fn straddle_sweep<B: GroupMap>(scratch: &CenterScratch, arena: &DpArena, groups: &B) -> Triples {
    let (times, aux) = (&arena.times[..], &arena.aux[..]);
    let mut e13 = Triples::default();
    // f[(d1 << 1) | d3], g[(d1 << 1) | d3].
    let mut f = [0u64; 4];
    let mut gsum = [0u64; 4];
    let (mut fx, mut gy) = (0usize, 0usize);
    for g in 0..groups.num_groups() {
        let (start, end) = (groups.start(g), groups.start(g + 1));
        let t = times[start];
        while fx < times.len() && times[fx] < t {
            let d = (aux[fx] & 1) << 1;
            f[d as usize] += scratch.pstart[fx][0];
            f[(d | 1) as usize] += scratch.pstart[fx][1];
            fx += 1;
        }
        while gy < times.len() && times[gy] <= t {
            let d = aux[gy] & 1;
            gsum[d as usize] += scratch.pend[gy][0];
            gsum[(2 | d) as usize] += scratch.pend[gy][1];
            gy += 1;
        }
        for &a in &aux[start..end] {
            let dir = (a & 1) as usize;
            let d = dir << 1;
            e13[d] += f[0] - gsum[0];
            e13[d | 1] += f[1] - gsum[1];
            e13[4 | d] += f[2] - gsum[2];
            e13[4 | d | 1] += f[3] - gsum[3];
        }
    }
    e13
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::notation::sig;
    use tnm_graph::{Event, TemporalGraphBuilder};

    fn graph(events: &[(u32, u32, i64)]) -> TemporalGraph {
        let mut b = TemporalGraphBuilder::new();
        for &(u, v, t) in events {
            b.push(Event::new(u, v, t));
        }
        b.build().unwrap()
    }

    fn stars(g: &TemporalGraph, delta: Time) -> MotifCounts {
        let mut c = MotifCounts::new();
        count_stars(g, delta, &mut c, 1);
        c
    }

    #[test]
    fn out_star_pre_post_peri() {
        // Center 0 sends to leaves 1, 1, 2 — lone event last: 010102.
        let g = graph(&[(0, 1, 1), (0, 1, 2), (0, 2, 3)]);
        let c = stars(&g, 10);
        assert_eq!(c.get(sig("010102")), 1);
        assert_eq!(c.total(), 1);
        // Lone event in the middle: 0→1, 0→2, 0→1 = 010201.
        let g = graph(&[(0, 1, 1), (0, 2, 2), (0, 1, 3)]);
        let c = stars(&g, 10);
        assert_eq!(c.get(sig("010201")), 1);
        assert_eq!(c.total(), 1);
        // Lone event first: 0→2, 0→1, 0→1 = 010202.
        let g = graph(&[(0, 2, 1), (0, 1, 2), (0, 1, 3)]);
        let c = stars(&g, 10);
        assert_eq!(c.get(sig("010202")), 1);
        assert_eq!(c.total(), 1);
    }

    #[test]
    fn two_node_triples_are_subtracted() {
        // All three events on one leaf: a 2-node sequence, not a star.
        let g = graph(&[(0, 1, 1), (0, 1, 2), (1, 0, 3)]);
        let c = stars(&g, 10);
        assert!(c.is_empty(), "{c:?}");
    }

    #[test]
    fn three_distinct_leaves_are_excluded() {
        // A 4-node star: no exactly-2-leaf triple exists.
        let g = graph(&[(0, 1, 1), (0, 2, 2), (0, 3, 3)]);
        let c = stars(&g, 10);
        assert!(c.is_empty(), "{c:?}");
    }

    #[test]
    fn window_bounds_the_whole_triple() {
        let g = graph(&[(0, 1, 0), (0, 1, 5), (0, 2, 10)]);
        for (delta, expect) in [(10i64, 1u64), (9, 0)] {
            let c = stars(&g, delta);
            assert_eq!(c.total(), expect, "ΔW={delta}");
        }
    }

    #[test]
    fn wedges_by_direction_and_ties() {
        // 0→1 then 2→0 share only node 0: 0120... wait: events (0,1),(2,0)
        // canonicalize to 01, 20 = "0120". A tie at t=1 contributes nothing.
        let g = graph(&[(0, 1, 1), (2, 0, 1), (2, 0, 3)]);
        let mut c = MotifCounts::new();
        count_wedges(&g, 5, &mut c, 1);
        assert_eq!(c.get(sig("0120")), 1);
        assert_eq!(c.total(), 1);
    }
}
