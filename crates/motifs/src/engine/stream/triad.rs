//! Triad counting: the 6-label δ-window merge DP per static triangle.
//!
//! A 3-node, 3-event motif that is neither a 2-node sequence nor a star
//! uses all three undirected node pairs of its node set — a temporal
//! triangle. Static triangles are enumerated once from the
//! [`StaticProjection`]; each triangle's events (up to six directed
//! edges) merge into one time-ordered list where every event carries a
//! 6-valued label — (undirected pair, direction) — and the generic
//! Paranjape window DP counts every strictly-ordered label triple within
//! ΔW. Only triples whose three labels cover all three pairs are folded
//! into signatures; the rest belong to the pair/star classes and are
//! discarded for free (their accumulator slots simply map to no
//! signature).
//!
//! Cost: `O(Σ_triangles events-on-the-triangle · 6)` — the WSDM'17
//! triangle bound — with a 48-entry label-triple → signature table
//! computed once per count.
//!
//! Data layout (see [`super::arena`]): each triangle's merged list is
//! built by a six-way cursor merge over its directed edge-event index
//! lists (event indices are globally time-ordered, so no sort is
//! needed) straight into the arena's SoA scratch — dense `times` plus
//! the 6-valued label in `tags`. Triangles are processed in
//! **footprint-sorted, cache-sized blocks**: work items carry their
//! merged-list length, are sorted ascending, and run in blocks whose
//! combined footprint fits [`BLOCK_EVENT_BUDGET`], so the arena and DP
//! tables stay resident while the bulk of small triangles stream
//! through, and the few giant lists are quarantined at the end instead
//! of evicting the scratch mid-stream. The blocks are the parallel
//! work items, claimed largest first so the tail balances.
//! Accumulation is commutative sums, so neither the reordering nor the
//! fan-out can change any count.

// The DP tables are indexed by label/pair ids used across several
// tables per loop body; iterator forms would obscure the recurrences.
#![allow(clippy::needless_range_loop)]

use super::arena::{expiry_cut, DenseGroups, DpArena, GroupMap, SealedGroups};
use super::{fan_out, SweepStats};
use crate::count::MotifCounts;
use crate::notation::MotifSignature;
use tnm_graph::static_proj::global_projection_cache;
use tnm_graph::{Edge, EventIdx, NodeId, TemporalGraph, Time};

/// Labels: `pair * 2 + dir`, pairs 0 = {a,b}, 1 = {a,c}, 2 = {b,c} for
/// the triangle's sorted nodes `a < b < c`; dir 0 = lower → higher id.
const LABELS: usize = 6;

/// Combined merged-event budget per processing block: 2^15 events ≈
/// 0.75 MiB of arena scratch (8 B time + 1 B tag, doubled for slack) —
/// comfortably L2-resident on the targeted cores.
const BLOCK_EVENT_BUDGET: usize = 1 << 15;

/// One worker's state: its arena, its label-triple accumulator and its
/// tallies.
struct TriadWorker {
    arena: DpArena,
    acc: [u64; LABELS * LABELS * LABELS],
    stats: SweepStats,
}

/// Counts every δ-window temporal triangle into `out`, the triangle
/// blocks fanned out over `threads` workers, largest block first. The
/// static projection comes from the shared [`global_projection_cache`],
/// so a ΔW sweep over one graph builds it (and can re-list its
/// triangles) once per graph instead of once per count.
pub(crate) fn count_triads(
    graph: &TemporalGraph,
    delta: Time,
    out: &mut MotifCounts,
    threads: usize,
) {
    let proj = global_projection_cache().get_or_build(graph);
    let sig_table = label_triple_signatures();
    let combos = closing_combos();
    let tie_free = !graph.columns().has_time_ties();
    // Gather work items with their merged-list footprint, then sort so
    // blocks hold triangles of similar size (see module docs).
    let mut work: Vec<(u32, [NodeId; 3])> = Vec::new();
    proj.for_each_undirected_triangle(|nodes| {
        work.push((triangle_footprint(graph, nodes), nodes));
    });
    work.sort_unstable_by_key(|&(footprint, _)| footprint);
    // Cut the sorted items into blocks; a block always advances (the
    // first item is admitted even when it alone exceeds the budget).
    let mut blocks: Vec<std::ops::Range<usize>> = Vec::new();
    let mut i = 0usize;
    while i < work.len() {
        let start = i;
        let mut block_events = 0usize;
        while i < work.len()
            && (i == start || block_events + work[i].0 as usize <= BLOCK_EVENT_BUDGET)
        {
            block_events += work[i].0 as usize;
            i += 1;
        }
        blocks.push(start..i);
    }
    let make = || TriadWorker {
        arena: DpArena::default(),
        acc: [0; LABELS * LABELS * LABELS],
        stats: SweepStats::default(),
    };
    // One block per claim, the largest (last) block first.
    let workers = fan_out(threads, blocks.len(), 1, make, |w, claimed| {
        for b in claimed {
            let block = &work[blocks[blocks.len() - 1 - b].clone()];
            // The block's largest footprint comes last (sorted order):
            // one reserve covers every triangle in the block.
            let largest = block.last().map_or(0, |&(f, _)| f as usize);
            w.arena.times.reserve(largest);
            w.arena.tags.reserve(largest);
            for &(_, nodes) in block {
                merge_triangle_events(graph, nodes, &mut w.arena);
                let a = &mut w.arena;
                if tie_free {
                    let groups = DenseGroups(a.times.len());
                    w.stats.record(groups.num_groups(), a.times.len());
                    triangle_window_dp(&a.times, &a.tags, &groups, delta, &combos, &mut w.acc);
                } else {
                    a.seal_groups();
                    w.stats.record(a.num_groups(), a.times.len());
                    let groups = SealedGroups(&a.bounds);
                    triangle_window_dp(&a.times, &a.tags, &groups, delta, &combos, &mut w.acc);
                }
            }
        }
    });
    let mut acc = [0u64; LABELS * LABELS * LABELS];
    let mut stats = SweepStats::default();
    for w in &workers {
        for (s, &n) in acc.iter_mut().zip(&w.acc) {
            *s += n;
        }
        stats.absorb(&w.stats);
    }
    if tnm_obs::enabled() {
        let reg = tnm_obs::global();
        reg.counter("stream.triad.triangles_swept").add(stats.swept);
        reg.counter("stream.triad.groups_advanced").add(stats.groups);
        reg.gauge("stream.triad.window_events").set(stats.peak);
    }
    for (slot, &n) in acc.iter().enumerate() {
        if n > 0 {
            let sig = sig_table[slot].expect("only all-three-pairs slots accumulate");
            out.add(sig, n);
        }
    }
}

/// The triangle's six directed edge-event lists, labels 0..=5 in the
/// canonical (pair, dir) order.
fn edge_lists(graph: &TemporalGraph, nodes: [NodeId; 3]) -> [&[EventIdx]; LABELS] {
    let [a, b, c] = nodes;
    let mut lists: [&[EventIdx]; LABELS] = [&[]; LABELS];
    for (pair, (lo, hi)) in [(a, b), (a, c), (b, c)].into_iter().enumerate() {
        lists[pair * 2] = graph.edge_events(Edge { src: lo, dst: hi });
        lists[pair * 2 + 1] = graph.edge_events(Edge { src: hi, dst: lo });
    }
    lists
}

/// Total merged-list length for a triangle — its work-item footprint.
fn triangle_footprint(graph: &TemporalGraph, nodes: [NodeId; 3]) -> u32 {
    edge_lists(graph, nodes).iter().map(|l| l.len() as u32).sum()
}

/// Merges the triangle's six directed edge-event lists into the arena
/// as a time-ordered labeled list. Event indices are assigned in
/// global time order, so a six-cursor min-merge on the indices
/// replaces the old collect-then-sort; the DP only needs timestamp
/// *groups* (within-group order is immaterial under the
/// ties-never-co-occur rule), and timestamps come from the dense SoA
/// time column. Callers seal the group boundaries only when the log
/// has timestamp ties.
fn merge_triangle_events(graph: &TemporalGraph, nodes: [NodeId; 3], arena: &mut DpArena) {
    arena.clear();
    let lists = edge_lists(graph, nodes);
    let times = graph.times();
    let mut cursor = [0usize; LABELS];
    loop {
        let mut best: Option<(u32, usize)> = None;
        for l in 0..LABELS {
            if let Some(&idx) = lists[l].get(cursor[l]) {
                if best.is_none_or(|(min_idx, _)| idx < min_idx) {
                    best = Some((idx, l));
                }
            }
        }
        let Some((idx, l)) = best else { break };
        cursor[l] += 1;
        arena.times.push(times[idx as usize]);
        arena.tags.push(l as u8);
    }
}

/// The label pairs `(l1, l2)` that close a triangle with a final event
/// on pair `p3`: both orders of the two other pairs, all four direction
/// combinations — eight per `p3`.
fn closing_combos() -> [[(usize, usize); 8]; 3] {
    let mut out = [[(0, 0); 8]; 3];
    for p3 in 0..3 {
        let [pa, pb]: [usize; 2] = match p3 {
            0 => [1, 2],
            1 => [0, 2],
            _ => [0, 1],
        };
        let mut slot = 0;
        for (x, y) in [(pa, pb), (pb, pa)] {
            for dx in 0..2 {
                for dy in 0..2 {
                    out[p3][slot] = (x * 2 + dx, y * 2 + dy);
                    slot += 1;
                }
            }
        }
    }
    out
}

/// The 6-label window DP: strictly-ordered in-window triples by label,
/// accumulated only into all-three-pairs slots. Runs over the arena's
/// SoA slices, advancing by whole timestamp groups through the group
/// map; `counts2` is a flat 36-slot table so every push, pop, and
/// close is an unconditional indexed add.
fn triangle_window_dp<B: GroupMap>(
    times: &[Time],
    labels: &[u8],
    groups: &B,
    delta: Time,
    combos: &[[(usize, usize); 8]; 3],
    acc: &mut [u64; LABELS * LABELS * LABELS],
) {
    let mut counts1 = [0u64; LABELS];
    let mut counts2 = [0u64; LABELS * LABELS]; // [l1 * LABELS + l2]
    let mut front = 0usize;
    for g in 0..groups.num_groups() {
        let (start, end) = (groups.start(g), groups.start(g + 1));
        let t = times[start];
        let cut = expiry_cut(times, groups, front, g, t - delta);
        while front < cut {
            let (gs, ge) = (groups.start(front), groups.start(front + 1));
            for &l in &labels[gs..ge] {
                counts1[l as usize] -= 1;
            }
            for &l in &labels[gs..ge] {
                let base = l as usize * LABELS;
                for l2 in 0..LABELS {
                    counts2[base + l2] -= counts1[l2];
                }
            }
            front += 1;
        }
        // Close: only pair-disjoint (l1, l2) prefixes can complete a
        // triangle with this event's pair — the eight precomputed combos;
        // the other prefixes stay pure DP state.
        for &l3 in &labels[start..end] {
            for &(l1, l2) in &combos[(l3 / 2) as usize] {
                acc[(l1 * LABELS + l2) * LABELS + l3 as usize] += counts2[l1 * LABELS + l2];
            }
        }
        // Push against the pre-group snapshot, then admit the group.
        for &l in &labels[start..end] {
            for l1 in 0..LABELS {
                counts2[l1 * LABELS + l as usize] += counts1[l1];
            }
        }
        for &l in &labels[start..end] {
            counts1[l as usize] += 1;
        }
    }
}

/// Signature per label triple; `None` unless the three labels cover all
/// three undirected pairs (those triples are stars or 2-node sequences,
/// counted by their own classes).
fn label_triple_signatures() -> Vec<Option<MotifSignature>> {
    // Symbolic endpoints per label: pair {a,b} → (0,1), {a,c} → (0,2),
    // {b,c} → (1,2); odd labels reverse.
    const ENDPOINTS: [(u8, u8); LABELS] = [(0, 1), (1, 0), (0, 2), (2, 0), (1, 2), (2, 1)];
    let mut table = vec![None; LABELS * LABELS * LABELS];
    for l1 in 0..LABELS {
        for l2 in 0..LABELS {
            for l3 in 0..LABELS {
                let pairs = [l1 / 2, l2 / 2, l3 / 2];
                let covers_all = pairs.contains(&0) && pairs.contains(&1) && pairs.contains(&2);
                if covers_all {
                    let seq = [ENDPOINTS[l1], ENDPOINTS[l2], ENDPOINTS[l3]];
                    table[(l1 * LABELS + l2) * LABELS + l3] =
                        Some(MotifSignature::canonicalize(&seq));
                }
            }
        }
    }
    table
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

    fn triads(g: &TemporalGraph, delta: Time) -> MotifCounts {
        let mut c = MotifCounts::new();
        count_triads(g, delta, &mut c, 1);
        c
    }

    #[test]
    fn single_triangle() {
        let g = graph(&[(0, 1, 1), (1, 2, 2), (0, 2, 3)]);
        let c = triads(&g, 10);
        assert_eq!(c.get(sig("011202")), 1);
        assert_eq!(c.total(), 1);
    }

    #[test]
    fn star_and_pair_prefixes_do_not_leak() {
        // Extra events on one pair create star/2-node triples that must
        // not surface as triangles.
        let g = graph(&[(0, 1, 1), (0, 1, 2), (1, 2, 3), (0, 2, 4)]);
        let c = triads(&g, 10);
        // Triangles: {e at 1 or 2} × (1→2) × (0→2) = 2 instances of 011202.
        assert_eq!(c.get(sig("011202")), 2);
        assert_eq!(c.total(), 2);
    }

    #[test]
    fn window_and_ties_respected() {
        let g = graph(&[(0, 1, 0), (1, 2, 0), (0, 2, 5)]);
        let c = triads(&g, 10);
        assert!(c.is_empty(), "tied first two events cannot chain: {c:?}");
        let g = graph(&[(0, 1, 0), (1, 2, 4), (0, 2, 9)]);
        for (delta, expect) in [(9i64, 1u64), (8, 0)] {
            let c = triads(&g, delta);
            assert_eq!(c.total(), expect, "ΔW={delta}");
        }
    }

    #[test]
    fn merge_matches_sort_order() {
        // Interleaved events across all six directed edges: the cursor
        // merge must produce the same time order a sort would.
        let g = graph(&[
            (0, 1, 1),
            (1, 0, 2),
            (0, 2, 3),
            (2, 0, 4),
            (1, 2, 5),
            (2, 1, 6),
            (0, 1, 7),
            (2, 1, 7),
        ]);
        let mut arena = DpArena::default();
        merge_triangle_events(&g, [NodeId(0), NodeId(1), NodeId(2)], &mut arena);
        assert_eq!(arena.times, vec![1, 2, 3, 4, 5, 6, 7, 7]);
        let mut sorted = arena.times.clone();
        sorted.sort_unstable();
        assert_eq!(arena.times, sorted);
        arena.seal_groups();
        assert_eq!(arena.num_groups(), 7);
    }

    #[test]
    fn signature_table_has_48_entries() {
        let table = label_triple_signatures();
        assert_eq!(table.iter().flatten().count(), 48);
        // Directions matter: a→b, b→c, a→c is the feed-forward triangle.
        let idx = |l1: usize, l2: usize, l3: usize| (l1 * LABELS + l2) * LABELS + l3;
        assert_eq!(table[idx(0, 4, 2)], Some(sig("011202")));
        // a→b, c→b, a→c: 01, 21, 02.
        assert_eq!(table[idx(0, 5, 2)], Some(sig("012102")));
        assert_eq!(table[idx(0, 1, 2)], None, "two labels on one pair");
    }
}
