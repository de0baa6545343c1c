//! Shared-walk execution for batch walk groups.
//!
//! One walk under the group's widest timing visits a superset of every
//! member's instances; membership of an individual instance in a
//! member's answer decomposes into
//!
//! * a **structural** part — signature node count against the member's
//!   node bounds, signature-target equality — that depends only on the
//!   instance's canonical signature, so it is computed once per
//!   *distinct signature* and cached ([`GroupAcc::accept`]);
//! * a **timing** part — first-to-last span against the member's ΔW,
//!   maximum consecutive gap against its ΔC — computed once per
//!   *instance* and compared against each structurally accepted
//!   member's bounds. When no member's timing is tighter than the
//!   walk's, the walk bound already proved admissibility and the scan
//!   is skipped entirely;
//! * an **inducedness** part for members with `static_induced` — a
//!   property of the instance's event set alone, so it is checked at
//!   most once per instance, lazily, and only when some induced member
//!   survived its timing check.
//!
//! The remaining restriction flags (consecutive/constrained, and
//! duration-awareness on graphs with durations) are group-key equal, so
//! the shared walker applies them exactly as each member's own walk
//! would. Tallies are dense: each distinct signature gets a slot on
//! first sight, and counts go into a flat `slot × member` `u64` table
//! that becomes per-member [`MotifCounts`] once, at merge. The parallel
//! driver reuses the work-stealing executor with a per-worker
//! `(accumulator, walker)` pair — the same shape as [`work_steal_count`]
//! (crate::engine::parallel) — and merges the per-worker tables after
//! join (u64 additions commute, so scheduling never leaks into results).

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use crate::count::MotifCounts;
use crate::engine::config::{EnumConfig, MotifInstance};
use crate::engine::parallel::{work_steal_map, DEFAULT_STEAL_CHUNK};
use crate::engine::walker::{
    CandidateSource, NodeListCandidates, PrefixFilter, Walker, WindowedCandidates,
};
use crate::induced::static_induced_ok;
use crate::notation::MotifSignature;
use tnm_graph::index_cache::global_index_cache;
use tnm_graph::{TemporalGraph, Time};

use super::WalkDriver;

/// One member's emission-time predicate, with unbounded windows mapped
/// to `Time::MAX` so the checks are branch-free comparisons.
struct MemberMask {
    slot: usize,
    min_nodes: usize,
    max_nodes: usize,
    delta_c: Time,
    delta_w: Time,
    target: Option<MotifSignature>,
    induced: bool,
}

fn masks_of(cfgs: &[EnumConfig], members: &[usize]) -> Vec<MemberMask> {
    members
        .iter()
        .map(|&i| {
            let c = &cfgs[i];
            MemberMask {
                slot: i,
                min_nodes: c.min_nodes,
                max_nodes: c.max_nodes,
                delta_c: c.timing.delta_c.unwrap_or(Time::MAX),
                delta_w: c.timing.delta_w.unwrap_or(Time::MAX),
                target: c.signature_filter,
                induced: c.static_induced,
            }
        })
        .collect()
}

/// Whether any member's window is tighter than the walk's — if not,
/// every visited instance is admissible for every structurally accepted
/// member and the per-instance span/gap scan can be skipped.
fn any_tighter(masks: &[MemberMask], walk_cfg: &EnumConfig) -> bool {
    let walk_c = walk_cfg.timing.delta_c.unwrap_or(Time::MAX);
    let walk_w = walk_cfg.timing.delta_w.unwrap_or(Time::MAX);
    masks.iter().any(|m| m.delta_c < walk_c || m.delta_w < walk_w)
}

fn structural_ok(mask: &MemberMask, sig: MotifSignature) -> bool {
    let n = sig.num_nodes();
    n >= mask.min_nodes && n <= mask.max_nodes && mask.target.is_none_or(|t| t == sig)
}

/// `(span, max consecutive gap)` of one instance, with gaps measured
/// from the previous event's end when the group is duration-aware —
/// mirroring the walker's own bound arithmetic exactly.
fn timing_of(
    graph: &TemporalGraph,
    events: &[tnm_graph::EventIdx],
    duration_aware: bool,
) -> (Time, Time) {
    let first = graph.event(events[0]);
    let mut prev_base = if duration_aware { first.end_time() } else { first.time };
    let mut last_t = first.time;
    let mut max_gap: Time = 0;
    for &i in &events[1..] {
        let e = graph.event(i);
        max_gap = max_gap.max(e.time - prev_base);
        prev_base = if duration_aware { e.end_time() } else { e.time };
        last_t = e.time;
    }
    (last_t - first.time, max_gap)
}

/// The members structurally accepting `sig`, in member order.
fn accepting(masks: &[MemberMask], sig: MotifSignature) -> Vec<u32> {
    masks.iter().enumerate().filter(|(_, m)| structural_ok(m, sig)).map(|(i, _)| i as u32).collect()
}

/// Per-instance admission for one group: the instance's timing and
/// inducedness, each computed at most once and only when a member
/// needs it.
struct Admission<'a> {
    graph: &'a TemporalGraph,
    events: &'a [tnm_graph::EventIdx],
    timing: Option<(Time, Time)>,
    induced: Option<bool>,
}

impl<'a> Admission<'a> {
    fn new(
        graph: &'a TemporalGraph,
        inst: &'a MotifInstance<'_>,
        check_timing: bool,
        duration_aware: bool,
    ) -> Self {
        let timing = check_timing.then(|| timing_of(graph, inst.events, duration_aware));
        Admission { graph, events: inst.events, timing, induced: None }
    }

    /// Whether `mask`'s member keeps the instance (its structural test
    /// already passed).
    fn admits(&mut self, mask: &MemberMask) -> bool {
        if let Some((span, max_gap)) = self.timing {
            if max_gap > mask.delta_c || span > mask.delta_w {
                return false;
            }
        }
        !mask.induced
            || *self.induced.get_or_insert_with(|| static_induced_ok(self.graph, self.events))
    }
}

/// Per-worker accumulator: a dense `slot × member` count table plus the
/// lazy per-signature cache mapping each signature to its slot and the
/// members that structurally accept it. Only a signature some member
/// accepts gets a slot (a row of `counts`); a rejected one is cached
/// with no members and never touches the table.
struct GroupAcc {
    n_members: usize,
    accept: HashMap<MotifSignature, (u32, Vec<u32>)>,
    counts: Vec<u64>,
}

impl GroupAcc {
    fn new(n_members: usize) -> Self {
        GroupAcc { n_members, accept: HashMap::new(), counts: Vec::new() }
    }

    /// Adds the table into each member's count table `out[mask.slot]`
    /// (non-zero entries only, as per-instance `MotifCounts::add` calls
    /// would have left them).
    fn merge_into(&self, masks: &[MemberMask], out: &mut [MotifCounts]) {
        for (&sig, (slot, accepted)) in &self.accept {
            if accepted.is_empty() {
                continue;
            }
            let row = &self.counts[*slot as usize * self.n_members..][..self.n_members];
            for &mi in accepted {
                let n = row[mi as usize];
                if n > 0 {
                    out[masks[mi as usize].slot].add(sig, n);
                }
            }
        }
    }
}

fn tally(
    graph: &TemporalGraph,
    masks: &[MemberMask],
    duration_aware: bool,
    check_timing: bool,
    acc: &mut GroupAcc,
    inst: &MotifInstance<'_>,
) {
    let n_members = acc.n_members;
    let (slot, accepted) = match acc.accept.entry(inst.signature) {
        Entry::Occupied(e) => e.into_mut(),
        Entry::Vacant(e) => {
            let accepted = accepting(masks, inst.signature);
            let slot = (acc.counts.len() / n_members) as u32;
            if !accepted.is_empty() {
                acc.counts.resize(acc.counts.len() + n_members, 0);
            }
            e.insert((slot, accepted))
        }
    };
    if accepted.is_empty() {
        return;
    }
    let row = &mut acc.counts[*slot as usize * n_members..][..n_members];
    let mut admission = Admission::new(graph, inst, check_timing, duration_aware);
    for &mi in accepted.iter() {
        if admission.admits(&masks[mi as usize]) {
            row[mi as usize] += 1;
        }
    }
}

fn make_walker<'g, C: CandidateSource>(
    graph: &'g TemporalGraph,
    walk_cfg: &'g EnumConfig,
    prefix: Option<&PrefixFilter>,
    source: C,
) -> Walker<'g, C> {
    let walker = Walker::new(graph, walk_cfg, source);
    match prefix {
        Some(pf) => walker.with_prefix_filter(pf.clone()),
        None => walker,
    }
}

/// Counts one walk group: a single traversal under `walk_cfg`, with
/// per-member masks folding into `out[member]`.
#[allow(clippy::too_many_arguments)]
pub(super) fn count_walk_group(
    graph: &TemporalGraph,
    cfgs: &[EnumConfig],
    members: &[usize],
    walk_cfg: &EnumConfig,
    prefix_targets: Option<&[MotifSignature]>,
    driver: WalkDriver,
    threads: usize,
    out: &mut [MotifCounts],
) {
    let masks = masks_of(cfgs, members);
    let check_timing = any_tighter(&masks, walk_cfg);
    let duration_aware = walk_cfg.duration_aware;
    let prefix = prefix_targets
        .map(|t| PrefixFilter::new(t.iter(), walk_cfg.num_events).expect("planner validated"));
    let m = graph.num_events();
    let accs: Vec<GroupAcc> = match driver {
        WalkDriver::SerialNodeList => {
            let mut acc = GroupAcc::new(masks.len());
            let mut walker = make_walker(graph, walk_cfg, prefix.as_ref(), NodeListCandidates);
            walker.run_range(0..m, |inst| {
                tally(graph, &masks, duration_aware, check_timing, &mut acc, inst)
            });
            vec![acc]
        }
        WalkDriver::SerialWindowed => {
            let index = global_index_cache().get_or_build(graph);
            let mut acc = GroupAcc::new(masks.len());
            let mut walker =
                make_walker(graph, walk_cfg, prefix.as_ref(), WindowedCandidates::new(&index));
            walker.run_range(0..m, |inst| {
                tally(graph, &masks, duration_aware, check_timing, &mut acc, inst)
            });
            vec![acc]
        }
        WalkDriver::Parallel => {
            let index = global_index_cache().get_or_build(graph);
            let locals = work_steal_map(
                m,
                threads,
                DEFAULT_STEAL_CHUNK,
                || {
                    (
                        GroupAcc::new(masks.len()),
                        make_walker(
                            graph,
                            walk_cfg,
                            prefix.as_ref(),
                            WindowedCandidates::new(&index),
                        ),
                    )
                },
                |state, claimed| {
                    let (acc, walker) = state;
                    walker.run_range(claimed, |inst| {
                        tally(graph, &masks, duration_aware, check_timing, acc, inst)
                    });
                },
            );
            locals.into_iter().map(|(acc, _walker)| acc).collect()
        }
    };
    for acc in &accs {
        acc.merge_into(&masks, out);
    }
}

/// Enumerates one walk group serially over the window index, invoking
/// `callback(config_index, instance)` for each member that admits each
/// visited instance (ascending member order within one instance — the
/// members were planned in ascending config order).
pub(super) fn enumerate_walk_group<F: FnMut(usize, &MotifInstance<'_>)>(
    graph: &TemporalGraph,
    cfgs: &[EnumConfig],
    members: &[usize],
    walk_cfg: &EnumConfig,
    prefix_targets: Option<&[MotifSignature]>,
    callback: &mut F,
) {
    let masks = masks_of(cfgs, members);
    let check_timing = any_tighter(&masks, walk_cfg);
    let duration_aware = walk_cfg.duration_aware;
    let prefix = prefix_targets
        .map(|t| PrefixFilter::new(t.iter(), walk_cfg.num_events).expect("planner validated"));
    let index = global_index_cache().get_or_build(graph);
    let mut accept: HashMap<MotifSignature, Vec<u32>> = HashMap::new();
    let mut walker = make_walker(graph, walk_cfg, prefix.as_ref(), WindowedCandidates::new(&index));
    walker.run_range(0..graph.num_events(), |inst| {
        let accepted =
            accept.entry(inst.signature).or_insert_with(|| accepting(&masks, inst.signature));
        if accepted.is_empty() {
            return;
        }
        let mut admission = Admission::new(graph, inst, check_timing, duration_aware);
        for &mi in accepted.iter() {
            let m = &masks[mi as usize];
            if admission.admits(m) {
                callback(m.slot, inst);
            }
        }
    });
}
