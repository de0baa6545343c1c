//! Batch-planner equivalence suite.
//!
//! The batch API's core contract: for any batch of configurations and
//! any engine kind, `count_batch` results are **bit-identical** to
//! per-config [`EngineKind::count`] calls. The planner may share
//! traversals however it likes — widest-timing walks with per-config
//! masks, union-prefix pruning for all-targeted groups, one stream-DP
//! pass projected per member, solo runs for unshareable kinds — but
//! none of it may leak into the counts. This suite pins the contract
//! across:
//!
//! * random mixed batches — models, ΔC/ΔW shapes, node budgets,
//!   signature targets, induced/non-induced — on seeded random graphs,
//!   for every shareable kind (auto, windowed, backtrack, parallel,
//!   stream);
//! * single-config batches and duplicate configs (duplicates must fill
//!   every slot, identically);
//! * the canonical 36-motif Paranjape batch (one shared stream pass —
//!   the plan is pinned to a single group);
//! * solo kinds: sharded and sampling (seeded sampling estimates must
//!   be bit-identical to the per-config API);
//! * `enumerate_batch` against per-config `enumerate_instances`,
//!   instance lists compared in order.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use temporal_motifs::prelude::*;
use tnm_motifs::catalog::all_motifs;
use tnm_motifs::engine::{BatchPlanner, EngineKind};

fn random_graph(seed: u64, nodes: u32, events: usize, horizon: i64) -> TemporalGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut batch = Vec::with_capacity(events);
    while batch.len() < events {
        let u: u32 = rng.gen_range(0..nodes);
        let v: u32 = rng.gen_range(0..nodes);
        if u == v {
            continue;
        }
        batch.push(Event::new(u, v, rng.gen_range(0i64..horizon)));
    }
    TemporalGraph::from_events(batch).expect("non-empty batch")
}

/// One random configuration: mixed event counts, node budgets, timing
/// shapes, restriction flags, and occasional signature targets — the
/// full space the planner has to group (or refuse to group) correctly.
fn random_config(rng: &mut StdRng) -> EnumConfig {
    let k = [1usize, 2, 2, 3, 3, 3, 4][rng.gen_range(0..7usize)];
    let node_cap = (k + 1).clamp(2, 4);
    let max_nodes = rng.gen_range(2..=node_cap);
    // Occasionally target one signature of the chosen shape.
    if k <= 3 && rng.gen_range(0..4) == 0 {
        let motifs = all_motifs(k, max_nodes);
        let target = motifs[rng.gen_range(0..motifs.len())];
        let w = rng.gen_range(10i64..120);
        let timing = if rng.gen_range(0..2) == 0 {
            Timing::only_w(w)
        } else {
            Timing::both(rng.gen_range(5i64..60), w)
        };
        return EnumConfig::for_signature(target).with_timing(timing);
    }
    // Unbounded timing only below 3 events — enough to cover the
    // unbounded grouping path without exploding the instance count.
    let timing = match rng.gen_range(if k <= 2 { 0..4 } else { 1..4 }) {
        0 => Timing::UNBOUNDED,
        1 => Timing::only_c(rng.gen_range(5i64..60)),
        2 => Timing::only_w(rng.gen_range(10i64..120)),
        _ => Timing::both(rng.gen_range(5i64..60), rng.gen_range(10i64..120)),
    };
    let mut cfg = EnumConfig::new(k, max_nodes).with_timing(timing);
    if rng.gen_range(0..3) == 0 {
        cfg.min_nodes = rng.gen_range(2..=max_nodes);
    }
    match rng.gen_range(0..8) {
        0 => cfg = cfg.with_consecutive(true),
        1 => cfg = cfg.with_static_induced(true),
        2 => cfg = cfg.with_constrained(true),
        3 => cfg.duration_aware = true,
        _ => {}
    }
    cfg
}

/// Kinds whose batch execution shares traversals (everything except the
/// solo sharded/distributed/sampling kinds, which `solo_kinds_match`
/// covers).
fn shareable_kinds() -> [EngineKind; 5] {
    [
        EngineKind::Auto,
        EngineKind::Windowed,
        EngineKind::Backtrack,
        EngineKind::Parallel,
        EngineKind::Stream,
    ]
}

fn assert_batch_matches(graph: &TemporalGraph, batch: &[EnumConfig], label: &str) {
    for kind in shareable_kinds() {
        for threads in [1usize, 3] {
            let got = kind.count_batch(graph, batch, threads);
            assert_eq!(got.len(), batch.len());
            for (i, cfg) in batch.iter().enumerate() {
                assert_eq!(
                    got[i],
                    kind.count(graph, cfg, threads),
                    "{label}: kind `{kind}` threads={threads} config #{i} {cfg:?}"
                );
            }
        }
    }
}

#[test]
fn random_batches_match_per_config_counts() {
    for case in 0u64..5 {
        let g = random_graph(700 + case, 6 + 2 * case as u32, 70 + 10 * case as usize, 150);
        let mut rng = StdRng::seed_from_u64(7000 + case);
        let batch: Vec<EnumConfig> =
            (0..rng.gen_range(3..8)).map(|_| random_config(&mut rng)).collect();
        assert_batch_matches(&g, &batch, &format!("case {case}"));
    }
}

#[test]
fn single_config_and_duplicate_batches() {
    let g = random_graph(41, 8, 80, 120);
    let single = [EnumConfig::new(3, 3).with_timing(Timing::only_w(40))];
    assert_batch_matches(&g, &single, "single stream-shaped");
    let single_walk = [EnumConfig::new(3, 3).with_timing(Timing::both(20, 40))];
    assert_batch_matches(&g, &single_walk, "single walk-shaped");
    // Duplicates must fill every slot with the same (correct) table.
    let dup = vec![single_walk[0].clone(); 3];
    assert_batch_matches(&g, &dup, "duplicates");
    let got = EngineKind::Auto.count_batch(&g, &dup, 2);
    assert_eq!(got[0], got[1]);
    assert_eq!(got[1], got[2]);
}

#[test]
fn thirty_six_motif_batch_is_one_stream_pass() {
    let g = random_graph(42, 10, 120, 200);
    let batch: Vec<EnumConfig> = all_motifs(3, 3)
        .into_iter()
        .map(|m| EnumConfig::for_signature(m).with_timing(Timing::only_w(60)))
        .collect();
    assert_eq!(batch.len(), 36);
    // The amortization claim, pinned at the plan level: one group.
    let plan = BatchPlanner::plan(&g, &batch, EngineKind::Auto, 1);
    assert_eq!(plan.num_groups(), 1, "{}", plan.describe());
    assert_batch_matches(&g, &batch, "36 Paranjape motifs");
    // The projections must jointly tile the untargeted spectrum.
    let spectrum =
        EngineKind::Auto.count(&g, &EnumConfig::new(3, 3).with_timing(Timing::only_w(60)), 1);
    let batch_total: u64 =
        EngineKind::Auto.count_batch(&g, &batch, 1).iter().map(|c| c.total()).sum();
    assert_eq!(batch_total, spectrum.total());
}

#[test]
fn all_targeted_walker_group_uses_union_prefix() {
    let g = random_graph(43, 9, 100, 150);
    // ΔC keeps these off the stream path: a walker group whose members
    // all carry targets, so the shared walk prunes to the prefix union.
    let batch: Vec<EnumConfig> = all_motifs(3, 3)
        .into_iter()
        .map(|m| EnumConfig::for_signature(m).with_timing(Timing::both(30, 60)))
        .collect();
    let plan = BatchPlanner::plan(&g, &batch, EngineKind::Windowed, 1);
    // Two walk shapes (2-node and 3-node budgets), each prefix-pruned.
    assert_eq!(plan.num_groups(), 2, "{}", plan.describe());
    assert!(plan.describe().contains("prefix["), "{}", plan.describe());
    assert_batch_matches(&g, &batch, "36 targeted walker motifs");
}

#[test]
fn table5_style_ratio_sweep_mixes_stream_and_walk_groups() {
    let g = random_graph(44, 10, 110, 180);
    // Ratios 1.0 / 0.66 / 0.5 over ΔW=60: the first is ΔW-only (stream
    // under auto), the others share one walker group.
    let batch = [
        EnumConfig::new(3, 3).exact_nodes(3).with_timing(Timing::from_ratio(60, 1.0)),
        EnumConfig::new(3, 3).exact_nodes(3).with_timing(Timing::from_ratio(60, 0.66)),
        EnumConfig::new(3, 3).exact_nodes(3).with_timing(Timing::from_ratio(60, 0.5)),
    ];
    let plan = BatchPlanner::plan(&g, &batch, EngineKind::Auto, 1);
    assert_eq!(plan.num_groups(), 2, "{}", plan.describe());
    assert_batch_matches(&g, &batch, "table5 ratio sweep");
}

#[test]
fn solo_kinds_match() {
    let g = random_graph(45, 8, 90, 140);
    let batch = [
        EnumConfig::new(3, 3).with_timing(Timing::only_w(50)),
        EnumConfig::new(2, 3).with_timing(Timing::both(15, 40)),
    ];
    for kind in [EngineKind::sharded(16, 0), EngineKind::sampling(24, 9)] {
        let got = kind.count_batch(&g, &batch, 2);
        for (i, cfg) in batch.iter().enumerate() {
            assert_eq!(got[i], kind.count(&g, cfg, 2), "solo kind `{kind}` config #{i}");
        }
    }
}

#[test]
fn enumerate_batch_matches_per_config_enumeration() {
    let g = random_graph(46, 8, 80, 120);
    let batch = [
        EnumConfig::new(3, 3).with_timing(Timing::only_w(40)),
        EnumConfig::new(3, 3).exact_nodes(3).with_timing(Timing::both(15, 40)),
        EnumConfig::for_signature(sig("010102")).with_timing(Timing::only_w(40)),
        EnumConfig::new(2, 3).with_timing(Timing::only_w(25)),
    ];
    let mut batched: Vec<Vec<Vec<u32>>> = vec![Vec::new(); batch.len()];
    tnm_motifs::engine::enumerate_batch(&g, &batch, |slot, inst| {
        batched[slot].push(inst.events.to_vec());
    });
    for (i, cfg) in batch.iter().enumerate() {
        let mut expected: Vec<Vec<u32>> = Vec::new();
        enumerate_instances(&g, cfg, |inst| expected.push(inst.events.to_vec()));
        assert_eq!(batched[i], expected, "config #{i} instance lists diverge");
    }
}

/// The paper's evaluation batch: Kovanen, Song, Hulovatyy and Paranjape
/// at ΔC = ratio·ΔW for every 3-event ratio, 3 events on ≤ 3 nodes.
fn four_model_sweep(delta_w: i64) -> Vec<EnumConfig> {
    let mut batch = Vec::new();
    for ratio in tnm_analysis::experiments::RATIOS_3E {
        let timing = Timing::from_ratio(delta_w, ratio);
        for model in MotifModel::all_four(timing.delta_c.unwrap_or(delta_w), delta_w) {
            batch.push(EnumConfig::for_model(&model, 3, 3).with_timing(timing));
        }
    }
    batch
}

/// Batch counts at 1, 2 and 3 threads equal solo counts (the windowed
/// walker and the auto-selected engine), and `enumerate_batch` hands
/// every config exactly its own instance list, in order.
fn assert_sweep_matches_solo(graph: &TemporalGraph, batch: &[EnumConfig], label: &str) {
    let solo: Vec<MotifCounts> =
        batch.iter().map(|cfg| EngineKind::Windowed.count(graph, cfg, 1)).collect();
    for threads in [1usize, 2, 3] {
        for kind in [EngineKind::Auto, EngineKind::Windowed, EngineKind::Parallel] {
            let got = kind.count_batch(graph, batch, threads);
            for (i, cfg) in batch.iter().enumerate() {
                assert_eq!(got[i], solo[i], "{label}: `{kind}` threads={threads} #{i} {cfg:?}");
                assert_eq!(got[i], EngineKind::Auto.count(graph, cfg, threads), "{label}: #{i}");
            }
        }
    }
    let mut batched: Vec<Vec<Vec<u32>>> = vec![Vec::new(); batch.len()];
    tnm_motifs::engine::enumerate_batch(graph, batch, |slot, inst| {
        batched[slot].push(inst.events.to_vec());
    });
    for (i, cfg) in batch.iter().enumerate() {
        let mut expected: Vec<Vec<u32>> = Vec::new();
        enumerate_instances(graph, cfg, |inst| expected.push(inst.events.to_vec()));
        assert_eq!(batched[i], expected, "{label}: config #{i} instance lists diverge");
        assert_eq!(expected.len() as u64, solo[i].total(), "{label}: #{i}");
    }
}

#[test]
fn four_model_sweep_shares_one_walk_across_song_hulovatyy_and_paranjape() {
    let delta_w = 60;
    let batch = four_model_sweep(delta_w);
    assert_eq!(batch.len(), 12);
    // Dense enough (≈ 36 events per ΔW window) that auto sends the one
    // ΔW-only, non-induced config — Song at ratio 1 — to the stream DP.
    let g = random_graph(47, 10, 120, 200);
    assert!(!g.columns().has_durations());
    let plan = BatchPlanner::plan(&g, &batch, EngineKind::Auto, 2);
    let text = plan.describe();
    // Kovanen's consecutive walk, one stream pass, and one shared walk
    // for the other eight: inducedness is a member mask, and duration
    // awareness is moot on a duration-free graph. The graph is below
    // the serial fallback, so the merged walk stays serial.
    assert_eq!(plan.num_groups(), 3, "{text}");
    assert!(text.contains(&format!("walk(windowed) ΔW={delta_w}s ×8, induced ×6 of 8")), "{text}");
    assert!(text.contains("consecutive ×3"), "{text}");
    assert!(text.contains("stream"), "{text}");
    assert!(!text.contains("duration-aware"), "{text}");
    assert_sweep_matches_solo(&g, &batch, "duration-free sweep");

    // One non-zero duration keeps Hulovatyy's duration-aware ΔC in the
    // walk shape: its three configs split into their own walk.
    let mut events = g.events().to_vec();
    let mid = events.len() / 2;
    events[mid].duration = 7;
    let g = TemporalGraph::from_events(events).expect("non-empty");
    assert!(g.columns().has_durations());
    let plan = BatchPlanner::plan(&g, &batch, EngineKind::Auto, 2);
    let text = plan.describe();
    assert_eq!(plan.num_groups(), 4, "{text}");
    assert!(text.contains("duration-aware ×3, induced ×3 of 3"), "{text}");
    assert_sweep_matches_solo(&g, &batch, "sweep with one duration");
}

#[test]
fn merged_stream_shaped_walk_takes_the_thread_budget_only_past_the_serial_fallback() {
    let delta_w = 60;
    let batch = four_model_sweep(delta_w);
    // Same density as above (≈ 36 events per ΔW window), but past the
    // serial fallback: the merged ΔW-only walk gets the parallel driver
    // at two threads and stays serial at one.
    let g = random_graph(48, 40, 4000, 4000 * 200 / 120);
    assert!(g.num_events() >= tnm_motifs::engine::SERIAL_FALLBACK_EVENTS);
    let two = BatchPlanner::plan(&g, &batch, EngineKind::Auto, 2).describe();
    assert!(two.contains(&format!("walk(parallel) ΔW={delta_w}s ×8, induced ×6 of 8")), "{two}");
    let one = BatchPlanner::plan(&g, &batch, EngineKind::Auto, 1).describe();
    assert!(one.contains(&format!("walk(windowed) ΔW={delta_w}s ×8, induced ×6 of 8")), "{one}");
    // A needle window: too little work per start event to pay for the
    // spawn, so the merged walk stays serial even with two threads.
    let needle = four_model_sweep(1);
    let sparse = BatchPlanner::plan(&g, &needle, EngineKind::Auto, 2).describe();
    assert!(!sparse.contains("walk(parallel) ΔW=1s ×8"), "{sparse}");
}

/// A group whose members together reject some signatures the shared
/// walk emits: a targeted member whose node floor sits below its
/// signature's node count (so the walk's floor is lower than the
/// untargeted member's), and an untargeted member with a higher node
/// floor. Every 3-node instance of another signature is accepted by
/// no member and must leave the tallies untouched.
#[test]
fn signatures_no_member_accepts_are_skipped() {
    let sig: MotifSignature = "010102".parse().expect("valid signature");
    let timing = Timing::both(20, 40);
    let mut targeted = EnumConfig::for_signature(sig).with_timing(timing);
    targeted.max_nodes = 4;
    let mut four_nodes = EnumConfig::new(3, 4).with_timing(timing);
    four_nodes.min_nodes = 4;
    let batch = [targeted, four_nodes];
    for case in 0u64..4 {
        let g = random_graph(900 + case, 6 + case as u32, 120, 150);
        let plan = BatchPlanner::plan(&g, &batch, EngineKind::Auto, 3);
        assert_eq!(plan.num_groups(), 1, "{}", plan.describe());
        assert_batch_matches(&g, &batch, &format!("rejected signatures, case {case}"));
    }
}
