//! Deterministic time-replicated corpora.
//!
//! A corpus is one graph from [`tnm_datasets::generate`] replicated in
//! time: each copy is shifted by the base graph's timespan plus one day,
//! so no window ever spans two copies. Replication keeps the per-window
//! density and the static projection of the base graph, and the cost
//! grows linearly with the copies. Scaling events over a fixed node set
//! (the CLI's `--scale`) would instead grow the triangle count, and the
//! cost, much faster than the event count; so would tiling copies drawn
//! from different seeds, whose union of static edges is far denser than
//! any one copy.

use tnm_datasets::{generate, DatasetSpec};
use tnm_graph::{Event, TemporalGraph, Time};

/// Gap between consecutive copies, on top of the previous copy's span.
const COPY_GAP: Time = 86_400;

/// Mixes the run seed with a stream index (splitmix64 finalizer), so
/// every corpus of a run gets an independent seed.
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Events `from..to` of `base` replicated without end: event `i` is
/// event `i mod n` of copy `i / n`, and copy 0 starts at time 0.
pub fn replicate(base: &TemporalGraph, from: usize, to: usize) -> Vec<Event> {
    let n = base.num_events();
    let first = base.first_time().expect("generated graphs are non-empty");
    let period = base.timespan() + COPY_GAP;
    (from..to)
        .map(|i| {
            let e = base.events()[i % n];
            Event { time: e.time - first + (i / n) as Time * period, ..e }
        })
        .collect()
}

/// `copies` copies of the graph `spec` generates from `seed`.
pub fn replicated_graph(spec: &DatasetSpec, seed: u64, copies: usize) -> TemporalGraph {
    let base = generate(spec, seed);
    TemporalGraph::from_events(replicate(&base, 0, copies * base.num_events()))
        .expect("generated events have no self-loops")
}
