//! Builder for [`crate::TemporalGraph`].

use crate::error::{GraphError, Result};
use crate::event::Event;
use crate::graph::TemporalGraph;
use crate::ids::{NodeId, Time};

/// Accumulates events and produces a validated, index-backed
/// [`TemporalGraph`].
///
/// ```
/// use tnm_graph::TemporalGraphBuilder;
/// let g = TemporalGraphBuilder::new()
///     .event(0, 1, 10)
///     .event(1, 2, 12)
///     .build()
///     .unwrap();
/// assert_eq!(g.num_events(), 2);
/// ```
#[derive(Debug, Default, Clone)]
pub struct TemporalGraphBuilder {
    events: Vec<Event>,
    skip_self_loops: bool,
    num_nodes_hint: Option<u32>,
}

impl TemporalGraphBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a builder pre-seeded with `events`.
    pub fn from_events(events: Vec<Event>) -> Self {
        TemporalGraphBuilder { events, ..Self::default() }
    }

    /// Reserves capacity for `n` additional events.
    pub fn with_capacity(n: usize) -> Self {
        TemporalGraphBuilder { events: Vec::with_capacity(n), ..Self::default() }
    }

    /// When set, self-loop events are dropped silently instead of failing
    /// the build. Useful for raw real-world edge lists.
    pub fn skip_self_loops(mut self, yes: bool) -> Self {
        self.skip_self_loops = yes;
        self
    }

    /// Declares the node universe size up front (ids must stay below it).
    pub fn num_nodes(mut self, n: u32) -> Self {
        self.num_nodes_hint = Some(n);
        self
    }

    /// Adds an instantaneous event (chainable).
    pub fn event(mut self, src: u32, dst: u32, time: Time) -> Self {
        self.events.push(Event::new(src, dst, time));
        self
    }

    /// Adds an event with a duration (chainable).
    pub fn event_with_duration(mut self, src: u32, dst: u32, time: Time, duration: u32) -> Self {
        self.events.push(Event::with_duration(src, dst, time, duration));
        self
    }

    /// Adds an event in place (non-chaining form for loops).
    pub fn push(&mut self, event: Event) {
        self.events.push(event);
    }

    /// Number of events currently buffered.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if no events are buffered.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Sorts, validates, indexes, and returns the graph.
    ///
    /// # Errors
    ///
    /// * [`GraphError::Empty`] if there are no events;
    /// * [`GraphError::SelfLoop`] unless [`Self::skip_self_loops`] is set;
    /// * [`GraphError::NodeOutOfRange`] if a hinted node count is exceeded.
    pub fn build(self) -> Result<TemporalGraph> {
        let TemporalGraphBuilder { mut events, skip_self_loops, num_nodes_hint } = self;
        if skip_self_loops {
            events.retain(|e| !e.is_self_loop());
        } else if let Some(e) = events.iter().find(|e| e.is_self_loop()) {
            return Err(GraphError::SelfLoop { node: e.src.0, time: e.time });
        }
        if events.is_empty() {
            return Err(GraphError::Empty);
        }
        let max_node = events.iter().map(|e| e.src.0.max(e.dst.0)).max().unwrap_or(0);
        let num_nodes = match num_nodes_hint {
            Some(n) if max_node >= n => {
                return Err(GraphError::NodeOutOfRange { node: max_node, num_nodes: n })
            }
            Some(n) => n,
            None => max_node + 1,
        };
        sort_events(&mut events);
        Ok(TemporalGraph::from_sorted_events(events, num_nodes))
    }
}

/// Sorts events into the graph's `(time, src, dst, duration)` order. A
/// batch already in time order — an edge list written by time, once its
/// ids are compacted — only has its equal-time runs out of order, so it
/// sorts just those runs: one linear pass plus sorts of a few events,
/// with the same result as a full sort.
fn sort_events(events: &mut [Event]) {
    if events.windows(2).all(|w| w[0].time <= w[1].time) {
        for run in events.chunk_by_mut(|a, b| a.time == b.time) {
            run.sort_unstable();
        }
    } else {
        events.sort_unstable();
    }
}

/// Remaps arbitrary (possibly sparse, e.g. hash-based) node identifiers to
/// the dense `0..n` space the graph requires, preserving first-appearance
/// order. Returns the dense events plus the forward map.
pub fn compact_node_ids(raw: &[(u64, u64, Time)]) -> (Vec<Event>, Vec<u64>) {
    let mut map: std::collections::HashMap<u64, u32> = std::collections::HashMap::new();
    let mut names: Vec<u64> = Vec::new();
    let mut dense = |v: u64, map: &mut std::collections::HashMap<u64, u32>| -> u32 {
        *map.entry(v).or_insert_with(|| {
            names.push(v);
            (names.len() - 1) as u32
        })
    };
    let mut events = Vec::with_capacity(raw.len());
    for &(u, v, t) in raw {
        let su = dense(u, &mut map);
        let sv = dense(v, &mut map);
        events.push(Event::new(su, sv, t));
    }
    (events, names)
}

/// Extracts the set of distinct nodes actually used by `events`.
pub fn used_nodes(events: &[Event]) -> Vec<NodeId> {
    let mut seen = std::collections::HashSet::new();
    let mut out = Vec::new();
    for e in events {
        if seen.insert(e.src) {
            out.push(e.src);
        }
        if seen.insert(e.dst) {
            out.push(e.dst);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chained_build_sorts_events() {
        let g = TemporalGraphBuilder::new()
            .event(2, 3, 50)
            .event(0, 1, 10)
            .event(1, 2, 30)
            .build()
            .unwrap();
        let times: Vec<_> = g.events().iter().map(|e| e.time).collect();
        assert_eq!(times, vec![10, 30, 50]);
        assert_eq!(g.num_nodes(), 4);
    }

    #[test]
    fn self_loop_rejected_by_default() {
        let err = TemporalGraphBuilder::new().event(1, 1, 5).build().unwrap_err();
        assert!(matches!(err, GraphError::SelfLoop { node: 1, time: 5 }));
    }

    #[test]
    fn self_loop_skipped_when_opted_in() {
        let g = TemporalGraphBuilder::new()
            .skip_self_loops(true)
            .event(1, 1, 5)
            .event(0, 1, 6)
            .build()
            .unwrap();
        assert_eq!(g.num_events(), 1);
    }

    #[test]
    fn empty_build_fails() {
        assert!(matches!(TemporalGraphBuilder::new().build(), Err(GraphError::Empty)));
    }

    #[test]
    fn node_hint_enforced() {
        let err = TemporalGraphBuilder::new().num_nodes(2).event(0, 5, 1).build().unwrap_err();
        assert!(matches!(err, GraphError::NodeOutOfRange { node: 5, num_nodes: 2 }));
        let g = TemporalGraphBuilder::new().num_nodes(10).event(0, 5, 1).build().unwrap();
        assert_eq!(g.num_nodes(), 10);
    }

    #[test]
    fn time_ordered_batches_sort_like_a_full_sort() {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut events: Vec<Event> = (0..3_000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                Event::with_duration((x % 7) as u32, (x >> 8) as u32 % 7, 0, (x >> 16) as u32 % 3)
            })
            .collect();
        // Time order with shuffled ties (the fast path), then arbitrary
        // order (the fallback): both must equal a plain sort.
        for (i, e) in events.iter_mut().enumerate() {
            e.time = (i / 4) as Time;
        }
        for batch in [events.clone(), events.iter().rev().copied().collect()] {
            let mut expect = batch.clone();
            expect.sort_unstable();
            let mut got = batch;
            sort_events(&mut got);
            assert_eq!(got, expect);
        }
    }

    #[test]
    fn compact_ids_preserves_appearance_order() {
        let raw = vec![(100u64, 7u64, 1i64), (7, 100, 2), (9, 100, 3)];
        let (events, names) = compact_node_ids(&raw);
        assert_eq!(names, vec![100, 7, 9]);
        assert_eq!(events[0], Event::new(0u32, 1u32, 1));
        assert_eq!(events[1], Event::new(1u32, 0u32, 2));
        assert_eq!(events[2], Event::new(2u32, 0u32, 3));
    }

    #[test]
    fn used_nodes_distinct_in_order() {
        let events =
            vec![Event::new(3u32, 1u32, 1), Event::new(1u32, 3u32, 2), Event::new(0u32, 2u32, 3)];
        let nodes = used_nodes(&events);
        assert_eq!(nodes, vec![NodeId(3), NodeId(1), NodeId(0), NodeId(2)]);
    }

    #[test]
    fn push_and_len() {
        let mut b = TemporalGraphBuilder::with_capacity(4);
        assert!(b.is_empty());
        b.push(Event::new(0u32, 1u32, 1));
        assert_eq!(b.len(), 1);
    }
}
