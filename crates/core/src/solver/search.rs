//! Dijkstra over the dense adjacency, with the distance / predecessor
//! / heap buffers kept between calls.
//!
//! Bit-identical to the reference's `BTreeMap` implementation
//! (`tssdn_oracle::planning`): the heap orders by `(cost, node slot)` and
//! slots are assigned in sorted `PlatformId` order, so tie-breaks
//! agree; relaxation uses the same strict `<` (first relaxation at the
//! final distance wins, later equal-cost ones are ignored); and
//! non-viable edges are skipped *during traversal* in candidate-index
//! order, which visits viable edges in exactly the order the
//! reference's per-iteration adjacency rebuild inserts them.

use super::index::SlotLists;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A shortest path: platform slots from source to target, the
/// candidate index of each hop, and the fixed-point total.
#[derive(Debug, PartialEq)]
pub(super) struct FoundPath {
    pub(super) nodes: Vec<u32>,
    pub(super) edges: Vec<u32>,
    pub(super) cost: u64,
}

pub(super) struct Search {
    dist: Vec<u64>,
    prev: Vec<(u32, u32)>,
    heap: BinaryHeap<Reverse<(u64, u32)>>,
}

impl Search {
    const UNSET: u32 = u32::MAX;

    pub(super) fn new(nodes: usize) -> Self {
        Search {
            dist: vec![u64::MAX; nodes],
            prev: vec![(Self::UNSET, Self::UNSET); nodes],
            heap: BinaryHeap::new(),
        }
    }

    /// Dijkstra from `from` over the viable subgraph until a member of
    /// `targets` (a sorted slice of slots) is settled — never, when
    /// there are none: the node and its distance. `dist` and `prev`
    /// hold what was reached on the way.
    fn run(
        &mut self,
        adj: &SlotLists<(u32, u32)>,
        viable: &[bool],
        cost: &[u64],
        from: u32,
        targets: &[u32],
    ) -> Option<(u32, u64)> {
        let Search { dist, prev, heap } = self;
        dist.fill(u64::MAX);
        prev.fill((Self::UNSET, Self::UNSET));
        heap.clear();
        dist[from as usize] = 0;
        heap.push(Reverse((0, from)));
        while let Some(Reverse((d, n))) = heap.pop() {
            if d > dist[n as usize] {
                continue;
            }
            if targets.binary_search(&n).is_ok() {
                return Some((n, d));
            }
            for &(m, e) in adj.list(n) {
                if !viable[e as usize] {
                    continue;
                }
                let nd = d + cost[e as usize];
                if nd < dist[m as usize] {
                    dist[m as usize] = nd;
                    prev[m as usize] = (n, e);
                    heap.push(Reverse((nd, m)));
                }
            }
        }
        None
    }

    /// Shortest path from `from` to the nearest member of `targets`.
    pub(super) fn nearest(
        &mut self,
        adj: &SlotLists<(u32, u32)>,
        viable: &[bool],
        cost: &[u64],
        from: u32,
        targets: &[u32],
    ) -> Option<FoundPath> {
        let (mut cur, cost) = self.run(adj, viable, cost, from, targets)?;
        let (mut nodes, mut edges) = (vec![cur], Vec::new());
        while self.prev[cur as usize].0 != Self::UNSET {
            let (p, e) = self.prev[cur as usize];
            nodes.push(p);
            edges.push(e);
            cur = p;
        }
        nodes.reverse();
        edges.reverse();
        Some(FoundPath { nodes, edges, cost })
    }

    /// Full single-source sweep: `out[m]` becomes the distance from
    /// `from` to `m` over the viable subgraph, `u64::MAX` where
    /// unreachable. Powers the greedy loop's lower-bound test after
    /// each selection.
    pub(super) fn all_distances(
        &mut self,
        adj: &SlotLists<(u32, u32)>,
        viable: &[bool],
        cost: &[u64],
        from: u32,
        out: &mut Vec<u64>,
    ) {
        self.run(adj, viable, cost, from, &[]);
        out.clone_from(&self.dist);
    }
}
