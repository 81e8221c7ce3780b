//! The controller's route search: unweighted shortest paths over the
//! links it believes are installed, for a flow's primary and — with
//! the primary's edges left out — its edge-disjoint alternate.

use std::collections::{BTreeSet, VecDeque};
use tssdn_sim::PlatformId;

/// An undirected platform graph as `route_over` searches it: per
/// platform id, its neighbors in the order the sorted edge set lists
/// them. Platform ids are the fleet's dense indices, so the table is
/// as long as the largest id in the set.
pub(super) struct RouteGraph {
    adj: Vec<Vec<PlatformId>>,
}

impl RouteGraph {
    pub(super) fn new(edges: &BTreeSet<(PlatformId, PlatformId)>) -> Self {
        let len = edges.iter().map(|&(a, b)| a.max(b).0 as usize + 1).max();
        let mut adj = vec![Vec::new(); len.unwrap_or(0)];
        for &(a, b) in edges {
            adj[a.0 as usize].push(b);
            adj[b.0 as usize].push(a);
        }
        RouteGraph { adj }
    }
}

/// Shortest path from `from` to any node in `targets` over `graph`,
/// never crossing an edge listed in `without` (as `(min, max)` pairs).
/// BFS — links are unweighted here — visiting neighbors in `graph`'s
/// order, so the answer is the one a search over an adjacency rebuilt
/// from the edge set minus `without` would give.
pub(super) fn route_over(
    graph: &RouteGraph,
    from: PlatformId,
    targets: &[PlatformId],
    without: &[(PlatformId, PlatformId)],
) -> Option<Vec<PlatformId>> {
    if targets.contains(&from) {
        return Some(vec![from]);
    }
    // Per platform id: the node it was reached from.
    const UNSEEN: u32 = u32::MAX;
    let mut prev = vec![UNSEEN; graph.adj.len()];
    let mut q = VecDeque::new();
    // A source outside the graph has no edge to leave by.
    *prev.get_mut(from.0 as usize)? = from.0;
    q.push_back(from);
    while let Some(n) = q.pop_front() {
        if targets.contains(&n) {
            let mut path = vec![n];
            let mut cur = n;
            while prev[cur.0 as usize] != cur.0 {
                cur = PlatformId(prev[cur.0 as usize]);
                path.push(cur);
            }
            path.reverse();
            return Some(path);
        }
        for &m in &graph.adj[n.0 as usize] {
            if prev[m.0 as usize] == UNSEEN && !without.contains(&(n.min(m), n.max(m))) {
                prev[m.0 as usize] = n.0;
                q.push_back(m);
            }
        }
    }
    None
}

#[cfg(test)]
pub(super) mod tests {
    use super::*;
    use std::collections::BTreeMap;

    /// `route_over` as it was before a route program shared one adjacency: a
    /// BFS over an id-ordered adjacency rebuilt from whatever edge set
    /// it is handed.
    fn route_over_rebuilding(
        edges: &BTreeSet<(PlatformId, PlatformId)>,
        from: PlatformId,
        targets: &[PlatformId],
    ) -> Option<Vec<PlatformId>> {
        if targets.contains(&from) {
            return Some(vec![from]);
        }
        let mut adj: BTreeMap<PlatformId, Vec<PlatformId>> = BTreeMap::new();
        for (a, b) in edges {
            adj.entry(*a).or_default().push(*b);
            adj.entry(*b).or_default().push(*a);
        }
        let mut prev: BTreeMap<PlatformId, PlatformId> = BTreeMap::new();
        let mut q = VecDeque::new();
        q.push_back(from);
        prev.insert(from, from);
        while let Some(n) = q.pop_front() {
            if targets.contains(&n) {
                let mut path = vec![n];
                let mut cur = n;
                while prev[&cur] != cur {
                    cur = prev[&cur];
                    path.push(cur);
                }
                path.reverse();
                return Some(path);
            }
            for m in adj.get(&n).into_iter().flatten() {
                if !prev.contains_key(m) {
                    prev.insert(*m, n);
                    q.push_back(*m);
                }
            }
        }
        None
    }

    /// For every source on `0..platforms`, all searching one shared
    /// graph as the requests of a route program do: the primary is the
    /// one a rebuild from `edges` finds, and the alternate the one a
    /// rebuild from `edges` minus the primary's finds.
    pub(in crate::orchestrator) fn same_routes_as_rebuilding(
        edges: &BTreeSet<(PlatformId, PlatformId)>,
        gateways: &[PlatformId],
        platforms: u32,
    ) -> Result<(), String> {
        let graph = RouteGraph::new(edges);
        for from in (0..platforms).map(PlatformId) {
            let primary = route_over(&graph, from, gateways, &[]);
            if primary != route_over_rebuilding(edges, from, gateways) {
                return Err(format!("primary from {from:?}: {primary:?}"));
            }
            let Some(path) = primary else { continue };
            let used: Vec<(PlatformId, PlatformId)> = path
                .windows(2)
                .map(|w| (w[0].min(w[1]), w[0].max(w[1])))
                .collect();
            let mut reduced = edges.clone();
            for e in &used {
                reduced.remove(e);
            }
            let alt = route_over(&graph, from, gateways, &used);
            if alt != route_over_rebuilding(&reduced, from, gateways) {
                return Err(format!("alternate from {from:?} around {path:?}: {alt:?}"));
            }
        }
        Ok(())
    }

    pub(in crate::orchestrator) fn edge_set(
        pairs: &[(u32, u32)],
    ) -> BTreeSet<(PlatformId, PlatformId)> {
        pairs
            .iter()
            .filter(|(a, b)| a != b)
            .map(|&(a, b)| (PlatformId(a.min(b)), PlatformId(a.max(b))))
            .collect()
    }

    pub(in crate::orchestrator) fn filtered_search_handles_cuts_gateway_sources_and_strays() {
        // A ring 0-1-2-3 hung off gateway 5 by the bridge 3-4-5: every
        // primary crosses the cut, so no alternate exists; 5 is its
        // own route; 6 has no edge; 9 is beyond the graph's last id.
        let edges = edge_set(&[(0, 1), (1, 2), (2, 3), (0, 3), (3, 4), (4, 5)]);
        let gateways = [PlatformId(5)];
        same_routes_as_rebuilding(&edges, &gateways, 10).expect("same routes");
        let graph = RouteGraph::new(&edges);
        let route = |from, without: &[_]| route_over(&graph, PlatformId(from), &gateways, without);
        let ids = |path: &[u32]| Some(path.iter().copied().map(PlatformId).collect::<Vec<_>>());
        assert_eq!(route(0, &[]), ids(&[0, 3, 4, 5]));
        let cut = [(PlatformId(3), PlatformId(4))];
        assert_eq!(route(0, &cut), None, "the bridge is the only way out");
        let side = [(PlatformId(0), PlatformId(3))];
        assert_eq!(
            route(0, &side),
            ids(&[0, 1, 2, 3, 4, 5]),
            "the long way round"
        );
        assert_eq!(route(5, &cut), ids(&[5]));
        assert_eq!(route(6, &[]), None);
        assert_eq!(route(9, &[]), None);
        // Two gateways: the alternate may end at the other one.
        let edges = edge_set(&[(0, 1), (1, 2), (0, 3), (3, 4)]);
        same_routes_as_rebuilding(&edges, &[PlatformId(2), PlatformId(4)], 5).expect("same routes");
    }
}
