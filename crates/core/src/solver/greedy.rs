//! The greedy utility iteration of Appendix B: route every demand over
//! the viable graph, credit each link on a route with the bits it
//! carries, select the highest-utility link, mark what is incompatible
//! with it inviable, repeat until no viable link has utility.
//!
//! Utility estimation is incremental ([`Routing`]): each selection
//! re-routes only the demands whose cached path used a
//! just-invalidated candidate or the selected one, plus those a
//! two-Dijkstra lower-bound test says could profit from the newly
//! discounted selected edge. Every other cached shortest path is
//! provably what a full re-run of Dijkstra would return — edge costs
//! only change by candidate removal or by the selected edge's
//! discount, so the bound is exact.

use super::incumbents::CandidateState;
use super::index::{LiveLists, SolveIndex};
use super::search::{FoundPath, Search};
use super::{scale_cost, Solver};
use std::collections::BTreeMap;
use tssdn_dataplane::BackhaulRequest;
use tssdn_sim::PlatformId;

/// Each satisfied request's platform path, keyed by `(node, ec)`.
pub(super) type Routes = BTreeMap<(PlatformId, PlatformId), Vec<PlatformId>>;

/// Per-request routing state: where each request starts and may end,
/// and its cached shortest path over the viable graph.
pub(super) struct Routing {
    /// Interned source node and index into `gateway_sets`.
    endpoints: Vec<(u32, usize)>,
    /// The sorted interned gateway set of each distinct EC.
    gateway_sets: Vec<Vec<u32>>,
    /// The cached path; `None` before the first route and for good
    /// once a route finds none: the viable graph only shrinks during
    /// the iteration (selection discounts an existing edge, it never
    /// adds one), so reachability is monotone decreasing.
    pub(super) path: Vec<Option<FoundPath>>,
    /// The cached path may no longer be the shortest. Only ever set
    /// again on a request that has a path.
    pub(super) needs_route: Vec<bool>,
    search: Search,
    dist_u: Vec<u64>,
    dist_v: Vec<u64>,
}

impl Routing {
    pub(super) fn new(
        index: &SolveIndex,
        requests: &[BackhaulRequest],
        gateways: &BTreeMap<PlatformId, Vec<PlatformId>>,
    ) -> Self {
        let gateway_sets = gateways
            .values()
            .map(|gws| {
                let mut slots: Vec<u32> = gws.iter().map(|g| index.slot_of(*g)).collect();
                slots.sort_unstable();
                slots.dedup();
                slots
            })
            .collect();
        let set_of: BTreeMap<PlatformId, usize> = gateways.keys().copied().zip(0..).collect();
        let nr = requests.len();
        Routing {
            endpoints: requests
                .iter()
                .map(|r| (index.slot_of(r.node), set_of[&r.ec]))
                .collect(),
            gateway_sets,
            path: (0..nr).map(|_| None).collect(),
            needs_route: vec![true; nr],
            search: Search::new(index.plats.len()),
            dist_u: Vec::new(),
            dist_v: Vec::new(),
        }
    }

    /// (Re)route the demands whose cached path may have changed.
    pub(super) fn reroute_pending(&mut self, live: &LiveLists, state: &CandidateState) {
        for r in 0..self.path.len() {
            if !self.needs_route[r] {
                continue;
            }
            self.needs_route[r] = false;
            let (node, set) = self.endpoints[r];
            let gws = &self.gateway_sets[set];
            self.path[r] = if gws.is_empty() {
                None
            } else {
                self.search
                    .nearest(&live.adj, &state.viable, &state.cost, node, gws)
            };
        }
    }

    /// Utilities from the cached routes: carried bits credited to each
    /// *unselected* candidate on a demand's path, accumulated in
    /// request order (same f64 addend order as the reference).
    fn credit_utilities(
        &self,
        requests: &[BackhaulRequest],
        is_selected: &[bool],
        utilities: &mut [f64],
    ) {
        utilities.fill(0.0);
        for (req, path) in requests.iter().zip(&self.path) {
            let Some(path) = path else { continue };
            for &e in &path.edges {
                if !is_selected[e as usize] {
                    utilities[e as usize] += req.min_bitrate_bps as f64;
                }
            }
        }
    }

    /// Mark the cached paths the selection of `best`, and the
    /// invalidation that followed it, may have changed. A path must be
    /// recomputed when (a) it used a candidate that just became
    /// inviable — every cached path was routed or re-checked since the
    /// selection before, so an inviable edge on one died just now —
    /// (b) it used the selected candidate (whose cost just dropped),
    /// or (c) a path through the newly discounted selected edge could
    /// now match or beat it. For (c), two Dijkstra sweeps from the
    /// selected edge's endpoints give dist(u→·)/dist(v→·);
    /// `dist(node→u) + cost(u,v) + dist(v→gw)` (both orientations)
    /// lower-bounds every route through the edge, so `lb > cached`
    /// proves the cached path is still exactly what a full recompute
    /// would return.
    pub(super) fn mark_after_selection(
        &mut self,
        index: &SolveIndex,
        live: &LiveLists,
        state: &CandidateState,
        best: usize,
    ) {
        for (path, needs_route) in self.path.iter().zip(&mut self.needs_route) {
            let Some(path) = path else { continue };
            *needs_route = path
                .edges
                .iter()
                .any(|&e| e as usize == best || !state.viable[e as usize]);
        }
        let (u, v) = index.endpoints[best];
        let (viable, cost) = (&state.viable, &state.cost);
        self.search
            .all_distances(&live.adj, viable, cost, u, &mut self.dist_u);
        self.search
            .all_distances(&live.adj, viable, cost, v, &mut self.dist_v);
        let (dist_u, dist_v, edge_cost) = (&self.dist_u, &self.dist_v, cost[best]);
        for r in 0..self.path.len() {
            let (false, Some(path)) = (self.needs_route[r], &self.path[r]) else {
                continue;
            };
            let (node, set) = self.endpoints[r];
            let gws = &self.gateway_sets[set];
            let nearest_gw = |dist: &[u64]| gws.iter().map(|&g| dist[g as usize]).min();
            let through = |near: &[u64], far: &[u64]| {
                near[node as usize]
                    .saturating_add(edge_cost)
                    .saturating_add(nearest_gw(far).unwrap_or(u64::MAX))
            };
            let lb = through(dist_u, dist_v).min(through(dist_v, dist_u));
            if lb <= path.cost {
                self.needs_route[r] = true;
            }
        }
    }

    /// The final routing over the selected links.
    fn into_routes(self, index: &SolveIndex, requests: &[BackhaulRequest]) -> Routes {
        let platforms = |p: FoundPath| p.nodes.iter().map(|&x| index.plats[x as usize]).collect();
        requests
            .iter()
            .zip(self.path)
            .filter_map(|(req, path)| Some(((req.node, req.ec), platforms(path?))))
            .collect()
    }
}

impl Solver {
    /// Run the iteration to its end: `state` gains the selections and
    /// loses what they invalidate; the routes are what is left cached.
    pub(super) fn greedy(
        &self,
        index: &SolveIndex,
        live: &LiveLists,
        requests: &[BackhaulRequest],
        gateways: &BTreeMap<PlatformId, Vec<PlatformId>>,
        state: &mut CandidateState,
    ) -> Routes {
        let links = index.links;
        let mut routing = Routing::new(index, requests, gateways);
        let mut utilities = vec![0.0f64; links.len()];
        loop {
            routing.reroute_pending(live, state);
            routing.credit_utilities(requests, &state.is_selected, &mut utilities);

            // Highest-utility *unselected* viable candidate; ties break
            // toward higher link margin (more robust choice), then — as
            // `max_by` does, here and in the reference — toward the
            // later index. A NaN utility fails `> 0.0` in both.
            let rank = |i: usize| (utilities[i], links[i].margin_db);
            let best = (state.survivors.iter().map(|&i| i as usize))
                .filter(|&i| state.viable[i] && !state.is_selected[i] && utilities[i] > 0.0)
                .max_by(|&x, &y| rank(x).partial_cmp(&rank(y)).expect("finite"));
            let Some(best) = best else {
                return routing.into_routes(index, requests);
            };
            let cost = self.edge_cost(&links[best], state.in_previous[best], true);
            state.select(best, scale_cost(cost));
            self.invalidate_conflicting(index, live, best, &mut state.viable);
            routing.mark_after_selection(index, live, state, best);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::tests::{cand, req};
    use std::collections::BTreeSet;
    use tssdn_dataplane::DrainRegistry;
    use tssdn_rf::LinkQuality::Acceptable;
    use tssdn_sim::SimTime;

    #[test]
    fn a_selection_that_kills_one_cached_path_marks_that_request_alone() {
        // Two islands: 0 — GS100 serves request 0, 2 — GS101 request 1.
        // Candidate 2 wants the GS100 antenna candidate 0 is routed over.
        let links = [
            cand(0, 0, 100, 0, 10.0, Acceptable),
            cand(2, 0, 101, 0, 10.0, Acceptable),
            cand(1, 0, 100, 0, 10.0, Acceptable),
        ];
        let requests = [req(0, 200), req(2, 201)];
        let gateways = BTreeMap::from([
            (PlatformId(200), vec![PlatformId(100)]),
            (PlatformId(201), vec![PlatformId(101)]),
        ]);
        let solver = Solver::default();
        let index = SolveIndex::build(&links, &requests, &gateways);
        let mut state = solver.place_incumbents(
            &index,
            &BTreeSet::new(),
            &DrainRegistry::new(),
            SimTime::ZERO,
        );
        let live = LiveLists::build(&index, &state.survivors);
        let mut routing = Routing::new(&index, &requests, &gateways);
        routing.reroute_pending(&live, &state);
        let edges = |r: &Routing| -> Vec<Option<Vec<u32>>> {
            (r.path.iter())
                .map(|p| p.as_ref().map(|p| p.edges.clone()))
                .collect()
        };
        assert_eq!(edges(&routing), [Some(vec![0]), Some(vec![1])]);
        assert_eq!(routing.needs_route, [false, false]);

        state.select(2, 100_000);
        solver.invalidate_conflicting(&index, &live, 2, &mut state.viable);
        assert_eq!(state.viable, [false, true, true]);
        routing.mark_after_selection(&index, &live, &state, 2);
        assert_eq!(routing.needs_route, [true, false]);

        // Re-routed, request 0 has nowhere to go; request 1 never moved.
        routing.reroute_pending(&live, &state);
        assert_eq!(edges(&routing), [None, Some(vec![1])]);
        assert_eq!(routing.needs_route, [false, false]);
    }
}
