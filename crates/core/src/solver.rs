//! The topology Solver: Appendix B's greedy utility iteration.
//!
//! > "mark all possible links as viable; estimate the utility of all
//! > viable links; while there exist viable links with positive
//! > estimated utility do: add highest utility link to solution set;
//! > mark as inviable any links incompatible with it; estimate the
//! > utility of all viable links."
//!
//! Link utility follows the paper's "intuitive heuristic": route each
//! traffic demand to its destination over the graph of viable links
//! and take each link's carried traffic as its utility. Link costs
//! "encourage continuity of link selections (i.e. hysteresis)" — the
//! paper's §3.2 bias "toward topologies that kept established links" —
//! and penalize marginal links and draining nodes.
//!
//! After demand-driven selection, a secondary pass "added redundant
//! links using otherwise idle E band transceivers to enable faster
//! failover" (§3.2), targeting a configurable fraction of remaining
//! transceivers (the paper intended ~70% at median, Figure 7).

use crate::evaluator::{platform_runs, CandidateGraph, CandidateLink};
use std::collections::{BTreeMap, BTreeSet, BinaryHeap};
use tssdn_dataplane::{BackhaulRequest, DrainRegistry};
use tssdn_geo::AzEl;
use tssdn_link::TransceiverId;
use tssdn_rf::LinkQuality;
use tssdn_sim::{PlatformId, SimTime};

/// Fixed-point contract for path costs.
///
/// Dijkstra compares path costs as `u64` micro-units: an edge cost `c`
/// (a small positive f64, ≥ 0.05 by construction) maps to
/// `round(c * 1e6)`. Rounding — not truncation — so that two edges
/// with the same nominal f64 cost always map to the same integer
/// (truncation aliased e.g. `0.6 * 1e6 = 599999.99…` down to a
/// *different* integer than the exact `600000`, perturbing tie-breaks
/// between equal-cost paths). Resolution is 1e-6 cost units; sums stay
/// far below `u64::MAX` for any realistic path (< 1.8e13 total cost).
/// Both the optimized solver and the retained naive reference
/// ([`crate::reference`]) route through this one function so their
/// arithmetic is identical.
pub(crate) fn scale_cost(c: f64) -> u64 {
    (c * 1e6).round() as u64
}

/// Solver tunables.
#[derive(Debug, Clone, Copy)]
pub struct SolverConfig {
    /// Cost discount for links present in the previous topology
    /// (hysteresis; subtracted from the hop cost).
    pub hysteresis_bonus: f64,
    /// Extra cost for marginal-quality links.
    pub marginal_penalty: f64,
    /// Fraction of post-demand idle transceivers to task with
    /// redundant links (the paper's intended ~0.7).
    pub redundancy_target: f64,
    /// Minimum angular separation (degrees) between same-band links
    /// sharing a platform (interference constraint).
    pub min_beam_separation_deg: f64,
}

impl Default for SolverConfig {
    fn default() -> Self {
        SolverConfig {
            hysteresis_bonus: 0.4,
            marginal_penalty: 2.0,
            redundancy_target: 0.7,
            min_beam_separation_deg: 5.0,
        }
    }
}

/// The solver's output for one time slice.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TopologyPlan {
    /// When this plan is for.
    pub at: SimTime,
    /// Links selected to carry demand.
    pub demand_links: Vec<CandidateLink>,
    /// Extra links tasked for redundancy.
    pub redundant_links: Vec<CandidateLink>,
    /// Platform-level path for each satisfied request, keyed by
    /// `(node, ec)`.
    pub routes: BTreeMap<(PlatformId, PlatformId), Vec<PlatformId>>,
    /// Requests that could not be satisfied.
    pub unsatisfied: Vec<(PlatformId, PlatformId)>,
    /// How many selected links were kept from the previous topology.
    pub kept_links: usize,
}

impl TopologyPlan {
    /// All selected links (demand + redundant).
    pub fn all_links(&self) -> impl Iterator<Item = &CandidateLink> {
        self.demand_links.iter().chain(self.redundant_links.iter())
    }

    /// The pairing-key set of the whole plan.
    pub fn key_set(&self) -> BTreeSet<(TransceiverId, TransceiverId)> {
        self.all_links().map(|l| l.key()).collect()
    }

    /// A scalar value for this solution — §6 recommendation 4:
    /// "improve confidence in solver adjustments by identifying a
    /// metric for the value of each given network solution."
    ///
    /// Components: satisfied-demand fraction (dominant), margin
    /// headroom of the selected links (robustness), redundant links
    /// per satisfied demand (failover capacity), and a penalty per
    /// marginal link in the demand set. Scores are comparable across
    /// solves of the same request set.
    pub fn utility_score(&self, num_requests: usize) -> PlanScore {
        let satisfied = self.routes.len();
        let demand_fraction = if num_requests == 0 {
            1.0
        } else {
            satisfied as f64 / num_requests as f64
        };
        let (margin_sum, margin_n) = self
            .all_links()
            .fold((0.0f64, 0usize), |(s, n), l| (s + l.margin_db, n + 1));
        let mean_margin = if margin_n == 0 {
            0.0
        } else {
            margin_sum / margin_n as f64
        };
        let marginal_links = self
            .demand_links
            .iter()
            .filter(|l| l.quality == tssdn_rf::LinkQuality::Marginal)
            .count();
        let redundancy_ratio = if satisfied == 0 {
            0.0
        } else {
            self.redundant_links.len() as f64 / satisfied as f64
        };
        let total = 100.0 * demand_fraction
            + (mean_margin / 2.0).clamp(0.0, 10.0)
            + 10.0 * redundancy_ratio.min(1.0)
            - 2.0 * marginal_links as f64;
        PlanScore {
            total,
            demand_fraction,
            mean_margin_db: mean_margin,
            redundancy_ratio,
            marginal_links,
        }
    }

    /// Render the plan as an operator-facing goal state — §6
    /// recommendation 3: "put individual changes in context by
    /// surfacing a near-term goal state from the solver, and the
    /// expected sequence of intents to reach it." `current` is the
    /// installed pairing-key set; the rendering lists keeps, adds and
    /// removals in actuation order (teardowns before the
    /// establishments that reuse their radios).
    pub fn render_goal_state(
        &self,
        current: &BTreeSet<(TransceiverId, TransceiverId)>,
        num_requests: usize,
    ) -> String {
        use std::fmt::Write as _;
        let goal = self.key_set();
        let mut out = String::new();
        let score = self.utility_score(num_requests);
        let _ = writeln!(
            out,
            "goal topology @ {}: {} links ({} demand + {} redundant), score {:.1}",
            self.at,
            goal.len(),
            self.demand_links.len(),
            self.redundant_links.len(),
            score.total
        );
        let _ = writeln!(
            out,
            "  demand: {}/{} satisfied; mean margin {:.1} dB; {} marginal",
            self.routes.len(),
            num_requests,
            score.mean_margin_db,
            score.marginal_links
        );
        let keeps = goal.intersection(current).count();
        let _ = writeln!(out, "  keep {keeps} installed links");
        for k in current.difference(&goal) {
            let _ = writeln!(out, "  1. withdraw {} — {}", k.0, k.1);
        }
        for l in self.all_links().filter(|l| !current.contains(&l.key())) {
            let _ = writeln!(
                out,
                "  2. establish {} — {} ({:.0} Mbps, {:+.1} dB)",
                l.a,
                l.b,
                l.bitrate_bps as f64 / 1e6,
                l.margin_db
            );
        }
        for (flow, path) in &self.routes {
            let hops: Vec<String> = path.iter().map(|p| p.to_string()).collect();
            let _ = writeln!(
                out,
                "  3. route {} → {}: {}",
                flow.0,
                flow.1,
                hops.join(" → ")
            );
        }
        out
    }
}

/// The components of a plan's utility score.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanScore {
    /// The combined scalar (higher is better).
    pub total: f64,
    /// Fraction of requests routed.
    pub demand_fraction: f64,
    /// Mean modelled margin over selected links, dB.
    pub mean_margin_db: f64,
    /// Redundant links per satisfied demand (capped contribution).
    pub redundancy_ratio: f64,
    /// Marginal-quality links carrying demand.
    pub marginal_links: usize,
}

/// The greedy solver.
#[derive(Debug, Clone, Default)]
pub struct Solver {
    /// Configuration.
    pub config: SolverConfig,
    /// Per-platform-pair cost multipliers from the enactment feedback
    /// loop (§7 future work; empty when the loop is off). Keyed by
    /// `(min, max)` platform id.
    pub pair_penalties: BTreeMap<(PlatformId, PlatformId), f64>,
}

impl Solver {
    /// Solver with the given config.
    pub fn new(config: SolverConfig) -> Self {
        Solver {
            config,
            pair_penalties: BTreeMap::new(),
        }
    }

    /// Solve one time slice.
    ///
    /// * `candidates` — the evaluator's output.
    /// * `requests` — connectivity demands (node → EC pod).
    /// * `gateways_to_ec` — for each EC, the ground stations with an
    ///   up tunnel to it.
    /// * `previous` — pairing keys of the currently-installed
    ///   topology (hysteresis input).
    /// * `drains` — administrative drains to respect.
    ///
    /// This is the optimized hot path. It is required to produce
    /// output **bit-identical** to the retained naive implementation
    /// ([`crate::reference::solve_reference`]) — same demand links in
    /// the same order, same redundant links, same routes — which is
    /// what the golden-equivalence gates in `tests/props.rs` and
    /// `tests/golden_determinism.rs` assert. The optimizations over
    /// the naive O(iterations × requests × Dijkstra) loop, in the order
    /// the phases run (DESIGN.md §7):
    ///
    /// * platforms interned to dense slots by sort + dedup
    ///   ([`SolveIndex`]); everything after runs over flat slot-indexed
    ///   arrays instead of `BTreeMap`s and `BTreeSet`s;
    /// * incumbents first ([`Self::place_incumbents`]): previous-
    ///   topology membership is answered from the previous keys
    ///   outward, the incumbents are placed against each other in
    ///   margin order, and one pass settles every other candidate
    ///   against the kept set — transceiver flag first, beam test only
    ///   between two idle transceivers. No list exists yet;
    /// * only then is anything indexed, over the survivors
    ///   ([`LiveLists`]) — a few per cent of the graph on a warm solve,
    ///   all of it on a cold one: the conflict lists (by transceiver,
    ///   by platform × band) that replace the O(n) conflict rescan per
    ///   selection, with the beam test inside them memoised on the
    ///   other beam's bit pattern, and the adjacency every Dijkstra
    ///   scans, each in ascending candidate order;
    /// * utility estimation is incremental: each selection re-routes
    ///   only the demands whose cached path used a just-invalidated
    ///   candidate, plus those a cheap two-Dijkstra lower-bound test
    ///   says could profit from the newly discounted selected edge —
    ///   every other cached shortest path is provably what a full
    ///   re-run of Dijkstra would return (edge costs only change by
    ///   candidate removal or by the selected edge's discount, so the
    ///   bound is exact).
    #[allow(clippy::too_many_arguments)]
    pub fn solve(
        &self,
        candidates: &CandidateGraph,
        requests: &[BackhaulRequest],
        gateways_to_ec: &dyn Fn(PlatformId) -> Vec<PlatformId>,
        previous: &BTreeSet<(TransceiverId, TransceiverId)>,
        drains: &DrainRegistry,
        now: SimTime,
    ) -> TopologyPlan {
        let links = &candidates.links;
        let n = links.len();
        let mut plan = TopologyPlan {
            at: candidates.at,
            ..Default::default()
        };

        // ---- one-shot preprocessing ----------------------------------
        let mut gateways: BTreeMap<PlatformId, Vec<PlatformId>> = BTreeMap::new();
        for r in requests {
            gateways.entry(r.ec).or_insert_with(|| gateways_to_ec(r.ec));
        }
        let index = SolveIndex::build(links, requests, &gateways);
        let np = index.plats.len();

        // Incumbents first: the previous topology is placed, and every
        // other candidate settled against it, before anything is
        // indexed — what gets indexed is the few per cent still alive.
        let Placement {
            in_previous,
            mut viable,
            mut is_selected,
            kept: mut selected_order,
        } = self.place_incumbents(links, &index, previous, drains, now);
        plan.kept_links = selected_order.len();
        // Ascending, so every list below is in candidate order and a
        // walk of one sees the live entries a walk of the full list
        // would have seen, in the same sequence.
        let survivors: Vec<u32> = (0..n as u32).filter(|&i| viable[i as usize]).collect();
        let live = LiveLists::build(&index, links, &survivors);
        debug_assert!(
            live.adj.items.iter().all(|&(_, e)| viable[e as usize]),
            "indexed before the incumbents were placed"
        );

        // The current fixed-point cost of each live candidate (an
        // edge's cost only ever changes at the moment it is selected;
        // a dead candidate's is never read).
        let mut cost = vec![0u64; n];
        for &i in &survivors {
            let i = i as usize;
            cost[i] = scale_cost(self.edge_cost(&links[i], in_previous[i], is_selected[i]));
        }

        // Per-request routing state: interned source node, sorted
        // interned gateway set, and the cached shortest path (nodes,
        // candidate edges, fixed-point cost).
        let nr = requests.len();
        let gateway_slots: BTreeMap<PlatformId, Vec<u32>> = gateways
            .iter()
            .map(|(ec, gws)| {
                let mut slots: Vec<u32> = gws.iter().map(|g| index.slot_of(*g)).collect();
                slots.sort_unstable();
                slots.dedup();
                (*ec, slots)
            })
            .collect();
        let req_endpoints: Vec<(u32, &[u32])> = requests
            .iter()
            .map(|r| (index.slot_of(r.node), gateway_slots[&r.ec].as_slice()))
            .collect();
        let mut route_nodes: Vec<Option<Vec<u32>>> = vec![None; nr];
        let mut route_edges: Vec<Vec<u32>> = vec![Vec::new(); nr];
        let mut route_cost: Vec<u64> = vec![u64::MAX; nr];
        let mut needs_route: Vec<bool> = vec![true; nr];
        // Once unroutable, always unroutable: the viable graph only
        // shrinks during the greedy iteration (selection discounts an
        // existing edge, it never adds one), so reachability is
        // monotone decreasing.
        let mut dead: Vec<bool> = vec![false; nr];
        let mut edge_dirty: Vec<bool> = vec![false; n];
        let mut utilities = vec![0.0f64; n];
        let mut scratch_invalidated: Vec<u32> = Vec::new();
        let mut search = Search::new(np);
        let (mut dist_u, mut dist_v) = (Vec::new(), Vec::new());

        // Greedy utility iteration (Appendix B).
        loop {
            // (Re)route the demands whose cached path may have changed.
            for r in 0..nr {
                if !needs_route[r] || dead[r] {
                    continue;
                }
                needs_route[r] = false;
                let (node, gws) = req_endpoints[r];
                let found = if gws.is_empty() {
                    None
                } else {
                    search.nearest(&live.adj, &viable, &cost, node, gws)
                };
                match found {
                    Some((nodes, edges, cost)) => {
                        route_nodes[r] = Some(nodes);
                        route_edges[r] = edges;
                        route_cost[r] = cost;
                    }
                    None => {
                        route_nodes[r] = None;
                        route_edges[r].clear();
                        route_cost[r] = u64::MAX;
                        dead[r] = true;
                    }
                }
            }

            // Utilities from the cached routes: carried bits credited
            // to each *unselected* candidate on a demand's path,
            // accumulated in request order (same f64 addend order as
            // the reference).
            utilities.fill(0.0);
            for (r, req) in requests.iter().enumerate() {
                for &e in &route_edges[r] {
                    if !is_selected[e as usize] {
                        utilities[e as usize] += req.min_bitrate_bps as f64;
                    }
                }
            }

            // Highest-utility *unselected* viable candidate; ties break
            // toward higher link margin (more robust choice), then —
            // matching `Iterator::max_by` — toward the later index.
            let mut best: Option<usize> = None;
            for i in survivors.iter().map(|&i| i as usize) {
                // NB `partial_cmp`, not `<= 0.0`: a NaN utility must be
                // skipped here exactly as the reference's `u > 0.0`
                // filter skips it.
                if !viable[i]
                    || is_selected[i]
                    || utilities[i].partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater)
                {
                    continue;
                }
                best = match best {
                    None => Some(i),
                    Some(b) => {
                        let keep_b = (utilities[b], links[b].margin_db)
                            .partial_cmp(&(utilities[i], links[i].margin_db))
                            .expect("finite")
                            == std::cmp::Ordering::Greater;
                        Some(if keep_b { b } else { i })
                    }
                };
            }
            let Some(best) = best else {
                // Done: record the final routing over selected links.
                for (r, req) in requests.iter().enumerate() {
                    if let Some(nodes) = &route_nodes[r] {
                        plan.routes.insert(
                            (req.node, req.ec),
                            nodes.iter().map(|&x| index.plats[x as usize]).collect(),
                        );
                    }
                }
                plan.unsatisfied = requests
                    .iter()
                    .map(|r| (r.node, r.ec))
                    .filter(|k| !plan.routes.contains_key(k))
                    .collect();
                break;
            };
            is_selected[best] = true;
            cost[best] = scale_cost(self.edge_cost(&links[best], in_previous[best], true));
            selected_order.push(best);
            if in_previous[best] {
                plan.kept_links += 1;
            }
            // Invalidate incompatible candidates via the index.
            scratch_invalidated.clear();
            self.invalidate_conflicting(
                links,
                &index,
                &live,
                best,
                &mut viable,
                &mut scratch_invalidated,
            );

            // Incremental re-route planning. A cached path must be
            // recomputed when (a) it used a candidate that just became
            // inviable, (b) it used the selected candidate (whose cost
            // just dropped), or (c) a path through the newly discounted
            // selected edge could now match or beat it. For (c), two
            // Dijkstra sweeps from the selected edge's endpoints give
            // dist(u→·)/dist(v→·); `dist(node→u) + cost(u,v) +
            // dist(v→gw)` (both orientations) lower-bounds every route
            // through the edge, so `lb > cached` proves the cached path
            // is still exactly what a full recompute would return.
            for &e in &scratch_invalidated {
                edge_dirty[e as usize] = true;
            }
            for r in 0..nr {
                if dead[r] || route_nodes[r].is_none() {
                    continue;
                }
                if route_edges[r]
                    .iter()
                    .any(|&e| e as usize == best || edge_dirty[e as usize])
                {
                    needs_route[r] = true;
                }
            }
            for &e in &scratch_invalidated {
                edge_dirty[e as usize] = false;
            }
            let (u, v) = index.endpoints[best];
            search.all_distances(&live.adj, &viable, &cost, u, &mut dist_u);
            search.all_distances(&live.adj, &viable, &cost, v, &mut dist_v);
            let edge_cost = cost[best];
            for r in 0..nr {
                if dead[r] || needs_route[r] || route_nodes[r].is_none() {
                    continue;
                }
                let (node, gws) = req_endpoints[r];
                let mut gw_u = u64::MAX;
                let mut gw_v = u64::MAX;
                for &g in gws {
                    gw_u = gw_u.min(dist_u[g as usize]);
                    gw_v = gw_v.min(dist_v[g as usize]);
                }
                let lb = (dist_u[node as usize]
                    .saturating_add(edge_cost)
                    .saturating_add(gw_v))
                .min(
                    dist_v[node as usize]
                        .saturating_add(edge_cost)
                        .saturating_add(gw_u),
                );
                if lb <= route_cost[r] {
                    needs_route[r] = true;
                }
            }
        }
        plan.demand_links = selected_order.iter().map(|i| links[*i]).collect();

        // Redundancy pass over idle transceivers.
        self.add_redundancy(
            links,
            &index,
            &mut plan,
            &selected_order,
            &survivors,
            &viable,
            &is_selected,
            &in_previous,
        );
        plan
    }

    /// Structural hysteresis, before anything is indexed: keep every
    /// incumbent link that is still a viable candidate, then settle
    /// every other candidate against the kept set. "Link
    /// reconfigurations were risky as they failed often and had high
    /// recovery costs. We biased toward the selection of high utility
    /// links and dampened the rate of change by biasing toward
    /// topologies that kept established links" (§3.2). An incumbent is
    /// only dropped when the evaluator no longer offers it at all (the
    /// predictive withdrawal of a degrading link), it touches a
    /// drained platform, or it conflicts with an already-kept link.
    ///
    /// The reference keeps an incumbent and at once rescans the graph
    /// for what it kills; here nothing is killed until all are placed.
    /// Same result: a candidate is dead after the incumbents iff some
    /// kept link `conflicts` with it, `conflicts` is symmetric to the
    /// bit, and two conflicting links share a platform — so an
    /// incumbent's turn finds it viable iff no link kept *before* it
    /// at its two platforms conflicts with it, and afterwards every
    /// other candidate's fate depends on the kept set alone, whatever
    /// order the pass visits them in.
    fn place_incumbents(
        &self,
        links: &[CandidateLink],
        index: &SolveIndex,
        previous: &BTreeSet<(TransceiverId, TransceiverId)>,
        drains: &DrainRegistry,
        now: SimTime,
    ) -> Placement {
        // Exclude candidates touching drained nodes outright.
        let drained: Vec<bool> = index
            .plats
            .iter()
            .map(|p| drains.excludes_new_paths(*p, now))
            .collect();
        let mut viable: Vec<bool> = index
            .endpoints
            .iter()
            .map(|&(pa, pb)| !drained[pa as usize] && !drained[pb as usize])
            .collect();
        let in_previous = index.previous_members(previous);

        let mut incumbents: Vec<usize> = (0..links.len())
            .filter(|i| viable[*i] && in_previous[*i])
            .collect();
        incumbents.sort_by(|x, y| {
            links[*y]
                .margin_db
                .partial_cmp(&links[*x].margin_db)
                .expect("finite margins")
        });
        let mut kept_on_tx = vec![NO_LINK; index.plats.len() * index.tx_stride];
        let mut is_selected = vec![false; links.len()];
        let mut kept = Vec::new();
        for i in incumbents {
            if self.conflicts_with_kept(links, index, &kept_on_tx, i) {
                viable[i] = false;
                continue;
            }
            let (tx_a, tx_b) = index.tx_slots[i];
            kept_on_tx[tx_a as usize] = i as u32;
            kept_on_tx[tx_b as usize] = i as u32;
            is_selected[i] = true;
            kept.push(i);
        }
        for i in 0..links.len() {
            if viable[i] && !is_selected[i] {
                viable[i] = !self.conflicts_with_kept(links, index, &kept_on_tx, i);
            }
        }
        Placement {
            in_previous,
            viable,
            is_selected,
            kept,
        }
    }

    /// Whether candidate `i` [`conflicts`](Self::conflicts) with a kept
    /// link, `kept_on_tx` naming the kept link on each transceiver
    /// slot. Cheapest test first: a taken transceiver is two loads;
    /// only a candidate between two idle transceivers reaches the beam
    /// test, against the at most `tx_stride` links kept at each end.
    fn conflicts_with_kept(
        &self,
        links: &[CandidateLink],
        index: &SolveIndex,
        kept_on_tx: &[u32],
        i: usize,
    ) -> bool {
        let (tx_a, tx_b) = index.tx_slots[i];
        if kept_on_tx[tx_a as usize] != NO_LINK || kept_on_tx[tx_b as usize] != NO_LINK {
            return true;
        }
        let (pa, pb) = index.endpoints[i];
        [pa, pb].into_iter().any(|p| {
            let first = p as usize * index.tx_stride;
            kept_on_tx[first..first + index.tx_stride]
                .iter()
                .any(|&k| k != NO_LINK && self.conflicts(&links[k as usize], &links[i]))
        })
    }

    /// The f64 cost of routing over one candidate — hysteresis,
    /// marginal penalty and enactment-feedback multiplier included.
    /// The naive reference spells the same arithmetic out inline.
    pub(crate) fn edge_cost(&self, l: &CandidateLink, in_previous: bool, is_selected: bool) -> f64 {
        let mut cost = if is_selected { 0.1 } else { 1.0 };
        if l.quality == LinkQuality::Marginal {
            cost += self.config.marginal_penalty;
        }
        if in_previous {
            cost = (cost - self.config.hysteresis_bonus).max(0.05);
        }
        // Enactment-feedback penalty: pairs that keep failing cost
        // more, steering demand toward alternates (§5's "better
        // policy").
        let pk = (
            l.a.platform.min(l.b.platform),
            l.a.platform.max(l.b.platform),
        );
        if let Some(m) = self.pair_penalties.get(&pk) {
            cost *= m;
        }
        cost
    }

    /// Mark every still-viable candidate that conflicts with
    /// `chosen_i` inviable, walking only the conflict index's
    /// per-transceiver and per-(platform, band) lists. Appends the
    /// indices actually flipped to `invalidated`.
    fn invalidate_conflicting(
        &self,
        links: &[CandidateLink],
        index: &SolveIndex,
        live: &LiveLists,
        chosen_i: usize,
        viable: &mut [bool],
        invalidated: &mut Vec<u32>,
    ) {
        let chosen = &links[chosen_i];
        // Shared-transceiver conflicts are unconditional.
        let (tx_a, tx_b) = index.tx_slots[chosen_i];
        for slot in [tx_a, tx_b] {
            for &j in live.by_tx.list(slot) {
                let j_us = j as usize;
                if j_us != chosen_i && viable[j_us] {
                    viable[j_us] = false;
                    invalidated.push(j);
                }
            }
        }
        // Same-band links sharing a platform need the angular check;
        // only candidates touching one of chosen's platforms on
        // chosen's band can possibly interfere. Everything sharing a
        // transceiver with `chosen` is already gone and the list fixes
        // the band, so what is left of `conflicts` is the beam test —
        // memoised per chosen end on the *bits of the other beam*
        // (the antenna pairings of one platform pair share a
        // direction and sit next to each other in the list; a
        // candidate graph may still carry two different directions
        // for one platform pair, so the pair is not a usable key).
        let chosen_ends = [
            (chosen.a.platform, chosen.pointing_a),
            (chosen.b.platform, chosen.pointing_b),
        ];
        let mut memo: [Option<((u64, u64), bool)>; 2] = [None, None];
        let (pa, pb) = index.endpoints[chosen_i];
        for p in [pa, pb] {
            for &j in live.by_platform_band.list(index.band_slot(p, chosen.band)) {
                let j_us = j as usize;
                if j_us == chosen_i || !viable[j_us] {
                    continue;
                }
                let other = &links[j_us];
                let other_ends = [
                    (other.a.platform, other.pointing_a),
                    (other.b.platform, other.pointing_b),
                ];
                let interferes = chosen_ends.iter().zip(memo.iter_mut()).any(
                    |((p_chosen, dir_chosen), memo)| {
                        other_ends.iter().any(|(p_other, dir_other)| {
                            p_chosen == p_other && self.beams_too_close(memo, dir_chosen, dir_other)
                        })
                    },
                );
                debug_assert_eq!(interferes, self.conflicts(chosen, other));
                if interferes {
                    viable[j_us] = false;
                    invalidated.push(j);
                }
            }
        }
    }

    /// `dir.angular_distance_deg(other) < min_beam_separation_deg`,
    /// remembered for the last `other` seen.
    fn beams_too_close(
        &self,
        memo: &mut Option<((u64, u64), bool)>,
        dir: &AzEl,
        other: &AzEl,
    ) -> bool {
        let key = (other.az_deg.to_bits(), other.el_deg.to_bits());
        match memo {
            Some((k, verdict)) if *k == key => *verdict,
            _ => {
                let verdict = dir.angular_distance_deg(other) < self.config.min_beam_separation_deg;
                *memo = Some((key, verdict));
                verdict
            }
        }
    }

    /// Whether two candidates cannot coexist: shared transceiver, or
    /// same platform + same band + beams closer than the separation
    /// minimum.
    pub(crate) fn conflicts(&self, a: &CandidateLink, b: &CandidateLink) -> bool {
        let shares_transceiver = a.a == b.a || a.a == b.b || a.b == b.a || a.b == b.b;
        if shares_transceiver {
            return true;
        }
        if a.band != b.band {
            return false;
        }
        // Same-band links sharing a platform must be angularly
        // separated.
        for (pa, dir_a) in [(a.a.platform, a.pointing_a), (a.b.platform, a.pointing_b)] {
            for (pb, dir_b) in [(b.a.platform, b.pointing_a), (b.b.platform, b.pointing_b)] {
                if pa == pb
                    && dir_a.angular_distance_deg(&dir_b) < self.config.min_beam_separation_deg
                {
                    return true;
                }
            }
        }
        false
    }

    /// Task idle transceivers with extra links for failover, up to the
    /// redundancy-target fraction (Figure 7's *intended* level).
    ///
    /// Same decisions as the set-and-map formulation the reference
    /// keeps, over flag vectors on the index's dense slots: a platform
    /// is `connected` / has a `degree`, a transceiver is `idle`, and
    /// the candidate order is a stable sort of keys computed once.
    #[allow(clippy::too_many_arguments)]
    fn add_redundancy(
        &self,
        links: &[CandidateLink],
        index: &SolveIndex,
        plan: &mut TopologyPlan,
        selected_order: &[usize],
        survivors: &[u32],
        viable: &[bool],
        is_selected: &[bool],
        in_previous: &[bool],
    ) {
        // Idle transceivers anywhere in the candidate graph are fair
        // game, but a redundant link must touch the demand topology on
        // at least one end — a detached island adds no failover value.
        let np = index.plats.len();
        let mut connected = vec![false; np];
        let mut degree = vec![0usize; np];
        let mut used = vec![false; np * index.tx_stride];
        for &i in selected_order {
            let (pa, pb) = index.endpoints[i];
            let (tx_a, tx_b) = index.tx_slots[i];
            connected[pa as usize] = true;
            connected[pb as usize] = true;
            degree[pa as usize] += 1;
            degree[pb as usize] += 1;
            used[tx_a as usize] = true;
            used[tx_b as usize] = true;
        }
        let mut idle = vec![false; used.len()];
        let mut idle_count = 0usize;
        for &(tx_a, tx_b) in &index.tx_slots {
            for tx in [tx_a as usize, tx_b as usize] {
                if !used[tx] && !idle[tx] {
                    idle[tx] = true;
                    idle_count += 1;
                }
            }
        }
        // Budget in *links*: each redundant link consumes two idle
        // transceivers. Rounding works on links so small meshes can
        // still task a pair (2 idle × 0.7 → 1 link).
        let link_budget =
            ((idle_count as f64 * self.config.redundancy_target) / 2.0).round() as usize;
        let mut tasked_links = 0usize;

        // Redundancy priorities: keep incumbents; protect singly-
        // connected platforms (a second link turns a link failure from
        // a disconnection into a reroute); prefer extra ground egress
        // (a redundant B2G link protects the whole mesh's backhaul);
        // then highest margin. A platform no demand link touches
        // counts as degree 9.
        struct Priority {
            candidate: u32,
            in_previous: bool,
            min_degree: usize,
            is_b2g: bool,
            margin_db: f64,
        }
        let degree_of = |p: u32| match degree[p as usize] {
            0 => 9,
            d => d,
        };
        let mut order: Vec<Priority> = survivors
            .iter()
            .map(|&i| i as usize)
            .filter(|i| viable[*i] && !is_selected[*i])
            .map(|i| {
                let (pa, pb) = index.endpoints[i];
                Priority {
                    candidate: i as u32,
                    in_previous: in_previous[i],
                    min_degree: degree_of(pa).min(degree_of(pb)),
                    is_b2g: links[i].kind == tssdn_link::LinkKind::B2G,
                    margin_db: links[i].margin_db,
                }
            })
            .collect();
        order.sort_by(|x, y| {
            y.in_previous
                .cmp(&x.in_previous)
                .then(x.min_degree.cmp(&y.min_degree))
                .then(y.is_b2g.cmp(&x.is_b2g))
                .then(
                    y.margin_db
                        .partial_cmp(&x.margin_db)
                        .expect("finite margins"),
                )
        });
        let mut chosen: Vec<CandidateLink> = Vec::new();
        for Priority { candidate, .. } in order {
            if tasked_links >= link_budget {
                break;
            }
            let i = candidate as usize;
            let l = &links[i];
            let (tx_a, tx_b) = index.tx_slots[i];
            if !idle[tx_a as usize] || !idle[tx_b as usize] {
                continue;
            }
            let (pa, pb) = index.endpoints[i];
            if !connected[pa as usize] && !connected[pb as usize] {
                continue;
            }
            // Redundant links must not interfere with anything chosen.
            if plan
                .demand_links
                .iter()
                .chain(chosen.iter())
                .any(|s| self.conflicts(s, l))
            {
                continue;
            }
            // Marginal links are not worth burning idle radios on.
            if l.quality == LinkQuality::Marginal {
                continue;
            }
            idle[tx_a as usize] = false;
            idle[tx_b as usize] = false;
            tasked_links += 1;
            chosen.push(*l);
        }
        plan.redundant_links = chosen;
    }
}

/// Lists keyed by a dense slot, stored back to back in one buffer:
/// list `s` is `items[start[s]..end[s]]`, each in the order its ids
/// were given (the order repeated `push`es per key would have
/// produced).
struct SlotLists<T> {
    start: Vec<u32>,
    end: Vec<u32>,
    items: Vec<T>,
}

impl<T: Copy + Default> SlotLists<T> {
    /// Build `n_slots` lists from the up-to-two `(slot, item)` entries
    /// each of `ids` contributes, in two counting-sort passes.
    fn build(
        n_slots: usize,
        ids: impl Iterator<Item = u32> + Clone,
        entries_of: impl Fn(usize) -> [Option<(u32, T)>; 2],
    ) -> Self {
        let mut start = vec![0u32; n_slots + 1];
        for i in ids.clone() {
            for (slot, _) in entries_of(i as usize).into_iter().flatten() {
                start[slot as usize + 1] += 1;
            }
        }
        for s in 0..n_slots {
            start[s + 1] += start[s];
        }
        let mut end = start[..n_slots].to_vec();
        let mut items = vec![T::default(); start[n_slots] as usize];
        for i in ids {
            for (slot, item) in entries_of(i as usize).into_iter().flatten() {
                let at = &mut end[slot as usize];
                items[*at as usize] = item;
                *at += 1;
            }
        }
        start.truncate(n_slots);
        SlotLists { start, end, items }
    }

    fn list(&self, slot: u32) -> &[T] {
        &self.items[self.start[slot as usize] as usize..self.end[slot as usize] as usize]
    }
}

/// "No kept link on this transceiver slot."
const NO_LINK: u32 = u32::MAX;

/// What [`Solver::place_incumbents`] hands the greedy loop.
struct Placement {
    /// Per candidate: its pairing key is in the previous topology.
    in_previous: Vec<bool>,
    /// Per candidate: not drained and in conflict with no kept link.
    viable: Vec<bool>,
    /// Per candidate: kept.
    is_selected: Vec<bool>,
    /// The kept incumbents, in the order they were placed.
    kept: Vec<usize>,
}

/// The per-solve dense index over one candidate graph: interned
/// platforms and each candidate's platform and transceiver slots.
struct SolveIndex {
    /// Every platform a candidate, request or gateway names, sorted:
    /// a platform's slot is its position here, so slot order is
    /// `PlatformId` order and Dijkstra's `(cost, node)` tie-breaks
    /// agree with the reference's `(cost, PlatformId)` ordering.
    plats: Vec<PlatformId>,
    /// Platform slots of each candidate's `(a, b)` ends.
    endpoints: Vec<(u32, u32)>,
    /// Transceiver slots (`platform slot · tx_stride + antenna index`)
    /// of each candidate's `(a, b)` ends.
    tx_slots: Vec<(u32, u32)>,
    /// One more than the largest antenna index in the graph — an
    /// outlandish index costs slots, not correctness.
    tx_stride: usize,
    /// One more than the largest band in the graph.
    band_stride: usize,
}

impl SolveIndex {
    fn build(
        links: &[CandidateLink],
        requests: &[BackhaulRequest],
        gateways: &BTreeMap<PlatformId, Vec<PlatformId>>,
    ) -> SolveIndex {
        // Intern by sort + dedup.
        let mut plats = platform_runs(links);
        plats.extend(requests.iter().map(|r| r.node));
        plats.extend(gateways.values().flatten());
        plats.sort_unstable();
        plats.dedup();

        let tx_stride = links
            .iter()
            .map(|l| l.a.index.max(l.b.index) as usize + 1)
            .max()
            .unwrap_or(1);
        let band_stride = links.iter().map(|l| l.band as usize + 1).max().unwrap_or(1);

        // Slot look-ups remember the last id they resolved (keyed on
        // the id itself, so an ungrouped graph only costs searches).
        let slot = |memo: &mut Option<(PlatformId, u32)>, p: PlatformId| -> u32 {
            match *memo {
                Some((id, slot)) if id == p => slot,
                _ => {
                    let slot = plats.binary_search(&p).expect("interned") as u32;
                    *memo = Some((p, slot));
                    slot
                }
            }
        };
        let (mut memo_a, mut memo_b) = (None, None);
        let mut endpoints = Vec::with_capacity(links.len());
        let mut tx_slots = Vec::with_capacity(links.len());
        for l in links {
            let pa = slot(&mut memo_a, l.a.platform);
            let pb = slot(&mut memo_b, l.b.platform);
            endpoints.push((pa, pb));
            tx_slots.push((
                pa * tx_stride as u32 + l.a.index as u32,
                pb * tx_stride as u32 + l.b.index as u32,
            ));
        }
        SolveIndex {
            plats,
            endpoints,
            tx_slots,
            tx_stride,
            band_stride,
        }
    }

    /// The slot of an interned platform.
    fn slot_of(&self, p: PlatformId) -> u32 {
        self.plats.binary_search(&p).expect("interned") as u32
    }

    /// The slot of a transceiver some candidate could name: `None` for
    /// a platform that is not interned or an antenna index past
    /// `tx_stride`.
    fn tx_slot_of(&self, t: TransceiverId) -> Option<u32> {
        let p = self.plats.binary_search(&t.platform).ok()?;
        ((t.index as usize) < self.tx_stride).then(|| (p * self.tx_stride) as u32 + t.index as u32)
    }

    /// Per candidate, whether its pairing key is in `previous` —
    /// answered from the previous keys outward: the few of them become
    /// `(tx_a, tx_b)` slot pairs listed by `tx_a`, and each candidate
    /// asks with its own slots, instead of one tree look-up per
    /// candidate. A key naming a transceiver no candidate could name
    /// matches nothing.
    fn previous_members(&self, previous: &BTreeSet<(TransceiverId, TransceiverId)>) -> Vec<bool> {
        let pairs: Vec<(u32, u32)> = previous
            .iter()
            .filter_map(|&(a, b)| Some((self.tx_slot_of(a)?, self.tx_slot_of(b)?)))
            .collect();
        let partners = SlotLists::build(
            self.plats.len() * self.tx_stride,
            0..pairs.len() as u32,
            |k| [Some(pairs[k]), None],
        );
        self.tx_slots
            .iter()
            .map(|&(tx_a, tx_b)| partners.list(tx_a).contains(&tx_b))
            .collect()
    }

    /// The `by_platform_band` slot of (platform slot, band).
    fn band_slot(&self, platform_slot: u32, band: u8) -> u32 {
        platform_slot * self.band_stride as u32 + band as u32
    }
}

/// The lists the greedy loop walks, built over the candidates still
/// viable once the incumbents are placed. A chosen candidate's
/// conflicts are confined to (a) candidates sharing one of its
/// transceivers and (b) same-band candidates touching one of its
/// platforms — `Solver::conflicts` returns false for everything else —
/// so invalidation after a selection walks only those lists instead
/// of rescanning the whole candidate set.
struct LiveLists {
    /// Candidate indices using a given transceiver slot.
    by_tx: SlotLists<u32>,
    /// Candidate indices touching a given (platform slot, band).
    by_platform_band: SlotLists<u32>,
    /// Dense adjacency: node → (neighbor, candidate).
    adj: SlotLists<(u32, u32)>,
}

impl LiveLists {
    /// `survivors` ascending, so each list is in candidate order.
    fn build(index: &SolveIndex, links: &[CandidateLink], survivors: &[u32]) -> LiveLists {
        let np = index.plats.len();
        let ids = survivors.iter().copied();
        LiveLists {
            by_tx: SlotLists::build(np * index.tx_stride, ids.clone(), |i| {
                let (tx_a, tx_b) = index.tx_slots[i];
                [Some((tx_a, i as u32)), Some((tx_b, i as u32))]
            }),
            by_platform_band: SlotLists::build(np * index.band_stride, ids.clone(), |i| {
                let (pa, pb) = index.endpoints[i];
                [
                    Some((index.band_slot(pa, links[i].band), i as u32)),
                    (pb != pa).then_some((index.band_slot(pb, links[i].band), i as u32)),
                ]
            }),
            adj: SlotLists::build(np, ids, |i| {
                let (pa, pb) = index.endpoints[i];
                [Some((pa, (pb, i as u32))), Some((pb, (pa, i as u32)))]
            }),
        }
    }
}

/// Dijkstra over the dense adjacency, with the distance / predecessor
/// / heap buffers kept between calls.
///
/// Bit-identical to the reference's `BTreeMap` implementation
/// ([`crate::reference`]): the heap orders by `(cost, node slot)` and
/// slots are assigned in sorted `PlatformId` order, so tie-breaks
/// agree; relaxation uses the same strict `<` (first relaxation at the
/// final distance wins, later equal-cost ones are ignored); and
/// non-viable edges are skipped *during traversal* in candidate-index
/// order, which visits viable edges in exactly the order the
/// reference's per-iteration adjacency rebuild inserts them.
struct Search {
    dist: Vec<u64>,
    prev: Vec<(u32, u32)>,
    heap: BinaryHeap<std::cmp::Reverse<(u64, u32)>>,
}

impl Search {
    const UNSET: u32 = u32::MAX;

    fn new(nodes: usize) -> Self {
        Search {
            dist: vec![u64::MAX; nodes],
            prev: vec![(Self::UNSET, Self::UNSET); nodes],
            heap: BinaryHeap::new(),
        }
    }

    /// Shortest path from `from` to the nearest member of `targets`
    /// (a sorted slice of slots), over the viable subgraph. Returns
    /// `(platform-slot path, candidate-index edges, total cost)`.
    #[allow(clippy::type_complexity)]
    fn nearest(
        &mut self,
        adj: &SlotLists<(u32, u32)>,
        viable: &[bool],
        cost: &[u64],
        from: u32,
        targets: &[u32],
    ) -> Option<(Vec<u32>, Vec<u32>, u64)> {
        if targets.binary_search(&from).is_ok() {
            return Some((vec![from], vec![], 0));
        }
        let Search { dist, prev, heap } = self;
        dist.fill(u64::MAX);
        prev.fill((Self::UNSET, Self::UNSET));
        heap.clear();
        dist[from as usize] = 0;
        heap.push(std::cmp::Reverse((0, from)));
        while let Some(std::cmp::Reverse((d, n))) = heap.pop() {
            if d > dist[n as usize] {
                continue;
            }
            if targets.binary_search(&n).is_ok() {
                // Reconstruct.
                let mut path = vec![n];
                let mut edges = Vec::new();
                let mut cur = n;
                while prev[cur as usize].0 != Self::UNSET {
                    let (p, e) = prev[cur as usize];
                    path.push(p);
                    edges.push(e);
                    cur = p;
                }
                path.reverse();
                edges.reverse();
                return Some((path, edges, d));
            }
            for &(m, e) in adj.list(n) {
                if !viable[e as usize] {
                    continue;
                }
                let nd = d + cost[e as usize];
                if nd < dist[m as usize] {
                    dist[m as usize] = nd;
                    prev[m as usize] = (n, e);
                    heap.push(std::cmp::Reverse((nd, m)));
                }
            }
        }
        None
    }

    /// Full single-source sweep (no early exit, no path
    /// reconstruction): `out[m]` becomes the distance from `from` to
    /// `m` over the viable subgraph, `u64::MAX` where unreachable.
    /// Powers the incremental solver's lower-bound test after each
    /// selection.
    fn all_distances(
        &mut self,
        adj: &SlotLists<(u32, u32)>,
        viable: &[bool],
        cost: &[u64],
        from: u32,
        out: &mut Vec<u64>,
    ) {
        out.clear();
        out.resize(self.dist.len(), u64::MAX);
        self.heap.clear();
        out[from as usize] = 0;
        self.heap.push(std::cmp::Reverse((0, from)));
        while let Some(std::cmp::Reverse((d, n))) = self.heap.pop() {
            if d > out[n as usize] {
                continue;
            }
            for &(m, e) in adj.list(n) {
                if !viable[e as usize] {
                    continue;
                }
                let nd = d + cost[e as usize];
                if nd < out[m as usize] {
                    out[m as usize] = nd;
                    self.heap.push(std::cmp::Reverse((nd, m)));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tssdn_geo::AzEl;
    use tssdn_link::LinkKind;

    fn tid(p: u32, i: u8) -> TransceiverId {
        TransceiverId::new(PlatformId(p), i)
    }

    /// Hand-built candidate between platforms `a`/`b` using antenna
    /// indices `ai`/`bi`, pointing spread apart by index.
    fn cand(a: u32, ai: u8, b: u32, bi: u8, margin: f64, quality: LinkQuality) -> CandidateLink {
        CandidateLink {
            a: tid(a, ai),
            b: tid(b, bi),
            kind: if a >= 100 || b >= 100 {
                LinkKind::B2G
            } else {
                LinkKind::B2B
            },
            band: 0,
            bitrate_bps: 400_000_000,
            margin_db: margin,
            quality,
            // Distinct pointing per antenna index avoids accidental
            // interference conflicts in tests.
            pointing_a: AzEl::new(ai as f64 * 90.0, 0.0),
            pointing_b: AzEl::new(bi as f64 * 90.0 + 45.0, 0.0),
            range_m: 300_000.0,
        }
    }

    fn graph(links: Vec<CandidateLink>) -> CandidateGraph {
        CandidateGraph {
            at: SimTime::ZERO,
            links,
        }
    }

    fn req(node: u32, ec: u32) -> BackhaulRequest {
        BackhaulRequest {
            node: PlatformId(node),
            ec: PlatformId(ec),
            min_bitrate_bps: 50_000_000,
            redundancy_group: None,
        }
    }

    /// EC 200 is reachable via GS 100.
    fn gw(ec: PlatformId) -> Vec<PlatformId> {
        if ec == PlatformId(200) {
            vec![PlatformId(100)]
        } else {
            vec![]
        }
    }

    #[test]
    fn routes_single_demand_through_chain() {
        // 0 —— 1 —— GS100, demand 0 → EC200.
        let g = graph(vec![
            cand(0, 0, 1, 0, 10.0, LinkQuality::Acceptable),
            cand(1, 1, 100, 0, 10.0, LinkQuality::Acceptable),
        ]);
        let plan = Solver::default().solve(
            &g,
            &[req(0, 200)],
            &|ec| gw(ec),
            &BTreeSet::new(),
            &DrainRegistry::new(),
            SimTime::ZERO,
        );
        assert_eq!(plan.demand_links.len(), 2);
        assert_eq!(
            plan.routes.get(&(PlatformId(0), PlatformId(200))),
            Some(&vec![PlatformId(0), PlatformId(1), PlatformId(100)])
        );
        assert!(plan.unsatisfied.is_empty());
    }

    #[test]
    fn unsatisfiable_demand_reported() {
        let g = graph(vec![cand(0, 0, 1, 0, 10.0, LinkQuality::Acceptable)]);
        let plan = Solver::default().solve(
            &g,
            &[req(0, 200)],
            &|ec| gw(ec),
            &BTreeSet::new(),
            &DrainRegistry::new(),
            SimTime::ZERO,
        );
        assert!(plan.demand_links.is_empty(), "no useful links selected");
        assert_eq!(plan.unsatisfied, vec![(PlatformId(0), PlatformId(200))]);
    }

    #[test]
    fn transceiver_used_once() {
        // Two demands (0→EC, 1→EC) both want GS100's antenna 0; GS has
        // a second antenna for the other.
        let g = graph(vec![
            cand(0, 0, 100, 0, 12.0, LinkQuality::Acceptable),
            cand(1, 0, 100, 0, 11.0, LinkQuality::Acceptable),
            cand(1, 1, 100, 1, 10.0, LinkQuality::Acceptable),
        ]);
        let plan = Solver::default().solve(
            &g,
            &[req(0, 200), req(1, 200)],
            &|ec| gw(ec),
            &BTreeSet::new(),
            &DrainRegistry::new(),
            SimTime::ZERO,
        );
        let keys = plan.key_set();
        assert!(keys.contains(&(tid(0, 0), tid(100, 0))));
        assert!(
            keys.contains(&(tid(1, 1), tid(100, 1))),
            "second demand uses the other GS antenna: {keys:?}"
        );
        assert_eq!(plan.demand_links.len(), 2);
    }

    #[test]
    fn hysteresis_keeps_incumbent_path() {
        // Two equal-cost 1-hop options for 0→GS; previous topology
        // used antenna combo (0,1)-(100,1).
        let g = graph(vec![
            cand(0, 0, 100, 0, 10.0, LinkQuality::Acceptable),
            cand(0, 1, 100, 1, 10.0, LinkQuality::Acceptable),
        ]);
        let mut prev = BTreeSet::new();
        prev.insert((tid(0, 1), tid(100, 1)));
        let plan = Solver::default().solve(
            &g,
            &[req(0, 200)],
            &|ec| gw(ec),
            &prev,
            &DrainRegistry::new(),
            SimTime::ZERO,
        );
        assert_eq!(plan.demand_links.len(), 1);
        assert_eq!(
            plan.demand_links[0].key(),
            (tid(0, 1), tid(100, 1)),
            "incumbent kept"
        );
        assert_eq!(plan.kept_links, 1);
    }

    #[test]
    fn marginal_link_avoided_when_alternative_exists() {
        // Direct marginal link vs 2-hop acceptable path.
        let g = graph(vec![
            cand(0, 0, 100, 0, -1.0, LinkQuality::Marginal),
            cand(0, 1, 1, 0, 10.0, LinkQuality::Acceptable),
            cand(1, 1, 100, 1, 10.0, LinkQuality::Acceptable),
        ]);
        let plan = Solver::default().solve(
            &g,
            &[req(0, 200)],
            &|ec| gw(ec),
            &BTreeSet::new(),
            &DrainRegistry::new(),
            SimTime::ZERO,
        );
        let path = plan
            .routes
            .get(&(PlatformId(0), PlatformId(200)))
            .expect("routed");
        assert_eq!(path.len(), 3, "took the 2-hop acceptable path: {path:?}");
    }

    #[test]
    fn marginal_link_used_when_only_option() {
        let g = graph(vec![cand(0, 0, 100, 0, -1.0, LinkQuality::Marginal)]);
        let plan = Solver::default().solve(
            &g,
            &[req(0, 200)],
            &|ec| gw(ec),
            &BTreeSet::new(),
            &DrainRegistry::new(),
            SimTime::ZERO,
        );
        assert_eq!(
            plan.demand_links.len(),
            1,
            "attempted when no acceptable link exists"
        );
    }

    #[test]
    fn drained_node_excluded_from_new_paths() {
        use tssdn_dataplane::DrainMode;
        // Path through node 1 or node 2; node 1 is draining.
        let g = graph(vec![
            cand(0, 0, 1, 0, 12.0, LinkQuality::Acceptable),
            cand(1, 1, 100, 0, 12.0, LinkQuality::Acceptable),
            cand(0, 1, 2, 0, 8.0, LinkQuality::Acceptable),
            cand(2, 1, 100, 1, 8.0, LinkQuality::Acceptable),
        ]);
        let mut drains = DrainRegistry::new();
        drains.request(PlatformId(1), DrainMode::Opportunistic, SimTime::ZERO, None);
        let plan = Solver::default().solve(
            &g,
            &[req(0, 200)],
            &|ec| gw(ec),
            &BTreeSet::new(),
            &drains,
            SimTime::ZERO,
        );
        let path = plan
            .routes
            .get(&(PlatformId(0), PlatformId(200)))
            .expect("routed");
        assert!(
            !path.contains(&PlatformId(1)),
            "drained node avoided: {path:?}"
        );
    }

    #[test]
    fn redundancy_pass_tasks_idle_transceivers() {
        // Demand uses 0—100; idle antennas on 0/1/100 allow a
        // redundant 0—1 and 1—100 pair... budget limits apply.
        let g = graph(vec![
            cand(0, 0, 100, 0, 12.0, LinkQuality::Acceptable),
            cand(0, 1, 1, 0, 11.0, LinkQuality::Acceptable),
            cand(1, 1, 100, 1, 10.0, LinkQuality::Acceptable),
        ]);
        let plan = Solver::default().solve(
            &g,
            &[req(0, 200)],
            &|ec| gw(ec),
            &BTreeSet::new(),
            &DrainRegistry::new(),
            SimTime::ZERO,
        );
        assert_eq!(plan.demand_links.len(), 1);
        assert!(
            !plan.redundant_links.is_empty(),
            "idle transceivers tasked for redundancy"
        );
        // No transceiver reuse anywhere.
        let mut seen = BTreeSet::new();
        for l in plan.all_links() {
            assert!(seen.insert(l.a), "{:?} reused", l.a);
            assert!(seen.insert(l.b), "{:?} reused", l.b);
        }
    }

    #[test]
    fn zero_redundancy_target_tasks_nothing() {
        let g = graph(vec![
            cand(0, 0, 100, 0, 12.0, LinkQuality::Acceptable),
            cand(0, 1, 1, 0, 11.0, LinkQuality::Acceptable),
            cand(1, 1, 100, 1, 10.0, LinkQuality::Acceptable),
        ]);
        let solver = Solver::new(SolverConfig {
            redundancy_target: 0.0,
            ..Default::default()
        });
        let plan = solver.solve(
            &g,
            &[req(0, 200)],
            &|ec| gw(ec),
            &BTreeSet::new(),
            &DrainRegistry::new(),
            SimTime::ZERO,
        );
        assert!(plan.redundant_links.is_empty());
    }

    /// `place_incumbents` over a bare graph: no requests, no gateways.
    fn placed(
        links: &[CandidateLink],
        previous: &[(TransceiverId, TransceiverId)],
        drains: &DrainRegistry,
    ) -> Placement {
        let index = SolveIndex::build(links, &[], &BTreeMap::new());
        let previous = previous.iter().copied().collect();
        Solver::default().place_incumbents(links, &index, &previous, drains, SimTime::ZERO)
    }

    #[test]
    fn incumbents_sharing_a_transceiver_keep_the_higher_margin_then_the_earlier() {
        // Both use (0, antenna 0); the later candidate has the margin.
        let mut links = vec![
            cand(0, 0, 1, 0, 8.0, LinkQuality::Acceptable),
            cand(0, 0, 2, 0, 12.0, LinkQuality::Acceptable),
        ];
        let previous = [links[0].key(), links[1].key()];
        let p = placed(&links, &previous, &DrainRegistry::new());
        assert_eq!(p.kept, vec![1], "higher margin wins the transceiver");
        assert_eq!(p.viable, vec![false, true]);
        assert_eq!(p.is_selected, vec![false, true]);
        // On an exact tie the sort is stable: candidate order decides.
        links[0].margin_db = 12.0;
        let p = placed(&links, &previous, &DrainRegistry::new());
        assert_eq!(p.kept, vec![0]);
        assert_eq!(p.viable, vec![true, false]);
    }

    #[test]
    fn close_same_band_incumbents_at_one_platform_keep_only_the_first() {
        // Distinct transceivers throughout; platform 0's two beams are
        // 2° apart on one band.
        let mut links = vec![
            cand(0, 0, 1, 0, 12.0, LinkQuality::Acceptable),
            cand(0, 1, 2, 0, 10.0, LinkQuality::Acceptable),
        ];
        links[0].pointing_a = AzEl::new(100.0, 0.0);
        links[1].pointing_a = AzEl::new(102.0, 0.0);
        let previous = [links[0].key(), links[1].key()];
        let p = placed(&links, &previous, &DrainRegistry::new());
        assert_eq!(p.kept, vec![0]);
        assert_eq!(p.viable, vec![true, false], "second dropped and dead");
        // On another band both stay.
        links[1].band = 1;
        let p = placed(&links, &previous, &DrainRegistry::new());
        assert_eq!(p.kept, vec![0, 1]);
    }

    #[test]
    fn candidate_too_close_to_a_kept_beam_dies_in_the_pass() {
        // Only the first is an incumbent. The second shares no
        // transceiver with it but points 2° from it at platform 0; the
        // third shares its transceiver at platform 1; the fourth is
        // clear of both.
        let mut links = vec![
            cand(0, 0, 1, 0, 12.0, LinkQuality::Acceptable),
            cand(0, 1, 2, 0, 10.0, LinkQuality::Acceptable),
            cand(1, 0, 3, 0, 10.0, LinkQuality::Acceptable),
            cand(2, 1, 3, 1, 10.0, LinkQuality::Acceptable),
        ];
        links[0].pointing_a = AzEl::new(100.0, 0.0);
        links[1].pointing_a = AzEl::new(102.0, 0.0);
        let p = placed(&links, &[links[0].key()], &DrainRegistry::new());
        assert_eq!(p.kept, vec![0]);
        assert_eq!(p.in_previous, vec![true, false, false, false]);
        assert_eq!(p.viable, vec![true, false, false, true]);
    }

    #[test]
    fn incumbent_on_a_drained_platform_is_not_kept() {
        use tssdn_dataplane::DrainMode;
        let links = vec![
            cand(0, 0, 1, 0, 12.0, LinkQuality::Acceptable),
            cand(2, 0, 3, 0, 10.0, LinkQuality::Acceptable),
        ];
        let mut drains = DrainRegistry::new();
        drains.request(PlatformId(1), DrainMode::Opportunistic, SimTime::ZERO, None);
        let p = placed(&links, &[links[0].key(), links[1].key()], &drains);
        assert_eq!(p.kept, vec![1]);
        assert_eq!(p.viable, vec![false, true]);
    }

    #[test]
    fn previous_key_outside_the_graph_matches_nothing() {
        // Antenna indices 0..=1, platforms 0..=2: `tx_stride` is 2.
        let links = vec![
            cand(0, 0, 1, 0, 12.0, LinkQuality::Acceptable),
            cand(1, 1, 2, 0, 10.0, LinkQuality::Acceptable),
        ];
        let previous = [
            (tid(77, 0), tid(1, 0)),  // platform not interned
            (tid(0, 0), tid(78, 0)),  // … on the other side
            (tid(0, 2), tid(1, 0)),   // antenna index == tx_stride
            (tid(0, 0), tid(1, 255)), // … far past it
            (tid(1, 0), tid(0, 0)),   // a real link, ends swapped
        ];
        let p = placed(&links, &previous, &DrainRegistry::new());
        assert_eq!(p.in_previous, vec![false, false]);
        assert!(p.kept.is_empty());
        assert_eq!(p.viable, vec![true, true]);
    }

    /// Every antenna pairing of a six-balloon ring with chords and two
    /// ground stations — 144 candidates, grouped by platform pair as
    /// the evaluator emits them.
    fn ring_graph() -> Vec<CandidateLink> {
        let mut links = Vec::new();
        let pairs = (0..6u32)
            .flat_map(|i| [(i, (i + 1) % 6), (i, (i + 2) % 6)])
            .chain([(0, 100), (1, 100), (3, 101), (4, 101)]);
        for (k, (a, b)) in pairs.enumerate() {
            for ai in 0..3u8 {
                for bi in 0..3u8 {
                    let mut l = cand(a, ai, b, bi, (k % 5) as f64 * 2.0, LinkQuality::Acceptable);
                    l.band = (k % 2) as u8;
                    // One direction per platform pair, 20° apart
                    // around each platform: some pairs interfere.
                    l.pointing_a = AzEl::new(k as f64 * 20.0, 0.0);
                    l.pointing_b = AzEl::new(k as f64 * 20.0 + 183.0, 0.0);
                    links.push(l);
                }
            }
        }
        links
    }

    #[test]
    fn ungrouped_graph_still_equals_the_reference() {
        let grouped = ring_graph();
        // A fixed permutation that leaves no two pairings of one
        // platform pair adjacent.
        let n = grouped.len();
        let shuffled: Vec<CandidateLink> = (0..n).map(|i| grouped[(i * 37 + 11) % n]).collect();
        assert_ne!(grouped, shuffled);
        let requests: Vec<BackhaulRequest> = (0..6).map(|i| req(i, 200)).collect();
        let gateways = |ec: PlatformId| match ec {
            PlatformId(200) => vec![PlatformId(100), PlatformId(101)],
            _ => vec![],
        };
        let solver = Solver::default();
        let drains = DrainRegistry::new();
        let mut previous = BTreeSet::new();
        // Cold, then warm on the plan just made, twice over.
        for _ in 0..3 {
            let g = graph(shuffled.clone());
            let fast = solver.solve(&g, &requests, &gateways, &previous, &drains, SimTime::ZERO);
            let slow = crate::reference::solve_reference(
                &solver,
                &g,
                &requests,
                &gateways,
                &previous,
                &drains,
                SimTime::ZERO,
            );
            assert_eq!(fast, slow);
            assert!(!fast.demand_links.is_empty());
            previous = fast.key_set();
        }
        assert!(!previous.is_empty());
    }

    #[test]
    fn interference_conflict_blocks_same_band_close_beams() {
        let s = Solver::default();
        let mut a = cand(0, 0, 1, 0, 10.0, LinkQuality::Acceptable);
        let mut b = cand(0, 1, 2, 0, 10.0, LinkQuality::Acceptable);
        // Same platform 0, same band, beams 2° apart.
        a.pointing_a = AzEl::new(100.0, 0.0);
        b.pointing_a = AzEl::new(102.0, 0.0);
        assert!(s.conflicts(&a, &b));
        // Different bands: fine.
        b.band = 1;
        assert!(!s.conflicts(&a, &b));
        // Same band but far apart: fine.
        b.band = 0;
        b.pointing_a = AzEl::new(250.0, 0.0);
        assert!(!s.conflicts(&a, &b));
    }
}

#[cfg(test)]
mod score_tests {
    use super::*;
    use tssdn_geo::AzEl;
    use tssdn_link::LinkKind;

    fn cand(a: u32, b: u32, margin: f64, quality: LinkQuality) -> CandidateLink {
        CandidateLink {
            a: TransceiverId::new(PlatformId(a), 0),
            b: TransceiverId::new(PlatformId(b), 0),
            kind: LinkKind::B2B,
            band: 0,
            bitrate_bps: 400_000_000,
            margin_db: margin,
            quality,
            pointing_a: AzEl::new(0.0, 0.0),
            pointing_b: AzEl::new(180.0, 0.0),
            range_m: 100_000.0,
        }
    }

    #[test]
    fn empty_plan_scores_zero_demand() {
        let plan = TopologyPlan::default();
        let s = plan.utility_score(5);
        assert_eq!(s.demand_fraction, 0.0);
        assert_eq!(s.total, 0.0);
        // Zero requests counts as fully satisfied.
        assert_eq!(plan.utility_score(0).demand_fraction, 1.0);
    }

    #[test]
    fn more_demand_satisfied_scores_higher() {
        let mut a = TopologyPlan {
            demand_links: vec![cand(0, 1, 8.0, LinkQuality::Acceptable)],
            ..Default::default()
        };
        a.routes.insert(
            (PlatformId(0), PlatformId(9)),
            vec![PlatformId(0), PlatformId(1)],
        );
        let mut b = a.clone();
        b.routes.insert(
            (PlatformId(2), PlatformId(9)),
            vec![PlatformId(2), PlatformId(1)],
        );
        assert!(b.utility_score(4).total > a.utility_score(4).total);
    }

    #[test]
    fn marginal_links_cost_score() {
        let mut a = TopologyPlan {
            demand_links: vec![cand(0, 1, 8.0, LinkQuality::Acceptable)],
            ..Default::default()
        };
        a.routes.insert(
            (PlatformId(0), PlatformId(9)),
            vec![PlatformId(0), PlatformId(1)],
        );
        let mut b = a.clone();
        b.demand_links = vec![cand(0, 1, 8.0, LinkQuality::Marginal)];
        assert!(a.utility_score(1).total > b.utility_score(1).total);
    }

    #[test]
    fn redundancy_raises_score() {
        let mut a = TopologyPlan {
            demand_links: vec![cand(0, 1, 8.0, LinkQuality::Acceptable)],
            ..Default::default()
        };
        a.routes.insert(
            (PlatformId(0), PlatformId(9)),
            vec![PlatformId(0), PlatformId(1)],
        );
        let mut b = a.clone();
        b.redundant_links = vec![cand(2, 3, 8.0, LinkQuality::Acceptable)];
        assert!(b.utility_score(1).total > a.utility_score(1).total);
    }

    #[test]
    fn goal_state_lists_all_actuation_steps() {
        let mut plan = TopologyPlan {
            demand_links: vec![cand(0, 1, 8.0, LinkQuality::Acceptable)],
            redundant_links: vec![cand(2, 3, 6.0, LinkQuality::Acceptable)],
            ..Default::default()
        };
        plan.routes.insert(
            (PlatformId(0), PlatformId(9)),
            vec![PlatformId(0), PlatformId(1)],
        );
        // Currently installed: one link that must be withdrawn, plus
        // the demand link (kept).
        let mut current = BTreeSet::new();
        current.insert(cand(0, 1, 8.0, LinkQuality::Acceptable).key());
        current.insert(cand(7, 8, 5.0, LinkQuality::Acceptable).key());
        let text = plan.render_goal_state(&current, 1);
        assert!(text.contains("keep 1 installed links"), "{text}");
        assert!(text.contains("withdraw p7t0 — p8t0"), "{text}");
        assert!(text.contains("establish p2t0 — p3t0"), "{text}");
        assert!(text.contains("route p0 → p9"), "{text}");
        assert!(text.contains("1/1 satisfied"), "{text}");
    }
}
