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
//!
//! One solve is five phases, one part each (DESIGN.md §7): intern
//! ([`index`]), keep the incumbents ([`incumbents`]), index what
//! survives ([`index`] again), the greedy iteration ([`greedy`], over
//! [`search`]) and redundancy ([`redundancy`]). [`conflict`] states
//! the link-conflict rule for all of them; [`plan`] is the product.

mod conflict;
mod greedy;
mod incumbents;
mod index;
mod plan;
mod redundancy;
mod search;

pub(crate) use conflict::Conflict;
pub use plan::{PlanScore, TopologyPlan};

use crate::evaluator::{CandidateGraph, CandidateLink};
use index::{LiveLists, SolveIndex};
use std::collections::{BTreeMap, BTreeSet};
use tssdn_dataplane::{BackhaulRequest, DrainRegistry};
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
/// Shared with the planning oracle (`tssdn_oracle::planning`): the
/// fixed-point contract itself, so both sides' arithmetic is identical.
pub fn scale_cost(c: f64) -> u64 {
    (c * 1e6).round() as u64
}

/// Extra hop cost for marginal-quality links. Shared with the
/// planning oracle, which spells the edge cost out around it.
pub const MARGINAL_PENALTY: f64 = 2.0;

/// Minimum angular separation (degrees) between same-band links
/// sharing a platform (interference constraint).
pub const MIN_BEAM_SEPARATION_DEG: f64 = 5.0;

/// Solver tunables.
#[derive(Debug, Clone, Copy)]
pub struct SolverConfig {
    /// Cost discount for links present in the previous topology
    /// (hysteresis; subtracted from the hop cost).
    pub hysteresis_bonus: f64,
    /// Fraction of post-demand idle transceivers to task with
    /// redundant links (the paper's intended ~0.7).
    pub redundancy_target: f64,
}

impl Default for SolverConfig {
    fn default() -> Self {
        SolverConfig {
            hysteresis_bonus: 0.4,
            redundancy_target: 0.7,
        }
    }
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
    /// output **bit-identical** to the naive planning oracle
    /// (`tssdn_oracle::planning::solve_reference`) — same demand links in
    /// the same order, same redundant links, same routes — which is
    /// what the golden-equivalence gates in `tests/props.rs` and
    /// `tests/golden_determinism.rs` assert. Each phase below is one
    /// module of this directory, and its module doc says what it does
    /// in place of the naive loop's O(iterations × requests ×
    /// Dijkstra) and why the result is the same.
    pub fn solve(
        &self,
        candidates: &CandidateGraph,
        requests: &[BackhaulRequest],
        gateways_to_ec: &dyn Fn(PlatformId) -> Vec<PlatformId>,
        previous: &BTreeSet<(TransceiverId, TransceiverId)>,
        drains: &DrainRegistry,
        now: SimTime,
    ) -> TopologyPlan {
        let mut gateways: BTreeMap<PlatformId, Vec<PlatformId>> = BTreeMap::new();
        for r in requests {
            gateways.entry(r.ec).or_insert_with(|| gateways_to_ec(r.ec));
        }
        // 1. Intern platforms and transceivers to dense slots.
        let index = SolveIndex::build(&candidates.links, requests, &gateways);
        // 2. Incumbents first: the previous topology is placed, and
        //    every other candidate settled against it, before anything
        //    is indexed.
        let mut state = self.place_incumbents(&index, previous, drains, now);
        // 3. Index what survives — a few per cent of the graph on a
        //    warm solve, all of it on a cold one.
        debug_assert!(
            state.survivors.iter().all(|&i| state.viable[i as usize]),
            "indexed before the incumbents were placed"
        );
        let live = LiveLists::build(&index, &state.survivors);
        // 4. Greedy utility iteration (Appendix B).
        let routes = self.greedy(&index, &live, requests, &gateways, &mut state);
        // 5. Redundancy over idle transceivers.
        let redundant_links = self.add_redundancy(&index, &state);
        let selected = state.selected.iter();
        TopologyPlan {
            at: candidates.at,
            kept_links: selected.clone().filter(|&&i| state.in_previous[i]).count(),
            demand_links: selected.map(|&i| candidates.links[i]).collect(),
            redundant_links,
            unsatisfied: (requests.iter().map(|r| (r.node, r.ec)))
                .filter(|k| !routes.contains_key(k))
                .collect(),
            routes,
        }
    }

    /// The f64 cost of routing over one candidate — hysteresis,
    /// marginal penalty and enactment-feedback multiplier included.
    /// The naive reference spells the same arithmetic out inline.
    pub(crate) fn edge_cost(&self, l: &CandidateLink, in_previous: bool, is_selected: bool) -> f64 {
        let mut cost = if is_selected { 0.1 } else { 1.0 };
        if l.quality == LinkQuality::Marginal {
            cost += MARGINAL_PENALTY;
        }
        if in_previous {
            cost = (cost - self.config.hysteresis_bonus).max(0.05);
        }
        // Pairs that keep failing cost more, steering demand toward
        // alternates (§5's "better policy").
        self.pair_penalty(l).map_or(cost, |m| cost * m)
    }

    /// The enactment-feedback cost multiplier on a link's platform pair.
    pub(crate) fn pair_penalty(&self, l: &CandidateLink) -> Option<f64> {
        let (a, b) = (l.a.platform, l.b.platform);
        self.pair_penalties.get(&(a.min(b), a.max(b))).copied()
    }
}

#[cfg(test)]
mod score_tests;
#[cfg(test)]
mod tests;
