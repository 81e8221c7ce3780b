//! Structural hysteresis, before anything is indexed: keep every
//! incumbent link that is still a viable candidate, then settle every
//! other candidate against the kept set. "Link reconfigurations were
//! risky as they failed often and had high recovery costs. We biased
//! toward the selection of high utility links and dampened the rate of
//! change by biasing toward topologies that kept established links"
//! (§3.2). An incumbent is only dropped when the evaluator no longer
//! offers it at all (the predictive withdrawal of a degrading link),
//! it touches a drained platform, or it conflicts with an already-kept
//! link.
//!
//! The reference keeps an incumbent and at once rescans the graph for
//! what it kills; here nothing is killed until all are placed. Same
//! result: a candidate is dead after the incumbents iff some kept link
//! conflicts with it, the rule is symmetric to the bit, and two
//! conflicting links share a platform — so an incumbent's turn finds
//! it viable iff no link kept *before* it at its two platforms
//! conflicts with it, and afterwards every other candidate's fate
//! depends on the kept set alone, whatever order the pass visits them
//! in (DESIGN.md §7).

use super::conflict::NO_LINK;
use super::index::SolveIndex;
use super::{scale_cost, Solver};
use std::collections::BTreeSet;
use tssdn_dataplane::DrainRegistry;
use tssdn_link::TransceiverId;
use tssdn_sim::SimTime;

/// The per-candidate state the phases hand on: produced here, mutated
/// only by the greedy loop ([`Self::select`] and the invalidation it
/// triggers), read by the redundancy pass.
pub(super) struct CandidateState {
    /// Its pairing key is in the previous topology.
    pub(super) in_previous: Vec<bool>,
    /// Not drained and in conflict with nothing selected.
    pub(super) viable: Vec<bool>,
    /// Kept from the previous topology or chosen by the greedy loop.
    pub(super) is_selected: Vec<bool>,
    /// Fixed-point routing cost of each survivor (an edge's cost only
    /// ever changes at the moment it is selected; a dead candidate's
    /// is never read).
    pub(super) cost: Vec<u64>,
    /// Selection order: the kept incumbents as placed, then the
    /// greedy loop's choices.
    pub(super) selected: Vec<usize>,
    /// The candidates viable once the incumbents were placed,
    /// ascending — all anything later indexes or scans.
    pub(super) survivors: Vec<u32>,
}

impl CandidateState {
    /// Candidate `i` joins the solution at its selected-edge `cost`.
    pub(super) fn select(&mut self, i: usize, cost: u64) {
        self.is_selected[i] = true;
        self.cost[i] = cost;
        self.selected.push(i);
    }
}

impl Solver {
    pub(super) fn place_incumbents(
        &self,
        index: &SolveIndex,
        previous: &BTreeSet<(TransceiverId, TransceiverId)>,
        drains: &DrainRegistry,
        now: SimTime,
    ) -> CandidateState {
        let links = index.links;
        // Exclude candidates touching drained nodes outright.
        let drained: Vec<bool> = index.plats.iter().map(|p| drains.active(*p, now)).collect();
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
        let mut kept_on_tx = vec![NO_LINK; index.n_tx_slots()];
        let mut is_selected = vec![false; links.len()];
        let mut selected = Vec::new();
        for i in incumbents {
            if self.conflicts_with_kept(index, &kept_on_tx, i) {
                viable[i] = false;
                continue;
            }
            let (tx_a, tx_b) = index.tx_slots[i];
            kept_on_tx[tx_a as usize] = i as u32;
            kept_on_tx[tx_b as usize] = i as u32;
            is_selected[i] = true;
            selected.push(i);
        }
        let mut cost = vec![0u64; links.len()];
        let mut survivors = Vec::new();
        for i in 0..links.len() {
            if viable[i] && !is_selected[i] {
                viable[i] = !self.conflicts_with_kept(index, &kept_on_tx, i);
            }
            if viable[i] {
                cost[i] = scale_cost(self.edge_cost(&links[i], in_previous[i], is_selected[i]));
                survivors.push(i as u32);
            }
        }
        CandidateState {
            in_previous,
            viable,
            is_selected,
            cost,
            selected,
            survivors,
        }
    }
}
