//! The secondary pass: "added redundant links using otherwise idle E
//! band transceivers to enable faster failover" (§3.2), up to the
//! redundancy-target fraction (Figure 7's *intended* level).
//!
//! Same decisions as the set-and-map formulation the reference keeps,
//! over flag vectors on the index's dense slots: a platform is
//! `connected` / has a `degree`, a transceiver is `idle`, and the
//! candidate order is a stable sort of keys computed once.

use super::incumbents::CandidateState;
use super::index::SolveIndex;
use super::Solver;
use crate::evaluator::CandidateLink;
use tssdn_link::LinkKind;
use tssdn_rf::LinkQuality;

impl Solver {
    /// The redundant links for the demand topology `state.selected`.
    pub(super) fn add_redundancy(
        &self,
        index: &SolveIndex,
        state: &CandidateState,
    ) -> Vec<CandidateLink> {
        let links = index.links;
        // Idle transceivers anywhere in the candidate graph are fair
        // game, but a redundant link must touch the demand topology on
        // at least one end — a detached island adds no failover value.
        let np = index.plats.len();
        let mut connected = vec![false; np];
        let mut degree = vec![0usize; np];
        let mut used = vec![false; index.n_tx_slots()];
        for &i in &state.selected {
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
        let mut order: Vec<Priority> = state
            .survivors
            .iter()
            .map(|&i| i as usize)
            .filter(|i| state.viable[*i] && !state.is_selected[*i])
            .map(|i| {
                let (pa, pb) = index.endpoints[i];
                Priority {
                    candidate: i as u32,
                    in_previous: state.in_previous[i],
                    min_degree: degree_of(pa).min(degree_of(pb)),
                    is_b2g: links[i].kind == LinkKind::B2G,
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
            if chosen.len() >= link_budget {
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
            let demand = state.selected.iter().map(|&s| &links[s]);
            if demand.chain(&chosen).any(|s| self.conflicts(s, l)) {
                continue;
            }
            // Marginal links are not worth burning idle radios on.
            if l.quality == LinkQuality::Marginal {
                continue;
            }
            idle[tx_a as usize] = false;
            idle[tx_b as usize] = false;
            chosen.push(*l);
        }
        chosen
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::tests::cand;
    use std::collections::BTreeMap;
    use tssdn_dataplane::DrainRegistry;
    use tssdn_rf::LinkQuality::Acceptable;
    use tssdn_sim::SimTime;

    /// The redundant links over `links`, the first of them the demand
    /// topology (kept as the one incumbent).
    fn redundant(links: &[CandidateLink]) -> Vec<CandidateLink> {
        let solver = Solver::default();
        let index = SolveIndex::build(links, &[], &BTreeMap::new());
        let previous = [links[0].key()].into();
        let state =
            solver.place_incumbents(&index, &previous, &DrainRegistry::new(), SimTime::ZERO);
        assert_eq!(state.selected, [0]);
        solver.add_redundancy(&index, &state)
    }

    #[test]
    fn two_idle_transceivers_round_to_one_link() {
        // Demand 0 — GS100; the only idle radios are the two ends of
        // 0 — 1: 2 × 0.7 / 2 = 0.7 of a link, tasked as one.
        let demand = cand(0, 0, 100, 0, 12.0, Acceptable);
        let spare = cand(0, 1, 1, 0, 8.0, Acceptable);
        assert_eq!(redundant(&[demand, spare]), [spare]);
    }

    #[test]
    fn a_link_touching_no_demand_platform_is_refused() {
        // Same budget of one, but 2 — 3 is an island.
        let demand = cand(0, 0, 100, 0, 12.0, Acceptable);
        let island = cand(2, 0, 3, 0, 20.0, Acceptable);
        assert_eq!(redundant(&[demand, island]), []);
        // With both on offer the budget is still one link (4 idle ×
        // 0.7 / 2 = 1.4), and it goes to the one that protects demand.
        let spare = cand(0, 1, 1, 0, 8.0, Acceptable);
        assert_eq!(redundant(&[demand, island, spare]), [spare]);
    }
}
