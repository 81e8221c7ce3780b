//! §3.1's weighted max-min allocation as a specification: one
//! progressive filler, and the site×class tree built from it.
//!
//! [`allocate`] is the weighted, classed filler with one freeze per
//! round: Control is filled against the full capacities, then Bulk
//! against what is left, and each round's fill level is
//! `min(min_l floor(residual_l / W_l), min_f ceil(gap_f / w_f))`, so at
//! most the flows with the smallest gap reach their demand in a round.
//! `FairShareAllocator::allocate` must equal it bit for bit (it only
//! batches the freezes). With every flow at weight 1 in class Bulk it
//! is the textbook equal-share filler.
//!
//! [`allocate_tree`] is `HierarchicalAllocator::allocate`: the member
//! demands rolled up per aggregate, [`allocate`]'s filler over the
//! aggregate nodes, then each node's grant split over its members by
//! weight, one freeze per round, and the integer scraps swept to
//! members in index order. The split is not the filler over one link
//! of the grant's capacity: the filler freezes flows as it scans, so on
//! a link with scraps left a later member can rise a round after an
//! earlier one froze, where the split stops every member together and
//! sweeps the scraps in member order (`traffic_props` finds the two
//! apart within its first case).

use tssdn_traffic::{AggregateSpec, FlowSpec, TrafficClass};

/// A demand above this is capped, as in `tssdn_traffic::allocator`.
const DEMAND_CAP_BPS: u64 = u64::MAX / 2;

/// The filler over `specs` (links, weight, class per flow): the rate
/// of each flow.
pub fn allocate(
    specs: &[FlowSpec],
    n_links: usize,
    demands: &[u64],
    capacities: &[u64],
) -> Vec<u64> {
    assert_eq!(demands.len(), specs.len(), "demands ≠ specs");
    assert_eq!(capacities.len(), n_links, "capacities ≠ links");
    let flow_links: Vec<Vec<u32>> = specs.iter().map(|s| s.links.clone()).collect();
    let weights: Vec<u64> = specs.iter().map(|s| s.weight.max(1) as u64).collect();
    let classes: Vec<TrafficClass> = specs.iter().map(|s| s.class).collect();
    fill(&flow_links, &weights, &classes, demands, capacities)
}

/// Strict priority over the two classes, then the weighted filler
/// within each against the residual capacities.
fn fill(
    flow_links: &[Vec<u32>],
    weights: &[u64],
    classes: &[TrafficClass],
    demands: &[u64],
    capacities: &[u64],
) -> Vec<u64> {
    let mut rates = vec![0u64; flow_links.len()];
    let mut residual = capacities.to_vec();
    for class in [TrafficClass::Control, TrafficClass::Bulk] {
        let mut weight_active = vec![0u64; residual.len()];
        let mut active: Vec<usize> = Vec::new();
        for (f, links) in flow_links.iter().enumerate() {
            let demand = demands[f].min(DEMAND_CAP_BPS);
            if classes[f] != class || demand == 0 {
                continue;
            }
            if links.is_empty() {
                rates[f] = demand;
                continue;
            }
            active.push(f);
            for &l in links {
                weight_active[l as usize] += weights[f];
            }
        }
        while !active.is_empty() {
            let link_share = residual
                .iter()
                .zip(&weight_active)
                .filter(|(_, &w)| w > 0)
                .map(|(&r, &w)| r / w)
                .min()
                .unwrap_or(u64::MAX);
            let gap_units = active
                .iter()
                .map(|&f| (demands[f].min(DEMAND_CAP_BPS) - rates[f]).div_ceil(weights[f]))
                .min()
                .unwrap_or(0);
            let delta = link_share.min(gap_units);
            for &f in &active {
                let gap = demands[f].min(DEMAND_CAP_BPS) - rates[f];
                let inc = delta.saturating_mul(weights[f]).min(gap);
                rates[f] += inc;
                for &l in &flow_links[f] {
                    residual[l as usize] -= inc;
                }
            }
            // A flow freezes at its demand, or when a link it crosses
            // cannot fit one more level unit of the weight still on it.
            active.retain(|&f| {
                let done = rates[f] >= demands[f].min(DEMAND_CAP_BPS)
                    || flow_links[f].iter().any(|&l| {
                        let l = l as usize;
                        residual[l] / weight_active[l] == 0
                    });
                if done {
                    for &l in &flow_links[f] {
                        weight_active[l as usize] -= weights[f];
                    }
                }
                !done
            });
        }
    }
    rates
}

/// The site×class tree over `groups`: member `m.flow` of each group
/// gets its rate in a vector of `n_flows` (flows in no group get 0).
pub fn allocate_tree(
    groups: &[AggregateSpec],
    n_links: usize,
    n_flows: usize,
    demands: &[u64],
    capacities: &[u64],
) -> Vec<u64> {
    assert_eq!(demands.len(), n_flows, "demands ≠ flows");
    assert_eq!(capacities.len(), n_links, "capacities ≠ links");
    let capped = |f: u32| demands[f as usize].min(DEMAND_CAP_BPS);

    // Roll-up: an aggregate node weighs its members' weights and
    // demands their capped demands, both summed saturating.
    let node_links: Vec<Vec<u32>> = groups.iter().map(|g| g.links.clone()).collect();
    let node_weights: Vec<u64> = groups
        .iter()
        .map(|g| {
            g.members
                .iter()
                .fold(0u64, |w, m| w.saturating_add(m.weight.max(1) as u64))
        })
        .collect();
    let node_classes: Vec<TrafficClass> = groups.iter().map(|g| g.class).collect();
    let node_demands: Vec<u64> = groups
        .iter()
        .map(|g| {
            g.members
                .iter()
                .fold(0u64, |d, m| d.saturating_add(capped(m.flow)))
        })
        .collect();
    let grants = fill(
        &node_links,
        &node_weights,
        &node_classes,
        &node_demands,
        capacities,
    );

    let mut rates = vec![0u64; n_flows];
    for (group, &grant) in groups.iter().zip(&grants) {
        let mut remaining = grant;
        // Members still rising and their weight sum.
        let mut active: Vec<usize> = (0..group.members.len())
            .filter(|&i| capped(group.members[i].flow) > 0)
            .collect();
        let weight = |i: usize| group.members[i].weight.max(1) as u64;
        let mut weight_sum = active
            .iter()
            .fold(0u64, |w, &i| w.saturating_add(weight(i)));
        while !active.is_empty() {
            let share = remaining / weight_sum;
            if share == 0 {
                break;
            }
            let gap = |i: usize, rates: &[u64]| {
                let f = group.members[i].flow;
                capped(f) - rates[f as usize]
            };
            let gap_units = active
                .iter()
                .map(|&i| gap(i, &rates).div_ceil(weight(i)))
                .min()
                .unwrap_or(0);
            let delta = share.min(gap_units);
            for &i in &active {
                let inc = delta.saturating_mul(weight(i)).min(gap(i, &rates));
                rates[group.members[i].flow as usize] += inc;
                remaining -= inc;
            }
            active.retain(|&i| {
                let done = gap(i, &rates) == 0;
                if done {
                    weight_sum -= weight(i);
                }
                !done
            });
        }
        // The scraps, in member order, each up to the member's demand.
        for m in &group.members {
            let inc = (capped(m.flow) - rates[m.flow as usize]).min(remaining);
            rates[m.flow as usize] += inc;
            remaining -= inc;
        }
    }
    rates
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_matches_textbook_example() {
        // Three equal-weight flows over two links: the two that cross
        // the 40 Mbps link split it, the third takes the rest of the
        // 100 Mbps one.
        let specs: Vec<FlowSpec> = [vec![0], vec![0, 1], vec![0, 1]]
            .into_iter()
            .map(FlowSpec::bulk)
            .collect();
        let rates = allocate(&specs, 2, &[1_000_000_000; 3], &[100_000_000, 40_000_000]);
        assert_eq!(rates, vec![60_000_000, 20_000_000, 20_000_000]);
    }
}
