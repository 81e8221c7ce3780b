//! Reference allocators retained as correctness oracles, mirroring
//! `tssdn_core::reference` for the planning hot path.
//!
//! Two fillers live here:
//!
//! * [`allocate_reference`] — the pre-tiering (PR 3) max-min
//!   progressive filler, kept verbatim (serial path). With every flow
//!   at weight 1, class Bulk, and a single path, the production
//!   allocator must match it bit-for-bit — the compatibility gate in
//!   `tests/traffic_props.rs`.
//! * [`allocate_weighted_unbatched`] — the weighted, classed filler
//!   *without* the batch-freeze round structure: the fill level per
//!   round is capped by the smallest remaining gap, so it freezes
//!   roughly one demand-bound flow per round. The production
//!   batch-freeze allocator must produce byte-identical output; the
//!   two differ only in round count.
//! * [`allocate_hierarchical_reference`] — the naive two-level
//!   allocator: aggregate demands summed member-by-member, the
//!   unbatched filler over the aggregate nodes, and an unbatched
//!   one-freeze-per-round distribution of each node's grant back to
//!   its members (plus the same index-order remainder sweep). The
//!   production [`crate::aggregate::HierarchicalAllocator`] must
//!   produce byte-identical output.
//!
//! These are deliberately simple and slow; never call them from the
//! per-tick path.

use crate::aggregate::AggregateSpec;
use crate::allocator::{FlowSpec, TrafficClass};

/// See [`crate::allocator`]: demand cap keeping `rate + delta`
/// overflow-free.
const DEMAND_CAP_BPS: u64 = u64::MAX / 2;

/// The pre-tiering progressive filler, verbatim from PR 3 (serial
/// path): equal weights, no classes, one freeze per saturated link or
/// minimum demand gap per round.
pub fn allocate_reference(
    flow_links: &[Vec<u32>],
    n_links: usize,
    demands: &[u64],
    capacities: &[u64],
) -> Vec<u64> {
    assert_eq!(demands.len(), flow_links.len(), "demands ≠ topology flows");
    assert_eq!(capacities.len(), n_links, "capacities ≠ topology links");

    let n = demands.len();
    let mut rates = vec![0u64; n];
    let mut residual: Vec<u64> = capacities.to_vec();
    let mut n_active: Vec<u64> = vec![0; n_links];

    let mut active: Vec<u32> = Vec::with_capacity(n);
    for (f, links) in flow_links.iter().enumerate() {
        let demand = demands[f].min(DEMAND_CAP_BPS);
        if demand == 0 {
            continue;
        }
        if links.is_empty() {
            rates[f] = demand;
            continue;
        }
        active.push(f as u32);
        for &l in links {
            n_active[l as usize] += 1;
        }
    }

    while !active.is_empty() {
        let link_share = residual
            .iter()
            .zip(&n_active)
            .filter(|(_, &a)| a > 0)
            .map(|(&r, &a)| r / a)
            .min()
            .unwrap_or(u64::MAX);

        let demand_gap = active
            .iter()
            .map(|&f| demands[f as usize].min(DEMAND_CAP_BPS) - rates[f as usize])
            .min()
            .unwrap_or(u64::MAX);

        let delta = link_share.min(demand_gap);
        if delta > 0 {
            for &f in &active {
                rates[f as usize] += delta;
            }
            for (l, r) in residual.iter_mut().enumerate() {
                *r -= delta * n_active[l];
            }
        }

        active.retain(|&f| {
            let fi = f as usize;
            let done = rates[fi] >= demands[fi].min(DEMAND_CAP_BPS)
                || flow_links[fi].iter().any(|&l| {
                    let li = l as usize;
                    residual[li] / n_active[li] == 0
                });
            if done {
                for &l in &flow_links[fi] {
                    n_active[l as usize] -= 1;
                }
            }
            !done
        });
    }
    rates
}

/// The weighted, classed filler with one-freeze-per-round rounds (no
/// batch-freeze window): the fill level is `min(link_share,
/// min_f ceil(gap_f / w_f))`. Byte-identical to
/// `FairShareAllocator::allocate` on the same specs, just slower.
pub fn allocate_weighted_unbatched(
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
    let mut rates = vec![0u64; specs.len()];
    let mut residual: Vec<u64> = capacities.to_vec();
    for class in [TrafficClass::Control, TrafficClass::Bulk] {
        fill_unbatched_raw(
            &flow_links,
            &weights,
            &classes,
            class,
            demands,
            &mut rates,
            &mut residual,
            n_links,
        );
    }
    rates
}

#[allow(clippy::too_many_arguments)]
fn fill_unbatched_raw(
    flow_links: &[Vec<u32>],
    weights: &[u64],
    classes: &[TrafficClass],
    class: TrafficClass,
    demands: &[u64],
    rates: &mut [u64],
    residual: &mut [u64],
    n_links: usize,
) {
    let weight = |f: usize| weights[f].max(1);
    let mut weight_active: Vec<u64> = vec![0; n_links];
    let mut active: Vec<u32> = Vec::new();
    for (f, links) in flow_links.iter().enumerate() {
        if classes[f] != class {
            continue;
        }
        let demand = demands[f].min(DEMAND_CAP_BPS);
        if demand == 0 {
            continue;
        }
        if links.is_empty() {
            rates[f] = demand;
            continue;
        }
        active.push(f as u32);
        for &l in links {
            weight_active[l as usize] += weight(f);
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

        // One-freeze-per-round: level capped by the *smallest* gap in
        // level units, so exactly the minimum-gap flow hits demand.
        let gap_units = active
            .iter()
            .map(|&f| {
                let fi = f as usize;
                (demands[fi].min(DEMAND_CAP_BPS) - rates[fi]).div_ceil(weight(fi))
            })
            .min()
            .unwrap_or(0);

        let delta = link_share.min(gap_units);
        if delta > 0 {
            for &f in &active {
                let fi = f as usize;
                let gap = demands[fi].min(DEMAND_CAP_BPS) - rates[fi];
                let inc = delta.saturating_mul(weight(fi)).min(gap);
                rates[fi] += inc;
                for &l in &flow_links[fi] {
                    residual[l as usize] -= inc;
                }
            }
        }

        active.retain(|&f| {
            let fi = f as usize;
            let done = rates[fi] >= demands[fi].min(DEMAND_CAP_BPS)
                || flow_links[fi].iter().any(|&l| {
                    let li = l as usize;
                    residual[li] / weight_active[li] == 0
                });
            if done {
                for &l in &flow_links[fi] {
                    weight_active[l as usize] -= weight(fi);
                }
            }
            !done
        });
    }
}

/// The naive hierarchical allocator: sum member demands per
/// aggregate, run the *unbatched* filler over the aggregate nodes,
/// then distribute each node's grant to its members with an unbatched
/// one-freeze-per-round single-budget fill plus the index-order
/// remainder sweep. `HierarchicalAllocator` must match byte-for-byte
/// (they differ only in round structure and buffering).
pub fn allocate_hierarchical_reference(
    groups: &[AggregateSpec],
    n_links: usize,
    n_flows: usize,
    demands: &[u64],
    capacities: &[u64],
) -> Vec<u64> {
    assert_eq!(demands.len(), n_flows, "demands ≠ flows");
    assert_eq!(capacities.len(), n_links, "capacities ≠ links");

    let flow_links: Vec<Vec<u32>> = groups.iter().map(|g| g.links.clone()).collect();
    let weights: Vec<u64> = groups
        .iter()
        .map(|g| {
            g.members
                .iter()
                .fold(0u64, |acc, m| acc.saturating_add(m.weight.max(1) as u64))
        })
        .collect();
    let classes: Vec<TrafficClass> = groups.iter().map(|g| g.class).collect();
    let agg_demands: Vec<u64> = groups
        .iter()
        .map(|g| {
            g.members
                .iter()
                .fold(0u64, |acc, m| {
                    acc.saturating_add(demands[m.flow as usize].min(DEMAND_CAP_BPS))
                })
                .min(DEMAND_CAP_BPS)
        })
        .collect();

    let mut agg_rates = vec![0u64; groups.len()];
    let mut residual: Vec<u64> = capacities.to_vec();
    for class in [TrafficClass::Control, TrafficClass::Bulk] {
        fill_unbatched_raw(
            &flow_links,
            &weights,
            &classes,
            class,
            &agg_demands,
            &mut agg_rates,
            &mut residual,
            n_links,
        );
    }

    let mut rates = vec![0u64; n_flows];
    for (g, group) in groups.iter().enumerate() {
        let mut remaining = agg_rates[g];
        let mut active: Vec<usize> = Vec::new();
        let mut weight_sum = 0u64;
        for (i, m) in group.members.iter().enumerate() {
            if demands[m.flow as usize].min(DEMAND_CAP_BPS) > 0 {
                active.push(i);
                weight_sum = weight_sum.saturating_add(m.weight.max(1) as u64);
            }
        }
        while !active.is_empty() && weight_sum > 0 {
            let share = remaining / weight_sum;
            if share == 0 {
                break;
            }
            // One freeze per round: the minimum gap in level units.
            let gap_units = active
                .iter()
                .map(|&i| {
                    let m = group.members[i];
                    let fi = m.flow as usize;
                    (demands[fi].min(DEMAND_CAP_BPS) - rates[fi]).div_ceil(m.weight.max(1) as u64)
                })
                .min()
                .unwrap_or(0);
            let delta = share.min(gap_units);
            for &i in &active {
                let m = group.members[i];
                let fi = m.flow as usize;
                let gap = demands[fi].min(DEMAND_CAP_BPS) - rates[fi];
                let inc = delta.saturating_mul(m.weight.max(1) as u64).min(gap);
                rates[fi] += inc;
                remaining -= inc;
            }
            active.retain(|&i| {
                let m = group.members[i];
                let fi = m.flow as usize;
                let done = rates[fi] >= demands[fi].min(DEMAND_CAP_BPS);
                if done {
                    weight_sum -= m.weight.max(1) as u64;
                }
                !done
            });
        }
        if remaining > 0 {
            for m in &group.members {
                let fi = m.flow as usize;
                let gap = demands[fi].min(DEMAND_CAP_BPS) - rates[fi];
                let inc = gap.min(remaining);
                rates[fi] += inc;
                remaining -= inc;
                if remaining == 0 {
                    break;
                }
            }
        }
    }
    rates
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allocator::FairShareAllocator;

    #[test]
    fn reference_matches_textbook_example() {
        let fl = vec![vec![0], vec![0, 1], vec![0, 1]];
        let rates = allocate_reference(&fl, 2, &[1_000_000_000; 3], &[100_000_000, 40_000_000]);
        assert_eq!(rates, vec![60_000_000, 20_000_000, 20_000_000]);
    }

    #[test]
    fn production_matches_reference_on_fixed_case() {
        let fl = vec![
            vec![0],
            vec![0, 1],
            vec![1, 2],
            vec![2],
            vec![0, 2],
            vec![1],
        ];
        let demands = [37u64, 91, 13, 70, 55, 28];
        let caps = [90u64, 60, 50];
        let mut a = FairShareAllocator::new();
        a.set_flows(fl.iter().cloned().map(FlowSpec::bulk).collect(), 3);
        assert_eq!(
            a.allocate(&demands, &caps),
            allocate_reference(&fl, 3, &demands, &caps)
        );
    }

    #[test]
    fn hierarchical_reference_matches_production_on_fixed_case() {
        use crate::aggregate::{AggregateMember, HierarchicalAllocator};
        let groups = vec![
            AggregateSpec {
                links: vec![0],
                class: TrafficClass::Control,
                members: vec![AggregateMember { flow: 0, weight: 1 }],
            },
            AggregateSpec {
                links: vec![0, 1],
                class: TrafficClass::Bulk,
                members: vec![
                    AggregateMember { flow: 1, weight: 2 },
                    AggregateMember { flow: 2, weight: 1 },
                    AggregateMember { flow: 3, weight: 1 },
                ],
            },
            AggregateSpec {
                links: vec![1],
                class: TrafficClass::Bulk,
                members: vec![
                    AggregateMember { flow: 4, weight: 3 },
                    AggregateMember { flow: 5, weight: 1 },
                ],
            },
        ];
        let demands = [40u64, 500, 13, 120, 77, 9_001];
        let caps = [200u64, 90];
        let mut hier = HierarchicalAllocator::new();
        hier.set_aggregates(groups.clone(), 2, 6);
        assert_eq!(
            hier.allocate(&demands, &caps),
            allocate_hierarchical_reference(&groups, 2, 6, &demands, &caps)
        );
    }

    #[test]
    fn unbatched_matches_production_on_weighted_case() {
        let specs = vec![
            FlowSpec::new(vec![0], 3, TrafficClass::Control),
            FlowSpec::new(vec![0, 1], 2, TrafficClass::Bulk),
            FlowSpec::new(vec![1], 1, TrafficClass::Bulk),
            FlowSpec::new(vec![0, 1], 1, TrafficClass::Bulk),
        ];
        let demands = [40u64, 500, 120, 9];
        let caps = [200u64, 90];
        let mut a = FairShareAllocator::new();
        a.set_flows(specs.clone(), 2);
        assert_eq!(
            a.allocate(&demands, &caps),
            allocate_weighted_unbatched(&specs, 2, &demands, &caps)
        );
    }
}
