//! Property-based tests for the tiered-service traffic allocator:
//! fairness within a class, strict priority across classes, and
//! byte-identity of the batch-freeze production filler against the
//! one-freeze-per-round filler of `tssdn_oracle::max_min` — plus the
//! hierarchical site×class aggregation layer's contracts: lossless
//! collapse to the flat allocator on singleton and uncongested
//! inputs, byte-identity against the oracle's tree, per-link
//! feasibility, and control isolation through the aggregate tree.

use proptest::prelude::*;
use tssdn_oracle::max_min;
use tssdn_traffic::{
    AggregateMember, AggregateSpec, FairShareAllocator, FlowSpec, HierarchicalAllocator,
    TrafficClass,
};

const N_LINKS: usize = 6;

/// Raw generated flow: (link bitmask over `N_LINKS`, weight, class
/// pick, demand). Mask 0 models a linkless (wired-tail) flow; class
/// pick 0 maps to the strict-priority control class (~25%).
type RawFlow = (u8, u32, u8, u64);

/// Element strategy for one raw flow (mirrors [`RawFlow`]).
type RawFlowStrategy = (
    std::ops::Range<u8>,
    std::ops::Range<u32>,
    std::ops::Range<u8>,
    std::ops::Range<u64>,
);

/// Strategy for one random allocation case.
fn raw_case() -> (
    prop::collection::VecStrategy<RawFlowStrategy>,
    prop::collection::VecStrategy<std::ops::Range<u64>>,
) {
    (
        prop::collection::vec((0u8..64, 1u32..5, 0u8..4, 0u64..50_000), 1..12),
        prop::collection::vec(0u64..100_000, 6..7),
    )
}

/// One aggregate whose grant is forced: its members' `(weight,
/// demand)` — weight 0 is promoted to 1 by the allocator — the
/// outcome its own link is sized for (0 nothing, 1 everything, 2
/// strictly in between) and a per-mille dial for where in between.
type ForcedGroup = (Vec<(u32, u64)>, u8, u64);

/// Strategy for up to `N_LINKS` multi-member aggregates, one link
/// each.
fn forced_grants() -> impl Strategy<Value = Vec<ForcedGroup>> {
    let members = prop::collection::vec((0u32..5, 0u64..50_000), 2..6);
    prop::collection::vec((members, 0u8..3, 0u64..1000), 1..N_LINKS + 1)
}

/// Aggregate `g` of the forced groups is Bulk on link `g` alone, so
/// its grant is `min(Σ demand, capacity of g)`: capacity 0 grants
/// nothing, Σ demand or more grants everything, and anything in
/// `1..Σ demand` is a partial grant.
fn forced_case(forced: &[ForcedGroup]) -> (Vec<AggregateSpec>, Vec<u64>, Vec<u64>) {
    let mut groups = Vec::new();
    let mut demands = Vec::new();
    let mut caps = vec![0u64; N_LINKS];
    for (g, (members, outcome, dial)) in forced.iter().enumerate() {
        let wanted: u64 = members.iter().map(|m| m.1).sum();
        caps[g] = match outcome {
            0 => 0,
            1 => wanted + dial,
            _ => 1 + dial * wanted.saturating_sub(2) / 1000,
        };
        groups.push(AggregateSpec {
            links: vec![g as u32],
            class: TrafficClass::Bulk,
            members: members
                .iter()
                .map(|&(weight, demand)| {
                    demands.push(demand);
                    AggregateMember {
                        flow: demands.len() as u32 - 1,
                        weight,
                    }
                })
                .collect(),
        });
    }
    (groups, demands, caps)
}

fn specs_of(flows: &[RawFlow]) -> Vec<FlowSpec> {
    flows
        .iter()
        .map(|&(mask, w, pick, _)| {
            let links: Vec<u32> = (0..N_LINKS as u32).filter(|l| mask >> l & 1 == 1).collect();
            let class = if pick == 0 {
                TrafficClass::Control
            } else {
                TrafficClass::Bulk
            };
            FlowSpec::new(links, w, class)
        })
        .collect()
}

fn demands_of(flows: &[RawFlow]) -> Vec<u64> {
    flows.iter().map(|f| f.3).collect()
}

fn allocate(specs: &[FlowSpec], demands: &[u64], caps: &[u64]) -> Vec<u64> {
    let mut a = FairShareAllocator::new();
    a.set_flows(specs.to_vec(), N_LINKS);
    a.allocate(demands, caps)
}

/// Fold the raw flows into aggregates keyed by (link set, class) —
/// the invariant real site×class aggregation guarantees (members of
/// one aggregate cross identical links), over arbitrary generated
/// flow sets.
fn groups_of(flows: &[RawFlow]) -> Vec<AggregateSpec> {
    let mut keys: Vec<(u8, TrafficClass)> = Vec::new();
    let mut groups: Vec<AggregateSpec> = Vec::new();
    for (fi, &(mask, w, pick, _)) in flows.iter().enumerate() {
        let class = if pick == 0 {
            TrafficClass::Control
        } else {
            TrafficClass::Bulk
        };
        let gi = keys
            .iter()
            .position(|&k| k == (mask, class))
            .unwrap_or_else(|| {
                keys.push((mask, class));
                groups.push(AggregateSpec {
                    links: (0..N_LINKS as u32).filter(|l| mask >> l & 1 == 1).collect(),
                    class,
                    members: Vec::new(),
                });
                groups.len() - 1
            });
        groups[gi].members.push(AggregateMember {
            flow: fi as u32,
            weight: w,
        });
    }
    groups
}

fn allocate_hier(
    groups: &[AggregateSpec],
    n_flows: usize,
    demands: &[u64],
    caps: &[u64],
) -> Vec<u64> {
    let mut h = HierarchicalAllocator::new();
    h.set_aggregates(groups.to_vec(), N_LINKS, n_flows);
    h.allocate(demands, caps)
}

proptest! {
    /// The batch-freeze production filler is byte-identical to the
    /// one-freeze-per-round oracle on arbitrary weighted, classed flow
    /// sets — the two may only differ in round count.
    #[test]
    fn batch_freeze_matches_unbatched_filler(case in raw_case()) {
        let (flows, caps) = case;
        let specs = specs_of(&flows);
        let demands = demands_of(&flows);
        let fast = allocate(&specs, &demands, &caps);
        let slow = max_min::allocate(&specs, N_LINKS, &demands, &caps);
        prop_assert_eq!(fast, slow);
    }

    /// Compatibility oracle: with every flow at weight 1, class Bulk,
    /// the tiered allocator collapses to the textbook equal-share
    /// filler, which is the oracle's filler on that projection.
    #[test]
    fn weight1_bulk_collapses_to_pr3_reference(case in raw_case()) {
        let (flows, caps) = case;
        let demands = demands_of(&flows);
        let bulk: Vec<FlowSpec> =
            specs_of(&flows).into_iter().map(|s| FlowSpec::bulk(s.links)).collect();
        let fast = allocate(&bulk, &demands, &caps);
        let slow = max_min::allocate(&bulk, N_LINKS, &demands, &caps);
        prop_assert_eq!(fast, slow);
    }

    /// Feasibility: no flow exceeds its demand, no link carries more
    /// than its capacity, and linkless flows resolve to their demand.
    #[test]
    fn allocation_is_feasible(case in raw_case()) {
        let (flows, caps) = case;
        let specs = specs_of(&flows);
        let demands = demands_of(&flows);
        let rates = allocate(&specs, &demands, &caps);
        let mut carried = [0u64; N_LINKS];
        for (f, spec) in specs.iter().enumerate() {
            prop_assert!(rates[f] <= demands[f], "flow {f} over demand");
            if spec.links.is_empty() {
                prop_assert_eq!(rates[f], demands[f], "linkless flow {f} uncapped");
            }
            for &l in &spec.links {
                carried[l as usize] += rates[f];
            }
        }
        for l in 0..N_LINKS {
            prop_assert!(carried[l] <= caps[l], "link {l}: {} > {}", carried[l], caps[l]);
        }
    }

    /// Strict priority: the control class is allocated as if bulk did
    /// not exist — zeroing all bulk demand changes no control rate.
    #[test]
    fn control_rates_ignore_bulk_load(case in raw_case()) {
        let (flows, caps) = case;
        let specs = specs_of(&flows);
        let demands = demands_of(&flows);
        let with_bulk = allocate(&specs, &demands, &caps);
        let control_only: Vec<u64> = demands
            .iter()
            .zip(&specs)
            .map(|(&d, s)| if s.class == TrafficClass::Control { d } else { 0 })
            .collect();
        let without_bulk = allocate(&specs, &control_only, &caps);
        for (f, spec) in specs.iter().enumerate() {
            if spec.class == TrafficClass::Control {
                prop_assert_eq!(with_bulk[f], without_bulk[f], "control flow {f} perturbed");
            }
        }
    }

    /// Bulk is starved only at saturation: a routed bulk flow that
    /// offered demand but received nothing must cross a link whose
    /// final residual cannot fit even one fill-level unit of the
    /// initially-active bulk weight crossing it.
    #[test]
    fn bulk_starves_only_when_a_link_saturates(case in raw_case()) {
        let (flows, caps) = case;
        let specs = specs_of(&flows);
        let demands = demands_of(&flows);
        let rates = allocate(&specs, &demands, &caps);
        let mut residual = caps.clone();
        let mut bulk_weight = [0u64; N_LINKS];
        for (f, spec) in specs.iter().enumerate() {
            for &l in &spec.links {
                residual[l as usize] -= rates[f];
                if spec.class == TrafficClass::Bulk && demands[f] > 0 {
                    bulk_weight[l as usize] += spec.weight as u64;
                }
            }
        }
        for (f, spec) in specs.iter().enumerate() {
            let starved = spec.class == TrafficClass::Bulk
                && demands[f] > 0
                && !spec.links.is_empty()
                && rates[f] == 0;
            if starved {
                let saturated = spec
                    .links
                    .iter()
                    .any(|&l| residual[l as usize] < bulk_weight[l as usize]);
                prop_assert!(saturated, "flow {f} starved with headroom: {rates:?}");
            }
        }
    }

    /// Within a class, flows sharing an identical link set and both
    /// held below demand split the bottleneck in proportion to their
    /// weights, up to the freeze-boundary slack the progressive
    /// filler allows: when one of the pair freezes on a saturating
    /// link, the survivor can still collect at most that link's
    /// residual, which is strictly less than the link's active weight
    /// sum at the freeze. Hence `|rate_a·w_b − rate_b·w_a|` is
    /// bounded by `max(w_a, w_b) · Σ_l W_init[l]` over their links.
    #[test]
    fn equal_path_flows_split_by_weight(case in raw_case()) {
        let (flows, caps) = case;
        let specs = specs_of(&flows);
        let demands = demands_of(&flows);
        let rates = allocate(&specs, &demands, &caps);
        let mut class_weight = [[0u64; 2]; N_LINKS];
        for (f, spec) in specs.iter().enumerate() {
            if demands[f] > 0 {
                for &l in &spec.links {
                    class_weight[l as usize][spec.class as usize] += spec.weight as u64;
                }
            }
        }
        for a in 0..specs.len() {
            for b in (a + 1)..specs.len() {
                let same = specs[a].class == specs[b].class
                    && specs[a].links == specs[b].links
                    && !specs[a].links.is_empty();
                let below = rates[a] < demands[a] && rates[b] < demands[b];
                if same && below {
                    let (wa, wb) = (specs[a].weight as u128, specs[b].weight as u128);
                    let skew = (rates[a] as u128 * wb).abs_diff(rates[b] as u128 * wa);
                    let shared_weight: u128 = specs[a]
                        .links
                        .iter()
                        .map(|&l| class_weight[l as usize][specs[a].class as usize] as u128)
                        .sum();
                    prop_assert!(
                        skew <= wa.max(wb) * shared_weight,
                        "flows {a},{b} off weight ratio beyond freeze slack: \
                         {:?} vs {:?} (skew {skew})",
                        (rates[a], specs[a].weight),
                        (rates[b], specs[b].weight)
                    );
                }
            }
        }
    }

    /// Lossless collapse, singleton form: with one flow per
    /// aggregate, the hierarchical tree is a relabeling of the flat
    /// problem, so the distributed rates are byte-identical to the
    /// flat allocator on arbitrary inputs — congested or not.
    #[test]
    fn singleton_hierarchy_collapses_to_flat(case in raw_case()) {
        let (flows, caps) = case;
        let specs = specs_of(&flows);
        let demands = demands_of(&flows);
        let singleton: Vec<AggregateSpec> = specs
            .iter()
            .enumerate()
            .map(|(fi, s)| AggregateSpec {
                links: s.links.clone(),
                class: s.class,
                members: vec![AggregateMember { flow: fi as u32, weight: s.weight }],
            })
            .collect();
        let hier = allocate_hier(&singleton, specs.len(), &demands, &caps);
        let flat = allocate(&specs, &demands, &caps);
        prop_assert_eq!(hier, flat);
    }

    /// Lossless collapse, uncongested form: when every link has
    /// headroom for the full offered load, both the flat and the
    /// hierarchical allocator grant every flow its exact demand —
    /// multi-member aggregation loses nothing without contention.
    #[test]
    fn uncongested_aggregation_is_lossless(
        flows in prop::collection::vec((0u8..64, 1u32..5, 0u8..4, 0u64..50_000), 1..12),
    ) {
        // ≤12 flows × <50k demand < 600k — 1M bps per link clears it.
        let caps = vec![1_000_000u64; N_LINKS];
        let specs = specs_of(&flows);
        let demands = demands_of(&flows);
        let groups = groups_of(&flows);
        let hier = allocate_hier(&groups, specs.len(), &demands, &caps);
        let flat = allocate(&specs, &demands, &caps);
        prop_assert_eq!(&hier, &flat);
        prop_assert_eq!(&hier, &demands);
    }

    /// The optimized hierarchical allocator (batch-freeze fill,
    /// recycled scratch, no rounds for an aggregate granted nothing or
    /// everything) is byte-identical to the oracle's one-freeze-per-round
    /// tree — on arbitrary grouped inputs, and on
    /// multi-member aggregates whose link is sized so that each is
    /// granted nothing, everything, or strictly in between.
    #[test]
    fn hierarchical_matches_naive_reference(case in raw_case(), forced in forced_grants()) {
        let (flows, caps) = case;
        let demands = demands_of(&flows);
        let groups = groups_of(&flows);
        let fast = allocate_hier(&groups, flows.len(), &demands, &caps);
        let slow = max_min::allocate_tree(&groups, N_LINKS, flows.len(), &demands, &caps);
        prop_assert_eq!(fast, slow);

        let (groups, demands, caps) = forced_case(&forced);
        let fast = allocate_hier(&groups, demands.len(), &demands, &caps);
        let slow = max_min::allocate_tree(&groups, N_LINKS, demands.len(), &demands, &caps);
        prop_assert_eq!(&fast, &slow);
        // The forcing worked: each aggregate got what its link was
        // sized for.
        for (g, &(_, outcome, _)) in groups.iter().zip(&forced) {
            let of = |v: &[u64]| g.members.iter().map(|m| v[m.flow as usize]).sum::<u64>();
            let (granted, wanted) = (of(&fast), of(&demands));
            match outcome {
                0 => prop_assert_eq!(granted, 0),
                1 => prop_assert_eq!(granted, wanted),
                _ => prop_assert!(wanted < 2 || (0 < granted && granted < wanted)),
            }
        }
    }

    /// Feasibility through the aggregate tree: no member exceeds its
    /// demand, and no link carries more than its capacity when each
    /// member's rate is charged to its aggregate's link set.
    #[test]
    fn hierarchical_allocation_is_feasible(case in raw_case()) {
        let (flows, caps) = case;
        let demands = demands_of(&flows);
        let groups = groups_of(&flows);
        let rates = allocate_hier(&groups, flows.len(), &demands, &caps);
        let mut carried = [0u64; N_LINKS];
        for g in &groups {
            for m in &g.members {
                let f = m.flow as usize;
                prop_assert!(rates[f] <= demands[f], "flow {f} over demand");
                if g.links.is_empty() {
                    prop_assert_eq!(rates[f], demands[f], "linkless flow {f} uncapped");
                }
                for &l in &g.links {
                    carried[l as usize] += rates[f];
                }
            }
        }
        for l in 0..N_LINKS {
            prop_assert!(carried[l] <= caps[l], "link {l}: {} > {}", carried[l], caps[l]);
        }
    }

    /// Zero demand, zero rate — in both allocator arms, whatever the
    /// other flows want and even through a linkless or shared
    /// aggregate. The traffic engine's tick rests on this: a site that
    /// offers nothing is skipped outright, its flows' rates taken to
    /// be 0 without being read (DESIGN.md §8).
    #[test]
    fn zero_demand_gets_zero_rate(
        case in raw_case(),
        silenced in prop::collection::vec(proptest::bool::ANY, 12..13),
    ) {
        let (flows, caps) = case;
        let demands: Vec<u64> = demands_of(&flows)
            .iter()
            .zip(&silenced)
            .map(|(&d, &off)| if off { 0 } else { d })
            .collect();
        let flat = allocate(&specs_of(&flows), &demands, &caps);
        let hier = allocate_hier(&groups_of(&flows), flows.len(), &demands, &caps);
        for f in 0..flows.len() {
            if demands[f] == 0 {
                prop_assert_eq!(flat[f], 0, "flat: flow {} granted without demand", f);
                prop_assert_eq!(hier[f], 0, "hierarchical: flow {} granted without demand", f);
            }
        }
    }

    /// Strict priority survives aggregation: zeroing all bulk demand
    /// changes no control member's rate — control aggregates are
    /// filled as if bulk did not exist, and the within-aggregate
    /// distribution sees the same budget either way.
    #[test]
    fn hierarchical_control_ignores_bulk_load(case in raw_case()) {
        let (flows, caps) = case;
        let demands = demands_of(&flows);
        let groups = groups_of(&flows);
        let with_bulk = allocate_hier(&groups, flows.len(), &demands, &caps);
        let control_only: Vec<u64> = flows
            .iter()
            .enumerate()
            .map(|(f, &(_, _, pick, _))| if pick == 0 { demands[f] } else { 0 })
            .collect();
        let without_bulk = allocate_hier(&groups, flows.len(), &control_only, &caps);
        for g in &groups {
            if g.class != TrafficClass::Control {
                continue;
            }
            for m in &g.members {
                let f = m.flow as usize;
                prop_assert_eq!(with_bulk[f], without_bulk[f], "control flow {} perturbed", f);
            }
        }
    }
}

/// The flat allocator against the oracle's filler on a fixed
/// equal-weight Bulk case.
#[test]
fn production_matches_reference_on_fixed_case() {
    let fl = [
        vec![0],
        vec![0, 1],
        vec![1, 2],
        vec![2],
        vec![0, 2],
        vec![1],
    ];
    let specs: Vec<FlowSpec> = fl.iter().cloned().map(FlowSpec::bulk).collect();
    let demands = [37u64, 91, 13, 70, 55, 28];
    let caps = [90u64, 60, 50];
    let mut a = FairShareAllocator::new();
    a.set_flows(specs.clone(), 3);
    assert_eq!(
        a.allocate(&demands, &caps),
        max_min::allocate(&specs, 3, &demands, &caps)
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
        max_min::allocate(&specs, 2, &demands, &caps)
    );
}

#[test]
fn hierarchical_reference_matches_production_on_fixed_case() {
    let member = |flow, weight| AggregateMember { flow, weight };
    let groups = vec![
        AggregateSpec {
            links: vec![0],
            class: TrafficClass::Control,
            members: vec![member(0, 1)],
        },
        AggregateSpec {
            links: vec![0, 1],
            class: TrafficClass::Bulk,
            members: vec![member(1, 2), member(2, 1), member(3, 1)],
        },
        AggregateSpec {
            links: vec![1],
            class: TrafficClass::Bulk,
            members: vec![member(4, 3), member(5, 1)],
        },
    ];
    let demands = [40u64, 500, 13, 120, 77, 9_001];
    let caps = [200u64, 90];
    let mut hier = HierarchicalAllocator::new();
    hier.set_aggregates(groups.clone(), 2, 6);
    assert_eq!(
        hier.allocate(&demands, &caps),
        max_min::allocate_tree(&groups, 2, 6, &demands, &caps)
    );
}

/// One Bulk aggregate over `links` with the given member weights:
/// production against the oracle's tree.
fn one_aggregate(links: Vec<u32>, weights: &[u32], demands: &[u64], caps: &[u64]) {
    let members = weights.iter().enumerate();
    let groups = vec![AggregateSpec {
        links,
        class: TrafficClass::Bulk,
        members: members
            .map(|(f, &weight)| AggregateMember {
                flow: f as u32,
                weight,
            })
            .collect(),
    }];
    let mut hier = HierarchicalAllocator::new();
    hier.set_aggregates(groups.clone(), caps.len(), demands.len());
    let slow = max_min::allocate_tree(&groups, caps.len(), demands.len(), demands, caps);
    assert_eq!(
        hier.allocate(demands, caps),
        slow,
        "{weights:?} {demands:?}"
    );
}

/// The cases `tssdn_traffic::aggregate`'s unit tests pin to exact
/// rates — one Bulk aggregate at each edge of the distribution: the
/// whole capped sum granted, a member sum above the cap, silent
/// members, no links, weight 0 — against the oracle's tree.
#[test]
fn one_aggregate_edge_cases_match_the_tree_oracle() {
    let cap = u64::MAX / 2;
    one_aggregate(vec![], &[1, 1], &[u64::MAX, 0], &[]);
    one_aggregate(vec![], &[1, 1], &[u64::MAX, cap], &[]);
    one_aggregate(vec![0], &[3, 1, 2, 1], &[0, 40, 0, 2], &[42]);
    one_aggregate(vec![], &[1, 2, 3, 4], &[5, 0, 1 << 40, 77], &[9]);
    for grant in [300, 0, 200] {
        one_aggregate(vec![0], &[0, 1, 2], &[100, 100, 100], &[grant]);
    }
    one_aggregate(vec![0], &[1, 2, 4], &[1_000, 50, 1_000], &[700]);
}
