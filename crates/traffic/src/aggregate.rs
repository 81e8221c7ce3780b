//! Hierarchical site×class aggregation over the fair-share allocator:
//! the million-flow path.
//!
//! The flat [`FairShareAllocator`] scans every active flow every
//! round, so its per-tick cost is O(rounds × flows) — fine at the
//! ~5k flows of the bench ladder, hopeless at the paper's
//! country-scale user population. The fix mirrors how the demand side
//! already thinks: flows belong to a *site* and a *service class*,
//! and every flow of one (site, class, path) triple crosses exactly
//! the same link set. [`HierarchicalAllocator`] collapses each such
//! group into a single **aggregate node** carrying the summed demand
//! and summed weight of its members, runs the exact-integer
//! strict-priority + weighted max-min water-filling over the
//! aggregate tree (one allocator flow per aggregate — thousands, not
//! millions), and then distributes each aggregate's grant back to its
//! members by weight, again in exact u64 arithmetic.
//!
//! **Distribution rule.** An aggregate that was granted `A` bps
//! water-fills its members over the single budget `A` with the same
//! batch-freeze round structure as the flat allocator (fill level
//! capped by `floor(B / W)` below and the largest member gap above,
//! each member's rise clamped to its own gap), then sweeps any
//! remaining scraps to members in index order, clamped to their
//! demand gaps. The sweep makes distribution *exact*: the members of
//! an aggregate granted `A ≤ D` receive exactly `A` in total — no
//! bits are lost to integer floors inside the tree, which is what
//! keeps singleton aggregates bit-identical to the flat allocator.
//! Exactness also settles the two common grants without a round: an
//! aggregate granted 0 leaves every member at 0, and one granted its
//! whole member sum `Σ min(d_f, cap)` has every member at its capped
//! demand (the total is `A` and no member may exceed its cap, so there
//! is no other solution). Only a strictly partial grant water-fills.
//!
//! **Layout and the two halves.** All members sit in one flat list,
//! group after group (compressed sparse rows: `(flow, weight)` pairs
//! and the group bounds). [`HierarchicalAllocator::grant`] water-fills
//! the aggregate tree from per-aggregate demand sums;
//! [`HierarchicalAllocator::distribute`] hands one aggregate's grant to
//! its members. [`HierarchicalAllocator::allocate_into`] composes them;
//! the traffic engine sums its own aggregates and distributes only
//! strictly partial grants (DESIGN.md §8).
//!
//! **When aggregation is lossless.** The hierarchical result
//! collapses bit-for-bit to the flat weighted max-min when
//!
//! * every aggregate is a singleton: the aggregate tree then *is* the
//!   flat problem (same links, weights, demands, round structure),
//!   and the exact distribution hands each node's grant to its one
//!   member unchanged; or
//! * no link congests (every flow's demand is met): both allocators
//!   grant exactly the capped demand to every flow.
//!
//! Both collapses are enforced against the flat allocator by proptest
//! (`tests/traffic_props.rs`). In general the collapse is lossy, for
//! two reasons worth naming. First, an aggregate's summed demand
//! hides *which* member wants the bits, so a demand-bound member
//! inside a congested aggregate shifts share to its siblings rather
//! than to flows outside the aggregate. Second — subtler — the flat
//! filler's freeze pass decrements the per-link active weight *as it
//! scans*, so when a link saturates with integer scraps left, flows
//! later in index order can survive a round their identical siblings
//! froze in; even two members with equal links, weights, and demands
//! end a congested flat run with slightly different rates. A
//! (weight-proportional) aggregate cannot reproduce that sequential
//! cascade, so congested runs differ from flat by a few bps per flow
//! even when member demands are proportional to weights. That is the
//! deliberate trade — exact integer distribution inside a site for a
//! thousandfold smaller water-filling problem — and the engine's
//! site×class grouping keeps the distortion within a site's own
//! traffic.
//!
//! Determinism contract: unchanged from the flat allocator. The
//! aggregate run *is* a [`FairShareAllocator`], and distribution is
//! exact integer arithmetic over a deterministic group order, so the
//! whole pipeline is bit-identical across reruns — enforced at scale
//! by `traffic_scale`'s identity gates.

use crate::allocator::{FairShareAllocator, TrafficClass, DEMAND_CAP_BPS};
use std::mem::take;

/// One member of an aggregate: a flow index in the caller's flow
/// space and its max-min weight within the aggregate (0 is promoted
/// to 1, matching [`crate::allocator::FlowSpec`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AggregateMember {
    /// Flow index (`< n_flows` of the owning topology).
    pub flow: u32,
    /// Weight within the aggregate *and* contribution to the
    /// aggregate node's weight.
    pub weight: u32,
}

/// One aggregate node: a set of member flows that all cross the same
/// links in the same service class. The node presents the summed
/// member weight and summed member demand to the aggregate-tree
/// water-fill.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AggregateSpec {
    /// The link set shared by every member (empty ⇒ uncongested:
    /// every member gets its full demand).
    pub links: Vec<u32>,
    /// Strict-priority class of every member.
    pub class: TrafficClass,
    /// Member flows; each flow index must appear in at most one
    /// aggregate across the whole spec set.
    pub members: Vec<AggregateMember>,
}

/// Hierarchical two-level allocator: an exact [`FairShareAllocator`]
/// over aggregate nodes, plus an exact per-aggregate distribution back
/// to member flows. See the module docs for the semantics.
#[derive(Debug, Clone, Default)]
pub struct HierarchicalAllocator {
    /// The aggregate-tree water-fill (one flow per aggregate).
    inner: FairShareAllocator,
    /// Every aggregate's members, weight-promoted to u64, group after
    /// group: aggregate `g`'s are `members[bounds[g]..bounds[g + 1]]`.
    members: Vec<(u32, u64)>,
    bounds: Vec<usize>,
    n_flows: usize,
    /// Scratch: aggregate demands (uncapped member sums) / grants and
    /// the per-group active set, reused so capacity-only ticks
    /// allocate nothing.
    agg_demands: Vec<u64>,
    agg_rates: Vec<u64>,
    dist_active: Vec<u32>,
}

impl HierarchicalAllocator {
    /// A fresh allocator with no topology.
    pub fn new() -> Self {
        Self::default()
    }

    /// Install the aggregate tree for the current forwarding graph:
    /// `groups` in their (deterministic) evaluation order, over a
    /// flow space of `n_flows` flows and `n_links` links. Each flow
    /// index may appear in at most one group; flows in no group are
    /// allocated 0.
    pub fn set_aggregates(&mut self, groups: Vec<AggregateSpec>, n_links: usize, n_flows: usize) {
        #[cfg(debug_assertions)]
        {
            let mut seen = vec![false; n_flows];
            for g in &groups {
                for m in &g.members {
                    assert!((m.flow as usize) < n_flows, "member flow out of range");
                    assert!(!seen[m.flow as usize], "flow {} in two aggregates", m.flow);
                    seen[m.flow as usize] = true;
                }
            }
        }
        let mut flow_links = Vec::with_capacity(groups.len());
        let mut weights = Vec::with_capacity(groups.len());
        let mut classes = Vec::with_capacity(groups.len());
        self.members.clear();
        self.bounds.clear();
        self.bounds.push(0);
        for g in groups {
            let mem = g.members.iter().map(|m| (m.flow, m.weight.max(1) as u64));
            self.members.extend(mem.clone());
            self.bounds.push(self.members.len());
            weights.push(mem.fold(0u64, |sum, (_, w)| sum.saturating_add(w)));
            flow_links.push(g.links);
            classes.push(g.class);
        }
        self.inner
            .set_flows_raw(flow_links, weights, classes, n_links);
        self.n_flows = n_flows;
    }

    /// Compute the hierarchical allocation: per-member `demands[f]`
    /// and per-link `capacities[l]` in bps, returning the granted
    /// rate per member flow. See [`allocate_into`](Self::allocate_into).
    pub fn allocate(&mut self, demands: &[u64], capacities: &[u64]) -> Vec<u64> {
        let mut rates = Vec::new();
        self.allocate_into(demands, capacities, &mut rates);
        rates
    }

    /// [`allocate`](Self::allocate) into a caller-owned vector: member
    /// demands rolled up per aggregate, then [`grant`](Self::grant) and
    /// [`distribute`](Self::distribute). After the first call, a
    /// capacity-only tick (same tree, fresh capacities, reused `rates`)
    /// performs zero heap allocation.
    pub fn allocate_into(&mut self, demands: &[u64], capacities: &[u64], rates: &mut Vec<u64>) {
        assert_eq!(demands.len(), self.n_flows, "demands ≠ tree flows");

        // Roll member demands up into their aggregate nodes: the
        // saturating sum of the capped member demands. The aggregate
        // run caps it like any flat demand, so it stays overflow-free.
        // (A sum that hits the cap makes the collapse lossy; the
        // engine's per-site demands are nowhere near it.)
        let (mut sums, mut grants) = (take(&mut self.agg_demands), take(&mut self.agg_rates));
        sums.clear();
        sums.extend(self.bounds.windows(2).map(|b| {
            self.members[b[0]..b[1]].iter().fold(0u64, |sum, &(f, _)| {
                sum.saturating_add(demands[f as usize].min(DEMAND_CAP_BPS))
            })
        }));
        self.grant(&sums, capacities, &mut grants);

        // `distribute` hands out exactly the grant and never lifts a
        // member above its capped demand, so a grant of nothing leaves
        // every member at 0 and a grant of the whole member sum puts
        // every member at its capped demand: neither needs the rounds.
        // (A sum above the cap is granted at most the cap, so it takes
        // them.)
        rates.clear();
        rates.resize(self.n_flows, 0);
        for (g, (&grant, &sum)) in grants.iter().zip(&sums).enumerate() {
            if grant == 0 {
                continue;
            }
            if grant == sum {
                for &(f, _) in &self.members[self.bounds[g]..self.bounds[g + 1]] {
                    rates[f as usize] = demands[f as usize].min(DEMAND_CAP_BPS);
                }
            } else {
                self.distribute(g, grant, demands, rates);
            }
        }
        (self.agg_demands, self.agg_rates) = (sums, grants);
    }

    /// The exact water-fill over the aggregate tree: aggregate `g`
    /// demands `sums[g]` (its members' capped demands, summed
    /// saturating) and is granted `grants[g] ≤ sums[g]`.
    pub fn grant(&mut self, sums: &[u64], capacities: &[u64], grants: &mut Vec<u64>) {
        self.inner.allocate_into(sums, capacities, grants);
    }

    /// Hand aggregate `g`'s grant `budget` to its members: writes
    /// `rates[f]` for those members and no other slot.
    pub fn distribute(&mut self, g: usize, budget: u64, demands: &[u64], rates: &mut [u64]) {
        let members = &self.members[self.bounds[g]..self.bounds[g + 1]];
        for &(f, _) in members {
            rates[f as usize] = 0;
        }
        distribute(budget, members, demands, rates, &mut self.dist_active);
    }
}

/// Water-fill one aggregate's grant `budget` over its members (the
/// flat allocator's batch-freeze rounds against a single resource),
/// then sweep the integer scraps to members in index order. Members
/// receive exactly `budget` in total (the aggregate run guarantees
/// `budget ≤ Σ capped member demands`).
fn distribute(
    budget: u64,
    members: &[(u32, u64)],
    demands: &[u64],
    rates: &mut [u64],
    active: &mut Vec<u32>,
) {
    let mut remaining = budget;

    // Weight-proportional rounds. `active` holds indices into
    // `members`; `weight_sum` tracks the still-rising members.
    active.clear();
    let mut weight_sum = 0u64;
    for (i, &(f, w)) in members.iter().enumerate() {
        if demands[f as usize].min(DEMAND_CAP_BPS) > 0 {
            active.push(i as u32);
            weight_sum = weight_sum.saturating_add(w);
        }
    }
    while !active.is_empty() && weight_sum > 0 {
        // Fill level this round: what the budget can grant per unit
        // weight, capped above by the largest member gap so every
        // demand-bound member inside the window freezes at once.
        let share = remaining / weight_sum;
        if share == 0 {
            break; // saturated: scraps fall through to the sweep
        }
        let gap_units = active
            .iter()
            .map(|&i| {
                let (f, w) = members[i as usize];
                (demands[f as usize].min(DEMAND_CAP_BPS) - rates[f as usize]).div_ceil(w)
            })
            .max()
            .unwrap_or(0);
        let delta = share.min(gap_units);
        for &i in active.iter() {
            let (f, w) = members[i as usize];
            let fi = f as usize;
            let gap = demands[fi].min(DEMAND_CAP_BPS) - rates[fi];
            let inc = delta.saturating_mul(w).min(gap);
            rates[fi] += inc;
            remaining -= inc;
        }
        active.retain(|&i| {
            let (f, w) = members[i as usize];
            let fi = f as usize;
            let done = rates[fi] >= demands[fi].min(DEMAND_CAP_BPS);
            if done {
                weight_sum -= w;
            }
            !done
        });
    }

    // Index-order remainder sweep: the water-fill floors leave
    // `remaining < weight_sum` scraps; hand them out deterministically
    // so the members receive exactly the aggregate's grant. (This is
    // what makes a singleton aggregate collapse to the flat result —
    // its one member gets exactly `budget`, not `floor(budget/w)·w`.)
    if remaining > 0 {
        for &(f, _) in members {
            let fi = f as usize;
            let gap = demands[fi].min(DEMAND_CAP_BPS) - rates[fi];
            let inc = gap.min(remaining);
            rates[fi] += inc;
            remaining -= inc;
            if remaining == 0 {
                break;
            }
        }
    }
    debug_assert_eq!(remaining, 0, "aggregate grant exceeded member demand");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allocator::{FlowSpec, TrafficClass};

    fn singleton_groups(specs: &[FlowSpec]) -> Vec<AggregateSpec> {
        specs
            .iter()
            .enumerate()
            .map(|(f, s)| AggregateSpec {
                links: s.links.clone(),
                class: s.class,
                members: vec![AggregateMember {
                    flow: f as u32,
                    weight: s.weight,
                }],
            })
            .collect()
    }

    #[test]
    fn singleton_aggregates_match_flat_exactly() {
        let specs = vec![
            FlowSpec::new(vec![0], 3, TrafficClass::Control),
            FlowSpec::new(vec![0, 1], 2, TrafficClass::Bulk),
            FlowSpec::new(vec![1], 1, TrafficClass::Bulk),
            FlowSpec::new(vec![0, 1], 1, TrafficClass::Bulk),
            FlowSpec::new(vec![], 1, TrafficClass::Bulk),
        ];
        let demands = [40u64, 500, 123, 9, 77];
        let caps = [200u64, 90];
        let mut flat = FairShareAllocator::new();
        flat.set_flows(specs.clone(), 2);
        let mut hier = HierarchicalAllocator::new();
        hier.set_aggregates(singleton_groups(&specs), 2, specs.len());
        assert_eq!(
            hier.allocate(&demands, &caps),
            flat.allocate(&demands, &caps)
        );
    }

    #[test]
    fn uncongested_groups_match_flat_exactly() {
        // Multi-member aggregates on links with headroom: both
        // allocators must grant every flow its full demand,
        // bit-for-bit.
        let w_a = [4u32, 2, 1];
        let w_b = [3u32, 3, 1];
        let mut specs = Vec::new();
        let mut demands: Vec<u64> = Vec::new();
        for (i, &w) in w_a.iter().enumerate() {
            specs.push(FlowSpec::new(vec![0], w, TrafficClass::Bulk));
            demands.push(200 + 17 * i as u64);
        }
        for (i, &w) in w_b.iter().enumerate() {
            specs.push(FlowSpec::new(vec![0, 1], w, TrafficClass::Bulk));
            demands.push(91 + 13 * i as u64);
        }
        specs.push(FlowSpec::new(vec![1], 2, TrafficClass::Control));
        demands.push(444);

        let groups = vec![
            AggregateSpec {
                links: vec![0],
                class: TrafficClass::Bulk,
                members: (0u32..3)
                    .map(|i| AggregateMember {
                        flow: i,
                        weight: w_a[i as usize],
                    })
                    .collect(),
            },
            AggregateSpec {
                links: vec![0, 1],
                class: TrafficClass::Bulk,
                members: (3u32..6)
                    .map(|i| AggregateMember {
                        flow: i,
                        weight: w_b[i as usize - 3],
                    })
                    .collect(),
            },
            AggregateSpec {
                links: vec![1],
                class: TrafficClass::Control,
                members: vec![AggregateMember { flow: 6, weight: 2 }],
            },
        ];

        let caps = [10_000u64, 6_000];
        let mut flat = FairShareAllocator::new();
        flat.set_flows(specs, 2);
        let mut hier = HierarchicalAllocator::new();
        hier.set_aggregates(groups, 2, demands.len());
        let rates = hier.allocate(&demands, &caps);
        assert_eq!(rates, flat.allocate(&demands, &caps));
        assert_eq!(rates, demands, "headroom ⇒ every flow at demand");
    }

    #[test]
    fn distribution_is_exact_and_demand_bounded() {
        // A congested aggregate: members get weight-shares of the
        // grant, the grant is fully distributed, and no member
        // exceeds its demand.
        let mut hier = HierarchicalAllocator::new();
        hier.set_aggregates(
            vec![AggregateSpec {
                links: vec![0],
                class: TrafficClass::Bulk,
                members: vec![
                    AggregateMember { flow: 0, weight: 1 },
                    AggregateMember { flow: 1, weight: 2 },
                    AggregateMember { flow: 2, weight: 4 },
                ],
            }],
            1,
            3,
        );
        let demands = [1_000u64, 50, 1_000];
        let rates = hier.allocate(&demands, &[700]);
        assert_eq!(rates.iter().sum::<u64>(), 700, "grant fully distributed");
        for (f, &r) in rates.iter().enumerate() {
            assert!(r <= demands[f], "flow {f} over demand");
        }
        // The demand-capped middle member frees share for its
        // siblings at 1:4.
        assert_eq!(rates[1], 50);
        assert_eq!(rates[2], rates[0] * 4);
    }

    /// One Bulk aggregate over `links` with the given member weights,
    /// allocated by the production allocator. `tests/traffic_props.rs`
    /// holds the same cases to the oracle's tree.
    fn one_aggregate(links: Vec<u32>, weights: &[u32], demands: &[u64], caps: &[u64]) -> Vec<u64> {
        let members = weights
            .iter()
            .enumerate()
            .map(|(f, &weight)| AggregateMember {
                flow: f as u32,
                weight,
            });
        let groups = vec![AggregateSpec {
            links,
            class: TrafficClass::Bulk,
            members: members.collect(),
        }];
        let mut hier = HierarchicalAllocator::new();
        hier.set_aggregates(groups, caps.len(), demands.len());
        hier.allocate(demands, caps)
    }

    #[test]
    fn full_grant_gives_the_capped_demand_not_the_demand() {
        // An over-cap member beside a silent one: Σ capped demand is
        // exactly CAP, and the linkless aggregate is granted all of it.
        let rates = one_aggregate(vec![], &[1, 1], &[u64::MAX, 0], &[]);
        assert_eq!(rates, vec![DEMAND_CAP_BPS, 0]);
    }

    #[test]
    fn member_sum_above_the_cap_takes_the_rounds() {
        // Σ capped demand = 2·CAP was clamped to CAP on the way in, so
        // the grant (CAP, the aggregate is linkless) is partial: the
        // two equal members split it, the odd bit to the first.
        let rates = one_aggregate(vec![], &[1, 1], &[u64::MAX, DEMAND_CAP_BPS], &[]);
        assert_eq!(rates, vec![DEMAND_CAP_BPS / 2 + 1, DEMAND_CAP_BPS / 2]);
    }

    #[test]
    fn zero_demand_members_of_a_full_aggregate_stay_zero() {
        let rates = one_aggregate(vec![0], &[3, 1, 2, 1], &[0, 40, 0, 2], &[42]);
        assert_eq!(rates, vec![0, 40, 0, 2]);
    }

    #[test]
    fn empty_links_aggregate_is_granted_in_full() {
        let demands = [5u64, 0, 1 << 40, 77];
        assert_eq!(
            one_aggregate(vec![], &[1, 2, 3, 4], &demands, &[9]),
            demands
        );
    }

    #[test]
    fn weight_zero_members_count_as_weight_one() {
        // Full, none and partial grants, the partial one shared 1:1:2.
        let (w, d) = ([0u32, 1, 2], [100u64, 100, 100]);
        assert_eq!(one_aggregate(vec![0], &w, &d, &[300]), vec![100, 100, 100]);
        assert_eq!(one_aggregate(vec![0], &w, &d, &[0]), vec![0, 0, 0]);
        assert_eq!(one_aggregate(vec![0], &w, &d, &[200]), vec![50, 50, 100]);
    }

    #[test]
    fn control_aggregates_drain_before_bulk() {
        let mut hier = HierarchicalAllocator::new();
        hier.set_aggregates(
            vec![
                AggregateSpec {
                    links: vec![0],
                    class: TrafficClass::Control,
                    members: vec![AggregateMember { flow: 0, weight: 1 }],
                },
                AggregateSpec {
                    links: vec![0],
                    class: TrafficClass::Bulk,
                    members: vec![
                        AggregateMember { flow: 1, weight: 1 },
                        AggregateMember { flow: 2, weight: 1 },
                    ],
                },
            ],
            1,
            3,
        );
        assert_eq!(hier.allocate(&[30, 1_000, 1_000], &[100]), vec![30, 35, 35]);
        assert_eq!(hier.allocate(&[500, 1_000, 1_000], &[100]), vec![100, 0, 0]);
    }

    #[test]
    fn ungrouped_flows_get_zero() {
        let mut hier = HierarchicalAllocator::new();
        hier.set_aggregates(
            vec![AggregateSpec {
                links: vec![],
                class: TrafficClass::Bulk,
                members: vec![AggregateMember { flow: 1, weight: 1 }],
            }],
            0,
            3,
        );
        assert_eq!(hier.allocate(&[10, 20, 30], &[]), vec![0, 20, 0]);
    }

    #[test]
    fn capacity_only_reallocation_is_stable_and_signature_fixed() {
        let mut hier = HierarchicalAllocator::new();
        hier.set_aggregates(
            vec![AggregateSpec {
                links: vec![0],
                class: TrafficClass::Bulk,
                members: vec![
                    AggregateMember { flow: 0, weight: 1 },
                    AggregateMember { flow: 1, weight: 1 },
                ],
            }],
            1,
            2,
        );
        let mut rates = Vec::new();
        hier.allocate_into(&[100, 100], &[100], &mut rates);
        assert_eq!(rates, vec![50, 50]);
        hier.allocate_into(&[100, 100], &[60], &mut rates);
        assert_eq!(rates, vec![30, 30]);
    }
}
