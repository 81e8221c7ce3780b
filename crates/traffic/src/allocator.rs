//! Tiered max-min fair-share fluid allocation by progressive filling.
//!
//! Each tick the traffic engine asks: given the forwarding graph the
//! TS-SDN actually programmed, the instantaneous link capacities from
//! the ACM table, and the demand each aggregate flow offers, what rate
//! does each flow get? We answer with the water-filling construction
//! of the *weighted* max-min fair allocation, extended with a
//! strict-priority control class: the [`TrafficClass::Control`] flows
//! are drained to saturation first against the full link capacities,
//! then the [`TrafficClass::Bulk`] flows fill whatever residual is
//! left. Within a class, every active flow's rate rises in lockstep
//! *per unit weight* — a weight-3 flow climbs three bps for every bps
//! a weight-1 flow gets — freezing a flow when it reaches its demand
//! or when some link it crosses saturates.
//!
//! Two deliberate engineering choices:
//!
//! * **Integer arithmetic.** Rates, demands, capacities, and weights
//!   are exact integers (u64 bps, u32 weights). The per-round fill
//!   level is `min(min_l floor(residual_l / W_l), max_f
//!   ceil(gap_f / w_f))` level units, where `W_l` sums the weights of
//!   the active flows crossing link `l` — every operation is exact,
//!   so the result cannot depend on summation order.
//! * **Batch freezing.** The fill level per round is capped by the
//!   *largest* remaining demand gap (in level units), not the
//!   smallest, and each flow's increment is clamped to its own gap.
//!   All flows whose gaps fall inside the chosen delta's tie window
//!   freeze in a single round, fixing the O(n_flows)-rounds pathology
//!   of jittered demands on unsaturated links (one freeze per round).
//!   Because a link consumes at most `W_l` bps per level unit, no
//!   link can saturate mid-window, so the batched fixpoint is
//!   byte-identical to the one-freeze-per-round filler — enforced
//!   against `tssdn_oracle::max_min::allocate` by proptest.
//!
//! Topology (which links each flow crosses, plus per-flow weight and
//! class) is set once per forwarding graph via
//! [`FairShareAllocator::set_flows`]; capacity-only changes (weather
//! fade moving the MCS operating point) reuse the cached incidence,
//! which is what makes the per-tick recompute incremental. With every
//! flow at weight 1, class Bulk, the filler is the textbook equal-share
//! one (the same proptest runs that projection).

/// A flow's rate is capped by `u64::MAX / 2` to keep `rate + inc`
/// overflow-free without checked arithmetic in the hot loop.
pub(crate) const DEMAND_CAP_BPS: u64 = u64::MAX / 2;

/// Service class of an aggregate flow. `Control` is strict-priority:
/// the allocator drains all control flows to saturation before bulk
/// flows see any capacity. Weights apply *within* a class only.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TrafficClass {
    /// Fleet control / telemetry backhaul: strict priority over bulk.
    Control,
    /// User traffic: weighted max-min over the post-control residual.
    #[default]
    Bulk,
}

/// Per-flow allocation spec: the link ids the flow crosses, its
/// max-min weight (≥ 1; 0 is treated as 1), and its service class.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowSpec {
    /// Link ids (each `< n_links`) the flow's forwarding path crosses.
    /// Empty ⇒ uncongested: the flow gets its full demand.
    pub links: Vec<u32>,
    /// Weight within the class; shares scale by weight before the
    /// integer floor.
    pub weight: u32,
    /// Strict-priority class.
    pub class: TrafficClass,
}

impl FlowSpec {
    /// A weight-1 bulk flow — the pre-tiering default.
    pub fn bulk(links: Vec<u32>) -> Self {
        FlowSpec {
            links,
            weight: 1,
            class: TrafficClass::Bulk,
        }
    }

    /// A weighted flow in the given class.
    pub fn new(links: Vec<u32>, weight: u32, class: TrafficClass) -> Self {
        FlowSpec {
            links,
            weight,
            class,
        }
    }
}

/// Weighted, classed max-min fair-share fluid allocator over a cached
/// flow→link incidence.
#[derive(Debug, Clone, Default)]
pub struct FairShareAllocator {
    flow_links: Vec<Vec<u32>>,
    weights: Vec<u64>,
    classes: Vec<TrafficClass>,
    n_links: usize,
    /// Reusable hot-loop buffers: a capacity-only tick (same topology,
    /// new capacities) performs no heap allocation beyond first use.
    scratch: Scratch,
}

/// Reusable per-call buffers for [`FairShareAllocator::allocate_into`].
/// Contents are transient scratch — they carry no state between calls
/// beyond their capacity.
#[derive(Debug, Clone, Default)]
struct Scratch {
    residual: Vec<u64>,
    weight_active: Vec<u64>,
    active: Vec<u32>,
}

impl FairShareAllocator {
    /// A fresh allocator with no topology.
    pub fn new() -> Self {
        Self::default()
    }

    /// Install the full flow-spec set (incidence + weights + classes)
    /// for the current forwarding graph. Weights of 0 are promoted to
    /// 1 so the fill level is always well defined.
    pub fn set_flows(&mut self, specs: Vec<FlowSpec>, n_links: usize) {
        let weights = specs.iter().map(|s| s.weight as u64).collect();
        let classes = specs.iter().map(|s| s.class).collect();
        let links = specs.into_iter().map(|s| s.links).collect();
        self.set_flows_raw(links, weights, classes, n_links);
    }

    /// [`Self::set_flows`] with pre-summed `u64` weights — the
    /// aggregate-tree entry point used by
    /// [`crate::aggregate::HierarchicalAllocator`], where a node's
    /// weight is the sum of its members' weights and can exceed the
    /// `u32` of a single [`FlowSpec`].
    pub(crate) fn set_flows_raw(
        &mut self,
        flow_links: Vec<Vec<u32>>,
        weights: Vec<u64>,
        classes: Vec<TrafficClass>,
        n_links: usize,
    ) {
        assert_eq!(flow_links.len(), weights.len());
        assert_eq!(flow_links.len(), classes.len());
        debug_assert!(flow_links.iter().flatten().all(|&l| (l as usize) < n_links));
        self.flow_links = flow_links;
        self.weights = weights.into_iter().map(|w| w.max(1)).collect();
        self.classes = classes;
        self.n_links = n_links;
    }

    /// Compute the tiered max-min fair allocation: `demands[f]` and
    /// `capacities[l]` in bps, returning the granted rate per flow.
    /// Control flows fill first against the full capacities; bulk
    /// flows fill the residual.
    ///
    /// Panics if `demands` / `capacities` disagree with the cached
    /// topology's dimensions.
    pub fn allocate(&mut self, demands: &[u64], capacities: &[u64]) -> Vec<u64> {
        let mut rates = Vec::new();
        self.allocate_into(demands, capacities, &mut rates);
        rates
    }

    /// [`allocate`](Self::allocate) into a caller-owned vector. After
    /// the first call, a capacity-only tick (same topology, fresh
    /// capacities, reused `rates`) performs zero heap allocation: the
    /// residual / active-set / per-link-weight buffers live on the
    /// allocator and are recycled.
    pub fn allocate_into(&mut self, demands: &[u64], capacities: &[u64], rates: &mut Vec<u64>) {
        assert_eq!(
            demands.len(),
            self.flow_links.len(),
            "demands ≠ topology flows"
        );
        assert_eq!(
            capacities.len(),
            self.n_links,
            "capacities ≠ topology links"
        );

        rates.clear();
        rates.resize(demands.len(), 0);
        let Scratch {
            residual,
            weight_active,
            active,
        } = &mut self.scratch;
        residual.clear();
        residual.extend_from_slice(capacities);
        weight_active.clear();
        weight_active.resize(self.n_links, 0);
        let pass = FillPass {
            flow_links: &self.flow_links,
            weights: &self.weights,
            classes: &self.classes,
            demands,
        };
        pass.fill_class(
            TrafficClass::Control,
            rates,
            residual,
            weight_active,
            active,
        );
        pass.fill_class(TrafficClass::Bulk, rates, residual, weight_active, active);
    }
}

/// Borrowed view of one allocation call's immutable inputs, split off
/// from the allocator so [`fill_class`](FillPass::fill_class) can run
/// against the scratch buffers without aliasing `&mut self`.
struct FillPass<'a> {
    flow_links: &'a [Vec<u32>],
    weights: &'a [u64],
    classes: &'a [TrafficClass],
    demands: &'a [u64],
}

impl FillPass<'_> {
    /// Progressive-fill one class against the current residual
    /// capacities, mutating `rates` and `residual` in place.
    /// `weight_active` must be all-zero on entry (length `n_links`)
    /// and is restored to all-zero on exit; `active` is transient.
    fn fill_class(
        &self,
        class: TrafficClass,
        rates: &mut [u64],
        residual: &mut [u64],
        weight_active: &mut [u64],
        active: &mut Vec<u32>,
    ) {
        debug_assert!(weight_active.iter().all(|&w| w == 0));
        let demands = self.demands;

        // Flows with zero demand (or no links at all) resolve
        // immediately; the rest start active. `weight_active[l]` is
        // the per-link sum of active-flow weights: the bps link `l`
        // consumes per unit of fill level.
        active.clear();
        for (f, links) in self.flow_links.iter().enumerate() {
            if self.classes[f] != class {
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
                weight_active[l as usize] += self.weights[f];
            }
        }

        while !active.is_empty() {
            // Bottleneck share in level units: the least any
            // saturating link can still grant per unit of active
            // weight.
            let link_share = residual
                .iter()
                .zip(weight_active.iter())
                .filter(|(_, &w)| w > 0)
                .map(|(&r, &w)| r / w)
                .min()
                .unwrap_or(u64::MAX);

            // Batch-freeze window: raise the level far enough to
            // cover the *largest* remaining gap the links allow, so
            // every demand-bound flow inside the window freezes this
            // round instead of one per round.
            let gap_units = active
                .iter()
                .map(|&f| {
                    let fi = f as usize;
                    (demands[fi].min(DEMAND_CAP_BPS) - rates[fi]).div_ceil(self.weights[fi])
                })
                .max()
                .unwrap_or(0);

            let delta = link_share.min(gap_units);
            if delta > 0 {
                for &f in active.iter() {
                    let fi = f as usize;
                    let gap = demands[fi].min(DEMAND_CAP_BPS) - rates[fi];
                    // Clamp each flow's rise to its own gap; a link
                    // consumes at most `delta * W_l ≤ residual_l`, so
                    // the subtraction cannot underflow.
                    let inc = delta.saturating_mul(self.weights[fi]).min(gap);
                    rates[fi] += inc;
                    for &l in &self.flow_links[fi] {
                        residual[l as usize] -= inc;
                    }
                }
            }

            // Freeze flows that hit demand or cross a saturated link
            // (a link that can no longer grant ≥1 bps per unit of
            // active weight). The flow attaining the largest gap — or
            // every flow on the minimizing link — freezes, so each
            // round makes progress.
            let flow_links = self.flow_links;
            let weights = self.weights;
            active.retain(|&f| {
                let fi = f as usize;
                let done = rates[fi] >= demands[fi].min(DEMAND_CAP_BPS)
                    || flow_links[fi].iter().any(|&l| {
                        let li = l as usize;
                        residual[li] / weight_active[li] == 0
                    });
                if done {
                    for &l in &flow_links[fi] {
                        weight_active[l as usize] -= weights[fi];
                    }
                }
                !done
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn alloc(flow_links: Vec<Vec<u32>>, n_links: usize) -> FairShareAllocator {
        let mut a = FairShareAllocator::new();
        a.set_flows(
            flow_links.into_iter().map(FlowSpec::bulk).collect(),
            n_links,
        );
        a
    }

    #[test]
    fn textbook_two_link_example() {
        // Link 0: 100 Mbps shared by flows 0,1,2; link 1: 40 Mbps
        // shared by flows 1,2. Max-min: flows 1,2 bottleneck at 20
        // each on link 1; flow 0 takes the rest of link 0 → 60.
        let mut a = alloc(vec![vec![0], vec![0, 1], vec![0, 1]], 2);
        let rates = a.allocate(&[1_000_000_000; 3], &[100_000_000, 40_000_000]);
        assert_eq!(rates, vec![60_000_000, 20_000_000, 20_000_000]);
    }

    #[test]
    fn demand_caps_bind_before_links() {
        // Flow 0 only wants 10; flows 1,2 split the rest of link 0.
        let mut a = alloc(vec![vec![0], vec![0], vec![0]], 1);
        let rates = a.allocate(&[10, 1_000, 1_000], &[100]);
        assert_eq!(rates, vec![10, 45, 45]);
    }

    #[test]
    fn linkless_and_zero_demand_flows() {
        let mut a = alloc(vec![vec![], vec![0], vec![0]], 1);
        let rates = a.allocate(&[500, 0, 80], &[100]);
        assert_eq!(rates, vec![500, 0, 80]);
    }

    #[test]
    fn zero_capacity_link_starves_its_flows() {
        let mut a = alloc(vec![vec![0], vec![1]], 2);
        let rates = a.allocate(&[100, 100], &[0, 100]);
        assert_eq!(rates, vec![0, 100]);
    }

    #[test]
    fn weights_scale_shares_within_a_class() {
        // One 90-bps link, weights 1:2 — the weight-2 flow gets twice
        // the rate, exactly.
        let mut a = FairShareAllocator::new();
        a.set_flows(
            vec![
                FlowSpec::new(vec![0], 1, TrafficClass::Bulk),
                FlowSpec::new(vec![0], 2, TrafficClass::Bulk),
            ],
            1,
        );
        let rates = a.allocate(&[1_000, 1_000], &[90]);
        assert_eq!(rates, vec![30, 60]);
    }

    #[test]
    fn weighted_demand_cap_releases_share_to_peers() {
        // The weight-3 flow only wants 10; the rest of the 100-bps
        // link splits 1:1 between the others.
        let mut a = FairShareAllocator::new();
        a.set_flows(
            vec![
                FlowSpec::new(vec![0], 3, TrafficClass::Bulk),
                FlowSpec::new(vec![0], 1, TrafficClass::Bulk),
                FlowSpec::new(vec![0], 1, TrafficClass::Bulk),
            ],
            1,
        );
        let rates = a.allocate(&[10, 1_000, 1_000], &[100]);
        assert_eq!(rates, vec![10, 45, 45]);
    }

    #[test]
    fn control_class_drains_first() {
        // Control wants 30 of the 100-bps link; bulk splits the 70
        // that's left. Under saturation by control alone, bulk gets 0.
        let mut a = FairShareAllocator::new();
        a.set_flows(
            vec![
                FlowSpec::new(vec![0], 1, TrafficClass::Control),
                FlowSpec::new(vec![0], 1, TrafficClass::Bulk),
                FlowSpec::new(vec![0], 1, TrafficClass::Bulk),
            ],
            1,
        );
        assert_eq!(a.allocate(&[30, 1_000, 1_000], &[100]), vec![30, 35, 35]);
        assert_eq!(a.allocate(&[500, 1_000, 1_000], &[100]), vec![100, 0, 0]);
    }

    #[test]
    fn batch_freeze_handles_jittered_demands_in_one_pass() {
        // 100 flows with distinct demands on an unsaturated link: the
        // pre-batching filler needed ~100 rounds (one freeze each);
        // the result must still be every flow at its full demand.
        let n = 100u64;
        let fl: Vec<Vec<u32>> = (0..n).map(|_| vec![0]).collect();
        let demands: Vec<u64> = (0..n).map(|f| 1_000 + f * 7).collect();
        let total: u64 = demands.iter().sum();
        let mut a = alloc(fl, 1);
        let rates = a.allocate(&demands, &[total + 1]);
        assert_eq!(rates, demands);
    }

    #[test]
    fn allocation_never_exceeds_capacity_or_demand() {
        // Random-ish but fixed: 6 flows over 3 links.
        let fl = vec![
            vec![0],
            vec![0, 1],
            vec![1, 2],
            vec![2],
            vec![0, 2],
            vec![1],
        ];
        let demands = [37, 91, 13, 70, 55, 28];
        let caps = [90u64, 60, 50];
        let mut a = alloc(fl.clone(), 3);
        let rates = a.allocate(&demands, &caps);
        for (f, &r) in rates.iter().enumerate() {
            assert!(r <= demands[f], "flow {f} over demand");
        }
        for (l, &cap) in caps.iter().enumerate() {
            let used: u64 = fl
                .iter()
                .enumerate()
                .filter(|(_, links)| links.contains(&(l as u32)))
                .map(|(f, _)| rates[f])
                .sum();
            assert!(used <= cap, "link {l} over capacity: {used} > {cap}");
        }
    }

    #[test]
    fn max_min_property_no_starved_flow_can_be_raised() {
        // For every flow below its demand, some crossed link must be
        // unable to grant one more bps to every flow at-or-above this
        // flow's rate — the defining property of max-min fairness.
        let fl = vec![vec![0, 1], vec![1], vec![0], vec![0, 1], vec![1]];
        let demands = [200u64, 35, 90, 10, 500];
        let caps = [120u64, 100];
        let mut a = alloc(fl.clone(), 2);
        let rates = a.allocate(&demands, &caps);
        for f in 0..fl.len() {
            if rates[f] >= demands[f] {
                continue;
            }
            let blocked = fl[f].iter().any(|&l| {
                let used: u64 = fl
                    .iter()
                    .enumerate()
                    .filter(|(_, links)| links.contains(&l))
                    .map(|(g, _)| rates[g])
                    .sum();
                let peers_at_or_above = fl
                    .iter()
                    .enumerate()
                    .filter(|(g, links)| links.contains(&l) && rates[*g] >= rates[f])
                    .count() as u64;
                caps[l as usize] - used < peers_at_or_above.max(1)
            });
            assert!(blocked, "flow {f} at {} could still be raised", rates[f]);
        }
    }

    #[test]
    fn scratch_reuse_is_byte_identical_to_fresh() {
        // Repeated capacity-only calls on one allocator (recycled
        // scratch + rates buffers) must match a fresh allocator per
        // call, and the reused rates vector must be fully overwritten.
        let specs: Vec<FlowSpec> = (0..200u32)
            .map(|f| {
                FlowSpec::new(
                    vec![f % 7, (f + 3) % 7],
                    1 + f % 3,
                    if f % 11 == 0 {
                        TrafficClass::Control
                    } else {
                        TrafficClass::Bulk
                    },
                )
            })
            .collect();
        let demands: Vec<u64> = (0..200u64).map(|f| 1_000 + f * 37).collect();
        let mut reused = FairShareAllocator::new();
        reused.set_flows(specs.clone(), 7);
        let mut rates = Vec::new();
        for step in 0..4u64 {
            let caps: Vec<u64> = (0..7u64)
                .map(|l| 40_000 + l * 1_000 + step * 13_000)
                .collect();
            reused.allocate_into(&demands, &caps, &mut rates);
            let mut fresh = FairShareAllocator::new();
            fresh.set_flows(specs.clone(), 7);
            assert_eq!(
                rates,
                fresh.allocate(&demands, &caps),
                "step {step} diverged"
            );
        }
    }

    #[test]
    fn capacity_only_change_reuses_topology() {
        let mut a = alloc(vec![vec![0], vec![0]], 1);
        let r1 = a.allocate(&[100, 100], &[100]);
        let r2 = a.allocate(&[100, 100], &[60]);
        assert_eq!(r1, vec![50, 50]);
        assert_eq!(r2, vec![30, 30]);
        a.set_flows(vec![FlowSpec::bulk(vec![0]), FlowSpec::bulk(vec![])], 1);
        assert_eq!(a.allocate(&[100, 100], &[60]), vec![60, 100]);
    }
}
