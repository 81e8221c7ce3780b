//! The routing view: the links each path crosses, the allocator over
//! them, and what each link can still carry this tick.

use std::collections::BTreeMap;

use tssdn_sim::PlatformId;

use super::{edge_key, RunTick, SiteSlot, TopologyView, ALT};
use crate::aggregate::{AggregateMember, AggregateSpec, HierarchicalAllocator};
use crate::allocator::{TrafficClass, DEMAND_CAP_BPS};
use crate::demand::AggregateFlow;

/// Signature of the programmed primary and alternate paths: equal
/// signatures reuse the cached incidence.
fn paths_signature(view: &TopologyView) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |v: u64| {
        h ^= v;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for (paths, tag) in [(&view.paths, 1 << 40), (&view.alt_paths, 1 << 41)] {
        for (site, path) in paths {
            mix(site.0 as u64 | tag);
            for n in path {
                mix(n.0 as u64);
            }
            mix(u64::MAX);
        }
    }
    h
}

/// Bottleneck capacity of a cached path (min over its link ids).
fn bottleneck_bps(ids: &[u32], capacities: &[u64], tunnel_bps: u64) -> u64 {
    ids.iter()
        .map(|&l| capacities[l as usize])
        .min()
        .unwrap_or(tunnel_bps)
}

#[derive(Debug, Default)]
pub(super) struct Incidence {
    /// Capacity of a path edge absent from the view's capacity map.
    tunnel_bps: u64,
    /// The demand runs, in flow order.
    slots: Vec<SiteSlot>,
    /// Signature of the paths the cached incidence was built from.
    paths_sig: Option<u64>,
    /// Link-id order of the cached incidence.
    links: Vec<(PlatformId, PlatformId)>,
    /// Link ids of each programmed platform's primary and alternate
    /// path (alt empty when single-path); custodians drain over theirs.
    path_ids: BTreeMap<PlatformId, (Vec<u32>, Vec<u32>)>,
    /// The site×class aggregate-tree allocator.
    hier: HierarchicalAllocator,
    /// Load per allocator flow, bps: what a flow puts on its primary
    /// path (all it offers unless dual-path), or an alt subflow on the
    /// alternate. Only eligible, live sites' runs hold this tick's.
    demands: Vec<u64>,
    /// Per aggregate, this tick's saturating sum of capped member
    /// demands, and what the allocation granted it.
    sums: Vec<u64>,
    grants: Vec<u64>,
    /// Rate per allocator flow of a strictly partial grant's members.
    rates: Vec<u64>,
    /// Aggregate-ticks granted strictly between 0 and their sum.
    partial_grants: u64,
    /// Capacity per cached link id, bps.
    capacities: Vec<u64>,
    /// Bits each link can still carry in this tick's `window_ms`.
    residual_bits: Vec<u128>,
    window_ms: u64,
}

impl Incidence {
    pub(super) fn new(slots: Vec<SiteSlot>, tunnel_bps: u64) -> Self {
        Incidence {
            tunnel_bps,
            slots,
            ..Incidence::default()
        }
    }

    pub(super) fn slots(&self) -> &[SiteSlot] {
        &self.slots
    }

    pub(super) fn demands(&self) -> &[u64] {
        &self.demands
    }

    pub(super) fn rates(&self) -> &[u64] {
        &self.rates
    }

    pub(super) fn partial_grants(&self) -> u64 {
        self.partial_grants
    }

    /// After `allocate`, the cap on aggregate `g`'s members' demands
    /// that is their rate: 0 if it was granted nothing, the allocator's
    /// cap if granted its whole sum; `None` if `rates` holds them.
    pub(super) fn share(&self, g: u32) -> Option<u64> {
        match self.grants[g as usize] {
            0 => Some(0),
            grant if grant == self.sums[g as usize] => Some(DEMAND_CAP_BPS),
            _ => None,
        }
    }

    /// Rebuild only when the programmed paths changed, then read this
    /// tick's capacity of every cached link. Returns whether it rebuilt.
    pub(super) fn refresh(&mut self, view: &TopologyView, flows: &[AggregateFlow]) -> bool {
        let sig = paths_signature(view);
        let rebuilt = self.paths_sig != Some(sig);
        if rebuilt {
            self.rebuild(view, flows);
            self.paths_sig = Some(sig);
        }
        self.sums.fill(0);
        let tunnel = self.tunnel_bps;
        self.capacities.clear();
        self.capacities.extend(
            self.links
                .iter()
                .map(|edge| view.link_capacity_bps.get(edge).copied().unwrap_or(tunnel)),
        );
        rebuilt
    }

    fn rebuild(&mut self, view: &TopologyView, flows: &[AggregateFlow]) {
        let mut link_ids: BTreeMap<(PlatformId, PlatformId), u32> = BTreeMap::new();
        self.links.clear();
        self.path_ids.clear();
        // Deterministic link-id assignment: first-seen order over the
        // BTreeMap-ordered site paths (primary paths first, then the
        // alternate paths, so single-path runs keep the pre-multipath
        // id order).
        let mut path_ids = |links: &mut Vec<(PlatformId, PlatformId)>, path: &[PlatformId]| {
            let mut ids = Vec::with_capacity(path.len().saturating_sub(1));
            for hop in path.windows(2) {
                let key = edge_key(hop[0], hop[1]);
                let next = link_ids.len() as u32;
                let id = *link_ids.entry(key).or_insert_with(|| {
                    links.push(key);
                    next
                });
                ids.push(id);
            }
            ids
        };
        for (site, path) in &view.paths {
            let ids = path_ids(&mut self.links, path);
            self.path_ids.insert(*site, (ids, Vec::new()));
        }
        for (site, path) in &view.alt_paths {
            // Alt paths only count for sites that also have a primary,
            // and only when genuinely distinct.
            let Some(entry) = self.path_ids.get_mut(site) else {
                continue;
            };
            if view.paths.get(site) == Some(path) {
                continue;
            }
            entry.1 = path_ids(&mut self.links, path);
        }
        let n_links = self.links.len();

        // Allocator index space: one flow per demand flow on its
        // primary path (indices align with FlowId), plus an appended
        // alt subflow for each bulk flow whose site is dual-path — in
        // flow order, so one run's subflows are contiguous.
        let mut next_alt = flows.len() as u32;
        for slot in &mut self.slots {
            slot.agg = [0; 3];
            let n_bulk = slot.run.bulk_end - slot.run.first;
            let dual =
                matches!(self.path_ids.get(&slot.run.site), Some((_, alt)) if !alt.is_empty());
            slot.alt_first = (dual && n_bulk > 0).then_some(next_alt);
            if dual {
                next_alt += n_bulk;
            }
        }
        let n_alloc = next_alt as usize;
        self.demands.resize(n_alloc, 0);

        // Site×class aggregate tree: the flows of one (site, class,
        // path) triple cross identical links, so each becomes one
        // aggregate node. A run is bulk flows then control, so a
        // key-change walk over the runs' class ranges yields the groups
        // deterministically (and merges neighbouring runs of one site
        // exactly as a walk over the flows would); alt subflows form
        // their own per-site Bulk aggregates over the alternate path.
        let member = |flow: u32, of: u32| AggregateMember {
            flow,
            weight: flows[of as usize].tier_weight,
        };
        let mut groups: Vec<AggregateSpec> = Vec::new();
        let mut last: Option<(PlatformId, TrafficClass)> = None;
        for slot in &mut self.slots {
            let r = slot.run;
            for (class, range) in [
                (TrafficClass::Bulk, r.first..r.bulk_end),
                (TrafficClass::Control, r.bulk_end..r.end),
            ] {
                if range.is_empty() {
                    continue;
                }
                if last != Some((r.site, class)) {
                    let links = self.path_ids.get(&r.site).map(|(p, _)| p.clone());
                    groups.push(AggregateSpec {
                        links: links.unwrap_or_default(),
                        class,
                        members: Vec::new(),
                    });
                    last = Some((r.site, class));
                }
                slot.agg[class as usize] = groups.len() as u32 - 1;
                let group = groups.last_mut().expect("group pushed");
                group.members.extend(range.map(|f| member(f, f)));
            }
        }
        let mut last_site: Option<PlatformId> = None;
        for slot in &mut self.slots {
            let (Some(alt_first), r) = (slot.alt_first, slot.run) else {
                continue;
            };
            if last_site != Some(r.site) {
                groups.push(AggregateSpec {
                    links: self.path_ids[&r.site].1.clone(),
                    class: TrafficClass::Bulk,
                    members: Vec::new(),
                });
                last_site = Some(r.site);
            }
            slot.agg[ALT] = groups.len() as u32 - 1;
            let group = groups.last_mut().expect("group pushed");
            group
                .members
                .extend((r.first..r.bulk_end).map(|f| member(alt_first + f - r.first, f)));
        }
        self.sums.resize(groups.len(), 0);
        self.hier.set_aggregates(groups, n_links, n_alloc);
    }

    /// Pass 1 for run `k` of an eligible, live site: its bulk flows
    /// offer what `bulk` yields, its control flows `control`. Writes the
    /// loads into `demands`, split over a dual-path site's two paths,
    /// and adds a `routed` run's to its aggregates' sums. Returns
    /// whether some flow, and some dual-path bulk flow, offered load.
    pub(super) fn demand_run(
        &mut self,
        k: usize,
        routed: bool,
        bulk: impl Iterator<Item = u64>,
        control: u64,
    ) -> (bool, bool) {
        let slot = self.slots[k];
        let (run, agg, alt_first) = (slot.run, slot.agg, slot.alt_first);
        let bulk_flows = run.first as usize..run.bulk_end as usize;
        // Exact sums of capped loads, saturated when added to `sums`.
        let capped = |d: u64| d.min(DEMAND_CAP_BPS) as u128;
        let (mut any, mut sum, mut alt_sum) = (0u64, 0u128, 0u128);
        if let Some(alt_first) = alt_first {
            // The quotient is exact either way: `u64` when the product
            // and the sum fit, `u128` otherwise.
            let (p_ids, a_ids) = &self.path_ids[&run.site];
            let bp = bottleneck_bps(p_ids, &self.capacities, self.tunnel_bps);
            let ba = bottleneck_bps(a_ids, &self.capacities, self.tunnel_bps);
            let narrow_sum = bp.checked_add(ba);
            let (primary, alts) = self.demands.split_at_mut(alt_first as usize);
            let alts = &mut alts[..bulk_flows.len()];
            for ((d_p, d_a), o) in primary[bulk_flows].iter_mut().zip(alts).zip(bulk) {
                *d_p = match (narrow_sum, o.checked_mul(bp)) {
                    (Some(0), _) => o,
                    (Some(sum), Some(product)) => product / sum,
                    _ => ((o as u128 * bp as u128) / (bp as u128 + ba as u128)) as u64,
                };
                *d_a = o - *d_p;
                any |= o;
                (sum, alt_sum) = (sum + capped(*d_p), alt_sum + capped(*d_a));
            }
        } else {
            for (d, o) in self.demands[bulk_flows].iter_mut().zip(bulk) {
                *d = o;
                any |= o;
                sum += capped(o);
            }
        }
        let control_flows = &mut self.demands[run.bulk_end as usize..run.end as usize];
        control_flows.fill(control);
        let control_sum = capped(control) * control_flows.len() as u128;
        // In `agg` order; an empty range adds 0 and may name no aggregate.
        for (&g, sum) in agg.iter().zip([control_sum, sum, alt_sum]) {
            if routed && sum != 0 {
                let sum = sum.min(u64::MAX as u128) as u64;
                self.sums[g as usize] = self.sums[g as usize].saturating_add(sum);
            }
        }
        let offering = any != 0 || control_sum != 0;
        (offering, alt_first.is_some() && any != 0)
    }

    /// Grant this tick's aggregate sums and distribute each strictly
    /// partial grant to its members' `rates`. When every sum is 0, no
    /// routed run offers, so no grant is read: the allocator is skipped.
    pub(super) fn allocate(&mut self) {
        if self.sums.iter().all(|&sum| sum == 0) {
            return;
        }
        self.hier
            .grant(&self.sums, &self.capacities, &mut self.grants);
        for (g, (&grant, &sum)) in self.grants.iter().zip(&self.sums).enumerate() {
            if grant != 0 && grant != sum {
                self.rates.resize(self.demands.len(), 0);
                self.hier
                    .distribute(g, grant, &self.demands, &mut self.rates);
                self.partial_grants += 1;
            }
        }
    }

    /// What each cached link can still carry in a window of `dt_ms`
    /// once the live allocation is on it: one per-run rate sum per
    /// link of the run's paths.
    pub(super) fn residuals_after_live(&mut self, runs: &[RunTick], dt_ms: u64) {
        let link_bits = |bps: u128| bps * dt_ms as u128 / 1000;
        let live = &mut self.residual_bits;
        live.clear();
        live.resize(self.capacities.len(), 0);
        for (slot, rt) in self.slots.iter().zip(runs) {
            if !(rt.offering && rt.routed) {
                continue;
            }
            let Some((p_ids, a_ids)) = self.path_ids.get(&slot.run.site) else {
                continue;
            };
            for &l in p_ids {
                live[l as usize] += rt.rate_primary as u128;
            }
            for &l in a_ids {
                live[l as usize] += rt.rate_alt as u128;
            }
        }
        for (r, &cap) in live.iter_mut().zip(&self.capacities) {
            *r = link_bits(cap as u128).saturating_sub(link_bits(*r));
        }
        self.window_ms = dt_ms;
    }

    /// Bits `holder`'s primary path can still carry: its least
    /// residual, the tunnel's bits on a path with no link, 0 without a
    /// programmed path.
    pub(super) fn path_headroom(&self, holder: &PlatformId) -> u64 {
        let Some((p_ids, _)) = self.path_ids.get(holder) else {
            return 0;
        };
        let tunnel_bits = self.tunnel_bps as u128 * self.window_ms as u128 / 1000;
        let least = p_ids.iter().map(|&l| self.residual_bits[l as usize]).min();
        least.unwrap_or(tunnel_bits).min(u64::MAX as u128) as u64
    }

    pub(super) fn debit_path(&mut self, holder: &PlatformId, bits: u64) {
        for &l in &self.path_ids[holder].0 {
            let r = &mut self.residual_bits[l as usize];
            *r = r.saturating_sub(bits as u128);
        }
    }

    /// Bits `edge` can still carry, and its link id when a programmed
    /// path crosses it: such an edge shares that path's residual, any
    /// other offers its full idle capacity (none without an entry).
    pub(super) fn edge_headroom(
        &self,
        edge: (PlatformId, PlatformId),
        view: &TopologyView,
    ) -> (Option<usize>, u64) {
        let on_path = self.links.iter().position(|e| *e == edge);
        let idle_bits = match on_path {
            Some(l) => self.residual_bits[l],
            None => {
                let bps = view.link_capacity_bps.get(&edge).copied().unwrap_or(0);
                bps as u128 * self.window_ms as u128 / 1000
            }
        };
        (on_path, idle_bits.min(u64::MAX as u128) as u64)
    }

    pub(super) fn debit_link(&mut self, l: usize, bits: u64) {
        self.residual_bits[l] = self.residual_bits[l].saturating_sub(bits as u128);
    }
}

#[cfg(test)]
pub(super) mod tests {
    use super::*;
    use crate::demand::{FlowId, SiteRun};

    /// The run of `site`'s flows `first..end`, bulk below `bulk_end`.
    pub(in crate::engine) fn slot(
        site: PlatformId,
        first: u32,
        bulk_end: u32,
        end: u32,
    ) -> SiteSlot {
        let run = SiteRun {
            site,
            first,
            bulk_end,
            end,
        };
        let (acc, alt_first, agg) = (0, None, [0; 3]);
        SiteSlot {
            run,
            acc,
            alt_first,
            agg,
        }
    }

    /// Weight-1 flows tiling `slots`' runs.
    pub(in crate::engine) fn flows_of(slots: &[SiteSlot]) -> Vec<AggregateFlow> {
        let mut flows = Vec::new();
        for r in slots.iter().map(|s| s.run) {
            flows.extend((r.first..r.end).map(|i| AggregateFlow {
                id: FlowId(i),
                site: r.site,
                users: 1,
                weight: 1.0,
                tier_weight: 1,
                class: if i < r.bulk_end {
                    TrafficClass::Bulk
                } else {
                    TrafficClass::Control
                },
            }));
        }
        flows
    }

    const S: PlatformId = PlatformId(0);
    const GS: PlatformId = PlatformId(100);
    const EC: PlatformId = PlatformId(101);

    /// Site `S`'s two bulk flows and its control flow, over a 1 kbps
    /// tunnel.
    fn incidence() -> (Incidence, Vec<AggregateFlow>) {
        let slots = [slot(S, 0, 2, 3)];
        (Incidence::new(slots.to_vec(), 1_000), flows_of(&slots))
    }

    /// `S` routed over `S → GS → EC`, the access edge rated `access`.
    fn view(access: Option<u64>) -> TopologyView {
        let mut v = TopologyView::default();
        v.paths.insert(S, vec![S, GS, EC]);
        if let Some(bps) = access {
            v.link_capacity_bps.insert(edge_key(S, GS), bps);
        }
        v
    }

    #[test]
    fn an_alternate_equal_to_the_primary_is_not_dual() {
        let (mut inc, flows) = incidence();
        let mut v = view(Some(500));
        v.alt_paths.insert(S, v.paths[&S].clone());
        assert!(inc.refresh(&v, &flows));
        assert_eq!(inc.slots()[0].alt_first, None);
        let offers = || [10, 20].into_iter();
        assert!(
            !inc.demand_run(0, true, offers(), 5).1,
            "one path, no split"
        );
        // A distinct alternate gives each bulk flow a subflow, numbered
        // after the demand flows.
        v.alt_paths.insert(S, vec![S, PlatformId(102), EC]);
        assert!(inc.refresh(&v, &flows));
        assert_eq!(inc.slots()[0].alt_first, Some(3));
        assert!(inc.demand_run(0, true, offers(), 5).1);
    }

    #[test]
    fn a_missing_capacity_falls_back_to_the_tunnel_capacity() {
        let (mut inc, flows) = incidence();
        // Neither edge is rated: both carry the tunnel's 1 kbps.
        assert!(inc.refresh(&view(None), &flows));
        inc.demand_run(0, true, [3_000, 0].into_iter(), 0);
        inc.allocate();
        assert_eq!(inc.rates()[0], 1_000);
        inc.residuals_after_live(&[RunTick::default()], 1_000);
        assert_eq!(inc.path_headroom(&S), 1_000);
        // Rating the access edge below the tunnel makes it the
        // bottleneck without a rebuild; the GS → EC edge stays wired.
        assert!(!inc.refresh(&view(Some(400)), &flows));
        inc.residuals_after_live(&[RunTick::default()], 1_000);
        assert_eq!(inc.path_headroom(&S), 400);
        assert_eq!(inc.path_headroom(&GS), 0, "no path of its own");
    }
}
