//! The routing view: the links each path crosses, the allocator over
//! them, and what each link can still carry this tick.

use std::collections::BTreeMap;

use tssdn_sim::PlatformId;

use super::{edge_key, RunTick, SiteSlot, TopologyView};
use crate::aggregate::{AggregateMember, AggregateSpec, HierarchicalAllocator};
use crate::allocator::TrafficClass;
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
    /// Demand per allocator flow, bps; all zero outside a tick.
    demands: Vec<u64>,
    /// Some run wrote `demands` since they were last zeroed.
    demanded: bool,
    /// Rate per allocator flow; read only for runs that demanded.
    rates: Vec<u64>,
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

    pub(super) fn rates(&self) -> &[u64] {
        &self.rates
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
            let n_bulk = slot.run.bulk_end - slot.run.first;
            let dual =
                matches!(self.path_ids.get(&slot.run.site), Some((_, alt)) if !alt.is_empty());
            slot.alt_first = (dual && n_bulk > 0).then_some(next_alt);
            if dual {
                next_alt += n_bulk;
            }
        }
        let n_alloc = next_alt as usize;
        self.demands.clear();
        self.demands.resize(n_alloc, 0);
        self.demanded = false;

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
        for slot in &self.slots {
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
                let group = groups.last_mut().expect("group pushed");
                group.members.extend(range.map(|f| member(f, f)));
            }
        }
        let mut last_site: Option<PlatformId> = None;
        for slot in &self.slots {
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
            let group = groups.last_mut().expect("group pushed");
            group
                .members
                .extend((r.first..r.bulk_end).map(|f| member(alt_first + f - r.first, f)));
        }
        self.hier.set_aggregates(groups, n_links, n_alloc);
    }

    /// Demand what run `k` offered (`offered` is indexed by flow),
    /// split over two paths when its site has two. Returns whether
    /// some dual-path bulk flow offered load.
    pub(super) fn demand_run(&mut self, k: usize, offered: &[u64]) -> bool {
        let run = self.slots[k].run;
        let all = run.first as usize..run.end as usize;
        self.demanded = true;
        self.demands[all.clone()].copy_from_slice(&offered[all]);
        self.slots[k].alt_first.is_some() && self.split_dual_path(k, offered)
    }

    /// Split a dual-path run's bulk demand across its primary and
    /// alternate paths, weighted by their instantaneous bottleneck
    /// capacities. The quotient is exact either way: `u64` when the
    /// product and the sum fit, `u128` otherwise.
    fn split_dual_path(&mut self, k: usize, offered: &[u64]) -> bool {
        let SiteSlot { run, alt_first, .. } = self.slots[k];
        let alt_first = alt_first.expect("dual-path run") as usize;
        let bulk = run.first as usize..run.bulk_end as usize;
        let (p_ids, a_ids) = &self.path_ids[&run.site];
        let tunnel = self.tunnel_bps;
        let bp = bottleneck_bps(p_ids, &self.capacities, tunnel);
        let ba = bottleneck_bps(a_ids, &self.capacities, tunnel);
        let narrow_sum = bp.checked_add(ba);
        let (primary, alts) = self.demands.split_at_mut(alt_first);
        let alts = &mut alts[..bulk.len()];
        let mut any = false;
        for ((d_p, d_a), &o) in primary[bulk.clone()]
            .iter_mut()
            .zip(alts)
            .zip(&offered[bulk])
        {
            *d_p = match (narrow_sum, o.checked_mul(bp)) {
                (Some(0), _) => o,
                (Some(sum), Some(product)) => product / sum,
                _ => ((o as u128 * bp as u128) / (bp as u128 + ba as u128)) as u64,
            };
            *d_a = o - *d_p;
            any |= o > 0;
        }
        any
    }

    /// Max-min allocation of this tick's demands, which it then zeroes.
    /// When no run demanded, every rate is zero and nothing reads one,
    /// so the allocator is not called.
    pub(super) fn allocate(&mut self) {
        if !self.demanded {
            return;
        }
        self.hier
            .allocate_into(&self.demands, &self.capacities, &mut self.rates);
        // What skipping a non-offering run rests on: zero demand,
        // zero rate.
        debug_assert!(self.rates.iter().zip(&self.demands).all(|(r, d)| r <= d));
        self.demands.fill(0);
        self.demanded = false;
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
        let (acc, alt_first) = (0, None);
        SiteSlot {
            run,
            acc,
            alt_first,
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
        assert!(!inc.demand_run(0, &[10, 20, 5]), "one path, no split");
        // A distinct alternate gives each bulk flow a subflow, numbered
        // after the demand flows.
        v.alt_paths.insert(S, vec![S, PlatformId(102), EC]);
        assert!(inc.refresh(&v, &flows));
        assert_eq!(inc.slots()[0].alt_first, Some(3));
        assert!(inc.demand_run(0, &[10, 20, 5]));
    }

    #[test]
    fn a_missing_capacity_falls_back_to_the_tunnel_capacity() {
        let (mut inc, flows) = incidence();
        // Neither edge is rated: both carry the tunnel's 1 kbps.
        assert!(inc.refresh(&view(None), &flows));
        inc.demand_run(0, &[3_000, 0, 0]);
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
