//! The per-flow traffic tick as a specification: every tick walks
//! every flow, looks its site up in the view's maps, rebuilds the
//! site×class aggregates from the paths and allocates through
//! [`crate::max_min::allocate_tree`]. `TrafficEngine::tick` (DESIGN.md
//! §8) must give the same summary, flow stats, store-and-forward
//! totals, demand digest and series after every tick.
//!
//! The data types (`TrafficConfig`, `TopologyView`, `FlowStats`,
//! `SnfTotals`, `TickSummary`) are the production ones so results
//! compare with `==`; the offered-load formula is spelled out here from
//! `DemandGenerator`'s public fields.

use crate::max_min::allocate_tree;
use std::collections::{BTreeMap, BTreeSet};
use tssdn_dataplane::{BufferedSegment, StoreForwardBuffer};
use tssdn_sim::{PlatformId, RngStreams, SimDuration, SimTime};
use tssdn_telemetry::GoodputSeries;
use tssdn_traffic::engine::{FEEDBACK_ALPHA, GOODPUT_WINDOW_MS};
use tssdn_traffic::{
    AggregateMember, AggregateSpec, DemandGenerator, FlowStats, SnfTotals, TickSummary,
    TopologyView, TrafficClass, TrafficConfig,
};

/// `DemandGenerator::offered_bps` spelled out: the diurnal cosine and
/// the surge test recomputed per flow.
fn offered_bps(demand: &DemandGenerator, idx: usize, now: SimTime) -> u64 {
    let f = &demand.flows()[idx];
    let config = demand.config();
    if f.class == TrafficClass::Control {
        return config.control_bps_per_site;
    }
    let d = config.diurnal(now.hour_of_day());
    let surge = match config.surge {
        Some(s) if s.active_at(now) => s.multiplier,
        _ => 1.0,
    };
    (f.users as f64 * config.busy_hour_bps_per_user * f.weight * d * surge).round() as u64
}

fn edge_key(a: PlatformId, b: PlatformId) -> (PlatformId, PlatformId) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

/// The flow-level traffic engine.
#[derive(Debug)]
pub struct ReferenceEngine {
    config: TrafficConfig,
    demand: DemandGenerator,
    series: GoodputSeries,
    flow_stats: Vec<FlowStats>,
    /// This tick's link ids, in first-seen order over the paths.
    links: Vec<(PlatformId, PlatformId)>,
    /// Per-site link ids of the primary and alternate paths (alt empty
    /// when the site is single-path).
    site_path_ids: BTreeMap<PlatformId, (Vec<u32>, Vec<u32>)>,
    /// Demand-flow index → allocator index of its alternate-path
    /// subflow, when the flow is split this tick.
    alt_subflow: Vec<Option<u32>>,
    /// Last tick's path per site, for reroute/disruption detection.
    last_paths: BTreeMap<PlatformId, Vec<PlatformId>>,
    /// Last tick's alternate paths; `None` before the first tick.
    last_alt_paths: Option<BTreeMap<PlatformId, Vec<PlatformId>>>,
    /// Last tick's offered load per site (disruptions only count when
    /// traffic was actually assigned to the withdrawn path).
    last_offered: BTreeMap<PlatformId, u64>,
    /// EWMA of measured offered load per site — the demand digest.
    digest_bps: BTreeMap<PlatformId, f64>,
    /// Per-holder store-and-forward buffers (a custodian holds chunks
    /// of other sites; drains credit the chunk's origin).
    snf: BTreeMap<PlatformId, StoreForwardBuffer<u32>>,
    /// Segments extracted for custody last tick, arriving at their
    /// custodian this tick: `(destination holder, segment)`.
    custody_transit: Vec<(PlatformId, BufferedSegment<u32>)>,
    /// Lifetime custody ledger (fleet-wide).
    custody_initiated_total: u64,
    custody_accepted_total: u64,
    custody_refused_total: u64,
    custody_lost_total: u64,
    backlog_lost_total: u64,
}

impl ReferenceEngine {
    /// Build an engine for the given served sites; per-flow weights
    /// draw from the dedicated `"traffic-demand"` RNG stream, and no
    /// RNG is consumed after construction.
    pub fn new(config: TrafficConfig, sites: &[PlatformId], streams: &RngStreams) -> Self {
        let demand = DemandGenerator::new(config.demand, sites, streams);
        let n_flows = demand.flows().len();
        ReferenceEngine {
            config,
            demand,
            series: GoodputSeries::new(GOODPUT_WINDOW_MS),
            flow_stats: vec![FlowStats::default(); n_flows],
            links: Vec::new(),
            site_path_ids: BTreeMap::new(),
            alt_subflow: Vec::new(),
            last_paths: BTreeMap::new(),
            last_alt_paths: None,
            last_offered: BTreeMap::new(),
            digest_bps: BTreeMap::new(),
            snf: BTreeMap::new(),
            custody_transit: Vec::new(),
            custody_initiated_total: 0,
            custody_accepted_total: 0,
            custody_refused_total: 0,
            custody_lost_total: 0,
            backlog_lost_total: 0,
        }
    }

    /// Accumulated goodput series.
    pub fn series(&self) -> &GoodputSeries {
        &self.series
    }

    /// Lifetime per-flow totals, in `FlowId` order.
    pub fn flow_stats(&self) -> &[FlowStats] {
        &self.flow_stats
    }

    /// The demand digest for a site: EWMA of its measured offered
    /// load, bps. `None` until the site has offered traffic.
    pub fn demand_weight_bps(&self, site: PlatformId) -> Option<u64> {
        self.digest_bps.get(&site).map(|w| w.round() as u64)
    }

    /// Lifetime store-and-forward totals over all holder buffers
    /// (refused and lost-in-transit bits fold into `evicted_bits`).
    pub fn snf_totals(&self) -> SnfTotals {
        let mut t = self
            .snf
            .values()
            .fold(SnfTotals::default(), |acc, b| SnfTotals {
                queued_bits: acc.queued_bits + b.queued_bits(),
                drained_bits: acc.drained_bits + b.drained_bits(),
                evicted_bits: acc.evicted_bits + b.evicted_bits(),
                buffered_bits: acc.buffered_bits + b.total_bits(),
                ..acc
            });
        t.evicted_bits += self.custody_refused_total + self.custody_lost_total;
        t.in_transit_bits = self.custody_transit.iter().map(|(_, s)| s.bits()).sum();
        t.custody_initiated_bits = self.custody_initiated_total;
        t.custody_accepted_bits = self.custody_accepted_total;
        t.custody_refused_bits = self.custody_refused_total;
        t.custody_lost_bits = self.custody_lost_total;
        t.backlog_lost_bits = self.backlog_lost_total;
        t
    }

    /// Number the links of `view`'s paths and build the site×class
    /// aggregates over them: the groups and the allocator flow count.
    fn rebuild_topology(&mut self, view: &TopologyView) -> (Vec<AggregateSpec>, usize) {
        let mut link_ids: BTreeMap<(PlatformId, PlatformId), u32> = BTreeMap::new();
        self.links.clear();
        self.site_path_ids.clear();
        // Link ids in first-seen order: primary paths, then alternates.
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
            self.site_path_ids.insert(*site, (ids, Vec::new()));
        }
        for (site, path) in &view.alt_paths {
            // An alternate counts only beside a distinct primary.
            let Some(entry) = self.site_path_ids.get_mut(site) else {
                continue;
            };
            if view.paths.get(site) == Some(path) {
                continue;
            }
            entry.1 = path_ids(&mut self.links, path);
        }

        // Allocator flows: each demand flow on its primary path, then a
        // subflow per bulk flow of a dual-path site.
        let n_flows = self.demand.flows().len();
        self.alt_subflow = vec![None; n_flows];
        let mut next_alt = n_flows as u32;
        for (fi, f) in self.demand.flows().iter().enumerate() {
            if f.class != TrafficClass::Bulk {
                continue;
            }
            let Some((_, alt)) = self.site_path_ids.get(&f.site) else {
                continue;
            };
            if alt.is_empty() {
                continue;
            }
            self.alt_subflow[fi] = Some(next_alt);
            next_alt += 1;
        }
        let n_alloc = next_alt as usize;

        // One aggregate per (site, class) run of the site-major flows,
        // then one Bulk aggregate per dual-path site's subflows.
        let mut groups: Vec<AggregateSpec> = Vec::new();
        let mut last: Option<(PlatformId, TrafficClass)> = None;
        for (fi, f) in self.demand.flows().iter().enumerate() {
            if last != Some((f.site, f.class)) {
                let links = self
                    .site_path_ids
                    .get(&f.site)
                    .map(|(p, _)| p.clone())
                    .unwrap_or_default();
                groups.push(AggregateSpec {
                    links,
                    class: f.class,
                    members: Vec::new(),
                });
                last = Some((f.site, f.class));
            }
            groups
                .last_mut()
                .expect("group pushed")
                .members
                .push(AggregateMember {
                    flow: fi as u32,
                    weight: f.tier_weight,
                });
        }
        let mut last_site: Option<PlatformId> = None;
        for (fi, f) in self.demand.flows().iter().enumerate() {
            let Some(ai) = self.alt_subflow[fi] else {
                continue;
            };
            if last_site != Some(f.site) {
                let (_, alt) = &self.site_path_ids[&f.site];
                groups.push(AggregateSpec {
                    links: alt.clone(),
                    class: TrafficClass::Bulk,
                    members: Vec::new(),
                });
                last_site = Some(f.site);
            }
            groups
                .last_mut()
                .expect("group pushed")
                .members
                .push(AggregateMember {
                    flow: ai,
                    weight: f.tier_weight,
                });
        }
        (groups, n_alloc)
    }

    /// Bottleneck capacity of a cached path (min over its link ids).
    fn bottleneck_bps(&self, ids: &[u32], capacities: &[u64]) -> u64 {
        ids.iter()
            .map(|&l| capacities[l as usize])
            .min()
            .unwrap_or(self.config.tunnel_capacity_bps)
    }

    /// Advance one tick of length `dt` ending at `now`: offer demand,
    /// allocate over the forwarding graph, and account the outcome.
    pub fn tick(&mut self, now: SimTime, dt: SimDuration, view: &TopologyView) -> TickSummary {
        // Reroute/disruption bookkeeping against the previous tick.
        for (site, last_path) in &self.last_paths {
            let offered_then = self.last_offered.get(site).copied().unwrap_or(0);
            match view.paths.get(site) {
                None if offered_then > 0 => self.series.record_disruption(*site),
                Some(p) if p != last_path => self.series.record_reroute(*site),
                _ => {}
            }
        }

        // The topology is rebuilt every tick; it counts as rebuilt when
        // the programmed paths changed.
        let rebuilt =
            self.last_paths != view.paths || self.last_alt_paths.as_ref() != Some(&view.alt_paths);
        let (groups, n_alloc) = self.rebuild_topology(view);

        // Flows of ineligible or dead sites offer nothing.
        let n_flows = self.demand.flows().len();
        let capacities: Vec<u64> = self
            .links
            .iter()
            .map(|edge| {
                view.link_capacity_bps
                    .get(edge)
                    .copied()
                    .unwrap_or(self.config.tunnel_capacity_bps)
            })
            .collect();

        let now_ms = now.as_ms();
        let dt_ms = dt.as_ms();
        let snf_cfg = self.config.store_forward;

        // Custody arrivals: last tick's extractions reach their
        // custodian, which accepts what fits; a dead one loses them.
        let mut custody_accepted = 0u64;
        let mut custody_refused = 0u64;
        let mut custody_lost = 0u64;
        if !self.custody_transit.is_empty() {
            let transit = std::mem::take(&mut self.custody_transit);
            let mut by_dest: BTreeMap<PlatformId, Vec<BufferedSegment<u32>>> = BTreeMap::new();
            for (to, segment) in transit {
                if view.dead.contains(&to) {
                    custody_lost += segment.bits();
                } else {
                    by_dest.entry(to).or_default().push(segment);
                }
            }
            for (to, segments) in by_dest {
                let buf = self.snf.entry(to).or_insert_with(|| {
                    StoreForwardBuffer::new(snf_cfg.max_bytes, snf_cfg.max_age_ms)
                });
                let (acc, refu) = buf.accept_segments(segments, now_ms);
                custody_accepted += acc;
                custody_refused += refu;
            }
            self.custody_accepted_total += custody_accepted;
            self.custody_refused_total += custody_refused;
            self.custody_lost_total += custody_lost;
            if custody_accepted > 0 {
                self.series.record_custody_accepted(custody_accepted);
            }
            if custody_refused > 0 {
                self.series.record_custody_refused(custody_refused);
            }
            if custody_lost > 0 {
                self.series.record_custody_lost(custody_lost);
            }
        }

        // A dead platform's backlog dies with it.
        let mut backlog_lost = 0u64;
        for d in &view.dead {
            if let Some(buf) = self.snf.get_mut(d) {
                let lost = buf.wipe();
                if lost > 0 {
                    backlog_lost += lost;
                    self.series.record_buffer_evicted(*d, lost);
                    self.series.record_backlog_lost(lost);
                }
            }
        }
        self.backlog_lost_total += backlog_lost;

        // Age-evict before this tick's arrivals.
        let mut snf_evicted = backlog_lost;
        for (site, buf) in self.snf.iter_mut() {
            let ev = buf.expire(now_ms);
            if ev > 0 {
                snf_evicted += ev;
                self.series.record_buffer_evicted(*site, ev);
            }
        }
        let mut snf_queued = 0u64;
        let mut offered = vec![0u64; n_flows];
        let mut demands = vec![0u64; n_alloc];
        let mut multipath_sites: BTreeSet<PlatformId> = BTreeSet::new();
        for f in 0..n_flows {
            let flow = self.demand.flows()[f];
            let site = flow.site;
            if !view.eligible.contains(&site) || view.dead.contains(&site) {
                continue;
            }
            offered[f] = offered_bps(&self.demand, f, now);
            if !view.paths.contains_key(&site) {
                // Routeless: Bulk bits wait in the site's buffer;
                // Control is never buffered.
                if snf_cfg.enabled && flow.class == TrafficClass::Bulk {
                    let bits = offered[f] * dt_ms / 1000;
                    if bits > 0 {
                        let buf = self.snf.entry(site).or_insert_with(|| {
                            StoreForwardBuffer::new(snf_cfg.max_bytes, snf_cfg.max_age_ms)
                        });
                        let ev = buf.enqueue_run(now_ms, f as u32, [bits]).1;
                        snf_queued += bits;
                        snf_evicted += ev;
                        self.flow_stats[f].buffered_bits += bits;
                        self.series.record_buffered(site, bits);
                        if ev > 0 {
                            self.series.record_buffer_evicted(site, ev);
                        }
                    }
                }
                continue;
            }
            match self.alt_subflow[f] {
                // Dual-path bulk flow: split by the two paths'
                // bottleneck capacities, exactly in u128.
                Some(ai) => {
                    let (p_ids, a_ids) = &self.site_path_ids[&site];
                    let bp = self.bottleneck_bps(p_ids, &capacities);
                    let ba = self.bottleneck_bps(a_ids, &capacities);
                    let d_p = if bp.saturating_add(ba) == 0 {
                        offered[f]
                    } else {
                        ((offered[f] as u128 * bp as u128) / (bp as u128 + ba as u128)) as u64
                    };
                    demands[f] = d_p;
                    demands[ai as usize] = offered[f] - d_p;
                    if offered[f] > 0 {
                        multipath_sites.insert(site);
                    }
                }
                None => demands[f] = offered[f],
            }
        }

        let rates = allocate_tree(&groups, self.links.len(), n_alloc, &demands, &capacities);

        // Account bits per flow, per site, and per class (an alt
        // subflow's rate folds back into its demand flow).
        let mut site_offered: BTreeMap<PlatformId, u64> = BTreeMap::new();
        let mut site_delivered: BTreeMap<PlatformId, u64> = BTreeMap::new();
        let mut class_bits: BTreeMap<TrafficClass, (u64, u64)> = BTreeMap::new();
        let mut site_class_bits: BTreeMap<(PlatformId, TrafficClass), (u64, u64)> = BTreeMap::new();
        let mut total_offered = 0u64;
        let mut total_delivered = 0u64;
        let mut flows_active = 0usize;
        for f in 0..n_flows {
            let flow = self.demand.flows()[f];
            let delivered = match self.alt_subflow[f] {
                Some(ai) => rates[f] + rates[ai as usize],
                None => rates[f],
            };
            self.flow_stats[f].offered_bits += offered[f] * dt_ms / 1000;
            self.flow_stats[f].delivered_bits += delivered * dt_ms / 1000;
            total_offered += offered[f];
            total_delivered += delivered;
            if offered[f] > 0 && view.paths.contains_key(&flow.site) {
                flows_active += 1;
            }
            if offered[f] > 0 {
                *site_offered.entry(flow.site).or_default() += offered[f];
                *site_delivered.entry(flow.site).or_default() += delivered;
                // Class and per-aggregate rows charge routeless Control
                // to the site, not the class; Bulk always counts.
                if flow.class != TrafficClass::Control || view.paths.contains_key(&flow.site) {
                    let bits = class_bits.entry(flow.class).or_default();
                    bits.0 += offered[f] * dt_ms / 1000;
                    bits.1 += delivered * dt_ms / 1000;
                    let sc = site_class_bits.entry((flow.site, flow.class)).or_default();
                    sc.0 += offered[f] * dt_ms / 1000;
                    sc.1 += delivered * dt_ms / 1000;
                }
            }
        }
        for (class, &(off_bits, del_bits)) in &class_bits {
            self.series
                .record_class(class_label(*class), now, off_bits, del_bits);
        }
        for (&(site, class), &(off_bits, del_bits)) in &site_class_bits {
            self.series
                .record_site_class(site, class_label(class), off_bits, del_bits);
        }
        for (site, &off) in &site_offered {
            let del = site_delivered.get(site).copied().unwrap_or(0);
            self.series
                .record(*site, now, off * dt_ms / 1000, del * dt_ms / 1000);
            // Demand digest: EWMA of the site's offered load.
            let alpha = FEEDBACK_ALPHA;
            self.digest_bps
                .entry(*site)
                .and_modify(|w| *w = alpha * off as f64 + (1.0 - alpha) * *w)
                .or_insert(off as f64);
        }

        // Drain stored bits, oldest first, into what the allocator
        // left on each holder's primary path; holders in id order,
        // each debiting the shared residuals.
        let mut snf_drained = 0u64;
        let mut custody_initiated = 0u64;
        if snf_cfg.enabled && !self.snf.is_empty() {
            let mut residual_bits: Vec<u128> = capacities
                .iter()
                .map(|&c| c as u128 * dt_ms as u128 / 1000)
                .collect();
            let mut carried = vec![0u64; self.links.len()];
            for f in 0..n_flows {
                let site = self.demand.flows()[f].site;
                let Some((p_ids, a_ids)) = self.site_path_ids.get(&site) else {
                    continue;
                };
                for &l in p_ids {
                    carried[l as usize] += rates[f];
                }
                if let Some(ai) = self.alt_subflow[f] {
                    for &l in a_ids {
                        carried[l as usize] += rates[ai as usize];
                    }
                }
            }
            for (l, r) in residual_bits.iter_mut().enumerate() {
                *r = r.saturating_sub(carried[l] as u128 * dt_ms as u128 / 1000);
            }
            let tunnel_bits = self.config.tunnel_capacity_bps as u128 * dt_ms as u128 / 1000;
            for (holder, buf) in self.snf.iter_mut() {
                if buf.is_empty()
                    || view.dead.contains(holder)
                    || !view.eligible.contains(holder)
                    || !view.paths.contains_key(holder)
                {
                    continue;
                }
                let Some((p_ids, _)) = self.site_path_ids.get(holder) else {
                    continue;
                };
                let budget = p_ids
                    .iter()
                    .map(|&l| residual_bits[l as usize])
                    .min()
                    .unwrap_or(tunnel_bits)
                    .min(u64::MAX as u128) as u64;
                if budget == 0 {
                    continue;
                }
                let mut chunks: Vec<(u32, u64, u64)> = Vec::new();
                buf.drain_runs(now_ms, budget, |first, age_ms, run| {
                    let slots = run.iter().enumerate().filter(|&(_, &bits)| bits > 0);
                    chunks.extend(slots.map(|(i, &bits)| (first + i as u32, bits, age_ms)));
                });
                let mut bits = 0u64;
                // Credit each chunk's origin site, not the holder.
                let mut by_origin: BTreeMap<PlatformId, (u64, u128)> = BTreeMap::new();
                for &(flow, c_bits, age_ms) in &chunks {
                    bits += c_bits;
                    let origin = self.demand.flows()[flow as usize].site;
                    let o = by_origin.entry(origin).or_default();
                    o.0 += c_bits;
                    o.1 += c_bits as u128 * age_ms as u128;
                    let fs = &mut self.flow_stats[flow as usize];
                    fs.delivered_bits += c_bits;
                    fs.drained_bits += c_bits;
                    fs.age_bits_ms += c_bits as u128 * age_ms as u128;
                }
                if bits == 0 {
                    continue;
                }
                snf_drained += bits;
                for &l in p_ids {
                    residual_bits[l as usize] =
                        residual_bits[l as usize].saturating_sub(bits as u128);
                }
                for (origin, (o_bits, o_age)) in by_origin {
                    self.series
                        .record_buffer_drained(origin, now, o_bits, o_age);
                    self.series.record_site_class_drained(
                        origin,
                        tssdn_telemetry::ServiceClass::Bulk,
                        o_bits,
                    );
                }
                self.series
                    .record_class_drained(tssdn_telemetry::ServiceClass::Bulk, now, bits);
            }

            // Custody extraction: a doomed holder sends its oldest bits
            // toward its custodian over what the handoff edge has left;
            // they arrive next tick.
            if snf_cfg.custody && !view.custody.is_empty() {
                let link_ids: BTreeMap<(PlatformId, PlatformId), usize> = self
                    .links
                    .iter()
                    .enumerate()
                    .map(|(i, e)| (*e, i))
                    .collect();
                for (&from, &to) in &view.custody {
                    if view.dead.contains(&from) || view.dead.contains(&to) {
                        continue;
                    }
                    let edge = edge_key(from, to);
                    // An on-path edge shares the path's residual; an
                    // off-path one offers its idle capacity, if rated.
                    let budget = match link_ids.get(&edge) {
                        Some(&l) => residual_bits[l].min(u64::MAX as u128) as u64,
                        None => (view.link_capacity_bps.get(&edge).copied().unwrap_or(0) as u128
                            * dt_ms as u128
                            / 1000)
                            .min(u64::MAX as u128) as u64,
                    };
                    if budget == 0 {
                        continue;
                    }
                    let Some(buf) = self.snf.get_mut(&from) else {
                        continue;
                    };
                    if buf.is_empty() {
                        continue;
                    }
                    let segments = buf.extract_segments(budget);
                    let bits: u64 = segments.iter().map(BufferedSegment::bits).sum();
                    if bits == 0 {
                        continue;
                    }
                    custody_initiated += bits;
                    if let Some(&l) = link_ids.get(&edge) {
                        residual_bits[l] = residual_bits[l].saturating_sub(bits as u128);
                    }
                    self.custody_transit
                        .extend(segments.into_iter().map(|s| (to, s)));
                }
                self.custody_initiated_total += custody_initiated;
                if custody_initiated > 0 {
                    self.series.record_custody_initiated(custody_initiated);
                }
            }
        }

        // Occupancy of every non-empty holder buffer.
        if snf_cfg.enabled {
            for (holder, buf) in &self.snf {
                if !buf.is_empty() {
                    let age = buf.oldest_age_ms(now_ms).unwrap_or(0);
                    self.series
                        .record_buffer_occupancy(*holder, now, buf.total_bits(), age);
                }
            }
        }

        self.last_paths = view.paths.clone();
        self.last_alt_paths = Some(view.alt_paths.clone());
        self.last_offered = site_offered;

        TickSummary {
            offered_bps: total_offered,
            delivered_bps: total_delivered,
            flows_active,
            sites_with_path: view.paths.len(),
            multipath_sites: multipath_sites.len(),
            topology_rebuilt: rebuilt,
            snf_queued_bits: snf_queued,
            snf_drained_bits: snf_drained,
            snf_evicted_bits: snf_evicted,
            snf_buffered_bits: self.snf.values().map(|b| b.total_bits()).sum(),
            snf_backlog_lost_bits: backlog_lost,
            custody_initiated_bits: custody_initiated,
            custody_accepted_bits: custody_accepted,
            custody_refused_bits: custody_refused,
            custody_lost_bits: custody_lost,
            snf_in_transit_bits: self.custody_transit.iter().map(|(_, s)| s.bits()).sum(),
        }
    }
}

/// Map the allocator's strict-priority class onto the telemetry
/// series' class key.
fn class_label(c: TrafficClass) -> tssdn_telemetry::ServiceClass {
    match c {
        TrafficClass::Control => tssdn_telemetry::ServiceClass::Control,
        TrafficClass::Bulk => tssdn_telemetry::ServiceClass::Bulk,
    }
}
