//! The traffic engine as it stood before the probe-cadence fast path
//! (DESIGN.md §8), kept verbatim as a test-only oracle: one 445-line
//! `tick` that walks every flow three times and looks every flow's
//! site up in the view's maps. `tests/traffic_tick_equivalence.rs`
//! drives it and `tssdn_traffic::TrafficEngine` with one random
//! schedule of views and demands equal outputs after every tick.
//!
//! The public data types (`TrafficConfig`, `TopologyView`,
//! `FlowStats`, `SnfTotals`, `TickSummary`) are the production ones so
//! results compare with `==`; the offered-load formula is spelled out
//! here from `DemandGenerator`'s public fields rather than borrowed
//! from the generator's hoisted form.

#![allow(dead_code)]

use std::collections::{BTreeMap, BTreeSet};
use tssdn_dataplane::{BufferedSegment, StoreForwardBuffer};
use tssdn_sim::{PlatformId, RngStreams, SimDuration, SimTime};
use tssdn_telemetry::GoodputSeries;
use tssdn_traffic::engine::{FEEDBACK_ALPHA, GOODPUT_WINDOW_MS};
use tssdn_traffic::{
    AggregateMember, AggregateSpec, DemandGenerator, FlowStats, HierarchicalAllocator, SnfTotals,
    TickSummary, TopologyView, TrafficClass, TrafficConfig,
};

/// `DemandGenerator::offered_bps` as it was: the diurnal cosine and
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

fn paths_signature(view: &TopologyView) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |v: u64| {
        h ^= v;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for (site, path) in &view.paths {
        mix(site.0 as u64 | 1 << 40);
        for n in path {
            mix(n.0 as u64);
        }
        mix(u64::MAX);
    }
    for (site, path) in &view.alt_paths {
        mix(site.0 as u64 | 1 << 41);
        for n in path {
            mix(n.0 as u64);
        }
        mix(u64::MAX);
    }
    h
}

/// The pre-change flow-level traffic engine.
#[derive(Debug)]
pub struct ReferenceEngine {
    config: TrafficConfig,
    demand: DemandGenerator,
    /// The site×class aggregate-tree allocator.
    hier: HierarchicalAllocator,
    /// Allocator flow count of the cached topology (demand flows plus
    /// appended alt subflows).
    n_alloc: usize,
    /// Reused per-tick rate vector, so capacity-only ticks make no
    /// allocator-side heap allocation.
    rates_buf: Vec<u64>,
    series: GoodputSeries,
    flow_stats: Vec<FlowStats>,
    /// Signature of the paths the cached incidence was built from.
    paths_sig: Option<u64>,
    /// Link-id order of the cached incidence.
    links: Vec<(PlatformId, PlatformId)>,
    /// Per-site link ids of the primary and alternate paths in the
    /// cached incidence (alt empty when the site is single-path).
    site_path_ids: BTreeMap<PlatformId, (Vec<u32>, Vec<u32>)>,
    /// Demand-flow index → allocator index of its alternate-path
    /// subflow, when the flow is split this topology.
    alt_subflow: Vec<Option<u32>>,
    /// Last tick's path per site, for reroute/disruption detection.
    last_paths: BTreeMap<PlatformId, Vec<PlatformId>>,
    /// Last tick's offered load per site (disruptions only count when
    /// traffic was actually assigned to the withdrawn path).
    last_offered: BTreeMap<PlatformId, u64>,
    /// EWMA of measured offered load per site — the demand digest.
    digest_bps: BTreeMap<PlatformId, f64>,
    /// Per-holder store-and-forward buffers. The holder is normally
    /// the site balloon that queued the bits (the last-known on-path
    /// node), but after a custody handoff the custodian holds chunks
    /// that originated elsewhere — drains always credit the chunk's
    /// *origin* site via its flow id.
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
            hier: HierarchicalAllocator::new(),
            n_alloc: 0,
            rates_buf: Vec::new(),
            series: GoodputSeries::new(GOODPUT_WINDOW_MS),
            flow_stats: vec![FlowStats::default(); n_flows],
            paths_sig: None,
            links: Vec::new(),
            site_path_ids: BTreeMap::new(),
            alt_subflow: Vec::new(),
            last_paths: BTreeMap::new(),
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

    /// The engine config.
    pub fn config(&self) -> &TrafficConfig {
        &self.config
    }

    /// The demand generator (flow population).
    pub fn demand(&self) -> &DemandGenerator {
        &self.demand
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

    /// Lifetime store-and-forward totals over all holder buffers. The
    /// extended conservation invariant `queued == drained + evicted +
    /// buffered + in_transit` holds at every tick boundary — no bit
    /// leaks, even across custody handoffs (refused and
    /// lost-in-transit bits fold into `evicted_bits`).
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

    fn rebuild_topology(&mut self, view: &TopologyView) {
        let mut link_ids: BTreeMap<(PlatformId, PlatformId), u32> = BTreeMap::new();
        self.links.clear();
        self.site_path_ids.clear();
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
            self.site_path_ids.insert(*site, (ids, Vec::new()));
        }
        for (site, path) in &view.alt_paths {
            // Alt paths only count for sites that also have a
            // primary, and only when genuinely distinct.
            let Some(entry) = self.site_path_ids.get_mut(site) else {
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
        // alt subflow for each bulk flow whose site is dual-path.
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
        self.n_alloc = next_alt as usize;

        // Site×class aggregate tree: the flows of one (site,
        // class, path) triple cross identical links, so each
        // becomes one aggregate node. Demand flows are site-major
        // (DemandGenerator order), so a linear key-change walk
        // yields the groups deterministically; alt subflows form
        // their own per-site Bulk aggregates over the alternate
        // path.
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
        self.hier.set_aggregates(groups, n_links, self.n_alloc);
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

        // Incidence rebuild only when the programmed paths changed;
        // capacity-only ticks reuse the cached topology.
        let sig = paths_signature(view);
        let rebuilt = self.paths_sig != Some(sig);
        if rebuilt {
            self.rebuild_topology(view);
            self.paths_sig = Some(sig);
        }

        // Offered load per flow; flows on ineligible or path-less
        // sites present zero demand to the allocator (their offered
        // bits still count against goodput when the site is eligible).
        let n_flows = self.demand.flows().len();
        let n_alloc = self.n_alloc;
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

        // Custody arrivals: chunks extracted last tick spent one tick
        // in transit and are now offered to their custodian, which
        // accepts what fits (and is not over-age) and refuses the
        // rest. Bits addressed to a custodian that died in the
        // meantime are lost in transit.
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

        // A dead platform's backlog dies with it. This wipe is
        // exactly the loss custody transfer exists to pre-empt, and
        // it applies with custody on or off — the no-custody arm of
        // the E19 A/B pays it in full.
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

        // Age-evict before this tick's arrivals: bits at or past the
        // age bound must never be delivered, even if a route came
        // back.
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
                // Routeless but eligible: Bulk bits wait in the site's
                // store-and-forward buffer instead of counting
                // dropped. Control is never buffered — it stays
                // fail-fast so the control-latency story is untouched.
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
                // Dual-path bulk flow: split the offered load across
                // the primary and alternate paths, weighted by their
                // instantaneous bottleneck capacities (u128 keeps the
                // multiply exact).
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

        let mut rates = std::mem::take(&mut self.rates_buf);
        self.hier.allocate_into(&demands, &capacities, &mut rates);
        let rates = rates;

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
                // The class series measures strict-priority protection
                // *where a path exists*. A Control flow whose site has
                // no route this tick is an availability loss (the
                // site series catches it), not a priority failure —
                // charging it here made control goodput dip below 1.0
                // during route flaps even though every routed control
                // bit was delivered. Bulk stays inclusive: its
                // routeless bits either buffer or drop, and both
                // belong in the bulk goodput story.
                if flow.class != TrafficClass::Control || view.paths.contains_key(&flow.site) {
                    let bits = class_bits.entry(flow.class).or_default();
                    bits.0 += offered[f] * dt_ms / 1000;
                    bits.1 += delivered * dt_ms / 1000;
                    // Per-aggregate counters: the hierarchical
                    // allocator's site×class nodes, accounted whether
                    // or not aggregation is on so the two modes export
                    // comparable tables.
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
            // Demand digest: EWMA over the site's measured offered
            // load while in its operable window.
            let alpha = FEEDBACK_ALPHA;
            self.digest_bps
                .entry(*site)
                .and_modify(|w| *w = alpha * off as f64 + (1.0 - alpha) * *w)
                .or_insert(off as f64);
        }

        // Drain stored bits behind the live traffic: whatever
        // capacity the allocator left on a site's primary path this
        // tick carries buffered bits toward delivery, oldest first.
        // Sites drain in id order and each drain debits the shared
        // residuals, so contention between recovering sites resolves
        // deterministically.
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
                // Drains credit each chunk's *origin* site (via its
                // flow id) — after a custody handoff the holder and
                // the origin differ.
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

            // Custody extraction: a doomed holder hands its oldest
            // resident bits toward its designated custodian, at
            // whatever residual capacity the handoff edge has left
            // after live traffic and drains — custody never preempts
            // Control or live Bulk. The bits ride one tick in transit
            // and are offered to the custodian next tick.
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
                    // A handoff edge on a programmed path shares that
                    // path's residual; an off-path edge offers its
                    // full idle capacity. No capacity entry, no link,
                    // no transfer.
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

        // Tick-granularity occupancy observations: resident backlog
        // and oldest-chunk age per non-empty holder buffer (absent
        // ticks read as an empty buffer).
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
        self.last_offered = site_offered;
        self.rates_buf = rates;

        // Conservation must hold at every tick boundary, not just at
        // run end: every queued bit is accounted for as drained,
        // evicted (incl. refused/lost custody), resident, or riding a
        // custody transfer.
        #[cfg(debug_assertions)]
        {
            let t = self.snf_totals();
            debug_assert_eq!(
                t.queued_bits,
                t.drained_bits + t.evicted_bits + t.buffered_bits + t.in_transit_bits,
                "snf conservation violated at t={now}"
            );
        }

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
