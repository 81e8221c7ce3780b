//! The phases of one traffic tick, in the order
//! [`TrafficEngine::tick`] runs them, and the scratch they share.
//!
//! Flows are site-major, so from `offer` on the population is walked
//! as per-site *runs*: what a site's flows have in common — eligible,
//! dead, routed, the cached link ids, both bottlenecks, the diurnal
//! factor — is resolved once per run, per-flow work is slice
//! arithmetic, and each series map is touched once per site. A run
//! that offers nothing is skipped by every phase (DESIGN.md §8).

use std::collections::BTreeMap;
use std::iter;

use tssdn_dataplane::{BufferedSegment, StoreForwardBuffer};
use tssdn_sim::{PlatformId, SimTime};
use tssdn_telemetry::ServiceClass;

use super::{
    edge_key, paths_signature, FlowStats, SiteSlot, StoreForwardConfig, TickSummary, TopologyView,
    TrafficEngine,
};
use crate::allocator::TrafficClass;

/// The service classes in `TrafficClass` order — the order the class
/// and site×class series rows are recorded in.
const CLASSES: [TrafficClass; 2] = [TrafficClass::Control, TrafficClass::Bulk];

/// Map the allocator's strict-priority class onto the telemetry
/// series' class key.
fn class_label(c: TrafficClass) -> ServiceClass {
    match c {
        TrafficClass::Control => ServiceClass::Control,
        TrafficClass::Bulk => ServiceClass::Bulk,
    }
}

/// What one run did this tick. A run that is not `offering` is skipped
/// by every later phase: its flows offered nothing, so their demands —
/// and, because an allocator never grants more than the demand, their
/// rates — are zero, and every statement skipped would have added 0.
#[derive(Debug, Default, Clone, Copy)]
struct RunTick {
    /// Eligible, alive, and some flow offered a non-zero load.
    offering: bool,
    /// The site has a programmed path (only read when `offering`).
    routed: bool,
    /// Σ allocated rate over the run's flows on the primary path, bps.
    rate_primary: u64,
    /// Σ allocated rate over the run's alternate-path subflows, bps.
    rate_alt: u64,
}

/// Offered / delivered bits of one series row this tick. `seen` marks
/// a row some flow with non-zero offered load contributed to — rows
/// are recorded when seen, even at zero bits.
#[derive(Debug, Default, Clone, Copy)]
struct RowBits {
    seen: bool,
    offered: u64,
    delivered: u64,
}

impl RowBits {
    fn add(&mut self, t: &RangeTotals) {
        self.seen = true;
        self.offered += t.offered_bits;
        self.delivered += t.delivered_bits;
    }
}

/// Per-tick totals of one distinct site; two runs of one site (a site
/// handed to [`TrafficEngine::new`] twice) accumulate into one.
#[derive(Debug, Default, Clone, Copy)]
struct SiteTotals {
    offered_bps: u64,
    delivered_bps: u64,
    /// Some dual-path bulk flow of the site offered load this tick.
    multipath: bool,
    /// Site×class rows, indexed by `TrafficClass as usize`.
    class: [RowBits; 2],
}

/// Buffers reused from tick to tick, so a tick allocates nothing.
#[derive(Debug, Default)]
pub(super) struct TickScratch {
    /// Offered load per demand flow, bps. Only the runs that are
    /// `offering` this tick hold this tick's values.
    offered: Vec<u64>,
    /// Demand per allocator flow, bps; all zero unless `demanded`.
    demands: Vec<u64>,
    /// Some run wrote `demands` since they were last zeroed.
    demanded: bool,
    /// Capacity per cached link id, bps.
    capacities: Vec<u64>,
    /// Live rate carried per link, bps.
    carried: Vec<u64>,
    /// Bits each link can still carry this tick, after live traffic
    /// and then after each drain and handoff.
    residual_bits: Vec<u128>,
    /// One entry per [`TrafficEngine::sites`] slot.
    runs: Vec<RunTick>,
    /// One entry per [`TrafficEngine::site_ids`] id.
    sites: Vec<SiteTotals>,
}

impl TickScratch {
    pub(super) fn new(n_flows: usize, n_runs: usize, n_sites: usize) -> Self {
        TickScratch {
            offered: vec![0; n_flows],
            runs: vec![RunTick::default(); n_runs],
            sites: vec![SiteTotals::default(); n_sites],
            ..TickScratch::default()
        }
    }

    /// A rebuilt incidence renumbers the allocator's flows.
    pub(super) fn reset_demands(&mut self, n_alloc: usize) {
        self.demands.clear();
        self.demands.resize(n_alloc, 0);
        self.demanded = false;
    }
}

/// What one class range of one run came to this tick.
#[derive(Debug, Default)]
struct RangeTotals {
    offered_bps: u64,
    rate_primary: u64,
    rate_alt: u64,
    offered_bits: u64,
    delivered_bits: u64,
    /// Flows with a non-zero offered load.
    nonzero: usize,
}

/// Credit one class range of a run to its flows' lifetime stats and
/// total it. `rates` yields each flow's `(primary, alternate)` rate;
/// bits are floored per flow, as the per-flow ledgers are.
fn account_flows(
    offered: &[u64],
    stats: &mut [FlowStats],
    dt_ms: u64,
    rates: impl Iterator<Item = (u64, u64)>,
) -> RangeTotals {
    let mut t = RangeTotals::default();
    for ((&o, fs), (rate_p, rate_a)) in offered.iter().zip(stats).zip(rates) {
        let (ob, db) = (o * dt_ms / 1000, (rate_p + rate_a) * dt_ms / 1000);
        fs.offered_bits += ob;
        fs.delivered_bits += db;
        t.offered_bps += o;
        t.rate_primary += rate_p;
        t.rate_alt += rate_a;
        t.offered_bits += ob;
        t.delivered_bits += db;
        t.nonzero += (o > 0) as usize;
    }
    t
}

/// Bottleneck capacity of a cached path (min over its link ids).
fn bottleneck_bps(ids: &[u32], capacities: &[u64], tunnel_bps: u64) -> u64 {
    ids.iter()
        .map(|&l| capacities[l as usize])
        .min()
        .unwrap_or(tunnel_bps)
}

fn buffer_of(
    snf: &mut BTreeMap<PlatformId, StoreForwardBuffer<u32>>,
    cfg: StoreForwardConfig,
    holder: PlatformId,
) -> &mut StoreForwardBuffer<u32> {
    snf.entry(holder)
        .or_insert_with(|| StoreForwardBuffer::new(cfg.max_bytes, cfg.max_age_ms))
}

impl TrafficEngine {
    /// Reroute/disruption bookkeeping against the previous tick.
    pub(super) fn note_path_changes(&mut self, view: &TopologyView) {
        for (site, last_path) in &self.last_paths {
            let offered_then = self.last_offered.get(site).copied().unwrap_or(0);
            match view.paths.get(site) {
                None if offered_then > 0 => self.series.record_disruption(*site),
                Some(p) if p != last_path => self.series.record_reroute(*site),
                _ => {}
            }
        }
    }

    /// Rebuild the incidence only when the programmed paths changed
    /// (capacity-only ticks reuse the cached topology), then read this
    /// tick's capacity of every cached link.
    pub(super) fn refresh_incidence(&mut self, view: &TopologyView) -> bool {
        let sig = paths_signature(view);
        let rebuilt = self.paths_sig != Some(sig);
        if rebuilt {
            self.rebuild_topology(view);
            self.paths_sig = Some(sig);
        }
        let tunnel = self.config.tunnel_capacity_bps;
        let capacities = &mut self.scratch.capacities;
        capacities.clear();
        capacities.extend(
            self.links
                .iter()
                .map(|edge| view.link_capacity_bps.get(edge).copied().unwrap_or(tunnel)),
        );
        rebuilt
    }

    /// Custody arrivals: segments extracted last tick spent one tick
    /// in transit and are now offered to their custodian, which accepts
    /// what fits (and is not over-age) and refuses the rest. Bits
    /// addressed to a custodian that died in the meantime are lost in
    /// transit.
    pub(super) fn custody_arrivals(
        &mut self,
        view: &TopologyView,
        now_ms: u64,
        s: &mut TickSummary,
    ) {
        if self.custody_transit.is_empty() {
            return;
        }
        let mut by_dest: BTreeMap<PlatformId, Vec<BufferedSegment<u32>>> = BTreeMap::new();
        for (to, segment) in self.custody_transit.drain(..) {
            if view.dead.contains(&to) {
                s.custody_lost_bits += segment.bits();
            } else {
                by_dest.entry(to).or_default().push(segment);
            }
        }
        for (to, segments) in by_dest {
            let buf = buffer_of(&mut self.snf, self.config.store_forward, to);
            let (accepted, refused) = buf.accept_segments(segments, now_ms);
            s.custody_accepted_bits += accepted;
            s.custody_refused_bits += refused;
        }
        self.custody_accepted_total += s.custody_accepted_bits;
        self.custody_refused_total += s.custody_refused_bits;
        self.custody_lost_total += s.custody_lost_bits;
        if s.custody_accepted_bits > 0 {
            self.series.record_custody_accepted(s.custody_accepted_bits);
        }
        if s.custody_refused_bits > 0 {
            self.series.record_custody_refused(s.custody_refused_bits);
        }
        if s.custody_lost_bits > 0 {
            self.series.record_custody_lost(s.custody_lost_bits);
        }
    }

    /// A dead platform's backlog dies with it. This wipe is exactly
    /// the loss custody transfer exists to pre-empt, and it applies
    /// with custody on or off — the no-custody arm of the E19 A/B pays
    /// it in full.
    pub(super) fn wipe_dead(&mut self, view: &TopologyView, s: &mut TickSummary) {
        for d in &view.dead {
            if let Some(buf) = self.snf.get_mut(d) {
                let lost = buf.wipe();
                if lost > 0 {
                    s.snf_backlog_lost_bits += lost;
                    self.series.record_buffer_evicted(*d, lost);
                    self.series.record_backlog_lost(lost);
                }
            }
        }
        self.backlog_lost_total += s.snf_backlog_lost_bits;
        s.snf_evicted_bits += s.snf_backlog_lost_bits;
    }

    /// Age-evict before this tick's arrivals: bits at or past the age
    /// bound must never be delivered, even if a route came back.
    pub(super) fn expire(&mut self, now_ms: u64, s: &mut TickSummary) {
        for (site, buf) in self.snf.iter_mut() {
            let ev = buf.expire(now_ms);
            if ev > 0 {
                s.snf_evicted_bits += ev;
                self.series.record_buffer_evicted(*site, ev);
            }
        }
    }

    /// Offered load and allocator demand, run by run. A run on an
    /// ineligible or dead site offers nothing; an eligible routeless
    /// one offers (the bits count against goodput) but demands
    /// nothing; a routed one demands what it offers, split over two
    /// paths when the site has two.
    pub(super) fn offer(
        &mut self,
        now: SimTime,
        dt_ms: u64,
        view: &TopologyView,
        s: &mut TickSummary,
    ) {
        let factor = self.demand.load_factor(now);
        if self.scratch.demanded {
            self.scratch.demands.fill(0);
            self.scratch.demanded = false;
        }
        self.scratch.sites.fill(SiteTotals::default());
        for k in 0..self.sites.len() {
            let run = self.sites[k].run;
            let all = run.first as usize..run.end as usize;
            self.scratch.runs[k] = RunTick::default();
            if !view.eligible.contains(&run.site) || view.dead.contains(&run.site) {
                continue;
            }
            let offered = &mut self.scratch.offered[all.clone()];
            if self.demand.offer_run(&run, factor, offered) == 0 {
                continue;
            }
            let routed = view.paths.contains_key(&run.site);
            self.scratch.runs[k] = RunTick {
                offering: true,
                routed,
                ..RunTick::default()
            };
            if !routed {
                if self.config.store_forward.enabled {
                    self.buffer_routeless(k, now.as_ms(), dt_ms, s);
                }
                continue;
            }
            self.scratch.demanded = true;
            self.scratch.demands[all.clone()].copy_from_slice(&self.scratch.offered[all]);
            if self.sites[k].alt_first.is_some() {
                self.split_dual_path(k);
            }
        }
    }

    /// Routeless but eligible: the run's Bulk bits wait in the site's
    /// store-and-forward buffer instead of counting dropped — one
    /// chunk per flow, in ascending flow index, which is the order a
    /// later drain or handoff takes them in, and one segment for the
    /// run. Control is never buffered: it stays fail-fast so the
    /// control-latency story is untouched.
    fn buffer_routeless(&mut self, k: usize, now_ms: u64, dt_ms: u64, s: &mut TickSummary) {
        let run = self.sites[k].run;
        let bulk = run.first as usize..run.bulk_end as usize;
        let offered = &self.scratch.offered[bulk.clone()];
        let bits_of = |o: u64| o * dt_ms / 1000;
        if !offered.iter().any(|&o| bits_of(o) > 0) {
            return;
        }
        let buf = buffer_of(&mut self.snf, self.config.store_forward, run.site);
        let stats = self.flow_stats[bulk].iter_mut();
        let bits = stats.zip(offered).map(|(fs, &o)| {
            fs.buffered_bits += bits_of(o);
            bits_of(o)
        });
        let (queued, evicted) = buf.enqueue_run(now_ms, run.first, bits);
        self.series.record_buffered(run.site, queued);
        if evicted > 0 {
            self.series.record_buffer_evicted(run.site, evicted);
        }
        s.snf_queued_bits += queued;
        s.snf_evicted_bits += evicted;
    }

    /// Split a dual-path run's bulk demand across its primary and
    /// alternate paths, weighted by their instantaneous bottleneck
    /// capacities. The quotient is exact either way: `u64` when the
    /// product and the sum fit, `u128` otherwise.
    fn split_dual_path(&mut self, k: usize) {
        let SiteSlot {
            run,
            acc,
            alt_first,
        } = self.sites[k];
        let alt_first = alt_first.expect("dual-path run") as usize;
        let bulk = run.first as usize..run.bulk_end as usize;
        let scratch = &mut self.scratch;
        let (p_ids, a_ids) = &self.path_ids[&run.site];
        let tunnel = self.config.tunnel_capacity_bps;
        let bp = bottleneck_bps(p_ids, &scratch.capacities, tunnel);
        let ba = bottleneck_bps(a_ids, &scratch.capacities, tunnel);
        let narrow_sum = bp.checked_add(ba);
        let (primary, alts) = scratch.demands.split_at_mut(self.demand.flows().len());
        let alts = &mut alts[alt_first - primary.len()..][..bulk.len()];
        let mut any = false;
        for ((d_p, d_a), &o) in primary[bulk.clone()]
            .iter_mut()
            .zip(alts)
            .zip(&scratch.offered[bulk])
        {
            *d_p = match (narrow_sum, o.checked_mul(bp)) {
                (Some(0), _) => o,
                (Some(sum), Some(product)) => product / sum,
                _ => ((o as u128 * bp as u128) / (bp as u128 + ba as u128)) as u64,
            };
            *d_a = o - *d_p;
            any |= o > 0;
        }
        scratch.sites[acc].multipath |= any;
    }

    /// Max-min allocation of this tick's demands. When no run
    /// demanded, every rate is zero and no phase reads one, so the
    /// allocator is not called.
    pub(super) fn allocate(&mut self) {
        let TickScratch {
            demands,
            capacities,
            demanded,
            ..
        } = &self.scratch;
        if !demanded {
            return;
        }
        self.hier
            .allocate_into(demands, capacities, &mut self.rates);
        // What skipping a non-offering run rests on: zero demand,
        // zero rate.
        debug_assert!(self.rates.iter().zip(demands).all(|(r, d)| r <= d));
    }

    /// Account bits per flow, per site and per class (an alt
    /// subflow's rate folds back into its demand flow), then record
    /// the tick's series rows.
    pub(super) fn account(&mut self, now: SimTime, dt_ms: u64, s: &mut TickSummary) {
        let scratch = &mut self.scratch;
        let mut fleet = [RowBits::default(); 2];
        for (slot, rt) in self.sites.iter().zip(&mut scratch.runs) {
            if !rt.offering {
                continue;
            }
            let r = slot.run;
            let site = &mut scratch.sites[slot.acc];
            for (class, first, end) in [
                (TrafficClass::Bulk, r.first as usize, r.bulk_end as usize),
                (TrafficClass::Control, r.bulk_end as usize, r.end as usize),
            ] {
                let offered = &scratch.offered[first..end];
                let stats = &mut self.flow_stats[first..end];
                let t = if !rt.routed {
                    // A routeless run was allocated nothing.
                    account_flows(offered, stats, dt_ms, iter::repeat((0, 0)))
                } else {
                    let primary = self.rates[first..end].iter();
                    match slot.alt_first.filter(|_| class == TrafficClass::Bulk) {
                        None => account_flows(offered, stats, dt_ms, primary.map(|&p| (p, 0))),
                        Some(a) => {
                            let alt = &self.rates[a as usize..][..end - first];
                            let both = primary.zip(alt).map(|(&p, &a)| (p, a));
                            account_flows(offered, stats, dt_ms, both)
                        }
                    }
                };
                site.offered_bps += t.offered_bps;
                rt.rate_primary += t.rate_primary;
                rt.rate_alt += t.rate_alt;
                if rt.routed {
                    s.flows_active += t.nonzero;
                }
                // The class series measures strict-priority protection
                // *where a path exists*. A Control flow whose site has
                // no route this tick is an availability loss (the
                // site series catches it), not a priority failure —
                // charging it here made control goodput dip below 1.0
                // during route flaps even though every routed control
                // bit was delivered. Bulk stays inclusive: its
                // routeless bits either buffer or drop, and both
                // belong in the bulk goodput story. The site×class
                // rows (the allocator's aggregate nodes) follow the
                // same rule.
                if t.nonzero > 0 && (class != TrafficClass::Control || rt.routed) {
                    fleet[class as usize].add(&t);
                    site.class[class as usize].add(&t);
                }
            }
            site.delivered_bps += rt.rate_primary + rt.rate_alt;
        }
        self.record_rows(fleet, now, dt_ms, s);
    }

    /// The ordering contract of the tick's series rows: classes in
    /// `TrafficClass` order; site×class rows in `(site, class)` order;
    /// site rows, the digest EWMA and `last_offered` in ascending site
    /// id — whatever order the sites were handed to `new` in, a
    /// repeated site being one row. Only rows that saw offered load
    /// are recorded.
    fn record_rows(&mut self, fleet: [RowBits; 2], now: SimTime, dt_ms: u64, s: &mut TickSummary) {
        let sites = || self.site_ids.iter().zip(&self.scratch.sites);
        for class in CLASSES {
            let row = fleet[class as usize];
            if row.seen {
                self.series
                    .record_class(class_label(class), now, row.offered, row.delivered);
            }
        }
        for (&id, site) in sites() {
            for class in CLASSES {
                let row = site.class[class as usize];
                if row.seen {
                    self.series.record_site_class(
                        id,
                        class_label(class),
                        row.offered,
                        row.delivered,
                    );
                }
            }
        }
        self.last_offered.clear();
        let alpha = self.config.feedback_alpha;
        for (&id, site) in sites() {
            let (off, del) = (site.offered_bps, site.delivered_bps);
            s.offered_bps += off;
            s.delivered_bps += del;
            s.multipath_sites += site.multipath as usize;
            if off == 0 {
                continue;
            }
            self.series
                .record(id, now, off * dt_ms / 1000, del * dt_ms / 1000);
            // Demand digest: EWMA over the site's measured offered
            // load while in its operable window.
            self.digest_bps
                .entry(id)
                .and_modify(|w| *w = alpha * off as f64 + (1.0 - alpha) * *w)
                .or_insert(off as f64);
            self.last_offered.insert(id, off);
        }
    }

    /// What each cached link can still carry this tick once the live
    /// allocation is on it: one per-run rate sum per link of the run's
    /// paths.
    fn residuals_after_live(&mut self, dt_ms: u64) {
        let TickScratch {
            capacities,
            carried,
            residual_bits,
            runs,
            ..
        } = &mut self.scratch;
        let link_bits = |bps: u64| bps as u128 * dt_ms as u128 / 1000;
        carried.clear();
        carried.resize(capacities.len(), 0);
        for (slot, rt) in self.sites.iter().zip(runs.iter()) {
            if !(rt.offering && rt.routed) {
                continue;
            }
            let Some((p_ids, a_ids)) = self.path_ids.get(&slot.run.site) else {
                continue;
            };
            for &l in p_ids {
                carried[l as usize] += rt.rate_primary;
            }
            for &l in a_ids {
                carried[l as usize] += rt.rate_alt;
            }
        }
        residual_bits.clear();
        residual_bits.extend(
            capacities
                .iter()
                .zip(carried.iter())
                .map(|(&cap, &live)| link_bits(cap).saturating_sub(link_bits(live))),
        );
    }

    /// Drain stored bits behind the live traffic: whatever capacity
    /// the allocator left on a holder's primary path this tick carries
    /// buffered bits toward delivery, oldest first. Holders drain in
    /// id order and each drain debits the shared residuals, so
    /// contention between recovering sites resolves deterministically.
    pub(super) fn drain(
        &mut self,
        now: SimTime,
        dt_ms: u64,
        view: &TopologyView,
        s: &mut TickSummary,
    ) {
        self.residuals_after_live(dt_ms);
        let residual_bits = &mut self.scratch.residual_bits;
        let tunnel_bits = self.config.tunnel_capacity_bps as u128 * dt_ms as u128 / 1000;
        for (holder, buf) in self.snf.iter_mut() {
            if buf.is_empty()
                || view.dead.contains(holder)
                || !view.eligible.contains(holder)
                || !view.paths.contains_key(holder)
            {
                continue;
            }
            let Some((p_ids, _)) = self.path_ids.get(holder) else {
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
            // Drains credit each chunk's *origin* site (via its flow
            // id) — after a custody handoff the holder and the origin
            // differ. A drained run is part of one segment, which one
            // site's routeless tick queued: one origin, one age.
            let mut by_origin: BTreeMap<PlatformId, (u64, u128)> = BTreeMap::new();
            let flows = self.demand.flows();
            let bits = buf.drain_runs(now.as_ms(), budget, |first, age_ms, run| {
                let first = first as usize;
                let origin = flows[first].site;
                debug_assert_eq!(flows[first + run.len() - 1].site, origin);
                let mut run_bits = 0u64;
                for (fs, &b) in self.flow_stats[first..].iter_mut().zip(run) {
                    run_bits += b;
                    fs.delivered_bits += b;
                    fs.drained_bits += b;
                    fs.age_bits_ms += b as u128 * age_ms as u128;
                }
                let o = by_origin.entry(origin).or_default();
                o.0 += run_bits;
                o.1 += run_bits as u128 * age_ms as u128;
            });
            if bits == 0 {
                continue;
            }
            s.snf_drained_bits += bits;
            for &l in p_ids {
                residual_bits[l as usize] = residual_bits[l as usize].saturating_sub(bits as u128);
            }
            for (origin, (o_bits, o_age)) in by_origin {
                self.series
                    .record_buffer_drained(origin, now, o_bits, o_age);
                self.series
                    .record_site_class_drained(origin, ServiceClass::Bulk, o_bits);
            }
            self.series
                .record_class_drained(ServiceClass::Bulk, now, bits);
        }
    }

    /// Custody extraction: a doomed holder hands its oldest resident
    /// bits toward its designated custodian, at whatever residual
    /// capacity the handoff edge has left after live traffic and
    /// drains — custody never preempts Control or live Bulk. The bits
    /// ride one tick in transit and are offered to the custodian next
    /// tick. Runs after [`Self::drain`], on its residuals.
    pub(super) fn extract_custody(&mut self, dt_ms: u64, view: &TopologyView, s: &mut TickSummary) {
        let residual_bits = &mut self.scratch.residual_bits;
        for (&from, &to) in &view.custody {
            if view.dead.contains(&from) || view.dead.contains(&to) {
                continue;
            }
            let edge = edge_key(from, to);
            // A handoff edge on a programmed path shares that path's
            // residual; an off-path edge offers its full idle
            // capacity. No capacity entry, no link, no transfer.
            let on_path = self.links.iter().position(|e| *e == edge);
            let idle_bits = match on_path {
                Some(l) => residual_bits[l],
                None => {
                    let bps = view.link_capacity_bps.get(&edge).copied().unwrap_or(0);
                    bps as u128 * dt_ms as u128 / 1000
                }
            };
            let budget = idle_bits.min(u64::MAX as u128) as u64;
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
            s.custody_initiated_bits += bits;
            if let Some(l) = on_path {
                residual_bits[l] = residual_bits[l].saturating_sub(bits as u128);
            }
            self.custody_transit
                .extend(segments.into_iter().map(|s| (to, s)));
        }
        self.custody_initiated_total += s.custody_initiated_bits;
        if s.custody_initiated_bits > 0 {
            self.series
                .record_custody_initiated(s.custody_initiated_bits);
        }
    }

    /// Tick-granularity occupancy observations — resident backlog and
    /// oldest-chunk age per non-empty holder buffer (absent ticks read
    /// as an empty buffer) — and the state the next tick compares
    /// against.
    pub(super) fn observe(&mut self, now: SimTime, view: &TopologyView, s: &mut TickSummary) {
        if self.config.store_forward.enabled {
            for (holder, buf) in &self.snf {
                if !buf.is_empty() {
                    let age = buf.oldest_age_ms(now.as_ms()).unwrap_or(0);
                    self.series
                        .record_buffer_occupancy(*holder, now, buf.total_bits(), age);
                }
            }
        }
        self.last_paths.clone_from(&view.paths);
        s.snf_buffered_bits = self.snf.values().map(|b| b.total_bits()).sum();
        s.snf_in_transit_bits = self.in_transit_bits();

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
    }
}
