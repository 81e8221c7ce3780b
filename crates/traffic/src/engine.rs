//! The per-tick traffic engine: demand × forwarding graph × ACM
//! capacity → max-min goodput, with disruption accounting and the
//! network-digest demand feedback the planner consumes.
//!
//! The orchestrator hands the engine a [`TopologyView`] each tick —
//! the paths the TS-SDN actually programmed, the instantaneous
//! capacity of each radio edge (from `tssdn_rf::capacity_mbps` at the
//! true link margin), and which sites are in their potential-operable
//! window. The engine offers each aggregate flow its diurnal demand,
//! runs progressive filling over the forwarding graph, and accounts
//! offered-vs-delivered bits into a [`GoodputSeries`].
//!
//! The digest side: an EWMA of each site's measured offered load is
//! exported via [`TrafficEngine::demand_weight_bps`], which the
//! orchestrator writes back into the backhaul requests' minimum
//! bitrates before each solve — closing the measurement→planning loop
//! the paper assigns to the network digest (§3.1).

use std::collections::{BTreeMap, BTreeSet};
use tssdn_dataplane::{BufferedSegment, StoreForwardBuffer};
use tssdn_sim::{PlatformId, RngStreams, SimDuration, SimTime};
use tssdn_telemetry::GoodputSeries;

use crate::aggregate::{AggregateMember, AggregateSpec, HierarchicalAllocator};
use crate::allocator::TrafficClass;
use crate::demand::{DemandConfig, DemandGenerator, SiteRun};

mod phases;

/// Store-and-forward (delay-tolerant) plane configuration. When a
/// Bulk flow's site has no programmed route, its offered bits enter a
/// per-site bounded buffer instead of counting dropped, and drain at
/// residual link capacity once a route reappears. Control traffic is
/// never buffered — it stays fail-fast.
#[derive(Debug, Clone, Copy)]
pub struct StoreForwardConfig {
    /// Master switch; off restores the pure drop-on-miss data plane.
    pub enabled: bool,
    /// Byte bound per site buffer; oldest bits evict first.
    pub max_bytes: u64,
    /// Age bound, ms: bits resident this long or longer are dropped.
    pub max_age_ms: u64,
    /// Custody transfer: when the view designates a custodian for a
    /// platform about to die, the platform's resident chunks are
    /// handed over the designated edge (at residual rate, one tick in
    /// transit) instead of dying with it. Off, a lost holder's
    /// backlog is wiped — the E19 no-custody arm.
    pub custody: bool,
}

impl Default for StoreForwardConfig {
    fn default() -> Self {
        StoreForwardConfig {
            enabled: true,
            // 2 GB ≈ 5 min of a site's ~50 Mbps peak load; enough to
            // ride a short blackhole window, small enough that a long
            // outage visibly evicts.
            max_bytes: 2_000_000_000,
            max_age_ms: 30 * 60 * 1000,
            custody: true,
        }
    }
}

/// Traffic-engine configuration.
#[derive(Debug, Clone, Copy)]
pub struct TrafficConfig {
    /// Demand-side (user population / diurnal curve) parameters.
    pub demand: DemandConfig,
    /// Capacity assumed for path edges not present in the view's
    /// radio-edge capacity map — the wired GS→EC segments.
    pub tunnel_capacity_bps: u64,
    /// Feed measured demand back into the planner's request weights.
    pub feedback: bool,
    /// EWMA smoothing factor for the demand digest (0..1].
    pub feedback_alpha: f64,
    /// Goodput-series bucket width, ms.
    pub window_ms: u64,
    /// Delay-tolerant buffering for routeless Bulk traffic.
    pub store_forward: StoreForwardConfig,
}

impl Default for TrafficConfig {
    fn default() -> Self {
        TrafficConfig {
            demand: DemandConfig::default(),
            tunnel_capacity_bps: 10_000_000_000,
            feedback: true,
            feedback_alpha: 0.2,
            window_ms: 24 * 3600 * 1000,
            store_forward: StoreForwardConfig::default(),
        }
    }
}

/// The forwarding state the engine sees each tick.
#[derive(Debug, Clone, Default)]
pub struct TopologyView {
    /// Site → the full node path its traffic rides (site → … → EC).
    /// Absent means the site has no programmed data-plane route.
    pub paths: BTreeMap<PlatformId, Vec<PlatformId>>,
    /// Site → an alternate (edge-disjoint) forwarding path, when the
    /// redundancy pass gave the site two established routes. Only
    /// consulted for sites that also have a primary path; each site's
    /// bulk traffic splits across both, weighted by bottleneck
    /// headroom, while control flows ride the primary.
    pub alt_paths: BTreeMap<PlatformId, Vec<PlatformId>>,
    /// Instantaneous capacity of each radio edge, keyed by the
    /// normalized `(min, max)` platform pair. Path edges missing here
    /// are treated as wired at `tunnel_capacity_bps`.
    pub link_capacity_bps: BTreeMap<(PlatformId, PlatformId), u64>,
    /// Sites in their potential-operable window (powered, acquired).
    /// Ineligible sites offer no traffic, mirroring the Figure-6
    /// eligibility rule.
    pub eligible: BTreeSet<PlatformId>,
    /// Platforms that are dark this tick (balloon loss, site outage).
    /// A dead platform offers nothing, and any buffer it holds is
    /// wiped — its backlog dies with it unless custody moved the bits
    /// off in time.
    pub dead: BTreeSet<PlatformId>,
    /// Custody designations from the orchestrator: doomed platform →
    /// the still-connected neighbor that should assume custody of its
    /// resident buffered bits. Only honored when
    /// [`StoreForwardConfig::custody`] is on and the handoff edge has
    /// capacity in `link_capacity_bps`.
    pub custody: BTreeMap<PlatformId, PlatformId>,
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

/// Lifetime byte totals for one aggregate flow.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct FlowStats {
    /// Bits the flow's users offered.
    pub offered_bits: u64,
    /// Bits delivered end-to-end (live allocation plus buffered bits
    /// that later drained).
    pub delivered_bits: u64,
    /// Bits that entered the store-and-forward buffer.
    pub buffered_bits: u64,
    /// Buffered bits later drained to delivery.
    pub drained_bits: u64,
    /// Σ (bits × residency ms) over this flow's drained chunks —
    /// divide by `drained_bits` for the flow's mean age-of-delivery.
    pub age_bits_ms: u128,
}

/// Fleet-wide store-and-forward totals (lifetime, summed over sites).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SnfTotals {
    /// Bits that entered any site buffer.
    pub queued_bits: u64,
    /// Bits drained to delivery after a route reappeared.
    pub drained_bits: u64,
    /// Bits gone without delivery: byte-bound and age-bound
    /// evictions, dead holders' wiped backlogs, and handed-off bits
    /// refused or lost in transit.
    pub evicted_bits: u64,
    /// Bits currently resident across all buffers.
    pub buffered_bits: u64,
    /// Bits currently riding a custody handoff between buffers.
    pub in_transit_bits: u64,
    /// Lifetime bits extracted from doomed holders for handoff.
    pub custody_initiated_bits: u64,
    /// Lifetime handed-off bits accepted by custodians.
    pub custody_accepted_bits: u64,
    /// Lifetime handed-off bits refused by custodians (over-age on
    /// arrival or past free space); counted in `evicted_bits`.
    pub custody_refused_bits: u64,
    /// Lifetime handed-off bits whose custodian died in transit;
    /// counted in `evicted_bits`.
    pub custody_lost_bits: u64,
    /// Lifetime resident bits wiped with their dying holder (already
    /// inside `evicted_bits` via the buffers' own eviction ledgers).
    pub backlog_lost_bits: u64,
}

/// One tick's aggregate outcome.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct TickSummary {
    /// Total offered load this tick, bps.
    pub offered_bps: u64,
    /// Total allocated (delivered) rate this tick, bps.
    pub delivered_bps: u64,
    /// Flows that offered traffic and had a path.
    pub flows_active: usize,
    /// Sites with a programmed path this tick.
    pub sites_with_path: usize,
    /// Sites whose bulk traffic was split across two forwarding
    /// paths this tick.
    pub multipath_sites: usize,
    /// Whether this tick rebuilt the flow→link incidence (false =
    /// capacity-only incremental recompute).
    pub topology_rebuilt: bool,
    /// Bulk bits queued into store-and-forward buffers this tick.
    pub snf_queued_bits: u64,
    /// Buffered bits drained to delivery this tick.
    pub snf_drained_bits: u64,
    /// Buffered bits evicted this tick (byte bound, age bound, or a
    /// dead holder's wiped backlog).
    pub snf_evicted_bits: u64,
    /// Bits resident across all buffers at tick end.
    pub snf_buffered_bits: u64,
    /// Resident bits wiped from dead holders' buffers this tick.
    pub snf_backlog_lost_bits: u64,
    /// Bits extracted for custody handoff this tick.
    pub custody_initiated_bits: u64,
    /// Handed-off bits accepted by custodians this tick.
    pub custody_accepted_bits: u64,
    /// Handed-off bits refused by custodians this tick.
    pub custody_refused_bits: u64,
    /// Handed-off bits lost to a dead custodian this tick.
    pub custody_lost_bits: u64,
    /// Bits in custody transit at tick end.
    pub snf_in_transit_bits: u64,
}

/// One demand run (a site's contiguous flows) and where its flows sit
/// in the cached incidence.
#[derive(Debug, Clone, Copy)]
struct SiteSlot {
    run: SiteRun,
    /// Index of the run's site in [`TrafficEngine::site_ids`].
    acc: usize,
    /// Allocator index of the alternate-path subflow of the run's
    /// first bulk flow, when the site is dual-path in the cached
    /// incidence; bulk flow `run.first + i` splits onto `alt_first + i`.
    alt_first: Option<u32>,
}

/// Deterministic flow-level traffic engine.
#[derive(Debug)]
pub struct TrafficEngine {
    config: TrafficConfig,
    demand: DemandGenerator,
    /// The site×class aggregate-tree allocator (see
    /// [`crate::aggregate`]).
    hier: HierarchicalAllocator,
    /// Reused per-tick rate vector. Valid only on ticks where some
    /// run demanded, and then only read for those runs.
    rates: Vec<u64>,
    series: GoodputSeries,
    flow_stats: Vec<FlowStats>,
    /// Signature of the paths the cached incidence was built from.
    paths_sig: Option<u64>,
    /// Link-id order of the cached incidence.
    links: Vec<(PlatformId, PlatformId)>,
    /// Per-platform link ids of the primary and alternate paths in the
    /// cached incidence (alt empty when single-path). Keyed by every
    /// platform with a programmed path, served site or not — a
    /// custodian drains over its own path.
    path_ids: BTreeMap<PlatformId, (Vec<u32>, Vec<u32>)>,
    /// The demand runs, in flow order.
    sites: Vec<SiteSlot>,
    /// The distinct served sites, ascending — the order series rows
    /// come out in whatever order the sites were handed over in; a
    /// site listed twice is two runs and one row.
    site_ids: Vec<PlatformId>,
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
    scratch: phases::TickScratch,
}

impl TrafficEngine {
    /// Build an engine for the given served sites; per-flow weights
    /// draw from the dedicated `"traffic-demand"` RNG stream, and no
    /// RNG is consumed after construction.
    pub fn new(config: TrafficConfig, sites: &[PlatformId], streams: &RngStreams) -> Self {
        let demand = DemandGenerator::new(config.demand, sites, streams);
        let n_flows = demand.flows().len();
        let mut site_ids: Vec<PlatformId> = sites.to_vec();
        site_ids.sort_unstable();
        site_ids.dedup();
        let slots: Vec<SiteSlot> = demand
            .runs()
            .iter()
            .map(|run| SiteSlot {
                run: *run,
                acc: site_ids.binary_search(&run.site).expect("run site listed"),
                alt_first: None,
            })
            .collect();
        let scratch = phases::TickScratch::new(n_flows, slots.len(), site_ids.len());
        TrafficEngine {
            config,
            demand,
            hier: HierarchicalAllocator::new(),
            rates: Vec::new(),
            series: GoodputSeries::new(config.window_ms),
            flow_stats: vec![FlowStats::default(); n_flows],
            paths_sig: None,
            links: Vec::new(),
            path_ids: BTreeMap::new(),
            sites: slots,
            site_ids,
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
            scratch,
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
        t.in_transit_bits = self.in_transit_bits();
        t.custody_initiated_bits = self.custody_initiated_total;
        t.custody_accepted_bits = self.custody_accepted_total;
        t.custody_refused_bits = self.custody_refused_total;
        t.custody_lost_bits = self.custody_lost_total;
        t.backlog_lost_bits = self.backlog_lost_total;
        t
    }

    fn in_transit_bits(&self) -> u64 {
        self.custody_transit.iter().map(|(_, s)| s.bits()).sum()
    }

    fn rebuild_topology(&mut self, view: &TopologyView) {
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
        let flows = self.demand.flows();
        let mut next_alt = flows.len() as u32;
        for slot in &mut self.sites {
            let n_bulk = slot.run.bulk_end - slot.run.first;
            let dual =
                matches!(self.path_ids.get(&slot.run.site), Some((_, alt)) if !alt.is_empty());
            slot.alt_first = (dual && n_bulk > 0).then_some(next_alt);
            if dual {
                next_alt += n_bulk;
            }
        }
        let n_alloc = next_alt as usize;
        self.scratch.reset_demands(n_alloc);

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
        for slot in &self.sites {
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
        for slot in &self.sites {
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

    /// Advance one tick of length `dt` ending at `now`: offer demand,
    /// allocate over the forwarding graph, and account the outcome.
    ///
    /// The tick is this ordered list of phases and nothing else
    /// (DESIGN.md §8 says what each may read and write). From `offer`
    /// on, the flow population is walked as per-site runs, and a run
    /// that offers nothing is skipped by every phase.
    pub fn tick(&mut self, now: SimTime, dt: SimDuration, view: &TopologyView) -> TickSummary {
        let (now_ms, dt_ms) = (now.as_ms(), dt.as_ms());
        let mut s = TickSummary {
            sites_with_path: view.paths.len(),
            ..TickSummary::default()
        };
        self.note_path_changes(view);
        s.topology_rebuilt = self.refresh_incidence(view);
        self.custody_arrivals(view, now_ms, &mut s);
        self.wipe_dead(view, &mut s);
        self.expire(now_ms, &mut s);
        self.offer(now, dt_ms, view, &mut s);
        self.allocate();
        self.account(now, dt_ms, &mut s);
        if self.config.store_forward.enabled && !self.snf.is_empty() {
            self.drain(now, dt_ms, view, &mut s);
            if self.config.store_forward.custody && !view.custody.is_empty() {
                self.extract_custody(dt_ms, view, &mut s);
            }
        }
        self.observe(now, view, &mut s);
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GS: PlatformId = PlatformId(100);
    const EC: PlatformId = PlatformId(101);

    fn engine(sites: &[PlatformId]) -> TrafficEngine {
        let config = TrafficConfig::default();
        TrafficEngine::new(config, sites, &RngStreams::new(11))
    }

    fn view_for(sites: &[PlatformId], cap_bps: u64) -> TopologyView {
        let mut v = TopologyView::default();
        for &s in sites {
            v.paths.insert(s, vec![s, GS, EC]);
            v.link_capacity_bps.insert(edge_key(s, GS), cap_bps);
            v.eligible.insert(s);
        }
        v
    }

    #[test]
    fn uncongested_tick_delivers_all_offered() {
        let sites = [PlatformId(0), PlatformId(1)];
        let mut e = engine(&sites);
        let view = view_for(&sites, 1_000_000_000);
        let s = e.tick(SimTime::from_hours(20), SimDuration::from_mins(1), &view);
        assert!(s.offered_bps > 0);
        assert_eq!(s.delivered_bps, s.offered_bps);
        assert_eq!(s.flows_active, e.demand().flows().len());
        assert!(s.topology_rebuilt);
        assert_eq!(e.series().overall(), Some(1.0));
    }

    #[test]
    fn congested_access_link_caps_goodput() {
        let sites = [PlatformId(0)];
        let mut e = engine(&sites);
        let view = view_for(&sites, 10_000_000); // 10 Mbps vs ~50 offered
        let s = e.tick(SimTime::from_hours(20), SimDuration::from_mins(1), &view);
        assert!(s.offered_bps > 10_000_000);
        assert!(s.delivered_bps <= 10_000_000);
        assert!(
            s.delivered_bps > 9_000_000,
            "link should run ~full: {}",
            s.delivered_bps
        );
        let g = e.series().overall().expect("offered");
        assert!(g < 0.5, "goodput should reflect the bottleneck: {g}");
    }

    #[test]
    fn ineligible_sites_offer_nothing() {
        let sites = [PlatformId(0)];
        let mut e = engine(&sites);
        let mut view = view_for(&sites, 1_000_000_000);
        view.eligible.clear(); // powered down
        let s = e.tick(SimTime::from_hours(2), SimDuration::from_mins(1), &view);
        assert_eq!(s.offered_bps, 0);
        assert_eq!(s.delivered_bps, 0);
        assert_eq!(
            e.series().overall(),
            None,
            "no offered bits, no goodput sample"
        );
    }

    #[test]
    fn pathless_eligible_site_counts_as_loss() {
        let sites = [PlatformId(0)];
        let mut e = engine(&sites);
        let mut view = view_for(&sites, 1_000_000_000);
        view.paths.clear(); // acquired but never provisioned
        let s = e.tick(SimTime::from_hours(20), SimDuration::from_mins(1), &view);
        assert!(s.offered_bps > 0);
        assert_eq!(s.delivered_bps, 0);
        assert_eq!(e.series().overall(), Some(0.0));
    }

    #[test]
    fn withdrawal_under_load_reports_disruption() {
        let sites = [PlatformId(0)];
        let mut e = engine(&sites);
        let view = view_for(&sites, 1_000_000_000);
        e.tick(SimTime::from_hours(20), SimDuration::from_mins(1), &view);
        assert_eq!(e.series().site_events(PlatformId(0)).disruptions, 0);
        // Path withdrawn while traffic was flowing.
        let mut gone = view.clone();
        gone.paths.clear();
        e.tick(SimTime::from_hours(20), SimDuration::from_mins(1), &gone);
        assert_eq!(e.series().site_events(PlatformId(0)).disruptions, 1);
        // Staying down does not re-count (no traffic was assigned).
        e.tick(SimTime::from_hours(20), SimDuration::from_mins(1), &gone);
        assert_eq!(e.series().site_events(PlatformId(0)).disruptions, 1);
    }

    #[test]
    fn path_change_reports_reroute_not_disruption() {
        let sites = [PlatformId(0)];
        let mut e = engine(&sites);
        let view = view_for(&sites, 1_000_000_000);
        e.tick(SimTime::from_hours(20), SimDuration::from_mins(1), &view);
        let mut moved = view.clone();
        let relay = PlatformId(7);
        moved
            .paths
            .insert(PlatformId(0), vec![PlatformId(0), relay, GS, EC]);
        moved
            .link_capacity_bps
            .insert(edge_key(PlatformId(0), relay), 1_000_000_000);
        moved
            .link_capacity_bps
            .insert(edge_key(relay, GS), 1_000_000_000);
        let s = e.tick(SimTime::from_hours(20), SimDuration::from_mins(1), &moved);
        assert!(s.topology_rebuilt);
        let ev = e.series().site_events(PlatformId(0));
        assert_eq!(ev.reroutes, 1);
        assert_eq!(ev.disruptions, 0);
    }

    #[test]
    fn capacity_only_ticks_skip_topology_rebuild() {
        let sites = [PlatformId(0), PlatformId(1)];
        let mut e = engine(&sites);
        let view = view_for(&sites, 1_000_000_000);
        assert!(
            e.tick(SimTime::from_hours(19), SimDuration::from_mins(1), &view)
                .topology_rebuilt
        );
        // Weather fade: same paths, lower capacity.
        let faded = view_for(&sites, 50_000_000);
        let s = e.tick(SimTime::from_hours(20), SimDuration::from_mins(1), &faded);
        assert!(
            !s.topology_rebuilt,
            "capacity change must not rebuild incidence"
        );
        assert!(s.delivered_bps < s.offered_bps);
    }

    #[test]
    fn demand_digest_tracks_offered_load() {
        let sites = [PlatformId(0)];
        let mut e = engine(&sites);
        assert_eq!(e.demand_weight_bps(PlatformId(0)), None);
        let view = view_for(&sites, 1_000_000_000);
        let s = e.tick(SimTime::from_hours(20), SimDuration::from_mins(1), &view);
        // First sample seeds the EWMA directly.
        assert_eq!(e.demand_weight_bps(PlatformId(0)), Some(s.offered_bps));
        // Off-peak ticks pull the digest down, but smoothly.
        let s2 = e.tick(SimTime::from_hours(32), SimDuration::from_mins(1), &view);
        let w = e.demand_weight_bps(PlatformId(0)).expect("seeded");
        assert!(
            w < s.offered_bps && w > s2.offered_bps,
            "EWMA between peak and trough"
        );
    }

    #[test]
    fn multipath_split_uses_both_paths() {
        let sites = [PlatformId(0)];
        let mut e = engine(&sites);
        let gs2 = PlatformId(102);
        // Primary bottlenecked at 10 Mbps; a second established route
        // through gs2 adds another 10 Mbps of headroom.
        let mut view = view_for(&sites, 10_000_000);
        view.alt_paths
            .insert(PlatformId(0), vec![PlatformId(0), gs2, EC]);
        view.link_capacity_bps
            .insert(edge_key(PlatformId(0), gs2), 10_000_000);
        let s = e.tick(SimTime::from_hours(20), SimDuration::from_mins(1), &view);
        assert_eq!(s.multipath_sites, 1);
        assert!(
            s.offered_bps > 20_000_000,
            "peak load exceeds both paths: {}",
            s.offered_bps
        );
        assert!(
            s.delivered_bps > 19_000_000 && s.delivered_bps <= 20_000_000,
            "two 10 Mbps paths should carry ~20 Mbps, got {}",
            s.delivered_bps
        );
    }

    #[test]
    fn control_class_rides_out_congestion() {
        use tssdn_telemetry::ServiceClass;
        let sites = [PlatformId(0)];
        let mut e = engine(&sites);
        // 2 Mbps of capacity against ~50 Mbps of peak bulk demand:
        // the strict-priority control flow still gets every bit.
        let view = view_for(&sites, 2_000_000);
        e.tick(SimTime::from_hours(20), SimDuration::from_mins(1), &view);
        assert_eq!(e.series().class_goodput(ServiceClass::Control), Some(1.0));
        let bulk = e
            .series()
            .class_goodput(ServiceClass::Bulk)
            .expect("bulk offered");
        assert!(
            bulk < 0.1,
            "bulk should be starved at the bottleneck: {bulk}"
        );
    }

    #[test]
    fn routeless_bulk_bits_buffer_and_drain_on_recovery() {
        let sites = [PlatformId(0)];
        let mut e = engine(&sites);
        let view = view_for(&sites, 1_000_000_000);
        // Outage tick: eligible, no route. Bulk buffers; Control
        // never does.
        let mut dark = view.clone();
        dark.paths.clear();
        let s = e.tick(SimTime::from_hours(20), SimDuration::from_mins(1), &dark);
        assert!(s.snf_queued_bits > 0, "bulk queued during the outage");
        assert_eq!(s.snf_drained_bits, 0);
        assert_eq!(s.snf_buffered_bits, s.snf_queued_bits - s.snf_evicted_bits);
        for (f, flow) in e.demand().flows().iter().enumerate() {
            if flow.class == TrafficClass::Control {
                assert_eq!(
                    e.flow_stats()[f].buffered_bits,
                    0,
                    "control flow {f} must never buffer"
                );
            }
        }
        // Recovery tick: the route is back and the fat access link
        // has headroom — everything buffered drains, with a positive
        // age-of-delivery.
        let s2 = e.tick(
            SimTime::from_hours(20) + SimDuration::from_mins(1),
            SimDuration::from_mins(1),
            &view,
        );
        assert_eq!(s2.snf_drained_bits, s.snf_buffered_bits);
        assert_eq!(s2.snf_buffered_bits, 0);
        let totals = e.snf_totals();
        assert_eq!(
            totals.queued_bits,
            totals.drained_bits + totals.evicted_bits + totals.buffered_bits
        );
        let buf = e.series().site_buffer(PlatformId(0));
        assert!(buf.mean_age_ms().expect("drained") >= 60_000.0 - 1.0);
        // Drained bits were offered in the outage tick, so delivery
        // catches back up cumulatively without ever exceeding offered.
        assert!(e.series().delivered_bits() <= e.series().offered_bits());
        assert!(
            e.series().overall().expect("offered") > 0.5,
            "buffered bits recovered most of the outage loss"
        );
    }

    #[test]
    fn buffering_off_restores_drop_on_miss() {
        let sites = [PlatformId(0)];
        let mut config = TrafficConfig::default();
        config.store_forward.enabled = false;
        let mut e = TrafficEngine::new(config, &sites, &RngStreams::new(11));
        let mut dark = view_for(&sites, 1_000_000_000);
        dark.paths.clear();
        let s = e.tick(SimTime::from_hours(20), SimDuration::from_mins(1), &dark);
        assert_eq!(s.snf_queued_bits, 0);
        assert_eq!(s.snf_buffered_bits, 0);
        assert_eq!(e.snf_totals(), SnfTotals::default());
    }

    #[test]
    fn buffered_bits_age_out_and_never_deliver() {
        let sites = [PlatformId(0)];
        let mut config = TrafficConfig::default();
        config.store_forward.max_age_ms = 5 * 60 * 1000; // 5 min
        let mut e = TrafficEngine::new(config, &sites, &RngStreams::new(11));
        let view = view_for(&sites, 1_000_000_000);
        let mut dark = view.clone();
        dark.paths.clear();
        let s = e.tick(SimTime::from_hours(20), SimDuration::from_mins(1), &dark);
        assert!(s.snf_queued_bits > 0);
        // The route returns only after the age bound has passed.
        let s2 = e.tick(
            SimTime::from_hours(20) + SimDuration::from_mins(10),
            SimDuration::from_mins(1),
            &view,
        );
        assert_eq!(s2.snf_drained_bits, 0, "aged bits must not deliver");
        assert_eq!(s2.snf_evicted_bits, s.snf_buffered_bits);
        assert_eq!(s2.snf_buffered_bits, 0);
        let totals = e.snf_totals();
        assert_eq!(totals.queued_bits, totals.evicted_bits);
        assert_eq!(totals.drained_bits, 0);
    }

    #[test]
    fn drain_yields_to_live_traffic() {
        let sites = [PlatformId(0)];
        let mut e = engine(&sites);
        // Saturated 10 Mbps access link: the allocator fills it with
        // live traffic at peak, so a backlog cannot drain.
        let view = view_for(&sites, 10_000_000);
        let mut dark = view.clone();
        dark.paths.clear();
        let s = e.tick(SimTime::from_hours(20), SimDuration::from_mins(1), &dark);
        assert!(s.snf_buffered_bits > 0);
        let s2 = e.tick(
            SimTime::from_hours(20) + SimDuration::from_mins(1),
            SimDuration::from_mins(1),
            &view,
        );
        assert!(
            s2.delivered_bps >= 9_000_000,
            "live traffic fills the link: {}",
            s2.delivered_bps
        );
        assert!(
            s2.snf_drained_bits < s.snf_buffered_bits / 2,
            "backlog must wait behind live traffic: drained {} of {}",
            s2.snf_drained_bits,
            s.snf_buffered_bits
        );
        // Once the fade lifts, the same path has headroom and the
        // backlog moves (capacity-only change: no topology rebuild).
        let clear = view_for(&sites, 1_000_000_000);
        let s3 = e.tick(
            SimTime::from_hours(20) + SimDuration::from_mins(2),
            SimDuration::from_mins(1),
            &clear,
        );
        assert!(!s3.topology_rebuilt);
        assert!(s3.snf_drained_bits > 0, "headroom drains the backlog");
    }

    #[test]
    fn control_class_is_not_charged_while_routeless() {
        use tssdn_telemetry::ServiceClass;
        let sites = [PlatformId(0)];
        let mut e = engine(&sites);
        let view = view_for(&sites, 1_000_000_000);
        e.tick(SimTime::from_hours(20), SimDuration::from_mins(1), &view);
        // Route flap: control bits offered during the gap are an
        // availability loss, not a class-priority failure.
        let mut dark = view.clone();
        dark.paths.clear();
        e.tick(SimTime::from_hours(20), SimDuration::from_mins(1), &dark);
        e.tick(SimTime::from_hours(20), SimDuration::from_mins(1), &view);
        assert_eq!(
            e.series().class_goodput(ServiceClass::Control),
            Some(1.0),
            "routed control bits all delivered, routeless ones uncharged"
        );
        // The site series still shows the loss.
        assert!(e.series().site_goodput(PlatformId(0)).expect("offered") < 1.0);
    }

    /// Build a backlog on site 0 (eligible, routeless), then hand it
    /// to `custodian` over a dedicated lateral link and kill site 0.
    /// Returns the engine after the handoff-and-death tick.
    fn engine_with_custody_handoff(custodian: PlatformId) -> (TrafficEngine, TickSummary) {
        let sites = [PlatformId(0)];
        let mut e = engine(&sites);
        let mut dark = view_for(&sites, 1_000_000_000);
        dark.paths.clear();
        let t0 = SimTime::from_hours(20);
        let s = e.tick(t0, SimDuration::from_mins(1), &dark);
        assert!(s.snf_buffered_bits > 0, "outage tick builds a backlog");
        // Loss warning: the orchestrator designates a custodian and
        // the doomed holder pushes its backlog over the lateral link.
        let mut doomed = dark.clone();
        doomed.custody.insert(PlatformId(0), custodian);
        doomed
            .link_capacity_bps
            .insert(edge_key(PlatformId(0), custodian), 1_000_000_000);
        let s1 = e.tick(
            t0 + SimDuration::from_mins(1),
            SimDuration::from_mins(1),
            &doomed,
        );
        // The handoff tick queues one more minute of bulk before
        // extracting, so the whole pre-extraction backlog rides out.
        assert_eq!(
            s1.custody_initiated_bits,
            s.snf_buffered_bits + s1.snf_queued_bits - s1.snf_evicted_bits
        );
        assert_eq!(s1.snf_in_transit_bits, s1.custody_initiated_bits);
        assert_eq!(s1.snf_buffered_bits, 0, "the holder pushed everything");
        // The balloon dies with the bits in transit; its own buffer
        // is already empty so the wipe loses nothing.
        let mut gone = dark.clone();
        gone.dead.insert(PlatformId(0));
        let s2 = e.tick(
            t0 + SimDuration::from_mins(2),
            SimDuration::from_mins(1),
            &gone,
        );
        assert_eq!(s2.snf_backlog_lost_bits, 0);
        (e, s2)
    }

    #[test]
    fn custody_transfer_rescues_backlog_from_doomed_holder() {
        let custodian = PlatformId(9);
        let (mut e, s2) = engine_with_custody_handoff(custodian);
        assert!(s2.custody_accepted_bits > 0, "custodian took the bits");
        assert_eq!(s2.custody_refused_bits, 0);
        assert_eq!(s2.custody_lost_bits, 0);
        // The custodian gets routed; the rescued bits drain and are
        // credited to their *origin* site, not the custodian.
        let mut routed = TopologyView::default();
        routed.paths.insert(custodian, vec![custodian, GS, EC]);
        routed
            .link_capacity_bps
            .insert(edge_key(custodian, GS), 1_000_000_000);
        routed.eligible.insert(custodian);
        routed.dead.insert(PlatformId(0));
        let s3 = e.tick(
            SimTime::from_hours(20) + SimDuration::from_mins(3),
            SimDuration::from_mins(1),
            &routed,
        );
        assert_eq!(s3.snf_drained_bits, s2.custody_accepted_bits);
        let totals = e.snf_totals();
        assert_eq!(
            totals.queued_bits,
            totals.drained_bits + totals.evicted_bits
        );
        assert_eq!(totals.backlog_lost_bits, 0);
        let origin = e.series().site_buffer(PlatformId(0));
        assert_eq!(
            origin.drained_bits, s3.snf_drained_bits,
            "drains credit the origin site"
        );
        assert_eq!(e.series().site_buffer(custodian).drained_bits, 0);
        assert_eq!(e.series().custody().accepted_bits, s2.custody_accepted_bits);
    }

    #[test]
    fn without_custody_the_backlog_dies_with_the_balloon() {
        let sites = [PlatformId(0)];
        let mut config = TrafficConfig::default();
        config.store_forward.custody = false;
        let mut e = TrafficEngine::new(config, &sites, &RngStreams::new(11));
        let mut dark = view_for(&sites, 1_000_000_000);
        dark.paths.clear();
        let t0 = SimTime::from_hours(20);
        let s = e.tick(t0, SimDuration::from_mins(1), &dark);
        assert!(s.snf_buffered_bits > 0);
        // Even with a designation on the view, custody-off ignores it.
        let mut doomed = dark.clone();
        doomed.custody.insert(PlatformId(0), PlatformId(9));
        doomed
            .link_capacity_bps
            .insert(edge_key(PlatformId(0), PlatformId(9)), 1_000_000_000);
        let s1 = e.tick(
            t0 + SimDuration::from_mins(1),
            SimDuration::from_mins(1),
            &doomed,
        );
        assert_eq!(s1.custody_initiated_bits, 0);
        let mut gone = dark.clone();
        gone.dead.insert(PlatformId(0));
        let s2 = e.tick(
            t0 + SimDuration::from_mins(2),
            SimDuration::from_mins(1),
            &gone,
        );
        assert_eq!(s2.snf_backlog_lost_bits, s1.snf_buffered_bits);
        let totals = e.snf_totals();
        assert_eq!(totals.backlog_lost_bits, s2.snf_backlog_lost_bits);
        assert_eq!(
            totals.queued_bits,
            totals.drained_bits + totals.evicted_bits
        );
        assert_eq!(
            e.series().custody().backlog_lost_bits,
            s2.snf_backlog_lost_bits
        );
    }

    #[test]
    fn custodian_refuses_what_it_cannot_hold() {
        let sites = [PlatformId(0)];
        let mut config = TrafficConfig::default();
        // Tiny buffers: the custodian can only hold 1 KB = 8 kbit.
        config.store_forward.max_bytes = 1_000;
        let mut e = TrafficEngine::new(config, &sites, &RngStreams::new(11));
        let mut dark = view_for(&sites, 1_000_000_000);
        dark.paths.clear();
        let t0 = SimTime::from_hours(20);
        let s = e.tick(t0, SimDuration::from_mins(1), &dark);
        assert!(s.snf_buffered_bits > 0);
        let mut doomed = dark.clone();
        doomed.custody.insert(PlatformId(0), PlatformId(9));
        doomed
            .link_capacity_bps
            .insert(edge_key(PlatformId(0), PlatformId(9)), 1_000_000_000);
        let s1 = e.tick(
            t0 + SimDuration::from_mins(1),
            SimDuration::from_mins(1),
            &doomed,
        );
        assert!(s1.custody_initiated_bits > 0);
        // Seed the custodian with its own full backlog so nothing fits.
        let mut seeded = StoreForwardBuffer::new(1_000, config.store_forward.max_age_ms);
        seeded.enqueue_run(t0.as_ms(), 999, [8_000]);
        e.snf.insert(PlatformId(9), seeded);
        let s2 = e.tick(
            t0 + SimDuration::from_mins(2),
            SimDuration::from_mins(1),
            &dark,
        );
        assert_eq!(s2.custody_accepted_bits, 0);
        assert_eq!(s2.custody_refused_bits, s1.custody_initiated_bits);
        // Refused bits fold into the fleet eviction ledger; the
        // invariant still balances (the seeded queue adds 8 kbit to
        // both sides as resident).
        let totals = e.snf_totals();
        assert_eq!(
            totals.queued_bits,
            totals.drained_bits + totals.evicted_bits + totals.buffered_bits
        );
    }

    #[test]
    fn bits_in_transit_to_a_dead_custodian_are_lost() {
        let custodian = PlatformId(9);
        let sites = [PlatformId(0)];
        let mut e = engine(&sites);
        let mut dark = view_for(&sites, 1_000_000_000);
        dark.paths.clear();
        let t0 = SimTime::from_hours(20);
        let s = e.tick(t0, SimDuration::from_mins(1), &dark);
        let mut doomed = dark.clone();
        doomed.custody.insert(PlatformId(0), custodian);
        doomed
            .link_capacity_bps
            .insert(edge_key(PlatformId(0), custodian), 1_000_000_000);
        let s1 = e.tick(
            t0 + SimDuration::from_mins(1),
            SimDuration::from_mins(1),
            &doomed,
        );
        assert!(s1.snf_in_transit_bits >= s.snf_buffered_bits);
        // Both ends die before the handoff lands.
        let mut gone = dark.clone();
        gone.dead.insert(PlatformId(0));
        gone.dead.insert(custodian);
        let s2 = e.tick(
            t0 + SimDuration::from_mins(2),
            SimDuration::from_mins(1),
            &gone,
        );
        assert_eq!(s2.custody_lost_bits, s1.snf_in_transit_bits);
        assert_eq!(s2.custody_accepted_bits, 0);
        assert_eq!(s2.snf_in_transit_bits, 0);
        let totals = e.snf_totals();
        assert_eq!(totals.custody_lost_bits, s2.custody_lost_bits);
        assert_eq!(
            totals.queued_bits,
            totals.drained_bits + totals.evicted_bits
        );
        assert_eq!(e.series().custody().lost_bits, s2.custody_lost_bits);
    }

    #[test]
    fn occupancy_series_tracks_backlog_per_tick() {
        let sites = [PlatformId(0)];
        let mut e = engine(&sites);
        let view = view_for(&sites, 1_000_000_000);
        let mut dark = view.clone();
        dark.paths.clear();
        let t0 = SimTime::from_hours(20);
        let s = e.tick(t0, SimDuration::from_mins(1), &dark);
        e.tick(
            t0 + SimDuration::from_mins(1),
            SimDuration::from_mins(1),
            &dark,
        );
        let occ = e.series().site_occupancy(PlatformId(0)).to_vec();
        assert_eq!(occ.len(), 2, "one sample per outage tick");
        assert_eq!(occ[0].resident_bits, s.snf_buffered_bits);
        assert!(occ[1].resident_bits >= occ[0].resident_bits);
        assert!(
            occ[1].oldest_age_ms >= 60_000,
            "oldest chunk ages across ticks: {}",
            occ[1].oldest_age_ms
        );
        // Drain tick empties the buffer: empty buffers record no
        // sample, so the series length freezes.
        e.tick(
            t0 + SimDuration::from_mins(2),
            SimDuration::from_mins(1),
            &view,
        );
        assert_eq!(e.series().site_occupancy(PlatformId(0)).len(), 2);
        let peak = e.series().peak_occupancy(PlatformId(0)).expect("samples");
        assert_eq!(peak.resident_bits, occ[1].resident_bits);
    }

    #[test]
    fn all_ineligible_tick_touches_nothing_and_skips_the_allocator() {
        let sites = [PlatformId(0), PlatformId(1)];
        let mut e = engine(&sites);
        let mut view = view_for(&sites, 1_000_000_000);
        view.eligible.clear(); // night
        let t = SimTime::from_hours(2);
        let s = e.tick(t, SimDuration::from_mins(1), &view);
        // The incidence is still rebuilt for the new paths, exactly as
        // a daytime first tick would; everything else is zero.
        let idle = TickSummary {
            sites_with_path: 2,
            topology_rebuilt: true,
            ..TickSummary::default()
        };
        assert_eq!(s, idle);
        let s2 = e.tick(t, SimDuration::from_mins(1), &view);
        assert_eq!(
            s2,
            TickSummary {
                topology_rebuilt: false,
                ..idle
            }
        );
        assert!(e.flow_stats().iter().all(|f| *f == FlowStats::default()));
        assert!(e.series().sites().is_empty() && e.series().classes().is_empty());
        assert!(e.rates.is_empty(), "the allocator never ran");
    }

    #[test]
    fn routeless_site_enqueues_one_chunk_per_bulk_flow_in_flow_order() {
        // Handed over out of order: the buffer still fills in ascending
        // flow index, which is construction order, not site order.
        let sites = [PlatformId(5), PlatformId(2)];
        let mut e = engine(&sites);
        let mut dark = view_for(&sites, 1_000_000_000);
        dark.paths.clear();
        e.tick(SimTime::from_hours(20), SimDuration::from_mins(1), &dark);
        for run in e.demand().runs().to_vec() {
            let buf = e.snf.get_mut(&run.site).expect("site buffered");
            let segments = buf.extract_segments(u64::MAX);
            let queued: Vec<u32> = segments
                .iter()
                .flat_map(|s| s.chunks())
                .map(|c| c.0)
                .collect();
            let bulk: Vec<u32> = (run.first..run.bulk_end).collect();
            assert_eq!(queued, bulk, "site {}", run.site);
        }
    }

    #[test]
    fn a_routeless_window_costs_a_slot_per_flow_per_tick_under_the_age_bound() {
        // The byte bound does not limit what a buffer costs in
        // metadata; the age bound and the tick do. Lift the byte bound
        // out of the way and pin the other.
        let sites = [PlatformId(0), PlatformId(1)];
        let mut config = TrafficConfig::default();
        config.demand.flows_per_site = 2_000;
        config.store_forward.max_bytes = u64::MAX;
        config.tunnel_capacity_bps = 1_000_000_000_000;
        let mut e = TrafficEngine::new(config, &sites, &RngStreams::new(11));
        let view = view_for(&sites, config.tunnel_capacity_bps);
        let mut dark = view.clone();
        dark.paths.clear();
        let tick = SimDuration::from_secs(10);
        let max_age_ticks = config.store_forward.max_age_ms.div_ceil(tick.as_ms()) as usize;
        let bound = 2_000 * max_age_ticks;
        let mut now = SimTime::from_hours(20);
        for _ in 0..max_age_ticks + 30 {
            e.tick(now, tick, &dark);
            now += tick;
            for buf in e.snf.values() {
                let (segments, slots) = buf.census();
                assert!(segments <= max_age_ticks && slots <= bound);
            }
        }
        for site in sites {
            assert_eq!(e.snf[&site].census(), (max_age_ticks, bound));
        }
        // The route comes back with room for the whole backlog.
        let s = e.tick(now, tick, &view);
        assert!(s.snf_drained_bits > 0);
        assert_eq!(s.snf_buffered_bits, 0);
        for site in sites {
            assert_eq!(e.snf[&site].census(), (0, 0));
        }
    }

    #[test]
    fn duplicated_site_merges_into_one_series_row() {
        let twice = [PlatformId(3), PlatformId(3)];
        let mut e = engine(&twice);
        assert_eq!(e.demand().runs().len(), 2);
        let view = view_for(&twice[..1], 1_000_000_000);
        let s = e.tick(SimTime::from_hours(20), SimDuration::from_mins(1), &view);
        assert_eq!(e.series().sites(), vec![PlatformId(3)]);
        // One `record` and one digest sample for the site, carrying
        // both runs: the EWMA's first sample seeds it directly.
        assert_eq!(e.demand_weight_bps(PlatformId(3)), Some(s.offered_bps));
        assert_eq!(e.series().offered_bits(), s.offered_bps * 60);
        assert_eq!(s.flows_active, e.demand().flows().len());
    }

    #[test]
    fn ticks_are_deterministic_for_a_seed() {
        let sites = [PlatformId(0), PlatformId(1), PlatformId(2)];
        let run = || {
            let mut e = TrafficEngine::new(TrafficConfig::default(), &sites, &RngStreams::new(42));
            let mut out = Vec::new();
            for h in 0..48u64 {
                let cap = if h % 7 == 0 { 20_000_000 } else { 400_000_000 };
                let view = view_for(&sites, cap);
                out.push(e.tick(SimTime::from_hours(h), SimDuration::from_hours(1), &view));
            }
            (out, e.series().offered_bits(), e.series().delivered_bits())
        };
        assert_eq!(run(), run());
    }
}
