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
//!
//! Three parts own the state (DESIGN.md §8): `incidence`, `backlog`
//! and `accounting`; the tick hands each what it reads of the others.

use std::collections::{BTreeMap, BTreeSet};
use tssdn_sim::{PlatformId, RngStreams, SimDuration, SimTime};
use tssdn_telemetry::GoodputSeries;

use crate::demand::{DemandConfig, DemandGenerator, SiteRun};

mod accounting;
mod backlog;
mod incidence;
#[cfg(test)]
mod tests;

use accounting::Accounting;
pub use accounting::{FEEDBACK_ALPHA, GOODPUT_WINDOW_MS};
use backlog::Backlog;
use incidence::Incidence;

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
    /// Delay-tolerant buffering for routeless Bulk traffic.
    pub store_forward: StoreForwardConfig,
}

impl Default for TrafficConfig {
    fn default() -> Self {
        TrafficConfig {
            demand: DemandConfig::default(),
            tunnel_capacity_bps: 10_000_000_000,
            feedback: true,
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

impl SnfTotals {
    /// The store-and-forward ledger closes: every queued bit was
    /// drained, evicted, is resident, or rides a custody handoff.
    pub fn conserved(&self) -> bool {
        self.queued_bits
            == self.drained_bits + self.evicted_bits + self.buffered_bits + self.in_transit_bits
    }

    /// The custody ledger closes: every handed-off bit was accepted,
    /// refused, lost with its custodian, or is still in transit.
    pub fn custody_balanced(&self) -> bool {
        self.custody_initiated_bits
            == self.custody_accepted_bits
                + self.custody_refused_bits
                + self.custody_lost_bits
                + self.in_transit_bits
    }
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
    /// The run's site's rank among the distinct served sites.
    acc: usize,
    /// Allocator index of the alternate-path subflow of the run's
    /// first bulk flow, when the site is dual-path in the cached
    /// incidence; bulk flow `run.first + i` splits onto `alt_first + i`.
    alt_first: Option<u32>,
    /// The aggregates of the run's flows in the cached incidence,
    /// indexed by `TrafficClass as usize`, then its alt subflows' at
    /// [`ALT`].
    agg: [u32; 3],
}

/// Where [`SiteSlot::agg`] keeps the alternate-path aggregate.
const ALT: usize = 2;

/// What one run did this tick. A run that is not `offering` is skipped
/// by every later step: its flows offered nothing, so their demands —
/// and, because an allocator never grants more than the demand, their
/// rates — are zero, and every statement skipped would have added 0.
#[derive(Debug, Default, Clone, Copy)]
struct RunTick {
    /// Eligible, alive, and some flow offered a non-zero load.
    offering: bool,
    /// The site has a programmed path (only read when `offering`).
    routed: bool,
    /// Some dual-path bulk flow of the run offered load.
    multipath: bool,
    /// Σ allocated rate over the run's flows on the primary path, bps.
    rate_primary: u64,
    /// Σ allocated rate over the run's alternate-path subflows, bps.
    rate_alt: u64,
}

/// The accounting's two ledgers, lent to the part that moves bits.
struct Sinks<'a> {
    flow_stats: &'a mut [FlowStats],
    series: &'a mut GoodputSeries,
}

/// Deterministic flow-level traffic engine.
#[derive(Debug)]
pub struct TrafficEngine {
    config: TrafficConfig,
    demand: DemandGenerator,
    incidence: Incidence,
    backlog: Backlog,
    accounting: Accounting,
    /// What each demand run did this tick.
    runs: Vec<RunTick>,
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
                agg: [0; 3],
            })
            .collect();
        TrafficEngine {
            runs: vec![RunTick::default(); slots.len()],
            incidence: Incidence::new(slots, config.tunnel_capacity_bps),
            backlog: Backlog::new(config.store_forward),
            accounting: Accounting::new(site_ids, n_flows),
            config,
            demand,
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
        self.accounting.series()
    }

    /// Lifetime per-flow totals, in `FlowId` order.
    pub fn flow_stats(&self) -> &[FlowStats] {
        self.accounting.flow_stats()
    }

    /// The demand digest for a site: EWMA of its measured offered
    /// load, bps. `None` until the site has offered traffic.
    pub fn demand_weight_bps(&self, site: PlatformId) -> Option<u64> {
        self.accounting.demand_weight_bps(site)
    }

    /// Aggregate-ticks so far granted strictly between nothing and
    /// their demand: the only ones water-filled member by member.
    pub fn partial_grants(&self) -> u64 {
        self.incidence.partial_grants()
    }

    /// Lifetime store-and-forward and custody totals; both ledger laws
    /// hold at every tick boundary.
    pub fn snf_totals(&self) -> SnfTotals {
        self.backlog.totals(self.series().custody())
    }

    /// Advance one tick of length `dt` ending at `now`: offer demand,
    /// allocate over the forwarding graph, and account the outcome —
    /// this list of calls and nothing else (DESIGN.md §8). `offer` and
    /// `account` are the tick's two walks over the flows; from `offer`
    /// on, a run that offers nothing is skipped by every step.
    pub fn tick(&mut self, now: SimTime, dt: SimDuration, view: &TopologyView) -> TickSummary {
        let (now_ms, dt_ms) = (now.as_ms(), dt.as_ms());
        let mut s = TickSummary {
            sites_with_path: view.paths.len(),
            ..TickSummary::default()
        };
        self.accounting.note_path_changes(view);
        s.topology_rebuilt = self.incidence.refresh(view, self.demand.flows());
        let series = self.accounting.sinks().series;
        self.backlog.custody_arrivals(view, now_ms, series, &mut s);
        self.backlog.wipe_dead(view, series, &mut s);
        self.backlog.expire(now_ms, series, &mut s);
        self.offer(now, view);
        let (inc, acc, backlog) = (&mut self.incidence, &mut self.accounting, &mut self.backlog);
        let (sf, flows) = (self.config.store_forward, self.demand.flows());
        inc.allocate();
        let backlog_on = sf.enabled.then_some(&mut *backlog);
        acc.account(now, dt_ms, inc, &mut self.runs, backlog_on, &mut s);
        if sf.enabled && !backlog.is_empty() {
            inc.residuals_after_live(&self.runs, dt_ms);
            backlog.drain(now, view, inc, flows, acc.sinks(), &mut s);
            if sf.custody && !view.custody.is_empty() {
                backlog.extract_custody(view, inc, acc.sinks().series, &mut s);
            }
        }
        if sf.enabled {
            backlog.record_occupancy(now, acc.sinks().series);
        }
        let t = self.snf_totals();
        (s.snf_buffered_bits, s.snf_in_transit_bits) = (t.buffered_bits, t.in_transit_bits);
        // Both ledgers close at every tick boundary.
        debug_assert!(t.conserved(), "snf conservation violated at t={now}: {t:?}");
        debug_assert!(t.custody_balanced(), "custody unbalanced at t={now}: {t:?}");
        s
    }

    /// Pass 1, run by run: offered load, its allocator demand and the
    /// aggregate sums. An ineligible or dead site offers nothing; a
    /// routeless one offers (counted against goodput, its bulk bits
    /// queued in pass 2); a routed one demands what it offers, split
    /// over two paths if it has two.
    fn offer(&mut self, now: SimTime, view: &TopologyView) {
        let factor = self.demand.load_factor(now);
        let control = self.demand.config().control_bps_per_site;
        for (k, run) in self.demand.runs().iter().enumerate() {
            let rt = &mut self.runs[k];
            *rt = RunTick::default();
            if !view.eligible.contains(&run.site) || view.dead.contains(&run.site) {
                continue;
            }
            let routed = view.paths.contains_key(&run.site);
            let bulk = self.demand.offer_run(run, factor);
            let (offering, multipath) = self.incidence.demand_run(k, routed, bulk, control);
            *rt = RunTick {
                offering,
                routed,
                multipath,
                ..RunTick::default()
            };
        }
    }
}
