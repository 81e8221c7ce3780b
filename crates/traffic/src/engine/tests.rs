//! Whole-tick tests: an engine over hand-built views. A test of one
//! part alone sits in that part's module.

use super::*;
use crate::allocator::TrafficClass;
use tssdn_dataplane::StoreForwardBuffer;
use tssdn_telemetry::ServiceClass;

const GS: PlatformId = PlatformId(100);
const EC: PlatformId = PlatformId(101);
const S0: PlatformId = PlatformId(0);
const GBPS: u64 = 1_000_000_000;

fn engine(sites: &[PlatformId]) -> TrafficEngine {
    engine_with(TrafficConfig::default(), sites)
}

fn engine_with(config: TrafficConfig, sites: &[PlatformId]) -> TrafficEngine {
    TrafficEngine::new(config, sites, &RngStreams::new(11))
}

/// An engine over site 0 whose store-and-forward config `edit` sets.
fn snf_engine(edit: impl FnOnce(&mut StoreForwardConfig)) -> TrafficEngine {
    let mut config = TrafficConfig::default();
    edit(&mut config.store_forward);
    engine_with(config, &[S0])
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

/// `view` with every programmed path withdrawn.
fn dark(view: &TopologyView) -> TopologyView {
    let mut v = view.clone();
    v.paths.clear();
    v
}

fn minute() -> SimDuration {
    SimDuration::from_mins(1)
}

/// `k` minutes past 20:00, the diurnal peak.
fn at(k: u64) -> SimTime {
    SimTime::from_hours(20) + SimDuration::from_mins(k)
}

#[test]
fn uncongested_tick_delivers_all_offered() {
    let sites = [S0, PlatformId(1)];
    let mut e = engine(&sites);
    let s = e.tick(at(0), minute(), &view_for(&sites, GBPS));
    assert!(s.offered_bps > 0 && s.topology_rebuilt);
    assert_eq!(s.delivered_bps, s.offered_bps);
    assert_eq!(s.flows_active, e.demand().flows().len());
    assert_eq!(e.series().overall(), Some(1.0));
}

#[test]
fn congested_access_link_caps_goodput() {
    let mut e = engine(&[S0]);
    let view = view_for(&[S0], 10_000_000); // 10 Mbps vs ~50 offered
    let s = e.tick(at(0), minute(), &view);
    assert!(s.offered_bps > 10_000_000 && s.delivered_bps <= 10_000_000);
    let full = s.delivered_bps > 9_000_000;
    assert!(full, "link should run ~full: {}", s.delivered_bps);
    let g = e.series().overall().expect("offered");
    assert!(g < 0.5, "goodput should reflect the bottleneck: {g}");
}

#[test]
fn ineligible_sites_offer_nothing() {
    let mut e = engine(&[S0]);
    let mut view = view_for(&[S0], GBPS);
    view.eligible.clear(); // powered down
    let s = e.tick(SimTime::from_hours(2), minute(), &view);
    assert_eq!((s.offered_bps, s.delivered_bps), (0, 0));
    assert_eq!(e.series().overall(), None, "no goodput sample");
}

#[test]
fn pathless_eligible_site_counts_as_loss() {
    let mut e = engine(&[S0]);
    // Acquired but never provisioned.
    let s = e.tick(at(0), minute(), &dark(&view_for(&[S0], GBPS)));
    assert!(s.offered_bps > 0);
    assert_eq!(s.delivered_bps, 0);
    assert_eq!(e.series().overall(), Some(0.0));
}

#[test]
fn withdrawal_under_load_reports_disruption() {
    let mut e = engine(&[S0]);
    let view = view_for(&[S0], GBPS);
    e.tick(at(0), minute(), &view);
    assert_eq!(e.series().site_events(S0).disruptions, 0);
    // Path withdrawn while traffic was flowing.
    e.tick(at(0), minute(), &dark(&view));
    assert_eq!(e.series().site_events(S0).disruptions, 1);
    // Staying down does not re-count (no traffic was assigned).
    e.tick(at(0), minute(), &dark(&view));
    assert_eq!(e.series().site_events(S0).disruptions, 1);
}

#[test]
fn path_change_reports_reroute_not_disruption() {
    let mut e = engine(&[S0]);
    let view = view_for(&[S0], GBPS);
    e.tick(at(0), minute(), &view);
    let mut moved = view.clone();
    let relay = PlatformId(7);
    moved.paths.insert(S0, vec![S0, relay, GS, EC]);
    let caps = &mut moved.link_capacity_bps;
    caps.extend([(edge_key(S0, relay), GBPS), (edge_key(relay, GS), GBPS)]);
    let s = e.tick(at(0), minute(), &moved);
    assert!(s.topology_rebuilt);
    let ev = e.series().site_events(S0);
    assert_eq!((ev.reroutes, ev.disruptions), (1, 0));
}

#[test]
fn capacity_only_ticks_skip_topology_rebuild() {
    let sites = [S0, PlatformId(1)];
    let mut e = engine(&sites);
    let view = view_for(&sites, GBPS);
    let s = e.tick(SimTime::from_hours(19), minute(), &view);
    assert!(s.topology_rebuilt);
    // Weather fade: same paths, lower capacity.
    let s = e.tick(at(0), minute(), &view_for(&sites, 50_000_000));
    assert!(!s.topology_rebuilt, "capacity-only: no rebuild");
    assert!(s.delivered_bps < s.offered_bps);
}

#[test]
fn demand_digest_tracks_offered_load() {
    let mut e = engine(&[S0]);
    assert_eq!(e.demand_weight_bps(S0), None);
    let view = view_for(&[S0], GBPS);
    let s = e.tick(at(0), minute(), &view);
    // First sample seeds the EWMA directly.
    assert_eq!(e.demand_weight_bps(S0), Some(s.offered_bps));
    // Off-peak ticks pull the digest down, but smoothly.
    let s2 = e.tick(SimTime::from_hours(32), minute(), &view);
    let w = e.demand_weight_bps(S0).expect("seeded");
    let between = w < s.offered_bps && w > s2.offered_bps;
    assert!(between, "EWMA between peak and trough");
}

#[test]
fn multipath_split_uses_both_paths() {
    let mut e = engine(&[S0]);
    let gs2 = PlatformId(102);
    // Primary bottlenecked at 10 Mbps; the route via gs2 adds 10 more.
    let mut view = view_for(&[S0], 10_000_000);
    view.alt_paths.insert(S0, vec![S0, gs2, EC]);
    view.link_capacity_bps.insert(edge_key(S0, gs2), 10_000_000);
    let s = e.tick(at(0), minute(), &view);
    assert_eq!(s.multipath_sites, 1);
    let peak = s.offered_bps > 20_000_000;
    assert!(peak, "peak load exceeds both paths: {}", s.offered_bps);
    let both = s.delivered_bps > 19_000_000 && s.delivered_bps <= 20_000_000;
    let got = s.delivered_bps;
    assert!(both, "two 10 Mbps paths carry ~20 Mbps, got {got}");
}

#[test]
fn control_class_rides_out_congestion() {
    let mut e = engine(&[S0]);
    // 2 Mbps against ~50 Mbps of peak bulk: control gets every bit.
    e.tick(at(0), minute(), &view_for(&[S0], 2_000_000));
    assert_eq!(e.series().class_goodput(ServiceClass::Control), Some(1.0));
    let bulk = e.series().class_goodput(ServiceClass::Bulk);
    let bulk = bulk.expect("bulk offered");
    assert!(bulk < 0.1, "bulk starves at the bottleneck: {bulk}");
}

#[test]
fn routeless_bulk_bits_buffer_and_drain_on_recovery() {
    let mut e = engine(&[S0]);
    let view = view_for(&[S0], GBPS);
    // Outage tick: eligible, no route. Bulk buffers; Control never does.
    let s = e.tick(at(0), minute(), &dark(&view));
    assert!(s.snf_queued_bits > 0, "bulk queued during the outage");
    assert_eq!(s.snf_drained_bits, 0);
    assert_eq!(s.snf_buffered_bits, s.snf_queued_bits - s.snf_evicted_bits);
    for (f, flow) in e.demand().flows().iter().enumerate() {
        let control = flow.class == TrafficClass::Control;
        let buffered = e.flow_stats()[f].buffered_bits;
        assert!(!control || buffered == 0, "control flow {f} buffered");
    }
    // Recovery tick: the route is back with headroom — everything
    // buffered drains, with a positive age-of-delivery.
    let s2 = e.tick(at(1), minute(), &view);
    assert_eq!(s2.snf_drained_bits, s.snf_buffered_bits);
    assert_eq!(s2.snf_buffered_bits, 0);
    let t = e.snf_totals();
    assert!(t.conserved() && t.in_transit_bits == 0, "{t:?}");
    let buf = e.series().site_buffer(S0);
    assert!(buf.mean_age_ms().expect("drained") >= 60_000.0 - 1.0);
    // Drained bits were offered in the outage tick, so delivery
    // catches back up cumulatively without ever exceeding offered.
    assert!(e.series().delivered_bits() <= e.series().offered_bits());
    let recovered = e.series().overall().expect("offered") > 0.5;
    assert!(recovered, "buffered bits recovered most of the outage loss");
}

#[test]
fn buffering_off_restores_drop_on_miss() {
    let mut e = snf_engine(|sf| sf.enabled = false);
    let s = e.tick(at(0), minute(), &dark(&view_for(&[S0], GBPS)));
    assert_eq!((s.snf_queued_bits, s.snf_buffered_bits), (0, 0));
    assert_eq!(e.snf_totals(), SnfTotals::default());
}

#[test]
fn buffered_bits_age_out_and_never_deliver() {
    let mut e = snf_engine(|sf| sf.max_age_ms = 5 * 60 * 1000); // 5 min
    let view = view_for(&[S0], GBPS);
    let s = e.tick(at(0), minute(), &dark(&view));
    assert!(s.snf_queued_bits > 0);
    // The route returns only after the age bound has passed.
    let s2 = e.tick(at(10), minute(), &view);
    assert_eq!(s2.snf_drained_bits, 0, "aged bits must not deliver");
    assert_eq!(s2.snf_evicted_bits, s.snf_buffered_bits);
    assert_eq!(s2.snf_buffered_bits, 0);
    let t = e.snf_totals();
    assert_eq!((t.queued_bits, t.drained_bits), (t.evicted_bits, 0));
}

#[test]
fn drain_yields_to_live_traffic() {
    let mut e = engine(&[S0]);
    // Saturated 10 Mbps access: live traffic fills it at peak.
    let view = view_for(&[S0], 10_000_000);
    let s = e.tick(at(0), minute(), &dark(&view));
    assert!(s.snf_buffered_bits > 0);
    let s2 = e.tick(at(1), minute(), &view);
    let fills = s2.delivered_bps >= 9_000_000;
    assert!(fills, "live traffic fills the link: {}", s2.delivered_bps);
    let (drained, of) = (s2.snf_drained_bits, s.snf_buffered_bits);
    assert!(drained < of / 2, "backlog waits: {drained} of {of}");
    // The fade lifts: same path, headroom, the backlog moves.
    let s3 = e.tick(at(2), minute(), &view_for(&[S0], GBPS));
    assert!(!s3.topology_rebuilt);
    assert!(s3.snf_drained_bits > 0, "headroom drains the backlog");
}

#[test]
fn control_class_is_not_charged_while_routeless() {
    let mut e = engine(&[S0]);
    let view = view_for(&[S0], GBPS);
    e.tick(at(0), minute(), &view);
    // Route flap: routeless control bits are an availability loss.
    e.tick(at(0), minute(), &dark(&view));
    e.tick(at(0), minute(), &view);
    let control = e.series().class_goodput(ServiceClass::Control);
    assert_eq!(control, Some(1.0), "routeless control uncharged");
    // The site series still shows the loss.
    assert!(e.series().site_goodput(S0).expect("offered") < 1.0);
}

/// A backlog on routeless site 0 at 20:00, then at 20:01 `custodian`
/// designated over a 1 Gbps lateral link: the view and both ticks.
fn handoff(e: &mut TrafficEngine, custodian: PlatformId) -> (TopologyView, [TickSummary; 2]) {
    let dark = dark(&view_for(&[S0], GBPS));
    let s = e.tick(at(0), minute(), &dark);
    assert!(s.snf_buffered_bits > 0, "outage tick builds a backlog");
    let mut doomed = dark.clone();
    doomed.custody.insert(S0, custodian);
    doomed
        .link_capacity_bps
        .insert(edge_key(S0, custodian), GBPS);
    let s1 = e.tick(at(1), minute(), &doomed);
    (dark, [s, s1])
}

/// Hand site 0's backlog to `custodian`, then kill site 0.
fn engine_with_custody_handoff(custodian: PlatformId) -> (TrafficEngine, TickSummary) {
    let mut e = engine(&[S0]);
    let (mut gone, [s, s1]) = handoff(&mut e, custodian);
    // The handoff tick queues one more minute of bulk before
    // extracting, so the whole pre-extraction backlog rides out.
    let pre_extraction = s.snf_buffered_bits + s1.snf_queued_bits - s1.snf_evicted_bits;
    assert_eq!(s1.custody_initiated_bits, pre_extraction);
    assert_eq!(s1.snf_in_transit_bits, s1.custody_initiated_bits);
    assert_eq!(s1.snf_buffered_bits, 0, "the holder pushed everything");
    // The balloon dies with the bits in transit; its own buffer
    // is already empty so the wipe loses nothing.
    gone.dead.insert(S0);
    let s2 = e.tick(at(2), minute(), &gone);
    assert_eq!(s2.snf_backlog_lost_bits, 0);
    (e, s2)
}

#[test]
fn custody_transfer_rescues_backlog_from_doomed_holder() {
    let custodian = PlatformId(9);
    let (mut e, s2) = engine_with_custody_handoff(custodian);
    assert!(s2.custody_accepted_bits > 0, "custodian took the bits");
    assert_eq!((s2.custody_refused_bits, s2.custody_lost_bits), (0, 0));
    // The custodian gets routed; drains credit the *origin* site.
    let mut routed = view_for(&[custodian], GBPS);
    routed.dead.insert(S0);
    let s3 = e.tick(at(3), minute(), &routed);
    assert_eq!(s3.snf_drained_bits, s2.custody_accepted_bits);
    let t = e.snf_totals();
    assert_eq!(t.queued_bits, t.drained_bits + t.evicted_bits);
    assert_eq!(t.backlog_lost_bits, 0);
    let credit = e.series().site_buffer(S0).drained_bits;
    assert_eq!(credit, s3.snf_drained_bits, "drains credit the origin site");
    assert_eq!(e.series().site_buffer(custodian).drained_bits, 0);
    assert_eq!(e.series().custody().accepted_bits, s2.custody_accepted_bits);
}

#[test]
fn without_custody_the_backlog_dies_with_the_balloon() {
    let mut e = snf_engine(|sf| sf.custody = false);
    // Even with a designation on the view, custody-off ignores it.
    let (mut gone, [_, s1]) = handoff(&mut e, PlatformId(9));
    assert_eq!(s1.custody_initiated_bits, 0);
    gone.dead.insert(S0);
    let s2 = e.tick(at(2), minute(), &gone);
    assert_eq!(s2.snf_backlog_lost_bits, s1.snf_buffered_bits);
    let t = e.snf_totals();
    assert_eq!(t.backlog_lost_bits, s2.snf_backlog_lost_bits);
    assert_eq!(t.queued_bits, t.drained_bits + t.evicted_bits);
    let lost = e.series().custody().backlog_lost_bits;
    assert_eq!(lost, s2.snf_backlog_lost_bits);
}

#[test]
fn custodian_refuses_what_it_cannot_hold() {
    // Tiny buffers: the custodian can only hold 1 KB = 8 kbit.
    let mut e = snf_engine(|sf| sf.max_bytes = 1_000);
    let (dark, [_, s1]) = handoff(&mut e, PlatformId(9));
    assert!(s1.custody_initiated_bits > 0);
    // Seed the custodian with its own full backlog so nothing fits.
    let max_age_ms = e.config().store_forward.max_age_ms;
    let mut seeded = StoreForwardBuffer::new(1_000, max_age_ms);
    seeded.enqueue_run(at(0).as_ms(), 999, [8_000]);
    e.backlog.buffers_mut().insert(PlatformId(9), seeded);
    let s2 = e.tick(at(2), minute(), &dark);
    assert_eq!(s2.custody_accepted_bits, 0);
    assert_eq!(s2.custody_refused_bits, s1.custody_initiated_bits);
    // Refused bits count as evicted; the ledger still closes (the
    // seeded 8 kbit sit on both sides as resident).
    let t = e.snf_totals();
    assert!(t.conserved() && t.in_transit_bits == 0, "{t:?}");
}

#[test]
fn bits_in_transit_to_a_dead_custodian_are_lost() {
    let custodian = PlatformId(9);
    let mut e = engine(&[S0]);
    let (mut gone, [s, s1]) = handoff(&mut e, custodian);
    assert!(s1.snf_in_transit_bits >= s.snf_buffered_bits);
    // Both ends die before the handoff lands.
    gone.dead.extend([S0, custodian]);
    let s2 = e.tick(at(2), minute(), &gone);
    assert_eq!(s2.custody_lost_bits, s1.snf_in_transit_bits);
    assert_eq!((s2.custody_accepted_bits, s2.snf_in_transit_bits), (0, 0));
    let t = e.snf_totals();
    assert_eq!(t.custody_lost_bits, s2.custody_lost_bits);
    assert_eq!(t.queued_bits, t.drained_bits + t.evicted_bits);
    assert_eq!(e.series().custody().lost_bits, s2.custody_lost_bits);
}

#[test]
fn occupancy_series_tracks_backlog_per_tick() {
    let mut e = engine(&[S0]);
    let view = view_for(&[S0], GBPS);
    let s = e.tick(at(0), minute(), &dark(&view));
    e.tick(at(1), minute(), &dark(&view));
    let occ = e.series().site_occupancy(S0).to_vec();
    assert_eq!(occ.len(), 2, "one sample per outage tick");
    assert_eq!(occ[0].resident_bits, s.snf_buffered_bits);
    assert!(occ[1].resident_bits >= occ[0].resident_bits);
    let aged = occ[1].oldest_age_ms;
    assert!(aged >= 60_000, "oldest chunk ages across ticks: {aged}");
    // The drain empties the buffer; an empty buffer is not sampled.
    e.tick(at(2), minute(), &view);
    assert_eq!(e.series().site_occupancy(S0).len(), 2);
    let peak = e.series().peak_occupancy(S0).expect("samples");
    assert_eq!(peak.resident_bits, occ[1].resident_bits);
}

#[test]
fn all_ineligible_tick_touches_nothing_and_skips_the_allocator() {
    let sites = [S0, PlatformId(1)];
    let mut e = engine(&sites);
    let mut view = view_for(&sites, GBPS);
    view.eligible.clear(); // night
    let t = SimTime::from_hours(2);
    let s = e.tick(t, minute(), &view);
    // The incidence is still rebuilt for the new paths, exactly as
    // a daytime first tick would; everything else is zero.
    let mut idle = TickSummary {
        sites_with_path: 2,
        topology_rebuilt: true,
        ..TickSummary::default()
    };
    assert_eq!(s, idle);
    idle.topology_rebuilt = false;
    assert_eq!(e.tick(t, minute(), &view), idle);
    assert!(e.flow_stats().iter().all(|f| *f == FlowStats::default()));
    assert!(e.series().sites().is_empty() && e.series().classes().is_empty());
    assert!(e.incidence.rates().is_empty(), "the allocator never ran");
}

#[test]
fn routeless_site_enqueues_one_chunk_per_bulk_flow_in_flow_order() {
    // Handed over out of order: the buffer still fills in ascending
    // flow index, which is construction order, not site order.
    let sites = [PlatformId(5), PlatformId(2)];
    let mut e = engine(&sites);
    e.tick(at(0), minute(), &dark(&view_for(&sites, GBPS)));
    for run in e.demand().runs().to_vec() {
        let buffers = e.backlog.buffers_mut();
        let buf = buffers.get_mut(&run.site).expect("site buffered");
        let segments = buf.extract_segments(u64::MAX);
        let chunks = segments.iter().flat_map(|s| s.chunks());
        let queued: Vec<u32> = chunks.map(|c| c.0).collect();
        let bulk: Vec<u32> = (run.first..run.bulk_end).collect();
        assert_eq!(queued, bulk, "site {}", run.site);
    }
}

#[test]
fn a_routeless_window_costs_a_slot_per_flow_per_tick_under_the_age_bound() {
    // The byte bound does not limit a buffer's metadata; the age
    // bound and the tick do. Lift the byte bound, pin the other.
    let sites = [S0, PlatformId(1)];
    let mut config = TrafficConfig::default();
    config.demand.flows_per_site = 2_000;
    config.store_forward.max_bytes = u64::MAX;
    config.tunnel_capacity_bps = 1_000 * GBPS;
    let mut e = engine_with(config, &sites);
    let view = view_for(&sites, config.tunnel_capacity_bps);
    let (dark, tick) = (dark(&view), SimDuration::from_secs(10));
    let max_age_ticks = config.store_forward.max_age_ms.div_ceil(tick.as_ms()) as usize;
    let bound = 2_000 * max_age_ticks;
    let mut now = at(0);
    let census = |e: &mut TrafficEngine| -> Vec<_> {
        let buffers = e.backlog.buffers_mut().values();
        buffers.map(|b| b.census()).collect()
    };
    for _ in 0..max_age_ticks + 30 {
        e.tick(now, tick, &dark);
        now += tick;
        for (segments, slots) in census(&mut e) {
            assert!(segments <= max_age_ticks && slots <= bound);
        }
    }
    assert_eq!(census(&mut e), [(max_age_ticks, bound); 2]);
    // The route comes back with room for the whole backlog.
    let s = e.tick(now, tick, &view);
    assert!(s.snf_drained_bits > 0);
    assert_eq!(s.snf_buffered_bits, 0);
    assert_eq!(census(&mut e), [(0, 0); 2]);
}

#[test]
fn duplicated_site_merges_into_one_series_row() {
    let twice = [PlatformId(3), PlatformId(3)];
    let mut e = engine(&twice);
    assert_eq!(e.demand().runs().len(), 2);
    let s = e.tick(at(0), minute(), &view_for(&twice[..1], GBPS));
    assert_eq!(e.series().sites(), vec![PlatformId(3)]);
    // One `record` and one digest sample for the site, carrying
    // both runs: the EWMA's first sample seeds it directly.
    assert_eq!(e.demand_weight_bps(PlatformId(3)), Some(s.offered_bps));
    assert_eq!(e.series().offered_bits(), s.offered_bps * 60);
    assert_eq!(s.flows_active, e.demand().flows().len());
}

#[test]
fn ticks_are_deterministic_for_a_seed() {
    let sites = [S0, PlatformId(1), PlatformId(2)];
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
