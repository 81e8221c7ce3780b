//! Flow-level goodput accounting — the data behind the E17
//! goodput-availability figure.
//!
//! Figure 6 reports whether a node's data-plane *path existed*; this
//! series reports how much of the traffic users actually offered made
//! it through that path once link capacities (ACM under weather fade)
//! and cross-flow contention are applied. The traffic engine calls
//! [`GoodputSeries::record`] once per site per tick with the bits
//! offered and delivered over the tick, plus discrete
//! disruption/reroute events when an established path is torn from
//! under assigned traffic.

use std::collections::BTreeMap;
use tssdn_sim::{PlatformId, SimTime};

#[derive(Debug, Default, Clone, Copy)]
struct Volume {
    offered_bits: u64,
    delivered_bits: u64,
}

/// Service class of recorded traffic, mirroring the allocator's
/// strict-priority tiers (kept here so telemetry stays dependency-free
/// of the traffic crate).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ServiceClass {
    /// Fleet control / telemetry backhaul (strict priority).
    Control,
    /// User traffic.
    Bulk,
}

impl ServiceClass {
    /// Stable label for CSV export.
    pub fn label(&self) -> &'static str {
        match self {
            ServiceClass::Control => "control",
            ServiceClass::Bulk => "bulk",
        }
    }
}

/// Per-site traffic event totals across a run.
#[derive(Debug, Default, Clone, Copy)]
pub struct TrafficEvents {
    /// Ticks where a site lost its path while traffic was assigned.
    pub disruptions: u64,
    /// Ticks where a site's path was replaced by a different one.
    pub reroutes: u64,
}

/// Store-and-forward accounting for one site across a run: how many
/// Bulk bits entered the delay-tolerant buffer, how many drained to
/// delivery once a route returned, how many were evicted (byte or age
/// bound), and the bit-weighted delivery-age integral that yields the
/// mean age-of-delivery.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct BufferStats {
    /// Bits that entered the buffer (route missing at offer time).
    pub queued_bits: u64,
    /// Buffered bits later delivered when a route reappeared.
    pub drained_bits: u64,
    /// Buffered bits dropped by the byte bound or the age bound.
    pub evicted_bits: u64,
    /// Σ (bits × residency ms) over drained chunks; divide by
    /// `drained_bits` for the mean age-of-delivery.
    pub age_bits_ms: u128,
}

impl BufferStats {
    /// Mean age-of-delivery over drained bits, ms.
    pub fn mean_age_ms(&self) -> Option<f64> {
        if self.drained_bits == 0 {
            None
        } else {
            Some(self.age_bits_ms as f64 / self.drained_bits as f64)
        }
    }
}

/// Fleet-wide custody-transfer accounting across a run. Custody moves
/// buffered bits off a platform that is about to die onto a
/// still-connected neighbor; every handed-off bit ends in exactly one
/// of accepted / refused / lost, so at any tick boundary
/// `initiated == accepted + refused + lost + in-transit`.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CustodyStats {
    /// Bits extracted from a doomed platform's buffer for handoff.
    pub initiated_bits: u64,
    /// Handed-off bits a custodian accepted into its buffer.
    pub accepted_bits: u64,
    /// Handed-off bits the custodian refused (over-age on arrival or
    /// past its free space) — these are gone.
    pub refused_bits: u64,
    /// Handed-off bits whose custodian died while they were in
    /// transit — gone.
    pub lost_bits: u64,
    /// Resident bits wiped because their holder died with no (or an
    /// incomplete) handoff — the loss custody exists to prevent.
    pub backlog_lost_bits: u64,
}

/// One tick's buffer occupancy observation at a site: the resident
/// backlog and the age of its oldest chunk.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct OccupancySample {
    /// Sample time, sim ms.
    pub t_ms: u64,
    /// Bits resident in the site's buffer at the sample time.
    pub resident_bits: u64,
    /// Age of the oldest resident chunk, ms.
    pub oldest_age_ms: u64,
}

/// Windowed offered-vs-delivered accumulator, aggregated over sites.
#[derive(Debug)]
pub struct GoodputSeries {
    /// Bucket width, ms (one simulated day per figure point).
    window_ms: u64,
    /// window index → volumes, aggregated over sites.
    buckets: BTreeMap<u64, Volume>,
    /// Per-site volume totals across the whole run.
    per_site: BTreeMap<PlatformId, Volume>,
    /// Per-site disruption/reroute event totals.
    events: BTreeMap<PlatformId, TrafficEvents>,
    /// (class, window index) → volumes, aggregated over sites.
    class_buckets: BTreeMap<(ServiceClass, u64), Volume>,
    /// (site, class) → whole-run volumes: the per-aggregate counters
    /// behind the hierarchical allocator's site×class nodes. One
    /// entry per aggregate that ever offered traffic.
    site_class: BTreeMap<(PlatformId, ServiceClass), Volume>,
    /// Per-site store-and-forward totals across the whole run.
    buffers: BTreeMap<PlatformId, BufferStats>,
    /// Fleet-wide custody-transfer totals across the whole run.
    custody: CustodyStats,
    /// Per-site buffer occupancy samples, one per tick the site had a
    /// non-empty buffer (absent ticks mean an empty buffer).
    occupancy: BTreeMap<PlatformId, Vec<OccupancySample>>,
}

impl GoodputSeries {
    /// A series bucketed into windows of `window_ms`.
    pub fn new(window_ms: u64) -> Self {
        assert!(window_ms > 0);
        GoodputSeries {
            window_ms,
            buckets: BTreeMap::new(),
            per_site: BTreeMap::new(),
            events: BTreeMap::new(),
            class_buckets: BTreeMap::new(),
            site_class: BTreeMap::new(),
            buffers: BTreeMap::new(),
            custody: CustodyStats::default(),
            occupancy: BTreeMap::new(),
        }
    }

    /// Record one site's tick: bits its users offered and bits the
    /// allocator delivered end-to-end over the tick interval.
    pub fn record(
        &mut self,
        site: PlatformId,
        now: SimTime,
        offered_bits: u64,
        delivered_bits: u64,
    ) {
        debug_assert!(delivered_bits <= offered_bits);
        let w = now.as_ms() / self.window_ms;
        let v = self.buckets.entry(w).or_default();
        v.offered_bits += offered_bits;
        v.delivered_bits += delivered_bits;
        let v = self.per_site.entry(site).or_default();
        v.offered_bits += offered_bits;
        v.delivered_bits += delivered_bits;
    }

    /// Record one tick's aggregate volume for a service class (the
    /// traffic engine calls this once per class per tick, summed over
    /// sites — class accounting is fleet-wide, not per-site).
    pub fn record_class(
        &mut self,
        class: ServiceClass,
        now: SimTime,
        offered_bits: u64,
        delivered_bits: u64,
    ) {
        debug_assert!(delivered_bits <= offered_bits);
        let w = now.as_ms() / self.window_ms;
        let v = self.class_buckets.entry((class, w)).or_default();
        v.offered_bits += offered_bits;
        v.delivered_bits += delivered_bits;
    }

    /// Record one tick's volume for a (site, class) aggregate — the
    /// per-aggregate counters the hierarchical allocator's site×class
    /// nodes export into traffic.csv. Whole-run totals, not windowed.
    pub fn record_site_class(
        &mut self,
        site: PlatformId,
        class: ServiceClass,
        offered_bits: u64,
        delivered_bits: u64,
    ) {
        debug_assert!(delivered_bits <= offered_bits);
        let v = self.site_class.entry((site, class)).or_default();
        v.offered_bits += offered_bits;
        v.delivered_bits += delivered_bits;
    }

    /// Record drained bits on a (site, class) aggregate's delivered
    /// side (the bits were offered in an earlier tick, when they
    /// entered the buffer).
    pub fn record_site_class_drained(&mut self, site: PlatformId, class: ServiceClass, bits: u64) {
        self.site_class
            .entry((site, class))
            .or_default()
            .delivered_bits += bits;
    }

    /// Whole-run `(offered_bits, delivered_bits)` for one (site,
    /// class) aggregate.
    pub fn site_class_volume(&self, site: PlatformId, class: ServiceClass) -> (u64, u64) {
        self.site_class
            .get(&(site, class))
            .map_or((0, 0), |v| (v.offered_bits, v.delivered_bits))
    }

    /// Record Bulk bits entering a site's store-and-forward buffer
    /// (offered in a tick where no route existed).
    pub fn record_buffered(&mut self, site: PlatformId, bits: u64) {
        self.buffers.entry(site).or_default().queued_bits += bits;
    }

    /// Record buffered bits evicted by the byte bound or the age
    /// bound — these will never be delivered.
    pub fn record_buffer_evicted(&mut self, site: PlatformId, bits: u64) {
        self.buffers.entry(site).or_default().evicted_bits += bits;
    }

    /// Record buffered bits draining to delivery after a route
    /// reappeared. `age_bits_ms` is Σ (bits × residency ms) over the
    /// drained chunks. The bits count toward the delivered side of the
    /// site/window series — they were offered in an *earlier* window
    /// when they entered the buffer, so a recovery window's goodput
    /// ratio can legitimately exceed 1.0 (cumulatively, delivered ≤
    /// offered still holds: every drained bit was offered once).
    pub fn record_buffer_drained(
        &mut self,
        site: PlatformId,
        now: SimTime,
        bits: u64,
        age_bits_ms: u128,
    ) {
        let b = self.buffers.entry(site).or_default();
        b.drained_bits += bits;
        b.age_bits_ms += age_bits_ms;
        let w = now.as_ms() / self.window_ms;
        self.buckets.entry(w).or_default().delivered_bits += bits;
        self.per_site.entry(site).or_default().delivered_bits += bits;
    }

    /// Record drained bits on the class series (store-and-forward is
    /// Bulk-only by policy, but the class is a parameter so telemetry
    /// stays policy-free).
    pub fn record_class_drained(&mut self, class: ServiceClass, now: SimTime, bits: u64) {
        let w = now.as_ms() / self.window_ms;
        self.class_buckets
            .entry((class, w))
            .or_default()
            .delivered_bits += bits;
    }

    /// Record bits extracted from a doomed platform for handoff.
    pub fn record_custody_initiated(&mut self, bits: u64) {
        self.custody.initiated_bits += bits;
    }

    /// Record handed-off bits accepted by their custodian.
    pub fn record_custody_accepted(&mut self, bits: u64) {
        self.custody.accepted_bits += bits;
    }

    /// Record handed-off bits refused by their custodian.
    pub fn record_custody_refused(&mut self, bits: u64) {
        self.custody.refused_bits += bits;
    }

    /// Record handed-off bits lost in transit (custodian died).
    pub fn record_custody_lost(&mut self, bits: u64) {
        self.custody.lost_bits += bits;
    }

    /// Record resident bits wiped with their dying holder.
    pub fn record_backlog_lost(&mut self, bits: u64) {
        self.custody.backlog_lost_bits += bits;
    }

    /// Record one tick's buffer occupancy at a site. The engine calls
    /// this only for non-empty buffers, so absent ticks read as zero.
    pub fn record_buffer_occupancy(
        &mut self,
        site: PlatformId,
        now: SimTime,
        resident_bits: u64,
        oldest_age_ms: u64,
    ) {
        self.occupancy
            .entry(site)
            .or_default()
            .push(OccupancySample {
                t_ms: now.as_ms(),
                resident_bits,
                oldest_age_ms,
            });
    }

    /// Record a path torn down while the site had traffic assigned.
    pub fn record_disruption(&mut self, site: PlatformId) {
        self.events.entry(site).or_default().disruptions += 1;
    }

    /// Record a site's traffic moving to a different path.
    pub fn record_reroute(&mut self, site: PlatformId) {
        self.events.entry(site).or_default().reroutes += 1;
    }

    /// Goodput ratio (delivered / offered) in window `w`, if any
    /// traffic was offered there.
    pub fn window_goodput(&self, w: u64) -> Option<f64> {
        let v = self.buckets.get(&w)?;
        if v.offered_bits == 0 {
            return None;
        }
        Some(v.delivered_bits as f64 / v.offered_bits as f64)
    }

    /// The full per-window series: `(window index, goodput ratio)`.
    pub fn series(&self) -> Vec<(u64, f64)> {
        self.buckets
            .iter()
            .filter(|(_, v)| v.offered_bits > 0)
            .map(|(w, v)| (*w, v.delivered_bits as f64 / v.offered_bits as f64))
            .collect()
    }

    /// Whole-run goodput ratio.
    pub fn overall(&self) -> Option<f64> {
        let mut offered = 0u64;
        let mut delivered = 0u64;
        for v in self.buckets.values() {
            offered += v.offered_bits;
            delivered += v.delivered_bits;
        }
        if offered == 0 {
            None
        } else {
            Some(delivered as f64 / offered as f64)
        }
    }

    /// Whole-run goodput ratio for one site.
    pub fn site_goodput(&self, site: PlatformId) -> Option<f64> {
        let v = self.per_site.get(&site)?;
        if v.offered_bits == 0 {
            None
        } else {
            Some(v.delivered_bits as f64 / v.offered_bits as f64)
        }
    }

    /// Whole-run event totals for one site.
    pub fn site_events(&self, site: PlatformId) -> TrafficEvents {
        self.events.get(&site).copied().unwrap_or_default()
    }

    /// Whole-run store-and-forward totals for one site.
    pub fn site_buffer(&self, site: PlatformId) -> BufferStats {
        self.buffers.get(&site).copied().unwrap_or_default()
    }

    /// Store-and-forward totals summed over all sites.
    pub fn buffer_totals(&self) -> BufferStats {
        self.buffers
            .values()
            .fold(BufferStats::default(), |acc, b| BufferStats {
                queued_bits: acc.queued_bits + b.queued_bits,
                drained_bits: acc.drained_bits + b.drained_bits,
                evicted_bits: acc.evicted_bits + b.evicted_bits,
                age_bits_ms: acc.age_bits_ms + b.age_bits_ms,
            })
    }

    /// Fleet-wide custody-transfer totals.
    pub fn custody(&self) -> CustodyStats {
        self.custody
    }

    /// The occupancy samples recorded for one site, in time order.
    pub fn site_occupancy(&self, site: PlatformId) -> &[OccupancySample] {
        self.occupancy.get(&site).map_or(&[], |v| v.as_slice())
    }

    /// The peak-occupancy sample for one site: maximum resident bits,
    /// earliest such tick on ties. `None` if the buffer never held
    /// bits at a sample point.
    pub fn peak_occupancy(&self, site: PlatformId) -> Option<OccupancySample> {
        self.site_occupancy(site)
            .iter()
            .copied()
            .max_by(|a, b| {
                a.resident_bits
                    .cmp(&b.resident_bits)
                    // Prefer the earlier sample on equal backlog.
                    .then(b.t_ms.cmp(&a.t_ms))
            })
            .filter(|s| s.resident_bits > 0)
    }

    /// Total bits offered across the run.
    pub fn offered_bits(&self) -> u64 {
        self.buckets.values().map(|v| v.offered_bits).sum()
    }

    /// Total bits delivered across the run.
    pub fn delivered_bits(&self) -> u64 {
        self.buckets.values().map(|v| v.delivered_bits).sum()
    }

    /// Total disruption events across all sites.
    pub fn total_disruptions(&self) -> u64 {
        self.events.values().map(|e| e.disruptions).sum()
    }

    /// Total reroute events across all sites.
    pub fn total_reroutes(&self) -> u64 {
        self.events.values().map(|e| e.reroutes).sum()
    }

    /// Sites seen by this series, in id order.
    pub fn sites(&self) -> Vec<PlatformId> {
        self.per_site.keys().copied().collect()
    }

    /// Service classes seen by this series, in class order.
    pub fn classes(&self) -> Vec<ServiceClass> {
        let mut out: Vec<ServiceClass> = self.class_buckets.keys().map(|(c, _)| *c).collect();
        out.dedup();
        out
    }

    /// Whole-run `(offered_bits, delivered_bits)` for one class.
    pub fn class_volume(&self, class: ServiceClass) -> (u64, u64) {
        self.class_buckets
            .iter()
            .filter(|((c, _), _)| *c == class)
            .fold((0, 0), |(o, d), (_, v)| {
                (o + v.offered_bits, d + v.delivered_bits)
            })
    }

    /// Whole-run goodput ratio for one class.
    pub fn class_goodput(&self, class: ServiceClass) -> Option<f64> {
        let (offered, delivered) = self.class_volume(class);
        if offered == 0 {
            None
        } else {
            Some(delivered as f64 / offered as f64)
        }
    }

    /// `(offered_bits, delivered_bits)` totals for one window across
    /// all sites — the raw volumes behind [`Self::window_goodput`].
    pub fn window_volume(&self, w: u64) -> (u64, u64) {
        self.buckets
            .get(&w)
            .map_or((0, 0), |v| (v.offered_bits, v.delivered_bits))
    }

    /// Window indices with any offered traffic, in order.
    pub fn windows(&self) -> Vec<u64> {
        self.buckets
            .iter()
            .filter(|(_, v)| v.offered_bits > 0)
            .map(|(w, _)| *w)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DAY_MS: u64 = 24 * 3600 * 1000;

    #[test]
    fn goodput_is_delivered_over_offered() {
        let mut s = GoodputSeries::new(DAY_MS);
        s.record(PlatformId(0), SimTime::from_hours(10), 1_000, 800);
        s.record(PlatformId(1), SimTime::from_hours(12), 1_000, 200);
        let r = s.window_goodput(0).expect("offered");
        assert!((r - 0.5).abs() < 1e-12);
        assert_eq!(s.site_goodput(PlatformId(0)), Some(0.8));
        assert_eq!(s.site_goodput(PlatformId(2)), None);
    }

    #[test]
    fn windows_separate_days() {
        let mut s = GoodputSeries::new(DAY_MS);
        s.record(PlatformId(0), SimTime::from_hours(10), 100, 100);
        s.record(PlatformId(0), SimTime::from_hours(34), 100, 0);
        assert_eq!(s.series(), vec![(0, 1.0), (1, 0.0)]);
        assert_eq!(s.overall(), Some(0.5));
    }

    #[test]
    fn empty_windows_report_none() {
        let s = GoodputSeries::new(DAY_MS);
        assert_eq!(s.window_goodput(0), None);
        assert_eq!(s.overall(), None);
        assert!(s.series().is_empty());
    }

    #[test]
    fn class_buckets_track_per_class_goodput() {
        let mut s = GoodputSeries::new(DAY_MS);
        s.record_class(ServiceClass::Control, SimTime::from_hours(10), 100, 100);
        s.record_class(ServiceClass::Bulk, SimTime::from_hours(10), 1_000, 500);
        s.record_class(ServiceClass::Bulk, SimTime::from_hours(34), 1_000, 250);
        assert_eq!(s.class_goodput(ServiceClass::Control), Some(1.0));
        assert_eq!(s.class_goodput(ServiceClass::Bulk), Some(0.375));
        assert_eq!(s.class_volume(ServiceClass::Bulk), (2_000, 750));
        assert_eq!(s.classes(), vec![ServiceClass::Control, ServiceClass::Bulk]);
        // Class accounting is independent of the site-keyed buckets.
        assert_eq!(s.overall(), None);
    }

    #[test]
    fn window_volumes_expose_raw_bits() {
        let mut s = GoodputSeries::new(DAY_MS);
        s.record(PlatformId(0), SimTime::from_hours(10), 100, 80);
        s.record(PlatformId(1), SimTime::from_hours(11), 50, 50);
        assert_eq!(s.window_volume(0), (150, 130));
        assert_eq!(s.window_volume(3), (0, 0));
        assert_eq!(s.windows(), vec![0]);
    }

    #[test]
    fn buffer_stats_track_queue_drain_evict_and_age() {
        let mut s = GoodputSeries::new(DAY_MS);
        // Offered 1000 with nothing delivered live (route missing)…
        s.record(PlatformId(0), SimTime::from_hours(10), 1_000, 0);
        s.record_buffered(PlatformId(0), 1_000);
        // …then 600 drain a window later (mean residency 90 s) and
        // 400 age out.
        s.record_buffer_drained(PlatformId(0), SimTime::from_hours(34), 600, 600 * 90_000);
        s.record_buffer_evicted(PlatformId(0), 400);
        let b = s.site_buffer(PlatformId(0));
        assert_eq!(
            (b.queued_bits, b.drained_bits, b.evicted_bits),
            (1_000, 600, 400)
        );
        assert_eq!(b.mean_age_ms(), Some(90_000.0));
        // Drained bits land on the delivered side of the recovery
        // window; cumulative delivered ≤ offered still holds.
        assert_eq!(s.window_volume(0), (1_000, 0));
        assert_eq!(s.window_volume(1), (0, 600));
        assert_eq!(s.delivered_bits(), 600);
        assert!(s.delivered_bits() <= s.offered_bits());
        assert_eq!(s.site_goodput(PlatformId(0)), Some(0.6));
        assert_eq!(s.buffer_totals().drained_bits, 600);
        assert_eq!(s.site_buffer(PlatformId(9)), BufferStats::default());
    }

    #[test]
    fn class_drains_credit_delivery_only() {
        let mut s = GoodputSeries::new(DAY_MS);
        s.record_class(ServiceClass::Bulk, SimTime::from_hours(10), 1_000, 0);
        s.record_class_drained(ServiceClass::Bulk, SimTime::from_hours(12), 400);
        assert_eq!(s.class_volume(ServiceClass::Bulk), (1_000, 400));
        assert_eq!(s.class_goodput(ServiceClass::Bulk), Some(0.4));
    }

    #[test]
    fn custody_counters_accumulate_fleet_wide() {
        let mut s = GoodputSeries::new(DAY_MS);
        s.record_custody_initiated(1_000);
        s.record_custody_accepted(700);
        s.record_custody_refused(200);
        s.record_custody_lost(100);
        s.record_backlog_lost(5_000);
        let c = s.custody();
        assert_eq!(c.initiated_bits, 1_000);
        assert_eq!(
            c.initiated_bits,
            c.accepted_bits + c.refused_bits + c.lost_bits,
            "every handed-off bit ends in exactly one state"
        );
        assert_eq!(c.backlog_lost_bits, 5_000);
    }

    #[test]
    fn occupancy_samples_track_backlog_and_peak() {
        let mut s = GoodputSeries::new(DAY_MS);
        let site = PlatformId(3);
        s.record_buffer_occupancy(site, SimTime::from_mins(1), 100, 0);
        s.record_buffer_occupancy(site, SimTime::from_mins(2), 900, 60_000);
        s.record_buffer_occupancy(site, SimTime::from_mins(3), 900, 120_000);
        s.record_buffer_occupancy(site, SimTime::from_mins(4), 400, 30_000);
        assert_eq!(s.site_occupancy(site).len(), 4);
        assert_eq!(s.site_occupancy(PlatformId(9)), &[]);
        // Peak is the max backlog; ties resolve to the earlier tick.
        let p = s.peak_occupancy(site).expect("non-empty");
        assert_eq!(
            (p.t_ms, p.resident_bits, p.oldest_age_ms),
            (SimTime::from_mins(2).as_ms(), 900, 60_000)
        );
        assert_eq!(s.peak_occupancy(PlatformId(9)), None);
    }

    #[test]
    fn events_accumulate_per_site() {
        let mut s = GoodputSeries::new(DAY_MS);
        s.record_disruption(PlatformId(4));
        s.record_disruption(PlatformId(4));
        s.record_reroute(PlatformId(4));
        s.record_reroute(PlatformId(5));
        assert_eq!(s.site_events(PlatformId(4)).disruptions, 2);
        assert_eq!(s.site_events(PlatformId(4)).reroutes, 1);
        assert_eq!(s.total_disruptions(), 2);
        assert_eq!(s.total_reroutes(), 2);
        assert_eq!(s.site_events(PlatformId(9)).disruptions, 0);
    }
}
