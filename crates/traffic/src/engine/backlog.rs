//! The store-and-forward backlog: holder buffers and custody transit.
//! Each call adds its bits to the summary and the series it is lent.

use std::collections::BTreeMap;

use tssdn_dataplane::{BufferedSegment, StoreForwardBuffer};
use tssdn_sim::{PlatformId, SimTime};
use tssdn_telemetry::{CustodyStats, GoodputSeries, ServiceClass};

use super::incidence::Incidence;
use super::{edge_key, Sinks, SnfTotals, StoreForwardConfig, TickSummary, TopologyView};
use crate::demand::{AggregateFlow, SiteRun};

#[derive(Debug, Default)]
pub(super) struct Backlog {
    config: StoreForwardConfig,
    /// Per-holder buffers: the site that queued the bits or, after a
    /// handoff, its custodian — drains credit each chunk's origin.
    snf: BTreeMap<PlatformId, StoreForwardBuffer<u32>>,
    /// `(custodian, segment)` extracted last tick, arriving this tick.
    custody_transit: Vec<(PlatformId, BufferedSegment<u32>)>,
}

impl Backlog {
    pub(super) fn new(config: StoreForwardConfig) -> Self {
        Backlog {
            config,
            ..Backlog::default()
        }
    }

    fn buffer_of(&mut self, holder: PlatformId) -> &mut StoreForwardBuffer<u32> {
        let (bytes, age) = (self.config.max_bytes, self.config.max_age_ms);
        let new = || StoreForwardBuffer::new(bytes, age);
        self.snf.entry(holder).or_insert_with(new)
    }

    #[cfg(test)]
    pub(super) fn buffers_mut(&mut self) -> &mut BTreeMap<PlatformId, StoreForwardBuffer<u32>> {
        &mut self.snf
    }

    /// No holder has a buffer yet.
    pub(super) fn is_empty(&self) -> bool {
        self.snf.is_empty()
    }

    /// The buffers' ledgers and transit beside the series' custody
    /// figures `c`; refused and lost bits count as evicted.
    pub(super) fn totals(&self, c: CustodyStats) -> SnfTotals {
        let sum = |f: fn(&StoreForwardBuffer<u32>) -> u64| self.snf.values().map(f).sum::<u64>();
        SnfTotals {
            queued_bits: sum(StoreForwardBuffer::queued_bits),
            drained_bits: sum(StoreForwardBuffer::drained_bits),
            evicted_bits: sum(StoreForwardBuffer::evicted_bits) + c.refused_bits + c.lost_bits,
            buffered_bits: sum(StoreForwardBuffer::total_bits),
            in_transit_bits: self.custody_transit.iter().map(|(_, s)| s.bits()).sum(),
            custody_initiated_bits: c.initiated_bits,
            custody_accepted_bits: c.accepted_bits,
            custody_refused_bits: c.refused_bits,
            custody_lost_bits: c.lost_bits,
            backlog_lost_bits: c.backlog_lost_bits,
        }
    }

    /// Segments extracted last tick reach their custodian, which
    /// accepts what fits (and is not over-age) and refuses the rest;
    /// bits addressed to a custodian that died meanwhile are lost.
    pub(super) fn custody_arrivals(
        &mut self,
        view: &TopologyView,
        now_ms: u64,
        series: &mut GoodputSeries,
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
            let (accepted, refused) = self.buffer_of(to).accept_segments(segments, now_ms);
            s.custody_accepted_bits += accepted;
            s.custody_refused_bits += refused;
        }
        series.record_custody_accepted(s.custody_accepted_bits);
        series.record_custody_refused(s.custody_refused_bits);
        series.record_custody_lost(s.custody_lost_bits);
    }

    /// A dead platform's backlog dies with it — the loss custody
    /// exists to pre-empt, paid in full with custody off.
    pub(super) fn wipe_dead(
        &mut self,
        view: &TopologyView,
        series: &mut GoodputSeries,
        s: &mut TickSummary,
    ) {
        for d in &view.dead {
            if let Some(buf) = self.snf.get_mut(d) {
                let lost = buf.wipe();
                if lost > 0 {
                    s.snf_backlog_lost_bits += lost;
                    series.record_buffer_evicted(*d, lost);
                    series.record_backlog_lost(lost);
                }
            }
        }
        s.snf_evicted_bits += s.snf_backlog_lost_bits;
    }

    /// Age-evict before this tick's arrivals: bits at or past the age
    /// bound must never be delivered, even if a route came back.
    pub(super) fn expire(&mut self, now_ms: u64, series: &mut GoodputSeries, s: &mut TickSummary) {
        for (site, buf) in self.snf.iter_mut() {
            let ev = buf.expire(now_ms);
            if ev > 0 {
                s.snf_evicted_bits += ev;
                series.record_buffer_evicted(*site, ev);
            }
        }
    }

    /// A routeless run's Bulk bits, one slot per bulk flow in flow
    /// order (their ledgers already credited), wait in its site's
    /// buffer as one segment — the order drains and handoffs take.
    /// Control is never buffered: it stays fail-fast.
    pub(super) fn enqueue(
        &mut self,
        run: &SiteRun,
        bits: Vec<u64>,
        now_ms: u64,
        series: &mut GoodputSeries,
        s: &mut TickSummary,
    ) {
        let buf = self.buffer_of(run.site);
        let (queued, evicted) = buf.enqueue_run(now_ms, run.first, bits);
        series.record_buffered(run.site, queued);
        if evicted > 0 {
            series.record_buffer_evicted(run.site, evicted);
        }
        s.snf_queued_bits += queued;
        s.snf_evicted_bits += evicted;
    }

    /// Drain oldest first into what each holder's primary path can
    /// still carry after live traffic; holders drain in id order, each
    /// debiting the shared residuals. `flows` names chunk origins.
    pub(super) fn drain(
        &mut self,
        now: SimTime,
        view: &TopologyView,
        incidence: &mut Incidence,
        flows: &[AggregateFlow],
        sinks: Sinks<'_>,
        s: &mut TickSummary,
    ) {
        let Sinks { flow_stats, series } = sinks;
        for (holder, buf) in self.snf.iter_mut() {
            if buf.is_empty()
                || view.dead.contains(holder)
                || !view.eligible.contains(holder)
                || !view.paths.contains_key(holder)
            {
                continue;
            }
            let budget = incidence.path_headroom(holder);
            // Drains credit each chunk's *origin* site (via its flow
            // id) — after a custody handoff the holder and the origin
            // differ. A drained run is part of one segment, which one
            // site's routeless tick queued: one origin, one age.
            let mut by_origin: BTreeMap<PlatformId, (u64, u128)> = BTreeMap::new();
            let bits = buf.drain_runs(now.as_ms(), budget, |first, age_ms, run| {
                let first = first as usize;
                let origin = flows[first].site;
                debug_assert_eq!(flows[first + run.len() - 1].site, origin);
                let mut run_bits = 0u64;
                for (fs, &b) in flow_stats[first..].iter_mut().zip(run) {
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
            incidence.debit_path(holder, bits);
            for (origin, (o_bits, o_age)) in by_origin {
                series.record_buffer_drained(origin, now, o_bits, o_age);
                series.record_site_class_drained(origin, ServiceClass::Bulk, o_bits);
            }
            series.record_class_drained(ServiceClass::Bulk, now, bits);
        }
    }

    /// A doomed holder hands its oldest bits toward its custodian, at
    /// what the handoff edge can still carry after live traffic and
    /// drains; they ride one tick in transit.
    pub(super) fn extract_custody(
        &mut self,
        view: &TopologyView,
        incidence: &mut Incidence,
        series: &mut GoodputSeries,
        s: &mut TickSummary,
    ) {
        for (&from, &to) in &view.custody {
            if view.dead.contains(&from) || view.dead.contains(&to) {
                continue;
            }
            let (on_path, budget) = incidence.edge_headroom(edge_key(from, to), view);
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
                incidence.debit_link(l, bits);
            }
            self.custody_transit
                .extend(segments.into_iter().map(|s| (to, s)));
        }
        series.record_custody_initiated(s.custody_initiated_bits);
    }

    /// Resident backlog and oldest-chunk age per non-empty holder
    /// buffer (absent ticks read as an empty buffer).
    pub(super) fn record_occupancy(&self, now: SimTime, series: &mut GoodputSeries) {
        for (holder, buf) in &self.snf {
            if !buf.is_empty() {
                let age = buf.oldest_age_ms(now.as_ms()).unwrap_or(0);
                series.record_buffer_occupancy(*holder, now, buf.total_bits(), age);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::incidence::tests::{flows_of, slot};
    use crate::engine::{FlowStats, RunTick, SiteSlot};

    const A: PlatformId = PlatformId(0);
    const B: PlatformId = PlatformId(1);
    const GS: PlatformId = PlatformId(100);
    const EC: PlatformId = PlatformId(101);
    const SECOND: u64 = 1_000;

    /// One run of one bulk flow per site, flow `i` at `sites[i]`.
    fn slots(sites: &[PlatformId]) -> Vec<SiteSlot> {
        (0..)
            .zip(sites)
            .map(|(i, &s)| slot(s, i, i + 1, i + 1))
            .collect()
    }

    /// A backlog holding `bits` of flow `i` at each `sites[i]`.
    fn backlog(sites: &[PlatformId], bits: u64) -> Backlog {
        let mut b = Backlog::new(StoreForwardConfig::default());
        let mut series = GoodputSeries::new(SECOND);
        for slot in slots(sites) {
            let mut s = TickSummary::default();
            b.enqueue(&slot.run, vec![bits], 0, &mut series, &mut s);
        }
        b
    }

    #[test]
    fn a_drain_debits_the_shared_residual() {
        // A and B reach the EC over one wired GS → EC link that
        // carries 1 000 bits this second; each holds 600.
        let sites = [A, B];
        let mut stats = vec![FlowStats::default(); 2];
        let mut b = backlog(&sites, 600);
        let mut view = TopologyView::default();
        for s in sites {
            view.paths.insert(s, vec![s, GS, EC]);
            view.link_capacity_bps.insert(edge_key(s, GS), 10_000);
            view.eligible.insert(s);
        }
        let mut inc = Incidence::new(Vec::new(), 1_000);
        let flows = flows_of(&slots(&sites));
        inc.refresh(&view, &flows);
        inc.residuals_after_live(&[], SECOND);
        let mut series = GoodputSeries::new(SECOND);
        let sinks = Sinks {
            flow_stats: &mut stats,
            series: &mut series,
        };
        let now = SimTime::from_hours(1);
        let mut s = TickSummary::default();
        b.drain(now, &view, &mut inc, &flows, sinks, &mut s);
        // A drains first and leaves B what remains of the shared link.
        assert_eq!(s.snf_drained_bits, 1_000);
        assert_eq!((stats[0].drained_bits, stats[1].drained_bits), (600, 400));
        assert_eq!(b.totals(CustodyStats::default()).buffered_bits, 200);
        assert_eq!(inc.path_headroom(&B), 0);
    }

    #[test]
    fn an_on_path_handoff_shares_the_residual_and_an_off_path_one_gets_idle_capacity() {
        // A hands off to R over the access edge of its own path, which
        // live traffic fills to 700 of 1 000 bps; B hands off to C over
        // an edge no path crosses, rated 500 bps.
        let (r, c) = (PlatformId(7), PlatformId(8));
        let sites = [A, B];
        let mut b = backlog(&sites, 600);
        let mut view = TopologyView::default();
        view.paths.insert(A, vec![A, r, EC]);
        view.link_capacity_bps.insert(edge_key(A, r), 1_000);
        view.link_capacity_bps.insert(edge_key(B, c), 500);
        view.custody.extend([(A, r), (B, c)]);
        let slots = slots(&sites);
        let mut inc = Incidence::new(slots[..1].to_vec(), 1_000_000);
        inc.refresh(&view, &flows_of(&slots));
        let live = RunTick {
            offering: true,
            routed: true,
            rate_primary: 700,
            ..RunTick::default()
        };
        inc.residuals_after_live(&[live], SECOND);
        let mut series = GoodputSeries::new(SECOND);
        let mut s = TickSummary::default();
        b.extract_custody(&view, &mut inc, &mut series, &mut s);
        assert_eq!(s.custody_initiated_bits, 300 + 500);
        let t = b.totals(series.custody());
        assert_eq!((t.in_transit_bits, t.buffered_bits), (800, 400));
        assert!(t.custody_balanced());
        assert_eq!(inc.path_headroom(&A), 0, "A's path debited");
        assert_eq!(series.custody().initiated_bits, 800);
    }

    /// `t` keeps `law`, and breaks it once any of `leaks` is applied.
    fn each_leak_breaks(t: SnfTotals, law: fn(&SnfTotals) -> bool, leaks: [fn(&mut SnfTotals); 3]) {
        assert!(law(&t), "{t:?}");
        for leak in leaks {
            let mut l = t;
            leak(&mut l);
            assert!(!law(&l), "{l:?}");
        }
    }

    #[test]
    fn snf_ledger_law_fails_on_a_leaked_bit() {
        let mut t = SnfTotals::default();
        (t.queued_bits, t.drained_bits, t.evicted_bits) = (100, 40, 30);
        (t.buffered_bits, t.in_transit_bits) = (20, 10);
        let leaks: [fn(&mut SnfTotals); 3] = [
            |t| t.drained_bits -= 1,
            |t| t.in_transit_bits = 0,
            |t| t.queued_bits += 1,
        ];
        each_leak_breaks(t, SnfTotals::conserved, leaks);
    }

    #[test]
    fn custody_ledger_law_fails_on_a_lost_handoff() {
        let mut t = SnfTotals::default();
        (t.custody_initiated_bits, t.custody_accepted_bits) = (100, 50);
        (t.custody_refused_bits, t.custody_lost_bits) = (20, 10);
        t.in_transit_bits = 20;
        // Not a term of the custody law: a wiped backlog never left its
        // holder.
        t.backlog_lost_bits = 7;
        let leaks: [fn(&mut SnfTotals); 3] = [
            |t| t.in_transit_bits = 0,
            |t| t.custody_lost_bits += 1,
            |t| t.custody_initiated_bits -= 1,
        ];
        each_leak_breaks(t, SnfTotals::custody_balanced, leaks);
    }
}
