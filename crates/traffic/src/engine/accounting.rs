//! What the tick delivered: per-flow ledgers, the goodput series,
//! reroutes and disruptions, and the demand digest (DESIGN.md §8).

use std::collections::BTreeMap;

use tssdn_sim::{PlatformId, SimTime};
use tssdn_telemetry::{GoodputSeries, ServiceClass};

use super::backlog::Backlog;
use super::incidence::Incidence;
use super::{FlowStats, RunTick, Sinks, TickSummary, TopologyView, ALT};
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
/// handed to `TrafficEngine::new` twice) accumulate into one.
#[derive(Debug, Default, Clone, Copy)]
struct SiteTotals {
    offered_bps: u64,
    delivered_bps: u64,
    /// Some dual-path bulk flow of the site offered load this tick.
    multipath: bool,
    /// Site×class rows, indexed by `TrafficClass as usize`.
    class: [RowBits; 2],
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
/// total it. `flows` yields each flow's `(offered, primary rate,
/// alternate rate)`; bits are floored per flow, as the per-flow ledgers
/// are. `queue` sees each flow's stats and offered bits.
fn account_flows(
    stats: &mut [FlowStats],
    dt_ms: u64,
    flows: impl Iterator<Item = (u64, u64, u64)>,
    mut queue: impl FnMut(&mut FlowStats, u64),
) -> RangeTotals {
    let mut t = RangeTotals::default();
    for (fs, (o, rate_p, rate_a)) in stats.iter_mut().zip(flows) {
        let (ob, db) = (o * dt_ms / 1000, (rate_p + rate_a) * dt_ms / 1000);
        fs.offered_bits += ob;
        fs.delivered_bits += db;
        queue(fs, ob);
        t.offered_bps += o;
        t.rate_primary += rate_p;
        t.rate_alt += rate_a;
        t.offered_bits += ob;
        t.delivered_bits += db;
        t.nonzero += (o > 0) as usize;
    }
    t
}

/// EWMA smoothing factor of the demand digest (0..1].
pub const FEEDBACK_ALPHA: f64 = 0.2;

/// Goodput-series bucket width, ms: one bucket per simulated day.
pub const GOODPUT_WINDOW_MS: u64 = 24 * 3600 * 1000;

/// The series, the per-flow ledgers and the digest.
#[derive(Debug)]
pub(super) struct Accounting {
    series: GoodputSeries,
    flow_stats: Vec<FlowStats>,
    /// EWMA of measured offered load per site — the demand digest.
    digest_bps: BTreeMap<PlatformId, f64>,
    /// Last tick's path per site, for reroute/disruption detection.
    last_paths: BTreeMap<PlatformId, Vec<PlatformId>>,
    /// Last tick's offered load per site: a disruption needs load.
    last_offered: BTreeMap<PlatformId, u64>,
    /// The distinct served sites, ascending: one row per site.
    site_ids: Vec<PlatformId>,
    /// This tick's totals, one per `site_ids` entry.
    sites: Vec<SiteTotals>,
}

impl Accounting {
    pub(super) fn new(site_ids: Vec<PlatformId>, n_flows: usize) -> Self {
        Accounting {
            series: GoodputSeries::new(GOODPUT_WINDOW_MS),
            flow_stats: vec![FlowStats::default(); n_flows],
            digest_bps: BTreeMap::new(),
            last_paths: BTreeMap::new(),
            last_offered: BTreeMap::new(),
            sites: vec![SiteTotals::default(); site_ids.len()],
            site_ids,
        }
    }

    pub(super) fn series(&self) -> &GoodputSeries {
        &self.series
    }

    pub(super) fn flow_stats(&self) -> &[FlowStats] {
        &self.flow_stats
    }

    pub(super) fn demand_weight_bps(&self, site: PlatformId) -> Option<u64> {
        self.digest_bps.get(&site).map(|w| w.round() as u64)
    }

    pub(super) fn sinks(&mut self) -> Sinks<'_> {
        Sinks {
            flow_stats: &mut self.flow_stats,
            series: &mut self.series,
        }
    }

    /// Reroute/disruption bookkeeping against the previous tick's
    /// paths, which this tick's then replace.
    pub(super) fn note_path_changes(&mut self, view: &TopologyView) {
        for (site, last_path) in &self.last_paths {
            let offered_then = self.last_offered.get(site).copied().unwrap_or(0);
            match view.paths.get(site) {
                None if offered_then > 0 => self.series.record_disruption(*site),
                Some(p) if p != last_path => self.series.record_reroute(*site),
                _ => {}
            }
        }
        self.last_paths.clone_from(&view.paths);
    }

    /// Pass 2: account bits per flow, per site and per class — each
    /// rate read off its aggregate's `share`, an alt subflow's folded
    /// back into its demand flow, a routeless run's bulk bits queued in
    /// `backlog` when there is one — then record the tick's series rows.
    pub(super) fn account(
        &mut self,
        now: SimTime,
        dt_ms: u64,
        incidence: &Incidence,
        runs: &mut [RunTick],
        mut backlog: Option<&mut Backlog>,
        s: &mut TickSummary,
    ) {
        let demands = incidence.demands();
        self.sites.fill(SiteTotals::default());
        let mut fleet = [RowBits::default(); 2];
        for (slot, rt) in incidence.slots().iter().zip(runs) {
            if !rt.offering {
                continue;
            }
            let r = slot.run;
            let site = &mut self.sites[slot.acc];
            site.multipath |= rt.multipath;
            for (class, first, end) in [
                (TrafficClass::Bulk, r.first as usize, r.bulk_end as usize),
                (TrafficClass::Control, r.bulk_end as usize, r.end as usize),
            ] {
                let stats = &mut self.flow_stats[first..end];
                let own = &demands[first..end];
                // A routeless run was allocated nothing.
                let (p, alt) = match rt.routed {
                    false => (Some(0), None),
                    true => (
                        incidence.share(slot.agg[class as usize]),
                        slot.alt_first
                            .filter(|_| class == TrafficClass::Bulk)
                            .map(|a| (a as usize, incidence.share(slot.agg[ALT]))),
                    ),
                };
                let t = match (p, alt, backlog.as_deref_mut()) {
                    // Routeless Bulk: its bits wait in the backlog.
                    (_, _, Some(queue)) if !rt.routed && class == TrafficClass::Bulk => {
                        let mut bits = Vec::with_capacity(own.len());
                        let flows = own.iter().map(|&d| (d, 0, 0));
                        let t = account_flows(stats, dt_ms, flows, |fs, ob| {
                            fs.buffered_bits += ob;
                            bits.push(ob);
                        });
                        if t.offered_bits > 0 {
                            queue.enqueue(&r, bits, now.as_ms(), &mut self.series, s);
                        }
                        t
                    }
                    (Some(cp), None, _) => {
                        let flows = own.iter().map(|&d| (d, d.min(cp), 0));
                        account_flows(stats, dt_ms, flows, |_, _| ())
                    }
                    (Some(cp), Some((a, Some(ca))), _) => {
                        let both = own.iter().zip(&demands[a..a + own.len()]);
                        let both = both.map(|(&d_p, &d_a)| (d_p + d_a, d_p.min(cp), d_a.min(ca)));
                        account_flows(stats, dt_ms, both, |_, _| ())
                    }
                    // A strictly partial grant: `distribute` wrote rates.
                    (p, alt, _) => {
                        let rate = |cap: Option<u64>, f: usize| {
                            cap.map_or_else(|| incidence.rates()[f], |c| demands[f].min(c))
                        };
                        let flows = (first..end).map(|f| {
                            let alt = alt.map(|(a, cap)| (a + f - first, cap));
                            let (d_a, r_a) =
                                alt.map_or((0, 0), |(a, cap)| (demands[a], rate(cap, a)));
                            (demands[f] + d_a, rate(p, f), r_a)
                        });
                        account_flows(stats, dt_ms, flows, |_, _| ())
                    }
                };
                site.offered_bps += t.offered_bps;
                rt.rate_primary += t.rate_primary;
                rt.rate_alt += t.rate_alt;
                if rt.routed {
                    s.flows_active += t.nonzero;
                }
                // Class and site×class rows measure priority *where a
                // path exists*: routeless Control is an availability
                // loss (the site row has it), not a priority failure.
                // Routeless Bulk buffers or drops, and counts.
                if t.nonzero > 0 && (class != TrafficClass::Control || rt.routed) {
                    fleet[class as usize].add(&t);
                    site.class[class as usize].add(&t);
                }
            }
            site.delivered_bps += rt.rate_primary + rt.rate_alt;
        }
        self.record_rows(fleet, now, dt_ms, s);
    }

    /// Rows in order: classes in `TrafficClass` order, site×class rows
    /// by `(site, class)`, then site rows, the digest and
    /// `last_offered` by ascending site id; only rows that saw load.
    fn record_rows(&mut self, fleet: [RowBits; 2], now: SimTime, dt_ms: u64, s: &mut TickSummary) {
        let sites = || self.site_ids.iter().zip(&self.sites);
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
        let alpha = FEEDBACK_ALPHA;
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::incidence::tests::{flows_of, slot};

    const S: PlatformId = PlatformId(4);
    const MINUTE: u64 = 60_000;

    /// One site with a bulk flow (index 0) and a control flow (1),
    /// and its incidence over a 1 Gbps tunnel.
    fn accounting() -> (Accounting, Incidence) {
        let incidence = Incidence::new(vec![slot(S, 0, 1, 2)], 1_000_000_000);
        (Accounting::new(vec![S], 2), incidence)
    }

    /// One tick in which the site offers `offered` (bulk, control),
    /// all of it granted when routed.
    fn tick(acc: &mut Accounting, inc: &mut Incidence, view: &TopologyView, offered: [u64; 2]) {
        let flows = flows_of(inc.slots());
        let routed = view.paths.contains_key(&S);
        let offering = offered.iter().any(|&o| o > 0);
        acc.note_path_changes(view);
        inc.refresh(view, &flows);
        if offering {
            inc.demand_run(0, routed, offered[..1].iter().copied(), offered[1]);
        }
        inc.allocate();
        let mut runs = [RunTick {
            offering,
            routed,
            ..RunTick::default()
        }];
        let (now, mut s) = (SimTime::from_hours(12), TickSummary::default());
        acc.account(now, MINUTE, inc, &mut runs, None, &mut s);
    }

    #[test]
    fn a_disruption_counts_only_when_load_was_offered() {
        let (mut acc, mut inc) = accounting();
        let mut routed = TopologyView::default();
        routed.paths.insert(S, vec![S, PlatformId(100)]);
        let dark = TopologyView::default();
        // Routed but idle, then withdrawn: nothing was riding the path.
        tick(&mut acc, &mut inc, &routed, [0, 0]);
        tick(&mut acc, &mut inc, &dark, [0, 0]);
        assert_eq!(acc.series().site_events(S).disruptions, 0);
        // Routed under load, then withdrawn: one disruption.
        tick(&mut acc, &mut inc, &routed, [1_000, 10]);
        tick(&mut acc, &mut inc, &dark, [1_000, 10]);
        assert_eq!(acc.series().site_events(S).disruptions, 1);
        assert_eq!(acc.series().site_events(S).reroutes, 0);
    }

    #[test]
    fn routeless_control_is_charged_to_the_site_not_the_class() {
        let (mut acc, mut inc) = accounting();
        tick(&mut acc, &mut inc, &TopologyView::default(), [1_000, 10]);
        let series = acc.series();
        assert_eq!(series.classes(), vec![ServiceClass::Bulk]);
        assert_eq!(series.class_volume(ServiceClass::Bulk), (60_000, 0));
        assert_eq!(series.site_goodput(S), Some(0.0));
        assert_eq!(series.offered_bits(), 60_600);
        assert_eq!(acc.flow_stats()[1].offered_bits, 600);
        assert_eq!(acc.demand_weight_bps(S), Some(1_010));
    }
}
