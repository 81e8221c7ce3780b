//! Aggregated user-demand generation with diurnal load curves.
//!
//! The Loon network existed to carry LTE backhaul for real users
//! (§2.1: balloons carried eNodeBs serving ground users, with traffic
//! hauled to EC pods over the mesh). We model each served site — a
//! balloon's eNodeB footprint — as a user population whose offered
//! load follows a diurnal curve, split into a handful of *aggregate
//! flows* so that millions of users become thousands of fluid flows
//! the allocator can push through the forwarding graph every tick.
//!
//! Everything here is a pure function of (config, seed, time): no RNG
//! is consumed after construction, so the demand side can never
//! perturb the rest of a seeded run.

use crate::allocator::TrafficClass;
use rand::Rng;
use tssdn_sim::{PlatformId, RngStreams, SimTime};

/// Identifier of one aggregate flow (stable across a run).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FlowId(pub u32);

impl std::fmt::Display for FlowId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "f{}", self.0)
    }
}

/// A demand-surge window: while `start_ms <= now < end_ms` every
/// bulk flow's offered load is multiplied by `multiplier` on top of
/// the diurnal curve (a stadium event, a regional emergency, a viral
/// broadcast). Control traffic is unaffected — fleet telemetry does
/// not surge with user demand. Pure configuration, no RNG: surges
/// perturb offered load only, never the seeded draw order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DemandSurge {
    /// Surge onset, ms since sim start.
    pub start_ms: u64,
    /// Surge end (exclusive), ms since sim start.
    pub end_ms: u64,
    /// Multiplier on bulk offered load (≥ 0; 1.0 is a no-op).
    pub multiplier: f64,
}

impl DemandSurge {
    /// Is `now` inside the surge window?
    pub fn active_at(&self, now: SimTime) -> bool {
        self.start_ms <= now.as_ms() && now.as_ms() < self.end_ms
    }
}

/// Demand-side configuration.
#[derive(Debug, Clone, Copy)]
pub struct DemandConfig {
    /// Users in one site's (balloon's) eNodeB footprint.
    pub users_per_site: u64,
    /// Aggregate flows each site's population is split into.
    pub flows_per_site: usize,
    /// Per-user offered load at the diurnal peak, bps. Loon-era LTE
    /// backhaul: tens of kbps sustained per active subscriber.
    pub busy_hour_bps_per_user: f64,
    /// Overnight base load as a fraction of the peak (0..1).
    pub floor_fraction: f64,
    /// Local hour of the diurnal peak (evening busy hour).
    pub peak_hour: f64,
    /// Service-tier max-min weights, cycled across each site's bulk
    /// flows in flow order (Loon sold tiered service over the shared
    /// mesh; a weight-4 tier climbs four bps per weight-1 bps under
    /// contention).
    pub tier_weights: [u32; 3],
    /// Steady fleet-control / telemetry backhaul per site, bps, as
    /// one strict-priority [`TrafficClass::Control`] flow appended
    /// after the site's bulk flows. 0 disables the control flow.
    pub control_bps_per_site: u64,
    /// Optional demand-surge window scaling bulk offered load.
    pub surge: Option<DemandSurge>,
}

impl Default for DemandConfig {
    fn default() -> Self {
        DemandConfig {
            users_per_site: 20_000,
            flows_per_site: 8,
            busy_hour_bps_per_user: 2_500.0,
            floor_fraction: 0.15,
            peak_hour: 20.0,
            tier_weights: [4, 2, 1],
            control_bps_per_site: 256_000,
            surge: None,
        }
    }
}

impl DemandConfig {
    /// The diurnal multiplier at local hour `h` (0..24): a raised-
    /// cosine bump centred on [`Self::peak_hour`], squared to sharpen
    /// the evening busy hour, riding on the overnight floor.
    pub fn diurnal(&self, h: f64) -> f64 {
        let phase = 2.0 * std::f64::consts::PI * (h - self.peak_hour) / 24.0;
        let bump = 0.5 * (1.0 + phase.cos());
        self.floor_fraction + (1.0 - self.floor_fraction) * bump * bump
    }
}

/// One aggregate flow: a fixed slice of a site's user population.
#[derive(Debug, Clone, Copy)]
pub struct AggregateFlow {
    /// Flow identity.
    pub id: FlowId,
    /// The site (balloon) whose users this flow aggregates.
    pub site: PlatformId,
    /// Users aggregated into this flow (0 for the control flow).
    pub users: u64,
    /// Static per-flow weight (population heterogeneity): seeded at
    /// construction, mean ≈ 1.
    pub weight: f64,
    /// Integer max-min tier weight handed to the allocator.
    pub tier_weight: u32,
    /// Strict-priority service class.
    pub class: TrafficClass,
}

/// One site's flows: a contiguous index range, bulk flows first, then
/// the control flow when the site has one. Flows are emitted
/// site-major, so the runs tile `0..flows().len()` in the order the
/// sites were handed to [`DemandGenerator::new`] — unsorted, and with
/// one run per occurrence if a site was listed twice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SiteRun {
    /// The site every flow of the run belongs to.
    pub site: PlatformId,
    /// First flow index of the run.
    pub first: u32,
    /// One past the last bulk flow: `first..bulk_end` are
    /// [`TrafficClass::Bulk`], `bulk_end..end` [`TrafficClass::Control`].
    pub bulk_end: u32,
    /// One past the last flow of the run.
    pub end: u32,
}

/// The time-dependent factors of a bulk flow's offered load — the
/// same for every flow at one instant, so a tick computes them once.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadFactor {
    diurnal: f64,
    surge: f64,
}

impl LoadFactor {
    /// Offered load of a bulk flow whose time-invariant prefix
    /// `users · busy_hour · weight` is `base_bps`: the product
    /// continues left to right, so hoisting the factors changes no bit.
    fn bulk_bps(self, base_bps: f64) -> u64 {
        round_to_u64(base_bps * self.diurnal * self.surge)
    }
}

/// `x.round() as u64` — half away from zero, negatives and NaN to 0,
/// saturating at `u64::MAX` — without `f64::round`, which is a call
/// into libm on this target. From ½ to 2⁵², `x + ½` floored is exact:
/// ½ is a multiple of `x`'s ulp there, so the sum is exact unless it
/// reaches the next power of two, which is then `x`'s rounding too;
/// that arm goes through `i64`, one instruction on SSE2 where the
/// `u64` conversions are sequences. Elsewhere: truncate, then compare
/// the fraction, which is exact wherever an `f64` has one (below 2⁵³);
/// the add saturates because `u64::MAX as f64` is 2⁶⁴, and +∞ and 2⁶⁵
/// are more than a half above it.
fn round_to_u64(x: f64) -> u64 {
    if (0.5..4_503_599_627_370_496.0).contains(&x) {
        return (x + 0.5) as i64 as u64;
    }
    let t = x as u64;
    t.saturating_add((x - t as f64 >= 0.5) as u64)
}

/// Deterministic demand generator over a fixed site set.
#[derive(Debug, Clone)]
pub struct DemandGenerator {
    config: DemandConfig,
    flows: Vec<AggregateFlow>,
    runs: Vec<SiteRun>,
    /// Per flow, the time-invariant prefix `users · busy_hour · weight`
    /// of the offered-load product (0 for control flows, which offer a
    /// constant).
    base_bps: Vec<f64>,
}

impl DemandGenerator {
    /// Build the aggregate-flow population for `sites`, drawing static
    /// per-flow weights from the dedicated `"traffic-demand"` stream.
    pub fn new(config: DemandConfig, sites: &[PlatformId], streams: &RngStreams) -> Self {
        let mut rng = streams.stream("traffic-demand");
        let per_flow_users = (config.users_per_site / config.flows_per_site.max(1) as u64).max(1);
        let mut flows = Vec::with_capacity(sites.len() * (config.flows_per_site + 1));
        let mut runs = Vec::with_capacity(sites.len());
        for site in sites {
            let first = flows.len() as u32;
            for t in 0..config.flows_per_site {
                let id = FlowId(flows.len() as u32);
                // Heterogeneous cells: some flows aggregate denser
                // neighbourhoods than others.
                let weight = rng.gen_range(0.5..1.5);
                let tier_weight = config.tier_weights[t % config.tier_weights.len()].max(1);
                flows.push(AggregateFlow {
                    id,
                    site: *site,
                    users: per_flow_users,
                    weight,
                    tier_weight,
                    class: TrafficClass::Bulk,
                });
            }
            // The site's fleet-control backhaul: steady, strict
            // priority, no RNG draw (keeps bulk weights stable when
            // the control load is reconfigured).
            let bulk_end = flows.len() as u32;
            if config.control_bps_per_site > 0 {
                let id = FlowId(flows.len() as u32);
                flows.push(AggregateFlow {
                    id,
                    site: *site,
                    users: 0,
                    weight: 1.0,
                    tier_weight: 1,
                    class: TrafficClass::Control,
                });
            }
            runs.push(SiteRun {
                site: *site,
                first,
                bulk_end,
                end: flows.len() as u32,
            });
        }
        let base_bps = flows
            .iter()
            .map(|f| f.users as f64 * config.busy_hour_bps_per_user * f.weight)
            .collect();
        DemandGenerator {
            config,
            flows,
            runs,
            base_bps,
        }
    }

    /// The demand config.
    pub fn config(&self) -> &DemandConfig {
        &self.config
    }

    /// All aggregate flows, in `FlowId` order.
    pub fn flows(&self) -> &[AggregateFlow] {
        &self.flows
    }

    /// The per-site runs of [`Self::flows`], in construction order.
    pub fn runs(&self) -> &[SiteRun] {
        &self.runs
    }

    /// The diurnal and surge multipliers at `now`.
    pub fn load_factor(&self, now: SimTime) -> LoadFactor {
        LoadFactor {
            diurnal: self.config.diurnal(now.hour_of_day()),
            surge: match self.config.surge {
                Some(s) if s.active_at(now) => s.multiplier,
                _ => 1.0,
            },
        }
    }

    /// The offered load of each bulk flow of `run` under `factor`, in
    /// flow order: the left-to-right product `users · busy_hour ·
    /// weight · diurnal · surge`, rounded. Each of the run's control
    /// flows offers the steady [`DemandConfig::control_bps_per_site`].
    pub fn offer_run(&self, run: &SiteRun, factor: LoadFactor) -> impl Iterator<Item = u64> + '_ {
        let base = &self.base_bps[run.first as usize..run.bulk_end as usize];
        base.iter().map(move |&b| factor.bulk_bps(b))
    }

    /// Offered load of flow `idx` at `now`, bps: the one-flow form of
    /// [`Self::offer_run`].
    pub fn offered_bps(&self, idx: usize, now: SimTime) -> u64 {
        self.offered_under(idx, self.load_factor(now))
    }

    fn offered_under(&self, idx: usize, factor: LoadFactor) -> u64 {
        match self.flows[idx].class {
            TrafficClass::Control => self.config.control_bps_per_site,
            TrafficClass::Bulk => factor.bulk_bps(self.base_bps[idx]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gen() -> DemandGenerator {
        let sites: Vec<PlatformId> = (0..4).map(PlatformId).collect();
        DemandGenerator::new(DemandConfig::default(), &sites, &RngStreams::new(7))
    }

    #[test]
    fn population_splits_into_aggregate_flows() {
        let g = gen();
        // 8 bulk flows + 1 control flow per site.
        assert_eq!(g.flows().len(), 4 * 9);
        // FlowIds are dense and ordered; bulk flows carry users,
        // control flows don't.
        for (i, f) in g.flows().iter().enumerate() {
            assert_eq!(f.id, FlowId(i as u32));
            match f.class {
                TrafficClass::Bulk => assert!(f.users > 0),
                TrafficClass::Control => assert_eq!(f.users, 0),
            }
        }
        let controls = g
            .flows()
            .iter()
            .filter(|f| f.class == TrafficClass::Control)
            .count();
        assert_eq!(controls, 4, "one control flow per site");
    }

    #[test]
    fn tier_weights_cycle_and_control_is_steady() {
        let g = gen();
        let site0: Vec<_> = g
            .flows()
            .iter()
            .filter(|f| f.site == PlatformId(0))
            .collect();
        let tiers: Vec<u32> = site0.iter().map(|f| f.tier_weight).collect();
        assert_eq!(tiers, vec![4, 2, 1, 4, 2, 1, 4, 2, 1]);
        // The control flow offers the same load at peak and trough.
        let ctl = site0
            .iter()
            .position(|f| f.class == TrafficClass::Control)
            .unwrap();
        let idx = site0[ctl].id.0 as usize;
        assert_eq!(g.offered_bps(idx, SimTime::from_hours(20)), 256_000);
        assert_eq!(g.offered_bps(idx, SimTime::from_hours(8)), 256_000);
        // Disabling the control load removes the flows without
        // disturbing the bulk weights.
        let sites: Vec<PlatformId> = (0..4).map(PlatformId).collect();
        let cfg = DemandConfig {
            control_bps_per_site: 0,
            ..DemandConfig::default()
        };
        let g0 = DemandGenerator::new(cfg, &sites, &RngStreams::new(7));
        assert_eq!(g0.flows().len(), 4 * 8);
        let bulk_w: Vec<f64> = g
            .flows()
            .iter()
            .filter(|f| f.class == TrafficClass::Bulk)
            .map(|f| f.weight)
            .collect();
        let bulk_w0: Vec<f64> = g0.flows().iter().map(|f| f.weight).collect();
        assert_eq!(bulk_w, bulk_w0);
    }

    #[test]
    fn surge_scales_bulk_only_inside_its_window() {
        let sites: Vec<PlatformId> = (0..2).map(PlatformId).collect();
        let surge = DemandSurge {
            start_ms: SimTime::from_hours(10).as_ms(),
            end_ms: SimTime::from_hours(12).as_ms(),
            multiplier: 3.0,
        };
        let base = DemandGenerator::new(DemandConfig::default(), &sites, &RngStreams::new(7));
        let surged = DemandGenerator::new(
            DemandConfig {
                surge: Some(surge),
                ..DemandConfig::default()
            },
            &sites,
            &RngStreams::new(7),
        );
        let inside = SimTime::from_hours(11);
        let before = SimTime::from_hours(9);
        let at_end = SimTime::from_hours(12); // end is exclusive
        for (i, f) in base.flows().iter().enumerate() {
            match f.class {
                TrafficClass::Bulk => {
                    let b = base.offered_bps(i, inside) as f64;
                    let s = surged.offered_bps(i, inside) as f64;
                    assert!((s - 3.0 * b).abs() <= 2.0, "3x inside: {b} vs {s}");
                }
                TrafficClass::Control => {
                    assert_eq!(
                        base.offered_bps(i, inside),
                        surged.offered_bps(i, inside),
                        "control never surges"
                    );
                }
            }
            assert_eq!(base.offered_bps(i, before), surged.offered_bps(i, before));
            assert_eq!(base.offered_bps(i, at_end), surged.offered_bps(i, at_end));
        }
        // The surge draws no RNG: flow populations are identical.
        let w: Vec<f64> = base.flows().iter().map(|f| f.weight).collect();
        let ws: Vec<f64> = surged.flows().iter().map(|f| f.weight).collect();
        assert_eq!(w, ws);
    }

    #[test]
    fn diurnal_peaks_in_the_evening_and_floors_at_night() {
        let c = DemandConfig::default();
        let peak = c.diurnal(20.0);
        let night = c.diurnal(8.0); // 12h off-peak: the trough
        assert!((peak - 1.0).abs() < 1e-12, "peak multiplier is 1: {peak}");
        assert!(
            (night - c.floor_fraction).abs() < 1e-12,
            "trough hits the floor: {night}"
        );
        assert!(
            c.diurnal(17.0) > c.diurnal(11.0),
            "evening ramps above morning"
        );
    }

    #[test]
    fn offered_load_is_deterministic_for_a_seed() {
        let a = gen();
        let b = gen();
        for i in 0..a.flows().len() {
            assert_eq!(
                a.offered_bps(i, SimTime::from_hours(19)),
                b.offered_bps(i, SimTime::from_hours(19))
            );
        }
        // Different seed, different weights.
        let sites: Vec<PlatformId> = (0..4).map(PlatformId).collect();
        let c = DemandGenerator::new(DemandConfig::default(), &sites, &RngStreams::new(8));
        let same: bool = (0..a.flows().len()).all(|i| {
            a.offered_bps(i, SimTime::from_hours(19)) == c.offered_bps(i, SimTime::from_hours(19))
        });
        assert!(!same, "weights must depend on the seed");
    }

    proptest::proptest! {
        #[test]
        fn round_to_u64_is_round_then_cast(bits in 0u64..=u64::MAX, int in 0u64..=u64::MAX) {
            // Raw bit patterns reach NaNs, infinities, subnormals and
            // both signs; `int + ½` at every magnitude below 2⁵² the
            // ties and, one ulp either side, their neighbours.
            let x = f64::from_bits(bits);
            let tie = (int >> (12 + bits % 52)) as f64 + 0.5;
            let (below, above) = (tie.to_bits() - 1, tie.to_bits() + 1);
            for x in [x, x.abs(), tie, -tie, f64::from_bits(below), f64::from_bits(above)] {
                proptest::prop_assert_eq!(round_to_u64(x), x.round() as u64, "x = {:e}", x);
            }
        }
    }

    proptest::proptest! {
        #[test]
        fn round_to_u64_is_round_then_cast_across_the_i64_arm(k in 0u64..1 << 24) {
            // Up to 2²⁴ ulps either side of the `i64` arm's two ends,
            // ½ and 2⁵², and the negations.
            for edge in [0.5f64.to_bits(), 4_503_599_627_370_496f64.to_bits()] {
                for x in [f64::from_bits(edge - k), f64::from_bits(edge + k)] {
                    for x in [x, -x] {
                        proptest::prop_assert_eq!(round_to_u64(x), x.round() as u64, "x = {:e}", x);
                    }
                }
            }
        }
    }

    #[test]
    fn round_to_u64_matches_at_the_edges() {
        let two64 = u64::MAX as f64;
        for x in [
            0.0,
            -0.0,
            0.5,
            -0.5,
            0.49999999999999994,
            1.5,
            2.5,
            -1.5,
            -0.49999999999999994,
            4503599627370495.0, // 2^52 - 1
            4503599627370495.5, // 2^52 - 0.5, the largest tie and the i64 arm's last value
            4503599627370496.0, // 2^52, the first past the i64 arm
            4503599627370497.0, // 2^52 + 1
            -4503599627370496.0,
            9007199254740991.0, // 2^53 - 1
            9007199254740992.0,
            9007199254740994.0,
            two64 / 2.0,
            f64::from_bits(two64.to_bits() - 1),
            two64,
            two64 * 2.0,
            -1e300,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
        ] {
            assert_eq!(round_to_u64(x), x.round() as u64, "x = {x:e}");
        }
    }

    #[test]
    fn offer_run_is_the_per_flow_rounded_product() {
        let surge = DemandSurge {
            start_ms: SimTime::from_hours(10).as_ms(),
            end_ms: SimTime::from_hours(12).as_ms(),
            multiplier: 4.0,
        };
        let cfg = DemandConfig {
            surge: Some(surge),
            ..DemandConfig::default()
        };
        let sites: Vec<PlatformId> = (0..3).map(PlatformId).collect();
        let g = DemandGenerator::new(cfg, &sites, &RngStreams::new(7));
        for h in [0, 8, 11, 20] {
            let now = SimTime::from_hours(h);
            let factor = g.load_factor(now);
            for run in g.runs() {
                let bulk = g.offer_run(run, factor);
                let control = run.bulk_end..run.end;
                let ctl = control.map(|_| cfg.control_bps_per_site);
                let out: Vec<u64> = bulk.chain(ctl).collect();
                assert_eq!(out.len(), (run.end - run.first) as usize);
                for (i, &o) in (run.first as usize..).zip(&out) {
                    assert_eq!(o, g.offered_bps(i, now));
                    if g.flows()[i].class == TrafficClass::Bulk {
                        let f = &g.flows()[i];
                        let x = f.users as f64
                            * cfg.busy_hour_bps_per_user
                            * f.weight
                            * factor.diurnal
                            * factor.surge;
                        assert_eq!(o, x.round() as u64);
                    }
                }
            }
        }
    }

    #[test]
    fn site_totals_sum_flows() {
        let g = gen();
        let t = SimTime::from_hours(20);
        let site = PlatformId(2);
        let total: u64 = (0..g.flows().len())
            .filter(|i| g.flows()[*i].site == site)
            .map(|i| g.offered_bps(i, t))
            .sum();
        // The site's runs, priced under one load factor, carry the
        // same load.
        let factor = g.load_factor(t);
        let by_runs: u64 = g
            .runs()
            .iter()
            .filter(|r| r.site == site)
            .flat_map(|r| r.first..r.end)
            .map(|i| g.offered_under(i as usize, factor))
            .sum();
        assert_eq!(by_runs, total);
        assert!(total > 0);
    }

    #[test]
    fn busy_hour_magnitude_is_sane() {
        // 20k users × 2.5 kbps at peak ≈ 50 Mbps per site — matching
        // the orchestrator's default per-balloon backhaul request.
        let g = gen();
        let t = SimTime::from_hours(20);
        let total: u64 = (0..g.flows().len())
            .filter(|i| g.flows()[*i].site == PlatformId(0))
            .map(|i| g.offered_bps(i, t))
            .sum();
        assert!(
            (25_000_000..100_000_000).contains(&total),
            "peak site load ≈ tens of Mbps, got {total}"
        );
    }
}
