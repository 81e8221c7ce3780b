//! The Link Evaluator: candidate-graph generation.
//!
//! "A Link Evaluator component within the TS-SDN continuously analyzed
//! candidate links between all pairs of transceivers at multiple time
//! steps in the future ... For each pair of antennas, field-of-view
//! and line-of-sight evaluation pruned candidates incapable of
//! satisfying geometric pointing constraints. For each RF band, the
//! attenuation along the transmission vector was computed ... To
//! account for uncertainty in our modeling, links just below the
//! acceptable margin were retained and annotated as 'marginal'"
//! (§3.1).
//!
//! The evaluator reads only the [`NetworkModel`] — predicted
//! positions, surveyed masks, modelled weather — never ground truth.
//! [`CandidateGraph::churn`] computes the set-delta statistic behind
//! Figure 4.

use crate::explain::PairAbsence;
use crate::fan_out::{fan_out, host_workers};
use crate::model::{ModelWeather, NetworkModel, PlatformInfo};
use std::collections::{BTreeSet, HashMap};
use tssdn_geo::{line_of_sight_clear, AzEl, Ecef, GeoPoint, LocalFrame, PointingSolution};
use tssdn_link::{LinkKind, TransceiverId};
use tssdn_rf::{BandConsts, LinkQuality, PathIntegrator, RadioParams};
use tssdn_sim::{PlatformId, PlatformKind, SimTime};

/// Evaluator configuration.
#[derive(Debug, Clone)]
pub struct EvaluatorConfig {
    /// The RF bands available to every link (E band low/high).
    pub bands: Vec<RadioParams>,
    /// Required terrain clearance for line of sight, meters.
    pub los_clearance_m: f64,
    /// Hard cap on link range, meters (radio tracking limit).
    pub max_range_m: f64,
    /// Extra loss the controller *assumes* beyond the truth, dB. "We
    /// intentionally selected a pessimistic level from the ITU-R
    /// regional seasonal average model to increase confidence in
    /// forming the selected links. This is clearly visible in the
    /// 4.3 dB right-shift" (§5, Figure 10).
    pub model_pessimism_db: f64,
}

impl EvaluatorConfig {
    /// Each band's hoisted constants, the model's deliberate pessimism
    /// riding in as extra assumed implementation loss.
    pub(crate) fn band_consts(&self) -> Vec<BandConsts> {
        let pessimistic = |band: &RadioParams| RadioParams {
            implementation_loss_db: band.implementation_loss_db + self.model_pessimism_db,
            ..*band
        };
        self.bands
            .iter()
            .map(|band| BandConsts::new(&pessimistic(band)))
            .collect()
    }
}

impl Default for EvaluatorConfig {
    fn default() -> Self {
        EvaluatorConfig {
            bands: vec![RadioParams::e_band_low(), RadioParams::e_band_high()],
            los_clearance_m: 100.0,
            max_range_m: 800_000.0,
            model_pessimism_db: 4.0,
        }
    }
}

/// One candidate link: a transceiver pairing with its modelled
/// performance (Appendix B's `l_{i→j}` tuple).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CandidateLink {
    /// Lower-ordered transceiver endpoint.
    pub a: TransceiverId,
    /// Higher-ordered transceiver endpoint.
    pub b: TransceiverId,
    /// B2B or B2G.
    pub kind: LinkKind,
    /// Index into [`EvaluatorConfig::bands`] of the chosen band.
    pub band: u8,
    /// Modelled max bitrate with required margin, bps.
    pub bitrate_bps: u64,
    /// Modelled link margin, dB.
    pub margin_db: f64,
    /// Acceptable or Marginal (infeasible candidates are pruned).
    pub quality: LinkQuality,
    /// Pointing direction at endpoint `a`.
    pub pointing_a: AzEl,
    /// Pointing direction at endpoint `b`.
    pub pointing_b: AzEl,
    /// Slant range, meters.
    pub range_m: f64,
}

impl CandidateLink {
    /// Canonical identity key of the transceiver pairing.
    pub fn key(&self) -> (TransceiverId, TransceiverId) {
        (self.a, self.b)
    }
}

/// The platform of every link end, in link order, minus the ids that
/// repeat the one before them on the same side. The evaluator names
/// each platform in long runs of consecutive links, so callers that
/// only need the *set* of platforms sort a list near the platform
/// count rather than twice the link count; nothing here assumes that
/// grouping — an ungrouped graph just yields a longer list.
pub(crate) fn platform_runs(links: &[CandidateLink]) -> Vec<PlatformId> {
    let mut ids = Vec::new();
    let (mut last_a, mut last_b) = (None, None);
    for l in links {
        if last_a != Some(l.a.platform) {
            ids.push(l.a.platform);
            last_a = Some(l.a.platform);
        }
        if last_b != Some(l.b.platform) {
            ids.push(l.b.platform);
            last_b = Some(l.b.platform);
        }
    }
    ids
}

/// The candidate graph at one evaluation instant.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CandidateGraph {
    /// Evaluation instant.
    pub at: SimTime,
    /// All candidates (Acceptable + Marginal).
    pub links: Vec<CandidateLink>,
}

impl CandidateGraph {
    /// Number of candidates.
    pub fn len(&self) -> usize {
        self.links.len()
    }

    /// True when no candidates exist.
    pub fn is_empty(&self) -> bool {
        self.links.is_empty()
    }

    /// Count of balloon-to-balloon candidates.
    pub fn num_b2b(&self) -> usize {
        self.links
            .iter()
            .filter(|l| l.kind == LinkKind::B2B)
            .count()
    }

    /// Count of balloon-to-ground candidates.
    pub fn num_b2g(&self) -> usize {
        self.links
            .iter()
            .filter(|l| l.kind == LinkKind::B2G)
            .count()
    }

    /// The pairing-key set.
    pub fn key_set(&self) -> BTreeSet<(TransceiverId, TransceiverId)> {
        self.links.iter().map(|l| l.key()).collect()
    }

    /// Figure-4 churn vs an earlier graph: `(changed, union)` where
    /// `changed` is the symmetric difference size. The fraction
    /// `changed / union` is the per-interval delta the paper reports
    /// (13% median hour-to-hour). A single two-pointer sweep over the
    /// sorted key lists — no intermediate `BTreeSet`s.
    pub fn churn(&self, earlier: &CandidateGraph) -> (usize, usize) {
        let mut a: Vec<_> = self.links.iter().map(|l| l.key()).collect();
        let mut b: Vec<_> = earlier.links.iter().map(|l| l.key()).collect();
        a.sort_unstable();
        a.dedup();
        b.sort_unstable();
        b.dedup();
        let (mut i, mut j, mut inter, mut union) = (0usize, 0usize, 0usize, 0usize);
        while i < a.len() && j < b.len() {
            union += 1;
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    inter += 1;
                    i += 1;
                    j += 1;
                }
            }
        }
        union += (a.len() - i) + (b.len() - j);
        (union - inter, union)
    }
}

/// The Link Evaluator.
#[derive(Debug, Clone, Default)]
pub struct LinkEvaluator {
    /// Configuration.
    pub config: EvaluatorConfig,
}

impl LinkEvaluator {
    /// Evaluator with the given config.
    pub fn new(config: EvaluatorConfig) -> Self {
        LinkEvaluator { config }
    }

    /// Evaluate the candidate graph at instant `at` against the
    /// controller's model.
    ///
    /// This is the optimized sweep; it must produce a graph
    /// **bit-identical** to the naive all-pairs reference
    /// ([`crate::reference::evaluate_reference`]). What is computed
    /// where (DESIGN.md §7):
    ///
    /// * *per evaluate* — the pessimism-adjusted bands and each band's
    ///   [`BandConsts`] (attenuation coefficients, noise floor);
    /// * *per platform* — a [`PlatformSnap`]: predicted position, its
    ///   [`LocalFrame`] (ECEF image plus the sines and cosines pointing
    ///   needs) and every transceiver's boresight gain;
    /// * *per pair* — range, line of sight, the two pointing
    ///   directions, which antennas on each side can point, and one
    ///   walk of the path that yields every band's attenuation;
    /// * *per antenna pairing × band* — only the link-budget sum.
    ///
    /// A coarse spatial grid buckets platforms by `max_range_m` in
    /// ECEF, so only pairs within ±1 cell per axis — a superset of
    /// every pair within range — reach the slant-range/LoS math. Any
    /// pair farther apart than one cell edge on some axis is farther
    /// apart than `max_range_m` in space, which the naive sweep would
    /// discard at its range check anyway. The surviving pair list is
    /// sorted and fanned across scoped worker threads in contiguous
    /// chunks, merged back in chunk order. Candidate order is
    /// therefore the naive sweep's ascending-`PlatformId` pair order
    /// regardless of worker count (determinism contract: thread count
    /// never affects output).
    pub fn evaluate(&self, model: &NetworkModel, at: SimTime) -> CandidateGraph {
        let weather = ModelWeather { model };
        let bands = self.config.band_consts();

        // Snapshot the platforms that can form links at all, in
        // ascending-id order.
        let snaps: Vec<PlatformSnap<'_>> = model
            .platforms()
            .filter(|p| p.powered)
            .filter_map(|p| PlatformSnap::of(model, p, at))
            .collect();

        // Coarse spatial grid, cell edge = max_range_m: two points
        // within range always land within ±1 cell of each other on
        // every axis.
        let cell = self.config.max_range_m;
        let key_of = |e: &Ecef| -> (i64, i64, i64) {
            (
                (e.x / cell).floor() as i64,
                (e.y / cell).floor() as i64,
                (e.z / cell).floor() as i64,
            )
        };
        let mut grid: HashMap<(i64, i64, i64), Vec<u32>> = HashMap::new();
        for (i, snap) in snaps.iter().enumerate() {
            grid.entry(key_of(&snap.frame.ecef))
                .or_default()
                .push(i as u32);
        }
        let mut pairs: Vec<(u32, u32)> = Vec::new();
        for (i, snap) in snaps.iter().enumerate() {
            let (kx, ky, kz) = key_of(&snap.frame.ecef);
            for dx in -1..=1 {
                for dy in -1..=1 {
                    for dz in -1..=1 {
                        let Some(bucket) = grid.get(&(kx + dx, ky + dy, kz + dz)) else {
                            continue;
                        };
                        for &j in bucket {
                            if j > i as u32 {
                                pairs.push((i as u32, j));
                            }
                        }
                    }
                }
            }
        }
        // Sorted pair order == the naive sweep's ascending (i, j)
        // iteration order (filtering powered/positioned platforms
        // first preserves relative order).
        pairs.sort_unstable();

        // Fan the pair sweep out in contiguous chunks, merged in chunk
        // order, so the result is independent of how many workers run.
        // A sweep too small to be worth a thread does not ask how many
        // there are.
        let workers = if pairs.len() < 64 { 1 } else { host_workers() };
        let links = fan_out(&pairs, workers, |chunk| {
            let mut sweep = PairSweep::new(&self.config, &bands, &weather, at);
            for &(i, j) in chunk {
                sweep.evaluate_pair(&snaps[i as usize], &snaps[j as usize]);
            }
            sweep.out
        });
        CandidateGraph { at, links }
    }
}

/// One linkable platform as the pair sweep sees it: everything that
/// depends on the platform alone, computed once per evaluation.
pub(crate) struct PlatformSnap<'m> {
    info: &'m PlatformInfo,
    /// Predicted position at the evaluation instant.
    pos: GeoPoint,
    /// ECEF image of `pos` plus the trigonometry of its tangent frame.
    frame: LocalFrame,
    /// Boresight gain of each transceiver, in `info.transceivers` order.
    boresight_gain_dbi: Vec<f64>,
}

impl<'m> PlatformSnap<'m> {
    /// `None` when the model has no position for the platform.
    pub(crate) fn of(model: &NetworkModel, info: &'m PlatformInfo, at: SimTime) -> Option<Self> {
        let pos = model.predicted_position(info.id, at)?;
        let gain = |t: &tssdn_link::Transceiver| t.pattern.gain_dbi(0.0);
        Some(PlatformSnap {
            info,
            pos,
            frame: LocalFrame::of(&pos),
            boresight_gain_dbi: info.transceivers.iter().map(gain).collect(),
        })
    }
}

/// One worker's share of the pair sweep: the shared inputs plus the
/// scratch a pair needs, reused from pair to pair.
pub(crate) struct PairSweep<'a> {
    config: &'a EvaluatorConfig,
    bands: &'a [BandConsts],
    weather: &'a ModelWeather<'a>,
    at: SimTime,
    integrator: PathIntegrator<'a>,
    /// Indices of the antennas on each side that can point at the
    /// other platform.
    pointable_a: Vec<usize>,
    pointable_b: Vec<usize>,
    out: Vec<CandidateLink>,
}

impl<'a> PairSweep<'a> {
    pub(crate) fn new(
        config: &'a EvaluatorConfig,
        bands: &'a [BandConsts],
        weather: &'a ModelWeather<'a>,
        at: SimTime,
    ) -> Self {
        PairSweep {
            config,
            bands,
            weather,
            at,
            integrator: PathIntegrator::new(bands),
            pointable_a: Vec::new(),
            pointable_b: Vec::new(),
            out: Vec::new(),
        }
    }

    /// Evaluate one platform pair and append its candidates; the
    /// answer is how many, or why none (what `core::explain` reports —
    /// the sweep itself ignores it). The naive reference keeps its own
    /// verbatim copy of the pre-hoisting logic (per-pair band rebuild,
    /// per-band path walk, per-pairing gains).
    pub(crate) fn evaluate_pair(
        &mut self,
        a: &PlatformSnap<'_>,
        b: &PlatformSnap<'_>,
    ) -> PairAbsence {
        let (pa, pb) = (a.info, b.info);
        // Ground stations never pair with each other (they're wired).
        if pa.kind == PlatformKind::GroundStation && pb.kind == PlatformKind::GroundStation {
            return PairAbsence::GroundToGround;
        }
        // Geometric pruning common to all antenna combos. Slant range
        // is exactly the ECEF chord, so reusing the snapshot's
        // conversion is bit-identical to `GeoPoint::slant_range_m`.
        let range = a.frame.ecef.distance_m(&b.frame.ecef);
        if range > self.config.max_range_m {
            return PairAbsence::OutOfRange {
                range_m: range,
                limit_m: self.config.max_range_m,
            };
        }
        if !line_of_sight_clear(&a.pos, &b.pos, self.config.los_clearance_m) {
            return PairAbsence::NoLineOfSight;
        }
        let point_ab = PointingSolution::from_frame(&a.frame, &b.frame.ecef);
        let point_ba = PointingSolution::from_frame(&b.frame, &a.frame.ecef);
        let pointable = |info: &PlatformInfo, dir: &AzEl, out: &mut Vec<usize>| {
            out.clear();
            out.extend(
                info.transceivers
                    .iter()
                    .enumerate()
                    .filter(|(_, t)| t.can_point_at(dir))
                    .map(|(i, _)| i),
            );
        };
        pointable(pa, &point_ab.direction, &mut self.pointable_a);
        pointable(pb, &point_ba.direction, &mut self.pointable_b);
        for (info, pointable) in [(pa, &self.pointable_a), (pb, &self.pointable_b)] {
            if pointable.is_empty() {
                return PairAbsence::NoUsableAntenna(info.id);
            }
        }
        let kind = if pa.kind == PlatformKind::Balloon && pb.kind == PlatformKind::Balloon {
            LinkKind::B2B
        } else {
            LinkKind::B2G
        };

        // Path attenuation depends only on the platform pair and band
        // — one walk of the path serves every band and every antenna
        // pairing ("caching or precomputing attenuation values", §3.1).
        let attenuations =
            self.integrator
                .integrate(&a.pos, &b.pos, range, self.weather, self.at.as_ms());
        let first = self.out.len();
        let mut best_margin_db = f64::NEG_INFINITY;
        for &ai in &self.pointable_a {
            for &bi in &self.pointable_b {
                // Best band for this antenna pairing.
                let mut best: Option<(u8, tssdn_rf::LinkBudgetReport)> = None;
                for (band_i, band) in self.bands.iter().enumerate() {
                    let rep = band.evaluate(
                        a.boresight_gain_dbi[ai],
                        b.boresight_gain_dbi[bi],
                        attenuations[band_i],
                    );
                    best_margin_db = best_margin_db.max(rep.margin_db);
                    if rep.quality == LinkQuality::Infeasible {
                        continue;
                    }
                    let better = match &best {
                        None => true,
                        Some((_, b)) => rep.margin_db > b.margin_db,
                    };
                    if better {
                        best = Some((band_i as u8, rep));
                    }
                }
                if let Some((band, rep)) = best {
                    self.out.push(CandidateLink {
                        a: pa.transceivers[ai].id,
                        b: pb.transceivers[bi].id,
                        kind,
                        band,
                        bitrate_bps: rep.bitrate_bps,
                        margin_db: rep.margin_db,
                        quality: rep.quality,
                        pointing_a: point_ab.direction,
                        pointing_b: point_ba.direction,
                        range_m: range,
                    });
                }
            }
        }
        match self.out.len() - first {
            0 => PairAbsence::RfInfeasible { best_margin_db },
            count => PairAbsence::HasCandidates { count },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::WeatherSource;
    use tssdn_geo::GeoPoint;
    use tssdn_geo::TrajectorySample;
    use tssdn_link::Transceiver;
    use tssdn_rf::ItuSeasonal;
    use tssdn_sim::PlatformId;

    fn balloon_transceivers(id: PlatformId) -> Vec<Transceiver> {
        (0..3).map(|i| Transceiver::balloon(id, i)).collect()
    }

    fn gs_transceivers(id: PlatformId) -> Vec<Transceiver> {
        (0..2)
            .map(|i| {
                Transceiver::ground_station(id, i, tssdn_geo::FieldOfRegard::ground_station(2.0))
            })
            .collect()
    }

    fn fix(lat: f64, lon: f64, alt: f64) -> TrajectorySample {
        TrajectorySample {
            t_ms: 0,
            pos: GeoPoint::new(lat, lon, alt),
            vel_east_mps: 0.0,
            vel_north_mps: 0.0,
            vel_up_mps: 0.0,
        }
    }

    /// Two balloons 300 km apart plus one ground station under one of
    /// them.
    fn small_model() -> NetworkModel {
        let mut m = NetworkModel::new(WeatherSource::Itu(ItuSeasonal::tropical_wet()));
        for (i, lon) in [37.0, 39.7].iter().enumerate() {
            let id = PlatformId(i as u32);
            m.add_platform(
                id,
                tssdn_sim::PlatformKind::Balloon,
                balloon_transceivers(id),
            );
            m.report_position(id, fix(0.0, *lon, 18_000.0));
            m.report_power(id, true);
        }
        let gs = PlatformId(2);
        m.add_platform(
            gs,
            tssdn_sim::PlatformKind::GroundStation,
            gs_transceivers(gs),
        );
        m.report_position(gs, fix(0.3, 37.0, 1_500.0));
        m.report_power(gs, true);
        m
    }

    #[test]
    fn finds_b2b_and_b2g_candidates() {
        let m = small_model();
        let g = LinkEvaluator::default().evaluate(&m, SimTime::ZERO);
        assert!(g.num_b2b() > 0, "B2B candidates exist: {}", g.len());
        assert!(g.num_b2g() > 0, "B2G candidates exist");
        // Multiple antenna combos per platform pair.
        assert!(g.len() >= 3, "got {}", g.len());
    }

    #[test]
    fn unpowered_platform_yields_no_candidates() {
        let mut m = small_model();
        m.report_power(PlatformId(0), false);
        m.report_power(PlatformId(1), false);
        let g = LinkEvaluator::default().evaluate(&m, SimTime::ZERO);
        assert!(g.is_empty(), "only GS left powered; GS-GS is excluded");
    }

    #[test]
    fn out_of_range_pair_pruned() {
        let mut m = small_model();
        // Move balloon 1 to 1500 km away.
        m.report_position(PlatformId(1), fix(0.0, 50.5, 18_000.0));
        let g = LinkEvaluator::default().evaluate(&m, SimTime::ZERO);
        assert_eq!(g.num_b2b(), 0, "beyond max range");
    }

    #[test]
    fn evaluation_uses_predicted_future_positions() {
        let mut m = small_model();
        // Balloon 0 moving east fast: in 10 min it travels ~18 km.
        m.report_position(
            PlatformId(0),
            TrajectorySample {
                t_ms: 0,
                pos: GeoPoint::new(0.0, 37.0, 18_000.0),
                vel_east_mps: 30.0,
                vel_north_mps: 0.0,
                vel_up_mps: 0.0,
            },
        );
        let now_graph = LinkEvaluator::default().evaluate(&m, SimTime::ZERO);
        let later_graph = LinkEvaluator::default().evaluate(&m, SimTime::from_mins(10));
        // Ranges of B2B candidates shrink as balloon 0 drifts toward
        // balloon 1.
        let r0 = now_graph
            .links
            .iter()
            .find(|l| l.kind == LinkKind::B2B)
            .expect("b2b")
            .range_m;
        let r1 = later_graph
            .links
            .iter()
            .find(|l| l.kind == LinkKind::B2B)
            .expect("b2b")
            .range_m;
        assert!(
            r1 < r0 - 10_000.0,
            "prediction moved the balloon: {r0} -> {r1}"
        );
    }

    #[test]
    fn churn_metric_counts_symmetric_difference() {
        let m = small_model();
        let g0 = LinkEvaluator::default().evaluate(&m, SimTime::ZERO);
        let (changed, union) = g0.churn(&g0);
        assert_eq!(changed, 0);
        assert_eq!(union, g0.len());

        let mut m2 = small_model();
        m2.report_position(PlatformId(1), fix(0.0, 50.5, 18_000.0)); // out of range
        let g1 = LinkEvaluator::default().evaluate(&m2, SimTime::ZERO);
        let (changed, union) = g1.churn(&g0);
        assert!(changed > 0);
        assert!(union >= g0.len().max(g1.len()));
    }

    #[test]
    fn candidates_store_usable_pointing() {
        let m = small_model();
        let g = LinkEvaluator::default().evaluate(&m, SimTime::ZERO);
        for l in &g.links {
            // B2B pointing is near-horizontal; B2G from the GS points
            // up and from the balloon points down.
            if l.kind == LinkKind::B2B {
                assert!(l.pointing_a.el_deg.abs() < 5.0, "{:?}", l.pointing_a);
            }
            assert!(l.range_m > 0.0);
            assert!(l.bitrate_bps > 0 || l.quality == LinkQuality::Marginal);
        }
    }

    /// The hoists against the naive reference on inputs the default
    /// worlds never produce: three bands (one far off E band), a
    /// platform whose antennas have different boresight gains, and a
    /// gauges-over-forecast weather belief with a live gauge reading
    /// and a storm on the B2G paths, then with a NaN gauge reading and
    /// a negative forecast — on enough platforms that the threaded
    /// sweep engages where cores allow.
    #[test]
    fn hoisted_sweep_matches_reference_on_unusual_inputs() {
        use tssdn_rf::{AntennaPattern, ForecastView, RainCell, RainGauge, SyntheticWeather};
        let site = GeoPoint::new(0.3, 37.0, 1_500.0);
        let storm = SyntheticWeather::new().with_cell(RainCell {
            center: GeoPoint::new(0.2, 37.3, 0.0),
            vel_east_mps: 5.0,
            vel_north_mps: 0.0,
            radius_m: 30_000.0,
            peak_rain_mm_h: 35.0,
            start_ms: 0,
            end_ms: 6 * 3_600_000,
        });
        let belief = |intensity_scale| WeatherSource::GaugesAndForecast {
            gauges: vec![RainGauge {
                site,
                representative_radius_m: 25_000.0,
            }],
            forecast: ForecastView::new(storm.clone(), 10_000.0, 600_000, intensity_scale),
            backstop: ItuSeasonal::tropical_wet(),
        };
        let mut m = NetworkModel::new(belief(0.8));
        m.gauge_readings = vec![(site, 6.5, SimTime::from_hours(2))];
        for i in 0..12u32 {
            let id = PlatformId(i);
            let mut xs = balloon_transceivers(id);
            if i % 4 == 1 {
                // One dish of a different class on the same bus.
                xs[1].pattern = AntennaPattern::e_band_ground_station();
            }
            m.add_platform(id, tssdn_sim::PlatformKind::Balloon, xs);
            let (row, col) = ((i / 4) as f64, (i % 4) as f64);
            m.report_position(
                id,
                fix(-0.6 + 0.7 * row, 36.6 + 0.8 * col, 16_500.0 + 400.0 * col),
            );
            m.report_power(id, true);
        }
        let gs = PlatformId(12);
        m.add_platform(
            gs,
            tssdn_sim::PlatformKind::GroundStation,
            gs_transceivers(gs),
        );
        m.report_position(gs, fix(site.lat_deg, site.lon_deg, site.alt_m));
        m.report_power(gs, true);

        // Powers balanced so that every band is the best one somewhere:
        // the high channel's extra 1.15 dB just covers its extra
        // free-space loss on short stratospheric paths and not on long
        // ones, and the weak 38 GHz channel wins only under the storm.
        let evaluator = LinkEvaluator::new(EvaluatorConfig {
            bands: vec![
                RadioParams::e_band_low(),
                RadioParams {
                    tx_power_dbm: 26.15,
                    ..RadioParams::e_band_high()
                },
                RadioParams {
                    freq_ghz: 38.0,
                    tx_power_dbm: 12.0,
                    bandwidth_hz: 2.5e8,
                    ..RadioParams::e_band_low()
                },
            ],
            ..Default::default()
        });
        let at = SimTime::from_hours(2);
        let graph = evaluator.evaluate(&m, at);
        assert!(
            graph == crate::reference::evaluate_reference(&evaluator, &m, at),
            "optimized sweep diverged from the reference"
        );
        // The inputs did what they were chosen for: every band wins
        // somewhere, and both link kinds are present.
        for band in 0..3u8 {
            assert!(
                graph.links.iter().any(|l| l.band == band),
                "band {band} never selected"
            );
        }
        assert!(graph.num_b2b() > 0 && graph.num_b2g() > 0);

        // Hostile readings: a NaN gauge, which every B2G path crosses
        // below the rain height inside the gauge's circle (NaN margin,
        // pruned), and a forecast scaled by −1, whose storm is negative
        // rain and cloud the integral must treat as dry.
        m.weather = belief(-1.0);
        m.gauge_readings = vec![(site, f64::NAN, at)];
        let graph = evaluator.evaluate(&m, at);
        assert!(
            graph == crate::reference::evaluate_reference(&evaluator, &m, at),
            "optimized sweep diverged from the reference on a NaN gauge"
        );
        assert!(graph.num_b2b() > 0 && graph.num_b2g() == 0);
    }

    #[test]
    fn marginal_candidates_are_retained() {
        // B2B is line-of-sight-limited well before it is budget-limited
        // at Loon altitudes, so the marginal band shows up on long B2G
        // paths, where low-elevation absorption and climatological
        // moisture erode the margin. Sweep the GS→balloon ground range.
        let mut m = small_model();
        // Drop the second balloon so only the GS pair matters.
        m.report_power(PlatformId(1), false);
        let mut seen_marginal = false;
        for step in 0..60 {
            let lon = 37.3 + 0.05 * step as f64; // ~33..370 km ground range
            m.report_position(PlatformId(0), fix(0.3, lon, 18_000.0));
            let g = LinkEvaluator::default().evaluate(&m, SimTime::ZERO);
            if g.links.iter().any(|l| l.quality == LinkQuality::Marginal) {
                seen_marginal = true;
                break;
            }
        }
        assert!(
            seen_marginal,
            "no marginal B2G candidates across the range sweep"
        );
    }
}
