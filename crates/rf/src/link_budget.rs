//! End-to-end candidate-link evaluation: the RF half of the paper's
//! Link Evaluator (§3.1).
//!
//! For a transceiver pair at a given instant we integrate attenuation
//! along the transmission vector (free-space loss plus gaseous, rain
//! and cloud absorption sampled along the slant path), apply antenna
//! gains and pointing loss, and map the resulting SNR to the highest
//! bitrate whose required margin is met. Links whose margin lands
//! within [`RadioParams::marginal_band_db`] *below* acceptable are
//! annotated [`LinkQuality::Marginal`]: "links just below the
//! acceptable margin were retained and annotated as marginal.
//! Marginal links were penalized during solving, but attempted when
//! no acceptable links were available" (per §3.1 of the paper).

use crate::antenna::AntennaPattern;
use crate::weather::{WeatherField, WeatherSample};
use crate::{atmosphere, fspl, rain};
use tssdn_geo::GeoPoint;

/// Adaptive modulation/coding table: `(min SNR dB, bitrate bps)`,
/// highest rate first. E-band radios were "each capable of up to
/// 1 Gbps" (§2.2).
pub const BITRATE_TABLE: &[(f64, u64)] = &[
    (22.0, 1_000_000_000),
    (19.0, 800_000_000),
    (16.0, 600_000_000),
    (13.0, 400_000_000),
    (10.0, 200_000_000),
    (7.0, 100_000_000),
    (4.0, 50_000_000),
];

/// Minimum SNR at which any link can close (lowest table entry).
pub fn min_usable_snr_db() -> f64 {
    BITRATE_TABLE.last().expect("non-empty table").0
}

/// The MCS capacity ladder keyed by *link margin* — the `margin_db`
/// field of [`LinkBudgetReport`], i.e. dB above the minimum-usable SNR
/// ([`min_usable_snr_db`]): `(min margin dB, capacity Mbps)`, highest
/// rate first.
///
/// This is [`BITRATE_TABLE`] re-expressed in the data plane's
/// vocabulary. Planning asks "what rate closes with the *required*
/// margin of headroom?" (that is `LinkBudgetReport::bitrate_bps`);
/// the established radio's adaptive coding instead runs at the best
/// rate the *current* SNR supports, with no headroom reserved — so an
/// E-band link carries up to 1 Gbps at full margin and sheds MCS steps
/// as weather fade erodes the margin, down to 50 Mbps at the lowest
/// step and zero once the link cannot close at all.
pub const MCS_CAPACITY_TABLE: &[(f64, f64)] = &[
    (18.0, 1000.0),
    (15.0, 800.0),
    (12.0, 600.0),
    (9.0, 400.0),
    (6.0, 200.0),
    (3.0, 100.0),
    (0.0, 50.0),
];

/// Instantaneous data-plane capacity of an established link whose
/// current margin is `margin_db`, in Mbps.
///
/// Looks up the highest [`MCS_CAPACITY_TABLE`] step the margin meets;
/// a negative margin (the link cannot close) carries nothing. The
/// traffic engine derives per-link fluid capacities from true link
/// margins through this one function, so weather fade on a path shows
/// up as MCS down-steps exactly where the attenuation integral says it
/// should.
pub fn capacity_mbps(margin_db: f64) -> f64 {
    MCS_CAPACITY_TABLE
        .iter()
        .find(|(min_margin, _)| margin_db >= *min_margin)
        .map(|&(_, mbps)| mbps)
        .unwrap_or(0.0)
}

/// Radio/link-evaluation parameters for one RF band configuration.
#[derive(Debug, Clone, Copy)]
pub struct RadioParams {
    /// Carrier frequency, GHz.
    pub freq_ghz: f64,
    /// Transmit power, dBm.
    pub tx_power_dbm: f64,
    /// Channel bandwidth, Hz.
    pub bandwidth_hz: f64,
    /// Receiver noise figure, dB.
    pub noise_figure_db: f64,
    /// Required margin above the MCS threshold for a link to be
    /// "acceptable" (a configuration parameter per §3.1).
    pub required_margin_db: f64,
    /// Width of the marginal band below acceptable, dB. The paper
    /// "deprioritized links within 5 dB of the minimum signal
    /// strength" (§5).
    pub marginal_band_db: f64,
    /// Fixed implementation losses (radome, feed, polarization), dB.
    pub implementation_loss_db: f64,
}

impl RadioParams {
    /// Loon-class E-band low channel (71–76 GHz).
    pub fn e_band_low() -> Self {
        RadioParams {
            freq_ghz: 73.5,
            tx_power_dbm: 25.0,
            bandwidth_hz: 1.0e9,
            noise_figure_db: 6.0,
            required_margin_db: 3.0,
            marginal_band_db: 5.0,
            implementation_loss_db: 2.0,
        }
    }

    /// Loon-class E-band high channel (81–86 GHz).
    pub fn e_band_high() -> Self {
        RadioParams {
            freq_ghz: 83.5,
            ..Self::e_band_low()
        }
    }

    /// Receiver noise floor, dBm.
    pub fn noise_floor_dbm(&self) -> f64 {
        crate::noise_floor_dbm(self.bandwidth_hz, self.noise_figure_db)
    }
}

/// Where each dB of path attenuation went — kept so telemetry and the
/// model-error experiments (E6, E11) can attribute loss per source,
/// like the artifact's Transceiver Link Reports record "the sources of
/// attenuation".
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct AttenuationBreakdown {
    /// Free-space path loss, dB.
    pub fspl_db: f64,
    /// Integrated gaseous absorption, dB.
    pub gaseous_db: f64,
    /// Integrated rain attenuation, dB.
    pub rain_db: f64,
    /// Integrated cloud attenuation, dB.
    pub cloud_db: f64,
}

impl AttenuationBreakdown {
    /// Total attenuation, dB.
    pub fn total_db(&self) -> f64 {
        self.fspl_db + self.gaseous_db + self.rain_db + self.cloud_db
    }

    /// Attenuation from weather-dependent sources only, dB.
    pub fn moisture_db(&self) -> f64 {
        self.rain_db + self.cloud_db
    }
}

/// Whether a candidate link meets margin requirements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinkQuality {
    /// Margin at or above the required level.
    Acceptable,
    /// Within the marginal band below required margin: penalized but
    /// attemptable.
    Marginal,
    /// Cannot close at any supported bitrate.
    Infeasible,
}

/// The output of evaluating one transceiver pair at one instant: the
/// modelled bitrate and margin the Solver consumes (Appendix B's
/// `b_modelled`, `m_modelled`).
#[derive(Debug, Clone, Copy)]
pub struct LinkBudgetReport {
    /// Received signal power, dBm.
    pub rx_power_dbm: f64,
    /// Signal-to-noise ratio, dB.
    pub snr_db: f64,
    /// Highest supportable bitrate with the required margin, bps
    /// (0 when infeasible).
    pub bitrate_bps: u64,
    /// Margin above the minimum-bitrate threshold, dB. Negative when
    /// the link cannot close at all.
    pub margin_db: f64,
    /// Quality classification for the Solver.
    pub quality: LinkQuality,
    /// Per-source attenuation attribution.
    pub attenuation: AttenuationBreakdown,
}

/// Everything about one RF band that the Link Evaluator's inner loops
/// would otherwise recompute: the frequency-only factors of the
/// attenuation models and the receiver noise floor. Built once per
/// band per evaluation ("caching or precomputing attenuation values",
/// §3.1); every product the path integral forms with these is the
/// same product the per-step formulas in [`atmosphere`] / [`rain`]
/// form, with only the loop-invariant factor hoisted.
#[derive(Debug, Clone, Copy)]
pub struct BandConsts {
    /// The band's radio parameters.
    pub params: RadioParams,
    /// `92.45 + 20·log10(f)`: the band's share of free-space loss.
    fspl_frequency_db: f64,
    /// Sea-level oxygen-continuum attenuation, dB/km.
    oxygen_db_per_km: f64,
    /// Sea-level water-vapor-continuum attenuation, dB/km.
    vapor_db_per_km: f64,
    /// P.838 `(k, α)` of `γ_rain = k · R^α`.
    rain_k: f64,
    rain_alpha: f64,
    /// P.840 `K_l` of `γ_cloud = K_l · M`.
    cloud_k_l: f64,
    /// Receiver noise floor, dBm.
    noise_floor_dbm: f64,
}

impl BandConsts {
    /// Precompute the band's constants.
    pub fn new(params: &RadioParams) -> Self {
        let (rain_k, rain_alpha) = rain::rain_coefficients(params.freq_ghz);
        BandConsts {
            params: *params,
            fspl_frequency_db: fspl::frequency_term_db(params.freq_ghz),
            oxygen_db_per_km: atmosphere::oxygen_coefficient(params.freq_ghz),
            vapor_db_per_km: atmosphere::vapor_coefficient(params.freq_ghz),
            rain_k,
            rain_alpha,
            cloud_k_l: atmosphere::cloud_coefficient(params.freq_ghz),
            noise_floor_dbm: params.noise_floor_dbm(),
        }
    }

    /// Integrate this band's attenuation along `a → b`: the one-band
    /// walk of the integral [`PathIntegrator`] runs for many. A caller
    /// that evaluates one link at a time against long-lived bands
    /// keeps the `BandConsts` and pairs this with [`Self::evaluate`].
    pub fn path_attenuation<W: WeatherField>(
        &self,
        a: &GeoPoint,
        b: &GeoPoint,
        weather: &W,
        t_ms: u64,
    ) -> AttenuationBreakdown {
        let mut out = [AttenuationBreakdown::default()];
        integrate_path(
            a,
            b,
            a.slant_range_m(b),
            std::slice::from_ref(self),
            weather,
            t_ms,
            &mut [RainPower::EMPTY],
            &mut out,
        );
        out[0]
    }

    /// Finish a link budget on this band from a precomputed path
    /// attenuation. The attenuation depends only on the endpoints and
    /// the band, so a caller evaluating many antenna pairings of one
    /// platform pair (the Link Evaluator's inner loop) computes it
    /// once and calls this per pairing.
    pub fn evaluate(
        &self,
        tx_gain_dbi: f64,
        rx_gain_dbi: f64,
        attenuation: AttenuationBreakdown,
    ) -> LinkBudgetReport {
        let params = &self.params;
        let rx_power_dbm = params.tx_power_dbm + tx_gain_dbi + rx_gain_dbi
            - attenuation.total_db()
            - params.implementation_loss_db;
        let snr_db = rx_power_dbm - self.noise_floor_dbm;
        let margin_db = snr_db - min_usable_snr_db();

        // Highest bitrate whose threshold + required margin the SNR meets.
        let bitrate_bps = BITRATE_TABLE
            .iter()
            .find(|(thr, _)| snr_db >= thr + params.required_margin_db)
            .map(|&(_, b)| b)
            .unwrap_or(0);

        let quality = if margin_db >= params.required_margin_db {
            LinkQuality::Acceptable
        } else if margin_db >= params.required_margin_db - params.marginal_band_db {
            LinkQuality::Marginal
        } else {
            LinkQuality::Infeasible
        };

        LinkBudgetReport {
            rx_power_dbm,
            snr_db,
            bitrate_bps,
            margin_db,
            quality,
            attenuation,
        }
    }
}

/// Number of integration steps along the slant path. 32 samples over a
/// ≤700 km path gives ≤22 km steps; attenuating structures (rain
/// cells) are ≥10 km across so this resolves them while keeping the
/// evaluator fast enough to run over the whole candidate set.
const PATH_STEPS: usize = 32;

/// `R^α` for the last rain rate a band saw, keyed on the rate's bit
/// pattern: climatological fields report the same ambient rate at
/// every step below the rain height, so one `powf` serves a whole
/// path (and the next).
#[derive(Debug, Clone, Copy)]
struct RainPower {
    rate_bits: u64,
    power: f64,
}

impl RainPower {
    /// No rate seen yet: a rate of `+0.0` never reaches the memo (it
    /// attenuates nothing), so its bit pattern is free to mean "empty".
    const EMPTY: RainPower = RainPower {
        rate_bits: 0,
        power: 0.0,
    };

    fn of(&mut self, rain_mm_h: f64, alpha: f64) -> f64 {
        if self.rate_bits != rain_mm_h.to_bits() {
            *self = RainPower {
                rate_bits: rain_mm_h.to_bits(),
                power: rain_mm_h.powf(alpha),
            };
        }
        self.power
    }
}

/// The path integral proper, for every band of `bands` in one walk.
///
/// Per step, once: the sample point, the two altitude decay factors
/// and the weather sample — none depends on the band. Per step per
/// band: `(oxy·e₁ + vap·e₂)·step_km`, `k·R^α·step_km` and
/// `K_l·M·step_km`, accumulated in step order — the same expression
/// tree and addend order as integrating each band alone through
/// [`atmosphere::gaseous_db_per_km`], [`rain::rain_db_per_km`] and
/// [`atmosphere::cloud_db_per_km`], so every band's result is
/// bit-identical to that.
///
/// A step at or above the field's [`WeatherField::clear_above_m`] is
/// not sampled: it is the dry sample the field promises there, so rain
/// and cloud still receive the `0.0·step_km` a dry step adds.
#[allow(clippy::too_many_arguments)]
fn integrate_path<W: WeatherField>(
    a: &GeoPoint,
    b: &GeoPoint,
    dist_m: f64,
    bands: &[BandConsts],
    weather: &W,
    t_ms: u64,
    rain_power: &mut [RainPower],
    out: &mut [AttenuationBreakdown],
) {
    let fspl_range_db = fspl::range_term_db(dist_m);
    for (acc, band) in out.iter_mut().zip(bands) {
        *acc = AttenuationBreakdown {
            fspl_db: band.fspl_frequency_db + fspl_range_db,
            ..Default::default()
        };
    }
    let step_km = dist_m / 1000.0 / PATH_STEPS as f64;
    let clear_above_m = weather.clear_above_m();
    for i in 0..PATH_STEPS {
        let f = (i as f64 + 0.5) / PATH_STEPS as f64;
        let alt_m = a.alt_m + f * (b.alt_m - a.alt_m);
        let (oxygen_decay, vapor_decay) = atmosphere::altitude_decay(alt_m);
        let w = if alt_m >= clear_above_m {
            WeatherSample::default()
        } else {
            // Linear blend in geodetic space is adequate at these spans.
            let p = GeoPoint::new(
                a.lat_deg + f * (b.lat_deg - a.lat_deg),
                a.lon_deg + f * (b.lon_deg - a.lon_deg),
                alt_m,
            );
            weather.sample(&p, t_ms)
        };
        let raining = w.rain_mm_h > 0.0 || w.rain_mm_h.is_nan();
        let cloudy = w.cloud_lwc_g_m3 > 0.0 || w.cloud_lwc_g_m3.is_nan();
        for ((acc, band), memo) in out.iter_mut().zip(bands).zip(rain_power.iter_mut()) {
            acc.gaseous_db += (band.oxygen_db_per_km * oxygen_decay
                + band.vapor_db_per_km * vapor_decay)
                * step_km;
            let rain_db_per_km = if raining {
                band.rain_k * memo.of(w.rain_mm_h, band.rain_alpha)
            } else {
                0.0
            };
            acc.rain_db += rain_db_per_km * step_km;
            let cloud_db_per_km = if cloudy {
                band.cloud_k_l * w.cloud_lwc_g_m3
            } else {
                0.0
            };
            acc.cloud_db += cloud_db_per_km * step_km;
        }
    }
}

/// A reusable multi-band path integrator: the bands' constants plus
/// the scratch the integral needs, sized from `bands.len()`. The Link
/// Evaluator keeps one per worker and calls [`Self::integrate`] once
/// per platform pair.
#[derive(Debug, Clone)]
pub struct PathIntegrator<'b> {
    bands: &'b [BandConsts],
    rain_power: Vec<RainPower>,
    out: Vec<AttenuationBreakdown>,
}

impl<'b> PathIntegrator<'b> {
    /// An integrator over `bands`.
    pub fn new(bands: &'b [BandConsts]) -> Self {
        PathIntegrator {
            bands,
            rain_power: vec![RainPower::EMPTY; bands.len()],
            out: vec![AttenuationBreakdown::default(); bands.len()],
        }
    }

    /// Integrate weather + gaseous attenuation along `a → b` at time
    /// `t_ms` for every band at once; element `i` of the result is
    /// band `i`'s breakdown. `dist_m` is the slant range `a → b`,
    /// which the caller already has.
    pub fn integrate<W: WeatherField>(
        &mut self,
        a: &GeoPoint,
        b: &GeoPoint,
        dist_m: f64,
        weather: &W,
        t_ms: u64,
    ) -> &[AttenuationBreakdown] {
        integrate_path(
            a,
            b,
            dist_m,
            self.bands,
            weather,
            t_ms,
            &mut self.rain_power,
            &mut self.out,
        );
        &self.out
    }
}

/// Integrate weather + gaseous attenuation along the path `a → b` at
/// time `t_ms` against `weather`: the one-band entry into the same
/// integral [`PathIntegrator`] runs for many.
pub fn path_attenuation_db<W: WeatherField>(
    a: &GeoPoint,
    b: &GeoPoint,
    params: &RadioParams,
    weather: &W,
    t_ms: u64,
) -> AttenuationBreakdown {
    BandConsts::new(params).path_attenuation(a, b, weather, t_ms)
}

/// Evaluate the full link budget for a transceiver pair, building the
/// band's constants for this one call.
///
/// `tx_offset_deg` / `rx_offset_deg` are each antenna's pointing error
/// from boresight-on-target; 0 for a perfectly tracked link, the
/// side-lobe offset for a mis-locked one.
#[allow(clippy::too_many_arguments)]
pub fn evaluate_link<W: WeatherField>(
    tx_pos: &GeoPoint,
    rx_pos: &GeoPoint,
    params: &RadioParams,
    tx_pattern: &AntennaPattern,
    rx_pattern: &AntennaPattern,
    tx_offset_deg: f64,
    rx_offset_deg: f64,
    weather: &W,
    t_ms: u64,
) -> LinkBudgetReport {
    let band = BandConsts::new(params);
    band.evaluate(
        tx_pattern.gain_dbi(tx_offset_deg),
        rx_pattern.gain_dbi(rx_offset_deg),
        band.path_attenuation(tx_pos, rx_pos, weather, t_ms),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::weather::{ClearSky, RainCell, SyntheticWeather};

    fn balloon_at(lon: f64) -> GeoPoint {
        GeoPoint::new(0.0, lon, 18_000.0)
    }

    fn eval_b2b<W: WeatherField>(dist_km: f64, weather: &W) -> LinkBudgetReport {
        let a = balloon_at(36.0);
        let b = balloon_at(36.0 + dist_km / 111.2);
        let p = RadioParams::e_band_low();
        let pat = AntennaPattern::e_band_balloon();
        evaluate_link(&a, &b, &p, &pat, &pat, 0.0, 0.0, weather, 0)
    }

    #[test]
    fn b2b_at_500km_closes_at_high_bitrate() {
        let r = eval_b2b(500.0, &ClearSky);
        assert_eq!(r.quality, LinkQuality::Acceptable);
        assert!(r.bitrate_bps >= 200_000_000, "got {} bps", r.bitrate_bps);
    }

    #[test]
    fn b2b_close_range_hits_1gbps() {
        let r = eval_b2b(100.0, &ClearSky);
        assert_eq!(r.bitrate_bps, 1_000_000_000);
    }

    #[test]
    fn b2b_at_700km_still_feasible_but_slower() {
        let r = eval_b2b(700.0, &ClearSky);
        assert_ne!(
            r.quality,
            LinkQuality::Infeasible,
            "paper: max B2B range 700+ km"
        );
        let near = eval_b2b(300.0, &ClearSky);
        assert!(r.bitrate_bps < near.bitrate_bps);
    }

    #[test]
    fn b2b_attenuation_is_weather_free_at_altitude() {
        let r = eval_b2b(500.0, &ClearSky);
        assert!(
            r.attenuation.gaseous_db < 1.0,
            "stratospheric path: {}",
            r.attenuation.gaseous_db
        );
        assert_eq!(r.attenuation.rain_db, 0.0);
    }

    fn eval_b2g<W: WeatherField>(ground_km: f64, weather: &W) -> LinkBudgetReport {
        let gs = GeoPoint::new(0.0, 36.0, 1_600.0);
        let b = GeoPoint::new(0.0, 36.0 + ground_km / 111.2, 18_000.0);
        let p = RadioParams::e_band_low();
        let gs_pat = AntennaPattern::e_band_ground_station();
        let b_pat = AntennaPattern::e_band_balloon();
        evaluate_link(&gs, &b, &p, &gs_pat, &b_pat, 0.0, 0.0, weather, 0)
    }

    #[test]
    fn b2g_at_130km_closes_in_clear_weather() {
        // "ground stations were able to reliably establish B2G links
        // with balloons at a slant-range of 130 km under good weather"
        let r = eval_b2g(130.0, &ClearSky);
        assert_eq!(r.quality, LinkQuality::Acceptable);
        assert!(r.bitrate_bps >= 400_000_000);
    }

    #[test]
    fn b2g_maintainable_at_250km() {
        let r = eval_b2g(250.0, &ClearSky);
        assert_ne!(
            r.quality,
            LinkQuality::Infeasible,
            "paper: maintained to 250+ km"
        );
    }

    #[test]
    fn rain_cell_on_path_degrades_b2g() {
        let clear = eval_b2g(150.0, &ClearSky);
        // Park a thunderstorm near the ground station.
        let storm = SyntheticWeather::new().with_cell(RainCell {
            center: GeoPoint::new(0.0, 36.2, 0.0),
            vel_east_mps: 0.0,
            vel_north_mps: 0.0,
            radius_m: 15_000.0,
            peak_rain_mm_h: 40.0,
            start_ms: 0,
            end_ms: u64::MAX / 2,
        });
        let mid = u64::MAX / 4; // well inside the ramped window
        let gs = GeoPoint::new(0.0, 36.0, 1_600.0);
        let b = GeoPoint::new(0.0, 36.0 + 150.0 / 111.2, 18_000.0);
        let p = RadioParams::e_band_low();
        let gs_pat = AntennaPattern::e_band_ground_station();
        let b_pat = AntennaPattern::e_band_balloon();
        let r = evaluate_link(&gs, &b, &p, &gs_pat, &b_pat, 0.0, 0.0, &storm, mid);
        assert!(
            r.attenuation.rain_db > 5.0,
            "rain on path: {:?}",
            r.attenuation
        );
        assert!(r.snr_db < clear.snr_db - 5.0);
    }

    #[test]
    fn sidelobe_lock_costs_14db() {
        let pat = AntennaPattern::e_band_balloon();
        let aligned = eval_b2b(300.0, &ClearSky);
        let a = balloon_at(36.0);
        let b = balloon_at(36.0 + 300.0 / 111.2);
        let p = RadioParams::e_band_low();
        let mislocked = evaluate_link(
            &a,
            &b,
            &p,
            &pat,
            &pat,
            pat.first_sidelobe_offset_deg(),
            0.0,
            &ClearSky,
            0,
        );
        let delta = aligned.rx_power_dbm - mislocked.rx_power_dbm;
        assert!((delta - 14.0).abs() < 0.5, "got {delta}");
    }

    #[test]
    fn marginal_band_classification() {
        // Find a range where quality transitions; verify the marginal
        // band appears between acceptable and infeasible.
        let mut saw = (false, false, false);
        // Sweep well past physical LOS range: the budget function is
        // pure RF; geometry pruning is tssdn-geo's job.
        for km in (400..5000).step_by(20) {
            let r = eval_b2b(km as f64, &ClearSky);
            match r.quality {
                LinkQuality::Acceptable => saw.0 = true,
                LinkQuality::Marginal => {
                    saw.1 = true;
                    assert!(saw.0, "marginal appears after acceptable as range grows");
                }
                LinkQuality::Infeasible => {
                    saw.2 = true;
                    assert!(saw.1, "infeasible appears after marginal");
                }
            }
        }
        assert!(
            saw.0 && saw.1 && saw.2,
            "all three classes observed: {saw:?}"
        );
    }

    #[test]
    fn report_margin_consistent_with_snr() {
        let r = eval_b2b(500.0, &ClearSky);
        assert!((r.margin_db - (r.snr_db - min_usable_snr_db())).abs() < 1e-9);
        assert!(
            (r.snr_db - (r.rx_power_dbm - RadioParams::e_band_low().noise_floor_dbm())).abs()
                < 1e-9
        );
    }

    #[test]
    fn capacity_table_is_bitrate_table_in_margin_units() {
        // The MCS capacity ladder must stay in lock-step with the
        // planning bitrate table: same number of steps, each keyed by
        // (SNR threshold − minimum-usable SNR) and carrying the same
        // rate in Mbps.
        assert_eq!(MCS_CAPACITY_TABLE.len(), BITRATE_TABLE.len());
        for (&(margin, mbps), &(thr, bps)) in MCS_CAPACITY_TABLE.iter().zip(BITRATE_TABLE.iter()) {
            assert!((margin - (thr - min_usable_snr_db())).abs() < 1e-12);
            assert!((mbps - bps as f64 / 1e6).abs() < 1e-12);
        }
    }

    #[test]
    fn capacity_at_threshold_boundaries() {
        // Exactly at a step boundary the higher rate is granted; an
        // epsilon below it is not.
        for &(min_margin, mbps) in MCS_CAPACITY_TABLE {
            assert_eq!(capacity_mbps(min_margin), mbps, "at boundary {min_margin}");
            let below = capacity_mbps(min_margin - 1e-9);
            assert!(
                below < mbps,
                "margin {min_margin}-ε must not grant {mbps} Mbps"
            );
        }
    }

    #[test]
    fn capacity_extremes() {
        // Negative margin: the link cannot close; nothing flows.
        assert_eq!(capacity_mbps(-0.001), 0.0);
        assert_eq!(capacity_mbps(-30.0), 0.0);
        // Capped at the 1 Gbps E-band radio limit however much margin.
        assert_eq!(capacity_mbps(18.0), 1000.0);
        assert_eq!(capacity_mbps(60.0), 1000.0);
        // Bottom step: barely-closing links crawl at 50 Mbps.
        assert_eq!(capacity_mbps(0.0), 50.0);
        assert_eq!(capacity_mbps(2.999), 50.0);
    }

    #[test]
    fn capacity_degrades_monotonically_with_fade() {
        let mut last = f64::INFINITY;
        for tenth in (-50..250).rev() {
            let c = capacity_mbps(tenth as f64 / 10.0);
            assert!(c <= last, "capacity must fall as margin fades");
            last = c;
        }
    }

    #[test]
    fn bitrate_requires_margin_above_threshold() {
        // SNR exactly at a table threshold should NOT grant that rate
        // (needs threshold + required margin).
        let p = RadioParams::e_band_low();
        for &(thr, rate) in BITRATE_TABLE {
            // Construct: snr a hair below thr + margin.
            let snr = thr + p.required_margin_db - 0.01;
            let got = BITRATE_TABLE
                .iter()
                .find(|(t, _)| snr >= t + p.required_margin_db)
                .map(|&(_, b)| b)
                .unwrap_or(0);
            assert!(got < rate, "snr {snr} must not grant {rate}");
        }
    }
}
