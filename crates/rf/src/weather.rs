//! Weather truth, forecasts, gauges, and gridded interpolation.
//!
//! §5 of the paper describes three weather-data vectors: ITU-R
//! regional-seasonal estimates, rain gauges at ground-station sites,
//! and ECMWF forecasts — and finds forecasts "didn't have sufficient
//! accuracy and fidelity to be relied upon". To reproduce those
//! trade-offs we model weather *truth* as moving convective rain
//! cells, then expose degraded observations of that truth:
//!
//! * [`RainGauge`] — accurate but point-local and real-time only.
//! * [`ForecastView`] — full 4-D coverage but with position, timing
//!   and intensity error (tunable, so E11 can sweep forecast skill).
//! * [`ItuSeasonal`] — a constant climatological average, the
//!   "backstop" (§3.1).
//!
//! [`WeatherGrid`] reproduces the evaluator optimization of "caching
//! or precomputing attenuation values for volumes of the atmosphere,
//! and then assembling them using 4-D linear interpolation" (§3.1).

use tssdn_geo::GeoPoint;

/// Local weather at one point and instant.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct WeatherSample {
    /// Rain rate, mm/h (0 when not raining at this point).
    pub rain_mm_h: f64,
    /// Cloud liquid-water content, g/m³.
    pub cloud_lwc_g_m3: f64,
}

impl WeatherSample {
    /// Element-wise maximum — used when layering fields.
    pub fn max(self, other: WeatherSample) -> WeatherSample {
        WeatherSample {
            rain_mm_h: self.rain_mm_h.max(other.rain_mm_h),
            cloud_lwc_g_m3: self.cloud_lwc_g_m3.max(other.cloud_lwc_g_m3),
        }
    }
}

/// Any source of weather data: truth, forecast, or climatology.
pub trait WeatherField {
    /// Weather at `pos` at time `t_ms`.
    fn sample(&self, pos: &GeoPoint, t_ms: u64) -> WeatherSample;

    /// An altitude at and above which the field is dry: every sample
    /// whose `alt_m >= clear_above_m()` has rain and cloud `<= 0`, and
    /// neither is NaN, whatever its latitude, longitude and time. The
    /// path integral does not sample such a step (DESIGN.md §7). The
    /// default, `+∞`, claims nothing.
    fn clear_above_m(&self) -> f64 {
        f64::INFINITY
    }
}

/// The ceiling of a field that holds rain only below
/// [`crate::rain::RAIN_HEIGHT_M`] and cloud only inside
/// [`crate::atmosphere::in_cloud_layer`].
fn troposphere_top_m() -> f64 {
    crate::rain::RAIN_HEIGHT_M.max(crate::atmosphere::CLOUD_TOP_M)
}

/// No weather at all — clear, dry sky.
#[derive(Debug, Clone, Copy, Default)]
pub struct ClearSky;

impl WeatherField for ClearSky {
    fn sample(&self, _pos: &GeoPoint, _t_ms: u64) -> WeatherSample {
        WeatherSample::default()
    }

    fn clear_above_m(&self) -> f64 {
        f64::NEG_INFINITY
    }
}

/// ITU-R-style regional-seasonal climatological average: constant
/// light loss everywhere, independent of actual conditions. The paper
/// intentionally chose "a pessimistic level from the ITU-R regional
/// seasonal average model" (§5), which is why measured signal ran
/// ~4.3 dB *better* than modelled on average (Figure 10).
#[derive(Debug, Clone, Copy)]
pub struct ItuSeasonal {
    /// Assumed ambient rain rate, mm/h.
    pub ambient_rain_mm_h: f64,
    /// Assumed ambient cloud water, g/m³.
    pub ambient_cloud_g_m3: f64,
}

impl ItuSeasonal {
    /// Pessimistic tropical wet-season default, calibrated so a
    /// ~150 km B2G path loses ≈4–7 dB relative to clear sky — the
    /// scale of the paper's +4.3 dB measured-better-than-modelled
    /// shift. (A naive "average rain everywhere" assumption would add
    /// tens of dB and model every long B2G link as dead.)
    pub fn tropical_wet() -> Self {
        ItuSeasonal {
            ambient_rain_mm_h: 0.09,
            ambient_cloud_g_m3: 0.02,
        }
    }
}

impl WeatherField for ItuSeasonal {
    fn sample(&self, pos: &GeoPoint, _t_ms: u64) -> WeatherSample {
        // Climatology applies below the rain height / cloud tops only.
        WeatherSample {
            rain_mm_h: if pos.alt_m < crate::rain::RAIN_HEIGHT_M {
                self.ambient_rain_mm_h
            } else {
                0.0
            },
            cloud_lwc_g_m3: if crate::atmosphere::in_cloud_layer(pos.alt_m) {
                self.ambient_cloud_g_m3
            } else {
                0.0
            },
        }
    }

    fn clear_above_m(&self) -> f64 {
        troposphere_top_m()
    }
}

/// A moving convective rain cell: Gaussian in the horizontal, active
/// over a time window, drifting with the tropospheric wind.
#[derive(Debug, Clone, Copy)]
pub struct RainCell {
    /// Cell center at `start_ms`.
    pub center: GeoPoint,
    /// Drift velocity east, m/s.
    pub vel_east_mps: f64,
    /// Drift velocity north, m/s.
    pub vel_north_mps: f64,
    /// 1-sigma horizontal radius, meters.
    pub radius_m: f64,
    /// Peak rain rate at the center, mm/h.
    pub peak_rain_mm_h: f64,
    /// Cell becomes active at this time, ms.
    pub start_ms: u64,
    /// Cell dissipates at this time, ms.
    pub end_ms: u64,
}

impl RainCell {
    /// Cell center position at time `t_ms`.
    fn center_at(&self, t_ms: u64) -> GeoPoint {
        let dt = t_ms.saturating_sub(self.start_ms) as f64 / 1000.0;
        self.center
            .offset(self.vel_east_mps * dt, self.vel_north_mps * dt, 0.0)
    }

    /// Rain rate contributed by this cell at `pos`/`t_ms`.
    fn rain_at(&self, pos: &GeoPoint, t_ms: u64) -> f64 {
        if t_ms < self.start_ms || t_ms > self.end_ms {
            return 0.0;
        }
        if pos.alt_m >= crate::rain::RAIN_HEIGHT_M {
            return 0.0;
        }
        let c = self.center_at(t_ms);
        let d = c.ground_distance_m(&GeoPoint::new(pos.lat_deg, pos.lon_deg, 0.0));
        // Intensity ramps in/out over the first/last 10% of the lifetime.
        let life = (self.end_ms - self.start_ms).max(1) as f64;
        let age = (t_ms - self.start_ms) as f64 / life;
        let ramp = (age * 10.0).min((1.0 - age) * 10.0).clamp(0.0, 1.0);
        self.peak_rain_mm_h * ramp * (-0.5 * (d / self.radius_m).powi(2)).exp()
    }

    /// Cloud water associated with the cell (clouds extend ~2× the
    /// rain footprint and persist at altitudes up to the cloud layer).
    fn cloud_at(&self, pos: &GeoPoint, t_ms: u64) -> f64 {
        if t_ms < self.start_ms || t_ms > self.end_ms {
            return 0.0;
        }
        if !crate::atmosphere::in_cloud_layer(pos.alt_m) {
            return 0.0;
        }
        let c = self.center_at(t_ms);
        let d = c.ground_distance_m(&GeoPoint::new(pos.lat_deg, pos.lon_deg, 0.0));
        let sigma = self.radius_m * 2.0;
        // Peak LWC scales with rain intensity, capped at thick cumulus.
        let peak = (self.peak_rain_mm_h / 40.0).min(1.0);
        peak * (-0.5 * (d / sigma).powi(2)).exp()
    }
}

/// Ground-truth weather: a set of rain cells over a clear background.
#[derive(Debug, Clone, Default)]
pub struct SyntheticWeather {
    cells: Vec<RainCell>,
}

impl SyntheticWeather {
    /// Truth with no cells (clear).
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a rain cell.
    pub fn add_cell(&mut self, cell: RainCell) {
        self.cells.push(cell);
    }

    /// Builder-style [`Self::add_cell`].
    pub fn with_cell(mut self, cell: RainCell) -> Self {
        self.add_cell(cell);
        self
    }

    /// The configured cells.
    pub fn cells(&self) -> &[RainCell] {
        &self.cells
    }
}

impl WeatherField for SyntheticWeather {
    fn sample(&self, pos: &GeoPoint, t_ms: u64) -> WeatherSample {
        let mut s = WeatherSample::default();
        for c in &self.cells {
            s.rain_mm_h += c.rain_at(pos, t_ms);
            s.cloud_lwc_g_m3 = s.cloud_lwc_g_m3.max(c.cloud_at(pos, t_ms));
        }
        s
    }

    /// Every cell answers `0.0` above the rain height (rain) and
    /// outside the cloud layer (cloud) before it reads anything else.
    fn clear_above_m(&self) -> f64 {
        troposphere_top_m()
    }
}

/// A degraded view of truth, standing in for an ECMWF forecast.
///
/// The forecast sees every cell, but displaced by `position_error_m`
/// along its drift direction, shifted `timing_error_ms` in time, and
/// with intensity scaled by `intensity_scale`. Setting all errors to
/// zero yields a perfect forecast (useful as an experiment control).
#[derive(Debug, Clone)]
pub struct ForecastView {
    truth: SyntheticWeather,
    /// Horizontal displacement applied to every cell, meters.
    pub position_error_m: f64,
    /// Forecast timing offset, ms (cells appear this much later).
    pub timing_error_ms: i64,
    /// Multiplier on predicted intensity.
    pub intensity_scale: f64,
}

impl ForecastView {
    /// Wrap `truth` with the given error parameters.
    pub fn new(
        truth: SyntheticWeather,
        position_error_m: f64,
        timing_error_ms: i64,
        intensity_scale: f64,
    ) -> Self {
        Self {
            truth,
            position_error_m,
            timing_error_ms,
            intensity_scale,
        }
    }

    /// A perfect forecast of `truth`.
    pub fn perfect(truth: SyntheticWeather) -> Self {
        Self::new(truth, 0.0, 0, 1.0)
    }
}

impl WeatherField for ForecastView {
    fn sample(&self, pos: &GeoPoint, t_ms: u64) -> WeatherSample {
        // Query the truth at a displaced position/time to model error:
        // equivalent to every cell being mis-placed by the same offset.
        let shifted_t = if self.timing_error_ms >= 0 {
            t_ms.saturating_sub(self.timing_error_ms as u64)
        } else {
            t_ms + (-self.timing_error_ms) as u64
        };
        let shifted_pos = pos.offset(self.position_error_m, 0.0, 0.0);
        let s = self.truth.sample(&shifted_pos, shifted_t);
        WeatherSample {
            rain_mm_h: s.rain_mm_h * self.intensity_scale,
            cloud_lwc_g_m3: s.cloud_lwc_g_m3 * self.intensity_scale,
        }
    }

    /// The displacement is horizontal, so the truth is read at the
    /// sample's own altitude; its zeros stay `<= 0` and not NaN under
    /// the scale only while the scale is finite (`0 · ∞` is NaN).
    fn clear_above_m(&self) -> f64 {
        if self.intensity_scale.is_finite() {
            self.truth.clear_above_m()
        } else {
            f64::INFINITY
        }
    }
}

/// A rain gauge at a fixed site: reads truth exactly, but only at its
/// own location. "Preferring weather data from ground station sensors
/// ... proved more accurate than relying on weather forecasts alone"
/// (§5).
#[derive(Debug, Clone, Copy)]
pub struct RainGauge {
    /// Gauge location.
    pub site: GeoPoint,
    /// Radius within which the gauge reading is considered
    /// representative, meters.
    pub representative_radius_m: f64,
}

impl RainGauge {
    /// Read the gauge at `t_ms` against a truth field.
    pub fn read<F: WeatherField>(&self, truth: &F, t_ms: u64) -> f64 {
        truth.sample(&self.site, t_ms).rain_mm_h
    }

    /// Whether `pos` is close enough for the gauge to speak for it.
    pub fn covers(&self, pos: &GeoPoint) -> bool {
        self.site
            .ground_distance_m(&GeoPoint::new(pos.lat_deg, pos.lon_deg, self.site.alt_m))
            <= self.representative_radius_m
    }
}

/// A precomputed 4-D (lat, lon, alt, time) grid over a weather field
/// with quadrilinear interpolation — the paper's attenuation-volume
/// cache (§3.1). Sampling the grid is much cheaper than evaluating
/// many rain cells, at the cost of resolution ("coarse temporal &
/// spatial granularity of weather inputs" is model-error source #2 in
/// §5 — this type *is* that error source, measurably).
#[derive(Debug, Clone)]
pub struct WeatherGrid {
    lat0: f64,
    lon0: f64,
    dlat: f64,
    dlon: f64,
    alt0: f64,
    dalt: f64,
    t0_ms: u64,
    dt_ms: u64,
    nlat: usize,
    nlon: usize,
    nalt: usize,
    nt: usize,
    /// Row-major [t][alt][lat][lon] rain then cloud.
    rain: Vec<f32>,
    cloud: Vec<f32>,
}

impl WeatherGrid {
    /// Sample `field` over a box `[lat0, lat0+dlat*(nlat-1)] × ...`
    /// at the given resolutions.
    #[allow(clippy::too_many_arguments)]
    pub fn build<F: WeatherField>(
        field: &F,
        lat0: f64,
        dlat: f64,
        nlat: usize,
        lon0: f64,
        dlon: f64,
        nlon: usize,
        alt0: f64,
        dalt: f64,
        nalt: usize,
        t0_ms: u64,
        dt_ms: u64,
        nt: usize,
    ) -> Self {
        assert!(
            nlat >= 2 && nlon >= 2 && nalt >= 2 && nt >= 2,
            "grid needs ≥2 points per axis"
        );
        let mut rain = Vec::with_capacity(nlat * nlon * nalt * nt);
        let mut cloud = Vec::with_capacity(nlat * nlon * nalt * nt);
        for it in 0..nt {
            let t = t0_ms + dt_ms * it as u64;
            for ia in 0..nalt {
                let alt = alt0 + dalt * ia as f64;
                for ilat in 0..nlat {
                    let lat = lat0 + dlat * ilat as f64;
                    for ilon in 0..nlon {
                        let lon = lon0 + dlon * ilon as f64;
                        let s = field.sample(&GeoPoint::new(lat, lon, alt), t);
                        rain.push(s.rain_mm_h as f32);
                        cloud.push(s.cloud_lwc_g_m3 as f32);
                    }
                }
            }
        }
        WeatherGrid {
            lat0,
            lon0,
            dlat,
            dlon,
            alt0,
            dalt,
            t0_ms,
            dt_ms,
            nlat,
            nlon,
            nalt,
            nt,
            rain,
            cloud,
        }
    }

    #[inline]
    fn idx(&self, it: usize, ia: usize, ilat: usize, ilon: usize) -> usize {
        ((it * self.nalt + ia) * self.nlat + ilat) * self.nlon + ilon
    }

    /// Fractional index along one axis, clamped to the grid.
    #[inline]
    fn frac(v: f64, v0: f64, dv: f64, n: usize) -> (usize, f64) {
        let x = ((v - v0) / dv).clamp(0.0, (n - 1) as f64);
        let i = (x.floor() as usize).min(n - 2);
        (i, x - i as f64)
    }
}

impl WeatherField for WeatherGrid {
    fn sample(&self, pos: &GeoPoint, t_ms: u64) -> WeatherSample {
        let (ilat, flat) = Self::frac(pos.lat_deg, self.lat0, self.dlat, self.nlat);
        let (ilon, flon) = Self::frac(pos.lon_deg, self.lon0, self.dlon, self.nlon);
        let (ia, fa) = Self::frac(pos.alt_m, self.alt0, self.dalt, self.nalt);
        let (it, ft) = Self::frac(t_ms as f64, self.t0_ms as f64, self.dt_ms as f64, self.nt);
        let mut rain = 0.0f64;
        let mut cloud = 0.0f64;
        for (dt, wt) in [(0usize, 1.0 - ft), (1, ft)] {
            for (da, wa) in [(0usize, 1.0 - fa), (1, fa)] {
                for (dlat, wlat) in [(0usize, 1.0 - flat), (1, flat)] {
                    for (dlon, wlon) in [(0usize, 1.0 - flon), (1, flon)] {
                        let w = wt * wa * wlat * wlon;
                        if w == 0.0 {
                            continue;
                        }
                        let i = self.idx(it + dt, ia + da, ilat + dlat, ilon + dlon);
                        rain += w * self.rain[i] as f64;
                        cloud += w * self.cloud[i] as f64;
                    }
                }
            }
        }
        WeatherSample {
            rain_mm_h: rain,
            cloud_lwc_g_m3: cloud,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_cell() -> RainCell {
        RainCell {
            center: GeoPoint::new(-1.0, 36.8, 0.0),
            vel_east_mps: 8.0,
            vel_north_mps: 0.0,
            radius_m: 10_000.0,
            peak_rain_mm_h: 40.0,
            start_ms: 0,
            end_ms: 6 * 3600 * 1000,
        }
    }

    #[test]
    fn clear_sky_is_always_dry() {
        let w = ClearSky;
        let s = w.sample(&GeoPoint::new(0.0, 0.0, 100.0), 12345);
        assert_eq!(s, WeatherSample::default());
    }

    #[test]
    fn cell_peak_at_center_midlife() {
        let c = test_cell();
        let mid = 3 * 3600 * 1000;
        let center = c.center_at(mid);
        let r = c.rain_at(&GeoPoint::new(center.lat_deg, center.lon_deg, 100.0), mid);
        assert!((r - 40.0).abs() < 0.5, "got {r}");
    }

    #[test]
    fn cell_rain_decays_with_distance() {
        let c = test_cell();
        let mid = 3 * 3600 * 1000;
        let center = c.center_at(mid);
        let near = c.rain_at(&GeoPoint::new(center.lat_deg, center.lon_deg, 100.0), mid);
        let far = c.rain_at(&center.offset(30_000.0, 0.0, 0.0), mid);
        assert!(far < near / 10.0);
    }

    #[test]
    fn no_rain_above_rain_height() {
        let c = test_cell();
        let mid = 3 * 3600 * 1000;
        let center = c.center_at(mid);
        let high = GeoPoint::new(center.lat_deg, center.lon_deg, 17_000.0);
        assert_eq!(c.rain_at(&high, mid), 0.0);
    }

    #[test]
    fn cell_inactive_outside_time_window() {
        let c = test_cell();
        let p = GeoPoint::new(-1.0, 36.8, 100.0);
        assert_eq!(c.rain_at(&p, c.end_ms + 1), 0.0);
        let late = RainCell {
            start_ms: 1000,
            ..c
        };
        assert_eq!(late.rain_at(&p, 0), 0.0);
    }

    #[test]
    fn cell_drifts_east() {
        let c = test_cell();
        let t = 3600 * 1000; // 1 h at 8 m/s → 28.8 km east
        let moved = c.center_at(t);
        let d = c.center.ground_distance_m(&moved);
        assert!((d - 28_800.0).abs() < 300.0, "got {d}");
        assert!(moved.lon_deg > c.center.lon_deg);
    }

    #[test]
    fn perfect_forecast_matches_truth() {
        let truth = SyntheticWeather::new().with_cell(test_cell());
        let fc = ForecastView::perfect(truth.clone());
        let p = GeoPoint::new(-1.05, 36.9, 200.0);
        let t = 2 * 3600 * 1000;
        let a = truth.sample(&p, t);
        let b = fc.sample(&p, t);
        assert!((a.rain_mm_h - b.rain_mm_h).abs() < 1e-9);
    }

    #[test]
    fn displaced_forecast_misses_the_cell_peak() {
        let truth = SyntheticWeather::new().with_cell(test_cell());
        let fc = ForecastView::new(truth.clone(), 25_000.0, 0, 1.0);
        let mid = 3 * 3600 * 1000;
        let center = test_cell().center_at(mid);
        let p = GeoPoint::new(center.lat_deg, center.lon_deg, 100.0);
        let t_truth = truth.sample(&p, mid).rain_mm_h;
        let t_fc = fc.sample(&p, mid).rain_mm_h;
        assert!(t_fc < t_truth / 3.0, "forecast {t_fc} vs truth {t_truth}");
    }

    #[test]
    fn gauge_reads_truth_at_site() {
        let truth = SyntheticWeather::new().with_cell(test_cell());
        let mid = 3 * 3600 * 1000;
        let center = test_cell().center_at(mid);
        let g = RainGauge {
            site: GeoPoint::new(center.lat_deg, center.lon_deg, 1600.0),
            representative_radius_m: 20_000.0,
        };
        let r = g.read(&truth, mid);
        assert!(r > 30.0);
        assert!(g.covers(&g.site.offset(10_000.0, 0.0, 0.0)));
        assert!(!g.covers(&g.site.offset(50_000.0, 0.0, 0.0)));
    }

    #[test]
    fn grid_interpolation_close_to_truth_at_grid_scale() {
        let truth = SyntheticWeather::new().with_cell(test_cell());
        let grid = WeatherGrid::build(
            &truth, -2.0, 0.05, 41, // lat: −2..0 in 0.05° steps (~5.5 km)
            36.0, 0.05, 41, // lon: 36..38
            0.0, 2_000.0, 6, // alt: 0..10 km
            0, 600_000, 37, // time: 0..6 h in 10-min steps
        );
        let mid = 3 * 3600 * 1000;
        let center = test_cell().center_at(mid);
        let p = GeoPoint::new(center.lat_deg, center.lon_deg, 500.0);
        let t = truth.sample(&p, mid).rain_mm_h;
        let g = grid.sample(&p, mid).rain_mm_h;
        assert!((t - g).abs() < 0.15 * t.max(1.0), "truth {t} grid {g}");
    }

    #[test]
    fn grid_clamps_outside_box() {
        let truth = SyntheticWeather::new().with_cell(test_cell());
        let grid = WeatherGrid::build(
            &truth, -2.0, 0.1, 21, 36.0, 0.1, 21, 0.0, 2_000.0, 6, 0, 600_000, 10,
        );
        // Far outside the box: clamped sample, finite values.
        let s = grid.sample(&GeoPoint::new(50.0, -120.0, 100.0), 99_999_999_999);
        assert!(s.rain_mm_h.is_finite() && s.rain_mm_h >= 0.0);
    }

    #[test]
    fn itu_seasonal_constant_below_rain_height() {
        let itu = ItuSeasonal::tropical_wet();
        let low = itu.sample(&GeoPoint::new(0.0, 36.0, 1_000.0), 0);
        let high = itu.sample(&GeoPoint::new(0.0, 36.0, 18_000.0), 0);
        assert!(low.rain_mm_h > 0.0 && low.cloud_lwc_g_m3 > 0.0);
        assert_eq!(high.rain_mm_h, 0.0);
        assert_eq!(high.cloud_lwc_g_m3, 0.0);
    }
}
