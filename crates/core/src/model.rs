//! The controller's model of the physical world.
//!
//! "Like other SDN controllers, it was programmed with static network
//! entities like interfaces and subnets ... To model the physical and
//! link layers, it also stored available radio parameters and antenna
//! properties, the 3-D positions and trajectories of platforms over
//! time, and the 3-D volumes of atmospheric conditions and forecasts"
//! (§3.1).
//!
//! Everything here is *belief*, not truth: positions come from
//! reports (and dead-reckoning between them), obstruction masks from
//! site surveys (which go stale), and weather from whichever source
//! stack is configured. The gap between this model and the
//! orchestrator's ground truth is the engine behind Figures 10/11/13.

use std::collections::BTreeMap;
use tssdn_geo::{GeoPoint, Trajectory, TrajectorySample};
use tssdn_link::{Transceiver, TransceiverId};
use tssdn_rf::{ItuSeasonal, RainGauge, SyntheticWeather, WeatherField, WeatherSample};
use tssdn_sim::{PlatformId, PlatformKind, SimTime};

/// Static + believed-dynamic state for one platform.
#[derive(Debug, Clone)]
pub struct PlatformInfo {
    /// Identity.
    pub id: PlatformId,
    /// Balloon or ground station.
    pub kind: PlatformKind,
    /// Transceiver inventory (3 for balloons, 2 for ground stations).
    pub transceivers: Vec<Transceiver>,
    /// Reported position history with prediction.
    pub trajectory: Trajectory,
    /// Whether the controller believes the payload is powered.
    pub powered: bool,
}

/// The controller's weather belief: a priority stack of sources.
///
/// §5: "we evolved the system to prioritize data freshness when
/// considering solver inputs. For example, preferring weather data
/// from ground station sensors and real time network telemetry proved
/// more accurate than relying on weather forecasts alone."
#[derive(Clone)]
pub enum WeatherSource {
    /// ITU-R regional-seasonal climatology only (the backstop).
    Itu(ItuSeasonal),
    /// Forecast (possibly erroneous) over the climatology backstop.
    Forecast(tssdn_rf::ForecastView, ItuSeasonal),
    /// Gauges near ground stations override the forecast locally;
    /// forecast elsewhere; climatology backstop.
    GaugesAndForecast {
        /// Site gauges (read live from truth by the orchestrator and
        /// written into [`NetworkModel::gauge_readings`]).
        gauges: Vec<RainGauge>,
        /// The forecast view.
        forecast: tssdn_rf::ForecastView,
        /// Climatology for everywhere else.
        backstop: ItuSeasonal,
    },
}

impl std::fmt::Debug for WeatherSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WeatherSource::Itu(_) => write!(f, "WeatherSource::Itu"),
            WeatherSource::Forecast(..) => write!(f, "WeatherSource::Forecast"),
            WeatherSource::GaugesAndForecast { .. } => {
                write!(f, "WeatherSource::GaugesAndForecast")
            }
        }
    }
}

/// The full controller-side model.
pub struct NetworkModel {
    platforms: BTreeMap<PlatformId, PlatformInfo>,
    /// Weather belief.
    pub weather: WeatherSource,
    /// Latest gauge readings (site → rain mm/h), refreshed by the
    /// orchestrator each cycle when gauges are configured.
    pub gauge_readings: Vec<(GeoPoint, f64, SimTime)>,
}

impl NetworkModel {
    /// An empty model with the given weather belief.
    pub fn new(weather: WeatherSource) -> Self {
        NetworkModel {
            platforms: BTreeMap::new(),
            weather,
            gauge_readings: Vec::new(),
        }
    }

    /// Register a platform with its transceivers.
    pub fn add_platform(
        &mut self,
        id: PlatformId,
        kind: PlatformKind,
        transceivers: Vec<Transceiver>,
    ) {
        self.platforms.insert(
            id,
            PlatformInfo {
                id,
                kind,
                transceivers,
                trajectory: Trajectory::with_capacity(32),
                powered: false,
            },
        );
    }

    /// All platforms.
    pub fn platforms(&self) -> impl Iterator<Item = &PlatformInfo> {
        self.platforms.values()
    }

    /// One platform.
    pub fn platform(&self, id: PlatformId) -> Option<&PlatformInfo> {
        self.platforms.get(&id)
    }

    /// Mutable platform access (orchestrator feeds reports through
    /// here; validation updates masks).
    pub fn platform_mut(&mut self, id: PlatformId) -> Option<&mut PlatformInfo> {
        self.platforms.get_mut(&id)
    }

    /// Transceiver lookup.
    pub fn transceiver(&self, id: TransceiverId) -> Option<&Transceiver> {
        self.platforms
            .get(&id.platform)?
            .transceivers
            .get(id.index as usize)
    }

    /// Ingest a position report.
    pub fn report_position(&mut self, id: PlatformId, sample: TrajectorySample) {
        if let Some(p) = self.platforms.get_mut(&id) {
            p.trajectory.push(sample);
        }
    }

    /// Ingest a power-state report.
    pub fn report_power(&mut self, id: PlatformId, powered: bool) {
        if let Some(p) = self.platforms.get_mut(&id) {
            p.powered = powered;
        }
    }

    /// Predicted position of a platform at `t` (None before any
    /// report).
    pub fn predicted_position(&self, id: PlatformId, t: SimTime) -> Option<GeoPoint> {
        self.platforms.get(&id)?.trajectory.position_at(t.as_ms())
    }

    /// The modelled weather at a point/time, applying the source
    /// stack's freshness priority.
    pub fn modelled_weather(&self, pos: &GeoPoint, t: SimTime) -> WeatherSample {
        match &self.weather {
            WeatherSource::Itu(itu) => itu.sample(pos, t.as_ms()),
            WeatherSource::Forecast(fc, itu) => {
                let f = fc.sample(pos, t.as_ms());
                f.max(itu.sample(pos, t.as_ms()))
            }
            WeatherSource::GaugesAndForecast {
                gauges,
                forecast,
                backstop,
            } => {
                // Gauge freshness first: a covering gauge overrides
                // everything for rain rate.
                for (i, g) in gauges.iter().enumerate() {
                    if g.covers(pos) {
                        if let Some((_, rain, _)) = self.gauge_readings.get(i) {
                            let cloud = forecast
                                .sample(pos, t.as_ms())
                                .cloud_lwc_g_m3
                                .max(backstop.sample(pos, t.as_ms()).cloud_lwc_g_m3);
                            // Gauges measure at the surface; no rain
                            // above the rain height regardless.
                            let rain = if pos.alt_m < tssdn_rf::rain::RAIN_HEIGHT_M {
                                *rain
                            } else {
                                0.0
                            };
                            return WeatherSample {
                                rain_mm_h: rain,
                                cloud_lwc_g_m3: cloud,
                            };
                        }
                    }
                }
                let f = forecast.sample(pos, t.as_ms());
                f.max(backstop.sample(pos, t.as_ms()))
            }
        }
    }
}

/// Build the controller's weather-field adapter over the model for a
/// fixed evaluation instant — lets `tssdn-rf`'s path integration use
/// the model as a [`WeatherField`].
pub struct ModelWeather<'a> {
    /// The model to read.
    pub model: &'a NetworkModel,
}

impl WeatherField for ModelWeather<'_> {
    fn sample(&self, pos: &GeoPoint, t_ms: u64) -> WeatherSample {
        self.model.modelled_weather(pos, SimTime(t_ms))
    }

    /// The highest of the stack's sources: a sample is one source's or
    /// the `max` of two, and a gauge reading stands only below the
    /// rain height.
    fn clear_above_m(&self) -> f64 {
        match &self.model.weather {
            WeatherSource::Itu(itu) => itu.clear_above_m(),
            WeatherSource::Forecast(fc, itu) => fc.clear_above_m().max(itu.clear_above_m()),
            WeatherSource::GaugesAndForecast {
                forecast, backstop, ..
            } => forecast
                .clear_above_m()
                .max(backstop.clear_above_m())
                .max(tssdn_rf::rain::RAIN_HEIGHT_M),
        }
    }
}

/// A truth-weather wrapper the orchestrator uses: plain re-export of
/// the synthetic truth so both sides use the same trait.
pub struct TruthWeather {
    /// The ground-truth field.
    pub truth: SyntheticWeather,
}

impl WeatherField for TruthWeather {
    fn sample(&self, pos: &GeoPoint, t_ms: u64) -> WeatherSample {
        self.truth.sample(pos, t_ms)
    }

    fn clear_above_m(&self) -> f64 {
        self.truth.clear_above_m()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tssdn_rf::{ForecastView, RainCell};

    fn cell() -> RainCell {
        // A 6-hour storm; tests sample mid-life (intensity ramps in
        // and out over the first/last 10% of the lifetime).
        RainCell {
            center: GeoPoint::new(-1.0, 36.8, 0.0),
            vel_east_mps: 0.0,
            vel_north_mps: 0.0,
            radius_m: 15_000.0,
            peak_rain_mm_h: 40.0,
            start_ms: 0,
            end_ms: 6 * 3600 * 1000,
        }
    }

    fn sample(id: u32, t_s: u64, lon: f64) -> TrajectorySample {
        let _ = id;
        TrajectorySample {
            t_ms: t_s * 1000,
            pos: GeoPoint::new(0.0, lon, 18_000.0),
            vel_east_mps: 10.0,
            vel_north_mps: 0.0,
            vel_up_mps: 0.0,
        }
    }

    #[test]
    fn positions_dead_reckon_between_reports() {
        let mut m = NetworkModel::new(WeatherSource::Itu(ItuSeasonal::tropical_wet()));
        m.add_platform(PlatformId(0), PlatformKind::Balloon, vec![]);
        m.report_position(PlatformId(0), sample(0, 0, 37.0));
        let p = m
            .predicted_position(PlatformId(0), SimTime::from_secs(100))
            .expect("predicted");
        // 10 m/s for 100 s → ~1 km east.
        let d = GeoPoint::new(0.0, 37.0, 18_000.0).ground_distance_m(&p);
        assert!((d - 1000.0).abs() < 20.0, "got {d}");
    }

    #[test]
    fn unknown_platform_has_no_position() {
        let m = NetworkModel::new(WeatherSource::Itu(ItuSeasonal::tropical_wet()));
        assert!(m.predicted_position(PlatformId(9), SimTime::ZERO).is_none());
    }

    #[test]
    fn itu_source_is_constant_everywhere() {
        let m = NetworkModel::new(WeatherSource::Itu(ItuSeasonal::tropical_wet()));
        let a = m.modelled_weather(&GeoPoint::new(0.0, 36.0, 1000.0), SimTime::ZERO);
        let b = m.modelled_weather(&GeoPoint::new(-1.5, 38.0, 1000.0), SimTime::from_hours(5));
        assert_eq!(a, b);
        assert!(a.rain_mm_h > 0.0, "pessimistic climatology");
    }

    #[test]
    fn forecast_source_sees_displaced_cell() {
        let truth = SyntheticWeather::new().with_cell(cell());
        let fc = ForecastView::perfect(truth);
        let m = NetworkModel::new(WeatherSource::Forecast(fc, ItuSeasonal::tropical_wet()));
        let at_cell = m.modelled_weather(&GeoPoint::new(-1.0, 36.8, 500.0), SimTime::from_hours(3));
        let far = m.modelled_weather(&GeoPoint::new(1.5, 39.0, 500.0), SimTime::from_hours(3));
        assert!(
            at_cell.rain_mm_h > 20.0,
            "forecast sees the storm: {at_cell:?}"
        );
        assert!(far.rain_mm_h < 2.0, "background is climatology: {far:?}");
    }

    #[test]
    fn gauge_reading_overrides_forecast_near_site() {
        let truth = SyntheticWeather::new().with_cell(cell());
        // A forecast that hallucinates heavy rain everywhere.
        let fc = ForecastView::new(truth, 0.0, 0, 10.0);
        let site = GeoPoint::new(-1.0, 36.8, 1600.0);
        let gauges = vec![RainGauge {
            site,
            representative_radius_m: 30_000.0,
        }];
        let mut m = NetworkModel::new(WeatherSource::GaugesAndForecast {
            gauges,
            forecast: fc,
            backstop: ItuSeasonal::tropical_wet(),
        });
        // Orchestrator wrote a fresh dry gauge reading.
        m.gauge_readings = vec![(site, 0.0, SimTime::ZERO)];
        let near = m.modelled_weather(&GeoPoint::new(-1.05, 36.85, 500.0), SimTime::from_hours(3));
        assert_eq!(near.rain_mm_h, 0.0, "gauge says dry, gauge wins: {near:?}");
    }

    #[test]
    fn power_reports_tracked() {
        let mut m = NetworkModel::new(WeatherSource::Itu(ItuSeasonal::tropical_wet()));
        m.add_platform(PlatformId(0), PlatformKind::Balloon, vec![]);
        assert!(!m.platform(PlatformId(0)).expect("exists").powered);
        m.report_power(PlatformId(0), true);
        assert!(m.platform(PlatformId(0)).expect("exists").powered);
    }
}
