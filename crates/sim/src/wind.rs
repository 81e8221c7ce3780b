//! Layered stratospheric wind field.
//!
//! "Loon's Fleet Management Software modeled winds at different
//! altitudes, then automatically instructed balloons to change
//! altitude to catch the desired wind currents" (§2.2). The essential
//! property is *vertical wind shear*: different altitude layers carry
//! different, slowly evolving wind vectors, so altitude choice gives a
//! balloon (limited, probabilistic) steering.
//!
//! Each layer's wind vector follows an Ornstein–Uhlenbeck process
//! around a layer-specific prevailing wind; a mild spatially-varying
//! perturbation decorrelates balloons that are far apart. The OU
//! update is driven by a dedicated RNG stream, so identical seeds give
//! identical weather-systems-scale wind histories.

use crate::rng::RngStreams;
use crate::time::{SimDuration, SimTime};
use rand::Rng;
use rand_chacha::ChaCha8Rng;
use tssdn_geo::GeoPoint;

/// Wind at a point: east/north components, m/s.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct WindSample {
    pub east_mps: f64,
    pub north_mps: f64,
}

impl WindSample {
    /// Wind speed, m/s.
    pub fn speed_mps(&self) -> f64 {
        (self.east_mps * self.east_mps + self.north_mps * self.north_mps).sqrt()
    }
}

/// One altitude layer of the wind field.
#[derive(Debug, Clone)]
pub struct WindLayer {
    /// Bottom of the layer, meters.
    pub floor_m: f64,
    /// Top of the layer, meters.
    pub ceil_m: f64,
    /// Long-term prevailing wind for this layer.
    pub prevailing: WindSample,
    /// Current OU state (deviation from prevailing).
    state: WindSample,
    /// OU mean-reversion rate, 1/s.
    theta: f64,
    /// OU noise magnitude, m/s per sqrt(s).
    sigma: f64,
}

impl WindLayer {
    /// Current layer-average wind.
    pub fn current(&self) -> WindSample {
        WindSample {
            east_mps: self.prevailing.east_mps + self.state.east_mps,
            north_mps: self.prevailing.north_mps + self.state.north_mps,
        }
    }

    fn step(&mut self, dt_s: f64, rng: &mut ChaCha8Rng) {
        // Euler–Maruyama OU update; gaussian noise via Box–Muller from
        // two uniform draws (avoids pulling in rand_distr).
        let sqrt_dt = dt_s.sqrt();
        let (g1, g2) = gaussian_pair(rng);
        self.state.east_mps += -self.theta * self.state.east_mps * dt_s + self.sigma * sqrt_dt * g1;
        self.state.north_mps +=
            -self.theta * self.state.north_mps * dt_s + self.sigma * sqrt_dt * g2;
    }
}

fn gaussian_pair(rng: &mut ChaCha8Rng) -> (f64, f64) {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    let r = (-2.0 * u1.ln()).sqrt();
    let t = 2.0 * std::f64::consts::PI * u2;
    (r * t.cos(), r * t.sin())
}

/// The full layered wind field.
#[derive(Debug, Clone)]
pub struct WindField {
    layers: Vec<WindLayer>,
    rng: ChaCha8Rng,
    last_step: SimTime,
    /// Spatial decorrelation wavelength, meters.
    spatial_wavelength_m: f64,
    /// Magnitude of spatial perturbation, m/s.
    spatial_amplitude_mps: f64,
}

impl WindField {
    /// A Loon-like stratospheric wind column: five layers between 15
    /// and 20 km with distinct prevailing directions (vertical shear),
    /// speeds 4–18 m/s.
    pub fn loon_stratosphere(streams: &RngStreams) -> Self {
        let mut rng = streams.stream("wind-init");
        let mut layers = Vec::new();
        // Prevailing direction rotates with altitude (realistic shear);
        // speeds drawn once at setup from the init stream.
        let base_heading: f64 = rng.gen_range(0.0..360.0);
        for i in 0..5 {
            let floor = 15_000.0 + 1_000.0 * i as f64;
            let heading = tssdn_geo::deg_to_rad(base_heading + 65.0 * i as f64);
            let speed: f64 = rng.gen_range(4.0..18.0);
            layers.push(WindLayer {
                floor_m: floor,
                ceil_m: floor + 1_000.0,
                prevailing: WindSample {
                    east_mps: speed * heading.sin(),
                    north_mps: speed * heading.cos(),
                },
                state: WindSample::default(),
                // Mean reversion over ~6 h; wander of a few m/s.
                theta: 1.0 / (6.0 * 3600.0),
                sigma: 0.05,
            });
        }
        WindField {
            layers,
            rng: streams.stream("wind-evolve"),
            last_step: SimTime::ZERO,
            spatial_wavelength_m: 400_000.0,
            spatial_amplitude_mps: 2.0,
        }
    }

    /// The configured layers.
    pub fn layers(&self) -> &[WindLayer] {
        &self.layers
    }

    /// Advance the field to `now`. Internally steps in ≤10-minute
    /// increments to keep the OU discretization stable.
    pub fn advance_to(&mut self, now: SimTime) {
        const MAX_STEP: SimDuration = SimDuration(600_000);
        while self.last_step < now {
            let next = (self.last_step + MAX_STEP).min(now);
            let dt_s = (next - self.last_step).as_secs_f64();
            for layer in &mut self.layers {
                layer.step(dt_s, &mut self.rng);
            }
            self.last_step = next;
        }
    }

    /// Wind at `pos` (uses the layer containing `pos.alt_m`; clamps to
    /// the nearest layer outside the column).
    pub fn sample(&self, pos: &GeoPoint) -> WindSample {
        let layer = self
            .layers
            .iter()
            .find(|l| pos.alt_m >= l.floor_m && pos.alt_m < l.ceil_m)
            .unwrap_or_else(|| {
                if pos.alt_m < self.layers[0].floor_m {
                    &self.layers[0]
                } else {
                    self.layers.last().expect("non-empty")
                }
            });
        let mut w = layer.current();
        // Deterministic spatial texture: smooth sinusoidal perturbation.
        let x = pos.lon_deg * 111_320.0 * tssdn_geo::deg_to_rad(pos.lat_deg).cos().max(0.2);
        let y = pos.lat_deg * 111_320.0;
        let k = 2.0 * std::f64::consts::PI / self.spatial_wavelength_m;
        w.east_mps += self.spatial_amplitude_mps * (k * y).sin();
        w.north_mps += self.spatial_amplitude_mps * (k * x).cos();
        w
    }

    /// Wind for each layer at a position — what the FMS "wind model"
    /// sees when choosing an altitude.
    pub fn column_at(&self, pos: &GeoPoint) -> Vec<(f64, WindSample)> {
        self.layers
            .iter()
            .map(|l| {
                let mid = (l.floor_m + l.ceil_m) / 2.0;
                let p = GeoPoint::new(pos.lat_deg, pos.lon_deg, mid);
                (mid, self.sample(&p))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn field() -> WindField {
        WindField::loon_stratosphere(&RngStreams::new(42))
    }

    #[test]
    fn five_layers_cover_15_to_20km() {
        let f = field();
        assert_eq!(f.layers().len(), 5);
        assert_eq!(f.layers()[0].floor_m, 15_000.0);
        assert_eq!(f.layers()[4].ceil_m, 20_000.0);
    }

    #[test]
    fn layers_have_distinct_headings() {
        let f = field();
        // Direction the wind blows *toward*, degrees clockwise from
        // north.
        let heading = |w: &WindSample| {
            tssdn_geo::norm_deg(tssdn_geo::rad_to_deg(w.east_mps.atan2(w.north_mps)))
        };
        let h0 = heading(&f.layers()[0].prevailing);
        let h2 = heading(&f.layers()[2].prevailing);
        assert!(
            tssdn_geo::angular_separation_deg(h0, h2) > 30.0,
            "vertical shear exists"
        );
    }

    #[test]
    fn deterministic_across_instances() {
        let mut a = field();
        let mut b = field();
        let t = SimTime::from_hours(12);
        a.advance_to(t);
        b.advance_to(t);
        let p = GeoPoint::new(0.5, 37.0, 17_500.0);
        assert_eq!(a.sample(&p), b.sample(&p));
    }

    #[test]
    fn advance_is_incremental_consistent() {
        // Advancing in one jump equals advancing in many small steps
        // (same number of internal OU sub-steps).
        let mut a = field();
        let mut b = field();
        a.advance_to(SimTime::from_hours(3));
        for m in 1..=18 {
            b.advance_to(SimTime::from_mins(m * 10));
        }
        let p = GeoPoint::new(0.0, 36.5, 16_200.0);
        let (wa, wb) = (a.sample(&p), b.sample(&p));
        assert!((wa.east_mps - wb.east_mps).abs() < 1e-9);
        assert!((wa.north_mps - wb.north_mps).abs() < 1e-9);
    }

    #[test]
    fn wind_evolves_over_time() {
        let mut f = field();
        let p = GeoPoint::new(0.0, 37.0, 17_500.0);
        let w0 = f.sample(&p);
        f.advance_to(SimTime::from_days(1));
        let w1 = f.sample(&p);
        assert!(
            (w0.east_mps - w1.east_mps).abs() + (w0.north_mps - w1.north_mps).abs() > 0.01,
            "wind wandered"
        );
    }

    #[test]
    fn speeds_stay_physical_over_a_month() {
        let mut f = field();
        for d in 1..=30 {
            f.advance_to(SimTime::from_days(d));
            for l in f.layers() {
                let s = l.current().speed_mps();
                assert!(s < 60.0, "runaway wind {s} m/s on day {d}");
            }
        }
    }

    #[test]
    fn spatial_variation_decorrelates_distant_points() {
        let f = field();
        let a = f.sample(&GeoPoint::new(0.0, 36.0, 17_500.0));
        let b = f.sample(&GeoPoint::new(1.8, 36.0, 17_500.0)); // ~200 km north
        assert!(
            (a.east_mps - b.east_mps).abs() > 1e-3,
            "spatial texture present: {a:?} vs {b:?}"
        );
    }

    #[test]
    fn column_reports_all_layers() {
        let f = field();
        let col = f.column_at(&GeoPoint::new(0.0, 37.0, 17_000.0));
        assert_eq!(col.len(), 5);
        assert_eq!(col[0].0, 15_500.0);
    }

    #[test]
    fn altitude_outside_column_clamps() {
        let f = field();
        let low = f.sample(&GeoPoint::new(0.0, 37.0, 1_000.0));
        let bottom = f.sample(&GeoPoint::new(0.0, 37.0, 15_100.0));
        assert_eq!(low, bottom);
    }
}
