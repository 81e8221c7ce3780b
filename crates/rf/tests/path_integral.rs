//! The multi-band path integral against the one-band formula as it
//! stood before the bands were walked together — bit for bit, per
//! band, on all four `AttenuationBreakdown` fields.
//!
//! `one_band_frozen` below is that formula with every coefficient
//! spelled out at the step where it was used (`powf` and the
//! quadratic fits inside the loop, the rain coefficients looked up per
//! step, one `exp` pair per band per step). It deliberately calls
//! nothing in `tssdn_rf::atmosphere` / `fspl` / `link_budget`, so it
//! also pins the coefficient helpers those modules were re-expressed
//! over; only `rain::rain_coefficients`, which did not change, is
//! shared.

use proptest::prelude::*;
use tssdn_geo::GeoPoint;
use tssdn_rf::{
    path_attenuation_db, AttenuationBreakdown, BandConsts, ClearSky, ItuSeasonal, PathIntegrator,
    RadioParams, RainCell, SyntheticWeather, WeatherField, WeatherGrid,
};

fn one_band_frozen<W: WeatherField>(
    a: &GeoPoint,
    b: &GeoPoint,
    params: &RadioParams,
    weather: &W,
    t_ms: u64,
) -> AttenuationBreakdown {
    const PATH_STEPS: usize = 32;
    let f_ghz = params.freq_ghz;
    let dist_m = a.slant_range_m(b);
    let d_km = (dist_m.max(1.0)) / 1000.0;
    let mut out = AttenuationBreakdown {
        fspl_db: 92.45 + 20.0 * f_ghz.log10() + 20.0 * d_km.log10(),
        ..Default::default()
    };
    let step_km = dist_m / 1000.0 / PATH_STEPS as f64;
    for i in 0..PATH_STEPS {
        let f = (i as f64 + 0.5) / PATH_STEPS as f64;
        let p = GeoPoint::new(
            a.lat_deg + f * (b.lat_deg - a.lat_deg),
            a.lon_deg + f * (b.lon_deg - a.lon_deg),
            a.alt_m + f * (b.alt_m - a.alt_m),
        );
        let h = p.alt_m.max(0.0);
        let oxygen = (0.0065 + 0.000_045 * f_ghz * f_ghz) * (-h / 3_000.0).exp();
        let vapor = 0.004 * (f_ghz / 10.0).powf(1.6) * (-h / 2_000.0).exp();
        out.gaseous_db += (oxygen + vapor) * step_km;
        let w = weather.sample(&p, t_ms);
        let rain_db_per_km = if w.rain_mm_h <= 0.0 {
            0.0
        } else {
            let (k, alpha) = tssdn_rf::rain::rain_coefficients(f_ghz);
            k * w.rain_mm_h.powf(alpha)
        };
        out.rain_db += rain_db_per_km * step_km;
        let cloud_db_per_km = if w.cloud_lwc_g_m3 <= 0.0 {
            0.0
        } else {
            0.000_43 * f_ghz * f_ghz * w.cloud_lwc_g_m3
        };
        out.cloud_db += cloud_db_per_km * step_km;
    }
    out
}

fn bits(x: &AttenuationBreakdown) -> [u64; 4] {
    [
        x.fspl_db.to_bits(),
        x.gaseous_db.to_bits(),
        x.rain_db.to_bits(),
        x.cloud_db.to_bits(),
    ]
}

/// The band palette: both E-band presets, then frequencies on other
/// segments of the rain-coefficient interpolation, below and above
/// its clamp included.
fn band(sel: u8) -> RadioParams {
    match sel {
        0 => RadioParams::e_band_low(),
        1 => RadioParams::e_band_high(),
        2 => RadioParams {
            freq_ghz: 8.0,
            ..RadioParams::e_band_low()
        },
        3 => RadioParams {
            freq_ghz: 38.0,
            bandwidth_hz: 2.5e8,
            ..RadioParams::e_band_low()
        },
        _ => RadioParams {
            freq_ghz: 140.0,
            ..RadioParams::e_band_high()
        },
    }
}

/// Endpoint pairs by kind: balloon-to-balloon in the stratosphere,
/// ground-to-balloon, a path that crosses both the rain height
/// (5 km) and the cloud top (9 km) mid-way, and a zero-length path.
fn endpoints(
    kind: u8,
    (lat, lon, dlat, dlon): (f64, f64, f64, f64),
    (u, v): (f64, f64),
) -> (GeoPoint, GeoPoint) {
    let (alt_a, alt_b) = match kind {
        0 => (15_000.0 + 5_000.0 * u, 15_000.0 + 5_000.0 * v),
        1 => (3_000.0 * u, 15_000.0 + 5_000.0 * v),
        2 => (2_000.0 + 4_000.0 * u, 8_000.0 + 4_000.0 * v),
        _ => (20_000.0 * u, 20_000.0 * u),
    };
    let a = GeoPoint::new(lat, lon, alt_a);
    let b = if kind >= 3 {
        a
    } else {
        GeoPoint::new(lat + dlat, lon + dlon, alt_b)
    };
    (a, b)
}

/// Two drifting storm cells around (0°, 37.5°E), alive for six hours.
fn storms() -> SyntheticWeather {
    let cell = |lat: f64, lon: f64, east: f64, north: f64, peak: f64| RainCell {
        center: GeoPoint::new(lat, lon, 0.0),
        vel_east_mps: east,
        vel_north_mps: north,
        radius_m: 25_000.0,
        peak_rain_mm_h: peak,
        start_ms: 0,
        end_ms: 6 * 3_600_000,
    };
    SyntheticWeather::new()
        .with_cell(cell(0.2, 37.2, 8.0, -3.0, 45.0))
        .with_cell(cell(-0.6, 38.1, -5.0, 6.0, 12.0))
}

/// One integrator, three walks (`a→b`, `b→a`, `a→b` again, so the
/// rain-power memo is carried from path to path), each band against
/// the frozen formula and against the one-band entry.
fn check<W: WeatherField>(
    bands: &[RadioParams],
    a: &GeoPoint,
    b: &GeoPoint,
    weather: &W,
    t_ms: u64,
) -> TestCaseResult {
    let consts: Vec<BandConsts> = bands.iter().map(BandConsts::new).collect();
    let mut integrator = PathIntegrator::new(&consts);
    for (from, to) in [(a, b), (b, a), (a, b)] {
        let multi = integrator
            .integrate(from, to, from.slant_range_m(to), weather, t_ms)
            .to_vec();
        prop_assert_eq!(multi.len(), bands.len());
        for (got, params) in multi.iter().zip(bands) {
            let want = one_band_frozen(from, to, params, weather, t_ms);
            prop_assert_eq!(
                bits(got),
                bits(&want),
                "multi-band, {} GHz",
                params.freq_ghz
            );
            let single = path_attenuation_db(from, to, params, weather, t_ms);
            prop_assert_eq!(
                bits(&single),
                bits(&want),
                "one-band, {} GHz",
                params.freq_ghz
            );
        }
    }
    Ok(())
}

proptest! {
    #[test]
    fn multi_band_integral_matches_the_frozen_one_band_formula(
        kind in 0u8..4,
        place in (-1.5f64..1.5, 36.0f64..39.0, -1.5f64..1.5, -2.0f64..2.0),
        alts in (0.0f64..1.0, 0.0f64..1.0),
        band_sel in prop::collection::vec(0u8..5, 1..5),
        field in 0u8..4,
        t_ms in 0u64..6 * 3_600_000,
    ) {
        let (a, b) = endpoints(kind, place, alts);
        let bands: Vec<RadioParams> = band_sel.iter().map(|s| band(*s)).collect();
        match field {
            0 => check(&bands, &a, &b, &ClearSky, t_ms)?,
            1 => check(&bands, &a, &b, &ItuSeasonal::tropical_wet(), t_ms)?,
            2 => check(&bands, &a, &b, &storms(), t_ms)?,
            _ => {
                let grid = WeatherGrid::build(
                    &storms(),
                    -3.0, 0.5, 13,
                    34.0, 0.5, 15,
                    0.0, 2_500.0, 5,
                    0, 1_800_000, 13,
                );
                check(&bands, &a, &b, &grid, t_ms)?
            }
        }
    }
}

/// The shape the evaluator's default config produces, plus a repeated
/// band: a repeat must get the same bits as its first occurrence.
#[test]
fn repeated_and_preset_bands_agree() {
    let bands = [band(0), band(1), band(0), band(1)];
    let gs = GeoPoint::new(0.3, 37.0, 1_500.0);
    let balloon = GeoPoint::new(0.0, 38.1, 18_200.0);
    check(&bands, &gs, &balloon, &ItuSeasonal::tropical_wet(), 0).expect("bit-identical");
    let consts: Vec<BandConsts> = bands.iter().map(BandConsts::new).collect();
    let mut integrator = PathIntegrator::new(&consts);
    let out = integrator.integrate(
        &gs,
        &balloon,
        gs.slant_range_m(&balloon),
        &storms(),
        3_600_000,
    );
    assert!(
        out[0].rain_db > 0.0 && out[0].cloud_db > 0.0,
        "the storm is on the path, so the rain and cloud arms ran: {:?}",
        out[0]
    );
    assert_eq!(bits(&out[0]), bits(&out[2]));
    assert_eq!(bits(&out[1]), bits(&out[3]));
    assert_ne!(bits(&out[0]), bits(&out[1]));
}
