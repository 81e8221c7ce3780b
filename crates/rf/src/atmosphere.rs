//! Gaseous and cloud attenuation with altitude dependence.
//!
//! Shapes follow ITU-R P.676 (attenuation by atmospheric gases) and
//! P.840 (clouds and fog), the models the paper cites in §3.1. We use
//! simplified frequency fits that are accurate in the bands this
//! system uses (E band, 71–86 GHz) rather than the full line-by-line
//! oxygen/water-vapor summation: what the reproduction needs is the
//! correct *structure* — strong altitude decay with water-vapor and
//! cloud scale heights, so that B2B links at 17+ km ride "above
//! significant weather and atmospheric attenuation" (§2.2) while B2G
//! paths accumulate most of their loss in the lowest kilometers.

/// Water-vapor scale height, meters. Specific attenuation from vapor
/// decays as `exp(-h/H)`.
const VAPOR_SCALE_HEIGHT_M: f64 = 2_000.0;

/// Effective dry-air (oxygen) attenuation scale height, meters.
/// Continuum absorption scales roughly with pressure squared, so the
/// attenuation scale height is about half the 6 km pressure scale
/// height — the stratosphere is nearly transparent at E band.
const OXYGEN_SCALE_HEIGHT_M: f64 = 3_000.0;

/// Cloud liquid water is concentrated in the troposphere below this
/// altitude (tropical convective clouds top out near 12–16 km, but
/// liquid water relevant to E-band loss sits much lower).
pub const CLOUD_TOP_M: f64 = 9_000.0;

/// Sea-level oxygen-continuum coefficient at `freq_ghz`, dB/km — the
/// frequency-only factor of the dry-air term (a constant of the band;
/// [`crate::link_budget::BandConsts`] computes it once).
pub fn oxygen_coefficient(freq_ghz: f64) -> f64 {
    0.0065 + 0.000_045 * freq_ghz * freq_ghz
}

/// Sea-level water-vapor-continuum coefficient at `freq_ghz`, dB/km,
/// rising roughly with f^1.6 toward the 183 GHz line.
pub fn vapor_coefficient(freq_ghz: f64) -> f64 {
    0.004 * (freq_ghz / 10.0).powf(1.6)
}

/// The two altitude decay factors `(oxygen, vapor)` at `alt_m` —
/// functions of the altitude alone, so a multi-band path integral
/// computes them once per step.
pub fn altitude_decay(alt_m: f64) -> (f64, f64) {
    let h = alt_m.max(0.0);
    (
        (-h / OXYGEN_SCALE_HEIGHT_M).exp(),
        (-h / VAPOR_SCALE_HEIGHT_M).exp(),
    )
}

/// Specific gaseous attenuation at altitude `alt_m`, dB/km, for a
/// moderately humid (tropical) atmosphere.
///
/// The sea-level fit is anchored at ~0.09 dB/km at 12 GHz, ~0.35 dB/km
/// at 73 GHz and ~0.45 dB/km at 86 GHz (away from the 60 GHz oxygen
/// complex, which none of our bands touch).
pub fn gaseous_db_per_km(freq_ghz: f64, alt_m: f64) -> f64 {
    let (oxygen_decay, vapor_decay) = altitude_decay(alt_m);
    oxygen_coefficient(freq_ghz) * oxygen_decay + vapor_coefficient(freq_ghz) * vapor_decay
}

/// The P.840 cloud coefficient `K_l(f)`, (dB/km)/(g/m³), rising
/// ~quadratically below 100 GHz.
pub fn cloud_coefficient(freq_ghz: f64) -> f64 {
    0.000_43 * freq_ghz * freq_ghz
}

/// Specific cloud attenuation, dB/km, for liquid-water density
/// `lwc_g_m3` (g/m³) at `freq_ghz`, following the P.840 structure
/// `γ = K_l(f) · M`.
///
/// At 73 GHz, `K_l ≈ 2.3 (dB/km)/(g/m³)`; a dense cumulus (0.5 g/m³)
/// costs ≈1.2 dB/km, so a 5 km cloud transit costs ≈6 dB — enough to
/// degrade a marginal B2G link, matching the paper's experience that
/// "rain and clouds primarily affected B2G connections".
pub fn cloud_db_per_km(freq_ghz: f64, lwc_g_m3: f64) -> f64 {
    if lwc_g_m3 <= 0.0 {
        return 0.0;
    }
    cloud_coefficient(freq_ghz) * lwc_g_m3
}

/// Whether an altitude can hold cloud liquid water at all.
pub fn in_cloud_layer(alt_m: f64) -> bool {
    (0.0..CLOUD_TOP_M).contains(&alt_m)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sea_level_e_band_attenuation_in_expected_range() {
        let g = gaseous_db_per_km(73.0, 0.0);
        assert!(g > 0.2 && g < 0.6, "got {g}");
        let g86 = gaseous_db_per_km(86.0, 0.0);
        assert!(g86 > g, "attenuation grows with frequency");
    }

    #[test]
    fn sea_level_matches_altitude_zero() {
        // At sea level both decay factors are one: the attenuation is
        // the two sea-level coefficients' sum.
        let sea = oxygen_coefficient(73.0) + vapor_coefficient(73.0);
        assert!((sea - gaseous_db_per_km(73.0, 0.0)).abs() < 1e-12);
    }

    #[test]
    fn gaseous_attenuation_decays_with_altitude() {
        let sea = gaseous_db_per_km(73.0, 0.0);
        let strat = gaseous_db_per_km(73.0, 18_000.0);
        assert!(
            strat < sea / 20.0,
            "stratosphere is nearly transparent: {strat} vs {sea}"
        );
    }

    #[test]
    fn cloud_attenuation_scales_linearly_with_water() {
        let a = cloud_db_per_km(73.0, 0.25);
        let b = cloud_db_per_km(73.0, 0.5);
        assert!((b - 2.0 * a).abs() < 1e-12);
        assert_eq!(cloud_db_per_km(73.0, 0.0), 0.0);
        assert_eq!(cloud_db_per_km(73.0, -1.0), 0.0);
    }

    #[test]
    fn dense_cumulus_at_e_band_is_about_1db_per_km() {
        let g = cloud_db_per_km(73.0, 0.5);
        assert!(g > 0.8 && g < 1.6, "got {g}");
    }

    #[test]
    fn cloud_layer_excludes_stratosphere() {
        assert!(in_cloud_layer(1_000.0));
        assert!(in_cloud_layer(8_000.0));
        assert!(!in_cloud_layer(17_000.0));
        assert!(!in_cloud_layer(-5.0));
    }
}
