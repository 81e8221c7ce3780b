//! Free-space path loss.

/// Free-space path loss in dB for a path of `distance_m` meters at
/// `freq_ghz` GHz: `FSPL = 92.45 + 20·log10(f_GHz) + 20·log10(d_km)`.
///
/// Distances below one meter are clamped to one meter so degenerate
/// geometry (co-located test platforms) cannot produce negative loss
/// at the frequencies we care about.
pub fn free_space_path_loss_db(distance_m: f64, freq_ghz: f64) -> f64 {
    frequency_term_db(freq_ghz) + range_term_db(distance_m)
}

/// The part of the loss that depends on the band alone:
/// `92.45 + 20·log10(f_GHz)`.
pub fn frequency_term_db(freq_ghz: f64) -> f64 {
    92.45 + 20.0 * freq_ghz.log10()
}

/// The part of the loss that depends on the path alone:
/// `20·log10(d_km)`, with the one-meter clamp.
pub fn range_term_db(distance_m: f64) -> f64 {
    let d_km = (distance_m.max(1.0)) / 1000.0;
    20.0 * d_km.log10()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_textbook_value_at_73ghz_100km() {
        // 92.45 + 20log10(73) + 20log10(100) = 92.45 + 37.266 + 40 = 169.72
        let l = free_space_path_loss_db(100_000.0, 73.0);
        assert!((l - 169.716).abs() < 0.01, "got {l}");
    }

    #[test]
    fn doubling_distance_adds_6db() {
        let a = free_space_path_loss_db(100_000.0, 73.0);
        let b = free_space_path_loss_db(200_000.0, 73.0);
        assert!((b - a - 6.0206).abs() < 0.001);
    }

    #[test]
    fn doubling_frequency_adds_6db() {
        let a = free_space_path_loss_db(100_000.0, 36.5);
        let b = free_space_path_loss_db(100_000.0, 73.0);
        assert!((b - a - 6.0206).abs() < 0.001);
    }

    #[test]
    fn clamps_tiny_distances() {
        let l = free_space_path_loss_db(0.0, 73.0);
        assert!(l.is_finite());
        assert_eq!(l, free_space_path_loss_db(1.0, 73.0));
    }
}
