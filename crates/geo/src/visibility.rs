//! Line-of-sight and range predicates between platforms.
//!
//! The Link Evaluator prunes "candidates incapable of satisfying
//! geometric pointing constraints" (§3.1). For the long, low-elevation
//! paths Loon used (B2G links established at 130 km and maintained to
//! 250+ km; B2B at 500–700 km), Earth curvature is the dominant
//! geometric constraint: the ray between two platforms must clear the
//! effective Earth surface.
//!
//! We use the standard 4/3-effective-Earth-radius model to fold
//! standard atmospheric refraction into the geometry, which is how
//! practical microwave link planning handles it.

use crate::coords::{GeoPoint, EARTH_RADIUS_M};

/// Effective Earth radius factor accounting for standard refraction.
const K_FACTOR: f64 = 4.0 / 3.0;

/// Line-of-sight (slant) distance between two geodetic points, meters.
pub fn slant_range_m(a: &GeoPoint, b: &GeoPoint) -> f64 {
    a.slant_range_m(b)
}

/// Maximum slant range at which two platforms at altitudes `alt_a_m`
/// and `alt_b_m` (above the effective surface clearance) can see each
/// other over the Earth's bulge: the sum of their horizon distances.
pub fn max_slant_range_m(alt_a_m: f64, alt_b_m: f64) -> f64 {
    let re = EARTH_RADIUS_M * K_FACTOR;
    horizon_distance(re, alt_a_m) + horizon_distance(re, alt_b_m)
}

fn horizon_distance(re: f64, alt_m: f64) -> f64 {
    if alt_m <= 0.0 {
        0.0
    } else {
        (2.0 * re * alt_m + alt_m * alt_m).sqrt()
    }
}

/// Whether the straight path between `a` and `b` clears the effective
/// Earth surface by at least `clearance_m` meters.
///
/// The check samples the minimum height of the chord above the
/// effective sphere. `clearance_m` models first-Fresnel-zone clearance;
/// 0 means grazing incidence is accepted.
pub fn line_of_sight_clear(a: &GeoPoint, b: &GeoPoint, clearance_m: f64) -> bool {
    // Work on the effective sphere: scale radius by K, keep altitudes.
    let re = EARTH_RADIUS_M * K_FACTOR;
    let ra = re + a.alt_m;
    let rb = re + b.alt_m;
    // Central angle between the two radius vectors.
    let ground = a.ground_distance_m(b);
    let theta = ground / EARTH_RADIUS_M;
    // Chord endpoints in the 2-D plane containing both radius vectors.
    let (ax, ay) = (0.0, ra);
    let (bx, by) = (rb * theta.sin(), rb * theta.cos());
    // Minimum distance from Earth's center to the chord segment.
    let dx = bx - ax;
    let dy = by - ay;
    let len2 = dx * dx + dy * dy;
    let t = if len2 == 0.0 {
        0.0
    } else {
        (-(ax * dx + ay * dy) / len2).clamp(0.0, 1.0)
    };
    let px = ax + t * dx;
    let py = ay + t * dy;
    let min_r = (px * px + py * py).sqrt();
    min_r >= re + clearance_m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn horizon_range_matches_paper_scale() {
        // Two balloons at 18 km should see each other well past 700 km
        // (paper: B2B links formed at 500+ km, max 700+ km).
        let r = max_slant_range_m(18_000.0, 18_000.0);
        assert!(r > 900_000.0, "got {r}");
        // A ground station at ~10 m AGL to a balloon at 18 km: a few
        // hundred km.
        let r = max_slant_range_m(10.0, 18_000.0);
        assert!(r > 500_000.0 * 0.5 && r < 600_000.0, "got {r}");
    }

    #[test]
    fn nearby_high_platforms_have_los() {
        let a = GeoPoint::new(-1.0, 36.0, 18_000.0);
        let b = GeoPoint::new(-1.0, 38.0, 17_000.0);
        assert!(line_of_sight_clear(&a, &b, 0.0));
    }

    #[test]
    fn antipodal_platforms_do_not_have_los() {
        let a = GeoPoint::new(0.0, 0.0, 18_000.0);
        let b = GeoPoint::new(0.0, 90.0, 18_000.0);
        assert!(!line_of_sight_clear(&a, &b, 0.0));
    }

    #[test]
    fn b2b_at_600km_has_los_at_altitude() {
        // ~5.4 degrees of longitude at the equator ≈ 600 km.
        let a = GeoPoint::new(0.0, 36.0, 18_000.0);
        let b = GeoPoint::new(0.0, 41.4, 18_000.0);
        assert!(line_of_sight_clear(&a, &b, 0.0));
    }

    #[test]
    fn b2b_beyond_horizon_sum_blocked() {
        // ~11 degrees ≈ 1220 km, beyond the ~1060 km dual-18km horizon.
        let a = GeoPoint::new(0.0, 30.0, 18_000.0);
        let b = GeoPoint::new(0.0, 41.0, 18_000.0);
        assert!(!line_of_sight_clear(&a, &b, 0.0));
    }

    #[test]
    fn clearance_requirement_tightens_los() {
        // Pick a geometry that barely clears with 0 clearance.
        let a = GeoPoint::new(0.0, 36.0, 18_000.0);
        let mut lon = 36.5;
        // Find approximately the losing point by scanning.
        while line_of_sight_clear(&a, &GeoPoint::new(0.0, lon, 18_000.0), 0.0) && lon < 60.0 {
            lon += 0.1;
        }
        let barely = GeoPoint::new(0.0, lon - 0.2, 18_000.0);
        assert!(line_of_sight_clear(&a, &barely, 0.0));
        assert!(!line_of_sight_clear(&a, &barely, 5_000.0));
    }

    #[test]
    fn ground_to_ground_short_hop_clear() {
        let a = GeoPoint::new(0.0, 36.0, 50.0);
        let b = GeoPoint::new(0.0, 36.1, 50.0);
        assert!(line_of_sight_clear(&a, &b, 0.0));
    }
}
