//! Antenna pointing: azimuth/elevation solutions and per-antenna
//! fields of regard.
//!
//! Each Loon balloon carried three E-band transceivers on mechanically
//! pointable gimbals mounted at the corners of the bus. "Each antenna
//! had a range-of-motion of 360° azimuth and an elevation range from
//! nadir (directly below) to +20° above horizontal, allowing for
//! substantial – though not complete – overlap between each antenna's
//! field of regard" (§2.2). Each antenna also experienced different
//! occlusions from the bus itself; those are modelled with
//! [`crate::ObstructionMask`] attached to a [`FieldOfRegard`].

use crate::coords::{Ecef, Enu, GeoPoint, LocalFrame};
use crate::occlusion::ObstructionMask;

/// An azimuth/elevation pointing direction in the local ENU frame of a
/// platform. Azimuth is degrees clockwise from north `[0, 360)`;
/// elevation is degrees above the local horizontal `[-90, 90]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AzEl {
    pub az_deg: f64,
    pub el_deg: f64,
}

impl AzEl {
    pub fn new(az_deg: f64, el_deg: f64) -> Self {
        Self {
            az_deg: crate::norm_deg(az_deg),
            el_deg,
        }
    }

    /// Angular distance between two pointing directions, degrees,
    /// using the spherical law of cosines. This is the slew distance a
    /// gimbal must cover.
    pub fn angular_distance_deg(&self, other: &AzEl) -> f64 {
        let e1 = crate::deg_to_rad(self.el_deg);
        let e2 = crate::deg_to_rad(other.el_deg);
        let da = crate::deg_to_rad(crate::angular_separation_deg(self.az_deg, other.az_deg));
        let cosd = e1.sin() * e2.sin() + e1.cos() * e2.cos() * da.cos();
        crate::rad_to_deg(cosd.clamp(-1.0, 1.0).acos())
    }
}

/// The pointing geometry required for one end of a candidate link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PointingSolution {
    /// Direction from the local platform to the remote platform.
    pub direction: AzEl,
    /// Line-of-sight distance, meters.
    pub slant_range_m: f64,
}

impl PointingSolution {
    /// Compute the pointing solution from `from` toward `to`.
    pub fn between(from: &GeoPoint, to: &GeoPoint) -> PointingSolution {
        PointingSolution::from_frame(&LocalFrame::of(from), &to.to_ecef())
    }

    /// [`Self::between`] for a caller that already holds the local
    /// frame of `from` and the ECEF image of `to`.
    pub fn from_frame(from: &LocalFrame, to: &Ecef) -> PointingSolution {
        let v = Enu::from_frame(from, to);
        PointingSolution {
            direction: AzEl::new(v.azimuth_deg(), v.elevation_deg()),
            slant_range_m: v.norm_m(),
        }
    }
}

/// The mechanical range of motion of a gimballed antenna plus any
/// static occlusions within it.
///
/// A direction is *usable* when it is inside the elevation limits, not
/// blocked by the platform-local obstruction mask.
#[derive(Debug, Clone)]
pub struct FieldOfRegard {
    /// Minimum elevation, degrees. Loon balloon antennas reached nadir
    /// (-90°); ground stations are limited by their horizon mask.
    pub min_el_deg: f64,
    /// Maximum elevation, degrees. +20° for Loon balloon antennas.
    pub max_el_deg: f64,
    /// Static occlusions (bus hardware for balloons; terrain,
    /// structures and foliage for ground stations).
    pub mask: ObstructionMask,
}

impl FieldOfRegard {
    /// Loon balloon antenna: full azimuth, nadir to +20° elevation.
    pub fn balloon() -> Self {
        FieldOfRegard {
            min_el_deg: -90.0,
            max_el_deg: 20.0,
            mask: ObstructionMask::clear(),
        }
    }

    /// A balloon antenna with a bus-occlusion wedge centred on
    /// `blocked_az_deg` (other payload hardware shadows part of the
    /// field of regard; §2.2 "each antenna experienced different
    /// occlusions").
    pub fn balloon_with_bus_occlusion(blocked_az_deg: f64, width_deg: f64) -> Self {
        let mut f = Self::balloon();
        // Bus hardware shadows the near-horizontal band where
        // inter-balloon links form; steeply downward rays stay clear.
        f.mask.add_band(
            blocked_az_deg - width_deg / 2.0,
            blocked_az_deg + width_deg / 2.0,
            -15.0,
            20.0,
        );
        f
    }

    /// Ground station radome: upward-looking with a configurable
    /// minimum elevation (long B2G links need low pointing elevations,
    /// which is exactly where terrain and structures occlude, §2.2).
    pub fn ground_station(min_el_deg: f64) -> Self {
        FieldOfRegard {
            min_el_deg,
            max_el_deg: 90.0,
            mask: ObstructionMask::clear(),
        }
    }

    /// True when `dir` lies inside the mechanical limits and is not
    /// occluded.
    pub fn contains(&self, dir: &AzEl) -> bool {
        if dir.el_deg < self.min_el_deg || dir.el_deg > self.max_el_deg {
            return false;
        }
        !self.mask.blocks(dir)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn balloon_for_accepts_nadir_and_horizontal() {
        let f = FieldOfRegard::balloon();
        assert!(f.contains(&AzEl::new(123.0, -90.0)));
        assert!(f.contains(&AzEl::new(0.0, 0.0)));
        assert!(f.contains(&AzEl::new(359.0, 20.0)));
        assert!(!f.contains(&AzEl::new(10.0, 21.0)));
    }

    #[test]
    fn ground_station_rejects_below_min_elevation() {
        let f = FieldOfRegard::ground_station(2.0);
        assert!(!f.contains(&AzEl::new(90.0, 1.0)));
        assert!(f.contains(&AzEl::new(90.0, 2.5)));
        assert!(f.contains(&AzEl::new(90.0, 89.0)));
    }

    #[test]
    fn bus_occlusion_blocks_wedge_only() {
        let f = FieldOfRegard::balloon_with_bus_occlusion(180.0, 60.0);
        assert!(
            !f.contains(&AzEl::new(180.0, 5.0)),
            "center of wedge blocked"
        );
        assert!(!f.contains(&AzEl::new(155.0, 0.0)), "edge of wedge blocked");
        assert!(f.contains(&AzEl::new(90.0, 5.0)), "outside wedge clear");
        assert!(f.contains(&AzEl::new(0.0, 5.0)));
    }

    #[test]
    fn angular_distance_symmetric_and_zero_on_self() {
        let a = AzEl::new(10.0, 5.0);
        let b = AzEl::new(200.0, -40.0);
        assert!(a.angular_distance_deg(&a) < 1e-9);
        assert!((a.angular_distance_deg(&b) - b.angular_distance_deg(&a)).abs() < 1e-9);
    }

    #[test]
    fn angular_distance_across_azimuth_wrap() {
        let a = AzEl::new(359.0, 0.0);
        let b = AzEl::new(1.0, 0.0);
        assert!((a.angular_distance_deg(&b) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn pointing_solution_toward_higher_platform_has_positive_elevation() {
        let gs = GeoPoint::new(-1.0, 36.8, 1600.0);
        let balloon = GeoPoint::new(-1.0, 37.2, 18_000.0);
        let sol = PointingSolution::between(&gs, &balloon);
        assert!(sol.direction.el_deg > 0.0);
        assert!((sol.direction.az_deg - 90.0).abs() < 1.0);
        assert!(sol.slant_range_m > 40_000.0 && sol.slant_range_m < 60_000.0);
    }

    #[test]
    fn blocked_fraction_matches_wedge_width() {
        let f = FieldOfRegard::balloon_with_bus_occlusion(90.0, 72.0);
        let blocked = (0..3600)
            .filter(|i| !f.contains(&AzEl::new(*i as f64 / 10.0, 5.0)))
            .count();
        let frac = blocked as f64 / 3600.0;
        assert!(
            (frac - 0.2).abs() < 0.01,
            "expected ~20% blocked, got {frac}"
        );
    }
}
