//! Obstruction masks: static occlusions within an antenna's field of
//! regard.
//!
//! Ground stations "still experienced occlusions from geological
//! formations, structures and tall trees due to the low pointing
//! elevations required when forming long distance B2G links" (§2.2),
//! and §5 describes obstruction masks that go stale as "new buildings
//! rose up". The mask here is the TS-SDN's *model* of the world; the
//! simulator may hold a different *true* mask, and experiment E13
//! (Figure 13) detects the divergence from link telemetry.

use crate::pointing::AzEl;

/// One occluded azimuth sector: directions with azimuth inside
/// `[az_start, az_end]` (handling wrap-around) and elevation inside
/// `[min_el_deg, max_el_deg]` are blocked.
///
/// With `min_el_deg = -90` this matches how site surveys record
/// horizon profiles: for each azimuth range, the elevation you must
/// exceed to clear the obstacle. A narrower elevation band models
/// bus-mounted hardware that shadows near-horizontal rays but leaves
/// nadir clear.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ObstructionSector {
    /// Start azimuth of the blocked sector, degrees `[0, 360)`.
    pub az_start_deg: f64,
    /// End azimuth of the blocked sector, degrees `[0, 360)`. If
    /// `az_end < az_start` the sector wraps through north.
    pub az_end_deg: f64,
    /// Lowest blocked elevation, degrees. Pointing below this clears
    /// the obstacle (−90 for terrain-style masks).
    pub min_el_deg: f64,
    /// Highest blocked elevation, degrees. Pointing above this clears
    /// the obstacle.
    pub max_el_deg: f64,
}

impl ObstructionSector {
    /// Whether a direction is inside this sector.
    pub fn blocks(&self, dir: &AzEl) -> bool {
        if dir.el_deg > self.max_el_deg || dir.el_deg < self.min_el_deg {
            return false;
        }
        let az = crate::norm_deg(dir.az_deg);
        let s = crate::norm_deg(self.az_start_deg);
        let e = crate::norm_deg(self.az_end_deg);
        if s <= e {
            az >= s && az <= e
        } else {
            az >= s || az <= e
        }
    }

    /// Azimuthal width of the sector, degrees.
    pub fn width_deg(&self) -> f64 {
        let s = crate::norm_deg(self.az_start_deg);
        let e = crate::norm_deg(self.az_end_deg);
        if s <= e {
            e - s
        } else {
            360.0 - s + e
        }
    }
}

/// A set of obstruction sectors forming a horizon/occlusion profile.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ObstructionMask {
    sectors: Vec<ObstructionSector>,
}

impl ObstructionMask {
    /// A mask with no obstructions.
    pub fn clear() -> Self {
        Self {
            sectors: Vec::new(),
        }
    }

    /// Add a terrain-style blocked sector (blocks everything from
    /// straight down up to `max_el_deg`). Angles are normalized.
    pub fn add_sector(&mut self, az_start_deg: f64, az_end_deg: f64, max_el_deg: f64) {
        self.add_band(az_start_deg, az_end_deg, -90.0, max_el_deg);
    }

    /// Add a blocked elevation band (e.g. bus hardware shadowing
    /// near-horizontal rays while leaving nadir clear).
    pub fn add_band(
        &mut self,
        az_start_deg: f64,
        az_end_deg: f64,
        min_el_deg: f64,
        max_el_deg: f64,
    ) {
        self.sectors.push(ObstructionSector {
            az_start_deg: crate::norm_deg(az_start_deg),
            az_end_deg: crate::norm_deg(az_end_deg),
            min_el_deg,
            max_el_deg,
        });
    }

    /// Builder-style [`Self::add_sector`].
    pub fn with_sector(mut self, az_start_deg: f64, az_end_deg: f64, max_el_deg: f64) -> Self {
        self.add_sector(az_start_deg, az_end_deg, max_el_deg);
        self
    }

    /// True when any sector blocks `dir`.
    pub fn blocks(&self, dir: &AzEl) -> bool {
        self.sectors.iter().any(|s| s.blocks(dir))
    }

    /// The sectors in this mask.
    pub fn sectors(&self) -> &[ObstructionSector] {
        &self.sectors
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_mask_blocks_nothing() {
        let m = ObstructionMask::clear();
        assert!(!m.blocks(&AzEl::new(0.0, -90.0)));
        assert!(!m.blocks(&AzEl::new(180.0, 0.0)));
    }

    #[test]
    fn sector_blocks_inside_below_elevation() {
        let m = ObstructionMask::clear().with_sector(30.0, 60.0, 10.0);
        assert!(m.blocks(&AzEl::new(45.0, 5.0)));
        assert!(m.blocks(&AzEl::new(30.0, 10.0)));
        assert!(!m.blocks(&AzEl::new(45.0, 10.1)), "above obstacle clears");
        assert!(!m.blocks(&AzEl::new(61.0, 5.0)), "outside azimuth clears");
    }

    #[test]
    fn sector_wrapping_through_north() {
        let m = ObstructionMask::clear().with_sector(350.0, 10.0, 5.0);
        assert!(m.blocks(&AzEl::new(355.0, 0.0)));
        assert!(m.blocks(&AzEl::new(5.0, 0.0)));
        assert!(m.blocks(&AzEl::new(0.0, 0.0)));
        assert!(!m.blocks(&AzEl::new(11.0, 0.0)));
        assert!(!m.blocks(&AzEl::new(180.0, 0.0)));
    }

    #[test]
    fn width_handles_wrap() {
        let s = ObstructionSector {
            az_start_deg: 350.0,
            az_end_deg: 10.0,
            min_el_deg: -90.0,
            max_el_deg: 0.0,
        };
        assert!((s.width_deg() - 20.0).abs() < 1e-9);
        let t = ObstructionSector {
            az_start_deg: 10.0,
            az_end_deg: 40.0,
            min_el_deg: -90.0,
            max_el_deg: 0.0,
        };
        assert!((t.width_deg() - 30.0).abs() < 1e-9);
    }

    #[test]
    fn horizon_at_takes_max_of_overlapping_sectors() {
        let m = ObstructionMask::clear()
            .with_sector(0.0, 90.0, 3.0)
            .with_sector(45.0, 135.0, 8.0);
        // The clear horizon at an azimuth is the highest sector
        // covering it.
        assert!(m.blocks(&AzEl::new(20.0, 3.0)) && !m.blocks(&AzEl::new(20.0, 3.1)));
        assert!(m.blocks(&AzEl::new(60.0, 8.0)) && !m.blocks(&AzEl::new(60.0, 8.1)));
        assert!(m.blocks(&AzEl::new(120.0, 8.0)) && !m.blocks(&AzEl::new(120.0, 8.1)));
        assert!(!m.blocks(&AzEl::new(200.0, -90.0)));
    }
}
