//! Coordinate systems: geodetic (WGS84 lat/lon/alt), Earth-Centered
//! Earth-Fixed (ECEF), and local East-North-Up (ENU) frames.
//!
//! The TS-SDN models "the 3-D geometry ... of the physical world"
//! (§2.3). Platform positions arrive as GPS fixes (geodetic), link
//! geometry is computed in ECEF, and antenna pointing is computed in
//! the local ENU frame of the observing platform.

use crate::{deg_to_rad, rad_to_deg};

/// WGS84 semi-major axis, meters.
pub const WGS84_A: f64 = 6_378_137.0;
/// WGS84 flattening.
pub const WGS84_F: f64 = 1.0 / 298.257_223_563;
/// Mean Earth radius used for quick spherical approximations, meters.
pub const EARTH_RADIUS_M: f64 = 6_371_000.0;

/// A geodetic position: latitude/longitude on the WGS84 ellipsoid plus
/// altitude above the ellipsoid in meters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeoPoint {
    /// Latitude, degrees, positive north, in `[-90, 90]`.
    pub lat_deg: f64,
    /// Longitude, degrees, positive east, in `[-180, 180]`.
    pub lon_deg: f64,
    /// Altitude above the WGS84 ellipsoid, meters.
    pub alt_m: f64,
}

impl GeoPoint {
    /// Create a geodetic point.
    pub fn new(lat_deg: f64, lon_deg: f64, alt_m: f64) -> Self {
        Self {
            lat_deg,
            lon_deg,
            alt_m,
        }
    }

    /// Convert to ECEF coordinates.
    pub fn to_ecef(&self) -> Ecef {
        LocalFrame::of(self).ecef
    }

    /// Great-circle surface distance to `other`, ignoring altitude,
    /// using the haversine formula on the mean sphere. Good to ~0.5%
    /// which is ample for candidate-graph pruning.
    pub fn ground_distance_m(&self, other: &GeoPoint) -> f64 {
        let lat1 = deg_to_rad(self.lat_deg);
        let lat2 = deg_to_rad(other.lat_deg);
        let dlat = lat2 - lat1;
        let dlon = deg_to_rad(other.lon_deg - self.lon_deg);
        let a = (dlat / 2.0).sin().powi(2) + lat1.cos() * lat2.cos() * (dlon / 2.0).sin().powi(2);
        2.0 * EARTH_RADIUS_M * a.sqrt().asin()
    }

    /// Straight-line (slant) distance to `other` through ECEF space.
    pub fn slant_range_m(&self, other: &GeoPoint) -> f64 {
        self.to_ecef().distance_m(&other.to_ecef())
    }

    /// Initial great-circle bearing from `self` toward `other`,
    /// degrees clockwise from true north in `[0, 360)`.
    pub fn bearing_deg(&self, other: &GeoPoint) -> f64 {
        let lat1 = deg_to_rad(self.lat_deg);
        let lat2 = deg_to_rad(other.lat_deg);
        let dlon = deg_to_rad(other.lon_deg - self.lon_deg);
        let y = dlon.sin() * lat2.cos();
        let x = lat1.cos() * lat2.sin() - lat1.sin() * lat2.cos() * dlon.cos();
        crate::norm_deg(rad_to_deg(y.atan2(x)))
    }

    /// Displace this point by `east_m`/`north_m` meters along the local
    /// tangent plane and `up_m` in altitude. Valid for displacements
    /// small relative to the Earth radius (we use it for balloon drift
    /// over single simulation steps).
    pub fn offset(&self, east_m: f64, north_m: f64, up_m: f64) -> GeoPoint {
        let lat = deg_to_rad(self.lat_deg);
        let dlat = north_m / EARTH_RADIUS_M;
        let dlon = east_m / (EARTH_RADIUS_M * lat.cos().max(1e-9));
        GeoPoint {
            lat_deg: self.lat_deg + rad_to_deg(dlat),
            lon_deg: self.lon_deg + rad_to_deg(dlon),
            alt_m: self.alt_m + up_m,
        }
    }
}

/// Earth-Centered Earth-Fixed Cartesian coordinates, meters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ecef {
    pub x: f64,
    pub y: f64,
    pub z: f64,
}

impl Ecef {
    /// Euclidean distance to another ECEF point, meters.
    pub fn distance_m(&self, other: &Ecef) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        let dz = self.z - other.z;
        (dx * dx + dy * dy + dz * dz).sqrt()
    }

    /// Vector from `self` to `other`.
    fn vector_to(&self, other: &Ecef) -> (f64, f64, f64) {
        (other.x - self.x, other.y - self.y, other.z - self.z)
    }

    /// Convert back to geodetic coordinates (Bowring's method, one
    /// iteration — sub-millimeter at stratospheric altitudes).
    pub fn to_geo(&self) -> GeoPoint {
        let e2 = WGS84_F * (2.0 - WGS84_F);
        let b = WGS84_A * (1.0 - WGS84_F);
        let ep2 = (WGS84_A * WGS84_A - b * b) / (b * b);
        let p = (self.x * self.x + self.y * self.y).sqrt();
        let theta = (self.z * WGS84_A).atan2(p * b);
        let lat =
            (self.z + ep2 * b * theta.sin().powi(3)).atan2(p - e2 * WGS84_A * theta.cos().powi(3));
        let lon = self.y.atan2(self.x);
        let sin_lat = lat.sin();
        let n = WGS84_A / (1.0 - e2 * sin_lat * sin_lat).sqrt();
        let alt = if lat.cos().abs() > 1e-6 {
            p / lat.cos() - n
        } else {
            self.z.abs() / sin_lat.abs() - n * (1.0 - e2)
        };
        GeoPoint {
            lat_deg: rad_to_deg(lat),
            lon_deg: rad_to_deg(lon),
            alt_m: alt,
        }
    }
}

/// Everything about one geodetic point that a conversion into its
/// local tangent frame needs: the ECEF image and the sines/cosines of
/// latitude and longitude. A caller relating one point to many others
/// (the Link Evaluator's platform snapshot) builds it once per point;
/// [`Enu::from_frame`] is then a subtraction and a rotation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LocalFrame {
    /// ECEF image of the point.
    pub ecef: Ecef,
    sin_lat: f64,
    cos_lat: f64,
    sin_lon: f64,
    cos_lon: f64,
}

impl LocalFrame {
    /// The frame at `p`.
    pub fn of(p: &GeoPoint) -> LocalFrame {
        let lat = deg_to_rad(p.lat_deg);
        let lon = deg_to_rad(p.lon_deg);
        let (sin_lat, cos_lat) = (lat.sin(), lat.cos());
        let (sin_lon, cos_lon) = (lon.sin(), lon.cos());
        let e2 = WGS84_F * (2.0 - WGS84_F);
        let n = WGS84_A / (1.0 - e2 * sin_lat * sin_lat).sqrt();
        let x = (n + p.alt_m) * cos_lat * cos_lon;
        let y = (n + p.alt_m) * cos_lat * sin_lon;
        let z = (n * (1.0 - e2) + p.alt_m) * sin_lat;
        LocalFrame {
            ecef: Ecef { x, y, z },
            sin_lat,
            cos_lat,
            sin_lon,
            cos_lon,
        }
    }
}

/// Local East-North-Up coordinates relative to a reference geodetic
/// point, meters. Used for antenna pointing computations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Enu {
    pub east: f64,
    pub north: f64,
    pub up: f64,
}

impl Enu {
    /// ENU vector from `origin` to `target`.
    pub fn from_points(origin: &GeoPoint, target: &GeoPoint) -> Enu {
        Enu::from_frame(&LocalFrame::of(origin), &target.to_ecef())
    }

    /// ENU vector from the point `origin` was built at to `target`.
    pub fn from_frame(origin: &LocalFrame, target: &Ecef) -> Enu {
        let (dx, dy, dz) = origin.ecef.vector_to(target);
        let (sl, cl) = (origin.sin_lat, origin.cos_lat);
        let (so, co) = (origin.sin_lon, origin.cos_lon);
        Enu {
            east: -so * dx + co * dy,
            north: -sl * co * dx - sl * so * dy + cl * dz,
            up: cl * co * dx + cl * so * dy + sl * dz,
        }
    }

    /// Length of the ENU vector, meters.
    pub fn norm_m(&self) -> f64 {
        (self.east * self.east + self.north * self.north + self.up * self.up).sqrt()
    }

    /// Azimuth of this vector, degrees clockwise from north, `[0, 360)`.
    pub fn azimuth_deg(&self) -> f64 {
        crate::norm_deg(rad_to_deg(self.east.atan2(self.north)))
    }

    /// Elevation of this vector above the local horizontal, degrees in
    /// `[-90, 90]`.
    pub fn elevation_deg(&self) -> f64 {
        let horiz = (self.east * self.east + self.north * self.north).sqrt();
        rad_to_deg(self.up.atan2(horiz))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const NAIROBI: GeoPoint = GeoPoint {
        lat_deg: -1.286,
        lon_deg: 36.817,
        alt_m: 1795.0,
    };

    #[test]
    fn ecef_roundtrip_is_stable() {
        for p in [
            GeoPoint::new(0.0, 0.0, 0.0),
            GeoPoint::new(-1.3, 36.8, 18_000.0),
            GeoPoint::new(45.0, -120.0, 100.0),
            GeoPoint::new(-60.0, 170.0, 15_000.0),
        ] {
            let back = p.to_ecef().to_geo();
            assert!((back.lat_deg - p.lat_deg).abs() < 1e-7, "{p:?} -> {back:?}");
            assert!((back.lon_deg - p.lon_deg).abs() < 1e-7);
            assert!((back.alt_m - p.alt_m).abs() < 1e-2);
        }
    }

    #[test]
    fn equator_degree_is_about_111km() {
        let a = GeoPoint::new(0.0, 0.0, 0.0);
        let b = GeoPoint::new(0.0, 1.0, 0.0);
        let d = a.ground_distance_m(&b);
        assert!((d - 111_195.0).abs() < 500.0, "got {d}");
    }

    #[test]
    fn slant_range_exceeds_ground_distance_with_altitude() {
        let gs = NAIROBI;
        let balloon = GeoPoint::new(-1.286, 37.9, 18_000.0);
        let ground = gs.ground_distance_m(&balloon);
        let slant = gs.slant_range_m(&balloon);
        assert!(slant > ground);
        // Altitude delta ~16km over ~120km ground: slant is modestly longer.
        assert!(slant < ground + 17_000.0);
    }

    #[test]
    fn bearing_cardinal_directions() {
        let o = GeoPoint::new(0.0, 0.0, 0.0);
        assert!((o.bearing_deg(&GeoPoint::new(1.0, 0.0, 0.0)) - 0.0).abs() < 1e-6);
        assert!((o.bearing_deg(&GeoPoint::new(0.0, 1.0, 0.0)) - 90.0).abs() < 1e-6);
        assert!((o.bearing_deg(&GeoPoint::new(-1.0, 0.0, 0.0)) - 180.0).abs() < 1e-6);
        assert!((o.bearing_deg(&GeoPoint::new(0.0, -1.0, 0.0)) - 270.0).abs() < 1e-6);
    }

    #[test]
    fn enu_straight_up_has_90_elevation() {
        let above = GeoPoint::new(NAIROBI.lat_deg, NAIROBI.lon_deg, NAIROBI.alt_m + 10_000.0);
        let v = Enu::from_points(&NAIROBI, &above);
        assert!((v.elevation_deg() - 90.0).abs() < 0.01);
        assert!((v.norm_m() - 10_000.0).abs() < 20.0);
    }

    #[test]
    fn enu_eastward_target_has_east_azimuth() {
        let east = NAIROBI.offset(50_000.0, 0.0, 0.0);
        let v = Enu::from_points(&NAIROBI, &east);
        assert!(
            (v.azimuth_deg() - 90.0).abs() < 0.5,
            "az {}",
            v.azimuth_deg()
        );
        // Earth curvature drops the target below local horizontal.
        assert!(v.elevation_deg() < 0.0);
    }

    #[test]
    fn offset_roundtrip_distance() {
        let p = NAIROBI.offset(3_000.0, 4_000.0, 0.0);
        let d = NAIROBI.ground_distance_m(&p);
        assert!((d - 5_000.0).abs() < 25.0, "got {d}");
    }
}
