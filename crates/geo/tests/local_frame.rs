//! The frame-based ENU / pointing entries (`Enu::from_frame`,
//! `PointingSolution::from_frame`) against the point-based ones and
//! against the formulas as they stood before `LocalFrame` existed —
//! bit for bit, over the point generators `tests/props.rs` uses.
//!
//! The Link Evaluator builds one `LocalFrame` per platform and uses it
//! both as the origin of its own pointing solutions and (through
//! `.ecef`) as the target of everyone else's, so both roles are
//! checked from one frame per point.

use proptest::prelude::*;
use tssdn_geo::{deg_to_rad, Ecef, Enu, GeoPoint, LocalFrame, PointingSolution, WGS84_A, WGS84_F};

/// `GeoPoint::to_ecef` as it was written before it delegated to
/// `LocalFrame::of`: every sine and cosine taken inline.
fn to_ecef_inline(p: &GeoPoint) -> Ecef {
    let lat = deg_to_rad(p.lat_deg);
    let lon = deg_to_rad(p.lon_deg);
    let e2 = WGS84_F * (2.0 - WGS84_F);
    let sin_lat = lat.sin();
    let n = WGS84_A / (1.0 - e2 * sin_lat * sin_lat).sqrt();
    Ecef {
        x: (n + p.alt_m) * lat.cos() * lon.cos(),
        y: (n + p.alt_m) * lat.cos() * lon.sin(),
        z: (n * (1.0 - e2) + p.alt_m) * sin_lat,
    }
}

/// `Enu::from_points` as it was written before `Enu::from_frame`.
fn enu_inline(origin: &GeoPoint, target: &GeoPoint) -> Enu {
    let o = to_ecef_inline(origin);
    let t = to_ecef_inline(target);
    let (dx, dy, dz) = (t.x - o.x, t.y - o.y, t.z - o.z);
    let lat = deg_to_rad(origin.lat_deg);
    let lon = deg_to_rad(origin.lon_deg);
    let (sl, cl) = (lat.sin(), lat.cos());
    let (so, co) = (lon.sin(), lon.cos());
    Enu {
        east: -so * dx + co * dy,
        north: -sl * co * dx - sl * so * dy + cl * dz,
        up: cl * co * dx + cl * so * dy + sl * dz,
    }
}

fn bits(e: &Enu) -> [u64; 3] {
    [e.east.to_bits(), e.north.to_bits(), e.up.to_bits()]
}

fn check_pair(a: GeoPoint, b: GeoPoint) -> TestCaseResult {
    let (fa, fb) = (LocalFrame::of(&a), LocalFrame::of(&b));
    for (from, to, frame_from, frame_to) in [(&a, &b, &fa, &fb), (&b, &a, &fb, &fa)] {
        let ecef = from.to_ecef();
        let inline = to_ecef_inline(from);
        prop_assert_eq!(
            [ecef.x.to_bits(), ecef.y.to_bits(), ecef.z.to_bits()],
            [inline.x.to_bits(), inline.y.to_bits(), inline.z.to_bits()]
        );
        prop_assert_eq!(frame_from.ecef, ecef);

        let framed = Enu::from_frame(frame_from, &frame_to.ecef);
        prop_assert_eq!(bits(&framed), bits(&Enu::from_points(from, to)));
        prop_assert_eq!(bits(&framed), bits(&enu_inline(from, to)));

        let pointed = PointingSolution::from_frame(frame_from, &frame_to.ecef);
        let between = PointingSolution::between(from, to);
        prop_assert_eq!(
            [
                pointed.direction.az_deg.to_bits(),
                pointed.direction.el_deg.to_bits(),
                pointed.slant_range_m.to_bits()
            ],
            [
                between.direction.az_deg.to_bits(),
                between.direction.el_deg.to_bits(),
                between.slant_range_m.to_bits()
            ]
        );
    }
    Ok(())
}

proptest! {
    /// Any two points on the globe (the `ecef_roundtrip_any_point`
    /// generator).
    #[test]
    fn frame_entries_match_point_entries_anywhere(
        lat1 in -89.0f64..89.0, lon1 in -179.9f64..179.9, alt1 in 0.0f64..25_000.0,
        lat2 in -89.0f64..89.0, lon2 in -179.9f64..179.9, alt2 in 0.0f64..25_000.0,
    ) {
        check_pair(GeoPoint::new(lat1, lon1, alt1), GeoPoint::new(lat2, lon2, alt2))?;
    }

    /// The service region (the `slant_range_at_least_ground_distance`
    /// generator), where the evaluator actually runs.
    #[test]
    fn frame_entries_match_point_entries_over_kenya(
        lat1 in -5.0f64..5.0, lon1 in 30.0f64..45.0, alt1 in 0.0f64..20_000.0,
        lat2 in -5.0f64..5.0, lon2 in 30.0f64..45.0, alt2 in 0.0f64..20_000.0,
    ) {
        check_pair(GeoPoint::new(lat1, lon1, alt1), GeoPoint::new(lat2, lon2, alt2))?;
    }
}

#[test]
fn a_point_is_its_own_frame_origin() {
    let p = GeoPoint::new(-1.286, 36.817, 1795.0);
    let f = LocalFrame::of(&p);
    let zero = Enu::from_frame(&f, &f.ecef);
    assert_eq!((zero.east, zero.north, zero.up), (0.0, 0.0, 0.0));
}
