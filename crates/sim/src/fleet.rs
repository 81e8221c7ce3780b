//! The simulated fleet: balloons, ground stations, winds and power,
//! advanced together on a fixed tick.
//!
//! "Loon operated three ground station sites and dozens of balloons
//! that were continuously seeking the serving region" (§2.2). The
//! fleet is the physical *truth* the TS-SDN observes (with error and
//! delay) and plans against.

use crate::balloon::{Balloon, BalloonConfig};
use crate::power::{PowerConfig, PowerSystem};
use crate::rng::RngStreams;
use crate::time::{SimDuration, SimTime};
use crate::wind::WindField;
use rand::Rng;
use tssdn_geo::GeoPoint;

/// Identifier for any platform in the fleet. Ground stations and
/// balloons share the id space; kind is carried alongside.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PlatformId(pub u32);

impl std::fmt::Display for PlatformId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// What kind of platform an id refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PlatformKind {
    /// A stratospheric balloon (3 transceivers, wind-driven, solar
    /// powered).
    Balloon,
    /// A ground station (2 transceivers, fixed, always powered).
    GroundStation,
}

/// A fixed ground-station site.
#[derive(Debug, Clone)]
pub struct GroundStationSite {
    /// Platform id of the site.
    pub id: PlatformId,
    /// Site location (antenna height above terrain folded into alt).
    pub pos: GeoPoint,
}

/// Configuration for fleet generation.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Number of balloons to spawn.
    pub num_balloons: usize,
    /// Balloons spawn uniformly within this radius of
    /// `REGION_CENTER`, m.
    pub spawn_radius_m: f64,
    /// Ground-station site positions. Loon ran 3 sites (§2.2).
    pub ground_sites: Vec<GeoPoint>,
}

/// Simulation tick for fleet physics.
const PHYSICS_TICK: SimDuration = SimDuration::from_secs(60);

/// Service-region center, (0°, 37.5°E) at 18 km over Kenya; balloons
/// spawn around it and station-seek toward it.
const REGION_CENTER: GeoPoint = GeoPoint {
    lat_deg: 0.0,
    lon_deg: 37.5,
    alt_m: 18_000.0,
};

impl FleetConfig {
    /// A Kenya-like deployment: `n` balloons around (0°, 37.5°E), three
    /// ground stations spread ~100–200 km apart.
    pub fn kenya(n: usize) -> Self {
        FleetConfig {
            num_balloons: n,
            spawn_radius_m: 400_000.0,
            ground_sites: vec![
                GeoPoint::new(-1.25, 36.85, 1_700.0), // Nairobi-like
                GeoPoint::new(0.05, 37.65, 1_600.0),  // Mt. Kenya foothills
                GeoPoint::new(-0.45, 39.65, 100.0),   // coastal plain
            ],
        }
    }
}

/// The live fleet state.
pub struct Fleet {
    /// Balloons, indexed by `PlatformId(i)` for `i < num_balloons`.
    pub balloons: Vec<Balloon>,
    /// Per-balloon power systems (same indexing).
    pub power: Vec<PowerSystem>,
    /// Ground stations (ids continue after balloons).
    pub ground_stations: Vec<GroundStationSite>,
    /// The wind field truth.
    pub wind: WindField,
    config: FleetConfig,
    now: SimTime,
}

impl Fleet {
    /// Generate a fleet from `config`, deterministically from
    /// `streams`.
    pub fn generate(config: FleetConfig, streams: &RngStreams) -> Self {
        let mut rng = streams.stream("fleet-spawn");
        let wind = WindField::loon_stratosphere(streams);
        let mut balloons = Vec::with_capacity(config.num_balloons);
        let mut power = Vec::with_capacity(config.num_balloons);
        // Flight and power parameters are shared by all balloons.
        let flight = BalloonConfig::loon_default(REGION_CENTER);
        let battery = PowerConfig::loon_default();
        for i in 0..config.num_balloons {
            // Uniform in a disc around the region center.
            let theta: f64 = rng.gen_range(0.0..std::f64::consts::TAU);
            let r = config.spawn_radius_m * rng.gen_range(0.0f64..1.0).sqrt();
            let alt = rng.gen_range(15_200.0..19_800.0);
            let pos =
                REGION_CENTER.offset(r * theta.sin(), r * theta.cos(), alt - REGION_CENTER.alt_m);
            balloons.push(Balloon::new(pos, flight));
            // Stagger initial charge so the fleet doesn't boot in
            // lockstep.
            let soc = rng.gen_range(0.4..0.8);
            let _ = i;
            power.push(PowerSystem::new(battery, soc));
        }
        let ground_stations = config
            .ground_sites
            .iter()
            .enumerate()
            .map(|(i, pos)| GroundStationSite {
                id: PlatformId((config.num_balloons + i) as u32),
                pos: *pos,
            })
            .collect();
        Fleet {
            balloons,
            power,
            ground_stations,
            wind,
            config,
            now: SimTime::ZERO,
        }
    }

    /// Current fleet time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The generation config.
    pub fn config(&self) -> &FleetConfig {
        &self.config
    }

    /// Total number of platforms (balloons + ground stations).
    pub fn num_platforms(&self) -> usize {
        self.balloons.len() + self.ground_stations.len()
    }

    /// Iterate all platform ids with their kinds.
    pub fn platform_ids(&self) -> impl Iterator<Item = (PlatformId, PlatformKind)> + '_ {
        let nb = self.balloons.len() as u32;
        (0..nb)
            .map(|i| (PlatformId(i), PlatformKind::Balloon))
            .chain(
                self.ground_stations
                    .iter()
                    .map(|g| (g.id, PlatformKind::GroundStation)),
            )
    }

    /// Kind of a platform id.
    pub fn kind(&self, id: PlatformId) -> PlatformKind {
        if (id.0 as usize) < self.balloons.len() {
            PlatformKind::Balloon
        } else {
            PlatformKind::GroundStation
        }
    }

    /// Position of any platform at the current fleet time.
    pub fn position(&self, id: PlatformId) -> GeoPoint {
        let idx = id.0 as usize;
        if idx < self.balloons.len() {
            self.balloons[idx].pos
        } else {
            self.ground_stations[idx - self.balloons.len()].pos
        }
    }

    /// Whether a platform's communications payload is powered.
    /// Ground stations have "reliable power" (§2.2) and are always on.
    pub fn payload_powered(&self, id: PlatformId) -> bool {
        let idx = id.0 as usize;
        if idx < self.balloons.len() {
            self.power[idx].service_available()
        } else {
            true
        }
    }

    /// Advance the whole fleet (winds, flight, power) to `to`, in
    /// `PHYSICS_TICK` steps.
    pub fn advance_to(&mut self, to: SimTime) {
        while self.now < to {
            let next = (self.now + PHYSICS_TICK).min(to);
            let dt = next - self.now;
            self.wind.advance_to(next);
            for b in &mut self.balloons {
                b.step(next, dt, &self.wind);
            }
            for p in &mut self.power {
                p.advance_to(next);
            }
            self.now = next;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_fleet(seed: u64) -> Fleet {
        Fleet::generate(FleetConfig::kenya(8), &RngStreams::new(seed))
    }

    #[test]
    fn generation_is_deterministic() {
        let a = small_fleet(3);
        let b = small_fleet(3);
        for (x, y) in a.balloons.iter().zip(&b.balloons) {
            assert_eq!(x.pos, y.pos);
        }
    }

    #[test]
    fn ids_partition_balloons_and_ground_stations() {
        let f = small_fleet(3);
        assert_eq!(f.num_platforms(), 11);
        assert_eq!(f.kind(PlatformId(0)), PlatformKind::Balloon);
        assert_eq!(f.kind(PlatformId(7)), PlatformKind::Balloon);
        assert_eq!(f.kind(PlatformId(8)), PlatformKind::GroundStation);
        assert_eq!(f.kind(PlatformId(10)), PlatformKind::GroundStation);
        let kinds: Vec<_> = f.platform_ids().collect();
        assert_eq!(kinds.len(), 11);
    }

    #[test]
    fn balloons_spawn_within_radius() {
        let f = small_fleet(5);
        for b in &f.balloons {
            let d = b
                .pos
                .ground_distance_m(&GeoPoint::new(0.0, 37.5, b.pos.alt_m));
            assert!(d <= 401_000.0, "spawned at {d} m");
        }
    }

    #[test]
    fn ground_stations_always_powered_balloons_cycle() {
        let mut f = small_fleet(9);
        // At 03:00 all balloons are dark; ground stations stay up.
        f.advance_to(SimTime::from_hours(3));
        assert!(f.payload_powered(PlatformId(8)));
        let dark = (0..8)
            .filter(|i| !f.payload_powered(PlatformId(*i)))
            .count();
        assert_eq!(dark, 8, "all balloons dark at 03:00");
        // At noon the fleet is serving.
        f.advance_to(SimTime::from_hours(12));
        let lit = (0..8).filter(|i| f.payload_powered(PlatformId(*i))).count();
        assert_eq!(lit, 8, "all balloons powered at noon");
    }

    #[test]
    fn fleet_positions_evolve() {
        let mut f = small_fleet(11);
        let before: Vec<_> = f.balloons.iter().map(|b| b.pos).collect();
        f.advance_to(SimTime::from_hours(6));
        let moved = f
            .balloons
            .iter()
            .zip(&before)
            .filter(|(b, p)| b.pos.ground_distance_m(p) > 1_000.0)
            .count();
        assert_eq!(moved, 8, "every balloon drifted");
        // Ground stations don't move.
        assert_eq!(f.position(PlatformId(8)), f.ground_stations[0].pos);
    }

    #[test]
    fn advance_is_idempotent_at_same_time() {
        let mut f = small_fleet(2);
        f.advance_to(SimTime::from_hours(1));
        let p = f.position(PlatformId(0));
        f.advance_to(SimTime::from_hours(1));
        assert_eq!(p, f.position(PlatformId(0)));
    }
}
