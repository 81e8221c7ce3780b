//! The named scenario catalog the matrix runner executes.
//!
//! Each entry pairs a [`ScenarioSpec`] with its [`ScorecardFloors`] —
//! the minimum acceptable outcomes for that scenario. Floors are data:
//! the runner evaluates every scenario with the same code and fails
//! the matrix when any floor row is violated. Numeric floors are set
//! ~20% below the values the seed catalog measures, so they catch
//! regressions without flaking on small timing shifts; the invariant
//! rows (SNF conservation, custody balance, no stale alternates,
//! Control ≥ 0.99 whenever offered) are exact.
//!
//! Every entry is one base world plus the differences it names.

use tssdn_telemetry::ScorecardFloors;

use crate::spec::{
    DemandSpec, FaultsSpec, FleetSpec, Geography, KindSpec, ScenarioSpec, ShardingSpec, SurgeSpec,
    TrafficSpec, WeatherRegime, WeatherSpec, WindowSpec,
};

/// One catalog row: a spec plus its acceptance floors.
#[derive(Debug, Clone)]
pub struct CatalogEntry {
    /// The scenario.
    pub spec: ScenarioSpec,
    /// The minimum acceptable scorecard.
    pub floors: ScorecardFloors,
}

/// The world every catalog entry starts from: six balloons at 150 km
/// over Kenya for 14 hours, clear skies under the ITU-only belief, no
/// faults, the default demand, traffic engine and (unsharded)
/// planner, multipath on.
pub(crate) fn base(name: &str, seed: u64) -> ScenarioSpec {
    ScenarioSpec {
        name: name.into(),
        seed,
        duration_hours: 14,
        multipath: true,
        fleet: FleetSpec {
            geography: Geography::Kenya,
            n_balloons: 6,
            spawn_radius_km: 150.0,
        },
        demand: DemandSpec::default(),
        weather: WeatherSpec {
            regime: WeatherRegime::Clear,
            gauges: false,
        },
        faults: FaultsSpec::Quiet,
        traffic: TrafficSpec::default(),
        sharding: ShardingSpec::default(),
    }
}

/// The chaos soak's base world as a spec: the catalog base with the
/// `kenya_daytime` seeded fault family, traffic and multipath off. The
/// soak tests flip the switches they exercise.
pub fn chaos_soak_spec(name: &str, seed: u64) -> ScenarioSpec {
    let mut spec = base(name, seed);
    spec.multipath = false;
    spec.faults = seeded(6);
    spec.traffic.enabled = false;
    spec
}

/// `expected` seeded faults between 09:00 and 13:00.
fn seeded(expected: u32) -> FaultsSpec {
    FaultsSpec::Seeded {
        expected,
        earliest_hour: 9,
        latest_hour: 13,
        warned_loss: false,
    }
}

/// A surge of bulk load ×4 from `start_hour` for `duration_hours`.
fn surge(start_hour: u64, duration_hours: u64) -> Option<SurgeSpec> {
    Some(SurgeSpec {
        start_hour,
        duration_hours,
        multiplier: 4.0,
    })
}

/// The E19-style directed blackout: every ground site of an
/// `n_balloons` Kenya fleet dark for 25 minutes from `t0`, one balloon
/// lost abruptly mid-blackout, another lost *warned* so custody can
/// move its backlog out first.
fn blackout_windows(n_balloons: u32, t0_min: u64) -> Vec<WindowSpec> {
    let mut w: Vec<WindowSpec> = (n_balloons..n_balloons + Geography::Kenya.ground_stations())
        .map(|site| WindowSpec {
            start_min: t0_min,
            duration_mins: Some(25),
            kind: KindSpec::GsOutage { site },
        })
        .collect();
    w.push(WindowSpec {
        start_min: t0_min + 10,
        duration_mins: Some(30),
        kind: KindSpec::BalloonLoss { balloon: 1 },
    });
    w.push(WindowSpec {
        start_min: t0_min + 20,
        duration_mins: Some(40),
        kind: KindSpec::BalloonLossWarned {
            balloon: 0,
            lead_mins: 8,
        },
    });
    w
}

/// The service floors every full-catalog entry states: goodput and
/// data availability at least these, Control ≥ 0.99, some bits
/// delivered.
fn floors(goodput: f64, availability: f64) -> ScorecardFloors {
    ScorecardFloors {
        min_goodput: Some(goodput),
        min_data_availability: Some(availability),
        min_control_goodput: Some(0.99),
        min_delivered_bits: Some(1),
        ..ScorecardFloors::default()
    }
}

/// The full matrix: seven named scenarios spanning the failure surface
/// the paper describes operationally (EXPERIMENTS.md E21).
pub fn catalog() -> Vec<CatalogEntry> {
    let entry = |spec, floors| CatalogEntry { spec, floors };

    // 1. The reference deployment: the soak's world with traffic and
    // multipath on — seeded daytime faults over a 6-balloon mesh.
    let mut baseline = base("baseline_kenya", 9001);
    baseline.faults = seeded(6);
    // Seed catalog measures goodput 0.76, data availability 0.66,
    // recovery p95 ≈ 4.9 ks.
    let baseline = entry(
        baseline,
        ScorecardFloors {
            min_disruptions: Some(1),
            max_recovery_p95_s: Some(10_800.0),
            ..floors(0.60, 0.50)
        },
    );

    // 2. A bigger, thinner fleet: 10 balloons spread over 400 km, no
    // injected faults — geometry itself is the stressor.
    let mut dispersed = base("dispersed_fleet", 9002);
    (dispersed.fleet.n_balloons, dispersed.fleet.spawn_radius_km) = (10, 400.0);
    // Measured: goodput 0.74, availability 0.68, p95 ≈ 11.4 ks.
    let dispersed = entry(
        dispersed,
        ScorecardFloors {
            max_recovery_p95_s: Some(21_600.0),
            ..floors(0.55, 0.50)
        },
    );

    // 3. A demand surge: bulk offered load ×4 over the core of the
    // day. Strict priority must hold Control at 0.99 regardless.
    let mut surging = base("demand_surge", 9003);
    surging.demand.surge = surge(10, 4);
    // Measured: goodput 0.60, availability 0.49, p95 ≈ 3.5 ks.
    let surging = entry(
        surging,
        ScorecardFloors {
            max_recovery_p95_s: Some(10_800.0),
            ..floors(0.45, 0.35)
        },
    );

    // 4. Wet-season afternoons at 1.5× intensity, with the controller
    // running the production-like belief (gauges + forecast).
    let mut stormy = base("weather_degraded", 9004);
    stormy.duration_hours = 18;
    stormy.weather = WeatherSpec {
        regime: WeatherRegime::Stormy {
            intensity: 1.5,
            days: 1,
        },
        gauges: true,
    };
    // The hardest scenario: goodput 0.31, availability 0.44,
    // p95 ≈ 6.3 ks at seed. Storms are supposed to hurt.
    let stormy = entry(
        stormy,
        ScorecardFloors {
            max_recovery_p95_s: Some(14_400.0),
            ..floors(0.25, 0.30)
        },
    );

    // 5. A satcom-provider outage day: the out-of-band command path
    // browns out from mid-morning — latencies ×6, drops ramping to
    // 95% — while the mesh itself stays healthy.
    let mut satcom = base("satcom_outage_day", 9005);
    satcom.faults = FaultsSpec::Directed(vec![WindowSpec {
        start_min: 9 * 60,
        duration_mins: Some(4 * 60),
        kind: KindSpec::SatcomBrownout {
            latency_scale: 6.0,
            max_drop_prob: 0.95,
        },
    }]);
    // Measured: goodput 0.66, availability 0.64, p95 ≈ 0.8 ks —
    // the mesh barely notices a command-path brownout.
    let satcom = entry(
        satcom,
        ScorecardFloors {
            max_recovery_p95_s: Some(3_600.0),
            ..floors(0.50, 0.45)
        },
    );

    // 6. The directed blackout + balloon-loss chaos day: a total
    // ground outage builds backlog everywhere, one balloon dies
    // abruptly (its backlog with it), one dies warned (custody moves
    // the bits out first).
    let mut blackout = base("chaos_blackout", 31);
    blackout.duration_hours = 12;
    blackout.faults = FaultsSpec::Directed(blackout_windows(6, 10 * 60));
    // Measured: goodput 0.55, availability 0.47, custody moved
    // ~9.7 Gbit at seed.
    let blackout = entry(
        blackout,
        ScorecardFloors {
            min_disruptions: Some(1),
            min_custody_initiated_bits: Some(1),
            ..floors(0.40, 0.35)
        },
    );

    // 7. Regional sharding under wind drift: the dispersed fleet
    // planned by three longitude-band regions with borders threading
    // the fleet, so zonal drift produces real planner handoffs while
    // service floors hold (PR 9).
    let mut sharded = base("sharded_fleet", 9006);
    (sharded.fleet.n_balloons, sharded.fleet.spawn_radius_km) = (12, 400.0);
    sharded.sharding = ShardingSpec {
        regions: 3,
        band_deg: 1.5,
        halo_km: 150.0,
        hysteresis_km: 10.0,
        ..ShardingSpec::default()
    };
    // Measured: goodput 0.53, availability 0.40 (the 400 km
    // dispersal is deliberately sparse), p95 ≈ 16.6 ks, six
    // handoffs across the two borders at seed.
    let sharded = entry(
        sharded,
        ScorecardFloors {
            max_recovery_p95_s: Some(21_600.0),
            ..floors(0.42, 0.31)
        },
    );

    vec![
        baseline, dispersed, surging, stormy, satcom, blackout, sharded,
    ]
}

/// The CI smoke subset: four small, short scenarios (4 balloons)
/// covering the three fault modes — seeded chaos, a surge, the
/// directed custody blackout — plus a two-region sharded fleet whose
/// border threads the spawn so the sharded solve + handoff path runs
/// on every push. Invariant floors only; the smoke run
/// exists to exercise the matrix path and the rerun-identity gate
/// quickly, not to pin service levels.
pub fn smoke_catalog() -> Vec<CatalogEntry> {
    let small = |name, seed, duration_hours| {
        let mut spec = base(name, seed);
        (spec.duration_hours, spec.fleet.n_balloons) = (duration_hours, 4);
        spec
    };
    let mut baseline = small("smoke_baseline", 9001, 14);
    baseline.faults = seeded(4);
    let mut surging = small("smoke_surge", 9003, 12);
    surging.demand.surge = surge(10, 2);
    let mut blackout = small("smoke_blackout", 31, 12);
    blackout.faults = FaultsSpec::Directed(blackout_windows(4, 10 * 60));
    let mut sharded = small("smoke_sharded", 9006, 12);
    // Two regions with the border at 37.95°E — inside the seed-9006
    // fleet's longitude span (37.68–38.5°E), so even the tiny smoke
    // fleet straddles the border, westward drift produces real
    // handoffs, and the sharded solve + merge path runs in CI.
    sharded.sharding = ShardingSpec {
        regions: 2,
        origin_lon_deg: 37.95,
        band_deg: 0.5,
        halo_km: 100.0,
        hysteresis_km: 5.0,
    };
    let floors = ScorecardFloors {
        min_control_goodput: Some(0.99),
        min_delivered_bits: Some(1),
        ..ScorecardFloors::default()
    };
    let specs = [baseline, surging, blackout, sharded];
    specs.map(|spec| CatalogEntry { spec, floors }).into()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn catalog_has_six_valid_uniquely_named_scenarios() {
        let entries = catalog();
        assert!(entries.len() >= 6, "matrix needs ≥6 scenarios");
        let names: BTreeSet<_> = entries.iter().map(|e| e.spec.name.clone()).collect();
        assert_eq!(names.len(), entries.len(), "names are unique");
        for e in &entries {
            e.spec.validate().unwrap_or_else(|err| {
                panic!("catalog entry {} invalid: {err}", e.spec.name);
            });
        }
    }

    #[test]
    fn smoke_catalog_is_small_and_valid() {
        let entries = smoke_catalog();
        assert_eq!(entries.len(), 4);
        for e in &entries {
            assert!(
                e.spec.fleet.n_balloons <= 4,
                "{} too big for smoke",
                e.spec.name
            );
            e.spec.validate().expect("smoke entry valid");
        }
    }

    #[test]
    fn every_catalog_entry_round_trips_through_json() {
        for e in catalog().into_iter().chain(smoke_catalog()) {
            let text = e.spec.to_json();
            let back = ScenarioSpec::from_json(&text).expect("parses back");
            assert_eq!(back, e.spec, "{} round-trips", e.spec.name);
        }
    }
}
