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

/// The chaos soak's base world as a spec: `n` balloons at 150 km over
/// Kenya, the `kenya_daytime` seeded fault family, traffic and
/// multipath off. The soak tests flip the switches they exercise.
pub fn chaos_soak_spec(name: &str, seed: u64) -> ScenarioSpec {
    ScenarioSpec {
        name: name.into(),
        seed,
        duration_hours: 14,
        multipath: false,
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
        faults: FaultsSpec::Seeded {
            expected: 6,
            earliest_hour: 9,
            latest_hour: 13,
            warned_loss: false,
        },
        traffic: TrafficSpec {
            enabled: false,
            ..TrafficSpec::default()
        },
        sharding: ShardingSpec::default(),
    }
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

/// The full matrix: six named scenarios spanning the failure surface
/// the paper describes operationally (EXPERIMENTS.md E21).
pub fn catalog() -> Vec<CatalogEntry> {
    let mut entries = Vec::new();

    // 1. The reference deployment: the soak's world with traffic and
    // multipath on — seeded daytime faults over a 6-balloon mesh.
    let mut baseline = chaos_soak_spec("baseline_kenya", 9001);
    baseline.multipath = true;
    baseline.traffic = TrafficSpec::default();
    entries.push(CatalogEntry {
        spec: baseline,
        // Seed catalog measures goodput 0.76, data availability 0.66,
        // recovery p95 ≈ 4.9 ks.
        floors: ScorecardFloors {
            min_goodput: Some(0.60),
            min_data_availability: Some(0.50),
            min_control_goodput: Some(0.99),
            min_delivered_bits: Some(1),
            min_disruptions: Some(1),
            max_recovery_p95_s: Some(10_800.0),
            ..ScorecardFloors::default()
        },
    });

    // 2. A bigger, thinner fleet: 10 balloons spread over 400 km, no
    // injected faults — geometry itself is the stressor.
    entries.push(CatalogEntry {
        spec: ScenarioSpec {
            name: "dispersed_fleet".into(),
            seed: 9002,
            duration_hours: 14,
            multipath: true,
            fleet: FleetSpec {
                geography: Geography::Kenya,
                n_balloons: 10,
                spawn_radius_km: 400.0,
            },
            demand: DemandSpec::default(),
            weather: WeatherSpec {
                regime: WeatherRegime::Clear,
                gauges: false,
            },
            faults: FaultsSpec::Quiet,
            traffic: TrafficSpec::default(),
            sharding: ShardingSpec::default(),
        },
        // Measured: goodput 0.74, availability 0.68, p95 ≈ 11.4 ks.
        floors: ScorecardFloors {
            min_goodput: Some(0.55),
            min_data_availability: Some(0.50),
            min_control_goodput: Some(0.99),
            min_delivered_bits: Some(1),
            max_recovery_p95_s: Some(21_600.0),
            ..ScorecardFloors::default()
        },
    });

    // 3. A demand surge: bulk offered load ×4 over the core of the
    // day. Strict priority must hold Control at 0.99 regardless.
    entries.push(CatalogEntry {
        spec: ScenarioSpec {
            name: "demand_surge".into(),
            seed: 9003,
            duration_hours: 14,
            multipath: true,
            fleet: FleetSpec {
                geography: Geography::Kenya,
                n_balloons: 6,
                spawn_radius_km: 150.0,
            },
            demand: DemandSpec {
                surge: Some(SurgeSpec {
                    start_hour: 10,
                    duration_hours: 4,
                    multiplier: 4.0,
                }),
                ..DemandSpec::default()
            },
            weather: WeatherSpec {
                regime: WeatherRegime::Clear,
                gauges: false,
            },
            faults: FaultsSpec::Quiet,
            traffic: TrafficSpec::default(),
            sharding: ShardingSpec::default(),
        },
        // Measured: goodput 0.60, availability 0.49, p95 ≈ 3.5 ks.
        floors: ScorecardFloors {
            min_goodput: Some(0.45),
            min_data_availability: Some(0.35),
            min_control_goodput: Some(0.99),
            min_delivered_bits: Some(1),
            max_recovery_p95_s: Some(10_800.0),
            ..ScorecardFloors::default()
        },
    });

    // 4. Wet-season afternoons at 1.5× intensity, with the controller
    // running the production-like belief (gauges + forecast).
    entries.push(CatalogEntry {
        spec: ScenarioSpec {
            name: "weather_degraded".into(),
            seed: 9004,
            duration_hours: 18,
            multipath: true,
            fleet: FleetSpec {
                geography: Geography::Kenya,
                n_balloons: 6,
                spawn_radius_km: 150.0,
            },
            demand: DemandSpec::default(),
            weather: WeatherSpec {
                regime: WeatherRegime::Stormy {
                    intensity: 1.5,
                    days: 1,
                },
                gauges: true,
            },
            faults: FaultsSpec::Quiet,
            traffic: TrafficSpec::default(),
            sharding: ShardingSpec::default(),
        },
        // The hardest scenario: goodput 0.31, availability 0.44,
        // p95 ≈ 6.3 ks at seed. Storms are supposed to hurt.
        floors: ScorecardFloors {
            min_goodput: Some(0.25),
            min_data_availability: Some(0.30),
            min_control_goodput: Some(0.99),
            min_delivered_bits: Some(1),
            max_recovery_p95_s: Some(14_400.0),
            ..ScorecardFloors::default()
        },
    });

    // 5. A satcom-provider outage day: the out-of-band command path
    // browns out from mid-morning — latencies ×6, drops ramping to
    // 95% — while the mesh itself stays healthy.
    entries.push(CatalogEntry {
        spec: ScenarioSpec {
            name: "satcom_outage_day".into(),
            seed: 9005,
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
            faults: FaultsSpec::Directed(vec![WindowSpec {
                start_min: 9 * 60,
                duration_mins: Some(4 * 60),
                kind: KindSpec::SatcomBrownout {
                    latency_scale: 6.0,
                    max_drop_prob: 0.95,
                },
            }]),
            traffic: TrafficSpec::default(),
            sharding: ShardingSpec::default(),
        },
        // Measured: goodput 0.66, availability 0.64, p95 ≈ 0.8 ks —
        // the mesh barely notices a command-path brownout.
        floors: ScorecardFloors {
            min_goodput: Some(0.50),
            min_data_availability: Some(0.45),
            min_control_goodput: Some(0.99),
            min_delivered_bits: Some(1),
            max_recovery_p95_s: Some(3_600.0),
            ..ScorecardFloors::default()
        },
    });

    // 6. The directed blackout + balloon-loss chaos day: a total
    // ground outage builds backlog everywhere, one balloon dies
    // abruptly (its backlog with it), one dies warned (custody moves
    // the bits out first).
    entries.push(CatalogEntry {
        spec: ScenarioSpec {
            name: "chaos_blackout".into(),
            seed: 31,
            duration_hours: 12,
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
            faults: FaultsSpec::Directed(blackout_windows(6, 10 * 60)),
            traffic: TrafficSpec::default(),
            sharding: ShardingSpec::default(),
        },
        // Measured: goodput 0.55, availability 0.47, custody moved
        // ~9.7 Gbit at seed.
        floors: ScorecardFloors {
            min_goodput: Some(0.40),
            min_data_availability: Some(0.35),
            min_control_goodput: Some(0.99),
            min_delivered_bits: Some(1),
            min_disruptions: Some(1),
            min_custody_initiated_bits: Some(1),
            ..ScorecardFloors::default()
        },
    });

    // 7. Regional sharding under wind drift: the dispersed fleet
    // planned by three longitude-band regions with borders threading
    // the fleet, so zonal drift produces real planner handoffs while
    // service floors hold (PR 9).
    entries.push(CatalogEntry {
        spec: ScenarioSpec {
            name: "sharded_fleet".into(),
            seed: 9006,
            duration_hours: 14,
            multipath: true,
            fleet: FleetSpec {
                geography: Geography::Kenya,
                n_balloons: 12,
                spawn_radius_km: 400.0,
            },
            demand: DemandSpec::default(),
            weather: WeatherSpec {
                regime: WeatherRegime::Clear,
                gauges: false,
            },
            faults: FaultsSpec::Quiet,
            traffic: TrafficSpec::default(),
            sharding: ShardingSpec {
                regions: 3,
                origin_lon_deg: 37.5,
                band_deg: 1.5,
                halo_km: 150.0,
                hysteresis_km: 10.0,
            },
        },
        // Measured: goodput 0.53, availability 0.40 (the 400 km
        // dispersal is deliberately sparse), p95 ≈ 16.6 ks, six
        // handoffs across the two borders at seed.
        floors: ScorecardFloors {
            min_goodput: Some(0.42),
            min_data_availability: Some(0.31),
            min_control_goodput: Some(0.99),
            min_delivered_bits: Some(1),
            max_recovery_p95_s: Some(21_600.0),
            ..ScorecardFloors::default()
        },
    });

    entries
}

/// The CI smoke subset: four small, short scenarios (4 balloons)
/// covering the three fault modes — seeded chaos, a surge, the
/// directed custody blackout — plus a two-region sharded fleet whose
/// border threads the spawn so the sharded solve + handoff path runs
/// on every push. Invariant floors only; the smoke run
/// exists to exercise the matrix path and the rerun-identity gate
/// quickly, not to pin service levels.
pub fn smoke_catalog() -> Vec<CatalogEntry> {
    let small_fleet = FleetSpec {
        geography: Geography::Kenya,
        n_balloons: 4,
        spawn_radius_km: 150.0,
    };
    let floors = ScorecardFloors {
        min_control_goodput: Some(0.99),
        min_delivered_bits: Some(1),
        ..ScorecardFloors::default()
    };
    vec![
        CatalogEntry {
            spec: ScenarioSpec {
                name: "smoke_baseline".into(),
                seed: 9001,
                duration_hours: 14,
                multipath: true,
                fleet: small_fleet.clone(),
                demand: DemandSpec::default(),
                weather: WeatherSpec {
                    regime: WeatherRegime::Clear,
                    gauges: false,
                },
                faults: FaultsSpec::Seeded {
                    expected: 4,
                    earliest_hour: 9,
                    latest_hour: 13,
                    warned_loss: false,
                },
                traffic: TrafficSpec::default(),
                sharding: ShardingSpec::default(),
            },
            floors,
        },
        CatalogEntry {
            spec: ScenarioSpec {
                name: "smoke_surge".into(),
                seed: 9003,
                duration_hours: 12,
                multipath: true,
                fleet: small_fleet.clone(),
                demand: DemandSpec {
                    surge: Some(SurgeSpec {
                        start_hour: 10,
                        duration_hours: 2,
                        multiplier: 4.0,
                    }),
                    ..DemandSpec::default()
                },
                weather: WeatherSpec {
                    regime: WeatherRegime::Clear,
                    gauges: false,
                },
                faults: FaultsSpec::Quiet,
                traffic: TrafficSpec::default(),
                sharding: ShardingSpec::default(),
            },
            floors,
        },
        CatalogEntry {
            spec: ScenarioSpec {
                name: "smoke_blackout".into(),
                seed: 31,
                duration_hours: 12,
                multipath: true,
                fleet: FleetSpec {
                    n_balloons: 4,
                    ..small_fleet.clone()
                },
                demand: DemandSpec::default(),
                weather: WeatherSpec {
                    regime: WeatherRegime::Clear,
                    gauges: false,
                },
                faults: FaultsSpec::Directed(blackout_windows(4, 10 * 60)),
                traffic: TrafficSpec::default(),
                sharding: ShardingSpec::default(),
            },
            floors,
        },
        CatalogEntry {
            spec: ScenarioSpec {
                name: "smoke_sharded".into(),
                seed: 9006,
                duration_hours: 12,
                multipath: true,
                fleet: small_fleet,
                demand: DemandSpec::default(),
                weather: WeatherSpec {
                    regime: WeatherRegime::Clear,
                    gauges: false,
                },
                faults: FaultsSpec::Quiet,
                // Two regions with the border at 37.95°E — inside the
                // seed-9006 fleet's longitude span (37.68–38.5°E), so
                // even the tiny smoke fleet straddles the border,
                // westward drift produces real handoffs, and the
                // sharded solve + merge path runs in CI.
                sharding: ShardingSpec {
                    regions: 2,
                    origin_lon_deg: 37.95,
                    band_deg: 0.5,
                    halo_km: 100.0,
                    hysteresis_km: 5.0,
                },
                traffic: TrafficSpec::default(),
            },
            floors,
        },
    ]
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
