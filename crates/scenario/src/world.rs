//! Spec → world: deterministic construction of an orchestrator from a
//! [`ScenarioSpec`].
//!
//! Everything here is a pure function of the spec. Building the same
//! spec twice yields configs that compare equal field-for-field, and
//! running the two worlds to the same time yields bit-identical
//! summaries (the scenario proptests gate on exactly that). The
//! builder reproduces the hand-built worlds it replaced — the chaos
//! soak's `kenya(n) + spawn_radius + kenya_daytime` stack and the
//! figure harness's `standard_config` — so migrating callers onto it
//! changed no numbers.

use tssdn_core::{
    Orchestrator, OrchestratorConfig, ShardingConfig, TrafficConfig, WeatherModelKind,
};
use tssdn_fault::{FaultKind, FaultPlan, PlanConfig, TransceiverFaultMode};
use tssdn_geo::GeoPoint;
use tssdn_rf::{RainCell, SyntheticWeather};
use tssdn_sim::{PlatformId, SimDuration, SimTime};
use tssdn_traffic::{DemandConfig, DemandSurge, StoreForwardConfig};

use crate::spec::{FaultModeSpec, FaultsSpec, KindSpec, ScenarioSpec, WeatherRegime};

/// A tropical wet-season truth: convective rain cells spawning daily
/// around the ground stations, drifting east — the weather that makes
/// B2G links brittle (§2.2, Figure 11). `intensity` scales the peak
/// rain rate (1.0 = the standard storm).
pub fn stormy_truth(num_days: u64, intensity: f64) -> SyntheticWeather {
    let mut w = SyntheticWeather::new();
    // Deterministic pattern: three cells per afternoon near the GS
    // sites, staggered in time and space.
    let sites = [
        GeoPoint::new(-1.25, 36.6, 0.0),
        GeoPoint::new(0.05, 37.4, 0.0),
        GeoPoint::new(-0.45, 39.4, 0.0),
    ];
    for day in 0..num_days {
        for (i, site) in sites.iter().enumerate() {
            // Afternoon convection: start between 12:00 and 15:00.
            let start = SimTime::from_days(day)
                + SimDuration::from_hours(12 + i as u64)
                + SimDuration::from_mins(13 * (day % 4));
            let end = start + SimDuration::from_hours(3 + i as u64 % 2);
            w.add_cell(RainCell {
                center: site.offset(
                    -30_000.0 + 12_000.0 * (day % 5) as f64,
                    8_000.0 * i as f64,
                    0.0,
                ),
                vel_east_mps: 6.0 + i as f64,
                vel_north_mps: 1.5,
                radius_m: 14_000.0 + 3_000.0 * (day % 3) as f64,
                peak_rain_mm_h: 25.0 * intensity + 10.0 * (day % 3) as f64,
                start_ms: start.as_ms(),
                end_ms: end.as_ms(),
            });
        }
    }
    w
}

fn kind_to_fault(k: &KindSpec) -> FaultKind {
    match k {
        KindSpec::GsOutage { site } => FaultKind::GsOutage {
            site: PlatformId(*site),
        },
        KindSpec::SatcomBrownout {
            latency_scale,
            max_drop_prob,
        } => FaultKind::SatcomBrownout {
            latency_scale: *latency_scale,
            max_drop_prob: *max_drop_prob,
        },
        KindSpec::InbandPartition { nodes } => FaultKind::InbandPartition {
            nodes: nodes.iter().map(|n| PlatformId(*n)).collect(),
        },
        KindSpec::TransceiverFault {
            platform,
            index,
            mode,
        } => FaultKind::TransceiverFault {
            platform: PlatformId(*platform),
            index: *index,
            mode: match mode {
                FaultModeSpec::GimbalStuck => TransceiverFaultMode::GimbalStuck,
                FaultModeSpec::RadioReboot => TransceiverFaultMode::RadioReboot,
            },
        },
        KindSpec::BalloonLoss { balloon } => FaultKind::BalloonLoss {
            balloon: PlatformId(*balloon),
        },
        KindSpec::BalloonLossWarned { balloon, lead_mins } => FaultKind::BalloonLossWarned {
            balloon: PlatformId(*balloon),
            lead: SimDuration::from_mins(*lead_mins),
        },
        KindSpec::CommandChaos {
            corrupt,
            duplicate,
            reorder,
        } => FaultKind::CommandChaos {
            corrupt_prob: *corrupt,
            duplicate_prob: *duplicate,
            reorder_prob: *reorder,
        },
    }
}

impl ScenarioSpec {
    /// Ground-station platform ids for this fleet (balloons first,
    /// then the geography's GS sites — the `kenya(n)` id layout).
    pub fn gs_ids(&self) -> Vec<PlatformId> {
        (self.fleet.n_balloons..self.fleet.n_balloons + self.fleet.geography.ground_stations())
            .map(PlatformId)
            .collect()
    }

    /// End of the simulated horizon.
    pub fn end_time(&self) -> SimTime {
        SimTime::from_hours(self.duration_hours)
    }

    /// The fault plan this spec describes. Seeded plans draw from the
    /// scenario seed with the soak's exact `PlanConfig` shape, so a
    /// spec with the soak's parameters reproduces the soak's plan bit
    /// for bit.
    pub fn fault_plan(&self) -> FaultPlan {
        match &self.faults {
            FaultsSpec::Quiet => FaultPlan::new(),
            FaultsSpec::Seeded {
                expected,
                earliest_hour,
                latest_hour,
                warned_loss,
            } => FaultPlan::generate(
                self.seed,
                &PlanConfig {
                    earliest: SimTime::from_hours(*earliest_hour),
                    latest: SimTime::from_hours(*latest_hour),
                    expected_faults: *expected as usize,
                    n_balloons: self.fleet.n_balloons,
                    gs_ids: self.gs_ids(),
                    transceivers_per_balloon: 3,
                    allow_permanent_loss: false,
                    warned_loss: *warned_loss,
                },
            ),
            FaultsSpec::Directed(windows) => {
                let mut plan = FaultPlan::new();
                for w in windows {
                    let start = SimTime::ZERO + SimDuration::from_mins(w.start_min);
                    let kind = kind_to_fault(&w.kind);
                    plan = match w.duration_mins {
                        Some(d) => plan.with(start, SimDuration::from_mins(d), kind),
                        None => plan.with_open(start, kind),
                    };
                }
                plan
            }
        }
    }

    /// The full orchestrator configuration this spec determines.
    pub fn orchestrator_config(&self) -> OrchestratorConfig {
        let mut cfg = OrchestratorConfig::kenya(self.fleet.n_balloons as usize, self.seed);
        cfg.fleet.spawn_radius_m = self.fleet.spawn_radius_km * 1000.0;
        if let WeatherRegime::Stormy { intensity, days } = self.weather.regime {
            cfg.weather_truth = stormy_truth(days, intensity);
        }
        if self.weather.gauges {
            // The production-like belief `standard_config` always ran:
            // site gauges + an imperfect forecast over the ITU
            // backstop (§5).
            cfg.weather_model = WeatherModelKind::WithGauges {
                position_error_m: 20_000.0,
                timing_error_ms: 30 * 60 * 1000,
                intensity_scale: 0.8,
            };
        }
        cfg.fault_plan = self.fault_plan();
        cfg.multipath_routes = self.multipath;
        cfg.sharding = ShardingConfig {
            num_regions: self.sharding.regions,
            origin_lon_deg: self.sharding.origin_lon_deg,
            band_deg: self.sharding.band_deg,
            halo_km: self.sharding.halo_km,
            hysteresis_km: self.sharding.hysteresis_km,
            workers: None,
        };
        if self.traffic.enabled {
            cfg.traffic = Some(TrafficConfig {
                demand: DemandConfig {
                    users_per_site: self.demand.users_per_site,
                    flows_per_site: self.demand.flows_per_site as usize,
                    busy_hour_bps_per_user: self.demand.busy_hour_bps_per_user,
                    control_bps_per_site: self.demand.control_bps_per_site,
                    surge: self.demand.surge.map(|s| DemandSurge {
                        start_ms: SimDuration::from_hours(s.start_hour).as_ms(),
                        end_ms: SimDuration::from_hours(s.start_hour + s.duration_hours).as_ms(),
                        multiplier: s.multiplier,
                    }),
                    ..DemandConfig::default()
                },
                store_forward: StoreForwardConfig {
                    enabled: self.traffic.store_forward,
                    max_bytes: self.traffic.buffer_max_bytes,
                    max_age_ms: self.traffic.buffer_max_age_mins * 60 * 1000,
                    custody: self.traffic.custody,
                },
                ..TrafficConfig::default()
            });
        }
        cfg
    }

    /// Construct the world. Equal specs build equal worlds.
    pub fn build(&self) -> Orchestrator {
        Orchestrator::new(self.orchestrator_config())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WindowSpec;
    use tssdn_rf::WeatherField;

    fn quiet_spec() -> ScenarioSpec {
        crate::catalog::base("unit", 9001)
    }

    #[test]
    fn stormy_truth_rains_in_the_afternoon() {
        let w = stormy_truth(2, 1.0);
        // Near the first site mid-afternoon on day 0.
        let p = GeoPoint::new(-1.25, 36.7, 500.0);
        let t = SimTime::from_hours(13) + SimDuration::from_mins(30);
        let mut any = 0.0f64;
        // Cells drift; scan a neighbourhood.
        for dx in -4..=4 {
            let q = p.offset(dx as f64 * 15_000.0, 0.0, 0.0);
            any = any.max(w.sample(&q, t.as_ms()).rain_mm_h);
        }
        assert!(any > 5.0, "afternoon storm present, got {any}");
        // Small hours: dry.
        let night = w.sample(&p, SimTime::from_hours(3).as_ms());
        assert_eq!(night.rain_mm_h, 0.0);
    }

    #[test]
    fn seeded_plan_matches_the_soaks_kenya_daytime_family() {
        // The spec's seeded-fault path must reproduce the exact plan
        // the chaos soak generated by hand, or migrating the soak
        // would silently change every seeded scenario.
        let mut spec = quiet_spec();
        spec.faults = FaultsSpec::Seeded {
            expected: 6,
            earliest_hour: 9,
            latest_hour: 13,
            warned_loss: false,
        };
        let by_hand = FaultPlan::generate(spec.seed, &PlanConfig::kenya_daytime(6, spec.gs_ids()));
        assert_eq!(spec.fault_plan(), by_hand);
    }

    #[test]
    fn directed_windows_translate_one_to_one() {
        let mut spec = quiet_spec();
        spec.faults = FaultsSpec::Directed(vec![
            WindowSpec {
                start_min: 600,
                duration_mins: Some(25),
                kind: KindSpec::GsOutage { site: 6 },
            },
            WindowSpec {
                start_min: 620,
                duration_mins: None,
                kind: KindSpec::BalloonLossWarned {
                    balloon: 0,
                    lead_mins: 8,
                },
            },
        ]);
        let plan = spec.fault_plan();
        assert_eq!(plan.windows.len(), 2);
        assert_eq!(plan.windows[0].start, SimTime::from_hours(10));
        assert_eq!(
            plan.windows[0].end,
            Some(SimTime::from_hours(10) + SimDuration::from_mins(25))
        );
        assert_eq!(
            plan.windows[1].kind,
            FaultKind::BalloonLossWarned {
                balloon: PlatformId(0),
                lead: SimDuration::from_mins(8),
            }
        );
        assert_eq!(plan.windows[1].end, None);
    }

    #[test]
    fn traffic_spec_maps_onto_engine_config() {
        let mut spec = quiet_spec();
        spec.traffic.store_forward = false;
        spec.traffic.custody = false;
        spec.traffic.buffer_max_age_mins = 10;
        spec.demand.surge = Some(crate::spec::SurgeSpec {
            start_hour: 10,
            duration_hours: 4,
            multiplier: 3.0,
        });
        let cfg = spec.orchestrator_config();
        let t = cfg.traffic.expect("traffic enabled");
        assert!(!t.store_forward.enabled);
        assert!(!t.store_forward.custody);
        assert_eq!(t.store_forward.max_age_ms, 10 * 60 * 1000);
        let s = t.demand.surge.expect("surge mapped");
        assert_eq!(s.start_ms, 10 * 3600 * 1000);
        assert_eq!(s.end_ms, 14 * 3600 * 1000);

        spec.traffic.enabled = false;
        assert!(spec.orchestrator_config().traffic.is_none());
    }

    #[test]
    fn default_spec_blocks_build_the_subsystem_defaults() {
        let cfg = quiet_spec().orchestrator_config();
        let traffic = cfg.traffic.expect("traffic enabled");
        assert_eq!(
            format!("{traffic:?}"),
            format!("{:?}", TrafficConfig::default())
        );
        let sharding = format!("{:?}", cfg.sharding);
        assert_eq!(sharding, format!("{:?}", ShardingConfig::default()));
    }
}
