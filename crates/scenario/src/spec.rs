//! The declarative scenario spec: one serializable value that fully
//! determines a simulated world.
//!
//! A [`ScenarioSpec`] names everything a run depends on — fleet size
//! and dispersion, demand-model parameters and surge events, weather
//! regime, fault plan (seeded or directed), traffic-engine switches —
//! plus the seed and the simulated horizon. Equal specs build equal
//! worlds, bit for bit; the JSON form round-trips losslessly (strict
//! parsing: unknown fields, duplicate keys and out-of-range values
//! are errors, never silently ignored).

use crate::json::{parse, Json};
use tssdn_link::Transceiver;
use tssdn_sim::PlatformKind;

/// Where the fleet flies. Only the paper's Kenya-like deployment
/// exists today; the field is explicit so future geographies extend
/// the catalog instead of forking it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Geography {
    /// Three ground stations around (0°, 37.5°E), §2.2.
    Kenya,
}

impl Geography {
    fn tag(&self) -> &'static str {
        match self {
            Geography::Kenya => "kenya",
        }
    }

    /// How many ground stations the geography places. They take the
    /// platform ids right after the balloons'.
    pub fn ground_stations(&self) -> u32 {
        match self {
            Geography::Kenya => 3,
        }
    }

    fn from_tag(s: &str) -> Result<Self, String> {
        match s {
            "kenya" => Ok(Geography::Kenya),
            other => Err(format!("fleet.geography: unknown geography \"{other}\"")),
        }
    }
}

/// Fleet size and dispersion.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetSpec {
    /// Deployment geography.
    pub geography: Geography,
    /// Balloons in the fleet.
    pub n_balloons: u32,
    /// Spawn-disc radius around the region center, km.
    pub spawn_radius_km: f64,
}

/// A demand-surge event: bulk offered load × `multiplier` over the
/// window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SurgeSpec {
    /// Surge onset, hours since sim start.
    pub start_hour: u64,
    /// Surge length, hours.
    pub duration_hours: u64,
    /// Multiplier on bulk offered load.
    pub multiplier: f64,
}

/// Demand-model parameters (the subset of the traffic engine's
/// `DemandConfig` a scenario varies; the rest keep their defaults).
#[derive(Debug, Clone, PartialEq)]
pub struct DemandSpec {
    /// Users in one site's eNodeB footprint.
    pub users_per_site: u64,
    /// Aggregate flows per site.
    pub flows_per_site: u32,
    /// Per-user busy-hour offered load, bps.
    pub busy_hour_bps_per_user: f64,
    /// Steady strict-priority control backhaul per site, bps.
    pub control_bps_per_site: u64,
    /// Optional surge event.
    pub surge: Option<SurgeSpec>,
}

impl Default for DemandSpec {
    /// Mirrors the traffic engine's `DemandConfig::default`.
    fn default() -> Self {
        DemandSpec {
            users_per_site: 20_000,
            flows_per_site: 8,
            busy_hour_bps_per_user: 2_500.0,
            control_bps_per_site: 256_000,
            surge: None,
        }
    }
}

/// Weather regimes a scenario can run under.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WeatherRegime {
    /// No rain anywhere, ever.
    Clear,
    /// The wet-season truth: convective afternoon cells around the
    /// ground stations (`stormy_truth`), scaled by `intensity`, for
    /// `days` days.
    Stormy {
        /// Peak-rain multiplier (1.0 = the standard storm).
        intensity: f64,
        /// Days of storms to schedule.
        days: u64,
    },
}

/// Weather truth + the controller's belief about it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WeatherSpec {
    /// The truth.
    pub regime: WeatherRegime,
    /// Run the controller with the production-like belief (forecast +
    /// GS rain gauges over the ITU backstop) instead of climatology
    /// only.
    pub gauges: bool,
}

/// Transceiver fault flavor (mirrors `tssdn_fault::TransceiverFaultMode`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultModeSpec {
    /// Gimbal stuck off-target (long outage).
    GimbalStuck,
    /// Radio reboot (short outage).
    RadioReboot,
}

/// One directed fault kind (mirrors `tssdn_fault::FaultKind` with
/// spec-friendly units).
#[derive(Debug, Clone, PartialEq)]
pub enum KindSpec {
    /// A ground site goes dark. `site` is the absolute platform id
    /// (ground stations follow balloons in the id space).
    GsOutage {
        /// Platform id of the dark site.
        site: u32,
    },
    /// Satcom gateway brownout.
    SatcomBrownout {
        /// One-way latency multiplier (≥ 1).
        latency_scale: f64,
        /// Silent-drop probability at the end of the ramp.
        max_drop_prob: f64,
    },
    /// Nodes cut off from the controller in-band.
    InbandPartition {
        /// The cut-off platform ids.
        nodes: Vec<u32>,
    },
    /// A single radio hardware-faulted.
    TransceiverFault {
        /// Owning platform.
        platform: u32,
        /// Transceiver index.
        index: u8,
        /// What broke.
        mode: FaultModeSpec,
    },
    /// Abrupt balloon loss.
    BalloonLoss {
        /// The lost balloon.
        balloon: u32,
    },
    /// Balloon loss with advance warning (custody window).
    BalloonLossWarned {
        /// The doomed balloon.
        balloon: u32,
        /// Warning lead, minutes.
        lead_mins: u64,
    },
    /// Command-channel chaos probabilities.
    CommandChaos {
        /// Corruption probability.
        corrupt: f64,
        /// Duplication probability.
        duplicate: f64,
        /// Reorder probability.
        reorder: f64,
    },
}

/// One directed fault window.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowSpec {
    /// Activation, minutes since sim start.
    pub start_min: u64,
    /// Window length, minutes; `None` never clears.
    pub duration_mins: Option<u64>,
    /// The fault.
    pub kind: KindSpec,
}

/// How the scenario's faults are produced.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultsSpec {
    /// No injected faults.
    Quiet,
    /// A stochastic plan generated from the scenario seed (the chaos
    /// soak's plan family, parameters exposed).
    Seeded {
        /// Expected fault-window count.
        expected: u32,
        /// Faults start no earlier, hours since sim start.
        earliest_hour: u64,
        /// Faults start no later, hours since sim start.
        latest_hour: u64,
        /// Allow balloon losses to be drawn as warned losses.
        warned_loss: bool,
    },
    /// An explicit schedule (directed tests, blackout days).
    Directed(Vec<WindowSpec>),
}

/// Traffic-engine switches.
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficSpec {
    /// Run the flow-level traffic engine at all.
    pub enabled: bool,
    /// Delay-tolerant buffering for routeless Bulk traffic.
    pub store_forward: bool,
    /// Custody transfer out of loss-warned balloons.
    pub custody: bool,
    /// Per-site buffer byte bound.
    pub buffer_max_bytes: u64,
    /// Per-site buffer age bound, minutes.
    pub buffer_max_age_mins: u64,
}

impl Default for TrafficSpec {
    /// Mirrors `TrafficConfig::default` + `StoreForwardConfig::default`.
    fn default() -> Self {
        TrafficSpec {
            enabled: true,
            store_forward: true,
            custody: true,
            buffer_max_bytes: 2_000_000_000,
            buffer_max_age_mins: 30,
        }
    }
}

/// Regional controller-sharding knobs (mirrors the core crate's
/// `ShardingConfig`; `regions = 1` is the unsharded global loop).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardingSpec {
    /// Planner regions (longitude bands). 1 disables sharding.
    pub regions: u32,
    /// Reference meridian the bands are centered about, degrees east.
    pub origin_lon_deg: f64,
    /// Interior band width, degrees of longitude.
    pub band_deg: f64,
    /// Boundary halo width, km.
    pub halo_km: f64,
    /// Ownership hysteresis, km.
    pub hysteresis_km: f64,
}

impl Default for ShardingSpec {
    /// Mirrors the core crate's `ShardingConfig::default`.
    fn default() -> Self {
        ShardingSpec {
            regions: 1,
            origin_lon_deg: 37.5,
            band_deg: 5.0,
            halo_km: 250.0,
            hysteresis_km: 25.0,
        }
    }
}

/// A complete scenario: seed + world + horizon. See the module docs.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Catalog key (also the scorecard filename stem).
    pub name: String,
    /// Master world seed.
    pub seed: u64,
    /// Simulated horizon, hours.
    pub duration_hours: u64,
    /// Program edge-disjoint alternates + engine load splitting.
    pub multipath: bool,
    /// Fleet size/dispersion/geography.
    pub fleet: FleetSpec,
    /// Demand model.
    pub demand: DemandSpec,
    /// Weather truth + belief.
    pub weather: WeatherSpec,
    /// Fault plan.
    pub faults: FaultsSpec,
    /// Traffic engine switches.
    pub traffic: TrafficSpec,
    /// Regional controller sharding.
    pub sharding: ShardingSpec,
}

fn finite(v: f64, ctx: &str) -> Result<f64, String> {
    if v.is_finite() {
        Ok(v)
    } else {
        Err(format!("{ctx}: must be finite, got {v}"))
    }
}

/// `units` spans of `unit_ms` each must come to a `u64` of
/// milliseconds: the builder multiplies them out unchecked.
fn fits_ms(units: Option<u64>, unit_ms: u64, ctx: &str) -> Result<(), String> {
    match units.and_then(|u| u.checked_mul(unit_ms)) {
        Some(_) => Ok(()),
        None => Err(format!("{ctx}: does not fit in u64 milliseconds")),
    }
}

const MIN_MS: u64 = 60 * 1000;
const HOUR_MS: u64 = 60 * MIN_MS;

fn prob(v: f64, ctx: &str) -> Result<f64, String> {
    finite(v, ctx)?;
    if (0.0..=1.0).contains(&v) {
        Ok(v)
    } else {
        Err(format!("{ctx}: probability out of [0, 1]: {v}"))
    }
}

impl ScenarioSpec {
    /// Check every value constraint the builder relies on. Called by
    /// [`ScenarioSpec::from_json`]; call directly on hand-constructed
    /// specs.
    pub fn validate(&self) -> Result<(), String> {
        if self.name.is_empty() {
            return Err("name: must be non-empty".into());
        }
        if self.duration_hours == 0 {
            return Err("duration_hours: must be ≥ 1".into());
        }
        fits_ms(Some(self.duration_hours), HOUR_MS, "duration_hours")?;
        if self.fleet.n_balloons == 0 {
            return Err("fleet.n_balloons: must be ≥ 1".into());
        }
        finite(self.fleet.spawn_radius_km, "fleet.spawn_radius_km")?;
        if self.fleet.spawn_radius_km <= 0.0 {
            return Err(format!(
                "fleet.spawn_radius_km: must be > 0, got {}",
                self.fleet.spawn_radius_km
            ));
        }
        if self.demand.flows_per_site == 0 {
            return Err("demand.flows_per_site: must be ≥ 1".into());
        }
        finite(
            self.demand.busy_hour_bps_per_user,
            "demand.busy_hour_bps_per_user",
        )?;
        if self.demand.busy_hour_bps_per_user < 0.0 {
            return Err("demand.busy_hour_bps_per_user: must be ≥ 0".into());
        }
        if let Some(s) = &self.demand.surge {
            finite(s.multiplier, "demand.surge.multiplier")?;
            if s.multiplier < 0.0 {
                return Err("demand.surge.multiplier: must be ≥ 0".into());
            }
            if s.duration_hours == 0 {
                return Err("demand.surge.duration_hours: must be ≥ 1".into());
            }
            fits_ms(
                s.start_hour.checked_add(s.duration_hours),
                HOUR_MS,
                "demand.surge.start_hour + duration_hours",
            )?;
        }
        if let WeatherRegime::Stormy { intensity, days } = self.weather.regime {
            finite(intensity, "weather.stormy.intensity")?;
            if intensity < 0.0 {
                return Err("weather.stormy.intensity: must be ≥ 0".into());
            }
            if days == 0 {
                return Err("weather.stormy.days: must be ≥ 1".into());
            }
            // The builder lays down cells day by day: a count past the
            // horizon is a hang, not a storm.
            if days > self.duration_hours.div_ceil(24) {
                return Err(format!(
                    "weather.stormy.days: {days} days exceed the {}-hour horizon",
                    self.duration_hours
                ));
            }
        }
        match &self.faults {
            FaultsSpec::Quiet => {}
            FaultsSpec::Seeded {
                expected,
                earliest_hour,
                latest_hour,
                ..
            } => {
                if *expected == 0 {
                    return Err("faults.seeded.expected: must be ≥ 1".into());
                }
                // Likewise drawn one by one.
                if u64::from(*expected) > self.duration_hours.saturating_mul(60) {
                    return Err(format!(
                        "faults.seeded.expected: {expected} exceeds one per minute of the {}-hour horizon",
                        self.duration_hours
                    ));
                }
                if latest_hour <= earliest_hour {
                    return Err(format!(
                        "faults.seeded: latest_hour {latest_hour} must exceed earliest_hour {earliest_hour}"
                    ));
                }
                // A window drawn just before `latest_hour` ends up to
                // an hour after it.
                fits_ms(
                    latest_hour.checked_add(1),
                    HOUR_MS,
                    "faults.seeded.latest_hour",
                )?;
            }
            FaultsSpec::Directed(windows) => {
                for (i, w) in windows.iter().enumerate() {
                    let ctx = format!("faults.directed[{i}]");
                    if w.duration_mins == Some(0) {
                        return Err(format!("{ctx}: duration_mins must be ≥ 1 or null"));
                    }
                    fits_ms(
                        w.start_min.checked_add(w.duration_mins.unwrap_or(0)),
                        MIN_MS,
                        &format!("{ctx}: start_min + duration_mins"),
                    )?;
                    if let KindSpec::BalloonLossWarned { lead_mins, .. } = &w.kind {
                        fits_ms(Some(*lead_mins), MIN_MS, &format!("{ctx}.lead_mins"))?;
                    }
                    match &w.kind {
                        KindSpec::SatcomBrownout {
                            latency_scale,
                            max_drop_prob,
                        } => {
                            finite(*latency_scale, &format!("{ctx}.latency_scale"))?;
                            if *latency_scale < 1.0 {
                                return Err(format!("{ctx}.latency_scale: must be ≥ 1"));
                            }
                            prob(*max_drop_prob, &format!("{ctx}.max_drop_prob"))?;
                        }
                        KindSpec::InbandPartition { nodes } => {
                            if nodes.is_empty() {
                                return Err(format!("{ctx}.nodes: must be non-empty"));
                            }
                            for (j, node) in nodes.iter().enumerate() {
                                self.platform_kind(*node, &format!("{ctx}.nodes[{j}]"))?;
                            }
                        }
                        KindSpec::CommandChaos {
                            corrupt,
                            duplicate,
                            reorder,
                        } => {
                            prob(*corrupt, &format!("{ctx}.corrupt"))?;
                            prob(*duplicate, &format!("{ctx}.duplicate"))?;
                            prob(*reorder, &format!("{ctx}.reorder"))?;
                        }
                        KindSpec::GsOutage { site } => {
                            let field = format!("{ctx}.site");
                            if self.platform_kind(*site, &field)? == PlatformKind::Balloon {
                                return Err(format!(
                                    "{field}: {site} is a balloon; ground stations are {}..{}",
                                    self.fleet.n_balloons,
                                    self.n_platforms()
                                ));
                            }
                        }
                        KindSpec::TransceiverFault {
                            platform, index, ..
                        } => {
                            let kind = self.platform_kind(*platform, &format!("{ctx}.platform"))?;
                            let count = Transceiver::count_for(kind);
                            if *index >= count {
                                return Err(format!(
                                    "{ctx}.index: platform {platform} has transceivers 0..{count}, got {index}"
                                ));
                            }
                        }
                        KindSpec::BalloonLoss { balloon }
                        | KindSpec::BalloonLossWarned { balloon, .. } => {
                            if *balloon >= self.fleet.n_balloons {
                                return Err(format!(
                                    "{ctx}.balloon: must be < fleet.n_balloons ({}), got {balloon}",
                                    self.fleet.n_balloons
                                ));
                            }
                        }
                    }
                }
            }
        }
        fits_ms(
            Some(self.traffic.buffer_max_age_mins),
            MIN_MS,
            "traffic.buffer_max_age_mins",
        )?;
        if self.traffic.buffer_max_bytes == 0 && self.traffic.store_forward {
            return Err("traffic.buffer_max_bytes: must be ≥ 1 when store_forward is on".into());
        }
        if self.sharding.regions == 0 {
            return Err("sharding.regions: must be ≥ 1".into());
        }
        finite(self.sharding.origin_lon_deg, "sharding.origin_lon_deg")?;
        finite(self.sharding.band_deg, "sharding.band_deg")?;
        if self.sharding.band_deg <= 0.0 {
            return Err(format!(
                "sharding.band_deg: must be > 0, got {}",
                self.sharding.band_deg
            ));
        }
        finite(self.sharding.halo_km, "sharding.halo_km")?;
        if self.sharding.halo_km < 0.0 {
            return Err("sharding.halo_km: must be ≥ 0".into());
        }
        finite(self.sharding.hysteresis_km, "sharding.hysteresis_km")?;
        if self.sharding.hysteresis_km < 0.0 {
            return Err("sharding.hysteresis_km: must be ≥ 0".into());
        }
        Ok(())
    }

    /// Platforms in the fleet: balloons, then the geography's ground
    /// stations. `u64`, since `n_balloons` may sit at the top of `u32`.
    fn n_platforms(&self) -> u64 {
        self.fleet.n_balloons as u64 + self.fleet.geography.ground_stations() as u64
    }

    /// What kind of platform `id` is, or an error naming `field` when
    /// the fleet has no such platform.
    fn platform_kind(&self, id: u32, field: &str) -> Result<PlatformKind, String> {
        if id < self.fleet.n_balloons {
            Ok(PlatformKind::Balloon)
        } else if (id as u64) < self.n_platforms() {
            Ok(PlatformKind::GroundStation)
        } else {
            Err(format!(
                "{field}: the fleet has platforms 0..{}, got {id}",
                self.n_platforms()
            ))
        }
    }

    /// Serialize to pretty JSON. [`ScenarioSpec::from_json`] reads it
    /// back to an equal spec (lossless round trip).
    pub fn to_json(&self) -> String {
        self.to_value().to_text()
    }

    fn to_value(&self) -> Json {
        let surge = match &self.demand.surge {
            None => Json::Null,
            Some(s) => Json::Obj(vec![
                ("start_hour".into(), Json::U64(s.start_hour)),
                ("duration_hours".into(), Json::U64(s.duration_hours)),
                ("multiplier".into(), Json::F64(s.multiplier)),
            ]),
        };
        let regime = match self.weather.regime {
            WeatherRegime::Clear => Json::Str("clear".into()),
            WeatherRegime::Stormy { intensity, days } => Json::Obj(vec![(
                "stormy".into(),
                Json::Obj(vec![
                    ("intensity".into(), Json::F64(intensity)),
                    ("days".into(), Json::U64(days)),
                ]),
            )]),
        };
        let faults = match &self.faults {
            FaultsSpec::Quiet => Json::Str("quiet".into()),
            FaultsSpec::Seeded {
                expected,
                earliest_hour,
                latest_hour,
                warned_loss,
            } => Json::Obj(vec![(
                "seeded".into(),
                Json::Obj(vec![
                    ("expected".into(), Json::U64(*expected as u64)),
                    ("earliest_hour".into(), Json::U64(*earliest_hour)),
                    ("latest_hour".into(), Json::U64(*latest_hour)),
                    ("warned_loss".into(), Json::Bool(*warned_loss)),
                ]),
            )]),
            FaultsSpec::Directed(windows) => Json::Obj(vec![(
                "directed".into(),
                Json::Arr(windows.iter().map(window_to_value).collect()),
            )]),
        };
        Json::Obj(vec![
            ("name".into(), Json::Str(self.name.clone())),
            ("seed".into(), Json::U64(self.seed)),
            ("duration_hours".into(), Json::U64(self.duration_hours)),
            ("multipath".into(), Json::Bool(self.multipath)),
            (
                "fleet".into(),
                Json::Obj(vec![
                    (
                        "geography".into(),
                        Json::Str(self.fleet.geography.tag().into()),
                    ),
                    ("n_balloons".into(), Json::U64(self.fleet.n_balloons as u64)),
                    (
                        "spawn_radius_km".into(),
                        Json::F64(self.fleet.spawn_radius_km),
                    ),
                ]),
            ),
            (
                "demand".into(),
                Json::Obj(vec![
                    (
                        "users_per_site".into(),
                        Json::U64(self.demand.users_per_site),
                    ),
                    (
                        "flows_per_site".into(),
                        Json::U64(self.demand.flows_per_site as u64),
                    ),
                    (
                        "busy_hour_bps_per_user".into(),
                        Json::F64(self.demand.busy_hour_bps_per_user),
                    ),
                    (
                        "control_bps_per_site".into(),
                        Json::U64(self.demand.control_bps_per_site),
                    ),
                    ("surge".into(), surge),
                ]),
            ),
            (
                "weather".into(),
                Json::Obj(vec![
                    ("regime".into(), regime),
                    ("gauges".into(), Json::Bool(self.weather.gauges)),
                ]),
            ),
            ("faults".into(), faults),
            (
                "traffic".into(),
                Json::Obj(vec![
                    ("enabled".into(), Json::Bool(self.traffic.enabled)),
                    (
                        "store_forward".into(),
                        Json::Bool(self.traffic.store_forward),
                    ),
                    ("custody".into(), Json::Bool(self.traffic.custody)),
                    (
                        "buffer_max_bytes".into(),
                        Json::U64(self.traffic.buffer_max_bytes),
                    ),
                    (
                        "buffer_max_age_mins".into(),
                        Json::U64(self.traffic.buffer_max_age_mins),
                    ),
                    ("hierarchical".into(), Json::Bool(true)),
                ]),
            ),
            (
                "sharding".into(),
                Json::Obj(vec![
                    ("regions".into(), Json::U64(self.sharding.regions as u64)),
                    (
                        "origin_lon_deg".into(),
                        Json::F64(self.sharding.origin_lon_deg),
                    ),
                    ("band_deg".into(), Json::F64(self.sharding.band_deg)),
                    ("halo_km".into(), Json::F64(self.sharding.halo_km)),
                    (
                        "hysteresis_km".into(),
                        Json::F64(self.sharding.hysteresis_km),
                    ),
                ]),
            ),
        ])
    }

    /// Parse and validate a spec from JSON text. Strict: unknown
    /// fields, duplicate keys, wrong types and out-of-range values
    /// are all errors.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let spec = Self::from_value(parse(text)?)?;
        spec.validate()?;
        Ok(spec)
    }

    fn from_value(v: Json) -> Result<Self, String> {
        let mut o = v.into_obj("spec")?;

        let name = o.take("name")?.as_str("name")?.to_string();
        let seed = o.take("seed")?.as_u64("seed")?;
        let duration_hours = o.take("duration_hours")?.as_u64("duration_hours")?;
        let multipath = o.take("multipath")?.as_bool("multipath")?;

        let mut f = o.take("fleet")?.into_obj("fleet")?;
        let fleet = FleetSpec {
            geography: Geography::from_tag(f.take("geography")?.as_str("fleet.geography")?)?,
            n_balloons: f.take("n_balloons")?.as_uint("fleet.n_balloons")?,
            spawn_radius_km: f.take("spawn_radius_km")?.as_f64("fleet.spawn_radius_km")?,
        };
        f.finish()?;

        let mut d = o.take("demand")?.into_obj("demand")?;
        let surge = match d.take("surge")? {
            Json::Null => None,
            v => {
                let mut s = v.into_obj("demand.surge")?;
                let surge = SurgeSpec {
                    start_hour: s.take("start_hour")?.as_u64("demand.surge.start_hour")?,
                    duration_hours: s
                        .take("duration_hours")?
                        .as_u64("demand.surge.duration_hours")?,
                    multiplier: s.take("multiplier")?.as_f64("demand.surge.multiplier")?,
                };
                s.finish()?;
                Some(surge)
            }
        };
        let demand = DemandSpec {
            users_per_site: d.take("users_per_site")?.as_u64("demand.users_per_site")?,
            flows_per_site: d.take("flows_per_site")?.as_uint("demand.flows_per_site")?,
            busy_hour_bps_per_user: d
                .take("busy_hour_bps_per_user")?
                .as_f64("demand.busy_hour_bps_per_user")?,
            control_bps_per_site: d
                .take("control_bps_per_site")?
                .as_u64("demand.control_bps_per_site")?,
            surge,
        };
        d.finish()?;

        let mut w = o.take("weather")?.into_obj("weather")?;
        let regime = match w.take("regime")? {
            Json::Str(s) if s == "clear" => WeatherRegime::Clear,
            Json::Str(s) => return Err(format!("weather.regime: unknown regime \"{s}\"")),
            v => {
                let mut r = v.into_obj("weather.regime")?;
                let mut s = r.take("stormy")?.into_obj("weather.regime.stormy")?;
                r.finish()?;
                let regime = WeatherRegime::Stormy {
                    intensity: s.take("intensity")?.as_f64("weather.stormy.intensity")?,
                    days: s.take("days")?.as_u64("weather.stormy.days")?,
                };
                s.finish()?;
                regime
            }
        };
        let weather = WeatherSpec {
            regime,
            gauges: w.take("gauges")?.as_bool("weather.gauges")?,
        };
        w.finish()?;

        let faults = match o.take("faults")? {
            Json::Str(s) if s == "quiet" => FaultsSpec::Quiet,
            Json::Str(s) => return Err(format!("faults: unknown mode \"{s}\"")),
            v => {
                let mut m = v.into_obj("faults")?;
                if let Some(seeded) = m.take_opt("seeded") {
                    let mut s = seeded.into_obj("faults.seeded")?;
                    let out = FaultsSpec::Seeded {
                        expected: s.take("expected")?.as_uint("faults.seeded.expected")?,
                        earliest_hour: s
                            .take("earliest_hour")?
                            .as_u64("faults.seeded.earliest_hour")?,
                        latest_hour: s.take("latest_hour")?.as_u64("faults.seeded.latest_hour")?,
                        warned_loss: s
                            .take("warned_loss")?
                            .as_bool("faults.seeded.warned_loss")?,
                    };
                    s.finish()?;
                    m.finish()?;
                    out
                } else if let Some(directed) = m.take_opt("directed") {
                    let windows = directed
                        .as_arr("faults.directed")?
                        .iter()
                        .enumerate()
                        .map(|(i, w)| window_from_value(w.clone(), i))
                        .collect::<Result<Vec<_>, _>>()?;
                    m.finish()?;
                    FaultsSpec::Directed(windows)
                } else {
                    m.finish()?;
                    return Err(
                        "faults: expected \"quiet\", {\"seeded\": …} or {\"directed\": …}"
                            .to_string(),
                    );
                }
            }
        };

        let mut t = o.take("traffic")?.into_obj("traffic")?;
        let traffic = TrafficSpec {
            enabled: t.take("enabled")?.as_bool("traffic.enabled")?,
            store_forward: t.take("store_forward")?.as_bool("traffic.store_forward")?,
            custody: t.take("custody")?.as_bool("traffic.custody")?,
            buffer_max_bytes: t
                .take("buffer_max_bytes")?
                .as_u64("traffic.buffer_max_bytes")?,
            buffer_max_age_mins: t
                .take("buffer_max_age_mins")?
                .as_u64("traffic.buffer_max_age_mins")?,
        };
        // Single-valued: the allocator is always the site×class tree.
        if !t.take("hierarchical")?.as_bool("traffic.hierarchical")? {
            return Err(
                "traffic.hierarchical: must be true (the flat allocation arm was removed)".into(),
            );
        }
        t.finish()?;

        let mut sh = o.take("sharding")?.into_obj("sharding")?;
        let sharding = ShardingSpec {
            regions: sh.take("regions")?.as_uint("sharding.regions")?,
            origin_lon_deg: sh
                .take("origin_lon_deg")?
                .as_f64("sharding.origin_lon_deg")?,
            band_deg: sh.take("band_deg")?.as_f64("sharding.band_deg")?,
            halo_km: sh.take("halo_km")?.as_f64("sharding.halo_km")?,
            hysteresis_km: sh.take("hysteresis_km")?.as_f64("sharding.hysteresis_km")?,
        };
        sh.finish()?;

        o.finish()?;
        Ok(ScenarioSpec {
            name,
            seed,
            duration_hours,
            multipath,
            fleet,
            demand,
            weather,
            faults,
            traffic,
            sharding,
        })
    }
}

fn window_to_value(w: &WindowSpec) -> Json {
    let kind = match &w.kind {
        KindSpec::GsOutage { site } => Json::Obj(vec![(
            "gs_outage".into(),
            Json::Obj(vec![("site".into(), Json::U64(*site as u64))]),
        )]),
        KindSpec::SatcomBrownout {
            latency_scale,
            max_drop_prob,
        } => Json::Obj(vec![(
            "satcom_brownout".into(),
            Json::Obj(vec![
                ("latency_scale".into(), Json::F64(*latency_scale)),
                ("max_drop_prob".into(), Json::F64(*max_drop_prob)),
            ]),
        )]),
        KindSpec::InbandPartition { nodes } => Json::Obj(vec![(
            "inband_partition".into(),
            Json::Obj(vec![(
                "nodes".into(),
                Json::Arr(nodes.iter().map(|n| Json::U64(*n as u64)).collect()),
            )]),
        )]),
        KindSpec::TransceiverFault {
            platform,
            index,
            mode,
        } => Json::Obj(vec![(
            "transceiver_fault".into(),
            Json::Obj(vec![
                ("platform".into(), Json::U64(*platform as u64)),
                ("index".into(), Json::U64(*index as u64)),
                (
                    "mode".into(),
                    Json::Str(
                        match mode {
                            FaultModeSpec::GimbalStuck => "gimbal_stuck",
                            FaultModeSpec::RadioReboot => "radio_reboot",
                        }
                        .into(),
                    ),
                ),
            ]),
        )]),
        KindSpec::BalloonLoss { balloon } => Json::Obj(vec![(
            "balloon_loss".into(),
            Json::Obj(vec![("balloon".into(), Json::U64(*balloon as u64))]),
        )]),
        KindSpec::BalloonLossWarned { balloon, lead_mins } => Json::Obj(vec![(
            "balloon_loss_warned".into(),
            Json::Obj(vec![
                ("balloon".into(), Json::U64(*balloon as u64)),
                ("lead_mins".into(), Json::U64(*lead_mins)),
            ]),
        )]),
        KindSpec::CommandChaos {
            corrupt,
            duplicate,
            reorder,
        } => Json::Obj(vec![(
            "command_chaos".into(),
            Json::Obj(vec![
                ("corrupt".into(), Json::F64(*corrupt)),
                ("duplicate".into(), Json::F64(*duplicate)),
                ("reorder".into(), Json::F64(*reorder)),
            ]),
        )]),
    };
    Json::Obj(vec![
        ("start_min".into(), Json::U64(w.start_min)),
        (
            "duration_mins".into(),
            match w.duration_mins {
                Some(d) => Json::U64(d),
                None => Json::Null,
            },
        ),
        ("kind".into(), kind),
    ])
}

fn window_from_value(v: Json, i: usize) -> Result<WindowSpec, String> {
    let ctx = format!("faults.directed[{i}]");
    let mut o = v.into_obj(&ctx)?;
    let start_min = o.take("start_min")?.as_u64(&format!("{ctx}.start_min"))?;
    let duration_mins = match o.take("duration_mins")? {
        Json::Null => None,
        v => Some(v.as_u64(&format!("{ctx}.duration_mins"))?),
    };
    let mut k = o.take("kind")?.into_obj(&format!("{ctx}.kind"))?;
    let kind = if let Some(v) = k.take_opt("gs_outage") {
        let mut g = v.into_obj(&format!("{ctx}.gs_outage"))?;
        let kind = KindSpec::GsOutage {
            site: g.take("site")?.as_uint(&format!("{ctx}.site"))?,
        };
        g.finish()?;
        kind
    } else if let Some(v) = k.take_opt("satcom_brownout") {
        let mut b = v.into_obj(&format!("{ctx}.satcom_brownout"))?;
        let kind = KindSpec::SatcomBrownout {
            latency_scale: b
                .take("latency_scale")?
                .as_f64(&format!("{ctx}.latency_scale"))?,
            max_drop_prob: b
                .take("max_drop_prob")?
                .as_f64(&format!("{ctx}.max_drop_prob"))?,
        };
        b.finish()?;
        kind
    } else if let Some(v) = k.take_opt("inband_partition") {
        let mut p = v.into_obj(&format!("{ctx}.inband_partition"))?;
        let nodes = p
            .take("nodes")?
            .as_arr(&format!("{ctx}.nodes"))?
            .iter()
            .map(|n| n.as_uint(&format!("{ctx}.nodes[]")))
            .collect::<Result<Vec<_>, _>>()?;
        p.finish()?;
        KindSpec::InbandPartition { nodes }
    } else if let Some(v) = k.take_opt("transceiver_fault") {
        let mut t = v.into_obj(&format!("{ctx}.transceiver_fault"))?;
        let mode = match t.take("mode")?.as_str(&format!("{ctx}.mode"))? {
            "gimbal_stuck" => FaultModeSpec::GimbalStuck,
            "radio_reboot" => FaultModeSpec::RadioReboot,
            other => return Err(format!("{ctx}.mode: unknown mode \"{other}\"")),
        };
        let kind = KindSpec::TransceiverFault {
            platform: t.take("platform")?.as_uint(&format!("{ctx}.platform"))?,
            index: t.take("index")?.as_uint(&format!("{ctx}.index"))?,
            mode,
        };
        t.finish()?;
        kind
    } else if let Some(v) = k.take_opt("balloon_loss") {
        let mut b = v.into_obj(&format!("{ctx}.balloon_loss"))?;
        let kind = KindSpec::BalloonLoss {
            balloon: b.take("balloon")?.as_uint(&format!("{ctx}.balloon"))?,
        };
        b.finish()?;
        kind
    } else if let Some(v) = k.take_opt("balloon_loss_warned") {
        let mut b = v.into_obj(&format!("{ctx}.balloon_loss_warned"))?;
        let kind = KindSpec::BalloonLossWarned {
            balloon: b.take("balloon")?.as_uint(&format!("{ctx}.balloon"))?,
            lead_mins: b.take("lead_mins")?.as_u64(&format!("{ctx}.lead_mins"))?,
        };
        b.finish()?;
        kind
    } else if let Some(v) = k.take_opt("command_chaos") {
        let mut c = v.into_obj(&format!("{ctx}.command_chaos"))?;
        let kind = KindSpec::CommandChaos {
            corrupt: c.take("corrupt")?.as_f64(&format!("{ctx}.corrupt"))?,
            duplicate: c.take("duplicate")?.as_f64(&format!("{ctx}.duplicate"))?,
            reorder: c.take("reorder")?.as_f64(&format!("{ctx}.reorder"))?,
        };
        c.finish()?;
        kind
    } else {
        return Err(format!("{ctx}.kind: no recognized fault tag"));
    };
    k.finish()?;
    o.finish()?;
    Ok(WindowSpec {
        start_min,
        duration_mins,
        kind,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The chaos-soak spec with `kind` as its only fault window.
    fn with_directed(kind: KindSpec) -> ScenarioSpec {
        let mut spec = crate::chaos_soak_spec("directed", 7);
        spec.faults = FaultsSpec::Directed(vec![WindowSpec {
            start_min: 600,
            duration_mins: Some(10),
            kind,
        }]);
        spec
    }

    fn rejected(kind: KindSpec, field: &str) {
        let spec = with_directed(kind);
        let err = spec.validate().expect_err(field);
        assert!(
            err.starts_with(&format!("faults.directed[0].{field}:")),
            "error names the field path: {err}"
        );
        // The JSON path refuses it too.
        assert!(ScenarioSpec::from_json(&spec.to_json()).is_err());
    }

    #[test]
    fn directed_faults_that_name_nothing_are_rejected() {
        let n = crate::chaos_soak_spec("directed", 7).fleet.n_balloons;
        let total = n + Geography::Kenya.ground_stations();
        rejected(KindSpec::BalloonLoss { balloon: n }, "balloon");
        rejected(
            KindSpec::BalloonLossWarned {
                balloon: u32::MAX,
                lead_mins: 5,
            },
            "balloon",
        );
        // A ground-station outage names a ground station: not a
        // balloon, not a site past the fleet.
        rejected(KindSpec::GsOutage { site: n - 1 }, "site");
        rejected(KindSpec::GsOutage { site: total }, "site");
        rejected(
            KindSpec::TransceiverFault {
                platform: total,
                index: 0,
                mode: FaultModeSpec::GimbalStuck,
            },
            "platform",
        );
        // Balloons carry three transceivers, ground stations two.
        rejected(
            KindSpec::TransceiverFault {
                platform: 0,
                index: 3,
                mode: FaultModeSpec::RadioReboot,
            },
            "index",
        );
        rejected(
            KindSpec::TransceiverFault {
                platform: n,
                index: 2,
                mode: FaultModeSpec::RadioReboot,
            },
            "index",
        );
        rejected(
            KindSpec::InbandPartition {
                nodes: vec![0, total],
            },
            "nodes[1]",
        );
    }

    #[test]
    fn directed_faults_on_the_last_platforms_are_accepted() {
        let n = crate::chaos_soak_spec("directed", 7).fleet.n_balloons;
        let last_gs = n + Geography::Kenya.ground_stations() - 1;
        for kind in [
            KindSpec::BalloonLoss { balloon: n - 1 },
            KindSpec::BalloonLossWarned {
                balloon: n - 1,
                lead_mins: 5,
            },
            KindSpec::GsOutage { site: last_gs },
            KindSpec::TransceiverFault {
                platform: n - 1,
                index: 2,
                mode: FaultModeSpec::GimbalStuck,
            },
            KindSpec::TransceiverFault {
                platform: last_gs,
                index: 1,
                mode: FaultModeSpec::GimbalStuck,
            },
            KindSpec::InbandPartition {
                nodes: vec![n - 1, last_gs],
            },
        ] {
            let spec = with_directed(kind);
            assert_eq!(spec.validate(), Ok(()), "{:?}", spec.faults);
        }
    }

    #[test]
    fn times_past_u64_milliseconds_are_rejected_by_field() {
        // 4e14 minutes is 2.4e19 ms: a wrong age bound in release, a
        // panic in debug, if the builder were ever handed it.
        let base = || {
            let mut spec = crate::chaos_soak_spec("overflow", 7);
            spec.traffic.enabled = true;
            spec
        };
        fn surge(start_hour: u64, duration_hours: u64) -> Option<SurgeSpec> {
            Some(SurgeSpec {
                start_hour,
                duration_hours,
                multiplier: 2.0,
            })
        }
        fn warned_loss(start_min: u64, duration_mins: Option<u64>, lead_mins: u64) -> FaultsSpec {
            let kind = KindSpec::BalloonLossWarned {
                balloon: 0,
                lead_mins,
            };
            FaultsSpec::Directed(vec![WindowSpec {
                start_min,
                duration_mins,
                kind,
            }])
        }
        type Edit = fn(&mut ScenarioSpec, u64);
        let edits: [(&str, Edit); 8] = [
            ("duration_hours", |s, v| s.duration_hours = v),
            ("traffic.buffer_max_age_mins", |s, v| {
                s.traffic.buffer_max_age_mins = v
            }),
            ("demand.surge.start_hour + duration_hours", |s, v| {
                s.demand.surge = surge(v, 1)
            }),
            ("demand.surge.start_hour + duration_hours", |s, v| {
                s.demand.surge = surge(1, v)
            }),
            ("faults.seeded.latest_hour", |s, v| {
                s.faults = FaultsSpec::Seeded {
                    expected: 1,
                    earliest_hour: 0,
                    latest_hour: v,
                    warned_loss: false,
                }
            }),
            ("faults.directed[0]: start_min + duration_mins", |s, v| {
                s.faults = warned_loss(v, None, 5)
            }),
            ("faults.directed[0]: start_min + duration_mins", |s, v| {
                s.faults = warned_loss(1, Some(v), 5)
            }),
            ("faults.directed[0].lead_mins", |s, v| {
                s.faults = warned_loss(1, None, v)
            }),
        ];
        for (field, edit) in edits {
            for bad in [u64::MAX, 400_000_000_000_000] {
                let mut spec = base();
                edit(&mut spec, bad);
                let err = spec.validate().expect_err(field);
                assert_eq!(err, format!("{field}: does not fit in u64 milliseconds"));
                assert_eq!(ScenarioSpec::from_json(&spec.to_json()), Err(err));
            }
            let mut spec = base();
            edit(&mut spec, 30);
            assert_eq!(spec.validate(), Ok(()), "{field}");
        }
    }

    #[test]
    fn loop_counts_are_bounded_by_the_horizon() {
        let stormy = |duration_hours, days| {
            let mut spec = crate::chaos_soak_spec("bounded", 7);
            spec.duration_hours = duration_hours;
            spec.weather.regime = WeatherRegime::Stormy {
                intensity: 1.0,
                days,
            };
            spec
        };
        // A day begun counts: 78 hours see a fourth afternoon.
        assert_eq!(stormy(78, 4).validate(), Ok(()));
        assert_eq!(stormy(1, 1).validate(), Ok(()));
        for (hours, days) in [(78, 5), (24, 2), (14, u64::MAX)] {
            let spec = stormy(hours, days);
            let err = spec.validate().expect_err("days past the horizon");
            assert!(err.starts_with("weather.stormy.days: "), "{err}");
            assert_eq!(ScenarioSpec::from_json(&spec.to_json()), Err(err));
        }

        let seeded = |duration_hours, expected| {
            let mut spec = crate::chaos_soak_spec("bounded", 7);
            spec.duration_hours = duration_hours;
            spec.faults = FaultsSpec::Seeded {
                expected,
                earliest_hour: 0,
                latest_hour: 1,
                warned_loss: false,
            };
            spec
        };
        assert_eq!(seeded(1, 60).validate(), Ok(()));
        for (hours, expected) in [(1, 61), (14, u32::MAX)] {
            let spec = seeded(hours, expected);
            let err = spec.validate().expect_err("more faults than minutes");
            assert!(err.starts_with("faults.seeded.expected: "), "{err}");
            assert_eq!(ScenarioSpec::from_json(&spec.to_json()), Err(err));
        }
    }
}
