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
//!
//! Each spec type states its fields once, in a `declare` method that
//! destructures it: key, type and the [`Rule`]s on the value alone.
//! Reading is one pass over those declarations, listing
//! ([`ScenarioSpec::fields`]) the other; writing, checking and the
//! DESIGN.md §12 table read the listing. Only the rules relating two
//! values are code of their own.

use crate::json::{fits_ms, flat, parse, Cx, Field, Json, Res, Rule, HOUR_MS, MIN_MS};
use tssdn_core::ShardingConfig;
use tssdn_link::Transceiver;
use tssdn_sim::PlatformKind;
use tssdn_traffic::{DemandConfig, StoreForwardConfig};

/// Where the fleet flies. Only the paper's Kenya-like deployment
/// exists today; the field is explicit so future geographies extend
/// the catalog instead of forking it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Geography {
    /// Three ground stations around (0°, 37.5°E), §2.2.
    #[default]
    Kenya,
}

impl Geography {
    /// How many ground stations the geography places. They take the
    /// platform ids right after the balloons'.
    pub fn ground_stations(&self) -> u32 {
        match self {
            Geography::Kenya => 3,
        }
    }
}

/// Fleet size and dispersion.
#[derive(Debug, Clone, PartialEq, Default)]
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
#[derive(Debug, Clone, Copy, PartialEq, Default)]
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
    fn default() -> Self {
        let d = DemandConfig::default();
        DemandSpec {
            users_per_site: d.users_per_site,
            flows_per_site: d.flows_per_site as u32,
            busy_hour_bps_per_user: d.busy_hour_bps_per_user,
            control_bps_per_site: d.control_bps_per_site,
            surge: None,
        }
    }
}

/// Weather regimes a scenario can run under.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum WeatherRegime {
    /// No rain anywhere, ever.
    #[default]
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
#[derive(Debug, Clone, Copy, PartialEq, Default)]
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
#[derive(Debug, Clone, PartialEq, Default)]
pub enum FaultsSpec {
    /// No injected faults.
    #[default]
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
    fn default() -> Self {
        let sf = StoreForwardConfig::default();
        TrafficSpec {
            enabled: true,
            store_forward: sf.enabled,
            custody: sf.custody,
            buffer_max_bytes: sf.max_bytes,
            buffer_max_age_mins: sf.max_age_ms / MIN_MS,
        }
    }
}

/// Regional controller-sharding knobs (the core crate's
/// `ShardingConfig` without its host-side worker count; `regions = 1`
/// is the unsharded global loop).
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
    fn default() -> Self {
        let s = ShardingConfig::default();
        ShardingSpec {
            regions: s.num_regions,
            origin_lon_deg: s.origin_lon_deg,
            band_deg: s.band_deg,
            halo_km: s.halo_km,
            hysteresis_km: s.hysteresis_km,
        }
    }
}

/// A complete scenario: seed + world + horizon. See the module docs.
/// The default is blank (no name, no balloons): what decoding fills
/// in, not a valid spec.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ScenarioSpec {
    /// Catalog key (also the scorecard filename stem).
    pub name: String,
    /// Master world seed.
    pub seed: u64,
    /// Simulated horizon, hours.
    pub duration_hours: u64,
    /// Program edge-disjoint alternate routes; the traffic engine
    /// splits bulk load over whatever alternates are programmed.
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

// The declarations: each spec type's fields, once, in the order the
// format writes them. Each destructures its type, so a field added
// without a declaration does not compile.

/// Keys two objects of the format share.
const DURATION_HOURS: &str = "duration_hours";
const BALLOON: &str = "balloon";

#[rustfmt::skip]
impl ScenarioSpec {
    fn declare(&mut self, cx: &mut Cx) -> Res {
        let ScenarioSpec {
            name, seed, duration_hours, multipath, fleet, demand, weather, faults, traffic, sharding,
        } = self;
        cx.field("name", name, &[Rule::NonEmpty])?;
        cx.field("seed", seed, &[])?;
        cx.field(DURATION_HOURS, duration_hours, &[Rule::Min(1), Rule::Hours])?;
        cx.field("multipath", multipath, &[])?;
        cx.object("fleet", |cx| fleet.declare(cx))?;
        cx.object("demand", |cx| demand.declare(cx))?;
        cx.object("weather", |cx| weather.declare(cx))?;
        let seeded = FaultsSpec::Seeded {
            expected: 0, earliest_hour: 0, latest_hour: 0, warned_loss: false,
        };
        let arms = [FaultsSpec::Quiet, seeded, FaultsSpec::Directed(Vec::new())];
        cx.union("faults", faults, &arms, FaultsSpec::declare)?;
        cx.object("traffic", |cx| traffic.declare(cx))?;
        cx.object("sharding", |cx| sharding.declare(cx))
    }
}

#[rustfmt::skip]
impl FleetSpec {
    fn declare(&mut self, cx: &mut Cx) -> Res {
        let FleetSpec { geography, n_balloons, spawn_radius_km } = self;
        cx.union("geography", geography, &[Geography::Kenya], |g, cx| match g {
            Geography::Kenya => cx.tag("kenya"),
        })?;
        cx.field("n_balloons", n_balloons, &[Rule::Min(1)])?;
        cx.field("spawn_radius_km", spawn_radius_km, &[Rule::Above(0.0)])
    }
}

#[rustfmt::skip]
impl DemandSpec {
    fn declare(&mut self, cx: &mut Cx) -> Res {
        let DemandSpec {
            users_per_site, flows_per_site, busy_hour_bps_per_user, control_bps_per_site, surge,
        } = self;
        cx.field("users_per_site", users_per_site, &[])?;
        cx.field("flows_per_site", flows_per_site, &[Rule::Min(1)])?;
        cx.field("busy_hour_bps_per_user", busy_hour_bps_per_user, &[Rule::AtLeast(0.0)])?;
        cx.field("control_bps_per_site", control_bps_per_site, &[])?;
        cx.option("surge", surge, SurgeSpec::default, |s, cx| {
            let SurgeSpec { start_hour, duration_hours, multiplier } = s;
            cx.field("start_hour", start_hour, &[])?;
            cx.field(DURATION_HOURS, duration_hours, &[Rule::Min(1)])?;
            cx.field("multiplier", multiplier, &[Rule::AtLeast(0.0)])
        })
    }
}

#[rustfmt::skip]
impl WeatherSpec {
    fn declare(&mut self, cx: &mut Cx) -> Res {
        let WeatherSpec { regime, gauges } = self;
        let arms = [WeatherRegime::Clear, WeatherRegime::Stormy { intensity: 0.0, days: 0 }];
        cx.union(flat("regime"), regime, &arms, |r, cx| match r {
            WeatherRegime::Clear => cx.tag("clear"),
            WeatherRegime::Stormy { intensity, days } => cx.object("stormy", |cx| {
                cx.field("intensity", intensity, &[Rule::AtLeast(0.0)])?;
                cx.field("days", days, &[Rule::Min(1)])
            }),
        })?;
        cx.field("gauges", gauges, &[])
    }
}

#[rustfmt::skip]
impl FaultsSpec {
    fn declare(&mut self, cx: &mut Cx) -> Res {
        match self {
            FaultsSpec::Quiet => cx.tag("quiet"),
            FaultsSpec::Seeded { expected, earliest_hour, latest_hour, warned_loss } => {
                cx.object("seeded", |cx| {
                    cx.field("expected", expected, &[Rule::Min(1)])?;
                    cx.field("earliest_hour", earliest_hour, &[])?;
                    cx.field("latest_hour", latest_hour, &[])?;
                    cx.field("warned_loss", warned_loss, &[])
                })
            }
            FaultsSpec::Directed(windows) => {
                cx.list("directed", windows, WindowSpec::blank, |w, cx| {
                    let WindowSpec { start_min, duration_mins, kind } = w;
                    cx.field("start_min", start_min, &[])?;
                    cx.field("duration_mins", duration_mins, &[Rule::Min(1)])?;
                    cx.union(flat("kind"), kind, &KINDS, KindSpec::declare)
                })
            }
        }
    }
}

/// A blank value of every fault kind, in the order decoding tries them.
#[rustfmt::skip]
const KINDS: [KindSpec; 7] = [
    KindSpec::GsOutage { site: 0 },
    KindSpec::SatcomBrownout { latency_scale: 0.0, max_drop_prob: 0.0 },
    KindSpec::InbandPartition { nodes: Vec::new() },
    KindSpec::TransceiverFault { platform: 0, index: 0, mode: FaultModeSpec::GimbalStuck },
    KindSpec::BalloonLoss { balloon: 0 },
    KindSpec::BalloonLossWarned { balloon: 0, lead_mins: 0 },
    KindSpec::CommandChaos { corrupt: 0.0, duplicate: 0.0, reorder: 0.0 },
];

impl WindowSpec {
    fn blank() -> Self {
        WindowSpec {
            start_min: 0,
            duration_mins: None,
            kind: KINDS[0].clone(),
        }
    }
}

#[rustfmt::skip]
impl KindSpec {
    fn declare(&mut self, cx: &mut Cx) -> Res {
        const P: &[Rule] = &[Rule::Probability];
        match self {
            KindSpec::GsOutage { site } => {
                cx.object(flat("gs_outage"), |cx| cx.field("site", site, &[]))
            }
            KindSpec::SatcomBrownout { latency_scale, max_drop_prob } => {
                cx.object(flat("satcom_brownout"), |cx| {
                    cx.field("latency_scale", latency_scale, &[Rule::AtLeast(1.0)])?;
                    cx.field("max_drop_prob", max_drop_prob, P)
                })
            }
            KindSpec::InbandPartition { nodes } => {
                cx.object(flat("inband_partition"), |cx| cx.field("nodes", nodes, &[]))
            }
            KindSpec::TransceiverFault { platform, index, mode } => {
                cx.object(flat("transceiver_fault"), |cx| {
                    cx.field("platform", platform, &[])?;
                    cx.field("index", index, &[])?;
                    let arms = [FaultModeSpec::GimbalStuck, FaultModeSpec::RadioReboot];
                    cx.union("mode", mode, &arms, |m, cx| match m {
                        FaultModeSpec::GimbalStuck => cx.tag("gimbal_stuck"),
                        FaultModeSpec::RadioReboot => cx.tag("radio_reboot"),
                    })
                })
            }
            KindSpec::BalloonLoss { balloon } => {
                cx.object(flat("balloon_loss"), |cx| cx.field(BALLOON, balloon, &[]))
            }
            KindSpec::BalloonLossWarned { balloon, lead_mins } => {
                cx.object(flat("balloon_loss_warned"), |cx| {
                    cx.field(BALLOON, balloon, &[])?;
                    cx.field("lead_mins", lead_mins, &[Rule::Minutes])
                })
            }
            KindSpec::CommandChaos { corrupt, duplicate, reorder } => {
                cx.object(flat("command_chaos"), |cx| {
                    cx.field("corrupt", corrupt, P)?;
                    cx.field("duplicate", duplicate, P)?;
                    cx.field("reorder", reorder, P)
                })
            }
        }
    }
}

#[rustfmt::skip]
impl TrafficSpec {
    fn declare(&mut self, cx: &mut Cx) -> Res {
        let TrafficSpec { enabled, store_forward, custody, buffer_max_bytes, buffer_max_age_mins } = self;
        cx.field("enabled", enabled, &[])?;
        cx.field("store_forward", store_forward, &[])?;
        cx.field("custody", custody, &[])?;
        cx.field("buffer_max_bytes", buffer_max_bytes, &[])?;
        cx.field("buffer_max_age_mins", buffer_max_age_mins, &[Rule::Minutes])?;
        // The allocator is always the site×class tree.
        cx.constant("hierarchical", true, "the flat allocation arm was removed")
    }
}

#[rustfmt::skip]
impl ShardingSpec {
    fn declare(&mut self, cx: &mut Cx) -> Res {
        let ShardingSpec { regions, origin_lon_deg, band_deg, halo_km, hysteresis_km } = self;
        cx.field("regions", regions, &[Rule::Min(1)])?;
        cx.field("origin_lon_deg", origin_lon_deg, &[Rule::Finite])?;
        cx.field("band_deg", band_deg, &[Rule::Above(0.0)])?;
        cx.field("halo_km", halo_km, &[Rule::AtLeast(0.0)])?;
        cx.field("hysteresis_km", hysteresis_km, &[Rule::AtLeast(0.0)])
    }
}

impl ScenarioSpec {
    /// Check every value constraint the builder relies on: each
    /// declared rule, then the relations between values. Called by
    /// [`ScenarioSpec::from_json`]; call directly on hand-constructed
    /// specs.
    pub fn validate(&self) -> Result<(), String> {
        for f in self.fields() {
            let Some(v) = &f.value else { continue };
            f.rules.iter().try_for_each(|r| r.check(v, &f.path))?;
        }
        self.relations()
    }

    /// The rules that relate two or more values.
    fn relations(&self) -> Result<(), String> {
        let hours = self.duration_hours;
        if let Some(s) = &self.demand.surge {
            let end = s.start_hour.checked_add(s.duration_hours);
            fits_ms(end, HOUR_MS, "demand.surge.start_hour + duration_hours")?;
        }
        // The builder lays down cells day by day: a count past the
        // horizon is a hang, not a storm.
        match self.weather.regime {
            WeatherRegime::Stormy { days, .. } if days > hours.div_ceil(24) => {
                return Err(format!(
                    "weather.stormy.days: {days} days exceed the {hours}-hour horizon"
                ));
            }
            _ => {}
        }
        match &self.faults {
            FaultsSpec::Quiet => {}
            // Likewise drawn one by one.
            FaultsSpec::Seeded { expected, .. }
                if u64::from(*expected) > hours.saturating_mul(60) =>
            {
                return Err(format!(
                    "faults.seeded.expected: {expected} exceeds one per minute of the {hours}-hour horizon"
                ));
            }
            FaultsSpec::Seeded {
                earliest_hour,
                latest_hour,
                ..
            } => {
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
                    let end = w.start_min.checked_add(w.duration_mins.unwrap_or(0));
                    fits_ms(end, MIN_MS, &format!("{ctx}: start_min + duration_mins"))?;
                    self.references(&w.kind, &ctx)?;
                }
            }
        }
        if self.traffic.buffer_max_bytes == 0 && self.traffic.store_forward {
            return Err("traffic.buffer_max_bytes: must be ≥ 1 when store_forward is on".into());
        }
        Ok(())
    }

    /// A fault names platforms of the fleet, of the kind it acts on.
    fn references(&self, kind: &KindSpec, ctx: &str) -> Result<(), String> {
        match kind {
            KindSpec::InbandPartition { nodes } if nodes.is_empty() => {
                Err(format!("{ctx}.nodes: must be non-empty"))
            }
            KindSpec::InbandPartition { nodes } => {
                let mut nodes = nodes.iter().enumerate();
                nodes.try_for_each(|(j, n)| {
                    self.platform_kind(*n, &format!("{ctx}.nodes[{j}]"))
                        .map(drop)
                })
            }
            KindSpec::GsOutage { site } => {
                match self.platform_kind(*site, &format!("{ctx}.site"))? {
                    PlatformKind::Balloon => Err(format!(
                        "{ctx}.site: {site} is a balloon; ground stations are {}..{}",
                        self.fleet.n_balloons,
                        self.n_platforms()
                    )),
                    _ => Ok(()),
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
                Ok(())
            }
            KindSpec::BalloonLoss { balloon } | KindSpec::BalloonLossWarned { balloon, .. }
                if *balloon >= self.fleet.n_balloons =>
            {
                Err(format!(
                    "{ctx}.balloon: must be < fleet.n_balloons ({}), got {balloon}",
                    self.fleet.n_balloons
                ))
            }
            _ => Ok(()),
        }
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

    /// The fields, this spec's or (`every_arm`) the format's.
    fn list(&self, every_arm: bool) -> Vec<Field> {
        let mut cx = Cx::new(None, every_arm, String::new(), Vec::new());
        let listed = self.clone().declare(&mut cx).and_then(|()| cx.finish());
        listed.expect("listing reads nothing")
    }

    /// The fields this spec carries, in the order the format writes
    /// them: path, place, type, rules and value.
    pub fn fields(&self) -> Vec<Field> {
        self.list(false)
    }

    /// Serialize to pretty JSON. [`ScenarioSpec::from_json`] reads it
    /// back to an equal spec (lossless round trip).
    pub fn to_json(&self) -> String {
        let mut doc = Json::Obj(Vec::new());
        for f in self.fields() {
            if let Some(v) = f.value {
                doc.set(&f.at, v);
            }
        }
        doc.to_text()
    }

    /// Parse and validate a spec from JSON text. Strict: unknown
    /// fields, duplicate keys, wrong types and out-of-range values
    /// are all errors.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let spec = Self::decode(text)?;
        spec.validate()?;
        Ok(spec)
    }

    /// Read a spec's structure — keys, types, union tags — without
    /// checking its values: [`ScenarioSpec::from_json`] is this, then
    /// [`ScenarioSpec::validate`].
    pub fn decode(text: &str) -> Result<Self, String> {
        let top = parse(text)?.into_obj("spec")?;
        let mut cx = Cx::new(Some(top), false, String::new(), Vec::new());
        let mut spec = ScenarioSpec::default();
        spec.declare(&mut cx)?;
        cx.finish()?;
        Ok(spec)
    }

    /// Every field of the format, over every union arm, as the
    /// Markdown table DESIGN.md §12 carries.
    pub fn field_table() -> String {
        let mut rows: Vec<String> = (ScenarioSpec::default().list(true).into_iter())
            .map(|f| {
                let rules: Vec<String> = f.rules.iter().map(|r| r.describe()).collect();
                let rules = if rules.is_empty() {
                    "—".into()
                } else {
                    rules.join("; ")
                };
                format!("| `{}` | {} | {rules} |", f.path, f.ty)
            })
            .collect();
        rows.dedup();
        format!(
            "| path | type | rule |\n|---|---|---|\n{}\n",
            rows.join("\n")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_field_table_is_the_documented_one() {
        let design = include_str!("../../../DESIGN.md");
        let table = ScenarioSpec::field_table();
        assert!(
            design.contains(&table),
            "DESIGN.md §12's field table differs from the declarations; it should read:\n{table}"
        );
    }

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
