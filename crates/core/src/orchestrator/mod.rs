//! The orchestrator: the closed loop between the TS-SDN controller
//! and the simulated world, as the parts the paper draws.
//!
//! [`Orchestrator`] owns both sides honestly. Its `pub` fields are the
//! shared substrate every part works on — the controller's
//! [`NetworkModel`], the [`IntentStore`], the hybrid control plane
//! ([`tssdn_cpl::CdpiFrontend`]), the forwarding fabric, tunnels,
//! drains, the link ledger, the fault engine and the telemetry
//! collectors. Everything else belongs to exactly one part — `truth`,
//! `enactment`, `routes` (+ `route_search`), `planner`, `mesh`,
//! `traffic_view`; `observe` owns nothing — a struct whose fields are
//! private to its module, so which code may change which state is
//! checked by the compiler (DESIGN.md §14 has the table).
//! A part reaches another part's state through that part's methods.
//!
//! [`Orchestrator::run_until`] advances the clock one tick and runs
//! the stages of `STAGES`, in this order, every tick:
//!
//! 1. `advance_truth` — move the fleet, open and close fault windows,
//!    push fault levels into the control plane
//! 2. `ingest_reports` — position / power reports and gauge readings
//!    into the model (report cadence)
//! 3. `poll_control_plane` — deliver, confirm and expire commands
//! 4. `poll_links` — step every link machine against true margins
//! 5. `apply_pending_knowledge` — failures the controller now learns
//! 6. `update_mesh` — BATMAN flood, in-band sessions, side-channel
//!    confirmations
//! 7. `event_resolve` — re-solve a pipeline latency after a topology
//!    change
//! 8. `controller_cycle` — evaluate, solve, actuate (solve cadence)
//! 9. `probe_and_traffic` — availability probe and traffic tick
//!    (probe cadence)
//! 10. `trim` — forget terminations older than the correlation window
//!
//! Each cadence test lives inside its own stage, and
//! [`Orchestrator::stage_wall`] reports the wall-clock each stage took
//! (host time, out of band: no summary or scorecard reads it).
//! Telemetry collectors for Figures 6, 8, 10 and 11 fill as the run
//! progresses; experiment binaries read them afterwards.

mod enactment;
mod mesh;
mod observe;
mod planner;
mod route_search;
mod routes;
mod traffic_view;
mod truth;

pub use observe::{DataPlaneStatus, RunSummary};

use crate::evaluator::EvaluatorConfig;
use crate::intent::{IntentId, IntentStore};
use crate::model::{NetworkModel, WeatherSource};
use crate::solver::SolverConfig;
use crate::validation::ModelValidator;
use std::collections::BTreeSet;
use std::time::{Duration, Instant};
use tssdn_cpl::{CdpiConfig, CdpiEvent, CdpiFrontend, CommandBody};
use tssdn_dataplane::{DrainRegistry, RoutingFabric, TunnelRegistry};
use tssdn_fault::{ChaosEngine, FaultPlan};
use tssdn_link::{AcqConfig, LinkLedger, Transceiver};
use tssdn_rf::SyntheticWeather;
use tssdn_sim::{Fleet, FleetConfig, PlatformId, PlatformKind, RngStreams, SimDuration, SimTime};
use tssdn_telemetry::{AvailabilitySeries, RouteRecoveryTracker};
use tssdn_traffic::TrafficConfig;

/// Controller policy switches for the ablation experiments.
#[derive(Debug, Clone, Copy)]
pub struct SolverPolicy {
    /// When true, the controller proactively withdraws links the
    /// solver no longer wants (predictive teardown). When false, links
    /// are only ever lost to the environment (reactive-only, E10).
    pub predictive_withdrawal: bool,
    /// §7 future work: condition link selection on observed enactment
    /// success rates. Off by default — the deployed TS-SDN "lacked a
    /// feedback loop and relied on modeled data" (§5); E14 measures
    /// what it would have bought.
    pub enactment_feedback: bool,
}

impl Default for SolverPolicy {
    fn default() -> Self {
        SolverPolicy {
            predictive_withdrawal: true,
            enactment_feedback: false,
        }
    }
}

/// Full orchestrator configuration.
#[derive(Debug, Clone)]
pub struct OrchestratorConfig {
    /// Master seed.
    pub seed: u64,
    /// Fleet generation parameters.
    pub fleet: FleetConfig,
    /// Weather truth.
    pub weather_truth: SyntheticWeather,
    /// Evaluator settings.
    pub evaluator: EvaluatorConfig,
    /// Solver settings.
    pub solver: SolverConfig,
    /// Link acquisition dynamics.
    pub acq: AcqConfig,
    /// Control-plane settings.
    pub cdpi: CdpiConfig,
    /// Policy switches.
    pub policy: SolverPolicy,
    /// Base simulation tick (link machines, MANET, CDPI).
    pub tick: SimDuration,
    /// Controller solve cadence.
    pub solve_interval: SimDuration,
    /// How far ahead of now the evaluator models the world.
    pub plan_lead: SimDuration,
    /// Position/power report cadence into the model.
    pub report_interval: SimDuration,
    /// Reachability probe cadence.
    pub probe_interval: SimDuration,
    /// Latency of the controller's reaction pipeline: time from
    /// learning about a topology change to issuing the re-solve's
    /// commands (telemetry ingestion, incremental solve, actuation
    /// compilation — "tens of seconds" end to end in production).
    pub controller_pipeline: SimDuration,
    /// Number of EC pods (each gets tunnels from every GS).
    pub num_ec: usize,
    /// Per-balloon backhaul demand, bps.
    pub demand_bps: u64,
    /// Antennas per balloon (3 in production; Appendix A sweeps it).
    pub transceivers_per_balloon: u8,
    /// Infant (tracking-settling) drop hazard for B2G links, per
    /// second over the first [`AcqConfig::infant_period`]. Low
    /// elevation + ground clutter made fresh B2G locks fragile
    /// (Figure 11: 44.8% of B2G links lasted under a minute).
    pub b2g_infant_hazard_per_s: f64,
    /// Infant drop hazard for B2B links (Figure 11: 15% early
    /// mortality).
    pub b2b_infant_hazard_per_s: f64,
    /// Which weather belief the controller runs with (E11 sweeps it).
    pub weather_model: WeatherModelKind,
    /// Enable the §2.2 LoRaWAN bootstrap prototype: a one-hop 350 km
    /// broadcast channel from GS sites that carries (small) link
    /// commands far faster than satcom. Off by default — Loon never
    /// deployed it; E15 measures the bootstrap speedup it forfeited.
    pub lora_bootstrap: bool,
    /// Scheduled fault windows driven by the chaos engine. Empty by
    /// default; the soak harness generates seeded plans.
    pub fault_plan: FaultPlan,
    /// Flow-level traffic engine settings (E17). `None` (the default)
    /// disables the engine entirely: no demand is generated, no
    /// request weights are touched, and runs are bit-identical to
    /// pre-traffic builds.
    pub traffic: Option<TrafficConfig>,
    /// Program an edge-disjoint *alternate* forwarding path for each
    /// backhaul flow whenever the installed topology offers one (the
    /// redundancy pass frequently does). The traffic engine splits
    /// each site's bulk load across both paths; if the primary stops
    /// tracing, traffic fails over to the alternate. Deliberately
    /// independent of `traffic`: route programming must be identical
    /// whether or not the engine is on, so traffic stays invisible to
    /// seeded planning. Off by default — alt programs add route
    /// command volume, which perturbs control-plane timing in every
    /// seeded scenario; experiments opt in (E17 A/Bs it).
    pub multipath_routes: bool,
    /// Regional controller sharding (PR 9). The default
    /// (`num_regions = 1`) takes today's global solve path untouched;
    /// with more regions, each solve cycle partitions planning across
    /// per-region scopes and merges deterministically
    /// ([`crate::sharding`]).
    pub sharding: crate::sharding::ShardingConfig,
}

/// Selectable controller weather beliefs (constructed against the
/// configured truth at build time).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WeatherModelKind {
    /// ITU-R climatology only.
    ItuOnly,
    /// Climatology + a forecast of the truth with the given errors.
    WithForecast {
        /// Horizontal displacement error, meters.
        position_error_m: f64,
        /// Timing error, ms.
        timing_error_ms: i64,
        /// Intensity scale factor.
        intensity_scale: f64,
    },
    /// Climatology + forecast + rain gauges at every GS site.
    WithGauges {
        /// Forecast horizontal displacement error, meters.
        position_error_m: f64,
        /// Forecast timing error, ms.
        timing_error_ms: i64,
        /// Forecast intensity scale factor.
        intensity_scale: f64,
    },
}

impl OrchestratorConfig {
    /// A Kenya-like scenario with `n` balloons.
    pub fn kenya(n: usize, seed: u64) -> Self {
        OrchestratorConfig {
            seed,
            fleet: FleetConfig::kenya(n),
            weather_truth: SyntheticWeather::new(),
            evaluator: EvaluatorConfig::default(),
            solver: SolverConfig::default(),
            acq: AcqConfig::loon_default(),
            cdpi: CdpiConfig::default(),
            policy: SolverPolicy::default(),
            tick: SimDuration::from_secs(5),
            solve_interval: SimDuration::from_secs(60),
            plan_lead: SimDuration::from_secs(180),
            report_interval: SimDuration::from_secs(60),
            probe_interval: SimDuration::from_secs(10),
            controller_pipeline: SimDuration::from_secs(20),
            num_ec: 1,
            demand_bps: 50_000_000,
            transceivers_per_balloon: 3,
            weather_model: WeatherModelKind::ItuOnly,
            b2g_infant_hazard_per_s: 0.010,
            b2b_infant_hazard_per_s: 0.0027,
            lora_bootstrap: false,
            fault_plan: FaultPlan::new(),
            traffic: None,
            multipath_routes: false,
            sharding: crate::sharding::ShardingConfig::default(),
        }
    }
}

/// A backhaul flow: `(source balloon, destination EC)`.
type Flow = (PlatformId, PlatformId);

/// Platform pairs, as `(min, max)`, whose radio link is established.
type UpLinks = BTreeSet<(PlatformId, PlatformId)>;

/// The orchestrator. See module docs.
pub struct Orchestrator {
    /// Configuration (immutable after construction).
    pub config: OrchestratorConfig,
    truth: truth::Truth,
    /// Unified fault-injection engine: scheduled fault windows plus
    /// faults forced by directed tests. All injected failure modes —
    /// site outages, balloon loss, satcom brownouts, partitions,
    /// transceiver faults, command chaos — route through here.
    pub chaos: ChaosEngine,
    /// The controller's model (public for experiment introspection).
    pub model: NetworkModel,
    planner: planner::Planner,
    /// Intent ledger (public: the artifact's change-log view).
    pub intents: IntentStore,
    /// The hybrid control plane.
    pub cdpi: CdpiFrontend,
    /// Source-destination forwarding state.
    pub fabric: RoutingFabric,
    routes: routes::Routes,
    /// GS↔EC tunnels.
    pub tunnels: TunnelRegistry,
    /// Administrative drains.
    pub drains: DrainRegistry,
    enactment: enactment::Enactment,
    /// Link-attempt ledger (Figure 8/11 source).
    pub ledger: LinkLedger,
    /// Confirmed route programs that carried an alternate alongside
    /// the primary (one intent, two planes).
    pub alt_programs_piggybacked: u64,
    traffic: traffic_view::TrafficView,
    /// Custody designations issued or changed (telemetry).
    pub custody_intents_issued: u64,
    /// Planner-ownership map for regional sharding. Present (and
    /// maintained) only when `config.sharding.num_regions > 1`; with
    /// a single region it stays empty and the global solve path runs.
    pub regions: crate::sharding::RegionMap,
    /// Every wind-drift planner handoff observed so far, in event
    /// order (telemetry + handoff-contract tests).
    pub handoff_log: Vec<crate::sharding::HandoffEvent>,
    mesh: mesh::Mesh,
    /// Figure 6 collector.
    pub availability: AvailabilitySeries,
    /// Figure 8 collector (data-plane breaks).
    pub recovery: RouteRecoveryTracker,
    /// Control-plane (in-band reachability) breaks — §3.2's "75% of
    /// recovered routes had control plane breakages of less than 20
    /// seconds".
    pub recovery_control: RouteRecoveryTracker,
    /// Figure 10 / 13 collector.
    pub validator: ModelValidator,
    /// The most recent solver output (Figure-7 introspection).
    pub last_plan: Option<crate::solver::TopologyPlan>,
    /// Enactment-feedback evidence (only consulted when
    /// `policy.enactment_feedback` is on).
    pub feedback: crate::feedback::FeedbackStats,
    streams: RngStreams,
    now: SimTime,
    next_report: SimTime,
    next_probe: SimTime,
    /// Wall-clock spent in each stage of `STAGES`, summed over every
    /// `run_until` so far. Host time, never simulation state: nothing
    /// deterministic reads it ([`Orchestrator::stage_wall`]).
    stage_wall: [Duration; STAGES.len()],
}

/// One step of a tick: a name for docs, tests and timers, and the
/// function that runs it.
struct Stage {
    name: &'static str,
    run: fn(&mut Orchestrator),
}

const fn stage(name: &'static str, run: fn(&mut Orchestrator)) -> Stage {
    Stage { name, run }
}

/// What one tick does, in order (module docs).
const STAGES: [Stage; 10] = [
    stage("advance_truth", Orchestrator::advance_truth),
    stage("ingest_reports", Orchestrator::ingest_reports),
    stage("poll_control_plane", Orchestrator::poll_control_plane),
    stage("poll_links", Orchestrator::poll_links),
    stage(
        "apply_pending_knowledge",
        Orchestrator::apply_pending_knowledge,
    ),
    stage("update_mesh", Orchestrator::update_mesh),
    stage("event_resolve", Orchestrator::event_resolve),
    stage("controller_cycle", Orchestrator::controller_cycle),
    stage("probe_and_traffic", Orchestrator::probe_and_traffic),
    stage("trim", Orchestrator::trim),
];

/// The controller's weather belief per the configured kind.
fn weather_source(config: &OrchestratorConfig, fleet: &Fleet) -> WeatherSource {
    let backstop = tssdn_rf::ItuSeasonal::tropical_wet();
    let forecast = |position_error_m, timing_error_ms, intensity_scale| {
        tssdn_rf::ForecastView::new(
            config.weather_truth.clone(),
            position_error_m,
            timing_error_ms,
            intensity_scale,
        )
    };
    match config.weather_model {
        WeatherModelKind::ItuOnly => WeatherSource::Itu(backstop),
        WeatherModelKind::WithForecast {
            position_error_m,
            timing_error_ms,
            intensity_scale,
        } => WeatherSource::Forecast(
            forecast(position_error_m, timing_error_ms, intensity_scale),
            backstop,
        ),
        WeatherModelKind::WithGauges {
            position_error_m,
            timing_error_ms,
            intensity_scale,
        } => WeatherSource::GaugesAndForecast {
            gauges: fleet
                .ground_stations
                .iter()
                .map(|g| tssdn_rf::RainGauge {
                    site: g.pos,
                    representative_radius_m: 40_000.0,
                })
                .collect(),
            forecast: forecast(position_error_m, timing_error_ms, intensity_scale),
            backstop,
        },
    }
}

/// Controller model: platforms + transceivers. GS masks start in sync
/// with truth (site survey was correct on day one).
fn build_model(config: &OrchestratorConfig, fleet: &Fleet) -> NetworkModel {
    let mut model = NetworkModel::new(weather_source(config, fleet));
    let nx = config.transceivers_per_balloon.max(2);
    for (id, kind) in fleet.platform_ids() {
        let transceivers: Vec<Transceiver> = match kind {
            PlatformKind::Balloon => (0..nx)
                .map(|i| Transceiver::balloon_of(id, i, nx))
                .collect(),
            PlatformKind::GroundStation => (0..2)
                .map(|i| Transceiver::ground_station(id, i, truth::surveyed_ground_station()))
                .collect(),
        };
        model.add_platform(id, kind, transceivers);
    }
    model
}

impl Orchestrator {
    /// Build the world and controller from `config`; each part builds
    /// itself.
    pub fn new(config: OrchestratorConfig) -> Self {
        let streams = RngStreams::new(config.seed);
        let truth = truth::Truth::new(&config, &streams);
        let fleet = truth.fleet();
        let routes = routes::Routes::new(fleet.num_platforms() as u32, config.num_ec);
        // Every EC pod gets a tunnel from every ground station.
        let mut tunnels = TunnelRegistry::new();
        for ec in routes.ec_ids() {
            for gs in &fleet.ground_stations {
                tunnels.establish(gs.id, *ec, SimTime::ZERO);
            }
        }
        let mut cdpi_config = config.cdpi;
        cdpi_config.lora_enabled = config.lora_bootstrap;
        Orchestrator {
            model: build_model(&config, fleet),
            planner: planner::Planner::new(&config, fleet, routes.ec_ids()[0]),
            mesh: mesh::Mesh::new(fleet, &streams),
            traffic: traffic_view::TrafficView::new(&config, fleet, &streams),
            truth,
            routes,
            tunnels,
            enactment: enactment::Enactment::default(),
            chaos: ChaosEngine::new(config.fault_plan.clone()),
            intents: IntentStore::new(),
            cdpi: CdpiFrontend::new(cdpi_config, &streams),
            fabric: RoutingFabric::new(),
            drains: DrainRegistry::new(),
            ledger: LinkLedger::new(),
            alt_programs_piggybacked: 0,
            custody_intents_issued: 0,
            regions: crate::sharding::RegionMap::new(config.sharding),
            handoff_log: Vec::new(),
            availability: AvailabilitySeries::new(tssdn_sim::time::MS_PER_DAY),
            recovery: RouteRecoveryTracker::new(),
            recovery_control: RouteRecoveryTracker::new(),
            validator: ModelValidator::new(),
            last_plan: None,
            feedback: crate::feedback::FeedbackStats::new(),
            streams,
            now: SimTime::ZERO,
            next_report: SimTime::ZERO,
            next_probe: SimTime::ZERO,
            stage_wall: [Duration::ZERO; STAGES.len()],
            config,
        }
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The controller's network model (read-only).
    pub fn network_model(&self) -> &NetworkModel {
        &self.model
    }

    /// Advance the whole world to `to`, one tick at a time: the clock
    /// moves, then every stage of `STAGES` runs in order. Each stage's
    /// wall-clock time is added to [`Self::stage_wall`] (one
    /// `Instant::now` per stage, plus one per call; moving the clock
    /// counts towards the first stage).
    pub fn run_until(&mut self, to: SimTime) {
        let mut start = Instant::now();
        while self.now < to {
            self.now = (self.now + self.config.tick).min(to);
            for (i, stage) in STAGES.iter().enumerate() {
                (stage.run)(self);
                let end = Instant::now();
                self.stage_wall[i] += end - start;
                start = end;
            }
        }
    }

    /// Wall-clock time spent in each stage so far, by stage name in
    /// `STAGES` order — where the host's time went, for profiles and
    /// reports. Out of band: it never enters a summary, a scorecard or
    /// anything else a rerun must reproduce.
    pub fn stage_wall(&self) -> [(&'static str, Duration); STAGES.len()] {
        std::array::from_fn(|i| (STAGES[i].name, self.stage_wall[i]))
    }

    /// Stage `poll_control_plane`: whatever the control plane
    /// delivered, confirmed or gave up on since the last tick.
    fn poll_control_plane(&mut self) {
        for ev in self.cdpi.poll(self.now) {
            self.handle_cpl_event(ev);
        }
    }

    /// Hand one control-plane event to the part it concerns: link
    /// commands to link enactment, SetRoutes to route programming. A
    /// confirmation or expiry names only a cpl intent id, so route
    /// programming is asked first and link enactment second.
    fn handle_cpl_event(&mut self, ev: CdpiEvent) {
        match ev {
            CdpiEvent::DeliveredToNode { cmd, .. } => match cmd.body {
                CommandBody::EstablishLink { intent_id, .. } => {
                    self.establish_delivered(IntentId(intent_id), cmd.dest, cmd.tte);
                }
                CommandBody::TeardownLink { intent_id } => {
                    self.teardown_delivered(IntentId(intent_id), cmd.tte);
                }
                CommandBody::SetRoutes { version, .. } => {
                    self.routes.delivered(&mut self.fabric, cmd.dest, version);
                }
            },
            CdpiEvent::IntentConfirmed { intent_id, .. } => {
                if !self.route_program_confirmed(intent_id) {
                    self.link_intent_confirmed(intent_id);
                }
            }
            CdpiEvent::Expired { intent_id, .. } => {
                self.link_commands_expired(intent_id);
                self.routes.expired(intent_id);
            }
            CdpiEvent::Retried { .. } => {}
        }
    }
}

#[cfg(test)]
mod tests {
    //! Whole-loop tests. A test of one part sits in that part's
    //! module, where it can see the part's private state; the suite
    //! pins the ids of the tests that predate the split as
    //! `orchestrator::tests::<name>`, so those are declared here and
    //! run their bodies from beside the part.
    use super::*;
    use crate::evaluator::CandidateLink;
    use tssdn_fault::PlanConfig;
    use tssdn_link::TransceiverId;
    use tssdn_rf::RainCell;
    use tssdn_telemetry::Layer;

    /// A small daytime scenario: spawn at 09:00 with everything
    /// powered by construction of the probe times.
    pub(super) fn small() -> Orchestrator {
        let mut cfg = OrchestratorConfig::kenya(6, 42);
        cfg.fleet.spawn_radius_m = 150_000.0;
        Orchestrator::new(cfg)
    }

    /// A plausible B2G candidate from `balloon`'s first radio to `gs`'s.
    pub(super) fn b2g_candidate(balloon: PlatformId, gs: PlatformId) -> CandidateLink {
        CandidateLink {
            a: TransceiverId::new(balloon, 0),
            b: TransceiverId::new(gs, 0),
            kind: tssdn_link::LinkKind::B2G,
            band: 0,
            bitrate_bps: 1_000_000_000,
            margin_db: 10.0,
            quality: tssdn_rf::LinkQuality::Acceptable,
            pointing_a: tssdn_geo::AzEl::new(0.0, 0.0),
            pointing_b: tssdn_geo::AzEl::new(180.0, 45.0),
            range_m: 100_000.0,
        }
    }

    macro_rules! beside_the_part {
        ($($part:ident :: $name:ident),* $(,)?) => {$(
            #[test]
            fn $name() {
                super::$part::tests::$name();
            }
        )*};
    }

    beside_the_part! {
        enactment::confirm_stores_stay_flat_over_three_days,
        enactment::ended_intents_leave_both_confirm_stores,
        enactment::intent_established_in_band_is_offered_at_the_next_tick_only,
        enactment::intent_established_out_of_band_confirms_once_at_first_inband_tick,
        planner::candidate_graph_nonempty_by_day,
        planner::reachable_set_tracks_the_cached_graph,
        planner::validator_collects_model_error_samples,
        routes::combined_program_guards_each_plane_independently,
        routes::data_plane_routes_get_programmed,
        route_search::filtered_search_handles_cuts_gateway_sources_and_strays,
        routes::multipath_programs_alt_routes_when_redundancy_exists,
        routes::redundancy_loss_withdraws_the_alt_plane,
        traffic_view::traffic_disabled_by_default_and_inert,
        traffic_view::traffic_engine_carries_load_once_routes_exist,
    }

    proptest::proptest! {
        #[test]
        fn one_adjacency_finds_the_routes_a_rebuild_would(
            pairs in proptest::collection::vec((0u32..20, 0u32..20), 0..45),
            gateways in proptest::collection::vec(0u32..20, 1..4),
        ) {
            use route_search::tests::{edge_set, same_routes_as_rebuilding};
            let gateways: Vec<PlatformId> = gateways.into_iter().map(PlatformId).collect();
            if let Err(why) = same_routes_as_rebuilding(&edge_set(&pairs), &gateways, 20) {
                return Err(proptest::TestCaseError::Fail(why));
            }
        }
    }

    #[test]
    fn world_constructs_with_expected_inventory() {
        let o = small();
        assert_eq!(o.fleet().num_platforms(), 9);
        assert_eq!(o.ec_ids().len(), 1);
        assert_eq!(o.model.platforms().count(), 9);
        // Tunnels: every GS to the EC.
        assert_eq!(o.tunnels.gateways_to(o.ec_ids()[0]).len(), 3);
    }

    #[test]
    fn mesh_forms_and_layers_come_up_during_the_day() {
        let mut o = small();
        // Run from midnight to mid-morning: balloons boot after dawn,
        // satcom bootstrap commands flow, links form.
        o.run_until(SimTime::from_hours(11));
        let s = o.summary();
        assert!(s.intents_created > 0, "controller issued link intents");
        assert!(s.links_established > 0, "some links established: {s:?}");
        let link_av = o.availability.overall(Layer::Link);
        assert!(
            link_av.map(|a| a > 0.3).unwrap_or(false),
            "link layer mostly up: {link_av:?}"
        );
        let cp = o.availability.overall(Layer::ControlPlane);
        assert!(
            cp.map(|a| a > 0.2).unwrap_or(false),
            "control plane reachable: {cp:?}"
        );
    }

    #[test]
    fn nightly_power_down_tears_the_mesh() {
        let mut o = small();
        o.run_until(SimTime::from_hours(12));
        let established_at_noon = o.intents.established().count();
        assert!(established_at_noon > 0);
        // Run past midnight: balloons dark, links dead.
        o.run_until(SimTime::from_hours(27));
        assert_eq!(o.intents.established().count(), 0, "mesh gone at 03:00");
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = small();
        let mut b = small();
        a.run_until(SimTime::from_hours(10));
        b.run_until(SimTime::from_hours(10));
        assert_eq!(a.intents.all().count(), b.intents.all().count());
        assert_eq!(a.ledger.records().len(), b.ledger.records().len());
        assert_eq!(
            a.availability.overall(Layer::Link),
            b.availability.overall(Layer::Link)
        );
    }

    /// The backticked names of the numbered list that follows `marker`
    /// in `text`, up to the first line that neither is an item nor
    /// continues one.
    fn documented_stages<'a>(text: &'a str, marker: &str) -> Vec<&'a str> {
        let after = &text[text.find(marker).expect("marker present") + marker.len()..];
        let lines = after
            .lines()
            .map(|l| l.trim_start_matches("//!").trim())
            .skip_while(|l| !l.starts_with("1. "));
        let mut names = Vec::new();
        for line in lines.take_while(|l| !l.is_empty()) {
            let item = format!("{}. `", names.len() + 1);
            if let Some(rest) = line.strip_prefix(item.as_str()) {
                names.push(rest.split('`').next().expect("split yields one"));
            }
        }
        names
    }

    #[test]
    fn stage_list_is_the_documented_order() {
        let names: Vec<&str> = STAGES.iter().map(|s| s.name).collect();
        let module_docs = include_str!("mod.rs");
        assert_eq!(
            documented_stages(module_docs, "the stages of `STAGES`"),
            names
        );
        let design = include_str!("../../../../DESIGN.md");
        assert_eq!(documented_stages(design, "### Stage order"), names);
    }

    #[test]
    fn stage_timers_follow_the_stage_list_within_the_call() {
        let mut o = small();
        assert!(o.stage_wall().iter().all(|(_, t)| t.is_zero()));
        let start = Instant::now();
        o.run_until(SimTime::from_hours(9));
        let call = start.elapsed();
        let timers = o.stage_wall();
        let names: Vec<&str> = timers.iter().map(|(name, _)| *name).collect();
        let stages: Vec<&str> = STAGES.iter().map(|s| s.name).collect();
        assert_eq!(names, stages);
        let timed: Duration = timers.iter().map(|(_, t)| *t).sum();
        assert!(timed <= call, "stages {timed:?} > run_until {call:?}");
        assert!(!timers[7].1.is_zero(), "controller_cycle ran: {timers:?}");
    }

    /// Twelve balloons, a morning storm over the first site, seeded
    /// faults from 07:00, traffic and both planes on.
    fn stormy_faulted() -> Orchestrator {
        let seed = 20220822;
        let mut cfg = OrchestratorConfig::kenya(12, seed);
        cfg.fleet.spawn_radius_m = 150_000.0;
        cfg.weather_truth.add_cell(RainCell {
            center: tssdn_geo::GeoPoint::new(-1.25, 36.4, 0.0),
            vel_east_mps: 7.0,
            vel_north_mps: 1.5,
            radius_m: 16_000.0,
            peak_rain_mm_h: 35.0,
            start_ms: SimTime::from_hours(7).as_ms(),
            end_ms: SimTime::from_hours(10).as_ms(),
        });
        cfg.fault_plan = FaultPlan::generate(
            seed,
            &PlanConfig {
                earliest: SimTime::from_hours(7),
                latest: SimTime::from_hours(9),
                warned_loss: true,
                ..PlanConfig::kenya_daytime(12, (12..15).map(PlatformId).collect())
            },
        );
        cfg.multipath_routes = true;
        cfg.traffic = Some(TrafficConfig::default());
        Orchestrator::new(cfg)
    }

    #[test]
    fn one_call_equals_tick_by_tick() {
        let end = SimTime::from_hours(10);
        let mut whole = stormy_faulted();
        whole.run_until(end);
        let mut stepped = stormy_faulted();
        while stepped.now() < end {
            stepped.run_until(stepped.now() + stepped.config.tick);
        }
        assert!(!whole.chaos.log.is_empty(), "faults fired in the window");
        assert_eq!(whole.chaos.log, stepped.chaos.log);
        assert_eq!(whole.summary(), stepped.summary());
        assert_eq!(
            format!("{:?}", whole.ledger.records()),
            format!("{:?}", stepped.ledger.records())
        );
        let digest = |o: &Orchestrator| {
            let e = o.traffic().expect("traffic on");
            let s = e.series();
            let weights: Vec<_> = (0..12)
                .map(|b| e.demand_weight_bps(PlatformId(b)))
                .collect();
            (
                (s.offered_bits(), s.delivered_bits()),
                (s.total_disruptions(), s.total_reroutes()),
                e.snf_totals(),
                weights,
            )
        };
        assert!(digest(&whole).0 .0 > 0, "sites offered traffic");
        assert_eq!(digest(&whole), digest(&stepped));
    }
}
