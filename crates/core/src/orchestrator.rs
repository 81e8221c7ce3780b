//! The orchestrator: the closed loop between the TS-SDN controller
//! and the simulated world.
//!
//! Owns both sides honestly:
//!
//! * **Truth** — the [`tssdn_sim::Fleet`] (winds, flight, power), the
//!   synthetic weather, and per-site *true* obstruction masks (which
//!   can diverge from the surveyed masks in the controller's model —
//!   a building goes up, E13).
//! * **Controller** — the [`NetworkModel`] fed by periodic position /
//!   power reports, the [`LinkEvaluator`] + [`Solver`] planning cycle,
//!   the [`IntentStore`], and actuation over the hybrid control plane
//!   ([`tssdn_cpl::CdpiFrontend`]).
//! * **Link layer** — one [`tssdn_link::LinkStateMachine`] per
//!   commanded intent, polled against *true* RF conditions.
//! * **In-band fabric** — a BATMAN mesh over established links
//!   ([`tssdn_manet`]) providing control-plane reachability, and the
//!   source-destination [`tssdn_dataplane::RoutingFabric`] programmed
//!   by SetRoutes commands, per-node as each command arrives (the
//!   paper's actuation "lacked the sequencing of updates to avoid
//!   temporary routing blackholes" — so does this one, deliberately).
//!
//! Telemetry collectors for Figures 6, 8, 10 and 11 fill as the run
//! progresses; experiment binaries read them afterwards.

use crate::evaluator::{CandidateGraph, EvaluatorConfig, LinkEvaluator};
use crate::intent::{IntentId, IntentStore, LinkIntentState};
use crate::model::{NetworkModel, WeatherSource};
use crate::solver::{Solver, SolverConfig};
use crate::validation::{ModelErrorSample, ModelValidator};
use rand::Rng;
use rand_chacha::ChaCha8Rng;
use std::collections::{BTreeMap, BTreeSet};
use tssdn_cpl::{CdpiConfig, CdpiEvent, CdpiFrontend, CommandBody};
use tssdn_dataplane::{
    BackhaulRequest, DrainRegistry, PrefixAllocator, RouteEntry, RouteTable, RoutingFabric,
    TunnelRegistry,
};
use tssdn_fault::{ChaosEngine, FaultPlan};
use tssdn_geo::{
    line_of_sight_clear, GeoPoint, ObstructionMask, PointingSolution, TrajectorySample,
};
use tssdn_link::{
    AcqConfig, EndReason, LinkLedger, LinkStateMachine, LinkTransition, Transceiver, TransceiverId,
};
use tssdn_manet::{Batman, Harness as ManetHarness};
use tssdn_rf::{evaluate_link as rf_evaluate, SyntheticWeather};
use tssdn_sim::{Fleet, FleetConfig, PlatformId, PlatformKind, RngStreams, SimDuration, SimTime};
use tssdn_telemetry::{AvailabilitySeries, BreakCause, Layer, RouteRecoveryTracker};
use tssdn_traffic::{TopologyView, TrafficConfig, TrafficEngine};

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

/// A route program in flight: the flow, its full primary node path
/// (EC included), and the flow's *complete* desired alternate-plane
/// state — `Some(path)` to (re)install that alternate, `None` when no
/// alternate should exist. One program always declares both planes:
/// alternates ride the primary's SetRoutes intent rather than a
/// separate one, so they can neither lag the primary through the
/// satcom bootstrap queue nor survive a plan that dropped them.
type PendingRouteProgram = (
    (PlatformId, PlatformId),
    Vec<PlatformId>,
    Option<Vec<PlatformId>>,
);

/// End-of-run headline numbers. `PartialEq` so determinism checks can
/// compare whole summaries across repeated seeded runs.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSummary {
    /// Simulated duration.
    pub duration: SimDuration,
    /// Link intents created.
    pub intents_created: usize,
    /// Links that established at least once.
    pub links_established: usize,
    /// Overall availability per layer.
    pub availability: Vec<(Layer, Option<f64>)>,
}

struct ActiveMachine {
    machine: LinkStateMachine,
    ledger_id: u64,
    intent: IntentId,
    a: TransceiverId,
    b: TransceiverId,
    band: u8,
    /// The link's true margin as `poll_links` last measured it — this
    /// tick's, for every machine that can be established, since a
    /// machine is polled every tick from the one after it was spawned.
    margin: Option<f64>,
}

/// Diagnostic classification of a balloon's data-plane state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataPlaneStatus {
    /// SDN route traces end-to-end over up links.
    Up,
    /// Route traces end-to-end but the node is cut off from the
    /// controller: it is forwarding on its last-programmed (stale)
    /// routes — §4.3's fail-static behaviour, not an outage.
    FailStatic,
    /// No route program has ever completed for this balloon.
    NeverProgrammed,
    /// A node on the path lacks a forwarding entry (program gap).
    MissingEntry,
    /// Forwarding entries exist but point over a down link.
    BrokenLink,
}

/// Recent link-termination memory for break-cause correlation.
#[derive(Debug, Clone, Copy)]
struct RecentTermination {
    at: SimTime,
    planned: bool,
    platforms: (PlatformId, PlatformId),
}

/// Platform pairs, as `(min, max)`, whose radio link is established.
type UpLinks = BTreeSet<(PlatformId, PlatformId)>;

/// An undirected platform graph as `route_over` searches it: per
/// platform id, its neighbors in the order the sorted edge set lists
/// them. Platform ids are the fleet's dense indices, so the table is
/// as long as the largest id in the set.
struct RouteGraph {
    adj: Vec<Vec<PlatformId>>,
}

impl RouteGraph {
    fn new(edges: &BTreeSet<(PlatformId, PlatformId)>) -> Self {
        let len = edges.iter().map(|&(a, b)| a.max(b).0 as usize + 1).max();
        let mut adj = vec![Vec::new(); len.unwrap_or(0)];
        for &(a, b) in edges {
            adj[a.0 as usize].push(b);
            adj[b.0 as usize].push(a);
        }
        RouteGraph { adj }
    }
}

/// The orchestrator. See module docs.
pub struct Orchestrator {
    /// Configuration (immutable after construction).
    pub config: OrchestratorConfig,
    // --- truth ---
    fleet: Fleet,
    true_masks: BTreeMap<PlatformId, ObstructionMask>,
    /// Post-survey construction: sectors that attenuate by a fixed
    /// loss, unknown to the controller's model (E13).
    soft_obstructions: BTreeMap<PlatformId, Vec<(ObstructionMask, f64)>>,
    /// Unified fault-injection engine: scheduled fault windows plus
    /// faults forced by directed tests. All injected failure modes —
    /// site outages, balloon loss, satcom brownouts, partitions,
    /// transceiver faults, command chaos — route through here.
    pub chaos: ChaosEngine,
    // --- controller ---
    /// The controller's model (public for experiment introspection).
    pub model: NetworkModel,
    evaluator: LinkEvaluator,
    solver: Solver,
    /// Intent ledger (public: the artifact's change-log view).
    pub intents: IntentStore,
    /// The hybrid control plane.
    pub cdpi: CdpiFrontend,
    /// Source-destination forwarding state.
    pub fabric: RoutingFabric,
    prefixes: PrefixAllocator,
    /// GS↔EC tunnels.
    pub tunnels: TunnelRegistry,
    /// Administrative drains.
    pub drains: DrainRegistry,
    requests: Vec<BackhaulRequest>,
    ec_ids: Vec<PlatformId>,
    // --- link layer ---
    machines: Vec<ActiveMachine>,
    /// Link-attempt ledger (Figure 8/11 source).
    pub ledger: LinkLedger,
    /// cpl intent id → controller intent id, for confirmation wiring.
    /// Entries leave on `Expired` and once their intent can no longer
    /// be live (`prune_confirm_stores`), so the map tracks the live
    /// intents instead of every intent ever commanded.
    cpl_to_intent: BTreeMap<u64, IntentId>,
    /// Side-channel working set: the keys of `cpl_to_intent` not yet
    /// offered to `CdpiFrontend::confirm_intent` by `update_manet`.
    /// One offer is enough — the frontend confirms at most once per
    /// cpl id and answers `None` ever after.
    confirm_unoffered: BTreeSet<u64>,
    /// Pending establish deliveries: intent → endpoints delivered.
    pending_deliveries: BTreeMap<IntentId, (bool, bool, SimTime)>,
    /// Pending route programs: cpl intent → (flow, full path w/ EC,
    /// which forwarding plane it targets).
    pending_routes: BTreeMap<u64, PendingRouteProgram>,
    /// When the controller first learned of an unacted topology
    /// change; the event-driven re-solve fires `controller_pipeline`
    /// later.
    dirty_since: Option<SimTime>,
    /// Failure knowledge in flight: the controller learns that an
    /// intent ended only after telemetry reaches it — instantly for a
    /// still-connected balloon, minutes via satcom for a cut-off one.
    /// `(learn_at, intent, ended_at, planned)`.
    pending_knowledge: Vec<(SimTime, IntentId, SimTime, bool)>,
    route_version: u64,
    /// Last successfully requested path per flow.
    programmed_paths: BTreeMap<(PlatformId, PlatformId), Vec<PlatformId>>,
    /// Last successfully requested *alternate* path per flow.
    programmed_alt_paths: BTreeMap<(PlatformId, PlatformId), Vec<PlatformId>>,
    /// Confirmed route programs that carried an alternate alongside
    /// the primary (one intent, two planes).
    pub alt_programs_piggybacked: u64,
    /// Standing custody designations for loss-warned balloons
    /// (doomed holder → custodian), sticky while the warning holds.
    /// Piggybacked onto the traffic view like the alternate-plane
    /// programs — no extra control-plane round trip.
    custody_designations: BTreeMap<PlatformId, PlatformId>,
    /// Custody designations issued or changed (telemetry).
    pub custody_intents_issued: u64,
    /// Planner-ownership map for regional sharding. Present (and
    /// maintained) only when `config.sharding.num_regions > 1`; with
    /// a single region it stays empty and the global solve path runs.
    pub regions: crate::sharding::RegionMap,
    /// Every wind-drift planner handoff observed so far, in event
    /// order (telemetry + handoff-contract tests).
    pub handoff_log: Vec<crate::sharding::HandoffEvent>,
    // --- in-band mesh ---
    manet: ManetHarness<Batman>,
    // --- telemetry ---
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
    /// The most recent candidate graph (reused by event-driven
    /// re-solves between evaluator runs).
    last_graph: Option<CandidateGraph>,
    /// Every platform some link of `last_graph` touches — the
    /// "potential operable" set behind probe and traffic eligibility.
    /// Refreshed where `controller_cycle` stores a graph, so it is
    /// computed once per graph rather than on every probe; empty until
    /// the first evaluation.
    reachable: std::collections::BTreeSet<PlatformId>,
    /// Enactment-feedback evidence (only consulted when
    /// `policy.enactment_feedback` is on).
    pub feedback: crate::feedback::FeedbackStats,
    /// Flow-level traffic engine (E17), present when
    /// `config.traffic` is set.
    traffic: Option<TrafficEngine>,
    /// End of the last traffic tick (for the fluid integration step).
    last_traffic: SimTime,
    recent_terminations: Vec<RecentTermination>,
    rng_truth: ChaCha8Rng,
    rng_report: ChaCha8Rng,
    streams: RngStreams,
    now: SimTime,
    next_solve: SimTime,
    next_report: SimTime,
    next_probe: SimTime,
    machine_seq: u64,
}

impl Orchestrator {
    /// Build the world and controller from `config`.
    pub fn new(config: OrchestratorConfig) -> Self {
        let streams = RngStreams::new(config.seed);
        let fleet = Fleet::generate(config.fleet.clone(), &streams);

        // Controller weather belief per the configured kind.
        let backstop = tssdn_rf::ItuSeasonal::tropical_wet();
        let weather_source = match config.weather_model {
            WeatherModelKind::ItuOnly => WeatherSource::Itu(backstop),
            WeatherModelKind::WithForecast {
                position_error_m,
                timing_error_ms,
                intensity_scale,
            } => WeatherSource::Forecast(
                tssdn_rf::ForecastView::new(
                    config.weather_truth.clone(),
                    position_error_m,
                    timing_error_ms,
                    intensity_scale,
                ),
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
                forecast: tssdn_rf::ForecastView::new(
                    config.weather_truth.clone(),
                    position_error_m,
                    timing_error_ms,
                    intensity_scale,
                ),
                backstop,
            },
        };

        // Controller model: platforms + transceivers. GS masks start
        // in sync with truth (site survey was correct on day one).
        let mut model = NetworkModel::new(weather_source);
        let nx = config.transceivers_per_balloon.max(2);
        let mut true_masks = BTreeMap::new();
        for (id, kind) in fleet.platform_ids() {
            let transceivers: Vec<Transceiver> = match kind {
                PlatformKind::Balloon => (0..nx)
                    .map(|i| Transceiver::balloon_of(id, i, nx))
                    .collect(),
                PlatformKind::GroundStation => {
                    let for_ = tssdn_geo::FieldOfRegard::ground_station(2.0);
                    true_masks.insert(id, for_.mask.clone());
                    (0..2)
                        .map(|i| Transceiver::ground_station(id, i, for_.clone()))
                        .collect()
                }
            };
            model.add_platform(id, kind, transceivers);
        }

        // ECs, tunnels, prefixes, demands.
        let mut tunnels = TunnelRegistry::new();
        let mut prefixes = PrefixAllocator::loon_default();
        let ec_base = fleet.num_platforms() as u32;
        let ec_ids: Vec<PlatformId> = (0..config.num_ec)
            .map(|i| PlatformId(ec_base + i as u32))
            .collect();
        for ec in &ec_ids {
            for gs in &fleet.ground_stations {
                tunnels.establish(gs.id, *ec, SimTime::ZERO);
            }
            prefixes.prefix_for(*ec);
        }
        let mut requests = Vec::new();
        for (id, kind) in fleet.platform_ids() {
            prefixes.prefix_for(id);
            if kind == PlatformKind::Balloon {
                requests.push(BackhaulRequest {
                    node: id,
                    ec: ec_ids[0],
                    min_bitrate_bps: config.demand_bps,
                    redundancy_group: None,
                });
            }
        }

        // In-band mesh: all platforms are nodes; GSs are gateways.
        let mut batman = Batman::new();
        for gs in &fleet.ground_stations {
            batman.set_gateway(gs.id, true);
        }
        let mut manet = ManetHarness::new(batman, &streams);
        for (id, _) in fleet.platform_ids() {
            manet.add_node(id);
        }

        let mut cdpi_config = config.cdpi;
        cdpi_config.lora_enabled = config.lora_bootstrap;
        let cdpi = CdpiFrontend::new(cdpi_config, &streams);

        // Traffic engine (optional): each balloon's eNodeB footprint
        // becomes a served site. The engine draws from its own RNG
        // stream at construction and never afterwards, so enabling it
        // cannot perturb any other seeded subsystem.
        let traffic = config.traffic.map(|tc| {
            let sites: Vec<PlatformId> = fleet
                .platform_ids()
                .filter(|(_, k)| *k == PlatformKind::Balloon)
                .map(|(id, _)| id)
                .collect();
            TrafficEngine::new(tc, &sites, &streams)
        });
        Orchestrator {
            evaluator: LinkEvaluator::new(config.evaluator.clone()),
            solver: Solver::new(config.solver),
            intents: IntentStore::new(),
            cdpi,
            fabric: RoutingFabric::new(),
            prefixes,
            tunnels,
            drains: DrainRegistry::new(),
            requests,
            ec_ids,
            machines: Vec::new(),
            ledger: LinkLedger::new(),
            cpl_to_intent: BTreeMap::new(),
            confirm_unoffered: BTreeSet::new(),
            pending_deliveries: BTreeMap::new(),
            pending_routes: BTreeMap::new(),
            route_version: 0,
            dirty_since: None,
            pending_knowledge: Vec::new(),
            programmed_paths: BTreeMap::new(),
            programmed_alt_paths: BTreeMap::new(),
            alt_programs_piggybacked: 0,
            custody_designations: BTreeMap::new(),
            custody_intents_issued: 0,
            regions: crate::sharding::RegionMap::new(config.sharding),
            handoff_log: Vec::new(),
            manet,
            availability: AvailabilitySeries::new(tssdn_sim::time::MS_PER_DAY),
            recovery: RouteRecoveryTracker::new(),
            recovery_control: RouteRecoveryTracker::new(),
            validator: ModelValidator::new(),
            last_plan: None,
            last_graph: None,
            reachable: std::collections::BTreeSet::new(),
            feedback: crate::feedback::FeedbackStats::new(),
            traffic,
            last_traffic: SimTime::ZERO,
            recent_terminations: Vec::new(),
            rng_truth: streams.stream("orch-truth"),
            rng_report: streams.stream("orch-report"),
            streams,
            now: SimTime::ZERO,
            next_solve: SimTime::ZERO,
            next_report: SimTime::ZERO,
            next_probe: SimTime::ZERO,
            machine_seq: 0,
            model,
            true_masks,
            soft_obstructions: BTreeMap::new(),
            chaos: ChaosEngine::new(config.fault_plan.clone()),
            fleet,
            config,
        }
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The truth fleet (read-only introspection).
    pub fn fleet(&self) -> &Fleet {
        &self.fleet
    }

    /// EC pod ids.
    pub fn ec_ids(&self) -> &[PlatformId] {
        &self.ec_ids
    }

    /// Erect a *true* obstruction at a ground station without updating
    /// the controller's mask — the "new building" of E13. The
    /// obstruction attenuates (rather than hard-blocks) rays through
    /// it by `loss_db`: real construction near a site shows up as
    /// "signal diminished as pointing vector is obstructed" (Figure
    /// 13), which is exactly what lets telemetry catch it.
    pub fn add_true_obstruction(
        &mut self,
        gs: PlatformId,
        az_start: f64,
        az_end: f64,
        max_el: f64,
        loss_db: f64,
    ) {
        let mut mask = ObstructionMask::clear();
        mask.add_sector(az_start, az_end, max_el);
        self.soft_obstructions
            .entry(gs)
            .or_default()
            .push((mask, loss_db));
    }

    /// Whether a platform's payload is effectively powered (balloon
    /// solar state, or GS site power, minus injected outages and
    /// balloon-loss faults).
    fn effectively_powered(&self, p: PlatformId) -> bool {
        self.fleet.payload_powered(p) && !self.chaos.platform_dark(p)
    }

    /// Evaluate the controller's candidate graph at an arbitrary
    /// instant (used by the Figure-4 experiment).
    pub fn evaluate_candidates(&self, at: SimTime) -> CandidateGraph {
        self.evaluator.evaluate(&self.model, at)
    }

    /// The standing backhaul demands (used by the golden-equivalence
    /// gate to replay a solve against the naive reference).
    pub fn backhaul_requests(&self) -> &[BackhaulRequest] {
        &self.requests
    }

    /// The solver, with whatever pair penalties the enactment-feedback
    /// loop installed at the last solve.
    pub fn solver(&self) -> &Solver {
        &self.solver
    }

    /// The link evaluator.
    pub fn evaluator(&self) -> &LinkEvaluator {
        &self.evaluator
    }

    /// The controller's network model (read-only).
    pub fn network_model(&self) -> &NetworkModel {
        &self.model
    }

    /// Change the solver's redundancy target mid-run — Figure 6's
    /// December-2020 moment when "Loon's TS-SDN could construct a mesh
    /// whose in-band control plane connectivity routinely exceeded its
    /// link layer reliability" after redundancy targeting landed.
    pub fn set_redundancy_target(&mut self, target: f64) {
        self.solver.config.redundancy_target = target;
    }

    /// Number of balloons in the configured fleet.
    pub fn num_balloons(&self) -> usize {
        self.fleet.balloons.len()
    }

    /// Advance the whole world to `to`.
    pub fn run_until(&mut self, to: SimTime) {
        while self.now < to {
            let next = (self.now + self.config.tick).min(to);
            self.now = next;
            self.fleet.advance_to(next);
            // Fault windows open/close on tick boundaries; push the
            // current disturbance levels into the substrates. With no
            // active fault every knob is at its nominal value and no
            // extra RNG is consumed, so chaos-free runs are untouched.
            self.chaos.advance(self.now);
            let (scale, drop) = self
                .chaos
                .satcom_disturbance(self.now)
                .unwrap_or((1.0, 0.0));
            self.cdpi.satcom.latency_scale = scale;
            self.cdpi.satcom.brownout_drop_prob = drop;
            self.cdpi.chaos = match self.chaos.command_chaos() {
                Some((c, d, r)) => tssdn_cpl::CommandChaosParams {
                    corrupt_prob: c,
                    duplicate_prob: d,
                    reorder_prob: r,
                },
                None => tssdn_cpl::CommandChaosParams::default(),
            };
            if self.now >= self.next_report {
                self.ingest_reports();
                self.next_report = self.now + self.config.report_interval;
            }
            self.poll_control_plane();
            self.poll_links();
            self.apply_pending_knowledge();
            self.update_manet();
            // Event-driven actuation: once the controller has known
            // about an unacted topology change for a pipeline latency,
            // re-solve against the cached candidate graph so
            // replacement links and reroutes go out without waiting
            // for the next full solve interval.
            if self
                .dirty_since
                .map(|t| self.now.since(t) >= self.config.controller_pipeline)
                .unwrap_or(false)
            {
                // Lent out for the solve (which never reads it) and put
                // straight back; `reachable` describes the same graph
                // throughout.
                if let Some(graph) = self.last_graph.take() {
                    self.solve_and_actuate(&graph);
                    self.last_graph = Some(graph);
                } else {
                    self.program_routes();
                }
                self.dirty_since = None;
            }
            if self.now >= self.next_solve {
                self.controller_cycle();
                self.next_solve = self.now + self.config.solve_interval;
            }
            if self.now >= self.next_probe {
                // Both read the same radios at the same instant: one
                // up-link set serves the probe and the traffic view.
                let established = self.physical_up_links();
                self.probe(&established);
                // Traffic rides the probe cadence: the fluid step
                // integrates offered/delivered bits since the last
                // probe over the just-observed forwarding state.
                self.tick_traffic(&established);
                self.next_probe = self.now + self.config.probe_interval;
            }
            // Trim termination memory to the correlation window.
            let horizon = self.now;
            self.recent_terminations
                .retain(|t| horizon.since(t.at) < SimDuration::from_secs(60));
        }
    }

    /// Headline summary of the run so far.
    pub fn summary(&self) -> RunSummary {
        RunSummary {
            duration: self.now - SimTime::ZERO,
            intents_created: self.intents.all().count(),
            links_established: self
                .ledger
                .records()
                .iter()
                .filter(|r| r.established.is_some())
                .count(),
            availability: vec![
                (Layer::Link, self.availability.overall(Layer::Link)),
                (
                    Layer::ControlPlane,
                    self.availability.overall(Layer::ControlPlane),
                ),
                (
                    Layer::DataPlane,
                    self.availability.overall(Layer::DataPlane),
                ),
                (
                    Layer::DataPlaneStale,
                    self.availability.overall(Layer::DataPlaneStale),
                ),
            ],
        }
    }

    /// Per-region planner telemetry rows, region-id order. Unsharded
    /// configurations report one region 0 owning every balloon with
    /// zero handoffs, so scorecards keep a uniform shape.
    pub fn region_scores(&self) -> Vec<tssdn_telemetry::RegionScore> {
        if self.config.sharding.num_regions <= 1 {
            let balloons = self
                .model
                .platforms()
                .filter(|p| p.kind == PlatformKind::Balloon)
                .count() as u64;
            return vec![tssdn_telemetry::RegionScore {
                region: 0,
                members: balloons,
                handoffs_in: 0,
            }];
        }
        self.regions
            .census()
            .into_iter()
            .map(|(r, members)| tssdn_telemetry::RegionScore {
                region: r.0,
                members,
                handoffs_in: self.regions.handoffs_into(r),
            })
            .collect()
    }

    // ------------------------------------------------------------------
    // internals
    // ------------------------------------------------------------------

    fn ingest_reports(&mut self) {
        let ids: Vec<(PlatformId, PlatformKind)> = self.fleet.platform_ids().collect();
        for (id, kind) in ids {
            let pos = self.fleet.position(id);
            // GPS noise on balloon reports (~10 m).
            let (noise_e, noise_n): (f64, f64) = if kind == PlatformKind::Balloon {
                (
                    self.rng_report.gen_range(-10.0..10.0),
                    self.rng_report.gen_range(-10.0..10.0),
                )
            } else {
                (0.0, 0.0)
            };
            let (ve, vn) = if kind == PlatformKind::Balloon {
                let b = &self.fleet.balloons[id.0 as usize];
                (b.vel_east_mps, b.vel_north_mps)
            } else {
                (0.0, 0.0)
            };
            self.model.report_position(
                id,
                TrajectorySample {
                    t_ms: self.now.as_ms(),
                    pos: pos.offset(noise_e, noise_n, 0.0),
                    vel_east_mps: ve,
                    vel_north_mps: vn,
                    vel_up_mps: 0.0,
                },
            );
            let powered = self.effectively_powered(id);
            self.model.report_power(id, powered);
        }
        // Refresh gauge readings when configured.
        if let WeatherSource::GaugesAndForecast { gauges, .. } = &self.model.weather {
            let readings: Vec<(GeoPoint, f64, SimTime)> = gauges
                .iter()
                .map(|g| {
                    (
                        g.site,
                        g.read(&self.config.weather_truth, self.now.as_ms()),
                        self.now,
                    )
                })
                .collect();
            self.model.gauge_readings = readings;
        }
    }

    /// True physical link margin right now, or `None` when the link
    /// cannot exist (LOS, power, mask).
    fn true_margin(&self, a: TransceiverId, b: TransceiverId, band: u8) -> Option<f64> {
        if !self.effectively_powered(a.platform) || !self.effectively_powered(b.platform) {
            return None;
        }
        // Transceiver hardware faults (gimbal stuck, radio rebooting)
        // take the radio off the air entirely for the window.
        if self.chaos.transceiver_faulted(a.platform, a.index)
            || self.chaos.transceiver_faulted(b.platform, b.index)
        {
            return None;
        }
        let pos_a = self.fleet.position(a.platform);
        let pos_b = self.fleet.position(b.platform);
        if !line_of_sight_clear(&pos_a, &pos_b, self.config.evaluator.los_clearance_m) {
            return None;
        }
        let p_ab = PointingSolution::between(&pos_a, &pos_b);
        let p_ba = PointingSolution::between(&pos_b, &pos_a);
        // True masks: balloons use their (accurate) bus model; ground
        // stations use the possibly-diverged true site mask.
        for (t, dir) in [(a, &p_ab.direction), (b, &p_ba.direction)] {
            let xcvr = self.model.transceiver(t)?;
            match self.fleet.kind(t.platform) {
                PlatformKind::Balloon => {
                    if !xcvr.field_of_regard.contains(dir) {
                        return None;
                    }
                }
                PlatformKind::GroundStation => {
                    if dir.el_deg < xcvr.field_of_regard.min_el_deg {
                        return None;
                    }
                    if let Some(mask) = self.true_masks.get(&t.platform) {
                        if mask.blocks(dir) {
                            return None;
                        }
                    }
                }
            }
        }
        let xa = self.model.transceiver(a)?;
        let xb = self.model.transceiver(b)?;
        let params = &self.config.evaluator.bands[band as usize];
        let rep = rf_evaluate(
            &pos_a,
            &pos_b,
            params,
            &xa.pattern,
            &xb.pattern,
            0.0,
            0.0,
            &self.config.weather_truth,
            self.now.as_ms(),
        );
        // Soft obstructions (post-survey construction) attenuate rays
        // through them without fully blocking.
        let mut margin = rep.margin_db;
        for (t, dir) in [(a, &p_ab.direction), (b, &p_ba.direction)] {
            for (mask, loss) in self
                .soft_obstructions
                .get(&t.platform)
                .into_iter()
                .flatten()
            {
                if mask.blocks(dir) {
                    margin -= loss;
                }
            }
        }
        Some(margin)
    }

    fn poll_control_plane(&mut self) {
        let events = self.cdpi.poll(self.now);
        for ev in events {
            self.handle_cpl_event(ev);
        }
    }

    fn handle_cpl_event(&mut self, ev: CdpiEvent) {
        match ev {
            CdpiEvent::DeliveredToNode {
                cmd,
                at: _,
                channel: _,
            } => match cmd.body {
                CommandBody::EstablishLink { intent_id, .. } => {
                    let iid = IntentId(intent_id);
                    let Some(intent) = self.intents.get(iid) else {
                        return;
                    };
                    let (end_a, end_b) = (intent.link.a.platform, intent.link.b.platform);
                    let e = self
                        .pending_deliveries
                        .entry(iid)
                        .or_insert((false, false, cmd.tte));
                    // Which intent endpoint did this delivery reach?
                    if cmd.dest == end_a {
                        e.0 = true;
                    }
                    if cmd.dest == end_b {
                        e.1 = true;
                    }
                    let both = e.0 && e.1;
                    let tte = e.2;
                    if both {
                        self.pending_deliveries.remove(&iid);
                        self.spawn_machine(iid, tte);
                    }
                }
                CommandBody::TeardownLink { intent_id } => {
                    let iid = IntentId(intent_id);
                    if let Some(m) = self.machines.iter_mut().find(|m| m.intent == iid) {
                        // Teardown executes at the commanded TTE so the
                        // replacement topology enacts simultaneously.
                        m.machine.withdraw_at(cmd.tte);
                    } else {
                        // Never enacted: close the books.
                        if let Some(i) = self.intents.get(iid) {
                            if i.is_live() {
                                self.intents.set_state(
                                    iid,
                                    LinkIntentState::Ended {
                                        at: self.now,
                                        planned: true,
                                    },
                                );
                            }
                        }
                    }
                }
                CommandBody::SetRoutes {
                    version,
                    entries: _,
                } => {
                    // Per-node application: install this node's hops for
                    // the pending program (no global sequencing — the
                    // paper's admitted blackhole window).
                    let found = self
                        .pending_routes
                        .iter()
                        .find(|(cpl_id, _)| self.cpl_route_dest_matches(**cpl_id, cmd.dest))
                        .map(|(k, v)| (*k, v.clone()));
                    if let Some((_, (flow, path, alt))) = found {
                        self.apply_node_routes(cmd.dest, version, flow, &path, alt.as_deref());
                    }
                }
            },
            CdpiEvent::IntentConfirmed { intent_id, .. } => {
                if let Some((flow, path, alt)) = self.pending_routes.remove(&intent_id) {
                    // The program is fully applied: clean the flow's
                    // stale entries off nodes that left its path (the
                    // route-deletion commands ride the same program).
                    // Each forwarding plane cleans only its own
                    // entries, so the alternate half of a program
                    // never disturbs the primary route and vice
                    // versa.
                    let src = self.prefixes.get(flow.0).expect("allocated");
                    let dst = self.prefixes.get(flow.1).expect("allocated");
                    let off_primary: Vec<PlatformId> = self
                        .fleet
                        .platform_ids()
                        .map(|(id, _)| id)
                        .filter(|id| !path.contains(id))
                        .collect();
                    for node in off_primary {
                        let Some(t) = self.fabric.table(node) else {
                            continue;
                        };
                        if t.lookup(src, dst).is_some() || t.lookup(dst, src).is_some() {
                            let t = self.fabric.table_mut(node);
                            t.remove(src, dst);
                            t.remove(dst, src);
                        }
                    }
                    match alt {
                        Some(alt_path) => {
                            let off_alt: Vec<PlatformId> = self
                                .fleet
                                .platform_ids()
                                .map(|(id, _)| id)
                                .filter(|id| !alt_path.contains(id))
                                .collect();
                            for node in off_alt {
                                let Some(t) = self.fabric.table(node) else {
                                    continue;
                                };
                                if t.lookup_alt(src, dst).is_some()
                                    || t.lookup_alt(dst, src).is_some()
                                {
                                    let t = self.fabric.table_mut(node);
                                    t.remove_alt(src, dst);
                                    t.remove_alt(dst, src);
                                }
                            }
                            self.alt_programs_piggybacked += 1;
                            self.programmed_alt_paths.insert(flow, alt_path);
                        }
                        None => {
                            // Redundancy loss: the plan no longer
                            // carries an alternate for this flow, so
                            // withdraw the whole alt plane — a stale
                            // `lookup_alt` must not forward onto links
                            // the planner no longer believes in.
                            self.fabric.withdraw_flow_alt(src, dst);
                            self.programmed_alt_paths.remove(&flow);
                        }
                    }
                    self.programmed_paths.insert(flow, path);
                } else if let Some(&iid) = self.cpl_to_intent.get(&intent_id) {
                    // Side-channel confirmation of a link intent whose
                    // establish deliveries never completed (a brownout
                    // or corrupted frame ate a copy after the node
                    // appeared in-band). Confirmation *is* the
                    // enactment signal: start the link machine now, or
                    // the intent would sit in `Commanded` forever with
                    // its commands already stripped from the retry
                    // machinery.
                    let commanded = self
                        .intents
                        .get(iid)
                        .map(|i| matches!(i.state, LinkIntentState::Commanded { .. }))
                        .unwrap_or(false);
                    let machine_known = self.machines.iter().any(|m| m.intent == iid)
                        || self.pending_knowledge.iter().any(|(_, i, _, _)| *i == iid);
                    if commanded && !machine_known {
                        let tte = self
                            .pending_deliveries
                            .remove(&iid)
                            .map(|(_, _, t)| t)
                            .unwrap_or(self.now);
                        self.spawn_machine(iid, tte);
                    }
                }
            }
            CdpiEvent::Expired { intent_id, .. } => {
                self.confirm_unoffered.remove(&intent_id);
                if let Some(iid) = self.cpl_to_intent.remove(&intent_id) {
                    // Establish commands undeliverable: intent dies.
                    if let Some(i) = self.intents.get(iid) {
                        if i.is_live() && !matches!(i.state, LinkIntentState::Established { .. }) {
                            self.intents.set_state(
                                iid,
                                LinkIntentState::Ended {
                                    at: self.now,
                                    planned: false,
                                },
                            );
                            // Close the ledger record.
                            if let Some(m) = self.machines.iter().find(|m| m.intent == iid) {
                                self.ledger.record_end(
                                    m.ledger_id,
                                    self.now,
                                    EndReason::CommandUndeliverable,
                                );
                            } else if let Some(lid) = self.ledger_id_for(iid) {
                                self.ledger.record_end(
                                    lid,
                                    self.now,
                                    EndReason::CommandUndeliverable,
                                );
                            }
                            self.pending_deliveries.remove(&iid);
                        }
                    }
                }
                self.pending_routes.remove(&intent_id);
            }
            CdpiEvent::Retried { .. } => {}
        }
    }

    fn cpl_route_dest_matches(&self, cpl_id: u64, dest: PlatformId) -> bool {
        self.pending_routes
            .get(&cpl_id)
            .map(|(_, path, alt)| {
                path.contains(&dest) || alt.as_ref().is_some_and(|a| a.contains(&dest))
            })
            .unwrap_or(false)
    }

    /// Ledger id stored at intent creation (kept in a side table on
    /// the intent's candidate, looked up via machines normally; this
    /// covers never-enacted intents).
    fn ledger_id_for(&self, iid: IntentId) -> Option<u64> {
        let intent = self.intents.get(iid)?;
        self.ledger
            .records()
            .iter()
            .rev()
            .find(|r| r.a == intent.link.a && r.b == intent.link.b && r.ended.is_none())
            .map(|r| r.intent_id)
    }

    fn spawn_machine(&mut self, iid: IntentId, tte: SimTime) {
        let Some(intent) = self.intents.get(iid) else {
            return;
        };
        if !intent.is_live() {
            return;
        }
        let link = intent.link;
        // Slew time: worst endpoint from its current model pointing.
        let slew_s = {
            let sa = self
                .model
                .transceiver(link.a)
                .map(|t| t.slew_time_s(&link.pointing_a))
                .unwrap_or(10.0);
            let sb = self
                .model
                .transceiver(link.b)
                .map(|t| t.slew_time_s(&link.pointing_b))
                .unwrap_or(10.0);
            sa.max(sb)
        };
        // Update model pointing (the gimbals will be there).
        if let Some(t) = self.model.platform_mut(link.a.platform) {
            if let Some(x) = t.transceivers.get_mut(link.a.index as usize) {
                x.pointing = link.pointing_a;
            }
        }
        if let Some(t) = self.model.platform_mut(link.b.platform) {
            if let Some(x) = t.transceivers.get_mut(link.b.index as usize) {
                x.pointing = link.pointing_b;
            }
        }
        let ledger_id = self.ledger.open(link.a, link.b, link.kind, self.now);
        self.machine_seq += 1;
        let acq = AcqConfig {
            infant_hazard_per_s: match link.kind {
                tssdn_link::LinkKind::B2G => self.config.b2g_infant_hazard_per_s,
                tssdn_link::LinkKind::B2B => self.config.b2b_infant_hazard_per_s,
            },
            ..self.config.acq
        };
        let machine = LinkStateMachine::new(tte, slew_s, acq);
        self.machines.push(ActiveMachine {
            machine,
            ledger_id,
            intent: iid,
            a: link.a,
            b: link.b,
            band: link.band,
            margin: None,
        });
    }

    /// How long until the controller learns about an unexpected link
    /// event: fast (telemetry over a surviving in-band connection) or
    /// slow (satcom telemetry cadence) when an endpoint was cut off.
    fn detection_delay(&self, a: PlatformId, b: PlatformId, _reason: EndReason) -> SimDuration {
        let inband = |p: PlatformId| {
            self.fleet.kind(p) == PlatformKind::GroundStation
                || self.cdpi.inband.is_reachable(p, self.now)
        };
        if inband(a) && inband(b) {
            // Telemetry processing + controller pipeline latency.
            SimDuration::from_secs(45)
        } else {
            // Satcom telemetry cadence for a cut-off balloon.
            SimDuration::from_secs(240)
        }
    }

    /// Apply failure knowledge whose propagation delay has elapsed.
    fn apply_pending_knowledge(&mut self) {
        let now = self.now;
        let due: Vec<(IntentId, SimTime, bool)> = self
            .pending_knowledge
            .iter()
            .filter(|(t, _, _, _)| *t <= now)
            .map(|(_, i, at, p)| (*i, *at, *p))
            .collect();
        self.pending_knowledge.retain(|(t, _, _, _)| *t > now);
        for (intent, at, planned) in due {
            if let Some(i) = self.intents.get(intent) {
                if i.is_live() {
                    self.intents
                        .set_state(intent, LinkIntentState::Ended { at, planned });
                    self.dirty_since.get_or_insert(self.now);
                }
            }
        }
    }

    fn poll_links(&mut self) {
        let mut transitions: Vec<(usize, LinkTransition)> = Vec::new();
        let margins: Vec<Option<f64>> = self
            .machines
            .iter()
            .map(|m| self.true_margin(m.a, m.b, m.band))
            .collect();
        for (i, m) in self.machines.iter_mut().enumerate() {
            let mut rng = self
                .streams
                .indexed_stream("link-machine", m.ledger_id ^ (self.now.as_ms() << 8));
            m.margin = margins[i];
            if let Some(tr) = m.machine.poll(self.now, margins[i], &mut rng) {
                transitions.push((i, tr));
            }
        }
        for (i, tr) in transitions {
            let (ledger_id, intent, a, b) = (
                self.machines[i].ledger_id,
                self.machines[i].intent,
                self.machines[i].a,
                self.machines[i].b,
            );
            match tr {
                LinkTransition::EnactStarted { .. } => {}
                LinkTransition::AttemptStarted { .. } => {
                    self.ledger.record_attempt(ledger_id);
                }
                LinkTransition::AttemptFailed { .. } => {
                    // A failed attempt rolls straight into the next
                    // search; count it.
                    self.ledger.record_attempt(ledger_id);
                }
                LinkTransition::Established { at, sidelobe } => {
                    self.feedback
                        .record_enactment(a.platform, b.platform, true, at);
                    self.ledger.record_established(ledger_id, at, sidelobe);
                    self.intents
                        .set_state(intent, LinkIntentState::Established { at });
                    // Mesh edge appears.
                    let q = 0.95;
                    self.manet.set_link(a.platform, b.platform, q);
                    self.recovery.link_installed(a.platform);
                    self.recovery.link_installed(b.platform);
                    self.recovery_control.link_installed(a.platform);
                    self.recovery_control.link_installed(b.platform);
                    self.dirty_since.get_or_insert(self.now);
                }
                LinkTransition::Failed { at, reason } => {
                    if !reason.is_planned() {
                        self.feedback
                            .record_enactment(a.platform, b.platform, false, at);
                    }
                    self.ledger.record_end(ledger_id, at, reason);
                    // Enactment failures: the controller learns by
                    // timeout/telemetry after a detection delay.
                    let learn_at = at + self.detection_delay(a.platform, b.platform, reason);
                    self.pending_knowledge
                        .push((learn_at, intent, at, reason.is_planned()));
                }
                LinkTransition::Ended { at, reason } => {
                    if let Some(est) = self.ledger.get(ledger_id).established {
                        self.feedback.record_lifetime(
                            a.platform,
                            b.platform,
                            (at - est).as_secs_f64(),
                            at,
                        );
                    }
                    self.ledger.record_end(ledger_id, at, reason);
                    self.manet.remove_link(a.platform, b.platform);
                    self.recent_terminations.push(RecentTermination {
                        at,
                        planned: reason.is_planned(),
                        platforms: (a.platform, b.platform),
                    });
                    if reason.is_planned() {
                        // The controller commanded this; it knows now.
                        self.intents
                            .set_state(intent, LinkIntentState::Ended { at, planned: true });
                        self.dirty_since.get_or_insert(self.now);
                    } else {
                        let learn_at = at + self.detection_delay(a.platform, b.platform, reason);
                        self.pending_knowledge.push((learn_at, intent, at, false));
                    }
                }
            }
        }
        self.machines.retain(|m| !m.machine.is_terminal());
    }

    fn update_manet(&mut self) {
        // LoRa coverage: a balloon within 350 km ground range of any
        // GS site can hear the one-hop bootstrap channel.
        if self.config.lora_bootstrap {
            let sites: Vec<GeoPoint> = self.fleet.ground_stations.iter().map(|g| g.pos).collect();
            for b in 0..self.fleet.balloons.len() as u32 {
                let id = PlatformId(b);
                let pos = self.fleet.position(id);
                let covered = self.effectively_powered(id)
                    && sites.iter().any(|s| s.ground_distance_m(&pos) <= 350_000.0);
                self.cdpi.lora.set_covered(id, covered);
            }
        }
        self.manet.run_until(self.now);
        // Ground stations are wired to the controller (unless their
        // site is dark).
        let gs_ids: Vec<PlatformId> = self.fleet.ground_stations.iter().map(|g| g.id).collect();
        for gs in &gs_ids {
            if self.chaos.gs_dark(*gs) || self.chaos.inband_partitioned(*gs) {
                self.cdpi.node_disconnected_inband(*gs);
                continue;
            }
            let evs = self.cdpi.node_connected_inband(*gs, 0, self.now);
            for e in evs {
                self.handle_cpl_event(e);
            }
        }
        self.prune_confirm_stores();
        // Balloons: reachable when BATMAN routes them to a gateway.
        let balloons: Vec<PlatformId> = (0..self.fleet.balloons.len() as u32)
            .map(PlatformId)
            .collect();
        for b in balloons {
            // In-band means powered, not partitioned (an in-band
            // partition severs the node's control-plane session without
            // touching the radio links beneath it — the pure
            // fail-static case), and routed by BATMAN to a gateway with
            // a tunnel. One walk of the next-hop chain answers both
            // "does the route work" and "how many hops".
            let session_up = self.effectively_powered(b) && !self.chaos.inband_partitioned(b);
            let hops = self
                .manet
                .protocol()
                .selected_gateway(b)
                .filter(|g| session_up && !self.tunnels.ecs_of(*g).is_empty())
                .and_then(|g| self.manet.route_path(b, g))
                .map(|path| path.len() as u32 - 1);
            let Some(hops) = hops else {
                self.cdpi.node_disconnected_inband(b);
                continue;
            };
            let evs = self.cdpi.node_connected_inband(b, hops, self.now);
            for e in evs {
                self.handle_cpl_event(e);
            }
            // Side channel: an in-band balloon confirms its established
            // link intents. Offers go out in ascending cpl id per
            // balloon, and a cpl id is offered once: after its first
            // offer the frontend answers `None` whatever happens, so
            // it leaves the working set here.
            let offers: Vec<u64> = self
                .confirm_unoffered
                .iter()
                .copied()
                .filter(|c| {
                    self.intents.get(self.cpl_to_intent[c]).is_some_and(|i| {
                        matches!(i.state, LinkIntentState::Established { .. })
                            && (i.link.a.platform == b || i.link.b.platform == b)
                    })
                })
                .collect();
            for c in offers {
                self.confirm_unoffered.remove(&c);
                if let Some(e) = self.cdpi.confirm_intent(c, self.now) {
                    self.handle_cpl_event(e);
                }
            }
        }
    }

    /// Record that cpl intent `cpl_id` carries commands for `iid`, and
    /// queue it for one side-channel confirmation offer.
    fn track_cpl_intent(&mut self, cpl_id: u64, iid: IntentId) {
        self.cpl_to_intent.insert(cpl_id, iid);
        self.confirm_unoffered.insert(cpl_id);
    }

    /// Forget the cpl ids of intents that are over for good, so that
    /// both stores track the live intent set and `confirm_unoffered ⊆
    /// keys(cpl_to_intent)` holds. Every reader of either store does
    /// nothing for an `Ended` intent, so the moment an entry goes is
    /// unobservable. An ended intent whose link machine still runs is
    /// kept: the machine's `Established` transition would make it live
    /// again.
    fn prune_confirm_stores(&mut self) {
        let (intents, machines) = (&self.intents, &self.machines);
        self.cpl_to_intent.retain(|_, iid| {
            intents.get(*iid).is_some_and(|i| i.is_live())
                || machines.iter().any(|m| m.intent == *iid)
        });
        let kept = &self.cpl_to_intent;
        self.confirm_unoffered.retain(|c| kept.contains_key(c));
    }

    fn controller_cycle(&mut self) {
        // The cached graph is dead the moment a new one is evaluated;
        // freeing it first keeps the two from ever coexisting.
        self.last_graph = None;
        let graph = self
            .evaluator
            .evaluate(&self.model, self.now + self.config.plan_lead);
        self.solve_and_actuate(&graph);
        self.reachable = Self::platforms_of(&graph);
        self.last_graph = Some(graph);
        // Record model-vs-measured samples for established links.
        self.record_validation_samples();
    }

    /// The platforms a candidate graph's links touch.
    fn platforms_of(graph: &CandidateGraph) -> std::collections::BTreeSet<PlatformId> {
        crate::evaluator::platform_runs(&graph.links)
            .into_iter()
            .collect()
    }

    /// "Potential operable time", the eligibility rule the
    /// availability probe and the traffic engine share: powered, and
    /// within reach of some candidate link. A balloon that has drifted
    /// beyond every candidate cannot possibly be part of the mesh; its
    /// dark time is not an availability failure (it is the FMS's
    /// problem, not the network's), and it offers no traffic.
    fn potentially_operable(&self, b: PlatformId) -> bool {
        self.effectively_powered(b) && self.reachable.contains(&b)
    }

    /// Solve against `graph` and actuate the diff (establish commands,
    /// policy-gated withdrawals, route programs).
    fn solve_and_actuate(&mut self, graph: &CandidateGraph) {
        // Demand feedback (network-digest role, §3.1): replace each
        // request's static minimum bitrate with the traffic engine's
        // measured-demand EWMA, so the solver's utility weights track
        // what users actually offer through the diurnal cycle. Sites
        // the digest has never observed keep their configured demand.
        if let Some(engine) = &self.traffic {
            if engine.config().feedback {
                for req in &mut self.requests {
                    if let Some(w) = engine.demand_weight_bps(req.node) {
                        req.min_bitrate_bps = w.max(1);
                    }
                }
            }
        }
        self.solver.pair_penalties = if self.config.policy.enactment_feedback {
            self.feedback.penalties(self.now)
        } else {
            BTreeMap::new()
        };
        let previous = {
            let mut keys = std::collections::BTreeSet::new();
            for i in self.intents.live() {
                keys.insert(i.key());
            }
            keys
        };
        // Regional sharding: refresh planner ownership from believed
        // positions, then solve per region and merge. Ownership
        // handoffs move only the owner tag — pending route programs,
        // custody designations and demand-feedback EWMAs are keyed by
        // platform in the global stores above and survive untouched
        // (the handoff state-transfer contract, DESIGN.md §13).
        let sharded = self.config.sharding.num_regions > 1;
        if sharded {
            let positions: Vec<_> = self
                .model
                .platforms()
                .filter_map(|p| {
                    let pos = self.model.predicted_position(p.id, self.now)?;
                    Some((p.id, p.kind, pos.lon_deg))
                })
                .collect();
            let events = self.regions.update(&positions, self.now);
            self.handoff_log.extend(events);
        }
        let tunnels = &self.tunnels;
        let gw = |ec: PlatformId| tunnels.gateways_to(ec);
        let plan = if sharded {
            crate::sharding::solve_sharded(
                &self.solver,
                &self.regions,
                graph,
                &self.requests,
                &gw,
                &previous,
                &self.drains,
                self.now,
            )
        } else {
            self.solver.solve(
                graph,
                &self.requests,
                &gw,
                &previous,
                &self.drains,
                self.now,
            )
        };
        let diff = self.intents.diff(&plan);

        // Radios already committed to a live intent cannot be tasked
        // again; the withdrawal of the old link (this cycle or a
        // previous one) must complete first, and the next solve will
        // re-issue the establishment.
        let busy: std::collections::BTreeSet<TransceiverId> = self
            .intents
            .live()
            .flat_map(|i| [i.link.a, i.link.b])
            .collect();

        // Establish new links.
        for link in diff.to_establish {
            if busy.contains(&link.a) || busy.contains(&link.b) {
                continue;
            }
            let iid = self.intents.create(link, self.now);
            let (cpl_id, tte) = self.cdpi.submit_intent(
                vec![
                    (
                        link.a.platform,
                        CommandBody::EstablishLink {
                            intent_id: iid.0,
                            local: link.a,
                            peer: link.b,
                        },
                    ),
                    (
                        link.b.platform,
                        CommandBody::EstablishLink {
                            intent_id: iid.0,
                            local: link.b,
                            peer: link.a,
                        },
                    ),
                ],
                self.now,
            );
            self.track_cpl_intent(cpl_id, iid);
            self.intents
                .set_state(iid, LinkIntentState::Commanded { tte });
        }

        // Withdraw links the plan no longer wants (policy-gated).
        if self.config.policy.predictive_withdrawal {
            for iid in diff.to_withdraw {
                let Some(i) = self.intents.get(iid) else {
                    continue;
                };
                let (pa, pb) = (i.link.a.platform, i.link.b.platform);
                let (cpl_id, _) = self.cdpi.submit_intent(
                    vec![
                        (pa, CommandBody::TeardownLink { intent_id: iid.0 }),
                        (pb, CommandBody::TeardownLink { intent_id: iid.0 }),
                    ],
                    self.now,
                );
                self.track_cpl_intent(cpl_id, iid);
                self.intents
                    .set_state(iid, LinkIntentState::WithdrawRequested { at: self.now });
            }
        }

        self.program_routes();
        self.last_plan = Some(plan);
    }

    /// Program routes over the *installed* topology — "route and
    /// tunnel intents were emitted on top of the installed topology"
    /// (Appendix B). Routes keep using links whose withdrawal is in
    /// flight: the deployed actuation "lacked the sequencing of
    /// updates to avoid temporary routing blackholes", so a planned
    /// teardown briefly breaks routes until the (event-driven,
    /// fast-because-anticipated) reroute lands — which is why
    /// withdrawn-link breaks recover faster than surprise failures
    /// (Figure 8). Called from the solve cycle and whenever the
    /// controller learns the installed topology changed (the §4.2
    /// side channel exists precisely so the TS-SDN can "proceed to
    /// program routes" the moment a link comes up).
    fn program_routes(&mut self) {
        // Strictly the controller's *belief*: links it thinks are up.
        // A surprise failure keeps polluting route programs until the
        // detection delay elapses — the controller must never read
        // physical truth directly.
        let durable: std::collections::BTreeSet<(PlatformId, PlatformId)> = self
            .intents
            .live()
            .filter(|i| {
                matches!(
                    i.state,
                    LinkIntentState::Established { .. } | LinkIntentState::WithdrawRequested { .. }
                )
            })
            .map(|i| {
                let (x, y) = (i.link.a.platform, i.link.b.platform);
                (x.min(y), x.max(y))
            })
            .collect();
        // One adjacency for the whole program: every request's
        // primary and alternate search it.
        let graph = RouteGraph::new(&durable);
        for i in 0..self.requests.len() {
            let (node, ec) = (self.requests[i].node, self.requests[i].ec);
            let flow = (node, ec);
            let gws = self.tunnels.gateways_to(ec);
            let Some(path) = Self::route_over(&graph, node, &gws, &[]) else {
                continue;
            };
            let mut full = path.clone();
            full.push(ec);

            // Edge-disjoint alternate: search the same adjacency with
            // the primary's radio edges left out. When the redundancy
            // pass gave the site a second established route, this
            // finds it; the traffic engine then splits the site's bulk
            // load across both planes. `None` means the plan carries
            // no alternate — the program will then withdraw whatever
            // the alt plane still holds.
            let desired_alt: Option<Vec<PlatformId>> = if self.config.multipath_routes {
                let primary_edges: Vec<(PlatformId, PlatformId)> = path
                    .windows(2)
                    .map(|w| (w[0].min(w[1]), w[0].max(w[1])))
                    .collect();
                Self::route_over(&graph, node, &gws, &primary_edges)
                    .map(|mut alt| {
                        alt.push(ec);
                        alt
                    })
                    .filter(|alt| *alt != full)
            } else {
                None
            };

            let primary_current = self.programmed_paths.get(&flow) == Some(&full);
            let alt_current = self.programmed_alt_paths.get(&flow) == desired_alt.as_ref();
            if primary_current && alt_current {
                continue;
            }
            if self.pending_routes.values().any(|(f, _, _)| *f == flow) {
                continue; // a program for this flow is in flight
            }
            // One program, two planes: the alternate rides the
            // primary's SetRoutes intent, so it can never lag the
            // primary through the satcom bootstrap queue (the old
            // defer-until-primary-confirmed workaround this replaces
            // cost an extra solve round of availability per alt).
            self.submit_route_program(flow, full, desired_alt);
        }
    }

    /// Submit one SetRoutes program (primary + complete alt-plane
    /// state) over the control plane and track it until confirmation.
    fn submit_route_program(
        &mut self,
        flow: (PlatformId, PlatformId),
        full: Vec<PlatformId>,
        alt: Option<Vec<PlatformId>>,
    ) {
        self.route_version += 1;
        let mut targets: Vec<PlatformId> = full
            .iter()
            .filter(|n| !self.ec_ids.contains(n))
            .copied()
            .collect();
        if let Some(alt_path) = &alt {
            for n in alt_path {
                if !self.ec_ids.contains(n) && !targets.contains(n) {
                    targets.push(*n);
                }
            }
        }
        let entries = (full.len() + alt.as_ref().map_or(0, |a| a.len())) as u16;
        let parts: Vec<(PlatformId, CommandBody)> = targets
            .into_iter()
            .map(|n| {
                (
                    n,
                    CommandBody::SetRoutes {
                        version: self.route_version,
                        entries,
                    },
                )
            })
            .collect();
        let (cpl_id, _) = self.cdpi.submit_intent(parts, self.now);
        self.pending_routes.insert(cpl_id, (flow, full, alt));
    }

    /// Apply one node's share of a combined route program: its primary
    /// hops (when it sits on the primary path) and its alternate-plane
    /// state — install hops when it sits on the program's alternate,
    /// or remove the flow's alt entries when the program carries none.
    fn apply_node_routes(
        &mut self,
        node: PlatformId,
        version: u64,
        flow: (PlatformId, PlatformId),
        path: &[PlatformId],
        alt: Option<&[PlatformId]>,
    ) {
        let src = self.prefixes.get(flow.0).expect("allocated");
        let dst = self.prefixes.get(flow.1).expect("allocated");
        let install_hops = |t: &mut RouteTable, p: &[PlatformId], idx: usize, alt_plane: bool| {
            let mut install = |e: RouteEntry| {
                if alt_plane {
                    t.install_alt(e)
                } else {
                    t.install(e)
                }
            };
            if idx + 1 < p.len() {
                install(RouteEntry {
                    src,
                    dst,
                    next_hop: p[idx + 1],
                });
            }
            if idx > 0 {
                install(RouteEntry {
                    src: dst,
                    dst: src,
                    next_hop: p[idx - 1],
                });
            }
        };
        let t = self.fabric.table_mut(node);
        // Stale-version guards: a reordered or long-delayed SetRoutes
        // must not clobber a newer program already applied here. The
        // guard stays per plane even though both planes now ride one
        // intent: historical tables can carry different per-plane
        // versions (node resets zero both; older split programs
        // stamped them independently), so each plane checks and
        // stamps its own watermark.
        if let Some(idx) = path.iter().position(|n| *n == node) {
            if version >= t.version {
                install_hops(t, path, idx, false);
                t.version = version;
            }
        }
        if version >= t.alt_version {
            match alt {
                Some(ap) => {
                    if let Some(idx) = ap.iter().position(|n| *n == node) {
                        install_hops(t, ap, idx, true);
                        t.alt_version = version;
                    }
                }
                None => {
                    // The program declares "no alternate": this node
                    // drops whatever it still holds for the flow.
                    t.remove_alt(src, dst);
                    t.remove_alt(dst, src);
                    t.alt_version = version;
                }
            }
        }
    }

    /// The model's *current* expectation for an established link's
    /// margin: believed positions, believed weather, and the
    /// deliberate pessimism, all evaluated at `self.now`. §5's tooling
    /// correlated telemetry with "model expectations" — expectations
    /// at measurement time, not the (possibly hours-stale) margin the
    /// link was planned with. Comparing against the planning-time
    /// margin makes every long-lived link through an afternoon storm
    /// look like a systematic model error.
    fn believed_margin_now(&self, link: &crate::evaluator::CandidateLink) -> Option<f64> {
        let pos_a = self.model.predicted_position(link.a.platform, self.now)?;
        let pos_b = self.model.predicted_position(link.b.platform, self.now)?;
        let xa = self.model.transceiver(link.a)?;
        let xb = self.model.transceiver(link.b)?;
        let band = self.config.evaluator.bands.get(link.band as usize)?;
        let band = tssdn_rf::RadioParams {
            implementation_loss_db: band.implementation_loss_db
                + self.config.evaluator.model_pessimism_db,
            ..*band
        };
        let weather = crate::model::ModelWeather { model: &self.model };
        let rep = rf_evaluate(
            &pos_a,
            &pos_b,
            &band,
            &xa.pattern,
            &xb.pattern,
            0.0,
            0.0,
            &weather,
            self.now.as_ms(),
        );
        Some(rep.margin_db)
    }

    fn record_validation_samples(&mut self) {
        let samples: Vec<ModelErrorSample> = self
            .intents
            .established()
            .filter_map(|i| {
                let mut measured = self.true_margin(i.link.a, i.link.b, i.link.band)?;
                // A tracker locked on the first side lobe measures
                // ~14 dB less signal than boresight — Figure 10's bump.
                if self
                    .machines
                    .iter()
                    .any(|m| m.intent == i.id && m.machine.on_sidelobe())
                {
                    measured -= 14.0;
                }
                // Ground-station end observes when present (obstruction
                // analysis is per site); otherwise endpoint `a`.
                let (observer, pointing) =
                    if self.fleet.kind(i.link.b.platform) == PlatformKind::GroundStation {
                        (i.link.b.platform, i.link.pointing_b)
                    } else {
                        (i.link.a.platform, i.link.pointing_a)
                    };
                Some(ModelErrorSample {
                    at: self.now,
                    observer,
                    pointing,
                    modelled_db: self
                        .believed_margin_now(&i.link)
                        .unwrap_or(i.link.margin_db),
                    measured_db: measured,
                    kind: i.kind(),
                })
            })
            .collect();
        for mut s in samples {
            s.measured_db += self.rng_truth.gen_range(-0.5..0.5);
            self.validator.record(s);
        }
    }

    fn probe(&mut self, established: &UpLinks) {
        debug_assert_eq!(
            self.reachable,
            self.last_graph
                .as_ref()
                .map(Self::platforms_of)
                .unwrap_or_default(),
            "reachable set out of step with the cached graph"
        );
        let balloons: Vec<PlatformId> = (0..self.fleet.balloons.len() as u32)
            .map(PlatformId)
            .collect();
        for b in balloons {
            let eligible = self.potentially_operable(b);
            // Link layer: any installed link touches the balloon.
            let link_up = established.iter().any(|(x, y)| *x == b || *y == b);
            // Control plane: in-band reachable.
            let control_up = self.cdpi.inband.is_reachable(b, self.now);
            // Data plane: programmed route traces to the EC over up
            // links/tunnels.
            let data_up = self.active_path_over(b, established).is_some();
            self.availability
                .record(b, Layer::Link, eligible, link_up, self.now);
            self.availability
                .record(b, Layer::ControlPlane, eligible, control_up, self.now);
            self.availability
                .record(b, Layer::DataPlane, eligible, data_up, self.now);
            // Fail-static: forwarding continues on stale routes while
            // the controller can't reach the node. Tracked as its own
            // layer so soaks can see how much of data-plane uptime was
            // carried by last-known-good state.
            self.availability.record(
                b,
                Layer::DataPlaneStale,
                eligible,
                data_up && !control_up,
                self.now,
            );

            // Figure-8 recovery tracking (only inside eligible windows:
            // nightly power-downs are not "route breaks").
            if eligible {
                if data_up {
                    self.recovery.recovered(b, self.now);
                } else if !self.recovery.is_broken(b) && self.was_programmed(b) {
                    let cause = self.correlate_break(b);
                    self.recovery.broke(b, cause, self.now);
                }
                // Control-plane breakage tracking (same correlation).
                if control_up {
                    self.recovery_control.recovered(b, self.now);
                } else if !self.recovery_control.is_broken(b) && self.was_programmed(b) {
                    let cause = self.correlate_break(b);
                    self.recovery_control.broke(b, cause, self.now);
                }
            } else {
                // Power-down closes any open break without a sample.
                if self.recovery.is_broken(b) {
                    // Drop silently: recovery after dawn would be a
                    // bootstrap, not a repair.
                    self.recovery.recovered(b, self.now);
                }
                if self.recovery_control.is_broken(b) {
                    self.recovery_control.recovered(b, self.now);
                }
            }
        }
    }

    /// Advance the flow-level traffic engine over the interval since
    /// its last tick, against the *true* forwarding state: the routes
    /// that actually trace end-to-end right now, and per-edge
    /// capacities from the ACM table at each established machine's
    /// true link margin (weather fade degrades capacity continuously,
    /// not just at the controller's solve cadence).
    fn tick_traffic(&mut self, established: &UpLinks) {
        if self.traffic.is_none() {
            return;
        }
        let dt = self.now.since(self.last_traffic);
        self.last_traffic = self.now;
        if dt.as_ms() == 0 {
            return;
        }

        let mut view = TopologyView::default();
        for b in (0..self.fleet.balloons.len() as u32).map(PlatformId) {
            if self.potentially_operable(b) {
                view.eligible.insert(b);
            }
            // A balloon inside an active loss window is gone, not
            // merely dark: the traffic engine wipes whatever backlog
            // custody transfer did not move off it in time.
            if self.chaos.balloon_lost(b) {
                view.dead.insert(b);
            }
            let primary = self.active_path_over(b, established);
            let alt = self.active_alt_path_over(b, established);
            match (primary, alt) {
                (Some(p), Some(a)) => {
                    view.paths.insert(b, p.clone());
                    if a != p {
                        view.alt_paths.insert(b, a);
                    }
                }
                (Some(p), None) => {
                    view.paths.insert(b, p);
                }
                // Failover promotion: the primary no longer traces but
                // the redundant plane still does — traffic rides it as
                // the (sole) forwarding path until the controller
                // reprograms the primary.
                (None, Some(a)) => {
                    view.paths.insert(b, a);
                }
                (None, None) => {}
            }
        }
        // Aggregate established machines into per-platform-pair edge
        // capacity via the MCS ladder at the current true margin.
        for m in &self.machines {
            if !m.machine.is_established() {
                continue;
            }
            // Same instant, fleet, faults and weather as when
            // `poll_links` measured it a few stages ago.
            debug_assert_eq!(m.margin, self.true_margin(m.a, m.b, m.band));
            let Some(margin) = m.margin else {
                continue;
            };
            let cap = (tssdn_rf::capacity_mbps(margin) * 1e6) as u64;
            let (x, y) = (m.a.platform, m.b.platform);
            *view
                .link_capacity_bps
                .entry((x.min(y), x.max(y)))
                .or_default() += cap;
        }

        // Custody designation: each loss-warned balloon gets a
        // custodian to push its backlog toward before the window
        // lands. Designations are sticky while the warning holds (a
        // handoff spreads over several ticks at residual rate) and
        // chosen deterministically: the next hop of a current
        // forwarding plane when one exists, else the lowest-id linked
        // balloon that still has a route, else any linked survivor —
        // during a full ground blackout the bits still move one hop
        // and drain once routes return.
        let n_balloons = self.fleet.balloons.len() as u32;
        let warned: Vec<PlatformId> = (0..n_balloons)
            .map(PlatformId)
            .filter(|b| self.chaos.loss_warned(*b, self.now) && !view.dead.contains(b))
            .collect();
        self.custody_designations.retain(|b, _| warned.contains(b));
        for &b in &warned {
            let viable = |c: PlatformId| {
                c != b
                    && c.0 < n_balloons
                    && !view.dead.contains(&c)
                    && !self.chaos.loss_warned(c, self.now)
                    && self.effectively_powered(c)
            };
            let linked = |c: PlatformId| view.link_capacity_bps.contains_key(&(b.min(c), b.max(c)));
            let next_hop = |path: Option<&Vec<PlatformId>>| {
                path.and_then(|p| p.get(1))
                    .copied()
                    .filter(|&c| viable(c) && linked(c))
            };
            let neighbors = || {
                view.link_capacity_bps.keys().filter_map(|&(x, y)| {
                    if x == b {
                        Some(y)
                    } else if y == b {
                        Some(x)
                    } else {
                        None
                    }
                })
            };
            let pick = self
                .custody_designations
                .get(&b)
                .copied()
                .filter(|&c| viable(c) && linked(c))
                .or_else(|| next_hop(view.paths.get(&b)))
                .or_else(|| next_hop(view.alt_paths.get(&b)))
                .or_else(|| neighbors().find(|&c| viable(c) && view.paths.contains_key(&c)))
                .or_else(|| neighbors().find(|&c| viable(c)));
            if let Some(c) = pick {
                if self.custody_designations.insert(b, c) != Some(c) {
                    self.custody_intents_issued += 1;
                }
            }
        }
        for (&b, &c) in &self.custody_designations {
            view.custody.insert(b, c);
        }

        let engine = self.traffic.as_mut().expect("checked above");
        engine.tick(self.now, dt, &view);
    }

    /// Current custody designations (doomed holder → custodian).
    pub fn custody_designations(&self) -> &BTreeMap<PlatformId, PlatformId> {
        &self.custody_designations
    }

    /// The traffic engine, when `config.traffic` is set.
    pub fn traffic(&self) -> Option<&TrafficEngine> {
        self.traffic.as_ref()
    }

    fn was_programmed(&self, b: PlatformId) -> bool {
        self.programmed_paths.keys().any(|(n, _)| *n == b)
    }

    /// Physically-up links right now (the radios' view, regardless of
    /// whether the controller has requested withdrawal).
    fn physical_up_links(&self) -> UpLinks {
        self.machines
            .iter()
            .filter(|m| m.machine.is_established())
            .map(|m| {
                let (x, y) = (m.a.platform, m.b.platform);
                (x.min(y), x.max(y))
            })
            .collect()
    }

    /// Shortest path from `from` to any node in `targets` over
    /// `graph`, never crossing an edge listed in `without` (as
    /// `(min, max)` pairs). BFS — links are unweighted here — visiting
    /// neighbors in `graph`'s order, so the answer is the one a search
    /// over an adjacency rebuilt from the edge set minus `without`
    /// would give.
    fn route_over(
        graph: &RouteGraph,
        from: PlatformId,
        targets: &[PlatformId],
        without: &[(PlatformId, PlatformId)],
    ) -> Option<Vec<PlatformId>> {
        if targets.contains(&from) {
            return Some(vec![from]);
        }
        // Per platform id: the node it was reached from.
        const UNSEEN: u32 = u32::MAX;
        let mut prev = vec![UNSEEN; graph.adj.len()];
        let mut q = std::collections::VecDeque::new();
        // A source outside the graph has no edge to leave by.
        *prev.get_mut(from.0 as usize)? = from.0;
        q.push_back(from);
        while let Some(n) = q.pop_front() {
            if targets.contains(&n) {
                let mut path = vec![n];
                let mut cur = n;
                while prev[cur.0 as usize] != cur.0 {
                    cur = PlatformId(prev[cur.0 as usize]);
                    path.push(cur);
                }
                path.reverse();
                return Some(path);
            }
            for &m in &graph.adj[n.0 as usize] {
                if prev[m.0 as usize] == UNSEEN && !without.contains(&(n.min(m), n.max(m))) {
                    prev[m.0 as usize] = n.0;
                    q.push_back(m);
                }
            }
        }
        None
    }

    /// The currently-working data-plane path for a balloon's flow, if
    /// its programmed route traces end-to-end over up links. Builds
    /// the up-link set for this one question; the probe cadence asks
    /// it of every balloon and uses `active_path_over`.
    pub fn active_path(&self, b: PlatformId) -> Option<Vec<PlatformId>> {
        self.active_path_over(b, &self.physical_up_links())
    }

    /// The currently-working *alternate* data-plane path for a
    /// balloon's flow, if an alt route was programmed and traces
    /// end-to-end over up links.
    pub fn active_alt_path(&self, b: PlatformId) -> Option<Vec<PlatformId>> {
        self.active_alt_path_over(b, &self.physical_up_links())
    }

    /// [`Self::active_path`] against an up-link set the caller built.
    fn active_path_over(&self, b: PlatformId, established: &UpLinks) -> Option<Vec<PlatformId>> {
        let ec = self.ec_ids[0];
        let src = self.prefixes.get(b)?;
        let dst = self.prefixes.get(ec)?;
        self.fabric
            .trace_flow(src, dst, b, ec, |x, y| self.hop_up(established, x, y))
    }

    /// [`Self::active_alt_path`] against an up-link set the caller
    /// built.
    fn active_alt_path_over(
        &self,
        b: PlatformId,
        established: &UpLinks,
    ) -> Option<Vec<PlatformId>> {
        let ec = self.ec_ids[0];
        let src = self.prefixes.get(b)?;
        let dst = self.prefixes.get(ec)?;
        self.fabric
            .trace_flow_alt(src, dst, b, ec, |x, y| self.hop_up(established, x, y))
    }

    /// Whether a packet at `x` can take the hop to `y`: a tunnel that
    /// is connected when `y` is an EC, an established radio link
    /// otherwise.
    fn hop_up(&self, established: &UpLinks, x: PlatformId, y: PlatformId) -> bool {
        if self.ec_ids.contains(&y) {
            self.tunnels.connected(x, y)
        } else {
            established.contains(&(x.min(y), x.max(y)))
        }
    }

    /// Flows whose alt plane still holds fabric entries even though
    /// the controller believes no alternate is programmed and no
    /// program is in flight that would fix it — i.e. genuinely stale
    /// alternates the withdrawal pass should have cleaned. Transients
    /// (an in-flight program) are excluded; the chaos soak asserts
    /// this settles to empty at end of run.
    pub fn stale_alt_flows(&self) -> Vec<(PlatformId, PlatformId)> {
        let mut out = Vec::new();
        for req in &self.requests {
            let flow = (req.node, req.ec);
            if self.programmed_alt_paths.contains_key(&flow) {
                continue;
            }
            if self.pending_routes.values().any(|(f, _, _)| *f == flow) {
                continue;
            }
            let (Some(src), Some(dst)) = (self.prefixes.get(flow.0), self.prefixes.get(flow.1))
            else {
                continue;
            };
            let lingering = self.fleet.platform_ids().any(|(id, _)| {
                self.fabric.table(id).is_some_and(|t| {
                    t.lookup_alt(src, dst).is_some() || t.lookup_alt(dst, src).is_some()
                })
            });
            if lingering {
                out.push(flow);
            }
        }
        out
    }

    /// Why (or whether) a balloon's data plane is reachable right now —
    /// diagnostic surface for experiments and examples.
    pub fn data_plane_status(&self, b: PlatformId) -> DataPlaneStatus {
        let ec = self.ec_ids[0];
        let src = self.prefixes.get(b).expect("allocated");
        let dst = self.prefixes.get(ec).expect("allocated");
        if !self.was_programmed(b) {
            return DataPlaneStatus::NeverProgrammed;
        }
        let mut missing_entry = false;
        if self.active_path(b).is_some() {
            // Forwarding works; distinguish live control from
            // fail-static (stale routes, controller unreachable).
            return if self.cdpi.inband.is_reachable(b, self.now) {
                DataPlaneStatus::Up
            } else {
                DataPlaneStatus::FailStatic
            };
        }
        // Distinguish a missing forwarding entry from a down link.
        let mut at = b;
        for _ in 0..32 {
            if at == ec {
                break;
            }
            match self.fabric.table(at).and_then(|t| t.lookup(src, dst)) {
                None => {
                    missing_entry = true;
                    break;
                }
                Some(nh) => at = nh,
            }
        }
        if missing_entry {
            DataPlaneStatus::MissingEntry
        } else {
            DataPlaneStatus::BrokenLink
        }
    }

    /// Attribute a fresh break to the most recent co-occurring link
    /// termination on the balloon's programmed path.
    fn correlate_break(&self, b: PlatformId) -> BreakCause {
        let path: Option<&Vec<PlatformId>> = self
            .programmed_paths
            .iter()
            .find(|((n, _), _)| *n == b)
            .map(|(_, p)| p);
        let relevant = |t: &RecentTermination| {
            path.map(|p| p.contains(&t.platforms.0) || p.contains(&t.platforms.1))
                .unwrap_or(t.platforms.0 == b || t.platforms.1 == b)
        };
        // Attribute to the *earliest* relevant termination in the
        // window: a surprise failure commonly triggers cascade
        // withdrawals seconds later, and the failure — not the
        // cascade — is what broke the path.
        let mut best: Option<&RecentTermination> = None;
        for t in self.recent_terminations.iter().filter(|t| relevant(t)) {
            if best.map(|b| t.at < b.at).unwrap_or(true) {
                best = Some(t);
            }
        }
        match best {
            Some(t) if t.planned => BreakCause::Withdrawn,
            Some(_) => BreakCause::Failed,
            None => BreakCause::Other,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tssdn_link::LinkKind;

    /// A small daytime scenario: spawn at 09:00 with everything
    /// powered by construction of the probe times.
    fn small() -> Orchestrator {
        let mut cfg = OrchestratorConfig::kenya(6, 42);
        cfg.fleet.spawn_radius_m = 150_000.0;
        Orchestrator::new(cfg)
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
    fn traffic_engine_carries_load_once_routes_exist() {
        let mut cfg = OrchestratorConfig::kenya(6, 42);
        cfg.fleet.spawn_radius_m = 150_000.0;
        cfg.traffic = Some(TrafficConfig {
            workers: 1,
            ..TrafficConfig::default()
        });
        let mut o = Orchestrator::new(cfg);
        o.run_until(SimTime::from_hours(12));
        let engine = o.traffic().expect("traffic enabled");
        let series = engine.series();
        assert!(series.offered_bits() > 0, "daytime sites offered traffic");
        let g = series.overall().expect("offered");
        assert!(g > 0.0, "some traffic delivered end-to-end: {g}");
        assert!(g <= 1.0);
        // The demand digest observed at least one site, and feedback
        // rewrote the solver's request weights away from the static
        // default.
        let fed = o
            .backhaul_requests()
            .iter()
            .any(|r| r.min_bitrate_bps != o.config.demand_bps);
        assert!(fed, "demand feedback updated request weights");
    }

    #[test]
    fn traffic_disabled_by_default_and_inert() {
        let o = small();
        assert!(o.traffic().is_none());
        // Static demand weights stay untouched.
        assert!(o
            .backhaul_requests()
            .iter()
            .all(|r| r.min_bitrate_bps == o.config.demand_bps));
    }

    #[test]
    fn data_plane_routes_get_programmed() {
        let mut o = small();
        o.run_until(SimTime::from_hours(12));
        let dp = o.availability.overall(Layer::DataPlane);
        assert!(
            dp.map(|a| a > 0.1).unwrap_or(false),
            "some data-plane availability by noon: {dp:?}"
        );
        assert!(!o.programmed_paths.is_empty(), "paths programmed");
    }

    #[test]
    fn multipath_programs_alt_routes_when_redundancy_exists() {
        let mut cfg = OrchestratorConfig::kenya(6, 42);
        cfg.fleet.spawn_radius_m = 150_000.0;
        cfg.multipath_routes = true;
        let mut o = Orchestrator::new(cfg);
        o.run_until(SimTime::from_hours(12));
        assert!(
            !o.programmed_alt_paths.is_empty(),
            "edge-disjoint alternates programmed by noon"
        );
        // Every alt differs from the primary for the same flow.
        for (flow, alt) in &o.programmed_alt_paths {
            assert_ne!(
                Some(alt),
                o.programmed_paths.get(flow),
                "alt distinct for {flow:?}"
            );
        }
        // At least one balloon's alternate actually traces end-to-end.
        let live = (0..o.fleet.balloons.len() as u32)
            .map(PlatformId)
            .filter(|b| o.active_alt_path(*b).is_some())
            .count();
        assert!(live > 0, "some alt path traces over up links");

        // With multipath routing off (the default), no alt programs
        // are issued.
        let mut off = small();
        off.run_until(SimTime::from_hours(12));
        assert!(off.programmed_alt_paths.is_empty());
        assert!(!off.programmed_paths.is_empty());
    }

    #[test]
    fn combined_program_guards_each_plane_independently() {
        // Both planes ride one SetRoutes intent now, but commands from
        // *successive* programs can still land out of order, and
        // historical tables carry independent per-plane watermarks.
        // Each plane must check and stamp its own version.
        let mut o = small();
        let ec = o.ec_ids[0];
        let (b, mid, other) = (PlatformId(0), PlatformId(1), PlatformId(2));
        let flow = (b, ec);
        let path = vec![b, mid, ec];
        let alt = [b, other, ec];
        // One program, two planes: each node applies its share.
        o.apply_node_routes(mid, 2, flow, &path, Some(&alt[..]));
        o.apply_node_routes(other, 2, flow, &path, Some(&alt[..]));
        let src = o.prefixes.get(b).unwrap();
        let dst = o.prefixes.get(ec).unwrap();
        assert_eq!(
            o.fabric.table(mid).expect("table").lookup(src, dst),
            Some(ec),
            "primary installed at its relay"
        );
        assert_eq!(
            o.fabric.table(other).expect("table").lookup_alt(src, dst),
            Some(ec),
            "alt installed at its relay"
        );
        assert_eq!(o.fabric.table(mid).expect("table").version, 2);
        assert_eq!(o.fabric.table(other).expect("table").alt_version, 2);
        // A long-delayed older program carrying no alternate must not
        // tear the newer alt plane down.
        let direct = vec![b, ec];
        o.apply_node_routes(other, 1, flow, &direct, None);
        assert_eq!(
            o.fabric.table(other).expect("table").lookup_alt(src, dst),
            Some(ec),
            "stale alt-withdrawal dropped"
        );
        // Per-plane guard on the source node: a stale program must
        // clobber neither the newer primary nor the newer alt.
        o.apply_node_routes(b, 3, flow, &path, Some(&alt[..]));
        o.apply_node_routes(b, 2, flow, &direct, None);
        let tb = o.fabric.table(b).expect("table");
        assert_eq!(tb.lookup(src, dst), Some(mid), "stale primary dropped");
        assert_eq!(
            tb.lookup_alt(src, dst),
            Some(other),
            "stale alt-withdrawal dropped at source"
        );
        assert_eq!(tb.version, 3);
        // A *newer* no-alternate program does withdraw the node's alt.
        o.apply_node_routes(other, 4, flow, &direct, None);
        let to = o.fabric.table(other).expect("table");
        assert_eq!(to.lookup_alt(src, dst), None, "newer withdrawal lands");
        assert_eq!(to.alt_version, 4);
    }

    #[test]
    fn redundancy_loss_withdraws_the_alt_plane() {
        // A confirmed program whose alternate is `None` must wipe the
        // flow's alt-plane entries fleet-wide — the planner no longer
        // believes in that path, so `lookup_alt` must stop forwarding
        // onto it.
        let mut o = small();
        let ec = o.ec_ids[0];
        let (b, mid, other) = (PlatformId(0), PlatformId(1), PlatformId(2));
        let flow = (b, ec);
        let src = o.prefixes.get(b).unwrap();
        let dst = o.prefixes.get(ec).unwrap();
        let primary = vec![b, mid, ec];
        let alt = vec![b, other, ec];
        o.fabric.program_path(src, dst, &primary, 1);
        o.fabric.program_path_alt(src, dst, &alt, 1);
        o.programmed_alt_paths.insert(flow, alt.clone());
        assert!(!o.stale_alt_flows().contains(&flow), "alt is believed-in");
        // The next plan keeps the flow but drops its alternate.
        o.pending_routes.insert(99, (flow, primary.clone(), None));
        o.handle_cpl_event(CdpiEvent::IntentConfirmed {
            intent_id: 99,
            kind: tssdn_cpl::IntentKind::Route,
            at: o.now(),
            elapsed: SimDuration::from_secs(1),
        });
        assert!(
            o.fabric
                .trace_flow_alt(src, dst, b, ec, |_, _| true)
                .is_none(),
            "alt plane withdrawn end-to-end"
        );
        assert!(
            o.fabric
                .table(other)
                .is_none_or(|t| t.lookup_alt(src, dst).is_none()),
            "relay's alt entry gone"
        );
        assert!(!o.programmed_alt_paths.contains_key(&flow));
        // The primary survives untouched.
        assert_eq!(
            o.fabric.trace_flow(src, dst, b, ec, |_, _| true),
            Some(primary.clone()),
        );
        assert!(!o.stale_alt_flows().contains(&flow), "nothing lingers");
    }

    /// Mid-morning, everything powered, ground stations wired to the
    /// controller, nothing commanded yet.
    fn small_at_ten() -> Orchestrator {
        let mut o = small();
        o.now = SimTime::from_hours(10);
        mesh_tick(&mut o);
        o
    }

    /// Advance the clock one tick and run only the in-band mesh stage:
    /// no control-plane poll, so nothing is confirmed by acks.
    fn mesh_tick(o: &mut Orchestrator) {
        o.now += o.config.tick;
        o.fleet.advance_to(o.now);
        o.update_manet();
    }

    /// Command a link from balloon 0 to the first ground station the
    /// way `solve_and_actuate` does; returns `(intent, establish cpl
    /// id, balloon, ground station)`.
    fn command_b2g(o: &mut Orchestrator) -> (IntentId, u64, PlatformId, PlatformId) {
        let (balloon, gs) = (PlatformId(0), o.fleet.ground_stations[0].id);
        let link = crate::evaluator::CandidateLink {
            a: TransceiverId::new(balloon, 0),
            b: TransceiverId::new(gs, 0),
            kind: LinkKind::B2G,
            band: 0,
            bitrate_bps: 1_000_000_000,
            margin_db: 10.0,
            quality: tssdn_rf::LinkQuality::Acceptable,
            pointing_a: tssdn_geo::AzEl::new(0.0, 0.0),
            pointing_b: tssdn_geo::AzEl::new(180.0, 45.0),
            range_m: 100_000.0,
        };
        let iid = o.intents.create(link, o.now);
        let establish = |local, peer| CommandBody::EstablishLink {
            intent_id: iid.0,
            local,
            peer,
        };
        let (cpl_id, tte) = o.cdpi.submit_intent(
            vec![
                (balloon, establish(link.a, link.b)),
                (gs, establish(link.b, link.a)),
            ],
            o.now,
        );
        o.track_cpl_intent(cpl_id, iid);
        o.intents.set_state(iid, LinkIntentState::Commanded { tte });
        (iid, cpl_id, balloon, gs)
    }

    /// Tick the mesh until `balloon` is in-band; panics if BATMAN
    /// never gets it there.
    fn tick_until_inband(o: &mut Orchestrator, balloon: PlatformId) {
        for _ in 0..6 {
            mesh_tick(o);
            if o.cdpi.inband.is_reachable(balloon, o.now) {
                return;
            }
        }
        panic!("{balloon:?} never came in-band");
    }

    #[test]
    fn intent_established_out_of_band_confirms_once_at_first_inband_tick() {
        let mut o = small_at_ten();
        let (iid, cpl_id, balloon, gs) = command_b2g(&mut o);
        o.intents
            .set_state(iid, LinkIntentState::Established { at: o.now });
        // No mesh edge: the balloon is out of band, nothing is offered.
        mesh_tick(&mut o);
        mesh_tick(&mut o);
        assert!(o.cdpi.records().is_empty());
        assert!(o.confirm_unoffered.contains(&cpl_id));
        // The edge appears; the first tick that finds the balloon
        // in-band confirms the intent.
        o.manet.set_link(balloon, gs, 1.0);
        tick_until_inband(&mut o, balloon);
        assert_eq!(o.cdpi.records().len(), 1, "confirmed at the first tick");
        assert!(!o.confirm_unoffered.contains(&cpl_id), "offered once");
        mesh_tick(&mut o);
        mesh_tick(&mut o);
        assert_eq!(o.cdpi.records().len(), 1, "and never again");
    }

    #[test]
    fn intent_established_in_band_is_offered_at_the_next_tick_only() {
        let mut o = small_at_ten();
        // The balloon is in-band first (a standing link to the site)...
        let (balloon, gs) = (PlatformId(0), o.fleet.ground_stations[0].id);
        o.manet.set_link(balloon, gs, 1.0);
        tick_until_inband(&mut o, balloon);
        // ...and only then is a link commanded, so connecting does not
        // confirm it; while `Commanded` it is not offered either.
        let (iid, cpl_id, _, _) = command_b2g(&mut o);
        mesh_tick(&mut o);
        assert!(o.cdpi.records().is_empty());
        assert!(o.confirm_unoffered.contains(&cpl_id));
        o.intents
            .set_state(iid, LinkIntentState::Established { at: o.now });
        mesh_tick(&mut o);
        assert_eq!(o.cdpi.records().len(), 1, "offered at the next tick");
        assert!(!o.confirm_unoffered.contains(&cpl_id));
        assert!(
            o.cpl_to_intent.contains_key(&cpl_id),
            "still mapped: the intent is live"
        );
        mesh_tick(&mut o);
        assert_eq!(o.cdpi.records().len(), 1, "a second tick adds none");
    }

    #[test]
    fn ended_intents_leave_both_confirm_stores() {
        let mut o = small_at_ten();
        let (iid, establish_id, balloon, gs) = command_b2g(&mut o);
        // A withdrawal rides its own cpl intent, mapped to the same
        // controller intent.
        let teardown = CommandBody::TeardownLink { intent_id: iid.0 };
        let (teardown_id, _) = o
            .cdpi
            .submit_intent(vec![(balloon, teardown.clone()), (gs, teardown)], o.now);
        o.track_cpl_intent(teardown_id, iid);
        o.intents
            .set_state(iid, LinkIntentState::WithdrawRequested { at: o.now });
        mesh_tick(&mut o);
        assert_eq!(o.cpl_to_intent.len(), 2, "live: both ids kept");
        assert_eq!(o.confirm_unoffered.len(), 2);

        // Ended, but its link machine still runs and could yet report
        // `Established`: the ids stay until the machine is gone.
        o.spawn_machine(iid, o.now);
        let ended = LinkIntentState::Ended {
            at: o.now,
            planned: true,
        };
        o.intents.set_state(iid, ended);
        mesh_tick(&mut o);
        assert_eq!(o.cpl_to_intent.len(), 2);
        o.machines.clear();
        mesh_tick(&mut o);
        for id in [establish_id, teardown_id] {
            assert!(!o.cpl_to_intent.contains_key(&id));
            assert!(!o.confirm_unoffered.contains(&id));
        }
    }

    #[test]
    fn confirm_stores_stay_flat_over_three_days() {
        // ROADMAP's "state size flat across a multi-day run", as data:
        // at every day boundary both stores are bounded by the live
        // intent set (one establish id and the occasional teardown id
        // each), however many intents the run has been through.
        let mut o = Orchestrator::new(OrchestratorConfig::kenya(12, 7));
        for day in 1..=3 {
            o.run_until(SimTime::from_hours(24 * day));
            let live = o.intents.live().count();
            let ever = o.intents.all().count();
            assert!(ever > 100 * day as usize, "day {day}: a busy run: {ever}");
            assert!(
                o.cpl_to_intent.len() <= 2 * live + 4,
                "day {day}: {} cpl ids mapped for {live} live intents ({ever} ever)",
                o.cpl_to_intent.len()
            );
            assert!(o.confirm_unoffered.len() <= o.cpl_to_intent.len());
            assert!(o
                .confirm_unoffered
                .iter()
                .all(|c| o.cpl_to_intent.contains_key(c)));
        }
    }

    #[test]
    fn reachable_set_tracks_the_cached_graph() {
        let derived = |o: &Orchestrator| {
            o.last_graph
                .as_ref()
                .map(Orchestrator::platforms_of)
                .unwrap_or_default()
        };
        let mut o = small();
        // Before any evaluation there is no graph and nobody is
        // potentially operable; a probe must cope.
        assert!(o.last_graph.is_none() && o.reachable.is_empty());
        o.probe(&o.physical_up_links());
        // Step tick by tick through the morning: scheduled cycles
        // replace the graph, event-driven re-solves lend it out and put
        // it back, and the set must describe it after every one (the
        // same check is a debug_assert at every probe).
        let (mut scheduled, mut event_driven) = (0, 0);
        while o.now() < SimTime::from_hours(10) {
            let (dirty, solve_due) = (o.dirty_since, o.next_solve);
            o.run_until(o.now() + o.config.tick);
            assert_eq!(o.reachable, derived(&o), "at {}", o.now());
            if o.next_solve != solve_due {
                scheduled += 1;
            } else if dirty.is_some() && o.dirty_since.is_none() {
                event_driven += 1;
            }
        }
        assert!(scheduled > 500, "scheduled cycles ran: {scheduled}");
        assert!(event_driven > 0, "an event-driven re-solve ran");
        assert!(!o.reachable.is_empty(), "the morning graph has links");
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

    #[test]
    fn validator_collects_model_error_samples() {
        let mut o = small();
        o.run_until(SimTime::from_hours(12));
        assert!(
            !o.validator.samples().is_empty(),
            "modelled-vs-measured samples collected"
        );
        // The ITU-pessimism shift: the *typical* sample measures more
        // signal than modelled (positive error). Median, not mean — a
        // single long-lived side-lobe lock (−14 dB) can dominate the
        // mean in a short run.
        let errors = o.validator.errors_db(LinkKind::B2B);
        if !errors.is_empty() {
            let med = tssdn_telemetry::percentile(&errors, 50.0).expect("non-empty");
            assert!(
                med > 0.0,
                "pessimistic model ⇒ positive median error, got {med}"
            );
        }
    }

    #[test]
    fn candidate_graph_nonempty_by_day() {
        let mut o = small();
        o.run_until(SimTime::from_hours(10));
        let g = o.evaluate_candidates(o.now());
        assert!(!g.is_empty(), "candidates exist mid-morning");
        assert!(g.num_b2b() + g.num_b2g() == g.len());
    }

    /// `route_over` as it was before `program_routes` shared one
    /// adjacency: a BFS over an id-ordered adjacency rebuilt from
    /// whatever edge set it is handed.
    fn route_over_rebuilding(
        edges: &BTreeSet<(PlatformId, PlatformId)>,
        from: PlatformId,
        targets: &[PlatformId],
    ) -> Option<Vec<PlatformId>> {
        use std::collections::VecDeque;
        if targets.contains(&from) {
            return Some(vec![from]);
        }
        let mut adj: BTreeMap<PlatformId, Vec<PlatformId>> = BTreeMap::new();
        for (a, b) in edges {
            adj.entry(*a).or_default().push(*b);
            adj.entry(*b).or_default().push(*a);
        }
        let mut prev: BTreeMap<PlatformId, PlatformId> = BTreeMap::new();
        let mut q = VecDeque::new();
        q.push_back(from);
        prev.insert(from, from);
        while let Some(n) = q.pop_front() {
            if targets.contains(&n) {
                let mut path = vec![n];
                let mut cur = n;
                while prev[&cur] != cur {
                    cur = prev[&cur];
                    path.push(cur);
                }
                path.reverse();
                return Some(path);
            }
            for m in adj.get(&n).into_iter().flatten() {
                if !prev.contains_key(m) {
                    prev.insert(*m, n);
                    q.push_back(*m);
                }
            }
        }
        None
    }

    /// For every source on `0..platforms`, all searching one shared
    /// graph as the requests of a route program do: the primary is the
    /// one a rebuild from `edges` finds, and the alternate the one a
    /// rebuild from `edges` minus the primary's finds.
    fn same_routes_as_rebuilding(
        edges: &BTreeSet<(PlatformId, PlatformId)>,
        gateways: &[PlatformId],
        platforms: u32,
    ) -> Result<(), String> {
        let graph = RouteGraph::new(edges);
        for from in (0..platforms).map(PlatformId) {
            let primary = Orchestrator::route_over(&graph, from, gateways, &[]);
            if primary != route_over_rebuilding(edges, from, gateways) {
                return Err(format!("primary from {from:?}: {primary:?}"));
            }
            let Some(path) = primary else { continue };
            let used: Vec<(PlatformId, PlatformId)> = path
                .windows(2)
                .map(|w| (w[0].min(w[1]), w[0].max(w[1])))
                .collect();
            let mut reduced = edges.clone();
            for e in &used {
                reduced.remove(e);
            }
            let alt = Orchestrator::route_over(&graph, from, gateways, &used);
            if alt != route_over_rebuilding(&reduced, from, gateways) {
                return Err(format!("alternate from {from:?} around {path:?}: {alt:?}"));
            }
        }
        Ok(())
    }

    fn edge_set(pairs: &[(u32, u32)]) -> BTreeSet<(PlatformId, PlatformId)> {
        pairs
            .iter()
            .filter(|(a, b)| a != b)
            .map(|&(a, b)| (PlatformId(a.min(b)), PlatformId(a.max(b))))
            .collect()
    }

    #[test]
    fn filtered_search_handles_cuts_gateway_sources_and_strays() {
        // A ring 0-1-2-3 hung off gateway 5 by the bridge 3-4-5: every
        // primary crosses the cut, so no alternate exists; 5 is its
        // own route; 6 has no edge; 9 is beyond the graph's last id.
        let edges = edge_set(&[(0, 1), (1, 2), (2, 3), (0, 3), (3, 4), (4, 5)]);
        let gateways = [PlatformId(5)];
        same_routes_as_rebuilding(&edges, &gateways, 10).expect("same routes");
        let graph = RouteGraph::new(&edges);
        let route = |from, without: &[_]| {
            Orchestrator::route_over(&graph, PlatformId(from), &gateways, without)
        };
        let ids = |path: &[u32]| Some(path.iter().copied().map(PlatformId).collect::<Vec<_>>());
        assert_eq!(route(0, &[]), ids(&[0, 3, 4, 5]));
        let cut = [(PlatformId(3), PlatformId(4))];
        assert_eq!(route(0, &cut), None, "the bridge is the only way out");
        let side = [(PlatformId(0), PlatformId(3))];
        assert_eq!(
            route(0, &side),
            ids(&[0, 1, 2, 3, 4, 5]),
            "the long way round"
        );
        assert_eq!(route(5, &cut), ids(&[5]));
        assert_eq!(route(6, &[]), None);
        assert_eq!(route(9, &[]), None);
        // Two gateways: the alternate may end at the other one.
        let edges = edge_set(&[(0, 1), (1, 2), (0, 3), (3, 4)]);
        same_routes_as_rebuilding(&edges, &[PlatformId(2), PlatformId(4)], 5).expect("same routes");
    }

    proptest::proptest! {
        #[test]
        fn one_adjacency_finds_the_routes_a_rebuild_would(
            pairs in proptest::collection::vec((0u32..20, 0u32..20), 0..45),
            gateways in proptest::collection::vec(0u32..20, 1..4),
        ) {
            let gateways: Vec<PlatformId> = gateways.into_iter().map(PlatformId).collect();
            if let Err(why) = same_routes_as_rebuilding(&edge_set(&pairs), &gateways, 20) {
                return Err(proptest::TestCaseError::Fail(why));
            }
        }
    }
}
