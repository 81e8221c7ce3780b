//! One run of one workload: set-up, the measured window, the score.
//!
//! Closed loop, one driver thread, no concurrency in the load
//! generator; the program's own scoped workers follow
//! `available_parallelism`. The world is built through the path a
//! user takes (`ScenarioSpec::from_json` → `validate` → `build` →
//! `Orchestrator::run_until` → `scenario::scorecard`).
//!
//! The *untraced* run steps the window in 60-s steps and yields the
//! end-to-end metrics. The *traced* run advances the same world in
//! `config.tick` sub-steps and, beside it, drives shadow copies of
//! each layer built from the live world's public state, timing every
//! call into a layer's public functions from out here. No product
//! crate is touched, so shares are estimates of the in-loop stage
//! cost: what has no public entry point (event-driven re-solves,
//! `poll_links`, the side-channel confirm scan) lands in
//! `core.orchestrator.unattributed_share`.

use std::collections::BTreeSet;
use std::hint::black_box;
use std::time::Instant;

use tssdn_core::{solve_sharded, Orchestrator, TrafficEngine};
use tssdn_link::LinkRecord;
use tssdn_manet::{Batman, Harness as ManetHarness};
use tssdn_scenario::{scorecard, ScenarioSpec};
use tssdn_sim::{Fleet, PlatformId, PlatformKind, RngStreams, SimTime};
use tssdn_telemetry::Scorecard;
use tssdn_traffic::TopologyView;

use crate::checks::{settle, Checks};
use crate::host;
use crate::metrics::Metrics;
use crate::stats::{pct, ratio};
use crate::trace::Trace;
use crate::workload::{Workload, STEP, WINDOW_START};

/// Set-ups per run (`setup_s` is their median and the last world is
/// the one that runs), and repeats behind the traced run's
/// `scenario.*` medians.
pub const SETUPS: usize = 5;

const RUN_UNTIL: &str = "core.orchestrator.run_until";
const FLEET_ADVANCE: &str = "sim.fleet_advance";
const MANET_ADVANCE: &str = "manet.advance";
const MANET_QUERY: &str = "manet.route_query";
const PROBE_SCAN: &str = "core.orchestrator.probe_scan";
const TRAFFIC_TICK: &str = "traffic.tick";
const EVALUATE: &str = "core.evaluator.evaluate";
const SOLVE: &str = "core.solver.solve";
const SOLVE_SHARDED: &str = "core.sharding.solve_sharded";
/// Every span that times a shadow of an in-loop stage.
const SHADOW_SPANS: [&str; 8] = [
    FLEET_ADVANCE,
    MANET_ADVANCE,
    MANET_QUERY,
    PROBE_SCAN,
    TRAFFIC_TICK,
    EVALUATE,
    SOLVE,
    SOLVE_SHARDED,
];

/// What one run hands back.
pub struct Outcome {
    /// End-to-end metrics (untraced) or per-layer metrics (traced);
    /// the sim end-to-end metrics are in both.
    pub metrics: Metrics,
    /// The scorecard's JSON text, for the traced-vs-untraced identity
    /// check.
    pub scorecard: String,
    /// Correctness checks on this run's world.
    pub checks: Checks,
    /// Σ wall spent inside the live `run_until`, seconds.
    pub run_until_wall_s: f64,
    /// The spans (traced run only).
    pub trace: Option<Trace>,
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Parse + validate + build + fast-forward the powered-down night.
fn set_up(w: &Workload, seed: u64) -> (ScenarioSpec, Orchestrator) {
    let spec = w.spec(seed);
    let mut o = spec.build();
    o.run_until(WINDOW_START);
    (spec, o)
}

/// The sim end-to-end metrics, straight off the scorecard.
fn sim_metrics(m: &mut Metrics, sc: &Scorecard) {
    m.set("goodput", sc.goodput.unwrap_or(0.0));
    m.set("data_availability", sc.data_availability.unwrap_or(0.0));
    m.set("recovery_p95_s", sc.recovery_p95_s.unwrap_or(0.0));
}

/// The untraced run: end-to-end metrics only, nothing else in the
/// process.
pub fn run_untraced(w: &Workload, seed: u64, steps: u32, setups: usize) -> Outcome {
    let mut setup_s = Vec::with_capacity(setups);
    let mut world = None;
    for _ in 0..setups {
        // Free the previous world first, so each set-up (and the
        // peak-RSS reading) sees one world, not two.
        drop(world.take());
        let t = Instant::now();
        world = Some(set_up(w, seed));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let (spec, mut o) = world.expect("at least one set-up");

    let mut step_ms = Vec::with_capacity(steps as usize);
    for _ in 0..steps {
        let t = Instant::now();
        o.run_until(o.now() + STEP);
        step_ms.push(ms_since(t));
    }
    let wall_s = step_ms.iter().sum::<f64>() / 1e3;
    let sim_s = STEP.as_secs_f64() * steps as f64;

    let sc = scorecard(&spec, &o);
    let rss_mb = host::peak_rss_mb();
    let handoffs = o.handoff_log.len();
    let stale = settle(&mut o);
    let checks = Checks::on_world(w, &spec, &sc, stale, handoffs, steps == w.steps);
    let mut m = Metrics::default();
    m.set_n("setup_s", pct(&setup_s, 50.0), setups);
    m.set_n("realtime_factor", ratio(sim_s, wall_s), step_ms.len());
    m.set_n("step_p50_ms", pct(&step_ms, 50.0), step_ms.len());
    m.set_n("step_p95_ms", pct(&step_ms, 95.0), step_ms.len());
    m.set("peak_rss_mb", rss_mb);
    sim_metrics(&mut m, &sc);
    Outcome {
        metrics: m,
        scorecard: sc.to_json(),
        checks,
        run_until_wall_s: wall_s,
        trace: None,
    }
}

/// A `ManetHarness<Batman>` with the live world's nodes, gateways and
/// RNG stream, whose edge set follows the open, established records of
/// the live link ledger. The orchestrator applies the same
/// `set_link(a, b, 0.95)` / `remove_link` calls between the same mesh
/// advances, so this twin does the live mesh's work message for
/// message.
struct MeshMirror {
    manet: ManetHarness<Batman>,
    /// Ledger records already picked up.
    seen: usize,
    /// Picked-up records that have not ended yet.
    open: Vec<usize>,
    /// Records currently mirrored as a mesh edge.
    up: BTreeSet<usize>,
}

impl MeshMirror {
    fn new(fleet: &Fleet, streams: &RngStreams) -> Self {
        let mut batman = Batman::new();
        for gs in &fleet.ground_stations {
            batman.set_gateway(gs.id, true);
        }
        let mut manet = ManetHarness::new(batman, streams);
        for (id, _) in fleet.platform_ids() {
            manet.add_node(id);
        }
        MeshMirror {
            manet,
            seen: 0,
            open: Vec::new(),
            up: BTreeSet::new(),
        }
    }

    /// Apply every establishment and end the ledger has recorded
    /// since the last call, in event-time order.
    fn sync(&mut self, records: &[LinkRecord]) {
        self.open.extend(self.seen..records.len());
        self.seen = records.len();
        let mut events: Vec<(SimTime, bool, PlatformId, PlatformId)> = Vec::new();
        let up = &mut self.up;
        self.open.retain(|&i| {
            let r = &records[i];
            let (a, b) = (r.a.platform, r.b.platform);
            if let Some(at) = r.established {
                if r.ended.is_none_or(|end| end > at) && up.insert(i) {
                    events.push((at, true, a, b));
                }
            }
            match r.ended {
                Some(at) => {
                    if up.remove(&i) {
                        events.push((at, false, a, b));
                    }
                    false
                }
                None => true,
            }
        });
        events.sort_by_key(|e| (e.0, e.1));
        for (_, install, a, b) in events {
            if install {
                self.manet.set_link(a, b, 0.95);
            } else {
                self.manet.remove_link(a, b);
            }
        }
    }
}

/// The shadow layers the traced run drives beside the live world.
struct Shadows {
    balloons: Vec<PlatformId>,
    platforms: Vec<PlatformId>,
    fleet: Fleet,
    mesh: MeshMirror,
    traffic: Option<TrafficEngine>,
    last_traffic: SimTime,
    next_probe: SimTime,
}

impl Shadows {
    fn new(o: &Orchestrator) -> Self {
        let streams = RngStreams::new(o.config.seed);
        let mut fleet = Fleet::generate(o.config.fleet.clone(), &streams);
        fleet.advance_to(o.now());
        let balloons: Vec<PlatformId> = fleet
            .platform_ids()
            .filter(|(_, k)| *k == PlatformKind::Balloon)
            .map(|(id, _)| id)
            .collect();
        let mut mesh = MeshMirror::new(&fleet, &streams);
        mesh.sync(o.ledger.records());
        mesh.manet.run_until(o.now());
        let traffic = o
            .traffic()
            .map(|live| TrafficEngine::new(*live.config(), &balloons, &streams));
        Shadows {
            platforms: fleet.platform_ids().map(|(id, _)| id).collect(),
            balloons,
            fleet,
            mesh,
            traffic,
            last_traffic: o.now(),
            // The loop probes whenever `now >= next_probe`, so its
            // first probe inside the window is on the first sub-step.
            next_probe: o.now(),
        }
    }

    /// The forwarding state the live loop would hand its engine,
    /// rebuilt from public state: paths as the loop traces them,
    /// capacity from each established intent's modelled margin (the
    /// loop uses the true margin, which is private), eligibility from
    /// power and loss windows.
    fn topology_view(&self, o: &Orchestrator) -> TopologyView {
        let mut view = TopologyView::default();
        for &b in &self.balloons {
            if o.fleet().payload_powered(b) && !o.chaos.platform_dark(b) {
                view.eligible.insert(b);
            }
            if o.chaos.balloon_lost(b) {
                view.dead.insert(b);
            }
            match (o.active_path(b), o.active_alt_path(b)) {
                (Some(p), Some(a)) => {
                    if a != p {
                        view.alt_paths.insert(b, a);
                    }
                    view.paths.insert(b, p);
                }
                (Some(p), None) | (None, Some(p)) => {
                    view.paths.insert(b, p);
                }
                (None, None) => {}
            }
        }
        for i in o.intents.established() {
            let (x, y) = (i.link.a.platform, i.link.b.platform);
            *view
                .link_capacity_bps
                .entry((x.min(y), x.max(y)))
                .or_default() += (tssdn_rf::capacity_mbps(i.link.margin_db) * 1e6) as u64;
        }
        view.custody = o.custody_designations().clone();
        view
    }

    /// The per-tick shadow work, after the live world reached
    /// `o.now()`.
    fn tick(&mut self, o: &Orchestrator, trace: &mut Trace, root: u32, step: u32) {
        let now = o.now();

        let id = trace.open(Some(root), step, FLEET_ADVANCE);
        self.fleet.advance_to(now);
        trace.close(id, &[]);

        let id = trace.open(Some(root), step, MANET_ADVANCE);
        let before = self.mesh.manet.overhead();
        self.mesh.sync(o.ledger.records());
        self.mesh.manet.run_until(now);
        let after = self.mesh.manet.overhead();
        trace.close(
            id,
            &[
                ("msgs", after.messages - before.messages),
                ("bytes", after.bytes - before.bytes),
            ],
        );

        // What `update_manet` asks of the mesh for every balloon.
        let id = trace.open(Some(root), step, MANET_QUERY);
        let manet = &self.mesh.manet;
        let mut reachable = 0;
        for &b in &self.balloons {
            if let Some(gw) = manet.protocol().selected_gateway(b) {
                if manet.route_works(b, gw) {
                    reachable += 1;
                    black_box(manet.route_path(b, gw));
                }
            }
        }
        trace.close(
            id,
            &[
                ("reachable", reachable),
                ("links", manet.topology().num_links() as u64),
            ],
        );

        if now < self.next_probe {
            return;
        }
        self.next_probe = now + o.config.probe_interval;

        let id = trace.open(Some(root), step, PROBE_SCAN);
        for &b in &self.balloons {
            black_box(o.data_plane_status(b));
            black_box(o.active_path(b));
        }
        let entries: usize = self
            .platforms
            .iter()
            .filter_map(|&p| o.fabric.table(p))
            .map(|t| t.len() + t.alt_len())
            .sum();
        trace.close(id, &[("route_entries", entries as u64)]);

        // Taken out for the tick so the view can borrow the rest.
        if let Some(mut engine) = self.traffic.take() {
            let id = trace.open(Some(root), step, TRAFFIC_TICK);
            let view = self.topology_view(o);
            let dt = now.since(self.last_traffic);
            self.last_traffic = now;
            let s = engine.tick(now, dt, &view);
            self.traffic = Some(engine);
            trace.close(
                id,
                &[
                    ("flows", s.flows_active as u64),
                    ("rebuilt", s.topology_rebuilt as u64),
                ],
            );
        }
    }

    /// The per-step planner replay, on the inputs `solve_and_actuate`
    /// would use: live intent keys as the previous topology, tunnel
    /// gateways, the drain registry, the solver's current penalties.
    fn plan(&self, o: &Orchestrator, trace: &mut Trace, root: u32, step: u32) {
        let id = trace.open(Some(root), step, EVALUATE);
        let graph = o
            .evaluator()
            .evaluate(o.network_model(), o.now() + o.config.plan_lead);
        trace.close(id, &[("candidates", graph.len() as u64)]);

        let sharded = o.config.sharding.num_regions > 1;
        let id = trace.open(
            Some(root),
            step,
            if sharded { SOLVE_SHARDED } else { SOLVE },
        );
        let previous: BTreeSet<_> = o.intents.live().map(|i| i.key()).collect();
        let tunnels = &o.tunnels;
        let gw = |ec: PlatformId| tunnels.gateways_to(ec);
        let requests = o.backhaul_requests();
        let plan = if sharded {
            solve_sharded(
                o.solver(),
                &o.regions,
                &graph,
                requests,
                &gw,
                &previous,
                &o.drains,
                o.now(),
            )
        } else {
            o.solver()
                .solve(&graph, requests, &gw, &previous, &o.drains, o.now())
        };
        trace.close(
            id,
            &[
                ("selected", plan.all_links().count() as u64),
                ("unsatisfied", plan.unsatisfied.len() as u64),
            ],
        );
    }
}

/// Median wall, in `unit_per_s` units, of `repeats` calls of `f`.
fn median_wall<T>(repeats: usize, unit_per_s: f64, mut f: impl FnMut() -> T) -> f64 {
    let samples: Vec<f64> = (0..repeats)
        .map(|_| {
            let t = Instant::now();
            black_box(f());
            t.elapsed().as_secs_f64() * unit_per_s
        })
        .collect();
    pct(&samples, 50.0)
}

/// The traced run: per-layer metrics, spans kept in memory.
pub fn run_traced(w: &Workload, seed: u64, steps: u32, repeats: usize) -> Outcome {
    let parse_us = median_wall(repeats, 1e6, || {
        ScenarioSpec::from_json(black_box(w.spec_json()))
    });
    let spec = w.spec(seed);
    let build_ms = median_wall(repeats, 1e3, || spec.build());
    let mut o = spec.build();
    o.run_until(WINDOW_START);
    let mut shadows = Shadows::new(&o);

    let sub_steps = STEP.as_ms() / o.config.tick.as_ms();
    let mut trace = Trace::new();
    let cpu0 = host::cpu_seconds();
    let t0 = Instant::now();
    for step in 0..steps {
        let root = trace.open(None, step, "step");
        for _ in 0..sub_steps {
            let id = trace.open(Some(root), step, RUN_UNTIL);
            o.run_until(o.now() + o.config.tick);
            trace.close(id, &[]);
            shadows.tick(&o, &mut trace, root, step);
        }
        shadows.plan(&o, &mut trace, root, step);
        trace.close(
            root,
            &[
                ("intents_total", o.intents.all().count() as u64),
                ("intents_live", o.intents.live().count() as u64),
                ("faults_active", o.chaos.any_active() as u64),
            ],
        );
    }
    let window_wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = host::cpu_seconds() - cpu0;

    let scorecard_us = median_wall(repeats, 1e6, || scorecard(&spec, &o));
    let sc = scorecard(&spec, &o);

    let n_steps = steps as usize;
    let live_per_step = trace.self_ms_per_step(RUN_UNTIL, n_steps);
    let live_ms: f64 = live_per_step.iter().sum();
    let sim_s = STEP.as_secs_f64() * steps as f64;
    let mut m = Metrics::default();
    // Σ self time of shadow spans as a share of the live wall: the
    // estimate of what those stages cost inside `run_until`.
    let share = |names: &[&str]| {
        let ms: f64 = names.iter().flat_map(|n| trace.self_ms(n)).sum();
        ratio(ms, live_ms)
    };

    let advance = trace.self_ms(MANET_ADVANCE);
    let advance_ms: f64 = advance.iter().sum();
    let msgs = trace.count(MANET_ADVANCE, "msgs");
    let queries = trace.self_ms(MANET_QUERY);
    m.set_n(
        "manet.advance_ms_per_sim_s",
        ratio(advance_ms, sim_s),
        advance.len(),
    );
    m.set("manet.msgs_per_sim_s", ratio(msgs as f64, sim_s));
    m.set(
        "manet.bytes_per_sim_s",
        ratio(trace.count(MANET_ADVANCE, "bytes") as f64, sim_s),
    );
    m.set("manet.ns_per_msg", ratio(advance_ms * 1e6, msgs as f64));
    m.set(
        "manet.links",
        ratio(
            trace.count(MANET_QUERY, "links") as f64,
            queries.len() as f64,
        ),
    );
    m.set_n(
        "manet.route_query_us",
        pct(&queries, 50.0) * 1e3,
        queries.len(),
    );
    m.set(
        "manet.reachable_ratio",
        ratio(
            trace.count(MANET_QUERY, "reachable") as f64,
            (queries.len() * shadows.balloons.len()) as f64,
        ),
    );
    m.set("manet.wall_share", share(&[MANET_ADVANCE, MANET_QUERY]));

    // Growth over the run: Σ step wall of the window's last third over
    // its first third. Only a whole number of days keeps the thirds on
    // the same hours of the day; elsewhere the ratio would compare
    // dawn with dusk, so it is not reported.
    let whole_days = n_steps >= 3 * 1440 && n_steps.is_multiple_of(3 * 1440);
    let third = n_steps / 3;
    m.set(
        "core.orchestrator.day3_over_day1",
        if whole_days {
            ratio(
                live_per_step[n_steps - third..].iter().sum(),
                live_per_step[..third].iter().sum(),
            )
        } else {
            0.0
        },
    );
    m.set(
        "core.orchestrator.intents_total",
        o.intents.all().count() as f64,
    );
    m.set(
        "core.orchestrator.intents_live",
        ratio(trace.count("step", "intents_live") as f64, steps as f64),
    );
    let probes = trace.self_ms(PROBE_SCAN);
    m.set_n(
        "core.orchestrator.probe_scan_us",
        pct(&probes, 50.0) * 1e3,
        probes.len(),
    );

    let evals = trace.self_ms(EVALUATE);
    let candidates = trace.count(EVALUATE, "candidates");
    m.set_n("core.evaluator.evaluate_ms", pct(&evals, 50.0), evals.len());
    m.set_n(
        "core.evaluator.evaluate_p95_ms",
        pct(&evals, 95.0),
        evals.len(),
    );
    m.set(
        "core.evaluator.candidates",
        ratio(candidates as f64, evals.len() as f64),
    );
    m.set(
        "core.evaluator.ns_per_candidate",
        ratio(evals.iter().sum::<f64>() * 1e6, candidates as f64),
    );
    m.set("core.evaluator.wall_share", share(&[EVALUATE]));

    // The plan solve as the loop runs it: global, or sharded when the
    // spec has more than one region.
    let sharded = trace.self_ms(SOLVE_SHARDED);
    let solve_name = if sharded.is_empty() {
        SOLVE
    } else {
        SOLVE_SHARDED
    };
    let solves = trace.self_ms(solve_name);
    m.set_n("core.solver.solve_ms", pct(&solves, 50.0), solves.len());
    m.set_n("core.solver.solve_p95_ms", pct(&solves, 95.0), solves.len());
    m.set(
        "core.solver.selected_links",
        ratio(
            trace.count(solve_name, "selected") as f64,
            solves.len() as f64,
        ),
    );
    m.set(
        "core.solver.unsatisfied_requests",
        ratio(
            trace.count(solve_name, "unsatisfied") as f64,
            solves.len() as f64,
        ),
    );
    m.set("core.solver.wall_share", share(&[SOLVE, SOLVE_SHARDED]));
    m.set_n(
        "core.sharding.solve_sharded_ms",
        pct(&sharded, 50.0),
        sharded.len(),
    );
    m.set("core.sharding.handoffs", o.handoff_log.len() as f64);
    let census = o.regions.census();
    let owned: u64 = census.iter().map(|(_, n)| n).sum();
    m.set(
        "core.sharding.region_imbalance",
        ratio(
            census.iter().map(|(_, n)| *n).max().unwrap_or(0) as f64 * census.len() as f64,
            owned as f64,
        ),
    );

    let ticks = trace.self_ms(TRAFFIC_TICK);
    let flows = trace.count(TRAFFIC_TICK, "flows");
    m.set_n("traffic.tick_us", pct(&ticks, 50.0) * 1e3, ticks.len());
    m.set_n("traffic.tick_p95_us", pct(&ticks, 95.0) * 1e3, ticks.len());
    m.set(
        "traffic.ns_per_flow",
        ratio(ticks.iter().sum::<f64>() * 1e6, flows as f64),
    );
    m.set(
        "traffic.flows_active",
        ratio(flows as f64, ticks.len() as f64),
    );
    m.set(
        "traffic.rebuild_ratio",
        ratio(
            trace.count(TRAFFIC_TICK, "rebuilt") as f64,
            ticks.len() as f64,
        ),
    );
    m.set("traffic.wall_share", share(&[TRAFFIC_TICK]));

    m.set(
        "dataplane.route_entries",
        ratio(
            trace.count(PROBE_SCAN, "route_entries") as f64,
            probes.len() as f64,
        ),
    );
    let snf = o.traffic().map(|e| e.snf_totals()).unwrap_or_default();
    m.set("dataplane.snf_queued_bits", snf.queued_bits as f64);
    m.set(
        "dataplane.snf_evicted_ratio",
        ratio(snf.evicted_bits as f64, snf.queued_bits as f64),
    );
    m.set(
        "dataplane.custody_accepted_ratio",
        ratio(
            snf.custody_accepted_bits as f64,
            snf.custody_initiated_bits as f64,
        ),
    );

    let enact = o.cdpi.records();
    let enact_s: Vec<f64> = enact.iter().map(|r| r.elapsed_s()).collect();
    m.set("cpl.enactments", enact.len() as f64);
    m.set_n("cpl.enact_p50_s", pct(&enact_s, 50.0), enact.len());
    m.set(
        "cpl.satcom_share",
        ratio(
            enact.iter().filter(|r| r.used_satcom).count() as f64,
            enact.len() as f64,
        ),
    );
    m.set("cpl.dedup_suppressed", o.cdpi.dedup_suppressed as f64);

    let links = o.ledger.records();
    let established = links.iter().filter(|r| r.established.is_some());
    let ended: Vec<&LinkRecord> = established.clone().filter(|r| r.ended.is_some()).collect();
    m.set("link.intents", links.len() as f64);
    m.set(
        "link.attempts",
        links.iter().map(|r| r.attempts as u64).sum::<u64>() as f64,
    );
    m.set(
        "link.establish_ratio",
        ratio(established.count() as f64, links.len() as f64),
    );
    m.set(
        "link.unexpected_end_ratio",
        ratio(
            ended
                .iter()
                .filter(|r| r.end_reason.is_some_and(|e| !e.is_planned()))
                .count() as f64,
            ended.len() as f64,
        ),
    );

    let fleet_ticks = trace.self_ms(FLEET_ADVANCE);
    m.set_n(
        "sim.fleet_advance_us",
        pct(&fleet_ticks, 50.0) * 1e3,
        fleet_ticks.len(),
    );

    m.set("fault.windows", o.config.fault_plan.windows.len() as f64);
    m.set(
        "fault.active_step_share",
        ratio(trace.count("step", "faults_active") as f64, steps as f64),
    );

    m.set_n("scenario.parse_us", parse_us, repeats);
    m.set_n("scenario.build_ms", build_ms, repeats);
    m.set_n("scenario.scorecard_us", scorecard_us, repeats);
    m.set("host.cpu_over_wall", ratio(cpu_s, window_wall_s));

    // The remainder has no public entry point to time from outside.
    m.set(
        "core.orchestrator.unattributed_share",
        1.0 - share(&SHADOW_SPANS),
    );
    sim_metrics(&mut m, &sc);

    // Last, because it moves the world past the window's end.
    let handoffs = o.handoff_log.len();
    let stale = settle(&mut o);
    let checks = Checks::on_world(w, &spec, &sc, stale, handoffs, steps == w.steps);
    Outcome {
        metrics: m,
        scorecard: sc.to_json(),
        checks,
        run_until_wall_s: live_ms / 1e3,
        trace: Some(trace),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{Domain, END_TO_END};
    use crate::report::contract_metrics;
    use crate::workload::WORKLOADS;

    /// One real step of every workload, both ways. (Debug build: the
    /// timings are not looked at, only that they exist.)
    #[test]
    fn one_step_of_every_workload_runs_traced_and_untraced_alike() {
        for w in &WORKLOADS {
            let u = run_untraced(w, 3, 1, 1);
            let t = run_traced(w, 3, 1, 1);

            // Sub-stepping on tick multiples is bit-identical to one
            // long call, so the two worlds score alike.
            assert_eq!(u.scorecard, t.scorecard, "{}", w.name);
            assert_eq!((u.checks.failed(), t.checks.failed()), (0, 0), "{}", w.name);
            assert_eq!(
                u.checks.attempted, 5,
                "a one-step window skips the sanity checks"
            );

            // Each run measured exactly the metrics its kind reports
            // (`ops_failed_share` is added where the checks end up).
            let names = |o: &Outcome| -> Vec<&str> { o.metrics.0.iter().map(|m| m.name).collect() };
            let mut want: Vec<&str> = END_TO_END
                .iter()
                .filter(|(d, _)| d.domain != Domain::Both)
                .map(|(d, _)| d.name)
                .collect();
            assert_eq!(names(&u), want, "{}", w.name);
            want = contract_metrics(true).iter().map(|d| d.name).collect();
            let mut got = names(&t);
            got.sort_unstable();
            want.sort_unstable();
            assert_eq!(got, want, "{}", w.name);
            for m in u.metrics.0.iter().chain(&t.metrics.0) {
                // The unattributed share is a remainder of estimates:
                // over one cold step the shadows can outweigh the loop.
                let remainder = m.name == "core.orchestrator.unattributed_share";
                assert!(m.value.is_finite(), "{} {m:?}", w.name);
                assert!(m.value >= 0.0 || remainder, "{} {m:?}", w.name);
            }
            assert!(u.run_until_wall_s > 0.0 && t.run_until_wall_s > 0.0);

            // The trace: one root, twelve live sub-steps under it,
            // every shadow a child of the root, self times adding up
            // to the root's duration.
            let trace = t.trace.as_ref().expect("traced run keeps its spans");
            assert_eq!(trace.self_ms("step").len(), 1);
            assert_eq!(trace.self_ms(RUN_UNTIL).len(), 12);
            assert_eq!(trace.self_ms(MANET_ADVANCE).len(), 12);
            assert_eq!(trace.self_ms(EVALUATE).len(), 1);
            let jsonl = trace.to_jsonl();
            let first = jsonl.lines().next().unwrap();
            assert!(
                first.starts_with("{\"id\": 0, \"parent\": null, \"step\": 0, \"name\": \"step\"")
            );
            assert!(jsonl.lines().skip(1).all(|l| l.contains("\"parent\": 0,")));
            assert_eq!(jsonl.lines().count(), trace.self_ns().len());
        }
    }

    /// The mirror follows the ledger: up on establishment, down on
    /// end, nothing for a link that never came up.
    #[test]
    fn mesh_mirror_tracks_open_established_records() {
        use tssdn_link::{EndReason, LinkKind, LinkLedger, TransceiverId};
        use tssdn_sim::FleetConfig;

        let streams = RngStreams::new(1);
        let fleet = Fleet::generate(FleetConfig::kenya(3), &streams);
        let mut mirror = MeshMirror::new(&fleet, &streams);
        let tid = |p: u32| TransceiverId::new(PlatformId(p), 0);
        let mut ledger = LinkLedger::new();

        let a = ledger.open(tid(0), tid(1), LinkKind::B2B, SimTime::ZERO);
        let never = ledger.open(tid(1), tid(2), LinkKind::B2B, SimTime::ZERO);
        mirror.sync(ledger.records());
        assert_eq!(mirror.manet.topology().num_links(), 0);

        ledger.record_established(a, SimTime::from_secs(30), false);
        ledger.record_end(never, SimTime::from_secs(40), EndReason::SearchExhausted);
        mirror.sync(ledger.records());
        assert!(mirror.manet.topology().linked(PlatformId(0), PlatformId(1)));
        assert_eq!(mirror.manet.topology().num_links(), 1);

        // Up and down inside one sync interval leaves nothing behind.
        let blip = ledger.open(tid(0), tid(2), LinkKind::B2B, SimTime::from_secs(50));
        ledger.record_established(blip, SimTime::from_secs(61), false);
        ledger.record_end(blip, SimTime::from_secs(63), EndReason::RfFade);
        ledger.record_end(a, SimTime::from_secs(62), EndReason::Withdrawn);
        mirror.sync(ledger.records());
        assert_eq!(mirror.manet.topology().num_links(), 0);
        assert!(mirror.open.is_empty() && mirror.up.is_empty());
    }
}
