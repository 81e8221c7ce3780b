//! Chaos soak: the full orchestrator under seeded multi-fault plans.
//!
//! Each plan is generated deterministically from a seed by the fault
//! engine (`tssdn-fault`) and covers the failure modes §2.2/§4
//! describe operationally: ground-site outages, satcom brownouts,
//! in-band partitions, transceiver hardware faults, balloon loss, and
//! command-channel chaos. The soak asserts the robustness contract:
//!
//! * no panics across the whole run (trivially, by finishing);
//! * no permanently stuck intents — every command either enacts,
//!   retries with backoff, or expires within the CDPI attempt budget;
//! * bounded post-fault recovery — service returns after the last
//!   fault window clears;
//! * bit-identical `RunSummary` for repeated runs of the same
//!   `(seed, plan)` pair;
//! * a node cut off from the controller reports *fail-static*
//!   (stale-but-forwarding), not route loss.
//!
//! Worlds are built from `ScenarioSpec`s (`tssdn-scenario`) rather
//! than hand-assembled configs; `spec_builder_matches_hand_built_world`
//! pins the builder to the old construction bit for bit.

use tssdn_core::orchestrator::DataPlaneStatus;
use tssdn_core::{LinkIntentState, Orchestrator, RunSummary};
use tssdn_fault::{FaultKind, FaultPlan};
use tssdn_scenario::{chaos_soak_spec, FaultsSpec, KindSpec, ScenarioSpec, WindowSpec};
use tssdn_sim::{PlatformId, SimDuration, SimTime};
use tssdn_telemetry::Layer;

const N_BALLOONS: usize = 6;

/// The soak's base world as a spec: `kenya(6)` at 150 km with the
/// `kenya_daytime` seeded fault family; traffic and multipath off.
fn base_spec(seed: u64) -> ScenarioSpec {
    chaos_soak_spec("chaos_soak", seed)
}

/// A soak world with no injected faults.
fn quiet_world(seed: u64) -> Orchestrator {
    let mut spec = base_spec(seed);
    spec.faults = FaultsSpec::Quiet;
    spec.build()
}

fn plan_for(seed: u64) -> FaultPlan {
    base_spec(seed).fault_plan()
}

/// Run one seeded plan to `end`, returning the summary.
fn soak_run(seed: u64, end: SimTime) -> (RunSummary, Orchestrator) {
    let mut o = base_spec(seed).build();
    o.run_until(end);
    (o.summary(), o)
}

/// An intent is "stuck" when it has sat in `Commanded` longer than the
/// CDPI could possibly keep trying: max_attempts sends with capped
/// exponential backoff between them all fit comfortably inside an
/// hour, after which the command must have enacted or expired.
fn stuck_intents(o: &Orchestrator) -> Vec<String> {
    let horizon = SimDuration::from_hours(1);
    o.intents
        .live()
        .filter(|i| matches!(i.state, LinkIntentState::Commanded { .. }))
        .filter(|i| o.now().since(i.created) > horizon)
        .map(|i| format!("{} created {} state {:?}", i.id, i.created, i.state))
        .collect()
}

/// The spec builder reproduces the old hand-assembled soak world bit
/// for bit: same `RunSummary`, same chaos log, same traffic counters.
/// This pinned the migration before the copy-pasted construction was
/// deleted — if the builder ever drifts from `kenya(n)` + spawn-radius
/// + `kenya_daytime`, this is the test that says so.
#[test]
fn spec_builder_matches_hand_built_world() {
    use tssdn_core::{OrchestratorConfig, TrafficConfig};
    use tssdn_fault::PlanConfig;

    let seed = 9001u64;
    let end = SimTime::from_hours(14);

    // The old construction, verbatim.
    let gs_ids: Vec<PlatformId> = (N_BALLOONS as u32..N_BALLOONS as u32 + 3)
        .map(PlatformId)
        .collect();
    let mut cfg = OrchestratorConfig::kenya(N_BALLOONS, seed);
    cfg.fleet.spawn_radius_m = 150_000.0;
    cfg.fault_plan =
        FaultPlan::generate(seed, &PlanConfig::kenya_daytime(N_BALLOONS as u32, gs_ids));
    cfg.multipath_routes = true;
    cfg.traffic = Some(TrafficConfig::default());
    let mut old = Orchestrator::new(cfg);
    old.run_until(end);

    // The spec equivalent.
    let mut spec = base_spec(seed);
    spec.multipath = true;
    spec.traffic.enabled = true;
    let mut new = spec.build();
    new.run_until(end);

    assert_eq!(old.summary(), new.summary(), "RunSummary diverged");
    assert_eq!(old.chaos.log, new.chaos.log, "chaos log diverged");
    let so = old.traffic().expect("traffic enabled").series();
    let sn = new.traffic().expect("traffic enabled").series();
    assert_eq!(
        (
            so.offered_bits(),
            so.delivered_bits(),
            so.total_disruptions()
        ),
        (
            sn.offered_bits(),
            sn.delivered_bits(),
            sn.total_disruptions()
        ),
        "traffic counters diverged"
    );
}

/// Five seeded plans: the run completes, the chaos engine fired every
/// scheduled window, and no intent is permanently stuck.
#[test]
fn seeded_plans_soak_clean() {
    for seed in [9001u64, 9002, 9003, 9004, 9005] {
        let plan = plan_for(seed);
        assert!(!plan.windows.is_empty(), "seed {seed}: plan has faults");
        let n_windows = plan.windows.len();
        let last_clear = plan.last_clear().expect("closed windows exist");
        let end = (last_clear + SimDuration::from_hours(1)).max(SimTime::from_hours(14));
        let (summary, o) = soak_run(seed, end);

        // Every scheduled window opened (and, where closed, cleared).
        let started = o
            .chaos
            .log
            .iter()
            .filter(|t| matches!(t, tssdn_fault::FaultTransition::Started { .. }))
            .count();
        assert_eq!(started, n_windows, "seed {seed}: all fault windows fired");

        let stuck = stuck_intents(&o);
        assert!(stuck.is_empty(), "seed {seed}: stuck intents: {stuck:?}");

        // The network did real work despite the faults.
        assert!(summary.intents_created > 0, "seed {seed}: {summary:?}");
        assert!(summary.links_established > 0, "seed {seed}: {summary:?}");
    }
}

/// Bit-identical repeated runs: same seed + same plan ⇒ the same
/// `RunSummary`, the same ledger, and the same chaos/control-plane
/// counters. Chaos draws come from dedicated RNG streams, so the
/// whole closed loop stays deterministic.
#[test]
fn repeated_runs_are_bit_identical() {
    for seed in [9001u64, 9004] {
        let end = SimTime::from_hours(14);
        let (s1, o1) = soak_run(seed, end);
        let (s2, o2) = soak_run(seed, end);
        assert_eq!(s1, s2, "seed {seed}: RunSummary differs between runs");
        assert_eq!(
            o1.ledger.records().len(),
            o2.ledger.records().len(),
            "seed {seed}: ledger diverged"
        );
        assert_eq!(
            o1.chaos.log, o2.chaos.log,
            "seed {seed}: chaos log diverged"
        );
        assert_eq!(
            (
                o1.cdpi.satcom.sent,
                o1.cdpi.satcom.brownout_lost,
                o1.cdpi.dedup_suppressed
            ),
            (
                o2.cdpi.satcom.sent,
                o2.cdpi.satcom.brownout_lost,
                o2.cdpi.dedup_suppressed
            ),
            "seed {seed}: control-plane counters diverged"
        );
    }
}

/// Bounded recovery: an hour after the last fault window clears, the
/// mesh is carrying traffic again.
#[test]
fn service_recovers_after_the_last_fault_clears() {
    let seed = 9003u64;
    let plan = plan_for(seed);
    let last_clear = plan.last_clear().expect("closed windows");
    let end = (last_clear + SimDuration::from_hours(1)).max(SimTime::from_hours(14));
    let (_, o) = soak_run(seed, end);
    let up = (0..N_BALLOONS as u32)
        .filter(|b| o.data_plane_status(PlatformId(*b)) == DataPlaneStatus::Up)
        .count();
    assert!(
        up > 0,
        "post-fault recovery: {up}/{N_BALLOONS} balloons up at {}",
        o.now()
    );
    let dp = o.availability.overall(Layer::DataPlane);
    assert!(
        dp.map(|a| a > 0.0).unwrap_or(false),
        "data plane saw uptime: {dp:?}"
    );
}

/// Fail-static: partitioning a programmed balloon from the in-band
/// control plane leaves it forwarding on its last routes — status
/// `FailStatic`, not a route loss — and the stale-forwarding time
/// shows up in the `DataPlaneStale` availability layer.
#[test]
fn partitioned_node_reports_fail_static() {
    let mut found = false;
    for seed in [501u64, 502, 503] {
        let mut o = quiet_world(seed);
        o.run_until(SimTime::from_hours(11));
        let programmed: Vec<PlatformId> = (0..N_BALLOONS as u32)
            .map(PlatformId)
            .filter(|b| o.data_plane_status(*b) == DataPlaneStatus::Up)
            .collect();
        if programmed.is_empty() {
            continue;
        }
        o.chaos.force_start(
            FaultKind::InbandPartition {
                nodes: programmed.clone(),
            },
            o.now(),
        );
        o.run_until(o.now() + SimDuration::from_mins(2));
        for b in &programmed {
            let st = o.data_plane_status(*b);
            assert_ne!(
                st,
                DataPlaneStatus::Up,
                "{b:?} cannot be Up while partitioned"
            );
            if st == DataPlaneStatus::FailStatic {
                found = true;
                assert!(
                    !o.cdpi.inband.is_reachable(*b, o.now()),
                    "fail-static implies control-plane cut"
                );
            }
        }
        if found {
            let stale = o.availability.overall(Layer::DataPlaneStale);
            assert!(
                stale.map(|a| a > 0.0).unwrap_or(false),
                "stale-forwarding time recorded: {stale:?}"
            );
            break;
        }
    }
    assert!(found, "no seed produced a fail-static balloon");
}

/// Traffic under chaos (E16): with the flow-level engine enabled, the
/// mesh still delivers real bits through the fault plans, goodput
/// stays a valid ratio, the engine's disruption counter catches at
/// least one path torn under load across the plan family, and the
/// delivered-bits / disruption totals are bit-identical on a rerun.
#[test]
fn traffic_delivers_under_chaos_and_counts_disruptions() {
    let traffic_soak = |seed: u64| {
        let mut spec = base_spec(seed);
        spec.traffic.enabled = true;
        let end = (spec.fault_plan().last_clear().expect("closed windows")
            + SimDuration::from_hours(1))
        .max(SimTime::from_hours(14));
        let mut o = spec.build();
        o.run_until(end);
        let s = o.traffic().expect("traffic enabled").series();
        (s.offered_bits(), s.delivered_bits(), s.total_disruptions())
    };

    let mut disruptions_total = 0u64;
    for seed in [9001u64, 9002, 9003] {
        let (offered, delivered, disruptions) = traffic_soak(seed);
        assert!(offered > 0, "seed {seed}: demand offered during the soak");
        assert!(delivered > 0, "seed {seed}: bits delivered despite chaos");
        assert!(delivered <= offered, "seed {seed}: goodput is a ratio");
        disruptions_total += disruptions;
    }
    assert!(
        disruptions_total > 0,
        "some fault window tore a path while it carried load"
    );

    // Rerun determinism extends to the traffic counters.
    assert_eq!(
        traffic_soak(9001),
        traffic_soak(9001),
        "traffic counters diverged on rerun"
    );
}

/// Multipath + store-and-forward under chaos (E18 riding the E16 plan
/// family). One soak pins all three PR bugfixes plus the buffering
/// contract:
///
/// * no stale alternate routes survive redundancy loss — the
///   orchestrator's alt-withdrawal pass leaves `stale_alt_flows()`
///   empty at end of run;
/// * alternates ride the primary's combined SetRoutes program — the
///   piggyback counter fires instead of the old deferral workaround;
/// * control-class goodput stays ≥ 0.99 whenever the class was
///   offered at all: routeless windows are availability losses on the
///   site series, never a priority failure on the class series;
/// * buffered bulk bits are conserved — every queued bit is drained,
///   evicted, or still resident (no leaks) — and cumulative delivered
///   never exceeds offered;
/// * all of it bit-identical on a rerun.
#[test]
fn multipath_snf_soak_holds_bugfix_invariants() {
    use tssdn_telemetry::ServiceClass;
    use tssdn_traffic::SnfTotals;

    let soak = |seed: u64| -> (u64, u64, SnfTotals, u64) {
        let mut spec = base_spec(seed);
        spec.multipath = true;
        spec.traffic.enabled = true;
        let end = (spec.fault_plan().last_clear().expect("closed windows")
            + SimDuration::from_hours(1))
        .max(SimTime::from_hours(14));
        let mut o = spec.build();
        o.run_until(end);

        let stale = o.stale_alt_flows();
        assert!(stale.is_empty(), "seed {seed}: stale alt routes: {stale:?}");

        let e = o.traffic().expect("traffic enabled");
        let s = e.series();
        if let Some(g) = s.class_goodput(ServiceClass::Control) {
            assert!(
                g >= 0.99,
                "seed {seed}: control class dipped to {g} despite strict priority"
            );
        }

        let t = e.snf_totals();
        assert_eq!(
            t.queued_bits,
            t.drained_bits + t.evicted_bits + t.buffered_bits + t.in_transit_bits,
            "seed {seed}: buffered bits leaked: {t:?}"
        );
        assert!(
            s.delivered_bits() <= s.offered_bits(),
            "seed {seed}: goodput is a ratio even with drains"
        );
        (
            s.offered_bits(),
            s.delivered_bits(),
            t,
            o.alt_programs_piggybacked,
        )
    };

    let mut queued_total = 0u64;
    let mut piggybacked_total = 0u64;
    let mut first = None;
    for seed in [9001u64, 9002, 9003] {
        let r = soak(seed);
        assert!(r.0 > 0, "seed {seed}: demand offered");
        assert!(r.1 > 0, "seed {seed}: bits delivered despite chaos");
        queued_total += r.2.queued_bits;
        piggybacked_total += r.3;
        if seed == 9001 {
            first = Some(r);
        }
    }
    assert!(
        queued_total > 0,
        "some blackhole window should have buffered bulk bits"
    );
    assert!(
        piggybacked_total > 0,
        "alternates should ride combined SetRoutes programs"
    );

    // Rerun determinism covers the buffer counters too.
    assert_eq!(
        soak(9001),
        first.expect("seed 9001 ran"),
        "soak diverged on rerun"
    );
}

/// Custody transfer under a directed fault plan (E19's mechanism in
/// the full closed loop). A 25-minute total ground blackout builds a
/// backlog on every site; balloon 1 is lost abruptly mid-blackout
/// (its backlog dies with it — the loss custody exists to prevent),
/// while balloon 0's loss is *warned* eight minutes ahead, so the
/// orchestrator designates a custodian and the doomed balloon pushes
/// its backlog out over a lateral link before the window lands. The
/// run is stepped in one-minute increments so the engine's per-tick
/// conservation debug-assert is exercised at a fine grain, and the
/// whole thing must replay bit-identically.
#[test]
fn warned_balloon_loss_hands_custody_of_its_backlog() {
    let blackout_min = 10 * 60u64;
    let directed = || {
        let mut windows: Vec<WindowSpec> = (N_BALLOONS as u32..N_BALLOONS as u32 + 3)
            .map(|site| WindowSpec {
                start_min: blackout_min,
                duration_mins: Some(25),
                kind: KindSpec::GsOutage { site },
            })
            .collect();
        windows.push(WindowSpec {
            start_min: blackout_min + 10,
            duration_mins: Some(30),
            kind: KindSpec::BalloonLoss { balloon: 1 },
        });
        windows.push(WindowSpec {
            start_min: blackout_min + 20,
            duration_mins: Some(40),
            kind: KindSpec::BalloonLossWarned {
                balloon: 0,
                lead_mins: 8,
            },
        });
        FaultsSpec::Directed(windows)
    };

    let soak = |seed: u64| {
        let mut spec = base_spec(seed);
        spec.faults = directed();
        spec.traffic.enabled = true;
        let mut o = spec.build();
        // Fine-grained stepping: the engine debug-asserts the
        // extended conservation invariant at every tick boundary.
        let end = SimTime::from_hours(12);
        while o.now() < end {
            o.run_until(o.now() + SimDuration::from_mins(1));
        }
        let e = o.traffic().expect("traffic enabled");
        let t = e.snf_totals();
        assert_eq!(
            t.queued_bits,
            t.drained_bits + t.evicted_bits + t.buffered_bits + t.in_transit_bits,
            "seed {seed}: bits leaked: {t:?}"
        );
        (t, o.custody_intents_issued, o.summary())
    };

    let (t, intents, summary) = soak(31);
    assert!(
        t.backlog_lost_bits > 0,
        "the abrupt loss wipes balloon 1's backlog: {t:?}"
    );
    assert!(intents > 0, "the warning produced a custody designation");
    assert!(
        t.custody_initiated_bits > 0,
        "the warned balloon pushed bits out: {t:?}"
    );
    assert!(
        t.custody_accepted_bits > 0,
        "a custodian took the bits: {t:?}"
    );
    assert_eq!(
        t.custody_initiated_bits,
        t.custody_accepted_bits + t.custody_refused_bits + t.custody_lost_bits + t.in_transit_bits,
        "custody ledger closes: {t:?}"
    );
    // Rerun determinism covers the custody counters.
    assert_eq!(soak(31), (t, intents, summary), "soak diverged on rerun");
}

/// A directed (unplanned) outage goes through the chaos engine like a
/// planned one: flipping a site dark and back again leaves a start +
/// clear pair in the log.
#[test]
fn forced_gs_outage_is_logged_by_the_engine() {
    let mut o = quiet_world(77);
    let gs = base_spec(77).gs_ids()[0];
    o.run_until(SimTime::from_hours(9));
    let now = o.now();
    o.chaos.force_start(FaultKind::GsOutage { site: gs }, now);
    assert!(o.chaos.gs_dark(gs));
    o.run_until(o.now() + SimDuration::from_mins(5));
    let now = o.now();
    o.chaos.force_clear(
        now,
        |k| matches!(k, FaultKind::GsOutage { site } if *site == gs),
    );
    assert!(!o.chaos.gs_dark(gs));
    let starts = o
        .chaos
        .log
        .iter()
        .filter(|t| {
            matches!(t, tssdn_fault::FaultTransition::Started { kind: FaultKind::GsOutage { site }, .. } if *site == gs)
        })
        .count();
    let clears = o
        .chaos
        .log
        .iter()
        .filter(|t| {
            matches!(t, tssdn_fault::FaultTransition::Cleared { kind: FaultKind::GsOutage { site }, .. } if *site == gs)
        })
        .count();
    assert_eq!(
        (starts, clears),
        (1, 1),
        "forced start/clear logged: {:?}",
        o.chaos.log
    );
}
