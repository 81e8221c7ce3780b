//! Golden determinism: the optimized planning hot path changes *how*
//! plans are computed, never *which* plans come out.
//!
//! Two contracts, each checked with chaos off and on:
//!
//! * **Repeatability** — two identical seeded 3-day orchestrator runs
//!   produce byte-identical plan digests (the `Debug` rendering of
//!   `last_plan` at every checkpoint) and identical `RunSummary`s.
//! * **Golden equivalence** — at periodic checkpoints mid-run, an
//!   evaluate→solve on the orchestrator's live state is bit-identical
//!   to the naive planning oracle (`tssdn_oracle::planning::
//!   {evaluate_reference, solve_reference}`). This exercises the hysteresis path
//!   (live intents as the previous topology), drains, and
//!   enactment-feedback pair penalties as they actually occur in a
//!   long run — not just synthetic inputs.

use std::collections::BTreeSet;
use tssdn_core::{Orchestrator, OrchestratorConfig, RunSummary};
use tssdn_fault::{FaultPlan, PlanConfig};
use tssdn_oracle::planning::{evaluate_reference, solve_reference};
use tssdn_sim::{PlatformId, SimDuration, SimTime};

const N_BALLOONS: usize = 5;

/// GS platform ids for a `kenya(N_BALLOONS)` world (balloons first,
/// then three ground stations).
fn gs_ids() -> Vec<PlatformId> {
    (N_BALLOONS as u32..N_BALLOONS as u32 + 3)
        .map(PlatformId)
        .collect()
}

fn world(seed: u64, chaos: bool) -> Orchestrator {
    let mut cfg = OrchestratorConfig::kenya(N_BALLOONS, seed);
    cfg.fleet.spawn_radius_m = 150_000.0;
    // Coarser cadence than the operational defaults so a 3-day run
    // stays affordable in debug builds; determinism does not depend
    // on the tick rate.
    cfg.tick = SimDuration::from_secs(10);
    cfg.solve_interval = SimDuration::from_mins(5);
    cfg.probe_interval = SimDuration::from_secs(30);
    if chaos {
        cfg.fault_plan = FaultPlan::generate(
            seed,
            &PlanConfig::kenya_daytime(N_BALLOONS as u32, gs_ids()),
        );
    }
    Orchestrator::new(cfg)
}

/// One evaluate→solve on the orchestrator's current state, optimized
/// and reference, asserted bit-identical. Uses exactly the inputs
/// `solve_and_actuate` would: live intent keys as the previous
/// topology, tunnel gateways, the drain registry, and whatever pair
/// penalties the last feedback pass left on the solver.
fn assert_planning_equivalence(o: &Orchestrator) {
    let at = o.now();
    let graph = o.evaluate_candidates(at);
    let graph_ref = evaluate_reference(o.evaluator(), o.network_model(), at);
    assert!(
        graph == graph_ref,
        "evaluate diverged from reference at {at} ({} vs {} candidates)",
        graph.len(),
        graph_ref.len()
    );

    let previous: BTreeSet<_> = o.intents.live().map(|i| i.key()).collect();
    let tunnels = &o.tunnels;
    let gw = |ec: PlatformId| tunnels.gateways_to(ec);
    let plan = o
        .solver()
        .solve(&graph, o.backhaul_requests(), &gw, &previous, &o.drains, at);
    let plan_ref = solve_reference(
        o.solver(),
        &graph,
        o.backhaul_requests(),
        &gw,
        &previous,
        &o.drains,
        at,
    );
    assert!(
        plan == plan_ref,
        "solve diverged from reference at {at} ({} live intents as previous)",
        previous.len()
    );
}

/// Run 3 days, appending the current plan to a digest every hour.
/// With `gate`, also run the reference-equivalence check every 12
/// simulated hours.
fn run_digest(seed: u64, chaos: bool, gate: bool) -> (String, RunSummary) {
    let mut o = world(seed, chaos);
    let end = SimTime::from_hours(72);
    let mut digest = String::new();
    let mut hours = 0u32;
    while o.now() < end {
        o.run_until((o.now() + SimDuration::from_hours(1)).min(end));
        hours += 1;
        digest.push_str(&format!("{} {:?}\n", o.now(), o.last_plan));
        if gate && hours.is_multiple_of(12) {
            assert_planning_equivalence(&o);
        }
    }
    (digest, o.summary())
}

/// Chaos off: identical 3-day runs are byte-identical, and the live
/// planning state matches the naive reference at every checkpoint.
#[test]
fn three_day_runs_are_golden_chaos_off() {
    let (d1, s1) = run_digest(20220822, false, true);
    let (d2, s2) = run_digest(20220822, false, false);
    assert!(
        d1 == d2,
        "plan digests diverged between identical chaos-off runs"
    );
    assert_eq!(
        s1, s2,
        "RunSummary diverged between identical chaos-off runs"
    );
    assert!(d1.contains("Some("), "runs produced at least one plan");
}

/// Chaos on: a seeded multi-fault plan (outages, brownouts,
/// partitions, balloon loss) perturbs the world, and the same two
/// contracts still hold.
#[test]
fn three_day_runs_are_golden_chaos_on() {
    let (d1, s1) = run_digest(20220822, true, true);
    let (d2, s2) = run_digest(20220822, true, false);
    assert!(
        d1 == d2,
        "plan digests diverged between identical chaos-on runs"
    );
    assert_eq!(
        s1, s2,
        "RunSummary diverged between identical chaos-on runs"
    );
    assert!(d1.contains("Some("), "runs produced at least one plan");
}
