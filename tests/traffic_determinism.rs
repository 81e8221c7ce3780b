//! Traffic-engine determinism: seeded goodput runs are bit-identical
//! across reruns — the same contract style as `golden_determinism`,
//! extended to the E17 subsystem.
//!
//! Three contracts:
//!
//! * **Arm parity** — both allocator arms (hierarchical site×class
//!   aggregation, the default, and the flat per-flow fill) honor the
//!   contracts below independently.
//! * **Repeatability** — two identical seeded chaos-off runs produce
//!   byte-identical traffic digests.
//! * **Inertness** — enabling the traffic engine does not perturb the
//!   rest of the seeded world: the plan digest with traffic on equals
//!   the plan digest with traffic off, bit for bit.

use tssdn_core::{Orchestrator, OrchestratorConfig, TrafficConfig};
use tssdn_sim::{PlatformId, SimDuration, SimTime};

const N_BALLOONS: usize = 5;

/// A five-balloon world; `traffic` is `Some(hierarchical)` to run the
/// engine on that allocator arm, `None` for no engine at all.
fn world(seed: u64, traffic: Option<bool>) -> Orchestrator {
    let mut cfg = OrchestratorConfig::kenya(N_BALLOONS, seed);
    cfg.fleet.spawn_radius_m = 150_000.0;
    cfg.tick = SimDuration::from_secs(10);
    cfg.solve_interval = SimDuration::from_mins(5);
    cfg.probe_interval = SimDuration::from_secs(30);
    cfg.traffic = traffic.map(|hierarchical| TrafficConfig {
        hierarchical,
        ..TrafficConfig::default()
    });
    Orchestrator::new(cfg)
}

/// Run one simulated day, appending an hourly traffic checkpoint: the
/// exact bit totals, per-site events, and demand-digest weights.
/// `hierarchical` picks the allocator arm (on is the default engine).
fn traffic_digest(seed: u64, hierarchical: bool) -> String {
    let mut o = world(seed, Some(hierarchical));
    let end = SimTime::from_hours(24);
    let mut digest = String::new();
    while o.now() < end {
        o.run_until((o.now() + SimDuration::from_hours(1)).min(end));
        let e = o.traffic().expect("traffic enabled");
        let s = e.series();
        digest.push_str(&format!(
            "{} offered={} delivered={} disruptions={} reroutes={}\n",
            o.now(),
            s.offered_bits(),
            s.delivered_bits(),
            s.total_disruptions(),
            s.total_reroutes(),
        ));
        for b in (0..N_BALLOONS as u32).map(PlatformId) {
            digest.push_str(&format!(
                "  {b} {:?} {:?}\n",
                e.demand_weight_bps(b),
                s.site_events(b),
            ));
        }
    }
    digest
}

/// Hourly plan digest (the golden_determinism checkpoint format) for a
/// one-day run with traffic on or off.
fn plan_digest(seed: u64, traffic: bool) -> String {
    let mut o = world(seed, traffic.then_some(true));
    let end = SimTime::from_hours(24);
    let mut digest = String::new();
    while o.now() < end {
        o.run_until((o.now() + SimDuration::from_hours(1)).min(end));
        digest.push_str(&format!("{} {:?}\n", o.now(), o.last_plan));
    }
    digest
}

/// Identical seeded runs produce byte-identical traffic digests.
#[test]
fn goodput_is_identical_across_reruns() {
    let a = traffic_digest(20220822, true);
    assert!(a.contains("offered="), "digest has checkpoints");
    // Traffic flowed at some point (otherwise the contract is vacuous).
    let last = a
        .lines()
        .rev()
        .find(|l| l.contains("offered="))
        .expect("checkpoints");
    assert!(!last.contains("offered=0 "), "run carried traffic: {last}");
    let b = traffic_digest(20220822, true);
    assert!(a == b, "traffic digests diverged between identical runs");
}

/// The flat (aggregation-off) arm carries the same contract. The two
/// arms legitimately differ from each other under congestion (the
/// flat fill's sequential freeze cascade is flow-granular), so this
/// gates each arm against itself, not against the other.
#[test]
fn flat_arm_is_deterministic_across_reruns() {
    let first = traffic_digest(20220822, false);
    assert!(first.contains("offered="), "digest has checkpoints");
    let rerun = traffic_digest(20220822, false);
    assert!(rerun == first, "flat-arm digests diverged between reruns");
}

/// With demand feedback active the solver sees different request
/// weights, so plans may legitimately differ — but the engine itself
/// must never leak randomness or timing into the rest of the world.
/// With feedback disabled, a traffic-on run's plans are bit-identical
/// to a traffic-off run's.
#[test]
fn traffic_without_feedback_is_invisible_to_planning() {
    let mut cfg = OrchestratorConfig::kenya(N_BALLOONS, 20220822);
    cfg.fleet.spawn_radius_m = 150_000.0;
    cfg.tick = SimDuration::from_secs(10);
    cfg.solve_interval = SimDuration::from_mins(5);
    cfg.probe_interval = SimDuration::from_secs(30);
    cfg.traffic = Some(TrafficConfig {
        feedback: false,
        ..TrafficConfig::default()
    });
    let mut on = Orchestrator::new(cfg);
    let end = SimTime::from_hours(24);
    let mut digest_on = String::new();
    while on.now() < end {
        on.run_until((on.now() + SimDuration::from_hours(1)).min(end));
        digest_on.push_str(&format!("{} {:?}\n", on.now(), on.last_plan));
    }
    let digest_off = plan_digest(20220822, false);
    assert!(
        digest_on == digest_off,
        "a feedback-off traffic engine must not perturb seeded planning"
    );
    // And the engine still measured the run.
    assert!(on.traffic().expect("enabled").series().offered_bits() > 0);
}
