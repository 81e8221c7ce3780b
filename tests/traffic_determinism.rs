//! Traffic-engine determinism: seeded goodput runs are bit-identical
//! across reruns — the same contract style as `golden_determinism`,
//! extended to the E17 subsystem.
//!
//! Two contracts:
//!
//! * **Repeatability** — two identical seeded chaos-off runs produce
//!   byte-identical traffic digests.
//! * **Inertness** — enabling the traffic engine does not perturb the
//!   rest of the seeded world: the plan digest with traffic on equals
//!   the plan digest with traffic off, bit for bit.

use tssdn_core::{Orchestrator, OrchestratorConfig, TrafficConfig};
use tssdn_sim::{PlatformId, SimDuration, SimTime};

const N_BALLOONS: usize = 5;

/// The five-balloon world's configuration, without a traffic engine.
fn config(seed: u64) -> OrchestratorConfig {
    let mut cfg = OrchestratorConfig::kenya(N_BALLOONS, seed);
    cfg.fleet.spawn_radius_m = 150_000.0;
    cfg.tick = SimDuration::from_secs(10);
    cfg.solve_interval = SimDuration::from_mins(5);
    cfg.probe_interval = SimDuration::from_secs(30);
    cfg
}

/// A five-balloon world, with or without the traffic engine.
fn world(seed: u64, traffic: bool) -> Orchestrator {
    let mut cfg = config(seed);
    cfg.traffic = traffic.then(TrafficConfig::default);
    Orchestrator::new(cfg)
}

/// Run one simulated day, appending an hourly traffic checkpoint: the
/// exact bit totals, per-site events, and demand-digest weights.
fn traffic_digest(seed: u64) -> String {
    let mut o = world(seed, true);
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

/// Run `o` for one simulated day; its hourly plan digest (the
/// golden_determinism checkpoint format).
fn plan_digest(o: &mut Orchestrator) -> String {
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
    let a = traffic_digest(20220822);
    assert!(a.contains("offered="), "digest has checkpoints");
    // Traffic flowed at some point (otherwise the contract is vacuous).
    let last = a
        .lines()
        .rev()
        .find(|l| l.contains("offered="))
        .expect("checkpoints");
    assert!(!last.contains("offered=0 "), "run carried traffic: {last}");
    let b = traffic_digest(20220822);
    assert!(a == b, "traffic digests diverged between identical runs");
}

/// With demand feedback active the solver sees different request
/// weights, so plans may legitimately differ — but the engine itself
/// must never leak randomness or timing into the rest of the world.
/// With feedback disabled, a traffic-on run's plans are bit-identical
/// to a traffic-off run's.
#[test]
fn traffic_without_feedback_is_invisible_to_planning() {
    let mut cfg = config(20220822);
    cfg.traffic = Some(TrafficConfig {
        feedback: false,
        ..TrafficConfig::default()
    });
    let mut on = Orchestrator::new(cfg);
    let digest_on = plan_digest(&mut on);
    assert!(
        digest_on == plan_digest(&mut world(20220822, false)),
        "a feedback-off traffic engine must not perturb seeded planning"
    );
    // And the engine still measured the run.
    assert!(on.traffic().expect("enabled").series().offered_bits() > 0);
}
