//! The two `SolverPolicy` switches that only the ablation bins set
//! (`ablation_predictive` turns `predictive_withdrawal` off,
//! `ablation_feedback` turns `enactment_feedback` on), each run
//! against the default arm in one small world.

use tssdn_core::{Orchestrator, OrchestratorConfig, SolverPolicy};
use tssdn_link::EndReason;
use tssdn_sim::SimTime;

/// Six balloons over Kenya, run from midnight to `until` one solve
/// cadence at a time; `each_solve` sees the world after every step.
fn run(
    policy: SolverPolicy,
    until: SimTime,
    mut each_solve: impl FnMut(&Orchestrator),
) -> Orchestrator {
    let mut cfg = OrchestratorConfig::kenya(6, 42);
    cfg.fleet.spawn_radius_m = 150_000.0;
    cfg.policy = policy;
    let step = cfg.solve_interval;
    let mut o = Orchestrator::new(cfg);
    while o.now() < until {
        o.run_until(o.now() + step);
        each_solve(&o);
    }
    o
}

/// Ledger entries that ended in a controller withdrawal.
fn withdrawn(o: &Orchestrator) -> usize {
    o.ledger
        .records()
        .iter()
        .filter(|r| r.end_reason == Some(EndReason::Withdrawn))
        .count()
}

/// Ledger entries whose enactment failed: never established, ended
/// by something other than a withdrawal.
fn failed_enactments(o: &Orchestrator) -> usize {
    o.ledger
        .records()
        .iter()
        .filter(|r| r.established.is_none())
        .filter(|r| r.end_reason.is_some_and(|e| e != EndReason::Withdrawn))
        .count()
}

#[test]
fn reactive_only_arm_never_withdraws_a_link() {
    let until = SimTime::from_hours(10);
    let predictive = run(SolverPolicy::default(), until, |_| {});
    assert!(
        withdrawn(&predictive) > 0,
        "the default arm withdraws links in this world"
    );
    let reactive = SolverPolicy {
        predictive_withdrawal: false,
        ..SolverPolicy::default()
    };
    let o = run(reactive, until, |_| {});
    assert!(!o.ledger.records().is_empty(), "links were commanded");
    assert_eq!(withdrawn(&o), 0, "no re-solve withdraws a link");
}

#[test]
fn feedback_arm_penalizes_failing_pairs_and_reruns_identically() {
    let until = SimTime::from_hours(10);
    let feedback = SolverPolicy {
        enactment_feedback: true,
        ..SolverPolicy::default()
    };
    // The first solve whose pair penalties are non-empty, and how many
    // enactments had failed by then.
    let mut first_penalized = None;
    let a = run(feedback, until, |o| {
        if first_penalized.is_none() && !o.solver().pair_penalties.is_empty() {
            first_penalized = Some((o.now(), failed_enactments(o)));
        }
    });
    let (at, failed) = first_penalized.expect("some pair was penalized");
    assert!(failed > 0, "penalties at {at:?} follow failed enactments");

    let mut default_penalized = false;
    run(SolverPolicy::default(), until, |o| {
        default_penalized |= !o.solver().pair_penalties.is_empty();
    });
    assert!(!default_penalized, "the default arm never penalizes a pair");

    let b = run(feedback, until, |_| {});
    let fingerprint = |o: &Orchestrator| {
        format!(
            "{:?} {:?} {:?}",
            o.ledger.records(),
            o.solver().pair_penalties,
            o.summary()
        )
    };
    assert_eq!(fingerprint(&a), fingerprint(&b), "reruns are identical");
}
