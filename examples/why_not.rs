//! "Why not?" — the operator console the paper wished for.
//!
//! §6: "This led operators to second guess the solver and frequently
//! ask 'why not...'. What was not clear was whether such proposed
//! solutions were possible (e.g. didn't have unseen geometric or
//! RF-based constraints) ... Adding such properties to visualization
//! tools was challenging but critical." Recommendation 5: tooling that
//! "empowers network operations to answer 'why not' questions, find
//! bugs, and build confidence in correct behavior."
//!
//! This example runs a morning, then interrogates the controller the
//! way an operator would: render the solver's goal state and the
//! expected sequence of intents (recommendation 3), score the solution
//! (recommendation 4), and explain for every balloon pair why no link
//! — or no *selected* link — exists between them (recommendation 5).
//!
//! Run with: `cargo run --release -p tssdn-examples --bin why_not`

use tssdn_core::{
    explain_absence, explain_pair, Orchestrator, OrchestratorConfig, PairAbsence, SelectionAbsence,
};
use tssdn_sim::{PlatformId, SimTime};

fn main() {
    println!("== why_not: interrogating the solver ==\n");

    let mut config = OrchestratorConfig::kenya(8, 31);
    config.fleet.spawn_radius_m = 260_000.0;
    let mut o = Orchestrator::new(config);
    o.run_until(SimTime::from_hours(10));

    // Recommendation 3 + 4: the near-term goal state, its intent
    // sequence, and the solution's value metric.
    let current: std::collections::BTreeSet<_> = o.intents.live().map(|i| i.key()).collect();
    let plan = o.last_plan.clone().expect("controller has solved by 10:00");
    println!("{}", plan.render_goal_state(&current, 8));

    // Recommendation 5: "why not?" across every balloon pair.
    // The solver the world runs — its config and its current feedback
    // penalties — not a default one.
    let graph = o.evaluate_candidates(o.now());
    let solver = o.solver();
    println!("# pairwise \"why not\" (balloon–balloon):");
    let mut counts: std::collections::BTreeMap<&'static str, usize> = Default::default();
    for a in 0..8u32 {
        for b in (a + 1)..8u32 {
            let (pa, pb) = (PlatformId(a), PlatformId(b));
            // First: does a selected link already serve this pair?
            let selected = plan.all_links().any(|l| {
                (l.a.platform, l.b.platform) == (pa, pb) || (l.b.platform, l.a.platform) == (pa, pb)
            });
            if selected {
                *counts.entry("in plan").or_default() += 1;
                continue;
            }
            // Physical level.
            let why = explain_pair(&o.model, &o.config.evaluator, pa, pb, o.now());
            let label: &'static str = match &why {
                PairAbsence::HasCandidates { .. } => {
                    // Candidates exist; ask the solver level about the
                    // best one.
                    let key = graph
                        .links
                        .iter()
                        .filter(|l| {
                            (l.a.platform == pa && l.b.platform == pb)
                                || (l.a.platform == pb && l.b.platform == pa)
                        })
                        .max_by(|x, y| x.margin_db.partial_cmp(&y.margin_db).expect("finite"))
                        .map(|l| l.key());
                    match key.map(|k| explain_absence(solver, &graph, &plan, &o.drains, k, o.now()))
                    {
                        Some(SelectionAbsence::TransceiverBusy { .. }) => "radios busy",
                        Some(SelectionAbsence::Interference { .. }) => "beam interference",
                        Some(SelectionAbsence::NoUtility) => "no demand utility",
                        Some(SelectionAbsence::Drained(_)) => "drained",
                        Some(SelectionAbsence::FeedbackPenalized { .. }) => "feedback-penalized",
                        Some(SelectionAbsence::InPlan) => "in plan",
                        _ => "not a candidate",
                    }
                }
                PairAbsence::OutOfRange { .. } => "out of range",
                PairAbsence::NoLineOfSight => "earth blocks LOS",
                PairAbsence::Unpowered(_) => "unpowered",
                PairAbsence::NoUsableAntenna(_) => "antenna occluded",
                PairAbsence::RfInfeasible { .. } => "RF infeasible",
                PairAbsence::NoPosition(_) => "no position",
                PairAbsence::GroundToGround => "gs-gs",
            };
            *counts.entry(label).or_default() += 1;
            // Print a few concrete explanations: physical reasons as
            // they are, solver-level ones with how many candidates the
            // graph holds for the pair.
            if counts[label] <= 2 {
                match why {
                    PairAbsence::HasCandidates { count } => {
                        println!("  p{a} – p{b}: {count} candidates, {label}")
                    }
                    why => println!("  p{a} – p{b}: {why:?}"),
                }
            }
        }
    }
    println!();
    println!("# answer distribution over all 28 balloon pairs:");
    for (label, n) in &counts {
        println!("  {label:<18} {n}");
    }
    println!();
    println!("every absent link has a concrete, queryable reason — no more");
    println!("second-guessing the solver (§6 recommendation 5).");
}
