//! "Why not?" — solver explainability.
//!
//! §6: operators "frequently ask 'why not...'" about links absent from
//! the realized mesh, and "what was not clear was whether such
//! proposed solutions were possible (e.g. didn't have unseen geometric
//! or RF-based constraints)". The paper's recommendation 5 calls for
//! tooling that "empowers network operations to answer 'why not'
//! questions".
//!
//! Two levels answer the question end to end:
//!
//! * [`explain_pair`] — why a *platform pair* produced no candidate at
//!   all (power, position, range, Earth blockage, antenna fields of
//!   regard, RF budget): the "unseen geometric or RF-based
//!   constraints".
//! * [`explain_absence`] — why a specific *candidate* wasn't selected
//!   by the solver (drains, transceiver already tasked, interference,
//!   no demand utility, feedback penalty).

use crate::evaluator::{CandidateGraph, EvaluatorConfig, PairSweep, PlatformSnap};
use crate::model::{ModelWeather, NetworkModel};
use crate::solver::{Conflict, Solver, TopologyPlan};
use tssdn_dataplane::DrainRegistry;
use tssdn_link::TransceiverId;
use tssdn_sim::{PlatformId, SimTime};

/// Why a platform pair has no candidate link at an instant.
#[derive(Debug, Clone, PartialEq)]
pub enum PairAbsence {
    /// Both endpoints are ground stations (wired; never paired).
    GroundToGround,
    /// A platform's payload is unpowered.
    Unpowered(PlatformId),
    /// No position report exists for a platform.
    NoPosition(PlatformId),
    /// Slant range exceeds the radio limit.
    OutOfRange {
        /// Actual range, meters.
        range_m: f64,
        /// Configured limit, meters.
        limit_m: f64,
    },
    /// The Earth (plus clearance) blocks the ray.
    NoLineOfSight,
    /// No antenna on this platform can point at the other.
    NoUsableAntenna(PlatformId),
    /// Geometry works but no band closes the budget.
    RfInfeasible {
        /// Best modelled margin across bands/antennas, dB.
        best_margin_db: f64,
    },
    /// Nothing wrong: candidates exist for this pair.
    HasCandidates {
        /// How many antenna pairings are on offer.
        count: usize,
    },
}

/// Why a specific candidate wasn't selected by the solver.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectionAbsence {
    /// It *is* in the plan.
    InPlan,
    /// No such candidate exists (ask [`explain_pair`] for the physical
    /// reason).
    NotACandidate,
    /// An endpoint platform is administratively drained.
    Drained(PlatformId),
    /// A selected link already uses one of its transceivers.
    TransceiverBusy {
        /// The selected link holding the radio.
        holder: (TransceiverId, TransceiverId),
    },
    /// A selected same-band link points too close on a shared
    /// platform.
    Interference {
        /// The conflicting selected link.
        with: (TransceiverId, TransceiverId),
        /// Angular separation that caused the conflict, degrees.
        separation_deg: f64,
    },
    /// Selectable, but no routed demand credits it and the redundancy
    /// pass didn't reach it within budget.
    NoUtility,
    /// The enactment-feedback loop is penalizing this pair.
    FeedbackPenalized {
        /// Current cost multiplier.
        multiplier: f64,
    },
}

/// Why a platform pair produced no candidate at `at`: the model-level
/// preamble (known, powered, positioned) and then the Link Evaluator's
/// own answer for the pair.
pub fn explain_pair(
    model: &NetworkModel,
    config: &EvaluatorConfig,
    a: PlatformId,
    b: PlatformId,
    at: SimTime,
) -> PairAbsence {
    let answer = || -> Result<PairAbsence, PairAbsence> {
        // Ascending ids, the orientation the evaluator sweeps pairs in.
        let [pa, pb] =
            [a.min(b), a.max(b)].map(|id| model.platform(id).ok_or(PairAbsence::NoPosition(id)));
        let infos = [pa?, pb?];
        if let Some(p) = infos.iter().find(|p| !p.powered) {
            return Err(PairAbsence::Unpowered(p.id));
        }
        let [lo, hi] =
            infos.map(|p| PlatformSnap::of(model, p, at).ok_or(PairAbsence::NoPosition(p.id)));
        let (bands, weather) = (config.band_consts(), ModelWeather { model });
        Ok(PairSweep::new(&bands, &weather, at).evaluate_pair(&lo?, &hi?))
    };
    answer().unwrap_or_else(|why| why)
}

/// Why a candidate (identified by its pairing key) is absent from a
/// plan.
pub fn explain_absence(
    solver: &Solver,
    graph: &CandidateGraph,
    plan: &TopologyPlan,
    drains: &DrainRegistry,
    key: (TransceiverId, TransceiverId),
    now: SimTime,
) -> SelectionAbsence {
    if plan.key_set().contains(&key) {
        return SelectionAbsence::InPlan;
    }
    let Some(cand) = graph.links.iter().find(|l| l.key() == key) else {
        return SelectionAbsence::NotACandidate;
    };
    for p in [cand.a.platform, cand.b.platform] {
        if drains.active(p, now) {
            return SelectionAbsence::Drained(p);
        }
    }
    // The first plan link holding one of its radios, else the first
    // interfering with it (`min_by_key` keeps the first of equals).
    let blocker = plan
        .all_links()
        .filter_map(|sel| Some((sel.key(), solver.conflict(sel, cand)?)))
        .min_by_key(|(_, why)| *why != Conflict::SharedTransceiver);
    if let Some((other, why)) = blocker {
        return match why {
            Conflict::SharedTransceiver => SelectionAbsence::TransceiverBusy { holder: other },
            Conflict::BeamsTooClose { separation_deg } => SelectionAbsence::Interference {
                with: other,
                separation_deg,
            },
        };
    }
    match solver.pair_penalty(cand) {
        Some(multiplier) if multiplier > 1.5 => SelectionAbsence::FeedbackPenalized { multiplier },
        _ => SelectionAbsence::NoUtility,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluator::{CandidateLink, LinkEvaluator};
    use crate::model::WeatherSource;
    use crate::solver::MIN_BEAM_SEPARATION_DEG;
    use tssdn_dataplane::BackhaulRequest;
    use tssdn_geo::{GeoPoint, TrajectorySample};
    use tssdn_link::Transceiver;
    use tssdn_sim::{PlatformId, PlatformKind};

    fn fix(lat: f64, lon: f64, alt: f64) -> TrajectorySample {
        TrajectorySample {
            t_ms: 0,
            pos: GeoPoint::new(lat, lon, alt),
            vel_east_mps: 0.0,
            vel_north_mps: 0.0,
            vel_up_mps: 0.0,
        }
    }

    fn model_with(positions: &[(u32, f64, f64, f64, bool)]) -> NetworkModel {
        // (id, lat, lon, alt, powered); ids ≥ 100 are ground stations.
        let mut m = NetworkModel::new(WeatherSource::Itu(tssdn_rf::ItuSeasonal::tropical_wet()));
        for (id, lat, lon, alt, powered) in positions {
            let pid = PlatformId(*id);
            let (kind, xs) = if *id >= 100 {
                (
                    PlatformKind::GroundStation,
                    (0..2)
                        .map(|i| {
                            Transceiver::ground_station(
                                pid,
                                i,
                                tssdn_geo::FieldOfRegard::ground_station(2.0),
                            )
                        })
                        .collect::<Vec<_>>(),
                )
            } else {
                (
                    PlatformKind::Balloon,
                    (0..3).map(|i| Transceiver::balloon(pid, i)).collect(),
                )
            };
            m.add_platform(pid, kind, xs);
            m.report_position(pid, fix(*lat, *lon, *alt));
            m.report_power(pid, *powered);
        }
        m
    }

    #[test]
    fn explains_power_position_range_and_los() {
        let cfg = EvaluatorConfig::default();
        // Unpowered.
        let m = model_with(&[
            (0, 0.0, 36.0, 18_000.0, false),
            (1, 0.0, 37.0, 18_000.0, true),
        ]);
        assert_eq!(
            explain_pair(&m, &cfg, PlatformId(0), PlatformId(1), SimTime::ZERO),
            PairAbsence::Unpowered(PlatformId(0))
        );
        // Unknown platform.
        assert_eq!(
            explain_pair(&m, &cfg, PlatformId(0), PlatformId(9), SimTime::ZERO),
            PairAbsence::NoPosition(PlatformId(9))
        );
        // Out of range (~1100 km).
        let m = model_with(&[
            (0, 0.0, 36.0, 18_000.0, true),
            (1, 0.0, 46.0, 18_000.0, true),
        ]);
        match explain_pair(&m, &cfg, PlatformId(0), PlatformId(1), SimTime::ZERO) {
            PairAbsence::OutOfRange { range_m, limit_m } => {
                assert!(range_m > limit_m);
            }
            other => panic!("expected OutOfRange, got {other:?}"),
        }
        // Beyond the horizon at low altitude: LOS blocked within range.
        let m = model_with(&[(0, 0.0, 36.0, 2_000.0, true), (1, 0.0, 41.0, 2_000.0, true)]);
        assert_eq!(
            explain_pair(&m, &cfg, PlatformId(0), PlatformId(1), SimTime::ZERO),
            PairAbsence::NoLineOfSight
        );
        // GS–GS.
        let m = model_with(&[
            (100, 0.0, 36.0, 1_500.0, true),
            (101, 0.3, 36.4, 1_500.0, true),
        ]);
        assert_eq!(
            explain_pair(&m, &cfg, PlatformId(100), PlatformId(101), SimTime::ZERO),
            PairAbsence::GroundToGround
        );
        // Healthy pair.
        let m = model_with(&[
            (0, 0.0, 36.0, 18_000.0, true),
            (1, 0.0, 37.0, 18_000.0, true),
        ]);
        match explain_pair(&m, &cfg, PlatformId(0), PlatformId(1), SimTime::ZERO) {
            PairAbsence::HasCandidates { count } => assert!(count > 0),
            other => panic!("expected HasCandidates, got {other:?}"),
        }
    }

    #[test]
    fn explains_solver_level_absences() {
        let cfg = EvaluatorConfig::default();
        // 0,1 balloons; 100 GS; demand 0→EC via GS.
        let m = model_with(&[
            (0, 0.2, 36.9, 18_000.0, true),
            (1, 0.4, 37.3, 18_000.0, true),
            (100, 0.0, 36.8, 1_500.0, true),
        ]);
        let graph = LinkEvaluator::new(cfg).evaluate(&m, SimTime::ZERO);
        assert!(!graph.is_empty());
        let solver = Solver::default();
        let ec = PlatformId(200);
        let req = vec![BackhaulRequest {
            node: PlatformId(0),
            ec,
            min_bitrate_bps: 50_000_000,
        }];
        let gw = |e: PlatformId| {
            if e == ec {
                vec![PlatformId(100)]
            } else {
                vec![]
            }
        };
        let drains = DrainRegistry::new();
        let plan = solver.solve(
            &graph,
            &req,
            &gw,
            &Default::default(),
            &drains,
            SimTime::ZERO,
        );
        assert!(!plan.demand_links.is_empty());

        // A link in the plan explains as InPlan.
        let in_plan = plan.demand_links[0].key();
        assert_eq!(
            explain_absence(&solver, &graph, &plan, &drains, in_plan, SimTime::ZERO),
            SelectionAbsence::InPlan
        );

        // A nonexistent pairing.
        let ghost = (
            TransceiverId::new(PlatformId(50), 0),
            TransceiverId::new(PlatformId(51), 0),
        );
        assert_eq!(
            explain_absence(&solver, &graph, &plan, &drains, ghost, SimTime::ZERO),
            SelectionAbsence::NotACandidate
        );

        // A candidate sharing a transceiver with the plan explains as
        // TransceiverBusy.
        let busy = graph
            .links
            .iter()
            .find(|l| {
                !plan.key_set().contains(&l.key())
                    && plan
                        .all_links()
                        .any(|s| s.a == l.a || s.b == l.a || s.a == l.b || s.b == l.b)
            })
            .map(|l| l.key());
        if let Some(busy) = busy {
            match explain_absence(&solver, &graph, &plan, &drains, busy, SimTime::ZERO) {
                SelectionAbsence::TransceiverBusy { .. } => {}
                other => panic!("expected TransceiverBusy, got {other:?}"),
            }
        }

        // Drained endpoint.
        let mut drains2 = DrainRegistry::new();
        drains2.request(PlatformId(1), SimTime::ZERO, None);
        let plan2 = solver.solve(
            &graph,
            &req,
            &gw,
            &Default::default(),
            &drains2,
            SimTime::ZERO,
        );
        let touching_1 = graph
            .links
            .iter()
            .find(|l| l.a.platform == PlatformId(1) || l.b.platform == PlatformId(1))
            .expect("candidates touch balloon 1")
            .key();
        assert_eq!(
            explain_absence(&solver, &graph, &plan2, &drains2, touching_1, SimTime::ZERO),
            SelectionAbsence::Drained(PlatformId(1))
        );
    }

    #[test]
    fn feedback_penalty_is_surfaced() {
        let cfg = EvaluatorConfig::default();
        let m = model_with(&[
            (0, 0.2, 36.9, 18_000.0, true),
            (1, 0.4, 37.3, 18_000.0, true),
            (100, 0.0, 36.8, 1_500.0, true),
        ]);
        let graph = LinkEvaluator::new(cfg).evaluate(&m, SimTime::ZERO);
        let mut solver = Solver::default();
        // Penalize the 0–1 pair heavily; no demand at all so nothing
        // is selected and the pair's absence must cite the penalty.
        solver
            .pair_penalties
            .insert((PlatformId(0), PlatformId(1)), 5.0);
        let drains = DrainRegistry::new();
        let plan = solver.solve(
            &graph,
            &[],
            &|_| vec![],
            &Default::default(),
            &drains,
            SimTime::ZERO,
        );
        let b2b = graph
            .links
            .iter()
            .find(|l| l.a.platform == PlatformId(0) && l.b.platform == PlatformId(1))
            .expect("0–1 candidates exist")
            .key();
        // With no demand and no selected links, the only reason left
        // for this pair is the feedback penalty.
        match explain_absence(&solver, &graph, &plan, &drains, b2b, SimTime::ZERO) {
            SelectionAbsence::FeedbackPenalized { multiplier } => assert!(multiplier > 1.5),
            SelectionAbsence::TransceiverBusy { .. } => {} // redundancy pass may have tasked it
            other => panic!("unexpected: {other:?}"),
        }
    }

    /// A seeded 8-balloon Kenya world at 10:00 with the graph its
    /// evaluator holds for that instant.
    fn kenya_morning() -> (crate::Orchestrator, CandidateGraph) {
        let mut config = crate::OrchestratorConfig::kenya(8, 31);
        config.fleet.spawn_radius_m = 260_000.0;
        let mut o = crate::Orchestrator::new(config);
        o.run_until(SimTime::from_hours(10));
        let graph = o.evaluate_candidates(o.now());
        (o, graph)
    }

    #[test]
    fn explain_pair_counts_what_the_evaluator_emits() {
        let (o, graph) = kenya_morning();
        let ids: Vec<PlatformId> = o.model.platforms().map(|p| p.id).collect();
        let mut pairs_with_candidates = 0;
        for (i, &a) in ids.iter().enumerate() {
            for &b in &ids[i + 1..] {
                let in_graph = graph
                    .links
                    .iter()
                    .filter(|l| (l.a.platform, l.b.platform) == (a, b))
                    .count();
                let said = explain_pair(&o.model, &o.config.evaluator, a, b, o.now());
                match &said {
                    PairAbsence::HasCandidates { count } => {
                        assert_eq!(*count, in_graph, "{a} – {b}");
                        pairs_with_candidates += 1;
                    }
                    why => assert_eq!(in_graph, 0, "{a} – {b}: {why:?}"),
                }
                // Asked the other way round, the same answer.
                assert_eq!(
                    explain_pair(&o.model, &o.config.evaluator, b, a, o.now()),
                    said
                );
            }
        }
        assert!(pairs_with_candidates > 8, "the world has a mesh to explain");
    }

    /// The §3.2 rule spelled out for the test alone: `Some(None)` for a
    /// shared transceiver, `Some(Some(deg))` for two same-band beams at
    /// one platform under `min_sep_deg` apart.
    fn blocks(sel: &CandidateLink, cand: &CandidateLink, min_sep_deg: f64) -> Option<Option<f64>> {
        if [sel.a, sel.b].iter().any(|t| *t == cand.a || *t == cand.b) {
            return Some(None);
        }
        let ends = |l: &CandidateLink| [(l.a.platform, l.pointing_a), (l.b.platform, l.pointing_b)];
        for (ps, ds) in ends(sel) {
            for (pc, dc) in ends(cand) {
                let apart = ds.angular_distance_deg(&dc);
                if sel.band == cand.band && ps == pc && apart < min_sep_deg {
                    return Some(Some(apart));
                }
            }
        }
        None
    }

    #[test]
    fn explain_absence_names_a_plan_link_that_conflicts() {
        let (o, graph) = kenya_morning();
        let full = o.last_plan.clone().expect("solved by 10:00");
        // The world's plan, and a plan of its first link alone: most
        // radios idle, so the other antenna pairings of that link's
        // platform pair are blocked by its beam and nothing else.
        let sparse = TopologyPlan {
            demand_links: full.demand_links[..1].to_vec(),
            ..Default::default()
        };
        let (solver, now) = (o.solver(), o.now());
        let min_sep = MIN_BEAM_SEPARATION_DEG;
        let (mut busy, mut interfered, mut free) = (0, 0, 0);
        for plan in [&full, &sparse] {
            let keys = plan.key_set();
            for cand in graph.links.iter().filter(|l| !keys.contains(&l.key())) {
                let named = |key| plan.all_links().find(|l| l.key() == key).expect("in plan");
                match explain_absence(solver, &graph, plan, &o.drains, cand.key(), now) {
                    SelectionAbsence::TransceiverBusy { holder } => {
                        assert_eq!(blocks(named(holder), cand, min_sep), Some(None));
                        busy += 1;
                    }
                    SelectionAbsence::Interference {
                        with,
                        separation_deg,
                    } => {
                        let with = named(with);
                        assert_eq!(blocks(with, cand, min_sep), Some(Some(separation_deg)));
                        assert!(solver.conflicts(with, cand));
                        // A held radio is reported before a close beam.
                        assert!(plan
                            .all_links()
                            .all(|l| blocks(l, cand, min_sep) != Some(None)));
                        interfered += 1;
                    }
                    why => {
                        assert!(
                            plan.all_links().all(|l| blocks(l, cand, min_sep).is_none()),
                            "{:?} is blocked, yet: {why:?}",
                            cand.key()
                        );
                        free += 1;
                    }
                }
            }
        }
        assert!(
            busy > 0 && interfered > 0 && free > 0,
            "{busy} {interfered} {free}"
        );
    }
}
