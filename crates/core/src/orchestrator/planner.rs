//! The planner: the [`LinkEvaluator`] + [`Solver`] cycle over the
//! controller's model, the standing backhaul demands it plans for, the
//! candidate graph it last evaluated, and when it is next due — on the
//! solve cadence, or a pipeline latency after the controller learned
//! of a topology change it has not yet acted on.

use super::{Orchestrator, OrchestratorConfig};
use crate::evaluator::{CandidateGraph, CandidateLink, LinkEvaluator};
use crate::intent::{IntentDiff, LinkIntentState};
use crate::solver::{Solver, TopologyPlan};
use crate::validation::ModelErrorSample;
use std::collections::{BTreeMap, BTreeSet};
use tssdn_cpl::CommandBody;
use tssdn_dataplane::BackhaulRequest;
use tssdn_link::TransceiverId;
use tssdn_rf::BandConsts;
use tssdn_sim::{Fleet, PlatformId, PlatformKind, SimTime};

pub(super) struct Planner {
    evaluator: LinkEvaluator,
    /// The evaluator's pessimism-adjusted bands, built once for the
    /// per-link margins `believed_margin_now` asks for.
    bands: Vec<BandConsts>,
    solver: Solver,
    requests: Vec<BackhaulRequest>,
    /// The most recent candidate graph (reused by event-driven
    /// re-solves between evaluator runs).
    last_graph: Option<CandidateGraph>,
    /// Every platform some link of `last_graph` touches — the
    /// "potential operable" set behind probe and traffic eligibility.
    /// Refreshed where `controller_cycle` stores a graph, so it is
    /// computed once per graph rather than on every probe; empty until
    /// the first evaluation.
    reachable: BTreeSet<PlatformId>,
    /// When the controller first learned of an unacted topology
    /// change; the event-driven re-solve fires `controller_pipeline`
    /// later.
    dirty_since: Option<SimTime>,
    next_solve: SimTime,
}

impl Planner {
    /// One standing backhaul request per balloon, all to `ec`.
    pub(super) fn new(config: &OrchestratorConfig, fleet: &Fleet, ec: PlatformId) -> Self {
        let requests = (0..fleet.balloons.len() as u32)
            .map(|b| BackhaulRequest {
                node: PlatformId(b),
                ec,
                min_bitrate_bps: config.demand_bps,
                redundancy_group: None,
            })
            .collect();
        Planner {
            evaluator: LinkEvaluator::new(config.evaluator.clone()),
            bands: config.evaluator.band_consts(),
            solver: Solver::new(config.solver),
            requests,
            last_graph: None,
            reachable: BTreeSet::new(),
            dirty_since: None,
            next_solve: SimTime::ZERO,
        }
    }

    pub(super) fn requests(&self) -> &[BackhaulRequest] {
        &self.requests
    }

    /// The controller learned at `now` that the installed topology
    /// changed; an earlier unacted change keeps its timestamp.
    pub(super) fn mark_dirty(&mut self, now: SimTime) {
        self.dirty_since.get_or_insert(now);
    }

    /// Whether some candidate link of the cached graph touches `b`.
    pub(super) fn within_reach(&self, b: PlatformId) -> bool {
        self.reachable.contains(&b)
    }

    /// The invariant `within_reach` rests on.
    pub(super) fn reachable_matches_graph(&self) -> bool {
        self.reachable
            == self
                .last_graph
                .as_ref()
                .map(platforms_of)
                .unwrap_or_default()
    }
}

/// The platforms a candidate graph's links touch.
fn platforms_of(graph: &CandidateGraph) -> BTreeSet<PlatformId> {
    crate::evaluator::platform_runs(&graph.links)
        .into_iter()
        .collect()
}

impl Orchestrator {
    /// Evaluate the controller's candidate graph at an arbitrary
    /// instant (used by the Figure-4 experiment).
    pub fn evaluate_candidates(&self, at: SimTime) -> CandidateGraph {
        self.planner.evaluator.evaluate(&self.model, at)
    }

    /// The standing backhaul demands (used by the golden-equivalence
    /// gate to replay a solve against the naive reference).
    pub fn backhaul_requests(&self) -> &[BackhaulRequest] {
        &self.planner.requests
    }

    /// The solver, with whatever pair penalties the enactment-feedback
    /// loop installed at the last solve.
    pub fn solver(&self) -> &Solver {
        &self.planner.solver
    }

    /// The link evaluator.
    pub fn evaluator(&self) -> &LinkEvaluator {
        &self.planner.evaluator
    }

    /// Change the solver's redundancy target mid-run — Figure 6's
    /// December-2020 moment when "Loon's TS-SDN could construct a mesh
    /// whose in-band control plane connectivity routinely exceeded its
    /// link layer reliability" after redundancy targeting landed.
    pub fn set_redundancy_target(&mut self, target: f64) {
        self.planner.solver.config.redundancy_target = target;
    }

    /// "Potential operable time", the eligibility rule the
    /// availability probe and the traffic engine share: powered, and
    /// within reach of some candidate link. A balloon that has drifted
    /// beyond every candidate cannot possibly be part of the mesh; its
    /// dark time is not an availability failure (it is the FMS's
    /// problem, not the network's), and it offers no traffic.
    #[inline]
    pub(super) fn potentially_operable(&self, b: PlatformId) -> bool {
        self.effectively_powered(b) && self.planner.within_reach(b)
    }

    /// Stage `event_resolve`: once the controller has known about an
    /// unacted topology change for a pipeline latency, re-solve
    /// against the cached candidate graph so replacement links and
    /// reroutes go out without waiting for the next full solve
    /// interval.
    pub(super) fn event_resolve(&mut self) {
        let due = self
            .planner
            .dirty_since
            .is_some_and(|t| self.now.since(t) >= self.config.controller_pipeline);
        if !due {
            return;
        }
        // Lent out for the solve (which never reads it) and put
        // straight back; `reachable` describes the same graph
        // throughout.
        if let Some(graph) = self.planner.last_graph.take() {
            self.solve_and_actuate(&graph);
            self.planner.last_graph = Some(graph);
        } else {
            self.program_routes();
        }
        self.planner.dirty_since = None;
    }

    /// Stage `controller_cycle`: on the solve cadence, evaluate the
    /// model `plan_lead` ahead, solve, actuate, and sample the model's
    /// error on the links that are up.
    pub(super) fn controller_cycle(&mut self) {
        if self.now < self.planner.next_solve {
            return;
        }
        self.planner.next_solve = self.now + self.config.solve_interval;
        // The cached graph is dead the moment a new one is evaluated;
        // freeing it first keeps the two from ever coexisting.
        self.planner.last_graph = None;
        let graph = self
            .planner
            .evaluator
            .evaluate(&self.model, self.now + self.config.plan_lead);
        self.solve_and_actuate(&graph);
        self.planner.reachable = platforms_of(&graph);
        self.planner.last_graph = Some(graph);
        self.record_validation_samples();
    }

    /// Solve against `graph` and actuate the diff (establish commands,
    /// policy-gated withdrawals, route programs).
    fn solve_and_actuate(&mut self, graph: &CandidateGraph) {
        let plan = self.solve(graph);
        let diff = self.intents.diff(&plan);
        self.command_links(diff);
        self.program_routes();
        self.last_plan = Some(plan);
    }

    fn solve(&mut self, graph: &CandidateGraph) -> TopologyPlan {
        // Demand feedback (network-digest role, §3.1): replace each
        // request's static minimum bitrate with the traffic engine's
        // measured-demand EWMA, so the solver's utility weights track
        // what users actually offer through the diurnal cycle. Sites
        // the digest has never observed keep their configured demand.
        if let Some(engine) = self.traffic.engine().filter(|e| e.config().feedback) {
            for req in &mut self.planner.requests {
                if let Some(w) = engine.demand_weight_bps(req.node) {
                    req.min_bitrate_bps = w.max(1);
                }
            }
        }
        self.planner.solver.pair_penalties = if self.config.policy.enactment_feedback {
            self.feedback.penalties(self.now)
        } else {
            BTreeMap::new()
        };
        let previous: BTreeSet<_> = self.intents.live().map(|i| i.key()).collect();
        // Regional sharding: refresh planner ownership from believed
        // positions, then solve per region and merge. Ownership
        // handoffs move only the owner tag — pending route programs,
        // custody designations and demand-feedback EWMAs are keyed by
        // platform in the parts that own them and survive untouched
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
        let Planner {
            solver, requests, ..
        } = &self.planner;
        if sharded {
            crate::sharding::solve_sharded(
                solver,
                &self.regions,
                graph,
                requests,
                &gw,
                &previous,
                &self.drains,
                self.now,
            )
        } else {
            solver.solve(graph, requests, &gw, &previous, &self.drains, self.now)
        }
    }

    /// Command the plan's new links and (policy-gated) withdraw the
    /// ones it no longer wants.
    fn command_links(&mut self, diff: IntentDiff) {
        // Radios already committed to a live intent cannot be tasked
        // again; the withdrawal of the old link (this cycle or a
        // previous one) must complete first, and the next solve will
        // re-issue the establishment.
        let busy: BTreeSet<TransceiverId> = self
            .intents
            .live()
            .flat_map(|i| [i.link.a, i.link.b])
            .collect();
        for link in diff.to_establish {
            if busy.contains(&link.a) || busy.contains(&link.b) {
                continue;
            }
            let iid = self.intents.create(link, self.now);
            let establish = |local: TransceiverId, peer: TransceiverId| {
                let intent_id = iid.0;
                let body = CommandBody::EstablishLink {
                    intent_id,
                    local,
                    peer,
                };
                (local.platform, body)
            };
            let (cpl_id, tte) = self.cdpi.submit_intent(
                vec![establish(link.a, link.b), establish(link.b, link.a)],
                self.now,
            );
            self.enactment.track_cpl_intent(cpl_id, iid);
            self.intents
                .set_state(iid, LinkIntentState::Commanded { tte });
        }
        if !self.config.policy.predictive_withdrawal {
            return;
        }
        for iid in diff.to_withdraw {
            let Some(i) = self.intents.get(iid) else {
                continue;
            };
            let teardown = |p: PlatformId| (p, CommandBody::TeardownLink { intent_id: iid.0 });
            let (cpl_id, _) = self.cdpi.submit_intent(
                vec![teardown(i.link.a.platform), teardown(i.link.b.platform)],
                self.now,
            );
            self.enactment.track_cpl_intent(cpl_id, iid);
            self.intents
                .set_state(iid, LinkIntentState::WithdrawRequested { at: self.now });
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
    fn believed_margin_now(&self, link: &CandidateLink) -> Option<f64> {
        let pos_a = self.model.predicted_position(link.a.platform, self.now)?;
        let pos_b = self.model.predicted_position(link.b.platform, self.now)?;
        let xa = self.model.transceiver(link.a)?;
        let xb = self.model.transceiver(link.b)?;
        // Built from `config.evaluator` in `Planner::new`; `config` is
        // `pub`, but nothing writes it after construction.
        let band = self.planner.bands.get(link.band as usize)?;
        let weather = crate::model::ModelWeather { model: &self.model };
        let rep = band.evaluate(
            xa.pattern.gain_dbi(0.0),
            xb.pattern.gain_dbi(0.0),
            band.path_attenuation(&pos_a, &pos_b, &weather, self.now.as_ms()),
        );
        Some(rep.margin_db)
    }

    /// Record model-vs-measured samples for established links.
    fn record_validation_samples(&mut self) {
        let samples: Vec<ModelErrorSample> = self
            .intents
            .established()
            .filter_map(|i| {
                let mut measured = self.true_margin(i.link.a, i.link.b, i.link.band)?;
                // A tracker locked on the first side lobe measures
                // ~14 dB less signal than boresight — Figure 10's bump.
                if self.enactment.on_sidelobe(i.id) {
                    measured -= 14.0;
                }
                // Ground-station end observes when present (obstruction
                // analysis is per site); otherwise endpoint `a`.
                let gs_end =
                    self.truth.fleet().kind(i.link.b.platform) == PlatformKind::GroundStation;
                let (observer, pointing) = if gs_end {
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
            s.measured_db += self.truth.measurement_noise_db();
            self.validator.record(s);
        }
    }
}

#[cfg(test)]
pub(super) mod tests {
    use super::super::tests::small;
    use super::*;
    use tssdn_link::LinkKind;

    pub(in crate::orchestrator) fn reachable_set_tracks_the_cached_graph() {
        let derived = |o: &Orchestrator| {
            o.planner
                .last_graph
                .as_ref()
                .map(platforms_of)
                .unwrap_or_default()
        };
        let mut o = small();
        // Before any evaluation there is no graph and nobody is
        // potentially operable; a probe must cope.
        assert!(o.planner.last_graph.is_none() && o.planner.reachable.is_empty());
        o.probe(&o.enactment.up_links());
        // Step tick by tick through the morning: scheduled cycles
        // replace the graph, event-driven re-solves lend it out and put
        // it back, and the set must describe it after every one (the
        // same check is a debug_assert at every probe).
        let (mut scheduled, mut event_driven) = (0, 0);
        while o.now() < SimTime::from_hours(10) {
            let (dirty, solve_due) = (o.planner.dirty_since, o.planner.next_solve);
            o.run_until(o.now() + o.config.tick);
            assert_eq!(o.planner.reachable, derived(&o), "at {}", o.now());
            if o.planner.next_solve != solve_due {
                scheduled += 1;
            } else if dirty.is_some() && o.planner.dirty_since.is_none() {
                event_driven += 1;
            }
        }
        assert!(scheduled > 500, "scheduled cycles ran: {scheduled}");
        assert!(event_driven > 0, "an event-driven re-solve ran");
        assert!(
            !o.planner.reachable.is_empty(),
            "the morning graph has links"
        );
    }

    pub(in crate::orchestrator) fn validator_collects_model_error_samples() {
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

    pub(in crate::orchestrator) fn candidate_graph_nonempty_by_day() {
        let mut o = small();
        o.run_until(SimTime::from_hours(10));
        let g = o.evaluate_candidates(o.now());
        assert!(!g.is_empty(), "candidates exist mid-morning");
        assert!(g.num_b2b() + g.num_b2g() == g.len());
    }
}
