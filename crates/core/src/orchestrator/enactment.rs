//! Link enactment: what happens between the controller commanding a
//! link and the radios having (or losing) it. One
//! [`LinkStateMachine`] per commanded intent, polled against *true* RF
//! conditions; the stores that tie control-plane intents to controller
//! intents until they are confirmed or expire; and the failure
//! knowledge still in flight toward the controller.

use super::{Orchestrator, UpLinks};
use crate::intent::{IntentId, IntentStore, LinkIntentState};
use std::collections::{BTreeMap, BTreeSet};
use tssdn_link::{EndReason, LinkStateMachine, LinkTransition, TransceiverId};
use tssdn_sim::{PlatformId, PlatformKind, SimDuration, SimTime};
use tssdn_telemetry::BreakCause;

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

/// Recent link-termination memory for break-cause correlation.
#[derive(Debug, Clone, Copy)]
struct RecentTermination {
    at: SimTime,
    planned: bool,
    platforms: (PlatformId, PlatformId),
}

#[derive(Default)]
pub(super) struct Enactment {
    machines: Vec<ActiveMachine>,
    /// cpl intent id → controller intent id, for confirmation wiring.
    /// Entries leave on `Expired` and once their intent can no longer
    /// be live (`prune_confirm_stores`), so the map tracks the live
    /// intents instead of every intent ever commanded.
    cpl_to_intent: BTreeMap<u64, IntentId>,
    /// Side-channel working set: the keys of `cpl_to_intent` not yet
    /// offered to `CdpiFrontend::confirm_intent` by the mesh stage.
    /// One offer is enough — the frontend confirms at most once per
    /// cpl id and answers `None` ever after.
    confirm_unoffered: BTreeSet<u64>,
    /// Pending establish deliveries: intent → endpoints delivered.
    pending_deliveries: BTreeMap<IntentId, (bool, bool, SimTime)>,
    /// Failure knowledge in flight: the controller learns that an
    /// intent ended only after telemetry reaches it — instantly for a
    /// still-connected balloon, minutes via satcom for a cut-off one.
    /// `(learn_at, intent, ended_at, planned)`.
    pending_knowledge: Vec<(SimTime, IntentId, SimTime, bool)>,
    recent_terminations: Vec<RecentTermination>,
}

impl Enactment {
    /// Record that cpl intent `cpl_id` carries commands for `iid`, and
    /// queue it for one side-channel confirmation offer.
    pub(super) fn track_cpl_intent(&mut self, cpl_id: u64, iid: IntentId) {
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
    pub(super) fn prune_confirm_stores(&mut self, intents: &IntentStore) {
        let machines = &self.machines;
        self.cpl_to_intent.retain(|_, iid| {
            intents.get(*iid).is_some_and(|i| i.is_live())
                || machines.iter().any(|m| m.intent == *iid)
        });
        let kept = &self.cpl_to_intent;
        self.confirm_unoffered.retain(|c| kept.contains_key(c));
    }

    /// The cpl ids in-band balloon `b` confirms over the side channel
    /// this tick: its established link intents, ascending, each offered
    /// once. After its first offer the frontend answers `None`
    /// whatever happens, so an offered id leaves the working set here.
    pub(super) fn take_offers(&mut self, intents: &IntentStore, b: PlatformId) -> Vec<u64> {
        let offers: Vec<u64> = self
            .confirm_unoffered
            .iter()
            .copied()
            .filter(|c| {
                intents.get(self.cpl_to_intent[c]).is_some_and(|i| {
                    matches!(i.state, LinkIntentState::Established { .. })
                        && (i.link.a.platform == b || i.link.b.platform == b)
                })
            })
            .collect();
        for c in &offers {
            self.confirm_unoffered.remove(c);
        }
        offers
    }

    /// An establish command for `iid` (whose link joins `ends`) reached
    /// `dest`. Returns the commanded time-to-enact once both endpoints
    /// have theirs — the moment the link machine starts.
    fn establish_delivered(
        &mut self,
        iid: IntentId,
        ends: (PlatformId, PlatformId),
        dest: PlatformId,
        tte: SimTime,
    ) -> Option<SimTime> {
        let e = self
            .pending_deliveries
            .entry(iid)
            .or_insert((false, false, tte));
        if dest == ends.0 {
            e.0 = true;
        }
        if dest == ends.1 {
            e.1 = true;
        }
        let (both, tte) = (e.0 && e.1, e.2);
        if both {
            self.pending_deliveries.remove(&iid);
        }
        both.then_some(tte)
    }

    /// The control plane gave up on cpl intent `cpl_id`: it leaves both
    /// confirm stores. Returns the controller intent it carried.
    fn commands_expired(&mut self, cpl_id: u64) -> Option<IntentId> {
        self.confirm_unoffered.remove(&cpl_id);
        self.cpl_to_intent.remove(&cpl_id)
    }

    /// Physically-up links right now (the radios' view, regardless of
    /// whether the controller has requested withdrawal).
    pub(super) fn up_links(&self) -> UpLinks {
        self.machines
            .iter()
            .filter(|m| m.machine.is_established())
            .map(|m| {
                let (x, y) = (m.a.platform, m.b.platform);
                (x.min(y), x.max(y))
            })
            .collect()
    }

    /// Every established link as `(a, b, band, margin)`, the margin
    /// being the true one `poll_links` measured this tick.
    pub(super) fn established_links(
        &self,
    ) -> impl Iterator<Item = (TransceiverId, TransceiverId, u8, Option<f64>)> + '_ {
        self.machines
            .iter()
            .filter(|m| m.machine.is_established())
            .map(|m| (m.a, m.b, m.band, m.margin))
    }

    /// Whether `iid`'s tracker is locked on a side lobe.
    pub(super) fn on_sidelobe(&self, iid: IntentId) -> bool {
        self.machines
            .iter()
            .any(|m| m.intent == iid && m.machine.on_sidelobe())
    }

    /// Attribute a fresh break to the *earliest* recent termination
    /// that `relevant(a, b)` accepts: a surprise failure commonly
    /// triggers cascade withdrawals seconds later, and the failure —
    /// not the cascade — is what broke the path.
    pub(super) fn break_cause(
        &self,
        relevant: impl Fn(PlatformId, PlatformId) -> bool,
    ) -> BreakCause {
        let mut best: Option<&RecentTermination> = None;
        for t in self
            .recent_terminations
            .iter()
            .filter(|t| relevant(t.platforms.0, t.platforms.1))
        {
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

impl Orchestrator {
    /// Link half of the control-plane events: an establish command
    /// reached one endpoint of `iid`.
    pub(super) fn establish_delivered(&mut self, iid: IntentId, dest: PlatformId, tte: SimTime) {
        let Some(intent) = self.intents.get(iid) else {
            return;
        };
        let ends = (intent.link.a.platform, intent.link.b.platform);
        if let Some(tte) = self.enactment.establish_delivered(iid, ends, dest, tte) {
            self.spawn_machine(iid, tte);
        }
    }

    /// A teardown command for `iid` reached a node.
    pub(super) fn teardown_delivered(&mut self, iid: IntentId, tte: SimTime) {
        if let Some(m) = self.enactment.machines.iter_mut().find(|m| m.intent == iid) {
            // Teardown executes at the commanded TTE so the
            // replacement topology enacts simultaneously.
            m.machine.withdraw_at(tte);
        } else if self.intents.get(iid).is_some_and(|i| i.is_live()) {
            // Never enacted: close the books.
            self.intents.set_state(
                iid,
                LinkIntentState::Ended {
                    at: self.now,
                    planned: true,
                },
            );
        }
    }

    /// Side-channel confirmation of a link intent whose establish
    /// deliveries never completed (a brownout or corrupted frame ate a
    /// copy after the node appeared in-band). Confirmation *is* the
    /// enactment signal: start the link machine now, or the intent
    /// would sit in `Commanded` forever with its commands already
    /// stripped from the retry machinery.
    pub(super) fn link_intent_confirmed(&mut self, cpl_id: u64) {
        let Some(&iid) = self.enactment.cpl_to_intent.get(&cpl_id) else {
            return;
        };
        let commanded = self
            .intents
            .get(iid)
            .map(|i| matches!(i.state, LinkIntentState::Commanded { .. }))
            .unwrap_or(false);
        let e = &mut self.enactment;
        let machine_known = e.machines.iter().any(|m| m.intent == iid)
            || e.pending_knowledge.iter().any(|(_, i, _, _)| *i == iid);
        if commanded && !machine_known {
            let tte = e
                .pending_deliveries
                .remove(&iid)
                .map(|(_, _, t)| t)
                .unwrap_or(self.now);
            self.spawn_machine(iid, tte);
        }
    }

    /// The control plane gave up delivering cpl intent `cpl_id`. If it
    /// carried establish commands for an intent that never came up,
    /// the intent dies and its ledger record closes.
    pub(super) fn link_commands_expired(&mut self, cpl_id: u64) {
        let Some(iid) = self.enactment.commands_expired(cpl_id) else {
            return;
        };
        let undelivered = self.intents.get(iid).is_some_and(|i| {
            i.is_live() && !matches!(i.state, LinkIntentState::Established { .. })
        });
        if !undelivered {
            return;
        }
        self.intents.set_state(
            iid,
            LinkIntentState::Ended {
                at: self.now,
                planned: false,
            },
        );
        let machine = self.enactment.machines.iter().find(|m| m.intent == iid);
        if let Some(lid) = machine
            .map(|m| m.ledger_id)
            .or_else(|| self.ledger_id_for(iid))
        {
            self.ledger
                .record_end(lid, self.now, EndReason::CommandUndeliverable);
        }
        self.enactment.pending_deliveries.remove(&iid);
    }

    /// The open ledger record of an intent that has no link machine
    /// (never enacted): the latest unended record joining its
    /// endpoints.
    fn ledger_id_for(&self, iid: IntentId) -> Option<u64> {
        let intent = self.intents.get(iid)?;
        self.ledger
            .records()
            .iter()
            .rev()
            .find(|r| r.a == intent.link.a && r.b == intent.link.b && r.ended.is_none())
            .map(|r| r.intent_id)
    }

    pub(super) fn spawn_machine(&mut self, iid: IntentId, tte: SimTime) {
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
        for (end, pointing) in [(link.a, link.pointing_a), (link.b, link.pointing_b)] {
            if let Some(t) = self.model.platform_mut(end.platform) {
                if let Some(x) = t.transceivers.get_mut(end.index as usize) {
                    x.pointing = pointing;
                }
            }
        }
        let ledger_id = self.ledger.open(link.a, link.b, link.kind, self.now);
        self.enactment.machines.push(ActiveMachine {
            machine: LinkStateMachine::new(tte, slew_s, link.kind, self.config.acq),
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
    fn detection_delay(&self, a: PlatformId, b: PlatformId) -> SimDuration {
        let inband = |p: PlatformId| {
            self.truth.fleet().kind(p) == PlatformKind::GroundStation
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

    /// Stage `poll_links`: measure every machine's true margin, step
    /// it, and book what changed — ledger, intents, feedback evidence,
    /// mesh edges, recovery trackers, and the knowledge the controller
    /// will receive later.
    pub(super) fn poll_links(&mut self) {
        let mut transitions: Vec<(usize, LinkTransition)> = Vec::new();
        let margins: Vec<Option<f64>> = self
            .enactment
            .machines
            .iter()
            .map(|m| self.true_margin(m.a, m.b, m.band))
            .collect();
        for (i, m) in self.enactment.machines.iter_mut().enumerate() {
            let mut rng = self
                .streams
                .indexed_stream("link-machine", m.ledger_id ^ (self.now.as_ms() << 8));
            m.margin = margins[i];
            if let Some(tr) = m.machine.poll(self.now, margins[i], &mut rng) {
                transitions.push((i, tr));
            }
        }
        for (i, tr) in transitions {
            let m = &self.enactment.machines[i];
            let (ledger_id, intent, a, b) = (m.ledger_id, m.intent, m.a, m.b);
            match tr {
                LinkTransition::EnactStarted { .. } => {}
                // A failed attempt rolls straight into the next
                // search; count it.
                LinkTransition::AttemptStarted { .. } | LinkTransition::AttemptFailed { .. } => {
                    self.ledger.record_attempt(ledger_id);
                }
                LinkTransition::Established { at, sidelobe } => {
                    self.feedback
                        .record_enactment(a.platform, b.platform, true, at);
                    self.ledger.record_established(ledger_id, at, sidelobe);
                    self.intents
                        .set_state(intent, LinkIntentState::Established { at });
                    self.mesh.link_up(a.platform, b.platform, 0.95);
                    self.recovery.link_installed(a.platform);
                    self.recovery.link_installed(b.platform);
                    self.recovery_control.link_installed(a.platform);
                    self.recovery_control.link_installed(b.platform);
                    self.planner.mark_dirty(self.now);
                }
                LinkTransition::Failed { at, reason } => {
                    if !reason.is_planned() {
                        self.feedback
                            .record_enactment(a.platform, b.platform, false, at);
                    }
                    self.ledger.record_end(ledger_id, at, reason);
                    // Enactment failures: the controller learns by
                    // timeout/telemetry after a detection delay.
                    let learn_at = at + self.detection_delay(a.platform, b.platform);
                    self.enactment.pending_knowledge.push((
                        learn_at,
                        intent,
                        at,
                        reason.is_planned(),
                    ));
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
                    self.mesh.link_down(a.platform, b.platform);
                    self.enactment.recent_terminations.push(RecentTermination {
                        at,
                        planned: reason.is_planned(),
                        platforms: (a.platform, b.platform),
                    });
                    if reason.is_planned() {
                        // The controller commanded this; it knows now.
                        self.intents
                            .set_state(intent, LinkIntentState::Ended { at, planned: true });
                        self.planner.mark_dirty(self.now);
                    } else {
                        let learn_at = at + self.detection_delay(a.platform, b.platform);
                        self.enactment
                            .pending_knowledge
                            .push((learn_at, intent, at, false));
                    }
                }
            }
        }
        self.enactment.machines.retain(|m| !m.machine.is_terminal());
    }

    /// Stage `apply_pending_knowledge`: failure knowledge whose
    /// propagation delay has elapsed reaches the controller.
    pub(super) fn apply_pending_knowledge(&mut self) {
        let now = self.now;
        let due: Vec<(IntentId, SimTime, bool)> = self
            .enactment
            .pending_knowledge
            .iter()
            .filter(|(t, _, _, _)| *t <= now)
            .map(|(_, i, at, p)| (*i, *at, *p))
            .collect();
        self.enactment
            .pending_knowledge
            .retain(|(t, _, _, _)| *t > now);
        for (intent, at, planned) in due {
            if self.intents.get(intent).is_some_and(|i| i.is_live()) {
                self.intents
                    .set_state(intent, LinkIntentState::Ended { at, planned });
                self.planner.mark_dirty(now);
            }
        }
    }

    /// Stage `trim`: termination memory shrinks to the break-cause
    /// correlation window.
    pub(super) fn trim(&mut self) {
        let now = self.now;
        self.enactment
            .recent_terminations
            .retain(|t| now.since(t.at) < SimDuration::from_secs(60));
    }
}

#[cfg(test)]
pub(super) mod tests {
    use super::super::tests::{b2g_candidate, small};
    use super::*;
    use tssdn_cpl::CommandBody;

    /// Mid-morning, everything powered, ground stations wired to the
    /// controller, nothing commanded yet.
    fn small_at_ten() -> Orchestrator {
        let mut o = small();
        o.now = SimTime::from_hours(10);
        mesh_tick(&mut o);
        o
    }

    /// Advance the clock one tick and run only the truth and in-band
    /// mesh stages: no control-plane poll, so nothing is confirmed by
    /// acks.
    fn mesh_tick(o: &mut Orchestrator) {
        o.now += o.config.tick;
        o.advance_truth();
        o.update_mesh();
    }

    /// Command a link from balloon 0 to the first ground station the
    /// way the planner does; returns `(intent, establish cpl id,
    /// balloon, ground station)`.
    fn command_b2g(o: &mut Orchestrator) -> (IntentId, u64, PlatformId, PlatformId) {
        let (balloon, gs) = (PlatformId(0), o.fleet().ground_stations[0].id);
        let link = b2g_candidate(balloon, gs);
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
        o.enactment.track_cpl_intent(cpl_id, iid);
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

    pub(in crate::orchestrator) fn intent_established_out_of_band_confirms_once_at_first_inband_tick(
    ) {
        let mut o = small_at_ten();
        let (iid, cpl_id, balloon, gs) = command_b2g(&mut o);
        o.intents
            .set_state(iid, LinkIntentState::Established { at: o.now });
        // No mesh edge: the balloon is out of band, nothing is offered.
        mesh_tick(&mut o);
        mesh_tick(&mut o);
        assert!(o.cdpi.records().is_empty());
        assert!(o.enactment.confirm_unoffered.contains(&cpl_id));
        // The edge appears; the first tick that finds the balloon
        // in-band confirms the intent.
        o.mesh.link_up(balloon, gs, 1.0);
        tick_until_inband(&mut o, balloon);
        assert_eq!(o.cdpi.records().len(), 1, "confirmed at the first tick");
        assert!(
            !o.enactment.confirm_unoffered.contains(&cpl_id),
            "offered once"
        );
        mesh_tick(&mut o);
        mesh_tick(&mut o);
        assert_eq!(o.cdpi.records().len(), 1, "and never again");
    }

    pub(in crate::orchestrator) fn intent_established_in_band_is_offered_at_the_next_tick_only() {
        let mut o = small_at_ten();
        // The balloon is in-band first (a standing link to the site)...
        let (balloon, gs) = (PlatformId(0), o.fleet().ground_stations[0].id);
        o.mesh.link_up(balloon, gs, 1.0);
        tick_until_inband(&mut o, balloon);
        // ...and only then is a link commanded, so connecting does not
        // confirm it; while `Commanded` it is not offered either.
        let (iid, cpl_id, _, _) = command_b2g(&mut o);
        mesh_tick(&mut o);
        assert!(o.cdpi.records().is_empty());
        assert!(o.enactment.confirm_unoffered.contains(&cpl_id));
        o.intents
            .set_state(iid, LinkIntentState::Established { at: o.now });
        mesh_tick(&mut o);
        assert_eq!(o.cdpi.records().len(), 1, "offered at the next tick");
        assert!(!o.enactment.confirm_unoffered.contains(&cpl_id));
        assert!(
            o.enactment.cpl_to_intent.contains_key(&cpl_id),
            "still mapped: the intent is live"
        );
        mesh_tick(&mut o);
        assert_eq!(o.cdpi.records().len(), 1, "a second tick adds none");
    }

    pub(in crate::orchestrator) fn ended_intents_leave_both_confirm_stores() {
        let mut o = small_at_ten();
        let (iid, establish_id, balloon, gs) = command_b2g(&mut o);
        // A withdrawal rides its own cpl intent, mapped to the same
        // controller intent.
        let teardown = CommandBody::TeardownLink { intent_id: iid.0 };
        let (teardown_id, _) = o
            .cdpi
            .submit_intent(vec![(balloon, teardown.clone()), (gs, teardown)], o.now);
        o.enactment.track_cpl_intent(teardown_id, iid);
        o.intents
            .set_state(iid, LinkIntentState::WithdrawRequested { at: o.now });
        mesh_tick(&mut o);
        assert_eq!(o.enactment.cpl_to_intent.len(), 2, "live: both ids kept");
        assert_eq!(o.enactment.confirm_unoffered.len(), 2);

        // Ended, but its link machine still runs and could yet report
        // `Established`: the ids stay until the machine is gone.
        o.spawn_machine(iid, o.now);
        let ended = LinkIntentState::Ended {
            at: o.now,
            planned: true,
        };
        o.intents.set_state(iid, ended);
        mesh_tick(&mut o);
        assert_eq!(o.enactment.cpl_to_intent.len(), 2);
        o.enactment.machines.clear();
        mesh_tick(&mut o);
        for id in [establish_id, teardown_id] {
            assert!(!o.enactment.cpl_to_intent.contains_key(&id));
            assert!(!o.enactment.confirm_unoffered.contains(&id));
        }
    }

    pub(in crate::orchestrator) fn confirm_stores_stay_flat_over_three_days() {
        // ROADMAP's "state size flat across a multi-day run", as data:
        // at every day boundary both stores are bounded by the live
        // intent set (one establish id and the occasional teardown id
        // each), however many intents the run has been through.
        let mut o = Orchestrator::new(super::super::OrchestratorConfig::kenya(12, 7));
        for day in 1..=3 {
            o.run_until(SimTime::from_hours(24 * day));
            let live = o.intents.live().count();
            let ever = o.intents.all().count();
            let e = &o.enactment;
            assert!(ever > 100 * day as usize, "day {day}: a busy run: {ever}");
            assert!(
                e.cpl_to_intent.len() <= 2 * live + 4,
                "day {day}: {} cpl ids mapped for {live} live intents ({ever} ever)",
                e.cpl_to_intent.len()
            );
            assert!(e.confirm_unoffered.len() <= e.cpl_to_intent.len());
            assert!(e
                .confirm_unoffered
                .iter()
                .all(|c| e.cpl_to_intent.contains_key(c)));
        }
    }

    #[test]
    fn machine_starts_when_the_second_endpoint_lands_and_not_on_a_duplicate() {
        let mut e = Enactment::default();
        let (iid, ends) = (IntentId(3), (PlatformId(0), PlatformId(7)));
        let (tte, later) = (SimTime::from_secs(90), SimTime::from_secs(95));
        assert_eq!(e.establish_delivered(iid, ends, ends.0, tte), None);
        assert_eq!(
            e.establish_delivered(iid, ends, ends.0, later),
            None,
            "the same endpoint twice is still one endpoint"
        );
        assert_eq!(
            e.establish_delivered(iid, ends, PlatformId(4), later),
            None,
            "a node that is neither endpoint counts for nothing"
        );
        assert_eq!(
            e.establish_delivered(iid, ends, ends.1, later),
            Some(tte),
            "second endpoint: start, at the first command's time-to-enact"
        );
        assert!(e.pending_deliveries.is_empty(), "and the entry is spent");
        // A copy arriving after the start opens a fresh half-delivered
        // entry; alone it starts nothing.
        assert_eq!(e.establish_delivered(iid, ends, ends.1, later), None);
        // Another intent's deliveries are counted apart.
        assert_eq!(e.establish_delivered(IntentId(4), ends, ends.0, tte), None);
        assert_eq!(e.pending_deliveries.len(), 2);
    }

    #[test]
    fn expired_cpl_id_leaves_both_confirm_stores() {
        let mut e = Enactment::default();
        e.track_cpl_intent(5, IntentId(1));
        e.track_cpl_intent(6, IntentId(2));
        assert_eq!(e.commands_expired(5), Some(IntentId(1)));
        assert!(!e.cpl_to_intent.contains_key(&5) && !e.confirm_unoffered.contains(&5));
        assert!(e.cpl_to_intent.contains_key(&6) && e.confirm_unoffered.contains(&6));
        assert_eq!(e.commands_expired(5), None, "already gone");
        assert_eq!(e.commands_expired(99), None, "never tracked");
        // An id already offered over the side channel still unmaps.
        e.confirm_unoffered.remove(&6);
        assert_eq!(e.commands_expired(6), Some(IntentId(2)));
        assert!(e.cpl_to_intent.is_empty() && e.confirm_unoffered.is_empty());
    }
}
