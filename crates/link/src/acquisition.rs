//! The link acquisition and maintenance state machine.
//!
//! One instance tracks one *link intent* end-to-end: waiting for the
//! synchronized time-to-enact, slewing both gimbals, the mutual
//! search, establishment (possibly on a side lobe), tracking, and
//! termination — either planned (controller withdrawal) or unexpected
//! (RF fade, lost line of sight, hardware).
//!
//! The orchestrator polls the machine every simulation tick with the
//! *true* physical link condition (from `tssdn-rf` evaluated against
//! weather truth — not the controller's model). The gap between the
//! two is exactly the paper's §5 story.

use rand::Rng;
use rand_chacha::ChaCha8Rng;
use tssdn_sim::{SimDuration, SimTime};

use crate::lifetime::{EndReason, LinkKind};

/// Radio boot + minimum search overhead once slewing completes.
const SEARCH_MIN: SimDuration = SimDuration::from_secs(25);

/// Search attempts before the machine gives up and reports failure.
/// The TS-SDN "retried repeatedly" at intent level; this bounds one
/// enactment.
const MAX_SEARCH_ATTEMPTS: u32 = 3;

/// Margin (dB) below which an *established* link drops. Negative:
/// established links hold below the establish threshold ("establish at
/// 130 km ... maintain to 250+ km").
const HOLD_MARGIN_DB: f64 = -3.0;

/// Margin (dB) required for a search attempt to succeed.
const ESTABLISH_MARGIN_DB: f64 = 0.0;

/// How long the true margin must stay below hold before the link
/// actually drops (local tracking loops ride out short fades).
const FADE_TOLERANCE: SimDuration = SimDuration::from_secs(10);

/// How long the infant hazard applies after establishment.
const INFANT_PERIOD: SimDuration = SimDuration::from_secs(90);

/// Elevated drop hazard right after establishment while the tracking
/// loops settle ("infant mortality"; §2.2's local tracking loops
/// failed most often immediately after the mutual search locked).
/// Per-second probability during [`INFANT_PERIOD`], by link kind:
/// low elevation + ground clutter made fresh B2G locks fragile
/// (Figure 11: 44.8% of B2G links lasted under a minute, against 15%
/// early mortality for B2B).
const fn infant_hazard_per_s(kind: LinkKind) -> f64 {
    match kind {
        LinkKind::B2G => 0.010,
        LinkKind::B2B => 0.0027,
    }
}

/// Tunable acquisition dynamics.
#[derive(Debug, Clone, Copy)]
pub struct AcqConfig {
    /// Additional uniformly-distributed search time on top of the
    /// fixed boot + search overhead.
    pub search_jitter: SimDuration,
    /// Probability a single search attempt locks on, given the true
    /// RF margin is adequate. Models mechanical/tracking misses.
    pub search_success_prob: f64,
    /// Probability an otherwise-successful lock lands on the first
    /// side lobe (−14 dB) instead of the main lobe.
    pub sidelobe_lock_prob: f64,
    /// Per-second probability of a spontaneous hardware drop while
    /// established (radio reboot, gimbal fault).
    pub hardware_hazard_per_s: f64,
}

impl AcqConfig {
    /// Defaults calibrated to the paper's reported behaviour: search
    /// takes "dozens of seconds" with total boot+search "up to 2m30s";
    /// first-attempt success ≈51% (B2G) / 40% (B2B) emerges from
    /// `search_success_prob` combined with model/truth margin misses;
    /// ~5% of locks land on a side lobe (Figure 10's bump).
    pub fn loon_default() -> Self {
        AcqConfig {
            search_jitter: SimDuration::from_secs(50),
            search_success_prob: 0.55,
            sidelobe_lock_prob: 0.05,
            hardware_hazard_per_s: 2.0e-6,
        }
    }
}

/// Current phase of a link intent's enactment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkPhase {
    /// Command accepted; both ends wait for the synchronized TTE.
    Pending { enact_at: SimTime },
    /// Gimbals slewing toward the computed pointing vectors.
    Slewing { until: SimTime },
    /// Mutual search in progress.
    Searching { until: SimTime, attempt: u32 },
    /// Link up and carrying traffic.
    Established { since: SimTime, sidelobe: bool },
    /// Enactment failed (all attempts exhausted or RF infeasible).
    Failed { at: SimTime, reason: EndReason },
    /// Link was up and has terminated.
    Ended { at: SimTime, reason: EndReason },
}

/// A state transition worth reporting to the orchestrator/ledger.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkTransition {
    /// Slewing began (TTE reached).
    EnactStarted { at: SimTime },
    /// A search attempt started.
    AttemptStarted { at: SimTime, attempt: u32 },
    /// The link locked and is established.
    Established { at: SimTime, sidelobe: bool },
    /// A search attempt failed; another will follow.
    AttemptFailed { at: SimTime, attempt: u32 },
    /// The enactment failed permanently.
    Failed { at: SimTime, reason: EndReason },
    /// An established link terminated.
    Ended { at: SimTime, reason: EndReason },
}

/// The per-link state machine. See module docs for the lifecycle.
#[derive(Debug, Clone)]
pub struct LinkStateMachine {
    phase: LinkPhase,
    config: AcqConfig,
    /// [`infant_hazard_per_s`] of the link's kind.
    infant_hazard_per_s: f64,
    /// Worst-endpoint slew duration for this enactment, ms.
    slew_ms: u64,
    /// Last poll instant (for hazard-rate integration).
    last_poll: Option<SimTime>,
    /// Time at which true margin first dipped below hold (None when
    /// margin healthy).
    fade_since: Option<SimTime>,
    /// Scheduled withdrawal instant, if the controller requested
    /// teardown (graceful, at the commanded TTE).
    withdraw_at: Option<SimTime>,
}

impl LinkStateMachine {
    /// Start an enactment of a `kind` link: `enact_at` is the
    /// synchronized TTE, `slew_s` the worse of the two endpoints' slew
    /// times.
    pub fn new(enact_at: SimTime, slew_s: f64, kind: LinkKind, config: AcqConfig) -> Self {
        LinkStateMachine {
            phase: LinkPhase::Pending { enact_at },
            config,
            infant_hazard_per_s: infant_hazard_per_s(kind),
            slew_ms: (slew_s.max(0.0) * 1000.0) as u64,
            last_poll: None,
            fade_since: None,
            withdraw_at: None,
        }
    }

    /// Current phase.
    pub fn phase(&self) -> LinkPhase {
        self.phase
    }

    /// True while the link is carrying traffic.
    pub fn is_established(&self) -> bool {
        matches!(self.phase, LinkPhase::Established { .. })
    }

    /// True when the machine has reached a terminal phase.
    pub fn is_terminal(&self) -> bool {
        matches!(
            self.phase,
            LinkPhase::Failed { .. } | LinkPhase::Ended { .. }
        )
    }

    /// Whether the lock is on a side lobe (only meaningful while
    /// established).
    pub fn on_sidelobe(&self) -> bool {
        matches!(self.phase, LinkPhase::Established { sidelobe: true, .. })
    }

    /// Request graceful teardown (controller-planned withdrawal). The
    /// next poll completes it.
    pub fn withdraw(&mut self) {
        self.withdraw_at = Some(SimTime::ZERO);
    }

    /// Schedule graceful teardown at `at` — teardown commands carry
    /// the intent's TTE so the old link stays up until the replacement
    /// topology's enactment moment (§4.2 "Time to Enact").
    pub fn withdraw_at(&mut self, at: SimTime) {
        // An earlier scheduled withdrawal wins.
        self.withdraw_at = Some(self.withdraw_at.map_or(at, |w| w.min(at)));
    }

    /// Advance the machine to `now`.
    ///
    /// * `true_margin_db` — the real link margin right now (weather
    ///   truth, actual geometry); `None` when line of sight is lost or
    ///   either payload is unpowered.
    /// * `rng` — the deterministic stream for this link's stochastic
    ///   outcomes.
    ///
    /// Returns any transition that occurred.
    pub fn poll(
        &mut self,
        now: SimTime,
        true_margin_db: Option<f64>,
        rng: &mut ChaCha8Rng,
    ) -> Option<LinkTransition> {
        if self.is_terminal() {
            return None;
        }

        // Scheduled withdrawal beats everything once its instant
        // arrives.
        if self.withdraw_at.map(|w| now >= w).unwrap_or(false) {
            let was_established = self.is_established();
            let reason = EndReason::Withdrawn;
            self.phase = if was_established {
                LinkPhase::Ended { at: now, reason }
            } else {
                LinkPhase::Failed { at: now, reason }
            };
            return Some(if was_established {
                LinkTransition::Ended { at: now, reason }
            } else {
                LinkTransition::Failed { at: now, reason }
            });
        }

        match self.phase {
            LinkPhase::Pending { enact_at } => {
                if now >= enact_at {
                    let until = now + SimDuration(self.slew_ms);
                    self.phase = LinkPhase::Slewing { until };
                    Some(LinkTransition::EnactStarted { at: now })
                } else {
                    None
                }
            }
            LinkPhase::Slewing { until } => {
                if now >= until {
                    let until = now + self.search_duration(rng);
                    self.phase = LinkPhase::Searching { until, attempt: 1 };
                    Some(LinkTransition::AttemptStarted {
                        at: now,
                        attempt: 1,
                    })
                } else {
                    None
                }
            }
            LinkPhase::Searching { until, attempt } => {
                if now < until {
                    return None;
                }
                let rf_ok = true_margin_db
                    .map(|m| m >= ESTABLISH_MARGIN_DB)
                    .unwrap_or(false);
                let lock = rf_ok && rng.gen_bool(self.config.search_success_prob);
                if lock {
                    let sidelobe = rng.gen_bool(self.config.sidelobe_lock_prob);
                    self.phase = LinkPhase::Established {
                        since: now,
                        sidelobe,
                    };
                    self.fade_since = None;
                    Some(LinkTransition::Established { at: now, sidelobe })
                } else if attempt >= MAX_SEARCH_ATTEMPTS {
                    let reason = if rf_ok {
                        EndReason::SearchExhausted
                    } else {
                        EndReason::RfInfeasible
                    };
                    self.phase = LinkPhase::Failed { at: now, reason };
                    Some(LinkTransition::Failed { at: now, reason })
                } else {
                    let next = attempt + 1;
                    let until = now + self.search_duration(rng);
                    self.phase = LinkPhase::Searching {
                        until,
                        attempt: next,
                    };
                    Some(LinkTransition::AttemptFailed { at: now, attempt })
                }
            }
            LinkPhase::Established { since, sidelobe } => {
                // Stochastic hazards scale with the time since the
                // last poll so the outcome is tick-rate independent.
                let dt_s = now.since(self.last_poll.unwrap_or(now)).as_secs_f64();
                self.last_poll = Some(now);
                let infant = now.since(since) < INFANT_PERIOD;
                let hazard = self.config.hardware_hazard_per_s
                    + if infant {
                        self.infant_hazard_per_s
                    } else {
                        0.0
                    };
                let p_drop = 1.0 - (-hazard * dt_s).exp();
                if p_drop > 0.0 && rng.gen_bool(p_drop.min(1.0)) {
                    // Infant drops are tracking losses; later drops are
                    // hardware faults.
                    let reason = if infant {
                        EndReason::RfFade
                    } else {
                        EndReason::HardwareFault
                    };
                    self.phase = LinkPhase::Ended { at: now, reason };
                    return Some(LinkTransition::Ended { at: now, reason });
                }
                let healthy = match true_margin_db {
                    Some(m) => {
                        // Side-lobe locks sit ~14 dB down: their
                        // effective margin is reduced accordingly.
                        let eff = if sidelobe { m - 14.0 } else { m };
                        eff >= HOLD_MARGIN_DB
                    }
                    None => false,
                };
                if healthy {
                    self.fade_since = None;
                    None
                } else {
                    let start = *self.fade_since.get_or_insert(now);
                    if now.since(start) >= FADE_TOLERANCE {
                        let reason = if true_margin_db.is_none() {
                            EndReason::LineOfSightLost
                        } else {
                            EndReason::RfFade
                        };
                        self.phase = LinkPhase::Ended { at: now, reason };
                        Some(LinkTransition::Ended { at: now, reason })
                    } else {
                        None
                    }
                }
            }
            LinkPhase::Failed { .. } | LinkPhase::Ended { .. } => None,
        }
    }

    fn search_duration(&self, rng: &mut ChaCha8Rng) -> SimDuration {
        let jitter = rng.gen_range(0..=self.config.search_jitter.as_ms());
        SimDuration(SEARCH_MIN.as_ms() + jitter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tssdn_sim::RngStreams;

    fn rng() -> ChaCha8Rng {
        RngStreams::new(1).stream("acq-test")
    }

    fn drive(
        m: &mut LinkStateMachine,
        margin: impl Fn(SimTime) -> Option<f64>,
        until: SimTime,
        rng: &mut ChaCha8Rng,
    ) -> Vec<LinkTransition> {
        let mut out = Vec::new();
        let mut t = SimTime::ZERO;
        while t <= until {
            if let Some(tr) = m.poll(t, margin(t), rng) {
                out.push(tr);
            }
            t += SimDuration::from_secs(1);
        }
        out
    }

    /// A machine without infant mortality, so that only the rule
    /// under test can end its link.
    fn machine(enact_at: SimTime, slew_s: f64, config: AcqConfig) -> LinkStateMachine {
        LinkStateMachine {
            infant_hazard_per_s: 0.0,
            ..LinkStateMachine::new(enact_at, slew_s, LinkKind::B2B, config)
        }
    }

    fn cfg_deterministic() -> AcqConfig {
        AcqConfig {
            search_success_prob: 1.0,
            sidelobe_lock_prob: 0.0,
            hardware_hazard_per_s: 0.0,
            search_jitter: SimDuration::ZERO,
        }
    }

    #[test]
    fn happy_path_establishes_after_tte_slew_search() {
        let mut m = machine(SimTime::from_secs(60), 9.0, cfg_deterministic());
        let mut r = rng();
        let trs = drive(&mut m, |_| Some(10.0), SimTime::from_secs(200), &mut r);
        assert!(
            matches!(trs[0], LinkTransition::EnactStarted { at } if at == SimTime::from_secs(60))
        );
        assert!(matches!(trs[1], LinkTransition::AttemptStarted { .. }));
        assert!(matches!(
            trs[2],
            LinkTransition::Established {
                sidelobe: false,
                ..
            }
        ));
        assert!(m.is_established());
        // Established at TTE + slew(9s) + SEARCH_MIN(25s) = 94s.
        if let LinkTransition::Established { at, .. } = trs[2] {
            assert_eq!(at, SimTime::from_secs(94));
        }
    }

    #[test]
    fn nothing_happens_before_tte() {
        let mut m = machine(SimTime::from_secs(100), 0.0, cfg_deterministic());
        let mut r = rng();
        let trs = drive(&mut m, |_| Some(10.0), SimTime::from_secs(99), &mut r);
        assert!(trs.is_empty());
        assert!(matches!(m.phase(), LinkPhase::Pending { .. }));
    }

    #[test]
    fn rf_infeasible_fails_after_max_attempts() {
        let mut m = machine(SimTime::ZERO, 0.0, cfg_deterministic());
        let mut r = rng();
        let trs = drive(&mut m, |_| Some(-10.0), SimTime::from_secs(600), &mut r);
        let fails = trs
            .iter()
            .filter(|t| matches!(t, LinkTransition::AttemptFailed { .. }))
            .count();
        assert_eq!(fails, 2, "attempts 1,2 fail then terminal on 3rd");
        assert!(matches!(
            trs.last(),
            Some(LinkTransition::Failed {
                reason: EndReason::RfInfeasible,
                ..
            })
        ));
    }

    #[test]
    fn lost_los_during_search_fails() {
        let mut m = machine(SimTime::ZERO, 0.0, cfg_deterministic());
        let mut r = rng();
        let trs = drive(&mut m, |_| None, SimTime::from_secs(600), &mut r);
        assert!(matches!(
            trs.last(),
            Some(LinkTransition::Failed {
                reason: EndReason::RfInfeasible,
                ..
            })
        ));
    }

    #[test]
    fn stochastic_search_sometimes_needs_retries() {
        // With success prob 0.5, across many machines we should see
        // both first-attempt locks and retries.
        let cfg = AcqConfig {
            search_success_prob: 0.5,
            hardware_hazard_per_s: 0.0,
            ..AcqConfig::loon_default()
        };
        let mut first = 0;
        let mut retried = 0;
        let mut failed = 0;
        let streams = RngStreams::new(5);
        for i in 0..200 {
            let mut m = machine(SimTime::ZERO, 0.0, cfg);
            let mut r = streams.indexed_stream("acq", i);
            let trs = drive(&mut m, |_| Some(10.0), SimTime::from_secs(700), &mut r);
            if m.is_established() {
                let attempts = trs
                    .iter()
                    .filter(|t| {
                        matches!(
                            t,
                            LinkTransition::AttemptStarted { .. }
                                | LinkTransition::AttemptFailed { .. }
                        )
                    })
                    .count();
                if attempts <= 1 {
                    first += 1;
                } else {
                    retried += 1;
                }
            } else {
                failed += 1;
            }
        }
        assert!(first > 50, "many first-attempt locks: {first}");
        assert!(retried > 20, "some retries: {retried}");
        assert!(failed > 5, "some enactments never lock: {failed}");
    }

    #[test]
    fn fade_tolerance_rides_out_short_dips() {
        let mut m = machine(SimTime::ZERO, 0.0, cfg_deterministic());
        let mut r = rng();
        // Establish, then margin dips for 5 s (tolerance is 10 s).
        let margin = |t: SimTime| {
            let s = t.as_ms() / 1000;
            if (100..105).contains(&s) {
                Some(-10.0)
            } else {
                Some(10.0)
            }
        };
        let trs = drive(&mut m, margin, SimTime::from_secs(300), &mut r);
        assert!(m.is_established(), "short fade ridden out: {trs:?}");
    }

    #[test]
    fn sustained_fade_drops_link() {
        let mut m = machine(SimTime::ZERO, 0.0, cfg_deterministic());
        let mut r = rng();
        let margin = |t: SimTime| {
            if t >= SimTime::from_secs(100) {
                Some(-10.0)
            } else {
                Some(10.0)
            }
        };
        let trs = drive(&mut m, margin, SimTime::from_secs(300), &mut r);
        assert!(matches!(
            trs.last(),
            Some(LinkTransition::Ended {
                reason: EndReason::RfFade,
                ..
            })
        ));
        // Drop happens ~FADE_TOLERANCE after the fade began.
        if let Some(LinkTransition::Ended { at, .. }) = trs.last() {
            assert!(*at >= SimTime::from_secs(110) && *at <= SimTime::from_secs(112));
        }
    }

    #[test]
    fn hold_margin_is_laxer_than_establish() {
        // Margin of -1 dB: below establish (0) but above hold (−3).
        let cfg = cfg_deterministic();
        let mut m = machine(SimTime::ZERO, 0.0, cfg);
        let mut r = rng();
        // Start healthy so we establish, then sag to −1 dB.
        let margin = |t: SimTime| {
            if t < SimTime::from_secs(60) {
                Some(5.0)
            } else {
                Some(-1.0)
            }
        };
        drive(&mut m, margin, SimTime::from_secs(400), &mut r);
        assert!(m.is_established(), "link holds below establish margin");
    }

    #[test]
    fn withdrawal_of_established_link_is_planned_end() {
        let mut m = machine(SimTime::ZERO, 0.0, cfg_deterministic());
        let mut r = rng();
        drive(&mut m, |_| Some(10.0), SimTime::from_secs(100), &mut r);
        assert!(m.is_established());
        m.withdraw();
        let tr = m.poll(SimTime::from_secs(101), Some(10.0), &mut r);
        assert!(matches!(
            tr,
            Some(LinkTransition::Ended {
                reason: EndReason::Withdrawn,
                ..
            })
        ));
    }

    #[test]
    fn withdrawal_before_establishment_cancels() {
        let mut m = machine(SimTime::from_secs(1000), 0.0, cfg_deterministic());
        let mut r = rng();
        m.withdraw();
        let tr = m.poll(SimTime::from_secs(1), Some(10.0), &mut r);
        assert!(matches!(
            tr,
            Some(LinkTransition::Failed {
                reason: EndReason::Withdrawn,
                ..
            })
        ));
    }

    #[test]
    fn sidelobe_lock_reduces_effective_hold_margin() {
        let cfg = AcqConfig {
            search_success_prob: 1.0,
            sidelobe_lock_prob: 1.0, // force side-lobe lock
            hardware_hazard_per_s: 0.0,
            search_jitter: SimDuration::ZERO,
        };
        let mut m = machine(SimTime::ZERO, 0.0, cfg);
        let mut r = rng();
        // True margin +5 dB: main-lobe would hold easily, side-lobe
        // effective margin is 5−14 = −9 < hold(−3) → drops.
        let trs = drive(&mut m, |_| Some(5.0), SimTime::from_secs(300), &mut r);
        assert!(trs
            .iter()
            .any(|t| matches!(t, LinkTransition::Established { sidelobe: true, .. })));
        assert!(matches!(
            trs.last(),
            Some(LinkTransition::Ended {
                reason: EndReason::RfFade,
                ..
            })
        ));
    }

    #[test]
    fn poll_after_terminal_is_noop() {
        let mut m = machine(SimTime::ZERO, 0.0, cfg_deterministic());
        let mut r = rng();
        m.withdraw();
        m.poll(SimTime::ZERO, None, &mut r);
        assert!(m.is_terminal());
        assert!(m.poll(SimTime::from_secs(1), Some(10.0), &mut r).is_none());
    }
}
