//! Seeded, deterministic fault injection for the whole stack.
//!
//! The paper's availability story (§3.2, Figure 6/8) is a story about
//! failure: sites losing power, satcom latency blowing out, balloons
//! dropping off the mesh, commands vanishing in flight. This crate is
//! the single engine that schedules and activates such faults across
//! every substrate the simulator models:
//!
//! * ground-site outages (power/backhaul loss — §2.2's "reliable
//!   power and network connectivity" requirement, violated),
//! * satcom gateway brownouts (latency spikes plus a drop-rate ramp),
//! * in-band partitions (mesh nodes cut off from the controller
//!   despite physical links),
//! * transceiver hardware faults (a gimbal stuck off-target, a radio
//!   rebooting and re-acquiring),
//! * balloon loss and reboot (avionics brownout, flight termination),
//! * command-channel chaos (corruption, duplication, reordering at
//!   the delivery boundary).
//!
//! A [`FaultPlan`] is a schedule of [`FaultWindow`]s, either composed
//! explicitly (directed tests) or generated stochastically from a
//! seed ([`FaultPlan::generate`]). The [`ChaosEngine`] owns the plan
//! at run time: the orchestrator calls [`ChaosEngine::advance`] every
//! tick and consults the active-state queries (`platform_dark`,
//! `transceiver_faulted`, `satcom_disturbance`, …) wherever the
//! corresponding substrate makes a decision. Everything is
//! deterministic: the same (seed, plan) always produces the same run.

use rand::Rng;
use rand_chacha::ChaCha8Rng;
use tssdn_sim::{PlatformId, RngStreams, SimDuration, SimTime};

/// Transceiver-level hardware failure modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransceiverFaultMode {
    /// The gimbal is stuck off-target: the radio cannot close any
    /// link until a (long) maintenance window ends.
    GimbalStuck,
    /// The radio rebooted: a short outage followed by re-acquisition.
    RadioReboot,
}

/// One injectable fault.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultKind {
    /// A ground site loses power/backhaul: its links, MANET gateway
    /// role and EC tunnels all go with it.
    GsOutage {
        /// The dark site.
        site: PlatformId,
    },
    /// The satcom gateway browns out: one-way latencies scale up and
    /// messages start dropping silently, ramping from zero at window
    /// start to `max_drop_prob` at window end.
    SatcomBrownout {
        /// Multiplier on sampled one-way latency (≥ 1).
        latency_scale: f64,
        /// Silent-loss probability at the end of the ramp.
        max_drop_prob: f64,
    },
    /// Listed nodes lose in-band connectivity to the controller even
    /// while their physical links stay up (mesh partition / gRPC
    /// endpoint unreachable). Their data planes keep forwarding on
    /// the last programmed routes — fail-static.
    InbandPartition {
        /// The cut-off nodes.
        nodes: Vec<PlatformId>,
    },
    /// A single transceiver is hardware-faulted: any link using it
    /// sees no signal until the window closes.
    TransceiverFault {
        /// The platform owning the radio.
        platform: PlatformId,
        /// Transceiver index on the platform.
        index: u8,
        /// What broke (drives typical window length in generated
        /// plans; the engine treats both as "radio dark").
        mode: TransceiverFaultMode,
    },
    /// A balloon goes entirely dark (avionics brownout / flight
    /// termination). A closed window is a reboot; an open one is a
    /// permanent loss.
    BalloonLoss {
        /// The lost balloon.
        balloon: PlatformId,
    },
    /// A balloon loss announced in advance: the platform goes dark at
    /// the window start exactly like [`FaultKind::BalloonLoss`], but
    /// the failure is known `lead` ahead of time (battery telemetry
    /// trending toward brownout, a commanded flight termination).
    /// During `[start - lead, start)` the control plane can hand off
    /// custody of any queued store-and-forward bits before the
    /// platform — and its backlog — vanishes.
    BalloonLossWarned {
        /// The doomed balloon.
        balloon: PlatformId,
        /// How far before the window start the loss is known.
        lead: SimDuration,
    },
    /// Command-channel corruption at the delivery boundary: each
    /// delivered command is independently corrupted (receiver
    /// discards it), duplicated, or delivered out of order.
    CommandChaos {
        /// Probability a delivery is corrupted and discarded.
        corrupt_prob: f64,
        /// Probability a delivery arrives twice.
        duplicate_prob: f64,
        /// Probability a poll's delivery batch is reordered.
        reorder_prob: f64,
    },
}

/// A scheduled activation of one fault.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultWindow {
    /// Activation time.
    pub start: SimTime,
    /// Deactivation time; `None` means the fault never clears.
    pub end: Option<SimTime>,
    /// What happens.
    pub kind: FaultKind,
}

impl FaultWindow {
    fn active_at(&self, now: SimTime) -> bool {
        self.start <= now && self.end.map(|e| now < e).unwrap_or(true)
    }
}

/// Tunables for stochastic plan generation.
#[derive(Debug, Clone)]
pub struct PlanConfig {
    /// Faults begin no earlier than this (let the mesh form first).
    pub earliest: SimTime,
    /// Faults begin no later than this.
    pub latest: SimTime,
    /// Expected number of fault windows over `[earliest, latest]`.
    pub expected_faults: usize,
    /// Balloon ids are `0..n_balloons`.
    pub n_balloons: u32,
    /// Ground-site platform ids.
    pub gs_ids: Vec<PlatformId>,
    /// Transceivers per balloon (for picking a faulted radio).
    pub transceivers_per_balloon: u8,
    /// Allow open-ended balloon losses (no reboot). Directed soaks
    /// that assert full recovery turn this off.
    pub allow_permanent_loss: bool,
    /// Allow balloon losses to be drawn as *warned* losses
    /// ([`FaultKind::BalloonLossWarned`]) half the time. Off by
    /// default so pre-existing seeded plans are bit-identical: the
    /// extra RNG draws only happen behind this flag.
    pub warned_loss: bool,
}

impl PlanConfig {
    /// A daytime window for the Kenya-like scenarios: mesh up by
    /// mid-morning, faults over the core of the day.
    pub fn kenya_daytime(n_balloons: u32, gs_ids: Vec<PlatformId>) -> Self {
        PlanConfig {
            earliest: SimTime::from_hours(9),
            latest: SimTime::from_hours(13),
            expected_faults: 6,
            n_balloons,
            gs_ids,
            transceivers_per_balloon: 3,
            allow_permanent_loss: false,
            warned_loss: false,
        }
    }
}

/// A deterministic schedule of fault windows.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// The windows, in no particular order.
    pub windows: Vec<FaultWindow>,
}

impl FaultPlan {
    /// An empty plan (no injected faults).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Append a closed window.
    pub fn with(mut self, start: SimTime, duration: SimDuration, kind: FaultKind) -> Self {
        self.windows.push(FaultWindow {
            start,
            end: Some(start + duration),
            kind,
        });
        self
    }

    /// Append an open-ended window (never clears).
    pub fn with_open(mut self, start: SimTime, kind: FaultKind) -> Self {
        self.windows.push(FaultWindow {
            start,
            end: None,
            kind,
        });
        self
    }

    /// Latest deactivation over all windows, if every window closes.
    pub fn last_clear(&self) -> Option<SimTime> {
        let mut latest = SimTime::ZERO;
        for w in &self.windows {
            latest = latest.max(w.end?);
        }
        Some(latest)
    }

    /// Generate a stochastic plan from a seed. The draw order is
    /// fixed, so equal `(seed, cfg)` always yields equal plans.
    pub fn generate(seed: u64, cfg: &PlanConfig) -> Self {
        let mut rng = RngStreams::new(seed).stream("fault-plan");
        let span_ms = cfg
            .latest
            .as_ms()
            .saturating_sub(cfg.earliest.as_ms())
            .max(1);
        let n = if cfg.expected_faults == 0 {
            0
        } else {
            // ±33% around the expectation.
            let lo = (cfg.expected_faults * 2 / 3).max(1);
            let hi = cfg.expected_faults + cfg.expected_faults / 3 + 1;
            rng.gen_range(lo..hi + 1)
        };
        let mut windows = Vec::new();
        for _ in 0..n {
            let start = cfg.earliest + SimDuration(rng.gen_range(0..span_ms));
            let (kind, duration) = Self::draw_fault(&mut rng, cfg);
            match duration {
                Some(d) => {
                    windows.push(FaultWindow {
                        start,
                        end: Some(start + d),
                        kind,
                    });
                }
                None => windows.push(FaultWindow {
                    start,
                    end: None,
                    kind,
                }),
            }
        }
        FaultPlan { windows }
    }

    fn draw_fault(rng: &mut ChaCha8Rng, cfg: &PlanConfig) -> (FaultKind, Option<SimDuration>) {
        let mins =
            |lo: u64, hi: u64, rng: &mut ChaCha8Rng| SimDuration::from_mins(rng.gen_range(lo..hi));
        // Weighted over substrates; every substrate is represented.
        match rng.gen_range(0..6u32) {
            0 if !cfg.gs_ids.is_empty() => {
                let site = cfg.gs_ids[rng.gen_range(0..cfg.gs_ids.len())];
                (FaultKind::GsOutage { site }, Some(mins(10, 40, rng)))
            }
            1 => (
                FaultKind::SatcomBrownout {
                    latency_scale: rng.gen_range(2.0..6.0),
                    max_drop_prob: rng.gen_range(0.2..0.8),
                },
                Some(mins(10, 30, rng)),
            ),
            2 if cfg.n_balloons > 0 => {
                let k = rng.gen_range(1..(cfg.n_balloons / 2 + 2));
                let mut nodes: Vec<PlatformId> = Vec::new();
                for _ in 0..k {
                    let b = PlatformId(rng.gen_range(0..cfg.n_balloons));
                    if !nodes.contains(&b) {
                        nodes.push(b);
                    }
                }
                (FaultKind::InbandPartition { nodes }, Some(mins(5, 20, rng)))
            }
            3 if cfg.n_balloons > 0 => {
                let platform = PlatformId(rng.gen_range(0..cfg.n_balloons));
                let index = rng.gen_range(0..cfg.transceivers_per_balloon.max(1) as u32) as u8;
                let (mode, d) = if rng.gen_bool(0.5) {
                    (TransceiverFaultMode::GimbalStuck, mins(15, 60, rng))
                } else {
                    (TransceiverFaultMode::RadioReboot, mins(1, 4, rng))
                };
                (
                    FaultKind::TransceiverFault {
                        platform,
                        index,
                        mode,
                    },
                    Some(d),
                )
            }
            4 if cfg.n_balloons > 0 => {
                let balloon = PlatformId(rng.gen_range(0..cfg.n_balloons));
                if cfg.allow_permanent_loss && rng.gen_bool(0.2) {
                    (FaultKind::BalloonLoss { balloon }, None)
                } else if cfg.warned_loss && rng.gen_bool(0.5) {
                    let lead = mins(3, 9, rng);
                    (
                        FaultKind::BalloonLossWarned { balloon, lead },
                        Some(mins(5, 20, rng)),
                    )
                } else {
                    (FaultKind::BalloonLoss { balloon }, Some(mins(5, 20, rng)))
                }
            }
            _ => (
                FaultKind::CommandChaos {
                    corrupt_prob: rng.gen_range(0.05..0.30),
                    duplicate_prob: rng.gen_range(0.05..0.30),
                    reorder_prob: rng.gen_range(0.05..0.30),
                },
                Some(mins(10, 30, rng)),
            ),
        }
    }
}

/// A fault-state change reported by [`ChaosEngine::advance`].
#[derive(Debug, Clone, PartialEq)]
pub enum FaultTransition {
    /// The fault became active at `at`.
    Started {
        /// Activation time.
        at: SimTime,
        /// The fault.
        kind: FaultKind,
    },
    /// The fault cleared at `at`.
    Cleared {
        /// Deactivation time.
        at: SimTime,
        /// The fault.
        kind: FaultKind,
    },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WindowState {
    Pending,
    Active,
    Done,
}

/// The runtime fault engine: owns a plan, tracks which windows are
/// active, and answers substrate queries. No RNG of its own — all
/// stochasticity lives in plan generation and in the substrates.
#[derive(Debug, Clone)]
pub struct ChaosEngine {
    windows: Vec<FaultWindow>,
    states: Vec<WindowState>,
    /// Transition log (time-ordered) for post-run inspection.
    pub log: Vec<FaultTransition>,
}

impl ChaosEngine {
    /// An engine over `plan`.
    pub fn new(plan: FaultPlan) -> Self {
        let states = vec![WindowState::Pending; plan.windows.len()];
        ChaosEngine {
            windows: plan.windows,
            states,
            log: Vec::new(),
        }
    }

    /// An engine with no scheduled faults.
    pub fn idle() -> Self {
        ChaosEngine::new(FaultPlan::new())
    }

    /// Move window states up to `now`; returns the transitions that
    /// fired this call, in schedule order.
    pub fn advance(&mut self, now: SimTime) -> Vec<FaultTransition> {
        let mut fired = Vec::new();
        for (i, w) in self.windows.iter().enumerate() {
            match self.states[i] {
                WindowState::Pending if w.start <= now => {
                    // A window entirely in the past still fires both
                    // transitions (coarse ticks must not skip faults).
                    if w.active_at(now) {
                        self.states[i] = WindowState::Active;
                        fired.push(FaultTransition::Started {
                            at: w.start,
                            kind: w.kind.clone(),
                        });
                    } else {
                        self.states[i] = WindowState::Done;
                        fired.push(FaultTransition::Started {
                            at: w.start,
                            kind: w.kind.clone(),
                        });
                        fired.push(FaultTransition::Cleared {
                            at: w.end.expect("inactive past window must close"),
                            kind: w.kind.clone(),
                        });
                    }
                }
                WindowState::Active if !w.active_at(now) => {
                    self.states[i] = WindowState::Done;
                    fired.push(FaultTransition::Cleared {
                        at: w.end.expect("active window cleared"),
                        kind: w.kind.clone(),
                    });
                }
                _ => {}
            }
        }
        self.log.extend(fired.iter().cloned());
        fired
    }

    /// Force a fault active now (outside the plan). Used by directed
    /// tests.
    pub fn force_start(&mut self, kind: FaultKind, now: SimTime) {
        self.windows.push(FaultWindow {
            start: now,
            end: None,
            kind: kind.clone(),
        });
        self.states.push(WindowState::Active);
        self.log.push(FaultTransition::Started { at: now, kind });
    }

    /// Clear every active window whose kind matches `pred`.
    pub fn force_clear(&mut self, now: SimTime, pred: impl Fn(&FaultKind) -> bool) {
        for (i, w) in self.windows.iter_mut().enumerate() {
            if self.states[i] == WindowState::Active && pred(&w.kind) {
                self.states[i] = WindowState::Done;
                w.end = Some(now);
                self.log.push(FaultTransition::Cleared {
                    at: now,
                    kind: w.kind.clone(),
                });
            }
        }
    }

    fn active(&self) -> impl Iterator<Item = &FaultWindow> {
        self.windows
            .iter()
            .zip(&self.states)
            .filter(|(_, s)| **s == WindowState::Active)
            .map(|(w, _)| w)
    }

    /// Any fault currently active?
    pub fn any_active(&self) -> bool {
        self.states.contains(&WindowState::Active)
    }

    /// Is this ground site dark?
    pub fn gs_dark(&self, p: PlatformId) -> bool {
        self.active()
            .any(|w| matches!(&w.kind, FaultKind::GsOutage { site } if *site == p))
    }

    /// Is this platform dark (site outage or balloon loss)?
    pub fn platform_dark(&self, p: PlatformId) -> bool {
        self.active().any(|w| match &w.kind {
            FaultKind::GsOutage { site } => *site == p,
            FaultKind::BalloonLoss { balloon } => *balloon == p,
            FaultKind::BalloonLossWarned { balloon, .. } => *balloon == p,
            _ => false,
        })
    }

    /// Is this balloon currently *lost* (inside an active loss
    /// window, warned or abrupt)? Stronger than [`Self::platform_dark`]:
    /// a lost balloon's queued store-and-forward backlog dies with it,
    /// whereas a merely-dark platform keeps its buffer.
    pub fn balloon_lost(&self, p: PlatformId) -> bool {
        self.active().any(|w| {
            matches!(&w.kind,
                FaultKind::BalloonLoss { balloon }
                | FaultKind::BalloonLossWarned { balloon, .. } if *balloon == p)
        })
    }

    /// Is a warned balloon loss pending for `p` at `now` — i.e. is
    /// `now` inside some window's `[start - lead, start)` warning
    /// interval? Scans the schedule directly rather than the active
    /// states: a warning is forecast knowledge, visible before the
    /// window activates and independent of tick cadence.
    pub fn loss_warned(&self, p: PlatformId, now: SimTime) -> bool {
        self.windows.iter().any(|w| match &w.kind {
            FaultKind::BalloonLossWarned { balloon, lead } if *balloon == p => {
                now < w.start && w.start.since(now) <= *lead
            }
            _ => false,
        })
    }

    /// Is this specific radio hardware-faulted?
    pub fn transceiver_faulted(&self, p: PlatformId, idx: u8) -> bool {
        self.active().any(|w| {
            matches!(&w.kind,
                FaultKind::TransceiverFault { platform, index, .. }
                    if *platform == p && *index == idx)
        })
    }

    /// Is this node cut off from the controller in-band?
    pub fn inband_partitioned(&self, p: PlatformId) -> bool {
        self.active()
            .any(|w| matches!(&w.kind, FaultKind::InbandPartition { nodes } if nodes.contains(&p)))
    }

    /// Current satcom disturbance: `(latency_scale, drop_prob)` with
    /// the drop probability ramped linearly over each brownout window.
    /// `None` when no brownout is active.
    pub fn satcom_disturbance(&self, now: SimTime) -> Option<(f64, f64)> {
        let mut scale: f64 = 1.0;
        let mut drop: f64 = 0.0;
        let mut any = false;
        for w in self.active() {
            if let FaultKind::SatcomBrownout {
                latency_scale,
                max_drop_prob,
            } = &w.kind
            {
                any = true;
                scale = scale.max(*latency_scale);
                let ramp = match w.end {
                    Some(end) if end > w.start => {
                        now.since(w.start).as_ms() as f64 / end.since(w.start).as_ms() as f64
                    }
                    _ => 1.0,
                };
                drop = drop.max(max_drop_prob * ramp.clamp(0.0, 1.0));
            }
        }
        any.then_some((scale, drop))
    }

    /// Current command-channel chaos: `(corrupt, duplicate, reorder)`
    /// probabilities, maxed over active windows. `None` when quiet.
    pub fn command_chaos(&self) -> Option<(f64, f64, f64)> {
        let mut out: Option<(f64, f64, f64)> = None;
        for w in self.active() {
            if let FaultKind::CommandChaos {
                corrupt_prob,
                duplicate_prob,
                reorder_prob,
            } = &w.kind
            {
                let (c, d, r) = out.unwrap_or((0.0, 0.0, 0.0));
                out = Some((
                    c.max(*corrupt_prob),
                    d.max(*duplicate_prob),
                    r.max(*reorder_prob),
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gs(i: u32) -> PlatformId {
        PlatformId(i)
    }

    #[test]
    fn windows_activate_and_clear_in_order() {
        let plan = FaultPlan::new().with(
            SimTime::from_secs(100),
            SimDuration::from_secs(50),
            FaultKind::GsOutage { site: gs(7) },
        );
        let mut e = ChaosEngine::new(plan);
        assert!(e.advance(SimTime::from_secs(99)).is_empty());
        assert!(!e.gs_dark(gs(7)));
        let t = e.advance(SimTime::from_secs(100));
        assert!(matches!(t[0], FaultTransition::Started { .. }));
        assert!(e.gs_dark(gs(7)) && e.platform_dark(gs(7)) && e.any_active());
        let t = e.advance(SimTime::from_secs(150));
        assert!(matches!(t[0], FaultTransition::Cleared { .. }));
        assert!(!e.gs_dark(gs(7)) && !e.any_active());
    }

    #[test]
    fn coarse_ticks_do_not_skip_short_windows() {
        // A 1-second fault inside a 60-second tick still logs both
        // transitions (though queries between ticks never saw it).
        let plan = FaultPlan::new().with(
            SimTime::from_secs(10),
            SimDuration::from_secs(1),
            FaultKind::BalloonLoss { balloon: gs(1) },
        );
        let mut e = ChaosEngine::new(plan);
        let t = e.advance(SimTime::from_secs(60));
        assert_eq!(t.len(), 2);
        assert!(!e.platform_dark(gs(1)));
    }

    #[test]
    fn open_window_never_clears() {
        let plan =
            FaultPlan::new().with_open(SimTime::ZERO, FaultKind::BalloonLoss { balloon: gs(3) });
        assert_eq!(plan.last_clear(), None);
        let mut e = ChaosEngine::new(plan);
        e.advance(SimTime::ZERO);
        e.advance(SimTime::from_days(10));
        assert!(e.platform_dark(gs(3)));
    }

    #[test]
    fn force_start_and_clear_mirror_the_legacy_outage_api() {
        let mut e = ChaosEngine::idle();
        e.force_start(FaultKind::GsOutage { site: gs(9) }, SimTime::from_secs(5));
        assert!(e.gs_dark(gs(9)));
        e.force_clear(
            SimTime::from_secs(9),
            |k| matches!(k, FaultKind::GsOutage { site } if *site == gs(9)),
        );
        assert!(!e.gs_dark(gs(9)));
        assert_eq!(e.log.len(), 2);
    }

    #[test]
    fn brownout_drop_prob_ramps_linearly() {
        let plan = FaultPlan::new().with(
            SimTime::from_secs(0),
            SimDuration::from_secs(100),
            FaultKind::SatcomBrownout {
                latency_scale: 4.0,
                max_drop_prob: 0.6,
            },
        );
        let mut e = ChaosEngine::new(plan);
        e.advance(SimTime::ZERO);
        let (s0, d0) = e.satcom_disturbance(SimTime::ZERO).expect("active");
        assert_eq!(s0, 4.0);
        assert!(d0 < 1e-9);
        let (_, d_half) = e
            .satcom_disturbance(SimTime::from_secs(50))
            .expect("active");
        assert!((d_half - 0.3).abs() < 1e-9, "{d_half}");
        e.advance(SimTime::from_secs(150));
        assert_eq!(e.satcom_disturbance(SimTime::from_secs(150)), None);
    }

    #[test]
    fn transceiver_faults_are_radio_specific() {
        let plan = FaultPlan::new().with(
            SimTime::ZERO,
            SimDuration::from_secs(60),
            FaultKind::TransceiverFault {
                platform: gs(2),
                index: 1,
                mode: TransceiverFaultMode::GimbalStuck,
            },
        );
        let mut e = ChaosEngine::new(plan);
        e.advance(SimTime::ZERO);
        assert!(e.transceiver_faulted(gs(2), 1));
        assert!(!e.transceiver_faulted(gs(2), 0));
        assert!(!e.transceiver_faulted(gs(3), 1));
        assert!(
            !e.platform_dark(gs(2)),
            "radio fault is not a platform loss"
        );
    }

    #[test]
    fn partition_and_chaos_queries() {
        let plan = FaultPlan::new()
            .with(
                SimTime::ZERO,
                SimDuration::from_secs(60),
                FaultKind::InbandPartition {
                    nodes: vec![gs(1), gs(4)],
                },
            )
            .with(
                SimTime::ZERO,
                SimDuration::from_secs(60),
                FaultKind::CommandChaos {
                    corrupt_prob: 0.1,
                    duplicate_prob: 0.2,
                    reorder_prob: 0.3,
                },
            );
        let mut e = ChaosEngine::new(plan);
        e.advance(SimTime::ZERO);
        assert!(e.inband_partitioned(gs(1)) && e.inband_partitioned(gs(4)));
        assert!(!e.inband_partitioned(gs(2)));
        assert_eq!(e.command_chaos(), Some((0.1, 0.2, 0.3)));
    }

    #[test]
    fn generation_is_deterministic_and_in_bounds() {
        let cfg = PlanConfig::kenya_daytime(8, vec![gs(8), gs(9), gs(10)]);
        let a = FaultPlan::generate(77, &cfg);
        let b = FaultPlan::generate(77, &cfg);
        assert_eq!(a, b, "same seed ⇒ same plan");
        let c = FaultPlan::generate(78, &cfg);
        assert_ne!(a, c, "different seed ⇒ different plan");
        assert!(!a.windows.is_empty());
        for w in &a.windows {
            assert!(w.start >= cfg.earliest && w.start < cfg.latest);
            assert!(w.end.is_some(), "kenya_daytime disallows permanent loss");
            if let FaultKind::TransceiverFault {
                platform, index, ..
            } = &w.kind
            {
                assert!(platform.0 < 8 && *index < 3);
            }
        }
    }

    #[test]
    fn warned_loss_warns_then_darkens_then_clears() {
        let start = SimTime::from_mins(100);
        let plan = FaultPlan::new().with(
            start,
            SimDuration::from_mins(10),
            FaultKind::BalloonLossWarned {
                balloon: gs(2),
                lead: SimDuration::from_mins(5),
            },
        );
        let mut e = ChaosEngine::new(plan);
        // Before the warning interval: nothing.
        let t0 = SimTime::from_mins(94);
        assert!(!e.loss_warned(gs(2), t0) && !e.platform_dark(gs(2)));
        // Inside [start - lead, start): warned but still alive. The
        // warning needs no `advance` — it is forecast knowledge.
        let t1 = SimTime::from_mins(95);
        assert!(e.loss_warned(gs(2), t1));
        assert!(!e.loss_warned(gs(1), t1), "warning is per-balloon");
        e.advance(t1);
        assert!(!e.platform_dark(gs(2)), "warned is not yet dark");
        // At start: dark, no longer warned.
        e.advance(start);
        assert!(!e.loss_warned(gs(2), start));
        assert!(e.platform_dark(gs(2)));
        // After the window: recovered.
        let t2 = SimTime::from_mins(111);
        e.advance(t2);
        assert!(!e.platform_dark(gs(2)) && !e.loss_warned(gs(2), t2));
    }

    #[test]
    fn warned_losses_are_generated_only_behind_the_flag() {
        let quiet = PlanConfig {
            expected_faults: 60,
            ..PlanConfig::kenya_daytime(8, vec![gs(8), gs(9)])
        };
        let warned = PlanConfig {
            warned_loss: true,
            ..quiet.clone()
        };
        let is_warned = |p: &FaultPlan| {
            p.windows
                .iter()
                .filter(|w| matches!(w.kind, FaultKind::BalloonLossWarned { .. }))
                .count()
        };
        assert_eq!(is_warned(&FaultPlan::generate(11, &quiet)), 0);
        let p = FaultPlan::generate(11, &warned);
        assert!(is_warned(&p) > 0, "60 draws must hit a warned loss");
        for w in &p.windows {
            if let FaultKind::BalloonLossWarned { lead, .. } = &w.kind {
                assert!(
                    *lead >= SimDuration::from_mins(3) && *lead < SimDuration::from_mins(9),
                    "lead out of range: {lead}"
                );
                assert!(w.end.is_some(), "warned losses always reboot here");
            }
        }
    }

    #[test]
    fn generated_seeds_cover_multiple_substrates() {
        let cfg = PlanConfig {
            expected_faults: 40,
            ..PlanConfig::kenya_daytime(8, vec![gs(8), gs(9)])
        };
        let plan = FaultPlan::generate(5, &cfg);
        let mut kinds = std::collections::BTreeSet::new();
        for w in &plan.windows {
            kinds.insert(match &w.kind {
                FaultKind::GsOutage { .. } => 0,
                FaultKind::SatcomBrownout { .. } => 1,
                FaultKind::InbandPartition { .. } => 2,
                FaultKind::TransceiverFault { .. } => 3,
                FaultKind::BalloonLoss { .. } => 4,
                FaultKind::BalloonLossWarned { .. } => 4,
                FaultKind::CommandChaos { .. } => 5,
            });
        }
        assert!(kinds.len() >= 4, "40 draws hit most substrates: {kinds:?}");
    }
}
