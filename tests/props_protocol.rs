//! Property-based tests on the protocol state machines: link
//! acquisition lifecycle and CDPI frontend invariants under arbitrary
//! timing and margin traces.

use proptest::prelude::*;
use tssdn_cpl::{CdpiConfig, CdpiEvent, CdpiFrontend, CommandBody};
use tssdn_link::{AcqConfig, LinkKind, LinkPhase, LinkStateMachine, LinkTransition, TransceiverId};
use tssdn_sim::{PlatformId, RngStreams, SimDuration, SimTime};

/// Drive a machine over a margin trace sampled every second; return
/// the transition log.
fn drive(
    m: &mut LinkStateMachine,
    margins: &[Option<i32>],
    seed: u64,
) -> Vec<(u64, LinkTransition)> {
    let mut rng = RngStreams::new(seed).stream("prop-acq");
    let mut out = Vec::new();
    for (s, margin) in margins.iter().enumerate() {
        let t = SimTime::from_secs(s as u64);
        if let Some(tr) = m.poll(t, margin.map(|x| x as f64), &mut rng) {
            out.push((s as u64, tr));
        }
    }
    out
}

proptest! {
    /// The machine's transition log always follows the legal grammar:
    /// EnactStarted → AttemptStarted → (AttemptFailed* →) Established?
    /// → (Failed | Ended)?, and nothing after a terminal transition.
    #[test]
    fn machine_transition_grammar(
        margins in prop::collection::vec(prop::option::of(-20i32..20), 30..400),
        enact_s in 0u64..50,
        slew in 0.0f64..20.0,
        seed in 0u64..5000,
    ) {
        let cfg = AcqConfig::loon_default();
        let mut m = LinkStateMachine::new(SimTime::from_secs(enact_s), slew, LinkKind::B2G, cfg);
        let log = drive(&mut m, &margins, seed);

        let mut state = 0; // 0 pending, 1 enacting, 2 searching, 3 up, 4 terminal
        for (_, tr) in &log {
            match tr {
                LinkTransition::EnactStarted { .. } => {
                    prop_assert_eq!(state, 0);
                    state = 1;
                }
                LinkTransition::AttemptStarted { .. } => {
                    prop_assert_eq!(state, 1);
                    state = 2;
                }
                LinkTransition::AttemptFailed { .. } => {
                    prop_assert_eq!(state, 2);
                }
                LinkTransition::Established { .. } => {
                    prop_assert_eq!(state, 2);
                    state = 3;
                }
                LinkTransition::Failed { .. } => {
                    prop_assert!(state <= 2, "Failed only before establishment");
                    state = 4;
                }
                LinkTransition::Ended { .. } => {
                    prop_assert!(state == 3 || state <= 2, "Ended comes from up or withdraw");
                    state = 4;
                }
            }
            prop_assert!(state != 5);
        }
        // Terminal flag agrees with the log.
        let saw_terminal = log.iter().any(|(_, t)| {
            matches!(t, LinkTransition::Failed { .. } | LinkTransition::Ended { .. })
        });
        prop_assert_eq!(m.is_terminal(), saw_terminal);
    }

    /// Nothing ever happens before the TTE.
    #[test]
    fn machine_respects_tte(
        margins in prop::collection::vec(prop::option::of(-20i32..20), 30..200),
        enact_s in 10u64..150,
        seed in 0u64..5000,
    ) {
        let cfg = AcqConfig::loon_default();
        let mut m = LinkStateMachine::new(SimTime::from_secs(enact_s), 0.0, LinkKind::B2G, cfg);
        let log = drive(&mut m, &margins, seed);
        if let Some((t, _)) = log.first() {
            prop_assert!(*t >= enact_s, "first transition at {t} before TTE {enact_s}");
        }
    }

    /// A machine polled with permanently-None margin can never
    /// establish.
    #[test]
    fn no_margin_never_establishes(
        len in 50usize..300,
        seed in 0u64..5000,
    ) {
        let cfg = AcqConfig::loon_default();
        let mut m = LinkStateMachine::new(SimTime::ZERO, 0.0, LinkKind::B2G, cfg);
        let margins = vec![None; len];
        let log = drive(&mut m, &margins, seed);
        let established =
            log.iter().any(|(_, t)| matches!(t, LinkTransition::Established { .. }));
        prop_assert!(!established);
        prop_assert!(!m.is_established());
    }

    /// Withdrawal always terminates the machine, from any phase.
    #[test]
    fn withdrawal_always_terminates(
        margins in prop::collection::vec(prop::option::of(-20i32..20), 10..150),
        withdraw_at in 0usize..150,
        seed in 0u64..5000,
    ) {
        let cfg = AcqConfig::loon_default();
        let mut m = LinkStateMachine::new(SimTime::ZERO, 2.0, LinkKind::B2G, cfg);
        let mut rng = RngStreams::new(seed).stream("prop-acq");
        for (s, margin) in margins.iter().enumerate() {
            if s == withdraw_at.min(margins.len() - 1) {
                m.withdraw();
            }
            m.poll(SimTime::from_secs(s as u64), margin.map(|x| x as f64), &mut rng);
        }
        // One extra poll to flush the withdrawal.
        m.poll(SimTime::from_secs(margins.len() as u64), None, &mut rng);
        prop_assert!(m.is_terminal());
        let still_up = matches!(m.phase(), LinkPhase::Established { .. });
        prop_assert!(!still_up);
    }

    /// CDPI: the TTE is always ≥ now, and in-band reachability of all
    /// recipients yields exactly the 3-second TTE.
    #[test]
    fn cdpi_tte_rules(
        now_s in 0u64..10_000,
        reachable in proptest::bool::ANY,
        seed in 0u64..1000,
    ) {
        let streams = RngStreams::new(seed);
        let mut f = CdpiFrontend::new(CdpiConfig::default(), &streams);
        let now = SimTime::from_secs(now_s);
        if reachable {
            f.inband.set_reachable(PlatformId(1), 2, now);
        }
        let (_, tte) = f.submit_intent(
            vec![(
                PlatformId(1),
                CommandBody::EstablishLink {
                    intent_id: 0,
                    local: TransceiverId::new(PlatformId(1), 0),
                    peer: TransceiverId::new(PlatformId(2), 0),
                },
            )],
            now,
        );
        prop_assert!(tte >= now);
        if reachable {
            prop_assert_eq!(tte, now + SimDuration::from_secs(3));
        } else {
            prop_assert_eq!(tte, now + SimDuration::from_secs(186));
        }
    }

    /// CDPI: every confirmed intent's record has confirmed ≥ submitted,
    /// and each intent is confirmed at most once, regardless of how
    /// reachability flaps.
    #[test]
    fn cdpi_confirmation_uniqueness(
        flaps in prop::collection::vec(proptest::bool::ANY, 10..80),
        seed in 0u64..1000,
    ) {
        let streams = RngStreams::new(seed);
        let mut f = CdpiFrontend::new(CdpiConfig::default(), &streams);
        let mut confirmed_ids = Vec::new();
        let mut next_intent = 0u64;
        for (s, up) in flaps.iter().enumerate() {
            let now = SimTime::from_secs(s as u64 * 5);
            if *up {
                for e in f.node_connected_inband(PlatformId(1), 2, now) {
                    if let CdpiEvent::IntentConfirmed { intent_id, .. } = e {
                        confirmed_ids.push(intent_id);
                    }
                }
            } else {
                f.node_disconnected_inband(PlatformId(1));
            }
            if s % 7 == 0 {
                next_intent += 1;
                f.submit_intent(
                    vec![(
                        PlatformId(1),
                        CommandBody::EstablishLink {
                            intent_id: next_intent,
                            local: TransceiverId::new(PlatformId(1), 0),
                            peer: TransceiverId::new(PlatformId(2), 0),
                        },
                    )],
                    now,
                );
            }
            for e in f.poll(now) {
                if let CdpiEvent::IntentConfirmed { intent_id, .. } = e {
                    confirmed_ids.push(intent_id);
                }
            }
        }
        let mut sorted = confirmed_ids.clone();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), confirmed_ids.len(), "no double confirmation");
        for r in f.records() {
            prop_assert!(r.confirmed >= r.submitted);
        }
    }
}
