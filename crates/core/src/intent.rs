//! The intent store: the controller's desired-state ledger for links.
//!
//! "A Link Intent is created by the TS-SDN to indicate its desire for
//! a link between two node's interfaces, and to track the state of the
//! link over time" (Artifact Appendix). The actuation layer diffs the
//! solver's plan against this store to decide which links to command
//! and which to withdraw.

use crate::evaluator::CandidateLink;
use crate::solver::TopologyPlan;
use std::collections::BTreeMap;
use tssdn_link::{LinkKind, TransceiverId};
use tssdn_sim::SimTime;

/// Controller-side link-intent identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct IntentId(pub u64);

impl std::fmt::Display for IntentId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "li{}", self.0)
    }
}

/// Lifecycle of a link intent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkIntentState {
    /// Solver wants it; commands not yet issued.
    Desired,
    /// Establish commands submitted with this TTE.
    Commanded {
        /// The synchronized enactment time.
        tte: SimTime,
    },
    /// The link is up.
    Established {
        /// When it came up.
        at: SimTime,
    },
    /// Withdrawal commands issued (planned teardown).
    WithdrawRequested {
        /// When withdrawal was requested.
        at: SimTime,
    },
    /// Terminal.
    Ended {
        /// When it ended.
        at: SimTime,
        /// Whether the end was controller-planned.
        planned: bool,
    },
}

/// One link intent.
#[derive(Debug, Clone)]
pub struct LinkIntent {
    /// Identity.
    pub id: IntentId,
    /// The candidate this intent enacts (pointing refreshed at
    /// command time).
    pub link: CandidateLink,
    /// Creation time.
    pub created: SimTime,
    /// Current state.
    pub state: LinkIntentState,
}

impl LinkIntent {
    /// Endpoint pairing key.
    pub fn key(&self) -> (TransceiverId, TransceiverId) {
        self.link.key()
    }

    /// Whether the intent is in a live (non-terminal) state.
    pub fn is_live(&self) -> bool {
        !matches!(self.state, LinkIntentState::Ended { .. })
    }

    /// B2B/B2G.
    pub fn kind(&self) -> LinkKind {
        self.link.kind
    }
}

/// What the actuation layer must do after a solve.
#[derive(Debug, Default)]
pub struct IntentDiff {
    /// New links to command.
    pub to_establish: Vec<CandidateLink>,
    /// Live intents no longer wanted — withdraw them.
    pub to_withdraw: Vec<IntentId>,
}

/// The store.
#[derive(Debug, Default)]
pub struct IntentStore {
    intents: BTreeMap<IntentId, LinkIntent>,
    next: u64,
}

impl IntentStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// All intents ever created (the artifact's change-log view).
    pub fn all(&self) -> impl Iterator<Item = &LinkIntent> {
        self.intents.values()
    }

    /// Live (non-ended) intents.
    pub fn live(&self) -> impl Iterator<Item = &LinkIntent> {
        self.intents.values().filter(|i| i.is_live())
    }

    /// Established intents only.
    pub fn established(&self) -> impl Iterator<Item = &LinkIntent> {
        self.intents
            .values()
            .filter(|i| matches!(i.state, LinkIntentState::Established { .. }))
    }

    /// Lookup by id.
    pub fn get(&self, id: IntentId) -> Option<&LinkIntent> {
        self.intents.get(&id)
    }

    /// Create a new intent in `Desired`.
    pub fn create(&mut self, link: CandidateLink, now: SimTime) -> IntentId {
        let id = IntentId(self.next);
        self.next += 1;
        self.intents.insert(
            id,
            LinkIntent {
                id,
                link,
                created: now,
                state: LinkIntentState::Desired,
            },
        );
        id
    }

    /// Transition an intent's state.
    pub fn set_state(&mut self, id: IntentId, state: LinkIntentState) {
        if let Some(i) = self.intents.get_mut(&id) {
            i.state = state;
        }
    }

    /// Diff the solver's plan against live intents.
    ///
    /// * Planned links with no live intent → `to_establish`.
    /// * Live intents whose key is absent from the plan →
    ///   `to_withdraw` (unless withdrawal is already in flight).
    pub fn diff(&self, plan: &TopologyPlan) -> IntentDiff {
        let planned = plan.key_set();
        let live: BTreeMap<_, _> = self.live().map(|i| (i.key(), i.id)).collect();
        let mut d = IntentDiff::default();
        for link in plan.all_links() {
            if !live.contains_key(&link.key()) {
                d.to_establish.push(*link);
            }
        }
        for (key, id) in live {
            if !planned.contains(&key) {
                let st = self.get(id).expect("live").state;
                if !matches!(st, LinkIntentState::WithdrawRequested { .. }) {
                    d.to_withdraw.push(id);
                }
            }
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tssdn_geo::AzEl;
    use tssdn_rf::LinkQuality;
    use tssdn_sim::PlatformId;

    fn cand(a: u32, ai: u8, b: u32, bi: u8) -> CandidateLink {
        CandidateLink {
            a: TransceiverId::new(PlatformId(a), ai),
            b: TransceiverId::new(PlatformId(b), bi),
            kind: LinkKind::B2B,
            band: 0,
            bitrate_bps: 1_000_000_000,
            margin_db: 10.0,
            quality: LinkQuality::Acceptable,
            pointing_a: AzEl::new(0.0, 0.0),
            pointing_b: AzEl::new(180.0, 0.0),
            range_m: 100_000.0,
        }
    }

    fn plan_with(links: Vec<CandidateLink>) -> TopologyPlan {
        TopologyPlan {
            demand_links: links,
            ..Default::default()
        }
    }

    #[test]
    fn lifecycle_transitions() {
        let mut s = IntentStore::new();
        let id = s.create(cand(0, 0, 1, 0), SimTime::ZERO);
        assert_eq!(s.get(id).expect("exists").state, LinkIntentState::Desired);
        s.set_state(
            id,
            LinkIntentState::Commanded {
                tte: SimTime::from_secs(186),
            },
        );
        s.set_state(
            id,
            LinkIntentState::Established {
                at: SimTime::from_secs(250),
            },
        );
        assert_eq!(s.established().count(), 1);
        s.set_state(
            id,
            LinkIntentState::Ended {
                at: SimTime::from_secs(900),
                planned: true,
            },
        );
        assert_eq!(s.live().count(), 0);
        assert_eq!(s.all().count(), 1, "history retained");
    }

    #[test]
    fn diff_establishes_new_links() {
        let s = IntentStore::new();
        let d = s.diff(&plan_with(vec![cand(0, 0, 1, 0)]));
        assert_eq!(d.to_establish.len(), 1);
        assert!(d.to_withdraw.is_empty());
    }

    #[test]
    fn diff_keeps_existing_links() {
        let mut s = IntentStore::new();
        s.create(cand(0, 0, 1, 0), SimTime::ZERO);
        let d = s.diff(&plan_with(vec![cand(0, 0, 1, 0)]));
        assert!(d.to_establish.is_empty());
        assert!(d.to_withdraw.is_empty());
    }

    #[test]
    fn diff_withdraws_unplanned_links() {
        let mut s = IntentStore::new();
        let id = s.create(cand(0, 0, 1, 0), SimTime::ZERO);
        s.set_state(
            id,
            LinkIntentState::Established {
                at: SimTime::from_secs(10),
            },
        );
        let d = s.diff(&plan_with(vec![cand(0, 1, 2, 0)]));
        assert_eq!(d.to_withdraw, vec![id]);
        assert_eq!(d.to_establish.len(), 1);
    }

    #[test]
    fn diff_skips_already_withdrawing() {
        let mut s = IntentStore::new();
        let id = s.create(cand(0, 0, 1, 0), SimTime::ZERO);
        s.set_state(
            id,
            LinkIntentState::WithdrawRequested {
                at: SimTime::from_secs(5),
            },
        );
        let d = s.diff(&plan_with(vec![]));
        assert!(d.to_withdraw.is_empty(), "withdrawal already in flight");
    }

    #[test]
    fn ended_intent_key_can_be_recreated() {
        let mut s = IntentStore::new();
        let id = s.create(cand(0, 0, 1, 0), SimTime::ZERO);
        s.set_state(
            id,
            LinkIntentState::Ended {
                at: SimTime::from_secs(10),
                planned: false,
            },
        );
        let d = s.diff(&plan_with(vec![cand(0, 0, 1, 0)]));
        assert_eq!(d.to_establish.len(), 1, "retry after unplanned end");
        let id2 = s.create(cand(0, 0, 1, 0), SimTime::from_secs(20));
        assert_ne!(id, id2);
        let key = (cand(0, 0, 1, 0).a, cand(0, 0, 1, 0).b);
        assert!(s.live().any(|i| i.key() == key));
    }
}
