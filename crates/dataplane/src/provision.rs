//! Northbound provisioning concepts: backhaul service requests and
//! administrative drains.
//!
//! Appendix C "Network Provisioning": the LTE management stack
//! "would automatically request backhaul for a balloon's eNodeB ...
//! The requests specified flow classifier matching rules, the required
//! bandwidth, and the desired path redundancy." A request here carries
//! the node, its EC and the bandwidth; Appendix C's redundancy groups
//! and drain policies are not reproduced (DESIGN.md §5): a drain keeps
//! new paths off a node from its enactment time until it is cancelled.

use std::collections::BTreeMap;
use tssdn_sim::{PlatformId, SimTime};

/// A northbound connectivity request (Appendix B's `c_{x→y}` plus the
/// provisioning attributes of Appendix C).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BackhaulRequest {
    /// The node needing backhaul (balloon with serving eNodeBs).
    pub node: PlatformId,
    /// The EC pod terminating the flow.
    pub ec: PlatformId,
    /// Minimum required bitrate, bps (`b_min`).
    pub min_bitrate_bps: u64,
}

/// One drain request (Appendix C "Administrative Drains").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrainState {
    /// When the drain was requested.
    pub requested: SimTime,
    /// Optional scheduled enactment time (drains "could be specified
    /// with enactment times").
    pub enact_at: Option<SimTime>,
}

/// All active drains.
#[derive(Debug, Clone, Default)]
pub struct DrainRegistry {
    drains: BTreeMap<PlatformId, DrainState>,
}

impl DrainRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Request a drain of `node`.
    pub fn request(&mut self, node: PlatformId, now: SimTime, enact_at: Option<SimTime>) {
        let drain = DrainState {
            requested: now,
            enact_at,
        };
        self.drains.insert(node, drain);
    }

    /// Cancel a drain (maintenance done / aborted).
    pub fn cancel(&mut self, node: PlatformId) {
        self.drains.remove(&node);
    }

    /// The drain state of `node`, if any.
    pub fn get(&self, node: PlatformId) -> Option<DrainState> {
        self.drains.get(&node).copied()
    }

    /// Whether a drain is *active* at `now` (requested and past its
    /// enactment time): the solver keeps every path off an active
    /// drain's node.
    pub fn active(&self, node: PlatformId, now: SimTime) -> bool {
        self.drains
            .get(&node)
            .map(|d| d.enact_at.map(|t| now >= t).unwrap_or(true))
            .unwrap_or(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pid(i: u32) -> PlatformId {
        PlatformId(i)
    }

    #[test]
    fn scheduled_drain_waits_for_enactment() {
        let mut r = DrainRegistry::new();
        r.request(pid(1), SimTime::ZERO, Some(SimTime::from_hours(2)));
        assert!(!r.active(pid(1), SimTime::from_hours(1)));
        assert!(r.active(pid(1), SimTime::from_hours(3)));
    }

    #[test]
    fn force_drain_evicts_immediately() {
        // With no enactment time a drain holds from the next instant:
        // the solver keeps every path off the node, and the re-solve
        // moves its traffic (`dataplane_consistency.rs` follows the
        // eviction through a running world).
        let mut r = DrainRegistry::new();
        r.request(pid(2), SimTime::ZERO, None);
        assert!(r.active(pid(2), SimTime::from_secs(1)));
    }

    #[test]
    fn deter_excludes_new_paths() {
        // A drain keeps new paths off its own node from the request
        // instant on, and off no other node.
        let mut r = DrainRegistry::new();
        r.request(pid(3), SimTime::ZERO, None);
        assert!(r.active(pid(3), SimTime::ZERO));
        assert!(!r.active(pid(5), SimTime::ZERO));
        let state = DrainState {
            requested: SimTime::ZERO,
            enact_at: None,
        };
        assert_eq!(r.get(pid(3)), Some(state));
    }

    #[test]
    fn cancel_restores_normal_state() {
        let mut r = DrainRegistry::new();
        r.request(pid(4), SimTime::ZERO, None);
        r.cancel(pid(4));
        assert!(!r.active(pid(4), SimTime::from_secs(1)));
    }

    #[test]
    fn undrained_nodes_unaffected() {
        let r = DrainRegistry::new();
        assert!(!r.active(pid(9), SimTime::ZERO));
    }
}
