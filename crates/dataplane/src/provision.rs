//! Northbound provisioning concepts: backhaul service requests, flow
//! classifiers, redundancy groups, and administrative drains.
//!
//! Appendix C "Network Provisioning": the LTE management stack
//! "would automatically request backhaul for a balloon's eNodeB ...
//! The requests specified flow classifier matching rules, the required
//! bandwidth, and the desired path redundancy. The system was designed
//! to choose topologies and assign routes such that routes with the
//! same redundancy group tag would seek disjoint paths."

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
    /// Redundancy-group tag: requests sharing a tag seek disjoint
    /// paths.
    pub redundancy_group: Option<u32>,
}

/// Drain actuation policy (Appendix C "Administrative Drains").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DrainMode {
    /// Passively wait for the node to naturally lose all traffic,
    /// then latch the drained state.
    Opportunistic,
    /// Bias traffic away from the node until it drains.
    Deter,
    /// Evict traffic immediately.
    Force,
}

/// Lifecycle of one drain request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrainState {
    /// Policy.
    pub mode: DrainMode,
    /// When the drain was requested.
    pub requested: SimTime,
    /// Optional scheduled enactment time (drains "could be specified
    /// with enactment times").
    pub enact_at: Option<SimTime>,
    /// Whether the node has fully drained (latched for Opportunistic).
    pub latched: bool,
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
    pub fn request(
        &mut self,
        node: PlatformId,
        mode: DrainMode,
        now: SimTime,
        enact_at: Option<SimTime>,
    ) {
        self.drains.insert(
            node,
            DrainState {
                mode,
                requested: now,
                enact_at,
                latched: false,
            },
        );
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
    /// enactment time).
    pub fn active(&self, node: PlatformId, now: SimTime) -> bool {
        self.drains
            .get(&node)
            .map(|d| d.enact_at.map(|t| now >= t).unwrap_or(true))
            .unwrap_or(false)
    }

    /// Whether the solver must exclude `node` from *new* paths at
    /// `now`: any active drain excludes new transit; latched and Force
    /// drains exclude everything.
    pub fn excludes_new_paths(&self, node: PlatformId, now: SimTime) -> bool {
        self.active(node, now)
    }

    /// Update latches: an Opportunistic drain latches once the node
    /// carries no traffic (`transit_routes == 0` and `own_flows == 0`).
    /// Returns nodes that latched on this update (ready for
    /// maintenance).
    pub fn update_latches(
        &mut self,
        now: SimTime,
        mut load: impl FnMut(PlatformId) -> (usize, usize),
    ) -> Vec<PlatformId> {
        let mut latched = Vec::new();
        let nodes: Vec<PlatformId> = self.drains.keys().copied().collect();
        for n in nodes {
            let active = self.active(n, now);
            let d = self.drains.get_mut(&n).expect("listed");
            if !active || d.latched {
                continue;
            }
            let (transit, own) = load(n);
            if transit == 0 && own == 0 {
                d.latched = true;
                latched.push(n);
            }
        }
        latched
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
        r.request(
            pid(1),
            DrainMode::Opportunistic,
            SimTime::ZERO,
            Some(SimTime::from_hours(2)),
        );
        assert!(!r.active(pid(1), SimTime::from_hours(1)));
        assert!(r.active(pid(1), SimTime::from_hours(3)));
    }

    #[test]
    fn opportunistic_latches_only_when_traffic_gone() {
        let mut r = DrainRegistry::new();
        r.request(pid(1), DrainMode::Opportunistic, SimTime::ZERO, None);
        // Still carrying traffic.
        let l = r.update_latches(SimTime::from_secs(10), |_| (3, 1));
        assert!(l.is_empty());
        assert!(!r.get(pid(1)).expect("drain").latched);
        // Traffic gone (e.g. nightly power-down, §C: "we could expect
        // every node to become fully disconnected every night").
        let l = r.update_latches(SimTime::from_hours(20), |_| (0, 0));
        assert_eq!(l, vec![pid(1)]);
        assert!(r.get(pid(1)).expect("drain").latched);
    }

    #[test]
    fn force_drain_evicts_immediately() {
        // With no enactment time a Force drain holds from the next
        // instant: the solver keeps every path off the node, and the
        // re-solve moves its traffic (`dataplane_consistency.rs`
        // follows the eviction through a running world).
        let mut r = DrainRegistry::new();
        r.request(pid(2), DrainMode::Force, SimTime::ZERO, None);
        assert!(r.active(pid(2), SimTime::from_secs(1)));
        assert!(r.excludes_new_paths(pid(2), SimTime::from_secs(1)));
    }

    #[test]
    fn deter_excludes_new_paths() {
        let mut r = DrainRegistry::new();
        r.request(pid(3), DrainMode::Deter, SimTime::ZERO, None);
        assert!(r.excludes_new_paths(pid(3), SimTime::from_secs(1)));
    }

    #[test]
    fn cancel_restores_normal_state() {
        let mut r = DrainRegistry::new();
        r.request(pid(4), DrainMode::Deter, SimTime::ZERO, None);
        r.cancel(pid(4));
        assert!(!r.active(pid(4), SimTime::from_secs(1)));
        assert!(!r.excludes_new_paths(pid(4), SimTime::from_secs(1)));
    }

    #[test]
    fn undrained_nodes_unaffected() {
        let r = DrainRegistry::new();
        assert!(!r.active(pid(9), SimTime::ZERO));
        assert!(!r.excludes_new_paths(pid(9), SimTime::ZERO));
    }
}
