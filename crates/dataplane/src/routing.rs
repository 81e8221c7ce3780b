//! Source-destination routing tables.
//!
//! "A primary motivation for the use of full source-destination
//! routing was to make sure that traffic flows stayed on assigned
//! paths to meet resource reservation requirements" (Appendix C).
//! Forwarding state is keyed by the *(source prefix, destination
//! prefix)* pair; a packet that misses has no route — no longest-
//! prefix fallback, exactly as deployed.
//!
//! [`RoutingFabric`] holds every node's table plus the versioning the
//! actuation layer uses to know which nodes carry stale state.

use crate::addressing::NodePrefix;
use std::collections::BTreeMap;
use tssdn_sim::PlatformId;

/// One source-destination forwarding entry on a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteEntry {
    /// Flow source prefix.
    pub src: NodePrefix,
    /// Flow destination prefix.
    pub dst: NodePrefix,
    /// Where this node forwards matching packets.
    pub next_hop: PlatformId,
}

/// One of a node's two forwarding planes. The alternate plane holds
/// the redundant route of a multipath flow, kept apart so primary
/// reprogramming and cleanup never collide with it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Plane {
    /// The flow's assigned path.
    Primary,
    /// The edge-disjoint alternate, when the flow has one.
    Alt,
}

impl Plane {
    /// Both planes, primary first.
    pub const ALL: [Plane; 2] = [Plane::Primary, Plane::Alt];
}

/// A single node's forwarding table: per [`Plane`], the
/// source-destination entries and the version of the last route
/// program applied to that plane. The watermarks are separate because
/// commands for the two planes may arrive in either order: an
/// alternate install must never make a later-arriving primary install
/// look stale, or vice versa.
#[derive(Debug, Clone, Default)]
pub struct RouteTable {
    entries: [BTreeMap<(NodePrefix, NodePrefix), PlatformId>; 2],
    versions: [u64; 2],
}

impl RouteTable {
    /// Install or replace an entry on `plane`.
    pub fn install(&mut self, plane: Plane, e: RouteEntry) {
        self.entries[plane as usize].insert((e.src, e.dst), e.next_hop);
    }

    /// Remove a flow's entry from `plane`, if present.
    pub fn remove(&mut self, plane: Plane, src: NodePrefix, dst: NodePrefix) {
        self.entries[plane as usize].remove(&(src, dst));
    }

    /// Exact source-destination lookup on `plane` — no fallback.
    pub fn lookup(&self, plane: Plane, src: NodePrefix, dst: NodePrefix) -> Option<PlatformId> {
        self.entries[plane as usize].get(&(src, dst)).copied()
    }

    /// Version of the last route program applied to `plane`.
    pub fn version(&self, plane: Plane) -> u64 {
        self.versions[plane as usize]
    }

    /// Stamp `plane` with the version of the program just applied.
    pub fn set_version(&mut self, plane: Plane, version: u64) {
        self.versions[plane as usize] = version;
    }

    /// Number of installed primary entries.
    pub fn len(&self) -> usize {
        self.entries[Plane::Primary as usize].len()
    }

    /// Number of installed alternate-path entries.
    pub fn alt_len(&self) -> usize {
        self.entries[Plane::Alt as usize].len()
    }

    /// True when the table is empty (both planes).
    pub fn is_empty(&self) -> bool {
        self.entries.iter().all(BTreeMap::is_empty)
    }

    /// Drop every entry in both planes (node reset / power cycle).
    pub fn clear(&mut self) {
        self.entries.iter_mut().for_each(BTreeMap::clear);
    }

    /// Iterate the entries of `plane`.
    pub fn entries(&self, plane: Plane) -> impl Iterator<Item = RouteEntry> + '_ {
        self.entries[plane as usize]
            .iter()
            .map(|((src, dst), nh)| RouteEntry {
                src: *src,
                dst: *dst,
                next_hop: *nh,
            })
    }
}

/// All nodes' tables, plus path-level programming helpers.
#[derive(Debug, Clone, Default)]
pub struct RoutingFabric {
    tables: BTreeMap<PlatformId, RouteTable>,
}

impl RoutingFabric {
    /// An empty fabric.
    pub fn new() -> Self {
        Self::default()
    }

    /// The table of `node` (created on first touch).
    pub fn table_mut(&mut self, node: PlatformId) -> &mut RouteTable {
        self.tables.entry(node).or_default()
    }

    /// Read-only table access.
    pub fn table(&self, node: PlatformId) -> Option<&RouteTable> {
        self.tables.get(&node)
    }

    /// Program a bidirectional flow along `path` (node sequence from
    /// the flow's source node to its destination node) on `plane`.
    /// Each hop gets a forward entry; each reverse hop a reverse
    /// entry. `version` stamps that plane of every touched table.
    pub fn program_path(
        &mut self,
        plane: Plane,
        src: NodePrefix,
        dst: NodePrefix,
        path: &[PlatformId],
        version: u64,
    ) {
        assert!(path.len() >= 2, "a path needs at least two nodes");
        for w in path.windows(2) {
            let forward = RouteEntry {
                src,
                dst,
                next_hop: w[1],
            };
            let reverse = RouteEntry {
                src: dst,
                dst: src,
                next_hop: w[0],
            };
            for (node, entry) in [(w[0], forward), (w[1], reverse)] {
                let t = self.table_mut(node);
                t.install(plane, entry);
                t.set_version(plane, version);
            }
        }
    }

    /// Remove a flow's entries everywhere (both planes).
    pub fn withdraw_flow(&mut self, src: NodePrefix, dst: NodePrefix) {
        for plane in Plane::ALL {
            self.withdraw_flow_on(plane, src, dst);
        }
    }

    /// Remove a flow's entries everywhere on one plane, leaving the
    /// other untouched. On [`Plane::Alt`] this is the withdrawal pass
    /// for redundancy loss: the plan kept the flow but dropped its
    /// alternate, so only the alternate plane must be torn down —
    /// otherwise it keeps forwarding onto links the planner no longer
    /// believes in.
    pub fn withdraw_flow_on(&mut self, plane: Plane, src: NodePrefix, dst: NodePrefix) {
        for t in self.tables.values_mut() {
            t.remove(plane, src, dst);
            t.remove(plane, dst, src);
        }
    }

    /// Walk the path programmed on `plane` for a flow starting at
    /// `from`; returns the node sequence if it reaches the node owning
    /// `dst_owner` without loops, checking each hop against
    /// `link_up(a, b)`.
    pub fn trace_flow(
        &self,
        plane: Plane,
        src: NodePrefix,
        dst: NodePrefix,
        from: PlatformId,
        dst_owner: PlatformId,
        mut link_up: impl FnMut(PlatformId, PlatformId) -> bool,
    ) -> Option<Vec<PlatformId>> {
        let mut at = from;
        let mut path = vec![at];
        let mut hops = 0usize;
        while at != dst_owner {
            hops += 1;
            if hops > self.tables.len() + 2 {
                return None; // loop guard
            }
            let nh = self.tables.get(&at)?.lookup(plane, src, dst)?;
            if !link_up(at, nh) {
                return None;
            }
            path.push(nh);
            at = nh;
        }
        Some(path)
    }

    /// Whether any table still routes *through* `node` (drain latch
    /// condition: a drained node must carry no transit entries beyond
    /// its own flows). Counts both planes — a drained node must not
    /// carry alternate-path transit either.
    pub fn routes_via(&self, node: PlatformId) -> usize {
        self.tables
            .iter()
            .filter(|(n, _)| **n != node)
            .flat_map(|(_, t)| Plane::ALL.into_iter().flat_map(|p| t.entries(p)))
            .filter(|e| e.next_hop == node)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::Plane::{Alt, Primary};
    use super::*;
    use crate::addressing::PrefixAllocator;

    fn setup() -> (PrefixAllocator, RoutingFabric) {
        (PrefixAllocator::loon_default(), RoutingFabric::new())
    }

    fn pid(i: u32) -> PlatformId {
        PlatformId(i)
    }

    #[test]
    fn exact_match_no_fallback() {
        let (mut a, mut f) = setup();
        let b0 = a.prefix_for(pid(0));
        let ec = a.prefix_for(pid(9));
        let other = a.prefix_for(pid(1));
        f.program_path(Primary, b0, ec, &[pid(0), pid(5), pid(9)], 1);
        let t = f.table(pid(5)).expect("programmed");
        assert_eq!(t.lookup(Primary, b0, ec), Some(pid(9)));
        assert_eq!(
            t.lookup(Primary, other, ec),
            None,
            "different source: no route"
        );
        assert_eq!(
            t.lookup(Primary, ec, b0),
            Some(pid(0)),
            "reverse programmed"
        );
    }

    #[test]
    fn trace_follows_programmed_path() {
        let (mut a, mut f) = setup();
        let b0 = a.prefix_for(pid(0));
        let ec = a.prefix_for(pid(9));
        f.program_path(Primary, b0, ec, &[pid(0), pid(5), pid(6), pid(9)], 1);
        let path = f.trace_flow(Primary, b0, ec, pid(0), pid(9), |_, _| true);
        assert_eq!(path, Some(vec![pid(0), pid(5), pid(6), pid(9)]));
        let rev = f.trace_flow(Primary, ec, b0, pid(9), pid(0), |_, _| true);
        assert_eq!(rev, Some(vec![pid(9), pid(6), pid(5), pid(0)]));
    }

    #[test]
    fn trace_fails_on_down_link() {
        let (mut a, mut f) = setup();
        let b0 = a.prefix_for(pid(0));
        let ec = a.prefix_for(pid(9));
        f.program_path(Primary, b0, ec, &[pid(0), pid(5), pid(9)], 1);
        let path = f.trace_flow(Primary, b0, ec, pid(0), pid(9), |x, y| {
            !(x == pid(5) && y == pid(9))
        });
        assert_eq!(path, None);
    }

    #[test]
    fn withdraw_removes_both_directions() {
        let (mut a, mut f) = setup();
        let b0 = a.prefix_for(pid(0));
        let ec = a.prefix_for(pid(9));
        f.program_path(Primary, b0, ec, &[pid(0), pid(5), pid(9)], 1);
        f.withdraw_flow(b0, ec);
        assert!(f
            .trace_flow(Primary, b0, ec, pid(0), pid(9), |_, _| true)
            .is_none());
        assert_eq!(f.table(pid(5)).expect("exists").len(), 0);
    }

    #[test]
    fn routes_via_counts_transit() {
        let (mut a, mut f) = setup();
        let b0 = a.prefix_for(pid(0));
        let b1 = a.prefix_for(pid(1));
        let ec = a.prefix_for(pid(9));
        f.program_path(Primary, b0, ec, &[pid(0), pid(5), pid(9)], 1);
        f.program_path(Primary, b1, ec, &[pid(1), pid(5), pid(9)], 1);
        // Entries pointing *to* node 5: 0→5 and 1→5 (forward) plus
        // 9→5 reverse ×2 flows = 4.
        assert_eq!(f.routes_via(pid(5)), 4);
        f.withdraw_flow(b0, ec);
        assert_eq!(f.routes_via(pid(5)), 2);
    }

    #[test]
    fn alt_plane_is_independent_of_primary() {
        let (mut a, mut f) = setup();
        let b0 = a.prefix_for(pid(0));
        let ec = a.prefix_for(pid(9));
        f.program_path(Primary, b0, ec, &[pid(0), pid(5), pid(9)], 1);
        f.program_path(Alt, b0, ec, &[pid(0), pid(6), pid(9)], 1);
        // Both planes trace, along different paths.
        let p = f.trace_flow(Primary, b0, ec, pid(0), pid(9), |_, _| true);
        let alt = f.trace_flow(Alt, b0, ec, pid(0), pid(9), |_, _| true);
        assert_eq!(p, Some(vec![pid(0), pid(5), pid(9)]));
        assert_eq!(alt, Some(vec![pid(0), pid(6), pid(9)]));
        let rev = f.trace_flow(Alt, ec, b0, pid(9), pid(0), |_, _| true);
        assert_eq!(rev, Some(vec![pid(9), pid(6), pid(0)]));
        // Removing the primary leaves the alternate (and vice versa).
        f.table_mut(pid(0)).remove(Primary, b0, ec);
        assert!(f
            .trace_flow(Primary, b0, ec, pid(0), pid(9), |_, _| true)
            .is_none());
        assert!(f
            .trace_flow(Alt, b0, ec, pid(0), pid(9), |_, _| true)
            .is_some());
        assert_eq!(f.table(pid(0)).expect("exists").alt_len(), 1);
    }

    #[test]
    fn alt_plane_respects_link_state_and_withdrawal() {
        let (mut a, mut f) = setup();
        let b0 = a.prefix_for(pid(0));
        let ec = a.prefix_for(pid(9));
        f.program_path(Primary, b0, ec, &[pid(0), pid(5), pid(9)], 1);
        f.program_path(Alt, b0, ec, &[pid(0), pid(6), pid(9)], 1);
        // Alt trace fails over a down alt link; primary is unaffected.
        let alt = f.trace_flow(Alt, b0, ec, pid(0), pid(9), |x, y| {
            !(x == pid(6) && y == pid(9))
        });
        assert_eq!(alt, None);
        assert!(f
            .trace_flow(Primary, b0, ec, pid(0), pid(9), |_, _| true)
            .is_some());
        // Withdrawal clears both planes; transit counts include alt.
        assert_eq!(
            f.routes_via(pid(6)),
            2,
            "alt forward 0→6 plus alt reverse 9→6"
        );
        f.withdraw_flow(b0, ec);
        assert!(f
            .trace_flow(Alt, b0, ec, pid(0), pid(9), |_, _| true)
            .is_none());
        assert_eq!(f.routes_via(pid(6)), 0);
        assert!(f.table(pid(6)).expect("exists").is_empty());
    }

    #[test]
    fn planes_do_not_alias() {
        // Whatever is done to one plane — install, remove, version
        // stamp, fleet-wide withdrawal — the other plane's entries and
        // watermark stay exactly as they were.
        let (mut a, mut f) = setup();
        let b0 = a.prefix_for(pid(0));
        let ec = a.prefix_for(pid(9));
        for (plane, other) in [(Primary, Alt), (Alt, Primary)] {
            f.program_path(other, b0, ec, &[pid(0), pid(6), pid(9)], 7);
            let snapshot = |f: &RoutingFabric| {
                let t = f.table(pid(0)).expect("exists");
                (t.entries(other).collect::<Vec<_>>(), t.version(other))
            };
            let before = snapshot(&f);
            assert_eq!(before.0.len(), 1);

            let e = RouteEntry {
                src: b0,
                dst: ec,
                next_hop: pid(5),
            };
            f.table_mut(pid(0)).install(plane, e);
            assert_eq!(
                f.table(pid(0)).expect("exists").lookup(plane, b0, ec),
                Some(pid(5))
            );
            assert_eq!(snapshot(&f), before, "install on {plane:?}");
            f.table_mut(pid(0)).set_version(plane, 9);
            assert_eq!(snapshot(&f), before, "version stamp on {plane:?}");
            f.table_mut(pid(0)).remove(plane, b0, ec);
            assert_eq!(f.table(pid(0)).expect("exists").lookup(plane, b0, ec), None);
            assert_eq!(snapshot(&f), before, "remove on {plane:?}");
            f.program_path(plane, b0, ec, &[pid(0), pid(5), pid(9)], 11);
            f.withdraw_flow_on(plane, b0, ec);
            assert!(f
                .trace_flow(plane, b0, ec, pid(0), pid(9), |_, _| true)
                .is_none());
            assert_eq!(snapshot(&f), before, "withdrawal on {plane:?}");
            assert_eq!(
                f.trace_flow(other, b0, ec, pid(0), pid(9), |_, _| true),
                Some(vec![pid(0), pid(6), pid(9)])
            );
            f.withdraw_flow(b0, ec);
        }
    }

    #[test]
    fn loop_guard_terminates() {
        let (mut a, mut f) = setup();
        let b0 = a.prefix_for(pid(0));
        let ec = a.prefix_for(pid(9));
        // Manually create a loop 0→5→0.
        f.table_mut(pid(0)).install(
            Primary,
            RouteEntry {
                src: b0,
                dst: ec,
                next_hop: pid(5),
            },
        );
        f.table_mut(pid(5)).install(
            Primary,
            RouteEntry {
                src: b0,
                dst: ec,
                next_hop: pid(0),
            },
        );
        assert_eq!(
            f.trace_flow(Primary, b0, ec, pid(0), pid(9), |_, _| true),
            None
        );
    }
}
