//! Shared types: node ids, the dynamic topology, the protocol trait,
//! and the send context protocols use to emit control messages.

use tssdn_sim::{PlatformId, SimTime};

/// A MANET node. Aliases the fleet's platform id so the layers above
/// can map balloons/ground stations directly onto routing nodes.
pub type NodeId = PlatformId;

/// Interns node ids to dense slots `0..n` in first-seen order: the
/// O(1) id → slot step under [`Topology`] and the BATMAN tables.
/// Storage grows with the number of ids interned, never with their
/// values — `PlatformId(u32::MAX)` costs one slot like any other.
#[derive(Debug, Clone)]
pub(crate) struct NodeIndex {
    /// Slot → id.
    ids: Vec<NodeId>,
    /// Open-addressed `(id, slot)` buckets with linear probing; a
    /// power-of-two count, at least twice `ids.len()`.
    buckets: Vec<(u32, u32)>,
}

/// Slot value of an unoccupied bucket.
const VACANT: u32 = u32::MAX;

impl Default for NodeIndex {
    fn default() -> Self {
        NodeIndex {
            ids: Vec::new(),
            buckets: vec![(0, VACANT); 8],
        }
    }
}

impl NodeIndex {
    /// First bucket to probe for `id`: a multiplicative hash folded
    /// onto the low bits, so dense and strided ids both spread.
    #[inline]
    fn home(&self, id: NodeId) -> usize {
        let h = id.0.wrapping_mul(0x9E37_79B9);
        (h ^ (h >> 16)) as usize & (self.buckets.len() - 1)
    }

    /// The id interned at `slot`.
    pub(crate) fn id(&self, slot: usize) -> NodeId {
        self.ids[slot]
    }

    /// The slot of `id`, if interned.
    #[inline]
    pub(crate) fn get(&self, id: NodeId) -> Option<usize> {
        let mask = self.buckets.len() - 1;
        let mut i = self.home(id);
        loop {
            let (key, slot) = self.buckets[i];
            if slot == VACANT {
                return None;
            }
            if key == id.0 {
                return Some(slot as usize);
            }
            i = (i + 1) & mask;
        }
    }

    /// The slot of `id`, interning it at the next free slot when new.
    pub(crate) fn intern(&mut self, id: NodeId) -> usize {
        if let Some(slot) = self.get(id) {
            return slot;
        }
        let slot = self.ids.len();
        assert!(slot < VACANT as usize, "node slots exhausted");
        self.ids.push(id);
        if self.ids.len() * 2 > self.buckets.len() {
            self.buckets = vec![(0, VACANT); self.buckets.len() * 2];
            for s in 0..slot {
                self.place(self.ids[s], s);
            }
        }
        self.place(id, slot);
        slot
    }

    /// Put `id → slot` in the first vacant bucket of `id`'s probe run.
    fn place(&mut self, id: NodeId, slot: usize) {
        let mask = self.buckets.len() - 1;
        let mut i = self.home(id);
        while self.buckets[i].1 != VACANT {
            i = (i + 1) & mask;
        }
        self.buckets[i] = (id.0, slot as u32);
    }
}

/// The instantaneous link-layer adjacency the MANET runs over.
///
/// Link quality is a delivery probability in `(0, 1]`, playing the
/// role of batman-adv's TQ. Nodes and each node's neighbors are kept
/// sorted by id, so iteration order is deterministic and independent
/// of the order nodes and links were added in — the harness's tick
/// order and per-broadcast loss draws rely on it.
#[derive(Debug, Clone, Default)]
pub struct Topology {
    index: NodeIndex,
    /// Node ids, ascending.
    sorted: Vec<NodeId>,
    /// Per slot of `index`: `(neighbor, quality)`, ascending by
    /// neighbor id.
    adj: Vec<Vec<(NodeId, f64)>>,
    /// Bumped by every `set_link` / `remove_link`: while it stands
    /// still, a quality read off this topology is still the link's.
    revision: u64,
}

impl Topology {
    /// An empty topology.
    pub fn new() -> Self {
        Self::default()
    }

    /// Ensure a node exists (it may have no links yet).
    pub fn add_node(&mut self, n: NodeId) {
        self.slot(n);
    }

    /// The slot of `n`, adding the node when new.
    fn slot(&mut self, n: NodeId) -> usize {
        let slot = self.index.intern(n);
        if slot == self.adj.len() {
            self.adj.push(Vec::new());
            let at = self.sorted.partition_point(|m| *m < n);
            self.sorted.insert(at, n);
        }
        slot
    }

    /// Install or update a bidirectional link with delivery quality
    /// `q` in `(0, 1]`.
    pub fn set_link(&mut self, a: NodeId, b: NodeId, q: f64) {
        assert!(a != b, "no self links");
        let q = q.clamp(0.0, 1.0);
        self.revision += 1;
        let (sa, sb) = (self.slot(a), self.slot(b));
        for (list, peer) in [(sa, b), (sb, a)] {
            let list = &mut self.adj[list];
            match list.binary_search_by_key(&peer, |e| e.0) {
                Ok(i) => list[i].1 = q,
                Err(i) => list.insert(i, (peer, q)),
            }
        }
    }

    /// Remove a link if present.
    pub fn remove_link(&mut self, a: NodeId, b: NodeId) {
        self.revision += 1;
        for (n, peer) in [(a, b), (b, a)] {
            if let Some(s) = self.index.get(n) {
                self.adj[s].retain(|e| e.0 != peer);
            }
        }
    }

    /// All nodes, ascending by id.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.sorted.iter().copied()
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.sorted.len()
    }

    /// How many link changes this topology has seen. Equal revisions
    /// mean every link has the quality it had.
    #[inline]
    pub(crate) fn revision(&self) -> u64 {
        self.revision
    }

    /// Neighbors of `n` with link qualities, ascending by id.
    pub fn neighbors(&self, n: NodeId) -> impl Iterator<Item = (NodeId, f64)> + '_ {
        self.neighbor_slice(n).iter().copied()
    }

    /// [`Topology::neighbors`] as the stored slice.
    #[inline]
    pub(crate) fn neighbor_slice(&self, n: NodeId) -> &[(NodeId, f64)] {
        self.index.get(n).map_or(&[][..], |s| &self.adj[s])
    }

    /// Quality of the `a`–`b` link, if linked.
    #[inline]
    pub fn quality(&self, a: NodeId, b: NodeId) -> Option<f64> {
        self.neighbors(a).find(|e| e.0 == b).map(|e| e.1)
    }

    /// Whether `a` and `b` share a direct link.
    pub fn linked(&self, a: NodeId, b: NodeId) -> bool {
        self.quality(a, b).is_some()
    }

    /// Number of (undirected) links.
    pub fn num_links(&self) -> usize {
        self.adj.iter().map(Vec::len).sum::<usize>() / 2
    }

    /// Whether a path exists from `a` to `b` in the raw adjacency
    /// (ground truth, independent of any protocol's tables).
    pub fn connected(&self, a: NodeId, b: NodeId) -> bool {
        if a == b {
            return true;
        }
        let Some(start) = self.index.get(a) else {
            return false;
        };
        let mut seen = vec![false; self.adj.len()];
        seen[start] = true;
        let mut stack = vec![start];
        while let Some(s) = stack.pop() {
            for &(m, _) in &self.adj[s] {
                if m == b {
                    return true;
                }
                let ms = self.index.get(m).expect("neighbors are nodes");
                if !std::mem::replace(&mut seen[ms], true) {
                    stack.push(ms);
                }
            }
        }
        false
    }
}

/// Outbound control traffic a protocol emits during a callback. The
/// harness turns these into per-neighbor deliveries with loss.
#[derive(Debug)]
pub struct Ctx<M> {
    /// `(from, Some(neighbor), msg, bytes)` for unicast;
    /// `(from, None, msg, bytes)` for one-hop broadcast.
    pub(crate) outbox: Vec<(NodeId, Option<NodeId>, M, usize)>,
}

impl<M> Default for Ctx<M> {
    fn default() -> Self {
        Self { outbox: Vec::new() }
    }
}

impl<M> Ctx<M> {
    /// Broadcast `msg` to all current one-hop neighbors of `from`.
    pub fn broadcast(&mut self, from: NodeId, msg: M, bytes: usize) {
        self.outbox.push((from, None, msg, bytes));
    }

    /// Unicast `msg` to a specific neighbor.
    pub fn unicast(&mut self, from: NodeId, to: NodeId, msg: M, bytes: usize) {
        self.outbox.push((from, Some(to), msg, bytes));
    }

    /// Whether nothing is queued.
    pub(crate) fn is_empty(&self) -> bool {
        self.outbox.is_empty()
    }

    /// Take everything queued so far, in emission order, as
    /// `(from, target, msg, bytes)` with `target` `None` for a
    /// broadcast. The allocation stays with the context, so a harness
    /// can lend one `Ctx` to every callback.
    pub fn drain(&mut self) -> impl Iterator<Item = (NodeId, Option<NodeId>, M, usize)> + '_ {
        self.outbox.drain(..)
    }
}

/// A MANET routing protocol under test.
///
/// The harness calls `on_tick` for every node each protocol interval
/// and `on_message` for each delivered control message. Routing state
/// must be derived *only* from those callbacks — protocols have no
/// direct view of [`Topology`].
pub trait ManetProtocol {
    /// The protocol's control-message type.
    type Msg: Clone;

    /// Human-readable protocol name for reports.
    fn name(&self) -> &'static str;

    /// Register a node before the simulation starts.
    fn add_node(&mut self, node: NodeId);

    /// Periodic processing for `node` (emit HELLOs/OGMs/dumps, expire
    /// state).
    fn on_tick(&mut self, now: SimTime, node: NodeId, ctx: &mut Ctx<Self::Msg>);

    /// A control message arrived at `node` from direct neighbor
    /// `from` over a link whose current quality is `link_q`.
    fn on_message(
        &mut self,
        now: SimTime,
        node: NodeId,
        from: NodeId,
        link_q: f64,
        msg: Self::Msg,
        ctx: &mut Ctx<Self::Msg>,
    );

    /// Declare that `node` wants a route to `dest` (drives on-demand
    /// protocols; proactive ones may ignore it).
    fn want_route(&mut self, _now: SimTime, _node: NodeId, _dest: NodeId) {}

    /// The next hop `node` would forward a packet for `dest` to, if
    /// its tables contain a usable route.
    fn next_hop(&self, node: NodeId, dest: NodeId) -> Option<NodeId>;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        PlatformId(i)
    }

    #[test]
    fn topology_link_crud() {
        let mut t = Topology::new();
        t.set_link(n(0), n(1), 0.9);
        assert!(t.linked(n(0), n(1)));
        assert!(t.linked(n(1), n(0)));
        assert_eq!(t.quality(n(0), n(1)), Some(0.9));
        assert_eq!(t.num_links(), 1);
        t.remove_link(n(0), n(1));
        assert!(!t.linked(n(0), n(1)));
        assert_eq!(t.num_links(), 0);
        assert_eq!(t.num_nodes(), 2, "nodes survive link removal");
    }

    #[test]
    #[should_panic(expected = "no self links")]
    fn self_links_rejected() {
        let mut t = Topology::new();
        t.set_link(n(0), n(0), 1.0);
    }

    #[test]
    fn connectivity_ground_truth() {
        let mut t = Topology::new();
        t.set_link(n(0), n(1), 1.0);
        t.set_link(n(1), n(2), 1.0);
        t.add_node(n(3));
        assert!(t.connected(n(0), n(2)));
        assert!(t.connected(n(0), n(0)));
        assert!(!t.connected(n(0), n(3)));
    }

    #[test]
    fn neighbors_iterate_deterministically() {
        let mut t = Topology::new();
        t.set_link(n(5), n(2), 1.0);
        t.set_link(n(5), n(9), 1.0);
        t.set_link(n(5), n(1), 1.0);
        let order: Vec<u32> = t.neighbors(n(5)).map(|(m, _)| m.0).collect();
        assert_eq!(order, vec![1, 2, 9], "BTree order");
    }

    #[test]
    fn node_index_round_trips_through_growth_and_collisions() {
        // Strided ids (many share low bits) plus the ends of the id
        // space, enough of them to regrow the table several times.
        let ids: Vec<NodeId> = (0..500u32)
            .map(|i| n(i.wrapping_mul(1 << 20)))
            .chain([n(u32::MAX), n(u32::MAX - 1), n(1)])
            .collect();
        let mut distinct: Vec<NodeId> = Vec::new();
        let mut index = NodeIndex::default();
        for &id in &ids {
            let slot = index.intern(id);
            if !distinct.contains(&id) {
                assert_eq!(slot, distinct.len(), "next free slot");
                distinct.push(id);
            }
            assert_eq!(distinct[slot], id);
        }
        for (slot, &id) in distinct.iter().enumerate() {
            assert_eq!(index.get(id), Some(slot));
            assert_eq!(index.id(slot), id);
        }
        assert_eq!(index.get(n(12_345)), None);
        assert!(
            index.buckets.len() <= 4 * distinct.len(),
            "sized by count: {} buckets for {} ids",
            index.buckets.len(),
            distinct.len()
        );
    }

    #[test]
    fn node_order_is_by_id_whatever_the_insertion_order() {
        let mut t = Topology::new();
        for i in [7, u32::MAX, 0, 3] {
            t.add_node(n(i));
        }
        t.set_link(n(5), n(3), 1.0); // adds 5 mid-way
        let order: Vec<u32> = t.nodes().map(|m| m.0).collect();
        assert_eq!(order, vec![0, 3, 5, 7, u32::MAX]);
        assert_eq!(t.num_nodes(), 5);
    }

    #[test]
    fn ctx_collects_outbox() {
        let mut c: Ctx<&'static str> = Ctx::default();
        c.broadcast(n(0), "ogm", 24);
        c.unicast(n(1), n(2), "rrep", 32);
        assert_eq!(c.outbox.len(), 2);
        assert!(c.outbox[0].1.is_none());
        assert_eq!(c.outbox[1].1, Some(n(2)));
    }
}
