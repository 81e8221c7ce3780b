//! Appendix D's in-band mesh as a specification: the BATMAN
//! originator-message flood over nested `BTreeMap`s, driven by a
//! harness that queues every copy on one `EventQueue` and draws its
//! loss from the `manet-loss` stream. `tssdn_manet::{Harness, Batman}`
//! must make the same callbacks in the same order with the same draws
//! (DESIGN.md §2). The protocol trait, `Ctx` and `OverheadStats` come
//! from `tssdn-manet`, so its `Aodv` / `Dsdv` / `Olsr` run under this
//! harness too.

use rand::Rng;
use rand_chacha::ChaCha8Rng;
use std::collections::{BTreeMap, BTreeSet};
use tssdn_manet::{Ctx, ManetProtocol, NodeId, OverheadStats};
use tssdn_sim::{EventQueue, RngStreams, SimDuration, SimTime};

/// The instantaneous link-layer adjacency the MANET runs over.
///
/// Link quality is a delivery probability in `(0, 1]`, playing the
/// role of batman-adv's TQ. BTree containers keep iteration order
/// deterministic.
#[derive(Debug, Clone, Default)]
pub struct Topology {
    edges: BTreeMap<NodeId, BTreeMap<NodeId, f64>>,
    nodes: BTreeSet<NodeId>,
}

impl Topology {
    /// An empty topology.
    pub fn new() -> Self {
        Self::default()
    }

    /// Ensure a node exists (it may have no links yet).
    pub fn add_node(&mut self, n: NodeId) {
        self.nodes.insert(n);
        self.edges.entry(n).or_default();
    }

    /// Install or update a bidirectional link with delivery quality
    /// `q` in `(0, 1]`.
    pub fn set_link(&mut self, a: NodeId, b: NodeId, q: f64) {
        assert!(a != b, "no self links");
        let q = q.clamp(0.0, 1.0);
        self.add_node(a);
        self.add_node(b);
        self.edges.get_mut(&a).expect("added").insert(b, q);
        self.edges.get_mut(&b).expect("added").insert(a, q);
    }

    /// Remove a link if present.
    pub fn remove_link(&mut self, a: NodeId, b: NodeId) {
        if let Some(m) = self.edges.get_mut(&a) {
            m.remove(&b);
        }
        if let Some(m) = self.edges.get_mut(&b) {
            m.remove(&a);
        }
    }

    /// All nodes.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes.iter().copied()
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Neighbors of `n` with link qualities.
    pub fn neighbors(&self, n: NodeId) -> impl Iterator<Item = (NodeId, f64)> + '_ {
        self.edges
            .get(&n)
            .into_iter()
            .flat_map(|m| m.iter().map(|(k, v)| (*k, *v)))
    }

    /// Quality of the `a`–`b` link, if linked.
    pub fn quality(&self, a: NodeId, b: NodeId) -> Option<f64> {
        self.edges.get(&a).and_then(|m| m.get(&b)).copied()
    }

    /// Whether `a` and `b` share a direct link.
    pub fn linked(&self, a: NodeId, b: NodeId) -> bool {
        self.quality(a, b).is_some()
    }
}

/// One in-flight control message.
#[derive(Debug, Clone)]
struct Delivery<M> {
    to: NodeId,
    from: NodeId,
    msg: M,
}

/// The harness binding a protocol implementation to a dynamic
/// topology.
pub struct Harness<P: ManetProtocol> {
    proto: P,
    topo: Topology,
    queue: EventQueue<Delivery<P::Msg>>,
    rng: ChaCha8Rng,
    now: SimTime,
    next_tick: SimTime,
    /// Interval between protocol ticks.
    pub tick_interval: SimDuration,
    /// One-hop control-message latency.
    pub hop_latency: SimDuration,
    overhead: OverheadStats,
}

impl<P: ManetProtocol> Harness<P> {
    /// Wrap `proto`; randomness (message loss) comes from a dedicated
    /// stream of `streams`.
    pub fn new(proto: P, streams: &RngStreams) -> Self {
        Harness {
            proto,
            topo: Topology::new(),
            queue: EventQueue::new(),
            rng: streams.stream("manet-loss"),
            now: SimTime::ZERO,
            next_tick: SimTime::ZERO,
            tick_interval: SimDuration::from_secs(1),
            hop_latency: SimDuration(10),
            overhead: OverheadStats::default(),
        }
    }

    /// The protocol under test.
    pub fn protocol(&self) -> &P {
        &self.proto
    }

    /// Ground-truth topology.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Overhead accumulated so far.
    pub fn overhead(&self) -> OverheadStats {
        self.overhead
    }

    /// Current harness time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Add a node to both topology and protocol.
    pub fn add_node(&mut self, n: NodeId) {
        self.topo.add_node(n);
        self.proto.add_node(n);
    }

    /// Install/update a link.
    pub fn set_link(&mut self, a: NodeId, b: NodeId, q: f64) {
        self.topo.add_node(a);
        self.topo.add_node(b);
        self.proto.add_node(a);
        self.proto.add_node(b);
        self.topo.set_link(a, b, q);
    }

    /// Tear down a link.
    pub fn remove_link(&mut self, a: NodeId, b: NodeId) {
        self.topo.remove_link(a, b);
    }

    /// Declare route interest (drives on-demand protocols).
    pub fn want_route(&mut self, from: NodeId, to: NodeId) {
        self.proto.want_route(self.now, from, to);
    }

    /// Advance to `until`, ticking the protocol and delivering
    /// messages.
    pub fn run_until(&mut self, until: SimTime) {
        while self.now < until {
            // Next interesting instant: tick or message delivery.
            let next_msg = self.queue.peek_time();
            let next = match next_msg {
                Some(t) if t < self.next_tick => t,
                _ => self.next_tick,
            };
            if next > until {
                self.now = until;
                return;
            }
            self.now = next;

            // Deliver any messages due now.
            while let Some(ev) = self.queue.pop_until(self.now) {
                let Delivery { to, from, msg } = ev.event;
                // The link may have vanished while the message flew.
                let Some(q) = self.topo.quality(from, to) else {
                    continue;
                };
                let mut ctx = Ctx::default();
                self.proto.on_message(self.now, to, from, q, msg, &mut ctx);
                self.flush(ctx);
            }

            // Tick every node when the tick instant arrives.
            if self.now >= self.next_tick {
                let nodes: Vec<NodeId> = self.topo.nodes().collect();
                for n in nodes {
                    let mut ctx = Ctx::default();
                    self.proto.on_tick(self.now, n, &mut ctx);
                    self.flush(ctx);
                }
                self.next_tick += self.tick_interval;
            }
        }
    }

    /// Turn a callback's outbox into queued deliveries, applying
    /// per-link loss.
    fn flush(&mut self, mut ctx: Ctx<P::Msg>) {
        for (from, target, msg, bytes) in ctx.drain() {
            match target {
                Some(to) => {
                    let Some(q) = self.topo.quality(from, to) else {
                        continue;
                    };
                    self.overhead.messages += 1;
                    self.overhead.bytes += bytes as u64;
                    if self.rng.gen_bool(q) {
                        self.queue.schedule(
                            self.now + self.hop_latency,
                            Delivery {
                                to,
                                from,
                                msg: msg.clone(),
                            },
                        );
                    }
                }
                None => {
                    let neighbors: Vec<(NodeId, f64)> = self.topo.neighbors(from).collect();
                    // A broadcast is one transmission regardless of the
                    // neighbor count (shared medium).
                    if !neighbors.is_empty() {
                        self.overhead.messages += 1;
                        self.overhead.bytes += bytes as u64;
                    }
                    for (to, q) in neighbors {
                        if self.rng.gen_bool(q) {
                            self.queue.schedule(
                                self.now + self.hop_latency,
                                Delivery {
                                    to,
                                    from,
                                    msg: msg.clone(),
                                },
                            );
                        }
                    }
                }
            }
        }
    }

    /// The realized forwarding path, if complete and loop-free.
    pub fn route_path(&self, from: NodeId, to: NodeId) -> Option<Vec<NodeId>> {
        let mut path = vec![from];
        let mut at = from;
        let mut hops = 0;
        while at != to {
            hops += 1;
            if hops > self.topo.num_nodes() {
                return None; // loop
            }
            let nh = self.proto.next_hop(at, to)?;
            // A stale table entry pointing over a vanished link is a
            // broken route.
            if !self.topo.linked(at, nh) {
                return None;
            }
            path.push(nh);
            at = nh;
        }
        Some(path)
    }
}

/// An originator message.
#[derive(Debug, Clone, Copy)]
pub struct Ogm {
    /// The node whose reachability this OGM advertises.
    pub originator: NodeId,
    /// Originator's sequence number.
    pub seq: u64,
    /// Residual transmit quality, `(0, 1]`.
    pub tq: f64,
    /// Whether the originator is a gateway.
    pub gateway: bool,
}

/// Wire size of an OGM, bytes (batman-adv OGMv1 is 24 bytes).
const OGM_BYTES: usize = 24;

#[derive(Debug, Clone, Copy)]
struct OriginatorEntry {
    best_tq: f64,
    next_hop: NodeId,
    seq: u64,
    updated: SimTime,
    gateway: bool,
}

#[derive(Debug, Default)]
struct NodeState {
    seq: u64,
    /// Best route per originator.
    table: BTreeMap<NodeId, OriginatorEntry>,
    /// Currently selected gateway (sticky).
    selected_gateway: Option<NodeId>,
}

/// The BATMAN protocol state for all simulated nodes.
#[derive(Debug, Default)]
pub struct Batman {
    nodes: BTreeMap<NodeId, NodeState>,
    gateways: BTreeMap<NodeId, bool>,
    /// Entries unrefreshed for this long are purged.
    pub route_timeout: SimDuration,
    /// A new gateway must beat the current one's TQ by this factor to
    /// trigger reselection (dampens flapping).
    pub gateway_hysteresis: f64,
}

impl Batman {
    /// Protocol instance with batman-adv-like defaults (purge timeout
    /// 2× the classic 200 s is far too slow for Loon's dynamics; we
    /// use 5 s ≈ 5 lost OGM intervals).
    pub fn new() -> Self {
        Batman {
            nodes: BTreeMap::new(),
            gateways: BTreeMap::new(),
            route_timeout: SimDuration::from_secs(5),
            gateway_hysteresis: 1.2,
        }
    }

    /// Mark `n` as a gateway (ground station).
    pub fn set_gateway(&mut self, n: NodeId, is_gw: bool) {
        self.gateways.insert(n, is_gw);
    }

    /// The gateway `node` currently selects, if any is reachable.
    pub fn selected_gateway(&self, node: NodeId) -> Option<NodeId> {
        self.nodes.get(&node)?.selected_gateway
    }

    /// TQ of `node`'s route to `dest`, if known.
    pub fn route_tq(&self, node: NodeId, dest: NodeId) -> Option<f64> {
        self.nodes.get(&node)?.table.get(&dest).map(|e| e.best_tq)
    }

    fn purge(&mut self, now: SimTime, node: NodeId, timeout: SimDuration) {
        let st = self.nodes.get_mut(&node).expect("known node");
        st.table.retain(|_, e| now.since(e.updated) < timeout);
        // Drop a selected gateway that fell out of the table.
        if let Some(gw) = st.selected_gateway {
            if !st.table.contains_key(&gw) {
                st.selected_gateway = None;
            }
        }
    }

    fn reselect_gateway(&mut self, node: NodeId) {
        let st = self.nodes.get_mut(&node).expect("known node");
        let best = st
            .table
            .iter()
            .filter(|(_, e)| e.gateway)
            .max_by(|a, b| a.1.best_tq.partial_cmp(&b.1.best_tq).expect("finite tq"))
            .map(|(gw, e)| (*gw, e.best_tq));
        match (st.selected_gateway, best) {
            (_, None) => st.selected_gateway = None,
            (None, Some((gw, _))) => st.selected_gateway = Some(gw),
            (Some(cur), Some((gw, tq))) => {
                if gw != cur {
                    let cur_tq = st.table.get(&cur).map(|e| e.best_tq).unwrap_or(0.0);
                    if tq > cur_tq * self.gateway_hysteresis {
                        st.selected_gateway = Some(gw);
                    }
                }
            }
        }
    }
}

impl ManetProtocol for Batman {
    type Msg = Ogm;

    fn name(&self) -> &'static str {
        "batman"
    }

    fn add_node(&mut self, node: NodeId) {
        self.nodes.entry(node).or_default();
        self.gateways.entry(node).or_insert(false);
    }

    fn on_tick(&mut self, now: SimTime, node: NodeId, ctx: &mut Ctx<Ogm>) {
        let timeout = self.route_timeout;
        self.purge(now, node, timeout);
        self.reselect_gateway(node);
        let is_gw = *self.gateways.get(&node).unwrap_or(&false);
        let st = self.nodes.get_mut(&node).expect("known node");
        st.seq += 1;
        let ogm = Ogm {
            originator: node,
            seq: st.seq,
            tq: 1.0,
            gateway: is_gw,
        };
        ctx.broadcast(node, ogm, OGM_BYTES);
    }

    fn on_message(
        &mut self,
        now: SimTime,
        node: NodeId,
        from: NodeId,
        link_q: f64,
        msg: Ogm,
        ctx: &mut Ctx<Ogm>,
    ) {
        if msg.originator == node {
            return; // our own OGM echoed back
        }
        let tq = msg.tq * link_q;
        if tq < 0.05 {
            return; // below usable quality; stop propagation
        }
        let st = self.nodes.get_mut(&node).expect("known node");
        let entry = st.table.get(&msg.originator);
        let accept = match entry {
            None => true,
            Some(e) => {
                msg.seq > e.seq
                    || (msg.seq == e.seq && tq > e.best_tq)
                    // Allow refresh from the incumbent next hop even at
                    // equal seq/tq so `updated` advances.
                    || (msg.seq == e.seq && from == e.next_hop)
            }
        };
        if !accept {
            return;
        }
        let is_new_seq = entry.map(|e| msg.seq > e.seq).unwrap_or(true);
        st.table.insert(
            msg.originator,
            OriginatorEntry {
                best_tq: tq,
                next_hop: from,
                seq: msg.seq,
                updated: now,
                gateway: msg.gateway,
            },
        );
        // Rebroadcast only the first/best copy of a new sequence
        // number, with our residual TQ — classic BATMAN flooding.
        if is_new_seq {
            ctx.broadcast(node, Ogm { tq, ..msg }, OGM_BYTES);
        }
    }

    fn next_hop(&self, node: NodeId, dest: NodeId) -> Option<NodeId> {
        if node == dest {
            return None;
        }
        self.nodes.get(&node)?.table.get(&dest).map(|e| e.next_hop)
    }
}
