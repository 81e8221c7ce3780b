//! The protocol-agnostic simulation harness: delivers control
//! messages with loss and latency, ticks nodes, tracks overhead, and
//! measures route convergence — the measurement rig behind the
//! Appendix-D protocol comparison (E9).

use crate::types::{Ctx, ManetProtocol, NodeId, Topology};
use rand::Rng;
use rand_chacha::ChaCha8Rng;
use std::collections::VecDeque;
use tssdn_sim::{RngStreams, SimDuration, SimTime};

/// One in-flight control message, with the link it flies over as it
/// stood when the copy was sent.
#[derive(Debug, Clone)]
struct Delivery<M> {
    due: SimTime,
    to: NodeId,
    from: NodeId,
    /// [`Topology::revision`] at transmission.
    rev: u64,
    /// Quality of `from`–`to` at that revision.
    q: f64,
    msg: M,
}

/// Control-plane cost accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OverheadStats {
    /// Control messages physically transmitted (per-link copies).
    pub messages: u64,
    /// Total bytes of those transmissions.
    pub bytes: u64,
}

/// Measures how long a protocol needs after a topology change until a
/// given route works again.
#[derive(Debug, Clone, Copy)]
pub struct ConvergenceProbe {
    /// Source node.
    pub from: NodeId,
    /// Destination (e.g. the ground-station SDN gateway).
    pub to: NodeId,
}

/// The shared medium between callbacks: what the last callback asked
/// to send, the loss draws, and the copies still in flight.
struct Medium<M> {
    /// The one outbox every callback writes into; drained by
    /// [`Medium::transmit`] before the next callback runs.
    outbox: Ctx<M>,
    rng: ChaCha8Rng,
    /// In-flight copies in (due, insertion) order — the `(at, seq)`
    /// order of `sim::EventQueue`, kept by where a copy is inserted
    /// instead of by a heap.
    in_flight: VecDeque<Delivery<M>>,
    overhead: OverheadStats,
}

impl<M: Clone> Medium<M> {
    /// Turn the outbox into in-flight copies due at `due`, applying
    /// per-link loss. Each copy is stamped with the topology revision
    /// and the link quality its loss draw used, so delivery can tell
    /// whether that quality still stands. Callers skip the call when
    /// the outbox is empty — most deliveries emit nothing.
    ///
    /// Ordering contract (the `manet-loss` stream and every table
    /// downstream depend on it): outbox entries go out in emission
    /// order; a unicast draws one `gen_bool(q)`; a broadcast draws one
    /// `gen_bool(q)` per neighbor in ascending neighbor id, which is
    /// the order [`Topology::neighbors`] yields.
    fn transmit(&mut self, topo: &Topology, due: SimTime) {
        let Medium {
            outbox,
            rng,
            in_flight,
            overhead,
        } = self;
        let rev = topo.revision();
        for (from, target, msg, bytes) in outbox.drain() {
            let copy = |to: NodeId, q: f64, msg: M| Delivery {
                due,
                to,
                from,
                rev,
                q,
                msg,
            };
            match target {
                Some(to) => {
                    let Some(q) = topo.quality(from, to) else {
                        continue;
                    };
                    overhead.messages += 1;
                    overhead.bytes += bytes as u64;
                    send(rng, in_flight, copy(to, q, msg));
                }
                None => {
                    let neighbors = topo.neighbor_slice(from);
                    // A broadcast is one transmission regardless of the
                    // neighbor count (shared medium).
                    if !neighbors.is_empty() {
                        overhead.messages += 1;
                        overhead.bytes += bytes as u64;
                    }
                    for &(to, q) in neighbors {
                        send(rng, in_flight, copy(to, q, msg.clone()));
                    }
                }
            }
        }
    }
}

/// Put `copy` in flight if its link's loss draw lets it through.
///
/// `inline(always)` here and on [`enqueue`], not a closure in
/// `transmit`: `Medium<M>` is instantiated in the crate that owns the
/// harness, and whether LLVM inlined the per-copy path there turned on
/// how that crate's other code fell into codegen units — an unrelated
/// edit to `tssdn-core` left it out of line and cost `dense50_morning`
/// 5 % (EXPERIMENTS.md, "e2e: traffic tick, second pass").
#[inline(always)]
fn send<M>(rng: &mut ChaCha8Rng, in_flight: &mut VecDeque<Delivery<M>>, copy: Delivery<M>) {
    if rng.gen_bool(copy.q) {
        enqueue(in_flight, copy);
    }
}

/// Insert `d` after the last copy due at or before it. Copies are
/// scheduled at `now + hop_latency`, so with a steady latency this is
/// always the back; a copy scheduled with a shorter latency than ones
/// already in flight lands ahead of them, behind its own instant's
/// earlier copies.
#[inline(always)]
fn enqueue<M>(in_flight: &mut VecDeque<Delivery<M>>, d: Delivery<M>) {
    if in_flight.back().is_none_or(|last| last.due <= d.due) {
        in_flight.push_back(d);
    } else {
        let at = in_flight.partition_point(|e| e.due <= d.due);
        in_flight.insert(at, d);
    }
}

/// The harness binding a protocol implementation to a dynamic
/// topology.
pub struct Harness<P: ManetProtocol> {
    proto: P,
    topo: Topology,
    medium: Medium<P::Msg>,
    now: SimTime,
    next_tick: SimTime,
    /// Interval between protocol ticks.
    pub tick_interval: SimDuration,
    /// One-hop control-message latency.
    pub hop_latency: SimDuration,
}

impl<P: ManetProtocol> Harness<P> {
    /// Wrap `proto`; randomness (message loss) comes from a dedicated
    /// stream of `streams`.
    pub fn new(proto: P, streams: &RngStreams) -> Self {
        Harness {
            proto,
            topo: Topology::new(),
            medium: Medium {
                outbox: Ctx::default(),
                rng: streams.stream("manet-loss"),
                in_flight: VecDeque::new(),
                overhead: OverheadStats::default(),
            },
            now: SimTime::ZERO,
            next_tick: SimTime::ZERO,
            tick_interval: SimDuration::from_secs(1),
            hop_latency: SimDuration(10),
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
        self.medium.overhead
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
    ///
    /// Ordering contract: at each instant, copies due fire first, in
    /// (due, insertion) order — including copies a delivery itself
    /// schedules for the same instant — and then, on a tick instant,
    /// nodes tick in ascending `NodeId`. This holds for any sequence
    /// of `hop_latency` / `tick_interval` values set between calls.
    ///
    /// `on_message` gets the link's quality *when the copy lands*: a
    /// copy over a link that vanished in flight is dropped, one over a
    /// re-rated or removed-and-restored link is delivered at the new
    /// quality. A copy whose topology revision still stands skips the
    /// look-up — the quality it carries is that quality.
    pub fn run_until(&mut self, until: SimTime) {
        let Harness {
            proto,
            topo,
            medium,
            ..
        } = self;
        while self.now < until {
            // Next interesting instant: tick or message delivery.
            let next = match medium.in_flight.front() {
                Some(d) if d.due < self.next_tick => d.due,
                _ => self.next_tick,
            };
            if next > until {
                self.now = until;
                return;
            }
            self.now = next;
            let now = next;

            // Deliver any messages due now.
            while medium.in_flight.front().is_some_and(|d| d.due <= now) {
                let d = medium.in_flight.pop_front().expect("front is due");
                let q = if d.rev == topo.revision() {
                    Some(d.q)
                } else {
                    // Some link changed while the copy flew; this one
                    // may have been re-rated, or have vanished.
                    topo.quality(d.from, d.to)
                };
                let Some(q) = q else {
                    continue;
                };
                proto.on_message(now, d.to, d.from, q, d.msg, &mut medium.outbox);
                if !medium.outbox.is_empty() {
                    medium.transmit(topo, now + self.hop_latency);
                }
            }

            // Tick every node when the tick instant arrives.
            if now >= self.next_tick {
                for n in topo.nodes() {
                    proto.on_tick(now, n, &mut medium.outbox);
                    if !medium.outbox.is_empty() {
                        medium.transmit(topo, now + self.hop_latency);
                    }
                }
                self.next_tick += self.tick_interval;
            }
        }
    }

    /// Follow the protocol's next-hop chain from `from` to `to`; true
    /// when it reaches `to` over *currently existing* links without
    /// loops.
    pub fn route_works(&self, from: NodeId, to: NodeId) -> bool {
        self.walk(from, to, |_| {})
    }

    /// The realized forwarding path, if complete and loop-free.
    pub fn route_path(&self, from: NodeId, to: NodeId) -> Option<Vec<NodeId>> {
        let mut path = vec![from];
        self.walk(from, to, |hop| path.push(hop)).then_some(path)
    }

    /// The hop count of the realized forwarding path, if complete and
    /// loop-free: [`Harness::route_path`]'s length less one, without
    /// building the path.
    pub fn route_hops(&self, from: NodeId, to: NodeId) -> Option<u32> {
        let mut hops = 0;
        self.walk(from, to, |_| hops += 1).then_some(hops)
    }

    /// Walk the next-hop chain from `from`, reporting each hop taken;
    /// true when the walk ends at `to`.
    fn walk(&self, from: NodeId, to: NodeId, mut visit: impl FnMut(NodeId)) -> bool {
        let mut at = from;
        let mut hops = 0;
        while at != to {
            hops += 1;
            if hops > self.topo.num_nodes() {
                return false; // loop
            }
            let Some(nh) = self.proto.next_hop(at, to) else {
                return false;
            };
            // A stale table entry pointing over a vanished link is a
            // broken route.
            if !self.topo.linked(at, nh) {
                return false;
            }
            visit(nh);
            at = nh;
        }
        true
    }

    /// Run until `probe`'s route works or `deadline` passes; returns
    /// the convergence delay when it converged.
    pub fn measure_convergence(
        &mut self,
        probe: ConvergenceProbe,
        deadline: SimTime,
    ) -> Option<SimDuration> {
        let start = self.now;
        self.want_route(probe.from, probe.to);
        while self.now < deadline {
            if self.route_works(probe.from, probe.to) {
                return Some(self.now - start);
            }
            let step = (self.now + SimDuration(100)).min(deadline);
            self.run_until(step);
        }
        if self.route_works(probe.from, probe.to) {
            Some(self.now - start)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tssdn_sim::PlatformId;

    fn n(i: u32) -> NodeId {
        PlatformId(i)
    }

    /// A trivially static protocol for exercising the harness: floods
    /// a single counter message, logs every arrival as `(node, from,
    /// link_q)`, and answers next_hop from a fixed map.
    #[derive(Default)]
    struct Dummy {
        pub received: std::cell::RefCell<Vec<(NodeId, NodeId, f64)>>,
        pub hops: std::collections::BTreeMap<(NodeId, NodeId), NodeId>,
        sent: std::cell::Cell<bool>,
    }

    impl ManetProtocol for Dummy {
        type Msg = u32;
        fn name(&self) -> &'static str {
            "dummy"
        }
        fn add_node(&mut self, _node: NodeId) {}
        fn on_tick(&mut self, _now: SimTime, node: NodeId, ctx: &mut Ctx<u32>) {
            if node == n(0) && !self.sent.get() {
                ctx.broadcast(node, 7, 24);
                self.sent.set(true);
            }
        }
        fn on_message(
            &mut self,
            _now: SimTime,
            node: NodeId,
            from: NodeId,
            q: f64,
            _msg: u32,
            _ctx: &mut Ctx<u32>,
        ) {
            self.received.borrow_mut().push((node, from, q));
        }
        fn next_hop(&self, node: NodeId, dest: NodeId) -> Option<NodeId> {
            self.hops.get(&(node, dest)).copied()
        }
    }

    #[test]
    fn broadcast_reaches_neighbors_with_latency() {
        let mut h = Harness::new(Dummy::default(), &RngStreams::new(1));
        h.set_link(n(0), n(1), 1.0);
        h.set_link(n(0), n(2), 1.0);
        h.run_until(SimTime::from_secs(2));
        let got = h.protocol().received.borrow().clone();
        assert_eq!(got.len(), 2);
        assert!(got.contains(&(n(1), n(0), 1.0)));
        assert!(got.contains(&(n(2), n(0), 1.0)));
    }

    /// Node 0's broadcast to nodes 1 and 2 is 10 ms into a 40 ms
    /// flight; `change` then edits the topology and the copies land.
    fn landed_after(change: impl FnOnce(&mut Harness<Dummy>)) -> Vec<(NodeId, NodeId, f64)> {
        let mut h = Harness::new(Dummy::default(), &RngStreams::new(1));
        h.hop_latency = SimDuration(40);
        h.set_link(n(0), n(1), 1.0);
        h.set_link(n(0), n(2), 1.0);
        h.set_link(n(3), n(4), 1.0);
        h.run_until(SimTime(10));
        assert!(h.protocol().received.borrow().is_empty(), "still in flight");
        change(&mut h);
        h.run_until(SimTime(40));
        h.protocol().received.take()
    }

    #[test]
    fn link_rerated_in_flight_delivers_at_the_new_quality() {
        let got = landed_after(|h| h.set_link(n(0), n(1), 0.5));
        assert_eq!(got, vec![(n(1), n(0), 0.5), (n(2), n(0), 1.0)]);
    }

    #[test]
    fn link_removed_in_flight_drops_the_copy() {
        let got = landed_after(|h| h.remove_link(n(0), n(1)));
        assert_eq!(got, vec![(n(2), n(0), 1.0)]);
    }

    #[test]
    fn link_removed_and_restored_in_flight_delivers_at_the_restored_quality() {
        let got = landed_after(|h| {
            h.remove_link(n(1), n(0));
            h.run_until(SimTime(25));
            h.set_link(n(1), n(0), 0.25);
        });
        assert_eq!(got, vec![(n(1), n(0), 0.25), (n(2), n(0), 1.0)]);
    }

    #[test]
    fn unrelated_link_changes_leave_a_copy_in_flight_alone() {
        let untouched = landed_after(|_| {});
        assert_eq!(untouched, vec![(n(1), n(0), 1.0), (n(2), n(0), 1.0)]);
        let got = landed_after(|h| {
            h.set_link(n(3), n(4), 0.5);
            h.remove_link(n(3), n(4));
            h.set_link(n(2), n(4), 0.5);
        });
        assert_eq!(got, untouched);
    }

    #[test]
    fn lossy_link_drops_some_messages() {
        // With q = 0, nothing arrives.
        let mut h = Harness::new(Dummy::default(), &RngStreams::new(1));
        h.set_link(n(0), n(1), 0.0);
        h.run_until(SimTime::from_secs(2));
        assert!(h.protocol().received.borrow().is_empty());
    }

    #[test]
    fn overhead_counts_broadcast_once() {
        let mut h = Harness::new(Dummy::default(), &RngStreams::new(1));
        h.set_link(n(0), n(1), 1.0);
        h.set_link(n(0), n(2), 1.0);
        h.set_link(n(0), n(3), 1.0);
        h.run_until(SimTime::from_secs(2));
        assert_eq!(h.overhead().messages, 1, "one shared-medium transmission");
        assert_eq!(h.overhead().bytes, 24);
    }

    #[test]
    fn route_path_follows_next_hops() {
        let mut d = Dummy::default();
        d.hops.insert((n(0), n(2)), n(1));
        d.hops.insert((n(1), n(2)), n(2));
        let mut h = Harness::new(d, &RngStreams::new(1));
        h.set_link(n(0), n(1), 1.0);
        h.set_link(n(1), n(2), 1.0);
        assert_eq!(h.route_path(n(0), n(2)), Some(vec![n(0), n(1), n(2)]));
        assert_eq!(h.route_hops(n(0), n(2)), Some(2));
        assert!(h.route_works(n(0), n(2)));
    }

    #[test]
    fn route_over_vanished_link_is_broken() {
        let mut d = Dummy::default();
        d.hops.insert((n(0), n(2)), n(1));
        d.hops.insert((n(1), n(2)), n(2));
        let mut h = Harness::new(d, &RngStreams::new(1));
        h.set_link(n(0), n(1), 1.0);
        h.set_link(n(1), n(2), 1.0);
        h.remove_link(n(1), n(2));
        assert!(!h.route_works(n(0), n(2)), "stale next hop detected");
        assert_eq!(h.route_hops(n(0), n(2)), None);
    }

    #[test]
    fn routing_loops_detected() {
        let mut d = Dummy::default();
        d.hops.insert((n(0), n(9)), n(1));
        d.hops.insert((n(1), n(9)), n(0));
        let mut h = Harness::new(d, &RngStreams::new(1));
        h.set_link(n(0), n(1), 1.0);
        h.add_node(n(9));
        assert!(!h.route_works(n(0), n(9)));
        assert_eq!(h.route_hops(n(0), n(9)), None);
    }

    /// Node 0 broadcasts its tick count every tick; everyone logs
    /// what arrives and when.
    #[derive(Default)]
    struct Beacon {
        ticks: u32,
        heard: Vec<(SimTime, u32)>,
    }

    impl ManetProtocol for Beacon {
        type Msg = u32;
        fn name(&self) -> &'static str {
            "beacon"
        }
        fn add_node(&mut self, _node: NodeId) {}
        fn on_tick(&mut self, _now: SimTime, node: NodeId, ctx: &mut Ctx<u32>) {
            if node == n(0) {
                self.ticks += 1;
                ctx.broadcast(node, self.ticks, 8);
            }
        }
        fn on_message(
            &mut self,
            now: SimTime,
            _node: NodeId,
            _from: NodeId,
            _q: f64,
            msg: u32,
            _ctx: &mut Ctx<u32>,
        ) {
            self.heard.push((now, msg));
        }
        fn next_hop(&self, _node: NodeId, _dest: NodeId) -> Option<NodeId> {
            None
        }
    }

    #[test]
    fn shorter_latency_overtakes_copies_in_flight() {
        let mut h = Harness::new(Beacon::default(), &RngStreams::new(1));
        h.set_link(n(0), n(1), 1.0);
        h.tick_interval = SimDuration(5);
        h.hop_latency = SimDuration(40);
        h.run_until(SimTime(3)); // beacon 1 sent at 0, due at 40
        h.hop_latency = SimDuration(1);
        h.run_until(SimTime(12)); // beacons 2 and 3 sent at 5 and 10
        assert_eq!(
            h.protocol().heard,
            vec![(SimTime(6), 2), (SimTime(11), 3)],
            "later copies with the shorter latency arrive first"
        );
        h.run_until(SimTime(41));
        let heard = &h.protocol().heard;
        assert_eq!(heard.len(), 9, "beacons 1..=9 all arrived");
        assert_eq!(heard[8], (SimTime(41), 9));
        assert_eq!(
            heard[7],
            (SimTime(40), 1),
            "the slow copy fires at its own due time, after the 36 ms beacon and before the 41 ms one"
        );
    }

    #[test]
    fn self_route_always_works() {
        let mut h = Harness::new(Dummy::default(), &RngStreams::new(1));
        h.add_node(n(4));
        assert!(h.route_works(n(4), n(4)));
        assert_eq!(h.route_path(n(4), n(4)), Some(vec![n(4)]));
        assert_eq!(h.route_hops(n(4), n(4)), Some(0));
    }
}
