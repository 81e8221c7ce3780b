//! Optimized Link State Routing (OLSR).
//!
//! Proactive link-state: HELLO messages establish the one-hop and
//! two-hop neighborhoods; each node selects multipoint relays (MPRs)
//! covering its two-hop set; topology-control (TC) messages, forwarded
//! only by MPRs, flood each node's MPR-selector set network-wide; and
//! routes fall out of Dijkstra over the learned topology.
//!
//! The third protocol of Loon's Appendix-D ns-3 comparison — link
//! state gives every node full-network routes, which Loon's
//! "only need a route to the SDN endpoint" workload never exploits,
//! so its control overhead lands highest.

use crate::types::{Ctx, ManetProtocol, NodeId};
use std::collections::{BTreeMap, BTreeSet, BinaryHeap};
use tssdn_sim::{SimDuration, SimTime};

/// OLSR control messages.
#[derive(Debug, Clone)]
pub enum OlsrMsg {
    /// Neighbor sensing + MPR signaling.
    Hello {
        from: NodeId,
        /// Sender's current symmetric neighbors.
        neighbors: Vec<NodeId>,
        /// The subset of neighbors the sender has chosen as MPRs.
        mprs: Vec<NodeId>,
    },
    /// Topology control: flooded advertisement of MPR selectors.
    Tc {
        origin: NodeId,
        seq: u64,
        /// Nodes that selected the origin as an MPR (the origin
        /// advertises reachability to them).
        selectors: Vec<NodeId>,
        /// Forwarder for duplicate suppression bookkeeping.
        hops: u32,
    },
}

const HELLO_BASE_BYTES: usize = 16;
const TC_BASE_BYTES: usize = 16;
const ADDR_BYTES: usize = 4;

#[derive(Debug, Default)]
struct NodeState {
    /// Symmetric neighbors and when last heard.
    neighbors: BTreeMap<NodeId, SimTime>,
    /// Neighbor → that neighbor's own neighbor list (for 2-hop set).
    two_hop: BTreeMap<NodeId, Vec<NodeId>>,
    /// Our chosen MPR set.
    mprs: BTreeSet<NodeId>,
    /// Who chose us as MPR (we must forward their TCs and advertise
    /// them in ours).
    selectors: BTreeSet<NodeId>,
    /// Learned topology: origin → (selector set, seq, heard at).
    topo: BTreeMap<NodeId, (Vec<NodeId>, u64, SimTime)>,
    /// TC duplicate suppression: origin → highest forwarded seq.
    forwarded_tc: BTreeMap<NodeId, u64>,
    own_tc_seq: u64,
    /// Computed routing table.
    routes: BTreeMap<NodeId, NodeId>,
}

/// OLSR state for all simulated nodes.
#[derive(Debug, Default)]
pub struct Olsr {
    nodes: BTreeMap<NodeId, NodeState>,
    /// Neighbor/topology entry lifetime.
    pub hold_time: SimDuration,
}

impl Olsr {
    /// Protocol with defaults matched to a 1 s tick.
    pub fn new() -> Self {
        Olsr {
            nodes: BTreeMap::new(),
            hold_time: SimDuration::from_secs(5),
        }
    }

    /// Greedy MPR selection: cover the whole 2-hop neighborhood with
    /// as few 1-hop neighbors as possible (RFC 3626 heuristic).
    fn select_mprs(st: &mut NodeState, me: NodeId) {
        let one_hop: BTreeSet<NodeId> = st.neighbors.keys().copied().collect();
        let mut uncovered: BTreeSet<NodeId> = st
            .two_hop
            .iter()
            .filter(|(n, _)| one_hop.contains(n))
            .flat_map(|(_, two)| two.iter().copied())
            .filter(|n| *n != me && !one_hop.contains(n))
            .collect();
        let mut mprs = BTreeSet::new();
        while !uncovered.is_empty() {
            // Pick the neighbor covering the most uncovered 2-hop nodes.
            let best = one_hop
                .iter()
                .filter(|n| !mprs.contains(*n))
                .max_by_key(|n| {
                    st.two_hop
                        .get(n)
                        .map(|two| two.iter().filter(|t| uncovered.contains(t)).count())
                        .unwrap_or(0)
                })
                .copied();
            let Some(best) = best else { break };
            let covered: Vec<NodeId> = st
                .two_hop
                .get(&best)
                .map(|two| {
                    two.iter()
                        .filter(|t| uncovered.contains(t))
                        .copied()
                        .collect()
                })
                .unwrap_or_default();
            if covered.is_empty() {
                break;
            }
            for c in covered {
                uncovered.remove(&c);
            }
            mprs.insert(best);
        }
        st.mprs = mprs;
    }

    /// Dijkstra over (symmetric neighbors ∪ learned TC topology).
    fn recompute_routes(st: &mut NodeState, me: NodeId) {
        // Build adjacency: our own links plus advertised origin↔selector
        // edges.
        let mut adj: BTreeMap<NodeId, BTreeSet<NodeId>> = BTreeMap::new();
        let mut add = |a: NodeId, b: NodeId| {
            adj.entry(a).or_default().insert(b);
            adj.entry(b).or_default().insert(a);
        };
        for n in st.neighbors.keys() {
            add(me, *n);
        }
        for (origin, (selectors, _, _)) in &st.topo {
            for s in selectors {
                add(*origin, *s);
            }
        }
        // Dijkstra (unit weights → effectively BFS, but keep the heap
        // for clarity and future link costs).
        let mut dist: BTreeMap<NodeId, u32> = BTreeMap::new();
        let mut first_hop: BTreeMap<NodeId, NodeId> = BTreeMap::new();
        let mut heap: BinaryHeap<std::cmp::Reverse<(u32, NodeId, Option<NodeId>)>> =
            BinaryHeap::new();
        heap.push(std::cmp::Reverse((0, me, None)));
        while let Some(std::cmp::Reverse((d, n, via))) = heap.pop() {
            if dist.contains_key(&n) {
                continue;
            }
            dist.insert(n, d);
            if let Some(v) = via {
                first_hop.insert(n, v);
            }
            for m in adj.get(&n).into_iter().flatten() {
                if !dist.contains_key(m) {
                    // First hop is either the neighbor itself (from me)
                    // or inherited.
                    let fh = if n == me {
                        Some(*m)
                    } else {
                        first_hop.get(&n).copied().or(via)
                    };
                    heap.push(std::cmp::Reverse((d + 1, *m, fh)));
                }
            }
        }
        st.routes = first_hop;
        st.routes.remove(&me);
    }
}

impl ManetProtocol for Olsr {
    type Msg = OlsrMsg;

    fn name(&self) -> &'static str {
        "olsr"
    }

    fn add_node(&mut self, node: NodeId) {
        self.nodes.entry(node).or_default();
    }

    fn on_tick(&mut self, now: SimTime, node: NodeId, ctx: &mut Ctx<OlsrMsg>) {
        let hold = self.hold_time;
        let st = self.nodes.get_mut(&node).expect("known node");
        // Expire stale state.
        st.neighbors.retain(|_, t| now.since(*t) < hold);
        let live: BTreeSet<NodeId> = st.neighbors.keys().copied().collect();
        st.two_hop.retain(|n, _| live.contains(n));
        st.topo.retain(|_, (_, _, t)| now.since(*t) < hold);
        st.selectors.retain(|s| live.contains(s));

        Olsr::select_mprs(st, node);
        Olsr::recompute_routes(st, node);

        // HELLO with neighbor + MPR lists.
        let neighbors: Vec<NodeId> = st.neighbors.keys().copied().collect();
        let mprs: Vec<NodeId> = st.mprs.iter().copied().collect();
        let bytes = HELLO_BASE_BYTES + ADDR_BYTES * (neighbors.len() + mprs.len());
        ctx.broadcast(
            node,
            OlsrMsg::Hello {
                from: node,
                neighbors,
                mprs,
            },
            bytes,
        );

        // TC origination: nodes with selectors advertise them.
        if !st.selectors.is_empty() {
            st.own_tc_seq += 1;
            let selectors: Vec<NodeId> = st.selectors.iter().copied().collect();
            let bytes = TC_BASE_BYTES + ADDR_BYTES * selectors.len();
            ctx.broadcast(
                node,
                OlsrMsg::Tc {
                    origin: node,
                    seq: st.own_tc_seq,
                    selectors,
                    hops: 0,
                },
                bytes,
            );
        }
    }

    fn on_message(
        &mut self,
        now: SimTime,
        node: NodeId,
        from: NodeId,
        _link_q: f64,
        msg: OlsrMsg,
        ctx: &mut Ctx<OlsrMsg>,
    ) {
        match msg {
            OlsrMsg::Hello {
                from: sender,
                neighbors,
                mprs,
            } => {
                let st = self.nodes.get_mut(&node).expect("known node");
                st.neighbors.insert(sender, now);
                st.two_hop.insert(sender, neighbors);
                if mprs.contains(&node) {
                    st.selectors.insert(sender);
                } else {
                    st.selectors.remove(&sender);
                }
            }
            OlsrMsg::Tc {
                origin,
                seq,
                selectors,
                hops,
            } => {
                if origin == node {
                    return;
                }
                let st = self.nodes.get_mut(&node).expect("known node");
                let fresh = st
                    .topo
                    .get(&origin)
                    .map(|(_, s, _)| seq > *s)
                    .unwrap_or(true);
                if fresh {
                    st.topo.insert(origin, (selectors.clone(), seq, now));
                }
                // Forward only if we're an MPR of the sender and this
                // seq hasn't been forwarded yet (RFC 3626 default
                // forwarding rule).
                let am_relay = st.selectors.contains(&from);
                let already = st
                    .forwarded_tc
                    .get(&origin)
                    .map(|s| *s >= seq)
                    .unwrap_or(false);
                if am_relay && !already && hops < 32 {
                    st.forwarded_tc.insert(origin, seq);
                    let bytes = TC_BASE_BYTES + ADDR_BYTES * selectors.len();
                    ctx.broadcast(
                        node,
                        OlsrMsg::Tc {
                            origin,
                            seq,
                            selectors,
                            hops: hops + 1,
                        },
                        bytes,
                    );
                }
            }
        }
    }

    fn next_hop(&self, node: NodeId, dest: NodeId) -> Option<NodeId> {
        if node == dest {
            return None;
        }
        self.nodes.get(&node)?.routes.get(&dest).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{ConvergenceProbe, Harness};
    use tssdn_sim::{PlatformId, RngStreams, SimTime};

    fn n(i: u32) -> NodeId {
        PlatformId(i)
    }

    /// The MPR set `node` currently uses.
    fn mprs(olsr: &Olsr, node: NodeId) -> Vec<NodeId> {
        olsr.nodes
            .get(&node)
            .map(|s| s.mprs.iter().copied().collect())
            .unwrap_or_default()
    }

    fn line_harness(seed: u64) -> Harness<Olsr> {
        let mut h = Harness::new(Olsr::new(), &RngStreams::new(seed));
        h.set_link(n(0), n(1), 0.95);
        h.set_link(n(1), n(2), 0.95);
        h.set_link(n(2), n(3), 0.95);
        h
    }

    #[test]
    fn link_state_converges_on_a_line() {
        let mut h = line_harness(1);
        h.run_until(SimTime::from_secs(15));
        for a in 0..4u32 {
            for b in 0..4u32 {
                if a != b {
                    assert!(h.route_works(n(a), n(b)), "{a}->{b}");
                }
            }
        }
    }

    #[test]
    fn middle_nodes_become_mprs_on_a_line() {
        let mut h = line_harness(2);
        h.run_until(SimTime::from_secs(15));
        // Node 1's only way to cover its 2-hop set {3} is via 2.
        assert!(mprs(h.protocol(), n(1)).contains(&n(2)));
        assert!(mprs(h.protocol(), n(2)).contains(&n(1)));
    }

    #[test]
    fn star_center_is_sole_mpr() {
        // Star: 0 in the middle of 1..=4; leaves pick 0 as MPR.
        let mut h = Harness::new(Olsr::new(), &RngStreams::new(3));
        for i in 1..=4 {
            h.set_link(n(0), n(i), 0.99);
        }
        h.run_until(SimTime::from_secs(15));
        for i in 1..=4 {
            assert_eq!(mprs(h.protocol(), n(i)), vec![n(0)], "leaf {i}");
        }
        assert!(h.route_works(n(1), n(4)));
        assert_eq!(h.route_path(n(1), n(4)), Some(vec![n(1), n(0), n(4)]));
    }

    #[test]
    fn repairs_after_break_with_alternate_path() {
        let mut h = Harness::new(Olsr::new(), &RngStreams::new(4));
        h.set_link(n(0), n(1), 0.95);
        h.set_link(n(0), n(2), 0.95);
        h.set_link(n(1), n(3), 0.95);
        h.set_link(n(2), n(3), 0.95);
        h.run_until(SimTime::from_secs(15));
        assert!(h.route_works(n(3), n(0)));
        let via = h.route_path(n(3), n(0)).expect("path")[1];
        h.remove_link(n(3), via);
        let d = h
            .measure_convergence(
                ConvergenceProbe {
                    from: n(3),
                    to: n(0),
                },
                SimTime::from_secs(60),
            )
            .expect("repairs");
        assert!(d.as_secs_f64() <= 12.0, "repaired in {d}");
    }

    #[test]
    fn partition_purges_routes() {
        let mut h = line_harness(5);
        h.run_until(SimTime::from_secs(15));
        h.remove_link(n(1), n(2));
        h.run_until(SimTime::from_secs(40));
        assert!(!h.route_works(n(0), n(3)));
    }

    #[test]
    fn overhead_exceeds_aodv_for_single_endpoint_workload() {
        let mut ho = line_harness(6);
        ho.run_until(SimTime::from_secs(60));

        let mut ha = Harness::new(crate::aodv::Aodv::new(), &RngStreams::new(6));
        ha.set_link(n(0), n(1), 0.95);
        ha.set_link(n(1), n(2), 0.95);
        ha.set_link(n(2), n(3), 0.95);
        ha.want_route(n(3), n(0));
        ha.run_until(SimTime::from_secs(60));

        assert!(
            ho.overhead().bytes > ha.overhead().bytes,
            "olsr {} vs aodv {}",
            ho.overhead().bytes,
            ha.overhead().bytes
        );
    }
}
