//! Ad hoc On-Demand Distance Vector routing (AODV).
//!
//! Routes are built only when requested: the source floods a Route
//! Request (RREQ); each forwarder installs a reverse route toward the
//! source; the destination (or a node with a fresh-enough route)
//! returns a Route Reply (RREP) along that reverse path, installing
//! forward routes. Broken links invalidate routes, and the next
//! `want_route` triggers rediscovery.
//!
//! Appendix D: "AODV protocol design resulted in overall lower
//! overhead (no need to build a full routing table for arbitrary
//! balloon-to-balloon connectivity)" — Loon nodes only ever need
//! routes to a small set of SDN endpoints, which is exactly the
//! workload where on-demand wins.

use crate::types::{Ctx, ManetProtocol, NodeId};
use std::collections::BTreeMap;
use tssdn_sim::{SimDuration, SimTime};

/// AODV control messages.
#[derive(Debug, Clone, Copy)]
pub enum AodvMsg {
    /// Route request flood.
    Rreq {
        /// Requesting node.
        origin: NodeId,
        /// Origin's sequence number.
        origin_seq: u64,
        /// Flood id (unique per origin); duplicates are dropped.
        rreq_id: u64,
        /// Sought destination.
        dest: NodeId,
        /// Last destination seqno known at the origin.
        dest_seq: u64,
        /// Hops traversed so far.
        hops: u32,
    },
    /// Route reply, unicast back along the reverse path.
    Rrep {
        /// The requester the reply travels toward.
        origin: NodeId,
        /// The destination the route leads to.
        dest: NodeId,
        /// Destination's sequence number.
        dest_seq: u64,
        /// Hops from the replier to the destination.
        hops: u32,
    },
    /// Periodic hello (neighbor liveness).
    Hello { from: NodeId },
}

/// Wire sizes, bytes (RFC 3561 packet formats).
const RREQ_BYTES: usize = 24;
const RREP_BYTES: usize = 20;
const HELLO_BYTES: usize = 12;

#[derive(Debug, Clone, Copy)]
struct Route {
    next_hop: NodeId,
    hops: u32,
    dest_seq: u64,
    updated: SimTime,
}

#[derive(Debug, Default)]
struct NodeState {
    own_seq: u64,
    next_rreq_id: u64,
    table: BTreeMap<NodeId, Route>,
    /// Seen RREQ floods: (origin, rreq_id) → first-seen time.
    seen_rreqs: BTreeMap<(NodeId, u64), SimTime>,
    /// Destinations this node actively wants routes to.
    interests: Vec<NodeId>,
    /// Last time a hello/message was heard per neighbor.
    neighbor_seen: BTreeMap<NodeId, SimTime>,
    /// Throttle: last time an RREQ was issued per destination.
    last_rreq: BTreeMap<NodeId, SimTime>,
    /// Highest destination seqno ever learned, surviving route expiry
    /// (RFC 3561 keeps invalidated routes' seqnos for exactly this:
    /// stale intermediate replies must be refusable).
    last_seq_seen: BTreeMap<NodeId, u64>,
}

/// AODV state for all simulated nodes.
#[derive(Debug, Default)]
pub struct Aodv {
    nodes: BTreeMap<NodeId, NodeState>,
    /// Active-route lifetime without refresh.
    pub route_timeout: SimDuration,
    /// Minimum gap between RREQ floods for the same destination.
    pub rreq_interval: SimDuration,
    /// Neighbor considered lost after this silence.
    pub neighbor_timeout: SimDuration,
}

impl Aodv {
    /// Protocol with defaults matched to a 1 s tick.
    pub fn new() -> Self {
        Aodv {
            nodes: BTreeMap::new(),
            route_timeout: SimDuration::from_secs(10),
            rreq_interval: SimDuration::from_secs(2),
            neighbor_timeout: SimDuration::from_secs(3),
        }
    }

    fn install(
        &mut self,
        now: SimTime,
        node: NodeId,
        dest: NodeId,
        next_hop: NodeId,
        hops: u32,
        dest_seq: u64,
    ) {
        let st = self.nodes.get_mut(&node).expect("known node");
        let adopt = match st.table.get(&dest) {
            None => true,
            Some(cur) => {
                dest_seq > cur.dest_seq || (dest_seq == cur.dest_seq && hops < cur.hops) || {
                    // Refresh equal routes via the incumbent hop.
                    dest_seq == cur.dest_seq && hops == cur.hops && next_hop == cur.next_hop
                }
            }
        };
        if adopt {
            st.table.insert(
                dest,
                Route {
                    next_hop,
                    hops,
                    dest_seq,
                    updated: now,
                },
            );
        }
        let seen = st.last_seq_seen.entry(dest).or_insert(0);
        *seen = (*seen).max(dest_seq);
    }
}

impl ManetProtocol for Aodv {
    type Msg = AodvMsg;

    fn name(&self) -> &'static str {
        "aodv"
    }

    fn add_node(&mut self, node: NodeId) {
        self.nodes.entry(node).or_default();
    }

    fn want_route(&mut self, now: SimTime, node: NodeId, dest: NodeId) {
        let st = self.nodes.get_mut(&node).expect("known node");
        if !st.interests.contains(&dest) {
            st.interests.push(dest);
        }
        let _ = now;
    }

    fn on_tick(&mut self, now: SimTime, node: NodeId, ctx: &mut Ctx<AodvMsg>) {
        let (route_timeout, rreq_interval, neighbor_timeout) = (
            self.route_timeout,
            self.rreq_interval,
            self.neighbor_timeout,
        );
        let st = self.nodes.get_mut(&node).expect("known node");

        // Expire neighbors, then routes that point at dead neighbors
        // or have timed out.
        st.neighbor_seen
            .retain(|_, t| now.since(*t) < neighbor_timeout);
        let live: Vec<NodeId> = st.neighbor_seen.keys().copied().collect();
        st.table
            .retain(|_, r| now.since(r.updated) < route_timeout && live.contains(&r.next_hop));
        st.seen_rreqs
            .retain(|_, t| now.since(*t) < SimDuration::from_secs(30));

        // Hello beacon for liveness.
        ctx.broadcast(node, AodvMsg::Hello { from: node }, HELLO_BYTES);

        // Re-discover any missing interesting routes (rate limited).
        let missing: Vec<NodeId> = st
            .interests
            .iter()
            .copied()
            .filter(|d| !st.table.contains_key(d) && *d != node)
            .collect();
        for dest in missing {
            let due = st
                .last_rreq
                .get(&dest)
                .map(|t| now.since(*t) >= rreq_interval)
                .unwrap_or(true);
            if !due {
                continue;
            }
            st.own_seq += 1;
            st.next_rreq_id += 1;
            st.last_rreq.insert(dest, now);
            // Ask for something at least as fresh as anything we ever
            // knew — prevents a neighbor echoing our own stale route
            // back at us after expiry.
            let dest_seq = st.last_seq_seen.get(&dest).copied().unwrap_or(0);
            ctx.broadcast(
                node,
                AodvMsg::Rreq {
                    origin: node,
                    origin_seq: st.own_seq,
                    rreq_id: st.next_rreq_id,
                    dest,
                    dest_seq,
                    hops: 0,
                },
                RREQ_BYTES,
            );
        }
    }

    fn on_message(
        &mut self,
        now: SimTime,
        node: NodeId,
        from: NodeId,
        _link_q: f64,
        msg: AodvMsg,
        ctx: &mut Ctx<AodvMsg>,
    ) {
        // Any reception proves the neighbor is alive.
        self.nodes
            .get_mut(&node)
            .expect("known node")
            .neighbor_seen
            .insert(from, now);

        match msg {
            AodvMsg::Hello { .. } => {}
            AodvMsg::Rreq {
                origin,
                origin_seq,
                rreq_id,
                dest,
                dest_seq,
                hops,
            } => {
                if origin == node {
                    return;
                }
                // Drop duplicate floods.
                let st = self.nodes.get_mut(&node).expect("known node");
                if st.seen_rreqs.contains_key(&(origin, rreq_id)) {
                    return;
                }
                st.seen_rreqs.insert((origin, rreq_id), now);
                // Install/refresh reverse route toward the origin.
                self.install(now, node, origin, from, hops + 1, origin_seq);

                if dest == node {
                    // We are the destination: reply with our own seqno.
                    let st = self.nodes.get_mut(&node).expect("known node");
                    st.own_seq = st.own_seq.max(dest_seq) + 1;
                    let seq = st.own_seq;
                    ctx.unicast(
                        node,
                        from,
                        AodvMsg::Rrep {
                            origin,
                            dest,
                            dest_seq: seq,
                            hops: 0,
                        },
                        RREP_BYTES,
                    );
                } else {
                    // Intermediate node with a fresh-enough route may
                    // answer on the destination's behalf — but never
                    // with a route whose next hop is the requester
                    // itself (that reply would instantly loop).
                    let fresh = self
                        .nodes
                        .get(&node)
                        .and_then(|s| s.table.get(&dest))
                        .filter(|r| r.dest_seq >= dest_seq && r.next_hop != from)
                        .copied();
                    if let Some(r) = fresh {
                        ctx.unicast(
                            node,
                            from,
                            AodvMsg::Rrep {
                                origin,
                                dest,
                                dest_seq: r.dest_seq,
                                hops: r.hops,
                            },
                            RREP_BYTES,
                        );
                    } else {
                        // Keep flooding.
                        ctx.broadcast(
                            node,
                            AodvMsg::Rreq {
                                origin,
                                origin_seq,
                                rreq_id,
                                dest,
                                dest_seq,
                                hops: hops + 1,
                            },
                            RREQ_BYTES,
                        );
                    }
                }
            }
            AodvMsg::Rrep {
                origin,
                dest,
                dest_seq,
                hops,
            } => {
                // Install the forward route toward the destination.
                self.install(now, node, dest, from, hops + 1, dest_seq);
                if origin != node {
                    // Forward along the reverse route toward the origin.
                    let nh = self
                        .nodes
                        .get(&node)
                        .and_then(|s| s.table.get(&origin))
                        .map(|r| r.next_hop);
                    if let Some(nh) = nh {
                        ctx.unicast(
                            node,
                            nh,
                            AodvMsg::Rrep {
                                origin,
                                dest,
                                dest_seq,
                                hops: hops + 1,
                            },
                            RREP_BYTES,
                        );
                    }
                }
            }
        }
    }

    fn next_hop(&self, node: NodeId, dest: NodeId) -> Option<NodeId> {
        if node == dest {
            return None;
        }
        self.nodes.get(&node)?.table.get(&dest).map(|r| r.next_hop)
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

    /// Whether `node` holds a live route to `dest`.
    fn has_route(aodv: &Aodv, node: NodeId, dest: NodeId) -> bool {
        aodv.nodes
            .get(&node)
            .is_some_and(|s| s.table.contains_key(&dest))
    }

    fn line_harness(seed: u64) -> Harness<Aodv> {
        let mut h = Harness::new(Aodv::new(), &RngStreams::new(seed));
        h.set_link(n(0), n(1), 0.95);
        h.set_link(n(1), n(2), 0.95);
        h.set_link(n(2), n(3), 0.95);
        h
    }

    #[test]
    fn discovers_route_on_demand() {
        let mut h = line_harness(1);
        h.run_until(SimTime::from_secs(2));
        assert!(!h.route_works(n(3), n(0)), "no route before interest");
        let d = h
            .measure_convergence(
                ConvergenceProbe {
                    from: n(3),
                    to: n(0),
                },
                SimTime::from_secs(30),
            )
            .expect("discovers");
        // One flood normally suffices (~1 s to the next tick + RTT);
        // allow a couple of loss-driven re-floods at 2 s spacing.
        assert!(d.as_secs_f64() <= 10.0, "discovered in {d}");
        assert_eq!(h.route_path(n(3), n(0)), Some(vec![n(3), n(2), n(1), n(0)]));
    }

    #[test]
    fn uninvolved_pairs_have_no_routes() {
        let mut h = line_harness(2);
        h.want_route(n(3), n(0));
        h.run_until(SimTime::from_secs(20));
        // 1 never asked for a route to 3: at most incidental reverse
        // state exists, and on-demand purging removes what's unused.
        h.run_until(SimTime::from_secs(40));
        assert!(
            !has_route(h.protocol(), n(0), n(3)) || h.route_works(n(3), n(0)),
            "no gratuitous full-mesh tables"
        );
    }

    #[test]
    fn repairs_after_break_with_alternate_path() {
        let mut h = Harness::new(Aodv::new(), &RngStreams::new(3));
        h.set_link(n(0), n(1), 0.95);
        h.set_link(n(0), n(2), 0.95);
        h.set_link(n(1), n(3), 0.95);
        h.set_link(n(2), n(3), 0.95);
        h.want_route(n(3), n(0));
        h.run_until(SimTime::from_secs(10));
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
        assert!(d.as_secs_f64() <= 15.0, "repaired in {d}");
    }

    #[test]
    fn partition_leaves_no_route() {
        let mut h = line_harness(4);
        h.want_route(n(3), n(0));
        h.run_until(SimTime::from_secs(10));
        h.remove_link(n(1), n(2));
        h.run_until(SimTime::from_secs(40));
        assert!(!h.route_works(n(3), n(0)));
    }

    #[test]
    fn lower_overhead_than_dsdv_for_single_endpoint() {
        // The Appendix-D finding: with one SDN endpoint of interest,
        // AODV's on-demand design beats DSDV's full-table dumps.
        let mut ha = line_harness(5);
        ha.want_route(n(3), n(0));
        ha.run_until(SimTime::from_secs(60));
        assert!(ha.route_works(n(3), n(0)));

        let mut hd = Harness::new(crate::dsdv::Dsdv::new(), &RngStreams::new(5));
        hd.set_link(n(0), n(1), 0.95);
        hd.set_link(n(1), n(2), 0.95);
        hd.set_link(n(2), n(3), 0.95);
        hd.run_until(SimTime::from_secs(60));
        assert!(
            ha.overhead().bytes < hd.overhead().bytes,
            "aodv {} vs dsdv {}",
            ha.overhead().bytes,
            hd.overhead().bytes
        );
    }

    #[test]
    fn intermediate_node_with_fresh_route_replies() {
        let mut h = line_harness(6);
        // Node 2 first gets a route to 0.
        h.want_route(n(2), n(0));
        h.run_until(SimTime::from_secs(10));
        assert!(h.route_works(n(2), n(0)));
        let before = h.overhead().messages;
        // Now node 3 asks; node 2 can answer without re-flooding to 0.
        h.want_route(n(3), n(0));
        h.run_until(SimTime::from_secs(20));
        assert!(h.route_works(n(3), n(0)));
        let flood_msgs = h.overhead().messages - before;
        // Loose bound: 10 s of hellos on 4 nodes ≈ 40 messages, plus
        // discovery floods and periodic re-requests while inactive
        // routes expire (no data traffic refreshes them here). The
        // point is the absence of a runaway flood.
        assert!(flood_msgs < 150, "no runaway flood: {flood_msgs}");
    }
}
