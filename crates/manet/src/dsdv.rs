//! Destination-Sequenced Distance-Vector routing (DSDV).
//!
//! Proactive distance-vector with per-destination sequence numbers to
//! guarantee loop freedom. Every node periodically broadcasts its full
//! routing table; receivers adopt entries with newer sequence numbers,
//! or equal sequence numbers and strictly better metric. One of the
//! three protocols Loon's Appendix-D ns-3 study compared.

use crate::types::{Ctx, ManetProtocol, NodeId};
use std::collections::BTreeMap;
use tssdn_sim::{SimDuration, SimTime};

/// One advertised route: `(destination, hop metric, dest seqno)`.
#[derive(Debug, Clone, Copy)]
pub struct DsdvEntry {
    pub dest: NodeId,
    pub metric: u32,
    pub seq: u64,
}

/// A periodic full-table dump.
#[derive(Debug, Clone)]
pub struct DsdvDump {
    pub entries: Vec<DsdvEntry>,
}

/// Bytes per advertised entry (dest 4 + metric 2 + seq 6).
const ENTRY_BYTES: usize = 12;
/// Fixed dump header bytes.
const HEADER_BYTES: usize = 8;

#[derive(Debug, Clone, Copy)]
struct Route {
    next_hop: NodeId,
    metric: u32,
    seq: u64,
    updated: SimTime,
}

#[derive(Debug, Default)]
struct NodeState {
    own_seq: u64,
    table: BTreeMap<NodeId, Route>,
}

/// DSDV state for all simulated nodes.
#[derive(Debug, Default)]
pub struct Dsdv {
    nodes: BTreeMap<NodeId, NodeState>,
    /// Routes unrefreshed for this long are purged (covers broken
    /// links without explicit RERRs).
    pub route_timeout: SimDuration,
}

impl Dsdv {
    /// Protocol with defaults matched to a 1 s tick.
    pub fn new() -> Self {
        Dsdv {
            nodes: BTreeMap::new(),
            route_timeout: SimDuration::from_secs(5),
        }
    }
}

impl ManetProtocol for Dsdv {
    type Msg = DsdvDump;

    fn name(&self) -> &'static str {
        "dsdv"
    }

    fn add_node(&mut self, node: NodeId) {
        self.nodes.entry(node).or_default();
    }

    fn on_tick(&mut self, now: SimTime, node: NodeId, ctx: &mut Ctx<DsdvDump>) {
        let timeout = self.route_timeout;
        let st = self.nodes.get_mut(&node).expect("known node");
        st.table.retain(|_, r| now.since(r.updated) < timeout);
        // Even sequence numbers mark fresh own-advertisements (DSDV
        // convention: odd numbers flag broken routes; purging plays
        // that role here).
        st.own_seq += 2;
        let mut entries = vec![DsdvEntry {
            dest: node,
            metric: 0,
            seq: st.own_seq,
        }];
        entries.extend(st.table.iter().map(|(d, r)| DsdvEntry {
            dest: *d,
            metric: r.metric,
            seq: r.seq,
        }));
        let bytes = HEADER_BYTES + ENTRY_BYTES * entries.len();
        ctx.broadcast(node, DsdvDump { entries }, bytes);
    }

    fn on_message(
        &mut self,
        now: SimTime,
        node: NodeId,
        from: NodeId,
        _link_q: f64,
        msg: DsdvDump,
        _ctx: &mut Ctx<DsdvDump>,
    ) {
        let st = self.nodes.get_mut(&node).expect("known node");
        for e in msg.entries {
            if e.dest == node {
                continue;
            }
            let metric = e.metric.saturating_add(1);
            let adopt = match st.table.get(&e.dest) {
                None => true,
                Some(cur) => {
                    e.seq > cur.seq
                        || (e.seq == cur.seq && metric < cur.metric)
                        // Refresh the incumbent route's timestamp.
                        || (e.seq == cur.seq && metric == cur.metric && from == cur.next_hop)
                }
            };
            if adopt {
                st.table.insert(
                    e.dest,
                    Route {
                        next_hop: from,
                        metric,
                        seq: e.seq,
                        updated: now,
                    },
                );
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

    /// Metric (hop count) of `node`'s route to `dest`, if any.
    fn route_metric(dsdv: &Dsdv, node: NodeId, dest: NodeId) -> Option<u32> {
        dsdv.nodes.get(&node)?.table.get(&dest).map(|r| r.metric)
    }

    fn line_harness(seed: u64) -> Harness<Dsdv> {
        let mut h = Harness::new(Dsdv::new(), &RngStreams::new(seed));
        h.set_link(n(0), n(1), 0.95);
        h.set_link(n(1), n(2), 0.95);
        h.set_link(n(2), n(3), 0.95);
        h
    }

    #[test]
    fn full_tables_converge_on_a_line() {
        let mut h = line_harness(1);
        h.run_until(SimTime::from_secs(10));
        // DSDV builds routes between *all* pairs (its overhead cost).
        for a in 0..4u32 {
            for b in 0..4u32 {
                if a != b {
                    assert!(h.route_works(n(a), n(b)), "{a}->{b}");
                }
            }
        }
        assert_eq!(route_metric(h.protocol(), n(0), n(3)), Some(3));
    }

    #[test]
    fn prefers_fewer_hops_at_same_seq() {
        // Triangle with a shortcut: 0-1, 1-2, 0-2.
        let mut h = Harness::new(Dsdv::new(), &RngStreams::new(2));
        h.set_link(n(0), n(1), 0.99);
        h.set_link(n(1), n(2), 0.99);
        h.set_link(n(0), n(2), 0.99);
        h.run_until(SimTime::from_secs(10));
        assert_eq!(
            route_metric(h.protocol(), n(0), n(2)),
            Some(1),
            "direct route wins"
        );
        assert_eq!(h.route_path(n(0), n(2)), Some(vec![n(0), n(2)]));
    }

    #[test]
    fn repairs_via_alternate_path() {
        let mut h = Harness::new(Dsdv::new(), &RngStreams::new(3));
        h.set_link(n(0), n(1), 0.95);
        h.set_link(n(0), n(2), 0.95);
        h.set_link(n(1), n(3), 0.95);
        h.set_link(n(2), n(3), 0.95);
        h.run_until(SimTime::from_secs(10));
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
        assert!(d.as_secs_f64() <= 10.0, "repaired in {d}");
    }

    #[test]
    fn partition_purges_routes() {
        let mut h = line_harness(4);
        h.run_until(SimTime::from_secs(10));
        h.remove_link(n(1), n(2));
        h.run_until(SimTime::from_secs(30));
        assert!(!h.route_works(n(0), n(3)));
        assert_eq!(route_metric(h.protocol(), n(0), n(3)), None, "purged");
    }

    #[test]
    fn dump_size_grows_with_converged_table() {
        // Once converged, each node advertises the whole network, so
        // per-tick bytes exceed the cold-start rate — the proactive
        // cost Appendix D weighs against AODV.
        let mut h = line_harness(5);
        h.run_until(SimTime::from_secs(2));
        let cold = h.overhead().bytes;
        h.run_until(SimTime::from_secs(30));
        let warm_per_tick = (h.overhead().bytes - cold) as f64 / 28.0;
        let cold_per_tick = cold as f64 / 2.0;
        assert!(
            warm_per_tick > cold_per_tick,
            "converged dumps are bigger: {warm_per_tick:.0} vs {cold_per_tick:.0} B/tick"
        );
    }
}
