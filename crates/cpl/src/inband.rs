//! The in-band control channel: commands routed over the mesh itself.
//!
//! "The primary purpose of this control plane was to allow each
//! balloon router to establish a gRPC connection to a TS-SDN
//! controller endpoint ... and to maintain that connectivity despite
//! link failures" (§4.1). The frontend learns which balloons are
//! in-band reachable from heartbeats on those connections; delivery
//! latency is sub-second at the median with a small loss probability
//! standing in for reconvergence windows and connection resets.
//!
//! The mesh itself lives in `tssdn-manet`; this module receives
//! reachability facts (node → hop count) from the orchestrator rather
//! than routing packets itself, which keeps the channel testable in
//! isolation.

use crate::message::Command;
use rand::Rng;
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeMap;
use tssdn_sim::{PlatformId, SimDuration, SimTime};

/// Outcome of an in-band send.
#[derive(Debug, Clone)]
pub enum InbandOutcome {
    /// Delivered at `at`.
    Delivered { cmd: Command, at: SimTime },
    /// Lost (route flapped mid-flight); the frontend must time out
    /// and retry.
    Lost { cmd: Command },
}

/// The in-band channel state.
pub struct InbandChannel {
    /// Current hop count to each reachable node.
    reachable: BTreeMap<PlatformId, u32>,
    /// Last heartbeat per node.
    last_heartbeat: BTreeMap<PlatformId, SimTime>,
    in_flight: Vec<(SimTime, Command)>,
    rng: ChaCha8Rng,
    /// Base one-way latency (connection + EC processing).
    pub base_latency: SimDuration,
    /// Extra latency per mesh hop.
    pub per_hop_latency: SimDuration,
    /// Probability a message is lost in flight.
    pub loss_prob: f64,
    /// Heartbeat staleness after which a node counts unreachable.
    pub heartbeat_timeout: SimDuration,
}

impl InbandChannel {
    /// A channel with Loon-like latency (sub-second median RTT).
    pub fn new(rng: ChaCha8Rng) -> Self {
        InbandChannel {
            reachable: BTreeMap::new(),
            last_heartbeat: BTreeMap::new(),
            in_flight: Vec::new(),
            rng,
            base_latency: SimDuration(120),
            per_hop_latency: SimDuration(25),
            loss_prob: 0.01,
            heartbeat_timeout: SimDuration::from_secs(10),
        }
    }

    /// The orchestrator reports that `node` currently has a MANET
    /// route of `hops` hops to the controller endpoint (also counts as
    /// a heartbeat).
    pub fn set_reachable(&mut self, node: PlatformId, hops: u32, now: SimTime) {
        self.reachable.insert(node, hops);
        self.last_heartbeat.insert(node, now);
    }

    /// The orchestrator reports that `node` lost its in-band path.
    pub fn set_unreachable(&mut self, node: PlatformId) {
        self.reachable.remove(&node);
    }

    /// Whether `node` is currently in-band reachable (fresh heartbeat
    /// and a live route).
    pub fn is_reachable(&self, node: PlatformId, now: SimTime) -> bool {
        self.reachable.contains_key(&node)
            && self
                .last_heartbeat
                .get(&node)
                .map(|t| now.since(*t) < self.heartbeat_timeout)
                .unwrap_or(false)
    }

    /// Expected one-way delivery latency to `node`, if reachable.
    fn estimate_latency(&self, node: PlatformId) -> Option<SimDuration> {
        let hops = *self.reachable.get(&node)?;
        Some(SimDuration(
            self.base_latency.as_ms() + self.per_hop_latency.as_ms() * hops as u64,
        ))
    }

    /// Send a command. Returns `false` (not queued) when the node is
    /// unreachable.
    pub fn submit(&mut self, cmd: Command, now: SimTime) -> bool {
        let Some(latency) = self.estimate_latency(cmd.dest) else {
            return false;
        };
        if !self.is_reachable(cmd.dest, now) {
            return false;
        }
        // Jitter ±30% around the estimate.
        let jitter = self.rng.gen_range(0.7..1.3);
        let arrives = now + latency.mul_f64(jitter);
        self.in_flight.push((arrives, cmd));
        true
    }

    /// Advance, appending outcomes.
    pub fn poll(&mut self, now: SimTime, out: &mut Vec<InbandOutcome>) {
        let mut i = 0;
        while i < self.in_flight.len() {
            if self.in_flight[i].0 <= now {
                let (at, cmd) = self.in_flight.swap_remove(i);
                if self.rng.gen_bool(self.loss_prob) {
                    out.push(InbandOutcome::Lost { cmd });
                } else {
                    out.push(InbandOutcome::Delivered { cmd, at });
                }
            } else {
                i += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{CommandBody, CommandId};
    use tssdn_sim::RngStreams;

    fn chan() -> InbandChannel {
        InbandChannel::new(RngStreams::new(3).stream("inband-test"))
    }

    fn route_cmd(dest: u32, now: SimTime) -> Command {
        Command {
            id: CommandId(1),
            dest: PlatformId(dest),
            body: CommandBody::SetRoutes {
                version: 1,
                entries: 4,
            },
            tte: now + SimDuration::from_secs(3),
            submitted: now,
        }
    }

    #[test]
    fn unreachable_node_rejects_submit() {
        let mut c = chan();
        assert!(!c.submit(route_cmd(5, SimTime::ZERO), SimTime::ZERO));
    }

    #[test]
    fn reachability_requires_fresh_heartbeat() {
        let mut c = chan();
        c.set_reachable(PlatformId(5), 3, SimTime::ZERO);
        assert!(c.is_reachable(PlatformId(5), SimTime::from_secs(5)));
        assert!(
            !c.is_reachable(PlatformId(5), SimTime::from_secs(15)),
            "stale heartbeat"
        );
        c.set_unreachable(PlatformId(5));
        assert!(!c.is_reachable(PlatformId(5), SimTime::from_secs(1)));
    }

    #[test]
    fn delivery_is_subsecond_at_few_hops() {
        let mut c = chan();
        c.loss_prob = 0.0;
        c.set_reachable(PlatformId(5), 4, SimTime::ZERO);
        assert!(c.submit(route_cmd(5, SimTime::ZERO), SimTime::ZERO));
        let mut out = Vec::new();
        c.poll(SimTime::from_secs(1), &mut out);
        let InbandOutcome::Delivered { at, .. } = &out[0] else {
            panic!("delivered: {out:?}");
        };
        assert!(at.as_ms() < 1000, "sub-second: {at}");
    }

    #[test]
    fn latency_grows_with_hops() {
        let mut c = chan();
        c.set_reachable(PlatformId(1), 1, SimTime::ZERO);
        c.set_reachable(PlatformId(2), 8, SimTime::ZERO);
        assert!(c.estimate_latency(PlatformId(2)) > c.estimate_latency(PlatformId(1)));
        assert_eq!(c.estimate_latency(PlatformId(9)), None);
    }

    #[test]
    fn losses_occur_at_configured_rate() {
        let mut c = chan();
        c.loss_prob = 0.3;
        c.set_reachable(PlatformId(5), 2, SimTime::ZERO);
        let mut lost = 0;
        let mut delivered = 0;
        let mut out = Vec::new();
        for i in 0..500u64 {
            let now = SimTime::from_secs(i);
            c.set_reachable(PlatformId(5), 2, now);
            c.submit(route_cmd(5, now), now);
            c.poll(now + SimDuration::from_secs(1), &mut out);
            for o in out.drain(..) {
                match o {
                    InbandOutcome::Lost { .. } => lost += 1,
                    InbandOutcome::Delivered { .. } => delivered += 1,
                }
            }
        }
        let rate = lost as f64 / (lost + delivered) as f64;
        assert!((rate - 0.3).abs() < 0.07, "loss rate ≈ 0.3, got {rate}");
    }
}
