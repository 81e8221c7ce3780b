//! The in-band mesh as one concrete type: BATMAN on the harness, with
//! only the calls a controller's mesh stage makes.
//!
//! `Harness<P>` and its medium are generic, so they are compiled in
//! whichever crate names the protocol. Behind this type
//! `Harness<Batman>` is instantiated here, once, and a caller's edits
//! cannot move how the flood's hot path is compiled. The methods are
//! deliberately not `#[inline]`: each is called at most once per node
//! per tick, and inlining would pull the generic code back into the
//! caller.

use crate::batman::Batman;
use crate::harness::Harness;
use crate::types::NodeId;
use tssdn_sim::{RngStreams, SimTime};

/// BATMAN over the message-level harness: gateways, links, the flood
/// and the routes it yields.
pub struct BatmanMesh {
    harness: Harness<Batman>,
}

impl BatmanMesh {
    /// A mesh whose `gateways` are batman-adv gateways, then every node
    /// of `nodes` added in order; message loss draws from a dedicated
    /// stream of `streams`.
    pub fn new(streams: &RngStreams, gateways: &[NodeId], nodes: &[NodeId]) -> Self {
        let mut batman = Batman::new();
        for &g in gateways {
            batman.set_gateway(g, true);
        }
        let mut harness = Harness::new(batman, streams);
        for &n in nodes {
            harness.add_node(n);
        }
        BatmanMesh { harness }
    }

    /// Install or re-rate the link `a`–`b` at quality `q`.
    pub fn set_link(&mut self, a: NodeId, b: NodeId, q: f64) {
        self.harness.set_link(a, b, q);
    }

    /// Tear down the link `a`–`b`.
    pub fn remove_link(&mut self, a: NodeId, b: NodeId) {
        self.harness.remove_link(a, b);
    }

    /// Run the flood up to `until` ([`Harness::run_until`]).
    pub fn run_until(&mut self, until: SimTime) {
        self.harness.run_until(until);
    }

    /// The gateway `node` currently selects, if any is reachable.
    pub fn selected_gateway(&self, node: NodeId) -> Option<NodeId> {
        self.harness.protocol().selected_gateway(node)
    }

    /// The realized forwarding path `from → to`, if complete and
    /// loop-free ([`Harness::route_path`]).
    pub fn route_path(&self, from: NodeId, to: NodeId) -> Option<Vec<NodeId>> {
        self.harness.route_path(from, to)
    }
}
