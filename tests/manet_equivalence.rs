//! The in-band mesh fast path against its specification.
//!
//! `tssdn-manet`'s `Topology` / `Harness` / `Batman` are held to one
//! rule: same callbacks in the same order, same draws from the
//! `manet-loss` stream (DESIGN.md §2) as the `BTreeMap` flood in
//! `tssdn_oracle::mesh`. Each
//! property drives both with one random script — sparse, out-of-order
//! node ids; links set, re-rated and removed; nodes added mid-run;
//! hop latency and tick interval changed between steps — and after
//! every step demands identical overhead counters and identical
//! routing answers for every pair of nodes. A single loss draw taken
//! in a different order desynchronises the two RNG streams and shows
//! up within a step or two.

use proptest::prelude::*;
use tssdn_manet::{Aodv, Batman, Dsdv, ManetProtocol, NodeId, Olsr, OverheadStats};
use tssdn_oracle::mesh;
use tssdn_sim::{PlatformId, RngStreams, SimDuration, SimTime};

/// The operations a script needs, over either harness.
trait Rig {
    type Proto: ManetProtocol;
    fn proto(&self) -> &Self::Proto;
    fn add_node(&mut self, n: NodeId);
    fn set_link(&mut self, a: NodeId, b: NodeId, q: f64);
    fn remove_link(&mut self, a: NodeId, b: NodeId);
    fn want_route(&mut self, from: NodeId, to: NodeId);
    fn run_until(&mut self, until: SimTime);
    fn set_hop_latency(&mut self, d: SimDuration);
    fn set_tick_interval(&mut self, d: SimDuration);
    fn now(&self) -> SimTime;
    fn overhead(&self) -> OverheadStats;
    fn route_path(&self, from: NodeId, to: NodeId) -> Option<Vec<NodeId>>;
    /// Every node with its neighbor list, in iteration order.
    fn adjacency(&self) -> Vec<(NodeId, Vec<(NodeId, f64)>)>;
}

macro_rules! impl_rig {
    ($harness:ty) => {
        impl<P: ManetProtocol> Rig for $harness {
            type Proto = P;
            fn proto(&self) -> &P {
                self.protocol()
            }
            fn add_node(&mut self, n: NodeId) {
                self.add_node(n)
            }
            fn set_link(&mut self, a: NodeId, b: NodeId, q: f64) {
                self.set_link(a, b, q)
            }
            fn remove_link(&mut self, a: NodeId, b: NodeId) {
                self.remove_link(a, b)
            }
            fn want_route(&mut self, from: NodeId, to: NodeId) {
                self.want_route(from, to)
            }
            fn run_until(&mut self, until: SimTime) {
                self.run_until(until)
            }
            fn set_hop_latency(&mut self, d: SimDuration) {
                self.hop_latency = d;
            }
            fn set_tick_interval(&mut self, d: SimDuration) {
                self.tick_interval = d;
            }
            fn now(&self) -> SimTime {
                self.now()
            }
            fn overhead(&self) -> OverheadStats {
                self.overhead()
            }
            fn route_path(&self, from: NodeId, to: NodeId) -> Option<Vec<NodeId>> {
                self.route_path(from, to)
            }
            fn adjacency(&self) -> Vec<(NodeId, Vec<(NodeId, f64)>)> {
                let t = self.topology();
                t.nodes().map(|n| (n, t.neighbors(n).collect())).collect()
            }
        }
    };
}
impl_rig!(tssdn_manet::Harness<P>);
impl_rig!(mesh::Harness<P>);

/// One scripted operation: `(kind, a, b, quality, milliseconds)`.
/// `a` and `b` index the node list and `quality` indexes
/// [`QUALITIES`] (each modulo the length); the step after the
/// operation lasts `milliseconds` scaled by [`step_ms`].
type Op = (u32, usize, usize, usize, u64);

/// Hop latencies the script switches between, ms. Zero makes a copy
/// due the instant it is sent; a drop from 40 to 1 puts new copies
/// ahead of ones already in flight.
const LATENCIES: [u64; 6] = [0, 1, 3, 10, 25, 40];

/// Tick intervals the script switches between, ms. The short ones
/// put several waves of copies in flight at once, with distinct due
/// times for a latency change to cut into.
const TICKS: [u64; 5] = [7, 60, 250, 1000, 1800];

/// Step length for a drawn `ms`: a third of steps last a few
/// milliseconds, so that operations land mid-flood with copies in
/// flight, a third a fraction of a tick, a third up to several ticks.
fn step_ms(ms: u64) -> u64 {
    match ms % 3 {
        0 => 1 + ms % 25,
        1 => 1 + ms % 300,
        _ => ms,
    }
}

/// Link qualities to draw from. Few and round on purpose: equal-cost
/// paths then carry exactly equal TQ, which is what exercises the
/// gateway tie-break.
const QUALITIES: [f64; 4] = [0.3, 0.6, 0.95, 1.0];

/// Up to 12 distinct ids, a mix of small ones and ones spread over
/// the whole `u32` range, in generation (not id) order.
fn distinct_ids(raw: &[(bool, u32)]) -> Vec<NodeId> {
    let mut ids: Vec<NodeId> = Vec::new();
    for &(small, x) in raw {
        let id = PlatformId(if small { x % 16 } else { x });
        if !ids.contains(&id) {
            ids.push(id);
        }
    }
    ids
}

/// Apply `ops` to both rigs, checking after every one. The first
/// `ids.len() - spare` ids exist from the start; the rest join through
/// the add-node operation.
fn drive<A: Rig, B: Rig>(
    new: &mut A,
    old: &mut B,
    ids: &[NodeId],
    spare: usize,
    ops: &[Op],
    same_routing: impl Fn(&A::Proto, &B::Proto, &[NodeId]) -> Result<(), String>,
) -> TestCaseResult {
    let mut present = ids.len() - spare;
    for &n in &ids[..present] {
        new.add_node(n);
        old.add_node(n);
    }
    for (step, &(kind, a, b, q, ms)) in ops.iter().enumerate() {
        let (a, b, q) = (ids[a % present], ids[b % present], QUALITIES[q % 4]);
        match kind {
            0 | 1 if a != b => {
                new.set_link(a, b, q);
                old.set_link(a, b, q);
            }
            2 => {
                new.remove_link(a, b);
                old.remove_link(a, b);
            }
            3 => {
                // Re-rate an existing link, picked by index.
                let links: Vec<(NodeId, NodeId)> = old
                    .adjacency()
                    .into_iter()
                    .flat_map(|(n, ms)| ms.into_iter().map(move |(m, _)| (n, m)))
                    .collect();
                if let Some(&(x, y)) = links.get(ms as usize % links.len().max(1)) {
                    new.set_link(x, y, q);
                    old.set_link(x, y, q);
                }
            }
            4 if present < ids.len() => {
                // A node joins mid-run, linked or not.
                let n = ids[present];
                present += 1;
                if ms % 2 == 0 {
                    new.add_node(n);
                    old.add_node(n);
                } else {
                    new.set_link(n, a, q);
                    old.set_link(n, a, q);
                }
            }
            5 => {
                let latency = SimDuration(LATENCIES[ms as usize % LATENCIES.len()]);
                new.set_hop_latency(latency);
                old.set_hop_latency(latency);
            }
            6 => {
                let interval = SimDuration(TICKS[ms as usize % TICKS.len()]);
                new.set_tick_interval(interval);
                old.set_tick_interval(interval);
            }
            7 => {
                new.want_route(a, b);
                old.want_route(a, b);
            }
            _ => {}
        }
        // Step to a random instant, often between ticks with copies
        // still in flight.
        let until = old.now() + SimDuration(step_ms(ms));
        new.run_until(until);
        old.run_until(until);

        prop_assert_eq!(new.now(), old.now(), "step {}: clocks", step);
        prop_assert_eq!(new.overhead(), old.overhead(), "step {}: overhead", step);
        prop_assert_eq!(new.adjacency(), old.adjacency(), "step {}: topology", step);
        for &x in ids {
            for &y in ids {
                prop_assert_eq!(
                    new.proto().next_hop(x, y),
                    old.proto().next_hop(x, y),
                    "step {}: next_hop({:?}, {:?})",
                    step,
                    x,
                    y
                );
                prop_assert_eq!(
                    new.route_path(x, y),
                    old.route_path(x, y),
                    "step {}: route_path({:?}, {:?})",
                    step,
                    x,
                    y
                );
            }
        }
        if let Err(why) = same_routing(new.proto(), old.proto(), ids) {
            return Err(TestCaseError::Fail(format!("step {step}: {why}")));
        }
    }
    Ok(())
}

/// A whole case: raw ids, how many of them join mid-run, the
/// `manet-loss` seed and the script.
type Case = (Vec<(bool, u32)>, usize, u64, Vec<Op>);

fn case() -> impl Strategy<Value = Case> {
    (
        prop::collection::vec((proptest::bool::ANY, 0u32..=u32::MAX), 4..13),
        0usize..3,
        0u64..u64::MAX,
        prop::collection::vec(
            (0u32..8, 0usize..12, 0usize..12, 0usize..4, 1u64..2600),
            8..60,
        ),
    )
}

/// Run one unchanged library protocol under the new and the old
/// harness.
fn same_under_both_harnesses<P: ManetProtocol>(
    make: impl Fn() -> P,
    (raw, spare, seed, ops): Case,
) -> TestCaseResult {
    let ids = distinct_ids(&raw);
    prop_assume!(ids.len() >= 4);
    let streams = RngStreams::new(seed);
    let mut new = tssdn_manet::Harness::new(make(), &streams);
    let mut old = mesh::Harness::new(make(), &streams);
    drive(&mut new, &mut old, &ids, spare, &ops, |_, _, _| Ok(()))
}

proptest! {
    #[test]
    fn batman_matches_the_frozen_reference(case in case(), gateways in 1usize..4) {
        let (raw, spare, seed, ops) = case;
        let ids = distinct_ids(&raw);
        prop_assume!(ids.len() >= 4);
        let streams = RngStreams::new(seed);
        let mut fast = Batman::new();
        let mut reference = mesh::Batman::new();
        // Gateways are configured before the nodes are registered, as
        // the orchestrator does; they are the last ids, so some join
        // mid-run.
        for &gw in ids.iter().rev().take(gateways) {
            fast.set_gateway(gw, true);
            reference.set_gateway(gw, true);
        }
        let mut new = tssdn_manet::Harness::new(fast, &streams);
        let mut old = mesh::Harness::new(reference, &streams);
        drive(&mut new, &mut old, &ids, spare, &ops, |fast, reference, ids| {
            for &x in ids {
                if fast.selected_gateway(x) != reference.selected_gateway(x) {
                    return Err(format!("selected_gateway({x:?})"));
                }
                for &y in ids {
                    if fast.route_tq(x, y) != reference.route_tq(x, y) {
                        return Err(format!("route_tq({x:?}, {y:?})"));
                    }
                }
            }
            Ok(())
        })?;
    }

    #[test]
    fn aodv_is_unmoved_by_the_new_harness(case in case()) {
        same_under_both_harnesses(Aodv::new, case)?;
    }

    #[test]
    fn dsdv_is_unmoved_by_the_new_harness(case in case()) {
        same_under_both_harnesses(Dsdv::new, case)?;
    }

    #[test]
    fn olsr_is_unmoved_by_the_new_harness(case in case()) {
        same_under_both_harnesses(Olsr::new, case)?;
    }
}
