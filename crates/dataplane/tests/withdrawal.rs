//! Path withdrawal mid-flight.
//!
//! Appendix C's resource-reservation rationale cuts both ways: full
//! source-destination routing keeps traffic on its assigned path, so
//! when the controller withdraws that path while traffic is assigned,
//! forwarding must *stop* — the flow is disrupted and the disruption
//! must be observable from the trace, never papered over by a
//! fallback route or by the (still-connected) GS↔EC tunnel. These
//! tests pin that contract at the data-plane layer; the traffic
//! engine's disruption accounting builds on it.

use tssdn_dataplane::Plane::{Alt, Primary};
use tssdn_dataplane::{PrefixAllocator, RoutingFabric, TunnelRegistry};
use tssdn_sim::PlatformId;

const B0: PlatformId = PlatformId(0);
const RELAY: PlatformId = PlatformId(5);
const GS: PlatformId = PlatformId(7);
const EC: PlatformId = PlatformId(9);

/// The hop predicate the orchestrator uses: radio edges are up;
/// the final GS→EC hop is governed by the tunnel registry.
fn link_up(tunnels: &TunnelRegistry) -> impl Fn(PlatformId, PlatformId) -> bool + '_ {
    move |x, y| {
        if y == EC {
            tunnels.connected(x, y)
        } else {
            true
        }
    }
}

#[test]
fn withdrawal_while_assigned_stops_forwarding_not_silently_continues() {
    let mut prefixes = PrefixAllocator::loon_default();
    let src = prefixes.prefix_for(B0);
    let dst = prefixes.prefix_for(EC);
    let mut fabric = RoutingFabric::new();
    let mut tunnels = TunnelRegistry::new();
    tunnels.establish(GS, EC);

    // Traffic is assigned: the flow traces end-to-end over the tunnel.
    fabric.program_path(Primary, src, dst, &[B0, RELAY, GS, EC], 1);
    let up = link_up(&tunnels);
    assert_eq!(
        fabric.trace_flow(Primary, src, dst, B0, EC, &up),
        Some(vec![B0, RELAY, GS, EC]),
        "flow carries traffic before withdrawal"
    );

    // The controller withdraws the source route mid-flight. The
    // tunnel stays connected — only the route program is gone.
    fabric.withdraw_flow(src, dst);
    assert!(tunnels.connected(GS, EC), "tunnel itself is still up");
    assert_eq!(
        fabric.trace_flow(Primary, src, dst, B0, EC, &up),
        None,
        "withdrawn flow must stop forwarding, tunnel or not"
    );
    // Both directions die together: the EC-side return path cannot
    // keep delivering into a half-torn flow either.
    assert_eq!(
        fabric.trace_flow(Primary, dst, src, EC, B0, |_, _| true),
        None
    );
}

#[test]
fn partial_withdrawal_breaks_the_trace_at_the_gap() {
    // Actuation "lacked the sequencing of updates to avoid temporary
    // routing blackholes": a withdraw can land on the relay before the
    // source hears about it. The half-withdrawn flow must read as
    // disrupted — the stale source entry must not deliver traffic.
    let mut prefixes = PrefixAllocator::loon_default();
    let src = prefixes.prefix_for(B0);
    let dst = prefixes.prefix_for(EC);
    let mut fabric = RoutingFabric::new();
    fabric.program_path(Primary, src, dst, &[B0, RELAY, GS, EC], 1);

    // Withdraw reached only the relay.
    let t = fabric.table_mut(RELAY);
    t.remove(Primary, src, dst);
    t.remove(Primary, dst, src);

    // Source still owns a (stale) entry toward the relay...
    assert_eq!(
        fabric
            .table(B0)
            .expect("programmed")
            .lookup(Primary, src, dst),
        Some(RELAY)
    );
    // ...but the end-to-end trace reports the disruption.
    assert_eq!(
        fabric.trace_flow(Primary, src, dst, B0, EC, |_, _| true),
        None
    );
}

#[test]
fn tunnel_teardown_disrupts_an_intact_route_program() {
    // The dual case: routes stay programmed but the GS↔EC tunnel goes
    // down. The last hop must fail the trace even though every
    // forwarding entry is present.
    let mut prefixes = PrefixAllocator::loon_default();
    let src = prefixes.prefix_for(B0);
    let dst = prefixes.prefix_for(EC);
    let mut fabric = RoutingFabric::new();
    let mut tunnels = TunnelRegistry::new();
    let tid = tunnels.establish(GS, EC);
    fabric.program_path(Primary, src, dst, &[B0, GS, EC], 1);

    assert!(fabric
        .trace_flow(Primary, src, dst, B0, EC, link_up(&tunnels))
        .is_some());
    tunnels.set_down(tid);
    assert_eq!(
        fabric.trace_flow(Primary, src, dst, B0, EC, link_up(&tunnels)),
        None,
        "down tunnel must disrupt the flow despite intact routes"
    );
}

#[test]
fn alt_plane_withdrawal_spares_the_primary() {
    // Regression: when a plan drops a flow's alternate (redundancy
    // loss) but keeps the flow, only the alt plane may be torn down.
    // Without a one-plane withdrawal the orchestrator had no alt-only
    // pass at all, so the alt plane kept forwarding onto links the
    // planner no longer believed in.
    let mut prefixes = PrefixAllocator::loon_default();
    let src = prefixes.prefix_for(B0);
    let dst = prefixes.prefix_for(EC);
    let alt_relay = PlatformId(6);
    let mut fabric = RoutingFabric::new();
    fabric.program_path(Primary, src, dst, &[B0, RELAY, GS, EC], 1);
    fabric.program_path(Alt, src, dst, &[B0, alt_relay, GS, EC], 1);
    assert_eq!(fabric.routes_via(alt_relay), 2, "alt transit in place");

    fabric.withdraw_flow_on(Alt, src, dst);

    // The alt plane is gone in both directions, fleet-wide.
    assert_eq!(fabric.trace_flow(Alt, src, dst, B0, EC, |_, _| true), None);
    assert_eq!(fabric.trace_flow(Alt, dst, src, EC, B0, |_, _| true), None);
    assert_eq!(
        fabric.routes_via(alt_relay),
        0,
        "no stale alt transit survives the withdrawal"
    );
    // The primary still forwards untouched.
    assert_eq!(
        fabric.trace_flow(Primary, src, dst, B0, EC, |_, _| true),
        Some(vec![B0, RELAY, GS, EC])
    );
    assert!(fabric
        .trace_flow(Primary, dst, src, EC, B0, |_, _| true)
        .is_some());
}

#[test]
fn reprogram_after_withdrawal_restores_forwarding_on_the_new_path() {
    // Disruption then recovery: a replacement program over a different
    // relay resumes delivery, and traffic follows the *new* path.
    let mut prefixes = PrefixAllocator::loon_default();
    let src = prefixes.prefix_for(B0);
    let dst = prefixes.prefix_for(EC);
    let mut fabric = RoutingFabric::new();
    fabric.program_path(Primary, src, dst, &[B0, RELAY, GS, EC], 1);
    fabric.withdraw_flow(src, dst);
    assert_eq!(
        fabric.trace_flow(Primary, src, dst, B0, EC, |_, _| true),
        None
    );

    let relay2 = PlatformId(6);
    fabric.program_path(Primary, src, dst, &[B0, relay2, GS, EC], 2);
    assert_eq!(
        fabric.trace_flow(Primary, src, dst, B0, EC, |_, _| true),
        Some(vec![B0, relay2, GS, EC])
    );
    assert_eq!(
        fabric.table(relay2).expect("programmed").version(Primary),
        2
    );
}
