//! Failure injection: the network under infrastructure loss.
//!
//! The paper's ground sites needed "reliable power and network
//! connectivity" (§2.2) precisely because their loss is severe: a
//! dark site takes its B2G links, its MANET gateway, and its EC
//! tunnels with it. These tests inject a site outage mid-day and check
//! that (a) the damage is what physics says it must be, and (b) the
//! TS-SDN reroutes around it using the surviving sites.

use tssdn_core::{Orchestrator, OrchestratorConfig};
use tssdn_fault::FaultKind;
use tssdn_sim::{PlatformId, SimDuration, SimTime};
use tssdn_telemetry::Layer;

fn world(seed: u64, n: usize) -> Orchestrator {
    let mut cfg = OrchestratorConfig::kenya(n, seed);
    cfg.fleet.spawn_radius_m = 220_000.0;
    Orchestrator::new(cfg)
}

/// Take site `gs` dark (power and backhaul) from now on.
fn outage(o: &mut Orchestrator, gs: PlatformId) {
    let now = o.now();
    o.chaos.force_start(FaultKind::GsOutage { site: gs }, now);
}

/// End the outage at `gs`.
fn restore(o: &mut Orchestrator, gs: PlatformId) {
    let now = o.now();
    o.chaos.force_clear(
        now,
        |k| matches!(k, FaultKind::GsOutage { site } if *site == gs),
    );
}

/// Links touching `gs` must die within the fade tolerance of the
/// outage; other sites' links survive.
///
/// The precondition (some established link actually touches the dark
/// site) is geometry-dependent, so the test walks seeds until it
/// finds a world where it holds instead of silently passing when it
/// doesn't.
#[test]
fn gs_outage_kills_only_its_links() {
    let gs0 = PlatformId(10);
    let mut tested = false;
    for seed in 301..311u64 {
        let mut o = world(seed, 10);
        o.run_until(SimTime::from_hours(11));
        let touching_before = o
            .intents
            .established()
            .filter(|i| i.link.a.platform == gs0 || i.link.b.platform == gs0)
            .count();
        if touching_before == 0 {
            continue; // geometry didn't use gs0 this seed; next one
        }
        tested = true;
        let others_before = o
            .intents
            .established()
            .filter(|i| i.link.a.platform != gs0 && i.link.b.platform != gs0)
            .count();
        outage(&mut o, gs0);
        o.run_until(o.now() + SimDuration::from_mins(2));
        let touching_after = o
            .intents
            .established()
            .filter(|i| i.link.a.platform == gs0 || i.link.b.platform == gs0)
            .count();
        assert_eq!(touching_after, 0, "seed {seed}: dark site keeps no links");
        // The rest of the mesh isn't nuked. Two minutes of ordinary
        // churn on an unrelated link is possible, but losing more than
        // half the surviving mesh would mean the outage cascaded.
        let others_after = o
            .intents
            .established()
            .filter(|i| i.link.a.platform != gs0 && i.link.b.platform != gs0)
            .count();
        assert!(
            others_after >= others_before.div_ceil(2),
            "seed {seed}: collateral damage bounded: {others_before} -> {others_after}"
        );
        break;
    }
    assert!(tested, "no seed in 301..311 produced a link touching gs0");
}

/// With two surviving sites, the controller re-establishes data-plane
/// availability within tens of minutes.
#[test]
fn controller_reroutes_around_a_dark_site() {
    let mut o = world(302, 12);
    o.run_until(SimTime::from_hours(11));
    let gs0 = PlatformId(12);
    outage(&mut o, gs0);
    // Give the controller time to react (detection, re-solve,
    // re-establishment through the surviving sites).
    o.run_until(o.now() + SimDuration::from_hours(1));
    let up = (0..12u32)
        .filter(|b| {
            o.data_plane_status(PlatformId(*b)) == tssdn_core::orchestrator::DataPlaneStatus::Up
        })
        .count();
    assert!(
        up > 0,
        "service survives on the remaining gateways: {up}/12 up"
    );
    // No active path may use the dark site.
    for b in 0..12u32 {
        if let Some(p) = o.active_path(PlatformId(b)) {
            assert!(!p.contains(&gs0), "path through dark site: {p:?}");
        }
    }
}

/// Restoration: when the site comes back, it rejoins the mesh.
#[test]
fn site_restoration_rejoins_the_mesh() {
    let mut o = world(303, 10);
    o.run_until(SimTime::from_hours(10));
    let gs0 = PlatformId(10);
    outage(&mut o, gs0);
    o.run_until(o.now() + SimDuration::from_mins(30));
    restore(&mut o, gs0);
    o.run_until(o.now() + SimDuration::from_hours(2));
    let touching = o
        .intents
        .established()
        .filter(|i| i.link.a.platform == gs0 || i.link.b.platform == gs0)
        .count();
    // Geometry permitting, the solver re-tasks the recovered site; at
    // minimum the site must again be a valid gateway.
    assert!(
        touching > 0 || o.tunnels.gateways_to(o.ec_ids()[0]).contains(&gs0),
        "restored site usable again"
    );
}

/// Total blackout: all sites dark means zero control & data plane for
/// balloons (satcom keeps command reachability, but no mesh egress),
/// and full recovery after power returns.
#[test]
fn total_gateway_blackout_and_recovery() {
    let mut o = world(304, 8);
    o.run_until(SimTime::from_hours(11));
    for g in 8..11u32 {
        outage(&mut o, PlatformId(g));
    }
    o.run_until(o.now() + SimDuration::from_mins(20));
    for b in 0..8u32 {
        assert_ne!(
            o.data_plane_status(PlatformId(b)),
            tssdn_core::orchestrator::DataPlaneStatus::Up,
            "no gateways ⇒ no data plane"
        );
        assert!(
            !o.cdpi.inband.is_reachable(PlatformId(b), o.now()),
            "no gateways ⇒ no in-band control"
        );
    }
    // Power restored: the day's mesh rebuilds.
    for g in 8..11u32 {
        restore(&mut o, PlatformId(g));
    }
    let before = o.availability.overall(Layer::DataPlane);
    o.run_until(o.now() + SimDuration::from_hours(2));
    let up = (0..8u32)
        .filter(|b| {
            o.data_plane_status(PlatformId(*b)) == tssdn_core::orchestrator::DataPlaneStatus::Up
        })
        .count();
    assert!(
        up > 0,
        "service recovers after restoration ({before:?} avail before)"
    );
}
