//! Administrative drains: a software-update campaign.
//!
//! Appendix C: "Drain requests ... allowed for the temporary exclusion
//! of network nodes from the data plane by rerouting production
//! traffic around the drained node ... to implement an 'Opportunistic'
//! drain, the SDN controller would passively wait for a node to
//! naturally lose all traffic, then latch that state."
//!
//! The controller's one drain keeps new paths off the node; waiting
//! for the node to empty is the operator's part here. This example
//! drains one relay balloon mid-day, watches traffic leave it while
//! service continues (the node's transit paths and links, read from
//! the orchestrator's public state), then cancels the drain after the
//! "update".
//!
//! Run with: `cargo run --release -p tssdn-examples --bin drain_maintenance`

use tssdn_core::{Orchestrator, OrchestratorConfig};
use tssdn_sim::{PlatformId, SimDuration, SimTime};
use tssdn_telemetry::Layer;

fn main() {
    println!("== drain_maintenance: draining a relay for a software update ==\n");

    let mut config = OrchestratorConfig::kenya(10, 99);
    config.fleet.spawn_radius_m = 220_000.0;
    let mut o = Orchestrator::new(config);

    // Let the mesh form through the morning.
    o.run_until(SimTime::from_hours(10));
    // Pick the busiest relay: the balloon with the most transit routes.
    let victim = (0..10u32)
        .map(PlatformId)
        .max_by_key(|v| {
            (0..10u32)
                .filter(|b| PlatformId(*b) != *v)
                .filter_map(|b| o.active_path(PlatformId(b)))
                .filter(|p| p.contains(v))
                .count()
        })
        .expect("balloons exist");
    let live_transit = (0..10u32)
        .filter(|b| PlatformId(*b) != victim)
        .filter_map(|b| o.active_path(PlatformId(b)))
        .filter(|p| p.contains(&victim))
        .count();
    println!("[10:00] draining {victim}: {live_transit} working paths currently via it",);
    o.drains.request(victim, o.now(), None);

    // Watch the drain progress: the solver stops routing new paths
    // through the node; traffic bleeds off as topology evolves. The
    // node is empty once no *working* path crosses it and it holds no
    // link — a stale forwarding entry on a disconnected node carries
    // no traffic.
    let mut drained_at = None;
    while o.now() < SimTime::from_hours(20) && drained_at.is_none() {
        o.run_until(o.now() + SimDuration::from_mins(15));
        let transit = (0..10u32)
            .filter(|b| PlatformId(*b) != victim)
            .filter_map(|b| o.active_path(PlatformId(b)))
            .filter(|p| p.contains(&victim))
            .count();
        let own = o
            .intents
            .established()
            .filter(|i| i.link.a.platform == victim || i.link.b.platform == victim)
            .count();
        if transit == 0 && own == 0 {
            drained_at = Some(o.now());
        }
        println!(
            "[{}] transit via {victim}: {transit:>2}, own links: {own} {}",
            o.now(),
            if drained_at.is_some() {
                "→ EMPTY (safe for maintenance)"
            } else {
                ""
            }
        );
    }

    match drained_at {
        Some(t) => {
            println!("\n{victim} fully drained at {t}; applying software update...");
            // The update takes 20 minutes; the node stays excluded.
            o.run_until(t + SimDuration::from_mins(20));
            o.drains.cancel(victim);
            println!("update complete; drain cancelled — {victim} is schedulable again");
            o.run_until(o.now() + SimDuration::from_hours(1));
            let own = o
                .intents
                .established()
                .filter(|i| i.link.a.platform == victim || i.link.b.platform == victim)
                .count();
            println!("one hour later: {victim} carries {own} links again");
        }
        None => {
            println!("\n{victim} never fully drained before night; the nightly power-down");
            println!("finishes the job — \"we could expect every node to become fully");
            println!("disconnected from the mesh every night\" (Appendix C).");
        }
    }

    if let Some(a) = o.availability.overall(Layer::DataPlane) {
        println!(
            "\ndata-plane availability across the day (drain included): {:.1}%",
            100.0 * a
        );
    }
}
