//! Sharding scale benchmark: 1000-balloon regional planning vs the
//! 100-balloon global solve it has to undercut.
//!
//! The ROADMAP's north star is a 1000-balloon fleet planned each
//! epoch. The global solve is ~220 ms at 100 dense balloons and grows
//! superlinearly in `requests × candidates`, so 1000 is out of reach
//! unsharded. This bench is the acceptance gate for the regional
//! sharding layer (`tssdn_core::sharding`):
//!
//! * **identity gates first** — a one-region `solve_sharded` must be
//!   byte-identical to `Solver::solve`, and the merged multi-region
//!   plan must be byte-identical across worker counts. Never time a
//!   divergent configuration.
//! * **timing gate (full mode)** — one sharded planning epoch
//!   (evaluate + region solves + merge) over a 1000-balloon dispersed
//!   fleet must finish at or under the *measured-in-process* epoch
//!   for today's 100-balloon dense fleet solved globally. Both sides
//!   run on the same machine in the same process, so the gate is
//!   machine-independent.
//!
//! Emits `BENCH_sharding.json`. `--smoke` runs the identity gates on
//! a small fleet and writes no file unless `--out` is given.

use std::collections::BTreeSet;
use std::time::Instant;
use tssdn_core::{
    solve_sharded, CandidateGraph, EvaluatorConfig, LinkEvaluator, NetworkModel, RegionMap,
    ShardingConfig, Solver, WeatherSource,
};
use tssdn_dataplane::{BackhaulRequest, DrainRegistry};
use tssdn_geo::TrajectorySample;
use tssdn_link::Transceiver;
use tssdn_sim::{Fleet, FleetConfig, PlatformId, PlatformKind, RngStreams, SimTime};
use tssdn_telemetry::percentile;

/// EC pod id far above any platform id used here.
const EC: PlatformId = PlatformId(9_999_999);

struct World {
    model: NetworkModel,
    gs: Vec<PlatformId>,
    /// `(id, kind, lon_deg)` rows for `RegionMap::update`.
    positions: Vec<(PlatformId, PlatformKind, f64)>,
    requests: Vec<BackhaulRequest>,
}

fn build_world(n: usize, spawn_radius_m: f64) -> World {
    let streams = RngStreams::new(42);
    let mut cfg = FleetConfig::kenya(n);
    cfg.spawn_radius_m = spawn_radius_m;
    let fleet = Fleet::generate(cfg, &streams);
    let mut model = NetworkModel::new(WeatherSource::Itu(tssdn_rf::ItuSeasonal::tropical_wet()));
    let mut positions = Vec::new();
    for (id, kind) in fleet.platform_ids() {
        let xs: Vec<Transceiver> = match kind {
            PlatformKind::Balloon => (0..3).map(|i| Transceiver::balloon(id, i)).collect(),
            PlatformKind::GroundStation => (0..2)
                .map(|i| {
                    Transceiver::ground_station(
                        id,
                        i,
                        tssdn_geo::FieldOfRegard::ground_station(2.0),
                    )
                })
                .collect(),
        };
        model.add_platform(id, kind, xs);
        let pos = fleet.position(id);
        model.report_position(
            id,
            TrajectorySample {
                t_ms: 0,
                pos,
                vel_east_mps: 0.0,
                vel_north_mps: 0.0,
                vel_up_mps: 0.0,
            },
        );
        model.report_power(id, true);
        positions.push((id, kind, pos.lon_deg));
    }
    let gs: Vec<PlatformId> = fleet.ground_stations.iter().map(|g| g.id).collect();
    let requests = (0..n as u32)
        .map(|i| BackhaulRequest {
            node: PlatformId(i),
            ec: EC,
            min_bitrate_bps: 50_000_000,
        })
        .collect();
    World {
        model,
        gs,
        positions,
        requests,
    }
}

/// Region map over the world's believed positions.
fn map_for(world: &World, cfg: ShardingConfig) -> RegionMap {
    let mut map = RegionMap::new(cfg);
    map.update(&world.positions, SimTime::ZERO);
    map
}

/// Time `f` over `iters` runs; returns (p50_ns, p95_ns).
fn time_ns<T>(iters: usize, mut f: impl FnMut() -> T) -> (f64, f64) {
    let mut samples = Vec::with_capacity(iters);
    for _ in 0..iters {
        let t0 = Instant::now();
        let out = f();
        samples.push(t0.elapsed().as_nanos() as f64);
        drop(out);
    }
    (
        percentile(&samples, 50.0).expect("non-empty"),
        percentile(&samples, 95.0).expect("non-empty"),
    )
}

/// Identity gates on one world: single-region collapse and worker
/// independence. Returns the candidate count for reporting.
fn identity_gates(world: &World, sharded_cfg: ShardingConfig, label: &str) -> usize {
    let at = SimTime::ZERO;
    let evaluator = LinkEvaluator::new(EvaluatorConfig::default());
    let solver = Solver::default();
    let graph: CandidateGraph = evaluator.evaluate(&world.model, at);
    let gw = |_: PlatformId| world.gs.clone();
    let previous = BTreeSet::new();
    let drains = DrainRegistry::new();

    // Gate 1: one region, one worker == the global solve, bit for bit.
    let global = solver.solve(&graph, &world.requests, &gw, &previous, &drains, at);
    let one_region = map_for(
        world,
        ShardingConfig {
            num_regions: 1,
            workers: Some(1),
            ..sharded_cfg
        },
    );
    let collapsed = solve_sharded(
        &solver,
        &one_region,
        &graph,
        &world.requests,
        &gw,
        &previous,
        &drains,
        at,
    );
    assert!(
        collapsed == global,
        "[{label}] single-region solve_sharded diverged from Solver::solve"
    );

    // Gate 2: the sharded plan is worker-count independent.
    let plan_with = |workers: u32| {
        let map = map_for(
            world,
            ShardingConfig {
                workers: Some(workers),
                ..sharded_cfg
            },
        );
        solve_sharded(
            &solver,
            &map,
            &graph,
            &world.requests,
            &gw,
            &previous,
            &drains,
            at,
        )
    };
    let sequential = plan_with(1);
    for workers in [2, 4, 8] {
        assert!(
            plan_with(workers) == sequential,
            "[{label}] sharded plan diverged at {workers} workers"
        );
    }
    eprintln!(
        "  [{label}] identity gates OK: {} candidates, {} demand links, collapse + workers 1/2/4/8",
        graph.len(),
        sequential.demand_links.len(),
    );
    graph.len()
}

/// One timed planning epoch: evaluate the model, then solve —
/// globally or sharded.
fn epoch_ns(world: &World, map: Option<&RegionMap>, iters: usize) -> (f64, f64, usize) {
    let at = SimTime::ZERO;
    let evaluator = LinkEvaluator::new(EvaluatorConfig::default());
    let solver = Solver::default();
    let gw = |_: PlatformId| world.gs.clone();
    let previous = BTreeSet::new();
    let drains = DrainRegistry::new();
    let mut candidates = 0;
    let (p50, p95) = time_ns(iters, || {
        let graph = evaluator.evaluate(&world.model, at);
        candidates = graph.len();
        match map {
            Some(m) => solve_sharded(
                &solver,
                m,
                &graph,
                &world.requests,
                &gw,
                &previous,
                &drains,
                at,
            ),
            None => solver.solve(&graph, &world.requests, &gw, &previous, &drains, at),
        }
    });
    (p50, p95, candidates)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned();

    println!("=== sharding scale: regional planning at 1000 balloons ===");

    // The dispersed 1000-balloon shape: 9000 km spread keeps the
    // per-balloon candidate degree near the 100-dispersed fleet's
    // (similar areal density), so the sharding win is the partition,
    // not a sparser sky. 16 longitude bands of 10° cover the spread.
    let sharded_cfg = ShardingConfig {
        num_regions: 16,
        origin_lon_deg: 37.5,
        band_deg: 10.0,
        halo_km: 250.0,
        hysteresis_km: 25.0,
        workers: None,
    };

    if smoke {
        // Identity gates on a small fleet; 4 regions of 1.5° so the
        // spread (600 km ≈ 5.4°) genuinely splits across regions.
        let world = build_world(12, 600_000.0);
        identity_gates(
            &world,
            ShardingConfig {
                num_regions: 4,
                band_deg: 1.5,
                halo_km: 150.0,
                ..sharded_cfg
            },
            "smoke-12",
        );
        println!("smoke: identity gates held (no timing assertions)");
        if let Some(p) = out_path {
            let json = format!(
                "{{\n  \"bench\": \"sharding_scale\",\n  \"manifest\": {},\n  \"seed\": 42,\n  \"gates\": {{\"identity\": true, \"workers\": true}}\n}}\n",
                tssdn_bench::manifest_json("smoke")
            );
            std::fs::write(&p, json).expect("write bench json");
            println!("wrote {p}");
        }
        return;
    }

    let iters = 5;

    // Baseline: today's 100-balloon dense fleet, solved globally —
    // the wall-clock budget one sharded 1000-balloon epoch must fit.
    let baseline_world = build_world(100, 300_000.0);
    identity_gates(
        &baseline_world,
        ShardingConfig {
            num_regions: 3,
            band_deg: 1.5,
            halo_km: 150.0,
            ..sharded_cfg
        },
        "100-dense",
    );
    let (base_p50, base_p95, base_cands) = epoch_ns(&baseline_world, None, iters);
    eprintln!(
        "  [100-dense] global epoch p50 {:.1} ms ({} candidates)",
        base_p50 / 1e6,
        base_cands
    );

    // Treatment: 1000 balloons over 9000 km, 16 regions.
    let world = build_world(1000, 9_000_000.0);
    identity_gates(&world, sharded_cfg, "1000-dispersed");
    let map = map_for(&world, sharded_cfg);
    let census: Vec<u64> = map.census().iter().map(|(_, c)| *c).collect();
    let (sharded_p50, sharded_p95, sharded_cands) = epoch_ns(&world, Some(&map), iters);
    eprintln!(
        "  [1000-dispersed] sharded epoch p50 {:.1} ms ({} candidates, census {:?})",
        sharded_p50 / 1e6,
        sharded_cands,
        census
    );

    // Reference point (reported, not gated): the same 1000-balloon
    // problem solved globally, to show what the partition buys.
    let (global_p50, _global_p95, _) = epoch_ns(&world, None, 2);
    eprintln!(
        "  [1000-dispersed] unsharded epoch p50 {:.1} ms (reference)",
        global_p50 / 1e6
    );

    println!();
    println!(
        "{:>16} {:>10} {:>12} {:>12}",
        "config", "cands", "epoch p50", "epoch p95"
    );
    println!(
        "{:>16} {:>10} {:>11.1}ms {:>11.1}ms",
        "100-dense",
        base_cands,
        base_p50 / 1e6,
        base_p95 / 1e6
    );
    println!(
        "{:>16} {:>10} {:>11.1}ms {:>11.1}ms",
        "1000-sharded",
        sharded_cands,
        sharded_p50 / 1e6,
        sharded_p95 / 1e6
    );
    println!(
        "{:>16} {:>10} {:>11.1}ms {:>12}",
        "1000-global",
        sharded_cands,
        global_p50 / 1e6,
        "-"
    );

    let gate_ok = sharded_p50 <= base_p50;
    println!();
    println!(
        "gate: sharded 1000-balloon epoch p50 {:.1} ms <= 100-balloon global epoch p50 {:.1} ms — {}",
        sharded_p50 / 1e6,
        base_p50 / 1e6,
        if gate_ok { "PASS" } else { "FAIL" }
    );

    let json = format!(
        "{{\n  \"bench\": \"sharding_scale\",\n  \"manifest\": {},\n  \"seed\": 42,\n  \"iters\": {iters},\n  \
         \"baseline\": {{\"balloons\": 100, \"candidates\": {base_cands}, \"epoch\": {{\"p50_ns\": {base_p50:.0}, \"p95_ns\": {base_p95:.0}}}}},\n  \
         \"sharded\": {{\"balloons\": 1000, \"regions\": 16, \"candidates\": {sharded_cands}, \"epoch\": {{\"p50_ns\": {sharded_p50:.0}, \"p95_ns\": {sharded_p95:.0}}}}},\n  \
         \"unsharded_reference\": {{\"balloons\": 1000, \"epoch_p50_ns\": {global_p50:.0}}},\n  \
         \"speedup_vs_unsharded_p50\": {:.2},\n  \
         \"gates\": {{\"identity\": true, \"workers\": true, \"epoch_within_100_balloon_budget\": {gate_ok}}}\n}}\n",
        tssdn_bench::manifest_json("full"),
        global_p50 / sharded_p50,
    );
    match out_path {
        Some(p) => {
            std::fs::write(&p, &json).expect("write bench json");
            println!("wrote {p}");
        }
        None => {
            std::fs::write("BENCH_sharding.json", &json).expect("write bench json");
            println!("wrote BENCH_sharding.json");
        }
    }

    assert!(
        gate_ok,
        "sharded 1000-balloon epoch ({:.1} ms) exceeded the 100-balloon global budget ({:.1} ms)",
        sharded_p50 / 1e6,
        base_p50 / 1e6
    );
}
