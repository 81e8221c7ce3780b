//! Planning hot path benchmark: optimized evaluate→solve vs the
//! retained naive reference, at production fleet sizes.
//!
//! Emits `BENCH_planning.json` — the first point on the repo's perf
//! trajectory — with a provenance `manifest` (revision, rustc, nproc,
//! mode) and p50/p95 wall times for the optimized
//! `LinkEvaluator::evaluate` / `Solver::solve` and their naive
//! references at 25/50/100-balloon fleets, plus the speedups. Every
//! fleet but `100-flown` has a different altitude on each balloon (no
//! two platform pairs share a path decay profile: the evaluator's
//! decay memo never hits); `100-flown` has flown six hours first, so
//! its balloons share a few float altitudes as in a live world. `solve`
//! is the cold solve (nothing installed: a world pays it once per
//! dawn); `solve_warm` is the one it pays every epoch after — the
//! same graph and requests with the cold plan installed as the
//! previous topology. The references keep the pre-hoisting arithmetic
//! (one path walk per band, per-pairing gains and noise floor,
//! set-and-map solver bookkeeping), so both speedups measure the
//! production kernels against them, not just the sweep structure
//! around them. Before
//! timing anything it asserts the optimized outputs are bit-identical
//! to the references at every size (the same golden-equivalence
//! contract the proptest enforces, here at production scale where the
//! spatial grid and the threaded sweep actually engage).
//!
//! Usage:
//!   planning_hot_path [--smoke] [--out PATH]
//!
//! `--smoke` runs one tiny fleet with few iterations and writes no
//! file unless `--out` is given — CI uses it to prove the binary and
//! the equivalence gate still run; there are no timing assertions.

use std::collections::BTreeSet;
use std::time::Instant;
use tssdn_core::{
    CandidateGraph, EvaluatorConfig, LinkEvaluator, NetworkModel, Solver, WeatherSource,
};
use tssdn_dataplane::{BackhaulRequest, DrainRegistry};
use tssdn_geo::TrajectorySample;
use tssdn_link::Transceiver;
use tssdn_oracle::planning::{evaluate_reference, solve_reference};
use tssdn_sim::{Fleet, FleetConfig, PlatformId, PlatformKind, RngStreams, SimTime};
use tssdn_telemetry::percentile;

fn build_model(spec: &FleetSpec) -> (NetworkModel, Vec<PlatformId>) {
    let streams = RngStreams::new(42);
    let mut cfg = FleetConfig::kenya(spec.n);
    cfg.spawn_radius_m = spec.spawn_radius_m;
    let mut fleet = Fleet::generate(cfg, &streams);
    fleet.advance_to(SimTime::from_hours(spec.flown_hours));
    let mut model = NetworkModel::new(WeatherSource::Itu(tssdn_rf::ItuSeasonal::tropical_wet()));
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
        model.report_position(
            id,
            TrajectorySample {
                t_ms: 0,
                pos: fleet.position(id),
                vel_east_mps: 0.0,
                vel_north_mps: 0.0,
                vel_up_mps: 0.0,
            },
        );
        model.report_power(id, true);
    }
    let gs: Vec<PlatformId> = fleet.ground_stations.iter().map(|g| g.id).collect();
    (model, gs)
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

struct FleetResult {
    label: String,
    balloons: usize,
    platforms: usize,
    candidates: usize,
    evaluate: (f64, f64),
    evaluate_ref: (f64, f64),
    solve: (f64, f64),
    solve_warm: (f64, f64),
    solve_ref: (f64, f64),
}

/// A benched fleet shape. `spawn_radius_m` controls dispersion: 300 km
/// packs every pair inside radio range (the grid prefilter is a
/// no-op); a multi-thousand-km spread is where the grid actually
/// prunes pair candidates before any slant-range math. A fleet fresh
/// from spawn has a different random altitude on every balloon;
/// `flown_hours` of flight sends them to the wind layers their flight
/// controllers choose, so — as in a live world — many share one float
/// altitude and the evaluator's per-altitude-pair memo hits.
struct FleetSpec {
    n: usize,
    spawn_radius_m: f64,
    flown_hours: u64,
    label: &'static str,
}

fn run_fleet(spec: &FleetSpec, iters: usize) -> FleetResult {
    let FleetSpec { n, label, .. } = *spec;
    let (model, gs) = build_model(spec);
    let at = SimTime::ZERO;
    let evaluator = LinkEvaluator::new(EvaluatorConfig::default());
    let solver = Solver::default();

    // ---- equivalence gate first: never time a divergent pair ----
    let graph: CandidateGraph = evaluator.evaluate(&model, at);
    let graph_ref = evaluate_reference(&evaluator, &model, at);
    assert!(
        graph == graph_ref,
        "{n}-balloon fleet: optimized evaluate diverged from reference \
         ({} vs {} candidates)",
        graph.len(),
        graph_ref.len()
    );

    let ec = PlatformId(1000);
    let requests: Vec<BackhaulRequest> = (0..n as u32)
        .map(|i| BackhaulRequest {
            node: PlatformId(i),
            ec,
            min_bitrate_bps: 50_000_000,
        })
        .collect();
    let gw = |_: PlatformId| gs.clone();
    let previous = BTreeSet::new();
    let drains = DrainRegistry::new();

    let plan = solver.solve(&graph, &requests, &gw, &previous, &drains, at);
    let plan_ref = solve_reference(&solver, &graph, &requests, &gw, &previous, &drains, at);
    assert!(
        plan == plan_ref,
        "{n}-balloon fleet: optimized solve diverged from reference \
         ({} vs {} demand links)",
        plan.demand_links.len(),
        plan_ref.demand_links.len()
    );
    // Warm-solve equivalence too: hysteresis path with the cold plan
    // installed as the previous topology.
    let warm_prev = plan.key_set();
    let warm = solver.solve(&graph, &requests, &gw, &warm_prev, &drains, at);
    let warm_ref = solve_reference(&solver, &graph, &requests, &gw, &warm_prev, &drains, at);
    assert!(
        warm == warm_ref,
        "{n}-balloon fleet: warm solve diverged from reference"
    );

    let mut altitudes: Vec<u64> = model
        .platforms()
        .filter_map(|p| model.predicted_position(p.id, at))
        .map(|pos| pos.alt_m.to_bits())
        .collect();
    altitudes.sort_unstable();
    altitudes.dedup();
    eprintln!(
        "  [{label}] {} platforms at {} altitudes, {} candidates, plan: {} demand + {} redundant — equivalence OK",
        n + gs.len(),
        altitudes.len(),
        graph.len(),
        plan.demand_links.len(),
        plan.redundant_links.len()
    );

    // ---- timings ----
    let evaluate = time_ns(iters, || evaluator.evaluate(&model, at));
    let evaluate_ref = time_ns(iters, || evaluate_reference(&evaluator, &model, at));
    let solve = time_ns(iters, || {
        solver.solve(&graph, &requests, &gw, &previous, &drains, at)
    });
    let solve_warm = time_ns(iters, || {
        solver.solve(&graph, &requests, &gw, &warm_prev, &drains, at)
    });
    let solve_ref = time_ns(iters, || {
        solve_reference(&solver, &graph, &requests, &gw, &previous, &drains, at)
    });

    FleetResult {
        label: label.to_string(),
        balloons: n,
        platforms: n + gs.len(),
        candidates: graph.len(),
        evaluate,
        evaluate_ref,
        solve,
        solve_warm,
        solve_ref,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned();

    // Dense fleets (300 km spread: every pair in range) at three sizes,
    // a dispersed 100-balloon fleet (3000 km spread) where the spatial
    // grid prefilter actually discards out-of-range pairs, and a dense
    // one at shared altitudes.
    const SMOKE: &[FleetSpec] = &[FleetSpec {
        n: 8,
        spawn_radius_m: 300_000.0,
        flown_hours: 0,
        label: "8",
    }];
    const FULL: &[FleetSpec] = &[
        FleetSpec {
            n: 25,
            spawn_radius_m: 300_000.0,
            flown_hours: 0,
            label: "25",
        },
        FleetSpec {
            n: 50,
            spawn_radius_m: 300_000.0,
            flown_hours: 0,
            label: "50",
        },
        FleetSpec {
            n: 100,
            spawn_radius_m: 300_000.0,
            flown_hours: 0,
            label: "100",
        },
        FleetSpec {
            n: 100,
            spawn_radius_m: 3_000_000.0,
            flown_hours: 0,
            label: "100-dispersed",
        },
        FleetSpec {
            n: 100,
            spawn_radius_m: 300_000.0,
            flown_hours: 6,
            label: "100-flown",
        },
    ];
    let (specs, iters): (&[FleetSpec], usize) = if smoke { (SMOKE, 3) } else { (FULL, 12) };
    println!("=== planning hot path: optimized vs naive reference ===");
    println!(
        "fleets: {:?} (+3 GS each), {iters} iters, {} mode",
        specs.iter().map(|s| s.label).collect::<Vec<_>>(),
        if smoke { "smoke" } else { "full" }
    );

    let results: Vec<FleetResult> = specs.iter().map(|s| run_fleet(s, iters)).collect();

    println!();
    println!(
        "{:>14} {:>10} {:>12} {:>12} {:>8} {:>12} {:>12} {:>8} {:>12}",
        "fleet",
        "cands",
        "eval p50",
        "ref p50",
        "speedup",
        "solve p50",
        "ref p50",
        "speedup",
        "warm p50"
    );
    for r in &results {
        println!(
            "{:>14} {:>10} {:>11.2}ms {:>11.2}ms {:>7.1}x {:>11.2}ms {:>11.2}ms {:>7.1}x {:>11.2}ms",
            r.label,
            r.candidates,
            r.evaluate.0 / 1e6,
            r.evaluate_ref.0 / 1e6,
            r.evaluate_ref.0 / r.evaluate.0,
            r.solve.0 / 1e6,
            r.solve_ref.0 / 1e6,
            r.solve_ref.0 / r.solve.0,
            r.solve_warm.0 / 1e6,
        );
    }

    if let Some(r100) = results.iter().find(|r| r.label == "100") {
        let sp = r100.solve_ref.0 / r100.solve.0;
        println!();
        println!("100-balloon solve speedup (p50): {sp:.1}x (acceptance floor: 5x)");
    }

    // Hand-rolled JSON (no serde in the workspace).
    let fleets_json: Vec<String> = results
        .iter()
        .map(|r| {
            format!(
                "    {{\n      \"fleet\": \"{}\",\n      \"balloons\": {},\n      \"platforms\": {},\n      \"candidates\": {},\n      \
                 \"evaluate\": {{\"p50_ns\": {:.0}, \"p95_ns\": {:.0}}},\n      \
                 \"evaluate_reference\": {{\"p50_ns\": {:.0}, \"p95_ns\": {:.0}}},\n      \
                 \"solve\": {{\"p50_ns\": {:.0}, \"p95_ns\": {:.0}}},\n      \
                 \"solve_warm\": {{\"p50_ns\": {:.0}, \"p95_ns\": {:.0}}},\n      \
                 \"solve_reference\": {{\"p50_ns\": {:.0}, \"p95_ns\": {:.0}}},\n      \
                 \"evaluate_speedup_p50\": {:.2},\n      \"solve_speedup_p50\": {:.2}\n    }}",
                r.label,
                r.balloons,
                r.platforms,
                r.candidates,
                r.evaluate.0,
                r.evaluate.1,
                r.evaluate_ref.0,
                r.evaluate_ref.1,
                r.solve.0,
                r.solve.1,
                r.solve_warm.0,
                r.solve_warm.1,
                r.solve_ref.0,
                r.solve_ref.1,
                r.evaluate_ref.0 / r.evaluate.0,
                r.solve_ref.0 / r.solve.0,
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"planning_hot_path\",\n  \"manifest\": {},\n  \"seed\": 42,\n  \"iters\": {},\n  \"fleets\": [\n{}\n  ]\n}}\n",
        tssdn_bench::manifest_json(if smoke { "smoke" } else { "full" }),
        iters,
        fleets_json.join(",\n")
    );

    match out_path {
        Some(p) => {
            std::fs::write(&p, &json).expect("write bench json");
            println!("wrote {p}");
        }
        None if !smoke => {
            std::fs::write("BENCH_planning.json", &json).expect("write bench json");
            println!("wrote BENCH_planning.json");
        }
        None => {}
    }
}
