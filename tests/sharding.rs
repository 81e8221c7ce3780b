//! Regional sharding contracts (PR 9).
//!
//! Three layers of gate:
//!
//! * **Single-region collapse** — `solve_sharded` over a one-region
//!   map returns byte-for-byte what the global `Solver::solve`
//!   returns, for arbitrary fleets/graphs (proptest). Sharding with
//!   `num_regions = 1` must be the identity, not an approximation.
//! * **Exactly one owner** — multi-region merges never program a
//!   transceiver twice and never lose or duplicate a request: every
//!   request lands in `routes` xor `unsatisfied`.
//! * **Worker independence + handoff edge cases** — full scenario
//!   runs are byte-identical across worker counts, and the two nasty
//!   border crossings (unconfirmed SetRoutes in flight; custody
//!   extraction mid-handoff) keep every ledger balanced.

use proptest::prelude::*;
use std::collections::BTreeSet;
use tssdn_core::{
    solve_sharded, CandidateGraph, CandidateLink, Orchestrator, RegionId, RegionMap,
    ShardingConfig, Solver, SolverConfig, TopologyPlan,
};
use tssdn_dataplane::{BackhaulRequest, DrainRegistry};
use tssdn_geo::AzEl;
use tssdn_link::{LinkKind, TransceiverId};
use tssdn_rf::LinkQuality;
use tssdn_scenario::{
    run_scenario, scorecard, smoke_catalog, FaultsSpec, KindSpec, ScenarioSpec, WindowSpec,
};
use tssdn_sim::{PlatformId, PlatformKind, SimTime};

// ---------------------------------------------------------------- //
// Hand-built planning problems                                     //
// ---------------------------------------------------------------- //

fn tid(p: u32, i: u8) -> TransceiverId {
    TransceiverId::new(PlatformId(p), i)
}

/// Candidate between platforms `a`/`b` on antenna indices `ai`/`bi`,
/// pointing spread apart by index so tests don't trip the beam-
/// separation constraint by accident.
fn cand(a: u32, ai: u8, b: u32, bi: u8, margin: f64, quality: LinkQuality) -> CandidateLink {
    CandidateLink {
        a: tid(a, ai),
        b: tid(b, bi),
        kind: if a >= 100 || b >= 100 {
            LinkKind::B2G
        } else {
            LinkKind::B2B
        },
        band: 0,
        bitrate_bps: 400_000_000,
        margin_db: margin,
        quality,
        pointing_a: AzEl::new(ai as f64 * 90.0, 0.0),
        pointing_b: AzEl::new(bi as f64 * 90.0 + 45.0, 0.0),
        range_m: 300_000.0,
    }
}

fn gw(ec: PlatformId) -> Vec<PlatformId> {
    if ec == PlatformId(200) {
        vec![PlatformId(100)]
    } else {
        vec![]
    }
}

/// A balloon chain west→east with direct GS candidates on a subset of
/// balloons (bitmask), all demanding backhaul to EC 200 via GS 100.
struct Problem {
    graph: CandidateGraph,
    requests: Vec<BackhaulRequest>,
    /// `(id, kind, lon_deg)` rows for `RegionMap::update`.
    positions: Vec<(PlatformId, PlatformKind, f64)>,
}

fn chain_problem(n: u32, spacing_deg: f64, gs_mask: u32, margins: &[f64]) -> Problem {
    let mut links = Vec::new();
    let mut positions = Vec::new();
    let m = |i: usize| margins[i % margins.len()];
    let q = |i: usize| {
        if i.is_multiple_of(3) {
            LinkQuality::Marginal
        } else {
            LinkQuality::Acceptable
        }
    };
    for i in 0..n {
        positions.push((
            PlatformId(i),
            PlatformKind::Balloon,
            30.0 + i as f64 * spacing_deg,
        ));
        if i + 1 < n {
            links.push(cand(i, 0, i + 1, 1, m(i as usize), q(i as usize)));
        }
        if gs_mask & (1 << i) != 0 {
            links.push(cand(
                i,
                2,
                100,
                (i % 3) as u8,
                m(i as usize + 7),
                q(i as usize + 1),
            ));
        }
    }
    // GS sits mid-chain so multiple regions can reach it.
    positions.push((
        PlatformId(100),
        PlatformKind::GroundStation,
        30.0 + (n as f64 / 2.0) * spacing_deg,
    ));
    let requests = (0..n)
        .map(|i| BackhaulRequest {
            node: PlatformId(i),
            ec: PlatformId(200),
            min_bitrate_bps: 50_000_000,
        })
        .collect();
    Problem {
        graph: CandidateGraph {
            at: SimTime::ZERO,
            links,
        },
        requests,
        positions,
    }
}

fn map_for(problem: &Problem, cfg: ShardingConfig) -> RegionMap {
    let mut map = RegionMap::new(cfg);
    map.update(&problem.positions, SimTime::ZERO);
    map
}

proptest! {
    /// Single-region collapse: `solve_sharded` with one region is the
    /// identity transform of the global solve — equal plans, field for
    /// field, including a second solve under the first plan's
    /// hysteresis `previous` set.
    #[test]
    fn single_region_solve_collapses_to_global(
        n in 2u32..8,
        spacing in 0.1f64..3.0,
        gs_mask in 1u32..255,
        margins in prop::collection::vec(0.5f64..12.0, 1..6),
    ) {
        let problem = chain_problem(n, spacing, gs_mask, &margins);
        let solver = Solver::new(SolverConfig::default());
        let drains = DrainRegistry::new();
        let map = map_for(&problem, ShardingConfig {
            num_regions: 1,
            workers: Some(1),
            ..ShardingConfig::default()
        });

        let mut previous = BTreeSet::new();
        for _round in 0..2 {
            let global = solver.solve(
                &problem.graph, &problem.requests, &gw, &previous, &drains, SimTime::ZERO,
            );
            let sharded = solve_sharded(
                &solver, &map, &problem.graph, &problem.requests, &gw, &previous,
                &drains, SimTime::ZERO,
            );
            prop_assert_eq!(&sharded, &global);
            previous = global.key_set();
        }
    }

    /// Exactly-one-owner: for any region count, the merged plan never
    /// uses a transceiver twice, and every request lands in exactly
    /// one of `routes` / `unsatisfied`.
    #[test]
    fn merged_plans_never_double_program(
        n in 3u32..9,
        spacing in 0.2f64..2.0,
        gs_mask in 1u32..511,
        regions in 2u32..5,
        band in 0.5f64..4.0,
        halo in 0.0f64..400.0,
        margins in prop::collection::vec(0.5f64..12.0, 1..6),
    ) {
        let problem = chain_problem(n, spacing, gs_mask, &margins);
        let mid = 30.0 + (n as f64 / 2.0) * spacing;
        let solver = Solver::new(SolverConfig::default());
        let drains = DrainRegistry::new();
        let map = map_for(&problem, ShardingConfig {
            num_regions: regions,
            origin_lon_deg: mid,
            band_deg: band,
            halo_km: halo,
            hysteresis_km: 10.0,
            workers: Some(2),
        });

        let plan = solve_sharded(
            &solver, &map, &problem.graph, &problem.requests, &gw,
            &BTreeSet::new(), &drains, SimTime::ZERO,
        );

        let mut used = BTreeSet::new();
        for l in plan.demand_links.iter().chain(plan.redundant_links.iter()) {
            prop_assert!(used.insert(l.a), "transceiver {:?} programmed twice", l.a);
            prop_assert!(used.insert(l.b), "transceiver {:?} programmed twice", l.b);
        }

        let mut seen = BTreeSet::new();
        for flow in plan.routes.keys().chain(plan.unsatisfied.iter()) {
            prop_assert!(seen.insert(*flow), "request {:?} appears twice", flow);
        }
        prop_assert_eq!(seen.len(), problem.requests.len(), "request lost in merge");
    }

    /// Worker independence at the solve level: any worker count yields
    /// the same merged plan as the sequential fold.
    #[test]
    fn solve_is_worker_count_independent(
        n in 3u32..9,
        spacing in 0.2f64..2.0,
        gs_mask in 1u32..511,
        regions in 2u32..5,
        margins in prop::collection::vec(0.5f64..12.0, 1..6),
    ) {
        let problem = chain_problem(n, spacing, gs_mask, &margins);
        let mid = 30.0 + (n as f64 / 2.0) * spacing;
        let solver = Solver::new(SolverConfig::default());
        let drains = DrainRegistry::new();
        let cfg = |workers| ShardingConfig {
            num_regions: regions,
            origin_lon_deg: mid,
            band_deg: 1.0,
            halo_km: 150.0,
            hysteresis_km: 10.0,
            workers: Some(workers),
        };
        let solve = |workers| {
            let map = map_for(&problem, cfg(workers));
            solve_sharded(
                &solver, &map, &problem.graph, &problem.requests, &gw,
                &BTreeSet::new(), &drains, SimTime::ZERO,
            )
        };
        let sequential = solve(1);
        prop_assert_eq!(&solve(4), &sequential);
        prop_assert_eq!(&solve(8), &sequential);
    }
}

/// Three one-degree regions with no halo over a nine-balloon chain
/// (three balloons each), under the given worker setting.
fn three_regions(problem: &Problem, workers: Option<u32>) -> RegionMap {
    let cfg = ShardingConfig {
        num_regions: 3,
        origin_lon_deg: 30.0 + 4.5 * 0.33,
        band_deg: 1.0,
        halo_km: 0.0,
        hysteresis_km: 10.0,
        workers,
    };
    map_for(problem, cfg)
}

/// Regions of `map` whose scope holds at least one candidate link.
fn busy_regions(map: &RegionMap, graph: &CandidateGraph) -> usize {
    (0..map.num_regions())
        .filter(|&r| {
            let scope = map.scope_of(RegionId(r));
            let inside = |p: PlatformId| scope.contains(&p);
            graph
                .links
                .iter()
                .any(|l| inside(l.a.platform) && inside(l.b.platform))
        })
        .count()
}

/// The plan under the host's worker count, one worker and four.
fn plans_per_worker_setting(problem: &Problem) -> [TopologyPlan; 3] {
    let solver = Solver::new(SolverConfig::default());
    let drains = DrainRegistry::new();
    [None, Some(1), Some(4)].map(|workers| {
        solve_sharded(
            &solver,
            &three_regions(problem, workers),
            &problem.graph,
            &problem.requests,
            &gw,
            &BTreeSet::new(),
            &drains,
            SimTime::ZERO,
        )
    })
}

/// A powered-down night: three regions, requests, no candidate link
/// anywhere. No region is worth a thread, and whatever the worker
/// setting the plan is the serial one: nothing selected, every request
/// unsatisfied, in request order.
#[test]
fn night_epoch_spawns_nothing_and_plans_the_same() {
    let mut problem = chain_problem(9, 0.33, 0b1_0101_0101, &[6.0, 3.0]);
    problem.graph.links.clear();
    assert_eq!(
        busy_regions(&three_regions(&problem, None), &problem.graph),
        0
    );
    let [host, one, four] = plans_per_worker_setting(&problem);
    assert_eq!(host, one);
    assert_eq!(four, one);
    assert!(one.demand_links.is_empty() && one.redundant_links.is_empty());
    assert!(one.routes.is_empty());
    assert_eq!(one.unsatisfied.len(), problem.requests.len());
}

/// One busy region among three (dawn reaches the west first): still
/// the serial map, and still the plan any worker count gives — with
/// the busy region's requests actually routed.
#[test]
fn one_busy_region_plans_the_same_for_any_worker_count() {
    let mut problem = chain_problem(9, 0.33, 0b1_0101_0101, &[6.0, 3.0]);
    let map = three_regions(&problem, None);
    let west = map.scope_of(RegionId(0));
    problem
        .graph
        .links
        .retain(|l| west.contains(&l.a.platform) && west.contains(&l.b.platform));
    assert_eq!(busy_regions(&map, &problem.graph), 1);
    let [host, one, four] = plans_per_worker_setting(&problem);
    assert_eq!(host, one);
    assert_eq!(four, one);
    assert!(!one.routes.is_empty(), "the busy region routed nothing");
    assert!(!one.unsatisfied.is_empty(), "the dark regions routed");
}

// ---------------------------------------------------------------- //
// Scenario-level: worker counts and handoff edge cases             //
// ---------------------------------------------------------------- //

/// The CI smoke sharded scenario: two regions, border threading the
/// seed-9006 fleet, real handoffs by hour 12.
fn sharded_smoke_spec() -> ScenarioSpec {
    smoke_catalog()
        .into_iter()
        .find(|e| e.spec.name == "smoke_sharded")
        .expect("smoke_sharded in smoke catalog")
        .spec
}

/// Full-run worker independence: the same sharded world stepped with
/// 1 worker and with 4 renders byte-identical scorecard JSON.
#[test]
fn sharded_run_is_worker_count_independent() {
    let spec = sharded_smoke_spec();
    let run_with = |workers: u32| {
        let mut cfg = spec.orchestrator_config();
        cfg.sharding.workers = Some(workers);
        let mut o = Orchestrator::new(cfg);
        o.run_until(spec.end_time());
        scorecard(&spec, &o).to_json()
    };
    let one = run_with(1);
    let four = run_with(4);
    assert_eq!(one, four, "scorecard diverged across worker counts");
    // The run really sharded: handoffs made it into the scorecard.
    assert!(one.contains("\"handoffs_in\""), "{one}");
}

fn total_handoffs(card: &tssdn_telemetry::Scorecard) -> u64 {
    card.regions.iter().map(|r| r.handoffs_in).sum()
}

/// Edge case 1: border crossings with unconfirmed SetRoutes intents
/// in flight. Command chaos (duplicated/reordered CDPI commands)
/// keeps route programs unconfirmed across solve epochs while wind
/// drift hands balloons between planners. The run must stay
/// deterministic, never strand a stale alternate route, and keep the
/// store-and-forward ledgers closed — a dropped or double-programmed
/// route would show up in all three.
#[test]
fn handoff_with_unconfirmed_route_intents_stays_consistent() {
    let mut spec = sharded_smoke_spec();
    spec.name = "sharded_chaos_handoff".into();
    spec.faults = FaultsSpec::Directed(vec![WindowSpec {
        start_min: 0,
        duration_mins: None,
        kind: KindSpec::CommandChaos {
            corrupt: 0.05,
            duplicate: 0.3,
            reorder: 0.5,
        },
    }]);

    let a = run_scenario(&spec);
    let b = run_scenario(&spec);
    assert_eq!(
        a.to_json(),
        b.to_json(),
        "chaos handoff run not deterministic"
    );

    assert!(
        total_handoffs(&a) > 0,
        "no handoffs — the edge case was not exercised: {:?}",
        a.regions,
    );
    assert_eq!(
        a.stale_alt_routes, 0,
        "stale alternate route survived a handoff"
    );
    assert!(a.snf.conserved, "SNF ledger leaked under chaos handoff");
    assert!(
        a.custody.balanced,
        "custody ledger unbalanced under chaos handoff"
    );
}

/// Edge case 2: a custody-designated balloon handed off mid-
/// extraction. A blackout of every ground station builds SNF backlog,
/// then balloon 1 gets a warned-loss notice and starts extracting
/// custody bits right as it drifts across the 37.95°E border (seed
/// 9006 puts the crossing near minute 580). Planner ownership moves
/// while custody transfer is in progress; the ledger must still
/// balance bit-for-bit and the run must stay deterministic.
#[test]
fn custody_extraction_survives_mid_transfer_handoff() {
    let mut spec = sharded_smoke_spec();
    spec.name = "sharded_custody_handoff".into();
    spec.faults = FaultsSpec::Directed(vec![
        WindowSpec {
            start_min: 520,
            duration_mins: Some(100),
            kind: KindSpec::GsOutage { site: 4 },
        },
        WindowSpec {
            start_min: 520,
            duration_mins: Some(100),
            kind: KindSpec::GsOutage { site: 5 },
        },
        WindowSpec {
            start_min: 520,
            duration_mins: Some(100),
            kind: KindSpec::GsOutage { site: 6 },
        },
        WindowSpec {
            start_min: 550,
            duration_mins: Some(45),
            kind: KindSpec::BalloonLossWarned {
                balloon: 1,
                lead_mins: 45,
            },
        },
    ]);

    let a = run_scenario(&spec);
    let b = run_scenario(&spec);
    assert_eq!(
        a.to_json(),
        b.to_json(),
        "custody handoff run not deterministic"
    );

    assert!(
        total_handoffs(&a) > 0,
        "no handoffs — the edge case was not exercised: {:?}",
        a.regions,
    );
    assert!(
        a.custody.initiated_bits > 0,
        "warned loss never initiated custody: {:?}",
        a.custody,
    );
    assert!(
        a.custody.balanced,
        "custody ledger unbalanced across handoff"
    );
    assert!(a.snf.conserved, "SNF ledger leaked across handoff");
}
