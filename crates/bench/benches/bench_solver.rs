//! Criterion bench: greedy Solver cost vs candidate-graph size, with
//! and without an incumbent topology (the hysteresis fast path).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::collections::BTreeSet;
use tssdn_core::{EvaluatorConfig, LinkEvaluator, NetworkModel, Solver, WeatherSource};
use tssdn_dataplane::{BackhaulRequest, DrainRegistry};
use tssdn_geo::TrajectorySample;
use tssdn_link::Transceiver;
use tssdn_sim::{Fleet, FleetConfig, PlatformId, PlatformKind, RngStreams, SimTime};

fn setup(
    n: usize,
) -> (
    tssdn_core::CandidateGraph,
    Vec<BackhaulRequest>,
    Vec<PlatformId>,
) {
    let streams = RngStreams::new(42);
    let mut cfg = FleetConfig::kenya(n);
    cfg.spawn_radius_m = 300_000.0;
    let fleet = Fleet::generate(cfg, &streams);
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
    let graph = LinkEvaluator::new(EvaluatorConfig::default()).evaluate(&model, SimTime::ZERO);
    let ec = PlatformId(1000);
    let requests: Vec<BackhaulRequest> = (0..n as u32)
        .map(|i| BackhaulRequest {
            node: PlatformId(i),
            ec,
            min_bitrate_bps: 50_000_000,
        })
        .collect();
    let gs: Vec<PlatformId> = fleet.ground_stations.iter().map(|g| g.id).collect();
    (graph, requests, gs)
}

fn bench_solver(c: &mut Criterion) {
    let mut group = c.benchmark_group("solver");
    for n in [10usize, 20, 40] {
        let (graph, requests, gs) = setup(n);
        let solver = Solver::default();
        let gw = move |_: PlatformId| gs.clone();
        group.bench_with_input(
            BenchmarkId::new("cold_solve", format!("{n}b/{}cands", graph.len())),
            &n,
            |b, _| {
                b.iter(|| {
                    solver.solve(
                        &graph,
                        &requests,
                        &gw,
                        &BTreeSet::new(),
                        &DrainRegistry::new(),
                        SimTime::ZERO,
                    )
                })
            },
        );
        // Warm solve: previous topology = the cold solve's output.
        let prev = solver
            .solve(
                &graph,
                &requests,
                &gw,
                &BTreeSet::new(),
                &DrainRegistry::new(),
                SimTime::ZERO,
            )
            .key_set();
        group.bench_with_input(
            BenchmarkId::new("warm_solve", format!("{n}b/{}cands", graph.len())),
            &n,
            |b, _| {
                b.iter(|| {
                    solver.solve(
                        &graph,
                        &requests,
                        &gw,
                        &prev,
                        &DrainRegistry::new(),
                        SimTime::ZERO,
                    )
                })
            },
        );
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_solver
}
criterion_main!(benches);
