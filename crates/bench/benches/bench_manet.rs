//! Criterion bench: per-simulated-second cost of each MANET protocol
//! on a Loon-sized mesh (15 nodes, ~20 links), and of the BATMAN flood
//! on a mesh the size of the e2e `dense50_morning` world (53 nodes,
//! 67 links), where the flood is the largest stage of the loop. Two
//! more price the `manet-loss` draws the flood makes once per link
//! copy: a draw from a running ChaCha8 stream, and the first draw of a
//! fresh one (a refill computes four blocks, so a stream drawn from
//! once pays for words it never reads — `poll_links` derives one per link
//! machine per poll).

use criterion::{criterion_group, criterion_main, Criterion};
use rand::Rng;
use std::hint::black_box;
use tssdn_manet::{Aodv, Batman, Dsdv, Harness, ManetProtocol, Olsr};
use tssdn_sim::{PlatformId, RngStreams, SimDuration, SimTime};

fn mesh_edges() -> Vec<(u32, u32)> {
    // A fixed 15-node mesh: 12 balloons ring-ish + 3 gateways.
    let mut e = Vec::new();
    for i in 0..12u32 {
        e.push((i, (i + 1) % 12));
    }
    e.extend([
        (0, 12),
        (4, 13),
        (8, 14),
        (2, 12),
        (6, 13),
        (10, 14),
        (1, 5),
        (3, 9),
    ]);
    e
}

/// 50 balloons (0..50) and 3 gateways (50..53): a binary tree over
/// the balloons, one gateway at the root and one at each of two
/// leaves, and 15 cross links — 67 links in all.
fn dense53_edges() -> Vec<(u32, u32)> {
    let mut e: Vec<(u32, u32)> = (1..50u32).map(|i| ((i - 1) / 2, i)).collect();
    e.extend([(0, 50), (30, 51), (45, 52)]);
    e.extend((25..40u32).map(|i| (i, i + 7)));
    e
}

fn run_one<P: ManetProtocol>(
    mut proto_fn: impl FnMut() -> P,
    edges: Vec<(u32, u32)>,
    on_demand: bool,
) -> impl FnMut() {
    move || {
        let mut h = Harness::new(proto_fn(), &RngStreams::new(7));
        for &(a, b) in &edges {
            h.set_link(PlatformId(a), PlatformId(b), 0.95);
        }
        if on_demand {
            for b in 0..12u32 {
                for g in 12..15u32 {
                    h.want_route(PlatformId(b), PlatformId(g));
                }
            }
        }
        // 60 simulated seconds of protocol operation.
        h.run_until(SimTime::ZERO + SimDuration::from_secs(60));
    }
}

/// A BATMAN instance with `gateways` configured as gateways.
fn batman_with(gateways: std::ops::Range<u32>) -> impl FnMut() -> Batman {
    move || {
        let mut p = Batman::new();
        for g in gateways.clone() {
            p.set_gateway(PlatformId(g), true);
        }
        p
    }
}

fn bench_manet(c: &mut Criterion) {
    let mut group = c.benchmark_group("manet_60s_sim");
    group.bench_function("batman", |b| {
        let mut f = run_one(batman_with(12..15), mesh_edges(), false);
        b.iter(&mut f)
    });
    group.bench_function("batman_dense53", |b| {
        let mut f = run_one(batman_with(50..53), dense53_edges(), false);
        b.iter(&mut f)
    });
    group.bench_function("aodv", |b| {
        let mut f = run_one(Aodv::new, mesh_edges(), true);
        b.iter(&mut f)
    });
    group.bench_function("dsdv", |b| {
        let mut f = run_one(Dsdv::new, mesh_edges(), false);
        b.iter(&mut f)
    });
    group.bench_function("olsr", |b| {
        let mut f = run_one(Olsr::new, mesh_edges(), false);
        b.iter(&mut f)
    });
    group.finish();

    let mut group = c.benchmark_group("manet_loss_draw");
    let streams = RngStreams::new(7);
    group.bench_function("chacha8_gen_bool", |b| {
        let mut rng = streams.stream("manet-loss");
        b.iter(|| rng.gen_bool(black_box(0.95)))
    });
    group.bench_function("chacha8_fresh_stream_first_draw", |b| {
        let mut index = 0u64;
        b.iter(|| {
            index += 1;
            streams
                .indexed_stream("link", black_box(index))
                .gen_bool(0.95)
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_manet
}
criterion_main!(benches);
