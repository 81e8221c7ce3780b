//! The probe-cadence traffic tick against its frozen predecessor.
//!
//! `TrafficEngine::tick` was rewritten as a list of phases that walk
//! the flow population as per-site runs and skip a site that offers
//! nothing (DESIGN.md §8), under one rule: the same numbers. The tick
//! it replaced lives on in `traffic_reference` as the oracle. Each case
//! hands both engines the same sites — in random order, sometimes with
//! one listed twice — and one random schedule of views, and demands
//! equal outputs after **every** tick, so a divergence is caught on the
//! tick that caused it, not hundreds of ticks later in a total.

mod traffic_reference;

use proptest::prelude::*;
use rand::rand_core::SeedableRng;
use rand::Rng;
use rand_chacha::ChaCha8Rng;
use traffic_reference::ReferenceEngine;
use tssdn_sim::{PlatformId, RngStreams, SimDuration, SimTime};
use tssdn_traffic::{
    DemandConfig, DemandSurge, StoreForwardConfig, TopologyView, TrafficConfig, TrafficEngine,
};

const GS: PlatformId = PlatformId(100);
const GS2: PlatformId = PlatformId(102);
const EC: PlatformId = PlatformId(101);
/// A balloon that serves no users: it relays, and it can take custody
/// and drain over a path of its own.
const RELAY: PlatformId = PlatformId(200);

fn edge(a: PlatformId, b: PlatformId) -> (PlatformId, PlatformId) {
    (a.min(b), a.max(b))
}

/// The forwarding paths a site can be given. The last has no hop at
/// all — a path, but no link to congest.
fn path_options(s: PlatformId) -> [Vec<PlatformId>; 4] {
    [
        vec![s, GS, EC],
        vec![s, RELAY, GS, EC],
        vec![s, GS2, EC],
        vec![s],
    ]
}

/// A capacity from 0 up to values whose product with an offered load
/// overflows `u64` (the dual-path split's wide arm) and whose pairwise
/// sum does too.
fn capacity(rng: &mut ChaCha8Rng) -> u64 {
    match rng.gen_range(0..8) {
        0 => 0,
        1 => rng.gen_range(1..100_000),
        2..=4 => rng.gen_range(100_000..2_000_000_000),
        5 => rng.gen_range(1u64 << 40..1u64 << 62),
        6 => u64::MAX - rng.gen_range(0..1000),
        _ => rng.gen_range(1..u64::MAX),
    }
}

/// One step of the random walk over views: sites flip eligible, die
/// and revive, gain / lose / change primary and alternate paths;
/// every radio edge is re-rated (or dropped from the map, so it reads
/// as a tunnel); custody designations appear and clear.
fn mutate(view: &mut TopologyView, distinct: &[PlatformId], rng: &mut ChaCha8Rng) {
    let holders: Vec<PlatformId> = distinct.iter().copied().chain([RELAY]).collect();
    for &s in &holders {
        if rng.gen_bool(0.12) && !view.eligible.remove(&s) {
            view.eligible.insert(s);
        }
        if view.dead.contains(&s) {
            if rng.gen_bool(0.3) {
                view.dead.remove(&s);
            }
        } else if rng.gen_bool(0.03) {
            view.dead.insert(s);
        }
        if rng.gen_bool(0.15) {
            match rng.gen_range(0..6) {
                0 | 1 => {
                    view.paths.remove(&s);
                }
                k => {
                    view.paths.insert(s, path_options(s)[k - 2].clone());
                }
            }
        }
        if rng.gen_bool(0.15) {
            match rng.gen_range(0..6) {
                0 | 1 => {
                    view.alt_paths.remove(&s);
                }
                // May equal the primary (ignored), and may be set with
                // no primary at all (ignored too).
                k => {
                    view.alt_paths.insert(s, path_options(s)[k - 2].clone());
                }
            }
        }
    }
    view.link_capacity_bps.clear();
    for &s in &holders {
        for hop in [GS, GS2, RELAY] {
            if s != hop && rng.gen_bool(0.85) {
                view.link_capacity_bps.insert(edge(s, hop), capacity(rng));
            }
        }
    }
    for hop in [GS, GS2] {
        if rng.gen_bool(0.3) {
            view.link_capacity_bps.insert(edge(hop, EC), capacity(rng));
        }
    }
    if rng.gen_bool(0.3) {
        view.custody.clear();
    }
    if rng.gen_bool(0.25) {
        // Half the designations point at the relay, so some handoff
        // edges lie on the doomed site's own programmed path.
        let from = holders[rng.gen_range(0..holders.len())];
        let to = if rng.gen_bool(0.5) {
            RELAY
        } else {
            holders[rng.gen_range(0..holders.len())]
        };
        if from != to {
            view.custody.insert(from, to);
            // An off-path handoff edge, when the pair share no hop.
            if rng.gen_bool(0.7) {
                view.link_capacity_bps.insert(edge(from, to), capacity(rng));
            }
        }
    }
}

const DTS_MS: [u64; 8] = [1, 10, 999, 1_000, 10_000, 60_000, 600_000, 3_600_000];

proptest! {
    #[test]
    fn fast_tick_matches_the_frozen_reference(
        seed in 0u64..u64::MAX,
        arms in (proptest::bool::ANY, proptest::bool::ANY, proptest::bool::ANY),
    ) {
        let (snf, custody, control) = arms;
        let mut rng = ChaCha8Rng::seed_from_u64(seed);

        // 2–6 sparse site ids, shuffled; one case in four lists a site
        // twice.
        let n_sites = rng.gen_range(2..=6);
        let mut distinct: Vec<PlatformId> = Vec::new();
        while distinct.len() < n_sites {
            let id = PlatformId(rng.gen_range(0..40));
            if !distinct.contains(&id) {
                distinct.push(id);
            }
        }
        let mut sites = distinct.clone();
        if rng.gen_bool(0.25) {
            sites.push(distinct[rng.gen_range(0..n_sites)]);
        }
        for i in (1..sites.len()).rev() {
            sites.swap(i, rng.gen_range(0..=i));
        }

        let n_ticks = rng.gen_range(30..=200);
        let t0 = SimTime::from_hours(rng.gen_range(0..24));
        // A surge window that opens somewhere inside the run (ticks
        // average ~9 sim-minutes); a multiplier of 0 silences bulk.
        let surge = rng.gen_bool(0.6).then(|| {
            let start_ms = t0.as_ms() + rng.gen_range(0..n_ticks as u64 * 300_000);
            DemandSurge {
                start_ms,
                end_ms: start_ms + rng.gen_range(60_000..40_000_000),
                multiplier: [0.0, 0.5, 3.0, 4.0][rng.gen_range(0..4)],
            }
        });
        let config = TrafficConfig {
            demand: DemandConfig {
                users_per_site: rng.gen_range(0..40_000),
                flows_per_site: rng.gen_range(1..=40),
                control_bps_per_site: if control { 256_000 } else { 0 },
                surge,
                ..DemandConfig::default()
            },
            store_forward: StoreForwardConfig {
                enabled: snf,
                custody,
                // Sometimes tight enough that the byte and age bounds
                // evict within the run.
                max_bytes: [2_000_000_000, 50_000_000, 4_000][rng.gen_range(0..3)],
                max_age_ms: [30 * 60_000, 5 * 60_000, 30_000][rng.gen_range(0..3)],
            },
            ..TrafficConfig::default()
        };
        let streams = RngStreams::new(seed ^ 0x5eed);
        let mut fast = TrafficEngine::new(config, &sites, &streams);
        let mut slow = ReferenceEngine::new(config, &sites, &streams);

        let mut view = TopologyView::default();
        for &s in &distinct {
            if rng.gen_bool(0.7) {
                view.eligible.insert(s);
                view.paths.insert(s, path_options(s)[0].clone());
            }
        }
        let mut now = t0;
        for tick in 0..n_ticks {
            mutate(&mut view, &distinct, &mut rng);
            let dt = SimDuration(DTS_MS[rng.gen_range(0..DTS_MS.len())]);
            now += dt;
            let got = fast.tick(now, dt, &view);
            let want = slow.tick(now, dt, &view);
            prop_assert_eq!(got, want, "summary diverged at tick {tick}: {got:?} vs {want:?}");
            prop_assert!(
                fast.flow_stats() == slow.flow_stats(),
                "flow stats diverged at tick {tick}"
            );
            prop_assert_eq!(fast.snf_totals(), slow.snf_totals());
            for &s in &distinct {
                prop_assert_eq!(fast.demand_weight_bps(s), slow.demand_weight_bps(s));
            }
            // `Debug` prints every map of the series — windows, site
            // and class rows, events, buffer ledgers, occupancy
            // samples — so this is the exported series and more.
            prop_assert!(
                format!("{:?}", fast.series()) == format!("{:?}", slow.series()),
                "series diverged at tick {tick}"
            );
        }
    }
}
