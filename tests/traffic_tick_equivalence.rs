//! The probe-cadence traffic tick against its specification.
//!
//! `TrafficEngine::tick` is a list of phases that walk the flow
//! population as per-site runs and skip a site that offers nothing
//! (DESIGN.md §8), held to one rule: the numbers of the per-flow tick
//! in `tssdn_oracle::traffic_tick`, which rebuilds its aggregates every
//! tick and allocates through the naive `max_min` tree. Each case
//! hands both engines the same sites — in random order, sometimes with
//! one listed twice — and one random schedule of views, and demands
//! equal outputs after **every** tick, so a divergence is caught on the
//! tick that caused it, not hundreds of ticks later in a total.
//!
//! No end-to-end workload grants an aggregate part of its demand, so
//! these cases are what reaches `HierarchicalAllocator::distribute`
//! from a tick: the random walk counts the ticks that did and demands
//! some. Two fixed schedules run the same comparison: a dual-path
//! site's bulk aggregates granted in part tick after tick, and an
//! offered load above the allocator's cap.

use proptest::prelude::*;
use rand::rand_core::SeedableRng;
use rand::Rng;
use rand_chacha::ChaCha8Rng;
use std::cell::Cell;
use tssdn_oracle::traffic_tick::ReferenceEngine;
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

thread_local! {
    /// Cases of the random walk run so far on this test's thread, and
    /// the ticks among them in which some aggregate was granted
    /// strictly between nothing and its demand sum.
    static WALK: Cell<(u32, u64)> = const { Cell::new((0, 0)) };
}

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
            let partial_before = fast.partial_grants();
            let got = fast.tick(now, dt, &view);
            let want = slow.tick(now, dt, &view);
            let (cases, partial_ticks) = WALK.get();
            let partial = fast.partial_grants() > partial_before;
            WALK.set((cases, partial_ticks + partial as u64));
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
        let (cases, partial_ticks) = WALK.get();
        WALK.set((cases + 1, partial_ticks));
        if cases + 1 == proptest::DEFAULT_CASES {
            prop_assert!(partial_ticks > 0, "no tick of any case granted an aggregate in part");
        }
    }
}

/// Both engines over one fixed schedule, compared after every tick as
/// the random walk compares them. Returns, per tick, how many
/// aggregates were granted in part.
fn lockstep(
    config: TrafficConfig,
    sites: &[PlatformId],
    ticks: &[(SimTime, u64, TopologyView)],
) -> Vec<u64> {
    let streams = RngStreams::new(20220822);
    let mut fast = TrafficEngine::new(config, sites, &streams);
    let mut slow = ReferenceEngine::new(config, sites, &streams);
    let mut partial = Vec::new();
    for (i, (now, dt_ms, view)) in ticks.iter().enumerate() {
        let (before, dt) = (fast.partial_grants(), SimDuration(*dt_ms));
        assert_eq!(
            fast.tick(*now, dt, view),
            slow.tick(*now, dt, view),
            "tick {i}"
        );
        partial.push(fast.partial_grants() - before);
        assert!(
            fast.flow_stats() == slow.flow_stats(),
            "flow stats, tick {i}"
        );
        assert_eq!(fast.snf_totals(), slow.snf_totals(), "tick {i}");
        for &s in sites {
            assert_eq!(fast.demand_weight_bps(s), slow.demand_weight_bps(s));
        }
        let (f, s) = (fast.series(), slow.series());
        assert!(format!("{f:?}") == format!("{s:?}"), "series, tick {i}");
    }
    partial
}

/// `site` routed over `site → GS → EC`, with an alternate over
/// `site → GS2 → EC`, the two access edges rated as given.
fn dual_path_view(site: PlatformId, primary_bps: u64, alt_bps: u64) -> TopologyView {
    let mut view = TopologyView::default();
    view.eligible.insert(site);
    view.paths.insert(site, vec![site, GS, EC]);
    view.alt_paths.insert(site, vec![site, GS2, EC]);
    view.link_capacity_bps.insert(edge(site, GS), primary_bps);
    view.link_capacity_bps.insert(edge(site, GS2), alt_bps);
    view
}

#[test]
fn a_dual_path_site_held_partially_granted_matches_tick_by_tick() {
    // Two sites, one of them dual-path, offer ≈ 50 Mbps each at the
    // evening peak. The dual-path site's two access edges carry 12 and
    // 5 Mbps, re-rated every tick: both of its bulk aggregates are
    // granted part of their demand on every tick, its control
    // aggregate all of it; the other site has room for everything.
    let (dual, wide) = (PlatformId(3), PlatformId(8));
    let ticks: Vec<_> = (0..30u64)
        .map(|k| {
            let mut view = dual_path_view(dual, 12_000_000 + k * 97_000, 5_000_000 - k * 61_000);
            view.eligible.insert(wide);
            view.paths.insert(wide, vec![wide, GS, EC]);
            view.link_capacity_bps.insert(edge(wide, GS), 1_000_000_000);
            let now = SimTime::from_hours(20) + SimDuration::from_secs(10 * k);
            (now, 10_000, view)
        })
        .collect();
    let partial = lockstep(TrafficConfig::default(), &[wide, dual], &ticks);
    assert_eq!(partial, vec![2; ticks.len()]);
}

#[test]
fn an_offered_load_above_the_allocator_cap_matches_tick_by_tick() {
    // One bulk flow whose offered load saturates `u64`, split over two
    // paths of near-`u64::MAX` capacity: the primary share is one bit
    // above the allocator's cap, the alternate's exactly at it. Each
    // aggregate's sum is its capped member demand, so both are granted
    // in full. 1 ms ticks keep the reference's bit conversions in range.
    let site = PlatformId(5);
    let config = TrafficConfig {
        demand: DemandConfig {
            users_per_site: 1,
            flows_per_site: 1,
            busy_hour_bps_per_user: 1e20,
            control_bps_per_site: 0,
            ..DemandConfig::default()
        },
        tunnel_capacity_bps: u64::MAX,
        ..TrafficConfig::default()
    };
    let view = dual_path_view(site, u64::MAX, u64::MAX - 5);
    let now = SimTime::from_hours(20);
    let ticks: Vec<_> = (0..5)
        .map(|k| (now + SimDuration(k), 1, view.clone()))
        .collect();
    assert_eq!(lockstep(config, &[site], &ticks), vec![0; ticks.len()]);
}
