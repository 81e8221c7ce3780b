//! Property-based tests on the core data structures and invariants,
//! spanning crates (geo geometry, sim time/queue, manet topology,
//! dataplane routing, telemetry stats).

use proptest::prelude::*;
use std::collections::BTreeSet;
use tssdn_core::{CandidateGraph, CandidateLink, Solver};
use tssdn_dataplane::{
    BackhaulRequest, DrainRegistry, Plane, PrefixAllocator, RouteEntry, RoutingFabric,
};
use tssdn_geo::{AzEl, GeoPoint, ObstructionMask};
use tssdn_link::{LinkKind, TransceiverId};
use tssdn_manet::Topology;
use tssdn_oracle::planning::solve_reference;
use tssdn_rf::LinkQuality;
use tssdn_sim::{EventQueue, PlatformId, SimTime};
use tssdn_telemetry::{mean, percentile};

/// Map a raw platform index to (id, is_ground_station): 0..7 are
/// balloons, 7..10 the ground stations 100..103.
fn plat(x: u32) -> (PlatformId, bool) {
    if x < 7 {
        (PlatformId(x), false)
    } else {
        (PlatformId(100 + (x - 7)), true)
    }
}

proptest! {
    // ---------------- geo ----------------

    #[test]
    fn ecef_roundtrip_any_point(
        lat in -89.0f64..89.0,
        lon in -179.9f64..179.9,
        alt in 0.0f64..25_000.0,
    ) {
        let p = GeoPoint::new(lat, lon, alt);
        let back = p.to_ecef().to_geo();
        prop_assert!((back.lat_deg - lat).abs() < 1e-6);
        prop_assert!((back.lon_deg - lon).abs() < 1e-6);
        prop_assert!((back.alt_m - alt).abs() < 0.1);
    }

    #[test]
    fn slant_range_at_least_ground_distance(
        lat1 in -5.0f64..5.0, lon1 in 30.0f64..45.0,
        lat2 in -5.0f64..5.0, lon2 in 30.0f64..45.0,
        alt1 in 0.0f64..20_000.0, alt2 in 0.0f64..20_000.0,
    ) {
        let a = GeoPoint::new(lat1, lon1, alt1);
        let b = GeoPoint::new(lat2, lon2, alt2);
        let slant = a.slant_range_m(&b);
        let alt_diff = (alt1 - alt2).abs();
        prop_assert!(slant + 1e-6 >= alt_diff, "slant {slant} < alt diff {alt_diff}");
        // Symmetry.
        prop_assert!((slant - b.slant_range_m(&a)).abs() < 1e-6);
    }

    #[test]
    fn angular_distance_is_a_metric(
        az1 in 0.0f64..360.0, el1 in -90.0f64..90.0,
        az2 in 0.0f64..360.0, el2 in -90.0f64..90.0,
        az3 in 0.0f64..360.0, el3 in -90.0f64..90.0,
    ) {
        let a = AzEl::new(az1, el1);
        let b = AzEl::new(az2, el2);
        let c = AzEl::new(az3, el3);
        let ab = a.angular_distance_deg(&b);
        let ba = b.angular_distance_deg(&a);
        prop_assert!((ab - ba).abs() < 1e-9, "symmetry");
        prop_assert!((0.0..=180.0 + 1e-9).contains(&ab), "bounded");
        // acos(1-ε) costs ~1e-3° of numerical noise near zero.
        prop_assert!(a.angular_distance_deg(&a) < 2e-3, "identity");
        let ac = a.angular_distance_deg(&c);
        let cb = c.angular_distance_deg(&b);
        prop_assert!(ab <= ac + cb + 1e-6, "triangle inequality");
    }

    #[test]
    fn obstruction_mask_blocks_iff_some_sector_blocks(
        s1 in 0.0f64..360.0, w1 in 1.0f64..120.0, e1 in -10.0f64..45.0,
        s2 in 0.0f64..360.0, w2 in 1.0f64..120.0, e2 in -10.0f64..45.0,
        az in 0.0f64..360.0, el in -90.0f64..90.0,
    ) {
        let m = ObstructionMask::clear()
            .with_sector(s1, s1 + w1, e1)
            .with_sector(s2, s2 + w2, e2);
        let dir = AzEl::new(az, el);
        let any = m.sectors().iter().any(|s| s.blocks(&dir));
        prop_assert_eq!(m.blocks(&dir), any);
    }

    // ---------------- sim ----------------

    #[test]
    fn event_queue_pops_sorted(times in prop::collection::vec(0u64..1_000_000, 1..80)) {
        let mut q = EventQueue::new();
        for (i, t) in times.iter().enumerate() {
            q.schedule(SimTime(*t), i);
        }
        let mut last = SimTime::ZERO;
        let mut n = 0;
        while let Some(ev) = q.pop() {
            prop_assert!(ev.at >= last);
            last = ev.at;
            n += 1;
        }
        prop_assert_eq!(n, times.len());
    }

    #[test]
    fn sim_time_arithmetic_consistent(a in 0u64..u32::MAX as u64, b in 0u64..u32::MAX as u64) {
        let (lo, hi) = (SimTime(a.min(b)), SimTime(a.max(b)));
        let d = hi - lo;
        prop_assert_eq!(lo + d, hi);
        prop_assert_eq!(hi.since(lo).as_ms(), d.as_ms());
        prop_assert_eq!(lo.since(hi).as_ms(), 0);
    }

    // ---------------- manet ----------------

    #[test]
    fn topology_connectivity_is_symmetric_and_reflexive(
        edges in prop::collection::vec((0u32..12, 0u32..12), 0..40),
    ) {
        let mut t = Topology::new();
        for i in 0..12 {
            t.add_node(PlatformId(i));
        }
        for (a, b) in edges {
            if a != b {
                t.set_link(PlatformId(a), PlatformId(b), 0.9);
            }
        }
        for i in 0..12u32 {
            prop_assert!(t.connected(PlatformId(i), PlatformId(i)));
            for j in 0..12u32 {
                prop_assert_eq!(
                    t.connected(PlatformId(i), PlatformId(j)),
                    t.connected(PlatformId(j), PlatformId(i))
                );
            }
        }
    }

    #[test]
    fn topology_link_removal_never_adds_connectivity(
        edges in prop::collection::vec((0u32..10, 0u32..10), 1..30),
        remove_idx in 0usize..30,
    ) {
        let mut t = Topology::new();
        for i in 0..10 {
            t.add_node(PlatformId(i));
        }
        let clean: Vec<(u32, u32)> =
            edges.into_iter().filter(|(a, b)| a != b).collect();
        prop_assume!(!clean.is_empty());
        for (a, b) in &clean {
            t.set_link(PlatformId(*a), PlatformId(*b), 0.9);
        }
        let before: Vec<bool> = (0..10u32)
            .flat_map(|i| (0..10u32).map(move |j| (i, j)))
            .map(|(i, j)| t.connected(PlatformId(i), PlatformId(j)))
            .collect();
        let (ra, rb) = clean[remove_idx % clean.len()];
        t.remove_link(PlatformId(ra), PlatformId(rb));
        let after: Vec<bool> = (0..10u32)
            .flat_map(|i| (0..10u32).map(move |j| (i, j)))
            .map(|(i, j)| t.connected(PlatformId(i), PlatformId(j)))
            .collect();
        for (b, a) in before.iter().zip(&after) {
            prop_assert!(*b || !*a, "removal created connectivity");
        }
    }

    // ---------------- dataplane ----------------

    #[test]
    fn programmed_paths_always_trace(path_len in 2usize..8, version in 1u64..100) {
        let mut alloc = PrefixAllocator::loon_default();
        let mut fabric = RoutingFabric::new();
        let nodes: Vec<PlatformId> = (0..path_len as u32).map(PlatformId).collect();
        let src = alloc.prefix_for(nodes[0]);
        let dst = alloc.prefix_for(*nodes.last().expect("non-empty"));
        fabric.program_path(Plane::Primary, src, dst, &nodes, version);
        let forward = fabric.trace_flow(Plane::Primary, src, dst, nodes[0], *nodes.last().expect("non-empty"), |_, _| true);
        prop_assert_eq!(forward, Some(nodes.clone()));
        let mut rev = nodes.clone();
        rev.reverse();
        let backward =
            fabric.trace_flow(Plane::Primary, dst, src, rev[0], *rev.last().expect("non-empty"), |_, _| true);
        prop_assert_eq!(backward, Some(rev));
    }

    #[test]
    fn route_table_install_remove_roundtrip(n in 1usize..30) {
        let mut alloc = PrefixAllocator::loon_default();
        let mut fabric = RoutingFabric::new();
        let node = PlatformId(0);
        let prefixes: Vec<_> = (1..=n as u32).map(|i| alloc.prefix_for(PlatformId(i))).collect();
        let base = alloc.prefix_for(PlatformId(99));
        for p in &prefixes {
            fabric.table_mut(node).install(Plane::Primary, RouteEntry { src: base, dst: *p, next_hop: PlatformId(1) });
        }
        prop_assert_eq!(fabric.table(node).expect("exists").len(), n);
        for p in &prefixes {
            fabric.table_mut(node).remove(Plane::Primary, base, *p);
        }
        prop_assert!(fabric.table(node).expect("exists").is_empty());
    }

    // ---------------- telemetry ----------------

    #[test]
    fn percentile_within_sample_bounds(xs in prop::collection::vec(-1e6f64..1e6, 1..200), p in 0.0f64..100.0) {
        let v = percentile(&xs, p).expect("non-empty");
        let lo = xs.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(v >= lo - 1e-9 && v <= hi + 1e-9);
    }

    #[test]
    fn percentile_monotone_in_p(xs in prop::collection::vec(-1e6f64..1e6, 1..200)) {
        let mut last = f64::NEG_INFINITY;
        for p in [0.0, 10.0, 25.0, 50.0, 75.0, 90.0, 100.0] {
            let v = percentile(&xs, p).expect("non-empty");
            prop_assert!(v >= last - 1e-9);
            last = v;
        }
    }

    #[test]
    fn mean_between_min_and_max(xs in prop::collection::vec(-1e6f64..1e6, 1..200)) {
        let m = mean(&xs).expect("non-empty");
        let lo = xs.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(m >= lo - 1e-6 && m <= hi + 1e-6);
    }

    // ---------------- rf ----------------

    #[test]
    fn rain_attenuation_monotone(r1 in 0.1f64..100.0, r2 in 0.1f64..100.0, f in 12.0f64..100.0) {
        let (lo, hi) = (r1.min(r2), r1.max(r2));
        prop_assert!(
            tssdn_rf::rain::rain_db_per_km(f, hi) >= tssdn_rf::rain::rain_db_per_km(f, lo)
        );
    }

    #[test]
    fn fspl_monotone_in_distance(d1 in 1.0f64..1e6, d2 in 1.0f64..1e6, f in 1.0f64..100.0) {
        let (lo, hi) = (d1.min(d2), d1.max(d2));
        prop_assert!(
            tssdn_rf::free_space_path_loss_db(hi, f) >= tssdn_rf::free_space_path_loss_db(lo, f)
        );
    }

    #[test]
    fn antenna_gain_bounded(off in 0.0f64..180.0) {
        let p = tssdn_rf::AntennaPattern::e_band_balloon();
        let g = p.gain_dbi(off);
        prop_assert!(g <= p.boresight_gain_dbi + 1e-9);
        prop_assert!(g >= -10.0 - 1e-9);
    }

    // ---------------- planning hot path ----------------

    /// Golden-equivalence gate (solver half): on arbitrary candidate
    /// graphs — deliberately rich in utility and margin ties, shared
    /// transceivers, interference conflicts, incumbents, drains and
    /// pair penalties — the optimized incremental `Solver::solve` must
    /// return a `TopologyPlan` bit-identical to the retained naive
    /// reference: same demand links *in the same selection order*,
    /// same redundant links, same routes, same unsatisfied list, same
    /// kept-link count.
    ///
    /// The inputs reach for what a dense slot index could get wrong:
    /// antenna indices far apart (a stride of 256 slots per platform),
    /// four bands, previous-topology keys that name transceivers and
    /// platforms the graph does not contain, and requests from a node
    /// no candidate touches, from a gateway itself, and to an EC no
    /// gateway serves. Three arms per case: the links as generated, the
    /// same links in a generated shuffle (no grouping by platform pair
    /// survives it), and the generated order with *every* candidate an
    /// incumbent, so the previous topology is full of conflicts with
    /// itself.
    #[test]
    fn optimized_solver_matches_naive_reference(
        raw in prop::collection::vec(
            ((0u32..10, 0usize..5, 0u32..10, 0usize..5), (0u8..4, 0u8..4, prop::bool::ANY, 0u8..24)),
            1..40,
        ),
        prev_mask in prop::collection::vec(prop::bool::ANY, 40..41),
        shuffle_keys in prop::collection::vec(0u32..1000, 40..41),
        ghost_prev in prop::collection::vec((0u32..12, 0usize..5, 0u32..12, 0usize..5), 0..4),
        req_mask in prop::collection::vec(prop::bool::ANY, 7..8),
        drain in prop::option::of(0u32..10),
        penalty_pair in prop::option::of((0u32..10, 0u32..10)),
    ) {
        let links: Vec<CandidateLink> = raw.into_iter().filter_map(raw_candidate).collect();
        let mut previous: BTreeSet<(TransceiverId, TransceiverId)> = links
            .iter()
            .enumerate()
            .filter(|(i, _)| prev_mask.get(*i).copied().unwrap_or(false))
            .map(|(_, l)| l.key())
            .collect();
        let mut all_previous: BTreeSet<_> = links.iter().map(|l| l.key()).collect();
        for (pa, aa, pb, ab) in ghost_prev {
            let ta = TransceiverId::new(plat(pa).0, ANTENNAS[aa]);
            let tb = TransceiverId::new(plat(pb).0, ANTENNAS[ab]);
            previous.insert((ta.min(tb), ta.max(tb)));
            all_previous.insert((ta.min(tb), ta.max(tb)));
        }
        let mut shuffled: Vec<(u32, CandidateLink)> =
            shuffle_keys.iter().copied().zip(links.iter().copied()).collect();
        shuffled.sort_by_key(|(k, _)| *k);
        let shuffled = shuffled.into_iter().map(|(_, l)| l).collect();
        let mut requests: Vec<BackhaulRequest> = (0..7u32)
            .filter(|i| req_mask[*i as usize])
            .map(|i| request(PlatformId(i), PlatformId(200)))
            .collect();
        requests.push(request(PlatformId(50), PlatformId(200))); // touches no candidate
        requests.push(request(PlatformId(100), PlatformId(200))); // is a gateway
        requests.push(request(PlatformId(3), PlatformId(201))); // EC without gateways
        let mut drains = DrainRegistry::new();
        if let Some(d) = drain {
            drains.request(plat(d).0, SimTime::ZERO, None);
        }
        let mut solver = Solver::default();
        if let Some((x, y)) = penalty_pair {
            let (px, _) = plat(x);
            let (py, _) = plat(y);
            if px != py {
                solver.pair_penalties.insert((px.min(py), px.max(py)), 1.5);
            }
        }
        for (links, previous) in [
            (links.clone(), &previous),
            (shuffled, &previous),
            (links, &all_previous),
        ] {
            let graph = CandidateGraph { at: SimTime::ZERO, links };
            let fast = solver.solve(&graph, &requests, &gateways, previous, &drains, SimTime::ZERO);
            let slow =
                solve_reference(&solver, &graph, &requests, &gateways, previous, &drains, SimTime::ZERO);
            prop_assert_eq!(fast, slow);
        }
    }

    /// The same gate where the incumbent phase does most of the work:
    /// a 64-balloon chain installed as the previous topology (63
    /// incumbents, all kept) under a cloud of random candidates, most
    /// of which die to those incumbents — so the solver indexes a
    /// small live remainder of the graph, and the greedy loop routes
    /// over that.
    #[test]
    fn optimized_solver_matches_naive_reference_after_many_incumbents(
        raw in prop::collection::vec(
            ((0u32..67, 0usize..3, 0u32..67, 0usize..3), (0u8..4, 0u8..4, prop::bool::ANY, 0u8..24)),
            120..220,
        ),
        prev_mask in prop::collection::vec(prop::bool::ANY, 220..221),
        req_mask in prop::collection::vec(prop::bool::ANY, 64..65),
    ) {
        const CHAIN: u32 = 64;
        // 0..64 are balloons, 64..67 the ground stations 100..103.
        let wide = |x: u32| if x < CHAIN { x } else { 100 + (x - CHAIN) };
        let mut links: Vec<CandidateLink> = (0..CHAIN - 1)
            .map(|i| CandidateLink {
                a: TransceiverId::new(PlatformId(i), 0),
                b: TransceiverId::new(PlatformId(i + 1), 1),
                kind: LinkKind::B2B,
                band: (i % 4) as u8,
                bitrate_bps: 400_000_000,
                margin_db: 20.0,
                quality: LinkQuality::Acceptable,
                pointing_a: AzEl::new(90.0, 0.0),
                pointing_b: AzEl::new(270.0, 0.0),
                range_m: 250_000.0,
            })
            .collect();
        let mut previous: BTreeSet<_> = links.iter().map(|l| l.key()).collect();
        for (i, ((pa, aa, pb, ab), rest)) in raw.into_iter().enumerate() {
            let Some(l) = raw_candidate_of(wide(pa), aa, wide(pb), ab, rest) else {
                continue;
            };
            if prev_mask[i] {
                previous.insert(l.key());
            }
            links.push(l);
        }
        let graph = CandidateGraph { at: SimTime::ZERO, links };
        let requests: Vec<BackhaulRequest> = (0..CHAIN)
            .filter(|i| req_mask[*i as usize])
            .map(|i| request(PlatformId(i), PlatformId(200)))
            .collect();
        let drains = DrainRegistry::new();
        let solver = Solver::default();
        let fast = solver.solve(&graph, &requests, &gateways, &previous, &drains, SimTime::ZERO);
        prop_assert!(fast.kept_links >= 60, "kept {}", fast.kept_links);
        let slow =
            solve_reference(&solver, &graph, &requests, &gateways, &previous, &drains, SimTime::ZERO);
        prop_assert_eq!(fast, slow);
    }
}

/// Antenna indices the solver gates draw from: the usual three, then
/// two that stretch a per-platform stride.
const ANTENNAS: [u8; 5] = [0, 1, 2, 7, 255];

/// The generated link attributes: margin selector, band, marginal
/// quality, azimuth step.
type RawAttrs = (u8, u8, bool, u8);

/// One generated candidate between raw platforms `pa`/`pb` (see
/// [`plat`]), or `None` for a self-pair or a GS–GS pair.
fn raw_candidate(
    ((pa, aa, pb, ab), rest): ((u32, usize, u32, usize), RawAttrs),
) -> Option<CandidateLink> {
    let ((ida, _), (idb, _)) = (plat(pa), plat(pb));
    raw_candidate_of(ida.0, aa, idb.0, ab, rest)
}

/// As [`raw_candidate`], over platform ids (≥ 100 is a ground station).
fn raw_candidate_of(
    ida: u32,
    aa: usize,
    idb: u32,
    ab: usize,
    (margin_i, band, marginal, az): RawAttrs,
) -> Option<CandidateLink> {
    let (gsa, gsb) = (ida >= 100, idb >= 100);
    if ida == idb || (gsa && gsb) {
        return None;
    }
    let ta = TransceiverId::new(PlatformId(ida), ANTENNAS[aa]);
    let tb = TransceiverId::new(PlatformId(idb), ANTENNAS[ab]);
    // Coarse az/margin grids maximize ties so the test exercises
    // every tie-break path.
    let point_ta = AzEl::new(az as f64 * 15.0, 0.0);
    let point_tb = AzEl::new((az as f64 * 15.0 + 180.0) % 360.0, 0.0);
    let (a, b, pointing_a, pointing_b) = if ta < tb {
        (ta, tb, point_ta, point_tb)
    } else {
        (tb, ta, point_tb, point_ta)
    };
    Some(CandidateLink {
        a,
        b,
        kind: if gsa || gsb {
            LinkKind::B2G
        } else {
            LinkKind::B2B
        },
        band,
        bitrate_bps: 400_000_000,
        margin_db: [0.0, 5.0, 10.0, -1.0][margin_i as usize],
        quality: if marginal {
            LinkQuality::Marginal
        } else {
            LinkQuality::Acceptable
        },
        pointing_a,
        pointing_b,
        range_m: 250_000.0,
    })
}

fn request(node: PlatformId, ec: PlatformId) -> BackhaulRequest {
    BackhaulRequest {
        node,
        ec,
        min_bitrate_bps: 50_000_000,
    }
}

/// EC 200 is served by three ground stations; no other EC by any.
fn gateways(ec: PlatformId) -> Vec<PlatformId> {
    if ec == PlatformId(200) {
        vec![PlatformId(100), PlatformId(101), PlatformId(102)]
    } else {
        vec![]
    }
}
