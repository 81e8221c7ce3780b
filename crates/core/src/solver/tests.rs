use super::incumbents::CandidateState;
use super::*;
use tssdn_geo::AzEl;
use tssdn_link::LinkKind;

pub(super) fn tid(p: u32, i: u8) -> TransceiverId {
    TransceiverId::new(PlatformId(p), i)
}

/// Hand-built candidate between platforms `a`/`b` using antenna
/// indices `ai`/`bi`, pointing spread apart by index.
pub(super) fn cand(
    a: u32,
    ai: u8,
    b: u32,
    bi: u8,
    margin: f64,
    quality: LinkQuality,
) -> CandidateLink {
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
        // Distinct pointing per antenna index avoids accidental
        // interference conflicts in tests.
        pointing_a: AzEl::new(ai as f64 * 90.0, 0.0),
        pointing_b: AzEl::new(bi as f64 * 90.0 + 45.0, 0.0),
        range_m: 300_000.0,
    }
}

fn graph(links: Vec<CandidateLink>) -> CandidateGraph {
    CandidateGraph {
        at: SimTime::ZERO,
        links,
    }
}

pub(super) fn req(node: u32, ec: u32) -> BackhaulRequest {
    BackhaulRequest {
        node: PlatformId(node),
        ec: PlatformId(ec),
        min_bitrate_bps: 50_000_000,
    }
}

/// EC 200 is reachable via GS 100.
fn gw(ec: PlatformId) -> Vec<PlatformId> {
    if ec == PlatformId(200) {
        vec![PlatformId(100)]
    } else {
        vec![]
    }
}

#[test]
fn routes_single_demand_through_chain() {
    // 0 —— 1 —— GS100, demand 0 → EC200.
    let g = graph(vec![
        cand(0, 0, 1, 0, 10.0, LinkQuality::Acceptable),
        cand(1, 1, 100, 0, 10.0, LinkQuality::Acceptable),
    ]);
    let plan = Solver::default().solve(
        &g,
        &[req(0, 200)],
        &|ec| gw(ec),
        &BTreeSet::new(),
        &DrainRegistry::new(),
        SimTime::ZERO,
    );
    assert_eq!(plan.demand_links.len(), 2);
    assert_eq!(
        plan.routes.get(&(PlatformId(0), PlatformId(200))),
        Some(&vec![PlatformId(0), PlatformId(1), PlatformId(100)])
    );
    assert!(plan.unsatisfied.is_empty());
}

#[test]
fn unsatisfiable_demand_reported() {
    let g = graph(vec![cand(0, 0, 1, 0, 10.0, LinkQuality::Acceptable)]);
    let plan = Solver::default().solve(
        &g,
        &[req(0, 200)],
        &|ec| gw(ec),
        &BTreeSet::new(),
        &DrainRegistry::new(),
        SimTime::ZERO,
    );
    assert!(plan.demand_links.is_empty(), "no useful links selected");
    assert_eq!(plan.unsatisfied, vec![(PlatformId(0), PlatformId(200))]);
}

#[test]
fn transceiver_used_once() {
    // Two demands (0→EC, 1→EC) both want GS100's antenna 0; GS has
    // a second antenna for the other.
    let g = graph(vec![
        cand(0, 0, 100, 0, 12.0, LinkQuality::Acceptable),
        cand(1, 0, 100, 0, 11.0, LinkQuality::Acceptable),
        cand(1, 1, 100, 1, 10.0, LinkQuality::Acceptable),
    ]);
    let plan = Solver::default().solve(
        &g,
        &[req(0, 200), req(1, 200)],
        &|ec| gw(ec),
        &BTreeSet::new(),
        &DrainRegistry::new(),
        SimTime::ZERO,
    );
    let keys = plan.key_set();
    assert!(keys.contains(&(tid(0, 0), tid(100, 0))));
    assert!(
        keys.contains(&(tid(1, 1), tid(100, 1))),
        "second demand uses the other GS antenna: {keys:?}"
    );
    assert_eq!(plan.demand_links.len(), 2);
}

#[test]
fn hysteresis_keeps_incumbent_path() {
    // Two equal-cost 1-hop options for 0→GS; previous topology
    // used antenna combo (0,1)-(100,1).
    let g = graph(vec![
        cand(0, 0, 100, 0, 10.0, LinkQuality::Acceptable),
        cand(0, 1, 100, 1, 10.0, LinkQuality::Acceptable),
    ]);
    let mut prev = BTreeSet::new();
    prev.insert((tid(0, 1), tid(100, 1)));
    let plan = Solver::default().solve(
        &g,
        &[req(0, 200)],
        &|ec| gw(ec),
        &prev,
        &DrainRegistry::new(),
        SimTime::ZERO,
    );
    assert_eq!(plan.demand_links.len(), 1);
    assert_eq!(
        plan.demand_links[0].key(),
        (tid(0, 1), tid(100, 1)),
        "incumbent kept"
    );
    assert_eq!(plan.kept_links, 1);
}

#[test]
fn marginal_link_avoided_when_alternative_exists() {
    // Direct marginal link vs 2-hop acceptable path.
    let g = graph(vec![
        cand(0, 0, 100, 0, -1.0, LinkQuality::Marginal),
        cand(0, 1, 1, 0, 10.0, LinkQuality::Acceptable),
        cand(1, 1, 100, 1, 10.0, LinkQuality::Acceptable),
    ]);
    let plan = Solver::default().solve(
        &g,
        &[req(0, 200)],
        &|ec| gw(ec),
        &BTreeSet::new(),
        &DrainRegistry::new(),
        SimTime::ZERO,
    );
    let path = plan
        .routes
        .get(&(PlatformId(0), PlatformId(200)))
        .expect("routed");
    assert_eq!(path.len(), 3, "took the 2-hop acceptable path: {path:?}");
}

#[test]
fn marginal_link_used_when_only_option() {
    let g = graph(vec![cand(0, 0, 100, 0, -1.0, LinkQuality::Marginal)]);
    let plan = Solver::default().solve(
        &g,
        &[req(0, 200)],
        &|ec| gw(ec),
        &BTreeSet::new(),
        &DrainRegistry::new(),
        SimTime::ZERO,
    );
    assert_eq!(
        plan.demand_links.len(),
        1,
        "attempted when no acceptable link exists"
    );
}

#[test]
fn drained_node_excluded_from_new_paths() {
    // Path through node 1 or node 2; node 1 is draining.
    let g = graph(vec![
        cand(0, 0, 1, 0, 12.0, LinkQuality::Acceptable),
        cand(1, 1, 100, 0, 12.0, LinkQuality::Acceptable),
        cand(0, 1, 2, 0, 8.0, LinkQuality::Acceptable),
        cand(2, 1, 100, 1, 8.0, LinkQuality::Acceptable),
    ]);
    let mut drains = DrainRegistry::new();
    drains.request(PlatformId(1), SimTime::ZERO, None);
    let plan = Solver::default().solve(
        &g,
        &[req(0, 200)],
        &|ec| gw(ec),
        &BTreeSet::new(),
        &drains,
        SimTime::ZERO,
    );
    let path = plan
        .routes
        .get(&(PlatformId(0), PlatformId(200)))
        .expect("routed");
    assert!(
        !path.contains(&PlatformId(1)),
        "drained node avoided: {path:?}"
    );
}

#[test]
fn redundancy_pass_tasks_idle_transceivers() {
    // Demand uses 0—100; idle antennas on 0/1/100 allow a
    // redundant 0—1 and 1—100 pair... budget limits apply.
    let g = graph(vec![
        cand(0, 0, 100, 0, 12.0, LinkQuality::Acceptable),
        cand(0, 1, 1, 0, 11.0, LinkQuality::Acceptable),
        cand(1, 1, 100, 1, 10.0, LinkQuality::Acceptable),
    ]);
    let plan = Solver::default().solve(
        &g,
        &[req(0, 200)],
        &|ec| gw(ec),
        &BTreeSet::new(),
        &DrainRegistry::new(),
        SimTime::ZERO,
    );
    assert_eq!(plan.demand_links.len(), 1);
    assert!(
        !plan.redundant_links.is_empty(),
        "idle transceivers tasked for redundancy"
    );
    // No transceiver reuse anywhere.
    let mut seen = BTreeSet::new();
    for l in plan.all_links() {
        assert!(seen.insert(l.a), "{:?} reused", l.a);
        assert!(seen.insert(l.b), "{:?} reused", l.b);
    }
}

#[test]
fn zero_redundancy_target_tasks_nothing() {
    let g = graph(vec![
        cand(0, 0, 100, 0, 12.0, LinkQuality::Acceptable),
        cand(0, 1, 1, 0, 11.0, LinkQuality::Acceptable),
        cand(1, 1, 100, 1, 10.0, LinkQuality::Acceptable),
    ]);
    let solver = Solver::new(SolverConfig {
        redundancy_target: 0.0,
        ..Default::default()
    });
    let plan = solver.solve(
        &g,
        &[req(0, 200)],
        &|ec| gw(ec),
        &BTreeSet::new(),
        &DrainRegistry::new(),
        SimTime::ZERO,
    );
    assert!(plan.redundant_links.is_empty());
}

/// `place_incumbents` over a bare graph: no requests, no gateways.
fn placed(
    links: &[CandidateLink],
    previous: &[(TransceiverId, TransceiverId)],
    drains: &DrainRegistry,
) -> CandidateState {
    let index = SolveIndex::build(links, &[], &BTreeMap::new());
    let previous = previous.iter().copied().collect();
    Solver::default().place_incumbents(&index, &previous, drains, SimTime::ZERO)
}

#[test]
fn incumbents_sharing_a_transceiver_keep_the_higher_margin_then_the_earlier() {
    // Both use (0, antenna 0); the later candidate has the margin.
    let mut links = vec![
        cand(0, 0, 1, 0, 8.0, LinkQuality::Acceptable),
        cand(0, 0, 2, 0, 12.0, LinkQuality::Acceptable),
    ];
    let previous = [links[0].key(), links[1].key()];
    let p = placed(&links, &previous, &DrainRegistry::new());
    assert_eq!(p.selected, vec![1], "higher margin wins the transceiver");
    assert_eq!(p.viable, vec![false, true]);
    assert_eq!(p.is_selected, vec![false, true]);
    // On an exact tie the sort is stable: candidate order decides.
    links[0].margin_db = 12.0;
    let p = placed(&links, &previous, &DrainRegistry::new());
    assert_eq!(p.selected, vec![0]);
    assert_eq!(p.viable, vec![true, false]);
}

#[test]
fn close_same_band_incumbents_at_one_platform_keep_only_the_first() {
    // Distinct transceivers throughout; platform 0's two beams are
    // 2° apart on one band.
    let mut links = vec![
        cand(0, 0, 1, 0, 12.0, LinkQuality::Acceptable),
        cand(0, 1, 2, 0, 10.0, LinkQuality::Acceptable),
    ];
    links[0].pointing_a = AzEl::new(100.0, 0.0);
    links[1].pointing_a = AzEl::new(102.0, 0.0);
    let previous = [links[0].key(), links[1].key()];
    let p = placed(&links, &previous, &DrainRegistry::new());
    assert_eq!(p.selected, vec![0]);
    assert_eq!(p.viable, vec![true, false], "second dropped and dead");
    // On another band both stay.
    links[1].band = 1;
    let p = placed(&links, &previous, &DrainRegistry::new());
    assert_eq!(p.selected, vec![0, 1]);
}

#[test]
fn candidate_too_close_to_a_kept_beam_dies_in_the_pass() {
    // Only the first is an incumbent. The second shares no
    // transceiver with it but points 2° from it at platform 0; the
    // third shares its transceiver at platform 1; the fourth is
    // clear of both.
    let mut links = vec![
        cand(0, 0, 1, 0, 12.0, LinkQuality::Acceptable),
        cand(0, 1, 2, 0, 10.0, LinkQuality::Acceptable),
        cand(1, 0, 3, 0, 10.0, LinkQuality::Acceptable),
        cand(2, 1, 3, 1, 10.0, LinkQuality::Acceptable),
    ];
    links[0].pointing_a = AzEl::new(100.0, 0.0);
    links[1].pointing_a = AzEl::new(102.0, 0.0);
    let p = placed(&links, &[links[0].key()], &DrainRegistry::new());
    assert_eq!(p.selected, vec![0]);
    assert_eq!(p.in_previous, vec![true, false, false, false]);
    assert_eq!(p.viable, vec![true, false, false, true]);
}

#[test]
fn incumbent_on_a_drained_platform_is_not_kept() {
    let links = vec![
        cand(0, 0, 1, 0, 12.0, LinkQuality::Acceptable),
        cand(2, 0, 3, 0, 10.0, LinkQuality::Acceptable),
    ];
    let mut drains = DrainRegistry::new();
    drains.request(PlatformId(1), SimTime::ZERO, None);
    let p = placed(&links, &[links[0].key(), links[1].key()], &drains);
    assert_eq!(p.selected, vec![1]);
    assert_eq!(p.viable, vec![false, true]);
}

#[test]
fn previous_key_outside_the_graph_matches_nothing() {
    // Antenna indices 0..=1, platforms 0..=2: `tx_stride` is 2.
    let links = vec![
        cand(0, 0, 1, 0, 12.0, LinkQuality::Acceptable),
        cand(1, 1, 2, 0, 10.0, LinkQuality::Acceptable),
    ];
    let previous = [
        (tid(77, 0), tid(1, 0)),  // platform not interned
        (tid(0, 0), tid(78, 0)),  // … on the other side
        (tid(0, 2), tid(1, 0)),   // antenna index == tx_stride
        (tid(0, 0), tid(1, 255)), // … far past it
        (tid(1, 0), tid(0, 0)),   // a real link, ends swapped
    ];
    let p = placed(&links, &previous, &DrainRegistry::new());
    assert_eq!(p.in_previous, vec![false, false]);
    assert!(p.selected.is_empty());
    assert_eq!(p.viable, vec![true, true]);
}

#[test]
fn interference_conflict_blocks_same_band_close_beams() {
    let s = Solver::default();
    let mut a = cand(0, 0, 1, 0, 10.0, LinkQuality::Acceptable);
    let mut b = cand(0, 1, 2, 0, 10.0, LinkQuality::Acceptable);
    // Same platform 0, same band, beams 2° apart.
    a.pointing_a = AzEl::new(100.0, 0.0);
    b.pointing_a = AzEl::new(102.0, 0.0);
    assert!(s.conflicts(&a, &b));
    // Different bands: fine.
    b.band = 1;
    assert!(!s.conflicts(&a, &b));
    // Same band but far apart: fine.
    b.band = 0;
    b.pointing_a = AzEl::new(250.0, 0.0);
    assert!(!s.conflicts(&a, &b));
}
