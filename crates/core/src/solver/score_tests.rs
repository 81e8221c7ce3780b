use super::*;
use tssdn_geo::AzEl;
use tssdn_link::LinkKind;

fn cand(a: u32, b: u32, margin: f64, quality: LinkQuality) -> CandidateLink {
    CandidateLink {
        a: TransceiverId::new(PlatformId(a), 0),
        b: TransceiverId::new(PlatformId(b), 0),
        kind: LinkKind::B2B,
        band: 0,
        bitrate_bps: 400_000_000,
        margin_db: margin,
        quality,
        pointing_a: AzEl::new(0.0, 0.0),
        pointing_b: AzEl::new(180.0, 0.0),
        range_m: 100_000.0,
    }
}

#[test]
fn empty_plan_scores_zero_demand() {
    let plan = TopologyPlan::default();
    let s = plan.utility_score(5);
    assert_eq!(s.demand_fraction, 0.0);
    assert_eq!(s.total, 0.0);
    // Zero requests counts as fully satisfied.
    assert_eq!(plan.utility_score(0).demand_fraction, 1.0);
}

#[test]
fn more_demand_satisfied_scores_higher() {
    let mut a = TopologyPlan {
        demand_links: vec![cand(0, 1, 8.0, LinkQuality::Acceptable)],
        ..Default::default()
    };
    a.routes.insert(
        (PlatformId(0), PlatformId(9)),
        vec![PlatformId(0), PlatformId(1)],
    );
    let mut b = a.clone();
    b.routes.insert(
        (PlatformId(2), PlatformId(9)),
        vec![PlatformId(2), PlatformId(1)],
    );
    assert!(b.utility_score(4).total > a.utility_score(4).total);
}

#[test]
fn marginal_links_cost_score() {
    let mut a = TopologyPlan {
        demand_links: vec![cand(0, 1, 8.0, LinkQuality::Acceptable)],
        ..Default::default()
    };
    a.routes.insert(
        (PlatformId(0), PlatformId(9)),
        vec![PlatformId(0), PlatformId(1)],
    );
    let mut b = a.clone();
    b.demand_links = vec![cand(0, 1, 8.0, LinkQuality::Marginal)];
    assert!(a.utility_score(1).total > b.utility_score(1).total);
}

#[test]
fn redundancy_raises_score() {
    let mut a = TopologyPlan {
        demand_links: vec![cand(0, 1, 8.0, LinkQuality::Acceptable)],
        ..Default::default()
    };
    a.routes.insert(
        (PlatformId(0), PlatformId(9)),
        vec![PlatformId(0), PlatformId(1)],
    );
    let mut b = a.clone();
    b.redundant_links = vec![cand(2, 3, 8.0, LinkQuality::Acceptable)];
    assert!(b.utility_score(1).total > a.utility_score(1).total);
}

#[test]
fn goal_state_lists_all_actuation_steps() {
    let mut plan = TopologyPlan {
        demand_links: vec![cand(0, 1, 8.0, LinkQuality::Acceptable)],
        redundant_links: vec![cand(2, 3, 6.0, LinkQuality::Acceptable)],
        ..Default::default()
    };
    plan.routes.insert(
        (PlatformId(0), PlatformId(9)),
        vec![PlatformId(0), PlatformId(1)],
    );
    // Currently installed: one link that must be withdrawn, plus
    // the demand link (kept).
    let mut current = BTreeSet::new();
    current.insert(cand(0, 1, 8.0, LinkQuality::Acceptable).key());
    current.insert(cand(7, 8, 5.0, LinkQuality::Acceptable).key());
    let text = plan.render_goal_state(&current, 1);
    assert!(text.contains("keep 1 installed links"), "{text}");
    assert!(text.contains("withdraw p7t0 — p8t0"), "{text}");
    assert!(text.contains("establish p2t0 — p3t0"), "{text}");
    assert!(text.contains("route p0 → p9"), "{text}");
    assert!(text.contains("1/1 satisfied"), "{text}");
}
