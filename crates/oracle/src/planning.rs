//! Appendix B's planning hot path as a specification: the all-pairs
//! link evaluator and the greedy solver that re-routes every demand
//! over a rebuilt `BTreeMap` graph each iteration. `LinkEvaluator::
//! evaluate` and `Solver::solve` must equal these bit for bit. What the
//! two sides share, and the tests that hold them to it, are listed in
//! DESIGN.md §7; everything else has its own copy here.

use std::collections::{BTreeMap, BTreeSet, BinaryHeap};
use tssdn_core::evaluator::{LOS_CLEARANCE_M, MAX_RANGE_M, MODEL_PESSIMISM_DB};
use tssdn_core::model::{ModelWeather, NetworkModel};
use tssdn_core::solver::{scale_cost, MARGINAL_PENALTY};
use tssdn_core::{CandidateGraph, CandidateLink, LinkEvaluator, Solver, TopologyPlan};
use tssdn_dataplane::{BackhaulRequest, DrainRegistry};
use tssdn_geo::GeoPoint;
use tssdn_link::{LinkKind, TransceiverId};
use tssdn_rf::{
    AttenuationBreakdown, LinkBudgetReport, LinkQuality, RadioParams, WeatherField, BITRATE_TABLE,
};
use tssdn_sim::{PlatformId, SimTime};

/// The naive solver: full utility re-estimation (one Dijkstra per
/// request) every greedy iteration, O(n) conflict rescans after every
/// selection, `BTreeMap`-keyed adjacency.
#[allow(clippy::too_many_arguments)]
pub fn solve_reference(
    solver: &Solver,
    candidates: &CandidateGraph,
    requests: &[BackhaulRequest],
    gateways_to_ec: &dyn Fn(PlatformId) -> Vec<PlatformId>,
    previous: &BTreeSet<(TransceiverId, TransceiverId)>,
    drains: &DrainRegistry,
    now: SimTime,
) -> TopologyPlan {
    let mut plan = TopologyPlan {
        at: candidates.at,
        ..Default::default()
    };
    let mut viable: Vec<bool> = vec![true; candidates.links.len()];
    // Exclude candidates touching drained nodes outright.
    for (i, l) in candidates.links.iter().enumerate() {
        if drains.active(l.a.platform, now) || drains.active(l.b.platform, now) {
            viable[i] = false;
        }
    }
    let mut selected: Vec<usize> = Vec::new();
    let mut used_transceivers: BTreeSet<TransceiverId> = BTreeSet::new();

    // Structural hysteresis first: keep every incumbent link that is
    // still a viable candidate.
    let mut incumbents: Vec<usize> = (0..candidates.links.len())
        .filter(|i| viable[*i] && previous.contains(&candidates.links[*i].key()))
        .collect();
    incumbents.sort_by(|x, y| {
        candidates.links[*y]
            .margin_db
            .partial_cmp(&candidates.links[*x].margin_db)
            .expect("finite margins")
    });
    for i in incumbents {
        if !viable[i] {
            continue;
        }
        let chosen = candidates.links[i];
        selected.push(i);
        used_transceivers.insert(chosen.a);
        used_transceivers.insert(chosen.b);
        plan.kept_links += 1;
        for (j, l) in candidates.links.iter().enumerate() {
            if viable[j] && j != i && solver.conflicts(&chosen, l) {
                viable[j] = false;
            }
        }
    }

    // Greedy utility iteration (Appendix B).
    loop {
        let (utilities, routes) = estimate_utilities(
            solver,
            candidates,
            requests,
            gateways_to_ec,
            previous,
            &viable,
            &selected,
        );
        // Highest-utility *unselected* viable candidate; ties break
        // toward higher link margin (more robust choice).
        let best = (0..candidates.links.len())
            .filter(|i| viable[*i] && !selected.contains(i))
            .filter(|i| utilities[*i] > 0.0)
            .max_by(|a, b| {
                (utilities[*a], candidates.links[*a].margin_db)
                    .partial_cmp(&(utilities[*b], candidates.links[*b].margin_db))
                    .expect("finite")
            });
        let Some(best) = best else {
            // Done: record the final routing over selected links.
            plan.routes = routes
                .into_iter()
                .filter(|(_, path)| path.is_some())
                .map(|(k, path)| (k, path.expect("filtered")))
                .collect();
            plan.unsatisfied = requests
                .iter()
                .map(|r| (r.node, r.ec))
                .filter(|k| !plan.routes.contains_key(k))
                .collect();
            break;
        };
        selected.push(best);
        let chosen = candidates.links[best];
        used_transceivers.insert(chosen.a);
        used_transceivers.insert(chosen.b);
        if previous.contains(&chosen.key()) {
            plan.kept_links += 1;
        }
        // Invalidate incompatible candidates.
        for (i, l) in candidates.links.iter().enumerate() {
            if viable[i] && i != best && solver.conflicts(&chosen, l) {
                viable[i] = false;
            }
        }
    }
    plan.demand_links = selected.iter().map(|i| candidates.links[*i]).collect();

    // Redundancy pass over idle transceivers.
    let mut is_selected = vec![false; candidates.links.len()];
    for i in &selected {
        is_selected[*i] = true;
    }
    add_redundancy_reference(
        solver,
        candidates,
        &mut plan,
        &mut used_transceivers,
        &viable,
        &is_selected,
        previous,
    );
    plan
}

/// Task idle transceivers with extra links for failover, up to the
/// redundancy-target fraction (Figure 7's *intended* level), over
/// sets and maps.
fn add_redundancy_reference(
    solver: &Solver,
    candidates: &CandidateGraph,
    plan: &mut TopologyPlan,
    used: &mut BTreeSet<TransceiverId>,
    viable: &[bool],
    is_selected: &[bool],
    previous: &BTreeSet<(TransceiverId, TransceiverId)>,
) {
    // Idle transceivers anywhere in the candidate graph are fair
    // game, but a redundant link must touch the demand topology on
    // at least one end — a detached island adds no failover value.
    let connected: BTreeSet<PlatformId> = plan
        .demand_links
        .iter()
        .flat_map(|l| [l.a.platform, l.b.platform])
        .collect();
    let mut idle: BTreeSet<TransceiverId> = candidates
        .links
        .iter()
        .flat_map(|l| [l.a, l.b])
        .filter(|t| !used.contains(t))
        .collect();
    // Budget in *links*: each redundant link consumes two idle
    // transceivers. Rounding works on links so small meshes can
    // still task a pair (2 idle × 0.7 → 1 link).
    let link_budget =
        ((idle.len() as f64 * solver.config.redundancy_target) / 2.0).round() as usize;
    let mut tasked_links = 0usize;

    // Redundancy priorities: keep incumbents; protect singly-
    // connected platforms (a second link turns a link failure from
    // a disconnection into a reroute); prefer extra ground egress
    // (a redundant B2G link protects the whole mesh's backhaul);
    // then highest margin.
    let mut degree: BTreeMap<PlatformId, usize> = BTreeMap::new();
    for l in &plan.demand_links {
        *degree.entry(l.a.platform).or_default() += 1;
        *degree.entry(l.b.platform).or_default() += 1;
    }
    let mut order: Vec<usize> = (0..candidates.links.len())
        .filter(|i| viable[*i] && !is_selected[*i])
        .collect();
    order.sort_by(|x, y| {
        let lx = &candidates.links[*x];
        let ly = &candidates.links[*y];
        let kx = previous.contains(&lx.key());
        let ky = previous.contains(&ly.key());
        let dx = degree
            .get(&lx.a.platform)
            .copied()
            .unwrap_or(9)
            .min(degree.get(&lx.b.platform).copied().unwrap_or(9));
        let dy = degree
            .get(&ly.a.platform)
            .copied()
            .unwrap_or(9)
            .min(degree.get(&ly.b.platform).copied().unwrap_or(9));
        let gx = lx.kind == LinkKind::B2G;
        let gy = ly.kind == LinkKind::B2G;
        ky.cmp(&kx).then(dx.cmp(&dy)).then(gy.cmp(&gx)).then(
            ly.margin_db
                .partial_cmp(&lx.margin_db)
                .expect("finite margins"),
        )
    });
    let mut chosen_keys: Vec<CandidateLink> = Vec::new();
    for i in order {
        if tasked_links >= link_budget {
            break;
        }
        let l = &candidates.links[i];
        if !idle.contains(&l.a) || !idle.contains(&l.b) {
            continue;
        }
        if !connected.contains(&l.a.platform) && !connected.contains(&l.b.platform) {
            continue;
        }
        // Redundant links must not interfere with anything chosen.
        if plan
            .demand_links
            .iter()
            .chain(chosen_keys.iter())
            .any(|s| solver.conflicts(s, l))
        {
            continue;
        }
        // Marginal links are not worth burning idle radios on.
        if l.quality == LinkQuality::Marginal {
            continue;
        }
        idle.remove(&l.a);
        idle.remove(&l.b);
        used.insert(l.a);
        used.insert(l.b);
        tasked_links += 1;
        chosen_keys.push(*l);
    }
    plan.redundant_links = chosen_keys;
}

/// Route every demand over the viable+selected graph and credit
/// carried bits to each *unselected* candidate on the path, rebuilding
/// the whole adjacency and re-running Dijkstra per request.
#[allow(clippy::type_complexity)]
fn estimate_utilities(
    solver: &Solver,
    candidates: &CandidateGraph,
    requests: &[BackhaulRequest],
    gateways_to_ec: &dyn Fn(PlatformId) -> Vec<PlatformId>,
    previous: &BTreeSet<(TransceiverId, TransceiverId)>,
    viable: &[bool],
    selected: &[usize],
) -> (
    Vec<f64>,
    BTreeMap<(PlatformId, PlatformId), Option<Vec<PlatformId>>>,
) {
    // Platform-level adjacency: edge → (cost, candidate index).
    let mut adj: BTreeMap<PlatformId, Vec<(PlatformId, f64, usize)>> = BTreeMap::new();
    for (i, l) in candidates.links.iter().enumerate() {
        if !viable[i] {
            continue;
        }
        let is_selected = selected.contains(&i);
        let mut cost = if is_selected { 0.1 } else { 1.0 };
        if l.quality == LinkQuality::Marginal {
            cost += MARGINAL_PENALTY;
        }
        if previous.contains(&l.key()) {
            cost = (cost - solver.config.hysteresis_bonus).max(0.05);
        }
        // Enactment-feedback penalty: pairs that keep failing cost
        // more, steering demand toward alternates (§5's "better
        // policy").
        let pk = (
            l.a.platform.min(l.b.platform),
            l.a.platform.max(l.b.platform),
        );
        if let Some(m) = solver.pair_penalties.get(&pk) {
            cost *= m;
        }
        adj.entry(l.a.platform)
            .or_default()
            .push((l.b.platform, cost, i));
        adj.entry(l.b.platform)
            .or_default()
            .push((l.a.platform, cost, i));
    }

    let mut utilities = vec![0.0f64; candidates.links.len()];
    let mut routes: BTreeMap<(PlatformId, PlatformId), Option<Vec<PlatformId>>> = BTreeMap::new();
    for req in requests {
        let gws: BTreeSet<PlatformId> = gateways_to_ec(req.ec).into_iter().collect();
        let path = if gws.is_empty() {
            None
        } else {
            dijkstra_to_any(&adj, req.node, &gws)
        };
        if let Some((path, edge_idxs)) = &path {
            for i in edge_idxs {
                if !selected.contains(i) {
                    utilities[*i] += req.min_bitrate_bps as f64;
                }
            }
            routes.insert((req.node, req.ec), Some(path.clone()));
        } else {
            routes.insert((req.node, req.ec), None);
        }
    }
    (utilities, routes)
}

/// Dijkstra from `from` to the nearest member of `targets`, returning
/// the platform path and the candidate indices of traversed edges.
/// `BTreeMap`-keyed throughout; costs go through the shared
/// [`scale_cost`] fixed-point contract.
#[allow(clippy::type_complexity)]
fn dijkstra_to_any(
    adj: &BTreeMap<PlatformId, Vec<(PlatformId, f64, usize)>>,
    from: PlatformId,
    targets: &BTreeSet<PlatformId>,
) -> Option<(Vec<PlatformId>, Vec<usize>)> {
    if targets.contains(&from) {
        return Some((vec![from], vec![]));
    }
    let mut dist: BTreeMap<PlatformId, u64> = BTreeMap::new();
    let mut prev: BTreeMap<PlatformId, (PlatformId, usize)> = BTreeMap::new();
    let mut heap: BinaryHeap<std::cmp::Reverse<(u64, PlatformId)>> = BinaryHeap::new();
    dist.insert(from, 0);
    heap.push(std::cmp::Reverse((0, from)));
    while let Some(std::cmp::Reverse((d, n))) = heap.pop() {
        if dist.get(&n).map(|x| d > *x).unwrap_or(false) {
            continue;
        }
        if targets.contains(&n) {
            // Reconstruct.
            let mut path = vec![n];
            let mut edges = Vec::new();
            let mut cur = n;
            while let Some((p, e)) = prev.get(&cur) {
                path.push(*p);
                edges.push(*e);
                cur = *p;
            }
            path.reverse();
            edges.reverse();
            return Some((path, edges));
        }
        for (m, c, i) in adj.get(&n).into_iter().flatten() {
            let nd = d + scale_cost(*c);
            if dist.get(m).map(|x| nd < *x).unwrap_or(true) {
                dist.insert(*m, nd);
                prev.insert(*m, (n, *i));
                heap.push(std::cmp::Reverse((nd, *m)));
            }
        }
    }
    None
}

/// The naive evaluator: every platform pair reaches the slant-range /
/// line-of-sight math (no spatial prefilter), the pessimism-adjusted
/// band vector is rebuilt per pair, and the sweep is single-threaded.
pub fn evaluate_reference(
    evaluator: &LinkEvaluator,
    model: &NetworkModel,
    at: SimTime,
) -> CandidateGraph {
    use tssdn_geo::{line_of_sight_clear, PointingSolution};
    use tssdn_sim::PlatformKind;

    let weather = ModelWeather { model };
    let mut links = Vec::new();
    let platforms: Vec<_> = model.platforms().collect();
    for (i, pa) in platforms.iter().enumerate() {
        for pb in platforms.iter().skip(i + 1) {
            // Ground stations never pair with each other (they're
            // wired); unpowered platforms can't form links.
            if pa.kind == PlatformKind::GroundStation && pb.kind == PlatformKind::GroundStation {
                continue;
            }
            if !pa.powered || !pb.powered {
                continue;
            }
            let (Some(pos_a), Some(pos_b)) = (
                model.predicted_position(pa.id, at),
                model.predicted_position(pb.id, at),
            ) else {
                continue;
            };
            // Geometric pruning common to all antenna combos.
            let range = pos_a.slant_range_m(&pos_b);
            if range > MAX_RANGE_M {
                continue;
            }
            if !line_of_sight_clear(&pos_a, &pos_b, LOS_CLEARANCE_M) {
                continue;
            }
            let point_ab = PointingSolution::between(&pos_a, &pos_b);
            let point_ba = PointingSolution::between(&pos_b, &pos_a);
            let kind = if pa.kind == PlatformKind::Balloon && pb.kind == PlatformKind::Balloon {
                LinkKind::B2B
            } else {
                LinkKind::B2G
            };

            // The pessimism-adjusted bands, rebuilt per pair.
            let bands: Vec<RadioParams> = evaluator
                .config
                .bands
                .iter()
                .map(|band| RadioParams {
                    implementation_loss_db: band.implementation_loss_db + MODEL_PESSIMISM_DB,
                    ..*band
                })
                .collect();
            let attenuations: Vec<AttenuationBreakdown> = bands
                .iter()
                .map(|band| path_attenuation_reference(&pos_a, &pos_b, band, &weather, at.as_ms()))
                .collect();
            for ta in &pa.transceivers {
                if !ta.can_point_at(&point_ab.direction) {
                    continue;
                }
                for tb in &pb.transceivers {
                    if !tb.can_point_at(&point_ba.direction) {
                        continue;
                    }
                    // Best band for this antenna pairing.
                    let mut best: Option<(u8, LinkBudgetReport)> = None;
                    for (bi, band) in bands.iter().enumerate() {
                        let rep = budget_reference(
                            band,
                            ta.pattern.gain_dbi(0.0),
                            tb.pattern.gain_dbi(0.0),
                            attenuations[bi],
                        );
                        if rep.quality == LinkQuality::Infeasible {
                            continue;
                        }
                        let better = match &best {
                            None => true,
                            Some((_, b)) => rep.margin_db > b.margin_db,
                        };
                        if better {
                            best = Some((bi as u8, rep));
                        }
                    }
                    if let Some((band, rep)) = best {
                        links.push(CandidateLink {
                            a: ta.id,
                            b: tb.id,
                            kind,
                            band,
                            bitrate_bps: rep.bitrate_bps,
                            margin_db: rep.margin_db,
                            quality: rep.quality,
                            pointing_a: point_ab.direction,
                            pointing_b: point_ba.direction,
                            range_m: range,
                        });
                    }
                }
            }
        }
    }
    CandidateGraph { at, links }
}

/// The one-band path integral: every step derives the band's specific
/// attenuations from the frequency.
fn path_attenuation_reference<W: WeatherField>(
    a: &GeoPoint,
    b: &GeoPoint,
    params: &RadioParams,
    weather: &W,
    t_ms: u64,
) -> AttenuationBreakdown {
    const PATH_STEPS: usize = 32;
    let dist_m = a.slant_range_m(b);
    let mut out = AttenuationBreakdown {
        fspl_db: tssdn_rf::free_space_path_loss_db(dist_m, params.freq_ghz),
        ..Default::default()
    };
    let step_km = dist_m / 1000.0 / PATH_STEPS as f64;
    for i in 0..PATH_STEPS {
        let f = (i as f64 + 0.5) / PATH_STEPS as f64;
        // Linear blend in geodetic space is adequate at these spans.
        let p = GeoPoint::new(
            a.lat_deg + f * (b.lat_deg - a.lat_deg),
            a.lon_deg + f * (b.lon_deg - a.lon_deg),
            a.alt_m + f * (b.alt_m - a.alt_m),
        );
        out.gaseous_db +=
            tssdn_rf::atmosphere::gaseous_db_per_km(params.freq_ghz, p.alt_m) * step_km;
        let w = weather.sample(&p, t_ms);
        out.rain_db += tssdn_rf::rain::rain_db_per_km(params.freq_ghz, w.rain_mm_h) * step_km;
        out.cloud_db +=
            tssdn_rf::atmosphere::cloud_db_per_km(params.freq_ghz, w.cloud_lwc_g_m3) * step_km;
    }
    out
}

/// The link budget of one antenna pairing, gains and noise floor
/// computed on the spot.
fn budget_reference(
    params: &RadioParams,
    tx_gain_dbi: f64,
    rx_gain_dbi: f64,
    attenuation: AttenuationBreakdown,
) -> LinkBudgetReport {
    let rx_power_dbm = params.tx_power_dbm + tx_gain_dbi + rx_gain_dbi
        - attenuation.total_db()
        - params.implementation_loss_db;
    let snr_db = rx_power_dbm - params.noise_floor_dbm();
    let margin_db = snr_db - tssdn_rf::link_budget::min_usable_snr_db();

    // Highest bitrate whose threshold + required margin the SNR meets.
    let bitrate_bps = BITRATE_TABLE
        .iter()
        .find(|(thr, _)| snr_db >= thr + params.required_margin_db)
        .map(|&(_, b)| b)
        .unwrap_or(0);

    let quality = if margin_db >= params.required_margin_db {
        LinkQuality::Acceptable
    } else if margin_db >= params.required_margin_db - params.marginal_band_db {
        LinkQuality::Marginal
    } else {
        LinkQuality::Infeasible
    };

    LinkBudgetReport {
        rx_power_dbm,
        snr_db,
        bitrate_bps,
        margin_db,
        quality,
        attenuation,
    }
}
