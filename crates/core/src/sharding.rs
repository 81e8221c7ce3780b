//! Regional controller sharding: one planner scope per geographic
//! region over the shared sim substrate.
//!
//! The paper's production TS-SDN ran a single controller over the
//! whole fleet; our global solve is ~220 ms at 100 dense balloons
//! (BENCH_planning.json), which puts the ROADMAP's 1000-balloon north
//! star far out of reach — solve cost grows superlinearly in
//! `requests × candidates`. Partitioning the *planning* problem fixes
//! the asymptotics: each region solves only its members' demands over
//! the candidate links its members (plus a boundary halo) can see, so
//! total work is `Σ_r (req_r × cand_r)` instead of `R×C` — a
//! near-quadratic win when the fleet disperses. The simulation
//! substrate (fleet, link state machines, CDPI, fabric, traffic)
//! stays global and shared; only the solve is sharded, which mirrors
//! the controller-assignment framing of the LEO-constellation
//! literature (PAPERS.md) where regional controllers plan locally
//! over a common ground-truth network.
//!
//! Design rules, in contract order:
//!
//! * **Deterministic assignment** — a platform's region is a pure
//!   function of its reported ECEF position (longitude bands about a
//!   configured origin meridian) plus sticky hysteresis; no RNG, no
//!   iteration-order dependence.
//! * **Exactly one owner** — every backhaul flow is planned by the
//!   region that owns its source balloon. Halo candidates may be
//!   offered to several regions, but the region-ordered merge grants
//!   each transceiver to at most one region, so no link or route is
//!   ever double-programmed.
//! * **Bit-identical across worker counts** — region solves go through
//!   the evaluator's fan-out (`fan_out`): regions are chunked in id
//!   order, each chunk solved on one thread, results concatenated in
//!   chunk order. The merged plan is a pure fold over that
//!   region-ordered sequence.
//! * **Single-region collapse** — with `num_regions <= 1` every
//!   platform is in scope and every request is owned by region 0, so
//!   the sub-problem *is* the global problem and the merge is the
//!   identity: `solve_sharded` returns byte-for-byte what
//!   `Solver::solve` returns (proptest-gated in `tests/sharding.rs`).
//! * **Handoff moves ownership, not state** — all controller state
//!   that matters across a border crossing (in-flight `SetRoutes`
//!   programs, demand-feedback EWMA, SNF/custody bookkeeping) is
//!   keyed by `PlatformId` in global stores; a handoff re-tags the
//!   owner in the [`RegionMap`] and emits a [`HandoffEvent`], leaving
//!   every keyed entry untouched. Routes survive because the next
//!   owner's solve sees the same hysteresis `previous` set.

use crate::evaluator::CandidateGraph;
use crate::fan_out::{fan_out, host_workers};
use crate::solver::{Solver, TopologyPlan};
use std::collections::{BTreeMap, BTreeSet};
use tssdn_dataplane::{BackhaulRequest, DrainRegistry};
use tssdn_link::TransceiverId;
use tssdn_sim::{PlatformId, PlatformKind, SimTime};

/// Kilometers per degree of longitude at the equator (mean sphere).
/// Halo and hysteresis widths are configured in km and converted to
/// band-relative degrees through this one constant so the mapping is
/// identical everywhere.
const KM_PER_DEG: f64 = 2.0 * std::f64::consts::PI * 6_371.0 / 360.0;

/// A region's identity: index into the longitude-band partition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct RegionId(pub u32);

/// Sharding knobs. The default (`num_regions = 1`) is the unsharded
/// global loop.
#[derive(Debug, Clone, Copy)]
pub struct ShardingConfig {
    /// Number of planner regions. `<= 1` disables sharding.
    pub num_regions: u32,
    /// Reference meridian the bands are centered about, degrees east.
    pub origin_lon_deg: f64,
    /// Width of each interior band, degrees of longitude. The two
    /// outermost bands extend to ±∞ (assignment clamps), so the
    /// partition covers every position.
    pub band_deg: f64,
    /// Boundary halo width, km: platforms within this distance of a
    /// region's band are offered to that region's solve as relay
    /// candidates even when owned elsewhere.
    pub halo_km: f64,
    /// Ownership hysteresis, km: a balloon must drift this far past
    /// its owner's band edge before planner ownership transfers, so
    /// border jitter does not thrash handoffs.
    pub hysteresis_km: f64,
    /// Worker-thread override for region solves (`None` = available
    /// parallelism, clamped to 8 like the evaluator, for epochs with
    /// enough candidate links to be worth a thread). Output is
    /// bit-identical for any value.
    pub workers: Option<u32>,
}

impl Default for ShardingConfig {
    fn default() -> Self {
        ShardingConfig {
            num_regions: 1,
            origin_lon_deg: 37.5,
            band_deg: 5.0,
            halo_km: 250.0,
            hysteresis_km: 25.0,
            workers: None,
        }
    }
}

/// One planner-ownership transfer caused by wind drift.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HandoffEvent {
    /// The balloon that crossed a region border.
    pub balloon: PlatformId,
    /// Previous owner.
    pub from: RegionId,
    /// New owner.
    pub to: RegionId,
    /// When the transfer was observed (controller cycle time).
    pub at: SimTime,
}

/// Deterministic platform→region ownership with sticky hysteresis.
///
/// Updated from the controller's *believed* positions once per solve;
/// between updates ownership is stable, so every actuation in a cycle
/// sees one consistent assignment.
#[derive(Debug, Clone)]
pub struct RegionMap {
    cfg: ShardingConfig,
    owner: BTreeMap<PlatformId, RegionId>,
    lon: BTreeMap<PlatformId, f64>,
    ground_stations: BTreeSet<PlatformId>,
    handoffs_in: BTreeMap<RegionId, u64>,
}

impl RegionMap {
    /// An empty map for the given configuration.
    pub fn new(cfg: ShardingConfig) -> Self {
        RegionMap {
            cfg,
            owner: BTreeMap::new(),
            lon: BTreeMap::new(),
            ground_stations: BTreeSet::new(),
            handoffs_in: BTreeMap::new(),
        }
    }

    /// Number of regions (≥ 1 for assignment purposes).
    pub fn num_regions(&self) -> u32 {
        self.cfg.num_regions.max(1)
    }

    /// The band a longitude falls in, ignoring hysteresis: interior
    /// bands are `band_deg` wide, centered as a group about
    /// `origin_lon_deg`; the outer two extend to ±∞.
    fn home_region(&self, lon_deg: f64) -> RegionId {
        let n = self.num_regions();
        let half_span = n as f64 * self.cfg.band_deg / 2.0;
        let x = (lon_deg - self.cfg.origin_lon_deg + half_span) / self.cfg.band_deg;
        let idx = x.floor().clamp(0.0, (n - 1) as f64) as u32;
        RegionId(idx)
    }

    /// Distance in degrees from a longitude to region `r`'s band
    /// (0 when inside). Outer bands are half-open to ±∞.
    fn deg_to_band(&self, lon_deg: f64, r: RegionId) -> f64 {
        let n = self.num_regions();
        let half_span = n as f64 * self.cfg.band_deg / 2.0;
        let lo = self.cfg.origin_lon_deg - half_span + r.0 as f64 * self.cfg.band_deg;
        let hi = lo + self.cfg.band_deg;
        if r.0 == 0 && lon_deg < hi {
            return 0.0;
        }
        if r.0 == n - 1 && lon_deg >= lo {
            return 0.0;
        }
        if lon_deg < lo {
            lo - lon_deg
        } else if lon_deg >= hi {
            lon_deg - hi
        } else {
            0.0
        }
    }

    /// Current owner of a platform (None before its first update).
    pub fn owner(&self, p: PlatformId) -> Option<RegionId> {
        self.owner.get(&p).copied()
    }

    /// Owner, defaulting unknown platforms to region 0 so request
    /// partitioning is total.
    fn owner_or_default(&self, p: PlatformId) -> RegionId {
        self.owner(p).unwrap_or(RegionId(0))
    }

    /// Inbound handoffs a region has absorbed so far.
    pub fn handoffs_into(&self, r: RegionId) -> u64 {
        self.handoffs_in.get(&r).copied().unwrap_or(0)
    }

    /// Total handoffs across all regions.
    pub fn total_handoffs(&self) -> u64 {
        self.handoffs_in.values().sum()
    }

    /// Balloon membership count per region (all regions listed, empty
    /// ones included), for telemetry.
    pub fn census(&self) -> Vec<(RegionId, u64)> {
        let mut counts: BTreeMap<RegionId, u64> =
            (0..self.num_regions()).map(|r| (RegionId(r), 0)).collect();
        for (p, r) in &self.owner {
            if !self.ground_stations.contains(p) {
                *counts.entry(*r).or_insert(0) += 1;
            }
        }
        counts.into_iter().collect()
    }

    /// Refresh ownership from believed positions. Balloons whose home
    /// band changed — and which have drifted more than the hysteresis
    /// distance past their current owner's band edge — transfer; the
    /// returned events are in `PlatformId` order (BTreeMap-driven),
    /// independent of the caller's slice order.
    pub fn update(
        &mut self,
        positions: &[(PlatformId, PlatformKind, f64)],
        at: SimTime,
    ) -> Vec<HandoffEvent> {
        let mut sorted: Vec<&(PlatformId, PlatformKind, f64)> = positions.iter().collect();
        sorted.sort_by_key(|(p, _, _)| *p);
        let mut events = Vec::new();
        for (p, kind, lon) in sorted {
            self.lon.insert(*p, *lon);
            if *kind == PlatformKind::GroundStation {
                self.ground_stations.insert(*p);
            }
            let home = self.home_region(*lon);
            match self.owner.get(p).copied() {
                None => {
                    self.owner.insert(*p, home);
                }
                Some(cur) if cur == home => {}
                Some(cur) => {
                    let past_edge_km = self.deg_to_band(*lon, cur) * KM_PER_DEG;
                    if past_edge_km > self.cfg.hysteresis_km {
                        self.owner.insert(*p, home);
                        *self.handoffs_in.entry(home).or_insert(0) += 1;
                        if *kind == PlatformKind::Balloon {
                            events.push(HandoffEvent {
                                balloon: *p,
                                from: cur,
                                to: home,
                                at,
                            });
                        }
                    }
                }
            }
        }
        events
    }

    /// The platform scope of one region's solve: its owned members,
    /// every platform within `halo_km` of its band (border relays),
    /// and all ground stations (gateways are shared infrastructure —
    /// a region with no gateway in scope could satisfy nothing).
    pub fn scope_of(&self, r: RegionId) -> BTreeSet<PlatformId> {
        let halo_deg = self.cfg.halo_km / KM_PER_DEG;
        let mut scope = BTreeSet::new();
        for (p, owner) in &self.owner {
            if *owner == r {
                scope.insert(*p);
                continue;
            }
            if let Some(lon) = self.lon.get(p) {
                if self.deg_to_band(*lon, r) <= halo_deg {
                    scope.insert(*p);
                }
            }
        }
        scope.extend(self.ground_stations.iter().copied());
        scope
    }
}

/// Solve the planning problem region by region and merge the partial
/// plans into one [`TopologyPlan`].
///
/// Each region solves the sub-problem `(links within its scope,
/// requests it owns)` with the shared solver (same config, same
/// pair penalties, same `previous` hysteresis set, same drains). The
/// merge walks regions in id order: demand links first, then
/// redundant links, granting each transceiver to the first region
/// that claims it; a route whose demand link lost such a conflict is
/// demoted to `unsatisfied` rather than programmed over a link that
/// will not exist.
#[allow(clippy::too_many_arguments)]
pub fn solve_sharded(
    solver: &Solver,
    map: &RegionMap,
    graph: &CandidateGraph,
    requests: &[BackhaulRequest],
    gateways_to_ec: &dyn Fn(PlatformId) -> Vec<PlatformId>,
    previous: &BTreeSet<(TransceiverId, TransceiverId)>,
    drains: &DrainRegistry,
    now: SimTime,
) -> TopologyPlan {
    let n = map.num_regions();
    // Pre-resolve gateway lists so worker threads never call the
    // caller's (not necessarily Sync) closure.
    let mut gw_cache: BTreeMap<PlatformId, Vec<PlatformId>> = BTreeMap::new();
    for r in requests {
        gw_cache.entry(r.ec).or_insert_with(|| gateways_to_ec(r.ec));
    }

    // Build each region's sub-problem up front (cheap: set lookups
    // over the link list), in region-id order.
    let subproblems: Vec<(RegionId, CandidateGraph, Vec<BackhaulRequest>)> = (0..n)
        .map(|i| {
            let r = RegionId(i);
            let scope = map.scope_of(r);
            let links = graph
                .links
                .iter()
                .filter(|l| scope.contains(&l.a.platform) && scope.contains(&l.b.platform))
                .copied()
                .collect();
            let sub_requests: Vec<BackhaulRequest> = requests
                .iter()
                .filter(|q| map.owner_or_default(q.node) == r)
                .cloned()
                .collect();
            (
                r,
                CandidateGraph {
                    at: graph.at,
                    links,
                },
                sub_requests,
            )
        })
        .collect();

    let solve_one = |sub: &(RegionId, CandidateGraph, Vec<BackhaulRequest>)| -> TopologyPlan {
        let gw =
            |ec: PlatformId| -> Vec<PlatformId> { gw_cache.get(&ec).cloned().unwrap_or_default() };
        solver.solve(&sub.1, &sub.2, &gw, previous, drains, now)
    };

    // The evaluator's fan-out: regions in id order, chunk outputs in
    // chunk order, so the plans are the serial map's for any worker
    // count. A region with no candidate links solves to an empty plan
    // at once, so only an epoch with two or more busy regions can use
    // a thread (a powered-down night maps serially); left to the host,
    // it also needs enough links to pay for one.
    let busy: Vec<usize> = subproblems
        .iter()
        .map(|sub| sub.1.links.len())
        .filter(|&links| links > 0)
        .collect();
    let workers = match map.cfg.workers {
        _ if busy.len() < 2 => 1,
        Some(w) => (w as usize).max(1),
        None if busy.iter().sum::<usize>() < MIN_LINKS_TO_FAN_OUT => 1,
        None => host_workers(),
    };
    let plans = fan_out(&subproblems, workers, |chunk| {
        chunk.iter().map(solve_one).collect()
    });

    merge_plans(graph.at, &plans)
}

/// Candidate links an epoch's busy regions must hold between them
/// before `solve_sharded` hands regions to threads on its own (an
/// explicit `ShardingConfig::workers` always does). A second thread
/// costs 20–45 µs to start and join whatever the epoch's size. Five
/// serial vs two-thread sweeps on a 2-core container (EXPERIMENTS.md,
/// "Fan-out threshold"), 94 to 22 490 links: with the second core free
/// threads win from ≈ 1 200 links; with it contended (four sweeps of
/// five) that fixed cost is still ≥ 5 % of a warm solve at ≈ 5 000.
/// A 12-balloon, 3-region epoch holds ≈ 200 links; the 1 000-balloon,
/// 16-region one of `sharding_scale` 17 314.
const MIN_LINKS_TO_FAN_OUT: usize = 5_000;

/// Fold region plans (already in region-id order) into one global
/// plan, resolving cross-region transceiver conflicts in favor of the
/// earliest region.
fn merge_plans(at: SimTime, plans: &[TopologyPlan]) -> TopologyPlan {
    let mut merged = TopologyPlan {
        at,
        ..Default::default()
    };
    let mut used: BTreeSet<TransceiverId> = BTreeSet::new();
    let pair = |a: PlatformId, b: PlatformId| (a.min(b), a.max(b));

    // Pass 1: demand links + routes, region by region.
    for plan in plans {
        let mut kept_edges: BTreeSet<(PlatformId, PlatformId)> = BTreeSet::new();
        let mut dropped_edges: BTreeSet<(PlatformId, PlatformId)> = BTreeSet::new();
        for l in &plan.demand_links {
            let edge = pair(l.a.platform, l.b.platform);
            if used.contains(&l.a) || used.contains(&l.b) {
                dropped_edges.insert(edge);
                continue;
            }
            used.insert(l.a);
            used.insert(l.b);
            merged.demand_links.push(*l);
            kept_edges.insert(edge);
        }
        // An edge is broken only if *every* demand link on it was
        // dropped; parallel links between the same platforms keep the
        // platform-level route alive.
        let broken: BTreeSet<_> = dropped_edges.difference(&kept_edges).copied().collect();
        for (flow, path) in &plan.routes {
            let hits_broken = path.windows(2).any(|w| broken.contains(&pair(w[0], w[1])));
            if hits_broken {
                merged.unsatisfied.push(*flow);
            } else {
                merged.routes.insert(*flow, path.clone());
            }
        }
        merged.unsatisfied.extend(plan.unsatisfied.iter().copied());
        merged.kept_links += plan.kept_links;
    }

    // Pass 2: redundant links, again in region order. A redundant
    // link that lost its transceivers to another region is simply
    // dropped — redundancy is best-effort by definition.
    for plan in plans {
        for l in &plan.redundant_links {
            if used.contains(&l.a) || used.contains(&l.b) {
                continue;
            }
            used.insert(l.a);
            used.insert(l.b);
            merged.redundant_links.push(*l);
        }
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use tssdn_sim::SimTime;

    fn cfg(n: u32, band: f64) -> ShardingConfig {
        ShardingConfig {
            num_regions: n,
            origin_lon_deg: 37.5,
            band_deg: band,
            halo_km: 100.0,
            hysteresis_km: 25.0,
            workers: Some(1),
        }
    }

    #[test]
    fn home_region_partitions_the_meridian() {
        let map = RegionMap::new(cfg(4, 1.0));
        // Bands: (-inf,36.5) [36.5,37.5) [37.5,38.5) [38.5,+inf).
        assert_eq!(map.home_region(30.0), RegionId(0));
        assert_eq!(map.home_region(36.9), RegionId(1));
        assert_eq!(map.home_region(37.5), RegionId(2));
        assert_eq!(map.home_region(38.4), RegionId(2));
        assert_eq!(map.home_region(38.5), RegionId(3));
        assert_eq!(map.home_region(170.0), RegionId(3));
    }

    #[test]
    fn single_region_owns_everything() {
        let map = RegionMap::new(cfg(1, 5.0));
        for lon in [-179.0, -37.5, 0.0, 37.5, 179.0] {
            assert_eq!(map.home_region(lon), RegionId(0));
        }
    }

    #[test]
    fn hysteresis_defers_handoff_until_past_the_edge() {
        let mut map = RegionMap::new(cfg(2, 1.0));
        let b = PlatformId(1);
        let t = SimTime::ZERO;
        // Bands: (-inf,37.5) [37.5,+inf). Start in region 0.
        let ev = map.update(&[(b, PlatformKind::Balloon, 37.0)], t);
        assert!(ev.is_empty());
        assert_eq!(map.owner(b), Some(RegionId(0)));
        // 0.1° past the edge ≈ 11 km < 25 km hysteresis: no handoff.
        let ev = map.update(&[(b, PlatformKind::Balloon, 37.6)], t);
        assert!(ev.is_empty());
        assert_eq!(map.owner(b), Some(RegionId(0)));
        // 0.5° past ≈ 56 km > 25 km: handoff fires once.
        let ev = map.update(&[(b, PlatformKind::Balloon, 38.0)], t);
        assert_eq!(
            ev,
            vec![HandoffEvent {
                balloon: b,
                from: RegionId(0),
                to: RegionId(1),
                at: t,
            }]
        );
        assert_eq!(map.owner(b), Some(RegionId(1)));
        assert_eq!(map.handoffs_into(RegionId(1)), 1);
        // Stable afterwards.
        let ev = map.update(&[(b, PlatformKind::Balloon, 38.0)], t);
        assert!(ev.is_empty());
    }

    #[test]
    fn scope_includes_members_halo_and_ground_stations() {
        let mut map = RegionMap::new(cfg(2, 2.0));
        let t = SimTime::ZERO;
        // Bands: (-inf,37.5) [37.5,+inf).
        map.update(
            &[
                (PlatformId(1), PlatformKind::Balloon, 36.0), // region 0, deep
                (PlatformId(2), PlatformKind::Balloon, 38.2), // region 1, near edge
                (PlatformId(3), PlatformKind::Balloon, 45.0), // region 1, far
                (PlatformId(100), PlatformKind::GroundStation, 44.0),
            ],
            t,
        );
        let scope0 = map.scope_of(RegionId(0));
        // Members + the near-border region-1 balloon (0.7° ≈ 78 km
        // < 100 km halo) + the ground station; not the far balloon.
        assert!(scope0.contains(&PlatformId(1)));
        assert!(scope0.contains(&PlatformId(2)));
        assert!(!scope0.contains(&PlatformId(3)));
        assert!(scope0.contains(&PlatformId(100)));
        // Census counts balloons only.
        assert_eq!(map.census(), vec![(RegionId(0), 1), (RegionId(1), 2)]);
    }

    #[test]
    fn ground_station_moves_never_emit_handoff_events() {
        let mut map = RegionMap::new(cfg(2, 1.0));
        let t = SimTime::ZERO;
        map.update(&[(PlatformId(100), PlatformKind::GroundStation, 36.0)], t);
        let ev = map.update(&[(PlatformId(100), PlatformKind::GroundStation, 40.0)], t);
        assert!(ev.is_empty());
    }
}
