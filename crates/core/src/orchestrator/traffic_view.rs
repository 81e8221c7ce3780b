//! The traffic view: the flow-level [`TrafficEngine`] (E17), present
//! when `config.traffic` is set, ticked on the probe cadence against
//! the *true* forwarding state, plus the standing custody
//! designations piggybacked on that view.

use super::{Orchestrator, OrchestratorConfig, UpLinks};
use std::collections::BTreeMap;
use tssdn_dataplane::Plane;
use tssdn_sim::{Fleet, PlatformId, RngStreams, SimTime};
use tssdn_traffic::{TopologyView, TrafficEngine};

pub(super) struct TrafficView {
    engine: Option<TrafficEngine>,
    /// End of the last traffic tick (for the fluid integration step).
    last_tick: SimTime,
    /// Standing custody designations for loss-warned balloons
    /// (doomed holder → custodian), sticky while the warning holds.
    /// Piggybacked onto the traffic view like the alternate-plane
    /// programs — no extra control-plane round trip.
    custody: BTreeMap<PlatformId, PlatformId>,
}

impl TrafficView {
    /// Each balloon's eNodeB footprint becomes a served site. The
    /// engine draws from its own RNG stream at construction and never
    /// afterwards, so enabling it cannot perturb any other seeded
    /// subsystem.
    pub(super) fn new(config: &OrchestratorConfig, fleet: &Fleet, streams: &RngStreams) -> Self {
        let engine = config.traffic.map(|tc| {
            let sites: Vec<PlatformId> = (0..fleet.balloons.len() as u32).map(PlatformId).collect();
            TrafficEngine::new(tc, &sites, streams)
        });
        TrafficView {
            engine,
            last_tick: SimTime::ZERO,
            custody: BTreeMap::new(),
        }
    }

    pub(super) fn engine(&self) -> Option<&TrafficEngine> {
        self.engine.as_ref()
    }
}

impl Orchestrator {
    /// Current custody designations (doomed holder → custodian).
    pub fn custody_designations(&self) -> &BTreeMap<PlatformId, PlatformId> {
        &self.traffic.custody
    }

    /// The traffic engine, when `config.traffic` is set.
    pub fn traffic(&self) -> Option<&TrafficEngine> {
        self.traffic.engine()
    }

    /// Advance the flow-level traffic engine over the interval since
    /// its last tick, against the *true* forwarding state.
    pub(super) fn tick_traffic(&mut self, up: &UpLinks) {
        if self.traffic.engine.is_none() {
            return;
        }
        let dt = self.now.since(self.traffic.last_tick);
        self.traffic.last_tick = self.now;
        if dt.as_ms() == 0 {
            return;
        }
        let mut view = self.forwarding_view(up);
        self.designate_custody(&mut view);
        if let Some(engine) = self.traffic.engine.as_mut() {
            engine.tick(self.now, dt, &view);
        }
    }

    /// What the engine is to see this tick: who is eligible or gone,
    /// the routes that actually trace end-to-end right now, and
    /// per-edge capacities from the ACM table at each established
    /// machine's true link margin (weather fade degrades capacity
    /// continuously, not just at the controller's solve cadence).
    fn forwarding_view(&self, up: &UpLinks) -> TopologyView {
        let mut view = TopologyView::default();
        for b in (0..self.truth.fleet().balloons.len() as u32).map(PlatformId) {
            if self.potentially_operable(b) {
                view.eligible.insert(b);
            }
            // A balloon inside an active loss window is gone, not
            // merely dark: the traffic engine wipes whatever backlog
            // custody transfer did not move off it in time.
            if self.chaos.balloon_lost(b) {
                view.dead.insert(b);
            }
            let primary = self.active_path_on(Plane::Primary, b, up);
            let alt = self.active_path_on(Plane::Alt, b, up);
            match (primary, alt) {
                (Some(p), Some(a)) => {
                    view.paths.insert(b, p.clone());
                    if a != p {
                        view.alt_paths.insert(b, a);
                    }
                }
                (Some(p), None) => {
                    view.paths.insert(b, p);
                }
                // Failover promotion: the primary no longer traces but
                // the redundant plane still does — traffic rides it as
                // the (sole) forwarding path until the controller
                // reprograms the primary.
                (None, Some(a)) => {
                    view.paths.insert(b, a);
                }
                (None, None) => {}
            }
        }
        // Aggregate established machines into per-platform-pair edge
        // capacity via the MCS ladder at the current true margin.
        for (a, b, band, margin) in self.enactment.established_links() {
            // Same instant, fleet, faults and weather as when
            // `poll_links` measured it a few stages ago.
            debug_assert_eq!(margin, self.true_margin(a, b, band));
            let Some(margin) = margin else {
                continue;
            };
            let cap = (tssdn_rf::capacity_mbps(margin) * 1e6) as u64;
            let (x, y) = (a.platform, b.platform);
            *view
                .link_capacity_bps
                .entry((x.min(y), x.max(y)))
                .or_default() += cap;
        }
        view
    }

    /// Custody designation: each loss-warned balloon gets a custodian
    /// to push its backlog toward before the window lands.
    /// Designations are sticky while the warning holds (a handoff
    /// spreads over several ticks at residual rate) and chosen
    /// deterministically: the next hop of a current forwarding plane
    /// when one exists, else the lowest-id linked balloon that still
    /// has a route, else any linked survivor — during a full ground
    /// blackout the bits still move one hop and drain once routes
    /// return.
    fn designate_custody(&mut self, view: &mut TopologyView) {
        let n_balloons = self.truth.fleet().balloons.len() as u32;
        let warned: Vec<PlatformId> = (0..n_balloons)
            .map(PlatformId)
            .filter(|b| self.chaos.loss_warned(*b, self.now) && !view.dead.contains(b))
            .collect();
        self.traffic.custody.retain(|b, _| warned.contains(b));
        for &b in &warned {
            let viable = |c: PlatformId| {
                c != b
                    && c.0 < n_balloons
                    && !view.dead.contains(&c)
                    && !self.chaos.loss_warned(c, self.now)
                    && self.effectively_powered(c)
            };
            let linked = |c: PlatformId| view.link_capacity_bps.contains_key(&(b.min(c), b.max(c)));
            let next_hop = |path: Option<&Vec<PlatformId>>| {
                path.and_then(|p| p.get(1))
                    .copied()
                    .filter(|&c| viable(c) && linked(c))
            };
            let neighbors = || {
                view.link_capacity_bps.keys().filter_map(|&(x, y)| {
                    if x == b {
                        Some(y)
                    } else if y == b {
                        Some(x)
                    } else {
                        None
                    }
                })
            };
            let pick = self
                .traffic
                .custody
                .get(&b)
                .copied()
                .filter(|&c| viable(c) && linked(c))
                .or_else(|| next_hop(view.paths.get(&b)))
                .or_else(|| next_hop(view.alt_paths.get(&b)))
                .or_else(|| neighbors().find(|&c| viable(c) && view.paths.contains_key(&c)))
                .or_else(|| neighbors().find(|&c| viable(c)));
            if let Some(c) = pick {
                if self.traffic.custody.insert(b, c) != Some(c) {
                    self.custody_intents_issued += 1;
                }
            }
        }
        for (&b, &c) in &self.traffic.custody {
            view.custody.insert(b, c);
        }
    }
}

#[cfg(test)]
pub(super) mod tests {
    use super::super::tests::small;
    use super::*;
    use crate::orchestrator::DEMAND_BPS;
    use tssdn_traffic::TrafficConfig;

    pub(in crate::orchestrator) fn traffic_engine_carries_load_once_routes_exist() {
        let mut cfg = OrchestratorConfig::kenya(6, 42);
        cfg.fleet.spawn_radius_m = 150_000.0;
        cfg.traffic = Some(TrafficConfig::default());
        let mut o = Orchestrator::new(cfg);
        o.run_until(SimTime::from_hours(12));
        let engine = o.traffic().expect("traffic enabled");
        let series = engine.series();
        assert!(series.offered_bits() > 0, "daytime sites offered traffic");
        let g = series.overall().expect("offered");
        assert!(g > 0.0, "some traffic delivered end-to-end: {g}");
        assert!(g <= 1.0);
        // The demand digest observed at least one site, and feedback
        // rewrote the solver's request weights away from the static
        // default.
        let fed = o
            .backhaul_requests()
            .iter()
            .any(|r| r.min_bitrate_bps != DEMAND_BPS);
        assert!(fed, "demand feedback updated request weights");
    }

    pub(in crate::orchestrator) fn traffic_disabled_by_default_and_inert() {
        let o = small();
        assert!(o.traffic().is_none());
        // Static demand weights stay untouched.
        assert!(o
            .backhaul_requests()
            .iter()
            .all(|r| r.min_bitrate_bps == DEMAND_BPS));
    }
}
