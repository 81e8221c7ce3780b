//! Route programming: the controller's side of the source-destination
//! forwarding state. Which path each backhaul flow was last programmed
//! with on each [`Plane`], the SetRoutes programs still in flight over
//! the control plane, and the queries that ask whether what is in the
//! fabric still forwards. Programs are applied per node as each
//! command arrives — the paper's actuation "lacked the sequencing of
//! updates to avoid temporary routing blackholes", and so does this
//! one, deliberately.

use super::route_search::{route_over, RouteGraph};
use super::{Flow, Orchestrator, UpLinks};
use crate::intent::{IntentStore, LinkIntentState};
use std::collections::{BTreeMap, BTreeSet};
use tssdn_cpl::{CdpiFrontend, CommandBody};
use tssdn_dataplane::{
    BackhaulRequest, NodePrefix, Plane, PrefixAllocator, RouteEntry, RouteTable, RoutingFabric,
    TunnelRegistry,
};
use tssdn_sim::{PlatformId, SimTime};

/// A route program in flight: the flow, its full primary node path
/// (EC included), and the flow's *complete* desired alternate-plane
/// state — `Some(path)` to (re)install that alternate, `None` when no
/// alternate should exist. One program always declares both planes:
/// alternates ride the primary's SetRoutes intent rather than a
/// separate one, so they can neither lag the primary through the
/// satcom bootstrap queue nor survive a plan that dropped them.
type RouteProgram = (Flow, Vec<PlatformId>, Option<Vec<PlatformId>>);

pub(super) struct Routes {
    /// Platform ids are dense: `0..n_platforms`, balloons first.
    n_platforms: u32,
    prefixes: PrefixAllocator,
    /// The one EC pod every backhaul flow terminates at.
    ec: PlatformId,
    /// Programs submitted and not yet confirmed or expired, by cpl
    /// intent id.
    pending: BTreeMap<u64, RouteProgram>,
    version: u64,
    /// Last confirmed path per flow, indexed by [`Plane`].
    programmed: [BTreeMap<Flow, Vec<PlatformId>>; 2],
}

impl Routes {
    /// The EC pod takes the id after the fleet's; it and every platform
    /// get their prefix here, the EC first.
    pub(super) fn new(n_platforms: u32) -> Self {
        let mut prefixes = PrefixAllocator::loon_default();
        let ec = PlatformId(n_platforms);
        for id in [ec].into_iter().chain((0..n_platforms).map(PlatformId)) {
            prefixes.prefix_for(id);
        }
        Routes {
            n_platforms,
            prefixes,
            ec,
            pending: BTreeMap::new(),
            version: 0,
            programmed: Default::default(),
        }
    }

    pub(super) fn ec(&self) -> PlatformId {
        self.ec
    }

    fn platforms(&self) -> impl Iterator<Item = PlatformId> {
        (0..self.n_platforms).map(PlatformId)
    }

    /// The flow's `(source, destination)` prefixes; `None` when either
    /// end is an id no prefix was ever allocated to.
    pub(super) fn prefix_pair(&self, flow: Flow) -> Option<(NodePrefix, NodePrefix)> {
        Some((self.prefixes.get(flow.0)?, self.prefixes.get(flow.1)?))
    }

    /// [`Self::prefix_pair`] for a flow this part itself programmed: a
    /// miss is a bug, and the caller skips the flow (fail-static).
    fn own_prefix_pair(&self, flow: Flow) -> Option<(NodePrefix, NodePrefix)> {
        let pair = self.prefix_pair(flow);
        debug_assert!(pair.is_some(), "route program for unaddressed {flow:?}");
        pair
    }

    /// Program routes over the *installed* topology — "route and
    /// tunnel intents were emitted on top of the installed topology"
    /// (Appendix B). Routes keep using links whose withdrawal is in
    /// flight: the deployed actuation "lacked the sequencing of
    /// updates to avoid temporary routing blackholes", so a planned
    /// teardown briefly breaks routes until the (event-driven,
    /// fast-because-anticipated) reroute lands — which is why
    /// withdrawn-link breaks recover faster than surprise failures
    /// (Figure 8). Called from the solve cycle and whenever the
    /// controller learns the installed topology changed (the §4.2
    /// side channel exists precisely so the TS-SDN can "proceed to
    /// program routes" the moment a link comes up).
    pub(super) fn program(
        &mut self,
        requests: &[BackhaulRequest],
        intents: &IntentStore,
        tunnels: &TunnelRegistry,
        cdpi: &mut CdpiFrontend,
        multipath: bool,
        now: SimTime,
    ) {
        // Strictly the controller's *belief*: links it thinks are up.
        // A surprise failure keeps polluting route programs until the
        // detection delay elapses — the controller must never read
        // physical truth directly.
        let durable: BTreeSet<(PlatformId, PlatformId)> = intents
            .live()
            .filter(|i| {
                matches!(
                    i.state,
                    LinkIntentState::Established { .. } | LinkIntentState::WithdrawRequested { .. }
                )
            })
            .map(|i| {
                let (x, y) = (i.link.a.platform, i.link.b.platform);
                (x.min(y), x.max(y))
            })
            .collect();
        // One adjacency for the whole program: every request's
        // primary and alternate search it.
        let graph = RouteGraph::new(&durable);
        for req in requests {
            let (node, ec) = (req.node, req.ec);
            let flow = (node, ec);
            let gws = tunnels.gateways_to(ec);
            let Some(path) = route_over(&graph, node, &gws, &[]) else {
                continue;
            };
            let mut full = path.clone();
            full.push(ec);

            // Edge-disjoint alternate: search the same adjacency with
            // the primary's radio edges left out. When the redundancy
            // pass gave the site a second established route, this
            // finds it; the traffic engine then splits the site's bulk
            // load across both planes. `None` means the plan carries
            // no alternate — the program will then withdraw whatever
            // the alt plane still holds.
            let desired_alt: Option<Vec<PlatformId>> = if multipath {
                let primary_edges: Vec<(PlatformId, PlatformId)> = path
                    .windows(2)
                    .map(|w| (w[0].min(w[1]), w[0].max(w[1])))
                    .collect();
                route_over(&graph, node, &gws, &primary_edges)
                    .map(|mut alt| {
                        alt.push(ec);
                        alt
                    })
                    .filter(|alt| *alt != full)
            } else {
                None
            };

            let current = |plane: Plane| self.programmed[plane as usize].get(&flow);
            if current(Plane::Primary) == Some(&full) && current(Plane::Alt) == desired_alt.as_ref()
            {
                continue;
            }
            if self.in_flight(flow) {
                continue;
            }
            // One program, two planes: the alternate rides the
            // primary's SetRoutes intent, so it can never lag the
            // primary through the satcom bootstrap queue.
            self.submit(cdpi, now, (flow, full, desired_alt));
        }
    }

    /// Whether a program for `flow` is awaiting confirmation.
    fn in_flight(&self, flow: Flow) -> bool {
        self.pending.values().any(|(f, _, _)| *f == flow)
    }

    /// Submit one SetRoutes program (primary + complete alt-plane
    /// state) over the control plane and track it until confirmation.
    fn submit(&mut self, cdpi: &mut CdpiFrontend, now: SimTime, program: RouteProgram) {
        let (_, full, alt) = &program;
        self.version += 1;
        let mut targets: Vec<PlatformId> =
            full.iter().filter(|&&n| n != self.ec).copied().collect();
        for n in alt.iter().flatten() {
            if *n != self.ec && !targets.contains(n) {
                targets.push(*n);
            }
        }
        let entries = (full.len() + alt.as_ref().map_or(0, |a| a.len())) as u16;
        let parts: Vec<(PlatformId, CommandBody)> = targets
            .into_iter()
            .map(|n| {
                (
                    n,
                    CommandBody::SetRoutes {
                        version: self.version,
                        entries,
                    },
                )
            })
            .collect();
        let (cpl_id, _) = cdpi.submit_intent(parts, now);
        self.pending.insert(cpl_id, program);
    }

    /// A SetRoutes command reached `dest`: per-node application of the
    /// pending program that names it (no global sequencing — the
    /// paper's admitted blackhole window).
    pub(super) fn delivered(&self, fabric: &mut RoutingFabric, dest: PlatformId, version: u64) {
        let names_dest = |(_, path, alt): &&RouteProgram| {
            path.contains(&dest) || alt.as_ref().is_some_and(|a| a.contains(&dest))
        };
        if let Some((flow, path, alt)) = self.pending.values().find(names_dest) {
            self.apply_node_routes(fabric, dest, version, *flow, path, alt.as_deref());
        }
    }

    /// Apply one node's share of a combined route program: its primary
    /// hops (when it sits on the primary path) and its alternate-plane
    /// state — install hops when it sits on the program's alternate,
    /// or remove the flow's alt entries when the program carries none.
    fn apply_node_routes(
        &self,
        fabric: &mut RoutingFabric,
        node: PlatformId,
        version: u64,
        flow: Flow,
        path: &[PlatformId],
        alt: Option<&[PlatformId]>,
    ) {
        let Some((src, dst)) = self.own_prefix_pair(flow) else {
            return;
        };
        let install_hops = |t: &mut RouteTable, plane: Plane, p: &[PlatformId], idx: usize| {
            if idx + 1 < p.len() {
                let next_hop = p[idx + 1];
                t.install(plane, RouteEntry { src, dst, next_hop });
            }
            if idx > 0 {
                let next_hop = p[idx - 1];
                let reverse = RouteEntry {
                    src: dst,
                    dst: src,
                    next_hop,
                };
                t.install(plane, reverse);
            }
            t.set_version(plane, version);
        };
        let t = fabric.table_mut(node);
        // Stale-version guards: a reordered or long-delayed SetRoutes
        // must not clobber a newer program already applied here. The
        // guard stays per plane even though both planes ride one
        // intent: historical tables can carry different per-plane
        // versions (node resets zero both; older split programs
        // stamped them independently), so each plane checks and
        // stamps its own watermark.
        if let Some(idx) = path.iter().position(|n| *n == node) {
            if version >= t.version(Plane::Primary) {
                install_hops(t, Plane::Primary, path, idx);
            }
        }
        if version >= t.version(Plane::Alt) {
            match alt {
                Some(ap) => {
                    if let Some(idx) = ap.iter().position(|n| *n == node) {
                        install_hops(t, Plane::Alt, ap, idx);
                    }
                }
                None => {
                    // The program declares "no alternate": this node
                    // drops whatever it still holds for the flow.
                    t.remove(Plane::Alt, src, dst);
                    t.remove(Plane::Alt, dst, src);
                    t.set_version(Plane::Alt, version);
                }
            }
        }
    }

    /// Control-plane confirmation of cpl intent `cpl_id`. `None` when
    /// it is not a route program; otherwise the program is fully
    /// applied and `Some(carried_alt)`. Each plane then cleans the
    /// flow's stale entries off the nodes that left its path (the
    /// route-deletion commands ride the same program) and only its
    /// own, so the alternate half of a program never disturbs the
    /// primary route and vice versa. A plane the program carries no
    /// path for — redundancy loss: the plan dropped the alternate — is
    /// withdrawn everywhere, so it cannot keep forwarding onto links
    /// the planner no longer believes in.
    pub(super) fn confirmed(&mut self, fabric: &mut RoutingFabric, cpl_id: u64) -> Option<bool> {
        let (flow, path, alt) = self.pending.remove(&cpl_id)?;
        let carried_alt = alt.is_some();
        let Some((src, dst)) = self.own_prefix_pair(flow) else {
            return Some(carried_alt);
        };
        for (plane, on_plane) in [(Plane::Primary, Some(&path)), (Plane::Alt, alt.as_ref())] {
            let Some(on_plane) = on_plane else {
                fabric.withdraw_flow_on(plane, src, dst);
                continue;
            };
            for node in self.platforms().filter(|id| !on_plane.contains(id)) {
                let Some(t) = fabric.table(node) else {
                    continue;
                };
                if t.lookup(plane, src, dst).is_some() || t.lookup(plane, dst, src).is_some() {
                    let t = fabric.table_mut(node);
                    t.remove(plane, src, dst);
                    t.remove(plane, dst, src);
                }
            }
        }
        match alt {
            Some(alt) => self.programmed[Plane::Alt as usize].insert(flow, alt),
            None => self.programmed[Plane::Alt as usize].remove(&flow),
        };
        self.programmed[Plane::Primary as usize].insert(flow, path);
        Some(carried_alt)
    }

    /// The control plane gave up on cpl intent `cpl_id`.
    pub(super) fn expired(&mut self, cpl_id: u64) {
        self.pending.remove(&cpl_id);
    }

    /// Whether a primary program ever completed for balloon `b`.
    pub(super) fn was_programmed(&self, b: PlatformId) -> bool {
        self.programmed_primary(b).is_some()
    }

    /// The primary path last confirmed for balloon `b`'s flow.
    pub(super) fn programmed_primary(&self, b: PlatformId) -> Option<&Vec<PlatformId>> {
        self.programmed[Plane::Primary as usize]
            .iter()
            .find(|((n, _), _)| *n == b)
            .map(|(_, p)| p)
    }

    /// The currently-working path on `plane` for balloon `b`'s flow:
    /// what the fabric holds, traced end-to-end over `up` radio links
    /// and connected tunnels.
    pub(super) fn active_path_on(
        &self,
        plane: Plane,
        fabric: &RoutingFabric,
        tunnels: &TunnelRegistry,
        up: &UpLinks,
        b: PlatformId,
    ) -> Option<Vec<PlatformId>> {
        let ec = self.ec;
        let (src, dst) = self.prefix_pair((b, ec))?;
        // A packet at `x` can take the hop to `y` over a connected
        // tunnel when `y` is an EC, over an established radio link
        // otherwise.
        fabric.trace_flow(plane, src, dst, b, ec, |x, y| {
            if y == ec {
                tunnels.connected(x, y)
            } else {
                up.contains(&(x.min(y), x.max(y)))
            }
        })
    }

    /// Flows whose alt plane still holds fabric entries even though
    /// the controller believes no alternate is programmed and no
    /// program is in flight that would fix it.
    fn stale_alt_flows(&self, requests: &[BackhaulRequest], fabric: &RoutingFabric) -> Vec<Flow> {
        let mut out = Vec::new();
        for req in requests {
            let flow = (req.node, req.ec);
            if self.programmed[Plane::Alt as usize].contains_key(&flow) || self.in_flight(flow) {
                continue;
            }
            let Some((src, dst)) = self.prefix_pair(flow) else {
                continue;
            };
            let lingering = self.platforms().any(|id| {
                fabric.table(id).is_some_and(|t| {
                    t.lookup(Plane::Alt, src, dst).is_some()
                        || t.lookup(Plane::Alt, dst, src).is_some()
                })
            });
            if lingering {
                out.push(flow);
            }
        }
        out
    }
}

impl Orchestrator {
    /// EC pod ids: the one pod every backhaul flow terminates at.
    pub fn ec_ids(&self) -> &[PlatformId] {
        std::slice::from_ref(&self.routes.ec)
    }

    /// (Re)program routes over the topology the controller believes
    /// is installed.
    pub(super) fn program_routes(&mut self) {
        self.routes.program(
            self.planner.requests(),
            &self.intents,
            &self.tunnels,
            &mut self.cdpi,
            self.config.multipath_routes,
            self.now,
        );
    }

    /// Cpl intent `cpl_id` was confirmed; returns whether it was a
    /// route program.
    pub(super) fn route_program_confirmed(&mut self, cpl_id: u64) -> bool {
        let carried_alt = self.routes.confirmed(&mut self.fabric, cpl_id);
        if carried_alt == Some(true) {
            self.alt_programs_piggybacked += 1;
        }
        carried_alt.is_some()
    }

    /// The currently-working data-plane path for a balloon's flow, if
    /// its programmed route traces end-to-end over up links. Builds
    /// the up-link set for this one question; the probe cadence asks
    /// it of every balloon and uses `active_path_on`.
    pub fn active_path(&self, b: PlatformId) -> Option<Vec<PlatformId>> {
        self.active_path_on(Plane::Primary, b, &self.enactment.up_links())
    }

    /// The currently-working *alternate* data-plane path for a
    /// balloon's flow, if an alt route was programmed and traces
    /// end-to-end over up links.
    pub fn active_alt_path(&self, b: PlatformId) -> Option<Vec<PlatformId>> {
        self.active_path_on(Plane::Alt, b, &self.enactment.up_links())
    }

    /// [`Self::active_path`] / [`Self::active_alt_path`] against an
    /// up-link set the caller built.
    pub(super) fn active_path_on(
        &self,
        plane: Plane,
        b: PlatformId,
        up: &UpLinks,
    ) -> Option<Vec<PlatformId>> {
        self.routes
            .active_path_on(plane, &self.fabric, &self.tunnels, up, b)
    }

    /// Flows whose alt plane still holds fabric entries even though
    /// the controller believes no alternate is programmed and no
    /// program is in flight that would fix it — i.e. genuinely stale
    /// alternates the withdrawal pass should have cleaned. Transients
    /// (an in-flight program) are excluded; the chaos soak asserts
    /// this settles to empty at end of run.
    pub fn stale_alt_flows(&self) -> Vec<(PlatformId, PlatformId)> {
        self.routes
            .stale_alt_flows(self.planner.requests(), &self.fabric)
    }
}

#[cfg(test)]
pub(super) mod tests {
    use super::super::tests::{b2g_candidate, small};
    use super::*;
    use tssdn_cpl::{CdpiConfig, CdpiEvent};
    use tssdn_sim::{RngStreams, SimDuration};

    pub(in crate::orchestrator) fn data_plane_routes_get_programmed() {
        let mut o = small();
        o.run_until(SimTime::from_hours(12));
        let dp = o.availability.overall(tssdn_telemetry::Layer::DataPlane);
        assert!(
            dp.map(|a| a > 0.1).unwrap_or(false),
            "some data-plane availability by noon: {dp:?}"
        );
        let programmed = &o.routes.programmed[Plane::Primary as usize];
        assert!(!programmed.is_empty(), "paths programmed");
    }

    pub(in crate::orchestrator) fn multipath_programs_alt_routes_when_redundancy_exists() {
        let mut cfg = super::super::OrchestratorConfig::kenya(6, 42);
        cfg.fleet.spawn_radius_m = 150_000.0;
        cfg.multipath_routes = true;
        let mut o = Orchestrator::new(cfg);
        o.run_until(SimTime::from_hours(12));
        let [programmed_paths, programmed_alt_paths] = &o.routes.programmed;
        assert!(
            !programmed_alt_paths.is_empty(),
            "edge-disjoint alternates programmed by noon"
        );
        // Every alt differs from the primary for the same flow.
        for (flow, alt) in programmed_alt_paths {
            assert_ne!(
                Some(alt),
                programmed_paths.get(flow),
                "alt distinct for {flow:?}"
            );
        }
        // At least one balloon's alternate actually traces end-to-end.
        let live = (0..o.num_balloons() as u32)
            .map(PlatformId)
            .filter(|b| o.active_alt_path(*b).is_some())
            .count();
        assert!(live > 0, "some alt path traces over up links");

        // With multipath routing off (the default), no alt programs
        // are issued.
        let mut off = small();
        off.run_until(SimTime::from_hours(12));
        let [programmed_paths, programmed_alt_paths] = &off.routes.programmed;
        assert!(programmed_alt_paths.is_empty());
        assert!(!programmed_paths.is_empty());
    }

    /// Nine platforms and one EC, as `small()` has them, and the flow
    /// of balloon 0 over relay 1 (primary) or relay 2 (alternate).
    fn flow_over_two_relays() -> (Routes, Flow, Vec<PlatformId>, Vec<PlatformId>) {
        let routes = Routes::new(9);
        let ec = routes.ec;
        let (b, mid, other) = (PlatformId(0), PlatformId(1), PlatformId(2));
        (routes, (b, ec), vec![b, mid, ec], vec![b, other, ec])
    }

    pub(in crate::orchestrator) fn combined_program_guards_each_plane_independently() {
        // Both planes ride one SetRoutes intent now, but commands from
        // *successive* programs can still land out of order, and
        // historical tables carry independent per-plane watermarks.
        // Each plane must check and stamp its own version.
        let (routes, flow, path, alt) = flow_over_two_relays();
        let (b, mid, other, ec) = (path[0], path[1], alt[1], flow.1);
        let mut fabric = RoutingFabric::new();
        // One program, two planes: each node applies its share.
        routes.apply_node_routes(&mut fabric, mid, 2, flow, &path, Some(&alt[..]));
        routes.apply_node_routes(&mut fabric, other, 2, flow, &path, Some(&alt[..]));
        let (src, dst) = routes.prefix_pair(flow).unwrap();
        let lookup = |fabric: &RoutingFabric, node, plane| {
            fabric.table(node).expect("table").lookup(plane, src, dst)
        };
        let version =
            |fabric: &RoutingFabric, node, plane| fabric.table(node).expect("table").version(plane);
        assert_eq!(
            lookup(&fabric, mid, Plane::Primary),
            Some(ec),
            "primary installed at its relay"
        );
        assert_eq!(
            lookup(&fabric, other, Plane::Alt),
            Some(ec),
            "alt installed at its relay"
        );
        assert_eq!(version(&fabric, mid, Plane::Primary), 2);
        assert_eq!(version(&fabric, other, Plane::Alt), 2);
        // A long-delayed older program carrying no alternate must not
        // tear the newer alt plane down.
        let direct = vec![b, ec];
        routes.apply_node_routes(&mut fabric, other, 1, flow, &direct, None);
        assert_eq!(
            lookup(&fabric, other, Plane::Alt),
            Some(ec),
            "stale alt-withdrawal dropped"
        );
        // Per-plane guard on the source node: a stale program must
        // clobber neither the newer primary nor the newer alt.
        routes.apply_node_routes(&mut fabric, b, 3, flow, &path, Some(&alt[..]));
        routes.apply_node_routes(&mut fabric, b, 2, flow, &direct, None);
        assert_eq!(
            lookup(&fabric, b, Plane::Primary),
            Some(mid),
            "stale primary dropped"
        );
        assert_eq!(
            lookup(&fabric, b, Plane::Alt),
            Some(other),
            "stale alt-withdrawal dropped at source"
        );
        assert_eq!(version(&fabric, b, Plane::Primary), 3);
        // A *newer* no-alternate program does withdraw the node's alt.
        routes.apply_node_routes(&mut fabric, other, 4, flow, &direct, None);
        assert_eq!(
            lookup(&fabric, other, Plane::Alt),
            None,
            "newer withdrawal lands"
        );
        assert_eq!(version(&fabric, other, Plane::Alt), 4);
    }

    pub(in crate::orchestrator) fn redundancy_loss_withdraws_the_alt_plane() {
        // A confirmed program whose alternate is `None` must wipe the
        // flow's alt-plane entries fleet-wide — the planner no longer
        // believes in that path, so the alt plane must stop forwarding
        // onto it.
        let mut o = small();
        let ec = o.routes.ec;
        let (b, mid, other) = (PlatformId(0), PlatformId(1), PlatformId(2));
        let flow = (b, ec);
        let (src, dst) = o.routes.prefix_pair(flow).unwrap();
        let primary = vec![b, mid, ec];
        let alt = vec![b, other, ec];
        o.fabric.program_path(Plane::Primary, src, dst, &primary, 1);
        o.fabric.program_path(Plane::Alt, src, dst, &alt, 1);
        o.routes.programmed[Plane::Alt as usize].insert(flow, alt.clone());
        assert!(!o.stale_alt_flows().contains(&flow), "alt is believed-in");
        // The next plan keeps the flow but drops its alternate.
        o.routes.pending.insert(99, (flow, primary.clone(), None));
        o.handle_cpl_event(CdpiEvent::IntentConfirmed {
            intent_id: 99,
            kind: tssdn_cpl::IntentKind::Route,
            at: o.now(),
            elapsed: SimDuration::from_secs(1),
        });
        assert!(
            o.fabric
                .trace_flow(Plane::Alt, src, dst, b, ec, |_, _| true)
                .is_none(),
            "alt plane withdrawn end-to-end"
        );
        assert!(
            o.fabric
                .table(other)
                .is_none_or(|t| t.lookup(Plane::Alt, src, dst).is_none()),
            "relay's alt entry gone"
        );
        assert!(!o.routes.programmed[Plane::Alt as usize].contains_key(&flow));
        // The primary survives untouched.
        assert_eq!(
            o.fabric
                .trace_flow(Plane::Primary, src, dst, b, ec, |_, _| true),
            Some(primary.clone()),
        );
        assert!(!o.stale_alt_flows().contains(&flow), "nothing lingers");
    }

    /// Every table's entries and watermark on `plane`, by node id.
    fn plane_state(fabric: &RoutingFabric, plane: Plane) -> Vec<(Vec<RouteEntry>, u64)> {
        let tables = (0..10).filter_map(|n| fabric.table(PlatformId(n)));
        tables
            .map(|t| (t.entries(plane).collect(), t.version(plane)))
            .collect()
    }

    #[test]
    fn stale_version_set_routes_installs_nothing_on_either_plane() {
        let (mut routes, flow, path, alt) = flow_over_two_relays();
        let (b, mid, other, ec) = (path[0], path[1], alt[1], flow.1);
        let mut fabric = RoutingFabric::new();
        routes
            .pending
            .insert(1, (flow, path.clone(), Some(alt.clone())));
        for node in [b, mid, other] {
            routes.delivered(&mut fabric, node, 5);
        }
        routes.confirmed(&mut fabric, 1);
        let state = |f: &RoutingFabric| Plane::ALL.map(|plane| plane_state(f, plane));
        let before = state(&fabric);
        let stamped = |(entries, v): &&(Vec<RouteEntry>, u64)| !entries.is_empty() && *v == 5;
        assert_eq!(before.iter().flatten().filter(stamped).count(), 4);
        // An older program for the same flow, detouring both planes
        // behind the same relays, arrives late everywhere.
        let detour = |relay, via| vec![b, relay, PlatformId(via), ec];
        let stale = (flow, detour(mid, 3), Some(detour(other, 4)));
        routes.pending.insert(2, stale);
        for node in [b, mid, other] {
            routes.delivered(&mut fabric, node, 4);
        }
        assert_eq!(state(&fabric), before);
        // So does one that declares no alternate: it removes nothing
        // either, on the nodes whose alt plane the newer one stamped.
        routes.pending.insert(2, (flow, detour(mid, 3), None));
        for node in [b, other] {
            routes.delivered(&mut fabric, node, 4);
        }
        assert_eq!(state(&fabric), before);
    }

    #[test]
    fn flow_with_a_program_in_flight_is_not_resubmitted() {
        let (mut routes, flow, _, _) = flow_over_two_relays();
        let (b, ec, gs) = (flow.0, flow.1, PlatformId(6));
        let now = SimTime::from_hours(10);
        let mut intents = IntentStore::new();
        let iid = intents.create(b2g_candidate(b, gs), now);
        intents.set_state(iid, LinkIntentState::Established { at: now });
        let mut tunnels = TunnelRegistry::new();
        tunnels.establish(gs, ec);
        let mut cdpi = CdpiFrontend::new(CdpiConfig::default(), &RngStreams::new(1));
        let requests = [BackhaulRequest {
            node: b,
            ec,
            min_bitrate_bps: 1,
        }];
        let mut program = |routes: &mut Routes| {
            routes.program(&requests, &intents, &tunnels, &mut cdpi, true, now);
            (routes.version, routes.pending.len())
        };
        assert_eq!(program(&mut routes), (1, 1), "first call submits");
        assert_eq!(program(&mut routes), (1, 1), "in flight: not again");
        let cpl_id = *routes.pending.keys().next().expect("one pending");
        assert_eq!(routes.pending[&cpl_id], (flow, vec![b, gs, ec], None));
        // Confirmed and still current: nothing to submit either.
        let mut fabric = RoutingFabric::new();
        assert_eq!(routes.confirmed(&mut fabric, cpl_id), Some(false));
        assert_eq!(program(&mut routes), (1, 0), "programmed path is current");
        // A program that expired instead leaves the flow unprogrammed
        // and free to be submitted again.
        routes.programmed = Default::default();
        assert_eq!(program(&mut routes), (2, 1));
        let cpl_id = *routes.pending.keys().next().expect("one pending");
        routes.expired(cpl_id);
        assert_eq!(program(&mut routes), (3, 1), "resubmitted after expiry");
    }

    #[test]
    fn no_alternate_withdraws_only_the_alt_plane() {
        let (mut routes, flow, path, alt) = flow_over_two_relays();
        let (b, ec) = flow;
        let (src, dst) = routes.prefix_pair(flow).unwrap();
        let mut fabric = RoutingFabric::new();
        fabric.program_path(Plane::Primary, src, dst, &path, 1);
        fabric.program_path(Plane::Alt, src, dst, &alt, 1);
        let primary_entries = |f: &RoutingFabric| {
            let state = plane_state(f, Plane::Primary);
            state.into_iter().map(|(e, _)| e).collect::<Vec<_>>()
        };
        let before = primary_entries(&fabric);
        // One node hears of it first: only its alt entries go.
        routes.apply_node_routes(&mut fabric, b, 2, flow, &path, None);
        assert_eq!(fabric.table(b).expect("table").alt_len(), 0);
        assert!(fabric.table(alt[1]).expect("table").alt_len() > 0);
        // Confirmation withdraws the plane everywhere, and only it.
        routes.pending.insert(7, (flow, path.clone(), None));
        assert_eq!(routes.confirmed(&mut fabric, 7), Some(false));
        let trace = |plane| fabric.trace_flow(plane, src, dst, b, ec, |_, _| true);
        assert_eq!(trace(Plane::Alt), None);
        assert_eq!(trace(Plane::Primary), Some(path));
        assert!(plane_state(&fabric, Plane::Alt)
            .iter()
            .all(|(entries, _)| entries.is_empty()));
        assert_eq!(primary_entries(&fabric), before);
    }
}
