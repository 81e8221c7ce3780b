//! The in-band mesh: BATMAN over the established radio links
//! ([`tssdn_manet`]). Every platform is a node and every ground
//! station a gateway; a balloon is in-band — reachable by the
//! controller without satcom — while BATMAN routes it to a gateway
//! with a tunnel.

use super::Orchestrator;
use tssdn_manet::BatmanMesh;
use tssdn_sim::{Fleet, PlatformId, RngStreams};

pub(super) struct Mesh {
    /// Compiled in `tssdn-manet`, not here: edits to this crate cannot
    /// change how the flood is optimised.
    manet: BatmanMesh,
}

impl Mesh {
    pub(super) fn new(fleet: &Fleet, streams: &RngStreams) -> Self {
        let gateways: Vec<PlatformId> = fleet.ground_stations.iter().map(|g| g.id).collect();
        let nodes: Vec<PlatformId> = fleet.platform_ids().map(|(id, _)| id).collect();
        Mesh {
            manet: BatmanMesh::new(streams, &gateways, &nodes),
        }
    }

    /// A radio link established: the mesh edge appears.
    pub(super) fn link_up(&mut self, a: PlatformId, b: PlatformId, quality: f64) {
        self.manet.set_link(a, b, quality);
    }

    /// A radio link ended: the mesh edge goes.
    pub(super) fn link_down(&mut self, a: PlatformId, b: PlatformId) {
        self.manet.remove_link(a, b);
    }
}

impl Orchestrator {
    /// Stage `update_mesh`: LoRa coverage, the BATMAN flood up to
    /// `now`, each node's in-band session with the controller, and the
    /// side-channel confirmations in-band balloons offer.
    pub(super) fn update_mesh(&mut self) {
        let n_balloons = self.truth.fleet().balloons.len() as u32;
        // LoRa coverage: a balloon within 350 km ground range of any
        // GS site can hear the one-hop bootstrap channel.
        if self.config.cdpi.lora_enabled {
            for id in (0..n_balloons).map(PlatformId) {
                let fleet = self.truth.fleet();
                let pos = fleet.position(id);
                let covered = self.effectively_powered(id)
                    && fleet
                        .ground_stations
                        .iter()
                        .any(|g| g.pos.ground_distance_m(&pos) <= 350_000.0);
                self.cdpi.lora.set_covered(id, covered);
            }
        }
        self.mesh.manet.run_until(self.now);
        // Ground stations are wired to the controller (unless their
        // site is dark).
        for i in 0..self.truth.fleet().ground_stations.len() {
            let gs = self.truth.fleet().ground_stations[i].id;
            if self.chaos.gs_dark(gs) || self.chaos.inband_partitioned(gs) {
                self.cdpi.node_disconnected_inband(gs);
                continue;
            }
            for e in self.cdpi.node_connected_inband(gs, 0, self.now) {
                self.handle_cpl_event(e);
            }
        }
        self.enactment.prune_confirm_stores(&self.intents);
        // Balloons: reachable when BATMAN routes them to a gateway.
        for b in (0..n_balloons).map(PlatformId) {
            // In-band means powered, not partitioned (an in-band
            // partition severs the node's control-plane session without
            // touching the radio links beneath it — the pure
            // fail-static case), and routed by BATMAN to a gateway with
            // a tunnel. One walk of the next-hop chain answers both
            // "does the route work" and "how many hops".
            let session_up = self.effectively_powered(b) && !self.chaos.inband_partitioned(b);
            let manet = &self.mesh.manet;
            let hops = manet
                .selected_gateway(b)
                .filter(|g| session_up && !self.tunnels.ecs_of(*g).is_empty())
                .and_then(|g| manet.route_hops(b, g));
            let Some(hops) = hops else {
                self.cdpi.node_disconnected_inband(b);
                continue;
            };
            for e in self.cdpi.node_connected_inband(b, hops, self.now) {
                self.handle_cpl_event(e);
            }
            // Side channel: an in-band balloon confirms its established
            // link intents.
            for c in self.enactment.take_offers(&self.intents, b) {
                if let Some(e) = self.cdpi.confirm_intent(c, self.now) {
                    self.handle_cpl_event(e);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::OrchestratorConfig;
    use super::*;
    use tssdn_sim::SimTime;

    #[test]
    fn the_cdpi_lora_switch_alone_brings_balloons_under_coverage() {
        let mut cfg = OrchestratorConfig::kenya(6, 42);
        cfg.fleet.spawn_radius_m = 150_000.0;
        cfg.cdpi.lora_enabled = true;
        let mut o = Orchestrator::new(cfg);
        o.run_until(SimTime::from_hours(10));
        assert!(o.cdpi.lora.is_covered(PlatformId(0)));
    }
}
