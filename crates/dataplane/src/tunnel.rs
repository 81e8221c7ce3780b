//! IPsec-like overlay tunnels between ground stations and edge
//! compute pods.
//!
//! "Ground stations acted as gateways between the balloon mesh and
//! wired backhaul networks, multiplexing IPv6 traffic ... using an
//! overlay of encrypted tunnels" (§2.1); "IPsec tunnels were
//! configured between Ground Stations and EC pods" (Appendix C).
//! Appendix D stresses that the SDN "did not program a fully connected
//! mesh of O(n²) IPsec tunnels", which made EC reachability depend on
//! choosing a GS whose tunnel actually exists — this registry is what
//! that choice consults.

use std::collections::BTreeMap;
use tssdn_sim::PlatformId;

/// Identifier of a GS↔EC tunnel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TunnelId(pub u32);

#[derive(Debug, Clone, Copy)]
struct Tunnel {
    gs: PlatformId,
    ec: PlatformId,
    up: bool,
}

/// All provisioned GS↔EC tunnels.
#[derive(Debug, Clone, Default)]
pub struct TunnelRegistry {
    tunnels: BTreeMap<TunnelId, Tunnel>,
    next: u32,
}

impl TunnelRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Establish (or return the existing) tunnel between `gs` and
    /// `ec`.
    pub fn establish(&mut self, gs: PlatformId, ec: PlatformId) -> TunnelId {
        if let Some((id, _)) = self.tunnels.iter().find(|(_, t)| t.gs == gs && t.ec == ec) {
            let id = *id;
            self.tunnels.get_mut(&id).expect("exists").up = true;
            return id;
        }
        let id = TunnelId(self.next);
        self.next += 1;
        self.tunnels.insert(id, Tunnel { gs, ec, up: true });
        id
    }

    /// Mark a tunnel down (wired backhaul outage).
    pub fn set_down(&mut self, id: TunnelId) {
        if let Some(t) = self.tunnels.get_mut(&id) {
            t.up = false;
        }
    }

    /// Whether an *up* tunnel connects `gs` to `ec`.
    pub fn connected(&self, gs: PlatformId, ec: PlatformId) -> bool {
        self.tunnels
            .values()
            .any(|t| t.gs == gs && t.ec == ec && t.up)
    }

    /// The EC pods reachable from `gs` over up tunnels.
    pub fn ecs_of(&self, gs: PlatformId) -> Vec<PlatformId> {
        self.tunnels
            .values()
            .filter(|t| t.gs == gs && t.up)
            .map(|t| t.ec)
            .collect()
    }

    /// The ground stations with an up tunnel to `ec`.
    pub fn gateways_to(&self, ec: PlatformId) -> Vec<PlatformId> {
        self.tunnels
            .values()
            .filter(|t| t.ec == ec && t.up)
            .map(|t| t.gs)
            .collect()
    }

    /// Number of provisioned tunnels (up or down).
    pub fn len(&self) -> usize {
        self.tunnels.len()
    }

    /// True when no tunnels are provisioned.
    pub fn is_empty(&self) -> bool {
        self.tunnels.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pid(i: u32) -> PlatformId {
        PlatformId(i)
    }

    #[test]
    fn establish_is_idempotent() {
        let mut r = TunnelRegistry::new();
        let a = r.establish(pid(100), pid(200));
        let b = r.establish(pid(100), pid(200));
        assert_eq!(a, b);
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn connectivity_is_directional_pairing() {
        let mut r = TunnelRegistry::new();
        r.establish(pid(100), pid(200));
        assert!(r.connected(pid(100), pid(200)));
        assert!(
            !r.connected(pid(101), pid(200)),
            "not O(n²): other GS has no tunnel"
        );
        assert!(!r.connected(pid(100), pid(201)));
    }

    #[test]
    fn down_tunnels_do_not_connect() {
        let mut r = TunnelRegistry::new();
        let id = r.establish(pid(100), pid(200));
        r.set_down(id);
        assert!(!r.connected(pid(100), pid(200)));
        // Re-establish brings it back up.
        r.establish(pid(100), pid(200));
        assert!(r.connected(pid(100), pid(200)));
    }

    #[test]
    fn gateway_and_ec_listings() {
        let mut r = TunnelRegistry::new();
        r.establish(pid(100), pid(200));
        r.establish(pid(100), pid(201));
        r.establish(pid(101), pid(200));
        assert_eq!(r.ecs_of(pid(100)), vec![pid(200), pid(201)]);
        assert_eq!(r.gateways_to(pid(200)), vec![pid(100), pid(101)]);
        assert_eq!(r.gateways_to(pid(999)), Vec::<PlatformId>::new());
    }
}
