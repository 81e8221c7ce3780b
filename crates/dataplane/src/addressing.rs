//! IPv6 /64 prefix allocation.
//!
//! "Each node in the Loon network was assigned its own global unicast
//! IPv6 /64 prefix and all addressable services associated with the
//! node were numbered from within this prefix" (Appendix C). We carve
//! node prefixes out of a documentation ULA-style /48 and number
//! services (control-plane agent, eNodeBs, VNFs) as interface ids.

use std::collections::BTreeMap;
use std::net::Ipv6Addr;
use tssdn_sim::PlatformId;

/// A /64 prefix assigned to one node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodePrefix {
    /// The upper 64 bits of the prefix.
    pub bits: u64,
}

impl NodePrefix {
    /// Whether `addr` falls inside this /64.
    pub fn contains(&self, addr: Ipv6Addr) -> bool {
        (u128::from(addr) >> 64) as u64 == self.bits
    }
}

/// Allocates node prefixes out of a /48.
#[derive(Debug, Clone)]
pub struct PrefixAllocator {
    /// Upper 48 bits of the site prefix.
    site: u64,
    assigned: BTreeMap<PlatformId, NodePrefix>,
    next_subnet: u16,
}

impl PrefixAllocator {
    /// Allocator over the given /48 (upper 48 bits in the low bits of
    /// `site48`).
    pub fn new(site48: u64) -> Self {
        PrefixAllocator {
            site: site48 & 0xFFFF_FFFF_FFFF,
            assigned: BTreeMap::new(),
            next_subnet: 0,
        }
    }

    /// A Loon-like documentation allocator (2001:db8:100::/48).
    pub fn loon_default() -> Self {
        // 2001:0db8:0100 → 0x20010db80100.
        Self::new(0x2001_0db8_0100)
    }

    /// Get or assign the /64 for `node`.
    pub fn prefix_for(&mut self, node: PlatformId) -> NodePrefix {
        if let Some(p) = self.assigned.get(&node) {
            return *p;
        }
        let subnet = self.next_subnet;
        self.next_subnet = self
            .next_subnet
            .checked_add(1)
            .expect("subnet space exhausted");
        let p = NodePrefix {
            bits: (self.site << 16) | subnet as u64,
        };
        self.assigned.insert(node, p);
        p
    }

    /// Look up an existing assignment.
    pub fn get(&self, node: PlatformId) -> Option<NodePrefix> {
        self.assigned.get(&node).copied()
    }

    /// Number of assigned prefixes.
    pub fn len(&self) -> usize {
        self.assigned.len()
    }

    /// True when nothing has been assigned yet.
    pub fn is_empty(&self) -> bool {
        self.assigned.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The address of service `index` within `p` (interface id =
    /// 1 + index; 0 is reserved).
    fn service_addr(p: &NodePrefix, index: u16) -> Ipv6Addr {
        Ipv6Addr::from(((p.bits as u128) << 64) | (1 + index as u128))
    }

    #[test]
    fn assignment_is_stable_and_unique() {
        let mut a = PrefixAllocator::loon_default();
        let p0 = a.prefix_for(PlatformId(0));
        let p1 = a.prefix_for(PlatformId(1));
        assert_ne!(p0, p1);
        assert_eq!(a.prefix_for(PlatformId(0)), p0, "idempotent");
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn service_addresses_live_in_prefix() {
        let mut a = PrefixAllocator::loon_default();
        let p = a.prefix_for(PlatformId(7));
        let agent = service_addr(&p, 0);
        let enb1 = service_addr(&p, 1);
        assert!(p.contains(agent));
        assert!(p.contains(enb1));
        assert_ne!(agent, enb1);
    }

    #[test]
    fn prefixes_are_under_the_site_48() {
        let mut a = PrefixAllocator::loon_default();
        let p = a.prefix_for(PlatformId(0));
        let s = Ipv6Addr::from((p.bits as u128) << 64).to_string();
        assert!(s.starts_with("2001:db8:100:"), "got {s}");
    }

    #[test]
    fn different_nodes_never_contain_each_others_addresses() {
        let mut a = PrefixAllocator::loon_default();
        let p0 = a.prefix_for(PlatformId(0));
        let p1 = a.prefix_for(PlatformId(1));
        assert!(!p0.contains(service_addr(&p1, 0)));
        assert!(!p1.contains(service_addr(&p0, 0)));
    }
}
