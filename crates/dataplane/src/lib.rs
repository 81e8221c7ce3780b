//! Data plane: IPv6 addressing, source-destination routes, IPsec-like
//! tunnels, and the provisioning concepts (backhaul requests and
//! drains) from the paper's Appendix C.
//!
//! "Each node in the Loon network was assigned its own global unicast
//! IPv6 /64 prefix ... The TS-SDN enacted data plane connectivity by
//! issuing commands to control plane agents at all relevant nodes,
//! primarily in the form of full source-destination route instructions
//! and IPsec tunnel establishment parameters." Full source-destination
//! routing kept flows on assigned paths "to meet resource reservation
//! requirements" — there is deliberately no destination-only fallback.
//!
//! Drains (Appendix C "Administrative Drains") let the controller
//! gracefully exclude nodes for maintenance: `Opportunistic` waits for
//! traffic to leave naturally and then latches, `Deter` biases the
//! solver away from the node, and `Force` evicts traffic immediately.

pub mod addressing;
pub mod buffer;
pub mod provision;
pub mod routing;
pub mod tunnel;

pub use addressing::{NodePrefix, PrefixAllocator};
pub use buffer::{BufferedSegment, FlowKey, StoreForwardBuffer};
pub use provision::{BackhaulRequest, DrainRegistry, DrainState};
pub use routing::{Plane, RouteEntry, RouteTable, RoutingFabric};
pub use tunnel::{TunnelId, TunnelRegistry};
