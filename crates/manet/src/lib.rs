//! MANET routing substrate: the in-band control-plane routing layer.
//!
//! "Once link-layer connectivity was established, Loon used
//! batman-adv, an AODV-based protocol, to route control plane
//! messages. The ad-hoc routing domain spanned from ground stations up
//! to balloons and among connected balloons" (§4.1). Appendix D
//! describes the protocol selection study comparing AODV, DSDV, and
//! OLSR in ns-3; "both AODV and DSDV protocols exhibited good
//! convergence times, but AODV protocol design resulted in overall
//! lower overhead".
//!
//! This crate implements all four protocols over a common
//! message-passing harness so the Appendix-D comparison (experiment
//! E9) can be rerun, and so the hybrid control plane (`tssdn-cpl`) can
//! use the BATMAN implementation for in-band route availability:
//!
//! * [`batman`] — B.A.T.M.A.N.-style originator messages (OGMs) with
//!   a transmit-quality (TQ) metric and gateway selection;
//!   [`BatmanMesh`] is it on the harness as one concrete type, the
//!   mesh the orchestrator runs.
//! * [`aodv`] — on-demand route discovery (RREQ flood / RREP unicast)
//!   with sequence numbers and route invalidation.
//! * [`dsdv`] — proactive distance-vector with destination sequence
//!   numbers and periodic dumps.
//! * [`olsr`] — proactive link-state: HELLO neighbor sensing, flooded
//!   topology-control messages, Dijkstra routes.
//!
//! Protocols never read the topology directly: they learn it from the
//! control messages the harness delivers (with loss proportional to
//! link quality), exactly like the real protocols learn from the air.

pub mod aodv;
pub mod batman;
pub mod batman_mesh;
pub mod dsdv;
pub mod harness;
pub mod olsr;
pub mod types;

pub use aodv::Aodv;
pub use batman::Batman;
pub use batman_mesh::BatmanMesh;
pub use dsdv::Dsdv;
pub use harness::{ConvergenceProbe, Harness, OverheadStats};
pub use olsr::Olsr;
pub use types::{Ctx, ManetProtocol, NodeId, Topology};
