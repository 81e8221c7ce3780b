//! Flow-level data-plane traffic engine with demand feedback into the
//! planner.
//!
//! The paper evaluates Loon's TS-SDN by whether programmed routes
//! *existed* (Figure 6 availability); this crate asks the next
//! question — how much user traffic those routes actually carried.
//! It is a deterministic, seeded fluid-flow engine in three parts:
//!
//! * [`demand`] — ground-site user populations with diurnal load
//!   curves, aggregated so millions of users become thousands of
//!   fluid flows ([`DemandGenerator`]).
//! * [`allocator`] — the tiered max-min fair-share
//!   progressive-filling allocator over the currently-programmed
//!   forwarding graph ([`FairShareAllocator`]): per-flow weights, a
//!   strict-priority [`TrafficClass::Control`] class drained before
//!   bulk, and a batch-freeze round structure in exact integer bps
//!   arithmetic; capacity-only changes reuse the installed flow→link
//!   incidence. `tssdn_oracle::max_min` holds it and the tree below
//!   to a one-freeze-per-round specification.
//! * [`aggregate`] — the million-flow path
//!   ([`HierarchicalAllocator`]): per-site × service-class aggregate
//!   nodes water-filled exactly over the (much smaller) aggregate
//!   tree, with each node's grant distributed back to member flows by
//!   weight in exact u64 arithmetic; bit-identical to the flat
//!   allocator whenever aggregation is lossless.
//! * [`engine`] — the per-tick loop ([`TrafficEngine`]): offer
//!   demand, allocate over the [`TopologyView`] the orchestrator
//!   derives from its programmed routes and true link margins
//!   (via `tssdn_rf::capacity_mbps`), account goodput/disruptions
//!   into a `tssdn_telemetry::GoodputSeries`, and export the
//!   EWMA demand digest the planner feeds back into its request
//!   weights. The engine is three parts — the routing view and
//!   allocation, the store-and-forward backlog, the accounting — and
//!   the tick walks the flows as per-site runs, skipping a site that
//!   offers nothing (DESIGN.md §8).
//!
//! Determinism contract: all randomness is drawn from the dedicated
//! `"traffic-demand"` stream at construction; ticking never consumes
//! RNG, and allocation is exact integer arithmetic — identical seeds
//! and inputs produce bit-identical goodput (enforced by
//! `tests/traffic_determinism.rs`).

pub mod aggregate;
pub mod allocator;
pub mod demand;
pub mod engine;

pub use aggregate::{AggregateMember, AggregateSpec, HierarchicalAllocator};
pub use allocator::{FairShareAllocator, FlowSpec, TrafficClass};
pub use demand::{
    AggregateFlow, DemandConfig, DemandGenerator, DemandSurge, FlowId, LoadFactor, SiteRun,
};
pub use engine::{
    FlowStats, SnfTotals, StoreForwardConfig, TickSummary, TopologyView, TrafficConfig,
    TrafficEngine,
};
