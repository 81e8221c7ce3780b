//! `tssdn-core` — "Minkowski", the Temporospatial SDN controller, and
//! the orchestrator that closes the loop against the simulated world.
//!
//! The paper's §3.1 architecture maps onto modules like so:
//!
//! | Paper component            | Module          |
//! |----------------------------|-----------------|
//! | network/physical model     | [`model`]       |
//! | Link Evaluator             | [`evaluator`]   |
//! | Solver (Appendix B)        | [`solver`]      |
//! | intent store               | [`intent`]      |
//! | actuation + CDPI binding   | [`orchestrator`]|
//! | model validation tooling   | [`validation`]  |
//!
//! The controller only ever sees its *model* of the world — reported
//! positions (stale between reports), configured obstruction masks
//! (possibly outdated), and its chosen weather source (climatology,
//! gauges, forecasts). The [`orchestrator`] owns the *truth* (the
//! `tssdn-sim` fleet, real weather, real masks) and scores the
//! controller honestly against it. Every §5 model-error source is
//! therefore reproducible: stale trajectories, coarse weather, antenna
//! pattern quantization, and unmodelled obstructions.

pub mod evaluator;
pub mod explain;
mod fan_out;
pub mod feedback;
pub mod intent;
pub mod model;
pub mod orchestrator;
pub mod reference;
pub mod sharding;
pub mod solver;
pub mod validation;

pub use evaluator::{CandidateGraph, CandidateLink, EvaluatorConfig, LinkEvaluator};
pub use explain::{explain_absence, explain_pair, PairAbsence, SelectionAbsence};
pub use feedback::FeedbackStats;
pub use intent::{IntentId, IntentStore, LinkIntent, LinkIntentState};
pub use model::{NetworkModel, PlatformInfo, WeatherSource};
pub use orchestrator::{
    Orchestrator, OrchestratorConfig, RunSummary, SolverPolicy, WeatherModelKind,
};
pub use sharding::{solve_sharded, HandoffEvent, RegionId, RegionMap, ShardingConfig};
pub use solver::{PlanScore, Solver, SolverConfig, TopologyPlan};
pub use tssdn_traffic::{TrafficConfig, TrafficEngine};
pub use validation::{ModelErrorSample, ModelValidator, ObstructionFinding};
