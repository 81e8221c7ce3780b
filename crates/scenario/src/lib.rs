//! Scenario specs: seeded, serializable world descriptions.
//!
//! Before this crate, every soak test and figure binary hand-built its
//! world — the same `OrchestratorConfig::kenya` + spawn-radius +
//! fault-plan stanza copy-pasted with small variations, and no way to
//! say *which* world a result came from. A [`ScenarioSpec`] replaces
//! that: one value naming the fleet (size, dispersion, geography), the
//! demand model and its surge events, the weather regime, the fault
//! plan (seeded or directed, including satcom-provider outage days),
//! the traffic-engine switches, and the seed and horizon. Building the
//! spec is deterministic — equal specs make bit-identical worlds — and
//! the JSON form round-trips losslessly under the strict parser of
//! `tssdn-json`: unknown fields are rejected, not ignored.
//!
//! * [`spec`] — the spec types, declared once as a `tssdn_json::Document`.
//! * [`world`] — spec → `Orchestrator` (and the shared wet-season
//!   weather truth, [`stormy_truth`]).
//! * [`run`] — run a spec and reduce it to a telemetry `Scorecard`.
//! * [`catalog`] — the named scenario matrix (E21) with per-scenario
//!   scorecard floors, plus the CI smoke subset.
//! * [`diff`] — the matrix's artifact (spec, floors and scorecard in
//!   one document) and `scenario_matrix --diff` over two directories
//!   of them.
//!
//! The `json` re-export is `tssdn-json` under its old name, kept for
//! the frozen `crates/e2e` benchmark; everything else names the leaf
//! crate.

pub mod catalog;
pub mod diff;
pub mod run;
pub mod spec;
pub mod world;

pub use catalog::{catalog, chaos_soak_spec, smoke_catalog, CatalogEntry};
pub use run::{run_scenario, scorecard};
pub use spec::{
    DemandSpec, FaultModeSpec, FaultsSpec, FleetSpec, Geography, KindSpec, ScenarioSpec,
    ShardingSpec, SurgeSpec, TrafficSpec, WeatherRegime, WeatherSpec, WindowSpec,
};
pub use tssdn_json as json;
pub use world::stormy_truth;
