//! One specification per production algorithm that the equivalence
//! gates hold bit for bit: plain, slow and never optimised. Production
//! crates do not depend on this crate; the `integration` tests and the
//! `planning_hot_path` bench do (`scripts/verify.sh --lint` holds both
//! rules).
//!
//! * [`planning`] — Appendix B's link evaluator and greedy solver
//!   (`LinkEvaluator::evaluate`, `Solver::solve`).
//! * [`max_min`] — §3.1's weighted, classed max-min filler
//!   (`FairShareAllocator`) and the site×class tree over it
//!   (`HierarchicalAllocator`).
//! * [`mesh`] — Appendix D's BATMAN flood over the link-layer harness
//!   (`tssdn_manet::{Harness, Batman}`).
//! * [`traffic_tick`] — the per-flow traffic tick (`TrafficEngine::tick`),
//!   allocating through [`max_min`].

pub mod max_min;
pub mod mesh;
pub mod planning;
pub mod traffic_tick;
