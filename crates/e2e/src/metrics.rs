//! The metric registry: every number the benchmark reports, with its
//! unit, which way is better, and which clock it was read from.
//!
//! Host time and simulated time are never mixed. A *host* metric is
//! what the simulator costs on this machine and carries run-to-run
//! noise; a *sim* metric is what the modelled network achieved and
//! repeats exactly for a fixed seed and window.

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

/// Which clock a metric was read from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Domain {
    /// Wall clock / process counters of the simulator.
    Host,
    /// Deterministic outcome of the simulated network.
    Sim,
    /// The correctness-check share: checks on both kinds.
    Both,
}

impl Domain {
    /// Label in printed output.
    pub fn tag(self) -> &'static str {
        match self {
            Domain::Host => "host",
            Domain::Sim => "sim",
            Domain::Both => "both",
        }
    }
}

/// How much worse an end-to-end metric may read before `--compare`
/// calls it a regression.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    /// A share of the baseline, recorded in `BENCHMARK.json` (the
    /// host metrics; the driver applies the same number).
    Recorded,
    /// An absolute slack (ratios in [0, 1], where a share of a small
    /// baseline would be meaninglessly tight).
    Abs(f64),
    /// A share of the baseline plus an absolute slack — the
    /// `scenario_matrix --diff` rule for recovery tails.
    RelPlus(f64, f64),
    /// No slack at all.
    Exact,
}

/// One reported metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Name in every output.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Clock.
    pub domain: Domain,
}

const fn def(name: &'static str, unit: &'static str, better: Better, domain: Domain) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        domain,
    }
}

use Better::{Higher, Lower};
use Domain::{Both, Host, Sim};

/// The end-to-end metrics, from the untraced run, with their
/// regression bounds.
pub const END_TO_END: [(MetricDef, Bound); 9] = [
    (def("setup_s", "s", Lower, Host), Bound::Recorded),
    (
        def("realtime_factor", "sim-s/s", Higher, Host),
        Bound::Recorded,
    ),
    (def("step_p50_ms", "ms", Lower, Host), Bound::Recorded),
    (def("step_p95_ms", "ms", Lower, Host), Bound::Recorded),
    (def("peak_rss_mb", "MB", Lower, Host), Bound::Recorded),
    (def("goodput", "ratio", Higher, Sim), Bound::Abs(0.02)),
    (
        def("data_availability", "ratio", Higher, Sim),
        Bound::Abs(0.02),
    ),
    (
        def("recovery_p95_s", "s", Lower, Sim),
        Bound::RelPlus(0.10, 60.0),
    ),
    (def("ops_failed_share", "ratio", Lower, Both), Bound::Exact),
];

/// Only the suite can compute this one: it needs both runs.
pub const TRACE_OVERHEAD: &str = "trace.overhead_ratio";

/// The per-layer metrics, from the traced run. Layers are crate
/// names.
pub const PER_LAYER: [MetricDef; 52] = [
    def("manet.advance_ms_per_sim_s", "ms/sim-s", Lower, Host),
    def("manet.msgs_per_sim_s", "msg/sim-s", Lower, Sim),
    def("manet.bytes_per_sim_s", "B/sim-s", Lower, Sim),
    def("manet.ns_per_msg", "ns", Lower, Host),
    def("manet.links", "count", Higher, Sim),
    def("manet.route_query_us", "us", Lower, Host),
    def("manet.reachable_ratio", "ratio", Higher, Sim),
    def("manet.wall_share", "ratio", Lower, Host),
    def("core.orchestrator.unattributed_share", "ratio", Lower, Host),
    def("core.orchestrator.day3_over_day1", "ratio", Lower, Host),
    def("core.orchestrator.intents_total", "count", Lower, Sim),
    def("core.orchestrator.intents_live", "count", Higher, Sim),
    def("core.orchestrator.probe_scan_us", "us", Lower, Host),
    def("core.evaluator.evaluate_ms", "ms", Lower, Host),
    def("core.evaluator.evaluate_p95_ms", "ms", Lower, Host),
    def("core.evaluator.candidates", "count", Lower, Sim),
    def("core.evaluator.ns_per_candidate", "ns", Lower, Host),
    def("core.evaluator.wall_share", "ratio", Lower, Host),
    def("core.solver.solve_ms", "ms", Lower, Host),
    def("core.solver.solve_p95_ms", "ms", Lower, Host),
    def("core.solver.selected_links", "count", Higher, Sim),
    def("core.solver.unsatisfied_requests", "count", Lower, Sim),
    def("core.solver.wall_share", "ratio", Lower, Host),
    def("core.sharding.solve_sharded_ms", "ms", Lower, Host),
    def("core.sharding.handoffs", "count", Lower, Sim),
    def("core.sharding.region_imbalance", "ratio", Lower, Sim),
    def("traffic.tick_us", "us", Lower, Host),
    def("traffic.tick_p95_us", "us", Lower, Host),
    def("traffic.ns_per_flow", "ns", Lower, Host),
    def("traffic.flows_active", "count", Higher, Sim),
    def("traffic.rebuild_ratio", "ratio", Lower, Sim),
    def("traffic.wall_share", "ratio", Lower, Host),
    def("dataplane.route_entries", "count", Lower, Sim),
    def("dataplane.snf_queued_bits", "bit", Lower, Sim),
    def("dataplane.snf_evicted_ratio", "ratio", Lower, Sim),
    def("dataplane.custody_accepted_ratio", "ratio", Higher, Sim),
    def("cpl.enactments", "count", Higher, Sim),
    def("cpl.enact_p50_s", "s", Lower, Sim),
    def("cpl.satcom_share", "ratio", Lower, Sim),
    def("cpl.dedup_suppressed", "count", Lower, Sim),
    def("link.intents", "count", Lower, Sim),
    def("link.attempts", "count", Lower, Sim),
    def("link.establish_ratio", "ratio", Higher, Sim),
    def("link.unexpected_end_ratio", "ratio", Lower, Sim),
    def("sim.fleet_advance_us", "us", Lower, Host),
    def("fault.windows", "count", Lower, Sim),
    def("fault.active_step_share", "ratio", Lower, Sim),
    def("scenario.parse_us", "us", Lower, Host),
    def("scenario.build_ms", "ms", Lower, Host),
    def("scenario.scorecard_us", "us", Lower, Host),
    def("host.cpu_over_wall", "ratio", Lower, Host),
    def(TRACE_OVERHEAD, "ratio", Lower, Host),
];

/// Look a metric up by name in either table.
pub fn find(name: &str) -> Option<MetricDef> {
    END_TO_END
        .iter()
        .map(|(d, _)| *d)
        .chain(PER_LAYER)
        .find(|d| d.name == name)
}

/// One measured value; `n` is the sample count behind a median or
/// percentile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measured {
    /// Registry name.
    pub name: &'static str,
    /// The value, as measured.
    pub value: f64,
    /// Samples behind it, when it summarises a distribution.
    pub n: Option<usize>,
}

/// The values one run produced, in insertion order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics(pub Vec<Measured>);

impl Metrics {
    /// Record a plain value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.push(Measured {
            name,
            value,
            n: None,
        });
    }

    /// Record a summary of `n` samples.
    pub fn set_n(&mut self, name: &'static str, value: f64, n: usize) {
        self.0.push(Measured {
            name,
            value,
            n: Some(n),
        });
    }

    /// Value by name.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn names_are_unique_within_each_table_and_fit_the_contract() {
        let e2e: BTreeSet<_> = END_TO_END.iter().map(|(d, _)| d.name).collect();
        assert_eq!(e2e.len(), END_TO_END.len());
        let layers: BTreeSet<_> = PER_LAYER.iter().map(|d| d.name).collect();
        assert_eq!(layers.len(), PER_LAYER.len());
        for d in END_TO_END.iter().map(|(d, _)| d).chain(&PER_LAYER) {
            assert!(d.name.len() <= 64 && d.unit.len() <= 16, "{}", d.name);
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(d
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
    }
}
