//! Run a scenario and reduce it to a [`Scorecard`].
//!
//! The reduction touches only deterministic end-of-run state — traffic
//! counters, availability ratios, recovery samples, the SNF/custody
//! ledgers — so running the same spec twice yields byte-identical
//! scorecard JSON. The matrix runner gates on exactly that.

use tssdn_core::Orchestrator;
use tssdn_telemetry::{percentile, CustodyScore, Layer, Scorecard, ServiceClass, SnfScore};

use crate::spec::ScenarioSpec;

/// Build the spec's world, run it to the spec's horizon, and score it.
pub fn run_scenario(spec: &ScenarioSpec) -> Scorecard {
    let mut o = spec.build();
    o.run_until(spec.end_time());
    scorecard(spec, &o)
}

/// Reduce a finished run to its scorecard. Split out from
/// [`run_scenario`] so harnesses that step the world themselves (fine-
/// grained ticks, mid-run probes) score identically.
pub fn scorecard(spec: &ScenarioSpec, o: &Orchestrator) -> Scorecard {
    let summary = o.summary();

    let (offered, delivered, control_goodput, bulk_goodput, disruptions, reroutes) =
        match o.traffic() {
            Some(e) => {
                let s = e.series();
                (
                    s.offered_bits(),
                    s.delivered_bits(),
                    s.class_goodput(ServiceClass::Control),
                    s.class_goodput(ServiceClass::Bulk),
                    s.total_disruptions(),
                    s.total_reroutes(),
                )
            }
            None => (0, 0, None, None, 0, 0),
        };
    let goodput = if offered == 0 {
        None
    } else {
        Some(delivered as f64 / offered as f64)
    };

    let recoveries: Vec<f64> = o
        .recovery
        .samples()
        .iter()
        .map(|s| s.duration().as_secs_f64())
        .collect();
    let recovery_p95_s = percentile(&recoveries, 95.0);

    let (snf, custody) = match o.traffic() {
        Some(e) => {
            let t = e.snf_totals();
            (
                SnfScore {
                    queued_bits: t.queued_bits,
                    drained_bits: t.drained_bits,
                    evicted_bits: t.evicted_bits,
                    resident_bits: t.buffered_bits,
                    in_transit_bits: t.in_transit_bits,
                    conserved: t.conserved(),
                },
                CustodyScore {
                    initiated_bits: t.custody_initiated_bits,
                    accepted_bits: t.custody_accepted_bits,
                    refused_bits: t.custody_refused_bits,
                    lost_bits: t.custody_lost_bits,
                    in_transit_bits: t.in_transit_bits,
                    backlog_lost_bits: t.backlog_lost_bits,
                    balanced: t.custody_balanced(),
                },
            )
        }
        // No engine ⇒ the ledgers are vacuously closed.
        None => (
            SnfScore {
                conserved: true,
                ..SnfScore::default()
            },
            CustodyScore {
                balanced: true,
                ..CustodyScore::default()
            },
        ),
    };

    Scorecard {
        scenario: spec.name.clone(),
        seed: spec.seed,
        duration_hours: spec.duration_hours,
        offered_bits: offered,
        delivered_bits: delivered,
        goodput,
        control_goodput,
        bulk_goodput,
        link_availability: o.availability.overall(Layer::Link),
        data_availability: o.availability.overall(Layer::DataPlane),
        recovery_p95_s,
        disruptions,
        reroutes,
        intents_created: summary.intents_created as u64,
        links_established: summary.links_established as u64,
        stale_alt_routes: o.stale_alt_flows().len() as u64,
        snf,
        custody,
        regions: o.region_scores(),
    }
}
