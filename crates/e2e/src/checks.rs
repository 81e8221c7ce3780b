//! Correctness checks: what `ops_failed_share` counts.
//!
//! A fast wrong simulator is not a result. Every run checks the
//! invariants the scenario matrix floors enforce (conservation
//! ledgers closed, no stale alternates, Control delivered whenever
//! offered) plus, on the full window, that the workload still
//! exercises what it was chosen for.

use tssdn_core::Orchestrator;
use tssdn_scenario::ScenarioSpec;
use tssdn_telemetry::Scorecard;

use crate::workload::{Workload, STEP};

/// How long [`settle`] waits for stale alternates to clear: six
/// simulated hours, enough for a window that ends at night to reach
/// the morning's reprogramming.
pub const SETTLE_STEPS: u32 = 360;

/// The no-stale-alternates invariant is eventual — the product's own
/// soak asserts it "settles to empty" — and a window's last tick can
/// land inside a transient: a balloon that powered down for the night
/// with an alternate withdrawal still owed keeps the entry until it
/// is reprogrammed after dawn. So after the window (and after the
/// scorecard is taken) the world runs on, untimed, until the stale set
/// is empty or [`SETTLE_STEPS`] have passed; what is left then is a
/// failure. Returns the count left.
pub fn settle(o: &mut Orchestrator) -> usize {
    for _ in 0..SETTLE_STEPS {
        if o.stale_alt_flows().is_empty() {
            break;
        }
        o.run_until(o.now() + STEP);
    }
    o.stale_alt_flows().len()
}

/// Checks attempted and the ones that failed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Checks {
    /// How many checks ran.
    pub attempted: u32,
    /// One line per failed check.
    pub failures: Vec<String>,
}

impl Checks {
    /// Count one check; `what` names it if it failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }

    /// Fold another set of checks into this one.
    pub fn absorb(&mut self, other: &Checks) {
        self.attempted += other.attempted;
        self.failures.extend(other.failures.iter().cloned());
    }

    /// Failed checks.
    pub fn failed(&self) -> u32 {
        self.failures.len() as u32
    }

    /// Failed ÷ attempted.
    pub fn failed_share(&self) -> f64 {
        self.failed() as f64 / self.attempted.max(1) as f64
    }

    /// The checks one finished world can answer by itself: `sc` is
    /// its scorecard at the window's end, `stale_alt_routes` what
    /// [`settle`] left. `full_window` adds the workload-sanity checks,
    /// which a smoke window is too short to meet.
    pub fn on_world(
        w: &Workload,
        spec: &ScenarioSpec,
        sc: &Scorecard,
        stale_alt_routes: usize,
        handoffs: usize,
        full_window: bool,
    ) -> Checks {
        let mut c = Checks::default();
        c.check(sc.snf.conserved, || {
            format!("SNF ledger open: {:?}", sc.snf)
        });
        c.check(sc.custody.balanced, || {
            format!("custody ledger open: {:?}", sc.custody)
        });
        c.check(stale_alt_routes == 0, || {
            format!("{stale_alt_routes} alternate routes still stale {SETTLE_STEPS} steps on")
        });
        // `None` = Control was never offered, which is vacuously fine.
        c.check(sc.control_goodput.is_none_or(|g| g >= 0.99), || {
            format!("control goodput {:?} < 0.99", sc.control_goodput)
        });
        c.check(sc.delivered_bits <= sc.offered_bits, || {
            format!(
                "delivered {} > offered {}",
                sc.delivered_bits, sc.offered_bits
            )
        });
        if !full_window {
            return c;
        }
        if w.bootstraps {
            c.check(sc.links_established > 0, || {
                "no link ever established".into()
            });
        } else {
            c.check(sc.links_established == 0 && sc.intents_created > 0, || {
                format!(
                    "mesh should never bootstrap yet keep planning: {} links, {} intents",
                    sc.links_established, sc.intents_created
                )
            });
        }
        if spec.sharding.regions > 1 {
            c.check(handoffs > 0, || "sharded run saw no region handoff".into());
        }
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WORKLOADS;
    use tssdn_telemetry::{CustodyScore, SnfScore};

    fn clean_scorecard() -> Scorecard {
        Scorecard {
            scenario: "unit".into(),
            seed: 1,
            duration_hours: 10,
            offered_bits: 100,
            delivered_bits: 60,
            goodput: Some(0.6),
            control_goodput: Some(1.0),
            bulk_goodput: Some(0.5),
            link_availability: Some(0.9),
            data_availability: Some(0.8),
            recovery_p95_s: None,
            disruptions: 0,
            reroutes: 0,
            intents_created: 9,
            links_established: 4,
            stale_alt_routes: 0,
            snf: SnfScore {
                conserved: true,
                ..SnfScore::default()
            },
            custody: CustodyScore {
                balanced: true,
                ..CustodyScore::default()
            },
            regions: Vec::new(),
        }
    }

    #[test]
    fn a_clean_world_passes_and_each_violation_is_counted() {
        let meshed = &WORKLOADS[0];
        let dark = WORKLOADS.iter().find(|w| !w.bootstraps).unwrap();
        let spec = meshed.spec(1);
        let ok = Checks::on_world(meshed, &spec, &clean_scorecard(), 0, 0, true);
        assert_eq!((ok.attempted, ok.failed()), (6, 0));
        assert_eq!(ok.failed_share(), 0.0);

        let mut bad = clean_scorecard();
        bad.snf.conserved = false;
        bad.custody.balanced = false;
        bad.control_goodput = Some(0.5);
        bad.delivered_bits = 101;
        bad.links_established = 0;
        let c = Checks::on_world(meshed, &spec, &bad, 2, 0, true);
        assert_eq!((c.attempted, c.failed()), (6, 6));
        assert_eq!(c.failed_share(), 1.0);

        // The never-bootstraps workload wants exactly that world.
        let c = Checks::on_world(dark, &dark.spec(1), &bad, 0, 0, true);
        assert!(!c.failures.iter().any(|f| f.contains("bootstrap")));
        let c = Checks::on_world(dark, &dark.spec(1), &clean_scorecard(), 0, 0, true);
        assert!(c.failures.iter().any(|f| f.contains("bootstrap")));

        // A sharded spec adds the handoff check; a smoke window drops
        // both sanity checks.
        let sharded = WORKLOADS.iter().find(|w| w.spec(1).sharding.regions > 1);
        let sharded = sharded.expect("one workload is sharded");
        let c = Checks::on_world(sharded, &sharded.spec(1), &clean_scorecard(), 0, 0, true);
        assert_eq!((c.attempted, c.failed()), (7, 1));
        let c = Checks::on_world(sharded, &sharded.spec(1), &clean_scorecard(), 0, 0, false);
        assert_eq!((c.attempted, c.failed()), (5, 0));
    }
}
