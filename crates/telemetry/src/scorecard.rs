//! Per-scenario scorecards: the digital-twin report card.
//!
//! A scenario run (see `crates/scenario`) reduces to one flat record
//! of service-level outcomes — goodput, availability, per-class SLOs,
//! recovery tail, store-and-forward conservation, custody ledger
//! balance, disruption counts. The scorecard is the unit the matrix
//! runner writes into `artifact_out/scorecards/` and the unit CI
//! gates on: every field is either an exact integer counter or a
//! float derived deterministically from integer counters, so two runs
//! of the same spec must render byte-identical JSON.
//!
//! [`ScorecardFloors`] is the per-scenario contract: minimum
//! acceptable values per row. Floors are data, not code — each
//! catalog entry carries its own — so the same evaluation applies
//! uniformly to every scenario (the PR 5 soak assertions generalized:
//! Control goodput ≥ 0.99 whenever offered, SNF conservation, custody
//! ledger balance, no stale alternate routes).

use std::fmt::Write as _;

/// Store-and-forward conservation rows.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SnfScore {
    /// Bits that entered any site buffer.
    pub queued_bits: u64,
    /// Buffered bits later drained to delivery.
    pub drained_bits: u64,
    /// Bits evicted (age/byte bounds, wipes, refused/lost handoffs).
    pub evicted_bits: u64,
    /// Bits still resident at end of run.
    pub resident_bits: u64,
    /// Bits in custody transit at end of run.
    pub in_transit_bits: u64,
    /// Every queued bit is drained, evicted, resident or in transit.
    pub conserved: bool,
}

/// Custody-transfer ledger rows.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CustodyScore {
    /// Bits a doomed holder pushed toward a custodian.
    pub initiated_bits: u64,
    /// Bits a custodian accepted.
    pub accepted_bits: u64,
    /// Bits refused on arrival (over-age).
    pub refused_bits: u64,
    /// Bits lost with a custodian that died in transit.
    pub lost_bits: u64,
    /// Bits still in transit at end of run.
    pub in_transit_bits: u64,
    /// Backlog wiped with abruptly lost balloons.
    pub backlog_lost_bits: u64,
    /// Every handed-off bit is accepted, refused, lost or in transit.
    pub balanced: bool,
}

/// One planner region's share of the fleet (PR 9 regional sharding).
/// Unsharded runs report a single region 0 owning every balloon.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RegionScore {
    /// Region index (longitude band).
    pub region: u32,
    /// Balloons owned at end of run.
    pub members: u64,
    /// Wind-drift planner handoffs absorbed over the run.
    pub handoffs_in: u64,
}

/// One scenario's end-of-run service outcomes. All fields derive
/// deterministically from a seeded run, so [`Scorecard::to_json`] is
/// a rerun-identity witness.
#[derive(Debug, Clone, PartialEq)]
pub struct Scorecard {
    /// Scenario name (catalog key).
    pub scenario: String,
    /// World seed the run used.
    pub seed: u64,
    /// Simulated duration, hours.
    pub duration_hours: u64,
    /// Total user bits offered.
    pub offered_bits: u64,
    /// Total user bits delivered end-to-end.
    pub delivered_bits: u64,
    /// `delivered / offered`; `None` when nothing was offered.
    pub goodput: Option<f64>,
    /// Strict-priority Control-class goodput (`None` = never offered).
    pub control_goodput: Option<f64>,
    /// Bulk-class goodput.
    pub bulk_goodput: Option<f64>,
    /// Figure-6 link-layer availability.
    pub link_availability: Option<f64>,
    /// Figure-6 data-plane availability.
    pub data_availability: Option<f64>,
    /// p95 of route-recovery durations, seconds (`None` = no breaks).
    pub recovery_p95_s: Option<f64>,
    /// Paths torn under load.
    pub disruptions: u64,
    /// Engine-observed path changes.
    pub reroutes: u64,
    /// Link intents the controller created.
    pub intents_created: u64,
    /// Links that established at least once.
    pub links_established: u64,
    /// Alternate-plane routes left stale at end of run (must be 0).
    pub stale_alt_routes: u64,
    /// Store-and-forward conservation.
    pub snf: SnfScore,
    /// Custody ledger.
    pub custody: CustodyScore,
    /// Per-region planner rows, region-id order (one row per region,
    /// empty regions included).
    pub regions: Vec<RegionScore>,
}

/// `Some(x)` → shortest round-trip float, `None` → `null`.
fn jopt(x: Option<f64>) -> String {
    match x {
        Some(v) => format!("{v:?}"),
        None => "null".into(),
    }
}

impl Scorecard {
    /// Deterministic JSON rendering. Field order is fixed; floats use
    /// Rust's shortest round-trip formatting; two identical runs
    /// produce byte-identical output.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "{{");
        let _ = writeln!(s, "  \"scenario\": \"{}\",", escape(&self.scenario));
        let _ = writeln!(s, "  \"seed\": {},", self.seed);
        let _ = writeln!(s, "  \"duration_hours\": {},", self.duration_hours);
        let _ = writeln!(s, "  \"offered_bits\": {},", self.offered_bits);
        let _ = writeln!(s, "  \"delivered_bits\": {},", self.delivered_bits);
        let _ = writeln!(s, "  \"goodput\": {},", jopt(self.goodput));
        let _ = writeln!(s, "  \"control_goodput\": {},", jopt(self.control_goodput));
        let _ = writeln!(s, "  \"bulk_goodput\": {},", jopt(self.bulk_goodput));
        let _ = writeln!(
            s,
            "  \"link_availability\": {},",
            jopt(self.link_availability)
        );
        let _ = writeln!(
            s,
            "  \"data_availability\": {},",
            jopt(self.data_availability)
        );
        let _ = writeln!(s, "  \"recovery_p95_s\": {},", jopt(self.recovery_p95_s));
        let _ = writeln!(s, "  \"disruptions\": {},", self.disruptions);
        let _ = writeln!(s, "  \"reroutes\": {},", self.reroutes);
        let _ = writeln!(s, "  \"intents_created\": {},", self.intents_created);
        let _ = writeln!(s, "  \"links_established\": {},", self.links_established);
        let _ = writeln!(s, "  \"stale_alt_routes\": {},", self.stale_alt_routes);
        let _ = writeln!(s, "  \"snf\": {{");
        let _ = writeln!(s, "    \"queued_bits\": {},", self.snf.queued_bits);
        let _ = writeln!(s, "    \"drained_bits\": {},", self.snf.drained_bits);
        let _ = writeln!(s, "    \"evicted_bits\": {},", self.snf.evicted_bits);
        let _ = writeln!(s, "    \"resident_bits\": {},", self.snf.resident_bits);
        let _ = writeln!(s, "    \"in_transit_bits\": {},", self.snf.in_transit_bits);
        let _ = writeln!(s, "    \"conserved\": {}", self.snf.conserved);
        let _ = writeln!(s, "  }},");
        let _ = writeln!(s, "  \"custody\": {{");
        let _ = writeln!(
            s,
            "    \"initiated_bits\": {},",
            self.custody.initiated_bits
        );
        let _ = writeln!(s, "    \"accepted_bits\": {},", self.custody.accepted_bits);
        let _ = writeln!(s, "    \"refused_bits\": {},", self.custody.refused_bits);
        let _ = writeln!(s, "    \"lost_bits\": {},", self.custody.lost_bits);
        let _ = writeln!(
            s,
            "    \"in_transit_bits\": {},",
            self.custody.in_transit_bits
        );
        let _ = writeln!(
            s,
            "    \"backlog_lost_bits\": {},",
            self.custody.backlog_lost_bits
        );
        let _ = writeln!(s, "    \"balanced\": {}", self.custody.balanced);
        let _ = writeln!(s, "  }},");
        if self.regions.is_empty() {
            let _ = writeln!(s, "  \"regions\": []");
        } else {
            let _ = writeln!(s, "  \"regions\": [");
            for (i, r) in self.regions.iter().enumerate() {
                let comma = if i + 1 < self.regions.len() { "," } else { "" };
                let _ = writeln!(
                    s,
                    "    {{ \"region\": {}, \"members\": {}, \"handoffs_in\": {} }}{}",
                    r.region, r.members, r.handoffs_in, comma
                );
            }
            let _ = writeln!(s, "  ]");
        }
        let _ = write!(s, "}}");
        s
    }

    /// Header for the matrix summary CSV (one scenario per row).
    pub fn summary_header() -> Vec<&'static str> {
        vec![
            "scenario",
            "seed",
            "duration_hours",
            "offered_bits",
            "delivered_bits",
            "goodput",
            "control_goodput",
            "bulk_goodput",
            "link_availability",
            "data_availability",
            "recovery_p95_s",
            "disruptions",
            "reroutes",
            "intents_created",
            "links_established",
            "stale_alt_routes",
            "snf_conserved",
            "custody_balanced",
            "custody_initiated_bits",
            "backlog_lost_bits",
            "regions",
            "handoffs",
        ]
    }

    /// One summary-CSV row, column order matching
    /// [`Scorecard::summary_header`].
    pub fn summary_row(&self) -> Vec<String> {
        let f = |x: Option<f64>| x.map_or_else(|| "-".into(), |v| format!("{v:?}"));
        vec![
            self.scenario.clone(),
            self.seed.to_string(),
            self.duration_hours.to_string(),
            self.offered_bits.to_string(),
            self.delivered_bits.to_string(),
            f(self.goodput),
            f(self.control_goodput),
            f(self.bulk_goodput),
            f(self.link_availability),
            f(self.data_availability),
            f(self.recovery_p95_s),
            self.disruptions.to_string(),
            self.reroutes.to_string(),
            self.intents_created.to_string(),
            self.links_established.to_string(),
            self.stale_alt_routes.to_string(),
            self.snf.conserved.to_string(),
            self.custody.balanced.to_string(),
            self.custody.initiated_bits.to_string(),
            self.custody.backlog_lost_bits.to_string(),
            self.regions.len().to_string(),
            self.regions
                .iter()
                .map(|r| r.handoffs_in)
                .sum::<u64>()
                .to_string(),
        ]
    }
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Per-scenario floor values: the minimum acceptable scorecard. Every
/// `Option` floor is skipped when `None`; the three `require_*` flags
/// are the invariant rows that hold in *every* scenario.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScorecardFloors {
    /// Overall goodput must reach this (when traffic was offered).
    pub min_goodput: Option<f64>,
    /// Data-plane availability must reach this.
    pub min_data_availability: Option<f64>,
    /// Control-class goodput must reach this *whenever the class was
    /// offered at all* (the PR 5 strict-priority contract).
    pub min_control_goodput: Option<f64>,
    /// At least this many bits delivered end-to-end.
    pub min_delivered_bits: Option<u64>,
    /// The scenario must have torn at least this many loaded paths
    /// (chaos scenarios prove their faults actually bit).
    pub min_disruptions: Option<u64>,
    /// Custody must have moved at least this many bits (custody
    /// scenarios prove the handoff fired).
    pub min_custody_initiated_bits: Option<u64>,
    /// Route-recovery p95 must stay under this many seconds.
    pub max_recovery_p95_s: Option<f64>,
    /// SNF conservation must hold (`queued = drained + evicted +
    /// resident + in_transit`).
    pub require_snf_conserved: bool,
    /// The custody ledger must close (`initiated = accepted + refused
    /// + lost + in_transit`).
    pub require_custody_balanced: bool,
    /// No stale alternate routes may survive the run.
    pub require_no_stale_alt: bool,
}

impl Default for ScorecardFloors {
    /// The invariant-only contract: conservation, ledger balance and
    /// alt-plane hygiene on, every numeric floor off.
    fn default() -> Self {
        ScorecardFloors {
            min_goodput: None,
            min_data_availability: None,
            min_control_goodput: None,
            min_delivered_bits: None,
            min_disruptions: None,
            min_custody_initiated_bits: None,
            max_recovery_p95_s: None,
            require_snf_conserved: true,
            require_custody_balanced: true,
            require_no_stale_alt: true,
        }
    }
}

impl ScorecardFloors {
    /// Every floor the card fails, as human-readable rows. Empty
    /// means the scenario passed.
    pub fn violations(&self, c: &Scorecard) -> Vec<String> {
        let mut v = Vec::new();
        if let (Some(floor), Some(g)) = (self.min_goodput, c.goodput) {
            if g < floor {
                v.push(format!("goodput {g:?} < floor {floor:?}"));
            }
        }
        if let (Some(floor), Some(a)) = (self.min_data_availability, c.data_availability) {
            if a < floor {
                v.push(format!("data_availability {a:?} < floor {floor:?}"));
            }
        }
        if self.min_goodput.is_some() && c.goodput.is_none() {
            v.push("goodput floor set but nothing was offered".into());
        }
        if self.min_data_availability.is_some() && c.data_availability.is_none() {
            v.push("data_availability floor set but no probes recorded".into());
        }
        // Control goodput is gated only when the class was offered:
        // a scenario with no control demand cannot fail this row.
        if let (Some(floor), Some(g)) = (self.min_control_goodput, c.control_goodput) {
            if g < floor {
                v.push(format!("control_goodput {g:?} < floor {floor:?}"));
            }
        }
        if let Some(floor) = self.min_delivered_bits {
            if c.delivered_bits < floor {
                v.push(format!(
                    "delivered_bits {} < floor {floor}",
                    c.delivered_bits
                ));
            }
        }
        if let Some(floor) = self.min_disruptions {
            if c.disruptions < floor {
                v.push(format!("disruptions {} < floor {floor}", c.disruptions));
            }
        }
        if let Some(floor) = self.min_custody_initiated_bits {
            if c.custody.initiated_bits < floor {
                v.push(format!(
                    "custody_initiated_bits {} < floor {floor}",
                    c.custody.initiated_bits
                ));
            }
        }
        if let (Some(cap), Some(p)) = (self.max_recovery_p95_s, c.recovery_p95_s) {
            if p > cap {
                v.push(format!("recovery_p95_s {p:?} > cap {cap:?}"));
            }
        }
        if self.require_snf_conserved && !c.snf.conserved {
            v.push(format!("snf conservation violated: {:?}", c.snf));
        }
        if self.require_custody_balanced && !c.custody.balanced {
            v.push(format!("custody ledger unbalanced: {:?}", c.custody));
        }
        if self.require_no_stale_alt && c.stale_alt_routes > 0 {
            v.push(format!("{} stale alternate routes", c.stale_alt_routes));
        }
        v
    }

    /// Deterministic JSON rendering (embedded in the scorecard
    /// artifact so the gate values travel with the results).
    pub fn to_json(&self) -> String {
        let ju = |x: Option<u64>| x.map_or_else(|| "null".into(), |v| v.to_string());
        let mut s = String::new();
        let _ = writeln!(s, "{{");
        let _ = writeln!(s, "  \"min_goodput\": {},", jopt(self.min_goodput));
        let _ = writeln!(
            s,
            "  \"min_data_availability\": {},",
            jopt(self.min_data_availability)
        );
        let _ = writeln!(
            s,
            "  \"min_control_goodput\": {},",
            jopt(self.min_control_goodput)
        );
        let _ = writeln!(
            s,
            "  \"min_delivered_bits\": {},",
            ju(self.min_delivered_bits)
        );
        let _ = writeln!(s, "  \"min_disruptions\": {},", ju(self.min_disruptions));
        let _ = writeln!(
            s,
            "  \"min_custody_initiated_bits\": {},",
            ju(self.min_custody_initiated_bits)
        );
        let _ = writeln!(
            s,
            "  \"max_recovery_p95_s\": {},",
            jopt(self.max_recovery_p95_s)
        );
        let _ = writeln!(
            s,
            "  \"require_snf_conserved\": {},",
            self.require_snf_conserved
        );
        let _ = writeln!(
            s,
            "  \"require_custody_balanced\": {},",
            self.require_custody_balanced
        );
        let _ = writeln!(
            s,
            "  \"require_no_stale_alt\": {}",
            self.require_no_stale_alt
        );
        let _ = write!(s, "}}");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn card() -> Scorecard {
        Scorecard {
            scenario: "unit".into(),
            seed: 7,
            duration_hours: 14,
            offered_bits: 1000,
            delivered_bits: 900,
            goodput: Some(0.9),
            control_goodput: Some(1.0),
            bulk_goodput: Some(0.88),
            link_availability: Some(0.7),
            data_availability: Some(0.65),
            recovery_p95_s: Some(120.0),
            disruptions: 3,
            reroutes: 5,
            intents_created: 40,
            links_established: 12,
            stale_alt_routes: 0,
            snf: SnfScore {
                queued_bits: 100,
                drained_bits: 60,
                evicted_bits: 30,
                resident_bits: 10,
                in_transit_bits: 0,
                conserved: true,
            },
            custody: CustodyScore {
                balanced: true,
                ..CustodyScore::default()
            },
            regions: vec![
                RegionScore {
                    region: 0,
                    members: 4,
                    handoffs_in: 0,
                },
                RegionScore {
                    region: 1,
                    members: 3,
                    handoffs_in: 2,
                },
            ],
        }
    }

    #[test]
    fn json_is_deterministic_and_row_matches_header() {
        let c = card();
        assert_eq!(c.to_json(), c.to_json());
        assert!(c.to_json().contains("\"goodput\": 0.9"));
        assert!(c.to_json().contains("\"handoffs_in\": 2"));
        assert_eq!(c.summary_row().len(), Scorecard::summary_header().len());
        // Summary "handoffs" column is the cross-region total.
        let row = c.summary_row();
        assert_eq!(row[row.len() - 2], "2");
        assert_eq!(row[row.len() - 1], "2");
    }

    #[test]
    fn floors_catch_each_violation_kind() {
        let c = card();
        let pass = ScorecardFloors {
            min_goodput: Some(0.8),
            min_control_goodput: Some(0.99),
            min_delivered_bits: Some(1),
            ..ScorecardFloors::default()
        };
        assert!(pass.violations(&c).is_empty(), "{:?}", pass.violations(&c));

        let fail = ScorecardFloors {
            min_goodput: Some(0.95),
            min_data_availability: Some(0.9),
            min_disruptions: Some(10),
            max_recovery_p95_s: Some(60.0),
            ..ScorecardFloors::default()
        };
        assert_eq!(fail.violations(&c).len(), 4);

        let mut broken = c.clone();
        broken.snf.conserved = false;
        broken.custody.balanced = false;
        broken.stale_alt_routes = 2;
        assert_eq!(ScorecardFloors::default().violations(&broken).len(), 3);
    }

    #[test]
    fn control_floor_skipped_when_class_never_offered() {
        let mut c = card();
        c.control_goodput = None;
        let floors = ScorecardFloors {
            min_control_goodput: Some(0.99),
            ..ScorecardFloors::default()
        };
        assert!(floors.violations(&c).is_empty());
    }

    #[test]
    fn scenario_names_are_escaped() {
        let mut c = card();
        c.scenario = "we\"ird\\name".into();
        assert!(c.to_json().contains("we\\\"ird\\\\name"));
    }
}
