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
//!
//! Both are [`Document`]s: each states its fields once, in a `declare`
//! method, and the JSON form, the strict reader and (for the
//! scorecard) the `scenario_matrix --diff` comparison of every row are
//! passes over that statement. [`Scorecard::field_table`] is the
//! comparison table DESIGN.md §12 carries.

use std::fmt::Debug;

use tssdn_json::{rows, Compare, Cx, Document, Json, Res};

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
#[derive(Debug, Clone, PartialEq, Default)]
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

#[rustfmt::skip]
impl Document for Scorecard {
    const NAME: &'static str = "scorecard";

    fn declare(&mut self, cx: &mut Cx) -> Res {
        use Compare::{FallBy, FallTo, Is, Not, RiseBy, RiseTo};
        let Scorecard {
            scenario, seed, duration_hours, offered_bits, delivered_bits, goodput, control_goodput,
            bulk_goodput, link_availability, data_availability, recovery_p95_s, disruptions,
            reroutes, intents_created, links_established, stale_alt_routes, snf, custody, regions,
        } = self;
        // Ratios may fall 2 % absolute, an order tighter than the ~20 %
        // floor margin.
        const RATIO: Compare = FallBy(0.02);
        cx.compared("scenario", scenario, Not)?;
        cx.compared("seed", seed, Not)?;
        cx.compared("duration_hours", duration_hours, Not)?;
        cx.compared("offered_bits", offered_bits, Not)?;
        cx.compared("delivered_bits", delivered_bits, FallTo(0.95))?;
        cx.compared("goodput", goodput, RATIO)?;
        cx.compared("control_goodput", control_goodput, RATIO)?;
        cx.compared("bulk_goodput", bulk_goodput, RATIO)?;
        cx.compared("link_availability", link_availability, RATIO)?;
        cx.compared("data_availability", data_availability, RATIO)?;
        cx.compared("recovery_p95_s", recovery_p95_s, RiseTo(1.10, 60.0))?;
        cx.compared("disruptions", disruptions, RiseBy(2.0))?;
        cx.compared("reroutes", reroutes, Not)?;
        cx.compared("intents_created", intents_created, Not)?;
        cx.compared("links_established", links_established, Not)?;
        cx.compared("stale_alt_routes", stale_alt_routes, Is(Json::U64(0), "stale_alt_routes != 0"))?;
        cx.object("snf", |cx| {
            let SnfScore {
                queued_bits, drained_bits, evicted_bits, resident_bits, in_transit_bits, conserved,
            } = snf;
            cx.compared("queued_bits", queued_bits, Not)?;
            cx.compared("drained_bits", drained_bits, Not)?;
            cx.compared("evicted_bits", evicted_bits, Not)?;
            cx.compared("resident_bits", resident_bits, Not)?;
            cx.compared("in_transit_bits", in_transit_bits, Not)?;
            cx.compared("conserved", conserved, Is(Json::Bool(true), "SNF ledger not conserved"))
        })?;
        cx.object("custody", |cx| {
            let CustodyScore {
                initiated_bits, accepted_bits, refused_bits, lost_bits, in_transit_bits,
                backlog_lost_bits, balanced,
            } = custody;
            cx.compared("initiated_bits", initiated_bits, Not)?;
            cx.compared("accepted_bits", accepted_bits, Not)?;
            cx.compared("refused_bits", refused_bits, Not)?;
            cx.compared("lost_bits", lost_bits, Not)?;
            cx.compared("in_transit_bits", in_transit_bits, Not)?;
            cx.compared("backlog_lost_bits", backlog_lost_bits, Not)?;
            cx.compared("balanced", balanced, Is(Json::Bool(true), "custody ledger not balanced"))
        })?;
        cx.list(rows("regions"), regions, RegionScore::default, |r, cx| {
            let RegionScore { region, members, handoffs_in } = r;
            cx.compared("region", region, Not)?;
            cx.compared("members", members, Not)?;
            cx.compared("handoffs_in", handoffs_in, Not)
        })
    }
}

impl Scorecard {
    /// Deterministic JSON rendering. Field order is fixed; floats use
    /// Rust's shortest round-trip formatting; two identical runs
    /// produce byte-identical output.
    pub fn to_json(&self) -> String {
        Document::to_json(self)
    }

    /// Every row as the Markdown table DESIGN.md §12 carries: path,
    /// type and how `scenario_matrix --diff` compares it.
    pub fn field_table() -> String {
        Self::table("`--diff` comparison", |f| {
            f.compare.as_ref().map_or("—".into(), Compare::describe)
        })
    }

    /// Header for the matrix summary CSV (one scenario per row): the
    /// top-level rows, then the ledger flags and totals, the region
    /// count and the handoff total.
    pub fn summary_header() -> Vec<String> {
        let tail = [
            "snf_conserved",
            "custody_balanced",
            "custody_initiated_bits",
            "backlog_lost_bits",
            "regions",
            "handoffs",
        ];
        let top = Self::default().top_rows().into_iter().map(|(k, _)| k);
        top.chain(tail.map(String::from)).collect()
    }

    /// One summary-CSV row, column order matching
    /// [`Scorecard::summary_header`].
    pub fn summary_row(&self) -> Vec<String> {
        let handoffs: u64 = self.regions.iter().map(|r| r.handoffs_in).sum();
        let tail = [
            self.snf.conserved.to_string(),
            self.custody.balanced.to_string(),
            self.custody.initiated_bits.to_string(),
            self.custody.backlog_lost_bits.to_string(),
            self.regions.len().to_string(),
            handoffs.to_string(),
        ];
        let top = self.top_rows().into_iter().map(|(_, v)| v);
        top.chain(tail).collect()
    }

    /// The top-level rows as `(key, CSV cell)`: a string bare, `null`
    /// as `-`.
    fn top_rows(&self) -> Vec<(String, String)> {
        let top = self.fields().into_iter().filter(|f| f.at.len() == 1);
        let cell = |v: Json| match v {
            Json::Arr(_) => None,
            Json::Str(s) => Some(s),
            Json::Null => Some("-".into()),
            v => Some(v.to_text()),
        };
        let rows = top.filter_map(|f| Some((f.path, cell(f.value?)?)));
        rows.collect()
    }
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
    #[rustfmt::skip]
    pub fn violations(&self, c: &Scorecard) -> Vec<String> {
        // A floor on a row the card measured.
        fn under<T: PartialOrd + Debug>(v: &mut Vec<String>, row: &str, x: Option<T>, floor: Option<T>) {
            match (x, floor) {
                (Some(x), Some(floor)) if x < floor => v.push(format!("{row} {x:?} < floor {floor:?}")),
                _ => {}
            }
        }
        let mut v = Vec::new();
        under(&mut v, "goodput", c.goodput, self.min_goodput);
        under(&mut v, "data_availability", c.data_availability, self.min_data_availability);
        if self.min_goodput.is_some() && c.goodput.is_none() {
            v.push("goodput floor set but nothing was offered".into());
        }
        if self.min_data_availability.is_some() && c.data_availability.is_none() {
            v.push("data_availability floor set but no probes recorded".into());
        }
        // Control goodput is gated only when the class was offered:
        // a scenario with no control demand cannot fail this row.
        under(&mut v, "control_goodput", c.control_goodput, self.min_control_goodput);
        under(&mut v, "delivered_bits", Some(c.delivered_bits), self.min_delivered_bits);
        under(&mut v, "disruptions", Some(c.disruptions), self.min_disruptions);
        let custody = Some(c.custody.initiated_bits);
        under(&mut v, "custody_initiated_bits", custody, self.min_custody_initiated_bits);
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
}

/// Embedded in the scenario matrix's artifact, so the gate values
/// travel with the results.
#[rustfmt::skip]
impl Document for ScorecardFloors {
    const NAME: &'static str = "floors";

    fn declare(&mut self, cx: &mut Cx) -> Res {
        let ScorecardFloors {
            min_goodput, min_data_availability, min_control_goodput, min_delivered_bits,
            min_disruptions, min_custody_initiated_bits, max_recovery_p95_s, require_snf_conserved,
            require_custody_balanced, require_no_stale_alt,
        } = self;
        cx.field("min_goodput", min_goodput, &[])?;
        cx.field("min_data_availability", min_data_availability, &[])?;
        cx.field("min_control_goodput", min_control_goodput, &[])?;
        cx.field("min_delivered_bits", min_delivered_bits, &[])?;
        cx.field("min_disruptions", min_disruptions, &[])?;
        cx.field("min_custody_initiated_bits", min_custody_initiated_bits, &[])?;
        cx.field("max_recovery_p95_s", max_recovery_p95_s, &[])?;
        cx.field("require_snf_conserved", require_snf_conserved, &[])?;
        cx.field("require_custody_balanced", require_custody_balanced, &[])?;
        cx.field("require_no_stale_alt", require_no_stale_alt, &[])
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
    fn the_comparison_table_is_the_documented_one() {
        let design = include_str!("../../../DESIGN.md");
        let table = Scorecard::field_table();
        assert!(
            design.contains(&table),
            "DESIGN.md §12's scorecard table differs from the declarations; it should read:\n{table}"
        );
        // Every value row states how `--diff` compares it.
        for f in card().fields() {
            let leaf = !matches!(f.value, Some(Json::Arr(_)) | Some(Json::Obj(_)));
            assert!(
                !leaf || f.compare.is_some(),
                "{} states no comparison",
                f.path
            );
        }
    }

    #[test]
    fn cards_and_floors_read_back_what_they_wrote() {
        let c = card();
        let text = c.to_json();
        assert_eq!(Scorecard::decode(&text), Ok(c));
        // Region rows are one line each; nothing else is.
        let rows: Vec<&str> = text.lines().filter(|l| l.contains("\"region\"")).collect();
        assert_eq!(
            rows,
            [
                "    { \"region\": 0, \"members\": 4, \"handoffs_in\": 0 },",
                "    { \"region\": 1, \"members\": 3, \"handoffs_in\": 2 }"
            ]
        );
        assert_eq!(text.lines().filter(|l| l.contains('{')).count(), 5);
        let floors = ScorecardFloors {
            min_goodput: Some(0.8),
            min_delivered_bits: Some(1),
            ..ScorecardFloors::default()
        };
        assert_eq!(ScorecardFloors::decode(&floors.to_json()), Ok(floors));
    }

    #[test]
    fn scenario_names_are_escaped() {
        let mut c = card();
        c.scenario = "we\"ird\\name".into();
        assert!(c.to_json().contains("we\\\"ird\\\\name"));
    }
}
