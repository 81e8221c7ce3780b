//! The solver's product: [`TopologyPlan`], its scalar value
//! ([`PlanScore`], §6 recommendation 4) and its operator-facing
//! rendering as a goal state (§6 recommendation 3).

use crate::evaluator::CandidateLink;
use std::collections::{BTreeMap, BTreeSet};
use tssdn_link::TransceiverId;
use tssdn_sim::{PlatformId, SimTime};

/// The solver's output for one time slice.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TopologyPlan {
    /// When this plan is for.
    pub at: SimTime,
    /// Links selected to carry demand.
    pub demand_links: Vec<CandidateLink>,
    /// Extra links tasked for redundancy.
    pub redundant_links: Vec<CandidateLink>,
    /// Platform-level path for each satisfied request, keyed by
    /// `(node, ec)`.
    pub routes: BTreeMap<(PlatformId, PlatformId), Vec<PlatformId>>,
    /// Requests that could not be satisfied.
    pub unsatisfied: Vec<(PlatformId, PlatformId)>,
    /// How many selected links were kept from the previous topology.
    pub kept_links: usize,
}

impl TopologyPlan {
    /// All selected links (demand + redundant).
    pub fn all_links(&self) -> impl Iterator<Item = &CandidateLink> {
        self.demand_links.iter().chain(self.redundant_links.iter())
    }

    /// The pairing-key set of the whole plan.
    pub fn key_set(&self) -> BTreeSet<(TransceiverId, TransceiverId)> {
        self.all_links().map(|l| l.key()).collect()
    }

    /// A scalar value for this solution — §6 recommendation 4:
    /// "improve confidence in solver adjustments by identifying a
    /// metric for the value of each given network solution."
    ///
    /// Components: satisfied-demand fraction (dominant), margin
    /// headroom of the selected links (robustness), redundant links
    /// per satisfied demand (failover capacity), and a penalty per
    /// marginal link in the demand set. Scores are comparable across
    /// solves of the same request set.
    pub fn utility_score(&self, num_requests: usize) -> PlanScore {
        let satisfied = self.routes.len();
        let demand_fraction = if num_requests == 0 {
            1.0
        } else {
            satisfied as f64 / num_requests as f64
        };
        let (margin_sum, margin_n) = self
            .all_links()
            .fold((0.0f64, 0usize), |(s, n), l| (s + l.margin_db, n + 1));
        let mean_margin = if margin_n == 0 {
            0.0
        } else {
            margin_sum / margin_n as f64
        };
        let marginal_links = self
            .demand_links
            .iter()
            .filter(|l| l.quality == tssdn_rf::LinkQuality::Marginal)
            .count();
        let redundancy_ratio = if satisfied == 0 {
            0.0
        } else {
            self.redundant_links.len() as f64 / satisfied as f64
        };
        let total = 100.0 * demand_fraction
            + (mean_margin / 2.0).clamp(0.0, 10.0)
            + 10.0 * redundancy_ratio.min(1.0)
            - 2.0 * marginal_links as f64;
        PlanScore {
            total,
            demand_fraction,
            mean_margin_db: mean_margin,
            redundancy_ratio,
            marginal_links,
        }
    }

    /// Render the plan as an operator-facing goal state — §6
    /// recommendation 3: "put individual changes in context by
    /// surfacing a near-term goal state from the solver, and the
    /// expected sequence of intents to reach it." `current` is the
    /// installed pairing-key set; the rendering lists keeps, adds and
    /// removals in actuation order (teardowns before the
    /// establishments that reuse their radios).
    pub fn render_goal_state(
        &self,
        current: &BTreeSet<(TransceiverId, TransceiverId)>,
        num_requests: usize,
    ) -> String {
        use std::fmt::Write as _;
        let goal = self.key_set();
        let mut out = String::new();
        let score = self.utility_score(num_requests);
        let _ = writeln!(
            out,
            "goal topology @ {}: {} links ({} demand + {} redundant), score {:.1}",
            self.at,
            goal.len(),
            self.demand_links.len(),
            self.redundant_links.len(),
            score.total
        );
        let _ = writeln!(
            out,
            "  demand: {}/{} satisfied; mean margin {:.1} dB; {} marginal",
            self.routes.len(),
            num_requests,
            score.mean_margin_db,
            score.marginal_links
        );
        let keeps = goal.intersection(current).count();
        let _ = writeln!(out, "  keep {keeps} installed links");
        for k in current.difference(&goal) {
            let _ = writeln!(out, "  1. withdraw {} — {}", k.0, k.1);
        }
        for l in self.all_links().filter(|l| !current.contains(&l.key())) {
            let _ = writeln!(
                out,
                "  2. establish {} — {} ({:.0} Mbps, {:+.1} dB)",
                l.a,
                l.b,
                l.bitrate_bps as f64 / 1e6,
                l.margin_db
            );
        }
        for (flow, path) in &self.routes {
            let hops: Vec<String> = path.iter().map(|p| p.to_string()).collect();
            let _ = writeln!(
                out,
                "  3. route {} → {}: {}",
                flow.0,
                flow.1,
                hops.join(" → ")
            );
        }
        out
    }
}

/// The components of a plan's utility score.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanScore {
    /// The combined scalar (higher is better).
    pub total: f64,
    /// Fraction of requests routed.
    pub demand_fraction: f64,
    /// Mean modelled margin over selected links, dB.
    pub mean_margin_db: f64,
    /// Redundant links per satisfied demand (capped contribution).
    pub redundancy_ratio: f64,
    /// Marginal-quality links carrying demand.
    pub marginal_links: usize,
}
