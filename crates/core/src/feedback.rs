//! Enactment feedback: the paper's proposed-but-unbuilt control loop.
//!
//! §5: "Since Loon's TS-SDN lacked a feedback loop and relied on
//! modeled data for network planning, links were retried repeatedly.
//! A better policy would have adapted to failures and tried an
//! alternate link if one existed." §7 proposes "conditioning link
//! selection on physical models augmented with enactment success
//! rate, link duration, and signal strength measurements".
//!
//! [`FeedbackStats`] keeps per-platform-pair evidence with exponential
//! decay (the world changes; old failures shouldn't condemn a pair
//! forever) and turns it into a solver cost multiplier. The
//! orchestrator feeds it from ledger events when
//! `SolverPolicy::enactment_feedback` is on; the `ablation_feedback`
//! experiment (E14) measures what Loon would have gained.

use std::collections::BTreeMap;
use tssdn_sim::{PlatformId, SimDuration, SimTime};

#[derive(Debug, Clone, Copy, Default)]
struct PairEvidence {
    /// Decayed attempt count.
    attempts: f64,
    /// Decayed success count.
    successes: f64,
    /// Decayed sum of established lifetimes, seconds.
    lifetime_s: f64,
    /// Decayed count of completed (ended) links.
    completed: f64,
    last_update: SimTime,
}

impl PairEvidence {
    fn decay(&mut self, now: SimTime, half_life: SimDuration) {
        let dt = now.since(self.last_update).as_secs_f64();
        if dt > 0.0 {
            let f = 0.5f64.powf(dt / half_life.as_secs_f64().max(1.0));
            self.attempts *= f;
            self.successes *= f;
            self.lifetime_s *= f;
            self.completed *= f;
            self.last_update = now;
        }
    }
}

/// Per-pair enactment/lifetime evidence with exponential forgetting.
#[derive(Debug)]
pub struct FeedbackStats {
    pairs: BTreeMap<(PlatformId, PlatformId), PairEvidence>,
    /// Evidence half-life.
    pub half_life: SimDuration,
    /// Attempts of evidence required before penalizing at all.
    pub min_evidence: f64,
    /// Maximum cost multiplier for a pair that always fails.
    pub max_penalty: f64,
}

impl Default for FeedbackStats {
    fn default() -> Self {
        FeedbackStats {
            pairs: BTreeMap::new(),
            half_life: SimDuration::from_hours(2),
            min_evidence: 2.0,
            max_penalty: 6.0,
        }
    }
}

fn key(a: PlatformId, b: PlatformId) -> (PlatformId, PlatformId) {
    (a.min(b), a.max(b))
}

impl FeedbackStats {
    /// A fresh, empty evidence store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record the outcome of one enactment attempt on a pair.
    pub fn record_enactment(&mut self, a: PlatformId, b: PlatformId, success: bool, now: SimTime) {
        let hl = self.half_life;
        let e = self.pairs.entry(key(a, b)).or_default();
        e.decay(now, hl);
        e.attempts += 1.0;
        if success {
            e.successes += 1.0;
        }
    }

    /// Record the realized lifetime of an ended link on a pair.
    pub fn record_lifetime(&mut self, a: PlatformId, b: PlatformId, lifetime_s: f64, now: SimTime) {
        let hl = self.half_life;
        let e = self.pairs.entry(key(a, b)).or_default();
        e.decay(now, hl);
        e.lifetime_s += lifetime_s;
        e.completed += 1.0;
    }

    /// Decayed enactment success rate, if enough evidence exists.
    fn success_rate(&self, a: PlatformId, b: PlatformId, now: SimTime) -> Option<f64> {
        let mut e = *self.pairs.get(&key(a, b))?;
        e.decay(now, self.half_life);
        if e.attempts < self.min_evidence {
            return None;
        }
        Some(e.successes / e.attempts)
    }

    /// The solver cost multiplier for a pair: 1 for unknown or
    /// reliable pairs, rising toward [`Self::max_penalty`] as the
    /// observed success rate collapses.
    fn cost_multiplier(&self, a: PlatformId, b: PlatformId, now: SimTime) -> f64 {
        match self.success_rate(a, b, now) {
            None => 1.0,
            Some(rate) => 1.0 + (self.max_penalty - 1.0) * (1.0 - rate).powi(2),
        }
    }

    /// Export every penalized pair (multiplier > 1) for the solver.
    pub fn penalties(&self, now: SimTime) -> BTreeMap<(PlatformId, PlatformId), f64> {
        self.pairs
            .keys()
            .map(|k| (*k, self.cost_multiplier(k.0, k.1, now)))
            .filter(|(_, m)| *m > 1.0 + 1e-9)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: u32) -> PlatformId {
        PlatformId(i)
    }

    #[test]
    fn no_evidence_means_no_penalty() {
        let f = FeedbackStats::new();
        assert_eq!(f.cost_multiplier(p(0), p(1), SimTime::ZERO), 1.0);
        assert!(f.success_rate(p(0), p(1), SimTime::ZERO).is_none());
    }

    #[test]
    fn single_failure_is_not_enough_evidence() {
        let mut f = FeedbackStats::new();
        f.record_enactment(p(0), p(1), false, SimTime::ZERO);
        assert!(f.success_rate(p(0), p(1), SimTime::from_secs(1)).is_none());
        assert_eq!(f.cost_multiplier(p(0), p(1), SimTime::from_secs(1)), 1.0);
    }

    #[test]
    fn repeated_failures_raise_the_penalty() {
        let mut f = FeedbackStats::new();
        for i in 0..4 {
            f.record_enactment(p(0), p(1), false, SimTime::from_secs(i * 60));
        }
        let now = SimTime::from_secs(300);
        assert!(f.success_rate(p(0), p(1), now).expect("evidence") < 0.01);
        let m = f.cost_multiplier(p(0), p(1), now);
        assert!(m > 5.0, "near max penalty: {m}");
    }

    #[test]
    fn reliable_pairs_stay_cheap() {
        let mut f = FeedbackStats::new();
        for i in 0..6 {
            f.record_enactment(p(0), p(1), true, SimTime::from_secs(i * 60));
        }
        let m = f.cost_multiplier(p(0), p(1), SimTime::from_secs(400));
        assert!((m - 1.0).abs() < 1e-9);
    }

    #[test]
    fn pair_key_is_order_insensitive() {
        let mut f = FeedbackStats::new();
        f.record_enactment(p(3), p(1), false, SimTime::ZERO);
        f.record_enactment(p(1), p(3), false, SimTime::ZERO);
        assert!(f.success_rate(p(1), p(3), SimTime::ZERO).is_some());
        assert!(f.success_rate(p(3), p(1), SimTime::ZERO).is_some());
    }

    #[test]
    fn evidence_decays_toward_forgiveness() {
        let mut f = FeedbackStats::new();
        for i in 0..4 {
            f.record_enactment(p(0), p(1), false, SimTime::from_secs(i));
        }
        let soon = f.cost_multiplier(p(0), p(1), SimTime::from_mins(5));
        // Several half-lives later the evidence falls below the
        // minimum and the penalty resets.
        let later = f.cost_multiplier(p(0), p(1), SimTime::from_hours(12));
        assert!(soon > 3.0);
        assert_eq!(later, 1.0, "old failures are forgotten");
    }

    #[test]
    fn penalties_export_only_penalized_pairs() {
        let mut f = FeedbackStats::new();
        for i in 0..4 {
            f.record_enactment(p(0), p(1), false, SimTime::from_secs(i));
            f.record_enactment(p(2), p(3), true, SimTime::from_secs(i));
        }
        let pen = f.penalties(SimTime::from_mins(2));
        assert!(pen.contains_key(&(p(0), p(1))));
        assert!(!pen.contains_key(&(p(2), p(3))));
    }
}
