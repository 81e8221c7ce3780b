//! The link-conflict rule (§3.2), stated once: two links cannot
//! coexist when they share a transceiver, or when they are on one band,
//! share a platform and their beams there are closer than
//! [`MIN_BEAM_SEPARATION_DEG`]. [`Solver::conflict`] is the statement;
//! the kept-set test the incumbents phase runs, the list-driven
//! invalidation the greedy loop runs and `core::explain` only narrow
//! *which* pairs it is asked about. `tssdn_oracle::planning` shares it on
//! purpose — it is the definition, not an algorithm.

use super::index::{LiveLists, SolveIndex};
use super::{Solver, MIN_BEAM_SEPARATION_DEG};
use crate::evaluator::CandidateLink;
use tssdn_geo::AzEl;
use tssdn_sim::PlatformId;

/// Why two links cannot coexist.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Conflict {
    /// They name the same transceiver.
    SharedTransceiver,
    /// Same band, a shared platform, and beams this close there.
    BeamsTooClose { separation_deg: f64 },
}

/// "No kept link on this transceiver slot."
pub(super) const NO_LINK: u32 = u32::MAX;

/// The two `(platform, beam)` ends of a link.
fn ends(l: &CandidateLink) -> [(PlatformId, AzEl); 2] {
    [(l.a.platform, l.pointing_a), (l.b.platform, l.pointing_b)]
}

/// The beam clause over two same-band links: whether `too_close` holds
/// for an end of `a` (numbered 0, 1) and an end of `b` at one platform.
fn beams_interfere(
    a: &CandidateLink,
    b: &CandidateLink,
    mut too_close: impl FnMut(usize, &AzEl, &AzEl) -> bool,
) -> bool {
    let ends_b = ends(b);
    ends(a).iter().enumerate().any(|(end, (pa, dir_a))| {
        ends_b
            .iter()
            .any(|(pb, dir_b)| pa == pb && too_close(end, dir_a, dir_b))
    })
}

impl Solver {
    /// The separation of two beams when it is under the minimum.
    fn too_close(&self, a: &AzEl, b: &AzEl) -> Option<f64> {
        let separation_deg = a.angular_distance_deg(b);
        (separation_deg < MIN_BEAM_SEPARATION_DEG).then_some(separation_deg)
    }

    /// Why `a` and `b` cannot coexist, if they cannot. Symmetric to
    /// the bit: transceiver equality is, and so is
    /// `angular_distance_deg`.
    pub(crate) fn conflict(&self, a: &CandidateLink, b: &CandidateLink) -> Option<Conflict> {
        if a.a == b.a || a.a == b.b || a.b == b.a || a.b == b.b {
            return Some(Conflict::SharedTransceiver);
        }
        if a.band != b.band {
            return None;
        }
        let mut found = None;
        beams_interfere(a, b, |_, dir_a, dir_b| {
            found = self.too_close(dir_a, dir_b);
            found.is_some()
        });
        found.map(|separation_deg| Conflict::BeamsTooClose { separation_deg })
    }

    /// Whether two candidates cannot coexist. Shared with the planning
    /// oracle: the definition of "cannot coexist".
    pub fn conflicts(&self, a: &CandidateLink, b: &CandidateLink) -> bool {
        self.conflict(a, b).is_some()
    }

    /// Whether candidate `i` conflicts with a kept link, `kept_on_tx`
    /// naming the kept link on each transceiver slot. A taken
    /// transceiver is two loads; only a candidate between two idle
    /// transceivers is put to the rule, against the at most
    /// `tx_stride` links kept at each end (two conflicting links share
    /// a platform, so those are all it could conflict with).
    pub(super) fn conflicts_with_kept(
        &self,
        index: &SolveIndex,
        kept_on_tx: &[u32],
        i: usize,
    ) -> bool {
        let (tx_a, tx_b) = index.tx_slots[i];
        if kept_on_tx[tx_a as usize] != NO_LINK || kept_on_tx[tx_b as usize] != NO_LINK {
            return true;
        }
        let (pa, pb) = index.endpoints[i];
        [pa, pb].into_iter().any(|p| {
            let first = p as usize * index.tx_stride;
            kept_on_tx[first..first + index.tx_stride]
                .iter()
                .any(|&k| k != NO_LINK && self.conflicts(&index.links[k as usize], &index.links[i]))
        })
    }

    /// Mark every still-viable candidate that conflicts with `chosen_i`
    /// inviable. The candidates on the chosen link's two transceiver lists share a
    /// transceiver with it; the ones on its two platform × band lists
    /// share its band and a platform, so once the first lot is dead
    /// what is left of the rule is the beam clause — memoised per
    /// chosen end on the *bits of the other beam* (the antenna pairings
    /// of one platform pair share a direction and sit next to each
    /// other in the list; a graph may still carry two directions for
    /// one platform pair, so the pair is not a usable key).
    pub(super) fn invalidate_conflicting(
        &self,
        index: &SolveIndex,
        live: &LiveLists,
        chosen_i: usize,
        viable: &mut [bool],
    ) {
        let (tx_a, tx_b) = index.tx_slots[chosen_i];
        for slot in [tx_a, tx_b] {
            for &j in live.by_tx.list(slot) {
                if j as usize != chosen_i {
                    viable[j as usize] = false;
                }
            }
        }
        let chosen = &index.links[chosen_i];
        let mut memo: [Option<((u64, u64), bool)>; 2] = [None, None];
        let (pa, pb) = index.endpoints[chosen_i];
        for p in [pa, pb] {
            for &j in live.by_platform_band.list(index.band_slot(p, chosen.band)) {
                if j as usize == chosen_i || !viable[j as usize] {
                    continue;
                }
                let other = &index.links[j as usize];
                let interferes = beams_interfere(chosen, other, |end, dir, dir_other| {
                    let key = (dir_other.az_deg.to_bits(), dir_other.el_deg.to_bits());
                    match memo[end] {
                        Some((k, verdict)) if k == key => verdict,
                        _ => {
                            let verdict = self.too_close(dir, dir_other).is_some();
                            memo[end] = Some((key, verdict));
                            verdict
                        }
                    }
                });
                debug_assert_eq!(interferes, self.conflicts(chosen, other));
                viable[j as usize] = !interferes;
            }
        }
    }
}
