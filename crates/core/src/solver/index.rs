//! The per-solve dense index: platforms and transceivers interned to
//! slots ([`SolveIndex`], built before the incumbents are placed) and
//! the lists the greedy loop walks ([`LiveLists`], built after, over
//! what is still viable). Both are read-only once built.

use crate::evaluator::{platform_runs, CandidateLink};
use std::collections::{BTreeMap, BTreeSet};
use tssdn_dataplane::BackhaulRequest;
use tssdn_link::TransceiverId;
use tssdn_sim::PlatformId;

/// Lists keyed by a dense slot, stored back to back in one buffer:
/// list `s` is `items[start[s]..end[s]]`, each in the order its ids
/// were given (the order repeated `push`es per key would have
/// produced).
pub(super) struct SlotLists<T> {
    start: Vec<u32>,
    end: Vec<u32>,
    pub(super) items: Vec<T>,
}

impl<T: Copy + Default> SlotLists<T> {
    /// Build `n_slots` lists from the up-to-two `(slot, item)` entries
    /// each of `ids` contributes, in two counting-sort passes.
    fn build(
        n_slots: usize,
        ids: impl Iterator<Item = u32> + Clone,
        entries_of: impl Fn(usize) -> [Option<(u32, T)>; 2],
    ) -> Self {
        let mut start = vec![0u32; n_slots + 1];
        for i in ids.clone() {
            for (slot, _) in entries_of(i as usize).into_iter().flatten() {
                start[slot as usize + 1] += 1;
            }
        }
        for s in 0..n_slots {
            start[s + 1] += start[s];
        }
        let mut end = start[..n_slots].to_vec();
        let mut items = vec![T::default(); start[n_slots] as usize];
        for i in ids {
            for (slot, item) in entries_of(i as usize).into_iter().flatten() {
                let at = &mut end[slot as usize];
                items[*at as usize] = item;
                *at += 1;
            }
        }
        start.truncate(n_slots);
        SlotLists { start, end, items }
    }

    pub(super) fn list(&self, slot: u32) -> &[T] {
        &self.items[self.start[slot as usize] as usize..self.end[slot as usize] as usize]
    }
}

/// One candidate graph with its platforms interned and each
/// candidate's platform and transceiver slots.
pub(super) struct SolveIndex<'a> {
    /// The candidates; every per-candidate vector of the solve is
    /// parallel to this.
    pub(super) links: &'a [CandidateLink],
    /// Every platform a candidate, request or gateway names, sorted:
    /// a platform's slot is its position here, so slot order is
    /// `PlatformId` order and Dijkstra's `(cost, node)` tie-breaks
    /// agree with the reference's `(cost, PlatformId)` ordering.
    pub(super) plats: Vec<PlatformId>,
    /// Platform slots of each candidate's `(a, b)` ends.
    pub(super) endpoints: Vec<(u32, u32)>,
    /// Transceiver slots (`platform slot · tx_stride + antenna index`)
    /// of each candidate's `(a, b)` ends.
    pub(super) tx_slots: Vec<(u32, u32)>,
    /// One more than the largest antenna index in the graph — an
    /// outlandish index costs slots, not correctness.
    pub(super) tx_stride: usize,
    /// One more than the largest band in the graph.
    band_stride: usize,
}

impl<'a> SolveIndex<'a> {
    pub(super) fn build(
        links: &'a [CandidateLink],
        requests: &[BackhaulRequest],
        gateways: &BTreeMap<PlatformId, Vec<PlatformId>>,
    ) -> Self {
        // Intern by sort + dedup.
        let mut plats = platform_runs(links);
        plats.extend(requests.iter().map(|r| r.node));
        plats.extend(gateways.values().flatten());
        plats.sort_unstable();
        plats.dedup();

        let tx_stride = links
            .iter()
            .map(|l| l.a.index.max(l.b.index) as usize + 1)
            .max()
            .unwrap_or(1);
        let band_stride = links.iter().map(|l| l.band as usize + 1).max().unwrap_or(1);

        // Slot look-ups remember the last id they resolved (keyed on
        // the id itself, so an ungrouped graph only costs searches).
        let slot = |memo: &mut Option<(PlatformId, u32)>, p: PlatformId| -> u32 {
            match *memo {
                Some((id, slot)) if id == p => slot,
                _ => {
                    let slot = plats.binary_search(&p).expect("interned") as u32;
                    *memo = Some((p, slot));
                    slot
                }
            }
        };
        let (mut memo_a, mut memo_b) = (None, None);
        let mut endpoints = Vec::with_capacity(links.len());
        let mut tx_slots = Vec::with_capacity(links.len());
        for l in links {
            let pa = slot(&mut memo_a, l.a.platform);
            let pb = slot(&mut memo_b, l.b.platform);
            endpoints.push((pa, pb));
            tx_slots.push((
                pa * tx_stride as u32 + l.a.index as u32,
                pb * tx_stride as u32 + l.b.index as u32,
            ));
        }
        SolveIndex {
            links,
            plats,
            endpoints,
            tx_slots,
            tx_stride,
            band_stride,
        }
    }

    /// The slot of an interned platform.
    pub(super) fn slot_of(&self, p: PlatformId) -> u32 {
        self.plats.binary_search(&p).expect("interned") as u32
    }

    /// How many transceiver slots there are.
    pub(super) fn n_tx_slots(&self) -> usize {
        self.plats.len() * self.tx_stride
    }

    /// The slot of a transceiver some candidate could name: `None` for
    /// a platform that is not interned or an antenna index past
    /// `tx_stride`.
    fn tx_slot_of(&self, t: TransceiverId) -> Option<u32> {
        let p = self.plats.binary_search(&t.platform).ok()?;
        ((t.index as usize) < self.tx_stride).then(|| (p * self.tx_stride) as u32 + t.index as u32)
    }

    /// Per candidate, whether its pairing key is in `previous` —
    /// answered from the previous keys outward: the few of them become
    /// `(tx_a, tx_b)` slot pairs listed by `tx_a`, and each candidate
    /// asks with its own slots, instead of one tree look-up per
    /// candidate. A key naming a transceiver no candidate could name
    /// matches nothing.
    pub(super) fn previous_members(
        &self,
        previous: &BTreeSet<(TransceiverId, TransceiverId)>,
    ) -> Vec<bool> {
        let pairs: Vec<(u32, u32)> = previous
            .iter()
            .filter_map(|&(a, b)| Some((self.tx_slot_of(a)?, self.tx_slot_of(b)?)))
            .collect();
        let partners = SlotLists::build(self.n_tx_slots(), 0..pairs.len() as u32, |k| {
            [Some(pairs[k]), None]
        });
        self.tx_slots
            .iter()
            .map(|&(tx_a, tx_b)| partners.list(tx_a).contains(&tx_b))
            .collect()
    }

    /// The `by_platform_band` slot of (platform slot, band).
    pub(super) fn band_slot(&self, platform_slot: u32, band: u8) -> u32 {
        platform_slot * self.band_stride as u32 + band as u32
    }
}

/// The lists the greedy loop walks, built over the candidates still
/// viable once the incumbents are placed. A chosen candidate's
/// conflicts are confined to (a) candidates sharing one of its
/// transceivers and (b) same-band candidates touching one of its
/// platforms — `Solver::conflict` is `None` for everything else — so
/// invalidation after a selection walks only those lists instead of
/// rescanning the whole candidate set.
pub(super) struct LiveLists {
    /// Candidate indices using a given transceiver slot.
    pub(super) by_tx: SlotLists<u32>,
    /// Candidate indices touching a given (platform slot, band).
    pub(super) by_platform_band: SlotLists<u32>,
    /// Dense adjacency: node → (neighbor, candidate).
    pub(super) adj: SlotLists<(u32, u32)>,
}

impl LiveLists {
    /// `survivors` ascending, so each list is in candidate order: a
    /// walk of one sees the live entries a walk of the full list would
    /// have seen, in the same sequence.
    pub(super) fn build(index: &SolveIndex, survivors: &[u32]) -> LiveLists {
        let np = index.plats.len();
        let ids = survivors.iter().copied();
        let band = |i: usize| index.links[i].band;
        LiveLists {
            by_tx: SlotLists::build(index.n_tx_slots(), ids.clone(), |i| {
                let (tx_a, tx_b) = index.tx_slots[i];
                [Some((tx_a, i as u32)), Some((tx_b, i as u32))]
            }),
            by_platform_band: SlotLists::build(np * index.band_stride, ids.clone(), |i| {
                let (pa, pb) = index.endpoints[i];
                [
                    Some((index.band_slot(pa, band(i)), i as u32)),
                    (pb != pa).then_some((index.band_slot(pb, band(i)), i as u32)),
                ]
            }),
            adj: SlotLists::build(np, ids, |i| {
                let (pa, pb) = index.endpoints[i];
                [Some((pa, (pb, i as u32))), Some((pb, (pa, i as u32)))]
            }),
        }
    }
}
