//! Bounded store-and-forward buffering — the delay-tolerant plane.
//!
//! The paper's data plane fails *static* under control outages: a cut
//! node keeps forwarding on stale routes. This module extends that
//! philosophy one step further down: when a flow's route is gone
//! entirely (primary and alternate), its bits can wait on the
//! last-known on-path balloon instead of being dropped, and drain once
//! a route reappears. The production system never had this; it is the
//! disruption-tolerant axis the Balloon-to-Balloon AdHoc work
//! motivates for intermittently connected meshes.
//!
//! The buffer is strictly bounded in **bytes** and **age**, with a
//! deterministic eviction order, because determinism is the repo-wide
//! contract: every operation is exact integer arithmetic over a FIFO
//! of chunks — a flow's bits with their enqueue stamp — so identical
//! call sequences produce identical buffers, evictions, and drains —
//! bit-for-bit, regardless of worker count.
//!
//! Policy (enforced by callers, pinned by proptests):
//! * only Bulk-class traffic may enter — Control stays fail-fast;
//! * byte bound: enqueueing past the bound evicts the *oldest* bits
//!   first (the newest data is the most likely to still be useful to
//!   a user when connectivity returns);
//! * age bound: chunks **at or past** `max_age_ms` are dropped by
//!   [`StoreForwardBuffer::expire`], never delivered — a chunk
//!   exactly at the bound is evicted, not drained;
//! * drains are FIFO: oldest bits leave first, each carrying its
//!   enqueue timestamp so telemetry can account age-of-delivery.
//!
//! Custody transfer extends the state machine: resident bits can be
//! **extracted** for handoff to another node's buffer
//! ([`StoreForwardBuffer::extract_segments`]) and **accepted** there
//! ([`StoreForwardBuffer::accept_segments`]) — or refused, when they
//! arrive over-age or past the acceptor's free space. Transfers are
//! a third ledger besides drains and evictions, so per-buffer
//! conservation becomes:
//!
//! ```text
//! queued + transferred_in == drained + evicted + resident + transferred_out
//! ```
//!
//! Accepted chunks keep their original enqueue stamps and merge into
//! the acceptor's FIFO in age order, so FIFO-equals-age-order (the
//! invariant `enqueue_run`, `expire` and `drain_runs` all rely on)
//! survives the handoff.
//!
//! The FIFO is stored run-length: the chunks one enqueue adds for
//! consecutive flow keys are one [`BufferedSegment`] — a stamp, the
//! first key, and a `u64` of bits per flow — so a resident chunk costs
//! eight bytes, and a routeless site's tick is one allocation, freed
//! whole when its last chunk leaves. Every operation still reads and
//! returns chunk for chunk what a FIFO of single chunks would.

use std::collections::VecDeque;

/// A flow key whose successor is known, so a run of consecutive keys
/// can be stored as its first key and a length.
pub trait FlowKey: Copy + Eq {
    /// The key `n` places after `self`, wrapping at the type's end.
    fn offset(self, n: usize) -> Self;
}

impl FlowKey for u32 {
    fn offset(self, n: usize) -> Self {
        self.wrapping_add(n as u32)
    }
}

/// A run of chunks that share one enqueue stamp and have consecutive
/// flow keys: slot `i` holds the bits of flow `first.offset(i)`, so a
/// resident chunk costs its eight bytes of bits and nothing else. A
/// zero slot is a *hole* — a flow of the run that queued nothing — and
/// is no chunk. The first `head` slots are already consumed; the slot
/// at `head` and the last slot are never holes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BufferedSegment<K> {
    enqueued_ms: u64,
    first: K,
    head: usize,
    bits: Box<[u64]>,
}

impl<K: FlowKey> BufferedSegment<K> {
    /// The segment of `bits` for consecutive flows from `first`, at
    /// exactly the length between its outermost non-zero slots; `None`
    /// when every slot is a hole.
    fn new(enqueued_ms: u64, first: K, mut bits: Vec<u64>) -> Option<Self> {
        let lead = bits.iter().position(|&b| b > 0)?;
        let end = bits.iter().rposition(|&b| b > 0)? + 1;
        bits.truncate(end);
        bits.drain(..lead);
        Some(BufferedSegment {
            enqueued_ms,
            first: first.offset(lead),
            head: 0,
            bits: bits.into_boxed_slice(),
        })
    }

    /// The slots not yet consumed.
    fn live(&self) -> &[u64] {
        &self.bits[self.head..]
    }

    /// Bits in the segment.
    pub fn bits(&self) -> u64 {
        self.live().iter().sum()
    }

    /// The segment's chunks as `(flow, enqueued_ms, bits)`, in
    /// flow-key order.
    pub fn chunks(&self) -> impl Iterator<Item = (K, u64, u64)> + '_ {
        let slots = self.bits.iter().enumerate().skip(self.head);
        slots
            .filter(|&(_, &bits)| bits > 0)
            .map(|(i, &bits)| (self.first.offset(i), self.enqueued_ms, bits))
    }
}

/// A per-node bounded, age-evicted FIFO store-and-forward buffer.
///
/// `K` identifies the flow a chunk belongs to (the traffic engine
/// uses its dense flow index). Chunks from different flows share one
/// FIFO per node, so eviction and drain order is global arrival
/// order — deterministic and starvation-free.
///
/// The FIFO is stored as [`BufferedSegment`]s, each allocated at its
/// exact length, consumed in place from its front and freed whole.
/// No segment is empty, so the front of the FIFO is always a chunk.
#[derive(Debug, Clone)]
pub struct StoreForwardBuffer<K> {
    max_bits: u64,
    max_age_ms: u64,
    segments: VecDeque<BufferedSegment<K>>,
    total_bits: u64,
    queued_bits: u64,
    drained_bits: u64,
    evicted_bits: u64,
    transferred_in_bits: u64,
    transferred_out_bits: u64,
}

impl<K: FlowKey> StoreForwardBuffer<K> {
    /// An empty buffer bounded at `max_bytes` of payload and
    /// `max_age_ms` of residency.
    pub fn new(max_bytes: u64, max_age_ms: u64) -> Self {
        StoreForwardBuffer {
            max_bits: max_bytes.saturating_mul(8),
            max_age_ms,
            segments: VecDeque::new(),
            total_bits: 0,
            queued_bits: 0,
            drained_bits: 0,
            evicted_bits: 0,
            transferred_in_bits: 0,
            transferred_out_bits: 0,
        }
    }

    /// Bits currently resident.
    pub fn total_bits(&self) -> u64 {
        self.total_bits
    }

    /// The byte bound expressed in bits.
    pub fn max_bits(&self) -> u64 {
        self.max_bits
    }

    /// Lifetime bits accepted into the buffer.
    pub fn queued_bits(&self) -> u64 {
        self.queued_bits
    }

    /// Lifetime bits drained toward delivery.
    pub fn drained_bits(&self) -> u64 {
        self.drained_bits
    }

    /// Lifetime bits evicted (byte bound, age bound, or a wipe).
    pub fn evicted_bits(&self) -> u64 {
        self.evicted_bits
    }

    /// Lifetime bits accepted from another buffer's custody.
    pub fn transferred_in_bits(&self) -> u64 {
        self.transferred_in_bits
    }

    /// Lifetime bits extracted for handoff to another buffer.
    pub fn transferred_out_bits(&self) -> u64 {
        self.transferred_out_bits
    }

    /// True when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.segments.is_empty()
    }

    /// Age of the oldest resident chunk at `now_ms`, if any.
    pub fn oldest_age_ms(&self, now_ms: u64) -> Option<u64> {
        self.segments
            .front()
            .map(|s| now_ms.saturating_sub(s.enqueued_ms))
    }

    /// `(segments, slots)` resident: what the buffer costs in memory
    /// beyond its payload is eight bytes a slot, which the byte bound
    /// does not limit — only the age bound and the enqueue cadence do.
    pub fn census(&self) -> (usize, usize) {
        let slots = self.segments.iter().map(|s| s.bits.len()).sum();
        (self.segments.len(), slots)
    }

    /// Queue the chunks of consecutive flows from `first`, one item of
    /// `bits` each, stamped `now_ms`: one segment, however many of the
    /// flows queue nothing (a zero is a hole, not a chunk). Then evict
    /// the oldest bits as needed to respect the byte bound. Returns
    /// `(queued, evicted)` bits. Callers must enqueue in nondecreasing
    /// `now_ms` order (the FIFO doubles as the age order).
    ///
    /// The buffer ends exactly as after one single-chunk run per flow:
    /// byte-bound eviction removes a prefix of the FIFO's bit stream
    /// and the buffer is within its bound on entry, so the per-chunk
    /// overflows add up to the run's one overflow and the same prefix
    /// goes — even when it ends inside one of the new chunks.
    pub fn enqueue_run(
        &mut self,
        now_ms: u64,
        first: K,
        bits: impl IntoIterator<Item = u64>,
    ) -> (u64, u64) {
        let segment = BufferedSegment::new(now_ms, first, bits.into_iter().collect());
        let queued = segment.as_ref().map_or(0, BufferedSegment::bits);
        self.segments.extend(segment);
        self.queued_bits += queued;
        self.total_bits += queued;
        let over = self.total_bits.saturating_sub(self.max_bits);
        let evicted = self.consume(over, |_, _, _| {});
        self.evicted_bits += evicted;
        (queued, evicted)
    }

    /// Take up to `budget` bits off the front of the FIFO, handing
    /// `sink` what goes as `(enqueued_ms, first flow, bits)` runs — a
    /// segment's slots for consecutive flows from `first`, holes
    /// included; the part taken of a chunk that only partially fits is
    /// a run of its own, and the remainder stays at the front. Returns
    /// the bits taken.
    fn consume(&mut self, budget: u64, mut sink: impl FnMut(u64, K, &[u64])) -> u64 {
        let mut left = budget;
        while left > 0 {
            let Some(front) = self.segments.front_mut() else {
                break;
            };
            let (stamp, first) = (front.enqueued_ms, front.first.offset(front.head));
            let live = &mut front.bits[front.head..];
            // Whole chunks that fit, and the holes behind them: the
            // scan stops on a chunk, so the front never rests on a hole.
            let mut whole = 0;
            while whole < live.len() && live[whole] <= left {
                left -= live[whole];
                whole += 1;
            }
            if whole > 0 {
                sink(stamp, first, &live[..whole]);
            }
            if whole == live.len() {
                self.segments.pop_front();
                continue;
            }
            if left > 0 {
                live[whole] -= left;
                sink(stamp, first.offset(whole), &[left]);
                left = 0;
            }
            front.head += whole;
        }
        let taken = budget - left;
        self.total_bits -= taken;
        taken
    }

    /// Drop every chunk at or past the age bound at `now_ms` — a
    /// chunk exactly at `max_age_ms` is evicted, never delivered.
    /// Returns the bits aged out.
    pub fn expire(&mut self, now_ms: u64) -> u64 {
        let mut evicted = 0u64;
        while let Some(front) = self.segments.front() {
            if now_ms.saturating_sub(front.enqueued_ms) < self.max_age_ms {
                break;
            }
            evicted += front.bits();
            self.segments.pop_front();
        }
        self.total_bits -= evicted;
        self.evicted_bits += evicted;
        evicted
    }

    /// Drain up to `budget_bits` toward delivery, FIFO. `sink` is
    /// handed what drains as `(first flow, age_ms, bits)` runs — the
    /// bits of consecutive flows from `first` that waited `age_ms` at
    /// `now_ms`, a zero being a flow with nothing in the run. A chunk
    /// that only partially fits keeps its remainder (and its original
    /// enqueue stamp) at the front. Returns the bits drained.
    pub fn drain_runs(
        &mut self,
        now_ms: u64,
        budget_bits: u64,
        mut sink: impl FnMut(K, u64, &[u64]),
    ) -> u64 {
        let drained = self.consume(budget_bits, |stamp, first, run| {
            sink(first, now_ms.saturating_sub(stamp), run)
        });
        self.drained_bits += drained;
        drained
    }

    /// Remove up to `budget_bits` of the oldest resident bits for
    /// handoff to another buffer's custody, as segments oldest first —
    /// what [`Self::accept_segments`] takes. FIFO like a drain, but
    /// accounted as a transfer: the bits leave the resident state
    /// without counting as drained or evicted. A chunk that only
    /// partially fits is split; both halves keep the original enqueue
    /// stamp, so age accounting survives the handoff.
    pub fn extract_segments(&mut self, budget_bits: u64) -> Vec<BufferedSegment<K>> {
        let mut out = Vec::new();
        let taken = self.consume(budget_bits, |stamp, first, run| {
            out.extend(BufferedSegment::new(stamp, first, run.to_vec()));
        });
        self.transferred_out_bits += taken;
        out
    }

    /// Assume custody of `incoming` segments at `now_ms`. Returns
    /// `(accepted_bits, refused_bits)`.
    ///
    /// Refusal rules, in order:
    /// * chunks at or past the age bound on arrival are refused —
    ///   accepting them would only schedule an eviction;
    /// * only the free space below the byte bound is offered: a
    ///   custodian never evicts its own resident bits to make room.
    ///   Free space goes to the **newest** incoming bits first
    ///   (mirroring byte-bound eviction, which keeps the newest),
    ///   with the boundary chunk split if it only partially fits.
    ///
    /// Accepted chunks keep their original enqueue stamps and merge
    /// into the FIFO in age order (resident bits first on ties), so
    /// FIFO order remains age order. A segment has one stamp, so
    /// sorting, refusing and merging by segment gives the chunk
    /// sequence these rules give chunk by chunk.
    pub fn accept_segments(
        &mut self,
        mut incoming: Vec<BufferedSegment<K>>,
        now_ms: u64,
    ) -> (u64, u64) {
        incoming.sort_by_key(|s| s.enqueued_ms);
        let mut accepted = 0u64;
        let mut refused = 0u64;
        let mut room = self.max_bits - self.total_bits;
        let mut take: Vec<BufferedSegment<K>> = Vec::new();
        for s in incoming.into_iter().rev() {
            let bits = s.bits();
            if room == 0 || now_ms.saturating_sub(s.enqueued_ms) >= self.max_age_ms {
                refused += bits;
            } else if bits <= room {
                room -= bits;
                accepted += bits;
                take.push(s);
            } else {
                // The boundary segment: its newest chunks fill the
                // room, the chunk that only partially fits is trimmed
                // to what is left of it, and the older ones are refused.
                let mut kept = s.bits.into_vec();
                let mut cut = kept.len() - 1;
                while kept[cut] <= room {
                    room -= kept[cut];
                    cut -= 1;
                }
                kept[cut] = std::mem::take(&mut room);
                kept.drain(..cut);
                let part = BufferedSegment::new(s.enqueued_ms, s.first.offset(cut), kept)
                    .expect("room for a bit");
                accepted += part.bits();
                refused += bits - part.bits();
                take.push(part);
            }
        }
        take.reverse();
        if !take.is_empty() {
            let mut resident = std::mem::take(&mut self.segments);
            let mut take = VecDeque::from(take);
            let mut merged = VecDeque::with_capacity(resident.len() + take.len());
            while let (Some(r), Some(t)) = (resident.front(), take.front()) {
                if r.enqueued_ms <= t.enqueued_ms {
                    merged.push_back(resident.pop_front().expect("front exists"));
                } else {
                    merged.push_back(take.pop_front().expect("front exists"));
                }
            }
            merged.extend(resident);
            merged.extend(take);
            self.segments = merged;
            self.total_bits += accepted;
        }
        self.transferred_in_bits += accepted;
        (accepted, refused)
    }

    /// Evict everything resident at once — the node died with its
    /// backlog. Returns the bits lost; they count as evicted.
    pub fn wipe(&mut self) -> u64 {
        let lost = self.total_bits;
        self.segments.clear();
        self.total_bits = 0;
        self.evicted_bits += lost;
        lost
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn buf(max_bytes: u64, max_age_ms: u64) -> StoreForwardBuffer<u32> {
        StoreForwardBuffer::new(max_bytes, max_age_ms)
    }

    /// Queue one chunk; returns the bits evicted.
    fn enqueue(b: &mut StoreForwardBuffer<u32>, flow: u32, now_ms: u64, bits: u64) -> u64 {
        b.enqueue_run(now_ms, flow, [bits]).1
    }

    /// Drain as `(flow, bits, age_ms)` chunks, holes skipped.
    fn drain(b: &mut StoreForwardBuffer<u32>, now_ms: u64, budget: u64) -> Vec<(u32, u64, u64)> {
        let mut out = Vec::new();
        b.drain_runs(now_ms, budget, |first, age_ms, run| {
            let slots = run.iter().enumerate().filter(|&(_, &bits)| bits > 0);
            out.extend(slots.map(|(i, &bits)| (first.offset(i), bits, age_ms)));
        });
        out
    }

    /// The `(flow, enqueued_ms, bits)` chunks of `segments`, in order.
    fn chunks(segments: &[BufferedSegment<u32>]) -> Vec<(u32, u64, u64)> {
        segments.iter().flat_map(BufferedSegment::chunks).collect()
    }

    /// Every resident chunk, oldest first.
    fn resident(b: &StoreForwardBuffer<u32>) -> Vec<(u32, u64, u64)> {
        chunks(&b.clone().extract_segments(u64::MAX))
    }

    /// A segment of one chunk.
    fn chunk(flow: u32, enqueued_ms: u64, bits: u64) -> BufferedSegment<u32> {
        BufferedSegment::new(enqueued_ms, flow, vec![bits]).expect("bits")
    }

    #[test]
    fn enqueue_accumulates_until_the_byte_bound() {
        let mut b = buf(10, 1_000); // 80 bits
        assert_eq!(enqueue(&mut b, 0, 0, 50), 0);
        assert_eq!(enqueue(&mut b, 1, 1, 30), 0);
        assert_eq!(b.total_bits(), 80);
        // 10 more bits push the oldest 10 out (partial front chunk).
        assert_eq!(enqueue(&mut b, 2, 2, 10), 10);
        assert_eq!(b.total_bits(), 80);
        assert_eq!(b.evicted_bits(), 10);
        // Oldest-first: the front chunk shrank, newer ones intact.
        assert_eq!(
            drain(&mut b, 2, u64::MAX),
            vec![(0, 40, 2), (1, 30, 1), (2, 10, 0)]
        );
    }

    #[test]
    fn oversized_chunk_trims_itself() {
        let mut b = buf(10, 1_000);
        assert_eq!(enqueue(&mut b, 7, 0, 200), 120);
        assert_eq!(b.total_bits(), 80);
        assert_eq!(drain(&mut b, 0, u64::MAX), vec![(7, 80, 0)]);
    }

    #[test]
    fn batch_enqueue_equals_chunk_by_chunk() {
        // A hole, a chunk larger than the whole buffer mid-run, and a
        // resident chunk the run pushes out.
        let run = [30u64, 0, 200, 25, 10];
        for max_bytes in [0, 3, 10, 40] {
            let mut one_by_one = buf(max_bytes, 1_000);
            enqueue(&mut one_by_one, 0, 5, 60);
            let mut batched = one_by_one.clone();
            let evicted: u64 = (1..)
                .zip(run)
                .map(|(f, bits)| enqueue(&mut one_by_one, f, 9, bits))
                .sum();
            assert_eq!(batched.enqueue_run(9, 1, run), (265, evicted));
            assert_eq!(resident(&batched), resident(&one_by_one));
            assert_eq!(batched.total_bits(), one_by_one.total_bits());
            assert_eq!(batched.queued_bits(), one_by_one.queued_bits());
            assert_eq!(batched.evicted_bits(), one_by_one.evicted_bits());
        }
    }

    #[test]
    fn zero_capacity_buffer_evicts_everything() {
        let mut b = buf(0, 1_000);
        assert_eq!(enqueue(&mut b, 0, 0, 42), 42);
        assert!(b.is_empty());
        assert_eq!(b.queued_bits(), 42);
        assert_eq!(b.evicted_bits(), 42);
    }

    #[test]
    fn expire_drops_chunks_at_or_past_the_age_bound() {
        let mut b = buf(1_000, 100);
        enqueue(&mut b, 0, 0, 10);
        enqueue(&mut b, 1, 60, 20);
        // At t=99 the first chunk is still under the bound: kept.
        assert_eq!(b.expire(99), 0);
        // At t=100 it is exactly at the bound: evicted, not drained.
        assert_eq!(b.expire(100), 10);
        assert_eq!(b.total_bits(), 20);
        // At t=160 the second hits the bound too.
        assert_eq!(b.expire(160), 20);
        assert!(b.is_empty());
        assert_eq!(b.evicted_bits(), 30);
    }

    #[test]
    fn chunk_exactly_at_max_age_is_evicted_not_drained() {
        let mut b = buf(1_000, 100);
        enqueue(&mut b, 0, 50, 40);
        // The engine always expires before draining within a tick:
        // at t=150 the chunk is exactly max_age old, so the expire
        // pass removes it and the drain sees an empty buffer.
        assert_eq!(b.expire(150), 40);
        assert!(drain(&mut b, 150, u64::MAX).is_empty());
        assert_eq!(b.drained_bits(), 0);
        assert_eq!(b.evicted_bits(), 40);
    }

    #[test]
    fn drain_is_fifo_with_partial_front_and_age_stamps() {
        let mut b = buf(1_000, 10_000);
        enqueue(&mut b, 0, 100, 50);
        enqueue(&mut b, 1, 200, 30);
        assert_eq!(drain(&mut b, 500, 40), vec![(0, 40, 400)]);
        // Remainder keeps its original enqueue time.
        assert_eq!(
            drain(&mut b, 700, u64::MAX),
            vec![(0, 10, 600), (1, 30, 500)]
        );
        assert!(b.is_empty());
    }

    #[test]
    fn conservation_holds_across_operations() {
        let mut b = buf(12, 50); // 96 bits
        for t in 0..40u64 {
            enqueue(&mut b, (t % 5) as u32, t * 10, 7 + t % 13);
            if t % 3 == 0 {
                b.expire(t * 10);
            }
            if t % 7 == 0 {
                drain(&mut b, t * 10, 11);
            }
        }
        assert_eq!(
            b.queued_bits(),
            b.drained_bits() + b.evicted_bits() + b.total_bits(),
            "no bit may leak"
        );
        assert!(b.total_bits() <= b.max_bits());
    }

    #[test]
    fn extract_custody_is_fifo_and_counts_as_transfer() {
        let mut b = buf(1_000, 10_000);
        enqueue(&mut b, 0, 100, 50);
        enqueue(&mut b, 1, 200, 30);
        assert_eq!(
            chunks(&b.extract_segments(60)),
            vec![(0, 100, 50), (1, 200, 10)],
            "oldest-first, split keeps the stamp"
        );
        assert_eq!(b.total_bits(), 20);
        assert_eq!(b.transferred_out_bits(), 60);
        assert_eq!(b.drained_bits(), 0);
        assert_eq!(b.evicted_bits(), 0);
        // Per-buffer conservation with the transfer ledger.
        assert_eq!(
            b.queued_bits() + b.transferred_in_bits(),
            b.drained_bits() + b.evicted_bits() + b.total_bits() + b.transferred_out_bits()
        );
    }

    #[test]
    fn accept_custody_refuses_overage_and_overflow() {
        let mut b = buf(10, 100); // 80 bits capacity
        enqueue(&mut b, 9, 150, 30);
        // The first arrival is exactly max_age old at t=160: refused.
        let incoming = vec![chunk(0, 60, 10), chunk(1, 100, 40), chunk(2, 160, 40)];
        let (accepted, refused) = b.accept_segments(incoming, 160);
        // 50 bits free; the newest 40 fit whole, then 10 of flow 1's
        // 40 — the rest (30) plus the over-age 10 are refused.
        assert_eq!((accepted, refused), (50, 40));
        assert_eq!(b.total_bits(), 80);
        assert_eq!(b.transferred_in_bits(), 50);
        // Merge preserves age order across resident and accepted.
        assert_eq!(
            drain(&mut b, 160, u64::MAX),
            vec![(1, 10, 60), (9, 30, 10), (2, 40, 0)]
        );
    }

    #[test]
    fn accept_custody_never_evicts_resident_bits() {
        let mut b = buf(10, 1_000);
        enqueue(&mut b, 0, 0, 80); // full
        assert_eq!(b.accept_segments(vec![chunk(1, 5, 25)], 10), (0, 25));
        assert_eq!(b.total_bits(), 80);
        assert_eq!(b.evicted_bits(), 0);
    }

    #[test]
    fn wipe_loses_the_whole_backlog_as_evictions() {
        let mut b = buf(1_000, 10_000);
        enqueue(&mut b, 0, 0, 50);
        enqueue(&mut b, 1, 10, 30);
        assert_eq!(b.wipe(), 80);
        assert!(b.is_empty());
        assert_eq!(b.evicted_bits(), 80);
        assert_eq!(b.wipe(), 0, "wiping empty is a no-op");
        assert_eq!(
            b.queued_bits() + b.transferred_in_bits(),
            b.drained_bits() + b.evicted_bits() + b.total_bits() + b.transferred_out_bits()
        );
    }

    #[test]
    fn a_batch_costs_one_segment_and_a_slot_per_flow() {
        let (flows, ticks) = (40u32, 7u64);
        let mut b = buf(1 << 20, 10_000);
        for _ in 0..ticks {
            // Same stamp every time: runs that share a stamp stay a
            // segment each, the keys start over.
            b.enqueue_run(5, 0, vec![3; flows as usize]);
        }
        assert_eq!(
            b.census(),
            (ticks as usize, (flows as u64 * ticks) as usize)
        );
        assert_eq!(b.total_bits(), 3 * flows as u64 * ticks);
        // Consumed slots are freed a segment at a time.
        drain(&mut b, 5, 3 * flows as u64 + 1);
        assert_eq!(b.census().0, ticks as usize - 1);
        drain(&mut b, 5, u64::MAX);
        assert_eq!(b.census(), (0, 0));
    }

    #[test]
    fn holes_cost_no_segment_and_are_no_chunks() {
        let mut b = buf(1_000, 10_000);
        assert_eq!(b.enqueue_run(1, 3, [0, 7, 0, 0, 9, 0]), (16, 0));
        // One segment from the first chunk to the last, holes inside.
        assert_eq!(b.census(), (1, 4));
        assert_eq!(b.enqueue_run(2, 10, [0, 0]), (0, 0));
        assert_eq!(b.census(), (1, 4), "a run of holes is nothing");
        // A budget that ends on a chunk boundary leaves the front on
        // the next chunk, not on the holes between.
        assert_eq!(drain(&mut b, 3, 7).len(), 1);
        assert_eq!(b.oldest_age_ms(3), Some(2));
        assert_eq!(drain(&mut b, 3, u64::MAX), vec![(7, 9, 2)]);
        assert!(b.is_empty());
    }

    #[test]
    fn scattered_keys_cost_segments_not_correctness() {
        // Runs at one stamp whose keys step back, repeat, continue the
        // last run or jump stay a segment each, in call order.
        let runs: [(u32, &[u64]); 6] = [
            (9, &[1]),
            (8, &[2]),
            (7, &[3]),
            (7, &[4]),
            (8, &[5, 6]),
            (20, &[7]),
        ];
        let mut b = buf(1_000, 10_000);
        for (first, bits) in runs {
            b.enqueue_run(4, first, bits.iter().copied());
        }
        assert_eq!(b.census(), (6, 7));
        let order: Vec<(u32, u64)> = resident(&b).iter().map(|c| (c.0, c.2)).collect();
        assert_eq!(
            order,
            [(9, 1), (8, 2), (7, 3), (7, 4), (8, 5), (9, 6), (20, 7)]
        );
    }

    #[test]
    fn a_key_run_across_the_end_of_the_key_space_round_trips() {
        let mut b = buf(1_000, 10_000);
        b.enqueue_run(0, u32::MAX - 1, [5; 4]);
        assert_eq!(b.census(), (1, 4));
        // Through a custody handoff with a split chunk and back out.
        let mut c = buf(1_000, 10_000);
        assert_eq!(c.accept_segments(b.extract_segments(12), 1), (12, 0));
        assert_eq!(c.accept_segments(b.extract_segments(u64::MAX), 1), (8, 0));
        let m = u32::MAX;
        let want = [(m - 1, 5, 1), (m, 5, 1), (0, 2, 1), (0, 3, 1), (1, 5, 1)];
        assert_eq!(drain(&mut c, 1, u64::MAX), want);
    }

    #[test]
    fn segment_handoff_equals_chunk_handoff() {
        // A partly drained front, an arrival older than the residents,
        // stamps equal to a resident's, an over-age segment and a
        // boundary segment that only partly fits.
        let mut from = buf(1_000, 10_000);
        from.enqueue_run(10, 0, [20; 4]);
        from.enqueue_run(50, 0, [30, 30, 0, 30]);
        from.enqueue_run(90, 0, [10; 4]);
        drain(&mut from, 90, 25);
        let mut to = buf(20, 84); // 160 bits
        to.enqueue_run(50, 100, [40, 40]);
        drain(&mut to, 60, 10);
        let mut to_c = to.clone();
        let segments = from.extract_segments(170);
        let one_slot = chunks(&segments)
            .into_iter()
            .map(|(flow, stamp, bits)| chunk(flow, stamp, bits))
            .collect();
        let by_segment = to.accept_segments(segments, 94);
        let by_chunk = to_c.accept_segments(one_slot, 94);
        assert_eq!(by_segment, by_chunk);
        // 55 bits over-age; of the 115 fresh ones the newest 90 fit,
        // the last 5 of them a trimmed chunk.
        assert_eq!(by_segment, (90, 80));
        assert_eq!(resident(&to), resident(&to_c));
        assert_eq!(to.total_bits(), 160);
    }
}
