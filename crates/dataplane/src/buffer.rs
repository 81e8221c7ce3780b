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
//! of chunks, so identical call sequences produce identical buffers,
//! evictions, and drains — bit-for-bit, regardless of worker count.
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
//! ([`StoreForwardBuffer::extract_custody`]) and **accepted** there
//! ([`StoreForwardBuffer::accept_custody`]) — or refused, when they
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
//! invariant `enqueue`, `expire` and `drain` all rely on) survives
//! the handoff.

use std::collections::VecDeque;

/// One buffered batch of bits for a flow, tagged with its enqueue
/// time (sim-time milliseconds).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BufferedChunk<K> {
    /// The flow the bits belong to.
    pub flow: K,
    /// Simulation time the bits entered the buffer, ms.
    pub enqueued_ms: u64,
    /// Bits in the chunk.
    pub bits: u64,
}

/// Bits drained from the buffer toward delivery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrainedChunk<K> {
    /// The flow the bits belong to.
    pub flow: K,
    /// Bits delivered from the buffer.
    pub bits: u64,
    /// How long the bits waited, ms.
    pub age_ms: u64,
}

/// A per-node bounded, age-evicted FIFO store-and-forward buffer.
///
/// `K` identifies the flow a chunk belongs to (the traffic engine
/// uses its dense flow index). Chunks from different flows share one
/// FIFO per node, so eviction and drain order is global arrival
/// order — deterministic and starvation-free.
#[derive(Debug, Clone)]
pub struct StoreForwardBuffer<K> {
    max_bits: u64,
    max_age_ms: u64,
    chunks: VecDeque<BufferedChunk<K>>,
    total_bits: u64,
    queued_bits: u64,
    drained_bits: u64,
    evicted_bits: u64,
    transferred_in_bits: u64,
    transferred_out_bits: u64,
}

impl<K: Copy> StoreForwardBuffer<K> {
    /// An empty buffer bounded at `max_bytes` of payload and
    /// `max_age_ms` of residency.
    pub fn new(max_bytes: u64, max_age_ms: u64) -> Self {
        StoreForwardBuffer {
            max_bits: max_bytes.saturating_mul(8),
            max_age_ms,
            chunks: VecDeque::new(),
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
        self.chunks.is_empty()
    }

    /// Age of the oldest resident chunk at `now_ms`, if any.
    pub fn oldest_age_ms(&self, now_ms: u64) -> Option<u64> {
        self.chunks
            .front()
            .map(|c| now_ms.saturating_sub(c.enqueued_ms))
    }

    /// Queue `bits` for `flow` at `now_ms`, evicting the oldest bits
    /// as needed to respect the byte bound. Returns the bits evicted.
    /// Callers must enqueue in nondecreasing `now_ms` order (the FIFO
    /// doubles as the age order).
    pub fn enqueue(&mut self, flow: K, now_ms: u64, bits: u64) -> u64 {
        self.enqueue_batch(now_ms, std::iter::once((flow, bits))).1
    }

    /// [`Self::enqueue`] for a run of `(flow, bits)` chunks that share
    /// the stamp `now_ms`, queued in iteration order with one eviction
    /// pass at the end; zero-bit chunks are skipped. Returns `(queued,
    /// evicted)` bits.
    ///
    /// The buffer ends exactly as after one `enqueue` per chunk:
    /// byte-bound eviction removes a prefix of the FIFO's bit stream
    /// and the buffer is within its bound on entry, so the per-chunk
    /// overflows add up to the batch's one overflow and the same prefix
    /// goes — even when it ends inside one of the new chunks.
    pub fn enqueue_batch(
        &mut self,
        now_ms: u64,
        chunks: impl IntoIterator<Item = (K, u64)>,
    ) -> (u64, u64) {
        let chunks = chunks.into_iter();
        self.chunks.reserve(chunks.size_hint().0);
        let mut queued = 0u64;
        for (flow, bits) in chunks.filter(|&(_, bits)| bits > 0) {
            self.chunks.push_back(BufferedChunk {
                flow,
                enqueued_ms: now_ms,
                bits,
            });
            queued += bits;
        }
        self.queued_bits += queued;
        self.total_bits += queued;
        let mut evicted = 0u64;
        while self.total_bits > self.max_bits {
            let over = self.total_bits - self.max_bits;
            let front = self.chunks.front_mut().expect("total > 0 implies chunks");
            if front.bits <= over {
                evicted += front.bits;
                self.total_bits -= front.bits;
                self.chunks.pop_front();
            } else {
                front.bits -= over;
                self.total_bits -= over;
                evicted += over;
            }
        }
        self.evicted_bits += evicted;
        (queued, evicted)
    }

    /// Drop every chunk at or past the age bound at `now_ms` — a
    /// chunk exactly at `max_age_ms` is evicted, never delivered.
    /// Returns the bits aged out.
    pub fn expire(&mut self, now_ms: u64) -> u64 {
        let mut evicted = 0u64;
        while let Some(front) = self.chunks.front() {
            if now_ms.saturating_sub(front.enqueued_ms) < self.max_age_ms {
                break;
            }
            evicted += front.bits;
            self.total_bits -= front.bits;
            self.chunks.pop_front();
        }
        self.evicted_bits += evicted;
        evicted
    }

    /// Drain up to `budget_bits` toward delivery, FIFO. Returns the
    /// drained chunks with their delivery ages at `now_ms`; a chunk
    /// that only partially fits keeps its remainder (and its original
    /// enqueue time) at the front.
    pub fn drain(&mut self, now_ms: u64, budget_bits: u64) -> Vec<DrainedChunk<K>> {
        let mut out = Vec::new();
        let mut budget = budget_bits;
        while budget > 0 {
            let Some(front) = self.chunks.front_mut() else {
                break;
            };
            let take = front.bits.min(budget);
            out.push(DrainedChunk {
                flow: front.flow,
                bits: take,
                age_ms: now_ms.saturating_sub(front.enqueued_ms),
            });
            budget -= take;
            self.total_bits -= take;
            self.drained_bits += take;
            if take == front.bits {
                self.chunks.pop_front();
            } else {
                front.bits -= take;
            }
        }
        out
    }

    /// Remove up to `budget_bits` of the oldest resident bits for
    /// handoff to another buffer's custody. FIFO like a drain, but
    /// accounted as a transfer: the bits leave the resident state
    /// without counting as drained or evicted. A chunk that only
    /// partially fits is split; both halves keep the original
    /// enqueue stamp, so age accounting survives the handoff.
    pub fn extract_custody(&mut self, budget_bits: u64) -> Vec<BufferedChunk<K>> {
        let mut out = Vec::new();
        let mut budget = budget_bits;
        while budget > 0 {
            let Some(front) = self.chunks.front_mut() else {
                break;
            };
            let take = front.bits.min(budget);
            out.push(BufferedChunk {
                flow: front.flow,
                enqueued_ms: front.enqueued_ms,
                bits: take,
            });
            budget -= take;
            self.total_bits -= take;
            self.transferred_out_bits += take;
            if take == front.bits {
                self.chunks.pop_front();
            } else {
                front.bits -= take;
            }
        }
        out
    }

    /// Assume custody of `incoming` chunks at `now_ms`. Returns
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
    /// FIFO order remains age order.
    pub fn accept_custody(
        &mut self,
        mut incoming: Vec<BufferedChunk<K>>,
        now_ms: u64,
    ) -> (u64, u64) {
        incoming.sort_by_key(|c| c.enqueued_ms);
        let mut accepted = 0u64;
        let mut refused = 0u64;
        let mut fresh: Vec<BufferedChunk<K>> = Vec::new();
        for c in incoming {
            if c.bits == 0 {
                continue;
            }
            if now_ms.saturating_sub(c.enqueued_ms) >= self.max_age_ms {
                refused += c.bits;
            } else {
                fresh.push(c);
            }
        }
        let mut room = self.max_bits - self.total_bits;
        let mut take: VecDeque<BufferedChunk<K>> = VecDeque::new();
        for mut c in fresh.into_iter().rev() {
            if room == 0 {
                refused += c.bits;
                continue;
            }
            if c.bits > room {
                refused += c.bits - room;
                c.bits = room;
            }
            room -= c.bits;
            accepted += c.bits;
            take.push_front(c);
        }
        if !take.is_empty() {
            let mut resident = std::mem::take(&mut self.chunks);
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
            self.chunks = merged;
            self.total_bits += accepted;
        }
        self.transferred_in_bits += accepted;
        (accepted, refused)
    }

    /// Evict everything resident at once — the node died with its
    /// backlog. Returns the bits lost; they count as evicted.
    pub fn wipe(&mut self) -> u64 {
        let lost = self.total_bits;
        self.chunks.clear();
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

    #[test]
    fn enqueue_accumulates_until_the_byte_bound() {
        let mut b = buf(10, 1_000); // 80 bits
        assert_eq!(b.enqueue(0, 0, 50), 0);
        assert_eq!(b.enqueue(1, 1, 30), 0);
        assert_eq!(b.total_bits(), 80);
        // 10 more bits push the oldest 10 out (partial front chunk).
        assert_eq!(b.enqueue(2, 2, 10), 10);
        assert_eq!(b.total_bits(), 80);
        assert_eq!(b.evicted_bits(), 10);
        // Oldest-first: the front chunk shrank, newer ones intact.
        let drained = b.drain(2, u64::MAX);
        assert_eq!(
            drained.iter().map(|d| (d.flow, d.bits)).collect::<Vec<_>>(),
            vec![(0, 40), (1, 30), (2, 10)]
        );
    }

    #[test]
    fn oversized_chunk_trims_itself() {
        let mut b = buf(10, 1_000);
        assert_eq!(b.enqueue(7, 0, 200), 120);
        assert_eq!(b.total_bits(), 80);
        assert_eq!(b.drain(0, u64::MAX)[0].bits, 80);
    }

    #[test]
    fn batch_enqueue_equals_chunk_by_chunk() {
        // An empty chunk, one larger than the whole buffer mid-batch,
        // and a resident chunk the batch pushes out.
        let batch = [(1u32, 30u64), (2, 0), (3, 200), (4, 25), (5, 10)];
        for max_bytes in [0, 3, 10, 40] {
            let mut one_by_one = buf(max_bytes, 1_000);
            one_by_one.enqueue(0, 5, 60);
            let mut batched = one_by_one.clone();
            let evicted: u64 = batch
                .iter()
                .map(|&(f, bits)| one_by_one.enqueue(f, 9, bits))
                .sum();
            assert_eq!(batched.enqueue_batch(9, batch), (265, evicted));
            assert_eq!(batched.chunks, one_by_one.chunks);
            assert_eq!(batched.total_bits(), one_by_one.total_bits());
            assert_eq!(batched.queued_bits(), one_by_one.queued_bits());
            assert_eq!(batched.evicted_bits(), one_by_one.evicted_bits());
        }
    }

    #[test]
    fn zero_capacity_buffer_evicts_everything() {
        let mut b = buf(0, 1_000);
        assert_eq!(b.enqueue(0, 0, 42), 42);
        assert!(b.is_empty());
        assert_eq!(b.queued_bits(), 42);
        assert_eq!(b.evicted_bits(), 42);
    }

    #[test]
    fn expire_drops_chunks_at_or_past_the_age_bound() {
        let mut b = buf(1_000, 100);
        b.enqueue(0, 0, 10);
        b.enqueue(1, 60, 20);
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
        b.enqueue(0, 50, 40);
        // The engine always expires before draining within a tick:
        // at t=150 the chunk is exactly max_age old, so the expire
        // pass removes it and the drain sees an empty buffer.
        assert_eq!(b.expire(150), 40);
        assert!(b.drain(150, u64::MAX).is_empty());
        assert_eq!(b.drained_bits(), 0);
        assert_eq!(b.evicted_bits(), 40);
    }

    #[test]
    fn drain_is_fifo_with_partial_front_and_age_stamps() {
        let mut b = buf(1_000, 10_000);
        b.enqueue(0, 100, 50);
        b.enqueue(1, 200, 30);
        let first = b.drain(500, 40);
        assert_eq!(
            first,
            vec![DrainedChunk {
                flow: 0,
                bits: 40,
                age_ms: 400
            }]
        );
        // Remainder keeps its original enqueue time.
        let rest = b.drain(700, u64::MAX);
        assert_eq!(
            rest,
            vec![
                DrainedChunk {
                    flow: 0,
                    bits: 10,
                    age_ms: 600
                },
                DrainedChunk {
                    flow: 1,
                    bits: 30,
                    age_ms: 500
                },
            ]
        );
        assert!(b.is_empty());
    }

    #[test]
    fn conservation_holds_across_operations() {
        let mut b = buf(12, 50); // 96 bits
        for t in 0..40u64 {
            b.enqueue((t % 5) as u32, t * 10, 7 + t % 13);
            if t % 3 == 0 {
                b.expire(t * 10);
            }
            if t % 7 == 0 {
                b.drain(t * 10, 11);
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
        b.enqueue(0, 100, 50);
        b.enqueue(1, 200, 30);
        let out = b.extract_custody(60);
        assert_eq!(
            out,
            vec![
                BufferedChunk {
                    flow: 0,
                    enqueued_ms: 100,
                    bits: 50
                },
                BufferedChunk {
                    flow: 1,
                    enqueued_ms: 200,
                    bits: 10
                },
            ],
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
        b.enqueue(9, 150, 30);
        let incoming = vec![
            // Exactly max_age old at t=160: refused on arrival.
            BufferedChunk {
                flow: 0,
                enqueued_ms: 60,
                bits: 10,
            },
            BufferedChunk {
                flow: 1,
                enqueued_ms: 100,
                bits: 40,
            },
            BufferedChunk {
                flow: 2,
                enqueued_ms: 160,
                bits: 40,
            },
        ];
        let (accepted, refused) = b.accept_custody(incoming, 160);
        // 50 bits free; the newest 40 fit whole, then 10 of flow 1's
        // 40 — the rest (30) plus the over-age 10 are refused.
        assert_eq!((accepted, refused), (50, 40));
        assert_eq!(b.total_bits(), 80);
        assert_eq!(b.transferred_in_bits(), 50);
        // Merge preserves age order across resident and accepted.
        let order: Vec<(u32, u64, u64)> = b
            .drain(160, u64::MAX)
            .iter()
            .map(|d| (d.flow, d.bits, d.age_ms))
            .collect();
        assert_eq!(order, vec![(1, 10, 60), (9, 30, 10), (2, 40, 0)]);
    }

    #[test]
    fn accept_custody_never_evicts_resident_bits() {
        let mut b = buf(10, 1_000);
        b.enqueue(0, 0, 80); // full
        let (accepted, refused) = b.accept_custody(
            vec![BufferedChunk {
                flow: 1,
                enqueued_ms: 5,
                bits: 25,
            }],
            10,
        );
        assert_eq!((accepted, refused), (0, 25));
        assert_eq!(b.total_bits(), 80);
        assert_eq!(b.evicted_bits(), 0);
    }

    #[test]
    fn wipe_loses_the_whole_backlog_as_evictions() {
        let mut b = buf(1_000, 10_000);
        b.enqueue(0, 0, 50);
        b.enqueue(1, 10, 30);
        assert_eq!(b.wipe(), 80);
        assert!(b.is_empty());
        assert_eq!(b.evicted_bits(), 80);
        assert_eq!(b.wipe(), 0, "wiping empty is a no-op");
        assert_eq!(
            b.queued_bits() + b.transferred_in_bits(),
            b.drained_bits() + b.evicted_bits() + b.total_bits() + b.transferred_out_bits()
        );
    }
}
