//! The one way `tssdn-core` spreads work across threads: contiguous
//! chunks in input order, the calling thread on the first, scoped
//! workers on the rest, outputs appended in chunk order. The Link
//! Evaluator's pair sweep and the sharded solve's region solves both
//! fan out through [`fan_out`]; each decides for itself whether its
//! work is worth a thread at all.

use std::sync::OnceLock;

/// Worker threads a fan-out may use when nothing overrides it: the
/// host's available parallelism, clamped to 1..=8. Asked once per
/// process: the answer reads cgroup files (≈ 14 µs a call), which a
/// powered-down night would otherwise pay every epoch for no work.
pub(crate) fn host_workers() -> usize {
    static WORKERS: OnceLock<usize> = OnceLock::new();
    *WORKERS.get_or_init(|| {
        std::thread::available_parallelism()
            .map_or(1, |n| n.get())
            .clamp(1, 8)
    })
}

/// `work` over `items` in at most `workers` contiguous chunks, outputs
/// concatenated in chunk order — so when `work` maps each item on its
/// own, the result is `work(items)` for every worker count.
///
/// The calling thread takes the first chunk itself: it is already
/// running, while a scoped worker on an otherwise idle core takes a good
/// part of a millisecond to start doing anything. With one worker, or
/// fewer than two items, nothing is spawned.
pub(crate) fn fan_out<T: Sync, R: Send>(
    items: &[T],
    workers: usize,
    work: impl Fn(&[T]) -> Vec<R> + Sync,
) -> Vec<R> {
    if workers <= 1 || items.len() < 2 {
        return work(items);
    }
    let mut chunks = items.chunks(items.len().div_ceil(workers));
    let first = chunks.next().expect("two or more items");
    let work = &work;
    std::thread::scope(|s| {
        let handles: Vec<_> = chunks.map(|chunk| s.spawn(move || work(chunk))).collect();
        let mut out = work(first);
        for h in handles {
            out.extend(h.join().expect("fan-out worker panicked"));
        }
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn any_worker_count_concatenates_in_input_order() {
        let items: Vec<u32> = (0..23).collect();
        let work = |chunk: &[u32]| chunk.iter().map(|x| x * 3).collect::<Vec<_>>();
        let serial = work(&items);
        for workers in [0, 1, 2, 3, 8, 23, 40] {
            assert_eq!(fan_out(&items, workers, work), serial, "{workers} workers");
        }
        assert!(fan_out(&[] as &[u32], 4, work).is_empty());
    }
}
