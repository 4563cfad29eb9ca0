//! Record-level parallel decoding with a byte-identical determinism
//! contract.
//!
//! Batch workloads — imputing hundreds of windows, synthesizing thousands
//! of records — are embarrassingly parallel *across* records: each record
//! decodes against its own solver state and its own RNG, and the model is
//! only read. This module is the thin harness that makes the parallel run
//! reproduce the sequential one byte for byte:
//!
//! * **Per-record RNG.** Each record draws from its own `StdRng` seeded by
//!   [`record_seed`]`(base, index)` — never from a stream shared across
//!   records. A shared stream would interleave differently under every
//!   schedule; a per-record seed makes record `i`'s randomness a pure
//!   function of `(base, i)`.
//! * **Worker-local mutable state.** Anything mutable a record touches (a
//!   KV cache, a reusable [`crate::session::JitSession`]) lives in
//!   worker-local state built by the `init` closure of
//!   [`par_records_with`]. Such state may only *cache pure functions* (a KV
//!   cache rebuilt from any prompt gives float-identical logits; a session
//!   rolled back to its base frame answers like a fresh one), so which
//!   worker processed which records is unobservable in the output.
//! * **Ordered results.** [`minipool`] hands items out dynamically but
//!   reassembles results in index order.
//!
//! Under this contract, `par_records(t, n, f)` returns the same vector for
//! every `t` — including `t = 1`, which runs the exact sequential program.
//!
//! On top of the record level, [`batch_spans`] / [`par_batches_with`] add
//! *model-level* batching: consecutive records are grouped (at most
//! `batch` per group), each group decodes lock-step through
//! one batched forward pass per round, and groups are what the pool
//! distributes. The same contract extends to the batch axis: output is
//! byte-identical for every `(threads, batch)` pair.

use minipool::ThreadPool;

/// Derives the RNG seed for record `index` of a batch seeded by `base`.
///
/// SplitMix64-style finalizer over `base ⊕ golden·(index+1)`: records get
/// decorrelated streams, and the mapping is a pure function of its inputs
/// so any schedule (or a resumed run) reproduces it.
pub fn record_seed(base: u64, index: u64) -> u64 {
    let mut z = base ^ (index.wrapping_add(1)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The pool for a record-level batch: `threads` workers, or the
/// process-global default ([`minipool::global_threads`]) when `threads`
/// is `0`.
pub fn record_pool(threads: usize) -> ThreadPool {
    if threads == 0 {
        ThreadPool::global()
    } else {
        ThreadPool::new(threads)
    }
}

/// Decodes records `0..len` in parallel, returning results in index order.
///
/// `f(i)` must be a pure function of `i` (seed its RNG with
/// [`record_seed`]); the output is then byte-identical for every `threads`
/// value.
pub fn par_records<T, F>(threads: usize, len: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    record_pool(threads).par_map(len, f)
}

/// [`par_records`] with per-worker state (a KV cache, a reusable session):
/// `init()` runs once per worker, `f(&mut state, i)` per record.
///
/// Determinism additionally requires the state to be behaviorally
/// partition-independent — it may cache pure computation but must not leak
/// *which* records this worker saw into any result.
pub fn par_records_with<S, T, FI, F>(threads: usize, len: usize, init: FI, f: F) -> Vec<T>
where
    T: Send,
    FI: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> T + Sync,
{
    record_pool(threads).par_map_with(len, init, f)
}

/// Splits `0..len` into consecutive groups of at most `batch` records —
/// the unit of work for model-level batched decoding.
///
/// The partition depends only on `(len, batch)`, never on the thread
/// count, so which records share a forward pass is reproducible. `batch`
/// is clamped to ≥ 1 (`0` means "unbatched", i.e. groups of one).
///
/// ```
/// assert_eq!(lejit_core::batch_spans(5, 2), vec![0..2, 2..4, 4..5]);
/// ```
pub fn batch_spans(len: usize, batch: usize) -> Vec<std::ops::Range<usize>> {
    let batch = batch.max(1);
    (0..len.div_ceil(batch))
        .map(|g| g * batch..((g + 1) * batch).min(len))
        .collect()
}

/// Two-level parallel batched decoding: record *groups* (of at most
/// `batch` records, per [`batch_spans`]) are distributed across `threads`
/// pool workers, and each group is decoded by `f` — typically lock-step
/// through one batched forward pass per round
/// ([`crate::decoder::JitDecoder::decode_batch`]).
///
/// `f(&mut state, span)` returns one result per record in `span`, in
/// record order; the flattened output is in global record order. The
/// determinism contract extends [`par_records_with`]'s: because lanes in a
/// batched forward are computed independently (bit-identical to serial,
/// see `lejit-lm`'s cache docs) and each record keeps its own
/// [`record_seed`]-derived RNG, the output is byte-identical for every
/// `(threads, batch)` combination — including `(1, 1)`, the exact
/// sequential program.
///
/// # Panics
/// Panics if `f` returns a result vector whose length differs from its
/// span.
pub fn par_batches_with<S, T, FI, F>(
    threads: usize,
    len: usize,
    batch: usize,
    init: FI,
    f: F,
) -> Vec<T>
where
    T: Send,
    FI: Fn() -> S + Sync,
    F: Fn(&mut S, std::ops::Range<usize>) -> Vec<T> + Sync,
{
    let spans = batch_spans(len, batch);
    #[expect(
        clippy::indexing_slicing,
        reason = "par_map_with hands out group indices below spans.len(), the count it was given"
    )]
    let groups = record_pool(threads).par_map_with(spans.len(), init, |state, g| {
        let span = spans[g].clone();
        let out = f(state, span.clone());
        assert_eq!(
            out.len(),
            span.len(),
            "group {g} returned {} results for {} records",
            out.len(),
            span.len()
        );
        out
    });
    groups.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_seed_is_stable_and_decorrelated() {
        // Pure function: same inputs, same seed.
        assert_eq!(record_seed(42, 7), record_seed(42, 7));
        // Neighboring records and bases land far apart.
        let s: Vec<u64> = (0..100).map(|i| record_seed(42, i)).collect();
        let mut sorted = s.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 100, "collision among 100 record seeds");
        assert_ne!(record_seed(1, 0), record_seed(2, 0));
    }

    #[test]
    fn par_records_is_thread_count_invariant() {
        let expect: Vec<u64> = (0..50).map(|i| record_seed(9, i as u64)).collect();
        for threads in [1, 2, 4] {
            let got = par_records(threads, 50, |i| record_seed(9, i as u64));
            assert_eq!(got, expect, "threads={threads}");
        }
    }

    #[test]
    fn zero_threads_uses_global_default() {
        // Smoke: the 0 = "global default" convention resolves to a pool.
        assert!(record_pool(0).threads() >= 1);
        assert_eq!(record_pool(3).threads(), 3);
    }

    #[test]
    fn batch_spans_cover_exactly_once() {
        for (len, batch) in [(0, 4), (1, 4), (7, 3), (8, 4), (9, 4), (5, 1), (3, 0)] {
            let spans = batch_spans(len, batch);
            let flat: Vec<usize> = spans.iter().flat_map(|s| s.clone()).collect();
            assert_eq!(
                flat,
                (0..len).collect::<Vec<_>>(),
                "len={len} batch={batch}"
            );
            let cap = batch.max(1);
            assert!(spans.iter().all(|s| s.len() <= cap && !s.is_empty()));
        }
    }

    #[test]
    fn par_batches_is_thread_and_batch_invariant() {
        let expect: Vec<u64> = (0..23).map(|i| record_seed(5, i as u64)).collect();
        for threads in [1, 2, 4] {
            for batch in [1, 4, 8, 64] {
                let got = par_batches_with(
                    threads,
                    23,
                    batch,
                    || (),
                    |(), span| span.map(|i| record_seed(5, i as u64)).collect(),
                );
                assert_eq!(got, expect, "threads={threads} batch={batch}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "results")]
    fn par_batches_rejects_short_group_results() {
        par_batches_with(1, 4, 2, || (), |(), _span| vec![0u8]);
    }
}
