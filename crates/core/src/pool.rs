//! Warm solver-session pools keyed by rule-set fingerprint.
//!
//! Building a [`JitSession`] from scratch pays for variable declarations,
//! Tseitin encodings, and — since the incremental theory backend — a fresh
//! simplex tableau whose warm-start value (interned slack rows, carried
//! basis) accrues only with use. A serving workload decodes
//! thousands of requests against a handful of rule sets, so those warm
//! structures are worth keeping: a [`SessionPool`] shelves released
//! sessions under a caller-computed fingerprint of everything that shaped
//! their *base* constraint system (rule set + schema dimensions), and hands
//! them back on the next request for the same key.
//!
//! # Soundness protocol
//!
//! A shelved session holds only its base system (for the serving path:
//! schema variables, **no rules** — per-request rules are grounded into a
//! checkpoint frame). The reuse cycle is:
//!
//! 1. [`SessionPool::acquire`] — warm session out (or built fresh on a
//!    cold miss),
//! 2. [`JitSession::checkpoint`] — open a frame,
//! 3. ground the request's rules/constants via [`JitSession::solver_mut`],
//! 4. [`JitSession::invalidate_derived`] — a fresh fix epoch: hulls and
//!    witnesses tagged with the old one describe the weaker pre-grounding
//!    system and must not answer for the strengthened one (nothing else
//!    is carried between requests),
//! 5. decode,
//! 6. [`JitSession::rollback`] — physically retract the frame's clauses,
//! 7. [`SessionPool::release`] — shelve for the next request.
//!
//! Decoded bytes are unaffected by pooling: every lookahead tier is exact,
//! so a warm session answers every query identically to a cold one — only
//! the *cost* counters differ. That is what keeps pooled serving inside the
//! byte-identity contract.
//!
//! # Observability
//!
//! Every pool event is attributed to exactly one acquisition:
//! [`SessionPool::acquire`] notes its own hit-or-miss on the acquired
//! session's [`lejit_smt::SolverStats`] (via
//! [`lejit_smt::Solver::note_pool_events`]), plus any evictions that
//! happened since the previous acquisition (evictions occur at
//! [`SessionPool::release`] time, on a session that is being dropped — the
//! pool carries them forward as *unattributed* until the next acquire).
//! The returned [`PooledSession::baseline`] snapshots the session's
//! counters from *before* those events, so diffing a post-decode
//! [`crate::DecodeStats`] against it (see
//! [`crate::DecodeStats::rebase_against`]) yields per-request deltas that
//! sum to the pool's own [`SessionPool::stats`] totals.

use std::collections::BTreeMap;

use crate::decoder::DecodeStats;
use crate::session::JitSession;

/// FNV-1a 64-bit hash. Used for pool fingerprints because std's
/// `DefaultHasher` is seeded per-process (determinism lint L1); FNV-1a is
/// fixed, fast, and good enough for the handful of rule sets a server
/// hosts (shelves are keyed exactly, so a collision merely lets two rule
/// sets share a shelf — harmless, since shelved sessions carry no rules).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Aggregate pool counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Acquisitions served by a shelved warm session.
    pub hits: u64,
    /// Acquisitions that had to build a session fresh.
    pub misses: u64,
    /// Sessions dropped at release time because their shelf was full.
    pub evictions: u64,
}

/// An acquired session plus the counter baseline for per-request deltas.
pub struct PooledSession {
    /// The session, warm or fresh, with this acquisition's pool events
    /// already noted on its solver stats.
    pub session: JitSession,
    /// The session's counters as they stood before this acquisition's pool
    /// events — rebase a post-decode [`DecodeStats`] against this to get
    /// per-request numbers ([`DecodeStats::rebase_against`]).
    pub baseline: DecodeStats,
}

/// A shelf of warm [`JitSession`]s per rule-set fingerprint.
///
/// `BTreeMap` shelves (not a hash map) so iteration/debug order is
/// deterministic; within a shelf, release order is preserved and
/// [`Self::acquire`] pops the most recently released session (LIFO — the
/// warmest caches).
pub struct SessionPool {
    shelves: BTreeMap<u64, Vec<JitSession>>,
    per_key_cap: usize,
    stats: PoolStats,
    /// Evictions since the last acquire, not yet noted on any session.
    unattributed_evictions: u64,
}

impl SessionPool {
    /// An empty pool shelving at most `per_key_cap` sessions per key
    /// (clamped to at least 1).
    pub fn new(per_key_cap: usize) -> Self {
        SessionPool {
            shelves: BTreeMap::new(),
            per_key_cap: per_key_cap.max(1),
            stats: PoolStats::default(),
            unattributed_evictions: 0,
        }
    }

    /// Takes a warm session for `key`, or builds one with `build` on a cold
    /// miss. The acquisition's pool events (this hit/miss plus any
    /// unattributed evictions) are noted on the returned session's solver
    /// stats; [`PooledSession::baseline`] predates them.
    pub fn acquire(&mut self, key: u64, build: impl FnOnce() -> JitSession) -> PooledSession {
        let (mut session, hit) = match self.shelves.get_mut(&key).and_then(Vec::pop) {
            Some(s) => (s, true),
            None => (build(), false),
        };
        if hit {
            self.stats.hits += 1;
        } else {
            self.stats.misses += 1;
        }
        let mut baseline = DecodeStats::default();
        session.fill_stats(&mut baseline);
        let evictions = std::mem::take(&mut self.unattributed_evictions);
        session
            .solver_mut()
            .note_pool_events(u64::from(hit), u64::from(!hit), evictions);
        PooledSession { session, baseline }
    }

    /// Shelves `session` under `key` for the next acquisition. If the
    /// shelf is at capacity the *incoming* session is dropped (the shelved
    /// ones are at least as recently used) and counted as an eviction,
    /// attributed to the next acquire.
    pub fn release(&mut self, key: u64, session: JitSession) {
        let shelf = self.shelves.entry(key).or_default();
        if shelf.len() < self.per_key_cap {
            shelf.push(session);
        } else {
            self.stats.evictions += 1;
            self.unattributed_evictions += 1;
        }
    }

    /// Aggregate hit/miss/eviction counters.
    pub fn stats(&self) -> PoolStats {
        self.stats
    }

    /// Total sessions currently shelved across all keys.
    pub fn shelved(&self) -> usize {
        self.shelves.values().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::DecodeSchema;

    fn bare_session() -> JitSession {
        JitSession::new(&DecodeSchema::fine_series(3, 60))
    }

    #[test]
    fn fnv1a64_is_stable() {
        // Reference vectors for the canonical FNV-1a 64 parameters.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"rule r1"), fnv1a64(b"rule r1"));
        assert_ne!(fnv1a64(b"rule r1"), fnv1a64(b"rule r2"));
    }

    #[test]
    fn acquire_release_cycle_counts_hits_and_misses() {
        let mut pool = SessionPool::new(4);
        let a = pool.acquire(7, bare_session);
        assert_eq!(pool.stats().misses, 1);
        assert_eq!(a.session.solver().stats().pool_misses, 1);
        assert_eq!(a.baseline.pool_misses, 0, "baseline predates the events");
        pool.release(7, a.session);
        assert_eq!(pool.shelved(), 1);
        let b = pool.acquire(7, bare_session);
        assert_eq!(
            pool.stats(),
            PoolStats {
                hits: 1,
                misses: 1,
                evictions: 0
            }
        );
        assert_eq!(b.session.solver().stats().pool_hits, 1);
        // A different key misses even with key 7 shelved.
        pool.release(7, b.session);
        let c = pool.acquire(8, bare_session);
        assert_eq!(pool.stats().misses, 2);
        assert_eq!(pool.shelved(), 1);
        drop(c);
    }

    #[test]
    fn full_shelf_evicts_incoming_and_attributes_to_next_acquire() {
        let mut pool = SessionPool::new(1);
        pool.release(3, bare_session());
        pool.release(3, bare_session()); // shelf full → dropped
        assert_eq!(pool.stats().evictions, 1);
        assert_eq!(pool.shelved(), 1);
        let a = pool.acquire(3, bare_session);
        assert_eq!(a.session.solver().stats().pool_evictions, 1);
        // Per-request delta view: the acquire carries the eviction.
        let mut after = DecodeStats::default();
        a.session.fill_stats(&mut after);
        let mut delta = after;
        delta.rebase_against(&a.baseline);
        assert_eq!(delta.pool_hits, 1);
        assert_eq!(delta.pool_evictions, 1);
        // The next acquire carries nothing stale.
        pool.release(3, a.session);
        let b = pool.acquire(3, bare_session);
        let mut after_b = DecodeStats::default();
        b.session.fill_stats(&mut after_b);
        let mut delta_b = after_b;
        delta_b.rebase_against(&b.baseline);
        assert_eq!(delta_b.pool_evictions, 0);
    }
}
