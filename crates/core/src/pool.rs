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
//! checkpoint frame). No caller spells the reuse cycle out:
//! [`crate::Imputer::lease`] runs steps 1–4 and [`crate::Lease::settle`]
//! steps 6–7.
//!
//! 1. [`SessionPool::acquire`] — warm session out (or built fresh on a
//!    cold miss),
//! 2. [`JitSession::checkpoint`] — open a frame,
//! 3. ground the request's rules/constants via [`JitSession::solver_mut`],
//! 4. [`JitSession::invalidate_derived`] — a fresh fix epoch: hulls and
//!    witnesses tagged with the old one describe the weaker pre-grounding
//!    system and must not answer for the strengthened one (nothing else
//!    is carried between requests),
//! 5. decode — the caller's step, against the [`crate::Lease`],
//! 6. [`JitSession::rollback`] — physically retract the frame's clauses,
//! 7. [`SessionPool::release`] — shelve for the next request.
//!
//! So: no hull computed before grounding answers after it (the only way to
//! a lease runs step 4 after step 3); a shelf never holds a session with a
//! request's frame open (`settle` rolls back before the only `release`
//! outside tests, which debug-asserts a frameless solver) or with rules in
//! its base frame (`settle` releases only what `lease` acquired); and a
//! lease dropped without `settle` — a vanished client, a failed lane —
//! takes its session with it rather than shelving an unknown state.
//!
//! Decoded bytes are unaffected by pooling: every lookahead tier is exact,
//! so a warm session answers every query identically to a cold one — only
//! the *cost* counters differ. That is what keeps pooled serving inside the
//! byte-identity contract.
//!
//! # Observability
//!
//! Every pool event is attributed to exactly one acquisition:
//! [`SessionPool::acquire`] returns its own hit-or-miss in
//! [`PooledSession::events`], plus any evictions that happened since the
//! previous acquisition (evictions occur at [`SessionPool::release`] time,
//! on a session that is being dropped — the pool carries them forward as
//! *unattributed* until the next acquire). [`crate::Lease::settle`] writes
//! them into the request's [`crate::DecodeStats`] after rebasing the solver
//! counters against [`PooledSession::baseline`], so per-request pool fields
//! sum to the pool's own [`SessionPool::stats`] totals and the solver
//! underneath never hears of a pool.

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

/// An acquired session plus what makes its next decode's stats
/// per-request.
pub struct PooledSession {
    /// The session, warm or fresh.
    pub session: JitSession,
    /// The session's lifetime counters at acquisition — rebase a
    /// post-decode [`DecodeStats`] against this to get per-request numbers
    /// ([`DecodeStats::rebase_against`]).
    pub baseline: DecodeStats,
    /// This acquisition's pool events: its hit or miss, and the evictions
    /// since the previous acquisition.
    pub events: PoolStats,
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
    /// Evictions since the last acquire, not yet handed to any acquisition.
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
    /// unattributed evictions) come back in [`PooledSession::events`].
    pub fn acquire(&mut self, key: u64, build: impl FnOnce() -> JitSession) -> PooledSession {
        let (session, hit) = match self.shelves.get_mut(&key).and_then(Vec::pop) {
            Some(s) => (s, true),
            None => (build(), false),
        };
        let events = PoolStats {
            hits: u64::from(hit),
            misses: u64::from(!hit),
            evictions: std::mem::take(&mut self.unattributed_evictions),
        };
        self.stats.hits += events.hits;
        self.stats.misses += events.misses;
        let mut baseline = DecodeStats::default();
        session.fill_stats(&mut baseline);
        PooledSession {
            session,
            baseline,
            events,
        }
    }

    /// Shelves `session` under `key` for the next acquisition. If the
    /// shelf is at capacity the *incoming* session is dropped (the shelved
    /// ones are at least as recently used) and counted as an eviction,
    /// attributed to the next acquire. The session must be back at its base
    /// system: a frame left open would leak one request's rules into the
    /// next.
    pub fn release(&mut self, key: u64, session: JitSession) {
        debug_assert_eq!(session.solver().num_frames(), 0, "shelving an open frame");
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
        assert_eq!((a.events.hits, a.events.misses), (0, 1));
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
        assert_eq!((b.events.hits, b.events.misses), (1, 0));
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
        // The acquire carries the eviction.
        let a = pool.acquire(3, bare_session);
        assert_eq!((a.events.hits, a.events.evictions), (1, 1));
        // The next acquire carries nothing stale.
        pool.release(3, a.session);
        let b = pool.acquire(3, bare_session);
        assert_eq!(b.events.evictions, 0);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "shelving an open frame")]
    fn releasing_a_session_with_an_open_frame_is_refused() {
        let mut session = bare_session();
        let _cp = session.checkpoint();
        SessionPool::new(1).release(3, session);
    }
}
