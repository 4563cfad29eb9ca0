//! The solver session backing one decoded output.
//!
//! A [`JitSession`] owns an SMT solver in which the task's rules have been
//! grounded (by the caller, via [`lejit_rules::ground_rule`]) over the
//! schema's variables. During decoding it answers the two queries the
//! transition system needs —
//!
//! * *"can the value of variable `k` still be exactly `p`?"* (terminator
//!   feasibility), and
//! * *"can some decimal extension of prefix `p` still be feasible?"*
//!   (digit lookahead) —
//!
//! and records each completed value with [`JitSession::fix`], the paper's
//! *dynamic partial instantiation*: once `I_2 = 25` is fixed, every later
//! query is answered relative to it.

#![expect(
    clippy::indexing_slicing,
    reason = "per-variable state (vars/var_terms/intervals) is built index-aligned in JitSession::new and never resized; k always comes from enumerating the same vectors"
)]

use std::collections::BTreeSet;

use lejit_smt::{SatResult, Solver, TermId, VarId};

use crate::decoder::DecodeStats;
use crate::schema::{DecodeSchema, SchemaItem};

/// The span `resolve_unknown` enumerates at a time: one decimal decade,
/// matching the shape of the digit-window queries the transition system
/// issues.
const DECADE: i64 = 10;

/// Minimum width of an undetermined span worth enumerating instead of
/// probing exactly. Measured, not derived: at 1 (enumerate every span the
/// hull leaves) the benchmark's `serve_closed` read ×0.74–0.96 records/s
/// over three pairs (EXPERIMENTS.md §B12).
const SPAN_ENUMERATE_MIN: i64 = 4;

/// Per-variable interval knowledge cached for one fix epoch.
///
/// `hull` is the feasible range `[lo, hi]` of the variable (`None` once
/// computed on an unsatisfiable system). `witnesses` holds values proven
/// feasible by some satisfying model seen at this epoch — the bound
/// search's models (hull endpoints among them), enumerated decade members,
/// and the model value from every satisfiable exact probe. `gaps` holds
/// disjoint closed intervals proven *infeasible* by an UNSAT answer (a
/// single UNSAT over a range certifies every value in it at once). A window
/// containing a witness is feasible and a window covered by gaps is
/// infeasible, both with no solver call.
#[derive(Clone, Debug, Default)]
struct VarIntervals {
    epoch: u64,
    valid: bool,
    hull: Option<(i64, i64)>,
    witnesses: BTreeSet<i64>,
    /// Sorted, disjoint, non-adjacent certified-infeasible intervals.
    gaps: Vec<(i64, i64)>,
}

impl VarIntervals {
    /// Records `[a, b]` as certified infeasible, merging with overlapping
    /// or adjacent gaps so the list stays sorted, disjoint, non-adjacent.
    fn insert_gap(&mut self, a: i64, b: i64) {
        debug_assert!(a <= b);
        // `ge + 1 < a` and `ga - 1 <= b`, saturated: at the i64 edges a gap
        // is adjacent to anything it could merge with.
        let i = self
            .gaps
            .partition_point(|&(_, ge)| ge.saturating_add(1) < a);
        let mut j = i;
        let (mut na, mut nb) = (a, b);
        while j < self.gaps.len() && self.gaps[j].0.saturating_sub(1) <= b {
            na = na.min(self.gaps[j].0);
            nb = nb.max(self.gaps[j].1);
            j += 1;
        }
        self.gaps.splice(i..j, [(na, nb)]);
    }

    /// Whether every value in `[a, b]` is certified infeasible. Because
    /// gaps are merged and non-adjacent, coverage means one gap contains
    /// the whole interval.
    fn covered_infeasible(&self, a: i64, b: i64) -> bool {
        let i = self.gaps.partition_point(|&(ga, _)| ga <= a);
        i > 0 && self.gaps[i - 1].1 >= b
    }
}

/// A snapshot of a [`JitSession`]'s instantiation state, taken by
/// [`JitSession::checkpoint`] and restored by [`JitSession::rollback`].
///
/// Checkpoints nest but must be rolled back in LIFO order (they mirror the
/// solver's push/pop stack).
#[derive(Clone, Copy, Debug)]
pub struct SessionCheckpoint {
    fix_epoch: u64,
}

/// Solver session for one output record.
pub struct JitSession {
    solver: Solver,
    vars: Vec<VarId>,
    var_terms: Vec<TermId>,
    /// Advanced by every [`Self::fix`]; the per-variable interval knowledge
    /// is tagged by this epoch so a fix invalidates it wholesale.
    fix_epoch: u64,
    /// The next epoch [`Self::fix`] will assign. Strictly monotonic over the
    /// session's whole life — epochs are never reused, so cache entries from
    /// a rolled-back branch can never collide with post-rollback state.
    next_epoch: u64,
    intervals: Vec<VarIntervals>,
    checks_saved: u64,
}

impl JitSession {
    /// Creates a session, declaring one bounded integer variable per schema
    /// variable. Rules are *not* asserted here — the caller grounds them via
    /// [`Self::solver_mut`] so it can choose which signals are constants.
    ///
    /// # Panics
    /// Panics if the schema fails validation.
    #[expect(
        clippy::expect_used,
        reason = "documented '# Panics' contract: JitSession::new rejects invalid schemas up front so the decode loop never sees one; Server::run validates the configured schema before it accepts a connection"
    )]
    pub fn new(schema: &DecodeSchema) -> JitSession {
        schema.validate().expect("invalid decode schema");
        let mut solver = Solver::new();
        let mut vars = Vec::new();
        let mut var_terms = Vec::new();
        for item in &schema.items {
            if let SchemaItem::Variable(v) = item {
                let var = solver.int_var(&v.name, v.lo, v.hi);
                vars.push(var);
                var_terms.push(solver.var(var));
            }
        }
        let n = vars.len();
        JitSession {
            solver,
            vars,
            var_terms,
            fix_epoch: 0,
            next_epoch: 1,
            intervals: vec![VarIntervals::default(); n],
            checks_saved: 0,
        }
    }

    /// The underlying solver (for grounding rules and extra assertions).
    pub fn solver_mut(&mut self) -> &mut Solver {
        &mut self.solver
    }

    /// Read access to the solver.
    pub fn solver(&self) -> &Solver {
        &self.solver
    }

    /// The solver variable of the `k`-th schema variable.
    pub fn var(&self, k: usize) -> VarId {
        self.vars[k]
    }

    /// Number of schema variables.
    pub fn num_vars(&self) -> usize {
        self.vars.len()
    }

    /// Number of guided queries answered by the hull, a witness or a
    /// certified gap, with no solver query.
    pub fn solver_checks_saved(&self) -> u64 {
        self.checks_saved
    }

    /// Copies this session's solver-side counters (the underlying
    /// [`lejit_smt::SolverStats`] cost profile plus the guided queries it
    /// answered without the solver) into `stats`, so every decode path
    /// reports the same per-check cost breakdown. The copied values are the
    /// session's *lifetime* totals — see [`DecodeStats::rebase_against`] for
    /// per-decode deltas on reused sessions.
    pub fn fill_stats(&self, stats: &mut DecodeStats) {
        stats.solver_checks_saved = self.checks_saved;
        let s = self.solver.stats();
        stats.solver_checks = s.checks;
        stats.solver_searches = s.searches;
        stats.solver_pivots = s.pivots;
        stats.solver_bnb_nodes = s.bnb_nodes;
        stats.theory_propagations = s.theory_propagations;
        stats.theory_explanations = s.theory_explanations;
        stats.encode_cache_hits = s.encode_cache_hits;
        stats.encode_cache_misses = s.encode_cache_misses;
    }

    /// Whether the full constraint system is currently satisfiable.
    ///
    /// Solver errors (overflow, broken invariants) are absorbed as "not
    /// satisfiable": the decoder then rejects rather than emitting output the
    /// solver could not vouch for, preserving the zero-violation guarantee.
    pub fn satisfiable(&mut self) -> bool {
        matches!(self.solver.check(), Ok(SatResult::Sat))
    }

    /// Fixes variable `k` to `value` (partial instantiation). Permanent
    /// unless made inside a [`Self::checkpoint`] frame that is later rolled
    /// back.
    ///
    /// Assigns a globally fresh fix epoch: cached hulls, witnesses and gaps
    /// from before the fix describe a weaker constraint system and stop
    /// matching — and because epochs are never reused, neither can those of
    /// a branch that [`Self::rollback`] has since discarded.
    pub fn fix(&mut self, k: usize, value: i64) {
        let t = self.var_terms[k];
        let c = self.solver.int(value);
        let eq = self.solver.eq(t, c);
        self.solver.assert(eq);
        self.fix_epoch = self.next_epoch;
        self.next_epoch += 1;
    }

    /// Opens a rollback frame: later [`Self::fix`] calls (and any extra
    /// assertions) land in a solver frame that [`Self::rollback`] retracts.
    ///
    /// This is what lets one session be *reused across records and across
    /// rejection-sampling retries*: decode a record inside a frame, then
    /// roll back to the pristine grounded rules instead of rebuilding the
    /// session (and re-grounding every rule) from scratch. Interval
    /// knowledge tagged with the checkpointed epoch stays valid across the
    /// rollback — it described the base constraint system and that is
    /// exactly what gets restored — so the first variable of every record
    /// decoded against one session starts with a warm hull.
    ///
    /// Rollback physically retracts the frame's clauses from the solver
    /// (see [`lejit_smt::Solver::retract`]): the clause database is bounded
    /// by the *live* assertions, so a session can be reused for arbitrarily
    /// many draws without periodic rebuilding. Rebuilding remains
    /// output-invisible — a rebuilt session answers exactly like a
    /// rolled-back one — it is just never necessary.
    ///
    /// ```
    /// use lejit_core::{DecodeSchema, JitSession};
    ///
    /// let schema = DecodeSchema::fine_series(2, 60);
    /// let mut session = JitSession::new(&schema);
    /// let cp = session.checkpoint();
    /// session.fix(0, 7);
    /// assert!(!session.value_feasible(0, 8)); // pinned to 7 inside the frame
    /// session.rollback(cp);
    /// assert!(session.value_feasible(0, 8)); // the frame is gone
    /// ```
    pub fn checkpoint(&mut self) -> SessionCheckpoint {
        self.solver.push();
        SessionCheckpoint {
            fix_epoch: self.fix_epoch,
        }
    }

    /// Retracts everything fixed or asserted since `cp` was taken —
    /// physically deleting the frame's clauses from the solver — and
    /// restores the fix epoch, so interval knowledge tagged with the
    /// checkpointed epoch becomes live again. Checkpoints must be rolled
    /// back in LIFO order.
    pub fn rollback(&mut self, cp: SessionCheckpoint) {
        self.solver.retract();
        self.fix_epoch = cp.fix_epoch;
    }

    /// Discards every answer derived from the *current* constraint system
    /// by allocating a fresh fix epoch, which orphans the epoch-tagged
    /// interval knowledge.
    ///
    /// Call this after strengthening the solver through any channel other
    /// than [`Self::fix`] — e.g. grounding a request's rules into a pooled
    /// session's checkpoint frame via [`Self::solver_mut`]. Hulls and
    /// witnesses computed before describe the *weaker* pre-grounding system;
    /// left in place they could unsoundly answer "feasible" for values the
    /// new rules forbid. `fix` bumps the epoch itself; raw solver assertions
    /// cannot, so the caller must invalidate.
    ///
    /// Knowledge tagged with *earlier* epochs (the state a later
    /// [`Self::rollback`] restores) is untouched: rollback retracts the
    /// strengthening along with the frame, making those answers valid again.
    pub fn invalidate_derived(&mut self) {
        self.fix_epoch = self.next_epoch;
        self.next_epoch += 1;
    }

    /// Whether variable `k` can take exactly `value` given the rules and
    /// everything fixed so far.
    pub fn value_feasible(&mut self, k: usize, value: i64) -> bool {
        self.window_probe(k, &[(value, value)]) == Some(true)
    }

    /// Whether some completion of the decimal prefix `prefix` (appending up
    /// to `extra_digits` more digits) is feasible for variable `k`: one
    /// exact probe of the values `{prefix·10^j + r : 0 ≤ j ≤ extra_digits,
    /// 0 ≤ r < 10^j}` — exactly those the character-level transition
    /// system can still reach (Fig. 2); a leading zero admits only 0.
    pub fn prefix_feasible(&mut self, k: usize, prefix: i64, extra_digits: usize) -> bool {
        let windows: Vec<_> = decimal_windows(prefix, extra_digits).collect();
        self.window_probe(k, &windows) == Some(true)
    }

    /// The one exact query behind every answer the cached interval knowledge
    /// cannot give: can variable `k` land in any of `windows`? One
    /// [`Solver::check_assuming`] of the `Or` of `lo ≤ x_k ≤ hi`, so the
    /// solver's standing implicant and its spine may answer it before a
    /// search (a `push; assert; check; pop` would drop the implicant with
    /// the `pop`). `Some(true)` leaves the satisfying
    /// model readable; `None` is `Unknown` or a solver error, which every
    /// caller treats as "not feasible" and certifies nothing from.
    ///
    /// A window end at the edge of `i64` bounds nothing, and is left out:
    /// every `i64` satisfies `x ≤ i64::MAX`, whose negation has no compiled
    /// form, so asking it would fail the probe.
    fn window_probe(&mut self, k: usize, windows: &[(i64, i64)]) -> Option<bool> {
        let t = self.var_terms[k];
        let mut options = Vec::with_capacity(windows.len());
        for &(lo, hi) in windows {
            let mut bounds = Vec::with_capacity(2);
            if lo > i64::MIN {
                let lo = self.solver.int(lo);
                bounds.push(self.solver.ge(t, lo));
            }
            if hi < i64::MAX {
                let hi = self.solver.int(hi);
                bounds.push(self.solver.le(t, hi));
            }
            options.push(self.solver.and(&bounds));
        }
        let any = self.solver.or(&options);
        match self.solver.check_assuming(&[any]) {
            Ok(SatResult::Sat) => Some(true),
            Ok(SatResult::Unsat) => Some(false),
            Ok(SatResult::Unknown) | Err(_) => None,
        }
    }

    /// The model value of variable `k` after a successful check (read by
    /// the post-hoc repair baseline, and by the guided lookahead to keep an
    /// exact probe's answer as a witness).
    pub fn model_value(&self, k: usize) -> Option<i64> {
        self.solver.model().and_then(|m| m.int_value(self.vars[k]))
    }

    // --- interval-guided lookahead --------------------------------------

    /// The feasible hull `[lo, hi]` of variable `k` at the current fix
    /// epoch, or `None` when the constraint system is unsatisfiable.
    ///
    /// Computed at most once per `(variable, epoch)` via [`Solver::bounds`]
    /// (whose checks [`lejit_smt::SolverStats::checks`] counts); an
    /// errored bound search yields no range rather than a fabricated one.
    /// Later calls in the same epoch are free. The bound search's models
    /// seed the witness set; nothing inside the hull is classified up
    /// front — a decade is enumerated when a query first lands in it
    /// (`resolve_unknown`).
    pub fn hull(&mut self, k: usize) -> Option<(i64, i64)> {
        let epoch = self.fix_epoch;
        if self.intervals[k].valid && self.intervals[k].epoch == epoch {
            return self.intervals[k].hull;
        }
        let bounds = self.solver.bounds(self.vars[k]);
        let cache = &mut self.intervals[k];
        cache.epoch = epoch;
        cache.valid = true;
        cache.witnesses.clear();
        cache.gaps.clear();
        match bounds {
            Ok(Some(b)) => {
                cache.hull = Some((b.lo, b.hi));
                cache.witnesses.extend(b.witnesses);
            }
            // Unsat — or the solver failed, in which case every value is
            // conservatively rejected rather than trusted unverified.
            Ok(None) | Err(_) => cache.hull = None,
        }
        cache.hull
    }

    /// [`Self::value_feasible`] routed through the interval-guided tiers
    /// (hull rejection, witnesses, certified gaps, decade enumeration, exact
    /// check — see `resolve_guided`).
    /// Always returns the same answer as `value_feasible`.
    pub fn value_feasible_guided(&mut self, k: usize, value: i64) -> bool {
        self.resolve_guided(k, &[(value, value)])
    }

    /// [`Self::prefix_feasible`] routed through the interval-guided tiers.
    /// Always returns the same answer as `prefix_feasible`.
    pub fn prefix_feasible_guided(&mut self, k: usize, prefix: i64, extra_digits: usize) -> bool {
        let windows: Vec<_> = decimal_windows(prefix, extra_digits).collect();
        self.resolve_guided(k, &windows)
    }

    /// Resolves "can variable `k` land in any of `windows`?" exactly, using
    /// the cheapest sufficient tier:
    ///
    /// 1. every window misses the feasible hull → infeasible, no check;
    /// 2. some window contains a known-feasible witness → feasible, no check;
    /// 3. every in-hull window is covered by certified gaps → infeasible,
    ///    no check;
    /// 4. undetermined windows packed into one decade → enumerate the decade
    ///    exactly (one range analysis) and decide —
    ///    sibling digit queries then resolve from tiers 2/3 for free;
    /// 5. otherwise the window probe [`Lookahead::Full`] issues, whose
    ///    model value becomes a new witness — or, when UNSAT, whose windows
    ///    become certified gaps.
    ///
    /// Tiers 4 and 5 leave every decided answer behind as witnesses and
    /// gaps, so a repeated query is answered by tiers 2/3; only an undecided
    /// one (`Unknown`, a solver error) is asked again.
    ///
    /// Every tier is exact. Witnesses come from satisfying models and gaps
    /// from UNSAT certificates, so neither can misclassify; the region
    /// between hull endpoints can be non-convex (e.g. R3's
    /// `max(fine) >= 30` punches a hole below the threshold), which is why
    /// a window merely *overlapping* the hull proves nothing and falls to
    /// the later tiers. The zero-violation guarantee is untouched, and
    /// guided answers always equal the `Full` ones.
    ///
    /// [`Lookahead::Full`]: crate::transition::Lookahead::Full
    fn resolve_guided(&mut self, k: usize, windows: &[(i64, i64)]) -> bool {
        let Some((lo, hi)) = self.hull(k) else {
            self.checks_saved += 1;
            return false;
        };
        // Classify each window against the epoch's interval knowledge,
        // clipping to the hull first (values outside it are infeasible).
        let kn = &self.intervals[k];
        let mut witnessed = false;
        let mut unknown: Vec<(i64, i64)> = Vec::new();
        for &(a, b) in windows {
            let (ca, cb) = (a.max(lo), b.min(hi));
            if ca > cb {
                continue; // entirely outside the hull
            }
            if kn.witnesses.range(ca..=cb).next().is_some() {
                witnessed = true;
                break;
            }
            if !kn.covered_infeasible(ca, cb) {
                unknown.push((ca, cb));
            }
        }
        if witnessed || unknown.is_empty() {
            self.checks_saved += 1;
            witnessed
        } else {
            self.resolve_unknown(k, &unknown)
        }
    }

    /// Decides windows the cached interval knowledge cannot classify.
    ///
    /// When the undetermined values are packed into a single narrow decade
    /// — the common case of per-digit singleton queries walking one decade
    /// of a partially-typed number — the whole decade (clipped to the hull)
    /// is enumerated exactly instead: one range analysis, after which every
    /// sibling query in the decade is answered from witnesses and gaps for
    /// free. Wider or scattered windows get the window probe
    /// [`Lookahead::Full`] issues.
    ///
    /// [`Lookahead::Full`]: crate::transition::Lookahead::Full
    fn resolve_unknown(&mut self, k: usize, windows: &[(i64, i64)]) -> bool {
        // The caller only reaches here with a non-empty window set; an empty
        // one has no feasible value by definition, so don't panic on it.
        let (Some(span_lo), Some(span_hi)) = (
            windows.iter().map(|w| w.0).min(),
            windows.iter().map(|w| w.1).max(),
        ) else {
            return false;
        };
        let same_decade = span_lo.div_euclid(DECADE) == span_hi.div_euclid(DECADE);
        // The hull is always present here (the caller classified against
        // it); if it ever is not, fall through to the exact check instead
        // of panicking mid-decode.
        if let (true, Some((lo, hi))) = (same_decade, self.intervals[k].hull) {
            // The decade clipped to the hull, from its distances to the
            // decade's ends: an end itself can lie outside i64.
            let elo = span_lo
                .checked_sub(span_lo.rem_euclid(DECADE))
                .map_or(lo, |start| start.max(lo));
            let ehi = span_lo
                .checked_add((!span_lo).rem_euclid(DECADE))
                .map_or(hi, |end| end.min(hi));
            // Both ends lie in one decade: the width is below `DECADE`.
            if ehi
                .checked_sub(elo)
                .is_some_and(|w| w >= SPAN_ENUMERATE_MIN - 1)
            {
                let known: Vec<i64> = self.intervals[k]
                    .witnesses
                    .range(elo..=ehi)
                    .copied()
                    .collect();
                if let Ok(Some(values)) =
                    self.solver
                        .feasible_values_in(self.vars[k], elo, ehi, &known)
                {
                    let kn = &mut self.intervals[k];
                    kn.witnesses.extend(values.iter().copied());
                    // The first value not yet classified; `None` past i64.
                    let mut next = Some(elo);
                    for &v in &values {
                        if let Some(n) = next.filter(|&n| n < v) {
                            kn.insert_gap(n, v - 1);
                        }
                        next = v.checked_add(1);
                    }
                    if let Some(n) = next.filter(|&n| n <= ehi) {
                        kn.insert_gap(n, ehi);
                    }
                    let witnesses = &self.intervals[k].witnesses;
                    return windows
                        .iter()
                        .any(|&(a, b)| witnesses.range(a..=b).next().is_some());
                }
                // Enumeration went Unknown (or errored): fall through to
                // the exact check.
            }
        }
        // Exact fallback: the probe `Full` issues, whose model value of `k`
        // becomes a witness.
        match self.window_probe(k, windows) {
            Some(true) => {
                if let Some(w) = self.model_value(k) {
                    self.intervals[k].witnesses.insert(w);
                }
                true
            }
            Some(false) => {
                let kn = &mut self.intervals[k];
                for &(a, b) in windows {
                    kn.insert_gap(a, b);
                }
                false
            }
            // `Full` maps Unknown and errors to "not feasible"; mirror
            // that, but do not certify a gap from a non-answer.
            None => false,
        }
    }
}

/// The decimal windows of `prefix` with up to `extra_digits` more digits:
/// `[prefix·10^j, prefix·10^j + 10^j − 1]` for `0 ≤ j ≤ extra_digits` —
/// exactly the values the character-level transition system can still
/// reach from it (Fig. 2). A leading zero admits only the exact value 0.
/// A window whose low end lies past `i64` holds no representable value and
/// is left out, with every longer one; the top window's high end is clamped
/// to `i64::MAX`.
pub(crate) fn decimal_windows(
    prefix: i64,
    extra_digits: usize,
) -> impl Iterator<Item = (i64, i64)> {
    debug_assert!(prefix >= 0);
    let extensions = if prefix == 0 { 0 } else { extra_digits };
    std::iter::successors(Some(1i64), |pow| pow.checked_mul(10))
        .take(extensions + 1)
        .map_while(move |pow| {
            let lo = prefix.checked_mul(pow)?;
            Some((lo, lo.saturating_add(pow - 1)))
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::DecodeSchema;
    use lejit_rules::{ground_rule, parse_rules, GroundCtx};
    use lejit_telemetry::CoarseField;

    /// Session with the paper's R1–R3 grounded for total=100, ecn=8.
    fn paper_session() -> JitSession {
        let schema = DecodeSchema::fine_series(5, 60);
        let mut session = JitSession::new(&schema);
        let rules = parse_rules(
            "rule r1: forall t: fine[t] >= 0 and fine[t] <= 60;
             rule r2: sum(fine) == total_ingress;
             rule r3: ecn_bytes > 0 => max(fine) >= 30;",
        )
        .unwrap();
        let solver = session.solver_mut();
        let coarse_vals = [100i64, 8, 0, 0, 0, 0];
        let coarse_vec: Vec<_> = CoarseField::ALL
            .into_iter()
            .map(|f| solver.int(coarse_vals[f.index()]))
            .collect();
        let fine: Vec<_> = (0..5)
            .map(|k| {
                let v = solver.pool().find_var(&format!("fine{k}")).unwrap();
                solver.var(v)
            })
            .collect();
        let ctx = GroundCtx {
            coarse: coarse_vec.try_into().unwrap(),
            fine,
        };
        for r in &rules.rules {
            let g = ground_rule(solver.pool_mut(), &ctx, r);
            solver.assert(g);
        }
        session
    }

    /// Solver checks made so far.
    fn checks(s: &JitSession) -> u64 {
        s.solver().stats().checks
    }

    /// A fresh bound search for variable `k`, past the session's cache.
    fn fresh_range(s: &mut JitSession, k: usize) -> Option<(i64, i64)> {
        let var = s.var(k);
        let bounds = s.solver_mut().bounds(var).unwrap()?;
        Some((bounds.lo, bounds.hi))
    }

    #[test]
    fn initial_session_is_satisfiable() {
        let mut s = paper_session();
        assert!(s.satisfiable());
        assert_eq!(s.num_vars(), 5);
    }

    #[test]
    fn fig1b_walkthrough() {
        // Reproduces the paper's Fig. 1b step by step.
        let mut s = paper_session();
        s.fix(0, 20);
        s.fix(1, 15);
        s.fix(2, 25);
        // Step 2: the solver computes I_3 ∈ [0, 40].
        assert_eq!(s.hull(3), Some((0, 40)));
        // Step 3: 41 is invalidated, 39 is fine.
        assert!(!s.value_feasible(3, 41));
        assert!(s.value_feasible(3, 39));
        // Step 4: fix I_3 = 39; step 5: only one value remains for I_4.
        s.fix(3, 39);
        assert_eq!(s.hull(4), Some((1, 1)));
        assert!(s.value_feasible(4, 1));
        assert!(!s.value_feasible(4, 2));
    }

    #[test]
    fn prefix_feasibility_lookahead() {
        let mut s = paper_session();
        s.fix(0, 20);
        s.fix(1, 15);
        s.fix(2, 25);
        // I_3 ∈ [0,40]: prefix "4" can extend to 40 (one more digit), and
        // prefix "5" is feasible only as the exact value 5 — its two-digit
        // extensions 50..59 are all outside the region.
        assert!(s.prefix_feasible(3, 4, 1));
        assert!(s.prefix_feasible(3, 5, 1)); // the value 5 itself
        assert!(!s.prefix_feasible(3, 50, 0));
        assert!(!s.prefix_feasible(3, 59, 0));
        // Prefix "41" with no extension is infeasible; "40" exact is fine.
        assert!(!s.prefix_feasible(3, 41, 0));
        assert!(s.prefix_feasible(3, 40, 0));
        // Prefix "1" can be 1 or extend to 10..19.
        assert!(s.prefix_feasible(3, 1, 1));
    }

    #[test]
    fn zero_prefix_is_exact_zero() {
        let mut s = paper_session();
        // fine3 = 0 is feasible before anything is fixed (others absorb 100).
        assert!(s.prefix_feasible(3, 0, 1));
        // If the remaining three must sum to 100 with cap 60, zero stays
        // feasible for one variable; but after fixing the others to tiny
        // values it is not.
        s.fix(0, 0);
        s.fix(1, 0);
        s.fix(2, 60);
        // fine3 + fine4 = 40 with caps 60: fine3 = 0 forces fine4 = 40: ok.
        assert!(s.prefix_feasible(3, 0, 1));
        s.fix(3, 0);
        // Now fine4 must be exactly 40 → 0 is infeasible.
        assert!(!s.prefix_feasible(4, 0, 1));
        assert!(s.value_feasible(4, 40));
    }

    #[test]
    fn unsat_after_contradictory_fix() {
        let mut s = paper_session();
        // Sum can never reach 100 if all five are fixed tiny.
        for k in 0..5 {
            s.fix(k, 1);
        }
        assert!(!s.satisfiable());
        assert_eq!(s.hull(0), None);
    }

    #[test]
    fn the_exact_oracle_matches_the_region_worked_out_by_hand() {
        // After I_0..I_2 = 20, 15, 25, R2 leaves I_3 + I_4 = 40 and R3 (all
        // three below 30) wants one of them ≥ 30: I_3 ∈ [0, 10] ∪ [30, 40].
        let fixed = || {
            let mut s = paper_session();
            s.fix(0, 20);
            s.fix(1, 15);
            s.fix(2, 25);
            s
        };
        let (mut exact, mut guided) = (fixed(), fixed());
        for value in 0..=60 {
            let truth = (0..=10).contains(&value) || (30..=40).contains(&value);
            assert_eq!(exact.value_feasible(3, value), truth, "value {value}");
            assert_eq!(
                guided.value_feasible_guided(3, value),
                truth,
                "value {value}, guided"
            );
        }
        // Each query is one probe, which the standing implicant answers when
        // it can. The spine holds no disjunct of R3, so only a search
        // refutes a value in the hole (11..=29): 19 searches, and with them
        // 22 spine answers and 20 implicant answers. A query that dropped
        // the implicant would send all 61 past it.
        let stats = exact.solver().stats();
        assert!(stats.searches <= 22, "{stats:?}");
        assert!(stats.searches + stats.spine_answers <= 48, "{stats:?}");
    }

    #[test]
    fn checks_are_counted() {
        let mut s = paper_session();
        let before = checks(&s);
        let _ = s.value_feasible(0, 10);
        let _ = s.prefix_feasible(1, 2, 1);
        assert!(checks(&s) >= before + 2);
    }

    #[test]
    fn hull_matches_a_fresh_bound_search_and_is_cached() {
        let mut s = paper_session();
        s.fix(0, 20);
        s.fix(1, 15);
        s.fix(2, 25);
        assert_eq!(s.hull(3), Some((0, 40)));
        assert_eq!(s.hull(3), fresh_range(&mut s, 3));
        // Second hull call in the same epoch is free.
        let before = checks(&s);
        assert_eq!(s.hull(3), Some((0, 40)));
        assert_eq!(checks(&s), before);
        // A fix invalidates the cache: the hull is recomputed and shrinks.
        s.fix(3, 39);
        assert_eq!(s.hull(4), Some((1, 1)));
    }

    #[test]
    fn guided_queries_agree_with_exact_queries() {
        // Two sessions over the same rules: one answers via the guided
        // tiers, one via the exact queries. Every (value, prefix) probe
        // must agree — the hull/witness tiers are a shortcut, not an
        // approximation.
        let mut guided = paper_session();
        let mut exact = paper_session();
        for s in [&mut guided, &mut exact] {
            s.fix(0, 20);
            s.fix(1, 15);
            s.fix(2, 25);
        }
        for value in 0..=60 {
            assert_eq!(
                guided.value_feasible_guided(3, value),
                exact.value_feasible(3, value),
                "value {value}"
            );
        }
        for prefix in 0..=60 {
            for extra in 0..=1 {
                assert_eq!(
                    guided.prefix_feasible_guided(3, prefix, extra),
                    exact.prefix_feasible(3, prefix, extra),
                    "prefix {prefix} extra {extra}"
                );
            }
        }
    }

    #[test]
    fn guided_queries_save_checks() {
        let mut s = paper_session();
        s.fix(0, 20);
        s.fix(1, 15);
        s.fix(2, 25);
        // I_3 ∈ [0, 40]: 41 misses the hull (tier 1), the hull endpoints are
        // witnesses (tier 2) — none of these cost a solver check beyond the
        // one-off hull computation.
        assert_eq!(s.hull(3), Some((0, 40)));
        let before = checks(&s);
        assert!(!s.value_feasible_guided(3, 41));
        assert!(s.value_feasible_guided(3, 0));
        assert!(s.value_feasible_guided(3, 40));
        assert_eq!(checks(&s), before, "hull/witness tiers issue no checks");
        assert!(s.solver_checks_saved() >= 3);
        // An interior value that is no witness may need solver work; the
        // answer it leaves behind (a witness or a gap) serves the repeat.
        let answer = s.value_feasible_guided(3, 17);
        let (made, saved) = (checks(&s), s.solver_checks_saved());
        assert_eq!(s.value_feasible_guided(3, 17), answer);
        assert_eq!(checks(&s), made, "the repeat issued a check");
        assert_eq!(s.solver_checks_saved(), saved + 1);
    }

    #[test]
    fn rollback_matches_fresh_session() {
        // Decode-fix-rollback, then re-probe: answers must equal a session
        // that never saw the rolled-back fixes.
        let mut reused = paper_session();
        let mut fresh = paper_session();
        let cp = reused.checkpoint();
        reused.fix(0, 20);
        reused.fix(1, 15);
        reused.fix(2, 25);
        assert_eq!(reused.hull(3), Some((0, 40)));
        reused.rollback(cp);
        for k in 0..5 {
            assert_eq!(
                fresh_range(&mut reused, k),
                fresh_range(&mut fresh, k),
                "var {k} after rollback"
            );
        }
        for value in [0, 17, 41, 60] {
            assert_eq!(
                reused.value_feasible_guided(0, value),
                fresh.value_feasible(0, value),
                "value {value} after rollback"
            );
        }
    }

    #[test]
    fn rollback_never_reuses_epochs() {
        let mut s = paper_session();
        let cp = s.checkpoint();
        s.fix(0, 20);
        let branch_epoch = s.fix_epoch;
        s.rollback(cp);
        assert_eq!(s.fix_epoch, 0);
        s.fix(0, 30);
        assert!(
            s.fix_epoch > branch_epoch,
            "post-rollback epoch {} must be fresh, not reuse {branch_epoch}",
            s.fix_epoch
        );
        // The fix really is 30 now, not the rolled-back 20.
        assert!(s.value_feasible(0, 30));
        assert!(!s.value_feasible(0, 20));
    }

    #[test]
    fn base_epoch_caches_survive_rollback() {
        let mut s = paper_session();
        // Warm the epoch-0 hull cache, then branch and roll back.
        assert_eq!(s.hull(0), Some((0, 60)));
        let cp = s.checkpoint();
        s.fix(0, 20);
        let _ = s.hull(1);
        s.rollback(cp);
        // Back at epoch 0 the warmed hull answers without new checks.
        let before = checks(&s);
        assert_eq!(s.hull(0), Some((0, 60)));
        assert_eq!(checks(&s), before, "epoch-0 hull cache should be warm");
    }

    #[test]
    fn checkpoints_nest_lifo() {
        let mut s = paper_session();
        let outer = s.checkpoint();
        s.fix(0, 10);
        let inner = s.checkpoint();
        s.fix(1, 20);
        assert!(!s.value_feasible(1, 21));
        s.rollback(inner);
        assert!(s.value_feasible(1, 21));
        assert!(!s.value_feasible(0, 11));
        s.rollback(outer);
        assert!(s.value_feasible(0, 11));
    }

    #[test]
    fn guided_queries_on_unsat_system_reject_everything() {
        let mut s = paper_session();
        for k in 0..5 {
            s.fix(k, 1);
        }
        assert!(!s.value_feasible_guided(0, 1));
        assert!(!s.prefix_feasible_guided(0, 3, 1));
    }

    #[test]
    fn invalidate_derived_orphans_the_epochs_interval_knowledge() {
        // Grounding extra constraints through `solver_mut` (the pooled-reuse
        // path) strengthens the system without `fix`'s epoch bump; witnesses
        // found before describe the weaker system and must not answer
        // afterwards.
        let mut s = paper_session();
        let (w0, _) = s.hull(0).unwrap(); // a hull endpoint is a witness
        let before = checks(&s);
        assert!(s.value_feasible_guided(0, w0));
        assert_eq!(checks(&s), before, "answered by the witness");
        let cp = s.checkpoint();
        // Strengthen outside `fix`: forbid the witnessed value outright.
        let t = s.var_terms[0];
        let solver = s.solver_mut();
        let c = solver.int(w0);
        let eq = solver.eq(t, c);
        let ne = solver.not(eq);
        solver.assert(ne);
        s.invalidate_derived();
        let before = checks(&s);
        assert!(
            !s.value_feasible_guided(0, w0),
            "a stale witness must not answer for the strengthened system"
        );
        assert!(checks(&s) > before, "answer must come from fresh analysis");
        // Rollback retracts the strengthening: the value is feasible again.
        s.rollback(cp);
        assert!(s.value_feasible_guided(0, w0));
    }

    #[test]
    fn clause_db_is_bounded_across_reuse_rounds() {
        // Under the old logical pop every round leaked its frame's dead
        // clauses into the database forever; physical retraction holds the
        // live-clause count at a steady state across identical rounds.
        let mut s = paper_session();
        let mut counts = Vec::new();
        for _ in 0..12 {
            let cp = s.checkpoint();
            s.fix(0, 20);
            s.fix(1, 15);
            let _ = s.value_feasible_guided(2, 25);
            let _ = s.prefix_feasible_guided(3, 4, 1);
            s.rollback(cp);
            counts.push(s.solver().num_live_clauses());
        }
        // Permanent additions (Tseitin definitions, theory lemmas, learnt
        // clauses over permanent clauses) may appear while the caches warm
        // up; after that the count must be flat.
        assert!(
            counts[3..].windows(2).all(|w| w[0] == w[1]),
            "clause DB not steady across rounds: {counts:?}"
        );
    }

    /// One variable over `[0, hi]` that may take neither 3 nor `hi - 3`.
    fn wide_session(hi: i64) -> JitSession {
        let mut s = JitSession::new(&DecodeSchema::fine_series(1, hi));
        let solver = s.solver_mut();
        let v = solver.pool().find_var("fine0").unwrap();
        let t = solver.var(v);
        for c in [3, hi - 3] {
            let c = solver.int(c);
            let ne = solver.ne(t, c);
            solver.assert(ne);
        }
        s
    }

    #[test]
    fn a_wide_domain_answers_guided_queries_within_a_fixed_check_budget() {
        // Nothing inside a hull is classified up front — sweeping
        // [0, 10^7] by decades would take 10^6 checks, and [0, i64::MAX]
        // more memory than a box holds — so each decade a query lands in is
        // enumerated when it does, at the top of i64 too, where the
        // decade's end is no i64. The exact side answers at `i64::MAX`
        // itself, its window's upper end left out.
        for hi in [10_000_000, i64::MAX] {
            let mut guided = wide_session(hi);
            let mut exact = wide_session(hi);
            let values = (0..=12).chain((hi - 14..=hi).rev());
            for value in values {
                assert_eq!(
                    guided.value_feasible_guided(0, value),
                    exact.value_feasible(0, value),
                    "value {value} over [0, {hi}]"
                );
            }
            for prefix in [1, 9, hi / 100, hi / 10] {
                assert_eq!(
                    guided.prefix_feasible_guided(0, prefix, 1),
                    exact.prefix_feasible(0, prefix, 1),
                    "prefix {prefix} over [0, {hi}]"
                );
            }
            let checks = guided.solver().stats().checks;
            assert!(checks < 200, "{checks} checks over [0, {hi}]");
        }
    }
}
