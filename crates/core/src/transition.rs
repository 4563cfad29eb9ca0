//! The character-level transition system (Fig. 2), built on the fly.
//!
//! LeJIT "constructs a character-level transition system … where the current
//! state reflects the last token selected by the LLM, and the set of next
//! states includes all tokens that would maintain the value within the valid
//! region." Here a *state* is the decimal digit prefix emitted so far for
//! the current variable; the successor set is computed by querying the
//! solver per candidate character:
//!
//! * digit `d` is allowed when some completion of `prefix·10 + d` is still
//!   feasible (solver lookahead), and
//! * the terminator is allowed when the value `prefix` itself is feasible.
//!
//! [`Lookahead::ImmediateOnly`] is the ablation corresponding to classic
//! grammar-constrained decoding: digits are filtered only by structural
//! validity (digit budget, no leading zeros, declared bounds), and the
//! solver is consulted only at the terminator. The paper argues this is
//! insufficient — without lookahead the decoder can walk into dead ends
//! (§2.2: such filters "cannot … ensure that a future token can satisfy the
//! constraint model"), which the ablation benchmark measures.

use crate::schema::VarSpec;
use crate::session::{decimal_windows, JitSession};

/// Lookahead policy for the transition system.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Lookahead {
    /// The exact oracle: every digit is checked for completability with its
    /// own window probe (same answers as the default, more solver checks).
    Full,
    /// Ablation: digits filtered structurally; solver consulted only when
    /// terminating a value. Can dead-end.
    ImmediateOnly,
    /// The default, interval-guided lookahead: identical decisions to
    /// [`Full`] (same allowed sets, same zero-violation guarantee), but most
    /// per-character queries are answered from the variable's cached
    /// feasible hull, a proven-feasible witness or a certified-infeasible
    /// gap instead of fresh solver checks. See
    /// [`JitSession::prefix_feasible_guided`].
    ///
    /// [`Full`]: Lookahead::Full
    #[default]
    IntervalGuided,
}

/// The characters allowed in the current state.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CharOptions {
    /// Digits (0–9) that may be emitted next.
    pub digits: Vec<u8>,
    /// Whether the variable's terminator may be emitted next.
    pub terminator: bool,
}

impl CharOptions {
    /// Whether no continuation exists (a decoding dead end).
    pub fn is_dead_end(&self) -> bool {
        self.digits.is_empty() && !self.terminator
    }
}

/// Decoding state for one variable: the digit prefix emitted so far.
#[derive(Clone, Debug)]
pub struct VarState {
    /// Numeric value of the digits emitted so far.
    pub prefix: i64,
    /// Number of digits emitted so far.
    pub len: usize,
}

impl VarState {
    /// The initial (empty-prefix) state.
    pub fn start() -> VarState {
        VarState { prefix: 0, len: 0 }
    }

    /// Pushes digit `d` onto the prefix. Returns `false`, leaving the state
    /// as it was, when the value would lie past `i64`; [`allowed_chars`]
    /// never offers such a digit.
    #[must_use]
    pub fn push(&mut self, d: u8) -> bool {
        debug_assert!(d < 10);
        let Some(prefix) = extend(self.prefix, d) else {
            return false;
        };
        self.prefix = prefix;
        self.len += 1;
        true
    }
}

/// `prefix` with digit `d` appended, or `None` past `i64`.
fn extend(prefix: i64, d: u8) -> Option<i64> {
    prefix.checked_mul(10)?.checked_add(i64::from(d))
}

/// Computes the allowed next characters for variable `k` in state `st`.
pub fn allowed_chars(
    session: &mut JitSession,
    k: usize,
    spec: &VarSpec,
    st: &VarState,
    lookahead: Lookahead,
) -> CharOptions {
    let max_digits = spec.max_digits();
    let mut out = CharOptions::default();

    // Terminator: needs a non-empty prefix, and the exact value must be
    // feasible (both policies consult the solver here — emitting the
    // terminator *commits* the value).
    if st.len > 0 {
        out.terminator = match lookahead {
            Lookahead::IntervalGuided => session.value_feasible_guided(k, st.prefix),
            _ => session.value_feasible(k, st.prefix),
        };
    }

    // Digits.
    if st.len < max_digits {
        // After a leading zero, no digit may follow (value is exactly 0).
        let leading_zero = st.len > 0 && st.prefix == 0;
        if !leading_zero {
            for d in 0..=9u8 {
                if st.len == 0 && d == 0 {
                    // "0" commits the value 0 (only the terminator may follow).
                    let ok = match lookahead {
                        Lookahead::Full => session.value_feasible(k, 0),
                        Lookahead::ImmediateOnly => spec.lo <= 0 && 0 <= spec.hi,
                        Lookahead::IntervalGuided => session.value_feasible_guided(k, 0),
                    };
                    if ok {
                        out.digits.push(0);
                    }
                    continue;
                }
                // A prefix past `i64` holds no representable value.
                let Some(new_prefix) = extend(st.prefix, d) else {
                    continue;
                };
                let extra = max_digits - st.len - 1;
                let ok = match lookahead {
                    Lookahead::Full => session.prefix_feasible(k, new_prefix, extra),
                    Lookahead::ImmediateOnly => {
                        prefix_within_declared_bounds(new_prefix, extra, spec)
                    }
                    Lookahead::IntervalGuided => {
                        session.prefix_feasible_guided(k, new_prefix, extra)
                    }
                };
                if ok {
                    out.digits.push(d);
                }
            }
        }
    }
    out
}

/// Structural check: can `prefix` (with up to `extra` more digits) reach a
/// value inside the *declared* bounds, ignoring all rules?
fn prefix_within_declared_bounds(prefix: i64, extra: usize, spec: &VarSpec) -> bool {
    decimal_windows(prefix, extra).any(|(lo, hi)| hi >= spec.lo && lo <= spec.hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::DecodeSchema;
    use lejit_rules::{ground_rule, parse_rules, GroundCtx};
    use lejit_telemetry::CoarseField;

    fn spec(hi: i64) -> VarSpec {
        VarSpec {
            name: "x".into(),
            lo: 0,
            hi,
        }
    }

    /// Session over the paper's R1+R2, with the first three values fixed.
    fn constrained_session() -> JitSession {
        let schema = DecodeSchema::fine_series(5, 60);
        let mut session = JitSession::new(&schema);
        let rules = parse_rules(
            "rule r1: forall t: fine[t] >= 0 and fine[t] <= 60;
             rule r2: sum(fine) == total_ingress;",
        )
        .unwrap();
        let solver = session.solver_mut();
        let coarse_vals = [100i64, 0, 0, 0, 0, 0];
        let coarse_vec: Vec<_> = CoarseField::ALL
            .into_iter()
            .map(|f| solver.int(coarse_vals[f.index()]))
            .collect();
        let fine: Vec<_> = (0..5)
            .map(|t| {
                let v = solver.pool().find_var(&format!("fine{t}")).unwrap();
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
        session.fix(0, 20);
        session.fix(1, 15);
        session.fix(2, 25);
        session
    }

    #[test]
    fn full_lookahead_prunes_to_feasible_region() {
        // I_3 ∈ [0, 40]: every first digit d is allowed (the single-digit
        // value d itself is in range), but the *extensions* are pruned.
        let mut s = constrained_session();
        let sp = spec(60);
        let opts = allowed_chars(&mut s, 3, &sp, &VarState::start(), Lookahead::Full);
        assert_eq!(opts.digits, vec![0, 1, 2, 3, 4, 5, 6, 7, 8, 9]);
        assert!(!opts.terminator, "empty prefix cannot terminate");

        // After "4": digit 0 only (40; 41–49 exceed the region); term ok (4).
        let mut st = VarState::start();
        assert!(st.push(4));
        let opts = allowed_chars(&mut s, 3, &sp, &st, Lookahead::Full);
        assert_eq!(opts.digits, vec![0]);
        assert!(opts.terminator);

        // After "5": 50–59 all exceed 40, so *no* digit may follow — the
        // lookahead steers the model to terminate with the value 5. This is
        // exactly where ImmediateOnly (below) lets the model derail.
        let mut st5 = VarState::start();
        assert!(st5.push(5));
        let opts = allowed_chars(&mut s, 3, &sp, &st5, Lookahead::Full);
        assert!(opts.digits.is_empty());
        assert!(opts.terminator);

        // After "40": no more digits (max width reached); terminator ok.
        assert!(st.push(0));
        let opts = allowed_chars(&mut s, 3, &sp, &st, Lookahead::Full);
        assert!(opts.digits.is_empty());
        assert!(opts.terminator);
    }

    #[test]
    fn forced_single_value_leaves_one_path() {
        // Fix I_3 = 39 → I_4 must be exactly 1 (Fig. 1b step 5).
        let mut s = constrained_session();
        s.fix(3, 39);
        let sp = spec(60);
        let opts = allowed_chars(&mut s, 4, &sp, &VarState::start(), Lookahead::Full);
        assert_eq!(opts.digits, vec![1]);
        let mut st = VarState::start();
        assert!(st.push(1));
        let opts = allowed_chars(&mut s, 4, &sp, &st, Lookahead::Full);
        assert!(opts.terminator);
        assert!(opts.digits.is_empty(), "10..19 all exceed the forced 1");
    }

    #[test]
    fn leading_zero_commits_zero() {
        let mut s = constrained_session();
        let sp = spec(60);
        // "0" is feasible for I_3 (others can absorb the remaining 40).
        let opts = allowed_chars(&mut s, 3, &sp, &VarState::start(), Lookahead::Full);
        assert!(opts.digits.contains(&0));
        let mut st = VarState::start();
        assert!(st.push(0));
        let opts = allowed_chars(&mut s, 3, &sp, &st, Lookahead::Full);
        assert!(opts.terminator);
        assert!(opts.digits.is_empty(), "no digits after a leading zero");
    }

    #[test]
    fn immediate_only_allows_structurally_valid_digits() {
        let mut s = constrained_session();
        let sp = spec(60);
        // Structural filter only: first digit 0..6 possible within hi = 60
        // (7..9 can't start any value ≤ 60 of ≤ 2 digits? 7,8,9 themselves
        // are ≤ 60 — so all digits are structurally fine).
        let opts = allowed_chars(&mut s, 3, &sp, &VarState::start(), Lookahead::ImmediateOnly);
        assert_eq!(opts.digits, vec![0, 1, 2, 3, 4, 5, 6, 7, 8, 9]);

        // After "5", ImmediateOnly still offers digits 0–9 (50–59 are within
        // the declared bound 60) even though every one of them is
        // rule-infeasible — the decoder can walk into a dead end at "59".
        let mut st = VarState::start();
        assert!(st.push(5));
        let opts = allowed_chars(&mut s, 3, &sp, &st, Lookahead::ImmediateOnly);
        assert!(opts.terminator, "value 5 itself is feasible");
        assert!(
            !opts.digits.is_empty(),
            "structural filter lets doomed digits pass"
        );

        assert!(st.push(9));
        let opts = allowed_chars(&mut s, 3, &sp, &st, Lookahead::ImmediateOnly);
        assert!(
            opts.is_dead_end(),
            "59 cannot terminate or extend: dead end"
        );
    }

    #[test]
    fn full_lookahead_never_dead_ends_here() {
        // Walk every reachable state for I_3 under Full lookahead and check
        // the invariant: reachable ⇒ not a dead end.
        let mut s = constrained_session();
        let sp = spec(60);
        let mut stack = vec![VarState::start()];
        let mut visited = 0;
        while let Some(st) = stack.pop() {
            let opts = allowed_chars(&mut s, 3, &sp, &st, Lookahead::Full);
            assert!(
                !opts.is_dead_end() || st.len == 0,
                "dead end at prefix {} (len {})",
                st.prefix,
                st.len
            );
            visited += 1;
            for &d in &opts.digits {
                let mut next = st.clone();
                assert!(next.push(d));
                stack.push(next);
            }
        }
        assert!(visited > 10, "explored only {visited} states");
    }

    #[test]
    fn interval_guided_equals_full_on_every_reachable_state() {
        // Walk every reachable state for I_3 with paired sessions and check
        // the tentpole invariant: IntervalGuided computes the *same*
        // CharOptions as Full at every state, while issuing fewer checks.
        let mut full = constrained_session();
        let mut guided = constrained_session();
        let sp = spec(60);
        let mut stack = vec![VarState::start()];
        while let Some(st) = stack.pop() {
            let f = allowed_chars(&mut full, 3, &sp, &st, Lookahead::Full);
            let g = allowed_chars(&mut guided, 3, &sp, &st, Lookahead::IntervalGuided);
            assert_eq!(f, g, "divergence at prefix {} (len {})", st.prefix, st.len);
            for &d in &f.digits {
                let mut next = st.clone();
                assert!(next.push(d));
                stack.push(next);
            }
        }
        assert!(
            guided.solver().stats().checks < full.solver().stats().checks,
            "guided should be cheaper: {} vs {} checks",
            guided.solver().stats().checks,
            full.solver().stats().checks
        );
        assert!(guided.solver_checks_saved() > 0);
    }

    #[test]
    fn declared_bounds_prefix_check() {
        let sp = spec(60);
        assert!(prefix_within_declared_bounds(4, 1, &sp)); // 4 or 40..49
        assert!(prefix_within_declared_bounds(6, 0, &sp)); // 6
        assert!(prefix_within_declared_bounds(60, 0, &sp));
        assert!(!prefix_within_declared_bounds(61, 0, &sp));
        // 7 itself is fine even though 70..79 are not.
        assert!(prefix_within_declared_bounds(7, 1, &sp));
        // 61 with room to extend is still out of range (610.. too big).
        assert!(!prefix_within_declared_bounds(61, 1, &sp));
    }

    /// One variable `x ∈ [0, i64::MAX]` with `x ≥ 9_200_000_000_000_000_000`.
    fn edge_session() -> JitSession {
        let mut s = JitSession::new(&DecodeSchema::fine_series(1, i64::MAX));
        let solver = s.solver_mut();
        let v = solver.pool().find_var("fine0").unwrap();
        let (x, floor) = (solver.var(v), solver.int(9_200_000_000_000_000_000));
        let ge = solver.ge(x, floor);
        solver.assert(ge);
        s
    }

    #[test]
    fn the_lookahead_stops_at_the_i64_edge() {
        let sp = spec(i64::MAX);
        let mut s = edge_session();
        // `x ≥ 9.2·10^18` takes 19 digits, and every 19-digit value from
        // 93… on lies past `i64`: after `9`, only `2` can complete. The
        // exact probe agrees: a window ending at `i64::MAX` is asked
        // without that end.
        let mut st = VarState::start();
        assert!(st.push(9));
        for lookahead in [Lookahead::IntervalGuided, Lookahead::Full] {
            let opts = allowed_chars(&mut s, 0, &sp, &st, lookahead);
            assert_eq!(opts.digits, [2], "{lookahead:?}");
            assert!(!opts.terminator, "{lookahead:?}");
        }

        // One digit short of i64::MAX = 9223372036854775807.
        let st = VarState {
            prefix: 922_337_203_685_477_580,
            len: 18,
        };
        for lookahead in [
            Lookahead::IntervalGuided,
            Lookahead::ImmediateOnly,
            Lookahead::Full,
        ] {
            let opts = allowed_chars(&mut s, 0, &sp, &st, lookahead);
            assert_eq!(opts.digits, (0..=7).collect::<Vec<u8>>(), "{lookahead:?}");
            assert!(!opts.terminator, "{lookahead:?}");
        }
        let mut top = st.clone();
        assert!(!top.push(8), "a push past i64 must be refused");
        assert_eq!((top.prefix, top.len), (st.prefix, st.len));

        // Taking the largest allowed digit at every step walks to i64::MAX.
        for lookahead in [Lookahead::IntervalGuided, Lookahead::Full] {
            let mut s = edge_session();
            let mut st = VarState::start();
            loop {
                let opts = allowed_chars(&mut s, 0, &sp, &st, lookahead);
                match opts.digits.last() {
                    Some(&d) => assert!(st.push(d)),
                    None => {
                        assert!(opts.terminator, "{lookahead:?}: dead end at {}", st.prefix);
                        break;
                    }
                }
            }
            assert_eq!(st.prefix, i64::MAX, "{lookahead:?}");
        }
    }
}
