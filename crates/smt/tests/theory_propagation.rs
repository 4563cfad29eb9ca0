//! Theory propagation: the differential oracle, the lazy-explanation
//! contract and the final-check protocol.
//!
//! Four families:
//!
//! 1. A scripted [`TheoryPropagator`] drives the SAT core directly and pins
//!    the lazy-reason protocol: a propagated literal resolved on by 1-UIP
//!    must have its explanation materialized (exactly then, not before),
//!    and the resulting learnt clause must produce the same verdict the
//!    eager encoding would.
//! 2. A scripted final check pins what the search does with a refuted
//!    complete assignment: the lemma is analysed where the search stands
//!    and the hook is asked again inside the same `solve_with` call.
//! 3. A differential proptest: full [`Solver`] workloads with
//!    `TheoryConfig::propagate` on vs off. Verdicts and objective values
//!    (`minimize`/`maximize`) are semantically determined, so they must be
//!    identical; only the search path (and its cost profile) may differ.
//! 4. Frame-scoped explanation lifetime: explanation clauses are guarded by
//!    the innermost frame selector, so `pop` deletes them and long sessions
//!    stay flat — the same high-water-mark methodology as
//!    `session_reuse_flat.rs`.

use proptest::prelude::*;

use lejit_smt::sat::SatOutcome;
use lejit_smt::{
    FinalCheck, Lit, SatResult, SatSolver, Solver, SolverError, TermId, TheoryConfig,
    TheoryPropagator, VarId,
};

/// A propagator for a fixed implication `p ⇒ q`, counting explanation
/// requests so the test can observe *when* the reason was materialized.
struct ScriptedPropagator {
    p: Lit,
    q: Lit,
    explains: u64,
}

impl TheoryPropagator for ScriptedPropagator {
    fn propagate(&mut self, sat: &SatSolver, out: &mut Vec<Lit>) -> Result<(), SolverError> {
        let p_holds = sat.assigned_value(self.p.var()) == Some(self.p.is_positive());
        if p_holds && sat.assigned_value(self.q.var()).is_none() {
            out.push(self.q);
        }
        Ok(())
    }

    fn explain(&mut self, lit: Lit) -> Result<Vec<Lit>, SolverError> {
        assert_eq!(lit, self.q, "only q is ever propagated");
        self.explains += 1;
        Ok(vec![self.q, !self.p])
    }
}

#[test]
fn lazy_reason_clause_resolves_in_conflict_analysis() {
    // p assumed, theory says p ⇒ q, clauses say p ∧ q ⇒ r and p ∧ q ⇒ ¬r.
    // The ternary clauses stay inert until the *theory* places q on the
    // trail (unit propagation alone cannot derive it), after which they
    // collapse to a conflict whose analysis must resolve through q — forcing
    // the lazy explanation [q ∨ ¬p] to materialize mid-analysis and yielding
    // the learnt unit ¬p (p is the 1-UIP).
    let mut sat = SatSolver::new();
    let p = Lit::new(sat.new_var(), true);
    let q = Lit::new(sat.new_var(), true);
    let r = Lit::new(sat.new_var(), true);
    assert!(sat.add_clause(&[!q, !p, r]));
    assert!(sat.add_clause(&[!q, !p, !r]));
    let mut prop = ScriptedPropagator { p, q, explains: 0 };

    assert_eq!(
        sat.solve_with(&[p], Some(&mut prop)).unwrap(),
        SatOutcome::Unsat
    );
    assert_eq!(prop.explains, 1, "exactly one resolution touched q");
    let stats = sat.stats();
    assert!(stats.theory_propagations >= 1);
    assert_eq!(stats.theory_explanations, 1);

    // The learnt ¬p is now a root fact: the instance stays satisfiable
    // without the assumption, and the propagator (whose trigger is dead)
    // is never asked for anything again.
    assert_eq!(
        sat.solve_with(&[], Some(&mut prop)).unwrap(),
        SatOutcome::Sat
    );
    assert_eq!(prop.explains, 1);
    assert!(!sat.model_value(p.var()));
}

#[test]
fn propagations_that_never_conflict_pay_for_no_explanation() {
    // p ⇒ q with nothing contradicting q: the literal is enqueued but no
    // conflict ever resolves on it, so explain() must never run.
    let mut sat = SatSolver::new();
    let p = Lit::new(sat.new_var(), true);
    let q = Lit::new(sat.new_var(), true);
    let mut prop = ScriptedPropagator { p, q, explains: 0 };
    assert_eq!(
        sat.solve_with(&[p], Some(&mut prop)).unwrap(),
        SatOutcome::Sat
    );
    assert!(
        sat.model_value(q.var()),
        "propagated literal is in the model"
    );
    let stats = sat.stats();
    assert!(stats.theory_propagations >= 1);
    assert_eq!(stats.theory_explanations, 0);
    assert_eq!(prop.explains, 0);
}

// ---------------------------------------------------------------------------
// The final-check protocol.
// ---------------------------------------------------------------------------

/// A plug-in that propagates nothing and answers each final check from a
/// closure over the assignment, counting how often it is asked.
struct ScriptedCheck<F: FnMut(&SatSolver) -> FinalCheck> {
    verdict: F,
    calls: u64,
}

impl<F: FnMut(&SatSolver) -> FinalCheck> ScriptedCheck<F> {
    fn new(verdict: F) -> Self {
        ScriptedCheck { verdict, calls: 0 }
    }
}

impl<F: FnMut(&SatSolver) -> FinalCheck> TheoryPropagator for ScriptedCheck<F> {
    fn propagate(&mut self, _: &SatSolver, _: &mut Vec<Lit>) -> Result<(), SolverError> {
        Ok(())
    }

    fn explain(&mut self, _: Lit) -> Result<Vec<Lit>, SolverError> {
        Err(SolverError::Internal("nothing was propagated"))
    }

    fn final_check(&mut self, sat: &SatSolver) -> Result<FinalCheck, SolverError> {
        self.calls += 1;
        Ok((self.verdict)(sat))
    }
}

/// Whether `l` holds under the solver's current assignment.
fn holds(sat: &SatSolver, l: Lit) -> bool {
    sat.assigned_value(l.var()) == Some(l.is_positive())
}

/// Refutes every assignment under which all of `together` hold, with the
/// lemma that negates them — a theory in which they are jointly
/// inconsistent.
fn forbid(together: Vec<Lit>) -> impl FnMut(&SatSolver) -> FinalCheck {
    move |sat| {
        if together.iter().all(|&l| holds(sat, l)) {
            FinalCheck::Conflict(together.iter().map(|&l| !l).collect())
        } else {
            FinalCheck::Consistent
        }
    }
}

#[test]
fn a_refuted_assignment_is_analysed_in_place_and_the_search_goes_on() {
    // Under the assumed selector s: (a ∨ b) ∧ (c ∨ d). Saved phases are
    // false, so the first complete assignment decides ¬a, ¬c and propagates
    // b, d — above the assumption level. The theory forbids b ∧ d; its
    // lemma, guarded the way `Solver` guards one, has its deepest literal
    // at the second decision. The other model (d false, hence c) must come
    // out of the same `solve_with` call: two final checks, one conflict.
    let mut sat = SatSolver::new();
    let s = Lit::new(sat.new_selector(), true);
    let [a, b, c, d] = [(); 4].map(|()| Lit::new(sat.new_var(), true));
    assert!(sat.add_clause(&[!s, a, b]));
    assert!(sat.add_clause(&[!s, c, d]));
    let mut check = ScriptedCheck::new(forbid(vec![s, b, d]));

    assert_eq!(
        sat.solve_with(&[s], Some(&mut check)).unwrap(),
        SatOutcome::Sat
    );
    assert_eq!(check.calls, 2, "the hook is asked again, not the solver");
    assert_eq!(sat.stats().conflicts, 1);
    assert_eq!(sat.stats().restarts, 0);
    assert!(sat.model_value(b.var()) && !sat.model_value(d.var()));
    assert!(sat.model_value(c.var()), "c ∨ d with d refuted");
    // The lemma and what was learnt from it carry ¬s: they go with the
    // frame, and the formula is as it was.
    sat.retract(s.var());
    assert_eq!(sat.num_live_clauses(), 0);
}

#[test]
fn a_lemma_false_at_the_root_makes_the_solver_unsat_for_good() {
    let mut sat = SatSolver::new();
    let a = Lit::new(sat.new_var(), true);
    let b = Lit::new(sat.new_var(), true);
    assert!(sat.add_clause(&[a]));
    assert!(sat.add_clause(&[b]));
    let mut check = ScriptedCheck::new(forbid(vec![a, b]));
    assert_eq!(
        sat.solve_with(&[], Some(&mut check)).unwrap(),
        SatOutcome::Unsat
    );
    assert_eq!(check.calls, 1);
    // No assumption was involved: nothing can make it satisfiable again.
    assert_eq!(sat.solve(&[]).unwrap(), SatOutcome::Unsat);
    assert!(!sat.add_clause(&[a, b]));
}

#[test]
fn a_unit_lemma_is_enqueued_at_the_root() {
    // r is a root fact and a ∨ b is decided ¬a, b. The lemma ¬r ∨ ¬b is a
    // unit once its root-false literal is dropped: ¬b becomes a root fact,
    // a follows, and the second final check accepts.
    let mut sat = SatSolver::new();
    let [r, a, b] = [(); 3].map(|()| Lit::new(sat.new_var(), true));
    assert!(sat.add_clause(&[r]));
    assert!(sat.add_clause(&[a, b]));
    let mut check = ScriptedCheck::new(forbid(vec![r, b]));
    assert_eq!(
        sat.solve_with(&[], Some(&mut check)).unwrap(),
        SatOutcome::Sat
    );
    assert_eq!(check.calls, 2);
    assert!(sat.model_value(a.var()) && !sat.model_value(b.var()));
    // Root-level: assuming b is refused outright, with no search.
    let decisions = sat.stats().decisions;
    assert_eq!(sat.solve(&[b]).unwrap(), SatOutcome::Unsat);
    assert_eq!(sat.stats().decisions, decisions);
    assert_eq!(sat.solve(&[]).unwrap(), SatOutcome::Sat);
}

#[test]
fn a_backjump_below_an_assumption_level_places_the_assumption_again() {
    // Assumptions p (level 1) and q (level 2); x ∨ y is decided ¬x, y at
    // level 3. The theory forbids p ∧ y: the learnt clause ¬y ∨ ¬p asserts
    // at level 1, below q, which must be back on the trail — true — when
    // the hook is asked again.
    let mut sat = SatSolver::new();
    let [p, q, x, y] = [(); 4].map(|()| Lit::new(sat.new_var(), true));
    assert!(sat.add_clause(&[x, y]));
    let mut forbid_py = forbid(vec![p, y]);
    let mut check = ScriptedCheck::new(|sat: &SatSolver| {
        assert!(holds(sat, p) && holds(sat, q), "an assumption is missing");
        forbid_py(sat)
    });
    assert_eq!(
        sat.solve_with(&[p, q], Some(&mut check)).unwrap(),
        SatOutcome::Sat
    );
    assert_eq!(check.calls, 2);
    assert!(sat.model_value(x.var()) && !sat.model_value(y.var()));
}

#[test]
fn a_learnt_clause_that_falsifies_an_assumption_answers_unsat() {
    // The theory forbids the two assumptions together: analysis learns
    // ¬q ∨ ¬p, backjumps to p's level, and q cannot be placed again.
    let mut sat = SatSolver::new();
    let [p, q] = [(); 2].map(|()| Lit::new(sat.new_var(), true));
    let mut check = ScriptedCheck::new(forbid(vec![p, q]));
    assert_eq!(
        sat.solve_with(&[p, q], Some(&mut check)).unwrap(),
        SatOutcome::Unsat
    );
    assert_eq!(check.calls, 1);
    // Unsat under those assumptions only.
    assert_eq!(
        sat.solve_with(&[p], Some(&mut check)).unwrap(),
        SatOutcome::Sat
    );
    assert_eq!(sat.solve(&[q]).unwrap(), SatOutcome::Sat);
}

#[test]
fn giving_up_surfaces_as_unknown() {
    let mut sat = SatSolver::new();
    let a = Lit::new(sat.new_var(), true);
    let b = Lit::new(sat.new_var(), true);
    assert!(sat.add_clause(&[a, b]));
    let mut check = ScriptedCheck::new(|_: &SatSolver| FinalCheck::Unknown);
    assert_eq!(
        sat.solve_with(&[], Some(&mut check)).unwrap(),
        SatOutcome::Unknown
    );
    assert_eq!(check.calls, 1);
    // Unknown is no verdict: the same formula without the theory is Sat.
    assert_eq!(sat.solve(&[]).unwrap(), SatOutcome::Sat);
}

#[test]
fn a_lemma_the_assignment_does_not_falsify_is_an_internal_error() {
    // a ∨ b is decided ¬a, b. A lemma containing b (true), a literal of a
    // variable no clause mentions (unassigned) or of one never allocated
    // is a broken hook: reported, never searched on, never a verdict.
    let stranger = Lit::new(lejit_smt::SatVar::from_index(99), true);
    for bad in [0usize, 1, 2] {
        let mut sat = SatSolver::new();
        let [a, b, idle] = [(); 3].map(|()| Lit::new(sat.new_var(), true));
        assert!(sat.add_clause(&[a, b]));
        let lemma = [vec![a, b], vec![a, idle], vec![a, stranger]][bad].clone();
        let mut check =
            ScriptedCheck::new(move |_: &SatSolver| FinalCheck::Conflict(lemma.clone()));
        assert!(
            matches!(
                sat.solve_with(&[], Some(&mut check)),
                Err(SolverError::Internal(_))
            ),
            "lemma {bad}"
        );
        assert_eq!(sat.solve(&[]).unwrap(), SatOutcome::Sat, "lemma {bad}");
    }
}

// ---------------------------------------------------------------------------
// Differential oracle: propagate=on vs propagate=off.
// ---------------------------------------------------------------------------

/// A random formula: a shared variable box plus constraints, each a
/// disjunction of linear atoms `Σ cᵢ·xᵢ ≤ k`.
#[derive(Clone, Debug)]
struct DiffProblem {
    num_vars: usize,
    lo: i64,
    hi: i64,
    constraints: Vec<Vec<(Vec<i64>, i64)>>,
}

fn diff_problem() -> impl Strategy<Value = DiffProblem> {
    (2usize..=3, 0i64..=2, 4i64..=8).prop_flat_map(|(num_vars, lo, hi_off)| {
        let atom = (proptest::collection::vec(-3i64..=3, num_vars), -20i64..=20);
        let constraint = proptest::collection::vec(atom, 1..=2);
        proptest::collection::vec(constraint, 1..=6).prop_map(move |constraints| DiffProblem {
            num_vars,
            lo,
            hi: lo + hi_off,
            constraints,
        })
    })
}

fn assert_problem(s: &mut Solver, p: &DiffProblem) -> Vec<VarId> {
    let vars: Vec<VarId> = (0..p.num_vars)
        .map(|i| s.int_var(&format!("x{i}"), p.lo, p.hi))
        .collect();
    for disjuncts in &p.constraints {
        let atoms: Vec<TermId> = disjuncts
            .iter()
            .map(|(coeffs, k)| {
                let terms: Vec<TermId> = coeffs
                    .iter()
                    .zip(&vars)
                    .filter(|(&c, _)| c != 0)
                    .map(|(&c, &v)| {
                        let tv = s.var(v);
                        s.mul_const(c, tv)
                    })
                    .collect();
                let lhs = if terms.is_empty() {
                    s.int(0)
                } else {
                    s.add(&terms)
                };
                let rhs = s.int(*k);
                s.le(lhs, rhs)
            })
            .collect();
        let t = s.or(&atoms);
        s.assert(t);
    }
    vars
}

/// Verdict plus `(min, max)` of `x0` when satisfiable.
type ConfigOutcome = (SatResult, Option<(Option<i64>, Option<i64>)>);

/// Verdict and objective values for one configuration. Objective values are
/// semantically determined by the formula, so they are directly comparable
/// across configurations even though models and search paths are not.
fn run_config(p: &DiffProblem, propagate: bool) -> ConfigOutcome {
    let mut s = Solver::new();
    s.set_theory_config(TheoryConfig {
        propagate,
        ..TheoryConfig::default()
    });
    let vars = assert_problem(&mut s, p);
    let r = s.check().unwrap();
    let objectives = if r == SatResult::Sat {
        Some((s.minimize(vars[0]).unwrap(), s.maximize(vars[0]).unwrap()))
    } else {
        None
    };
    (r, objectives)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn propagation_preserves_verdicts_and_objectives(p in diff_problem()) {
        let on = run_config(&p, true);
        let off = run_config(&p, false);
        prop_assert_eq!(&on, &off, "propagate=on diverged from the off oracle");
    }
}

// ---------------------------------------------------------------------------
// Frame-scoped explanation lifetime.
// ---------------------------------------------------------------------------

#[test]
fn explanation_clauses_are_retracted_with_their_frame() {
    // Each frame bounds i1 ≥ 50 (entailing ¬(i1 ≤ 5), which the theory
    // propagates onto the trail) and asserts a clause pair that forces the
    // atom A = (i1 ≤ 5) to be true at the boolean level — so every check
    // conflicts, and the conflict can only be explained by resolving
    // through the propagated ¬A, materializing its explanation clause
    // inside the frame. Because explanations are guarded by the innermost
    // frame selector, `pop` must delete them: the live clause count after
    // each cycle may not exceed its warm-up high-water mark. (A bound, not
    // a fix: a fix `i1 = 55` would decide both disjunctions for the spine,
    // whose `B` and `¬B` refute the check before any search.)
    let mut s = Solver::new();
    let vars: Vec<VarId> = (0..3).map(|t| s.int_var(&format!("i{t}"), 0, 60)).collect();
    let terms: Vec<TermId> = vars.iter().map(|&v| s.var(v)).collect();
    let mut counts = Vec::new();
    for round in 0..12i64 {
        s.push();
        let c50 = s.int(50);
        let floor = s.ge(terms[1], c50);
        s.assert(floor);
        let c5 = s.int(5);
        let a = s.le(terms[1], c5);
        let b = s.le(terms[2], c5);
        let nb = s.not(b);
        // (A ∨ B) ∧ (A ∨ ¬B) ⇒ A, contradicting the propagated ¬A.
        let d1 = s.or(&[a, b]);
        s.assert(d1);
        let d2 = s.or(&[a, nb]);
        s.assert(d2);
        assert_eq!(s.check().unwrap(), SatResult::Unsat, "round {round}");
        s.pop();
        counts.push(s.num_live_clauses());
    }
    let stats = s.stats();
    assert!(
        stats.theory_propagations > 0,
        "workload never propagated; the lifetime claim is untested"
    );
    assert!(
        stats.theory_explanations > 0,
        "no explanation clause was ever materialized; the lifetime claim \
         is untested"
    );
    let warmup_max = counts[..3].iter().max().copied().unwrap();
    for (i, &n) in counts.iter().enumerate().skip(3) {
        assert!(
            n <= warmup_max,
            "cycle {i}: {n} live clauses exceeds warm-up high-water mark \
             {warmup_max} — explanation clauses are leaking (counts: {counts:?})"
        );
    }
}
