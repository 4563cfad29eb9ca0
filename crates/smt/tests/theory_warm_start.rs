//! Warm-start equivalence: a persistent [`TheorySession`] checked against
//! the stateless [`check_conjunction`] oracle.
//!
//! The warm session carries its simplex basis (and the feasible point `β`)
//! across checks, so its Sat *models* and Unsat *cores* may differ from a
//! cold rebuild — but its verdicts must be semantically equivalent on every
//! check of any sequence:
//!
//! * same Sat/Unsat discriminant as a fresh single-check session,
//! * a Sat model satisfies every checked atom and every declared bound,
//! * an Unsat core holds valid indices whose sub-conjunction the oracle
//!   also rejects.
//!
//! A second family of tests pins the steady-state memory contract: the live
//! tableau is bounded by the declared variables plus the *distinct* atom
//! linear forms — not by the number of checks.

use proptest::prelude::*;

use lejit_smt::{
    check_conjunction, LinAtom, LinExpr, Solver, TermPool, TheoryConfig, TheorySession,
    TheoryVerdict, VarId,
};

/// A random conjunction problem: a shared variable box plus a sequence of
/// conjunctions checked one after another against the same warm session.
#[derive(Clone, Debug)]
struct WarmProblem {
    num_vars: usize,
    lo: i64,
    hi: i64,
    /// Each inner vec is one check's conjunction, as `(coeffs, constant)`
    /// rows meaning `Σ cᵢ·xᵢ + k ≤ 0`.
    checks: Vec<Vec<(Vec<i64>, i64)>>,
}

fn warm_problem() -> impl Strategy<Value = WarmProblem> {
    (2usize..=3, 0i64..=2, 4i64..=8).prop_flat_map(|(num_vars, lo, hi_off)| {
        let atom = (proptest::collection::vec(-3i64..=3, num_vars), -20i64..=20);
        proptest::collection::vec(proptest::collection::vec(atom, 0..=4), 1..=8).prop_map(
            move |checks| WarmProblem {
                num_vars,
                lo,
                hi: lo + hi_off,
                checks,
            },
        )
    })
}

fn build_pool(p: &WarmProblem) -> (TermPool, Vec<VarId>) {
    let mut pool = TermPool::new();
    let vars = (0..p.num_vars)
        .map(|i| pool.int_var(&format!("x{i}"), p.lo, p.hi))
        .collect();
    (pool, vars)
}

/// Registers `atoms` with the session and returns them as positive
/// literals (re-registering an atom is allowed: its slack row is interned).
fn positive_lits(
    session: &mut TheorySession,
    pool: &TermPool,
    atoms: &[LinAtom],
) -> Vec<(u32, bool)> {
    atoms
        .iter()
        .map(|a| (session.add_atom(pool, Ok(a)).unwrap(), true))
        .collect()
}

fn build_atoms(vars: &[VarId], rows: &[(Vec<i64>, i64)]) -> Vec<LinAtom> {
    rows.iter()
        .map(|(coeffs, constant)| {
            let mut e = LinExpr::constant(*constant);
            for (i, &c) in coeffs.iter().enumerate() {
                e.add_term(vars[i], c).unwrap();
            }
            LinAtom { expr: e }
        })
        .collect()
}

/// Body of `warm_session_is_semantically_equivalent_to_fresh_oracle`, a
/// plain function to keep the `proptest!` macro small.
fn check_equivalence(p: &WarmProblem) {
    let (pool, vars) = build_pool(p);
    let config = TheoryConfig::default();
    let mut session = TheorySession::new();
    for (step, rows) in p.checks.iter().enumerate() {
        let atoms = build_atoms(&vars, rows);
        let lits = positive_lits(&mut session, &pool, &atoms);
        let base = lits.first().map_or(0, |l| l.0 as usize);
        let warm = match session.check(&pool, &lits, config).unwrap() {
            // Cores name registry indices; rebase onto this step's slice.
            TheoryVerdict::Unsat(core) => {
                TheoryVerdict::Unsat(core.into_iter().map(|i| i - base).collect())
            }
            other => other,
        };
        let fresh = check_conjunction(&pool, &atoms, config).unwrap();
        match (&warm, &fresh) {
            (TheoryVerdict::Sat(model), TheoryVerdict::Sat(_)) => {
                // The warm model need not equal the fresh model, but it must
                // be a *witness*: every atom and every declared bound holds.
                let assign = |v: VarId| model[&v];
                for (i, a) in atoms.iter().enumerate() {
                    prop_assert!(
                        a.holds(&assign),
                        "step {step}: warm model {model:?} violates atom {i}"
                    );
                }
                for &v in &vars {
                    let info = pool.var_info(v);
                    prop_assert!(
                        (info.lo..=info.hi).contains(&model[&v]),
                        "step {step}: warm model violates declared bounds of {}",
                        info.name
                    );
                }
            }
            (TheoryVerdict::Unsat(core), TheoryVerdict::Unsat(_)) => {
                // Valid indices, and the core alone must already be
                // inconsistent according to the stateless oracle.
                prop_assert!(core.iter().all(|&i| i < atoms.len()), "step {step}");
                let sub: Vec<LinAtom> = core.iter().map(|&i| atoms[i].clone()).collect();
                let sub_verdict = check_conjunction(&pool, &sub, config).unwrap();
                prop_assert!(
                    matches!(sub_verdict, TheoryVerdict::Unsat(_)),
                    "step {step}: warm core {core:?} is not itself unsat"
                );
            }
            _ => prop_assert!(
                false,
                "step {step}: warm verdict {warm:?} disagrees with fresh {fresh:?}"
            ),
        }
    }
}

/// Body of `tableau_is_bounded_by_distinct_linear_forms`.
fn check_tableau_bound(p: &WarmProblem) {
    let (pool, vars) = build_pool(p);
    let config = TheoryConfig::default();
    let mut session = TheorySession::new();
    // One full pass interns every distinct linear form the sequence uses.
    for rows in &p.checks {
        let atoms = build_atoms(&vars, rows);
        let lits = positive_lits(&mut session, &pool, &atoms);
        session.check(&pool, &lits, config).unwrap();
    }
    let high_water = session.tableau_size();
    // Re-running the whole sequence (in any number of cycles) must not grow
    // the tableau: every row is answered by the interning map.
    for _ in 0..3 {
        for rows in &p.checks {
            let atoms = build_atoms(&vars, rows);
            let lits = positive_lits(&mut session, &pool, &atoms);
            session.check(&pool, &lits, config).unwrap();
        }
    }
    prop_assert_eq!(
        session.tableau_size(),
        high_water,
        "tableau grew on re-checked conjunctions: rows are not interned"
    );
    // The bound itself: one simplex var per declared int var, plus at most
    // one slack row per *distinct* multi-variable linear form ever checked.
    let mut forms: std::collections::BTreeSet<Vec<(VarId, i64)>> =
        std::collections::BTreeSet::new();
    for rows in &p.checks {
        for a in &build_atoms(&vars, rows) {
            if a.expr.coeffs.len() > 1 {
                forms.insert(a.expr.coeffs.iter().map(|(&v, &c)| (v, c)).collect());
            }
        }
    }
    let (tab_vars, tab_rows) = session.tableau_size();
    prop_assert!(
        tab_rows <= forms.len(),
        "{tab_rows} slack rows for {} distinct multi-var forms",
        forms.len()
    );
    prop_assert!(tab_vars <= p.num_vars + tab_rows);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn warm_session_is_semantically_equivalent_to_fresh_oracle(p in warm_problem()) {
        check_equivalence(&p);
    }

    #[test]
    fn tableau_is_bounded_by_distinct_linear_forms(p in warm_problem()) {
        check_tableau_bound(&p);
    }
}

#[test]
fn solver_tableau_reaches_steady_state_under_framed_probing() {
    // The PR 5 high-water-mark methodology, applied to the theory tableau:
    // a long run of identical push/assert/check/pop frames against one
    // solver must hold `theory_tableau_size()` flat after the first frame —
    // the warm backend interns each frame's rows once and reuses them, so
    // session lifetime does not leak into tableau size.
    let mut s = Solver::new();
    let vars: Vec<_> = (0..5).map(|t| s.int_var(&format!("i{t}"), 0, 60)).collect();
    let terms: Vec<_> = vars.iter().map(|&v| s.var(v)).collect();
    let total = s.add(&terms);
    let hundred = s.int(100);
    let sum_eq = s.eq(total, hundred);
    s.assert(sum_eq);
    let mut sizes = Vec::new();
    for round in 0..12 {
        s.push();
        let c = s.int(17 + (round % 3));
        let eq = s.eq(terms[0], c);
        s.assert(eq);
        s.check().unwrap();
        s.pop();
        sizes.push(s.theory_tableau_size());
    }
    let warmup_max = sizes[..3].iter().max().copied().unwrap();
    for (i, &sz) in sizes.iter().enumerate().skip(3) {
        assert!(
            sz <= warmup_max,
            "round {i}: tableau {sz:?} exceeds warm-up high-water mark \
             {warmup_max:?} — slack rows are leaking (sizes: {sizes:?})"
        );
    }
}
