//! The compiled-atom theory backend against independent oracles.
//!
//! [`TheorySession`] compiles each registered atom once into a bound on one
//! simplex variable, keeps the last conjunction standing on the tableau and
//! answers `check`/`propagate` from `(atom index, polarity)` literals. Three
//! oracles judge it on random atom sets over small boxes:
//!
//! * **brute force** over the box — shares no code with the solver, so a
//!   wrong compiled bound (which `check_conjunction`, compiling on entry,
//!   would share) cannot hide;
//! * [`check_conjunction`] on the literals as [`LinAtom`]s — a fresh tableau
//!   per question, no standing state;
//! * a **fresh session per consult** — a full rescan of every candidate,
//!   against the persistent session's consult-on-change verdict cache.

use proptest::prelude::*;

use lejit_smt::{
    check_conjunction, LinAtom, LinExpr, SatResult, Solver, TermPool, TheoryConfig,
    TheoryPropagation, TheorySession, TheoryVerdict, VarId,
};

/// Random atoms over a small box plus a sequence of partial assignments to
/// them, each step one consult and one check against the same session.
#[derive(Clone, Debug)]
struct Problem {
    num_vars: usize,
    lo: i64,
    hi: i64,
    /// `(coefficients, constant, mirror)`: `Σ cᵢ·xᵢ + k ≤ 0`; a mirrored
    /// atom takes atom 0's coefficients negated instead, so sign-flipped
    /// pairs (one shared slack row) occur in every run.
    atoms: Vec<(Vec<i64>, i64, bool)>,
    /// Per step and atom: 0 unassigned, 1 asserted, 2 asserted negated.
    steps: Vec<Vec<u8>>,
}

fn problem() -> impl Strategy<Value = Problem> {
    (2usize..=6, 0i64..=1, 1i64..=3, 3usize..=9).prop_flat_map(|(num_vars, lo, width, m)| {
        // Mostly-zero coefficients: single-variable atoms (direct bounds)
        // and multi-variable atoms (slack rows) both occur.
        let coeff = prop_oneof![3 => Just(0i64), 2 => -2i64..=2];
        let atom = (
            proptest::collection::vec(coeff, num_vars),
            -8i64..=8,
            prop_oneof![4 => Just(false), 1 => Just(true)],
        );
        let step = proptest::collection::vec(prop_oneof![2 => Just(0u8), 1 => 1u8..=2], m);
        (
            proptest::collection::vec(atom, m),
            proptest::collection::vec(step, 1..=6),
        )
            .prop_map(move |(atoms, steps)| Problem {
                num_vars,
                lo,
                hi: lo + width,
                atoms,
                steps,
            })
    })
}

fn build(p: &Problem) -> (TermPool, Vec<VarId>, Vec<LinAtom>) {
    let mut pool = TermPool::new();
    let vars: Vec<VarId> = (0..p.num_vars)
        .map(|i| pool.int_var(&format!("x{i}"), p.lo, p.hi))
        .collect();
    let atoms = p
        .atoms
        .iter()
        .map(|(coeffs, k, mirror)| {
            let mut e = LinExpr::constant(*k);
            for (i, &c) in coeffs.iter().enumerate() {
                e.add_term(vars[i], if *mirror { -p.atoms[0].0[i] } else { c })
                    .unwrap();
            }
            LinAtom { expr: e }
        })
        .collect();
    (pool, vars, atoms)
}

fn as_atom(atoms: &[LinAtom], (i, pol): (u32, bool)) -> LinAtom {
    let a = &atoms[i as usize];
    if pol {
        a.clone()
    } else {
        a.negated().unwrap()
    }
}

/// Whether some point of the box satisfies every literal.
fn brute_force_sat(p: &Problem, vars: &[VarId], lits: &[LinAtom]) -> bool {
    let width = (p.hi - p.lo + 1) as usize;
    (0..width.pow(p.num_vars as u32)).any(|mut code| {
        let point: Vec<i64> = (0..p.num_vars)
            .map(|_| {
                let v = p.lo + (code % width) as i64;
                code /= width;
                v
            })
            .collect();
        let assign = |v: VarId| point[vars.iter().position(|&w| w == v).unwrap()];
        lits.iter().all(|a| a.holds(&assign))
    })
}

fn oracle_unsat(pool: &TermPool, lits: &[LinAtom]) -> bool {
    matches!(
        check_conjunction(pool, lits, TheoryConfig::default()).unwrap(),
        TheoryVerdict::Unsat(_)
    )
}

fn run(p: &Problem) {
    let (pool, vars, atoms) = build(p);
    let config = TheoryConfig::default();
    let register = |s: &mut TheorySession| {
        for (i, a) in atoms.iter().enumerate() {
            assert_eq!(s.add_atom(&pool, Ok(a)).unwrap() as usize, i);
        }
    };
    let mut session = TheorySession::new();
    register(&mut session);
    for (step, assignment) in p.steps.iter().enumerate() {
        let asserted: Vec<(u32, bool)> = assignment
            .iter()
            .enumerate()
            .filter(|&(_, &a)| a != 0)
            .map(|(i, &a)| (i as u32, a == 1))
            .collect();
        let candidates: Vec<u32> = (0..atoms.len() as u32)
            .filter(|&i| assignment[i as usize] == 0)
            .collect();
        let lits: Vec<LinAtom> = asserted.iter().map(|&l| as_atom(&atoms, l)).collect();

        // Consult: every propagated literal is entailed, its antecedent
        // alone explains it, and a full rescan finds the same set.
        let mut props: Vec<TheoryPropagation> = Vec::new();
        session
            .propagate(&pool, &asserted, &candidates, &mut props)
            .unwrap();
        for pr in &props {
            prop_assert!(candidates.contains(&pr.atom), "step {step}: {pr:?}");
            let refuted = as_atom(&atoms, (pr.atom, !pr.value));
            let mut with = lits.clone();
            with.push(refuted.clone());
            prop_assert!(!brute_force_sat(p, &vars, &with), "step {step}: {pr:?}");
            prop_assert!(oracle_unsat(&pool, &with), "step {step}: {pr:?}");
            let mut explanation = vec![refuted];
            if let Some(a) = pr.antecedent {
                let pol = asserted.iter().find(|l| l.0 == a).map(|l| l.1);
                prop_assert!(
                    pol.is_some(),
                    "step {step}: antecedent of {pr:?} unasserted"
                );
                explanation.push(as_atom(&atoms, (a, pol.unwrap())));
            }
            prop_assert!(
                oracle_unsat(&pool, &explanation),
                "step {step}: {pr:?} does not follow from its antecedent"
            );
        }
        let mut fresh = TheorySession::new();
        register(&mut fresh);
        let mut rescan: Vec<TheoryPropagation> = Vec::new();
        fresh
            .propagate(&pool, &asserted, &candidates, &mut rescan)
            .unwrap();
        let set = |ps: &[TheoryPropagation]| -> Vec<(u32, bool)> {
            ps.iter().map(|p| (p.atom, p.value)).collect()
        };
        prop_assert_eq!(set(&props), set(&rescan), "step {step}: consult-on-change");

        // Check: verdict, model and core against both oracles.
        let expect_sat = brute_force_sat(p, &vars, &lits);
        prop_assert_eq!(
            !expect_sat,
            oracle_unsat(&pool, &lits),
            "step {step}: oracle"
        );
        match session.check(&pool, &asserted, config).unwrap() {
            TheoryVerdict::Sat(model) => {
                prop_assert!(expect_sat, "step {step}: Sat, brute force says Unsat");
                let assign = |v: VarId| model[&v];
                prop_assert!(
                    lits.iter().all(|a| a.holds(&assign)),
                    "step {step}: {model:?}"
                );
                prop_assert!(vars.iter().all(|v| (p.lo..=p.hi).contains(&model[v])));
            }
            TheoryVerdict::Unsat(core) => {
                prop_assert!(!expect_sat, "step {step}: Unsat, brute force says Sat");
                let sub: Vec<LinAtom> = core
                    .iter()
                    .map(|&i| {
                        let lit = asserted.iter().find(|l| l.0 as usize == i);
                        as_atom(&atoms, *lit.expect("core atom is asserted"))
                    })
                    .collect();
                prop_assert!(
                    !brute_force_sat(p, &vars, &sub),
                    "step {step}: core {core:?}"
                );
                prop_assert!(oracle_unsat(&pool, &sub), "step {step}: core {core:?}");
            }
            TheoryVerdict::Unknown => prop_assert!(false, "step {step}: budget exhausted"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn compiled_session_agrees_with_brute_force_and_oracle(p in problem()) {
        run(&p);
    }
}

#[test]
fn an_atom_and_its_negation_share_one_row() {
    // `x + y ≤ 7` and `x + y ≥ 4` (a sign-flipped form) in either polarity:
    // four bounds, one slack row.
    let mut s = Solver::new();
    let x = s.int_var("x", 0, 10);
    let y = s.int_var("y", 0, 10);
    let (tx, ty) = (s.var(x), s.var(y));
    let sum = s.add(&[tx, ty]);
    let (c7, c4) = (s.int(7), s.int(4));
    let le7 = s.le(sum, c7);
    let ge4 = s.ge(sum, c4);
    let (n_le7, n_ge4) = (s.not(le7), s.not(ge4));
    for conj in [[le7, ge4], [n_le7, ge4], [le7, n_ge4]] {
        assert_eq!(s.check_assuming(&conj).unwrap(), SatResult::Sat);
    }
    assert_eq!(s.check_assuming(&[n_le7, n_ge4]).unwrap(), SatResult::Unsat);
    assert_eq!(s.theory_tableau_size(), (3, 1), "(variables, rows)");
}
