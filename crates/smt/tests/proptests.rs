//! Property-based tests: the SMT solver must agree with brute-force
//! enumeration on randomly generated small QF-LIA problems, and its
//! optimization queries must return true extrema.

use proptest::prelude::*;

use lejit_smt::{SatResult, Solver, TermId, VarId};

/// A randomly generated comparison over up to 3 variables.
#[derive(Clone, Debug)]
struct RandAtom {
    coeffs: Vec<i64>, // one per variable
    constant: i64,
    op: u8, // 0: <=, 1: >=, 2: ==
}

/// A random formula: conjunction of disjunctions of atoms (small CNF-ish).
#[derive(Clone, Debug)]
struct RandFormula {
    num_vars: usize,
    lo: i64,
    hi: i64,
    clauses: Vec<Vec<RandAtom>>,
}

fn rand_atom(num_vars: usize) -> impl Strategy<Value = RandAtom> {
    (
        proptest::collection::vec(-3i64..=3, num_vars),
        -20i64..=20,
        0u8..=2,
    )
        .prop_map(|(coeffs, constant, op)| RandAtom {
            coeffs,
            constant,
            op,
        })
}

fn rand_formula() -> impl Strategy<Value = RandFormula> {
    (2usize..=3, 0i64..=2, 4i64..=8).prop_flat_map(|(num_vars, lo, hi_off)| {
        let hi = lo + hi_off;
        proptest::collection::vec(proptest::collection::vec(rand_atom(num_vars), 1..=2), 1..=4)
            .prop_map(move |clauses| RandFormula {
                num_vars,
                lo,
                hi,
                clauses,
            })
    })
}

fn atom_holds(a: &RandAtom, assign: &[i64]) -> bool {
    let lhs: i64 = a.coeffs.iter().zip(assign).map(|(c, v)| c * v).sum::<i64>() + a.constant;
    match a.op {
        0 => lhs <= 0,
        1 => lhs >= 0,
        _ => lhs == 0,
    }
}

fn formula_holds(f: &RandFormula, assign: &[i64]) -> bool {
    f.clauses
        .iter()
        .all(|cl| cl.iter().any(|a| atom_holds(a, assign)))
}

/// Brute force: enumerate the full box.
fn brute_force(f: &RandFormula) -> Option<Vec<i64>> {
    let range: Vec<i64> = (f.lo..=f.hi).collect();
    let mut assign = vec![f.lo; f.num_vars];
    loop {
        if formula_holds(f, &assign) {
            return Some(assign);
        }
        // Increment like an odometer.
        let mut i = 0;
        loop {
            if i == f.num_vars {
                return None;
            }
            let pos = range.iter().position(|&r| r == assign[i]).unwrap();
            if pos + 1 < range.len() {
                assign[i] = range[pos + 1];
                break;
            }
            assign[i] = f.lo;
            i += 1;
        }
    }
}

fn atom_term(s: &mut Solver, vars: &[VarId], a: &RandAtom) -> TermId {
    let mut addends: Vec<TermId> = Vec::new();
    for (i, &c) in a.coeffs.iter().enumerate() {
        let vt = s.var(vars[i]);
        addends.push(s.mul_const(c, vt));
    }
    let k = s.int(a.constant);
    addends.push(k);
    let lhs = s.add(&addends);
    let zero = s.int(0);
    match a.op {
        0 => s.le(lhs, zero),
        1 => s.ge(lhs, zero),
        _ => s.eq(lhs, zero),
    }
}

fn build(f: &RandFormula, s: &mut Solver) -> (Vec<VarId>, TermId) {
    let vars: Vec<VarId> = (0..f.num_vars)
        .map(|i| s.int_var(&format!("x{i}"), f.lo, f.hi))
        .collect();
    let mut clause_terms: Vec<TermId> = Vec::new();
    for cl in &f.clauses {
        let atom_terms: Vec<TermId> = cl.iter().map(|a| atom_term(s, &vars, a)).collect();
        clause_terms.push(s.or(&atom_terms));
    }
    let root = s.and(&clause_terms);
    (vars, root)
}

/// A formula plus a stack of extra atoms to assert in nested frames.
fn formula_with_extras() -> impl Strategy<Value = (RandFormula, Vec<RandAtom>)> {
    rand_formula().prop_flat_map(|f| {
        let nv = f.num_vars;
        (Just(f), proptest::collection::vec(rand_atom(nv), 1..=3))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn solver_agrees_with_brute_force(f in rand_formula()) {
        let expected = brute_force(&f);
        let mut s = Solver::new();
        let (vars, root) = build(&f, &mut s);
        s.assert(root);
        match s.check().unwrap() {
            SatResult::Sat => {
                prop_assert!(expected.is_some(), "solver said SAT, brute force says UNSAT");
                let m = s.model().unwrap();
                let assign: Vec<i64> = vars.iter().map(|&v| m.int_value(v).unwrap()).collect();
                prop_assert!(formula_holds(&f, &assign), "model does not satisfy formula: {assign:?}");
                // All values within declared bounds.
                for &v in &assign {
                    prop_assert!((f.lo..=f.hi).contains(&v));
                }
            }
            SatResult::Unsat => {
                prop_assert!(expected.is_none(), "solver said UNSAT but {:?} satisfies", expected);
            }
            SatResult::Unknown => prop_assert!(false, "unexpected Unknown on tiny problem"),
        }
    }

    #[test]
    fn minimize_and_maximize_return_true_extrema(f in rand_formula()) {
        // Compute true min/max of x0 by brute force.
        let range: Vec<i64> = (f.lo..=f.hi).collect();
        let mut feasible_x0: Vec<i64> = Vec::new();
        for &x0 in &range {
            // Enumerate the rest.
            let rest = f.num_vars - 1;
            let mut found = false;
            let mut assign = vec![f.lo; rest];
            'outer: loop {
                let mut full = vec![x0];
                full.extend_from_slice(&assign);
                if formula_holds(&f, &full) {
                    found = true;
                    break;
                }
                let mut i = 0;
                loop {
                    if i == rest { break 'outer; }
                    if assign[i] < f.hi {
                        assign[i] += 1;
                        break;
                    }
                    assign[i] = f.lo;
                    i += 1;
                }
            }
            if found {
                feasible_x0.push(x0);
            }
        }
        let mut s = Solver::new();
        let (vars, root) = build(&f, &mut s);
        s.assert(root);
        let min = s.minimize(vars[0]).unwrap();
        let max = s.maximize(vars[0]).unwrap();
        prop_assert_eq!(min, feasible_x0.first().copied());
        prop_assert_eq!(max, feasible_x0.last().copied());
    }

    #[test]
    fn push_pop_restores_satisfiability(f in rand_formula()) {
        let mut s = Solver::new();
        let (vars, root) = build(&f, &mut s);
        s.assert(root);
        let before = s.check().unwrap();
        // Push an arbitrary extra constraint (x0 >= hi), then pop it.
        s.push();
        let vt = s.var(vars[0]);
        let c = s.int(f.hi);
        let extra = s.ge(vt, c);
        s.assert(extra);
        let _ = s.check().unwrap();
        s.pop();
        let after = s.check().unwrap();
        prop_assert_eq!(before, after, "push/pop changed satisfiability");
    }

    /// Panic-freedom (L2): a malformed clause database — clauses or
    /// assumptions referencing variables that were never allocated — must
    /// surface as `Err`, never as a panic or an out-of-bounds index.
    #[test]
    fn malformed_clause_db_errors_instead_of_panicking(
        num_vars in 0usize..4,
        raw_clauses in proptest::collection::vec(
            proptest::collection::vec((0u32..8, proptest::bool::ANY), 0..4),
            0..6,
        ),
    ) {
        use lejit_smt::{Lit, SatSolver};

        let mut sat = SatSolver::new();
        let vars: Vec<_> = (0..num_vars).map(|_| sat.new_var()).collect();
        let mut any_invalid = false;
        for cl in &raw_clauses {
            let lits: Vec<Lit> = cl
                .iter()
                .map(|&(idx, pos)| match vars.get(idx as usize) {
                    Some(&v) => Lit::new(v, pos),
                    None => {
                        any_invalid = true;
                        // Fabricate a literal for a variable that was never
                        // allocated (indices >= num_vars).
                        Lit::new(lejit_smt::SatVar::from_index(idx), pos)
                    }
                })
                .collect();
            sat.add_clause(&lits);
        }
        let outcome = sat.solve(&[]);
        if any_invalid {
            prop_assert!(outcome.is_err(), "invalid clause DB must be an Err");
        } else {
            prop_assert!(outcome.is_ok(), "well-formed clause DB must solve");
        }
    }
}

/// Body of `retraction_matches_fresh_oracle_under_nested_frames`, kept as a
/// plain function so the `proptest!` token-muncher stays within the default
/// macro recursion limit.
fn check_retraction_oracle(f: &RandFormula, extras: &[RandAtom]) {
    let mut s = Solver::new();
    let (vars, root) = build(f, &mut s);
    s.assert(root);
    for a in extras {
        s.push();
        let t = atom_term(&mut s, &vars, a);
        s.assert(t);
        let _ = s.check().unwrap();
    }
    for depth in (0..extras.len()).rev() {
        s.pop();
        // Oracle: the base formula plus the extras still on the stack.
        let mut g = f.clone();
        for a in &extras[..depth] {
            g.clauses.push(vec![a.clone()]);
        }
        let expected = brute_force(&g);
        match s.check().unwrap() {
            SatResult::Sat => {
                prop_assert!(
                    expected.is_some(),
                    "depth {depth}: solver SAT, oracle UNSAT"
                );
                let m = s.model().unwrap();
                let assign: Vec<i64> = vars.iter().map(|&v| m.int_value(v).unwrap()).collect();
                prop_assert!(
                    formula_holds(&g, &assign),
                    "depth {depth}: witness {assign:?} violates the live assertions"
                );
                for &v in &assign {
                    prop_assert!((f.lo..=f.hi).contains(&v));
                }
            }
            SatResult::Unsat => prop_assert!(
                expected.is_none(),
                "depth {depth}: solver UNSAT but oracle found {:?}",
                expected
            ),
            SatResult::Unknown => prop_assert!(false, "unexpected Unknown"),
        }
    }
}

/// Body of `retraction_keeps_clause_db_steady` (see above for why it is a
/// plain function).
fn check_clause_db_steady(f: &RandFormula, extras: &[RandAtom]) {
    let mut s = Solver::new();
    let (vars, root) = build(f, &mut s);
    s.assert(root);
    let _ = s.check().unwrap();
    let mut counts = Vec::new();
    for _ in 0..6 {
        s.push();
        let t = atom_term(&mut s, &vars, &extras[0]);
        s.assert(t);
        let _ = s.check().unwrap();
        s.pop();
        counts.push(s.num_live_clauses());
    }
    // The first rounds may add permanent state (Tseitin definitions of the
    // extra atom, theory lemmas, learnt clauses over permanent clauses);
    // identical later rounds must add nothing.
    prop_assert!(
        counts[2..].windows(2).all(|w| w[0] == w[1]),
        "clause DB not steady across identical frames: {counts:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Retraction soundness: after any LIFO sequence of framed assertions
    /// and pops, the verdict and witness values must match a brute-force
    /// oracle over exactly the assertions still live — popped constraints
    /// must leave no semantic residue behind.
    #[test]
    fn retraction_matches_fresh_oracle_under_nested_frames(fe in formula_with_extras()) {
        check_retraction_oracle(&fe.0, &fe.1);
    }

    /// Retraction completeness: repeating an identical frame (push, assert,
    /// check, pop) must hold the live clause count at a steady state —
    /// the pre-fix behaviour leaked every frame's clauses into the database
    /// forever, growing it by at least one clause per round.
    #[test]
    fn retraction_keeps_clause_db_steady(fe in formula_with_extras()) {
        check_clause_db_steady(&fe.0, &fe.1);
    }
}
