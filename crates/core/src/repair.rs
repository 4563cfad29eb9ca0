//! Post-hoc SMT repair (the yellow path of Fig. 1a).
//!
//! The NetDiffusion-style alternative to JIT enforcement: let the model
//! generate freely, then hand the (possibly invalid) output to the solver
//! to make it compliant. Two variants, matching the paper's discussion:
//!
//! * [`repair_arbitrary`] — "the solver would select an arbitrary solution
//!   among all compliant ones, not the most likely solution based on
//!   historical data": any model of the rules.
//! * [`repair_nearest`] — the mitigation the paper describes: minimize a
//!   distance metric `f_Δ` (here L1) to the model's original output, via
//!   binary search on the total-deviation bound. Still distorts statistics
//!   whenever "semantic meaning does not align with numerical distance".

#![expect(
    clippy::indexing_slicing,
    clippy::expect_used,
    reason = "repair_nearest asserts one original value per variable up front (# Panics), and a model after a Sat answer holds a value for every declared variable"
)]

use std::fmt;

use lejit_smt::{SatResult, SolverError};

use crate::session::JitSession;

/// Why a repair failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RepairError {
    /// The rules admit no compliant output at all.
    Unsatisfiable,
    /// The solver could not decide within its budget.
    Undecided,
    /// The solver itself failed (overflow or broken invariant).
    Solver(SolverError),
}

impl fmt::Display for RepairError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RepairError::Unsatisfiable => write!(f, "rules admit no compliant output"),
            RepairError::Undecided => write!(f, "solver budget exhausted during repair"),
            RepairError::Solver(e) => write!(f, "solver failed during repair: {e}"),
        }
    }
}

impl std::error::Error for RepairError {}

/// Returns *some* rule-compliant assignment of the session's variables,
/// with no regard for the model's output.
pub fn repair_arbitrary(session: &mut JitSession) -> Result<Vec<i64>, RepairError> {
    match session.solver_mut().check() {
        Ok(SatResult::Sat) => Ok((0..session.num_vars())
            .map(|k| session.model_value(k).expect("model value after sat"))
            .collect()),
        Ok(SatResult::Unsat) => Err(RepairError::Unsatisfiable),
        Ok(SatResult::Unknown) => Err(RepairError::Undecided),
        Err(e) => Err(RepairError::Solver(e)),
    }
}

/// Returns the rule-compliant assignment minimizing the L1 distance to
/// `original` (the model's raw output), via binary search on the total
/// deviation `Σ |vᵢ − oᵢ|`.
///
/// # Panics
/// Panics if `original.len()` differs from the session's variable count.
#[allow(clippy::needless_range_loop)] // k indexes vars, originals and names
pub fn repair_nearest(session: &mut JitSession, original: &[i64]) -> Result<Vec<i64>, RepairError> {
    assert_eq!(
        original.len(),
        session.num_vars(),
        "one original value per variable"
    );
    let n = session.num_vars();

    // Assert deviation variables d_k >= |v_k - o_k| permanently; they do
    // not constrain v on their own.
    let mut dev_terms = Vec::with_capacity(n);
    let mut max_total: i64 = 0;
    for k in 0..n {
        let v = session.var(k);
        let solver = session.solver_mut();
        let info = solver.pool().var_info(v).clone();
        let range = info.hi - info.lo;
        max_total = max_total.saturating_add(range);
        let d = solver.int_var(&format!("__repair_d{k}"), 0, range.max(0));
        let dt = solver.var(d);
        let vt = solver.var(v);
        let o = solver.int(original[k].clamp(info.lo, info.hi));
        // d >= v - o  and  d >= o - v.
        let diff1 = solver.sub(vt, o);
        let ge1 = solver.ge(dt, diff1);
        solver.assert(ge1);
        let diff2 = solver.sub(o, vt);
        let ge2 = solver.ge(dt, diff2);
        solver.assert(ge2);
        dev_terms.push(dt);
    }
    let total_dev = session.solver_mut().add(&dev_terms);

    // Feasibility first.
    match session.solver_mut().check() {
        Ok(SatResult::Sat) => {}
        Ok(SatResult::Unsat) => return Err(RepairError::Unsatisfiable),
        Ok(SatResult::Unknown) => return Err(RepairError::Undecided),
        Err(e) => return Err(RepairError::Solver(e)),
    }

    // Binary search for the minimal feasible total deviation.
    let (mut lo, mut hi) = (0i64, max_total);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        let solver = session.solver_mut();
        solver.push();
        let c = solver.int(mid);
        let le = solver.le(total_dev, c);
        solver.assert(le);
        let r = solver.check();
        solver.pop();
        match r {
            Ok(SatResult::Sat) => hi = mid,
            Ok(SatResult::Unsat) => lo = mid + 1,
            Ok(SatResult::Unknown) => return Err(RepairError::Undecided),
            Err(e) => return Err(RepairError::Solver(e)),
        }
    }

    // Commit the optimum and extract the witness.
    let solver = session.solver_mut();
    solver.push();
    let c = solver.int(lo);
    let le = solver.le(total_dev, c);
    solver.assert(le);
    let result = match solver.check() {
        Ok(SatResult::Sat) => Ok((0..n)
            .map(|k| session.model_value(k).expect("model value after sat"))
            .collect()),
        Ok(SatResult::Unsat) => Err(RepairError::Unsatisfiable),
        Ok(SatResult::Unknown) => Err(RepairError::Undecided),
        Err(e) => Err(RepairError::Solver(e)),
    };
    session.solver_mut().pop();
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::DecodeSchema;
    use lejit_rules::{ground_rule, parse_rules, GroundCtx};
    use lejit_telemetry::CoarseField;

    fn session(total: i64, ecn: i64) -> JitSession {
        let schema = DecodeSchema::fine_series(5, 60);
        let mut session = JitSession::new(&schema);
        let rules = parse_rules(
            "rule r1: forall t: fine[t] >= 0 and fine[t] <= 60;
             rule r2: sum(fine) == total_ingress;
             rule r3: ecn_bytes > 0 => max(fine) >= 30;",
        )
        .unwrap();
        let solver = session.solver_mut();
        let mut coarse_vals = [0i64; 6];
        coarse_vals[CoarseField::TotalIngress.index()] = total;
        coarse_vals[CoarseField::EcnBytes.index()] = ecn;
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
        session
    }

    #[test]
    fn arbitrary_repair_is_compliant() {
        let mut s = session(100, 8);
        let vals = repair_arbitrary(&mut s).unwrap();
        assert_eq!(vals.iter().sum::<i64>(), 100);
        assert!(vals.iter().all(|&v| (0..=60).contains(&v)));
        assert!(*vals.iter().max().unwrap() >= 30);
    }

    #[test]
    fn nearest_repair_of_the_paper_example() {
        // Fig. 1a: the LLM produced [20, 15, 25, 70, 8] (sum 138, one value
        // over BW). The nearest compliant output must keep the sum at 100
        // and stay close in L1.
        let mut s = session(100, 8);
        let original = [20, 15, 25, 70, 8];
        let repaired = repair_nearest(&mut s, &original).unwrap();
        assert_eq!(repaired.iter().sum::<i64>(), 100);
        assert!(repaired.iter().all(|&v| (0..=60).contains(&v)));
        assert!(*repaired.iter().max().unwrap() >= 30);
        // The originals clamp to [20,15,25,60,8] (sum 128); reaching 100
        // costs at least 28 more L1 on top of the 10 lost to clamping.
        let l1: i64 = repaired
            .iter()
            .zip(&original)
            .map(|(a, b)| (a - b).abs())
            .sum();
        assert!(l1 <= 38, "repair moved too far: {repaired:?} (L1 {l1})");
    }

    #[test]
    fn nearest_repair_of_valid_output_is_identity() {
        let mut s = session(100, 8);
        let original = [20, 15, 25, 30, 10];
        let repaired = repair_nearest(&mut s, &original).unwrap();
        assert_eq!(repaired, original, "already-valid outputs must not move");
    }

    #[test]
    fn repair_unsat_reported() {
        let mut s = session(400, 0); // 5 × 60 = 300 < 400
        assert_eq!(repair_arbitrary(&mut s), Err(RepairError::Unsatisfiable));
        let mut s = session(400, 0);
        assert_eq!(
            repair_nearest(&mut s, &[0; 5]),
            Err(RepairError::Unsatisfiable)
        );
    }

    #[test]
    fn nearest_beats_arbitrary_in_distance() {
        let original = [20, 15, 25, 70, 8];
        let mut s1 = session(100, 8);
        let arb = repair_arbitrary(&mut s1).unwrap();
        let mut s2 = session(100, 8);
        let near = repair_nearest(&mut s2, &original).unwrap();
        let l1 =
            |vals: &[i64]| -> i64 { vals.iter().zip(&original).map(|(a, b)| (a - b).abs()).sum() };
        assert!(
            l1(&near) <= l1(&arb),
            "nearest ({:?}, {}) worse than arbitrary ({:?}, {})",
            near,
            l1(&near),
            arb,
            l1(&arb)
        );
    }
}
