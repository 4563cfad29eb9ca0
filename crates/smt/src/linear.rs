//! Normalization of integer terms into linear expressions and of comparison
//! atoms into canonical linear inequalities.
//!
//! Every theory atom in the solver is a [`LinAtom`], meaning `expr ≤ 0`.
//! Because all variables are integers, the *negation* of an atom is again an
//! atom: `¬(e ≤ 0)  ⇔  e ≥ 1  ⇔  (−e + 1 ≤ 0)`.

#![expect(
    clippy::panic,
    clippy::expect_used,
    reason = "overflow while normalizing a linear atom is a typed SolverError::Overflow; the one panic left is LinExpr::accumulate's non-integer arm, reached only if a Bool-sorted term sits under a comparison, which TermPool::le debug-asserts against (a type-discipline bug, not a runtime input)"
)]

use std::collections::BTreeMap;
use std::fmt;

use crate::error::SolverError;
use crate::term::{Term, TermId, TermPool, VarId};

const COEFFICIENT: SolverError = SolverError::Overflow("linear coefficient");
const CONSTANT: SolverError = SolverError::Overflow("linear constant");

/// A linear expression `Σ cᵢ·xᵢ + constant` with integer coefficients.
///
/// Coefficients are kept in a sorted map so expressions have a canonical
/// form; zero coefficients are never stored. `Ord` is derived (structural,
/// no semantics) so atoms can key deterministic ordered maps.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct LinExpr {
    /// Non-zero coefficients per variable.
    pub coeffs: BTreeMap<VarId, i64>,
    /// The constant offset.
    pub constant: i64,
}

impl LinExpr {
    /// The zero expression.
    pub fn zero() -> LinExpr {
        LinExpr::default()
    }

    /// A constant expression.
    pub fn constant(c: i64) -> LinExpr {
        LinExpr {
            coeffs: BTreeMap::new(),
            constant: c,
        }
    }

    /// The expression `1·v`.
    pub fn var(v: VarId) -> LinExpr {
        let mut coeffs = BTreeMap::new();
        coeffs.insert(v, 1);
        LinExpr {
            coeffs,
            constant: 0,
        }
    }

    /// Whether the expression mentions no variables.
    pub fn is_constant(&self) -> bool {
        self.coeffs.is_empty()
    }

    /// Adds `c · v` into the expression. [`SolverError::Overflow`] (the
    /// expression then half-updated) if the coefficient leaves `i64`; so for
    /// every method below.
    pub fn add_term(&mut self, v: VarId, c: i64) -> Result<(), SolverError> {
        if c == 0 {
            return Ok(());
        }
        let entry = self.coeffs.entry(v).or_insert(0);
        *entry = entry.checked_add(c).ok_or(COEFFICIENT)?;
        if *entry == 0 {
            self.coeffs.remove(&v);
        }
        Ok(())
    }

    /// Adds another expression scaled by `k` into this one.
    pub fn add_scaled(&mut self, other: &LinExpr, k: i64) -> Result<(), SolverError> {
        if k == 0 {
            return Ok(());
        }
        for (&v, &c) in &other.coeffs {
            self.add_term(v, c.checked_mul(k).ok_or(COEFFICIENT)?)?;
        }
        self.add_constant(other.constant.checked_mul(k).ok_or(CONSTANT)?)
    }

    fn add_constant(&mut self, c: i64) -> Result<(), SolverError> {
        self.constant = self.constant.checked_add(c).ok_or(CONSTANT)?;
        Ok(())
    }

    /// The negated expression.
    pub fn negated(&self) -> Result<LinExpr, SolverError> {
        let mut out = LinExpr::zero();
        out.add_scaled(self, -1)?;
        Ok(out)
    }

    /// Evaluates under a full assignment (variables absent from `assign`
    /// evaluate as 0).
    pub fn eval(&self, assign: &dyn Fn(VarId) -> i64) -> i64 {
        let mut acc = self.constant as i128;
        for (&v, &c) in &self.coeffs {
            acc += c as i128 * assign(v) as i128;
        }
        i64::try_from(acc).expect("evaluation overflow")
    }

    /// Lowers an integer term to a linear expression.
    ///
    /// # Panics
    /// Panics if the term is not integer-sorted (cannot happen for terms
    /// produced by [`TermPool`] builders used on integer arguments).
    pub fn from_term(pool: &TermPool, t: TermId) -> Result<LinExpr, SolverError> {
        let mut out = LinExpr::zero();
        Self::accumulate(pool, t, 1, &mut out)?;
        Ok(out)
    }

    fn accumulate(
        pool: &TermPool,
        t: TermId,
        k: i64,
        out: &mut LinExpr,
    ) -> Result<(), SolverError> {
        match pool.get(t) {
            Term::IntConst(n) => out.add_constant(n.checked_mul(k).ok_or(CONSTANT)?),
            Term::Var(v) => out.add_term(*v, k),
            Term::Add(kids) => kids
                .iter()
                .try_for_each(|&kid| Self::accumulate(pool, kid, k, out)),
            Term::MulConst(c, inner) => {
                let kc = k.checked_mul(*c).ok_or(COEFFICIENT)?;
                Self::accumulate(pool, *inner, kc, out)
            }
            other => panic!("non-integer term in linear context: {other:?}"),
        }
    }

    /// Renders the expression for diagnostics, naming variables via the pool.
    pub fn display(&self, pool: &TermPool) -> String {
        let mut parts: Vec<String> = Vec::new();
        for (&v, &c) in &self.coeffs {
            let name = &pool.var_info(v).name;
            parts.push(if c == 1 {
                name.clone()
            } else {
                format!("{c}*{name}")
            });
        }
        if self.constant != 0 || parts.is_empty() {
            parts.push(self.constant.to_string());
        }
        parts.join(" + ")
    }
}

impl fmt::Debug for LinExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (v, c) in &self.coeffs {
            if !first {
                write!(f, " + ")?;
            }
            write!(f, "{c}*{v:?}")?;
            first = false;
        }
        if self.constant != 0 || first {
            if !first {
                write!(f, " + ")?;
            }
            write!(f, "{}", self.constant)?;
        }
        Ok(())
    }
}

/// A canonical theory atom: `expr ≤ 0`.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct LinAtom {
    /// The left-hand side of `expr ≤ 0`.
    pub expr: LinExpr,
}

impl LinAtom {
    /// Builds the atom for the term-level comparison `lhs ≤ rhs`;
    /// [`SolverError::Overflow`] when `lhs − rhs` has a coefficient or
    /// constant outside `i64` (`x ≤ i64::MIN` is `x + 2⁶³ ≤ 0`).
    pub fn from_le(pool: &TermPool, lhs: TermId, rhs: TermId) -> Result<LinAtom, SolverError> {
        let mut expr = LinExpr::from_term(pool, lhs)?;
        let r = LinExpr::from_term(pool, rhs)?;
        expr.add_scaled(&r, -1)?;
        Ok(LinAtom { expr })
    }

    /// The integer negation of this atom: `¬(e ≤ 0) ⇔ (−e + 1 ≤ 0)`.
    pub fn negated(&self) -> Result<LinAtom, SolverError> {
        let mut expr = self.expr.negated()?;
        expr.add_constant(1)?;
        Ok(LinAtom { expr })
    }

    /// Evaluates the atom under a concrete assignment.
    pub fn holds(&self, assign: &dyn Fn(VarId) -> i64) -> bool {
        self.expr.eval(assign) <= 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_term_linearizes() {
        let mut p = TermPool::new();
        let vx = p.int_var("x", 0, 100);
        let vy = p.int_var("y", 0, 100);
        let (x, y) = (p.var(vx), p.var(vy));
        // 2x + 3y - 4 + x  =>  3x + 3y - 4
        let two_x = p.mul_const(2, x);
        let three_y = p.mul_const(3, y);
        let c = p.int(-4);
        let t = p.add(&[two_x, three_y, c, x]);
        let e = LinExpr::from_term(&p, t).unwrap();
        assert_eq!(e.coeffs.get(&vx), Some(&3));
        assert_eq!(e.coeffs.get(&vy), Some(&3));
        assert_eq!(e.constant, -4);
    }

    #[test]
    fn cancellation_removes_zero_coeffs() {
        let mut p = TermPool::new();
        let vx = p.int_var("x", 0, 100);
        let x = p.var(vx);
        let nx = p.mul_const(-1, x);
        let t = p.add(&[x, nx]);
        let e = LinExpr::from_term(&p, t).unwrap();
        assert!(e.is_constant());
        assert_eq!(e.constant, 0);
    }

    #[test]
    fn atom_negation_roundtrip() {
        let mut p = TermPool::new();
        let vx = p.int_var("x", 0, 100);
        let x = p.var(vx);
        let c = p.int(5);
        // x <= 5  =>  x - 5 <= 0 ; negation =>  -x + 6 <= 0  (x >= 6)
        let a = LinAtom::from_le(&p, x, c).unwrap();
        assert_eq!(a.expr.coeffs.get(&vx), Some(&1));
        assert_eq!(a.expr.constant, -5);
        let n = a.negated().unwrap();
        assert_eq!(n.expr.coeffs.get(&vx), Some(&-1));
        assert_eq!(n.expr.constant, 6);
        // Double negation is identity.
        assert_eq!(n.negated().unwrap(), a);
    }

    #[test]
    fn normalization_overflow_is_an_error() {
        let mut p = TermPool::new();
        let vx = p.int_var("x", i64::MIN, 0);
        let x = p.var(vx);
        let min = p.int(i64::MIN);
        // x ≤ MIN is x + 2⁶³ ≤ 0; MIN ≤ x is MIN − x ≤ 0, representable.
        assert!(matches!(
            LinAtom::from_le(&p, x, min),
            Err(SolverError::Overflow(_))
        ));
        let ge = LinAtom::from_le(&p, min, x).unwrap();
        assert_eq!(ge.expr.constant, i64::MIN);
        // Its negation, x − MIN + 1 ≤ 0, is not.
        assert!(matches!(ge.negated(), Err(SolverError::Overflow(_))));
    }

    #[test]
    fn atom_evaluation() {
        let mut p = TermPool::new();
        let vx = p.int_var("x", 0, 100);
        let x = p.var(vx);
        let c = p.int(5);
        let a = LinAtom::from_le(&p, x, c).unwrap();
        assert!(a.holds(&|_| 5));
        assert!(a.holds(&|_| 0));
        assert!(!a.holds(&|_| 6));
        let n = a.negated().unwrap();
        assert!(!n.holds(&|_| 5));
        assert!(n.holds(&|_| 6));
    }

    #[test]
    fn eval_mixed() {
        let mut p = TermPool::new();
        let vx = p.int_var("x", 0, 100);
        let vy = p.int_var("y", 0, 100);
        let (x, y) = (p.var(vx), p.var(vy));
        let tx = p.mul_const(2, x);
        let ty = p.mul_const(-3, y);
        let c = p.int(7);
        let t = p.add(&[tx, ty, c]);
        let e = LinExpr::from_term(&p, t).unwrap();
        let val = e.eval(&|v| if v == vx { 10 } else { 3 });
        assert_eq!(val, 2 * 10 - 3 * 3 + 7);
    }

    #[test]
    fn display_names_variables() {
        let mut p = TermPool::new();
        let vx = p.int_var("ingress", 0, 100);
        let x = p.var(vx);
        let c = p.int(60);
        let a = LinAtom::from_le(&p, x, c).unwrap();
        assert_eq!(a.expr.display(&p), "ingress + -60");
    }
}
