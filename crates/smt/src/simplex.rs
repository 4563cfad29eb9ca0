//! Exact-rational general simplex with variable bounds.
//!
//! This is the theory workhorse behind the LIA solver, following the design
//! of Dutertre & de Moura, *A Fast Linear-Arithmetic Solver for DPLL(T)*
//! (CAV'06):
//!
//! * every asserted atom `Σ cᵢ·xᵢ ≤ b` becomes an **upper bound on a slack
//!   variable** `s = Σ cᵢ·xᵢ`,
//! * the tableau expresses *basic* variables as linear combinations of
//!   *nonbasic* ones, and the current assignment `β` always satisfies the
//!   tableau equations and all bounds of nonbasic variables,
//! * `check()` repairs bound violations of basic variables by pivoting
//!   (Bland's rule, guaranteeing termination),
//! * on infeasibility it returns a **bound certificate**: the set of
//!   [`BoundTag`]s whose bounds are jointly unsatisfiable — this becomes the
//!   conflict clause learned by the SAT core,
//! * bound assertions are recorded on a trail so branch-and-bound can
//!   snapshot and undo them cheaply (relaxing bounds never invalidates `β`).

#![expect(
    clippy::indexing_slicing,
    reason = "simplex tableau: row/column indices come from the tableau's own basis maps, which are updated atomically with the matrix in pivot_and_update"
)]

use std::collections::BTreeMap;

use crate::error::SolverError;
use crate::rational::Rational;

/// Opaque label attached to a bound so infeasibility certificates can be
/// mapped back to asserted atoms. Tags are chosen by the caller; the simplex
/// only collects them.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct BoundTag(pub u32);

/// A simplex variable index (original or slack).
pub type SVar = usize;

#[derive(Clone, Copy, Debug)]
struct Bound {
    value: Rational,
    tag: BoundTag,
}

#[derive(Clone, Debug)]
enum TrailEntry {
    Lower(SVar, Option<Bound>),
    Upper(SVar, Option<Bound>),
}

/// The result of a feasibility check.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Feasibility {
    /// The current bounds are satisfiable; `β` is a witness.
    Feasible,
    /// The bounds identified by the returned tags are jointly unsatisfiable.
    Infeasible(Vec<BoundTag>),
}

/// Exact-rational simplex over bounded variables.
pub struct Simplex {
    /// `rows[r]` expresses basic variable `row_basic[r]` as a combination of
    /// nonbasic variables.
    rows: Vec<BTreeMap<SVar, Rational>>,
    row_basic: Vec<SVar>,
    /// `basic_row[v] = Some(r)` iff `v` is basic in row `r`.
    basic_row: Vec<Option<usize>>,
    lower: Vec<Option<Bound>>,
    upper: Vec<Option<Bound>>,
    value: Vec<Rational>,
    trail: Vec<TrailEntry>,
    /// Statistics: number of pivots performed.
    pub pivots: u64,
}

impl Default for Simplex {
    fn default() -> Self {
        Self::new()
    }
}

impl Simplex {
    /// Creates an empty tableau.
    pub fn new() -> Simplex {
        Simplex {
            rows: Vec::new(),
            row_basic: Vec::new(),
            basic_row: Vec::new(),
            lower: Vec::new(),
            upper: Vec::new(),
            value: Vec::new(),
            trail: Vec::new(),
            pivots: 0,
        }
    }

    /// Number of variables (original + slack).
    pub fn num_vars(&self) -> usize {
        self.value.len()
    }

    /// Number of slack rows in the tableau.
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// Adds a fresh unbounded nonbasic variable with `β = 0`.
    pub fn add_var(&mut self) -> SVar {
        let v = self.value.len();
        self.basic_row.push(None);
        self.lower.push(None);
        self.upper.push(None);
        self.value.push(Rational::ZERO);
        v
    }

    /// Adds a slack variable `s = Σ coeff·var` and returns `s`. The slack
    /// starts *basic* with `β[s]` consistent with the tableau.
    ///
    /// `Err` if `expr` is empty or mentions an unknown variable — reported
    /// instead of panicking because rows are now interned lazily on the
    /// decode path (see `TheorySession` in the theory module).
    pub fn add_row(&mut self, expr: &[(SVar, Rational)]) -> Result<SVar, SolverError> {
        if expr.is_empty() {
            return Err(SolverError::Internal("empty slack row"));
        }
        if expr.iter().any(|&(v, _)| v >= self.value.len()) {
            return Err(SolverError::Internal("row references unknown variable"));
        }
        let s = self.add_var();
        // Substitute any basic variables by their row definitions so the row
        // is expressed over nonbasic variables only.
        let mut combo: BTreeMap<SVar, Rational> = BTreeMap::new();
        for &(v, c) in expr {
            if c.is_zero() {
                continue;
            }
            match self.basic_row[v] {
                Some(r) => {
                    let def = self.rows[r].clone();
                    for (&u, &d) in &def {
                        add_coeff(&mut combo, u, c * d);
                    }
                }
                None => add_coeff(&mut combo, v, c),
            }
        }
        let beta: Rational = combo
            .iter()
            .fold(Rational::ZERO, |acc, (&u, &c)| acc + c * self.value[u]);
        self.value[s] = beta;
        let r = self.rows.len();
        self.rows.push(combo);
        self.row_basic.push(s);
        self.basic_row[s] = Some(r);
        Ok(s)
    }

    /// Current value of a variable.
    pub fn value_of(&self, v: SVar) -> Rational {
        self.value[v]
    }

    /// The asserted lower bound of `v` (value and asserting tag), if any.
    ///
    /// Used by theory propagation to test bound subsumption without
    /// touching the tableau; the tag identifies the asserting atom for
    /// explanation generation. Returns `None` for unbounded or unallocated
    /// variables.
    pub fn lower_bound(&self, v: SVar) -> Option<(Rational, BoundTag)> {
        self.lower
            .get(v)
            .copied()
            .flatten()
            .map(|b| (b.value, b.tag))
    }

    /// The asserted upper bound of `v` (value and asserting tag), if any.
    ///
    /// Counterpart of [`Self::lower_bound`].
    pub fn upper_bound(&self, v: SVar) -> Option<(Rational, BoundTag)> {
        self.upper
            .get(v)
            .copied()
            .flatten()
            .map(|b| (b.value, b.tag))
    }

    /// A snapshot token for [`Self::undo_to`].
    pub fn snapshot(&self) -> usize {
        self.trail.len()
    }

    /// Undoes all bound assertions made after `snap`. The assignment `β`
    /// remains valid because relaxing bounds cannot violate them.
    pub fn undo_to(&mut self, snap: usize) {
        while self.trail.len() > snap {
            match self.trail.pop() {
                Some(TrailEntry::Lower(v, old)) => self.lower[v] = old,
                Some(TrailEntry::Upper(v, old)) => self.upper[v] = old,
                None => return,
            }
        }
    }

    /// Asserts `v ≥ b`. Returns an immediate certificate if this contradicts
    /// the current upper bound of `v`.
    pub fn assert_lower(
        &mut self,
        v: SVar,
        b: Rational,
        tag: BoundTag,
    ) -> Result<(), Vec<BoundTag>> {
        if let Some(lo) = self.lower[v] {
            if b <= lo.value {
                return Ok(()); // no tightening
            }
        }
        if let Some(up) = self.upper[v] {
            if b > up.value {
                return Err(vec![tag, up.tag]);
            }
        }
        self.trail.push(TrailEntry::Lower(v, self.lower[v]));
        self.lower[v] = Some(Bound { value: b, tag });
        if self.basic_row[v].is_none() && self.value[v] < b {
            self.update_nonbasic(v, b);
        }
        Ok(())
    }

    /// Asserts `v ≤ b`. Returns an immediate certificate if this contradicts
    /// the current lower bound of `v`.
    pub fn assert_upper(
        &mut self,
        v: SVar,
        b: Rational,
        tag: BoundTag,
    ) -> Result<(), Vec<BoundTag>> {
        if let Some(up) = self.upper[v] {
            if b >= up.value {
                return Ok(());
            }
        }
        if let Some(lo) = self.lower[v] {
            if b < lo.value {
                return Err(vec![tag, lo.tag]);
            }
        }
        self.trail.push(TrailEntry::Upper(v, self.upper[v]));
        self.upper[v] = Some(Bound { value: b, tag });
        if self.basic_row[v].is_none() && self.value[v] > b {
            self.update_nonbasic(v, b);
        }
        Ok(())
    }

    /// Sets a nonbasic variable to `b` and updates dependent basic values.
    fn update_nonbasic(&mut self, v: SVar, b: Rational) {
        let delta = b - self.value[v];
        if delta.is_zero() {
            return;
        }
        for r in 0..self.rows.len() {
            if let Some(&c) = self.rows[r].get(&v) {
                let xb = self.row_basic[r];
                self.value[xb] += c * delta;
            }
        }
        self.value[v] = b;
    }

    /// Restores feasibility by pivoting, or reports an infeasible bound set.
    ///
    /// `Err` signals a broken tableau invariant (a pivot column vanished
    /// from its row), which cannot happen for tableaus built through
    /// [`Self::add_row`]; it is reported instead of panicking because this
    /// sits on the decode path.
    pub fn check(&mut self) -> Result<Feasibility, SolverError> {
        loop {
            // Bland's rule: smallest violating basic variable.
            let mut candidate: Option<(usize, SVar, bool, Rational, BoundTag)> = None;
            for r in 0..self.rows.len() {
                let xb = self.row_basic[r];
                let found = if let Some(b) = self.violated_lower(xb) {
                    Some((r, xb, true, b.value, b.tag))
                } else {
                    self.violated_upper(xb)
                        .map(|b| (r, xb, false, b.value, b.tag))
                };
                if let Some(c) = found {
                    if candidate.is_none_or(|(_, v, ..)| c.1 < v) {
                        candidate = Some(c);
                    }
                }
            }
            let Some((r, _xb, need_increase, target, btag)) = candidate else {
                return Ok(Feasibility::Feasible);
            };

            // Find the smallest nonbasic variable that can move β[xb]
            // toward `target`. (Row iteration is ascending by var index.)
            let row: Vec<(SVar, Rational)> = self.rows[r].iter().map(|(&u, &c)| (u, c)).collect();
            let mut pivot: Option<SVar> = None;
            for &(xn, c) in &row {
                let can_move = if need_increase {
                    (c.is_positive() && self.can_increase(xn))
                        || (c.is_negative() && self.can_decrease(xn))
                } else {
                    (c.is_positive() && self.can_decrease(xn))
                        || (c.is_negative() && self.can_increase(xn))
                };
                if can_move {
                    pivot = Some(xn);
                    break;
                }
            }

            match pivot {
                Some(xn) => self.pivot_and_update(r, xn, target)?,
                None => {
                    // Certificate: the violated bound of xb plus, for every
                    // nonbasic in the row, the bound that blocks movement.
                    let mut core = vec![btag];
                    for &(xn, c) in &row {
                        let blocking = if need_increase == c.is_positive() {
                            self.upper[xn]
                        } else {
                            self.lower[xn]
                        };
                        if let Some(b) = blocking {
                            core.push(b.tag);
                        }
                    }
                    core.sort_unstable();
                    core.dedup();
                    return Ok(Feasibility::Infeasible(core));
                }
            }
        }
    }

    fn violated_lower(&self, v: SVar) -> Option<Bound> {
        self.lower[v].filter(|b| self.value[v] < b.value)
    }

    fn violated_upper(&self, v: SVar) -> Option<Bound> {
        self.upper[v].filter(|b| self.value[v] > b.value)
    }

    fn can_increase(&self, v: SVar) -> bool {
        match self.upper[v] {
            Some(b) => self.value[v] < b.value,
            None => true,
        }
    }

    fn can_decrease(&self, v: SVar) -> bool {
        match self.lower[v] {
            Some(b) => self.value[v] > b.value,
            None => true,
        }
    }

    /// Pivots the basic variable of row `r` with nonbasic `xn`, then sets the
    /// old basic variable's value to `target`.
    fn pivot_and_update(
        &mut self,
        r: usize,
        xn: SVar,
        target: Rational,
    ) -> Result<(), SolverError> {
        self.pivots += 1;
        let xb = self.row_basic[r];
        let a = match self.rows[r].get(&xn) {
            Some(&a) => a,
            None => return Err(SolverError::Internal("pivot coefficient missing from row")),
        };
        debug_assert!(!a.is_zero());

        // θ = (target − β[xb]) / a ; new β[xn] = β[xn] + θ.
        let theta = (target - self.value[xb]) / a;
        self.value[xb] = target;
        self.value[xn] += theta;

        // Rewrite row r to define xn:  xn = (xb − Σ_{u≠xn} c_u·u) / a.
        let old_row = std::mem::take(&mut self.rows[r]);
        let mut new_row: BTreeMap<SVar, Rational> = BTreeMap::new();
        let inv_a = a.recip();
        new_row.insert(xb, inv_a);
        for (&u, &c) in &old_row {
            if u != xn {
                add_coeff(&mut new_row, u, -c * inv_a);
            }
        }
        self.rows[r] = new_row.clone();
        self.row_basic[r] = xn;
        self.basic_row[xb] = None;
        self.basic_row[xn] = Some(r);

        // Substitute xn in all other rows, then refresh β of their basics.
        for r2 in 0..self.rows.len() {
            if r2 == r {
                continue;
            }
            if let Some(c) = self.rows[r2].remove(&xn) {
                let addend: Vec<(SVar, Rational)> =
                    new_row.iter().map(|(&u, &d)| (u, c * d)).collect();
                for (u, cd) in addend {
                    add_coeff(&mut self.rows[r2], u, cd);
                }
            }
            let xb2 = self.row_basic[r2];
            let val: Rational = self.rows[r2]
                .iter()
                .fold(Rational::ZERO, |acc, (&u, &c)| acc + c * self.value[u]);
            self.value[xb2] = val;
        }
        Ok(())
    }

    /// Debug invariant: every row equation holds under `β` and every
    /// *nonbasic* variable respects its bounds.
    #[cfg(test)]
    fn check_invariants(&self) {
        for r in 0..self.rows.len() {
            let xb = self.row_basic[r];
            let rhs: Rational = self.rows[r]
                .iter()
                .fold(Rational::ZERO, |acc, (&u, &c)| acc + c * self.value[u]);
            assert_eq!(self.value[xb], rhs, "row {r} equation violated");
        }
        for v in 0..self.num_vars() {
            if self.basic_row[v].is_none() {
                if let Some(b) = self.lower[v] {
                    assert!(self.value[v] >= b.value, "nonbasic {v} below lower bound");
                }
                if let Some(b) = self.upper[v] {
                    assert!(self.value[v] <= b.value, "nonbasic {v} above upper bound");
                }
            }
        }
    }
}

fn add_coeff(map: &mut BTreeMap<SVar, Rational>, v: SVar, c: Rational) {
    if c.is_zero() {
        return;
    }
    let entry = map.entry(v).or_insert(Rational::ZERO);
    *entry += c;
    if entry.is_zero() {
        map.remove(&v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(n: i64) -> Rational {
        Rational::from_int(n)
    }

    #[test]
    fn simple_feasible_system() {
        // x + y <= 10, x >= 3, y >= 4  — feasible.
        let mut s = Simplex::new();
        let x = s.add_var();
        let y = s.add_var();
        let sum = s.add_row(&[(x, r(1)), (y, r(1))]).unwrap();
        s.assert_upper(sum, r(10), BoundTag(0)).unwrap();
        s.assert_lower(x, r(3), BoundTag(1)).unwrap();
        s.assert_lower(y, r(4), BoundTag(2)).unwrap();
        assert_eq!(s.check().unwrap(), Feasibility::Feasible);
        s.check_invariants();
        assert!(s.value_of(x) >= r(3));
        assert!(s.value_of(y) >= r(4));
        assert!(s.value_of(x) + s.value_of(y) <= r(10));
    }

    #[test]
    fn simple_infeasible_system() {
        // x + y <= 10, x >= 6, y >= 6 — infeasible; certificate must contain
        // all three bounds.
        let mut s = Simplex::new();
        let x = s.add_var();
        let y = s.add_var();
        let sum = s.add_row(&[(x, r(1)), (y, r(1))]).unwrap();
        s.assert_upper(sum, r(10), BoundTag(0)).unwrap();
        s.assert_lower(x, r(6), BoundTag(1)).unwrap();
        s.assert_lower(y, r(6), BoundTag(2)).unwrap();
        match s.check().unwrap() {
            Feasibility::Infeasible(core) => {
                assert_eq!(core, vec![BoundTag(0), BoundTag(1), BoundTag(2)]);
            }
            other => panic!("expected infeasible, got {other:?}"),
        }
    }

    #[test]
    fn immediate_bound_clash() {
        let mut s = Simplex::new();
        let x = s.add_var();
        s.assert_upper(x, r(5), BoundTag(7)).unwrap();
        let err = s.assert_lower(x, r(6), BoundTag(9)).unwrap_err();
        assert!(err.contains(&BoundTag(7)) && err.contains(&BoundTag(9)));
    }

    #[test]
    fn equality_via_two_bounds() {
        // x + 2y = 8 (as <= and >=), y = 3 => x = 2.
        let mut s = Simplex::new();
        let x = s.add_var();
        let y = s.add_var();
        let e = s.add_row(&[(x, r(1)), (y, r(2))]).unwrap();
        s.assert_upper(e, r(8), BoundTag(0)).unwrap();
        s.assert_lower(e, r(8), BoundTag(1)).unwrap();
        s.assert_upper(y, r(3), BoundTag(2)).unwrap();
        s.assert_lower(y, r(3), BoundTag(3)).unwrap();
        assert_eq!(s.check().unwrap(), Feasibility::Feasible);
        s.check_invariants();
        assert_eq!(s.value_of(x), r(2));
        assert_eq!(s.value_of(y), r(3));
    }

    #[test]
    fn snapshot_undo_restores_bounds() {
        let mut s = Simplex::new();
        let x = s.add_var();
        s.assert_lower(x, r(0), BoundTag(0)).unwrap();
        s.assert_upper(x, r(10), BoundTag(1)).unwrap();
        let snap = s.snapshot();
        s.assert_lower(x, r(8), BoundTag(2)).unwrap();
        s.assert_upper(x, r(9), BoundTag(3)).unwrap();
        assert_eq!(s.check().unwrap(), Feasibility::Feasible);
        s.undo_to(snap);
        // The tightened bounds are gone: x = 3 must be allowed again.
        s.assert_upper(x, r(3), BoundTag(4)).unwrap();
        assert_eq!(s.check().unwrap(), Feasibility::Feasible);
        assert!(s.value_of(x) <= r(3));
    }

    #[test]
    fn chained_rows_with_substitution() {
        // s1 = x + y (basic); s2 = s1 + z must substitute s1's definition.
        let mut s = Simplex::new();
        let x = s.add_var();
        let y = s.add_var();
        let z = s.add_var();
        let s1 = s.add_row(&[(x, r(1)), (y, r(1))]).unwrap();
        let s2 = s.add_row(&[(s1, r(1)), (z, r(1))]).unwrap();
        s.assert_lower(s2, r(9), BoundTag(0)).unwrap();
        s.assert_upper(x, r(2), BoundTag(1)).unwrap();
        s.assert_upper(y, r(3), BoundTag(2)).unwrap();
        s.assert_upper(z, r(3), BoundTag(3)).unwrap();
        // max x+y+z = 8 < 9 → infeasible.
        match s.check().unwrap() {
            Feasibility::Infeasible(core) => {
                assert_eq!(core.len(), 4);
            }
            other => panic!("expected infeasible, got {other:?}"),
        }
    }

    #[test]
    fn negative_coefficients() {
        // d = x - y; x <= 4, y >= 1 → d <= 3; asserting d >= 4 infeasible.
        let mut s = Simplex::new();
        let x = s.add_var();
        let y = s.add_var();
        let d = s.add_row(&[(x, r(1)), (y, r(-1))]).unwrap();
        s.assert_upper(x, r(4), BoundTag(0)).unwrap();
        s.assert_lower(y, r(1), BoundTag(1)).unwrap();
        s.assert_lower(d, r(4), BoundTag(2)).unwrap();
        assert!(matches!(s.check().unwrap(), Feasibility::Infeasible(_)));
    }

    #[test]
    fn rational_solutions_allowed() {
        // 2x = 5 → x = 5/2 (LP relaxation allows it; integrality is the
        // theory layer's job).
        let mut s = Simplex::new();
        let x = s.add_var();
        let e = s.add_row(&[(x, r(2))]).unwrap();
        s.assert_lower(e, r(5), BoundTag(0)).unwrap();
        s.assert_upper(e, r(5), BoundTag(1)).unwrap();
        assert_eq!(s.check().unwrap(), Feasibility::Feasible);
        assert_eq!(s.value_of(x), Rational::new(5, 2));
    }

    #[test]
    fn many_vars_sum_constraint() {
        // The paper's R1+R2: 0 <= I_t <= 60 for t<5, sum = 100.
        let mut s = Simplex::new();
        let vars: Vec<SVar> = (0..5).map(|_| s.add_var()).collect();
        for (i, &v) in vars.iter().enumerate() {
            s.assert_lower(v, r(0), BoundTag(100 + i as u32)).unwrap();
            s.assert_upper(v, r(60), BoundTag(200 + i as u32)).unwrap();
        }
        let coeffs: Vec<(SVar, Rational)> = vars.iter().map(|&v| (v, r(1))).collect();
        let total = s.add_row(&coeffs).unwrap();
        s.assert_lower(total, r(100), BoundTag(0)).unwrap();
        s.assert_upper(total, r(100), BoundTag(1)).unwrap();
        assert_eq!(s.check().unwrap(), Feasibility::Feasible);
        s.check_invariants();
        let sum: Rational = vars.iter().fold(Rational::ZERO, |a, &v| a + s.value_of(v));
        assert_eq!(sum, r(100));

        // Pin I_0..I_2 to 20,15,25 (partial instantiation as in Fig. 1b):
        // with I_4 <= 60, requiring I_3 >= 41 is infeasible (sum would
        // exceed 100 with I_4 >= 0 forced to -1), while I_3 <= 40 is fine.
        for (i, val) in [(0usize, 20i64), (1, 15), (2, 25)] {
            s.assert_lower(vars[i], r(val), BoundTag(300 + i as u32))
                .unwrap();
            s.assert_upper(vars[i], r(val), BoundTag(400 + i as u32))
                .unwrap();
        }
        let snap = s.snapshot();
        s.assert_lower(vars[3], r(41), BoundTag(500)).unwrap();
        assert!(matches!(s.check().unwrap(), Feasibility::Infeasible(_)));
        s.undo_to(snap);
        s.assert_lower(vars[3], r(40), BoundTag(501)).unwrap();
        assert_eq!(s.check().unwrap(), Feasibility::Feasible);
    }
}
