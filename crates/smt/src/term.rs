//! Hash-consed term arena for QF-LIA formulas.
//!
//! Terms are immutable and deduplicated: building the same term twice yields
//! the same [`TermId`]. Construction performs light normalization so that the
//! rest of the solver only ever sees *one* comparison kind:
//!
//! * `lt/gt/ge/eq/ne` are rewritten into `Le` atoms (using integer semantics,
//!   e.g. `a < b  ⇒  a + 1 ≤ b`),
//! * `implies`/`iff` are rewritten into `And`/`Or`/`Not`,
//! * double negation is collapsed, `And`/`Or` are flattened and deduplicated,
//!   and comparisons between constants are folded to `True`/`False`.

#![expect(
    clippy::indexing_slicing,
    reason = "TermPool is an arena: TermId/VarId are only handed out by the pool itself and index the same Vec they were pushed into; ids cannot outlive the pool"
)]
#![expect(
    clippy::expect_used,
    reason = "int_var/bool_var asserts enforce the declare-before-use pool contract at session construction; add/mul_const expects follow checked constant folding, aborting on unrepresentable constants instead of wrapping (lejit-serve bounds every inline rule set against i64 at admission, protocol::check_inline_rules, so no constant from the wire reaches them)"
)]
#![expect(
    clippy::cast_possible_truncation,
    reason = "ids and positions are u32 by design (half the memory of usize on the hot structures); a solver with 2^32 variables, terms or trail entries is far outside any workload"
)]

use std::collections::BTreeMap;
use std::fmt;

/// Index of a term in a [`TermPool`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TermId(pub(crate) u32);

impl fmt::Debug for TermId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// Index of a declared variable in a [`TermPool`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(pub(crate) u32);

impl VarId {
    /// The raw index of this variable.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// The sort (type) of a term or variable.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Sort {
    /// Boolean sort.
    Bool,
    /// Integer sort.
    Int,
}

/// Metadata about a declared variable.
#[derive(Clone, Debug)]
pub struct VarInfo {
    /// Human-readable name (used in models and diagnostics).
    pub name: String,
    /// The variable's sort.
    pub sort: Sort,
    /// Inclusive lower bound (integer variables only; ignored for booleans).
    pub lo: i64,
    /// Inclusive upper bound (integer variables only; ignored for booleans).
    pub hi: i64,
}

/// A term node. Obtain instances through [`TermPool`] builder methods; the
/// invariants documented on each variant are maintained by construction.
///
/// `Ord` is derived so terms can key ordered (deterministic-iteration)
/// maps; the ordering itself is structural and carries no semantics.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Term {
    /// The boolean constant `true`.
    True,
    /// The boolean constant `false`.
    False,
    /// Boolean negation. Never wraps another `Not`, `True` or `False`.
    Not(TermId),
    /// N-ary conjunction; flattened, deduplicated, at least two conjuncts.
    And(Box<[TermId]>),
    /// N-ary disjunction; flattened, deduplicated, at least two disjuncts.
    Or(Box<[TermId]>),
    /// An integer constant.
    IntConst(i64),
    /// A declared variable (boolean or integer).
    Var(VarId),
    /// N-ary integer sum; at least two addends.
    Add(Box<[TermId]>),
    /// Multiplication of an integer term by a non-zero, non-one constant.
    MulConst(i64, TermId),
    /// The sole comparison atom: `lhs ≤ rhs` over integer terms.
    Le(TermId, TermId),
}

/// Arena of hash-consed terms plus the variable symbol table.
///
/// Both lookup tables are `BTreeMap`s: the pool is part of the decode
/// path, where iteration order must be deterministic (enforced by
/// `clippy::disallowed_types`, DESIGN.md §9).
#[derive(Default)]
pub struct TermPool {
    terms: Vec<Term>,
    dedup: BTreeMap<Term, TermId>,
    vars: Vec<VarInfo>,
    var_names: BTreeMap<String, VarId>,
}

impl TermPool {
    /// Creates an empty pool.
    pub fn new() -> TermPool {
        TermPool::default()
    }

    /// Number of terms interned so far.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// Whether no terms have been interned.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// All declared variables.
    pub fn vars(&self) -> &[VarInfo] {
        &self.vars
    }

    /// Metadata for a variable.
    pub fn var_info(&self, v: VarId) -> &VarInfo {
        &self.vars[v.0 as usize]
    }

    /// Looks up a variable by name.
    pub fn find_var(&self, name: &str) -> Option<VarId> {
        self.var_names.get(name).copied()
    }

    /// Returns the term node for an id.
    pub fn get(&self, id: TermId) -> &Term {
        &self.terms[id.0 as usize]
    }

    fn intern(&mut self, t: Term) -> TermId {
        if let Some(&id) = self.dedup.get(&t) {
            return id;
        }
        let id = TermId(self.terms.len() as u32);
        self.terms.push(t.clone());
        self.dedup.insert(t, id);
        id
    }

    // ------------------------------------------------------------------
    // Variable declarations
    // ------------------------------------------------------------------

    /// Declares a bounded integer variable. Re-declaring the same name
    /// returns the existing variable (bounds must then match).
    ///
    /// # Panics
    /// Panics if `lo > hi`, or if the name is already declared with a
    /// different sort or different bounds.
    pub fn int_var(&mut self, name: &str, lo: i64, hi: i64) -> VarId {
        assert!(lo <= hi, "int_var `{name}`: lo {lo} > hi {hi}");
        if let Some(&v) = self.var_names.get(name) {
            let info = &self.vars[v.0 as usize];
            assert!(
                info.sort == Sort::Int && info.lo == lo && info.hi == hi,
                "variable `{name}` re-declared with different sort or bounds"
            );
            return v;
        }
        let v = VarId(self.vars.len() as u32);
        self.vars.push(VarInfo {
            name: name.to_string(),
            sort: Sort::Int,
            lo,
            hi,
        });
        self.var_names.insert(name.to_string(), v);
        v
    }

    /// Declares a boolean variable (idempotent per name).
    ///
    /// # Panics
    /// Panics if the name is already declared as an integer.
    pub fn bool_var(&mut self, name: &str) -> VarId {
        if let Some(&v) = self.var_names.get(name) {
            assert!(
                self.vars[v.0 as usize].sort == Sort::Bool,
                "variable `{name}` re-declared with different sort"
            );
            return v;
        }
        let v = VarId(self.vars.len() as u32);
        self.vars.push(VarInfo {
            name: name.to_string(),
            sort: Sort::Bool,
            lo: 0,
            hi: 1,
        });
        self.var_names.insert(name.to_string(), v);
        v
    }

    // ------------------------------------------------------------------
    // Leaf builders
    // ------------------------------------------------------------------

    /// The constant `true`.
    pub fn tt(&mut self) -> TermId {
        self.intern(Term::True)
    }

    /// The constant `false`.
    pub fn ff(&mut self) -> TermId {
        self.intern(Term::False)
    }

    /// An integer constant.
    pub fn int(&mut self, n: i64) -> TermId {
        self.intern(Term::IntConst(n))
    }

    /// A variable reference term.
    pub fn var(&mut self, v: VarId) -> TermId {
        self.intern(Term::Var(v))
    }

    /// The sort of a term.
    pub fn sort_of(&self, t: TermId) -> Sort {
        match self.get(t) {
            Term::True | Term::False | Term::Not(_) | Term::And(_) | Term::Or(_) | Term::Le(..) => {
                Sort::Bool
            }
            Term::IntConst(_) | Term::Add(_) | Term::MulConst(..) => Sort::Int,
            Term::Var(v) => self.vars[v.0 as usize].sort,
        }
    }

    /// The constant value of a term, if it is an integer constant.
    pub fn as_int_const(&self, t: TermId) -> Option<i64> {
        match self.get(t) {
            Term::IntConst(n) => Some(*n),
            _ => None,
        }
    }

    // ------------------------------------------------------------------
    // Boolean builders
    // ------------------------------------------------------------------

    /// Boolean negation (with double-negation and constant folding).
    pub fn not(&mut self, t: TermId) -> TermId {
        debug_assert_eq!(self.sort_of(t), Sort::Bool);
        match self.get(t) {
            Term::True => self.ff(),
            Term::False => self.tt(),
            Term::Not(inner) => *inner,
            _ => self.intern(Term::Not(t)),
        }
    }

    fn nary_bool(&mut self, kids: &[TermId], is_and: bool) -> TermId {
        let (absorb, neutral): (Term, Term) = if is_and {
            (Term::False, Term::True)
        } else {
            (Term::True, Term::False)
        };
        let mut flat: Vec<TermId> = Vec::with_capacity(kids.len());
        let mut stack: Vec<TermId> = kids.to_vec();
        stack.reverse();
        while let Some(k) = stack.pop() {
            debug_assert_eq!(self.sort_of(k), Sort::Bool);
            let node = self.get(k).clone();
            if node == absorb {
                return if is_and { self.ff() } else { self.tt() };
            }
            if node == neutral {
                continue;
            }
            match (&node, is_and) {
                (Term::And(inner), true) | (Term::Or(inner), false) => {
                    for &i in inner.iter().rev() {
                        stack.push(i);
                    }
                }
                _ => flat.push(k),
            }
        }
        flat.sort_unstable();
        flat.dedup();
        // x ∧ ¬x = false, x ∨ ¬x = true.
        for &k in &flat {
            if let Term::Not(inner) = self.get(k) {
                if flat.binary_search(inner).is_ok() {
                    return if is_and { self.ff() } else { self.tt() };
                }
            }
        }
        match flat.len() {
            0 => {
                if is_and {
                    self.tt()
                } else {
                    self.ff()
                }
            }
            1 => flat[0],
            _ => {
                let node = if is_and {
                    Term::And(flat.into_boxed_slice())
                } else {
                    Term::Or(flat.into_boxed_slice())
                };
                self.intern(node)
            }
        }
    }

    /// N-ary conjunction.
    pub fn and(&mut self, kids: &[TermId]) -> TermId {
        self.nary_bool(kids, true)
    }

    /// N-ary disjunction.
    pub fn or(&mut self, kids: &[TermId]) -> TermId {
        self.nary_bool(kids, false)
    }

    /// Implication `a → b`, rewritten as `¬a ∨ b`.
    pub fn implies(&mut self, a: TermId, b: TermId) -> TermId {
        let na = self.not(a);
        self.or(&[na, b])
    }

    /// Bi-implication `a ↔ b`, rewritten as `(a → b) ∧ (b → a)`.
    pub fn iff(&mut self, a: TermId, b: TermId) -> TermId {
        let ab = self.implies(a, b);
        let ba = self.implies(b, a);
        self.and(&[ab, ba])
    }

    // ------------------------------------------------------------------
    // Integer builders
    // ------------------------------------------------------------------

    /// N-ary integer sum with flattening and constant folding.
    pub fn add(&mut self, kids: &[TermId]) -> TermId {
        let mut flat: Vec<TermId> = Vec::with_capacity(kids.len());
        let mut konst: i64 = 0;
        let mut stack: Vec<TermId> = kids.to_vec();
        stack.reverse();
        while let Some(k) = stack.pop() {
            debug_assert_eq!(self.sort_of(k), Sort::Int);
            match self.get(k) {
                Term::IntConst(n) => konst = konst.checked_add(*n).expect("int overflow in add"),
                Term::Add(inner) => {
                    for &i in inner.iter().rev() {
                        stack.push(i);
                    }
                }
                _ => flat.push(k),
            }
        }
        if konst != 0 {
            let c = self.int(konst);
            flat.push(c);
        }
        match flat.len() {
            0 => self.int(0),
            1 => flat[0],
            _ => {
                flat.sort_unstable();
                self.intern(Term::Add(flat.into_boxed_slice()))
            }
        }
    }

    /// Binary subtraction `a - b`.
    pub fn sub(&mut self, a: TermId, b: TermId) -> TermId {
        let nb = self.mul_const(-1, b);
        self.add(&[a, nb])
    }

    /// Negation `-a`.
    pub fn neg_int(&mut self, a: TermId) -> TermId {
        self.mul_const(-1, a)
    }

    /// Multiplication by a constant, with folding (`0·t = 0`, `1·t = t`,
    /// `c·(d·t) = (cd)·t`, `c·k = ck` for constant `k`).
    pub fn mul_const(&mut self, c: i64, t: TermId) -> TermId {
        debug_assert_eq!(self.sort_of(t), Sort::Int);
        if c == 0 {
            return self.int(0);
        }
        if c == 1 {
            return t;
        }
        match self.get(t) {
            Term::IntConst(n) => {
                let v = c.checked_mul(*n).expect("int overflow in mul_const");
                self.int(v)
            }
            Term::MulConst(d, inner) => {
                let (d, inner) = (*d, *inner);
                let cd = c.checked_mul(d).expect("int overflow in mul_const");
                self.mul_const(cd, inner)
            }
            Term::Add(kids) => {
                let kids: Vec<TermId> = kids.to_vec();
                let scaled: Vec<TermId> = kids.into_iter().map(|k| self.mul_const(c, k)).collect();
                self.add(&scaled)
            }
            _ => self.intern(Term::MulConst(c, t)),
        }
    }

    // ------------------------------------------------------------------
    // Comparison builders (everything lowers to `Le`)
    // ------------------------------------------------------------------

    /// `a ≤ b`, folding constant comparisons.
    pub fn le(&mut self, a: TermId, b: TermId) -> TermId {
        debug_assert_eq!(self.sort_of(a), Sort::Int);
        debug_assert_eq!(self.sort_of(b), Sort::Int);
        if a == b {
            return self.tt();
        }
        if let (Some(x), Some(y)) = (self.as_int_const(a), self.as_int_const(b)) {
            return if x <= y { self.tt() } else { self.ff() };
        }
        self.intern(Term::Le(a, b))
    }

    /// `a < b`, rewritten as `a + 1 ≤ b` (integer semantics).
    pub fn lt(&mut self, a: TermId, b: TermId) -> TermId {
        let one = self.int(1);
        let a1 = self.add(&[a, one]);
        self.le(a1, b)
    }

    /// `a ≥ b`.
    pub fn ge(&mut self, a: TermId, b: TermId) -> TermId {
        self.le(b, a)
    }

    /// `a > b`.
    pub fn gt(&mut self, a: TermId, b: TermId) -> TermId {
        self.lt(b, a)
    }

    /// `a = b`, rewritten as `a ≤ b ∧ b ≤ a`.
    pub fn eq(&mut self, a: TermId, b: TermId) -> TermId {
        let le1 = self.le(a, b);
        let le2 = self.le(b, a);
        self.and(&[le1, le2])
    }

    /// `a ≠ b`, rewritten as `a < b ∨ b < a`.
    pub fn ne(&mut self, a: TermId, b: TermId) -> TermId {
        let lt1 = self.lt(a, b);
        let lt2 = self.lt(b, a);
        self.or(&[lt1, lt2])
    }

    // ------------------------------------------------------------------
    // Aggregations over term slices (expanded, since QF-LIA has no such ops)
    // ------------------------------------------------------------------

    /// `max(ts) ≥ bound`, expanded to `∨ᵢ tᵢ ≥ bound`.
    ///
    /// # Panics
    /// Panics if `ts` is empty.
    pub fn max_ge(&mut self, ts: &[TermId], bound: TermId) -> TermId {
        assert!(!ts.is_empty(), "max over empty slice");
        let parts: Vec<TermId> = ts.iter().map(|&t| self.ge(t, bound)).collect();
        self.or(&parts)
    }

    /// `max(ts) ≤ bound`, expanded to `∧ᵢ tᵢ ≤ bound`.
    ///
    /// # Panics
    /// Panics if `ts` is empty.
    pub fn max_le(&mut self, ts: &[TermId], bound: TermId) -> TermId {
        assert!(!ts.is_empty(), "max over empty slice");
        let parts: Vec<TermId> = ts.iter().map(|&t| self.le(t, bound)).collect();
        self.and(&parts)
    }

    /// `min(ts) ≤ bound`, expanded to `∨ᵢ tᵢ ≤ bound`.
    ///
    /// # Panics
    /// Panics if `ts` is empty.
    pub fn min_le(&mut self, ts: &[TermId], bound: TermId) -> TermId {
        assert!(!ts.is_empty(), "min over empty slice");
        let parts: Vec<TermId> = ts.iter().map(|&t| self.le(t, bound)).collect();
        self.or(&parts)
    }

    /// `min(ts) ≥ bound`, expanded to `∧ᵢ tᵢ ≥ bound`.
    ///
    /// # Panics
    /// Panics if `ts` is empty.
    pub fn min_ge(&mut self, ts: &[TermId], bound: TermId) -> TermId {
        assert!(!ts.is_empty(), "min over empty slice");
        let parts: Vec<TermId> = ts.iter().map(|&t| self.ge(t, bound)).collect();
        self.and(&parts)
    }

    /// Pretty-prints a term (for diagnostics and tests).
    pub fn display(&self, t: TermId) -> String {
        match self.get(t) {
            Term::True => "true".into(),
            Term::False => "false".into(),
            Term::Not(x) => format!("(not {})", self.display(*x)),
            Term::And(kids) => {
                let parts: Vec<String> = kids.iter().map(|&k| self.display(k)).collect();
                format!("(and {})", parts.join(" "))
            }
            Term::Or(kids) => {
                let parts: Vec<String> = kids.iter().map(|&k| self.display(k)).collect();
                format!("(or {})", parts.join(" "))
            }
            Term::IntConst(n) => n.to_string(),
            Term::Var(v) => self.vars[v.0 as usize].name.clone(),
            Term::Add(kids) => {
                let parts: Vec<String> = kids.iter().map(|&k| self.display(k)).collect();
                format!("(+ {})", parts.join(" "))
            }
            Term::MulConst(c, x) => format!("(* {} {})", c, self.display(*x)),
            Term::Le(a, b) => format!("(<= {} {})", self.display(*a), self.display(*b)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_consing_dedups() {
        let mut p = TermPool::new();
        let a = p.int(5);
        let b = p.int(5);
        assert_eq!(a, b);
        let v = p.int_var("x", 0, 10);
        let x1 = p.var(v);
        let x2 = p.var(v);
        assert_eq!(x1, x2);
    }

    #[test]
    fn var_redeclaration_is_idempotent() {
        let mut p = TermPool::new();
        let a = p.int_var("x", 0, 10);
        let b = p.int_var("x", 0, 10);
        assert_eq!(a, b);
        assert_eq!(p.find_var("x"), Some(a));
        assert_eq!(p.find_var("y"), None);
    }

    #[test]
    #[should_panic(expected = "different sort or bounds")]
    fn var_redeclaration_with_new_bounds_panics() {
        let mut p = TermPool::new();
        p.int_var("x", 0, 10);
        p.int_var("x", 0, 11);
    }

    #[test]
    fn not_simplifies() {
        let mut p = TermPool::new();
        let v = p.bool_var("b");
        let b = p.var(v);
        let nb = p.not(b);
        assert_eq!(p.not(nb), b);
        let t = p.tt();
        assert_eq!(p.not(t), p.ff());
    }

    #[test]
    fn and_or_flatten_and_fold() {
        let mut p = TermPool::new();
        let a = p.bool_var("a");
        let b = p.bool_var("b");
        let (ta, tb) = (p.var(a), p.var(b));
        let tt = p.tt();
        let ff = p.ff();
        assert_eq!(p.and(&[ta, tt]), ta);
        assert_eq!(p.and(&[ta, ff]), ff);
        assert_eq!(p.or(&[ta, tt]), tt);
        assert_eq!(p.or(&[ta, ff]), ta);
        // flattening: and(a, and(a, b)) == and(a, b)
        let inner = p.and(&[ta, tb]);
        let outer = p.and(&[ta, inner]);
        assert_eq!(outer, inner);
        // complement annihilation
        let na = p.not(ta);
        assert_eq!(p.and(&[ta, na]), ff);
        assert_eq!(p.or(&[ta, na]), tt);
    }

    #[test]
    fn add_folds_constants() {
        let mut p = TermPool::new();
        let v = p.int_var("x", 0, 100);
        let x = p.var(v);
        let c2 = p.int(2);
        let c3 = p.int(3);
        let s = p.add(&[c2, x, c3]);
        // x + 5
        match p.get(s) {
            Term::Add(kids) => {
                assert_eq!(kids.len(), 2);
                let consts: Vec<i64> = kids.iter().filter_map(|&k| p.as_int_const(k)).collect();
                assert_eq!(consts, vec![5]);
            }
            other => panic!("expected Add, got {other:?}"),
        }
        let only_consts = p.add(&[c2, c3]);
        assert_eq!(p.as_int_const(only_consts), Some(5));
    }

    #[test]
    fn mul_const_folds() {
        let mut p = TermPool::new();
        let v = p.int_var("x", 0, 100);
        let x = p.var(v);
        assert_eq!(p.mul_const(1, x), x);
        assert_eq!(p.mul_const(0, x), p.int(0));
        let m2 = p.mul_const(2, x);
        let m6 = p.mul_const(3, m2);
        assert_eq!(m6, p.mul_const(6, x));
        let c = p.int(4);
        assert_eq!(p.mul_const(3, c), p.int(12));
    }

    #[test]
    fn comparisons_fold_on_constants() {
        let mut p = TermPool::new();
        let c1 = p.int(1);
        let c2 = p.int(2);
        assert_eq!(p.le(c1, c2), p.tt());
        assert_eq!(p.le(c2, c1), p.ff());
        assert_eq!(p.lt(c1, c2), p.tt());
        assert_eq!(p.lt(c1, c1), p.ff());
        assert_eq!(p.eq(c1, c1), p.tt());
        assert_eq!(p.ne(c1, c2), p.tt());
        assert_eq!(p.ne(c1, c1), p.ff());
    }

    #[test]
    fn reflexive_le_is_true() {
        let mut p = TermPool::new();
        let v = p.int_var("x", 0, 9);
        let x = p.var(v);
        assert_eq!(p.le(x, x), p.tt());
    }

    #[test]
    fn display_roundtrip_shape() {
        let mut p = TermPool::new();
        let v = p.int_var("x", 0, 9);
        let x = p.var(v);
        let c = p.int(3);
        let f = p.le(x, c);
        assert_eq!(p.display(f), "(<= x 3)");
    }

    #[test]
    fn aggregation_expansions() {
        let mut p = TermPool::new();
        let vars: Vec<TermId> = (0..3)
            .map(|i| {
                let v = p.int_var(&format!("x{i}"), 0, 9);
                p.var(v)
            })
            .collect();
        let b = p.int(5);
        let f = p.max_ge(&vars, b);
        match p.get(f) {
            Term::Or(kids) => assert_eq!(kids.len(), 3),
            other => panic!("expected Or, got {other:?}"),
        }
        let g = p.max_le(&vars, b);
        match p.get(g) {
            Term::And(kids) => assert_eq!(kids.len(), 3),
            other => panic!("expected And, got {other:?}"),
        }
    }
}
