//! Tseitin transformation of the boolean skeleton into CNF.
//!
//! Every boolean subterm gets a SAT literal, cached by [`TermId`] — the
//! *variable* mapping is permanent, so re-encoding a term is free. The
//! *definitional clauses*, however, are scoped to the assertion frame that
//! (re-)introduced them: each is guarded by that frame's selector literal,
//! so retracting the frame physically deletes them and the SAT search stops
//! paying for encodings nothing live references (a long-lived session would
//! otherwise decide every variable it ever allocated, every solve, forever).
//! On a cache hit whose defining frame has since been retracted, the clauses
//! are re-emitted under the current frame — same variables, fresh guard.
//!
//! Theory atoms (`Le` terms) are canonicalized into [`LinAtom`]s first and
//! cached *by atom*, so syntactic variants of the same inequality (`x ≤ 5`
//! vs `x + 1 ≤ 6`) share one SAT variable — which both shrinks the search
//! space and lets the theory layer keep a single registry. A comparison
//! whose canonical form leaves `i64` (`x ≤ i64::MIN`) is registered all the
//! same, keyed by its two terms and holding the overflow, which the theory
//! returns from every check that asserts it.

#![expect(
    clippy::indexing_slicing,
    reason = "Tseitin encoder indexes term arguments after matching on the term's arity-checked constructor"
)]
#![expect(
    clippy::cast_possible_truncation,
    reason = "ids and positions are u32 by design (half the memory of usize on the hot structures); a solver with 2^32 variables, terms or trail entries is far outside any workload"
)]

use std::collections::BTreeMap;

use crate::error::SolverError;
use crate::linear::LinAtom;
use crate::sat::{Lit, SatSolver, SatVar};
use crate::term::{Term, TermId, TermPool, VarId};

/// Lists in one arena, each found by a dense index: a `(start, len)` span
/// of `items` per index, [`Spans::ABSENT`] where there is no list.
struct Spans<T> {
    spans: Vec<(u32, u32)>,
    items: Vec<T>,
}

impl<T> Default for Spans<T> {
    fn default() -> Self {
        Spans {
            spans: Vec::new(),
            items: Vec::new(),
        }
    }
}

impl<T: Copy> Spans<T> {
    /// The span of an index with no list.
    const ABSENT: (u32, u32) = (u32::MAX, 0);

    /// The list at `at`, if one was set.
    fn get(&self, at: usize) -> Option<&[T]> {
        let &(start, len) = self.spans.get(at)?;
        if (start, len) == Self::ABSENT {
            return None;
        }
        let start = start as usize;
        self.items.get(start..start + len as usize)
    }

    /// Sets the list at `at` to `span`, growing the index as needed.
    fn set_span(&mut self, at: usize, span: (u32, u32)) {
        if self.spans.len() <= at {
            self.spans.resize(at + 1, Self::ABSENT);
        }
        if let Some(slot) = self.spans.get_mut(at) {
            *slot = span;
        }
    }

    /// Sets the list at `at` to a copy of `list`.
    fn set(&mut self, at: usize, list: impl IntoIterator<Item = T>) {
        let start = self.items.len();
        self.items.extend(list);
        let span = (start as u32, (self.items.len() - start) as u32);
        self.set_span(at, span);
    }

    /// Sets the list at `at` to the one at `from`: one copy serves both.
    fn share(&mut self, at: usize, from: usize) {
        let span = self.spans.get(from).copied().unwrap_or(Self::ABSENT);
        self.set_span(at, span);
    }
}

/// Incremental Tseitin encoder shared by all assertions of a [`crate::Solver`].
///
/// The keyed caches are `BTreeMap`s: the encoder sits on the decode path,
/// where map iteration order must be deterministic
/// (`clippy::disallowed_types`). What the justification walk reads per term
/// or per atom — cones, atom variables — sits in dense tables instead.
#[derive(Default)]
pub struct Encoder {
    /// Cache of already-encoded boolean terms.
    cache: BTreeMap<TermId, Lit>,
    /// SAT variable and registry index per canonical theory atom.
    atom_vars: BTreeMap<LinAtom, (SatVar, u32)>,
    /// The same for a comparison `a ≤ b` whose normalization overflowed,
    /// keyed by `(a, b)`.
    overflowed: BTreeMap<(TermId, TermId), (SatVar, u32)>,
    /// Registry: every theory atom (or its normalization's overflow) with
    /// its SAT variable, in allocation order.
    atoms: Vec<(Result<LinAtom, SolverError>, SatVar)>,
    /// Scope of each `And`/`Or` term's definitional clauses: `None` means
    /// permanent (emitted at the root, outside any frame); `Some(id)` means
    /// guarded by the frame with that *generation id* — live exactly while
    /// that frame is open, deleted by the frame's retract. Generation ids
    /// (not selector variables) are the key because selector variables are
    /// recycled: a reused selector must not make a retired frame's deleted
    /// clauses look live. Leaf terms (`Var`, `Le`, constants) and `Not`
    /// have no definitional clauses and no entry.
    def_guard: BTreeMap<TermId, Option<u64>>,
    /// Per registry atom, its variables ascending; none for an atom whose
    /// normalization overflowed. [`Self::cone_vars_all`] reads these slices
    /// instead of each atom's coefficient map.
    atom_vars_of: Spans<VarId>,
    /// Each encoded term's *atom cone*, indexed by [`TermId`]: the registry
    /// indices of every theory atom reachable in its encoding, sorted and
    /// deduplicated. Terms are hash-consed and a cone never changes once
    /// computed, so a term's slice is written once and read by an index
    /// (the justification walk reads one per comparison and per disjunct).
    /// The SMT layer refcounts these per assertion frame to keep the list
    /// of atoms some live assertion references: the registry only grows (an
    /// atom keeps its index and SAT variable after its frame's definitional
    /// clauses are retracted), so a consult or theory check that walked it
    /// would cost more with every window a long session has seen; they walk
    /// the live list instead.
    cones: Spans<u32>,
    /// SAT variable per boolean problem variable.
    bool_vars: BTreeMap<VarId, SatVar>,
    /// Literal that is constant-true (allocated lazily).
    true_lit: Option<Lit>,
    /// Encode calls answered from the term cache (no clauses emitted).
    cache_hits: u64,
    /// Encode calls that had to Tseitin-encode a new term.
    cache_misses: u64,
}

impl Encoder {
    /// Creates an empty encoder.
    pub fn new() -> Encoder {
        Encoder::default()
    }

    /// The theory-atom registry: `(atom, sat_var)` pairs.
    pub fn atoms(&self) -> &[(Result<LinAtom, SolverError>, SatVar)] {
        &self.atoms
    }

    /// The SAT variable for a boolean problem variable, if encoded.
    pub fn bool_var(&self, v: VarId) -> Option<SatVar> {
        self.bool_vars.get(&v).copied()
    }

    /// Tseitin encode-cache work as `(hits, misses)`: hits returned the
    /// cached literal for a term, misses paid for a fresh encoding (new SAT
    /// variables and definitional clauses). Recursive first-time encodings
    /// count one miss per subterm.
    pub fn cache_stats(&self) -> (u64, u64) {
        (self.cache_hits, self.cache_misses)
    }

    fn true_lit(&mut self, sat: &mut SatSolver) -> Lit {
        if let Some(l) = self.true_lit {
            return l;
        }
        let v = sat.new_var();
        let l = Lit::new(v, true);
        sat.add_clause(&[l]);
        self.true_lit = Some(l);
        l
    }

    /// The registry entry of the atom `a ≤ b` — its SAT variable and
    /// registry index — entered on first sight with a fresh variable and no
    /// clause, so a range probe can name its bound to the theory without
    /// being encoded. `Err(truth)` for a comparison whose variables cancel
    /// (`x - x <= -1` gets past the pool's constant folding): it has no
    /// atom, only a truth value.
    pub fn atom(
        &mut self,
        pool: &TermPool,
        sat: &mut SatSolver,
        a: TermId,
        b: TermId,
    ) -> Result<(SatVar, u32), bool> {
        let atom = LinAtom::from_le(pool, a, b);
        if let Ok(atom) = &atom {
            if atom.expr.is_constant() {
                return Err(atom.expr.constant <= 0);
            }
        }
        if let Some(entry) = self.entry(&atom, (a, b)) {
            return Ok(entry);
        }
        let entry = (sat.new_var(), self.atoms.len() as u32);
        match &atom {
            Ok(atom) => {
                self.atom_vars_of
                    .set(self.atoms.len(), atom.expr.coeffs.keys().copied());
                self.atom_vars.insert(atom.clone(), entry)
            }
            Err(_) => self.overflowed.insert((a, b), entry),
        };
        self.atoms.push((atom, entry.0));
        Ok(entry)
    }

    /// The registry entry of the comparison `terms` normalizing to `atom`.
    fn entry(
        &self,
        atom: &Result<LinAtom, SolverError>,
        terms: (TermId, TermId),
    ) -> Option<(SatVar, u32)> {
        match atom {
            Ok(atom) => self.atom_vars.get(atom),
            Err(_) => self.overflowed.get(&terms),
        }
        .copied()
    }

    /// Encodes a boolean term, returning its literal.
    ///
    /// `guard` is the current frame's selector literal plus its generation
    /// id (or `None` at the root): every definitional clause emitted is
    /// prefixed with `¬selector`, scoping it to the frame. `open` is the
    /// stack of open frames' generation ids (ascending — generation ids are
    /// allocated monotonically and never reused, unlike selector
    /// *variables*, which are recycled), used to decide whether a cached
    /// term's definitional clauses are still live; if their defining frame
    /// was retracted they are re-emitted under `guard`, reusing the cached
    /// variables.
    #[expect(
        clippy::panic,
        reason = "encode is only called on Bool-sorted terms (sort is checked by Solver::assert); a non-boolean here is a type-discipline bug, not a runtime input"
    )]
    pub fn encode(
        &mut self,
        pool: &TermPool,
        sat: &mut SatSolver,
        t: TermId,
        guard: Option<(Lit, u64)>,
        open: &[u64],
    ) -> Lit {
        if let Some(&l) = self.cache.get(&t) {
            self.cache_hits += 1;
            self.ensure_defs(pool, sat, t, guard, open);
            return l;
        }
        self.cache_misses += 1;
        let lit = match pool.get(t) {
            Term::True => self.true_lit(sat),
            Term::False => !self.true_lit(sat),
            Term::Not(inner) => {
                let inner = *inner;
                !self.encode(pool, sat, inner, guard, open)
            }
            Term::Var(v) => {
                let sv = *self.bool_vars.entry(*v).or_insert_with(|| sat.new_var());
                Lit::new(sv, true)
            }
            Term::Le(a, b) => match self.atom(pool, sat, *a, *b) {
                Ok((sv, _)) => Lit::new(sv, true),
                Err(truth) => {
                    let l = self.true_lit(sat);
                    if truth {
                        l
                    } else {
                        !l
                    }
                }
            },
            Term::And(kids) => {
                let kids: Vec<TermId> = kids.to_vec();
                let lits: Vec<Lit> = kids
                    .iter()
                    .map(|&k| self.encode(pool, sat, k, guard, open))
                    .collect();
                let v = sat.new_var();
                let lv = Lit::new(v, true);
                Self::emit_and_defs(sat, lv, &lits, guard.map(|(g, _)| g));
                self.def_guard.insert(t, guard.map(|(_, id)| id));
                lv
            }
            Term::Or(kids) => {
                let kids: Vec<TermId> = kids.to_vec();
                let lits: Vec<Lit> = kids
                    .iter()
                    .map(|&k| self.encode(pool, sat, k, guard, open))
                    .collect();
                let v = sat.new_var();
                let lv = Lit::new(v, true);
                Self::emit_or_defs(sat, lv, &lits, guard.map(|(g, _)| g));
                self.def_guard.insert(t, guard.map(|(_, id)| id));
                lv
            }
            other => panic!("cannot encode non-boolean term {other:?}"),
        };
        self.cache.insert(t, lit);
        lit
    }

    /// Whether `t`'s definitional clauses are currently attached: permanent,
    /// or guarded by a frame generation id still on the open-frame stack.
    fn defs_live(&self, t: TermId, open: &[u64]) -> bool {
        match self.def_guard.get(&t) {
            None => false,
            Some(None) => true,
            Some(Some(id)) => open.binary_search(id).is_ok(),
        }
    }

    /// Re-attaches the definitional clauses of every dead `And`/`Or` node in
    /// `t`'s (already-encoded) subtree, guarded by the current frame.
    ///
    /// Recursion stops at live nodes: a node's defs being live implies its
    /// children's are too, because children are made live whenever a parent
    /// is (re-)emitted and frames retract in LIFO order — a child's guard
    /// frame, opened no later than the parent's, can only close after it.
    fn ensure_defs(
        &mut self,
        pool: &TermPool,
        sat: &mut SatSolver,
        t: TermId,
        guard: Option<(Lit, u64)>,
        open: &[u64],
    ) {
        match pool.get(t) {
            Term::True | Term::False | Term::Var(_) | Term::Le(..) => {}
            Term::Not(inner) => {
                let inner = *inner;
                self.ensure_defs(pool, sat, inner, guard, open);
            }
            Term::And(kids) | Term::Or(kids) => {
                if self.defs_live(t, open) {
                    return;
                }
                let is_and = matches!(pool.get(t), Term::And(_));
                let kids: Vec<TermId> = kids.to_vec();
                for &k in &kids {
                    self.ensure_defs(pool, sat, k, guard, open);
                }
                let lv = self.cache[&t];
                let lits: Vec<Lit> = kids.iter().map(|&k| self.cache[&k]).collect();
                if is_and {
                    Self::emit_and_defs(sat, lv, &lits, guard.map(|(g, _)| g));
                } else {
                    Self::emit_or_defs(sat, lv, &lits, guard.map(|(g, _)| g));
                }
                self.def_guard.insert(t, guard.map(|(_, id)| id));
            }
            _ => {}
        }
    }

    /// `v → kᵢ` for all i; `(k₁ ∧ … ∧ kₙ) → v` — each clause prefixed with
    /// `¬guard` when a frame is open.
    fn emit_and_defs(sat: &mut SatSolver, lv: Lit, lits: &[Lit], guard: Option<Lit>) {
        let g = guard.map(|s| !s);
        let mut long: Vec<Lit> = Vec::with_capacity(lits.len() + 2);
        if let Some(g) = g {
            long.push(g);
        }
        long.push(lv);
        for &k in lits {
            match g {
                Some(g) => sat.add_clause(&[g, !lv, k]),
                None => sat.add_clause(&[!lv, k]),
            };
            long.push(!k);
        }
        sat.add_clause(&long);
    }

    /// `kᵢ → v` for all i; `v → (k₁ ∨ … ∨ kₙ)` — each clause prefixed with
    /// `¬guard` when a frame is open.
    fn emit_or_defs(sat: &mut SatSolver, lv: Lit, lits: &[Lit], guard: Option<Lit>) {
        let g = guard.map(|s| !s);
        let mut long: Vec<Lit> = Vec::with_capacity(lits.len() + 2);
        if let Some(g) = g {
            long.push(g);
        }
        long.push(!lv);
        for &k in lits {
            match g {
                Some(g) => sat.add_clause(&[g, lv, !k]),
                None => sat.add_clause(&[lv, !k]),
            };
            long.push(k);
        }
        sat.add_clause(&long);
    }

    /// The *atom cone* of an already-encoded term: registry indices of every
    /// theory atom reachable in its encoding, sorted ascending, deduplicated.
    ///
    /// Must be called after [`Self::encode`] for the same term (the cone is
    /// read off the atom registry, which `encode` populates); the result is
    /// cached per [`TermId`]. [`crate::Solver::assert`] refcounts these
    /// indices per frame so theory checks only see live assertions' atoms.
    pub fn cone(&mut self, pool: &TermPool, t: TermId) -> &[u32] {
        self.ensure_cone(pool, t);
        self.cones.get(t.0 as usize).unwrap_or_default()
    }

    /// Whether `pred` holds of every variable of every atom in `t`'s cone
    /// (same precondition as [`Self::cone`]): true of a term whose truth
    /// rests on those variables alone.
    pub fn cone_vars_all(
        &mut self,
        pool: &TermPool,
        t: TermId,
        pred: impl Fn(VarId) -> bool,
    ) -> bool {
        self.ensure_cone(pool, t);
        let vars = &self.atom_vars_of;
        self.cones.get(t.0 as usize).is_some_and(|cone| {
            cone.iter().all(|&i| {
                vars.get(i as usize)
                    .is_some_and(|vs| vs.iter().all(|&v| pred(v)))
            })
        })
    }

    /// The registry index of the comparison `t` once its cone is known —
    /// it was encoded, so its atom is registered — without normalizing it
    /// again; `None` before that, and for a comparison with no atom.
    pub fn known_atom(&self, t: TermId) -> Option<u32> {
        match self.cones.get(t.0 as usize)? {
            &[i] => Some(i),
            _ => None,
        }
    }

    /// Fills `out` with the variables of every atom in `t`'s cone,
    /// ascending and distinct (same precondition as [`Self::cone`]): what a
    /// pin must touch to change the truth of `t`.
    pub fn cone_vars(&mut self, pool: &TermPool, t: TermId, out: &mut Vec<VarId>) {
        self.ensure_cone(pool, t);
        out.clear();
        let cone = self.cones.get(t.0 as usize).unwrap_or_default();
        for &i in cone {
            out.extend_from_slice(self.atom_vars_of.get(i as usize).unwrap_or_default());
        }
        out.sort_unstable();
        out.dedup();
    }

    /// Memoized cone computation: every subterm's cone is cached, so shared
    /// (hash-consed) subterms are visited once, not once per occurrence.
    fn ensure_cone(&mut self, pool: &TermPool, t: TermId) {
        let at = t.0 as usize;
        if self.cones.get(at).is_some() {
            return;
        }
        match pool.get(t) {
            Term::Not(inner) => {
                self.ensure_cone(pool, *inner);
                self.cones.share(at, inner.0 as usize);
            }
            Term::Le(a, b) => {
                // Constant atoms fold to truth literals in `encode` and
                // never reach the registry.
                let atom = LinAtom::from_le(pool, *a, *b);
                let idx = self.entry(&atom, (*a, *b)).map(|(_, idx)| idx);
                self.cones.set(at, idx);
            }
            Term::And(kids) | Term::Or(kids) => {
                let mut acc: Vec<u32> = Vec::new();
                for &k in kids.iter() {
                    self.ensure_cone(pool, k);
                    acc.extend_from_slice(self.cones.get(k.0 as usize).unwrap_or_default());
                }
                acc.sort_unstable();
                acc.dedup();
                self.cones.set(at, acc);
            }
            _ => self.cones.set(at, None),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sat::SatOutcome;

    fn setup() -> (TermPool, SatSolver, Encoder) {
        (TermPool::new(), SatSolver::new(), Encoder::new())
    }

    #[test]
    fn atoms_are_shared_across_syntactic_variants() {
        let (mut p, mut sat, mut enc) = setup();
        let v = p.int_var("x", 0, 10);
        let x = p.var(v);
        let five = p.int(5);
        let six = p.int(6);
        let one = p.int(1);
        let a1 = p.le(x, five);
        let x1 = p.add(&[x, one]);
        let a2 = p.le(x1, six);
        let l1 = enc.encode(&p, &mut sat, a1, None, &[]);
        let l2 = enc.encode(&p, &mut sat, a2, None, &[]);
        assert_eq!(l1, l2, "x<=5 and x+1<=6 must share a SAT variable");
        assert_eq!(enc.atoms().len(), 1);
    }

    #[test]
    fn and_encoding_is_equisatisfiable() {
        let (mut p, mut sat, mut enc) = setup();
        let a = p.bool_var("a");
        let b = p.bool_var("b");
        let (ta, tb) = (p.var(a), p.var(b));
        let conj = p.and(&[ta, tb]);
        let root = enc.encode(&p, &mut sat, conj, None, &[]);
        sat.add_clause(&[root]);
        assert_eq!(sat.solve(&[]).unwrap(), SatOutcome::Sat);
        let sa = enc.bool_var(a).unwrap();
        let sb = enc.bool_var(b).unwrap();
        assert!(sat.model_value(sa));
        assert!(sat.model_value(sb));
    }

    #[test]
    fn or_encoding_requires_some_disjunct() {
        let (mut p, mut sat, mut enc) = setup();
        let a = p.bool_var("a");
        let b = p.bool_var("b");
        let (ta, tb) = (p.var(a), p.var(b));
        let disj = p.or(&[ta, tb]);
        let root = enc.encode(&p, &mut sat, disj, None, &[]);
        sat.add_clause(&[root]);
        let sa = enc.bool_var(a).unwrap();
        let sb = enc.bool_var(b).unwrap();
        // Force both false → unsat.
        sat.add_clause(&[Lit::new(sa, false)]);
        sat.add_clause(&[Lit::new(sb, false)]);
        assert_eq!(sat.solve(&[]).unwrap(), SatOutcome::Unsat);
    }

    #[test]
    fn constant_atoms_fold_to_truth_literals() {
        let (mut p, mut sat, mut enc) = setup();
        // x - x <= -1 is an always-false atom that survives pool folding
        // only as a Le over a constant expression: build it manually.
        let v = p.int_var("x", 0, 10);
        let x = p.var(v);
        let negx = p.mul_const(-1, x);
        let diff = p.add(&[x, negx]); // folds to 0
        let minus1 = p.int(-1);
        let t = p.le(diff, minus1); // 0 <= -1 folds at pool level to False
        let l = enc.encode(&p, &mut sat, t, None, &[]);
        sat.add_clause(&[l]);
        assert_eq!(sat.solve(&[]).unwrap(), SatOutcome::Unsat);
    }

    #[test]
    fn true_false_terms() {
        let (mut p, mut sat, mut enc) = setup();
        let t = p.tt();
        let f = p.ff();
        let lt = enc.encode(&p, &mut sat, t, None, &[]);
        let lf = enc.encode(&p, &mut sat, f, None, &[]);
        assert_eq!(lt, !lf);
        sat.add_clause(&[lt]);
        assert_eq!(sat.solve(&[]).unwrap(), SatOutcome::Sat);
    }

    #[test]
    fn encoding_is_cached() {
        let (mut p, mut sat, mut enc) = setup();
        let a = p.bool_var("a");
        let b = p.bool_var("b");
        let (ta, tb) = (p.var(a), p.var(b));
        let conj = p.and(&[ta, tb]);
        let l1 = enc.encode(&p, &mut sat, conj, None, &[]);
        let vars_before = sat.num_vars();
        let l2 = enc.encode(&p, &mut sat, conj, None, &[]);
        assert_eq!(l1, l2);
        assert_eq!(sat.num_vars(), vars_before);
    }
}
