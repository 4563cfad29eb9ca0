//! The linear-integer-arithmetic theory solver.
//!
//! Given a conjunction of theory literals — registered [`LinAtom`]s, each
//! with a polarity and tagged by its registry index — this module decides
//! satisfiability over the *integers*:
//!
//! 1. assert the bounds on a [`Simplex`] tableau — declared variable bounds
//!    get sentinel tags, each literal is a bound on a variable or on a
//!    (shared) slack row,
//! 2. check rational feasibility; an infeasible bound certificate maps back
//!    to a small **core** of atom indices,
//! 3. if rationally feasible, run **branch-and-bound** on integer variables
//!    with fractional values. Cores from the two branches are merged (branch
//!    bounds stripped), which is sound: any integer assignment satisfies one
//!    of the two branch bounds, so it would have to satisfy one full branch
//!    core.
//!
//! Because every problem variable carries finite declared bounds, the
//! branch-and-bound tree is finite; a node budget additionally caps runaway
//! searches and surfaces as [`TheoryVerdict::Unknown`].
//!
//! # Incrementality
//!
//! [`TheorySession`] keeps one simplex tableau alive across DPLL(T) checks:
//! declared variables are mirrored once (and incrementally as the pool
//! grows), each atom is compiled once into a bound on one variable (slack
//! rows interned by sign-normalised coefficient vector and reused
//! forever), and the bounds of the last conjunction stay standing on the
//! tableau: a check or consult asserts and retracts only what differs —
//! carrying the basis (and the witness point `β`) forward so a check that
//! differs from its predecessor by a few literals resolves in a handful
//! of pivots. [`check_conjunction`] remains as the stateless oracle: a
//! fresh single-check session, equivalent to the historical
//! rebuild-per-check behaviour and used by the equivalence proptests.

#![expect(
    clippy::cast_possible_truncation,
    reason = "ids and positions are u32 by design (half the memory of usize on the hot structures); a solver with 2^32 variables, terms or trail entries is far outside any workload"
)]

use std::collections::BTreeMap;

use crate::error::SolverError;
use crate::linear::LinAtom;
use crate::rational::Rational;
use crate::simplex::{BoundTag, Feasibility, SVar, Simplex};
use crate::term::{Sort, TermPool, VarId};

/// Sentinel base for declared-bound tags (always-true, filtered from cores).
const DECL_BASE: u32 = 1 << 30;
/// Sentinel for branch-and-bound bounds (stripped during core merging).
const BRANCH_TAG: u32 = u32::MAX;

/// The verdict of a theory check.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TheoryVerdict {
    /// Satisfiable; integer values for every declared integer variable.
    /// Kept in a `BTreeMap` so model iteration order is deterministic.
    Sat(BTreeMap<VarId, i64>),
    /// Unsatisfiable; registry indices of a conflicting subset of the
    /// checked literals' atoms (for [`check_conjunction`], positions in its
    /// slice). May be empty if the declared bounds alone are inconsistent.
    Unsat(Vec<usize>),
    /// The node budget was exhausted before a decision was reached.
    Unknown,
}

/// One literal derived by [`TheorySession::propagate`]: the candidate atom
/// `atom` must take `value`, because the asserted atom `antecedent` forces
/// it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TheoryPropagation {
    /// Registry index of the entailed atom.
    pub atom: u32,
    /// Entailed polarity: `true` for the atom itself, `false` for its
    /// negation.
    pub value: bool,
    /// Registry index of the asserted atom whose bound entails the
    /// candidate (bound subsumption has exactly one witness). `None` when
    /// declared variable bounds alone do.
    pub antecedent: Option<u32>,
}

/// Configuration for the theory check.
#[derive(Clone, Copy, Debug)]
pub struct TheoryConfig {
    /// Maximum number of branch-and-bound nodes to explore.
    pub max_nodes: u64,
    /// Whether to run theory propagation inside the SAT search (on by
    /// default): at the search root — unit propagation at a fixpoint,
    /// every frame selector placed, nothing decided — the warm tableau is
    /// consulted for atom literals already entailed by the asserted bounds,
    /// and those are enqueued on the trail instead of being discovered by
    /// a later final check.
    ///
    /// Off, the same search runs with a consult that derives nothing: the
    /// pure lazy-SMT loop. Verdicts and decode outputs are identical either
    /// way (propagated atoms are *entailed*, so asserting them during a
    /// check is a no-op) — off is kept as the oracle for the differential
    /// tests.
    ///
    /// ```
    /// use lejit_smt::TheoryConfig;
    ///
    /// assert!(TheoryConfig::default().propagate);
    /// let off = TheoryConfig { propagate: false, ..TheoryConfig::default() };
    /// assert!(!off.propagate);
    /// ```
    pub propagate: bool,
}

impl Default for TheoryConfig {
    fn default() -> Self {
        TheoryConfig {
            max_nodes: 50_000,
            propagate: true,
        }
    }
}

/// Per-session theory work counters: the per-check cost profile.
///
/// `pivots` is read live from the simplex (see [`TheorySession::pivots`]);
/// everything else is accumulated here. For a fresh session per check (the
/// historical behaviour, still available via [`check_conjunction`]),
/// `tableau_builds == checks`; a warm session pays the build once.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TheoryStats {
    /// Theory checks served by this session.
    pub checks: u64,
    /// Sync rounds that mirrored at least one newly declared variable into
    /// the tableau (a warm session builds once; a fresh-per-check backend
    /// rebuilds every time).
    pub tableau_builds: u64,
    /// Simplex variables created (declared mirrors + slack rows).
    pub tableau_vars: u64,
    /// Slack rows translated and added to the tableau (interning misses).
    pub slack_rows_built: u64,
    /// Atom translations answered by an already-interned slack row.
    pub slack_row_hits: u64,
    /// Branch-and-bound nodes explored.
    pub bnb_nodes: u64,
}

/// An atom `Σ c·x + k ≤ 0` compiled once into bounds on one simplex
/// variable: the atom itself is one bound, its integer negation
/// (`−Σ c·x − k + 1 ≤ 0`) the opposite bound on the *same* variable.
#[derive(Clone, Copy, Debug)]
enum Compiled {
    /// No variables: the atom is this constant truth value.
    Const(bool),
    /// The atom is `var ≤ pos` when `pos_upper` (else `var ≥ pos`); its
    /// negation is the opposite-direction bound `neg`.
    Bound {
        var: SVar,
        pos_upper: bool,
        pos: Rational,
        neg: Rational,
    },
}

/// A bound direction and value on one simplex variable.
type BoundLit = (SVar, bool, Rational);

impl Compiled {
    /// The bound asserting this atom with polarity `pol`, or its constant
    /// truth value.
    fn lit(self, pol: bool) -> Result<BoundLit, bool> {
        match self {
            Compiled::Const(truth) => Err(truth == pol),
            Compiled::Bound {
                var,
                pos_upper,
                pos,
                neg,
            } => Ok(if pol {
                (var, pos_upper, pos)
            } else {
                (var, !pos_upper, neg)
            }),
        }
    }
}

/// A cached entailment verdict: the polarity the standing bounds force on
/// an atom, and the asserted atom whose bound does (`None`: a declared
/// bound).
type Implied = Option<(bool, Option<u32>)>;

/// A persistent, warm-started theory backend over compiled atoms.
///
/// Owns one [`Simplex`] for the lifetime of the owning solver. Atoms are
/// registered once ([`Self::add_atom`]) and compiled to a bound on one
/// simplex variable — a declared variable for single-coefficient atoms,
/// else a slack row interned by sign-normalised coefficient vector, so an
/// atom and its negation (and `e ≤ a` / `e ≥ b` pairs) share one row.
/// [`Self::check`] and [`Self::propagate`] take `(atom index, polarity)`
/// literals and touch no [`LinAtom`].
///
/// The bounds of the last conjunction handed in stay *standing* on the
/// tableau; the next call asserts and retracts only the difference, and
/// the pivoted basis and feasible point `β` carry forward as the warm
/// start. Declared-variable bounds sit below every standing bound.
///
/// Verdicts are semantically equivalent to [`check_conjunction`] (Sat ↔ Sat
/// with a feasible model, Unsat ↔ Unsat with a valid core), but the *model
/// values* and *core composition* may differ: the warm basis starts each
/// check at a different vertex than a cold tableau would. The equivalence
/// proptests in `tests/theory_warm_start.rs` and `tests/theory_compiled.rs`
/// pin this contract down.
#[derive(Default)]
pub struct TheorySession {
    sx: Simplex,
    /// Pool variables mirrored so far (`pool.vars()` prefix length).
    synced_vars: usize,
    /// Mirrored integer variables with their simplex slots, ascending.
    int_vars: Vec<(VarId, SVar)>,
    /// Simplex slot per pool variable index (`None` for booleans).
    svar_of: Vec<Option<SVar>>,
    /// Interned slack rows per sign-normalised coefficient vector.
    slack_of: BTreeMap<Vec<(SVar, Rational)>, SVar>,
    /// Compiled form per registered atom, or why it has none.
    atoms: Vec<Result<Compiled, SolverError>>,
    /// How many of `atoms` have none.
    uncompilable: usize,
    /// The standing conjunction in assertion order: literal plus the
    /// simplex snapshot that retracts it and everything after it.
    standing: Vec<(u32, bool, usize)>,
    /// Per atom, which polarities stand (or, during a diff, are wanted):
    /// bit 0 the atom, bit 1 its negation.
    stood: Vec<u8>,
    wanted: Vec<u8>,
    /// Per atom, the entailment verdict under the bounds its variable had
    /// at the recorded `clock` reading; current unless the variable's
    /// bounds changed since (`changed_at`).
    implied: Vec<(u64, Implied)>,
    /// Per simplex variable, the `clock` reading of the last change to its
    /// standing bounds: an atom watches exactly one variable, so nothing
    /// else can alter its entailment.
    changed_at: Vec<u64>,
    /// Counts standing-bound changes.
    clock: u64,
    stats: TheoryStats,
}

/// Bit 0 for the atom itself, bit 1 for its negation.
fn polarity_bit(pol: bool) -> u8 {
    2 - u8::from(pol)
}

impl TheorySession {
    /// Creates an empty session (tableau is built lazily on first check).
    pub fn new() -> TheorySession {
        TheorySession::default()
    }

    /// The session's accumulated cost profile.
    pub fn stats(&self) -> TheoryStats {
        self.stats
    }

    /// Total simplex pivots performed across all checks.
    pub fn pivots(&self) -> u64 {
        self.sx.pivots
    }

    /// Current tableau size as `(variables, slack rows)`. Bounded by the
    /// declared variables plus the distinct sign-normalised linear forms
    /// ever registered — *not* by the number of checks (the steady-state
    /// regression tests assert exactly this).
    pub fn tableau_size(&self) -> (usize, usize) {
        (self.sx.num_vars(), self.sx.num_rows())
    }

    /// Number of atoms registered so far.
    pub fn num_atoms(&self) -> usize {
        self.atoms.len()
    }

    /// Whether one of `atoms` was registered without a compiled form, so
    /// that a check asserting it fails (see [`Self::add_atom`]).
    pub fn any_uncompilable(&self, atoms: &[u32]) -> bool {
        self.uncompilable > 0
            && atoms
                .iter()
                .any(|&i| matches!(self.atoms.get(i as usize), Some(Err(_))))
    }

    /// Registers the next atom — compiling it to its bound form and
    /// interning its slack row — and returns its index, the name by which
    /// [`Self::check`] and [`Self::propagate`] refer to it. The owning
    /// solver registers its encoder's atom registry in order, so indices
    /// coincide.
    ///
    /// An atom that cannot be translated (arithmetic overflow, in the
    /// encoder's normalization — passed in as `Err` — or here; a variable
    /// `pool` does not declare) is registered all the same, so indices keep
    /// coinciding, and its error is returned by every [`Self::check`] and
    /// [`Self::propagate`] asked to assert it — and by no other: once its
    /// assertion is retracted the session answers as if it had never been
    /// registered. `Err` from this call means the registry is full or
    /// `pool` could not be mirrored.
    pub fn add_atom(
        &mut self,
        pool: &TermPool,
        atom: Result<&LinAtom, SolverError>,
    ) -> Result<u32, SolverError> {
        self.sync_pool(pool)?;
        // Atom indices double as bound tags, below the declared-bound base.
        let idx = u32::try_from(self.atoms.len())
            .ok()
            .filter(|&i| i < DECL_BASE)
            .ok_or(SolverError::Overflow("theory atom registry"))?;
        let compiled = atom.and_then(|atom| self.compile(atom));
        self.uncompilable += usize::from(compiled.is_err());
        self.atoms.push(compiled);
        self.stood.push(0);
        self.wanted.push(0);
        // Reading 0 predates every variable's creation: never scanned.
        self.implied.push((0, None));
        Ok(idx)
    }

    /// `Σ c·x + k ≤ 0` as a bound on `s = σ·Σ c·x`, where `σ = ±1` makes
    /// the leading coefficient positive (one row for both signs) — or, for
    /// a single coefficient, on `x` itself with `σ = c`: the atom is
    /// `σ·s ≤ −k`, its negation `σ·s ≥ 1 − k`.
    fn compile(&mut self, atom: &LinAtom) -> Result<Compiled, SolverError> {
        let k = atom.expr.constant;
        if atom.expr.is_constant() {
            return Ok(Compiled::Const(k <= 0));
        }
        let neg_k = k
            .checked_neg()
            .ok_or(SolverError::Overflow("negating atom constant"))?;
        let one_minus_k = 1i64
            .checked_sub(k)
            .ok_or(SolverError::Overflow("negating atom"))?;
        let mut coeffs: Vec<(SVar, Rational)> = Vec::with_capacity(atom.expr.coeffs.len());
        for (&v, &c) in &atom.expr.coeffs {
            let sv = self
                .svar_of
                .get(v.0 as usize)
                .copied()
                .flatten()
                .ok_or(SolverError::Internal("atom references undeclared variable"))?;
            coeffs.push((sv, Rational::from_int(c)));
        }
        let (var, scale) = match coeffs.as_slice() {
            &[(sv, c)] => (sv, c),
            _ => {
                let flip = coeffs.first().is_some_and(|(_, c)| c.is_negative());
                if flip {
                    for (_, c) in &mut coeffs {
                        *c = -*c;
                    }
                }
                let scale = Rational::from_int(if flip { -1 } else { 1 });
                (self.slack_row(coeffs)?, scale)
            }
        };
        Ok(Compiled::Bound {
            var,
            pos_upper: scale.is_positive(),
            pos: Rational::from_int(neg_k) / scale,
            neg: Rational::from_int(one_minus_k) / scale,
        })
    }

    /// The slack variable of the row `s = Σ coeff·var`, interned.
    fn slack_row(&mut self, coeffs: Vec<(SVar, Rational)>) -> Result<SVar, SolverError> {
        if let Some(&sv) = self.slack_of.get(&coeffs) {
            self.stats.slack_row_hits += 1;
            return Ok(sv);
        }
        let sv = self.sx.add_row(&coeffs)?;
        self.slack_of.insert(coeffs, sv);
        self.stats.slack_rows_built += 1;
        self.note_var();
        Ok(sv)
    }

    /// Books a freshly created simplex variable.
    fn note_var(&mut self) {
        self.stats.tableau_vars += 1;
        self.clock += 1;
        self.changed_at.push(self.clock);
    }

    /// Mirrors integer variables declared since the last sync. Their
    /// declared bounds must sit below every standing bound (retracting a
    /// standing bound unwinds the trail above it), so the standing
    /// conjunction is retracted first.
    fn sync_pool(&mut self, pool: &TermPool) -> Result<(), SolverError> {
        let vars = pool.vars();
        if vars.len() == self.synced_vars {
            return Ok(());
        }
        self.retract_from(0);
        let mut added = false;
        for (idx, info) in vars.iter().enumerate().skip(self.synced_vars) {
            if info.sort != Sort::Int {
                self.svar_of.push(None);
                continue;
            }
            let sv = self.sx.add_var();
            self.svar_of.push(Some(sv));
            self.int_vars.push((VarId(idx as u32), sv));
            self.note_var();
            added = true;
            let tag = BoundTag(DECL_BASE + idx as u32);
            // Declared bounds can never conflict with each other (lo <= hi).
            if self
                .sx
                .assert_lower(sv, Rational::from_int(info.lo), tag)
                .is_err()
                || self
                    .sx
                    .assert_upper(sv, Rational::from_int(info.hi), tag)
                    .is_err()
            {
                return Err(SolverError::Internal("declared bounds are inconsistent"));
            }
        }
        self.synced_vars = vars.len();
        if added {
            self.stats.tableau_builds += 1;
        }
        Ok(())
    }

    /// Records that `var`'s standing bounds changed.
    fn touch(&mut self, var: SVar) {
        self.clock += 1;
        if let Some(at) = self.changed_at.get_mut(var) {
            *at = self.clock;
        }
    }

    /// Retracts the standing literals from stack position `keep` upward.
    fn retract_from(&mut self, keep: usize) {
        let Some(&(_, _, snap)) = self.standing.get(keep) else {
            return;
        };
        self.sx.undo_to(snap);
        while self.standing.len() > keep {
            let Some((atom, pol, _)) = self.standing.pop() else {
                break;
            };
            if let Some(s) = self.stood.get_mut(atom as usize) {
                *s &= !polarity_bit(pol);
            }
            if let Some(&Ok(Compiled::Bound { var, .. })) = self.atoms.get(atom as usize) {
                self.touch(var);
            }
        }
    }

    /// Makes `lits` the standing conjunction: retracts from the first
    /// standing literal `lits` no longer contains, then asserts, tagged by
    /// atom index, those not standing yet. The bounds standing afterwards
    /// are a function of `lits` as a set; assertion order only picks which
    /// of two equal bounds names the antecedent. Returns the core of an
    /// immediate bound clash, which leaves a subset of `lits` standing, and
    /// the error of an atom among `lits` that has no compiled form.
    fn stand(&mut self, lits: &[(u32, bool)]) -> Result<Option<Vec<usize>>, SolverError> {
        if lits
            .iter()
            .any(|&(atom, _)| atom as usize >= self.atoms.len())
        {
            return Err(SolverError::Internal("unregistered theory atom"));
        }
        for &(atom, pol) in lits {
            if let Some(w) = self.wanted.get_mut(atom as usize) {
                *w |= polarity_bit(pol);
            }
        }
        let wanted = &self.wanted;
        let keep = self
            .standing
            .iter()
            .position(|&(a, pol, _)| {
                wanted.get(a as usize).copied().unwrap_or(0) & polarity_bit(pol) == 0
            })
            .unwrap_or(self.standing.len());
        self.retract_from(keep);
        let mut clash = None;
        let mut uncompilable = None;
        for &(atom, pol) in lits {
            let i = atom as usize;
            if let Some(w) = self.wanted.get_mut(i) {
                *w = 0;
            }
            if clash.is_some()
                || uncompilable.is_some()
                || self.stood.get(i).copied().unwrap_or(0) & polarity_bit(pol) != 0
            {
                continue;
            }
            let compiled = match self.atoms.get(i) {
                Some(Ok(compiled)) => compiled,
                // Like a clash, this leaves a subset of `lits` standing.
                Some(&Err(e)) => {
                    uncompilable = Some(e);
                    continue;
                }
                None => continue,
            };
            let (var, upper, value) = match compiled.lit(pol) {
                Ok(bound) => bound,
                Err(true) => continue,
                Err(false) => {
                    clash = Some(vec![i]);
                    continue;
                }
            };
            let snap = self.sx.snapshot();
            let result = if upper {
                self.sx.assert_upper(var, value, BoundTag(atom))
            } else {
                self.sx.assert_lower(var, value, BoundTag(atom))
            };
            match result {
                Ok(()) => {
                    self.standing.push((atom, pol, snap));
                    if let Some(s) = self.stood.get_mut(i) {
                        *s |= polarity_bit(pol);
                    }
                    if self.sx.snapshot() != snap {
                        self.touch(var);
                    }
                }
                Err(core) => clash = Some(filter_core(core)),
            }
        }
        uncompilable.map_or(Ok(clash), Err)
    }

    /// Theory propagation: makes `asserted` the standing conjunction, then
    /// reports which of `candidates` — currently *unassigned* atoms — the
    /// standing bounds already entail, in input order (callers pass
    /// candidates in atom-registry order, so the result is deterministic).
    ///
    /// Each [`TheoryPropagation`] names the atom, the entailed polarity and
    /// the asserted atom whose bound forces it — the explanation
    /// `antecedent ⇒ atom=value`, which the SAT layer turns into a reason
    /// clause on demand.
    ///
    /// Entailment is pure bound subsumption — no pivoting, no row
    /// evaluation — and deliberately incomplete: a multi-coefficient atom is
    /// recognized only when its own slack row carries a subsuming bound;
    /// bounds implied *through* a row are left for the full check. Verdicts
    /// are cached per atom and recomputed only for candidates whose
    /// variable's bounds changed since they were last scanned, so a consult
    /// costs the asserted-set difference plus one stamp compare per
    /// candidate.
    ///
    /// If the asserted atoms clash among themselves no propagations are
    /// reported — the following full check finds the conflict and produces
    /// a proper core.
    pub fn propagate(
        &mut self,
        pool: &TermPool,
        asserted: &[(u32, bool)],
        candidates: &[u32],
        out: &mut Vec<TheoryPropagation>,
    ) -> Result<(), SolverError> {
        self.sync_pool(pool)?;
        if self.stand(asserted)?.is_some() {
            return Ok(());
        }
        for &atom in candidates {
            let (Some(&Ok(compiled)), Some(cached)) = (
                self.atoms.get(atom as usize),
                self.implied.get_mut(atom as usize),
            ) else {
                continue;
            };
            if let Compiled::Bound { var, .. } = compiled {
                if self.changed_at.get(var).is_some_and(|&at| at > cached.0) {
                    *cached = (self.clock, entailed(&self.sx, compiled));
                }
                // Full-rescan differential: a cached verdict is the one a
                // scan against the standing bounds would find.
                debug_assert_eq!(cached.1, entailed(&self.sx, compiled));
            }
            if let Some((value, antecedent)) = cached.1 {
                out.push(TheoryPropagation {
                    atom,
                    value,
                    antecedent,
                });
            }
        }
        Ok(())
    }

    /// Checks the conjunction of `lits` — `(atom index, polarity)` pairs —
    /// over the integers.
    ///
    /// `lits` becomes the standing conjunction (only its difference from
    /// the previous one is asserted), branch-and-bound runs above it and is
    /// unwound; the basis and `β` are *not* restored — they carry forward
    /// as the warm start. An `Unsat` core names registry indices.
    pub fn check(
        &mut self,
        pool: &TermPool,
        lits: &[(u32, bool)],
        config: TheoryConfig,
    ) -> Result<TheoryVerdict, SolverError> {
        self.sync_pool(pool)?;
        self.stats.checks += 1;
        if let Some(core) = self.stand(lits)? {
            return Ok(TheoryVerdict::Unsat(core));
        }
        let snap = self.sx.snapshot();
        let mut nodes = 0u64;
        let result = branch_and_bound(&mut self.sx, &self.int_vars, &mut nodes, config.max_nodes);
        self.sx.undo_to(snap);
        self.stats.bnb_nodes += nodes;
        match result? {
            BnB::Sat => {
                let mut model = BTreeMap::new();
                for &(v, sv) in &self.int_vars {
                    let val = self.sx.value_of(sv).to_i64();
                    model.insert(
                        v,
                        val.ok_or(SolverError::Internal("non-integral model value"))?,
                    );
                }
                Ok(TheoryVerdict::Sat(model))
            }
            BnB::Unsat(core) => Ok(TheoryVerdict::Unsat(filter_core(core))),
            BnB::Unknown => Ok(TheoryVerdict::Unknown),
        }
    }
}

/// Which polarity of `compiled` the bounds asserted on its variable force,
/// if either, and the asserting atom (`None` for a declared bound).
fn entailed(sx: &Simplex, compiled: Compiled) -> Implied {
    for value in [true, false] {
        let Ok((var, upper, bound)) = compiled.lit(value) else {
            continue;
        };
        let witness = if upper {
            sx.upper_bound(var).filter(|(up, _)| *up <= bound)
        } else {
            sx.lower_bound(var).filter(|(lo, _)| *lo >= bound)
        };
        if let Some((_, tag)) = witness {
            return Some((value, (tag.0 < DECL_BASE).then_some(tag.0)));
        }
    }
    None
}

/// Checks the conjunction of `atoms` over the integers, respecting the
/// declared bounds of every integer variable in `pool`.
///
/// Stateless: compiles the atoms into a fresh single-check
/// [`TheorySession`], so every call pays the full tableau build — this is
/// the *oracle* the equivalence proptests compare against. The production
/// path is the session owned by [`crate::Solver`].
///
/// `Err` means the atoms could not even be translated (arithmetic overflow,
/// a reference to an undeclared variable, or a broken simplex invariant) —
/// distinct from [`TheoryVerdict::Unknown`], which is a budget exhaustion.
pub fn check_conjunction(
    pool: &TermPool,
    atoms: &[LinAtom],
    config: TheoryConfig,
) -> Result<TheoryVerdict, SolverError> {
    let mut session = TheorySession::new();
    let mut lits = Vec::with_capacity(atoms.len());
    for atom in atoms {
        lits.push((session.add_atom(pool, Ok(atom))?, true));
    }
    session.check(pool, &lits, config)
}

enum BnB {
    Sat,
    Unsat(Vec<BoundTag>),
    Unknown,
}

fn branch_and_bound(
    sx: &mut Simplex,
    int_vars: &[(VarId, SVar)],
    nodes: &mut u64,
    max_nodes: u64,
) -> Result<BnB, SolverError> {
    *nodes += 1;
    if *nodes > max_nodes {
        return Ok(BnB::Unknown);
    }
    match sx.check()? {
        Feasibility::Infeasible(core) => return Ok(BnB::Unsat(core)),
        Feasibility::Feasible => {}
    }
    // Find the most fractional integer variable.
    let mut pick: Option<(SVar, Rational)> = None;
    let mut best_frac = Rational::ZERO;
    for &(_, sv) in int_vars {
        let val = sx.value_of(sv);
        if !val.is_integer() {
            let fl = Rational::new(val.floor(), 1);
            let frac = val - fl;
            // Distance from 1/2, smaller is more fractional.
            let half = Rational::new(1, 2);
            let dist = if frac > half {
                frac - half
            } else {
                half - frac
            };
            if pick.is_none() || dist < best_frac {
                best_frac = dist;
                pick = Some((sv, val));
            }
        }
    }
    let Some((sv, val)) = pick else {
        return Ok(BnB::Sat); // all integral
    };
    let floor = Rational::new(val.floor(), 1);
    let ceil = Rational::new(val.ceil(), 1);
    let btag = BoundTag(BRANCH_TAG);

    // Branch 1: x ≤ floor.
    let snap = sx.snapshot();
    let down = match sx.assert_upper(sv, floor, btag) {
        Ok(()) => branch_and_bound(sx, int_vars, nodes, max_nodes)?,
        Err(core) => BnB::Unsat(core),
    };
    sx.undo_to(snap);
    let down_core = match down {
        BnB::Sat => return Ok(BnB::Sat),
        BnB::Unknown => return Ok(BnB::Unknown),
        BnB::Unsat(c) => c,
    };

    // Branch 2: x ≥ ceil.
    let snap = sx.snapshot();
    let up = match sx.assert_lower(sv, ceil, btag) {
        Ok(()) => branch_and_bound(sx, int_vars, nodes, max_nodes)?,
        Err(core) => BnB::Unsat(core),
    };
    sx.undo_to(snap);
    let up_core = match up {
        BnB::Sat => return Ok(BnB::Sat),
        BnB::Unknown => return Ok(BnB::Unknown),
        BnB::Unsat(c) => c,
    };

    // Merge: strip branch tags; any integer point satisfies x ≤ floor or
    // x ≥ ceil, so it falsifies one of the two cores entirely.
    let mut merged: Vec<BoundTag> = down_core
        .into_iter()
        .chain(up_core)
        .filter(|t| t.0 != BRANCH_TAG)
        .collect();
    merged.sort_unstable();
    merged.dedup();
    Ok(BnB::Unsat(merged))
}

/// Keeps only real atom indices (drops declared-bound and branch sentinels).
fn filter_core(core: Vec<BoundTag>) -> Vec<usize> {
    let mut out: Vec<usize> = core
        .into_iter()
        .filter(|t| t.0 < DECL_BASE)
        .map(|t| t.0 as usize)
        .collect();
    out.sort_unstable();
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linear::LinExpr;

    fn atom(coeffs: &[(VarId, i64)], constant: i64) -> LinAtom {
        let mut e = LinExpr::constant(constant);
        for &(v, c) in coeffs {
            e.add_term(v, c).unwrap();
        }
        LinAtom { expr: e }
    }

    fn pool_with_vars(n: usize, lo: i64, hi: i64) -> (TermPool, Vec<VarId>) {
        let mut p = TermPool::new();
        let vs = (0..n)
            .map(|i| p.int_var(&format!("x{i}"), lo, hi))
            .collect();
        (p, vs)
    }

    #[test]
    fn empty_conjunction_is_sat() {
        let (p, vs) = pool_with_vars(2, 0, 10);
        match check_conjunction(&p, &[], TheoryConfig::default()).unwrap() {
            TheoryVerdict::Sat(m) => {
                for v in vs {
                    let val = m[&v];
                    assert!((0..=10).contains(&val));
                }
            }
            other => panic!("expected sat, got {other:?}"),
        }
    }

    #[test]
    fn simple_bounds_conflict() {
        let (p, vs) = pool_with_vars(1, 0, 10);
        // x >= 4  and  x <= 3:   (-x + 4 <= 0), (x - 3 <= 0).
        let a1 = atom(&[(vs[0], -1)], 4);
        let a2 = atom(&[(vs[0], 1)], -3);
        match check_conjunction(&p, &[a1, a2], TheoryConfig::default()).unwrap() {
            TheoryVerdict::Unsat(core) => assert_eq!(core, vec![0, 1]),
            other => panic!("expected unsat, got {other:?}"),
        }
    }

    #[test]
    fn declared_bounds_are_respected_and_filtered() {
        let (p, vs) = pool_with_vars(1, 0, 10);
        // x >= 11 conflicts with the declared upper bound only.
        let a = atom(&[(vs[0], -1)], 11);
        match check_conjunction(&p, &[a], TheoryConfig::default()).unwrap() {
            TheoryVerdict::Unsat(core) => assert_eq!(core, vec![0]),
            other => panic!("expected unsat, got {other:?}"),
        }
    }

    #[test]
    fn sum_equality_feasible() {
        let (p, vs) = pool_with_vars(5, 0, 60);
        // sum = 100 via <= and >=.
        let le = atom(&vs.iter().map(|&v| (v, 1)).collect::<Vec<_>>(), -100);
        let ge = atom(&vs.iter().map(|&v| (v, -1)).collect::<Vec<_>>(), 100);
        match check_conjunction(&p, &[le, ge], TheoryConfig::default()).unwrap() {
            TheoryVerdict::Sat(m) => {
                let total: i64 = vs.iter().map(|v| m[v]).sum();
                assert_eq!(total, 100);
                assert!(vs.iter().all(|v| (0..=60).contains(&m[v])));
            }
            other => panic!("expected sat, got {other:?}"),
        }
    }

    #[test]
    fn integrality_requires_branching() {
        let (p, vs) = pool_with_vars(1, 0, 10);
        // 2x >= 5 and 2x <= 5  → x = 5/2, no integer solution.
        let ge = atom(&[(vs[0], -2)], 5);
        let le = atom(&[(vs[0], 2)], -5);
        match check_conjunction(&p, &[ge, le], TheoryConfig::default()).unwrap() {
            TheoryVerdict::Unsat(core) => {
                assert!(!core.is_empty());
                assert!(core.iter().all(|&i| i < 2));
            }
            other => panic!("expected unsat, got {other:?}"),
        }
    }

    #[test]
    fn integrality_branching_finds_solutions() {
        let (p, vs) = pool_with_vars(2, 0, 10);
        // 2x + 2y = 10 has integer solutions even though the LP relaxation
        // may first land on fractional points; 3x + 3y = 10 does not.
        let a1 = atom(&[(vs[0], 2), (vs[1], 2)], -10);
        let a2 = atom(&[(vs[0], -2), (vs[1], -2)], 10);
        match check_conjunction(&p, &[a1, a2], TheoryConfig::default()).unwrap() {
            TheoryVerdict::Sat(m) => assert_eq!(m[&vs[0]] + m[&vs[1]], 5),
            other => panic!("expected sat, got {other:?}"),
        }
        let b1 = atom(&[(vs[0], 3), (vs[1], 3)], -10);
        let b2 = atom(&[(vs[0], -3), (vs[1], -3)], 10);
        assert!(matches!(
            check_conjunction(&p, &[b1, b2], TheoryConfig::default()).unwrap(),
            TheoryVerdict::Unsat(_)
        ));
    }

    #[test]
    fn trivially_false_constant_atom() {
        let (p, _vs) = pool_with_vars(1, 0, 10);
        // 0·x + 3 <= 0 is false.
        let a = atom(&[], 3);
        match check_conjunction(&p, &[a], TheoryConfig::default()).unwrap() {
            TheoryVerdict::Unsat(core) => assert_eq!(core, vec![0]),
            other => panic!("expected unsat, got {other:?}"),
        }
    }

    #[test]
    fn lookahead_range_shape() {
        // The Fig. 1b scenario: I0..I4 in [0,60], sum=100, I0..I2 fixed to
        // 20,15,25. Then I3 = 41 must be unsat, I3 = 40 sat.
        let (p, vs) = pool_with_vars(5, 0, 60);
        let mut atoms = vec![
            atom(&vs.iter().map(|&v| (v, 1)).collect::<Vec<_>>(), -100),
            atom(&vs.iter().map(|&v| (v, -1)).collect::<Vec<_>>(), 100),
        ];
        for (i, val) in [(0usize, 20i64), (1, 15), (2, 25)] {
            atoms.push(atom(&[(vs[i], 1)], -val));
            atoms.push(atom(&[(vs[i], -1)], val));
        }
        let mut with_41 = atoms.clone();
        with_41.push(atom(&[(vs[3], -1)], 41));
        assert!(matches!(
            check_conjunction(&p, &with_41, TheoryConfig::default()).unwrap(),
            TheoryVerdict::Unsat(_)
        ));
        let mut with_40 = atoms.clone();
        with_40.push(atom(&[(vs[3], -1)], 40));
        assert!(matches!(
            check_conjunction(&p, &with_40, TheoryConfig::default()).unwrap(),
            TheoryVerdict::Sat(_)
        ));
    }

    #[test]
    fn node_budget_surfaces_unknown() {
        let (p, vs) = pool_with_vars(3, 0, 1000);
        // A system needing at least one branch, with a budget of 1 node.
        let a1 = atom(&[(vs[0], 2), (vs[1], 2), (vs[2], 2)], -7);
        let a2 = atom(&[(vs[0], -2), (vs[1], -2), (vs[2], -2)], 7);
        let config = TheoryConfig {
            max_nodes: 1,
            ..TheoryConfig::default()
        };
        let verdict = check_conjunction(&p, &[a1, a2], config).unwrap();
        assert_eq!(verdict, TheoryVerdict::Unknown);
    }
}
