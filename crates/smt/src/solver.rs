//! The user-facing SMT solver: lazy DPLL(T) over the CDCL core and the LIA
//! theory, with selector-literal `push`/`pop` frames and min/max objective
//! queries.
//!
//! # Incrementality
//!
//! `push()` opens a frame guarded by a fresh *selector* SAT variable; every
//! assertion in the frame becomes the clause `¬sel ∨ formula-literal`.
//! `check()` solves under the assumption that all live selectors are true.
//! `pop()` physically **retracts** the frame: every clause mentioning the
//! selector — the frame's guarded assertions and any learnt clause whose
//! derivation resolved through them (such clauses necessarily carry the
//! `¬sel` tag, because selectors are only ever assumed at non-root decision
//! levels) — is deleted from the SAT core's database, with watch lists
//! repaired and the clause slots recycled. Clause-database size is therefore
//! bounded by the *live* assertions plus the learnt-clause cap, no matter
//! how many frames a long-running session opens and discards. Theory lemmas
//! are valid in LIA regardless of frames, but are guarded by the innermost
//! open frame's selector all the same and go with it (an unguarded one
//! would keep its atoms decidable for ever); learnt clauses derived purely
//! from permanent clauses persist across retractions.

use std::collections::BTreeMap;

use crate::cnf::Encoder;
use crate::error::SolverError;
use crate::sat::{FinalCheck, Lit, SatOutcome, SatSolver, SatStats, TheoryPropagator};
use crate::term::{Sort, Term, TermId, TermPool, VarId};
use crate::theory::{TheoryConfig, TheoryPropagation, TheorySession, TheoryVerdict};

/// The result of a satisfiability check.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SatResult {
    /// Satisfiable; a model is available via [`Solver::model`].
    Sat,
    /// Unsatisfiable.
    Unsat,
    /// Undecided within the configured budgets.
    Unknown,
}

/// A satisfying assignment.
///
/// Values live in `BTreeMap`s so iteration order (and therefore anything
/// derived from a model, e.g. decode masks) is deterministic.
#[derive(Clone, Debug, Default)]
pub struct Model {
    ints: BTreeMap<VarId, i64>,
    bools: BTreeMap<VarId, bool>,
}

impl Model {
    /// The integer value of a variable (declared integer variables always
    /// have a value in a model).
    pub fn int_value(&self, v: VarId) -> Option<i64> {
        self.ints.get(&v).copied()
    }

    /// The boolean value of a variable. Booleans that never appeared in any
    /// asserted formula default to `false`.
    pub fn bool_value(&self, v: VarId) -> bool {
        self.bools.get(&v).copied().unwrap_or(false)
    }

    /// Evaluates an integer term under this model.
    pub fn eval_int(&self, pool: &TermPool, t: TermId) -> i64 {
        match pool.get(t) {
            Term::IntConst(n) => *n,
            Term::Var(v) => self.int_value(*v).expect("int var missing from model"),
            Term::Add(kids) => kids.iter().map(|&k| self.eval_int(pool, k)).sum(),
            Term::MulConst(c, inner) => c * self.eval_int(pool, *inner),
            other => panic!("eval_int on non-integer term {other:?}"),
        }
    }

    /// Evaluates a boolean term under this model.
    pub fn eval_bool(&self, pool: &TermPool, t: TermId) -> bool {
        match pool.get(t) {
            Term::True => true,
            Term::False => false,
            Term::Not(x) => !self.eval_bool(pool, *x),
            Term::And(kids) => kids.iter().all(|&k| self.eval_bool(pool, k)),
            Term::Or(kids) => kids.iter().any(|&k| self.eval_bool(pool, k)),
            Term::Var(v) => self.bool_value(*v),
            Term::Le(a, b) => self.eval_int(pool, *a) <= self.eval_int(pool, *b),
            other => panic!("eval_bool on non-boolean term {other:?}"),
        }
    }
}

/// Aggregate statistics for a [`Solver`], including the per-check cost
/// profile of the incremental theory backend (tableau-build vs pivot vs
/// branch-and-bound vs Tseitin-encode-cache work).
///
/// Every counter is deterministic: two runs of the same workload must
/// produce identical values (asserted by `tests/determinism_stats.rs` and
/// the `(LEJIT_THREADS, LEJIT_BATCH)` matrix suite in `lejit-core`).
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct SolverStats {
    /// `check()` calls (including internal ones from minimize/maximize).
    pub checks: u64,
    /// DPLL(T) iterations: SAT models proposed to the theory.
    pub theory_checks: u64,
    /// Theory conflicts (blocking clauses learned).
    pub theory_conflicts: u64,
    /// Tableau (re)build rounds in the theory session. A warm session
    /// builds once per declared-variable set; the historical fresh-per-check
    /// backend would count one per theory check.
    pub tableau_builds: u64,
    /// Simplex variables created (declared mirrors + slack rows).
    pub tableau_vars: u64,
    /// Slack rows translated and added to the tableau (interning misses).
    pub slack_rows_built: u64,
    /// Atom translations served by an already-interned slack row.
    pub slack_row_hits: u64,
    /// Simplex pivots performed.
    pub pivots: u64,
    /// Branch-and-bound nodes explored.
    pub bnb_nodes: u64,
    /// Tseitin encode-cache hits (terms answered without emitting clauses).
    pub encode_cache_hits: u64,
    /// Tseitin encode-cache misses (terms freshly encoded).
    pub encode_cache_misses: u64,
    /// Atom literals enqueued on the SAT trail by theory propagation —
    /// bound consequences the warm tableau derived between unit propagation
    /// and the next decision, instead of a later full check refuting them.
    ///
    /// ```
    /// use lejit_smt::{SatResult, Solver};
    ///
    /// let mut s = Solver::new();
    /// let x = s.int_var("x", 0, 10);
    /// let tx = s.var(x);
    /// let c3 = s.int(3);
    /// let le3 = s.le(tx, c3);
    /// s.assert(le3);
    /// // x ≤ 3 entails x ≤ 5 and refutes x ≥ 7: with propagation on (the
    /// // default) both disjuncts are decided by the theory, not by search.
    /// let c5 = s.int(5);
    /// let le5 = s.le(tx, c5);
    /// let c7 = s.int(7);
    /// let ge7 = s.ge(tx, c7);
    /// let disj = s.or(&[le5, ge7]);
    /// s.assert(disj);
    /// assert_eq!(s.check().unwrap(), SatResult::Sat);
    /// assert!(s.stats().theory_propagations >= 1);
    /// ```
    pub theory_propagations: u64,
    /// Theory reason clauses materialized on demand during conflict
    /// analysis — the subset of `theory_propagations` whose literal was
    /// actually resolved on by 1-UIP (the rest never paid for a clause).
    pub theory_explanations: u64,
}

/// Result of [`Solver::bounds`]: the feasible hull of an integer variable
/// plus the feasible values witnessed while computing it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VarBounds {
    /// Minimum feasible value.
    pub lo: i64,
    /// Maximum feasible value.
    pub hi: i64,
    /// Distinct values of the variable seen in satisfying models during the
    /// search, sorted ascending. Every entry is proven feasible under the
    /// live assertions; `lo` and `hi` are always included.
    pub witnesses: Vec<i64>,
}

/// Result of [`Solver::interval_map`]: a partial classification of an
/// integer variable's feasible set, built from one round of range analysis.
///
/// Every value in `witnesses` is proven feasible (it appears in a model of
/// the live assertions); every value inside a `gaps` interval is proven
/// infeasible (an unsatisfiable range probe certified the whole interval at
/// once). Values in `[lo, hi]` covered by neither are undetermined.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IntervalMap {
    /// Minimum feasible value.
    pub lo: i64,
    /// Maximum feasible value.
    pub hi: i64,
    /// Proven-feasible values, sorted ascending (always includes `lo`, `hi`).
    pub witnesses: Vec<i64>,
    /// Disjoint closed intervals inside `[lo, hi]` proven infeasible, sorted.
    pub gaps: Vec<(i64, i64)>,
}

/// Maximum theory final checks per `check()` before `Unknown`.
const MAX_REFINEMENTS: u64 = 100_000;

/// The [`TheoryPropagator`] a [`Solver`] hands to the SAT core during
/// `check()`: an adapter from trail state to [`TheorySession`] calls. A
/// consult ([`TheorySession::propagate`]; skipped when
/// [`TheoryConfig::propagate`] is off) records each propagated literal's
/// antecedent so `explain` can build the reason clause on demand; the
/// final check ([`TheorySession::check`]) keeps the integer model of the
/// assignment it accepted, or turns the core of the one it refuted into a
/// lemma.
///
/// Built per `SatSolver::solve_with` call over buffers the solver keeps. An
/// antecedent record is overwritten by its variable's next propagation and
/// is read only for a literal that propagation put on the trail: a
/// literal's reason is consulted while it sits above the root level, and
/// every such literal is unassigned again when the next solve starts
/// (`cancel_until(0)`); theory-propagated literals *at* the root level
/// keep their lazy marker across solves but are never resolved on (1-UIP
/// skips root literals), so their explanations are never requested.
struct SessionPropagator<'a> {
    pool: &'a TermPool,
    enc: &'a Encoder,
    theory: &'a mut TheorySession,
    live_atoms: &'a [u32],
    /// Innermost frame selector at solve time. Explanation clauses and
    /// final-check lemmas are guarded with its negation so `retract`
    /// deletes them with the frame. Both are theory-valid, so scoping them
    /// only loses cross-frame reuse — but an *unguarded* one would pin its
    /// atom variables live forever: in a long-lived pooled session, retired
    /// groundings' atoms would stay decidable, get re-asserted into every
    /// future theory check, and per-check cost would grow with session
    /// history instead of staying proportional to the live assertion set.
    guard: Option<Lit>,
    config: TheoryConfig,
    scratch: &'a mut PropScratch,
    stats: &'a mut SolverStats,
    /// Final checks left before the hook answers `Unknown`.
    refinements_left: u64,
    /// Integer values of the assignment the final check accepted.
    ints: Option<BTreeMap<VarId, i64>>,
}

/// Buffers the propagator reuses across consults (owned by the solver, so
/// a consult allocates nothing once they have grown).
#[derive(Default)]
struct PropScratch {
    /// The asserted-atom conjunction of a consult or a final check.
    asserted: Vec<(u32, bool)>,
    candidates: Vec<u32>,
    props: Vec<TheoryPropagation>,
    /// Antecedent literal of the latest propagation of each SAT variable
    /// (`None`: declared bounds alone), indexed by variable.
    antecedent: Vec<Option<Lit>>,
}

impl TheoryPropagator for SessionPropagator<'_> {
    fn propagate(&mut self, sat: &SatSolver, out: &mut Vec<Lit>) -> Result<(), SolverError> {
        // Off is the pure lazy loop: the oracle of the differential tests.
        if !self.config.propagate {
            return Ok(());
        }
        // Partition the live atom registry (in registry order, which makes
        // the propagation order deterministic) into asserted atoms and
        // unassigned candidates.
        let sc = &mut *self.scratch;
        sc.asserted.clear();
        sc.candidates.clear();
        sc.props.clear();
        let atoms = self.enc.atoms();
        let var_of = |i: u32| {
            let atom = atoms.get(i as usize);
            atom.map(|a| a.1)
                .ok_or(SolverError::Internal("theory atom outside the registry"))
        };
        for &i in self.live_atoms {
            let sv = var_of(i)?;
            // A literal this propagator itself placed earlier carries no
            // new information — it is entailed by the real assertions —
            // so it joins neither side of the partition: re-asserting it
            // would be a no-op bound assert, and as an antecedent it would
            // weaken explanations (the real assertions beneath it are the
            // better reason).
            if sat.reason_is_theory(sv) {
                continue;
            }
            match sat.assigned_value(sv) {
                Some(val) => sc.asserted.push((i, val)),
                // Only branchable variables are worth propagating: a var
                // with no live clause occurrence (e.g. an interval-probe
                // atom used purely as a `check_assuming` assumption) is
                // never decided and watches nothing, so enqueueing it costs
                // trail traffic without pruning any search.
                None if sat.is_branchable(sv) => sc.candidates.push(i),
                None => {}
            }
        }
        self.theory
            .propagate(self.pool, &sc.asserted, &sc.candidates, &mut sc.props)?;
        if sc.antecedent.len() < sat.num_vars() {
            sc.antecedent.resize(sat.num_vars(), None);
        }
        for p in &sc.props {
            let sv = var_of(p.atom)?;
            let antecedent = match p.antecedent {
                Some(a) => {
                    let av = var_of(a)?;
                    let val = sat
                        .assigned_value(av)
                        .ok_or(SolverError::Internal("propagation antecedent unassigned"))?;
                    Some(Lit::new(av, val))
                }
                None => None,
            };
            if let Some(slot) = sc.antecedent.get_mut(sv.index()) {
                *slot = antecedent;
            }
            out.push(Lit::new(sv, p.value));
        }
        Ok(())
    }

    fn explain(&mut self, lit: Lit) -> Result<Vec<Lit>, SolverError> {
        let ant = self
            .scratch
            .antecedent
            .get(lit.var().index())
            .ok_or(SolverError::Internal("explanation for unknown propagation"))?;
        let mut clause = Vec::with_capacity(3);
        clause.push(lit);
        if let Some(g) = self.guard {
            clause.push(!g);
        }
        clause.extend(ant.map(|a| !a));
        Ok(clause)
    }

    fn final_check(&mut self, sat: &SatSolver) -> Result<FinalCheck, SolverError> {
        if self.refinements_left == 0 {
            return Ok(FinalCheck::Unknown);
        }
        self.refinements_left -= 1;
        self.stats.theory_checks += 1;

        // Collect the theory atoms the SAT core actually assigned, walking
        // the atoms some *live* assertion references rather than the
        // registry: a retired atom is unassigned (see `atom_live`), and the
        // registry grows with session history where the live list does not.
        let atoms = self.enc.atoms();
        let conj = &mut self.scratch.asserted;
        conj.clear();
        for &i in self.live_atoms {
            let Some(&(_, sv)) = atoms.get(i as usize) else {
                continue;
            };
            // Theory-propagated literals are *excluded*: each was derived
            // by bound subsumption from ordinary assertions that are still
            // on the trail beneath it (a backjump that unassigns an
            // antecedent unassigns what was enqueued after it), so the
            // reduced conjunction entails it — feasibility, the witness
            // model, and any Unsat core are unchanged, while the check
            // stays exactly as large as with propagation off.
            if sat.reason_is_theory(sv) {
                continue;
            }
            if let Some(val) = sat.assigned_value(sv) {
                conj.push((i, val));
            }
        }

        match self.theory.check(self.pool, conj, self.config)? {
            TheoryVerdict::Sat(ints) => {
                self.ints = Some(ints);
                Ok(FinalCheck::Consistent)
            }
            TheoryVerdict::Unsat(core) => {
                self.stats.theory_conflicts += 1;
                // The blocking lemma: the guard, then the negated core. An
                // empty core (the declared bounds alone inconsistent, which
                // `lo <= hi` rules out) leaves a lemma no frame can satisfy.
                let mut lemma: Vec<Lit> = Vec::with_capacity(core.len() + 1);
                lemma.extend(self.guard.map(|sel| !sel));
                for &i in &core {
                    let &(_, sv) = atoms
                        .get(i)
                        .ok_or(SolverError::Internal("theory core index out of range"))?;
                    let val = sat
                        .assigned_value(sv)
                        .ok_or(SolverError::Internal("theory core atom unassigned"))?;
                    lemma.push(Lit::new(sv, !val));
                }
                Ok(FinalCheck::Conflict(lemma))
            }
            TheoryVerdict::Unknown => Ok(FinalCheck::Unknown),
        }
    }
}

/// The SMT solver. See the [crate docs](crate) for an end-to-end example.
pub struct Solver {
    pool: TermPool,
    sat: SatSolver,
    enc: Encoder,
    theory: TheorySession,
    frames: Vec<Lit>,
    /// Generation id per open frame, parallel to `frames`. Ids are
    /// allocated monotonically and never reused — unlike selector
    /// *variables*, which the SAT core recycles — so the encoder can use
    /// them to decide whether a cached term's definitional clauses (scoped
    /// to the frame that emitted them) are still attached.
    frame_ids: Vec<u64>,
    /// Next frame generation id.
    next_frame_id: u64,
    /// Per-frame atom cones: for each open frame, the registry indices of
    /// the atoms its assertions reference (with multiplicity), popped in
    /// lockstep with `frames` by [`Self::retract`].
    frame_atoms: Vec<Vec<u32>>,
    /// Live-assertion refcount per atom-registry index. An atom with count
    /// zero belongs only to retired (or never-asserted) encodings. Nothing
    /// can leave such an atom assigned: every clause that mentioned it —
    /// its frame's guarded assertions and definitions, the lemmas and
    /// explanations guarded by that frame or one inside it, the learnts
    /// resolved through them — went with the frame's retract, so the SAT
    /// core neither decides nor propagates it; and a consult enqueues live
    /// atoms only, above the assumption levels, which that retract's
    /// `cancel_until(0)` undoes (it enqueues at the root only in a check
    /// with no frame open, whose live atoms are root-asserted and never
    /// retire). The count is therefore not a soundness filter; it maintains
    /// `live_atoms`, which is what keeps per-check cost proportional to what
    /// is asserted now rather than to everything the session ever saw.
    atom_live: Vec<u32>,
    /// The registry indices with a non-zero `atom_live` count, ascending:
    /// what a consult and a theory check walk instead of the registry, so
    /// neither grows with the atoms a long session has retired.
    live_atoms: Vec<u32>,
    model: Option<Model>,
    stats: SolverStats,
    theory_config: TheoryConfig,
    prop_scratch: PropScratch,
}

impl Default for Solver {
    fn default() -> Self {
        Self::new()
    }
}

impl Solver {
    /// Creates an empty solver.
    pub fn new() -> Solver {
        Solver {
            pool: TermPool::new(),
            sat: SatSolver::new(),
            enc: Encoder::new(),
            theory: TheorySession::new(),
            frames: Vec::new(),
            frame_ids: Vec::new(),
            next_frame_id: 0,
            frame_atoms: Vec::new(),
            atom_live: Vec::new(),
            live_atoms: Vec::new(),
            model: None,
            stats: SolverStats::default(),
            theory_config: TheoryConfig::default(),
            prop_scratch: PropScratch::default(),
        }
    }

    /// Read access to the term pool.
    pub fn pool(&self) -> &TermPool {
        &self.pool
    }

    /// Mutable access to the term pool (for building formulas externally).
    pub fn pool_mut(&mut self) -> &mut TermPool {
        &mut self.pool
    }

    /// Solver statistics, including the per-check theory cost profile
    /// (tableau-build / pivot / branch-and-bound / encode-cache counters
    /// read live from the theory session and the Tseitin encoder).
    pub fn stats(&self) -> SolverStats {
        let mut s = self.stats;
        let t = self.theory.stats();
        s.tableau_builds = t.tableau_builds;
        s.tableau_vars = t.tableau_vars;
        s.slack_rows_built = t.slack_rows_built;
        s.slack_row_hits = t.slack_row_hits;
        s.bnb_nodes = t.bnb_nodes;
        s.pivots = self.theory.pivots();
        let (hits, misses) = self.enc.cache_stats();
        s.encode_cache_hits = hits;
        s.encode_cache_misses = misses;
        let sat = self.sat.stats();
        s.theory_propagations = sat.theory_propagations;
        s.theory_explanations = sat.theory_explanations;
        s
    }

    /// The theory configuration used by every check.
    pub fn theory_config(&self) -> TheoryConfig {
        self.theory_config
    }

    /// Replaces the theory configuration (e.g. a tiny branch-and-bound node
    /// budget to force [`SatResult::Unknown`] in tests).
    pub fn set_theory_config(&mut self, config: TheoryConfig) {
        self.theory_config = config;
    }

    /// Size of the warm theory tableau as `(variables, slack rows)`.
    /// Bounded by the declared variables plus the distinct atom linear
    /// forms ever checked — not by the number of checks (the steady-state
    /// regression tests assert this).
    pub fn theory_tableau_size(&self) -> (usize, usize) {
        self.theory.tableau_size()
    }

    /// Statistics of the underlying CDCL SAT core. Conflict, decision, and
    /// propagation counts are extremely sensitive to clause and literal
    /// ordering, which makes them a sharp probe for run-to-run determinism
    /// (see `tests/determinism_stats.rs`).
    pub fn sat_stats(&self) -> SatStats {
        self.sat.stats()
    }

    // --- term-building conveniences (delegate to the pool) ---------------

    /// Declares a bounded integer variable.
    pub fn int_var(&mut self, name: &str, lo: i64, hi: i64) -> VarId {
        self.pool.int_var(name, lo, hi)
    }

    /// Declares a boolean variable.
    pub fn bool_var(&mut self, name: &str) -> VarId {
        self.pool.bool_var(name)
    }

    /// A variable reference term.
    pub fn var(&mut self, v: VarId) -> TermId {
        self.pool.var(v)
    }

    /// An integer constant term.
    pub fn int(&mut self, n: i64) -> TermId {
        self.pool.int(n)
    }

    /// N-ary sum.
    pub fn add(&mut self, ts: &[TermId]) -> TermId {
        self.pool.add(ts)
    }

    /// Subtraction.
    pub fn sub(&mut self, a: TermId, b: TermId) -> TermId {
        self.pool.sub(a, b)
    }

    /// Multiplication by a constant.
    pub fn mul_const(&mut self, c: i64, t: TermId) -> TermId {
        self.pool.mul_const(c, t)
    }

    /// `a ≤ b`.
    pub fn le(&mut self, a: TermId, b: TermId) -> TermId {
        self.pool.le(a, b)
    }

    /// `a < b`.
    pub fn lt(&mut self, a: TermId, b: TermId) -> TermId {
        self.pool.lt(a, b)
    }

    /// `a ≥ b`.
    pub fn ge(&mut self, a: TermId, b: TermId) -> TermId {
        self.pool.ge(a, b)
    }

    /// `a > b`.
    pub fn gt(&mut self, a: TermId, b: TermId) -> TermId {
        self.pool.gt(a, b)
    }

    /// `a = b`.
    pub fn eq(&mut self, a: TermId, b: TermId) -> TermId {
        self.pool.eq(a, b)
    }

    /// `a ≠ b`.
    pub fn ne(&mut self, a: TermId, b: TermId) -> TermId {
        self.pool.ne(a, b)
    }

    /// N-ary conjunction.
    pub fn and(&mut self, ts: &[TermId]) -> TermId {
        self.pool.and(ts)
    }

    /// N-ary disjunction.
    pub fn or(&mut self, ts: &[TermId]) -> TermId {
        self.pool.or(ts)
    }

    /// Negation.
    pub fn not(&mut self, t: TermId) -> TermId {
        self.pool.not(t)
    }

    /// Implication.
    pub fn implies(&mut self, a: TermId, b: TermId) -> TermId {
        self.pool.implies(a, b)
    }

    // --- assertions and frames --------------------------------------------

    /// Asserts a boolean term in the current frame.
    pub fn assert(&mut self, t: TermId) {
        debug_assert_eq!(self.pool.sort_of(t), Sort::Bool);
        self.model = None;
        let guard = match (self.frames.last(), self.frame_ids.last()) {
            (Some(&sel), Some(&id)) => Some((sel, id)),
            _ => None,
        };
        let lit = self
            .enc
            .encode(&self.pool, &mut self.sat, t, guard, &self.frame_ids);
        // Refcount the assertion's atom cone: root asserts bump permanently,
        // frame asserts are recorded for the matching decrement on retract.
        if self.atom_live.len() < self.enc.atoms().len() {
            self.atom_live.resize(self.enc.atoms().len(), 0);
        }
        let cone = self.enc.cone(&self.pool, t);
        for &i in cone {
            // In range: `atom_live` was just grown to the registry's length.
            let Some(count) = self.atom_live.get_mut(i as usize) else {
                continue;
            };
            *count += 1;
            if *count == 1 {
                let at = self.live_atoms.partition_point(|&j| j < i);
                self.live_atoms.insert(at, i);
            }
        }
        if !self.frames.is_empty() {
            let cone = cone.to_vec();
            if let Some(top) = self.frame_atoms.last_mut() {
                top.extend(cone);
            }
        }
        match self.frames.last() {
            Some(&sel) => {
                self.sat.add_clause(&[!sel, lit]);
            }
            None => {
                self.sat.add_clause(&[lit]);
            }
        }
    }

    /// Opens a new assertion frame.
    pub fn push(&mut self) {
        let v = self.sat.new_selector();
        self.frames.push(Lit::new(v, true));
        self.frame_ids.push(self.next_frame_id);
        self.next_frame_id += 1;
        self.frame_atoms.push(Vec::new());
    }

    /// Discards the most recent frame and all its assertions. A `pop` with
    /// no open frame is a no-op (there is nothing to discard).
    pub fn pop(&mut self) {
        self.retract();
    }

    /// Physically retracts the most recent frame: the frame's guarded
    /// clauses and every learnt clause derived through them are deleted
    /// from the SAT core (see [`SatSolver::retract`]), so the clause
    /// database does not grow with the number of discarded frames.
    /// [`Self::pop`] is an alias. A retract with no open frame is a no-op.
    pub fn retract(&mut self) {
        if let Some(sel) = self.frames.pop() {
            self.frame_ids.pop();
            self.sat.retract(sel.var());
            if let Some(cone) = self.frame_atoms.pop() {
                for i in cone {
                    if let Some(c) = self.atom_live.get_mut(i as usize) {
                        *c = c.saturating_sub(1);
                    }
                }
                let atom_live = &self.atom_live;
                self.live_atoms
                    .retain(|&j| atom_live.get(j as usize).is_some_and(|&c| c > 0));
            }
            self.model = None;
        }
    }

    /// Number of open frames.
    pub fn num_frames(&self) -> usize {
        self.frames.len()
    }

    /// Number of live clauses in the underlying SAT database (problem and
    /// learnt). After [`Self::retract`] this returns to its pre-`push`
    /// value, modulo learnt clauses derived purely from permanent clauses —
    /// the invariant the session-layer regression tests pin down.
    pub fn num_live_clauses(&self) -> usize {
        self.sat.num_live_clauses()
    }

    // --- solving ------------------------------------------------------------

    /// Checks satisfiability of all live assertions: one CDCL search
    /// ([`SatSolver::solve_with`]) under the assumption that every open
    /// frame's selector holds, with the theory inside it — consulted at the
    /// search root, asked for a final check at each complete assignment,
    /// its refutations analysed in place (see [`TheoryPropagator`]). With
    /// [`TheoryConfig::propagate`] off the consult derives nothing and the
    /// same search is the pure lazy loop, the oracle of the differential
    /// tests.
    ///
    /// `Err` means the query itself is broken (malformed clause database,
    /// arithmetic overflow, or an internal invariant violation) — it is not
    /// a third truth value and callers must not treat it as `Unsat`.
    pub fn check(&mut self) -> Result<SatResult, SolverError> {
        self.stats.checks += 1;
        self.model = None;
        // Compile atoms registered since the last check into the theory.
        for (atom, _) in self.enc.atoms().iter().skip(self.theory.num_atoms()) {
            self.theory.add_atom(&self.pool, atom)?;
        }
        let mut prop = SessionPropagator {
            pool: &self.pool,
            enc: &self.enc,
            theory: &mut self.theory,
            live_atoms: &self.live_atoms,
            guard: self.frames.last().copied(),
            config: self.theory_config,
            scratch: &mut self.prop_scratch,
            stats: &mut self.stats,
            refinements_left: MAX_REFINEMENTS,
            ints: None,
        };
        let outcome = self.sat.solve_with(&self.frames, Some(&mut prop))?;
        let ints = prop.ints;
        match outcome {
            SatOutcome::Unsat => Ok(SatResult::Unsat),
            SatOutcome::Unknown => Ok(SatResult::Unknown),
            SatOutcome::Sat => {
                let ints = ints.ok_or(SolverError::Internal("Sat without a final check"))?;
                let mut bools = BTreeMap::new();
                for (idx, info) in self.pool.vars().iter().enumerate() {
                    if info.sort == Sort::Bool {
                        let v = VarId(idx as u32);
                        if let Some(sv) = self.enc.bool_var(v) {
                            bools.insert(v, self.sat.model_value(sv));
                        }
                    }
                }
                self.model = Some(Model { ints, bools });
                Ok(SatResult::Sat)
            }
        }
    }

    /// Checks satisfiability of the live assertions *plus* the given
    /// temporary assumptions, which are discarded afterwards. Equivalent to
    /// `push(); assert(each); check(); pop()` — the model (on `Sat`) remains
    /// readable until the next solver call.
    pub fn check_assuming(&mut self, assumptions: &[TermId]) -> Result<SatResult, SolverError> {
        self.push();
        for &t in assumptions {
            self.assert(t);
        }
        let result = self.check();
        // `pop` would clear the model; keep it for the caller. The frame is
        // popped even when `check` failed, so the solver stays balanced.
        let model = self.model.take();
        self.pop();
        self.model = model;
        result
    }

    /// A **minimal** subset of `assumptions` that is jointly unsatisfiable
    /// with the live assertions (an *unsat core*), or `None` when the
    /// assumptions are satisfiable (or undecided within budgets).
    ///
    /// Deletion-based: one [`Self::check_assuming`] per assumption after the
    /// initial check, so the result is minimal — every element is necessary.
    /// Useful for explaining *why* a decode step was pruned.
    pub fn unsat_core(
        &mut self,
        assumptions: &[TermId],
    ) -> Result<Option<Vec<TermId>>, SolverError> {
        if self.check_assuming(assumptions)? != SatResult::Unsat {
            return Ok(None);
        }
        let mut core: Vec<TermId> = assumptions.to_vec();
        let mut i = 0;
        while i < core.len() {
            let mut candidate = core.clone();
            candidate.remove(i);
            if self.check_assuming(&candidate)? == SatResult::Unsat {
                core = candidate; // the i-th assumption was redundant
            } else {
                i += 1; // necessary (or undecided): keep it
            }
        }
        Ok(Some(core))
    }

    /// The model from the most recent successful [`Self::check`].
    pub fn model(&self) -> Option<&Model> {
        self.model.as_ref()
    }

    // --- optimization ---------------------------------------------------

    /// The minimum feasible value of integer variable `v`, or `None` if the
    /// formula is unsatisfiable or undecided.
    ///
    /// Implemented as binary search on satisfiability (each probe is a
    /// `push`/`assert`/`check`/`pop`), exactly the loop LeJIT uses to compute
    /// feasible ranges during decoding: one direction of [`Self::bounds`].
    pub fn minimize(&mut self, v: VarId) -> Result<Option<i64>, SolverError> {
        let Some((lo, _, witness)) = self.search_start(v)? else {
            return Ok(None);
        };
        self.bound_search(v, lo, witness, true, &mut Vec::new())
    }

    /// The maximum feasible value of integer variable `v` (see [`Self::minimize`]).
    pub fn maximize(&mut self, v: VarId) -> Result<Option<i64>, SolverError> {
        let Some((_, hi, witness)) = self.search_start(v)? else {
            return Ok(None);
        };
        self.bound_search(v, witness, hi, false, &mut Vec::new())
    }

    /// The feasible range of integer variable `v` plus every feasible value
    /// witnessed along the way, or `None` if the formula is unsatisfiable or
    /// undecided.
    ///
    /// Cheaper than [`Self::minimize`] followed by [`Self::maximize`]: the
    /// initial satisfiability check is shared between the two binary
    /// searches, and every satisfying model seen during the search
    /// contributes its value of `v` to [`VarBounds::witnesses`]. Each
    /// witness is the value of `v` in a model of the live assertions, so
    /// callers can treat witnesses as *proven-feasible* values without any
    /// further solver query.
    pub fn bounds(&mut self, v: VarId) -> Result<Option<VarBounds>, SolverError> {
        let Some((declared_lo, declared_hi, witness)) = self.search_start(v)? else {
            return Ok(None);
        };
        let mut witnesses = vec![witness];
        let Some(lo) = self.bound_search(v, declared_lo, witness, true, &mut witnesses)? else {
            return Ok(None);
        };
        let Some(hi) = self.bound_search(v, witness, declared_hi, false, &mut witnesses)? else {
            return Ok(None);
        };
        witnesses.sort_unstable();
        witnesses.dedup();
        Ok(Some(VarBounds { lo, hi, witnesses }))
    }

    /// The opening every range search shares: one check of the live
    /// assertions, yielding `v`'s declared bounds and its value in the
    /// model found — or `None` when the check is not `Sat`;
    /// [`SolverError::InvalidQuery`] when `v` is not an integer variable.
    fn search_start(&mut self, v: VarId) -> Result<Option<(i64, i64, i64)>, SolverError> {
        let info = self.pool.var_info(v);
        if info.sort != Sort::Int {
            return Err(SolverError::InvalidQuery(
                "range search on a non-integer variable",
            ));
        }
        let (lo, hi) = (info.lo, info.hi);
        if self.check()? != SatResult::Sat {
            return Ok(None);
        }
        Ok(Some((lo, hi, self.model_int(v)?)))
    }

    /// The value of `v` in the current model; `Err` if there is no model
    /// (callers only use this right after a `Sat` answer).
    fn model_int(&self, v: VarId) -> Result<i64, SolverError> {
        self.model
            .as_ref()
            .and_then(|m| m.int_value(v))
            .ok_or(SolverError::Internal("model missing after Sat answer"))
    }

    /// One direction of the range search behind [`Self::bounds`],
    /// [`Self::minimize`] and [`Self::maximize`]. On entry the
    /// `witness`-side endpoint is known feasible; satisfying probes tighten
    /// using the model value of `v` (which can overshoot `mid`), not just
    /// `mid` itself.
    fn bound_search(
        &mut self,
        v: VarId,
        mut lo: i64,
        mut hi: i64,
        minimize: bool,
        witnesses: &mut Vec<i64>,
    ) -> Result<Option<i64>, SolverError> {
        while lo < hi {
            // Biased toward lo. `lo + span/2` cannot pass `hi`, but the span
            // itself overflows when the hull straddles most of the i64 range.
            let span = hi
                .checked_sub(lo)
                .ok_or(SolverError::Overflow("bound_search span"))?;
            let mid = lo
                .checked_add(span / 2)
                .ok_or(SolverError::Overflow("bound_search midpoint"))?;
            let vt = self.var(v);
            let c = self.int(mid);
            let probe = if minimize {
                self.le(vt, c)
            } else {
                let c1 = self.int(mid + 1);
                self.ge(vt, c1)
            };
            match self.check_assuming(&[probe])? {
                SatResult::Sat => {
                    let w = self.model_int(v)?;
                    witnesses.push(w);
                    if minimize {
                        hi = w.min(mid);
                    } else {
                        lo = w.max(mid + 1);
                    }
                }
                SatResult::Unsat if minimize => lo = mid + 1,
                SatResult::Unsat => hi = mid,
                SatResult::Unknown => return Ok(None),
            }
        }
        Ok(Some(lo))
    }

    /// One round of interval analysis of `v`: the feasible hull plus a
    /// classification of the values inside it, built on [`Self::bounds`].
    ///
    /// Each `stride`-aligned bucket intersecting the hull that holds no
    /// witness of the bound search is probed once: a satisfiable bucket
    /// contributes a witness, an unsatisfiable one becomes a certified gap
    /// (every value in it is proven infeasible by a single UNSAT answer).
    /// Buckets the solver cannot decide are left unclassified, which is
    /// sound: callers treat unclassified values as "unknown" and classify
    /// the ones they are asked about ([`Self::feasible_values_in`]).
    ///
    /// Returns `None` when the live assertions are unsatisfiable or the
    /// initial bound search is undecided, and
    /// [`SolverError::InvalidQuery`] for a `stride` that is not positive or
    /// a `v` that is not an integer variable.
    pub fn interval_map(
        &mut self,
        v: VarId,
        stride: i64,
    ) -> Result<Option<IntervalMap>, SolverError> {
        if stride <= 0 {
            return Err(SolverError::InvalidQuery(
                "interval_map stride must be positive",
            ));
        }
        let Some(VarBounds {
            lo,
            hi,
            mut witnesses,
        }) = self.bounds(v)?
        else {
            return Ok(None);
        };
        let mut gaps = Vec::new();
        let mut harvested = Vec::new();
        // Witnesses and buckets both ascend: one cursor walks them together.
        let mut known = witnesses.iter().copied().peekable();
        let mut bucket = lo - lo.rem_euclid(stride);
        while bucket <= hi {
            // The last bucket's upper edge can pass i64::MAX before `.min(hi)`
            // clamps it; an overflowed edge is >= i64::MAX >= hi.
            let edge = match bucket.checked_add(stride) {
                Some(next) => next - 1, // stride > 0, so next > i64::MIN
                None => i64::MAX,
            };
            let (a, b) = (bucket.max(lo), edge.min(hi));
            while known.next_if(|&w| w < a).is_some() {}
            let witnessed = known.peek().is_some_and(|&w| w <= b);
            if !witnessed {
                let vt = self.var(v);
                let (ca, cb) = (self.int(a), self.int(b));
                let ge = self.ge(vt, ca);
                let le = self.le(vt, cb);
                match self.check_assuming(&[ge, le])? {
                    SatResult::Sat => {
                        harvested.push(self.model_int(v)?);
                    }
                    SatResult::Unsat => gaps.push((a, b)),
                    SatResult::Unknown => {} // bucket stays unclassified
                }
            }
            bucket = match bucket.checked_add(stride) {
                // Past i64::MAX means past `hi`: the sweep is done.
                None => break,
                Some(next) => next,
            };
        }
        witnesses.extend(harvested);
        witnesses.sort_unstable();
        witnesses.dedup();
        Ok(Some(IntervalMap {
            lo,
            hi,
            witnesses,
            gaps,
        }))
    }

    /// The exact feasible subset of `[lo, hi]` for `v`, computed by
    /// solve-and-block enumeration: repeatedly find a model with `v` in the
    /// range and none of the values found so far, until UNSAT. Values in
    /// `known` are assumed already proven feasible and are blocked up front
    /// rather than re-discovered. Returns `None` if the solver answers
    /// `Unknown` mid-enumeration (the partial set would be unsound to treat
    /// as exact).
    pub fn feasible_values_in(
        &mut self,
        v: VarId,
        lo: i64,
        hi: i64,
        known: &[i64],
    ) -> Result<Option<Vec<i64>>, SolverError> {
        let mut found: Vec<i64> = known
            .iter()
            .copied()
            .filter(|w| (lo..=hi).contains(w))
            .collect();
        found.sort_unstable();
        found.dedup();
        let width = hi
            .checked_sub(lo)
            .and_then(|w| w.checked_add(1))
            .ok_or(SolverError::Overflow("feasible_values_in width"))? as usize;
        while found.len() < width {
            let vt = self.var(v);
            let (ca, cb) = (self.int(lo), self.int(hi));
            let ge = self.ge(vt, ca);
            let le = self.le(vt, cb);
            let mut assumptions = vec![ge, le];
            for &w in &found {
                let cw = self.int(w);
                let eq = self.eq(vt, cw);
                let neq = self.not(eq);
                assumptions.push(neq);
            }
            match self.check_assuming(&assumptions)? {
                SatResult::Sat => {
                    let w = self.model_int(v)?;
                    debug_assert!((lo..=hi).contains(&w));
                    let pos = found.partition_point(|&x| x < w);
                    debug_assert!(found.get(pos) != Some(&w), "blocked value re-found");
                    found.insert(pos, w);
                }
                SatResult::Unsat => break,
                SatResult::Unknown => return Ok(None),
            }
        }
        Ok(Some(found))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_sat_model() {
        let mut s = Solver::new();
        let x = s.int_var("x", 0, 10);
        let tx = s.var(x);
        let c = s.int(7);
        let f = s.ge(tx, c);
        s.assert(f);
        assert_eq!(s.check().unwrap(), SatResult::Sat);
        let m = s.model().unwrap();
        assert!(m.int_value(x).unwrap() >= 7);
        assert!(m.eval_bool(s.pool(), f));
    }

    #[test]
    fn basic_unsat() {
        let mut s = Solver::new();
        let x = s.int_var("x", 0, 10);
        let tx = s.var(x);
        let c4 = s.int(4);
        let c3 = s.int(3);
        let f1 = s.ge(tx, c4);
        let f2 = s.le(tx, c3);
        s.assert(f1);
        s.assert(f2);
        assert_eq!(s.check().unwrap(), SatResult::Unsat);
        assert!(s.model().is_none());
    }

    #[test]
    fn disjunction_needs_theory_refinement() {
        // (x <= 3 or x >= 7) and x = 5 is propositionally satisfiable; only
        // the theory refutes it. With propagation off that takes a blocking
        // lemma; with propagation on (the default) the tableau refutes both
        // disjuncts directly on the trail, before any lemma is needed.
        let run = |propagate: bool| {
            let mut s = Solver::new();
            s.set_theory_config(TheoryConfig {
                propagate,
                ..TheoryConfig::default()
            });
            let x = s.int_var("x", 0, 10);
            let tx = s.var(x);
            let c3 = s.int(3);
            let c7 = s.int(7);
            let c5 = s.int(5);
            let a = s.le(tx, c3);
            let b = s.ge(tx, c7);
            let disj = s.or(&[a, b]);
            let eq = s.eq(tx, c5);
            s.assert(disj);
            s.assert(eq);
            let r = s.check().unwrap();
            (r, s.stats())
        };
        let (off, off_stats) = run(false);
        assert_eq!(off, SatResult::Unsat);
        assert!(off_stats.theory_conflicts >= 1);
        assert_eq!(off_stats.theory_propagations, 0);
        let (on, on_stats) = run(true);
        assert_eq!(on, SatResult::Unsat);
        assert!(on_stats.theory_propagations >= 1);
    }

    #[test]
    fn an_uncompilable_atom_fails_only_the_checks_it_is_live_in() {
        // `x + y <= i64::MAX` is `x + y - MAX <= 0`, whose negation's
        // constant `1 + MAX` overflows. The atom stays in the encoder's
        // registry after its frame is popped; it must not fail checks that
        // no longer assert it.
        let mut s = Solver::new();
        let x = s.int_var("x", 0, 10);
        let y = s.int_var("y", 0, 10);
        let (tx, ty) = (s.var(x), s.var(y));
        let sum = s.add(&[tx, ty]);
        let max = s.int(i64::MAX);
        let le = s.le(sum, max);
        assert_eq!(s.check().unwrap(), SatResult::Sat);
        s.push();
        s.assert(le);
        assert!(matches!(s.check(), Err(SolverError::Overflow(_))));
        s.pop();
        assert_eq!(s.check().unwrap(), SatResult::Sat);
        assert_eq!(s.maximize(x).unwrap(), Some(10));
    }

    #[test]
    fn push_pop_isolation() {
        let mut s = Solver::new();
        let x = s.int_var("x", 0, 10);
        let tx = s.var(x);
        let c5 = s.int(5);
        let f = s.le(tx, c5);
        s.assert(f);
        assert_eq!(s.check().unwrap(), SatResult::Sat);

        s.push();
        let c6 = s.int(6);
        let g = s.ge(tx, c6);
        s.assert(g);
        assert_eq!(s.check().unwrap(), SatResult::Unsat);
        s.pop();

        assert_eq!(s.check().unwrap(), SatResult::Sat);
        // Nested frames.
        s.push();
        let c2 = s.int(2);
        let h = s.ge(tx, c2);
        s.assert(h);
        s.push();
        let c3 = s.int(3);
        let i = s.le(tx, c3);
        s.assert(i);
        assert_eq!(s.check().unwrap(), SatResult::Sat);
        let m = s.model().unwrap().int_value(x).unwrap();
        assert!((2..=3).contains(&m));
        s.pop();
        s.pop();
        assert_eq!(s.check().unwrap(), SatResult::Sat);
    }

    #[test]
    fn paper_lookahead_example() {
        // Fig. 1b: I_t in [0,60], sum = 100, I0..I2 = 20,15,25.
        // The feasible region for I3 must be [0, 40].
        let mut s = Solver::new();
        let vars: Vec<VarId> = (0..5).map(|t| s.int_var(&format!("i{t}"), 0, 60)).collect();
        let terms: Vec<TermId> = vars.iter().map(|&v| s.var(v)).collect();
        let total = s.add(&terms);
        let hundred = s.int(100);
        let f = s.eq(total, hundred);
        s.assert(f);
        for (t, val) in [(0usize, 20i64), (1, 15), (2, 25)] {
            let c = s.int(val);
            let eq = s.eq(terms[t], c);
            s.assert(eq);
        }
        assert_eq!(s.minimize(vars[3]).unwrap(), Some(0));
        assert_eq!(s.maximize(vars[3]).unwrap(), Some(40));
        // After fixing I3 = 39, I4 is forced to exactly 1 (step 5 in Fig 1b).
        let c39 = s.int(39);
        let eq = s.eq(terms[3], c39);
        s.assert(eq);
        assert_eq!(s.minimize(vars[4]).unwrap(), Some(1));
        assert_eq!(s.maximize(vars[4]).unwrap(), Some(1));
    }

    #[test]
    fn rule_r3_implication() {
        // R3: Congestion > 0 → max I_t >= BW/2 (= 30).
        let mut s = Solver::new();
        let congestion = s.int_var("congestion", 0, 100);
        let vars: Vec<VarId> = (0..5).map(|t| s.int_var(&format!("i{t}"), 0, 60)).collect();
        let terms: Vec<TermId> = vars.iter().map(|&v| s.var(v)).collect();
        let tc = s.var(congestion);
        let zero = s.int(0);
        let thirty = s.int(30);
        let cond = s.gt(tc, zero);
        let burst = s.pool_mut().max_ge(&terms, thirty);
        let r3 = s.implies(cond, burst);
        s.assert(r3);
        // With congestion = 8 and all I_t <= 20, unsat.
        s.push();
        let c8 = s.int(8);
        let ceq = s.eq(tc, c8);
        s.assert(ceq);
        let twenty = s.int(20);
        let capped = s.pool_mut().max_le(&terms, twenty);
        s.assert(capped);
        assert_eq!(s.check().unwrap(), SatResult::Unsat);
        s.pop();
        // With congestion = 0 the cap is fine.
        let czero = s.eq(tc, zero);
        s.assert(czero);
        let twenty = s.int(20);
        let capped = s.pool_mut().max_le(&terms, twenty);
        s.assert(capped);
        assert_eq!(s.check().unwrap(), SatResult::Sat);
    }

    #[test]
    fn minimize_maximize_unconstrained_hit_declared_bounds() {
        let mut s = Solver::new();
        let x = s.int_var("x", -5, 12);
        assert_eq!(s.minimize(x).unwrap(), Some(-5));
        assert_eq!(s.maximize(x).unwrap(), Some(12));
    }

    #[test]
    fn minimize_on_unsat_returns_none() {
        let mut s = Solver::new();
        let x = s.int_var("x", 0, 10);
        let tx = s.var(x);
        let c11 = s.int(11);
        let f = s.ge(tx, c11);
        s.assert(f);
        assert_eq!(s.minimize(x).unwrap(), None);
    }

    #[test]
    fn bounds_agree_with_minimize_maximize() {
        let mut s = Solver::new();
        let x = s.int_var("x", 0, 100);
        let y = s.int_var("y", 0, 100);
        let tx = s.var(x);
        let ty = s.var(y);
        let sum = s.add(&[tx, ty]);
        let c = s.int(70);
        let f = s.eq(sum, c);
        s.assert(f);
        let c55 = s.int(55);
        let cap = s.le(ty, c55);
        s.assert(cap);
        // x + y = 70, y <= 55 → x ∈ [15, 70].
        let b = s.bounds(x).unwrap().unwrap();
        assert_eq!((b.lo, b.hi), (15, 70));
        assert_eq!(s.minimize(x).unwrap(), Some(b.lo));
        assert_eq!(s.maximize(x).unwrap(), Some(b.hi));
    }

    #[test]
    fn bounds_witnesses_are_feasible_and_cover_endpoints() {
        let mut s = Solver::new();
        let x = s.int_var("x", -5, 90);
        let tx = s.var(x);
        let c3 = s.int(3);
        let c77 = s.int(77);
        let ge = s.ge(tx, c3);
        let le = s.le(tx, c77);
        s.assert(ge);
        s.assert(le);
        let b = s.bounds(x).unwrap().unwrap();
        assert_eq!((b.lo, b.hi), (3, 77));
        assert!(b.witnesses.contains(&b.lo));
        assert!(b.witnesses.contains(&b.hi));
        assert!(
            b.witnesses.windows(2).all(|w| w[0] < w[1]),
            "sorted, deduped"
        );
        for &w in &b.witnesses {
            let c = s.int(w);
            let eq = s.eq(tx, c);
            assert_eq!(
                s.check_assuming(&[eq]).unwrap(),
                SatResult::Sat,
                "witness {w}"
            );
        }
    }

    #[test]
    fn bounds_on_unsat_returns_none() {
        let mut s = Solver::new();
        let x = s.int_var("x", 0, 10);
        let tx = s.var(x);
        let c11 = s.int(11);
        let f = s.ge(tx, c11);
        s.assert(f);
        assert!(s.bounds(x).unwrap().is_none());
    }

    #[test]
    fn range_queries_reject_broken_arguments_with_a_typed_error() {
        let mut s = Solver::new();
        let x = s.int_var("x", 0, 10);
        let flag = s.bool_var("flag");
        for stride in [0, -3] {
            assert!(matches!(
                s.interval_map(x, stride),
                Err(SolverError::InvalidQuery(_))
            ));
        }
        assert!(matches!(s.bounds(flag), Err(SolverError::InvalidQuery(_))));
        assert!(matches!(
            s.minimize(flag),
            Err(SolverError::InvalidQuery(_))
        ));
        assert!(matches!(
            s.interval_map(flag, 10),
            Err(SolverError::InvalidQuery(_))
        ));
        // The solver is as it was.
        assert_eq!(s.stats().checks, 0);
        assert_eq!(s.bounds(x).unwrap().map(|b| (b.lo, b.hi)), Some((0, 10)));
    }

    #[test]
    fn bounds_shares_the_initial_check() {
        // minimize + maximize issue two initial checks; bounds issues one.
        // Two identically-built solvers: the warm theory basis carries model
        // state across queries, so measuring both sequences on one solver
        // would let the first sequence's final vertex skew the second's
        // witness-guided binary search.
        let mut a = Solver::new();
        let xa = a.int_var("x", 0, 40);
        let _ = a.minimize(xa);
        let _ = a.maximize(xa);
        let separate = a.stats().checks;
        let mut b = Solver::new();
        let xb = b.int_var("x", 0, 40);
        let _ = b.bounds(xb);
        let combined = b.stats().checks;
        assert!(
            combined < separate,
            "bounds ({combined} checks) should beat minimize+maximize ({separate})"
        );
    }

    #[test]
    fn boolean_variables_in_models() {
        let mut s = Solver::new();
        let b = s.bool_var("flag");
        let x = s.int_var("x", 0, 10);
        let tb = s.var(b);
        let tx = s.var(x);
        let c5 = s.int(5);
        let ge = s.ge(tx, c5);
        let f = s.iff_helper(tb, ge);
        s.assert(f);
        let nb = s.not(tb);
        s.assert(nb);
        assert_eq!(s.check().unwrap(), SatResult::Sat);
        let m = s.model().unwrap();
        assert!(!m.bool_value(b));
        assert!(m.int_value(x).unwrap() < 5);
    }

    impl Solver {
        fn iff_helper(&mut self, a: TermId, b: TermId) -> TermId {
            self.pool_mut().iff(a, b)
        }
    }

    #[test]
    fn model_evaluates_asserted_formula_true() {
        let mut s = Solver::new();
        let vars: Vec<VarId> = (0..4).map(|t| s.int_var(&format!("v{t}"), 0, 50)).collect();
        let terms: Vec<TermId> = vars.iter().map(|&v| s.var(v)).collect();
        let total = s.add(&terms);
        let c = s.int(77);
        let f1 = s.eq(total, c);
        let c10 = s.int(10);
        let f2 = s.ge(terms[0], c10);
        let c40 = s.int(40);
        let f2b = s.ge(terms[1], c40);
        let f3 = s.or(&[f2, f2b]);
        let all = s.and(&[f1, f3]);
        s.assert(all);
        assert_eq!(s.check().unwrap(), SatResult::Sat);
        let m = s.model().unwrap().clone();
        assert!(m.eval_bool(s.pool(), all));
    }
}

#[cfg(test)]
mod check_assuming_tests {
    use super::*;

    #[test]
    fn assumptions_do_not_persist() {
        let mut s = Solver::new();
        let x = s.int_var("x", 0, 10);
        let tx = s.var(x);
        let c5 = s.int(5);
        let le5 = s.le(tx, c5);
        s.assert(le5);

        let c6 = s.int(6);
        let ge6 = s.ge(tx, c6);
        assert_eq!(s.check_assuming(&[ge6]).unwrap(), SatResult::Unsat);
        // The assumption is gone: plain check is satisfiable again.
        assert_eq!(s.check().unwrap(), SatResult::Sat);
        assert!(s.model().unwrap().int_value(x).unwrap() <= 5);
    }

    #[test]
    fn model_survives_check_assuming() {
        let mut s = Solver::new();
        let x = s.int_var("x", 0, 10);
        let tx = s.var(x);
        let c3 = s.int(3);
        let eq = s.eq(tx, c3);
        assert_eq!(s.check_assuming(&[eq]).unwrap(), SatResult::Sat);
        assert_eq!(s.model().unwrap().int_value(x), Some(3));
    }

    #[test]
    fn multiple_assumptions_conjoin() {
        let mut s = Solver::new();
        let x = s.int_var("x", 0, 10);
        let y = s.int_var("y", 0, 10);
        let (tx, ty) = (s.var(x), s.var(y));
        let total = s.add(&[tx, ty]);
        let c12 = s.int(12);
        let sum_eq = s.eq(total, c12);
        let c7 = s.int(7);
        let x_ge = s.ge(tx, c7);
        assert_eq!(s.check_assuming(&[sum_eq, x_ge]).unwrap(), SatResult::Sat);
        let m = s.model().unwrap();
        let (xv, yv) = (m.int_value(x).unwrap(), m.int_value(y).unwrap());
        assert_eq!(xv + yv, 12);
        assert!(xv >= 7);
    }
}

#[cfg(test)]
mod unsat_core_tests {
    use super::*;

    #[test]
    fn core_isolates_the_conflict() {
        let mut s = Solver::new();
        let x = s.int_var("x", 0, 10);
        let y = s.int_var("y", 0, 10);
        let (tx, ty) = (s.var(x), s.var(y));
        // Assumptions: x >= 7 (A), x <= 3 (B) — conflicting — and two
        // irrelevant ones about y.
        let c7 = s.int(7);
        let a = s.ge(tx, c7);
        let c3 = s.int(3);
        let b = s.le(tx, c3);
        let c5 = s.int(5);
        let y_le = s.le(ty, c5);
        let c1 = s.int(1);
        let y_ge = s.ge(ty, c1);
        let core = s
            .unsat_core(&[y_le, a, y_ge, b])
            .unwrap()
            .expect("conflicting");
        assert_eq!(core.len(), 2);
        assert!(core.contains(&a) && core.contains(&b), "core kept noise");
    }

    #[test]
    fn satisfiable_assumptions_have_no_core() {
        let mut s = Solver::new();
        let x = s.int_var("x", 0, 10);
        let tx = s.var(x);
        let c5 = s.int(5);
        let f = s.le(tx, c5);
        assert_eq!(s.unsat_core(&[f]).unwrap(), None);
    }

    #[test]
    fn core_interacts_with_permanent_assertions() {
        // Permanent: x + y == 10. Assumptions: x >= 8 (A), y >= 8 (B) —
        // each fine alone, conflicting together; both must be in the core.
        let mut s = Solver::new();
        let x = s.int_var("x", 0, 10);
        let y = s.int_var("y", 0, 10);
        let (tx, ty) = (s.var(x), s.var(y));
        let total = s.add(&[tx, ty]);
        let c10 = s.int(10);
        let sum_eq = s.eq(total, c10);
        s.assert(sum_eq);
        let c8 = s.int(8);
        let a = s.ge(tx, c8);
        let b = s.ge(ty, c8);
        let core = s.unsat_core(&[a, b]).unwrap().expect("jointly conflicting");
        assert_eq!(core.len(), 2);
        // Solver is still usable afterwards.
        assert_eq!(s.check().unwrap(), SatResult::Sat);
    }
}
