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
//!
//! # The standing implicant
//!
//! A decode session's queries come in runs that differ by a bound on one
//! variable, and most answer `Sat`. After every `Sat` the solver keeps a
//! *standing implicant*: theory literals `(atom index, polarity)`, read off
//! the live assertions under the model by a justification walk (`And` true
//! — every child; `Or` true — one true child), such that **any** integer
//! model of the literals satisfies every live assertion. A query whose
//! assumptions are conjunctions of atom literals (a bound probe, a decade
//! probe) or one disjunction of such (a window query, tried per disjunct)
//! first goes to the theory as `implicant ∪ probe`: `Sat` there is `Sat`,
//! with the theory's model as the witness and the SAT core untouched — no
//! frame, no encoding, no retraction. Anything else falls through to the
//! spine (below) and then to the CDCL search. The implicant never answers
//! `Unsat`: a refusal by it says nothing about the other branches of the
//! formula.
//!
//! The implicant is built from the model over the frames still open, never
//! from the trail of a probe's search: that trail omits what the theory
//! propagated *from the probe's own atom*, so with the probe popped it
//! need not imply the assertions any more. The walk is lazy — it runs
//! when the next query or assertion asks for the implicant, so a frame
//! popped straight after its check pays for none. The implicant is
//! extended by the `assert` of a pure conjunction the theory accepts beside
//! it (a session's `v == c`), and dropped by any other `assert` and by any
//! `retract`.
//!
//! # The spine
//!
//! What the implicant cannot answer meets the *spine* before a search is
//! started for it. The spine is the theory literals each live assertion
//! forces through its `And`-spine — an atom, a negated atom, every child of
//! an `And` (under negation, of an `Or`), a subterm of any other shape
//! passed over. It is appended to at `assert` and truncated with its frame
//! at `retract`, so every spine literal holds in every model of the live
//! assertions. One warm theory check of `spine ∪ probe`, for the probe
//! shapes the implicant takes (each disjunct of a window in turn), then
//! answers (the spine holds, beside these literals, those the live pins
//! derive from the disjunctions it passed over; see
//! [below](self#pinned-disjunctions)):
//!
//! * `Unsat` for every disjunct is `Unsat`. Sound because a spine literal
//!   holds in every model: a theory refutation of `spine ∪ probe` refutes
//!   the live assertions with the probe. The refutation is a theory core
//!   over assertion literals, and the implicant stays as it was.
//! * `Sat` is `Sat` only when the justification walk proves every live
//!   assertion true under the theory's model. The model then satisfies the
//!   assertions and the probe, and the walk stands as the implicant.
//! * Anything else — the walk fails, the theory answers `Unknown` or an
//!   error, a probe of another shape, a live atom the theory cannot
//!   compile — goes to the search, which answers as it would have.
//!
//! Every answer stays exact: the spine changes who answers, never what.
//! The implicant is kept spine-first, so that `spine ∪ probe` and
//! `implicant ∪ probe` share the conjunction the theory keeps standing.
//!
//! # Pinned disjunctions
//!
//! A disjunction on an assertion's `And`-spine — an `Or` to be true, an
//! `And` to be false, so an implication `a → b`, which is `¬a ∨ b` — is
//! passed over by the spine, but not forgotten: the solver records it,
//! indexed by the variables of its atoms, and keeps a pin table of the
//! values live `v == c` assertions give. When the pins falsify every
//! disjunct but one, and that one they do not settle, the open disjunct's
//! own spine joins the spine: a true antecedent puts its consequent there.
//! A disjunct the pins make true settles the disjunction, which then
//! contributes nothing, and so does one left with two disjuncts open. A
//! disjunction is evaluated when its assertion joins the spine and again
//! at each new pin of one of its variables; the disjunctions the open
//! disjunct's spine passes over are recorded and evaluated in turn.
//!
//! Sound because the pins and the disjunction hold in every model of the
//! live assertions: a disjunct the pins falsify is false in each, so the
//! one left open is true in each, and with it every literal of its spine.
//! A disjunct is settled only by exact evaluation under the pins — every
//! variable pinned, the arithmetic checked — so an overflow, an unpinned
//! variable or a Boolean leaves it open and derives nothing. The derived
//! literals are appended at the assertion that derived them, less those
//! already on the spine, and are truncated with its frame, which is
//! innermost among those of the pin and the disjunction it rests on;
//! `retract` restores the pin table and the record of disjunctions with
//! them. An assertion that extends the implicant extends it with the
//! literals it derived too, so the implicant stays spine-first.

#![expect(
    clippy::cast_possible_truncation,
    reason = "ids and positions are u32 by design (half the memory of usize on the hot structures); a solver with 2^32 variables, terms or trail entries is far outside any workload; feasible_values_in's width is checked against i64 first, and `found` holds one entry per value, so a width past usize could not be enumerated anyway"
)]

use std::collections::BTreeMap;

use crate::cnf::Encoder;
use crate::error::SolverError;
use crate::linear::LinAtom;
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
    /// [`SolverError::InvalidQuery`] for a term that is not an integer term
    /// over variables the model assigns, [`SolverError::Overflow`] for a
    /// value outside `i64`.
    pub fn eval_int(&self, pool: &TermPool, t: TermId) -> Result<i64, SolverError> {
        match pool.get(t) {
            Term::IntConst(n) => Ok(*n),
            Term::Var(v) => self.int_value(*v).ok_or(SolverError::InvalidQuery(
                "integer variable missing from the model",
            )),
            Term::Add(kids) => kids.iter().try_fold(0i64, |sum, &k| {
                sum.checked_add(self.eval_int(pool, k)?)
                    .ok_or(SolverError::Overflow("evaluating a sum"))
            }),
            Term::MulConst(c, inner) => c
                .checked_mul(self.eval_int(pool, *inner)?)
                .ok_or(SolverError::Overflow("evaluating a product")),
            _ => Err(SolverError::InvalidQuery("eval_int on a non-integer term")),
        }
    }

    /// Evaluates a boolean term under this model; errors as
    /// [`Self::eval_int`], and [`SolverError::InvalidQuery`] for a term
    /// that is not boolean.
    pub fn eval_bool(&self, pool: &TermPool, t: TermId) -> Result<bool, SolverError> {
        let all = |kids: &[TermId], want: bool| {
            for &k in kids {
                if self.eval_bool(pool, k)? != want {
                    return Ok(false);
                }
            }
            Ok(true)
        };
        match pool.get(t) {
            Term::True => Ok(true),
            Term::False => Ok(false),
            Term::Not(x) => Ok(!self.eval_bool(pool, *x)?),
            Term::And(kids) => all(kids, true),
            Term::Or(kids) => Ok(!all(kids, false)?),
            Term::Var(v) if pool.var_info(*v).sort == Sort::Bool => Ok(self.bool_value(*v)),
            Term::Le(a, b) => Ok(self.eval_int(pool, *a)? <= self.eval_int(pool, *b)?),
            _ => Err(SolverError::InvalidQuery("eval_bool on a non-boolean term")),
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
    /// Queries answered — `check()` / `check_assuming()` calls, including
    /// the probes of a range search:
    /// `searches + implicant_answers + spine_answers`.
    pub checks: u64,
    /// Queries answered by a CDCL search: every `Unknown`, and each `Sat`
    /// or `Unsat` that neither the standing implicant nor the spine could
    /// give.
    pub searches: u64,
    /// Queries answered `Sat` by one warm theory check of the standing
    /// implicant with the probe's bounds, the SAT core untouched (see the
    /// [module docs](self#the-standing-implicant)).
    ///
    /// ```
    /// use lejit_smt::{SatResult, Solver};
    ///
    /// let mut s = Solver::new();
    /// let x = s.int_var("x", 0, 60);
    /// let y = s.int_var("y", 0, 60);
    /// let (tx, ty) = (s.var(x), s.var(y));
    /// let (sum, c100) = (s.add(&[tx, ty]), s.int(100));
    /// let rule = s.eq(sum, c100);
    /// s.assert(rule);
    /// assert_eq!(s.check().unwrap(), SatResult::Sat); // the spine's model
    /// let c50 = s.int(50);
    /// let probe = s.ge(tx, c50);
    /// assert_eq!(s.check_assuming(&[probe]).unwrap(), SatResult::Sat);
    /// let stats = s.stats();
    /// assert_eq!((stats.checks, stats.searches, stats.implicant_answers), (2, 0, 1));
    /// ```
    pub implicant_answers: u64,
    /// Queries the implicant could not answer that the spine did, before a
    /// search was started for them: one warm theory check of the literals
    /// the live assertions force on their `And`-spines with the probe's.
    /// `Unsat` when the theory refutes the two together; `Sat` when the
    /// justification walk proves every live assertion true under the
    /// theory's model (see the [module docs](self#the-spine)).
    ///
    /// ```
    /// use lejit_smt::{SatResult, Solver};
    ///
    /// let mut s = Solver::new();
    /// let x = s.int_var("x", 0, 60);
    /// let y = s.int_var("y", 0, 60);
    /// let (tx, ty) = (s.var(x), s.var(y));
    /// let (sum, c100) = (s.add(&[tx, ty]), s.int(100));
    /// let rule = s.eq(sum, c100);
    /// s.assert(rule);
    /// // x ≤ 30 leaves y ≥ 70, past its declared bound.
    /// let c30 = s.int(30);
    /// let low = s.le(tx, c30);
    /// assert_eq!(s.check_assuming(&[low]).unwrap(), SatResult::Unsat);
    /// assert_eq!(s.check().unwrap(), SatResult::Sat);
    /// let stats = s.stats();
    /// assert_eq!((stats.checks, stats.searches, stats.spine_answers), (2, 0, 2));
    /// ```
    pub spine_answers: u64,
    /// Of `spine_answers`, those given while the spine held a literal that
    /// the live pins derived: the consequent of an implication whose
    /// antecedent a `v == c` assertion makes true, or the one disjunct the
    /// pins leave open (see the [module docs](self#pinned-disjunctions)).
    ///
    /// ```
    /// use lejit_smt::{SatResult, Solver};
    ///
    /// let mut s = Solver::new();
    /// let f = s.int_var("f", 0, 300);
    /// let g = s.int_var("g", 0, 300);
    /// let (tf, tg) = (s.var(f), s.var(g));
    /// let (c100, c40) = (s.int(100), s.int(40));
    /// let (hot, busy) = (s.gt(tf, c100), s.ge(tg, c40));
    /// let rule = s.implies(hot, busy);
    /// s.assert(rule);
    /// // f = 150 makes the antecedent true: g ≥ 40 joins the spine, which
    /// // refutes g ≤ 39 with no search.
    /// let c150 = s.int(150);
    /// let fix = s.eq(tf, c150);
    /// s.assert(fix);
    /// let c39 = s.int(39);
    /// let low = s.le(tg, c39);
    /// assert_eq!(s.check_assuming(&[low]).unwrap(), SatResult::Unsat);
    /// let stats = s.stats();
    /// assert_eq!((stats.searches, stats.pinned_spine_answers), (0, 1));
    /// ```
    pub pinned_spine_answers: u64,
    /// Justification walks run, successful or not: one per spine model
    /// offered as an answer, and one per search model read into the
    /// implicant when something first asks for it (see the
    /// [module docs](self#the-standing-implicant)).
    ///
    /// ```
    /// use lejit_smt::{SatResult, Solver};
    ///
    /// let mut s = Solver::new();
    /// let x = s.int_var("x", 0, 60);
    /// let y = s.int_var("y", 0, 60);
    /// let (tx, ty) = (s.var(x), s.var(y));
    /// let (sum, c100) = (s.add(&[tx, ty]), s.int(100));
    /// let rule = s.eq(sum, c100);
    /// s.assert(rule);
    /// // The spine's model is walked once and stands as the implicant ...
    /// assert_eq!(s.check().unwrap(), SatResult::Sat);
    /// assert_eq!(s.stats().walks, 1);
    /// // ... which answers the next probe without a walk.
    /// let c50 = s.int(50);
    /// let probe = s.ge(tx, c50);
    /// assert_eq!(s.check_assuming(&[probe]).unwrap(), SatResult::Sat);
    /// assert_eq!(s.stats().walks, 1);
    /// ```
    pub walks: u64,
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
    /// let c2 = s.int(2);
    /// let ge2 = s.ge(tx, c2);
    /// s.assert(ge2);
    /// let c1 = s.int(1);
    /// let le1 = s.le(tx, c1);
    /// let c5 = s.int(5);
    /// let ge5 = s.ge(tx, c5);
    /// let disj = s.or(&[le1, ge5]);
    /// s.assert(disj);
    /// // The spine's model, x = 2, breaks the disjunction: a search. There
    /// // x ≥ 2 refutes x ≤ 1, and with propagation on (the default) that
    /// // disjunct is decided by the theory, not by the search.
    /// assert_eq!(s.check().unwrap(), SatResult::Sat);
    /// assert_eq!(s.stats().searches, 1);
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

/// The midpoint of `lo ≤ hi`, biased toward `lo`. `lo + span / 2` cannot
/// pass `hi`, but the span itself overflows when the two straddle most of
/// the `i64` range.
#[deny(clippy::arithmetic_side_effects)]
fn midpoint(lo: i64, hi: i64) -> Result<i64, SolverError> {
    let span = hi
        .checked_sub(lo)
        .ok_or(SolverError::Overflow("bound_search span"))?;
    lo.checked_add(span / 2)
        .ok_or(SolverError::Overflow("bound_search midpoint"))
}

/// Appends to `out` the theory literals `t` forces at polarity `want`
/// through its `And`-spine (under negation, its `Or`-spine): atoms,
/// negated atoms, and the children of `And`s of these, a subterm of any
/// other shape passed over. Every model of `t` satisfies every literal
/// appended. An atom not seen before is entered in the registry, no clause
/// emitted. Returns whether `t` is the conjunction of what was appended:
/// `false` when a subterm was passed over, or folds to `false` (which the
/// search refutes). Each disjunction passed over — an `Or` to be true, an
/// `And` to be false — is recorded in `passed` with its polarity.
fn spine(
    pool: &TermPool,
    enc: &mut Encoder,
    sat: &mut SatSolver,
    t: TermId,
    want: bool,
    out: &mut Vec<(u32, bool)>,
    mut passed: Option<&mut Passed>,
) -> bool {
    match pool.get(t) {
        Term::True => want,
        Term::False => !want,
        Term::Not(x) => spine(pool, enc, sat, *x, !want, out, passed),
        Term::Le(a, b) => {
            let atom = match enc.known_atom(t) {
                Some(i) => Ok(i),
                None => enc.atom(pool, sat, *a, *b).map(|(_, i)| i),
            };
            match atom {
                Ok(i) => {
                    out.push((i, want));
                    true
                }
                Err(truth) => truth == want,
            }
        }
        Term::And(kids) | Term::Or(kids) if matches!(pool.get(t), Term::And(_)) == want => {
            // Every child, even past one passed over: the spine wants them all.
            let mut whole = true;
            for &k in kids {
                whole &= spine(pool, enc, sat, k, want, out, passed.as_deref_mut());
            }
            whole
        }
        Term::And(_) | Term::Or(_) => {
            if let Some(passed) = passed {
                passed.push(pool, enc, t, want);
            }
            false
        }
        _ => false,
    }
}

/// The integer term `t` with every variable read from `values` (indexed by
/// [`VarId::index`]), in [`Model::eval_int`]'s checked arithmetic: `None`
/// where that returns an error — a variable with no value, an overflow.
fn eval_under(pool: &TermPool, values: &[Option<i64>], t: TermId) -> Option<i64> {
    match pool.get(t) {
        Term::IntConst(n) => Some(*n),
        Term::Var(v) => values.get(v.index()).copied().flatten(),
        Term::Add(kids) => kids.iter().try_fold(0i64, |sum, &k| {
            sum.checked_add(eval_under(pool, values, k)?)
        }),
        Term::MulConst(c, inner) => c.checked_mul(eval_under(pool, values, *inner)?),
        _ => None,
    }
}

/// The truth of the Boolean term `t` in every assignment that gives the
/// variables `values` holds: `None` where that is not settled — a subterm
/// over a variable with no value or a Boolean variable, or one whose
/// evaluation overflows — and not decided by a sibling either (an `And`
/// with a false child is false, an `Or` with a true one true).
fn truth_under(pool: &TermPool, values: &[Option<i64>], t: TermId) -> Option<bool> {
    match pool.get(t) {
        Term::True => Some(true),
        Term::False => Some(false),
        Term::Not(x) => truth_under(pool, values, *x).map(|b| !b),
        Term::Le(a, b) => Some(eval_under(pool, values, *a)? <= eval_under(pool, values, *b)?),
        Term::And(kids) | Term::Or(kids) => {
            let is_and = matches!(pool.get(t), Term::And(_));
            let mut settled = Some(is_and);
            for &k in kids {
                match truth_under(pool, values, k) {
                    Some(b) if b != is_and => return Some(b),
                    Some(_) => {}
                    None => settled = None,
                }
            }
            settled
        }
        _ => None,
    }
}

/// The one disjunct the pins leave open in the disjunction `t` at polarity
/// `want` (an `Or` to be true, an `And` to be false): `Some(k)` when every
/// other child is settled against `want` and `k` is not settled at all.
/// `None` when a child is settled *to* `want` (the disjunction holds, and
/// asks nothing more), when two are open, or when none is (the assertions
/// are unsatisfiable, which the search shows). The children are read last
/// first: over a series decoded in order, the variables still free are
/// those of the last terms built, so two open children turn up early.
fn open_disjunct(pool: &TermPool, pins: &[Option<i64>], t: TermId, want: bool) -> Option<TermId> {
    let (Term::And(kids) | Term::Or(kids)) = pool.get(t) else {
        return None;
    };
    let mut open = None;
    for &k in kids.iter().rev() {
        match truth_under(pool, pins, k) {
            Some(b) if b == want => return None,
            Some(_) => {}
            None if open.is_none() => open = Some(k),
            None => return None,
        }
    }
    open
}

/// What the justification walk reads a model through, in tables indexed
/// by [`VarId::index`] and by atom registry index (the [`Solver`] keeps
/// one, so a walk allocates nothing once they have grown). `values` is
/// refilled once per walk; `pins` and `on_spine` follow the live
/// assertions, kept by `assert` and restored by `retract`, and the pinned
/// derivation reads them too.
#[derive(Default)]
struct Walk {
    /// Per pool variable, its value in the model walked (`None`: no value).
    values: Vec<Option<i64>>,
    /// Per pool variable, the value a live `v == c` assertion pins it to
    /// (the first such, if several do).
    pins: Vec<Option<i64>>,
    /// Per atom, how many times each polarity sits on the spine (negative,
    /// positive).
    on_spine: Vec<[u32; 2]>,
}

impl Walk {
    /// Fills `values` from `model`.
    fn read(&mut self, pool: &TermPool, model: &Model) {
        self.values.clear();
        self.values.resize(pool.vars().len(), None);
        for (v, &x) in &model.ints {
            if let Some(slot) = self.values.get_mut(v.index()) {
                *slot = Some(x);
            }
        }
    }

    /// Whether `v` is pinned.
    fn is_pinned(&self, v: VarId) -> bool {
        self.pins.get(v.index()).is_some_and(Option::is_some)
    }

    /// Pins `v` to `c` unless it is pinned already; whether it was not.
    fn pin(&mut self, v: VarId, c: i64) -> bool {
        if self.pins.len() <= v.index() {
            self.pins.resize(v.index() + 1, None);
        }
        match self.pins.get_mut(v.index()) {
            Some(slot @ None) => {
                *slot = Some(c);
                true
            }
            _ => false,
        }
    }

    /// Lifts the pin of `v`.
    fn unpin(&mut self, v: VarId) {
        if let Some(slot) = self.pins.get_mut(v.index()) {
            *slot = None;
        }
    }

    /// Counts `lits` onto the spine (`on`) or off it.
    fn count(&mut self, lits: &[(u32, bool)], on: bool) {
        for &(i, want) in lits {
            if self.on_spine.len() <= i as usize {
                self.on_spine.resize(i as usize + 1, [0; 2]);
            }
            if let Some(n) = self
                .on_spine
                .get_mut(i as usize)
                .and_then(|m| m.get_mut(usize::from(want)))
            {
                *n = if on { *n + 1 } else { n.saturating_sub(1) };
            }
        }
    }

    /// Whether the literal `(i, want)` sits on the spine.
    fn marked(&self, (i, want): (u32, bool)) -> bool {
        self.on_spine
            .get(i as usize)
            .and_then(|m| m.get(usize::from(want)))
            .is_some_and(|&n| n > 0)
    }
}

/// The justification walk behind the standing implicant: appends to `out`
/// theory literals, all true under the model `walk` read, that force the
/// already-encoded `t` to `want` in *every* model that satisfies them. An
/// `And` to be true (an `Or` to be false) takes every child; an `Or` to be
/// true (an `And` to be false) takes one child that is: one over pinned
/// variables if there is one — its literals constrain nothing that is still
/// free — else the last, which in a rule over a series is the variable
/// decoded last. `false` when `t` is not `want` under the model, or is only
/// through a Boolean variable; `out` may then hold a partial justification.
fn justify(
    pool: &TermPool,
    enc: &mut Encoder,
    walk: &Walk,
    t: TermId,
    want: bool,
    out: &mut Vec<(u32, bool)>,
) -> bool {
    match pool.get(t) {
        Term::True => want,
        Term::False => !want,
        Term::Not(x) => justify(pool, enc, walk, *x, !want, out),
        Term::Le(a, b) => {
            // No value (an overflow among them) makes the comparison no literal.
            let (Some(a), Some(b)) = (
                eval_under(pool, &walk.values, *a),
                eval_under(pool, &walk.values, *b),
            ) else {
                return false;
            };
            // A comparison whose variables cancel has an empty cone and
            // holds or fails in every model alike.
            out.extend(enc.cone(pool, t).first().map(|&i| (i, want)));
            (a <= b) == want
        }
        Term::And(kids) | Term::Or(kids) if matches!(pool.get(t), Term::And(_)) == want => {
            kids.iter().all(|&k| justify(pool, enc, walk, k, want, out))
        }
        Term::And(kids) | Term::Or(kids) => {
            let mark = out.len();
            [true, false].into_iter().any(|pinned_only| {
                kids.iter().rev().any(|&k| {
                    out.truncate(mark);
                    (!pinned_only || enc.cone_vars_all(pool, k, |v| walk.is_pinned(v)))
                        && justify(pool, enc, walk, k, want, out)
                })
            })
        }
        _ => false,
    }
}

/// The variable `t` pins and the constant it pins it to, if `t` is `v == c`
/// as [`TermPool::eq`] builds it.
fn pinned_by(pool: &TermPool, t: TermId) -> Option<(VarId, i64)> {
    let Term::And(kids) = pool.get(t) else {
        return None;
    };
    let &[x, y] = &**kids else {
        return None;
    };
    let (Term::Le(a, b), Term::Le(c, d)) = (pool.get(x), pool.get(y)) else {
        return None;
    };
    match (pool.get(*a), pool.get(*b)) {
        _ if (a, b) != (d, c) => None,
        (Term::Var(v), Term::IntConst(c)) | (Term::IntConst(c), Term::Var(v)) => Some((*v, *c)),
        _ => None,
    }
}

/// Reads an implicant off `model` into `out`: the justification of every
/// assertion in `asserted` (see [`justify`]), `walk` being its scratch.
/// `false`, with `out` partial, when the model breaks an assertion or
/// leans on a Boolean variable (no theory literal pins one).
///
/// The literals come spine-first — `spine` as it stands, then the walk's
/// others ascending — so that `spine ∪ probe` and `implicant ∪ probe`
/// share the prefix the theory keeps standing between checks. Every spine
/// literal is one the walk takes (an `And` true takes every child, and a
/// literal the pins derived lies in the one disjunct a model of the
/// assertions can make true), so this is an order, not an addition.
fn read_implicant(
    pool: &TermPool,
    enc: &mut Encoder,
    asserted: &[TermId],
    spine: &[(u32, bool)],
    walk: &mut Walk,
    model: &Model,
    out: &mut Vec<(u32, bool)>,
) -> bool {
    out.clear();
    walk.read(pool, model);
    if !asserted
        .iter()
        .all(|&t| justify(pool, enc, walk, t, true, out))
    {
        return false;
    }
    out.sort_unstable();
    out.dedup();
    out.retain(|&l| !walk.marked(l));
    out.splice(0..0, spine.iter().copied());
    debug_assert!(
        implies_under(pool, enc, asserted, model, out),
        "the walk read an implicant the model breaks, or one that misses an assertion it breaks"
    );
    true
}

/// The check behind [`read_implicant`]'s `debug_assert`, by evaluation
/// rather than by the walk's tables: every assertion is `true` under
/// `model` (an evaluation error in a disjunct the walk passed over aside),
/// and so is every literal of `implicant` over an atom in canonical form.
fn implies_under(
    pool: &TermPool,
    enc: &Encoder,
    asserted: &[TermId],
    model: &Model,
    implicant: &[(u32, bool)],
) -> bool {
    let holds = |&(i, want): &(u32, bool)| {
        let Some((atom, _)) = enc.atoms().get(i as usize) else {
            return false;
        };
        let Ok(LinAtom { expr }) = atom else {
            return true;
        };
        let value = expr
            .coeffs
            .iter()
            .try_fold(i128::from(expr.constant), |sum, (&v, &c)| {
                sum.checked_add(i128::from(c).checked_mul(i128::from(model.int_value(v)?))?)
            });
        value.is_some_and(|e| (e <= 0) == want)
    };
    asserted
        .iter()
        .all(|&t| !matches!(model.eval_bool(pool, t), Ok(false)))
        && implicant.iter().all(holds)
}

/// What the theory says of a base conjunction — the implicant or the
/// spine — with a probe's literals stood past its end.
enum Verdict {
    /// A model of the base and the probe (of one disjunct of its window).
    Sat(BTreeMap<VarId, i64>),
    /// The base refutes the probe, every disjunct of its window.
    Unsat,
    /// No verdict: a probe of another shape, or a disjunct that is no
    /// conjunction or that the theory left `Unknown`.
    Undecided,
}

/// One warm theory check of `lits`, the atoms registered since the last
/// theory call compiled first.
fn theory_verdict(
    pool: &TermPool,
    enc: &Encoder,
    theory: &mut TheorySession,
    config: TheoryConfig,
    lits: &[(u32, bool)],
) -> Result<Verdict, SolverError> {
    sync_theory(pool, enc, theory)?;
    Ok(match theory.check(pool, lits, config)? {
        TheoryVerdict::Sat(ints) => Verdict::Sat(ints),
        TheoryVerdict::Unsat(_) => Verdict::Unsat,
        TheoryVerdict::Unknown => Verdict::Undecided,
    })
}

/// Compiles the atoms registered since the last theory call into `theory`.
fn sync_theory(
    pool: &TermPool,
    enc: &Encoder,
    theory: &mut TheorySession,
) -> Result<(), SolverError> {
    for (atom, _) in enc.atoms().iter().skip(theory.num_atoms()) {
        theory.add_atom(pool, atom.as_ref().map_err(|&e| e))?;
    }
    Ok(())
}

/// The disjunctions the spine of the live assertions passed over, each an
/// `Or` to be true or an `And` to be false, kept so that a pin can decide
/// them (see the [module docs](self#pinned-disjunctions)); in the order the
/// spine met them, and truncated with their frame.
#[derive(Default)]
struct Passed {
    /// `(term, polarity, start of its run in vars)` per disjunction.
    list: Vec<(TermId, bool, u32)>,
    /// The variables of each disjunction's atoms, ascending, one run per
    /// entry of `list` ([`Encoder::cone_vars`]).
    vars: Vec<VarId>,
    /// Per pool variable, the positions in `list` of the disjunctions over
    /// it, ascending.
    by_var: Vec<Vec<u32>>,
    /// Scratch of `push`.
    cone_vars: Vec<VarId>,
}

impl Passed {
    fn len(&self) -> usize {
        self.list.len()
    }

    /// The disjunction at position `p` and its polarity.
    fn get(&self, p: u32) -> Option<(TermId, bool)> {
        self.list.get(p as usize).map(|&(t, want, _)| (t, want))
    }

    /// The positions of the disjunctions over `v`, ascending.
    fn over(&self, v: VarId) -> &[u32] {
        self.by_var.get(v.index()).map_or(&[], Vec::as_slice)
    }

    /// Records the disjunction `t` at polarity `want`, indexed by its
    /// variables.
    fn push(&mut self, pool: &TermPool, enc: &mut Encoder, t: TermId, want: bool) {
        let at = self.list.len() as u32;
        let start = self.vars.len();
        enc.cone_vars(pool, t, &mut self.cone_vars);
        self.vars.extend_from_slice(&self.cone_vars);
        for &v in &self.cone_vars {
            if self.by_var.len() <= v.index() {
                self.by_var.resize_with(v.index() + 1, Vec::new);
            }
            if let Some(over) = self.by_var.get_mut(v.index()) {
                over.push(at);
            }
        }
        self.list.push((t, want, start as u32));
    }

    /// Forgets every disjunction from position `len` on. Positions enter
    /// each variable's index ascending, so theirs are the index's last.
    fn truncate(&mut self, len: usize) {
        while self.list.len() > len {
            let Some((_, _, start)) = self.list.pop() else {
                break;
            };
            for &v in self.vars.get(start as usize..).unwrap_or_default() {
                if let Some(over) = self.by_var.get_mut(v.index()) {
                    over.pop();
                }
            }
            self.vars.truncate(start as usize);
        }
    }
}

/// What a [`Solver`] restores when it closes a frame: the lengths, at the
/// frame's `push`, of what assertions append to.
#[derive(Clone, Copy)]
struct FrameMark {
    asserted: usize,
    spine: usize,
    passed: usize,
    /// Of the pin log.
    pins: usize,
    /// The count of spine literals the pins derived.
    derived: usize,
}

/// What a [`Solver`] holds of a standing implicant.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Implicant {
    /// Nothing: `Solver::implicant` means nothing, every query is a search.
    Absent,
    /// A search has answered `Sat` and its model, still in `Solver::model`,
    /// has not been walked. The walk waits for the first caller that wants
    /// the implicant, so a frame popped straight after its check (a
    /// `push; assert; check; pop`) never pays for one.
    Unread,
    /// `Solver::implicant` implies every live assertion.
    Standing,
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
    /// The live assertions in assertion order — what the justification
    /// walk justifies. A probe's assumptions never enter it.
    asserted: Vec<TermId>,
    /// The spine of the live assertions (see the [module docs](self#the-spine)),
    /// in assertion order, with the literals the pins derive appended at
    /// the assertion that derived them; while a probe is with the theory its
    /// literals sit past the end.
    spine: Vec<(u32, bool)>,
    /// The disjunctions the spine passed over.
    passed: Passed,
    /// The variables pinned in `walk.pins`, in the order they were.
    pin_log: Vec<VarId>,
    /// How many spine literals the pins derived.
    derived: usize,
    /// Scratch of the pinned derivation: literals derived, positions in
    /// `passed` still to evaluate.
    derive: Vec<(u32, bool)>,
    queue: Vec<u32>,
    /// Parallel to `frames`.
    frame_marks: Vec<FrameMark>,
    /// The standing implicant (see the [module docs](self)); while a probe
    /// is with the theory its literals sit past the end.
    implicant: Vec<(u32, bool)>,
    /// Whether `implicant` is one; see [`Self::implicant_stands`].
    implicant_state: Implicant,
    /// Scratch of the justification walk.
    walk: Walk,
    /// Scratch of a walk that may not become the implicant: the walk of a
    /// spine model, which replaces the implicant only if it succeeds.
    walked: Vec<(u32, bool)>,
    model: Option<Model>,
    /// `checks` is filled in by [`Self::stats`].
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
            asserted: Vec::new(),
            spine: Vec::new(),
            passed: Passed::default(),
            pin_log: Vec::new(),
            derived: 0,
            derive: Vec::new(),
            queue: Vec::new(),
            frame_marks: Vec::new(),
            implicant: Vec::new(),
            implicant_state: Implicant::Absent,
            walk: Walk::default(),
            walked: Vec::new(),
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
        s.checks = s.searches + s.implicant_answers + s.spine_answers;
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

    /// Asserts a boolean term in the current frame, its `And`-spine joining
    /// the spine with what the pins then decide (see the [module
    /// docs](self#pinned-disjunctions)).
    /// A pure conjunction of atom literals the theory accepts beside the
    /// standing implicant extends it, with every literal the assertion
    /// brought to the spine; any other assertion drops it.
    pub fn assert(&mut self, t: TermId) {
        debug_assert_eq!(self.pool.sort_of(t), Sort::Bool);
        let standing = self.implicant_stands();
        self.model = None;
        self.add_assertion(t);
        self.asserted.push(t);
        let mark = self.spine.len();
        let conjunction = self.grow_spine(t);
        let (pool, enc) = (&self.pool, &mut self.enc);
        if standing {
            let added = self.spine.get(mark..).unwrap_or_default();
            self.implicant.extend_from_slice(added);
            let extended = conjunction
                && matches!(
                    theory_verdict(
                        pool,
                        enc,
                        &mut self.theory,
                        self.theory_config,
                        &self.implicant
                    ),
                    Ok(Verdict::Sat(_))
                );
            if !extended {
                self.implicant_state = Implicant::Absent;
            }
        }
    }

    /// Appends to the spine the literals the just-asserted `t` forces on its
    /// `And`-spine, then those the live pins decide (see the [module
    /// docs](self#pinned-disjunctions)): every disjunction `t`'s spine
    /// passed over, and — when `t` is a new pin `v == c` — every recorded
    /// one over `v`, is evaluated under the pins. One whose other disjuncts
    /// the pins all falsify contributes the spine of the disjunct left
    /// open, less the literals already on the spine; the disjunctions that
    /// spine passes over are recorded and evaluated in turn. Returns whether
    /// `t` is the conjunction of its own spine.
    fn grow_spine(&mut self, t: TermId) -> bool {
        let Solver {
            pool,
            enc,
            sat,
            spine: lits,
            passed,
            pin_log,
            derived,
            derive,
            queue,
            walk,
            ..
        } = self;
        let start = lits.len();
        let first_new = passed.len();
        let whole = spine(pool, enc, sat, t, true, lits, Some(passed));
        walk.count(lits.get(start..).unwrap_or_default(), true);
        queue.clear();
        if let Some((v, c)) = pinned_by(pool, t) {
            if walk.pin(v, c) {
                pin_log.push(v);
                let older = passed
                    .over(v)
                    .iter()
                    .take_while(|&&p| (p as usize) < first_new);
                queue.extend(older);
            }
        }
        queue.extend(first_new as u32..passed.len() as u32);
        let mut next = 0;
        while let Some(&p) = queue.get(next) {
            next += 1;
            let Some((d, want)) = passed.get(p) else {
                continue;
            };
            let Some(k) = open_disjunct(pool, &walk.pins, d, want) else {
                continue;
            };
            derive.clear();
            let nested = passed.len();
            spine(pool, enc, sat, k, want, derive, Some(passed));
            for &l in derive.iter() {
                if !walk.marked(l) {
                    walk.count(&[l], true);
                    lits.push(l);
                    *derived += 1;
                }
            }
            queue.extend(nested as u32..passed.len() as u32);
        }
        whole
    }

    /// Encodes `t` and adds it, guarded, to the innermost frame of the
    /// clause database: an assertion, or one assumption of a probe's search.
    fn add_assertion(&mut self, t: TermId) {
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
        self.frame_marks.push(FrameMark {
            asserted: self.asserted.len(),
            spine: self.spine.len(),
            passed: self.passed.len(),
            pins: self.pin_log.len(),
            derived: self.derived,
        });
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
    ///
    /// The standing implicant goes with the frame: it may rest on the
    /// frame's own assertions.
    pub fn retract(&mut self) {
        if self.close_frame() {
            self.implicant_state = Implicant::Absent;
        }
    }

    /// [`Self::retract`] without a word to the implicant — all there is to
    /// closing a probe's frame, which asserted nothing the implicant knows.
    /// Whether there was a frame to close.
    fn close_frame(&mut self) -> bool {
        let Some(sel) = self.frames.pop() else {
            return false;
        };
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
        if let Some(mark) = self.frame_marks.pop() {
            self.asserted.truncate(mark.asserted);
            self.walk
                .count(self.spine.get(mark.spine..).unwrap_or_default(), false);
            self.spine.truncate(mark.spine);
            self.passed.truncate(mark.passed);
            while self.pin_log.len() > mark.pins {
                if let Some(v) = self.pin_log.pop() {
                    self.walk.unpin(v);
                }
            }
            self.derived = mark.derived;
        }
        self.model = None;
        true
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

    /// Checks satisfiability of all live assertions: answered by the
    /// standing implicant when there is one, else by the spine when it can
    /// (see the [module docs](self#the-spine)), else by one CDCL search
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
        self.check_assuming(&[])
    }

    /// Checks satisfiability of the live assertions *plus* the given
    /// temporary assumptions, which are discarded afterwards. Equivalent to
    /// `push(); assert(each); check(); pop()` — the model (on `Sat`) remains
    /// readable until the next solver call. The standing implicant answers
    /// when it can, then the spine (see the [module docs](self)); the
    /// search answers otherwise.
    pub fn check_assuming(&mut self, assumptions: &[TermId]) -> Result<SatResult, SolverError> {
        if self.probe(assumptions)? {
            return Ok(SatResult::Sat);
        }
        self.search_assuming(assumptions)
    }

    /// The answer for `assumptions` that the implicant could not give: the
    /// spine's when it has one ([`Self::spine_answer`]), else the search's.
    fn search_assuming(&mut self, assumptions: &[TermId]) -> Result<SatResult, SolverError> {
        if let Some(answer) = self.spine_answer(assumptions) {
            self.stats.spine_answers += 1;
            self.stats.pinned_spine_answers += u64::from(self.derived > 0);
            return Ok(answer);
        }
        self.frame_search(assumptions)
    }

    /// The CDCL search for `assumptions`, asserted in a frame of their own
    /// that is retracted whatever the outcome, even an error. `Sat` leaves
    /// the model, and the implicant to be read off it; any other answer
    /// leaves the implicant it found.
    fn frame_search(&mut self, assumptions: &[TermId]) -> Result<SatResult, SolverError> {
        let result = if assumptions.is_empty() {
            self.search()
        } else {
            self.push();
            for &t in assumptions {
                self.add_assertion(t);
            }
            let result = self.search();
            // Closing the frame clears the model; keep it for the caller.
            let model = self.model.take();
            self.close_frame();
            self.model = model;
            result
        };
        if self.model.is_some() {
            self.implicant_state = Implicant::Unread;
        }
        result
    }

    /// One CDCL search over the clause database as it stands.
    fn search(&mut self) -> Result<SatResult, SolverError> {
        self.stats.searches += 1;
        self.model = None;
        sync_theory(&self.pool, &self.enc, &mut self.theory)?;
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

    // --- the standing implicant ---------------------------------------------

    /// Tries to answer `assumptions` from the standing implicant (see
    /// [`Self::theory_probe`] for the shapes it takes). `true` is `Sat`,
    /// with the theory's model installed; `false` is no answer (no
    /// implicant, another shape, or the theory refuses, which says nothing
    /// of the formula's other branches).
    fn probe(&mut self, assumptions: &[TermId]) -> Result<bool, SolverError> {
        if !self.implicant_stands() {
            return Ok(false);
        }
        let base = self.implicant.len();
        let verdict = self.theory_probe(false, assumptions);
        // Whatever happened, the probe's literals leave the implicant.
        self.implicant.truncate(base);
        let Verdict::Sat(ints) = verdict? else {
            return Ok(false);
        };
        self.stats.implicant_answers += 1;
        self.model = Some(Model {
            ints,
            bools: BTreeMap::new(),
        });
        Ok(true)
    }

    /// Tries to answer `assumptions` from the spine before a search is
    /// started for them (see the [module docs](self#the-spine)): `Unsat`
    /// when the theory refutes `spine ∪ probe` (every disjunct of a
    /// window), `Sat` when its model is one the justification walk proves
    /// every live assertion true under — the walk then stands as the
    /// implicant. `None` leaves the query to the search, to answer as it
    /// would have: a probe of another shape, a model the walk cannot
    /// justify, `Unknown`, an error, or a live atom the theory cannot
    /// compile, whose error is the search's to return.
    fn spine_answer(&mut self, assumptions: &[TermId]) -> Option<SatResult> {
        sync_theory(&self.pool, &self.enc, &mut self.theory).ok()?;
        if self.theory.any_uncompilable(&self.live_atoms) {
            return None;
        }
        let base = self.spine.len();
        let verdict = self.theory_probe(true, assumptions);
        self.spine.truncate(base);
        match verdict.ok()? {
            Verdict::Unsat => {
                self.model = None;
                Some(SatResult::Unsat)
            }
            Verdict::Sat(ints) => {
                let model = Model {
                    ints,
                    bools: BTreeMap::new(),
                };
                self.stats.walks += 1;
                if !read_implicant(
                    &self.pool,
                    &mut self.enc,
                    &self.asserted,
                    &self.spine,
                    &mut self.walk,
                    &model,
                    &mut self.walked,
                ) {
                    return None;
                }
                std::mem::swap(&mut self.implicant, &mut self.walked);
                self.implicant_state = Implicant::Standing;
                self.model = Some(model);
                Some(SatResult::Sat)
            }
            Verdict::Undecided => None,
        }
    }

    /// Stands the literals of `assumptions` past the end of the spine (with
    /// `on_spine`) or of the implicant and asks the theory: each assumption
    /// a conjunction of atom literals or — one of them — a disjunction of
    /// such, a *window*, whose disjuncts are tried in turn until one is
    /// `Sat`. The caller truncates what was stood past the end.
    fn theory_probe(
        &mut self,
        on_spine: bool,
        assumptions: &[TermId],
    ) -> Result<Verdict, SolverError> {
        let Solver {
            pool,
            sat,
            enc,
            theory,
            spine: spine_lits,
            implicant,
            theory_config,
            ..
        } = self;
        let lits = if on_spine { spine_lits } else { implicant };
        let mut window = None;
        for &t in assumptions {
            let mark = lits.len();
            if spine(pool, enc, sat, t, true, lits, None) {
                continue;
            }
            lits.truncate(mark);
            match pool.get(t) {
                Term::Or(kids) if window.is_none() => window = Some(kids.to_vec()),
                _ => return Ok(Verdict::Undecided),
            }
        }
        let Some(window) = window else {
            return theory_verdict(pool, enc, theory, *theory_config, lits);
        };
        let mark = lits.len();
        let mut verdict = Verdict::Unsat;
        for k in window {
            if spine(pool, enc, sat, k, true, lits, None) {
                match theory_verdict(pool, enc, theory, *theory_config, lits)? {
                    Verdict::Sat(ints) => return Ok(Verdict::Sat(ints)),
                    Verdict::Unsat => {}
                    Verdict::Undecided => verdict = Verdict::Undecided,
                }
            } else {
                verdict = Verdict::Undecided;
            }
            lits.truncate(mark);
        }
        Ok(verdict)
    }

    /// Whether an implicant stands, reading it off the last search's model
    /// first if that is still to do (see [`read_implicant`]).
    fn implicant_stands(&mut self) -> bool {
        if self.implicant_state == Implicant::Unread {
            self.implicant_state = Implicant::Absent;
            if let Some(model) = &self.model {
                self.stats.walks += 1;
                if read_implicant(
                    &self.pool,
                    &mut self.enc,
                    &self.asserted,
                    &self.spine,
                    &mut self.walk,
                    model,
                    &mut self.implicant,
                ) {
                    self.implicant_state = Implicant::Standing;
                }
            }
        }
        self.implicant_state == Implicant::Standing
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
    ///
    /// While an implicant stands, the search first bisects *inside* it with
    /// theory checks alone, down to the extreme the implicant admits, and
    /// then spends one real probe just beyond that — answered by the spine
    /// when it can, else by a search: `Unsat` ends the search, `Sat` brings
    /// a new implicant to bisect inside. With none standing each probe is a
    /// real one at the midpoint.
    #[expect(
        clippy::arithmetic_side_effects,
        reason = "every other i64 step here is checked; the unchecked one is mid + 1, where mid < hi (a bisection midpoint below its upper end, or the implicant's edge after the lo >= hi exit), so it cannot overflow"
    )]
    fn bound_search(
        &mut self,
        v: VarId,
        mut lo: i64,
        mut hi: i64,
        minimize: bool,
        witnesses: &mut Vec<i64>,
    ) -> Result<Option<i64>, SolverError> {
        while lo < hi {
            let inside = self.implicant_stands();
            // What the implicant refuses is not refuted: only the
            // witness-side endpoint moves.
            let (mut a, mut b) = (lo, hi);
            while inside && a < b {
                let mid = midpoint(a, b)?;
                let probe = self.bound_probe(v, mid, minimize);
                if self.probe(&[probe])? {
                    let w = self.model_int(v)?;
                    witnesses.push(w);
                    if minimize {
                        b = w.min(mid);
                    } else {
                        a = w.max(mid + 1);
                    }
                } else if minimize {
                    a = mid + 1;
                } else {
                    b = mid;
                }
            }
            // The implicant's extreme is the new witness-side endpoint, and
            // the real probe asks for anything beyond it.
            let mid = match (inside, minimize) {
                (false, _) => midpoint(lo, hi)?,
                (true, true) => {
                    hi = a;
                    a.saturating_sub(1)
                }
                (true, false) => {
                    lo = a;
                    a
                }
            };
            if lo >= hi {
                break;
            }
            let probe = self.bound_probe(v, mid, minimize);
            match self.search_assuming(&[probe])? {
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

    /// The probe of a range search at `mid`: `v ≤ mid` when minimizing,
    /// `v > mid` when maximizing.
    fn bound_probe(&mut self, v: VarId, mid: i64, minimize: bool) -> TermId {
        let vt = self.var(v);
        let c = self.int(mid);
        if minimize {
            self.le(vt, c)
        } else {
            self.gt(vt, c)
        }
    }

    /// The exact feasible subset of `[lo, hi]` for `v`. Values in `known`
    /// are assumed already proven feasible. While an implicant stands, the
    /// gaps between the values found so far are probed under it (theory
    /// checks alone), each `Sat` splitting its gap; what is left goes to
    /// solve-and-block — a search for a model with `v` in the range and
    /// none of the values found — whose `Sat` brings a new value and a new
    /// implicant to probe the gaps under, and whose `Unsat` ends the
    /// enumeration. Returns `None` if the solver answers `Unknown`
    /// mid-enumeration (the partial set would be unsound to treat as
    /// exact).
    #[expect(
        clippy::arithmetic_side_effects,
        reason = "the width and the gap steps are checked; the unchecked steps are i += 1 over the indices of `found`, and f - 1 where f is a found value above a >= lo"
    )]
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
        let vt = self.var(v);
        while found.len() < width {
            // `found[i]` is the first value found at or above `a`; below it
            // (below `hi`, past the last) lies the gap `[a, b]`.
            let (mut a, mut i) = (lo, 0);
            while self.implicant_stands() && a <= hi {
                let b = match found.get(i) {
                    Some(&f) if f == a => {
                        i += 1;
                        a
                    }
                    upper => {
                        let b = upper.map_or(hi, |&f| f - 1);
                        let (ca, cb) = (self.int(a), self.int(b));
                        let (ge, le) = (self.ge(vt, ca), self.le(vt, cb));
                        if self.probe(&[ge, le])? {
                            // In `[a, b]`: the gap splits, its lower part next.
                            found.insert(i, self.model_int(v)?);
                            continue;
                        }
                        b
                    }
                };
                // Nothing (more) this implicant admits up to `b`.
                let Some(next) = b.checked_add(1) else { break };
                a = next;
            }
            if found.len() == width {
                break;
            }
            let (ca, cb) = (self.int(lo), self.int(hi));
            let mut assumptions = vec![self.ge(vt, ca), self.le(vt, cb)];
            for &w in &found {
                let cw = self.int(w);
                let eq = self.eq(vt, cw);
                assumptions.push(self.not(eq));
            }
            match self.search_assuming(&assumptions)? {
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
        assert!(m.eval_bool(s.pool(), f).unwrap());
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
    fn a_live_atom_without_a_compiled_form_leaves_the_query_to_the_search() {
        // The spine (`x <= 3`) refutes the probe `x >= 4` by itself, but the
        // disjunction holds an atom the theory cannot compile: the search
        // meets it and fails, and the spine must not answer in its place.
        let mut s = Solver::new();
        let x = s.int_var("x", 0, 10);
        let y = s.int_var("y", 0, 10);
        let (tx, ty) = (s.var(x), s.var(y));
        let sum = s.add(&[tx, ty]);
        let (max, c3, c4, c5) = (s.int(i64::MAX), s.int(3), s.int(4), s.int(5));
        let uncompilable = s.le(sum, max);
        let ge5 = s.ge(tx, c5);
        let either = s.or(&[uncompilable, ge5]);
        let le3 = s.le(tx, c3);
        s.assert(either);
        s.assert(le3);
        let ge4 = s.ge(tx, c4);
        assert!(matches!(
            s.check_assuming(&[ge4]),
            Err(SolverError::Overflow(_))
        ));
        assert_eq!(s.stats().spine_answers, 0);
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
        assert!(matches!(s.bounds(flag), Err(SolverError::InvalidQuery(_))));
        assert!(matches!(
            s.minimize(flag),
            Err(SolverError::InvalidQuery(_))
        ));
        // The solver is as it was.
        assert_eq!(s.stats().checks, 0);
        assert_eq!(s.bounds(x).unwrap().map(|b| (b.lo, b.hi)), Some((0, 10)));
    }

    #[test]
    fn a_variable_declared_at_i64_min_answers_bounds_with_overflow_not_a_panic() {
        // The range search probes `x ≤ i64::MIN`, whose canonical form
        // `x + 2⁶³ ≤ 0` is no `i64` expression: normalizing it panicked in
        // `LinExpr::add_scaled`.
        let mut s = Solver::new();
        let x = s.int_var("x", i64::MIN, 0);
        let tx = s.var(x);
        let c = s.int(-5);
        let f = s.le(tx, c);
        s.assert(f);
        assert_eq!(s.check().unwrap(), SatResult::Sat);
        assert!(matches!(s.bounds(x), Err(SolverError::Overflow(_))));
        // The error leaves the solver usable.
        assert_eq!(s.check().unwrap(), SatResult::Sat);
        // Asserted, the same comparison fails the checks it is live in.
        let min = s.int(i64::MIN);
        let at_min = s.le(tx, min);
        s.push();
        s.assert(at_min);
        assert!(matches!(s.check(), Err(SolverError::Overflow(_))));
        s.pop();
        assert_eq!(s.check().unwrap(), SatResult::Sat);
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
        assert!(m.eval_bool(s.pool(), all).unwrap());
    }
}

#[cfg(test)]
mod implicant_tests {
    use super::*;

    /// `max(fine) >= 30` over five steps in `[0, 60]`.
    fn burst_rule(s: &mut Solver) -> (Vec<VarId>, Vec<TermId>, TermId) {
        let vars: Vec<VarId> = (0..5)
            .map(|t| s.int_var(&format!("fine{t}"), 0, 60))
            .collect();
        let terms: Vec<TermId> = vars.iter().map(|&v| s.var(v)).collect();
        let thirty = s.int(30);
        let rule = s.pool_mut().max_ge(&terms, thirty);
        s.assert(rule);
        (vars, terms, rule)
    }

    #[test]
    fn a_popped_probe_leaves_an_implicant_of_what_is_still_asserted() {
        // The search for `fine0 >= 31` has the theory propagate
        // `fine0 >= 30` from the probe's own atom, so the final check's
        // conjunction holds neither: an implicant read off that trail, less
        // the popped probe, is empty, admits `fine0 <= 5` with every step at
        // its lower bound, and breaks the rule. Read off the model, it
        // holds a disjunct of the rule.
        let mut s = Solver::new();
        let (vars, terms, rule) = burst_rule(&mut s);
        let (c31, c5) = (s.int(31), s.int(5));
        let (high, low) = (s.ge(terms[0], c31), s.le(terms[0], c5));
        // The spine would answer this probe itself: make it a search.
        assert_eq!(s.frame_search(&[high]).unwrap(), SatResult::Sat);
        assert_eq!(s.stats().searches, 1);
        assert!(s.implicant_stands() && !s.implicant.is_empty());
        assert_eq!(s.check_assuming(&[low]).unwrap(), SatResult::Sat);
        let m = s.model().unwrap().clone();
        assert!(m.int_value(vars[0]).unwrap() <= 5);
        assert!(
            m.eval_bool(s.pool(), rule).unwrap(),
            "{m:?} breaks the rule"
        );
    }

    #[test]
    fn the_spine_or_a_search_says_unsat_and_neither_moves_the_implicant() {
        let mut s = Solver::new();
        let (_, terms, _) = burst_rule(&mut s);
        let sum = s.add(&terms);
        let c100 = s.int(100);
        let total = s.eq(sum, c100);
        s.assert(total);
        assert_eq!(s.check().unwrap(), SatResult::Sat);
        assert!(s.implicant_stands());
        let standing = s.implicant.clone();
        // 5 * 19 < 100: refused by the implicant, refuted by the spine — the
        // sum the rule forces, beside the cap — with no search.
        let c19 = s.int(19);
        let capped = s.pool_mut().max_le(&terms, c19);
        let before = s.stats();
        assert_eq!(s.check_assuming(&[capped]).unwrap(), SatResult::Unsat);
        let after = s.stats();
        assert_eq!(after.searches, before.searches);
        assert_eq!(after.spine_answers, before.spine_answers + 1);
        assert_eq!(after.implicant_answers, before.implicant_answers);
        assert!(s.implicant_stands());
        assert_eq!(s.implicant, standing);
        // Every step of the burst at 20 or above leaves the sum under 100
        // only for the spine's relaxation of `max ≥ 30`: the spine admits
        // it, the rule's branches do not, so the search says `Unsat`.
        let c20 = s.int(20);
        let c29 = s.int(29);
        let floor = s.pool_mut().min_ge(&terms, c20);
        let cap = s.pool_mut().max_le(&terms, c29);
        assert_eq!(s.check_assuming(&[floor, cap]).unwrap(), SatResult::Unsat);
        let searched = s.stats();
        assert_eq!(searched.searches, after.searches + 1);
        assert!(s.implicant_stands());
        assert_eq!(s.implicant, standing);
        // And goes on answering.
        assert_eq!(s.check().unwrap(), SatResult::Sat);
        assert_eq!(s.stats().searches, searched.searches);
    }

    #[test]
    fn a_spine_model_that_breaks_a_disjunctive_rule_goes_to_the_search() {
        // `max(fine) >= 30` alone has an empty spine, and the theory's
        // model of it leaves every step at its lower bound 0: the walk
        // cannot justify the rule under it, so the check is a search.
        let mut s = Solver::new();
        let (vars, _, rule) = burst_rule(&mut s);
        assert!(s.spine.is_empty());
        assert_eq!(s.check().unwrap(), SatResult::Sat);
        let stats = s.stats();
        assert_eq!((stats.searches, stats.spine_answers), (1, 0));
        let m = s.model().unwrap().clone();
        assert!(vars.iter().any(|&v| m.int_value(v).unwrap() >= 30));
        assert!(m.eval_bool(s.pool(), rule).unwrap());
    }

    #[test]
    fn a_fixed_value_the_implicant_admits_extends_it() {
        let mut s = Solver::new();
        let (vars, terms, _) = burst_rule(&mut s);
        let sum = s.add(&terms);
        let c100 = s.int(100);
        let total = s.eq(sum, c100);
        s.assert(total);
        assert_eq!(s.check().unwrap(), SatResult::Sat);
        assert!(s.implicant_stands());
        let standing = s.implicant.clone();
        // The model's own value is one the implicant admits.
        let value = s.model().unwrap().int_value(vars[0]).unwrap();
        let c = s.int(value);
        let eq = s.eq(terms[0], c);
        s.assert(eq);
        assert!(s.implicant_state == Implicant::Standing);
        assert_eq!(s.implicant.len(), standing.len() + 2);
        assert!(s.implicant.starts_with(&standing));
    }

    #[test]
    fn a_range_search_after_fixed_values_leaves_the_search_one_probe() {
        // Fig. 1b: the base check of each variable's range search, and the
        // bisection down to the extreme, run on the implicant; the probe
        // beyond each extreme meets the spine. Past 40 the sum it forces
        // refutes `fine3`; below the implicant's `fine3 >= 30` the spine's
        // model keeps the burst under 30, which only a search gets past.
        let mut s = Solver::new();
        let (vars, terms, _) = burst_rule(&mut s);
        let sum = s.add(&terms);
        let c100 = s.int(100);
        let total = s.eq(sum, c100);
        s.assert(total);
        for (t, val) in [(0usize, 20i64), (1, 15), (2, 25)] {
            let c = s.int(val);
            let eq = s.eq(terms[t], c);
            s.assert(eq);
        }
        let b = s.bounds(vars[3]).unwrap().unwrap();
        assert_eq!((b.lo, b.hi), (0, 40));
        let after = s.stats();
        assert!(after.implicant_answers > 0 && after.spine_answers > 0);
        assert!(
            after.searches <= 1,
            "{} searches for one hull",
            after.searches
        );
        // A fix the implicant's branch of the rule cannot take drops it; the
        // spine answers the next check and stands a new one.
        let c0 = s.int(0);
        let eq = s.eq(terms[3], c0);
        s.assert(eq);
        assert_eq!(s.check().unwrap(), SatResult::Sat);
        assert_eq!(s.model().unwrap().int_value(vars[4]), Some(40));
        assert_eq!(s.stats().searches, after.searches);
        assert!(s.implicant_stands());
    }

    #[test]
    fn a_retract_and_an_assertion_that_is_no_conjunction_drop_the_implicant() {
        let mut s = Solver::new();
        let (_, terms, _) = burst_rule(&mut s);
        assert_eq!(s.check().unwrap(), SatResult::Sat);
        s.push();
        assert!(s.implicant_stands(), "a push asserts nothing");
        let c10 = s.int(10);
        let low = s.pool_mut().min_le(&terms, c10);
        s.assert(low);
        assert!(!s.implicant_stands());
        assert_eq!(s.check().unwrap(), SatResult::Sat);
        assert!(s.implicant_stands());
        s.pop();
        assert!(!s.implicant_stands());
        let before = s.stats();
        assert_eq!(s.check().unwrap(), SatResult::Sat);
        let after = s.stats();
        assert_eq!(after.implicant_answers, before.implicant_answers);
        assert_eq!(
            after.searches + after.spine_answers,
            before.searches + before.spine_answers + 1
        );
    }

    /// The walk's two preferences for a true `Or` (DESIGN §10): a disjunct
    /// over pinned variables first, else the last. The rule's first
    /// disjunct is over the variable a `v == c` may pin, and the model
    /// makes both disjuncts true.
    #[test]
    fn the_walk_takes_a_pinned_disjunct_first_and_else_the_last() {
        for pin in [true, false] {
            let mut s = Solver::new();
            let x = s.int_var("x", 0, 10);
            let y = s.int_var("y", 0, 10);
            let (tx, ty) = (s.var(x), s.var(y));
            let c5 = s.int(5);
            let big = [s.ge(tx, c5), s.ge(ty, c5)];
            let rule = s.or(&big);
            let Term::Or(kids) = s.pool.get(rule) else {
                panic!("an Or of two comparisons is an Or");
            };
            let (first, last) = (kids[0], kids[1]);
            let first_var = if first == big[0] { x } else { y };
            s.assert(rule);
            if pin {
                let (t, c7) = (s.var(first_var), s.int(7));
                let fix = s.eq(t, c7);
                s.assert(fix);
            }
            // The one literal each disjunct forces, read off by the spine.
            let mut literal = |t| {
                let mut lits = Vec::new();
                assert!(spine(
                    &s.pool, &mut s.enc, &mut s.sat, t, true, &mut lits, None
                ));
                assert_eq!(lits.len(), 1);
                lits[0]
            };
            let (pinned_lit, last_lit) = (literal(first), literal(last));
            let model = Model {
                ints: [(x, 7), (y, 7)].into(),
                bools: BTreeMap::new(),
            };
            let mut out = Vec::new();
            assert!(read_implicant(
                &s.pool,
                &mut s.enc,
                &s.asserted,
                &s.spine,
                &mut s.walk,
                &model,
                &mut out
            ));
            let (taken, passed) = if pin {
                (pinned_lit, last_lit)
            } else {
                (last_lit, pinned_lit)
            };
            assert!(out.contains(&taken), "pin {pin}: {out:?} lacks {taken:?}");
            assert!(
                !out.contains(&passed),
                "pin {pin}: {out:?} holds {passed:?}"
            );
        }
    }

    #[test]
    fn a_model_that_leans_on_a_boolean_variable_leaves_no_implicant() {
        let mut s = Solver::new();
        let flag = s.bool_var("flag");
        let x = s.int_var("x", 0, 10);
        let (tf, tx) = (s.var(flag), s.var(x));
        let c5 = s.int(5);
        let ge = s.ge(tx, c5);
        let rule = s.implies(tf, ge);
        s.assert(rule);
        let nf = s.not(tf);
        let lt = s.not(ge);
        let other = s.implies(nf, lt);
        s.assert(other);
        for _ in 0..2 {
            assert_eq!(s.check().unwrap(), SatResult::Sat);
            assert!(!s.implicant_stands());
            let m = s.model().unwrap();
            assert_eq!(m.bool_value(flag), m.int_value(x).unwrap() >= 5);
        }
        assert_eq!(s.stats().implicant_answers, 0);
        assert_eq!(s.minimize(x).unwrap(), Some(0));
        assert_eq!(s.maximize(x).unwrap(), Some(10));
    }

    #[test]
    fn model_evaluation_is_total() {
        let mut s = Solver::new();
        let big = 1i64 << 62;
        let x = s.int_var("x", 0, big);
        let flag = s.bool_var("flag");
        let (tx, tf) = (s.var(x), s.var(flag));
        let top = s.int(big);
        let pin = s.eq(tx, top);
        s.assert(pin);
        assert_eq!(s.check().unwrap(), SatResult::Sat);
        let m = s.model().unwrap().clone();
        let doubled = s.mul_const(2, tx);
        let sum = s.add(&[tx, tx]);
        for t in [doubled, sum] {
            assert!(matches!(
                m.eval_int(s.pool(), t),
                Err(SolverError::Overflow(_))
            ));
        }
        let le = s.le(doubled, top);
        assert!(matches!(
            m.eval_bool(s.pool(), le),
            Err(SolverError::Overflow(_))
        ));
        for (int, boolean) in [(pin, tx), (tf, top)] {
            assert!(matches!(
                m.eval_int(s.pool(), int),
                Err(SolverError::InvalidQuery(_))
            ));
            assert!(matches!(
                m.eval_bool(s.pool(), boolean),
                Err(SolverError::InvalidQuery(_))
            ));
        }
        // A variable declared after the model was taken.
        let y = s.int_var("y", 0, 1);
        let ty = s.var(y);
        assert!(matches!(
            m.eval_int(s.pool(), ty),
            Err(SolverError::InvalidQuery(_))
        ));
        assert_eq!(m.eval_int(s.pool(), tx), Ok(big));
        assert_eq!(m.eval_bool(s.pool(), pin), Ok(true));
    }
}

#[cfg(test)]
mod pinned_tests {
    use super::*;

    /// `f > 100 → g ≥ 40` over `f, g ∈ [0, 300]`, checked once; the
    /// variables and the consequent.
    fn implication(s: &mut Solver) -> (VarId, VarId, TermId) {
        let f = s.int_var("f", 0, 300);
        let g = s.int_var("g", 0, 300);
        let (tf, tg) = (s.var(f), s.var(g));
        let (c100, c40) = (s.int(100), s.int(40));
        let (hot, busy) = (s.gt(tf, c100), s.ge(tg, c40));
        let rule = s.implies(hot, busy);
        s.assert(rule);
        assert_eq!(s.check().unwrap(), SatResult::Sat);
        (f, g, busy)
    }

    /// Asserts `v == c`.
    fn fix(s: &mut Solver, v: VarId, c: i64) {
        let (t, c) = (s.var(v), s.int(c));
        let eq = s.eq(t, c);
        s.assert(eq);
    }

    /// The spine literal of the comparison `t`.
    fn literal(s: &mut Solver, t: TermId) -> (u32, bool) {
        let mut lits = Vec::new();
        assert!(spine(
            &s.pool, &mut s.enc, &mut s.sat, t, true, &mut lits, None
        ));
        assert_eq!(lits.len(), 1);
        lits[0]
    }

    /// `v ≤ c`.
    fn at_most(s: &mut Solver, v: VarId, c: i64) -> TermId {
        let (t, c) = (s.var(v), s.int(c));
        s.le(t, c)
    }

    #[test]
    fn a_pinned_true_antecedent_puts_the_consequent_on_the_spine() {
        let mut s = Solver::new();
        let (f, g, busy) = implication(&mut s);
        let consequent = literal(&mut s, busy);
        assert!(!s.spine.contains(&consequent));
        fix(&mut s, f, 150);
        assert!(s.spine.contains(&consequent));
        assert_eq!(s.derived, 1);
        // The probe just past the consequent's bound is a spine refutation.
        let before = s.stats();
        let low = at_most(&mut s, g, 39);
        assert_eq!(s.check_assuming(&[low]).unwrap(), SatResult::Unsat);
        let after = s.stats();
        assert_eq!(after.searches, before.searches);
        assert_eq!(after.spine_answers, before.spine_answers + 1);
        assert_eq!(after.pinned_spine_answers, before.pinned_spine_answers + 1);
        assert_eq!(s.minimize(g).unwrap(), Some(40));
        assert_eq!(s.stats().searches, before.searches);
    }

    #[test]
    fn a_pinned_false_antecedent_derives_nothing() {
        let mut s = Solver::new();
        let (f, g, busy) = implication(&mut s);
        let consequent = literal(&mut s, busy);
        let before = s.spine.len();
        fix(&mut s, f, 50);
        // The fix's own two bounds, and nothing of the implication.
        assert_eq!(s.spine.len(), before + 2);
        assert!(!s.spine.contains(&consequent));
        assert_eq!(s.derived, 0);
        let low = at_most(&mut s, g, 39);
        assert_eq!(s.check_assuming(&[low]).unwrap(), SatResult::Sat);
        assert_eq!(s.minimize(g).unwrap(), Some(0));
    }

    #[test]
    fn a_disjunction_with_one_open_disjunct_contributes_that_disjunct() {
        let mut s = Solver::new();
        let vars: Vec<VarId> = (0..3).map(|i| s.int_var(&format!("x{i}"), 0, 10)).collect();
        let terms: Vec<TermId> = vars.iter().map(|&v| s.var(v)).collect();
        let c5 = s.int(5);
        let big: Vec<TermId> = terms.iter().map(|&t| s.ge(t, c5)).collect();
        let rule = s.or(&big);
        s.assert(rule);
        let open = literal(&mut s, big[1]);
        // Two disjuncts still open: nothing to derive.
        fix(&mut s, vars[0], 1);
        assert!(!s.spine.contains(&open));
        fix(&mut s, vars[2], 4);
        assert!(s.spine.contains(&open));
        assert_eq!(s.derived, 1);
        let before = s.stats();
        let low = at_most(&mut s, vars[1], 4);
        assert_eq!(s.check_assuming(&[low]).unwrap(), SatResult::Unsat);
        assert_eq!(s.stats().searches, before.searches);
        assert_eq!(s.minimize(vars[1]).unwrap(), Some(5));
    }

    #[test]
    fn retracting_the_fixing_frame_drops_the_derived_literal() {
        let mut s = Solver::new();
        let (f, g, busy) = implication(&mut s);
        let consequent = literal(&mut s, busy);
        let spine = s.spine.clone();
        s.push();
        fix(&mut s, f, 150);
        assert!(s.spine.contains(&consequent));
        s.pop();
        assert_eq!(s.spine, spine);
        assert_eq!(s.derived, 0);
        assert!(!s.walk.is_pinned(f));
        assert!(!s.walk.marked(consequent));
        // g ≤ 39 is satisfiable again, with f at 100 or below.
        let low = at_most(&mut s, g, 39);
        assert_eq!(s.check_assuming(&[low]).unwrap(), SatResult::Sat);
        assert!(s.model().unwrap().int_value(f).unwrap() <= 100);
        assert_eq!(s.minimize(g).unwrap(), Some(0));
        // A fix in a new frame derives it again.
        s.push();
        fix(&mut s, f, 101);
        assert!(s.spine.contains(&consequent));
        assert_eq!(s.check_assuming(&[low]).unwrap(), SatResult::Unsat);
        s.pop();
    }

    #[test]
    fn an_antecedent_whose_evaluation_overflows_derives_nothing() {
        // `x + x ≥ 1` at x = 2^62 is true, but its left side is 2^63, past
        // `i64`: the pins settle nothing, and the search answers.
        let mut s = Solver::new();
        let big = 1i64 << 62;
        let x = s.int_var("x", 0, big);
        let y = s.int_var("y", 0, 10);
        let (tx, ty) = (s.var(x), s.var(y));
        let (twice, c1, c5) = (s.add(&[tx, tx]), s.int(1), s.int(5));
        let (positive, busy) = (s.ge(twice, c1), s.ge(ty, c5));
        let rule = s.implies(positive, busy);
        s.assert(rule);
        let consequent = literal(&mut s, busy);
        fix(&mut s, x, big);
        assert!(!s.spine.contains(&consequent));
        assert_eq!(s.derived, 0);
        let low = at_most(&mut s, y, 4);
        let before = s.stats();
        assert_eq!(s.check_assuming(&[low]).unwrap(), SatResult::Unsat);
        assert_eq!(s.stats().pinned_spine_answers, before.pinned_spine_answers);
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
