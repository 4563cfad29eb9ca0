//! A CDCL SAT solver.
//!
//! Classic MiniSat-style architecture: two-watched-literal propagation,
//! first-UIP conflict analysis with clause learning, VSIDS variable
//! activities in an order heap with phase saving, Luby restarts,
//! learned-clause database reduction, and incremental solving under
//! *assumptions* (which is how the SMT layer implements `push`/`pop` frames
//! and feasibility probes without destroying learned clauses). A theory
//! plug-in ([`TheoryPropagator`]) is consulted at the search root and asked
//! for a final check at every complete assignment; a theory conflict is a
//! falsified lemma analysed like any other conflict, inside the search.

#![expect(
    clippy::indexing_slicing,
    reason = "CDCL kernel: watch lists, trail, and reason indices are maintained in lockstep by propagate/backtrack; every subscript is covered by the solver state invariant (vars allocated up front, clause refs validated on add)"
)]
#![expect(
    clippy::float_arithmetic,
    reason = "VSIDS activity scores are f64 heuristic state only; they order decisions but never feed feasibility answers, which stay exact-rational"
)]
#![expect(
    clippy::cast_possible_truncation,
    reason = "ids and positions are u32 by design (half the memory of usize on the hot structures); a solver with 2^32 variables, terms or trail entries is far outside any workload"
)]

use std::fmt;

use crate::error::SolverError;

/// A SAT variable.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SatVar(pub(crate) u32);

impl SatVar {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds a variable from a raw index, without allocating it in any
    /// solver. Literals over variables the solver never allocated are
    /// rejected by [`SatSolver::solve`] with an error, which is what tests
    /// of that rejection path use this constructor for.
    pub fn from_index(index: u32) -> SatVar {
        SatVar(index)
    }
}

impl fmt::Debug for SatVar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

/// A literal: a variable or its negation.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Lit(u32);

impl Lit {
    /// Builds a literal from a variable and a polarity.
    pub fn new(v: SatVar, positive: bool) -> Lit {
        Lit(v.0 << 1 | u32::from(!positive))
    }

    /// The underlying variable.
    pub fn var(self) -> SatVar {
        SatVar(self.0 >> 1)
    }

    /// Whether the literal is positive.
    pub fn is_positive(self) -> bool {
        self.0 & 1 == 0
    }

    /// The negated literal.
    pub fn negate(self) -> Lit {
        Lit(self.0 ^ 1)
    }

    fn code(self) -> usize {
        self.0 as usize
    }
}

impl std::ops::Not for Lit {
    type Output = Lit;
    fn not(self) -> Lit {
        self.negate()
    }
}

impl fmt::Debug for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}x{}",
            if self.is_positive() { "" } else { "-" },
            self.0 >> 1
        )
    }
}

/// Ternary assignment value.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum LBool {
    True,
    False,
    Undef,
}

impl LBool {
    fn from_bool(b: bool) -> LBool {
        if b {
            LBool::True
        } else {
            LBool::False
        }
    }
}

#[derive(Clone)]
struct Clause {
    lits: Vec<Lit>,
    learnt: bool,
    activity: f64,
}

type ClauseRef = usize;

#[derive(Clone, Copy)]
struct Watcher {
    clause: ClauseRef,
    /// Blocking literal: if true under the current assignment, skip the clause.
    blocker: Lit,
}

/// Outcome of a SAT query.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SatOutcome {
    /// A satisfying assignment was found.
    Sat,
    /// The formula (under the given assumptions) is unsatisfiable.
    Unsat,
    /// The theory's final check gave up ([`FinalCheck::Unknown`]); never
    /// returned by [`SatSolver::solve`].
    Unknown,
}

/// Statistics counters for a [`SatSolver`].
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct SatStats {
    /// Number of conflicts encountered.
    pub conflicts: u64,
    /// Number of decisions made.
    pub decisions: u64,
    /// Number of literals propagated.
    pub propagations: u64,
    /// Number of restarts performed.
    pub restarts: u64,
    /// Number of learnt clauses currently in the database (maintained as
    /// clauses attach and detach).
    pub learnts: usize,
    /// Learnt-database reduction rounds performed.
    pub reduce_dbs: u64,
    /// Learnt clauses evicted by reduction (root-satisfied leftovers plus
    /// the low-activity half).
    pub learnts_evicted: u64,
    /// Literals enqueued by the theory propagator ([`TheoryPropagator`])
    /// instead of by a decision or a clause.
    pub theory_propagations: u64,
    /// Theory reason clauses materialized on demand during conflict
    /// analysis (a subset of `theory_propagations`: only propagated
    /// literals actually resolved on during 1-UIP need an explanation).
    pub theory_explanations: u64,
}

/// Why a trail literal holds: it is a decision/assumption (`None`), it was
/// implied by a clause, or it was implied by the theory propagator and its
/// reason clause will be materialized lazily if conflict analysis ever
/// resolves on it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Reason {
    /// A decision, an assumption, or an unassigned variable.
    None,
    /// Implied by a clause (unit propagation or an asserting learnt).
    Clause(ClauseRef),
    /// Implied by the theory propagator; explanation is generated on demand.
    Theory,
}

/// The verdict of [`TheoryPropagator::final_check`] on a complete
/// assignment.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum FinalCheck {
    /// The theory accepts the assignment: the search answers `Sat`.
    Consistent,
    /// The theory refutes the assignment. The clause is a theory lemma —
    /// valid whatever the assignment — whose every literal is false under
    /// the current one.
    Conflict(Vec<Lit>),
    /// The theory could not decide within its budget: the search answers
    /// [`SatOutcome::Unknown`].
    Unknown,
}

/// A theory plug-in for [`SatSolver::solve_with`]. The search calls it at
/// two points:
///
/// * **Consult, at the search root** — unit propagation at a fixpoint,
///   every assumption placed, no decisions on the trail; once per solve
///   plus once per backjump to the assumption boundary.
///   [`Self::propagate`] may derive literals the theory implies under the
///   current assignment, which the SAT core enqueues with a lazy theory
///   reason. A consult partitions the atom registry (1–2 µs measured), so
///   running it after every decision's fixpoint would cost O(atoms) per
///   decision; at the root it prices in where the payoff is, pre-placing
///   the consequences of unit-asserted facts below the whole search.
/// * **Final check, at a complete assignment** — every variable with a
///   live occurrence assigned, no conflict. [`Self::final_check`] accepts
///   the assignment, gives up, or refutes it with a falsified lemma, which
///   the search attaches, runs through first-UIP analysis and backjumps
///   from like a propositional conflict: it continues where it stood
///   instead of starting over, and the hook is asked again at the next
///   complete assignment.
///
/// # Contract
///
/// * [`Self::propagate`] must return implied literals in a deterministic
///   order, and every antecedent of an implied literal must already be
///   assigned on the trail (the SAT core enqueues the implied literal
///   *after* its antecedents, which first-UIP analysis relies on).
/// * [`Self::explain`] must return the reason clause for a literal it
///   previously returned from `propagate`: the implied literal in slot 0,
///   followed by the negated antecedents, every one of which was false on
///   the trail when the literal was enqueued. The clause must be valid
///   independently of the current assignment (a theory lemma).
/// * Every literal of a [`FinalCheck::Conflict`] lemma must be false under
///   the assignment the hook was shown; anything else is reported as
///   [`SolverError::Internal`], never searched on. The lemma must be a
///   function of that assignment alone, and the hook must eventually stop
///   refuting (each lemma excludes the assignment it refutes, so a theory
///   that only refutes inconsistent assignments does).
pub trait TheoryPropagator {
    /// Appends to `out` (handed over empty) the literals implied by the
    /// theory under the current assignment. An already-assigned literal is
    /// allowed (it is skipped); an unallocated variable is an error.
    fn propagate(&mut self, sat: &SatSolver, out: &mut Vec<Lit>) -> Result<(), SolverError>;

    /// The reason clause for a literal previously returned by
    /// [`Self::propagate`], with the implied literal in slot 0.
    fn explain(&mut self, lit: Lit) -> Result<Vec<Lit>, SolverError>;

    /// Judges the complete assignment `sat` holds. The default accepts it:
    /// a plug-in that only propagates.
    fn final_check(&mut self, _sat: &SatSolver) -> Result<FinalCheck, SolverError> {
        Ok(FinalCheck::Consistent)
    }
}

/// An indexed binary max-heap of variables keyed on VSIDS activity: the
/// root is the variable with the highest activity, the lowest index among
/// equals. Activities live in the solver; every method that compares takes
/// them as a slice, and a caller that changes one says so
/// ([`Self::raised`], [`Self::lowered`], [`Self::rebuild`]).
#[derive(Default)]
struct VarHeap {
    heap: Vec<SatVar>,
    /// Position of each variable in `heap`, or [`Self::ABSENT`].
    pos: Vec<u32>,
}

impl VarHeap {
    const ABSENT: u32 = u32::MAX;

    /// Makes room for one more variable (not in the heap).
    fn grow(&mut self) {
        self.pos.push(Self::ABSENT);
    }

    /// Whether `a` is decided before `b`. `total_cmp`: activities are never
    /// NaN, but a total order keeps this panic-free and float `==` out.
    fn before(act: &[f64], a: SatVar, b: SatVar) -> bool {
        act[b.index()]
            .total_cmp(&act[a.index()])
            .then(a.cmp(&b))
            .is_lt()
    }

    fn place(&mut self, at: usize, v: SatVar) {
        self.heap[at] = v;
        self.pos[v.index()] = at as u32;
    }

    fn sift_up(&mut self, act: &[f64], mut at: usize) {
        let v = self.heap[at];
        while at > 0 {
            let parent = (at - 1) / 2;
            if !Self::before(act, v, self.heap[parent]) {
                break;
            }
            self.place(at, self.heap[parent]);
            at = parent;
        }
        self.place(at, v);
    }

    fn sift_down(&mut self, act: &[f64], mut at: usize) {
        let v = self.heap[at];
        loop {
            let left = 2 * at + 1;
            if left >= self.heap.len() {
                break;
            }
            let right = left + 1;
            let child = if right < self.heap.len()
                && Self::before(act, self.heap[right], self.heap[left])
            {
                right
            } else {
                left
            };
            if !Self::before(act, self.heap[child], v) {
                break;
            }
            self.place(at, self.heap[child]);
            at = child;
        }
        self.place(at, v);
    }

    /// Adds `v` unless it is already in the heap.
    fn insert(&mut self, act: &[f64], v: SatVar) {
        if self.pos[v.index()] == Self::ABSENT {
            self.heap.push(v);
            self.sift_up(act, self.heap.len() - 1);
        }
    }

    /// `v`'s activity went up.
    fn raised(&mut self, act: &[f64], v: SatVar) {
        let at = self.pos[v.index()];
        if at != Self::ABSENT {
            self.sift_up(act, at as usize);
        }
    }

    /// `v`'s activity went down.
    fn lowered(&mut self, act: &[f64], v: SatVar) {
        let at = self.pos[v.index()];
        if at != Self::ABSENT {
            self.sift_down(act, at as usize);
        }
    }

    /// Restores the heap after every activity changed at once (a rescale
    /// can turn two distinct activities into a tie, which the index breaks).
    fn rebuild(&mut self, act: &[f64]) {
        for at in (0..self.heap.len() / 2).rev() {
            self.sift_down(act, at);
        }
    }

    /// Removes and returns the first variable in decision order.
    fn pop(&mut self, act: &[f64]) -> Option<SatVar> {
        if self.heap.is_empty() {
            return None;
        }
        let top = self.heap.swap_remove(0);
        self.pos[top.index()] = Self::ABSENT;
        if !self.heap.is_empty() {
            self.sift_down(act, 0);
        }
        Some(top)
    }
}

/// The CDCL SAT solver.
pub struct SatSolver {
    clauses: Vec<Clause>,
    free_clauses: Vec<ClauseRef>,
    watches: Vec<Vec<Watcher>>,
    assigns: Vec<LBool>,
    polarity: Vec<bool>,
    activity: Vec<f64>,
    reason: Vec<Reason>,
    level: Vec<u32>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    /// The VSIDS decision order. Every unassigned variable with a live
    /// occurrence is in it; assigned and zero-occurrence ones may linger
    /// and are dropped when they surface in [`Self::pick_branch`].
    order: VarHeap,
    /// Variables retired by [`Self::retract`] and available for reuse by
    /// [`Self::new_var`]. Frame selectors churn at the rate of push/pop —
    /// hundreds per decoded record in a long-lived session — and without
    /// recycling the per-variable tables would grow forever.
    free_vars: Vec<SatVar>,
    /// Per selector ([`Self::new_selector`]; `None` for every other
    /// variable), the clauses attached with a literal over it, which is
    /// what lets [`Self::retract`] visit a frame's clauses and not the
    /// database. Entries go stale when a clause is detached early (database
    /// reduction, an inner frame's retraction) and its slot reused, so a
    /// reader re-checks that the clause mentions the selector; a list is
    /// compacted when stale entries outnumber live ones.
    selector_clauses: Vec<Option<Vec<ClauseRef>>>,
    /// Live-clause occurrence count per variable. A variable with zero
    /// occurrences appears in no attached clause, so no assignment to it can
    /// falsify anything: `pick_branch` leaves it undefined. This is what
    /// keeps long-lived sessions honest — after [`Self::retract`] deletes a
    /// frame's clauses, the frame's Tseitin/atom variables drop to zero
    /// occurrences and stop being decided, so the SMT layer never hands
    /// their (stale) theory atoms to the theory solver again.
    occ: Vec<u32>,
    var_inc: f64,
    cla_inc: f64,
    ok: bool,
    /// Set when a malformed clause (unallocated variable) was added; makes
    /// every subsequent [`Self::solve`] fail instead of indexing out of range.
    invalid: Option<SolverError>,
    seen: Vec<bool>,
    /// Buffer a theory consult fills, kept so consults allocate nothing.
    theory_implied: Vec<Lit>,
    stats: SatStats,
    max_learnts: usize,
}

const VAR_DECAY: f64 = 1.0 / 0.95;
const CLA_DECAY: f64 = 1.0 / 0.999;

impl Default for SatSolver {
    fn default() -> Self {
        Self::new()
    }
}

impl SatSolver {
    /// Creates an empty solver.
    pub fn new() -> SatSolver {
        SatSolver {
            clauses: Vec::new(),
            free_clauses: Vec::new(),
            watches: Vec::new(),
            assigns: Vec::new(),
            polarity: Vec::new(),
            activity: Vec::new(),
            reason: Vec::new(),
            level: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            order: VarHeap::default(),
            free_vars: Vec::new(),
            selector_clauses: Vec::new(),
            occ: Vec::new(),
            var_inc: 1.0,
            cla_inc: 1.0,
            ok: true,
            invalid: None,
            seen: Vec::new(),
            theory_implied: Vec::new(),
            stats: SatStats::default(),
            max_learnts: 4096,
        }
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.assigns.len()
    }

    /// Current statistics.
    pub fn stats(&self) -> SatStats {
        self.stats
    }

    /// Number of live (attached) clauses in the database, problem and learnt
    /// alike. Retracting a frame must return this to its pre-frame value —
    /// the invariant the session-layer regression tests assert.
    pub fn num_live_clauses(&self) -> usize {
        self.clauses.iter().filter(|c| !c.lits.is_empty()).count()
    }

    /// Allocates a variable: a recycled one retired by [`Self::retract`] if
    /// available (reset to a fresh state — no clause mentions it, so reuse
    /// is invisible to the search), else a brand-new slot.
    pub fn new_var(&mut self) -> SatVar {
        if let Some(v) = self.free_vars.pop() {
            let i = v.index();
            debug_assert_eq!(self.assigns[i], LBool::Undef);
            debug_assert_eq!(self.occ[i], 0);
            self.polarity[i] = false;
            self.activity[i] = 0.0;
            // A retired variable may still sit in the order heap, above
            // where its reset activity belongs.
            self.order.lowered(&self.activity, v);
            self.reason[i] = Reason::None;
            self.level[i] = 0;
            self.seen[i] = false;
            return v;
        }
        let v = SatVar(self.assigns.len() as u32);
        self.assigns.push(LBool::Undef);
        self.polarity.push(false);
        self.activity.push(0.0);
        self.reason.push(Reason::None);
        self.level.push(0);
        self.seen.push(false);
        self.occ.push(0);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.order.grow();
        self.selector_clauses.push(None);
        v
    }

    /// Allocates a frame *selector*: a variable whose clauses
    /// [`Self::retract`] can later delete together. The solver keeps, for a
    /// selector only, the list of clauses that mention it.
    pub fn new_selector(&mut self) -> SatVar {
        let v = self.new_var();
        self.selector_clauses[v.index()] = Some(Vec::new());
        v
    }

    fn value_lit(&self, l: Lit) -> LBool {
        match self.assigns[l.var().index()] {
            LBool::Undef => LBool::Undef,
            LBool::True => LBool::from_bool(l.is_positive()),
            LBool::False => LBool::from_bool(!l.is_positive()),
        }
    }

    /// The value a variable was actually *assigned* during search, or `None`
    /// for don't-care variables. The SMT layer only hands assigned theory
    /// atoms to the theory solver.
    pub fn assigned_value(&self, v: SatVar) -> Option<bool> {
        match self.assigns[v.index()] {
            LBool::True => Some(true),
            LBool::False => Some(false),
            LBool::Undef => None,
        }
    }

    /// Whether a variable's current assignment came from the theory
    /// propagator (and has not yet been rewritten to a learnt reason
    /// clause by conflict analysis).
    ///
    /// The SMT layer uses this to *exclude* theory-propagated literals from
    /// the conjunction it hands to the theory check: such a literal is
    /// entailed by the ordinary assertions below it on the trail, so
    /// re-asserting it into the tableau cannot change the verdict — it only
    /// inflates the check (one no-op bound assert per propagated literal).
    pub fn reason_is_theory(&self, v: SatVar) -> bool {
        self.assigns[v.index()] != LBool::Undef && self.reason[v.index()] == Reason::Theory
    }

    /// Whether a variable occurs in at least one live attached clause.
    ///
    /// Zero-occurrence variables are don't-cares: `pick_branch` never
    /// decides them, no watched clause reacts to them, and assigning them
    /// cannot produce a unit propagation or a conflict. A theory propagator
    /// can therefore skip them when choosing candidates — enqueueing a
    /// zero-occurrence literal is pure trail traffic with no search effect.
    pub fn is_branchable(&self, v: SatVar) -> bool {
        self.occ.get(v.index()).is_some_and(|&n| n > 0)
    }

    /// The model value of a variable after a `Sat` outcome.
    pub fn model_value(&self, v: SatVar) -> bool {
        match self.assigns[v.index()] {
            LBool::True => true,
            LBool::False => false,
            // Don't-care variables keep their saved phase.
            LBool::Undef => self.polarity[v.index()],
        }
    }

    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    /// Adds a clause at the root level. Returns `false` if the formula became
    /// trivially unsatisfiable.
    ///
    /// A clause referencing an unallocated variable is rejected: the clause
    /// database is marked invalid and every later [`Self::solve`] call
    /// returns [`SolverError::InvalidClause`] instead of panicking.
    pub fn add_clause(&mut self, lits: &[Lit]) -> bool {
        if lits.iter().any(|l| l.var().index() >= self.assigns.len()) {
            self.invalid = Some(SolverError::InvalidClause(
                "clause references an unallocated variable",
            ));
            return false;
        }
        // Adding a clause invalidates any in-progress search state (and any
        // model from a previous `solve`).
        self.cancel_until(0);
        if !self.ok {
            return false;
        }
        let mut c: Vec<Lit> = lits.to_vec();
        c.sort_unstable();
        c.dedup();
        // Remove literals false at level 0; detect tautologies & satisfied.
        let mut out: Vec<Lit> = Vec::with_capacity(c.len());
        for (i, &l) in c.iter().enumerate() {
            if i + 1 < c.len() && c[i + 1] == !l {
                return true; // tautology: contains l and ¬l (sorted adjacently)
            }
            match self.value_lit(l) {
                LBool::True => return true, // already satisfied at level 0
                LBool::False => {}
                LBool::Undef => out.push(l),
            }
        }
        match out.len() {
            0 => {
                self.ok = false;
                false
            }
            1 => {
                self.unchecked_enqueue(out[0], Reason::None);
                self.ok = self.propagate().is_none();
                self.ok
            }
            _ => {
                self.attach_clause(out, false);
                true
            }
        }
    }

    fn alloc_clause(&mut self, lits: Vec<Lit>, learnt: bool) -> ClauseRef {
        let c = Clause {
            lits,
            learnt,
            activity: 0.0,
        };
        if let Some(cr) = self.free_clauses.pop() {
            self.clauses[cr] = c;
            cr
        } else {
            self.clauses.push(c);
            self.clauses.len() - 1
        }
    }

    fn attach_clause(&mut self, lits: Vec<Lit>, learnt: bool) -> ClauseRef {
        debug_assert!(lits.len() >= 2);
        let (l0, l1) = (lits[0], lits[1]);
        self.stats.learnts += usize::from(learnt);
        let cr = self.alloc_clause(lits, learnt);
        for i in 0..self.clauses[cr].lits.len() {
            let v = self.clauses[cr].lits[i].var();
            self.occ[v.index()] += 1;
            let occ = self.occ[v.index()] as usize;
            if occ == 1 && self.assigns[v.index()] == LBool::Undef {
                self.order.insert(&self.activity, v);
            }
            if let Some(list) = &mut self.selector_clauses[v.index()] {
                list.push(cr);
                // Mostly stale (the slack spares short lists): compact.
                if list.len() > 2 * occ + 32 {
                    let clauses = &self.clauses;
                    list.retain(|&c| clauses[c].lits.iter().any(|l| l.var() == v));
                    list.sort_unstable();
                    list.dedup();
                }
            }
        }
        self.watches[(!l0).code()].push(Watcher {
            clause: cr,
            blocker: l1,
        });
        self.watches[(!l1).code()].push(Watcher {
            clause: cr,
            blocker: l0,
        });
        cr
    }

    /// Frees clause `cr`: drops its occurrences and recycles its slot. Its
    /// two watchers stay behind until the caller, having freed its whole
    /// batch, calls [`Self::sweep_watches`] with the same `unwatched`.
    fn free_clause(&mut self, cr: ClauseRef, unwatched: &mut Vec<SatVar>) {
        for i in 0..self.clauses[cr].lits.len() {
            let v = self.clauses[cr].lits[i].var();
            self.occ[v.index()] = self.occ[v.index()].saturating_sub(1);
            // `seen` is all false outside `analyze`; here it marks the
            // variables already noted, so each is swept once.
            if i < 2 && !self.seen[v.index()] {
                self.seen[v.index()] = true;
                unwatched.push(v);
            }
        }
        self.stats.learnts -= usize::from(self.clauses[cr].learnt);
        self.clauses[cr].lits.clear();
        self.free_clauses.push(cr);
    }

    /// Removes the watchers of freed clauses with one pass over each watch
    /// list of each variable in `unwatched`. Every watcher of a live clause
    /// points at a non-empty slot, so the empty slots name exactly the
    /// clauses freed since the last sweep.
    fn sweep_watches(&mut self, unwatched: Vec<SatVar>) {
        let clauses = &self.clauses;
        for v in unwatched {
            self.seen[v.index()] = false;
            for positive in [true, false] {
                self.watches[Lit::new(v, positive).code()]
                    .retain(|w| !clauses[w.clause].lits.is_empty());
            }
        }
    }

    /// Physically removes every clause mentioning `v` from the database and
    /// retires the variable.
    ///
    /// This is the retraction primitive behind [`crate::Solver::retract`]:
    /// the SMT layer guards every frame assertion with a fresh *selector*
    /// variable, so deleting all clauses over the selector removes exactly
    /// the frame's assertions **and** every learnt clause whose derivation
    /// resolved through them. Soundness rests on two invariants of the frame
    /// discipline:
    ///
    /// * selectors are only ever *assumed* (at non-root pseudo-decision
    ///   levels), never asserted, so conflict analysis can never drop the
    ///   `¬selector` tag from a frame-dependent learnt clause via its
    ///   root-level-literal filter;
    /// * a guarded clause `¬sel ∨ …` can only ever imply `¬sel` itself at
    ///   the root level (implying anything else would need `sel` true at
    ///   the root, which never happens), so no root-level fact over a
    ///   non-selector variable depends on a retracted clause.
    ///
    /// Only a selector ([`Self::new_selector`]) can be retracted: the cost
    /// is that of the clauses attached over it, not of the database. Clause
    /// slots are recycled through the free list and each touched watch list
    /// is repaired in one pass, so database size stays bounded by the
    /// *live* assertions plus the learnt-clause cap.
    pub fn retract(&mut self, v: SatVar) {
        let Some(listed) = self
            .selector_clauses
            .get_mut(v.index())
            .and_then(Option::take)
        else {
            debug_assert!(false, "retract of a variable that is not a live selector");
            return;
        };
        // Removing clauses invalidates in-progress search state exactly like
        // adding clauses does.
        self.cancel_until(0);
        let mut unwatched = Vec::new();
        for cr in listed {
            // Skips a stale entry — a slot freed early is empty or holds a
            // later clause, listed again if it mentions `v` — and a repeat,
            // freed a moment ago.
            if !self.clauses[cr].lits.iter().any(|l| l.var() == v) {
                continue;
            }
            // A root-level implication may hold this clause as its
            // reason; drop the dangling reference before detaching.
            let l0 = self.clauses[cr].lits[0];
            if self.reason[l0.var().index()] == Reason::Clause(cr) {
                self.reason[l0.var().index()] = Reason::None;
            }
            self.free_clause(cr, &mut unwatched);
        }
        self.sweep_watches(unwatched);
        self.reason[v.index()] = Reason::None;
        // Retire the variable. With every clause mentioning it gone its
        // occurrence count is zero, so `pick_branch` will never decide it;
        // if it is also unassigned it can be recycled outright by
        // [`Self::new_var`]. (A selector root-assigned `¬sel` by an earlier
        // propagation stays on the trail and is simply left retired.)
        if self.assigns[v.index()] == LBool::Undef {
            self.free_vars.push(v);
        }
        // Decay surviving learnt activities: bumps earned proving facts
        // about the retracted frame should not dominate branching in the
        // post-retraction search. Doubling the increment halves every
        // standing activity relative to the bumps still to come — not
        // zeroing, so frame-independent lemmas stay warm while fresh
        // conflicts overtake.
        self.cla_inc *= 2.0;
        if self.cla_inc > 1e20 {
            self.rescale_clause_activities();
        }
    }

    fn unchecked_enqueue(&mut self, l: Lit, from: Reason) {
        debug_assert_eq!(self.value_lit(l), LBool::Undef);
        let v = l.var().index();
        self.assigns[v] = LBool::from_bool(l.is_positive());
        self.level[v] = self.decision_level();
        self.reason[v] = from;
        self.trail.push(l);
    }

    /// Unit propagation. Returns a conflicting clause if one arises.
    fn propagate(&mut self) -> Option<ClauseRef> {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;

            let mut i = 0;
            let mut ws = std::mem::take(&mut self.watches[p.code()]);
            let mut conflict: Option<ClauseRef> = None;
            'watchers: while i < ws.len() {
                let w = ws[i];
                if self.value_lit(w.blocker) == LBool::True {
                    i += 1;
                    continue;
                }
                let cr = w.clause;
                // Normalize so that lits[1] == ¬p.
                {
                    let c = &mut self.clauses[cr];
                    if c.lits[0] == !p {
                        c.lits.swap(0, 1);
                    }
                    debug_assert_eq!(c.lits[1], !p);
                }
                let first = self.clauses[cr].lits[0];
                if first != w.blocker && self.value_lit(first) == LBool::True {
                    ws[i] = Watcher {
                        clause: cr,
                        blocker: first,
                    };
                    i += 1;
                    continue;
                }
                // Look for a new literal to watch.
                let len = self.clauses[cr].lits.len();
                for k in 2..len {
                    let lk = self.clauses[cr].lits[k];
                    if self.value_lit(lk) != LBool::False {
                        self.clauses[cr].lits.swap(1, k);
                        self.watches[(!lk).code()].push(Watcher {
                            clause: cr,
                            blocker: first,
                        });
                        ws.swap_remove(i);
                        continue 'watchers;
                    }
                }
                // No new watch: clause is unit or conflicting.
                ws[i] = Watcher {
                    clause: cr,
                    blocker: first,
                };
                i += 1;
                if self.value_lit(first) == LBool::False {
                    conflict = Some(cr);
                    self.qhead = self.trail.len();
                    break;
                }
                self.unchecked_enqueue(first, Reason::Clause(cr));
            }
            debug_assert!(self.watches[p.code()].is_empty());
            self.watches[p.code()] = ws;
            if conflict.is_some() {
                return conflict;
            }
        }
        None
    }

    fn var_bump(&mut self, v: SatVar) {
        self.activity[v.index()] += self.var_inc;
        if self.activity[v.index()] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
            self.order.rebuild(&self.activity);
        } else {
            self.order.raised(&self.activity, v);
        }
    }

    fn cla_bump(&mut self, cr: ClauseRef) {
        self.clauses[cr].activity += self.cla_inc;
        if self.clauses[cr].activity > 1e20 {
            self.rescale_clause_activities();
        }
    }

    fn rescale_clause_activities(&mut self) {
        for c in &mut self.clauses {
            c.activity *= 1e-20;
        }
        self.cla_inc *= 1e-20;
    }

    /// Materializes the reason clause of a theory-implied literal, on
    /// demand: conflict analysis is about to resolve on `pl`, so the lazy
    /// [`Reason::Theory`] marker must become a real clause.
    ///
    /// The clause is attached as a learnt (it is a theory lemma, valid
    /// beyond this conflict) and installed as `pl`'s reason so later
    /// resolutions and `is_reason` bookkeeping see an ordinary clause.
    /// Attaching mid-analysis is sound even though the watched literals may
    /// be false under the current assignment: a fully falsified clause is
    /// always scanned when its last watch falsifies, so the clause can only
    /// miss *early* unit propagations, never a conflict.
    fn explain_theory(
        &mut self,
        pl: Lit,
        prop: &mut Option<&mut dyn TheoryPropagator>,
    ) -> Result<ClauseRef, SolverError> {
        let Some(p) = prop.as_deref_mut() else {
            return Err(SolverError::Internal(
                "theory-implied literal resolved without a propagator",
            ));
        };
        let expl = p.explain(pl)?;
        if expl.first() != Some(&pl) {
            return Err(SolverError::Internal(
                "theory explanation must start with the implied literal",
            ));
        }
        // A unit explanation cannot occur: a propagation above the root
        // level always carries a frame guard or an antecedent literal (see
        // the propagator contract), and root-level literals are never
        // resolved on.
        if expl.len() < 2 {
            return Err(SolverError::Internal(
                "theory explanation for a non-root literal has no antecedents",
            ));
        }
        self.stats.theory_explanations += 1;
        let cr = self.attach_clause(expl, true);
        self.reason[pl.var().index()] = Reason::Clause(cr);
        Ok(cr)
    }

    /// First-UIP conflict analysis. Returns the learnt clause (asserting
    /// literal first) and the backtrack level.
    ///
    /// Resolving on a theory-implied literal materializes its reason clause
    /// lazily via `prop` ([`Self::explain_theory`]).
    ///
    /// `Err` signals a broken trail invariant (a resolved non-decision
    /// literal without a reason clause); reported instead of panicking
    /// because this is the innermost loop of every `check()`.
    fn analyze(
        &mut self,
        mut conflict: ClauseRef,
        prop: &mut Option<&mut dyn TheoryPropagator>,
    ) -> Result<(Vec<Lit>, u32), SolverError> {
        let mut learnt: Vec<Lit> = vec![Lit::new(SatVar(0), true)]; // placeholder slot 0
        let mut path_count = 0u32;
        let mut p: Option<Lit> = None;
        let mut index = self.trail.len();

        loop {
            self.cla_bump(conflict);
            let lits: Vec<Lit> = self.clauses[conflict].lits.clone();
            let start = usize::from(p.is_some());
            for &q in &lits[start..] {
                let v = q.var();
                if !self.seen[v.index()] && self.level[v.index()] > 0 {
                    self.var_bump(v);
                    self.seen[v.index()] = true;
                    if self.level[v.index()] >= self.decision_level() {
                        path_count += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Pick the next trail literal to resolve on.
            loop {
                index -= 1;
                if self.seen[self.trail[index].var().index()] {
                    break;
                }
            }
            let pl = self.trail[index];
            self.seen[pl.var().index()] = false;
            path_count -= 1;
            if path_count == 0 {
                p = Some(pl);
                break;
            }
            conflict = match self.reason[pl.var().index()] {
                Reason::Clause(r) => r,
                Reason::Theory => self.explain_theory(pl, prop)?,
                Reason::None => {
                    return Err(SolverError::Internal(
                        "resolved non-decision literal has no reason clause",
                    ))
                }
            };
            p = Some(pl);
        }
        let Some(uip) = p else {
            return Err(SolverError::Internal("conflict analysis found no UIP"));
        };
        learnt[0] = !uip;

        // Simple clause minimization: drop literals implied by the rest.
        // Theory-implied literals with an unmaterialized reason are simply
        // kept — sound, and materializing just for minimization would cost
        // more than the literal saves.
        let mut keep = vec![true; learnt.len()];
        for i in 1..learnt.len() {
            let v = learnt[i].var();
            if let Reason::Clause(r) = self.reason[v.index()] {
                let all_seen = self.clauses[r]
                    .lits
                    .iter()
                    .skip(1)
                    .all(|&l| self.seen[l.var().index()] || self.level[l.var().index()] == 0);
                if all_seen {
                    keep[i] = false;
                }
            }
        }
        let learnt: Vec<Lit> = learnt
            .iter()
            .enumerate()
            .filter(|&(i, _)| keep[i])
            .map(|(_, &l)| l)
            .collect();

        for &l in &learnt {
            self.seen[l.var().index()] = false;
        }
        // Also clear any stragglers (minimization may leave seen bits set).
        for &l in self.trail.iter() {
            self.seen[l.var().index()] = false;
        }

        let bt_level = if learnt.len() == 1 {
            0
        } else {
            // Second-highest level in the clause.
            let mut max_i = 1;
            for i in 2..learnt.len() {
                if self.level[learnt[i].var().index()] > self.level[learnt[max_i].var().index()] {
                    max_i = i;
                }
            }
            self.level[learnt[max_i].var().index()]
        };
        Ok((learnt, bt_level))
    }

    fn cancel_until(&mut self, lvl: u32) {
        if self.decision_level() <= lvl {
            return;
        }
        let bound = self.trail_lim[lvl as usize];
        for i in (bound..self.trail.len()).rev() {
            let l = self.trail[i];
            let v = l.var().index();
            self.polarity[v] = l.is_positive();
            self.assigns[v] = LBool::Undef;
            self.reason[v] = Reason::None;
            if self.occ[v] > 0 {
                self.order.insert(&self.activity, l.var());
            }
        }
        self.trail.truncate(bound);
        self.trail_lim.truncate(lvl as usize);
        self.qhead = self.trail.len();
    }

    /// The next decision: the unassigned variable with a live occurrence
    /// that has the highest activity (the lowest index among equals), at
    /// its saved phase — or `None` when the assignment is complete.
    fn pick_branch(&mut self) -> Option<Lit> {
        while let Some(v) = self.order.pop(&self.activity) {
            // Zero-occurrence variables are don't-cares: nothing live
            // mentions them, so deciding them can neither satisfy nor
            // falsify a clause. Skipping them keeps the model *partial*
            // over retired frames' variables — once every occurring
            // variable is assigned and propagation is at fixpoint with no
            // conflict, every live clause is satisfied.
            if self.assigns[v.index()] == LBool::Undef && self.occ[v.index()] > 0 {
                return Some(Lit::new(v, self.polarity[v.index()]));
            }
        }
        None
    }

    /// Whether a clause contains a literal true at the root level — such a
    /// clause is permanently satisfied and can never propagate again. The
    /// typical source is a retired frame selector: retiring assigns `¬sel`
    /// at the root, so anything still mentioning `¬sel` positively is dead
    /// weight (clauses *mentioning the variable* are deleted eagerly by
    /// [`Self::retract`]; this catches clauses rooted on other
    /// root-assigned facts, e.g. theory blocking units).
    fn root_satisfied(&self, cr: ClauseRef) -> bool {
        self.clauses[cr]
            .lits
            .iter()
            .any(|&l| self.value_lit(l) == LBool::True && self.level[l.var().index()] == 0)
    }

    /// Learnt-database reduction, retract-aware: root-satisfied learnts are
    /// evicted unconditionally first (they are dead, not merely cold), then
    /// the lowest-activity half of the remaining non-binary learnts goes.
    fn reduce_db(&mut self) {
        self.stats.reduce_dbs += 1;
        let mut evicted: Vec<ClauseRef> = Vec::new();
        let mut learnts: Vec<ClauseRef> = Vec::new();
        for cr in 0..self.clauses.len() {
            if !self.clauses[cr].learnt || self.clauses[cr].lits.is_empty() || self.is_reason(cr) {
                continue;
            }
            if self.root_satisfied(cr) {
                evicted.push(cr);
            } else if self.clauses[cr].lits.len() > 2 {
                learnts.push(cr);
            }
        }
        learnts.sort_by(|&a, &b| {
            self.clauses[a]
                .activity
                .total_cmp(&self.clauses[b].activity)
        });
        learnts.truncate(learnts.len() / 2);
        evicted.extend(learnts);
        self.stats.learnts_evicted += evicted.len() as u64;
        let mut unwatched = Vec::new();
        for cr in evicted {
            self.free_clause(cr, &mut unwatched);
        }
        self.sweep_watches(unwatched);
    }

    fn is_reason(&self, cr: ClauseRef) -> bool {
        if self.clauses[cr].lits.is_empty() {
            return false;
        }
        let l0 = self.clauses[cr].lits[0];
        self.reason[l0.var().index()] == Reason::Clause(cr) && self.value_lit(l0) == LBool::True
    }

    /// Solves under assumptions. Learned clauses persist across calls.
    ///
    /// `Err` means the query could not be decided at all: the clause
    /// database is malformed (see [`Self::add_clause`]) or an internal
    /// invariant broke mid-search. This is distinct from `Unsat`.
    pub fn solve(&mut self, assumptions: &[Lit]) -> Result<SatOutcome, SolverError> {
        self.solve_with(assumptions, None)
    }

    /// [`Self::solve`] with an optional [`TheoryPropagator`].
    ///
    /// When `prop` is `Some`, the propagator is consulted at the search
    /// root: unit propagation at a fixpoint, all assumptions placed, and
    /// no decisions taken (see [`TheoryPropagator`] for why not deeper).
    /// Implied literals it returns are enqueued with a lazy theory reason
    /// (`Reason::Theory`); the reason clause is only materialized (via
    /// [`TheoryPropagator::explain`]) if conflict analysis resolves on the
    /// literal. At a complete assignment the propagator's final check
    /// decides: `Sat` is returned only for an assignment it accepted,
    /// [`SatOutcome::Unknown`] when it gave up, and a refutation is
    /// analysed as a conflict, after which the search goes on.
    pub fn solve_with(
        &mut self,
        assumptions: &[Lit],
        mut prop: Option<&mut dyn TheoryPropagator>,
    ) -> Result<SatOutcome, SolverError> {
        if let Some(e) = self.invalid {
            return Err(e);
        }
        if assumptions
            .iter()
            .any(|l| l.var().index() >= self.assigns.len())
        {
            return Err(SolverError::InvalidClause(
                "assumption references an unallocated variable",
            ));
        }
        self.cancel_until(0);
        if !self.ok {
            return Ok(SatOutcome::Unsat);
        }
        if self.propagate().is_some() {
            self.ok = false;
            return Ok(SatOutcome::Unsat);
        }

        let mut conflicts_since_restart = 0u64;
        let mut restart_idx = 0u64;
        let mut restart_budget = 64 * luby(restart_idx);
        // A theory lemma the final check returned, attached and awaiting
        // analysis.
        let mut refuted: Option<ClauseRef> = None;

        loop {
            if let Some(confl) = refuted.take().or_else(|| self.propagate()) {
                self.stats.conflicts += 1;
                conflicts_since_restart += 1;
                if self.decision_level() == 0 {
                    self.ok = false;
                    return Ok(SatOutcome::Unsat);
                }
                // Standard CDCL: backjump and learn. If the learnt clause
                // falsifies an assumption, the decision loop below will see
                // the assumption valued `False` when re-placing it and
                // report unsatisfiability.
                let (learnt, bt) = self.analyze(confl, &mut prop)?;
                self.cancel_until(bt);
                self.learn(learnt);
                self.var_inc *= VAR_DECAY;
                self.cla_inc *= CLA_DECAY;
                if self.stats.learnts > self.max_learnts {
                    self.reduce_db();
                    self.max_learnts += self.max_learnts / 10;
                }
                if conflicts_since_restart >= restart_budget {
                    self.stats.restarts += 1;
                    restart_idx += 1;
                    restart_budget = 64 * luby(restart_idx);
                    conflicts_since_restart = 0;
                    self.cancel_until(0);
                }
            } else {
                // Place assumptions as pseudo-decisions first.
                let dl = self.decision_level() as usize;
                if dl < assumptions.len() {
                    let a = assumptions[dl];
                    match self.value_lit(a) {
                        LBool::True => {
                            // Already implied; open a dummy level to keep the
                            // level↔assumption-index correspondence.
                            self.trail_lim.push(self.trail.len());
                        }
                        LBool::False => return Ok(SatOutcome::Unsat),
                        LBool::Undef => {
                            self.trail_lim.push(self.trail.len());
                            self.unchecked_enqueue(a, Reason::None);
                        }
                    }
                    continue;
                }
                // Theory propagation: with unit propagation at a fixpoint
                // and every assumption placed, ask the theory for bound
                // consequences of the current assignment before branching.
                // Each implied literal is enqueued with a lazy reason; the
                // `continue` re-enters unit propagation, so the loop
                // terminates because every round either assigns at least
                // one new literal or falls through to `pick_branch`.
                //
                // Consultation is restricted to the *search root* (no
                // decisions on the trail, only assumptions): a consult
                // partitions the whole atom registry, so running it after
                // every decision's fixpoint costs O(atoms) per decision.
                // At the root it fires once per solve (plus once per
                // backjump to the assumption boundary), which is where
                // the payoff lives anyway: the consequences of
                // unit-asserted facts reach the trail before any search
                // happens above them.
                if dl == assumptions.len() {
                    if let Some(p) = prop.as_deref_mut() {
                        let mut implied = std::mem::take(&mut self.theory_implied);
                        implied.clear();
                        p.propagate(&*self, &mut implied)?;
                        let mut enqueued = false;
                        for &l in &implied {
                            if l.var().index() >= self.assigns.len() {
                                return Err(SolverError::Internal(
                                    "theory propagator implied an unallocated variable",
                                ));
                            }
                            if self.value_lit(l) == LBool::Undef {
                                self.stats.theory_propagations += 1;
                                self.unchecked_enqueue(l, Reason::Theory);
                                enqueued = true;
                            }
                        }
                        self.theory_implied = implied;
                        if enqueued {
                            continue;
                        }
                    }
                }
                if let Some(l) = self.pick_branch() {
                    self.stats.decisions += 1;
                    self.trail_lim.push(self.trail.len());
                    self.unchecked_enqueue(l, Reason::None);
                    continue;
                }
                // A complete assignment: the theory has the last word.
                let Some(p) = prop.as_deref_mut() else {
                    return Ok(SatOutcome::Sat);
                };
                match p.final_check(&*self)? {
                    FinalCheck::Consistent => return Ok(SatOutcome::Sat),
                    FinalCheck::Unknown => return Ok(SatOutcome::Unknown),
                    FinalCheck::Conflict(lemma) => {
                        refuted = self.attach_refutation(lemma)?;
                        if !self.ok {
                            return Ok(SatOutcome::Unsat);
                        }
                    }
                }
            }
        }
    }

    /// Takes in a theory lemma that refutes the current assignment and
    /// backtracks to the deepest level it mentions, so that it stands
    /// there as an ordinary conflict: the attached clause is returned for
    /// [`Self::analyze`]. Literals false at the root are dropped first, as
    /// [`Self::add_clause`] drops them. What is left may need no analysis
    /// (`None`): nothing — the formula is unsatisfiable for good, `ok`
    /// cleared — or one literal, enqueued at the root.
    fn attach_refutation(&mut self, mut lemma: Vec<Lit>) -> Result<Option<ClauseRef>, SolverError> {
        let falsified =
            |l: &Lit| l.var().index() < self.assigns.len() && self.value_lit(*l) == LBool::False;
        if !lemma.iter().all(falsified) {
            return Err(SolverError::Internal(
                "theory lemma has a literal the assignment does not falsify",
            ));
        }
        lemma.retain(|l| self.level[l.var().index()] > 0);
        // Deepest levels first (ties by literal, so the clause is a
        // function of the lemma as a set): the two watched literals must be
        // the first a backjump unassigns.
        lemma.sort_unstable_by_key(|&l| (std::cmp::Reverse(self.level[l.var().index()]), l));
        lemma.dedup();
        match lemma.as_slice() {
            [] => {
                self.ok = false;
                Ok(None)
            }
            &[unit] => {
                self.cancel_until(0);
                self.unchecked_enqueue(unit, Reason::None);
                Ok(None)
            }
            &[deepest, ..] => {
                self.cancel_until(self.level[deepest.var().index()]);
                Ok(Some(self.attach_clause(lemma, false)))
            }
        }
    }

    fn learn(&mut self, learnt: Vec<Lit>) {
        if learnt.len() == 1 {
            if self.value_lit(learnt[0]) == LBool::Undef {
                self.unchecked_enqueue(learnt[0], Reason::None);
            } else if self.value_lit(learnt[0]) == LBool::False && self.decision_level() == 0 {
                self.ok = false;
            }
        } else {
            let asserting = learnt[0];
            let cr = self.attach_clause(learnt, true);
            self.cla_bump(cr);
            if self.value_lit(asserting) == LBool::Undef {
                self.unchecked_enqueue(asserting, Reason::Clause(cr));
            }
        }
    }
}

/// The Luby restart sequence: 1,1,2,1,1,2,4,... (MiniSat's algorithm,
/// 0-based index).
fn luby(x: u64) -> u64 {
    let mut size: u64 = 1;
    let mut seq: u32 = 0;
    while size < x + 1 {
        seq += 1;
        size = 2 * size + 1;
    }
    let mut x = x;
    while size - 1 != x {
        size = (size - 1) / 2;
        seq -= 1;
        x %= size;
    }
    1u64 << seq
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(s: &mut SatSolver, vars: &mut Vec<SatVar>, idx: usize, pos: bool) -> Lit {
        while vars.len() <= idx {
            vars.push(s.new_var());
        }
        Lit::new(vars[idx], pos)
    }

    /// The learnt count by scanning the clause database, which the live
    /// counter in `stats()` must equal.
    fn scanned_learnts(s: &SatSolver) -> usize {
        let live = |c: &&Clause| c.learnt && !c.lits.is_empty();
        s.clauses.iter().filter(live).count()
    }

    #[test]
    fn luby_sequence() {
        let seq: Vec<u64> = (0..15).map(luby).collect();
        assert_eq!(seq, vec![1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]);
    }

    #[test]
    fn lit_encoding() {
        let v = SatVar(3);
        let p = Lit::new(v, true);
        assert!(p.is_positive());
        assert_eq!(p.var(), v);
        assert!(!(!p).is_positive());
        assert_eq!(!!p, p);
    }

    #[test]
    fn trivial_sat() {
        let mut s = SatSolver::new();
        let v = s.new_var();
        s.add_clause(&[Lit::new(v, true)]);
        assert_eq!(s.solve(&[]).unwrap(), SatOutcome::Sat);
        assert!(s.model_value(v));
    }

    #[test]
    fn trivial_unsat() {
        let mut s = SatSolver::new();
        let v = s.new_var();
        assert!(s.add_clause(&[Lit::new(v, true)]));
        assert!(!s.add_clause(&[Lit::new(v, false)]));
        assert_eq!(s.solve(&[]).unwrap(), SatOutcome::Unsat);
    }

    #[test]
    fn empty_formula_is_sat() {
        let mut s = SatSolver::new();
        assert_eq!(s.solve(&[]).unwrap(), SatOutcome::Sat);
    }

    #[test]
    fn unit_propagation_chain() {
        let mut s = SatSolver::new();
        let mut vs = Vec::new();
        let a = lit(&mut s, &mut vs, 0, true);
        let b = lit(&mut s, &mut vs, 1, true);
        let c = lit(&mut s, &mut vs, 2, true);
        s.add_clause(&[a]);
        s.add_clause(&[!a, b]);
        s.add_clause(&[!b, c]);
        assert_eq!(s.solve(&[]).unwrap(), SatOutcome::Sat);
        assert!(s.model_value(vs[0]));
        assert!(s.model_value(vs[1]));
        assert!(s.model_value(vs[2]));
    }

    #[test]
    fn pigeonhole_2_into_1_unsat() {
        // Two pigeons, one hole: p1h1, p2h1, at-most-one.
        let mut s = SatSolver::new();
        let p1 = s.new_var();
        let p2 = s.new_var();
        s.add_clause(&[Lit::new(p1, true)]);
        s.add_clause(&[Lit::new(p2, true)]);
        s.add_clause(&[Lit::new(p1, false), Lit::new(p2, false)]);
        assert_eq!(s.solve(&[]).unwrap(), SatOutcome::Unsat);
    }

    #[test]
    #[allow(clippy::needless_range_loop)] // pigeonhole indices are clearest
    fn pigeonhole_3_into_2_unsat() {
        // 3 pigeons into 2 holes, requires real conflict analysis.
        let mut s = SatSolver::new();
        let mut x = [[SatVar(0); 2]; 3];
        for p in 0..3 {
            for h in 0..2 {
                x[p][h] = s.new_var();
            }
        }
        for p in 0..3 {
            s.add_clause(&[Lit::new(x[p][0], true), Lit::new(x[p][1], true)]);
        }
        for h in 0..2 {
            for p1 in 0..3 {
                for p2 in (p1 + 1)..3 {
                    s.add_clause(&[Lit::new(x[p1][h], false), Lit::new(x[p2][h], false)]);
                }
            }
        }
        assert_eq!(s.solve(&[]).unwrap(), SatOutcome::Unsat);
    }

    #[test]
    fn assumptions_flip_outcome() {
        let mut s = SatSolver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause(&[Lit::new(a, true), Lit::new(b, true)]);
        assert_eq!(s.solve(&[Lit::new(a, false)]).unwrap(), SatOutcome::Sat);
        assert!(s.model_value(b));
        assert_eq!(
            s.solve(&[Lit::new(a, false), Lit::new(b, false)]).unwrap(),
            SatOutcome::Unsat
        );
        // Solver remains usable after an unsat-under-assumptions call.
        assert_eq!(s.solve(&[]).unwrap(), SatOutcome::Sat);
    }

    #[test]
    fn incremental_clause_addition() {
        let mut s = SatSolver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause(&[Lit::new(a, true), Lit::new(b, true)]);
        assert_eq!(s.solve(&[]).unwrap(), SatOutcome::Sat);
        s.add_clause(&[Lit::new(a, false)]);
        assert_eq!(s.solve(&[]).unwrap(), SatOutcome::Sat);
        assert!(s.model_value(b));
        s.add_clause(&[Lit::new(b, false)]);
        assert_eq!(s.solve(&[]).unwrap(), SatOutcome::Unsat);
    }

    #[test]
    fn retract_restores_clause_db_size() {
        let mut s = SatSolver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause(&[Lit::new(a, true), Lit::new(b, true)]);
        let before = s.num_live_clauses();
        // A "frame": guarded clauses over a fresh selector, contradicting
        // the base clause under the assumption that the selector holds.
        let sel = s.new_selector();
        s.add_clause(&[Lit::new(sel, false), Lit::new(a, false)]);
        s.add_clause(&[Lit::new(sel, false), Lit::new(b, false)]);
        assert_eq!(s.solve(&[Lit::new(sel, true)]).unwrap(), SatOutcome::Unsat);
        s.retract(sel);
        assert_eq!(s.num_live_clauses(), before);
        assert_eq!(s.solve(&[]).unwrap(), SatOutcome::Sat);
    }

    #[test]
    fn retract_deletes_tagged_learnt_clauses() {
        // Force real conflict-driven learning through guarded clauses, then
        // retract: no learnt clause derived through the frame may survive.
        let mut s = SatSolver::new();
        let mut x = [[SatVar(0); 2]; 3];
        for p in &mut x {
            for h in p.iter_mut() {
                *h = s.new_var();
            }
        }
        for p in &x {
            s.add_clause(&[Lit::new(p[0], true), Lit::new(p[1], true)]);
        }
        let base = s.num_live_clauses();
        let sel = s.new_selector();
        // Guarded at-most-one-per-hole: pigeonhole 3-into-2 under `sel`.
        for h in 0..2 {
            for (i, p1) in x.iter().enumerate() {
                for p2 in &x[i + 1..] {
                    s.add_clause(&[
                        Lit::new(sel, false),
                        Lit::new(p1[h], false),
                        Lit::new(p2[h], false),
                    ]);
                }
            }
        }
        assert_eq!(s.solve(&[Lit::new(sel, true)]).unwrap(), SatOutcome::Unsat);
        assert!(s.stats().learnts > 0, "refutation learnt nothing");
        assert_eq!(s.stats().learnts, scanned_learnts(&s));
        s.retract(sel);
        assert_eq!(
            s.num_live_clauses(),
            base,
            "frame or tagged learnt survived"
        );
        assert_eq!(s.solve(&[]).unwrap(), SatOutcome::Sat);
        assert_eq!(s.stats().learnts, 0);
    }

    #[test]
    fn retract_is_reusable_across_many_frames() {
        // The clause DB must not grow with the number of retracted frames.
        let mut s = SatSolver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause(&[Lit::new(a, true), Lit::new(b, true)]);
        let base = s.num_live_clauses();
        for round in 0..50 {
            let sel = s.new_selector();
            s.add_clause(&[Lit::new(sel, false), Lit::new(a, round % 2 == 0)]);
            assert_eq!(s.solve(&[Lit::new(sel, true)]).unwrap(), SatOutcome::Sat);
            s.retract(sel);
            assert_eq!(s.num_live_clauses(), base, "round {round}");
        }
        assert_eq!(s.solve(&[]).unwrap(), SatOutcome::Sat);
    }

    #[test]
    fn random_3sat_agrees_with_brute_force() {
        // Deterministic LCG so the test is reproducible.
        let mut state: u64 = 0xdeadbeef;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u32
        };
        for round in 0..40 {
            let n = 6;
            let m = 3 + (round % 20);
            let mut cls: Vec<Vec<(usize, bool)>> = Vec::new();
            for _ in 0..m {
                let mut c = Vec::new();
                for _ in 0..3 {
                    c.push(((next() as usize) % n, next() % 2 == 0));
                }
                cls.push(c);
            }
            // Brute force.
            let mut bf_sat = false;
            'assign: for mask in 0u32..(1 << n) {
                for c in &cls {
                    let ok = c.iter().any(|&(v, pos)| ((mask >> v) & 1 == 1) == pos);
                    if !ok {
                        continue 'assign;
                    }
                }
                bf_sat = true;
                break;
            }
            // CDCL.
            let mut s = SatSolver::new();
            let vars: Vec<SatVar> = (0..n).map(|_| s.new_var()).collect();
            for c in &cls {
                let lits: Vec<Lit> = c.iter().map(|&(v, pos)| Lit::new(vars[v], pos)).collect();
                s.add_clause(&lits);
            }
            let got = s.solve(&[]).unwrap() == SatOutcome::Sat;
            assert_eq!(got, bf_sat, "round {round} disagreed");
            assert_eq!(s.stats().learnts, scanned_learnts(&s), "round {round}");
            if got {
                // Verify the model actually satisfies every clause.
                for c in &cls {
                    assert!(c.iter().any(|&(v, pos)| s.model_value(vars[v]) == pos));
                }
            }
        }
    }

    /// The decision `pick_branch` owes: among unassigned variables with a
    /// live occurrence, the highest activity, the lowest index of equals.
    fn scanned_pick(s: &SatSolver) -> Option<SatVar> {
        (0..s.num_vars())
            .filter(|&i| s.assigns[i] == LBool::Undef && s.occ[i] > 0)
            .min_by(|&a, &b| s.activity[b].total_cmp(&s.activity[a]).then(a.cmp(&b)))
            .map(|i| SatVar(i as u32))
    }

    /// The order heap's own invariants, and the one the solver adds: no
    /// decidable variable is missing from it.
    fn assert_order_heap_sound(s: &SatSolver) {
        let VarHeap { heap, pos } = &s.order;
        assert_eq!(pos.len(), s.num_vars());
        for (at, &v) in heap.iter().enumerate() {
            assert_eq!(pos[v.index()] as usize, at, "position table disagrees");
            let parent = heap[at.saturating_sub(1) / 2];
            assert!(
                !VarHeap::before(&s.activity, v, parent),
                "{v:?} is ordered before its parent {parent:?}"
            );
        }
        let listed = pos.iter().filter(|&&at| at != VarHeap::ABSENT).count();
        assert_eq!(listed, heap.len(), "position table names a variable twice");
        for (i, &at) in pos.iter().enumerate() {
            if s.assigns[i] == LBool::Undef && s.occ[i] > 0 {
                assert_ne!(at, VarHeap::ABSENT, "decidable x{i} left the heap");
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Random bumps, decisions, backtracks, clause attachments, frame
        /// retractions and variable recycling, driving the solver's own
        /// primitives: every decision is the one a scan would make, and the
        /// heap is sound after every step.
        #[test]
        fn order_heap_decides_what_a_scan_would(
            ops in proptest::collection::vec((0u8..8, 0usize..64, 0usize..64), 1..160),
        ) {
            let mut s = SatSolver::new();
            let mut vars: Vec<SatVar> = (0..6).map(|_| s.new_var()).collect();
            let mut frames: Vec<SatVar> = Vec::new();
            for (op, i, j) in ops {
                let (a, b) = (vars[i % vars.len()], vars[j % vars.len()]);
                match op {
                    // Bumps are the common operation: of a selector too,
                    // which then retires above its reset activity; the
                    // inflated increment gets some past the 1e100 rescale.
                    0 => s.var_bump(a),
                    1 => s.var_bump(frames.last().copied().unwrap_or(a)),
                    2 => {
                        s.var_inc *= 1e40;
                        s.var_bump(a);
                    }
                    3 | 4 => {
                        let expected = scanned_pick(&s);
                        let picked = s.pick_branch();
                        assert_eq!(picked.map(Lit::var), expected);
                        if let Some(l) = picked {
                            s.trail_lim.push(s.trail.len());
                            s.unchecked_enqueue(l, Reason::None);
                        }
                    }
                    5 => s.cancel_until(i as u32 % (s.decision_level() + 1)),
                    6 if a != b => {
                        let mut lits = vec![Lit::new(a, i % 2 == 0), Lit::new(b, j % 2 == 0)];
                        lits.extend(frames.last().map(|&sel| Lit::new(sel, false)));
                        s.attach_clause(lits, j % 3 == 0);
                    }
                    6 => frames.push(s.new_selector()),
                    _ => {
                        // Retract the innermost frame and allocate at once:
                        // the selector's slot comes back as a plain variable.
                        if let Some(sel) = frames.pop() {
                            s.retract(sel);
                            vars.push(s.new_var());
                        }
                    }
                }
                assert_order_heap_sound(&s);
            }
        }
    }
}
