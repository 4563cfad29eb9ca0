//! # lejit-smt
//!
//! A from-scratch, dependency-free SMT solver for **quantifier-free linear
//! integer arithmetic (QF-LIA)**, built as the symbolic-reasoning substrate of
//! the LeJIT reproduction (HotNets '25). The paper uses Z3; this crate
//! implements the fragment LeJIT actually needs, with the exact interface the
//! decoding engine requires:
//!
//! * a term language (booleans + linear integer arithmetic) with hash-consing,
//! * incremental `push`/`pop` assertion frames with physical clause
//!   retraction: popping a frame deletes its clauses (and any learnt clause
//!   derived through them) from the SAT database, so long-running sessions
//!   never accumulate dead state,
//! * `check()` / `check_assuming()` satisfiability queries with models,
//! * `minimize(v)` / `maximize(v)` objective queries (binary search on
//!   satisfiability) used to compute feasible ranges for the next variable
//!   during constrained decoding.
//!
//! ## Architecture
//!
//! The solver follows the classic *lazy SMT* (DPLL(T)) design:
//!
//! 1. [`term`] — hash-consed term arena ([`TermPool`]). Equalities and
//!    disequalities are rewritten at construction into conjunctions /
//!    disjunctions of non-strict inequalities, so every theory atom is a
//!    single linear inequality `Σ cᵢ·xᵢ + k ≤ 0`.
//! 2. [`linear`] — normalization of integer terms into [`LinExpr`] and atoms
//!    into [`LinAtom`].
//! 3. [`cnf`] — Tseitin transformation of the boolean skeleton into CNF over
//!    SAT literals; theory atoms map 1:1 to SAT variables.
//! 4. [`sat`] — a CDCL SAT core: two-watched literals, first-UIP conflict
//!    analysis, VSIDS-style activities, Luby restarts, phase saving and
//!    MiniSat-style assumptions.
//! 5. [`simplex`] — an exact-rational general simplex with variable bounds
//!    (Dutertre–de Moura style) producing minimal *bound certificates* on
//!    infeasibility.
//! 6. [`theory`] — the LIA theory check: rational feasibility via simplex,
//!    then branch-and-bound on fractional integer variables. Infeasible
//!    conjunctions yield small cores that are learned as blocking clauses.
//! 7. [`solver`] — ties everything together behind [`Solver`].
//!
//! ## Example
//!
//! ```
//! use lejit_smt::{Solver, SatResult};
//!
//! let mut s = Solver::new();
//! // R1/R2 from the paper: 0 <= I_t <= 60, sum I_t == 100.
//! let vars: Vec<_> = (0..5).map(|t| s.int_var(&format!("i{t}"), 0, 60)).collect();
//! let terms: Vec<_> = vars.iter().map(|&v| s.var(v)).collect();
//! let total = s.add(&terms);
//! let hundred = s.int(100);
//! let sum_eq = s.eq(total, hundred);
//! s.assert(sum_eq);
//!
//! // Fix I_0..I_2 as the LLM generated them, then ask for I_3's range.
//! for (t, val) in [(0usize, 20i64), (1, 15), (2, 25)] {
//!     let c = s.int(val);
//!     let eq = s.eq(terms[t], c);
//!     s.assert(eq);
//! }
//! assert_eq!(s.check().unwrap(), SatResult::Sat);
//! assert_eq!(s.minimize(vars[3]).unwrap(), Some(0));
//! assert_eq!(s.maximize(vars[3]).unwrap(), Some(40)); // 100-60 = 40, not 60!
//! ```
//!
//! The last line is exactly the "solver looks ahead" behaviour of the paper:
//! naively `I_3` could be any value in `[0, 60]`, but then `I_4` could not
//! make the sum reach 100, so the feasible region is pruned to `[0, 40]`.

#![deny(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing,
    clippy::float_cmp,
    clippy::cast_possible_truncation,
    clippy::float_arithmetic
)]
// Unit tests compare floats exactly and narrow loop indices freely.
#![cfg_attr(
    test,
    allow(
        clippy::float_cmp,
        clippy::cast_possible_truncation,
        clippy::float_arithmetic
    )
)]
#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod cnf;
pub mod error;
pub mod linear;
#[cfg(clippy)]
mod lint_canaries;
pub mod rational;
pub mod sat;
pub mod simplex;
pub mod smtlib;
pub mod solver;
pub mod term;
pub mod theory;

pub use error::SolverError;
pub use linear::{LinAtom, LinExpr};
pub use rational::Rational;
pub use sat::{FinalCheck, Lit, SatSolver, SatStats, SatVar, TheoryPropagator};
pub use smtlib::{run_script, ScriptOutput, SmtLibError};
pub use solver::{Model, SatResult, Solver, SolverStats, VarBounds};
pub use term::{Sort, Term, TermId, TermPool, VarId, VarInfo};
pub use theory::{
    check_conjunction, TheoryConfig, TheoryPropagation, TheorySession, TheoryStats, TheoryVerdict,
};
