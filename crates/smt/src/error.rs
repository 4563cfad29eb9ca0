//! Typed solver errors.
//!
//! The solver's hot paths (CDCL propagate/analyze, the simplex pivot, and
//! everything reachable from [`crate::Solver::check`]) are panic-free by
//! policy — enforced statically by clippy's `unwrap_used`, `expect_used`,
//! `panic` and `indexing_slicing`, denied at the crate root.
//! Conditions that previously panicked (broken internal invariants,
//! arithmetic overflow during constraint translation, clauses referencing
//! unallocated variables) surface as a [`SolverError`] instead, so callers
//! can reject the offending query without tearing down the process.

use std::fmt;

/// An error produced by the SMT stack instead of a panic.
///
/// Every variant carries a static description of the violated condition.
/// These errors indicate a malformed input or a broken internal invariant
/// — they are *not* part of the normal SAT/UNSAT/Unknown result space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolverError {
    /// An `i64` computation overflowed while normalizing terms or
    /// translating constraints into the theory solver.
    Overflow(&'static str),
    /// The clause database is malformed: a clause references a SAT
    /// variable that was never allocated.
    InvalidClause(&'static str),
    /// A query's arguments break its precondition: a range search over a
    /// variable that is not an integer, a stride that is not positive.
    InvalidQuery(&'static str),
    /// An internal invariant did not hold. Reported instead of panicking
    /// so a decode session can discard the query and continue.
    Internal(&'static str),
}

impl fmt::Display for SolverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolverError::Overflow(what) => write!(f, "arithmetic overflow: {what}"),
            SolverError::InvalidClause(what) => write!(f, "invalid clause: {what}"),
            SolverError::InvalidQuery(what) => write!(f, "invalid query: {what}"),
            SolverError::Internal(what) => write!(f, "internal solver invariant violated: {what}"),
        }
    }
}

impl std::error::Error for SolverError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = SolverError::Overflow("negating atom constant");
        assert!(e.to_string().contains("overflow"));
        let e = SolverError::InvalidClause("unallocated variable");
        assert!(e.to_string().contains("invalid clause"));
    }
}
