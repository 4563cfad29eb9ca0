//! # lejit-rules
//!
//! The network-rule language of the LeJIT reproduction: how domain knowledge
//! is written down, checked against concrete telemetry, mined from data, and
//! lowered into the SMT solver that guides decoding.
//!
//! * [`ast`] — rules over one telemetry window: the coarse signals, the fine
//!   ingress series `fine[t]`, bounded quantifiers `forall t` / `exists t`,
//!   aggregations `sum/max/min(fine)`, linear arithmetic, comparisons, and
//!   boolean connectives including implication. Rules evaluate directly on
//!   concrete windows (used for violation counting).
//! * [`dsl`] — a human-readable text syntax with a recursive-descent parser
//!   and pretty-printer, e.g. the paper's R1–R3:
//!
//!   ```text
//!   rule r1: forall t: fine[t] >= 0 and fine[t] <= 60;
//!   rule r2: sum(fine) == total_ingress;
//!   rule r3: ecn_bytes > 0 => max(fine) >= 30;
//!   ```
//!
//! * [`ground`] — lowering a rule set into `lejit-smt` formulas over a
//!   caller-chosen mix of solver variables and already-known constants.
//!   This is the paper's *dynamic partial instantiation*: as the LM emits
//!   values, they become constants and rules simplify accordingly.
//! * [`mining`] — a NetNomos-style template miner that discovers bounds,
//!   sum-consistency, pairwise-order, and threshold-implication rules from
//!   training windows at the paper's rule-set scale (hundreds of rules).

#![deny(clippy::disallowed_methods)]
#![warn(missing_docs)]

pub mod ast;
pub mod dsl;
pub mod ground;
pub mod mining;

pub use ast::{CmpOp, Expr, Pred, Rule, RuleSet};
pub use dsl::{parse_rules, ParseError};
pub use ground::{ground_pred, ground_rule, GroundCtx};
pub use mining::{manual_rules, mine_rules, paper_rules, MinedRules, MinerConfig};
