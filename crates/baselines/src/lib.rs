//! # lejit-baselines
//!
//! Task-specific baselines for the LeJIT evaluation.
//!
//! * [`zoom2net`] — a Zoom2Net-style telemetry imputer: a k-nearest-neighbor
//!   regressor over coarse-feature space plus a Constraint Enforcement
//!   Module (CEM) that post-hoc projects outputs onto the four manual rules
//!   C4–C7 (the paper's task-specific comparison for §4.1).
//! * [`generators`] — five *simulated* SOTA data generators for §4.2, each a
//!   distinct simplified generative model exercising the same evaluation
//!   path as the systems the paper compares against (see DESIGN.md §3 for
//!   the substitution rationale):
//!   NetShare → block bootstrap with jitter, E-WGAN-GP → per-field KDE,
//!   CTGAN → independent histogram sampler, TVAE → Gaussian copula,
//!   REaLTabFormer → an unconstrained autoregressive n-gram LM.
//! * [`copula`] — the Gaussian-copula math (normal CDF/quantile, Cholesky)
//!   behind the TVAE-like generator.

#![deny(clippy::disallowed_methods)]
#![warn(missing_docs)]

pub mod copula;
pub mod generators;
pub mod zoom2net;

pub use generators::{
    CoarseGenerator, CtganLike, EWganGpLike, NetShareLike, RealTabFormerLike, TvaeLike,
};
pub use zoom2net::{KnnImputer, Zoom2Net};
