//! # lejit-telemetry
//!
//! Synthetic datacenter burst telemetry — the workload substrate of the
//! LeJIT reproduction.
//!
//! The paper evaluates on the (proprietary) Meta datacenter dataset of
//! Ghabashneh et al. (IMC '22): per-rack measurements where *fine-grained*
//! millisecond-level ingress bytes are coupled to *coarse-grained* 50 ms
//! window aggregates (total ingress, ECN-marked bytes, retransmissions, …).
//! This crate simulates that data with the couplings that make the
//! evaluation meaningful:
//!
//! * fine ingress follows a two-state (idle/burst) Markov-modulated process
//!   with a diurnal baseline, capped at the rack bandwidth,
//! * `total_ingress` is *exactly* the sum of the fine series (rule R2),
//! * every fine value is within `[0, BW]` (rule R1),
//! * `ecn_bytes > 0` iff some fine value crossed the ECN threshold
//!   (≥ ¾·BW ≥ ½·BW — rule R3's burst implication),
//! * drops occur only at saturation, retransmissions echo the previous
//!   window's drops, egress is bounded by ingress, and connection counts
//!   scale with load — giving the NetNomos-style miner non-trivial
//!   cross-signal rules to discover.
//!
//! The [`encoding`] module renders windows as plain text for the
//! character-level LM ("treating numeric values as plain text", as the
//! paper does) and parses generated text back into numbers.

#![deny(clippy::disallowed_methods)]
#![warn(missing_docs)]

pub mod encoding;
pub mod generator;
pub mod signals;

pub use encoding::{
    encode_imputation_example, encode_prompt, encode_synthesis_example, parse_coarse, parse_fine,
    vocab_corpus_sample, FINE_TERMINATOR, PROMPT_SEPARATOR,
};
pub use generator::{generate, TelemetryConfig};
pub use signals::{CoarseField, CoarseSignals, Dataset, Window};
