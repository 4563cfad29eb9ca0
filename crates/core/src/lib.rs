//! # lejit-core
//!
//! The LeJIT engine: **Just-in-Time Logic Enforcement** for autoregressive
//! language models (HotNets '25). An SMT solver is interleaved into the
//! model's token-by-token inference: before each character is emitted, the
//! solver computes which characters can still lead to a rule-compliant
//! output ("looks ahead … to ensure that there is a path to a valid
//! output"), the model's logits are masked accordingly, and sampling
//! proceeds over the surviving tokens — preserving the learned distribution
//! wherever the rules permit.
//!
//! Modules:
//!
//! * [`schema`] — the decode schema: the alternation of forced literal
//!   characters and numeric variables that makes up an output record,
//! * [`session`] — the solver session: rules grounded once per output,
//!   dynamic partial instantiation as values are fixed, and the
//!   prefix-feasibility queries behind the transition system,
//! * [`transition`] — the character-level transition system built on the
//!   fly (Fig. 2): which digits / terminator may follow the current digit
//!   prefix, with or without solver lookahead,
//! * [`lanes`] — the lane engine, the one place a character is decided
//!   (admit → mask → logits → apply → finish, behind the [`LaneJob`]
//!   seam), and [`ContinuousBatcher`], its fixed lane slots refilled
//!   per-record for `decode_batch` and the `lejit-serve` scheduler,
//! * [`decoder`] — the session-backed [`LaneJob`] ([`SessionJob`], which
//!   owns its lookahead policy) and the drivers that run it: serial
//!   ([`JitDecoder::decode`]), traced ([`JitDecoder::decode_traced`]) and
//!   lock-step batched ([`JitDecoder::decode_batch`]), plus the error and
//!   stats types every path reports,
//! * [`pool`] — warm solver-session pools keyed by rule-set fingerprint
//!   ([`SessionPool`]), recycling sessions across requests,
//! * [`batch`] — the determinism-preserving parallel/batched harness:
//!   per-record RNG seeding, the record-level thread pool, and the
//!   model-level batch scheduler,
//! * [`vanilla`] — structurally-forced but rule-free decoding (the Vanilla
//!   GPT-2 baseline, the same engine with a structural mask source) and
//!   rejection sampling on top of it,
//! * [`repair`] — post-hoc SMT repair (Fig. 1a's yellow path): arbitrary
//!   and nearest-L1 correction of invalid outputs,
//! * [`tasks`] — the two paper tasks built on the same engine and the same
//!   trained model: telemetry [`Imputer`] and data [`Synthesizer`], and the
//!   one owner of a record's session lifecycle ([`Imputer::lease`] →
//!   decode → [`Lease::settle`]).
//!
//! A minimal end-to-end decode with the default interval-guided lookahead
//! (identical answers to [`Lookahead::Full`] at a fraction of the solver
//! checks):
//!
//! ```
//! use lejit_core::{DecodeSchema, JitDecoder, JitSession};
//! use lejit_lm::{NgramLm, SamplerConfig, Vocab};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! // A tiny character LM and a two-variable schema (no extra rules, so
//! // only the structural bounds 0..=60 constrain the values).
//! let vocab = Vocab::from_corpus("0123456789,.");
//! let seqs = vec![vocab.encode("12,34.").unwrap()];
//! let model = NgramLm::train(vocab, &seqs, 3);
//! let schema = DecodeSchema::fine_series(2, 60);
//! let mut session = JitSession::new(&schema);
//!
//! let decoder = JitDecoder::new(&model, SamplerConfig::default());
//! let out = decoder
//!     .decode(&mut session, &schema, "", &mut StdRng::seed_from_u64(7))
//!     .unwrap();
//! assert_eq!(out.values.len(), 2);
//! assert!(out.values.iter().all(|&v| (0..=60).contains(&v)));
//! ```

#![deny(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing,
    clippy::float_cmp,
    clippy::cast_possible_truncation
)]
// Unit tests compare floats exactly and narrow loop indices freely.
#![cfg_attr(test, allow(clippy::float_cmp, clippy::cast_possible_truncation))]
#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod batch;
pub mod decoder;
pub mod lanes;
#[cfg(clippy)]
mod lint_canaries;
pub mod pool;
pub mod repair;
pub mod schema;
pub mod session;
pub mod tasks;
pub mod trace;
pub mod transition;
pub mod vanilla;

pub use batch::{batch_spans, par_batches_with, par_records, par_records_with, record_seed};
pub use decoder::{DecodeError, DecodeStats, DecodedOutput, JitDecoder, SessionJob};
pub use lanes::{AdmitOutcome, ContinuousBatcher, FinishedLane, LaneJob, StepOutcome};
pub use pool::{fnv1a64, PoolStats, PooledSession, SessionPool};
pub use repair::{repair_arbitrary, repair_nearest, RepairError};
pub use schema::{DecodeSchema, SchemaItem, VarSpec};
pub use session::{JitSession, SessionCheckpoint};
pub use tasks::{Imputer, Lease, Synthesizer, TaskConfig, TaskError};
pub use trace::{DecodeTrace, TraceStep};
pub use transition::{allowed_chars, CharOptions, Lookahead, VarState};
pub use vanilla::{RejectionOutcome, RejectionSampler, VanillaDecoder};
