//! # lejit-serve
//!
//! A continuous-batching decode service over the LeJIT engine: network
//! telemetry windows arrive as line-delimited JSON over TCP, get imputed
//! under the rule set by [`lejit_core::ContinuousBatcher`] lanes, and leave
//! as byte-deterministic responses — the paper's "JIT logic enforcement"
//! run as a long-lived network-management service instead of a batch job.
//!
//! Modules:
//!
//! * [`queue`] — the bounded admission queue ([`RequestQueue`]): the
//!   backpressure point, with explicit close for graceful drain and no
//!   clocks (blocking is notification-driven, keeping the crate inside the
//!   workspace's ambient-time determinism lint),
//! * [`protocol`] — the wire protocol: request parsing and deterministic
//!   response rendering over the vendored `serde_json` value model,
//! * [`server`] — the [`Server`]: acceptor + per-connection readers +
//!   shard workers, each shard running one continuous batcher over a warm
//!   [`lejit_core::SessionPool`].
//!
//! ## The serving contract
//!
//! Every response is a pure function of the request `(coarse, rules,
//! seed)`. Continuous batching, lane refills, session-pool warmth, shard
//! assignment, and arrival interleaving change throughput and latency —
//! never bytes. The repo's CI determinism matrix extends over arrival
//! order for exactly this reason: serving is just the batch byte-identity
//! contract with the batch assembled by a queue instead of a vector.

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
#![warn(missing_docs)]

pub mod protocol;
pub mod queue;
pub mod server;

pub use protocol::{ImputeRequest, Op};
pub use queue::{PushError, RequestQueue};
pub use server::{ServeConfig, ServeMetrics, Server};
