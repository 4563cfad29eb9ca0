//! # lejit-lm
//!
//! From-scratch autoregressive language models for the LeJIT reproduction
//! (HotNets '25). The paper trains a character-level GPT-2 from scratch on
//! datacenter telemetry; this crate provides the equivalent substrate in pure
//! Rust, at CPU scale:
//!
//! * [`tensor`] — a dense row-major `f32` matrix with the linear-algebra
//!   kernels a transformer needs,
//! * [`autograd`] — a tape-based reverse-mode autodiff engine over matrices
//!   (matmul, GELU, LayerNorm, causal softmax, embedding gather, fused
//!   softmax-cross-entropy, column slicing for attention heads),
//! * [`tokenizer`] — character-level vocabulary (the paper adopts
//!   char-level tokenization so the solver can steer generation digit by
//!   digit),
//! * [`gpt`] — a tiny GPT: learned token + positional embeddings, pre-LN
//!   transformer blocks with multi-head causal self-attention, and a tied
//!   training loop,
//! * [`ngram`] — an interpolated backoff n-gram LM implementing the same
//!   [`LanguageModel`] trait (fast substitute for unit tests and a stand-in
//!   for the REaLTabFormer-style baseline),
//! * [`optim`] — AdamW with warmup + cosine decay and gradient clipping,
//! * [`sample`] — temperature / top-k / top-p sampling with a
//!   [`LogitsProcessor`] hook — the seam where LeJIT's solver-driven token
//!   masking plugs in.
//!
//! The decoding engine in `lejit-core` only depends on the [`LanguageModel`]
//! trait, mirroring the paper's claim that LeJIT is LLM-agnostic. For
//! throughput, [`cache`] adds KV-cached incremental inference: one
//! multi-lane [`KvCache`] stepped through GEMM-shaped kernels and one
//! wrapper, [`CachedGpt`], whose single-context call is a batch of one.

#![deny(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    clippy::float_cmp,
    clippy::cast_possible_truncation
)]
// Unit tests compare floats exactly and narrow loop indices freely.
#![cfg_attr(test, allow(clippy::float_cmp, clippy::cast_possible_truncation))]
#![warn(missing_docs)]

pub mod autograd;
pub mod cache;
pub mod gpt;
#[cfg(clippy)]
mod lint_canaries;
pub mod ngram;
pub mod optim;
pub mod sample;
pub mod serialize;
pub mod tensor;
pub mod tokenizer;

pub use cache::{CachedGpt, KvCache};
pub use gpt::{GptConfig, TinyGpt};
pub use ngram::NgramLm;
pub use sample::{cross_entropy, perplexity, sample_token, LogitsProcessor, SamplerConfig};
pub use serialize::LoadError;
pub use tensor::Matrix;
pub use tokenizer::{TokenId, Vocab};

/// An autoregressive language model over a character vocabulary.
///
/// Implementations return *raw logits* (pre-softmax scores) for the next
/// token given the full context so far. This is the only interface the
/// LeJIT decoder needs.
pub trait LanguageModel {
    /// The model's vocabulary.
    fn vocab(&self) -> &Vocab;

    /// Next-token logits given the context (most recent token last).
    ///
    /// The returned vector has exactly `vocab().len()` entries.
    fn next_logits(&self, context: &[TokenId]) -> Vec<f32>;

    /// Next-token logits for several independent contexts at once, in
    /// input order.
    ///
    /// The default simply loops [`LanguageModel::next_logits`], so every
    /// model (e.g. the n-gram LM) supports batch callers out of the box.
    /// Models with a real batched forward path — [`CachedGpt`] — override
    /// this to do GEMM-shaped work, with the contract that each returned
    /// row is **bit-identical** to the single call on the same context:
    /// batching may change throughput, never output.
    fn forward_batch(&self, contexts: &[&[TokenId]]) -> Vec<Vec<f32>> {
        contexts.iter().map(|c| self.next_logits(c)).collect()
    }
}
