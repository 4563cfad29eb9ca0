//! Interpolated backoff n-gram language model.
//!
//! A fast [`LanguageModel`] used (a) in unit tests where training a GPT is
//! overkill and (b) as the simulated REaLTabFormer-style baseline generator
//! in the evaluation: an autoregressive sequence model with decent local
//! statistics but no rule awareness.

#![expect(
    clippy::cast_possible_truncation,
    reason = "n-gram orders are single digits and TokenId is u32 and every id indexes a vocabulary built from a character corpus of a few hundred symbols"
)]

use std::collections::BTreeMap;

use crate::tokenizer::{TokenId, Vocab};
use crate::LanguageModel;

/// Interpolated n-gram model with add-k smoothing at the unigram level.
pub struct NgramLm {
    vocab: Vocab,
    /// `counts[o]` maps an order-`o` context (o tokens) to next-token counts.
    /// `BTreeMap` rather than `HashMap`: `next_probs` accumulates f32 terms
    /// while iterating a table, and float addition is not associative, so
    /// hash-order iteration would make the probabilities (and therefore the
    /// sampled tokens) vary run to run (determinism lint L1).
    counts: Vec<BTreeMap<Vec<TokenId>, BTreeMap<TokenId, u32>>>,
    order: usize,
    /// Interpolation weight per order (higher order weighted more).
    lambdas: Vec<f32>,
    /// Add-k smoothing constant for the unigram distribution.
    add_k: f32,
}

impl NgramLm {
    /// Trains an order-`order` model (order = context length + 1, so
    /// `order = 4` conditions on up to 3 previous tokens).
    ///
    /// # Panics
    /// Panics if `order == 0`.
    pub fn train(vocab: Vocab, sequences: &[Vec<TokenId>], order: usize) -> NgramLm {
        assert!(order >= 1, "order must be at least 1");
        let mut counts: Vec<BTreeMap<Vec<TokenId>, BTreeMap<TokenId, u32>>> =
            vec![BTreeMap::new(); order];
        for seq in sequences {
            for i in 0..seq.len() {
                let tok = seq[i];
                for ctx_len in 0..order {
                    if i < ctx_len {
                        continue;
                    }
                    let ctx: Vec<TokenId> = seq[i - ctx_len..i].to_vec();
                    *counts[ctx_len]
                        .entry(ctx)
                        .or_default()
                        .entry(tok)
                        .or_insert(0) += 1;
                }
            }
        }
        // Geometric interpolation weights favoring longer contexts.
        let mut lambdas: Vec<f32> = (0..order).map(|o| 2.0f32.powi(o as i32)).collect();
        let total: f32 = lambdas.iter().sum();
        for l in &mut lambdas {
            *l /= total;
        }
        NgramLm {
            vocab,
            counts,
            order,
            lambdas,
            add_k: 0.05,
        }
    }

    /// The model order.
    pub fn order(&self) -> usize {
        self.order
    }

    /// Next-token probability distribution (sums to 1).
    pub fn next_probs(&self, context: &[TokenId]) -> Vec<f32> {
        let v = self.vocab.len();
        let mut probs = vec![0.0f32; v];
        let mut weight_used = 0.0f32;
        for ctx_len in (0..self.order).rev() {
            if context.len() < ctx_len {
                continue;
            }
            let ctx = &context[context.len() - ctx_len..];
            let lambda = self.lambdas[ctx_len];
            if ctx_len == 0 {
                // Unigram with add-k smoothing — always available.
                let table = self.counts[0].get(&Vec::new());
                let total: f32 = table.map(|t| t.values().sum::<u32>() as f32).unwrap_or(0.0)
                    + self.add_k * v as f32;
                for (i, p) in probs.iter_mut().enumerate() {
                    let c = table
                        .and_then(|t| t.get(&(i as TokenId)))
                        .copied()
                        .unwrap_or(0) as f32;
                    *p += lambda * (c + self.add_k) / total;
                }
                weight_used += lambda;
            } else if let Some(table) = self.counts[ctx_len].get(ctx) {
                let total: f32 = table.values().sum::<u32>() as f32;
                for (&tok, &c) in table {
                    probs[tok as usize] += lambda * c as f32 / total;
                }
                weight_used += lambda;
            }
            // Unseen higher-order contexts contribute nothing; their weight
            // is re-normalized away below (simple interpolated backoff).
        }
        if weight_used > 0.0 {
            for p in &mut probs {
                *p /= weight_used;
            }
        }
        probs
    }
}

impl LanguageModel for NgramLm {
    fn vocab(&self) -> &Vocab {
        &self.vocab
    }

    fn next_logits(&self, context: &[TokenId]) -> Vec<f32> {
        self.next_probs(context)
            .into_iter()
            .map(|p| p.max(1e-12).ln())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn train_on(text: &str, order: usize) -> NgramLm {
        let vocab = Vocab::from_corpus(text);
        let seq = vocab.encode(text).unwrap();
        NgramLm::train(vocab, &[seq], order)
    }

    #[test]
    fn learns_deterministic_transitions() {
        // In "ababab…", after 'a' always comes 'b'.
        let m = train_on(&"ab".repeat(50), 3);
        let a = m.vocab().id_of('a').unwrap();
        let b = m.vocab().id_of('b').unwrap();
        let probs = m.next_probs(&[b, a]);
        // Interpolation with the unigram level caps this around 0.93.
        assert!(
            probs[b as usize] > 0.9,
            "P(b|..a) = {}, expected near 1",
            probs[b as usize]
        );
    }

    #[test]
    fn probabilities_sum_to_one() {
        let m = train_on("hello world 123, 456; 789", 4);
        for ctx_text in ["", "h", "hello ", "12"] {
            let ctx = m.vocab().encode(ctx_text).unwrap();
            let probs = m.next_probs(&ctx);
            let sum: f32 = probs.iter().sum();
            assert!((sum - 1.0).abs() < 1e-4, "ctx {ctx_text:?}: sum {sum}");
        }
    }

    #[test]
    fn unseen_context_backs_off() {
        let m = train_on("aaa bbb", 3);
        // Context "ab" never occurs; distribution must still be proper.
        let a = m.vocab().id_of('a').unwrap();
        let b = m.vocab().id_of('b').unwrap();
        let probs = m.next_probs(&[a, b]);
        let sum: f32 = probs.iter().sum();
        assert!((sum - 1.0).abs() < 1e-4);
        assert!(probs.iter().all(|&p| p > 0.0), "smoothing leaves no zeros");
    }

    #[test]
    fn logits_are_log_probs() {
        let m = train_on(&"xy".repeat(20), 2);
        let ctx = m.vocab().encode("x").unwrap();
        let probs = m.next_probs(&ctx);
        let logits = m.next_logits(&ctx);
        for (p, l) in probs.iter().zip(&logits) {
            assert!((p.max(1e-12).ln() - l).abs() < 1e-6);
        }
    }

    #[test]
    fn higher_order_sharpens_prediction() {
        // "abcabc…": after "ab" comes 'c' with certainty at order 3; a
        // unigram model would be uniform-ish.
        let text = "abc".repeat(40);
        let m3 = train_on(&text, 3);
        let m1 = train_on(&text, 1);
        let ab = m3.vocab().encode("ab").unwrap();
        let c = m3.vocab().id_of('c').unwrap() as usize;
        assert!(m3.next_probs(&ab)[c] > m1.next_probs(&ab)[c]);
        assert!(m3.next_probs(&ab)[c] > 0.9);
    }
}
