//! Token sampling with a pluggable logits-processing hook.
//!
//! [`LogitsProcessor`] is the seam where LeJIT inserts its SMT-driven token
//! masking: the decoder receives the model's raw next-token logits, sets
//! rule-violating tokens to `-inf`, and sampling then renormalizes over the
//! surviving tokens — "filtering out rule-violating tokens at each
//! generation step" while otherwise respecting the model's distribution.
//!
//! The batched decode path ([`LanguageModel::forward_batch`]) reuses the
//! same machinery per lane: one batched forward pass yields a logits row
//! per live record, and each lane applies its *own* solver mask and draws
//! from its *own* RNG — so sampling in a batch of N is exactly N
//! independent serial sampling steps.

#![expect(
    clippy::cast_possible_truncation,
    reason = "TokenId is u32 and every id indexes a vocabulary built from a character corpus of a few hundred symbols; the mean loss is accumulated in f64 and reported as f32 on purpose"
)]

use rand::Rng;

use crate::tensor::softmax_inplace;
use crate::tokenizer::TokenId;
use crate::LanguageModel;

/// Sampling hyperparameters.
#[derive(Clone, Copy, Debug)]
pub struct SamplerConfig {
    /// Softmax temperature (1.0 = model distribution, → 0 = greedy).
    pub temperature: f32,
    /// Keep only the `top_k` most likely tokens (0 disables).
    pub top_k: usize,
    /// Nucleus sampling threshold (1.0 disables).
    pub top_p: f32,
}

impl Default for SamplerConfig {
    fn default() -> Self {
        SamplerConfig {
            temperature: 1.0,
            top_k: 0,
            top_p: 1.0,
        }
    }
}

/// A hook that may rewrite next-token logits before sampling (e.g. mask
/// invalid tokens with `f32::NEG_INFINITY`).
pub trait LogitsProcessor {
    /// Rewrites `logits` in place given the context generated so far.
    fn process(&mut self, context: &[TokenId], logits: &mut [f32]);
}

/// A no-op processor (vanilla decoding).
pub struct IdentityProcessor;

impl LogitsProcessor for IdentityProcessor {
    fn process(&mut self, _context: &[TokenId], _logits: &mut [f32]) {}
}

/// Samples one token from `logits` under `cfg`. Returns `None` when every
/// token is masked to `-inf` (a decoding dead end). A NaN logit counts as
/// masked: its token is never returned, and it cannot unmask the others.
pub fn sample_token<R: Rng>(logits: &[f32], cfg: &SamplerConfig, rng: &mut R) -> Option<TokenId> {
    let divisor = if cfg.temperature > 0.0 && (cfg.temperature - 1.0).abs() > 1e-9 {
        cfg.temperature
    } else {
        1.0
    };
    let mut scaled: Vec<f32> = logits
        .iter()
        .map(|&l| {
            if l.is_nan() {
                f32::NEG_INFINITY
            } else {
                l / divisor
            }
        })
        .collect();

    if scaled.iter().all(|l| *l == f32::NEG_INFINITY) {
        return None;
    }

    // Greedy when temperature is ~0.
    if cfg.temperature <= 1e-6 {
        let (best, _) = scaled
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))?;
        return Some(best as TokenId);
    }

    // Top-k: mask everything below the k-th largest logit.
    if cfg.top_k > 0 && cfg.top_k < scaled.len() {
        let mut sorted: Vec<f32> = scaled.iter().copied().filter(|l| l.is_finite()).collect();
        sorted.sort_by(|a, b| b.total_cmp(a));
        if let Some(&threshold) = sorted.get(cfg.top_k - 1) {
            for l in scaled.iter_mut() {
                if *l < threshold {
                    *l = f32::NEG_INFINITY;
                }
            }
        }
    }

    let mut probs = scaled.clone();
    softmax_inplace(&mut probs);

    // Top-p (nucleus): keep the smallest prefix of tokens (by descending
    // probability) whose mass reaches top_p.
    if cfg.top_p < 1.0 {
        let mut order: Vec<usize> = (0..probs.len()).collect();
        order.sort_by(|&a, &b| probs[b].total_cmp(&probs[a]));
        let mut mass = 0.0f32;
        let mut keep = vec![false; probs.len()];
        for &i in &order {
            keep[i] = true;
            mass += probs[i];
            if mass >= cfg.top_p {
                break;
            }
        }
        let mut total = 0.0f32;
        for (i, p) in probs.iter_mut().enumerate() {
            if !keep[i] {
                *p = 0.0;
            }
            total += *p;
        }
        if total > 0.0 {
            for p in probs.iter_mut() {
                *p /= total;
            }
        }
    }

    // Inverse-CDF sampling.
    let r: f32 = rng.random::<f32>();
    let mut acc = 0.0f32;
    let mut last_valid = None;
    for (i, &p) in probs.iter().enumerate() {
        if p > 0.0 {
            last_valid = Some(i as TokenId);
            acc += p;
            if r < acc {
                return Some(i as TokenId);
            }
        }
    }
    last_valid // floating-point slack: return the final valid token
}

/// Autoregressively generates up to `max_new_tokens` continuing `prompt`,
/// calling `processor` before each sampling step. Stops early if the
/// processor masks out every token (returns what was generated so far) or if
/// `stop` matches the last emitted token.
pub fn generate<M: LanguageModel, P: LogitsProcessor, R: Rng>(
    model: &M,
    prompt: &[TokenId],
    max_new_tokens: usize,
    processor: &mut P,
    cfg: &SamplerConfig,
    stop: Option<TokenId>,
    rng: &mut R,
) -> Vec<TokenId> {
    let mut context: Vec<TokenId> = prompt.to_vec();
    let mut generated = Vec::new();
    for _ in 0..max_new_tokens {
        let mut logits = model.next_logits(&context);
        processor.process(&context, &mut logits);
        let Some(tok) = sample_token(&logits, cfg, rng) else {
            break;
        };
        context.push(tok);
        generated.push(tok);
        if Some(tok) == stop {
            break;
        }
    }
    generated
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    #[test]
    fn greedy_picks_argmax() {
        let logits = vec![0.1, 5.0, -2.0, 4.9];
        let cfg = SamplerConfig {
            temperature: 0.0,
            ..Default::default()
        };
        assert_eq!(sample_token(&logits, &cfg, &mut rng()), Some(1));
    }

    #[test]
    fn fully_masked_returns_none() {
        let logits = vec![f32::NEG_INFINITY; 5];
        assert_eq!(
            sample_token(&logits, &SamplerConfig::default(), &mut rng()),
            None
        );
    }

    #[test]
    fn masked_tokens_never_sampled() {
        let mut logits = vec![1.0f32; 6];
        logits[2] = f32::NEG_INFINITY;
        logits[5] = f32::NEG_INFINITY;
        let cfg = SamplerConfig::default();
        let mut r = rng();
        for _ in 0..200 {
            let t = sample_token(&logits, &cfg, &mut r).unwrap();
            assert!(t != 2 && t != 5);
        }
    }

    #[test]
    fn top_k_restricts_support() {
        let logits = vec![10.0, 9.0, 1.0, 0.5, 0.1];
        let cfg = SamplerConfig {
            top_k: 2,
            ..Default::default()
        };
        let mut r = rng();
        for _ in 0..200 {
            let t = sample_token(&logits, &cfg, &mut r).unwrap();
            assert!(t < 2, "sampled token {t} outside top-2");
        }
    }

    #[test]
    fn top_p_restricts_support() {
        // p ≈ [0.88, 0.12, ~0, ...] so top_p = 0.5 keeps only token 0.
        let logits = vec![5.0, 3.0, -5.0, -5.0];
        let cfg = SamplerConfig {
            top_p: 0.5,
            ..Default::default()
        };
        let mut r = rng();
        for _ in 0..100 {
            assert_eq!(sample_token(&logits, &cfg, &mut r), Some(0));
        }
    }

    /// A NaN logit beside a masked token and two live ones: under every
    /// branch only the live tokens may come back.
    fn assert_nan_is_masked(cfg: SamplerConfig) {
        let logits = [f32::NAN, 2.0, f32::NEG_INFINITY, 1.5, -f32::NAN];
        let mut r = rng();
        for _ in 0..200 {
            let t = sample_token(&logits, &cfg, &mut r).unwrap();
            assert!(t == 1 || t == 3, "sampled token {t} under {cfg:?}");
        }
        let dead = [f32::NAN, f32::NEG_INFINITY];
        assert_eq!(sample_token(&dead, &cfg, &mut r), None);
    }

    #[test]
    fn greedy_survives_a_nan_logit() {
        let cfg = SamplerConfig {
            temperature: 0.0,
            ..Default::default()
        };
        assert_nan_is_masked(cfg);
        let logits = [f32::NAN, 2.0, 1.5];
        assert_eq!(sample_token(&logits, &cfg, &mut rng()), Some(1));
    }

    #[test]
    fn top_k_survives_a_nan_logit() {
        assert_nan_is_masked(SamplerConfig {
            top_k: 2,
            ..Default::default()
        });
    }

    #[test]
    fn top_p_survives_a_nan_logit() {
        assert_nan_is_masked(SamplerConfig {
            top_p: 0.9,
            ..Default::default()
        });
    }

    #[test]
    fn sampling_frequencies_track_distribution() {
        // Two tokens with 3:1 logit-odds; check empirical ratio roughly holds.
        let p0 = 0.75f32;
        let logits = vec![(p0 / (1.0 - p0)).ln(), 0.0];
        let cfg = SamplerConfig::default();
        let mut r = rng();
        let n = 5000;
        let mut count0 = 0;
        for _ in 0..n {
            if sample_token(&logits, &cfg, &mut r) == Some(0) {
                count0 += 1;
            }
        }
        let freq = count0 as f32 / n as f32;
        assert!((freq - p0).abs() < 0.04, "freq {freq} too far from {p0}");
    }

    struct ConstModel {
        vocab: crate::Vocab,
        logits: Vec<f32>,
    }

    impl LanguageModel for ConstModel {
        fn vocab(&self) -> &crate::Vocab {
            &self.vocab
        }
        fn next_logits(&self, _context: &[TokenId]) -> Vec<f32> {
            self.logits.clone()
        }
    }

    #[test]
    fn generate_respects_stop_and_processor() {
        let vocab = crate::Vocab::from_corpus("ab.");
        // '.' (id of '.') strongly favored.
        let dot = vocab.id_of('.').unwrap();
        let mut logits = vec![0.0f32; vocab.len()];
        logits[dot as usize] = 10.0;
        let model = ConstModel {
            vocab: vocab.clone(),
            logits,
        };
        let mut proc = IdentityProcessor;
        let out = generate(
            &model,
            &[],
            50,
            &mut proc,
            &SamplerConfig {
                temperature: 0.0,
                ..Default::default()
            },
            Some(dot),
            &mut rng(),
        );
        assert_eq!(out, vec![dot]);

        // A processor that masks '.' forces the other tokens.
        struct MaskDot(TokenId);
        impl LogitsProcessor for MaskDot {
            fn process(&mut self, _c: &[TokenId], l: &mut [f32]) {
                l[self.0 as usize] = f32::NEG_INFINITY;
            }
        }
        let mut proc = MaskDot(dot);
        let out = generate(
            &model,
            &[],
            10,
            &mut proc,
            &SamplerConfig::default(),
            Some(dot),
            &mut rng(),
        );
        assert_eq!(out.len(), 10);
        assert!(out.iter().all(|&t| t != dot));
    }

    #[test]
    fn generate_stops_on_dead_end() {
        let vocab = crate::Vocab::from_corpus("ab");
        let model = ConstModel {
            vocab,
            logits: vec![0.0, 0.0],
        };
        struct MaskAll;
        impl LogitsProcessor for MaskAll {
            fn process(&mut self, _c: &[TokenId], l: &mut [f32]) {
                for x in l {
                    *x = f32::NEG_INFINITY;
                }
            }
        }
        let out = generate(
            &model,
            &[],
            10,
            &mut MaskAll,
            &SamplerConfig::default(),
            None,
            &mut rng(),
        );
        assert!(out.is_empty());
    }
}

/// Mean per-token cross-entropy (nats) of a model over token sequences —
/// `exp` of this is the perplexity. Positions with fewer than 1 context
/// token are skipped.
///
/// # Panics
/// Panics if no sequence contributes at least one prediction.
pub fn cross_entropy<M: LanguageModel>(model: &M, sequences: &[Vec<TokenId>]) -> f32 {
    let mut total = 0.0f64;
    let mut count = 0usize;
    for seq in sequences {
        for i in 1..seq.len() {
            let mut logits = model.next_logits(&seq[..i]);
            softmax_inplace(&mut logits);
            let p = logits[seq[i] as usize].max(1e-12);
            total -= (p as f64).ln();
            count += 1;
        }
    }
    assert!(count > 0, "no predictions to score");
    (total / count as f64) as f32
}

/// Perplexity: `exp(cross_entropy)`.
pub fn perplexity<M: LanguageModel>(model: &M, sequences: &[Vec<TokenId>]) -> f32 {
    cross_entropy(model, sequences).exp()
}

#[cfg(test)]
mod eval_tests {
    use super::*;
    use crate::ngram::NgramLm;
    use crate::tokenizer::Vocab;

    #[test]
    fn perplexity_of_memorized_pattern_is_low() {
        let text = "ab".repeat(50);
        let vocab = Vocab::from_corpus(&text);
        let seq = vocab.encode(&text).unwrap();
        let model = NgramLm::train(vocab.clone(), std::slice::from_ref(&seq), 3);
        let ppl = perplexity(&model, &[seq]);
        // Near-deterministic pattern: perplexity close to 1, far below the
        // uniform baseline of |V| = 2.
        assert!(ppl < 1.5, "perplexity {ppl}");
    }

    #[test]
    fn perplexity_of_unseen_noise_is_high() {
        let vocab = Vocab::from_corpus("abcd");
        let train = vocab.encode(&"ab".repeat(30)).unwrap();
        let model = NgramLm::train(vocab.clone(), &[train], 3);
        let noise = vocab.encode(&"cd".repeat(30)).unwrap();
        let seen = vocab.encode(&"ab".repeat(30)).unwrap();
        assert!(
            cross_entropy(&model, &[noise]) > cross_entropy(&model, &[seen]) + 1.0,
            "model should be surprised by unseen text"
        );
    }
}
