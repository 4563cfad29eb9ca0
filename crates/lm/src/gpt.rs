//! A tiny GPT: character-level decoder-only transformer trained from scratch.
//!
//! Mirrors the GPT-2 block structure the paper uses — pre-LayerNorm,
//! multi-head causal self-attention, GELU MLP with 4× expansion, learned
//! positional embeddings — at a scale that trains on a CPU in seconds to
//! minutes. The paper's argument is explicitly model-agnostic ("we
//! deliberately employ a generic, less powerful LLM"), so a faithful small
//! transformer preserves the phenomenon under study: an autoregressive model
//! with good local statistics that nevertheless violates global rules.

#![expect(
    clippy::cast_possible_truncation,
    reason = "a step count is a training budget of thousands, far inside usize on any target"
)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::autograd::{NodeId, Tape};
use crate::optim::{AdamConfig, AdamW};
use crate::tensor::Matrix;
use crate::tokenizer::{TokenId, Vocab};
use crate::LanguageModel;

/// Architecture hyperparameters.
#[derive(Clone, Copy, Debug)]
pub struct GptConfig {
    /// Embedding / residual width.
    pub d_model: usize,
    /// Number of transformer blocks.
    pub n_layers: usize,
    /// Number of attention heads (`d_model % n_heads == 0`).
    pub n_heads: usize,
    /// Maximum sequence length (positional-embedding table size).
    pub max_seq_len: usize,
}

impl Default for GptConfig {
    fn default() -> Self {
        GptConfig {
            d_model: 64,
            n_layers: 2,
            n_heads: 2,
            max_seq_len: 160,
        }
    }
}

/// Indexes into the flat parameter vector.
struct Layout {
    tok_emb: usize,
    pos_emb: usize,
    blocks: Vec<BlockLayout>,
    ln_f_g: usize,
    ln_f_b: usize,
    head_w: usize,
    head_b: usize,
}

struct BlockLayout {
    ln1_g: usize,
    ln1_b: usize,
    attn_w: usize,
    attn_b: usize,
    proj_w: usize,
    proj_b: usize,
    ln2_g: usize,
    ln2_b: usize,
    fc_w: usize,
    fc_b: usize,
    out_w: usize,
    out_b: usize,
}

/// A character-level GPT model.
pub struct TinyGpt {
    config: GptConfig,
    vocab: Vocab,
    params: Vec<Matrix>,
    layout: Layout,
}

impl TinyGpt {
    /// Creates a model with randomly initialized weights (std 0.02, like
    /// GPT-2), deterministically from `seed`.
    ///
    /// # Panics
    /// Panics if `d_model` is not divisible by `n_heads`.
    pub fn new(config: GptConfig, vocab: Vocab, seed: u64) -> TinyGpt {
        assert_eq!(
            config.d_model % config.n_heads,
            0,
            "d_model must be divisible by n_heads"
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let d = config.d_model;
        let v = vocab.len();
        let mut params: Vec<Matrix> = Vec::new();
        let push = |params: &mut Vec<Matrix>, m: Matrix| -> usize {
            params.push(m);
            params.len() - 1
        };
        const STD: f32 = 0.02;

        let tok_emb = push(&mut params, Matrix::randn(v, d, STD, &mut rng));
        let pos_emb = push(
            &mut params,
            Matrix::randn(config.max_seq_len, d, STD, &mut rng),
        );
        let mut blocks = Vec::with_capacity(config.n_layers);
        for _ in 0..config.n_layers {
            let ln1_g = push(&mut params, Matrix::from_vec(1, d, vec![1.0; d]));
            let ln1_b = push(&mut params, Matrix::zeros(1, d));
            let attn_w = push(&mut params, Matrix::randn(d, 3 * d, STD, &mut rng));
            let attn_b = push(&mut params, Matrix::zeros(1, 3 * d));
            let proj_w = push(&mut params, Matrix::randn(d, d, STD, &mut rng));
            let proj_b = push(&mut params, Matrix::zeros(1, d));
            let ln2_g = push(&mut params, Matrix::from_vec(1, d, vec![1.0; d]));
            let ln2_b = push(&mut params, Matrix::zeros(1, d));
            let fc_w = push(&mut params, Matrix::randn(d, 4 * d, STD, &mut rng));
            let fc_b = push(&mut params, Matrix::zeros(1, 4 * d));
            let out_w = push(&mut params, Matrix::randn(4 * d, d, STD, &mut rng));
            let out_b = push(&mut params, Matrix::zeros(1, d));
            blocks.push(BlockLayout {
                ln1_g,
                ln1_b,
                attn_w,
                attn_b,
                proj_w,
                proj_b,
                ln2_g,
                ln2_b,
                fc_w,
                fc_b,
                out_w,
                out_b,
            });
        }
        let ln_f_g = push(&mut params, Matrix::from_vec(1, d, vec![1.0; d]));
        let ln_f_b = push(&mut params, Matrix::zeros(1, d));
        let head_w = push(&mut params, Matrix::randn(d, v, STD, &mut rng));
        let head_b = push(&mut params, Matrix::zeros(1, v));

        TinyGpt {
            config,
            vocab,
            params,
            layout: Layout {
                tok_emb,
                pos_emb,
                blocks,
                ln_f_g,
                ln_f_b,
                head_w,
                head_b,
            },
        }
    }

    /// The architecture configuration.
    pub fn config(&self) -> &GptConfig {
        &self.config
    }

    /// The flat parameter tensors (used by the serializer).
    pub(crate) fn raw_params(&self) -> &[Matrix] {
        &self.params
    }

    /// Rebuilds a model from serialized parts, verifying that the parameter
    /// shapes match the architecture exactly.
    pub(crate) fn from_parts(
        config: GptConfig,
        vocab: Vocab,
        params: Vec<Matrix>,
    ) -> Result<TinyGpt, String> {
        let reference = TinyGpt::new(config, vocab.clone(), 0);
        if reference.params.len() != params.len() {
            return Err(format!(
                "parameter count mismatch: expected {}, found {}",
                reference.params.len(),
                params.len()
            ));
        }
        for (i, (a, b)) in reference.params.iter().zip(&params).enumerate() {
            if (a.rows(), a.cols()) != (b.rows(), b.cols()) {
                return Err(format!(
                    "parameter {i} shape mismatch: expected {}x{}, found {}x{}",
                    a.rows(),
                    a.cols(),
                    b.rows(),
                    b.cols()
                ));
            }
        }
        Ok(TinyGpt {
            params,
            ..reference
        })
    }

    /// Total number of scalar parameters.
    pub fn num_params(&self) -> usize {
        self.params.iter().map(|m| m.rows() * m.cols()).sum()
    }

    /// Forward pass on a tape. Returns the T×V logits node and the leaf ids
    /// aligned with `self.params` (for gradient extraction).
    fn forward(
        &self,
        tape: &mut Tape,
        tokens: &[TokenId],
        requires_grad: bool,
    ) -> (NodeId, Vec<NodeId>) {
        let t_len = tokens.len();
        assert!(t_len >= 1, "empty input");
        assert!(
            t_len <= self.config.max_seq_len,
            "sequence longer than max_seq_len"
        );
        let leaves: Vec<NodeId> = self
            .params
            .iter()
            .map(|p| tape.leaf(p.clone(), requires_grad))
            .collect();
        let l = &self.layout;
        let d = self.config.d_model;
        let n_heads = self.config.n_heads;
        let hd = d / n_heads;

        let idx: Vec<usize> = tokens.iter().map(|&t| t as usize).collect();
        let pos: Vec<usize> = (0..t_len).collect();
        let te = tape.embed(leaves[l.tok_emb], &idx);
        let pe = tape.embed(leaves[l.pos_emb], &pos);
        let mut x = tape.add(te, pe);

        for b in &l.blocks {
            // Attention sub-block (pre-LN).
            let a = tape.layer_norm(x, leaves[b.ln1_g], leaves[b.ln1_b]);
            let qkv = tape.matmul(a, leaves[b.attn_w]);
            let qkv = tape.add_bias(qkv, leaves[b.attn_b]);
            let q = tape.slice_cols(qkv, 0, d);
            let k = tape.slice_cols(qkv, d, 2 * d);
            let v = tape.slice_cols(qkv, 2 * d, 3 * d);
            let mut heads: Vec<NodeId> = Vec::with_capacity(n_heads);
            for h in 0..n_heads {
                let qh = tape.slice_cols(q, h * hd, (h + 1) * hd);
                let kh = tape.slice_cols(k, h * hd, (h + 1) * hd);
                let vh = tape.slice_cols(v, h * hd, (h + 1) * hd);
                let kt = tape.transpose(kh);
                let scores = tape.matmul(qh, kt);
                let scores = tape.scale(scores, 1.0 / (hd as f32).sqrt());
                let probs = tape.causal_softmax(scores);
                heads.push(tape.matmul(probs, vh));
            }
            let merged = tape.concat_cols(&heads);
            let attn_out = tape.matmul(merged, leaves[b.proj_w]);
            let attn_out = tape.add_bias(attn_out, leaves[b.proj_b]);
            x = tape.add(x, attn_out);

            // MLP sub-block (pre-LN).
            let m = tape.layer_norm(x, leaves[b.ln2_g], leaves[b.ln2_b]);
            let hmid = tape.matmul(m, leaves[b.fc_w]);
            let hmid = tape.add_bias(hmid, leaves[b.fc_b]);
            let hmid = tape.gelu(hmid);
            let mlp_out = tape.matmul(hmid, leaves[b.out_w]);
            let mlp_out = tape.add_bias(mlp_out, leaves[b.out_b]);
            x = tape.add(x, mlp_out);
        }

        let xf = tape.layer_norm(x, leaves[l.ln_f_g], leaves[l.ln_f_b]);
        let logits = tape.matmul(xf, leaves[l.head_w]);
        let logits = tape.add_bias(logits, leaves[l.head_b]);
        (logits, leaves)
    }

    /// Mean next-token cross-entropy loss of `tokens` (length ≥ 2).
    pub fn loss_on(&self, tokens: &[TokenId]) -> f32 {
        assert!(tokens.len() >= 2, "need at least 2 tokens for a loss");
        let mut tape = Tape::new();
        let (logits, _) = self.forward(&mut tape, &tokens[..tokens.len() - 1], false);
        let targets: Vec<usize> = tokens[1..].iter().map(|&t| t as usize).collect();
        let loss = tape.cross_entropy(logits, &targets);
        tape.value(loss).get(0, 0)
    }

    /// One gradient step on a batch of windows. Returns the mean loss.
    fn train_batch(&mut self, batch: &[&[TokenId]], opt: &mut AdamW) -> f32 {
        let mut grad_acc: Vec<Matrix> = self
            .params
            .iter()
            .map(|p| Matrix::zeros(p.rows(), p.cols()))
            .collect();
        let mut total_loss = 0.0f32;
        for seq in batch {
            let mut tape = Tape::new();
            let (logits, leaves) = self.forward(&mut tape, &seq[..seq.len() - 1], true);
            let targets: Vec<usize> = seq[1..].iter().map(|&t| t as usize).collect();
            let loss = tape.cross_entropy(logits, &targets);
            total_loss += tape.value(loss).get(0, 0);
            tape.backward(loss);
            for (acc, &leaf) in grad_acc.iter_mut().zip(&leaves) {
                acc.add_scaled_inplace(&tape.grad(leaf), 1.0 / batch.len() as f32);
            }
        }
        opt.step(&mut self.params, &grad_acc);
        total_loss / batch.len() as f32
    }

    /// Trains on a corpus of token sequences for `steps` optimizer steps,
    /// sampling `batch_size` random windows per step. Returns the per-step
    /// mean losses.
    pub fn train<R: Rng>(
        &mut self,
        corpus: &[Vec<TokenId>],
        steps: u64,
        batch_size: usize,
        adam: AdamConfig,
        rng: &mut R,
    ) -> Vec<f32> {
        let usable: Vec<&Vec<TokenId>> = corpus.iter().filter(|s| s.len() >= 2).collect();
        assert!(!usable.is_empty(), "corpus has no trainable sequences");
        let mut opt = AdamW::new(adam, &self.params);
        let max_window = self.config.max_seq_len + 1; // +1: inputs are len-1
        let mut losses = Vec::with_capacity(steps as usize);
        for _ in 0..steps {
            let mut windows: Vec<Vec<TokenId>> = Vec::with_capacity(batch_size);
            for _ in 0..batch_size {
                let seq = usable[rng.random_range(0..usable.len())];
                if seq.len() <= max_window {
                    windows.push(seq.clone());
                } else {
                    let start = rng.random_range(0..=(seq.len() - max_window));
                    windows.push(seq[start..start + max_window].to_vec());
                }
            }
            let refs: Vec<&[TokenId]> = windows.iter().map(|w| w.as_slice()).collect();
            losses.push(self.train_batch(&refs, &mut opt));
        }
        losses
    }
}

// Per-row kernels and weight accessors for the KV-cached step in
// `crate::cache`, which stacks lane activations into a `Matrix` and runs
// every projection through `Matrix::affine` against these weights.
impl TinyGpt {
    fn ln_row(x: &[f32], gamma: &Matrix, beta: &Matrix, out: &mut [f32]) {
        const EPS: f32 = 1e-5;
        let n = x.len() as f32;
        let mean: f32 = x.iter().sum::<f32>() / n;
        let var: f32 = x.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / n;
        let rstd = 1.0 / (var + EPS).sqrt();
        for (c, (o, &v)) in out.iter_mut().zip(x).enumerate() {
            *o = (v - mean) * rstd * gamma.get(0, c) + beta.get(0, c);
        }
    }

    pub(crate) fn tok_embedding_row(&self, tok: TokenId) -> &[f32] {
        self.params[self.layout.tok_emb].row(tok as usize)
    }

    pub(crate) fn pos_embedding_row(&self, pos: usize) -> &[f32] {
        self.params[self.layout.pos_emb].row(pos)
    }

    /// Applies a block's first (`pre_attn = true`) or second LayerNorm to
    /// `x`, writing `out`.
    pub(crate) fn apply_layer_norm(
        &self,
        layer: usize,
        pre_attn: bool,
        x: &[f32],
        out: &mut [f32],
    ) {
        let b = &self.layout.blocks[layer];
        let (g, be) = if pre_attn {
            (b.ln1_g, b.ln1_b)
        } else {
            (b.ln2_g, b.ln2_b)
        };
        Self::ln_row(x, &self.params[g], &self.params[be], out);
    }

    pub(crate) fn final_layer_norm(&self, x: &[f32], out: &mut [f32]) {
        let (g, be) = (self.layout.ln_f_g, self.layout.ln_f_b);
        Self::ln_row(x, &self.params[g], &self.params[be], out);
    }

    /// A block's attention QKV projection `(W: d×3d, b: 1×3d)`.
    pub(crate) fn attn_qkv_weights(&self, layer: usize) -> (&Matrix, &Matrix) {
        let b = &self.layout.blocks[layer];
        (&self.params[b.attn_w], &self.params[b.attn_b])
    }

    /// A block's attention output projection `(W: d×d, b: 1×d)`.
    pub(crate) fn attn_proj_weights(&self, layer: usize) -> (&Matrix, &Matrix) {
        let b = &self.layout.blocks[layer];
        (&self.params[b.proj_w], &self.params[b.proj_b])
    }

    /// A block's MLP weights `(fc_w, fc_b, out_w, out_b)`.
    pub(crate) fn mlp_weights(&self, layer: usize) -> (&Matrix, &Matrix, &Matrix, &Matrix) {
        let b = &self.layout.blocks[layer];
        (
            &self.params[b.fc_w],
            &self.params[b.fc_b],
            &self.params[b.out_w],
            &self.params[b.out_b],
        )
    }

    /// The unembedding head `(W: d×V, b: 1×V)`.
    pub(crate) fn head_weights(&self) -> (&Matrix, &Matrix) {
        (
            &self.params[self.layout.head_w],
            &self.params[self.layout.head_b],
        )
    }
}

impl LanguageModel for TinyGpt {
    fn vocab(&self) -> &Vocab {
        &self.vocab
    }

    fn next_logits(&self, context: &[TokenId]) -> Vec<f32> {
        // Empty context: predict from a single pad-ish token (id 0); the
        // caller normally provides at least a prompt or a BOS-like char.
        let ctx: Vec<TokenId> = if context.is_empty() {
            vec![0]
        } else if context.len() > self.config.max_seq_len {
            context[context.len() - self.config.max_seq_len..].to_vec()
        } else {
            context.to_vec()
        };
        let mut tape = Tape::new();
        let (logits, _) = self.forward(&mut tape, &ctx, false);
        let lv = tape.value(logits);
        lv.row(lv.rows() - 1).to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optim::AdamConfig;

    fn tiny_config() -> GptConfig {
        GptConfig {
            d_model: 16,
            n_layers: 1,
            n_heads: 2,
            max_seq_len: 32,
        }
    }

    #[test]
    fn forward_shapes_and_determinism() {
        let vocab = Vocab::from_corpus("abc");
        let model = TinyGpt::new(tiny_config(), vocab.clone(), 1);
        let ctx = vocab.encode("abca").unwrap();
        let l1 = model.next_logits(&ctx);
        let l2 = model.next_logits(&ctx);
        assert_eq!(l1.len(), vocab.len());
        assert_eq!(l1, l2, "inference must be deterministic");
        assert!(l1.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn same_seed_same_weights() {
        let vocab = Vocab::from_corpus("abc");
        let m1 = TinyGpt::new(tiny_config(), vocab.clone(), 42);
        let m2 = TinyGpt::new(tiny_config(), vocab.clone(), 42);
        let ctx = vocab.encode("ab").unwrap();
        assert_eq!(m1.next_logits(&ctx), m2.next_logits(&ctx));
        let m3 = TinyGpt::new(tiny_config(), vocab, 43);
        assert_ne!(m1.next_logits(&[0, 1]), m3.next_logits(&[0, 1]));
    }

    #[test]
    fn causality_prefix_invariance() {
        // Logits at position t must not depend on tokens after t: the
        // next-token logits for a prefix equal the prefix-row logits of the
        // longer sequence.
        let vocab = Vocab::from_corpus("abc");
        let model = TinyGpt::new(tiny_config(), vocab.clone(), 5);
        let full = vocab.encode("abcab").unwrap();
        let prefix = &full[..3];
        let from_prefix = model.next_logits(prefix);

        let mut tape = Tape::new();
        let (logits, _) = model.forward(&mut tape, &full, false);
        let row = tape.value(logits).row(2).to_vec();
        for (a, b) in from_prefix.iter().zip(&row) {
            assert!((a - b).abs() < 1e-4, "causality violated: {a} vs {b}");
        }
    }

    #[test]
    fn training_reduces_loss() {
        let vocab = Vocab::from_corpus("ab");
        let corpus: Vec<Vec<TokenId>> = (0..8)
            .map(|_| vocab.encode(&"ab".repeat(10)).unwrap())
            .collect();
        let mut model = TinyGpt::new(tiny_config(), vocab.clone(), 3);
        let before = model.loss_on(&corpus[0]);
        let mut rng = StdRng::seed_from_u64(0);
        let adam = AdamConfig {
            lr: 1e-2,
            warmup_steps: 5,
            total_steps: 60,
            ..AdamConfig::default()
        };
        model.train(&corpus, 60, 2, adam, &mut rng);
        let after = model.loss_on(&corpus[0]);
        assert!(
            after < before * 0.6,
            "loss did not drop enough: {before} -> {after}"
        );
        // The pattern "ab" should now be strongly predicted.
        let a = vocab.id_of('a').unwrap();
        let b = vocab.id_of('b').unwrap();
        let logits = model.next_logits(&vocab.encode("abab").unwrap());
        assert!(logits[a as usize] > logits[b as usize] || after < 0.1);
    }

    #[test]
    fn long_context_is_truncated() {
        let vocab = Vocab::from_corpus("ab");
        let model = TinyGpt::new(tiny_config(), vocab.clone(), 1);
        let long: Vec<TokenId> = vocab.encode(&"ab".repeat(100)).unwrap();
        let l = model.next_logits(&long);
        assert_eq!(l.len(), vocab.len());
        assert!(l.iter().all(|v| v.is_finite()));
    }

    /// FNV-1a over the `f32::to_bits` of every parameter after a fixed-seed
    /// training run: 30 steps at batch 2 of a two-layer `d_model` 40 model,
    /// so the products see widths 40 and 120 (not multiples of the kernel's
    /// tile) as well as 160 (a multiple).
    fn trained_params_hash() -> u64 {
        let vocab = Vocab::from_corpus("0123456789,.");
        let corpus: Vec<Vec<TokenId>> = (0..12u64)
            .map(|i| {
                let text: String = (0..9)
                    .map(|j| format!("{},", (i * 7919 + j * 104_729) % 9973))
                    .collect();
                vocab.encode(&format!("{text}.")).unwrap()
            })
            .collect();
        let config = GptConfig {
            d_model: 40,
            n_layers: 2,
            n_heads: 2,
            max_seq_len: 40,
        };
        let mut model = TinyGpt::new(config, vocab, 11);
        let adam = AdamConfig {
            lr: 1e-2,
            warmup_steps: 5,
            total_steps: 30,
            ..AdamConfig::default()
        };
        model.train(&corpus, 30, 2, adam, &mut StdRng::seed_from_u64(17));
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for p in model.raw_params() {
            for x in p.data() {
                for byte in x.to_bits().to_le_bytes() {
                    h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
        }
        h
    }

    #[test]
    fn trained_weights_bits_match_the_golden() {
        // Captured at commit 4234814, before the four product loop nests
        // became one kernel: the test that fails if a training float moves.
        const GOLDEN: u64 = 1_844_309_926_814_062_477;
        assert_eq!(trained_params_hash(), GOLDEN);
    }

    #[test]
    fn num_params_counts_everything() {
        let vocab = Vocab::from_corpus("abc");
        let cfg = tiny_config();
        let model = TinyGpt::new(cfg, vocab.clone(), 1);
        let d = cfg.d_model;
        let v = vocab.len();
        let per_block = 2 * d
            + (d * 3 * d + 3 * d)
            + (d * d + d)
            + 2 * d
            + (d * 4 * d + 4 * d)
            + (4 * d * d + d);
        let expected = v * d + cfg.max_seq_len * d + cfg.n_layers * per_block + 2 * d + (d * v + v);
        assert_eq!(model.num_params(), expected);
    }
}
