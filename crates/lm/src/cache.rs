//! KV-cached incremental inference for [`TinyGpt`].
//!
//! The JIT decoder queries the model once per *character*; re-running the
//! full forward pass each time costs `O(T²)` per token, `O(T³)` per record.
//! A [`KvCache`] stores each layer's key/value rows so appending one token
//! is `O(T)` — the standard transformer inference optimization.
//!
//! The cache holds several independent sequences ("lanes"): each layer
//! stores one `lanes·max_seq_len × d` K/V matrix and lane `l`'s
//! position-`p` row lives at the fixed offset `l·max_seq_len + p`.
//! There is one transformer step. It appends a *run* of tokens to each of
//! any subset of lanes — a whole prompt, a schema literal, or the one
//! sampled character — as consecutive rows of one stacked matrix: every
//! weight projection is one [`Matrix::affine`] over all rows of all lanes
//! (GEMM-shaped), attention stays per row (each row sees its lane's cached
//! rows and the rows before it in its run). Only a run's last row has its
//! logits read, so the last layer carries only that row past its K/V write.
//! [`TinyGpt::forward_batch_cached`] hands it every lagging lane's pending
//! tokens at once; [`TinyGpt::append_tokens_batch`] hands it runs of one.
//! A lane's floats are a pure function of that lane's tokens — never of
//! its neighbours, of the batch width or of how its tokens were split into
//! runs — so batching cannot change decoded output (DESIGN.md §8).
//!
//! [`CachedGpt`] wraps a model + cache behind the stateless
//! [`LanguageModel`] trait: it matches each requested context to the lane
//! holding its longest cached prefix, appends the new tokens, and rebuilds
//! a lane whose context diverged (a new record started) or slid past the
//! model's window. A single [`LanguageModel::next_logits`] call is a batch
//! of one.

use std::cell::RefCell;

use crate::gpt::TinyGpt;
use crate::tensor::{gelu, softmax_inplace, Matrix};
use crate::tokenizer::{TokenId, Vocab};
use crate::LanguageModel;

/// A KV cache of `lanes` independent sequences backed by one
/// `lanes·max_seq_len × d_model` K/V matrix per layer.
///
/// Lane `l`'s position-`p` row lives at the fixed offset
/// `l · max_seq_len + p`, so growing one lane never moves another lane's
/// rows and a batch step touches each layer's K/V storage exactly once.
pub struct KvCache {
    /// K/V rows reserved per lane (= the model's `max_seq_len`).
    stride: usize,
    /// Tokens incorporated so far, per lane.
    tokens: Vec<Vec<TokenId>>,
    /// `(K, V)` per layer; lane `l`'s position-`p` row is `l·stride + p`.
    layers: Vec<(Matrix, Matrix)>,
    /// Next-token logits after each lane's last position (empty for an
    /// empty lane), so an unchanged context is answered without a step.
    last_logits: Vec<Vec<f32>>,
}

impl KvCache {
    /// Number of lanes this cache was built with.
    pub fn lanes(&self) -> usize {
        self.tokens.len()
    }

    /// Tokens currently incorporated into `lane`.
    pub fn tokens(&self, lane: usize) -> &[TokenId] {
        &self.tokens[lane]
    }

    /// Greedily assigns each context a distinct lane, preferring the lane
    /// whose cached tokens form the longest prefix of that context (an
    /// empty lane beats a diverged one). This keeps a lane following "its"
    /// record across calls even as finished neighbours drop out of the
    /// batch and the surviving contexts shift position.
    fn assign_lanes(&self, targets: &[&[TokenId]]) -> Vec<usize> {
        let mut used = vec![false; self.lanes()];
        let mut out = Vec::with_capacity(targets.len());
        for &t in targets {
            let mut best: Option<(usize, usize)> = None; // (score, lane)
            for (l, cached) in self.tokens.iter().enumerate() {
                if used[l] {
                    continue;
                }
                // +1 so an empty lane (reusable, score 1) outranks a
                // diverged lane (reset required, score 0).
                let score = if t.starts_with(cached) {
                    cached.len() + 1
                } else {
                    0
                };
                if best.is_none_or(|(b, _)| score > b) {
                    best = Some((score, l));
                }
            }
            let (_, l) = best.expect("assign_lanes: more contexts than lanes");
            used[l] = true;
            out.push(l);
        }
        out
    }
}

impl TinyGpt {
    /// Creates an empty KV cache with `lanes` lanes (clamped to ≥ 1), each
    /// with `max_seq_len` rows of capacity.
    pub fn new_batch_cache(&self, lanes: usize) -> KvCache {
        let lanes = lanes.max(1);
        let stride = self.config().max_seq_len;
        let d = self.config().d_model;
        KvCache {
            stride,
            tokens: (0..lanes).map(|_| Vec::with_capacity(stride)).collect(),
            layers: (0..self.config().n_layers)
                .map(|_| {
                    (
                        Matrix::zeros(lanes * stride, d),
                        Matrix::zeros(lanes * stride, d),
                    )
                })
                .collect(),
            last_logits: vec![Vec::new(); lanes],
        }
    }

    /// Appends one token to each listed lane and returns each lane's
    /// next-token logits, in `entries` order: the step of
    /// [`TinyGpt::forward_batch_cached`] with a run of one token per lane.
    ///
    /// # Panics
    /// Panics if a lane index is out of range, listed twice, or already
    /// full (`len == max_seq_len`) — callers must rebuild a full lane with
    /// a truncated context instead.
    pub fn append_tokens_batch(
        &self,
        cache: &mut KvCache,
        entries: &[(usize, TokenId)],
    ) -> Vec<Vec<f32>> {
        let runs: Vec<(usize, &[TokenId])> = entries
            .iter()
            .map(|(l, tok)| (*l, std::slice::from_ref(tok)))
            .collect();
        self.step_lanes(cache, &runs);
        entries
            .iter()
            .map(|&(l, _)| cache.last_logits[l].clone())
            .collect()
    }

    /// The one transformer step: appends a run of tokens to each listed
    /// lane and leaves each lane's next-token logits in the cache.
    ///
    /// A run's tokens are consecutive rows of one stacked activation
    /// matrix. The per-row work (embedding sum, LayerNorm, residual adds,
    /// attention) is scalar, while every weight projection (QKV, attention
    /// output, both MLP layers, the LM head) runs as one [`Matrix::affine`]
    /// over the stacked rows, so each weight is streamed once per step
    /// instead of once per token. Each layer writes every row's K/V before
    /// attending, so row `j` of a run attends to the lane's cached rows and
    /// rows `0..=j` of its own run — the rows a one-token step at that
    /// position would see.
    ///
    /// Only a run's last row has its logits read, and after the last
    /// layer's K/V write nothing reads an earlier row's residual stream:
    /// later positions read that layer's K/V rows, never its output. So
    /// the last layer carries only each lane's last row past its K/V write
    /// (attention, projection, MLP, final LayerNorm and head). Every kept
    /// row does the same per-element arithmetic as a one-token step, so a
    /// run's logits equal the last of its one-token steps bit for bit.
    fn step_lanes(&self, cache: &mut KvCache, runs: &[(usize, &[TokenId])]) {
        let cfg = *self.config();
        let d = cfg.d_model;
        let hd = d / cfg.n_heads;
        let b = runs.len();
        if b == 0 {
            return;
        }
        let mut seen = vec![false; cache.lanes()];
        for &(l, run) in runs {
            assert!(l < cache.lanes(), "lane {l} out of range");
            assert!(!seen[l], "duplicate lane {l} in batch");
            seen[l] = true;
            assert!(!run.is_empty(), "empty run for lane {l}");
            assert!(
                cache.tokens[l].len() + run.len() <= cache.stride,
                "KV cache full; rebuild with truncation"
            );
        }

        // One query per stacked row: (its lane's first K/V row, its
        // position). `last[i]` is the last row of `runs[i]`.
        let mut queries: Vec<(usize, usize)> = Vec::new();
        let mut last: Vec<usize> = Vec::with_capacity(b);
        // X[r] = tok_emb[tok] + pos_emb[pos], row by row.
        let mut x = Matrix::zeros(runs.iter().map(|(_, run)| run.len()).sum(), d);
        for &(l, run) in runs {
            let start = cache.tokens[l].len();
            for (j, &tok) in run.iter().enumerate() {
                let pos = start + j;
                let row = x.row_mut(queries.len());
                row.copy_from_slice(self.tok_embedding_row(tok));
                for (xi, &p) in row.iter_mut().zip(self.pos_embedding_row(pos)) {
                    *xi += p;
                }
                queries.push((l * cache.stride, pos));
            }
            last.push(queries.len() - 1);
        }

        let scale = 1.0 / (hd as f32).sqrt();
        let mut scores: Vec<f32> = Vec::with_capacity(cache.stride);
        for layer in 0..cfg.n_layers {
            // Attention sub-block: per-row LN, one batched QKV projection.
            let mut a = Matrix::zeros(x.rows(), d);
            for i in 0..x.rows() {
                self.apply_layer_norm(layer, true, x.row(i), a.row_mut(i));
            }
            let (qkv_w, qkv_b) = self.attn_qkv_weights(layer);
            let mut qkv = a.affine(qkv_w, qkv_b); // rows×3d
            {
                // Write K/V rows before attending so each row's scores
                // include its own position and its run's earlier rows.
                let (k_cache, v_cache) = &mut cache.layers[layer];
                for (i, &(base, pos)) in queries.iter().enumerate() {
                    let at = base + pos;
                    let row = qkv.row(i);
                    k_cache.row_mut(at).copy_from_slice(&row[d..2 * d]);
                    v_cache.row_mut(at).copy_from_slice(&row[2 * d..3 * d]);
                }
            }
            if layer + 1 == cfg.n_layers && x.rows() > b {
                // The last layer: only each run's last row goes on.
                x = gather_rows(&x, &last);
                qkv = gather_rows(&qkv, &last);
                queries = last.iter().map(|&r| queries[r]).collect();
            }
            // Per-row scalar attention over the lane's rows up to the
            // row's own position (causal by construction).
            let mut attn = Matrix::zeros(x.rows(), d);
            let (k_cache, v_cache) = &cache.layers[layer];
            for (i, &(base, pos)) in queries.iter().enumerate() {
                let n = pos + 1; // includes the row's own position
                let qkv_row = qkv.row(i);
                let attn_out = attn.row_mut(i);
                for h in 0..cfg.n_heads {
                    let q = &qkv_row[h * hd..(h + 1) * hd];
                    scores.clear();
                    for r in 0..n {
                        let krow = &k_cache.row(base + r)[h * hd..(h + 1) * hd];
                        let dot: f32 = q.iter().zip(krow).map(|(a, b)| a * b).sum();
                        scores.push(dot * scale);
                    }
                    softmax_inplace(&mut scores);
                    for (r, &p) in scores.iter().enumerate() {
                        let vrow = &v_cache.row(base + r)[h * hd..(h + 1) * hd];
                        for (o, &vv) in attn_out[h * hd..(h + 1) * hd].iter_mut().zip(vrow) {
                            *o += p * vv;
                        }
                    }
                }
            }
            let (proj_w, proj_b) = self.attn_proj_weights(layer);
            let projected = attn.affine(proj_w, proj_b);
            for (xi, &p) in x.data_mut().iter_mut().zip(projected.data()) {
                *xi += p;
            }

            // MLP sub-block: per-row LN, batched fc → GELU → batched out.
            let mut m = Matrix::zeros(x.rows(), d);
            for i in 0..x.rows() {
                self.apply_layer_norm(layer, false, x.row(i), m.row_mut(i));
            }
            let (fc_w, fc_b, out_w, out_b) = self.mlp_weights(layer);
            let mut mid = m.affine(fc_w, fc_b);
            for v in mid.data_mut() {
                *v = gelu(*v);
            }
            let out = mid.affine(out_w, out_b);
            for (xi, &p) in x.data_mut().iter_mut().zip(out.data()) {
                *xi += p;
            }
        }
        if x.rows() > b {
            // Only a model without layers reaches the head with every row.
            x = gather_rows(&x, &last);
        }

        let mut xf = Matrix::zeros(b, d);
        for i in 0..b {
            self.final_layer_norm(x.row(i), xf.row_mut(i));
        }
        let (head_w, head_b) = self.head_weights();
        let logits = xf.affine(head_w, head_b);

        for (i, &(l, run)) in runs.iter().enumerate() {
            cache.tokens[l].extend_from_slice(run);
            cache.last_logits[l].clear();
            cache.last_logits[l].extend_from_slice(logits.row(i));
        }
    }

    /// Feeds several contexts through the cache and returns each context's
    /// next-token logits, in input order. Equivalent to
    /// [`LanguageModel::next_logits`] per context, but amortized across
    /// calls with growing contexts.
    ///
    /// Contexts are matched to lanes by longest cached prefix (so a caller
    /// whose batch shrinks as records finish keeps its cache hits), empty
    /// contexts fall back to a BOS token, overlong contexts are truncated
    /// to the last `max_seq_len` tokens, a lane is reused iff its tokens
    /// are a prefix of its context and reset otherwise, and an unchanged
    /// context is answered from the lane's stored logits. Every lane that
    /// lags behind its target takes the tokens it lacks as one run, and
    /// all runs go through a single step — the one that
    /// [`TinyGpt::append_tokens_batch`] takes with runs of one token.
    ///
    /// # Panics
    /// Panics if `contexts.len() > cache.lanes()`.
    pub fn forward_batch_cached(
        &self,
        cache: &mut KvCache,
        contexts: &[&[TokenId]],
    ) -> Vec<Vec<f32>> {
        let cfg = *self.config();
        assert!(
            contexts.len() <= cache.lanes(),
            "more contexts ({}) than cache lanes ({})",
            contexts.len(),
            cache.lanes()
        );
        let bos: [TokenId; 1] = [0];
        let targets: Vec<&[TokenId]> = contexts
            .iter()
            .map(|&c| {
                if c.is_empty() {
                    &bos[..]
                } else if c.len() > cfg.max_seq_len {
                    &c[c.len() - cfg.max_seq_len..]
                } else {
                    c
                }
            })
            .collect();
        let lanes = cache.assign_lanes(&targets);

        // A diverged lane restarts from position 0; its K/V rows need no
        // zeroing — only rows below the lane length are ever read.
        for (&l, &t) in lanes.iter().zip(&targets) {
            if !t.starts_with(&cache.tokens[l]) {
                cache.tokens[l].clear();
                cache.last_logits[l].clear();
            }
        }

        // Every lagging lane appends the tokens it lacks, in one step.
        let runs: Vec<(usize, &[TokenId])> = lanes
            .iter()
            .zip(&targets)
            .filter(|(&l, t)| cache.tokens[l].len() < t.len())
            .map(|(&l, t)| (l, &t[cache.tokens[l].len()..]))
            .collect();
        self.step_lanes(cache, &runs);
        lanes
            .iter()
            .map(|&l| cache.last_logits[l].clone())
            .collect()
    }
}

/// The rows `rows` of `x`, in that order.
fn gather_rows(x: &Matrix, rows: &[usize]) -> Matrix {
    let mut out = Matrix::zeros(rows.len(), x.cols());
    for (i, &r) in rows.iter().enumerate() {
        out.row_mut(i).copy_from_slice(x.row(r));
    }
    out
}

/// A [`TinyGpt`] wrapped with an interior-mutable [`KvCache`], implementing
/// the stateless [`LanguageModel`] trait with amortized incremental cost:
/// [`LanguageModel::forward_batch`] is one GEMM-shaped step per decode
/// round, [`LanguageModel::next_logits`] the same step at width one.
///
/// The cache starts with one lane and is rebuilt at the new width when
/// `forward_batch` is handed more contexts than it has lanes; each lane
/// then takes its whole context as one run, which moves no output byte.
pub struct CachedGpt<'m> {
    gpt: &'m TinyGpt,
    cache: RefCell<KvCache>,
}

impl<'m> CachedGpt<'m> {
    /// Wraps a model.
    pub fn new(gpt: &'m TinyGpt) -> CachedGpt<'m> {
        CachedGpt {
            gpt,
            cache: RefCell::new(gpt.new_batch_cache(1)),
        }
    }
}

impl LanguageModel for CachedGpt<'_> {
    fn vocab(&self) -> &Vocab {
        self.gpt.vocab()
    }

    fn next_logits(&self, context: &[TokenId]) -> Vec<f32> {
        // A batch of one (the trait default of `forward_batch` would
        // recurse back into this method).
        self.forward_batch(&[context])
            .pop()
            .expect("one context in, one logits row out")
    }

    fn forward_batch(&self, contexts: &[&[TokenId]]) -> Vec<Vec<f32>> {
        let mut cache = self.cache.borrow_mut();
        if contexts.len() > cache.lanes() {
            *cache = self.gpt.new_batch_cache(contexts.len());
        }
        self.gpt.forward_batch_cached(&mut cache, contexts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gpt::GptConfig;
    use crate::tokenizer::Vocab;

    fn model() -> TinyGpt {
        model_with_layers(2)
    }

    fn model_with_layers(n_layers: usize) -> TinyGpt {
        let vocab = Vocab::from_corpus("0123456789,.");
        TinyGpt::new(
            GptConfig {
                d_model: 16,
                n_layers,
                n_heads: 2,
                max_seq_len: 24,
            },
            vocab,
            3,
        )
    }

    fn close(a: &[f32], b: &[f32]) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| (x - y).abs() < 1e-3)
    }

    fn encode(m: &TinyGpt, texts: &[&str]) -> Vec<Vec<TokenId>> {
        texts.iter().map(|t| m.vocab().encode(t).unwrap()).collect()
    }

    /// The width-one reference: `ctx` fed through a fresh one-lane cache.
    fn one_lane(m: &TinyGpt, ctx: &[TokenId]) -> Vec<f32> {
        m.forward_batch_cached(&mut m.new_batch_cache(1), &[ctx])
            .remove(0)
    }

    // --- the engine vs the autograd full forward (tolerance) ------------

    #[test]
    fn cached_matches_full_forward() {
        let m = model();
        let ctx = m.vocab().encode("12,34,5.").unwrap();
        let full = m.next_logits(&ctx);
        let cached = one_lane(&m, &ctx);
        assert!(close(&full, &cached), "full {full:?} vs cached {cached:?}");
    }

    #[test]
    fn incremental_appends_match_at_every_prefix() {
        let m = model();
        let ctx = m.vocab().encode("987,65,43,2.").unwrap();
        let mut cache = m.new_batch_cache(1);
        for end in 1..=ctx.len() {
            let cached = m.forward_batch_cached(&mut cache, &[&ctx[..end]]);
            let full = m.next_logits(&ctx[..end]);
            assert!(close(&full, &cached[0]), "prefix {end} diverged");
            assert_eq!(cache.tokens(0).len(), end);
        }
    }

    #[test]
    fn divergent_context_rebuilds() {
        let m = model();
        let a = m.vocab().encode("11,22.").unwrap();
        let b = m.vocab().encode("93,4.").unwrap();
        let mut cache = m.new_batch_cache(1);
        let _ = m.forward_batch_cached(&mut cache, &[&a]);
        let cached = m.forward_batch_cached(&mut cache, &[&b]);
        assert!(close(&m.next_logits(&b), &cached[0]));
        assert_eq!(cache.tokens(0), b.as_slice());
        // Bitwise what a lane that never held `a` computes.
        assert_eq!(cached[0], one_lane(&m, &b));
    }

    #[test]
    fn repeated_identical_query_is_answered_from_the_lane() {
        let m = model();
        let ctx = m.vocab().encode("5,6.").unwrap();
        let mut cache = m.new_batch_cache(1);
        let first = m.forward_batch_cached(&mut cache, &[&ctx]);
        let second = m.forward_batch_cached(&mut cache, &[&ctx]);
        assert_eq!(first, second);
        assert_eq!(cache.tokens(0), ctx.as_slice());
    }

    #[test]
    fn overlong_and_empty_contexts_follow_the_full_path() {
        let m = model();
        let long = m.vocab().encode(&"12,".repeat(20)).unwrap(); // 60 > 24
        assert!(close(&m.next_logits(&long), &one_lane(&m, &long)));
        assert_eq!(one_lane(&m, &long), one_lane(&m, &long[60 - 24..]));
        // Empty context: the BOS fallback.
        assert!(close(&m.next_logits(&[]), &one_lane(&m, &[])));
        assert_eq!(one_lane(&m, &[]), one_lane(&m, &[0]));
    }

    #[test]
    fn cached_wrapper_is_transparent() {
        let m = model();
        let wrapper = CachedGpt::new(&m);
        let ctx = m.vocab().encode("31,41,59.").unwrap();
        for end in 1..=ctx.len() {
            assert!(close(
                &wrapper.next_logits(&ctx[..end]),
                &m.next_logits(&ctx[..end])
            ));
        }
    }

    #[test]
    #[should_panic(expected = "KV cache full")]
    fn appending_past_window_panics() {
        let m = model();
        let mut cache = m.new_batch_cache(1);
        for _ in 0..25 {
            m.append_tokens_batch(&mut cache, &[(0, 0)]);
        }
    }

    // --- width 1 vs width N of the one engine ---------------------------
    //
    // A lane's floats are a pure function of its tokens, so these tests
    // use assert_eq on raw f32 vectors, not a tolerance.

    #[test]
    fn wide_step_is_bitwise_equal_to_one_lane_steps() {
        // Three lanes of different lengths stepped lock-step; short lanes
        // drop out of later rounds. Every logits row must be the exact
        // floats of the same tokens stepped through a one-lane cache.
        let m = model();
        let toks = encode(&m, &["12,34,5.", "987,65,43,2.", "0.0"]);
        let mut narrow: Vec<KvCache> = (0..3).map(|_| m.new_batch_cache(1)).collect();
        let mut wide = m.new_batch_cache(3);
        let max_len = toks.iter().map(|t| t.len()).max().unwrap();
        for step in 0..max_len {
            let mut entries = Vec::new();
            let mut expect = Vec::new();
            for (l, t) in toks.iter().enumerate() {
                if step < t.len() {
                    entries.push((l, t[step]));
                    expect.extend(m.append_tokens_batch(&mut narrow[l], &[(0, t[step])]));
                }
            }
            let got = m.append_tokens_batch(&mut wide, &entries);
            assert_eq!(got, expect, "step {step} diverged from width one");
        }
        for (l, t) in toks.iter().enumerate() {
            assert_eq!(wide.tokens(l), t.as_slice());
        }
    }

    #[test]
    fn wide_contexts_match_one_lane_bitwise() {
        // Catch-up of unequal lanes, the overlong truncation and the BOS
        // fallback, all in one wide call.
        let m = model();
        let toks = encode(&m, &["11,22.", "93,4.", &"12,".repeat(20), ""]);
        let ctxs: Vec<&[TokenId]> = toks.iter().map(|t| t.as_slice()).collect();
        let mut cache = m.new_batch_cache(4);
        let got = m.forward_batch_cached(&mut cache, &ctxs);
        for (ctx, row) in ctxs.iter().zip(&got) {
            assert_eq!(row, &one_lane(&m, ctx));
        }
    }

    fn as_slices(v: &[Vec<TokenId>]) -> Vec<&[TokenId]> {
        v.iter().map(|t| t.as_slice()).collect()
    }

    /// `tokens` stepped one at a time through a fresh one-lane cache: the
    /// logits after each token. `append_tokens_batch` is the reference
    /// because it takes runs of one token, where `forward_batch_cached`
    /// takes a lane's pending tokens as one run.
    fn single_steps(m: &TinyGpt, tokens: &[TokenId]) -> Vec<Vec<f32>> {
        let mut cache = m.new_batch_cache(1);
        tokens
            .iter()
            .map(|&t| m.append_tokens_batch(&mut cache, &[(0, t)]).remove(0))
            .collect()
    }

    #[test]
    fn runs_are_bitwise_equal_to_single_steps() {
        // Six lanes at positions 3, 0 (BOS), 5, 10, 1 and 1 take runs of 1,
        // 2, 7 and 14 tokens (the last fills its lane to exactly
        // `max_seq_len` = 24), a BOS run and an overlong context's last 24
        // tokens, all in one call; the last three reset their lane first.
        // The last layer is where a run's earlier rows stop, so models with
        // one, two and three layers are checked.
        let prefixes = ["123", "", "5,6,7", "31,41,59,2", "7", "0"];
        let long = "12,".repeat(20);
        let contexts = [
            "123,",
            "98",
            "5,6,77,8.0,1",
            "31,41,59,26,53,58,97,932",
            "",
            long.as_str(),
        ];
        for n_layers in 1..=3 {
            let m = model_with_layers(n_layers);
            let prefixes = encode(&m, &prefixes);
            let contexts = encode(&m, &contexts);
            let mut cache = m.new_batch_cache(6);
            let _ = m.forward_batch_cached(&mut cache, &as_slices(&prefixes));
            let got = m.forward_batch_cached(&mut cache, &as_slices(&contexts));
            let mut targets = contexts.clone();
            targets[4] = vec![0];
            targets[5].drain(..60 - 24);
            for (l, target) in targets.iter().enumerate() {
                assert_eq!(cache.tokens(l), target.as_slice(), "lane {l}");
                assert_eq!(
                    got[l],
                    *single_steps(&m, target).last().unwrap(),
                    "{n_layers} layers, lane {l}"
                );
            }
            // The K/V rows a run left behind are the ones single steps
            // leave: one more token on each lane that has room agrees too.
            let next: Vec<(usize, TokenId)> = vec![(0, 1), (1, 2), (2, 3), (4, 4)];
            let stepped = m.append_tokens_batch(&mut cache, &next);
            for (&(l, tok), row) in next.iter().zip(&stepped) {
                let mut longer = targets[l].clone();
                longer.push(tok);
                assert_eq!(
                    *row,
                    *single_steps(&m, &longer).last().unwrap(),
                    "{n_layers} layers, lane {l} after the run"
                );
            }
        }
    }

    #[test]
    fn wide_divergence_resets_only_the_diverged_lane() {
        let m = model();
        let first = encode(&m, &["11,22.", "93,4."]);
        let second = encode(&m, &["11,22.7", "5,5."]); // lane 0 grows, lane 1 diverges
        let mut cache = m.new_batch_cache(2);
        let _ = m.forward_batch_cached(&mut cache, &[&first[0], &first[1]]);
        let got = m.forward_batch_cached(&mut cache, &[&second[0], &second[1]]);
        assert_eq!(cache.tokens(0), second[0].as_slice());
        assert_eq!(cache.tokens(1), second[1].as_slice());
        for (ctx, row) in second.iter().zip(&got) {
            assert_eq!(row, &one_lane(&m, ctx));
        }
    }

    #[test]
    fn wrapper_tracks_lanes_across_dropout() {
        // Decode-style usage: contexts grow one token per round, lanes
        // finish at different times, and later rounds pass fewer contexts
        // (so surviving contexts shift position in the batch). The lane
        // matcher must keep each record on its own cache lane and stay
        // bit-equal to one wrapper per record queried one context at a
        // time.
        let m = model();
        let full = encode(&m, &["987,65,43,2.", "11,22.", "12,34,5."]);
        let wide = CachedGpt::new(&m);
        let narrow: Vec<CachedGpt> = (0..3).map(|_| CachedGpt::new(&m)).collect();
        let max_len = full.iter().map(|t| t.len()).max().unwrap();
        for end in 1..=max_len {
            let active: Vec<usize> = (0..3).filter(|&l| end <= full[l].len()).collect();
            let ctxs: Vec<&[TokenId]> = active.iter().map(|&l| &full[l][..end]).collect();
            let got = wide.forward_batch(&ctxs);
            for (&l, row) in active.iter().zip(&got) {
                assert_eq!(
                    row,
                    &narrow[l].next_logits(&full[l][..end]),
                    "lane {l} round {end}"
                );
            }
        }
        assert_eq!(narrow[0].cache.borrow().lanes(), 1);
    }

    #[test]
    fn wrapper_grows_mid_stream_without_moving_a_float() {
        let m = model();
        let toks = encode(&m, &["31,41,59.", "2."]);
        let wrapper = CachedGpt::new(&m);
        // Part of the first record at width one …
        let _ = wrapper.next_logits(&toks[0][..4]);
        assert_eq!(wrapper.cache.borrow().lanes(), 1);
        // … then a second record joins: the cache is rebuilt two lanes
        // wide and both lanes catch up from their contexts.
        let got = wrapper.forward_batch(&[&toks[0][..5], &toks[1]]);
        assert_eq!(wrapper.cache.borrow().lanes(), 2);
        assert_eq!(got[0], one_lane(&m, &toks[0][..5]));
        assert_eq!(got[1], one_lane(&m, &toks[1]));
        // Width never shrinks; a single query reuses its lane.
        assert_eq!(wrapper.next_logits(&toks[0]), one_lane(&m, &toks[0]));
        assert_eq!(wrapper.cache.borrow().lanes(), 2);
        assert!(wrapper.forward_batch(&[]).is_empty());
    }

    #[test]
    fn default_forward_batch_loops_next_logits() {
        // The trait default (used by e.g. the n-gram LM) loops the
        // single-context call.
        let m = model();
        let a = m.vocab().encode("12.").unwrap();
        let b = m.vocab().encode("3,4.").unwrap();
        let got = m.forward_batch(&[&a, &b]);
        assert_eq!(got, vec![m.next_logits(&a), m.next_logits(&b)]);
    }

    #[test]
    #[should_panic(expected = "duplicate lane")]
    fn append_rejects_duplicate_lanes() {
        let m = model();
        let mut cache = m.new_batch_cache(2);
        m.append_tokens_batch(&mut cache, &[(0, 1), (0, 2)]);
    }

    // --- golden ---------------------------------------------------------

    /// FNV-1a over the `f32::to_bits` of every logit the wrapper returns
    /// for a fixed script of queries against the fixed-seed [`model`].
    fn logits_bits_hash(wrapper: &CachedGpt) -> u64 {
        let v = wrapper.vocab();
        let grow = v.encode("987,65,43,2.").unwrap();
        let other = v.encode("11,22.").unwrap();
        let long = v.encode(&"12,".repeat(20)).unwrap(); // 60 > 24
        let mut script: Vec<&[TokenId]> = (1..=grow.len()).map(|end| &grow[..end]).collect();
        script.extend([&other[..], &other[..], &long[..], &[][..], &grow[..3]]);
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for ctx in script {
            for x in wrapper.next_logits(ctx) {
                for byte in x.to_bits().to_le_bytes() {
                    h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
        }
        h
    }

    #[test]
    fn logits_bits_match_the_golden() {
        // Captured from the row-kernel `CachedGpt` at commit 2a403fd,
        // before it was folded into the lane engine: the one test that
        // fails if the floats themselves move.
        const GOLDEN: u64 = 10_673_408_613_025_802_856;
        let m = model();
        assert_eq!(logits_bits_hash(&CachedGpt::new(&m)), GOLDEN);
        // The same script through a wrapper already grown to three lanes.
        let wide = CachedGpt::new(&m);
        let _ = wide.forward_batch(&[&[1], &[2], &[3]]);
        assert_eq!(logits_bits_hash(&wide), GOLDEN);
    }
}
