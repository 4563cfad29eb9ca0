//! Tape-based reverse-mode automatic differentiation over [`Matrix`].
//!
//! A [`Tape`] records each operation as it is executed (forward values are
//! computed eagerly); [`Tape::backward`] then walks the tape in reverse,
//! accumulating gradients. The op set is exactly what a GPT block needs —
//! no more:
//!
//! * `matmul`, `add`, `add_bias` (row broadcast), `scale`
//! * `gelu` (keeps the forward's `tanh` for the backward)
//! * `layer_norm` (with per-row mean/rstd cache)
//! * `causal_softmax` (row-wise softmax over the causal prefix)
//! * `embed` (gather rows; scatter-add on backward)
//! * `slice_cols` / `concat_cols` (multi-head split/merge)
//! * `cross_entropy` (fused log-softmax + NLL, mean over positions)
//!
//! Model parameters live *outside* the tape; each training step clones them
//! in as gradient-requiring leaves and reads the gradients back out. At the
//! scale of this reproduction (models of ~10⁵ parameters) the clone is
//! negligible and keeps ownership simple (a borrowing leaf measured no
//! faster). The backward reads each node's value, cache and gradient in
//! place; only the gradients it hands to inputs are new matrices.

// Index-based loops in the backward kernels mirror the math; iterator
// rewrites obscure the row/column structure.
#![allow(clippy::needless_range_loop)]

use std::borrow::Cow;

use crate::tensor::{gelu_and_tanh, gelu_grad, softmax_inplace, Matrix};

/// Index of a node on a [`Tape`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct NodeId(usize);

enum Op {
    Leaf {
        requires_grad: bool,
    },
    MatMul(NodeId, NodeId),
    Add(NodeId, NodeId),
    AddBias(NodeId, NodeId),
    Scale(NodeId, f32),
    /// The forward's `tanh` per element, which the backward reuses.
    Gelu {
        x: NodeId,
        tanh: Vec<f32>,
    },
    LayerNorm {
        x: NodeId,
        gamma: NodeId,
        beta: NodeId,
        xhat: Matrix,
        rstd: Vec<f32>,
    },
    /// The probabilities are the node's own value.
    CausalSoftmax(NodeId),
    Embed {
        table: NodeId,
        indices: Vec<usize>,
    },
    SliceCols(NodeId, usize),
    ConcatCols(Vec<NodeId>),
    Transpose(NodeId),
    CrossEntropy {
        logits: NodeId,
        targets: Vec<usize>,
        probs: Matrix,
    },
}

struct Node {
    data: Matrix,
    grad: Option<Matrix>,
    op: Op,
}

/// The autodiff tape. Create one per forward/backward pass.
#[derive(Default)]
pub struct Tape {
    nodes: Vec<Node>,
}

impl Tape {
    /// An empty tape.
    pub fn new() -> Tape {
        Tape { nodes: Vec::new() }
    }

    fn push(&mut self, data: Matrix, op: Op) -> NodeId {
        self.nodes.push(Node {
            data,
            grad: None,
            op,
        });
        NodeId(self.nodes.len() - 1)
    }

    /// The forward value of a node.
    pub fn value(&self, id: NodeId) -> &Matrix {
        &self.nodes[id.0].data
    }

    /// The gradient of a node after [`Self::backward`] (zeros if untouched).
    pub fn grad(&self, id: NodeId) -> Matrix {
        let n = &self.nodes[id.0];
        n.grad
            .clone()
            .unwrap_or_else(|| Matrix::zeros(n.data.rows(), n.data.cols()))
    }

    /// Inserts a leaf (input or parameter).
    pub fn leaf(&mut self, data: Matrix, requires_grad: bool) -> NodeId {
        self.push(data, Op::Leaf { requires_grad })
    }

    /// Matrix product.
    pub fn matmul(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let data = self.value(a).matmul(self.value(b));
        self.push(data, Op::MatMul(a, b))
    }

    /// Elementwise addition of equal shapes.
    pub fn add(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let data = self.value(a).add(self.value(b));
        self.push(data, Op::Add(a, b))
    }

    /// Adds a 1×cols bias row to every row of `a`.
    pub fn add_bias(&mut self, a: NodeId, bias: NodeId) -> NodeId {
        let data = self.value(a).add_row_broadcast(self.value(bias));
        self.push(data, Op::AddBias(a, bias))
    }

    /// Scalar multiplication.
    pub fn scale(&mut self, a: NodeId, k: f32) -> NodeId {
        let data = self.value(a).scale(k);
        self.push(data, Op::Scale(a, k))
    }

    /// GELU activation.
    pub fn gelu(&mut self, a: NodeId) -> NodeId {
        let xv = self.value(a);
        let (data, tanh) = xv.data().iter().map(|&x| gelu_and_tanh(x)).unzip();
        let data = Matrix::from_vec(xv.rows(), xv.cols(), data);
        self.push(data, Op::Gelu { x: a, tanh })
    }

    /// Layer normalization over each row, with learned gain and bias
    /// (`gamma`, `beta` are 1×cols).
    pub fn layer_norm(&mut self, x: NodeId, gamma: NodeId, beta: NodeId) -> NodeId {
        const EPS: f32 = 1e-5;
        let (xv, g, b) = (self.value(x), self.value(gamma), self.value(beta));
        let (rows, cols) = (xv.rows(), xv.cols());
        let mut xhat = Matrix::zeros(rows, cols);
        let mut out = Matrix::zeros(rows, cols);
        let mut rstd = Vec::with_capacity(rows);
        for r in 0..rows {
            let row = xv.row(r);
            let mean: f32 = row.iter().sum::<f32>() / cols as f32;
            let var: f32 = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / cols as f32;
            let rs = 1.0 / (var + EPS).sqrt();
            rstd.push(rs);
            for c in 0..cols {
                let xh = (row[c] - mean) * rs;
                xhat.set(r, c, xh);
                out.set(r, c, xh * g.get(0, c) + b.get(0, c));
            }
        }
        self.push(
            out,
            Op::LayerNorm {
                x,
                gamma,
                beta,
                xhat,
                rstd,
            },
        )
    }

    /// Row-wise softmax restricted to the causal prefix: in row `i` only
    /// columns `0..=i` participate; later columns are exactly zero.
    pub fn causal_softmax(&mut self, x: NodeId) -> NodeId {
        let xv = self.value(x);
        let (rows, cols) = (xv.rows(), xv.cols());
        let mut probs = Matrix::zeros(rows, cols);
        for r in 0..rows {
            let visible = (r + 1).min(cols);
            let slice = &mut probs.row_mut(r)[..visible];
            slice.copy_from_slice(&xv.row(r)[..visible]);
            softmax_inplace(slice);
        }
        self.push(probs, Op::CausalSoftmax(x))
    }

    /// Gathers rows of `table` (V×d) by `indices`, producing a T×d matrix.
    pub fn embed(&mut self, table: NodeId, indices: &[usize]) -> NodeId {
        let tv = self.value(table);
        let d = tv.cols();
        let mut out = Matrix::zeros(indices.len(), d);
        for (r, &ix) in indices.iter().enumerate() {
            out.row_mut(r).copy_from_slice(tv.row(ix));
        }
        self.push(
            out,
            Op::Embed {
                table,
                indices: indices.to_vec(),
            },
        )
    }

    /// Copies columns `[start, end)`.
    pub fn slice_cols(&mut self, a: NodeId, start: usize, end: usize) -> NodeId {
        let data = self.value(a).slice_cols(start, end);
        self.push(data, Op::SliceCols(a, start))
    }

    /// Horizontally concatenates nodes with equal row counts.
    pub fn concat_cols(&mut self, parts: &[NodeId]) -> NodeId {
        let mats: Vec<&Matrix> = parts.iter().map(|&p| &self.nodes[p.0].data).collect();
        let data = Matrix::concat_cols(&mats);
        self.push(data, Op::ConcatCols(parts.to_vec()))
    }

    /// The transposed matrix (used for attention scores `Q·Kᵀ`).
    pub fn transpose(&mut self, a: NodeId) -> NodeId {
        let data = self.value(a).transpose();
        self.push(data, Op::Transpose(a))
    }

    /// Fused softmax + cross-entropy, averaged over positions. Returns a
    /// 1×1 node.
    pub fn cross_entropy(&mut self, logits: NodeId, targets: &[usize]) -> NodeId {
        let mut probs = self.value(logits).clone();
        assert_eq!(probs.rows(), targets.len(), "one target per position");
        let mut loss = 0.0f32;
        for r in 0..probs.rows() {
            softmax_inplace(probs.row_mut(r));
            let p = probs.get(r, targets[r]).max(1e-12);
            loss -= p.ln();
        }
        loss /= targets.len() as f32;
        self.push(
            Matrix::from_vec(1, 1, vec![loss]),
            Op::CrossEntropy {
                logits,
                targets: targets.to_vec(),
                probs,
            },
        )
    }

    /// Runs reverse-mode differentiation from `root` (which must be 1×1).
    pub fn backward(&mut self, root: NodeId) {
        assert_eq!(
            (self.value(root).rows(), self.value(root).cols()),
            (1, 1),
            "backward root must be scalar"
        );
        self.nodes[root.0].grad = Some(Matrix::from_vec(1, 1, vec![1.0]));

        for i in (0..=root.0).rev() {
            // A node's inputs precede it on the tape: split there, so the
            // node's value, cache and gradient are read in place while its
            // inputs' gradients are written.
            let (inputs, rest) = self.nodes.split_at_mut(i);
            let node = &rest[0];
            let Some(gy) = &node.grad else {
                continue;
            };
            match &node.op {
                Op::Leaf { .. } => {}
                Op::MatMul(a, b) => {
                    let ga = gy.matmul_bt(&inputs[b.0].data);
                    let gb = inputs[a.0].data.matmul_at(gy);
                    accumulate(inputs, *a, Cow::Owned(ga));
                    accumulate(inputs, *b, Cow::Owned(gb));
                }
                Op::Add(a, b) => {
                    accumulate(inputs, *a, Cow::Borrowed(gy));
                    accumulate(inputs, *b, Cow::Borrowed(gy));
                }
                Op::AddBias(a, bias) => {
                    accumulate(inputs, *a, Cow::Borrowed(gy));
                    accumulate(inputs, *bias, Cow::Owned(gy.sum_rows()));
                }
                Op::Scale(a, k) => {
                    accumulate(inputs, *a, Cow::Owned(gy.scale(*k)));
                }
                Op::Gelu { x, tanh } => {
                    let xs = inputs[x.0].data.data();
                    let ga = gy
                        .data()
                        .iter()
                        .zip(xs)
                        .zip(tanh)
                        .map(|((&g, &xv), &t)| g * gelu_grad(xv, t))
                        .collect();
                    let ga = Matrix::from_vec(gy.rows(), gy.cols(), ga);
                    accumulate(inputs, *x, Cow::Owned(ga));
                }
                Op::LayerNorm {
                    x,
                    gamma,
                    beta,
                    xhat,
                    rstd,
                } => {
                    let gmat = &inputs[gamma.0].data;
                    let (rows, cols) = (gy.rows(), gy.cols());

                    let mut dgamma = Matrix::zeros(1, cols);
                    let mut dbeta = Matrix::zeros(1, cols);
                    let mut dx = Matrix::zeros(rows, cols);
                    let mut dxhat = vec![0.0f32; cols];
                    for r in 0..rows {
                        let gy_r = gy.row(r);
                        let xh_r = xhat.row(r);
                        // dxhat = gy * gamma
                        for c in 0..cols {
                            dxhat[c] = gy_r[c] * gmat.get(0, c);
                        }
                        let mean_dxhat: f32 = dxhat.iter().sum::<f32>() / cols as f32;
                        let mean_dxhat_xhat: f32 =
                            dxhat.iter().zip(xh_r).map(|(d, x)| d * x).sum::<f32>() / cols as f32;
                        for c in 0..cols {
                            let v = rstd[r] * (dxhat[c] - mean_dxhat - xh_r[c] * mean_dxhat_xhat);
                            dx.set(r, c, v);
                            dgamma.set(0, c, dgamma.get(0, c) + gy_r[c] * xh_r[c]);
                            dbeta.set(0, c, dbeta.get(0, c) + gy_r[c]);
                        }
                    }
                    accumulate(inputs, *x, Cow::Owned(dx));
                    accumulate(inputs, *gamma, Cow::Owned(dgamma));
                    accumulate(inputs, *beta, Cow::Owned(dbeta));
                }
                Op::CausalSoftmax(x) => {
                    let probs = &node.data;
                    let (rows, cols) = (gy.rows(), gy.cols());
                    let mut dx = Matrix::zeros(rows, cols);
                    for r in 0..rows {
                        let visible = (r + 1).min(cols);
                        let p = &probs.row(r)[..visible];
                        let g = &gy.row(r)[..visible];
                        let dot: f32 = p.iter().zip(g).map(|(a, b)| a * b).sum();
                        for c in 0..visible {
                            dx.set(r, c, p[c] * (g[c] - dot));
                        }
                    }
                    accumulate(inputs, *x, Cow::Owned(dx));
                }
                Op::Embed { table, indices } => {
                    let tv = &inputs[table.0].data;
                    let mut gt = Matrix::zeros(tv.rows(), tv.cols());
                    for (r, &ix) in indices.iter().enumerate() {
                        for (o, &v) in gt.row_mut(ix).iter_mut().zip(gy.row(r)) {
                            *o += v;
                        }
                    }
                    accumulate(inputs, *table, Cow::Owned(gt));
                }
                Op::SliceCols(a, start) => {
                    let src = &inputs[a.0].data;
                    let mut ga = Matrix::zeros(src.rows(), src.cols());
                    for r in 0..gy.rows() {
                        ga.row_mut(r)[*start..*start + gy.cols()].copy_from_slice(gy.row(r));
                    }
                    accumulate(inputs, *a, Cow::Owned(ga));
                }
                Op::ConcatCols(parts) => {
                    let mut off = 0;
                    for &p in parts {
                        let w = inputs[p.0].data.cols();
                        accumulate(inputs, p, Cow::Owned(gy.slice_cols(off, off + w)));
                        off += w;
                    }
                }
                Op::Transpose(a) => {
                    accumulate(inputs, *a, Cow::Owned(gy.transpose()));
                }
                Op::CrossEntropy {
                    logits,
                    targets,
                    probs,
                } => {
                    let mut dl = probs.clone();
                    for (r, &t) in targets.iter().enumerate() {
                        dl.set(r, t, dl.get(r, t) - 1.0);
                    }
                    let k = gy.get(0, 0) / targets.len() as f32;
                    accumulate(inputs, *logits, Cow::Owned(dl.scale(k)));
                }
            }
        }
    }
}

/// Adds `delta` into node `id`'s gradient; a first contribution is moved
/// in (or cloned, if borrowed).
fn accumulate(nodes: &mut [Node], id: NodeId, delta: Cow<'_, Matrix>) {
    let n = &mut nodes[id.0];
    if let Op::Leaf {
        requires_grad: false,
    } = n.op
    {
        return; // inputs that don't need gradients skip the allocation
    }
    match &mut n.grad {
        Some(g) => g.add_scaled_inplace(&delta, 1.0),
        None => n.grad = Some(delta.into_owned()),
    }
}

#[cfg(test)]
#[expect(
    clippy::float_cmp,
    reason = "bit-identical comparisons of values the same deterministic kernels produce along two paths; a tolerance would mask real determinism regressions"
)]
mod tests {
    use super::*;

    /// Finite-difference check of d(loss)/d(leaf[i][j]) for a scalar-valued
    /// computation `f` rebuilt from scratch per evaluation.
    fn finite_diff_check<F>(leaf_data: Vec<Matrix>, f: F, tol: f32)
    where
        F: Fn(&mut Tape, &[NodeId]) -> NodeId,
    {
        // Analytic gradients.
        let mut tape = Tape::new();
        let leaves: Vec<NodeId> = leaf_data
            .iter()
            .map(|m| tape.leaf(m.clone(), true))
            .collect();
        let root = f(&mut tape, &leaves);
        tape.backward(root);
        let analytic: Vec<Matrix> = leaves.iter().map(|&l| tape.grad(l)).collect();

        // Numeric gradients.
        const H: f32 = 1e-2;
        for (li, base) in leaf_data.iter().enumerate() {
            for idx in 0..base.data().len() {
                let eval = |delta: f32| -> f32 {
                    let mut tape = Tape::new();
                    let leaves: Vec<NodeId> = leaf_data
                        .iter()
                        .enumerate()
                        .map(|(j, m)| {
                            let mut m = m.clone();
                            if j == li {
                                m.data_mut()[idx] += delta;
                            }
                            tape.leaf(m, false)
                        })
                        .collect();
                    let root = f(&mut tape, &leaves);
                    tape.value(root).get(0, 0)
                };
                let fd = (eval(H) - eval(-H)) / (2.0 * H);
                let an = analytic[li].data()[idx];
                assert!(
                    (an - fd).abs() < tol * (1.0 + fd.abs()),
                    "leaf {li} elem {idx}: analytic {an} vs fd {fd}"
                );
            }
        }
    }

    fn sum_to_scalar(tape: &mut Tape, x: NodeId) -> NodeId {
        // Multiply by a ones column to reduce to 1×1.
        let (r, c) = (tape.value(x).rows(), tape.value(x).cols());
        let ones_r = tape.leaf(Matrix::from_vec(1, r, vec![1.0; r]), false);
        let ones_c = tape.leaf(Matrix::from_vec(c, 1, vec![1.0; c]), false);
        let rowsum = tape.matmul(x, ones_c); // r×1
        tape.matmul(ones_r, rowsum) // 1×1
    }

    #[test]
    fn matmul_gradients() {
        let a = Matrix::from_vec(2, 3, vec![0.5, -1.0, 2.0, 1.5, 0.3, -0.7]);
        let b = Matrix::from_vec(3, 2, vec![1.0, 0.2, -0.4, 0.9, 0.6, -1.1]);
        finite_diff_check(
            vec![a, b],
            |t, l| {
                let y = t.matmul(l[0], l[1]);
                sum_to_scalar(t, y)
            },
            1e-2,
        );
    }

    #[test]
    fn add_and_bias_gradients() {
        let a = Matrix::from_vec(2, 3, vec![0.5, -1.0, 2.0, 1.5, 0.3, -0.7]);
        let b = Matrix::from_vec(2, 3, vec![0.1; 6]);
        let bias = Matrix::from_vec(1, 3, vec![0.2, -0.3, 0.4]);
        finite_diff_check(
            vec![a, b, bias],
            |t, l| {
                let s = t.add(l[0], l[1]);
                let s = t.add_bias(s, l[2]);
                let s = t.scale(s, 1.7);
                sum_to_scalar(t, s)
            },
            1e-2,
        );
    }

    #[test]
    fn gelu_gradients() {
        let a = Matrix::from_vec(2, 2, vec![0.5, -1.0, 2.0, 0.1]);
        finite_diff_check(
            vec![a],
            |t, l| {
                let y = t.gelu(l[0]);
                sum_to_scalar(t, y)
            },
            2e-2,
        );
    }

    #[test]
    fn layer_norm_gradients() {
        let x = Matrix::from_vec(2, 4, vec![0.5, -1.0, 2.0, 0.3, 1.1, 0.0, -0.4, 0.8]);
        let gamma = Matrix::from_vec(1, 4, vec![1.0, 0.9, 1.1, 1.2]);
        let beta = Matrix::from_vec(1, 4, vec![0.0, 0.1, -0.1, 0.2]);
        // Weight rows unequally so gradient flow isn't symmetric.
        let w = Matrix::from_vec(4, 1, vec![1.0, 2.0, -1.0, 0.5]);
        finite_diff_check(
            vec![x, gamma, beta, w],
            |t, l| {
                let y = t.layer_norm(l[0], l[1], l[2]);
                let reduced = t.matmul(y, l[3]); // 2×1
                sum_to_scalar(t, reduced)
            },
            3e-2,
        );
    }

    #[test]
    fn causal_softmax_forward_masks_future() {
        let mut tape = Tape::new();
        let x = tape.leaf(
            Matrix::from_vec(3, 3, vec![1.0, 5.0, 9.0, 1.0, 1.0, 9.0, 1.0, 1.0, 1.0]),
            false,
        );
        let y = tape.causal_softmax(x);
        let p = tape.value(y);
        // Row 0: only col 0 visible → prob 1.
        assert!((p.get(0, 0) - 1.0).abs() < 1e-6);
        assert_eq!(p.get(0, 1), 0.0);
        assert_eq!(p.get(0, 2), 0.0);
        // Row 1: two visible, equal logits → 0.5 each.
        assert!((p.get(1, 0) - 0.5).abs() < 1e-6);
        assert!((p.get(1, 1) - 0.5).abs() < 1e-6);
        assert_eq!(p.get(1, 2), 0.0);
        // Row 2 sums to 1.
        let s: f32 = (0..3).map(|c| p.get(2, c)).sum();
        assert!((s - 1.0).abs() < 1e-6);
    }

    #[test]
    fn causal_softmax_gradients() {
        let x = Matrix::from_vec(3, 3, vec![0.5, -1.0, 2.0, 0.3, 1.1, 0.0, -0.4, 0.8, 0.2]);
        let w = Matrix::from_vec(3, 1, vec![1.0, -2.0, 0.7]);
        finite_diff_check(
            vec![x, w],
            |t, l| {
                let p = t.causal_softmax(l[0]);
                let reduced = t.matmul(p, l[1]);
                sum_to_scalar(t, reduced)
            },
            3e-2,
        );
    }

    #[test]
    fn embed_gather_scatter() {
        let table = Matrix::from_vec(4, 2, vec![1., 2., 3., 4., 5., 6., 7., 8.]);
        let mut tape = Tape::new();
        let t = tape.leaf(table.clone(), true);
        let e = tape.embed(t, &[2, 0, 2]);
        assert_eq!(tape.value(e).data(), &[5., 6., 1., 2., 5., 6.]);
        let s = sum_to_scalar(&mut tape, e);
        tape.backward(s);
        let g = tape.grad(t);
        // Row 2 used twice, row 0 once, rows 1 & 3 unused.
        assert_eq!(g.data(), &[1., 1., 0., 0., 2., 2., 0., 0.]);
    }

    #[test]
    fn slice_concat_gradients() {
        let a = Matrix::from_vec(2, 4, vec![0.5, -1.0, 2.0, 0.3, 1.1, 0.0, -0.4, 0.8]);
        finite_diff_check(
            vec![a],
            |t, l| {
                let left = t.slice_cols(l[0], 0, 2);
                let right = t.slice_cols(l[0], 2, 4);
                let swapped = t.concat_cols(&[right, left]);
                let scaled = t.scale(swapped, 2.0);
                sum_to_scalar(t, scaled)
            },
            1e-2,
        );
    }

    #[test]
    fn cross_entropy_matches_manual() {
        let logits = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 0.0, 0.0, 0.0]);
        let mut tape = Tape::new();
        let l = tape.leaf(logits, true);
        let loss = tape.cross_entropy(l, &[2, 0]);
        // Row 0: softmax(1,2,3)[2] = e^3/(e+e^2+e^3); row 1: 1/3.
        let p0 = 3.0f32.exp() / (1.0f32.exp() + 2.0f32.exp() + 3.0f32.exp());
        let expected = (-(p0.ln()) - (1.0f32 / 3.0).ln()) / 2.0;
        assert!((tape.value(loss).get(0, 0) - expected).abs() < 1e-5);
    }

    #[test]
    fn cross_entropy_gradients() {
        let logits = Matrix::from_vec(2, 3, vec![0.5, -1.0, 2.0, 0.3, 1.1, 0.0]);
        finite_diff_check(vec![logits], |t, l| t.cross_entropy(l[0], &[2, 1]), 2e-2);
    }

    #[test]
    fn gradient_accumulates_on_shared_nodes() {
        // y = x·w used twice: grads must sum.
        let x = Matrix::from_vec(1, 2, vec![1.0, 2.0]);
        let w = Matrix::from_vec(2, 1, vec![3.0, 4.0]);
        let mut tape = Tape::new();
        let xn = tape.leaf(x, true);
        let wn = tape.leaf(w, true);
        let y1 = tape.matmul(xn, wn);
        let y2 = tape.matmul(xn, wn);
        let s = tape.add(y1, y2);
        tape.backward(s);
        assert_eq!(tape.grad(wn).data(), &[2.0, 4.0]);
        assert_eq!(tape.grad(xn).data(), &[6.0, 8.0]);
    }
}
