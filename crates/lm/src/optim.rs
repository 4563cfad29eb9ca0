//! AdamW optimizer with warmup + cosine learning-rate schedule and global
//! gradient-norm clipping — the standard GPT training recipe, scaled down.

#![expect(
    clippy::cast_possible_truncation,
    reason = "powi takes i32, and step counts are training budgets of thousands"
)]

use crate::tensor::Matrix;

/// AdamW hyperparameters.
#[derive(Clone, Copy, Debug)]
pub struct AdamConfig {
    /// Peak learning rate.
    pub lr: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Numerical-stability epsilon.
    pub eps: f32,
    /// Decoupled weight decay.
    pub weight_decay: f32,
    /// Linear warmup steps.
    pub warmup_steps: u64,
    /// Total steps for the cosine decay horizon.
    pub total_steps: u64,
    /// Global gradient-norm clip (0 disables clipping).
    pub grad_clip: f32,
}

impl Default for AdamConfig {
    fn default() -> Self {
        AdamConfig {
            lr: 3e-3,
            beta1: 0.9,
            beta2: 0.99,
            eps: 1e-8,
            weight_decay: 0.01,
            warmup_steps: 50,
            total_steps: 2000,
            grad_clip: 1.0,
        }
    }
}

/// AdamW state for a fixed list of parameter tensors.
pub struct AdamW {
    config: AdamConfig,
    m: Vec<Matrix>,
    v: Vec<Matrix>,
    step: u64,
}

impl AdamW {
    /// Creates optimizer state shaped like `params`.
    pub fn new(config: AdamConfig, params: &[Matrix]) -> AdamW {
        let m = params
            .iter()
            .map(|p| Matrix::zeros(p.rows(), p.cols()))
            .collect();
        let v = params
            .iter()
            .map(|p| Matrix::zeros(p.rows(), p.cols()))
            .collect();
        AdamW {
            config,
            m,
            v,
            step: 0,
        }
    }

    /// The learning rate that will be used for the *next* step.
    pub fn current_lr(&self) -> f32 {
        let c = &self.config;
        let s = self.step + 1;
        if s <= c.warmup_steps {
            return c.lr * s as f32 / c.warmup_steps.max(1) as f32;
        }
        let total = c.total_steps.max(c.warmup_steps + 1);
        let progress =
            ((s - c.warmup_steps) as f32 / (total - c.warmup_steps) as f32).clamp(0.0, 1.0);
        let cosine = 0.5 * (1.0 + (std::f32::consts::PI * progress).cos());
        // Decay to 10% of peak rather than zero, as is common for small runs.
        c.lr * (0.1 + 0.9 * cosine)
    }

    /// Number of completed steps.
    pub fn steps_done(&self) -> u64 {
        self.step
    }

    /// Applies one AdamW update in place.
    ///
    /// # Panics
    /// Panics if `params`/`grads` don't match the shapes given at creation.
    pub fn step(&mut self, params: &mut [Matrix], grads: &[Matrix]) {
        assert_eq!(params.len(), self.m.len());
        assert_eq!(grads.len(), self.m.len());
        let lr = self.current_lr();
        self.step += 1;
        let c = self.config;

        // Global-norm clipping.
        let mut scale = 1.0f32;
        if c.grad_clip > 0.0 {
            let norm: f32 = grads
                .iter()
                .map(|g| g.data().iter().map(|v| v * v).sum::<f32>())
                .sum::<f32>()
                .sqrt();
            if norm > c.grad_clip {
                scale = c.grad_clip / norm;
            }
        }

        let bc1 = 1.0 - c.beta1.powi(self.step as i32);
        let bc2 = 1.0 - c.beta2.powi(self.step as i32);

        for ((p, g), (m, v)) in params
            .iter_mut()
            .zip(grads)
            .zip(self.m.iter_mut().zip(self.v.iter_mut()))
        {
            assert_eq!((p.rows(), p.cols()), (g.rows(), g.cols()));
            let pd = p.data_mut();
            let gd = g.data();
            let md = m.data_mut();
            let vd = v.data_mut();
            for i in 0..pd.len() {
                let gi = gd[i] * scale;
                md[i] = c.beta1 * md[i] + (1.0 - c.beta1) * gi;
                vd[i] = c.beta2 * vd[i] + (1.0 - c.beta2) * gi * gi;
                let mhat = md[i] / bc1;
                let vhat = vd[i] / bc2;
                pd[i] -= lr * (mhat / (vhat.sqrt() + c.eps) + c.weight_decay * pd[i]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimizes_quadratic() {
        // f(x) = (x - 3)², gradient 2(x - 3).
        let cfg = AdamConfig {
            lr: 0.1,
            warmup_steps: 5,
            total_steps: 500,
            weight_decay: 0.0,
            ..AdamConfig::default()
        };
        let mut params = vec![Matrix::from_vec(1, 1, vec![0.0])];
        let mut opt = AdamW::new(cfg, &params);
        for _ in 0..500 {
            let x = params[0].get(0, 0);
            let grads = vec![Matrix::from_vec(1, 1, vec![2.0 * (x - 3.0)])];
            opt.step(&mut params, &grads);
        }
        let x = params[0].get(0, 0);
        assert!((x - 3.0).abs() < 1e-2, "converged to {x}");
    }

    #[test]
    fn warmup_ramps_lr() {
        let cfg = AdamConfig {
            lr: 1.0,
            warmup_steps: 10,
            total_steps: 100,
            ..AdamConfig::default()
        };
        let mut params = vec![Matrix::zeros(1, 1)];
        let mut opt = AdamW::new(cfg, &params);
        assert!((opt.current_lr() - 0.1).abs() < 1e-6);
        for _ in 0..9 {
            let g = vec![Matrix::zeros(1, 1)];
            opt.step(&mut params, &g);
        }
        assert!((opt.current_lr() - 1.0).abs() < 1e-6);
        // After warmup, cosine decay is monotone decreasing.
        let mut last = opt.current_lr();
        for _ in 0..50 {
            let g = vec![Matrix::zeros(1, 1)];
            opt.step(&mut params, &g);
            let lr = opt.current_lr();
            assert!(lr <= last + 1e-6);
            last = lr;
        }
    }

    #[test]
    fn clipping_bounds_update_magnitude() {
        let cfg = AdamConfig {
            lr: 0.1,
            grad_clip: 1.0,
            weight_decay: 0.0,
            warmup_steps: 0,
            total_steps: 10,
            ..AdamConfig::default()
        };
        let mut p1 = vec![Matrix::from_vec(1, 1, vec![0.0])];
        let mut p2 = vec![Matrix::from_vec(1, 1, vec![0.0])];
        let mut o1 = AdamW::new(cfg, &p1);
        let mut o2 = AdamW::new(cfg, &p2);
        o1.step(&mut p1, &[Matrix::from_vec(1, 1, vec![1e6])]);
        o2.step(&mut p2, &[Matrix::from_vec(1, 1, vec![1.0])]);
        // With clipping, a huge gradient behaves like a unit gradient.
        assert!((p1[0].get(0, 0) - p2[0].get(0, 0)).abs() < 1e-6);
    }

    #[test]
    fn weight_decay_shrinks_params() {
        let cfg = AdamConfig {
            lr: 0.1,
            weight_decay: 0.5,
            warmup_steps: 0,
            total_steps: 10,
            grad_clip: 0.0,
            ..AdamConfig::default()
        };
        let mut params = vec![Matrix::from_vec(1, 1, vec![10.0])];
        let mut opt = AdamW::new(cfg, &params);
        opt.step(&mut params, &[Matrix::zeros(1, 1)]);
        assert!(params[0].get(0, 0) < 10.0);
    }
}
