//! Optimizers for the CPU training pipeline: SGD with momentum and Adam.
//!
//! The paper trains BERT with Adam-family optimizers (it discusses LAMB in
//! related work); the optimizer itself is yet another bundle of
//! element-wise operators, so it slots into the same data-movement story.
//! These implementations operate on flat parameter/gradient tensor pairs
//! so they work with [`crate::params::EncoderWeights`] and
//! [`crate::model::TransformerModel`] alike.

use xform_tensor::Tensor;

/// A first-order optimizer over a fixed set of parameter tensors.
///
/// Call [`Optimizer::step`] with parameters and gradients in a stable
/// order; per-parameter state is keyed by position.
pub trait Optimizer {
    /// Applies one update. `params` and `grads` must align pairwise (same
    /// order, same shapes) across calls.
    ///
    /// # Panics
    ///
    /// Panics if lengths or shapes disagree.
    fn step(&mut self, params: &mut [&mut Tensor], grads: &[&Tensor]);

    /// The optimizer's name, for logs.
    fn name(&self) -> &'static str;
}

/// Stochastic gradient descent with optional momentum.
#[derive(Debug, Clone)]
pub struct Sgd {
    /// Learning rate.
    pub lr: f32,
    /// Momentum coefficient (0 disables momentum).
    pub momentum: f32,
    velocity: Vec<Vec<f32>>,
}

impl Sgd {
    /// Creates plain SGD.
    pub fn new(lr: f32) -> Self {
        Sgd {
            lr,
            momentum: 0.0,
            velocity: Vec::new(),
        }
    }

    /// Creates SGD with momentum.
    pub fn with_momentum(lr: f32, momentum: f32) -> Self {
        Sgd {
            lr,
            momentum,
            velocity: Vec::new(),
        }
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, params: &mut [&mut Tensor], grads: &[&Tensor]) {
        assert_eq!(params.len(), grads.len(), "param/grad arity mismatch");
        if self.velocity.is_empty() {
            self.velocity = params.iter().map(|p| vec![0.0; p.len()]).collect();
        }
        for ((p, g), v) in params.iter_mut().zip(grads).zip(&mut self.velocity) {
            assert_eq!(p.shape(), g.shape(), "param/grad shape mismatch");
            if self.momentum == 0.0 {
                for (pv, gv) in p.data_mut().iter_mut().zip(g.data()) {
                    *pv -= self.lr * gv;
                }
            } else {
                for ((pv, gv), vv) in p.data_mut().iter_mut().zip(g.data()).zip(v.iter_mut()) {
                    *vv = self.momentum * *vv + gv;
                    *pv -= self.lr * *vv;
                }
            }
        }
    }

    fn name(&self) -> &'static str {
        "sgd"
    }
}

/// Adam with bias correction (Kingma & Ba).
#[derive(Debug, Clone)]
pub struct Adam {
    /// Learning rate.
    pub lr: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Numerical floor.
    pub eps: f32,
    t: u32,
    m: Vec<Vec<f32>>,
    v: Vec<Vec<f32>>,
}

impl Adam {
    /// Creates Adam with the standard hyperparameters (β₁=0.9, β₂=0.999).
    pub fn new(lr: f32) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }
}

impl Optimizer for Adam {
    fn step(&mut self, params: &mut [&mut Tensor], grads: &[&Tensor]) {
        assert_eq!(params.len(), grads.len(), "param/grad arity mismatch");
        if self.m.is_empty() {
            self.m = params.iter().map(|p| vec![0.0; p.len()]).collect();
            self.v = params.iter().map(|p| vec![0.0; p.len()]).collect();
        }
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        for (((p, g), m), v) in params
            .iter_mut()
            .zip(grads)
            .zip(&mut self.m)
            .zip(&mut self.v)
        {
            assert_eq!(p.shape(), g.shape(), "param/grad shape mismatch");
            for (((pv, gv), mv), vv) in p
                .data_mut()
                .iter_mut()
                .zip(g.data())
                .zip(m.iter_mut())
                .zip(v.iter_mut())
            {
                *mv = self.beta1 * *mv + (1.0 - self.beta1) * gv;
                *vv = self.beta2 * *vv + (1.0 - self.beta2) * gv * gv;
                let mhat = *mv / bc1;
                let vhat = *vv / bc2;
                *pv -= self.lr * mhat / (vhat.sqrt() + self.eps);
            }
        }
    }

    fn name(&self) -> &'static str {
        "adam"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;
    use xform_tensor::Shape;

    fn quadratic_step(opt: &mut dyn Optimizer, x0: f32, steps: usize) -> f32 {
        // minimize f(x) = x²; gradient 2x
        let mut x = Tensor::from_vec(Shape::new([('x', 1)]).unwrap(), vec![x0]).unwrap();
        for _ in 0..steps {
            let g =
                Tensor::from_vec(Shape::new([('x', 1)]).unwrap(), vec![2.0 * x.data()[0]]).unwrap();
            opt.step(&mut [&mut x], &[&g]);
        }
        x.data()[0]
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let mut opt = Sgd::new(0.1);
        let x = quadratic_step(&mut opt, 5.0, 50);
        assert!(x.abs() < 1e-3, "sgd stalled at {x}");
    }

    #[test]
    fn momentum_accelerates_early_progress() {
        let mut plain = Sgd::new(0.01);
        let mut heavy = Sgd::with_momentum(0.01, 0.9);
        let x_plain = quadratic_step(&mut plain, 5.0, 20);
        let x_heavy = quadratic_step(&mut heavy, 5.0, 20);
        assert!(x_heavy.abs() < x_plain.abs());
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut opt = Adam::new(0.3);
        let x = quadratic_step(&mut opt, 5.0, 200);
        assert!(x.abs() < 1e-2, "adam stalled at {x}");
    }

    #[test]
    fn adam_first_step_is_lr_sized() {
        // with bias correction, the very first Adam step ≈ lr · sign(g)
        let mut opt = Adam::new(0.1);
        let mut x = Tensor::from_vec(Shape::new([('x', 1)]).unwrap(), vec![1.0]).unwrap();
        let g = Tensor::from_vec(Shape::new([('x', 1)]).unwrap(), vec![123.0]).unwrap();
        opt.step(&mut [&mut x], &[&g]);
        assert!(
            (x.data()[0] - (1.0 - 0.1)).abs() < 1e-3,
            "got {}",
            x.data()[0]
        );
    }

    #[test]
    fn adam_trains_the_encoder() {
        use crate::encoder::{EncoderLayer, Executor};
        use crate::params::EncoderWeights;
        use rand::distributions::Uniform;
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        use xform_dataflow::EncoderDims;

        let dims = EncoderDims::tiny();
        let mut rng = StdRng::seed_from_u64(21);
        let mut w = EncoderWeights::init(&dims, &mut rng);
        let layer = EncoderLayer::new(dims, Executor::Fused, 0.0);
        let x = Tensor::random(
            Shape::from_spec("ibj", &dims.size_table()).unwrap(),
            &Uniform::new(-1.0, 1.0),
            &mut rng,
        );
        let target = Tensor::random(
            x.shape().clone(),
            &Uniform::new(-0.5, 0.5),
            &mut StdRng::seed_from_u64(22),
        );
        let mut opt = Adam::new(0.01);
        let mut first = None;
        let mut last = 0.0;
        for _ in 0..25 {
            let opts = xform_core::plan::ExecOptions::builder()
                .seed(rng.gen::<u64>())
                .build();
            let (y, acts) = layer.forward(&x, &w, &opts).unwrap().into_pair().unwrap();
            let n = y.len() as f32;
            let mut dy = y.clone();
            let mut loss = 0.0;
            for (dv, (&yv, &tv)) in dy
                .data_mut()
                .iter_mut()
                .zip(y.data().iter().zip(target.data()))
            {
                let e = yv - tv;
                loss += e * e / n;
                *dv = 2.0 * e / n;
            }
            let (_, grads) = layer.backward(&dy, &x, &w, &acts).unwrap();
            let gs = grads.fields();
            let grad_refs: Vec<&Tensor> = gs.iter().map(|(_, t)| *t).collect();
            let mut params: Vec<(&str, Tensor)> = (w.fields().into_iter())
                .map(|(n, t)| (n, t.into_owned()))
                .collect();
            let mut param_refs: Vec<&mut Tensor> = params.iter_mut().map(|(_, t)| t).collect();
            opt.step(&mut param_refs, &grad_refs);
            for (name, t) in &params {
                w.set_field(name, t).unwrap();
            }
            first.get_or_insert(loss);
            last = loss;
        }
        assert!(
            last < first.unwrap() * 0.8,
            "adam on encoder: {} -> {last}",
            first.unwrap()
        );
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn mismatched_arity_panics() {
        let mut opt = Sgd::new(0.1);
        let mut x = Tensor::from_vec(Shape::new([('x', 1)]).unwrap(), vec![0.0]).unwrap();
        opt.step(&mut [&mut x], &[]);
    }
}
