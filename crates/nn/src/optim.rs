//! Stochastic gradient descent with momentum: the optimizer every
//! scheme steps its client and server halves with.

use crate::{Parameter, Result};
use gsfl_tensor::Tensor;

/// Stochastic gradient descent with classical momentum.
///
/// Velocity buffers are keyed by parameter position, so an optimizer
/// instance must always be stepped with the same network (this is how each
/// client/server side keeps its own momentum state in split training).
///
/// # Example
///
/// ```
/// use gsfl_nn::{optim::Sgd, Sequential, layers::Dense};
/// use gsfl_tensor::Tensor;
///
/// # fn main() -> Result<(), gsfl_nn::NnError> {
/// let mut net = Sequential::new();
/// net.push(Dense::new(2, 1, 0));
/// let mut opt = Sgd::new(0.1);
/// // ... after forward + backward ...
/// opt.step(&mut net.params_mut())?;
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Sgd {
    lr: f32,
    momentum: f32,
    velocities: Vec<Tensor>,
}

impl Sgd {
    /// Plain SGD with the given learning rate.
    pub fn new(lr: f32) -> Self {
        Sgd {
            lr,
            momentum: 0.0,
            velocities: Vec::new(),
        }
    }

    /// Adds classical momentum.
    pub fn with_momentum(mut self, momentum: f32) -> Self {
        self.momentum = momentum;
        self
    }

    /// Applies one update step using the accumulated gradients.
    ///
    /// The whole update runs in place over the parameter, gradient and
    /// velocity slices — no clones, no temporaries — so the momentum
    /// buffers allocated at warm-up are the only state this ever holds.
    ///
    /// # Errors
    ///
    /// Propagates tensor shape errors (which indicate the optimizer was
    /// stepped with a different network than it was warmed up on).
    pub fn step(&mut self, params: &mut [&mut Parameter]) -> Result<()> {
        let lr = self.lr;
        if self.velocities.is_empty() && self.momentum != 0.0 {
            self.velocities = params
                .iter()
                .map(|p| Tensor::zeros(p.value().dims()))
                .collect();
        }
        if gsfl_tensor::kernel_mode() == gsfl_tensor::KernelMode::Reference {
            return self.step_legacy(params, lr);
        }
        for (i, p) in params.iter_mut().enumerate() {
            let (value, grad) = p.value_and_grad_mut();
            if self.momentum != 0.0 {
                let v = &mut self.velocities[i];
                if !v.shape().same_dims(grad.shape()) {
                    return Err(gsfl_tensor::TensorError::ShapeMismatch {
                        left: v.dims().to_vec(),
                        right: grad.dims().to_vec(),
                        op: "add_assign",
                    }
                    .into());
                }
                // v ← μ·v + g ; w ← w − lr·v
                let momentum = self.momentum;
                for ((ve, &g), w) in v
                    .data_mut()
                    .iter_mut()
                    .zip(grad.data())
                    .zip(value.data_mut())
                {
                    *ve *= momentum;
                    *ve += g;
                    *w += -lr * *ve;
                }
            } else {
                for (w, &g) in value.data_mut().iter_mut().zip(grad.data()) {
                    *w += -lr * g;
                }
            }
        }
        Ok(())
    }

    /// The pre-optimization update, preserved verbatim (clones per step)
    /// so [`gsfl_tensor::KernelMode::Reference`] reconstructs the old
    /// engine's cost for benchmark baselines. Computes the same values
    /// as [`Sgd::step`].
    fn step_legacy(&mut self, params: &mut [&mut Parameter], lr: f32) -> Result<()> {
        for (i, p) in params.iter_mut().enumerate() {
            if self.momentum != 0.0 {
                let v = &mut self.velocities[i];
                v.scale_assign(self.momentum);
                let grad = p.grad().clone();
                v.add_assign_t(&grad)?;
                let v_snapshot = v.clone();
                p.value_mut().axpy(-lr, &v_snapshot)?;
            } else {
                let grad = p.grad().clone();
                p.value_mut().axpy(-lr, &grad)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quadratic_param(at: f32) -> Parameter {
        // Minimize f(w) = w² with grad 2w.
        let mut p = Parameter::new(Tensor::from_vec(vec![at], &[1]).unwrap());
        let g = p.value().scale(2.0);
        *p.grad_mut() = g;
        p
    }

    #[test]
    fn sgd_descends_quadratic() {
        let mut p = quadratic_param(1.0);
        let mut opt = Sgd::new(0.1);
        for _ in 0..50 {
            let g = p.value().scale(2.0);
            *p.grad_mut() = g;
            opt.step(&mut [&mut p]).unwrap();
        }
        assert!(p.value().data()[0].abs() < 1e-3);
    }

    #[test]
    fn momentum_accelerates_on_consistent_gradient() {
        // Constant gradient of 1: with momentum the effective step grows.
        let mut plain = Parameter::new(Tensor::zeros(&[1]));
        let mut mom = Parameter::new(Tensor::zeros(&[1]));
        let mut opt_plain = Sgd::new(0.1);
        let mut opt_mom = Sgd::new(0.1).with_momentum(0.9);
        for _ in 0..10 {
            plain.grad_mut().fill(1.0);
            mom.grad_mut().fill(1.0);
            opt_plain.step(&mut [&mut plain]).unwrap();
            opt_mom.step(&mut [&mut mom]).unwrap();
        }
        assert!(mom.value().data()[0] < plain.value().data()[0]);
    }
}
