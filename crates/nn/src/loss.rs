//! Softmax cross-entropy, the one loss the schemes train with, with its
//! analytic gradient.
//!
//! The hot path is *fused*: one pass computes the stabilized
//! exponentials directly into the gradient buffer (no intermediate
//! softmax tensor) and a second pass scales them into the gradient. The
//! fused form stores the same `exp(v − max)` values the unfused form
//! recomputed, reduces the denominator in the same ascending order, and
//! scales with the same `(e / denom) · 1/n` expression — so it is
//! bit-identical to the historical two-pass kernel.

use crate::{NnError, Result};
use gsfl_tensor::{Dispatch, Tensor};

/// Output of a loss computation: the scalar loss and the gradient with
/// respect to the logits, ready to feed into `Sequential::backward`.
#[derive(Debug, Clone)]
pub struct LossOutput {
    /// Mean loss over the batch.
    pub loss: f32,
    /// `d loss / d logits`, shape `[batch, classes]`.
    pub grad_logits: Tensor,
}

/// Softmax cross-entropy over integer class labels.
///
/// Numerically stabilized by subtracting each row's max before
/// exponentiation. The gradient is the classic `(softmax − one_hot) / n`.
///
/// # Example
///
/// ```
/// use gsfl_nn::loss::SoftmaxCrossEntropy;
/// use gsfl_tensor::Tensor;
///
/// # fn main() -> Result<(), gsfl_nn::NnError> {
/// let logits = Tensor::from_vec(vec![2.0, 0.0, 0.0, 2.0], &[2, 2])?;
/// let out = SoftmaxCrossEntropy::new().compute(&logits, &[0, 1])?;
/// assert!(out.loss < 0.2); // confident and correct
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct SoftmaxCrossEntropy {
    _priv: (),
}

impl SoftmaxCrossEntropy {
    /// Creates the loss.
    pub fn new() -> Self {
        SoftmaxCrossEntropy { _priv: () }
    }

    /// Computes mean cross-entropy and its logits gradient.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::LabelMismatch`] / [`NnError::LabelOutOfRange`] on
    /// malformed labels, or a shape error for non-2-D logits.
    pub fn compute(&self, logits: &Tensor, labels: &[usize]) -> Result<LossOutput> {
        if gsfl_tensor::dispatch() == Dispatch::Reference {
            return self.compute_unfused(logits, labels);
        }
        self.compute_fused(logits, labels)
    }

    /// The fused forward/backward (benchmark and equivalence-test hook).
    /// Bit-identical to [`Self::compute_unfused`].
    #[doc(hidden)]
    pub fn compute_fused(&self, logits: &Tensor, labels: &[usize]) -> Result<LossOutput> {
        let (n, c) = logits.shape().as_matrix().map_err(NnError::from)?;
        if labels.len() != n {
            return Err(NnError::LabelMismatch {
                logits_rows: n,
                labels: labels.len(),
            });
        }
        if n == 0 {
            return Err(NnError::Config("empty batch".into()));
        }
        let mut grad = vec![0.0f32; n * c];
        let mut total_loss = 0.0f32;
        let inv_n = 1.0 / n as f32;
        for (r, &label) in labels.iter().enumerate() {
            if label >= c {
                return Err(NnError::LabelOutOfRange { label, classes: c });
            }
            let row = &logits.data()[r * c..(r + 1) * c];
            let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            // One pass: store each stabilized exponential straight into
            // the gradient row while summing the denominator in the
            // same ascending order as the unfused kernel.
            let grow = &mut grad[r * c..(r + 1) * c];
            let mut denom = 0.0f32;
            for (g, &v) in grow.iter_mut().zip(row) {
                let e = (v - max).exp();
                *g = e;
                denom += e;
            }
            // loss_r = −log softmax[label]
            total_loss += -(row[label] - max - denom.ln());
            // grow[j] = (e / denom) · 1/n — the exact expression the
            // unfused kernel evaluates per element.
            for g in grow.iter_mut() {
                *g = (*g / denom) * inv_n;
            }
            grow[label] -= inv_n;
        }
        Ok(LossOutput {
            loss: total_loss * inv_n,
            grad_logits: Tensor::from_vec(grad, &[n, c])?,
        })
    }

    /// The historical two-pass kernel (recompute the exponentials for
    /// the gradient), preserved as the reference tier and benchmark
    /// baseline.
    #[doc(hidden)]
    pub fn compute_unfused(&self, logits: &Tensor, labels: &[usize]) -> Result<LossOutput> {
        let (n, c) = logits.shape().as_matrix().map_err(NnError::from)?;
        if labels.len() != n {
            return Err(NnError::LabelMismatch {
                logits_rows: n,
                labels: labels.len(),
            });
        }
        if n == 0 {
            return Err(NnError::Config("empty batch".into()));
        }
        let mut grad = vec![0.0f32; n * c];
        let mut total_loss = 0.0f32;
        let inv_n = 1.0 / n as f32;
        for (r, &label) in labels.iter().enumerate() {
            if label >= c {
                return Err(NnError::LabelOutOfRange { label, classes: c });
            }
            let row = &logits.data()[r * c..(r + 1) * c];
            let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let mut denom = 0.0f32;
            for &v in row {
                denom += (v - max).exp();
            }
            let log_denom = denom.ln();
            // loss_r = −log softmax[label]
            total_loss += -(row[label] - max - log_denom);
            let grow = &mut grad[r * c..(r + 1) * c];
            for (j, &v) in row.iter().enumerate() {
                let softmax = (v - max).exp() / denom;
                grow[j] = softmax * inv_n;
            }
            grow[label] -= inv_n;
        }
        Ok(LossOutput {
            loss: total_loss * inv_n,
            grad_logits: Tensor::from_vec(grad, &[n, c])?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_logits_give_log_c() {
        let logits = Tensor::zeros(&[4, 10]);
        let out = SoftmaxCrossEntropy::new()
            .compute(&logits, &[0, 1, 2, 3])
            .unwrap();
        assert!((out.loss - 10.0f32.ln()).abs() < 1e-5);
    }

    #[test]
    fn grad_rows_sum_to_zero() {
        let logits = Tensor::from_fn(&[3, 5], |i| (i as f32).sin());
        let out = SoftmaxCrossEntropy::new()
            .compute(&logits, &[4, 0, 2])
            .unwrap();
        for r in 0..3 {
            let row_sum: f32 = out.grad_logits.data()[r * 5..(r + 1) * 5].iter().sum();
            assert!(row_sum.abs() < 1e-6);
        }
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let logits = Tensor::from_fn(&[2, 3], |i| (i as f32) * 0.4 - 0.5);
        let labels = [2usize, 0];
        let loss_fn = SoftmaxCrossEntropy::new();
        let out = loss_fn.compute(&logits, &labels).unwrap();
        let eps = 1e-3f32;
        for flat in 0..6 {
            let mut lp = logits.clone();
            lp.data_mut()[flat] += eps;
            let mut lm = logits.clone();
            lm.data_mut()[flat] -= eps;
            let fp = loss_fn.compute(&lp, &labels).unwrap().loss;
            let fm = loss_fn.compute(&lm, &labels).unwrap().loss;
            let fd = (fp - fm) / (2.0 * eps);
            assert!(
                (fd - out.grad_logits.data()[flat]).abs() < 1e-3,
                "fd {fd} vs analytic {}",
                out.grad_logits.data()[flat]
            );
        }
    }

    #[test]
    fn handles_extreme_logits_without_nan() {
        let logits = Tensor::from_vec(vec![1000.0, -1000.0], &[1, 2]).unwrap();
        let out = SoftmaxCrossEntropy::new().compute(&logits, &[0]).unwrap();
        assert!(out.loss.is_finite());
        assert!(out.grad_logits.data().iter().all(|g| g.is_finite()));
    }

    #[test]
    fn rejects_bad_labels() {
        let logits = Tensor::zeros(&[2, 3]);
        assert!(matches!(
            SoftmaxCrossEntropy::new().compute(&logits, &[0]),
            Err(NnError::LabelMismatch { .. })
        ));
        assert!(matches!(
            SoftmaxCrossEntropy::new().compute(&logits, &[0, 3]),
            Err(NnError::LabelOutOfRange { .. })
        ));
    }
}
