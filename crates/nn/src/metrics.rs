//! Evaluation metrics.

use crate::layer::Mode;
use crate::loss::SoftmaxCrossEntropy;
use crate::{NnError, Result, Sequential};
use gsfl_tensor::Tensor;

/// Result of evaluating a classifier on a dataset.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvalResult {
    /// Fraction of correct top-1 predictions in `[0, 1]`.
    pub accuracy: f64,
    /// Mean cross-entropy loss.
    pub loss: f64,
    /// Number of samples evaluated.
    pub samples: usize,
}

impl EvalResult {
    /// Accuracy as a percentage in `[0, 100]`.
    pub fn accuracy_pct(&self) -> f64 {
        self.accuracy * 100.0
    }
}

/// Evaluates `net` on `(images, labels)` in mini-batches, in eval mode.
/// The network's previous mode is restored afterwards.
///
/// # Errors
///
/// Returns [`NnError::LabelMismatch`] when `labels.len()` differs from the
/// leading dimension of `images`, or propagates shape errors.
pub fn evaluate(
    net: &mut Sequential,
    images: &Tensor,
    labels: &[usize],
    batch_size: usize,
) -> Result<EvalResult> {
    let n = images.dims().first().copied().unwrap_or(0);
    if n != labels.len() {
        return Err(NnError::LabelMismatch {
            logits_rows: n,
            labels: labels.len(),
        });
    }
    if batch_size == 0 {
        return Err(NnError::Config("batch_size must be ≥ 1".into()));
    }
    let prev_mode = net.mode();
    net.set_mode(Mode::Eval);
    let loss_fn = SoftmaxCrossEntropy::new();
    let mut correct = 0usize;
    let mut loss_sum = 0.0f64;
    let mut start = 0usize;
    while start < n {
        let end = (start + batch_size).min(n);
        let xb = images.slice_axis0(start..end)?;
        let yb = &labels[start..end];
        let logits = net.forward(&xb)?;
        let out = loss_fn.compute(&logits, yb)?;
        loss_sum += out.loss as f64 * (end - start) as f64;
        let preds = logits.argmax_rows()?;
        correct += preds.iter().zip(yb).filter(|(p, y)| p == y).count();
        start = end;
    }
    net.set_mode(prev_mode);
    Ok(EvalResult {
        accuracy: if n == 0 {
            0.0
        } else {
            correct as f64 / n as f64
        },
        loss: if n == 0 { 0.0 } else { loss_sum / n as f64 },
        samples: n,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::Dense;

    #[test]
    fn evaluate_random_net_on_trivial_task() {
        // A zero-weight net predicts class 0 for everything (ties broken
        // toward index 0), so accuracy = fraction of label-0 samples.
        let mut net = Sequential::new();
        net.push(Dense::new(2, 3, 0));
        for p in net.params_mut() {
            p.value_mut().fill(0.0);
        }
        let images = Tensor::zeros(&[4, 2]);
        let labels = [0usize, 0, 1, 2];
        let r = evaluate(&mut net, &images, &labels, 2).unwrap();
        assert_eq!(r.samples, 4);
        assert!((r.accuracy - 0.5).abs() < 1e-9);
        assert!((r.loss - (3.0f64.ln())).abs() < 1e-4);
    }

    #[test]
    fn evaluate_validates_inputs() {
        let mut net = Sequential::new();
        net.push(Dense::new(2, 3, 0));
        let images = Tensor::zeros(&[4, 2]);
        assert!(evaluate(&mut net, &images, &[0, 1], 2).is_err());
        assert!(evaluate(&mut net, &images, &[0, 1, 2, 0], 0).is_err());
    }

    #[test]
    fn evaluate_restores_mode() {
        let mut net = Sequential::new();
        net.push(Dense::new(2, 2, 0));
        net.set_mode(Mode::Train);
        let images = Tensor::zeros(&[2, 2]);
        evaluate(&mut net, &images, &[0, 1], 2).unwrap();
        assert_eq!(net.mode(), Mode::Train);
    }
}
