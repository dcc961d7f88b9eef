//! Co-channel interference between concurrent transmitters.
//!
//! The paper's latency model gives every client an interference-free
//! link; real contested spectrum does not. [`InterferenceSpec`] names the
//! single knob of the standard co-channel model: a **reuse/orthogonality
//! factor** η ∈ [0, 1] — the fraction of each concurrent transmitter's
//! received power that lands in-band at a victim receiver. η = 0 is
//! perfectly orthogonal access (OFDMA with ideal filtering — the
//! historical behavior, bit for bit); η = 1 is full-band non-orthogonal
//! reuse where every concurrent uplink is raw interference.
//!
//! Environments that carry a spec price a link against its concurrent
//! transmitters ([`crate::environment::ChannelModel::link`]) by summing
//! their received powers from the round snapshot (the same path-loss and
//! fading pipeline as the signal), scaling by η, and feeding the
//! aggregate into the SINR ([`crate::link::LinkBudget::rate_bps_at`]).

use crate::{Result, WirelessError};
use serde::{Deserialize, Serialize};

/// Co-channel interference parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct InterferenceSpec {
    /// Reuse/orthogonality factor η ∈ [0, 1]: the fraction of each
    /// concurrent transmitter's received power that appears as in-band
    /// interference. 0 = perfectly orthogonal (no interference).
    pub reuse_factor: f64,
}

impl Default for InterferenceSpec {
    fn default() -> Self {
        // Imperfect orthogonality: half of each concurrent transmitter's
        // power leaks in-band — enough to make concurrency visibly pay.
        InterferenceSpec { reuse_factor: 0.5 }
    }
}

impl InterferenceSpec {
    /// Validates the spec.
    ///
    /// # Errors
    ///
    /// Returns [`WirelessError::Config`] when `reuse_factor` is outside
    /// `[0, 1]`.
    pub fn validate(&self) -> Result<()> {
        if !(0.0..=1.0).contains(&self.reuse_factor) || self.reuse_factor.is_nan() {
            return Err(WirelessError::Config(format!(
                "interference reuse_factor must be in [0,1], got {}",
                self.reuse_factor
            )));
        }
        Ok(())
    }

    /// Whether the spec actually injects interference.
    pub fn is_active(&self) -> bool {
        self.reuse_factor > 0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation_bounds_reuse() {
        assert!(InterferenceSpec { reuse_factor: 0.0 }.validate().is_ok());
        assert!(InterferenceSpec { reuse_factor: 1.0 }.validate().is_ok());
        assert!(InterferenceSpec { reuse_factor: -0.1 }.validate().is_err());
        assert!(InterferenceSpec { reuse_factor: 1.5 }.validate().is_err());
        assert!(InterferenceSpec {
            reuse_factor: f64::NAN
        }
        .validate()
        .is_err());
    }

    #[test]
    fn default_is_active_and_valid() {
        let spec = InterferenceSpec::default();
        assert!(spec.validate().is_ok());
        assert!(spec.is_active());
    }
}
