//! Edge-server compute profile.

use crate::units::{FlopsRate, Seconds};
use crate::{Result, WirelessError};
use serde::{Deserialize, Serialize};

/// The edge server co-located with the AP.
///
/// The server executes server-side model passes at `rate` FLOP/s per slot
/// and can run up to `slots` such executions concurrently. Slot contention
/// is what throttles GSFL's inter-group parallelism; it is enforced by the
/// discrete-event simulator, which treats the server as a k-server FIFO
/// resource.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EdgeServer {
    rate_per_slot: FlopsRate,
    slots: usize,
}

impl EdgeServer {
    /// Creates a server with `slots` parallel executors of `rate_per_slot`
    /// each.
    ///
    /// # Errors
    ///
    /// Returns [`WirelessError::Config`] for zero slots or a non-positive
    /// or non-finite rate.
    pub fn new(rate_per_slot: FlopsRate, slots: usize) -> Result<Self> {
        if slots == 0 {
            return Err(WirelessError::Config("server needs ≥ 1 slot".into()));
        }
        let r = rate_per_slot.as_flops_per_sec();
        if !(r.is_finite() && r > 0.0) {
            return Err(WirelessError::Config(format!(
                "server rate must be finite and positive, got {r}"
            )));
        }
        Ok(EdgeServer {
            rate_per_slot,
            slots,
        })
    }

    /// A default edge server: 4 slots × 50 GFLOP/s effective training
    /// throughput.
    pub fn edge_default() -> Self {
        EdgeServer {
            rate_per_slot: FlopsRate::from_gflops(50.0),
            slots: 4,
        }
    }

    /// Per-slot compute rate.
    pub fn rate_per_slot(&self) -> FlopsRate {
        self.rate_per_slot
    }

    /// Number of parallel slots.
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// Time for one slot to execute `flops`.
    pub fn compute_time(&self, flops: u64) -> Seconds {
        self.rate_per_slot.time_for(flops)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        let s = EdgeServer::edge_default();
        assert_eq!(s.slots(), 4);
        assert!(s.rate_per_slot().as_flops_per_sec() > 0.0);
    }

    #[test]
    fn compute_time_uses_slot_rate() {
        let s = EdgeServer::new(FlopsRate::from_gflops(10.0), 2).unwrap();
        assert!((s.compute_time(10_000_000_000).as_secs_f64() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn validation() {
        assert!(EdgeServer::new(FlopsRate::from_gflops(1.0), 0).is_err());
        assert!(EdgeServer::new(FlopsRate::new(0.0), 1).is_err());
    }
}
