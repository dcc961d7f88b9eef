//! Client device compute profiles.

use crate::units::{FlopsRate, Seconds};
use crate::{Result, WirelessError};
use gsfl_tensor::rng::SeedDerive;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Compute capability of one mobile client.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DeviceProfile {
    rate: FlopsRate,
}

impl DeviceProfile {
    /// Creates a profile with the given effective training rate.
    ///
    /// # Errors
    ///
    /// Returns [`WirelessError::Config`] for a non-positive rate.
    pub fn new(rate: FlopsRate) -> Result<Self> {
        if rate.as_flops_per_sec() <= 0.0 {
            return Err(WirelessError::Config("device rate must be positive".into()));
        }
        Ok(DeviceProfile { rate })
    }

    /// The device's effective FLOP/s.
    pub fn rate(&self) -> FlopsRate {
        self.rate
    }

    /// Time for the device to execute `flops`.
    pub fn compute_time(&self, flops: u64) -> Seconds {
        self.rate.time_for(flops)
    }
}

/// A sampler for heterogeneous device fleets: rates drawn uniformly from
/// `[min_gflops, max_gflops]`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DeviceHeterogeneity {
    /// Slowest device rate in GFLOP/s.
    pub min_gflops: f64,
    /// Fastest device rate in GFLOP/s.
    pub max_gflops: f64,
}

impl Default for DeviceHeterogeneity {
    fn default() -> Self {
        // Effective *training* throughput of mobile-class CPUs.
        DeviceHeterogeneity {
            min_gflops: 0.5,
            max_gflops: 2.0,
        }
    }
}

impl DeviceHeterogeneity {
    /// Samples `n` device profiles deterministically from `seed`.
    ///
    /// # Errors
    ///
    /// Returns [`WirelessError::Config`] when bounds are non-positive,
    /// inverted or non-finite.
    pub fn sample(&self, n: usize, seed: u64) -> Result<Vec<DeviceProfile>> {
        // NaN fails every comparison, so it is rejected here too.
        let ok = self.min_gflops > 0.0
            && self.min_gflops <= self.max_gflops
            && self.max_gflops.is_finite();
        if !ok {
            return Err(WirelessError::Config(format!(
                "device rate bounds invalid: [{}, {}]",
                self.min_gflops, self.max_gflops
            )));
        }
        let seeds = SeedDerive::new(seed).child("devices");
        (0..n)
            .map(|i| {
                let mut rng = seeds.index(i as u64).rng();
                let g = if self.max_gflops > self.min_gflops {
                    rng.gen_range(self.min_gflops..=self.max_gflops)
                } else {
                    self.min_gflops
                };
                DeviceProfile::new(FlopsRate::from_gflops(g))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compute_time_linear_in_flops() {
        let d = DeviceProfile::new(FlopsRate::from_gflops(1.0)).unwrap();
        let t1 = d.compute_time(1_000_000).as_secs_f64();
        let t2 = d.compute_time(2_000_000).as_secs_f64();
        assert!((t2 / t1 - 2.0).abs() < 1e-9);
        assert!((t1 - 1e-3).abs() < 1e-9);
    }

    #[test]
    fn rejects_non_positive_rate() {
        assert!(DeviceProfile::new(FlopsRate::new(0.0)).is_err());
        assert!(DeviceProfile::new(FlopsRate::new(-5.0)).is_err());
    }

    #[test]
    fn heterogeneity_sampler_bounds_and_determinism() {
        let h = DeviceHeterogeneity {
            min_gflops: 1.0,
            max_gflops: 3.0,
        };
        let a = h.sample(20, 5).unwrap();
        let b = h.sample(20, 5).unwrap();
        assert_eq!(a, b);
        for d in &a {
            let g = d.rate().as_flops_per_sec() / 1e9;
            assert!((1.0..=3.0).contains(&g));
        }
        // Heterogeneous: not all equal.
        assert!(a.iter().any(|d| d.rate() != a[0].rate()));
    }

    #[test]
    fn degenerate_equal_bounds_allowed() {
        let h = DeviceHeterogeneity {
            min_gflops: 2.0,
            max_gflops: 2.0,
        };
        let devs = h.sample(3, 0).unwrap();
        assert!(devs
            .iter()
            .all(|d| (d.rate().as_flops_per_sec() - 2e9).abs() < 1.0));
    }

    #[test]
    fn invalid_bounds_rejected() {
        assert!(DeviceHeterogeneity {
            min_gflops: 0.0,
            max_gflops: 1.0
        }
        .sample(2, 0)
        .is_err());
        assert!(DeviceHeterogeneity {
            min_gflops: 3.0,
            max_gflops: 1.0
        }
        .sample(2, 0)
        .is_err());
    }
}
