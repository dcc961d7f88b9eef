//! Seeded, thread-invariant fault injection and retry pricing.
//!
//! Real resource-limited wireless networks lose transfers, crash devices
//! mid-epoch and take APs offline; the paper's latency model assumes
//! every scheduled hop completes. This module is the one seeded failure
//! source for all of it:
//!
//! * **Transfer loss** — every wire transfer independently loses each
//!   attempt with probability [`FaultSpec::loss_prob`]; the
//!   [`RetryPolicy`] retries with exponential backoff (deterministic
//!   jitter) up to `max_attempts`, and the resulting
//!   [`TransferOutcome`] is what the latency calculators price: a lost
//!   attempt charges its full airtime plus the backoff before the retry.
//! * **Mid-compute crashes** — with probability [`FaultSpec::crash_prob`]
//!   a client dies at a sampled progress fraction of its round
//!   ([`FaultInjector::crash_point`]) and contributes nothing.
//! * **AP outages** — APs go dark for contiguous round windows
//!   ([`ApOutageSpec`]); clients associated with an offline AP are
//!   unreachable that round.
//! * **Round-start dropouts** — with probability
//!   [`FaultSpec::dropout_prob`] a client is unreachable for a whole
//!   round (deep shadowing, cell reselection, battery saver).
//!
//! Every draw is a pure function of (environment seed, client, round,
//! transfer index) through [`SeedDerive`] — never of host thread count
//! or wall-clock — so fault realizations are reproducible and identical
//! at any parallelism. [`FaultSpec::default`] is the no-fault identity:
//! environments without faults answer every query with the clean
//! outcome and stay byte-identical to the pre-fault code path.

use crate::units::Seconds;
use crate::{Result, WirelessError};
use gsfl_tensor::rng::SeedDerive;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Retransmission policy for lost transfers: up to `max_attempts` tries,
/// exponential backoff between them with deterministic jitter.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// Maximum transmission attempts per transfer (≥ 1). The last
    /// attempt always goes through — the cap bounds how much airtime a
    /// lossy link can burn, it does not abandon the payload.
    pub max_attempts: u32,
    /// Base backoff before the second attempt, seconds; attempt `k`
    /// waits `backoff_base_s · 2^(k-2)` (scaled by jitter) after the
    /// `k-1`-th loss.
    pub backoff_base_s: f64,
    /// Jitter amplitude in `[0, 1]`: each backoff is scaled by a
    /// deterministic uniform draw from `[1, 1 + backoff_jitter]`.
    pub backoff_jitter: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            backoff_base_s: 0.05,
            backoff_jitter: 0.5,
        }
    }
}

impl RetryPolicy {
    /// The backoff charged after the `failed`-th consecutive loss
    /// (`failed ≥ 1`), with `u ∈ [0, 1)` the jitter draw.
    pub fn backoff_after(&self, failed: u32, u: f64) -> f64 {
        let exp = 2f64.powi(failed.saturating_sub(1).min(30) as i32);
        self.backoff_base_s * exp * (1.0 + self.backoff_jitter * u)
    }

    /// Validates the policy.
    ///
    /// # Errors
    ///
    /// Returns [`WirelessError::Config`] for a zero attempt budget,
    /// negative/non-finite backoff, or jitter outside `[0, 1]`.
    pub fn validate(&self) -> Result<()> {
        if self.max_attempts == 0 {
            return Err(WirelessError::Config(
                "retry max_attempts must be ≥ 1".into(),
            ));
        }
        if !self.backoff_base_s.is_finite() || self.backoff_base_s < 0.0 {
            return Err(WirelessError::Config(format!(
                "retry backoff_base_s must be finite and ≥ 0, got {}",
                self.backoff_base_s
            )));
        }
        if !(0.0..=1.0).contains(&self.backoff_jitter) {
            return Err(WirelessError::Config(format!(
                "retry backoff_jitter must be in [0,1], got {}",
                self.backoff_jitter
            )));
        }
        Ok(())
    }
}

/// Per-AP outage windows: with probability `probability` a window opens
/// at a round and keeps the AP offline for `duration_rounds` rounds.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ApOutageSpec {
    /// Per-AP-round probability that an outage window *starts*.
    pub probability: f64,
    /// How many consecutive rounds an opened window lasts (≥ 1).
    pub duration_rounds: u64,
}

impl Default for ApOutageSpec {
    fn default() -> Self {
        ApOutageSpec {
            probability: 0.02,
            duration_rounds: 2,
        }
    }
}

/// The full fault model of an environment. The default is the no-fault
/// identity: every probability zero, no outages, the default retry
/// policy (which never fires without losses).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultSpec {
    /// Per-attempt transfer loss probability, in `[0, 1)`.
    #[serde(default)]
    pub loss_prob: f64,
    /// Per-client-round mid-compute crash probability, in `[0, 1]`.
    #[serde(default)]
    pub crash_prob: f64,
    /// Per-client-round round-start dropout probability, in `[0, 1]`.
    #[serde(default)]
    pub dropout_prob: f64,
    /// Optional per-AP outage windows.
    #[serde(default)]
    pub ap_outage: Option<ApOutageSpec>,
    /// Retransmission pricing for lost transfers.
    #[serde(default)]
    pub retry: RetryPolicy,
}

impl Default for FaultSpec {
    fn default() -> Self {
        FaultSpec {
            loss_prob: 0.0,
            crash_prob: 0.0,
            dropout_prob: 0.0,
            ap_outage: None,
            retry: RetryPolicy::default(),
        }
    }
}

impl FaultSpec {
    /// Whether this spec can never produce a fault (the identity path).
    pub fn is_noop(&self) -> bool {
        self.loss_prob <= 0.0
            && self.crash_prob <= 0.0
            && self.dropout_prob <= 0.0
            && self.ap_outage.is_none_or(|o| o.probability <= 0.0)
    }

    /// Validates all probabilities and the retry policy.
    ///
    /// # Errors
    ///
    /// Returns [`WirelessError::Config`] naming the first bad field.
    pub fn validate(&self) -> Result<()> {
        for (name, p) in [
            ("loss_prob", self.loss_prob),
            ("crash_prob", self.crash_prob),
            ("dropout_prob", self.dropout_prob),
        ] {
            if !(0.0..=1.0).contains(&p) {
                return Err(WirelessError::Config(format!(
                    "fault {name} must be in [0,1], got {p}"
                )));
            }
        }
        if self.loss_prob >= 1.0 {
            return Err(WirelessError::Config(
                "fault loss_prob must be < 1 (a certain loss never delivers)".into(),
            ));
        }
        if let Some(o) = self.ap_outage {
            if !(0.0..=1.0).contains(&o.probability) {
                return Err(WirelessError::Config(format!(
                    "ap_outage probability must be in [0,1], got {}",
                    o.probability
                )));
            }
            if o.duration_rounds == 0 {
                return Err(WirelessError::Config(
                    "ap_outage duration_rounds must be ≥ 1".into(),
                ));
            }
        }
        self.retry.validate()
    }
}

/// The realized fate of one wire transfer: how many attempts it took and
/// how much backoff accrued before the successful one. The clean outcome
/// (`attempts == 1`, zero backoff) prices exactly like the pre-fault
/// path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransferOutcome {
    /// Total transmission attempts, ≥ 1; the last one delivers.
    pub attempts: u32,
    /// Backoff time accrued between attempts, seconds.
    pub backoff_s: f64,
}

impl TransferOutcome {
    /// The no-fault outcome: delivered on the first attempt.
    pub fn clean() -> Self {
        TransferOutcome {
            attempts: 1,
            backoff_s: 0.0,
        }
    }

    /// Retransmissions beyond the first attempt.
    pub fn retries(&self) -> u32 {
        self.attempts - 1
    }

    /// Total wire time of the transfer: every attempt's airtime plus the
    /// accumulated backoff. Identity (`airtime` unchanged, bit for bit)
    /// for the clean outcome.
    pub fn total_time(&self, airtime: Seconds) -> Seconds {
        if self.attempts == 1 {
            return airtime;
        }
        Seconds::new(airtime.as_secs_f64() * self.attempts as f64 + self.backoff_s)
    }
}

/// Seeded fault injector: the single source of every failure draw in an
/// environment. Construct through a [`FaultSpec`] and the environment's
/// [`SeedDerive`] root.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultInjector {
    spec: FaultSpec,
    seeds: SeedDerive,
}

impl FaultInjector {
    /// Builds an injector over a validated spec.
    ///
    /// # Errors
    ///
    /// Propagates [`FaultSpec::validate`] errors.
    pub fn new(spec: FaultSpec, seeds: SeedDerive) -> Result<Self> {
        spec.validate()?;
        Ok(FaultInjector { spec, seeds })
    }

    /// The spec this injector realizes.
    pub fn spec(&self) -> &FaultSpec {
        &self.spec
    }

    /// Round-start dropout: whether `client`'s radio is unreachable in
    /// `round`, drawn from the `child("dropouts")` stream.
    pub fn dropped(&self, client: usize, round: u64) -> bool {
        if self.spec.dropout_prob <= 0.0 {
            return false;
        }
        let mut rng = self
            .seeds
            .child("dropouts")
            .index(client as u64)
            .index(round)
            .rng();
        rng.gen::<f64>() < self.spec.dropout_prob
    }

    /// The fate of transfer number `transfer` of `client` in `round`:
    /// attempts are drawn independently per attempt, capped at the retry
    /// policy's `max_attempts` (the last attempt always delivers), with
    /// exponential jittered backoff accrued between attempts.
    ///
    /// The outcome is pointwise monotone in `loss_prob`: raising the
    /// loss probability can only turn a success draw into a loss, never
    /// the reverse, so attempts (and priced time) never decrease.
    pub fn transfer_outcome(&self, client: usize, round: u64, transfer: u64) -> TransferOutcome {
        if self.spec.loss_prob <= 0.0 {
            return TransferOutcome::clean();
        }
        let mut rng = self
            .seeds
            .child("fault-loss")
            .index(client as u64)
            .index(round)
            .index(transfer)
            .rng();
        let mut attempts = 1u32;
        let mut backoff_s = 0.0f64;
        while attempts < self.spec.retry.max_attempts && rng.gen::<f64>() < self.spec.loss_prob {
            backoff_s += self.spec.retry.backoff_after(attempts, rng.gen::<f64>());
            attempts += 1;
        }
        TransferOutcome {
            attempts,
            backoff_s,
        }
    }

    /// Mid-compute crash: `Some(progress)` when `client` dies in `round`
    /// after completing `progress ∈ [0, 1)` of its local work, `None`
    /// when it survives.
    pub fn crash_point(&self, client: usize, round: u64) -> Option<f64> {
        if self.spec.crash_prob <= 0.0 {
            return None;
        }
        let mut rng = self
            .seeds
            .child("fault-crash")
            .index(client as u64)
            .index(round)
            .rng();
        if rng.gen::<f64>() < self.spec.crash_prob {
            Some(rng.gen::<f64>())
        } else {
            None
        }
    }

    /// Whether AP `ap` is online in `round`: offline iff any outage
    /// window opened within the last `duration_rounds` rounds.
    pub fn ap_online(&self, ap: usize, round: u64) -> bool {
        let Some(o) = self.spec.ap_outage else {
            return true;
        };
        if o.probability <= 0.0 {
            return true;
        }
        let first = round.saturating_sub(o.duration_rounds - 1);
        for start in first..=round {
            let mut rng = self
                .seeds
                .child("fault-ap")
                .index(ap as u64)
                .index(start)
                .rng();
            if rng.gen::<f64>() < o.probability {
                return false;
            }
        }
        true
    }

    /// Whether `client`, associated with AP `ap`, is reachable at round
    /// start: neither dropped out nor behind an offline AP.
    pub fn client_available(&self, client: usize, ap: usize, round: u64) -> bool {
        !self.dropped(client, round) && self.ap_online(ap, round)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn injector(spec: FaultSpec) -> FaultInjector {
        FaultInjector::new(spec, SeedDerive::new(7).child("environment")).unwrap()
    }

    #[test]
    fn default_spec_is_the_identity() {
        let f = injector(FaultSpec::default());
        assert!(f.spec().is_noop());
        for round in 0..20u64 {
            for c in 0..4 {
                assert!(!f.dropped(c, round));
                assert_eq!(f.transfer_outcome(c, round, 3), TransferOutcome::clean());
                assert_eq!(f.crash_point(c, round), None);
                assert!(f.ap_online(0, round));
                assert!(f.client_available(c, 0, round));
            }
        }
        let t = Seconds::new(1.25);
        assert_eq!(TransferOutcome::clean().total_time(t), t);
    }

    #[test]
    fn dropout_stream_is_pinned() {
        // The dropout channel replays the exact
        // `child("dropouts").index(client).index(round)` stream the
        // `dropouts` presets were pinned with.
        let seeds = SeedDerive::new(11).child("environment");
        let f = FaultInjector::new(
            FaultSpec {
                dropout_prob: 0.4,
                ..FaultSpec::default()
            },
            seeds,
        )
        .unwrap();
        for round in 0..40u64 {
            for c in 0..5usize {
                let mut rng = seeds.child("dropouts").index(c as u64).index(round).rng();
                let legacy = rng.gen::<f64>() < 0.4;
                assert_eq!(f.dropped(c, round), legacy, "client {c} round {round}");
            }
        }
    }

    #[test]
    fn transfer_outcomes_are_deterministic_and_capped() {
        let f = injector(FaultSpec {
            loss_prob: 0.9,
            retry: RetryPolicy {
                max_attempts: 3,
                backoff_base_s: 0.1,
                backoff_jitter: 0.0,
            },
            ..FaultSpec::default()
        });
        let mut saw_retry = false;
        for xfer in 0..50u64 {
            let o = f.transfer_outcome(0, 1, xfer);
            assert_eq!(o, f.transfer_outcome(0, 1, xfer), "deterministic");
            assert!(o.attempts >= 1 && o.attempts <= 3);
            saw_retry |= o.attempts > 1;
            // Jitter 0: backoff is exactly the geometric sum.
            let want: f64 = (1..o.attempts).map(|k| 0.1 * 2f64.powi(k as i32 - 1)).sum();
            assert!((o.backoff_s - want).abs() < 1e-12);
        }
        assert!(saw_retry, "p=0.9 over 50 transfers must retry");
    }

    #[test]
    fn outcomes_are_monotone_in_loss_probability() {
        let lo = injector(FaultSpec {
            loss_prob: 0.2,
            ..FaultSpec::default()
        });
        let hi = injector(FaultSpec {
            loss_prob: 0.7,
            ..FaultSpec::default()
        });
        let airtime = Seconds::new(0.5);
        for xfer in 0..200u64 {
            let a = lo.transfer_outcome(3, 9, xfer);
            let b = hi.transfer_outcome(3, 9, xfer);
            assert!(b.attempts >= a.attempts, "attempts monotone");
            assert!(
                b.total_time(airtime).as_secs_f64() >= a.total_time(airtime).as_secs_f64(),
                "priced time monotone"
            );
        }
    }

    #[test]
    fn crashes_sample_a_progress_fraction() {
        let f = injector(FaultSpec {
            crash_prob: 0.5,
            ..FaultSpec::default()
        });
        let mut crashed = 0;
        for round in 0..60u64 {
            for c in 0..4 {
                match f.crash_point(c, round) {
                    Some(p) => {
                        assert!((0.0..1.0).contains(&p));
                        assert_eq!(f.crash_point(c, round), Some(p), "deterministic");
                        crashed += 1;
                    }
                    None => assert_eq!(f.crash_point(c, round), None),
                }
            }
        }
        assert!(crashed > 0, "p=0.5 over 240 samples must crash");
    }

    #[test]
    fn ap_outages_last_their_window() {
        let f = injector(FaultSpec {
            ap_outage: Some(ApOutageSpec {
                probability: 0.15,
                duration_rounds: 3,
            }),
            ..FaultSpec::default()
        });
        // Find a window start, then the AP must stay dark for the
        // window's full duration.
        let mut saw_outage = false;
        for round in 0..200u64 {
            if !f.ap_online(0, round) {
                saw_outage = true;
                // Some start within the last 3 rounds keeps the next
                // rounds of its window dark too; just check determinism.
                assert!(!f.ap_online(0, round));
            }
        }
        assert!(saw_outage, "p=0.15 over 200 rounds must go dark");
        // Different APs draw independent windows.
        let a: Vec<bool> = (0..100).map(|r| f.ap_online(0, r)).collect();
        let b: Vec<bool> = (0..100).map(|r| f.ap_online(1, r)).collect();
        assert_ne!(a, b, "independent per-AP outage streams");
    }

    #[test]
    fn validation_rejects_bad_specs() {
        assert!(FaultSpec {
            loss_prob: 1.0,
            ..FaultSpec::default()
        }
        .validate()
        .is_err());
        assert!(FaultSpec {
            crash_prob: -0.1,
            ..FaultSpec::default()
        }
        .validate()
        .is_err());
        assert!(FaultSpec {
            dropout_prob: 1.5,
            ..FaultSpec::default()
        }
        .validate()
        .is_err());
        assert!(FaultSpec {
            ap_outage: Some(ApOutageSpec {
                probability: 0.1,
                duration_rounds: 0,
            }),
            ..FaultSpec::default()
        }
        .validate()
        .is_err());
        assert!(FaultSpec {
            retry: RetryPolicy {
                max_attempts: 0,
                ..RetryPolicy::default()
            },
            ..FaultSpec::default()
        }
        .validate()
        .is_err());
        assert!(FaultSpec {
            retry: RetryPolicy {
                backoff_jitter: 2.0,
                ..RetryPolicy::default()
            },
            ..FaultSpec::default()
        }
        .validate()
        .is_err());
        assert!(FaultSpec::default().validate().is_ok());
    }

    #[test]
    fn spec_serde_round_trips_with_defaults() {
        let spec = FaultSpec {
            loss_prob: 0.1,
            crash_prob: 0.05,
            dropout_prob: 0.1,
            ap_outage: Some(ApOutageSpec::default()),
            retry: RetryPolicy::default(),
        };
        let json = serde_json::to_string(&spec).unwrap();
        let back: FaultSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, spec);
        // Sparse configs load with identity defaults.
        let sparse: FaultSpec = serde_json::from_str(r#"{"loss_prob":0.2}"#).unwrap();
        assert_eq!(sparse.loss_prob, 0.2);
        assert_eq!(sparse.crash_prob, 0.0);
        assert_eq!(sparse.retry, RetryPolicy::default());
    }
}
