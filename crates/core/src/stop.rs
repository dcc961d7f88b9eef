//! Pluggable stopping policies for training sessions.
//!
//! A [`StopPolicy`] observes every finished [`RoundRecord`] of a session
//! and may halt the run with a [`StopReason`]. Policies replace the old
//! hardcoded `target_accuracy` check: the equivalent behavior is
//! [`TargetAccuracy`], and richer experiment protocols — wall-clock
//! budgets in *simulated* seconds, round budgets, loss-plateau detection —
//! compose through [`CompositePolicy`].

use crate::results::RoundRecord;

/// Why a session stopped before exhausting its configured rounds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StopReason {
    /// Test accuracy reached the target fraction.
    TargetAccuracy {
        /// The round at which the target was hit.
        round: usize,
        /// The accuracy that met the target.
        accuracy: f64,
    },
    /// The per-session round budget was exhausted.
    RoundBudget {
        /// The budget that was exhausted.
        rounds: usize,
    },
    /// Cumulative *simulated* latency crossed the budget.
    LatencyBudget {
        /// The configured budget in simulated seconds.
        limit_s: f64,
        /// Cumulative simulated seconds when the budget tripped.
        cumulative_s: f64,
    },
    /// Training loss stopped improving.
    LossPlateau {
        /// The round at which the plateau was declared.
        round: usize,
        /// Rounds without sufficient improvement.
        stalled_rounds: usize,
    },
    /// Training diverged: the round left no finite model to go on from.
    Diverged {
        /// The round whose updates were all non-finite.
        round: usize,
    },
}

impl std::fmt::Display for StopReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StopReason::TargetAccuracy { round, accuracy } => write!(
                f,
                "target accuracy reached at round {round} ({:.1}%)",
                accuracy * 100.0
            ),
            StopReason::RoundBudget { rounds } => {
                write!(f, "round budget of {rounds} exhausted")
            }
            StopReason::LatencyBudget {
                limit_s,
                cumulative_s,
            } => write!(
                f,
                "simulated-latency budget of {limit_s:.1}s exhausted ({cumulative_s:.1}s elapsed)"
            ),
            StopReason::LossPlateau {
                round,
                stalled_rounds,
            } => write!(
                f,
                "loss plateau at round {round} ({stalled_rounds} rounds without improvement)"
            ),
            StopReason::Diverged { round } => {
                write!(
                    f,
                    "training diverged at round {round}: no finite model update"
                )
            }
        }
    }
}

/// Decides, after every finished round, whether a session should stop.
///
/// Policies are stateful (e.g. plateau detection tracks the best loss
/// seen) and are consumed by one session each.
pub trait StopPolicy: Send {
    /// Observes a finished round; `Some(reason)` halts the session after
    /// this round's record is kept.
    fn observe(&mut self, record: &RoundRecord) -> Option<StopReason>;
}

/// Never stops early; the session runs its configured rounds.
#[derive(Debug, Clone, Copy, Default)]
pub struct NeverStop;

impl StopPolicy for NeverStop {
    fn observe(&mut self, _record: &RoundRecord) -> Option<StopReason> {
        None
    }
}

/// Stops once an evaluation round reaches the target accuracy (fraction
/// in `[0,1]`) — the policy equivalent of the old config-level
/// `target_accuracy` early stop.
#[derive(Debug, Clone, Copy)]
pub struct TargetAccuracy {
    /// The target fraction.
    pub target: f64,
}

impl TargetAccuracy {
    /// A policy stopping at `target` (fraction in `[0,1]`).
    pub fn new(target: f64) -> Self {
        TargetAccuracy { target }
    }
}

impl StopPolicy for TargetAccuracy {
    fn observe(&mut self, record: &RoundRecord) -> Option<StopReason> {
        match record.test_accuracy {
            Some(acc) if acc >= self.target => Some(StopReason::TargetAccuracy {
                round: record.round,
                accuracy: acc,
            }),
            _ => None,
        }
    }
}

/// Stops after `rounds` finished rounds, regardless of the session's
/// configured round count.
#[derive(Debug, Clone, Copy)]
pub struct RoundBudget {
    /// Maximum rounds to run.
    pub rounds: usize,
}

impl RoundBudget {
    /// A policy stopping after `rounds` rounds.
    pub fn new(rounds: usize) -> Self {
        RoundBudget { rounds }
    }
}

impl StopPolicy for RoundBudget {
    fn observe(&mut self, record: &RoundRecord) -> Option<StopReason> {
        (record.round >= self.rounds).then_some(StopReason::RoundBudget {
            rounds: self.rounds,
        })
    }
}

/// Stops once the cumulative *simulated* latency reaches `limit_s`
/// seconds — e.g. "train for at most one simulated hour of edge time".
#[derive(Debug, Clone, Copy)]
pub struct LatencyBudget {
    /// Budget in simulated seconds.
    pub limit_s: f64,
}

impl LatencyBudget {
    /// A policy with a budget of `limit_s` simulated seconds.
    pub fn new(limit_s: f64) -> Self {
        LatencyBudget { limit_s }
    }
}

impl StopPolicy for LatencyBudget {
    fn observe(&mut self, record: &RoundRecord) -> Option<StopReason> {
        (record.cumulative_latency_s >= self.limit_s).then_some(StopReason::LatencyBudget {
            limit_s: self.limit_s,
            cumulative_s: record.cumulative_latency_s,
        })
    }
}

/// Stops when the training loss has not improved by at least `min_delta`
/// for `patience` consecutive rounds.
#[derive(Debug, Clone, Copy)]
pub struct LossPlateau {
    /// Rounds without improvement before stopping.
    pub patience: usize,
    /// Minimum loss decrease that counts as improvement.
    pub min_delta: f64,
    best: f64,
    stalled: usize,
}

impl LossPlateau {
    /// A plateau detector with the given patience and minimum delta.
    pub fn new(patience: usize, min_delta: f64) -> Self {
        LossPlateau {
            patience,
            min_delta,
            best: f64::INFINITY,
            stalled: 0,
        }
    }
}

impl StopPolicy for LossPlateau {
    fn observe(&mut self, record: &RoundRecord) -> Option<StopReason> {
        if record.train_loss < self.best - self.min_delta {
            self.best = record.train_loss;
            self.stalled = 0;
            return None;
        }
        self.stalled += 1;
        (self.stalled >= self.patience).then_some(StopReason::LossPlateau {
            round: record.round,
            stalled_rounds: self.stalled,
        })
    }
}

/// Combines policies: the first member to trip stops the session.
#[derive(Default)]
pub struct CompositePolicy {
    members: Vec<Box<dyn StopPolicy>>,
}

impl CompositePolicy {
    /// An empty composite (never stops).
    pub fn new() -> Self {
        CompositePolicy::default()
    }

    /// A composite over the given members.
    pub fn any(members: Vec<Box<dyn StopPolicy>>) -> Self {
        CompositePolicy { members }
    }

    /// Adds a member policy.
    pub fn push(&mut self, policy: Box<dyn StopPolicy>) {
        self.members.push(policy);
    }

    /// Builder-style [`CompositePolicy::push`].
    #[must_use]
    pub fn with(mut self, policy: Box<dyn StopPolicy>) -> Self {
        self.push(policy);
        self
    }
}

impl StopPolicy for CompositePolicy {
    fn observe(&mut self, record: &RoundRecord) -> Option<StopReason> {
        self.members.iter_mut().find_map(|p| p.observe(record))
    }
}

impl std::fmt::Debug for CompositePolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "CompositePolicy({} members)", self.members.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(round: usize, cumulative_s: f64, loss: f64, acc: Option<f64>) -> RoundRecord {
        RoundRecord {
            round,
            round_latency_s: 1.0,
            cumulative_latency_s: cumulative_s,
            train_loss: loss,
            test_accuracy: acc,
            bytes_up: 0,
            bytes_down: 0,
            bytes_up_raw: 0,
            bytes_down_raw: 0,
            client_energy_j: 0.0,
            retries: 0,
            wasted_airtime_bytes: 0,
            lost_clients: 0,
            backups_activated: 0,
            quorum_met: true,
        }
    }

    #[test]
    fn target_accuracy_waits_for_eval_rounds() {
        let mut p = TargetAccuracy::new(0.8);
        assert_eq!(p.observe(&record(1, 1.0, 2.0, None)), None);
        assert_eq!(p.observe(&record(2, 2.0, 1.0, Some(0.7))), None);
        assert!(matches!(
            p.observe(&record(3, 3.0, 0.5, Some(0.85))),
            Some(StopReason::TargetAccuracy { round: 3, .. })
        ));
    }

    #[test]
    fn round_budget_counts_rounds() {
        let mut p = RoundBudget::new(2);
        assert_eq!(p.observe(&record(1, 1.0, 1.0, None)), None);
        assert!(p.observe(&record(2, 2.0, 1.0, None)).is_some());
    }

    #[test]
    fn latency_budget_uses_simulated_time() {
        let mut p = LatencyBudget::new(10.0);
        assert_eq!(p.observe(&record(1, 4.0, 1.0, None)), None);
        assert_eq!(p.observe(&record(2, 9.99, 1.0, None)), None);
        assert!(matches!(
            p.observe(&record(3, 12.5, 1.0, None)),
            Some(StopReason::LatencyBudget { cumulative_s, .. }) if cumulative_s == 12.5
        ));
    }

    #[test]
    fn plateau_requires_consecutive_stalls() {
        let mut p = LossPlateau::new(2, 0.01);
        assert_eq!(p.observe(&record(1, 1.0, 1.0, None)), None); // best = 1.0
        assert_eq!(p.observe(&record(2, 2.0, 0.999, None)), None); // stall 1
        assert_eq!(p.observe(&record(3, 3.0, 0.5, None)), None); // improves
        assert_eq!(p.observe(&record(4, 4.0, 0.5, None)), None); // stall 1
        assert!(matches!(
            p.observe(&record(5, 5.0, 0.5, None)),
            Some(StopReason::LossPlateau {
                round: 5,
                stalled_rounds: 2
            })
        ));
    }

    #[test]
    fn composite_takes_first_trip() {
        let mut p = CompositePolicy::new()
            .with(Box::new(LatencyBudget::new(100.0)))
            .with(Box::new(RoundBudget::new(3)));
        assert_eq!(p.observe(&record(1, 1.0, 1.0, None)), None);
        assert!(matches!(
            p.observe(&record(3, 3.0, 1.0, None)),
            Some(StopReason::RoundBudget { rounds: 3 })
        ));
    }

    #[test]
    fn never_stop_never_stops() {
        let mut p = NeverStop;
        for r in 1..100 {
            assert_eq!(p.observe(&record(r, r as f64, 0.0, Some(1.0))), None);
        }
    }
}
