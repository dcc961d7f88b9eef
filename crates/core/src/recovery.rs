//! Fault-tolerant round execution: deadlines, quorum aggregation and
//! backup cohorts.
//!
//! The wireless layer injects faults (lost transfers, mid-compute
//! crashes, AP outages — see [`gsfl_wireless::fault`]); this module is
//! where the *training protocol* reacts to them:
//!
//! * [`DeadlinePolicy`] truncates a round at a wall-clock deadline and
//!   requires a minimum fraction of the scheduled cohort to deliver an
//!   update before the server aggregates (`min_quorum_frac`). A quorum
//!   miss skips the round: it is recorded, charged its wall-clock time,
//!   and the global model is left unchanged.
//! * [`RecoverySpec::backups`] over-provisions a population-mode cohort:
//!   up to that many standby members are sampled outside it, and a
//!   backup activates only when a primary crashes before completing its
//!   upload — the backup takes over the slot, re-runs its work on its
//!   own data, and the slot's update still arrives.
//! * [`RoundFate`] is the per-round verdict the latency calculators
//!   return alongside the priced [`crate::latency::RoundLatency`]: who
//!   was scheduled, who delivered, who crashed, who missed the deadline.
//!   Schemes train exactly the survivors and aggregate over them with
//!   re-normalized weights ([`quorum_weights`]).
//!
//! Everything here is deterministic: crashes come from the environment's
//! seeded [`ChannelModel::crash_point`] stream, and backup sampling uses
//! the population's `"backups"` seed stream — results are invariant to
//! host thread count.

use crate::config::ExperimentConfig;
use crate::{CoreError, Result};
use gsfl_wireless::environment::ChannelModel;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// A wall-clock round deadline with a quorum requirement.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DeadlinePolicy {
    /// The round is truncated at this many simulated seconds: clients
    /// whose update has not fully arrived by then are dropped from the
    /// aggregate.
    pub deadline_s: f64,
    /// Minimum fraction of the scheduled cohort that must deliver an
    /// update for the round to aggregate, in `(0, 1]`. Below it the
    /// round is skipped and the global model is left unchanged.
    pub min_quorum_frac: f64,
}

impl Default for DeadlinePolicy {
    fn default() -> Self {
        DeadlinePolicy {
            deadline_s: 60.0,
            min_quorum_frac: 0.5,
        }
    }
}

impl DeadlinePolicy {
    /// Validates the policy.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Config`] for a non-positive or non-finite
    /// deadline, or a quorum fraction outside `(0, 1]`.
    pub fn validate(&self) -> Result<()> {
        if !self.deadline_s.is_finite() || self.deadline_s <= 0.0 {
            return Err(CoreError::Config(format!(
                "deadline_s must be a positive finite number of seconds, got {}",
                self.deadline_s
            )));
        }
        if !self.min_quorum_frac.is_finite()
            || self.min_quorum_frac <= 0.0
            || self.min_quorum_frac > 1.0
        {
            return Err(CoreError::Config(format!(
                "min_quorum_frac must be in (0, 1], got {}",
                self.min_quorum_frac
            )));
        }
        Ok(())
    }
}

/// How an experiment recovers from mid-round faults. The default — no
/// deadline, no backups — prices faults into latency but never drops a
/// delivered update, which keeps fault-free runs byte-identical to the
/// pre-recovery code.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct RecoverySpec {
    /// Optional round deadline + quorum requirement.
    #[serde(default)]
    pub deadline: Option<DeadlinePolicy>,
    /// How many standby clients are provisioned per round. A backup
    /// activates only when a primary crashes before completing its
    /// upload. Standbys are extra members sampled from the population
    /// outside the round's cohort, so backups need population mode
    /// (config validation rejects them without one).
    #[serde(default)]
    pub backups: usize,
}

impl RecoverySpec {
    /// Validates the spec.
    ///
    /// # Errors
    ///
    /// Propagates [`DeadlinePolicy::validate`].
    pub fn validate(&self) -> Result<()> {
        if let Some(d) = &self.deadline {
            d.validate()?;
        }
        Ok(())
    }

    /// Whether the spec changes nothing (the identity default).
    pub fn is_noop(&self) -> bool {
        self.deadline.is_none() && self.backups == 0
    }
}

/// One activated standby: `client` re-runs crashed `slot`'s work on its
/// own channel, serialized after the crash, so the slot's update still
/// arrives (late). In population mode the backup is a fresh member that
/// physically replaces the primary, so `client == slot` and only the
/// training data differs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackupAssignment {
    /// The crashed primary's cohort slot.
    pub slot: usize,
    /// The client whose channel and device price the re-run.
    pub client: usize,
    /// Mini-batch steps the backup runs (its own shard's step count).
    pub steps: usize,
}

/// What the latency calculators need to know to price recovery: the
/// optional deadline and which crashed slots have an assigned backup.
/// [`RecoveryPlan::default`] (no deadline, no backups) is the identity.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecoveryPlan {
    /// Wall-clock deadline in seconds, when a [`DeadlinePolicy`] is set.
    pub deadline_s: Option<f64>,
    /// Activated backups, at most one per crashed slot.
    pub backups: Vec<BackupAssignment>,
}

impl RecoveryPlan {
    /// The backup assigned to crashed `slot`, if any.
    pub fn backup_for(&self, slot: usize) -> Option<&BackupAssignment> {
        self.backups.iter().find(|b| b.slot == slot)
    }
}

/// The per-round verdict of a fault-aware latency calculation: which
/// scheduled slots delivered an update and which were lost, and why.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RoundFate {
    /// The slots scheduled into the round, in participation order.
    pub planned: Vec<usize>,
    /// Slots whose update arrived in time (backup-covered slots
    /// included), in participation order — the aggregation set.
    pub survivors: Vec<usize>,
    /// Slots whose primary crashed mid-round (with or without a backup).
    pub crashed: Vec<usize>,
    /// Slots whose update was still in flight at the deadline.
    pub deadline_dropped: Vec<usize>,
    /// How many standby clients actually activated.
    pub backups_activated: u32,
}

impl RoundFate {
    /// A fate where every planned slot survives (the fault-free case).
    pub fn all_survive(planned: Vec<usize>) -> Self {
        RoundFate {
            survivors: planned.clone(),
            planned,
            ..RoundFate::default()
        }
    }

    /// Slots that were scheduled but delivered nothing.
    pub fn lost(&self) -> u32 {
        (self.planned.len() - self.survivors.len()) as u32
    }

    /// Whether the survivor fraction meets `min_quorum_frac`. Vacuously
    /// true for an empty schedule.
    pub fn quorum_met(&self, min_quorum_frac: f64) -> bool {
        self.usable_quorum_met(self.survivors.len(), min_quorum_frac)
    }

    /// Whether `usable` of the planned slots meet `min_quorum_frac`.
    /// Vacuously true for an empty schedule.
    fn usable_quorum_met(&self, usable: usize, min_quorum_frac: f64) -> bool {
        if self.planned.is_empty() {
            return true;
        }
        let frac = usable as f64 / self.planned.len() as f64;
        frac >= min_quorum_frac - 1e-12
    }

    /// Whether `slot` delivered an update.
    pub fn survived(&self, slot: usize) -> bool {
        self.survivors.contains(&slot)
    }
}

/// Re-normalized aggregation weights over a survivor set: `weights[i]`
/// is survivor `i`'s share of the aggregate, always summing to 1 (the
/// FedAvg weights the server would have used, conditioned on who
/// actually delivered). Empty input gives empty output.
pub fn quorum_weights(survivor_samples: &[usize]) -> Vec<f64> {
    if survivor_samples.is_empty() {
        return Vec::new();
    }
    let total: usize = survivor_samples.iter().sum();
    if total == 0 {
        // Degenerate survivor set: fall back to a uniform split.
        let w = 1.0 / survivor_samples.len() as f64;
        return vec![w; survivor_samples.len()];
    }
    survivor_samples
        .iter()
        .map(|&s| s as f64 / total as f64)
        .collect()
}

/// Per-round recovery state a scheme threads through its round loop:
/// the priced [`RecoveryPlan`], plus the training-side substitutions
/// (which client trains a backup-covered slot, and on what data).
#[derive(Debug, Clone, Default)]
pub struct RoundRecovery {
    /// What the latency calculators price.
    pub plan: RecoveryPlan,
    /// Backup members occupying a slot this round (slot → replacement
    /// member id).
    pub member_overrides: BTreeMap<usize, u64>,
    min_quorum_frac: Option<f64>,
}

impl RoundRecovery {
    /// Prepares the round's recovery plan: detects crashed primaries
    /// from the environment's seeded crash stream and assigns up to
    /// `spec.backups` standbys to them. `admitted` is the round's
    /// scheduled cohort (participation order); `population_backups` are
    /// extra member ids sampled from the population, each of which
    /// physically replaces a crashed primary in its slot (same channel
    /// position, different data).
    pub fn prepare(
        config: &ExperimentConfig,
        env: &dyn ChannelModel,
        admitted: &[usize],
        population_backups: &[u64],
        steps_of: impl Fn(usize) -> usize,
        round: u64,
    ) -> Self {
        let spec = &config.recovery;
        let mut plan = RecoveryPlan {
            deadline_s: spec.deadline.map(|d| d.deadline_s),
            backups: Vec::new(),
        };
        let mut member_overrides = BTreeMap::new();
        if spec.backups > 0 {
            let crashed = admitted
                .iter()
                .copied()
                .filter(|&c| env.crash_point(c, round).is_some());
            for (slot, &member) in crashed.zip(population_backups).take(spec.backups) {
                plan.backups.push(BackupAssignment {
                    slot,
                    client: slot,
                    steps: steps_of(slot),
                });
                member_overrides.insert(slot, member);
            }
        }
        RoundRecovery {
            plan,
            member_overrides,
            min_quorum_frac: spec.deadline.map(|d| d.min_quorum_frac),
        }
    }

    /// Whether the round's survivor set clears the configured quorum.
    /// Always true without a [`DeadlinePolicy`], and never true when
    /// *nobody* delivered, which no scheme can aggregate, however small
    /// the quorum fraction.
    pub fn quorum_met(&self, fate: &RoundFate) -> bool {
        self.usable_quorum_met(fate, fate.survivors.len())
    }

    /// [`RoundRecovery::quorum_met`] when only `usable` of the
    /// survivors' updates can be aggregated (the rest arrived
    /// non-finite).
    pub(crate) fn usable_quorum_met(&self, fate: &RoundFate, usable: usize) -> bool {
        if fate.planned.is_empty() {
            return true;
        }
        usable > 0
            && self
                .min_quorum_frac
                .is_none_or(|q| fate.usable_quorum_met(usable, q))
    }

    /// The client that trains `slot`'s update this round: the assigned
    /// backup when the primary crashed, the slot itself otherwise.
    pub fn trainee_for(&self, slot: usize) -> usize {
        self.plan.backup_for(slot).map_or(slot, |b| b.client)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_spec_is_noop_and_valid() {
        let spec = RecoverySpec::default();
        assert!(spec.is_noop());
        spec.validate().unwrap();
        let round = RecoveryPlan::default();
        assert_eq!(round.deadline_s, None);
        assert!(round.backups.is_empty());
    }

    #[test]
    fn deadline_validation_rejects_bad_values() {
        for (d, q) in [
            (0.0, 0.5),
            (-1.0, 0.5),
            (f64::NAN, 0.5),
            (10.0, 0.0),
            (10.0, 1.5),
            (10.0, f64::NAN),
        ] {
            let p = DeadlinePolicy {
                deadline_s: d,
                min_quorum_frac: q,
            };
            assert!(p.validate().is_err(), "({d}, {q}) must be rejected");
        }
        DeadlinePolicy::default().validate().unwrap();
    }

    #[test]
    fn quorum_weights_sum_to_one() {
        let w = quorum_weights(&[10, 30, 60]);
        assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!((w[2] - 0.6).abs() < 1e-12);
        assert!(quorum_weights(&[]).is_empty());
        let degenerate = quorum_weights(&[0, 0]);
        assert!((degenerate.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fate_quorum_and_loss_accounting() {
        let fate = RoundFate {
            planned: vec![0, 1, 2, 3],
            survivors: vec![0, 2],
            crashed: vec![1],
            deadline_dropped: vec![3],
            backups_activated: 0,
        };
        assert_eq!(fate.lost(), 2);
        assert!(fate.quorum_met(0.5));
        assert!(!fate.quorum_met(0.75));
        assert!(fate.survived(2) && !fate.survived(3));
        assert!(RoundFate::default().quorum_met(1.0), "vacuous quorum");
        let clean = RoundFate::all_survive(vec![4, 7]);
        assert_eq!(clean.lost(), 0);
        assert!(clean.quorum_met(1.0));
    }
}
