//! Federated learning (FL): the FedAvg baseline.

use super::common::{
    feedback_key, full_train_epoch, make_batcher, make_opt, quorum_missed, require_state,
    require_state_mut, FedAvgState, ModelCodec, Pass, Upload,
};
use super::{RoundOutcome, Scheme, SchemeKind};
use crate::context::TrainContext;
use crate::latency::fl_round_recovered;
use crate::parallel::{round_fanout, run_indexed};
use crate::Result;
use gsfl_nn::params::ParamVec;

/// Federated learning: each round every client downloads the global
/// model, trains `local_epochs` on its shard, uploads; the AP
/// FedAvg-aggregates weighted by shard size. Round latency is
/// straggler-bound with equal bandwidth shares. FL has no cut — plans
/// vary the upload codec, the bandwidth shares and the cohort.
///
/// Clients are independent inside a round, so they really train on
/// parallel host threads (budgeted by
/// [`crate::config::ExperimentConfig::client_threads`] /
/// `GSFL_THREADS`); aggregation order is fixed, making records
/// byte-identical to a sequential run.
#[derive(Debug, Default)]
pub struct Federated {
    state: Option<FedAvgState>,
}

impl Federated {
    /// An uninitialized scheme instance; [`Scheme::init`] prepares it.
    pub fn new() -> Self {
        Federated::default()
    }
}

impl Scheme for Federated {
    fn kind(&self) -> SchemeKind {
        SchemeKind::Federated
    }

    fn init(&mut self, ctx: &TrainContext) -> Result<()> {
        self.state = Some(FedAvgState::new(ctx)?);
        Ok(())
    }

    fn run_round(&mut self, ctx: &TrainContext, round: usize) -> Result<RoundOutcome> {
        let state = require_state_mut(&mut self.state)?;
        let cfg = &ctx.config;
        let available = ctx.available_clients(round as u64);
        let mut participants = available.clone();
        let (plan, costs) = state.plans.plan_for_round(ctx, round as u64)?;
        // A cohort cap admits only the head of the deterministic
        // participant order (FL has no cut, so per-client cuts are moot).
        if let Some(k) = plan.cohort {
            participants.truncate(k);
        }
        // Fault-aware pricing runs *before* training: latency is
        // training-independent, and the resulting fate decides who
        // trains. Non-participants get zero steps so the calculator
        // skips them.
        let recovery = ctx.round_recovery(round as u64, &participants, &available);
        let round_steps: Vec<usize> = (0..cfg.clients)
            .map(|c| {
                if participants.contains(&c) {
                    state.steps[c]
                } else {
                    0
                }
            })
            .collect();
        let (mut latency, fate) = fl_round_recovered(
            ctx.env.as_ref(),
            &costs,
            &round_steps,
            cfg.local_epochs,
            round as u64,
            plan.shares.as_deref(),
            &recovery.plan,
        )?;
        if !recovery.quorum_met(&fate) {
            // Quorum miss: the global model is left unchanged.
            return Ok(quorum_missed(&state.plans, round as u64, &plan, latency));
        }
        // Dense mode borrows the static shards; population mode
        // materializes this round's sampled cohort (with any backup
        // members substituted into their slots).
        let shards = ctx.round_shards_recovered(round as u64, &recovery)?;
        let shards = shards.as_ref();

        // Only the slots whose update actually arrived train — a
        // backup-covered slot is trained by its standby. Independent
        // clients train on parallel host threads; results come back in
        // participant order and are aggregated in that fixed order, so
        // records are byte-identical to the sequential path.
        let survivors = &fate.survivors;
        let recovery = &recovery;
        let (threads, _grant) = round_fanout(cfg, survivors.len());
        // Workers fetch EF residuals by clone (worker closures are `Fn`);
        // the aggregation tail writes them back serially, in survivor
        // order — byte-identical to a sequential run.
        let ef = plan.codec.error_feedback;
        let members = ctx.cohort_members(round as u64);
        let fed = &*state;
        let uploads = run_indexed(survivors.len(), threads, |idx| {
            let slot = survivors[idx];
            let c = recovery.trainee_for(slot);
            let mut local = fed.replica()?;
            let mut opt = make_opt(cfg);
            let batcher = make_batcher(cfg, c)?;
            let mut pass = Pass {
                samples: shards[c].len(),
                ..Pass::default()
            };
            for e in 0..cfg.local_epochs {
                let (l, s) = full_train_epoch(
                    &mut local,
                    &mut opt,
                    &shards[c],
                    &batcher,
                    round as u64 * cfg.local_epochs as u64 + e as u64,
                )?;
                pass.loss_sum += l;
                pass.steps += s;
            }
            // The full-model upload is encoded as a delta against the
            // round-start global both endpoints hold; the AP aggregates
            // what it decoded.
            let mut params = ParamVec::from_network(&local);
            let mut model_codec = ModelCodec::new(&plan.codec.full_model, cfg.seed);
            let key = feedback_key(members.as_deref(), recovery, slot);
            let mut residual = fed.feedback.fetch(ef, key);
            model_codec.apply(
                &mut params,
                fed.global.get(),
                residual.as_mut(),
                round as u64,
                c,
            )?;
            pass.residuals.extend(residual.map(|r| (key, r)));
            Ok(Upload {
                params,
                client: c,
                slots: 1,
                pass,
            })
        })?;
        let (train_loss, aggregated) = state.aggregate(
            ctx,
            uploads,
            round as u64,
            |usable| recovery.usable_quorum_met(&fate, usable),
            &mut latency,
        )?;
        state.plans.observe_outcome(round as u64, &plan, &latency);
        Ok(RoundOutcome {
            latency,
            train_loss,
            aggregated,
        })
    }

    fn global_params(&self) -> Result<ParamVec> {
        let state = require_state(&self.state)?;
        Ok(state.global.get().clone())
    }

    fn diverged(&self) -> bool {
        self.state.as_ref().is_some_and(|s| s.diverged)
    }
}
