//! Centralized learning (CL): the accuracy upper-bound baseline.

use super::common::{
    all_finite, full_train_epoch, make_batcher, make_opt, require_state, require_state_mut,
};
use super::{RoundOutcome, Scheme, SchemeKind};
use crate::context::TrainContext;
use crate::latency::cl_round;
use crate::orchestrator::PlanSelector;
use crate::Result;
use gsfl_data::batcher::Batcher;
use gsfl_data::dataset::ImageDataset;
use gsfl_nn::optim::Sgd;
use gsfl_nn::params::ParamVec;
use gsfl_nn::Sequential;

/// Centralized learning: all client shards pooled at the edge server, one
/// epoch of plain SGD per round, no wireless traffic. The paper uses CL as
/// the accuracy reference in Fig. 2(a).
#[derive(Debug, Default)]
pub struct Centralized {
    state: Option<State>,
}

#[derive(Debug)]
struct State {
    net: Sequential,
    opt: Sgd,
    batcher: Batcher,
    pooled: ImageDataset,
    total_steps: usize,
    /// This run's private plan-selection state. CL has no wireless
    /// traffic or cut, so plans only vary the (compute-irrelevant)
    /// codec — the loop exists so orchestrators observe every scheme.
    plans: PlanSelector,
    /// Whether the model turned non-finite.
    diverged: bool,
}

impl Centralized {
    /// An uninitialized scheme instance; [`Scheme::init`] prepares it.
    pub fn new() -> Self {
        Centralized::default()
    }
}

impl Scheme for Centralized {
    fn kind(&self) -> SchemeKind {
        SchemeKind::Centralized
    }

    fn init(&mut self, ctx: &TrainContext) -> Result<()> {
        let cfg = &ctx.config;
        // Pools the per-slot shards. In population mode `train_shards`
        // is the round-0 cohort, so this stays O(cohort) — CL never
        // materializes the configured population.
        let shards: Vec<&ImageDataset> = ctx.train_shards.iter().collect();
        let pooled = ImageDataset::concat(&shards)?;
        let net = cfg
            .model
            .build(&ctx.sample_dims, cfg.dataset.classes, cfg.seed)?;
        let opt = make_opt(cfg);
        // The server trains on the pooled set; batch stream id uses a
        // client index past all real clients.
        let batcher = make_batcher(cfg, cfg.clients)?;
        let total_steps = pooled.len().div_ceil(cfg.batch_size);
        self.state = Some(State {
            net,
            opt,
            batcher,
            pooled,
            total_steps,
            plans: PlanSelector::from_config(cfg),
            diverged: false,
        });
        Ok(())
    }

    fn run_round(&mut self, ctx: &TrainContext, round: usize) -> Result<RoundOutcome> {
        let state = require_state_mut(&mut self.state)?;
        let (loss_sum, steps) = full_train_epoch(
            &mut state.net,
            &mut state.opt,
            &state.pooled,
            &state.batcher,
            round as u64,
        )?;
        state.diverged = !state
            .net
            .params()
            .iter()
            .all(|p| all_finite(p.value().data()));
        // `full_flops` is a raw field — no plan codec can change the CL
        // round, so the static path stays byte-identical by construction.
        let (plan, costs) = state.plans.plan_for_round(ctx, round as u64)?;
        let latency = cl_round(ctx.env.as_ref(), &costs, state.total_steps);
        state
            .plans
            .observe(round as u64, &plan, latency.duration.as_secs_f64());
        Ok(RoundOutcome {
            latency,
            train_loss: loss_sum / steps.max(1) as f64,
            aggregated: false,
        })
    }

    fn global_params(&self) -> Result<ParamVec> {
        let state = require_state(&self.state)?;
        Ok(ParamVec::from_network(&state.net))
    }

    fn diverged(&self) -> bool {
        self.state.as_ref().is_some_and(|s| s.diverged)
    }
}
