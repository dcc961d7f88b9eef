//! Vanilla split learning (SL): the sequential baseline.

use super::common::{
    feedback_key, join_params, make_opt, quorum_missed, require_state, require_state_mut,
    train_chain, FeedbackStore,
};
use super::{RoundOutcome, Scheme, SchemeKind};
use crate::context::TrainContext;
use crate::latency::sl_round_recovered;
use crate::orchestrator::PlanSelector;
use crate::Result;
use gsfl_nn::optim::Sgd;
use gsfl_nn::params::ParamVec;
use gsfl_nn::split::SplitNetwork;
use gsfl_nn::Sequential;

/// Vanilla split learning: one client-side and one server-side model;
/// clients train strictly one after another, each receiving the
/// client-side model through the AP relay. No aggregation — the model
/// state simply accumulates SGD steps as it visits every client.
///
/// Under a fixed cut the split (and its optimizers, including any
/// momentum state) persists across rounds exactly as before. When a
/// planner moves the cut the model is re-split at each round's chosen
/// cut; the config validation guarantees `momentum == 0` there, so
/// per-round optimizers are state-free and nothing is lost in the
/// re-split.
#[derive(Debug, Default)]
pub struct VanillaSplit {
    state: Option<State>,
}

#[derive(Debug)]
struct State {
    mode: Mode,
    /// This run's private plan-selection state.
    plans: PlanSelector,
    steps: Vec<usize>,
    /// Per-client EF21 residuals for the relay-hop model codec,
    /// carried across rounds.
    feedback: FeedbackStore,
}

// One State exists per run, so the variants' size gap costs nothing.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
enum Mode {
    /// The historical path: a persistent split and persistent optimizers.
    Fixed {
        split: SplitNetwork,
        client_opt: Sgd,
        server_opt: Sgd,
    },
    /// Adaptive cuts: the full model travels between rounds; each round
    /// splits it at the planner's cut.
    Adaptive {
        template: Sequential,
        global: ParamVec,
    },
}

impl VanillaSplit {
    /// An uninitialized scheme instance; [`Scheme::init`] prepares it.
    pub fn new() -> Self {
        VanillaSplit::default()
    }
}

impl Scheme for VanillaSplit {
    fn kind(&self) -> SchemeKind {
        SchemeKind::VanillaSplit
    }

    fn init(&mut self, ctx: &TrainContext) -> Result<()> {
        let cfg = &ctx.config;
        let net = cfg
            .model
            .build(&ctx.sample_dims, cfg.dataset.classes, cfg.seed)?;
        // The persistent-split fast path needs the cut to never move.
        let mode = if cfg.fixed_cut() {
            Mode::Fixed {
                split: SplitNetwork::split(net, cfg.cut())?,
                client_opt: make_opt(cfg),
                server_opt: make_opt(cfg),
            }
        } else {
            let global = ParamVec::from_network(&net);
            Mode::Adaptive {
                template: net,
                global,
            }
        };
        self.state = Some(State {
            mode,
            plans: PlanSelector::from_config(cfg),
            steps: ctx.steps_per_client(),
            feedback: FeedbackStore::default(),
        });
        Ok(())
    }

    fn run_round(&mut self, ctx: &TrainContext, round: usize) -> Result<RoundOutcome> {
        let state = require_state_mut(&mut self.state)?;
        let cfg = &ctx.config;
        // Unavailable clients are skipped this round (the relay goes
        // straight to the next reachable client).
        let available = ctx.available_clients(round as u64);
        let mut order = available.clone();
        let (plan, costs) = state.plans.plan_for_round(ctx, round as u64)?;
        // A cohort cap admits only the head of the deterministic
        // participant order (SL ignores per-client cuts — there is one
        // shared model chain).
        if let Some(k) = plan.cohort {
            order.truncate(k);
        }
        // Fault-aware pricing runs *before* training: a crashed client's
        // SGD steps never reach the AP (its model upload is lost), so
        // the chain trains exactly the surviving slots — a backup
        // standby re-runs a crashed slot's segment.
        let recovery = ctx.round_recovery(round as u64, &order, &available);
        let (latency, fate) = sl_round_recovered(
            ctx.env.as_ref(),
            &costs,
            &state.steps,
            &order,
            cfg.channel,
            round as u64,
            plan.shares.as_deref(),
            &recovery.plan,
        )?;
        if !recovery.quorum_met(&fate) {
            // Quorum miss: no client's steps persist — the chain
            // restarts next round from the model state it holds now.
            return Ok(quorum_missed(&state.plans, round as u64, &plan, latency));
        }
        // Dense mode borrows the static shards; population mode
        // materializes this round's sampled cohort (with any backup
        // members substituted into their slots).
        let shards = ctx.round_shards_recovered(round as u64, &recovery)?;

        // The surviving slots in chain order, as (trainee, EF residual
        // key) pairs.
        let members = ctx.cohort_members(round as u64);
        let chain: Vec<(usize, u64)> = fate
            .survivors
            .iter()
            .map(|&slot| {
                let key = feedback_key(members.as_deref(), &recovery, slot);
                (recovery.trainee_for(slot), key)
            })
            .collect();
        let feedback = &state.feedback;
        let train = |split: &mut SplitNetwork, client_opt: &mut Sgd, server_opt: &mut Sgd| {
            train_chain(
                ctx,
                split,
                client_opt,
                server_opt,
                &chain,
                &shards,
                &plan.codec,
                feedback,
                round as u64,
            )
        };
        let pass = match &mut state.mode {
            Mode::Fixed {
                split,
                client_opt,
                server_opt,
            } => {
                let (pass, _) = train(split, client_opt, server_opt)?;
                client_opt.advance_round();
                server_opt.advance_round();
                pass
            }
            Mode::Adaptive { template, global } => {
                let mut whole = template.clone();
                global.load_into(&mut whole)?;
                let mut split = SplitNetwork::split(whole, plan.cut)?;
                // Momentum is 0 by validation, so fresh per-round
                // optimizers are exactly the persistent ones.
                let (pass, client_half) =
                    train(&mut split, &mut make_opt(cfg), &mut make_opt(cfg))?;
                *global = join_params(&client_half, &ParamVec::from_network(&split.server));
                pass
            }
        };
        for (key, residual) in pass.residuals {
            state.feedback.store(key, residual);
        }

        state.plans.observe_outcome(round as u64, &plan, &latency);
        Ok(RoundOutcome {
            latency,
            train_loss: pass.loss_sum / pass.steps.max(1) as f64,
            aggregated: false,
        })
    }

    fn global_params(&self) -> Result<ParamVec> {
        match &require_state(&self.state)?.mode {
            Mode::Fixed { split, .. } => Ok(join_params(
                &ParamVec::from_network(&split.client),
                &ParamVec::from_network(&split.server),
            )),
            Mode::Adaptive { global, .. } => Ok(global.clone()),
        }
    }
}
