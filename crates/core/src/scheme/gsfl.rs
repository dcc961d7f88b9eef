//! The split schemes: group-based split federated learning — the
//! paper's contribution — with vanilla SL (one chain) and SplitFed
//! (singleton groups) as its M = 1 and M = N special cases.

use super::common::{
    feedback_key, join_params, make_opt, quorum_missed, require_state, require_state_mut,
    train_chain, FedAvgState, Upload,
};
use super::{RoundOutcome, Scheme, SchemeKind};
use crate::context::TrainContext;
use crate::latency::{gsfl_round_recovered, sl_round_recovered};
use crate::parallel::{round_fanout, run_indexed};
use crate::Result;
use gsfl_nn::optim::Sgd;
use gsfl_nn::params::ParamVec;
use gsfl_nn::split::SplitNetwork;

/// GSFL: the N clients are partitioned into M groups. Each group holds a
/// replica of the client-side and server-side models; inside a group,
/// clients train sequentially in split-learning fashion with the
/// client-side model relayed through the AP; groups run in parallel.
/// When every group finishes, the AP FedAvg-aggregates the M replicas
/// (weighted by group sample counts) into the next round's global model.
///
/// The paper's two split baselines are the same scheme over other
/// groupings, picked by the [`SchemeKind`] an instance was built for:
///
/// * Vanilla split learning (SL) is one chain of the round's admitted
///   clients, in admitted order. FedAvg over its one upload is the
///   upload itself, so the round reports no aggregation. The chain
///   trains inline, keeps its two optimizers (and any momentum) across
///   rounds, and is priced by the closed-form
///   [`crate::latency::sl_round_recovered`], under which a deadline
///   keeps the chain's finished prefix.
/// * SplitFed v1 (SFL) is singleton groups: every admitted client trains
///   in parallel against its own server-side replica (N replicas
///   resident at the server, so its storage grows with N instead of M).
///   That grouping is the one place per-client cuts
///   ([`crate::orchestrator::RoundPlan::client_cuts`]) apply: each
///   singleton is priced at its client's cut and its replica is split
///   there.
///
/// Group training really runs on parallel host threads, clamped through
/// the shared [`gsfl_tensor::threading`] budget (or forced by
/// [`crate::config::ExperimentConfig::client_threads`]); results are
/// deterministic because each group's work is independent and
/// aggregation order is fixed.
#[derive(Debug)]
pub struct Gsfl {
    /// Which split scheme this is; picks the grouping: one chain (SL),
    /// the configured groups (GSFL) or singletons (SplitFed).
    kind: SchemeKind,
    state: Option<FedAvgState>,
    /// SL's client- and server-side optimizers, kept across rounds.
    chain_opts: Option<(Sgd, Sgd)>,
}

impl Gsfl {
    /// An uninitialized scheme instance; [`Scheme::init`] prepares it.
    pub fn new() -> Self {
        Gsfl::of(SchemeKind::Gsfl)
    }

    /// An uninitialized instance of the split scheme `kind`.
    pub(super) fn of(kind: SchemeKind) -> Self {
        Gsfl {
            kind,
            state: None,
            chain_opts: None,
        }
    }
}

impl Default for Gsfl {
    fn default() -> Self {
        Gsfl::new()
    }
}

impl Scheme for Gsfl {
    fn kind(&self) -> SchemeKind {
        self.kind
    }

    fn init(&mut self, ctx: &TrainContext) -> Result<()> {
        self.state = Some(FedAvgState::new(ctx)?);
        self.chain_opts = (self.kind == SchemeKind::VanillaSplit)
            .then(|| (make_opt(&ctx.config), make_opt(&ctx.config)));
        Ok(())
    }

    fn run_round(&mut self, ctx: &TrainContext, round: usize) -> Result<RoundOutcome> {
        let state = require_state_mut(&mut self.state)?;
        let cfg = &ctx.config;
        let round = round as u64;
        let one_chain = self.kind == SchemeKind::VanillaSplit;
        // The plan selector picks this round's joint cut × codec ×
        // shares decision from the live conditions (the static path
        // short-circuits to the config).
        let (plan, costs) = state.plans.plan_for_round(ctx, round)?;
        // Per-round participation: groups shrink to their reachable
        // members; fully-unreachable groups sit this round out. A
        // cohort cap admits only the head of the deterministic
        // participant order.
        let available = ctx.available_clients(round);
        let mut admitted = available.clone();
        if let Some(k) = plan.cohort {
            admitted.truncate(k);
        }
        // Each group with the cut its replica splits at.
        let (round_groups, cuts): (Vec<Vec<usize>>, Vec<usize>) = match self.kind {
            SchemeKind::VanillaSplit => (vec![admitted.clone()], vec![plan.cut]),
            SchemeKind::SplitFed => admitted
                .iter()
                .map(|&c| {
                    let cut = plan.client_cuts.as_ref().map_or(plan.cut, |cuts| cuts[c]);
                    (vec![c], cut)
                })
                .unzip(),
            _ => ctx
                .groups
                .iter()
                .map(|members| {
                    members
                        .iter()
                        .copied()
                        .filter(|c| admitted.contains(c))
                        .collect::<Vec<usize>>()
                })
                .filter(|g| !g.is_empty())
                .map(|g| (g, plan.cut))
                .unzip(),
        };
        let group_costs: Vec<_> = cuts
            .iter()
            .map(|&cut| {
                if cut == plan.cut {
                    costs
                } else {
                    ctx.costs_by_cut[&cut].with_compression(&plan.codec)
                }
            })
            .collect();
        // Fault-aware pricing runs *before* training: the fate decides
        // which chain segments actually reach the AP. A crashed member
        // with no standby drops out of its group's chain (the relay the
        // AP holds skips it); a standby re-runs the slot's segment; a
        // group that misses the round deadline contributes nothing (SL
        // keeps its chain's finished prefix).
        let planned: Vec<usize> = round_groups.iter().flatten().copied().collect();
        let recovery = ctx.round_recovery(round, &planned, &available);
        let (mut latency, fate) = if one_chain {
            sl_round_recovered(
                ctx.env.as_ref(),
                &costs,
                &state.steps,
                &planned,
                cfg.channel,
                round,
                plan.shares.as_deref(),
                &recovery.plan,
            )?
        } else {
            gsfl_round_recovered(
                ctx.env.as_ref(),
                &group_costs,
                &state.steps,
                &round_groups,
                cfg.bandwidth_policy,
                cfg.channel,
                round,
                plan.shares.as_deref(),
                &recovery.plan,
            )?
        };
        if !recovery.quorum_met(&fate) {
            // Quorum miss: the global model is left unchanged.
            return Ok(quorum_missed(&state.plans, round, &plan, latency));
        }
        // Each group's chain, reduced to the slots that delivered, as
        // (trainee, EF residual key) pairs: a standby covers its crashed
        // primary's slot. Groups with no survivor sit the aggregation
        // out entirely.
        let cohort = ctx.cohort_members(round);
        let chains: Vec<(Vec<(usize, u64)>, usize)> = round_groups
            .iter()
            .zip(cuts)
            .filter_map(|(members, cut)| {
                let chain: Vec<(usize, u64)> = members
                    .iter()
                    .copied()
                    .filter(|&slot| fate.survived(slot))
                    .map(|slot| {
                        let key = feedback_key(cohort.as_deref(), &recovery, slot);
                        (recovery.trainee_for(slot), key)
                    })
                    .collect();
                (!chain.is_empty()).then_some((chain, cut))
            })
            .collect();
        let shards = ctx.round_shards_recovered(round, &recovery)?;
        let shards = shards.as_ref();

        // Each replica is split from the round-start global at its
        // group's cut.
        let fed = &*state;
        let train = |idx: usize, client_opt: &mut Sgd, server_opt: &mut Sgd| {
            let (members, cut) = &chains[idx];
            let mut replica = SplitNetwork::split(fed.replica()?, *cut)?;
            let (pass, client_half) = train_chain(
                ctx,
                &mut replica,
                client_opt,
                server_opt,
                members,
                shards,
                &plan.codec,
                &fed.feedback,
                round,
            )?;
            Ok(Upload {
                params: join_params(&client_half, &ParamVec::from_network(&replica.server)),
                // The group's last member uploads through its AP.
                client: members[members.len() - 1].0,
                slots: members.len(),
                pass,
            })
        };
        let uploads = match &mut self.chain_opts {
            // SL's one chain trains inline with its kept optimizers.
            Some((client_opt, server_opt)) => (0..chains.len())
                .map(|idx| train(idx, client_opt, server_opt))
                .collect::<Result<Vec<_>>>()?,
            // Groups fan out over the thread-budgeted host parallelism
            // in fixed group order, each with fresh optimizers.
            None => {
                let (threads, _grant) = round_fanout(cfg, chains.len());
                run_indexed(chains.len(), threads, |idx| {
                    train(idx, &mut make_opt(cfg), &mut make_opt(cfg))
                })?
            }
        };
        let (train_loss, merged) = state.aggregate(
            ctx,
            uploads,
            round,
            |usable| recovery.usable_quorum_met(&fate, usable),
            &mut latency,
        )?;
        state.plans.observe_outcome(round, &plan, &latency);
        Ok(RoundOutcome {
            latency,
            train_loss,
            aggregated: merged && !one_chain,
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
