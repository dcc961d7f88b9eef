//! Group-based split federated learning — the paper's contribution.

use super::common::{
    feedback_key, join_params, make_batcher, make_cut_channel_for, make_opt, require_state,
    require_state_mut, split_train_epoch, CutLink, FeedbackStore, ModelCodec,
};
use super::{RoundOutcome, Scheme, SchemeKind};
use crate::aggregate::aggregate_tree;
use crate::compression::CompressionSpec;
use crate::context::TrainContext;
use crate::latency::gsfl_round_recovered;
use crate::orchestrator::PlanSelector;
use crate::parallel::{round_fanout, run_indexed};
use crate::population::CowParams;
use crate::Result;
use gsfl_data::dataset::ImageDataset;
use gsfl_nn::params::ParamVec;
use gsfl_nn::split::SplitNetwork;
use gsfl_nn::Sequential;
use gsfl_tensor::workspace::Workspace;

/// Outcome of one group's pass in a round.
struct GroupPass {
    client_params: ParamVec,
    server_params: ParamVec,
    loss_sum: f64,
    steps: usize,
    samples: usize,
    /// Updated EF21 relay-codec residuals, `(feedback key, residual)`
    /// in chain order — written back serially after the parallel
    /// section.
    residuals: Vec<(u64, Vec<f32>)>,
}

/// GSFL: the N clients are partitioned into M groups. Each group holds a
/// replica of the client-side and server-side models; inside a group,
/// clients train sequentially in split-learning fashion with the
/// client-side model relayed through the AP; groups run in parallel.
/// When every group finishes, the AP FedAvg-aggregates the M client-side
/// and M server-side models (weighted by group sample counts) into the
/// next round's global halves.
///
/// Group training really runs on parallel host threads, clamped through
/// the shared [`gsfl_tensor::threading`] budget (or forced by
/// [`crate::config::ExperimentConfig::client_threads`]); results are
/// deterministic because each group's work is independent and
/// aggregation order is fixed.
#[derive(Debug, Default)]
pub struct Gsfl {
    state: Option<State>,
}

#[derive(Debug)]
struct State {
    /// Architecture template; parameters are loaded from `global` and the
    /// network is split at the round's cut before training.
    template: Sequential,
    /// Current global full-model parameters (client ++ server halves),
    /// shared copy-on-write across the round's replicas.
    global: CowParams,
    /// This run's private plan-selection state (fresh per init, so
    /// bandit feedback never leaks across sessions).
    plans: PlanSelector,
    steps: Vec<usize>,
    /// Recycled aggregation scratch — dead snapshots and the `f64`
    /// accumulator cycle through this pool.
    ws: Workspace,
    /// Per-client EF21 residuals for the relay-hop model codec,
    /// carried across rounds.
    feedback: FeedbackStore,
}

impl Gsfl {
    /// An uninitialized scheme instance; [`Scheme::init`] prepares it.
    pub fn new() -> Self {
        Gsfl::default()
    }
}

impl Scheme for Gsfl {
    fn kind(&self) -> SchemeKind {
        SchemeKind::Gsfl
    }

    fn init(&mut self, ctx: &TrainContext) -> Result<()> {
        let cfg = &ctx.config;
        let net = cfg
            .model
            .build(&ctx.sample_dims, cfg.dataset.classes, cfg.seed)?;
        let global = CowParams::new(ParamVec::from_network(&net));
        self.state = Some(State {
            template: net,
            global,
            plans: PlanSelector::from_config(&ctx.config),
            steps: ctx.steps_per_client(),
            ws: Workspace::new(),
            feedback: FeedbackStore::default(),
        });
        Ok(())
    }

    fn run_round(&mut self, ctx: &TrainContext, round: usize) -> Result<RoundOutcome> {
        let state = require_state_mut(&mut self.state)?;
        let cfg = &ctx.config;
        // The plan selector picks this round's joint cut × codec ×
        // shares decision from the live conditions (the static path
        // short-circuits to the config).
        let (plan, costs) = state.plans.plan_for_round(ctx, round as u64)?;
        // Split the current global model at the chosen cut: parameters
        // are preserved across the split, so replicas start from the
        // aggregated state exactly as before.
        let mut whole = state.template.clone();
        state.global.load_into(&mut whole)?;
        let split_template = SplitNetwork::split(whole, plan.cut)?;
        // Per-round participation: groups shrink to their reachable
        // members; fully-unreachable groups sit this round out. A
        // cohort cap admits only the head of the deterministic
        // participant order. GSFL shares one split template across a
        // group's chain, so per-client cuts are not exercised here —
        // SplitFed (per-client replicas) honors them.
        let available = ctx.available_clients(round as u64);
        let mut admitted = available.clone();
        if let Some(k) = plan.cohort {
            admitted.truncate(k);
        }
        let round_groups: Vec<Vec<usize>> = ctx
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
            .collect();
        // Fault-aware pricing runs *before* training: the fate decides
        // which chain segments actually reach the AP. A crashed member
        // with no standby drops out of its group's chain (the relay the
        // AP holds skips it); a standby re-runs the slot's segment; a
        // group that misses the round deadline contributes nothing.
        let planned: Vec<usize> = round_groups.iter().flatten().copied().collect();
        let recovery = ctx.round_recovery(round as u64, &planned, &available);
        let (mut latency, fate) = gsfl_round_recovered(
            ctx.env.as_ref(),
            &vec![costs; round_groups.len()],
            &state.steps,
            &round_groups,
            cfg.bandwidth_policy,
            cfg.channel,
            round as u64,
            plan.shares.as_deref(),
            &recovery.plan,
        )?;
        if !recovery.quorum_met(&fate) {
            // Quorum miss: charged and recorded, nothing aggregates —
            // the global model is left unchanged.
            latency.faults.quorum_met = false;
            state.plans.observe_outcome(round as u64, &plan, &latency);
            return Ok(RoundOutcome {
                latency,
                train_loss: 0.0,
                aggregated: false,
            });
        }
        // Each group's chain, reduced to the slots that delivered and
        // re-pointed at who actually trains them (a standby covers its
        // crashed primary's slot). Groups with no survivor sit the
        // aggregation out entirely.
        let surviving_groups: Vec<Vec<usize>> = round_groups
            .iter()
            .map(|members| {
                members
                    .iter()
                    .copied()
                    .filter(|&c| fate.survived(c))
                    .map(|c| recovery.trainee_for(c))
                    .collect::<Vec<usize>>()
            })
            .filter(|g| !g.is_empty())
            .collect();
        let shards = ctx.round_shards_recovered(round as u64, &recovery)?;
        // EF residual key for each surviving trainee (group mapping
        // already replaced slots with trainee ids, so index the keys by
        // trainee before the parallel section).
        let cohort = ctx.cohort_members(round as u64);
        let mut keys_by_trainee = std::collections::BTreeMap::new();
        for g in &round_groups {
            for &slot in g {
                if fate.survived(slot) {
                    keys_by_trainee.insert(
                        recovery.trainee_for(slot),
                        feedback_key(cohort.as_deref(), &recovery, slot),
                    );
                }
            }
        }
        let passes = run_groups_parallel(
            ctx,
            &surviving_groups,
            shards.as_ref(),
            &split_template,
            &plan.codec,
            &state.feedback,
            &keys_by_trainee,
            round as u64,
        )?;

        // Two-tier FedAvg over both halves, weighted by group samples:
        // each group's AP (where its replica lives) reduces first, the
        // backhaul tier merges — bit-identical to flat aggregation (see
        // `crate::aggregate`).
        let mut group_aps = Vec::with_capacity(surviving_groups.len());
        for g in &surviving_groups {
            group_aps.push(ctx.env.ap_of(g[g.len() - 1], round as u64)?);
        }
        let mut client_snaps = Vec::with_capacity(passes.len());
        let mut server_snaps = Vec::with_capacity(passes.len());
        let mut weights = Vec::with_capacity(passes.len());
        let mut loss_sum = 0.0f64;
        let mut step_sum = 0usize;
        for p in passes {
            client_snaps.push(p.client_params);
            server_snaps.push(p.server_params);
            weights.push(p.samples as f64);
            loss_sum += p.loss_sum;
            step_sum += p.steps;
            // Serial write-back in fixed group/chain order keeps
            // parallel rounds byte-identical to sequential.
            for (key, res) in p.residuals {
                state.feedback.store(key, res);
            }
        }
        let global_client = aggregate_tree(&client_snaps, &weights, &group_aps, &mut state.ws)?;
        let global_server = aggregate_tree(&server_snaps, &weights, &group_aps, &mut state.ws)?;
        state
            .global
            .replace(join_params(&global_client.params, &global_server.params));
        // Dead buffers feed the next round's aggregation scratch.
        state.ws.give(global_client.params.into_values());
        state.ws.give(global_server.params.into_values());
        for snap in client_snaps.into_iter().chain(server_snaps) {
            state.ws.give(snap.into_values());
        }

        state.plans.observe_outcome(round as u64, &plan, &latency);
        Ok(RoundOutcome {
            latency,
            train_loss: loss_sum / step_sum.max(1) as f64,
            aggregated: true,
        })
    }

    fn global_params(&self) -> Result<ParamVec> {
        let state = require_state(&self.state)?;
        Ok(state.global.get().clone())
    }
}

/// Trains every group for one round, fanning groups out over the
/// thread-budgeted host parallelism in fixed group order. The template
/// already carries the round's global parameters; `shards` holds the
/// round's per-slot training data (the cohort in population mode).
#[allow(clippy::too_many_arguments)]
fn run_groups_parallel(
    ctx: &TrainContext,
    groups: &[Vec<usize>],
    shards: &[ImageDataset],
    template: &SplitNetwork,
    codec: &CompressionSpec,
    feedback: &FeedbackStore,
    keys_by_trainee: &std::collections::BTreeMap<usize, u64>,
    round: u64,
) -> Result<Vec<GroupPass>> {
    let (threads, _grant) = round_fanout(&ctx.config, groups.len());
    let ef = codec.error_feedback;
    run_indexed(groups.len(), threads, |idx| {
        let members = &groups[idx];
        let mut replica = template.clone();
        let cfg = &ctx.config;
        let mut client_opt = make_opt(cfg);
        let mut server_opt = make_opt(cfg);
        let mut channel = make_cut_channel_for(codec);
        // The client half is re-encoded on every wire crossing: each
        // relay hop between members and the final upload to the AP, as a
        // delta against the state the hop started from. Streams depend
        // only on (seed, round, client), so group-parallel threads stay
        // byte-identical.
        let mut model_codec = ModelCodec::new(&codec.client_model, cfg.seed);
        let mut loss_sum = 0.0f64;
        let mut step_sum = 0usize;
        let mut samples = 0usize;
        let mut residuals = Vec::new();
        for &c in members {
            let relay_ref = model_codec
                .active()
                .then(|| ParamVec::from_network(&replica.client));
            let batcher = make_batcher(cfg, c)?;
            let (l, s) = split_train_epoch(
                &mut replica,
                &mut client_opt,
                &mut server_opt,
                &shards[c],
                &batcher,
                round,
                CutLink::new(cfg, &mut channel, c),
            )?;
            if let Some(reference) = relay_ref {
                let key = keys_by_trainee.get(&c).copied().unwrap_or(c as u64);
                let mut residual = feedback.fetch(ef, key);
                model_codec.apply(&mut replica.client, &reference, residual.as_mut(), round, c)?;
                if let Some(res) = residual {
                    residuals.push((key, res));
                }
            }
            loss_sum += l;
            step_sum += s;
            samples += shards[c].len();
        }
        Ok(GroupPass {
            client_params: ParamVec::from_network(&replica.client),
            server_params: ParamVec::from_network(&replica.server),
            loss_sum,
            steps: step_sum,
            samples,
            residuals,
        })
    })
}
