//! GSFL, SplitFed and FedAvg rounds driven from outside the crates,
//! through the public entry points the built-in schemes call, with a
//! span around each call.
//!
//! Each scheme mirrors its built-in twin step for step — same calls,
//! same seeds, same fan-out order — so its records are bit-identical
//! (the fidelity test pins this). Cut-only adaptive policies, which the
//! benchmark's workloads do not use, take the same path as any plan.

use crate::spans::{self, counts, sim_totals, span, Counts};
use gsfl_core::aggregate::aggregate_tree;
use gsfl_core::compression::CompressionSpec;
use gsfl_core::context::TrainContext;
use gsfl_core::latency::{fl_round_recovered, gsfl_round_recovered, RoundLatency, SplitCosts};
use gsfl_core::orchestrator::{PlanSelector, RoundPlan};
use gsfl_core::population::CowParams;
use gsfl_core::recovery::{RecoveryPlan, RoundRecovery};
use gsfl_core::scheme::{RoundOutcome, Scheme, SchemeKind};
use gsfl_core::{CoreError, Result};
use gsfl_data::batcher::Batcher;
use gsfl_data::dataset::ImageDataset;
use gsfl_nn::codec::{encode_delta, Codec, CodecSpec, CutChannel};
use gsfl_nn::loss::SoftmaxCrossEntropy;
use gsfl_nn::optim::Sgd;
use gsfl_nn::params::ParamVec;
use gsfl_nn::split::SplitNetwork;
use gsfl_nn::Sequential;
use gsfl_tensor::rng::SeedDerive;
use gsfl_tensor::Workspace;
use std::collections::BTreeMap;

/// A traced twin of a built-in scheme.
pub fn traced(kind: SchemeKind) -> Option<Box<dyn Scheme>> {
    match kind {
        SchemeKind::Gsfl => Some(Box::new(Traced::new(Kind::Gsfl))),
        SchemeKind::SplitFed => Some(Box::new(Traced::new(Kind::SplitFed))),
        SchemeKind::Federated => Some(Box::new(Traced::new(Kind::Federated))),
        _ => None,
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Gsfl,
    SplitFed,
    Federated,
}

/// Per-run state, as the built-in schemes keep it.
#[derive(Debug)]
struct State {
    template: Sequential,
    global: CowParams,
    plans: PlanSelector,
    steps: Vec<usize>,
    ws: Workspace,
    /// EF21 model-upload residuals by feedback key, across rounds.
    feedback: BTreeMap<u64, Vec<f32>>,
}

#[derive(Debug)]
struct Traced {
    kind: Kind,
    state: Option<State>,
}

impl Traced {
    fn new(kind: Kind) -> Self {
        Traced { kind, state: None }
    }
}

fn uninitialized() -> CoreError {
    CoreError::Config("scheme not initialized".into())
}

impl Scheme for Traced {
    fn kind(&self) -> SchemeKind {
        match self.kind {
            Kind::Gsfl => SchemeKind::Gsfl,
            Kind::SplitFed => SchemeKind::SplitFed,
            Kind::Federated => SchemeKind::Federated,
        }
    }

    fn init(&mut self, ctx: &TrainContext) -> Result<()> {
        let cfg = &ctx.config;
        let template = cfg
            .model
            .build(&ctx.sample_dims, cfg.dataset.classes, cfg.seed)?;
        self.state = Some(State {
            global: CowParams::new(ParamVec::from_network(&template)),
            template,
            plans: PlanSelector::from_config(cfg),
            steps: ctx.steps_per_client(),
            ws: Workspace::new(),
            feedback: BTreeMap::new(),
        });
        Ok(())
    }

    fn run_round(&mut self, ctx: &TrainContext, round: usize) -> Result<RoundOutcome> {
        let state = self.state.as_mut().ok_or_else(uninitialized)?;
        let r = round as u64;
        let (plan, costs) = {
            let _s = span("core.plan");
            Counts::add(&counts().plans, 1);
            state.plans.plan_for_round(ctx, r)?
        };
        let outcome = match self.kind {
            Kind::Gsfl => gsfl_round(ctx, state, &plan, costs, r)?,
            Kind::SplitFed => splitfed_round(ctx, state, &plan, costs, r)?,
            Kind::Federated => fedavg_round(ctx, state, &plan, &costs, r)?,
        };
        {
            let _s = span("core.plan");
            state.plans.observe_outcome(r, &plan, &outcome.latency);
        }
        record_sim(&outcome.latency);
        Ok(outcome)
    }

    /// The session calls this only to evaluate; the `nn.eval` span it
    /// opens is closed by `traced_session` when the round's events arrive.
    fn global_params(&self) -> Result<ParamVec> {
        let state = self.state.as_ref().ok_or_else(uninitialized)?;
        spans::begin("nn.eval");
        Ok(state.global.get().clone())
    }
}

fn record_sim(latency: &RoundLatency) {
    let mut t = sim_totals()
        .lock()
        .expect("no thread panics holding the totals");
    let b = &latency.breakdown;
    t.compute_s += b.client_compute_s;
    t.uplink_s += b.uplink_s;
    t.downlink_s += b.downlink_s;
    t.server_s += b.server_s;
    t.backhaul_s += b.backhaul_s;
    t.bytes_up += latency.bytes.up as f64;
    t.bytes_down += latency.bytes.down as f64;
    t.retries += latency.faults.retries as f64;
    t.lost_clients += f64::from(latency.faults.lost_clients);
    t.wasted_bytes += latency.faults.wasted_airtime_bytes as f64;
}

/// A round that missed quorum: charged and recorded, nothing trains.
fn quorum_miss(mut latency: RoundLatency) -> RoundOutcome {
    latency.faults.quorum_met = false;
    RoundOutcome {
        latency,
        train_loss: 0.0,
        aggregated: false,
    }
}

fn gsfl_round(
    ctx: &TrainContext,
    state: &mut State,
    plan: &RoundPlan,
    costs: SplitCosts,
    r: u64,
) -> Result<RoundOutcome> {
    let cfg = &ctx.config;
    let split_template = {
        let _s = span("core.replica");
        let mut whole = state.template.clone();
        state.global.load_into(&mut whole)?;
        SplitNetwork::split(whole, plan.cut)?
    };
    let (round_groups, recovery) = {
        let _s = span("core.roster");
        let available = ctx.available_clients(r);
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
        let planned: Vec<usize> = round_groups.iter().flatten().copied().collect();
        let recovery = ctx.round_recovery(r, &planned, &available);
        (round_groups, recovery)
    };
    let (latency, fate) = {
        let _s = span("core.price");
        let group_costs = vec![costs; round_groups.len()];
        Counts::add(
            &counts().des_tasks,
            des_tasks(ctx, &round_groups, &state.steps, &recovery.plan, r)?,
        );
        gsfl_round_recovered(
            ctx.env.as_ref(),
            &group_costs,
            &state.steps,
            &round_groups,
            cfg.bandwidth_policy,
            cfg.channel,
            r,
            plan.shares.as_deref(),
            &recovery.plan,
        )?
    };
    if !recovery.quorum_met(&fate) {
        return Ok(quorum_miss(latency));
    }
    let surviving_groups: Vec<Vec<usize>> = {
        let _s = span("core.roster");
        round_groups
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
            .collect()
    };
    let (shards, keys_by_trainee) = {
        let _s = span("core.cohort");
        let shards = ctx.round_shards_recovered(r, &recovery)?;
        let cohort = ctx.cohort_members(r);
        let mut keys: BTreeMap<usize, u64> = BTreeMap::new();
        for g in &round_groups {
            for &slot in g {
                if fate.survived(slot) {
                    keys.insert(
                        recovery.trainee_for(slot),
                        feedback_key(cohort.as_deref(), &recovery, slot),
                    );
                }
            }
        }
        (shards, keys)
    };
    let shards = shards.as_ref();
    let codec = &plan.codec;
    let feedback = &state.feedback;
    let template = &split_template;
    let keys_by_trainee = &keys_by_trainee;
    let passes = fan_out(cfg, surviving_groups.len(), |idx| {
        let _p = span("core.participant");
        let members = &surviving_groups[idx];
        let (mut replica, mut client_opt, mut server_opt, mut channel, mut model_codec) = {
            let _s = span("core.replica");
            (
                template.clone(),
                make_opt(cfg),
                make_opt(cfg),
                cut_channel(codec),
                ModelCodec::new(&codec.client_model, cfg.seed),
            )
        };
        let mut loss_sum = 0.0f64;
        let mut step_sum = 0usize;
        let mut samples = 0usize;
        let mut residuals = Vec::new();
        for &c in members {
            Counts::add(&counts().trainees, 1);
            let relay_ref = {
                let _s = span("core.replica");
                model_codec
                    .active()
                    .then(|| ParamVec::from_network(&replica.client))
            };
            let batcher = make_batcher(cfg, c)?;
            let (l, s) = split_train_epoch(
                &mut replica,
                &mut client_opt,
                &mut server_opt,
                &shards[c],
                &batcher,
                r,
                &mut channel,
                c,
                cfg.seed,
                &costs,
                cfg.batch_size,
            )?;
            if let Some(reference) = relay_ref {
                let key = keys_by_trainee.get(&c).copied().unwrap_or(c as u64);
                let mut residual = fetch(feedback, codec.error_feedback, key);
                model_codec.apply(&mut replica.client, &reference, residual.as_mut(), r, c)?;
                if let Some(res) = residual {
                    residuals.push((key, res));
                }
            }
            loss_sum += l;
            step_sum += s;
            samples += shards[c].len();
        }
        let _s = span("core.replica");
        Ok((
            ParamVec::from_network(&replica.client),
            ParamVec::from_network(&replica.server),
            loss_sum,
            step_sum,
            samples,
            residuals,
        ))
    })?;

    let _s = span("core.aggregate");
    let mut group_aps = Vec::with_capacity(surviving_groups.len());
    for g in &surviving_groups {
        group_aps.push(ctx.env.ap_of(g[g.len() - 1], r)?);
    }
    let mut client_snaps = Vec::with_capacity(passes.len());
    let mut server_snaps = Vec::with_capacity(passes.len());
    let mut weights = Vec::with_capacity(passes.len());
    let mut loss_sum = 0.0f64;
    let mut step_sum = 0usize;
    for (client, server, l, s, samples, residuals) in passes {
        client_snaps.push(client);
        server_snaps.push(server);
        weights.push(samples as f64);
        loss_sum += l;
        step_sum += s;
        for (key, res) in residuals {
            state.feedback.insert(key, res);
        }
    }
    merge_halves(state, client_snaps, server_snaps, &weights, &group_aps)?;
    Ok(RoundOutcome {
        latency,
        train_loss: loss_sum / step_sum.max(1) as f64,
        aggregated: true,
    })
}

fn splitfed_round(
    ctx: &TrainContext,
    state: &mut State,
    plan: &RoundPlan,
    costs: SplitCosts,
    r: u64,
) -> Result<RoundOutcome> {
    let cfg = &ctx.config;
    let (singleton_groups, group_costs, recovery) = {
        let _s = span("core.roster");
        let available = ctx.available_clients(r);
        let mut participants = available.clone();
        if let Some(k) = plan.cohort {
            participants.truncate(k);
        }
        let singleton_groups: Vec<Vec<usize>> = participants.iter().map(|&c| vec![c]).collect();
        let group_costs: Vec<SplitCosts> = match &plan.client_cuts {
            None => vec![costs; singleton_groups.len()],
            Some(cuts) => participants
                .iter()
                .map(|&c| ctx.costs_by_cut[&cuts[c]].with_compression(&plan.codec))
                .collect(),
        };
        let recovery = ctx.round_recovery(r, &participants, &available);
        (singleton_groups, group_costs, recovery)
    };
    let (latency, fate) = {
        let _s = span("core.price");
        Counts::add(
            &counts().des_tasks,
            des_tasks(ctx, &singleton_groups, &state.steps, &recovery.plan, r)?,
        );
        gsfl_round_recovered(
            ctx.env.as_ref(),
            &group_costs,
            &state.steps,
            &singleton_groups,
            cfg.bandwidth_policy,
            cfg.channel,
            r,
            plan.shares.as_deref(),
            &recovery.plan,
        )?
    };
    if !recovery.quorum_met(&fate) {
        return Ok(quorum_miss(latency));
    }
    let (shards, trainees, keys) = {
        let _s = span("core.cohort");
        let shards = ctx.round_shards_recovered(r, &recovery)?;
        let trainees: Vec<usize> = fate
            .survivors
            .iter()
            .map(|&slot| recovery.trainee_for(slot))
            .collect();
        let members = ctx.cohort_members(r);
        let keys: Vec<u64> = fate
            .survivors
            .iter()
            .map(|&slot| feedback_key(members.as_deref(), &recovery, slot))
            .collect();
        (shards, trainees, keys)
    };
    let shards = shards.as_ref();
    let ef = plan.codec.error_feedback;

    let (loss_sum, step_sum) = match &plan.client_cuts {
        None => {
            let (template, client_ref) = {
                let _s = span("core.replica");
                let mut whole = state.template.clone();
                state.global.load_into(&mut whole)?;
                let template = SplitNetwork::split(whole, plan.cut)?;
                let client_ref = ParamVec::from_network(&template.client);
                (template, client_ref)
            };
            let (template, client_ref) = (&template, &client_ref);
            let feedback = &state.feedback;
            let passes = fan_out(cfg, trainees.len(), |idx| {
                let _p = span("core.participant");
                let c = trainees[idx];
                Counts::add(&counts().trainees, 1);
                let (mut replica, mut client_opt, mut server_opt, mut channel, mut model_codec) = {
                    let _s = span("core.replica");
                    (
                        template.clone(),
                        make_opt(cfg),
                        make_opt(cfg),
                        cut_channel(&plan.codec),
                        ModelCodec::new(&plan.codec.client_model, cfg.seed),
                    )
                };
                let batcher = make_batcher(cfg, c)?;
                let (l, s) = split_train_epoch(
                    &mut replica,
                    &mut client_opt,
                    &mut server_opt,
                    &shards[c],
                    &batcher,
                    r,
                    &mut channel,
                    c,
                    cfg.seed,
                    &costs,
                    cfg.batch_size,
                )?;
                let mut client_snap = {
                    let _s = span("core.replica");
                    ParamVec::from_network(&replica.client)
                };
                let mut residual = fetch(feedback, ef, keys[idx]);
                model_codec.apply_vec(&mut client_snap, client_ref, residual.as_mut(), r, c)?;
                let _s = span("core.replica");
                Ok((
                    client_snap,
                    ParamVec::from_network(&replica.server),
                    shards[c].len() as f64,
                    l,
                    s,
                    residual,
                ))
            })?;
            let _s = span("core.aggregate");
            let mut client_snaps = Vec::with_capacity(passes.len());
            let mut server_snaps = Vec::with_capacity(passes.len());
            let mut weights = Vec::with_capacity(passes.len());
            let (mut loss_sum, mut step_sum) = (0.0f64, 0usize);
            for (idx, (client, server, weight, l, s, residual)) in passes.into_iter().enumerate() {
                client_snaps.push(client);
                server_snaps.push(server);
                weights.push(weight);
                loss_sum += l;
                step_sum += s;
                if let Some(res) = residual {
                    state.feedback.insert(keys[idx], res);
                }
            }
            let mut aps = Vec::with_capacity(trainees.len());
            for &c in &trainees {
                aps.push(ctx.env.ap_of(c, r)?);
            }
            merge_halves(state, client_snaps, server_snaps, &weights, &aps)?;
            (loss_sum, step_sum)
        }
        Some(cuts) => {
            let template = &state.template;
            let global = state.global.clone();
            let global = &global;
            let feedback = &state.feedback;
            let passes = fan_out(cfg, trainees.len(), |idx| {
                let _p = span("core.participant");
                let c = trainees[idx];
                Counts::add(&counts().trainees, 1);
                let (
                    mut replica,
                    client_ref,
                    mut client_opt,
                    mut server_opt,
                    mut channel,
                    mut model_codec,
                ) = {
                    let _s = span("core.replica");
                    let mut whole = template.clone();
                    global.load_into(&mut whole)?;
                    let replica = SplitNetwork::split(whole, cuts[c])?;
                    let client_ref = ParamVec::from_network(&replica.client);
                    (
                        replica,
                        client_ref,
                        make_opt(cfg),
                        make_opt(cfg),
                        cut_channel(&plan.codec),
                        ModelCodec::new(&plan.codec.client_model, cfg.seed),
                    )
                };
                let batcher = make_batcher(cfg, c)?;
                let (l, s) = split_train_epoch(
                    &mut replica,
                    &mut client_opt,
                    &mut server_opt,
                    &shards[c],
                    &batcher,
                    r,
                    &mut channel,
                    c,
                    cfg.seed,
                    &ctx.costs_by_cut[&cuts[c]],
                    cfg.batch_size,
                )?;
                let mut client_snap = {
                    let _s = span("core.replica");
                    ParamVec::from_network(&replica.client)
                };
                let mut residual = fetch(feedback, ef, keys[idx]);
                model_codec.apply_vec(&mut client_snap, &client_ref, residual.as_mut(), r, c)?;
                let _s = span("core.replica");
                Ok((
                    join_params(&client_snap, &ParamVec::from_network(&replica.server)),
                    shards[c].len() as f64,
                    l,
                    s,
                    residual,
                ))
            })?;
            let _s = span("core.aggregate");
            let mut snapshots = Vec::with_capacity(passes.len());
            let mut weights = Vec::with_capacity(passes.len());
            let (mut loss_sum, mut step_sum) = (0.0f64, 0usize);
            for (idx, (snap, weight, l, s, residual)) in passes.into_iter().enumerate() {
                snapshots.push(snap);
                weights.push(weight);
                loss_sum += l;
                step_sum += s;
                if let Some(res) = residual {
                    state.feedback.insert(keys[idx], res);
                }
            }
            let mut aps = Vec::with_capacity(trainees.len());
            for &c in &trainees {
                aps.push(ctx.env.ap_of(c, r)?);
            }
            merge_full(state, snapshots, &weights, &aps)?;
            (loss_sum, step_sum)
        }
    };
    Ok(RoundOutcome {
        latency,
        train_loss: loss_sum / step_sum.max(1) as f64,
        aggregated: true,
    })
}

fn fedavg_round(
    ctx: &TrainContext,
    state: &mut State,
    plan: &RoundPlan,
    costs: &SplitCosts,
    r: u64,
) -> Result<RoundOutcome> {
    let cfg = &ctx.config;
    let (round_steps, recovery) = {
        let _s = span("core.roster");
        let available = ctx.available_clients(r);
        let mut participants = available.clone();
        if let Some(k) = plan.cohort {
            participants.truncate(k);
        }
        let recovery = ctx.round_recovery(r, &participants, &available);
        let round_steps: Vec<usize> = (0..cfg.clients)
            .map(|c| {
                if participants.contains(&c) {
                    state.steps[c]
                } else {
                    0
                }
            })
            .collect();
        (round_steps, recovery)
    };
    let (latency, fate) = {
        let _s = span("core.price");
        fl_round_recovered(
            ctx.env.as_ref(),
            costs,
            &round_steps,
            cfg.local_epochs,
            r,
            plan.shares.as_deref(),
            &recovery.plan,
        )?
    };
    if !recovery.quorum_met(&fate) {
        return Ok(quorum_miss(latency));
    }
    let (shards, keys) = {
        let _s = span("core.cohort");
        let shards = ctx.round_shards_recovered(r, &recovery)?;
        let members = ctx.cohort_members(r);
        let keys: Vec<u64> = fate
            .survivors
            .iter()
            .map(|&slot| feedback_key(members.as_deref(), &recovery, slot))
            .collect();
        (shards, keys)
    };
    let shards = shards.as_ref();
    let survivors = &fate.survivors;
    let recovery = &recovery;
    let template = &state.template;
    let global = state.global.clone();
    let global = &global;
    let ef = plan.codec.error_feedback;
    let feedback = &state.feedback;
    let keys = &keys;
    let passes = fan_out(cfg, survivors.len(), |idx| {
        let _p = span("core.participant");
        let c = recovery.trainee_for(survivors[idx]);
        Counts::add(&counts().trainees, 1);
        let (mut local, mut opt) = {
            let _s = span("core.replica");
            let mut local = template.clone();
            global.load_into(&mut local)?;
            (local, make_opt(cfg))
        };
        let batcher = make_batcher(cfg, c)?;
        let mut loss_sum = 0.0f64;
        let mut step_sum = 0usize;
        for e in 0..cfg.local_epochs {
            let (l, s) = full_train_epoch(
                &mut local,
                &mut opt,
                &shards[c],
                &batcher,
                r * cfg.local_epochs as u64 + e as u64,
                costs.full_flops,
                cfg.batch_size,
            )?;
            loss_sum += l;
            step_sum += s;
        }
        let mut snapshot = {
            let _s = span("core.replica");
            ParamVec::from_network(&local)
        };
        let mut model_codec = ModelCodec::new(&plan.codec.full_model, cfg.seed);
        let mut residual = fetch(feedback, ef, keys[idx]);
        model_codec.apply_vec(&mut snapshot, global.get(), residual.as_mut(), r, c)?;
        Ok((
            snapshot,
            shards[c].len() as f64,
            loss_sum,
            step_sum,
            residual,
        ))
    })?;
    let _s = span("core.aggregate");
    let mut snapshots = Vec::with_capacity(passes.len());
    let mut weights = Vec::with_capacity(passes.len());
    let (mut loss_sum, mut step_sum) = (0.0f64, 0usize);
    for (idx, (snap, weight, l, s, residual)) in passes.into_iter().enumerate() {
        snapshots.push(snap);
        weights.push(weight);
        loss_sum += l;
        step_sum += s;
        if let Some(res) = residual {
            state.feedback.insert(keys[idx], res);
        }
    }
    let mut aps = Vec::with_capacity(survivors.len());
    for &slot in survivors {
        aps.push(ctx.env.ap_of(recovery.trainee_for(slot), r)?);
    }
    merge_full(state, snapshots, &weights, &aps)?;
    Ok(RoundOutcome {
        latency,
        train_loss: loss_sum / step_sum.max(1) as f64,
        aggregated: true,
    })
}

/// `aggregate::aggregate_tree`, counted.
fn aggregate(
    snapshots: &[ParamVec],
    weights: &[f64],
    aps: &[usize],
    ws: &mut Workspace,
) -> Result<ParamVec> {
    Counts::add(&counts().aggregate_replicas, snapshots.len() as u64);
    Counts::add(
        &counts().aggregate_bytes,
        snapshots.iter().map(|s| 4 * s.len() as u64).sum(),
    );
    Ok(aggregate_tree(snapshots, weights, aps, ws)?.params)
}

/// FedAvg of both halves into the next global model; dead buffers feed
/// the next round's aggregation scratch.
fn merge_halves(
    state: &mut State,
    client_snaps: Vec<ParamVec>,
    server_snaps: Vec<ParamVec>,
    weights: &[f64],
    aps: &[usize],
) -> Result<()> {
    let client = aggregate(&client_snaps, weights, aps, &mut state.ws)?;
    let server = aggregate(&server_snaps, weights, aps, &mut state.ws)?;
    state.global.replace(join_params(&client, &server));
    for dead in [client, server]
        .into_iter()
        .chain(client_snaps)
        .chain(server_snaps)
    {
        state.ws.give(dead.into_values());
    }
    Ok(())
}

/// FedAvg of full models into the next global model; dead buffers feed
/// the next round's aggregation scratch.
fn merge_full(
    state: &mut State,
    snapshots: Vec<ParamVec>,
    weights: &[f64],
    aps: &[usize],
) -> Result<()> {
    let merged = aggregate(&snapshots, weights, aps, &mut state.ws)?;
    let old = std::mem::replace(&mut state.global, CowParams::new(merged));
    for dead in old.into_inner().into_iter().chain(snapshots) {
        state.ws.give(dead.into_values());
    }
    Ok(())
}

/// Fans `items` out over the config's client threads in contiguous
/// chunks, results in item order — the same partition the built-in
/// schemes use. Worker spans are adopted under the `core.fanout` span.
fn fan_out<T, F>(cfg: &gsfl_core::config::ExperimentConfig, items: usize, f: F) -> Result<Vec<T>>
where
    T: Send,
    F: Fn(usize) -> Result<T> + Sync,
{
    let fan = span("core.fanout");
    if items == 0 {
        return Ok(Vec::new());
    }
    let threads = cfg.client_threads.unwrap_or(1).clamp(1, items);
    if threads == 1 {
        return (0..items).map(&f).collect();
    }
    let round = spans::current_round();
    let chunks: Vec<(Vec<Result<T>>, Vec<spans::Span>)> = std::thread::scope(|scope| {
        let f = &f;
        let mut handles = Vec::with_capacity(threads);
        let mut start = 0;
        for t in 0..threads {
            let len = (items - start).div_ceil(threads - t);
            let range = start..start + len;
            handles.push(scope.spawn(move || {
                spans::set_context(round, t as u32 + 1);
                let out: Vec<Result<T>> = range.map(f).collect();
                (out, spans::take())
            }));
            start += len;
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("fan-out workers do not panic"))
            .collect()
    });
    let mut out = Vec::with_capacity(items);
    let mut first_error = None;
    for (results, worker_spans) in chunks {
        spans::adopt(worker_spans, fan.index());
        for result in results {
            match result {
                Ok(v) => out.push(v),
                Err(e) => {
                    first_error.get_or_insert(e);
                }
            }
        }
    }
    match first_error {
        Some(e) => Err(e),
        None => Ok(out),
    }
}

/// The DES task count `gsfl_round_recovered` builds for these groups:
/// per member a model download (plus the relay up from the member
/// before it) and five tasks per split step (forward, smashed up,
/// server, gradient down, backward); a crashed member runs only its
/// completed steps and a backup its own download and steps; a group's
/// last holder uploads; then one join barrier and the FedAvg task, plus
/// one backhaul task per AP that prices one.
pub fn des_tasks(
    ctx: &TrainContext,
    groups: &[Vec<usize>],
    steps: &[usize],
    recovery: &RecoveryPlan,
    round: u64,
) -> Result<u64> {
    let env = ctx.env.as_ref();
    let mut tasks = 0u64;
    let mut ends = Vec::new();
    for members in groups {
        // The member whose model the AP has yet to receive, and the last
        // slot whose update the group carries.
        let mut pending: Option<usize> = None;
        let mut last_alive: Option<usize> = None;
        for &c in members {
            if pending.take().is_some() {
                tasks += 1;
            }
            tasks += 1;
            match env.crash_point(c, round) {
                Some(f) => {
                    let done = ((f * steps[c] as f64) as usize).min(steps[c]);
                    tasks += 5 * done as u64;
                    if let Some(b) = recovery.backup_for(c) {
                        tasks += 1 + 5 * b.steps as u64;
                        pending = Some(b.client);
                        last_alive = Some(c);
                    }
                }
                None => {
                    tasks += 5 * steps[c] as u64;
                    pending = Some(c);
                    last_alive = Some(c);
                }
            }
        }
        if let Some(holder) = pending {
            tasks += 1;
            ends.push(env.ap_of(holder, round)?);
        } else if let Some(held) = last_alive {
            ends.push(env.ap_of(held, round)?);
        }
    }
    if !ends.is_empty() {
        ends.sort_unstable();
        ends.dedup();
        tasks += 2 + ends
            .iter()
            .filter(|&&ap| env.backhaul(ap).is_some())
            .count() as u64;
    }
    Ok(tasks)
}

fn make_opt(cfg: &gsfl_core::config::ExperimentConfig) -> Sgd {
    Sgd::new(cfg.learning_rate).with_momentum(cfg.momentum)
}

fn make_batcher(cfg: &gsfl_core::config::ExperimentConfig, client: usize) -> Result<Batcher> {
    Ok(Batcher::new(
        cfg.batch_size,
        SeedDerive::new(cfg.seed)
            .child("batches")
            .index(client as u64)
            .seed(),
    )?)
}

fn cut_channel(comp: &CompressionSpec) -> CutChannel {
    CutChannel::new(&comp.smashed, &comp.gradient, comp.error_feedback)
}

fn fetch(store: &BTreeMap<u64, Vec<f32>>, enabled: bool, key: u64) -> Option<Vec<f32>> {
    enabled.then(|| store.get(&key).cloned().unwrap_or_default())
}

fn feedback_key(members: Option<&[u64]>, recovery: &RoundRecovery, slot: usize) -> u64 {
    match members {
        Some(m) => recovery
            .member_overrides
            .get(&slot)
            .copied()
            .unwrap_or(m[slot]),
        None => recovery.trainee_for(slot) as u64,
    }
}

fn join_params(client: &ParamVec, server: &ParamVec) -> ParamVec {
    let mut v = Vec::with_capacity(client.len() + server.len());
    v.extend_from_slice(client.values());
    v.extend_from_slice(server.values());
    ParamVec::from_values(v)
}

/// A model codec applied as a delta against the round-start reference;
/// identity codecs skip everything.
struct ModelCodec {
    codec: Box<dyn Codec>,
    ws: Workspace,
    seeds: SeedDerive,
}

impl ModelCodec {
    fn new(spec: &CodecSpec, seed: u64) -> Self {
        ModelCodec {
            codec: spec.build(),
            ws: Workspace::new(),
            seeds: SeedDerive::new(seed).child("codec-model"),
        }
    }

    fn active(&self) -> bool {
        !self.codec.is_identity()
    }

    fn apply_vec(
        &mut self,
        params: &mut ParamVec,
        reference: &ParamVec,
        residual: Option<&mut Vec<f32>>,
        round: u64,
        client: usize,
    ) -> Result<()> {
        // The span covers the hook itself, so identity codecs show as
        // calls that return at once.
        let _s = span("nn.codec");
        if !self.active() {
            count_codec(4 * params.len() as u64, params.len());
            return Ok(());
        }
        let stream = self.seeds.index(round).index(client as u64).seed();
        let wire = encode_delta(
            self.codec.as_ref(),
            params,
            reference,
            residual,
            stream,
            &mut self.ws,
        )?;
        count_codec(wire, params.len());
        Ok(())
    }

    fn apply(
        &mut self,
        net: &mut Sequential,
        reference: &ParamVec,
        residual: Option<&mut Vec<f32>>,
        round: u64,
        client: usize,
    ) -> Result<()> {
        if !self.active() {
            return Ok(());
        }
        let mut params = {
            let _s = span("core.replica");
            ParamVec::from_network(net)
        };
        self.apply_vec(&mut params, reference, residual, round, client)?;
        let _s = span("core.replica");
        params.load_into(net)?;
        Ok(())
    }
}

fn count_codec(wire_bytes: u64, numel: usize) {
    let c = counts();
    Counts::add(&c.codec_calls, 1);
    Counts::add(&c.codec_wire_bytes, wire_bytes);
    Counts::add(&c.codec_raw_bytes, 4 * numel as u64);
}

/// FLOPs of one step over `rows` samples, from a per-batch profile.
fn step_flops(per_batch: u64, rows: usize, batch_size: usize) -> u64 {
    per_batch * rows as u64 / batch_size.max(1) as u64
}

/// One epoch of split training, as the built-in schemes run it, with a
/// span around every layer call.
#[allow(clippy::too_many_arguments)]
fn split_train_epoch(
    split: &mut SplitNetwork,
    client_opt: &mut Sgd,
    server_opt: &mut Sgd,
    shard: &ImageDataset,
    batcher: &Batcher,
    epoch: u64,
    channel: &mut CutChannel,
    client: usize,
    seed: u64,
    costs: &SplitCosts,
    batch_size: usize,
) -> Result<(f64, usize)> {
    let loss_fn = SoftmaxCrossEntropy::new();
    let streams = SeedDerive::new(seed).child("codec").index(client as u64);
    let up_streams = streams.child("up").index(epoch);
    let down_streams = streams.child("down").index(epoch);
    let per_batch = costs.client_fwd_flops + costs.client_bwd_flops + costs.server_flops;
    let mut loss_sum = 0.0f64;
    let mut steps = 0usize;
    let mut batches = {
        let _s = span("data.gather");
        batcher.epoch(shard, epoch)?
    };
    loop {
        let batch = {
            let _s = span("data.gather");
            batches.next()
        };
        let Some(batch) = batch else { break };
        {
            let _s = span("nn.optim");
            split.client.zero_grad();
            split.server.zero_grad();
        }
        let mut smashed = {
            let _s = span("nn.client_fwd");
            split.client.forward(&batch.images)?
        };
        {
            let _s = span("nn.codec");
            let wire = channel.encode_up(&mut smashed, up_streams.index(steps as u64).seed())?;
            count_codec(wire, smashed.data().len());
        }
        let logits = {
            let _s = span("nn.server_fwd");
            split.server.forward(&smashed)?
        };
        let out = {
            let _s = span("nn.loss");
            loss_fn.compute(&logits, &batch.labels)?
        };
        let mut grad_smashed = {
            let _s = span("nn.server_bwd");
            split.server.backward(&out.grad_logits)?
        };
        {
            let _s = span("nn.codec");
            let wire = channel.encode_down(
                &mut grad_smashed,
                client,
                down_streams.index(steps as u64).seed(),
            )?;
            count_codec(wire, grad_smashed.data().len());
        }
        {
            let _s = span("nn.client_bwd");
            split.client.backward_no_input_grad(&grad_smashed)?;
        }
        {
            let _s = span("nn.optim");
            server_opt.step(&mut split.server.params_mut())?;
            client_opt.step(&mut split.client.params_mut())?;
        }
        let c = counts();
        Counts::add(&c.batches, 1);
        Counts::add(&c.steps, 1);
        Counts::add(
            &c.flops,
            step_flops(per_batch, batch.labels.len(), batch_size),
        );
        split.client.recycle(smashed);
        split.server.recycle(logits);
        split.server.recycle(grad_smashed);
        split.server.recycle(out.grad_logits);
        batcher.recycle(batch);
        loss_sum += out.loss as f64;
        steps += 1;
    }
    Ok((loss_sum, steps))
}

/// One epoch of full-model training; the full model counts as `client`.
fn full_train_epoch(
    net: &mut Sequential,
    opt: &mut Sgd,
    shard: &ImageDataset,
    batcher: &Batcher,
    epoch: u64,
    full_flops: u64,
    batch_size: usize,
) -> Result<(f64, usize)> {
    let loss_fn = SoftmaxCrossEntropy::new();
    let mut loss_sum = 0.0f64;
    let mut steps = 0usize;
    let mut batches = {
        let _s = span("data.gather");
        batcher.epoch(shard, epoch)?
    };
    loop {
        let batch = {
            let _s = span("data.gather");
            batches.next()
        };
        let Some(batch) = batch else { break };
        {
            let _s = span("nn.optim");
            net.zero_grad();
        }
        let logits = {
            let _s = span("nn.client_fwd");
            net.forward(&batch.images)?
        };
        let out = {
            let _s = span("nn.loss");
            loss_fn.compute(&logits, &batch.labels)?
        };
        {
            let _s = span("nn.client_bwd");
            net.backward_no_input_grad(&out.grad_logits)?;
        }
        {
            let _s = span("nn.optim");
            opt.step(&mut net.params_mut())?;
        }
        let c = counts();
        Counts::add(&c.batches, 1);
        Counts::add(&c.steps, 1);
        Counts::add(
            &c.flops,
            step_flops(full_flops, batch.labels.len(), batch_size),
        );
        net.recycle(logits);
        net.recycle(out.grad_logits);
        batcher.recycle(batch);
        loss_sum += out.loss as f64;
        steps += 1;
    }
    Ok((loss_sum, steps))
}
