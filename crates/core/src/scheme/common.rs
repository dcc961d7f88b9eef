//! Shared training-loop machinery.

use super::RoundOutcome;
use crate::aggregate::aggregate_tree;
use crate::compression::CompressionSpec;
use crate::config::ExperimentConfig;
use crate::context::TrainContext;
use crate::latency::RoundLatency;
use crate::orchestrator::{PlanSelector, RoundPlan};
use crate::population::CowParams;
use crate::recovery::RoundRecovery;
use crate::results::{RoundRecord, RunResult};
use crate::Result;
use gsfl_data::batcher::Batcher;
use gsfl_data::dataset::ImageDataset;
use gsfl_nn::codec::{encode_delta, Codec, CodecSpec, CutChannel};
use gsfl_nn::loss::SoftmaxCrossEntropy;
use gsfl_nn::metrics::evaluate;
use gsfl_nn::optim::Sgd;
use gsfl_nn::params::ParamVec;
use gsfl_nn::split::SplitNetwork;
use gsfl_nn::Sequential;
use gsfl_tensor::rng::SeedDerive;
use gsfl_tensor::Workspace;
use std::time::Instant;

/// Unwraps a scheme's state, failing if [`crate::scheme::Scheme::init`]
/// has not run.
pub(crate) fn require_state<T>(state: &Option<T>) -> Result<&T> {
    state
        .as_ref()
        .ok_or_else(|| crate::CoreError::Config("scheme not initialized".into()))
}

/// Mutable [`require_state`].
pub(crate) fn require_state_mut<T>(state: &mut Option<T>) -> Result<&mut T> {
    state
        .as_mut()
        .ok_or_else(|| crate::CoreError::Config("scheme not initialized".into()))
}

/// Builds the per-scheme SGD optimizer from the config.
pub(crate) fn make_opt(cfg: &ExperimentConfig) -> Sgd {
    Sgd::new(cfg.learning_rate).with_momentum(cfg.momentum)
}

/// Builds the per-client batcher (deterministic, client-unique stream).
pub(crate) fn make_batcher(cfg: &ExperimentConfig, client: usize) -> Result<Batcher> {
    Ok(Batcher::new(
        cfg.batch_size,
        SeedDerive::new(cfg.seed)
            .child("batches")
            .index(client as u64)
            .seed(),
    )?)
}

/// A [`CutChannel`] bound to one client's deterministic codec streams:
/// streams depend only on (seed, client, epoch, step), never on thread
/// scheduling, so stochastic codecs keep runs byte-identical for any
/// thread count. The client id also addresses the channel's per-client
/// gradient error-feedback residual.
pub(crate) struct CutLink<'a> {
    pub(crate) channel: &'a mut CutChannel,
    pub(crate) client: usize,
    pub(crate) streams: SeedDerive,
}

impl<'a> CutLink<'a> {
    pub(crate) fn new(cfg: &ExperimentConfig, channel: &'a mut CutChannel, client: usize) -> Self {
        CutLink {
            channel,
            client,
            streams: SeedDerive::new(cfg.seed)
                .child("codec")
                .index(client as u64),
        }
    }
}

/// Applies a model codec to a network's parameters as a delta against
/// the round-start reference both endpoints hold — the lossy transcode a
/// model exchange (relay hop, upload) subjects the parameters to.
/// Identity codecs skip everything, including the snapshot.
pub(crate) struct ModelCodec {
    codec: Box<dyn Codec>,
    ws: Workspace,
    seeds: SeedDerive,
}

impl ModelCodec {
    pub(crate) fn new(spec: &CodecSpec, seed: u64) -> Self {
        ModelCodec {
            codec: spec.build(),
            ws: Workspace::new(),
            seeds: SeedDerive::new(seed).child("codec-model"),
        }
    }

    /// Whether the codec actually changes anything.
    pub(crate) fn active(&self) -> bool {
        !self.codec.is_identity()
    }

    /// Encodes a flat parameter snapshot through the wire container and
    /// decodes it back in place (delta vs `reference`). With `residual`
    /// supplied, the EF21 error-feedback accumulator rides along (see
    /// [`gsfl_nn::codec::encode_delta`]).
    pub(crate) fn apply(
        &mut self,
        params: &mut ParamVec,
        reference: &ParamVec,
        residual: Option<&mut Vec<f32>>,
        round: u64,
        client: usize,
    ) -> Result<()> {
        if !self.active() {
            return Ok(());
        }
        let stream = self.seeds.index(round).index(client as u64).seed();
        encode_delta(
            self.codec.as_ref(),
            params,
            reference,
            residual,
            stream,
            &mut self.ws,
        )?;
        Ok(())
    }
}

/// Per-client EF21 model-upload residuals, carried **across rounds** in
/// a scheme's state. Keys are [`feedback_key`]s: stable population
/// member ids in population mode (so a member's residual follows it
/// across cohort rotations), dense trainee ids otherwise.
///
/// The store is plain storage — whether a given round *uses* it is the
/// round's compression spec's call (`error_feedback`), so an
/// orchestrator may switch EF arms per round while residuals persist.
#[derive(Debug, Default)]
pub(crate) struct FeedbackStore {
    residuals: std::collections::BTreeMap<u64, Vec<f32>>,
}

impl FeedbackStore {
    /// The residual for `key`, cloned out so `Fn` worker closures can
    /// own it (`None` when this round runs without error feedback —
    /// callers then skip the write-back too).
    pub(crate) fn fetch(&self, enabled: bool, key: u64) -> Option<Vec<f32>> {
        if !enabled {
            return None;
        }
        Some(self.residuals.get(&key).cloned().unwrap_or_default())
    }

    /// Writes an updated residual back (serially, in aggregation
    /// order, so parallel rounds stay byte-identical to sequential).
    pub(crate) fn store(&mut self, key: u64, residual: Vec<f32>) {
        self.residuals.insert(key, residual);
    }
}

/// The [`FeedbackStore`] key for a cohort `slot` this round: the
/// population member occupying the slot (with the recovery plan's
/// backup substitutions applied), or the dense trainee's client id.
pub(crate) fn feedback_key(members: Option<&[u64]>, recovery: &RoundRecovery, slot: usize) -> u64 {
    match members {
        Some(m) => recovery
            .member_overrides
            .get(&slot)
            .copied()
            .unwrap_or(m[slot]),
        None => recovery.trainee_for(slot) as u64,
    }
}

/// The outcome of a round that missed its quorum: charged and recorded,
/// fed back to the planner, and nothing trains or aggregates — the
/// model state is left as it was.
pub(crate) fn quorum_missed(
    plans: &PlanSelector,
    round: u64,
    plan: &RoundPlan,
    mut latency: RoundLatency,
) -> RoundOutcome {
    latency.faults.quorum_met = false;
    plans.observe_outcome(round, plan, &latency);
    RoundOutcome {
        latency,
        train_loss: 0.0,
        aggregated: false,
    }
}

/// What one replica's training contributes to the round: loss and step
/// totals, the samples it trained on (its FedAvg weight), and updated
/// EF21 residuals as `(feedback key, residual)` in training order — the
/// caller writes those back serially, so parallel rounds stay
/// byte-identical to sequential ones.
#[derive(Debug, Default)]
pub(crate) struct Pass {
    pub(crate) loss_sum: f64,
    pub(crate) steps: usize,
    pub(crate) samples: usize,
    pub(crate) residuals: Vec<(u64, Vec<f32>)>,
}

/// One sequential split-learning chain — one GSFL group (SL's whole
/// round, or one SplitFed client): each member, in order, trains one
/// epoch of [`split_train_epoch`] on `split`, then its client half
/// crosses the wire (the relay hop to the next member, or the final
/// upload) through the round's client-model codec, as a delta against
/// the state the hop started from. `members` are `(trainee, feedback key)` pairs; codec
/// streams depend only on (seed, round, trainee), so chains on parallel
/// threads stay byte-identical. Returns the chain's [`Pass`] and the
/// client half as its last hop delivered it (also left in `split`).
#[allow(clippy::too_many_arguments)]
pub(crate) fn train_chain(
    ctx: &TrainContext,
    split: &mut SplitNetwork,
    client_opt: &mut Sgd,
    server_opt: &mut Sgd,
    members: &[(usize, u64)],
    shards: &[ImageDataset],
    codec: &CompressionSpec,
    feedback: &FeedbackStore,
    round: u64,
) -> Result<(Pass, ParamVec)> {
    let cfg = &ctx.config;
    let mut channel = CutChannel::new(&codec.smashed, &codec.gradient, codec.error_feedback);
    let mut model_codec = ModelCodec::new(&codec.client_model, cfg.seed);
    // The client half as the current hop started: the reference its
    // relay or upload is encoded against (identity codecs skip it).
    let mut hop_start = model_codec
        .active()
        .then(|| ParamVec::from_network(&split.client));
    let mut pass = Pass::default();
    for &(c, key) in members {
        let batcher = make_batcher(cfg, c)?;
        let (l, s) = split_train_epoch(
            split,
            client_opt,
            server_opt,
            &shards[c],
            &batcher,
            round,
            CutLink::new(cfg, &mut channel, c),
        )?;
        if let Some(reference) = hop_start.take() {
            let mut params = ParamVec::from_network(&split.client);
            let mut residual = feedback.fetch(codec.error_feedback, key);
            model_codec.apply(&mut params, &reference, residual.as_mut(), round, c)?;
            params.load_into(&mut split.client)?;
            pass.residuals.extend(residual.map(|r| (key, r)));
            hop_start = Some(params);
        }
        pass.loss_sum += l;
        pass.steps += s;
        pass.samples += shards[c].len();
    }
    let delivered = hop_start.unwrap_or_else(|| ParamVec::from_network(&split.client));
    Ok((pass, delivered))
}

/// A replica's upload to the AP: its full-model parameters as the AP
/// decoded them, the client that sent them (whose AP receives them), the
/// number of the round's slots whose work it carries (its chain's
/// members), and its training [`Pass`].
pub(crate) struct Upload {
    pub(crate) params: ParamVec,
    pub(crate) client: usize,
    pub(crate) slots: usize,
    pub(crate) pass: Pass,
}

/// Whether every value is finite.
pub(crate) fn all_finite(values: &[f32]) -> bool {
    values.iter().all(|v| v.is_finite())
}

/// Run state of the schemes whose replicas start each round from one
/// global model and FedAvg back into it: FedAvg itself and GSFL, whose
/// one chain (SL) and singleton groups (SplitFed) are the other split
/// schemes.
#[derive(Debug)]
pub(crate) struct FedAvgState {
    /// Architecture template; each replica loads `global` into a clone.
    template: Sequential,
    /// Current global full-model parameters, shared copy-on-write across
    /// the round's replicas.
    pub(crate) global: CowParams,
    /// This run's private plan-selection state (fresh per init, so
    /// learned state never leaks across sessions).
    pub(crate) plans: PlanSelector,
    pub(crate) steps: Vec<usize>,
    /// Recycled aggregation scratch: the `f64` accumulator.
    ws: Workspace,
    /// Per-client EF21 model-codec residuals, carried across rounds.
    pub(crate) feedback: FeedbackStore,
    /// Whether an aggregation has received no finite upload: the run
    /// has diverged.
    pub(crate) diverged: bool,
}

impl FedAvgState {
    pub(crate) fn new(ctx: &TrainContext) -> Result<Self> {
        let cfg = &ctx.config;
        let template = cfg
            .model
            .build(&ctx.sample_dims, cfg.dataset.classes, cfg.seed)?;
        Ok(FedAvgState {
            global: CowParams::new(ParamVec::from_network(&template)),
            template,
            plans: PlanSelector::from_config(cfg),
            steps: ctx.steps_per_client(),
            ws: Workspace::new(),
            feedback: FeedbackStore::default(),
            diverged: false,
        })
    }

    /// A fresh full-model replica holding the round-start global.
    pub(crate) fn replica(&self) -> Result<Sequential> {
        let mut net = self.template.clone();
        self.global.load_into(&mut net)?;
        Ok(net)
    }

    /// The aggregation tail: merges the uploads' full-model parameters
    /// into the next global by two-tier FedAvg over the AP topology,
    /// weighted by trained samples (bit-identical to flat FedAvg — see
    /// [`crate::aggregate`]), then writes the merged uploads' EF
    /// residuals back in upload order. FedAvg is element-wise, so
    /// merging joined split halves is bit-identical to merging each half
    /// on its own, and a lone upload (SL's chain) becomes the global
    /// exactly.
    ///
    /// An upload holding a non-finite parameter is left out of the merge
    /// and its slots count in the round's `lost_clients`; `quorum` then
    /// judges whether the remaining usable slots still clear the round's
    /// quorum. Detection costs one finiteness pass over the merged model:
    /// a FedAvg of finite uploads is finite, so the uploads are scanned
    /// only when that pass fails. A round that keeps no quorum leaves the
    /// global model as it was and records `quorum_met: false`; one with
    /// no finite upload at all also marks the run [`Self::diverged`].
    ///
    /// Returns the round's mean training loss and whether the uploads
    /// were merged.
    pub(crate) fn aggregate(
        &mut self,
        ctx: &TrainContext,
        uploads: Vec<Upload>,
        round: u64,
        quorum: impl Fn(usize) -> bool,
        latency: &mut RoundLatency,
    ) -> Result<(f64, bool)> {
        // Each upload's parameters, apart from its (AP, slots, pass).
        let mut snapshots = Vec::with_capacity(uploads.len());
        let mut carried = Vec::with_capacity(uploads.len());
        let mut loss_sum = 0.0f64;
        let mut step_sum = 0usize;
        for upload in uploads {
            loss_sum += upload.pass.loss_sum;
            step_sum += upload.pass.steps;
            let ap = ctx.env.ap_of(upload.client, round)?;
            carried.push((ap, upload.slots, upload.pass));
            snapshots.push(upload.params);
        }
        let train_loss = loss_sum / step_sum.max(1) as f64;
        let mut merged = self.merge(&snapshots, &carried)?;
        if !all_finite(merged.values()) {
            self.ws.give(merged.into_values());
            let slots = |c: &[Carried]| c.iter().map(|&(_, slots, _)| slots).sum::<usize>();
            let scheduled = slots(&carried);
            (snapshots, carried) = snapshots
                .into_iter()
                .zip(carried)
                .filter(|(params, _)| all_finite(params.values()))
                .unzip();
            let usable = slots(&carried);
            latency.faults.lost_clients += (scheduled - usable) as u32;
            self.diverged |= usable == 0;
            if !quorum(usable) {
                latency.faults.quorum_met = false;
                return Ok((train_loss, false));
            }
            merged = self.merge(&snapshots, &carried)?;
        }
        self.global.replace(merged);
        for (_, _, pass) in carried {
            for (key, residual) in pass.residuals {
                self.feedback.store(key, residual);
            }
        }
        Ok((train_loss, true))
    }

    /// Two-tier FedAvg of `snapshots` over their uploads' APs, weighted
    /// by trained samples.
    fn merge(&mut self, snapshots: &[ParamVec], carried: &[Carried]) -> Result<ParamVec> {
        let weights: Vec<f64> = carried
            .iter()
            .map(|(_, _, pass)| pass.samples as f64)
            .collect();
        let aps: Vec<usize> = carried.iter().map(|&(ap, ..)| ap).collect();
        Ok(aggregate_tree(snapshots, &weights, &aps, &mut self.ws)?.params)
    }
}

/// What an upload carries besides its parameters: the AP that receives
/// it, the slots whose work it holds, and its training [`Pass`].
type Carried = (usize, usize, Pass);

/// One epoch of split training over a shard: client forward → **uplink
/// codec** → server forward → loss → server backward → **downlink
/// codec** → client backward, stepping both optimizers each mini-batch.
/// The server trains on the *decoded* smashed data and the client on the
/// *decoded* gradient, so lossy codecs cost accuracy exactly where the
/// latency model saves airtime. Returns `(loss_sum, steps)`.
pub(crate) fn split_train_epoch(
    split: &mut SplitNetwork,
    client_opt: &mut Sgd,
    server_opt: &mut Sgd,
    shard: &ImageDataset,
    batcher: &Batcher,
    epoch: u64,
    link: CutLink<'_>,
) -> Result<(f64, usize)> {
    let loss_fn = SoftmaxCrossEntropy::new();
    let mut loss_sum = 0.0f64;
    let mut steps = 0usize;
    let up_streams = link.streams.child("up").index(epoch);
    let down_streams = link.streams.child("down").index(epoch);
    let client = link.client;
    let channel = link.channel;
    for batch in batcher.epoch(shard, epoch)? {
        split.client.zero_grad();
        split.server.zero_grad();
        let mut smashed = split.client.forward(&batch.images)?;
        channel.encode_up(&mut smashed, up_streams.index(steps as u64).seed())?;
        let logits = split.server.forward(&smashed)?;
        let out = loss_fn.compute(&logits, &batch.labels)?;
        let mut grad_smashed = split.server.backward(&out.grad_logits)?;
        channel.encode_down(
            &mut grad_smashed,
            client,
            down_streams.index(steps as u64).seed(),
        )?;
        split.client.backward_no_input_grad(&grad_smashed)?;
        server_opt.step(&mut split.server.params_mut())?;
        client_opt.step(&mut split.client.params_mut())?;
        // Hand dead activations/gradients back to the workspace that
        // produced them so the steady-state step allocates nothing.
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

/// One epoch of ordinary full-model training over a shard.
pub(crate) fn full_train_epoch(
    net: &mut Sequential,
    opt: &mut Sgd,
    shard: &ImageDataset,
    batcher: &Batcher,
    epoch: u64,
) -> Result<(f64, usize)> {
    let loss_fn = SoftmaxCrossEntropy::new();
    let mut loss_sum = 0.0f64;
    let mut steps = 0usize;
    for batch in batcher.epoch(shard, epoch)? {
        net.zero_grad();
        let logits = net.forward(&batch.images)?;
        let out = loss_fn.compute(&logits, &batch.labels)?;
        net.backward_no_input_grad(&out.grad_logits)?;
        opt.step(&mut net.params_mut())?;
        net.recycle(logits);
        net.recycle(out.grad_logits);
        batcher.recycle(batch);
        loss_sum += out.loss as f64;
        steps += 1;
    }
    Ok((loss_sum, steps))
}

/// Concatenates client-side and server-side parameter vectors into a
/// full-model vector (valid because `split_at` preserves parameter order).
pub(crate) fn join_params(client: &ParamVec, server: &ParamVec) -> ParamVec {
    let mut v = Vec::with_capacity(client.len() + server.len());
    v.extend_from_slice(client.values());
    v.extend_from_slice(server.values());
    ParamVec::from_values(v)
}

/// Whether `round` (1-based) is an evaluation round.
pub(crate) fn should_eval(cfg: &ExperimentConfig, round: usize) -> bool {
    round == 1 || round == cfg.rounds || round.is_multiple_of(cfg.eval_every)
}

/// Accumulates round records and produces the final [`RunResult`].
///
/// The wall clock starts at the first [`Recorder::round_started`] (or
/// first pushed record), not at construction, so context-build time in
/// callers that construct the recorder early never leaks into
/// `wall_clock_s`.
pub(crate) struct Recorder {
    scheme: &'static str,
    records: Vec<RoundRecord>,
    cumulative_s: f64,
    started: Option<Instant>,
}

impl Recorder {
    pub(crate) fn new(scheme: &'static str) -> Self {
        Recorder {
            scheme,
            records: Vec::new(),
            cumulative_s: 0.0,
            started: None,
        }
    }

    /// Marks the start of training work; the first call arms the wall
    /// clock.
    pub(crate) fn round_started(&mut self) {
        if self.started.is_none() {
            self.started = Some(Instant::now());
        }
    }

    /// Records one round.
    pub(crate) fn push(
        &mut self,
        round: usize,
        latency: RoundLatency,
        train_loss: f64,
        test_accuracy: Option<f64>,
    ) {
        self.round_started();
        self.cumulative_s += latency.duration.as_secs_f64();
        self.records.push(RoundRecord {
            round,
            round_latency_s: latency.duration.as_secs_f64(),
            cumulative_latency_s: self.cumulative_s,
            train_loss,
            test_accuracy,
            bytes_up: latency.bytes.up,
            bytes_down: latency.bytes.down,
            bytes_up_raw: latency.bytes.raw_up,
            bytes_down_raw: latency.bytes.raw_down,
            client_energy_j: latency.client_energy_j,
            retries: latency.faults.retries,
            wasted_airtime_bytes: latency.faults.wasted_airtime_bytes,
            lost_clients: latency.faults.lost_clients,
            backups_activated: latency.faults.backups_activated,
            quorum_met: latency.faults.quorum_met,
        });
    }

    /// The most recently recorded round.
    pub(crate) fn last_record(&self) -> Option<&RoundRecord> {
        self.records.last()
    }

    pub(crate) fn finish(self, server_storage_bytes: u64, param_count: usize) -> RunResult {
        RunResult {
            scheme: self.scheme.to_string(),
            records: self.records,
            server_storage_bytes,
            param_count,
            wall_clock_s: self
                .started
                .map(|t| t.elapsed().as_secs_f64())
                .unwrap_or(0.0),
        }
    }
}

/// Evaluates a full-model parameter vector on the test set.
pub(crate) fn eval_params(
    ctx: &TrainContext,
    template: &mut Sequential,
    params: &ParamVec,
) -> Result<f64> {
    params.load_into(template)?;
    let r = evaluate(
        template,
        ctx.test_set.images(),
        ctx.test_set.labels(),
        ctx.config.batch_size.max(32),
    )?;
    Ok(r.accuracy)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn join_params_concatenates() {
        let a = ParamVec::from_values(vec![1.0, 2.0]);
        let b = ParamVec::from_values(vec![3.0]);
        assert_eq!(join_params(&a, &b).values(), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn aggregation_pool_does_not_grow_with_rounds() {
        use crate::config::{DatasetConfig, ModelKind};
        let cfg = ExperimentConfig::builder()
            .clients(4)
            .groups(2)
            .dataset(DatasetConfig {
                classes: 2,
                samples_per_class: 4,
                test_per_class: 2,
                image_size: 8,
            })
            .model(ModelKind::Mlp { hidden: vec![4] })
            .build()
            .unwrap();
        let ctx = TrainContext::from_config(cfg).unwrap();
        let mut state = FedAvgState::new(&ctx).unwrap();
        for round in 1..=20u64 {
            let uploads = (0..4)
                .map(|client| Upload {
                    params: state.global.get().clone(),
                    client,
                    slots: 1,
                    pass: Pass {
                        samples: 1 + client,
                        ..Pass::default()
                    },
                })
                .collect();
            let mut latency = RoundLatency {
                duration: gsfl_wireless::units::Seconds::new(0.0),
                bytes: Default::default(),
                client_energy_j: 0.0,
                breakdown: Default::default(),
                faults: Default::default(),
            };
            state
                .aggregate(&ctx, uploads, round, |_| true, &mut latency)
                .unwrap();
            assert!(
                state.ws.pooled() <= 1,
                "round {round}: {} pooled buffers",
                state.ws.pooled()
            );
        }
    }

    #[test]
    fn eval_cadence() {
        let cfg = ExperimentConfig::builder()
            .clients(2)
            .groups(1)
            .rounds(10)
            .eval_every(3)
            .build()
            .unwrap();
        assert!(should_eval(&cfg, 1));
        assert!(!should_eval(&cfg, 2));
        assert!(should_eval(&cfg, 3));
        assert!(should_eval(&cfg, 9));
        assert!(should_eval(&cfg, 10)); // final round always
    }

    #[test]
    fn recorder_accumulates() {
        use crate::latency::{RoundBytes, RoundLatency};
        use gsfl_wireless::units::Seconds;
        let mut rec = Recorder::new("x");
        rec.push(
            1,
            RoundLatency {
                duration: Seconds::new(2.0),
                bytes: RoundBytes {
                    up: 5,
                    down: 7,
                    raw_up: 5,
                    raw_down: 7,
                },
                client_energy_j: 1.5,
                breakdown: Default::default(),
                faults: Default::default(),
            },
            1.0,
            None,
        );
        rec.push(
            2,
            RoundLatency {
                duration: Seconds::new(3.0),
                bytes: RoundBytes::default(),
                client_energy_j: 0.5,
                breakdown: Default::default(),
                faults: Default::default(),
            },
            0.5,
            Some(0.9),
        );
        let result = rec.finish(42, 7);
        assert_eq!(result.records.len(), 2);
        assert_eq!(result.records[1].cumulative_latency_s, 5.0);
        assert_eq!(result.server_storage_bytes, 42);
    }

    #[test]
    fn wall_clock_unarmed_until_first_round() {
        let rec = Recorder::new("x");
        std::thread::sleep(std::time::Duration::from_millis(5));
        let result = rec.finish(0, 0);
        assert_eq!(
            result.wall_clock_s, 0.0,
            "clock must not start at construction"
        );
    }
}
