//! Per-round planning: cut × bandwidth × codec × cohort.
//!
//! The paper fixes the split point once per experiment; the follow-up
//! literature picks it from observed channel and compute conditions,
//! and real deployments tune several coupled knobs at once: where to
//! cut, which codec to put on the wire, how to divide the band among
//! the round's participants, and how many clients to admit at all.
//! This module is the one place those decisions are made:
//!
//! * [`Orchestrator`] — the per-round decision trait. Implementations
//!   see a [`PlanQuery`] (live [`RoundConditions`], candidate cuts with
//!   pre-computed [`SplitCosts`], the codec menu, the participant list)
//!   and emit a [`RoundPlan`].
//! * [`StaticPlan`] — the baseline: configured cut, configured codec, no
//!   share or cohort overrides. Byte-identical to the pre-orchestrator
//!   code (the golden-fixture tests pin this).
//! * [`GreedyJoint`] — enumerates the cut × codec × share-mode product,
//!   estimates each combination's straggler-bound round latency from the
//!   live conditions, and picks the argmin. Also fills per-client cuts
//!   (via the same estimator, per client) for schemes that can exercise
//!   heterogeneous splits — SplitFed, where every client already owns a
//!   private server-side replica.
//! * [`BanditPlan`] — seeded ε-greedy over the same arm space, learning
//!   from *realized* [`crate::latency::RoundLatency`] durations fed back
//!   via [`Orchestrator::observe`] instead of trusting the estimator.
//!
//! Plans are applied by the schemes through [`PlanSelector`] (one per
//! scheme run — learned state never leaks across sessions). Every
//! emitted plan is feasibility-checked by [`validate_plan`]: the cut
//! must be a candidate, shares must be finite, non-negative and sum to
//! ≤ 1, per-client cuts must be candidates, and the cohort must fit the
//! round's participant count.
//!
//! Configs name planners in two ways. [`OrchestratorSpec`] searches the
//! joint space. [`CutPolicySpec`] runs the same greedy or bandit planner
//! restricted to the cut axis: the configured codec, the legacy share
//! split and no cohort cap. Any moving cut requires `momentum == 0`
//! (optimizer velocity is not remappable across cuts), and a config may
//! name at most one of the two — there is one planner per run.

use crate::compression::CompressionSpec;
use crate::latency::{ClientLinks, SplitCosts};
use gsfl_nn::codec::CodecSpec;
use gsfl_tensor::rng::SeedDerive;
use gsfl_wireless::environment::{ChannelModel, RoundConditions};
use gsfl_wireless::units::Hertz;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::Mutex;

/// One round's joint resource decision.
///
/// `None` in an optional field means "keep the legacy behavior" for that
/// knob — a plan of all-`None` fields with the configured cut and codec
/// reproduces the pre-orchestrator round byte-for-byte.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundPlan {
    /// The round's global cut layer (must be a candidate).
    pub cut: usize,
    /// Optional per-client cuts, indexed by client id (length = client
    /// count, every entry a candidate). Only SplitFed — GSFL over
    /// singleton groups, where each server-side replica serves one
    /// client — reads them; every other scheme trains at
    /// [`RoundPlan::cut`].
    pub client_cuts: Option<Vec<usize>>,
    /// Optional bandwidth shares, indexed by client id: each entry is
    /// the fraction of the round's total band that client transmits on
    /// (finite, ≥ 0, summing to ≤ 1; participants need > 0). `None`
    /// keeps the channel-mode default (dedicated `B/N` subchannels).
    pub shares: Option<Vec<f64>>,
    /// The codec every wire artifact uses this round.
    pub codec: CompressionSpec,
    /// Optional cohort cap: admit only the first `cohort` participants
    /// this round. `None` admits everyone available.
    pub cohort: Option<usize>,
}

/// Everything an [`Orchestrator`] may look at when planning a round.
pub struct PlanQuery<'a> {
    /// The round being decided (0-based environment round).
    pub round: u64,
    /// The configured cut — the fallback on estimator failure.
    pub default_cut: usize,
    /// Valid candidate cut indices, ascending.
    pub candidates: &'a [usize],
    /// Per-candidate cost profiles (wire fields under the *configured*
    /// codec; planners re-derive them per menu entry via
    /// [`SplitCosts::with_compression`]).
    pub costs: &'a BTreeMap<usize, SplitCosts>,
    /// The codec menu the planner may choose from (first entry = the
    /// configured spec).
    pub codec_menu: &'a [CompressionSpec],
    /// The environment snapshot for the round.
    pub conditions: &'a RoundConditions,
    /// The environment, which prices links over `conditions`.
    pub env: &'a dyn ChannelModel,
    /// Per-client step counts (index = client id; length = client count).
    pub steps: &'a [usize],
    /// The clients available this round, ascending.
    pub participants: &'a [usize],
}

/// Plans one round's joint resource allocation.
///
/// Implementations must be `Send + Sync` (contexts are shared across
/// scheme threads) and deterministic given their construction seed and
/// the observation sequence.
pub trait Orchestrator: std::fmt::Debug + Send + Sync {
    /// The plan for `q.round`. Must satisfy [`validate_plan`].
    fn plan(&self, q: &PlanQuery<'_>) -> RoundPlan;

    /// Realized-latency feedback after the round ran under `plan`.
    fn observe(&self, round: u64, plan: &RoundPlan, latency_s: f64) {
        let _ = (round, plan, latency_s);
    }
}

/// Checks a plan against the round's query: cut ∈ candidates, per-client
/// cuts ∈ candidates (length = client count), shares finite/non-negative
/// with positive entries for active participants and total ≤ 1, cohort
/// within `1..=participants`, codec parameters valid.
///
/// # Errors
///
/// Returns [`crate::CoreError::Config`] naming the violated constraint.
pub fn validate_plan(plan: &RoundPlan, q: &PlanQuery<'_>) -> crate::Result<()> {
    let err = |msg: String| Err(crate::CoreError::Config(msg));
    if !q.candidates.contains(&plan.cut) {
        return err(format!(
            "orchestrator chose cut {}, not among candidates {:?}",
            plan.cut, q.candidates
        ));
    }
    if let Some(cuts) = &plan.client_cuts {
        if cuts.len() != q.steps.len() {
            return err(format!(
                "client_cuts has {} entries for {} clients",
                cuts.len(),
                q.steps.len()
            ));
        }
        if let Some(bad) = cuts.iter().find(|c| !q.candidates.contains(c)) {
            return err(format!(
                "client cut {bad} not among candidates {:?}",
                q.candidates
            ));
        }
    }
    if let Some(shares) = &plan.shares {
        if shares.len() != q.steps.len() {
            return err(format!(
                "shares has {} entries for {} clients",
                shares.len(),
                q.steps.len()
            ));
        }
        if shares.iter().any(|s| !s.is_finite() || *s < 0.0) {
            return err("shares must be finite and ≥ 0".into());
        }
        let sum: f64 = shares.iter().sum();
        if sum > 1.0 + 1e-9 {
            return err(format!("shares sum to {sum}, exceeding the band"));
        }
        for &c in q.participants {
            if q.steps.get(c).copied().unwrap_or(0) > 0 && shares[c] <= 0.0 {
                return err(format!("participant {c} was allocated zero bandwidth"));
            }
        }
    }
    if let Some(k) = plan.cohort {
        if k == 0 || k > q.participants.len() {
            return err(format!(
                "cohort {k} outside 1..={} participants",
                q.participants.len()
            ));
        }
    }
    plan.codec.validate()?;
    Ok(())
}

/// The baseline plan: configured cut, configured codec (the menu's first
/// entry), no share/cohort/per-client overrides. Exists so the trait has
/// a reference implementation; [`PlanSelector`] short-circuits the
/// static path without building a query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StaticPlan;

impl Orchestrator for StaticPlan {
    fn plan(&self, q: &PlanQuery<'_>) -> RoundPlan {
        RoundPlan {
            cut: q.default_cut,
            client_cuts: None,
            shares: None,
            codec: q.codec_menu.first().cloned().unwrap_or_default(),
            cohort: None,
        }
    }
}

/// How a planner divides the band among the round's participants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ShareMode {
    /// The channel-mode default (dedicated `B/N` subchannels) — no
    /// override.
    Legacy,
    /// The band split equally among the round's *active* participants
    /// (beats `B/N` whenever churn benches part of the fleet).
    EqualParticipants,
    /// Shares proportional to each participant's estimated airtime at an
    /// equal-share probe — approximately equalizes transmit completion,
    /// shrinking the straggler under heterogeneous channels.
    DemandWeighted,
}

const SHARE_MODES: [ShareMode; 3] = [
    ShareMode::Legacy,
    ShareMode::EqualParticipants,
    ShareMode::DemandWeighted,
];

/// The knobs a planner searches: the joint cut × codec × share-mode
/// product, or the cut alone at the configured codec (the menu's first
/// entry) and the legacy share split. Both are prefixes of the joint
/// axes, so arm indices mean the same thing under either scope.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum Scope {
    #[default]
    Joint,
    CutOnly,
}

impl Scope {
    fn codecs<'a>(self, q: &PlanQuery<'a>) -> &'a [CompressionSpec] {
        match self {
            Scope::Joint => q.codec_menu,
            Scope::CutOnly => &q.codec_menu[..q.codec_menu.len().min(1)],
        }
    }

    fn modes(self) -> &'static [ShareMode] {
        match self {
            Scope::Joint => &SHARE_MODES,
            Scope::CutOnly => &SHARE_MODES[..1],
        }
    }
}

/// One planner arm: (cut, codec-menu index, share-mode index).
type Arm = (usize, usize, usize);

/// Clients that actually train this round: participants with steps.
fn active(q: &PlanQuery<'_>) -> Vec<usize> {
    q.participants
        .iter()
        .copied()
        .filter(|&c| q.steps.get(c).copied().unwrap_or(0) > 0)
        .collect()
}

/// The Hertz share client `c` transmits on under `shares` (legacy
/// dedicated share when `None`). `None` result = zero allocation.
fn share_for(q: &PlanQuery<'_>, shares: Option<&[f64]>, c: usize) -> Option<Hertz> {
    match shares {
        Some(f) => {
            let frac = f.get(c).copied().unwrap_or(0.0);
            (frac > 0.0).then(|| q.conditions.bandwidth.fraction(frac))
        }
        None => Some(q.conditions.dedicated_share()),
    }
}

/// Each of the `act` clients' links at `shares` (the legacy dedicated
/// share when `None`), in `act` order; `None` for a client with no
/// bandwidth or a link the environment cannot price. A rate depends only
/// on the share, so every arm and payload priced at one share vector
/// reads these.
fn links_at(
    q: &PlanQuery<'_>,
    act: &[usize],
    shares: Option<&[f64]>,
) -> Vec<(usize, Option<ClientLinks>)> {
    act.iter()
        .map(|&c| {
            let links = share_for(q, shares, c)
                .and_then(|share| ClientLinks::price(q.env, q.conditions, c, share, &[]).ok());
            (c, links)
        })
        .collect()
}

/// Estimated latency of a client's split chain over `l`: model download
/// plus `steps ×` (forward, smashed uplink, server pass, gradient
/// downlink, backward), at the candidate codec's wire sizes. Ignores
/// server slot contention and group structure — it is a deliberately
/// cheap estimator; [`BanditPlan`] learns what it misses.
fn chain_estimate(
    q: &PlanQuery<'_>,
    costs: &SplitCosts,
    steps: usize,
    l: &ClientLinks,
) -> Option<f64> {
    if steps == 0 {
        return Some(0.0);
    }
    let dl_model = l.down.time(costs.client_model_bytes).ok()?;
    let fwd = l.state.compute_time(costs.client_fwd_flops);
    let ul = l.up.time(costs.smashed_wire_bytes).ok()?;
    let srv = q.env.server_compute_at(l.state.ap, costs.server_flops);
    let dl = l.down.time(costs.grad_wire_bytes).ok()?;
    let bwd = l.state.compute_time(costs.client_bwd_flops);
    Some(dl_model.as_secs_f64() + steps as f64 * (fwd + ul + srv + dl + bwd).as_secs_f64())
}

/// Straggler-bound round estimate over the active participants' links
/// at one share vector (see [`links_at`]).
fn straggler_estimate(
    q: &PlanQuery<'_>,
    costs: &SplitCosts,
    links: &[(usize, Option<ClientLinks>)],
) -> Option<f64> {
    let mut worst = 0.0f64;
    for (c, l) in links {
        let steps = q.steps.get(*c).copied().unwrap_or(0);
        worst = worst.max(chain_estimate(q, costs, steps, l.as_ref()?)?);
    }
    Some(worst)
}

/// The band split equally among the `act` clients (indexed by client
/// id), or `None` when nobody is active.
fn equal_split(q: &PlanQuery<'_>, act: &[usize]) -> Option<Vec<f64>> {
    if act.is_empty() {
        return None;
    }
    let mut v = vec![0.0f64; q.steps.len()];
    let frac = 1.0 / act.len() as f64;
    for &c in act {
        v[c] = frac;
    }
    Some(v)
}

/// The share vector of `mode` (indexed by client id), or `None` for the
/// legacy default. `probe` holds the `act` clients' links at the equal
/// split ([`equal_split`]), which demand weighting prices airtime at.
fn mode_shares(
    q: &PlanQuery<'_>,
    act: &[usize],
    costs: &SplitCosts,
    mode: ShareMode,
    probe: &[(usize, Option<ClientLinks>)],
) -> Option<Option<Vec<f64>>> {
    if act.is_empty() {
        return Some(None);
    }
    match mode {
        ShareMode::Legacy => Some(None),
        ShareMode::EqualParticipants => Some(equal_split(q, act)),
        ShareMode::DemandWeighted => {
            // Airtime of each participant's round payload at an equal
            // probe share; shares proportional to it equalize completion.
            let mut airtime = vec![0.0f64; q.steps.len()];
            let mut sum = 0.0f64;
            for (c, l) in probe {
                let l = l.as_ref()?;
                let steps = q.steps[*c] as f64;
                let ul = l.up.time(costs.smashed_wire_bytes).ok()?;
                let dl = l.down.time(costs.grad_wire_bytes).ok()?;
                let model_dl = l.down.time(costs.client_model_bytes).ok()?;
                let model_ul = l.up.time(costs.client_model_wire_bytes).ok()?;
                let t = steps * (ul + dl).as_secs_f64() + (model_dl + model_ul).as_secs_f64();
                airtime[*c] = t;
                sum += t;
            }
            if sum <= 0.0 {
                return Some(None);
            }
            for v in &mut airtime {
                *v /= sum;
            }
            Some(Some(airtime))
        }
    }
}

/// The estimated-latency improvement a challenger arm must show over the
/// incumbent before [`GreedyJoint`] switches: churn damping, because a
/// marginal estimate win rarely survives estimation error, while every
/// cut/codec switch perturbs the training trajectory (re-splits the
/// model, changes quantization noise).
const SWITCH_MARGIN: f64 = 0.1;

/// Enumerates cut × codec × share mode, estimates each combination's
/// straggler-bound latency from the live conditions, and emits the
/// argmin — plus per-client cuts (the per-client argmin at the chosen
/// codec and shares) for schemes that can split heterogeneously.
///
/// Decisions carry hysteresis: once an arm is chosen, a challenger must
/// beat its *current-round* estimate by a 10% margin to displace
/// it. Shares are still recomputed from the live conditions every round
/// — only the discrete (cut, codec, mode) choice is damped.
///
/// The cut-only variant ([`CutPolicySpec::Greedy`]) searches the cut
/// alone, at the configured codec and legacy shares.
#[derive(Debug, Default)]
pub struct GreedyJoint {
    /// The committed (cut, codec-menu index, share-mode index) arm.
    incumbent: Mutex<Option<Arm>>,
    scope: Scope,
}

impl GreedyJoint {
    /// A fresh planner with no committed arm.
    pub fn new() -> Self {
        GreedyJoint::default()
    }
}

impl Orchestrator for GreedyJoint {
    fn plan(&self, q: &PlanQuery<'_>) -> RoundPlan {
        let fallback = || StaticPlan.plan(q);
        let held = *self.incumbent.lock().expect("greedy state lock");
        let act = active(q);
        // The legacy and equal share vectors are the same for every arm;
        // demand weighting prices its airtime at the equal split.
        let legacy = links_at(q, &act, None);
        let equal = links_at(q, &act, equal_split(q, &act).as_deref());
        let mut best: Option<(f64, Arm, RoundPlan)> = None;
        let mut held_now: Option<(f64, RoundPlan)> = None;
        for &cut in q.candidates {
            let Some(base) = q.costs.get(&cut) else {
                continue;
            };
            for (ki, codec) in self.scope.codecs(q).iter().enumerate() {
                let costs = base.with_compression(codec);
                for (mi, mode) in self.scope.modes().iter().enumerate() {
                    let Some(shares) = mode_shares(q, &act, &costs, *mode, &equal) else {
                        continue;
                    };
                    let weighted;
                    let links = match (mode, &shares) {
                        (_, None) => &legacy,
                        (ShareMode::EqualParticipants, Some(_)) => &equal,
                        (_, Some(s)) => {
                            weighted = links_at(q, &act, Some(s));
                            &weighted
                        }
                    };
                    let Some(est) = straggler_estimate(q, &costs, links) else {
                        continue;
                    };
                    let plan = RoundPlan {
                        cut,
                        client_cuts: None,
                        shares,
                        codec: *codec,
                        cohort: None,
                    };
                    if held == Some((cut, ki, mi)) {
                        held_now = Some((est, plan.clone()));
                    }
                    if best.as_ref().is_none_or(|(b, _, _)| est < *b) {
                        best = Some((est, (cut, ki, mi), plan));
                    }
                }
            }
        }
        let Some((best_est, best_arm, best_plan)) = best else {
            return fallback();
        };
        // Keep the incumbent unless the challenger clears the margin on
        // this round's conditions.
        let (arm, mut plan) = match held_now {
            Some((held_est, held_plan)) if best_est >= held_est * (1.0 - SWITCH_MARGIN) => {
                (held.expect("held_now implies held"), held_plan)
            }
            _ => (best_arm, best_plan),
        };
        *self.incumbent.lock().expect("greedy state lock") = Some(arm);
        // Per-client refinement at the chosen codec and shares: each
        // active client's own-chain argmin. SplitFed (private
        // server-side replicas) honors these; everything else trains at
        // the global cut.
        let cut_costs: Vec<(usize, SplitCosts)> = q
            .candidates
            .iter()
            .filter_map(|&cut| Some((cut, q.costs.get(&cut)?.with_compression(&plan.codec))))
            .collect();
        let mut client_cuts = vec![plan.cut; q.steps.len()];
        for (c, l) in links_at(q, &act, plan.shares.as_deref()) {
            let Some(l) = l else {
                continue;
            };
            let steps = q.steps.get(c).copied().unwrap_or(0);
            let mut best_cut = plan.cut;
            let mut best_est = f64::INFINITY;
            for (cut, costs) in &cut_costs {
                if let Some(est) = chain_estimate(q, costs, steps, &l) {
                    if est < best_est {
                        best_cut = *cut;
                        best_est = est;
                    }
                }
            }
            client_cuts[c] = best_cut;
        }
        plan.client_cuts = Some(client_cuts);
        plan
    }
}

/// ε-greedy bandit over realized round latencies on the cut × codec ×
/// share-mode arm space: explore a uniform random arm with probability ε
/// (deterministic per round given the seed), otherwise exploit the
/// lowest observed mean. Untried arms are explored first, in ascending
/// (cut, codec, mode) order. Emits no per-client cuts — it learns the
/// joint arm, not per-client structure.
///
/// The cut-only variant ([`CutPolicySpec::Bandit`]) plays one arm per
/// candidate cut, at the configured codec and legacy shares.
#[derive(Debug)]
pub struct BanditPlan {
    epsilon: f64,
    seeds: SeedDerive,
    /// arm → (observations, mean realized latency).
    arms: Mutex<BTreeMap<Arm, (u64, f64)>>,
    /// round → the arm played, pending its observation.
    pending: Mutex<BTreeMap<u64, Arm>>,
    scope: Scope,
}

impl BanditPlan {
    /// A fresh bandit; `epsilon` is the exploration probability and
    /// `seed` makes the exploration schedule reproducible.
    pub fn new(epsilon: f64, seed: u64) -> Self {
        BanditPlan::scoped(epsilon, seed, Scope::Joint)
    }

    fn scoped(epsilon: f64, seed: u64, scope: Scope) -> Self {
        BanditPlan {
            epsilon,
            seeds: SeedDerive::new(seed).child("orchestrator-bandit"),
            arms: Mutex::new(BTreeMap::new()),
            pending: Mutex::new(BTreeMap::new()),
            scope,
        }
    }

    fn arm_space(&self, q: &PlanQuery<'_>) -> Vec<Arm> {
        let mut v = Vec::new();
        for &cut in q.candidates {
            for ci in 0..self.scope.codecs(q).len() {
                for mi in 0..self.scope.modes().len() {
                    v.push((cut, ci, mi));
                }
            }
        }
        v
    }

    fn plan_of(q: &PlanQuery<'_>, arm: Arm) -> Option<RoundPlan> {
        let (cut, ci, mi) = arm;
        let codec = *q.codec_menu.get(ci)?;
        let costs = q.costs.get(&cut)?.with_compression(&codec);
        let mode = SHARE_MODES[mi];
        let act = active(q);
        let probe = if mode == ShareMode::DemandWeighted {
            links_at(q, &act, equal_split(q, &act).as_deref())
        } else {
            Vec::new()
        };
        let shares = mode_shares(q, &act, &costs, mode, &probe)?;
        Some(RoundPlan {
            cut,
            client_cuts: None,
            shares,
            codec,
            cohort: None,
        })
    }
}

impl Orchestrator for BanditPlan {
    fn plan(&self, q: &PlanQuery<'_>) -> RoundPlan {
        let space = self.arm_space(q);
        if space.is_empty() {
            return StaticPlan.plan(q);
        }
        let arm = {
            let arms = self.arms.lock().expect("bandit lock poisoned");
            if let Some(&arm) = space.iter().find(|a| !arms.contains_key(a)) {
                arm
            } else {
                let mut rng = self.seeds.index(q.round).rng();
                if rng.gen::<f64>() < self.epsilon {
                    space[rng.gen_range(0..space.len())]
                } else {
                    space
                        .iter()
                        .copied()
                        .min_by(|a, b| {
                            let ma = arms.get(a).map(|&(_, m)| m).unwrap_or(f64::INFINITY);
                            let mb = arms.get(b).map(|&(_, m)| m).unwrap_or(f64::INFINITY);
                            ma.partial_cmp(&mb).expect("latencies are finite")
                        })
                        .expect("space is non-empty")
                }
            }
        };
        let Some(plan) = BanditPlan::plan_of(q, arm) else {
            return StaticPlan.plan(q);
        };
        self.pending
            .lock()
            .expect("bandit lock poisoned")
            .insert(q.round, arm);
        plan
    }

    fn observe(&self, round: u64, _plan: &RoundPlan, latency_s: f64) {
        let Some(arm) = self
            .pending
            .lock()
            .expect("bandit lock poisoned")
            .remove(&round)
        else {
            return;
        };
        let mut arms = self.arms.lock().expect("bandit lock poisoned");
        let (n, mean) = arms.entry(arm).or_insert((0, 0.0));
        *n += 1;
        *mean += (latency_s - *mean) / *n as f64;
    }
}

/// Serde-loadable orchestrator names for experiment configs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub enum OrchestratorSpec {
    /// The configured cut, codec and channel mode every round (the
    /// paper's behavior) — default.
    #[default]
    Static,
    /// Greedy joint estimate over cut × codec × shares ([`GreedyJoint`]).
    Greedy,
    /// ε-greedy bandit over realized latencies ([`BanditPlan`]).
    Bandit {
        /// Exploration probability in `[0, 1]`.
        epsilon: f64,
    },
}

impl OrchestratorSpec {
    /// Whether this is the static (non-planning) orchestrator.
    pub fn is_static(&self) -> bool {
        matches!(self, OrchestratorSpec::Static)
    }

    /// Builds the planner, or `None` for the static path; `seed` drives
    /// any stochastic exploration.
    pub fn orchestrator(&self, seed: u64) -> Option<Box<dyn Orchestrator>> {
        match *self {
            OrchestratorSpec::Static => None,
            OrchestratorSpec::Greedy => Some(Box::new(GreedyJoint::new())),
            OrchestratorSpec::Bandit { epsilon } => Some(Box::new(BanditPlan::new(epsilon, seed))),
        }
    }
}

/// Serde-loadable cut-policy names for experiment configs: the
/// orchestrator's planners restricted to the cut axis.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub enum CutPolicySpec {
    /// The configured cut every round (the paper's behavior) — default.
    #[default]
    Fixed,
    /// [`GreedyJoint`] over the cut alone.
    Greedy,
    /// [`BanditPlan`] over the cut alone.
    Bandit {
        /// Exploration probability in `[0, 1]`.
        epsilon: f64,
    },
}

impl CutPolicySpec {
    /// Whether this is the fixed (non-adaptive) policy.
    pub fn is_fixed(&self) -> bool {
        matches!(self, CutPolicySpec::Fixed)
    }

    /// Builds the cut-only planner, or `None` for the fixed path; `seed`
    /// drives any stochastic exploration.
    pub fn policy(&self, seed: u64) -> Option<Box<dyn Orchestrator>> {
        match *self {
            CutPolicySpec::Fixed => None,
            CutPolicySpec::Greedy => Some(Box::new(GreedyJoint {
                scope: Scope::CutOnly,
                ..GreedyJoint::default()
            })),
            CutPolicySpec::Bandit { epsilon } => {
                Some(Box::new(BanditPlan::scoped(epsilon, seed, Scope::CutOnly)))
            }
        }
    }
}

/// The codec menu a planner may choose from: the configured spec first,
/// then the near-lossless compressive options (uniform fp16 and int8
/// quantization) and an aggressive error-feedback arm (int8 at the cut
/// boundary, sparse TopK model deltas with EF21 residuals — the
/// feedback is what keeps this arm convergent), deduplicated.
pub fn codec_menu(base: &CompressionSpec) -> Vec<CompressionSpec> {
    let mut menu = vec![*base];
    let ef_arm = CompressionSpec {
        smashed: CodecSpec::IntQ { bits: 8 },
        gradient: CodecSpec::IntQ { bits: 8 },
        client_model: CodecSpec::TopK { frac: 0.05 },
        full_model: CodecSpec::TopK { frac: 0.05 },
        error_feedback: true,
    };
    for spec in [
        CompressionSpec::uniform(CodecSpec::Fp16),
        CompressionSpec::uniform(CodecSpec::IntQ { bits: 8 }),
        ef_arm,
    ] {
        if !menu.contains(&spec) {
            menu.push(spec);
        }
    }
    menu
}

/// Per-run plan-selection state: the run's one planner (a joint
/// orchestrator or a cut-only policy), or none on the static path.
/// Built in each scheme's [`crate::scheme::Scheme::init`], **not** in
/// the shared context — learning planners accumulate observations, and
/// sharing that state would break run independence and determinism.
#[derive(Debug)]
pub struct PlanSelector {
    planner: Option<Box<dyn Orchestrator>>,
    base_codec: CompressionSpec,
}

impl PlanSelector {
    /// A fresh selector for one scheme run, from the config's
    /// orchestrator or cut-policy spec (seeded by the experiment seed;
    /// config validation admits at most one of the two).
    pub fn from_config(config: &crate::config::ExperimentConfig) -> Self {
        PlanSelector {
            planner: config
                .orchestrator
                .orchestrator(config.seed)
                .or_else(|| config.cut_policy.policy(config.seed)),
            base_codec: config.compression,
        }
    }

    /// Resolves the round's plan and the cost profile of its chosen cut
    /// under its chosen codec. The static path short-circuits to the
    /// configured cut, codec and cached costs without querying the
    /// environment — byte-identical to the pre-orchestrator behavior;
    /// planners consult the round's conditions and are
    /// feasibility-checked.
    ///
    /// # Errors
    ///
    /// Propagates environment query errors; fails if the planner emits
    /// an infeasible plan ([`validate_plan`]).
    pub fn plan_for_round(
        &self,
        ctx: &crate::context::TrainContext,
        round: u64,
    ) -> crate::Result<(RoundPlan, SplitCosts)> {
        let Some(planner) = &self.planner else {
            return Ok((
                RoundPlan {
                    cut: ctx.config.cut(),
                    client_cuts: None,
                    shares: None,
                    codec: self.base_codec,
                    cohort: None,
                },
                ctx.costs,
            ));
        };
        let conditions = ctx.conditions(round)?;
        let steps = ctx.steps_per_client();
        let participants = ctx.available_clients(round);
        let q = PlanQuery {
            round,
            default_cut: ctx.config.cut(),
            candidates: &ctx.cut_candidates,
            costs: &ctx.costs_by_cut,
            codec_menu: &ctx.codec_menu,
            conditions: &conditions,
            env: ctx.env.as_ref(),
            steps: &steps,
            participants: &participants,
        };
        let plan = planner.plan(&q);
        validate_plan(&plan, &q)?;
        let costs = ctx
            .costs_by_cut
            .get(&plan.cut)
            .copied()
            .ok_or_else(|| {
                crate::CoreError::Config(format!(
                    "orchestrator chose cut {}, not among candidates {:?}",
                    plan.cut, ctx.cut_candidates
                ))
            })?
            .with_compression(&plan.codec);
        Ok((plan, costs))
    }

    /// Feeds a round's realized latency back to the planner (a no-op on
    /// the static path).
    pub fn observe(&self, round: u64, plan: &RoundPlan, latency_s: f64) {
        if let Some(planner) = &self.planner {
            planner.observe(round, plan, latency_s);
        }
    }

    /// Feeds a round's full realized *outcome* — latency plus fault
    /// accounting — back to the planner. Failures inflate the effective
    /// latency the bandit learns from, so arms whose aggressive cohorts
    /// or codecs keep losing clients (or missing quorum outright) look
    /// expensive and are avoided. A clean round is exactly
    /// [`PlanSelector::observe`].
    pub fn observe_outcome(
        &self,
        round: u64,
        plan: &RoundPlan,
        latency: &crate::latency::RoundLatency,
    ) {
        let f = &latency.faults;
        let mut effective = latency.duration.as_secs_f64();
        // Each client lost mid-round wasted its slice of the cohort's
        // work; a missed quorum wasted the whole round (global model
        // unchanged) and then some.
        effective *= 1.0 + 0.25 * f64::from(f.lost_clients);
        if !f.quorum_met {
            effective *= 4.0;
        }
        self.observe(round, plan, effective);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsfl_nn::model::Mlp;
    use gsfl_wireless::environment::RadioEnvironment;
    use gsfl_wireless::latency::LatencyModel;

    struct Fixture {
        env: RadioEnvironment,
        costs: BTreeMap<usize, SplitCosts>,
        candidates: Vec<usize>,
        menu: Vec<CompressionSpec>,
        steps: Vec<usize>,
        participants: Vec<usize>,
    }

    fn fixture() -> Fixture {
        let env = RadioEnvironment::builder(
            LatencyModel::builder()
                .clients(3)
                .seed(4)
                .fading(false)
                .build()
                .unwrap(),
        )
        .build()
        .unwrap();
        let net = Mlp::new(48, &[32, 32], 5, 0).into_sequential();
        let candidates: Vec<usize> = (1..net.depth()).collect();
        let costs = candidates
            .iter()
            .map(|&cut| (cut, SplitCosts::compute(&net, cut, &[48], 8).unwrap()))
            .collect();
        Fixture {
            env,
            costs,
            candidates,
            menu: codec_menu(&CompressionSpec::default()),
            steps: vec![2, 2, 2],
            participants: vec![0, 1, 2],
        }
    }

    fn query<'a>(f: &'a Fixture, cond: &'a RoundConditions) -> PlanQuery<'a> {
        PlanQuery {
            round: cond.round,
            default_cut: f.candidates[0],
            candidates: &f.candidates,
            costs: &f.costs,
            codec_menu: &f.menu,
            conditions: cond,
            env: &f.env,
            steps: &f.steps,
            participants: &f.participants,
        }
    }

    #[test]
    fn static_plan_is_the_identity_decision() {
        let f = fixture();
        let cond = f.env.conditions(0).unwrap();
        let q = query(&f, &cond);
        let plan = StaticPlan.plan(&q);
        assert_eq!(plan.cut, q.default_cut);
        assert!(plan.client_cuts.is_none());
        assert!(plan.shares.is_none());
        assert!(plan.cohort.is_none());
        assert_eq!(plan.codec, f.menu[0]);
        validate_plan(&plan, &q).unwrap();
    }

    #[test]
    fn greedy_emits_feasible_deterministic_plans() {
        let f = fixture();
        for round in 0..4 {
            let cond = f.env.conditions(round).unwrap();
            let q = query(&f, &cond);
            let greedy = GreedyJoint::new();
            let a = greedy.plan(&q);
            let b = greedy.plan(&q);
            assert_eq!(a, b, "round {round}");
            validate_plan(&a, &q).unwrap();
            let cuts = a.client_cuts.as_ref().expect("greedy fills client cuts");
            assert!(cuts.iter().all(|c| f.candidates.contains(c)));
        }
    }

    #[test]
    fn greedy_estimate_never_worse_than_static() {
        // The static decision is inside greedy's search space (legacy
        // shares, menu[0] codec, default cut is a candidate), so the
        // chosen estimate is ≤ the static estimate.
        let f = fixture();
        let cond = f.env.conditions(2).unwrap();
        let q = query(&f, &cond);
        let plan = GreedyJoint::new().plan(&q);
        let act = active(&q);
        let chosen_costs = f.costs[&plan.cut].with_compression(&plan.codec);
        let chosen_links = links_at(&q, &act, plan.shares.as_deref());
        let chosen = straggler_estimate(&q, &chosen_costs, &chosen_links).unwrap();
        let static_costs = f.costs[&q.default_cut];
        let baseline = straggler_estimate(&q, &static_costs, &links_at(&q, &act, None)).unwrap();
        assert!(chosen <= baseline + 1e-12, "{chosen} vs {baseline}");
    }

    #[test]
    fn bandit_explores_arms_then_exploits() {
        let f = fixture();
        let bandit = BanditPlan::new(0.0, 7);
        let space = {
            let cond = f.env.conditions(0).unwrap();
            bandit.arm_space(&query(&f, &cond))
        };
        // Every arm is tried once, in order.
        for (i, &expect) in space.iter().enumerate() {
            let cond = f.env.conditions(i as u64).unwrap();
            let q = query(&f, &cond);
            let plan = bandit.plan(&q);
            validate_plan(&plan, &q).unwrap();
            assert_eq!(plan.cut, expect.0, "arm {i}");
            // Penalize later arms so the first arm wins exploitation.
            bandit.observe(i as u64, &plan, 1.0 + i as f64);
        }
        let round = space.len() as u64;
        let cond = f.env.conditions(round).unwrap();
        let q = query(&f, &cond);
        let plan = bandit.plan(&q);
        assert_eq!((plan.cut, 0usize), (space[0].0, 0), "exploits best arm");
        assert_eq!(plan.codec, f.menu[space[0].1]);
    }

    #[test]
    fn bandit_schedule_is_seed_deterministic() {
        let f = fixture();
        // Enough rounds to get past the deterministic try-every-arm
        // phase (cuts × menu × modes) into stochastic exploration.
        let run = |seed: u64| -> Vec<usize> {
            let bandit = BanditPlan::new(0.5, seed);
            (0..80u64)
                .map(|r| {
                    let cond = f.env.conditions(r).unwrap();
                    let q = query(&f, &cond);
                    let plan = bandit.plan(&q);
                    bandit.observe(r, &plan, 1.0 + plan.cut as f64);
                    plan.cut
                })
                .collect()
        };
        assert_eq!(run(3), run(3));
        assert_ne!(run(3), run(4), "different seeds explore differently");
    }

    #[test]
    fn cut_only_plans_hold_the_configured_codec_and_shares() {
        let f = fixture();
        assert!(CutPolicySpec::Fixed.policy(1).is_none());
        for spec in [
            CutPolicySpec::Greedy,
            CutPolicySpec::Bandit { epsilon: 0.5 },
        ] {
            let planner = spec.policy(1).expect("adaptive policies plan");
            for round in 0..12 {
                let cond = f.env.conditions(round).unwrap();
                let q = query(&f, &cond);
                let plan = planner.plan(&q);
                validate_plan(&plan, &q).unwrap();
                assert_eq!(plan.shares, None, "{spec:?} round {round}");
                assert_eq!(plan.cohort, None, "{spec:?} round {round}");
                assert_eq!(plan.codec, f.menu[0], "{spec:?} round {round}");
                planner.observe(round, &plan, 1.0 + plan.cut as f64);
            }
        }
    }

    #[test]
    fn fresh_cut_only_greedy_minimizes_round_and_per_client_estimates() {
        let mut f = fixture();
        // Client 2 trains far more than the others, so its own argmin
        // need not be the round's.
        f.steps = vec![1, 1, 9];
        let cond = f.env.conditions(1).unwrap();
        let q = query(&f, &cond);
        let plan = CutPolicySpec::Greedy.policy(0).unwrap().plan(&q);
        let costs = |cut: usize| f.costs[&cut].with_compression(&f.menu[0]);
        let links = links_at(&q, &active(&q), None);
        let round_est = |cut| straggler_estimate(&q, &costs(cut), &links).unwrap();
        for &cut in &f.candidates {
            assert!(round_est(plan.cut) <= round_est(cut) + 1e-12, "cut {cut}");
        }
        let client_cuts = plan.client_cuts.expect("greedy refines per client");
        for (c, &chosen) in client_cuts.iter().enumerate() {
            let l = links[c].1.expect("every client has a link");
            let own_est = |cut| chain_estimate(&q, &costs(cut), f.steps[c], &l).unwrap();
            for &cut in &f.candidates {
                assert!(
                    own_est(chosen) <= own_est(cut) + 1e-12,
                    "client {c} cut {cut}"
                );
            }
        }
    }

    #[test]
    fn cut_only_bandit_tries_cuts_in_order_then_exploits() {
        let f = fixture();
        let bandit = CutPolicySpec::Bandit { epsilon: 0.0 }.policy(7).unwrap();
        // One arm per candidate cut, tried in ascending order.
        for (i, &expect) in f.candidates.iter().enumerate() {
            let cond = f.env.conditions(i as u64).unwrap();
            let plan = bandit.plan(&query(&f, &cond));
            assert_eq!(plan.cut, expect, "round {i}");
            assert!(plan.client_cuts.is_none(), "the bandit learns one cut");
            // Deeper cuts look slower, so the shallowest wins.
            bandit.observe(i as u64, &plan, expect as f64);
        }
        let cond = f.env.conditions(f.candidates.len() as u64).unwrap();
        assert_eq!(bandit.plan(&query(&f, &cond)).cut, f.candidates[0]);

        let run = |seed: u64| -> Vec<usize> {
            let bandit = CutPolicySpec::Bandit { epsilon: 0.5 }.policy(seed).unwrap();
            (0..20u64)
                .map(|r| {
                    let cond = f.env.conditions(r).unwrap();
                    let plan = bandit.plan(&query(&f, &cond));
                    bandit.observe(r, &plan, 1.0 + plan.cut as f64);
                    plan.cut
                })
                .collect()
        };
        assert_eq!(run(3), run(3));
        assert_ne!(run(3), run(4), "different seeds explore differently");
    }

    #[test]
    fn validate_plan_rejects_each_violation() {
        let f = fixture();
        let cond = f.env.conditions(0).unwrap();
        let q = query(&f, &cond);
        let ok = StaticPlan.plan(&q);
        validate_plan(&ok, &q).unwrap();
        let mut bad = ok.clone();
        bad.cut = 99;
        assert!(validate_plan(&bad, &q).is_err());
        let mut bad = ok.clone();
        bad.client_cuts = Some(vec![99; 3]);
        assert!(validate_plan(&bad, &q).is_err());
        let mut bad = ok.clone();
        bad.client_cuts = Some(vec![f.candidates[0]; 2]);
        assert!(validate_plan(&bad, &q).is_err(), "wrong length");
        let mut bad = ok.clone();
        bad.shares = Some(vec![0.5, 0.5, 0.5]);
        assert!(validate_plan(&bad, &q).is_err(), "oversubscribed band");
        let mut bad = ok.clone();
        bad.shares = Some(vec![0.9, 0.1, 0.0]);
        assert!(validate_plan(&bad, &q).is_err(), "starved participant");
        let mut bad = ok.clone();
        bad.shares = Some(vec![f64::NAN, 0.1, 0.1]);
        assert!(validate_plan(&bad, &q).is_err());
        let mut bad = ok.clone();
        bad.cohort = Some(0);
        assert!(validate_plan(&bad, &q).is_err());
        let mut bad = ok;
        bad.cohort = Some(99);
        assert!(validate_plan(&bad, &q).is_err());
    }

    #[test]
    fn spec_builds_every_orchestrator() {
        assert!(OrchestratorSpec::Static.is_static());
        assert!(!OrchestratorSpec::Greedy.is_static());
        assert!(OrchestratorSpec::Static.orchestrator(0).is_none());
        assert!(OrchestratorSpec::Greedy.orchestrator(0).is_some());
        assert!(OrchestratorSpec::Bandit { epsilon: 0.2 }
            .orchestrator(0)
            .is_some());
        let json = serde_json::to_string(&OrchestratorSpec::Bandit { epsilon: 0.2 }).unwrap();
        let back: OrchestratorSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, OrchestratorSpec::Bandit { epsilon: 0.2 });
        assert!(CutPolicySpec::Fixed.is_fixed());
        assert!(!CutPolicySpec::Bandit { epsilon: 0.2 }.is_fixed());
    }

    #[test]
    fn codec_menu_leads_with_the_configured_spec() {
        let base = CompressionSpec::uniform(CodecSpec::Fp16);
        let menu = codec_menu(&base);
        assert_eq!(menu[0], base);
        assert_eq!(menu.len(), 3, "fp16 deduplicates against itself");
        let menu = codec_menu(&CompressionSpec::default());
        assert_eq!(menu.len(), 4);
        // The aggressive arm only makes sense with its feedback armed.
        assert!(menu.iter().any(|m| m.error_feedback));
    }
}
