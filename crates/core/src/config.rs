//! Experiment configuration.

use crate::compression::CompressionSpec;
use crate::latency::ChannelMode;
use crate::orchestrator::{CutPolicySpec, OrchestratorSpec};
use crate::population::PopulationConfig;
use crate::recovery::RecoverySpec;
use crate::{CoreError, Result};
use gsfl_data::synth::Augment;
use gsfl_nn::model::{CutPoint, DeepThin, Mlp};
use gsfl_nn::Sequential;
use gsfl_wireless::allocation::BandwidthPolicy;
use gsfl_wireless::device::DeviceHeterogeneity;
use gsfl_wireless::environment::ChannelModel;
use gsfl_wireless::latency::LatencyModel;
use gsfl_wireless::scenario::Scenario;
use gsfl_wireless::server::EdgeServer;
use gsfl_wireless::units::{FlopsRate, Hertz};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Which network architecture an experiment trains.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ModelKind {
    /// The DeepThin-style lightweight CNN (NCHW inputs).
    DeepThin {
        /// First conv stage width.
        conv1: usize,
        /// Second conv stage width.
        conv2: usize,
        /// Dense hidden width.
        fc: usize,
    },
    /// An MLP over flattened inputs (fast; used by tests).
    Mlp {
        /// Hidden layer widths.
        hidden: Vec<usize>,
    },
}

impl ModelKind {
    /// Paper-scale CNN defaults.
    pub fn deepthin_default() -> Self {
        ModelKind::DeepThin {
            conv1: 8,
            conv2: 16,
            fc: 64,
        }
    }

    /// Whether inputs must be flattened to `[n, d]`.
    pub fn wants_flat_inputs(&self) -> bool {
        matches!(self, ModelKind::Mlp { .. })
    }

    /// Builds the network for the given sample dims and class count.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Config`] when the model cannot be built for the
    /// dims (e.g. non-multiple-of-4 image for the CNN).
    pub fn build(&self, sample_dims: &[usize], classes: usize, seed: u64) -> Result<Sequential> {
        match self {
            ModelKind::DeepThin { conv1, conv2, fc } => {
                if sample_dims.len() != 3 || sample_dims[0] != 3 {
                    return Err(CoreError::Config(format!(
                        "DeepThin needs [3,h,w] samples, got {sample_dims:?}"
                    )));
                }
                if sample_dims[1] != sample_dims[2] {
                    return Err(CoreError::Config("DeepThin needs square images".into()));
                }
                Ok(DeepThin::builder(sample_dims[1], classes)
                    .conv1_channels(*conv1)
                    .conv2_channels(*conv2)
                    .fc_width(*fc)
                    .seed(seed)
                    .build()?)
            }
            ModelKind::Mlp { hidden } => {
                let input: usize = sample_dims.iter().product();
                Ok(Mlp::new(input, hidden, classes, seed).into_sequential())
            }
        }
    }

    /// The default cut index (client-side depth) for split schemes.
    pub fn default_cut(&self) -> usize {
        match self {
            // After the first pooling stage — shallow client, as in the paper.
            ModelKind::DeepThin { .. } => CutPoint::AfterPool1.layer_index(),
            // After the first dense+relu block.
            ModelKind::Mlp { .. } => 2,
        }
    }
}

/// How the training data is spread across clients.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum PartitionStrategy {
    /// Shuffle-and-deal.
    Iid,
    /// Per-class Dirichlet(α) allocation; small α ⇒ more skew.
    Dirichlet(f64),
    /// Sort-by-label shards, `k` shards per client.
    Shards(usize),
}

/// Dataset generation parameters (the synthetic GTSRB substitution).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DatasetConfig {
    /// Number of classes (≤ 43).
    pub classes: usize,
    /// Training samples generated per class.
    pub samples_per_class: usize,
    /// Test samples generated per class (independent draw).
    pub test_per_class: usize,
    /// Square image size (multiple of 4 for the CNN).
    pub image_size: usize,
}

impl Default for DatasetConfig {
    fn default() -> Self {
        DatasetConfig {
            classes: 43,
            samples_per_class: 50,
            test_per_class: 10,
            image_size: 16,
        }
    }
}

/// Wireless-network parameters (thin wrapper over the wireless crate's
/// builder so experiments serialize cleanly).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WirelessConfig {
    /// Total system bandwidth in MHz.
    pub bandwidth_mhz: f64,
    /// Edge-server slots (parallel server-side executions).
    pub server_slots: usize,
    /// Edge-server per-slot rate in GFLOP/s.
    pub server_gflops: f64,
    /// Client device rate range in GFLOP/s.
    pub device_min_gflops: f64,
    /// Client device rate range in GFLOP/s.
    pub device_max_gflops: f64,
    /// Enable Rayleigh block fading.
    pub fading: bool,
}

impl Default for WirelessConfig {
    fn default() -> Self {
        WirelessConfig {
            bandwidth_mhz: 10.0,
            server_slots: 4,
            server_gflops: 50.0,
            // Effective on-device *training* throughput of IoT/mobile-class
            // CPUs — the paper's "resource-limited" regime.
            device_min_gflops: 0.2,
            device_max_gflops: 0.6,
            fading: true,
        }
    }
}

/// How clients are assigned to GSFL groups.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum GroupingKind {
    /// Client `i` goes to group `i mod M`.
    RoundRobin,
    /// Random permutation, dealt round-robin.
    Random,
    /// Longest-processing-time balancing on estimated client round time.
    ComputeBalanced,
    /// Balancing on channel quality (distance as proxy).
    ChannelAware,
}

/// Full experiment description.
///
/// Construct with [`ExperimentConfig::builder`]; every scheme reads the
/// same config so comparisons share data, model init and channel
/// realizations.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentConfig {
    /// Number of clients N.
    pub clients: usize,
    /// Number of GSFL groups M (must divide ≤ N).
    pub groups: usize,
    /// Training rounds to run.
    pub rounds: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Base learning rate.
    pub learning_rate: f32,
    /// SGD momentum (0 disables).
    pub momentum: f32,
    /// FL local epochs per round.
    pub local_epochs: usize,
    /// Model architecture.
    pub model: ModelKind,
    /// Cut index override for split schemes (client-side layer count);
    /// `None` uses the model's default cut.
    pub cut_index: Option<usize>,
    /// How split schemes choose the cut each round: the fixed configured
    /// cut (default, the paper's behavior), or the greedy or bandit
    /// planner restricted to the cut axis. Adaptive policies require
    /// `momentum == 0` and the static orchestrator.
    #[serde(default)]
    pub cut_policy: CutPolicySpec,
    /// How each round's joint cut × codec × bandwidth-share decision is
    /// made: statically from the configured fields (default, the paper's
    /// behavior), by a greedy per-round latency estimate, or by a bandit
    /// over realized latencies. Non-static orchestrators require
    /// `momentum == 0` and the fixed cut policy — a run has one planner.
    #[serde(default)]
    pub orchestrator: OrchestratorSpec,
    /// Dataset generation parameters.
    pub dataset: DatasetConfig,
    /// Data partition strategy.
    pub partition: PartitionStrategy,
    /// Data augmentation.
    pub augment: Augment,
    /// Wireless parameters.
    pub wireless: WirelessConfig,
    /// The wireless scenario: static (default) or one of the
    /// time-varying environments (mobility, diurnal bandwidth,
    /// congestion, stragglers, dropouts, composite).
    #[serde(default)]
    pub scenario: Scenario,
    /// Which codec each exchanged artifact (smashed data, gradients,
    /// model updates) is encoded with before crossing the wire. Defaults
    /// to fp32 identity on everything — byte-identical to the pre-codec
    /// simulator.
    #[serde(default)]
    pub compression: CompressionSpec,
    /// Bandwidth split among concurrent transmitters (SharedPool mode).
    pub bandwidth_policy: BandwidthPolicy,
    /// Spectrum assignment model (dedicated OFDMA subchannels vs dynamic
    /// shared pool).
    pub channel: ChannelMode,
    /// Grouping strategy for GSFL.
    pub grouping: GroupingKind,
    /// Evaluate on the test set every this many rounds (≥ 1).
    pub eval_every: usize,
    /// Stop early once test accuracy reaches this fraction, if set.
    pub target_accuracy: Option<f64>,
    /// Per-round probability that a client is reachable and participates
    /// (1.0 = always available; lower values inject churn/failures).
    pub availability: f64,
    /// Optional population-scale mode: `Some` declares a configured
    /// population of [`PopulationConfig::clients`] sparse clients, of
    /// which each round samples and materializes a cohort of exactly
    /// `clients` — so `clients` doubles as the cohort capacity that the
    /// environment, grouping, and latency accounting are sized to.
    /// `None` (default) keeps every configured client dense, exactly as
    /// before.
    #[serde(default)]
    pub population: Option<PopulationConfig>,
    /// Fault recovery: optional round deadline with quorum aggregation
    /// and backup-client over-provisioning. The default spec is a no-op
    /// (no deadline, no backups) — rounds behave exactly as before.
    #[serde(default)]
    pub recovery: RecoverySpec,
    /// Host threads used to train independent clients/groups in parallel
    /// inside a round. `None` (default) draws from the shared
    /// process-wide budget (`GSFL_THREADS` env var or the machine's
    /// available parallelism); `Some(n)` forces exactly `n`. Results are
    /// bit-identical for every setting — work is partitioned at fixed
    /// boundaries and aggregated in fixed order.
    #[serde(default)]
    pub client_threads: Option<usize>,
    /// Master experiment seed.
    pub seed: u64,
}

impl ExperimentConfig {
    /// Starts a builder with paper-scale defaults (30 clients, 6 groups).
    pub fn builder() -> ExperimentConfigBuilder {
        ExperimentConfigBuilder {
            config: ExperimentConfig {
                clients: 30,
                groups: 6,
                rounds: 100,
                batch_size: 16,
                learning_rate: 0.05,
                momentum: 0.0,
                local_epochs: 1,
                model: ModelKind::deepthin_default(),
                cut_index: None,
                cut_policy: CutPolicySpec::Fixed,
                orchestrator: OrchestratorSpec::Static,
                dataset: DatasetConfig::default(),
                partition: PartitionStrategy::Dirichlet(1.0),
                augment: Augment::default(),
                wireless: WirelessConfig::default(),
                scenario: Scenario::Static,
                compression: CompressionSpec::default(),
                bandwidth_policy: BandwidthPolicy::Equal,
                channel: ChannelMode::Dedicated,
                grouping: GroupingKind::RoundRobin,
                eval_every: 2,
                target_accuracy: None,
                availability: 1.0,
                population: None,
                recovery: RecoverySpec::default(),
                client_threads: None,
                seed: 0,
            },
        }
    }

    /// The resolved cut index for split schemes.
    pub fn cut(&self) -> usize {
        self.cut_index.unwrap_or_else(|| self.model.default_cut())
    }

    /// Whether every round trains at [`ExperimentConfig::cut`]: the
    /// fixed cut policy under the static orchestrator.
    pub(crate) fn fixed_cut(&self) -> bool {
        self.cut_policy.is_fixed() && self.orchestrator.is_static()
    }

    /// Builds the wireless environment for this experiment: the base
    /// latency model wrapped by whatever [`Scenario`] the config names.
    ///
    /// # Errors
    ///
    /// Propagates wireless and scenario configuration errors.
    pub fn environment(&self) -> Result<Arc<dyn ChannelModel>> {
        Ok(Arc::from(
            self.scenario.build(self.latency_model()?, self.seed)?,
        ))
    }

    /// Builds the static base wireless latency model for this experiment
    /// (before any scenario overlay; see [`ExperimentConfig::environment`]).
    ///
    /// # Errors
    ///
    /// Propagates wireless configuration errors.
    pub fn latency_model(&self) -> Result<LatencyModel> {
        Ok(LatencyModel::builder()
            .clients(self.clients)
            .seed(self.seed)
            .bandwidth(Hertz::from_mhz(self.wireless.bandwidth_mhz))
            .server(EdgeServer::new(
                FlopsRate::from_gflops(self.wireless.server_gflops),
                self.wireless.server_slots,
            )?)
            .heterogeneity(DeviceHeterogeneity {
                min_gflops: self.wireless.device_min_gflops,
                max_gflops: self.wireless.device_max_gflops,
            })
            .fading(self.wireless.fading)
            .build()?)
    }

    fn validate(&self) -> Result<()> {
        if self.clients == 0 {
            return Err(CoreError::Config("clients must be ≥ 1".into()));
        }
        if self.groups == 0 || self.groups > self.clients {
            return Err(CoreError::Config(format!(
                "groups must be in 1..={}, got {}",
                self.clients, self.groups
            )));
        }
        if self.rounds == 0 {
            return Err(CoreError::Config("rounds must be ≥ 1".into()));
        }
        if self.batch_size == 0 {
            return Err(CoreError::Config("batch_size must be ≥ 1".into()));
        }
        if self.eval_every == 0 {
            return Err(CoreError::Config("eval_every must be ≥ 1".into()));
        }
        if self.local_epochs == 0 {
            return Err(CoreError::Config("local_epochs must be ≥ 1".into()));
        }
        if !self.learning_rate.is_finite() || self.learning_rate <= 0.0 {
            return Err(CoreError::Config(format!(
                "learning_rate must be finite and > 0, got {}",
                self.learning_rate
            )));
        }
        if !(0.0..1.0).contains(&self.momentum) {
            return Err(CoreError::Config(format!(
                "momentum must be in [0, 1), got {}",
                self.momentum
            )));
        }
        if !self.cut_policy.is_fixed() && !self.orchestrator.is_static() {
            return Err(CoreError::Config(
                "a run has one planner; use the Fixed cut policy with a \
                 non-static orchestrator"
                    .into(),
            ));
        }
        if !self.fixed_cut() && self.momentum != 0.0 {
            return Err(CoreError::Config(
                "adaptive cuts require momentum == 0 (optimizer velocity \
                 cannot be remapped across cuts)"
                    .into(),
            ));
        }
        if let (CutPolicySpec::Bandit { epsilon }, _) | (_, OrchestratorSpec::Bandit { epsilon }) =
            (self.cut_policy, self.orchestrator)
        {
            if !(0.0..=1.0).contains(&epsilon) {
                return Err(CoreError::Config(format!(
                    "bandit epsilon must be in [0,1], got {epsilon}"
                )));
            }
        }
        if let Some(t) = self.target_accuracy {
            if !(0.0..=1.0).contains(&t) {
                return Err(CoreError::Config(format!(
                    "target_accuracy must be in [0,1], got {t}"
                )));
            }
        }
        if self.availability.is_nan() || self.availability <= 0.0 || self.availability > 1.0 {
            return Err(CoreError::Config(format!(
                "availability must be in (0,1], got {}",
                self.availability
            )));
        }
        if let PartitionStrategy::Dirichlet(a) = self.partition {
            if a.is_nan() || a <= 0.0 {
                return Err(CoreError::Config("dirichlet alpha must be > 0".into()));
            }
        }
        if let Some(p) = &self.population {
            if p.clients < self.clients as u64 {
                return Err(CoreError::Config(format!(
                    "population.clients ({}) must be at least the cohort \
                     capacity `clients` ({})",
                    p.clients, self.clients
                )));
            }
        }
        if self.recovery.backups > 0 && self.population.is_none() {
            return Err(CoreError::Config(
                "recovery.backups needs a population: standbys are members \
                 sampled outside the round's cohort"
                    .into(),
            ));
        }
        self.compression.validate()?;
        self.recovery.validate()?;
        Ok(())
    }
}

/// Builder for [`ExperimentConfig`].
#[derive(Debug, Clone)]
pub struct ExperimentConfigBuilder {
    config: ExperimentConfig,
}

impl ExperimentConfigBuilder {
    /// Sets the number of clients.
    pub fn clients(mut self, n: usize) -> Self {
        self.config.clients = n;
        self
    }

    /// Sets the number of GSFL groups.
    pub fn groups(mut self, m: usize) -> Self {
        self.config.groups = m;
        self
    }

    /// Sets the number of training rounds.
    pub fn rounds(mut self, r: usize) -> Self {
        self.config.rounds = r;
        self
    }

    /// Sets the mini-batch size.
    pub fn batch_size(mut self, b: usize) -> Self {
        self.config.batch_size = b;
        self
    }

    /// Sets the learning rate.
    pub fn learning_rate(mut self, lr: f32) -> Self {
        self.config.learning_rate = lr;
        self
    }

    /// Sets SGD momentum.
    pub fn momentum(mut self, m: f32) -> Self {
        self.config.momentum = m;
        self
    }

    /// Sets FL local epochs.
    pub fn local_epochs(mut self, e: usize) -> Self {
        self.config.local_epochs = e;
        self
    }

    /// Sets the model architecture.
    pub fn model(mut self, model: ModelKind) -> Self {
        self.config.model = model;
        self
    }

    /// Overrides the cut index.
    pub fn cut_index(mut self, cut: usize) -> Self {
        self.config.cut_index = Some(cut);
        self
    }

    /// Sets the cut via a named DeepThin cut point.
    pub fn cut_point(mut self, cp: CutPoint) -> Self {
        self.config.cut_index = Some(cp.layer_index());
        self
    }

    /// Sets the per-round cut-selection policy (see
    /// [`crate::orchestrator::CutPolicySpec`]).
    pub fn cut_policy(mut self, p: CutPolicySpec) -> Self {
        self.config.cut_policy = p;
        self
    }

    /// Sets the per-round joint orchestrator (see
    /// [`crate::orchestrator::OrchestratorSpec`]).
    pub fn orchestrator(mut self, o: OrchestratorSpec) -> Self {
        self.config.orchestrator = o;
        self
    }

    /// Sets dataset generation parameters.
    pub fn dataset(mut self, d: DatasetConfig) -> Self {
        self.config.dataset = d;
        self
    }

    /// Sets the partition strategy.
    pub fn partition(mut self, p: PartitionStrategy) -> Self {
        self.config.partition = p;
        self
    }

    /// Sets augmentation ranges.
    pub fn augment(mut self, a: Augment) -> Self {
        self.config.augment = a;
        self
    }

    /// Sets wireless parameters.
    pub fn wireless(mut self, w: WirelessConfig) -> Self {
        self.config.wireless = w;
        self
    }

    /// Sets the wireless scenario (see [`Scenario::presets`]).
    pub fn scenario(mut self, s: Scenario) -> Self {
        self.config.scenario = s;
        self
    }

    /// Sets the per-artifact payload compression (see
    /// [`CompressionSpec`]).
    pub fn compression(mut self, c: CompressionSpec) -> Self {
        self.config.compression = c;
        self
    }

    /// Sets the bandwidth allocation policy.
    pub fn bandwidth_policy(mut self, p: BandwidthPolicy) -> Self {
        self.config.bandwidth_policy = p;
        self
    }

    /// Sets the spectrum assignment model.
    pub fn channel(mut self, c: ChannelMode) -> Self {
        self.config.channel = c;
        self
    }

    /// Sets the grouping strategy.
    pub fn grouping(mut self, g: GroupingKind) -> Self {
        self.config.grouping = g;
        self
    }

    /// Sets evaluation cadence.
    pub fn eval_every(mut self, e: usize) -> Self {
        self.config.eval_every = e;
        self
    }

    /// Sets an early-stop accuracy target (fraction in `[0,1]`).
    pub fn target_accuracy(mut self, t: f64) -> Self {
        self.config.target_accuracy = Some(t);
        self
    }

    /// Sets the per-round client availability probability.
    pub fn availability(mut self, p: f64) -> Self {
        self.config.availability = p;
        self
    }

    /// Enables population-scale mode (see
    /// [`ExperimentConfig::population`]): `clients` becomes the cohort
    /// capacity sampled each round from a sparse population of
    /// `p.clients`.
    pub fn population(mut self, p: PopulationConfig) -> Self {
        self.config.population = Some(p);
        self
    }

    /// Sets the fault-recovery spec (round deadline / quorum / backup
    /// cohort size; see [`RecoverySpec`]).
    pub fn recovery(mut self, r: RecoverySpec) -> Self {
        self.config.recovery = r;
        self
    }

    /// Forces the in-round client/group parallelism to exactly `n` host
    /// threads (see [`ExperimentConfig::client_threads`]).
    pub fn client_threads(mut self, n: usize) -> Self {
        self.config.client_threads = Some(n.max(1));
        self
    }

    /// Sets the master seed.
    pub fn seed(mut self, s: u64) -> Self {
        self.config.seed = s;
        self
    }

    /// Validates and returns the config.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Config`] describing the first invalid field.
    pub fn build(self) -> Result<ExperimentConfig> {
        self.config.validate()?;
        Ok(self.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_paper_scale() {
        let c = ExperimentConfig::builder().build().unwrap();
        assert_eq!(c.clients, 30);
        assert_eq!(c.groups, 6);
        assert_eq!(c.cut(), CutPoint::AfterPool1.layer_index());
    }

    #[test]
    fn validation_catches_bad_fields() {
        assert!(ExperimentConfig::builder().clients(0).build().is_err());
        assert!(ExperimentConfig::builder().groups(0).build().is_err());
        assert!(ExperimentConfig::builder()
            .clients(4)
            .groups(5)
            .build()
            .is_err());
        assert!(ExperimentConfig::builder().rounds(0).build().is_err());
        assert!(ExperimentConfig::builder().batch_size(0).build().is_err());
        assert!(ExperimentConfig::builder()
            .target_accuracy(1.5)
            .build()
            .is_err());
        assert!(ExperimentConfig::builder()
            .partition(PartitionStrategy::Dirichlet(0.0))
            .build()
            .is_err());
        assert!(ExperimentConfig::builder()
            .learning_rate(0.0)
            .build()
            .is_err());
    }

    /// Asserts `builder` fails validation with a typed config error.
    fn assert_config_error(builder: ExperimentConfigBuilder, what: &str) {
        match builder.build() {
            Err(CoreError::Config(_)) => {}
            other => panic!("{what}: expected CoreError::Config, got {other:?}"),
        }
    }

    #[test]
    fn infinite_learning_rate_is_rejected() {
        assert_config_error(
            ExperimentConfig::builder().learning_rate(f32::INFINITY),
            "learning_rate = +inf",
        );
    }

    #[test]
    fn momentum_above_one_is_rejected() {
        assert_config_error(ExperimentConfig::builder().momentum(1.5), "momentum = 1.5");
    }

    #[test]
    fn momentum_of_one_is_rejected() {
        assert_config_error(ExperimentConfig::builder().momentum(1.0), "momentum = 1");
    }

    #[test]
    fn negative_momentum_is_rejected() {
        assert_config_error(
            ExperimentConfig::builder().momentum(-0.3),
            "momentum = -0.3",
        );
    }

    #[test]
    fn nan_momentum_is_rejected() {
        assert_config_error(
            ExperimentConfig::builder().momentum(f32::NAN),
            "momentum = NaN",
        );
    }

    #[test]
    fn momentum_in_unit_interval_is_accepted() {
        for m in [0.0, 0.9] {
            let cfg = ExperimentConfig::builder().momentum(m).build().unwrap();
            assert_eq!(cfg.momentum, m);
        }
    }

    #[test]
    fn backups_without_a_population_are_rejected() {
        let backups = RecoverySpec {
            deadline: None,
            backups: 2,
        };
        assert_config_error(
            ExperimentConfig::builder().recovery(backups),
            "dense-mode backups",
        );
        ExperimentConfig::builder()
            .recovery(backups)
            .population(PopulationConfig::default())
            .build()
            .expect("population-mode backups are valid");
    }

    #[test]
    fn cut_policy_validation() {
        assert!(ExperimentConfig::builder()
            .cut_policy(CutPolicySpec::Greedy)
            .build()
            .is_ok());
        assert!(
            ExperimentConfig::builder()
                .cut_policy(CutPolicySpec::Greedy)
                .momentum(0.9)
                .build()
                .is_err(),
            "adaptive cuts cannot carry optimizer momentum"
        );
        assert!(ExperimentConfig::builder()
            .cut_policy(CutPolicySpec::Bandit { epsilon: 1.5 })
            .build()
            .is_err());
        assert!(ExperimentConfig::builder()
            .cut_policy(CutPolicySpec::Bandit { epsilon: f64::NAN })
            .build()
            .is_err());
        // Serde default keeps old configs loading as Fixed.
        let cfg: ExperimentConfig = serde_json::from_str(MINIMAL_JSON).unwrap();
        assert_eq!(cfg.cut_policy, CutPolicySpec::Fixed);
        // ... and (no `orchestrator` key) as the static orchestrator.
        assert_eq!(cfg.orchestrator, OrchestratorSpec::Static);
    }

    /// A config saved with only the fields every version has.
    const MINIMAL_JSON: &str = r#"{"clients":2,"groups":1,"rounds":1,"batch_size":1,
        "learning_rate":0.1,"momentum":0.0,"local_epochs":1,
        "model":{"Mlp":{"hidden":[8]}},"cut_index":null,
        "dataset":{"classes":2,"samples_per_class":2,"test_per_class":1,"image_size":8},
        "partition":"Iid","augment":{"rotation":0.0,"translation":0.0,"scale_jitter":0.0,
        "brightness":0.0,"noise_std":0.0,"background_jitter":0.0},
        "wireless":{"bandwidth_mhz":10.0,"server_slots":4,"server_gflops":50.0,
        "device_min_gflops":0.2,"device_max_gflops":0.6,"fading":true},
        "bandwidth_policy":"Equal","channel":"Dedicated","grouping":"RoundRobin",
        "eval_every":1,"target_accuracy":null,"availability":1.0,"seed":0}"#;

    #[test]
    fn saved_adaptive_cut_policies_load_and_validate() {
        for (policy, expect) in [
            (r#""Greedy""#, CutPolicySpec::Greedy),
            (
                r#"{"Bandit":{"epsilon":0.2}}"#,
                CutPolicySpec::Bandit { epsilon: 0.2 },
            ),
        ] {
            let json =
                MINIMAL_JSON.replace(r#""seed":0"#, &format!(r#""cut_policy":{policy},"seed":0"#));
            let cfg: ExperimentConfig = serde_json::from_str(&json).unwrap();
            assert_eq!(cfg.cut_policy, expect);
            cfg.validate().unwrap();
            assert_eq!(serde_json::to_string(&cfg.cut_policy).unwrap(), policy);
        }
    }

    #[test]
    fn orchestrator_validation() {
        assert!(ExperimentConfig::builder()
            .orchestrator(OrchestratorSpec::Greedy)
            .build()
            .is_ok());
        assert!(
            ExperimentConfig::builder()
                .orchestrator(OrchestratorSpec::Greedy)
                .momentum(0.9)
                .build()
                .is_err(),
            "orchestrated cuts cannot carry optimizer momentum"
        );
        assert!(
            ExperimentConfig::builder()
                .orchestrator(OrchestratorSpec::Greedy)
                .cut_policy(CutPolicySpec::Greedy)
                .build()
                .is_err(),
            "two per-round cut deciders must be rejected"
        );
        assert!(ExperimentConfig::builder()
            .orchestrator(OrchestratorSpec::Bandit { epsilon: 1.5 })
            .build()
            .is_err());
        assert!(ExperimentConfig::builder()
            .orchestrator(OrchestratorSpec::Bandit { epsilon: 0.2 })
            .build()
            .is_ok());
    }

    #[test]
    fn population_mode_validates() {
        let ok = ExperimentConfig::builder()
            .clients(8)
            .groups(2)
            .population(PopulationConfig {
                clients: 1_000_000,
                samples_per_client: 0,
            })
            .build()
            .unwrap();
        assert_eq!(ok.population.unwrap().clients, 1_000_000);
        assert!(
            ExperimentConfig::builder()
                .clients(8)
                .groups(2)
                .population(PopulationConfig {
                    clients: 4,
                    samples_per_client: 0,
                })
                .build()
                .is_err(),
            "a population smaller than the cohort cannot fill it"
        );
        // Old configs (no `population` key) keep loading as dense mode —
        // the serde test JSON below omits it.
    }

    #[test]
    fn cut_override() {
        let c = ExperimentConfig::builder().cut_index(5).build().unwrap();
        assert_eq!(c.cut(), 5);
        let c = ExperimentConfig::builder()
            .cut_point(CutPoint::AfterConv2)
            .build()
            .unwrap();
        assert_eq!(c.cut(), CutPoint::AfterConv2.layer_index());
    }

    #[test]
    fn model_kind_builds_both_architectures() {
        let cnn = ModelKind::deepthin_default()
            .build(&[3, 16, 16], 10, 0)
            .unwrap();
        assert_eq!(cnn.output_shape(&[1, 3, 16, 16]).unwrap(), vec![1, 10]);
        let mlp = ModelKind::Mlp { hidden: vec![32] }
            .build(&[3, 8, 8], 5, 0)
            .unwrap();
        assert_eq!(mlp.output_shape(&[1, 192]).unwrap(), vec![1, 5]);
        assert!(ModelKind::deepthin_default()
            .build(&[1, 16, 16], 10, 0)
            .is_err());
    }

    #[test]
    fn latency_model_builds() {
        let c = ExperimentConfig::builder()
            .clients(4)
            .groups(2)
            .build()
            .unwrap();
        let m = c.latency_model().unwrap();
        assert_eq!(m.client_count(), 4);
    }

    #[test]
    fn config_serializes() {
        let c = ExperimentConfig::builder().build().unwrap();
        let json = serde_json::to_string(&c).unwrap();
        let back: ExperimentConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back, c);
    }
}
