//! Shared experiment context: data shards, test set, wireless model,
//! grouping.

use crate::config::{ExperimentConfig, GroupingKind, PartitionStrategy};
use crate::grouping::{assign_groups, ClientCost};
use crate::latency::SplitCosts;
use crate::population::Population;
use crate::recovery::RoundRecovery;
use crate::Result;
use gsfl_data::dataset::ImageDataset;
use gsfl_data::partition::Partition;
use gsfl_data::synth::SynthGtsrb;
use gsfl_tensor::rng::SeedDerive;
use gsfl_wireless::environment::{ChannelModel, RoundConditions};
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Everything a scheme needs to train: per-client shards, the test set,
/// the wireless environment and the group assignment. Built once per
/// experiment so every scheme sees identical data, channel and grouping.
#[derive(Debug, Clone)]
pub struct TrainContext {
    /// The experiment configuration.
    pub config: ExperimentConfig,
    /// Per-slot training shards (index = client id in dense mode, cohort
    /// slot in population mode, where this holds the round-0 cohort —
    /// [`TrainContext::round_shards`] materializes later rounds).
    pub train_shards: Vec<ImageDataset>,
    /// The sparse-population descriptor when the config enables
    /// population mode (`None` = every configured client is dense).
    pub population: Option<Population>,
    /// The shared training pool population cohorts draw their shards
    /// from (`Some` exactly when `population` is).
    pub train_pool: Option<ImageDataset>,
    /// The held-out test set.
    pub test_set: ImageDataset,
    /// The wireless environment (latency, compute, availability), built
    /// from the config's scenario. Shared because contexts are cloned
    /// across scheme threads.
    pub env: Arc<dyn ChannelModel>,
    /// GSFL group assignment (group → member client ids, in training
    /// order).
    pub groups: Vec<Vec<usize>>,
    /// Sample dims as fed to the model (`[3,h,w]` or `[d]`).
    pub sample_dims: Vec<usize>,
    /// Per-batch cost profile of the configured model at the configured
    /// cut.
    pub costs: SplitCosts,
    /// Valid candidate cut indices for the configured model, ascending.
    /// Just the configured cut when the cut is fixed; every valid cut
    /// otherwise. The planner *instance* is deliberately not here: each
    /// scheme run builds its own [`crate::orchestrator::PlanSelector`]
    /// so learned state never leaks across sessions or threads.
    pub cut_candidates: Vec<usize>,
    /// Per-candidate cost profiles (always contains the configured cut).
    pub costs_by_cut: BTreeMap<usize, SplitCosts>,
    /// The codec menu a per-round orchestrator may choose from (first
    /// entry = the configured compression spec). Just the configured
    /// spec when the orchestrator is static.
    pub codec_menu: Vec<crate::compression::CompressionSpec>,
}

impl TrainContext {
    /// Builds the context from a validated config.
    ///
    /// # Errors
    ///
    /// Propagates dataset, model and wireless construction errors.
    pub fn from_config(config: ExperimentConfig) -> Result<Self> {
        let seeds = SeedDerive::new(config.seed);
        // Train and test sets from independent generator streams.
        let train = SynthGtsrb::builder()
            .classes(config.dataset.classes)
            .samples_per_class(config.dataset.samples_per_class)
            .image_size(config.dataset.image_size)
            .augment(config.augment)
            .seed(seeds.child("train-data").seed())
            .generate()?;
        let test = SynthGtsrb::builder()
            .classes(config.dataset.classes)
            .samples_per_class(config.dataset.test_per_class)
            .image_size(config.dataset.image_size)
            .augment(config.augment)
            .seed(seeds.child("test-data").seed())
            .generate()?;

        // Flatten for MLP models.
        let (train, test) = if config.model.wants_flat_inputs() {
            (flatten(&train)?, flatten(&test)?)
        } else {
            (train, test)
        };
        let sample_dims = train.sample_dims();

        // Population mode keeps the training set pooled and materializes
        // per-round cohort shards on demand; dense mode partitions it
        // across the configured clients exactly as before.
        let population = match &config.population {
            Some(spec) => Some(Population::new(
                spec,
                config.clients,
                seeds.child("population").seed(),
            )?),
            None => None,
        };
        let (train_shards, train_pool) = if let Some(pop) = &population {
            let members = pop.sample_cohort(0);
            let shards = pop.materialize_cohort(&members, &train)?;
            (shards, Some(train))
        } else {
            let part_seed = seeds.child("partition").seed();
            let partition = match config.partition {
                PartitionStrategy::Iid => Partition::iid(&train, config.clients, part_seed)?,
                PartitionStrategy::Dirichlet(alpha) => {
                    Partition::dirichlet(&train, config.clients, alpha, part_seed)?
                }
                PartitionStrategy::Shards(k) => {
                    Partition::shards(&train, config.clients, k, part_seed)?
                }
            };
            (partition.materialize(&train)?, None)
        };

        let env = config.environment()?;

        // Cost profile of the split model (drives latency and load-aware
        // grouping). The configured compression shrinks the wire-size
        // fields via *measured* encodes — every byte the run will charge
        // is the `len()` of a wire buffer that actually existed (the
        // closed-form law is pinned equal by tests, so planner loops may
        // use the cheap `with_compression`). Compute and storage
        // accounting stay raw.
        let mut codec_ws = gsfl_tensor::Workspace::new();
        let model = config
            .model
            .build(&sample_dims, config.dataset.classes, config.seed)?;
        let costs = SplitCosts::compute(&model, config.cut(), &sample_dims, config.batch_size)?
            .measured_with_compression(&config.compression, &mut codec_ws);

        // Candidate cuts for the per-round planner: just the configured
        // cut when it never moves, every valid split otherwise (with its
        // cost profile, so per-round decisions never recompute FLOP
        // counts).
        let cut_candidates: Vec<usize> = if config.fixed_cut() {
            vec![config.cut()]
        } else {
            (1..model.depth()).collect()
        };
        let mut costs_by_cut = BTreeMap::new();
        for &cut in &cut_candidates {
            let c = if cut == config.cut() {
                costs
            } else {
                SplitCosts::compute(&model, cut, &sample_dims, config.batch_size)?
                    .measured_with_compression(&config.compression, &mut codec_ws)
            };
            costs_by_cut.insert(cut, c);
        }
        costs_by_cut.entry(config.cut()).or_insert(costs);

        // The orchestrator's codec menu (configured spec first). Note
        // `costs_by_cut` stays under the *configured* codec — planners
        // re-derive wire sizes per menu entry via `with_compression`.
        let codec_menu = if config.orchestrator.is_static() {
            vec![config.compression]
        } else {
            crate::orchestrator::codec_menu(&config.compression)
        };

        // Group assignment; load-aware strategies estimate per-client round
        // time from shard size, device rate and distance.
        let needs_costs = matches!(
            config.grouping,
            GroupingKind::ComputeBalanced | GroupingKind::ChannelAware
        );
        let client_costs: Option<Vec<ClientCost>> = if needs_costs {
            // Grouping is decided once, from the environment's initial
            // (round-0) conditions.
            let mut v = Vec::with_capacity(config.clients);
            for (c, shard) in train_shards.iter().enumerate() {
                let steps = shard.len().div_ceil(config.batch_size) as f64;
                let per_batch_flops = (costs.client_fwd_flops + costs.client_bwd_flops) as f64;
                let rate = env.device_rate(c, 0)?.as_flops_per_sec();
                v.push(ClientCost {
                    round_time_s: steps * per_batch_flops / rate,
                    distance_m: env.distance(c, 0)?.as_meters(),
                });
            }
            Some(v)
        } else {
            None
        };
        let groups = assign_groups(
            config.grouping,
            config.clients,
            config.groups,
            client_costs.as_deref(),
            seeds.child("grouping").seed(),
        )?;

        Ok(TrainContext {
            config,
            train_shards,
            population,
            train_pool,
            test_set: test,
            env,
            groups,
            sample_dims,
            costs,
            cut_candidates,
            costs_by_cut,
            codec_menu,
        })
    }

    /// Number of mini-batch steps client `c` runs per epoch over its shard.
    pub fn steps_for(&self, client: usize) -> usize {
        self.train_shards[client]
            .len()
            .div_ceil(self.config.batch_size)
    }

    /// Per-client step counts.
    pub fn steps_per_client(&self) -> Vec<usize> {
        (0..self.config.clients)
            .map(|c| self.steps_for(c))
            .collect()
    }

    /// Total training samples across all shards.
    pub fn total_samples(&self) -> usize {
        self.train_shards.iter().map(ImageDataset::len).sum()
    }

    /// Whether `client` participates in `round`: the environment's
    /// dropout injection (if any) and the configured availability
    /// probability must both let it through (deterministic per seed).
    pub fn is_available(&self, round: u64, client: usize) -> bool {
        if !self.env.is_available(client, round) {
            return false;
        }
        if self.config.availability >= 1.0 {
            return true;
        }
        use rand::Rng;
        let mut rng = SeedDerive::new(self.config.seed)
            .child("availability")
            .index(round)
            .index(client as u64)
            .rng();
        rng.gen::<f64>() < self.config.availability
    }

    /// The environment's [`RoundConditions`] snapshot for `round`.
    ///
    /// # Errors
    ///
    /// Propagates environment query errors.
    pub fn conditions(&self, round: u64) -> Result<RoundConditions> {
        Ok(self.env.conditions(round)?)
    }

    /// Per-slot training shards for `round`: the static partition in
    /// dense mode (borrowed, zero-cost), or the round's freshly
    /// materialized cohort in population mode. Population shards all
    /// have the same length ([`Population::shard_len`]), so step vectors
    /// computed at init stay valid — only the shard *contents* rotate
    /// with the sampled cohort.
    ///
    /// # Errors
    ///
    /// Propagates materialization errors.
    pub fn round_shards(&self, round: u64) -> Result<Cow<'_, [ImageDataset]>> {
        match (&self.population, &self.train_pool) {
            (Some(pop), Some(pool)) => {
                let members = pop.sample_cohort(round);
                Ok(Cow::Owned(pop.materialize_cohort(&members, pool)?))
            }
            _ => Ok(Cow::Borrowed(&self.train_shards)),
        }
    }

    /// The global population ids occupying the cohort slots in `round`
    /// (`None` in dense mode).
    pub fn cohort_members(&self, round: u64) -> Option<Vec<u64>> {
        self.population.as_ref().map(|p| p.sample_cohort(round))
    }

    /// Prepares the round's fault-recovery plan for the scheduled cohort
    /// `admitted` (in participation order). Standbys are extra members
    /// drawn from the population's `"backups"` stream; config validation
    /// admits backups only in population mode. `available` is unused: it
    /// stays in the signature for existing callers. A no-op
    /// [`crate::recovery::RecoverySpec`] returns the identity plan
    /// without touching any fault stream.
    pub fn round_recovery(
        &self,
        round: u64,
        admitted: &[usize],
        available: &[usize],
    ) -> RoundRecovery {
        let _ = available;
        let spec = &self.config.recovery;
        if spec.is_noop() {
            return RoundRecovery::default();
        }
        let population_backups = match &self.population {
            Some(p) => p.sample_backups(round, spec.backups),
            None => Vec::new(),
        };
        RoundRecovery::prepare(
            &self.config,
            self.env.as_ref(),
            admitted,
            &population_backups,
            |c| self.steps_for(c),
            round,
        )
    }

    /// [`TrainContext::round_shards`] with the recovery plan's
    /// population-mode backup substitutions applied: a slot whose
    /// primary crashed trains the replacement member's freshly
    /// materialized shard. Dense mode (no overrides) is untouched.
    ///
    /// # Errors
    ///
    /// Propagates materialization errors.
    pub fn round_shards_recovered(
        &self,
        round: u64,
        recovery: &RoundRecovery,
    ) -> Result<Cow<'_, [ImageDataset]>> {
        let mut shards = self.round_shards(round)?;
        if let (Some(pop), Some(pool)) = (&self.population, &self.train_pool) {
            if !recovery.member_overrides.is_empty() {
                let owned = shards.to_mut();
                for (&slot, &member) in &recovery.member_overrides {
                    owned[slot] = pop.materialize_member(member, pool)?;
                }
            }
        }
        Ok(shards)
    }

    /// The clients participating in `round`. Never empty: if the draw
    /// leaves nobody reachable, the AP waits for the first client to come
    /// back — modeled as that round running with the deterministic
    /// first-choice client.
    pub fn available_clients(&self, round: u64) -> Vec<usize> {
        let mut v: Vec<usize> = (0..self.config.clients)
            .filter(|&c| self.is_available(round, c))
            .collect();
        if v.is_empty() {
            v.push((round as usize) % self.config.clients);
        }
        v
    }
}

fn flatten(ds: &ImageDataset) -> Result<ImageDataset> {
    let n = ds.len();
    let d: usize = ds.sample_dims().iter().product();
    let images = ds.images().reshape(&[n, d])?;
    Ok(ImageDataset::new(
        images,
        ds.labels().to_vec(),
        ds.num_classes(),
    )?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{DatasetConfig, ExperimentConfig, ModelKind};

    fn tiny_config() -> ExperimentConfig {
        ExperimentConfig::builder()
            .clients(6)
            .groups(2)
            .rounds(2)
            .batch_size(4)
            .dataset(DatasetConfig {
                classes: 4,
                samples_per_class: 6,
                test_per_class: 2,
                image_size: 8,
            })
            .model(ModelKind::Mlp { hidden: vec![16] })
            .seed(3)
            .build()
            .unwrap()
    }

    #[test]
    fn context_builds_consistently() {
        let ctx = TrainContext::from_config(tiny_config()).unwrap();
        assert_eq!(ctx.train_shards.len(), 6);
        assert_eq!(ctx.total_samples(), 24);
        assert_eq!(ctx.test_set.len(), 8);
        assert_eq!(ctx.groups.len(), 2);
        // MLP ⇒ flattened samples.
        assert_eq!(ctx.sample_dims, vec![3 * 8 * 8]);
        assert!(ctx.costs.client_model_bytes.as_u64() > 0);
    }

    #[test]
    fn deterministic_context() {
        let a = TrainContext::from_config(tiny_config()).unwrap();
        let b = TrainContext::from_config(tiny_config()).unwrap();
        assert_eq!(a.groups, b.groups);
        assert_eq!(a.train_shards[0], b.train_shards[0]);
    }

    #[test]
    fn steps_round_up() {
        let ctx = TrainContext::from_config(tiny_config()).unwrap();
        for c in 0..6 {
            let expect = ctx.train_shards[c].len().div_ceil(4);
            assert_eq!(ctx.steps_for(c), expect);
        }
    }

    #[test]
    fn population_context_is_cohort_sized() {
        let mut cfg = tiny_config();
        cfg.population = Some(crate::population::PopulationConfig {
            clients: 50_000,
            samples_per_client: 0,
        });
        let ctx = TrainContext::from_config(cfg).unwrap();
        // Everything is sized to the cohort, not the 50k population.
        assert_eq!(ctx.train_shards.len(), 6);
        assert_eq!(ctx.steps_per_client().len(), 6);
        let r0 = ctx.round_shards(0).unwrap();
        assert_eq!(
            r0.as_ref(),
            ctx.train_shards.as_slice(),
            "init holds the round-0 cohort"
        );
        let r1 = ctx.round_shards(1).unwrap();
        assert_eq!(r1.len(), 6);
        assert_ne!(r1.as_ref(), ctx.train_shards.as_slice(), "cohorts rotate");
        // Constant shard sizes keep init-time step vectors valid.
        assert!(r1.iter().all(|s| s.len() == r1[0].len()));
        let members = ctx.cohort_members(1).unwrap();
        assert_eq!(members.len(), 6);
        assert!(members.iter().all(|&m| m < 50_000));
        // Dense mode has no cohort and borrows its shards.
        let dense = TrainContext::from_config(tiny_config()).unwrap();
        assert!(dense.cohort_members(0).is_none());
        assert!(matches!(dense.round_shards(5).unwrap(), Cow::Borrowed(_)));
    }

    #[test]
    fn load_aware_grouping_builds() {
        let mut cfg = tiny_config();
        cfg.grouping = crate::config::GroupingKind::ComputeBalanced;
        let ctx = TrainContext::from_config(cfg).unwrap();
        assert_eq!(ctx.groups.iter().map(Vec::len).sum::<usize>(), 6);
    }
}
