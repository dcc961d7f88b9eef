//! The experiment context built piece by piece through the public
//! constructors `TrainContext::from_config` calls, with a span around
//! each layer's part of set-up.

use crate::spans::span;
use gsfl_core::config::{ExperimentConfig, GroupingKind, PartitionStrategy};
use gsfl_core::context::TrainContext;
use gsfl_core::grouping::{assign_groups, ClientCost};
use gsfl_core::latency::SplitCosts;
use gsfl_core::population::Population;
use gsfl_core::Result;
use gsfl_data::dataset::ImageDataset;
use gsfl_data::partition::Partition;
use gsfl_data::synth::SynthGtsrb;
use gsfl_tensor::rng::SeedDerive;
use std::collections::BTreeMap;

/// Builds the same context as `TrainContext::from_config`, traced.
///
/// # Errors
///
/// Propagates dataset, model and wireless construction errors.
pub fn traced_context(config: ExperimentConfig) -> Result<TrainContext> {
    let _setup = span("setup");
    let seeds = SeedDerive::new(config.seed);
    let (train, test) = {
        let _s = span("data.synth");
        let generate = |per_class: usize, stream: &str| {
            SynthGtsrb::builder()
                .classes(config.dataset.classes)
                .samples_per_class(per_class)
                .image_size(config.dataset.image_size)
                .augment(config.augment)
                .seed(seeds.child(stream).seed())
                .generate()
        };
        let train = generate(config.dataset.samples_per_class, "train-data")?;
        let test = generate(config.dataset.test_per_class, "test-data")?;
        if config.model.wants_flat_inputs() {
            (flatten(&train)?, flatten(&test)?)
        } else {
            (train, test)
        }
    };
    let sample_dims = train.sample_dims();

    let population = match &config.population {
        Some(spec) => Some(Population::new(
            spec,
            config.clients,
            seeds.child("population").seed(),
        )?),
        None => None,
    };
    let (train_shards, train_pool) = {
        // Population mode's partition is the first cohort's materialization.
        let _s = span("data.partition");
        match &population {
            Some(pop) => {
                let members = pop.sample_cohort(0);
                (pop.materialize_cohort(&members, &train)?, Some(train))
            }
            None => {
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
            }
        }
    };

    let env = {
        let _s = span("wireless.env_build");
        config.environment()?
    };

    let (costs, cut_candidates, costs_by_cut) = {
        let _s = span("core.costs");
        let mut codec_ws = gsfl_tensor::Workspace::new();
        let model = config
            .model
            .build(&sample_dims, config.dataset.classes, config.seed)?;
        let costs = SplitCosts::compute(&model, config.cut(), &sample_dims, config.batch_size)?
            .measured_with_compression(&config.compression, &mut codec_ws);
        let cut_candidates: Vec<usize> =
            if config.cut_policy.is_fixed() && config.orchestrator.is_static() {
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
        (costs, cut_candidates, costs_by_cut)
    };

    let codec_menu = if config.orchestrator.is_static() {
        vec![config.compression]
    } else {
        gsfl_core::orchestrator::codec_menu(&config.compression)
    };

    let client_costs = if matches!(
        config.grouping,
        GroupingKind::ComputeBalanced | GroupingKind::ChannelAware
    ) {
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
