//! Planning and pricing read one environment snapshot per call.
//!
//! A counting `ChannelModel` wraps a preset environment and tallies
//! three things: whole-round snapshots (`conditions`), per-client draws
//! made outside a snapshot (`client_conditions`, which the `distance` and
//! `device_rate` wrappers also go through), and link pricings (`link`).
//! `PlanSelector::plan_for_round` and every `*_round_recovered` pricer
//! must take exactly one snapshot and no outside draw. Links are priced
//! once per client and share vector: the pricers stay within two links
//! per client (plus one probe per member under a shared pool), far below
//! one per transfer, and the planner within two per client for each
//! share vector it considers, not one per arm and payload.

use gsfl::core::config::{DatasetConfig, ExperimentConfig, ModelKind};
use gsfl::core::context::TrainContext;
use gsfl::core::latency::{
    fl_round_recovered, gsfl_round_recovered, sl_round_recovered, ChannelMode,
};
use gsfl::core::orchestrator::{OrchestratorSpec, PlanSelector};
use gsfl::core::recovery::RecoveryPlan;
use gsfl::wireless::allocation::BandwidthPolicy;
use gsfl::wireless::backhaul::BackhaulLink;
use gsfl::wireless::energy::PowerProfile;
use gsfl::wireless::environment::{
    ChannelModel, ClientConditions, Direction, Link, RoundConditions,
};
use gsfl::wireless::fault::TransferOutcome;
use gsfl::wireless::server::EdgeServer;
use gsfl::wireless::units::{Hertz, Seconds};
use gsfl::wireless::{Result, Scenario};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

#[derive(Debug)]
struct Counting {
    inner: Arc<dyn ChannelModel>,
    snapshots: AtomicUsize,
    draws: AtomicUsize,
    links: AtomicUsize,
}

/// What one call cost: (snapshots, outside draws, link pricings).
type Tally = (usize, usize, usize);

impl Counting {
    fn new(inner: Arc<dyn ChannelModel>) -> Self {
        Counting {
            inner,
            snapshots: AtomicUsize::new(0),
            draws: AtomicUsize::new(0),
            links: AtomicUsize::new(0),
        }
    }

    /// The tally since the last call, resetting it.
    fn take(&self) -> Tally {
        (
            self.snapshots.swap(0, Ordering::SeqCst),
            self.draws.swap(0, Ordering::SeqCst),
            self.links.swap(0, Ordering::SeqCst),
        )
    }
}

impl ChannelModel for Counting {
    fn client_count(&self) -> usize {
        self.inner.client_count()
    }

    fn total_bandwidth(&self, round: u64) -> Hertz {
        self.inner.total_bandwidth(round)
    }

    fn server(&self) -> &EdgeServer {
        self.inner.server()
    }

    fn power(&self) -> &PowerProfile {
        self.inner.power()
    }

    fn client_conditions(&self, client: usize, round: u64) -> Result<ClientConditions> {
        self.draws.fetch_add(1, Ordering::SeqCst);
        self.inner.client_conditions(client, round)
    }

    fn conditions(&self, round: u64) -> Result<RoundConditions> {
        self.snapshots.fetch_add(1, Ordering::SeqCst);
        self.inner.conditions(round)
    }

    fn link(
        &self,
        cond: &RoundConditions,
        client: usize,
        dir: Direction,
        share: Hertz,
        concurrent: &[usize],
    ) -> Result<Link> {
        self.links.fetch_add(1, Ordering::SeqCst);
        self.inner.link(cond, client, dir, share, concurrent)
    }

    fn server_compute(&self, flops: u64) -> Seconds {
        self.inner.server_compute(flops)
    }

    fn is_available(&self, client: usize, round: u64) -> bool {
        self.inner.is_available(client, round)
    }

    fn transfer_outcome(&self, client: usize, round: u64, transfer: u64) -> TransferOutcome {
        self.inner.transfer_outcome(client, round, transfer)
    }

    fn crash_point(&self, client: usize, round: u64) -> Option<f64> {
        self.inner.crash_point(client, round)
    }

    fn ap_count(&self) -> usize {
        self.inner.ap_count()
    }

    fn ap_of(&self, client: usize, round: u64) -> Result<usize> {
        self.inner.ap_of(client, round)
    }

    fn server_at(&self, ap: usize) -> &EdgeServer {
        self.inner.server_at(ap)
    }

    fn server_compute_at(&self, ap: usize, flops: u64) -> Seconds {
        self.inner.server_compute_at(ap, flops)
    }

    fn backhaul(&self, ap: usize) -> Option<BackhaulLink> {
        self.inner.backhaul(ap)
    }
}

const CLIENTS: usize = 8;

/// A greedy-orchestrated context over `preset`, its environment wrapped
/// in a [`Counting`] one.
fn counted_context(preset: &str) -> (TrainContext, Arc<Counting>) {
    let config = ExperimentConfig::builder()
        .clients(CLIENTS)
        .groups(3)
        .rounds(3)
        .batch_size(4)
        .dataset(DatasetConfig {
            classes: 4,
            samples_per_class: 8,
            test_per_class: 4,
            image_size: 8,
        })
        .model(ModelKind::Mlp {
            hidden: vec![16, 8],
        })
        .scenario(Scenario::preset(preset).expect("preset exists"))
        .orchestrator(OrchestratorSpec::Greedy)
        .seed(3)
        .build()
        .unwrap();
    let mut ctx = TrainContext::from_config(config).unwrap();
    let counting = Arc::new(Counting::new(ctx.env.clone()));
    ctx.env = counting.clone();
    (ctx, counting)
}

#[test]
fn planner_takes_one_snapshot_and_prices_links_per_share_vector() {
    for preset in ["orchestrated", "multi_ap", "trace_replay"] {
        let (ctx, counting) = counted_context(preset);
        let selector = PlanSelector::from_config(&ctx.config);
        // Demand-weighted shares differ per (cut, codec); the legacy and
        // equal splits and the per-client refinement add three more.
        let share_vectors = ctx.cut_candidates.len() * ctx.codec_menu.len() + 3;
        for round in 0..4u64 {
            counting.take();
            selector.plan_for_round(&ctx, round).unwrap();
            let (snapshots, draws, links) = counting.take();
            assert_eq!(snapshots, 1, "{preset} round {round}: snapshots");
            assert_eq!(
                draws, 0,
                "{preset} round {round}: draws outside the snapshot"
            );
            assert!(
                links > 0,
                "{preset} round {round}: the planner prices links"
            );
            assert!(
                links <= 2 * CLIENTS * share_vectors,
                "{preset} round {round}: {links} link pricings for {share_vectors} share vectors"
            );
        }
    }
}

#[test]
fn every_pricer_takes_one_snapshot_and_two_links_per_client() {
    for preset in ["orchestrated", "multi_ap", "trace_replay", "chaos"] {
        let (ctx, counting) = counted_context(preset);
        let env = ctx.env.as_ref();
        let steps = ctx.steps_per_client();
        let order: Vec<usize> = (0..CLIENTS).collect();
        let singletons: Vec<Vec<usize>> = order.iter().map(|&c| vec![c]).collect();
        let none = RecoveryPlan::default();
        // Every client trains at least one step, so each makes at least
        // four transfers; per-transfer pricing would exceed these bounds.
        assert!(steps.iter().all(|&s| s >= 1));
        for round in 0..3u64 {
            counting.take();
            fl_round_recovered(env, &ctx.costs, &steps, 1, round, None, &none).unwrap();
            let fl = counting.take();
            sl_round_recovered(
                env,
                &ctx.costs,
                &steps,
                &order,
                ChannelMode::Dedicated,
                round,
                None,
                &none,
            )
            .unwrap();
            let sl = counting.take();
            let gsfl = |groups: &[Vec<usize>], mode| {
                let costs = vec![ctx.costs; groups.len()];
                gsfl_round_recovered(
                    env,
                    &costs,
                    &steps,
                    groups,
                    BandwidthPolicy::ChannelAware,
                    mode,
                    round,
                    None,
                    &none,
                )
                .unwrap();
                counting.take()
            };
            let grouped = gsfl(&ctx.groups, ChannelMode::Dedicated);
            let pooled = gsfl(&ctx.groups, ChannelMode::SharedPool);
            let splitfed = gsfl(&singletons, ChannelMode::Dedicated);
            for (name, tally, per_client) in [
                ("fl", fl, 2),
                ("sl", sl, 2),
                ("gsfl", grouped, 2),
                ("gsfl shared pool", pooled, 3),
                ("splitfed", splitfed, 2),
            ] {
                let (snapshots, draws, links) = tally;
                let label = format!("{preset} {name} round {round}");
                assert_eq!(snapshots, 1, "{label}: snapshots");
                assert_eq!(draws, 0, "{label}: draws outside the snapshot");
                assert!(
                    links <= per_client * CLIENTS,
                    "{label}: {links} link pricings for {CLIENTS} clients"
                );
            }
        }
    }
}

#[test]
fn counted_pricing_is_bit_identical_to_the_bare_environment() {
    let (ctx, _) = counted_context("orchestrated");
    let bare = ctx.config.environment().unwrap();
    let steps = ctx.steps_per_client();
    let none = RecoveryPlan::default();
    for round in 0..3u64 {
        let (counted, _) =
            fl_round_recovered(ctx.env.as_ref(), &ctx.costs, &steps, 1, round, None, &none)
                .unwrap();
        let (plain, _) =
            fl_round_recovered(bare.as_ref(), &ctx.costs, &steps, 1, round, None, &none).unwrap();
        assert_eq!(counted, plain, "round {round}");
    }
}
