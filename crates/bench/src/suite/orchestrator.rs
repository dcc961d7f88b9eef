//! Benchmarks of the per-round orchestrator planners. The greedy joint
//! planner enumerates the cut × codec × share-mode product and estimates
//! a straggler-bound round latency for every arm from the live
//! conditions, then refines per-client cuts — all inside the round loop,
//! so planning cost is paid every round and must stay far below round
//! execution.

use super::Suite;
use gsfl_core::compression::CompressionSpec;
use gsfl_core::latency::SplitCosts;
use gsfl_core::orchestrator::{codec_menu, GreedyJoint, Orchestrator, PlanQuery};
use gsfl_nn::model::Mlp;
use gsfl_wireless::environment::{ChannelModel, RadioEnvironment};
use gsfl_wireless::latency::LatencyModel;
use std::collections::BTreeMap;
use std::hint::black_box;

/// Registers the orchestrator benches on `suite`.
pub fn register(suite: &mut Suite) {
    let clients = 64usize;
    let env = RadioEnvironment::builder(
        LatencyModel::builder()
            .clients(clients)
            .seed(7)
            .build()
            .unwrap(),
    )
    .build()
    .unwrap();
    let net = Mlp::new(768, &[128, 64], 43, 0).into_sequential();
    let candidates: Vec<usize> = (1..net.depth()).collect();
    let costs: BTreeMap<usize, SplitCosts> = candidates
        .iter()
        .map(|&cut| (cut, SplitCosts::compute(&net, cut, &[768], 16).unwrap()))
        .collect();
    let menu = codec_menu(&CompressionSpec::default());
    let steps = vec![5usize; clients];
    let participants: Vec<usize> = (0..clients).collect();
    let cond = env.conditions(3).unwrap();
    let env_ref: &dyn ChannelModel = &env;

    // A fresh planner per iteration: no incumbent, so every iteration
    // pays the full arm search plus the 64-client cut refinement.
    suite.run("orchestrator_plan_64c", 200, || {
        let greedy = GreedyJoint::new();
        let q = PlanQuery {
            round: 3,
            default_cut: candidates[0],
            candidates: &candidates,
            costs: &costs,
            codec_menu: &menu,
            conditions: &cond,
            env: black_box(env_ref),
            steps: &steps,
            participants: &participants,
        };
        black_box(greedy.plan(&q));
    });
}
