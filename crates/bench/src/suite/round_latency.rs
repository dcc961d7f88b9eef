//! Benchmarks of the latency calculators themselves — the closed forms
//! and the discrete-event simulation that price every round of
//! Fig. 2(b). Ported from the dead criterion sources in
//! `benches/round_latency.rs` and updated to the `ChannelModel` trait
//! the calculators consume since the environment redesign.

use super::Suite;
use gsfl_core::latency::{
    fl_round, fl_round_recovered, gsfl_round, sl_round, ChannelMode, SplitCosts,
};
use gsfl_core::recovery::RecoveryPlan;
use gsfl_nn::model::Mlp;
use gsfl_wireless::allocation::BandwidthPolicy;
use gsfl_wireless::environment::{ChannelModel, RadioEnvironment};
use gsfl_wireless::latency::LatencyModel;
use gsfl_wireless::FaultSpec;
use std::hint::black_box;

fn fixture(clients: usize) -> (RadioEnvironment, SplitCosts, Vec<usize>) {
    let latency = LatencyModel::builder()
        .clients(clients)
        .seed(7)
        .build()
        .unwrap();
    let net = Mlp::new(768, &[128, 64], 43, 0).into_sequential();
    let costs = SplitCosts::compute(&net, 2, &[768], 16).unwrap();
    let steps = vec![5usize; clients];
    (
        RadioEnvironment::builder(latency).build().unwrap(),
        costs,
        steps,
    )
}

/// Registers the round-latency benches on `suite`.
pub fn register(suite: &mut Suite) {
    let (env, costs, steps) = fixture(30);
    let env: &dyn ChannelModel = &env;
    let order: Vec<usize> = (0..30).collect();

    suite.run("sl_round_closed_form_30c", 400, || {
        black_box(
            sl_round(
                black_box(env),
                &costs,
                &steps,
                &order,
                ChannelMode::Dedicated,
                3,
            )
            .unwrap(),
        );
    });

    suite.run("fl_round_closed_form_30c", 400, || {
        black_box(fl_round(black_box(env), &costs, &steps, 1, 3).unwrap());
    });

    // Fault-aware pricing overhead at 64 clients: the same FL round
    // priced clean versus through a fault-injecting environment (10%
    // transfer loss, 5% crashes, a deadline armed). The tracked ratio is
    // the fault layer's pricing overhead; `perf_compare` gates it so the
    // per-transfer fault queries never silently blow up round pricing.
    let (_, costs64, steps64) = fixture(64);
    let clean64 =
        RadioEnvironment::builder(LatencyModel::builder().clients(64).seed(7).build().unwrap())
            .build()
            .unwrap();
    let clean64: &dyn ChannelModel = &clean64;
    let faulty64 =
        RadioEnvironment::builder(LatencyModel::builder().clients(64).seed(7).build().unwrap())
            .faults(FaultSpec {
                loss_prob: 0.1,
                crash_prob: 0.05,
                ..FaultSpec::default()
            })
            .seed(7)
            .build()
            .unwrap();
    let faulty64: &dyn ChannelModel = &faulty64;
    let recovery = RecoveryPlan {
        deadline_s: Some(30.0),
        backups: Vec::new(),
    };
    suite.compare(
        "fault_round_64c",
        200,
        || {
            black_box(
                fl_round_recovered(
                    black_box(faulty64),
                    &costs64,
                    &steps64,
                    1,
                    3,
                    None,
                    &recovery,
                )
                .unwrap(),
            );
        },
        || {
            black_box(fl_round(black_box(clean64), &costs64, &steps64, 1, 3).unwrap());
        },
    );

    for m in [1usize, 6, 30] {
        let groups: Vec<Vec<usize>> = (0..m)
            .map(|g| (0..30).filter(|c| c % m == g).collect())
            .collect();
        suite.run(format!("gsfl_round_des_groups_{m}"), 200, || {
            black_box(
                gsfl_round(
                    black_box(env),
                    &costs,
                    &steps,
                    &groups,
                    BandwidthPolicy::Equal,
                    ChannelMode::Dedicated,
                    3,
                )
                .unwrap(),
            );
        });
    }
}
