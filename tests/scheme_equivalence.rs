//! Structural equivalences between schemes:
//!
//! * SL is computed as GSFL over one chain of the admitted clients, so
//!   GSFL with one round-robin group trains and charges the same rounds;
//!   only GSFL's one-replica FedAvg task lengthens its round, by well
//!   under 1e-5 relative.
//! * SplitFed is computed as GSFL over singleton groups in admitted
//!   order, so GSFL whose grouping yields singletons in client order
//!   produces the same records; the schemes differ in storage
//!   accounting, which grows with M for GSFL and with N for SplitFed.
//! * GSFL group training on threads is deterministic: repeated runs give
//!   bit-identical records.
//! * Split and full models compute the same function.

use gsfl::core::config::{DatasetConfig, ExperimentConfig, GroupingKind, ModelKind};
use gsfl::core::runner::Runner;
use gsfl::core::scheme::SchemeKind;
use gsfl::nn::model::Mlp;
use gsfl::nn::split::SplitNetwork;
use gsfl::tensor::Tensor;
use gsfl::wireless::Scenario;

fn config(clients: usize, groups: usize) -> ExperimentConfig {
    ExperimentConfig::builder()
        .clients(clients)
        .groups(groups)
        .rounds(4)
        .batch_size(8)
        .eval_every(2)
        .dataset(DatasetConfig {
            classes: 4,
            samples_per_class: 16,
            test_per_class: 6,
            image_size: 8,
        })
        .model(ModelKind::Mlp { hidden: vec![16] })
        .seed(21)
        .build()
        .unwrap()
}

#[test]
fn gsfl_with_singleton_groups_matches_splitfed_trajectory() {
    let runner = Runner::new(config(6, 6)).unwrap();
    let gsfl = runner.run(SchemeKind::Gsfl).unwrap();
    let sfl = runner.run(SchemeKind::SplitFed).unwrap();
    assert_eq!(
        runner.context().groups,
        (0..6).map(|c| vec![c]).collect::<Vec<_>>(),
        "M = N groups are singletons in client order"
    );
    assert_eq!(gsfl.records.len(), sfl.records.len());
    for (a, b) in gsfl.records.iter().zip(&sfl.records) {
        assert_eq!(a, b, "round {}", a.round);
    }
    // The storage accounting is where they differ: SFL keeps N replicas,
    // GSFL(M=N) also N — but at the paper's M=6 < N the gap appears.
    assert_eq!(gsfl.server_storage_bytes, sfl.server_storage_bytes);
}

#[test]
fn gsfl_with_one_group_matches_sl_trajectory() {
    // `hierarchical` is left out: there GSFL also ships its one-group
    // aggregate over the backhaul, which SL never does.
    for name in ["static", "mobility", "chaos"] {
        let mut cfg = config(8, 1);
        cfg.rounds = 3;
        cfg.grouping = GroupingKind::RoundRobin;
        cfg.scenario = Scenario::preset(name).unwrap();
        let runner = Runner::new(cfg).unwrap();
        let sl = runner.run(SchemeKind::VanillaSplit).unwrap();
        let gsfl = runner.run(SchemeKind::Gsfl).unwrap();
        assert_eq!(sl.records.len(), gsfl.records.len(), "{name}");
        for (a, b) in sl.records.iter().zip(&gsfl.records) {
            let at = format!("{name}, round {}", a.round);
            assert_eq!(a.train_loss.to_bits(), b.train_loss.to_bits(), "{at}");
            assert_eq!(
                a.test_accuracy.map(f64::to_bits),
                b.test_accuracy.map(f64::to_bits),
                "{at}"
            );
            assert_eq!(
                (a.bytes_up, a.bytes_down, a.bytes_up_raw, a.bytes_down_raw),
                (b.bytes_up, b.bytes_down, b.bytes_up_raw, b.bytes_down_raw),
                "{at}"
            );
            assert_eq!(
                a.client_energy_j.to_bits(),
                b.client_energy_j.to_bits(),
                "{at}"
            );
            assert_eq!(a.lost_clients, b.lost_clients, "{at}");
            let gap = (a.round_latency_s - b.round_latency_s).abs() / a.round_latency_s;
            assert!(gap <= 1e-5, "{at}: latency gap {gap:e}");
        }
    }
}

#[test]
fn gsfl_storage_is_m_out_of_n_of_splitfed() {
    let runner = Runner::new(config(6, 2)).unwrap();
    let gsfl = runner.run(SchemeKind::Gsfl).unwrap();
    let sfl = runner.run(SchemeKind::SplitFed).unwrap();
    assert_eq!(gsfl.server_storage_bytes * 3, sfl.server_storage_bytes);
}

#[test]
fn parallel_group_training_is_deterministic() {
    let runner = Runner::new(config(8, 4)).unwrap();
    let a = runner.run(SchemeKind::Gsfl).unwrap();
    let b = runner.run(SchemeKind::Gsfl).unwrap();
    for (ra, rb) in a.records.iter().zip(&b.records) {
        assert_eq!(ra.train_loss.to_bits(), rb.train_loss.to_bits());
        assert_eq!(
            ra.test_accuracy.map(f64::to_bits),
            rb.test_accuracy.map(f64::to_bits)
        );
    }
}

#[test]
fn split_model_computes_same_function_as_whole() {
    let whole = Mlp::new(12, &[10, 8], 3, 5).into_sequential();
    for cut in 1..whole.depth() {
        let mut reference = whole.clone();
        let mut split = SplitNetwork::split(whole.clone(), cut).unwrap();
        let x = Tensor::from_fn(&[4, 12], |i| ((i * 7) % 13) as f32 * 0.1 - 0.6);
        let expect = reference.forward(&x).unwrap();
        let smashed = split.client.forward(&x).unwrap();
        let got = split.server.forward(&smashed).unwrap();
        assert!(
            got.approx_eq(&expect, 1e-5),
            "cut {cut} changes the function"
        );
    }
}

#[test]
fn all_schemes_share_identical_data_and_init() {
    // Two runners from the same config produce identical contexts; the
    // first evaluation of CL and SL (same model init, before divergence)
    // must agree at round 0 semantics — we check the shared context
    // instead: shard sizes and group assignment.
    let r1 = Runner::new(config(6, 3)).unwrap();
    let r2 = Runner::new(config(6, 3)).unwrap();
    assert_eq!(r1.context().groups, r2.context().groups);
    let sizes1: Vec<usize> = r1.context().train_shards.iter().map(|s| s.len()).collect();
    let sizes2: Vec<usize> = r2.context().train_shards.iter().map(|s| s.len()).collect();
    assert_eq!(sizes1, sizes2);
}
