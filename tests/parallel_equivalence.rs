//! Parallel-client execution must be invisible in the results: training
//! the FedAvg-style schemes and SL with any forced thread count has to
//! produce records byte-identical to the sequential path. Work is partitioned at
//! fixed client/group boundaries and aggregated in fixed order, so this
//! holds by construction — and this suite pins it.

use gsfl::core::compression::CompressionSpec;
use gsfl::core::config::{DatasetConfig, ExperimentConfig, ModelKind};
use gsfl::core::orchestrator::OrchestratorSpec;
use gsfl::core::results::RoundRecord;
use gsfl::core::runner::Runner;
use gsfl::core::scheme::SchemeKind;
use gsfl::nn::codec::CodecSpec;
use gsfl::wireless::Scenario;

fn config(threads: Option<usize>) -> ExperimentConfig {
    let mut b = ExperimentConfig::builder()
        .clients(8)
        .groups(4)
        .rounds(3)
        .batch_size(8)
        .eval_every(1)
        .learning_rate(0.1)
        .momentum(0.9)
        .dataset(DatasetConfig {
            classes: 4,
            samples_per_class: 10,
            test_per_class: 4,
            image_size: 8,
        })
        .model(ModelKind::Mlp { hidden: vec![16] })
        .seed(17);
    if let Some(n) = threads {
        b = b.client_threads(n);
    }
    b.build().unwrap()
}

/// [`config`] on the `orchestrated` preset under the greedy planner with
/// a lossy codec and error feedback: per-client cuts, the planner's codec
/// arms and the EF residuals all cross the fan-out.
fn orchestrated_config(threads: Option<usize>) -> ExperimentConfig {
    let mut cfg = config(threads);
    // A moving cut cannot carry optimizer velocity.
    cfg.momentum = 0.0;
    cfg.scenario = Scenario::preset("orchestrated").unwrap();
    cfg.orchestrator = OrchestratorSpec::Greedy;
    cfg.compression = CompressionSpec::uniform(CodecSpec::IntQ { bits: 4 }).with_error_feedback();
    cfg
}

fn assert_records_bitwise_equal(
    kind: SchemeKind,
    a: &[RoundRecord],
    b: &[RoundRecord],
    label: &str,
) {
    assert_eq!(a.len(), b.len(), "{kind}: round count ({label})");
    for (ra, rb) in a.iter().zip(b) {
        assert_eq!(
            ra.train_loss.to_bits(),
            rb.train_loss.to_bits(),
            "{kind}: train_loss ({label})"
        );
        assert_eq!(
            ra.test_accuracy.map(f64::to_bits),
            rb.test_accuracy.map(f64::to_bits),
            "{kind}: test_accuracy ({label})"
        );
        assert_eq!(
            ra.round_latency_s.to_bits(),
            rb.round_latency_s.to_bits(),
            "{kind}: latency ({label})"
        );
        assert_eq!(ra.bytes_up, rb.bytes_up, "{kind}: bytes_up ({label})");
        assert_eq!(ra.bytes_down, rb.bytes_down, "{kind}: bytes_down ({label})");
    }
}

#[test]
fn forced_thread_counts_are_byte_identical_to_sequential() {
    // Federated and SplitFed fan clients out; GSFL fans groups out; SL
    // trains its one chain inline whatever the thread count.
    for (input, make) in [
        ("static", config as fn(Option<usize>) -> ExperimentConfig),
        ("orchestrated", orchestrated_config),
    ] {
        for kind in [
            SchemeKind::Federated,
            SchemeKind::VanillaSplit,
            SchemeKind::SplitFed,
            SchemeKind::Gsfl,
        ] {
            let sequential = Runner::new(make(Some(1))).unwrap().run(kind).unwrap();
            for threads in [2usize, 4, 8] {
                let parallel = Runner::new(make(Some(threads))).unwrap().run(kind).unwrap();
                assert_records_bitwise_equal(
                    kind,
                    &sequential.records,
                    &parallel.records,
                    &format!("{input}, {threads} threads"),
                );
            }
        }
    }
}

#[test]
fn budgeted_default_matches_forced_sequential() {
    // The default (budget-driven) fan-out must also be invisible.
    for kind in [SchemeKind::Federated, SchemeKind::SplitFed] {
        let sequential = Runner::new(config(Some(1))).unwrap().run(kind).unwrap();
        let budgeted = Runner::new(config(None)).unwrap().run(kind).unwrap();
        assert_records_bitwise_equal(kind, &sequential.records, &budgeted.records, "budgeted");
    }
}

#[test]
fn client_threads_survives_config_serde() {
    let cfg = config(Some(3));
    let json = serde_json::to_string(&cfg).unwrap();
    let back: ExperimentConfig = serde_json::from_str(&json).unwrap();
    assert_eq!(back.client_threads, Some(3));
}
