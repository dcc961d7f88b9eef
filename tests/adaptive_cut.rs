//! Adaptive cut selection, end to end: the policies run through the full
//! session stack, stay deterministic, and in a contested environment the
//! condition-aware policies never lose to the worst fixed cut.

use gsfl::core::config::{DatasetConfig, ExperimentConfig, ModelKind};
use gsfl::core::orchestrator::CutPolicySpec;
use gsfl::core::results::RunResult;
use gsfl::core::runner::Runner;
use gsfl::core::scheme::SchemeKind;
use gsfl::wireless::scenario::AdaptiveCutSpec;
use gsfl::wireless::Scenario;

fn config(cut_index: Option<usize>, policy: CutPolicySpec) -> ExperimentConfig {
    let mut b = ExperimentConfig::builder()
        .clients(6)
        .groups(2)
        .rounds(6)
        .batch_size(4)
        .eval_every(3)
        .learning_rate(0.1)
        .dataset(DatasetConfig {
            classes: 3,
            samples_per_class: 8,
            test_per_class: 4,
            image_size: 8,
        })
        .model(ModelKind::Mlp {
            hidden: vec![16, 16],
        })
        .scenario(Scenario::AdaptiveCut(AdaptiveCutSpec::default()))
        .cut_policy(policy)
        .seed(9);
    if let Some(cut) = cut_index {
        b = b.cut_index(cut);
    }
    b.build().unwrap()
}

fn run(cut_index: Option<usize>, policy: CutPolicySpec) -> RunResult {
    Runner::new(config(cut_index, policy))
        .unwrap()
        .run(SchemeKind::Gsfl)
        .unwrap()
}

#[test]
fn adaptive_policies_never_lose_to_the_worst_fixed_cut() {
    // MLP [16,16] depth 5 ⇒ cuts 1..=4.
    let fixed: Vec<f64> = (1..5)
        .map(|cut| run(Some(cut), CutPolicySpec::Fixed).total_latency_s())
        .collect();
    let worst = fixed.iter().cloned().fold(0.0, f64::max);
    let best = fixed.iter().cloned().fold(f64::INFINITY, f64::min);
    assert!(worst > best, "cuts must actually differ in latency");

    let greedy = run(None, CutPolicySpec::Greedy).total_latency_s();
    let bandit = run(None, CutPolicySpec::Bandit { epsilon: 0.2 }).total_latency_s();
    assert!(
        greedy < worst,
        "greedy ({greedy:.1}s) must beat the worst fixed cut ({worst:.1}s)"
    );
    assert!(
        bandit < worst,
        "bandit ({bandit:.1}s) must beat the worst fixed cut ({worst:.1}s)"
    );
}

#[test]
fn bandit_state_never_leaks_across_runs_of_one_runner() {
    // The policy instance lives in per-run scheme state, so a second
    // run on the same Runner must reproduce the first byte for byte —
    // no warm-started exploration — and parallel run_many must match
    // sequential runs.
    let runner = Runner::new(config(None, CutPolicySpec::Bandit { epsilon: 0.3 })).unwrap();
    let a = runner.run(SchemeKind::Gsfl).unwrap();
    let b = runner.run(SchemeKind::Gsfl).unwrap();
    assert_eq!(a.records, b.records, "second run must not be warm-started");

    let kinds = [SchemeKind::Gsfl, SchemeKind::SplitFed];
    let many = runner.run_many(&kinds).unwrap();
    let sequential: Vec<_> = kinds.iter().map(|&k| runner.run(k).unwrap()).collect();
    for (m, s) in many.iter().zip(&sequential) {
        assert_eq!(m.records, s.records, "{}", s.scheme);
    }
}

#[test]
fn adaptive_runs_are_deterministic() {
    for policy in [
        CutPolicySpec::Greedy,
        CutPolicySpec::Bandit { epsilon: 0.3 },
    ] {
        let a = run(None, policy);
        let b = run(None, policy);
        assert_eq!(a.records.len(), b.records.len());
        for (ra, rb) in a.records.iter().zip(&b.records) {
            assert_eq!(ra, rb, "{policy:?}");
        }
    }
}

#[test]
fn fixed_policy_matches_the_implicit_default() {
    // `cut_policy: Fixed` is the serde default; an explicit Fixed run
    // must be byte-identical to a config that never mentions policies.
    let explicit = run(None, CutPolicySpec::Fixed);
    let implicit = Runner::new(
        ExperimentConfig::builder()
            .clients(6)
            .groups(2)
            .rounds(6)
            .batch_size(4)
            .eval_every(3)
            .learning_rate(0.1)
            .dataset(DatasetConfig {
                classes: 3,
                samples_per_class: 8,
                test_per_class: 4,
                image_size: 8,
            })
            .model(ModelKind::Mlp {
                hidden: vec![16, 16],
            })
            .scenario(Scenario::AdaptiveCut(AdaptiveCutSpec::default()))
            .seed(9)
            .build()
            .unwrap(),
    )
    .unwrap()
    .run(SchemeKind::Gsfl)
    .unwrap();
    assert_eq!(explicit.records, implicit.records);
}

#[test]
fn every_split_scheme_supports_adaptive_cuts() {
    for kind in [
        SchemeKind::VanillaSplit,
        SchemeKind::SplitFed,
        SchemeKind::Gsfl,
    ] {
        let result = Runner::new(config(None, CutPolicySpec::Greedy))
            .unwrap()
            .run(kind)
            .unwrap();
        assert_eq!(result.records.len(), 6, "{kind}");
        assert!(result.total_latency_s() > 0.0, "{kind}");
        assert!(
            result.records.last().unwrap().test_accuracy.is_some(),
            "{kind}"
        );
    }
}
