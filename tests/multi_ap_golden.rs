//! The multi-AP preset must degenerate exactly: with a single AP at the
//! origin, no roaming mobility and zero interference, the `multi_ap`
//! scenario's radio environment has to reproduce the golden round
//! records of the `static` scenario — byte for byte, through every
//! scheme and the full session stack.
//!
//! This reuses `tests/fixtures/static_round_records.json` (generated by
//! the pre-redesign code): it guards the AP-layout, handoff and per-AP
//! discrete-event paths against moving a single bit on the default
//! configuration.

use gsfl::core::config::{DatasetConfig, ExperimentConfig, ModelKind};
use gsfl::core::results::RoundRecord;
use gsfl::core::runner::Runner;
use gsfl::core::scheme::SchemeKind;
use gsfl::wireless::multi_ap::HandoffKind;
use gsfl::wireless::scenario::MultiApSpec;
use gsfl::wireless::Scenario;
use serde::Serialize;

#[derive(Serialize)]
struct Fixture {
    case: String,
    scheme: String,
    records: Vec<RoundRecord>,
}

fn fixture_config(availability: f64, seed: u64) -> ExperimentConfig {
    ExperimentConfig::builder()
        .clients(6)
        .groups(2)
        .rounds(4)
        .batch_size(4)
        .eval_every(2)
        .learning_rate(0.1)
        .availability(availability)
        .dataset(DatasetConfig {
            classes: 4,
            samples_per_class: 8,
            test_per_class: 4,
            image_size: 8,
        })
        .model(ModelKind::Mlp { hidden: vec![16] })
        .scenario(Scenario::MultiAp(MultiApSpec {
            aps: 1,
            spacing_m: 100.0,
            handoff: HandoffKind::Nearest,
            reuse_factor: 0.0,
            mobility: None,
            backhaul: None,
        }))
        .seed(seed)
        .build()
        .unwrap()
}

#[test]
fn single_ap_multi_ap_scenario_reproduces_static_golden_fixture() {
    let mut fixtures = Vec::new();
    for (label, availability, seed) in [("full", 1.0f64, 7u64), ("churn", 0.7, 11)] {
        let runner = Runner::new(fixture_config(availability, seed)).unwrap();
        for kind in SchemeKind::all() {
            let result = runner.run(kind).unwrap();
            fixtures.push(Fixture {
                case: label.to_string(),
                scheme: result.scheme,
                records: result.records,
            });
        }
    }
    let got = serde_json::to_string_pretty(&fixtures).unwrap();
    let golden = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/static_round_records.json"
    ))
    .expect("golden fixture present");
    assert_eq!(
        got, golden,
        "a degenerate multi_ap scenario (1 AP, no interference) must \
         reproduce the static-scenario golden records byte for byte"
    );
}
