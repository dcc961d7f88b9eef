//! Time-varying wireless scenarios, end to end: every preset trains
//! through the full session stack, runs are deterministic, and each
//! preset bends per-round latency the way its physics says it should.

use gsfl::core::config::{DatasetConfig, ExperimentConfig, ModelKind, WirelessConfig};
use gsfl::core::context::TrainContext;
use gsfl::core::runner::Runner;
use gsfl::core::scheme::SchemeKind;
use gsfl::wireless::multi_ap::HandoffKind;
use gsfl::wireless::scenario::{
    CongestionSpec, DiurnalSpec, DropoutSpec, MobilitySpec, MultiApSpec, Scenario, StragglerSpec,
};

/// A tiny config; `fading: false` isolates the scenario's own
/// time-variation (static rounds become exactly repeatable).
fn tiny(scenario: Scenario, fading: bool) -> ExperimentConfig {
    ExperimentConfig::builder()
        .clients(6)
        .groups(2)
        .rounds(6)
        .batch_size(4)
        .eval_every(3)
        .learning_rate(0.1)
        .wireless(WirelessConfig {
            fading,
            ..WirelessConfig::default()
        })
        .dataset(DatasetConfig {
            classes: 3,
            samples_per_class: 8,
            test_per_class: 4,
            image_size: 8,
        })
        .model(ModelKind::Mlp { hidden: vec![16] })
        .scenario(scenario)
        .seed(5)
        .build()
        .unwrap()
}

fn round_latencies(config: ExperimentConfig, kind: SchemeKind) -> Vec<f64> {
    Runner::new(config)
        .unwrap()
        .run(kind)
        .unwrap()
        .records
        .iter()
        .map(|r| r.round_latency_s)
        .collect()
}

#[test]
fn every_preset_trains_end_to_end() {
    for scenario in Scenario::presets() {
        for kind in [SchemeKind::Gsfl, SchemeKind::Federated] {
            let result = Runner::new(tiny(scenario, true))
                .unwrap()
                .run(kind)
                .unwrap();
            assert_eq!(result.records.len(), 6, "{}/{kind}", scenario.name());
            assert!(result.total_latency_s() > 0.0, "{}/{kind}", scenario.name());
            assert!(
                result.records.last().unwrap().test_accuracy.is_some(),
                "{}/{kind}",
                scenario.name()
            );
        }
    }
}

#[test]
fn every_preset_is_deterministic() {
    for scenario in Scenario::presets() {
        let a = Runner::new(tiny(scenario, true))
            .unwrap()
            .run(SchemeKind::Gsfl)
            .unwrap();
        let b = Runner::new(tiny(scenario, true))
            .unwrap()
            .run(SchemeKind::Gsfl)
            .unwrap();
        assert_eq!(a.records.len(), b.records.len(), "{}", scenario.name());
        for (ra, rb) in a.records.iter().zip(&b.records) {
            assert_eq!(ra, rb, "{}", scenario.name());
        }
    }
}

#[test]
fn static_rounds_repeat_exactly_without_fading() {
    let lats = round_latencies(tiny(Scenario::Static, false), SchemeKind::VanillaSplit);
    for (i, l) in lats.iter().enumerate() {
        assert_eq!(*l, lats[0], "round {}: static must not vary", i + 1);
    }
}

#[test]
fn mobility_varies_per_round_latency() {
    let scenario = Scenario::Mobility(MobilitySpec {
        min_m: 20.0,
        max_m: 200.0,
        epoch_rounds: 3,
    });
    let lats = round_latencies(tiny(scenario, false), SchemeKind::VanillaSplit);
    assert!(
        lats.iter().any(|&l| (l - lats[0]).abs() > 1e-12),
        "mobility must change round latency: {lats:?}"
    );
}

#[test]
fn diurnal_congestion_slows_trough_rounds() {
    // Period 6 with trough 0.25: round 3 sits at the congestion trough,
    // rounds 6 back near the peak. Communication over a quarter of the
    // band must be strictly slower.
    let scenario = Scenario::Diurnal(DiurnalSpec {
        period_rounds: 6,
        trough_frac: 0.25,
    });
    let diurnal = round_latencies(tiny(scenario, false), SchemeKind::VanillaSplit);
    let baseline = round_latencies(tiny(Scenario::Static, false), SchemeKind::VanillaSplit);
    assert!(
        diurnal[2] > baseline[2],
        "trough round must be slower: {} vs {}",
        diurnal[2],
        baseline[2]
    );
    assert!(
        diurnal[2] > diurnal[5],
        "trough must be slower than the next peak: {diurnal:?}"
    );
}

#[test]
fn congestion_spikes_slow_every_affected_round() {
    // probability 1.0: every round spikes down to a tenth of the band.
    let scenario = Scenario::Congested(CongestionSpec {
        probability: 1.0,
        frac: 0.1,
    });
    let spiked = round_latencies(tiny(scenario, false), SchemeKind::VanillaSplit);
    let baseline = round_latencies(tiny(Scenario::Static, false), SchemeKind::VanillaSplit);
    for (r, (s, b)) in spiked.iter().zip(&baseline).enumerate() {
        assert!(s > b, "round {}: congested {s} must exceed {b}", r + 1);
    }
}

#[test]
fn stragglers_slow_every_round() {
    let scenario = Scenario::Stragglers(StragglerSpec {
        probability: 1.0,
        slowdown: 4.0,
    });
    let slowed = round_latencies(tiny(scenario, false), SchemeKind::VanillaSplit);
    let baseline = round_latencies(tiny(Scenario::Static, false), SchemeKind::VanillaSplit);
    for (r, (s, b)) in slowed.iter().zip(&baseline).enumerate() {
        assert!(s > b, "round {}: straggling {s} must exceed {b}", r + 1);
    }
}

#[test]
fn dropouts_shrink_participation() {
    let config = tiny(Scenario::Dropouts(DropoutSpec { probability: 0.5 }), false);
    assert!(
        (config.availability - 1.0).abs() < 1e-12,
        "churn must come from the environment, not the config"
    );
    let ctx = TrainContext::from_config(config).unwrap();
    let mut out = 0usize;
    let mut participations = Vec::new();
    for round in 1..=6u64 {
        let avail = ctx.available_clients(round);
        out += 6 - avail.len();
        participations.push(avail.len());
    }
    assert!(out > 0, "p=0.5 dropouts must knock clients out");
    assert!(
        participations.iter().any(|&n| n > 0),
        "someone must participate"
    );
    // The conditions snapshot agrees with the participation logic:
    // identical per-client verdicts, and the context's never-empty
    // fallback kicks in exactly when the environment drops everyone.
    for round in 1..=6u64 {
        let cond = ctx.conditions(round).unwrap();
        for c in &cond.clients {
            assert_eq!(c.available, ctx.is_available(round, c.client));
        }
        let from_env = cond.available_clients();
        let from_ctx = ctx.available_clients(round);
        if from_env.is_empty() {
            assert_eq!(from_ctx, vec![(round as usize) % 6]);
        } else {
            assert_eq!(from_ctx, from_env);
        }
    }
}

#[test]
fn dropouts_change_round_traffic() {
    let with_dropouts = Runner::new(tiny(
        Scenario::Dropouts(DropoutSpec { probability: 0.5 }),
        false,
    ))
    .unwrap()
    .run(SchemeKind::Federated)
    .unwrap();
    let baseline = Runner::new(tiny(Scenario::Static, false))
        .unwrap()
        .run(SchemeKind::Federated)
        .unwrap();
    let up = |r: &gsfl::core::results::RunResult| -> Vec<u64> {
        r.records.iter().map(|x| x.bytes_up).collect()
    };
    assert_ne!(
        up(&with_dropouts),
        up(&baseline),
        "dropped clients must not exchange models"
    );
}

#[test]
fn scenario_survives_config_serde() {
    let config = tiny(
        Scenario::Stragglers(StragglerSpec {
            probability: 0.3,
            slowdown: 2.5,
        }),
        true,
    );
    let json = serde_json::to_string(&config).unwrap();
    let back: ExperimentConfig = serde_json::from_str(&json).unwrap();
    assert_eq!(back, config);
    // Old configs without the field still load, defaulting to Static.
    let stripped = json.replace(
        "\"scenario\":{\"Stragglers\":{\"probability\":0.3,\"slowdown\":2.5}},",
        "",
    );
    assert_ne!(stripped, json, "field must have been present");
    let legacy: ExperimentConfig = serde_json::from_str(&stripped).unwrap();
    assert_eq!(legacy.scenario, Scenario::Static);
}

/// Sets one wireless input of a config to the value under test.
type Setter = fn(&mut ExperimentConfig, f64);

#[test]
fn non_finite_wireless_inputs_are_rejected() {
    let cases: [(&str, Setter); 10] = [
        ("wireless.bandwidth_mhz", |c, x| {
            c.wireless.bandwidth_mhz = x
        }),
        ("wireless.server_gflops", |c, x| {
            c.wireless.server_gflops = x
        }),
        ("wireless.device_min_gflops", |c, x| {
            c.wireless.device_min_gflops = x
        }),
        ("wireless.device_max_gflops", |c, x| {
            c.wireless.device_max_gflops = x
        }),
        ("congested.frac", |c, x| {
            c.scenario = Scenario::Congested(CongestionSpec {
                probability: 1.0,
                frac: x,
            })
        }),
        ("mobility.min_m", |c, x| {
            c.scenario = Scenario::Mobility(MobilitySpec {
                min_m: x,
                ..MobilitySpec::default()
            })
        }),
        ("mobility.max_m", |c, x| {
            c.scenario = Scenario::Mobility(MobilitySpec {
                max_m: x,
                ..MobilitySpec::default()
            })
        }),
        ("stragglers.slowdown", |c, x| {
            c.scenario = Scenario::Stragglers(StragglerSpec {
                slowdown: x,
                ..StragglerSpec::default()
            })
        }),
        ("multi_ap.spacing_m", |c, x| {
            c.scenario = Scenario::MultiAp(MultiApSpec {
                spacing_m: x,
                ..MultiApSpec::default()
            })
        }),
        ("multi_ap.handoff.margin_db", |c, x| {
            c.scenario = Scenario::MultiAp(MultiApSpec {
                handoff: HandoffKind::Hysteresis { margin_db: x },
                ..MultiApSpec::default()
            })
        }),
    ];
    for (field, set) in cases {
        for x in [f64::NAN, f64::INFINITY] {
            let mut config = tiny(Scenario::Static, true);
            set(&mut config, x);
            assert!(
                Runner::new(config).is_err(),
                "{field} = {x} must be rejected"
            );
        }
    }
}
