//! Bit-identity across every wireless preset: one record digest per run,
//! pinned in `tests/fixtures/preset_digests.txt`.
//!
//! The golden fixtures pin full records for the `static` scenario and a
//! single-AP `multi_ap` one. This test covers the rest of the preset
//! space — mobility, traces, several APs, interference, stragglers and
//! faults — at the cost of storing only a digest per run. Each digest is
//! a 64-bit FNV-1a over every field of every `RoundRecord`, bit for bit,
//! in the same field order as the benchmark's digest. Runs are short:
//! 3 rounds, 8 clients, a small MLP.
//!
//! Runs: FedAvg, vanilla SL, SplitFed and GSFL on every preset; the
//! greedy orchestrator on `orchestrated` and `trace_replay`; the bandit
//! orchestrator and a greedy cut policy once each; GSFL under a shared
//! bandwidth pool, which prices group shares; `chaos` with a round
//! deadline; and, for the three split schemes, a lossy client-model
//! codec with error feedback on `static`, under the greedy orchestrator
//! (per-client cuts) on `orchestrated`, and on population-mode `chaos`
//! with standby clients — the cases that pin relay residuals and
//! backup trainees bit for bit. The split schemes also run with
//! momentum 0.9, which pins SL's optimizer velocity carried across
//! rounds; SL runs once under a shared bandwidth pool (its whole-band
//! share) and once under the greedy cut policy.

use gsfl::core::compression::CompressionSpec;
use gsfl::core::config::{DatasetConfig, ExperimentConfig, ModelKind};
use gsfl::core::latency::ChannelMode;
use gsfl::core::orchestrator::{CutPolicySpec, OrchestratorSpec};
use gsfl::core::population::PopulationConfig;
use gsfl::core::recovery::{DeadlinePolicy, RecoverySpec};
use gsfl::core::results::RoundRecord;
use gsfl::core::runner::Runner;
use gsfl::core::scheme::SchemeKind;
use gsfl::nn::codec::CodecSpec;
use gsfl::wireless::allocation::BandwidthPolicy;
use gsfl::wireless::Scenario;

const SCHEMES: [SchemeKind; 4] = [
    SchemeKind::Federated,
    SchemeKind::VanillaSplit,
    SchemeKind::SplitFed,
    SchemeKind::Gsfl,
];

/// 64-bit FNV-1a over every field of every record.
fn digest(records: &[RoundRecord]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for r in records {
        eat(r.round as u64);
        eat(r.round_latency_s.to_bits());
        eat(r.cumulative_latency_s.to_bits());
        eat(r.train_loss.to_bits());
        eat(r.test_accuracy.map_or(u64::MAX, f64::to_bits));
        eat(r.bytes_up);
        eat(r.bytes_down);
        eat(r.bytes_up_raw);
        eat(r.bytes_down_raw);
        eat(r.client_energy_j.to_bits());
        eat(r.retries);
        eat(r.wasted_airtime_bytes);
        eat(u64::from(r.lost_clients));
        eat(u64::from(r.backups_activated));
        eat(u64::from(r.quorum_met));
    }
    h
}

fn config(scenario: Scenario) -> ExperimentConfig {
    ExperimentConfig::builder()
        .clients(8)
        .groups(3)
        .rounds(3)
        .batch_size(4)
        .eval_every(3)
        .learning_rate(0.1)
        .dataset(DatasetConfig {
            classes: 4,
            samples_per_class: 8,
            test_per_class: 4,
            image_size: 8,
        })
        .model(ModelKind::Mlp {
            hidden: vec![16, 8],
        })
        .scenario(scenario)
        .seed(5)
        .build()
        .unwrap()
}

fn preset(name: &str) -> Scenario {
    Scenario::preset(name).expect("preset exists")
}

/// Every pinned run: (label, config, scheme).
fn cases() -> Vec<(String, ExperimentConfig, SchemeKind)> {
    let mut cases = Vec::new();
    for scenario in Scenario::presets() {
        for kind in SCHEMES {
            let label = format!("{} {} default", scenario.name(), kind.name());
            cases.push((label, config(scenario), kind));
        }
    }
    for name in ["orchestrated", "trace_replay"] {
        for kind in SCHEMES {
            let mut cfg = config(preset(name));
            cfg.orchestrator = OrchestratorSpec::Greedy;
            cases.push((format!("{name} {} greedy", kind.name()), cfg, kind));
        }
    }
    let mut bandit = config(preset("orchestrated"));
    bandit.orchestrator = OrchestratorSpec::Bandit { epsilon: 0.3 };
    cases.push((
        "orchestrated splitfed bandit".to_string(),
        bandit,
        SchemeKind::SplitFed,
    ));
    let mut cut_only = config(preset("adaptive_cut"));
    cut_only.cut_policy = CutPolicySpec::Greedy;
    cases.push((
        "adaptive_cut gsfl greedy-cut".to_string(),
        cut_only,
        SchemeKind::Gsfl,
    ));
    for name in ["static", "interference", "multi_ap"] {
        let mut cfg = config(preset(name));
        cfg.channel = ChannelMode::SharedPool;
        cfg.bandwidth_policy = BandwidthPolicy::ChannelAware;
        cases.push((format!("{name} gsfl shared-pool"), cfg, SchemeKind::Gsfl));
    }
    for kind in SCHEMES {
        let mut cfg = config(preset("chaos"));
        cfg.recovery = RecoverySpec {
            deadline: Some(DeadlinePolicy {
                deadline_s: 0.16,
                min_quorum_frac: 0.3,
            }),
            backups: 0,
        };
        cases.push((format!("chaos {} deadline", kind.name()), cfg, kind));
    }
    let lossy = CompressionSpec::uniform(CodecSpec::IntQ { bits: 4 }).with_error_feedback();
    for kind in [
        SchemeKind::VanillaSplit,
        SchemeKind::SplitFed,
        SchemeKind::Gsfl,
    ] {
        let mut cfg = config(preset("static"));
        cfg.compression = lossy;
        cases.push((format!("static {} intq4-ef", kind.name()), cfg, kind));
        let mut cfg = config(preset("orchestrated"));
        cfg.compression = lossy;
        cfg.orchestrator = OrchestratorSpec::Greedy;
        cases.push((
            format!("orchestrated {} greedy intq4-ef", kind.name()),
            cfg,
            kind,
        ));
        let mut cfg = config(preset("chaos"));
        cfg.compression = lossy;
        cfg.population = Some(PopulationConfig {
            clients: 1_000,
            samples_per_client: 8,
        });
        cfg.recovery = RecoverySpec {
            deadline: None,
            backups: 2,
        };
        cases.push((
            format!("chaos {} population backups intq4-ef", kind.name()),
            cfg,
            kind,
        ));
    }
    for kind in [
        SchemeKind::VanillaSplit,
        SchemeKind::SplitFed,
        SchemeKind::Gsfl,
    ] {
        let mut cfg = config(preset("static"));
        cfg.momentum = 0.9;
        cases.push((format!("static {} momentum", kind.name()), cfg, kind));
    }
    let mut cfg = config(preset("static"));
    cfg.channel = ChannelMode::SharedPool;
    cfg.bandwidth_policy = BandwidthPolicy::ChannelAware;
    cases.push((
        "static sl shared-pool".to_string(),
        cfg,
        SchemeKind::VanillaSplit,
    ));
    let mut cut_only = config(preset("adaptive_cut"));
    cut_only.cut_policy = CutPolicySpec::Greedy;
    cases.push((
        "adaptive_cut sl greedy-cut".to_string(),
        cut_only,
        SchemeKind::VanillaSplit,
    ));
    cases
}

#[test]
fn every_preset_reproduces_its_pinned_record_digest() {
    let mut table = String::new();
    for (label, cfg, kind) in cases() {
        let result = Runner::new(cfg)
            .unwrap_or_else(|e| panic!("{label}: {e}"))
            .run(kind)
            .unwrap_or_else(|e| panic!("{label}: {e}"));
        assert!(!result.records.is_empty(), "{label}: no records");
        table.push_str(&format!("{label} {:016x}\n", digest(&result.records)));
    }
    let pinned = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/preset_digests.txt"
    ))
    .unwrap_or_default();
    let mismatched: Vec<String> = table
        .lines()
        .zip(pinned.lines().chain(std::iter::repeat("<missing>")))
        .filter(|(got, want)| got != want)
        .map(|(got, want)| format!("  got  {got}\n  want {want}"))
        .collect();
    assert!(
        mismatched.is_empty() && table.lines().count() == pinned.lines().count(),
        "record digests moved:\n{}\nfull table:\n{table}",
        mismatched.join("\n")
    );
}
