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
//!
//! Every run above trains an MLP.
//! `every_scheme_reproduces_its_pinned_deepthin_digest` pins all five
//! schemes training the DeepThin CNN on `static`, which is what covers
//! convolution, max-pooling and flattening. The conv weight gradient
//! sums through a dot kernel that regroups its partial sums on the AVX2
//! tier, so CNN records are equal only within epsilon across tiers: each
//! CNN row is pinned per tier, in `tests/fixtures/deepthin_digests.txt`,
//! and its label ends in the tier that produced it (`@avx2`, `@scalar`).
//!
//! Record digests see only 3 rounds of each environment, so a stream that
//! first fires later (a congestion spike, a handoff) slips past them.
//! `every_preset_environment_reproduces_its_pinned_digest` pins what each
//! preset's environment itself answers over 48 rounds, in
//! `tests/fixtures/environment_digests.txt`.

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
use gsfl::tensor::simd::active_isa;
use gsfl::wireless::allocation::BandwidthPolicy;
use gsfl::wireless::environment::{ChannelModel, Direction, LinkState};
use gsfl::wireless::latency::LatencyModel;
use gsfl::wireless::Scenario;

const SCHEMES: [SchemeKind; 4] = [
    SchemeKind::Federated,
    SchemeKind::VanillaSplit,
    SchemeKind::SplitFed,
    SchemeKind::Gsfl,
];

/// 64-bit FNV-1a, fed one `u64` at a time.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn eat(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn f64(&mut self, x: f64) {
        self.eat(x.to_bits());
    }

    /// An optional value: a tag, then the value's bits.
    fn opt(&mut self, x: Option<f64>) {
        match x {
            Some(v) => {
                self.eat(1);
                self.f64(v);
            }
            None => self.eat(0),
        }
    }
}

/// 64-bit FNV-1a over every field of every record.
fn digest(records: &[RoundRecord]) -> u64 {
    let mut h = Fnv::new();
    for r in records {
        h.eat(r.round as u64);
        h.f64(r.round_latency_s);
        h.f64(r.cumulative_latency_s);
        h.f64(r.train_loss);
        h.eat(r.test_accuracy.map_or(u64::MAX, f64::to_bits));
        h.eat(r.bytes_up);
        h.eat(r.bytes_down);
        h.eat(r.bytes_up_raw);
        h.eat(r.bytes_down_raw);
        h.f64(r.client_energy_j);
        h.eat(r.retries);
        h.eat(r.wasted_airtime_bytes);
        h.eat(u64::from(r.lost_clients));
        h.eat(u64::from(r.backups_activated));
        h.eat(u64::from(r.quorum_met));
    }
    h.0
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

/// The pinned fixture `name`, or an empty string if it is missing.
fn fixture(name: &str) -> String {
    let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(path).unwrap_or_default()
}

/// Compares `table` with the pinned fixture `name`, line by line.
fn assert_pinned(table: &str, name: &str, what: &str) {
    assert_matches(table, &fixture(name), what);
}

/// Compares `table` with `pinned`, line by line.
fn assert_matches(table: &str, pinned: &str, what: &str) {
    let mismatched: Vec<String> = table
        .lines()
        .zip(pinned.lines().chain(std::iter::repeat("<missing>")))
        .filter(|(got, want)| got != want)
        .map(|(got, want)| format!("  got  {got}\n  want {want}"))
        .collect();
    assert!(
        mismatched.is_empty() && table.lines().count() == pinned.lines().count(),
        "{what} moved:\n{}\nfull table:\n{table}",
        mismatched.join("\n")
    );
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
    assert_pinned(&table, "preset_digests.txt", "record digests");
}

/// The DeepThin run: six clients in two groups on 8×8 images.
fn deepthin_config() -> ExperimentConfig {
    ExperimentConfig::builder()
        .clients(6)
        .groups(2)
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
        .model(ModelKind::DeepThin {
            conv1: 4,
            conv2: 8,
            fc: 16,
        })
        .scenario(preset("static"))
        .seed(5)
        .build()
        .unwrap()
}

#[test]
fn every_scheme_reproduces_its_pinned_deepthin_digest() {
    let isa = active_isa().name();
    let mut table = String::new();
    for kind in SchemeKind::all() {
        let label = format!("static {} deepthin@{isa}", kind.name());
        let result = Runner::new(deepthin_config())
            .unwrap_or_else(|e| panic!("{label}: {e}"))
            .run(kind)
            .unwrap_or_else(|e| panic!("{label}: {e}"));
        assert!(!result.records.is_empty(), "{label}: no records");
        table.push_str(&format!("{label} {:016x}\n", digest(&result.records)));
    }
    let tag = format!("@{isa} ");
    let pinned: String = fixture("deepthin_digests.txt")
        .lines()
        .filter(|line| line.contains(&tag))
        .map(|line| format!("{line}\n"))
        .collect();
    assert_matches(&table, &pinned, "DeepThin record digests");
}

/// Rounds each environment digest covers.
const ENV_ROUNDS: u64 = 48;

/// Transfers per client and round whose fate the digest reads.
const ENV_TRANSFERS: u64 = 4;

/// 64-bit FNV-1a over everything `env` answers in its first
/// [`ENV_ROUNDS`] rounds: each round's snapshot, every per-client query,
/// each client's priced links both ways at two shares, alone and against
/// every other client, and every AP's server and backhaul.
fn environment_digest(env: &dyn ChannelModel) -> u64 {
    let mut h = Fnv::new();
    let clients = env.client_count();
    h.eat(clients as u64);
    h.eat(env.ap_count() as u64);
    for round in 0..ENV_ROUNDS {
        h.f64(env.total_bandwidth(round).as_hz());
        let cond = env.conditions(round).unwrap();
        h.eat(cond.round);
        h.f64(cond.bandwidth.as_hz());
        for c in &cond.clients {
            h.eat(c.client as u64);
            h.f64(c.distance.as_meters());
            h.f64(c.compute_rate.as_flops_per_sec());
            h.f64(c.uplink_gain);
            h.f64(c.downlink_gain);
            h.eat(u64::from(c.available));
            h.eat(c.ap as u64);
            match c.link {
                LinkState::Radio {
                    uplink_rx_dbm,
                    downlink_rx_dbm,
                } => {
                    h.eat(0);
                    h.f64(uplink_rx_dbm);
                    h.f64(downlink_rx_dbm);
                }
                LinkState::Measured {
                    bandwidth_bps,
                    rtt_s,
                } => {
                    h.eat(1);
                    h.f64(bandwidth_bps);
                    h.f64(rtt_s);
                }
            }
        }
        h.eat(cond.ap_paths.len() as u64);
        for p in &cond.ap_paths {
            h.f64(p.uplink_rx_dbm);
            h.f64(p.downlink_rx_dbm);
        }
        for c in 0..clients {
            h.eat(u64::from(env.is_available(c, round)));
            h.eat(env.ap_of(c, round).unwrap() as u64);
            h.f64(env.distance(c, round).unwrap().as_meters());
            h.f64(env.device_rate(c, round).unwrap().as_flops_per_sec());
            h.opt(env.crash_point(c, round));
            for t in 0..ENV_TRANSFERS {
                let o = env.transfer_outcome(c, round, t);
                h.eat(u64::from(o.attempts));
                h.f64(o.backoff_s);
            }
            let others: Vec<usize> = (0..clients).filter(|&o| o != c).collect();
            for dir in [Direction::Uplink, Direction::Downlink] {
                for share in [cond.dedicated_share(), cond.bandwidth] {
                    for concurrent in [&[][..], &others[..]] {
                        let link = env.link(&cond, c, dir, share, concurrent).unwrap();
                        h.f64(link.rate_bps);
                        h.f64(link.latency_s);
                    }
                }
            }
        }
    }
    for ap in 0..env.ap_count() {
        h.f64(env.server_compute_at(ap, 1_000_000_000).as_secs_f64());
        h.eat(env.server_at(ap).slots() as u64);
        let backhaul = env.backhaul(ap);
        h.opt(backhaul.map(|b| b.capacity_bps));
        h.opt(backhaul.map(|b| b.latency_s));
    }
    h.0
}

#[test]
fn every_preset_environment_reproduces_its_pinned_digest() {
    let mut table = String::new();
    for scenario in Scenario::presets() {
        for (clients, seed) in [(8usize, 5u64), (13, 11)] {
            let base = LatencyModel::builder()
                .clients(clients)
                .seed(seed)
                .build()
                .unwrap();
            let env = scenario.build(base, seed).unwrap();
            table.push_str(&format!(
                "{} {clients}c seed{seed} {:016x}\n",
                scenario.name(),
                environment_digest(env.as_ref())
            ));
        }
    }
    assert_pinned(&table, "environment_digests.txt", "environment digests");
}
