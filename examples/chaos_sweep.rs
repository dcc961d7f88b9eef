//! Chaos sweep: every scheme trained through the `chaos` preset — 10%
//! transfer loss, 5% mid-compute crashes, 10% dropouts, AP outage
//! windows and compute stragglers at once — with the recovery layer
//! armed (round deadline, quorum aggregation). Backup standbys need a
//! sampled population; `ablation_availability` sweeps them.
//!
//! The gate: under chaos every scheme must still reach the target
//! accuracy, within 3× its fault-free time-to-accuracy. Retries price
//! real airtime, crashed clients waste work, deadlines skip rounds —
//! bounded degradation is exactly what the fault-tolerance machinery is
//! for, so CI runs this as a smoke test and fails on a miss.
//!
//! Run with: `cargo run --release --example chaos_sweep`

use gsfl::core::config::{DatasetConfig, ExperimentConfig, ModelKind};
use gsfl::core::recovery::{DeadlinePolicy, RecoverySpec};
use gsfl::core::runner::Runner;
use gsfl::core::scheme::SchemeKind;
use gsfl::wireless::scenario::Scenario;

/// The target-accuracy fraction runs are ranked on reaching first.
const TARGET: f64 = 0.55;
/// Allowed chaos/fault-free time-to-accuracy ratio.
const MAX_SLOWDOWN: f64 = 3.0;

fn config(scenario: Scenario, recovery: RecoverySpec) -> ExperimentConfig {
    ExperimentConfig::builder()
        .clients(8)
        .groups(2)
        .rounds(14)
        .batch_size(8)
        .eval_every(1)
        .learning_rate(0.07)
        .dataset(DatasetConfig {
            classes: 5,
            samples_per_class: 16,
            test_per_class: 6,
            image_size: 8,
        })
        .model(ModelKind::Mlp { hidden: vec![32] })
        .scenario(scenario)
        .recovery(recovery)
        .seed(7)
        .build()
        .expect("chaos sweep config builds")
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let chaos = Scenario::preset("chaos").expect("chaos preset exists");
    let recovery = RecoverySpec {
        deadline: Some(DeadlinePolicy {
            deadline_s: 30.0,
            min_quorum_frac: 0.3,
        }),
        backups: 0,
    };
    println!(
        "chaos sweep: target {:.0}% accuracy, gate {MAX_SLOWDOWN:.0}x fault-free time-to-accuracy",
        TARGET * 100.0
    );
    println!(
        "  {:<10} {:>10} {:>10} {:>7} {:>8} {:>6} {:>8}",
        "scheme", "clean_tta", "chaos_tta", "ratio", "retries", "lost", "skipped"
    );
    let mut failures = 0usize;
    for kind in SchemeKind::all() {
        let clean = Runner::new(config(Scenario::Static, RecoverySpec::default()))?.run(kind)?;
        let chaotic = Runner::new(config(chaos, recovery))?.run(kind)?;
        let clean_tta = clean.time_to_accuracy(TARGET);
        let chaos_tta = chaotic.time_to_accuracy(TARGET);
        let (ratio, ok) = match (clean_tta, chaos_tta) {
            (Some(c), Some(f)) => (Some(f / c), f <= MAX_SLOWDOWN * c),
            // Fault-free never reaching the target says the workload,
            // not the faults, is the problem — don't gate on it.
            (None, _) => (None, true),
            (Some(_), None) => (None, false),
        };
        if !ok {
            failures += 1;
        }
        println!(
            "  {:<10} {:>10} {:>10} {:>7} {:>8} {:>6} {:>8}{}",
            kind.name(),
            clean_tta
                .map(|t| format!("{t:.1}s"))
                .unwrap_or_else(|| "—".into()),
            chaos_tta
                .map(|t| format!("{t:.1}s"))
                .unwrap_or_else(|| "—".into()),
            ratio
                .map(|r| format!("{r:.2}x"))
                .unwrap_or_else(|| "—".into()),
            chaotic.total_retries(),
            chaotic.total_lost_clients(),
            chaotic.rounds_skipped(),
            if ok { "" } else { "  <- GATE MISS" },
        );
    }
    if failures > 0 {
        eprintln!(
            "chaos gate failed: {failures} scheme(s) exceeded {MAX_SLOWDOWN:.0}x fault-free \
             time-to-accuracy (or never reached the target) under chaos"
        );
        std::process::exit(1);
    }
    println!("\nEvery scheme absorbed chaos within the {MAX_SLOWDOWN:.0}x gate.");
    Ok(())
}
