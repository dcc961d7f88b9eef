//! Fixed vs adaptive cut selection across wireless environments.
//!
//! For each environment (clean static channel, co-channel interference,
//! the contested adaptive-cut stress case, and a multi-AP deployment)
//! this sweep runs GSFL once per fixed cut layer and once per adaptive
//! policy (greedy latency estimate, ε-greedy bandit), then reports
//! total simulated latency, latency-to-target-accuracy, and final
//! accuracy. In the congested presets the adaptive policies should beat
//! the worst fixed cut — the whole argument for closing the
//! environment→cut loop.
//!
//! Run with: `cargo run --release --example adaptive_cut_sweep`

use gsfl::core::config::{DatasetConfig, ExperimentConfig, ModelKind};
use gsfl::core::orchestrator::CutPolicySpec;
use gsfl::core::results::RunResult;
use gsfl::core::runner::Runner;
use gsfl::core::scheme::SchemeKind;
use gsfl::wireless::scenario::{AdaptiveCutSpec, MultiApSpec};
use gsfl::wireless::{InterferenceSpec, Scenario};

const TARGET_ACC: f64 = 0.5;

#[derive(Clone, Copy)]
enum Strategy {
    Fixed(usize),
    Greedy,
    Bandit,
}

impl Strategy {
    fn label(&self) -> String {
        match self {
            Strategy::Fixed(cut) => format!("fixed@{cut}"),
            Strategy::Greedy => "greedy".into(),
            Strategy::Bandit => "bandit".into(),
        }
    }
}

fn config(scenario: Scenario, strategy: Strategy) -> ExperimentConfig {
    let mut b = ExperimentConfig::builder()
        .clients(8)
        .groups(2)
        .rounds(10)
        .batch_size(8)
        .eval_every(2)
        .learning_rate(0.1)
        .dataset(DatasetConfig {
            classes: 5,
            samples_per_class: 16,
            test_per_class: 6,
            image_size: 8,
        })
        .model(ModelKind::Mlp {
            hidden: vec![32, 16],
        })
        .scenario(scenario)
        .seed(11);
    b = match strategy {
        Strategy::Fixed(cut) => b.cut_index(cut),
        Strategy::Greedy => b.cut_policy(CutPolicySpec::Greedy),
        Strategy::Bandit => b.cut_policy(CutPolicySpec::Bandit { epsilon: 0.2 }),
    };
    b.build().expect("config is valid")
}

fn fmt_tta(r: &RunResult) -> String {
    match r.time_to_accuracy(TARGET_ACC) {
        Some(t) => format!("{t:>9.1}s"),
        None => format!("{:>10}", "—"),
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let environments: Vec<(&str, Scenario)> = vec![
        ("static", Scenario::Static),
        (
            "interference",
            Scenario::Interference(InterferenceSpec { reuse_factor: 0.6 }),
        ),
        (
            "adaptive_cut",
            Scenario::AdaptiveCut(AdaptiveCutSpec::default()),
        ),
        ("multi_ap", Scenario::MultiAp(MultiApSpec::default())),
    ];
    // MLP [32,16] is 5 layers deep ⇒ valid cuts 1..=4.
    let strategies: Vec<Strategy> = (1..5)
        .map(Strategy::Fixed)
        .chain([Strategy::Greedy, Strategy::Bandit])
        .collect();

    for (name, scenario) in environments {
        println!("— environment: {name} —");
        println!(
            "  {:<10} {:>11} {:>10} {:>9}",
            "cut", "latency", "to-target", "accuracy"
        );
        let mut worst_fixed: Option<(String, f64)> = None;
        let mut adaptive: Vec<(String, f64)> = Vec::new();
        for strategy in &strategies {
            let result = Runner::new(config(scenario, *strategy))?.run(SchemeKind::Gsfl)?;
            println!(
                "  {:<10} {:>10.1}s {} {:>8.1}%",
                strategy.label(),
                result.total_latency_s(),
                fmt_tta(&result),
                result.final_accuracy_pct(),
            );
            let score = result
                .time_to_accuracy(TARGET_ACC)
                .unwrap_or_else(|| result.total_latency_s());
            match strategy {
                Strategy::Fixed(_) => {
                    if worst_fixed.as_ref().is_none_or(|(_, w)| score > *w) {
                        worst_fixed = Some((strategy.label(), score));
                    }
                }
                _ => adaptive.push((strategy.label(), score)),
            }
        }
        if let Some((worst_label, worst)) = worst_fixed {
            for (label, score) in adaptive {
                let verdict = if score < worst { "beats" } else { "loses to" };
                println!(
                    "  ⇒ {label} ({score:.1}s to {:.0}% acc) {verdict} worst fixed \
                     {worst_label} ({worst:.1}s)",
                    TARGET_ACC * 100.0
                );
            }
        }
        println!();
    }
    println!("The clean static channel barely cares which cut is used; the");
    println!("contested presets punish cuts that ship fat activations over an");
    println!("interfered uplink, and the condition-aware policies route around it.");
    Ok(())
}
