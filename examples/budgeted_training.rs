//! Budgeted training: run every scheme under a *simulated* latency
//! budget — "how much accuracy does each scheme buy with five simulated
//! minutes of edge time?" — using caller-built scheme instances and
//! composable stop policies.
//!
//! This is the experiment protocol behind the paper's Fig. 2(b) reading:
//! at a fixed time budget the schemes differ, not at a fixed round count.
//!
//! Run with: `cargo run --release --example budgeted_training [-- budget_s]`

use gsfl::core::config::{DatasetConfig, ExperimentConfig};
use gsfl::core::runner::Runner;
use gsfl::core::scheme::SchemeKind;
use gsfl::core::stop::{CompositePolicy, LatencyBudget, LossPlateau};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let budget_s: f64 = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(300.0);
    let config = ExperimentConfig::builder()
        .clients(12)
        .groups(3)
        .rounds(200) // generous; the budget stops the run first
        .batch_size(16)
        .eval_every(2)
        .dataset(DatasetConfig {
            classes: 10,
            samples_per_class: 30,
            test_per_class: 8,
            image_size: 16,
        })
        .seed(3)
        .build()?;
    let runner = Runner::new(config)?;

    println!("budget: {budget_s:.0} simulated seconds (plus loss-plateau bailout)\n");
    println!(
        "{:<6} {:>7} {:>10} {:>10}",
        "scheme", "rounds", "sim_s", "acc_%"
    );
    for kind in SchemeKind::all() {
        // Stop at the latency budget, or earlier if the loss flatlines.
        let policy = CompositePolicy::new()
            .with(Box::new(LatencyBudget::new(budget_s)))
            .with(Box::new(LossPlateau::new(25, 1e-4)));
        let result = runner
            .session_scheme(kind.scheme(), Box::new(policy))?
            .run_to_end()?;
        println!(
            "{:<6} {:>7} {:>10.1} {:>10.1}",
            kind.name(),
            result.records.len(),
            result.total_latency_s(),
            result.final_accuracy_pct(),
        );
    }
    println!("\nAt a fixed simulated-time budget the parallel schemes fit many");
    println!("more rounds than SL's sequential relay — the paper's core claim.");
    Ok(())
}
