//! **A2 — group-count ablation** (paper §IV).
//!
//! Sweeps M ∈ {1, 2, 3, 5, 6, 10, 15, 30} with 30 clients. M=1 degenerates
//! to SL-with-aggregation, M=N to SplitFed. Grouping strategies are
//! compared by `examples/grouping_study.rs`, on a fleet heterogeneous
//! enough for grouping to matter.
//!
//! Usage: `cargo run -p gsfl-bench --release --bin ablation_groups [--rounds N]`

use gsfl_bench::{paper_config, print_table, rounds_override, save_result};
use gsfl_core::runner::Runner;
use gsfl_core::scheme::SchemeKind;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let rounds = rounds_override().unwrap_or(20);
    eprintln!("ablation_groups: {rounds} rounds per setting");

    println!("\nA2 — group-count sweep (30 clients, round-robin):");
    let mut rows = Vec::new();
    for m in [1usize, 2, 3, 5, 6, 10, 15, 30] {
        let config = paper_config(false)
            .rounds(rounds)
            .eval_every(rounds.max(1))
            .groups(m)
            .build()?;
        let runner = Runner::new(config)?;
        let result = runner.run(SchemeKind::Gsfl)?;
        save_result(&format!("ablation_groups_m{m}"), &result);
        let round_latency = result
            .records
            .first()
            .map(|r| r.round_latency_s)
            .unwrap_or(0.0);
        rows.push(vec![
            m.to_string(),
            format!("{round_latency:.1}"),
            format!("{:.1}", result.total_latency_s()),
            format!("{:.1}", result.final_accuracy_pct()),
            result.server_storage_bytes.to_string(),
        ]);
        eprintln!("  M={m}: done");
    }
    print_table(
        &["M", "round_s", "total_s", "acc_%", "server_storage_B"],
        &rows,
    );
    println!("\nMore groups ⇒ more parallelism (until server slots saturate)");
    println!("but more replicas to store and average.");
    Ok(())
}
