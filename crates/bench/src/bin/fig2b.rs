//! **E2 — Fig. 2(b)**: accuracy vs wall-clock training latency, GSFL vs
//! SL.
//!
//! Reproduces the paper's Fig. 2(b): both schemes run to the same round
//! budget; the series is accuracy against *cumulative simulated latency*.
//! The paper reports GSFL reaching target accuracy with ≈31.45 % less
//! delay than SL.
//!
//! The ordering is a gate: the binary exits non-zero unless both schemes
//! reach at least one common accuracy target and GSFL reaches every such
//! target in less simulated time than SL.
//!
//! Usage: `cargo run -p gsfl-bench --release --bin fig2b [--rounds N] [--full]`

use gsfl_bench::{accuracy_series, paper_config, print_table, rounds_override, save_result};
use gsfl_core::runner::Runner;
use gsfl_core::scheme::SchemeKind;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let full = gsfl_bench::full_scale();
    let rounds = rounds_override().unwrap_or(if full { 300 } else { 120 });
    let config = paper_config(full).rounds(rounds).eval_every(2).build()?;
    eprintln!(
        "fig2b: {} rounds, 30 clients, 6 groups (full={full})",
        rounds
    );

    let runner = Runner::new(config)?;
    let mut results = runner
        .run_many(&[SchemeKind::Gsfl, SchemeKind::VanillaSplit])?
        .into_iter();
    let gsfl = results.next().expect("gsfl result");
    eprintln!(
        "  gsfl: final {:.1}%, simulated {:.0}s",
        gsfl.final_accuracy_pct(),
        gsfl.total_latency_s()
    );
    save_result("fig2b_gsfl", &gsfl);
    let sl = results.next().expect("sl result");
    eprintln!(
        "  sl:   final {:.1}%, simulated {:.0}s",
        sl.final_accuracy_pct(),
        sl.total_latency_s()
    );
    save_result("fig2b_sl", &sl);

    println!("\nFig. 2(b) — accuracy (%) vs latency (simulated seconds)");
    println!("\nGSFL series (latency_s, accuracy_%):");
    let rows: Vec<Vec<String>> = accuracy_series(&gsfl)
        .iter()
        .map(|(r, t, a)| vec![r.to_string(), format!("{t:.1}"), format!("{a:.1}")])
        .collect();
    print_table(&["round", "latency_s", "acc_%"], &rows);
    println!("\nSL series (latency_s, accuracy_%):");
    let rows: Vec<Vec<String>> = accuracy_series(&sl)
        .iter()
        .map(|(r, t, a)| vec![r.to_string(), format!("{t:.1}"), format!("{a:.1}")])
        .collect();
    print_table(&["round", "latency_s", "acc_%"], &rows);

    // Headline claim: delay reduction at matched accuracy.
    println!("\nDelay to reach target accuracy (simulated seconds):");
    let mut summary = Vec::new();
    let mut shared_targets = 0usize;
    let mut misses = Vec::new();
    for target in [0.6, 0.7, 0.8, 0.9, 0.95] {
        let tg = gsfl.time_to_accuracy(target);
        let ts = sl.time_to_accuracy(target);
        if let (Some(g), Some(s)) = (tg, ts) {
            shared_targets += 1;
            if g >= s {
                misses.push(format!(
                    "{:.0}% (GSFL {g:.0}s vs SL {s:.0}s)",
                    target * 100.0
                ));
            }
        }
        let reduction = match (tg, ts) {
            (Some(g), Some(s)) if s > 0.0 => format!("{:.1}%", (1.0 - g / s) * 100.0),
            _ => "—".into(),
        };
        summary.push(vec![
            format!("{:.0}%", target * 100.0),
            tg.map(|v| format!("{v:.0}")).unwrap_or_else(|| "—".into()),
            ts.map(|v| format!("{v:.0}")).unwrap_or_else(|| "—".into()),
            reduction,
        ]);
    }
    print_table(&["target", "GSFL_s", "SL_s", "delay_reduction"], &summary);
    println!("\npaper claim: ≈31.45% delay reduction (GSFL vs SL)");
    if shared_targets == 0 {
        eprintln!("fig2b gate failed: GSFL and SL reach no accuracy target in common");
        std::process::exit(1);
    }
    if !misses.is_empty() {
        eprintln!(
            "fig2b gate failed: GSFL is not faster than SL at {}",
            misses.join(", ")
        );
        std::process::exit(1);
    }
    println!("gate: GSFL beats SL at all {shared_targets} target(s) both reach");
    Ok(())
}
