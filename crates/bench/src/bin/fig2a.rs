//! **E1 — Fig. 2(a)**: accuracy vs training rounds for CL, SL, GSFL, FL.
//!
//! Reproduces the paper's Fig. 2(a) series (GTSRB → synthetic GTSRB, 30
//! clients, 6 groups) and prints the E3 summary: the paper claims GSFL
//! converges ≈5× faster than FL in rounds and tracks SL/CL closely.
//!
//! The GSFL-vs-FL ordering is a gate: the binary exits non-zero unless
//! both schemes reach at least one common accuracy target on the ladder
//! 10%, 20%, …, 90% and GSFL reaches every such target in fewer rounds
//! than FL.
//!
//! Usage: `cargo run -p gsfl-bench --release --bin fig2a [--rounds N] [--full]`

use gsfl_bench::{accuracy_series, paper_config, print_table, rounds_override, save_result};
use gsfl_core::runner::Runner;
use gsfl_core::scheme::SchemeKind;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let full = gsfl_bench::full_scale();
    let rounds = rounds_override().unwrap_or(if full { 300 } else { 120 });
    let config = paper_config(full).rounds(rounds).eval_every(2).build()?;
    eprintln!(
        "fig2a: {} rounds, 30 clients, 6 groups (full={full})",
        rounds
    );

    let runner = Runner::new(config)?;
    let schemes = [
        SchemeKind::Centralized,
        SchemeKind::VanillaSplit,
        SchemeKind::Gsfl,
        SchemeKind::Federated,
    ];
    eprintln!("running {} schemes on parallel threads…", schemes.len());
    let mut results = Vec::new();
    for (kind, r) in schemes.into_iter().zip(runner.run_many(&schemes)?) {
        eprintln!(
            "  {kind}: final {:.1}% (best {:.1}%), host time {:.1}s",
            r.final_accuracy_pct(),
            r.best_accuracy_pct(),
            r.wall_clock_s
        );
        save_result(&format!("fig2a_{kind}"), &r);
        results.push((kind, r));
    }

    // The figure series: accuracy (%) per evaluation round.
    println!("\nFig. 2(a) — accuracy (%) vs training rounds");
    type Series = Vec<(usize, f64, f64)>;
    let series: Vec<(SchemeKind, Series)> = results
        .iter()
        .map(|(k, r)| (*k, accuracy_series(r)))
        .collect();
    let eval_rounds: Vec<usize> = series[0].1.iter().map(|(r, _, _)| *r).collect();
    let rows: Vec<Vec<String>> = eval_rounds
        .iter()
        .enumerate()
        .map(|(i, round)| {
            let mut row = vec![round.to_string()];
            for (_, s) in &series {
                row.push(
                    s.get(i)
                        .map(|(_, _, a)| format!("{a:.1}"))
                        .unwrap_or_default(),
                );
            }
            row
        })
        .collect();
    print_table(&["round", "CL", "SL", "GSFL", "FL"], &rows);

    // E3 summary and gate: rounds to each target on a 10% ladder.
    let rounds_to = |kind: SchemeKind, target: f64| {
        results
            .iter()
            .find(|(k, _)| *k == kind)
            .and_then(|(_, r)| r.rounds_to_accuracy(target))
    };
    let cell = |x: Option<usize>| x.map_or_else(|| "—".into(), |x| x.to_string());
    println!("\nE3 — rounds to target accuracy:");
    let mut summary = Vec::new();
    let mut shared_targets = 0usize;
    let mut misses = Vec::new();
    for pct in (10..=90).step_by(10) {
        let target = f64::from(pct) / 100.0;
        let mut row = vec![format!("{pct}%")];
        row.extend(schemes.iter().map(|&k| cell(rounds_to(k, target))));
        let gsfl = rounds_to(SchemeKind::Gsfl, target);
        let fl = rounds_to(SchemeKind::Federated, target);
        row.push(match (gsfl, fl) {
            (Some(g), Some(f)) if g > 0 => format!("{:.1}×", f as f64 / g as f64),
            _ => "—".into(),
        });
        if let (Some(g), Some(f)) = (gsfl, fl) {
            shared_targets += 1;
            if g >= f {
                misses.push(format!("{pct}% (GSFL round {g} vs FL round {f})"));
            }
        }
        summary.push(row);
    }
    print_table(&["target", "CL", "SL", "GSFL", "FL", "FL/GSFL"], &summary);
    println!("\npaper claim: GSFL converges in ≈5× fewer rounds than FL");
    if shared_targets == 0 {
        eprintln!("fig2a gate failed: GSFL and FL reach no accuracy target in common");
        std::process::exit(1);
    }
    if !misses.is_empty() {
        eprintln!(
            "fig2a gate failed: GSFL does not need fewer rounds than FL at {}",
            misses.join(", ")
        );
        std::process::exit(1);
    }
    println!("gate: GSFL beats FL in rounds at all {shared_targets} target(s) both reach");
    Ok(())
}
