//! **A5 — server-side storage** (paper §I motivation).
//!
//! Quantifies the storage argument for grouping: SFL keeps one server-side
//! model per client; GSFL keeps one per group. Storage is read from each
//! scheme through the `Scheme` trait (`storage_bytes`), dispatched by
//! name through `SchemeKind::from_name`.
//!
//! The claim is a gate: the binary exits non-zero unless, at every fleet
//! size, GSFL stores fewer bytes than SFL and SFL/GSFL is exactly N/M.
//!
//! Usage: `cargo run -p gsfl-bench --release --bin storage_table`

use gsfl_bench::{paper_config, print_table};
use gsfl_core::context::TrainContext;
use gsfl_core::scheme::SchemeKind;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let storage = |name: &str, ctx: &TrainContext| -> u64 {
        SchemeKind::from_name(name)
            .expect("builtin scheme")
            .scheme()
            .storage_bytes(ctx)
    };
    let mut rows = Vec::new();
    let mut misses = Vec::new();
    for n in [10usize, 30, 60, 120] {
        let m = (n / 5).max(1);
        let config = paper_config(false).clients(n).groups(m).rounds(1).build()?;
        let ctx = TrainContext::from_config(config)?;
        let sl = storage("sl", &ctx);
        let sfl = storage("sfl", &ctx);
        let gsfl = storage("gsfl", &ctx);
        if gsfl >= sfl || sfl * m as u64 != gsfl * n as u64 {
            misses.push(format!("N={n}, M={m} (SFL {sfl} B, GSFL {gsfl} B)"));
        }
        rows.push(vec![
            n.to_string(),
            m.to_string(),
            format!("{:.1}", sl as f64 / 1024.0),
            format!("{:.1}", sfl as f64 / 1024.0),
            format!("{:.1}", gsfl as f64 / 1024.0),
            format!("{:.1}×", sfl as f64 / gsfl as f64),
        ]);
    }
    println!("A5 — edge-server model storage (KiB) vs fleet size:");
    print_table(
        &["clients", "groups", "SL", "SFL", "GSFL", "SFL/GSFL"],
        &rows,
    );
    println!("\nGSFL needs M server-side replicas instead of SFL's N — the");
    println!("storage saving that motivates grouping (paper §I).");
    if !misses.is_empty() {
        eprintln!(
            "storage_table gate failed: GSFL must store less than SFL, \
             by exactly N/M, at {}",
            misses.join(", ")
        );
        std::process::exit(1);
    }
    Ok(())
}
