//! The untraced benchmark run (`--trace 0`): the end-to-end metrics of
//! one workload, measured through the user-facing API only.
//!
//! A run trains the workload's seed panel (see `Workload::panel`): for
//! each seed it builds the context (timed: `setup_s` is the median) and
//! runs one session of the workload's fixed round count. It then repeats
//! sessions, cycling through the panel, until `--seconds` have passed;
//! every repetition must reproduce its seed's records bit for bit. Host
//! metrics pool every timed round; the simulated metrics are means over
//! the panel. The client threads stay booked in the thread budget for the
//! whole run (see `reserve_client_threads`).

use bench_workloads::{
    check_hermetic, digest, host_fingerprint, median, min_timed_rounds, peak_rss_mb, percentile,
    report, reserve_client_threads, rounds_per_s, session, verify, warm_up, Args, Metric,
    SessionRun, Workload, TAIL_PERCENTILE, THREADS,
};
use gsfl_core::runner::Runner;
use std::process::ExitCode;
use std::time::Instant;

fn main() -> ExitCode {
    let args = match Args::parse().and_then(|a| check_hermetic().map(|()| a)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("bench-e2e: {e}");
            return ExitCode::from(2);
        }
    };
    if args.trace {
        eprintln!("bench-e2e: measures with tracing off; bench-traced serves --trace 1");
        return ExitCode::from(2);
    }
    match run(args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("bench-e2e: {e}");
            ExitCode::FAILURE
        }
    }
}

/// One panel seed's first session and what it settled.
struct SeedRun {
    seed: u64,
    digest: u64,
    sim_round_s: f64,
    /// Simulated seconds until the target accuracy held for good; a seed
    /// that never sustains it is charged its whole session.
    sim_s_to_target: f64,
    sustained: bool,
    final_acc: f64,
}

/// Measures and reports; returns whether the outputs checked out.
fn run(args: Args) -> Result<bool, String> {
    let w: Workload = args.workload;
    let panel = w.panel(args.seed);
    let _client_threads = reserve_client_threads();
    println!("host: {}", host_fingerprint());
    println!(
        "workload: {} (scheme {}, {} rounds per session, {} seeds from seed {}, {THREADS} threads)",
        w.name(),
        w.scheme(),
        w.rounds(),
        panel.len(),
        args.seed,
    );
    let start = Instant::now();
    let mut setup_s = Vec::new();
    let mut sessions: Vec<SessionRun> = Vec::new();
    let mut seeds: Vec<SeedRun> = Vec::new();
    let mut problems = Vec::new();
    let mut attempted = 0;
    let mut failed = 0;
    let target = w.target_accuracy();

    // Pass 0 trains every panel seed once; later passes repeat them
    // (at least the first seed) until the time is up.
    let mut pass = 0;
    'passes: loop {
        for (i, &seed) in panel.iter().enumerate() {
            let timed: usize = sessions.iter().map(|s| s.round_ms.len()).sum();
            let done = start.elapsed().as_secs_f64() >= args.seconds && timed >= min_timed_rounds();
            if pass > 0 && (i > 0 || pass > 1) && done {
                break 'passes;
            }
            let cfg = w.config(seed, THREADS);
            let t = Instant::now();
            let runner = Runner::new(cfg.clone()).map_err(|e| format!("setup failed: {e}"))?;
            setup_s.push(t.elapsed().as_secs_f64());
            if sessions.is_empty() {
                warm_up(&runner, w.scheme());
            }
            let run = session(&runner, w.scheme());
            let verdict = verify(
                &cfg,
                std::slice::from_ref(&run),
                seeds.get(i).map(|s| s.digest),
            );
            attempted += verdict.attempted;
            failed += verdict.failed;
            problems.extend(
                verdict
                    .problems
                    .into_iter()
                    .map(|p| format!("seed {seed}: {p}")),
            );
            if pass == 0 {
                let records = &run.result.records;
                let reached = run.result.sustained_time_to_accuracy(target);
                seeds.push(SeedRun {
                    seed,
                    digest: digest(records),
                    sim_round_s: records.iter().map(|r| r.round_latency_s).sum::<f64>()
                        / records.len().max(1) as f64,
                    sim_s_to_target: reached.unwrap_or_else(|| run.result.total_latency_s()),
                    sustained: reached.is_some(),
                    final_acc: records.last().and_then(|r| r.test_accuracy).unwrap_or(0.0),
                });
            }
            let errored = run.error.is_some();
            sessions.push(run);
            if errored {
                break 'passes;
            }
        }
        pass += 1;
    }
    for p in &problems {
        eprintln!("bench-e2e: check failed: {p}");
    }

    let mean = |f: &dyn Fn(&SeedRun) -> f64| seeds.iter().map(f).sum::<f64>() / seeds.len() as f64;
    let round_ms: Vec<f64> = sessions
        .iter()
        .flat_map(|s| s.round_ms.iter().copied())
        .collect();
    let tail = TAIL_PERCENTILE;
    for s in &seeds {
        println!(
            "seed {:>20}: digest {:016x}, sim_round_s {:.4}, sim_s_to_target {:.2}{}, final_test_acc {:.4}",
            s.seed,
            s.digest,
            s.sim_round_s,
            s.sim_s_to_target,
            if s.sustained { "" } else { " (not sustained: whole session)" },
            s.final_acc
        );
    }
    println!(
        "{} sessions, {} timed rounds; round_ms_tail is p{tail}; sim_s_to_target at accuracy {target}",
        sessions.len(),
        round_ms.len()
    );
    let metrics = [
        Metric::new("setup_s", median(&setup_s), "s"),
        Metric::new("rounds_per_s", rounds_per_s(&sessions), "rounds/s"),
        Metric::new("round_ms_p50", median(&round_ms), "ms"),
        Metric::new("round_ms_tail", percentile(&round_ms, tail), "ms"),
        Metric::new("peak_rss_mb", peak_rss_mb().unwrap_or(f64::NAN), "MB"),
        Metric::new("sim_round_s", mean(&|s| s.sim_round_s), "sim_s"),
        Metric::new("sim_s_to_target", mean(&|s| s.sim_s_to_target), "sim_s"),
        Metric::new("final_test_acc", mean(&|s| s.final_acc), "fraction"),
        Metric::new(
            "ok_round_frac",
            1.0 - failed as f64 / attempted.max(1) as f64,
            "fraction",
        ),
    ];
    let correct = problems.is_empty();
    report(correct, attempted, failed, &metrics);
    Ok(correct && metrics.iter().all(|m| m.value.is_finite()))
}
