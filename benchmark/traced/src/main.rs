//! The traced benchmark run (`--trace 1`): per-layer metrics of one
//! workload at one seed, on the workload's thread count.
//!
//! The run's time is split in three: untraced sessions on the workload's
//! threads, untraced sessions on one thread (for `core.thread_speedup`),
//! then traced set-ups and sessions. All three must produce the same
//! records bit for bit, and the spans must account for every traced
//! round.

use bench_traced::setup::traced_context;
use bench_traced::spans::{self, counts, sim_totals, Counts};
use bench_traced::summary::{check_accounting, fanout_time_ns, LayerTotals};
use bench_traced::traced_session;
use bench_workloads::{
    check_hermetic, host_fingerprint, measure, report, reserve_client_threads, rounds_per_s,
    verify, warm_up, Args, Metric, SessionRun, THREADS,
};
use gsfl_core::runner::Runner;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Traced context builds per run (the set-up metrics are per build).
const SETUP_REPS: usize = 5;

fn main() -> ExitCode {
    let args = match Args::parse().and_then(|a| check_hermetic().map(|()| a)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("bench-traced: {e}");
            return ExitCode::from(2);
        }
    };
    if !args.trace {
        eprintln!("bench-traced: serves --trace 1; bench-e2e measures with tracing off");
        return ExitCode::from(2);
    }
    match run(args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("bench-traced: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: Args) -> Result<bool, String> {
    let w = args.workload;
    let kind = w.scheme();
    let cfg = w.config(args.seed, THREADS);
    let single_cfg = w.config(args.seed, 1);
    let phase = Duration::from_secs_f64(args.seconds / 3.0);
    let _client_threads = reserve_client_threads();
    println!("host: {}", host_fingerprint());
    println!(
        "workload: {} (scheme {kind}, {} rounds per session, seed {}, {THREADS} threads)",
        w.name(),
        cfg.rounds,
        args.seed
    );

    let runner = Runner::new(cfg.clone()).map_err(|e| format!("setup failed: {e}"))?;
    warm_up(&runner, kind);
    let untraced = measure(&runner, kind, phase, 0);
    drop(runner);
    let runner = Runner::new(single_cfg.clone()).map_err(|e| format!("setup failed: {e}"))?;
    let single = measure(&runner, kind, phase, 0);
    drop(runner);

    let mut ctx = None;
    for _ in 0..SETUP_REPS {
        ctx = Some(traced_context(cfg.clone()).map_err(|e| format!("setup failed: {e}"))?);
    }
    let ctx = ctx.expect("set-up ran");
    let setup = LayerTotals::over(&spans::take(), |_| true);

    let start = Instant::now();
    let mut traced: Vec<SessionRun> = Vec::new();
    let mut rounds = LayerTotals::default();
    let (mut capacity_ns, mut busy_ns) = (0u64, 0u64);
    let mut problems = Vec::new();
    loop {
        let (run, session_spans) = traced_session(&ctx, kind);
        if let Err(e) = check_accounting(&session_spans) {
            problems.push(format!("traced session {}: {e}", traced.len()));
        }
        let totals = LayerTotals::over(&session_spans, |s| s.round > 0);
        for (name, ns) in totals.self_ns {
            *rounds.self_ns.entry(name).or_default() += ns;
        }
        for (name, n) in totals.calls {
            *rounds.calls.entry(name).or_default() += n;
        }
        let (c, b) = fanout_time_ns(&session_spans);
        capacity_ns += c;
        busy_ns += b;
        let stop = run.error.is_some();
        traced.push(run);
        if stop || start.elapsed() >= phase {
            break;
        }
    }

    let reference = verify(&cfg, &untraced, None);
    let digest = reference.digest;
    let checks = [
        ("untraced", reference),
        ("one-thread", verify(&single_cfg, &single, Some(digest))),
        ("traced", verify(&cfg, &traced, Some(digest))),
    ];
    let (mut attempted, mut failed) = (0, 0);
    for (name, v) in &checks {
        attempted += v.attempted;
        failed += v.failed;
        problems.extend(v.problems.iter().map(|p| format!("{name} {p}")));
    }
    for p in &problems {
        eprintln!("bench-traced: check failed: {p}");
    }
    println!(
        "records: digest {digest:016x}; {} untraced, {} one-thread and {} traced sessions agree: {}",
        untraced.len(),
        single.len(),
        traced.len(),
        problems.is_empty()
    );

    let n = rounds.calls("round").max(1) as f64;
    let per_round = |name: &str| rounds.ms(name) / n;
    let setups = setup.calls("setup").max(1) as f64;
    let per_setup = |name: &str| setup.ms(name) / setups;
    let c = counts();
    let count = |counter| Counts::get(counter) as f64 / n;
    let sim = *sim_totals()
        .lock()
        .expect("no thread panics holding the totals");
    let server_ms = rounds.ms("nn.server_fwd") + rounds.ms("nn.server_bwd");
    let fwd_bwd_ms = server_ms + rounds.ms("nn.client_fwd") + rounds.ms("nn.client_bwd");
    let evals = rounds.calls("nn.eval").max(1) as f64;
    let rps = rounds_per_s(&untraced);
    let metrics = [
        Metric::new("data.synth_ms", per_setup("data.synth"), "ms"),
        Metric::new("data.partition_ms", per_setup("data.partition"), "ms"),
        Metric::new("core.costs_ms", per_setup("core.costs"), "ms"),
        Metric::new(
            "wireless.env_build_ms",
            per_setup("wireless.env_build"),
            "ms",
        ),
        Metric::new("core.plan_ms", per_round("core.plan"), "ms"),
        Metric::new("core.plans", count(&c.plans), "count"),
        Metric::new("core.roster_ms", per_round("core.roster"), "ms"),
        Metric::new("core.cohort_ms", per_round("core.cohort"), "ms"),
        Metric::new("core.price_ms", per_round("core.price"), "ms"),
        Metric::new("simnet.tasks", count(&c.des_tasks), "count"),
        Metric::new("data.gather_ms", per_round("data.gather"), "ms"),
        Metric::new("data.batches", count(&c.batches), "count"),
        Metric::new("nn.client_fwd_ms", per_round("nn.client_fwd"), "ms"),
        Metric::new("nn.client_bwd_ms", per_round("nn.client_bwd"), "ms"),
        Metric::new(
            "nn.server_frac",
            server_ms / fwd_bwd_ms.max(1e-12),
            "fraction",
        ),
        Metric::new("nn.loss_ms", per_round("nn.loss"), "ms"),
        Metric::new("nn.optim_ms", per_round("nn.optim"), "ms"),
        Metric::new("nn.steps", count(&c.steps), "count"),
        Metric::new(
            "nn.gflops",
            Counts::get(&c.flops) as f64 / 1e6 / fwd_bwd_ms.max(1e-12),
            "GFLOP/s",
        ),
        Metric::new("nn.codec_ms", per_round("nn.codec"), "ms"),
        Metric::new("nn.codec_calls", count(&c.codec_calls), "count"),
        Metric::new(
            "nn.codec_wire_ratio",
            Counts::get(&c.codec_wire_bytes) as f64 / Counts::get(&c.codec_raw_bytes).max(1) as f64,
            "fraction",
        ),
        Metric::new("core.replica_ms", per_round("core.replica"), "ms"),
        Metric::new("core.participant_ms", per_round("core.participant"), "ms"),
        Metric::new("core.trainees", count(&c.trainees), "count"),
        Metric::new(
            "core.fanout_idle_frac",
            1.0 - busy_ns as f64 / capacity_ns.max(1) as f64,
            "fraction",
        ),
        Metric::new("core.thread_speedup", rps / rounds_per_s(&single), "x"),
        Metric::new("core.aggregate_ms", per_round("core.aggregate"), "ms"),
        Metric::new(
            "core.aggregate_replicas",
            count(&c.aggregate_replicas),
            "count",
        ),
        Metric::new("core.aggregate_mb", count(&c.aggregate_bytes) / 1e6, "MB"),
        Metric::new("nn.eval_ms", rounds.ms("nn.eval") / evals, "ms"),
        Metric::new("nn.eval_samples", ctx.test_set.len() as f64, "count"),
        Metric::new("sim.compute_s", sim.compute_s / n, "sim_s"),
        Metric::new("sim.uplink_s", sim.uplink_s / n, "sim_s"),
        Metric::new("sim.downlink_s", sim.downlink_s / n, "sim_s"),
        Metric::new("sim.server_s", sim.server_s / n, "sim_s"),
        Metric::new("sim.mb_up", sim.bytes_up / 1e6 / n, "MB"),
        Metric::new("sim.mb_down", sim.bytes_down / 1e6 / n, "MB"),
        Metric::new("sim.retries", sim.retries / n, "count"),
        Metric::new("sim.lost_clients", sim.lost_clients / n, "count"),
        Metric::new(
            "sim.wasted_airtime_frac",
            sim.wasted_bytes / (sim.bytes_up + sim.bytes_down).max(1.0),
            "fraction",
        ),
        Metric::new("round.self_ms", per_round("round"), "ms"),
        Metric::new(
            "trace.overhead_frac",
            rps / rounds_per_s(&traced) - 1.0,
            "fraction",
        ),
    ];
    let correct = problems.is_empty();
    report(correct, attempted, failed, &metrics);
    Ok(correct)
}
