//! What both benchmark binaries share: the workload configs, the command
//! line, the host fingerprint, the output checks and the result line.
//!
//! Everything here goes through the user-facing API only — the
//! `ExperimentConfig` builder, `Scenario::preset`, `Runner`,
//! `Session`/`RoundEvent` and `RunResult`/`RoundRecord` — so the
//! end-to-end numbers keep measuring the same thing while the crates'
//! internals change. The two exceptions are the SIMD tier the host
//! fingerprint records and the thread budget [`reserve_client_threads`]
//! books the client threads in.

use gsfl_core::config::{
    DatasetConfig, ExperimentConfig, GroupingKind, ModelKind, PartitionStrategy,
};
use gsfl_core::orchestrator::OrchestratorSpec;
use gsfl_core::population::PopulationConfig;
use gsfl_core::recovery::{DeadlinePolicy, RecoverySpec};
use gsfl_core::results::{RoundRecord, RunResult};
use gsfl_core::runner::{RoundEvent, Runner, Session};
use gsfl_core::scheme::SchemeKind;
use gsfl_tensor::threading::{request_threads, ThreadGrant};
use gsfl_wireless::scenario::{OrchestratedSpec, Scenario};
use gsfl_wireless::InterferenceSpec;
use std::time::{Duration, Instant};

/// Host threads every workload trains with (`client_threads`).
pub const THREADS: usize = 2;

/// Books the workload's [`THREADS`] client threads in the process-wide
/// thread budget for as long as the grant lives.
///
/// A config that sets `client_threads` fans out without asking the
/// budget, so each large GEMM inside a client would still lease a helper
/// thread: three busy threads on a two-core host. `paper_gsfl` then
/// measured the host's scheduler: over five alternating pairs of runs it
/// was 1.4 to 2.4 times slower than with its GEMMs kept on their calling
/// threads, and its rounds per second spread 0.50 (IQR over median)
/// against 0.15. With the grant held, nested GEMMs lease helpers only
/// from cores the client threads leave free.
pub fn reserve_client_threads() -> ThreadGrant {
    request_threads(THREADS)
}

/// The percentile `round_ms_tail` reports. Higher percentiles of the
/// 5 ms rounds catch the host's preemptions: p99 spread 0.65 (IQR over
/// median) over four runs of one seed.
pub const TAIL_PERCENTILE: f64 = 90.0;

/// The fewest rounds a measurement times: enough for ten rounds beyond
/// the tail percentile.
pub fn min_timed_rounds() -> usize {
    (10.0 / (1.0 - TAIL_PERCENTILE / 100.0)).ceil() as usize
}

/// The benchmark's workloads. Each is a closed-loop batch run: one
/// session in one process runs its rounds back to back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's Fig. 2 setting: GSFL, 30 clients in 6 groups, the
    /// DeepThin CNN. Kernel-bound.
    PaperGsfl,
    /// SplitFed under the greedy orchestrator on the `orchestrated`
    /// preset: planning, pricing and codecs dominate.
    OrchestratedSfl,
    /// FedAvg over a million configured clients (cohort 128) on the
    /// `chaos` preset with recovery: per-client bookkeeping dominates.
    PopulationChaosFl,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [
        Workload::PaperGsfl,
        Workload::OrchestratedSfl,
        Workload::PopulationChaosFl,
    ];

    /// The name the command line and `BENCHMARK.json` use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperGsfl => "paper_gsfl",
            Workload::OrchestratedSfl => "orchestrated_sfl",
            Workload::PopulationChaosFl => "population_chaos_fl",
        }
    }

    /// The workload called `name`, if any.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The scheme the workload trains.
    pub fn scheme(self) -> SchemeKind {
        match self {
            Workload::PaperGsfl => SchemeKind::Gsfl,
            Workload::OrchestratedSfl => SchemeKind::SplitFed,
            Workload::PopulationChaosFl => SchemeKind::Federated,
        }
    }

    /// Rounds per session. Fixed, so the simulated metrics do not
    /// depend on host speed.
    pub fn rounds(self) -> usize {
        match self {
            Workload::PaperGsfl => 24,
            Workload::OrchestratedSfl => 120,
            Workload::PopulationChaosFl => 150,
        }
    }

    /// How many seeds a run trains: the simulated metrics are means over
    /// this panel. One seed's data, initialisation and geometry move
    /// time-to-accuracy by 15-20% (coefficient of variation over 24
    /// seeds); the panel mean shrinks that by its square root.
    pub fn panel_size(self) -> usize {
        match self {
            Workload::PaperGsfl => 10,
            Workload::OrchestratedSfl => 40,
            Workload::PopulationChaosFl => 24,
        }
    }

    /// The seeds a run at `seed` trains, starting with `seed` itself.
    pub fn panel(self, seed: u64) -> Vec<u64> {
        let mut state = seed;
        let mut panel = vec![seed];
        while panel.len() < self.panel_size() {
            // splitmix64: independent, well-spread sub-seeds.
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            panel.push(z ^ (z >> 31));
        }
        panel
    }

    /// The test accuracy `sim_s_to_target` is measured at: one that
    /// seeds sustain well inside a session (a rare seed that does not is
    /// charged its whole session).
    pub fn target_accuracy(self) -> f64 {
        match self {
            Workload::PaperGsfl => 0.6,
            Workload::OrchestratedSfl => 0.7,
            Workload::PopulationChaosFl => 0.6,
        }
    }

    /// The workload's config at `seed`, training on `threads` host
    /// threads, with [`Workload::rounds`] rounds.
    pub fn config(self, seed: u64, threads: usize) -> ExperimentConfig {
        self.config_with_rounds(seed, threads, self.rounds())
    }

    /// [`Workload::config`] with an explicit round count (short runs in
    /// tests).
    pub fn config_with_rounds(self, seed: u64, threads: usize, rounds: usize) -> ExperimentConfig {
        let preset = |name: &str| Scenario::preset(name).expect("the scenario preset exists");
        let builder = ExperimentConfig::builder()
            .rounds(rounds)
            .client_threads(threads)
            .seed(seed);
        let builder = match self {
            Workload::PaperGsfl => builder
                .clients(30)
                .groups(6)
                .grouping(GroupingKind::RoundRobin)
                .model(ModelKind::DeepThin {
                    conv1: 8,
                    conv2: 16,
                    fc: 64,
                })
                .dataset(DatasetConfig {
                    classes: 43,
                    samples_per_class: 50,
                    test_per_class: 10,
                    image_size: 16,
                })
                .partition(PartitionStrategy::Dirichlet(1.0))
                .batch_size(16)
                .learning_rate(0.05)
                .scenario(preset("static"))
                .eval_every(2),
            Workload::OrchestratedSfl => builder
                .clients(32)
                .groups(4)
                .model(ModelKind::Mlp {
                    hidden: vec![32, 16],
                })
                .dataset(DatasetConfig {
                    classes: 10,
                    samples_per_class: 64,
                    test_per_class: 64,
                    image_size: 8,
                })
                .partition(PartitionStrategy::Dirichlet(1.0))
                .batch_size(8)
                .learning_rate(0.05)
                .scenario(without_interference(preset("orchestrated")))
                .orchestrator(OrchestratorSpec::Greedy)
                .eval_every(2),
            Workload::PopulationChaosFl => builder
                .clients(128)
                .groups(8)
                .model(ModelKind::Mlp { hidden: vec![32] })
                .dataset(DatasetConfig {
                    classes: 10,
                    samples_per_class: 64,
                    test_per_class: 64,
                    image_size: 8,
                })
                .population(PopulationConfig {
                    clients: 1_000_000,
                    samples_per_client: 16,
                })
                .batch_size(8)
                .learning_rate(0.05)
                .scenario(preset("chaos"))
                .recovery(RecoverySpec {
                    deadline: Some(DeadlinePolicy {
                        deadline_s: 30.0,
                        min_quorum_frac: 0.3,
                    }),
                    backups: 2,
                })
                .eval_every(5),
        };
        builder.build().expect("the workload config is valid")
    }
}

/// `scenario` with its co-channel interference switched off. Under
/// interference each SplitFed client hears all 31 others, so one seed's
/// geometry sets the round's makespan: mean simulated round time swings
/// tenfold between seeds (IQR over median 1.4 across ten seeds, against
/// 0.03 without), too wide for any bound.
fn without_interference(scenario: Scenario) -> Scenario {
    match scenario {
        Scenario::Orchestrated(spec) => Scenario::Orchestrated(OrchestratedSpec {
            interference: InterferenceSpec { reuse_factor: 0.0 },
            ..spec
        }),
        other => other,
    }
}

/// The benchmark command line:
/// `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
#[derive(Debug, Clone, Copy)]
pub struct Args {
    /// Which workload to run.
    pub workload: Workload,
    /// The workload seed; it becomes `ExperimentConfig::seed`.
    pub seed: u64,
    /// How long the run measures.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
}

impl Args {
    /// Parses the process arguments.
    ///
    /// # Errors
    ///
    /// Returns a usage message for a missing, unknown or malformed flag.
    pub fn parse() -> Result<Args, String> {
        Args::parse_from(std::env::args().skip(1))
    }

    /// Parses `args` (without the program name).
    ///
    /// # Errors
    ///
    /// Returns a usage message for a missing, unknown or malformed flag.
    pub fn parse_from(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let usage = "usage: --workload <name> --seed <n> --seconds <s> --trace <0|1>";
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let value = it
                .next()
                .ok_or_else(|| format!("{flag} needs a value; {usage}"))?;
            let bad = || format!("bad value {value:?} for {flag}; {usage}");
            match flag.as_str() {
                "--workload" => workload = Some(Workload::from_name(&value).ok_or_else(bad)?),
                "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
                "--seconds" => {
                    let s = value.parse::<f64>().map_err(|_| bad())?;
                    if !(s.is_finite() && s > 0.0) {
                        return Err(bad());
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    })
                }
                _ => return Err(format!("unknown flag {flag}; {usage}")),
            }
        }
        let missing = |name: &str| format!("missing {name}; {usage}");
        Ok(Args {
            workload: workload.ok_or_else(|| missing("--workload"))?,
            seed: seed.ok_or_else(|| missing("--seed"))?,
            seconds: seconds.ok_or_else(|| missing("--seconds"))?,
            trace: trace.ok_or_else(|| missing("--trace"))?,
        })
    }
}

/// Refuses to run when an environment variable would change what the
/// program computes or how many threads it uses behind the config's back.
///
/// # Errors
///
/// Names the variable that is set.
pub fn check_hermetic() -> Result<(), String> {
    for var in ["GSFL_THREADS", "GSFL_SIMD"] {
        if let Ok(value) = std::env::var(var) {
            return Err(format!("{var}={value} is set; unset it to benchmark"));
        }
    }
    Ok(())
}

/// The host a result was measured on, as one JSON object: available
/// parallelism, the SIMD tier the kernels dispatch to, and the CPU model.
pub fn host_fingerprint() -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let isa = gsfl_tensor::simd::active_isa().name();
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, model)| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let cpu: String = cpu.chars().filter(|c| *c != '"' && *c != '\\').collect();
    format!("{{\"nproc\": {nproc}, \"isa\": \"{isa}\", \"cpu\": \"{cpu}\"}}")
}

/// Peak resident memory of this process so far, in MB (10^6 bytes).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024.0 / 1e6)
}

/// A 64-bit FNV-1a digest over every field of every record, bit for
/// bit. Equal digests mean byte-identical records.
pub fn digest(records: &[RoundRecord]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for r in records {
        eat(r.round as u64);
        eat(r.round_latency_s.to_bits());
        eat(r.cumulative_latency_s.to_bits());
        eat(r.train_loss.to_bits());
        eat(r.test_accuracy.map_or(u64::MAX, f64::to_bits));
        eat(r.bytes_up);
        eat(r.bytes_down);
        eat(r.bytes_up_raw);
        eat(r.bytes_down_raw);
        eat(r.client_energy_j.to_bits());
        eat(r.retries);
        eat(r.wasted_airtime_bytes);
        eat(u64::from(r.lost_clients));
        eat(u64::from(r.backups_activated));
        eat(u64::from(r.quorum_met));
    }
    h
}

/// One session's host timings and result.
#[derive(Debug)]
pub struct SessionRun {
    /// Host milliseconds of each round, `RoundStarted` to `RoundFinished`.
    pub round_ms: Vec<f64>,
    /// Host seconds from session start to the end of its last round.
    pub host_s: f64,
    /// The records the session produced.
    pub result: RunResult,
    /// The error a round returned, which ended the session.
    pub error: Option<String>,
}

impl SessionRun {
    /// A session that could not start.
    pub fn failed_to_start(kind: SchemeKind, started: Instant, error: String) -> SessionRun {
        SessionRun {
            round_ms: Vec::new(),
            host_s: started.elapsed().as_secs_f64(),
            result: RunResult {
                scheme: kind.name().to_string(),
                records: Vec::new(),
                server_storage_bytes: 0,
                param_count: 0,
                wall_clock_s: 0.0,
            },
            error: Some(error),
        }
    }

    /// Rounds attempted: every recorded round plus one that errored.
    pub fn attempted(&self) -> usize {
        self.result.records.len() + usize::from(self.error.is_some())
    }

    /// Rounds that returned an error or a non-finite loss.
    pub fn failed(&self) -> usize {
        let non_finite = self
            .result
            .records
            .iter()
            .filter(|r| !r.train_loss.is_finite())
            .count();
        non_finite + usize::from(self.error.is_some())
    }
}

/// Drains `session`, timing each round; `on_event` sees every event the
/// moment it arrives. `started` is when the session was created.
pub fn drain(
    mut session: Session<'_>,
    started: Instant,
    mut on_event: impl FnMut(&RoundEvent),
) -> SessionRun {
    let mut round_ms = Vec::new();
    let mut round_start = None;
    let mut error = None;
    for event in &mut session {
        match event {
            Ok(event) => {
                on_event(&event);
                match event {
                    RoundEvent::RoundStarted { .. } => round_start = Some(Instant::now()),
                    RoundEvent::RoundFinished { .. } => {
                        if let Some(t) = round_start.take() {
                            round_ms.push(t.elapsed().as_secs_f64() * 1e3);
                        }
                    }
                    _ => {}
                }
            }
            Err(e) => {
                error = Some(e.to_string());
                break;
            }
        }
    }
    let host_s = started.elapsed().as_secs_f64();
    SessionRun {
        round_ms,
        host_s,
        result: session.finish(),
        error,
    }
}

/// Runs a few untimed rounds so lazy set-up (thread budget, SIMD
/// dispatch, allocator growth) is done before timing starts.
pub fn warm_up(runner: &Runner, kind: SchemeKind) {
    if let Ok(session) = runner.session(kind) {
        let _ = session
            .filter_map(Result::ok)
            .filter(|e| matches!(e, RoundEvent::RoundFinished { .. }))
            .take(3)
            .count();
    }
}

/// Runs one untraced session of `kind` to the end.
pub fn session(runner: &Runner, kind: SchemeKind) -> SessionRun {
    let t = Instant::now();
    match runner.session(kind) {
        Ok(session) => drain(session, t, |_| {}),
        Err(e) => SessionRun::failed_to_start(kind, t, e.to_string()),
    }
}

/// Runs untraced sessions back to back until `budget` has passed and at
/// least `min_rounds` rounds were timed (at least one session either way).
pub fn measure(
    runner: &Runner,
    kind: SchemeKind,
    budget: Duration,
    min_rounds: usize,
) -> Vec<SessionRun> {
    let start = Instant::now();
    let mut runs: Vec<SessionRun> = Vec::new();
    loop {
        let run = session(runner, kind);
        let stop = run.error.is_some();
        runs.push(run);
        let timed: usize = runs.iter().map(|r| r.round_ms.len()).sum();
        if stop || (start.elapsed() >= budget && timed >= min_rounds) {
            return runs;
        }
    }
}

/// Rounds per host second over a set of sessions.
pub fn rounds_per_s(runs: &[SessionRun]) -> f64 {
    let rounds: usize = runs.iter().map(|r| r.round_ms.len()).sum();
    let secs: f64 = runs.iter().map(|r| r.host_s).sum();
    rounds as f64 / secs
}

/// Checks one session's records against the determinism and sanity
/// contract: every round present and in order, finite loss and latency,
/// and a final accuracy above chance.
///
/// # Errors
///
/// Describes the first violation.
pub fn check_records(cfg: &ExperimentConfig, records: &[RoundRecord]) -> Result<(), String> {
    if records.len() != cfg.rounds {
        return Err(format!(
            "missing rounds: {} of {} recorded",
            records.len(),
            cfg.rounds
        ));
    }
    for (i, r) in records.iter().enumerate() {
        if r.round != i + 1 {
            return Err(format!("round {} recorded as round {}", i + 1, r.round));
        }
        if !r.train_loss.is_finite() {
            return Err(format!(
                "round {}: non-finite loss {}",
                r.round, r.train_loss
            ));
        }
        if !(r.round_latency_s.is_finite() && r.round_latency_s > 0.0) {
            return Err(format!(
                "round {}: bad simulated latency {}",
                r.round, r.round_latency_s
            ));
        }
    }
    let chance = 1.0 / cfg.dataset.classes as f64;
    match records.last().and_then(|r| r.test_accuracy) {
        Some(acc) if acc > chance => Ok(()),
        Some(acc) => Err(format!(
            "final accuracy {acc} is at or below chance {chance}"
        )),
        None => Err("the final round was not evaluated".into()),
    }
}

/// The outcome of checking a set of sessions at one seed.
#[derive(Debug)]
pub struct Verdict {
    /// Rounds attempted across the sessions.
    pub attempted: usize,
    /// Rounds that errored or had a non-finite loss.
    pub failed: usize,
    /// The records' digest (of the first session).
    pub digest: u64,
    /// Every violation found; empty when the output is correct.
    pub problems: Vec<String>,
}

/// Checks every session's records, and that all sessions produced the
/// same records as `reference` (the first session when `None`).
pub fn verify(cfg: &ExperimentConfig, runs: &[SessionRun], reference: Option<u64>) -> Verdict {
    let mut problems = Vec::new();
    let digest = runs.first().map_or(0, |r| digest(&r.result.records));
    let expected = reference.unwrap_or(digest);
    for (i, run) in runs.iter().enumerate() {
        if let Some(e) = &run.error {
            problems.push(format!("session {i}: {e}"));
        }
        if let Err(e) = check_records(cfg, &run.result.records) {
            problems.push(format!("session {i}: {e}"));
        }
        let d = self::digest(&run.result.records);
        if d != expected {
            problems.push(format!(
                "session {i}: record digest {d:016x} differs from {expected:016x}"
            ));
        }
    }
    if runs.is_empty() {
        problems.push("no session ran".into());
    }
    Verdict {
        attempted: runs.iter().map(SessionRun::attempted).sum(),
        failed: runs.iter().map(SessionRun::failed).sum(),
        digest,
        problems,
    }
}

/// The median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// The `p`-th percentile of `values` by linear interpolation between
/// closest ranks (0 when empty).
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = (p / 100.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// The metric's name in `BENCHMARK.json`.
    pub name: &'static str,
    /// Its value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

impl Metric {
    /// A metric named `name`, with `value` in `unit`.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric { name, value, unit }
    }
}

/// Prints the metrics as a table, then the result line the benchmark
/// contract asks for as the last line of standard output. A non-finite
/// value marks the run incorrect.
pub fn report(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) {
    let width = metrics.iter().map(|m| m.name.len()).max().unwrap_or(0);
    for m in metrics {
        println!("  {:<width$}  {:>14.6}  {}", m.name, m.value, m.unit);
    }
    let finite = metrics.iter().all(|m| m.value.is_finite());
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        correct && finite,
        body.join(", ")
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn args_round_trip() {
        let args = Args::parse_from(
            [
                "--workload",
                "paper_gsfl",
                "--seed",
                "7",
                "--seconds",
                "3",
                "--trace",
                "1",
            ]
            .map(String::from),
        )
        .unwrap();
        assert_eq!(args.workload, Workload::PaperGsfl);
        assert_eq!(args.seed, 7);
        assert!(args.trace);
        assert!(Args::parse_from(["--workload", "nope"].map(String::from)).is_err());
        assert!(Args::parse_from(["--seed", "1"].map(String::from)).is_err());
    }

    #[test]
    fn percentiles_interpolate() {
        let v: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(median(&v), 6.0);
        assert_eq!(percentile(&v, 90.0), 10.0);
        assert_eq!(percentile(&[2.0, 4.0], 50.0), 3.0);
    }

    #[test]
    fn every_workload_config_builds() {
        for w in Workload::ALL {
            let cfg = w.config(1, THREADS);
            assert_eq!(cfg.client_threads, Some(THREADS));
            assert_eq!(cfg.rounds % cfg.eval_every, 0, "{}", w.name());
            let panel = w.panel(1);
            assert_eq!(panel[0], 1);
            let mut distinct = panel.clone();
            distinct.sort_unstable();
            distinct.dedup();
            assert_eq!(distinct.len(), w.panel_size(), "{}", w.name());
            assert_eq!(w.panel(1), panel, "panels are a function of the seed");
        }
    }
}
