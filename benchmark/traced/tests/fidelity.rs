//! The traced binary must measure the same program the untraced run
//! does: over a short run of each workload its records match the
//! built-in schemes' bit for bit, and its spans account for every round.

use bench_traced::schemes::des_tasks;
use bench_traced::setup::traced_context;
use bench_traced::summary::check_accounting;
use bench_traced::traced_session;
use bench_workloads::{digest, Workload, THREADS};
use gsfl_core::latency::gsfl_round_with_schedule;
use gsfl_core::recovery::RecoveryPlan;
use gsfl_core::runner::Runner;

fn short_rounds(w: Workload) -> usize {
    match w {
        Workload::PaperGsfl => 3,
        Workload::OrchestratedSfl | Workload::PopulationChaosFl => 8,
    }
}

#[test]
fn traced_runs_reproduce_untraced_records_and_account_for_each_round() {
    for w in Workload::ALL {
        for seed in [3, 11] {
            let cfg = w.config_with_rounds(seed, THREADS, short_rounds(w));
            let untraced = Runner::new(cfg.clone()).unwrap().run(w.scheme()).unwrap();
            let ctx = traced_context(cfg).unwrap();
            let (traced, spans) = traced_session(&ctx, w.scheme());
            assert!(traced.error.is_none(), "{}: {:?}", w.name(), traced.error);
            assert_eq!(
                traced.result.records,
                untraced.records,
                "{} seed {seed}: traced records differ",
                w.name()
            );
            assert_eq!(digest(&traced.result.records), digest(&untraced.records));
            check_accounting(&spans).unwrap_or_else(|e| panic!("{}: {e}", w.name()));
            let rounds = spans.iter().filter(|s| s.name == "round").count();
            assert_eq!(rounds, short_rounds(w), "{}: one span per round", w.name());
        }
    }
}

#[test]
fn des_task_count_matches_the_simulated_schedule() {
    let cfg = Workload::PaperGsfl.config_with_rounds(5, THREADS, 1);
    let ctx = Runner::new(cfg).unwrap().context().clone();
    let steps = ctx.steps_per_client();
    for round in 1..=3 {
        let (_, schedule) = gsfl_round_with_schedule(
            ctx.env.as_ref(),
            &ctx.costs,
            &steps,
            &ctx.groups,
            ctx.config.bandwidth_policy,
            ctx.config.channel,
            round,
        )
        .unwrap();
        let counted =
            des_tasks(&ctx, &ctx.groups, &steps, &RecoveryPlan::default(), round).unwrap();
        assert_eq!(counted, schedule.spans().len() as u64, "round {round}");
    }
}
