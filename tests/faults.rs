//! Fault-tolerant rounds, end to end: every scheme survives the `chaos`
//! preset, fault realizations (standby activations included) are
//! thread-count invariant, standbys cover crashed primaries, quorum-missed
//! rounds leave the global model untouched, a recovery spec that never
//! fires is the identity, and a diverging run stops with a typed reason
//! instead of averaging non-finite updates into the global model.

use gsfl::core::config::{DatasetConfig, ExperimentConfig, ModelKind};
use gsfl::core::population::PopulationConfig;
use gsfl::core::recovery::{DeadlinePolicy, RecoverySpec};
use gsfl::core::runner::{RoundEvent, Runner};
use gsfl::core::scheme::SchemeKind;
use gsfl::core::stop::StopReason;
use gsfl::wireless::scenario::{ChaosSpec, Scenario, StragglerSpec};
use gsfl::wireless::FaultSpec;

fn tiny(scenario: Scenario, recovery: RecoverySpec) -> ExperimentConfig {
    ExperimentConfig::builder()
        .clients(6)
        .groups(2)
        .rounds(6)
        .batch_size(4)
        .eval_every(3)
        .learning_rate(0.1)
        .dataset(DatasetConfig {
            classes: 3,
            samples_per_class: 8,
            test_per_class: 4,
            image_size: 8,
        })
        .model(ModelKind::Mlp { hidden: vec![16] })
        .scenario(scenario)
        .recovery(recovery)
        .seed(5)
        .build()
        .unwrap()
}

/// [`tiny`] with its six clients as a cohort sampled from a population,
/// which is where backup standbys come from.
fn tiny_population(scenario: Scenario, recovery: RecoverySpec) -> ExperimentConfig {
    let mut config = tiny(scenario, RecoverySpec::default());
    config.population = Some(PopulationConfig {
        clients: 600,
        samples_per_client: 8,
    });
    config.recovery = recovery;
    config
}

/// Loss + crashes only, rates chosen per test.
fn faults_only(loss: f64, crash: f64) -> Scenario {
    Scenario::Chaos(ChaosSpec {
        faults: FaultSpec {
            loss_prob: loss,
            crash_prob: crash,
            ..FaultSpec::default()
        },
        stragglers: StragglerSpec {
            probability: 0.0,
            slowdown: 1.0,
        },
    })
}

/// Every scheme must run the full chaos preset — loss, crashes,
/// dropouts, AP outages and stragglers at once — to completion, with a
/// deadline and quorum armed, and still produce an evaluated model.
#[test]
fn every_scheme_completes_under_chaos() {
    let recovery = RecoverySpec {
        deadline: Some(DeadlinePolicy {
            deadline_s: 30.0,
            min_quorum_frac: 0.3,
        }),
        backups: 0,
    };
    for kind in SchemeKind::all() {
        let config = tiny(Scenario::Chaos(ChaosSpec::default()), recovery);
        let result = Runner::new(config).unwrap().run(kind).unwrap();
        assert_eq!(result.records.len(), 6, "{kind}");
        assert!(result.total_latency_s() > 0.0, "{kind}");
        let acc = result.records.last().unwrap().test_accuracy;
        assert!(acc.is_some_and(|a| a.is_finite() && a >= 0.0), "{kind}");
    }
}

/// Fault draws are pure functions of (seed, client, round, transfer) —
/// never of host parallelism — so a chaos run must be byte-identical at
/// any thread count, standby activations included.
#[test]
fn chaos_runs_are_thread_count_invariant() {
    let recovery = RecoverySpec {
        deadline: Some(DeadlinePolicy {
            deadline_s: 30.0,
            min_quorum_frac: 0.3,
        }),
        backups: 1,
    };
    let mut activated = 0;
    for kind in [
        SchemeKind::Gsfl,
        SchemeKind::Federated,
        SchemeKind::SplitFed,
    ] {
        let run = |threads: usize| {
            let mut config = tiny_population(Scenario::Chaos(ChaosSpec::default()), recovery);
            config.client_threads = Some(threads);
            Runner::new(config).unwrap().run(kind).unwrap()
        };
        let a = run(1);
        let b = run(4);
        assert_eq!(a.records.len(), b.records.len(), "{kind}");
        for (ra, rb) in a.records.iter().zip(&b.records) {
            assert_eq!(
                ra, rb,
                "{kind}: fault realizations must not depend on threads"
            );
        }
        activated += a.total_backups_activated();
    }
    assert!(activated > 0, "no standby activated: the runs pin nothing");
}

/// Population-mode standbys cover crashed primaries under the full chaos
/// preset: every FedAvg-style and split scheme activates some, and each
/// activation keeps a crashed slot's update, so fewer clients are lost
/// than with no standbys on the same fault draws.
#[test]
fn population_standbys_cover_crashed_primaries_under_chaos() {
    let with_backups = RecoverySpec {
        deadline: None,
        backups: 2,
    };
    for kind in [
        SchemeKind::Federated,
        SchemeKind::VanillaSplit,
        SchemeKind::SplitFed,
        SchemeKind::Gsfl,
    ] {
        let chaos = Scenario::Chaos(ChaosSpec::default());
        let covered = Runner::new(tiny_population(chaos, with_backups))
            .unwrap()
            .run(kind)
            .unwrap();
        let bare = Runner::new(tiny_population(chaos, RecoverySpec::default()))
            .unwrap()
            .run(kind)
            .unwrap();
        assert!(
            covered.total_backups_activated() > 0,
            "{kind}: chaos crashes someone, so a standby must activate"
        );
        assert!(
            covered.total_lost_clients() < bare.total_lost_clients(),
            "{kind}: standbys must save crashed slots ({} lost vs {})",
            covered.total_lost_clients(),
            bare.total_lost_clients()
        );
    }
}

/// Driving schemes round by round under harsh faults and a tight
/// deadline: quorum-missed rounds must occur, be flagged in the round's
/// fault stats, and leave the global parameters bitwise unchanged.
#[test]
fn quorum_missed_rounds_leave_global_unchanged() {
    let recovery = RecoverySpec {
        deadline: Some(DeadlinePolicy {
            deadline_s: 2.0,
            min_quorum_frac: 0.9,
        }),
        backups: 0,
    };
    for kind in [
        SchemeKind::Federated,
        SchemeKind::Gsfl,
        SchemeKind::SplitFed,
        SchemeKind::VanillaSplit,
    ] {
        let config = tiny(faults_only(0.4, 0.25), recovery);
        let runner = Runner::new(config).unwrap();
        let ctx = runner.context();
        let mut scheme = kind.scheme();
        scheme.init(ctx).unwrap();
        let mut skipped = 0usize;
        for round in 1..=6usize {
            let before = scheme.global_params().unwrap();
            let out = scheme.run_round(ctx, round).unwrap();
            if !out.latency.faults.quorum_met {
                skipped += 1;
                assert!(
                    !out.aggregated,
                    "{kind}: a skipped round must not aggregate"
                );
                assert_eq!(out.train_loss, 0.0, "{kind}");
                let after = scheme.global_params().unwrap();
                assert_eq!(
                    before, after,
                    "{kind}: round {round} missed quorum but changed the model"
                );
            }
        }
        assert!(
            skipped > 0,
            "{kind}: harsh faults + tight deadline must skip rounds"
        );
    }
}

/// A round in which nobody delivered misses its quorum however small the
/// quorum fraction: with every client past a 1 ns deadline and a quorum
/// of 1e-13, every scheme records a missed quorum with all six clients
/// lost and keeps its model.
#[test]
fn zero_survivor_rounds_miss_quorum_at_any_quorum_fraction() {
    let recovery = RecoverySpec {
        deadline: Some(DeadlinePolicy {
            deadline_s: 1e-9,
            min_quorum_frac: 1e-13,
        }),
        backups: 0,
    };
    for kind in [
        SchemeKind::Federated,
        SchemeKind::VanillaSplit,
        SchemeKind::SplitFed,
        SchemeKind::Gsfl,
    ] {
        let runner = Runner::new(tiny(Scenario::Static, recovery)).unwrap();
        let ctx = runner.context();
        let mut scheme = kind.scheme();
        scheme.init(ctx).unwrap();
        let start = scheme.global_params().unwrap();
        for round in 1..=3usize {
            let out = scheme.run_round(ctx, round).unwrap();
            assert!(!out.latency.faults.quorum_met, "{kind}: round {round}");
            assert_eq!(out.latency.faults.lost_clients, 6, "{kind}: round {round}");
            assert!(!out.aggregated, "{kind}: round {round}");
        }
        assert_eq!(scheme.global_params().unwrap(), start, "{kind}");
    }
}

/// A recovery spec that never fires — a deadline far beyond any round
/// and backups with no crashes to cover — prices and trains exactly
/// like no recovery spec at all.
#[test]
fn generous_recovery_on_clean_channel_is_identity() {
    let generous = RecoverySpec {
        deadline: Some(DeadlinePolicy {
            deadline_s: 1e9,
            min_quorum_frac: 0.1,
        }),
        backups: 2,
    };
    for kind in SchemeKind::all() {
        let base = Runner::new(tiny_population(Scenario::Static, RecoverySpec::default()))
            .unwrap()
            .run(kind)
            .unwrap();
        let armed = Runner::new(tiny_population(Scenario::Static, generous))
            .unwrap()
            .run(kind)
            .unwrap();
        assert_eq!(base.records.len(), armed.records.len(), "{kind}");
        for (ra, rb) in base.records.iter().zip(&armed.records) {
            assert_eq!(
                ra, rb,
                "{kind}: an unfired recovery spec must be the identity"
            );
        }
    }
}

/// Fault accounting flows from the wire to the run records: a lossy
/// link shows retries (and only retries), crashes show lost clients.
#[test]
fn fault_accounting_reaches_records() {
    let lossy = Runner::new(tiny(faults_only(0.3, 0.0), RecoverySpec::default()))
        .unwrap()
        .run(SchemeKind::Gsfl)
        .unwrap();
    assert!(lossy.total_retries() > 0, "p=0.3 must retransmit");
    assert!(lossy.total_wasted_airtime_bytes() > 0);
    assert_eq!(
        lossy.total_lost_clients(),
        0,
        "loss only delays, never drops"
    );
    assert_eq!(lossy.rounds_skipped(), 0, "no deadline, no skips");

    let crashy = Runner::new(tiny(faults_only(0.0, 0.3), RecoverySpec::default()))
        .unwrap()
        .run(SchemeKind::Gsfl)
        .unwrap();
    assert!(crashy.total_lost_clients() > 0, "p=0.3 must crash someone");
    assert_eq!(crashy.total_retries(), 0, "no loss, no retries");
}

/// A learning rate of 1e12 blows the models up in their first round.
/// No aggregating scheme averages a non-finite upload into its global
/// model: each leaves such uploads out of the merge as lost clients.
/// SL's one chain and GSFL's two groups all turn non-finite, so their
/// first round misses its quorum, keeps the initial global model, and
/// the session stops with `Diverged`, as CL's does once its own model
/// turns non-finite. FL and SFL each keep one client whose update stayed
/// finite, if enormous, so they merge it and train on.
#[test]
fn diverging_runs_stop_and_keep_a_finite_global_model() {
    let config = ExperimentConfig::builder()
        .clients(6)
        .groups(2)
        .rounds(5)
        .learning_rate(1e12)
        .dataset(DatasetConfig {
            classes: 43,
            samples_per_class: 8,
            test_per_class: 2,
            image_size: 8,
        })
        .model(ModelKind::Mlp { hidden: vec![16] })
        .seed(3)
        .build()
        .unwrap();
    let runner = Runner::new(config).unwrap();
    let ctx = runner.context();
    for kind in SchemeKind::all() {
        let mut session = runner.session(kind).unwrap();
        let stop = session.by_ref().find_map(|event| match event.unwrap() {
            RoundEvent::Stopped { reason, .. } => Some(reason),
            _ => None,
        });
        let first = session.finish().records[0];
        match kind {
            SchemeKind::Centralized => {
                assert_eq!(stop, Some(StopReason::Diverged { round: 1 }), "{kind}");
                continue;
            }
            SchemeKind::VanillaSplit | SchemeKind::Gsfl => {
                assert_eq!(stop, Some(StopReason::Diverged { round: 1 }), "{kind}");
                assert!(!first.quorum_met, "{kind}");
                assert_eq!(first.lost_clients, 6, "{kind}");
            }
            SchemeKind::Federated | SchemeKind::SplitFed => {
                assert_eq!(stop, Some(StopReason::RoundBudget { rounds: 5 }), "{kind}");
                assert!(first.quorum_met, "{kind}");
                assert_eq!(first.lost_clients, 5, "{kind}");
            }
        }
        // Driven round by round, every round leaves a finite global
        // model; where nothing was merged, the model is as it was.
        let mut scheme = kind.scheme();
        scheme.init(ctx).unwrap();
        for round in 1..=5 {
            let before = scheme.global_params().unwrap();
            let out = scheme.run_round(ctx, round).unwrap();
            let global = scheme.global_params().unwrap();
            assert!(
                global.values().iter().all(|v| v.is_finite()),
                "{kind}: round {round} left a non-finite global model"
            );
            if !out.latency.faults.quorum_met {
                assert_eq!(global, before, "{kind}: round {round}");
            }
        }
    }
}
