//! Integration tests for the session-based scheme API: stream/one-shot
//! equivalence, pluggable stop policies, and name dispatch of the schemes.

use gsfl::core::config::{DatasetConfig, ExperimentConfig, ModelKind};
use gsfl::core::runner::{RoundEvent, Runner, Session};
use gsfl::core::scheme::SchemeKind;
use gsfl::core::stop::{CompositePolicy, LatencyBudget, LossPlateau, RoundBudget, StopReason};

fn config(rounds: usize) -> ExperimentConfig {
    ExperimentConfig::builder()
        .clients(6)
        .groups(2)
        .rounds(rounds)
        .batch_size(4)
        .eval_every(2)
        .learning_rate(0.1)
        .dataset(DatasetConfig {
            classes: 4,
            samples_per_class: 10,
            test_per_class: 4,
            image_size: 8,
        })
        .model(ModelKind::Mlp { hidden: vec![16] })
        .seed(11)
        .build()
        .unwrap()
}

/// `Runner::run` (a drain of the session iterator) and a manual
/// event-by-event drain must produce byte-identical results for every
/// scheme.
#[test]
fn session_stream_equals_one_shot_for_every_scheme() {
    let runner = Runner::new(config(4)).unwrap();
    for kind in SchemeKind::all() {
        let one_shot = runner.run(kind).unwrap();

        let mut session = runner.session(kind).unwrap();
        let mut streamed_records = Vec::new();
        for event in &mut session {
            if let RoundEvent::RoundFinished { record, .. } = event.unwrap() {
                streamed_records.push(record);
            }
        }
        let streamed = session.finish();

        assert_eq!(one_shot.scheme, streamed.scheme, "{kind}");
        assert_eq!(one_shot.records.len(), streamed.records.len(), "{kind}");
        for (a, b) in one_shot.records.iter().zip(&streamed.records) {
            assert_eq!(a, b, "{kind}: records must be identical");
        }
        assert_eq!(
            one_shot.records, streamed_records,
            "{kind}: events must carry the records"
        );
        assert_eq!(
            one_shot.server_storage_bytes, streamed.server_storage_bytes,
            "{kind}"
        );
        assert_eq!(one_shot.param_count, streamed.param_count, "{kind}");
    }
}

/// The event stream has the documented shape: every round yields
/// `RoundStarted` before `RoundFinished`, eval rounds yield `Evaluated`,
/// and the stream ends with `Stopped`.
#[test]
fn event_stream_shape_is_consistent() {
    let runner = Runner::new(config(4)).unwrap();
    let session = runner.session(SchemeKind::Federated).unwrap();
    let events: Vec<RoundEvent> = session.map(|e| e.unwrap()).collect();

    let mut started = 0;
    let mut finished = 0;
    let mut evaluated = 0;
    let mut current: Option<usize> = None;
    for event in &events {
        match event {
            RoundEvent::RoundStarted { round } => {
                assert_eq!(current, None, "round {round} started before previous ended");
                current = Some(*round);
                started += 1;
            }
            RoundEvent::RoundFinished { round, record } => {
                assert_eq!(current, Some(*round));
                assert_eq!(record.round, *round);
                current = None;
                finished += 1;
            }
            RoundEvent::Evaluated { round, accuracy } => {
                assert_eq!(current, Some(*round));
                assert!((0.0..=1.0).contains(accuracy));
                evaluated += 1;
            }
            RoundEvent::Aggregated { round } => assert_eq!(current, Some(*round)),
            RoundEvent::Stopped { .. } => {}
        }
    }
    assert_eq!(started, 4);
    assert_eq!(finished, 4);
    // eval_every=2 with rounds 1 and 4 forced: rounds 1, 2, 4.
    assert_eq!(evaluated, 3);
    assert!(matches!(
        events.last(),
        Some(RoundEvent::Stopped {
            reason: StopReason::RoundBudget { rounds: 4 },
            ..
        })
    ));
}

/// A latency budget halts a run mid-way through its round budget.
/// SL's one chain is never merged, so an SL session emits no
/// `Aggregated` event, while SplitFed and GSFL emit one per round.
#[test]
fn sl_never_aggregates_while_sfl_and_gsfl_aggregate_every_round() {
    let runner = Runner::new(config(4)).unwrap();
    for (kind, per_round) in [
        (SchemeKind::VanillaSplit, 0),
        (SchemeKind::SplitFed, 1),
        (SchemeKind::Gsfl, 1),
    ] {
        let mut aggregated = vec![0usize; 4];
        for event in runner.session(kind).unwrap() {
            if let RoundEvent::Aggregated { round } = event.unwrap() {
                aggregated[round - 1] += 1;
            }
        }
        assert_eq!(aggregated, vec![per_round; 4], "{kind}");
    }
}

#[test]
fn latency_budget_halts_mid_run() {
    let runner = Runner::new(config(6)).unwrap();
    let reference = runner.run(SchemeKind::Gsfl).unwrap();
    assert_eq!(reference.records.len(), 6);
    // Budget for roughly half the total simulated time.
    let budget = reference.total_latency_s() / 2.0;

    let session = runner
        .session_with_policy(SchemeKind::Gsfl, Box::new(LatencyBudget::new(budget)))
        .unwrap();
    let result = session.run_to_end().unwrap();
    assert!(
        result.records.len() < reference.records.len(),
        "latency budget must truncate: {} vs {}",
        result.records.len(),
        reference.records.len()
    );
    // The truncated prefix must be identical to the reference run.
    for (a, b) in result.records.iter().zip(&reference.records) {
        assert_eq!(a, b, "prefix must match the unbudgeted run");
    }
}

/// Plateau detection stops a run whose loss stops improving; with a huge
/// `min_delta` every round counts as stalled, so it stops at `patience`.
#[test]
fn loss_plateau_detection_stops_early() {
    let runner = Runner::new(config(6)).unwrap();
    let session = runner
        .session_with_policy(
            SchemeKind::Centralized,
            Box::new(LossPlateau::new(2, f64::INFINITY)),
        )
        .unwrap();
    let result = session.run_to_end().unwrap();
    assert_eq!(
        result.records.len(),
        2,
        "plateau must stop after patience rounds"
    );
}

/// Policies compose: the earliest trip wins.
#[test]
fn composite_policy_takes_first_trip() {
    let runner = Runner::new(config(6)).unwrap();
    let policy = CompositePolicy::new()
        .with(Box::new(RoundBudget::new(3)))
        .with(Box::new(LatencyBudget::new(f64::INFINITY)));
    let mut session = runner
        .session_with_policy(SchemeKind::VanillaSplit, Box::new(policy))
        .unwrap();
    let mut stop = None;
    for event in &mut session {
        if let RoundEvent::Stopped { reason, .. } = event.unwrap() {
            stop = Some(reason);
        }
    }
    assert!(matches!(stop, Some(StopReason::RoundBudget { rounds: 3 })));
    assert_eq!(session.finish().records.len(), 3);
}

/// Name round-trip: every built-in kind's name maps back to it, the
/// scheme it builds reports that kind, and a session over that scheme
/// runs identically to `run(kind)`.
#[test]
fn registry_round_trips_and_runs() {
    let names: Vec<&str> = SchemeKind::all().iter().map(|k| k.name()).collect();
    assert_eq!(names, vec!["cl", "sl", "gsfl", "fl", "sfl"]);

    let runner = Runner::new(config(2)).unwrap();
    for kind in SchemeKind::all() {
        assert_eq!(SchemeKind::from_name(kind.name()), Some(kind));
        assert_eq!(kind.scheme().kind(), kind);

        let via_scheme = runner
            .session_scheme(kind.scheme(), Box::new(RoundBudget::new(usize::MAX)))
            .unwrap()
            .run_to_end()
            .unwrap();
        let via_kind = runner.run(kind).unwrap();
        assert_eq!(via_scheme.records, via_kind.records, "{kind}");
    }
}

/// A session can be driven directly from a context (without a Runner),
/// which is what `SchemeKind::run` does.
#[test]
fn kind_run_matches_session_over_context() {
    let runner = Runner::new(config(2)).unwrap();
    let via_kind = SchemeKind::Gsfl.run(runner.context()).unwrap();
    let via_session = Session::over(runner.context(), SchemeKind::Gsfl)
        .unwrap()
        .run_to_end()
        .unwrap();
    assert_eq!(via_kind.records, via_session.records);
}

/// Aborting a session mid-run keeps the partial prefix.
#[test]
fn mid_run_abort_preserves_prefix() {
    let runner = Runner::new(config(5)).unwrap();
    let reference = runner.run(SchemeKind::SplitFed).unwrap();

    let mut session = runner.session(SchemeKind::SplitFed).unwrap();
    let mut seen = 0;
    for event in &mut session {
        if matches!(event.unwrap(), RoundEvent::RoundFinished { .. }) {
            seen += 1;
            if seen == 2 {
                break;
            }
        }
    }
    let partial = session.finish();
    assert_eq!(partial.records.len(), 2);
    for (a, b) in partial.records.iter().zip(&reference.records) {
        assert_eq!(a, b, "aborted prefix must match the full run");
    }
}

/// `run_many` runs schemes on parallel threads but must preserve both
/// order and per-scheme determinism.
#[test]
fn run_many_is_deterministic_and_ordered() {
    let runner = Runner::new(config(3)).unwrap();
    let kinds = SchemeKind::all();
    let many = runner.run_many(&kinds).unwrap();
    assert_eq!(many.len(), kinds.len());
    for (kind, result) in kinds.iter().zip(&many) {
        assert_eq!(result.scheme, kind.name());
        let solo = runner.run(*kind).unwrap();
        assert_eq!(solo.records, result.records, "{kind}");
    }
}
