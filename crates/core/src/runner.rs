//! The session driver: build a context once, stream any scheme's rounds
//! against it.
//!
//! The round loop that every scheme used to reimplement — eval cadence,
//! recording, early stopping — lives here once, generically over the
//! [`Scheme`] trait. Two entry points:
//!
//! * [`Runner::run`] — one-shot: drain a session, get the [`RunResult`].
//! * [`Runner::session`] — streaming: an iterator of [`RoundEvent`]s, so
//!   callers can observe rounds as they finish, checkpoint, stream CSV
//!   rows, or abort mid-run and keep the partial result. `run` is a thin
//!   drain of this iterator, so both paths produce identical records.

use crate::config::ExperimentConfig;
use crate::context::TrainContext;
use crate::results::{RoundRecord, RunResult};
use crate::scheme::{eval_params, should_eval, Recorder, Scheme, SchemeKind};
use crate::stop::{NeverStop, StopPolicy, StopReason, TargetAccuracy};
use crate::Result;
use gsfl_nn::Sequential;
use std::collections::VecDeque;

/// Builds the shared context for an experiment and runs schemes against
/// it, guaranteeing every scheme sees identical data, model init, channel
/// realizations and grouping.
///
/// # Example
///
/// ```no_run
/// use gsfl_core::config::ExperimentConfig;
/// use gsfl_core::runner::Runner;
/// use gsfl_core::scheme::SchemeKind;
///
/// # fn main() -> Result<(), gsfl_core::CoreError> {
/// let config = ExperimentConfig::builder().clients(8).groups(2).rounds(5).build()?;
/// let runner = Runner::new(config)?;
/// let gsfl = runner.run(SchemeKind::Gsfl)?;
/// let sl = runner.run(SchemeKind::VanillaSplit)?;
/// assert!(gsfl.total_latency_s() < sl.total_latency_s());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Runner {
    ctx: TrainContext,
}

impl Runner {
    /// Builds the experiment context (datasets, shards, wireless model,
    /// groups).
    ///
    /// # Errors
    ///
    /// Propagates configuration and construction errors.
    pub fn new(config: ExperimentConfig) -> Result<Self> {
        Ok(Runner {
            ctx: TrainContext::from_config(config)?,
        })
    }

    /// The shared context.
    pub fn context(&self) -> &TrainContext {
        &self.ctx
    }

    /// Starts a streaming session for one scheme, with the stop policy
    /// implied by the config (`target_accuracy` if set).
    ///
    /// # Errors
    ///
    /// Propagates scheme initialization errors.
    pub fn session(&self, kind: SchemeKind) -> Result<Session<'_>> {
        Session::over(&self.ctx, kind)
    }

    /// Starts a streaming session with an explicit stop policy.
    ///
    /// The policy *replaces* the config-implied one: a config-level
    /// `target_accuracy` is not consulted. To keep it, compose it in via
    /// [`crate::stop::CompositePolicy`] with a
    /// [`crate::stop::TargetAccuracy`] member.
    ///
    /// # Errors
    ///
    /// Propagates scheme initialization errors.
    pub fn session_with_policy(
        &self,
        kind: SchemeKind,
        policy: Box<dyn StopPolicy>,
    ) -> Result<Session<'_>> {
        Session::with_scheme(&self.ctx, kind.scheme(), policy)
    }

    /// Starts a streaming session over a caller-provided scheme instance
    /// (e.g. one built by [`SchemeKind::scheme`]). As with
    /// [`Runner::session_with_policy`], `policy` replaces the
    /// config-implied stop policy.
    ///
    /// # Errors
    ///
    /// Propagates scheme initialization errors.
    pub fn session_scheme(
        &self,
        scheme: Box<dyn Scheme>,
        policy: Box<dyn StopPolicy>,
    ) -> Result<Session<'_>> {
        Session::with_scheme(&self.ctx, scheme, policy)
    }

    /// Runs one scheme to completion by draining its session.
    ///
    /// # Errors
    ///
    /// Propagates scheme execution errors.
    pub fn run(&self, kind: SchemeKind) -> Result<RunResult> {
        self.session(kind)?.run_to_end()
    }

    /// Runs several schemes concurrently (sharing the immutable context),
    /// returning results in the order of `kinds`. The fan-out is clamped
    /// through the shared thread budget (see
    /// [`gsfl_tensor::threading`]), so stacking `run_many` on top of
    /// per-round client/group parallelism cannot oversubscribe the host.
    /// Records are identical to sequential runs — each scheme's training
    /// is independent and internally deterministic. `wall_clock_s`,
    /// however, measures real elapsed host time while the schemes
    /// contend for cores, so it is not comparable to a solo run's.
    ///
    /// # Errors
    ///
    /// Propagates the first scheme failure, in `kinds` order.
    pub fn run_many(&self, kinds: &[SchemeKind]) -> Result<Vec<RunResult>> {
        // Scheme-level fan-out always draws from the shared budget;
        // `client_threads` governs only the *in-round* parallelism, so
        // honoring it here too would apply the override at two nesting
        // levels at once and oversubscribe.
        let grant = gsfl_tensor::threading::request_threads(kinds.len());
        crate::parallel::run_indexed(kinds.len(), grant.threads(), |i| self.run(kinds[i]))
    }
}

/// Best-effort extraction of a panic payload's message.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".into())
}

/// A progress event streamed by a [`Session`].
///
/// Per round, a session yields `RoundStarted`, then — once the round's
/// training completes — `Aggregated` (for FedAvg schemes), `Evaluated`
/// (on eval-cadence rounds), and `RoundFinished` with the full record.
/// The final event is always `Stopped`, carrying why the run ended.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RoundEvent {
    /// Round `round` is about to train.
    RoundStarted {
        /// 1-based round number.
        round: usize,
    },
    /// The round ended in a server-side FedAvg aggregation.
    Aggregated {
        /// 1-based round number.
        round: usize,
    },
    /// The global model was evaluated on the test set this round.
    Evaluated {
        /// 1-based round number.
        round: usize,
        /// Test accuracy in `[0,1]`.
        accuracy: f64,
    },
    /// The round finished; `record` is what [`RunResult::records`] will
    /// contain.
    RoundFinished {
        /// 1-based round number.
        round: usize,
        /// The recorded metrics.
        record: RoundRecord,
    },
    /// The session ended.
    Stopped {
        /// The last finished round.
        round: usize,
        /// Why the session ended.
        reason: StopReason,
    },
}

/// A streaming training run: an iterator of [`RoundEvent`]s over one
/// scheme and one shared context.
///
/// Drop the session (or stop iterating and call [`Session::finish`]) to
/// abort mid-run; the records accumulated so far are kept.
///
/// # Example
///
/// ```no_run
/// use gsfl_core::config::ExperimentConfig;
/// use gsfl_core::runner::{RoundEvent, Runner};
/// use gsfl_core::scheme::SchemeKind;
///
/// # fn main() -> Result<(), gsfl_core::CoreError> {
/// let runner = Runner::new(ExperimentConfig::builder().clients(8).groups(2).build()?)?;
/// let mut session = runner.session(SchemeKind::Gsfl)?;
/// for event in &mut session {
///     if let RoundEvent::Evaluated { round, accuracy } = event? {
///         println!("round {round}: {:.1}%", accuracy * 100.0);
///     }
/// }
/// let result = session.finish();
/// println!("{} rounds recorded", result.records.len());
/// # Ok(())
/// # }
/// ```
pub struct Session<'a> {
    ctx: &'a TrainContext,
    scheme: Box<dyn Scheme>,
    policy: Box<dyn StopPolicy>,
    eval_net: Sequential,
    param_count: usize,
    recorder: Recorder,
    queue: VecDeque<RoundEvent>,
    next_round: usize,
    announced: Option<usize>,
    done: bool,
}

impl<'a> Session<'a> {
    /// A session over `kind` with the config-implied stop policy
    /// (`target_accuracy` if set, otherwise run all rounds).
    ///
    /// # Errors
    ///
    /// Propagates scheme initialization errors.
    pub fn over(ctx: &'a TrainContext, kind: SchemeKind) -> Result<Self> {
        Session::with_scheme(ctx, kind.scheme(), default_policy(&ctx.config))
    }

    /// A session over an explicit scheme instance and stop policy. The
    /// scheme may be freshly constructed; this initializes it.
    ///
    /// # Errors
    ///
    /// Propagates scheme initialization errors.
    pub fn with_scheme(
        ctx: &'a TrainContext,
        mut scheme: Box<dyn Scheme>,
        policy: Box<dyn StopPolicy>,
    ) -> Result<Self> {
        scheme.init(ctx)?;
        let cfg = &ctx.config;
        let eval_net = cfg
            .model
            .build(&ctx.sample_dims, cfg.dataset.classes, cfg.seed)?;
        let param_count = eval_net.param_count();
        let recorder = Recorder::new(scheme.name());
        Ok(Session {
            ctx,
            scheme,
            policy,
            eval_net,
            param_count,
            recorder,
            queue: VecDeque::new(),
            next_round: 1,
            announced: None,
            done: false,
        })
    }

    /// The scheme being trained.
    pub fn kind(&self) -> SchemeKind {
        self.scheme.kind()
    }

    /// Executes the announced round and queues its events.
    fn execute(&mut self, round: usize) -> Result<()> {
        let cfg = &self.ctx.config;
        let outcome = self.scheme.run_round(self.ctx, round)?;
        let accuracy = if should_eval(cfg, round) {
            let params = self.scheme.global_params()?;
            Some(eval_params(self.ctx, &mut self.eval_net, &params)?)
        } else {
            None
        };
        self.recorder
            .push(round, outcome.latency, outcome.train_loss, accuracy);
        let record = *self.recorder.last_record().expect("record was just pushed");

        if outcome.aggregated {
            self.queue.push_back(RoundEvent::Aggregated { round });
        }
        if let Some(accuracy) = accuracy {
            self.queue
                .push_back(RoundEvent::Evaluated { round, accuracy });
        }
        self.queue
            .push_back(RoundEvent::RoundFinished { round, record });

        self.next_round = round + 1;
        if self.scheme.diverged() {
            self.queue.push_back(RoundEvent::Stopped {
                round,
                reason: StopReason::Diverged { round },
            });
            self.done = true;
        } else if let Some(reason) = self.policy.observe(&record) {
            self.queue.push_back(RoundEvent::Stopped { round, reason });
            self.done = true;
        } else if round >= cfg.rounds {
            self.queue.push_back(RoundEvent::Stopped {
                round,
                reason: StopReason::RoundBudget { rounds: cfg.rounds },
            });
            self.done = true;
        }
        Ok(())
    }

    /// Consumes the session and produces the result accumulated so far
    /// (the complete result after a full drain; a partial one after an
    /// abort).
    pub fn finish(self) -> RunResult {
        let storage = self.scheme.storage_bytes(self.ctx);
        self.recorder.finish(storage, self.param_count)
    }

    /// Drains every event and returns the final result — the one-shot
    /// path [`Runner::run`] uses.
    ///
    /// # Errors
    ///
    /// Propagates the first round error.
    pub fn run_to_end(mut self) -> Result<RunResult> {
        for event in &mut self {
            event?;
        }
        Ok(self.finish())
    }
}

impl Iterator for Session<'_> {
    type Item = Result<RoundEvent>;

    fn next(&mut self) -> Option<Self::Item> {
        if let Some(event) = self.queue.pop_front() {
            return Some(Ok(event));
        }
        if self.done {
            return None;
        }
        match self.announced.take() {
            None => {
                let round = self.next_round;
                if round > self.ctx.config.rounds {
                    self.done = true;
                    return None;
                }
                self.announced = Some(round);
                self.recorder.round_started();
                Some(Ok(RoundEvent::RoundStarted { round }))
            }
            Some(round) => match self.execute(round) {
                Ok(()) => self.queue.pop_front().map(Ok),
                Err(e) => {
                    self.done = true;
                    Some(Err(e))
                }
            },
        }
    }
}

impl std::fmt::Debug for Session<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("scheme", &self.scheme.name())
            .field("next_round", &self.next_round)
            .field("done", &self.done)
            .finish()
    }
}

/// The stop policy implied by a config: target accuracy if set.
fn default_policy(cfg: &ExperimentConfig) -> Box<dyn StopPolicy> {
    match cfg.target_accuracy {
        Some(target) => Box::new(TargetAccuracy::new(target)),
        None => Box::new(NeverStop),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{DatasetConfig, ModelKind};
    use crate::stop::LatencyBudget;

    fn tiny() -> ExperimentConfig {
        ExperimentConfig::builder()
            .clients(4)
            .groups(2)
            .rounds(3)
            .batch_size(4)
            .eval_every(1)
            .learning_rate(0.1)
            .dataset(DatasetConfig {
                classes: 3,
                samples_per_class: 8,
                test_per_class: 4,
                image_size: 8,
            })
            .model(ModelKind::Mlp { hidden: vec![16] })
            .seed(1)
            .build()
            .unwrap()
    }

    #[test]
    fn runner_executes_every_scheme() {
        let runner = Runner::new(tiny()).unwrap();
        for kind in SchemeKind::all() {
            let result = runner.run(kind).unwrap();
            assert_eq!(result.records.len(), 3, "{kind}");
            assert!(result.total_latency_s() > 0.0, "{kind}");
            assert!(
                result.records.last().unwrap().test_accuracy.is_some(),
                "{kind}"
            );
        }
    }

    #[test]
    fn deterministic_runs() {
        let runner = Runner::new(tiny()).unwrap();
        let a = runner.run(SchemeKind::Gsfl).unwrap();
        let b = runner.run(SchemeKind::Gsfl).unwrap();
        assert_eq!(a.records.len(), b.records.len());
        for (ra, rb) in a.records.iter().zip(&b.records) {
            assert_eq!(ra.train_loss, rb.train_loss);
            assert_eq!(ra.test_accuracy, rb.test_accuracy);
            assert_eq!(ra.round_latency_s, rb.round_latency_s);
        }
    }

    #[test]
    fn early_stop_truncates() {
        let mut cfg = tiny();
        cfg.target_accuracy = Some(0.0); // reached at the first eval
        let runner = Runner::new(cfg).unwrap();
        let result = runner.run(SchemeKind::Centralized).unwrap();
        assert_eq!(result.records.len(), 1);
    }

    #[test]
    fn session_streams_expected_event_shape() {
        let runner = Runner::new(tiny()).unwrap();
        let session = runner.session(SchemeKind::Gsfl).unwrap();
        let events: Vec<RoundEvent> = session.map(|e| e.unwrap()).collect();
        // 3 rounds × (started, aggregated, evaluated, finished) + stopped.
        assert_eq!(events.len(), 13);
        assert_eq!(events[0], RoundEvent::RoundStarted { round: 1 });
        assert!(matches!(events[1], RoundEvent::Aggregated { round: 1 }));
        assert!(matches!(events[2], RoundEvent::Evaluated { round: 1, .. }));
        assert!(matches!(
            events[3],
            RoundEvent::RoundFinished { round: 1, .. }
        ));
        assert!(matches!(
            events.last(),
            Some(RoundEvent::Stopped {
                round: 3,
                reason: StopReason::RoundBudget { rounds: 3 }
            })
        ));
    }

    #[test]
    fn session_abort_keeps_partial_records() {
        let runner = Runner::new(tiny()).unwrap();
        let mut session = runner.session(SchemeKind::Centralized).unwrap();
        // Consume events until the first round finishes, then abort.
        for event in &mut session {
            if matches!(event.unwrap(), RoundEvent::RoundFinished { round: 1, .. }) {
                break;
            }
        }
        let partial = session.finish();
        assert_eq!(partial.records.len(), 1);
        assert_eq!(partial.scheme, "cl");
    }

    #[test]
    fn latency_budget_policy_halts_mid_run() {
        let runner = Runner::new(tiny()).unwrap();
        // Find the first round's latency, then budget for just past it.
        let probe = runner.run(SchemeKind::VanillaSplit).unwrap();
        let first = probe.records[0].round_latency_s;
        let session = runner
            .session_with_policy(
                SchemeKind::VanillaSplit,
                Box::new(LatencyBudget::new(first * 1.5)),
            )
            .unwrap();
        let result = session.run_to_end().unwrap();
        assert!(
            result.records.len() < probe.records.len(),
            "budget must truncate the run"
        );
        assert!(result.total_latency_s() >= first * 1.5);
    }

    #[test]
    fn run_many_parallel_matches_sequential_order() {
        let runner = Runner::new(tiny()).unwrap();
        let kinds = [
            SchemeKind::Gsfl,
            SchemeKind::Federated,
            SchemeKind::Centralized,
        ];
        let many = runner.run_many(&kinds).unwrap();
        assert_eq!(many.len(), 3);
        for (kind, result) in kinds.iter().zip(&many) {
            assert_eq!(result.scheme, kind.name(), "order must be preserved");
            let solo = runner.run(*kind).unwrap();
            assert_eq!(solo.records.len(), result.records.len());
            for (a, b) in solo.records.iter().zip(&result.records) {
                assert_eq!(a, b, "{kind}: parallel run must match sequential");
            }
        }
    }
}
