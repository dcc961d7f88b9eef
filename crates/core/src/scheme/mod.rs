//! Training schemes: the GSFL contribution and its baselines.
//!
//! Every scheme implements the [`Scheme`] trait — per-run state built by
//! [`Scheme::init`], one training round per [`Scheme::run_round`] — and
//! the shared round loop (eval cadence, recording, stopping) lives in the
//! generic session driver ([`crate::runner::Session`]). A new scheme
//! plugs in as a [`Scheme`] value
//! ([`crate::runner::Runner::session_scheme`]) without touching the
//! driver; [`SchemeKind`] names and builds the five built-in ones.

mod centralized;
mod common;
mod federated;
mod gsfl;

pub use centralized::Centralized;
pub use federated::Federated;
pub use gsfl::Gsfl;

pub(crate) use common::{eval_params, should_eval, Recorder};

use crate::context::TrainContext;
use crate::latency::RoundLatency;
use crate::results::RunResult;
use crate::storage::server_storage_bytes;
use crate::Result;
use gsfl_nn::params::ParamVec;
use serde::{Deserialize, Serialize};

/// What one training round produced, as reported by a [`Scheme`] to the
/// session driver.
#[derive(Debug, Clone, Copy)]
pub struct RoundOutcome {
    /// Simulated latency, traffic and energy charged for the round.
    pub latency: RoundLatency,
    /// Mean training loss over the round's steps.
    pub train_loss: f64,
    /// Whether the round ended in a server-side model aggregation
    /// (FedAvg; SL's one chain is never merged); drives the
    /// `Aggregated` session event.
    pub aggregated: bool,
}

/// A training scheme driven round-by-round by the session runner.
///
/// The driver owns the round loop: it calls [`Scheme::init`] once, then
/// [`Scheme::run_round`] for rounds `1..=rounds`, evaluating
/// [`Scheme::global_params`] on the session's eval cadence and consulting
/// its stop policy after every round. Implementations keep all mutable
/// training state internal so a fresh instance reproduces a run
/// bit-for-bit.
pub trait Scheme: Send {
    /// Which scheme this is.
    fn kind(&self) -> SchemeKind;

    /// Short lowercase name used in CSV output and file stems.
    fn name(&self) -> &'static str {
        self.kind().name()
    }

    /// Builds per-run state against a context. Must be called exactly
    /// once before [`Scheme::run_round`].
    ///
    /// # Errors
    ///
    /// Propagates model/dataset construction errors.
    fn init(&mut self, ctx: &TrainContext) -> Result<()>;

    /// Executes training round `round` (1-based).
    ///
    /// # Errors
    ///
    /// Propagates training, wireless or simulation errors; fails if
    /// [`Scheme::init`] has not run.
    fn run_round(&mut self, ctx: &TrainContext, round: usize) -> Result<RoundOutcome>;

    /// The current global full-model parameters (client ++ server halves
    /// for split schemes), used by the driver for evaluation.
    ///
    /// # Errors
    ///
    /// Fails if [`Scheme::init`] has not run.
    fn global_params(&self) -> Result<ParamVec>;

    /// Whether training has diverged: a round left no finite model to
    /// go on from (no finite upload reached the aggregation, or CL's own
    /// model turned non-finite). The session driver then stops with
    /// [`crate::stop::StopReason::Diverged`].
    fn diverged(&self) -> bool {
        false
    }

    /// Bytes of model state resident on the edge server while this
    /// scheme runs (the paper's §I storage argument).
    fn storage_bytes(&self, ctx: &TrainContext) -> u64 {
        let full = ctx.costs.full_model_bytes.as_u64();
        let server_side = full.saturating_sub(ctx.costs.client_model_bytes.as_u64());
        server_storage_bytes(
            self.kind(),
            ctx.config.clients,
            ctx.config.groups,
            server_side,
            full,
        )
    }
}

/// The schemes the harness can run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SchemeKind {
    /// Centralized learning: all data pooled at the server.
    Centralized,
    /// Federated learning (FedAvg over full models).
    Federated,
    /// Vanilla split learning: strictly sequential clients, one
    /// client-side and one server-side model, relay through the AP —
    /// GSFL over one chain of the admitted clients (see [`Gsfl`]).
    VanillaSplit,
    /// SplitFed v1: all clients parallel, one server-side model per
    /// client, FedAvg of both halves — GSFL over singleton groups (see
    /// [`Gsfl`]).
    SplitFed,
    /// Group-based split federated learning — the paper's contribution.
    Gsfl,
}

impl SchemeKind {
    /// Short lowercase name used in CSV output and file stems.
    pub fn name(&self) -> &'static str {
        match self {
            SchemeKind::Centralized => "cl",
            SchemeKind::Federated => "fl",
            SchemeKind::VanillaSplit => "sl",
            SchemeKind::SplitFed => "sfl",
            SchemeKind::Gsfl => "gsfl",
        }
    }

    /// The kind for a short name (`"cl"`, `"fl"`, `"sl"`, `"sfl"`,
    /// `"gsfl"`), or `None` for an unknown name.
    pub fn from_name(name: &str) -> Option<SchemeKind> {
        SchemeKind::all().into_iter().find(|k| k.name() == name)
    }

    /// All schemes, in the order the paper's Fig. 2(a) presents them.
    pub fn all() -> [SchemeKind; 5] {
        [
            SchemeKind::Centralized,
            SchemeKind::VanillaSplit,
            SchemeKind::Gsfl,
            SchemeKind::Federated,
            SchemeKind::SplitFed,
        ]
    }

    /// A fresh, uninitialized [`Scheme`] instance of this kind.
    pub fn scheme(self) -> Box<dyn Scheme> {
        match self {
            SchemeKind::Centralized => Box::new(Centralized::new()),
            SchemeKind::Federated => Box::new(Federated::new()),
            SchemeKind::VanillaSplit | SchemeKind::SplitFed | SchemeKind::Gsfl => {
                Box::new(Gsfl::of(self))
            }
        }
    }

    /// Runs the scheme to completion against a context (one-shot
    /// convenience over the session driver).
    ///
    /// # Errors
    ///
    /// Propagates training, wireless or simulation errors.
    pub fn run(&self, ctx: &TrainContext) -> Result<RunResult> {
        crate::runner::Session::over(ctx, *self)?.run_to_end()
    }
}

impl std::fmt::Display for SchemeKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique() {
        let names: std::collections::HashSet<&str> =
            SchemeKind::all().iter().map(|s| s.name()).collect();
        assert_eq!(names.len(), 5);
    }

    #[test]
    fn display_matches_name() {
        assert_eq!(SchemeKind::Gsfl.to_string(), "gsfl");
    }

    #[test]
    fn name_round_trips_through_lookup() {
        for kind in SchemeKind::all() {
            assert_eq!(SchemeKind::from_name(kind.name()), Some(kind));
            let scheme = kind.scheme();
            assert_eq!(scheme.kind(), kind);
            assert_eq!(scheme.name(), kind.name());
        }
        assert_eq!(SchemeKind::from_name("nope"), None);
    }
}
