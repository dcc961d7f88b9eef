//! Group-based split federated learning (GSFL) and its baselines.
//!
//! This crate is the reproduction of the paper's contribution: the
//! **GSFL** training scheme ([`scheme::Gsfl`]) operating in a
//! *split-then-federated* manner over a simulated resource-limited
//! wireless network, together with the evaluation baselines:
//!
//! * [`scheme::Centralized`] — all data pooled at the server (CL),
//! * [`scheme::Federated`] — FedAvg over full models (FL),
//! * vanilla SL ([`scheme::SchemeKind::VanillaSplit`]) — sequential
//!   split learning with client-model relay through the AP, computed as
//!   [`scheme::Gsfl`] over one chain of the admitted clients,
//! * [`scheme::Gsfl`] — the paper's scheme: M groups, per-group server-side
//!   model replicas, sequential split training inside each group, parallel
//!   training across groups, FedAvg of both model halves per round,
//! * SplitFed ([`scheme::SchemeKind::SplitFed`]) — the "simple
//!   combination" with one server-side model per client (SFL), computed
//!   as [`scheme::Gsfl`] over singleton groups and included to
//!   demonstrate the storage blow-up GSFL's grouping avoids.
//!
//! Latency is charged through the pluggable
//! [`gsfl_wireless::environment::ChannelModel`] trait — the composed
//! static model by default, or any time-varying
//! [`gsfl_wireless::scenario::Scenario`] (mobility drift, diurnal
//! bandwidth, stragglers, dropouts) named by the config's `scenario`
//! field — and, for the parallel schemes, a discrete-event simulation
//! ([`gsfl_simnet`]) in which the edge server is a k-slot FIFO resource —
//! inter-group parallelism is throttled by server contention exactly as on
//! a shared edge server.
//!
//! # Architecture
//!
//! Every scheme implements the [`scheme::Scheme`] trait (`init` /
//! `run_round`); the shared round loop — eval cadence, recording, early
//! stopping — lives once in the generic session driver
//! ([`runner::Session`]). Sessions stream [`runner::RoundEvent`]s, so
//! callers can observe a run round-by-round, checkpoint, or abort;
//! [`runner::Runner::run`] is a thin drain of the same iterator. Early
//! stopping is pluggable through [`stop::StopPolicy`] (target accuracy,
//! round/latency budgets, loss plateau — composable), and schemes are
//! name-dispatchable through [`scheme::SchemeKind::from_name`].
//!
//! # Quickstart
//!
//! ```no_run
//! use gsfl_core::config::ExperimentConfig;
//! use gsfl_core::runner::{RoundEvent, Runner};
//! use gsfl_core::scheme::SchemeKind;
//!
//! # fn main() -> Result<(), gsfl_core::CoreError> {
//! let config = ExperimentConfig::builder()
//!     .clients(30)
//!     .groups(6)
//!     .rounds(100)
//!     .seed(42)
//!     .build()?;
//! let runner = Runner::new(config)?;
//!
//! // One-shot: drain the session, get the result.
//! let result = runner.run(SchemeKind::Gsfl)?;
//! println!("final accuracy: {:.1}%", result.final_accuracy_pct());
//!
//! // Streaming: observe the same run round-by-round.
//! let mut session = runner.session(SchemeKind::Gsfl)?;
//! for event in &mut session {
//!     if let RoundEvent::Evaluated { round, accuracy } = event? {
//!         println!("round {round}: {:.1}%", accuracy * 100.0);
//!     }
//! }
//! let streamed = session.finish(); // identical records to `result`
//! # Ok(())
//! # }
//! ```
//!
//! Budgeted runs swap the stop policy:
//!
//! ```no_run
//! # use gsfl_core::config::ExperimentConfig;
//! # use gsfl_core::runner::Runner;
//! # use gsfl_core::scheme::SchemeKind;
//! use gsfl_core::stop::LatencyBudget;
//!
//! # fn main() -> Result<(), gsfl_core::CoreError> {
//! # let runner = Runner::new(ExperimentConfig::builder().build()?)?;
//! // Train for at most one simulated hour of edge time.
//! let session = runner.session_with_policy(
//!     SchemeKind::Gsfl,
//!     Box::new(LatencyBudget::new(3600.0)),
//! )?;
//! let result = session.run_to_end()?;
//! # Ok(())
//! # }
//! ```
//!
//! Time-varying wireless scenarios plug in through the config:
//!
//! ```no_run
//! # use gsfl_core::config::ExperimentConfig;
//! # use gsfl_core::runner::Runner;
//! # use gsfl_core::scheme::SchemeKind;
//! use gsfl_wireless::scenario::{Scenario, StragglerSpec};
//!
//! # fn main() -> Result<(), gsfl_core::CoreError> {
//! let config = ExperimentConfig::builder()
//!     .clients(30)
//!     .groups(6)
//!     .scenario(Scenario::Stragglers(StragglerSpec {
//!         probability: 0.25,
//!         slowdown: 4.0,
//!     }))
//!     .build()?;
//! let result = Runner::new(config)?.run(SchemeKind::Gsfl)?;
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

mod error;

pub mod aggregate;
pub mod compression;
pub mod config;
pub mod context;
pub mod grouping;
pub mod latency;
pub mod orchestrator;
pub(crate) mod parallel;
pub mod population;
pub mod recovery;
pub mod results;
pub mod runner;
pub mod scheme;
pub mod stop;
pub mod storage;

pub use error::CoreError;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, CoreError>;
