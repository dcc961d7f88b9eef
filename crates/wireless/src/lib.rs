//! Wireless network substrate for the GSFL reproduction.
//!
//! The paper evaluates training schemes over a resource-limited wireless
//! network: one access point (AP) with a co-located edge server, and N
//! mobile clients. This crate provides the standard physical-layer and
//! device models that the latency accounting is built on (the same family
//! of models as the paper's reference \[2\], Wu et al., JSAC 2023):
//!
//! * [`units`] — strongly typed quantities ([`units::Seconds`],
//!   [`units::Bytes`], [`units::Hertz`], [`units::Dbm`], …),
//! * [`pathloss`] — free-space and log-distance path loss with log-normal
//!   shadowing,
//! * [`fading`] — Rayleigh block fading, deterministic per (link, round),
//! * [`link`] — SNR/SINR and Shannon-capacity achievable rate,
//! * [`interference`] — co-channel interference between concurrent
//!   transmitters (reuse/orthogonality factor over the SINR form),
//! * [`allocation`] — how the AP divides its bandwidth among concurrent
//!   transmitters (equal / weighted / channel-aware),
//! * [`backhaul`] — AP→aggregator backhaul links priced into two-tier
//!   (hierarchical) aggregation,
//! * [`device`] — heterogeneous client compute profiles,
//! * [`server`] — the edge-server compute profile (rate + parallel slots),
//! * [`topology`] — client placement around the AP,
//! * [`latency`] — the composed latency model: topology, link budgets,
//!   fading streams, device fleet and edge server for one experiment,
//! * [`environment`] — the pluggable [`ChannelModel`] trait: each round
//!   is drawn once into a [`RoundConditions`] snapshot and links are
//!   priced over it; [`RadioEnvironment`] is the one analytic
//!   implementation, from the paper's static cell up to time-varying
//!   overlays (mobility drift, bandwidth profiles, stragglers, faults,
//!   interference) and several APs,
//! * [`fault`] — seeded mid-round fault injection (transfer loss with
//!   retry/backoff pricing, mid-compute crashes, AP outage windows,
//!   round-start dropouts) behind [`fault::FaultInjector`],
//! * [`mobility`] — client mobility models behind the
//!   [`mobility::Mobility`] trait,
//! * [`multi_ap`] — the AP layout of a [`RadioEnvironment`] and the
//!   [`multi_ap::HandoffPolicy`] trait behind mobility-driven
//!   re-association,
//! * [`trace`] — trace-driven channels: serde-loaded per-client
//!   bandwidth/RTT/availability time series replayed as a
//!   [`ChannelModel`] (hold/interpolate resampling, bundled
//!   diurnal-cellular fixture),
//! * [`scenario`] — serde-loadable [`Scenario`] presets that build
//!   environments over any base model.
//!
//! # Example
//!
//! ```
//! use gsfl_wireless::environment::{ChannelModel, Direction, RadioEnvironment};
//! use gsfl_wireless::latency::LatencyModel;
//! use gsfl_wireless::units::Bytes;
//!
//! # fn main() -> Result<(), gsfl_wireless::WirelessError> {
//! let model = LatencyModel::builder().clients(4).seed(7).build()?;
//! let env = RadioEnvironment::builder(model).build()?;
//! // Uplink time for 1 MiB of smashed data from client 0 in round 0,
//! // over the whole band.
//! let round = env.conditions(0)?;
//! let link = env.link(&round, 0, Direction::Uplink, round.bandwidth, &[])?;
//! let t = link.time(Bytes::new(1 << 20))?;
//! assert!(t.as_secs_f64() > 0.0);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

mod error;

pub mod allocation;
pub mod backhaul;
pub mod device;
pub mod energy;
pub mod environment;
pub mod fading;
pub mod fault;
pub mod interference;
pub mod latency;
pub mod link;
pub mod mobility;
pub mod multi_ap;
pub mod pathloss;
pub mod scenario;
pub mod server;
pub mod topology;
pub mod trace;
pub mod units;

pub use backhaul::BackhaulLink;
pub use environment::{ChannelModel, Direction, Link, RadioEnvironment, RoundConditions};
pub use error::WirelessError;
pub use fault::{FaultInjector, FaultSpec, RetryPolicy, TransferOutcome};
pub use interference::InterferenceSpec;
pub use scenario::Scenario;
pub use trace::{ChannelTrace, TraceEnvironment};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, WirelessError>;
