//! Trace-driven channels: replay measured per-client time series.
//!
//! A [`ChannelTrace`] is a serde-loaded set of per-client samples —
//! `(time_s, bandwidth_bps, rtt_s, available)` — and a
//! [`TraceEnvironment`] replays it as a [`ChannelModel`]: round `r` maps
//! to trace time `r × round_s` (wrapping cyclically past the end of the
//! trace), and each client's transmissions are charged against its
//! *measured* link capacity instead of the analytic SNR link budget.
//!
//! Semantics:
//!
//! * `bandwidth_bps` is the client's full-band link throughput at that
//!   instant. A transmission over a `share` of the system band gets the
//!   proportional slice: `rate = bandwidth_bps × share / total_band`.
//!   [`ChannelModel::total_bandwidth`] stays the base model's nominal
//!   band, so dedicated-share math (`B/N`) is unchanged.
//! * `rtt_s` (optional, default 0) is a per-transfer latency floor added
//!   to every uplink/downlink.
//! * `available` (optional, default `true`) marks radio coverage;
//!   resampled with hold semantics always.
//! * Compute rates, distances, fading gains, power and the edge server
//!   come from the wrapped [`LatencyModel`] — the trace replaces the
//!   *radio link* only.
//!
//! Between samples, [`Resample::Hold`] keeps the previous sample's
//! values and [`Resample::Interpolate`] linearly interpolates the
//! numeric fields. Malformed traces (empty series, non-monotonic
//! timestamps, NaN/zero/negative bandwidths) are rejected at load time
//! with field-path error messages — see [`ChannelTrace::validate`].
//!
//! The crate bundles a six-client diurnal-cellular fixture
//! ([`ChannelTrace::diurnal_cellular`]) with phase-shifted congestion
//! waves and deep-trough dropouts, used by the `trace_replay` scenario
//! preset.

use crate::energy::PowerProfile;
use crate::environment::{
    ChannelModel, ClientConditions, Direction, Link, LinkState, RoundConditions,
};
use crate::latency::LatencyModel;
use crate::server::EdgeServer;
use crate::units::{Hertz, Seconds};
use crate::{Result, WirelessError};
use serde::{Deserialize, Serialize};

/// One measurement instant of one client's link.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TraceSample {
    /// Seconds since the start of the trace. Must be strictly
    /// increasing within a series.
    pub time_s: f64,
    /// Measured full-band link throughput, bits per second. Must be
    /// finite and positive.
    pub bandwidth_bps: f64,
    /// Per-transfer round-trip latency floor, seconds (default 0).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub rtt_s: Option<f64>,
    /// Whether the client has radio coverage (default `true`).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub available: Option<bool>,
}

/// One client's measurement series.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClientTrace {
    /// The samples, in strictly increasing `time_s` order.
    pub samples: Vec<TraceSample>,
}

/// A set of per-client link traces, loadable from JSON.
///
/// Clients beyond the trace's series count reuse series modulo its
/// length, so a short trace can drive a larger fleet.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChannelTrace {
    /// Per-client series; client `c` replays `clients[c % len]`.
    pub clients: Vec<ClientTrace>,
}

/// The bundled diurnal-cellular fixture, embedded at compile time.
const DIURNAL_CELLULAR_JSON: &str = include_str!("traces/diurnal_cellular.json");

impl ChannelTrace {
    /// Parses and validates a trace from JSON text.
    ///
    /// # Errors
    ///
    /// Returns [`WirelessError::Config`] for parse failures or any
    /// malformed field (with its path — see [`ChannelTrace::validate`]).
    pub fn from_json(text: &str) -> Result<Self> {
        let trace: ChannelTrace = serde_json::from_str(text)
            .map_err(|e| WirelessError::Config(format!("trace parse error: {e}")))?;
        trace.validate()?;
        Ok(trace)
    }

    /// The bundled six-client diurnal-cellular trace: phase-shifted
    /// 12-minute congestion waves between 2 and 16 Mb/s, rising RTTs in
    /// the troughs, and deep-trough dropouts on two clients.
    pub fn diurnal_cellular() -> Self {
        ChannelTrace::from_json(DIURNAL_CELLULAR_JSON).expect("bundled trace is valid")
    }

    /// Validates the trace: at least one series, every series non-empty
    /// with strictly increasing timestamps, every bandwidth finite and
    /// positive, every RTT finite and non-negative.
    ///
    /// # Errors
    ///
    /// Returns [`WirelessError::Config`] naming the offending field by
    /// path, e.g. `clients[2].samples[5].bandwidth_bps`.
    pub fn validate(&self) -> Result<()> {
        if self.clients.is_empty() {
            return Err(WirelessError::Config(
                "clients: trace holds no client series".into(),
            ));
        }
        for (i, series) in self.clients.iter().enumerate() {
            if series.samples.is_empty() {
                return Err(WirelessError::Config(format!(
                    "clients[{i}].samples: series is empty"
                )));
            }
            for (j, s) in series.samples.iter().enumerate() {
                if !s.time_s.is_finite() || s.time_s < 0.0 {
                    return Err(WirelessError::Config(format!(
                        "clients[{i}].samples[{j}].time_s: must be finite and ≥ 0, got {}",
                        s.time_s
                    )));
                }
                if j > 0 {
                    let prev = series.samples[j - 1].time_s;
                    if s.time_s <= prev {
                        return Err(WirelessError::Config(format!(
                            "clients[{i}].samples[{j}].time_s: timestamps must be strictly \
                             increasing (prev {prev}, got {})",
                            s.time_s
                        )));
                    }
                }
                if !s.bandwidth_bps.is_finite() || s.bandwidth_bps <= 0.0 {
                    return Err(WirelessError::Config(format!(
                        "clients[{i}].samples[{j}].bandwidth_bps: must be finite and > 0, got {}",
                        s.bandwidth_bps
                    )));
                }
                if let Some(rtt) = s.rtt_s {
                    if !rtt.is_finite() || rtt < 0.0 {
                        return Err(WirelessError::Config(format!(
                            "clients[{i}].samples[{j}].rtt_s: must be finite and ≥ 0, got {rtt}"
                        )));
                    }
                }
            }
        }
        Ok(())
    }

    /// Number of client series.
    pub fn series_count(&self) -> usize {
        self.clients.len()
    }
}

/// How trace values between samples are reconstructed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum Resample {
    /// Step function: each sample's values hold until the next sample.
    #[default]
    Hold,
    /// Linear interpolation of the numeric fields (bandwidth, RTT);
    /// availability always holds.
    Interpolate,
}

/// The reconstructed link state of one client at one trace instant.
#[derive(Debug, Clone, Copy, PartialEq)]
struct TracedLink {
    bandwidth_bps: f64,
    rtt_s: f64,
    available: bool,
}

/// A [`ChannelModel`] that replays a [`ChannelTrace`] over a wrapped
/// [`LatencyModel`] (see the module docs for the semantics).
#[derive(Debug, Clone)]
pub struct TraceEnvironment {
    base: LatencyModel,
    trace: ChannelTrace,
    resample: Resample,
    round_s: f64,
}

impl TraceEnvironment {
    /// Builds a trace-driven environment: round `r` reads the trace at
    /// `r × round_s` seconds, wrapping cyclically.
    ///
    /// # Errors
    ///
    /// Returns [`WirelessError::Config`] for an invalid trace or a
    /// non-positive `round_s`.
    pub fn new(
        base: LatencyModel,
        trace: ChannelTrace,
        resample: Resample,
        round_s: f64,
    ) -> Result<Self> {
        trace.validate()?;
        if !round_s.is_finite() || round_s <= 0.0 {
            return Err(WirelessError::Config(format!(
                "round_s: must be finite and > 0, got {round_s}"
            )));
        }
        Ok(TraceEnvironment {
            base,
            trace,
            resample,
            round_s,
        })
    }

    /// The wrapped analytic model.
    pub fn base(&self) -> &LatencyModel {
        &self.base
    }

    /// The replayed trace.
    pub fn trace(&self) -> &ChannelTrace {
        &self.trace
    }

    fn check_client(&self, client: usize) -> Result<()> {
        if client >= self.base.client_count() {
            return Err(WirelessError::UnknownClient {
                client,
                clients: self.base.client_count(),
            });
        }
        Ok(())
    }

    /// The reconstructed link state of `client` at round `round`.
    fn link_state(&self, client: usize, round: u64) -> TracedLink {
        let series = &self.trace.clients[client % self.trace.clients.len()].samples;
        let first = series[0].time_s;
        let last = series[series.len() - 1].time_s;
        let span = last - first;
        let t = round as f64 * self.round_s;
        // Cyclic replay: times inside [first, last] read the trace
        // directly; anything outside wraps with period `span`. A
        // single-sample series is a constant.
        let t = if span <= 0.0 {
            first
        } else if t >= first && t <= last {
            t
        } else {
            first + (t - first).rem_euclid(span)
        };
        // Index of the last sample at or before t.
        let idx = series
            .partition_point(|s| s.time_s <= t)
            .saturating_sub(1)
            .min(series.len() - 1);
        let cur = &series[idx];
        let state_of = |s: &TraceSample| TracedLink {
            bandwidth_bps: s.bandwidth_bps,
            rtt_s: s.rtt_s.unwrap_or(0.0),
            available: s.available.unwrap_or(true),
        };
        match self.resample {
            Resample::Hold => state_of(cur),
            Resample::Interpolate => {
                if idx + 1 >= series.len() {
                    return state_of(cur);
                }
                let next = &series[idx + 1];
                let dt = next.time_s - cur.time_s;
                let w = if dt > 0.0 { (t - cur.time_s) / dt } else { 0.0 };
                let a = state_of(cur);
                let b = state_of(next);
                TracedLink {
                    bandwidth_bps: a.bandwidth_bps + w * (b.bandwidth_bps - a.bandwidth_bps),
                    rtt_s: a.rtt_s + w * (b.rtt_s - a.rtt_s),
                    // Availability is categorical: always hold.
                    available: a.available,
                }
            }
        }
    }
}

impl ChannelModel for TraceEnvironment {
    fn client_count(&self) -> usize {
        self.base.client_count()
    }

    fn total_bandwidth(&self, _round: u64) -> Hertz {
        self.base.total_bandwidth()
    }

    fn server(&self) -> &EdgeServer {
        self.base.server()
    }

    fn power(&self) -> &PowerProfile {
        self.base.power()
    }

    fn client_conditions(&self, client: usize, round: u64) -> Result<ClientConditions> {
        self.check_client(client)?;
        let state = self.link_state(client, round);
        Ok(ClientConditions {
            client,
            distance: self.base.distance(client)?,
            compute_rate: self.base.device(client)?.rate(),
            uplink_gain: self.base.uplink_gain(client, round),
            downlink_gain: self.base.downlink_gain(client, round),
            available: state.available,
            ap: 0,
            link: LinkState::Measured {
                bandwidth_bps: state.bandwidth_bps,
                rtt_s: state.rtt_s,
            },
        })
    }

    /// The traced rate over `share` of the system band (the proportional
    /// slice of the client's full-band throughput), plus its RTT floor.
    /// Traces carry no interference.
    fn link(
        &self,
        cond: &RoundConditions,
        client: usize,
        _dir: Direction,
        share: Hertz,
        _concurrent: &[usize],
    ) -> Result<Link> {
        let entry = cond.client(client)?;
        let LinkState::Measured {
            bandwidth_bps,
            rtt_s,
        } = entry.link
        else {
            return Err(WirelessError::Config(format!(
                "client {client} has a radio link, not a measured one"
            )));
        };
        let total = self.base.total_bandwidth().as_hz();
        let frac = share.as_hz() / total;
        if !frac.is_finite() || frac <= 0.0 {
            return Err(WirelessError::Config(format!(
                "bandwidth share must be > 0, got {} Hz of {} Hz",
                share.as_hz(),
                total
            )));
        }
        Ok(Link {
            rate_bps: bandwidth_bps * frac,
            latency_s: rtt_s,
        })
    }

    fn server_compute(&self, flops: u64) -> Seconds {
        self.base.server_compute(flops)
    }

    fn is_available(&self, client: usize, round: u64) -> bool {
        if client >= self.base.client_count() {
            return false;
        }
        self.link_state(client, round).available
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::Bytes;

    fn base(clients: usize) -> LatencyModel {
        LatencyModel::builder()
            .clients(clients)
            .seed(2)
            .fading(false)
            .build()
            .unwrap()
    }

    fn two_point_trace() -> ChannelTrace {
        ChannelTrace {
            clients: vec![ClientTrace {
                samples: vec![
                    TraceSample {
                        time_s: 0.0,
                        bandwidth_bps: 1.0e6,
                        rtt_s: Some(0.01),
                        available: None,
                    },
                    TraceSample {
                        time_s: 100.0,
                        bandwidth_bps: 3.0e6,
                        rtt_s: Some(0.03),
                        available: Some(false),
                    },
                ],
            }],
        }
    }

    #[test]
    fn bundled_fixture_loads_and_validates() {
        let trace = ChannelTrace::diurnal_cellular();
        assert_eq!(trace.series_count(), 6);
        assert!(trace.clients.iter().all(|c| c.samples.len() == 13));
        // At least one dropout sample is bundled.
        assert!(trace
            .clients
            .iter()
            .flat_map(|c| &c.samples)
            .any(|s| s.available == Some(false)));
    }

    #[test]
    fn validation_rejects_malformed_fields_with_paths() {
        let cases: &[(&str, &str)] = &[
            (r#"{"clients": []}"#, "clients:"),
            (r#"{"clients": [{"samples": []}]}"#, "clients[0].samples:"),
            (
                r#"{"clients": [{"samples": [{"time_s": 0, "bandwidth_bps": 0}]}]}"#,
                "clients[0].samples[0].bandwidth_bps",
            ),
            (
                r#"{"clients": [{"samples": [{"time_s": 0, "bandwidth_bps": -5}]}]}"#,
                "clients[0].samples[0].bandwidth_bps",
            ),
            (
                r#"{"clients": [{"samples": [
                    {"time_s": 0, "bandwidth_bps": 1e6},
                    {"time_s": 0, "bandwidth_bps": 1e6}]}]}"#,
                "clients[0].samples[1].time_s",
            ),
            (
                r#"{"clients": [{"samples": [
                    {"time_s": 5, "bandwidth_bps": 1e6},
                    {"time_s": 2, "bandwidth_bps": 1e6}]}]}"#,
                "clients[0].samples[1].time_s",
            ),
            (
                r#"{"clients": [{"samples": [{"time_s": 0, "bandwidth_bps": 1e6, "rtt_s": -1}]}]}"#,
                "clients[0].samples[0].rtt_s",
            ),
            (
                r#"{"clients": [{"samples": [{"time_s": -3, "bandwidth_bps": 1e6}]}]}"#,
                "clients[0].samples[0].time_s",
            ),
        ];
        for (json, path) in cases {
            let err = ChannelTrace::from_json(json).unwrap_err().to_string();
            assert!(err.contains(path), "{json} should fail at {path}: {err}");
        }
        // NaN cannot appear in JSON, but programmatic traces can carry it.
        let mut trace = two_point_trace();
        trace.clients[0].samples[0].bandwidth_bps = f64::NAN;
        let err = trace.validate().unwrap_err().to_string();
        assert!(err.contains("clients[0].samples[0].bandwidth_bps"), "{err}");
    }

    /// `client`'s link in `round` at `share`, from a fresh snapshot.
    fn link_at(env: &TraceEnvironment, client: usize, round: u64, share: Hertz) -> Result<Link> {
        let cond = env.conditions(round)?;
        env.link(&cond, client, Direction::Uplink, share, &[])
    }

    fn rate(env: &TraceEnvironment, round: u64) -> f64 {
        link_at(env, 0, round, env.total_bandwidth(0))
            .unwrap()
            .rate_bps
    }

    #[test]
    fn hold_steps_and_interpolate_blends() {
        // round_s = 10 → rounds 0..=10 span the 100 s trace.
        let hold = TraceEnvironment::new(base(1), two_point_trace(), Resample::Hold, 10.0).unwrap();
        let lerp =
            TraceEnvironment::new(base(1), two_point_trace(), Resample::Interpolate, 10.0).unwrap();
        // Hold: rounds 0..10 read the first sample.
        assert_eq!(rate(&hold, 0), 1.0e6);
        assert_eq!(rate(&hold, 9), 1.0e6);
        // Interpolate: halfway between samples at round 5.
        assert!((rate(&lerp, 5) - 2.0e6).abs() < 1e-6);
        // Availability always holds: the first sample (available) rules
        // until the second sample's instant.
        assert!(lerp.is_available(0, 5));
        assert!(!lerp.is_available(0, 10));
        assert!(!lerp.conditions(10).unwrap().clients[0].available);
    }

    #[test]
    fn replay_wraps_cyclically() {
        let env = TraceEnvironment::new(base(1), two_point_trace(), Resample::Hold, 10.0).unwrap();
        // Round 10 hits the last sample; round 11 wraps to 10 s past the
        // start — back on the first sample.
        assert_eq!(rate(&env, 10), 3.0e6);
        assert_eq!(rate(&env, 11), 1.0e6);
        assert!(env.is_available(0, 11));
    }

    #[test]
    fn transfer_time_is_bits_over_shared_rate_plus_rtt() {
        let env = TraceEnvironment::new(base(2), two_point_trace(), Resample::Hold, 10.0).unwrap();
        let total = env.total_bandwidth(0);
        let payload = Bytes::new(125_000); // 1e6 bits
        let cond = env.conditions(0).unwrap();
        let time = |client, dir, share| {
            env.link(&cond, client, dir, share, &[])
                .unwrap()
                .time(payload)
                .unwrap()
        };
        let full = time(0, Direction::Uplink, total);
        assert!((full.as_secs_f64() - (1.0 + 0.01)).abs() < 1e-9);
        let half = time(0, Direction::Uplink, total.fraction(0.5));
        assert!((half.as_secs_f64() - (2.0 + 0.01)).abs() < 1e-9);
        // Symmetric capacity: downlink is charged identically.
        assert_eq!(time(0, Direction::Downlink, total), full);
        // Client 1 reuses series 0 (modulo wrap).
        assert_eq!(time(1, Direction::Uplink, total), full);
        // An empty payload still pays the RTT floor; concurrency is free.
        let link = env.link(&cond, 0, Direction::Uplink, total, &[1]).unwrap();
        assert_eq!(link.time(Bytes::ZERO).unwrap(), Seconds::new(0.01));
        assert_eq!(link.time(payload).unwrap(), full);
    }

    #[test]
    fn compute_and_identity_queries_delegate_to_base() {
        let model = base(2);
        let env =
            TraceEnvironment::new(model.clone(), two_point_trace(), Resample::Hold, 10.0).unwrap();
        let cond = env.conditions(3).unwrap();
        assert_eq!(
            cond.clients[0].compute_time(1_000_000),
            model.device(0).unwrap().compute_time(1_000_000)
        );
        assert_eq!(env.server_compute(9_000), model.server_compute(9_000));
        assert_eq!(env.distance(1, 0).unwrap(), model.distance(1).unwrap());
        assert_eq!(env.total_bandwidth(7), model.total_bandwidth());
        assert_eq!(cond.clients.len(), 2);
        assert!(cond.clients[0].radio().is_err(), "a trace link is measured");
    }

    #[test]
    fn constructor_and_query_errors() {
        assert!(TraceEnvironment::new(base(1), two_point_trace(), Resample::Hold, 0.0).is_err());
        assert!(
            TraceEnvironment::new(base(1), two_point_trace(), Resample::Hold, f64::NAN).is_err()
        );
        let bad = ChannelTrace {
            clients: vec![ClientTrace { samples: vec![] }],
        };
        assert!(TraceEnvironment::new(base(1), bad, Resample::Hold, 10.0).is_err());
        let env = TraceEnvironment::new(base(1), two_point_trace(), Resample::Hold, 10.0).unwrap();
        assert!(link_at(&env, 5, 0, env.total_bandwidth(0)).is_err());
        assert!(link_at(&env, 0, 0, Hertz::new(0.0)).is_err());
        assert!(env.client_conditions(5, 0).is_err());
        assert!(!env.is_available(5, 0));
    }

    #[test]
    fn serde_round_trips() {
        let trace = ChannelTrace::diurnal_cellular();
        let json = serde_json::to_string(&trace).unwrap();
        let back = ChannelTrace::from_json(&json).unwrap();
        assert_eq!(back, trace);
    }
}
