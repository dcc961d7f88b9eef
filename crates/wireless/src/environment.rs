//! The pluggable wireless-environment API.
//!
//! [`ChannelModel`] is the trait every latency calculator and training
//! scheme talks to. Pricing a round is two steps:
//!
//! 1. [`ChannelModel::conditions`] draws the round once: a
//!    [`RoundConditions`] snapshot holding every client's distance,
//!    straggler-adjusted compute rate, fading gains, AP association,
//!    availability and the received power of each link direction
//!    ([`LinkState`]). Fading and straggler values come from seeded RNG
//!    streams, and the path-loss and gain logarithms are the expensive
//!    part of a link; the snapshot pays for both once per client and
//!    round.
//! 2. [`ChannelModel::link`] prices one client's link over that snapshot:
//!    the rate at a bandwidth share, with co-channel interference taken
//!    from the other snapshot entries. [`Link::time`] then charges any
//!    number of payloads at that rate, and
//!    [`ClientConditions::compute_time`] charges on-device work.
//!
//! Each environment implements one per-client draw
//! ([`ChannelModel::client_conditions`]) and one link-pricing path. The
//! snapshot stores the values a link budget computes on the way to a
//! rate, and pricing keeps the arithmetic in order, so a price read from
//! the snapshot is bit-identical to one computed from the link budget
//! directly.
//!
//! Two implementations ship:
//!
//! * [`RadioEnvironment`] — the analytic network over the composed
//!   [`LatencyModel`]. By default it is the paper's cell: one AP at the
//!   origin with its edge server, and every round the same topology,
//!   bandwidth and device fleet (fading still varies per block). Its
//!   builder adds the time-varying overlays — mobility-driven path-loss
//!   drift ([`Mobility`]), bandwidth profiles ([`BandwidthProfile`]),
//!   compute stragglers ([`StragglerInjector`]), seeded faults
//!   ([`FaultSpec`]) and co-channel interference ([`InterferenceSpec`]) —
//!   and several APs with handoffs and a priced backhaul
//!   ([`crate::multi_ap`]).
//! * [`crate::trace::TraceEnvironment`] — measured per-client links
//!   replayed from a trace.
//!
//! Ready-made presets over both live in [`crate::scenario`].

use crate::backhaul::BackhaulLink;
use crate::energy::PowerProfile;
use crate::fault::{FaultInjector, FaultSpec, TransferOutcome};
use crate::interference::InterferenceSpec;
use crate::latency::LatencyModel;
use crate::mobility::{Mobility, Stationary};
use crate::multi_ap::{AccessPoint, ApSignal, HandoffKind, HandoffPolicy, NearestAp};
use crate::server::EdgeServer;
use crate::units::{Bytes, FlopsRate, Hertz, Meters, Seconds};
use crate::{Result, WirelessError};
use gsfl_tensor::rng::SeedDerive;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::sync::RwLock;

/// The wireless environment, per round.
///
/// Implementations draw a client's state for a round in
/// [`ChannelModel::client_conditions`] and price links over a
/// [`RoundConditions`] snapshot in [`ChannelModel::link`]. Transmissions
/// take an explicit bandwidth `share`: callers (the latency calculators)
/// decide how the round's total bandwidth is divided.
pub trait ChannelModel: std::fmt::Debug + Send + Sync {
    /// Number of clients in the network.
    fn client_count(&self) -> usize;

    /// Total system bandwidth available in `round`.
    fn total_bandwidth(&self, round: u64) -> Hertz;

    /// The edge-server profile (rate and parallel slots).
    fn server(&self) -> &EdgeServer;

    /// The client power-draw profile used for energy accounting.
    fn power(&self) -> &PowerProfile;

    /// Draws the state of `client` in `round`: the one place an
    /// environment computes distances, compute rates, fading gains and
    /// received powers.
    ///
    /// # Errors
    ///
    /// Returns [`WirelessError::UnknownClient`] for bad indices.
    fn client_conditions(&self, client: usize, round: u64) -> Result<ClientConditions>;

    /// Prices `client`'s link in direction `dir` over the snapshot
    /// `cond`: the achievable rate at `share`, while the clients in
    /// `concurrent` transmit co-channel in the same direction (uplinks
    /// from those clients, or downlinks to them). Interference-free
    /// environments ignore `concurrent`; the others hear each concurrent
    /// transmitter through its snapshot entry. `client` itself is skipped
    /// if it appears in `concurrent`.
    ///
    /// # Errors
    ///
    /// Returns [`WirelessError::UnknownClient`] for indices outside the
    /// snapshot, and [`WirelessError::Config`] for a share an
    /// environment cannot price or an entry it did not draw.
    fn link(
        &self,
        cond: &RoundConditions,
        client: usize,
        dir: Direction,
        share: Hertz,
        concurrent: &[usize],
    ) -> Result<Link>;

    /// Compute time of one edge-server slot.
    fn server_compute(&self, flops: u64) -> Seconds;

    /// A snapshot of the whole network's conditions in `round`: every
    /// client's [`ChannelModel::client_conditions`] and the round's
    /// bandwidth.
    ///
    /// # Errors
    ///
    /// Propagates per-client draw errors.
    fn conditions(&self, round: u64) -> Result<RoundConditions> {
        let clients = (0..self.client_count())
            .map(|c| self.client_conditions(c, round))
            .collect::<Result<Vec<ClientConditions>>>()?;
        Ok(RoundConditions {
            round,
            bandwidth: self.total_bandwidth(round),
            clients,
            ap_paths: Vec::new(),
        })
    }

    /// The effective AP distance of `client` in `round`.
    ///
    /// # Errors
    ///
    /// Returns [`WirelessError::UnknownClient`] for bad indices.
    fn distance(&self, client: usize, round: u64) -> Result<Meters> {
        Ok(self.client_conditions(client, round)?.distance)
    }

    /// The effective compute rate of `client` in `round`.
    ///
    /// # Errors
    ///
    /// Returns [`WirelessError::UnknownClient`] for bad indices.
    fn device_rate(&self, client: usize, round: u64) -> Result<FlopsRate> {
        Ok(self.client_conditions(client, round)?.compute_rate)
    }

    /// Whether the client's radio is reachable in `round` (dropout
    /// injection). Defaults to always reachable.
    fn is_available(&self, client: usize, round: u64) -> bool {
        let _ = (client, round);
        true
    }

    /// The fate of wire transfer number `transfer` of `client` in
    /// `round`: how many attempts it took and the backoff accrued
    /// between them (see [`crate::fault`]). The default — and what every
    /// fault-free environment answers — is the clean first-try outcome,
    /// which prices bit-identically to the pre-fault path.
    fn transfer_outcome(&self, client: usize, round: u64, transfer: u64) -> TransferOutcome {
        let _ = (client, round, transfer);
        TransferOutcome::clean()
    }

    /// Mid-compute crash injection: `Some(progress)` when `client` dies
    /// in `round` after completing `progress ∈ [0, 1)` of its local
    /// work. Defaults to never crashing.
    fn crash_point(&self, client: usize, round: u64) -> Option<f64> {
        let _ = (client, round);
        None
    }

    /// Number of access points / edge servers in the environment.
    /// Single-AP environments (the default) report 1.
    fn ap_count(&self) -> usize {
        1
    }

    /// The AP `client` is associated with in `round`. Single-AP
    /// environments always answer 0.
    ///
    /// # Errors
    ///
    /// Returns [`WirelessError::UnknownClient`] for bad indices.
    fn ap_of(&self, client: usize, round: u64) -> Result<usize> {
        let _ = round;
        if client >= self.client_count() {
            return Err(WirelessError::UnknownClient {
                client,
                clients: self.client_count(),
            });
        }
        Ok(0)
    }

    /// The edge-server profile co-located with AP `ap`. Single-AP
    /// environments return their only server for every index.
    fn server_at(&self, ap: usize) -> &EdgeServer {
        let _ = ap;
        self.server()
    }

    /// Compute time of one slot of AP `ap`'s edge server.
    fn server_compute_at(&self, ap: usize, flops: u64) -> Seconds {
        let _ = ap;
        self.server_compute(flops)
    }

    /// The backhaul link from AP `ap`'s edge server up to the aggregation
    /// tier, if this environment prices that hop. `None` (the default)
    /// means an infinitely fast backhaul — the historical single-tier
    /// behavior, and what keeps 1-AP environments byte-identical.
    fn backhaul(&self, ap: usize) -> Option<BackhaulLink> {
        let _ = ap;
        None
    }
}

/// Which way a transfer crosses the air.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Client → AP.
    Uplink,
    /// AP → client.
    Downlink,
}

/// A priced link: what each transfer over it costs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Link {
    /// Achievable rate in bits/s.
    pub rate_bps: f64,
    /// Latency floor added to every transfer, seconds (zero on analytic
    /// links; the measured round-trip time on replayed ones).
    pub latency_s: f64,
}

impl Link {
    /// Time to move `payload` over the link: its bits at the rate, plus
    /// the latency floor. An empty payload costs only the floor.
    ///
    /// # Errors
    ///
    /// Returns [`WirelessError::Config`] when a non-empty payload meets a
    /// zero rate (zero bandwidth).
    pub fn time(&self, payload: Bytes) -> Result<Seconds> {
        if payload == Bytes::ZERO {
            return Ok(Seconds::new(self.latency_s));
        }
        if self.rate_bps <= 0.0 {
            return Err(WirelessError::Config(format!(
                "link rate is zero ({} bit/s)",
                self.rate_bps
            )));
        }
        Ok(Seconds::new(
            payload.as_bits() as f64 / self.rate_bps + self.latency_s,
        ))
    }
}

/// One client's link this round, as its environment drew it.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum LinkState {
    /// An analytic link: the received signal power of each direction, in
    /// dBm, at the serving AP (uplink) and at the client (downlink).
    Radio {
        /// The client's signal at its serving AP.
        uplink_rx_dbm: f64,
        /// The serving AP's signal at the client.
        downlink_rx_dbm: f64,
    },
    /// A measured link (trace replay), the same both ways.
    Measured {
        /// Full-band throughput, bits/s.
        bandwidth_bps: f64,
        /// Per-transfer latency floor, seconds.
        rtt_s: f64,
    },
}

/// The state of one client as seen in a [`RoundConditions`] snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClientConditions {
    /// Client index.
    pub client: usize,
    /// Effective AP distance this round.
    pub distance: Meters,
    /// Effective compute rate this round (straggler slowdowns applied).
    pub compute_rate: FlopsRate,
    /// Uplink fading power gain this round.
    pub uplink_gain: f64,
    /// Downlink fading power gain this round.
    pub downlink_gain: f64,
    /// Whether the client is reachable this round.
    pub available: bool,
    /// The AP / edge server the client is associated with this round
    /// (always 0 in single-AP environments).
    #[serde(default)]
    pub ap: usize,
    /// The client's link this round.
    pub link: LinkState,
}

impl ClientConditions {
    /// On-device time to execute `flops` at this round's compute rate.
    pub fn compute_time(&self, flops: u64) -> Seconds {
        self.compute_rate.time_for(flops)
    }

    /// Received powers of an analytic link: `(uplink_rx_dbm,
    /// downlink_rx_dbm)`.
    ///
    /// # Errors
    ///
    /// Returns [`WirelessError::Config`] for a measured link.
    pub fn radio(&self) -> Result<(f64, f64)> {
        match self.link {
            LinkState::Radio {
                uplink_rx_dbm,
                downlink_rx_dbm,
            } => Ok((uplink_rx_dbm, downlink_rx_dbm)),
            LinkState::Measured { .. } => Err(WirelessError::Config(format!(
                "client {} has a measured link, not a radio one",
                self.client
            ))),
        }
    }
}

/// The radio path between one client and one AP it is not associated
/// with, for cross-AP interference (see [`RoundConditions::ap_paths`]).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ApPath {
    /// The client's uplink signal at that AP, dBm.
    pub uplink_rx_dbm: f64,
    /// That AP's downlink signal at the client, dBm.
    pub downlink_rx_dbm: f64,
}

/// A per-round snapshot of the environment: what the latency calculators
/// and planners price a round from, and a record of why a round was
/// slow.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RoundConditions {
    /// The round this snapshot describes.
    pub round: u64,
    /// Total bandwidth available this round.
    pub bandwidth: Hertz,
    /// Per-client conditions, indexed by client id.
    pub clients: Vec<ClientConditions>,
    /// Every client's radio path to every AP, row-major by client (entry
    /// `client * aps + ap`). Filled only by environments with several
    /// APs and active interference, where a transmitter is heard at an AP
    /// it is not associated with; empty otherwise.
    #[serde(default)]
    pub ap_paths: Vec<ApPath>,
}

impl RoundConditions {
    /// The fixed OFDMA subchannel each of the N registered clients owns
    /// this round (`B/N`).
    pub fn dedicated_share(&self) -> Hertz {
        self.bandwidth
            .fraction(1.0 / self.clients.len().max(1) as f64)
    }

    /// The clients reachable this round.
    pub fn available_clients(&self) -> Vec<usize> {
        self.clients
            .iter()
            .filter(|c| c.available)
            .map(|c| c.client)
            .collect()
    }

    /// The snapshot entry of `client`.
    ///
    /// # Errors
    ///
    /// Returns [`WirelessError::UnknownClient`] for bad indices.
    pub fn client(&self, client: usize) -> Result<&ClientConditions> {
        self.clients
            .get(client)
            .ok_or(WirelessError::UnknownClient {
                client,
                clients: self.clients.len(),
            })
    }

    /// The received powers `(uplink, downlink)` in dBm between `client`
    /// and AP `ap`: its own link for its serving AP, the
    /// [`RoundConditions::ap_paths`] entry otherwise.
    fn path(&self, client: usize, ap: usize) -> Result<(f64, f64)> {
        let entry = self.client(client)?;
        if ap == entry.ap {
            return entry.radio();
        }
        let aps = self.ap_paths.len() / self.clients.len().max(1);
        match self.ap_paths.get(client * aps + ap) {
            Some(p) if ap < aps => Ok((p.uplink_rx_dbm, p.downlink_rx_dbm)),
            _ => Err(WirelessError::Config(format!(
                "the snapshot holds no path from client {client} to AP {ap}"
            ))),
        }
    }
}

/// How the total system bandwidth varies over rounds.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub enum BandwidthProfile {
    /// Full bandwidth every round.
    #[default]
    Constant,
    /// A permanently narrow band: `frac` of the nominal bandwidth every
    /// round (spectrum licensing, a shared backhaul cap). The
    /// bandwidth-constrained regime where payload compression pays.
    Scaled {
        /// Fraction of the nominal band available, in `(0, 1]`.
        frac: f64,
    },
    /// Smooth day/night load cycle: available bandwidth oscillates
    /// between the full band (off-peak) and `trough_frac` of it (peak
    /// congestion) with period `period_rounds`.
    Diurnal {
        /// Rounds per full cycle.
        period_rounds: u64,
        /// Fraction of the band left at peak congestion, in `(0, 1]`.
        trough_frac: f64,
    },
    /// Random congestion spikes: with probability `probability` a round's
    /// bandwidth collapses to `frac` of the band (deterministic per
    /// round given the environment seed).
    Spikes {
        /// Per-round spike probability, in `[0, 1]`.
        probability: f64,
        /// Fraction of the band left during a spike, in `(0, 1]`.
        frac: f64,
    },
}

impl BandwidthProfile {
    /// The multiplier on the base bandwidth in `round`.
    fn factor(&self, round: u64, seeds: &SeedDerive) -> f64 {
        match *self {
            BandwidthProfile::Constant => 1.0,
            BandwidthProfile::Scaled { frac } => frac,
            BandwidthProfile::Diurnal {
                period_rounds,
                trough_frac,
            } => {
                let period = period_rounds.max(1) as f64;
                let theta = 2.0 * std::f64::consts::PI * round as f64 / period;
                // cos starts at the off-peak maximum (factor 1.0).
                let wave = 0.5 + 0.5 * theta.cos();
                trough_frac + (1.0 - trough_frac) * wave
            }
            BandwidthProfile::Spikes { probability, frac } => {
                let mut rng = seeds.child("bw-spikes").index(round).rng();
                if rng.gen::<f64>() < probability {
                    frac
                } else {
                    1.0
                }
            }
        }
    }
}

/// Deterministic per-round compute-straggler injection: with probability
/// `probability` a client's compute rate is divided by `slowdown` for
/// that round (thermal throttling, background load).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StragglerInjector {
    /// Per-client-round straggle probability, in `[0, 1]`.
    pub probability: f64,
    /// Rate divisor while straggling (≥ 1).
    pub slowdown: f64,
}

impl StragglerInjector {
    /// The compute-rate divisor of `client` in `round` (1.0 = full speed).
    fn slowdown_at(&self, client: usize, round: u64, seeds: &SeedDerive) -> f64 {
        let mut rng = seeds
            .child("stragglers")
            .index(client as u64)
            .index(round)
            .rng();
        if rng.gen::<f64>() < self.probability {
            self.slowdown.max(1.0)
        } else {
            1.0
        }
    }
}

/// The analytic radio environment: APs with co-located edge servers, the
/// clients of the composed [`LatencyModel`], and any time-varying
/// overlays. Built via [`RadioEnvironment::builder`] or from a
/// [`crate::scenario::Scenario`] preset.
///
/// Each client keeps the bearing the builder seed assigned it and moves
/// radially per the [`Mobility`] model, so the processes that drive
/// path-loss drift also drive handoffs. A [`HandoffPolicy`] picks every
/// client's serving AP each round, a deterministic recurrence over
/// rounds that is memoized internally. With one AP at the origin a
/// client's distance is its mobility radius itself, not a 2D round trip
/// through `sqrt`.
#[derive(Debug)]
pub struct RadioEnvironment {
    base: LatencyModel,
    aps: Vec<AccessPoint>,
    handoff: Box<dyn HandoffPolicy>,
    backhaul: Option<BackhaulLink>,
    mobility: Box<dyn Mobility>,
    bandwidth: BandwidthProfile,
    stragglers: Option<StragglerInjector>,
    /// The unified seeded failure source: dropouts, transfer loss,
    /// crashes and AP outages all draw from here. `None` ⇔ no fault of
    /// any kind can fire (the identity path).
    faults: Option<FaultInjector>,
    interference: Option<InterferenceSpec>,
    seeds: SeedDerive,
    /// Per-client bearing from the origin (radians); empty when every AP
    /// sits at the origin, where bearings never matter.
    angles: Vec<f64>,
    /// Memoized associations: `assoc[round][client]`, filled in round
    /// order so the handoff recurrence is deterministic.
    assoc: RwLock<Vec<Vec<usize>>>,
}

/// Builder for [`RadioEnvironment`].
#[derive(Debug)]
pub struct RadioEnvironmentBuilder {
    base: LatencyModel,
    aps: Vec<AccessPoint>,
    handoff: Box<dyn HandoffPolicy>,
    backhaul: Option<BackhaulLink>,
    mobility: Box<dyn Mobility>,
    bandwidth: BandwidthProfile,
    stragglers: Option<StragglerInjector>,
    faults: FaultSpec,
    interference: Option<InterferenceSpec>,
    seed: u64,
}

impl RadioEnvironment {
    /// Starts a builder over a base model. With no further calls the
    /// result is the paper's cell: one AP at the origin carrying the base
    /// model's server, stationary clients, the full band every round and
    /// no impairments.
    pub fn builder(base: LatencyModel) -> RadioEnvironmentBuilder {
        let server = *base.server();
        RadioEnvironmentBuilder {
            base,
            aps: vec![AccessPoint {
                x_m: 0.0,
                y_m: 0.0,
                server,
            }],
            handoff: Box::new(NearestAp),
            backhaul: None,
            mobility: Box::new(Stationary),
            bandwidth: BandwidthProfile::Constant,
            stragglers: None,
            faults: FaultSpec::default(),
            interference: None,
            seed: 0,
        }
    }

    /// Distance from `client` to AP `ap` in `round`: the mobility model
    /// over the placement radius, seen from the AP.
    pub(crate) fn distance_to_ap(&self, client: usize, ap: usize, round: u64) -> Result<Meters> {
        let placed = self.base.distance(client)?;
        let r = self.mobility.distance_at(client, placed, round);
        let ap = &self.aps[ap];
        if ap.at_origin() {
            return Ok(r);
        }
        let theta = self.angles[client];
        let dx = r.as_meters() * theta.cos() - ap.x_m;
        let dy = r.as_meters() * theta.sin() - ap.y_m;
        Ok(Meters::new((dx * dx + dy * dy).sqrt().max(1.0)))
    }

    fn signals(&self, client: usize, round: u64) -> Result<Vec<ApSignal>> {
        let gain = self.base.uplink_gain(client, round);
        let budget = self.base.uplink_budget();
        (0..self.aps.len())
            .map(|ap| {
                let d = self.distance_to_ap(client, ap, round)?;
                Ok(ApSignal {
                    ap,
                    distance: d,
                    rx_power_dbm: 10.0 * budget.rx_power_mw(d, gain).log10(),
                })
            })
            .collect()
    }

    /// The serving AP of `client` in `round`, memoizing the handoff
    /// recurrence from round 0.
    fn association(&self, client: usize, round: u64) -> Result<usize> {
        if client >= self.base.client_count() {
            return Err(WirelessError::UnknownClient {
                client,
                clients: self.base.client_count(),
            });
        }
        if self.aps.len() == 1 {
            return Ok(0);
        }
        {
            let cache = self.assoc.read().expect("assoc lock poisoned");
            if let Some(row) = cache.get(round as usize) {
                return Ok(row[client]);
            }
        }
        let mut cache = self.assoc.write().expect("assoc lock poisoned");
        while cache.len() <= round as usize {
            let r = cache.len() as u64;
            let prev = if r == 0 {
                None
            } else {
                Some(cache[r as usize - 1].clone())
            };
            let mut row = Vec::with_capacity(self.base.client_count());
            for c in 0..self.base.client_count() {
                let signals = self.signals(c, r)?;
                let current = prev.as_ref().map(|p| p[c]);
                let chosen = self.handoff.choose(c, r, current, &signals);
                row.push(chosen.min(self.aps.len() - 1));
            }
            cache.push(row);
        }
        Ok(cache[round as usize][client])
    }
}

impl RadioEnvironmentBuilder {
    /// Places `n` APs on a line along the x axis with `spacing_m` between
    /// neighbours, centered so a single AP sits exactly at the origin.
    /// Every AP carries a clone of the base model's edge server.
    ///
    /// # Errors
    ///
    /// Returns [`WirelessError::Config`] for zero APs, a non-finite
    /// spacing, or a non-positive one with more than one AP.
    pub fn line(mut self, n: usize, spacing_m: f64) -> Result<Self> {
        if n == 0 {
            return Err(WirelessError::Config("need at least one AP".into()));
        }
        if !spacing_m.is_finite() || (n > 1 && spacing_m <= 0.0) {
            return Err(WirelessError::Config(format!(
                "AP spacing must be finite and > 0, got {spacing_m}"
            )));
        }
        let server = *self.base.server();
        let center = (n as f64 - 1.0) / 2.0;
        self.aps = (0..n)
            .map(|k| AccessPoint {
                x_m: if n == 1 {
                    0.0
                } else {
                    (k as f64 - center) * spacing_m
                },
                y_m: 0.0,
                server,
            })
            .collect();
        Ok(self)
    }

    /// Uses an explicit AP layout (positions and per-AP servers).
    ///
    /// # Errors
    ///
    /// Returns [`WirelessError::Config`] for an empty layout.
    pub fn aps(mut self, aps: Vec<AccessPoint>) -> Result<Self> {
        if aps.is_empty() {
            return Err(WirelessError::Config("need at least one AP".into()));
        }
        self.aps = aps;
        Ok(self)
    }

    /// Sets the handoff policy.
    pub fn handoff(mut self, p: impl HandoffPolicy + 'static) -> Self {
        self.handoff = Box::new(p);
        self
    }

    /// Sets the handoff policy from a serde-loadable kind.
    ///
    /// # Errors
    ///
    /// Propagates [`HandoffKind::policy`] errors.
    pub fn handoff_kind(mut self, k: HandoffKind) -> Result<Self> {
        self.handoff = k.policy()?;
        Ok(self)
    }

    /// Prices the AP→aggregator backhaul hop with `link` (every AP gets
    /// the same link profile). Without this call the backhaul is free.
    pub fn backhaul(mut self, link: BackhaulLink) -> Self {
        self.backhaul = Some(link);
        self
    }

    /// Sets the mobility model.
    pub fn mobility(mut self, m: impl Mobility + 'static) -> Self {
        self.mobility = Box::new(m);
        self
    }

    /// Sets the bandwidth profile.
    pub fn bandwidth(mut self, b: BandwidthProfile) -> Self {
        self.bandwidth = b;
        self
    }

    /// Enables straggler injection.
    pub fn stragglers(mut self, s: StragglerInjector) -> Self {
        self.stragglers = Some(s);
        self
    }

    /// Enables seeded fault injection: round-start dropouts, transfer
    /// loss with retry/backoff pricing, mid-compute crashes and AP outage
    /// windows (see [`crate::fault`]).
    pub fn faults(mut self, spec: FaultSpec) -> Self {
        self.faults = spec;
        self
    }

    /// Enables co-channel interference between concurrent transmitters.
    pub fn interference(mut self, spec: InterferenceSpec) -> Self {
        self.interference = Some(spec);
        self
    }

    /// Seeds the stochastic overlays (spikes, stragglers, faults) and the
    /// client bearings.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builds the environment.
    ///
    /// # Errors
    ///
    /// Returns [`WirelessError::Config`] for out-of-range or non-finite
    /// probabilities, fractions, slowdowns, interference or backhaul
    /// parameters.
    pub fn build(self) -> Result<RadioEnvironment> {
        // `(0, 1]`, which NaN is not in.
        let unit = |x: f64| x > 0.0 && x <= 1.0;
        let profile_ok = match self.bandwidth {
            BandwidthProfile::Constant => true,
            BandwidthProfile::Scaled { frac } => unit(frac),
            BandwidthProfile::Diurnal { trough_frac, .. } => unit(trough_frac),
            BandwidthProfile::Spikes { probability, frac } => {
                (0.0..=1.0).contains(&probability) && unit(frac)
            }
        };
        if !profile_ok {
            return Err(WirelessError::Config(format!(
                "bandwidth fractions must be in (0,1] and probabilities in [0,1], got {:?}",
                self.bandwidth
            )));
        }
        if let Some(s) = self.stragglers {
            let ok =
                (0.0..=1.0).contains(&s.probability) && s.slowdown.is_finite() && s.slowdown >= 1.0;
            if !ok {
                return Err(WirelessError::Config(
                    "straggler probability must be in [0,1] and slowdown finite and ≥ 1".into(),
                ));
            }
        }
        if let Some(i) = self.interference {
            i.validate()?;
        }
        if let Some(b) = self.backhaul {
            b.validate()?;
        }
        self.faults.validate()?;
        let seeds = SeedDerive::new(self.seed).child("environment");
        let faults = if self.faults.is_noop() {
            None
        } else {
            Some(FaultInjector::new(self.faults, seeds)?)
        };
        let angles = if self.aps.iter().all(AccessPoint::at_origin) {
            Vec::new()
        } else {
            let bearings = SeedDerive::new(self.seed).child("multi-ap-bearings");
            (0..self.base.client_count())
                .map(|c| {
                    let mut rng = bearings.index(c as u64).rng();
                    rng.gen::<f64>() * 2.0 * std::f64::consts::PI
                })
                .collect()
        };
        Ok(RadioEnvironment {
            base: self.base,
            aps: self.aps,
            handoff: self.handoff,
            backhaul: self.backhaul,
            mobility: self.mobility,
            bandwidth: self.bandwidth,
            stragglers: self.stragglers,
            faults,
            interference: self.interference,
            seeds,
            angles,
            assoc: RwLock::new(Vec::new()),
        })
    }
}

impl ChannelModel for RadioEnvironment {
    fn client_count(&self) -> usize {
        self.base.client_count()
    }

    fn total_bandwidth(&self, round: u64) -> Hertz {
        self.base
            .total_bandwidth()
            .fraction(self.bandwidth.factor(round, &self.seeds))
    }

    fn server(&self) -> &EdgeServer {
        self.base.server()
    }

    fn power(&self) -> &PowerProfile {
        self.base.power()
    }

    fn client_conditions(&self, client: usize, round: u64) -> Result<ClientConditions> {
        let ap = self.association(client, round)?;
        let distance = self.distance_to_ap(client, ap, round)?;
        let rate = self.base.device(client)?.rate().as_flops_per_sec();
        let slowdown = self
            .stragglers
            .map_or(1.0, |s| s.slowdown_at(client, round, &self.seeds));
        let uplink_gain = self.base.uplink_gain(client, round);
        let downlink_gain = self.base.downlink_gain(client, round);
        Ok(ClientConditions {
            client,
            distance,
            compute_rate: FlopsRate::new(rate / slowdown),
            uplink_gain,
            downlink_gain,
            available: self
                .faults
                .as_ref()
                .is_none_or(|f| f.client_available(client, ap, round)),
            ap,
            link: LinkState::Radio {
                uplink_rx_dbm: self.base.uplink_budget().rx_dbm(distance, uplink_gain),
                downlink_rx_dbm: self.base.downlink_budget().rx_dbm(distance, downlink_gain),
            },
        })
    }

    /// The per-client draw plus, when several APs interfere, every
    /// client's path to every AP: a transmitter is heard at the APs it
    /// is not associated with from wherever it currently is.
    fn conditions(&self, round: u64) -> Result<RoundConditions> {
        let clients = (0..self.client_count())
            .map(|c| self.client_conditions(c, round))
            .collect::<Result<Vec<ClientConditions>>>()?;
        let mut ap_paths = Vec::new();
        if self.aps.len() > 1 && self.interference.is_some_and(|s| s.is_active()) {
            ap_paths.reserve(clients.len() * self.aps.len());
            for entry in &clients {
                for ap in 0..self.aps.len() {
                    let d = self.distance_to_ap(entry.client, ap, round)?;
                    ap_paths.push(ApPath {
                        uplink_rx_dbm: self.base.uplink_budget().rx_dbm(d, entry.uplink_gain),
                        downlink_rx_dbm: self.base.downlink_budget().rx_dbm(d, entry.downlink_gain),
                    });
                }
            }
        }
        Ok(RoundConditions {
            round,
            bandwidth: self.total_bandwidth(round),
            clients,
            ap_paths,
        })
    }

    /// The Shannon rate of `client`'s link at `share` from its snapshot
    /// received power, under the co-channel interference of
    /// `concurrent`. An uplink hears each concurrent uplink's signal at
    /// the victim's serving AP; a downlink hears, at the victim, the AP
    /// serving each concurrent receiver. Each source is summed in
    /// `concurrent` order and scaled by the reuse factor.
    fn link(
        &self,
        cond: &RoundConditions,
        client: usize,
        dir: Direction,
        share: Hertz,
        concurrent: &[usize],
    ) -> Result<Link> {
        let entry = cond.client(client)?;
        let (up_dbm, down_dbm) = entry.radio()?;
        let mut interference_mw = 0.0;
        if let Some(spec) = self.interference.filter(InterferenceSpec::is_active) {
            let mut sum = 0.0f64;
            let mut heard = false;
            for &other in concurrent {
                if other == client {
                    continue;
                }
                let dbm = match dir {
                    Direction::Uplink => cond.path(other, entry.ap)?.0,
                    Direction::Downlink => cond.path(client, cond.client(other)?.ap)?.1,
                };
                sum += 10f64.powf(dbm / 10.0);
                heard = true;
            }
            if heard {
                interference_mw = sum * spec.reuse_factor;
            }
        }
        let (budget, rx_dbm) = match dir {
            Direction::Uplink => (self.base.uplink_budget(), up_dbm),
            Direction::Downlink => (self.base.downlink_budget(), down_dbm),
        };
        Ok(Link {
            rate_bps: budget.rate_bps_at(rx_dbm, share, interference_mw),
            latency_s: 0.0,
        })
    }

    fn server_compute(&self, flops: u64) -> Seconds {
        self.base.server_compute(flops)
    }

    fn is_available(&self, client: usize, round: u64) -> bool {
        match &self.faults {
            Some(f) => self
                .association(client, round)
                .is_ok_and(|ap| f.client_available(client, ap, round)),
            None => true,
        }
    }

    fn transfer_outcome(&self, client: usize, round: u64, transfer: u64) -> TransferOutcome {
        match &self.faults {
            Some(f) => f.transfer_outcome(client, round, transfer),
            None => TransferOutcome::clean(),
        }
    }

    fn crash_point(&self, client: usize, round: u64) -> Option<f64> {
        self.faults
            .as_ref()
            .and_then(|f| f.crash_point(client, round))
    }

    fn ap_count(&self) -> usize {
        self.aps.len()
    }

    fn ap_of(&self, client: usize, round: u64) -> Result<usize> {
        self.association(client, round)
    }

    fn server_at(&self, ap: usize) -> &EdgeServer {
        &self.aps[ap.min(self.aps.len() - 1)].server
    }

    fn server_compute_at(&self, ap: usize, flops: u64) -> Seconds {
        self.server_at(ap).compute_time(flops)
    }

    fn backhaul(&self, ap: usize) -> Option<BackhaulLink> {
        if ap < self.aps.len() {
            self.backhaul
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mobility::OrbitDrift;

    fn base(clients: usize) -> LatencyModel {
        LatencyModel::builder()
            .clients(clients)
            .seed(5)
            .build()
            .unwrap()
    }

    /// The paper's cell over `base(clients)`: no overlays.
    fn cell(clients: usize) -> RadioEnvironment {
        RadioEnvironment::builder(base(clients)).build().unwrap()
    }

    /// Time to move `payload` in `dir` over `share` in `round`, against
    /// the transmitters in `concurrent`, from a fresh snapshot.
    fn time(
        env: &dyn ChannelModel,
        client: usize,
        dir: Direction,
        payload: Bytes,
        round: u64,
        share: Hertz,
        concurrent: &[usize],
    ) -> Seconds {
        let cond = env.conditions(round).unwrap();
        env.link(&cond, client, dir, share, concurrent)
            .unwrap()
            .time(payload)
            .unwrap()
    }

    #[test]
    fn static_environment_matches_model_exactly() {
        let model = base(4);
        let env = cell(4);
        let payload = Bytes::new(200_000);
        let share = Hertz::from_mhz(1.0);
        for round in 0..8u64 {
            let cond = env.conditions(round).unwrap();
            for c in 0..4 {
                let d = model.distance(c).unwrap();
                let (up_gain, down_gain) =
                    (model.uplink_gain(c, round), model.downlink_gain(c, round));
                let up = env.link(&cond, c, Direction::Uplink, share, &[]).unwrap();
                let down = env.link(&cond, c, Direction::Downlink, share, &[]).unwrap();
                assert_eq!(
                    up.time(payload).unwrap(),
                    model
                        .uplink_budget()
                        .transmit_time(payload, d, share, up_gain)
                        .unwrap()
                );
                assert_eq!(
                    down.time(payload).unwrap(),
                    model
                        .downlink_budget()
                        .transmit_time(payload, d, share, down_gain)
                        .unwrap()
                );
                assert_eq!(
                    up.rate_bps,
                    model.uplink_budget().rate_bps(d, share, up_gain)
                );
                assert_eq!(
                    cond.clients[c].compute_time(1_000_000),
                    model.device(c).unwrap().compute_time(1_000_000)
                );
                assert_eq!(cond.clients[c].uplink_gain, up_gain);
                assert_eq!(cond.clients[c].downlink_gain, down_gain);
                assert!(cond.clients[c].available);
            }
            assert_eq!(cond.bandwidth, model.total_bandwidth());
        }
        assert_eq!(
            env.server_compute(1_000_000),
            model.server_compute(1_000_000)
        );
    }

    #[test]
    fn empty_payload_is_free_and_zero_share_fails() {
        let env = cell(2);
        let cond = env.conditions(0).unwrap();
        let dead = env
            .link(&cond, 0, Direction::Uplink, Hertz::new(0.0), &[])
            .unwrap();
        assert_eq!(dead.time(Bytes::ZERO).unwrap(), Seconds::ZERO);
        assert!(dead.time(Bytes::new(10)).is_err());
    }

    #[test]
    fn mobility_changes_distances_and_times() {
        let env = RadioEnvironment::builder(base(2))
            .mobility(OrbitDrift {
                amplitude_frac: 0.5,
                period_rounds: 7,
            })
            .build()
            .unwrap();
        let d1 = env.distance(0, 1).unwrap();
        let d2 = env.distance(0, 3).unwrap();
        assert_ne!(d1, d2, "mobility must move the client");
    }

    #[test]
    fn diurnal_bandwidth_cycles() {
        let env = RadioEnvironment::builder(base(2))
            .bandwidth(BandwidthProfile::Diurnal {
                period_rounds: 10,
                trough_frac: 0.25,
            })
            .build()
            .unwrap();
        let full = env.total_bandwidth(0).as_hz();
        let trough = env.total_bandwidth(5).as_hz();
        assert!((trough / full - 0.25).abs() < 1e-9, "half period = trough");
        assert!((env.total_bandwidth(10).as_hz() - full).abs() < 1e-6);
    }

    #[test]
    fn stragglers_slow_compute_deterministically() {
        let env = RadioEnvironment::builder(base(2))
            .stragglers(StragglerInjector {
                probability: 1.0,
                slowdown: 4.0,
            })
            .seed(9)
            .build()
            .unwrap();
        let slow = env
            .client_conditions(0, 3)
            .unwrap()
            .compute_time(1_000_000_000);
        let fast = cell(2)
            .client_conditions(0, 3)
            .unwrap()
            .compute_time(1_000_000_000);
        assert!((slow.as_secs_f64() / fast.as_secs_f64() - 4.0).abs() < 1e-9);
        assert_eq!(
            slow,
            env.conditions(3).unwrap().clients[0].compute_time(1_000_000_000)
        );
    }

    #[test]
    fn dropouts_are_deterministic_and_partial() {
        let env = RadioEnvironment::builder(base(4))
            .faults(FaultSpec {
                dropout_prob: 0.5,
                ..FaultSpec::default()
            })
            .seed(1)
            .build()
            .unwrap();
        let mut dropped = 0;
        let mut up = 0;
        for round in 0..50u64 {
            let cond = env.conditions(round).unwrap();
            for c in 0..4 {
                let a = env.is_available(c, round);
                assert_eq!(a, env.is_available(c, round));
                assert_eq!(a, cond.clients[c].available);
                if a {
                    up += 1;
                } else {
                    dropped += 1;
                }
            }
        }
        assert!(dropped > 0 && up > 0, "p=0.5 must mix: {dropped} / {up}");
    }

    #[test]
    fn conditions_snapshot_reflects_overlays() {
        let env = RadioEnvironment::builder(base(3))
            .bandwidth(BandwidthProfile::Diurnal {
                period_rounds: 8,
                trough_frac: 0.5,
            })
            .mobility(OrbitDrift::default())
            .build()
            .unwrap();
        let c0 = env.conditions(0).unwrap();
        let c4 = env.conditions(4).unwrap();
        assert_eq!(c0.clients.len(), 3);
        assert!(c4.bandwidth.as_hz() < c0.bandwidth.as_hz());
        assert_ne!(c0.clients[0].distance, c4.clients[0].distance);
        assert_eq!(c0.available_clients(), vec![0, 1, 2]);
        let share = c0.dedicated_share().as_hz();
        assert!((share * 3.0 - c0.bandwidth.as_hz()).abs() < 1e-6);
        // The snapshot's link is the one the model prices at the moved
        // distance.
        let d = c4.clients[1].distance;
        let gain = c4.clients[1].uplink_gain;
        let expect = env.base.uplink_budget().rx_dbm(d, gain);
        assert_eq!(c4.clients[1].radio().unwrap().0, expect);
    }

    #[test]
    fn builder_validation() {
        let rejects = |b: RadioEnvironmentBuilder| b.build().is_err();
        let straggle = |probability, slowdown| {
            RadioEnvironment::builder(base(1)).stragglers(StragglerInjector {
                probability,
                slowdown,
            })
        };
        assert!(rejects(straggle(1.5, 2.0)));
        assert!(rejects(straggle(0.5, 0.5)));
        assert!(rejects(straggle(0.5, f64::NAN)));
        assert!(rejects(straggle(0.5, f64::INFINITY)));
        assert!(rejects(RadioEnvironment::builder(base(1)).faults(
            FaultSpec {
                dropout_prob: -0.1,
                ..FaultSpec::default()
            }
        )));
        let profile = |b| RadioEnvironment::builder(base(1)).bandwidth(b);
        assert!(rejects(profile(BandwidthProfile::Diurnal {
            period_rounds: 5,
            trough_frac: 0.0
        })));
        assert!(rejects(profile(BandwidthProfile::Scaled {
            frac: f64::NAN
        })));
        for (probability, frac) in [(2.0, 0.5), (1.0, f64::NAN), (1.0, f64::INFINITY)] {
            assert!(rejects(profile(BandwidthProfile::Spikes {
                probability,
                frac
            })));
        }
    }

    #[test]
    fn interference_free_link_is_bitwise_plain_link() {
        // Even *with* a spec, an empty interferer set must reproduce the
        // plain SNR uplink time bit for bit (the golden-fixture guard).
        let plain = cell(3);
        let spec = InterferenceSpec { reuse_factor: 0.7 };
        let noisy = RadioEnvironment::builder(base(3))
            .interference(spec)
            .build()
            .unwrap();
        let payload = Bytes::new(120_000);
        let share = Hertz::from_mhz(1.5);
        for round in 0..6u64 {
            for c in 0..3 {
                for dir in [Direction::Uplink, Direction::Downlink] {
                    let clean = time(&plain, c, dir, payload, round, share, &[]);
                    assert_eq!(time(&noisy, c, dir, payload, round, share, &[]), clean);
                    // Self-interference is skipped.
                    assert_eq!(time(&noisy, c, dir, payload, round, share, &[c]), clean);
                }
            }
        }
    }

    #[test]
    fn concurrent_transmitters_slow_the_link() {
        let env = RadioEnvironment::builder(base(4))
            .interference(InterferenceSpec { reuse_factor: 0.5 })
            .build()
            .unwrap();
        let payload = Bytes::new(200_000);
        let share = Hertz::from_mhz(1.0);
        for dir in [Direction::Uplink, Direction::Downlink] {
            let clean = time(&env, 0, dir, payload, 2, share, &[]);
            let one = time(&env, 0, dir, payload, 2, share, &[1]);
            let two = time(&env, 0, dir, payload, 2, share, &[1, 2]);
            assert!(one.as_secs_f64() > clean.as_secs_f64(), "{dir:?}");
            assert!(two.as_secs_f64() > one.as_secs_f64(), "{dir:?}");
        }
        let cond = env.conditions(2).unwrap();
        assert!(env.link(&cond, 0, Direction::Uplink, share, &[9]).is_err());
    }

    #[test]
    fn dynamic_interference_follows_mobility() {
        let spec = InterferenceSpec { reuse_factor: 1.0 };
        let env = RadioEnvironment::builder(base(2))
            .mobility(OrbitDrift {
                amplitude_frac: 0.5,
                period_rounds: 7,
            })
            .interference(spec)
            .build()
            .unwrap();
        let share = Hertz::from_mhz(1.0);
        let payload = Bytes::new(100_000);
        let alone = time(&env, 0, Direction::Uplink, payload, 1, share, &[]);
        let a = time(&env, 0, Direction::Uplink, payload, 1, share, &[1]);
        assert!(a > alone, "the spec must reach the link");
        let b = time(&env, 0, Direction::Uplink, payload, 3, share, &[1]);
        assert_ne!(a, b, "mobility must move the interferer too");
        assert!(RadioEnvironment::builder(base(1))
            .interference(InterferenceSpec { reuse_factor: 2.0 })
            .build()
            .is_err());
    }

    #[test]
    fn single_ap_defaults_through_trait() {
        let env = cell(2);
        assert_eq!(env.ap_count(), 1);
        assert_eq!(env.ap_of(1, 5).unwrap(), 0);
        assert!(env.ap_of(9, 0).is_err());
        assert_eq!(env.server_at(0).slots(), env.server().slots());
        assert_eq!(
            env.server_compute_at(0, 1_000_000),
            env.server_compute(1_000_000)
        );
        assert!(env.backhaul(0).is_none());
        let cond = env.conditions(0).unwrap();
        assert!(cond.clients.iter().all(|c| c.ap == 0));
        assert!(cond.ap_paths.is_empty());
    }

    #[test]
    fn unknown_client_errors_through_trait() {
        let env = cell(2);
        assert!(env.distance(9, 0).is_err());
        assert!(env.device_rate(9, 0).is_err());
        assert!(env.client_conditions(9, 0).is_err());
        let cond = env.conditions(0).unwrap();
        assert!(cond.client(9).is_err());
        assert!(env
            .link(&cond, 9, Direction::Downlink, Hertz::from_mhz(1.0), &[])
            .is_err());
    }
}
