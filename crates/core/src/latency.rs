//! Latency accounting for every scheme.
//!
//! Two calculators are provided and cross-checked in tests:
//!
//! * **closed-form** expressions for the sequential / embarrassingly
//!   parallel schemes (CL, FL, SL), and
//! * a **discrete-event simulation** (DES) for the schemes with real
//!   concurrency and contention (GSFL, SFL), in which the edge server is a
//!   k-slot FIFO resource and each concurrent transmitter gets a bandwidth
//!   share from the configured [`BandwidthPolicy`].
//!
//! Both calculators consume the wireless layer exclusively through the
//! [`ChannelModel`] trait: each round they take one [`RoundConditions`]
//! snapshot and price everything from it — the share math, each
//! client's up and down [`Link`] (priced once per client, then charged
//! per payload) and its compute time. Time-varying environments
//! (mobility, diurnal bandwidth, stragglers) plug in without touching
//! this module.
//!
//! On contention-free configurations the DES reproduces the closed forms
//! exactly (see the property tests in `tests/`).

use crate::compression::CompressionSpec;
use crate::recovery::{RecoveryPlan, RoundFate};
use crate::{CoreError, Result};
use gsfl_nn::split::SplitNetwork;
use gsfl_nn::Sequential;
use gsfl_simnet::{Schedule, SimTime, Simulator, TaskGraph};
use gsfl_wireless::allocation::{allocate, BandwidthPolicy, LinkDemand};
use gsfl_wireless::environment::{
    ChannelModel, ClientConditions, Direction, Link, RoundConditions,
};
use gsfl_wireless::units::{Bytes, Hertz, Seconds};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// How the AP's spectrum is assigned to client links.
///
/// * [`ChannelMode::Dedicated`] — OFDMA-style fixed subchannels: every one
///   of the N registered clients owns `B/N` at all times, in every scheme.
///   This is the classic resource-block model of the wireless-FL
///   literature and the default calibration: sequential schemes cannot
///   borrow idle clients' spectrum, so GSFL's group parallelism
///   translates into real communication parallelism.
/// * [`ChannelMode::SharedPool`] — the total bandwidth is dynamically
///   re-split among *currently active* transmitters (one client in SL
///   gets the whole band; GSFL groups share it per the
///   [`BandwidthPolicy`]). An idealized scheduler that favours the
///   sequential baselines; kept for the resource-allocation ablation
///   (paper §IV).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum ChannelMode {
    /// Fixed per-client OFDMA subchannels (`B/N` each) — default.
    #[default]
    Dedicated,
    /// Dynamic reallocation of the full band among active transmitters.
    SharedPool,
}

/// Per-mini-batch cost profile of a model at a given cut.
///
/// The `*_bytes` fields are the **raw** fp32 footprints of each artifact;
/// the `*_wire_bytes` twins are what actually crosses the air after the
/// configured [`CompressionSpec`] encodes it (equal to the raw fields
/// under the default identity codecs — see
/// [`SplitCosts::with_compression`]). The latency calculators charge
/// transmission time on the wire sizes and report both totals in
/// [`RoundBytes`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SplitCosts {
    /// Client-side forward FLOPs per batch.
    pub client_fwd_flops: u64,
    /// Client-side backward FLOPs per batch.
    pub client_bwd_flops: u64,
    /// Server-side forward+backward FLOPs per batch.
    pub server_flops: u64,
    /// Full-model forward+backward FLOPs per batch (FL/CL).
    pub full_flops: u64,
    /// Smashed-data payload per batch (activations + labels), raw fp32.
    pub smashed_bytes: Bytes,
    /// Gradient payload per batch (same tensor shape as the smashed
    /// data), raw fp32.
    pub grad_bytes: Bytes,
    /// Client-side model size, raw fp32.
    pub client_model_bytes: Bytes,
    /// Full-model size (FL), raw fp32.
    pub full_model_bytes: Bytes,
    /// Encoded smashed-data payload per batch (labels always ride
    /// uncompressed).
    pub smashed_wire_bytes: Bytes,
    /// Encoded gradient payload per batch.
    pub grad_wire_bytes: Bytes,
    /// Encoded client-side model size — charged on model *uplinks*
    /// only; downlinks relay the AP's decoded fp32 state and are
    /// charged raw.
    pub client_model_wire_bytes: Bytes,
    /// Encoded full-model size — charged on the FL *upload*; the
    /// broadcast is fp32.
    pub full_model_wire_bytes: Bytes,
}

impl SplitCosts {
    /// Computes the profile for `net` split at `cut`, with `batch`-sized
    /// mini-batches of `sample_dims` inputs.
    ///
    /// # Errors
    ///
    /// Propagates shape or cut errors.
    pub fn compute(
        net: &Sequential,
        cut: usize,
        sample_dims: &[usize],
        batch: usize,
    ) -> Result<Self> {
        let mut input_dims = vec![batch];
        input_dims.extend_from_slice(sample_dims);

        let full = net.flops(&input_dims)?.for_batch(batch);
        let full_model_bytes = Bytes::new(net.param_bytes());

        let split = SplitNetwork::split(net.clone(), cut)?;
        let client_flops = split.client.flops(&input_dims)?.for_batch(batch);
        let smashed_dims = split.client.output_shape(&input_dims)?;
        let server_flops = split.server.flops(&smashed_dims)?.for_batch(batch);
        let smashed_payload = split.smashed_bytes(&input_dims)? + 4 * batch as u64; // + labels
        let client_model_bytes = Bytes::new(split.client.param_bytes());

        Ok(SplitCosts {
            client_fwd_flops: client_flops.forward,
            client_bwd_flops: client_flops.backward,
            server_flops: server_flops.forward + server_flops.backward,
            full_flops: full.forward + full.backward,
            smashed_bytes: Bytes::new(smashed_payload),
            grad_bytes: Bytes::new(smashed_payload - 4 * batch as u64),
            client_model_bytes,
            full_model_bytes,
            smashed_wire_bytes: Bytes::new(smashed_payload),
            grad_wire_bytes: Bytes::new(smashed_payload - 4 * batch as u64),
            client_model_wire_bytes: client_model_bytes,
            full_model_wire_bytes: full_model_bytes,
        })
    }

    /// A copy whose `*_wire_bytes` fields reflect `comp`'s codecs via
    /// the closed-form container size law
    /// ([`gsfl_nn::codec::CodecSpec::encoded_len`]) — cheap enough for planner hot
    /// loops. Raw fields (and therefore compute/storage accounting) are
    /// untouched; identity codecs leave the wire fields bit-identical
    /// to the raw ones. Labels (the difference between `smashed_bytes`
    /// and `grad_bytes`) always travel as 4-byte class ids.
    ///
    /// The law is value-independent and equals the measured `len()` of
    /// a real encode — [`SplitCosts::measured_with_compression`] runs
    /// the actual encoders and a test pins the two equal, so every byte
    /// charged here is the length of a buffer that exists.
    pub fn with_compression(&self, comp: &CompressionSpec) -> SplitCosts {
        let act_numel = (self.grad_bytes.as_u64() / 4) as usize;
        let label_bytes = self.smashed_bytes.as_u64() - self.grad_bytes.as_u64();
        let client_numel = (self.client_model_bytes.as_u64() / 4) as usize;
        let full_numel = (self.full_model_bytes.as_u64() / 4) as usize;
        SplitCosts {
            smashed_wire_bytes: Bytes::new(comp.smashed.encoded_len(act_numel) + label_bytes),
            grad_wire_bytes: Bytes::new(comp.gradient.encoded_len(act_numel)),
            client_model_wire_bytes: Bytes::new(comp.client_model.encoded_len(client_numel)),
            full_model_wire_bytes: Bytes::new(comp.full_model.encoded_len(full_numel)),
            ..*self
        }
    }

    /// Like [`SplitCosts::with_compression`], but each wire size is the
    /// measured `WireBuf::len()` of an actual encode
    /// ([`gsfl_nn::codec::CodecSpec::measured_len`]) rather than the size law. This is
    /// what [`crate::context::TrainContext`] uses when it builds the
    /// costs a run will charge: airtime comes from buffers that
    /// actually exist. The law and the measurement are pinned equal by
    /// tests, so planner loops may keep the cheap form.
    pub fn measured_with_compression(
        &self,
        comp: &CompressionSpec,
        ws: &mut gsfl_tensor::Workspace,
    ) -> SplitCosts {
        let act_numel = (self.grad_bytes.as_u64() / 4) as usize;
        let label_bytes = self.smashed_bytes.as_u64() - self.grad_bytes.as_u64();
        let client_numel = (self.client_model_bytes.as_u64() / 4) as usize;
        let full_numel = (self.full_model_bytes.as_u64() / 4) as usize;
        SplitCosts {
            smashed_wire_bytes: Bytes::new(comp.smashed.measured_len(act_numel, ws) + label_bytes),
            grad_wire_bytes: Bytes::new(comp.gradient.measured_len(act_numel, ws)),
            client_model_wire_bytes: Bytes::new(comp.client_model.measured_len(client_numel, ws)),
            full_model_wire_bytes: Bytes::new(comp.full_model.measured_len(full_numel, ws)),
            ..*self
        }
    }
}

/// Byte counters accumulated by a round-latency computation.
///
/// `up`/`down` are the **encoded** totals — the bytes airtime was
/// actually charged for. `raw_up`/`raw_down` are what the same
/// artifacts would have weighed uncompressed (equal under the identity
/// codecs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RoundBytes {
    /// Total client→AP bytes on the wire (encoded).
    pub up: u64,
    /// Total AP→client bytes on the wire (encoded).
    pub down: u64,
    /// Uncompressed client→AP bytes.
    pub raw_up: u64,
    /// Uncompressed AP→client bytes.
    pub raw_down: u64,
}

/// Where a round's charged time went, summed over every task in the
/// round (not the critical path — parallel schemes overlap phases, so
/// the components sum to more than the wall-clock duration).
///
/// Attribution rule: time a server-side task spends **queued for a busy
/// edge-server slot is server time**, not uplink time — the uplink
/// finished when the last bit arrived; everything after that is the
/// (per-AP) server's contention. This is what makes multi-AP rounds
/// legible: a congested AP shows up as `server_s`, not as a mysteriously
/// slow radio.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LatencyBreakdown {
    /// On-device computation, seconds.
    pub client_compute_s: f64,
    /// Pure client→AP transmit time, seconds.
    pub uplink_s: f64,
    /// Pure AP→client transmit time, seconds.
    pub downlink_s: f64,
    /// Server-side computation **plus** slot-queue waiting, seconds.
    pub server_s: f64,
    /// Second-tier AP→aggregator backhaul transfer time, seconds (zero
    /// unless the environment prices its backhaul — see
    /// [`ChannelModel::backhaul`]).
    pub backhaul_s: f64,
}

impl LatencyBreakdown {
    /// Total charged seconds across all phases.
    pub fn total_s(&self) -> f64 {
        self.client_compute_s + self.uplink_s + self.downlink_s + self.server_s + self.backhaul_s
    }
}

/// Fault accounting of one round. The default — no retries, nothing
/// wasted, nobody lost, quorum met — is what every fault-free round
/// reports, so clean runs stay byte-identical through the serde layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultStats {
    /// Retransmissions across every wire transfer this round (total
    /// attempts minus first tries).
    pub retries: u64,
    /// Airtime bytes that bought nothing: retransmitted payloads plus
    /// everything charged to clients that crashed mid-round.
    pub wasted_airtime_bytes: u64,
    /// Scheduled clients that delivered no update (crashed without a
    /// backup, or still in flight at the deadline).
    pub lost_clients: u32,
    /// Standby clients that activated for a crashed primary.
    pub backups_activated: u32,
    /// Whether the round met its aggregation quorum (`false` only when a
    /// [`crate::recovery::DeadlinePolicy`] skipped the round).
    pub quorum_met: bool,
}

impl Default for FaultStats {
    fn default() -> Self {
        FaultStats {
            retries: 0,
            wasted_airtime_bytes: 0,
            lost_clients: 0,
            backups_activated: 0,
            quorum_met: true,
        }
    }
}

impl FaultStats {
    /// Whether the round saw no fault activity at all (the identity).
    pub fn is_clean(&self) -> bool {
        *self == FaultStats::default()
    }
}

/// The latency (and traffic) of one round of a scheme.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoundLatency {
    /// Wall-clock duration of the round in simulated seconds.
    pub duration: Seconds,
    /// Bytes moved during the round.
    pub bytes: RoundBytes,
    /// Total client-side energy spent this round (all clients), joules —
    /// radio TX/RX plus on-device computation, per the latency model's
    /// [`gsfl_wireless::energy::PowerProfile`].
    pub client_energy_j: f64,
    /// Per-phase attribution of the round's charged time.
    pub breakdown: LatencyBreakdown,
    /// Fault accounting (all-zero / quorum-met on fault-free rounds).
    pub faults: FaultStats,
}

/// A wire transfer priced through the environment's fault stream:
/// `time` is what the round waits (airtime × attempts + backoff),
/// `air` the radio-active seconds the energy model charges. Both equal
/// the raw airtime bit-for-bit on a clean first-try outcome.
#[derive(Debug, Clone, Copy)]
struct PricedTransfer {
    time: Seconds,
    air: Seconds,
}

/// Per-round transfer pricing: numbers each client's wire transfers
/// sequentially and asks the environment's seeded
/// [`ChannelModel::transfer_outcome`] stream how many attempts each one
/// took, accumulating retry and wasted-airtime stats. On fault-free
/// environments every outcome is the clean first try and the returned
/// times are the input airtimes, bit for bit.
#[derive(Debug, Default)]
struct FaultMeter {
    counters: BTreeMap<usize, u64>,
    retries: u64,
    wasted_airtime_bytes: u64,
}

impl FaultMeter {
    fn price(
        &mut self,
        latency: &dyn ChannelModel,
        client: usize,
        round: u64,
        airtime: Seconds,
        wire: Bytes,
    ) -> PricedTransfer {
        let counter = self.counters.entry(client).or_insert(0);
        let transfer = *counter;
        *counter += 1;
        let outcome = latency.transfer_outcome(client, round, transfer);
        let lost = u64::from(outcome.attempts.max(1)) - 1;
        self.retries += lost;
        self.wasted_airtime_bytes += wire.as_u64() * lost;
        let air = if outcome.attempts <= 1 {
            airtime
        } else {
            Seconds::new(airtime.as_secs_f64() * f64::from(outcome.attempts))
        };
        PricedTransfer {
            time: outcome.total_time(airtime),
            air,
        }
    }

    fn stats(&self, fate: &RoundFate) -> FaultStats {
        FaultStats {
            retries: self.retries,
            wasted_airtime_bytes: self.wasted_airtime_bytes,
            lost_clients: fate.lost(),
            backups_activated: fate.backups_activated,
            quorum_met: true,
        }
    }

    fn waste(&mut self, wire: u64) {
        self.wasted_airtime_bytes += wire;
    }
}

/// One client's round state and its two links, priced once at its share
/// against the `concurrent` transmitters. Every transfer and compute step
/// the client makes in a round is charged from these, as is every
/// planner estimate at one share vector.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ClientLinks {
    pub(crate) state: ClientConditions,
    pub(crate) up: Link,
    pub(crate) down: Link,
}

impl ClientLinks {
    /// Prices `client`'s links at `share` over the snapshot `cond`.
    pub(crate) fn price(
        env: &dyn ChannelModel,
        cond: &RoundConditions,
        client: usize,
        share: Hertz,
        concurrent: &[usize],
    ) -> gsfl_wireless::Result<Self> {
        Ok(ClientLinks {
            state: *cond.client(client)?,
            up: env.link(cond, client, Direction::Uplink, share, concurrent)?,
            down: env.link(cond, client, Direction::Downlink, share, concurrent)?,
        })
    }
}

/// Closed-form CL round: one epoch of centralized SGD on the server
/// (one slot), no wireless traffic.
pub fn cl_round(
    latency: &dyn ChannelModel,
    costs: &SplitCosts,
    total_steps: usize,
) -> RoundLatency {
    let flops = costs.full_flops * total_steps as u64;
    let duration = latency.server_compute(flops);
    RoundLatency {
        duration,
        bytes: RoundBytes::default(),
        client_energy_j: 0.0,
        breakdown: LatencyBreakdown {
            server_s: duration.as_secs_f64(),
            ..LatencyBreakdown::default()
        },
        faults: FaultStats::default(),
    }
}

/// Closed-form FL round: every client downloads the full model, trains
/// `local_epochs` epochs, uploads; all concurrently on equal bandwidth
/// shares; round time is the straggler's. All participants upload
/// concurrently, so under an interference-aware environment every
/// client's uplink sees the rest of the cohort as co-channel
/// interference.
///
/// # Errors
///
/// Propagates wireless model errors.
pub fn fl_round(
    latency: &dyn ChannelModel,
    costs: &SplitCosts,
    steps: &[usize],
    local_epochs: usize,
    round: u64,
) -> Result<RoundLatency> {
    fl_round_recovered(
        latency,
        costs,
        steps,
        local_epochs,
        round,
        None,
        &RecoveryPlan::default(),
    )
    .map(|(latency, _)| latency)
}

/// [`fl_round`] under an orchestrator's
/// [`crate::orchestrator::RoundPlan`] and a [`RecoveryPlan`].
///
/// The round plan may override bandwidth shares: `share_fracs[c]` is
/// client `c`'s fraction of the round's total band (entries ≤ 0 fall
/// back to the default equal split). Mid-compute crashes (from the
/// environment's [`ChannelModel::crash_point`] stream) charge a crashed
/// client its broadcast plus its completed fraction of local work and
/// drop its upload; an assigned backup then re-runs the slot's work on
/// its own channel, serialized after the crash. A deadline truncates
/// the round — in-flight updates at the cutoff are dropped. Returns the
/// per-slot [`RoundFate`] alongside the priced latency; `None` shares
/// and the default plan on a fault-free environment are exactly
/// [`fl_round`].
///
/// # Errors
///
/// Propagates wireless model errors.
#[allow(clippy::too_many_arguments)]
pub fn fl_round_recovered(
    latency: &dyn ChannelModel,
    costs: &SplitCosts,
    steps: &[usize],
    local_epochs: usize,
    round: u64,
    share_fracs: Option<&[f64]>,
    recovery: &RecoveryPlan,
) -> Result<(RoundLatency, RoundFate)> {
    let cond = latency.conditions(round)?;
    // Clients with zero steps are non-participants this round (e.g.
    // unavailable under churn): they neither train nor exchange models.
    let participants: Vec<usize> = steps
        .iter()
        .enumerate()
        .filter(|(_, &s)| s > 0)
        .map(|(c, _)| c)
        .collect();
    let n = participants.len().max(1);
    let default_share = cond.bandwidth.fraction(1.0 / n as f64);
    let share_of = |c: usize| match share_fracs {
        Some(f) if f.get(c).copied().unwrap_or(0.0) > 0.0 => cond.bandwidth.fraction(f[c]),
        _ => default_share,
    };
    let power = *latency.power();
    let mut bytes = RoundBytes::default();
    let mut energy = 0.0f64;
    let mut breakdown = LatencyBreakdown::default();
    let mut meter = FaultMeter::default();
    let mut fate = RoundFate {
        planned: participants.clone(),
        ..RoundFate::default()
    };
    // (slot, completion time, delivers-an-update) — the deadline filter
    // runs over this after every path is priced.
    let mut paths: Vec<(usize, Seconds, bool)> = Vec::with_capacity(participants.len());
    for &c in &participants {
        let s = steps[c];
        let share = share_of(c);
        // All participants receive the broadcast concurrently, so the
        // downlink pays SINR against the cohort just like the uplink
        // (link pricing skips `c` itself in `participants`). The
        // broadcast itself is fp32 — only the *upload* is encoded (the
        // aggregated global is never transcoded, so charging a
        // compressed downlink would save airtime the accuracy never
        // paid for).
        let l = ClientLinks::price(latency, &cond, c, share, &participants)?;
        let dl_air = l.down.time(costs.full_model_bytes)?;
        let dl = meter.price(latency, c, round, dl_air, costs.full_model_bytes);
        let compute_flops = costs.full_flops * (s * local_epochs) as u64;
        let compute = l.state.compute_time(compute_flops);
        bytes.down += costs.full_model_bytes.as_u64();
        bytes.raw_down += costs.full_model_bytes.as_u64();
        breakdown.downlink_s += dl.time.as_secs_f64();
        if let Some(f) = latency.crash_point(c, round) {
            // Crash after `f` of the local work: the broadcast and the
            // partial epochs are charged and wasted; the upload never
            // starts.
            fate.crashed.push(c);
            meter.waste(costs.full_model_bytes.as_u64());
            let partial = Seconds::new(compute.as_secs_f64() * f);
            energy += (power.rx_energy(dl.air) + power.compute_energy(partial)).as_joules();
            breakdown.client_compute_s += partial.as_secs_f64();
            let mut done = dl.time + partial;
            let mut delivers = false;
            if let Some(b) = recovery.backup_for(c) {
                // The standby re-runs the slot's work on its own channel,
                // serialized after the crash is detected, heard against
                // the rest of the cohort.
                let others: Vec<usize> = participants.iter().copied().filter(|&o| o != c).collect();
                let bl = ClientLinks::price(latency, &cond, b.client, share_of(b.client), &others)?;
                let b_dl_air = bl.down.time(costs.full_model_bytes)?;
                let b_dl = meter.price(latency, b.client, round, b_dl_air, costs.full_model_bytes);
                let b_flops = costs.full_flops * (b.steps * local_epochs) as u64;
                let b_compute = bl.state.compute_time(b_flops);
                let b_ul_air = bl.up.time(costs.full_model_wire_bytes)?;
                let b_ul = meter.price(
                    latency,
                    b.client,
                    round,
                    b_ul_air,
                    costs.full_model_wire_bytes,
                );
                done = done + b_dl.time + b_compute + b_ul.time;
                bytes.up += costs.full_model_wire_bytes.as_u64();
                bytes.down += costs.full_model_bytes.as_u64();
                bytes.raw_up += costs.full_model_bytes.as_u64();
                bytes.raw_down += costs.full_model_bytes.as_u64();
                energy += (power.rx_energy(b_dl.air)
                    + power.compute_energy(b_compute)
                    + power.tx_energy(b_ul.air))
                .as_joules();
                breakdown.downlink_s += b_dl.time.as_secs_f64();
                breakdown.client_compute_s += b_compute.as_secs_f64();
                breakdown.uplink_s += b_ul.time.as_secs_f64();
                fate.backups_activated += 1;
                delivers = true;
            }
            paths.push((c, done, delivers));
        } else {
            let ul_air = l.up.time(costs.full_model_wire_bytes)?;
            let ul = meter.price(latency, c, round, ul_air, costs.full_model_wire_bytes);
            bytes.up += costs.full_model_wire_bytes.as_u64();
            bytes.raw_up += costs.full_model_bytes.as_u64();
            energy +=
                (power.rx_energy(dl.air) + power.compute_energy(compute) + power.tx_energy(ul.air))
                    .as_joules();
            breakdown.uplink_s += ul.time.as_secs_f64();
            breakdown.client_compute_s += compute.as_secs_f64();
            paths.push((c, dl.time + compute + ul.time, true));
        }
    }
    // Deadline truncation: an update still in flight at the cutoff is
    // dropped; the server stops waiting at the deadline.
    let mut worst = Seconds::ZERO;
    let mut deadline_hit = false;
    for &(c, done, delivers) in &paths {
        let in_time = recovery.deadline_s.is_none_or(|d| done.as_secs_f64() <= d);
        if delivers && in_time {
            fate.survivors.push(c);
            worst = worst.max(done);
        } else if delivers {
            fate.deadline_dropped.push(c);
            deadline_hit = true;
        }
    }
    if deadline_hit {
        // The server waited out the full deadline for the missing
        // updates before proceeding.
        worst = Seconds::new(recovery.deadline_s.unwrap_or(0.0));
    } else if fate.survivors.is_empty() {
        // Nobody delivered: the round ends when the last partial dies.
        for &(_, done, _) in &paths {
            worst = worst.max(done);
        }
        if let Some(d) = recovery.deadline_s {
            worst = Seconds::new(worst.as_secs_f64().min(d));
        }
    }
    // Two-tier aggregation: each participating AP reduces its cohort
    // locally, then ships one full-model-sized fp32 partial aggregate
    // over its backhaul (free when the environment prices no backhaul).
    let mut aps = Vec::with_capacity(participants.len());
    for &c in &participants {
        aps.push(cond.client(c)?.ap);
    }
    let backhaul = backhaul_charge(latency, &aps, costs.full_model_bytes);
    breakdown.backhaul_s += backhaul.charged_s;
    // FedAvg aggregation on the server: one pass over the parameters per
    // client — negligible but charged for honesty.
    let agg = latency.server_compute(costs.full_model_bytes.as_u64() / 4 * n as u64);
    breakdown.server_s += agg.as_secs_f64();
    let faults = meter.stats(&fate);
    Ok((
        RoundLatency {
            duration: worst + backhaul.wall + agg,
            bytes,
            client_energy_j: energy,
            breakdown,
            faults,
        },
        fate,
    ))
}

/// Closed-form SL round: clients train strictly sequentially; after each
/// client the client-side model is relayed to the next client through the
/// AP. Under [`ChannelMode::Dedicated`] each client transmits on its own
/// `B/N` subchannel; under [`ChannelMode::SharedPool`] the single active
/// client enjoys the full band.
///
/// # Errors
///
/// Propagates wireless model errors.
pub fn sl_round(
    latency: &dyn ChannelModel,
    costs: &SplitCosts,
    steps: &[usize],
    order: &[usize],
    mode: ChannelMode,
    round: u64,
) -> Result<RoundLatency> {
    sl_round_recovered(
        latency,
        costs,
        steps,
        order,
        mode,
        round,
        None,
        &RecoveryPlan::default(),
    )
    .map(|(latency, _)| latency)
}

/// Everything one SL chain segment accumulates into — split out so the
/// primary, its backup and every later client charge through the same
/// code path.
#[derive(Debug, Default)]
struct SlAccumulator {
    total: Seconds,
    bytes: RoundBytes,
    energy: f64,
    breakdown: LatencyBreakdown,
}

/// Prices one client's SL chain segment: model-down, `run_steps`
/// split-training steps, and (unless the client crashes) the model-up
/// handoff, from the round snapshot `cond`. Wire transfers go through
/// the fault meter.
#[allow(clippy::too_many_arguments)]
fn sl_segment(
    latency: &dyn ChannelModel,
    cond: &RoundConditions,
    costs: &SplitCosts,
    c: usize,
    run_steps: usize,
    crashes: bool,
    share: Hertz,
    meter: &mut FaultMeter,
    acc: &mut SlAccumulator,
) -> Result<()> {
    let power = *latency.power();
    let round = cond.round;
    // SL is strictly sequential — one transmitter at a time — so no
    // co-channel interference applies.
    let l = ClientLinks::price(latency, cond, c, share, &[])?;
    // Model arrives at this client (from the AP relay). The AP
    // decoded the previous client's encoded upload and relays the
    // model onward in fp32, so the downlink is charged raw.
    let model_dl_air = l.down.time(costs.client_model_bytes)?;
    let model_dl = meter.price(latency, c, round, model_dl_air, costs.client_model_bytes);
    acc.total += model_dl.time;
    acc.energy += power.rx_energy(model_dl.air).as_joules();
    acc.bytes.down += costs.client_model_bytes.as_u64();
    acc.bytes.raw_down += costs.client_model_bytes.as_u64();
    acc.breakdown.downlink_s += model_dl.time.as_secs_f64();
    for _ in 0..run_steps {
        let fwd = l.state.compute_time(costs.client_fwd_flops);
        let ul_air = l.up.time(costs.smashed_wire_bytes)?;
        let ul = meter.price(latency, c, round, ul_air, costs.smashed_wire_bytes);
        let dl_air = l.down.time(costs.grad_wire_bytes)?;
        let dl = meter.price(latency, c, round, dl_air, costs.grad_wire_bytes);
        let bwd = l.state.compute_time(costs.client_bwd_flops);
        let srv = latency.server_compute_at(l.state.ap, costs.server_flops);
        acc.total += fwd + ul.time + srv + dl.time + bwd;
        acc.bytes.up += costs.smashed_wire_bytes.as_u64();
        acc.bytes.down += costs.grad_wire_bytes.as_u64();
        acc.bytes.raw_up += costs.smashed_bytes.as_u64();
        acc.bytes.raw_down += costs.grad_bytes.as_u64();
        acc.energy +=
            (power.compute_energy(fwd + bwd) + power.tx_energy(ul.air) + power.rx_energy(dl.air))
                .as_joules();
        acc.breakdown.client_compute_s += (fwd + bwd).as_secs_f64();
        acc.breakdown.uplink_s += ul.time.as_secs_f64();
        acc.breakdown.downlink_s += dl.time.as_secs_f64();
        acc.breakdown.server_s += srv.as_secs_f64();
    }
    if crashes {
        // The client died mid-segment: everything it was charged bought
        // nothing (the AP's last checkpoint — the previous client's
        // upload — carries the chain onward).
        meter.waste(
            costs.client_model_bytes.as_u64()
                + run_steps as u64
                    * (costs.smashed_wire_bytes.as_u64() + costs.grad_wire_bytes.as_u64()),
        );
        return Ok(());
    }
    // Hand the client-side model back to the AP for the next client.
    let model_ul_air = l.up.time(costs.client_model_wire_bytes)?;
    let model_ul = meter.price(
        latency,
        c,
        round,
        model_ul_air,
        costs.client_model_wire_bytes,
    );
    acc.total += model_ul.time;
    acc.energy += power.tx_energy(model_ul.air).as_joules();
    acc.bytes.up += costs.client_model_wire_bytes.as_u64();
    acc.bytes.raw_up += costs.client_model_bytes.as_u64();
    acc.breakdown.uplink_s += model_ul.time.as_secs_f64();
    Ok(())
}

/// [`sl_round`] under an orchestrator's
/// [`crate::orchestrator::RoundPlan`] and a [`RecoveryPlan`].
///
/// The round plan may override bandwidth shares: `share_fracs[c]` is
/// client `c`'s fraction of the round's total band (entries ≤ 0 fall
/// back to the channel-mode default). A crashed client is charged its
/// model download plus its completed split steps (crash after
/// ⌊progress · steps⌋ of them) and never hands the model back — the
/// AP's previous checkpoint carries the chain onward, so the crashed
/// client's contribution is simply lost. An assigned backup then
/// re-runs the slot's full segment on its own channel. A deadline cuts
/// the chain: clients whose segment has not completed by the cutoff are
/// dropped (the one mid-segment at the cutoff keeps its charges; later
/// clients never start). Returns the per-slot [`RoundFate`]; `None`
/// shares and the default plan on a fault-free environment are exactly
/// [`sl_round`].
///
/// # Errors
///
/// Propagates wireless model errors.
#[allow(clippy::too_many_arguments)]
pub fn sl_round_recovered(
    latency: &dyn ChannelModel,
    costs: &SplitCosts,
    steps: &[usize],
    order: &[usize],
    mode: ChannelMode,
    round: u64,
    share_fracs: Option<&[f64]>,
    recovery: &RecoveryPlan,
) -> Result<(RoundLatency, RoundFate)> {
    let cond = latency.conditions(round)?;
    let default_share = match mode {
        ChannelMode::Dedicated => cond.dedicated_share(),
        ChannelMode::SharedPool => cond.bandwidth,
    };
    let share_of = |c: usize| match share_fracs {
        Some(f) if f.get(c).copied().unwrap_or(0.0) > 0.0 => cond.bandwidth.fraction(f[c]),
        _ => default_share,
    };
    let mut meter = FaultMeter::default();
    let mut acc = SlAccumulator::default();
    let mut fate = RoundFate {
        planned: order.to_vec(),
        ..RoundFate::default()
    };
    for &c in order {
        if recovery
            .deadline_s
            .is_some_and(|d| acc.total.as_secs_f64() >= d)
        {
            // The deadline already passed: this client never starts.
            fate.deadline_dropped.push(c);
            continue;
        }
        let mut delivered;
        if let Some(f) = latency.crash_point(c, round) {
            fate.crashed.push(c);
            let done = ((f * steps[c] as f64) as usize).min(steps[c]);
            sl_segment(
                latency,
                &cond,
                costs,
                c,
                done,
                true,
                share_of(c),
                &mut meter,
                &mut acc,
            )?;
            delivered = false;
            if let Some(b) = recovery.backup_for(c) {
                // The standby re-runs the slot's segment on its own
                // channel, serialized after the crash.
                sl_segment(
                    latency,
                    &cond,
                    costs,
                    b.client,
                    b.steps,
                    false,
                    share_of(b.client),
                    &mut meter,
                    &mut acc,
                )?;
                fate.backups_activated += 1;
                delivered = true;
            }
        } else {
            sl_segment(
                latency,
                &cond,
                costs,
                c,
                steps[c],
                false,
                share_of(c),
                &mut meter,
                &mut acc,
            )?;
            delivered = true;
        }
        if delivered {
            if recovery
                .deadline_s
                .is_some_and(|d| acc.total.as_secs_f64() > d)
            {
                // Still mid-segment at the cutoff.
                fate.deadline_dropped.push(c);
            } else {
                fate.survivors.push(c);
            }
        }
    }
    let mut duration = acc.total;
    if let Some(d) = recovery.deadline_s {
        duration = Seconds::new(duration.as_secs_f64().min(d));
    }
    let faults = meter.stats(&fate);
    Ok((
        RoundLatency {
            duration,
            bytes: acc.bytes,
            client_energy_j: acc.energy,
            breakdown: acc.breakdown,
            faults,
        },
        fate,
    ))
}

/// DES-based GSFL round: groups run their sequential chains in parallel;
/// each group's transmissions use a bandwidth share from `policy`; every
/// server-side execution (and the final FedAvg) contends for the slots of
/// the edge server **at the transmitting client's AP** (one DES resource
/// per AP — single-AP environments behave exactly as before). Returns the
/// makespan.
///
/// Concurrency pays a physical price under interference-aware
/// environments: while `m` groups run in parallel, each transmission is
/// charged at the SINR seen against one representative concurrent
/// transmitter per other active group (the member at the same chain
/// position, wrapping), so SharedPool's dynamic reallocation no longer
/// gets its spectrum for free.
///
/// Setting `groups` to singletons yields the SFL (SplitFed) round.
///
/// # Errors
///
/// Propagates wireless/simulation errors.
pub fn gsfl_round(
    latency: &dyn ChannelModel,
    costs: &SplitCosts,
    steps: &[usize],
    groups: &[Vec<usize>],
    policy: BandwidthPolicy,
    mode: ChannelMode,
    round: u64,
) -> Result<RoundLatency> {
    gsfl_round_with_schedule(latency, costs, steps, groups, policy, mode, round)
        .map(|(latency, _)| latency)
}

/// Like [`gsfl_round`], but also returns the full discrete-event
/// [`Schedule`] (per-task spans, resource utilization, Gantt rendering) —
/// useful for tracing where a round's time goes.
///
/// # Errors
///
/// Propagates wireless/simulation errors.
pub fn gsfl_round_with_schedule(
    latency: &dyn ChannelModel,
    costs: &SplitCosts,
    steps: &[usize],
    groups: &[Vec<usize>],
    policy: BandwidthPolicy,
    mode: ChannelMode,
    round: u64,
) -> Result<(RoundLatency, Schedule)> {
    let group_costs = vec![*costs; groups.len()];
    gsfl_round_inner(
        latency,
        &group_costs,
        steps,
        groups,
        policy,
        mode,
        round,
        None,
        &RecoveryPlan::default(),
    )
    .map(|(latency, _, schedule)| (latency, schedule))
}

/// [`gsfl_round`] under an orchestrator's
/// [`crate::orchestrator::RoundPlan`] and a [`RecoveryPlan`].
///
/// The round plan supplies per-group cost profiles (hetero cuts give
/// each group its own profile — SplitFed's singleton groups make that
/// per-client) and an optional per-client bandwidth-share override
/// (`share_fracs[c]` = client `c`'s fraction of the total band; entries
/// ≤ 0 fall back to the dedicated share). Under the recovery plan a
/// crashed chain member is charged its model download plus its
/// completed split steps, never relays, and the chain re-routes — the
/// AP's last relayed checkpoint (the previous alive member's model)
/// carries onward, so the next member's download simply follows the
/// crash-detection gate, and when the *last* member crashes the group's
/// contribution is the state its last alive member already relayed up
/// (re-priced on that member's channel). An assigned backup instead
/// re-runs the slot's chain position on its own channel. A deadline
/// drops every group whose final upload has not landed by the cutoff.
/// Returns the per-slot [`RoundFate`]; uniform costs, `None` shares and
/// the default plan on a fault-free environment are exactly
/// [`gsfl_round`].
///
/// # Errors
///
/// Propagates wireless/simulation errors; `group_costs` must have one
/// entry per group.
#[allow(clippy::too_many_arguments)]
pub fn gsfl_round_recovered(
    latency: &dyn ChannelModel,
    group_costs: &[SplitCosts],
    steps: &[usize],
    groups: &[Vec<usize>],
    policy: BandwidthPolicy,
    mode: ChannelMode,
    round: u64,
    share_fracs: Option<&[f64]>,
    recovery: &RecoveryPlan,
) -> Result<(RoundLatency, RoundFate)> {
    gsfl_round_inner(
        latency,
        group_costs,
        steps,
        groups,
        policy,
        mode,
        round,
        share_fracs,
        recovery,
    )
    .map(|(latency, fate, _)| (latency, fate))
}

/// One chain member's split-training steps as DES tasks (forward →
/// smashed-up → server → grad-down → backward per step), charged
/// through the fault meter. Returns the last task, the new chain gate.
#[allow(clippy::too_many_arguments)]
fn gsfl_member_steps(
    latency: &dyn ChannelModel,
    gc: &SplitCosts,
    gi: usize,
    m: &ClientLinks,
    n_steps: usize,
    round: u64,
    g: &mut TaskGraph,
    server: gsfl_simnet::ResourceId,
    mut prev: Option<gsfl_simnet::TaskId>,
    meter: &mut FaultMeter,
    bytes: &mut RoundBytes,
    energy: &mut f64,
    breakdown: &mut LatencyBreakdown,
    server_tasks: &mut Vec<(gsfl_simnet::TaskId, gsfl_simnet::TaskId)>,
) -> Result<Option<gsfl_simnet::TaskId>> {
    let power = *latency.power();
    let c = m.state.client;
    for s in 0..n_steps {
        let fwd_t = m.state.compute_time(gc.client_fwd_flops);
        let cf = g.add_task(
            format!("g{gi}/c{c}/fwd{s}"),
            to_sim(fwd_t),
            None,
            prev.as_slice(),
        )?;
        let ul_air = m.up.time(gc.smashed_wire_bytes)?;
        let ul_t = meter.price(latency, c, round, ul_air, gc.smashed_wire_bytes);
        let ul = g.add_task(format!("g{gi}/c{c}/up{s}"), to_sim(ul_t.time), None, &[cf])?;
        let srv_t = latency.server_compute_at(m.state.ap, gc.server_flops);
        let sv = g.add_task(
            format!("g{gi}/c{c}/srv{s}"),
            to_sim(srv_t),
            Some(server),
            &[ul],
        )?;
        server_tasks.push((sv, ul));
        let dl_air = m.down.time(gc.grad_wire_bytes)?;
        let dl_t = meter.price(latency, c, round, dl_air, gc.grad_wire_bytes);
        let dl = g.add_task(
            format!("g{gi}/c{c}/down{s}"),
            to_sim(dl_t.time),
            None,
            &[sv],
        )?;
        let bwd_t = m.state.compute_time(gc.client_bwd_flops);
        let cb = g.add_task(format!("g{gi}/c{c}/bwd{s}"), to_sim(bwd_t), None, &[dl])?;
        bytes.up += gc.smashed_wire_bytes.as_u64();
        bytes.down += gc.grad_wire_bytes.as_u64();
        bytes.raw_up += gc.smashed_bytes.as_u64();
        bytes.raw_down += gc.grad_bytes.as_u64();
        *energy += (power.compute_energy(fwd_t + bwd_t)
            + power.tx_energy(ul_t.air)
            + power.rx_energy(dl_t.air))
        .as_joules();
        breakdown.client_compute_s += (fwd_t + bwd_t).as_secs_f64();
        breakdown.uplink_s += ul_t.time.as_secs_f64();
        breakdown.downlink_s += dl_t.time.as_secs_f64();
        breakdown.server_s += srv_t.as_secs_f64();
        prev = Some(cb);
    }
    Ok(prev)
}

#[allow(clippy::too_many_arguments)]
fn gsfl_round_inner(
    latency: &dyn ChannelModel,
    group_costs: &[SplitCosts],
    steps: &[usize],
    groups: &[Vec<usize>],
    policy: BandwidthPolicy,
    mode: ChannelMode,
    round: u64,
    share_fracs: Option<&[f64]>,
    recovery: &RecoveryPlan,
) -> Result<(RoundLatency, RoundFate, Schedule)> {
    let m = groups.len();
    if m == 0 {
        return Err(CoreError::Config("gsfl needs at least one group".into()));
    }
    if group_costs.len() != m {
        return Err(CoreError::Config(format!(
            "gsfl needs one cost profile per group: {} profiles for {m} groups",
            group_costs.len()
        )));
    }
    let cond = latency.conditions(round)?;
    let shares = match share_fracs {
        // Planned shares are per client; the per-group vector is unused.
        Some(_) => vec![Hertz::new(0.0); m],
        None => match mode {
            // Every client owns its B/N subchannel regardless of grouping.
            ChannelMode::Dedicated => vec![cond.dedicated_share(); m],
            // Active groups split the band per the policy.
            ChannelMode::SharedPool => {
                group_shares(latency, &cond, group_costs, steps, groups, policy)?
            }
        },
    };
    // The share a member of group `gi` transmits on: its planned
    // fraction of the band when the orchestrator set one, the group's
    // share otherwise.
    let member_share = |gi: usize, c: usize| match share_fracs {
        Some(f) if f.get(c).copied().unwrap_or(0.0) > 0.0 => cond.bandwidth.fraction(f[c]),
        Some(_) => cond.dedicated_share(),
        None => shares[gi],
    };
    // Client `c` at chain position `j` of group `gi`: while it transmits
    // or receives, every other active group has a member of its own on
    // the air, so its links pay SINR against the same-position
    // representative of each other group.
    let member = |gi: usize, j: usize, c: usize| {
        let interferers = co_transmitters(groups, gi, j);
        ClientLinks::price(latency, &cond, c, member_share(gi, c), &interferers)
    };

    let power = *latency.power();
    let mut g = TaskGraph::new();
    // One FIFO resource per AP's edge server; single-AP environments get
    // exactly the one "edge-server" resource they always had.
    let servers: Vec<_> = (0..latency.ap_count())
        .map(|ap| {
            let label = if latency.ap_count() == 1 {
                "edge-server".to_string()
            } else {
                format!("edge-server{ap}")
            };
            g.add_resource(label, latency.server_at(ap).slots())
        })
        .collect();
    // Per surviving group: its end task (the join gate), the slots whose
    // update it carries, and the AP its final state landed on.
    let mut group_records: Vec<(gsfl_simnet::TaskId, Vec<usize>, usize)> = Vec::with_capacity(m);
    let mut bytes = RoundBytes::default();
    let mut energy = 0.0f64;
    let mut breakdown = LatencyBreakdown::default();
    let mut meter = FaultMeter::default();
    let mut fate = RoundFate {
        planned: groups.iter().flatten().copied().collect(),
        ..RoundFate::default()
    };
    // Server-bound tasks with the task whose completion made them ready,
    // so queue wait (start − uplink finish) can be attributed to the
    // server phase after the simulation runs.
    let mut server_tasks = Vec::new();

    for (gi, members) in groups.iter().enumerate() {
        let gc = &group_costs[gi];
        let mut prev: Option<gsfl_simnet::TaskId> = None;
        // The alive member whose trained model has not yet been relayed
        // to the AP (its uplink priced at its chain position). `None`
        // after a crash: the AP's newest checkpoint already arrived with
        // the previous relay, so the chain re-routes without a new hop.
        let mut pending: Option<ClientLinks> = None;
        // Slots whose update the group's final state carries.
        let mut alive: Vec<usize> = Vec::new();
        for (j, &c) in members.iter().enumerate() {
            let m = member(gi, j, c)?;
            // Client-model handoff: AP → client (first member receives the
            // freshly aggregated model; later members receive the relay).
            if let Some(from) = pending.take() {
                let from_c = from.state.client;
                let relay_air = from.up.time(gc.client_model_wire_bytes)?;
                let relay_t = meter.price(
                    latency,
                    from_c,
                    round,
                    relay_air,
                    gc.client_model_wire_bytes,
                );
                let ul = g.add_task(
                    format!("g{gi}/relay-up{from_c}"),
                    to_sim(relay_t.time),
                    None,
                    prev.as_slice(),
                )?;
                bytes.up += gc.client_model_wire_bytes.as_u64();
                bytes.raw_up += gc.client_model_bytes.as_u64();
                energy += power.tx_energy(relay_t.air).as_joules();
                breakdown.uplink_s += relay_t.time.as_secs_f64();
                prev = Some(ul);
            }
            // Model downlinks are fp32 (the AP decodes encoded uploads
            // and relays raw — see `fl_round`).
            let model_dl_air = m.down.time(gc.client_model_bytes)?;
            let model_dl_t = meter.price(latency, c, round, model_dl_air, gc.client_model_bytes);
            let dl = g.add_task(
                format!("g{gi}/model-down{c}"),
                to_sim(model_dl_t.time),
                None,
                prev.as_slice(),
            )?;
            bytes.down += gc.client_model_bytes.as_u64();
            bytes.raw_down += gc.client_model_bytes.as_u64();
            energy += power.rx_energy(model_dl_t.air).as_joules();
            breakdown.downlink_s += model_dl_t.time.as_secs_f64();
            prev = Some(dl);

            if let Some(f) = latency.crash_point(c, round) {
                // Crash after ⌊f · steps⌋ split steps: the partial chain
                // is charged (and wasted) and the member never relays —
                // the next member resumes from the AP's last checkpoint.
                fate.crashed.push(c);
                let done = ((f * steps[c] as f64) as usize).min(steps[c]);
                prev = gsfl_member_steps(
                    latency,
                    gc,
                    gi,
                    &m,
                    done,
                    round,
                    &mut g,
                    servers[m.state.ap],
                    prev,
                    &mut meter,
                    &mut bytes,
                    &mut energy,
                    &mut breakdown,
                    &mut server_tasks,
                )?;
                meter.waste(
                    gc.client_model_bytes.as_u64()
                        + done as u64
                            * (gc.smashed_wire_bytes.as_u64() + gc.grad_wire_bytes.as_u64()),
                );
                if let Some(b) = recovery.backup_for(c) {
                    // The standby inherits the chain position: fresh
                    // model-down on its own channel, then the full
                    // segment, serialized after the crash is detected.
                    let bm = member(gi, j, b.client)?;
                    let b_dl_air = bm.down.time(gc.client_model_bytes)?;
                    let b_dl_t =
                        meter.price(latency, b.client, round, b_dl_air, gc.client_model_bytes);
                    let b_dl = g.add_task(
                        format!("g{gi}/backup-down{}", b.client),
                        to_sim(b_dl_t.time),
                        None,
                        prev.as_slice(),
                    )?;
                    bytes.down += gc.client_model_bytes.as_u64();
                    bytes.raw_down += gc.client_model_bytes.as_u64();
                    energy += power.rx_energy(b_dl_t.air).as_joules();
                    breakdown.downlink_s += b_dl_t.time.as_secs_f64();
                    prev = gsfl_member_steps(
                        latency,
                        gc,
                        gi,
                        &bm,
                        b.steps,
                        round,
                        &mut g,
                        servers[bm.state.ap],
                        Some(b_dl),
                        &mut meter,
                        &mut bytes,
                        &mut energy,
                        &mut breakdown,
                        &mut server_tasks,
                    )?;
                    pending = Some(bm);
                    alive.push(c);
                    fate.backups_activated += 1;
                }
            } else {
                prev = gsfl_member_steps(
                    latency,
                    gc,
                    gi,
                    &m,
                    steps[c],
                    round,
                    &mut g,
                    servers[m.state.ap],
                    prev,
                    &mut meter,
                    &mut bytes,
                    &mut energy,
                    &mut breakdown,
                    &mut server_tasks,
                )?;
                pending = Some(m);
                alive.push(c);
            }
        }
        if let Some(last) = pending {
            // The last alive chain holder ships the group's client-side
            // model to the AP.
            let last_c = last.state.client;
            let agg_ul_air = last.up.time(gc.client_model_wire_bytes)?;
            let agg_ul_t = meter.price(
                latency,
                last_c,
                round,
                agg_ul_air,
                gc.client_model_wire_bytes,
            );
            let agg_ul = g.add_task(
                format!("g{gi}/agg-up{last_c}"),
                to_sim(agg_ul_t.time),
                None,
                prev.as_slice(),
            )?;
            bytes.up += gc.client_model_wire_bytes.as_u64();
            bytes.raw_up += gc.client_model_bytes.as_u64();
            energy += power.tx_energy(agg_ul_t.air).as_joules();
            breakdown.uplink_s += agg_ul_t.time.as_secs_f64();
            group_records.push((agg_ul, alive, last.state.ap));
        } else if let (Some(&held), Some(end)) = (alive.last(), prev) {
            // The tail of the chain crashed after the last alive member
            // already relayed its model up: the AP holds the group's
            // contribution, and the group ends at the crash-detection
            // gate — no extra upload is needed.
            group_records.push((end, alive, cond.client(held)?.ap));
        }
        // Whole group lost: its charged tasks stay in the graph but it
        // contributes nothing to the aggregate.
    }

    // Two-tier aggregation: every AP that hosted a group's final upload
    // reduces its groups locally and ships one partial aggregate (both
    // halves, fp32) over its backhaul before the top-level merge. With
    // no priced backhaul the task graph is exactly the historical
    // single-tier one.
    if !group_records.is_empty() {
        let group_ends: Vec<_> = group_records.iter().map(|(end, _, _)| *end).collect();
        let group_aps: Vec<_> = group_records.iter().map(|(_, _, ap)| *ap).collect();
        let join_inputs = if group_aps.iter().any(|&ap| latency.backhaul(ap).is_some()) {
            // Per-AP partial aggregates carry the widest group's halves
            // (uniform costs make this exactly the historical payload).
            let payload = Bytes::new(
                group_costs
                    .iter()
                    .map(|c| c.client_model_bytes.as_u64() + server_side_bytes(c))
                    .max()
                    .unwrap_or(0),
            );
            let mut per_ap: BTreeMap<usize, Vec<_>> = BTreeMap::new();
            for (&end, &ap) in group_ends.iter().zip(&group_aps) {
                per_ap.entry(ap).or_default().push(end);
            }
            let mut inputs = Vec::new();
            for (ap, ends) in per_ap {
                match latency.backhaul(ap) {
                    Some(link) => {
                        let t = link.transfer_time(payload);
                        let bh = g.add_task(format!("backhaul{ap}"), to_sim(t), None, &ends)?;
                        breakdown.backhaul_s += t.as_secs_f64();
                        inputs.push(bh);
                    }
                    None => inputs.extend(ends),
                }
            }
            inputs
        } else {
            group_ends
        };

        // FedAvg of both halves on the server: one parameter pass per
        // group. Aggregation runs at AP 0's server (the anchor AP that
        // owns the global model).
        let join = g.add_barrier("agg-join", &join_inputs)?;
        // One parameter pass per group (uniform costs reduce to the
        // historical `(client + server) / 4 × m`).
        let agg_flops: u64 = group_costs
            .iter()
            .map(|c| (c.client_model_bytes.as_u64() + server_side_bytes(c)) / 4)
            .sum();
        let agg_t = latency.server_compute_at(0, agg_flops);
        let agg = g.add_task("fedavg", to_sim(agg_t), Some(servers[0]), &[join])?;
        breakdown.server_s += agg_t.as_secs_f64();
        server_tasks.push((agg, join));
    }

    let schedule = Simulator::run(&g)?;
    // Attribute slot-queue waiting to the server phase: a server task
    // becomes ready the instant its uplink (or join) finishes; any gap
    // before it starts is contention at that AP's server.
    for (sv, ready_after) in server_tasks {
        let wait = schedule.start(sv).as_secs_f64() - schedule.finish(ready_after).as_secs_f64();
        if wait > 0.0 {
            breakdown.server_s += wait;
        }
    }
    // Deadline truncation: a group whose final state has not landed by
    // the cutoff is dropped whole (its members' updates never merged).
    for (end, alive, _) in group_records {
        if recovery
            .deadline_s
            .is_none_or(|d| schedule.finish(end).as_secs_f64() <= d)
        {
            fate.survivors.extend(alive);
        } else {
            fate.deadline_dropped.extend(alive);
        }
    }
    let mut duration = Seconds::new(schedule.makespan().as_secs_f64());
    if let Some(d) = recovery.deadline_s {
        duration = Seconds::new(duration.as_secs_f64().min(d));
    }
    let faults = meter.stats(&fate);
    Ok((
        RoundLatency {
            duration,
            bytes,
            client_energy_j: energy,
            breakdown,
            faults,
        },
        fate,
        schedule,
    ))
}

/// One representative concurrent transmitter per other active group, for
/// the member at chain position `j` of group `gi`: the other group's
/// member at the same position (wrapping around shorter chains).
/// Deterministic, and empty when only one group is active — SL-shaped
/// rounds stay interference-free.
fn co_transmitters(groups: &[Vec<usize>], gi: usize, j: usize) -> Vec<usize> {
    groups
        .iter()
        .enumerate()
        .filter(|(h, g)| *h != gi && !g.is_empty())
        .map(|(_, g)| g[j % g.len()])
        .collect()
}

/// Bandwidth share of each group under `policy`, out of the round's
/// available bandwidth. Payloads are the **encoded** wire sizes (that is
/// what occupies the air), and the spectral-efficiency probe is
/// SINR-aware: each member is rated against the same-position
/// representatives of the other groups that will transmit alongside it,
/// so [`BandwidthPolicy::ChannelAware`] co-optimizes shares and
/// interference instead of trusting interference-free rates.
/// Interference-free environments ignore the concurrent set, keeping
/// zero-interference behavior bit-identical.
fn group_shares(
    latency: &dyn ChannelModel,
    cond: &RoundConditions,
    group_costs: &[SplitCosts],
    steps: &[usize],
    groups: &[Vec<usize>],
    policy: BandwidthPolicy,
) -> Result<Vec<Hertz>> {
    let total = cond.bandwidth;
    let demands: Vec<LinkDemand> = groups
        .iter()
        .enumerate()
        .map(|(gi, members)| {
            let costs = &group_costs[gi];
            // Per-group payload over the round.
            let payload: u64 = members
                .iter()
                .map(|&c| {
                    steps[c] as u64
                        * (costs.smashed_wire_bytes.as_u64() + costs.grad_wire_bytes.as_u64())
                        // Model up is encoded, model down is the fp32
                        // relay (see the round calculators).
                        + costs.client_model_wire_bytes.as_u64()
                        + costs.client_model_bytes.as_u64()
                })
                .sum();
            // Spectral efficiency proxy: mean over members at an equal
            // share, each heard against its concurrent transmitters.
            let probe = total.fraction(1.0 / groups.len() as f64);
            let se = members
                .iter()
                .enumerate()
                .map(|(j, &c)| {
                    let interferers = co_transmitters(groups, gi, j);
                    latency
                        .link(cond, c, Direction::Uplink, probe, &interferers)
                        .map(|l| l.rate_bps / probe.as_hz())
                })
                .collect::<gsfl_wireless::Result<Vec<f64>>>()
                .map(|v| v.iter().sum::<f64>() / v.len().max(1) as f64);
            se.map(|se| LinkDemand {
                payload_bytes: payload,
                spectral_efficiency: se,
            })
        })
        .collect::<gsfl_wireless::Result<Vec<LinkDemand>>>()?;
    Ok(allocate(policy, total, &demands)?)
}

/// The second-tier backhaul charge of one round: the wall-clock cost
/// (per-AP transfers run concurrently, so the slowest AP gates the
/// round) and the summed per-transfer time for breakdown attribution.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct BackhaulCharge {
    /// Wall-clock seconds the round waits on the backhaul tier.
    pub wall: Seconds,
    /// Summed transfer seconds across all shipping APs.
    pub charged_s: f64,
}

/// Prices the AP→aggregator tier of a two-tier aggregation: each
/// distinct AP in `aps` ships one `payload`-sized partial aggregate over
/// its [`ChannelModel::backhaul`] link. APs without a priced link ship
/// for free — the historical single-tier behavior, which keeps
/// backhaul-free environments byte-identical.
pub fn backhaul_charge(
    latency: &dyn ChannelModel,
    aps: &[usize],
    payload: Bytes,
) -> BackhaulCharge {
    let mut charge = BackhaulCharge::default();
    let mut seen: Vec<usize> = Vec::new();
    for &ap in aps {
        if seen.contains(&ap) {
            continue;
        }
        seen.push(ap);
        if let Some(link) = latency.backhaul(ap) {
            let t = link.transfer_time(payload);
            charge.wall = charge.wall.max(t);
            charge.charged_s += t.as_secs_f64();
        }
    }
    charge
}

/// The wire size of the server-side model implied by the cost profile:
/// full model minus the client half.
fn server_side_bytes(costs: &SplitCosts) -> u64 {
    costs
        .full_model_bytes
        .as_u64()
        .saturating_sub(costs.client_model_bytes.as_u64())
}

fn to_sim(s: Seconds) -> SimTime {
    SimTime::new(s.as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsfl_nn::model::Mlp;
    use gsfl_wireless::device::DeviceProfile;
    use gsfl_wireless::environment::RadioEnvironment;
    use gsfl_wireless::latency::LatencyModel;
    use gsfl_wireless::server::EdgeServer;
    use gsfl_wireless::units::{FlopsRate, Meters};

    fn fixture(slots: usize, clients: usize) -> (RadioEnvironment, SplitCosts) {
        let latency = LatencyModel::builder()
            .clients(clients)
            .fading(false)
            .fixed_distances(vec![Meters::new(50.0); clients])
            .fixed_devices(vec![
                DeviceProfile::new(FlopsRate::from_gflops(1.0)).unwrap();
                clients
            ])
            .server(EdgeServer::new(FlopsRate::from_gflops(50.0), slots).unwrap())
            .build()
            .unwrap();
        let net = Mlp::new(48, &[32, 32], 5, 0).into_sequential();
        let costs = SplitCosts::compute(&net, 2, &[48], 8).unwrap();
        (RadioEnvironment::builder(latency).build().unwrap(), costs)
    }

    #[test]
    fn split_costs_partition_the_model() {
        let (_, costs) = fixture(1, 1);
        // Client + server flops ≈ full flops (elementwise layers counted
        // once on each side of the cut).
        let split_total = costs.client_fwd_flops + costs.client_bwd_flops + costs.server_flops;
        assert_eq!(split_total, costs.full_flops);
        assert!(costs.client_model_bytes < costs.full_model_bytes);
        assert_eq!(
            costs.smashed_bytes.as_u64(),
            costs.grad_bytes.as_u64() + 4 * 8
        );
    }

    #[test]
    fn sl_round_is_sum_over_clients() {
        let (latency, costs) = fixture(4, 3);
        let steps = vec![2, 2, 2];
        let all = sl_round(
            &latency,
            &costs,
            &steps,
            &[0, 1, 2],
            ChannelMode::Dedicated,
            0,
        )
        .unwrap();
        let one = sl_round(&latency, &costs, &steps, &[0], ChannelMode::Dedicated, 0).unwrap();
        // Identical clients ⇒ three times one client's segment.
        assert!((all.duration.as_secs_f64() - 3.0 * one.duration.as_secs_f64()).abs() < 1e-9);
        assert_eq!(all.bytes.up, 3 * one.bytes.up);
    }

    #[test]
    fn gsfl_single_group_matches_sl_plus_aggregation() {
        let (latency, costs) = fixture(8, 3); // ample slots: no contention
        let steps = vec![2, 2, 2];
        let order = vec![0usize, 1, 2];
        let sl = sl_round(&latency, &costs, &steps, &order, ChannelMode::Dedicated, 0).unwrap();
        let gsfl = gsfl_round(
            &latency,
            &costs,
            &steps,
            std::slice::from_ref(&order),
            BandwidthPolicy::Equal,
            ChannelMode::Dedicated,
            0,
        )
        .unwrap();
        // GSFL(M=1) = SL + relay-up of intermediate member + FedAvg compute.
        // The structural difference: SL charges a final uplink per client
        // (already included in both); GSFL additionally runs the fedavg
        // task. So gsfl ≥ sl, within a small aggregation margin.
        let diff = gsfl.duration.as_secs_f64() - sl.duration.as_secs_f64();
        assert!(
            diff >= -1e-9,
            "gsfl {} should not be faster than sl {}",
            gsfl.duration.as_secs_f64(),
            sl.duration.as_secs_f64()
        );
        let agg_margin = 0.2 * sl.duration.as_secs_f64();
        assert!(diff < agg_margin, "aggregation overhead too large: {diff}");
    }

    #[test]
    fn gsfl_parallel_groups_faster_than_sl() {
        let (latency, costs) = fixture(4, 6);
        let steps = vec![2; 6];
        let sl = sl_round(
            &latency,
            &costs,
            &steps,
            &[0, 1, 2, 3, 4, 5],
            ChannelMode::Dedicated,
            0,
        )
        .unwrap();
        let groups = vec![vec![0, 1], vec![2, 3], vec![4, 5]];
        let gsfl = gsfl_round(
            &latency,
            &costs,
            &steps,
            &groups,
            BandwidthPolicy::Equal,
            ChannelMode::Dedicated,
            0,
        )
        .unwrap();
        assert!(
            gsfl.duration.as_secs_f64() < sl.duration.as_secs_f64(),
            "gsfl {} vs sl {}",
            gsfl.duration.as_secs_f64(),
            sl.duration.as_secs_f64()
        );
    }

    #[test]
    fn server_contention_slows_gsfl() {
        let (lat_many, costs) = fixture(6, 6);
        let (lat_one, _) = fixture(1, 6);
        let steps = vec![2; 6];
        let groups: Vec<Vec<usize>> = (0..6).map(|c| vec![c]).collect();
        let wide = gsfl_round(
            &lat_many,
            &costs,
            &steps,
            &groups,
            BandwidthPolicy::Equal,
            ChannelMode::Dedicated,
            0,
        )
        .unwrap();
        let narrow = gsfl_round(
            &lat_one,
            &costs,
            &steps,
            &groups,
            BandwidthPolicy::Equal,
            ChannelMode::Dedicated,
            0,
        )
        .unwrap();
        assert!(narrow.duration.as_secs_f64() > wide.duration.as_secs_f64());
    }

    #[test]
    fn fl_round_is_straggler_bound() {
        let (latency, costs) = fixture(4, 4);
        let fl_fast = fl_round(&latency, &costs, &[1, 1, 1, 1], 1, 0).unwrap();
        let fl_slow = fl_round(&latency, &costs, &[1, 1, 1, 9], 1, 0).unwrap();
        assert!(fl_slow.duration.as_secs_f64() > fl_fast.duration.as_secs_f64());
        // Byte volume is identical: model exchange only.
        assert_eq!(fl_fast.bytes, fl_slow.bytes);
    }

    #[test]
    fn cl_round_scales_with_steps() {
        let (latency, costs) = fixture(4, 1);
        let a = cl_round(&latency, &costs, 10);
        let b = cl_round(&latency, &costs, 20);
        assert!((b.duration.as_secs_f64() / a.duration.as_secs_f64() - 2.0).abs() < 1e-9);
        assert_eq!(a.bytes.up, 0);
    }

    #[test]
    fn backhaul_is_free_by_default_and_charged_when_priced() {
        use gsfl_wireless::backhaul::BackhaulLink;
        use gsfl_wireless::environment::RadioEnvironment;
        let (flat, costs) = fixture(4, 4);
        let fl = fl_round(&flat, &costs, &[1, 1, 1, 1], 1, 0).unwrap();
        assert_eq!(fl.breakdown.backhaul_s, 0.0);
        let build = |link: Option<BackhaulLink>| {
            let latency = LatencyModel::builder()
                .clients(4)
                .fading(false)
                .fixed_distances(vec![Meters::new(50.0); 4])
                .fixed_devices(vec![
                    DeviceProfile::new(FlopsRate::from_gflops(1.0)).unwrap();
                    4
                ])
                .server(EdgeServer::new(FlopsRate::from_gflops(50.0), 4).unwrap())
                .build()
                .unwrap();
            let mut b = RadioEnvironment::builder(latency).line(2, 100.0).unwrap();
            if let Some(l) = link {
                b = b.backhaul(l);
            }
            b.build().unwrap()
        };
        let free = build(None);
        let slow_link = BackhaulLink::new(1e6, 0.05).unwrap();
        let tiered = build(Some(slow_link));
        // FL: backhaul extends the round by exactly the wall charge and
        // leaves every other phase untouched.
        let steps = [1usize, 1, 1, 1];
        let fl_free = fl_round(&free, &costs, &steps, 1, 0).unwrap();
        let fl_tiered = fl_round(&tiered, &costs, &steps, 1, 0).unwrap();
        assert_eq!(fl_free.breakdown.backhaul_s, 0.0);
        assert!(fl_tiered.breakdown.backhaul_s > 0.0);
        assert!(fl_tiered.duration.as_secs_f64() > fl_free.duration.as_secs_f64());
        assert_eq!(fl_free.breakdown.uplink_s, fl_tiered.breakdown.uplink_s);
        assert_eq!(fl_free.breakdown.server_s, fl_tiered.breakdown.server_s);
        assert_eq!(fl_free.bytes, fl_tiered.bytes, "backhaul is not airtime");
        // GSFL: the DES gets per-AP backhaul tasks before the merge.
        let groups = vec![vec![0usize, 1], vec![2, 3]];
        let g_free = gsfl_round(
            &free,
            &costs,
            &steps,
            &groups,
            BandwidthPolicy::Equal,
            ChannelMode::Dedicated,
            0,
        )
        .unwrap();
        let g_tiered = gsfl_round(
            &tiered,
            &costs,
            &steps,
            &groups,
            BandwidthPolicy::Equal,
            ChannelMode::Dedicated,
            0,
        )
        .unwrap();
        assert_eq!(g_free.breakdown.backhaul_s, 0.0);
        assert!(g_tiered.breakdown.backhaul_s > 0.0);
        assert!(g_tiered.duration.as_secs_f64() > g_free.duration.as_secs_f64());
    }

    #[test]
    fn backhaul_charge_dedupes_aps_and_takes_the_max() {
        use gsfl_wireless::backhaul::BackhaulLink;
        use gsfl_wireless::environment::RadioEnvironment;
        let latency = LatencyModel::builder().clients(2).seed(1).build().unwrap();
        let link = BackhaulLink::new(1e6, 0.01).unwrap();
        let env = RadioEnvironment::builder(latency)
            .line(3, 100.0)
            .unwrap()
            .backhaul(link)
            .build()
            .unwrap();
        let payload = Bytes::new(125_000); // 1 s of serialization at 1 Mb/s
        let per_ap = link.transfer_time(payload).as_secs_f64();
        let one = backhaul_charge(&env, &[1, 1, 1], payload);
        assert!((one.wall.as_secs_f64() - per_ap).abs() < 1e-12);
        assert!(
            (one.charged_s - per_ap).abs() < 1e-12,
            "duplicates ship once"
        );
        let two = backhaul_charge(&env, &[0, 2], payload);
        assert!((two.wall.as_secs_f64() - per_ap).abs() < 1e-12, "parallel");
        assert!((two.charged_s - 2.0 * per_ap).abs() < 1e-12);
        assert_eq!(
            backhaul_charge(&env, &[], payload),
            BackhaulCharge::default()
        );
    }

    #[test]
    fn policies_change_shares_but_not_totals() {
        let (latency, costs) = fixture(4, 4);
        let steps = vec![1, 2, 3, 4];
        let groups = vec![vec![0, 1], vec![2, 3]];
        for policy in [
            BandwidthPolicy::Equal,
            BandwidthPolicy::PayloadWeighted,
            BandwidthPolicy::ChannelAware,
        ] {
            let r = gsfl_round(
                &latency,
                &costs,
                &steps,
                &groups,
                policy,
                ChannelMode::SharedPool,
                0,
            )
            .unwrap();
            assert!(r.duration.as_secs_f64() > 0.0, "{policy:?}");
        }
    }
}

#[cfg(test)]
mod energy_tests {
    use super::*;
    use gsfl_nn::model::Mlp;
    use gsfl_wireless::device::DeviceProfile;
    use gsfl_wireless::environment::RadioEnvironment;
    use gsfl_wireless::latency::LatencyModel;
    use gsfl_wireless::server::EdgeServer;
    use gsfl_wireless::units::{FlopsRate, Meters};

    fn fixture(clients: usize) -> (RadioEnvironment, SplitCosts) {
        let latency = LatencyModel::builder()
            .clients(clients)
            .fading(false)
            .fixed_distances(vec![Meters::new(50.0); clients])
            .fixed_devices(vec![
                DeviceProfile::new(FlopsRate::from_gflops(1.0)).unwrap();
                clients
            ])
            .server(EdgeServer::new(FlopsRate::from_gflops(50.0), 8).unwrap())
            .build()
            .unwrap();
        let net = Mlp::new(48, &[32, 32], 5, 0).into_sequential();
        let costs = SplitCosts::compute(&net, 2, &[48], 8).unwrap();
        (RadioEnvironment::builder(latency).build().unwrap(), costs)
    }

    #[test]
    fn cl_round_costs_no_client_energy() {
        let (latency, costs) = fixture(2);
        assert_eq!(cl_round(&latency, &costs, 5).client_energy_j, 0.0);
    }

    #[test]
    fn sl_and_gsfl_client_energy_match() {
        // Same client work, reordered: group parallelism must not change
        // the total client-side energy (modulo the extra relay structure,
        // which is identical under round-robin chains).
        let (latency, costs) = fixture(6);
        let steps = vec![2usize; 6];
        let order: Vec<usize> = (0..6).collect();
        let sl = sl_round(&latency, &costs, &steps, &order, ChannelMode::Dedicated, 0).unwrap();
        let gsfl = gsfl_round(
            &latency,
            &costs,
            &steps,
            &[vec![0, 1, 2], vec![3, 4, 5]],
            BandwidthPolicy::Equal,
            ChannelMode::Dedicated,
            0,
        )
        .unwrap();
        let rel = (sl.client_energy_j - gsfl.client_energy_j).abs() / sl.client_energy_j;
        assert!(
            rel < 0.02,
            "sl {} vs gsfl {}",
            sl.client_energy_j,
            gsfl.client_energy_j
        );
        assert!(sl.client_energy_j > 0.0);
    }

    #[test]
    fn fl_energy_scales_with_local_epochs() {
        let (latency, costs) = fixture(4);
        let steps = vec![3usize; 4];
        let one = fl_round(&latency, &costs, &steps, 1, 0).unwrap();
        let three = fl_round(&latency, &costs, &steps, 3, 0).unwrap();
        assert!(three.client_energy_j > one.client_energy_j);
        // Comms are identical, so the delta is pure compute energy.
        assert!(three.client_energy_j < 3.0 * one.client_energy_j);
    }

    #[test]
    fn energy_is_affine_in_steps() {
        // energy(s) = fixed_relay_overhead + s * per_step, so equal step
        // increments add equal energy increments.
        let (latency, costs) = fixture(3);
        let order: Vec<usize> = (0..3).collect();
        let at = |steps: usize| {
            sl_round(
                &latency,
                &costs,
                &[steps; 3],
                &order,
                ChannelMode::Dedicated,
                0,
            )
            .unwrap()
            .client_energy_j
        };
        let (e1, e2, e4) = (at(1), at(2), at(4));
        assert!(e2 > e1 && e4 > e2);
        let per_step = e2 - e1;
        assert!(
            (e4 - e2 - 2.0 * per_step).abs() < 1e-6 * e4,
            "not affine: e1={e1} e2={e2} e4={e4}"
        );
    }
}
