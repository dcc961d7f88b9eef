//! Serde-loadable wireless scenarios.
//!
//! A [`Scenario`] names a wireless environment shape — the static cell,
//! one or more overlays from [`crate::environment`], several APs, or a
//! replayed trace — with its parameters, serializes cleanly inside
//! experiment configs, and builds the matching [`ChannelModel`] over any
//! base [`LatencyModel`]. Every preset but `trace_replay` is one
//! [`RadioEnvironment`] builder chain.
//!
//! [`Scenario::presets`] lists the 17 ready-made presets the
//! scenario-sweep tooling iterates: `static`, `mobility`, `diurnal`,
//! `congested`, `stragglers`, `dropouts`, `interference`, `narrowband`,
//! `crowded_cell`, `multi_ap`, `hierarchical`, `adaptive_cut`,
//! `trace_replay`, `orchestrated`, `composite`, `lossy_uplink`, `chaos`.

use crate::backhaul::BackhaulLink;
use crate::environment::{BandwidthProfile, ChannelModel, RadioEnvironment, StragglerInjector};
use crate::fault::{ApOutageSpec, FaultSpec, RetryPolicy};
use crate::interference::InterferenceSpec;
use crate::latency::LatencyModel;
use crate::mobility::RandomWaypoint;
use crate::multi_ap::HandoffKind;
use crate::trace::{ChannelTrace, Resample, TraceEnvironment};
use crate::Result;
use serde::{Deserialize, Serialize};

/// Parameters of the `mobility` scenario (random-waypoint drift).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MobilitySpec {
    /// Closest approach to the AP, meters.
    pub min_m: f64,
    /// Farthest excursion, meters.
    pub max_m: f64,
    /// Rounds spent travelling between consecutive waypoints.
    pub epoch_rounds: u64,
}

impl Default for MobilitySpec {
    fn default() -> Self {
        MobilitySpec {
            min_m: 20.0,
            max_m: 200.0,
            epoch_rounds: 10,
        }
    }
}

/// Parameters of the `diurnal` scenario (smooth bandwidth load cycle).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DiurnalSpec {
    /// Rounds per full day/night cycle.
    pub period_rounds: u64,
    /// Fraction of the band left at peak congestion, in `(0, 1]`.
    pub trough_frac: f64,
}

impl Default for DiurnalSpec {
    fn default() -> Self {
        DiurnalSpec {
            period_rounds: 20,
            trough_frac: 0.3,
        }
    }
}

/// Parameters of the `congested` scenario (random bandwidth spikes).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CongestionSpec {
    /// Per-round spike probability, in `[0, 1]`.
    pub probability: f64,
    /// Fraction of the band left during a spike, in `(0, 1]`.
    pub frac: f64,
}

impl Default for CongestionSpec {
    fn default() -> Self {
        CongestionSpec {
            probability: 0.3,
            frac: 0.25,
        }
    }
}

/// Parameters of the `stragglers` scenario (per-round compute slowdowns).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StragglerSpec {
    /// Per-client-round straggle probability, in `[0, 1]`.
    pub probability: f64,
    /// Compute-rate divisor while straggling (≥ 1).
    pub slowdown: f64,
}

impl Default for StragglerSpec {
    fn default() -> Self {
        StragglerSpec {
            probability: 0.25,
            slowdown: 4.0,
        }
    }
}

/// Parameters of the `dropouts` scenario (per-round radio dropouts).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DropoutSpec {
    /// Per-client-round dropout probability, in `[0, 1]`.
    pub probability: f64,
}

impl Default for DropoutSpec {
    fn default() -> Self {
        DropoutSpec { probability: 0.2 }
    }
}

impl From<DiurnalSpec> for BandwidthProfile {
    fn from(d: DiurnalSpec) -> Self {
        BandwidthProfile::Diurnal {
            period_rounds: d.period_rounds,
            trough_frac: d.trough_frac,
        }
    }
}

impl From<CongestionSpec> for BandwidthProfile {
    fn from(c: CongestionSpec) -> Self {
        BandwidthProfile::Spikes {
            probability: c.probability,
            frac: c.frac,
        }
    }
}

impl From<StragglerSpec> for StragglerInjector {
    fn from(s: StragglerSpec) -> Self {
        StragglerInjector {
            probability: s.probability,
            slowdown: s.slowdown,
        }
    }
}

/// Dropouts are the fault layer's round-start channel.
impl From<DropoutSpec> for FaultSpec {
    fn from(d: DropoutSpec) -> Self {
        FaultSpec {
            dropout_prob: d.probability,
            ..FaultSpec::default()
        }
    }
}

/// Parameters of the `narrowband` scenario: a permanently thin slice of
/// spectrum (licensing, a shared backhaul cap) — the regime where
/// payload compression trades accuracy for real airtime.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NarrowbandSpec {
    /// Fraction of the nominal band available, in `(0, 1]`.
    pub frac: f64,
}

impl Default for NarrowbandSpec {
    fn default() -> Self {
        NarrowbandSpec { frac: 0.1 }
    }
}

/// Parameters of the `crowded_cell` scenario: a narrow band *and*
/// co-channel interference between concurrent transmitters — the
/// worst-case airtime market where compressed payloads matter most.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CrowdedCellSpec {
    /// Fraction of the nominal band available, in `(0, 1]`.
    pub frac: f64,
    /// Co-channel interference between concurrent transmitters.
    pub interference: InterferenceSpec,
}

impl Default for CrowdedCellSpec {
    fn default() -> Self {
        CrowdedCellSpec {
            frac: 0.15,
            interference: InterferenceSpec { reuse_factor: 0.5 },
        }
    }
}

/// Parameters of the `multi_ap` scenario: several APs on a line, each
/// with its own edge server, mobility-driven re-association, and
/// optional cross-AP co-channel interference.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MultiApSpec {
    /// Number of APs, placed on a line through the origin.
    pub aps: usize,
    /// Spacing between neighbouring APs, meters.
    pub spacing_m: f64,
    /// The handoff policy deciding per-round associations.
    pub handoff: HandoffKind,
    /// Co-channel reuse factor across the fleet (0 disables
    /// interference).
    pub reuse_factor: f64,
    /// Optional random-waypoint roaming (drives handoffs); `None` keeps
    /// clients at their placement radii.
    pub mobility: Option<MobilitySpec>,
    /// Optional AP→aggregator backhaul pricing. `None` (the default, and
    /// what the plain `multi_ap` preset uses) keeps the backhaul free —
    /// the historical single-tier behavior.
    #[serde(default)]
    pub backhaul: Option<BackhaulLink>,
}

impl Default for MultiApSpec {
    fn default() -> Self {
        MultiApSpec {
            aps: 3,
            spacing_m: 150.0,
            handoff: HandoffKind::Hysteresis { margin_db: 3.0 },
            reuse_factor: 0.1,
            mobility: Some(MobilitySpec {
                min_m: 20.0,
                max_m: 320.0,
                epoch_rounds: 8,
            }),
            backhaul: None,
        }
    }
}

impl MultiApSpec {
    /// The `hierarchical` preset parameters: the `multi_ap` topology with
    /// the AP→aggregator backhaul priced, so two-tier tree aggregation
    /// pays for its second hop.
    pub fn hierarchical() -> Self {
        MultiApSpec {
            backhaul: Some(BackhaulLink::default()),
            ..MultiApSpec::default()
        }
    }
}

/// Parameters of the `adaptive_cut` scenario: the contested, fast-moving
/// environment the adaptive cut-selection studies run against — a deep
/// diurnal bandwidth cycle, strong co-channel interference, and compute
/// stragglers, so the latency-optimal cut genuinely shifts from round to
/// round.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AdaptiveCutSpec {
    /// Diurnal bandwidth cycle (short and deep by default).
    pub diurnal: DiurnalSpec,
    /// Co-channel interference between concurrent transmitters.
    pub interference: InterferenceSpec,
    /// Compute straggler injection.
    pub stragglers: StragglerSpec,
}

impl Default for AdaptiveCutSpec {
    fn default() -> Self {
        AdaptiveCutSpec {
            diurnal: DiurnalSpec {
                period_rounds: 6,
                trough_frac: 0.2,
            },
            interference: InterferenceSpec { reuse_factor: 0.6 },
            stragglers: StragglerSpec {
                probability: 0.3,
                slowdown: 4.0,
            },
        }
    }
}

/// Parameters of the `trace_replay` scenario: the bundled
/// diurnal-cellular [`ChannelTrace`] replayed over the base model (see
/// [`crate::trace`]). Arbitrary trace files load through
/// [`TraceEnvironment::new`] directly.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TraceReplaySpec {
    /// How values between trace samples are reconstructed.
    pub resample: Resample,
    /// Seconds of trace time one training round advances.
    pub round_s: f64,
}

impl Default for TraceReplaySpec {
    fn default() -> Self {
        TraceReplaySpec {
            resample: Resample::Hold,
            round_s: 30.0,
        }
    }
}

/// Parameters of the `orchestrated` scenario: the crowded cell the
/// orchestrator studies run against — congestion that *swings* from
/// round to round (a short, deep diurnal cycle) on top of co-channel
/// interference, compute stragglers and radio dropouts, so the jointly
/// optimal cut/codec/share decision genuinely moves every few rounds.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OrchestratedSpec {
    /// Diurnal bandwidth cycle (short and deep by default).
    pub diurnal: DiurnalSpec,
    /// Co-channel interference between concurrent transmitters.
    pub interference: InterferenceSpec,
    /// Compute straggler injection.
    pub stragglers: StragglerSpec,
    /// Radio dropout injection.
    pub dropouts: DropoutSpec,
}

impl Default for OrchestratedSpec {
    fn default() -> Self {
        OrchestratedSpec {
            diurnal: DiurnalSpec {
                period_rounds: 5,
                trough_frac: 0.1,
            },
            interference: InterferenceSpec { reuse_factor: 0.6 },
            stragglers: StragglerSpec {
                probability: 0.3,
                slowdown: 4.0,
            },
            dropouts: DropoutSpec { probability: 0.1 },
        }
    }
}

/// Parameters of the `lossy_uplink` scenario: a link that loses
/// transfers, so every hop pays retry/backoff airtime — the regime
/// where the fault layer's wire pricing bites without any other
/// impairment in the way.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LossyUplinkSpec {
    /// Per-attempt transfer loss probability, in `[0, 1)`.
    pub loss_prob: f64,
    /// Retransmission pricing for lost attempts.
    pub retry: RetryPolicy,
}

impl Default for LossyUplinkSpec {
    fn default() -> Self {
        LossyUplinkSpec {
            loss_prob: 0.15,
            retry: RetryPolicy::default(),
        }
    }
}

/// Parameters of the `chaos` scenario: every fault axis at once —
/// transfer loss, mid-compute crashes, round-start dropouts, AP outage
/// windows — on top of compute stragglers. The robustness stress case:
/// schemes must survive (deadlines, quorum aggregation, relay re-routes,
/// backup cohorts) and still converge.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChaosSpec {
    /// The full fault model (loss, crashes, dropouts, AP outages).
    pub faults: FaultSpec,
    /// Compute straggler injection.
    pub stragglers: StragglerSpec,
}

impl Default for ChaosSpec {
    fn default() -> Self {
        ChaosSpec {
            faults: FaultSpec {
                loss_prob: 0.1,
                crash_prob: 0.05,
                dropout_prob: 0.1,
                ap_outage: Some(ApOutageSpec {
                    probability: 0.02,
                    duration_rounds: 2,
                }),
                retry: RetryPolicy::default(),
            },
            stragglers: StragglerSpec {
                probability: 0.2,
                slowdown: 3.0,
            },
        }
    }
}

/// A free-form composition of every overlay axis at once.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct CompositeSpec {
    /// Optional mobility overlay.
    pub mobility: Option<MobilitySpec>,
    /// Optional diurnal bandwidth overlay.
    pub diurnal: Option<DiurnalSpec>,
    /// Optional congestion-spike overlay (mutually exclusive with
    /// `diurnal`; setting both is rejected at build).
    pub congestion: Option<CongestionSpec>,
    /// Optional straggler overlay.
    pub stragglers: Option<StragglerSpec>,
    /// Optional dropout overlay.
    pub dropouts: Option<DropoutSpec>,
    /// Optional co-channel interference overlay.
    #[serde(default)]
    pub interference: Option<InterferenceSpec>,
}

impl CompositeSpec {
    /// The everything-at-once stress composite used as the `composite`
    /// preset: mobility, congestion spikes, stragglers, dropouts and
    /// interference together.
    pub fn stress() -> Self {
        CompositeSpec {
            mobility: Some(MobilitySpec::default()),
            diurnal: None,
            congestion: Some(CongestionSpec::default()),
            stragglers: Some(StragglerSpec::default()),
            dropouts: Some(DropoutSpec { probability: 0.1 }),
            interference: Some(InterferenceSpec { reuse_factor: 0.3 }),
        }
    }
}

/// A named, serializable wireless environment shape.
///
/// `Static` (the default) reproduces the pre-trait composed model
/// byte-for-byte; every other variant overlays one time-varying axis;
/// `Composite` combines several.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub enum Scenario {
    /// The always-the-same environment (fading still varies per round).
    #[default]
    Static,
    /// Random-waypoint mobility: path loss drifts as clients move.
    Mobility(MobilitySpec),
    /// Diurnal bandwidth: the band breathes with a day/night load cycle.
    Diurnal(DiurnalSpec),
    /// Congestion spikes: random rounds lose most of the band.
    Congested(CongestionSpec),
    /// Compute stragglers: random client-rounds run slowed down.
    Stragglers(StragglerSpec),
    /// Radio dropouts: random client-rounds are unreachable.
    Dropouts(DropoutSpec),
    /// Co-channel interference: concurrent transmitters degrade each
    /// other from SNR to SINR.
    Interference(InterferenceSpec),
    /// A permanently narrow band — the compression-study baseline.
    Narrowband(NarrowbandSpec),
    /// Narrow band plus co-channel interference — the contested airtime
    /// market where compressed payloads matter most.
    CrowdedCell(CrowdedCellSpec),
    /// Several APs / edge servers with mobility-driven handoffs.
    MultiAp(MultiApSpec),
    /// The multi-AP topology with the AP→aggregator backhaul priced —
    /// the environment the two-tier (hierarchical) aggregation studies
    /// run against.
    Hierarchical(MultiApSpec),
    /// The contested environment the adaptive cut-selection studies use
    /// (deep diurnal cycle + interference + stragglers).
    AdaptiveCut(AdaptiveCutSpec),
    /// The bundled diurnal-cellular trace replayed over the base model.
    TraceReplay(TraceReplaySpec),
    /// The orchestrated crowded cell: swinging congestion plus
    /// interference, stragglers and dropouts — what the orchestrator
    /// studies run against.
    Orchestrated(OrchestratedSpec),
    /// Several overlays at once.
    Composite(CompositeSpec),
    /// A lossy link: transfers drop and pay retry/backoff airtime.
    LossyUplink(LossyUplinkSpec),
    /// Every fault axis at once plus stragglers — the robustness stress
    /// case the fault-tolerance machinery is gated on.
    Chaos(ChaosSpec),
}

impl Scenario {
    /// The short name used in tables and file stems.
    pub fn name(&self) -> &'static str {
        match self {
            Scenario::Static => "static",
            Scenario::Mobility(_) => "mobility",
            Scenario::Diurnal(_) => "diurnal",
            Scenario::Congested(_) => "congested",
            Scenario::Stragglers(_) => "stragglers",
            Scenario::Dropouts(_) => "dropouts",
            Scenario::Interference(_) => "interference",
            Scenario::Narrowband(_) => "narrowband",
            Scenario::CrowdedCell(_) => "crowded_cell",
            Scenario::MultiAp(_) => "multi_ap",
            Scenario::Hierarchical(_) => "hierarchical",
            Scenario::AdaptiveCut(_) => "adaptive_cut",
            Scenario::TraceReplay(_) => "trace_replay",
            Scenario::Orchestrated(_) => "orchestrated",
            Scenario::Composite(_) => "composite",
            Scenario::LossyUplink(_) => "lossy_uplink",
            Scenario::Chaos(_) => "chaos",
        }
    }

    /// The ready-made presets, in sweep order: the static baseline, the
    /// single-axis time-varying environments, the contested-spectrum
    /// environments (interference, multi-AP, the adaptive-cut stress
    /// case), and the everything-at-once composite.
    pub fn presets() -> Vec<Scenario> {
        vec![
            Scenario::Static,
            Scenario::Mobility(MobilitySpec::default()),
            Scenario::Diurnal(DiurnalSpec::default()),
            Scenario::Congested(CongestionSpec::default()),
            Scenario::Stragglers(StragglerSpec::default()),
            Scenario::Dropouts(DropoutSpec::default()),
            Scenario::Interference(InterferenceSpec::default()),
            Scenario::Narrowband(NarrowbandSpec::default()),
            Scenario::CrowdedCell(CrowdedCellSpec::default()),
            Scenario::MultiAp(MultiApSpec::default()),
            Scenario::Hierarchical(MultiApSpec::hierarchical()),
            Scenario::AdaptiveCut(AdaptiveCutSpec::default()),
            Scenario::TraceReplay(TraceReplaySpec::default()),
            Scenario::Orchestrated(OrchestratedSpec::default()),
            Scenario::Composite(CompositeSpec::stress()),
            Scenario::LossyUplink(LossyUplinkSpec::default()),
            Scenario::Chaos(ChaosSpec::default()),
        ]
    }

    /// Looks up a preset by [`Scenario::name`].
    pub fn preset(name: &str) -> Option<Scenario> {
        Scenario::presets().into_iter().find(|s| s.name() == name)
    }

    /// Builds the environment this scenario describes over a base model:
    /// `trace_replay` replays the bundled trace, and every other preset is
    /// one [`RadioEnvironment`] builder chain. `seed` drives the
    /// stochastic overlays (waypoints, bearings, spikes, stragglers,
    /// faults).
    ///
    /// # Errors
    ///
    /// Returns [`crate::WirelessError::Config`] for out-of-range or
    /// non-finite parameters.
    pub fn build(&self, base: LatencyModel, seed: u64) -> Result<Box<dyn ChannelModel>> {
        if let Scenario::TraceReplay(t) = *self {
            return Ok(Box::new(TraceEnvironment::new(
                base,
                ChannelTrace::diurnal_cellular(),
                t.resample,
                t.round_s,
            )?));
        }
        let radio = RadioEnvironment::builder(base).seed(seed);
        let radio = match *self {
            // `TraceReplay` returned above.
            Scenario::Static | Scenario::TraceReplay(_) => radio,
            Scenario::Mobility(m) => radio.mobility(waypoints(m, seed)?),
            Scenario::Diurnal(d) => radio.bandwidth(d.into()),
            Scenario::Congested(c) => radio.bandwidth(c.into()),
            Scenario::Stragglers(s) => radio.stragglers(s.into()),
            Scenario::Dropouts(d) => radio.faults(d.into()),
            Scenario::Interference(spec) => radio.interference(spec),
            Scenario::Narrowband(n) => radio.bandwidth(BandwidthProfile::Scaled { frac: n.frac }),
            Scenario::CrowdedCell(c) => radio
                .bandwidth(BandwidthProfile::Scaled { frac: c.frac })
                .interference(c.interference),
            Scenario::MultiAp(m) | Scenario::Hierarchical(m) => {
                // A zero reuse factor is validated, then never heard.
                let mut radio = radio
                    .line(m.aps, m.spacing_m)?
                    .handoff_kind(m.handoff)?
                    .interference(InterferenceSpec {
                        reuse_factor: m.reuse_factor,
                    });
                if let Some(spec) = m.mobility {
                    radio = radio.mobility(waypoints(spec, seed)?);
                }
                if let Some(link) = m.backhaul {
                    radio = radio.backhaul(link);
                }
                radio
            }
            Scenario::AdaptiveCut(a) => radio
                .bandwidth(a.diurnal.into())
                .interference(a.interference)
                .stragglers(a.stragglers.into()),
            Scenario::Orchestrated(o) => radio
                .bandwidth(o.diurnal.into())
                .interference(o.interference)
                .stragglers(o.stragglers.into())
                .faults(o.dropouts.into()),
            Scenario::Composite(c) => {
                if c.diurnal.is_some() && c.congestion.is_some() {
                    return Err(crate::WirelessError::Config(
                        "composite scenario cannot combine diurnal and congestion \
                         bandwidth overlays — pick one"
                            .into(),
                    ));
                }
                let mut radio = radio;
                if let Some(m) = c.mobility {
                    radio = radio.mobility(waypoints(m, seed)?);
                }
                if let Some(d) = c.diurnal {
                    radio = radio.bandwidth(d.into());
                } else if let Some(s) = c.congestion {
                    radio = radio.bandwidth(s.into());
                }
                if let Some(s) = c.stragglers {
                    radio = radio.stragglers(s.into());
                }
                if let Some(d) = c.dropouts {
                    radio = radio.faults(d.into());
                }
                if let Some(i) = c.interference {
                    radio = radio.interference(i);
                }
                radio
            }
            Scenario::LossyUplink(l) => radio.faults(FaultSpec {
                loss_prob: l.loss_prob,
                retry: l.retry,
                ..FaultSpec::default()
            }),
            Scenario::Chaos(c) => radio.faults(c.faults).stragglers(c.stragglers.into()),
        };
        Ok(Box::new(radio.build()?))
    }
}

fn waypoints(m: MobilitySpec, seed: u64) -> Result<RandomWaypoint> {
    // NaN fails every comparison, so it is rejected here too.
    if !(m.min_m > 0.0 && m.min_m <= m.max_m && m.max_m.is_finite()) {
        return Err(crate::WirelessError::Config(format!(
            "mobility annulus must satisfy 0 < min_m ≤ max_m < ∞, got [{}, {}]",
            m.min_m, m.max_m
        )));
    }
    if m.epoch_rounds == 0 {
        return Err(crate::WirelessError::Config(
            "mobility epoch_rounds must be ≥ 1".into(),
        ));
    }
    Ok(RandomWaypoint {
        min_m: m.min_m,
        max_m: m.max_m,
        epoch_rounds: m.epoch_rounds,
        seed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::environment::Direction;
    use crate::fault::FaultInjector;
    use crate::units::{Bytes, Hertz, Seconds};
    use gsfl_tensor::rng::SeedDerive;

    /// Client 0's uplink time for `payload` in `round` at `share`,
    /// against `concurrent`, from a fresh snapshot.
    fn uplink(
        env: &dyn ChannelModel,
        payload: Bytes,
        round: u64,
        share: Hertz,
        concurrent: &[usize],
    ) -> Seconds {
        let cond = env.conditions(round).unwrap();
        env.link(&cond, 0, Direction::Uplink, share, concurrent)
            .unwrap()
            .time(payload)
            .unwrap()
    }

    /// Client 0's time for a GFLOP of local work in round 0.
    /// Asserts that a concurrent transmitter slows client 0's uplink —
    /// the environment prices co-channel interference.
    fn assert_interferes(env: &dyn ChannelModel) {
        let (payload, share) = (Bytes::new(100_000), Hertz::from_mhz(1.0));
        let alone = uplink(env, payload, 0, share, &[]);
        let contended = uplink(env, payload, 0, share, &[1]);
        assert!(contended > alone, "{contended:?} vs {alone:?}");
    }

    fn gflop_time(env: &dyn ChannelModel) -> Seconds {
        env.client_conditions(0, 0)
            .unwrap()
            .compute_time(1_000_000_000)
    }

    fn base() -> LatencyModel {
        LatencyModel::builder().clients(3).seed(2).build().unwrap()
    }

    #[test]
    fn presets_cover_every_axis_once() {
        let presets = Scenario::presets();
        assert_eq!(presets.len(), 17);
        let names: Vec<&str> = presets.iter().map(Scenario::name).collect();
        assert_eq!(
            names,
            vec![
                "static",
                "mobility",
                "diurnal",
                "congested",
                "stragglers",
                "dropouts",
                "interference",
                "narrowband",
                "crowded_cell",
                "multi_ap",
                "hierarchical",
                "adaptive_cut",
                "trace_replay",
                "orchestrated",
                "composite",
                "lossy_uplink",
                "chaos"
            ]
        );
        for name in names {
            assert_eq!(Scenario::preset(name).unwrap().name(), name);
        }
        assert!(Scenario::preset("nope").is_none());
    }

    #[test]
    fn every_preset_builds_and_answers_queries() {
        for scenario in Scenario::presets() {
            let env = scenario.build(base(), 7).unwrap();
            let share = Hertz::from_mhz(1.0);
            for round in 0..4u64 {
                let t = uplink(env.as_ref(), Bytes::new(10_000), round, share, &[]);
                assert!(t.as_secs_f64() > 0.0, "{}", scenario.name());
                let cond = env.conditions(round).unwrap();
                assert_eq!(cond.clients.len(), 3, "{}", scenario.name());
            }
        }
    }

    #[test]
    fn static_build_is_static_environment() {
        let env = Scenario::Static.build(base(), 0).unwrap();
        assert_eq!(env.total_bandwidth(0), env.total_bandwidth(99));
        assert_eq!(env.distance(0, 0).unwrap(), env.distance(0, 99).unwrap());
    }

    #[test]
    fn composite_combines_axes() {
        let scenario = Scenario::Composite(CompositeSpec {
            mobility: Some(MobilitySpec::default()),
            diurnal: Some(DiurnalSpec {
                period_rounds: 10,
                trough_frac: 0.5,
            }),
            congestion: None,
            stragglers: Some(StragglerSpec {
                probability: 1.0,
                slowdown: 2.0,
            }),
            dropouts: None,
            interference: None,
        });
        let env = scenario.build(base(), 3).unwrap();
        assert!(env.total_bandwidth(5).as_hz() < env.total_bandwidth(0).as_hz());
        assert_ne!(env.distance(0, 0).unwrap(), env.distance(0, 7).unwrap());
        let slow = gflop_time(env.as_ref());
        let fast = gflop_time(&RadioEnvironment::builder(base()).build().unwrap());
        assert!(slow.as_secs_f64() > fast.as_secs_f64());
    }

    #[test]
    fn scenario_serializes_and_round_trips() {
        for scenario in Scenario::presets() {
            let json = serde_json::to_string(&scenario).unwrap();
            let back: Scenario = serde_json::from_str(&json).unwrap();
            assert_eq!(back, scenario, "{json}");
        }
        let composite = Scenario::Composite(CompositeSpec {
            stragglers: Some(StragglerSpec::default()),
            ..CompositeSpec::default()
        });
        let json = serde_json::to_string(&composite).unwrap();
        let back: Scenario = serde_json::from_str(&json).unwrap();
        assert_eq!(back, composite);
    }

    #[test]
    fn mobility_parameters_validated_at_build() {
        let inverted = Scenario::Mobility(MobilitySpec {
            min_m: 200.0,
            max_m: 20.0,
            epoch_rounds: 10,
        });
        assert!(inverted.build(base(), 0).is_err());
        let zero_epoch = Scenario::Mobility(MobilitySpec {
            epoch_rounds: 0,
            ..MobilitySpec::default()
        });
        assert!(zero_epoch.build(base(), 0).is_err());
    }

    #[test]
    fn composite_rejects_conflicting_bandwidth_overlays() {
        let conflicting = Scenario::Composite(CompositeSpec {
            diurnal: Some(DiurnalSpec::default()),
            congestion: Some(CongestionSpec::default()),
            ..CompositeSpec::default()
        });
        assert!(conflicting.build(base(), 0).is_err());
    }

    #[test]
    fn bad_parameters_rejected_at_build() {
        let bad = Scenario::Stragglers(StragglerSpec {
            probability: 2.0,
            slowdown: 2.0,
        });
        assert!(bad.build(base(), 0).is_err());
        let bad = Scenario::Diurnal(DiurnalSpec {
            period_rounds: 5,
            trough_frac: -0.5,
        });
        assert!(bad.build(base(), 0).is_err());
        let bad = Scenario::Interference(InterferenceSpec { reuse_factor: 1.5 });
        assert!(bad.build(base(), 0).is_err());
        let bad = Scenario::MultiAp(MultiApSpec {
            aps: 0,
            ..MultiApSpec::default()
        });
        assert!(bad.build(base(), 0).is_err());
        // A negative/NaN reuse factor must fail loudly, not silently
        // disable interference (same knob as the interference preset).
        let bad = Scenario::MultiAp(MultiApSpec {
            reuse_factor: -0.5,
            ..MultiApSpec::default()
        });
        assert!(bad.build(base(), 0).is_err());
        let bad = Scenario::MultiAp(MultiApSpec {
            reuse_factor: f64::NAN,
            ..MultiApSpec::default()
        });
        assert!(bad.build(base(), 0).is_err());
    }

    #[test]
    fn interference_preset_pays_for_concurrency() {
        let env = Scenario::Interference(InterferenceSpec { reuse_factor: 0.8 })
            .build(base(), 1)
            .unwrap();
        let share = Hertz::from_mhz(1.0);
        let clean = uplink(env.as_ref(), Bytes::new(50_000), 0, share, &[]);
        let contested = uplink(env.as_ref(), Bytes::new(50_000), 0, share, &[1, 2]);
        assert!(contested.as_secs_f64() > clean.as_secs_f64());
    }

    #[test]
    fn multi_ap_preset_exposes_topology() {
        let env = Scenario::MultiAp(MultiApSpec::default())
            .build(base(), 2)
            .unwrap();
        assert_eq!(env.ap_count(), 3);
        let cond = env.conditions(0).unwrap();
        assert!(cond.clients.iter().all(|c| c.ap < 3));
        // With a greedy handoff policy, roaming clients change APs.
        let greedy = Scenario::MultiAp(MultiApSpec {
            handoff: HandoffKind::BestSinr,
            ..MultiApSpec::default()
        })
        .build(base(), 2)
        .unwrap();
        let mut moved = false;
        'outer: for c in 0..3 {
            let first = greedy.ap_of(c, 0).unwrap();
            for r in 1..60u64 {
                if greedy.ap_of(c, r).unwrap() != first {
                    moved = true;
                    break 'outer;
                }
            }
        }
        assert!(moved, "multi_ap roaming must produce handoffs");
    }

    #[test]
    fn hierarchical_preset_prices_the_backhaul() {
        let env = Scenario::Hierarchical(MultiApSpec::hierarchical())
            .build(base(), 2)
            .unwrap();
        assert_eq!(env.ap_count(), 3);
        for ap in 0..3 {
            let link = env.backhaul(ap).expect("hierarchical preset has backhaul");
            assert!(link.transfer_time(Bytes::new(1 << 20)).as_secs_f64() > 0.0);
        }
        // The plain multi_ap preset keeps the backhaul free (golden runs
        // must not change).
        let flat = Scenario::MultiAp(MultiApSpec::default())
            .build(base(), 2)
            .unwrap();
        assert!(flat.backhaul(0).is_none());
        // Bad link parameters fail at build.
        let bad = Scenario::Hierarchical(MultiApSpec {
            backhaul: Some(BackhaulLink {
                capacity_bps: -1.0,
                latency_s: 0.0,
            }),
            ..MultiApSpec::hierarchical()
        });
        assert!(bad.build(base(), 0).is_err());
    }

    #[test]
    fn narrowband_presets_shrink_the_band() {
        let narrow = Scenario::Narrowband(NarrowbandSpec { frac: 0.1 })
            .build(base(), 0)
            .unwrap();
        let nominal = RadioEnvironment::builder(base()).build().unwrap();
        for round in 0..4u64 {
            let got = narrow.total_bandwidth(round).as_hz();
            let want = nominal.total_bandwidth(round).as_hz() * 0.1;
            assert!((got - want).abs() < 1e-6, "round {round}: {got} vs {want}");
        }
        let crowded = Scenario::CrowdedCell(CrowdedCellSpec::default())
            .build(base(), 0)
            .unwrap();
        assert!(crowded.total_bandwidth(0).as_hz() < nominal.total_bandwidth(0).as_hz());
        assert_interferes(crowded.as_ref());
        // Out-of-range fractions fail loudly.
        assert!(Scenario::Narrowband(NarrowbandSpec { frac: 0.0 })
            .build(base(), 0)
            .is_err());
        assert!(Scenario::CrowdedCell(CrowdedCellSpec {
            frac: 1.5,
            ..CrowdedCellSpec::default()
        })
        .build(base(), 0)
        .is_err());
    }

    #[test]
    fn trace_replay_preset_replays_the_bundled_trace() {
        let env = Scenario::TraceReplay(TraceReplaySpec::default())
            .build(base(), 0)
            .unwrap();
        let share = Hertz::from_mhz(1.0);
        // The diurnal wave makes congestion-peak rounds slower than the
        // off-peak start (round_s 30 s × 12 rounds = the 360 s trough).
        let off_peak = uplink(env.as_ref(), Bytes::new(100_000), 0, share, &[]).as_secs_f64();
        let peak = uplink(env.as_ref(), Bytes::new(100_000), 12, share, &[]).as_secs_f64();
        assert!(peak > off_peak, "peak {peak} vs off-peak {off_peak}");
        // Bad parameters fail at build.
        assert!(Scenario::TraceReplay(TraceReplaySpec {
            round_s: 0.0,
            ..TraceReplaySpec::default()
        })
        .build(base(), 0)
        .is_err());
    }

    #[test]
    fn orchestrated_preset_swings_every_axis() {
        let env = Scenario::Orchestrated(OrchestratedSpec::default())
            .build(base(), 3)
            .unwrap();
        assert_interferes(env.as_ref());
        // The short diurnal cycle bites within a handful of rounds.
        assert!(env.total_bandwidth(2).as_hz() < env.total_bandwidth(0).as_hz());
        // Dropouts are live somewhere in a long horizon.
        let mut dropped = false;
        for round in 0..60u64 {
            for c in 0..3 {
                dropped |= !env.is_available(c, round);
            }
        }
        assert!(dropped, "p=0.1 dropouts over 180 samples must fire");
        assert!(Scenario::Orchestrated(OrchestratedSpec {
            dropouts: DropoutSpec { probability: 2.0 },
            ..OrchestratedSpec::default()
        })
        .build(base(), 0)
        .is_err());
    }

    #[test]
    fn lossy_uplink_preset_prices_retries() {
        let env = Scenario::LossyUplink(LossyUplinkSpec::default())
            .build(base(), 5)
            .unwrap();
        // Losses fire somewhere over a long horizon, and the priced time
        // grows accordingly.
        let mut retried = false;
        for round in 0..20u64 {
            for c in 0..3 {
                let o = env.transfer_outcome(c, round, 0);
                assert_eq!(o, env.transfer_outcome(c, round, 0), "deterministic");
                retried |= o.attempts > 1;
            }
        }
        assert!(retried, "p=0.15 over 60 transfers must retry");
        // No other impairment: everyone is reachable, nobody crashes.
        assert!(env.is_available(0, 0));
        assert_eq!(env.crash_point(0, 0), None);
        // Bad parameters fail at build.
        assert!(Scenario::LossyUplink(LossyUplinkSpec {
            loss_prob: 1.0,
            ..LossyUplinkSpec::default()
        })
        .build(base(), 0)
        .is_err());
    }

    #[test]
    fn chaos_preset_fires_every_fault_axis() {
        let env = Scenario::Chaos(ChaosSpec::default())
            .build(base(), 3)
            .unwrap();
        // The environment's own fault stream, read directly for the AP
        // outage windows.
        let faults = FaultInjector::new(
            ChaosSpec::default().faults,
            SeedDerive::new(3).child("environment"),
        )
        .unwrap();
        let (mut lost, mut crashed, mut dropped, mut outage) = (false, false, false, false);
        for round in 0..300u64 {
            if !faults.ap_online(0, round) {
                outage = true;
                for c in 0..3 {
                    assert!(!env.is_available(c, round), "a dark AP takes its clients");
                }
            }
            for c in 0..3 {
                lost |= env.transfer_outcome(c, round, 0).attempts > 1;
                crashed |= env.crash_point(c, round).is_some();
                dropped |= !env.is_available(c, round);
            }
        }
        assert!(lost, "chaos must lose transfers");
        assert!(crashed, "chaos must crash clients");
        assert!(dropped, "chaos must drop clients");
        assert!(outage, "chaos must take the AP dark");
        // Stragglers ride along.
        let slow = gflop_time(env.as_ref());
        let fast = gflop_time(&RadioEnvironment::builder(base()).build().unwrap());
        assert!(slow.as_secs_f64() >= fast.as_secs_f64());
        assert!(Scenario::Chaos(ChaosSpec {
            faults: FaultSpec {
                crash_prob: 2.0,
                ..FaultSpec::default()
            },
            ..ChaosSpec::default()
        })
        .build(base(), 0)
        .is_err());
    }

    #[test]
    fn adaptive_cut_preset_is_contested() {
        let env = Scenario::AdaptiveCut(AdaptiveCutSpec::default())
            .build(base(), 3)
            .unwrap();
        assert_interferes(env.as_ref());
        // The diurnal trough bites mid-period.
        assert!(env.total_bandwidth(3).as_hz() < env.total_bandwidth(0).as_hz());
    }
}
