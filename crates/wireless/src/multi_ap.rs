//! Multi-AP environments: several access points / edge servers, mobility
//! driven re-association, and co-channel interference across the fleet.
//!
//! [`MultiApEnvironment`] generalizes the single-AP world of
//! [`crate::environment::StaticEnvironment`]:
//!
//! * **Geometry** — APs sit at fixed 2D positions; each client keeps the
//!   deterministic bearing the environment seed assigned it and moves
//!   radially per the configured [`Mobility`] model, so the same mobility
//!   processes that drive single-AP path-loss drift here drive handoffs.
//! * **Association** — a [`HandoffPolicy`] picks each client's serving AP
//!   every round ([`NearestAp`], [`BestSinr`], or [`Hysteresis`] with a
//!   switching margin). Decisions are a deterministic recurrence over
//!   rounds (memoized internally), so runs reproduce for a fixed seed.
//! * **Per-AP servers** — every AP carries its own [`EdgeServer`]; the
//!   discrete-event round simulation contends server-side work per AP
//!   through [`ChannelModel::server_at`] / [`ChannelModel::ap_of`].
//! * **Interference** — concurrent uplink transmitters are heard at the
//!   victim's serving AP, and concurrent downlinks from the APs serving
//!   their receivers, through the same path-loss pipeline as the signal,
//!   scaled by the [`InterferenceSpec`] reuse factor. With interference
//!   on, each round's snapshot carries every client's path to every AP
//!   ([`RoundConditions::ap_paths`]).
//!
//! **Degenerate case, guaranteed:** one AP at the origin, no interference
//! and stationary (or any) mobility reproduces the single-AP environment
//! **byte for byte** — distances to an AP at the origin are the mobility
//! radii themselves, not a 2D round trip through `sqrt`.

use crate::backhaul::BackhaulLink;
use crate::energy::PowerProfile;
use crate::environment::{
    radio_conditions, radio_link, ApPath, ChannelModel, ClientConditions, Direction, Link,
    RoundConditions,
};
use crate::interference::InterferenceSpec;
use crate::latency::LatencyModel;
use crate::mobility::{Mobility, Stationary};
use crate::server::EdgeServer;
use crate::units::{Hertz, Meters, Seconds};
use crate::{Result, WirelessError};
use gsfl_tensor::rng::SeedDerive;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::sync::RwLock;

/// One access point with its co-located edge server.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccessPoint {
    /// AP x coordinate, meters.
    pub x_m: f64,
    /// AP y coordinate, meters.
    pub y_m: f64,
    /// The edge server co-located with this AP.
    pub server: EdgeServer,
}

impl AccessPoint {
    fn at_origin(&self) -> bool {
        self.x_m == 0.0 && self.y_m == 0.0
    }
}

/// What a handoff policy sees about one candidate AP.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ApSignal {
    /// Candidate AP index.
    pub ap: usize,
    /// Client–AP distance this round.
    pub distance: Meters,
    /// Received pilot power at the client from this AP, dBm (path loss
    /// plus the client's current fading state).
    pub rx_power_dbm: f64,
}

/// Decides which AP a client associates with each round.
///
/// Implementations must be pure functions of their inputs — the
/// environment memoizes the round-by-round recurrence, so a policy that
/// consulted hidden mutable state would break determinism.
pub trait HandoffPolicy: std::fmt::Debug + Send + Sync {
    /// Picks the serving AP for `client` in `round`. `current` is the
    /// previous round's association (`None` in round 0); `candidates`
    /// always contains every AP, in index order.
    fn choose(
        &self,
        client: usize,
        round: u64,
        current: Option<usize>,
        candidates: &[ApSignal],
    ) -> usize;
}

/// Associate with the geometrically nearest AP (ties go to the lowest
/// index). Ping-pongs at cell edges under mobility.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NearestAp;

impl HandoffPolicy for NearestAp {
    fn choose(&self, _c: usize, _r: u64, _cur: Option<usize>, candidates: &[ApSignal]) -> usize {
        best_by(candidates, |s| -s.distance.as_meters())
    }
}

/// Associate with the AP offering the strongest received power — the
/// best-SINR choice when interference is homogeneous across APs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BestSinr;

impl HandoffPolicy for BestSinr {
    fn choose(&self, _c: usize, _r: u64, _cur: Option<usize>, candidates: &[ApSignal]) -> usize {
        best_by(candidates, |s| s.rx_power_dbm)
    }
}

/// [`BestSinr`] with a switching margin: stay on the current AP unless a
/// candidate is at least `margin_db` stronger — the standard cure for
/// cell-edge ping-pong.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Hysteresis {
    /// Required advantage (dB) before switching away from the serving AP.
    pub margin_db: f64,
}

impl HandoffPolicy for Hysteresis {
    fn choose(&self, _c: usize, _r: u64, current: Option<usize>, candidates: &[ApSignal]) -> usize {
        let best = best_by(candidates, |s| s.rx_power_dbm);
        let Some(cur) = current else {
            return best;
        };
        let cur_db = candidates[cur].rx_power_dbm;
        if candidates[best].rx_power_dbm >= cur_db + self.margin_db {
            best
        } else {
            cur
        }
    }
}

fn best_by(candidates: &[ApSignal], score: impl Fn(&ApSignal) -> f64) -> usize {
    let mut best = 0usize;
    let mut best_score = f64::NEG_INFINITY;
    for (i, s) in candidates.iter().enumerate() {
        let v = score(s);
        if v > best_score {
            best = i;
            best_score = v;
        }
    }
    best
}

/// Serde-loadable handoff policy names (for [`crate::scenario::Scenario`]
/// presets).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum HandoffKind {
    /// Geometrically nearest AP.
    Nearest,
    /// Strongest received power.
    BestSinr,
    /// Strongest received power with a switching margin in dB.
    Hysteresis {
        /// Required advantage (dB) before switching.
        margin_db: f64,
    },
}

impl HandoffKind {
    /// Builds the policy object.
    pub fn policy(&self) -> Box<dyn HandoffPolicy> {
        match *self {
            HandoffKind::Nearest => Box::new(NearestAp),
            HandoffKind::BestSinr => Box::new(BestSinr),
            HandoffKind::Hysteresis { margin_db } => Box::new(Hysteresis { margin_db }),
        }
    }
}

/// A wireless environment with several APs / edge servers (see the module
/// docs). Built via [`MultiApEnvironment::builder`].
#[derive(Debug)]
pub struct MultiApEnvironment {
    base: LatencyModel,
    aps: Vec<AccessPoint>,
    mobility: Box<dyn Mobility>,
    handoff: Box<dyn HandoffPolicy>,
    interference: Option<InterferenceSpec>,
    backhaul: Option<BackhaulLink>,
    /// Per-client bearing from the origin (radians); the mobility model
    /// supplies the radius.
    angles: Vec<f64>,
    /// Memoized associations: `assoc[round][client]`, filled in round
    /// order so the handoff recurrence is deterministic.
    assoc: RwLock<Vec<Vec<usize>>>,
}

/// Builder for [`MultiApEnvironment`].
#[derive(Debug)]
pub struct MultiApEnvironmentBuilder {
    base: LatencyModel,
    aps: Vec<AccessPoint>,
    mobility: Box<dyn Mobility>,
    handoff: Box<dyn HandoffPolicy>,
    interference: Option<InterferenceSpec>,
    backhaul: Option<BackhaulLink>,
    seed: u64,
}

impl MultiApEnvironment {
    /// Starts a builder over a base latency model. With no further calls
    /// the result is a single AP at the origin carrying the base model's
    /// server — byte-identical to
    /// [`crate::environment::StaticEnvironment`].
    pub fn builder(base: LatencyModel) -> MultiApEnvironmentBuilder {
        let server = *base.server();
        MultiApEnvironmentBuilder {
            base,
            aps: vec![AccessPoint {
                x_m: 0.0,
                y_m: 0.0,
                server,
            }],
            mobility: Box::new(Stationary),
            handoff: Box::new(NearestAp),
            interference: None,
            backhaul: None,
            seed: 0,
        }
    }

    /// The client's radial distance from the origin this round (the
    /// mobility model over the placement radius).
    fn radius(&self, client: usize, round: u64) -> Result<Meters> {
        let placed = self.base.distance(client)?;
        Ok(self.mobility.distance_at(client, placed, round))
    }

    /// Distance from `client` to AP `ap` this round. An AP at the origin
    /// sees exactly the mobility radius (no 2D round trip), which is what
    /// makes the single-AP case bit-identical to the single-AP
    /// environments.
    fn distance_to_ap(&self, client: usize, ap: usize, round: u64) -> Result<Meters> {
        let r = self.radius(client, round)?;
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

    /// The configured APs.
    pub fn aps(&self) -> &[AccessPoint] {
        &self.aps
    }
}

impl MultiApEnvironmentBuilder {
    /// Places `n` APs on a line along the x axis with `spacing_m` between
    /// neighbours, centered so a single AP sits exactly at the origin.
    /// Every AP carries a clone of the base model's edge server.
    ///
    /// # Errors
    ///
    /// Returns [`WirelessError::Config`] for zero APs or non-positive
    /// spacing with more than one AP.
    pub fn line(mut self, n: usize, spacing_m: f64) -> Result<Self> {
        if n == 0 {
            return Err(WirelessError::Config("need at least one AP".into()));
        }
        if n > 1 && spacing_m <= 0.0 {
            return Err(WirelessError::Config(format!(
                "AP spacing must be > 0, got {spacing_m}"
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

    /// Sets the mobility model driving re-association.
    pub fn mobility(mut self, m: impl Mobility + 'static) -> Self {
        self.mobility = Box::new(m);
        self
    }

    /// Sets the handoff policy.
    pub fn handoff(mut self, p: impl HandoffPolicy + 'static) -> Self {
        self.handoff = Box::new(p);
        self
    }

    /// Sets the handoff policy from a serde-loadable kind.
    pub fn handoff_kind(mut self, k: HandoffKind) -> Self {
        self.handoff = k.policy();
        self
    }

    /// Enables co-channel interference.
    pub fn interference(mut self, spec: InterferenceSpec) -> Self {
        self.interference = Some(spec);
        self
    }

    /// Prices the AP→aggregator backhaul hop with `link` (every AP gets
    /// the same link profile). Without this call the backhaul is free —
    /// the historical single-tier behavior.
    pub fn backhaul(mut self, link: BackhaulLink) -> Self {
        self.backhaul = Some(link);
        self
    }

    /// Seeds the deterministic client bearings.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builds the environment.
    ///
    /// # Errors
    ///
    /// Returns [`WirelessError::Config`] for an invalid interference spec.
    pub fn build(self) -> Result<MultiApEnvironment> {
        if let Some(i) = self.interference {
            i.validate()?;
        }
        if let Some(b) = self.backhaul {
            b.validate()?;
        }
        let seeds = SeedDerive::new(self.seed).child("multi-ap-bearings");
        let angles = (0..self.base.client_count())
            .map(|c| {
                let mut rng = seeds.index(c as u64).rng();
                rng.gen::<f64>() * 2.0 * std::f64::consts::PI
            })
            .collect();
        Ok(MultiApEnvironment {
            base: self.base,
            aps: self.aps,
            mobility: self.mobility,
            handoff: self.handoff,
            interference: self.interference,
            backhaul: self.backhaul,
            angles,
            assoc: RwLock::new(Vec::new()),
        })
    }
}

impl ChannelModel for MultiApEnvironment {
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
        let ap = self.association(client, round)?;
        let distance = self.distance_to_ap(client, ap, round)?;
        let rate = self.base.device(client)?.rate();
        Ok(radio_conditions(
            &self.base, client, round, distance, rate, true, ap,
        ))
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

    fn link(
        &self,
        cond: &RoundConditions,
        client: usize,
        dir: Direction,
        share: Hertz,
        concurrent: &[usize],
    ) -> Result<Link> {
        radio_link(
            &self.base,
            self.interference,
            cond,
            client,
            dir,
            share,
            concurrent,
        )
    }

    fn server_compute(&self, flops: u64) -> Seconds {
        self.base.server_compute(flops)
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
    use crate::environment::StaticEnvironment;
    use crate::mobility::RandomWaypoint;
    use crate::units::FlopsRate;

    fn base(clients: usize) -> LatencyModel {
        LatencyModel::builder()
            .clients(clients)
            .seed(5)
            .build()
            .unwrap()
    }

    fn roaming(clients: usize, aps: usize) -> MultiApEnvironment {
        MultiApEnvironment::builder(base(clients))
            .line(aps, 150.0)
            .unwrap()
            .mobility(RandomWaypoint {
                min_m: 20.0,
                max_m: 300.0,
                epoch_rounds: 4,
                seed: 3,
            })
            .handoff(NearestAp)
            .seed(9)
            .build()
            .unwrap()
    }

    #[test]
    fn single_ap_is_bitwise_static_environment() {
        let multi = MultiApEnvironment::builder(base(4)).build().unwrap();
        let single = StaticEnvironment::new(base(4));
        for round in 0..6u64 {
            let cond = multi.conditions(round).unwrap();
            assert_eq!(cond, single.conditions(round).unwrap());
            for c in 0..4 {
                assert_eq!(
                    multi.distance(c, round).unwrap(),
                    single.distance(c, round).unwrap()
                );
                assert_eq!(multi.ap_of(c, round).unwrap(), 0);
            }
        }
        assert_eq!(multi.ap_count(), 1);
        assert_eq!(
            multi.server_compute(1_000_000),
            single.server_compute(1_000_000)
        );
    }

    #[test]
    fn mobility_drives_reassociation() {
        let env = roaming(6, 3);
        let mut handoffs = 0usize;
        for c in 0..6 {
            let mut prev = env.ap_of(c, 0).unwrap();
            for round in 1..40u64 {
                let ap = env.ap_of(c, round).unwrap();
                assert!(ap < 3);
                if ap != prev {
                    handoffs += 1;
                }
                prev = ap;
            }
        }
        assert!(handoffs > 0, "waypoint roaming must trigger handoffs");
    }

    #[test]
    fn associations_deterministic_regardless_of_query_order() {
        let a = roaming(4, 3);
        let b = roaming(4, 3);
        // Query b backwards, a forwards: memoized recurrence must agree.
        let rounds: Vec<u64> = (0..20).collect();
        let fwd: Vec<usize> = rounds
            .iter()
            .flat_map(|&r| (0..4).map(move |c| (c, r)))
            .map(|(c, r)| a.ap_of(c, r).unwrap())
            .collect();
        // Query b newest-round-first, then replay in forward order: the
        // memoized recurrence must give the same answers.
        for &r in rounds.iter().rev() {
            for c in 0..4 {
                b.ap_of(c, r).unwrap();
            }
        }
        let replay: Vec<usize> = rounds
            .iter()
            .flat_map(|&r| (0..4).map(move |c| (c, r)))
            .map(|(c, r)| b.ap_of(c, r).unwrap())
            .collect();
        assert_eq!(fwd, replay);
    }

    #[test]
    fn hysteresis_reduces_ping_pong() {
        let sticky = MultiApEnvironment::builder(base(8))
            .line(3, 120.0)
            .unwrap()
            .mobility(RandomWaypoint {
                min_m: 20.0,
                max_m: 260.0,
                epoch_rounds: 3,
                seed: 1,
            })
            .handoff(Hysteresis { margin_db: 6.0 })
            .seed(2)
            .build()
            .unwrap();
        let greedy = MultiApEnvironment::builder(base(8))
            .line(3, 120.0)
            .unwrap()
            .mobility(RandomWaypoint {
                min_m: 20.0,
                max_m: 260.0,
                epoch_rounds: 3,
                seed: 1,
            })
            .handoff(BestSinr)
            .seed(2)
            .build()
            .unwrap();
        let count = |env: &MultiApEnvironment| {
            let mut n = 0usize;
            for c in 0..8 {
                let mut prev = env.ap_of(c, 0).unwrap();
                for r in 1..60u64 {
                    let ap = env.ap_of(c, r).unwrap();
                    if ap != prev {
                        n += 1;
                    }
                    prev = ap;
                }
            }
            n
        };
        assert!(
            count(&sticky) <= count(&greedy),
            "a 6 dB margin must not switch more often than greedy best-SINR"
        );
    }

    #[test]
    fn nearest_ap_shrinks_distance() {
        // With 3 APs the serving distance can only be ≤ the distance to
        // AP 1 (whichever AP that is) — nearest-AP picks the minimum.
        let env = roaming(5, 3);
        for c in 0..5 {
            for r in 0..10u64 {
                let serving = env.distance(c, r).unwrap();
                for ap in 0..3 {
                    assert!(
                        serving.as_meters()
                            <= env.distance_to_ap(c, ap, r).unwrap().as_meters() + 1e-9
                    );
                }
            }
        }
    }

    #[test]
    fn per_ap_servers_are_queryable() {
        let fast = EdgeServer::new(FlopsRate::from_gflops(100.0), 8).unwrap();
        let slow = EdgeServer::new(FlopsRate::from_gflops(10.0), 1).unwrap();
        let env = MultiApEnvironment::builder(base(2))
            .aps(vec![
                AccessPoint {
                    x_m: 0.0,
                    y_m: 0.0,
                    server: fast,
                },
                AccessPoint {
                    x_m: 200.0,
                    y_m: 0.0,
                    server: slow,
                },
            ])
            .unwrap()
            .build()
            .unwrap();
        assert_eq!(env.ap_count(), 2);
        assert_eq!(env.server_at(0).slots(), 8);
        assert_eq!(env.server_at(1).slots(), 1);
        assert!(
            env.server_compute_at(1, 1_000_000_000).as_secs_f64()
                > env.server_compute_at(0, 1_000_000_000).as_secs_f64()
        );
    }

    #[test]
    fn cross_ap_interference_slows_both_directions() {
        let env = MultiApEnvironment::builder(base(4))
            .line(2, 100.0)
            .unwrap()
            .interference(InterferenceSpec { reuse_factor: 0.8 })
            .seed(4)
            .build()
            .unwrap();
        let share = Hertz::from_mhz(1.0);
        let cond = env.conditions(1).unwrap();
        assert_eq!(cond.ap_paths.len(), 4 * 2, "one path per client and AP");
        for dir in [Direction::Uplink, Direction::Downlink] {
            let clean = env.link(&cond, 0, dir, share, &[]).unwrap();
            let noisy = env.link(&cond, 0, dir, share, &[1, 2, 3]).unwrap();
            assert!(noisy.rate_bps < clean.rate_bps, "{dir:?}");
        }
        // A client's path to its own AP is its own link.
        for c in 0..4 {
            let own = cond.clients[c].radio().unwrap();
            let path = cond.ap_paths[c * 2 + cond.clients[c].ap];
            assert_eq!((path.uplink_rx_dbm, path.downlink_rx_dbm), own);
        }
    }

    #[test]
    fn backhaul_is_off_by_default_and_priced_when_set() {
        let flat = MultiApEnvironment::builder(base(2)).build().unwrap();
        assert!(flat.backhaul(0).is_none());
        let link = BackhaulLink::new(1e8, 1e-3).unwrap();
        let tiered = MultiApEnvironment::builder(base(2))
            .line(2, 100.0)
            .unwrap()
            .backhaul(link)
            .build()
            .unwrap();
        assert_eq!(tiered.backhaul(0), Some(link));
        assert_eq!(tiered.backhaul(1), Some(link));
        assert!(tiered.backhaul(2).is_none(), "out-of-range AP has no link");
        assert!(MultiApEnvironment::builder(base(2))
            .backhaul(BackhaulLink {
                capacity_bps: 0.0,
                latency_s: 0.0,
            })
            .build()
            .is_err());
    }

    #[test]
    fn builder_validation() {
        assert!(MultiApEnvironment::builder(base(1)).line(0, 100.0).is_err());
        assert!(MultiApEnvironment::builder(base(1)).line(2, 0.0).is_err());
        assert!(MultiApEnvironment::builder(base(1)).aps(vec![]).is_err());
        assert!(MultiApEnvironment::builder(base(1))
            .interference(InterferenceSpec { reuse_factor: 3.0 })
            .build()
            .is_err());
        assert!(MultiApEnvironment::builder(base(2))
            .build()
            .unwrap()
            .ap_of(5, 0)
            .is_err());
    }
}
