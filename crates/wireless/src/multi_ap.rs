//! Several access points: the AP layout and the handoff policies that
//! associate clients with APs.
//!
//! [`crate::environment::RadioEnvironment`] takes a layout of
//! [`AccessPoint`]s; the default is the paper's single AP at the origin.
//! With several APs:
//!
//! * **Geometry** — APs sit at fixed 2D positions; each client keeps the
//!   deterministic bearing the environment seed assigned it and moves
//!   radially per the configured [`crate::mobility::Mobility`] model, so
//!   the processes that drive path-loss drift also drive handoffs.
//! * **Association** — a [`HandoffPolicy`] picks each client's serving AP
//!   every round ([`NearestAp`], [`BestSinr`], or [`Hysteresis`] with a
//!   switching margin). Decisions are a deterministic recurrence over
//!   rounds, so runs reproduce for a fixed seed.
//! * **Per-AP servers** — every AP carries its own [`EdgeServer`]; the
//!   discrete-event round simulation contends server-side work per AP
//!   through [`crate::ChannelModel::server_at`] /
//!   [`crate::ChannelModel::ap_of`].
//! * **Interference** — concurrent uplink transmitters are heard at the
//!   victim's serving AP, and concurrent downlinks from the APs serving
//!   their receivers, through the same path-loss pipeline as the signal.
//!   With interference on, each round's snapshot carries every client's
//!   path to every AP ([`crate::environment::RoundConditions::ap_paths`]).

use crate::server::EdgeServer;
use crate::units::Meters;
use crate::{Result, WirelessError};
use serde::{Deserialize, Serialize};

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
    pub(crate) fn at_origin(&self) -> bool {
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
    ///
    /// # Errors
    ///
    /// Returns [`WirelessError::Config`] for a non-finite hysteresis
    /// margin.
    pub fn policy(&self) -> Result<Box<dyn HandoffPolicy>> {
        Ok(match *self {
            HandoffKind::Nearest => Box::new(NearestAp),
            HandoffKind::BestSinr => Box::new(BestSinr),
            HandoffKind::Hysteresis { margin_db } => {
                if !margin_db.is_finite() {
                    return Err(WirelessError::Config(format!(
                        "hysteresis margin must be finite, got {margin_db}"
                    )));
                }
                Box::new(Hysteresis { margin_db })
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backhaul::BackhaulLink;
    use crate::environment::{ChannelModel, Direction, RadioEnvironment};
    use crate::interference::InterferenceSpec;
    use crate::latency::LatencyModel;
    use crate::mobility::RandomWaypoint;
    use crate::units::{FlopsRate, Hertz};

    fn base(clients: usize) -> LatencyModel {
        LatencyModel::builder()
            .clients(clients)
            .seed(5)
            .build()
            .unwrap()
    }

    fn roaming(clients: usize, aps: usize) -> RadioEnvironment {
        RadioEnvironment::builder(base(clients))
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
        let sticky = RadioEnvironment::builder(base(8))
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
        let greedy = RadioEnvironment::builder(base(8))
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
        let count = |env: &RadioEnvironment| {
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
        let env = RadioEnvironment::builder(base(2))
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
        let env = RadioEnvironment::builder(base(4))
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
        let flat = RadioEnvironment::builder(base(2)).build().unwrap();
        assert!(flat.backhaul(0).is_none());
        let link = BackhaulLink::new(1e8, 1e-3).unwrap();
        let tiered = RadioEnvironment::builder(base(2))
            .line(2, 100.0)
            .unwrap()
            .backhaul(link)
            .build()
            .unwrap();
        assert_eq!(tiered.backhaul(0), Some(link));
        assert_eq!(tiered.backhaul(1), Some(link));
        assert!(tiered.backhaul(2).is_none(), "out-of-range AP has no link");
        assert!(RadioEnvironment::builder(base(2))
            .backhaul(BackhaulLink {
                capacity_bps: 0.0,
                latency_s: 0.0,
            })
            .build()
            .is_err());
    }

    #[test]
    fn builder_validation() {
        assert!(RadioEnvironment::builder(base(1)).line(0, 100.0).is_err());
        assert!(RadioEnvironment::builder(base(1)).line(2, 0.0).is_err());
        assert!(RadioEnvironment::builder(base(1))
            .line(2, f64::NAN)
            .is_err());
        assert!(RadioEnvironment::builder(base(1))
            .line(1, f64::INFINITY)
            .is_err());
        assert!(HandoffKind::Hysteresis {
            margin_db: f64::NAN
        }
        .policy()
        .is_err());
        assert!(RadioEnvironment::builder(base(1)).aps(vec![]).is_err());
        assert!(RadioEnvironment::builder(base(1))
            .interference(InterferenceSpec { reuse_factor: 3.0 })
            .build()
            .is_err());
        assert!(RadioEnvironment::builder(base(2))
            .build()
            .unwrap()
            .ap_of(5, 0)
            .is_err());
    }
}
