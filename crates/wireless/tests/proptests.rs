//! Property-based tests for the wireless substrate.

use gsfl_tensor::rng::SeedDerive;
use gsfl_wireless::allocation::{allocate, BandwidthPolicy, LinkDemand};
use gsfl_wireless::environment::{ChannelModel, Direction, RadioEnvironment};
use gsfl_wireless::interference::InterferenceSpec;
use gsfl_wireless::latency::LatencyModel;
use gsfl_wireless::link::LinkBudget;
use gsfl_wireless::mobility::RandomWaypoint;
use gsfl_wireless::multi_ap::HandoffKind;
use gsfl_wireless::pathloss::PathLoss;
use gsfl_wireless::units::{Bytes, Hertz, Meters, Seconds};
use gsfl_wireless::{FaultInjector, FaultSpec, TransferOutcome};
use proptest::prelude::*;

/// The paper's cell over `model`: one AP, no overlays.
fn cell(model: LatencyModel) -> RadioEnvironment {
    RadioEnvironment::builder(model).build().unwrap()
}

/// The cell over `model` with co-channel interference at `reuse`.
fn interfering(model: LatencyModel, reuse: f64) -> RadioEnvironment {
    RadioEnvironment::builder(model)
        .interference(InterferenceSpec {
            reuse_factor: reuse,
        })
        .build()
        .unwrap()
}

/// `client`'s uplink time for `payload` over the whole band in `round`,
/// priced from the link budget at its distance and fading gain.
fn uplink_time(model: &LatencyModel, client: usize, payload: u64, round: u64) -> Seconds {
    model
        .uplink_budget()
        .transmit_time(
            Bytes::new(payload),
            model.distance(client).unwrap(),
            model.total_bandwidth(),
            model.uplink_gain(client, round),
        )
        .unwrap()
}

/// `client`'s link in `dir` over `share` in `round`, against the
/// transmitters in `concurrent`, from a fresh snapshot: `(time of
/// payload, rate)`.
fn priced(
    env: &dyn ChannelModel,
    client: usize,
    dir: Direction,
    payload: u64,
    round: u64,
    share: Hertz,
    concurrent: &[usize],
) -> (Seconds, f64) {
    let cond = env.conditions(round).unwrap();
    let link = env.link(&cond, client, dir, share, concurrent).unwrap();
    (link.time(Bytes::new(payload)).unwrap(), link.rate_bps)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn pathloss_monotone_in_distance(
        d1 in 1.0f64..500.0,
        delta in 0.1f64..500.0,
    ) {
        for model in [PathLoss::FreeSpace { carrier_ghz: 3.5 }, PathLoss::urban_default()] {
            let near = model.loss_db(Meters::new(d1));
            let far = model.loss_db(Meters::new(d1 + delta));
            prop_assert!(far >= near, "{model:?}");
        }
    }

    #[test]
    fn shannon_rate_positive_and_monotone_in_bandwidth(
        d in 5.0f64..300.0,
        bw1 in 0.1f64..20.0,
        extra in 0.1f64..20.0,
    ) {
        let lb = LinkBudget::uplink_default();
        let r1 = lb.rate_bps(Meters::new(d), Hertz::from_mhz(bw1), 1.0);
        let r2 = lb.rate_bps(Meters::new(d), Hertz::from_mhz(bw1 + extra), 1.0);
        prop_assert!(r1 > 0.0);
        prop_assert!(r2 > r1, "more bandwidth must raise the rate");
    }

    #[test]
    fn transmit_time_additive_in_payload(
        d in 5.0f64..300.0,
        a in 1u64..1_000_000,
        b in 1u64..1_000_000,
    ) {
        let lb = LinkBudget::uplink_default();
        let bw = Hertz::from_mhz(2.0);
        let t = |bytes: u64| {
            lb.transmit_time(Bytes::new(bytes), Meters::new(d), bw, 1.0)
                .unwrap()
                .as_secs_f64()
        };
        prop_assert!((t(a) + t(b) - t(a + b)).abs() < 1e-9 * t(a + b).max(1.0));
    }

    #[test]
    fn allocation_shares_cover_total_and_stay_positive(
        total_mhz in 0.5f64..50.0,
        payloads in prop::collection::vec(1u64..1_000_000, 1..12),
    ) {
        let demands: Vec<LinkDemand> = payloads
            .iter()
            .map(|&p| LinkDemand {
                payload_bytes: p,
                spectral_efficiency: 1.0 + (p % 7) as f64,
            })
            .collect();
        for policy in [
            BandwidthPolicy::Equal,
            BandwidthPolicy::PayloadWeighted,
            BandwidthPolicy::ChannelAware,
        ] {
            let shares = allocate(policy, Hertz::from_mhz(total_mhz), &demands).unwrap();
            let sum: f64 = shares.iter().map(Hertz::as_hz).sum();
            prop_assert!((sum - total_mhz * 1e6).abs() < 1.0, "{policy:?}");
            prop_assert!(shares.iter().all(|s| s.as_hz() > 0.0), "{policy:?}");
        }
    }

    #[test]
    fn latency_model_deterministic_and_distance_monotone(
        seed in 0u64..200,
        payload in 1u64..1_000_000,
    ) {
        let near = LatencyModel::builder()
            .clients(2)
            .seed(seed)
            .fading(false)
            .fixed_distances(vec![Meters::new(30.0), Meters::new(190.0)])
            .build()
            .unwrap();
        let t_near = uplink_time(&near, 0, payload, 0);
        let t_far = uplink_time(&near, 1, payload, 0);
        prop_assert!(t_far > t_near, "farther client must be slower");
        // Determinism across fresh builds.
        let again = LatencyModel::builder()
            .clients(2)
            .seed(seed)
            .fading(false)
            .fixed_distances(vec![Meters::new(30.0), Meters::new(190.0)])
            .build()
            .unwrap();
        prop_assert_eq!(uplink_time(&again, 0, payload, 0), t_near);
    }

    #[test]
    fn static_environment_is_query_identical_to_the_model(
        seed in 0u64..200,
        clients in 1usize..8,
        payload in 1u64..2_000_000,
        round in 0u64..100,
        share_mhz in 0.1f64..10.0,
        flops in 1u64..1_000_000_000,
    ) {
        // The trait path must be bit-for-bit the concrete model: this is
        // what makes Scenario::Static provably behavior-preserving.
        let model = LatencyModel::builder().clients(clients).seed(seed).build().unwrap();
        let env = cell(model.clone());
        let share = Hertz::from_mhz(share_mhz);
        let cond = env.conditions(round).unwrap();
        for c in 0..clients {
            let d = model.distance(c).unwrap();
            let (up_gain, down_gain) = (model.uplink_gain(c, round), model.downlink_gain(c, round));
            let up = env.link(&cond, c, Direction::Uplink, share, &[]).unwrap();
            let down = env.link(&cond, c, Direction::Downlink, share, &[]).unwrap();
            prop_assert_eq!(
                up.time(Bytes::new(payload)).unwrap(),
                model.uplink_budget().transmit_time(Bytes::new(payload), d, share, up_gain).unwrap()
            );
            prop_assert_eq!(
                down.time(Bytes::new(payload)).unwrap(),
                model.downlink_budget().transmit_time(Bytes::new(payload), d, share, down_gain).unwrap()
            );
            prop_assert_eq!(up.rate_bps, model.uplink_budget().rate_bps(d, share, up_gain));
            prop_assert_eq!(
                cond.clients[c].compute_time(flops),
                model.device(c).unwrap().compute_time(flops)
            );
            prop_assert_eq!(env.distance(c, round).unwrap(), model.distance(c).unwrap());
            prop_assert!(env.is_available(c, round));
        }
        prop_assert_eq!(env.total_bandwidth(round), model.total_bandwidth());
        prop_assert_eq!(env.server_compute(flops), model.server_compute(flops));
    }

    #[test]
    fn overlay_free_environment_ignores_its_seed(
        seed in 0u64..100,
        payload in 1u64..2_000_000,
        round in 0u64..50,
    ) {
        // The builder seed drives only overlays and AP bearings: the
        // plain cell answers the same under every seed.
        let model = LatencyModel::builder().clients(3).seed(seed).build().unwrap();
        let unseeded = cell(model.clone());
        let seeded = RadioEnvironment::builder(model).seed(seed).build().unwrap();
        let share = Hertz::from_mhz(1.5);
        prop_assert_eq!(seeded.conditions(round).unwrap(), unseeded.conditions(round).unwrap());
        for c in 0..3 {
            for dir in [Direction::Uplink, Direction::Downlink] {
                prop_assert_eq!(
                    priced(&seeded, c, dir, payload, round, share, &[]),
                    priced(&unseeded, c, dir, payload, round, share, &[])
                );
            }
        }
    }

    #[test]
    fn adding_an_interferer_never_increases_rate(
        d in 5.0f64..300.0,
        gain in 0.05f64..4.0,
        bw in 0.2f64..20.0,
        i_base in 0.0f64..1e-6,
        i_extra_d in 5.0f64..400.0,
    ) {
        // SINR monotonicity at the link layer: more aggregate
        // interference power can only lower the Shannon rate.
        let lb = LinkBudget::uplink_default();
        let bw = Hertz::from_mhz(bw);
        let extra = lb.rx_power_mw(Meters::new(i_extra_d), 1.0);
        let before = lb.rate_bps_sinr(Meters::new(d), bw, gain, i_base);
        let after = lb.rate_bps_sinr(Meters::new(d), bw, gain, i_base + extra);
        prop_assert!(after <= before, "{after} > {before}");
        prop_assert!(after > 0.0);
    }

    #[test]
    fn env_interferer_set_monotone_in_uplink_time(
        seed in 0u64..100,
        round in 0u64..32,
        reuse in 0.05f64..1.0,
    ) {
        // Environment layer: growing the concurrent-transmitter set can
        // only slow a victim's uplink.
        let model = LatencyModel::builder().clients(4).seed(seed).build().unwrap();
        let env = interfering(model, reuse);
        let share = Hertz::from_mhz(1.0);
        let t = |interferers: &[usize]| {
            priced(&env, 0, Direction::Uplink, 100_000, round, share, interferers)
                .0
                .as_secs_f64()
        };
        let t0 = t(&[]);
        let t1 = t(&[1]);
        let t2 = t(&[1, 2]);
        let t3 = t(&[1, 2, 3]);
        prop_assert!(t0 <= t1 && t1 <= t2 && t2 <= t3, "{t0} {t1} {t2} {t3}");
        prop_assert!(t3 > t0, "active interference must actually bite");
    }

    #[test]
    fn env_receiver_set_monotone_in_downlink_time(
        seed in 0u64..100,
        round in 0u64..32,
        reuse in 0.05f64..1.0,
        env_kind in 0usize..2,
    ) {
        // Downlink twin of the uplink monotonicity law: growing the set
        // of concurrently-served receivers can only slow a victim's
        // downlink — in the single-AP environments (same-AP subchannel
        // leakage) and in the multi-AP fleet (other APs' downlinks heard
        // across cells).
        let model = LatencyModel::builder().clients(4).seed(seed).build().unwrap();
        let spec = InterferenceSpec { reuse_factor: reuse };
        let mut env = RadioEnvironment::builder(model).interference(spec);
        if env_kind == 1 {
            env = env.line(2, 120.0).unwrap().seed(seed);
        }
        let env = env.build().unwrap();
        let share = Hertz::from_mhz(1.0);
        let t = |receivers: &[usize]| {
            priced(&env, 0, Direction::Downlink, 100_000, round, share, receivers)
                .0
                .as_secs_f64()
        };
        let t0 = t(&[]);
        let t1 = t(&[1]);
        let t2 = t(&[1, 2]);
        let t3 = t(&[1, 2, 3]);
        prop_assert!(t0 <= t1 && t1 <= t2 && t2 <= t3, "{t0} {t1} {t2} {t3}");
        prop_assert!(t3 > t0, "active downlink interference must bite");
        // The victim itself in the receiver set is skipped.
        prop_assert_eq!(t(&[0]), t0);
    }

    #[test]
    fn snapshot_interference_is_bitwise_the_link_budget_formula(
        seed in 0u64..100,
        round in 0u64..32,
        reuse in 0.05f64..1.0,
        share_mhz in 0.2f64..5.0,
    ) {
        // Each concurrent transmitter contributes its received power at
        // the victim, summed in order and scaled by the reuse factor:
        // uplinks from the interferers' own positions, downlinks from
        // the AP over the victim's own path.
        let model = LatencyModel::builder().clients(4).seed(seed).build().unwrap();
        let env = interfering(model.clone(), reuse);
        let share = Hertz::from_mhz(share_mhz);
        let up = model.uplink_budget();
        let down = model.downlink_budget();
        let d = |c: usize| model.distance(c).unwrap();
        let up_i = (up.rx_power_mw(d(1), model.uplink_gain(1, round))
            + up.rx_power_mw(d(3), model.uplink_gain(3, round)))
            * reuse;
        let own_down = down.rx_power_mw(d(0), model.downlink_gain(0, round));
        let down_i = (own_down + own_down) * reuse;
        let cond = env.conditions(round).unwrap();
        prop_assert_eq!(
            env.link(&cond, 0, Direction::Uplink, share, &[1, 0, 3]).unwrap().rate_bps,
            up.rate_bps_sinr(d(0), share, model.uplink_gain(0, round), up_i)
        );
        prop_assert_eq!(
            env.link(&cond, 0, Direction::Downlink, share, &[1, 0, 3]).unwrap().rate_bps,
            down.rate_bps_sinr(d(0), share, model.downlink_gain(0, round), down_i)
        );
    }

    #[test]
    fn zero_receivers_reproduce_downlink_bitwise(
        seed in 0u64..100,
        round in 0u64..32,
        payload in 1u64..2_000_000,
        reuse in 0.0f64..1.0,
    ) {
        // Golden-fixture guard for the downlink path: no concurrent
        // receivers (or an inactive spec) must reproduce the plain
        // downlink time byte for byte.
        let model = LatencyModel::builder().clients(3).seed(seed).build().unwrap();
        let plain = cell(model.clone());
        let sinr_env = interfering(model, reuse);
        let share = Hertz::from_mhz(2.0);
        for c in 0..3 {
            prop_assert_eq!(
                priced(&sinr_env, c, Direction::Downlink, payload, round, share, &[]),
                priced(&plain, c, Direction::Downlink, payload, round, share, &[])
            );
        }
    }

    #[test]
    fn zero_interferers_reproduce_snr_numbers_bitwise(
        seed in 0u64..100,
        round in 0u64..32,
        payload in 1u64..2_000_000,
        reuse in 0.0f64..1.0,
    ) {
        // The golden-fixture guard: an interference-capable environment
        // queried with no concurrent transmitters must reproduce the
        // plain SNR environment byte for byte — same floats, not just
        // close ones.
        let model = LatencyModel::builder().clients(3).seed(seed).build().unwrap();
        let plain = cell(model.clone());
        let sinr_env = interfering(model, reuse);
        let share = Hertz::from_mhz(2.0);
        for c in 0..3 {
            prop_assert_eq!(
                priced(&sinr_env, c, Direction::Uplink, payload, round, share, &[]),
                priced(&plain, c, Direction::Uplink, payload, round, share, &[])
            );
        }
    }

    #[test]
    fn handoff_decisions_deterministic_per_seed(
        seed in 0u64..50,
        kind_idx in 0usize..3,
    ) {
        let kind = [
            HandoffKind::Nearest,
            HandoffKind::BestSinr,
            HandoffKind::Hysteresis { margin_db: 4.0 },
        ][kind_idx];
        let build = || {
            RadioEnvironment::builder(
                LatencyModel::builder().clients(5).seed(seed).build().unwrap(),
            )
            .line(3, 130.0)
            .unwrap()
            .mobility(RandomWaypoint {
                min_m: 20.0,
                max_m: 280.0,
                epoch_rounds: 5,
                seed,
            })
            .handoff_kind(kind)
            .unwrap()
            .seed(seed)
            .build()
            .unwrap()
        };
        let a = build();
        let b = build();
        // b is queried in reverse round order to stress the memoization.
        for r in (0..24u64).rev() {
            for c in 0..5 {
                b.ap_of(c, r).unwrap();
            }
        }
        for r in 0..24u64 {
            for c in 0..5 {
                prop_assert_eq!(a.ap_of(c, r).unwrap(), b.ap_of(c, r).unwrap(), "{:?} c{} r{}", kind, c, r);
            }
        }
    }

    #[test]
    fn fading_preserves_mean_rate_ordering(seed in 0u64..100) {
        // Averaged over many rounds, a near client still beats a far one
        // despite fading.
        let model = LatencyModel::builder()
            .clients(2)
            .seed(seed)
            .fixed_distances(vec![Meters::new(30.0), Meters::new(190.0)])
            .build()
            .unwrap();
        let avg = |client: usize| -> f64 {
            (0..200)
                .map(|round| {
                    uplink_time(&model, client, 100_000, round).as_secs_f64()
                })
                .sum::<f64>()
                / 200.0
        };
        prop_assert!(avg(1) > avg(0));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // The default (zero-fault) spec is the bitwise identity over every
    // query: transfers deliver first try at exactly the input airtime,
    // nobody crashes, everyone is reachable.
    #[test]
    fn zero_fault_spec_is_bitwise_identity(
        seed in 0u64..1000,
        client in 0usize..32,
        round in 0u64..200,
        transfer in 0u64..50,
        airtime in 1e-6f64..100.0,
    ) {
        let f = FaultInjector::new(
            FaultSpec::default(),
            SeedDerive::new(seed).child("environment"),
        ).unwrap();
        let o = f.transfer_outcome(client, round, transfer);
        prop_assert_eq!(o, TransferOutcome::clean());
        let t = Seconds::new(airtime);
        prop_assert_eq!(
            o.total_time(t).as_secs_f64().to_bits(),
            t.as_secs_f64().to_bits(),
            "clean pricing must be the bitwise identity"
        );
        prop_assert_eq!(f.crash_point(client, round), None);
        prop_assert!(f.client_available(client, 0, round));
    }

    // Retry pricing is pointwise monotone in the loss probability:
    // raising `loss_prob` on the same derived stream can only add
    // attempts and backoff, never remove them.
    #[test]
    fn retry_pricing_monotone_in_loss_probability(
        seed in 0u64..200,
        client in 0usize..16,
        round in 0u64..100,
        transfer in 0u64..20,
        p_lo in 0.0f64..0.9,
        bump in 0.0f64..0.09,
        airtime in 1e-6f64..10.0,
    ) {
        let mk = |p: f64| FaultInjector::new(
            FaultSpec { loss_prob: p, ..FaultSpec::default() },
            SeedDerive::new(seed).child("environment"),
        ).unwrap();
        let lo = mk(p_lo).transfer_outcome(client, round, transfer);
        let hi = mk((p_lo + bump).min(0.99)).transfer_outcome(client, round, transfer);
        prop_assert!(hi.attempts >= lo.attempts);
        prop_assert!(hi.backoff_s >= lo.backoff_s);
        let t = Seconds::new(airtime);
        prop_assert!(
            hi.total_time(t).as_secs_f64() >= lo.total_time(t).as_secs_f64(),
            "priced wire time must be monotone in loss_prob"
        );
    }
}
