//! Latency properties across schemes: the orderings the paper's Fig. 2(b)
//! and the DES contention model must satisfy, plus DES-vs-closed-form
//! cross-checks.

use gsfl::core::latency::{gsfl_round, sl_round, ChannelMode, SplitCosts};
use gsfl::nn::model::Mlp;
use gsfl::wireless::allocation::BandwidthPolicy;
use gsfl::wireless::device::DeviceProfile;
use gsfl::wireless::environment::RadioEnvironment;
use gsfl::wireless::latency::LatencyModel;
use gsfl::wireless::server::EdgeServer;
use gsfl::wireless::units::{FlopsRate, Meters};

fn homogeneous_model(clients: usize, slots: usize) -> RadioEnvironment {
    RadioEnvironment::builder(
        LatencyModel::builder()
            .clients(clients)
            .fading(false)
            .fixed_distances(vec![Meters::new(60.0); clients])
            .fixed_devices(vec![
                DeviceProfile::new(FlopsRate::from_gflops(0.5)).unwrap();
                clients
            ])
            .server(EdgeServer::new(FlopsRate::from_gflops(50.0), slots).unwrap())
            .build()
            .unwrap(),
    )
    .build()
    .unwrap()
}

fn costs() -> SplitCosts {
    let net = Mlp::new(192, &[64, 32], 10, 0).into_sequential();
    SplitCosts::compute(&net, 2, &[192], 8).unwrap()
}

#[test]
fn gsfl_round_beats_sl_round_with_groups() {
    let latency = homogeneous_model(12, 6);
    let costs = costs();
    let steps = vec![3usize; 12];
    let order: Vec<usize> = (0..12).collect();
    let sl = sl_round(&latency, &costs, &steps, &order, ChannelMode::Dedicated, 0).unwrap();
    for m in [2usize, 3, 4, 6] {
        let groups: Vec<Vec<usize>> = (0..m)
            .map(|g| (0..12).filter(|c| c % m == g).collect())
            .collect();
        let r = gsfl_round(
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
            r.duration.as_secs_f64() < sl.duration.as_secs_f64(),
            "M={m}: gsfl {:.3}s !< sl {:.3}s",
            r.duration.as_secs_f64(),
            sl.duration.as_secs_f64()
        );
    }
}

#[test]
fn more_groups_never_slower_under_dedicated_channels() {
    let latency = homogeneous_model(12, 12); // ample server slots
    let costs = costs();
    let steps = vec![3usize; 12];
    let mut last = f64::INFINITY;
    for m in [1usize, 2, 3, 4, 6, 12] {
        let groups: Vec<Vec<usize>> = (0..m)
            .map(|g| (0..12).filter(|c| c % m == g).collect())
            .collect();
        let r = gsfl_round(
            &latency,
            &costs,
            &steps,
            &groups,
            BandwidthPolicy::Equal,
            ChannelMode::Dedicated,
            0,
        )
        .unwrap();
        let t = r.duration.as_secs_f64();
        assert!(
            t <= last * 1.05,
            "M={m} slower than fewer groups: {t} vs {last}"
        );
        last = t;
    }
}

#[test]
fn des_matches_closed_form_for_single_group_without_contention() {
    // One group, ample server slots ⇒ the DES chain is exactly the SL
    // closed form plus the aggregation tail.
    let latency = homogeneous_model(4, 8);
    let costs = costs();
    let steps = vec![2usize; 4];
    let order: Vec<usize> = (0..4).collect();
    let sl = sl_round(&latency, &costs, &steps, &order, ChannelMode::Dedicated, 0).unwrap();
    let gsfl = gsfl_round(
        &latency,
        &costs,
        &steps,
        &[order],
        BandwidthPolicy::Equal,
        ChannelMode::Dedicated,
        0,
    )
    .unwrap();
    let diff = gsfl.duration.as_secs_f64() - sl.duration.as_secs_f64();
    assert!(diff >= -1e-9, "DES cannot be faster than the closed form");
    // Aggregation tail: fedavg compute + no extra transmissions beyond
    // those the closed form already counts.
    assert!(
        diff < 0.05 * sl.duration.as_secs_f64(),
        "aggregation tail too large: {diff}s on {}s",
        sl.duration.as_secs_f64()
    );
}

#[test]
fn server_slot_contention_monotonicity() {
    let costs = costs();
    let steps = vec![3usize; 12];
    let groups: Vec<Vec<usize>> = (0..6)
        .map(|g| (0..12).filter(|c| c % 6 == g).collect())
        .collect();
    let mut last = f64::INFINITY;
    for slots in [1usize, 2, 4, 8] {
        let latency = homogeneous_model(12, slots);
        let r = gsfl_round(
            &latency,
            &costs,
            &steps,
            &groups,
            BandwidthPolicy::Equal,
            ChannelMode::Dedicated,
            0,
        )
        .unwrap();
        let t = r.duration.as_secs_f64();
        assert!(t <= last + 1e-9, "slots={slots}: {t} > {last}");
        last = t;
    }
}

#[test]
fn shared_pool_helps_sl_hurts_gsfl_relatively() {
    // Under the shared pool, SL's lone transmitter gets the whole band, so
    // SL speeds up; GSFL's groups split it, so the GSFL/SL advantage must
    // shrink versus dedicated subchannels.
    let latency = homogeneous_model(12, 6);
    let costs = costs();
    let steps = vec![3usize; 12];
    let order: Vec<usize> = (0..12).collect();
    let groups: Vec<Vec<usize>> = (0..6)
        .map(|g| (0..12).filter(|c| c % 6 == g).collect())
        .collect();
    let speedup = |mode: ChannelMode| {
        let sl = sl_round(&latency, &costs, &steps, &order, mode, 0).unwrap();
        let g = gsfl_round(
            &latency,
            &costs,
            &steps,
            &groups,
            BandwidthPolicy::Equal,
            mode,
            0,
        )
        .unwrap();
        sl.duration.as_secs_f64() / g.duration.as_secs_f64()
    };
    let dedicated = speedup(ChannelMode::Dedicated);
    let shared = speedup(ChannelMode::SharedPool);
    assert!(
        dedicated > shared,
        "dedicated speedup {dedicated:.2} must exceed shared {shared:.2}"
    );
}

#[test]
fn byte_accounting_independent_of_channel_mode() {
    let latency = homogeneous_model(6, 4);
    let costs = costs();
    let steps = vec![2usize; 6];
    let order: Vec<usize> = (0..6).collect();
    let a = sl_round(&latency, &costs, &steps, &order, ChannelMode::Dedicated, 0).unwrap();
    let b = sl_round(&latency, &costs, &steps, &order, ChannelMode::SharedPool, 0).unwrap();
    assert_eq!(a.bytes, b.bytes);
    assert!(
        a.duration > b.duration,
        "dedicated B/N must be slower for SL"
    );
}
