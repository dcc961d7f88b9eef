//! Regression tests for per-phase latency attribution.
//!
//! The bug class under guard: when concurrent groups contend for edge
//! server slots (one AP or several), the time a server task spends
//! *queued* must be charged to server compute time — not smeared into
//! uplink time, where it would misdiagnose a congested AP as a slow
//! radio. `LatencyBreakdown.uplink_s` therefore has to be invariant to
//! server slot count, while `server_s` absorbs the queueing delta.

use gsfl::core::latency::{gsfl_round, sl_round, ChannelMode, SplitCosts};
use gsfl::nn::model::Mlp;
use gsfl::wireless::allocation::BandwidthPolicy;
use gsfl::wireless::device::DeviceProfile;
use gsfl::wireless::environment::{ChannelModel, RadioEnvironment};
use gsfl::wireless::latency::LatencyModel;
use gsfl::wireless::multi_ap::AccessPoint;
use gsfl::wireless::server::EdgeServer;
use gsfl::wireless::units::{FlopsRate, Meters};

fn model(slots: usize, clients: usize) -> LatencyModel {
    LatencyModel::builder()
        .clients(clients)
        .fading(false)
        .fixed_distances(vec![Meters::new(50.0); clients])
        .fixed_devices(vec![
            DeviceProfile::new(FlopsRate::from_gflops(1.0)).unwrap();
            clients
        ])
        .server(EdgeServer::new(FlopsRate::from_gflops(50.0), slots).unwrap())
        .build()
        .unwrap()
}

fn costs() -> SplitCosts {
    let net = Mlp::new(48, &[32, 32], 5, 0).into_sequential();
    SplitCosts::compute(&net, 2, &[48], 8).unwrap()
}

#[test]
fn server_contention_lands_in_server_time_not_uplink_time() {
    let costs = costs();
    let steps = vec![2usize; 6];
    let groups: Vec<Vec<usize>> = (0..6).map(|c| vec![c]).collect();
    let run = |slots: usize| {
        gsfl_round(
            &RadioEnvironment::builder(model(slots, 6)).build().unwrap(),
            &costs,
            &steps,
            &groups,
            BandwidthPolicy::Equal,
            ChannelMode::Dedicated,
            0,
        )
        .unwrap()
    };
    let wide = run(8); // no contention: every group gets a slot
    let narrow = run(1); // full contention: one slot serves six groups
    assert!(
        narrow.duration.as_secs_f64() > wide.duration.as_secs_f64(),
        "contention must slow the round"
    );
    // Attribution: the radio did not get slower — uplink/downlink and
    // client compute are identical; the entire delta is server time.
    assert_eq!(wide.breakdown.uplink_s, narrow.breakdown.uplink_s);
    assert_eq!(wide.breakdown.downlink_s, narrow.breakdown.downlink_s);
    assert_eq!(
        wide.breakdown.client_compute_s,
        narrow.breakdown.client_compute_s
    );
    assert!(
        narrow.breakdown.server_s > wide.breakdown.server_s,
        "queueing must be charged to the server phase: narrow {} vs wide {}",
        narrow.breakdown.server_s,
        wide.breakdown.server_s
    );
}

#[test]
fn uncontended_breakdown_has_no_queue_wait() {
    // With ample slots, server_s is exactly the nominal compute time of
    // every server task (12 split steps + fedavg).
    let costs = costs();
    let env = RadioEnvironment::builder(model(8, 4)).build().unwrap();
    let steps = vec![3usize; 4];
    let groups: Vec<Vec<usize>> = (0..4).map(|c| vec![c]).collect();
    let r = gsfl_round(
        &env,
        &costs,
        &steps,
        &groups,
        BandwidthPolicy::Equal,
        ChannelMode::Dedicated,
        0,
    )
    .unwrap();
    let per_task = env.server_compute(costs.server_flops).as_secs_f64();
    let nominal = 12.0 * per_task; // + fedavg, checked as a lower bound
    assert!(r.breakdown.server_s >= nominal - 1e-12);
    assert!(
        r.breakdown.server_s < nominal * 1.2,
        "no contention ⇒ no queueing: {} vs nominal {}",
        r.breakdown.server_s,
        nominal
    );
}

#[test]
fn sequential_round_breakdown_sums_to_duration() {
    // SL is strictly sequential, so the wall clock is exactly the sum of
    // the phases — the breakdown must account for every second.
    let costs = costs();
    let env = RadioEnvironment::builder(model(4, 3)).build().unwrap();
    let steps = vec![2usize; 3];
    let r = sl_round(&env, &costs, &steps, &[0, 1, 2], ChannelMode::Dedicated, 0).unwrap();
    let total = r.breakdown.total_s();
    assert!(
        (total - r.duration.as_secs_f64()).abs() < 1e-9,
        "breakdown {total} != duration {}",
        r.duration.as_secs_f64()
    );
    assert!(r.breakdown.uplink_s > 0.0);
    assert!(r.breakdown.downlink_s > 0.0);
    assert!(r.breakdown.client_compute_s > 0.0);
    assert!(r.breakdown.server_s > 0.0);
}

#[test]
fn per_ap_contention_is_attributed_per_ap() {
    // Two APs: AP0 ample, AP1 single-slot. Clients split by bearing; the
    // round must still run, and starving AP1 must show up as server
    // time, never as uplink time.
    let base = model(8, 6);
    let fast = EdgeServer::new(FlopsRate::from_gflops(50.0), 8).unwrap();
    let slow = EdgeServer::new(FlopsRate::from_gflops(50.0), 1).unwrap();
    let build = |second_server: EdgeServer| {
        RadioEnvironment::builder(base.clone())
            .aps(vec![
                AccessPoint {
                    x_m: 0.0,
                    y_m: 0.0,
                    server: fast,
                },
                AccessPoint {
                    x_m: 60.0,
                    y_m: 0.0,
                    server: second_server,
                },
            ])
            .unwrap()
            .seed(3)
            .build()
            .unwrap()
    };
    let roomy = build(fast);
    let tight = build(slow);
    let costs = costs();
    let steps = vec![2usize; 6];
    let groups: Vec<Vec<usize>> = (0..6).map(|c| vec![c]).collect();
    let run = |env: &RadioEnvironment| {
        gsfl_round(
            env,
            &costs,
            &steps,
            &groups,
            BandwidthPolicy::Equal,
            ChannelMode::Dedicated,
            0,
        )
        .unwrap()
    };
    // Both environments agree on geometry/associations (same seed), so
    // radio phases match exactly; only AP1's slot count differs.
    let a = run(&roomy);
    let b = run(&tight);
    assert_eq!(a.breakdown.uplink_s, b.breakdown.uplink_s);
    assert_eq!(a.breakdown.downlink_s, b.breakdown.downlink_s);
    // Whether the tight AP actually queues depends on how many clients
    // associated with it; it can only ever add server time.
    assert!(b.breakdown.server_s >= a.breakdown.server_s);
    assert!(b.duration.as_secs_f64() >= a.duration.as_secs_f64());
}
