//! Explore the wireless substrate directly: path loss, fading, Shannon
//! rates, and how one GSFL round decomposes into computation and
//! communication — including the edge-server contention that discrete-
//! event simulation exposes.
//!
//! Run with: `cargo run --release --example wireless_latency`

use gsfl::core::latency::{gsfl_round, sl_round, ChannelMode, SplitCosts};
use gsfl::nn::model::{CutPoint, DeepThin};
use gsfl::wireless::allocation::BandwidthPolicy;
use gsfl::wireless::environment::{ChannelModel, Direction, RadioEnvironment};
use gsfl::wireless::latency::LatencyModel;
use gsfl::wireless::link::LinkBudget;
use gsfl::wireless::units::{Bytes, Hertz, Meters};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Link-level behaviour.
    println!("— link budget (uplink, 23 dBm, urban path loss, 1 MHz) —");
    let lb = LinkBudget::uplink_default();
    for d in [20.0, 50.0, 100.0, 200.0] {
        let rate = lb.rate_bps(Meters::new(d), Hertz::from_mhz(1.0), 1.0);
        println!("  {d:>5.0} m → {:>8.2} Mbit/s", rate / 1e6);
    }

    // 2. A full latency model with fading.
    let model =
        RadioEnvironment::builder(LatencyModel::builder().clients(12).seed(3).build()?).build()?;
    println!("\n— per-round fading on client 0 (1 MiB uplink) —");
    for round in 0..4 {
        // One snapshot per round; the link is priced over it.
        let cond = model.conditions(round)?;
        let link = model.link(&cond, 0, Direction::Uplink, cond.bandwidth, &[])?;
        let t = link.time(Bytes::new(1 << 20))?;
        println!("  round {round}: {:.3} s", t.as_secs_f64());
    }

    // 3. Decompose a round of split training.
    let net = DeepThin::builder(16, 43).seed(1).build()?;
    let costs = SplitCosts::compute(&net, CutPoint::AfterPool1.layer_index(), &[3, 16, 16], 16)?;
    println!("\n— per-batch cost profile (cut after pool1) —");
    println!(
        "  client fwd/bwd : {} / {} FLOPs",
        costs.client_fwd_flops, costs.client_bwd_flops
    );
    println!("  server fwd+bwd : {} FLOPs", costs.server_flops);
    println!(
        "  smashed data   : {} B/batch",
        costs.smashed_bytes.as_u64()
    );
    println!("  client model   : {} B", costs.client_model_bytes.as_u64());

    // 4. SL vs GSFL round latency, and the server-contention effect.
    let steps = vec![3usize; 12];
    let order: Vec<usize> = (0..12).collect();
    let sl = sl_round(&model, &costs, &steps, &order, ChannelMode::Dedicated, 0)?;
    println!("\n— round latency (12 clients) —");
    println!(
        "  SL  (sequential)        : {:.2} s",
        sl.duration.as_secs_f64()
    );
    for m in [2usize, 3, 6, 12] {
        let groups: Vec<Vec<usize>> = (0..m)
            .map(|g| (0..12).filter(|c| c % m == g).collect())
            .collect();
        let r = gsfl_round(
            &model,
            &costs,
            &steps,
            &groups,
            BandwidthPolicy::Equal,
            ChannelMode::Dedicated,
            0,
        )?;
        println!(
            "  GSFL M={m:<2} ({} srv slots) : {:.2} s  ({:.2}× vs SL)",
            model.server().slots(),
            r.duration.as_secs_f64(),
            sl.duration.as_secs_f64() / r.duration.as_secs_f64()
        );
    }
    println!("\nParallel gains flatten once M exceeds the server's slot count —");
    println!("exactly the contention the paper's edge server would see.");
    Ok(())
}
