//! Developer diagnostic: decompose SL and GSFL round latency into
//! computation vs communication under the current paper-scale defaults.
//!
//! All environment state is read through the `ChannelModel` trait —
//! the round's `RoundConditions` snapshot plus the per-AP server
//! accessors — so the breakdown is faithful under multi-AP, interference
//! and trace-driven environments, not just the static single-cell model.
//!
//! Usage: `cargo run -p gsfl-bench --release --bin debug_latency [-- scenario]`
//! where `scenario` is any preset name (default: the static paper cell).

use gsfl_bench::paper_config;
use gsfl_core::context::TrainContext;
use gsfl_core::latency::{gsfl_round, sl_round};
use gsfl_wireless::{Direction, Scenario};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut builder = paper_config(false).rounds(1);
    if let Some(name) = std::env::args().nth(1) {
        let scenario =
            Scenario::preset(&name).ok_or_else(|| format!("unknown scenario preset: {name}"))?;
        builder = builder.scenario(scenario);
    }
    let config = builder.build()?;
    let ctx = TrainContext::from_config(config)?;
    let costs = ctx.costs;
    println!("cost profile (per batch):");
    println!(
        "  client fwd+bwd flops : {}",
        costs.client_fwd_flops + costs.client_bwd_flops
    );
    println!("  server flops         : {}", costs.server_flops);
    println!("  full flops           : {}", costs.full_flops);
    println!("  smashed bytes        : {}", costs.smashed_bytes.as_u64());
    println!(
        "  client model bytes   : {}",
        costs.client_model_bytes.as_u64()
    );
    println!(
        "  full model bytes     : {}",
        costs.full_model_bytes.as_u64()
    );

    // The round-0 snapshot every planner sees: total band, per-client
    // distance / compute / availability / AP association.
    let env = ctx.env.as_ref();
    let cond = env.conditions(0)?;
    let full = cond.bandwidth;
    println!(
        "\nround-0 conditions: {:.1} MHz total, {} APs, {}/{} clients reachable",
        full.as_hz() / 1e6,
        env.ap_count(),
        cond.available_clients().len(),
        cond.clients.len(),
    );

    // Per-step timings for a probe client at full bandwidth and at the
    // dedicated OFDMA share, against its *own* AP's edge server.
    let c = 0usize;
    let probe = &cond.clients[c];
    let ap = probe.ap;
    let cf = probe.compute_time(costs.client_fwd_flops);
    let cb = probe.compute_time(costs.client_bwd_flops);
    let sv = env.server_compute_at(ap, costs.server_flops);
    let up = |share| env.link(&cond, c, Direction::Uplink, share, &[]);
    let down = |share| env.link(&cond, c, Direction::Downlink, share, &[]);
    let ul_full = up(full)?.time(costs.smashed_bytes)?;
    let dl_full = down(full)?.time(costs.grad_bytes)?;
    let share = cond.dedicated_share();
    let ul_share = up(share)?.time(costs.smashed_bytes)?;
    let dl_share = down(share)?.time(costs.grad_bytes)?;
    println!(
        "\nper-step timings, client 0 (distance {:.0} m, device {:.2} GFLOP/s, AP {ap}):",
        probe.distance.as_meters(),
        probe.compute_rate.as_flops_per_sec() / 1e9
    );
    println!(
        "  client fwd / bwd     : {:.4}s / {:.4}s",
        cf.as_secs_f64(),
        cb.as_secs_f64()
    );
    println!("  server fwd+bwd       : {:.6}s", sv.as_secs_f64());
    println!(
        "  uplink  (B, B/N)     : {:.4}s, {:.4}s",
        ul_full.as_secs_f64(),
        ul_share.as_secs_f64()
    );
    println!(
        "  downlink(B, B/N)     : {:.4}s, {:.4}s",
        dl_full.as_secs_f64(),
        dl_share.as_secs_f64()
    );
    println!(
        "  relay (model, B)     : {:.4}s",
        up(full)?.time(costs.client_model_bytes)?.as_secs_f64()
    );
    println!(
        "  fl model ul (B/30)   : {:.4}s",
        up(full.fraction(1.0 / 30.0))?
            .time(costs.full_model_bytes)?
            .as_secs_f64()
    );

    let steps = ctx.steps_per_client();
    println!("\nsteps/client: {:?}", &steps[..6.min(steps.len())]);
    let order: Vec<usize> = (0..ctx.config.clients).collect();
    let sl = sl_round(env, &costs, &steps, &order, ctx.config.channel, 0)?;
    let gsfl = gsfl_round(
        env,
        &costs,
        &steps,
        &ctx.groups,
        ctx.config.bandwidth_policy,
        ctx.config.channel,
        0,
    )?;
    println!("\nSL round   : {:.2}s", sl.duration.as_secs_f64());
    println!(
        "GSFL round : {:.2}s  (speedup {:.2}×)",
        gsfl.duration.as_secs_f64(),
        sl.duration.as_secs_f64() / gsfl.duration.as_secs_f64()
    );
    let mib = |b: u64| b as f64 / (1 << 20) as f64;
    println!(
        "SL bytes   : {:.2} MiB up, {:.2} MiB down",
        mib(sl.bytes.up),
        mib(sl.bytes.down)
    );
    Ok(())
}
