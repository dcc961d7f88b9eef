//! Property-based tests for the core scheme machinery: grouping
//! invariants, latency monotonicity, DES-vs-closed-form agreement, and
//! population-scale tree aggregation / cohort sampling.

use gsfl_core::aggregate::{aggregate_snapshots, aggregate_tree};
use gsfl_core::compression::CompressionSpec;
use gsfl_core::config::GroupingKind;
use gsfl_core::grouping::{assign_groups, ClientCost};
use gsfl_core::latency::{gsfl_round, sl_round, ChannelMode, SplitCosts};
use gsfl_core::orchestrator::{
    codec_menu, validate_plan, BanditPlan, CutPolicySpec, GreedyJoint, Orchestrator, PlanQuery,
    StaticPlan,
};
use gsfl_core::population::{Population, PopulationConfig};
use gsfl_nn::model::Mlp;
use gsfl_nn::params::ParamVec;
use gsfl_tensor::rng::SeedDerive;
use gsfl_tensor::workspace::Workspace;
use gsfl_wireless::allocation::BandwidthPolicy;
use gsfl_wireless::device::DeviceProfile;
use gsfl_wireless::environment::{ChannelModel, RadioEnvironment};
use gsfl_wireless::latency::LatencyModel;
use gsfl_wireless::server::EdgeServer;
use gsfl_wireless::units::{FlopsRate, Meters};
use proptest::prelude::*;

fn model(clients: usize, slots: usize, seed: u64) -> RadioEnvironment {
    RadioEnvironment::builder(
        LatencyModel::builder()
            .clients(clients)
            .seed(seed)
            .server(EdgeServer::new(FlopsRate::from_gflops(10.0), slots).unwrap())
            .build()
            .unwrap(),
    )
    .build()
    .unwrap()
}

fn costs() -> SplitCosts {
    let net = Mlp::new(64, &[32], 5, 0).into_sequential();
    SplitCosts::compute(&net, 2, &[64], 4).unwrap()
}

/// A cheap upper estimate of the optimal makespan for the Graham-bound
/// check: OPT ≤ any feasible schedule; greedy-by-load (LPT itself) is
/// feasible, so use the analytic bound lower·(1 + max/total) which always
/// dominates OPT for these instances.
fn makespan_opt_upper(costs: &[ClientCost], groups: usize, lower: f64) -> f64 {
    let max_cost = costs.iter().map(|c| c.round_time_s).fold(0.0, f64::max);
    let _ = groups;
    lower + max_cost
}

/// Every planner — the joint orchestrators and their cut-only
/// restrictions — queried over random fleet sizes, seeds and rounds,
/// must emit a plan that passes `validate_plan`: cut ∈ candidates,
/// per-client cuts ∈ candidates, shares finite/non-negative summing to
/// ≤ 1 with positive entries for active participants, cohort within the
/// participant count.
fn orchestrator_plan_is_feasible(
    clients: usize,
    seed: u64,
    round: u64,
    epsilon: f64,
) -> std::result::Result<(), TestCaseError> {
    let env = model(clients, 4, seed);
    let net = Mlp::new(48, &[24, 16], 5, 0).into_sequential();
    let candidates: Vec<usize> = (1..net.depth()).collect();
    let costs: std::collections::BTreeMap<usize, SplitCosts> = candidates
        .iter()
        .map(|&cut| (cut, SplitCosts::compute(&net, cut, &[48], 4).unwrap()))
        .collect();
    let menu = codec_menu(&CompressionSpec::default());
    let steps = vec![2usize; clients];
    let participants: Vec<usize> = (0..clients).collect();
    let bandit = BanditPlan::new(epsilon, seed);
    let greedy = GreedyJoint::new();
    let cut_greedy = CutPolicySpec::Greedy.policy(seed).expect("adaptive");
    let cut_bandit = CutPolicySpec::Bandit { epsilon }
        .policy(seed)
        .expect("adaptive");
    let planners: [(&str, &dyn Orchestrator); 5] = [
        ("static", &StaticPlan),
        ("greedy", &greedy),
        ("bandit", &bandit),
        ("cut-only greedy", cut_greedy.as_ref()),
        ("cut-only bandit", cut_bandit.as_ref()),
    ];
    for (name, planner) in planners {
        // Ask across a few consecutive rounds so stateful planners
        // (greedy hysteresis, bandit untried-first sweep) are exercised
        // past their first decision.
        for r in round..round + 4 {
            let cond = env.conditions(r).unwrap();
            let q = PlanQuery {
                round: r,
                default_cut: candidates[0],
                candidates: &candidates,
                costs: &costs,
                codec_menu: &menu,
                conditions: &cond,
                env: &env,
                steps: &steps,
                participants: &participants,
            };
            let plan = planner.plan(&q);
            prop_assert!(
                validate_plan(&plan, &q).is_ok(),
                "{name} round {r}: infeasible plan {plan:?}"
            );
            planner.observe(r, &plan, 1.0 + (r as f64));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn orchestrators_emit_feasible_plans(
        clients in 2usize..10,
        seed in 0u64..100,
        round in 0u64..20,
        epsilon in 0.0f64..=1.0,
    ) {
        orchestrator_plan_is_feasible(clients, seed, round, epsilon)?;
    }

    #[test]
    fn grouping_is_exact_cover(
        clients in 1usize..40,
        groups in 1usize..10,
        seed in 0u64..100,
        kind_idx in 0usize..4,
    ) {
        prop_assume!(groups <= clients);
        let kind = [
            GroupingKind::RoundRobin,
            GroupingKind::Random,
            GroupingKind::ComputeBalanced,
            GroupingKind::ChannelAware,
        ][kind_idx];
        let costs: Vec<ClientCost> = (0..clients)
            .map(|i| ClientCost {
                round_time_s: 1.0 + (i as f64 * 0.7) % 5.0,
                distance_m: 10.0 + (i as f64 * 13.0) % 150.0,
            })
            .collect();
        let assignment = assign_groups(kind, clients, groups, Some(&costs), seed).unwrap();
        let mut seen = vec![false; clients];
        for g in &assignment {
            prop_assert!(!g.is_empty());
            for &c in g {
                prop_assert!(!seen[c]);
                seen[c] = true;
            }
        }
        prop_assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn lpt_satisfies_grahams_bound(
        clients in 4usize..24,
        groups in 2usize..6,
        seed in 0u64..200,
    ) {
        prop_assume!(groups <= clients);
        let costs: Vec<ClientCost> = (0..clients)
            .map(|i| {
                let x = ((i as u64 + seed) * 2654435761 % 1000) as f64;
                ClientCost { round_time_s: 0.5 + x / 200.0, distance_m: 50.0 }
            })
            .collect();
        let makespan = |assignment: &[Vec<usize>]| -> f64 {
            assignment
                .iter()
                .map(|g| g.iter().map(|&c| costs[c].round_time_s).sum::<f64>())
                .fold(0.0, f64::max)
        };
        let lpt = assign_groups(GroupingKind::ComputeBalanced, clients, groups, Some(&costs), seed).unwrap();
        // Classic lower bounds on the optimal makespan.
        let total: f64 = costs.iter().map(|c| c.round_time_s).sum();
        let max_cost = costs.iter().map(|c| c.round_time_s).fold(0.0, f64::max);
        let lower = (total / groups as f64).max(max_cost);
        let got = makespan(&lpt);
        prop_assert!(got >= lower - 1e-9, "below the optimum lower bound");
        // Graham: LPT ≤ (4/3 − 1/(3m)) · OPT; with OPT ≥ lower this gives a
        // checkable upper bound.
        let graham = (4.0 / 3.0 - 1.0 / (3.0 * groups as f64)) * makespan_opt_upper(&costs, groups, lower);
        prop_assert!(got <= graham + 1e-9, "LPT {got:.3} violates Graham bound {graham:.3}");
    }

    #[test]
    fn sl_round_monotone_in_steps(
        seed in 0u64..100,
        base_steps in 1usize..5,
    ) {
        let latency = model(4, 4, seed);
        let costs = costs();
        let order: Vec<usize> = (0..4).collect();
        let less = sl_round(&latency, &costs, &[base_steps; 4], &order, ChannelMode::Dedicated, 0).unwrap();
        let more = sl_round(&latency, &costs, &[base_steps + 1; 4], &order, ChannelMode::Dedicated, 0).unwrap();
        prop_assert!(more.duration.as_secs_f64() > less.duration.as_secs_f64());
        prop_assert!(more.bytes.up > less.bytes.up);
    }

    #[test]
    fn gsfl_round_never_beats_ideal_parallelism(
        seed in 0u64..100,
        m in 1usize..6,
    ) {
        // GSFL with M groups can never be more than M× faster than the
        // single-group chain over the same clients (no superlinear wins).
        let clients = 12;
        let latency = model(clients, 16, seed);
        let costs = costs();
        let steps = vec![2usize; clients];
        let single: Vec<Vec<usize>> = vec![(0..clients).collect()];
        let grouped: Vec<Vec<usize>> = (0..m)
            .map(|g| (0..clients).filter(|c| c % m == g).collect())
            .collect();
        let one = gsfl_round(&latency, &costs, &steps, &single, BandwidthPolicy::Equal, ChannelMode::Dedicated, 0).unwrap();
        let many = gsfl_round(&latency, &costs, &steps, &grouped, BandwidthPolicy::Equal, ChannelMode::Dedicated, 0).unwrap();
        let speedup = one.duration.as_secs_f64() / many.duration.as_secs_f64();
        prop_assert!(speedup <= m as f64 + 1e-6, "superlinear speedup {speedup} at M={m}");
        prop_assert!(speedup >= 0.95, "grouping made things much slower: {speedup}");
    }

    #[test]
    fn round_latency_deterministic_per_round_index(
        seed in 0u64..100,
        round in 0u64..50,
    ) {
        let latency = model(6, 4, seed);
        let costs = costs();
        let steps = vec![2usize; 6];
        let groups: Vec<Vec<usize>> = vec![vec![0, 1, 2], vec![3, 4, 5]];
        let a = gsfl_round(&latency, &costs, &steps, &groups, BandwidthPolicy::Equal, ChannelMode::Dedicated, round).unwrap();
        let b = gsfl_round(&latency, &costs, &steps, &groups, BandwidthPolicy::Equal, ChannelMode::Dedicated, round).unwrap();
        prop_assert_eq!(a.duration, b.duration);
        prop_assert_eq!(a.bytes, b.bytes);
    }

    #[test]
    fn faster_devices_never_slow_a_round(
        seed in 0u64..50,
    ) {
        let costs = costs();
        let steps = vec![3usize; 6];
        let order: Vec<usize> = (0..6).collect();
        let slow = RadioEnvironment::builder(LatencyModel::builder()
            .clients(6)
            .seed(seed)
            .fixed_devices(vec![DeviceProfile::new(FlopsRate::from_gflops(0.2)).unwrap(); 6])
            .fixed_distances(vec![Meters::new(80.0); 6])
            .fading(false)
            .build()
            .unwrap()).build().unwrap();
        let fast = RadioEnvironment::builder(LatencyModel::builder()
            .clients(6)
            .seed(seed)
            .fixed_devices(vec![DeviceProfile::new(FlopsRate::from_gflops(2.0)).unwrap(); 6])
            .fixed_distances(vec![Meters::new(80.0); 6])
            .fading(false)
            .build()
            .unwrap()).build().unwrap();
        let t_slow = sl_round(&slow, &costs, &steps, &order, ChannelMode::Dedicated, 0).unwrap();
        let t_fast = sl_round(&fast, &costs, &steps, &order, ChannelMode::Dedicated, 0).unwrap();
        prop_assert!(t_fast.duration.as_secs_f64() < t_slow.duration.as_secs_f64());
    }

    #[test]
    fn tree_reduction_is_bitwise_flat_for_any_partition(
        n in 1usize..7,
        dim in 1usize..32,
        seed in 0u64..1000,
        ap_mod in 1usize..5,
    ) {
        // The two-tier AP reduction must be bit-identical to the flat
        // FedAvg whatever the AP assignment and whatever order the
        // cohort's snapshots arrive in.
        use rand::seq::SliceRandom;
        use rand::Rng;
        let mut rng = SeedDerive::new(seed).child("tree-prop").rng();
        let mut contributors: Vec<(ParamVec, f64, usize)> = (0..n)
            .map(|_| {
                let values: Vec<f32> = (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
                (
                    ParamVec::from_values(values),
                    rng.gen_range(0.1f64..4.0),
                    rng.gen_range(0..ap_mod),
                )
            })
            .collect();
        // An arbitrary cohort order — both reductions see the same one.
        contributors.shuffle(&mut rng);
        let snaps: Vec<ParamVec> = contributors.iter().map(|c| c.0.clone()).collect();
        let weights: Vec<f64> = contributors.iter().map(|c| c.1).collect();
        let aps: Vec<usize> = contributors.iter().map(|c| c.2).collect();
        let flat = aggregate_snapshots(&snaps, &weights).unwrap();
        let mut ws = Workspace::new();
        let tree = aggregate_tree(&snaps, &weights, &aps, &mut ws).unwrap();
        let flat_bits: Vec<u32> = flat.values().iter().map(|v| v.to_bits()).collect();
        let tree_bits: Vec<u32> = tree.params.values().iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(flat_bits, tree_bits);
        // Every contributor is counted under exactly one AP.
        prop_assert_eq!(tree.shares.iter().map(|s| s.members).sum::<usize>(), n);
        prop_assert!(tree.shares.windows(2).all(|w| w[0].ap < w[1].ap));
    }

    #[test]
    fn cohort_sampling_is_deterministic_and_thread_invariant(
        seed in 0u64..500,
        round in 0u64..50,
        cohort in 1usize..24,
        extra in 0u64..1_000_000,
    ) {
        let spec = PopulationConfig {
            clients: cohort as u64 + extra,
            samples_per_client: 0,
        };
        let pop = Population::new(&spec, cohort, seed).unwrap();
        let base = pop.sample_cohort(round);
        prop_assert_eq!(base.len(), cohort);
        prop_assert!(base.windows(2).all(|w| w[0] < w[1]), "distinct ascending ids");
        prop_assert!(base.iter().all(|&m| m < spec.clients));
        // Sampling is a pure function of (seed, round): whichever thread
        // calls it — and however many call concurrently — the cohort is
        // identical.
        for threads in [1usize, 2, 4] {
            let results: Vec<Vec<u64>> = std::thread::scope(|s| {
                let handles: Vec<_> = (0..threads)
                    .map(|_| s.spawn(|| pop.sample_cohort(round)))
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            for r in &results {
                prop_assert_eq!(r, &base);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // Re-normalized survivor weights are a probability distribution:
    // non-negative and summing to 1 for any non-empty survivor set —
    // including the degenerate all-zero-samples case, which falls back
    // to a uniform split.
    #[test]
    fn quorum_weights_sum_to_one(
        samples in proptest::collection::vec(0usize..10_000, 1..64),
    ) {
        let w = gsfl_core::recovery::quorum_weights(&samples);
        prop_assert_eq!(w.len(), samples.len());
        prop_assert!(w.iter().all(|&x| (0.0..=1.0).contains(&x)));
        let sum: f64 = w.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-9, "sum {sum}");
    }
}
