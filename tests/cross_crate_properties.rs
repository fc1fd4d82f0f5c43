//! Cross-crate property-based tests: random networks, random schedules,
//! and the invariants that must survive their composition.

use cnet_core::consistency::{is_linearizable, is_sequentially_consistent};
use cnet_core::fractions::{non_linearizable_ops, non_sequentially_consistent_ops};
use cnet_core::op::Op;
use cnet_sim::engine::run;
use cnet_sim::spec::TimedTokenSpec;
use cnet_sim::workload::{generate, WorkloadConfig};
use cnet_sim::TimingParams;
use cnet_topology::construct::{bitonic, cascade, counting_tree, periodic};
use cnet_topology::state::{has_step_property, NetworkState};
use cnet_topology::Network;
use cnet_util::proptest::prelude::*;

/// A strategy over the classic counting networks.
fn classic_network() -> impl Strategy<Value = Network> {
    (0usize..3, 1usize..4).prop_map(|(family, lgw)| {
        let w = 1 << lgw;
        match family {
            0 => bitonic(w).unwrap(),
            1 => periodic(w).unwrap(),
            _ => counting_tree(w).unwrap(),
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Whatever the schedule, an execution hands out exactly 0..n.
    #[test]
    fn values_are_always_gap_free(
        net in classic_network(),
        seed in 0u64..1000,
        processes in 1usize..6,
        tokens in 1usize..6,
        ratio in 1.0f64..20.0,
    ) {
        let cfg = WorkloadConfig {
            processes,
            tokens_per_process: tokens,
            c_min: 1.0,
            c_max: ratio,
            local_delay: 0.0,
            start_spread: 3.0,
        };
        let specs = generate(&net, &cfg, seed);
        let exec = run(&net, &specs).unwrap();
        let mut values = exec.values();
        values.sort_unstable();
        let n = (processes * tokens) as u64;
        prop_assert_eq!(values, (0..n).collect::<Vec<_>>());
    }

    /// Non-SC tokens are always a subset of non-linearizable tokens, and
    /// the boolean checkers agree with the (emptiness of the) token sets.
    #[test]
    fn checker_coherence(
        net in classic_network(),
        seed in 0u64..1000,
        ratio in 1.0f64..30.0,
    ) {
        let cfg = WorkloadConfig {
            processes: 5,
            tokens_per_process: 4,
            c_min: 0.5,
            c_max: 0.5 * ratio,
            local_delay: 0.0,
            start_spread: 1.0,
        };
        let specs = generate(&net, &cfg, seed);
        let exec = run(&net, &specs).unwrap();
        let ops = Op::from_execution(&exec);
        let nl = non_linearizable_ops(&ops);
        let nsc = non_sequentially_consistent_ops(&ops);
        for t in &nsc {
            prop_assert!(nl.contains(t), "non-SC must imply non-linearizable");
        }
        prop_assert_eq!(is_linearizable(&ops), nl.is_empty());
        prop_assert_eq!(is_sequentially_consistent(&ops), nsc.is_empty());
    }

    /// The timed engine and the instantaneous reference semantics agree on
    /// any schedule in which tokens traverse one at a time.
    #[test]
    fn engine_matches_reference_on_serialized_schedules(
        net in classic_network(),
        order_seed in 0u64..1000,
        tokens in 1usize..20,
    ) {
        let d = net.depth();
        // Token k occupies the disjoint time window [10k, 10k + d].
        let mut state = order_seed;
        let mut next_input = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) as usize % net.fan_in()
        };
        let inputs: Vec<usize> = (0..tokens).map(|_| next_input()).collect();
        let specs: Vec<TimedTokenSpec> = inputs
            .iter()
            .enumerate()
            .map(|(k, &input)| {
                TimedTokenSpec::lock_step(
                    cnet_sim::ids::ProcessId(k),
                    input,
                    10.0 * k as f64,
                    1.0,
                    d,
                )
            })
            .collect();
        let exec = run(&net, &specs).unwrap();
        let mut reference = NetworkState::new(&net);
        for (k, &input) in inputs.iter().enumerate() {
            prop_assert_eq!(exec.records()[k].value, reference.traverse(&net, input).value);
        }
        // Fully serialized executions are linearizable.
        prop_assert!(is_linearizable(&Op::from_execution(&exec)));
    }

    /// Quiescent output counts satisfy the step property for any schedule —
    /// the defining property of a counting network, under time-driven
    /// interleavings rather than the sequential reference.
    #[test]
    fn step_property_under_timed_interleavings(
        net in classic_network(),
        seed in 0u64..1000,
    ) {
        let cfg = WorkloadConfig {
            processes: 7,
            tokens_per_process: 5,
            c_min: 0.1,
            c_max: 9.0,
            local_delay: 0.0,
            start_spread: 2.0,
        };
        let specs = generate(&net, &cfg, seed);
        let exec = run(&net, &specs).unwrap();
        let mut counts = vec![0u64; net.fan_out()];
        for r in exec.records() {
            counts[r.sink] += 1;
        }
        prop_assert!(has_step_property(&counts), "{:?}", counts);
    }

    /// Cascading counting networks preserves counting (used by the periodic
    /// construction); the composite still counts under timed interleavings.
    #[test]
    fn cascades_still_count(
        lgw in 1usize..3,
        seed in 0u64..500,
    ) {
        let w = 1 << lgw;
        let b = bitonic(w).unwrap();
        let p = periodic(w).unwrap();
        let net = cascade(&[&b, &p]).unwrap();
        let cfg = WorkloadConfig {
            processes: w,
            tokens_per_process: 4,
            c_min: 1.0,
            c_max: 7.0,
            local_delay: 0.0,
            start_spread: 2.0,
        };
        let specs = generate(&net, &cfg, seed);
        let exec = run(&net, &specs).unwrap();
        let mut counts = vec![0u64; w];
        for r in exec.records() {
            counts[r.sink] += 1;
        }
        prop_assert!(has_step_property(&counts));
    }

    /// The adaptive event-queue engine and the layered sort-based engine
    /// agree step for step on uniform networks, for arbitrary schedules.
    #[test]
    fn adaptive_engine_matches_layered_engine(
        net in classic_network(),
        seed in 0u64..1000,
        ratio in 1.0f64..10.0,
    ) {
        use cnet_sim::engine::run_adaptive;
        use cnet_sim::spec::AdaptiveTokenSpec;
        let cfg = WorkloadConfig {
            processes: 5,
            tokens_per_process: 4,
            c_min: 1.0,
            c_max: ratio,
            local_delay: 0.2,
            start_spread: 2.0,
        };
        let specs = generate(&net, &cfg, seed);
        let adaptive: Vec<AdaptiveTokenSpec> = specs.iter().map(Into::into).collect();
        let a = run(&net, &specs).unwrap();
        let b = run_adaptive(&net, &adaptive).unwrap();
        for (ra, rb) in a.records().iter().zip(b.records()) {
            prop_assert_eq!(ra.value, rb.value);
            prop_assert_eq!(ra.sink, rb.sink);
        }
    }

    /// Non-uniform extensions of counting networks still count under timed
    /// interleavings (adaptive engine), and the independent validator
    /// accepts every produced execution.
    #[test]
    fn extended_networks_count_under_timed_interleavings(
        lgw in 1usize..4,
        pair_seed in 0usize..8,
        seed in 0u64..500,
    ) {
        use cnet_sim::engine::run_adaptive;
        use cnet_sim::spec::AdaptiveTokenSpec;
        use cnet_sim::validate::validate;
        use cnet_topology::construct::append_adjacent_balancer;
        use cnet_util::rng::{Rng, SeedableRng, StdRng};
        let w = 1usize << lgw;
        let base = bitonic(w).unwrap();
        let net = append_adjacent_balancer(&base, pair_seed % (w - 1).max(1)).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut specs = Vec::new();
        for p in 0..5usize {
            let mut t = rng.random_range(0.0..2.0);
            for _ in 0..3 {
                let delays: Vec<f64> =
                    (0..net.depth()).map(|_| rng.random_range(1.0..6.0)).collect();
                let worst = t + delays.iter().sum::<f64>();
                specs.push(AdaptiveTokenSpec {
                    process: cnet_sim::ids::ProcessId(p),
                    input: p % net.fan_in(),
                    enter_time: t,
                    delays,
                });
                t = worst + 0.1;
            }
        }
        let exec = run_adaptive(&net, &specs).unwrap();
        let summary = validate(&net, &exec).unwrap();
        prop_assert_eq!(summary.tokens, 15);
        let mut values = exec.values();
        values.sort_unstable();
        prop_assert_eq!(values, (0..15).collect::<Vec<_>>());
    }

    /// Measured timing parameters always lie inside the generator's envelope.
    #[test]
    fn measured_parameters_respect_the_envelope(
        net in classic_network(),
        seed in 0u64..1000,
        c_min in 0.5f64..2.0,
        spread in 1.0f64..4.0,
        local in 0.0f64..3.0,
    ) {
        let c_max = c_min * spread;
        let cfg = WorkloadConfig {
            processes: 4,
            tokens_per_process: 3,
            c_min,
            c_max,
            local_delay: local,
            start_spread: 2.0,
        };
        let specs = generate(&net, &cfg, seed);
        let exec = run(&net, &specs).unwrap();
        let params = TimingParams::measure(&exec);
        if net.depth() > 0 {
            prop_assert!(params.c_min.unwrap() >= c_min - 1e-12);
            prop_assert!(params.c_max.unwrap() <= c_max + 1e-12);
        }
        if let Some(cl) = params.local_delay {
            prop_assert!(cl >= local - 1e-12);
        }
    }
}
