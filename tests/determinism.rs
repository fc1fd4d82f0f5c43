//! The whole pipeline is deterministic: generating a workload from a seed,
//! running it, serializing the history, and measuring consistency fractions
//! must produce identical results on every run. This is what makes a logged
//! seed sufficient to reproduce any failure.

use cnet_core::fractions::{non_linearizability_fraction, non_sequential_consistency_fraction};
use cnet_core::op::Op;
use cnet_sim::engine::run;
use cnet_sim::workload::{generate, WorkloadConfig};
use cnet_topology::construct::{bitonic, periodic};
use cnet_util::json;

fn cfg() -> WorkloadConfig {
    WorkloadConfig {
        processes: 5,
        tokens_per_process: 4,
        c_min: 0.5,
        c_max: 6.0,
        local_delay: 0.0,
        start_spread: 2.0,
    }
}

#[test]
fn same_seed_gives_byte_identical_histories() {
    for net in [bitonic(8).unwrap(), periodic(8).unwrap()] {
        for seed in [0u64, 1, 42, 0xDEAD_BEEF] {
            let run_once = || {
                let specs = generate(&net, &cfg(), seed);
                let exec = run(&net, &specs).unwrap();
                json::to_string(&exec)
            };
            let first = run_once();
            let second = run_once();
            // Byte-identical serialized histories.
            assert_eq!(first, second, "{net} seed {seed}");
        }
    }
}

#[test]
fn same_seed_gives_identical_consistency_reports() {
    let net = bitonic(8).unwrap();
    for seed in 0u64..8 {
        let report = || {
            let specs = generate(&net, &cfg(), seed);
            let ops = Op::from_execution(&run(&net, &specs).unwrap());
            (
                non_linearizability_fraction(&ops).to_bits(),
                non_sequential_consistency_fraction(&ops).to_bits(),
            )
        };
        // Compare bit patterns: the fractions must match exactly, not just
        // within a tolerance.
        assert_eq!(report(), report(), "seed {seed}");
    }
}

#[test]
fn different_seeds_give_different_histories() {
    // Sanity check that the histories above are not trivially equal.
    let net = bitonic(8).unwrap();
    let exec_json = |seed| {
        let specs = generate(&net, &cfg(), seed);
        json::to_string(&run(&net, &specs).unwrap())
    };
    assert_ne!(exec_json(0), exec_json(1));
}
