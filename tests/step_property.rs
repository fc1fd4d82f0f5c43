//! Sequential (one-token-at-a-time) executions of the two classic
//! constructions, checked end to end: `topology::construct` builds the
//! network, `sim::exec` runs it, and the produced step sequence must satisfy
//! the step property and gap-free counting.

use cnet_sim::engine::run;
use cnet_sim::ids::ProcessId;
use cnet_sim::spec::TimedTokenSpec;
use cnet_sim::validate::validate;
use cnet_topology::construct::{bitonic, periodic};
use cnet_topology::state::has_step_property;
use cnet_topology::Network;

/// One token at a time, round-robin over the inputs: token `k` enters on
/// wire `k mod 4` in its own disjoint time window.
fn sequential_specs(net: &Network, tokens: usize) -> Vec<TimedTokenSpec> {
    (0..tokens)
        .map(|k| {
            TimedTokenSpec::lock_step(
                ProcessId(k),
                k % net.fan_in(),
                10.0 * k as f64,
                1.0,
                net.depth(),
            )
        })
        .collect()
}

fn check_sequential(net: &Network, tokens: usize) {
    let specs = sequential_specs(net, tokens);
    let exec = run(net, &specs).unwrap();

    // The executor produced a non-empty, time-ordered step sequence with one
    // COUNT step per token.
    assert_eq!(exec.records().len(), tokens);
    assert!(exec.steps().len() >= tokens);
    assert!(exec.steps().windows(2).all(|w| w[0].time <= w[1].time));

    // Every prefix of a sequential execution is quiescent between tokens, so
    // the output counts after all tokens must have the step property...
    let mut counts = vec![0u64; net.fan_out()];
    for r in exec.records() {
        counts[r.sink] += 1;
    }
    assert!(has_step_property(&counts), "{counts:?}");

    // ...and the independent validator must accept the whole trace.
    let summary = validate(net, &exec).unwrap();
    assert_eq!(summary.tokens, tokens as u64);

    // Values are handed out gap-free, in order for a serialized schedule.
    let values = exec.values();
    assert_eq!(values, (0..tokens as u64).collect::<Vec<_>>());
}

#[test]
fn bitonic_4_sequential_execution_counts() {
    let net = bitonic(4).unwrap();
    assert_eq!(net.depth(), 3);
    for tokens in [1, 4, 9] {
        check_sequential(&net, tokens);
    }
}

#[test]
fn periodic_4_sequential_execution_counts() {
    let net = periodic(4).unwrap();
    for tokens in [1, 4, 9] {
        check_sequential(&net, tokens);
    }
}
