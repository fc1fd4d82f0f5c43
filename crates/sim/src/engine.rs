//! The discrete-event replay engine.
//!
//! [`run`] takes a *uniform* network and one [`TimedTokenSpec`] per token;
//! [`run_adaptive`] takes any network and one [`AdaptiveTokenSpec`] per
//! token. Both replay every step in time order (ties broken by the token's
//! position in the spec slice, then by layer), applying the sequential
//! `BAL`/`COUNT` semantics of [`cnet_topology::state::NetworkState`]. The
//! result is a [`TimedExecution`] carrying the full step trace and one
//! [`TokenRecord`] per token. Each fact is stored once: a [`Step`] holds the
//! token, the node and the ports, 24 bytes with its time; the record holds
//! the token's process, input, value, sink and enter/exit points. A token's
//! schedule `S(T, ℓ)` is the times of its own steps, and is not copied into
//! its record.
//!
//! Both run one loop over a queue that holds **one pending step per
//! process**. Execution condition 3 of Section 2.2 says a process's tokens
//! never overlap, and the engine checks it before replaying: it sorts each
//! process's tokens and requires each token's last step to come before the
//! next token's first step in the `(time, position, layer)` order. A
//! token's own steps come layer after layer at non-decreasing times, so
//! each process's steps already form a sorted sequence, and the loop merges
//! those sequences. It pops the least key, takes that step, and puts the
//! process's next step in its place: the token's next layer, or, after a
//! `COUNT` step, the entry of the process's next token. No two keys are
//! equal, so the merge yields the one time order of all steps in
//! `O(E log P)` for `E` steps and `P` processes, holding `P` pending steps
//! rather than `E`. Times compare as `<` and `==` do, so −0.0 and 0.0 are
//! the same time.
//!
//! Uniformity matters to [`run`]: in a uniform network every source→sink
//! path crosses exactly one node per layer, so "the token's `l`-th step
//! happens at time `S(T, l)`" is well-defined *before* routing is known —
//! the paper's notion of a schedule (Section 2.3). [`run_adaptive`] instead
//! adds the next delay from a token's pool each time it moves, so its route
//! may be as long as it turns out to be.

use crate::error::SimError;
use crate::exec::{Step, TimedExecution, TimedStep, TokenRecord};
use crate::ids::{ProcessId, TokenId};
use crate::spec::{AdaptiveTokenSpec, TimedTokenSpec};
use cnet_topology::ids::{SourceId, WireId};
use cnet_topology::network::WireEnd;
use cnet_topology::state::NetworkState;
use cnet_topology::Network;
use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::{BTreeMap, BinaryHeap};

/// Replays the given token schedules through the network.
///
/// Token `i` takes its `l`-th step at `specs[i].step_times[l]`. Steps are
/// taken in `(time, position, layer)` order; since a process's tokens may
/// not overlap, that order is a merge of the processes' own step sequences
/// (see the module docs).
///
/// # Errors
///
/// * [`SimError::NotUniform`] — the network is not uniform.
/// * [`SimError::NetworkTooLarge`] — the network has more wires, or a
///   balancer more ports, than a [`Step`] can index.
/// * [`SimError::TooManyTokens`] — more specs than a [`Step`] can index.
/// * [`SimError::WrongStepCount`], [`SimError::DecreasingStepTimes`],
///   [`SimError::NonFiniteTime`], [`SimError::BadInputWire`] — a spec is
///   malformed.
/// * [`SimError::OverlappingProcessTokens`] — two tokens of the same process
///   overlap in time (execution condition 3 of Section 2.2).
///
/// # Example
///
/// ```
/// use cnet_topology::construct::bitonic;
/// use cnet_sim::spec::TimedTokenSpec;
/// use cnet_sim::ids::ProcessId;
/// use cnet_sim::engine::run;
///
/// let net = bitonic(2)?; // depth 1
/// let specs = vec![
///     TimedTokenSpec::lock_step(ProcessId(0), 0, 0.0, 1.0, 1),
///     TimedTokenSpec::lock_step(ProcessId(1), 1, 0.5, 1.0, 1),
/// ];
/// let exec = run(&net, &specs)?;
/// assert_eq!(exec.records()[0].value, 0); // first through the balancer
/// assert_eq!(exec.records()[1].value, 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn run(net: &Network, specs: &[TimedTokenSpec]) -> Result<TimedExecution, SimError> {
    if !net.is_uniform() {
        return Err(SimError::NotUniform);
    }
    replay(net, specs)
}

/// Replays **adaptive** token schedules through any network — including
/// non-uniform ones, where a token's route length depends on its routing.
///
/// A token takes its first step at its `enter_time`; each later step comes
/// `delays[hop]` after the step before it, at whichever balancer or counter
/// its wire leads to. The loop and its order are [`run`]'s, so on uniform
/// networks this agrees exactly with [`run`] applied to the
/// [`TimedTokenSpec`]s with the same delays.
///
/// # Errors
///
/// * [`SimError::WrongStepCount`] — a token's delay pool is shorter than
///   the network depth (its route might be that long).
/// * [`SimError::NetworkTooLarge`], [`SimError::TooManyTokens`],
///   [`SimError::NonFiniteTime`], [`SimError::BadInputWire`],
///   [`SimError::DecreasingStepTimes`] (negative delays),
///   [`SimError::OverlappingProcessTokens`] — as for [`run`], with the
///   overlap check using each token's *worst-case* exit time (entry plus
///   all depth delays), so the guarantee is schedule-independent.
pub fn run_adaptive(
    net: &Network,
    specs: &[AdaptiveTokenSpec],
) -> Result<TimedExecution, SimError> {
    replay(net, specs)
}

/// A token's schedule, as the replay loop reads it.
trait Schedule {
    fn process(&self) -> ProcessId;
    fn input(&self) -> usize;
    /// Checks the spec on its own, for a network of depth `depth`.
    fn check(&self, token: TokenId, depth: usize) -> Result<(), SimError>;
    /// The time of the token's first step.
    fn enter(&self) -> f64;
    /// The time of step `hop` (at least 1), the step before it having been
    /// taken at `prev`.
    fn time(&self, hop: usize, prev: f64) -> f64;
}

impl Schedule for TimedTokenSpec {
    fn process(&self) -> ProcessId {
        self.process
    }

    fn input(&self) -> usize {
        self.input
    }

    fn check(&self, token: TokenId, depth: usize) -> Result<(), SimError> {
        if self.step_times.len() != depth + 1 {
            return Err(SimError::WrongStepCount {
                token,
                got: self.step_times.len(),
                want: depth + 1,
            });
        }
        if self.step_times.iter().any(|t| !t.is_finite()) {
            return Err(SimError::NonFiniteTime { token });
        }
        if self.step_times.windows(2).any(|w| w[0] > w[1]) {
            return Err(SimError::DecreasingStepTimes { token });
        }
        Ok(())
    }

    fn enter(&self) -> f64 {
        self.step_times[0]
    }

    fn time(&self, hop: usize, _prev: f64) -> f64 {
        self.step_times[hop]
    }
}

impl Schedule for AdaptiveTokenSpec {
    fn process(&self) -> ProcessId {
        self.process
    }

    fn input(&self) -> usize {
        self.input
    }

    fn check(&self, token: TokenId, depth: usize) -> Result<(), SimError> {
        if self.delays.len() < depth {
            return Err(SimError::WrongStepCount { token, got: self.delays.len(), want: depth });
        }
        if !self.enter_time.is_finite() || self.delays.iter().any(|d| !d.is_finite()) {
            return Err(SimError::NonFiniteTime { token });
        }
        if self.delays.iter().any(|&d| d < 0.0) {
            return Err(SimError::DecreasingStepTimes { token });
        }
        Ok(())
    }

    fn enter(&self) -> f64 {
        self.enter_time
    }

    fn time(&self, hop: usize, prev: f64) -> f64 {
        prev + self.delays[hop - 1]
    }
}

/// The replay loop behind [`run`] and [`run_adaptive`] (see the module
/// docs).
fn replay<S: Schedule>(net: &Network, specs: &[S]) -> Result<TimedExecution, SimError> {
    // Every balancer and sink index is below the wire count and every port
    // below its balancer's fan, so none is truncated by the casts below.
    let max_fan = usize::from(u16::MAX) + 1;
    if u32::try_from(net.num_wires()).is_err()
        || net.balancers().any(|(_, b)| b.fan_in() > max_fan || b.fan_out() > max_fan)
    {
        return Err(SimError::NetworkTooLarge);
    }
    if u32::try_from(specs.len()).is_err() {
        return Err(SimError::TooManyTokens { count: specs.len() });
    }
    let depth = net.depth();
    for (pos, spec) in specs.iter().enumerate() {
        let token = TokenId(pos);
        spec.check(token, depth)?;
        if spec.input() >= net.fan_in() {
            return Err(SimError::BadInputWire { token, input: spec.input() });
        }
    }

    /// A process: its tokens still to enter, and where and when its pending
    /// step is.
    struct Lane {
        tokens: std::vec::IntoIter<usize>,
        wire: WireId,
        time: f64,
    }
    let enter = |pos: usize| (net.source_wire(SourceId(specs[pos].input())), specs[pos].enter());
    // The pending step of each lane, keyed by (time, token position, hop).
    let mut queue = BinaryHeap::new();
    let mut lanes = Vec::new();
    for (slot, tokens) in process_order(specs, depth)?.into_iter().enumerate() {
        let mut tokens = tokens.into_iter();
        let pos = tokens.next().expect("every process has a token");
        let (wire, time) = enter(pos);
        queue.push(Reverse((time_key(time), pos, 0, slot)));
        lanes.push(Lane { tokens, wire, time });
    }

    let mut state = NetworkState::new(net);
    let mut steps: Vec<TimedStep> = Vec::with_capacity(specs.len() * (depth + 1));
    let mut records: Vec<TokenRecord> = specs
        .iter()
        .enumerate()
        .map(|(pos, spec)| TokenRecord {
            token: TokenId(pos),
            process: spec.process(),
            input: spec.input(),
            enter_time: 0.0,
            exit_time: 0.0,
            enter_seq: 0,
            exit_seq: 0,
            sink: 0,
            value: 0,
        })
        .collect();

    while let Some(mut pending) = queue.peek_mut() {
        let Reverse((_, pos, hop, slot)) = *pending;
        let lane = &mut lanes[slot];
        let (time, seq) = (lane.time, steps.len());
        let record = &mut records[pos];
        let token = pos as u32;
        if hop == 0 {
            (record.enter_time, record.enter_seq) = (time, seq);
        }
        let step = match net.wire(lane.wire).end {
            WireEnd::Balancer { balancer, port } => {
                let out_port = state.balancer_step(net, balancer);
                lane.wire = net.balancer(balancer).output(out_port);
                lane.time = specs[pos].time(hop + 1, time);
                *pending = Reverse((time_key(lane.time), pos, hop + 1, slot));
                Step::Bal {
                    token,
                    balancer: balancer.index() as u32,
                    in_port: port as u16,
                    out_port: out_port as u16,
                }
            }
            WireEnd::Sink(sink) => {
                let value = state.counter_step(net, sink);
                (record.exit_time, record.exit_seq) = (time, seq);
                (record.sink, record.value) = (sink.index(), value);
                match lane.tokens.next() {
                    Some(next) => {
                        (lane.wire, lane.time) = enter(next);
                        *pending = Reverse((time_key(lane.time), next, 0, slot));
                    }
                    None => {
                        PeekMut::pop(pending);
                    }
                }
                Step::Count { token, sink: sink.index() as u32 }
            }
        };
        steps.push(TimedStep { time, step });
    }

    Ok(TimedExecution::new(depth, net.fan_out(), steps, records))
}

/// Groups the tokens by process, each process's in the order it runs them,
/// and checks execution condition 3: a token's last step must come before
/// the process's next token's first step in the `(time, position, layer)`
/// order. An adaptive token's last step is bounded by its worst case, all
/// `depth` delays after entry, summed as the loop sums them.
fn process_order<S: Schedule>(specs: &[S], depth: usize) -> Result<Vec<Vec<usize>>, SimError> {
    let mut by_process: BTreeMap<ProcessId, Vec<usize>> = BTreeMap::new();
    for (pos, spec) in specs.iter().enumerate() {
        by_process.entry(spec.process()).or_default().push(pos);
    }
    for (&process, positions) in &mut by_process {
        positions.sort_by_key(|&pos| (time_key(specs[pos].enter()), pos));
        for pair in positions.windows(2) {
            let (a, b) = (pair[0], pair[1]);
            let exit = (1..=depth).fold(specs[a].enter(), |t, hop| specs[a].time(hop, t));
            if (time_key(exit), a) > (time_key(specs[b].enter()), b) {
                return Err(SimError::OverlappingProcessTokens {
                    process,
                    tokens: (TokenId(a), TokenId(b)),
                });
            }
        }
    }
    Ok(by_process.into_values().collect())
}

/// An integer in the order `<` and `==` give finite times, so −0.0 and 0.0
/// have one key.
fn time_key(time: f64) -> u64 {
    let bits = (time + 0.0).to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnet_topology::construct::{bitonic, counting_tree, identity};
    use cnet_topology::LayeredBuilder;

    fn spec(p: usize, input: usize, times: &[f64]) -> TimedTokenSpec {
        TimedTokenSpec { process: ProcessId(p), input, step_times: times.to_vec() }
    }

    #[test]
    fn single_token_traverses_and_counts() {
        let net = bitonic(4).unwrap(); // depth 3
        let specs = vec![spec(0, 0, &[0.0, 1.0, 2.0, 3.0])];
        let exec = run(&net, &specs).unwrap();
        assert_eq!(exec.steps().len(), 4);
        let r = &exec.records()[0];
        assert_eq!(r.value, 0);
        assert_eq!(r.sink, 0);
        assert_eq!(r.enter_time, 0.0);
        assert_eq!(r.exit_time, 3.0);
        assert_eq!(r.enter_seq, 0);
        assert_eq!(r.exit_seq, 3);
    }

    #[test]
    fn time_order_determines_values() {
        let net = bitonic(2).unwrap();
        // Token 1 (listed second) runs earlier in time, so it gets value 0.
        let specs = vec![spec(0, 0, &[5.0, 6.0]), spec(1, 1, &[0.0, 1.0])];
        let exec = run(&net, &specs).unwrap();
        assert_eq!(exec.records()[0].value, 1);
        assert_eq!(exec.records()[1].value, 0);
    }

    #[test]
    fn ties_broken_by_slice_position() {
        let net = bitonic(2).unwrap();
        let specs = vec![spec(0, 0, &[0.0, 1.0]), spec(1, 1, &[0.0, 1.0])];
        let exec = run(&net, &specs).unwrap();
        // Same times: position 0 steps first at each node.
        assert_eq!(exec.records()[0].value, 0);
        assert_eq!(exec.records()[1].value, 1);
    }

    #[test]
    fn overtaking_inside_the_network() {
        // Two tokens on the same input of B(2): the first is slow, the second
        // starts later but arrives at the counter first... they share the
        // balancer, so the first to reach the *balancer* wins the top wire.
        let net = bitonic(2).unwrap();
        let specs = vec![
            spec(0, 0, &[0.0, 100.0]), // slow wire to the counter
            spec(1, 1, &[1.0, 2.0]),
        ];
        let exec = run(&net, &specs).unwrap();
        // Token 0 passed the balancer first -> sink 0, but counts later; the
        // values come from different counters so both get their sink's first
        // value.
        assert_eq!(exec.records()[0].sink, 0);
        assert_eq!(exec.records()[1].sink, 1);
        assert_eq!(exec.records()[0].value, 0);
        assert_eq!(exec.records()[1].value, 1);
    }

    #[test]
    fn identity_network_counts_by_arrival() {
        let net = identity(2).unwrap(); // depth 0: specs have 1 step time
        let specs = vec![spec(0, 1, &[3.0]), spec(1, 1, &[1.0])];
        // both tokens on input wire 1 -> same counter; wire 1's counter
        // hands out 1, then 3.
        let exec = run(&net, &specs).unwrap();
        assert_eq!(exec.records()[1].value, 1);
        assert_eq!(exec.records()[0].value, 3);
    }

    #[test]
    fn tree_round_robins_under_time_order() {
        let net = counting_tree(4).unwrap(); // depth 2
        let specs: Vec<_> =
            (0..8).map(|k| spec(k, 0, &[k as f64, k as f64 + 0.5, k as f64 + 1.0])).collect();
        let exec = run(&net, &specs).unwrap();
        for (k, r) in exec.records().iter().enumerate() {
            assert_eq!(r.value, k as u64);
            assert_eq!(r.sink, k % 4);
        }
    }

    #[test]
    fn non_uniform_network_is_rejected() {
        let mut lb = LayeredBuilder::new(3);
        lb.balancer(&[0, 1]);
        let net = lb.finish().unwrap();
        let err = run(&net, &[]).unwrap_err();
        assert_eq!(err, SimError::NotUniform);
    }

    /// One `(1, fan_out)`-balancer from the only source to `fan_out` sinks.
    fn fan_out_balancer(fan_out: usize) -> Network {
        use cnet_topology::{NetworkBuilder, SinkId, WireStart};
        let mut nb = NetworkBuilder::new(1, fan_out);
        let balancer = nb.add_balancer(1, fan_out);
        nb.connect(WireStart::Source(SourceId(0)), WireEnd::Balancer { balancer, port: 0 })
            .unwrap();
        for port in 0..fan_out {
            let end = WireEnd::Sink(SinkId(port));
            nb.connect(WireStart::Balancer { balancer, port }, end).unwrap();
        }
        nb.finish().unwrap()
    }

    #[test]
    fn a_balancer_with_more_ports_than_a_step_holds_is_refused() {
        // Ports are `u16`: 65,536 of them fit, one more would be truncated.
        let wide = fan_out_balancer(usize::from(u16::MAX) + 2);
        assert_eq!(run(&wide, &[spec(0, 0, &[0.0, 1.0])]).unwrap_err(), SimError::NetworkTooLarge);
        let widest = fan_out_balancer(usize::from(u16::MAX) + 1);
        let exec = run(&widest, &[spec(0, 0, &[0.0, 1.0])]).unwrap();
        assert_eq!(exec.records()[0].value, 0);
    }

    #[test]
    fn wrong_step_count_is_rejected() {
        let net = bitonic(4).unwrap();
        let err = run(&net, &[spec(0, 0, &[0.0, 1.0])]).unwrap_err();
        assert!(matches!(err, SimError::WrongStepCount { want: 4, got: 2, .. }));
    }

    #[test]
    fn decreasing_times_are_rejected() {
        let net = bitonic(2).unwrap();
        let err = run(&net, &[spec(0, 0, &[1.0, 0.5])]).unwrap_err();
        assert!(matches!(err, SimError::DecreasingStepTimes { .. }));
    }

    #[test]
    fn non_finite_times_are_rejected() {
        let net = bitonic(2).unwrap();
        let err = run(&net, &[spec(0, 0, &[0.0, f64::NAN])]).unwrap_err();
        assert!(matches!(err, SimError::NonFiniteTime { .. }));
    }

    #[test]
    fn bad_input_wire_is_rejected() {
        let net = bitonic(2).unwrap();
        let err = run(&net, &[spec(0, 5, &[0.0, 1.0])]).unwrap_err();
        assert!(matches!(err, SimError::BadInputWire { input: 5, .. }));
    }

    #[test]
    fn overlapping_tokens_of_one_process_are_rejected() {
        let net = bitonic(2).unwrap();
        let specs = vec![spec(0, 0, &[0.0, 10.0]), spec(0, 0, &[5.0, 6.0])];
        let err = run(&net, &specs).unwrap_err();
        assert!(matches!(err, SimError::OverlappingProcessTokens { .. }));
    }

    #[test]
    fn back_to_back_tokens_of_one_process_are_accepted() {
        let net = bitonic(2).unwrap();
        // Second token enters exactly when the first exits; position order
        // resolves the tie.
        let specs = vec![spec(0, 0, &[0.0, 1.0]), spec(0, 0, &[1.0, 2.0])];
        let exec = run(&net, &specs).unwrap();
        assert!(exec.records()[0].completely_precedes(&exec.records()[1]));
    }

    #[test]
    fn a_token_entering_at_negative_zero_waits_for_its_process() {
        // -0.0 == 0.0, so the first token's exit and the second's entry tie
        // and position puts the first token's COUNT step first.
        let net = bitonic(2).unwrap();
        let specs = vec![spec(0, 0, &[-1.0, 0.0]), spec(0, 0, &[-0.0, 1.0])];
        let exec = run(&net, &specs).unwrap();
        crate::validate::validate(&net, &exec).unwrap();
        assert!(exec.records()[0].completely_precedes(&exec.records()[1]));
    }

    #[test]
    fn a_step_at_negative_zero_after_zero_keeps_its_layer_order() {
        let net = bitonic(2).unwrap();
        let exec = run(&net, &[spec(0, 0, &[0.0, -0.0])]).unwrap();
        crate::validate::validate(&net, &exec).unwrap();
        let r = &exec.records()[0];
        assert_eq!((r.enter_seq, r.exit_seq), (0, 1));
        assert!(matches!(exec.steps()[0].step, Step::Bal { .. }));
    }

    #[test]
    fn adaptive_agrees_with_layered_engine_on_uniform_networks() {
        use crate::spec::AdaptiveTokenSpec;
        use crate::workload::{generate, WorkloadConfig};
        let net = bitonic(8).unwrap();
        let cfg = WorkloadConfig {
            processes: 6,
            tokens_per_process: 5,
            c_min: 0.5,
            c_max: 4.0,
            local_delay: 0.1,
            start_spread: 2.0,
        };
        for seed in 0..10 {
            let specs = generate(&net, &cfg, seed);
            let adaptive: Vec<AdaptiveTokenSpec> = specs.iter().map(Into::into).collect();
            let a = run(&net, &specs).unwrap();
            let b = run_adaptive(&net, &adaptive).unwrap();
            assert_eq!(a, b, "seed {seed}");
        }
    }

    #[test]
    fn adaptive_runs_non_uniform_networks() {
        use crate::spec::AdaptiveTokenSpec;
        use cnet_topology::construct::append_adjacent_balancer;
        let base = bitonic(4).unwrap();
        let net = append_adjacent_balancer(&base, 1).unwrap();
        assert!(!net.is_uniform());
        let specs: Vec<AdaptiveTokenSpec> = (0..20)
            .map(|k| {
                AdaptiveTokenSpec::lock_step(ProcessId(k), k % 4, k as f64 * 0.3, 1.0, net.depth())
            })
            .collect();
        let exec = run_adaptive(&net, &specs).unwrap();
        let mut values = exec.values();
        values.sort_unstable();
        assert_eq!(values, (0..20).collect::<Vec<_>>());
        // Tokens routed through the extra balancer took one more hop.
        let mut lens = vec![0; specs.len()];
        for s in exec.steps() {
            lens[s.step.token().index()] += 1;
        }
        assert!(lens.iter().any(|&l| l == net.depth() + 1));
        assert!(lens.iter().any(|&l| l == net.depth()));
        // The independent validator accepts the execution.
        crate::validate::validate(&net, &exec).unwrap();
    }

    #[test]
    fn adaptive_rejects_short_delay_pools_and_negative_delays() {
        use crate::spec::AdaptiveTokenSpec;
        let net = bitonic(4).unwrap(); // depth 3
        let short = AdaptiveTokenSpec {
            process: ProcessId(0),
            input: 0,
            enter_time: 0.0,
            delays: vec![1.0, 1.0],
        };
        assert!(matches!(
            run_adaptive(&net, &[short]).unwrap_err(),
            SimError::WrongStepCount { .. }
        ));
        let negative = AdaptiveTokenSpec {
            process: ProcessId(0),
            input: 0,
            enter_time: 0.0,
            delays: vec![1.0, -1.0, 1.0],
        };
        assert!(matches!(
            run_adaptive(&net, &[negative]).unwrap_err(),
            SimError::DecreasingStepTimes { .. }
        ));
    }

    #[test]
    fn adaptive_rejects_worst_case_overlap() {
        use crate::spec::AdaptiveTokenSpec;
        let net = bitonic(2).unwrap();
        let specs = vec![
            AdaptiveTokenSpec::lock_step(ProcessId(0), 0, 0.0, 5.0, 1),
            AdaptiveTokenSpec::lock_step(ProcessId(0), 0, 2.0, 1.0, 1),
        ];
        assert!(matches!(
            run_adaptive(&net, &specs).unwrap_err(),
            SimError::OverlappingProcessTokens { .. }
        ));
    }

    #[test]
    fn values_are_gap_free_under_any_schedule() {
        let net = bitonic(8).unwrap();
        let d = net.depth();
        let specs: Vec<_> = (0..40)
            .map(|k| {
                TimedTokenSpec::lock_step(
                    ProcessId(k),
                    k % 8,
                    (k as f64) * 0.37,
                    1.0 + (k % 3) as f64,
                    d,
                )
            })
            .collect();
        let exec = run(&net, &specs).unwrap();
        let mut vs = exec.values();
        vs.sort_unstable();
        assert_eq!(vs, (0..40).collect::<Vec<_>>());
    }

    /// The algorithm the merge replaced, kept as its reference: one event
    /// per `(token, layer)`, stable-sorted by `(time, position, layer)`,
    /// replayed in that order. Returns the `(token, layer, time)` sequence
    /// and the records.
    fn sorted_reference(
        net: &Network,
        specs: &[TimedTokenSpec],
    ) -> (Vec<(TokenId, usize, f64)>, Vec<TokenRecord>) {
        let mut events: Vec<(f64, usize, usize)> = Vec::new();
        for (pos, spec) in specs.iter().enumerate() {
            for (layer, &t) in spec.step_times.iter().enumerate() {
                events.push((t, pos, layer));
            }
        }
        events.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)));
        let mut state = NetworkState::new(net);
        let mut wire: Vec<WireId> =
            specs.iter().map(|s| net.source_wire(SourceId(s.input))).collect();
        let mut records: Vec<TokenRecord> = specs
            .iter()
            .enumerate()
            .map(|(pos, s)| TokenRecord {
                token: TokenId(pos),
                process: s.process,
                input: s.input,
                enter_time: s.enter_time(),
                exit_time: s.exit_time(),
                enter_seq: 0,
                exit_seq: 0,
                sink: 0,
                value: 0,
            })
            .collect();
        for (seq, &(_, pos, layer)) in events.iter().enumerate() {
            let r = &mut records[pos];
            if layer == 0 {
                r.enter_seq = seq;
            }
            match net.wire(wire[pos]).end {
                WireEnd::Balancer { balancer, .. } => {
                    let out = state.balancer_step(net, balancer);
                    wire[pos] = net.balancer(balancer).output(out);
                }
                WireEnd::Sink(sink) => {
                    (r.sink, r.value, r.exit_seq) =
                        (sink.index(), state.counter_step(net, sink), seq);
                }
            }
        }
        (events.iter().map(|&(t, pos, layer)| (TokenId(pos), layer, t)).collect(), records)
    }

    use cnet_util::proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Merging one pending step per process takes every step in the
        /// sorted order, and records what the sorted replay records: on
        /// random workloads over bitonic, periodic, tree and depth-0
        /// networks, with specs shuffled across processes, lock-step ties,
        /// back-to-back tokens (`a_exit == b_enter`) and one-token processes.
        #[test]
        fn merge_keeps_the_sorted_order(
            family in 0usize..4,
            lgw in 1usize..4,
            seed in 0u64..1000,
            processes in 1usize..7,
            tokens in 1usize..5,
            lock_step in proptest::bool::ANY,
            back_to_back in proptest::bool::ANY,
            shuffle in proptest::bool::ANY,
        ) {
            use crate::workload::{generate, WorkloadConfig};
            use cnet_topology::construct::periodic;
            use cnet_util::rng::{Rng, SeedableRng, StdRng};
            let w = 1 << lgw;
            let net = match family {
                0 => bitonic(w),
                1 => periodic(w),
                2 => counting_tree(w),
                _ => identity(w),
            }
            .unwrap();
            let cfg = WorkloadConfig {
                processes,
                tokens_per_process: tokens,
                c_min: 1.0,
                c_max: if lock_step { 1.0 } else { 3.0 },
                local_delay: if back_to_back { 0.0 } else { 0.5 },
                start_spread: if lock_step { 0.0 } else { 2.0 },
            };
            let mut specs = generate(&net, &cfg, seed);
            if shuffle {
                // Interleave the processes across the slice. Each keeps its
                // own tokens in order, so a back-to-back tie stays valid.
                let mut owners: Vec<usize> = specs.iter().map(|s| s.process.index()).collect();
                StdRng::seed_from_u64(seed).shuffle(&mut owners);
                let mut own: Vec<_> = specs.chunks(tokens).map(|c| c.iter()).collect();
                specs = owners.iter().map(|&p| own[p].next().unwrap().clone()).collect();
            }
            let exec = run(&net, &specs).unwrap();
            let mut layers = vec![0; specs.len()];
            let merged: Vec<(TokenId, usize, f64)> = exec
                .steps()
                .iter()
                .map(|s| {
                    let token = s.step.token();
                    layers[token.index()] += 1;
                    (token, layers[token.index()] - 1, s.time)
                })
                .collect();
            let (sorted, records) = sorted_reference(&net, &specs);
            prop_assert_eq!(&merged, &sorted);
            prop_assert_eq!(exec.records(), &records[..]);
            // A token's schedule lives only in its steps: read back from
            // `steps()`, each token's times are its spec's.
            let mut times: Vec<Vec<f64>> = vec![Vec::new(); specs.len()];
            for &(token, _, time) in &merged {
                times[token.index()].push(time);
            }
            for (spec, times) in specs.iter().zip(&times) {
                prop_assert_eq!(&spec.step_times, times);
            }
            // The identity network does not count: its quiescent outputs
            // need not have the step property the validator requires.
            let validated = crate::validate::validate(&net, &exec).map_err(|e| e.to_string());
            match validated {
                Err(e) if family == 3 => prop_assert!(e.contains("step property"), "{e}"),
                other => prop_assert!(other.is_ok(), "{other:?}"),
            }
        }
    }
}
