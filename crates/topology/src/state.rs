//! Sequential token semantics: balancer states, counters, and the step
//! property.
//!
//! [`NetworkState`] is the semantic reference for a balancing network: it
//! routes one token at a time, instantaneously, exactly as the paper's
//! transition steps `BAL` and `COUNT` prescribe (Section 2.2). The timed
//! simulator in `cnet-sim` interleaves *partial* traversals; it uses the same
//! state-update rules and is checked against this reference.

use crate::ids::{BalancerId, SinkId, SourceId, WireId};
use crate::network::{Network, WireEnd};
use cnet_util::json_struct;

/// One balancer transition step taken by a token: the paper's
/// `BAL(T, B, i, j)` with the token and process left implicit.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct BalancerStep {
    /// The balancer traversed.
    pub balancer: BalancerId,
    /// The input port the token entered on.
    pub in_port: usize,
    /// The output port the token exited on.
    pub out_port: usize,
}

json_struct!(BalancerStep { balancer, in_port, out_port });

/// The complete route of one token through the network, ending at a counter:
/// a sequence of `BAL` steps followed by one `COUNT` step.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Traversal {
    /// The input wire the token entered on.
    pub input: SourceId,
    /// The sink (counter) the token reached.
    pub sink: SinkId,
    /// The value the counter assigned.
    pub value: u64,
    /// The balancer steps, in order.
    pub path: Vec<BalancerStep>,
}

json_struct!(Traversal { input, sink, value, path });

/// Mutable state of a network: one round-robin pointer per balancer and one
/// counter per sink, plus history variables (token counts per input and
/// output wire).
///
/// # Example
///
/// ```
/// use cnet_topology::construct::bitonic;
/// use cnet_topology::state::NetworkState;
///
/// let net = bitonic(4)?;
/// let mut st = NetworkState::new(&net);
/// // Alternate tokens between inputs 0 and 2.
/// let values: Vec<u64> = (0..8).map(|k| st.traverse(&net, k % 2 * 2).value).collect();
/// let mut sorted = values.clone();
/// sorted.sort_unstable();
/// assert_eq!(sorted, (0..8).collect::<Vec<_>>()); // no gaps, no duplicates
/// assert!(st.output_counts_have_step_property());
/// # Ok::<(), cnet_topology::BuildError>(())
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NetworkState {
    /// Next output port for each balancer (the paper's state `s`, 0-based).
    balancer_state: Vec<usize>,
    /// Next value each sink's counter will hand out.
    counter_state: Vec<u64>,
    /// Tokens entered per input wire (history variable `x_i`).
    tokens_in: Vec<u64>,
    /// Tokens exited per output wire (history variable `y_j`).
    tokens_out: Vec<u64>,
}

json_struct!(NetworkState { balancer_state, counter_state, tokens_in, tokens_out });

impl NetworkState {
    /// The initial network state: all balancers at state 0, counter `j`
    /// poised to hand out `j`.
    pub fn new(net: &Network) -> Self {
        NetworkState {
            balancer_state: vec![0; net.size()],
            counter_state: (0..net.fan_out() as u64).collect(),
            tokens_in: vec![0; net.fan_in()],
            tokens_out: vec![0; net.fan_out()],
        }
    }

    /// Advances `balancer` by one token: returns the output port the token
    /// leaves on and rotates the balancer's round-robin state.
    pub fn balancer_step(&mut self, net: &Network, balancer: BalancerId) -> usize {
        let f_out = net.balancer(balancer).fan_out();
        let s = &mut self.balancer_state[balancer.index()];
        let port = *s;
        *s = (*s + 1) % f_out;
        port
    }

    /// Peeks at the output port the next token through `balancer` will take,
    /// without advancing the state.
    pub fn balancer_peek(&self, balancer: BalancerId) -> usize {
        self.balancer_state[balancer.index()]
    }

    /// Performs a `COUNT` step at `sink`: returns the assigned value and
    /// advances the counter by the network fan-out.
    pub fn counter_step(&mut self, net: &Network, sink: SinkId) -> u64 {
        let v = self.counter_state[sink.index()];
        self.counter_state[sink.index()] += net.fan_out() as u64;
        self.tokens_out[sink.index()] += 1;
        v
    }

    /// Shepherds one token instantaneously from input wire `input` to a
    /// counter, applying every `BAL` step and the final `COUNT` step.
    ///
    /// # Panics
    ///
    /// Panics if `input >= net.fan_in()`.
    pub fn traverse(&mut self, net: &Network, input: usize) -> Traversal {
        assert!(input < net.fan_in(), "input wire {input} out of range");
        let source = SourceId(input);
        self.tokens_in[input] += 1;
        let mut wire: WireId = net.source_wire(source);
        let mut path = Vec::new();
        loop {
            match net.wire(wire).end {
                WireEnd::Sink(sink) => {
                    let value = self.counter_step(net, sink);
                    return Traversal { input: source, sink, value, path };
                }
                WireEnd::Balancer { balancer, port: in_port } => {
                    let out_port = self.balancer_step(net, balancer);
                    path.push(BalancerStep { balancer, in_port, out_port });
                    wire = net.balancer(balancer).output(out_port);
                }
            }
        }
    }

    /// Pushes `counts[i]` tokens through each input wire `i`, interleaving
    /// round-robin over the inputs, and returns the traversals in order.
    pub fn push_tokens(&mut self, net: &Network, counts: &[u64]) -> Vec<Traversal> {
        assert_eq!(counts.len(), net.fan_in(), "one count per input wire");
        let mut remaining: Vec<u64> = counts.to_vec();
        let mut out = Vec::new();
        loop {
            let pending: Vec<usize> =
                remaining.iter().enumerate().filter(|&(_, &r)| r > 0).map(|(i, _)| i).collect();
            if pending.is_empty() {
                return out;
            }
            for i in pending {
                remaining[i] -= 1;
                out.push(self.traverse(net, i));
            }
        }
    }

    /// The number of tokens that have exited on each output wire (the
    /// history variables `y_0, …, y_{w_out-1}`).
    pub fn output_counts(&self) -> &[u64] {
        &self.tokens_out
    }

    /// The number of tokens that have entered on each input wire (the
    /// history variables `x_0, …, x_{w_in-1}`).
    pub fn input_counts(&self) -> &[u64] {
        &self.tokens_in
    }

    /// Checks the network-level **step property** on the current (quiescent)
    /// output counts: for every `j < k`, `0 <= y_j − y_k <= 1`.
    ///
    /// Meaningful only in a quiescent state; `NetworkState` is always
    /// quiescent because every `traverse` completes instantly.
    pub fn output_counts_have_step_property(&self) -> bool {
        has_step_property(&self.tokens_out)
    }

    /// Total tokens that have passed through the network.
    pub fn total_tokens(&self) -> u64 {
        self.tokens_out.iter().sum()
    }
}

/// Checks the step property on an arbitrary count vector: for every pair
/// `j < k`, `0 <= counts[j] − counts[k] <= 1`.
///
/// # Example
///
/// ```
/// use cnet_topology::state::has_step_property;
///
/// assert!(has_step_property(&[3, 3, 2, 2]));
/// assert!(!has_step_property(&[3, 1, 3, 2])); // gap of 2, and rising
/// ```
pub fn has_step_property(counts: &[u64]) -> bool {
    counts.windows(2).all(|w| w[0] >= w[1])
        && counts.first().zip(counts.last()).is_none_or(|(f, l)| f - l <= 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::LayeredBuilder;
    use cnet_util::proptest::prelude::*;

    fn single_balancer(width: usize) -> Network {
        let mut lb = LayeredBuilder::new(width);
        lb.balancer(&(0..width).collect::<Vec<_>>());
        lb.finish().unwrap()
    }

    #[test]
    fn balancer_round_robins_top_to_bottom() {
        let net = single_balancer(3);
        let mut st = NetworkState::new(&net);
        let sinks: Vec<usize> = (0..7).map(|_| st.traverse(&net, 0).sink.index()).collect();
        assert_eq!(sinks, vec![0, 1, 2, 0, 1, 2, 0]);
    }

    #[test]
    fn counters_assign_congruent_values() {
        let net = single_balancer(4);
        let mut st = NetworkState::new(&net);
        for expect in 0..12u64 {
            let t = st.traverse(&net, 0);
            assert_eq!(t.value, expect);
            assert_eq!(t.value % 4, t.sink.index() as u64);
        }
    }

    #[test]
    fn history_variables_track_tokens() {
        let net = single_balancer(2);
        let mut st = NetworkState::new(&net);
        st.traverse(&net, 0);
        st.traverse(&net, 1);
        st.traverse(&net, 0);
        assert_eq!(st.input_counts(), &[2, 1]);
        assert_eq!(st.output_counts(), &[2, 1]);
        assert_eq!(st.total_tokens(), 3);
    }

    #[test]
    fn push_tokens_interleaves() {
        let net = single_balancer(2);
        let mut st = NetworkState::new(&net);
        let ts = st.push_tokens(&net, &[3, 1]);
        assert_eq!(ts.len(), 4);
        assert_eq!(st.input_counts(), &[3, 1]);
        assert!(st.output_counts_have_step_property());
    }

    #[test]
    fn traversal_records_path() {
        let net = single_balancer(2);
        let mut st = NetworkState::new(&net);
        let t = st.traverse(&net, 1);
        assert_eq!(t.path.len(), 1);
        assert_eq!(t.path[0].in_port, 1);
        assert_eq!(t.path[0].out_port, 0);
        assert_eq!(t.input, SourceId(1));
    }

    #[test]
    fn step_property_checker() {
        assert!(has_step_property(&[]));
        assert!(has_step_property(&[5]));
        assert!(has_step_property(&[2, 2, 2]));
        assert!(has_step_property(&[3, 2, 2, 2]));
        assert!(has_step_property(&[3, 3, 3, 2]));
        assert!(!has_step_property(&[2, 3]));
        assert!(!has_step_property(&[4, 2, 2]));
        assert!(!has_step_property(&[3, 2, 3]));
    }

    proptest! {
        /// A single balancer is itself a counting network: any token count on
        /// any inputs yields step-property outputs and values 0..n.
        #[test]
        fn single_balancer_counts(
            width in 1usize..6,
            pushes in prop::collection::vec(0u64..20, 1..6),
        ) {
            let net = single_balancer(width);
            let mut counts = vec![0u64; width];
            for (i, p) in pushes.iter().enumerate() {
                counts[i % width] += p;
            }
            let mut st = NetworkState::new(&net);
            let ts = st.push_tokens(&net, &counts);
            prop_assert!(st.output_counts_have_step_property());
            let mut values: Vec<u64> = ts.iter().map(|t| t.value).collect();
            values.sort_unstable();
            let expect: Vec<u64> = (0..counts.iter().sum::<u64>()).collect();
            prop_assert_eq!(values, expect);
        }
    }
}
