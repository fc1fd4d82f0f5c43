//! Token specifications: the input format of the simulation engine.

use crate::ids::{ProcessId, TokenId};
use cnet_util::json_struct;

/// The schedule of a single token: which process shepherds it, which input
/// wire it enters on, and the time at which it passes each layer of the
/// (uniform) network.
///
/// `step_times[l]` is the paper's `S(T, l+1)`: the time the token takes its
/// step at a node in layer `l+1`. For a network of depth `d` the vector has
/// `d + 1` entries — `d` balancer steps followed by the `COUNT` step.
///
/// Within one [`engine::run`](crate::engine::run) call, ties in time
/// (−0.0 and 0.0 tie) are broken first by the token's position in the spec
/// slice, then by layer;
/// schedule constructions rely on this to place simultaneous steps in a
/// definite order (e.g. the flushing waves of Theorem 3.2, which must enter
/// a balancer *immediately before* the token they shadow).
#[derive(Clone, Debug, PartialEq)]
pub struct TimedTokenSpec {
    /// The process shepherding the token.
    pub process: ProcessId,
    /// The input wire (0-based) the token enters on.
    pub input: usize,
    /// One time per layer, non-decreasing, length `depth + 1`.
    pub step_times: Vec<f64>,
}

json_struct!(TimedTokenSpec { process, input, step_times });

impl TimedTokenSpec {
    /// Builds a spec whose token enters layer 1 at `start` and crosses each
    /// subsequent wire with the given per-transition delays (so
    /// `delays.len()` must be the network depth).
    pub fn with_delays(process: ProcessId, input: usize, start: f64, delays: &[f64]) -> Self {
        let mut step_times = Vec::with_capacity(delays.len() + 1);
        let mut t = start;
        step_times.push(t);
        for &d in delays {
            t += d;
            step_times.push(t);
        }
        TimedTokenSpec { process, input, step_times }
    }

    /// Builds a lock-step spec: enter at `start` and cross every wire with
    /// the same `delay`, through a network of depth `depth`.
    pub fn lock_step(
        process: ProcessId,
        input: usize,
        start: f64,
        delay: f64,
        depth: usize,
    ) -> Self {
        TimedTokenSpec::with_delays(process, input, start, &vec![delay; depth])
    }

    /// The time the token passes layer 1 (its first step).
    pub fn enter_time(&self) -> f64 {
        self.step_times[0]
    }

    /// The time of the token's `COUNT` step (its last step).
    pub fn exit_time(&self) -> f64 {
        *self.step_times.last().expect("step_times is non-empty")
    }
}

/// A token id paired with its position in the spec slice. The engine assigns
/// `TokenId(i)` to the `i`-th spec.
pub fn token_id_of_position(position: usize) -> TokenId {
    TokenId(position)
}

/// The schedule of a token for the **adaptive** engine
/// ([`crate::engine::run_adaptive`]), which supports non-uniform networks:
/// the token's route length is unknown up front, so instead of one time per
/// layer, the spec supplies an entry time and a pool of per-hop delays that
/// are consumed as the token actually moves.
///
/// `delays[k]` is the wire delay before the token's `(k+2)`-th step (its
/// first step happens at `enter_time`). The pool must be at least as long
/// as the longest route the token can take — `net.depth()` hops suffices.
#[derive(Clone, Debug, PartialEq)]
pub struct AdaptiveTokenSpec {
    /// The process shepherding the token.
    pub process: ProcessId,
    /// The input wire (0-based) the token enters on.
    pub input: usize,
    /// The time of the token's first step.
    pub enter_time: f64,
    /// Per-hop delays, consumed in order as the token advances.
    pub delays: Vec<f64>,
}

json_struct!(AdaptiveTokenSpec { process, input, enter_time, delays });

impl AdaptiveTokenSpec {
    /// A spec whose token crosses every wire with the same `delay`, with a
    /// pool sized for routes up to `max_hops`.
    pub fn lock_step(
        process: ProcessId,
        input: usize,
        enter_time: f64,
        delay: f64,
        max_hops: usize,
    ) -> Self {
        AdaptiveTokenSpec { process, input, enter_time, delays: vec![delay; max_hops] }
    }
}

impl From<&TimedTokenSpec> for AdaptiveTokenSpec {
    /// Converts a per-layer schedule into the adaptive format (exact on
    /// uniform networks, where the route length equals the layer count).
    fn from(spec: &TimedTokenSpec) -> Self {
        AdaptiveTokenSpec {
            process: spec.process,
            input: spec.input,
            enter_time: spec.enter_time(),
            delays: spec.step_times.windows(2).map(|w| w[1] - w[0]).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn with_delays_accumulates() {
        let s = TimedTokenSpec::with_delays(ProcessId(0), 2, 1.0, &[0.5, 0.25]);
        assert_eq!(s.step_times, vec![1.0, 1.5, 1.75]);
        assert_eq!(s.enter_time(), 1.0);
        assert_eq!(s.exit_time(), 1.75);
        assert_eq!(s.input, 2);
    }

    #[test]
    fn lock_step_is_uniform() {
        let s = TimedTokenSpec::lock_step(ProcessId(1), 0, 0.0, 2.0, 3);
        assert_eq!(s.step_times, vec![0.0, 2.0, 4.0, 6.0]);
    }

    #[test]
    fn zero_depth_token_has_single_step() {
        let s = TimedTokenSpec::with_delays(ProcessId(0), 0, 5.0, &[]);
        assert_eq!(s.step_times, vec![5.0]);
        assert_eq!(s.enter_time(), s.exit_time());
    }

    #[test]
    fn adaptive_conversion_preserves_delays() {
        let timed = TimedTokenSpec::with_delays(ProcessId(3), 2, 1.0, &[0.5, 2.0, 0.25]);
        let adaptive: AdaptiveTokenSpec = (&timed).into();
        assert_eq!(adaptive.process, ProcessId(3));
        assert_eq!(adaptive.input, 2);
        assert_eq!(adaptive.enter_time, 1.0);
        assert_eq!(adaptive.delays, vec![0.5, 2.0, 0.25]);
    }

    #[test]
    fn adaptive_lock_step_pools() {
        let s = AdaptiveTokenSpec::lock_step(ProcessId(1), 0, 2.0, 1.5, 4);
        assert_eq!(s.delays, vec![1.5; 4]);
        assert_eq!(s.enter_time, 2.0);
    }

    #[test]
    fn specs_round_trip_through_json() {
        use cnet_util::json;
        let timed = TimedTokenSpec::with_delays(ProcessId(3), 2, 1.0, &[0.5, 2.0, 0.25]);
        let back: TimedTokenSpec = json::from_str(&json::to_string(&timed)).unwrap();
        assert_eq!(timed, back);
        let adaptive = AdaptiveTokenSpec::lock_step(ProcessId(1), 0, 2.0, 1.5, 4);
        let back: AdaptiveTokenSpec = json::from_str(&json::to_string(&adaptive)).unwrap();
        assert_eq!(adaptive, back);
    }
}
