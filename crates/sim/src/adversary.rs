//! Adversarial wave schedules: the paper's lower-bound constructions.
//!
//! Proposition 5.3 and Theorem 5.11 both build a timed execution from three
//! *waves* of lock-step tokens:
//!
//! 1. a **slow** first wave that fills the top output band,
//! 2. a second wave right behind it that turns **fast** once it enters the
//!    final totally-ordered region, collecting the high values,
//! 3. a **fast** third wave, launched the instant the second exits, that
//!    overtakes the still-in-flight first wave and collects values *below*
//!    everything the second wave returned.
//!
//! Re-using the second wave's processes for the third wave turns the
//! non-linearizable tokens into non-*sequentially-consistent* ones — the
//! paper's one-line twist on \[LSST99\]'s construction.

use crate::error::SimError;
use crate::ids::ProcessId;
use crate::spec::TimedTokenSpec;
use cnet_topology::analysis::split::split_sequence;
use cnet_topology::Network;
use std::ops::Range;

/// A three-wave schedule plus the metadata experiments need to count
/// inconsistent tokens.
#[derive(Clone, Debug, PartialEq)]
pub struct ThreeWaveSchedule {
    /// The token specs, wave 1 first, then wave 2, then wave 3 (ties in time
    /// resolve in that order).
    pub specs: Vec<TimedTokenSpec>,
    /// Token positions of the first wave.
    pub wave1: Range<usize>,
    /// Token positions of the second wave.
    pub wave2: Range<usize>,
    /// Token positions of the third wave.
    pub wave3: Range<usize>,
    /// The number of processes shared between waves 2 and 3 (`w / 2^ℓ`).
    pub shared_processes: usize,
    /// The asynchrony ratio `c_max / c_min` strictly above which the third
    /// wave provably overtakes the first: `1 + d(G) / region_depth`.
    pub required_ratio: f64,
}

/// Builds the generic three-wave schedule.
///
/// * `region_depth` — the number of final layers in which wave 2 (and the
///   whole of wave 3) runs at `c_min` while wave 1 runs at `c_max`. Theorem
///   5.11 uses `d(S⁽ℓ⁾(G))`; Proposition 5.3 uses `d(M(w)) = lg w`.
/// * `wave1_count` — tokens in waves 1 and 3 (the paper's `w·(1 − 2^{−ℓ})`).
/// * `wave2_count` — tokens in wave 2, shared with the head of wave 3 (the
///   paper's `w / 2^ℓ`).
///
/// Wave `i` enters one token per input wire `0..count`; the schedule is
/// valid for any uniform network with `fan_in = fan_out = w`.
///
/// # Errors
///
/// Returns [`SimError::InvalidConstruction`] if the counts or the region
/// depth are out of range, or [`SimError::NotUniform`] /
/// [`SimError::TransformNeedsRegularFan`]-style preconditions fail.
pub fn three_wave_with_region(
    net: &Network,
    region_depth: usize,
    wave1_count: usize,
    wave2_count: usize,
    c_min: f64,
    c_max: f64,
) -> Result<ThreeWaveSchedule, SimError> {
    if !net.is_uniform() {
        return Err(SimError::NotUniform);
    }
    let w = net
        .fan()
        .ok_or(SimError::InvalidConstruction { what: "network must have fan_in = fan_out" })?;
    let d = net.depth();
    if region_depth == 0 || region_depth > d {
        return Err(SimError::InvalidConstruction { what: "region depth must be in 1..=depth" });
    }
    if wave1_count == 0 || wave1_count > w || wave2_count == 0 || wave2_count > wave1_count {
        return Err(SimError::InvalidConstruction {
            what: "need 1 <= wave2_count <= wave1_count <= fan",
        });
    }
    if !(c_min > 0.0 && c_max >= c_min) {
        return Err(SimError::InvalidConstruction { what: "need 0 < c_min <= c_max" });
    }

    let n1 = wave1_count;
    let n2 = wave2_count;
    let mut specs = Vec::with_capacity(2 * n1 + n2);

    // Wave 1: slow everywhere, fresh processes n2..n2+n1, inputs 0..n1.
    for j in 0..n1 {
        specs.push(TimedTokenSpec::lock_step(ProcessId(n2 + j), j, 0.0, c_max, d));
    }
    // Wave 2: processes 0..n2, inputs 0..n2; slow until the final
    // `region_depth` transitions, then fast. Enters at time 0, right behind
    // wave 1 (ties resolve by spec position).
    let slow_transitions = d - region_depth;
    for j in 0..n2 {
        let mut delays = vec![c_max; slow_transitions];
        delays.extend(std::iter::repeat_n(c_min, region_depth));
        specs.push(TimedTokenSpec::with_delays(ProcessId(j), j, 0.0, &delays));
    }
    // Read the exit time off the built spec rather than recomputing it:
    // accumulated addition and closed-form multiplication can differ in the
    // last ulp, and wave 3 must not enter before wave 2 exits.
    let wave2_exit = specs[n1].exit_time();
    // Wave 3: enters the instant wave 2 exits; fast everywhere. The first n2
    // tokens reuse wave 2's processes (same input wires); the rest are
    // fresh.
    for j in 0..n1 {
        let process = if j < n2 { ProcessId(j) } else { ProcessId(n2 + n1 + (j - n2)) };
        specs.push(TimedTokenSpec::lock_step(process, j, wave2_exit, c_min, d));
    }

    Ok(ThreeWaveSchedule {
        specs,
        wave1: 0..n1,
        wave2: n1..n1 + n2,
        wave3: n1 + n2..2 * n1 + n2,
        shared_processes: n2,
        required_ratio: 1.0 + d as f64 / region_depth as f64,
    })
}

/// The three-wave schedule of **Theorem 5.11** at level `ell`, for a
/// uniform, continuously complete, continuously uniformly splittable
/// counting network (the split structure is computed and checked here).
///
/// Under `c_max/c_min > 1 + d(G)/d(S⁽ℓ⁾(G))` the resulting execution has
/// non-linearizability fraction at least `1 − 1/(2 − 2^{−ℓ})` and
/// non-sequential-consistency fraction at least `2^{−ℓ}/(2 − 2^{−ℓ})`.
///
/// # Errors
///
/// Returns [`SimError::InvalidConstruction`] if `ell` is out of
/// `1..=sp(G)`, if the fan is not divisible by `2^ell`, or if the network
/// lacks the required split structure.
pub fn three_wave(
    net: &Network,
    ell: usize,
    c_min: f64,
    c_max: f64,
) -> Result<ThreeWaveSchedule, SimError> {
    let seq = split_sequence(net).map_err(|_| SimError::InvalidConstruction {
        what: "network must have a continuously complete, uniformly splittable split sequence",
    })?;
    if !(seq.is_continuously_complete() && seq.is_continuously_uniformly_splittable()) {
        return Err(SimError::InvalidConstruction {
            what: "network must be continuously complete and uniformly splittable",
        });
    }
    let sp = seq.split_number();
    if ell == 0 || ell > sp {
        return Err(SimError::InvalidConstruction { what: "ell must be in 1..=sp(G)" });
    }
    let w = net
        .fan()
        .ok_or(SimError::InvalidConstruction { what: "network must have fan_in = fan_out" })?;
    let chunk = 1usize << ell;
    if w % chunk != 0 {
        return Err(SimError::InvalidConstruction { what: "fan must be divisible by 2^ell" });
    }
    let n2 = w / chunk;
    let n1 = w - n2;
    let region = seq.stage_depth(ell);
    three_wave_with_region(net, region, n1, n2, c_min, c_max)
}

/// The three-wave schedule of **Proposition 5.3** for the bitonic network
/// `B(w)`: all three waves have `w/2` tokens and the fast region is the
/// whole merging network `M(w)` (depth `lg w`), giving the threshold
/// `c_max/c_min > (lg w + 3)/2`.
///
/// # Errors
///
/// Returns [`SimError::InvalidConstruction`] if the network's fan is not a
/// power of two at least 4 or the region depth does not fit (callers pass
/// the bitonic network `B(w)`).
pub fn bitonic_three_wave(
    net: &Network,
    c_min: f64,
    c_max: f64,
) -> Result<ThreeWaveSchedule, SimError> {
    let w = net
        .fan()
        .ok_or(SimError::InvalidConstruction { what: "network must have fan_in = fan_out" })?;
    if !w.is_power_of_two() || w < 4 {
        return Err(SimError::InvalidConstruction {
            what: "Proposition 5.3 needs fan a power of two, at least 4",
        });
    }
    let lgw = w.trailing_zeros() as usize;
    three_wave_with_region(net, lgw, w / 2, w / 2, c_min, c_max)
}

/// A holding-race schedule (see [`holding_race`]).
#[derive(Clone, Debug, PartialEq)]
pub struct HoldingRace {
    /// The token specs: the holder, then the fast wave, then the chaser.
    pub specs: Vec<TimedTokenSpec>,
    /// Position of the slow holder token `A`.
    pub holder: usize,
    /// Positions of the fast wave tokens.
    pub wave: Range<usize>,
    /// Position of the chaser token `Y`.
    pub chaser: usize,
    /// The asynchrony ratio strictly above which the chaser provably beats
    /// the holder to its counter: `d(G) + 1`.
    pub required_ratio: f64,
}

/// Builds a **holding race**: token `A` leads a full wave of `w` tokens
/// through the network (so it claims counter 0's first value) but crawls on
/// its final wire; the other `w − 1` tokens exit fast with values
/// `1..w−1`; then a chaser token `Y` enters — completely after the fast
/// wave — and, being the `(w+1)`-th token, wraps around to counter 0. When
/// `c_max/c_min > d(G) + 1` the chaser counts before the holder and obtains
/// value `0 < 1`: a non-linearizable execution.
///
/// With `shared_process`, the chaser is issued by the same process as the
/// last fast-wave token, making the execution non-*sequentially-consistent*
/// as well. At depth 1 the threshold is the tight `c_max/c_min > 2` of
/// [LSST99, Thms 4.1/4.3].
///
/// # Errors
///
/// Returns [`SimError::InvalidConstruction`] for fans below 2 or bad delay
/// bounds, and [`SimError::NotUniform`] for non-uniform networks.
pub fn holding_race(
    net: &Network,
    c_min: f64,
    c_max: f64,
    shared_process: bool,
) -> Result<HoldingRace, SimError> {
    if !net.is_uniform() {
        return Err(SimError::NotUniform);
    }
    let w = net.fan_out();
    if w < 2 {
        return Err(SimError::InvalidConstruction { what: "holding race needs fan-out >= 2" });
    }
    if !(c_min > 0.0 && c_max >= c_min) {
        return Err(SimError::InvalidConstruction { what: "need 0 < c_min <= c_max" });
    }
    let d = net.depth();
    if d == 0 {
        return Err(SimError::InvalidConstruction { what: "holding race needs depth >= 1" });
    }
    let wire = |k: usize| k % net.fan_in();
    let mut specs = Vec::with_capacity(w + 1);
    // Holder A: fast through the balancers (staying ahead of the wave by
    // tie order), slow on the final wire into its counter.
    let mut holder_delays = vec![c_min; d - 1];
    holder_delays.push(c_max);
    specs.push(TimedTokenSpec::with_delays(ProcessId(0), wire(0), 0.0, &holder_delays));
    // Fast wave: w − 1 tokens right behind, fully fast.
    for k in 1..w {
        specs.push(TimedTokenSpec::lock_step(ProcessId(k), wire(k), 0.0, c_min, d));
    }
    // Chaser Y: enters the instant the wave exits, fully fast.
    let wave_exit = specs[w - 1].exit_time();
    let chaser_process = if shared_process { ProcessId(w - 1) } else { ProcessId(w) };
    let chaser_wire = if shared_process { wire(w - 1) } else { wire(0) };
    specs.push(TimedTokenSpec::lock_step(chaser_process, chaser_wire, wave_exit, c_min, d));

    Ok(HoldingRace { specs, holder: 0, wave: 1..w, chaser: w, required_ratio: d as f64 + 1.0 })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::run;
    use crate::timing::TimingParams;
    use cnet_topology::construct::{bitonic, counting_tree, periodic};

    #[test]
    fn bitonic_waves_produce_the_paper_values() {
        let w = 8;
        let net = bitonic(w).unwrap();
        // Ratio strictly above (lg 8 + 3)/2 = 3.
        let sched = bitonic_three_wave(&net, 1.0, 3.5).unwrap();
        assert_eq!(sched.required_ratio, 3.0);
        let exec = run(&net, &sched.specs).unwrap();
        // Wave 2 returns w/2 .. w-1.
        let mut wave2_values: Vec<u64> =
            sched.wave2.clone().map(|i| exec.records()[i].value).collect();
        wave2_values.sort_unstable();
        assert_eq!(wave2_values, (w as u64 / 2..w as u64).collect::<Vec<_>>());
        // Wave 3 returns 0 .. w/2-1 (it overtook wave 1).
        let mut wave3_values: Vec<u64> =
            sched.wave3.clone().map(|i| exec.records()[i].value).collect();
        wave3_values.sort_unstable();
        assert_eq!(wave3_values, (0..w as u64 / 2).collect::<Vec<_>>());
        // Wave 1 got the late values w .. 3w/2-1.
        let mut wave1_values: Vec<u64> =
            sched.wave1.clone().map(|i| exec.records()[i].value).collect();
        wave1_values.sort_unstable();
        assert_eq!(wave1_values, (w as u64..3 * w as u64 / 2).collect::<Vec<_>>());
    }

    #[test]
    fn below_threshold_wave3_does_not_overtake() {
        let w = 8;
        let net = bitonic(w).unwrap();
        // Ratio 2 < 3: the construction runs but wave 3 stays behind wave 1.
        let sched = bitonic_three_wave(&net, 1.0, 2.0).unwrap();
        let exec = run(&net, &sched.specs).unwrap();
        let min_wave3 = sched.wave3.clone().map(|i| exec.records()[i].value).min().unwrap();
        assert!(min_wave3 >= w as u64, "wave 3 must not bypass wave 1 at ratio 2");
    }

    #[test]
    fn theorem_5_11_waves_on_bitonic_all_levels() {
        let w = 16;
        let net = bitonic(w).unwrap();
        for ell in 1..=4usize {
            // Choose a ratio above the level's threshold.
            let sched = three_wave(&net, ell, 1.0, 100.0).unwrap();
            let n2 = w / (1 << ell);
            let n1 = w - n2;
            assert_eq!(sched.wave1.len(), n1, "ell={ell}");
            assert_eq!(sched.wave2.len(), n2, "ell={ell}");
            assert_eq!(sched.wave3.len(), n1, "ell={ell}");
            let exec = run(&net, &sched.specs).unwrap();
            // Wave 2 returns the top band; wave 3 the bottom band.
            let mut wave2_values: Vec<u64> =
                sched.wave2.clone().map(|i| exec.records()[i].value).collect();
            wave2_values.sort_unstable();
            assert_eq!(
                wave2_values,
                (n1 as u64..w as u64).collect::<Vec<_>>(),
                "wave 2 at ell={ell}"
            );
            let mut wave3_values: Vec<u64> =
                sched.wave3.clone().map(|i| exec.records()[i].value).collect();
            wave3_values.sort_unstable();
            assert_eq!(wave3_values, (0..n1 as u64).collect::<Vec<_>>(), "wave 3 at ell={ell}");
        }
    }

    #[test]
    fn theorem_5_11_waves_on_periodic() {
        let w = 8;
        let net = periodic(w).unwrap();
        for ell in 1..=3usize {
            let sched = three_wave(&net, ell, 1.0, 100.0).unwrap();
            let exec = run(&net, &sched.specs).unwrap();
            let n1 = w - w / (1 << ell);
            let mut wave3_values: Vec<u64> =
                sched.wave3.clone().map(|i| exec.records()[i].value).collect();
            wave3_values.sort_unstable();
            assert_eq!(wave3_values, (0..n1 as u64).collect::<Vec<_>>(), "ell={ell}");
        }
    }

    #[test]
    fn measured_params_match_the_construction() {
        let net = bitonic(8).unwrap();
        let sched = bitonic_three_wave(&net, 1.0, 4.0).unwrap();
        let exec = run(&net, &sched.specs).unwrap();
        let p = TimingParams::measure(&exec);
        assert_eq!(p.c_min, Some(1.0));
        assert_eq!(p.c_max, Some(4.0));
        // Shared processes re-enter immediately: C_L = 0.
        assert_eq!(p.local_delay, Some(0.0));
    }

    #[test]
    fn holding_race_on_single_balancer_at_ratio_just_above_two() {
        // B(2) has depth 1: the race succeeds at any ratio > 2, matching the
        // tight necessity bound of LSST99.
        let net = bitonic(2).unwrap();
        let race = holding_race(&net, 1.0, 2.01, true).unwrap();
        assert_eq!(race.required_ratio, 2.0);
        let exec = run(&net, &race.specs).unwrap();
        // The chaser wraps to counter 0 and beats the holder.
        assert_eq!(exec.records()[race.chaser].value, 0);
        assert_eq!(exec.records()[race.holder].value, 2);
        // The wave token got 1: chaser (same process) saw 1 then 0.
        assert_eq!(exec.records()[race.wave.start].value, 1);
    }

    #[test]
    fn holding_race_below_threshold_fails_to_overtake() {
        let net = bitonic(2).unwrap();
        let race = holding_race(&net, 1.0, 1.99, true).unwrap();
        let exec = run(&net, &race.specs).unwrap();
        assert_eq!(exec.records()[race.holder].value, 0);
        assert_eq!(exec.records()[race.chaser].value, 2);
    }

    #[test]
    fn holding_race_on_deep_networks() {
        for net in [bitonic(8).unwrap(), periodic(8).unwrap()] {
            let d = net.depth() as f64;
            let race = holding_race(&net, 1.0, d + 1.01, false).unwrap();
            let exec = run(&net, &race.specs).unwrap();
            assert_eq!(exec.records()[race.chaser].value, 0, "{net}");
            assert_eq!(exec.records()[race.holder].value, 8, "{net}");
        }
    }

    #[test]
    fn holding_race_on_counting_tree() {
        // All tokens share the single input wire of the tree.
        let net = counting_tree(4).unwrap();
        let race = holding_race(&net, 1.0, net.depth() as f64 + 1.01, true).unwrap();
        let exec = run(&net, &race.specs).unwrap();
        assert_eq!(exec.records()[race.chaser].value, 0);
        // Chaser's process previously saw value 3 (the last wave token).
        assert_eq!(exec.records()[race.wave.end - 1].value, 3);
    }

    #[test]
    fn holding_race_rejects_bad_inputs() {
        let net = bitonic(2).unwrap();
        assert!(holding_race(&net, 0.0, 1.0, false).is_err());
        assert!(holding_race(&net, 2.0, 1.0, false).is_err());
        let id = cnet_topology::construct::identity(4).unwrap();
        assert!(holding_race(&id, 1.0, 2.0, false).is_err());
    }

    #[test]
    fn invalid_levels_are_rejected() {
        let net = bitonic(8).unwrap();
        assert!(three_wave(&net, 0, 1.0, 10.0).is_err());
        assert!(three_wave(&net, 4, 1.0, 10.0).is_err()); // sp(B(8)) = 3
        assert!(three_wave_with_region(&net, 0, 4, 4, 1.0, 10.0).is_err());
        assert!(three_wave_with_region(&net, 99, 4, 4, 1.0, 10.0).is_err());
        assert!(three_wave_with_region(&net, 3, 4, 5, 1.0, 10.0).is_err());
        assert!(three_wave_with_region(&net, 3, 4, 4, 0.0, 10.0).is_err());
        assert!(bitonic_three_wave(&bitonic(2).unwrap(), 1.0, 10.0).is_err());
    }
}
