//! The Theorem 3.2 transformation: from non-linearizable to
//! non-sequentially-consistent, preserving the timing parameters.
//!
//! Theorem 3.2 shows that no timing condition over `c_min`, `c_max`, `C_g`
//! can distinguish sequential consistency from linearizability: given any
//! timed execution with a non-linearizable token pair — `T` completely
//! precedes `T'` yet returns a larger value — one can build another timed
//! execution of the same network, with the same timing parameters, that is
//! not even sequentially consistent.
//!
//! The construction (for a uniform counting network with `fan_in = fan_out =
//! W` and regular balancers):
//!
//! 1. relabel `T` to a fresh process `P*` assigned to `T`'s input wire `i`;
//! 2. insert a *flushing wave* of `W` fresh tokens, one per input wire, that
//!    crosses each layer at the same instant `T'` does, **immediately
//!    before** `T'`'s step. By the modular-counting property (Lemma 3.1),
//!    exactly one wave token leaves on each wire of every layer and every
//!    balancer's state is restored, so no other token's route changes;
//! 3. order the wave at each layer so the token that entered on wire `i` —
//!    also owned by `P*` — follows a path to the very counter `T'` was
//!    heading to, scooping the value `T'` would have received.
//!
//! Now `P*` issues `T` (large value) and then the wave token (small value):
//! not sequentially consistent.
//!
//! Simultaneity is realized with an infinitesimal time skew `δ` (ties in
//! the engine are broken by slice position, which cannot express the
//! per-layer orders the steering needs). The skew changes every measured
//! timing parameter by less than `W·d·δ`, where `δ` is chosen below
//! `10⁻⁶` of the smallest relevant gap in the original schedule.

use crate::error::SimError;
use crate::exec::{Step, TimedExecution};
use crate::ids::{ProcessId, TokenId};
use crate::spec::TimedTokenSpec;
use cnet_topology::analysis::valency::Valencies;
use cnet_topology::ids::{SinkId, SourceId, WireId};
use cnet_topology::network::WireEnd;
use cnet_topology::Network;

/// The output of the transformation.
#[derive(Clone, Debug, PartialEq)]
pub struct TransformOutcome {
    /// The new token specs: the originals (with `T` relabeled) followed by
    /// the `W` flushing-wave tokens.
    pub specs: Vec<TimedTokenSpec>,
    /// The fresh process owning both the relabeled `T` and the steered wave
    /// token — the process that witnesses the sequential-consistency
    /// violation.
    pub witness_process: ProcessId,
    /// Position (token id) of the relabeled earlier token `T`.
    pub earlier_token: TokenId,
    /// Position (token id) of the steered wave token that scoops `T'`'s
    /// value.
    pub wave_witness_token: TokenId,
    /// The value `T` obtained in the original execution (the wave witness
    /// will obtain a strictly smaller one).
    pub earlier_value: u64,
}

/// Applies the Theorem 3.2 construction to an execution produced by
/// [`crate::engine::run`] on `net` from `specs`.
///
/// Picks as witness pair the non-linearizable `(T, T')` with the largest
/// slack `T'.enter − T.exit` (any pair works; slack gives the cleanest
/// skew).
///
/// # Errors
///
/// * [`SimError::TransformNeedsRegularFan`] — the network is not regular or
///   `fan_in ≠ fan_out` (the paper's LCM extension for irregular balancers
///   is not implemented; the bitonic and periodic networks are regular).
/// * [`SimError::NoWitnessPair`] — the execution is linearizable, or every
///   witness pair has `T'` entering at the very instant `T` exits (no room
///   for the skew).
/// * [`SimError::InvalidConstruction`] — `T'`'s step times are not strictly
///   increasing (the skew needs strictly increasing anchors).
pub fn desequentialize(
    net: &Network,
    specs: &[TimedTokenSpec],
    exec: &TimedExecution,
) -> Result<TransformOutcome, SimError> {
    if !net.is_regular() || net.fan().is_none() {
        return Err(SimError::TransformNeedsRegularFan);
    }
    if !net.is_uniform() {
        return Err(SimError::NotUniform);
    }
    let w = net.fan().expect("checked above");
    let depth = net.depth();

    // 1. Find the witness pair maximizing T'.enter − T.exit.
    let records = exec.records();
    let mut witness: Option<(usize, usize, f64)> = None;
    for (a_pos, a) in records.iter().enumerate() {
        for (b_pos, b) in records.iter().enumerate() {
            if a.completely_precedes(b) && a.value > b.value {
                let slack = b.enter_time - a.exit_time;
                if witness.is_none_or(|(_, _, s)| slack > s) {
                    witness = Some((a_pos, b_pos, slack));
                }
            }
        }
    }
    let (t_pos, tp_pos, slack) = witness.ok_or(SimError::NoWitnessPair)?;
    if slack <= 0.0 {
        return Err(SimError::NoWitnessPair);
    }
    let tp = &records[tp_pos];
    let anchor_times: Vec<f64> = exec
        .steps()
        .iter()
        .filter(|ts| ts.step.token() == TokenId(tp_pos))
        .map(|ts| ts.time)
        .collect();
    if anchor_times.windows(2).any(|p| p[0] >= p[1]) {
        return Err(SimError::InvalidConstruction {
            what: "the later witness token needs strictly increasing step times",
        });
    }

    // 2. Choose the skew unit: far below any relevant gap.
    let mut min_gap = slack;
    for p in anchor_times.windows(2) {
        min_gap = min_gap.min(p[1] - p[0]);
    }
    // The wave steps a whisker before each anchor; no original step may fall
    // inside that whisker, so bound δ by the smallest positive gap between
    // any original step time and any anchor.
    for ts in exec.steps() {
        for &anchor in &anchor_times {
            let gap = anchor - ts.time;
            if gap > 0.0 {
                min_gap = min_gap.min(gap);
            }
        }
    }
    let delta = min_gap / ((w as f64 + 2.0) * (depth as f64 + 2.0) * 1.0e6);

    // 3. Steer the wave. Track, per wave token (indexed by its input wire),
    //    the wire it currently occupies and its per-layer times.
    let val = Valencies::compute(net);
    let target_sink = tp.sink;
    let witness_wire = records[t_pos].input; // T's input wire i.
    let fresh_base = specs.iter().map(|s| s.process.index() + 1).max().unwrap_or(0);
    let witness_process = ProcessId(fresh_base + witness_wire);

    // Count, per balancer, the original steps before each anchor time, to
    // recover each balancer's state at the wave's insertion point.
    // steps_before[l][b] = number of original steps at balancer b with time
    // strictly below anchor_times[l].
    let mut wave_wire: Vec<WireId> = (0..w).map(|i| net.source_wire(SourceId(i))).collect();
    let mut wave_times: Vec<Vec<f64>> = vec![Vec::with_capacity(depth + 1); w];

    for (layer, &anchor) in anchor_times.iter().enumerate() {
        // Per-balancer arrival lists at this layer (wave tokens grouped by
        // the balancer / sink their current wire feeds).
        if layer < depth {
            // Balancer layer: compute each balancer's state at the insertion
            // point, then order arrivals so the witness-wire token exits
            // toward the target sink.
            let mut state_at = vec![0usize; net.size()];
            for ts in exec.steps() {
                if ts.time < anchor {
                    if let Step::Bal { balancer, .. } = ts.step {
                        state_at[balancer as usize] += 1;
                    }
                }
            }
            // Group wave tokens by balancer.
            let mut groups: std::collections::BTreeMap<usize, Vec<usize>> =
                std::collections::BTreeMap::new();
            for (tok, &wire) in wave_wire.iter().enumerate() {
                match net.wire(wire).end {
                    WireEnd::Balancer { balancer, .. } => {
                        groups.entry(balancer.index()).or_default().push(tok);
                    }
                    WireEnd::Sink(_) => {
                        return Err(SimError::InvalidConstruction {
                            what: "wave token reached a sink before the last layer",
                        });
                    }
                }
            }
            // Assign per-balancer arrival order; give each token its skewed
            // time and its exit wire.
            let mut global_rank = 0usize;
            for (bal_idx, mut toks) in groups {
                let bal = cnet_topology::ids::BalancerId(bal_idx);
                let f = net.balancer(bal).fan_out();
                if toks.len() != f {
                    return Err(SimError::InvalidConstruction {
                        what: "wave does not cover a balancer's ports exactly",
                    });
                }
                let state = state_at[bal_idx] % f;
                // If the witness token (wave tokens are indexed by their
                // input wire) is here, place it at the rank that routes it
                // toward the target sink.
                if let Some(idx) = toks.iter().position(|&t| t == witness_wire) {
                    // Find an output port of this balancer from which the
                    // target sink is reachable.
                    let port = (0..f)
                        .find(|&p| val.output_port(net, bal, p).contains(target_sink))
                        .ok_or(SimError::InvalidConstruction {
                            what: "witness token strayed off every path to the target counter",
                        })?;
                    let rank = (port + f - state) % f;
                    let tok = toks.remove(idx);
                    toks.insert(rank, tok);
                }
                for (r, &tok) in toks.iter().enumerate() {
                    let out_port = (state + r) % f;
                    wave_wire[tok] = net.balancer(bal).output(out_port);
                    // Skew: earlier rank = earlier time, all strictly before
                    // the anchor.
                    let skew = delta * (w - global_rank - r) as f64;
                    wave_times[tok].push(anchor - skew);
                }
                global_rank += toks.len();
            }
        } else {
            // Counter layer: every wave token counts just before the anchor.
            for times in wave_times.iter_mut() {
                times.push(anchor - delta);
            }
        }
    }

    // The steered token must now sit on the wire into the target counter.
    let steered = (0..w).find(|&tok| wave_wire[tok] == net.sink_wire(SinkId(target_sink))).ok_or(
        SimError::InvalidConstruction {
            what: "steering failed to deliver a wave token to the target counter",
        },
    )?;
    if steered != witness_wire {
        return Err(SimError::InvalidConstruction {
            what: "steering delivered the wrong wave token to the target counter",
        });
    }

    // 4. Assemble the new spec list: originals with T relabeled, then the
    //    wave (one token per input wire; the witness-wire token belongs to
    //    the witness process).
    let mut new_specs = specs.to_vec();
    new_specs[t_pos].process = witness_process;
    let wave_base = new_specs.len();
    for (tok, tok_times) in wave_times.iter().enumerate() {
        let process =
            if tok == witness_wire { witness_process } else { ProcessId(fresh_base + tok) };
        // Fix up any non-monotone skew (possible only if anchors nearly
        // coincide; guarded by the strict-increase check above).
        let mut times = tok_times.clone();
        for l in 1..times.len() {
            if times[l] < times[l - 1] {
                times[l] = times[l - 1];
            }
        }
        new_specs.push(TimedTokenSpec { process, input: tok, step_times: times });
    }

    Ok(TransformOutcome {
        specs: new_specs,
        witness_process,
        earlier_token: TokenId(t_pos),
        wave_witness_token: TokenId(wave_base + witness_wire),
        earlier_value: records[t_pos].value,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::bitonic_three_wave;
    use crate::engine::run;
    use crate::timing::TimingParams;
    use crate::workload::{generate, WorkloadConfig};
    use cnet_topology::construct::bitonic;

    /// A non-linearizable execution on B(4): a token finishing early gets a
    /// large value because a slow token is holding a small counter value.
    fn non_linearizable_exec(
        net: &cnet_topology::Network,
    ) -> (Vec<TimedTokenSpec>, TimedExecution) {
        // Token A crawls: passes all balancers fast (taking value slot at
        // sink 0) but counts very late.
        // Token B runs later but entirely within A's lifetime... we need a
        // token completely AFTER another with a SMALLER value:
        //   A enters at 0, counts at 100 (value 0 at its sink).
        //   B enters at 5, exits at 8 -> gets its sink's first value, which
        //   is larger than... we need B's value > some later token C.
        //   C enters at 10 (after B exits), routes to sink 0's... no: C must
        //   get a smaller value than B. Sink 0's value 0 goes to A. Use
        //   three tokens through one input:
        //   A: balancers at t=0..2 -> sink 0; counts at t=100 (value 0).
        //   B: balancers at t=3..5 -> sink 1; counts at 6 (value 1).
        //   C: enters at 7 (B completely precedes C), balancers t=7..9 ->
        //      sink 2; counts at 10 (value 2). Not smaller...
        // Simplest: reuse the three-wave construction, which is
        // non-linearizable by design — but give wave 3 a positive gap after
        // wave 2 (the transform's skew needs slack), small enough that wave 3
        // still overtakes wave 1 at this generous asynchrony ratio.
        let mut sched = bitonic_three_wave(net, 1.0, 10.0).unwrap();
        for i in sched.wave3.clone() {
            for t in &mut sched.specs[i].step_times {
                *t += 0.5;
            }
        }
        let exec = run(net, &sched.specs).unwrap();
        (sched.specs, exec)
    }

    fn is_seq_consistent(exec: &TimedExecution) -> bool {
        // Per process, values must increase in token order.
        let mut by_process: std::collections::BTreeMap<ProcessId, Vec<&crate::exec::TokenRecord>> =
            std::collections::BTreeMap::new();
        for r in exec.records() {
            by_process.entry(r.process).or_default().push(r);
        }
        by_process.values_mut().all(|rs| {
            rs.sort_by(|a, b| {
                a.enter_time.total_cmp(&b.enter_time).then(a.enter_seq.cmp(&b.enter_seq))
            });
            rs.windows(2).all(|p| p[0].value < p[1].value)
        })
    }

    #[test]
    fn transform_produces_non_sequentially_consistent_execution() {
        let net = bitonic(8).unwrap();
        // Start from a non-linearizable execution where each token has its
        // own process (so it IS sequentially consistent).
        let (mut specs, _) = non_linearizable_exec(&net);
        for (i, s) in specs.iter_mut().enumerate() {
            s.process = ProcessId(i); // one token per process
        }
        let exec = run(&net, &specs).unwrap();
        assert!(is_seq_consistent(&exec), "per-token processes: trivially SC");

        let outcome = desequentialize(&net, &specs, &exec).unwrap();
        let new_exec = run(&net, &outcome.specs).unwrap();
        assert!(!is_seq_consistent(&new_exec), "transformed execution must violate SC");

        // The witness process sees decreasing values.
        let witness_records: Vec<_> =
            new_exec.records().iter().filter(|r| r.process == outcome.witness_process).collect();
        assert_eq!(witness_records.len(), 2);
        let wave = new_exec.record(outcome.wave_witness_token);
        assert!(wave.value < outcome.earlier_value);
    }

    #[test]
    fn transform_preserves_timing_parameters_up_to_skew() {
        let net = bitonic(8).unwrap();
        let (mut specs, _) = non_linearizable_exec(&net);
        for (i, s) in specs.iter_mut().enumerate() {
            s.process = ProcessId(i);
        }
        let exec = run(&net, &specs).unwrap();
        let before = TimingParams::measure(&exec);
        let outcome = desequentialize(&net, &specs, &exec).unwrap();
        let new_exec = run(&net, &outcome.specs).unwrap();
        let after = TimingParams::measure(&new_exec);
        let tol = 1.0e-3;
        assert!((before.c_min.unwrap() - after.c_min.unwrap()).abs() < tol);
        assert!((before.c_max.unwrap() - after.c_max.unwrap()).abs() < tol);
    }

    #[test]
    fn linearizable_execution_has_no_witness() {
        let net = bitonic(4).unwrap();
        let cfg = WorkloadConfig {
            processes: 4,
            tokens_per_process: 3,
            c_min: 1.0,
            c_max: 1.5, // ratio 1.5 <= 2: linearizable by LSST99 Cor 3.10
            local_delay: 1.0,
            start_spread: 2.0,
        };
        let specs = generate(&net, &cfg, 5);
        let exec = run(&net, &specs).unwrap();
        assert_eq!(desequentialize(&net, &specs, &exec), Err(SimError::NoWitnessPair));
    }

    #[test]
    fn irregular_network_is_rejected() {
        let net = cnet_topology::construct::counting_tree(4).unwrap();
        let exec = run(&net, &[]).unwrap();
        assert_eq!(desequentialize(&net, &[], &exec), Err(SimError::TransformNeedsRegularFan));
    }
}
