//! Independent validation of timed executions against the formal execution
//! conditions of Section 2.2.
//!
//! The engine *constructs* executions; this module *checks* them, the way a
//! proof assistant would check a proof: it replays the step trace with its
//! own bookkeeping and verifies
//!
//! 1. times are non-decreasing;
//! 2. each token's steps form a contiguous source→counter route
//!    (wires connect, ports match);
//! 3. tokens of one process never interleave (execution condition 3), the
//!    process being the one the token's record names;
//! 4. **safety**: no balancer emits more tokens than it received, at every
//!    prefix of the execution;
//! 5. **liveness / quiescence**: at the end of a finite execution every
//!    balancer has emitted exactly what it received — no token is swallowed;
//! 6. the per-balancer **step property** on output-wire counts at
//!    quiescence, and the network-level step property on the counters;
//! 7. counter values are the arithmetic the paper prescribes
//!    (`j, j + w, j + 2w, …` per counter, in order), the value being the
//!    one the token's record holds, read at its `COUNT` step;
//! 8. there is one record per token that took steps, and each agrees with
//!    its token's steps: token, sink, `enter_seq`/`exit_seq` and enter/exit
//!    time (its input placed the token's first step). The consistency
//!    checkers read only the records, so a record must say what the steps
//!    did. A record's process and value have no second copy in the steps,
//!    so checks 3 and 7 are made on them directly.
//!
//! Every test of the engine gains teeth by round-tripping through
//! [`validate`]; it is also the safety net for hand-built adversarial
//! schedules.

use crate::error::SimError;
use crate::exec::{Step, TimedExecution};
use crate::ids::{ProcessId, TokenId};
use cnet_topology::ids::{BalancerId, SinkId, SourceId, WireId};
use cnet_topology::network::WireEnd;
use cnet_topology::state::has_step_property;
use cnet_topology::Network;
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

/// A violation of the formal execution conditions.
#[derive(Clone, Debug, PartialEq)]
pub enum ValidationError {
    /// Step times decrease somewhere in the trace.
    TimeNotMonotone {
        /// Index of the offending step.
        step: usize,
    },
    /// A token's steps do not follow the network's wires.
    BrokenRoute {
        /// The offending token.
        token: TokenId,
        /// Description of the break.
        what: &'static str,
    },
    /// A balancer was exited on a port that its round-robin state forbids.
    WrongPort {
        /// Index of the offending step.
        step: usize,
    },
    /// Two tokens of one process interleave.
    InterleavedProcess {
        /// The offending process.
        process: ProcessId,
    },
    /// A counter handed out a value out of sequence.
    BadCounterValue {
        /// The sink whose counter misbehaved.
        sink: usize,
        /// The value observed.
        got: u64,
        /// The value required.
        want: u64,
    },
    /// At the end of the execution some balancer still holds tokens.
    NotQuiescent {
        /// The balancer that swallowed tokens.
        balancer: BalancerId,
    },
    /// A balancer's quiescent output counts violate the step property.
    BalancerStepProperty {
        /// The offending balancer.
        balancer: BalancerId,
    },
    /// The network-level quiescent counter counts violate the step property.
    NetworkStepProperty,
    /// The execution references an entity outside the network, or a token
    /// with no record.
    OutOfRange {
        /// Index of the offending step.
        step: usize,
    },
    /// A token's record disagrees with its steps, or a record has no steps.
    RecordMismatch {
        /// The token whose record it is.
        token: TokenId,
        /// The record field that disagrees.
        field: &'static str,
    },
}

impl fmt::Display for ValidationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidationError::TimeNotMonotone { step } => {
                write!(f, "time decreases at step {step}")
            }
            ValidationError::BrokenRoute { token, what } => {
                write!(f, "token {token} breaks its route: {what}")
            }
            ValidationError::WrongPort { step } => {
                write!(f, "step {step} exits a balancer on a forbidden port")
            }
            ValidationError::InterleavedProcess { process } => {
                write!(f, "tokens of process {process} interleave")
            }
            ValidationError::BadCounterValue { sink, got, want } => {
                write!(f, "counter {sink} issued {got}, expected {want}")
            }
            ValidationError::NotQuiescent { balancer } => {
                write!(f, "balancer {balancer} swallowed tokens")
            }
            ValidationError::BalancerStepProperty { balancer } => {
                write!(f, "balancer {balancer} violates the step property at quiescence")
            }
            ValidationError::NetworkStepProperty => {
                write!(f, "network output counts violate the step property at quiescence")
            }
            ValidationError::OutOfRange { step } => {
                write!(f, "step {step} references an entity outside the network or its records")
            }
            ValidationError::RecordMismatch { token, field } => {
                write!(f, "the record of token {token} disagrees with its steps: {field}")
            }
        }
    }
}

impl Error for ValidationError {}

/// Summary of a validated, quiescent execution.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QuiescenceSummary {
    /// Total tokens that traversed the network.
    pub tokens: u64,
    /// Tokens that exited on each output wire (`y_j`).
    pub output_counts: Vec<u64>,
    /// Tokens that entered on each input wire (`x_i`).
    pub input_counts: Vec<u64>,
}

/// Validates a timed execution against the network (see module docs for the
/// exact conditions).
///
/// # Errors
///
/// Returns the first [`ValidationError`] encountered, or [`SimError`] if the
/// execution's metadata does not match the network at all.
pub fn validate(
    net: &Network,
    exec: &TimedExecution,
) -> Result<QuiescenceSummary, Box<dyn Error + Send + Sync>> {
    if exec.depth() != net.depth() || exec.fan_out() != net.fan_out() {
        return Err(Box::new(SimError::InvalidConstruction {
            what: "execution metadata does not match the network",
        }));
    }
    // 1. Monotone time.
    for (i, pair) in exec.steps().windows(2).enumerate() {
        if pair[0].time > pair[1].time {
            return Err(Box::new(ValidationError::TimeNotMonotone { step: i + 1 }));
        }
    }

    // Independent replay state.
    let mut bal_state: Vec<usize> = vec![0; net.size()];
    let mut bal_in: Vec<u64> = vec![0; net.size()];
    let mut bal_out: Vec<u64> = vec![0; net.size()];
    // Per-balancer per-output-port counts, for the balancer step property.
    let mut port_out: Vec<Vec<u64>> = net.balancers().map(|(_, b)| vec![0; b.fan_out()]).collect();
    let mut counter_next: Vec<u64> = (0..net.fan_out() as u64).collect();
    let mut output_counts: Vec<u64> = vec![0; net.fan_out()];
    let mut input_counts: Vec<u64> = vec![0; net.fan_in()];
    let records = exec.records();
    // Per token: the wire it is on (`None` before its first step) and
    // whether it has counted.
    #[derive(Clone, Default)]
    struct Progress {
        wire: Option<WireId>,
        done: bool,
    }
    let mut tokens = vec![Progress::default(); records.len()];
    // Process interleaving: the unfinished token of each process.
    let mut process_active: BTreeMap<ProcessId, TokenId> = BTreeMap::new();

    for (i, ts) in exec.steps().iter().enumerate() {
        let token = ts.step.token();
        let Some(record) = records.get(token.index()) else {
            return Err(Box::new(ValidationError::OutOfRange { step: i }));
        };
        let process = record.process;
        let progress = &mut tokens[token.index()];
        // Track per-process token contiguity: a process may only have one
        // unfinished token, and once a token finishes, no further steps of it
        // may appear.
        if progress.done {
            return Err(Box::new(ValidationError::BrokenRoute {
                token,
                what: "steps after its COUNT step",
            }));
        }
        match process_active.get(&process) {
            Some(&active) if active != token => {
                return Err(Box::new(ValidationError::InterleavedProcess { process }));
            }
            Some(_) => {}
            None => {
                // The token's first step (an unfinished token keeps its
                // process active): it must start on its record's input wire.
                if record.input >= net.fan_in() {
                    return Err(Box::new(ValidationError::OutOfRange { step: i }));
                }
                agree(
                    token,
                    &[
                        (record.token == token, "token"),
                        (record.enter_seq == i, "enter_seq"),
                        (record.enter_time == ts.time, "enter_time"),
                    ],
                )?;
                process_active.insert(process, token);
                input_counts[record.input] += 1;
                progress.wire = Some(net.source_wire(SourceId(record.input)));
            }
        }
        let wire = progress.wire.expect("placed at the token's first step");
        match ts.step {
            Step::Bal { balancer, in_port, out_port, .. } => {
                let (balancer, in_port, out_port) =
                    (balancer as usize, in_port as usize, out_port as usize);
                if balancer >= net.size() {
                    return Err(Box::new(ValidationError::OutOfRange { step: i }));
                }
                let bid = BalancerId(balancer);
                let bal = net.balancer(bid);
                // 2. Route continuity: the token's wire must end at this
                // balancer, on this port.
                if net.wire(wire).end != (WireEnd::Balancer { balancer: bid, port: in_port }) {
                    return Err(Box::new(ValidationError::BrokenRoute {
                        token,
                        what: "balancer step does not match the token's wire",
                    }));
                }
                // Round-robin discipline.
                if out_port != bal_state[balancer] {
                    return Err(Box::new(ValidationError::WrongPort { step: i }));
                }
                bal_state[balancer] = (bal_state[balancer] + 1) % bal.fan_out();
                bal_in[balancer] += 1;
                bal_out[balancer] += 1;
                port_out[balancer][out_port] += 1;
                // 4. Safety is maintained by construction of this replay:
                // each BAL step consumes and emits exactly one token, so
                // emissions never exceed receipts.
                progress.wire = Some(bal.output(out_port));
            }
            Step::Count { sink, .. } => {
                let sink = sink as usize;
                if sink >= net.fan_out() {
                    return Err(Box::new(ValidationError::OutOfRange { step: i }));
                }
                if net.wire(wire).end != (WireEnd::Sink(SinkId(sink))) {
                    return Err(Box::new(ValidationError::BrokenRoute {
                        token,
                        what: "count step does not match the token's wire",
                    }));
                }
                // 7. Counter arithmetic, on the value the record holds.
                if record.value != counter_next[sink] {
                    return Err(Box::new(ValidationError::BadCounterValue {
                        sink,
                        got: record.value,
                        want: counter_next[sink],
                    }));
                }
                // 8. The record says what the token did.
                agree(
                    token,
                    &[
                        (record.sink == sink, "sink"),
                        (record.exit_seq == i, "exit_seq"),
                        (record.exit_time == ts.time, "exit_time"),
                    ],
                )?;
                counter_next[sink] += net.fan_out() as u64;
                output_counts[sink] += 1;
                progress.done = true;
                process_active.remove(&process);
            }
        }
    }

    // 5. Quiescence: every token that entered a balancer left it, and every
    //    started token finished; 8. every record is of a token that did.
    for (b, _) in net.balancers() {
        if bal_in[b.index()] != bal_out[b.index()] {
            return Err(Box::new(ValidationError::NotQuiescent { balancer: b }));
        }
    }
    for (t, progress) in tokens.iter().enumerate() {
        let token = TokenId(t);
        agree(token, &[(progress.wire.is_some(), "it took no steps")])?;
        if !progress.done {
            return Err(Box::new(ValidationError::BrokenRoute {
                token,
                what: "token never reached a counter",
            }));
        }
    }
    // 6. Step properties at quiescence.
    for (b, _) in net.balancers() {
        if !has_step_property(&port_out[b.index()]) {
            return Err(Box::new(ValidationError::BalancerStepProperty { balancer: b }));
        }
    }
    if !has_step_property(&output_counts) {
        return Err(Box::new(ValidationError::NetworkStepProperty));
    }

    Ok(QuiescenceSummary { tokens: output_counts.iter().sum(), output_counts, input_counts })
}

/// The first field whose check failed, as a [`ValidationError::RecordMismatch`].
fn agree(
    token: TokenId,
    checks: &[(bool, &'static str)],
) -> Result<(), Box<dyn Error + Send + Sync>> {
    match checks.iter().find(|(ok, _)| !ok) {
        Some(&(_, field)) => Err(Box::new(ValidationError::RecordMismatch { token, field })),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::{bitonic_three_wave, holding_race};
    use crate::engine::run;
    use crate::spec::TimedTokenSpec;
    use crate::workload::{generate, WorkloadConfig};
    use cnet_topology::construct::{bitonic, counting_tree, periodic};

    #[test]
    fn engine_outputs_always_validate() {
        for net in [bitonic(8).unwrap(), periodic(8).unwrap(), counting_tree(8).unwrap()] {
            let cfg = WorkloadConfig {
                processes: 5,
                tokens_per_process: 6,
                c_min: 0.5,
                c_max: 4.0,
                local_delay: 0.0,
                start_spread: 2.0,
            };
            for seed in 0..20 {
                let specs = generate(&net, &cfg, seed);
                let exec = run(&net, &specs).unwrap();
                let summary = validate(&net, &exec).unwrap_or_else(|e| {
                    panic!("{net} seed {seed}: {e}");
                });
                assert_eq!(summary.tokens, 30);
                assert_eq!(summary.input_counts.iter().sum::<u64>(), 30);
            }
        }
    }

    #[test]
    fn adversarial_schedules_validate() {
        let net = bitonic(16).unwrap();
        let sched = bitonic_three_wave(&net, 1.0, 5.0).unwrap();
        let exec = run(&net, &sched.specs).unwrap();
        validate(&net, &exec).unwrap();
        let race = holding_race(&net, 1.0, 20.0, true).unwrap();
        let exec = run(&net, &race.specs).unwrap();
        validate(&net, &exec).unwrap();
    }

    #[test]
    fn transformed_executions_validate() {
        use crate::ids::ProcessId;
        use crate::transform::desequentialize;
        let net = bitonic(8).unwrap();
        let mut sched = bitonic_three_wave(&net, 1.0, 10.0).unwrap();
        for i in sched.wave3.clone() {
            for t in &mut sched.specs[i].step_times {
                *t += 0.5;
            }
        }
        for (i, s) in sched.specs.iter_mut().enumerate() {
            s.process = ProcessId(i);
        }
        let exec = run(&net, &sched.specs).unwrap();
        let outcome = desequentialize(&net, &sched.specs, &exec).unwrap();
        let new_exec = run(&net, &outcome.specs).unwrap();
        validate(&net, &new_exec).unwrap();
    }

    #[test]
    fn wrong_network_is_rejected_by_metadata() {
        let net = bitonic(2).unwrap();
        let specs = vec![TimedTokenSpec::lock_step(ProcessId(0), 0, 0.0, 1.0, 1)];
        let exec = run(&net, &specs).unwrap();
        let other = bitonic(4).unwrap();
        assert!(validate(&other, &exec).is_err());
    }

    /// Serialize an execution, corrupt one field through JSON, and confirm
    /// the validator rejects the forgery — fault injection for the checker
    /// itself.
    fn tamper(
        exec: &crate::exec::TimedExecution,
        mutate: impl FnOnce(&mut cnet_util::json::Value),
    ) -> crate::exec::TimedExecution {
        let mut v = cnet_util::json::to_value(exec);
        mutate(&mut v);
        cnet_util::json::from_value(&v).expect("tampered execution still deserializes")
    }

    #[test]
    fn tampered_counter_value_is_caught() {
        let net = bitonic(4).unwrap();
        let specs = vec![
            TimedTokenSpec::lock_step(ProcessId(0), 0, 0.0, 1.0, 3),
            TimedTokenSpec::lock_step(ProcessId(1), 1, 10.0, 1.0, 3),
        ];
        let exec = run(&net, &specs).unwrap();
        // The value lives only in the record; bump it.
        let forged = tamper(&exec, |v| {
            let record = &mut v["records"].as_array_mut().unwrap()[0];
            let old = record["value"].as_u64().unwrap();
            record["value"] = (old + 4).into();
        });
        let err = validate(&net, &forged).unwrap_err();
        assert_eq!(
            err.downcast_ref::<ValidationError>(),
            Some(&ValidationError::BadCounterValue { sink: 0, got: 4, want: 0 }),
            "{err}"
        );
    }

    #[test]
    fn relabelled_process_is_caught_interleaving() {
        // Two overlapping tokens of different processes; relabel the second
        // as the first's process, and one process has two tokens in flight.
        let net = bitonic(4).unwrap();
        let specs = vec![
            TimedTokenSpec::lock_step(ProcessId(0), 0, 0.0, 1.0, 3),
            TimedTokenSpec::lock_step(ProcessId(1), 1, 0.5, 1.0, 3),
        ];
        let exec = run(&net, &specs).unwrap();
        validate(&net, &exec).unwrap();
        let forged = tamper(&exec, |v| {
            v["records"].as_array_mut().unwrap()[1]["process"] = 0.into();
        });
        let err = validate(&net, &forged).unwrap_err();
        assert_eq!(
            err.downcast_ref::<ValidationError>(),
            Some(&ValidationError::InterleavedProcess { process: ProcessId(0) }),
            "{err}"
        );
    }

    #[test]
    fn tampered_port_is_caught() {
        let net = bitonic(4).unwrap();
        let specs = vec![TimedTokenSpec::lock_step(ProcessId(0), 0, 0.0, 1.0, 3)];
        let exec = run(&net, &specs).unwrap();
        let forged = tamper(&exec, |v| {
            let step = &mut v["steps"].as_array_mut().unwrap()[0];
            let bal = step["step"].get_mut("Bal").unwrap();
            let old = bal["out_port"].as_u64().unwrap();
            bal["out_port"] = (1 - old).into();
        });
        let err = validate(&net, &forged).unwrap_err();
        assert!(err.to_string().contains("forbidden port") || err.to_string().contains("route"));
    }

    #[test]
    fn tampered_time_order_is_caught() {
        let net = bitonic(2).unwrap();
        let specs = vec![
            TimedTokenSpec::lock_step(ProcessId(0), 0, 0.0, 1.0, 1),
            TimedTokenSpec::lock_step(ProcessId(1), 1, 2.0, 1.0, 1),
        ];
        let exec = run(&net, &specs).unwrap();
        let forged = tamper(&exec, |v| {
            v["steps"].as_array_mut().unwrap()[0]["time"] = 99.0.into();
        });
        let err = validate(&net, &forged).unwrap_err();
        assert!(err.to_string().contains("time decreases"), "{err}");
    }

    #[test]
    fn dropped_count_step_is_caught_as_swallowed_token() {
        let net = bitonic(2).unwrap();
        let specs = vec![TimedTokenSpec::lock_step(ProcessId(0), 0, 0.0, 1.0, 1)];
        let exec = run(&net, &specs).unwrap();
        let forged = tamper(&exec, |v| {
            v["steps"].as_array_mut().unwrap().pop();
        });
        let err = validate(&net, &forged).unwrap_err();
        assert!(err.to_string().contains("never reached a counter"), "{err}");
    }

    #[test]
    fn tampered_record_sink_is_caught() {
        let net = bitonic(4).unwrap();
        let specs = vec![
            TimedTokenSpec::lock_step(ProcessId(0), 0, 0.0, 1.0, 3),
            TimedTokenSpec::lock_step(ProcessId(1), 1, 10.0, 1.0, 3),
        ];
        let exec = run(&net, &specs).unwrap();
        let forged = tamper(&exec, |v| {
            let record = &mut v["records"].as_array_mut().unwrap()[0];
            let old = record["sink"].as_u64().unwrap();
            record["sink"] = (old + 1).into();
        });
        let err = validate(&net, &forged).unwrap_err();
        assert_eq!(err.to_string(), "the record of token T0 disagrees with its steps: sink");
    }

    #[test]
    fn dropped_record_is_caught() {
        let net = bitonic(2).unwrap();
        let specs = vec![
            TimedTokenSpec::lock_step(ProcessId(0), 0, 0.0, 1.0, 1),
            TimedTokenSpec::lock_step(ProcessId(1), 1, 2.0, 1.0, 1),
        ];
        let exec = run(&net, &specs).unwrap();
        let forged = tamper(&exec, |v| {
            v["records"].as_array_mut().unwrap().pop();
        });
        let err = validate(&net, &forged).unwrap_err();
        assert!(err.to_string().contains("outside the network or its records"), "{err}");
    }

    #[test]
    fn mismatched_network_is_rejected() {
        let b8 = bitonic(8).unwrap();
        let p8 = periodic(8).unwrap();
        let cfg = WorkloadConfig {
            processes: 3,
            tokens_per_process: 2,
            c_min: 1.0,
            c_max: 2.0,
            local_delay: 0.0,
            start_spread: 1.0,
        };
        let specs = generate(&b8, &cfg, 1);
        let exec = run(&b8, &specs).unwrap();
        // Same depth/fan metadata would be required; P(8) differs in depth.
        assert!(validate(&p8, &exec).is_err());
    }
}
