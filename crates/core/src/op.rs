//! Provider-neutral operation records.
//!
//! The consistency checkers reason about *increment operations*: who issued
//! them (a process), when they ran (an integer-nanosecond interval with a
//! tiebreak), and what value they returned. [`Op`] carries exactly that —
//! it **is** the workspace's shared trace event,
//! [`crate::trace::OpEvent`], re-exported under the checkers' traditional
//! name — so the same checkers apply to simulated executions
//! ([`cnet_sim::TimedExecution`]), to histories recorded by the threaded
//! runtime in `cnet-runtime`, and to live event streams from the trace
//! recorder.

use cnet_sim::exec::TimedExecution;

pub use crate::trace::OpEvent as Op;

use crate::trace::secs_to_ns;

impl Op {
    /// Converts every token record of a simulated execution into an
    /// [`Op`], in the execution's record order (see
    /// [`crate::trace::stream_execution`] for the enter-ordered streaming
    /// form). Simulator seconds become nanoseconds via [`secs_to_ns`].
    ///
    /// # Example
    ///
    /// ```
    /// use cnet_topology::construct::bitonic;
    /// use cnet_sim::{engine::run, spec::TimedTokenSpec, ids::ProcessId};
    /// use cnet_core::op::Op;
    ///
    /// let net = bitonic(2)?;
    /// let specs = vec![TimedTokenSpec::lock_step(ProcessId(0), 0, 0.0, 1.0, 1)];
    /// let ops = Op::from_execution(&run(&net, &specs)?);
    /// assert_eq!(ops.len(), 1);
    /// assert_eq!(ops[0].value, 0);
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn from_execution(exec: &TimedExecution) -> Vec<Op> {
        exec.records()
            .iter()
            .map(|r| Op {
                process: r.process.index(),
                enter_ns: secs_to_ns(r.enter_time),
                enter_seq: r.enter_seq,
                exit_ns: secs_to_ns(r.exit_time),
                exit_seq: r.exit_seq,
                value: r.value,
            })
            .collect()
    }
}

/// Builds an [`Op`] from a plain interval **in seconds** (converted with
/// [`secs_to_ns`]), using the value itself as
/// the tiebreak (adequate when all times are distinct, as in tests and the
/// threaded runtime where timestamps come from a monotonic clock).
pub fn op(process: usize, enter: f64, exit: f64, value: u64) -> Op {
    Op {
        process,
        enter_ns: secs_to_ns(enter),
        enter_seq: value as usize,
        exit_ns: secs_to_ns(exit),
        exit_seq: value as usize,
        value,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn precedence_and_overlap() {
        let a = op(0, 0.0, 1.0, 0);
        let b = op(1, 2.0, 3.0, 1);
        let c = op(2, 0.5, 2.5, 2);
        assert!(a.completely_precedes(&b));
        assert!(!b.completely_precedes(&a));
        assert!(a.overlaps(&c));
        assert!(c.overlaps(&b));
    }

    #[test]
    fn nanosecond_intervals_are_exact() {
        // One-nanosecond gaps order operations exactly — no f64 rounding.
        let a = Op { process: 0, enter_ns: 0, enter_seq: 0, exit_ns: 1, exit_seq: 0, value: 0 };
        let b = Op { process: 1, enter_ns: 2, enter_seq: 1, exit_ns: 3, exit_seq: 1, value: 1 };
        let c = Op { process: 2, enter_ns: 1, enter_seq: 2, exit_ns: 2, exit_seq: 2, value: 2 };
        assert!(a.completely_precedes(&b));
        assert!(a.completely_precedes(&c)); // exit (1, seq 0) < enter (1, seq 2)
        let late_exit = Op { exit_seq: 7, ..a }; // exit (1, seq 7) vs enter (1, seq 2)
        assert!(!late_exit.completely_precedes(&c));
        assert!(late_exit.overlaps(&c));
    }

    #[test]
    fn equal_ns_ties_fall_to_sequence_numbers() {
        let a = Op { process: 0, enter_ns: 0, enter_seq: 0, exit_ns: 5, exit_seq: 3, value: 0 };
        let b = Op { process: 1, enter_ns: 5, enter_seq: 4, exit_ns: 9, exit_seq: 9, value: 1 };
        let c = Op { process: 1, enter_ns: 5, enter_seq: 2, exit_ns: 9, exit_seq: 9, value: 1 };
        assert!(a.completely_precedes(&b)); // (5,3) < (5,4)
        assert!(!a.completely_precedes(&c)); // (5,3) > (5,2)
    }

    #[test]
    fn conversion_from_execution_preserves_fields() {
        use cnet_sim::{engine::run, ids::ProcessId, spec::TimedTokenSpec};
        use cnet_topology::construct::bitonic;
        let net = bitonic(2).unwrap();
        let specs = vec![TimedTokenSpec::lock_step(ProcessId(7), 1, 2.0, 3.0, 1)];
        let exec = run(&net, &specs).unwrap();
        let ops = Op::from_execution(&exec);
        assert_eq!(ops[0].process, 7);
        assert_eq!(ops[0].enter_ns, 2_000_000_000);
        assert_eq!(ops[0].exit_ns, 5_000_000_000);
    }

    #[test]
    fn ops_round_trip_through_json() {
        use cnet_util::json;
        let a = op(3, 0.25, 1.75, 42);
        let back: Op = json::from_str(&json::to_string(&a)).unwrap();
        assert_eq!(a, back);
    }
}
