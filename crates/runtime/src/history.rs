//! Wall-clock operation recording for real threaded runs.
//!
//! [`drive`] runs a multi-threaded increment workload against any
//! [`ProcessCounter`], timestamping every operation in integer nanoseconds
//! against a common monotonic clock ([`cnet_util::time::Clock`]), and
//! returns [`RecordedOp`]s convertible to [`cnet_core::Op`] — so the
//! consistency checkers and fraction meters of `cnet-core` apply to real
//! executions exactly as they do to simulated ones. [`stream_records`]
//! feeds a finished batch straight into any [`OpSink`] (e.g. the audit
//! kernel, [`cnet_core::StreamingAuditor`]); for auditing *while* the run
//! executes, see [`crate::recorder`].

use crate::ProcessCounter;
use cnet_core::op::Op;
use cnet_core::trace::OpSink;
use cnet_util::time::Clock;
use std::thread;

/// One recorded increment operation from a threaded run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RecordedOp {
    /// The process (thread index) that performed the operation.
    pub process: usize,
    /// Nanoseconds since the workload's epoch at which the operation
    /// started.
    pub enter_ns: u64,
    /// Nanoseconds since the epoch at which the value was obtained.
    pub exit_ns: u64,
    /// The value obtained.
    pub value: u64,
}

impl RecordedOp {
    /// Converts to the checker-facing operation record. Values are unique in
    /// a counting run, so the value doubles as the tiebreak.
    pub fn to_op(self) -> Op {
        Op {
            process: self.process,
            enter_ns: self.enter_ns,
            enter_seq: self.value as usize,
            exit_ns: self.exit_ns,
            exit_seq: self.value as usize,
            value: self.value,
        }
    }
}

/// Converts a batch of recorded operations for the `cnet-core` checkers.
pub fn to_ops(records: &[RecordedOp]) -> Vec<Op> {
    records.iter().map(|r| r.to_op()).collect()
}

/// Streams a finished batch of records into a sink in enter order (the
/// order the audit kernel requires). Returns the event count.
pub fn stream_records(records: &[RecordedOp], sink: &mut impl OpSink) -> usize {
    let mut ops = to_ops(records);
    ops.sort_by_key(|o| o.enter_key());
    let n = ops.len();
    for op in ops {
        sink.record(op);
    }
    n
}

/// A threaded increment workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Workload {
    /// Number of threads (= processes).
    pub threads: usize,
    /// Increments each thread performs, back to back.
    pub increments_per_thread: usize,
}

/// Runs the workload and returns every operation, timestamped.
///
/// # Example
///
/// ```
/// use cnet_runtime::{drive, FetchAddCounter, Workload};
/// use cnet_core::consistency::is_linearizable;
/// use cnet_runtime::history::to_ops;
///
/// let records = drive(&FetchAddCounter::new(), Workload { threads: 4, increments_per_thread: 50 });
/// assert_eq!(records.len(), 200);
/// // A single fetch-and-add word is linearizable.
/// assert!(is_linearizable(&to_ops(&records)));
/// ```
pub fn drive<C: ProcessCounter>(counter: &C, workload: Workload) -> Vec<RecordedOp> {
    let clock = Clock::new();
    thread::scope(|s| {
        let handles: Vec<_> = (0..workload.threads)
            .map(|p| {
                let clock = &clock;
                s.spawn(move || {
                    let mut ops = Vec::with_capacity(workload.increments_per_thread);
                    for _ in 0..workload.increments_per_thread {
                        let enter = clock.raw();
                        let value = counter.next_for(p);
                        let exit = clock.raw();
                        ops.push((enter, exit, value));
                    }
                    ops.into_iter()
                        .map(|(enter, exit, value)| RecordedOp {
                            process: p,
                            enter_ns: clock.raw_to_ns(enter),
                            exit_ns: clock.raw_to_ns(exit),
                            value,
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("worker thread panicked")).collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counter::SharedNetworkCounter;
    use crate::FetchAddCounter;
    use cnet_core::consistency::{is_linearizable, is_sequentially_consistent};
    use cnet_core::fractions::non_linearizability_fraction;
    use cnet_topology::construct::bitonic;

    #[test]
    fn drive_records_every_operation() {
        let counter = FetchAddCounter::new();
        let records = drive(&counter, Workload { threads: 3, increments_per_thread: 40 });
        assert_eq!(records.len(), 120);
        let mut values: Vec<u64> = records.iter().map(|r| r.value).collect();
        values.sort_unstable();
        assert_eq!(values, (0..120).collect::<Vec<_>>());
        for r in &records {
            assert!(r.enter_ns <= r.exit_ns);
        }
    }

    #[test]
    fn fetch_add_histories_are_linearizable() {
        let counter = FetchAddCounter::new();
        let records = drive(&counter, Workload { threads: 4, increments_per_thread: 100 });
        let ops = to_ops(&records);
        assert!(is_linearizable(&ops));
        assert!(is_sequentially_consistent(&ops));
        assert_eq!(non_linearizability_fraction(&ops), 0.0);
    }

    #[test]
    fn network_histories_are_gap_free_and_checkable() {
        let net = bitonic(8).unwrap();
        let counter = SharedNetworkCounter::new(&net);
        let records = drive(&counter, Workload { threads: 8, increments_per_thread: 100 });
        let mut values: Vec<u64> = records.iter().map(|r| r.value).collect();
        values.sort_unstable();
        assert_eq!(values, (0..800).collect::<Vec<_>>());
        // The fraction meters run on real histories; counting networks give
        // no hard consistency guarantee here, so only sanity-bound them.
        let ops = to_ops(&records);
        let f = non_linearizability_fraction(&ops);
        assert!((0.0..=1.0).contains(&f));
    }

    #[test]
    fn per_thread_enter_times_increase() {
        let counter = FetchAddCounter::new();
        let records = drive(&counter, Workload { threads: 2, increments_per_thread: 50 });
        for p in 0..2 {
            let mine: Vec<_> = records.iter().filter(|r| r.process == p).collect();
            assert!(mine.windows(2).all(|w| w[0].exit_ns <= w[1].enter_ns));
        }
    }

    #[test]
    fn streamed_records_match_batch_verdicts() {
        use cnet_core::trace::StreamingAuditor;
        let counter = FetchAddCounter::new();
        let records = drive(&counter, Workload { threads: 3, increments_per_thread: 60 });
        let mut aud = StreamingAuditor::new();
        let n = stream_records(&records, &mut aud);
        assert_eq!(n, 180);
        assert!(aud.is_linearizable());
        assert!(aud.is_sequentially_consistent());
        assert_eq!(aud.f_nl(), 0.0);
    }
}
