//! Wall-clock operation recording for real threaded runs.
//!
//! [`drive`] runs a multi-threaded increment workload against any
//! [`ProcessCounter`], reading a common monotonic clock
//! ([`cnet_util::time::Clock`]) immediately before and after every
//! operation, and returns the history as [`Op`]s in enter order — so the
//! consistency checkers and fraction meters of `cnet-core` apply to real
//! executions exactly as they do to simulated ones, and the history can be
//! fed straight into any [`cnet_core::trace::OpSink`].
//!
//! Each operation gets its own interval, so one process's operations never
//! overlap. The always-on recorder ([`crate::Traced`], audited *while* the
//! run executes by [`crate::recorder`]) is cheaper because it stamps up to
//! 64 operations with one shared interval; the price is that those
//! operations overlap, which no history with sequential processes does.
//! Checks that rest on sequential processes — every non-SC operation is
//! non-linearizable, a paced process's completion gaps — need `drive`.

use crate::ProcessCounter;
use cnet_core::op::Op;
use cnet_util::time::Clock;
use std::thread;

/// A threaded increment workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Workload {
    /// Number of threads (= processes).
    pub threads: usize,
    /// Increments each thread performs, back to back.
    pub increments_per_thread: usize,
}

/// Runs the workload and returns every operation, timestamped, in enter
/// order. Values are unique in a counting run, so the value doubles as
/// both tiebreaks (`enter_seq` and `exit_seq`).
///
/// # Example
///
/// ```
/// use cnet_runtime::{drive, FetchAddCounter, Workload};
/// use cnet_core::consistency::is_linearizable;
///
/// let ops = drive(&FetchAddCounter::new(), Workload { threads: 4, increments_per_thread: 50 });
/// assert_eq!(ops.len(), 200);
/// assert!(ops.windows(2).all(|w| w[0].enter_key() <= w[1].enter_key()));
/// // A single fetch-and-add word is linearizable.
/// assert!(is_linearizable(&ops));
/// ```
pub fn drive<C: ProcessCounter>(counter: &C, workload: Workload) -> Vec<Op> {
    let clock = Clock::new();
    let mut ops: Vec<Op> = thread::scope(|s| {
        let handles: Vec<_> = (0..workload.threads)
            .map(|p| {
                let clock = &clock;
                s.spawn(move || {
                    let mut stamps = Vec::with_capacity(workload.increments_per_thread);
                    for _ in 0..workload.increments_per_thread {
                        let enter = clock.raw();
                        let value = counter.next_for(p);
                        let exit = clock.raw();
                        stamps.push((enter, exit, value));
                    }
                    stamps
                        .into_iter()
                        .map(|(enter, exit, value)| Op {
                            process: p,
                            enter_ns: clock.raw_to_ns(enter),
                            enter_seq: value as usize,
                            exit_ns: clock.raw_to_ns(exit),
                            exit_seq: value as usize,
                            value,
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("worker thread panicked")).collect()
    });
    ops.sort_unstable_by_key(|o| o.enter_key());
    ops
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counter::SharedNetworkCounter;
    use crate::FetchAddCounter;
    use cnet_core::consistency::{is_linearizable, is_sequentially_consistent};
    use cnet_core::fractions::non_linearizability_fraction;
    use cnet_core::trace::{OpSink, StreamingAuditor};
    use cnet_topology::construct::bitonic;

    #[test]
    fn drive_records_every_operation() {
        let counter = FetchAddCounter::new();
        let ops = drive(&counter, Workload { threads: 3, increments_per_thread: 40 });
        assert_eq!(ops.len(), 120);
        let mut values: Vec<u64> = ops.iter().map(|o| o.value).collect();
        values.sort_unstable();
        assert_eq!(values, (0..120).collect::<Vec<_>>());
        for o in &ops {
            assert!(o.enter_ns <= o.exit_ns);
        }
    }

    #[test]
    fn ops_come_in_enter_order_with_the_value_as_tiebreak() {
        let net = bitonic(4).unwrap();
        let counter = SharedNetworkCounter::new(&net);
        let ops = drive(&counter, Workload { threads: 3, increments_per_thread: 60 });
        assert!(ops.windows(2).all(|w| w[0].enter_key() < w[1].enter_key()));
        for o in &ops {
            assert_eq!((o.enter_seq, o.exit_seq), (o.value as usize, o.value as usize));
            assert!(o.process < 3);
        }
    }

    #[test]
    fn an_empty_workload_records_nothing() {
        let counter = FetchAddCounter::new();
        assert!(drive(&counter, Workload { threads: 0, increments_per_thread: 10 }).is_empty());
        assert!(drive(&counter, Workload { threads: 4, increments_per_thread: 0 }).is_empty());
        assert_eq!(counter.next_for(0), 0, "no operation reached the counter");
    }

    #[test]
    fn fetch_add_histories_are_linearizable() {
        let counter = FetchAddCounter::new();
        let ops = drive(&counter, Workload { threads: 4, increments_per_thread: 100 });
        assert!(is_linearizable(&ops));
        assert!(is_sequentially_consistent(&ops));
        assert_eq!(non_linearizability_fraction(&ops), 0.0);
    }

    #[test]
    fn network_histories_are_gap_free_and_checkable() {
        let net = bitonic(8).unwrap();
        let counter = SharedNetworkCounter::new(&net);
        let ops = drive(&counter, Workload { threads: 8, increments_per_thread: 100 });
        let mut values: Vec<u64> = ops.iter().map(|o| o.value).collect();
        values.sort_unstable();
        assert_eq!(values, (0..800).collect::<Vec<_>>());
        // The fraction meters run on real histories; counting networks give
        // no hard consistency guarantee here, so only sanity-bound them.
        let f = non_linearizability_fraction(&ops);
        assert!((0.0..=1.0).contains(&f));
    }

    #[test]
    fn per_thread_enter_times_increase() {
        let counter = FetchAddCounter::new();
        let ops = drive(&counter, Workload { threads: 2, increments_per_thread: 50 });
        for p in 0..2 {
            let mine: Vec<_> = ops.iter().filter(|o| o.process == p).collect();
            assert!(mine.windows(2).all(|w| w[0].exit_ns <= w[1].enter_ns));
        }
    }

    #[test]
    fn streamed_ops_match_batch_verdicts() {
        let counter = FetchAddCounter::new();
        let ops = drive(&counter, Workload { threads: 3, increments_per_thread: 60 });
        let mut aud = StreamingAuditor::new();
        for &op in &ops {
            aud.record(op);
        }
        assert_eq!(aud.operations(), 180);
        assert!(aud.is_linearizable());
        assert!(aud.is_sequentially_consistent());
        assert_eq!(aud.f_nl(), 0.0);
    }
}
