//! Counter-based barrier synchronization — the paper's Section 1.1
//! application.
//!
//! `n` processes each increment a shared counter when they reach the
//! barrier and busy-wait; the process that obtains the round's final value
//! releases everyone. The paper's point: this works with a **sequentially
//! consistent** counter, not just a linearizable one — once all `n`
//! increments have started, exactly one process receives the round's top
//! value (gap-freedom), and that is all the barrier needs.

use crate::ProcessCounter;
use cnet_util::sync::Backoff;
use std::sync::atomic::{AtomicU64, Ordering};

/// A reusable barrier for `parties` processes built on any
/// [`ProcessCounter`].
///
/// # Example
///
/// ```
/// use cnet_runtime::{CounterBarrier, FetchAddCounter};
/// use std::thread;
///
/// let barrier = CounterBarrier::new(FetchAddCounter::new(), 4);
/// thread::scope(|s| {
///     for p in 0..4 {
///         let b = &barrier;
///         s.spawn(move || {
///             for _round in 0..10 {
///                 b.wait(p);
///             }
///         });
///     }
/// });
/// ```
#[derive(Debug)]
pub struct CounterBarrier<C> {
    counter: C,
    parties: u64,
    /// Number of completed rounds; processes past round `r` wait for this to
    /// exceed `r`.
    generation: AtomicU64,
}

impl<C: ProcessCounter> CounterBarrier<C> {
    /// Creates a barrier for `parties` processes over the given counter.
    ///
    /// # Panics
    ///
    /// Panics if `parties` is zero.
    pub fn new(counter: C, parties: usize) -> Self {
        assert!(parties > 0, "a barrier needs at least one party");
        CounterBarrier { counter, parties: parties as u64, generation: AtomicU64::new(0) }
    }

    /// Blocks until all parties of the current round have arrived. Returns
    /// `true` for exactly one caller per round (the one that obtained the
    /// round's final value — the "leader", as in `std::sync::Barrier`).
    pub fn wait(&self, process: usize) -> bool {
        let v = self.counter.next_for(process);
        let round = v / self.parties;
        if v % self.parties == self.parties - 1 {
            // Last arrival of this round: release everyone.
            self.generation.store(round + 1, Ordering::Release);
            true
        } else {
            let backoff = Backoff::new();
            while self.generation.load(Ordering::Acquire) <= round {
                backoff.snooze();
            }
            false
        }
    }

    /// The counter backing the barrier.
    pub fn counter(&self) -> &C {
        &self.counter
    }

    /// How many rounds have completed.
    pub fn rounds_completed(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counter::SharedNetworkCounter;
    use crate::FetchAddCounter;
    use cnet_topology::construct::bitonic;
    use std::sync::atomic::AtomicUsize;
    use std::thread;

    /// All parties must be inside round r before anyone starts round r+1.
    /// The rounds run on a thread of their own, so that a hang fails by
    /// name within a minute (a run takes milliseconds) instead of spinning
    /// until the test run is killed.
    fn check_barrier<C: ProcessCounter + Send + Sync + 'static>(
        name: &str,
        counter: C,
        parties: usize,
        rounds: usize,
    ) {
        let (done, finished) = std::sync::mpsc::channel();
        let body = thread::spawn(move || {
            barrier_rounds(counter, parties, rounds);
            let _ = done.send(());
        });
        let limit = std::time::Duration::from_secs(60);
        if let Err(std::sync::mpsc::RecvTimeoutError::Timeout) = finished.recv_timeout(limit) {
            panic!("{parties}-party barrier over {name}: no result within {limit:?}");
        }
        if let Err(panic) = body.join() {
            std::panic::resume_unwind(panic);
        }
    }

    fn barrier_rounds<C: ProcessCounter>(counter: C, parties: usize, rounds: usize) {
        let barrier = CounterBarrier::new(counter, parties);
        let in_round = AtomicUsize::new(0);
        let leaders = AtomicUsize::new(0);
        thread::scope(|s| {
            for p in 0..parties {
                let b = &barrier;
                let in_round = &in_round;
                let leaders = &leaders;
                s.spawn(move || {
                    for round in 0..rounds {
                        let before = in_round.fetch_add(1, Ordering::AcqRel);
                        // No one can be more than `parties` arrivals ahead.
                        assert!(before < (round + 1) * parties);
                        if b.wait(p) {
                            leaders.fetch_add(1, Ordering::AcqRel);
                        }
                        // After the barrier, all `parties` arrivals of this
                        // round must have happened.
                        assert!(in_round.load(Ordering::Acquire) >= (round + 1) * parties);
                    }
                });
            }
        });
        assert_eq!(barrier.rounds_completed(), rounds as u64);
        assert_eq!(leaders.load(Ordering::Acquire), rounds);
    }

    #[test]
    fn barrier_over_fetch_add() {
        check_barrier("fetch_add", FetchAddCounter::new(), 4, 25);
    }

    #[test]
    fn barrier_over_counting_network() {
        let net = bitonic(8).unwrap();
        check_barrier("bitonic(8)", SharedNetworkCounter::new(&net), 6, 25);
    }

    #[test]
    fn single_party_barrier_never_blocks() {
        let barrier = CounterBarrier::new(FetchAddCounter::new(), 1);
        for _ in 0..5 {
            assert!(barrier.wait(0));
        }
        assert_eq!(barrier.rounds_completed(), 5);
    }

    #[test]
    #[should_panic(expected = "at least one party")]
    fn zero_parties_panics() {
        let _ = CounterBarrier::new(FetchAddCounter::new(), 0);
    }
}
