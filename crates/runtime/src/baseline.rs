//! Centralized counter baselines.
//!
//! Counting networks were introduced (\[AHS94\]) to beat counters "handing out
//! values from a single memory location" under contention. These are those
//! single locations: the benchmark harness races them against
//! [`crate::SharedNetworkCounter`].

use crate::ProcessCounter;
use cnet_util::sync::atomic::{AtomicU64, Ordering};
use cnet_util::sync::Mutex;

/// A single-word fetch-and-increment counter — linearizable by
/// construction, but every operation contends on one cache line.
///
/// # Example
///
/// ```
/// use cnet_runtime::{FetchAddCounter, ProcessCounter};
///
/// let c = FetchAddCounter::new();
/// assert_eq!(c.next_for(0), 0);
/// assert_eq!(c.next_for(1), 1);
/// ```
#[derive(Debug, Default)]
pub struct FetchAddCounter {
    value: AtomicU64,
}

impl FetchAddCounter {
    /// A counter poised to hand out 0.
    pub fn new() -> Self {
        FetchAddCounter::default()
    }

    /// Returns the next value.
    pub fn next(&self) -> u64 {
        self.value.fetch_add(1, Ordering::AcqRel)
    }
}

impl ProcessCounter for FetchAddCounter {
    fn next_for(&self, _process: usize) -> u64 {
        self.next()
    }

    /// One `fetch_add(n)` claims the whole batch: the values are the
    /// contiguous range `base..base + n`. An empty batch touches nothing
    /// (the `n == 0` contract — a `fetch_add(0)` is still a shared RMW).
    fn next_batch_for(&self, _process: usize, n: usize) -> Vec<u64> {
        if n == 0 {
            return Vec::new();
        }
        let base = self.value.fetch_add(n as u64, Ordering::AcqRel);
        (base..base + n as u64).collect()
    }
}

/// A mutex-protected counter — the queue-lock style baseline (\[MS91\]
/// motivates counting networks against exactly this kind of serialization).
#[derive(Debug, Default)]
pub struct LockCounter {
    value: Mutex<u64>,
}

impl LockCounter {
    /// A counter poised to hand out 0.
    pub fn new() -> Self {
        LockCounter::default()
    }

    /// Returns the next value.
    pub fn next(&self) -> u64 {
        let mut guard = self.value.lock();
        let v = *guard;
        *guard += 1;
        v
    }
}

impl ProcessCounter for LockCounter {
    fn next_for(&self, _process: usize) -> u64 {
        self.next()
    }

    /// One lock acquisition claims the whole batch; an empty batch takes
    /// no lock at all (the `n == 0` contract).
    fn next_batch_for(&self, _process: usize, n: usize) -> Vec<u64> {
        if n == 0 {
            return Vec::new();
        }
        let mut guard = self.value.lock();
        let base = *guard;
        *guard += n as u64;
        (base..base + n as u64).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    fn hammer<C: ProcessCounter>(c: &C, threads: usize, per_thread: usize) -> Vec<u64> {
        let mut values: Vec<u64> = thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|p| {
                    s.spawn(move || (0..per_thread).map(|_| c.next_for(p)).collect::<Vec<u64>>())
                })
                .collect();
            handles.into_iter().flat_map(|h| h.join().unwrap()).collect()
        });
        values.sort_unstable();
        values
    }

    #[test]
    fn fetch_add_is_gap_free_under_contention() {
        let c = FetchAddCounter::new();
        assert_eq!(hammer(&c, 8, 1000), (0..8000).collect::<Vec<_>>());
    }

    #[test]
    fn lock_counter_is_gap_free_under_contention() {
        let c = LockCounter::new();
        assert_eq!(hammer(&c, 8, 500), (0..4000).collect::<Vec<_>>());
    }

    #[test]
    fn batched_baselines_stay_gap_free() {
        for c in [
            Box::new(FetchAddCounter::new()) as Box<dyn ProcessCounter>,
            Box::new(LockCounter::new()),
        ] {
            let mut values: Vec<u64> = thread::scope(|s| {
                let handles: Vec<_> = (0..4usize)
                    .map(|p| {
                        let c = &c;
                        s.spawn(move || {
                            (0..50).flat_map(|_| c.next_batch_for(p, 20)).collect::<Vec<u64>>()
                        })
                    })
                    .collect();
                handles.into_iter().flat_map(|h| h.join().unwrap()).collect()
            });
            values.sort_unstable();
            assert_eq!(values, (0..4000).collect::<Vec<_>>());
        }
    }

    #[test]
    fn fetch_add_batch_is_a_contiguous_range() {
        let c = FetchAddCounter::new();
        assert_eq!(c.next_batch_for(0, 4), vec![0, 1, 2, 3]);
        assert_eq!(c.next_for(0), 4);
        assert!(c.next_batch_for(0, 0).is_empty());
    }

    #[test]
    fn fetch_add_values_per_thread_increase() {
        // A single-word counter is linearizable, hence trivially SC: each
        // thread's own values must increase.
        let c = FetchAddCounter::new();
        thread::scope(|s| {
            for _ in 0..4 {
                let c = &c;
                s.spawn(move || {
                    let mut last = None;
                    for _ in 0..1000 {
                        let v = c.next();
                        assert!(last.is_none_or(|l| v > l));
                        last = Some(v);
                    }
                });
            }
        });
    }
}
