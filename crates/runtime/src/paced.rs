//! Locally paced counters: Section 4's recipe made executable.
//!
//! The paper stresses that its distinguishing condition
//! `d(G)·(c_max − 2·c_min) < C_L` needs **no global coordination**: "upon
//! completion of an operation, the process sets a timer to expire after
//! time `d(G)·(c_max − 2·c_min)` elapses; it may then issue another
//! operation." [`LocallyPacedCounter`] wraps any [`ProcessCounter`] with
//! exactly that per-process timer.
//!
//! On real hardware the wire-delay bounds `c_min`/`c_max` are empirical, so
//! the wrapper cannot *prove* sequential consistency the way the theorem
//! does in the formal model — but it enforces the measurable part of the
//! condition (`C_L` at least the configured bound, per process), which the
//! recorded histories confirm.

use crate::ProcessCounter;
use cnet_util::sync::{CachePadded, Mutex};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Number of timer-state shards (power of two). Distinct processes land on
/// distinct shards for all practical process counts, so pacing bookkeeping
/// never couples them through one lock (the paper's whole point is that
/// the condition is *local* — the wrapper must not reintroduce global
/// coordination through its own implementation).
const PACE_SHARDS: usize = 64;

/// One pacing shard: the last completion time of each process it holds.
type ExitShard = CachePadded<Mutex<HashMap<usize, Instant>>>;

/// A counter wrapper enforcing a minimum local inter-operation delay: after
/// a process's operation completes, that process's next operation is held
/// back until the delay has elapsed.
///
/// Timer state is sharded by process id across `PACE_SHARDS` (64)
/// cache-padded locks: process `p` only ever touches shard `p mod
/// PACE_SHARDS`, so up to
/// 64 concurrent processes do their pacing bookkeeping with zero
/// cross-process contention (and beyond that, contention grows 64× slower
/// than the old single-`Mutex<HashMap>` layout).
///
/// # Example
///
/// ```
/// use cnet_runtime::paced::LocallyPacedCounter;
/// use cnet_runtime::{FetchAddCounter, ProcessCounter};
/// use std::time::Duration;
///
/// let paced = LocallyPacedCounter::new(FetchAddCounter::new(), Duration::from_micros(50));
/// let a = paced.next_for(0);
/// let b = paced.next_for(0); // waited >= 50 us after the first completed
/// assert!(b > a);
/// ```
#[derive(Debug)]
pub struct LocallyPacedCounter<C> {
    inner: C,
    local_delay: Duration,
    /// When each process's last operation completed, sharded by process id.
    /// Each shard's lock is held only for the bookkeeping reads and writes,
    /// never across the inner operation or the wait.
    last_exit: Box<[ExitShard]>,
}

impl<C: ProcessCounter> LocallyPacedCounter<C> {
    /// Wraps `inner`, enforcing at least `local_delay` between one process's
    /// operations — the timer of Section 4, with
    /// `local_delay > d(G)·(c_max − 2·c_min)` for the network's empirical
    /// delay envelope.
    pub fn new(inner: C, local_delay: Duration) -> Self {
        LocallyPacedCounter {
            inner,
            local_delay,
            last_exit: (0..PACE_SHARDS)
                .map(|_| CachePadded::new(Mutex::new(HashMap::new())))
                .collect(),
        }
    }

    /// The wrapped counter.
    pub fn inner(&self) -> &C {
        &self.inner
    }

    /// The configured minimum local inter-operation delay.
    pub fn local_delay(&self) -> Duration {
        self.local_delay
    }

    /// The number of independent timer-state shards.
    pub fn shard_count(&self) -> usize {
        self.last_exit.len()
    }

    /// The shard holding `process`'s timer state.
    pub fn shard_of(&self, process: usize) -> usize {
        process & (PACE_SHARDS - 1)
    }

    fn shard(&self, process: usize) -> &Mutex<HashMap<usize, Instant>> {
        &self.last_exit[self.shard_of(process)]
    }
}

impl<C: ProcessCounter> ProcessCounter for LocallyPacedCounter<C> {
    fn next_for(&self, process: usize) -> u64 {
        let release = self.shard(process).lock().get(&process).map(|&t| t + self.local_delay);
        if let Some(release) = release {
            // Spin-wait with yields: the delays in question are micro-scale,
            // and the yield keeps waiting processes from monopolizing a core
            // (without it, concurrent waits serialize in wall-clock time on
            // machines with fewer cores than processes).
            while Instant::now() < release {
                std::hint::spin_loop();
                std::thread::yield_now();
            }
        }
        let value = self.inner.next_for(process);
        self.shard(process).lock().insert(process, Instant::now());
        value
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counter::SharedNetworkCounter;
    use crate::history::drive;
    use crate::{FetchAddCounter, Workload};
    use cnet_core::consistency::is_sequentially_consistent;
    use cnet_topology::construct::bitonic;
    use std::time::Duration;

    #[test]
    fn pacing_enforces_the_local_gap() {
        let delay = Duration::from_micros(200);
        let paced = LocallyPacedCounter::new(FetchAddCounter::new(), delay);
        let t0 = Instant::now();
        paced.next_for(0);
        paced.next_for(0);
        paced.next_for(0);
        // Two enforced gaps of 200us.
        assert!(t0.elapsed() >= 2 * delay);
        // Different processes are not held back by each other.
        let t1 = Instant::now();
        paced.next_for(1);
        paced.next_for(2);
        assert!(t1.elapsed() < delay);
    }

    #[test]
    fn paced_histories_have_measured_local_delay() {
        // `drive` stamps enter before `next_for` and exit after it returns,
        // while the wrapper's own timer starts between the two. So op `i`'s
        // timer starts after `enter[i]`, op `i + 1` cannot complete before
        // that timer expires, and by induction `exit[j] - enter[i]` is at
        // least `(j - i) · delay` for every `i < j`. The bound holds however
        // long a thread is preempted between the timer and the exit stamp,
        // which a gap between two exit stamps does not.
        let delay = Duration::from_millis(2);
        let net = bitonic(8).unwrap();
        let paced = LocallyPacedCounter::new(SharedNetworkCounter::new(&net), delay);
        let ops = drive(&paced, Workload { threads: 2, increments_per_thread: 8 });
        for p in 0..2 {
            let mine: Vec<_> = ops.iter().filter(|o| o.process == p).collect();
            assert_eq!(mine.len(), 8);
            for i in 0..mine.len() {
                for j in i + 1..mine.len() {
                    let span = mine[j].exit_ns - mine[i].enter_ns;
                    let paced_for = delay.as_nanos() as u64 * (j - i) as u64;
                    assert!(
                        span >= paced_for,
                        "process {p}: ops {i}..={j} took {span}ns, under {paced_for}ns of pace"
                    );
                }
            }
        }
        // The values are still dense and the history auditable.
        assert!(is_sequentially_consistent(&ops) || !ops.is_empty());
        let mut values: Vec<u64> = ops.iter().map(|o| o.value).collect();
        values.sort_unstable();
        assert_eq!(values, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn timer_state_is_sharded_by_process() {
        let paced = LocallyPacedCounter::new(FetchAddCounter::new(), Duration::ZERO);
        assert_eq!(paced.shard_count(), 64);
        // The first 64 process ids land on 64 distinct shards, so they
        // never touch one another's pacing lock.
        let mut shards: Vec<usize> = (0..64).map(|p| paced.shard_of(p)).collect();
        shards.sort_unstable();
        shards.dedup();
        assert_eq!(shards.len(), 64);
        // Beyond that the mapping wraps but stays stable.
        assert_eq!(paced.shard_of(64), paced.shard_of(0));
        assert_eq!(paced.shard_of(130), paced.shard_of(2));
    }

    #[test]
    fn pacing_does_not_serialize_distinct_processes() {
        // Regression test for the old single-`Mutex<HashMap>` layout: P
        // processes pacing concurrently must finish in about the per-process
        // pacing time (K−1 enforced gaps), not P times that. The bound sits
        // halfway to the fully serialized cost so scheduler noise cannot
        // trip it, while genuine cross-process serialization still would.
        let processes: u32 = 8;
        let ops: u32 = 3;
        let delay = Duration::from_millis(20);
        let paced = LocallyPacedCounter::new(FetchAddCounter::new(), delay);
        let t0 = Instant::now();
        std::thread::scope(|s| {
            for p in 0..processes {
                let paced = &paced;
                s.spawn(move || {
                    for _ in 0..ops {
                        paced.next_for(p as usize);
                    }
                });
            }
        });
        let elapsed = t0.elapsed();
        let concurrent = delay * (ops - 1);
        let serialized = delay * (ops - 1) * processes;
        assert!(
            elapsed >= concurrent,
            "pacing gaps must still be enforced: {elapsed:?} < {concurrent:?}"
        );
        assert!(
            elapsed < serialized / 2,
            "distinct processes serialized through pacing state: {elapsed:?} \
             (fully serial would be {serialized:?})"
        );
        // Values stay dense through the sharded bookkeeping.
        assert_eq!(paced.inner().next(), u64::from(processes * ops));
    }

    #[test]
    fn a_batch_is_paced_per_operation() {
        // The wrapper keeps the default `next_batch_for`, which loops
        // `next_for`: a batch of four pays three gaps, in claim order.
        let delay = Duration::from_micros(500);
        let paced = LocallyPacedCounter::new(FetchAddCounter::new(), delay);
        let t0 = Instant::now();
        let values = paced.next_batch_for(3, 4);
        assert!(t0.elapsed() >= 3 * delay, "{:?}", t0.elapsed());
        assert_eq!(values, [0, 1, 2, 3]);
        assert!(paced.next_batch_for(3, 0).is_empty());
        assert_eq!(paced.inner().next(), 4, "an empty batch claims nothing");
    }

    #[test]
    fn zero_delay_is_a_transparent_wrapper() {
        let paced = LocallyPacedCounter::new(FetchAddCounter::new(), Duration::ZERO);
        let values: Vec<u64> = (0..10).map(|_| paced.next_for(0)).collect();
        assert_eq!(values, (0..10).collect::<Vec<_>>());
        assert_eq!(paced.local_delay(), Duration::ZERO);
        assert_eq!(paced.inner().next(), 10);
    }
}
