//! The combining funnel: a front-end that turns contention into batch
//! width.
//!
//! Concurrent single-token callers that collide at the counter's entry
//! publish their request in a per-slot [`CachePadded`] publication array.
//! Whoever wins the combiner lock sweeps the array, folds every pending
//! request into **one** [`ProcessCounter::next_batch_for`] call on the
//! inner counter — one batched traversal, at most one atomic per balancer
//! (see [`CompiledNetwork::traverse_batch`]) — and distributes the values
//! back through the slots. Losers spin briefly on their own cache line and
//! walk away with a value they never traversed for.
//!
//! This is the diffracting-prism idea run in reverse: instead of spreading
//! colliding tokens across space, the funnel *collects* them into batch
//! width, so the hotter the counter gets the cheaper each token becomes.
//! The trade is the same one the paper's framework prices: values within a
//! combined batch are claimed at a single linearization point, so
//! per-process program order still holds (each caller blocks until its
//! value arrives), but real-time ordering *across* callers can drift —
//! exactly the relaxation the streaming auditor (`cnet-core::trace`)
//! measures as `F_nl`/`F_nsc`.
//!
//! [`CompiledNetwork::traverse_batch`]: crate::compiled::CompiledNetwork::traverse_batch

use crate::ProcessCounter;
use cnet_util::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use cnet_util::sync::{Backoff, CachePadded};

/// Slot states of the publication array.
const FREE: usize = 0;
const PENDING: usize = 1;
const DONE: usize = 2;

/// One publication record: the state word and the value the combiner
/// deposits. Each slot owns a cache line, so a waiting caller spins
/// locally without disturbing anyone.
#[derive(Debug, Default)]
struct Slot {
    state: AtomicUsize,
    value: AtomicU64,
}

/// A combining front-end over any [`ProcessCounter`].
///
/// `next_for` publishes the request in slot `process % width`, then either
/// wins the combiner lock (serving every pending request in one batched
/// call on the inner counter) or waits for a combiner to serve it. Two
/// callers sharing a slot serialize on the slot claim, so `width >=`
/// the number of concurrent processes keeps publication contention-free.
///
/// Batched calls ([`ProcessCounter::next_batch_for`]) bypass the funnel —
/// they are already amortized — and go straight to the inner counter.
///
/// # Example
///
/// ```
/// use cnet_runtime::{CombiningFunnel, FetchAddCounter, ProcessCounter};
///
/// let funnel = CombiningFunnel::new(FetchAddCounter::new(), 4);
/// let mut values: Vec<u64> = (0..8).map(|p| funnel.next_for(p)).collect();
/// values.sort_unstable();
/// assert_eq!(values, (0..8).collect::<Vec<_>>());
/// ```
#[derive(Debug)]
pub struct CombiningFunnel<C> {
    inner: C,
    /// The combiner lock: `true` while somebody is sweeping.
    lock: CachePadded<AtomicBool>,
    slots: Box<[CachePadded<Slot>]>,
    /// Batched sweeps performed (every `next_for` lands in exactly one).
    combined_batches: CachePadded<AtomicU64>,
    /// Requests served through sweeps (equals `next_for` calls completed).
    combined_ops: CachePadded<AtomicU64>,
    /// The widest sweep seen so far — `> 1` means real combining happened.
    widest_batch: CachePadded<AtomicU64>,
    /// Times a caller won the combiner lock only to find a previous
    /// combiner had already served its slot (the own-slot-DONE recheck
    /// fired). Rare in the wild; the model checker proves it reachable.
    served_then_won_lock: CachePadded<AtomicU64>,
}

/// Deliberately seedable bugs for the model checker's own validation
/// (`model-check` builds only — see `tests/model_check.rs`). Skipping
/// the own-slot-DONE recheck reintroduces a race where a caller that
/// was served while contending for the combiner lock sweeps anyway,
/// double-claiming values; the checker must catch it and print a
/// replay string.
#[cfg(feature = "model-check")]
pub mod model_bugs {
    use std::sync::atomic::{AtomicBool, Ordering};

    /// When `true`, [`super::CombiningFunnel`]'s `next_for` skips the
    /// own-slot-DONE recheck after winning the combiner lock.
    pub static SKIP_SERVED_RECHECK: AtomicBool = AtomicBool::new(false);

    pub(super) fn skip_served_recheck() -> bool {
        SKIP_SERVED_RECHECK.load(Ordering::Relaxed)
    }
}

impl<C: ProcessCounter> CombiningFunnel<C> {
    /// Wraps `inner` with a publication array of `width` slots (at least
    /// one).
    pub fn new(inner: C, width: usize) -> Self {
        CombiningFunnel {
            inner,
            lock: CachePadded::new(AtomicBool::new(false)),
            slots: (0..width.max(1)).map(|_| CachePadded::default()).collect(),
            combined_batches: CachePadded::new(AtomicU64::new(0)),
            combined_ops: CachePadded::new(AtomicU64::new(0)),
            widest_batch: CachePadded::new(AtomicU64::new(0)),
            served_then_won_lock: CachePadded::new(AtomicU64::new(0)),
        }
    }

    /// The wrapped counter.
    pub fn inner(&self) -> &C {
        &self.inner
    }

    /// Number of publication slots.
    pub fn width(&self) -> usize {
        self.slots.len()
    }

    /// Batched sweeps performed so far.
    pub fn combined_batches(&self) -> u64 {
        self.combined_batches.load(Ordering::Relaxed)
    }

    /// Requests served through sweeps so far.
    pub fn combined_ops(&self) -> u64 {
        self.combined_ops.load(Ordering::Relaxed)
    }

    /// The widest single sweep so far; anything above 1 proves contention
    /// was converted into batch width.
    pub fn widest_batch(&self) -> u64 {
        self.widest_batch.load(Ordering::Relaxed)
    }

    /// Times the own-slot-DONE recheck fired: a caller won the combiner
    /// lock after a previous combiner had already served it. The model
    /// checker asserts this race is reachable (and handled).
    pub fn served_then_won_lock(&self) -> u64 {
        self.served_then_won_lock.load(Ordering::Relaxed)
    }

    /// Sweeps the publication array as the combiner (the lock is held):
    /// collects every `PENDING` slot, claims their values with one batched
    /// call, deposits results, and returns the value belonging to `me`.
    fn combine(&self, process: usize, me: usize) -> u64 {
        let pending: Vec<usize> = (0..self.slots.len())
            .filter(|&i| self.slots[i].state.load(Ordering::Acquire) == PENDING)
            .collect();
        // Our own slot is PENDING (we claimed it and nobody else writes
        // DONE while we hold the lock), so `pending` is never empty.
        debug_assert!(pending.contains(&me));
        let values = self.inner.next_batch_for(process, pending.len());
        self.combined_batches.fetch_add(1, Ordering::Relaxed);
        self.combined_ops.fetch_add(pending.len() as u64, Ordering::Relaxed);
        self.widest_batch.fetch_max(pending.len() as u64, Ordering::Relaxed);
        let mut mine = 0;
        for (&i, &v) in pending.iter().zip(&values) {
            if i == me {
                mine = v;
                self.slots[i].state.store(FREE, Ordering::Release);
            } else {
                self.slots[i].value.store(v, Ordering::Release);
                self.slots[i].state.store(DONE, Ordering::Release);
            }
        }
        self.lock.store(false, Ordering::Release);
        mine
    }
}

impl<C: ProcessCounter> ProcessCounter for CombiningFunnel<C> {
    fn next_for(&self, process: usize) -> u64 {
        let me = process % self.slots.len();
        let slot = &self.slots[me];
        // Claim the slot; two callers mapped to it serialize here.
        let claim = Backoff::new();
        while slot
            .state
            .compare_exchange_weak(FREE, PENDING, Ordering::AcqRel, Ordering::Acquire)
            .is_err()
        {
            claim.snooze();
        }
        loop {
            if !self.lock.swap(true, Ordering::Acquire) {
                // We hold the combiner lock — but a previous combiner may
                // have served us between our last DONE check and the swap.
                #[cfg(feature = "model-check")]
                let recheck = !model_bugs::skip_served_recheck();
                #[cfg(not(feature = "model-check"))]
                let recheck = true;
                if recheck && slot.state.load(Ordering::Acquire) == DONE {
                    self.served_then_won_lock.fetch_add(1, Ordering::Relaxed);
                    self.lock.store(false, Ordering::Release);
                    let v = slot.value.load(Ordering::Acquire);
                    slot.state.store(FREE, Ordering::Release);
                    return v;
                }
                return self.combine(process, me);
            }
            // Somebody else is sweeping: spin on our own line until they
            // serve us, or retry for the lock once they release it.
            let wait = Backoff::new();
            loop {
                if slot.state.load(Ordering::Acquire) == DONE {
                    let v = slot.value.load(Ordering::Acquire);
                    slot.state.store(FREE, Ordering::Release);
                    return v;
                }
                if !self.lock.load(Ordering::Acquire) {
                    break;
                }
                wait.snooze();
            }
        }
    }

    /// Batches are already amortized — they go straight to the inner
    /// counter's batched path instead of occupying the funnel.
    fn next_batch_for(&self, process: usize, n: usize) -> Vec<u64> {
        self.inner.next_batch_for(process, n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FetchAddCounter, SharedNetworkCounter};
    use cnet_topology::construct::bitonic;
    use std::sync::atomic::AtomicU32;
    use std::thread;
    use std::time::Duration;

    #[test]
    fn sequential_calls_each_combine_a_batch_of_one() {
        let funnel = CombiningFunnel::new(FetchAddCounter::new(), 4);
        for expect in 0..10 {
            assert_eq!(funnel.next_for(expect as usize), expect);
        }
        assert_eq!(funnel.combined_batches(), 10);
        assert_eq!(funnel.combined_ops(), 10);
        assert_eq!(funnel.widest_batch(), 1);
    }

    #[test]
    fn concurrent_funnel_values_are_gap_free() {
        let net = bitonic(8).unwrap();
        let funnel = CombiningFunnel::new(SharedNetworkCounter::new(&net), 8);
        let per_thread = 400;
        let mut values: Vec<u64> = thread::scope(|s| {
            let handles: Vec<_> = (0..8usize)
                .map(|p| {
                    let f = &funnel;
                    s.spawn(move || (0..per_thread).map(|_| f.next_for(p)).collect::<Vec<u64>>())
                })
                .collect();
            handles.into_iter().flat_map(|h| h.join().unwrap()).collect()
        });
        values.sort_unstable();
        let n = 8 * per_thread;
        assert_eq!(values, (0..n as u64).collect::<Vec<_>>());
        assert_eq!(funnel.combined_ops(), n as u64);
        assert!(funnel.combined_batches() <= n as u64);
    }

    #[test]
    fn colliding_callers_on_one_slot_serialize() {
        // Width 1: every process maps to the same slot; the claim CAS must
        // serialize them without losing values.
        let funnel = CombiningFunnel::new(FetchAddCounter::new(), 1);
        let mut values: Vec<u64> = thread::scope(|s| {
            let handles: Vec<_> = (0..4usize)
                .map(|p| {
                    let f = &funnel;
                    s.spawn(move || (0..100).map(|_| f.next_for(p)).collect::<Vec<u64>>())
                })
                .collect();
            handles.into_iter().flat_map(|h| h.join().unwrap()).collect()
        });
        values.sort_unstable();
        assert_eq!(values, (0..400).collect::<Vec<_>>());
        assert_eq!(funnel.widest_batch(), 1, "one slot can never combine");
    }

    /// A counter whose first batched call stalls, so concurrent callers
    /// pile up in the publication array — the next combiner must then
    /// sweep them all in one batch.
    struct Staller {
        inner: FetchAddCounter,
        calls: AtomicU32,
    }

    impl ProcessCounter for Staller {
        fn next_for(&self, process: usize) -> u64 {
            self.inner.next_for(process)
        }

        fn next_batch_for(&self, process: usize, n: usize) -> Vec<u64> {
            if self.calls.fetch_add(1, Ordering::AcqRel) == 0 {
                thread::sleep(Duration::from_millis(100));
            }
            self.inner.next_batch_for(process, n)
        }
    }

    #[test]
    fn contention_becomes_batch_width() {
        let threads = 4;
        let funnel = CombiningFunnel::new(
            Staller { inner: FetchAddCounter::new(), calls: AtomicU32::new(0) },
            threads,
        );
        let mut values: Vec<u64> = thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|p| {
                    let f = &funnel;
                    s.spawn(move || f.next_for(p))
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        values.sort_unstable();
        assert_eq!(values, (0..threads as u64).collect::<Vec<_>>());
        // While the first combiner stalled inside the inner counter, the
        // other callers published; whoever sweeps next collects them all.
        assert!(
            funnel.widest_batch() >= 2,
            "no combining happened: widest {} across {} batches",
            funnel.widest_batch(),
            funnel.combined_batches()
        );
        assert!(funnel.combined_batches() < threads as u64);
    }

    #[test]
    fn batched_calls_bypass_the_funnel() {
        let funnel = CombiningFunnel::new(FetchAddCounter::new(), 4);
        let values = funnel.next_batch_for(0, 5);
        assert_eq!(values, vec![0, 1, 2, 3, 4]);
        assert_eq!(funnel.combined_batches(), 0);
    }
}
