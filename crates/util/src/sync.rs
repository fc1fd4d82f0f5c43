//! Concurrency shims over `std::sync`, replacing `parking_lot` and
//! `crossbeam` for the runtime crate's counter implementations.
//!
//! * [`Mutex`] — a poison-free mutex (lock-holder panics don't cascade
//!   into unrelated threads, matching `parking_lot` semantics);
//! * [`Backoff`] — truncated exponential spin-then-yield backoff for
//!   contended retry loops;
//! * [`CachePadded`] — aligns a value to its own cache line so logically
//!   independent atomics never false-share;
//! * [`unbounded`] — an unbounded multi-producer **multi-consumer** channel
//!   (both ends clonable; `std::sync::mpsc` receivers are not, and the
//!   message-passing counter shares one receiver per balancer across
//!   worker threads).

use std::cell::Cell;
use std::collections::VecDeque;
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::{Arc, Condvar};

/// The atomic types used by every lock-free algorithm in the workspace.
///
/// In normal builds this is a zero-cost re-export of
/// `std::sync::atomic`. Under the `model-check` feature the same names
/// resolve to the shims in `crate::model::atomic`, which route every
/// load/store/RMW through the bounded-interleaving model checker's
/// cooperative scheduler (and fall back to plain `std` behavior on
/// threads that are not part of a model scenario). Code that wants to
/// be model-checkable imports from here instead of `std::sync::atomic`
/// — a pure rename.
pub mod atomic {
    #[cfg(not(feature = "model-check"))]
    pub use std::sync::atomic::{
        AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering,
    };

    #[cfg(feature = "model-check")]
    pub use crate::model::atomic::{
        AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering,
    };
}

/// Pads and aligns a value to the size of a cache line (64 bytes — the
/// coherence granule on x86-64 and most AArch64 parts).
///
/// The point of a counting network is that logically independent balancers
/// absorb contention *independently*; packing their state words densely
/// into one `Vec` re-couples them through the cache-coherence protocol
/// (false sharing). Wrapping each word restores the independence the
/// paper's model assumes.
///
/// # Example
///
/// ```
/// use cnet_util::sync::CachePadded;
/// use std::sync::atomic::AtomicU64;
///
/// let slots: Vec<CachePadded<AtomicU64>> =
///     (0..4).map(|_| CachePadded::new(AtomicU64::new(0))).collect();
/// assert_eq!(std::mem::align_of_val(&slots[0]), 64);
/// assert!(std::mem::size_of_val(&slots[0]) >= 64);
/// ```
#[derive(Default)]
#[repr(align(64))]
pub struct CachePadded<T> {
    value: T,
}

impl<T> CachePadded<T> {
    /// Pads `value` to its own cache line.
    pub const fn new(value: T) -> Self {
        CachePadded { value }
    }

    /// Consumes the padding, returning the value.
    pub fn into_inner(self) -> T {
        self.value
    }
}

impl<T> Deref for CachePadded<T> {
    type Target = T;

    #[inline]
    fn deref(&self) -> &T {
        &self.value
    }
}

impl<T> DerefMut for CachePadded<T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut T {
        &mut self.value
    }
}

impl<T> From<T> for CachePadded<T> {
    fn from(value: T) -> Self {
        CachePadded::new(value)
    }
}

impl<T: fmt::Debug> fmt::Debug for CachePadded<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("CachePadded").field(&self.value).finish()
    }
}

/// A mutual-exclusion lock that ignores poisoning: if a holder panics, the
/// next `lock()` simply proceeds with the data as it was.
pub struct Mutex<T: ?Sized> {
    inner: std::sync::Mutex<T>,
}

impl<T> Mutex<T> {
    /// A new lock owning `value`.
    pub fn new(value: T) -> Self {
        Mutex {
            inner: std::sync::Mutex::new(value),
        }
    }

    /// Consumes the lock, returning the value.
    pub fn into_inner(self) -> T {
        match self.inner.into_inner() {
            Ok(v) => v,
            Err(poisoned) => poisoned.into_inner(),
        }
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Blocks until the lock is held, never failing on poison.
    ///
    /// Under the `model-check` feature, acquisition by a model-scenario
    /// thread becomes a scheduling point (a try-lock/yield loop), so
    /// the checker explores lock-acquisition orders; release is not a
    /// separate point (it is bundled with the holder's next operation).
    pub fn lock(&self) -> std::sync::MutexGuard<'_, T> {
        #[cfg(feature = "model-check")]
        if crate::model::thread_is_modeled() {
            loop {
                crate::model::op_point();
                match self.inner.try_lock() {
                    Ok(guard) => return guard,
                    Err(std::sync::TryLockError::Poisoned(p)) => {
                        return p.into_inner()
                    }
                    Err(std::sync::TryLockError::WouldBlock) => {
                        crate::model::yield_point()
                    }
                }
            }
        }
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        match self.inner.get_mut() {
            Ok(v) => v,
            Err(poisoned) => poisoned.into_inner(),
        }
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Mutex::new(T::default())
    }
}

impl<T: fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.inner.try_lock() {
            Ok(guard) => f.debug_tuple("Mutex").field(&*guard).finish(),
            Err(_) => f.write_str("Mutex(<locked>)"),
        }
    }
}

/// Truncated exponential backoff: spin-loop hints that double each step,
/// then thread yields once the spin budget saturates. Call
/// [`Backoff::snooze`] on each failed attempt of a retry loop.
pub struct Backoff {
    step: Cell<u32>,
}

const SPIN_LIMIT: u32 = 6;

impl Backoff {
    /// A fresh backoff at the shortest delay.
    pub fn new() -> Self {
        Backoff { step: Cell::new(0) }
    }

    /// Resets to the shortest delay (after a successful attempt).
    pub fn reset(&self) {
        self.step.set(0);
    }

    /// Waits briefly, escalating from busy-spin to `yield_now`.
    ///
    /// Under the `model-check` feature, a model-scenario thread parks
    /// at a yield point instead of spinning: it becomes runnable again
    /// only after another thread has progressed, which keeps retry
    /// loops finite under exhaustive schedule exploration.
    pub fn snooze(&self) {
        #[cfg(feature = "model-check")]
        if crate::model::thread_is_modeled() {
            crate::model::yield_point();
            return;
        }
        let step = self.step.get();
        if step <= SPIN_LIMIT {
            for _ in 0..1u32 << step {
                std::hint::spin_loop();
            }
            self.step.set(step + 1);
        } else {
            std::thread::yield_now();
        }
    }
}

impl Default for Backoff {
    fn default() -> Self {
        Backoff::new()
    }
}

impl fmt::Debug for Backoff {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Backoff").field("step", &self.step.get()).finish()
    }
}

/// Sending on a channel with no remaining receivers.
#[derive(PartialEq, Eq)]
pub struct SendError<T>(pub T);

// Like crossbeam, debug-printable regardless of whether `T` is.
impl<T> fmt::Debug for SendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("SendError(..)")
    }
}

impl<T> fmt::Display for SendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("sending on a disconnected channel")
    }
}

/// Receiving on an empty channel with no remaining senders.
#[derive(Debug, PartialEq, Eq)]
pub struct RecvError;

impl fmt::Display for RecvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("receiving on an empty, disconnected channel")
    }
}

impl std::error::Error for RecvError {}

struct ChannelState<T> {
    queue: VecDeque<T>,
    senders: usize,
    receivers: usize,
}

struct Channel<T> {
    state: Mutex<ChannelState<T>>,
    ready: Condvar,
}

/// The sending half of an unbounded channel; clonable.
pub struct Sender<T> {
    chan: Arc<Channel<T>>,
}

/// The receiving half of an unbounded channel; clonable (multi-consumer —
/// each message is delivered to exactly one receiver).
pub struct Receiver<T> {
    chan: Arc<Channel<T>>,
}

/// An unbounded MPMC FIFO channel.
pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
    let chan = Arc::new(Channel {
        state: Mutex::new(ChannelState {
            queue: VecDeque::new(),
            senders: 1,
            receivers: 1,
        }),
        ready: Condvar::new(),
    });
    (
        Sender { chan: Arc::clone(&chan) },
        Receiver { chan },
    )
}

impl<T> Sender<T> {
    /// Enqueues a message; fails only when every receiver has dropped.
    pub fn send(&self, msg: T) -> Result<(), SendError<T>> {
        let mut state = self.chan.state.lock();
        if state.receivers == 0 {
            return Err(SendError(msg));
        }
        state.queue.push_back(msg);
        drop(state);
        self.chan.ready.notify_one();
        Ok(())
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.chan.state.lock().senders += 1;
        Sender { chan: Arc::clone(&self.chan) }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut state = self.chan.state.lock();
        state.senders -= 1;
        let last = state.senders == 0;
        drop(state);
        if last {
            // Wake blocked receivers so they observe the disconnect.
            self.chan.ready.notify_all();
        }
    }
}

impl<T> fmt::Debug for Sender<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Sender { .. }")
    }
}

impl<T> Receiver<T> {
    /// Dequeues the next message, blocking while the channel is empty;
    /// fails once the channel is empty and every sender has dropped.
    pub fn recv(&self) -> Result<T, RecvError> {
        // The shim Mutex guard is a std guard, so Condvar::wait composes.
        let mut state = self.chan.state.lock();
        loop {
            if let Some(msg) = state.queue.pop_front() {
                return Ok(msg);
            }
            if state.senders == 0 {
                return Err(RecvError);
            }
            state = self
                .chan
                .ready
                .wait(state)
                .unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Dequeues without blocking; `None` when currently empty.
    pub fn try_recv(&self) -> Option<T> {
        self.chan.state.lock().queue.pop_front()
    }
}

impl<T> Clone for Receiver<T> {
    fn clone(&self) -> Self {
        self.chan.state.lock().receivers += 1;
        Receiver { chan: Arc::clone(&self.chan) }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        self.chan.state.lock().receivers -= 1;
    }
}

impl<T> fmt::Debug for Receiver<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Receiver { .. }")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn mutex_survives_holder_panics() {
        let m = Arc::new(Mutex::new(5u64));
        let m2 = Arc::clone(&m);
        let _ = thread::spawn(move || {
            let _guard = m2.lock();
            panic!("holder dies");
        })
        .join();
        *m.lock() += 1;
        assert_eq!(*m.lock(), 6);
    }

    #[test]
    fn channel_is_fifo_per_sender() {
        let (tx, rx) = unbounded();
        for i in 0..100 {
            tx.send(i).unwrap();
        }
        for i in 0..100 {
            assert_eq!(rx.recv(), Ok(i));
        }
    }

    #[test]
    fn recv_fails_after_all_senders_drop() {
        let (tx, rx) = unbounded();
        let tx2 = tx.clone();
        tx.send(1).unwrap();
        drop(tx);
        tx2.send(2).unwrap();
        drop(tx2);
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.recv(), Ok(2));
        assert_eq!(rx.recv(), Err(RecvError));
    }

    #[test]
    fn send_fails_after_all_receivers_drop() {
        let (tx, rx) = unbounded();
        let rx2 = rx.clone();
        drop(rx);
        tx.send(1).unwrap();
        drop(rx2);
        assert_eq!(tx.send(2), Err(SendError(2)));
    }

    #[test]
    fn cloned_receivers_partition_messages() {
        let (tx, rx) = unbounded();
        let rx2 = rx.clone();
        let n = 1000u64;
        let consumer = |rx: Receiver<u64>| {
            thread::spawn(move || {
                let mut got = Vec::new();
                while let Ok(v) = rx.recv() {
                    got.push(v);
                }
                got
            })
        };
        let h1 = consumer(rx);
        let h2 = consumer(rx2);
        for i in 0..n {
            tx.send(i).unwrap();
        }
        drop(tx);
        let mut all = h1.join().unwrap();
        all.extend(h2.join().unwrap());
        all.sort_unstable();
        assert_eq!(all, (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn blocking_recv_wakes_on_send() {
        let (tx, rx) = unbounded();
        let h = thread::spawn(move || rx.recv());
        thread::sleep(std::time::Duration::from_millis(10));
        tx.send(42).unwrap();
        assert_eq!(h.join().unwrap(), Ok(42));
    }

    #[test]
    fn cache_padded_is_line_sized_and_transparent() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        assert!(std::mem::size_of::<CachePadded<AtomicUsize>>() >= 64);
        assert_eq!(std::mem::align_of::<CachePadded<AtomicUsize>>(), 64);
        let mut c = CachePadded::new(AtomicUsize::new(7));
        assert_eq!(c.load(Ordering::Relaxed), 7);
        *c.get_mut() = 9;
        assert_eq!(c.into_inner().into_inner(), 9);
        // Adjacent vector elements land on distinct cache lines.
        let v: Vec<CachePadded<AtomicUsize>> =
            (0..2).map(|_| CachePadded::new(AtomicUsize::new(0))).collect();
        let a = &*v[0] as *const AtomicUsize as usize;
        let b = &*v[1] as *const AtomicUsize as usize;
        assert!(b.abs_diff(a) >= 64);
    }

    #[test]
    fn backoff_makes_progress() {
        let b = Backoff::new();
        for _ in 0..100 {
            b.snooze();
        }
        b.reset();
        b.snooze();
    }
}
