//! Concurrency shims over `std::sync`, replacing `parking_lot` and
//! `crossbeam` for the runtime crate's counter implementations.
//!
//! * [`Mutex`] — a poison-free mutex (lock-holder panics don't cascade
//!   into unrelated threads, matching `parking_lot` semantics);
//! * [`Backoff`] — truncated exponential spin-then-yield backoff for
//!   contended retry loops;
//! * [`CachePadded`] — aligns a value to its own cache line so logically
//!   independent atomics never false-share;
//! * [`atomic`] — the atomic types, routed through the model checker
//!   under the `model-check` feature;
//! * [`zeroed_slice`] — a boxed slice of zero-valued atomics taken from
//!   one zeroed allocation, so its pages are committed only when first
//!   written.

use std::cell::Cell;
use std::fmt;
use std::ops::{Deref, DerefMut};

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
    pub use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};

    #[cfg(feature = "model-check")]
    pub use crate::model::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
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

/// Atomic words whose zero value is all-zero bytes, so a slice of them can
/// come from one zeroed allocation ([`zeroed_slice`]). Sealed: only
/// [`atomic::AtomicU64`] and arrays of it qualify.
pub trait Zeroed: sealed::Sealed + Sized {
    /// The zero value, built the ordinary way.
    fn zero() -> Self;
}

mod sealed {
    pub trait Sealed {}
    impl Sealed for super::atomic::AtomicU64 {}
    impl<T: Sealed, const N: usize> Sealed for [T; N] {}
}

impl Zeroed for atomic::AtomicU64 {
    fn zero() -> Self {
        atomic::AtomicU64::new(0)
    }
}

impl<T: Zeroed, const N: usize> Zeroed for [T; N] {
    fn zero() -> Self {
        std::array::from_fn(|_| T::zero())
    }
}

/// `len` zero-valued atomics in one boxed slice.
///
/// The slice comes from a single zeroed allocation rather than `len`
/// constructions, so a large ring costs no page it never writes: the
/// allocator hands back fresh zero pages, and the kernel commits each one
/// when it is first stored to. Under the `model-check` feature the shim
/// atomics are not plain integers, so each element is built with
/// [`Zeroed::zero`] instead.
pub fn zeroed_slice<T: Zeroed>(len: usize) -> Box<[T]> {
    #[cfg(feature = "model-check")]
    {
        (0..len).map(|_| T::zero()).collect()
    }
    #[cfg(not(feature = "model-check"))]
    {
        let zeroed = Box::<[T]>::new_zeroed_slice(len);
        // SAFETY: without `model-check`, `T` is `std`'s `AtomicU64` or an
        // array of it (the trait is sealed), and `std` documents
        // `AtomicU64` as having the same size and bit validity as `u64`;
        // all-zero bytes are therefore a valid value, the same one
        // `Zeroed::zero` builds.
        #[allow(unsafe_code)]
        unsafe {
            zeroed.assume_init()
        }
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
        Mutex { inner: std::sync::Mutex::new(value) }
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
                    Err(std::sync::TryLockError::Poisoned(p)) => return p.into_inner(),
                    Err(std::sync::TryLockError::WouldBlock) => crate::model::yield_point(),
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn zeroed_slices_read_zero_and_take_stores() {
        let words: Box<[atomic::AtomicU64]> = zeroed_slice(1 << 16);
        assert_eq!(words.len(), 1 << 16);
        assert!(words.iter().all(|w| w.load(atomic::Ordering::Relaxed) == 0));
        words[4095].store(7, atomic::Ordering::Relaxed);
        assert_eq!(words[4095].load(atomic::Ordering::Relaxed), 7);
        let triples: Box<[[atomic::AtomicU64; 3]]> = zeroed_slice(5);
        assert!(triples.iter().flatten().all(|w| w.load(atomic::Ordering::Relaxed) == 0));
        assert!(zeroed_slice::<atomic::AtomicU64>(0).is_empty());
    }

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
    fn mutex_hands_back_the_value_after_a_holder_panics() {
        let mut m = Mutex::new(vec![1u64]);
        let _ = thread::scope(|s| {
            s.spawn(|| {
                m.lock().push(2);
                panic!("holder dies");
            })
            .join()
        });
        m.get_mut().push(3);
        assert_eq!(m.into_inner(), vec![1, 2, 3]);
    }

    #[test]
    fn mutex_debug_shows_the_value_or_that_it_is_held() {
        let m = Mutex::new(7u8);
        assert_eq!(format!("{m:?}"), "Mutex(7)");
        let guard = m.lock();
        assert_eq!(format!("{m:?}"), "Mutex(<locked>)");
        drop(guard);
        assert_eq!(format!("{:?}", Mutex::<u8>::default()), "Mutex(0)");
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
