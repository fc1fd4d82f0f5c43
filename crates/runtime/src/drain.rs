//! A small shutdown idiom for threaded deployments: collect worker
//! [`JoinHandle`]s while spawning, then *drain* them — join every one,
//! exactly once, swallowing worker panics so one crashed server thread
//! cannot abort the teardown of its peers.
//!
//! `cnet-net`'s `CounterServer` tears its reactor threads down this way:
//! signal them through their own flag or wakeup, then
//! [`Drain::join_all`]. The subtle parts (idempotence, panicked-worker
//! handling, drop-time draining) live here, tested once.

use std::thread::JoinHandle;

/// An owned set of worker threads joined on [`join_all`](Self::join_all)
/// (called automatically on drop). The signal that makes the workers exit
/// is the owner's business — send a shutdown message, flip a flag, close a
/// socket — `Drain` only guarantees the joins happen, once, panics
/// notwithstanding.
///
/// # Example
///
/// ```
/// use cnet_runtime::drain::Drain;
/// use std::sync::atomic::{AtomicBool, Ordering};
/// use std::sync::Arc;
///
/// let stop = Arc::new(AtomicBool::new(false));
/// let mut drain = Drain::new();
/// for _ in 0..4 {
///     let stop = Arc::clone(&stop);
///     drain.push(std::thread::spawn(move || {
///         while !stop.load(Ordering::Acquire) {
///             std::thread::yield_now();
///         }
///     }));
/// }
/// stop.store(true, Ordering::Release); // the signal
/// let joined = drain.join_all();       // the drain
/// assert_eq!(joined, 4);
/// ```
#[derive(Debug, Default)]
pub struct Drain {
    handles: Vec<JoinHandle<()>>,
}

impl Drain {
    /// An empty drain.
    pub fn new() -> Self {
        Drain { handles: Vec::new() }
    }

    /// An empty drain with room for `n` handles.
    pub fn with_capacity(n: usize) -> Self {
        Drain { handles: Vec::with_capacity(n) }
    }

    /// Takes ownership of a worker's handle.
    pub fn push(&mut self, handle: JoinHandle<()>) {
        self.handles.push(handle);
    }

    /// The number of handles not yet joined.
    pub fn len(&self) -> usize {
        self.handles.len()
    }

    /// Whether every handle has been joined (or none was ever pushed).
    pub fn is_empty(&self) -> bool {
        self.handles.is_empty()
    }

    /// Joins every pending worker, ignoring individual panics, and returns
    /// how many were joined. Idempotent: a second call is a no-op. The
    /// caller must already have signalled the workers to exit, or this
    /// blocks until they do.
    pub fn join_all(&mut self) -> usize {
        let mut joined = 0;
        for h in self.handles.drain(..) {
            let _ = h.join();
            joined += 1;
        }
        joined
    }
}

impl Drop for Drain {
    fn drop(&mut self) {
        self.join_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn joins_every_worker_once() {
        let ran = Arc::new(AtomicUsize::new(0));
        let mut drain = Drain::with_capacity(3);
        for _ in 0..3 {
            let ran = Arc::clone(&ran);
            drain.push(std::thread::spawn(move || {
                ran.fetch_add(1, Ordering::Release);
            }));
        }
        assert_eq!(drain.len(), 3);
        assert_eq!(drain.join_all(), 3);
        assert_eq!(ran.load(Ordering::Acquire), 3);
        assert!(drain.is_empty());
        assert_eq!(drain.join_all(), 0); // idempotent
    }

    #[test]
    fn panicked_workers_do_not_poison_the_drain() {
        let mut drain = Drain::new();
        drain.push(std::thread::spawn(|| panic!("worker dies")));
        drain.push(std::thread::spawn(|| {}));
        assert_eq!(drain.join_all(), 2);
    }

    #[test]
    fn drop_drains_implicitly() {
        let ran = Arc::new(AtomicUsize::new(0));
        {
            let mut drain = Drain::new();
            let ran = Arc::clone(&ran);
            drain.push(std::thread::spawn(move || {
                ran.fetch_add(1, Ordering::Release);
            }));
        }
        // Drop joined the worker, so its effect is visible.
        assert_eq!(ran.load(Ordering::Acquire), 1);
    }
}
