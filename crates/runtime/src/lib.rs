//! Shared-memory threaded implementation of counting networks.
//!
//! Section 2.7 of the paper describes the standard multiprocessor
//! implementation: balancers are records, wires are pointers, and each
//! process performs an increment by shepherding a token from an input
//! pointer to a counter, atomically updating each balancer on the way.
//! [`counter::SharedNetworkCounter`] realizes that design with one
//! `AtomicU64` per balancer — the last balancer on a path doubles as the
//! counters behind it — over any [`cnet_topology::Network`], flattened at
//! construction by the [`compiled`] traversal engine into contiguous
//! routing tables, with every state word padded to its own cache line
//! (`cnet_util::sync::CachePadded`) so independent balancers really are
//! independent in the memory system, and with processes entering on the
//! wires whose paths meet last ([`CompiledNetwork::entry_for`]). It is the
//! one shared-memory walk of a network: under every bounded schedule,
//! `tests/model_check.rs` checks that what it does is a Section 2.2
//! execution, and `cnet_topology::state::NetworkState` is its sequential
//! oracle.
//!
//! Also provided:
//!
//! * [`baseline`] — the centralized alternatives counting networks were
//!   invented to beat: a single fetch-and-increment word and a lock-based
//!   counter;
//! * [`barrier`] — the paper's Section 1.1 application: barrier
//!   synchronization built on *any* counter, which needs only gap-free
//!   values (and is the motivating example for settling for sequential
//!   consistency);
//! * [`history`] — a threaded workload with one exact interval per
//!   operation (integer nanoseconds from a calibrated monotonic clock),
//!   returned as enter-ordered [`cnet_core::Op`]s so the same checkers
//!   that analyze simulated executions analyze real threaded runs;
//! * [`recorder`] — the always-on observability path: per-thread sharded
//!   ring buffers ([`recorder::TraceRecorder`]) capture every increment at
//!   a few nanoseconds apiece and [`recorder::drive_audited`] streams them
//!   through `cnet-core`'s online monitors *while the run executes*;
//! * [`backend`] — the registry that turns a backend name into a counter.
//!
//! Section 2.3's other realisation, balancers owned by processes that
//! pass tokens as messages, is `cnet-net`'s partitioned cluster chain
//! (`cnet_net::ClusterNode`): each node owns a contiguous range of layers
//! and hands a batch across each cut in one FIFO message.
//!
//! # Example
//!
//! ```
//! use cnet_topology::construct::bitonic;
//! use cnet_runtime::counter::SharedNetworkCounter;
//! use cnet_runtime::ProcessCounter;
//!
//! let net = bitonic(4)?;
//! let counter = SharedNetworkCounter::new(&net);
//! let mut values: Vec<u64> = (0..12).map(|p| counter.next_for(p)).collect();
//! values.sort_unstable();
//! assert_eq!(values, (0..12).collect::<Vec<_>>());
//! # Ok::<(), cnet_topology::BuildError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod barrier;
pub mod baseline;
pub mod combine;
pub mod compiled;
pub mod counter;
pub mod diffracting;
pub mod drain;
pub mod history;
pub mod paced;
pub mod recorder;

pub use backend::Backend;
pub use barrier::CounterBarrier;
pub use baseline::{FetchAddCounter, LockCounter};
pub use combine::CombiningFunnel;
pub use compiled::CompiledNetwork;
pub use counter::SharedNetworkCounter;
pub use diffracting::DiffractingTree;
pub use drain::Drain;
pub use history::{drive, Workload};
pub use paced::LocallyPacedCounter;
pub use recorder::{drain_remaining, drive_audited, ShardStealer, TraceRecorder, Traced};

/// A shared counter usable concurrently by many processes.
///
/// `next_for(process)` performs one increment operation on behalf of the
/// given process and returns the value obtained. Counting-network
/// implementations route the process to its statically assigned input wire
/// ([`CompiledNetwork::entry_for`]); centralized implementations ignore the
/// process id.
pub trait ProcessCounter: Sync {
    /// Performs one increment for `process` and returns the value.
    fn next_for(&self, process: usize) -> u64;

    /// Performs `n` increments for `process` and returns the `n` values
    /// obtained, in the order they were claimed.
    ///
    /// The default simply loops [`next_for`](Self::next_for); batching
    /// implementations override it to claim the whole batch with one
    /// atomic per touched word (see [`SharedNetworkCounter`] and
    /// [`FetchAddCounter`]). Every override
    /// must hand out exactly the values `n` sequential `next_for` calls
    /// would have claimed — batching may reorder values *across*
    /// concurrent callers, never invent or drop them.
    ///
    /// `n == 0` is a no-op by contract: it returns an empty vector
    /// without touching shared state — no atomic operation, no lock
    /// acquisition, no network round trip. Callers (the combining
    /// funnel's pass-through) rely on empty batches being free, and the
    /// model checker counts every shim atomic as a scheduling point, so a
    /// stray `fetch_add(0)` is observable there.
    fn next_batch_for(&self, process: usize, n: usize) -> Vec<u64> {
        if n == 0 {
            return Vec::new();
        }
        let values: Vec<u64> = (0..n).map(|_| self.next_for(process)).collect();
        debug_assert_eq!(values.len(), n, "next_batch_for must return exactly n values");
        values
    }
}

/// A shared handle counts as the counter it points to, so wrappers such as
/// [`Traced`] take what [`Backend::build`] returns.
impl<C: ProcessCounter + Send + ?Sized> ProcessCounter for std::sync::Arc<C> {
    fn next_for(&self, process: usize) -> u64 {
        (**self).next_for(process)
    }

    fn next_batch_for(&self, process: usize, n: usize) -> Vec<u64> {
        (**self).next_batch_for(process, n)
    }
}
