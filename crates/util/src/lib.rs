//! Zero-dependency in-tree infrastructure for the counting-network
//! workspace.
//!
//! The workspace builds **offline, hermetically, from a clean checkout**:
//! no crates-io dependency may appear in any manifest (`scripts/verify.sh`
//! enforces this). Everything the crates used to pull from the registry is
//! replaced by a small, tested, deterministic implementation here:
//!
//! * [`rng`] — a seedable PCG64 generator (SplitMix64-seeded) with the
//!   `random_range` / `gen_range` / `shuffle` / `fill` surface the workload
//!   generators and schedule search use (replaces `rand`);
//! * [`json`] — a JSON value, writer, and parser plus the [`json::ToJson`]
//!   / [`json::FromJson`] traits and `json_struct!` / `json_newtype!`
//!   impl macros (replaces `serde` + `serde_json`);
//! * [`sync`] — a poison-free [`sync::Mutex`], an exponential
//!   [`sync::Backoff`], a cache-line-aligned [`sync::CachePadded`]
//!   wrapper, and the model-checkable [`sync::atomic`] types (replaces
//!   `parking_lot` + `crossbeam`);
//! * [`proptest`](mod@proptest) — a deterministic property-testing harness with the
//!   `proptest!` / `prop_assert!` macro surface, seeded case generation and
//!   failure-seed reporting (replaces `proptest`);
//! * [`time`] — a calibrated monotonic nanosecond clock ([`time::Clock`])
//!   cheap enough to timestamp individual lock-free operations (`rdtsc` on
//!   x86_64, `Instant` elsewhere), for the trace recorder in
//!   `cnet-runtime`;
//! * [`poll`] — a minimal level-triggered readiness poller (epoll on
//!   Linux via direct `extern "C"` declarations — no `libc` crate) plus an
//!   `eventfd` [`poll::Waker`], for the sharded reactor in `cnet-net`
//!   (replaces `mio`);
//! * [`hist`] — a fixed-size log-bucketed [`hist::LatencyHistogram`]
//!   (32 sub-buckets per octave, ≤3.1% quantile error) for `cnet
//!   loadgen`'s burst-latency percentiles and the audit's QQC lateness
//!   profile (replaces `hdrhistogram`).
//!
//! Determinism is the point, not a side effect: the paper's consistency
//! checkers only mean something when runs are replayable, so every source
//! of pseudo-randomness in the workspace flows through [`rng`] from an
//! explicit, logged seed.

//!
//! With the `model-check` feature, the `model` module adds a
//! bounded-interleaving model checker: the [`sync::atomic`] shim types
//! route every operation through a cooperative scheduler that
//! exhaustively enumerates thread interleavings up to a preemption
//! bound, with deterministic replay strings for counterexamples. In
//! normal builds [`sync::atomic`] is a zero-cost `std` re-export.

pub mod hist;
pub mod json;
#[cfg(feature = "model-check")]
pub mod model;
pub mod poll;
pub mod proptest;
pub mod rng;
pub mod sync;
pub mod time;
