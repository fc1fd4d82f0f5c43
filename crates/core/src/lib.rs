//! Sequential consistency versus linearizability for counting networks.
//!
//! This crate implements the *contribution* of *Mavronicolas, Merritt,
//! Taubenfeld — "Sequentially Consistent versus Linearizable Counting
//! Networks"* (PODC 1999):
//!
//! * [`trace`] — the unified trace layer: the shared event type
//!   ([`trace::OpEvent`], integer-nanosecond timestamps), the
//!   [`trace::OpSink`] consumer trait, the **online** audit kernel
//!   [`trace::StreamingAuditor`] that checks a live run one event at a
//!   time in `O(log c)` with memory bounded by concurrency `c` (the batch
//!   checkers in [`consistency`], [`fractions`] and [`audit`](mod@audit) are one
//!   pass of it), and the [`trace::EventMerger`]
//!   that turns per-thread streams into the global enter-ordered stream
//!   the kernel needs.
//! * [`op`] — a provider-neutral operation record ([`op::Op`], an alias of
//!   [`trace::OpEvent`]) that both the simulator (`cnet-sim`) and the
//!   threaded runtime (`cnet-runtime`) produce, carrying a process, a
//!   real-time interval, and the value returned.
//! * [`consistency`] — the two consistency conditions of Section 2.4:
//!   [`consistency::is_linearizable`] (values respect the complete-precedence
//!   order across *all* processes) and
//!   [`consistency::is_sequentially_consistent`] (values increase along each
//!   *single* process's operation order).
//! * [`fractions`] — the inconsistency fractions of Section 5.1:
//!   non-linearizable and non-sequentially-consistent token sets, their
//!   fractions, the *absolute* fractions (least removal), and an exact
//!   small-instance solver used to validate Lemma 5.1.
//! * [`conditions`] — the timing-condition predicates of Table 1 and
//!   Sections 3–4, evaluated against measured
//!   [`cnet_sim::TimingParams`].
//! * [`theory`] — every closed-form bound the paper states
//!   (Theorem 5.4, Theorem 5.11, Corollaries 5.12/5.13, the split-depth and
//!   depth formulas of Propositions 5.6–5.10), for comparing measurement
//!   against prediction in the experiment harness.
//!
//! # Example
//!
//! ```
//! use cnet_topology::construct::bitonic;
//! use cnet_sim::adversary::bitonic_three_wave;
//! use cnet_sim::engine::run;
//! use cnet_core::op::Op;
//! use cnet_core::consistency::{is_linearizable, is_sequentially_consistent};
//! use cnet_core::fractions::non_sequential_consistency_fraction;
//!
//! let net = bitonic(8)?;
//! // Proposition 5.3's three-wave schedule at ratio above (lg 8 + 3)/2 = 3.
//! let sched = bitonic_three_wave(&net, 1.0, 4.0)?;
//! let exec = run(&net, &sched.specs)?;
//! let ops = Op::from_execution(&exec);
//! assert!(!is_linearizable(&ops));
//! assert!(!is_sequentially_consistent(&ops));
//! // One third of the tokens are non-sequentially-consistent.
//! assert!(non_sequential_consistency_fraction(&ops) >= 1.0 / 3.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
pub mod composition;
pub mod conditions;
pub mod consistency;
pub mod fractions;
pub mod op;
pub mod theory;
pub mod trace;

pub use audit::{audit, AuditReport};
pub use conditions::TimingCondition;
pub use consistency::{is_linearizable, is_sequentially_consistent};
pub use fractions::{non_linearizability_fraction, non_sequential_consistency_fraction};
pub use op::Op;
pub use trace::{
    EventMerger, MergeAuditor, OpEvent, OpSink, ShardFrontier, ShardMonitor, ShardStats,
    StreamingAuditor,
};
