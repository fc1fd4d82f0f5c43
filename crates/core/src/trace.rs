//! The unified trace layer: one event language for every execution source,
//! and the one online checker that consumes it one event at a time.
//!
//! The simulator's `TokenRecord`s, the threaded runtime's recordings and
//! the checkers' inputs all meet in one currency:
//!
//! * [`OpEvent`] — one completed increment: process, integer-nanosecond
//!   enter/exit timestamps with explicit sequence-number tiebreaks, and the
//!   value returned. (`cnet_core::op::Op` is this type, re-exported.)
//! * [`OpSink`] — anything that accepts a stream of events: a plain
//!   `Vec<OpEvent>`, or the auditor below.
//! * [`StreamingAuditor`] — the Section 2.4 verdicts with their witnesses,
//!   the Section 5.1 flags and fractions, and the QQC lateness behind each
//!   flag, from **one pass**: the kernel every audit surface runs, and the
//!   batch checkers in [`crate::consistency`], [`crate::fractions`] and
//!   [`crate::audit`](mod@crate::audit) too. An event costs `O(log c)` in
//!   the concurrency `c` (one push and one pop on a single heap of pending
//!   operations) plus a cached slot lookup for its process; the QQC
//!   lateness range query is
//!   issued only for the events that carry the Section 5.1 flag, so a
//!   clean run never pays it. Memory is proportional to the run's
//!   *concurrency*, its number of processes and its value disorder, not
//!   its length. (It is tested against the brute-force definitions.)
//! * [`EventMerger`] — turns per-thread (per-shard) event streams, each
//!   internally ordered by enter time, into the single globally
//!   enter-ordered stream the auditor requires, using per-shard
//!   watermarks so events are released exactly when no straggler can
//!   precede them.
//! * [`ShardMonitor`] and [`MergeAuditor`] — the eager and lazy halves of
//!   the parallel audit. A monitor buffers one shard's events; its
//!   [`ShardFrontier`] is handed to the merged auditor, whose merger
//!   adopts the frontier's buffer as a run of that shard: the events are
//!   clamped in place and never copied on their way to the verdict.
//! * [`Coverage`] — what an audit covered of the operations that were
//!   served: the one rule that makes it complete or not, and the one
//!   rendering of its coverage line and verdict word.
//!
//! # Time and ties
//!
//! Timestamps are integer nanoseconds from a single monotonic clock, so
//! comparing them is exact; `enter_seq`/`exit_seq` break the remaining
//! ties deterministically. The merger assigns sequence numbers so that an
//! enter and an exit falling in the *same* nanosecond compare as
//! overlapping — the clock could not separate them, so no precedence (and
//! hence no violation) is ever fabricated from a tie.

use crate::consistency::Violation;
use cnet_sim::exec::TimedExecution;
use cnet_util::hist::LatencyHistogram;
use cnet_util::json_struct;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, VecDeque};
use std::ops::Bound::{Excluded, Unbounded};

/// One completed increment operation — the shared event type of the whole
/// workspace (the simulator, the threaded runtime, and the checkers all
/// speak it; `cnet_core::op::Op` is an alias).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OpEvent {
    /// The process that issued the operation.
    pub process: usize,
    /// Nanoseconds (monotonic, process-local epoch) of the operation's
    /// first step.
    pub enter_ns: u64,
    /// Tiebreak for `enter_ns` (position in a global event order).
    pub enter_seq: usize,
    /// Nanoseconds of the operation's last step (when the value was
    /// obtained).
    pub exit_ns: u64,
    /// Tiebreak for `exit_ns`.
    pub exit_seq: usize,
    /// The value returned.
    pub value: u64,
}

json_struct!(OpEvent { process, enter_ns, enter_seq, exit_ns, exit_seq, value });

impl OpEvent {
    /// The sort key of the operation's start: `(enter_ns, enter_seq)`.
    #[inline]
    pub fn enter_key(&self) -> (u64, usize) {
        (self.enter_ns, self.enter_seq)
    }

    /// The sort key of the operation's completion: `(exit_ns, exit_seq)`.
    #[inline]
    pub fn exit_key(&self) -> (u64, usize) {
        (self.exit_ns, self.exit_seq)
    }

    /// Whether this operation **completely precedes** `other`: its last
    /// step comes before the other's first step (ties resolved by sequence
    /// number).
    #[inline]
    pub fn completely_precedes(&self, other: &OpEvent) -> bool {
        self.exit_key() < other.enter_key()
    }

    /// Whether the two operations overlap in time.
    #[inline]
    pub fn overlaps(&self, other: &OpEvent) -> bool {
        !self.completely_precedes(other) && !other.completely_precedes(self)
    }
}

/// Converts simulator seconds to trace nanoseconds: `(t * 1e9)`, rounded.
/// Monotone, so the simulator's event order survives; residual ties are
/// covered by the sequence numbers the simulator already assigns.
#[inline]
pub fn secs_to_ns(t: f64) -> u64 {
    (t.max(0.0) * 1.0e9).round() as u64
}

/// A consumer of trace events.
pub trait OpSink {
    /// Accepts one completed operation.
    fn record(&mut self, ev: OpEvent);
}

impl OpSink for Vec<OpEvent> {
    fn record(&mut self, ev: OpEvent) {
        self.push(ev);
    }
}

/// Streams a simulated execution into a sink in **enter order** (the order
/// the [`StreamingAuditor`] requires), converting times with [`secs_to_ns`] and
/// keeping the simulator's sequence tiebreaks. Returns the event count.
pub fn stream_execution(exec: &TimedExecution, sink: &mut impl OpSink) -> usize {
    let mut events = OpEvent::from_execution(exec);
    events.sort_by_key(OpEvent::enter_key);
    let n = events.len();
    for ev in events {
        sink.record(ev);
    }
    n
}

/// Indices of `ops` sorted by [`OpEvent::enter_key`] (stable), the feed
/// order for [`StreamingAuditor`].
pub fn enter_order(ops: &[OpEvent]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..ops.len()).collect();
    order.sort_by_key(|&i| ops[i].enter_key());
    order
}

/// An operation still pending inside the auditor, ordered by completion key
/// (then by arrival, for deterministic pops on full-key ties).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct Pending {
    exit_ns: u64,
    exit_seq: usize,
    arrival: usize,
    value: u64,
}

/// Per-event verdicts from [`StreamingAuditor::push`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EventFlags {
    /// Some completed operation with a larger value completely precedes
    /// this one (the Section 5.1 non-linearizable-token predicate).
    pub non_linearizable: bool,
    /// Some earlier operation *of the same process* returned a larger
    /// value (the non-sequentially-consistent-token predicate).
    pub non_sequentially_consistent: bool,
}

/// Values a [`FinishedSet`]'s bitmap window covers above `base` (2^16 words).
const WINDOW_BITS: u64 = 64 << 16;

/// The multiset of values whose operations have finished, answering "how
/// many finished with a value above `v`". Counting histories hand out every
/// value exactly once, so the finished set is eventually an interval: the
/// dense prefix below a 64-aligned `base` is compacted to that integer, the
/// out-of-order values above it are bits in a window of words, and a tree
/// holds only duplicate finishes and values [`WINDOW_BITS`] or more above
/// `base`. A full front word is popped and `base` advances by 64.
///
/// Memory follows the stream's disorder as long as every value arrives.
/// When one never does (a ring drop, a sampling skip), `base` stops below
/// it: the set then grows by one bit per op up to the window, and after
/// that by one tree entry per op.
#[derive(Clone, Debug, Default)]
struct FinishedSet {
    /// Every value below `base` has finished at least once; a multiple of 64.
    base: u64,
    /// Bit `b` of word `i`: value `base + 64 * i + b` has finished.
    window: VecDeque<u64>,
    /// Finishes the window does not hold: repeats of a value below `base`
    /// or already set in the window, and values beyond the window.
    sparse: BTreeMap<u64, u64>,
}

impl FinishedSet {
    /// Marks one value as finished (its operation retired from the
    /// pending set).
    fn finish(&mut self, v: u64) {
        if !self.set(v) {
            *self.sparse.entry(v).or_insert(0) += 1;
            return;
        }
        while self.window.front() == Some(&u64::MAX) {
            self.window.pop_front();
            self.base += 64;
            if !self.sparse.is_empty() {
                self.adopt_edge();
            }
        }
    }

    /// Sets `v`'s bit; `false` when `v` lies outside the window or its bit
    /// is already set.
    fn set(&mut self, v: u64) -> bool {
        let Some(offset) = v.checked_sub(self.base).filter(|&o| o < WINDOW_BITS) else {
            return false;
        };
        let (word, bit) = ((offset / 64) as usize, 1 << (offset % 64));
        if word >= self.window.len() {
            self.window.resize(word + 1, 0);
        }
        let fresh = self.window[word] & bit == 0;
        self.window[word] |= bit;
        fresh
    }

    /// The window's far edge has just moved up a word: values that
    /// finished beyond it move in, one finish each.
    fn adopt_edge(&mut self) {
        let end = self.base + WINDOW_BITS;
        let mut from = end - 64;
        while let Some((&v, &count)) = self.sparse.range(from..end).next() {
            self.set(v);
            if count > 1 {
                self.sparse.insert(v, count - 1);
            } else {
                self.sparse.remove(&v);
            }
            from = v + 1;
        }
    }

    /// Finished operations with a value strictly greater than `v`.
    fn greater(&self, v: u64) -> u64 {
        let interval = if v < self.base { self.base - 1 - v } else { 0 };
        // The window's values above `v` start at this offset.
        let first = v.checked_sub(self.base).map_or(0, |o| o.saturating_add(1));
        let windowed = if first < 64 * self.window.len() as u64 {
            let word = (first / 64) as usize;
            let head = (self.window[word] >> (first % 64)).count_ones();
            head + self.window.range(word + 1..).map(|w| w.count_ones()).sum::<u32>()
        } else {
            0
        };
        let sparse: u64 = self.sparse.range((Excluded(v), Unbounded)).map(|(_, c)| c).sum();
        interval + u64::from(windowed) + sparse
    }
}

/// Direct-mapped cache entries in front of a [`ProcessTable`]'s tree.
const PROCESS_CACHE: usize = 64;

/// Per-process state in a `Vec`, indexed by a dense slot. Ids arrive off
/// the wire, so any id must work: a direct-mapped cache of `(id, slot)` at
/// `id % 64` answers the steady state with one compare, and the id → slot
/// tree is consulted only for a new id or when two ids share an entry.
/// Memory is a fixed 1 KiB plus a slot and a tree entry per distinct id;
/// ids that collide in the cache pay one tree lookup per event, no more.
#[derive(Clone, Debug)]
struct ProcessTable<T> {
    cache: [(usize, usize); PROCESS_CACHE],
    slots: BTreeMap<usize, usize>,
    state: Vec<T>,
}

impl<T> Default for ProcessTable<T> {
    fn default() -> Self {
        // Entry `i` starts as `(i + 1, 0)`: only ids congruent to `i` look
        // there, and `i + 1` is not, so an empty entry never matches.
        ProcessTable {
            cache: std::array::from_fn(|i| (i + 1, 0)),
            slots: BTreeMap::new(),
            state: Vec::new(),
        }
    }
}

impl<T> ProcessTable<T> {
    /// The state of process `id`, if it has been [`insert`](Self::insert)ed.
    #[inline]
    fn get(&mut self, id: usize) -> Option<&mut T> {
        let entry = &mut self.cache[id % PROCESS_CACHE];
        if entry.0 != id {
            *entry = (id, *self.slots.get(&id)?);
        }
        Some(&mut self.state[entry.1])
    }

    /// Adds process `id`, which [`get`](Self::get) has just not found.
    fn insert(&mut self, id: usize, state: T) {
        let slot = self.state.len();
        self.cache[id % PROCESS_CACHE] = (id, slot);
        self.slots.insert(id, slot);
        self.state.push(state);
    }
}

/// What the auditor keeps per process.
#[derive(Clone, Copy, Debug)]
struct ProcessSlot {
    /// `(value, push index)` of the process's previous operation: the
    /// adjacent pair behind the sequential-consistency witness.
    prev: (u64, usize),
    /// The largest value the process has obtained: the Section 5.1
    /// non-sequentially-consistent flag compares against this.
    max: u64,
}

/// Every consistency answer about a stream from one pass: the Section 2.4
/// verdicts with their first witnesses, the Section 5.1 flags and running
/// fractions, and the QQC lateness distribution. Feed in nondecreasing
/// enter order, with each process's events in program order (a live trace
/// satisfies both; [`enter_order`] gives it for a slice).
///
/// For each event `o`:
/// * `o` is **non-linearizable** iff an operation that completely precedes
///   it (finished before `o` entered) returned a larger value, and its
///   **lateness** is the number of such operations. That is quantitative
///   quiescent consistency (Jagadeesan–Riely, arXiv 1402.4043) specialized
///   to counting, whose quiescent order is the order of values.
/// * `o` is **non-sequentially-consistent** iff an earlier operation of its
///   own process returned a larger value.
///
/// Witnesses are push indices. The linearizability witness pairs the first
/// non-linearizable event with, among the operations completely preceding
/// it with the largest value, the one that finished first. The SC witness
/// pairs the first event whose process's previous operation returned a
/// larger value with that operation.
///
/// One min-heap of pending operations serves every question: each
/// operation popped from it updates the largest finished value (the
/// linearizability witness and the Section 5.1 flag) and joins the
/// finished set (QQC lateness). Lateness is nonzero exactly when the flag
/// is set, so the finished set is queried only for flagged events. Each
/// push is `O(log c)` in the concurrency `c`. Memory is the pending heap
/// (`c` entries), one slot per distinct process, and one bit per value of
/// disorder — past a value that never arrives, one bit and then one tree
/// entry per op.
///
/// # Example
///
/// ```
/// use cnet_core::op::op;
/// use cnet_core::trace::StreamingAuditor;
///
/// let mut aud = StreamingAuditor::new();
/// aud.push(&op(0, 0.0, 1.0, 5));
/// let flags = aud.push(&op(1, 2.0, 3.0, 1)); // 5 finished before 1 entered
/// assert!(flags.non_linearizable && !flags.non_sequentially_consistent);
/// let v = aud.linearizability_violation().unwrap();
/// assert_eq!((v.earlier, v.later), (0, 1)); // push indices
/// assert_eq!((aud.f_nl(), aud.qqc_max()), (0.5, 1));
/// ```
#[derive(Clone, Debug, Default)]
pub struct StreamingAuditor {
    pending: BinaryHeap<Reverse<Pending>>,
    /// `(value, push index)` of the finished operation with the largest
    /// value so far (the earliest such operation on equal values).
    max_finished: Option<(u64, usize)>,
    finished: FinishedSet,
    processes: ProcessTable<ProcessSlot>,
    last_enter: Option<(u64, usize)>,
    total: usize,
    non_linearizable: usize,
    non_sequentially_consistent: usize,
    first_lin: Option<Violation>,
    first_sc: Option<Violation>,
    lateness_sum: u128,
    lateness: LatencyHistogram,
}

impl StreamingAuditor {
    /// A fresh auditor.
    pub fn new() -> Self {
        Self::default()
    }

    /// Consumes one event and classifies it.
    ///
    /// # Panics
    ///
    /// Panics if events arrive out of enter order.
    pub fn push(&mut self, ev: &OpEvent) -> EventFlags {
        let key = ev.enter_key();
        assert!(
            self.last_enter.is_none_or(|k| k <= key),
            "StreamingAuditor: events must arrive in nondecreasing enter order"
        );
        self.last_enter = Some(key);
        let id = self.total;
        self.total += 1;
        while let Some(&Reverse(top)) = self.pending.peek() {
            if (top.exit_ns, top.exit_seq) >= key {
                break;
            }
            self.pending.pop();
            if self.max_finished.is_none_or(|(mv, _)| top.value > mv) {
                self.max_finished = Some((top.value, top.arrival));
            }
            self.finished.finish(top.value);
        }
        // Some finished operation returned a larger value: the Section 5.1
        // flag, and the only case in which lateness can be nonzero.
        let inverted = self.max_finished.filter(|&(mv, _)| mv > ev.value);
        let non_linearizable = inverted.is_some();
        let lateness = match inverted {
            Some((_, mid)) => {
                self.first_lin.get_or_insert(Violation { earlier: mid, later: id });
                self.finished.greater(ev.value)
            }
            None => 0,
        };
        let non_sequentially_consistent = match self.processes.get(ev.process) {
            None => {
                self.processes
                    .insert(ev.process, ProcessSlot { prev: (ev.value, id), max: ev.value });
                false
            }
            Some(slot) => {
                let (pv, pid) = std::mem::replace(&mut slot.prev, (ev.value, id));
                if pv > ev.value {
                    self.first_sc.get_or_insert(Violation { earlier: pid, later: id });
                }
                let bad = slot.max > ev.value;
                slot.max = slot.max.max(ev.value);
                bad
            }
        };
        self.non_linearizable += usize::from(non_linearizable);
        self.non_sequentially_consistent += usize::from(non_sequentially_consistent);
        self.lateness_sum += lateness as u128;
        self.lateness.record(lateness);
        self.pending.push(Reverse(Pending {
            exit_ns: ev.exit_ns,
            exit_seq: ev.exit_seq,
            arrival: id,
            value: ev.value,
        }));
        EventFlags { non_linearizable, non_sequentially_consistent }
    }

    /// Events consumed so far.
    pub fn operations(&self) -> usize {
        self.total
    }

    /// Whether no linearizability violation has been witnessed.
    pub fn is_linearizable(&self) -> bool {
        self.first_lin.is_none()
    }

    /// Whether no sequential-consistency violation has been witnessed.
    pub fn is_sequentially_consistent(&self) -> bool {
        self.first_sc.is_none()
    }

    /// First linearizability-violation witness (push indices), if any.
    pub fn linearizability_violation(&self) -> Option<Violation> {
        self.first_lin
    }

    /// First sequential-consistency-violation witness (push indices), if
    /// any.
    pub fn sequential_consistency_violation(&self) -> Option<Violation> {
        self.first_sc
    }

    /// Non-linearizable operations seen so far.
    pub fn non_linearizable(&self) -> usize {
        self.non_linearizable
    }

    /// Non-sequentially-consistent operations seen so far.
    pub fn non_sequentially_consistent(&self) -> usize {
        self.non_sequentially_consistent
    }

    /// The running non-linearizability fraction (`0.0`, never `NaN`, on an
    /// empty stream).
    pub fn f_nl(&self) -> f64 {
        self.share(self.non_linearizable as f64)
    }

    /// The running non-sequential-consistency fraction (`0.0` on an empty
    /// stream).
    pub fn f_nsc(&self) -> f64 {
        self.share(self.non_sequentially_consistent as f64)
    }

    /// `sum` per event consumed; `0.0` before the first event.
    fn share(&self, sum: f64) -> f64 {
        match self.total {
            0 => 0.0,
            n => sum / n as f64,
        }
    }

    /// Maximum QQC lateness observed (0 iff the stream is linearizable in
    /// the Section 5.1 per-op sense).
    pub fn qqc_max(&self) -> u64 {
        self.lateness.max()
    }

    /// Mean QQC lateness (0.0 on an empty stream).
    pub fn qqc_mean(&self) -> f64 {
        self.share(self.lateness_sum as f64)
    }

    /// 99th-percentile QQC lateness. Values below 32 are exact; larger
    /// ones carry the histogram's ~3.1% bucket error.
    pub fn qqc_p99(&self) -> u64 {
        self.lateness.quantile(0.99)
    }

    /// Whether the stream so far is both linearizable and sequentially
    /// consistent — the "clean" verdict every audit surface (the `cnet
    /// audit` command, the networked `CounterServer`, `verify.sh`'s smoke)
    /// reports.
    pub fn is_clean(&self) -> bool {
        self.is_linearizable() && self.is_sequentially_consistent()
    }

    /// One-line human-readable verdict: operation count, violation counts,
    /// and the running fractions — the shared rendering for audit verdicts
    /// across the CLI and the network service layer.
    pub fn summary(&self) -> String {
        format!(
            "{} ops audited: non-linearizable {} (F_nl={:.4}), non-SC {} (F_nsc={:.4}), \
             qqc max {} mean {:.2} p99 {} — {}",
            self.operations(),
            self.non_linearizable(),
            self.f_nl(),
            self.non_sequentially_consistent(),
            self.f_nsc(),
            self.qqc_max(),
            self.qqc_mean(),
            self.qqc_p99(),
            if self.is_clean() { "clean" } else { "violations detected" }
        )
    }
}

impl OpSink for StreamingAuditor {
    fn record(&mut self, ev: OpEvent) {
        let _ = self.push(&ev);
    }
}

/// A raw timestamped operation from one recorder shard, before global
/// sequence numbers exist.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RawOp {
    /// The process that performed the operation.
    pub process: usize,
    /// Monotonic nanoseconds at operation start.
    pub enter_ns: u64,
    /// Monotonic nanoseconds at operation completion.
    pub exit_ns: u64,
    /// The value obtained.
    pub value: u64,
}

/// Exit sequence numbers start here so that an enter and an exit in the
/// same nanosecond compare as *overlapping*: with `exit_seq = GUARD + k`
/// and `enter_seq = k'` (both `k, k' < GUARD`), a tied
/// `(ns, exit_seq) < (ns, enter_seq)` is impossible, so a tie never
/// fabricates a complete-precedence edge the clock cannot certify.
const EXIT_SEQ_GUARD: usize = usize::MAX / 2;

/// One input stream of an [`EventMerger`]: the events awaiting release are
/// `cur[pos..]` followed by every run in `runs`, in that order.
#[derive(Clone, Debug, Default)]
struct MergeShard {
    /// The active run; the release scan reads its front at `pos`.
    cur: Vec<RawOp>,
    /// Events of `cur` already released.
    pos: usize,
    /// Runs queued behind the active one, each nonempty. Empty whenever
    /// the active run is used up.
    runs: VecDeque<Vec<RawOp>>,
    /// Enter time of the last event pushed (future events are ≥ this).
    watermark: Option<u64>,
    finished: bool,
}

impl MergeShard {
    /// The earliest event awaiting release.
    #[inline]
    fn front(&self) -> Option<&RawOp> {
        self.cur.get(self.pos)
    }

    /// Releases the front event: the next queued run takes the place of
    /// a used-up active run, or the used-up run is cleared for reuse.
    #[inline]
    fn pop_front(&mut self) -> RawOp {
        let op = self.cur[self.pos];
        self.pos += 1;
        if self.pos == self.cur.len() {
            match self.runs.pop_front() {
                Some(next) => self.cur = next,
                None => self.cur.clear(),
            }
            self.pos = 0;
        }
        op
    }

    /// Appends one event to the last run. When that is the active run
    /// and more than half of it is released, the released prefix is
    /// dropped first, so the run holds at most twice what it buffers.
    fn push(&mut self, op: RawOp) {
        match self.runs.back_mut() {
            Some(last) => last.push(op),
            None => {
                if 2 * self.pos > self.cur.len() {
                    self.cur.drain(..self.pos);
                    self.pos = 0;
                }
                self.cur.push(op);
            }
        }
    }

    /// Events awaiting release.
    fn buffered(&self) -> usize {
        self.cur.len() - self.pos + self.runs.iter().map(Vec::len).sum::<usize>()
    }
}

/// Merges per-shard event streams — each internally ordered by enter time,
/// as any single thread's operations are — into one globally enter-ordered
/// [`OpEvent`] stream for the [`StreamingAuditor`].
///
/// A buffered event is released once its enter time is at or below every
/// unfinished shard's **watermark** (the enter time of that shard's latest
/// event): no straggler can then precede it. Sequence numbers are assigned
/// at release, with `EXIT_SEQ_GUARD`'s conservative tie rule.
///
/// A shard buffers its events as **runs**: an active run read through a
/// cursor, with later runs queued behind it. A frontier folded in by
/// [`MergeAuditor::ingest`] becomes a run as it is, without a copy; a
/// single [`push`](Self::push) appends to the last run. When the active
/// run is used up, the next queued run takes its place, so releasing an
/// event is a cursor step and buffered memory stays proportional to the
/// events buffered.
///
/// # Example
///
/// ```
/// use cnet_core::trace::{EventMerger, RawOp};
///
/// let mut m = EventMerger::new(2);
/// m.push(0, RawOp { process: 0, enter_ns: 10, exit_ns: 20, value: 0 });
/// m.push(1, RawOp { process: 1, enter_ns: 5, exit_ns: 15, value: 1 });
/// let mut out = Vec::new();
/// m.drain_into(&mut out);
/// m.finish(0);
/// m.finish(1);
/// m.drain_into(&mut out);
/// let enters: Vec<u64> = out.iter().map(|e| e.enter_ns).collect();
/// assert_eq!(enters, vec![5, 10]); // globally enter-ordered
/// ```
#[derive(Clone, Debug)]
pub struct EventMerger {
    shards: Vec<MergeShard>,
    emitted: usize,
}

impl EventMerger {
    /// A merger over `shards` input streams.
    pub fn new(shards: usize) -> Self {
        EventMerger { shards: vec![MergeShard::default(); shards], emitted: 0 }
    }

    /// Appends one raw event to a shard's stream.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range, the shard is finished, or enter
    /// times regress within the shard.
    pub fn push(&mut self, shard: usize, op: RawOp) {
        let s = &mut self.shards[shard];
        assert!(!s.finished, "EventMerger: push after finish on shard {shard}");
        assert!(
            s.watermark.is_none_or(|w| w <= op.enter_ns),
            "EventMerger: enter times regressed within shard {shard}"
        );
        s.watermark = Some(op.enter_ns);
        s.push(op);
    }

    /// Queues `ops` whole as a run of a shard's stream and returns how
    /// many events it holds. Where [`push`](Self::push) would panic, the
    /// events are clamped in place instead: a regressing enter up to the
    /// watermark and an exit up to its enter (a pure widening).
    fn append_clamped(&mut self, shard: usize, mut ops: Vec<RawOp>) -> usize {
        let s = &mut self.shards[shard];
        assert!(!s.finished, "EventMerger: push after finish on shard {shard}");
        if ops.is_empty() {
            return 0;
        }
        let mut floor = s.watermark.unwrap_or(0);
        for op in &mut ops {
            floor = floor.max(op.enter_ns);
            op.enter_ns = floor;
            op.exit_ns = op.exit_ns.max(floor);
        }
        s.watermark = Some(floor);
        let n = ops.len();
        if s.front().is_none() {
            s.cur = ops;
            s.pos = 0;
        } else {
            s.runs.push_back(ops);
        }
        n
    }

    /// Declares a shard's stream complete (it no longer constrains
    /// release).
    pub fn finish(&mut self, shard: usize) {
        self.shards[shard].finished = true;
    }

    /// Events released so far over the merger's lifetime.
    pub fn emitted(&self) -> usize {
        self.emitted
    }

    /// Events currently buffered awaiting release.
    pub fn buffered(&self) -> usize {
        self.shards.iter().map(MergeShard::buffered).sum()
    }

    /// Releases every event no straggler can precede, in enter order, into
    /// `sink`; returns how many were released. After every shard is
    /// [`finish`](Self::finish)ed, one more drain flushes everything.
    pub fn drain_into(&mut self, sink: &mut impl OpSink) -> usize {
        // The release threshold: the least watermark over unfinished
        // shards. An unfinished shard that has produced nothing yet blocks
        // all release (its first event could be arbitrarily early).
        let mut threshold = u64::MAX;
        for s in &self.shards {
            if !s.finished {
                match s.watermark {
                    Some(w) => threshold = threshold.min(w),
                    None => return 0,
                }
            }
        }
        let mut released = 0;
        loop {
            // The earliest buffered front (ties: lowest shard index).
            let mut best: Option<(u64, usize)> = None;
            for (i, s) in self.shards.iter().enumerate() {
                if let Some(front) = s.front() {
                    if best.is_none_or(|(e, _)| front.enter_ns < e) {
                        best = Some((front.enter_ns, i));
                    }
                }
            }
            let Some((enter, shard)) = best else { break };
            if enter > threshold {
                break;
            }
            let op = self.shards[shard].pop_front();
            let k = self.emitted;
            self.emitted += 1;
            sink.record(OpEvent {
                process: op.process,
                enter_ns: op.enter_ns,
                enter_seq: k,
                exit_ns: op.exit_ns,
                exit_seq: EXIT_SEQ_GUARD + k,
                value: op.value,
            });
            released += 1;
        }
        released
    }
}

/// One shard's contribution to a merged audit: its buffered events (still
/// raw — no global sequence numbers yet), its release watermark and its
/// drop/skip accounting. This is the unit a cluster node ships over the
/// wire and the unit an audit worker hands to the [`MergeAuditor`] at an
/// epoch boundary. It carries no verdict: the Section 2.4 verdicts and the
/// Section 5.1 flags are properties of the whole merged history, and the
/// [`MergeAuditor`] alone computes them.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ShardFrontier {
    /// The (merger-)shard index these events belong to.
    pub shard: usize,
    /// Buffered events in shard order (nondecreasing `enter_ns`).
    pub ops: Vec<RawOp>,
    /// Enter time of the shard's latest event, if any: future events from
    /// this shard are at or after this instant.
    pub watermark: Option<u64>,
    /// Whether the shard's stream is complete (no further events).
    pub finished: bool,
    /// Events this shard's recorder ring lost to overflow.
    pub dropped: u64,
    /// Events deliberately not recorded by the 1-in-k sampling mode (they
    /// widen neighbouring intervals instead; see the recorder docs).
    pub skipped: u64,
}

/// The eager half of the parallel audit pipeline: consumes one recorder
/// ring shard **in place** (no global k-way merge on the hot path) and
/// buffers its events, with their release watermark and the shard's
/// drop/skip accounting, for the lazy global merge. It judges nothing —
/// every verdict is a property of the merged history and the
/// [`MergeAuditor`]'s business alone — so an event costs a clamp and a
/// push, and the state besides the buffered events is a few words.
///
/// # Example
///
/// ```
/// use cnet_core::trace::{MergeAuditor, RawOp, ShardMonitor};
///
/// let mut mon = ShardMonitor::new(0);
/// mon.observe(RawOp { process: 0, enter_ns: 0, exit_ns: 1, value: 5 });
/// mon.observe(RawOp { process: 0, enter_ns: 2, exit_ns: 3, value: 1 });
/// let f = mon.take_frontier(false);
/// assert_eq!((f.ops.len(), f.watermark), (2, Some(2)));
/// let mut merged = MergeAuditor::new(1);
/// merged.ingest(f);
/// assert_eq!(merged.auditor().non_linearizable(), 1); // 5 finished before 1 entered
/// assert_eq!(merged.auditor().non_sequentially_consistent(), 1); // value decreased
/// ```
#[derive(Clone, Debug, Default)]
pub struct ShardMonitor {
    shard: usize,
    ops: Vec<RawOp>,
    /// Enter time of the latest event; 0 until the first.
    watermark: u64,
    /// Events shipped in earlier frontiers.
    taken: usize,
    dropped: u64,
    skipped: u64,
}

impl ShardMonitor {
    /// A fresh monitor for (merger-)shard `shard`.
    pub fn new(shard: usize) -> ShardMonitor {
        ShardMonitor { shard, ..ShardMonitor::default() }
    }

    /// The shard index this monitor consumes.
    pub fn shard(&self) -> usize {
        self.shard
    }

    /// Events observed over the monitor's lifetime: those shipped in
    /// frontiers plus those buffered.
    pub fn observed(&self) -> usize {
        self.taken + self.ops.len()
    }

    /// Events currently buffered for the next frontier.
    pub fn buffered(&self) -> usize {
        self.ops.len()
    }

    /// Consumes one raw event from the shard's stream. A monitor only ever
    /// reads a local ring, whose enter times do not regress; a wire peer's
    /// frontiers are clamped by [`MergeAuditor::ingest`]. The monitor
    /// clamps too — a regressing enter up to the watermark, an exit up to
    /// its enter, a pure widening — because the watermark it ships must
    /// never regress. An event costs that clamp and a push, inlined into
    /// the caller's loop; no count is kept, since
    /// [`observed`](Self::observed) is derived from the buffer.
    #[inline]
    pub fn observe(&mut self, op: RawOp) {
        let enter_ns = op.enter_ns.max(self.watermark);
        self.watermark = enter_ns;
        self.ops.push(RawOp { enter_ns, exit_ns: op.exit_ns.max(enter_ns), ..op });
    }

    /// Account `n` events lost to ring overflow on this shard.
    pub fn add_dropped(&mut self, n: u64) {
        self.dropped += n;
    }

    /// Account `n` events skipped by the sampling mode on this shard.
    pub fn add_skipped(&mut self, n: u64) {
        self.skipped += n;
    }

    /// Takes the current frontier: buffered events move out, the
    /// watermark and the drop/skip accounting are *carried* — each
    /// frontier reports lifetime totals, so the latest frontier wins when
    /// the [`MergeAuditor`] folds them in. The watermark is `None` until
    /// the first event.
    pub fn take_frontier(&mut self, finished: bool) -> ShardFrontier {
        let watermark = (self.observed() > 0).then_some(self.watermark);
        self.taken += self.ops.len();
        // The next epoch is likely as long as this one: start its buffer
        // at that size instead of regrowing it from nothing.
        let next = Vec::with_capacity(self.ops.len());
        ShardFrontier {
            shard: self.shard,
            ops: std::mem::replace(&mut self.ops, next),
            watermark,
            finished,
            dropped: self.dropped,
            skipped: self.skipped,
        }
    }
}

/// Per-shard lifetime totals as folded into a [`MergeAuditor`] (latest
/// frontier wins — frontiers report running totals, not deltas).
#[derive(Clone, Copy, Debug, Default)]
pub struct ShardStats {
    /// Events ingested from this shard.
    pub observed: usize,
    /// Events the shard's ring dropped on overflow.
    pub dropped: u64,
    /// Events the sampling mode skipped on this shard.
    pub skipped: u64,
}

/// The lazy half of the parallel audit pipeline: folds [`ShardFrontier`]s
/// into one exact global verdict.
///
/// Internally this is exactly the sequential pipeline — an [`EventMerger`]
/// feeding a [`StreamingAuditor`] — so the verdict is **bit-identical** to
/// what the sequential auditor produces on the same per-shard streams: the
/// merger's release rule is deterministic in the stream contents (the
/// earliest front is released first, ties by shard index, sequence numbers
/// assigned at release), independent of how pushes and drains interleave
/// in time. Shards merge only at epoch boundaries ([`ingest`](Self::ingest)
/// / [`merge`](Self::merge)) and on [`summary`](Self::summary) — never on
/// the recording hot path. The watermark rule is the merger's: an event is
/// released once every unfinished shard's frontier has advanced past its
/// enter time (watermark = min enter stamp of the latest event across
/// shards), so no straggler can precede it.
#[derive(Clone, Debug)]
pub struct MergeAuditor {
    merger: EventMerger,
    auditor: StreamingAuditor,
    stats: Vec<ShardStats>,
}

impl MergeAuditor {
    /// A merged auditor over `shards` input streams.
    pub fn new(shards: usize) -> MergeAuditor {
        MergeAuditor {
            merger: EventMerger::new(shards),
            auditor: StreamingAuditor::new(),
            stats: vec![ShardStats::default(); shards],
        }
    }

    /// The number of input shards.
    pub fn shard_count(&self) -> usize {
        self.stats.len()
    }

    /// Folds one shard frontier in: the merger adopts its buffer of
    /// events as the shard's next run, clamped in place with the same
    /// regression clamp as [`ShardMonitor::observe`] (the one that guards
    /// against a hostile or buggy wire peer) and never copied; its
    /// lifetime totals replace the shard's stats; and every event that
    /// has become safe is released into the auditor.
    ///
    /// # Panics
    ///
    /// Panics if `frontier.shard` is out of range.
    pub fn ingest(&mut self, frontier: ShardFrontier) -> usize {
        let shard = frontier.shard;
        self.stats[shard].observed += self.merger.append_clamped(shard, frontier.ops);
        let st = &mut self.stats[shard];
        st.dropped = frontier.dropped;
        st.skipped = frontier.skipped;
        if frontier.finished {
            self.merger.finish(shard);
        }
        self.merge()
    }

    /// Declares a shard's stream complete.
    pub fn finish_shard(&mut self, shard: usize) {
        self.merger.finish(shard);
    }

    /// Releases every event no straggler can precede into the auditor;
    /// returns how many were released.
    pub fn merge(&mut self) -> usize {
        self.merger.drain_into(&mut self.auditor)
    }

    /// Events still buffered awaiting a watermark advance.
    pub fn buffered(&self) -> usize {
        self.merger.buffered()
    }

    /// The exact global auditor (events merged so far).
    pub fn auditor(&self) -> &StreamingAuditor {
        &self.auditor
    }

    /// Per-shard lifetime totals.
    pub fn shard_stats(&self) -> &[ShardStats] {
        &self.stats
    }

    /// Total ring-overflow drops across shards.
    pub fn dropped(&self) -> u64 {
        self.stats.iter().map(|s| s.dropped).sum()
    }

    /// Total sampling skips across shards.
    pub fn skipped(&self) -> u64 {
        self.stats.iter().map(|s| s.skipped).sum()
    }

    /// Events the exact auditor has consumed.
    pub fn operations(&self) -> usize {
        self.auditor.operations()
    }

    /// Whether the merged history so far is clean (both linearizable and
    /// sequentially consistent).
    pub fn is_clean(&self) -> bool {
        self.auditor.is_clean()
    }

    /// Merges everything releasable, then renders the sequential auditor's
    /// one-line verdict — byte-for-byte the string the sequential pipeline
    /// would print on the same streams.
    pub fn summary(&mut self) -> String {
        self.merge();
        self.auditor.summary()
    }
}

/// What an audit covered of the `served` operations: each was `audited`,
/// lost to a full ring (`dropped`), left out by 1-in-k sampling
/// (`skipped`) or shipped to another puller (`taken`); the rest were
/// [`unrecorded`](Self::unrecorded) for this audit. A verdict describes
/// the whole history only when nothing was dropped, taken or unrecorded;
/// skips are sound, since they only widen neighbouring intervals.
/// `Display` renders the coverage line.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Coverage {
    /// Operations the audited service handed out.
    pub served: u64,
    /// Operations the auditor consumed.
    pub audited: u64,
    /// Operations a full recorder ring lost.
    pub dropped: u64,
    /// Operations the 1-in-k sampling mode did not record.
    pub skipped: u64,
    /// Operations another puller consumed from the same rings.
    pub taken: u64,
}

impl Coverage {
    /// The coverage of `merged` against `served` operations, `taken` of
    /// which went to another puller.
    pub fn of(merged: &MergeAuditor, served: u64, taken: u64) -> Coverage {
        Coverage {
            served,
            audited: merged.operations() as u64,
            dropped: merged.dropped(),
            skipped: merged.skipped(),
            taken,
        }
    }

    /// Served operations nothing above accounts for: never recorded where
    /// this audit read, or consumed by a puller it cannot count. Saturates
    /// at zero.
    pub fn unrecorded(&self) -> u64 {
        let accounted = [self.audited, self.dropped, self.skipped, self.taken]
            .into_iter()
            .fold(0u64, u64::saturating_add);
        self.served.saturating_sub(accounted)
    }

    /// The verdict word over `auditor`'s history, naming every miss:
    /// `clean`, `incomplete (…)` for a clean history with misses, or
    /// `violations detected`, with ` (…)` when there were misses.
    pub fn verdict(&self, auditor: &StreamingAuditor) -> String {
        let missed: Vec<String> = [
            (self.dropped, "dropped"),
            (self.taken, "taken by another puller"),
            (self.unrecorded(), "served ops not recorded for this audit"),
        ]
        .iter()
        .filter(|(n, _)| *n > 0)
        .map(|(n, what)| format!("{n} {what}"))
        .collect();
        let word = match (auditor.is_clean(), missed.is_empty()) {
            (true, true) => "clean",
            (true, false) => "incomplete",
            (false, _) => "violations detected",
        };
        if missed.is_empty() {
            word.to_string()
        } else {
            format!("{word} ({})", missed.join(", "))
        }
    }

    /// Whether an audit with this coverage over `auditor`'s history
    /// passes (the exit status): no violation, and nothing dropped, taken
    /// or unrecorded.
    pub fn passes(&self, auditor: &StreamingAuditor) -> bool {
        auditor.is_clean() && self.dropped == 0 && self.taken == 0 && self.unrecorded() == 0
    }
}

impl std::fmt::Display for Coverage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let Coverage { served, audited, dropped, skipped, taken } = self;
        let unrecorded = self.unrecorded();
        write!(
            f,
            "{served} served, {audited} audited, {dropped} dropped, {skipped} skipped by \
             sampling, {taken} taken by another puller, {unrecorded} not recorded"
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::consistency::is_linearizable;
    use crate::op::op;

    #[test]
    fn auditor_memory_is_bounded_by_concurrency() {
        // Sequential (non-overlapping) ops: the pending heap drains as fast
        // as it fills, never holding more than one element... plus the one
        // just pushed.
        let mut aud = StreamingAuditor::new();
        for k in 0..10_000u64 {
            aud.push(&op(0, 2.0 * k as f64, 2.0 * k as f64 + 1.0, k));
            assert!(aud.pending.len() <= 2, "at op {k}: {}", aud.pending.len());
        }
        assert!(aud.is_clean());
    }

    #[test]
    fn auditor_sc_witness_is_the_adjacent_pair() {
        let mut aud = StreamingAuditor::new();
        assert!(!aud.push(&op(0, 0.0, 1.0, 5)).non_sequentially_consistent);
        assert!(!aud.push(&op(1, 0.5, 1.5, 0)).non_sequentially_consistent);
        assert!(aud.push(&op(0, 2.0, 3.0, 3)).non_sequentially_consistent);
        let v = aud.sequential_consistency_violation().unwrap();
        assert_eq!((v.earlier, v.later), (0, 2));
        // After a decrease, an increase past the *previous* value forms no
        // adjacent inversion; the token is still below the process's
        // maximum, so the Section 5.1 flag stays set. The witness is the
        // first inversion.
        assert!(aud.push(&op(0, 4.0, 5.0, 4)).non_sequentially_consistent);
        assert!(!aud.push(&op(0, 6.0, 7.0, 6)).non_sequentially_consistent);
        assert_eq!(aud.sequential_consistency_violation(), Some(v));
        assert_eq!(aud.non_sequentially_consistent(), 2);
    }

    #[test]
    fn auditor_combines_all_three() {
        let mut aud = StreamingAuditor::new();
        aud.push(&op(0, 0.0, 1.0, 5));
        aud.push(&op(0, 2.0, 3.0, 2));
        assert_eq!(aud.operations(), 2);
        assert!(!aud.is_linearizable());
        assert!(!aud.is_sequentially_consistent());
        assert!(aud.linearizability_violation().is_some());
        assert!(aud.sequential_consistency_violation().is_some());
        assert_eq!(aud.non_linearizable(), 1);
        assert_eq!(aud.f_nsc(), 0.5);
    }

    #[test]
    #[should_panic(expected = "nondecreasing enter order")]
    fn auditor_rejects_out_of_order_feeds() {
        let mut aud = StreamingAuditor::new();
        aud.push(&op(0, 5.0, 6.0, 0));
        aud.push(&op(0, 1.0, 2.0, 1));
    }

    #[test]
    fn auditor_is_zero_not_nan_on_empty_and_single_op_traces() {
        // Satellite pin: the edge contract is an explicit 0.0, so a
        // regression back to a bare 0/0 division (NaN) cannot land
        // silently. NaN != NaN, so assert_eq alone would not catch a
        // comparison rewrite — check finiteness too.
        let mut aud = StreamingAuditor::new();
        for read in [StreamingAuditor::f_nl, StreamingAuditor::f_nsc, StreamingAuditor::qqc_mean] {
            assert_eq!(read(&aud), 0.0);
            assert!(read(&aud).is_finite());
        }
        assert_eq!((aud.qqc_max(), aud.qqc_p99()), (0, 0));
        aud.push(&op(0, 0.0, 1.0, 0));
        assert_eq!((aud.f_nl(), aud.f_nsc(), aud.qqc_mean()), (0.0, 0.0, 0.0));
    }

    /// Finished values above `v` in a plain list: what
    /// [`FinishedSet::greater`] must answer.
    fn count_greater(finished: &[u64], v: u64) -> u64 {
        finished.iter().filter(|&&f| f > v).count() as u64
    }

    #[test]
    fn finished_set_base_crosses_word_boundaries() {
        let mut set = FinishedSet::default();
        let mut finished = Vec::new();
        // 0..63 fills the first word except for 63; 64..70 land in the
        // second word, out of order.
        for v in (0..63).chain([70, 64, 66, 65]) {
            set.finish(v);
            finished.push(v);
        }
        assert_eq!((set.base, set.window.len()), (0, 2));
        assert!(set.sparse.is_empty());
        set.finish(63);
        finished.push(63);
        assert_eq!((set.base, set.window.len()), (64, 1), "a full front word is popped");
        // A duplicate of a compacted value, and one of a windowed value.
        set.finish(10);
        set.finish(66);
        finished.extend([10, 66]);
        assert_eq!(set.sparse.len(), 2);
        for v in [0, 9, 10, 11, 62, 63, 64, 65, 66, 69, 70, 71, 127, 128, u64::MAX] {
            assert_eq!(set.greater(v), count_greater(&finished, v), "greater({v})");
        }
        // The second word fills in: base crosses it and the window empties.
        for v in (67..70).chain(71..128) {
            set.finish(v);
            finished.push(v);
        }
        assert_eq!((set.base, set.window.len()), (128, 0));
        for v in [0, 63, 64, 65, 66, 126, 127, 128, u64::MAX - 1] {
            assert_eq!(set.greater(v), count_greater(&finished, v), "greater({v})");
        }
    }

    #[test]
    fn finished_set_window_edge_moves_far_values_in() {
        let mut set = FinishedSet::default();
        let edge = WINDOW_BITS;
        // The last value the window holds at base 0, the first it does
        // not (twice), and the top of the range.
        for v in [edge - 1, edge, edge, u64::MAX] {
            set.finish(v);
        }
        assert_eq!(set.window.len() as u64, WINDOW_BITS / 64);
        assert_eq!(set.sparse.len(), 2, "{:?}", set.sparse);
        let mut finished = vec![edge - 1, edge, edge, u64::MAX];
        for v in [0, edge - 2, edge - 1, edge, u64::MAX - 1, u64::MAX] {
            assert_eq!(set.greater(v), count_greater(&finished, v), "greater({v})");
        }
        // Base crosses one word, so the window's far edge moves past
        // `edge`: one finish moves into the window, its repeat stays.
        for v in 0..64 {
            set.finish(v);
            finished.push(v);
        }
        assert_eq!(set.base, 64);
        assert_eq!(set.sparse.get(&edge), Some(&1));
        assert_eq!(set.window.len() as u64, WINDOW_BITS / 64);
        for v in [0, 63, 64, edge - 1, edge, u64::MAX - 1] {
            assert_eq!(set.greater(v), count_greater(&finished, v), "greater({v})");
        }
    }

    #[test]
    fn auditor_verdict_and_summary() {
        let mut aud = StreamingAuditor::new();
        aud.push(&op(0, 0.0, 1.0, 0));
        aud.push(&op(0, 2.0, 3.0, 1));
        assert!(aud.is_clean());
        let s = aud.summary();
        assert!(s.contains("2 ops audited"), "{s}");
        assert!(s.ends_with("clean"), "{s}");
        aud.push(&op(1, 4.0, 5.0, 0)); // duplicate value, out of order
        assert!(!aud.is_clean());
        // The whole line, byte for byte: it is the verdict operators and
        // the benchmark's oracle check compare across builds.
        assert_eq!(
            aud.summary(),
            "3 ops audited: non-linearizable 1 (F_nl=0.3333), non-SC 0 (F_nsc=0.0000), \
             qqc max 1 mean 0.33 p99 1 — violations detected"
        );
    }

    #[test]
    fn coverage_names_every_miss_in_every_verdict_and_not_skips() {
        let mut clean = StreamingAuditor::new();
        clean.push(&op(0, 0.0, 1.0, 0));
        clean.push(&op(0, 2.0, 3.0, 1));
        // Process 1's 0 starts after process 0's 1 ends: SC, not
        // linearizable, and a violation whatever its lateness.
        let mut late = StreamingAuditor::new();
        late.push(&op(0, 0.0, 1.0, 1));
        late.push(&op(1, 2.0, 3.0, 0));
        assert!(late.is_sequentially_consistent() && !late.is_linearizable());
        let mut violated = StreamingAuditor::new();
        violated.push(&op(0, 0.0, 1.0, 5));
        violated.push(&op(1, 0.5, 1.5, 0));
        violated.push(&op(0, 2.0, 3.0, 3));
        let cov = |served, audited, dropped, skipped, taken| Coverage {
            served,
            audited,
            dropped,
            skipped,
            taken,
        };
        // The coverage line, byte for byte; sampling skips are counted
        // and change nothing else.
        let sampled = cov(8, 2, 0, 6, 0);
        assert_eq!(
            sampled.to_string(),
            "8 served, 2 audited, 0 dropped, 6 skipped by sampling, \
             0 taken by another puller, 0 not recorded"
        );
        assert_eq!(sampled.verdict(&clean), "clean");
        // Each miss is named, in every verdict.
        let cases = [
            (cov(7, 2, 5, 0, 0), &clean, "incomplete (5 dropped)"),
            (cov(11, 2, 0, 0, 9), &clean, "incomplete (9 taken by another puller)"),
            (cov(16, 2, 5, 0, 9), &clean, "incomplete (5 dropped, 9 taken by another puller)"),
            (
                cov(10, 2, 5, 0, 0),
                &clean,
                "incomplete (5 dropped, 3 served ops not recorded for this audit)",
            ),
            (cov(2, 2, 0, 0, 0), &late, "violations detected"),
            (cov(2, 2, 5, 0, 0), &late, "violations detected (5 dropped)"),
            (cov(3, 3, 0, 0, 0), &violated, "violations detected"),
            (cov(10, 3, 7, 0, 0), &violated, "violations detected (7 dropped)"),
        ];
        for (c, a, want) in cases {
            assert_eq!(c.verdict(a), want, "{c:?}");
        }
        // `unrecorded` saturates: more accounted than served is none
        // unrecorded, and counts off the wire cannot overflow the sum.
        assert_eq!(cov(1, 2, 0, 0, 0).unrecorded(), 0);
        assert_eq!(cov(5, 1, u64::MAX, 1, 1).unrecorded(), 0);
        // `passes` decides the exit status: clean and complete only.
        assert!(cov(2, 2, 0, 0, 0).passes(&clean));
        assert!(cov(8, 2, 0, 6, 0).passes(&clean));
        assert!(!cov(7, 2, 5, 0, 0).passes(&clean));
        assert!(!cov(11, 2, 0, 0, 9).passes(&clean));
        assert!(!cov(3, 2, 0, 0, 0).passes(&clean));
        assert!(!cov(2, 2, 0, 0, 0).passes(&late));
    }

    #[test]
    fn coverage_of_a_merged_auditor_reads_its_three_counts() {
        let mut merged = MergeAuditor::new(1);
        merged.ingest(ShardFrontier {
            shard: 0,
            ops: vec![RawOp { process: 0, enter_ns: 0, exit_ns: 1, value: 0 }],
            watermark: Some(0),
            finished: true,
            dropped: 3,
            skipped: 4,
        });
        let cov = Coverage::of(&merged, 10, 2);
        assert_eq!(cov, Coverage { served: 10, audited: 1, dropped: 3, skipped: 4, taken: 2 });
        assert_eq!(cov.unrecorded(), 0);
    }

    #[test]
    fn vec_is_a_sink_and_stream_execution_orders_by_enter() {
        use cnet_sim::engine::run;
        use cnet_sim::workload::{generate, WorkloadConfig};
        use cnet_topology::construct::bitonic;
        let net = bitonic(4).unwrap();
        let cfg = WorkloadConfig {
            processes: 4,
            tokens_per_process: 3,
            c_min: 1.0,
            c_max: 2.0,
            local_delay: 0.0,
            start_spread: 2.0,
        };
        let exec = run(&net, &generate(&net, &cfg, 11)).unwrap();
        let mut events: Vec<OpEvent> = Vec::new();
        let n = stream_execution(&exec, &mut events);
        assert_eq!(n, events.len());
        assert_eq!(n, exec.records().len());
        assert!(events.windows(2).all(|w| w[0].enter_key() <= w[1].enter_key()));
        // Same multiset of values as the batch conversion.
        let mut streamed: Vec<u64> = events.iter().map(|e| e.value).collect();
        let mut batch: Vec<u64> =
            crate::op::Op::from_execution(&exec).iter().map(|o| o.value).collect();
        streamed.sort_unstable();
        batch.sort_unstable();
        assert_eq!(streamed, batch);
    }

    #[test]
    fn merger_orders_interleaved_shards() {
        let mut m = EventMerger::new(3);
        // Shard 2 lags: nothing can be released until it reports.
        m.push(0, RawOp { process: 0, enter_ns: 10, exit_ns: 12, value: 0 });
        m.push(1, RawOp { process: 1, enter_ns: 4, exit_ns: 30, value: 1 });
        let mut out: Vec<OpEvent> = Vec::new();
        assert_eq!(m.drain_into(&mut out), 0);
        m.push(2, RawOp { process: 2, enter_ns: 8, exit_ns: 9, value: 2 });
        // Watermarks now 10/4/8 -> threshold 4: only shard 1's event (enter
        // 4) is safe.
        assert_eq!(m.drain_into(&mut out), 1);
        assert_eq!(out[0].value, 1);
        m.finish(0);
        m.finish(1);
        m.finish(2);
        assert_eq!(m.drain_into(&mut out), 2);
        let enters: Vec<u64> = out.iter().map(|e| e.enter_ns).collect();
        assert_eq!(enters, vec![4, 8, 10]);
        assert_eq!(m.emitted(), 3);
        assert_eq!(m.buffered(), 0);
        // Assigned sequence numbers are the release order.
        assert!(out.iter().enumerate().all(|(k, e)| e.enter_seq == k));
    }

    #[test]
    fn merger_ties_in_one_nanosecond_read_as_overlap() {
        let mut m = EventMerger::new(2);
        // Shard 0's op exits in the same nanosecond shard 1's enters.
        m.push(0, RawOp { process: 0, enter_ns: 5, exit_ns: 10, value: 7 });
        m.push(1, RawOp { process: 1, enter_ns: 10, exit_ns: 11, value: 0 });
        m.finish(0);
        m.finish(1);
        let mut out: Vec<OpEvent> = Vec::new();
        m.drain_into(&mut out);
        assert!(out[0].overlaps(&out[1]), "tied ns must not order the ops");
        // So the value inversion (7 before 0) is NOT a violation.
        assert!(is_linearizable(&out));
    }

    #[test]
    #[should_panic(expected = "regressed within shard")]
    fn merger_rejects_regressing_shard_streams() {
        let mut m = EventMerger::new(1);
        m.push(0, RawOp { process: 0, enter_ns: 10, exit_ns: 12, value: 0 });
        m.push(0, RawOp { process: 0, enter_ns: 3, exit_ns: 4, value: 1 });
    }

    #[test]
    fn merged_stream_feeds_monitors_directly() {
        // Two shards, one genuinely non-linearizable pattern: shard 0's op
        // finishes (value 5) strictly before shard 1's op begins (value 1).
        let mut m = EventMerger::new(2);
        m.push(0, RawOp { process: 0, enter_ns: 0, exit_ns: 10, value: 5 });
        m.push(0, RawOp { process: 0, enter_ns: 40, exit_ns: 50, value: 6 });
        m.push(1, RawOp { process: 1, enter_ns: 20, exit_ns: 30, value: 1 });
        m.finish(0);
        m.finish(1);
        let mut aud = StreamingAuditor::new();
        m.drain_into(&mut aud);
        assert_eq!(aud.operations(), 3);
        assert!(!aud.is_linearizable());
        assert!(aud.is_sequentially_consistent()); // per-process values increase
        assert_eq!(aud.non_linearizable(), 1);
    }

    #[test]
    fn op_event_round_trips_through_json() {
        use cnet_util::json;
        let ev = OpEvent {
            process: 3,
            enter_ns: 250_000_000,
            enter_seq: 42,
            exit_ns: 1_750_000_000,
            exit_seq: 43,
            value: 42,
        };
        let back: OpEvent = json::from_str(&json::to_string(&ev)).unwrap();
        assert_eq!(ev, back);
    }

    #[test]
    fn shard_monitor_frontier_moves_events_and_carries_the_watermark() {
        let mut mon = ShardMonitor::new(0);
        // No watermark before the first event; after one entered at 0,
        // a watermark of 0.
        assert_eq!(mon.take_frontier(false).watermark, None);
        mon.observe(RawOp { process: 0, enter_ns: 0, exit_ns: 10, value: 4 });
        assert_eq!(mon.take_frontier(false).watermark, Some(0));
        mon.observe(RawOp { process: 0, enter_ns: 20, exit_ns: 30, value: 7 });
        mon.observe(RawOp { process: 0, enter_ns: 40, exit_ns: 50, value: 2 });
        assert_eq!(mon.observed(), 3);
        let f = mon.take_frontier(false);
        assert_eq!(f.watermark, Some(40));
        assert_eq!(f.ops.len(), 2);
        assert!(!f.finished);
        // The buffer moved out; the watermark carries.
        assert_eq!(mon.buffered(), 0);
        let f2 = mon.take_frontier(false);
        assert_eq!(f2.watermark, Some(40));
        assert!(!f2.finished && f2.ops.is_empty());
        // The lifetime count spans frontiers.
        mon.observe(RawOp { process: 0, enter_ns: 60, exit_ns: 70, value: 9 });
        assert_eq!((mon.observed(), mon.buffered()), (4, 1));
        let f3 = mon.take_frontier(true);
        assert_eq!((f3.watermark, f3.ops.len(), mon.observed()), (Some(60), 1, 4));
        assert!(f3.finished);
    }

    #[test]
    fn merger_memory_stays_bounded_under_single_event_pushes() {
        // Shard 1 always lags shard 0 by three events, so shard 0's active
        // run is never used up: without compaction it would keep every
        // released event. A million events pass; the buffered count and the
        // active runs' capacity stay small.
        const LAG: u64 = 3;
        let mut m = EventMerger::new(2);
        let mut out: Vec<OpEvent> = Vec::new();
        let mut released = 0;
        let n = 500_000u64;
        for k in 0..n {
            m.push(0, RawOp { process: 0, enter_ns: 2 * k, exit_ns: 2 * k + 1, value: 2 * k });
            if k >= LAG {
                let j = k - LAG;
                m.push(
                    1,
                    RawOp { process: 1, enter_ns: 2 * j + 1, exit_ns: 2 * j + 2, value: 2 * j + 1 },
                );
            }
            released += m.drain_into(&mut out);
            out.clear();
            assert!(m.buffered() <= 2 * LAG as usize + 2, "at {k}: {} buffered", m.buffered());
            for s in &m.shards {
                assert!(s.runs.is_empty());
                assert!(s.cur.capacity() <= 32, "at {k}: capacity {}", s.cur.capacity());
            }
        }
        m.finish(0);
        m.finish(1);
        released += m.drain_into(&mut out);
        assert_eq!((m.emitted(), m.buffered()), (2 * n as usize - LAG as usize, 0));
        assert_eq!(released, m.emitted());
    }

    #[test]
    fn merger_adopts_frontiers_as_runs_behind_the_active_one() {
        // Two frontiers queue behind a partly released run, then a single
        // push lands on the last of them; release order is stream order.
        let op = |enter_ns: u64| RawOp { process: 0, enter_ns, exit_ns: enter_ns, value: enter_ns };
        let mut merged = MergeAuditor::new(2);
        merged.ingest(ShardFrontier {
            shard: 0,
            ops: vec![op(1), op(2), op(3)],
            ..Default::default()
        });
        merged.ingest(ShardFrontier { shard: 1, ops: vec![op(2)], ..Default::default() });
        // Threshold 2: shard 0's 1 and 2 go, then shard 1's 2 (ties go to
        // the lower shard); shard 0's 3 waits.
        assert_eq!((merged.operations(), merged.buffered()), (3, 1));
        merged.ingest(ShardFrontier { shard: 0, ops: vec![op(4), op(5)], ..Default::default() });
        merged.ingest(ShardFrontier { shard: 0, ops: vec![], ..Default::default() });
        merged.ingest(ShardFrontier { shard: 0, ops: vec![op(6)], ..Default::default() });
        let shard = &merged.merger.shards[0];
        assert_eq!((shard.pos, shard.cur.len(), shard.runs.len()), (2, 3, 2));
        merged.merger.push(0, op(7));
        assert_eq!(merged.merger.shards[0].runs.back().map(Vec::len), Some(2));
        merged.finish_shard(0);
        merged.finish_shard(1);
        merged.merge();
        assert_eq!((merged.operations(), merged.buffered()), (8, 0));
        assert!(merged.is_clean());
        let shard = &merged.merger.shards[0];
        assert!(shard.runs.is_empty() && shard.cur.is_empty());
    }

    #[test]
    fn shard_monitor_state_does_not_grow_with_events_observed() {
        // Pins a leak: the monitor used to file every finished value in a
        // local lateness tree whose floor cannot advance on a per-process
        // shard (it sees one value in eight), so it retained one tree entry
        // per observed event for the life of the server. An epoch's buffer
        // leaves with its frontier, and nothing else is kept per event.
        let mut mon = ShardMonitor::new(3);
        for k in 0..1u64 << 20 {
            mon.observe(RawOp { process: 3, enter_ns: 10 * k, exit_ns: 10 * k + 5, value: 8 * k });
            if (k + 1) % 1024 == 0 {
                assert_eq!(mon.take_frontier(false).ops.len(), 1024);
                assert_eq!(mon.buffered(), 0);
            }
        }
        assert_eq!(mon.observed(), 1 << 20);
    }

    #[test]
    fn auditor_counts_processes_whose_ids_share_a_cache_entry() {
        // Ids 0, 64, 128, 1 << 20 and 64 << 26 all map to cache entry 0, and
        // 5, 69 to entry 5: every event evicts another process's entry, so
        // the per-process state behind the Section 5.1 flag and the SC
        // witness is found through the table's tree.
        let ids = [0, 64, 5, 128, 1 << 20, 69, 64 << 26];
        let mut aud = StreamingAuditor::new();
        let mut max: Vec<Option<u64>> = vec![None; ids.len()];
        let mut prev: Vec<Option<(u64, usize)>> = vec![None; ids.len()];
        let mut expected = 0;
        let mut first_sc = None;
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for k in 0..4096usize {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let p = (x % ids.len() as u64) as usize;
            let value = (x >> 8) % 64;
            expected += usize::from(max[p].is_some_and(|m| m > value));
            max[p] = max[p].max(Some(value));
            if let Some((_, pk)) = prev[p].filter(|&(pv, _)| pv > value) {
                first_sc.get_or_insert(Violation { earlier: pk, later: k });
            }
            prev[p] = Some((value, k));
            let ns = k as u64;
            aud.push(&OpEvent {
                process: ids[p],
                enter_ns: ns,
                enter_seq: k,
                exit_ns: ns,
                exit_seq: EXIT_SEQ_GUARD + k,
                value,
            });
        }
        assert!(expected > 0);
        assert_eq!(aud.non_sequentially_consistent(), expected);
        assert_eq!(aud.sequential_consistency_violation(), first_sc);
    }

    #[test]
    fn shard_monitor_clamps_regressing_streams() {
        // A regressing enter is widened instead of panicking, so the
        // watermark the monitor ships never regresses, and the repaired
        // stream still merges.
        let mut mon = ShardMonitor::new(0);
        mon.observe(RawOp { process: 0, enter_ns: 50, exit_ns: 60, value: 0 });
        mon.observe(RawOp { process: 0, enter_ns: 10, exit_ns: 20, value: 1 });
        let f = mon.take_frontier(true);
        assert_eq!(f.ops[1].enter_ns, 50, "clamped up to the watermark");
        assert_eq!(f.ops[1].exit_ns, 50, "exit dragged along");
        let mut merged = MergeAuditor::new(1);
        merged.ingest(f);
        assert_eq!(merged.operations(), 2);
        assert!(merged.is_clean());
    }

    #[test]
    fn merge_auditor_verdict_is_bit_identical_to_sequential() {
        // The same two per-shard streams through (a) the sequential
        // EventMerger -> StreamingAuditor pipeline and (b) ShardMonitor
        // frontiers folded into a MergeAuditor, with an interleave-varying
        // epoch structure. Summaries must match byte for byte.
        let s0 = [
            RawOp { process: 0, enter_ns: 0, exit_ns: 10, value: 5 },
            RawOp { process: 0, enter_ns: 12, exit_ns: 18, value: 2 }, // non-SC + non-lin
            RawOp { process: 0, enter_ns: 40, exit_ns: 50, value: 6 },
        ];
        let s1 = [
            RawOp { process: 1, enter_ns: 5, exit_ns: 30, value: 1 },
            RawOp { process: 1, enter_ns: 35, exit_ns: 45, value: 3 },
        ];
        let mut merger = EventMerger::new(2);
        let mut seq = StreamingAuditor::new();
        for op in s0 {
            merger.push(0, op);
        }
        for op in s1 {
            merger.push(1, op);
        }
        merger.finish(0);
        merger.finish(1);
        merger.drain_into(&mut seq);

        let mut m0 = ShardMonitor::new(0);
        let mut m1 = ShardMonitor::new(1);
        let mut merged = MergeAuditor::new(2);
        m0.observe(s0[0]);
        m0.observe(s0[1]);
        merged.ingest(m0.take_frontier(false)); // epoch 1: shard 0 only
        m1.observe(s1[0]);
        merged.ingest(m1.take_frontier(false));
        m0.observe(s0[2]);
        m1.observe(s1[1]);
        merged.ingest(m1.take_frontier(true));
        merged.ingest(m0.take_frontier(true));
        assert_eq!(merged.summary(), seq.summary());
        assert_eq!(merged.operations(), 5);
        assert!(!merged.is_clean());
    }

    #[test]
    fn merge_auditor_tracks_drop_and_skip_accounting() {
        let mut mon = ShardMonitor::new(1);
        mon.observe(RawOp { process: 1, enter_ns: 0, exit_ns: 1, value: 0 });
        mon.add_dropped(3);
        mon.add_skipped(7);
        let mut merged = MergeAuditor::new(2);
        merged.ingest(mon.take_frontier(false));
        // Totals carry, latest frontier wins (no double counting).
        mon.add_skipped(1);
        merged.ingest(mon.take_frontier(true));
        merged.finish_shard(0);
        assert_eq!(merged.dropped(), 3);
        assert_eq!(merged.skipped(), 8);
        assert_eq!(merged.shard_stats()[1].skipped, 8);
        assert_eq!(merged.shard_stats()[0].observed, 0);
    }

    #[test]
    fn secs_to_ns_is_monotone_and_rounds() {
        assert_eq!(secs_to_ns(0.0), 0);
        assert_eq!(secs_to_ns(1.0), 1_000_000_000);
        assert_eq!(secs_to_ns(2.5e-9), 3); // rounds
        assert_eq!(secs_to_ns(-1.0), 0); // clamps
        let mut prev = 0;
        for k in 0..1000 {
            let ns = secs_to_ns(k as f64 * 0.001);
            assert!(ns >= prev);
            prev = ns;
        }
    }
}
