//! The always-on trace recorder: per-thread sharded ring buffers that
//! capture every increment at a cost small enough to leave hot-path
//! throughput intact, drained off the hot path into the online monitors.
//!
//! # Design
//!
//! * **One shard per thread.** Each worker writes only its own ring, so
//!   the hot path takes no locks and contends on no shared word. A shard's
//!   `head`/`tail` indices sit on their own cache lines
//!   ([`cnet_util::sync::CachePadded`]), and the writer keeps a **cached
//!   copy of `tail`** on its private line, refreshed only when the ring
//!   looks full — in the steady state the hot path never touches the cache
//!   line the drainer writes.
//! * **Batched boundary timestamps, stored once per batch.** Reading the
//!   cycle counter costs more than the whole ring write (tens of cycles,
//!   and far more under virtualization), so the recorder does not stamp
//!   every operation. It takes one raw [`cnet_util::time::raw_ticks`]
//!   reading per *batch* of [`BATCH`] operations, at the batch boundary,
//!   and every operation in the batch carries the interval
//!   `[previous boundary stamp, this boundary stamp]`. The stamp pair is
//!   written **once**, into a per-publish side ring (`StampEntry`) the
//!   drainer joins against by slot index — the slots themselves hold only
//!   the 8-byte value, so a publish is three stores instead of two per
//!   slot, and a batch of values spans an eighth of the cache lines the
//!   old three-word slots did. Both ends of the recorded interval only
//!   ever *widen* the true interval (the batch's first operation enters
//!   after the previous boundary; its last exits before the next), so
//!   every real-time precedence the monitors derive from recorded events
//!   is a genuine precedence — widening can hide a violation that fits
//!   inside one batch span (≈ `BATCH` operation latencies, about a
//!   microsecond), never fabricate one. The scheduling pathologies that
//!   produce real violations hold operations open across preemptions,
//!   orders of magnitude longer than a batch.
//! * **Raw ticks on the hot path.** Conversion to nanoseconds through the
//!   calibrated [`Clock`] happens at drain time, off the measured path.
//! * **Sound 1-in-k sampling.** A recorder built
//!   [`with_sampling`](TraceRecorder::with_sampling) records every k-th
//!   operation per shard and merely counts the rest
//!   ([`skipped`](TraceRecorder::skipped)) — by operation, whether they
//!   arrive one at a time or as a
//!   [`record_batch`](TraceRecorder::record_batch). Sampled operations flow
//!   through the same batched publish as full recording — one stamp pair
//!   per [`BATCH`] *samples* — and a sampled batch's boundary interval
//!   `[previous boundary stamp, next boundary stamp]` covers every
//!   skipped operation between its samples too: the recorded bounds only
//!   ever widen the truth, again pure widening. A violation reported
//!   from a sampled trace is therefore always real; sampling can only
//!   *miss* violations among the unrecorded operations (or inside the
//!   `sample_k ×` wider batch span), never fabricate one.
//! * **Overflow drops, never blocks.** A full ring counts the event in
//!   [`TraceRecorder::dropped`] (per shard:
//!   [`dropped_on`](TraceRecorder::dropped_on)) and moves on — recording
//!   must never throttle the counter it observes. Size rings to the
//!   workload (`capacity ≥ increments per thread` guarantees zero drops).
//! * **Ring memory is committed as shards write it.** Each shard's value
//!   ring and stamp side ring come from one zeroed allocation apiece
//!   ([`cnet_util::sync::zeroed_slice`]), so the kernel commits a page
//!   only when the shard first writes it: a recorder sized for many idle
//!   connections costs address space, not resident memory, until traffic
//!   fills its rings.
//! * **Per-shard pull.** [`pull_shard`](TraceRecorder::pull_shard) drains
//!   one ring with that shard's private cursor, so P audit workers can
//!   steal from disjoint shards concurrently (the single-writer invariant
//!   holds per shard on both sides: one recording writer, one pulling
//!   reader). [`ShardStealer`] is the live consumer built on it — the
//!   only code that turns a ring shard into frontiers;
//!   [`drain_into`](TraceRecorder::drain_into) is the sequential
//!   all-shards form for post-run draining ([`drain_remaining`]).
//!
//! [`drive_audited`] ties it together: workers hammer a counter wrapped
//! in [`Traced`] — the one way to record — while audit workers steal
//! shards in place through [`ShardStealer`]s and a [`MergeAuditor`] folds
//! their frontiers at epoch boundaries — consistency verdicts and Section
//! 5.1 fractions, live, while the run executes.

use crate::{ProcessCounter, Workload};
use cnet_core::trace::{EventMerger, MergeAuditor, OpSink, RawOp, ShardFrontier, ShardMonitor};
use cnet_util::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use cnet_util::sync::{zeroed_slice, CachePadded};
use cnet_util::time::{raw_ticks, Clock};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Operations per timestamp batch: one cycle-counter read amortized over
/// this many events (capped at the ring capacity for tiny rings).
pub const BATCH: usize = 64;

/// One batch boundary: the raw-tick interval shared by every slot index
/// below `[UPTO]` not covered by an earlier entry. Written once per
/// publish (entry `k` of a shard lives at ring index `k & mask`; entry `k`
/// can only be overwritten by entry `k + capacity`, which the writer
/// reaches only after the ring's fullness check has proven entry `k`'s
/// slots — hence the entry itself — fully consumed). Three plain words
/// rather than a struct, so the ring comes from one zeroed allocation
/// ([`cnet_util::sync::zeroed_slice`]); a ring slot is just the value, one
/// `AtomicU64`.
type StampEntry = [AtomicU64; 3];
/// One past the last slot index the entry covers (absolute index).
const UPTO: usize = 0;
/// The raw-tick enter bound of every slot the entry covers.
const ENTER: usize = 1;
/// The raw-tick exit bound of every slot the entry covers.
const EXIT: usize = 2;

/// The shard's writer-private state (its own cache line: the hot path
/// touches nothing shared in the steady state).
#[derive(Debug)]
struct WriterState {
    /// The absolute index of the next slot to write (events published
    /// plus events written but not yet published). The hot path touches
    /// only this and [`limit`](Self::limit) — one private cache line.
    wcur: AtomicUsize,
    /// The next index where [`TraceRecorder::record`]'s fast path must
    /// yield to the edge path: the last slot of the current batch
    /// (publish there) or the ring-fullness point `cached_tail +
    /// capacity` (refresh or drop there), whichever comes first. Writing
    /// any slot strictly below `limit` is proven safe by the last edge
    /// pass, so the fast path is two same-line loads, a compare, and two
    /// stores.
    limit: AtomicUsize,
    /// The shard's last batch-boundary stamp: the enter bound of every
    /// event in the batch being accumulated.
    last_stamp: AtomicU64,
    /// The writer's view of `tail`, refreshed (with an acquire load of the
    /// real thing) only when the ring looks full. `tail` only advances, so
    /// a stale cache is conservative: it can cause a spurious refresh,
    /// never an overwrite.
    cached_tail: AtomicUsize,
    /// Publishes so far (the next [`StampEntry`] index).
    stamp_head: AtomicUsize,
    /// Operations seen since the last sampled one (sampling mode only).
    sample_ctr: AtomicUsize,
    /// Operations deliberately not recorded by sampling.
    skipped: AtomicU64,
}

/// The shard's drainer-private cursors (one line; written only by whoever
/// currently pulls this shard).
#[derive(Debug)]
struct DrainState {
    /// Last drained enter time: clamps the (theoretically impossible, on
    /// sane TSCs) regression so the merger's per-shard ordering invariant
    /// holds unconditionally.
    last_enter_ns: AtomicU64,
    /// The stamp entry covering the next slot to consume.
    stamp_tail: AtomicUsize,
}

/// One single-writer, single-puller ring.
#[derive(Debug)]
struct Shard {
    /// Events published (written only by the shard's owning thread).
    head: CachePadded<AtomicUsize>,
    /// Events consumed (written only by the shard's puller).
    tail: CachePadded<AtomicUsize>,
    /// Events lost to a full ring.
    dropped: CachePadded<AtomicU64>,
    wr: CachePadded<WriterState>,
    dr: CachePadded<DrainState>,
    slots: Box<[AtomicU64]>,
    stamps: Box<[StampEntry]>,
}

/// The sharded ring-buffer recorder (see module docs). Writers call
/// [`record`](Self::record) (one thread per shard); pullers call
/// [`pull_shard`](Self::pull_shard) (at most one thread per shard at a
/// time — different shards may be pulled concurrently). All methods take
/// `&self`, so a recorder can be shared (`Arc`) between the counter that
/// writes it and the audit workers that steal from it.
#[derive(Debug)]
pub struct TraceRecorder {
    clock: Clock,
    shards: Box<[Shard]>,
    mask: usize,
    /// Effective batch size: `min(BATCH, capacity)`.
    batch: usize,
    /// Record every `sample_k`-th operation (1 = record everything).
    sample_k: usize,
}

impl TraceRecorder {
    /// A recorder with `shards` rings of at least `capacity` events each
    /// (rounded up to a power of two). Each shard must be written by at
    /// most one thread at a time; shard `s` is reported as process `s`.
    pub fn new(shards: usize, capacity: usize) -> TraceRecorder {
        Self::with_sampling(shards, capacity, 1)
    }

    /// Like [`new`](Self::new), but records only one in `sample_k`
    /// operations per shard (see the module docs for why the widened
    /// intervals stay sound). `sample_k == 1` records everything; `0` is
    /// treated as 1.
    pub fn with_sampling(shards: usize, capacity: usize, sample_k: usize) -> TraceRecorder {
        let cap = capacity.max(2).next_power_of_two();
        let batch = BATCH.min(cap);
        let stride = sample_k.max(1);
        let clock = Clock::new();
        let origin = raw_ticks();
        let make_shard = || Shard {
            head: CachePadded::new(AtomicUsize::new(0)),
            tail: CachePadded::new(AtomicUsize::new(0)),
            dropped: CachePadded::new(AtomicU64::new(0)),
            wr: CachePadded::new(WriterState {
                wcur: AtomicUsize::new(0),
                // First edge at the slot completing the first batch (or at
                // fullness, if the ring is a single batch deep).
                limit: AtomicUsize::new((batch - 1).min(cap - 1)),
                last_stamp: AtomicU64::new(origin),
                cached_tail: AtomicUsize::new(0),
                stamp_head: AtomicUsize::new(0),
                // Countdown of skips left before the next sample, so the
                // first sample lands on the `stride`-th operation.
                sample_ctr: AtomicUsize::new(stride - 1),
                skipped: AtomicU64::new(0),
            }),
            dr: CachePadded::new(DrainState {
                last_enter_ns: AtomicU64::new(0),
                stamp_tail: AtomicUsize::new(0),
            }),
            slots: zeroed_slice(cap),
            stamps: zeroed_slice(cap),
        };
        TraceRecorder {
            clock,
            shards: (0..shards).map(|_| make_shard()).collect(),
            mask: cap - 1,
            batch,
            sample_k: stride,
        }
    }

    /// The number of shards (the maximum worker count).
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Ring capacity per shard, in events.
    pub fn capacity(&self) -> usize {
        self.mask + 1
    }

    /// The sampling stride: 1 records everything, `k` records one in `k`.
    pub fn sample_k(&self) -> usize {
        self.sample_k
    }

    /// Records one completed operation on `shard` (its timestamp interval
    /// is the enclosing batch's boundary interval; see module docs).
    /// Returns `false` (and counts a drop) if the ring is full; a
    /// sampling-skipped operation returns `true` without touching the
    /// ring. The caller must be the shard's only concurrent writer.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    #[inline]
    pub fn record(&self, shard: usize, value: u64) -> bool {
        let s = &self.shards[shard];
        if self.sample_k > 1 {
            // Countdown-only skip path: one load, one store. The skip
            // *accounting* is folded in per window by `credit_window`, so
            // always-on sampling costs almost nothing per skipped op.
            let c = s.wr.sample_ctr.load(Ordering::Relaxed);
            if c != 0 {
                s.wr.sample_ctr.store(c - 1, Ordering::Relaxed);
                return true;
            }
            self.credit_window(s, 0);
            // The sampled op falls through to the batched path below: its
            // batch's boundary interval [previous boundary stamp, next
            // boundary stamp] covers every skipped op between the batch's
            // samples too, so one stamp pair per BATCH *samples* keeps
            // sampling sound at full-recording cost.
        }
        let w = s.wr.wcur.load(Ordering::Relaxed);
        if w != s.wr.limit.load(Ordering::Relaxed) {
            // Below the limit the last edge pass already proved slot `w`
            // is free (the tail only advances) and the batch is not yet
            // complete: write and bump, nothing else. Indexing through
            // `len - 1` (== `self.mask`) lets the compiler drop the bounds
            // check: `x & (len - 1) < len` for any `x`.
            let slots = &*s.slots;
            slots[w & (slots.len() - 1)].store(value, Ordering::Relaxed);
            s.wr.wcur.store(w.wrapping_add(1), Ordering::Relaxed);
            return true;
        }
        self.record_edge(s, w, value)
    }

    /// The slow half of [`record`](Self::record): `w` sits on the current
    /// `limit`, i.e. it either completes a batch (publish after writing
    /// it) or hits the ring-fullness point (refresh the tail; drop if
    /// still full).
    #[cold]
    fn record_edge(&self, s: &Shard, w: usize, value: u64) -> bool {
        let mut tail = s.wr.cached_tail.load(Ordering::Relaxed);
        if w.wrapping_sub(tail) > self.mask {
            // Apparently full. The cached tail only ever lags the real one,
            // so refresh and re-check before declaring a drop.
            tail = s.tail.load(Ordering::Acquire);
            s.wr.cached_tail.store(tail, Ordering::Relaxed);
            if w.wrapping_sub(tail) > self.mask {
                s.dropped.fetch_add(1, Ordering::Relaxed);
                // Stay on the edge: every further op re-checks fullness
                // until the puller frees a slot.
                s.wr.limit.store(w, Ordering::Relaxed);
                return false;
            }
        }
        s.slots[w & self.mask].store(value, Ordering::Relaxed);
        let w = w.wrapping_add(1);
        s.wr.wcur.store(w, Ordering::Relaxed);
        let mut head = s.head.load(Ordering::Relaxed);
        if w.wrapping_sub(head) >= self.batch {
            // The op just written completes the batch, so the stamp taken
            // inside `publish` post-dates every op it covers.
            self.publish(s, head, w.wrapping_sub(head));
            head = w;
        }
        self.reset_limit(s, w, head, tail);
        true
    }

    /// Settles a sampling window that just ended with `c` skips still
    /// outstanding (`c == 0` when it ran to its sample; more when a flush
    /// cut it short): credits the `sample_k - 1 - c`
    /// skips that actually happened and starts a fresh window. Keeping the
    /// accounting here — one store per *window* — lets the per-skip path
    /// in [`record`](Self::record) stay a bare countdown.
    fn credit_window(&self, s: &Shard, c: usize) {
        s.wr.skipped.store(
            s.wr.skipped.load(Ordering::Relaxed) + (self.sample_k - 1 - c) as u64,
            Ordering::Relaxed,
        );
        s.wr.sample_ctr.store(self.sample_k - 1, Ordering::Relaxed);
    }

    /// Recomputes the writer's `limit` after an edge, flush, or batch
    /// write: the earlier (in wrap-safe distance from `w`) of the slot
    /// completing the current batch and the ring-fullness point.
    fn reset_limit(&self, s: &Shard, w: usize, head: usize, tail: usize) {
        let boundary = head.wrapping_add(self.batch - 1);
        let full = tail.wrapping_add(self.mask + 1);
        let limit = if boundary.wrapping_sub(w) <= full.wrapping_sub(w) { boundary } else { full };
        s.wr.limit.store(limit, Ordering::Relaxed);
    }

    /// Records a whole batch of completed operations on `shard` with **one
    /// boundary stamp pair for the entire batch**, publishing immediately.
    /// Returns how many of the values were recorded (the rest of the
    /// sampled ones, if the ring fills, are counted as drops). Sampling is
    /// by operation, however operations arrive: the shard's 1-in-`sample_k`
    /// countdown walks through the batch, so exactly the values
    /// [`record`](Self::record) would have sampled one by one reach the
    /// ring and the others count as skipped. The caller must be the
    /// shard's only concurrent writer.
    ///
    /// Soundness is the same widening argument as the per-[`BATCH`]
    /// stamping (see module docs): every operation in the batch entered
    /// after the shard's previous boundary stamp and exited before the
    /// `raw_ticks` reading taken here, so the recorded interval only
    /// widens the true one and a recorded precedence is always a genuine
    /// real-time precedence. Any singles still pending from
    /// [`record`](Self::record) are published under the same stamp pair —
    /// again a pure widening, since they too completed inside it.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn record_batch(&self, shard: usize, values: &[u64]) -> usize {
        let s = &self.shards[shard];
        // The countdown (0 when sampling is off) is how many values the
        // window still skips; from there every `sample_k`-th is sampled.
        let c = s.wr.sample_ctr.load(Ordering::Relaxed);
        let sampled = values.iter().skip(c).step_by(self.sample_k);
        let samples = sampled.len();
        if self.sample_k > 1 {
            if samples == 0 {
                // The whole batch fits in the window's remaining skips.
                s.wr.sample_ctr.store(c - values.len(), Ordering::Relaxed);
                return 0;
            }
            // Every sample closes a window (`record`'s `credit_window(s,
            // 0)`, once per sample); the values after the last one open
            // the next window, settled when it ends or at `flush`.
            let after_last = values.len() - 1 - (c + (samples - 1) * self.sample_k);
            s.wr.skipped.store(
                s.wr.skipped.load(Ordering::Relaxed) + (samples * (self.sample_k - 1)) as u64,
                Ordering::Relaxed,
            );
            s.wr.sample_ctr.store(self.sample_k - 1 - after_last, Ordering::Relaxed);
        }
        let head = s.head.load(Ordering::Relaxed);
        let mut w = s.wr.wcur.load(Ordering::Relaxed);
        let mut tail = s.wr.cached_tail.load(Ordering::Relaxed);
        if w.wrapping_add(samples).wrapping_sub(tail) > self.mask + 1 {
            tail = s.tail.load(Ordering::Acquire);
            s.wr.cached_tail.store(tail, Ordering::Relaxed);
        }
        let used = w.wrapping_sub(tail);
        let room = (self.mask + 1) - used;
        let recorded = samples.min(room);
        if recorded < samples {
            s.dropped.fetch_add((samples - recorded) as u64, Ordering::Relaxed);
        }
        for &value in sampled.take(recorded) {
            s.slots[w & self.mask].store(value, Ordering::Relaxed);
            w = w.wrapping_add(1);
        }
        s.wr.wcur.store(w, Ordering::Relaxed);
        if w != head {
            self.publish(s, head, w.wrapping_sub(head));
        }
        self.reset_limit(s, w, w, tail);
        recorded
    }

    /// Stamps and publishes the shard's pending batch: one stamp entry,
    /// then the release store of `head`.
    fn publish(&self, s: &Shard, head: usize, pending: usize) {
        let now = raw_ticks();
        let enter = s.wr.last_stamp.load(Ordering::Relaxed);
        let new_head = head.wrapping_add(pending);
        let si = s.wr.stamp_head.load(Ordering::Relaxed);
        let entry = &s.stamps[si & self.mask];
        entry[UPTO].store(new_head as u64, Ordering::Relaxed);
        entry[ENTER].store(enter, Ordering::Relaxed);
        entry[EXIT].store(now, Ordering::Relaxed);
        s.wr.stamp_head.store(si.wrapping_add(1), Ordering::Relaxed);
        s.wr.last_stamp.store(now, Ordering::Relaxed);
        s.head.store(new_head, Ordering::Release);
    }

    /// Publishes `shard`'s partial batch, if any. Must be called by the
    /// shard's writing thread, or after that thread has quiesced (e.g.
    /// been joined) — never concurrently with its [`record`](Self::record)
    /// calls.
    pub fn flush(&self, shard: usize) {
        let s = &self.shards[shard];
        if self.sample_k > 1 {
            // Settle the in-progress sampling window so `skipped` is exact
            // at every quiesce point; the next record starts a new window.
            let c = s.wr.sample_ctr.load(Ordering::Relaxed);
            self.credit_window(s, c);
        }
        let head = s.head.load(Ordering::Relaxed);
        let w = s.wr.wcur.load(Ordering::Relaxed);
        if w != head {
            self.publish(s, head, w.wrapping_sub(head));
            self.reset_limit(s, w, w, s.wr.cached_tail.load(Ordering::Relaxed));
        }
    }

    /// Total events lost to full rings so far.
    pub fn dropped(&self) -> u64 {
        self.shards.iter().map(|s| s.dropped.load(Ordering::Relaxed)).sum()
    }

    /// Events lost to overflow on one shard.
    pub fn dropped_on(&self, shard: usize) -> u64 {
        self.shards[shard].dropped.load(Ordering::Relaxed)
    }

    /// Total events skipped by sampling so far.
    pub fn skipped(&self) -> u64 {
        self.shards.iter().map(|s| s.wr.skipped.load(Ordering::Relaxed)).sum()
    }

    /// Events skipped by sampling on one shard.
    pub fn skipped_on(&self, shard: usize) -> u64 {
        self.shards[shard].wr.skipped.load(Ordering::Relaxed)
    }

    /// Moves every currently-published event out of **one** shard's ring
    /// into a callback `(enter_ns, exit_ns, value)`, in record order with
    /// nondecreasing enter times, converting raw ticks to nanoseconds.
    /// Returns how many events moved.
    ///
    /// This is the audit workers' steal API: each shard has its own
    /// cursors, so different shards may be pulled by different threads
    /// concurrently — but at most one thread may pull a given shard at a
    /// time. Two unsynchronised pullers of one shard read the same slots,
    /// so one event can reach both; that is why every consumer of a served
    /// recorder goes through the server's one table of [`ShardStealer`]s,
    /// locked per shard.
    pub fn pull_shard(&self, shard: usize, mut f: impl FnMut(u64, u64, u64)) -> usize {
        let s = &self.shards[shard];
        let head = s.head.load(Ordering::Acquire);
        let mut tail = s.tail.load(Ordering::Relaxed);
        if tail == head {
            return 0;
        }
        let mut st = s.dr.stamp_tail.load(Ordering::Relaxed);
        let mut last_enter = s.dr.last_enter_ns.load(Ordering::Relaxed);
        let mut moved = 0;
        // The entry covering a slot `t < head` always exists and was
        // published before `head` moved past `t`, so these relaxed reads
        // are ordered by the acquire load of `head` above; the fullness
        // check keeps the writer from reusing any entry whose slots are
        // not yet consumed (see `StampEntry`).
        let mut entry = &s.stamps[st & self.mask];
        let mut upto = entry[UPTO].load(Ordering::Relaxed) as usize;
        while tail != head {
            while upto <= tail {
                st = st.wrapping_add(1);
                entry = &s.stamps[st & self.mask];
                upto = entry[UPTO].load(Ordering::Relaxed) as usize;
            }
            // Clamp so per-shard enters never regress and intervals stay
            // well-formed even under TSC pathologies.
            let enter_ns = self.clock.raw_to_ns(entry[ENTER].load(Ordering::Relaxed));
            let enter_ns = enter_ns.max(last_enter);
            let exit_ns = self.clock.raw_to_ns(entry[EXIT].load(Ordering::Relaxed)).max(enter_ns);
            last_enter = enter_ns;
            while tail != head && tail != upto {
                let value = s.slots[tail & self.mask].load(Ordering::Relaxed);
                f(enter_ns, exit_ns, value);
                tail = tail.wrapping_add(1);
                moved += 1;
            }
        }
        // Step past an exactly-exhausted covering entry *before* the tail
        // store makes it reusable to the writer: afterwards `stamp_tail`
        // only ever names an entry the writer cannot touch.
        if upto == tail {
            st = st.wrapping_add(1);
        }
        s.dr.stamp_tail.store(st, Ordering::Relaxed);
        s.dr.last_enter_ns.store(last_enter, Ordering::Relaxed);
        s.tail.store(tail, Ordering::Release);
        moved
    }

    /// Moves every currently-published event out of the rings into the
    /// merger (shard `s` feeds merger shard `s` as process `s`),
    /// converting raw ticks to nanoseconds. Returns how many events moved.
    /// Call from one drainer thread at a time.
    ///
    /// # Panics
    ///
    /// Panics if the merger has fewer shards than the recorder.
    pub fn drain_into(&self, merger: &mut EventMerger) -> usize {
        let mut moved = 0;
        for si in 0..self.shards.len() {
            moved += self.pull_shard(si, |enter_ns, exit_ns, value| {
                merger.push(si, RawOp { process: si, enter_ns, exit_ns, value });
            });
        }
        moved
    }
}

/// Wraps any [`ProcessCounter`] so every operation is recorded: process
/// `p`'s operations land in shard `p` of the recorder (so `p` must stay
/// below [`TraceRecorder::shards`], with one thread per process).
#[derive(Debug)]
pub struct Traced<C> {
    inner: C,
    recorder: Arc<TraceRecorder>,
}

impl<C: ProcessCounter> Traced<C> {
    /// Wraps `inner` with `recorder`.
    pub fn new(inner: C, recorder: Arc<TraceRecorder>) -> Traced<C> {
        Traced { inner, recorder }
    }

    /// The wrapped counter.
    pub fn inner(&self) -> &C {
        &self.inner
    }

    /// The recorder operations land in.
    pub fn recorder(&self) -> &Arc<TraceRecorder> {
        &self.recorder
    }
}

impl<C: ProcessCounter> ProcessCounter for Traced<C> {
    fn next_for(&self, process: usize) -> u64 {
        let value = self.inner.next_for(process);
        self.recorder.record(process, value);
        value
    }

    /// The batch is handed out and recorded ascending, the order a
    /// sequential caller would have seen: a backend's own batch order
    /// (say, grouped by sink) would record precedences no execution had.
    fn next_batch_for(&self, process: usize, n: usize) -> Vec<u64> {
        let mut values = self.inner.next_batch_for(process, n);
        values.sort_unstable();
        self.recorder.record_batch(process, &values);
        values
    }
}

/// One recorder shard's live consumer: a [`ShardMonitor`] fed straight
/// from the ring, plus the shard's drop/skip totals already folded into
/// it. It only buffers: the events leave in frontiers, and the
/// [`MergeAuditor`] they are folded into computes the one verdict. Every
/// audit surface steals through this type, because the delta
/// accounting it hides is the part a hand-written loop gets wrong: a
/// stealer that forgets it reports a "clean" verdict over events nobody
/// saw. At most one stealer per shard may exist at a time (the recorder's
/// one-puller-per-shard contract): [`drive_audited`] builds one per shard
/// of its own recorder, and a served recorder's only stealers are the
/// server's shard table (`cnet_net::AuditTable`), which both the
/// server's own audit workers and remote frontier pulls go through.
#[derive(Debug)]
pub struct ShardStealer {
    monitor: ShardMonitor,
    /// The shard's lifetime `(dropped, skipped)` totals as of the last
    /// [`steal`](Self::steal); the monitor takes deltas.
    seen: (u64, u64),
}

impl ShardStealer {
    /// A stealer for recorder shard `shard` (reported as process `shard`).
    pub fn new(shard: usize) -> ShardStealer {
        ShardStealer { monitor: ShardMonitor::new(shard), seen: (0, 0) }
    }

    /// Moves every currently-published event of the shard into the
    /// monitor and folds in the drops and sampling skips that happened
    /// since the last call. Returns how many events moved.
    pub fn steal(&mut self, recorder: &TraceRecorder) -> usize {
        let sh = self.monitor.shard();
        let monitor = &mut self.monitor;
        let moved = recorder.pull_shard(sh, |enter_ns, exit_ns, value| {
            monitor.observe(RawOp { process: sh, enter_ns, exit_ns, value });
        });
        let totals = (recorder.dropped_on(sh), recorder.skipped_on(sh));
        self.monitor.add_dropped(totals.0 - self.seen.0);
        self.monitor.add_skipped(totals.1 - self.seen.1);
        self.seen = totals;
        moved
    }

    /// Events stolen but not yet handed out in a frontier.
    pub fn buffered(&self) -> usize {
        self.monitor.buffered()
    }

    /// The shard's current frontier ([`ShardMonitor::take_frontier`]).
    pub fn take_frontier(&mut self, finished: bool) -> ShardFrontier {
        self.monitor.take_frontier(finished)
    }
}

/// The audit pipeline: runs `workload` against a counter that records into
/// `recorder` (wrap it with [`Traced`]) while `audit_threads` workers
/// (clamped to `1..=shards`) steal ring shards **in place** — each owns a
/// disjoint set of [`ShardStealer`]s (buffering only, no global merge
/// on the steal path) and hands frontiers to a shared
/// [`MergeAuditor`] at epoch boundaries. The merged verdict is exactly
/// what one sequential pass over the same streams gives, whatever the
/// worker count. `on_progress` fires from the driving thread as the merged
/// operation count grows, the last time after the final merge. The merged
/// auditor is returned: its `operations`, `dropped` and `skipped` are the
/// run's coverage counts.
///
/// # Panics
///
/// Panics if the recorder has fewer shards than the workload has threads
/// (two threads would share a ring, breaking the single-writer contract).
pub fn drive_audited<C: ProcessCounter>(
    counter: &C,
    recorder: &TraceRecorder,
    workload: Workload,
    audit_threads: usize,
    mut on_progress: impl FnMut(&MergeAuditor),
) -> MergeAuditor {
    assert!(
        recorder.shards() >= workload.threads,
        "recorder has {} shards for {} threads",
        recorder.shards(),
        workload.threads
    );
    let shards = recorder.shards();
    let stealers = audit_threads.clamp(1, shards);
    let shared = Mutex::new(MergeAuditor::new(shards));
    let writers_done = AtomicUsize::new(0);
    let quiesced = AtomicBool::new(false);
    let mut last = 0usize;
    std::thread::scope(|s| {
        for p in 0..workload.threads {
            let writers_done = &writers_done;
            s.spawn(move || {
                for _ in 0..workload.increments_per_thread {
                    counter.next_for(p);
                }
                // The writer flushes its own shard before signalling: by
                // the time the quiesce flag rises, everything is published.
                recorder.flush(p);
                writers_done.fetch_add(1, Ordering::Release);
            });
        }
        for t in 0..stealers {
            let shared = &shared;
            let quiesced = &quiesced;
            s.spawn(move || {
                let mut mine: Vec<ShardStealer> =
                    (t..shards).step_by(stealers).map(ShardStealer::new).collect();
                loop {
                    let done = quiesced.load(Ordering::Acquire);
                    let pulled: usize = mine.iter_mut().map(|st| st.steal(recorder)).sum();
                    if pulled > 0 || done {
                        let mut merged = shared.lock().expect("audit mutex");
                        for st in &mut mine {
                            if st.buffered() > 0 || done {
                                merged.ingest(st.take_frontier(done));
                            }
                        }
                    }
                    if done {
                        break;
                    }
                    std::thread::sleep(Duration::from_micros(500));
                }
            });
        }
        while writers_done.load(Ordering::Acquire) != workload.threads {
            {
                let merged = shared.lock().expect("audit mutex");
                if merged.operations() > last {
                    last = merged.operations();
                    on_progress(&merged);
                }
            }
            std::thread::sleep(Duration::from_micros(500));
        }
        quiesced.store(true, Ordering::Release);
    });
    let mut auditor = shared.into_inner().expect("audit mutex");
    auditor.merge();
    if auditor.operations() > last {
        on_progress(&auditor);
    }
    auditor
}

/// Flushes partial batches and drains whatever remains in `recorder` into
/// an arbitrary sink, merging shards in enter order (a convenience for
/// post-run, non-live auditing — all writers must have quiesced).
pub fn drain_remaining(recorder: &TraceRecorder, sink: &mut impl OpSink) -> usize {
    let mut merger = EventMerger::new(recorder.shards());
    for sh in 0..recorder.shards() {
        recorder.flush(sh);
    }
    recorder.drain_into(&mut merger);
    for sh in 0..recorder.shards() {
        merger.finish(sh);
    }
    merger.drain_into(sink)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FetchAddCounter;
    use cnet_core::trace::OpEvent;

    #[test]
    fn record_and_drain_round_trip() {
        let rec = TraceRecorder::new(2, 8);
        assert!(rec.record(0, 0));
        assert!(rec.record(0, 2));
        assert!(rec.record(1, 1));
        let mut events: Vec<OpEvent> = Vec::new();
        let n = drain_remaining(&rec, &mut events);
        assert_eq!(n, 3);
        // Globally enter-ordered; shard index is the process.
        assert!(events.windows(2).all(|w| w[0].enter_key() <= w[1].enter_key()));
        let mine: Vec<u64> = events.iter().filter(|e| e.process == 0).map(|e| e.value).collect();
        assert_eq!(mine, vec![0, 2]);
        assert_eq!(rec.dropped(), 0);
        assert_eq!(rec.skipped(), 0);
    }

    #[test]
    fn batches_share_boundary_intervals() {
        let total = 2 * BATCH + BATCH / 2;
        let rec = TraceRecorder::new(1, 4 * BATCH);
        for v in 0..total as u64 {
            assert!(rec.record(0, v));
        }
        // Two full batches published without any flush; the partial third
        // batch needs one.
        let mut merger = EventMerger::new(1);
        assert_eq!(rec.drain_into(&mut merger), 2 * BATCH);
        rec.flush(0);
        assert_eq!(rec.drain_into(&mut merger), BATCH / 2);
        merger.finish(0);
        let mut events: Vec<OpEvent> = Vec::new();
        merger.drain_into(&mut events);
        assert_eq!(events.len(), total);
        // Every op in a batch carries the batch's boundary interval...
        let first = &events[0];
        assert!(events[..BATCH]
            .iter()
            .all(|e| e.enter_ns == first.enter_ns && e.exit_ns == first.exit_ns));
        // ...so in-batch ops mutually overlap, and adjacent batches meet at
        // the shared boundary instant, which reads as overlap — the
        // widening never fabricates a precedence.
        assert!(events[0].overlaps(&events[BATCH - 1]));
        assert_eq!(events[BATCH].enter_ns, events[0].exit_ns);
        assert!(!events[0].completely_precedes(&events[BATCH]));
        // Batches separated by a full intervening batch do order.
        assert!(events[0].completely_precedes(&events[total - 1]));
    }

    #[test]
    fn full_ring_drops_instead_of_blocking() {
        let rec = TraceRecorder::new(1, 2); // capacity 2, batch 2
        assert!(rec.record(0, 0));
        assert!(rec.record(0, 1)); // full batch, auto-published
        assert!(!rec.record(0, 2)); // full
        assert_eq!(rec.dropped(), 1);
        assert_eq!(rec.dropped_on(0), 1);
        // Draining frees the ring for further events.
        let mut merger = EventMerger::new(1);
        assert_eq!(rec.drain_into(&mut merger), 2);
        assert!(rec.record(0, 3));
        rec.flush(0);
        rec.drain_into(&mut merger);
        merger.finish(0);
        let mut out: Vec<OpEvent> = Vec::new();
        merger.drain_into(&mut out);
        let values: Vec<u64> = out.iter().map(|e| e.value).collect();
        assert_eq!(values, vec![0, 1, 3]); // 2 was dropped
    }

    #[test]
    fn capacity_rounds_up_to_a_power_of_two() {
        let rec = TraceRecorder::new(1, 1000);
        assert_eq!(rec.capacity(), 1024);
        assert_eq!(TraceRecorder::new(3, 1).shards(), 3);
    }

    #[test]
    fn stamp_ring_survives_many_wraparounds() {
        // Far more events than the ring holds, drained in lockstep: the
        // per-publish stamp entries must keep covering the right slots
        // across reuse, and enters must stay nondecreasing per shard.
        let rec = TraceRecorder::new(1, 8);
        let mut seen = Vec::new();
        let mut last_enter = 0u64;
        for round in 0..200u64 {
            for i in 0..5 {
                assert!(rec.record(0, round * 5 + i));
            }
            rec.flush(0);
            rec.pull_shard(0, |enter, exit, value| {
                assert!(enter >= last_enter, "enter regressed");
                assert!(exit >= enter, "inverted interval");
                last_enter = enter;
                seen.push(value);
            });
        }
        assert_eq!(seen.len(), 1000);
        assert!(seen.iter().enumerate().all(|(i, &v)| v == i as u64));
        assert_eq!(rec.dropped(), 0);
    }

    #[test]
    fn sampling_records_one_in_k_and_counts_the_rest() {
        let rec = TraceRecorder::with_sampling(1, 64, 4);
        assert_eq!(rec.sample_k(), 4);
        for v in 0..40u64 {
            assert!(rec.record(0, v));
        }
        let mut events: Vec<OpEvent> = Vec::new();
        drain_remaining(&rec, &mut events);
        assert_eq!(events.len(), 10, "one in four recorded");
        assert_eq!(rec.skipped(), 30);
        assert_eq!(rec.skipped_on(0), 30);
        // Every 4th value, starting at the 4th op.
        let values: Vec<u64> = events.iter().map(|e| e.value).collect();
        assert_eq!(values, (0..10).map(|i| 4 * i + 3).collect::<Vec<u64>>());
        // Samples flow through the same batched publish as full recording:
        // these 10 samples fit one batch, so they share one boundary
        // interval, which also covers every skipped op between them —
        // sound widening.
        let first = &events[0];
        assert!(events.iter().all(|e| e.enter_ns == first.enter_ns && e.exit_ns == first.exit_ns));
    }

    /// Flushes shard 0 and pulls everything published on it.
    fn flush_and_pull(rec: &TraceRecorder) -> Vec<u64> {
        rec.flush(0);
        let mut values = Vec::new();
        rec.pull_shard(0, |_, _, value| values.push(value));
        values
    }

    #[test]
    fn a_batch_is_sampled_by_operation_not_whole() {
        let rec = TraceRecorder::with_sampling(1, 256, 4);
        assert_eq!(rec.record_batch(0, &(0..64).collect::<Vec<u64>>()), 16);
        let pulled = flush_and_pull(&rec);
        assert_eq!(pulled, (0..16).map(|i| 4 * i + 3).collect::<Vec<u64>>());
        assert_eq!(rec.skipped_on(0), 48);
    }

    #[test]
    fn sampling_is_the_same_however_operations_arrive() {
        let stream: Vec<u64> = (0..1000).map(|v| v * 3 + 1).collect();
        // One value at a time, in batches of 7, and in a mix of both.
        let singles = TraceRecorder::with_sampling(1, 1024, 4);
        for &v in &stream {
            singles.record(0, v);
        }
        let batches = TraceRecorder::with_sampling(1, 1024, 4);
        for chunk in stream.chunks(7) {
            batches.record_batch(0, chunk);
        }
        let mixed = TraceRecorder::with_sampling(1, 1024, 4);
        let mut rest = &stream[..];
        for width in [1usize, 5, 0, 2, 64, 3, 1, 1, 9].iter().cycle() {
            if rest.is_empty() {
                break;
            }
            let (now, later) = rest.split_at((*width).min(rest.len()));
            match now {
                [one] => {
                    mixed.record(0, *one);
                }
                many => {
                    mixed.record_batch(0, many);
                }
            }
            rest = later;
        }
        let expect: Vec<u64> = stream.iter().copied().skip(3).step_by(4).collect();
        for rec in [&singles, &batches, &mixed] {
            let pulled = flush_and_pull(rec);
            assert_eq!(pulled, expect);
            assert_eq!(rec.skipped_on(0) + pulled.len() as u64, 1000);
            assert_eq!(rec.dropped_on(0), 0);
        }
    }

    #[test]
    fn a_full_ring_drops_only_sampled_values_of_a_batch() {
        // 1-in-2 sampling into a 4-slot ring: a batch of 16 samples 8, four
        // fit, four drop — and the 8 it skipped are skips, not drops.
        let rec = TraceRecorder::with_sampling(1, 4, 2);
        assert_eq!(rec.record_batch(0, &(0..16).collect::<Vec<u64>>()), 4);
        assert_eq!(rec.dropped_on(0), 4);
        assert_eq!(flush_and_pull(&rec), [1, 3, 5, 7]);
        assert_eq!(rec.skipped_on(0), 8);
    }

    #[test]
    fn shard_stealer_folds_every_drop_and_skip_delta_exactly_once() {
        // 1-in-4 sampling into an 8-slot ring, stolen every 50 ops: each
        // round samples 12 or 13 ops, so the ring overflows every round and
        // both totals keep moving between steals.
        let rec = TraceRecorder::with_sampling(1, 8, 4);
        let mut stealer = ShardStealer::new(0);
        let mut shipped = 0usize;
        for round in 0..80u64 {
            for i in 0..50 {
                rec.record(0, round * 50 + i);
            }
            stealer.steal(&rec);
            if round % 3 == 0 {
                assert!(stealer.buffered() > 0);
                shipped += stealer.take_frontier(false).ops.len();
            }
        }
        rec.flush(0);
        stealer.steal(&rec);
        let last = stealer.take_frontier(true);
        shipped += last.ops.len();
        assert_eq!(stealer.buffered(), 0);
        assert!(last.dropped > 0 && last.skipped > 0, "{last:?}");
        assert_eq!(shipped as u64 + last.dropped + last.skipped, 4000);
        assert_eq!(last.dropped, rec.dropped_on(0));
        assert_eq!(last.skipped, rec.skipped_on(0));
    }

    #[test]
    fn sampled_audit_is_clean_on_a_fetch_add() {
        let threads = 2;
        let recorder = Arc::new(TraceRecorder::with_sampling(threads, 1024, 8));
        let counter = Traced::new(FetchAddCounter::new(), Arc::clone(&recorder));
        let run = drive_audited(
            &counter,
            &recorder,
            Workload { threads, increments_per_thread: 1000 },
            2,
            |_| {},
        );
        assert_eq!(run.operations() as u64 + run.skipped() + run.dropped(), 2000);
        assert!(run.skipped() > 0);
        assert!(run.is_clean(), "{}", run.auditor().summary());
    }

    #[test]
    fn traced_fetch_add_audits_clean_live() {
        let threads = 4;
        let per_thread = 500;
        let recorder = Arc::new(TraceRecorder::new(threads, per_thread));
        let counter = Traced::new(FetchAddCounter::new(), Arc::clone(&recorder));
        let mut progress_calls = 0usize;
        let run = drive_audited(
            &counter,
            &recorder,
            Workload { threads, increments_per_thread: per_thread },
            1,
            |_| progress_calls += 1,
        );
        assert_eq!(run.operations(), threads * per_thread);
        assert_eq!(run.dropped(), 0);
        assert!(progress_calls >= 1);
        // A fetch-and-add word under a monotone global clock audits clean:
        // recorded intervals only widen the true ones, so a recorded
        // precedence is a real-time precedence, which implies the earlier
        // op's fetch_add happened first, hence the smaller value.
        let aud = run.auditor();
        assert!(aud.is_linearizable());
        assert!(aud.is_sequentially_consistent());
        assert_eq!(aud.f_nl(), 0.0);
        assert_eq!(aud.f_nsc(), 0.0);
    }

    #[test]
    fn parallel_audit_matches_sequential_on_the_same_counter() {
        let threads = 4;
        let per_thread = 800;
        let recorder = Arc::new(TraceRecorder::new(threads, per_thread));
        let counter = Traced::new(FetchAddCounter::new(), Arc::clone(&recorder));
        let mut run = drive_audited(
            &counter,
            &recorder,
            Workload { threads, increments_per_thread: per_thread },
            2,
            |_| {},
        );
        assert_eq!(run.operations(), threads * per_thread);
        assert_eq!(run.dropped(), 0);
        assert_eq!(run.skipped(), 0);
        assert!(run.is_clean());
        let aud = run.auditor();
        assert_eq!(aud.f_nl(), 0.0);
        assert_eq!(aud.f_nsc(), 0.0);
        // Per-shard accounting covered every shard.
        assert_eq!(run.shard_stats().iter().map(|s| s.observed).sum::<usize>(), 3200);
        assert!(run.summary().ends_with("clean"));
    }

    #[test]
    fn audited_run_with_idle_threads_still_flushes() {
        // More shards than threads: idle shards must not block the merger.
        let recorder = Arc::new(TraceRecorder::new(6, 64));
        let counter = Traced::new(FetchAddCounter::new(), Arc::clone(&recorder));
        let run = drive_audited(
            &counter,
            &recorder,
            Workload { threads: 2, increments_per_thread: 50 },
            1,
            |_| {},
        );
        assert_eq!(run.operations(), 100);
        assert!(run.auditor().is_linearizable());
    }

    #[test]
    fn parallel_audit_with_more_stealers_than_shards_clamps() {
        let recorder = Arc::new(TraceRecorder::new(2, 256));
        let counter = Traced::new(FetchAddCounter::new(), Arc::clone(&recorder));
        let run = drive_audited(
            &counter,
            &recorder,
            Workload { threads: 2, increments_per_thread: 100 },
            16,
            |_| {},
        );
        assert_eq!(run.operations(), 200);
        assert!(run.is_clean());
    }

    #[test]
    fn overflow_during_audited_run_is_reported_not_fatal() {
        // Tiny rings with a workload far beyond them: drops are counted,
        // the run completes, and what was recorded still audits.
        let recorder = Arc::new(TraceRecorder::new(2, 4));
        let counter = Traced::new(FetchAddCounter::new(), Arc::clone(&recorder));
        let run = drive_audited(
            &counter,
            &recorder,
            Workload { threads: 2, increments_per_thread: 2000 },
            1,
            |_| {},
        );
        assert_eq!(run.operations() as u64 + run.dropped(), 4000);
        assert!(run.auditor().is_sequentially_consistent());
    }

    /// A `fetch_add` counter that hands each batch out descending: every
    /// value it gives is still one a sequential caller would have claimed.
    struct Descending(FetchAddCounter);

    impl ProcessCounter for Descending {
        fn next_for(&self, process: usize) -> u64 {
            self.0.next_for(process)
        }

        fn next_batch_for(&self, process: usize, n: usize) -> Vec<u64> {
            let mut values = self.0.next_batch_for(process, n);
            values.reverse();
            values
        }
    }

    #[test]
    fn a_batch_is_recorded_in_the_order_it_is_handed_out() {
        // One process, three batches back to back: a sequential run. Were
        // a batch recorded in the backend's descending order, each would
        // read as values going backwards within the process.
        let recorder = Arc::new(TraceRecorder::new(1, 256));
        let counter = Traced::new(Descending(FetchAddCounter::new()), Arc::clone(&recorder));
        let mut got = Vec::new();
        for _ in 0..3 {
            got.extend(counter.next_batch_for(0, 16));
        }
        assert_eq!(got, (0..48).collect::<Vec<u64>>());
        let mut auditor = cnet_core::trace::StreamingAuditor::new();
        assert_eq!(drain_remaining(&recorder, &mut auditor), 48);
        assert!(auditor.is_clean(), "{}", auditor.summary());
    }
}
