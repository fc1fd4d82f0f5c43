//! Exhaustive bounded-interleaving model checking of the lock-free core.
//!
//! Built only with `--features model-check` (see `crates/bench/Cargo.toml`);
//! plain `cargo test` skips this target. Each scenario wraps a lock-free
//! algorithm from `cnet-runtime` in `cnet_util::model::explore`, which
//! enumerates *every* schedule of its logical threads up to a preemption
//! bound — the invariants here hold in all of them, not just the lucky
//! interleavings a stress test happens to sample.
//!
//! The four scenarios from the issue:
//!   1. two-thread B(4) compiled traversal — gap-free values and the step
//!      property in the final quiescent state of every schedule (a token is
//!      three op points, one per balancer word: the last of them is the
//!      terminal word that also hands out the value);
//!   2. three-thread combining funnel — every caller exactly one value,
//!      none duplicated or lost, and the served-then-won-lock race both
//!      reachable and handled;
//!   3. two-writer/one-drainer trace recorder — drained intervals always
//!      contain the true operation, so widening never fabricates a
//!      precedence the monitors would rely on;
//!   4. batched traversal vs. sequential traversals — multiset equality
//!      of claimed values under all schedules, for a batch on one input
//!      wire and for one spread over two, and single tokens against batches
//!      on the one fused terminal word of B(2).
//!
//! `cnet_topology::state::NetworkState` is the sequential oracle here (it
//! holds no atomics, so there is nothing in it to model-check — the
//! issue's migration list notwithstanding); `has_step_property` checks
//! the quiescent counts the scenarios produce.
//!
//! Schedule counts are asserted per scenario and must total >= 10,000
//! across the four (see `EXPERIMENTS.md`). Run with `--nocapture` to see
//! the per-scenario counts.

use cnet_core::trace::{EventMerger, OpEvent};
use cnet_runtime::combine::model_bugs;
use cnet_runtime::{
    CombiningFunnel, FetchAddCounter, ProcessCounter, SharedNetworkCounter,
    TraceRecorder,
};
use cnet_topology::construct::bitonic;
use cnet_topology::state::has_step_property;
use cnet_util::model;
use std::collections::HashMap;
// Bookkeeping for invariant checks deliberately uses std atomics and
// mutexes, NOT the shims: the model's threads are serialized, so these
// never block, and they must not add scheduling points of their own.
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Serializes the tests that flip `model_bugs::SKIP_SERVED_RECHECK`
/// against the other funnel scenarios in this binary.
static FUNNEL_FLAG: Mutex<()> = Mutex::new(());

fn funnel_flag_guard() -> std::sync::MutexGuard<'static, ()> {
    FUNNEL_FLAG.lock().unwrap_or_else(|e| e.into_inner())
}

// ---------------------------------------------------------------------
// Scenario 1: two threads, three tokens each, through a compiled B(4).
// Three, not two: each of B(4)'s two terminal words then takes three
// arrivals, so some token in every schedule is handed rank 1 — with two
// tokens a thread no terminal word would ever leave rank 0.
// ---------------------------------------------------------------------

struct TraversalState {
    counter: SharedNetworkCounter,
    values: Mutex<Vec<u64>>,
}

#[test]
fn traversal_b4_step_property_under_all_schedules() {
    const THREADS: usize = 2;
    const PER_THREAD: usize = 3;
    let stats = model::explore(
        THREADS,
        5,
        || {
            let net = bitonic(4).expect("B(4) builds");
            TraversalState {
                counter: SharedNetworkCounter::new(&net),
                values: Mutex::new(Vec::new()),
            }
        },
        |s, tid| {
            for _ in 0..PER_THREAD {
                let v = s.counter.increment_from(tid);
                s.values.lock().unwrap().push(v);
            }
        },
        |s| {
            let mut values = s.values.lock().unwrap().clone();
            values.sort_unstable();
            let n = (THREADS * PER_THREAD) as u64;
            assert_eq!(
                values,
                (0..n).collect::<Vec<_>>(),
                "values must be gap-free and duplicate-free"
            );
            let counts = s.counter.output_counts();
            assert!(
                has_step_property(&counts),
                "quiescent counts {counts:?} violate the step property"
            );
            assert_eq!(s.counter.tokens_counted(), n);
        },
    );
    eprintln!(
        "model_check: traversal_b4: {} schedules, {} points, depth {}",
        stats.schedules, stats.points, stats.max_depth
    );
    assert!(
        stats.schedules >= 2_000,
        "expected >= 2000 schedules, got {}",
        stats.schedules
    );
}

// ---------------------------------------------------------------------
// Scenario 2: three threads through a combining funnel.
// ---------------------------------------------------------------------

struct FunnelState {
    funnel: CombiningFunnel<FetchAddCounter>,
    values: Mutex<Vec<u64>>,
}

fn funnel_state() -> FunnelState {
    FunnelState {
        funnel: CombiningFunnel::new(FetchAddCounter::new(), 3),
        values: Mutex::new(Vec::new()),
    }
}

fn funnel_run(s: &FunnelState, tid: usize) {
    let v = s.funnel.next_for(tid);
    s.values.lock().unwrap().push(v);
}

fn funnel_check(s: &FunnelState) {
    let mut values = s.values.lock().unwrap().clone();
    values.sort_unstable();
    assert_eq!(
        values,
        vec![0, 1, 2],
        "each caller must get exactly one value, none duplicated or lost"
    );
    assert_eq!(s.funnel.combined_ops(), 3);
}

#[test]
fn funnel_exactly_once_and_race_reachable_under_all_schedules() {
    let _guard = funnel_flag_guard();
    let race_hits = AtomicU64::new(0);
    let widest = AtomicU64::new(0);
    let stats = model::explore(3, 2, funnel_state, funnel_run, |s| {
        funnel_check(s);
        race_hits.fetch_add(s.funnel.served_then_won_lock(), Ordering::Relaxed);
        widest.fetch_max(s.funnel.widest_batch(), Ordering::Relaxed);
    });
    eprintln!(
        "model_check: funnel_3thread: {} schedules, {} points, depth {}, \
         served-then-won-lock hits {}, widest batch {}",
        stats.schedules,
        stats.points,
        stats.max_depth,
        race_hits.load(Ordering::Relaxed),
        widest.load(Ordering::Relaxed)
    );
    // The PR 5 race — a caller wins the combiner lock after a previous
    // combiner already served its slot — must be reachable (and, per
    // funnel_check, handled) within this bound.
    assert!(
        race_hits.load(Ordering::Relaxed) > 0,
        "served-then-won-lock race was never exercised — bound too small?"
    );
    // Real combining must also occur in some schedule.
    assert!(widest.load(Ordering::Relaxed) >= 2);
    assert!(
        stats.schedules >= 3_000,
        "expected >= 3000 schedules, got {}",
        stats.schedules
    );
}

// ---------------------------------------------------------------------
// Scenario 3: two recorder writers and a concurrent drainer.
// ---------------------------------------------------------------------

struct RecorderState {
    rec: TraceRecorder,
    merger: Mutex<EventMerger>,
    sink: Mutex<Vec<OpEvent>>,
    /// Global event-order counter: bumped at each true operation's start
    /// and completion, giving the reference order the recorded intervals
    /// must never contradict.
    seq: AtomicU64,
    /// value -> (start seq, completion seq) of the true operation.
    spans: Mutex<HashMap<u64, (u64, u64)>>,
}

const WRITERS: usize = 2;
const OPS_PER_WRITER: u64 = 3;

fn recorder_state() -> RecorderState {
    RecorderState {
        rec: TraceRecorder::new(WRITERS, 4),
        merger: Mutex::new(EventMerger::new(WRITERS)),
        sink: Mutex::new(Vec::new()),
        seq: AtomicU64::new(0),
        spans: Mutex::new(HashMap::new()),
    }
}

fn recorder_run(s: &RecorderState, tid: usize) {
    if tid < WRITERS {
        for i in 0..OPS_PER_WRITER {
            let value = tid as u64 * 100 + i;
            // The true operation happens-before its record() call; both
            // marks land before the recorder is involved at all.
            let start = s.seq.fetch_add(1, Ordering::Relaxed);
            let end = s.seq.fetch_add(1, Ordering::Relaxed);
            s.spans.lock().unwrap().insert(value, (start, end));
            assert!(s.rec.record(tid, value), "ring must not overflow");
        }
        s.rec.flush(tid);
    } else {
        // The drainer races the writers: partial drains must stay sound.
        for _ in 0..2 {
            let mut merger = s.merger.lock().unwrap();
            s.rec.drain_into(&mut merger);
            merger.drain_into(&mut *s.sink.lock().unwrap());
        }
    }
}

fn recorder_check(s: &RecorderState) {
    let mut merger = s.merger.lock().unwrap();
    s.rec.drain_into(&mut merger);
    for shard in 0..WRITERS {
        merger.finish(shard);
    }
    let mut sink = s.sink.lock().unwrap();
    merger.drain_into(&mut *sink);
    assert_eq!(s.rec.dropped(), 0);

    let mut values: Vec<u64> = sink.iter().map(|e| e.value).collect();
    values.sort_unstable();
    let expected: Vec<u64> = (0..WRITERS as u64)
        .flat_map(|w| (0..OPS_PER_WRITER).map(move |i| w * 100 + i))
        .collect();
    assert_eq!(values, expected, "every recorded op drained exactly once");

    let spans = s.spans.lock().unwrap();
    for e in sink.iter() {
        assert!(e.enter_ns <= e.exit_ns, "malformed interval {e:?}");
    }
    // Soundness: a recorded precedence must be a true precedence. The
    // recorded interval only *widens* the true operation, so if the
    // monitors would conclude "a completely precedes b", the true spans
    // must agree — widening may lose precedences, never invent them.
    for a in sink.iter() {
        for b in sink.iter() {
            if a.completely_precedes(b) {
                let (_, a_end) = spans[&a.value];
                let (b_start, _) = spans[&b.value];
                assert!(
                    a_end < b_start,
                    "recorded order fabricated a precedence: {} (true end \
                     {a_end}) recorded before {} (true start {b_start})",
                    a.value,
                    b.value
                );
            }
        }
    }
}

#[test]
fn recorder_drained_intervals_contain_true_ops_under_all_schedules() {
    let stats =
        model::explore(WRITERS + 1, 2, recorder_state, recorder_run, recorder_check);
    eprintln!(
        "model_check: recorder_2w1d: {} schedules, {} points, depth {}",
        stats.schedules, stats.points, stats.max_depth
    );
    assert!(
        stats.schedules >= 10_000,
        "expected >= 10000 schedules, got {}",
        stats.schedules
    );
}

// ---------------------------------------------------------------------
// Scenario 4: one batched traversal vs. k sequential traversals.
// ---------------------------------------------------------------------

struct BatchState {
    counter: SharedNetworkCounter,
    values: Mutex<Vec<u64>>,
}

#[test]
fn batched_traversal_equals_sequential_multiset_under_all_schedules() {
    const K: usize = 5;
    let stats = model::explore(
        2,
        5,
        || {
            let net = bitonic(4).expect("B(4) builds");
            BatchState {
                counter: SharedNetworkCounter::new(&net),
                values: Mutex::new(Vec::new()),
            }
        },
        |s, tid| {
            if tid == 0 {
                // One width-K batched traversal: at most one atomic per
                // balancer for the whole batch.
                let mut out = Vec::new();
                s.counter.increment_batch_from(0, K, &mut Vec::new(), &mut out);
                assert_eq!(out.len(), K);
                s.values.lock().unwrap().extend(out);
            } else {
                // K sequential single-token traversals racing it, three op
                // points each.
                for _ in 0..K {
                    let v = s.counter.increment_from(1);
                    s.values.lock().unwrap().push(v);
                }
            }
        },
        |s| {
            let mut values = s.values.lock().unwrap().clone();
            values.sort_unstable();
            let n = 2 * K as u64;
            assert_eq!(
                values,
                (0..n).collect::<Vec<_>>(),
                "batched + sequential traversals must claim the same \
                 multiset as 2K sequential ones"
            );
            let counts = s.counter.output_counts();
            assert!(
                has_step_property(&counts),
                "quiescent counts {counts:?} violate the step property"
            );
        },
    );
    eprintln!(
        "model_check: batch_vs_sequential: {} schedules, {} points, depth {}",
        stats.schedules, stats.points, stats.max_depth
    );
    assert!(
        stats.schedules >= 1_000,
        "expected >= 1000 schedules, got {}",
        stats.schedules
    );
}

/// The same race with the batch spread over two input wires — what a
/// partition cut delivers to the node that owns the counters: one sweep
/// seeded on several wires still claims each balancer once, so every
/// schedule hands out exactly `0..n` and leaves the step property.
#[test]
fn multi_wire_batch_equals_sequential_multiset_under_all_schedules() {
    // Wires 0 and 2 feed different first-layer balancers of B(4), and an
    // odd count on each makes both fire.
    const ENTERING: [usize; 4] = [3, 0, 1, 0];
    const BATCH: usize = 4;
    const K: usize = 5;
    let stats = model::explore(
        2,
        5,
        || {
            let net = bitonic(4).expect("B(4) builds");
            BatchState {
                counter: SharedNetworkCounter::new(&net),
                values: Mutex::new(Vec::new()),
            }
        },
        |s, tid| {
            if tid == 0 {
                let mut out = Vec::new();
                s.counter.increment_counts_from(&ENTERING, &mut Vec::new(), &mut out);
                assert_eq!(out.len(), BATCH);
                s.values.lock().unwrap().extend(out);
            } else {
                for _ in 0..K {
                    let v = s.counter.increment_from(1);
                    s.values.lock().unwrap().push(v);
                }
            }
        },
        |s| {
            let mut values = s.values.lock().unwrap().clone();
            values.sort_unstable();
            assert_eq!(
                values,
                (0..(BATCH + K) as u64).collect::<Vec<_>>(),
                "a two-wire batch + sequential traversals must claim the \
                 same multiset as sequential ones"
            );
            let counts = s.counter.output_counts();
            assert!(
                has_step_property(&counts),
                "quiescent counts {counts:?} violate the step property"
            );
        },
    );
    eprintln!(
        "model_check: multi_wire_batch_vs_sequential: {} schedules, {} points, depth {}",
        stats.schedules, stats.points, stats.max_depth
    );
    assert!(
        stats.schedules >= 3_000,
        "expected >= 3000 schedules, got {}",
        stats.schedules
    );
}

/// Everything on one fused word. B(2) is a single balancer, terminal, so
/// its word is the whole counter: two single tokens, a batch of three on
/// one wire, and a batch of one token on each wire — whose two arrivals
/// split evenly, the case an interior balancer skips and a terminal word
/// must still advance for — all claim runs of arrivals on it. Every order
/// of the four `fetch_add`s must hand out exactly `0..7` and leave the
/// step property.
#[test]
fn singles_and_batches_on_one_fused_word_under_all_schedules() {
    const SINGLES: usize = 2;
    const BATCH: usize = 3;
    const EVEN: [usize; 2] = [1, 1];
    let stats = model::explore(
        3,
        4,
        || {
            let net = bitonic(2).expect("B(2) builds");
            BatchState {
                counter: SharedNetworkCounter::new(&net),
                values: Mutex::new(Vec::new()),
            }
        },
        |s, tid| {
            let mut out = Vec::new();
            match tid {
                0 => {
                    for _ in 0..SINGLES {
                        out.push(s.counter.increment_from(1));
                    }
                }
                1 => s.counter.increment_batch_from(0, BATCH, &mut Vec::new(), &mut out),
                _ => s.counter.increment_counts_from(&EVEN, &mut Vec::new(), &mut out),
            }
            s.values.lock().unwrap().extend(out);
        },
        |s| {
            let mut values = s.values.lock().unwrap().clone();
            values.sort_unstable();
            let n = (SINGLES + BATCH + EVEN.iter().sum::<usize>()) as u64;
            assert_eq!(
                values,
                (0..n).collect::<Vec<_>>(),
                "runs of arrivals claimed on one word must tile 0..n"
            );
            let counts = s.counter.output_counts();
            assert!(
                has_step_property(&counts),
                "quiescent counts {counts:?} violate the step property"
            );
            assert_eq!(s.counter.tokens_counted(), n);
        },
    );
    eprintln!(
        "model_check: fused_word: {} schedules, {} points, depth {}",
        stats.schedules, stats.points, stats.max_depth
    );
    // Four op points in all (2 + 1 + 1), two of them ordered within one
    // thread: 4!/2! = 12 interleavings, all within the preemption bound.
    assert_eq!(stats.schedules, 12);
}

// ---------------------------------------------------------------------
// Seeded bug: the checker must catch a deliberately broken funnel.
// ---------------------------------------------------------------------

/// Restores the seeded-bug flag even if the test panics.
struct BugFlagGuard;

impl BugFlagGuard {
    fn seed() -> BugFlagGuard {
        model_bugs::SKIP_SERVED_RECHECK.store(true, Ordering::SeqCst);
        BugFlagGuard
    }
}

impl Drop for BugFlagGuard {
    fn drop(&mut self) {
        model_bugs::SKIP_SERVED_RECHECK.store(false, Ordering::SeqCst);
    }
}

#[test]
fn seeded_missing_recheck_bug_is_caught_with_replay_string() {
    let _guard = funnel_flag_guard();
    let failure = {
        let _bug = BugFlagGuard::seed();
        model::try_explore(3, 2, funnel_state, funnel_run, funnel_check)
            .expect_err("dropping the own-slot-DONE recheck must be caught")
    };
    eprintln!(
        "model_check: seeded bug caught after {} clean schedules\n  \
         message: {}\n  replay:  {}",
        failure.schedules, failure.message, failure.replay
    );
    assert!(failure.replay.starts_with("v1:3:2:"));
    // The replay string reproduces the counterexample deterministically
    // while the bug is seeded...
    {
        let _bug = BugFlagGuard::seed();
        assert!(
            model::replay(&failure.replay, funnel_state, funnel_run, funnel_check)
                .is_err(),
            "replay must reproduce the seeded failure"
        );
    }
    // ...and the correct funnel passes the very same schedule.
    assert_eq!(
        model::replay(&failure.replay, funnel_state, funnel_run, funnel_check),
        Ok(()),
        "the fixed funnel must survive the counterexample schedule"
    );
}

// ---------------------------------------------------------------------
// Pinned regression schedules (the PR 1 proptest-regressions convention:
// counterexamples found during development stay as explicit tests).
// ---------------------------------------------------------------------

/// The first schedule (in DFS order) on which a funnel caller is served
/// by a previous combiner and *then* wins the combiner lock — the PR 5
/// race the own-slot-DONE recheck exists for, and the very interleaving
/// the seeded-bug test corrupts. Harvested by exploring with a check
/// that trips when `served_then_won_lock() > 0`. Pinned so this exact
/// interleaving keeps passing against the correct funnel without
/// re-exploring.
const PINNED_FUNNEL_RACE_REPLAY: &str =
    "v1:3:2:0.0.0.0.0.0.0.0.0.0.0.0.1.1.1.1.1.2.2.2.1";

#[test]
fn pinned_funnel_race_schedule_stays_handled() {
    let _guard = funnel_flag_guard();
    let race_hits = AtomicU64::new(0);
    let result = model::replay(
        PINNED_FUNNEL_RACE_REPLAY,
        funnel_state,
        funnel_run,
        |s| {
            funnel_check(s);
            race_hits
                .fetch_add(s.funnel.served_then_won_lock(), Ordering::Relaxed);
        },
    );
    assert_eq!(result, Ok(()), "pinned counterexample schedule regressed");
    assert!(
        race_hits.load(Ordering::Relaxed) > 0,
        "pinned schedule no longer reaches the served-then-won-lock path"
    );
}

// ---------------------------------------------------------------------
// Total coverage: the four scenarios must explore >= 10,000 schedules.
// ---------------------------------------------------------------------

#[test]
fn total_explored_schedules_meet_the_floor() {
    // Each scenario test asserts its own per-scenario minimum; this
    // checks that those floors together clear the issue's 10,000-
    // schedule total, so weakening one of them cannot silently drop
    // overall coverage.
    //
    // A token through the compiled B(4) is three op points, not four:
    // the terminal word is balancer and counter in one `fetch_add`. At
    // the same preemption bound the traversal scenarios as first written
    // (two tokens a thread; K = 3) therefore shrank — 2.8k -> 0.6k,
    // 3.8k -> 0.5k schedules — and two tokens a thread never took a
    // terminal word past rank 0. They now run one or two tokens longer
    // (three a thread; K = 5), which both exercises rank >= 1 in every
    // schedule and restores the counts, so the floors stand as they
    // were. (Measured: ~5.3k + ~4.9k + ~13.5k + ~2.1k ≈ 26k schedules,
    // plus ~4.4k for the multi-wire batch; see EXPERIMENTS.md.)
    let floors = [2_000u64, 3_000, 10_000, 1_000];
    let total: u64 = floors.iter().sum();
    assert!(
        total >= 10_000,
        "per-scenario floors no longer reach the documented total"
    );
}


// ---------------------------------------------------------------------
// The n == 0 batch contract, proven rather than assumed: under the
// model every shim atomic op and lock acquisition is a scheduling
// point, so "an empty batch touches no shared state" is equivalent to
// "the execution has zero op points".
// ---------------------------------------------------------------------

#[test]
fn empty_batches_create_no_scheduling_points() {
    let stats = model::explore(
        1,
        0,
        || {
            let net = bitonic(4).expect("B(4) builds");
            (
                cnet_runtime::FetchAddCounter::new(),
                cnet_runtime::LockCounter::new(),
                SharedNetworkCounter::new(&net),
            )
        },
        |s, _tid| {
            assert!(s.0.next_batch_for(0, 0).is_empty());
            assert!(s.1.next_batch_for(0, 0).is_empty());
            assert!(s.2.next_batch_for(0, 0).is_empty());
        },
        |_s| {},
    );
    // The lone thread parks exactly once (its finish point); any atomic
    // fetch_add, lock acquisition, or balancer CAS would add op points.
    assert_eq!(
        stats.points, 1,
        "an empty batch must not touch an atomic or a lock"
    );
}

/// k = 1 through the batched path claims exactly the value `next_for`
/// would have: the two paths stay interchangeable under every
/// interleaving of a concurrent single-token caller.
#[test]
fn batch_of_one_is_next_for_under_all_schedules() {
    let stats = model::explore(
        2,
        2,
        || {
            let net = bitonic(4).expect("B(4) builds");
            (SharedNetworkCounter::new(&net), Mutex::new(Vec::new()))
        },
        |s, tid| {
            if tid == 0 {
                let batch = s.0.next_batch_for(0, 1);
                assert_eq!(batch.len(), 1);
                s.1.lock().unwrap().push(batch[0]);
            } else {
                let v = s.0.next_for(1);
                s.1.lock().unwrap().push(v);
            }
        },
        |s| {
            let mut values = s.1.lock().unwrap().clone();
            values.sort_unstable();
            assert_eq!(values, vec![0, 1]);
        },
    );
    eprintln!(
        "model_check: batch_of_one: {} schedules, {} points",
        stats.schedules, stats.points
    );
}

// ---------------------------------------------------------------------
// Elimination exchange: two threads, one token each, one slot. The
// partner pays the waiter out of a width-2 batched traversal, so the
// pair must land exactly the values {0, 1} — no value invented for the
// waiter, none lost when a retract races a claim. Every interleaving of
// the CAS protocol (offer, spin, retract-vs-claim, payment) is explored,
// including the tight race where the waiter's retract CAS fails because
// the partner just committed: the waiter is then *obligated* to take the
// payment, and exactly-once hinges on it.
// ---------------------------------------------------------------------

#[test]
fn elimination_exchange_is_exactly_once_under_all_schedules() {
    use cnet_runtime::EliminationCounter;
    // Reachability across schedules (std atomics: bookkeeping only).
    let eliminated_reached = AtomicU64::new(0);
    let fell_through_reached = AtomicU64::new(0);
    let stats = model::explore(
        2,
        3,
        || {
            let net = bitonic(2).expect("B(2) builds");
            (EliminationCounter::new(&net, 1), Mutex::new(Vec::new()))
        },
        |s, tid| {
            let v = s.0.next_for(tid);
            s.1.lock().unwrap().push(v);
        },
        |s| {
            let mut values = s.1.lock().unwrap().clone();
            values.sort_unstable();
            assert_eq!(values, vec![0, 1], "exchange must hand out exactly {{0, 1}}");
            let (eliminated, fell_through) = s.0.elimination_stats();
            assert_eq!(
                eliminated + fell_through,
                2,
                "every token is eliminated or falls through, never both or neither"
            );
            assert!(eliminated % 2 == 0, "eliminations happen in pairs");
            eliminated_reached.fetch_add(eliminated, Ordering::Relaxed);
            fell_through_reached.fetch_add(fell_through, Ordering::Relaxed);
        },
    );
    eprintln!(
        "model_check: elimination_exchange: {} schedules, {} points, depth {}",
        stats.schedules, stats.points, stats.max_depth
    );
    assert!(
        stats.schedules >= 500,
        "expected >= 500 schedules, got {}",
        stats.schedules
    );
    assert!(
        eliminated_reached.load(Ordering::Relaxed) > 0,
        "some schedule must exercise the elimination (pairing) path"
    );
    assert!(
        fell_through_reached.load(Ordering::Relaxed) > 0,
        "some schedule must exercise the toggle fallback path"
    );
}

// ---------------------------------------------------------------------
// Scenario 5: two recorder writers and two shard-stealing auditors —
// the parallel audit pipeline's steal path under all bounded schedules.
// ---------------------------------------------------------------------

struct StealState {
    rec: TraceRecorder,
    /// One monitor per shard, each owned (locked) by its stealer — the
    /// one-puller-per-shard contract, made explicit.
    monitors: [Mutex<cnet_core::trace::ShardMonitor>; 2],
    /// Every stolen event, for the precedence-soundness sweep.
    stolen: Mutex<Vec<cnet_core::trace::RawOp>>,
    seq: AtomicU64,
    spans: Mutex<HashMap<u64, (u64, u64)>>,
}

const STEAL_OPS: u64 = 2;

fn steal_state() -> StealState {
    StealState {
        rec: TraceRecorder::new(2, 4),
        monitors: [
            Mutex::new(cnet_core::trace::ShardMonitor::new(0)),
            Mutex::new(cnet_core::trace::ShardMonitor::new(1)),
        ],
        stolen: Mutex::new(Vec::new()),
        seq: AtomicU64::new(0),
        spans: Mutex::new(HashMap::new()),
    }
}

fn steal_pull(s: &StealState, shard: usize) {
    let mut mon = s.monitors[shard].lock().unwrap();
    s.rec.pull_shard(shard, |enter_ns, exit_ns, value| {
        let op = cnet_core::trace::RawOp { process: shard, enter_ns, exit_ns, value };
        s.stolen.lock().unwrap().push(op);
        mon.observe(op);
    });
}

fn steal_run(s: &StealState, tid: usize) {
    if tid < 2 {
        for i in 0..STEAL_OPS {
            let value = tid as u64 * 100 + i;
            let start = s.seq.fetch_add(1, Ordering::Relaxed);
            let end = s.seq.fetch_add(1, Ordering::Relaxed);
            s.spans.lock().unwrap().insert(value, (start, end));
            assert!(s.rec.record(tid, value), "ring must not overflow");
        }
        s.rec.flush(tid);
    } else {
        // Stealer `tid - 2` owns shard `tid - 2` and races its writer:
        // partial steals must observe only published, well-formed events.
        for _ in 0..2 {
            steal_pull(s, tid - 2);
        }
    }
}

fn steal_check(s: &StealState) {
    // Writers are quiescent here: settle and take the final frontiers,
    // exactly the post-shutdown merge the serve pipeline performs.
    let mut merged = cnet_core::trace::MergeAuditor::new(2);
    for shard in 0..2 {
        s.rec.flush(shard);
        steal_pull(s, shard);
        merged.ingest(s.monitors[shard].lock().unwrap().take_frontier(true));
    }
    merged.merge();
    assert_eq!(s.rec.dropped(), 0, "no schedule may overflow the ring");
    let total = 2 * STEAL_OPS as usize;
    assert_eq!(
        merged.operations(),
        total,
        "every recorded op reaches the merged auditor exactly once"
    );
    let observed: usize = merged.shard_stats().iter().map(|st| st.observed).sum();
    assert_eq!(observed, total, "per-shard coverage accounting is exact");
    // Per-shard streams are per-writer: program order survives the steal,
    // so the merged history must be sequentially consistent.
    assert!(
        merged.auditor().is_sequentially_consistent(),
        "stealing fabricated a same-process inversion"
    );
    // Soundness: any precedence the merged auditor could conclude from
    // the stolen intervals must be a true precedence — stealing early,
    // late, or mid-batch only ever widens, never fabricates.
    let stolen = s.stolen.lock().unwrap();
    let mut values: Vec<u64> = stolen.iter().map(|op| op.value).collect();
    values.sort_unstable();
    let expected: Vec<u64> =
        (0..2u64).flat_map(|w| (0..STEAL_OPS).map(move |i| w * 100 + i)).collect();
    assert_eq!(values, expected, "every op stolen exactly once");
    let spans = s.spans.lock().unwrap();
    for a in stolen.iter() {
        assert!(a.enter_ns <= a.exit_ns, "malformed stolen interval {a:?}");
        for b in stolen.iter() {
            // The monitors' strict precedence rule: exit before enter.
            if a.exit_ns < b.enter_ns {
                let (_, a_end) = spans[&a.value];
                let (b_start, _) = spans[&b.value];
                assert!(
                    a_end < b_start,
                    "steal fabricated a precedence: {} (true end {a_end}) \
                     stolen before {} (true start {b_start})",
                    a.value,
                    b.value
                );
            }
        }
    }
}

#[test]
fn parallel_steal_pipeline_is_exact_under_all_schedules() {
    let stats = model::explore(4, 2, steal_state, steal_run, steal_check);
    eprintln!(
        "model_check: steal_2w2s: {} schedules, {} points, depth {}",
        stats.schedules, stats.points, stats.max_depth
    );
    assert!(
        stats.schedules >= 2_000,
        "expected >= 2000 schedules, got {}",
        stats.schedules
    );
}
