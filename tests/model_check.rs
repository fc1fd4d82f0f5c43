//! Exhaustive bounded-interleaving model checking of the lock-free core.
//!
//! Built only with `--features model-check` (see `crates/bench/Cargo.toml`);
//! plain `cargo test` skips this target. Each scenario wraps a lock-free
//! algorithm from `cnet-runtime` in `cnet_util::model::explore`, which
//! enumerates *every* schedule of its logical threads up to a preemption
//! bound — the invariants here hold in all of them, not just the lucky
//! interleavings a stress test happens to sample.
//!
//! The scenarios:
//!   1. five traversal scenarios on the compiled engine — two threads of
//!      single tokens through B(4) (`traversal_b4`); a batch on one wire
//!      against single tokens (`batch_vs_sequential`); a batch spread over
//!      two wires against single tokens (`multi_wire_batch_vs_sequential`);
//!      singles and batches on the one fused terminal word of B(2)
//!      (`fused_word`); and a batch of one against a single token
//!      (`batch_of_one`), and the same kinds of traversal on two networks
//!      off the classic constructions (free-standing sinks, a CAS-path
//!      balancer). Each checks its outputs (values exactly `0..n`, the
//!      step property at quiescence) and the **refinement check** below;
//!   2. three-thread combining funnel — every caller exactly one value,
//!      none duplicated or lost, and the served-then-won-lock race both
//!      reachable and handled;
//!   3. two-writer/one-drainer trace recorder — drained intervals always
//!      contain the true operation, so widening never fabricates a
//!      precedence the monitors would rely on;
//!   4. two writers and two shard stealers — the parallel audit pipeline's
//!      steal path;
//!   5. empty batches create no scheduling point;
//!   6. seeded bugs — a broken funnel and a broken traversal are caught
//!      with a replay string.
//!
//! The refinement check: under `model-check` a `SharedNetworkCounter` logs
//! every claim its traversals make on a state word, in the order the claims
//! took effect (the log sits behind a `std` lock, so it adds no scheduling
//! point). After every explored schedule [`execution_of`] turns the log
//! into the Section 2.2 step sequence it claims to be — one `BAL` per token
//! per balancer in claim order, each token of a batch its own process
//! crossing each balancer with the rest of its batch back to back, a
//! terminal claim's `COUNT` right after its `BAL`, and every `COUNT`
//! carrying the value the counter handed that token — and
//! `cnet_sim::validate` must accept it. The fused terminal step and the
//! batched sweep are thereby checked to be schedules of the paper's model,
//! not argued to be.
//!
//! `cnet_topology::state::NetworkState` is the sequential oracle elsewhere
//! (`tests/compiled_equivalence.rs`); `has_step_property` checks the
//! quiescent counts the scenarios produce.
//!
//! Every scenario asserts its own schedule floor, a named constant; the
//! floors must total at least [`TOTAL_FLOOR`] (a compile-time check, see
//! `EXPERIMENTS.md`). Run with `--nocapture` to see the per-scenario
//! counts.

use cnet_core::trace::{EventMerger, OpEvent};
use cnet_runtime::counter::claims::{ClaimLog, Word};
use cnet_runtime::{combine, compiled};
use cnet_runtime::{
    CombiningFunnel, FetchAddCounter, ProcessCounter, SharedNetworkCounter, TraceRecorder,
};
use cnet_sim::validate::validate;
use cnet_sim::{ProcessId, Step, TimedExecution, TimedStep, TokenId, TokenRecord};
use cnet_topology::construct::bitonic;
use cnet_topology::ids::{BalancerId, SourceId, WireId};
use cnet_topology::network::WireEnd;
use cnet_topology::state::has_step_property;
use cnet_topology::Network;
use cnet_util::json::{self, ToJson, Value};
use cnet_util::model;
use std::collections::{HashMap, VecDeque};
// Bookkeeping for invariant checks deliberately uses std atomics and
// mutexes, NOT the shims: the model's threads are serialized, so these
// never block, and they must not add scheduling points of their own.
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, RwLock};

/// Seeded-bug tests flip process-wide flags (`model_bugs`); they take this
/// for writing, and every scenario a flag could reach takes it for
/// reading, so no clean scenario ever runs against a seeded bug.
static BUG_FLAGS: RwLock<()> = RwLock::new(());

fn clean_guard() -> std::sync::RwLockReadGuard<'static, ()> {
    BUG_FLAGS.read().unwrap_or_else(|e| e.into_inner())
}

fn seeded_guard() -> std::sync::RwLockWriteGuard<'static, ()> {
    BUG_FLAGS.write().unwrap_or_else(|e| e.into_inner())
}

// ---------------------------------------------------------------------
// The refinement check.
// ---------------------------------------------------------------------

/// A token of the rebuilt execution.
struct Token {
    traversal: usize,
    process: usize,
    input: usize,
    /// The wire it is on.
    wire: WireId,
    /// Its steps' positions in the step sequence; the last is its `COUNT`
    /// once `value` is set.
    steps: Vec<usize>,
    /// `(sink, value)` once it has counted.
    value: Option<(usize, u64)>,
}

/// The Section 2.2 execution of `net` a counter's claim log says it ran:
/// claims in the order they took effect, each the `BAL` steps of the
/// tokens it moved, back to back, by the round-robin ports the word's prior
/// value gives; a token off a terminal balancer takes its `COUNT` at once,
/// one at a free-standing sink at that counter's claim. Each `COUNT`
/// carries the value the traversal handed out for that sink, in order. The
/// `i`-th step happens at time `i`.
///
/// A single-token traversal's token belongs to its thread's process; every
/// token of a batch is a process of its own, since a batch's tokens are in
/// flight together.
///
/// # Errors
///
/// A claim no token can have made — on a word none of the traversal's
/// tokens waits at, or for another number of tokens than wait there — a
/// token that never counts, or a value no token of its traversal earned.
fn execution_of(net: &Network, log: &ClaimLog) -> Result<TimedExecution, String> {
    let w = net.fan_out();
    let mut tokens: Vec<Token> = Vec::new();
    // Per traversal: its tokens, and the values it handed out per sink.
    let mut of: Vec<Vec<usize>> = Vec::new();
    let mut handed: Vec<Vec<VecDeque<u64>>> = Vec::new();
    let mut threads = HashMap::new();
    let mut processes = 0;
    for (t, traversal) in log.traversals.iter().enumerate() {
        let single = traversal.entering.iter().map(|&(_, k)| k).sum::<usize>() == 1;
        let mut mine = Vec::new();
        for &(input, k) in &traversal.entering {
            for _ in 0..k {
                let process = if single {
                    *threads.entry(traversal.thread).or_insert_with(|| {
                        processes += 1;
                        processes - 1
                    })
                } else {
                    processes += 1;
                    processes - 1
                };
                mine.push(tokens.len());
                tokens.push(Token {
                    traversal: t,
                    process,
                    input,
                    wire: net.source_wire(SourceId(input)),
                    steps: Vec::new(),
                    value: None,
                });
            }
        }
        of.push(mine);
        let mut per_sink = vec![VecDeque::new(); w];
        for &v in &traversal.values {
            per_sink[v as usize % w].push_back(v);
        }
        handed.push(per_sink);
    }

    let mut steps: Vec<Step> = Vec::new();
    let mut count = |k: usize, tokens: &mut Vec<Token>, steps: &mut Vec<Step>, sink: usize| {
        let token = &mut tokens[k];
        let value = handed[token.traversal][sink].pop_front().ok_or_else(|| {
            format!(
                "traversal {} handed out no value for its token at sink {sink}",
                token.traversal
            )
        })?;
        token.steps.push(steps.len());
        token.value = Some((sink, value));
        steps.push(Step::Count { token: k as u32, sink: sink as u32 });
        Ok::<(), String>(())
    };
    // The round-robin position of every balancer, for batches that cross
    // one in whole rounds and leave its word untouched.
    let mut position = vec![0usize; net.size()];
    for claim in &log.claims {
        let t = claim.traversal;
        let waiting: Vec<usize> = of[t]
            .iter()
            .copied()
            .filter(|&k| {
                tokens[k].value.is_none()
                    && match (net.wire(tokens[k].wire).end, claim.word) {
                        (WireEnd::Balancer { balancer, .. }, Word::Balancer(b)) => {
                            balancer.index() == b
                        }
                        (WireEnd::Sink(sink), Word::Sink(j)) => sink.index() == j,
                        _ => false,
                    }
            })
            .collect();
        if waiting.len() != claim.tokens {
            return Err(format!(
                "traversal {t} claims {} token(s) at {:?}, but {} of its tokens wait there",
                claim.tokens,
                claim.word,
                waiting.len()
            ));
        }
        let b = match claim.word {
            Word::Balancer(b) => b,
            Word::Sink(j) => {
                for k in waiting {
                    count(k, &mut tokens, &mut steps, j)?;
                }
                continue;
            }
        };
        let balancer = net.balancer(BalancerId(b));
        let f = balancer.fan_out();
        let start = match claim.before {
            Some(before) => (before % f as u64) as usize,
            None if claim.tokens % f == 0 => position[b],
            None => return Err(format!("traversal {t} crosses balancer {b} untouched")),
        };
        position[b] = (start + claim.tokens) % f;
        let terminal =
            balancer.outputs().iter().all(|&wire| matches!(net.wire(wire).end, WireEnd::Sink(_)));
        for (i, k) in waiting.into_iter().enumerate() {
            let WireEnd::Balancer { port: in_port, .. } = net.wire(tokens[k].wire).end else {
                unreachable!("a waiting token is on a balancer's input");
            };
            let out_port = (start + i) % f;
            tokens[k].steps.push(steps.len());
            tokens[k].wire = balancer.output(out_port);
            steps.push(Step::Bal {
                token: k as u32,
                balancer: b as u32,
                in_port: in_port as u16,
                out_port: out_port as u16,
            });
            if let (true, WireEnd::Sink(sink)) = (terminal, net.wire(tokens[k].wire).end) {
                count(k, &mut tokens, &mut steps, sink.index())?;
            }
        }
    }

    let mut records = Vec::with_capacity(tokens.len());
    for (k, token) in tokens.iter().enumerate() {
        let Some((sink, value)) = token.value else {
            return Err(format!("a token of traversal {} never counts", token.traversal));
        };
        let (enter_seq, exit_seq) = (token.steps[0], token.steps[token.steps.len() - 1]);
        records.push(TokenRecord {
            token: TokenId(k),
            process: ProcessId(token.process),
            input: token.input,
            enter_time: enter_seq as f64,
            exit_time: exit_seq as f64,
            enter_seq,
            exit_seq,
            sink,
            value,
        });
    }
    if let Some(t) = handed.iter().position(|sinks| sinks.iter().any(|q| !q.is_empty())) {
        return Err(format!("traversal {t} handed out a value none of its tokens earned"));
    }
    let steps: Vec<TimedStep> =
        steps.into_iter().enumerate().map(|(i, step)| TimedStep { time: i as f64, step }).collect();
    // `TimedExecution` is built by the simulator only; its JSON form is
    // public.
    let exec = Value::Object(vec![
        ("depth".to_string(), net.depth().to_json()),
        ("fan_out".to_string(), w.to_json()),
        ("steps".to_string(), steps.to_json()),
        ("records".to_string(), records.to_json()),
    ]);
    json::from_value(&exec).map_err(|e| e.to_string())
}

/// The refinement check: the counter's claim log is a Section 2.2
/// execution of `net` that `cnet_sim::validate` accepts, and the values
/// logged are the values the callers collected.
fn refines(net: &Network, counter: &SharedNetworkCounter, values: &[u64]) -> Result<(), String> {
    let log = counter.claim_log();
    let mut logged: Vec<u64> = log.traversals.iter().flat_map(|t| t.values.clone()).collect();
    let mut collected = values.to_vec();
    logged.sort_unstable();
    collected.sort_unstable();
    if logged != collected {
        return Err(format!("logged values {logged:?}, collected {collected:?}"));
    }
    let exec = execution_of(net, &log)?;
    validate(net, &exec).map(|_| ()).map_err(|e| e.to_string())
}

// ---------------------------------------------------------------------
// The traversal scenarios: a compiled counter and the values its callers
// collected.
// ---------------------------------------------------------------------

struct CounterState {
    net: Network,
    counter: SharedNetworkCounter,
    values: Mutex<Vec<u64>>,
}

fn counter_state(w: usize) -> CounterState {
    let net = bitonic(w).expect("B(w) builds");
    let counter = SharedNetworkCounter::new(&net);
    CounterState { net, counter, values: Mutex::new(Vec::new()) }
}

/// The output checks: the callers got exactly `0..n`, and the quiescent
/// counts have the step property.
fn outputs_check(s: &CounterState) {
    let mut values = s.values.lock().unwrap().clone();
    values.sort_unstable();
    let n = values.len() as u64;
    assert_eq!(values, (0..n).collect::<Vec<_>>(), "values must be exactly 0..n");
    let counts = s.counter.output_counts();
    assert!(has_step_property(&counts), "quiescent counts {counts:?} violate the step property");
    assert_eq!(s.counter.tokens_counted(), n);
}

/// The refinement check, as a scenario check.
fn refinement_check(s: &CounterState) {
    if let Err(e) = refines(&s.net, &s.counter, &s.values.lock().unwrap()) {
        panic!("no Section 2.2 execution: {e}");
    }
}

fn traversal_check(s: &CounterState) {
    outputs_check(s);
    refinement_check(s);
}

// ---------------------------------------------------------------------
// Scenario 1: two threads, three tokens each, through a compiled B(4).
// Three, not two: each of B(4)'s two terminal words then takes three
// arrivals, so some token in every schedule is handed rank 1 — with two
// tokens a thread no terminal word would ever leave rank 0.
// ---------------------------------------------------------------------

const TRAVERSAL_THREADS: usize = 2;
const TRAVERSAL_PER_THREAD: usize = 3;
const TRAVERSAL_B4_FLOOR: u64 = 2_000;

fn traversal_b4_state() -> CounterState {
    counter_state(4)
}

fn traversal_b4_run(s: &CounterState, tid: usize) {
    for _ in 0..TRAVERSAL_PER_THREAD {
        let v = s.counter.increment_from(tid);
        s.values.lock().unwrap().push(v);
    }
}

#[test]
fn traversal_b4_step_property_under_all_schedules() {
    let _clean = clean_guard();
    let stats = model::explore(TRAVERSAL_THREADS, 5, traversal_b4_state, traversal_b4_run, |s| {
        traversal_check(s);
        assert_eq!(s.values.lock().unwrap().len(), TRAVERSAL_THREADS * TRAVERSAL_PER_THREAD);
    });
    eprintln!(
        "model_check: traversal_b4: {} schedules, {} points, depth {}",
        stats.schedules, stats.points, stats.max_depth
    );
    assert!(
        stats.schedules >= TRAVERSAL_B4_FLOOR,
        "expected >= {TRAVERSAL_B4_FLOOR} schedules, got {}",
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

const FUNNEL_FLOOR: u64 = 3_000;

#[test]
fn funnel_exactly_once_and_race_reachable_under_all_schedules() {
    let _guard = clean_guard();
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
        stats.schedules >= FUNNEL_FLOOR,
        "expected >= {FUNNEL_FLOOR} schedules, got {}",
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
    let expected: Vec<u64> =
        (0..WRITERS as u64).flat_map(|w| (0..OPS_PER_WRITER).map(move |i| w * 100 + i)).collect();
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

const RECORDER_FLOOR: u64 = 10_000;

#[test]
fn recorder_drained_intervals_contain_true_ops_under_all_schedules() {
    let stats = model::explore(WRITERS + 1, 2, recorder_state, recorder_run, recorder_check);
    eprintln!(
        "model_check: recorder_2w1d: {} schedules, {} points, depth {}",
        stats.schedules, stats.points, stats.max_depth
    );
    assert!(
        stats.schedules >= RECORDER_FLOOR,
        "expected >= {RECORDER_FLOOR} schedules, got {}",
        stats.schedules
    );
}

// ---------------------------------------------------------------------
// The batched traversal vs. sequential traversals.
// ---------------------------------------------------------------------

const BATCH_K: usize = 5;
const BATCH_VS_SEQUENTIAL_FLOOR: u64 = 1_000;

fn batch_vs_sequential_run(s: &CounterState, tid: usize) {
    if tid == 0 {
        // One width-K batched traversal: at most one atomic per balancer
        // for the whole batch.
        let mut out = Vec::new();
        s.counter.increment_batch_from(0, BATCH_K, &mut Vec::new(), &mut out);
        assert_eq!(out.len(), BATCH_K);
        s.values.lock().unwrap().extend(out);
    } else {
        // K sequential single-token traversals racing it, three op points
        // each.
        for _ in 0..BATCH_K {
            let v = s.counter.increment_from(1);
            s.values.lock().unwrap().push(v);
        }
    }
}

#[test]
fn batched_traversal_equals_sequential_multiset_under_all_schedules() {
    let _clean = clean_guard();
    let stats = model::explore(
        2,
        5,
        || counter_state(4),
        batch_vs_sequential_run,
        |s| {
            // The batch and the singles claim the same multiset as 2K
            // sequential traversals would.
            traversal_check(s);
            assert_eq!(s.values.lock().unwrap().len(), 2 * BATCH_K);
        },
    );
    eprintln!(
        "model_check: batch_vs_sequential: {} schedules, {} points, depth {}",
        stats.schedules, stats.points, stats.max_depth
    );
    assert!(
        stats.schedules >= BATCH_VS_SEQUENTIAL_FLOOR,
        "expected >= {BATCH_VS_SEQUENTIAL_FLOOR} schedules, got {}",
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
    let _clean = clean_guard();
    let stats = model::explore(
        2,
        5,
        || counter_state(4),
        |s, tid| {
            if tid == 0 {
                let mut out = Vec::new();
                s.counter.increment_counts_from(&ENTERING, &mut Vec::new(), &mut out);
                assert_eq!(out.len(), BATCH);
                s.values.lock().unwrap().extend(out);
            } else {
                for _ in 0..BATCH_K {
                    let v = s.counter.increment_from(1);
                    s.values.lock().unwrap().push(v);
                }
            }
        },
        |s| {
            traversal_check(s);
            assert_eq!(s.values.lock().unwrap().len(), BATCH + BATCH_K);
        },
    );
    eprintln!(
        "model_check: multi_wire_batch_vs_sequential: {} schedules, {} points, depth {}",
        stats.schedules, stats.points, stats.max_depth
    );
    assert!(
        stats.schedules >= MULTI_WIRE_FLOOR,
        "expected >= {MULTI_WIRE_FLOOR} schedules, got {}",
        stats.schedules
    );
}

const MULTI_WIRE_FLOOR: u64 = 3_000;

/// Four op points in all (2 + 1 + 1), two of them ordered within one
/// thread: 4!/2! = 12 interleavings, all within the preemption bound.
const FUSED_WORD_SCHEDULES: u64 = 12;

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
    let _clean = clean_guard();
    let stats = model::explore(
        3,
        4,
        || counter_state(2),
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
            // Runs of arrivals claimed on one word must tile 0..n.
            traversal_check(s);
            let n = SINGLES + BATCH + EVEN.iter().sum::<usize>();
            assert_eq!(s.values.lock().unwrap().len(), n);
        },
    );
    eprintln!(
        "model_check: fused_word: {} schedules, {} points, depth {}",
        stats.schedules, stats.points, stats.max_depth
    );
    assert_eq!(stats.schedules, FUSED_WORD_SCHEDULES);
}

/// The refinement check off the classic constructions: a B(4) with a
/// balancer appended across outputs 1 and 2, so two balancers have mixed
/// outputs and sinks 0 and 3 own counter words, and a fan-3 balancer over
/// a fan-2 one, so the interior balancer takes the CAS path and sink 2 owns
/// a counter. Single tokens, a batch on one wire and a batch over every
/// wire race on each; every run must be a Section 2.2 execution.
#[test]
fn irregular_networks_refine_the_model_under_all_schedules() {
    use cnet_topology::builder::LayeredBuilder;
    use cnet_topology::construct::append_adjacent_balancer;
    let _clean = clean_guard();
    let mut fan3 = LayeredBuilder::new(3);
    fan3.balancer(&[0, 1, 2]);
    fan3.balancer(&[0, 1]);
    let appended = append_adjacent_balancer(&bitonic(4).expect("B(4) builds"), 1);
    for net in [appended.expect("appends"), fan3.finish().expect("builds")] {
        let state = || {
            let counter = SharedNetworkCounter::new(&net);
            CounterState { net: net.clone(), counter, values: Mutex::new(Vec::new()) }
        };
        let last = net.fan_in() - 1;
        let stats = model::explore(
            2,
            4,
            state,
            |s, tid| {
                let mut out = Vec::new();
                if tid == 0 {
                    out.push(s.counter.increment_from(0));
                    s.counter.increment_batch_from(last, 3, &mut Vec::new(), &mut out);
                } else {
                    let every = vec![1; net.fan_in()];
                    s.counter.increment_counts_from(&every, &mut Vec::new(), &mut out);
                    out.push(s.counter.increment_from(last));
                }
                s.values.lock().unwrap().extend(out);
            },
            traversal_check,
        );
        eprintln!(
            "model_check: irregular {net}: {} schedules, {} points, depth {}",
            stats.schedules, stats.points, stats.max_depth
        );
        assert!(
            stats.schedules >= IRREGULAR_FLOOR,
            "expected >= {IRREGULAR_FLOOR} schedules, got {}",
            stats.schedules
        );
    }
}

const IRREGULAR_FLOOR: u64 = 100;

// ---------------------------------------------------------------------
// Seeded bugs: the checker must catch a deliberately broken funnel and a
// deliberately broken traversal.
// ---------------------------------------------------------------------

/// Sets a seeded-bug flag, and restores it even if the test panics.
struct BugFlagGuard(&'static AtomicBool);

impl BugFlagGuard {
    fn seed(flag: &'static AtomicBool) -> BugFlagGuard {
        flag.store(true, Ordering::SeqCst);
        BugFlagGuard(flag)
    }
}

impl Drop for BugFlagGuard {
    fn drop(&mut self) {
        self.0.store(false, Ordering::SeqCst);
    }
}

/// A fused terminal step that hands a single token its sibling port's
/// value (`compiled::model_bugs::SIBLING_SINK`). In `traversal_b4` every
/// schedule ends with four arrivals at one terminal word and two at the
/// other, so the swapped values are still exactly `0..6` and the words
/// still read a step: the output checks pass the bug under every schedule.
/// The refinement check fails it on the first one.
#[test]
fn seeded_sibling_sink_bug_is_caught_only_by_the_refinement_check() {
    let _guard = seeded_guard();
    let explore = |check: fn(&CounterState)| {
        let (threads, state, run) = (TRAVERSAL_THREADS, traversal_b4_state, traversal_b4_run);
        model::try_explore(threads, 5, state, run, check)
    };
    let (outputs, refinement) = {
        let _bug = BugFlagGuard::seed(&compiled::model_bugs::SIBLING_SINK);
        (explore(outputs_check), explore(refinement_check))
    };
    let outputs = outputs.expect("the output checks cannot see the sibling-sink bug");
    let failure = refinement.expect_err("the refinement check must catch the sibling-sink bug");
    eprintln!(
        "model_check: seeded sibling-sink bug passed the output checks in all {} schedules; \
         the refinement check caught it after {} clean schedules\n  message: {}\n  replay:  {}",
        outputs.schedules, failure.schedules, failure.message, failure.replay
    );
    assert!(outputs.schedules >= TRAVERSAL_B4_FLOOR);
    assert!(failure.message.contains("no Section 2.2 execution"), "{}", failure.message);
    assert!(failure.replay.starts_with("v1:2:5:"));
    {
        let _bug = BugFlagGuard::seed(&compiled::model_bugs::SIBLING_SINK);
        assert!(
            model::replay(&failure.replay, traversal_b4_state, traversal_b4_run, refinement_check)
                .is_err(),
            "replay must reproduce the seeded failure"
        );
    }
    assert_eq!(
        model::replay(&failure.replay, traversal_b4_state, traversal_b4_run, traversal_check),
        Ok(()),
        "the correct traversal must pass the counterexample schedule"
    );
}

#[test]
fn seeded_missing_recheck_bug_is_caught_with_replay_string() {
    let _guard = seeded_guard();
    let failure = {
        let _bug = BugFlagGuard::seed(&combine::model_bugs::SKIP_SERVED_RECHECK);
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
        let _bug = BugFlagGuard::seed(&combine::model_bugs::SKIP_SERVED_RECHECK);
        assert!(
            model::replay(&failure.replay, funnel_state, funnel_run, funnel_check).is_err(),
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
const PINNED_FUNNEL_RACE_REPLAY: &str = "v1:3:2:0.0.0.0.0.0.0.0.0.0.0.0.1.1.1.1.1.2.2.2.1";

#[test]
fn pinned_funnel_race_schedule_stays_handled() {
    let _guard = clean_guard();
    let race_hits = AtomicU64::new(0);
    let result = model::replay(PINNED_FUNNEL_RACE_REPLAY, funnel_state, funnel_run, |s| {
        funnel_check(s);
        race_hits.fetch_add(s.funnel.served_then_won_lock(), Ordering::Relaxed);
    });
    assert_eq!(result, Ok(()), "pinned counterexample schedule regressed");
    assert!(
        race_hits.load(Ordering::Relaxed) > 0,
        "pinned schedule no longer reaches the served-then-won-lock path"
    );
}

// ---------------------------------------------------------------------
// Total coverage: the per-scenario floors must add up.
// ---------------------------------------------------------------------

/// What the scenarios' floors must add up to (see EXPERIMENTS.md).
///
/// A token through the compiled B(4) is three op points, not four: the
/// terminal word is balancer and counter in one `fetch_add`. At the same
/// preemption bound the traversal scenarios as first written (two tokens a
/// thread; K = 3) therefore shrank — 2.8k -> 0.6k, 3.8k -> 0.5k schedules —
/// and two tokens a thread never took a terminal word past rank 0. They now
/// run one or two tokens longer (three a thread; K = 5), which both
/// exercises rank >= 1 in every schedule and restores the counts, so the
/// floors stand as they were.
const TOTAL_FLOOR: u64 = 10_000;

// Every scenario asserts its own floor; lowering any of them far enough
// fails the build here.
const _: () = assert!(
    TRAVERSAL_B4_FLOOR
        + FUNNEL_FLOOR
        + RECORDER_FLOOR
        + BATCH_VS_SEQUENTIAL_FLOOR
        + MULTI_WIRE_FLOOR
        + FUSED_WORD_SCHEDULES
        + BATCH_OF_ONE_SCHEDULES
        + STEAL_FLOOR
        + IRREGULAR_FLOOR
        >= TOTAL_FLOOR
);

// ---------------------------------------------------------------------
// The n == 0 batch contract, proven rather than assumed: under the
// model every shim atomic op and lock acquisition is a scheduling
// point, so "an empty batch touches no shared state" is equivalent to
// "the execution has zero op points".
// ---------------------------------------------------------------------

#[test]
fn empty_batches_create_no_scheduling_points() {
    let _clean = clean_guard();
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
    assert_eq!(stats.points, 1, "an empty batch must not touch an atomic or a lock");
}

/// Two op points, one per thread, each with a choice of who goes first at
/// the two balancers they share.
const BATCH_OF_ONE_SCHEDULES: u64 = 14;

/// k = 1 through the batched path claims exactly the value `next_for`
/// would have: the two paths stay interchangeable under every
/// interleaving of a concurrent single-token caller.
#[test]
fn batch_of_one_is_next_for_under_all_schedules() {
    let _clean = clean_guard();
    let stats = model::explore(
        2,
        2,
        || counter_state(4),
        |s, tid| {
            if tid == 0 {
                let batch = s.counter.next_batch_for(0, 1);
                assert_eq!(batch.len(), 1);
                s.values.lock().unwrap().push(batch[0]);
            } else {
                let v = s.counter.next_for(1);
                s.values.lock().unwrap().push(v);
            }
        },
        |s| {
            traversal_check(s);
            assert_eq!(s.values.lock().unwrap().len(), 2);
        },
    );
    eprintln!("model_check: batch_of_one: {} schedules, {} points", stats.schedules, stats.points);
    assert_eq!(stats.schedules, BATCH_OF_ONE_SCHEDULES);
}

// ---------------------------------------------------------------------
// Scenario 4: two recorder writers and two shard-stealing auditors —
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

const STEAL_FLOOR: u64 = 2_000;

#[test]
fn parallel_steal_pipeline_is_exact_under_all_schedules() {
    let stats = model::explore(4, 2, steal_state, steal_run, steal_check);
    eprintln!(
        "model_check: steal_2w2s: {} schedules, {} points, depth {}",
        stats.schedules, stats.points, stats.max_depth
    );
    assert!(
        stats.schedules >= STEAL_FLOOR,
        "expected >= {STEAL_FLOOR} schedules, got {}",
        stats.schedules
    );
}
