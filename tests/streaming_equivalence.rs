//! The audit kernel against the definitions it implements, and the batch
//! checkers built on it against brute-force quadratic oracles.
//!
//! `StreamingAuditor` is the one consistency checker: the batch functions
//! in `cnet_core::consistency`, `cnet_core::fractions` and
//! `cnet_core::audit` are each one enter-ordered pass of it. Its reference
//! here is [`definitions`]: every event compared with every event pushed
//! before it, the Section 2.4 / 5.1 predicates and the QQC lateness read
//! straight off the paper's wording, sharing no code with the kernel. The
//! checks run on arbitrary operation sets, on merged recorder-shaped
//! streams, and on the adversarial executions produced by the Theorem 3.2
//! transformation (`cnet_sim::transform::desequentialize`).
//!
//! Failing seeds are logged by the harness; replay with
//! `CNET_PROPTEST_SEED=<seed>`.

use cnet_core::consistency::{
    find_linearizability_violation, find_sequential_consistency_violation, is_linearizable,
    is_sequentially_consistent, is_sequentially_consistent_for, Violation,
};
use cnet_core::fractions::{
    non_linearizability_fraction, non_linearizable_ops, non_sequential_consistency_fraction,
    non_sequentially_consistent_ops,
};
use cnet_core::op::{op, Op};
use cnet_core::trace::{
    enter_order, stream_execution, EventFlags, EventMerger, MergeAuditor, OpEvent, RawOp,
    ShardFrontier, ShardMonitor,
};
use cnet_core::StreamingAuditor;
use cnet_sim::engine::run;
use cnet_sim::transform::desequentialize;
use cnet_sim::workload::{generate, WorkloadConfig};
use cnet_topology::construct::bitonic;
use cnet_util::hist::LatencyHistogram;
use cnet_util::proptest::prelude::*;

/// Random operation sets: arbitrary processes, overlapping integer-ns
/// intervals, and values drawn from a small range so collisions and
/// inversions are common.
fn random_ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec((0usize..5, 0u64..600, 0u64..200, 0u64..30), 0..48).prop_map(|raw| {
        raw.into_iter()
            .enumerate()
            .map(|(k, (process, enter_ns, duration, value))| Op {
                process,
                enter_ns,
                enter_seq: k,
                exit_ns: enter_ns + duration,
                exit_seq: k,
                value,
            })
            .collect()
    })
}

/// Brute-force oracle: some op completely precedes another with a larger
/// value.
fn quadratic_non_linearizable(ops: &[Op]) -> bool {
    ops.iter().any(|a| ops.iter().any(|b| a.completely_precedes(b) && a.value > b.value))
}

/// Brute-force oracle: some *same-process* op is followed, in per-process
/// program order (enter key), by an op with a smaller value. Real processes
/// are sequential, so enter order *is* program order; random test data may
/// make a process overlap itself, which is why this deliberately does not
/// require `completely_precedes`.
fn quadratic_non_sequentially_consistent(ops: &[Op]) -> bool {
    ops.iter().any(|a| {
        ops.iter()
            .any(|b| a.process == b.process && a.enter_key() < b.enter_key() && a.value > b.value)
    })
}

/// `ops` in enter order: the stream the kernel is fed.
fn in_enter_order(ops: &[Op]) -> Vec<Op> {
    enter_order(ops).into_iter().map(|i| ops[i]).collect()
}

/// Streams `ops` in enter order through a fresh kernel.
fn stream(ops: &[Op]) -> StreamingAuditor {
    let mut auditor = StreamingAuditor::new();
    for ev in in_enter_order(ops) {
        auditor.push(&ev);
    }
    auditor
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// On arbitrary operation sets, the streaming verdicts match the batch
    /// sweeps, and both match the quadratic oracles.
    #[test]
    fn streaming_monitors_match_batch_sweeps(ops in random_ops()) {
        let auditor = stream(&ops);
        let oracle_lin = !quadratic_non_linearizable(&ops);
        prop_assert_eq!(auditor.is_linearizable(), oracle_lin);
        prop_assert_eq!(is_linearizable(&ops), oracle_lin);
        prop_assert_eq!(find_linearizability_violation(&ops).is_none(), oracle_lin);
        let oracle_sc = !quadratic_non_sequentially_consistent(&ops);
        prop_assert_eq!(auditor.is_sequentially_consistent(), oracle_sc);
        prop_assert_eq!(is_sequentially_consistent(&ops), oracle_sc);
        prop_assert_eq!(find_sequential_consistency_violation(&ops).is_none(), oracle_sc);
    }

    /// Batch violation witnesses index the original slice and are real
    /// violations of the claimed kind.
    #[test]
    fn batch_witnesses_are_genuine(ops in random_ops()) {
        if let Some(v) = find_linearizability_violation(&ops) {
            prop_assert!(ops[v.earlier].completely_precedes(&ops[v.later]));
            prop_assert!(ops[v.earlier].value > ops[v.later].value);
        }
        if let Some(v) = find_sequential_consistency_violation(&ops) {
            prop_assert_eq!(ops[v.earlier].process, ops[v.later].process);
            // Program order, not real-time precedence: see the SC oracle.
            prop_assert!(ops[v.earlier].enter_key() < ops[v.later].enter_key());
            prop_assert!(ops[v.earlier].value > ops[v.later].value);
        }
    }

    /// The batch Section 5.1 token sets are the slice indices the
    /// definitions pick, and the streamed counts and fractions agree.
    #[test]
    fn streaming_fractions_match_batch_fractions(ops in random_ops()) {
        let picked = |bad: fn(&Op, &Op) -> bool| -> Vec<usize> {
            (0..ops.len()).filter(|&j| ops.iter().any(|a| bad(a, &ops[j]))).collect()
        };
        let nl = picked(|a, b| a.completely_precedes(b) && a.value > b.value);
        let nsc = picked(|a, b| {
            a.process == b.process && a.enter_key() < b.enter_key() && a.value > b.value
        });
        prop_assert_eq!(&non_linearizable_ops(&ops), &nl);
        prop_assert_eq!(&non_sequentially_consistent_ops(&ops), &nsc);
        let auditor = stream(&ops);
        prop_assert_eq!(auditor.operations(), ops.len());
        prop_assert_eq!(auditor.non_linearizable(), nl.len());
        prop_assert_eq!(auditor.non_sequentially_consistent(), nsc.len());
        let n = ops.len().max(1) as f64;
        prop_assert_eq!(non_linearizability_fraction(&ops), nl.len() as f64 / n);
        prop_assert_eq!(non_sequential_consistency_fraction(&ops), nsc.len() as f64 / n);
    }

    /// Theorem 3.2 adversarial permutations: when the transformation
    /// applies, the streamed verdicts on the transformed execution agree
    /// with the batch sweeps, and the transformed run is indeed not
    /// sequentially consistent.
    #[test]
    fn adversarial_transforms_agree_end_to_end(
        lgw in 1usize..3,
        seed in 0u64..400,
        ratio in 4.0f64..24.0,
    ) {
        let net = bitonic(1 << lgw).unwrap();
        let cfg = WorkloadConfig {
            processes: 4,
            tokens_per_process: 3,
            c_min: 0.5,
            c_max: 0.5 * ratio,
            local_delay: 0.0,
            start_spread: 1.0,
        };
        let specs = generate(&net, &cfg, seed);
        let exec = run(&net, &specs).unwrap();
        // Only non-linearizable executions (with slack) transform; skip the
        // rest — the unconditional agreement is covered above.
        let Ok(outcome) = desequentialize(&net, &specs, &exec) else { return Ok(()) };
        let twisted = run(&net, &outcome.specs).unwrap();
        let ops = Op::from_execution(&twisted);
        let mut auditor = StreamingAuditor::new();
        let n = stream_execution(&twisted, &mut auditor);
        prop_assert_eq!(n, ops.len());
        prop_assert_eq!(auditor.operations(), ops.len());
        prop_assert_eq!(auditor.is_linearizable(), is_linearizable(&ops));
        prop_assert_eq!(
            auditor.is_sequentially_consistent(),
            is_sequentially_consistent(&ops)
        );
        prop_assert!((auditor.f_nl() - non_linearizability_fraction(&ops)).abs() < 1e-12);
        prop_assert!((auditor.f_nsc() - non_sequential_consistency_fraction(&ops)).abs() < 1e-12);
        // The whole point of the construction:
        prop_assert!(!auditor.is_sequentially_consistent());
    }
}

/// Random per-shard streams with nondecreasing enter stamps — the shape
/// the recorder's rings actually produce — plus a seed that drives the
/// chunking and interleaving of the sharded pipeline.
fn random_shard_streams() -> impl Strategy<Value = Vec<Vec<cnet_core::trace::RawOp>>> {
    prop::collection::vec(prop::collection::vec((0u64..50, 0u64..40, 0u64..200), 0..40), 1..5)
        .prop_map(|raw| {
            raw.into_iter()
                .enumerate()
                .map(|(shard, stream)| {
                    let mut t = 0u64;
                    stream
                        .into_iter()
                        .map(|(delta, duration, value)| {
                            t += delta;
                            cnet_core::trace::RawOp {
                                process: shard,
                                enter_ns: t,
                                exit_ns: t + duration,
                                value,
                            }
                        })
                        .collect()
                })
                .collect()
        })
}

/// A xorshift stream from a nonzero seed.
fn xorshift(mut x: u64) -> impl FnMut() -> u64 {
    move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    }
}

/// The sequential reference: whole streams, one merger, one drain.
fn sequential_audit(streams: &[Vec<RawOp>]) -> StreamingAuditor {
    let mut merger = EventMerger::new(streams.len());
    for (shard, stream) in streams.iter().enumerate() {
        for &op in stream {
            merger.push(shard, op);
        }
        merger.finish(shard);
    }
    let mut reference = StreamingAuditor::new();
    merger.drain_into(&mut reference);
    reference
}

/// Folds per-shard streams into a `MergeAuditor` one frontier at a time:
/// shards in a xorshift-shuffled order, each cut at xorshift-chosen
/// boundaries, with empty frontiers and extra `merge` calls in between.
/// `frontier(shard, chunk, finished)` makes the frontier that carries a
/// chunk of a shard's stream (an empty chunk: an empty frontier).
fn fold_frontiers(
    streams: &[Vec<RawOp>],
    seed: u64,
    mut frontier: impl FnMut(usize, &[RawOp], bool) -> ShardFrontier,
) -> MergeAuditor {
    let mut rng = xorshift(seed);
    let mut cursors = vec![0usize; streams.len()];
    let mut merged = MergeAuditor::new(streams.len());
    loop {
        let alive: Vec<usize> =
            (0..streams.len()).filter(|&s| cursors[s] < streams[s].len()).collect();
        if alive.is_empty() {
            break;
        }
        let s = alive[(rng() as usize) % alive.len()];
        match rng() % 4 {
            0 => {
                merged.ingest(frontier(s, &[], false));
            }
            1 => {
                merged.merge();
            }
            _ => {}
        }
        let end = cursors[s] + 1 + (rng() as usize) % (streams[s].len() - cursors[s]);
        let finished = end == streams[s].len();
        merged.ingest(frontier(s, &streams[s][cursors[s]..end], finished));
        cursors[s] = end;
    }
    for (shard, stream) in streams.iter().enumerate() {
        if stream.is_empty() {
            merged.finish_shard(shard);
        }
    }
    merged
}

/// The merged verdict is bit-identical to the reference's (the summary
/// covers ops, both violation counts, both fractions, and the whole QQC
/// lateness profile), and per-shard coverage is exact.
fn same_verdict(
    merged: &mut MergeAuditor,
    reference: &StreamingAuditor,
    streams: &[Vec<RawOp>],
) -> Result<(), String> {
    prop_assert_eq!(merged.summary(), reference.summary());
    let audited = merged.auditor();
    prop_assert_eq!(audited.operations(), reference.operations());
    prop_assert_eq!(audited.is_linearizable(), reference.is_linearizable());
    prop_assert_eq!(audited.is_sequentially_consistent(), reference.is_sequentially_consistent());
    prop_assert_eq!(merged.buffered(), 0);
    for (stats, stream) in merged.shard_stats().iter().zip(streams) {
        prop_assert_eq!(stats.observed, stream.len());
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The parallel audit pipeline's load-bearing property: shard
    /// monitors chunked at arbitrary frontier boundaries and merged in an
    /// arbitrary interleaving, with empty frontiers and extra merges
    /// between them, produce a verdict **bit-identical** to the
    /// sequential merger + auditor on the same per-shard streams, and no
    /// event falls between frontiers. So do frontiers as a wire peer may
    /// send them, with regressing enters and exits below their enters:
    /// their verdict is the sequential one on the streams clamped by hand.
    /// Failing seeds are logged by the harness; replay with
    /// `CNET_PROPTEST_SEED=<seed>`.
    #[test]
    fn merge_auditor_matches_the_sequential_auditor(
        streams in random_shard_streams(),
        seed in 1u64..u64::MAX,
    ) {
        let reference = sequential_audit(&streams);
        let mut monitors: Vec<ShardMonitor> = (0..streams.len()).map(ShardMonitor::new).collect();
        let mut merged = fold_frontiers(&streams, seed, |shard, chunk, finished| {
            chunk.iter().for_each(|&op| monitors[shard].observe(op));
            monitors[shard].take_frontier(finished)
        });
        same_verdict(&mut merged, &reference, &streams)?;

        // Wire-style frontiers, built by hand and ingested directly: a
        // quarter of the enters step back, a quarter of the exits fall
        // below their enter.
        let mut rng = xorshift(seed.rotate_left(32) | 1);
        let rough: Vec<Vec<RawOp>> = streams
            .iter()
            .map(|stream| {
                stream
                    .iter()
                    .map(|&op| {
                        let mut op = op;
                        if rng().is_multiple_of(4) {
                            op.enter_ns = op.enter_ns.saturating_sub(rng() % 60);
                        }
                        if rng().is_multiple_of(4) {
                            op.exit_ns = op.enter_ns.saturating_sub(rng() % 10);
                        }
                        op
                    })
                    .collect()
            })
            .collect();
        let clamped: Vec<Vec<RawOp>> = rough
            .iter()
            .map(|stream| {
                let mut floor = 0;
                stream
                    .iter()
                    .map(|&op| {
                        floor = floor.max(op.enter_ns);
                        RawOp { enter_ns: floor, exit_ns: op.exit_ns.max(floor), ..op }
                    })
                    .collect()
            })
            .collect();
        let reference = sequential_audit(&clamped);
        let mut merged = fold_frontiers(&rough, seed, |shard, chunk, finished| ShardFrontier {
            shard,
            ops: chunk.to_vec(),
            watermark: chunk.last().map(|op| op.enter_ns),
            finished,
            ..ShardFrontier::default()
        });
        same_verdict(&mut merged, &reference, &rough)?;
    }
}

/// How an operation's value is made from its place `k` in enter order and a
/// noise draw `n < 2^16`. The first keeps the stream in order (a clean
/// run); the next run values ahead by up to a spread, and the largest
/// spread scatters them over more than the stream's length (a wild
/// shuffle). Any spread makes duplicate values common. The last three
/// reach the finished set's rare paths: values a few million ahead, past
/// its bitmap window; repeats of values it has already compacted; and
/// values at the top of the `u64` range.
const VALUE_SHAPES: [fn(u64, u64) -> u64; 9] = [
    |k, _| k,
    |k, n| k + n % 2,
    |k, n| k + n % 4,
    |k, n| k + n % 16,
    |k, n| k + n % 64,
    |k, n| k + n % 4096,
    |k, n| k + ((n % 4) << 21),
    |k, n| if k >= 64 && n % 4 == 0 { n % 64 } else { k },
    |k, n| if n % 4 == 0 { u64::MAX - n % 3 } else { k },
];

/// Process ids as they come off the wire: a few small ones, ids that share
/// a process-table cache entry (0, 64 and `1 << 20`; 63 and `u32::MAX`),
/// and the extremes of the `u32` the frontier codec carries them in.
const PROCESS_IDS: [usize; 7] = [0, 1, 2, 63, 64, 1 << 20, u32::MAX as usize];

/// Shards the raw operations are dealt onto before the merge.
const MERGE_SHARDS: usize = 3;

/// One raw operation's draw: nanoseconds since the previous enter, duration
/// in nanoseconds, value noise, index into [`PROCESS_IDS`], merge shard.
type RawDraw = (u64, u64, u64, usize, usize);

/// Raw draws with stamps a few nanoseconds apart, so equal-nanosecond
/// enters and exits are common. (Kept unmapped so a failing case shrinks.)
fn random_raw_draws() -> impl Strategy<Value = Vec<RawDraw>> {
    prop::collection::vec(
        (0u64..3, 0u64..6, 0u64..1 << 16, 0usize..PROCESS_IDS.len(), 0usize..MERGE_SHARDS),
        0..200,
    )
}

/// Builds the merged stream the way production builds it: the raw
/// operations, in nondecreasing enter order, are dealt onto shards and
/// released by an [`EventMerger`], which assigns the sequence numbers and
/// with them the rule that a tie reads as overlap.
fn merged_stream(shape: fn(u64, u64) -> u64, draws: &[RawDraw]) -> Vec<OpEvent> {
    let mut merger = EventMerger::new(MERGE_SHARDS);
    let mut t = 0u64;
    for (k, &(delta, duration, noise, process, shard)) in draws.iter().enumerate() {
        t += delta;
        let op = RawOp {
            process: PROCESS_IDS[process],
            enter_ns: t,
            exit_ns: t + duration,
            value: shape(k as u64, noise),
        };
        merger.push(shard, op);
    }
    (0..MERGE_SHARDS).for_each(|shard| merger.finish(shard));
    let mut events: Vec<OpEvent> = Vec::new();
    merger.drain_into(&mut events);
    events
}

/// What the kernel must report about an enter-ordered stream, read off
/// the definitions: each event compared with every event pushed before it
/// (a later push enters no earlier, so it cannot completely precede).
#[derive(Default)]
struct Definitions {
    flags: Vec<EventFlags>,
    lateness: Vec<u64>,
    lin_witness: Option<Violation>,
    sc_witness: Option<Violation>,
}

fn definitions(events: &[OpEvent]) -> Definitions {
    let mut d = Definitions::default();
    for (k, ev) in events.iter().enumerate() {
        let before = &events[..k];
        let preceding = || before.iter().enumerate().filter(|(_, a)| a.completely_precedes(ev));
        // Lateness: completely preceding ops that returned a larger value.
        let lateness = preceding().filter(|(_, a)| a.value > ev.value).count() as u64;
        // The linearizability witness: the first late event, against the
        // largest preceding value's earliest finisher.
        if lateness > 0 && d.lin_witness.is_none() {
            let top = preceding().map(|(_, a)| a.value).max().unwrap();
            let (earlier, _) = preceding()
                .filter(|(_, a)| a.value == top)
                .min_by_key(|&(j, a)| (a.exit_key(), j))
                .unwrap();
            d.lin_witness = Some(Violation { earlier, later: k });
        }
        // The SC witness: the first event below its process's previous op.
        let previous = before.iter().enumerate().rev().find(|(_, a)| a.process == ev.process);
        if let Some((j, _)) = previous.filter(|(_, a)| a.value > ev.value) {
            d.sc_witness.get_or_insert(Violation { earlier: j, later: k });
        }
        d.flags.push(EventFlags {
            non_linearizable: lateness > 0,
            non_sequentially_consistent: before
                .iter()
                .any(|a| a.process == ev.process && a.value > ev.value),
        });
        d.lateness.push(lateness);
    }
    d
}

/// Holds the kernel to [`definitions`] on one enter-ordered stream, event
/// by event: the same flags, the same running lateness maximum and mean
/// (compared as bits, not within a tolerance), the same first witnesses,
/// counts, fractions and lateness p99. The verdict line renders exactly
/// these fields (its format is pinned in `trace.rs`,
/// `auditor_verdict_and_summary`), so it is equal too.
fn check_kernel(events: &[OpEvent]) -> Result<(), String> {
    let want = definitions(events);
    let mut kernel = StreamingAuditor::new();
    let (mut max, mut sum, mut hist) = (0u64, 0u128, LatencyHistogram::new());
    for (k, ev) in events.iter().enumerate() {
        let flags = kernel.push(ev);
        let lateness = want.lateness[k];
        (max, sum) = (max.max(lateness), sum + u128::from(lateness));
        hist.record(lateness);
        prop_assert_eq!(flags, want.flags[k], "event {}: {:?}", k, ev);
        prop_assert_eq!(kernel.qqc_max(), max, "event {}: {:?}", k, ev);
        let mean = sum as f64 / (k + 1) as f64;
        prop_assert_eq!(kernel.qqc_mean().to_bits(), mean.to_bits(), "event {}: {:?}", k, ev);
    }
    let count = |pick: fn(&EventFlags) -> bool| want.flags.iter().filter(|f| pick(f)).count();
    let (nl, nsc) = (count(|f| f.non_linearizable), count(|f| f.non_sequentially_consistent));
    let share = |c: usize| if events.is_empty() { 0.0 } else { c as f64 / events.len() as f64 };
    prop_assert_eq!(kernel.operations(), events.len());
    prop_assert_eq!(kernel.linearizability_violation(), want.lin_witness);
    prop_assert_eq!(kernel.sequential_consistency_violation(), want.sc_witness);
    prop_assert_eq!(kernel.is_linearizable(), want.lin_witness.is_none());
    prop_assert_eq!(kernel.is_sequentially_consistent(), want.sc_witness.is_none());
    prop_assert_eq!((kernel.non_linearizable(), kernel.non_sequentially_consistent()), (nl, nsc));
    prop_assert_eq!(kernel.f_nl().to_bits(), share(nl).to_bits());
    prop_assert_eq!(kernel.f_nsc().to_bits(), share(nsc).to_bits());
    prop_assert_eq!(kernel.qqc_p99(), hist.quantile(0.99));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The kernel is the definitions on merged recorder-shaped streams:
    /// every value shape, including the finished set's rare paths.
    #[test]
    fn auditor_kernel_matches_the_definitions(
        shape in 0usize..VALUE_SHAPES.len(),
        draws in random_raw_draws(),
    ) {
        check_kernel(&merged_stream(VALUE_SHAPES[shape], &draws))?;
    }

    /// The kernel is the definitions on arbitrary operation sets, where
    /// values repeat and a process may overlap itself.
    #[test]
    fn auditor_kernel_matches_the_definitions_on_random_ops(ops in random_ops()) {
        check_kernel(&in_enter_order(&ops))?;
    }

    /// Observation 2.1: an execution is sequentially consistent iff it is
    /// sequentially consistent with respect to every process.
    #[test]
    fn observation_2_1_holds(ops in random_ops()) {
        let per_process = (0..5).all(|p| is_sequentially_consistent_for(&ops, p));
        prop_assert_eq!(is_sequentially_consistent(&ops), per_process);
    }
}

#[test]
fn qqc_lateness_is_zero_on_a_linearizable_stream() {
    // Values arrive in enter order with no overtaking: every op's lateness
    // is 0 even though some ops overlap.
    let evs = [op(0, 0.0, 3.0, 0), op(1, 1.0, 2.0, 1), op(1, 4.0, 5.0, 2), op(0, 6.0, 7.0, 3)];
    let mut kernel = StreamingAuditor::new();
    for ev in &evs {
        kernel.push(ev);
    }
    assert_eq!(kernel.operations(), 4);
    assert_eq!((kernel.qqc_max(), kernel.non_linearizable(), kernel.qqc_mean()), (0, 0, 0.0));
}

#[test]
fn qqc_lateness_counts_every_finished_larger_value() {
    // Three ops finish with values 5, 6, 7 before a late op returns 1: its
    // lateness is 3 (the Section 5.1 flag marks it just once).
    let mut kernel = StreamingAuditor::new();
    for ev in [op(0, 0.0, 1.0, 5), op(1, 0.5, 1.5, 6), op(2, 0.6, 1.6, 7)] {
        kernel.push(&ev);
    }
    assert!(kernel.push(&op(3, 2.0, 3.0, 1)).non_linearizable);
    assert_eq!((kernel.qqc_max(), kernel.non_linearizable(), kernel.qqc_mean()), (3, 1, 0.75));
    // An overlapping op is not "finished": a larger value whose op is still
    // pending contributes nothing. Op 3 (value 1) has not finished at enter
    // 2.5, so the new op's lateness is 3 again: 5, 6 and 7.
    kernel.push(&op(4, 2.5, 4.0, 2));
    assert_eq!((kernel.qqc_max(), kernel.qqc_mean()), (3, 6.0 / 5.0));
}

#[test]
fn qqc_lateness_agrees_with_the_flags() {
    // lateness > 0 iff the Section 5.1 non-linearizable flag: check on an
    // interleaved stream with duplicate values.
    let evs = [
        op(0, 0.0, 1.0, 2),
        op(1, 0.5, 2.5, 0),
        op(2, 2.0, 3.0, 1),
        op(0, 4.0, 5.0, 1), // duplicate value, late
        op(1, 6.0, 7.0, 4),
        op(2, 8.0, 9.0, 3),
    ];
    check_kernel(&evs).unwrap();
    assert_eq!(stream(&evs).non_linearizable(), 3);
}
