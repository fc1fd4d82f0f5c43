//! The PR-3 refactor's load-bearing property: the incremental (streaming)
//! consistency monitors in `cnet_core::trace` agree, event for event, with
//! the retained batch sweeps in `cnet_core::consistency` /
//! `cnet_core::fractions` — and both agree with a brute-force quadratic
//! oracle — on arbitrary operation sets, including the adversarial
//! executions produced by the Theorem 3.2 transformation
//! (`cnet_sim::transform::desequentialize`).
//!
//! Since the auditor became a one-pass kernel of its own, the same file
//! holds its contract: on any enter-ordered stream, `StreamingAuditor`
//! reports exactly what the four standalone monitors report side by side.
//! The fourth, the lateness meter, lives in `common/qqc.rs`: a test
//! reference sharing no code with the kernel.
//!
//! Failing seeds are logged by the harness; replay with
//! `CNET_PROPTEST_SEED=<seed>`.

mod common {
    pub mod qqc;
}

use cnet_core::consistency::{
    find_linearizability_violation, find_sequential_consistency_violation, is_linearizable,
    is_sequentially_consistent,
};
use cnet_core::fractions::{
    non_linearizability_fraction, non_linearizable_ops, non_sequential_consistency_fraction,
    non_sequentially_consistent_ops,
};
use cnet_core::op::{op, Op};
use cnet_core::trace::{enter_order, stream_execution, EventMerger, OpEvent, RawOp};
use cnet_core::{StreamingAuditor, StreamingFractionMeter, StreamingLinMonitor, StreamingScMonitor};
use cnet_sim::engine::run;
use cnet_sim::transform::desequentialize;
use cnet_sim::workload::{generate, WorkloadConfig};
use cnet_topology::construct::bitonic;
use cnet_util::proptest::prelude::*;
use common::qqc::StreamingQqcMeter;

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
    ops.iter().any(|a| {
        ops.iter().any(|b| a.completely_precedes(b) && a.value > b.value)
    })
}

/// Brute-force oracle: some *same-process* op is followed, in per-process
/// program order (enter key), by an op with a smaller value. Real processes
/// are sequential, so enter order *is* program order; random test data may
/// make a process overlap itself, which is why this deliberately does not
/// require `completely_precedes`.
fn quadratic_non_sequentially_consistent(ops: &[Op]) -> bool {
    ops.iter().any(|a| {
        ops.iter().any(|b| {
            a.process == b.process && a.enter_key() < b.enter_key() && a.value > b.value
        })
    })
}

/// Streams `ops` in enter order through fresh monitors.
fn stream(ops: &[Op]) -> (StreamingLinMonitor, StreamingScMonitor, StreamingFractionMeter) {
    let mut lin = StreamingLinMonitor::new();
    let mut sc = StreamingScMonitor::new();
    let mut meter = StreamingFractionMeter::new();
    for &i in &enter_order(ops) {
        lin.push(&ops[i]);
        sc.push(&ops[i]);
        meter.push(&ops[i]);
    }
    (lin, sc, meter)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// On arbitrary operation sets, the streaming verdicts match the batch
    /// sweeps, and both match the quadratic oracles.
    #[test]
    fn streaming_monitors_match_batch_sweeps(ops in random_ops()) {
        let (lin, sc, _) = stream(&ops);
        let oracle_lin = !quadratic_non_linearizable(&ops);
        prop_assert_eq!(lin.is_linearizable(), oracle_lin);
        prop_assert_eq!(is_linearizable(&ops), oracle_lin);
        prop_assert_eq!(find_linearizability_violation(&ops).is_none(), oracle_lin);
        let oracle_sc = !quadratic_non_sequentially_consistent(&ops);
        prop_assert_eq!(sc.is_sequentially_consistent(), oracle_sc);
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

    /// The streaming fraction meter reproduces the batch Section 5.1
    /// counts and fractions, and its memory stays bounded by the maximum
    /// concurrency, not the stream length.
    #[test]
    fn streaming_fractions_match_batch_fractions(ops in random_ops()) {
        let (lin, _, meter) = stream(&ops);
        prop_assert_eq!(meter.total(), ops.len());
        prop_assert_eq!(meter.non_linearizable(), non_linearizable_ops(&ops).len());
        prop_assert_eq!(
            meter.non_sequentially_consistent(),
            non_sequentially_consistent_ops(&ops).len()
        );
        let f_nl = non_linearizability_fraction(&ops);
        let f_nsc = non_sequential_consistency_fraction(&ops);
        prop_assert!((meter.f_nl() - f_nl).abs() < 1e-12);
        prop_assert!((meter.f_nsc() - f_nsc).abs() < 1e-12);
        // Bounded memory: the heap never holds more ops than can overlap.
        let mut max_concurrency = 0usize;
        for a in &ops {
            let overlapping = ops.iter().filter(|b| a.overlaps(b)).count();
            max_concurrency = max_concurrency.max(overlapping);
        }
        prop_assert!(lin.pending_len() <= max_concurrency.max(1));
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
    prop::collection::vec(
        prop::collection::vec((0u64..50, 0u64..40, 0u64..200), 0..40),
        1..5,
    )
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The parallel audit pipeline's load-bearing property: shard
    /// monitors chunked at arbitrary frontier boundaries and merged in an
    /// arbitrary interleaving produce a verdict **bit-identical** to the
    /// sequential merger + auditor on the same per-shard streams, and the
    /// frontiers' local candidate counts are sound lower bounds on the
    /// global counts. Failing seeds are logged by the harness; replay
    /// with `CNET_PROPTEST_SEED=<seed>`.
    #[test]
    fn merge_auditor_matches_the_sequential_auditor(
        streams in random_shard_streams(),
        seed in 1u64..u64::MAX,
    ) {
        use cnet_core::trace::{EventMerger, MergeAuditor, ShardMonitor};

        // The sequential reference: whole streams, one merger, one drain.
        let mut merger = EventMerger::new(streams.len());
        for (shard, stream) in streams.iter().enumerate() {
            for &op in stream {
                merger.push(shard, op);
            }
            merger.finish(shard);
        }
        let mut reference = StreamingAuditor::new();
        merger.drain_into(&mut reference);

        // The sharded pipeline: each shard consumed by its own monitor,
        // cut into frontiers at xorshift-chosen boundaries, ingested in a
        // xorshift-shuffled shard order.
        let mut x = seed;
        let mut rng = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut monitors: Vec<ShardMonitor> =
            (0..streams.len()).map(ShardMonitor::new).collect();
        let mut cursors = vec![0usize; streams.len()];
        let mut merged = MergeAuditor::new(streams.len());
        loop {
            let alive: Vec<usize> =
                (0..streams.len()).filter(|&s| cursors[s] < streams[s].len()).collect();
            if alive.is_empty() {
                break;
            }
            let s = alive[(rng() as usize) % alive.len()];
            let take = 1 + (rng() as usize) % (streams[s].len() - cursors[s]);
            for &op in &streams[s][cursors[s]..cursors[s] + take] {
                monitors[s].observe(op);
            }
            cursors[s] += take;
            let finished = cursors[s] == streams[s].len();
            merged.ingest(monitors[s].take_frontier(finished));
        }
        for (shard, stream) in streams.iter().enumerate() {
            if stream.is_empty() {
                merged.finish_shard(shard);
            }
        }

        // Bit-identical verdict (the summary covers ops, both violation
        // counts, both fractions, and the whole QQC lateness profile).
        prop_assert_eq!(merged.summary(), reference.summary());
        let audited = merged.auditor();
        prop_assert_eq!(audited.operations(), reference.operations());
        prop_assert_eq!(audited.is_linearizable(), reference.is_linearizable());
        prop_assert_eq!(
            audited.is_sequentially_consistent(),
            reference.is_sequentially_consistent()
        );
        // Nothing fell between frontiers: per-shard coverage is exact.
        let observed: usize = merged.shard_stats().iter().map(|st| st.observed).sum();
        let total: usize = streams.iter().map(Vec::len).sum();
        prop_assert_eq!(observed, total);
        // Local candidates never overclaim: a shard-local precedence is a
        // genuine global precedence, so the lower bounds must hold.
        let local_nl: usize =
            merged.shard_stats().iter().map(|st| st.candidate_non_lin).sum();
        prop_assert!(local_nl <= audited.non_linearizable());
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

/// The four standalone monitors side by side: what `StreamingAuditor` was
/// before it became one pass, and the reference it is held to.
#[derive(Default)]
struct Composition {
    lin: StreamingLinMonitor,
    sc: StreamingScMonitor,
    meter: StreamingFractionMeter,
    qqc: StreamingQqcMeter,
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The one-pass kernel is the four-monitor composition, bit for bit:
    /// the same flags on every event, the same first witnesses, the same
    /// counts, fractions and lateness profile (compared as bits, not
    /// within a tolerance). The verdict line renders exactly these fields
    /// (its format is pinned in `trace.rs`, `auditor_verdict_and_summary`),
    /// so it is equal too.
    #[test]
    fn auditor_kernel_matches_the_four_monitor_composition(
        shape in 0usize..VALUE_SHAPES.len(),
        draws in random_raw_draws(),
    ) {
        let events = merged_stream(VALUE_SHAPES[shape], &draws);
        let mut kernel = StreamingAuditor::new();
        let mut reference = Composition::default();
        for (k, ev) in events.iter().enumerate() {
            let flags = kernel.push(ev);
            reference.lin.push(ev);
            reference.sc.push(ev);
            let lateness = reference.qqc.push(ev);
            prop_assert_eq!(flags, reference.meter.push(ev), "event {}: {:?}", k, ev);
            // The equivalence that lets the kernel skip the lateness query
            // on unflagged events.
            prop_assert_eq!(flags.non_linearizable, lateness > 0, "event {}: {:?}", k, ev);
            prop_assert_eq!(kernel.qqc_max(), reference.qqc.qqc_max(), "event {}: {:?}", k, ev);
        }
        prop_assert_eq!(kernel.operations(), events.len());
        prop_assert_eq!(kernel.linearizability_violation(), reference.lin.first_violation());
        prop_assert_eq!(kernel.sequential_consistency_violation(), reference.sc.first_violation());
        prop_assert_eq!(kernel.is_linearizable(), reference.lin.is_linearizable());
        prop_assert_eq!(
            kernel.is_sequentially_consistent(),
            reference.sc.is_sequentially_consistent()
        );
        prop_assert_eq!(kernel.non_linearizable(), reference.meter.non_linearizable());
        prop_assert_eq!(kernel.non_linearizable(), reference.qqc.late_ops());
        prop_assert_eq!(
            kernel.non_sequentially_consistent(),
            reference.meter.non_sequentially_consistent()
        );
        prop_assert_eq!(kernel.f_nl().to_bits(), reference.meter.f_nl().to_bits());
        prop_assert_eq!(kernel.f_nsc().to_bits(), reference.meter.f_nsc().to_bits());
        prop_assert_eq!(kernel.qqc_mean().to_bits(), reference.qqc.qqc_mean().to_bits());
        prop_assert_eq!(kernel.qqc_p99(), reference.qqc.qqc_p99());
        prop_assert_eq!(
            kernel.is_clean(),
            reference.lin.is_linearizable() && reference.sc.is_sequentially_consistent()
        );
    }
}

#[test]
fn qqc_meter_is_zero_on_a_linearizable_stream() {
    // Values arrive in enter order with no overtaking: every op's lateness
    // is 0 even though some ops overlap.
    let evs = [op(0, 0.0, 3.0, 0), op(1, 1.0, 2.0, 1), op(1, 4.0, 5.0, 2), op(0, 6.0, 7.0, 3)];
    let mut qqc = StreamingQqcMeter::new();
    let mut kernel = StreamingAuditor::new();
    for ev in &evs {
        qqc.push(ev);
        kernel.push(ev);
    }
    assert_eq!(qqc.total(), 4);
    assert_eq!((qqc.qqc_max(), qqc.late_ops(), qqc.qqc_mean()), (0, 0, 0.0));
    assert_eq!((kernel.qqc_max(), kernel.non_linearizable(), kernel.qqc_mean()), (0, 0, 0.0));
}

#[test]
fn qqc_lateness_counts_every_finished_larger_value() {
    // Three ops finish with values 5, 6, 7 before a late op returns 1: its
    // lateness is 3 (the fraction meter would flag it just once).
    let mut qqc = StreamingQqcMeter::new();
    let mut kernel = StreamingAuditor::new();
    for ev in [op(0, 0.0, 1.0, 5), op(1, 0.5, 1.5, 6), op(2, 0.6, 1.6, 7)] {
        qqc.push(&ev);
        kernel.push(&ev);
    }
    let late = op(3, 2.0, 3.0, 1);
    assert_eq!(qqc.push(&late), 3);
    kernel.push(&late);
    assert_eq!((qqc.qqc_max(), qqc.late_ops(), qqc.qqc_mean()), (3, 1, 3.0 / 4.0));
    assert_eq!((kernel.qqc_max(), kernel.non_linearizable(), kernel.qqc_mean()), (3, 1, 0.75));
    // An overlapping op is not "finished": a larger value whose op is still
    // pending contributes nothing.
    let overlapping = op(4, 2.5, 4.0, 2);
    assert_eq!(qqc.push(&overlapping), 3, "op 3 (value 1) has not finished at enter 2.5");
    kernel.push(&overlapping);
    assert_eq!(kernel.qqc_mean(), qqc.qqc_mean());
}

#[test]
fn qqc_meter_agrees_with_the_fraction_meter_flags() {
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
    let mut meter = StreamingFractionMeter::new();
    let mut qqc = StreamingQqcMeter::new();
    for ev in &evs {
        let flags = meter.push(ev);
        let late = qqc.push(ev);
        assert_eq!(flags.non_linearizable, late > 0, "{ev:?}");
    }
    assert_eq!(qqc.late_ops(), meter.non_linearizable());
}
