//! The reproducible throughput sweep behind `BENCH_throughput.json`.
//!
//! Races every shared-memory counter — the centralized baselines, the
//! compiled-traversal [`SharedNetworkCounter`], the combining funnel over
//! it, and the [`DiffractingTree`] — across thread counts and network
//! families (`B(w)`, `P(w)`, the counting tree), and reports
//! machine-readable measurements so every PR has a performance trajectory
//! to defend. `BENCH_throughput.json` still holds `graph_walk` rows from
//! before the pre-compilation traversal was deleted; no sweep writes them
//! now.
//!
//! Invoke via `cnet bench <w> --out BENCH_throughput.json` (see
//! `crates/cli`) or programmatically through [`run_throughput_sweep`].

use crate::report::Table;
use cnet_core::trace::{OpEvent, OpSink, StreamingAuditor};
use cnet_runtime::recorder::{drain_remaining, drive_audited, Traced};
use cnet_runtime::{
    CombiningFunnel, DiffractingTree, EliminationCounter, FetchAddCounter, LockCounter,
    ProcessCounter, RelaxedCounter, SharedNetworkCounter, TraceRecorder, Workload,
};
use cnet_topology::construct::{bitonic, counting_tree, periodic};
use cnet_util::json::{FromJson, JsonError, ToJson, Value};
use cnet_util::json_struct;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Prism width used for the diffracting-tree rows.
const PRISM_WIDTH: usize = 4;

/// Configuration of one sweep.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ThroughputConfig {
    /// Network fan `w` (power of two; the tree is built at the same width).
    pub fan: usize,
    /// Thread counts to sweep.
    pub threads: Vec<usize>,
    /// Increments each thread performs per timed run.
    pub ops_per_thread: usize,
    /// Timed repetitions per cell; the best (shortest) run is kept, which
    /// filters scheduler noise deterministically.
    pub repeats: usize,
    /// Batch sizes to sweep through `next_batch_for` (schema v3). A `1`
    /// in the list maps to the plain per-token rows already swept, so
    /// only sizes above one produce extra rows (`"batch": k`).
    pub batches: Vec<usize>,
}

impl Default for ThroughputConfig {
    fn default() -> Self {
        ThroughputConfig {
            fan: 8,
            threads: vec![1, 2, 4, 8],
            ops_per_thread: 20_000,
            repeats: 3,
            batches: Vec::new(),
        }
    }
}

/// One timed cell of the sweep.
#[derive(Clone, Debug, PartialEq)]
pub struct Measurement {
    /// Counter implementation: `fetch_add`, `lock`, `compiled`,
    /// `diffracting`, `combining`, `relaxed` or `elimination` (`graph_walk`
    /// in rows recorded before that traversal was deleted).
    pub counter: String,
    /// Network family the counter ran over (`-` for centralized counters,
    /// else `bitonic`, `periodic`, or `tree`).
    pub network: String,
    /// Number of concurrent threads.
    pub threads: usize,
    /// Total increments performed in the timed run.
    pub total_ops: usize,
    /// Wall-clock seconds of the best run.
    pub seconds: f64,
    /// Throughput of the best run, in million increments per second.
    pub mops: f64,
    /// Whether the run recorded every increment into the always-on trace
    /// recorder (the audited-throughput mode); `false` rows are the
    /// un-instrumented baseline.
    pub audited: bool,
    /// How the increments reached the counter: `memory` for in-process
    /// shared-memory rows, `tcp` for rows measured through `cnet-net`'s
    /// loopback service.
    pub transport: String,
    /// Increments claimed per counter call (schema v3): `1` is the
    /// per-token path, `k > 1` rows went through `next_batch_for` — one
    /// atomic per balancer per batch. Absent in older artifacts means `1`.
    pub batch: usize,
    /// Whether the row ran more threads than the measuring host has cores
    /// (schema v3): oversubscribed rows measure time-slicing, not
    /// parallel scaling, and must not be read as scaling results. Absent
    /// in older artifacts means `false`.
    pub oversubscribed: bool,
    /// Pooled client connections the row was driven through (schema v4):
    /// `0` for in-process rows and for pre-v4 tcp rows, where the
    /// connection count equalled `threads`. Distinct connection counts
    /// are distinct cells — the reactor's connection-scaling sweep keeps
    /// one row per count.
    pub connections: usize,
    /// Median end-to-end burst round-trip time in nanoseconds (schema
    /// v4); `None` (JSON `null` / absent) for rows measured without the
    /// latency histogram — all in-process rows and pre-v4 tcp rows.
    pub p50_ns: Option<u64>,
    /// 99th-percentile burst round-trip time in nanoseconds (schema v4).
    pub p99_ns: Option<u64>,
    /// 99.9th-percentile burst round-trip time in nanoseconds (schema v4).
    pub p999_ns: Option<u64>,
    /// How many cluster nodes served the row (schema v5): `1` for every
    /// in-process row and single-server tcp row; `N > 1` for rows driven
    /// through an N-node partitioned counting fabric. Absent in older
    /// artifacts means `1`.
    pub nodes: usize,
    /// Maximum QQC lateness measured while the row ran (schema v6): the
    /// worst per-op rank displacement against the quiescent order, from
    /// the consistency sweep's audited drain. `None` (JSON `null` /
    /// absent) for rows measured without the QQC meter — every plain
    /// throughput row.
    pub qqc_max: Option<u64>,
    /// Mean QQC lateness over the row's operations (schema v6); `None`
    /// for rows measured without the QQC meter.
    pub qqc_mean: Option<f64>,
    /// Measured non-linearizability fraction of the row's trace (schema
    /// v6, the Section 5.1 F_nl); `None` for rows measured without the
    /// audited drain.
    pub f_nl: Option<f64>,
    /// Fraction of the paired un-audited throughput this row retained
    /// (schema v7): audited rows measure their plain twin *interleaved in
    /// the same repetition loop*, so scheduler and steal-time drift hits
    /// both sides equally. `None` for rows measured without a paired
    /// baseline (every plain row, and pre-v7 audited rows, whose
    /// retention is reconstructed from separately timed cells by
    /// [`ThroughputReport::retention`]).
    pub retention: Option<f64>,
    /// Audit worker threads stealing ring shards *while the row ran*
    /// (schema v7): `0` means recording was on but monitors drained off
    /// the timed path (the pre-v7 audited mode); `k ≥ 1` rows timed the
    /// full live pipeline — workers plus `k` shard-stealing monitors
    /// through the merge auditor — to a ready verdict. Absent in older
    /// artifacts means `0`.
    pub audit_threads: usize,
    /// Sampling stride of the recorder (schema v7): `1` records every
    /// increment, `k > 1` records one in `k` and counts the rest (sound:
    /// widened intervals only under-report violations). Absent in older
    /// artifacts means `1`.
    pub sample_k: usize,
}

impl Measurement {
    /// The transport label of in-process rows (the schema-v2 default).
    pub const TRANSPORT_MEMORY: &'static str = "memory";
    /// The transport label of `cnet-net` loopback-service rows.
    pub const TRANSPORT_TCP: &'static str = "tcp";

    /// A fresh in-process per-token row with every schema-versioned field
    /// at its default; callers set the fields that distinguish their cell.
    /// Centralizing the defaults here means a future schema column is one
    /// edit, not one per construction site.
    pub fn timed(
        counter: &str,
        network: &str,
        threads: usize,
        total_ops: usize,
        seconds: f64,
    ) -> Measurement {
        Measurement {
            counter: counter.to_string(),
            network: network.to_string(),
            threads,
            total_ops,
            seconds,
            mops: total_ops as f64 / seconds / 1.0e6,
            audited: false,
            transport: Measurement::TRANSPORT_MEMORY.to_string(),
            batch: 1,
            oversubscribed: false,
            connections: 0,
            p50_ns: None,
            p99_ns: None,
            p999_ns: None,
            nodes: 1,
            qqc_max: None,
            qqc_mean: None,
            f_nl: None,
            retention: None,
            audit_threads: 0,
            sample_k: 1,
        }
    }
}

// Hand-written (not `json_struct!`) so fields added by later schema
// versions may be absent in older artifacts: a missing `transport` means
// `"memory"` (pre-v2 rows), a missing `batch` means `1`, a missing
// `oversubscribed` means `false` (pre-v3 rows), missing `connections`
// / latency percentiles mean `0` / `None` (pre-v4 rows), a missing
// `nodes` means `1` (pre-v5 rows), missing `qqc_max`/`qqc_mean`/
// `f_nl` mean `None` (pre-v6 rows), and missing `retention`/
// `audit_threads`/`sample_k` mean `None`/`0`/`1` (pre-v7 rows) — keeping
// every previously committed BENCH_throughput.json parseable.
impl ToJson for Measurement {
    fn to_json(&self) -> Value {
        Value::Object(vec![
            ("counter".to_string(), self.counter.to_json()),
            ("network".to_string(), self.network.to_json()),
            ("threads".to_string(), self.threads.to_json()),
            ("total_ops".to_string(), self.total_ops.to_json()),
            ("seconds".to_string(), self.seconds.to_json()),
            ("mops".to_string(), self.mops.to_json()),
            ("audited".to_string(), self.audited.to_json()),
            ("transport".to_string(), self.transport.to_json()),
            ("batch".to_string(), self.batch.to_json()),
            ("oversubscribed".to_string(), self.oversubscribed.to_json()),
            ("connections".to_string(), self.connections.to_json()),
            ("p50_ns".to_string(), self.p50_ns.to_json()),
            ("p99_ns".to_string(), self.p99_ns.to_json()),
            ("p999_ns".to_string(), self.p999_ns.to_json()),
            ("nodes".to_string(), self.nodes.to_json()),
            ("qqc_max".to_string(), self.qqc_max.to_json()),
            ("qqc_mean".to_string(), self.qqc_mean.to_json()),
            ("f_nl".to_string(), self.f_nl.to_json()),
            ("retention".to_string(), self.retention.to_json()),
            ("audit_threads".to_string(), self.audit_threads.to_json()),
            ("sample_k".to_string(), self.sample_k.to_json()),
        ])
    }
}

impl FromJson for Measurement {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        Ok(Measurement {
            counter: cnet_util::json::field(v, "counter")?,
            network: cnet_util::json::field(v, "network")?,
            threads: cnet_util::json::field(v, "threads")?,
            total_ops: cnet_util::json::field(v, "total_ops")?,
            seconds: cnet_util::json::field(v, "seconds")?,
            mops: cnet_util::json::field(v, "mops")?,
            audited: cnet_util::json::field(v, "audited")?,
            transport: match v.get("transport") {
                Some(t) => FromJson::from_json(t)?,
                None => Measurement::TRANSPORT_MEMORY.to_string(),
            },
            batch: match v.get("batch") {
                Some(b) => FromJson::from_json(b)?,
                None => 1,
            },
            oversubscribed: match v.get("oversubscribed") {
                Some(o) => FromJson::from_json(o)?,
                None => false,
            },
            connections: match v.get("connections") {
                Some(c) => FromJson::from_json(c)?,
                None => 0,
            },
            // `field` maps absent to `Null`, which `Option` reads as `None`.
            p50_ns: cnet_util::json::field(v, "p50_ns")?,
            p99_ns: cnet_util::json::field(v, "p99_ns")?,
            p999_ns: cnet_util::json::field(v, "p999_ns")?,
            nodes: match v.get("nodes") {
                Some(n) => FromJson::from_json(n)?,
                None => 1,
            },
            // Schema v6: absent (pre-v6 rows) and explicit `null` both
            // read as `None` through `field`'s absent→Null mapping.
            qqc_max: cnet_util::json::field(v, "qqc_max")?,
            qqc_mean: cnet_util::json::field(v, "qqc_mean")?,
            f_nl: cnet_util::json::field(v, "f_nl")?,
            // Schema v7: paired retention is optional; the audit-pipeline
            // columns default to "recording on, no live stealers, no
            // sampling" — exactly what pre-v7 audited rows measured.
            retention: cnet_util::json::field(v, "retention")?,
            audit_threads: match v.get("audit_threads") {
                Some(a) => FromJson::from_json(a)?,
                None => 0,
            },
            sample_k: match v.get("sample_k") {
                Some(k) => FromJson::from_json(k)?,
                None => 1,
            },
        })
    }
}

/// The machine-readable result of a sweep — the schema of
/// `BENCH_throughput.json` (see README.md, "Benchmark artifacts").
#[derive(Clone, Debug, PartialEq)]
pub struct ThroughputReport {
    /// Schema version of this report format.
    pub version: u64,
    /// Network fan the sweep ran at.
    pub fan: usize,
    /// Increments per thread per timed run.
    pub ops_per_thread: usize,
    /// Timed repetitions per cell (best kept).
    pub repeats: usize,
    /// `available_parallelism` of the measuring host.
    pub cores: usize,
    /// Every timed cell, in sweep order.
    pub measurements: Vec<Measurement>,
}

json_struct!(ThroughputReport {
    version,
    fan,
    ops_per_thread,
    repeats,
    cores,
    measurements,
});

/// Times `threads` workers each performing `ops` increments; returns the
/// elapsed seconds.
fn time_run<C: ProcessCounter>(counter: &C, threads: usize, ops: usize) -> f64 {
    let start = Instant::now();
    std::thread::scope(|s| {
        for p in 0..threads {
            s.spawn(move || {
                for _ in 0..ops {
                    black_box(counter.next_for(p));
                }
            });
        }
    });
    start.elapsed().as_secs_f64()
}

/// Best-of-`repeats` timing of a freshly built counter per repetition (so
/// every run starts from identical cold state).
fn measure<C: ProcessCounter>(
    label: (&str, &str),
    build: impl Fn() -> C,
    threads: usize,
    cfg: &ThroughputConfig,
) -> Measurement {
    let total_ops = threads * cfg.ops_per_thread;
    let seconds = (0..cfg.repeats.max(1))
        .map(|_| {
            let counter = build();
            time_run(&counter, threads, cfg.ops_per_thread)
        })
        .fold(f64::INFINITY, f64::min);
    Measurement::timed(label.0, label.1, threads, total_ops, seconds)
}

/// Times `threads` workers each performing `ops` increments in batched
/// calls of `k`; returns the elapsed seconds.
fn time_run_batched<C: ProcessCounter>(counter: &C, threads: usize, ops: usize, k: usize) -> f64 {
    let start = Instant::now();
    std::thread::scope(|s| {
        for p in 0..threads {
            s.spawn(move || {
                let mut done = 0usize;
                while done < ops {
                    let n = k.min(ops - done);
                    black_box(counter.next_batch_for(p, n));
                    done += n;
                }
            });
        }
    });
    start.elapsed().as_secs_f64()
}

/// Like [`measure`], but claims increments through `next_batch_for` in
/// batches of `k` — the schema-v3 batched-traversal rows.
fn measure_batched<C: ProcessCounter>(
    label: (&str, &str),
    build: impl Fn() -> C,
    threads: usize,
    k: usize,
    cfg: &ThroughputConfig,
) -> Measurement {
    let total_ops = threads * cfg.ops_per_thread;
    let seconds = (0..cfg.repeats.max(1))
        .map(|_| {
            let counter = build();
            time_run_batched(&counter, threads, cfg.ops_per_thread, k)
        })
        .fold(f64::INFINITY, f64::min);
    let mut m = Measurement::timed(label.0, label.1, threads, total_ops, seconds);
    m.batch = k;
    m
}

/// Like [`measure`], but every increment is recorded into a fresh
/// [`TraceRecorder`] and the row carries a *paired* retention figure
/// (schema v7): each repetition times the un-instrumented twin and the
/// recorded counter back to back — inside one spawned thread set, phase
/// boundaries marked by barriers ([`time_paired`]) — so scheduler noise
/// and VM steal-time drift, which dwarf the recorder's few-nanosecond
/// hot-path cost when the two cells are timed minutes apart, hit both
/// sides of the ratio equally. Each repetition yields one paired ratio
/// and retention is the **median** of the per-repetition ratios, which a
/// single preempted repetition cannot move.
///
/// `audit_threads == 0` sizes the recorder so no event drops and drains
/// the rings through a [`StreamingAuditor`] *after* the timed region (the
/// recorder's hot-path cost is what the row measures). `audit_threads ≥ 1`
/// times the full live pipeline instead — workers plus that many
/// shard-stealing [`cnet_core::trace::ShardMonitor`] workers feeding a
/// [`cnet_core::trace::MergeAuditor`] — from first increment to a ready
/// verdict. `sample_k` is the recorder's sound 1-in-k sampling stride.
fn measure_audited_at<C: ProcessCounter, P: ProcessCounter>(
    label: (&str, &str),
    build: impl Fn(Arc<TraceRecorder>) -> C,
    build_plain: impl Fn() -> P,
    threads: usize,
    audit_threads: usize,
    sample_k: usize,
    cfg: &ThroughputConfig,
) -> Measurement {
    let total_ops = threads * cfg.ops_per_thread;
    // One recorder for all repetitions: each repetition drains it fully,
    // so reuse is a clean ring continuation — and it keeps the rings'
    // pages faulted and cache-warm, like the steady-state service the row
    // models. Rebuilding per repetition would stream several megabytes of
    // zeroing through the cache immediately before a timed region.
    let recorder = Arc::new(TraceRecorder::with_sampling(threads, cfg.ops_per_thread, sample_k));
    let mut best_audited = f64::INFINITY;
    let mut ratios = Vec::with_capacity(cfg.repeats.max(1));
    for rep in 0..cfg.repeats.max(1) {
        let counter = build(Arc::clone(&recorder));
        // One paired ratio per repetition, the two sides adjacent in time
        // and their order alternating between repetitions to cancel any
        // warm-up or cool-down bias.
        let time_audited = || {
            if audit_threads == 0 {
                let seconds = time_run(&counter, threads, cfg.ops_per_thread);
                let mut auditor = StreamingAuditor::new();
                drain_remaining(&recorder, &mut auditor);
                black_box(auditor.is_linearizable());
                seconds
            } else {
                let workload = Workload { threads, increments_per_thread: cfg.ops_per_thread };
                let start = Instant::now();
                let run = drive_audited(&counter, &recorder, workload, audit_threads, |_| {});
                let seconds = start.elapsed().as_secs_f64();
                black_box(run.auditor.is_clean());
                seconds
            }
        };
        let (plain, audited) = if rep % 2 == 0 {
            let p = time_run(&build_plain(), threads, cfg.ops_per_thread);
            (p, time_audited())
        } else {
            let a = time_audited();
            (time_run(&build_plain(), threads, cfg.ops_per_thread), a)
        };
        best_audited = best_audited.min(audited);
        ratios.push(plain / audited);
    }
    ratios.sort_by(|a, b| a.total_cmp(b));
    let mid = ratios.len() / 2;
    let retention = if ratios.len() % 2 == 1 {
        ratios[mid]
    } else {
        (ratios[mid - 1] + ratios[mid]) / 2.0
    };
    let mut m = Measurement::timed(label.0, label.1, threads, total_ops, best_audited);
    m.audited = true;
    m.retention = Some(retention);
    m.audit_threads = audit_threads;
    m.sample_k = sample_k;
    m
}

/// The default audited row: recording on, monitors drained off the timed
/// path, no sampling (see [`measure_audited_at`]).
fn measure_audited<C: ProcessCounter, P: ProcessCounter>(
    label: (&str, &str),
    build: impl Fn(Arc<TraceRecorder>) -> C,
    build_plain: impl Fn() -> P,
    threads: usize,
    cfg: &ThroughputConfig,
) -> Measurement {
    measure_audited_at(label, build, build_plain, threads, 0, 1, cfg)
}

/// An [`OpSink`] for the consistency sweep's drain: streams into the full
/// [`StreamingAuditor`] (fractions + QQC lateness) while checking the
/// multiset contract — every value in `0..total`, each exactly once.
struct ConsistencySink {
    auditor: StreamingAuditor,
    seen: Vec<bool>,
    duplicates: usize,
    out_of_range: usize,
}

impl ConsistencySink {
    fn new(total: usize) -> ConsistencySink {
        ConsistencySink {
            auditor: StreamingAuditor::new(),
            seen: vec![false; total],
            duplicates: 0,
            out_of_range: 0,
        }
    }

    /// Panics unless exactly `0..total` was seen — the hard guarantee
    /// every backend in the sweep makes, relaxed ones included (only
    /// *ordering* may relax; a hole or duplicate is a counter bug).
    fn assert_dense(&self, label: (&str, &str)) {
        let missing = self.seen.iter().filter(|&&s| !s).count();
        assert!(
            self.duplicates == 0 && self.out_of_range == 0 && missing == 0,
            "{}/{}: values are not the exact multiset 0..{} \
             ({} duplicates, {} out of range, {} missing)",
            label.0,
            label.1,
            self.seen.len(),
            self.duplicates,
            self.out_of_range,
            missing,
        );
    }
}

impl OpSink for ConsistencySink {
    fn record(&mut self, ev: OpEvent) {
        match self.seen.get_mut(ev.value as usize) {
            None => self.out_of_range += 1,
            Some(slot) => {
                if *slot {
                    self.duplicates += 1;
                }
                *slot = true;
            }
        }
        self.auditor.record(ev);
    }
}

/// Like [`measure_audited`], but the drain runs the full consistency
/// instrumentation: the row carries the measured `qqc_max`/`qqc_mean`/
/// `f_nl` (schema v6) from the same run its throughput was timed on (the
/// best-of-`repeats` run), and the handed-out values are asserted to be
/// exactly the multiset `0..total_ops`.
fn measure_consistency<C: ProcessCounter>(
    label: (&str, &str),
    build: impl Fn(Arc<TraceRecorder>) -> C,
    threads: usize,
    cfg: &ThroughputConfig,
) -> Measurement {
    let total_ops = threads * cfg.ops_per_thread;
    let mut best_seconds = f64::INFINITY;
    let mut best_stats = (0u64, 0.0f64, 0.0f64);
    for _ in 0..cfg.repeats.max(1) {
        let recorder = Arc::new(TraceRecorder::new(threads, cfg.ops_per_thread));
        let counter = build(Arc::clone(&recorder));
        let seconds = time_run(&counter, threads, cfg.ops_per_thread);
        let mut sink = ConsistencySink::new(total_ops);
        drain_remaining(&recorder, &mut sink);
        assert_eq!(
            sink.auditor.operations(),
            total_ops,
            "{}/{}: recorder dropped events",
            label.0,
            label.1
        );
        sink.assert_dense(label);
        if seconds < best_seconds {
            best_seconds = seconds;
            best_stats =
                (sink.auditor.qqc_max(), sink.auditor.qqc_mean(), sink.auditor.f_nl());
        }
    }
    let mut m = Measurement::timed(label.0, label.1, threads, total_ops, best_seconds);
    m.audited = true;
    m.qqc_max = Some(best_stats.0);
    m.qqc_mean = Some(best_stats.1);
    m.f_nl = Some(best_stats.2);
    m
}

/// The consistency sweep (`cnet bench --sweep consistency`, schema v6):
/// every backend × every thread count, audited through the QQC meter, so
/// the rows trace the throughput-versus-measured-inconsistency frontier.
/// `sub_counters` sizes the relaxed backends (`RelaxedCounter`'s bank
/// count and the `EliminationCounter`'s slot count).
///
/// Strict backends (`fetch_add`, `lock`, and the network traversals when
/// their run happens to stay clean) report `qqc_max = 0`; the relaxed
/// backends report the bounded, nonzero lateness they traded for speed.
/// Every row — relaxed included — is asserted to hand out the exact
/// multiset `0..n`.
///
/// # Panics
///
/// Panics if `cfg.fan` is not a supported power of two, or if any backend
/// violates the multiset contract.
pub fn run_consistency_sweep(cfg: &ThroughputConfig, sub_counters: usize) -> Vec<Measurement> {
    let net = bitonic(cfg.fan).expect("power-of-two fan");
    let mut measurements = Vec::new();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    for &threads in &cfg.threads {
        measurements.push(measure_consistency(
            ("fetch_add", "-"),
            |rec| Traced::new(FetchAddCounter::new(), rec),
            threads,
            cfg,
        ));
        measurements.push(measure_consistency(
            ("lock", "-"),
            |rec| Traced::new(LockCounter::new(), rec),
            threads,
            cfg,
        ));
        measurements.push(measure_consistency(
            ("compiled", "bitonic"),
            |rec| Traced::new(SharedNetworkCounter::new(&net), rec),
            threads,
            cfg,
        ));
        measurements.push(measure_consistency(
            ("diffracting", "tree"),
            |rec| {
                Traced::new(
                    DiffractingTree::new(cfg.fan, PRISM_WIDTH).expect("power-of-two fan"),
                    rec,
                )
            },
            threads,
            cfg,
        ));
        measurements.push(measure_consistency(
            ("combining", "bitonic"),
            |rec| {
                Traced::new(
                    CombiningFunnel::new(SharedNetworkCounter::new(&net), threads.max(1)),
                    rec,
                )
            },
            threads,
            cfg,
        ));
        measurements.push(measure_consistency(
            ("relaxed", "-"),
            |rec| Traced::new(RelaxedCounter::new(sub_counters), rec),
            threads,
            cfg,
        ));
        measurements.push(measure_consistency(
            ("elimination", "bitonic"),
            |rec| Traced::new(EliminationCounter::new(&net, sub_counters), rec),
            threads,
            cfg,
        ));
    }
    for m in &mut measurements {
        m.oversubscribed = m.threads > cores;
    }
    measurements
}

/// The parallel-audit combinations `cnet bench --sweep audit` measures for
/// the compiled bitonic engine at each thread count: `(audit_threads,
/// sample_k)` pairs spanning off-path draining, live shard-stealing at one
/// and two audit workers, and 1-in-8 sampling both off-path and live.
pub const AUDIT_SWEEP_POINTS: [(usize, usize); 5] = [(0, 1), (1, 1), (2, 1), (0, 8), (2, 8)];

/// The retention-versus-audit-cost sweep (`cnet bench --sweep audit`,
/// schema v7): for each thread count, a plain compiled-bitonic baseline
/// row plus one audited row per [`AUDIT_SWEEP_POINTS`] combination — every
/// audited row carrying its paired [`Measurement::retention`] — and
/// plain/audited pairs for the relaxed backends (`relaxed`, `elimination`,
/// sized by `sub_counters`) so [`ThroughputReport::retention`] resolves
/// for them too.
///
/// # Panics
///
/// Panics if `cfg.fan` is not a supported power of two.
pub fn run_audit_sweep(cfg: &ThroughputConfig, sub_counters: usize) -> Vec<Measurement> {
    let net = bitonic(cfg.fan).expect("power-of-two fan");
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut measurements = Vec::new();
    for &threads in &cfg.threads {
        measurements.push(measure(
            ("compiled", "bitonic"),
            || SharedNetworkCounter::new(&net),
            threads,
            cfg,
        ));
        for (audit_threads, sample_k) in AUDIT_SWEEP_POINTS {
            measurements.push(measure_audited_at(
                ("compiled", "bitonic"),
                |rec| Traced::new(SharedNetworkCounter::new(&net), rec),
                || SharedNetworkCounter::new(&net),
                threads,
                audit_threads,
                sample_k,
                cfg,
            ));
        }
        measurements.push(measure(
            ("relaxed", "-"),
            || RelaxedCounter::new(sub_counters),
            threads,
            cfg,
        ));
        measurements.push(measure_audited(
            ("relaxed", "-"),
            |rec| Traced::new(RelaxedCounter::new(sub_counters), rec),
            || RelaxedCounter::new(sub_counters),
            threads,
            cfg,
        ));
        measurements.push(measure(
            ("elimination", "bitonic"),
            || EliminationCounter::new(&net, sub_counters),
            threads,
            cfg,
        ));
        measurements.push(measure_audited(
            ("elimination", "bitonic"),
            |rec| Traced::new(EliminationCounter::new(&net, sub_counters), rec),
            || EliminationCounter::new(&net, sub_counters),
            threads,
            cfg,
        ));
    }
    for m in &mut measurements {
        m.oversubscribed = m.threads > cores;
    }
    measurements
}

/// Runs the full sweep: `threads × {fetch_add, lock, compiled, diffracting,
/// combining} × {B(w), P(w), tree}`, plus audited rows
/// (`audited: true`) for the compiled engine on every family and for the
/// diffracting tree, so the trace recorder's overhead is captured next to
/// the un-instrumented baselines (compare with
/// [`ThroughputReport::retention`]). When [`ThroughputConfig::batches`]
/// lists sizes above one, batched rows (`"batch": k`, claimed through
/// `next_batch_for`) are added for the `fetch_add` baseline and the
/// compiled engine on every family — compare with
/// [`ThroughputReport::batch_speedup`].
///
/// # Panics
///
/// Panics if `cfg.fan` is not a supported power of two (the constructions
/// reject it).
pub fn run_throughput_sweep(cfg: &ThroughputConfig) -> ThroughputReport {
    let nets = [
        ("bitonic", bitonic(cfg.fan).expect("power-of-two fan")),
        ("periodic", periodic(cfg.fan).expect("power-of-two fan")),
        ("tree", counting_tree(cfg.fan).expect("power-of-two fan")),
    ];
    let mut measurements = Vec::new();
    for &threads in &cfg.threads {
        measurements.push(measure(("fetch_add", "-"), FetchAddCounter::new, threads, cfg));
        measurements.push(measure(("lock", "-"), LockCounter::new, threads, cfg));
        for (family, net) in &nets {
            measurements.push(measure(
                ("compiled", family),
                || SharedNetworkCounter::new(net),
                threads,
                cfg,
            ));
        }
        measurements.push(measure(
            ("diffracting", "tree"),
            || DiffractingTree::new(cfg.fan, PRISM_WIDTH).expect("power-of-two fan"),
            threads,
            cfg,
        ));
        // The combining funnel over the compiled bitonic network: colliding
        // single-token callers merged into batched traversals.
        measurements.push(measure(
            ("combining", "bitonic"),
            || CombiningFunnel::new(SharedNetworkCounter::new(&nets[0].1), threads.max(1)),
            threads,
            cfg,
        ));
        // Batched rows: `1` maps to the plain rows above, so only sizes
        // above one sweep here.
        for &k in cfg.batches.iter().filter(|&&k| k > 1) {
            measurements.push(measure_batched(
                ("fetch_add", "-"),
                FetchAddCounter::new,
                threads,
                k,
                cfg,
            ));
            for (family, net) in &nets {
                measurements.push(measure_batched(
                    ("compiled", family),
                    || SharedNetworkCounter::new(net),
                    threads,
                    k,
                    cfg,
                ));
            }
        }
        for (family, net) in &nets {
            measurements.push(measure_audited(
                ("compiled", family),
                |rec| Traced::new(SharedNetworkCounter::new(net), rec),
                || SharedNetworkCounter::new(net),
                threads,
                cfg,
            ));
        }
        measurements.push(measure_audited(
            ("diffracting", "tree"),
            |rec| {
                Traced::new(
                    DiffractingTree::new(cfg.fan, PRISM_WIDTH).expect("power-of-two fan"),
                    rec,
                )
            },
            || DiffractingTree::new(cfg.fan, PRISM_WIDTH).expect("power-of-two fan"),
            threads,
            cfg,
        ));
    }
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    for m in &mut measurements {
        m.oversubscribed = m.threads > cores;
    }
    ThroughputReport {
        version: 7,
        fan: cfg.fan,
        ops_per_thread: cfg.ops_per_thread,
        repeats: cfg.repeats.max(1),
        cores,
        measurements,
    }
}

impl ThroughputReport {
    /// The un-instrumented in-process per-token (`batch == 1`)
    /// measurement for a `(counter, network, threads)` cell, if swept.
    pub fn cell(&self, counter: &str, network: &str, threads: usize) -> Option<&Measurement> {
        self.measurements.iter().find(|m| {
            !m.audited
                && m.transport == Measurement::TRANSPORT_MEMORY
                && m.batch == 1
                && m.counter == counter
                && m.network == network
                && m.threads == threads
        })
    }

    /// The in-process batched measurement for a `(counter, network,
    /// threads, batch)` cell, if swept (`batch == 1` resolves to the
    /// plain per-token row).
    pub fn batch_cell(
        &self,
        counter: &str,
        network: &str,
        threads: usize,
        batch: usize,
    ) -> Option<&Measurement> {
        if batch == 1 {
            return self.cell(counter, network, threads);
        }
        self.measurements.iter().find(|m| {
            !m.audited
                && m.transport == Measurement::TRANSPORT_MEMORY
                && m.batch == batch
                && m.counter == counter
                && m.network == network
                && m.threads == threads
        })
    }

    /// Throughput ratio of the `batch == k` row over the per-token row on
    /// the same cell — the amortization factor batched traversal buys.
    pub fn batch_speedup(
        &self,
        counter: &str,
        network: &str,
        threads: usize,
        batch: usize,
    ) -> Option<f64> {
        let batched = self.batch_cell(counter, network, threads, batch)?;
        let single = self.cell(counter, network, threads)?;
        Some(batched.mops / single.mops)
    }

    /// The audited (recorder-on) in-process measurement for a cell, if
    /// swept.
    pub fn audited_cell(
        &self,
        counter: &str,
        network: &str,
        threads: usize,
    ) -> Option<&Measurement> {
        self.measurements.iter().find(|m| {
            m.audited
                && m.transport == Measurement::TRANSPORT_MEMORY
                && m.audit_threads == 0
                && m.sample_k == 1
                && m.counter == counter
                && m.network == network
                && m.threads == threads
        })
    }

    /// The consistency-sweep measurement (schema v6: carries measured
    /// `qqc_max`/`qqc_mean`/`f_nl`) for a cell, if swept — rows appended
    /// by `cnet bench --sweep consistency`. Distinguished from plain
    /// audited rows by the presence of the QQC fields.
    pub fn consistency_cell(
        &self,
        counter: &str,
        network: &str,
        threads: usize,
    ) -> Option<&Measurement> {
        self.measurements.iter().find(|m| {
            m.audited
                && m.qqc_max.is_some()
                && m.transport == Measurement::TRANSPORT_MEMORY
                && m.counter == counter
                && m.network == network
                && m.threads == threads
        })
    }

    /// The single-server networked (loopback-TCP) measurement for a cell,
    /// if measured — rows appended by `cnet bench --net` or `cnet loadgen
    /// --out`. When several connection counts were swept this returns the
    /// first; use [`net_cell_at`](Self::net_cell_at) to pick one, and
    /// [`cluster_cell`](Self::cluster_cell) for multi-node rows.
    pub fn net_cell(&self, counter: &str, network: &str, threads: usize) -> Option<&Measurement> {
        self.measurements.iter().find(|m| {
            m.transport == Measurement::TRANSPORT_TCP
                && m.nodes == 1
                && m.counter == counter
                && m.network == network
                && m.threads == threads
        })
    }

    /// The single-server networked measurement for a specific
    /// pooled-connection count (schema v4) — the cells of the reactor's
    /// connection-scaling sweep.
    pub fn net_cell_at(
        &self,
        counter: &str,
        network: &str,
        threads: usize,
        connections: usize,
    ) -> Option<&Measurement> {
        self.measurements.iter().find(|m| {
            m.transport == Measurement::TRANSPORT_TCP
                && m.nodes == 1
                && m.counter == counter
                && m.network == network
                && m.threads == threads
                && m.connections == connections
        })
    }

    /// The partitioned-fabric measurement (schema v5, `nodes > 1`) for a
    /// cell — the rows of the node-scaling sweep.
    pub fn cluster_cell(
        &self,
        counter: &str,
        network: &str,
        threads: usize,
        nodes: usize,
    ) -> Option<&Measurement> {
        self.measurements.iter().find(|m| {
            m.transport == Measurement::TRANSPORT_TCP
                && m.nodes == nodes
                && m.counter == counter
                && m.network == network
                && m.threads == threads
        })
    }

    /// The audited measurement for a specific `(audit_threads, sample_k)`
    /// parallel-audit combination (schema v7) — the cells of the
    /// retention-versus-audit-cost curve from `cnet bench --sweep audit`.
    pub fn audit_cell_at(
        &self,
        counter: &str,
        network: &str,
        threads: usize,
        audit_threads: usize,
        sample_k: usize,
    ) -> Option<&Measurement> {
        self.measurements.iter().find(|m| {
            m.audited
                && m.audit_threads == audit_threads
                && m.sample_k == sample_k
                && m.counter == counter
                && m.network == network
                && m.threads == threads
        })
    }

    /// Fraction of un-audited throughput the audited run retains on the
    /// same cell — `1.0` means the recorder was free, `0.8` is the floor
    /// the observability layer promises (see DESIGN.md).
    ///
    /// Prefers the paired [`Measurement::retention`] stored on the
    /// audited row (schema v7: plain and audited timed interleaved, so
    /// the ratio is drift-immune). For rows without one — pre-v7
    /// artifacts, consistency rows — it pairs the audited row with the
    /// plain row of the *same* transport, batch, connection count, and
    /// node count, so tcp, cluster, consistency, and relaxed-backend
    /// cells all resolve, not just plain in-process pairs.
    pub fn retention(&self, counter: &str, network: &str, threads: usize) -> Option<f64> {
        self.measurements
            .iter()
            .filter(|m| {
                m.audited && m.counter == counter && m.network == network && m.threads == threads
            })
            .find_map(|audited| {
                if let Some(r) = audited.retention {
                    return Some(r);
                }
                let plain = self.measurements.iter().find(|m| {
                    !m.audited
                        && m.counter == audited.counter
                        && m.network == audited.network
                        && m.threads == audited.threads
                        && m.transport == audited.transport
                        && m.batch == audited.batch
                        && m.connections == audited.connections
                        && m.nodes == audited.nodes
                })?;
                Some(audited.mops / plain.mops)
            })
    }

    /// Throughput ratio `a / b` between two counters on the same network
    /// and thread count — e.g. `speedup("combining", "compiled",
    /// "bitonic", 8)` is what the combining funnel gains over the plain
    /// compiled traversal.
    pub fn speedup(&self, a: &str, b: &str, network: &str, threads: usize) -> Option<f64> {
        let a = self.cell(a, network, threads)?;
        let b = self.cell(b, network, threads)?;
        Some(a.mops / b.mops)
    }

    /// Renders the human-readable summary: one row per thread count, one
    /// column per counter/network combination, in Mops/s.
    pub fn summary(&self) -> Table {
        #[allow(clippy::type_complexity)]
        let mut columns: Vec<(String, String, bool, String, usize, usize, usize, bool, usize, usize)> =
            Vec::new();
        for m in &self.measurements {
            let key = (
                m.counter.clone(),
                m.network.clone(),
                m.audited,
                m.transport.clone(),
                m.batch,
                m.connections,
                m.nodes,
                m.qqc_max.is_some(),
                m.audit_threads,
                m.sample_k,
            );
            if !columns.contains(&key) {
                columns.push(key);
            }
        }
        let mut headers = vec!["threads".to_string()];
        headers.extend(columns.iter().map(
            |(c, n, audited, transport, batch, connections, nodes, qqc, audit_threads, sample_k)| {
                let mut label = if n == "-" { c.clone() } else { format!("{c}/{n}") };
                if *qqc {
                    label.push_str("+qqc");
                } else if *audited {
                    label.push_str("+audit");
                }
                if transport != Measurement::TRANSPORT_MEMORY {
                    label.push('@');
                    label.push_str(transport);
                }
                if *batch > 1 {
                    label.push_str(&format!(" x{batch}"));
                }
                if *connections > 0 {
                    label.push_str(&format!(" c{connections}"));
                }
                if *nodes > 1 {
                    label.push_str(&format!(" n{nodes}"));
                }
                if *audit_threads > 0 {
                    label.push_str(&format!(" a{audit_threads}"));
                }
                if *sample_k > 1 {
                    label.push_str(&format!(" s{sample_k}"));
                }
                label
            },
        ));
        let mut table = Table::new(headers);
        let mut threads_seen: Vec<usize> = Vec::new();
        for m in &self.measurements {
            if !threads_seen.contains(&m.threads) {
                threads_seen.push(m.threads);
            }
        }
        for &t in &threads_seen {
            let mut row = vec![t.to_string()];
            for (c, n, audited, transport, batch, connections, nodes, qqc, audit_threads, sample_k) in
                &columns
            {
                let cell = self.measurements.iter().find(|m| {
                    m.counter == *c
                        && m.network == *n
                        && m.audited == *audited
                        && m.transport == *transport
                        && m.batch == *batch
                        && m.connections == *connections
                        && m.nodes == *nodes
                        && m.qqc_max.is_some() == *qqc
                        && m.audit_threads == *audit_threads
                        && m.sample_k == *sample_k
                        && m.threads == t
                });
                row.push(cell.map_or("-".to_string(), |m| format!("{:.2}", m.mops)));
            }
            table.row(row);
        }
        table
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnet_util::json;

    fn tiny() -> ThroughputConfig {
        ThroughputConfig {
            fan: 4,
            threads: vec![1, 2],
            ops_per_thread: 200,
            repeats: 1,
            batches: Vec::new(),
        }
    }

    #[test]
    fn sweep_covers_every_cell() {
        let report = run_throughput_sweep(&tiny());
        // Per thread count: fetch_add, lock, compiled × 3 networks,
        // diffracting, combining, plus audited compiled × 3 networks and
        // audited diffracting.
        assert_eq!(report.measurements.len(), 2 * 11);
        for m in &report.measurements {
            assert_eq!(m.total_ops, m.threads * 200);
            assert!(m.seconds > 0.0, "{m:?}");
            assert!(m.mops > 0.0, "{m:?}");
        }
        assert!(report.cell("compiled", "bitonic", 2).is_some());
        assert!(report.cell("compiled", "periodic", 1).is_some());
        assert!(report.cell("diffracting", "tree", 2).is_some());
        assert!(report.cell("combining", "bitonic", 2).is_some());
        assert!(report.cell("compiled", "bitonic", 64).is_none());
        // The audited rows are distinct cells with the flag set.
        assert!(!report.cell("compiled", "bitonic", 2).unwrap().audited);
        assert!(report.audited_cell("compiled", "bitonic", 2).unwrap().audited);
        assert!(report.audited_cell("diffracting", "tree", 1).is_some());
        assert!(report.audited_cell("combining", "bitonic", 1).is_none());
    }

    #[test]
    fn retention_compares_audited_against_plain() {
        let report = run_throughput_sweep(&tiny());
        let r = report.retention("compiled", "bitonic", 2).unwrap();
        assert!(r.is_finite() && r > 0.0, "retention {r}");
        assert!(report.retention("combining", "bitonic", 2).is_none());
        assert!(report.retention("compiled", "bitonic", 64).is_none());
        // Schema v7: the audited row stores the paired ratio directly,
        // and the accessor prefers it over re-deriving from separate
        // cells.
        let audited = report.audited_cell("compiled", "bitonic", 2).unwrap();
        assert_eq!(Some(r), audited.retention);
    }

    #[test]
    fn retention_pairs_tcp_cluster_and_consistency_rows() {
        let mut report = run_throughput_sweep(&tiny());
        // A tcp plain/audited pair on a cell with no memory audited row:
        // retention must match *within* the transport, not across it.
        let template = report.cell("fetch_add", "-", 2).unwrap().clone();
        let mut plain_tcp = template.clone();
        plain_tcp.transport = Measurement::TRANSPORT_TCP.to_string();
        plain_tcp.mops = 10.0;
        let mut audited_tcp = plain_tcp.clone();
        audited_tcp.audited = true;
        audited_tcp.mops = 8.0;
        report.measurements.push(plain_tcp);
        report.measurements.push(audited_tcp);
        let r = report.retention("fetch_add", "-", 2).unwrap();
        assert!((r - 0.8).abs() < 1e-12, "tcp retention {r}");
        // A cluster pair (nodes = 3) for a counter with no other rows.
        let mut plain_cluster = template.clone();
        plain_cluster.counter = "cluster".to_string();
        plain_cluster.transport = Measurement::TRANSPORT_TCP.to_string();
        plain_cluster.nodes = 3;
        plain_cluster.mops = 4.0;
        let mut audited_cluster = plain_cluster.clone();
        audited_cluster.audited = true;
        audited_cluster.mops = 3.0;
        report.measurements.push(plain_cluster);
        report.measurements.push(audited_cluster);
        let r = report.retention("cluster", "-", 2).unwrap();
        assert!((r - 0.75).abs() < 1e-12, "cluster retention {r}");
        // Consistency rows (audited, no stored retention) pair with the
        // plain memory cell of the same shape.
        report.measurements.extend(run_consistency_sweep(&tiny(), 4));
        assert!(report.retention("diffracting", "tree", 2).is_some());
    }

    #[test]
    fn audit_sweep_traces_the_retention_curve() {
        let rows = run_audit_sweep(&tiny(), 4);
        // Per thread count: plain compiled + one audited row per sweep
        // point + plain/audited pairs for relaxed and elimination.
        assert_eq!(rows.len(), 2 * (1 + AUDIT_SWEEP_POINTS.len() + 4));
        let mut report = run_throughput_sweep(&tiny());
        report.measurements = rows;
        for &(audit_threads, sample_k) in &AUDIT_SWEEP_POINTS {
            let m = report
                .audit_cell_at("compiled", "bitonic", 2, audit_threads, sample_k)
                .unwrap();
            assert!(m.audited);
            let r = m.retention.expect("sweep rows store paired retention");
            assert!(r.is_finite() && r > 0.0, "{m:?}");
        }
        // The relaxed backends resolve through the accessor (satellite of
        // the v7 schema: retention is no longer compiled-only).
        assert!(report.retention("relaxed", "-", 2).is_some());
        assert!(report.retention("elimination", "bitonic", 2).is_some());
        // Live rows are distinct summary columns, labelled by their
        // audit-thread and sampling parameters.
        let rendered = report.summary().to_string();
        assert!(rendered.contains("compiled/bitonic+audit a2"), "{rendered}");
        assert!(rendered.contains("compiled/bitonic+audit s8"), "{rendered}");
        assert!(rendered.contains("compiled/bitonic+audit a2 s8"), "{rendered}");
    }

    #[test]
    fn pre_v7_rows_default_the_audit_pipeline_columns() {
        // A schema-v6 audited row: no retention, audit_threads, sample_k.
        let text = concat!(
            r#"{"counter":"compiled","network":"bitonic","threads":8,"#,
            r#""total_ops":160000,"seconds":0.01,"mops":16.0,"audited":true,"#,
            r#""transport":"memory","batch":1,"oversubscribed":true,"#,
            r#""connections":0,"p50_ns":null,"p99_ns":null,"p999_ns":null,"#,
            r#""nodes":1,"qqc_max":null,"qqc_mean":null,"f_nl":null}"#
        );
        let m: Measurement = json::from_str(text).expect("v6 row parses");
        assert_eq!(m.retention, None);
        assert_eq!(m.audit_threads, 0);
        assert_eq!(m.sample_k, 1);
        let back: Measurement = json::from_str(&json::to_string_pretty(&m)).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn measurement_transport_defaults_to_memory_when_absent() {
        // A pre-`transport` schema-v2 row (as committed by earlier PRs).
        let text = concat!(
            r#"{"counter":"fetch_add","network":"-","threads":2,"#,
            r#""total_ops":100,"seconds":0.5,"mops":0.0002,"audited":false}"#
        );
        let m: Measurement = json::from_str(text).expect("legacy row parses");
        assert_eq!(m.transport, Measurement::TRANSPORT_MEMORY);
        // Re-serialized rows carry the field explicitly and round-trip.
        let back: Measurement = json::from_str(&json::to_string_pretty(&m)).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn tcp_rows_are_separate_cells() {
        let mut report = run_throughput_sweep(&tiny());
        assert!(report.net_cell("fetch_add", "-", 2).is_none());
        let mut tcp = report.cell("fetch_add", "-", 2).unwrap().clone();
        tcp.transport = Measurement::TRANSPORT_TCP.to_string();
        tcp.mops /= 100.0;
        report.measurements.push(tcp);
        // The tcp row neither shadows nor is shadowed by the memory row.
        assert!(report.net_cell("fetch_add", "-", 2).is_some());
        assert!(!report
            .cell("fetch_add", "-", 2)
            .unwrap()
            .transport
            .contains("tcp"));
        let rendered = report.summary().to_string();
        assert!(rendered.contains("fetch_add@tcp"));
    }

    #[test]
    fn report_round_trips_through_json() {
        let report = run_throughput_sweep(&tiny());
        let text = json::to_string_pretty(&report);
        let back: ThroughputReport = json::from_str(&text).expect("report parses");
        assert_eq!(back, report);
        assert_eq!(back.version, 7);
        assert_eq!(back.fan, 4);
        assert!(back.measurements.iter().any(|m| m.audited));
    }

    #[test]
    fn consistency_sweep_reports_qqc_on_every_row() {
        let cfg = tiny();
        let rows = run_consistency_sweep(&cfg, 4);
        // Per thread count: fetch_add, lock, compiled/bitonic,
        // diffracting/tree, combining/bitonic, relaxed, elimination.
        assert_eq!(rows.len(), 2 * 7);
        for m in &rows {
            assert!(m.audited, "{m:?}");
            assert!(m.qqc_max.is_some(), "{m:?}");
            assert!(m.qqc_mean.is_some(), "{m:?}");
            assert!(m.f_nl.is_some(), "{m:?}");
            assert!(m.qqc_mean.unwrap() >= 0.0, "{m:?}");
            assert!(m.mops > 0.0, "{m:?}");
        }
        // Single-threaded runs are trivially linearizable: zero lateness.
        for m in rows.iter().filter(|m| m.threads == 1) {
            assert_eq!(m.qqc_max, Some(0), "{m:?}");
            assert_eq!(m.f_nl, Some(0.0), "{m:?}");
        }
        // A clean stream and the fraction meter must agree: F_nl == 0
        // exactly when the max lateness is 0 (flag ⇔ lateness > 0).
        for m in &rows {
            assert_eq!(
                m.f_nl == Some(0.0),
                m.qqc_max == Some(0),
                "F_nl and qqc_max disagree: {m:?}"
            );
        }
    }

    #[test]
    fn consistency_rows_merge_without_shadowing_plain_cells() {
        let cfg = tiny();
        let mut report = run_throughput_sweep(&cfg);
        report.measurements.extend(run_consistency_sweep(&cfg, 4));
        // New accessors find the qqc-bearing rows...
        let c = report.consistency_cell("relaxed", "-", 2).unwrap();
        assert!(c.qqc_max.is_some());
        assert!(report.consistency_cell("elimination", "bitonic", 1).is_some());
        assert!(report.consistency_cell("compiled", "periodic", 1).is_none());
        // ...while the plain and audited accessors still resolve to the
        // original rows (no qqc fields).
        assert!(report.cell("compiled", "bitonic", 2).unwrap().qqc_max.is_none());
        assert!(report
            .audited_cell("compiled", "bitonic", 2)
            .unwrap()
            .qqc_max
            .is_none());
        // The summary renders the qqc rows as their own columns.
        let rendered = report.summary().to_string();
        assert!(rendered.contains("relaxed+qqc"), "{rendered}");
        assert!(rendered.contains("compiled/bitonic+qqc"), "{rendered}");
        assert!(rendered.contains("compiled/bitonic+audit"), "{rendered}");
        // And the merged report round-trips at schema v6.
        let text = json::to_string_pretty(&report);
        let back: ThroughputReport = json::from_str(&text).expect("report parses");
        assert_eq!(back, report);
    }

    #[test]
    fn batched_rows_are_separate_cells_with_speedups() {
        let report = run_throughput_sweep(&ThroughputConfig {
            batches: vec![1, 8],
            ..tiny()
        });
        // batch=1 maps to the plain rows; batch=8 adds fetch_add +
        // compiled × 3 families per thread count.
        assert_eq!(report.measurements.len(), 2 * (11 + 4));
        let plain = report.cell("compiled", "bitonic", 2).unwrap();
        assert_eq!(plain.batch, 1);
        let batched = report.batch_cell("compiled", "bitonic", 2, 8).unwrap();
        assert_eq!(batched.batch, 8);
        assert_eq!(batched.total_ops, plain.total_ops);
        assert!(report.batch_cell("compiled", "bitonic", 2, 1).is_some());
        assert!(report.batch_cell("lock", "-", 2, 8).is_none());
        let s = report.batch_speedup("compiled", "bitonic", 2, 8).unwrap();
        assert!(s.is_finite() && s > 0.0);
        let rendered = report.summary().to_string();
        assert!(rendered.contains("compiled/bitonic x8"), "{rendered}");
        assert!(rendered.contains("fetch_add x8"), "{rendered}");
    }

    #[test]
    fn oversubscription_is_flagged_against_host_cores() {
        let report = run_throughput_sweep(&tiny());
        let cores = report.cores;
        for m in &report.measurements {
            assert_eq!(m.oversubscribed, m.threads > cores, "{m:?}");
        }
    }

    #[test]
    fn pre_v3_rows_default_batch_and_oversubscribed() {
        // A schema-v2 row: no batch, no oversubscribed fields.
        let text = concat!(
            r#"{"counter":"compiled","network":"bitonic","threads":4,"#,
            r#""total_ops":100,"seconds":0.5,"mops":0.0002,"audited":false,"#,
            r#""transport":"memory"}"#
        );
        let m: Measurement = json::from_str(text).expect("legacy row parses");
        assert_eq!(m.batch, 1);
        assert!(!m.oversubscribed);
        // Schema-v3 fields round-trip through cnet-util JSON.
        let back: Measurement = json::from_str(&json::to_string_pretty(&m)).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn pre_v4_rows_default_connections_and_percentiles() {
        // A schema-v3 tcp row: no connections, no latency percentiles.
        let text = concat!(
            r#"{"counter":"fetch_add","network":"-","threads":2,"#,
            r#""total_ops":100,"seconds":0.5,"mops":0.0002,"audited":false,"#,
            r#""transport":"tcp","batch":16,"oversubscribed":false}"#
        );
        let m: Measurement = json::from_str(text).expect("v3 row parses");
        assert_eq!(m.connections, 0);
        assert_eq!(m.p50_ns, None);
        assert_eq!(m.p99_ns, None);
        assert_eq!(m.p999_ns, None);
        // Missing percentiles serialize as explicit nulls and round-trip.
        let serialized = json::to_string_pretty(&m);
        assert!(serialized.contains("\"p99_ns\": null"), "{serialized}");
        let back: Measurement = json::from_str(&serialized).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn connection_counts_are_distinct_tcp_cells() {
        let mut report = run_throughput_sweep(&tiny());
        let template = report.cell("fetch_add", "-", 2).unwrap().clone();
        for (connections, p99) in [(64usize, 40_000u64), (1024, 55_000)] {
            let mut row = template.clone();
            row.transport = Measurement::TRANSPORT_TCP.to_string();
            row.connections = connections;
            row.p50_ns = Some(p99 / 2);
            row.p99_ns = Some(p99);
            row.p999_ns = Some(p99 * 2);
            report.measurements.push(row);
        }
        let small = report.net_cell_at("fetch_add", "-", 2, 64).unwrap();
        let large = report.net_cell_at("fetch_add", "-", 2, 1024).unwrap();
        assert_eq!(small.p99_ns, Some(40_000));
        assert_eq!(large.p99_ns, Some(55_000));
        assert!(report.net_cell_at("fetch_add", "-", 2, 10_000).is_none());
        // net_cell still finds *a* tcp row, and the summary keeps one
        // column per connection count.
        assert!(report.net_cell("fetch_add", "-", 2).is_some());
        let rendered = report.summary().to_string();
        assert!(rendered.contains("fetch_add@tcp c64"), "{rendered}");
        assert!(rendered.contains("fetch_add@tcp c1024"), "{rendered}");
    }

    #[test]
    fn speedup_and_summary_read_the_cells() {
        let report = run_throughput_sweep(&tiny());
        let s = report.speedup("combining", "compiled", "bitonic", 1).unwrap();
        assert!(s.is_finite() && s > 0.0);
        assert!(report.speedup("combining", "compiled", "bitonic", 7).is_none());
        assert!(report.speedup("combining", "compiled", "tree", 1).is_none());
        let rendered = report.summary().to_string();
        assert!(rendered.contains("compiled/bitonic"));
        assert!(rendered.contains("compiled/tree"));
        assert!(rendered.contains("fetch_add"));
        assert!(rendered.contains("compiled/bitonic+audit"));
        assert!(rendered.contains("diffracting/tree+audit"));
    }
}
