//! From a finished run to named metrics, a readable report and the result
//! line the driver parses.

use crate::ladder::{attributed_ns_per_op, Rungs};
use crate::spans::{self_times, Tracer};
use crate::spec::{metric, object, Metric, Workload, END_TO_END, PER_LAYER};
use crate::stats::{summarize, Summary};
use crate::sys::Host;
use crate::{Cpus, Run};
use cnet_util::json::Value;

/// One window of the whole run: the load threads' windows of one index
/// taken together.
struct Merged {
    traced: bool,
    ops_per_s: f64,
    cpu_ns_per_op: f64,
    p50_us: f64,
    p99_us: f64,
    samples: u64,
}

/// Rates add across load threads; a window's percentile is the mean of the
/// threads' percentiles (one thread everywhere but `mem_token`).
fn merged_windows(run: &Run) -> Vec<Merged> {
    let threads = run.driven.len() as f64;
    let count = run.driven.iter().map(|d| d.windows.len()).min().unwrap_or(0);
    (0..count)
        .map(|i| {
            let ws = || run.driven.iter().map(move |d| &d.windows[i]);
            // Only the lead thread reads the process clock, so the sum is its.
            let process_cpu_ns: u64 = ws().map(|w| w.process_cpu_ns).sum();
            Merged {
                traced: ws().any(|w| w.traced),
                ops_per_s: ws().map(|w| w.ops as f64 / w.secs).sum(),
                cpu_ns_per_op: process_cpu_ns as f64 / ws().map(|w| w.ops).sum::<u64>() as f64,
                p50_us: ws().map(|w| w.p50_ns).sum::<f64>() / threads / 1e3,
                p99_us: ws().map(|w| w.p99_ns).sum::<f64>() / threads / 1e3,
                samples: ws().map(|w| w.bursts).sum(),
            }
        })
        .collect()
}

/// A metric's value, and for the windowed ones how the windows spread.
#[derive(Clone, Copy, Debug)]
pub struct Measured {
    /// Which metric.
    pub metric: &'static Metric,
    /// The reported value.
    pub value: f64,
    /// Median, extremes and MAD over windows, when the value is a median
    /// over windows.
    pub windows: Option<Summary>,
}

fn measured(name: &str, value: f64, windows: Option<Summary>) -> Measured {
    let metric = metric(name).unwrap_or_else(|| panic!("{name} is not in the spec tables"));
    Measured { metric, value, windows }
}

/// Summarizes `f` over the windows that `keep`; `None` when none did.
fn over_windows(
    windows: &[Merged],
    keep: impl Fn(&Merged) -> bool,
    f: fn(&Merged) -> f64,
) -> Option<Summary> {
    let values: Vec<f64> = windows.iter().filter(|w| keep(w)).map(f).collect();
    (!values.is_empty()).then(|| summarize(&values))
}

/// The end-to-end metrics of an untraced run. `setup_s` is the median over
/// the run's repeated set-ups, `rss_peak_mb` the process's `VmHWM` now.
pub fn end_to_end(run: &Run, setup_s: f64, rss_peak_mb: f64) -> Vec<Measured> {
    let windows = merged_windows(run);
    let windowed = |name, f| {
        let s = over_windows(&windows, |_| true, f);
        measured(name, s.map_or(f64::NAN, |s| s.median), s)
    };
    let out = vec![
        measured("setup_s", setup_s, None),
        windowed("ops_per_s", |w| w.ops_per_s),
        windowed("cpu_ns_per_op", |w| w.cpu_ns_per_op),
        windowed("rtt_p50_us", |w| w.p50_us),
        measured("rss_peak_mb", rss_peak_mb, None),
    ];
    debug_assert_eq!(out.len(), END_TO_END.len());
    out
}

/// The per-layer metrics of a traced run: the ladder's rungs, plus what the
/// workload's own run shows by role (load threads are the client side; the
/// rest of the process but the audit worker is the server side) and through
/// the layers' public counters. A layer the workload bypasses reads 0 there.
pub fn per_layer(workload: Workload, run: &Run, rungs: &Rungs) -> Vec<Measured> {
    let r = &run.region;
    let windows = merged_windows(run);
    let over = |traced: bool, f: fn(&Merged) -> f64| {
        over_windows(&windows, |w| w.traced == traced, f).map_or(f64::NAN, |s| s.median)
    };
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let wakeups = r.head.wakeups + r.tail.wakeups;
    let audit = run.audit.as_ref();
    let in_situ = |name: &str| -> Option<f64> {
        Some(match name {
            "recorder.dropped" => audit.map_or(0.0, |a| a.dropped as f64),
            "recorder.skipped" => audit.map_or(0.0, |a| a.skipped as f64),
            "trace.coverage" => audit.map_or(0.0, |a| a.coverage()),
            "trace.buffered_peak" => audit.map_or(0.0, |a| a.buffered_peak as f64),
            "trace.non_lin" => audit.map_or(0.0, |a| a.non_lin as f64),
            "trace.non_sc" => audit.map_or(0.0, |a| a.non_sc as f64),
            "trace.qqc_max" => audit.map_or(0.0, |a| a.qqc_max as f64),
            "trace.qqc_p99" => audit.map_or(0.0, |a| a.qqc_p99 as f64),
            "trace.f_nl" => audit.map_or(0.0, |a| a.f_nl),
            "server.cpu_ns_per_op" => {
                (r.process_cpu_ns as f64 - r.load_cpu_ns as f64 - r.audit_cpu_ns as f64)
                    / r.ops.max(1) as f64
            }
            "server.wakeups_per_op" => ratio(wakeups, r.ops),
            "server.events_per_wakeup" => ratio(r.head.events + r.tail.events, wakeups),
            "server.frames_per_wakeup" => ratio(r.head.requests + r.tail.requests, wakeups),
            "server.allocs_per_op" => ratio(r.allocs[0], r.traced_ops),
            "client.allocs_per_op" => ratio(r.allocs[1], r.traced_ops),
            "process.sys_share" => r.sys_share,
            "client.cpu_ns_per_op" => r.per_op(r.load_cpu_ns),
            "ladder.unattributed_share" => {
                1.0 - attributed_ns_per_op(workload, rungs) / over(false, |w| w.cpu_ns_per_op)
            }
            "bench.trace_overhead_share" => {
                1.0 - over(true, |w| w.ops_per_s) / over(false, |w| w.ops_per_s)
            }
            "rtt_p99_us" => over(false, |w| w.p99_us),
            _ => return None,
        })
    };
    PER_LAYER
        .iter()
        .map(|m| {
            let value = rungs.get(m.name).copied().or_else(|| in_situ(m.name));
            measured(m.name, value.unwrap_or(f64::NAN), None)
        })
        .collect()
}

/// The fingerprint lines every output starts with.
pub fn print_fingerprint(
    host: &Host,
    cpus: &Cpus,
    workload: Workload,
    seed: u64,
    seconds: u32,
    plan: &crate::load::Plan,
) {
    println!(
        "# workload={} seed={seed} seconds={seconds} trace={} warmup_s={} windows={}x{}s",
        workload.name(),
        u8::from(plan.traced),
        plan.warmup.as_secs_f64(),
        plan.windows,
        plan.window.as_secs_f64(),
    );
    println!(
        "# host nproc={} cpus={:?} model={:?} kernel={} commit={}",
        host.cpus.len(),
        host.cpus,
        host.model,
        host.kernel,
        host.commit
    );
    let roles = match workload {
        Workload::MemToken => format!("load0=cpu{} load1=cpu{}", cpus.first, cpus.second),
        Workload::AuditReplay => format!("load=cpu{}", cpus.first),
        Workload::TcpToken | Workload::TcpPipeline | Workload::Cluster2Batch => {
            format!("load=cpu{0} server=cpu{0} audit=cpu{1}", cpus.first, cpus.second)
        }
    };
    println!("# pinned=true {roles} (a thread that cannot be pinned ends the run)");
}

fn fmt(v: f64) -> String {
    let a = v.abs();
    if v == 0.0 || (0.01..1e7).contains(&a) {
        format!("{:.*}", if a >= 100.0 { 1 } else { 4 }, v)
    } else {
        format!("{v:.4e}")
    }
}

/// Prints the run's stages, metrics, checks and, when traced, span summary.
pub fn print_run(run: &Run, metrics: &[Measured]) {
    for (name, ms) in &run.stages {
        println!("stage {name:<28} {:>12} ms", fmt(*ms));
    }
    let windows = merged_windows(run);
    let samples: Vec<u64> = windows.iter().map(|w| w.samples).collect();
    if let (Some(min), Some(max)) = (samples.iter().min(), samples.iter().max()) {
        println!("round-trip samples per window: {min}..{max}");
    }
    type Column = (&'static str, fn(&Merged) -> f64);
    let columns: [Column; 4] = [
        ("ops_per_s", |w| w.ops_per_s),
        ("cpu_ns_per_op", |w| w.cpu_ns_per_op),
        ("rtt_p50_us", |w| w.p50_us),
        ("rtt_p99_us", |w| w.p99_us),
    ];
    for (name, f) in columns {
        let row: Vec<String> = windows.iter().map(|w| fmt(f(w))).collect();
        println!("windows {name}: {}", row.join(" "));
    }
    println!(
        "{:<32} {:>6} {:>14} {:>14} {:>14} {:>12} {:>3}",
        "metric", "unit", "value", "min", "max", "mad", "n"
    );
    for m in metrics {
        match m.windows {
            Some(s) => println!(
                "{:<32} {:>6} {:>14} {:>14} {:>14} {:>12} {:>3}",
                m.metric.name,
                m.metric.unit,
                fmt(m.value),
                fmt(s.min),
                fmt(s.max),
                fmt(s.mad),
                s.n
            ),
            None => println!("{:<32} {:>6} {:>14}", m.metric.name, m.metric.unit, fmt(m.value)),
        }
    }
    let tracers: Vec<&Tracer> = run.tracers.iter().collect();
    for (name, n, mean, own) in self_times(&tracers) {
        println!("span {name:<28} n={n:<8} mean_ns={:<12} self_ns={}", fmt(mean), fmt(own));
    }
    for c in &run.checks {
        println!("check {} {} {}", c.name, if c.ok { "ok" } else { "FAILED" }, c.detail);
    }
    if let Some(a) = &run.audit {
        // Repeats exactly per seed; `--aa` compares this line between runs.
        println!("verdict non_lin={} non_sc={} qqc_max={}", a.non_lin, a.non_sc, a.qqc_max);
    }
}

/// Operations attempted and failed over the whole run. Besides operations
/// whose burst returned an error, every failed check counts as one failed
/// operation: a missing or duplicated value cannot be told apart by count,
/// but it must never leave `failed` at zero.
pub fn attempted_failed(run: &Run) -> (u64, u64) {
    let attempted: u64 = run.driven.iter().map(|d| d.attempted).sum();
    let failed: u64 = run.driven.iter().map(|d| d.failed).sum::<u64>()
        + run.checks.iter().filter(|c| !c.ok).count() as u64;
    (attempted.max(1), failed)
}

/// The result line: one JSON object with exactly the keys `correct`,
/// `attempted`, `failed` and `metrics`. A metric that could not be measured
/// (no window completed) makes the run incorrect.
pub fn result_line(run: &Run, metrics: &[Measured]) -> (bool, String) {
    let (attempted, failed) = attempted_failed(run);
    let measurable = metrics.iter().all(|m| m.value.is_finite());
    let correct = failed == 0 && measurable && run.driven.iter().all(|d| d.error.is_none());
    let metrics = metrics
        .iter()
        .map(|m| {
            let unit = Value::Str(m.metric.unit.to_string());
            (m.metric.name, object(vec![("value", Value::Float(m.value)), ("unit", unit)]))
        })
        .collect();
    let line = object(vec![
        ("correct", Value::Bool(correct)),
        ("attempted", Value::Int(attempted as i64)),
        ("failed", Value::Int(failed as i64)),
        ("metrics", object(metrics)),
    ]);
    (correct, line.to_json_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::{Check, ValueFold};
    use crate::load::{Driven, Window};

    fn run_with(fold: &ValueFold) -> Run {
        let window = Window {
            traced: false,
            secs: 1.0,
            ops: 1000,
            bursts: 1000,
            p50_ns: 8000.0,
            p99_ns: 20000.0,
            process_cpu_ns: 900_000_000,
        };
        let driven = Driven { windows: vec![window; 3], attempted: 3500, ..Driven::default() };
        let mut run = Run { driven: vec![driven], ..Run::default() };
        run.checks.push(Check::permutation(fold));
        run
    }

    #[test]
    fn a_clean_stream_reports_correct_and_every_end_to_end_metric() {
        let mut fold = ValueFold::default();
        (0..3500u64).for_each(|v| fold.add(v));
        let run = run_with(&fold);
        let metrics = end_to_end(&run, 0.01, 12.5);
        let (correct, line) = result_line(&run, &metrics);
        assert!(correct, "{line}");
        let parsed = cnet_util::json::parse(&line).unwrap();
        assert_eq!(parsed["failed"].as_u64(), Some(0));
        for m in END_TO_END {
            assert_eq!(parsed["metrics"][m.name]["unit"].as_str(), Some(m.unit));
            assert!(parsed["metrics"][m.name]["value"].as_f64().unwrap() > 0.0, "{}", m.name);
        }
        assert_eq!(parsed["metrics"]["ops_per_s"]["value"].as_f64(), Some(1000.0));
        assert_eq!(parsed["metrics"]["cpu_ns_per_op"]["value"].as_f64(), Some(900_000.0));
    }

    #[test]
    fn one_duplicated_value_makes_failed_share_nonzero() {
        let mut fold = ValueFold::default();
        (0..3500u64).map(|v| if v == 99 { 98 } else { v }).for_each(|v| fold.add(v));
        let run = run_with(&fold);
        let (attempted, failed) = attempted_failed(&run);
        assert!(failed as f64 / attempted as f64 > 0.0);
        let (correct, line) = result_line(&run, &end_to_end(&run, 0.01, 12.5));
        assert!(!correct);
        assert_eq!(cnet_util::json::parse(&line).unwrap()["correct"].as_bool(), Some(false));
    }
}
