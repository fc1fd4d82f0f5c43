//! The closed-loop load driver every workload shares: warm up, then run
//! bursts back to back through a timed region cut into windows.
//!
//! Closed loop because that is what a counter's callers are: each waits for
//! its value before asking for the next, so a slower system is offered less
//! load and no queue can build up in front of it.

use crate::spans::{Tracer, TRACING};
use crate::stats::quantile_ns;
use crate::sys;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

/// How long to warm up and how to cut the timed region.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    /// Bursts run and discarded before the timed region, so caches, lazily
    /// dialed connections and allocator pools are in their steady state.
    pub warmup: Duration,
    /// Number of windows in the timed region.
    pub windows: usize,
    /// Length of one window.
    pub window: Duration,
    /// Traced run: odd windows record spans and count allocations, even
    /// ones do not, so one run yields the tracing overhead as well.
    pub traced: bool,
}

impl Plan {
    /// The untraced plan for a region of `seconds`: one-second windows after
    /// a warm-up of two seconds, shortened with the region for smoke runs.
    pub fn untraced(seconds: u32) -> Plan {
        Plan {
            warmup: Duration::from_secs_f64((f64::from(seconds) / 2.0).min(2.0)),
            windows: seconds as usize,
            window: Duration::from_secs(1),
            traced: false,
        }
    }

    /// The traced plan: two thirds of `seconds` in alternating untraced and
    /// traced windows. The last third is the replay ladder's.
    pub fn traced(seconds: u32) -> Plan {
        Plan {
            windows: ((seconds as usize * 2 / 3) & !1).max(2),
            traced: true,
            ..Plan::untraced(seconds)
        }
    }

    /// A short plan for a ladder rung lasting `span`: a tenth of it to warm
    /// up, then a single window.
    pub fn rung(span: Duration) -> Plan {
        Plan { warmup: span / 10, windows: 1, window: span, traced: false }
    }
}

/// What one load thread measured in one window.
#[derive(Clone, Copy, Debug)]
pub struct Window {
    /// Whether spans were recorded during it.
    pub traced: bool,
    /// Wall time from the window's first burst start to its last burst end.
    pub secs: f64,
    /// Operations completed.
    pub ops: u64,
    /// Bursts completed, which is the number of round-trip samples.
    pub bursts: u64,
    /// Median burst round trip.
    pub p50_ns: f64,
    /// 99th percentile burst round trip.
    pub p99_ns: f64,
    /// Process CPU time consumed during the window (lead thread only).
    pub process_cpu_ns: u64,
}

/// What one load thread measured over the whole run.
#[derive(Clone, Debug, Default)]
pub struct Driven {
    /// One entry per completed window.
    pub windows: Vec<Window>,
    /// Operations started, warm-up included.
    pub attempted: u64,
    /// Operations whose burst returned an error.
    pub failed: u64,
    /// This thread's CPU time over the timed region.
    pub thread_cpu_ns: u64,
    /// The error that ended the run early, if one did.
    pub error: Option<String>,
}

/// A burst that failed: how many operations it had attempted, and why.
pub type BurstError = (u64, String);

/// Runs `burst` in a closed loop under `plan` and returns the per-window
/// measurements.
///
/// `burst` performs one burst, checks and folds what it received, and
/// returns the number of operations completed. The time from one burst's
/// end to the next one's end is one round-trip sample: what a caller
/// issuing bursts back to back waits per burst.
///
/// The `lead` thread (one per run) additionally reads the process CPU clock
/// at window boundaries, flips [`TRACING`], and calls `edge` at the start
/// and at the end of the timed region so the workload can snapshot
/// whatever else it diffs over the region (server statistics, other
/// threads' CPU clocks).
///
/// The first failing burst ends the run: a counter that lost a request can
/// no longer hand out exactly `0..n`, and the workloads are chosen so that
/// no operation fails.
pub fn drive(
    plan: &Plan,
    lead: bool,
    tracer: &mut Tracer,
    edge: &mut dyn FnMut(),
    mut burst: impl FnMut(&mut Tracer) -> Result<u64, BurstError>,
) -> Driven {
    let mut out = Driven::default();
    let fail = |out: &mut Driven, (ops, msg): BurstError| {
        out.attempted += ops;
        out.failed += ops;
        out.error = Some(msg);
    };
    let warm = Instant::now();
    while warm.elapsed() < plan.warmup {
        match burst(tracer) {
            Ok(ops) => out.attempted += ops,
            Err(e) => {
                fail(&mut out, e);
                return out;
            }
        }
    }
    // Room for a window of `tcp_token`, so the first window does not pay for
    // the buffer's growth.
    let mut samples: Vec<u32> = Vec::with_capacity(1 << 17);
    if lead {
        edge();
    }
    let cpu_start = sys::thread_cpu_ns();
    'region: for w in 0..plan.windows {
        let traced = plan.traced && w % 2 == 1;
        tracer.on = traced;
        if lead {
            TRACING.store(traced, Ordering::Relaxed);
        }
        samples.clear();
        let process_cpu = if lead { sys::process_cpu_ns() } else { 0 };
        let start = Instant::now();
        let (mut prev, mut ops) = (start, 0u64);
        while prev.duration_since(start) < plan.window {
            tracer.begin_burst();
            match burst(tracer) {
                Ok(n) => ops += n,
                Err(e) => {
                    out.attempted += ops;
                    fail(&mut out, e);
                    break 'region;
                }
            }
            let now = Instant::now();
            tracer.end_burst("workload.burst", prev, now);
            samples.push(now.duration_since(prev).as_nanos().min(u128::from(u32::MAX)) as u32);
            prev = now;
        }
        out.attempted += ops;
        out.windows.push(Window {
            traced,
            secs: prev.duration_since(start).as_secs_f64(),
            ops,
            bursts: samples.len() as u64,
            p50_ns: f64::from(quantile_ns(&mut samples, 0.5)),
            p99_ns: f64::from(quantile_ns(&mut samples, 0.99)),
            process_cpu_ns: if lead { sys::process_cpu_ns() - process_cpu } else { 0 },
        });
    }
    tracer.on = false;
    out.thread_cpu_ns = sys::thread_cpu_ns() - cpu_start;
    if lead {
        TRACING.store(false, Ordering::Relaxed);
        edge();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_plan() -> Plan {
        Plan {
            warmup: Duration::from_millis(5),
            windows: 3,
            window: Duration::from_millis(10),
            traced: false,
        }
    }

    #[test]
    fn windows_count_ops_and_samples() {
        let mut tracer = Tracer::new(Instant::now(), 1, false);
        let mut edges = 0;
        let d = drive(&tiny_plan(), true, &mut tracer, &mut || edges += 1, |_| {
            std::thread::sleep(Duration::from_micros(200));
            Ok(4)
        });
        assert_eq!((d.windows.len(), edges, d.failed), (3, 2, 0));
        for w in &d.windows {
            assert_eq!(w.ops, w.bursts * 4);
            assert!(w.p50_ns >= 200_000.0 && w.p99_ns >= w.p50_ns);
        }
        let timed: u64 = d.windows.iter().map(|w| w.ops).sum();
        assert!(d.attempted > timed, "warm-up ops count as attempted");
    }

    #[test]
    fn a_failing_burst_ends_the_run_and_counts_as_failed() {
        let mut tracer = Tracer::new(Instant::now(), 1, false);
        let mut calls = 0;
        let d = drive(&tiny_plan(), false, &mut tracer, &mut || {}, |_| {
            calls += 1;
            if calls == 3 {
                Err((7, "boom".to_string()))
            } else {
                Ok(1)
            }
        });
        assert_eq!((d.failed, d.attempted), (7, 9));
        assert_eq!(d.error.as_deref(), Some("boom"));
    }

    #[test]
    fn traced_plan_alternates_and_leaves_room_for_the_ladder() {
        let p = Plan::traced(15);
        assert_eq!((p.windows, p.traced), (10, true));
        assert_eq!(Plan::traced(1).windows, 2);
        assert_eq!(Plan::untraced(15).warmup, Duration::from_secs(2));
        assert_eq!(Plan::untraced(1).warmup, Duration::from_millis(500));
    }
}
