//! The counting-network workspace's benchmark: five pinned, time-based
//! workloads, every metric a median over one-second windows, a traced mode
//! with in-memory spans, and a replay ladder that prices each layer in
//! isolation. `README.md` beside this crate says who each number is for.
//!
//! The package stands outside the workspace on purpose. It measures the
//! crates through their public functions and through kernel clocks, so a
//! change that claims a gain cannot also change the ruler.
//!
//! | module | what it is |
//! |---|---|
//! | [`spec`] | names, units, directions and bounds of every metric and workload |
//! | [`load`] | the closed-loop driver: warm-up, windows, round-trip samples |
//! | [`service`] | `tcp_token`, `tcp_pipeline`, `cluster2_batch` and the ladder's socket rungs |
//! | [`mem`] | `mem_token`: two threads on the shared-memory network |
//! | [`replay`] | `audit_replay`: a simulated trace through the sharded audit |
//! | [`ladder`] | each layer's public entry points, driven in isolation |
//! | [`report`] | turning a run into named metrics and the result line |
//! | [`region`], [`spans`], [`stats`], [`check`], [`sys`] | the instruments |

#![warn(missing_docs)]

pub mod check;
pub mod ladder;
pub mod load;
pub mod mem;
pub mod region;
pub mod replay;
pub mod report;
pub mod service;
pub mod spans;
pub mod spec;
pub mod stats;
pub mod sys;

use std::time::Instant;

/// The two CPUs a run pins its threads to.
#[derive(Clone, Copy, Debug)]
pub struct Cpus {
    /// The request path: server threads and the load thread (or load
    /// thread 0 of `mem_token`).
    pub first: usize,
    /// The audit worker (or load thread 1 of `mem_token`).
    pub second: usize,
}

impl Cpus {
    /// The first two CPUs this process may run on.
    ///
    /// # Errors
    ///
    /// Fewer than two allowed CPUs. The load is sized for two, and numbers
    /// from a run that shares one CPU between roles meant to be apart would
    /// measure the scheduler, so there is no fallback.
    pub fn pick() -> Result<Cpus, String> {
        let allowed = sys::allowed_cpus().map_err(|e| format!("sched_getaffinity: {e}"))?;
        match allowed[..] {
            [first, second, ..] => Ok(Cpus { first, second }),
            _ => Err(format!(
                "the benchmark needs 2 CPUs to pin its roles apart and may run on {}",
                allowed.len()
            )),
        }
    }
}

/// What every workload is handed.
#[derive(Clone, Copy, Debug)]
pub struct Ctx {
    /// Seeds the generated inputs (only `audit_replay` has any).
    pub seed: u64,
    /// Warm-up and windows.
    pub plan: load::Plan,
    /// Where to pin.
    pub cpus: Cpus,
    /// Zero of the span clock.
    pub origin: Instant,
}

impl Ctx {
    /// A tracer for thread number `thread` of this run.
    pub fn tracer(&self, thread: u64) -> spans::Tracer {
        spans::Tracer::new(self.origin, thread, self.plan.traced)
    }
}

/// Everything one run of one workload measured.
#[derive(Debug, Default)]
pub struct Run {
    /// Start of set-up to the first warm-up operation.
    pub setup_s: f64,
    /// Set-up stages by name, in milliseconds.
    pub stages: Vec<(&'static str, f64)>,
    /// One entry per load thread.
    pub driven: Vec<load::Driven>,
    /// Totals over the timed region.
    pub region: region::Region,
    /// The audit's verdict, for the workloads that audit.
    pub audit: Option<service::AuditSummary>,
    /// Outcomes of the correctness checks.
    pub checks: Vec<check::Check>,
    /// Every thread's spans.
    pub tracers: Vec<spans::Tracer>,
}

/// A named set-up stage: runs `f`, adds its duration to `run.stages` and
/// records it as a span.
pub fn stage<T>(
    run: &mut Run,
    tracer: &mut spans::Tracer,
    name: &'static str,
    f: impl FnOnce() -> T,
) -> T {
    let start = Instant::now();
    let out = f();
    let end = Instant::now();
    tracer.stage(name, start, end);
    let ms = end.duration_since(start).as_secs_f64() * 1e3;
    match run.stages.iter_mut().find(|(n, _)| *n == name) {
        Some((_, total)) => *total += ms,
        None => run.stages.push((name, ms)),
    }
    out
}
