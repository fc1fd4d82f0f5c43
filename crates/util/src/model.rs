//! A bounded-interleaving model checker for the workspace's lock-free
//! core (compiled only under the `model-check` feature).
//!
//! Stress tests sample a vanishing fraction of the interleavings of a
//! lock-free algorithm; this module *enumerates* them. Test code wraps a
//! scenario in [`explore`], which runs the scenario once per distinct
//! schedule of its 2–3 logical threads, exhaustively, up to a
//! **preemption bound** (CHESS-style: most real bugs need very few
//! preemptions, and bounding them keeps the schedule tree polynomial
//! where spin loops would otherwise make it exponential).
//!
//! ## How scheduling works
//!
//! Production code never imports this module directly. It uses the shim
//! types in [`crate::sync::atomic`] (plus the shim
//! [`crate::sync::Mutex`] and [`crate::sync::Backoff`]), which compile
//! to plain `std` re-exports normally. Under `model-check` every atomic
//! load/store/RMW first calls [`op_point`]: if the calling OS thread is
//! one of the scenario's logical threads, it parks until the scheduler
//! grants it permission to execute exactly one operation. Exactly one
//! logical thread runs at any instant, so an execution is fully
//! determined by the sequence of grant decisions — and that sequence is
//! driven by a depth-first search over a persistent decision stack,
//! giving exhaustive enumeration with deterministic replay.
//!
//! Decisions with a single runnable alternative are not recorded; the
//! branch points that remain form a **replay string**
//! (`v1:<threads>:<bound>:<tid>.<tid>...`) printed with every failure,
//! so any counterexample schedule reruns in one call to [`replay`].
//!
//! ## What is and is not explored
//!
//! * Explored: every sequentially consistent interleaving of shim
//!   atomic operations, shim `Mutex` acquisitions, and spin-loop yields
//!   ([`crate::sync::Backoff::snooze`] becomes a scheduling point), up
//!   to the preemption bound.
//! * Not explored: weak-memory (non-SC) reorderings — shim ops run at
//!   `SeqCst` regardless of the ordering argument; spurious
//!   `compare_exchange_weak` failures; `fetch_update` is treated as one
//!   atomic RMW rather than a load + CAS loop; `Condvar` waits are
//!   unsupported inside scenarios.
//!
//! Yield semantics keep spin loops finite: a thread that parks at a
//! yield point is ineligible to run until *every* other unfinished
//! thread has passed a scheduling point (the CHESS fairness rule —
//! anything weaker lets two spinners re-enable each other forever and
//! the schedule tree stops being finite). If only yielded threads
//! remain they become eligible again, and a per-execution step cap
//! converts true livelock or deadlock into a reported failure with a
//! replay string.
//!
//! Time is virtualized too: while a scenario is running,
//! [`crate::time::raw_ticks`] returns a strictly increasing logical
//! counter instead of `rdtsc`, so timestamp-dependent code (the trace
//! recorder) is deterministic under the model.

use std::cell::{Cell, RefCell};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64 as StdAtomicU64, Ordering as StdOrdering};
use std::sync::{Arc, Condvar, Mutex as StdMutex, MutexGuard, Once};

/// Sentinel distinguishing "no thread granted".
const NONE: usize = usize::MAX;

/// Per-execution scheduling-point cap: past this, the execution is
/// reported as livelock/divergence rather than explored further.
const STEP_CAP: usize = 200_000;

/// Kind of scheduling point a logical thread has parked at.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Point {
    /// About to execute an atomic operation (or lock attempt).
    Op,
    /// Spin-loop backoff: ineligible until another thread progresses.
    Yield,
    /// The thread's scenario closure returned.
    Finish,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Status {
    /// Granted and executing (or not yet parked).
    Running,
    /// Parked at a point, waiting for a grant.
    Parked(Point),
    Finished,
}

/// One recorded branch point of the DFS: which alternative was taken
/// out of the runnable set (only sets with ≥ 2 alternatives are
/// recorded).
struct Decision {
    chosen: usize,
    alternatives: Vec<usize>,
}

struct Core {
    status: Vec<Status>,
    /// Thread currently granted (or `NONE`).
    current: usize,
    /// True while `current` holds an unconsumed one-operation grant.
    token: bool,
    /// Threads that have reached the start barrier.
    started: usize,
    /// Per-thread fairness mask: while `yield_wait[t]` is non-zero, a
    /// thread parked at a yield stays ineligible; bit `u` means thread
    /// `u` has not passed a scheduling point since `t` yielded.
    yield_wait: Vec<u32>,
    preemptions: usize,
    steps: usize,
    /// Branch decisions consumed so far this execution.
    depth: usize,
    /// Persistent DFS decision stack (prefix replayed each execution).
    path: Vec<Decision>,
    /// Explicit replay mode: forced thread ids per branch point.
    forced: Option<Vec<usize>>,
    failed: Option<String>,
}

struct Sched {
    threads: usize,
    bound: usize,
    core: StdMutex<Core>,
    cv: Condvar,
}

/// Panic payload used to unwind parked threads during teardown after a
/// failure elsewhere; never reported as the failure itself.
struct Abort;

struct Ctx {
    sched: Arc<Sched>,
    tid: usize,
}

thread_local! {
    static CTX: RefCell<Option<Ctx>> = const { RefCell::new(None) };
    /// Set on the driver thread for the duration of explore/replay so
    /// `make`/`check` closures also see logical time.
    static DRIVER_SESSION: Cell<bool> = const { Cell::new(false) };
}

/// Process-global logical clock backing `time::raw_ticks` during model
/// sessions. Monotone forever; only relative order matters.
static LOGICAL_TICKS: StdAtomicU64 = StdAtomicU64::new(1);

/// `Some(tick)` when the calling thread is inside a model session (a
/// scenario logical thread, or the driver during make/run/check), else
/// `None`. Called by `crate::time::raw_ticks`; not a scheduling point.
pub(crate) fn logical_raw_ticks() -> Option<u64> {
    let modeled = CTX.try_with(|c| c.borrow().is_some()).unwrap_or(false)
        || DRIVER_SESSION.try_with(Cell::get).unwrap_or(false);
    if modeled {
        Some(LOGICAL_TICKS.fetch_add(1, StdOrdering::Relaxed))
    } else {
        None
    }
}

/// Whether the calling OS thread is a scenario logical thread. Used by
/// the shims to decide whether an operation must be scheduled.
pub fn thread_is_modeled() -> bool {
    CTX.try_with(|c| c.borrow().is_some()).unwrap_or(false)
}

fn with_ctx(f: impl FnOnce(&Sched, usize)) {
    let ctx = CTX.with(|c| c.borrow().as_ref().map(|x| (Arc::clone(&x.sched), x.tid)));
    if let Some((sched, tid)) = ctx {
        f(&sched, tid);
    }
}

/// Scheduling point before an atomic operation (no-op outside a
/// scenario thread). The shim atomics call this before every op.
#[inline]
pub fn op_point() {
    with_ctx(|sched, tid| sched.op_point_impl(tid));
}

/// Scheduling point for a spin-loop backoff: parks the thread until
/// some other thread has progressed (no-op outside a scenario thread).
#[inline]
pub fn yield_point() {
    with_ctx(|sched, tid| sched.park_entry(tid, Point::Yield));
}

impl Sched {
    fn lock(&self) -> MutexGuard<'_, Core> {
        self.core.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn op_point_impl(&self, tid: usize) {
        let mut core = self.lock();
        if core.failed.is_some() {
            drop(core);
            panic::panic_any(Abort);
        }
        if core.current == tid && core.token {
            // The grant covers exactly this one operation.
            core.token = false;
            return;
        }
        self.park(core, tid, Point::Op);
    }

    fn park_entry(&self, tid: usize, kind: Point) {
        let core = self.lock();
        if core.failed.is_some() {
            drop(core);
            panic::panic_any(Abort);
        }
        self.park(core, tid, kind);
    }

    /// Parks `tid` at a point, runs the next scheduling decision, and
    /// (unless `kind == Finish`) blocks until `tid` is granted again.
    fn park(&self, mut core: MutexGuard<'_, Core>, tid: usize, kind: Point) {
        // Defensive: abandoning an unconsumed grant (possible only if a
        // scenario yields twice with no operation in between).
        if core.current == tid {
            core.token = false;
        }
        core.steps += 1;
        if core.steps > STEP_CAP {
            self.fail_locked(
                core,
                format!(
                    "execution exceeded {STEP_CAP} scheduling points \
                     (livelock or deadlock in the scenario)"
                ),
            );
        }
        // Fairness (the CHESS rule that keeps spin loops finite): a
        // yielded thread becomes eligible only after EVERY other
        // unfinished thread has passed a scheduling point. Anything
        // weaker lets two spinners re-enable each other forever and the
        // DFS tree stops being finite. The caller just passed a point,
        // so clear its bit everywhere.
        for t in 0..self.threads {
            if t != tid && core.status[t] == Status::Parked(Point::Yield) {
                core.yield_wait[t] &= !(1 << tid);
                if core.yield_wait[t] == 0 {
                    core.status[t] = Status::Parked(Point::Op);
                }
            }
        }
        core.status[tid] = match kind {
            Point::Finish => Status::Finished,
            k => Status::Parked(k),
        };
        if kind == Point::Yield {
            core.yield_wait[tid] = (0..self.threads)
                .filter(|&t| t != tid && core.status[t] != Status::Finished)
                .fold(0, |m, t| m | (1 << t));
        }
        if let Err(msg) = self.decide(&mut core, Some(tid)) {
            self.fail_locked(core, msg);
        }
        if kind == Point::Finish {
            drop(core);
            self.cv.notify_all();
            return;
        }
        // An `Op` park is itself the scheduling point of a pending
        // operation, so its grant is consumed on wake-up; a `Yield`
        // park keeps the grant for the next real operation (otherwise
        // every spin iteration would cost two decisions).
        let consume = kind == Point::Op;
        if core.current == tid {
            if consume {
                core.token = false;
            }
            core.status[tid] = Status::Running;
            return;
        }
        drop(core);
        self.cv.notify_all();
        self.acquire_grant(tid, consume);
    }

    /// Blocks until `tid` holds the grant (or aborts on failure).
    /// `consume` spends the one-operation token immediately — true only
    /// when the caller parked at an `Op` point whose operation executes
    /// as soon as this returns.
    fn acquire_grant(&self, tid: usize, consume: bool) {
        let mut core = self.lock();
        loop {
            if core.failed.is_some() {
                drop(core);
                panic::panic_any(Abort);
            }
            if core.current == tid && core.token {
                if consume {
                    core.token = false;
                }
                core.status[tid] = Status::Running;
                return;
            }
            core = self.cv.wait(core).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Start barrier: the first decision fires only once every logical
    /// thread has parked, so thread spawn order never leaks into the
    /// schedule.
    fn announce_start(&self, tid: usize) {
        let mut core = self.lock();
        core.status[tid] = Status::Parked(Point::Op);
        core.started += 1;
        if core.started == self.threads {
            if let Err(msg) = self.decide(&mut core, None) {
                self.fail_locked(core, msg);
            }
            if core.current == tid {
                // Keep the token: the thread's first op point spends it.
                core.status[tid] = Status::Running;
                return;
            }
            drop(core);
            self.cv.notify_all();
        } else {
            drop(core);
        }
        self.acquire_grant(tid, false);
    }

    /// Picks the next thread to grant one operation to. `prev` is the
    /// thread whose park triggered this decision (`None` at the start
    /// barrier).
    fn decide(&self, core: &mut Core, prev: Option<usize>) -> Result<(), String> {
        let ops: Vec<usize> =
            (0..self.threads).filter(|&t| core.status[t] == Status::Parked(Point::Op)).collect();
        let eligible: Vec<usize> = if ops.is_empty() {
            (0..self.threads).filter(|&t| core.status[t] == Status::Parked(Point::Yield)).collect()
        } else {
            ops
        };
        if eligible.is_empty() {
            // All threads finished; nothing left to schedule.
            core.current = NONE;
            core.token = false;
            return Ok(());
        }
        // A switch away from a thread that still has an operation
        // pending is a preemption and is bounded; switches at yield or
        // finish points are free.
        let contended = prev.filter(|&p| core.status[p] == Status::Parked(Point::Op));
        let alts: Vec<usize> = match contended {
            Some(p) if core.preemptions >= self.bound => vec![p],
            Some(p) => {
                std::iter::once(p).chain(eligible.iter().copied().filter(|&t| t != p)).collect()
            }
            None => eligible,
        };
        let next = self.choose(core, alts)?;
        if let Some(p) = contended {
            if next != p {
                core.preemptions += 1;
            }
        }
        core.current = next;
        core.token = true;
        Ok(())
    }

    /// Resolves a runnable set via the DFS stack (or a forced replay).
    /// Only sets with ≥ 2 alternatives consume a branch decision.
    fn choose(&self, core: &mut Core, alts: Vec<usize>) -> Result<usize, String> {
        if alts.len() == 1 {
            return Ok(alts[0]);
        }
        let i = core.depth;
        core.depth += 1;
        if let Some(forced) = &core.forced {
            // Best-effort once the scenario diverges from the recorded
            // schedule: a *fixed* scenario legitimately takes different
            // branches than the buggy code the counterexample was found
            // against, so an unrunnable forced choice (or a too-short
            // string) falls back to the first runnable alternative.
            return match forced.get(i).copied() {
                Some(t) if alts.contains(&t) => Ok(t),
                _ => Ok(alts[0]),
            };
        }
        if i < core.path.len() {
            debug_assert_eq!(
                core.path[i].alternatives, alts,
                "scenario is nondeterministic: runnable sets diverged \
                 while replaying a DFS prefix"
            );
            let d = &core.path[i];
            Ok(d.alternatives[d.chosen])
        } else {
            core.path.push(Decision { chosen: 0, alternatives: alts.clone() });
            Ok(alts[0])
        }
    }

    /// Records the first failure, wakes everyone, and unwinds the
    /// calling thread.
    fn fail_locked(&self, mut core: MutexGuard<'_, Core>, msg: String) -> ! {
        if core.failed.is_none() {
            core.failed = Some(msg);
        }
        drop(core);
        self.cv.notify_all();
        panic::panic_any(Abort)
    }

    /// Records a panic that escaped a scenario closure.
    fn record_panic(&self, msg: String) {
        let mut core = self.lock();
        if core.failed.is_none() {
            core.failed = Some(msg);
        }
        drop(core);
        self.cv.notify_all();
    }
}

/// Statistics from a completed (failure-free) exploration.
#[derive(Debug, Clone, Copy)]
pub struct Explored {
    /// Distinct schedules executed to completion.
    pub schedules: u64,
    /// Total scheduling points across all executions.
    pub points: u64,
    /// Deepest branch-decision stack reached.
    pub max_depth: usize,
}

/// A schedule that violated the scenario's invariants.
#[derive(Debug)]
pub struct Failure {
    /// Replay string (`v1:<threads>:<bound>:<tid>.<tid>...`) that
    /// reproduces the failing schedule via [`replay`].
    pub replay: String,
    /// The panic message of the failed execution or check.
    pub message: String,
    /// Schedules that completed cleanly before the failure.
    pub schedules: u64,
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "schedule violates invariant after {} clean schedules: {}\n  \
             replay with: {}",
            self.schedules, self.message, self.replay
        )
    }
}

fn replay_string(threads: usize, bound: usize, path: &[Decision]) -> String {
    let choices: Vec<String> = path.iter().map(|d| d.alternatives[d.chosen].to_string()).collect();
    format!("v1:{threads}:{bound}:{}", choices.join("."))
}

fn payload_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

/// Suppresses the default panic printout for scenario threads (their
/// panics are caught and reported once, with a replay string, by the
/// driver). Installed once per process; panics on non-scenario threads
/// print as usual.
fn install_quiet_hook() {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if !thread_is_modeled() {
                prev(info);
            }
        }));
    });
}

struct SessionGuard;

impl SessionGuard {
    fn enter() -> SessionGuard {
        DRIVER_SESSION.with(|d| d.set(true));
        SessionGuard
    }
}

impl Drop for SessionGuard {
    fn drop(&mut self) {
        DRIVER_SESSION.with(|d| d.set(false));
    }
}

/// Runs one execution under the schedule prescribed by `path` (DFS
/// mode) or `forced` (replay mode). Returns the failure (if any), the
/// decision stack, the decisions consumed, and the points visited.
fn run_once<S, M, R, C>(
    threads: usize,
    bound: usize,
    path: Vec<Decision>,
    forced: Option<Vec<usize>>,
    make: &M,
    run: &R,
    check: &C,
) -> (Option<String>, Vec<Decision>, usize, u64)
where
    S: Sync,
    M: Fn() -> S,
    R: Fn(&S, usize) + Sync,
    C: Fn(&S),
{
    let _session = SessionGuard::enter();
    let sched = Arc::new(Sched {
        threads,
        bound,
        core: StdMutex::new(Core {
            status: vec![Status::Running; threads],
            current: NONE,
            token: false,
            started: 0,
            yield_wait: vec![0; threads],
            preemptions: 0,
            steps: 0,
            depth: 0,
            path,
            forced,
            failed: None,
        }),
        cv: Condvar::new(),
    });
    let state = make();
    std::thread::scope(|scope| {
        for tid in 0..threads {
            let sched = Arc::clone(&sched);
            let state = &state;
            scope.spawn(move || {
                CTX.with(|c| *c.borrow_mut() = Some(Ctx { sched: Arc::clone(&sched), tid }));
                let result = panic::catch_unwind(AssertUnwindSafe(|| {
                    sched.announce_start(tid);
                    run(state, tid);
                    sched.park_entry(tid, Point::Finish);
                }));
                CTX.with(|c| *c.borrow_mut() = None);
                if let Err(payload) = result {
                    if payload.downcast_ref::<Abort>().is_none() {
                        sched.record_panic(format!(
                            "thread {tid} panicked: {}",
                            payload_message(payload.as_ref())
                        ));
                    }
                }
            });
        }
    });
    let sched = Arc::try_unwrap(sched).ok().expect("all model threads have exited");
    let mut core = sched.core.into_inner().unwrap_or_else(|e| e.into_inner());
    if core.failed.is_none() {
        if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(|| check(&state))) {
            core.failed = Some(format!("check failed: {}", payload_message(payload.as_ref())));
        }
    }
    (core.failed, core.path, core.depth, core.steps as u64)
}

/// Exhaustively explores every schedule of `threads` logical threads
/// running `run`, up to `bound` preemptions, returning statistics — or
/// the first [`Failure`] with its replay string.
///
/// Per schedule: `make()` builds fresh shared state on the driver,
/// `run(&state, tid)` executes on each logical thread under the
/// cooperative scheduler, and `check(&state)` validates the final
/// (quiescent) state on the driver. Panics anywhere become the
/// failure message.
pub fn try_explore<S, M, R, C>(
    threads: usize,
    bound: usize,
    make: M,
    run: R,
    check: C,
) -> Result<Explored, Failure>
where
    S: Sync,
    M: Fn() -> S,
    R: Fn(&S, usize) + Sync,
    C: Fn(&S),
{
    assert!((1..=8).contains(&threads), "model: thread count must be in 1..=8");
    install_quiet_hook();
    let mut path: Vec<Decision> = Vec::new();
    let mut schedules = 0u64;
    let mut points = 0u64;
    let mut max_depth = 0usize;
    loop {
        let (failed, new_path, depth, steps) =
            run_once(threads, bound, path, None, &make, &run, &check);
        path = new_path;
        points += steps;
        max_depth = max_depth.max(depth);
        if let Some(message) = failed {
            path.truncate(depth);
            return Err(Failure {
                replay: replay_string(threads, bound, &path),
                message,
                schedules,
            });
        }
        schedules += 1;
        // Backtrack: advance the deepest unexhausted branch decision.
        loop {
            match path.last_mut() {
                None => return Ok(Explored { schedules, points, max_depth }),
                Some(d) if d.chosen + 1 < d.alternatives.len() => {
                    d.chosen += 1;
                    break;
                }
                Some(_) => {
                    path.pop();
                }
            }
        }
    }
}

/// Like [`try_explore`], but panics with the failure message and replay
/// string on a counterexample. This is the main test entry point.
pub fn explore<S, M, R, C>(threads: usize, bound: usize, make: M, run: R, check: C) -> Explored
where
    S: Sync,
    M: Fn() -> S,
    R: Fn(&S, usize) + Sync,
    C: Fn(&S),
{
    match try_explore(threads, bound, make, run, check) {
        Ok(stats) => stats,
        Err(failure) => panic!("model: {failure}"),
    }
}

/// Reruns exactly one schedule from a replay string produced by a
/// [`Failure`]. Returns `Err` with the failure message if the schedule
/// (still) violates the scenario's invariants, `Ok` if it now passes.
///
/// Replay is exact against the code the counterexample was found in.
/// Against *changed* (e.g. fixed) code the scenario may branch
/// differently; from the first divergent point on, unrunnable forced
/// choices fall back to the first runnable thread.
pub fn replay<S, M, R, C>(spec: &str, make: M, run: R, check: C) -> Result<(), String>
where
    S: Sync,
    M: Fn() -> S,
    R: Fn(&S, usize) + Sync,
    C: Fn(&S),
{
    let parsed =
        parse_replay(spec).unwrap_or_else(|e| panic!("model: bad replay string {spec:?}: {e}"));
    let (threads, bound, forced) = parsed;
    install_quiet_hook();
    let (failed, _, _, _) = run_once(threads, bound, Vec::new(), Some(forced), &make, &run, &check);
    match failed {
        Some(msg) => Err(msg),
        None => Ok(()),
    }
}

fn parse_replay(spec: &str) -> Result<(usize, usize, Vec<usize>), String> {
    let rest = spec.strip_prefix("v1:").ok_or_else(|| "missing v1: prefix".to_string())?;
    let mut parts = rest.splitn(3, ':');
    let threads: usize = parts
        .next()
        .ok_or("missing thread count")?
        .parse()
        .map_err(|e| format!("bad thread count: {e}"))?;
    let bound: usize = parts
        .next()
        .ok_or("missing preemption bound")?
        .parse()
        .map_err(|e| format!("bad preemption bound: {e}"))?;
    let tail = parts.next().ok_or("missing choice list")?;
    let forced = if tail.is_empty() {
        Vec::new()
    } else {
        tail.split('.')
            .map(|s| s.parse().map_err(|e| format!("bad choice {s:?}: {e}")))
            .collect::<Result<Vec<usize>, String>>()?
    };
    if !(1..=8).contains(&threads) {
        return Err("thread count out of range".to_string());
    }
    Ok((threads, bound, forced))
}

/// Model-checked stand-ins for `std::sync::atomic` types. Re-exported
/// as [`crate::sync::atomic`] when `model-check` is enabled; production
/// code should import from there, never from here.
///
/// Every operation runs at `SeqCst` regardless of the ordering argument
/// (the checker explores sequentially consistent interleavings only),
/// `compare_exchange_weak` never fails spuriously, and `fetch_update`
/// is a single atomic RMW. `get_mut`/`into_inner` require exclusive
/// access and are deliberately not scheduling points.
pub mod atomic {
    pub use std::sync::atomic::Ordering;

    const SC: Ordering = Ordering::SeqCst;

    macro_rules! model_atomic_int {
        ($name:ident, $std:ident, $int:ty) => {
            /// Shim atomic integer: identical API to the `std` type,
            /// but every operation is a scheduling point under the
            /// model (see module docs for the semantics).
            #[derive(Debug, Default)]
            pub struct $name {
                inner: std::sync::atomic::$std,
            }

            impl $name {
                pub const fn new(v: $int) -> Self {
                    Self { inner: std::sync::atomic::$std::new(v) }
                }

                #[inline]
                pub fn load(&self, _order: Ordering) -> $int {
                    crate::model::op_point();
                    self.inner.load(SC)
                }

                #[inline]
                pub fn store(&self, val: $int, _order: Ordering) {
                    crate::model::op_point();
                    self.inner.store(val, SC)
                }

                #[inline]
                pub fn swap(&self, val: $int, _order: Ordering) -> $int {
                    crate::model::op_point();
                    self.inner.swap(val, SC)
                }

                #[inline]
                pub fn fetch_add(&self, val: $int, _order: Ordering) -> $int {
                    crate::model::op_point();
                    self.inner.fetch_add(val, SC)
                }

                #[inline]
                pub fn fetch_sub(&self, val: $int, _order: Ordering) -> $int {
                    crate::model::op_point();
                    self.inner.fetch_sub(val, SC)
                }

                #[inline]
                pub fn fetch_and(&self, val: $int, _order: Ordering) -> $int {
                    crate::model::op_point();
                    self.inner.fetch_and(val, SC)
                }

                #[inline]
                pub fn fetch_or(&self, val: $int, _order: Ordering) -> $int {
                    crate::model::op_point();
                    self.inner.fetch_or(val, SC)
                }

                #[inline]
                pub fn fetch_xor(&self, val: $int, _order: Ordering) -> $int {
                    crate::model::op_point();
                    self.inner.fetch_xor(val, SC)
                }

                #[inline]
                pub fn fetch_max(&self, val: $int, _order: Ordering) -> $int {
                    crate::model::op_point();
                    self.inner.fetch_max(val, SC)
                }

                #[inline]
                pub fn fetch_min(&self, val: $int, _order: Ordering) -> $int {
                    crate::model::op_point();
                    self.inner.fetch_min(val, SC)
                }

                #[inline]
                pub fn compare_exchange(
                    &self,
                    current: $int,
                    new: $int,
                    _success: Ordering,
                    _failure: Ordering,
                ) -> Result<$int, $int> {
                    crate::model::op_point();
                    self.inner.compare_exchange(current, new, SC, SC)
                }

                #[inline]
                pub fn compare_exchange_weak(
                    &self,
                    current: $int,
                    new: $int,
                    success: Ordering,
                    failure: Ordering,
                ) -> Result<$int, $int> {
                    // No spurious failures under the model.
                    self.compare_exchange(current, new, success, failure)
                }

                #[inline]
                pub fn fetch_update<F>(
                    &self,
                    _set_order: Ordering,
                    _fetch_order: Ordering,
                    f: F,
                ) -> Result<$int, $int>
                where
                    F: FnMut($int) -> Option<$int>,
                {
                    crate::model::op_point();
                    self.inner.fetch_update(SC, SC, f)
                }

                #[inline]
                pub fn get_mut(&mut self) -> &mut $int {
                    self.inner.get_mut()
                }

                #[inline]
                pub fn into_inner(self) -> $int {
                    self.inner.into_inner()
                }
            }

            impl From<$int> for $name {
                fn from(v: $int) -> Self {
                    Self::new(v)
                }
            }
        };
    }

    model_atomic_int!(AtomicU32, AtomicU32, u32);
    model_atomic_int!(AtomicU64, AtomicU64, u64);
    model_atomic_int!(AtomicUsize, AtomicUsize, usize);

    /// Shim atomic boolean: identical API to `std::sync::atomic::
    /// AtomicBool`, but every operation is a scheduling point under
    /// the model.
    #[derive(Debug, Default)]
    pub struct AtomicBool {
        inner: std::sync::atomic::AtomicBool,
    }

    impl AtomicBool {
        pub const fn new(v: bool) -> Self {
            Self { inner: std::sync::atomic::AtomicBool::new(v) }
        }

        #[inline]
        pub fn load(&self, _order: Ordering) -> bool {
            crate::model::op_point();
            self.inner.load(SC)
        }

        #[inline]
        pub fn store(&self, val: bool, _order: Ordering) {
            crate::model::op_point();
            self.inner.store(val, SC)
        }

        #[inline]
        pub fn swap(&self, val: bool, _order: Ordering) -> bool {
            crate::model::op_point();
            self.inner.swap(val, SC)
        }

        #[inline]
        pub fn compare_exchange(
            &self,
            current: bool,
            new: bool,
            _success: Ordering,
            _failure: Ordering,
        ) -> Result<bool, bool> {
            crate::model::op_point();
            self.inner.compare_exchange(current, new, SC, SC)
        }

        #[inline]
        pub fn compare_exchange_weak(
            &self,
            current: bool,
            new: bool,
            success: Ordering,
            failure: Ordering,
        ) -> Result<bool, bool> {
            self.compare_exchange(current, new, success, failure)
        }

        #[inline]
        pub fn get_mut(&mut self) -> &mut bool {
            self.inner.get_mut()
        }

        #[inline]
        pub fn into_inner(self) -> bool {
            self.inner.into_inner()
        }
    }

    impl From<bool> for AtomicBool {
        fn from(v: bool) -> Self {
            Self::new(v)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sync::atomic::{AtomicU64, Ordering};
    use crate::sync::Mutex;

    const SC: Ordering = Ordering::SeqCst;

    #[test]
    fn enumerates_exact_interleavings_of_two_by_two() {
        // Two threads, two atomic RMWs each: C(4,2) = 6 interleavings.
        let stats = explore(
            2,
            8,
            || AtomicU64::new(0),
            |a, _tid| {
                a.fetch_add(1, SC);
                a.fetch_add(1, SC);
            },
            |a| assert_eq!(a.load(SC), 4),
        );
        assert_eq!(stats.schedules, 6, "expected all C(4,2) interleavings");
        assert!(stats.points > 0);
    }

    #[test]
    fn preemption_bound_zero_runs_each_thread_to_completion() {
        // Only the free initial pick branches: thread 0 first or 1 first.
        let stats = explore(
            2,
            0,
            || AtomicU64::new(0),
            |a, _tid| {
                a.fetch_add(1, SC);
                a.fetch_add(1, SC);
            },
            |a| assert_eq!(a.load(SC), 4),
        );
        assert_eq!(stats.schedules, 2);
    }

    #[test]
    fn preemption_bound_is_monotone_in_schedules() {
        let count = |bound| {
            explore(
                2,
                bound,
                || AtomicU64::new(0),
                |a, _tid| {
                    a.fetch_add(1, SC);
                    a.fetch_add(1, SC);
                },
                |a| assert_eq!(a.load(SC), 4),
            )
            .schedules
        };
        let (s0, s1, s8) = (count(0), count(1), count(8));
        assert!(s0 <= s1 && s1 <= s8, "{s0} <= {s1} <= {s8} violated");
        assert_eq!(s8, 6);
    }

    #[test]
    fn finds_lost_update_and_replays_it() {
        // Unsynchronized read-modify-write: some schedule loses an
        // increment, and the checker must find it.
        let make = || AtomicU64::new(0);
        let run = |a: &AtomicU64, _tid: usize| {
            let v = a.load(SC);
            a.store(v + 1, SC);
        };
        let check = |a: &AtomicU64| {
            assert_eq!(a.load(SC), 2, "an increment was lost");
        };
        let failure = try_explore(2, 8, make, run, check).expect_err("bug must be found");
        assert!(
            failure.message.contains("an increment was lost"),
            "unexpected message: {}",
            failure.message
        );
        assert!(failure.replay.starts_with("v1:2:8:"));
        // The replay string reproduces the same failing schedule...
        let replayed = replay(&failure.replay, make, run, check);
        assert!(replayed.is_err(), "replay must reproduce the failure");
        // ...and the fixed algorithm passes on that very schedule.
        let fixed = replay(
            &failure.replay,
            make,
            |a: &AtomicU64, _tid| {
                a.fetch_add(1, SC);
            },
            check,
        );
        assert!(fixed.is_ok(), "fixed code must pass the pinned schedule");
    }

    #[test]
    fn shim_mutex_is_exclusive_under_all_schedules() {
        let stats = explore(
            2,
            2,
            || Mutex::new(0u64),
            |m, _tid| {
                *m.lock() += 1;
            },
            |m| assert_eq!(*m.lock(), 2),
        );
        assert!(stats.schedules >= 2);
    }

    #[test]
    fn three_threads_explore_more_than_two() {
        let two = explore(
            2,
            2,
            || AtomicU64::new(0),
            |a, _tid| {
                a.fetch_add(1, SC);
            },
            |a| assert_eq!(a.load(SC), 2),
        );
        let three = explore(
            3,
            2,
            || AtomicU64::new(0),
            |a, _tid| {
                a.fetch_add(1, SC);
            },
            |a| assert_eq!(a.load(SC), 3),
        );
        assert!(three.schedules > two.schedules);
    }

    #[test]
    fn logical_time_is_strictly_increasing_inside_a_scenario() {
        explore(
            2,
            1,
            || (),
            |_, _tid| {
                let a = crate::time::raw_ticks();
                let b = crate::time::raw_ticks();
                assert!(b > a, "logical ticks must strictly increase");
            },
            |_| {},
        );
    }

    #[test]
    fn replay_string_roundtrip() {
        assert_eq!(parse_replay("v1:2:3:"), Ok((2, 3, vec![])));
        assert_eq!(parse_replay("v1:3:1:0.2.1"), Ok((3, 1, vec![0, 2, 1])));
        assert!(parse_replay("v0:2:3:").is_err());
        assert!(parse_replay("v1:9:0:").is_err());
        assert!(parse_replay("v1:2:0:x").is_err());
    }
}
