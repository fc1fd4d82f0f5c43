//! The traced run's instruments: in-memory spans written out at exit, and
//! an allocation counter split by thread role.
//!
//! Spans are recorded from the benchmark's own code, around its calls into
//! each layer. What happens inside the server between two of those calls
//! cannot be spanned from outside; the replay ladder covers that ground.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::{self, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// Whether a traced window is in progress. The lead load thread flips it at
/// window boundaries; the allocation counter and the audit worker read it.
pub static TRACING: AtomicBool = AtomicBool::new(false);

/// Spans kept per thread. A five-second traced region of `tcp_token` makes
/// over a million spans; past the cap they are counted, not stored, so the
/// trace file stays a few megabytes and the recorder never reallocates
/// inside a timed window.
const SPAN_CAP: usize = 1 << 16;

/// One recorded interval.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// What ran.
    pub name: &'static str,
    /// Nanoseconds since the run's origin.
    pub start_ns: u64,
    /// Nanoseconds since the run's origin.
    pub end_ns: u64,
    /// Unique within the trace file.
    pub id: u64,
    /// The enclosing span's id, 0 for none.
    pub parent: u64,
    /// Shared by every span of one burst; 0 for set-up stages.
    pub burst: u64,
}

/// One thread's span recorder.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    /// High bits of every id this thread hands out.
    tag: u64,
    /// Whether the current window is a traced one.
    pub on: bool,
    seq: u64,
    burst: u64,
    spans: Vec<Span>,
    dropped: u64,
}

impl Tracer {
    /// A recorder for thread number `thread` (1-based) of a run that
    /// started at `origin`. `enabled` reserves the span buffer; a tracer of
    /// an untraced run holds no memory.
    pub fn new(origin: Instant, thread: u64, enabled: bool) -> Tracer {
        Tracer {
            origin,
            tag: thread << 40,
            on: false,
            seq: 0,
            burst: 0,
            spans: Vec::with_capacity(if enabled { SPAN_CAP } else { 0 }),
            dropped: 0,
        }
    }

    /// The current time when the window is traced. Call sites pass the
    /// result back to [`child`](Self::child), so an untraced window reads
    /// no clock for spans.
    #[inline]
    pub fn now(&self) -> Option<Instant> {
        self.on.then(Instant::now)
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Stores one span, or counts it as dropped when the buffer is full.
    fn record(
        &mut self,
        name: &'static str,
        (start, end): (Instant, Instant),
        id: u64,
        parent: u64,
        burst: u64,
    ) {
        if self.spans.len() == self.spans.capacity() {
            self.dropped += 1;
            return;
        }
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span { name, start_ns, end_ns, id, parent, burst });
    }

    fn next_id(&mut self) -> u64 {
        self.seq += 1;
        self.tag | self.seq
    }

    /// The id shared by the spans of the current burst, and, with
    /// [`ROOT_BIT`] set, the id of the burst's root span. The root is
    /// recorded last, when the burst ends, so its children need an id for
    /// it that is known from the start.
    fn burst_id(&self) -> u64 {
        self.tag | self.burst
    }

    /// Opens the next burst: every span until the matching
    /// [`end_burst`](Self::end_burst) carries its id.
    #[inline]
    pub fn begin_burst(&mut self) {
        if self.on {
            self.burst += 1;
        }
    }

    /// Records a child of the current burst over `start..end`.
    #[inline]
    pub fn child_at(&mut self, name: &'static str, start: Instant, end: Instant) {
        if self.on {
            let (id, burst) = (self.next_id(), self.burst_id());
            self.record(name, (start, end), id, burst | ROOT_BIT, burst);
        }
    }

    /// Records a child of the current burst that started at `start` (from
    /// [`now`](Self::now)) and ends now.
    #[inline]
    pub fn child(&mut self, name: &'static str, start: Option<Instant>) {
        if let Some(start) = start {
            self.child_at(name, start, Instant::now());
        }
    }

    /// Closes the current burst with its root span, called `name`
    /// (`workload.burst` on a load thread, `audit.poll` on the audit worker).
    #[inline]
    pub fn end_burst(&mut self, name: &'static str, start: Instant, end: Instant) {
        if self.on {
            let burst = self.burst_id();
            self.record(name, (start, end), burst | ROOT_BIT, 0, burst);
        }
    }

    /// Records a set-up stage (no burst, no parent), traced window or not.
    pub fn stage(&mut self, name: &'static str, start: Instant, end: Instant) {
        if self.spans.capacity() > 0 {
            let id = self.next_id();
            self.record(name, (start, end), id, 0, 0);
        }
    }

    /// Spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans not stored because the buffer was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

/// Marks the id of a burst's root span, keeping it apart from the
/// sequence-numbered ids of other spans.
const ROOT_BIT: u64 = 1 << 39;

/// Per span name: how many were recorded and the mean duration and mean
/// self time (duration minus what its children cover), in nanoseconds.
pub fn self_times(tracers: &[&Tracer]) -> Vec<(&'static str, u64, f64, f64)> {
    use std::collections::BTreeMap;
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for s in tracers.iter().flat_map(|t| t.spans()).filter(|s| s.parent != 0) {
        *child_ns.entry(s.parent).or_insert(0) += s.end_ns - s.start_ns;
    }
    let mut by_name: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for s in tracers.iter().flat_map(|t| t.spans()) {
        let dur = s.end_ns - s.start_ns;
        let own = dur.saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
        let e = by_name.entry(s.name).or_insert((0, 0, 0));
        *e = (e.0 + 1, e.1 + dur, e.2 + own);
    }
    by_name
        .into_iter()
        .map(|(name, (n, dur, own))| (name, n, dur as f64 / n as f64, own as f64 / n as f64))
        .collect()
}

/// Writes every tracer's spans as one JSON document.
///
/// # Errors
///
/// I/O failures creating or writing the file.
pub fn write_trace(path: &std::path::Path, workload: &str, tracers: &[&Tracer]) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = io::BufWriter::new(std::fs::File::create(path)?);
    let dropped: u64 = tracers.iter().map(|t| t.dropped()).sum();
    write!(w, "{{\"workload\":\"{workload}\",\"spans_dropped\":{dropped},\"spans\":[")?;
    let mut first = true;
    for s in tracers.iter().flat_map(|t| t.spans()) {
        if !std::mem::take(&mut first) {
            w.write_all(b",")?;
        }
        write!(
            w,
            "\n{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"id\":{},\"parent\":{},\"burst\":{}}}",
            s.name, s.start_ns, s.end_ns, s.id, s.parent, s.burst
        )?;
    }
    w.write_all(b"\n]}\n")?;
    w.flush()
}

/// Which part of the system a thread belongs to, for allocation counts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Role {
    /// Threads the library under test started: reactors, acceptors. The
    /// default, because the benchmark cannot label threads it did not spawn.
    Server = 0,
    /// A load thread: the client side of the system.
    Load = 1,
    /// The live audit worker.
    Audit = 2,
    /// The benchmark's own orchestration.
    Bench = 3,
}

thread_local! {
    static ROLE: Cell<usize> = const { Cell::new(Role::Server as usize) };
}

static ALLOCS: [AtomicU64; 4] = [const { AtomicU64::new(0) }; 4];

/// Labels the calling thread.
pub fn set_role(role: Role) {
    ROLE.with(|r| r.set(role as usize));
}

/// Allocations counted so far for `role` (traced windows only).
pub fn allocs(role: Role) -> u64 {
    ALLOCS[role as usize].load(Ordering::Relaxed)
}

/// The system allocator plus one relaxed counter bump per allocation while
/// a traced window is in progress; outside one it costs a single relaxed
/// load. Installed by the benchmark binary as its `#[global_allocator]`.
pub struct CountingAlloc;

#[inline]
fn count() {
    if TRACING.load(Ordering::Relaxed) {
        // `try_with`: a thread's last frees can run after its
        // thread-locals are gone.
        let role = ROLE.try_with(Cell::get).unwrap_or(Role::Server as usize);
        ALLOCS[role].fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counter touches only
// an atomic and a `Cell` thread-local without a destructor, neither of
// which allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn children_point_at_their_burst_and_self_time_subtracts_them() {
        let origin = Instant::now();
        let mut t = Tracer::new(origin, 1, true);
        t.on = true;
        t.begin_burst();
        let start = Instant::now();
        let c = t.now();
        std::thread::sleep(Duration::from_millis(2));
        t.child("client.call", c);
        let end = Instant::now();
        t.end_burst("workload.burst", start, end);
        let [child, root] = t.spans() else { panic!("two spans") };
        assert_eq!(child.parent, root.id);
        assert_eq!(child.burst, root.burst);
        assert_eq!(root.parent, 0);
        let rows = self_times(&[&t]);
        let burst = rows.iter().find(|r| r.0 == "workload.burst").unwrap();
        assert!(burst.3 < burst.2, "self {} < total {}", burst.3, burst.2);
    }

    #[test]
    fn untraced_windows_record_nothing() {
        let mut t = Tracer::new(Instant::now(), 1, false);
        t.begin_burst();
        assert!(t.now().is_none());
        t.child("client.call", None);
        t.end_burst("workload.burst", Instant::now(), Instant::now());
        t.stage("setup.compile", Instant::now(), Instant::now());
        assert!(t.spans().is_empty());
    }
}
