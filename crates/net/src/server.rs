//! The sharded epoll-reactor counting server.
//!
//! # Threading model
//!
//! [`ServerConfig::reactors`] **reactor** threads (default: one per CPU
//! core) are all the threads there are. Reactor `r` owns exactly the
//! connections whose `slot % reactors == r`: it registers them in its
//! private level-triggered poller (`cnet_util::poll`, epoll on Linux),
//! sleeps in one `epoll_wait` for all of them, and serves readiness
//! events single-threadedly. A thousand idle connections therefore cost a
//! thousand fds and one sleeping thread — not a thousand sleeping
//! threads, which is what capped the previous thread-per-connection
//! design at a few hundred clients.
//!
//! There is no acceptor thread: the (non-blocking) listening socket is
//! one more source in **reactor 0**'s poller, so a connect raises a
//! readiness event like any request does and is accepted on it — reactor
//! 0 accepts until `WouldBlock`, assigns each connection a **slot** (an
//! index below [`ServerConfig::max_connections`]), switches it to
//! nonblocking mode, and either adopts it on the spot (a slot it owns) or
//! pushes it to the owning reactor's inbox and wakes that reactor.
//!
//! # Per-connection state machine
//!
//! Each connection advances through `Phase`s driven by readiness:
//!
//! ```text
//! ReadingHeader ──bytes──▶ ReadingBody ──frame──▶ Executing ──▶ Writing
//!       ▲                                                          │
//!       └────────────────── response flushed ──────────────────────┘
//!                      (any error / EOF / Bye ──▶ Closing)
//! ```
//!
//! `ReadingHeader`/`ReadingBody` live inside an incremental
//! [`FrameDecoder`] — a nonblocking read may deliver half a length prefix
//! or ten pipelined frames; the decoder resumes at any byte boundary and
//! yields each frame exactly once.
//! `Executing` runs the backend call on the reactor thread itself
//! (counter operations are sub-microsecond — a lock-free traversal, not
//! blocking I/O — so shipping them to a worker pool would cost more than
//! it saves). `Writing` buffers responses and flushes until `WouldBlock`,
//! raising write interest only while output is pending — every frame
//! buffered in one readiness event is answered with one `write` burst,
//! preserving the old server's pipelining amortization. `Closing` flushes
//! what remains and frees the slot.
//!
//! A connection's slot doubles as its identity everywhere else:
//!
//! * **process id** — the backend sees `slot % processes`, so a
//!   counting-network backend routes each connection to a stable input
//!   wire, exactly like a thread in the shared-memory runtime;
//! * **stats shard** — each slot owns a cache-padded statistics record
//!   ([`CounterServer::stats`] aggregates them on demand);
//! * **recorder shard** — with a [`TraceRecorder`] attached, the slot is
//!   the recorder shard. The reactor keeps the recorder's single-writer
//!   contract structurally: shard `s` is only ever touched by reactor
//!   `s % reactors`, on that one thread, and a slot is flushed
//!   (`TraceRecorder::flush`) before it is released for reuse — so live
//!   audits keep working unchanged across the rewrite.
//!
//! # Backpressure
//!
//! At the connection limit reactor 0 either **rejects** (answers
//! [`ErrorCode::Busy`] and closes — the client sees a clean refusal, not a
//! hang) or **defers the accept**, per [`Backpressure`]: the one stream it
//! just accepted waits, unserved, on reactor 0, which also takes the
//! listener out of its poller's read set so further connects queue in the
//! kernel's backlog. Whichever reactor next frees a slot wakes reactor 0,
//! which gives the waiting stream that slot (counted in
//! [`StatsSnapshot::deferred_accepts`]) and listens again.
//!
//! # Run coalescing
//!
//! A pipelining client's burst reaches the reactor as many buffered
//! `Next` frames at once. A run of `k` of them (whole frames only —
//! [`FrameDecoder::next_run`]) is counted by **one** batched backend call,
//! the same one a `NextBatch{k}` frame makes: a counting-network backend
//! pays one atomic per balancer for the run instead of a full traversal
//! per frame. The traversal hands the run out ascending (row `v / w`,
//! column `v mod w` of the network's `w` sinks), so the sort every batch
//! goes through finds it sorted in one O(k) pass. The `k` values go out in
//! that order, one `Value` frame per request, each echoing its own seq.
//! Only the bytes buffered on the connection decide where a run ends; a
//! lone `Next` is a run of one, so every `Next` is counted this way and
//! every other opcode is decoded and executed frame by frame. Two
//! arguments make it sound. *Values*: the step property holds for any
//! interleaving of tokens, so `k` tokens of one process entering together
//! is a legal execution of the network, the handed-out set is still a
//! gap-free share of the count, and ascending order keeps the connection's
//! values monotone within the run (per-process monotone values are what
//! the paper calls sequential consistency). *Intervals*: the recorder
//! stamps the run with one widened interval (`TraceRecorder::record_batch`)
//! that covers every operation in it, so the audit can miss an ordering
//! inside a run but never fabricate one.
//!
//! The client reads the answers as a run too, its mirror of the above:
//! [`FrameDecoder::value_run`] counts the whole current-version `Value`
//! frames at its cursor, and
//! [`RemoteCounter::next_pipelined`](crate::client::RemoteCounter::next_pipelined)
//! takes their `(seq, value)` pairs in place, checking each seq against
//! its request's. Any other frame goes through `Response::decode`.
//!
//! # Shutdown
//!
//! [`CounterServer::shutdown`] (also run on drop) drains gracefully: raise
//! the stop flag, wake every reactor, give each connection one final read
//! pass so frames already in flight are answered (increments get
//! [`ErrorCode::ShuttingDown`] once the stop flag is up; `Ping`/`Stats`
//! still answer), flush with a bounded deadline, then join every thread
//! via the shared [`Drain`] idiom. A client can trigger the same thing
//! remotely with a [`Request::Shutdown`] frame — the server acknowledges
//! with [`Response::Bye`] and wakes whoever is parked in
//! [`CounterServer::wait_for_shutdown_request`].

use crate::router::ClusterNode;
use crate::wire::{
    ErrorCode, FrameDecoder, NodeInfo, Request, Response, StatsSnapshot, HEADER_LEN, MAX_BATCH,
    MAX_FRONTIER_OPS, VALUE_FRAME_LEN,
};
use cnet_core::trace::{RawOp, ShardFrontier};
use cnet_runtime::drain::Drain;
use cnet_runtime::{ProcessCounter, ShardStealer, TraceRecorder};
use cnet_util::poll::{Interest, Poller, Waker};
use cnet_util::sync::{CachePadded, Mutex};
use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar};
use std::time::Duration;

/// What the server does when every connection slot is taken.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Backpressure {
    /// Answer [`ErrorCode::Busy`] and close the new connection.
    #[default]
    Reject,
    /// Defer the accept: hold the new connection unserved until a slot
    /// frees (or the server stops).
    Block,
}

/// Server configuration.
#[derive(Clone, Copy, Debug)]
pub struct ServerConfig {
    /// Connection slots: the maximum number of concurrently served
    /// connections, and the recorder-shard space when auditing.
    pub max_connections: usize,
    /// Policy at the connection limit.
    pub backpressure: Backpressure,
    /// Logical process-id space: slot `s` performs backend operations as
    /// process `s % processes` (match the backend's fan-in for
    /// counting-network backends).
    pub processes: usize,
    /// Reactor threads sharing the connections (slot `s` is owned by
    /// reactor `s % reactors`). `0` means one per available CPU core;
    /// always clamped to `1..=max_connections`.
    pub reactors: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_connections: 64,
            backpressure: Backpressure::Reject,
            processes: 8,
            reactors: 0,
        }
    }
}

/// Per-slot statistics, one cache line each so reactors never share.
#[derive(Debug, Default)]
struct SlotStats {
    requests: AtomicU64,
    ops: AtomicU64,
    batches: AtomicU64,
}

/// Slot allocation and shutdown signalling, under one lock + condvar.
#[derive(Debug)]
struct Gate {
    free: Vec<usize>,
    active: usize,
    /// Reactor 0 holds an accepted stream it could not give a slot
    /// ([`Backpressure::Block`]); the next release wakes it. Kept under
    /// the gate's lock so a release can never slip between the failed
    /// acquire and the park.
    accept_parked: bool,
}

/// One shard's row of the [`AuditTable`]: its stealer, and stolen events
/// a `max`-bounded frontier could not yet carry.
#[derive(Debug)]
struct AuditShard {
    stealer: ShardStealer,
    pending: VecDeque<RawOp>,
}

/// A served recorder's only consumer: one [`ShardStealer`] per shard,
/// each behind its own lock (the recorder's one-puller-per-shard
/// contract). [`Request::Frontier`] and the serving process's own audit
/// both read it through [`frontier`](Self::frontier), so every recorded
/// event leaves in exactly one frontier and [`taken`](Self::taken), the
/// remote part, is exact.
#[derive(Debug)]
pub struct AuditTable {
    recorder: Arc<TraceRecorder>,
    shards: Box<[Mutex<AuditShard>]>,
    /// Events shipped in `Frontier` responses.
    taken: AtomicU64,
}

impl AuditTable {
    fn new(recorder: Arc<TraceRecorder>) -> AuditTable {
        let shards = (0..recorder.shards())
            .map(|s| {
                Mutex::new(AuditShard { stealer: ShardStealer::new(s), pending: VecDeque::new() })
            })
            .collect();
        AuditTable { recorder, shards, taken: AtomicU64::new(0) }
    }

    /// Recorder shards in the table.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Steals what shard `shard` has published (a live shard's partial
    /// batch arrives on a later call: only its writer may flush it),
    /// queues it behind the events an earlier call held back, and hands
    /// the oldest `max` out as the shard's next frontier. While events
    /// are held back, only the last *shipped* enter is a sound watermark
    /// and the frontier is not `finished`. Pass `finished` only once the
    /// server has shut down and every shard is flushed.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn frontier(&self, shard: usize, max: usize, finished: bool) -> ShardFrontier {
        let state = &mut *self.shards[shard].lock();
        state.stealer.steal(&self.recorder);
        let mut f = state.stealer.take_frontier(finished);
        state.pending.extend(f.ops.drain(..));
        let take = max.min(state.pending.len());
        f.ops = state.pending.drain(..take).collect();
        if !state.pending.is_empty() {
            f.watermark = f.ops.last().map(|op| op.enter_ns);
            f.finished = false;
        }
        f
    }

    /// Events shipped in `Frontier` responses so far: the part of the
    /// stream a remote puller took.
    pub fn taken(&self) -> u64 {
        self.taken.load(Ordering::Relaxed)
    }

    /// The `Frontier` request's answer, counted as taken.
    #[inline(never)]
    fn ship(&self, shard: usize, max: u32) -> ShardFrontier {
        let f = self.frontier(shard, max.min(MAX_FRONTIER_OPS) as usize, false);
        self.taken.fetch_add(f.ops.len() as u64, Ordering::Relaxed);
        f
    }
}

/// The side of one reactor thread that other threads reach.
struct ReactorShared {
    /// Interrupts the reactor's `epoll_wait` (new connection, a slot
    /// freed for a parked accept, shutdown).
    waker: Waker,
    /// Connections reactor 0 accepted into a slot this reactor owns,
    /// awaiting registration; drained by the owner at the top of every
    /// loop.
    inbox: Mutex<Vec<(usize, TcpStream)>>,
    /// Returns from the readiness wait.
    wakeups: CachePadded<AtomicU64>,
    /// Events delivered across all wakeups.
    events: CachePadded<AtomicU64>,
}

struct Shared {
    backend: Arc<dyn ProcessCounter + Send + Sync>,
    recorder: Option<Arc<TraceRecorder>>,
    /// Cluster identity and forwarding state; `None` for a plain
    /// single-process server.
    cluster: Option<Arc<ClusterNode>>,
    /// This server's own client-facing address (learned at bind).
    advertise: String,
    /// The recorder's only consumer, when auditing.
    audit: Option<Arc<AuditTable>>,
    cfg: ServerConfig,
    /// Stop serving: reactors exit, handlers refuse increments.
    stop: AtomicBool,
    /// A `Shutdown` frame arrived (remote shutdown request).
    shutdown_requested: AtomicBool,
    gate: Mutex<Gate>,
    gate_cv: Condvar,
    reactors: Box<[ReactorShared]>,
    slot_stats: Box<[CachePadded<SlotStats>]>,
    total_connections: CachePadded<AtomicU64>,
    rejected_connections: CachePadded<AtomicU64>,
    deferred_accepts: CachePadded<AtomicU64>,
}

impl std::fmt::Debug for Shared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shared").field("cfg", &self.cfg).finish_non_exhaustive()
    }
}

/// A running counting service over any [`ProcessCounter`] backend.
///
/// # Example
///
/// ```
/// use cnet_net::server::{CounterServer, ServerConfig};
/// use cnet_net::client::RemoteCounter;
/// use cnet_runtime::{FetchAddCounter, ProcessCounter};
/// use std::sync::Arc;
///
/// let mut server = CounterServer::start(
///     "127.0.0.1:0",
///     Arc::new(FetchAddCounter::new()),
///     ServerConfig::default(),
/// )?;
/// let client = RemoteCounter::connect(server.local_addr(), 1)?;
/// assert_eq!(client.next_for(0), 0);
/// assert_eq!(client.next_for(0), 1);
/// server.shutdown();
/// # Ok::<(), std::io::Error>(())
/// ```
#[derive(Debug)]
pub struct CounterServer {
    addr: SocketAddr,
    shared: Arc<Shared>,
    reactor_threads: Drain,
    down: bool,
}

impl CounterServer {
    /// Binds `addr` (use port 0 for an ephemeral port; see
    /// [`local_addr`](Self::local_addr)) and starts serving `backend`.
    ///
    /// # Errors
    ///
    /// Propagates bind/configuration failures (including a failure to
    /// create the per-reactor pollers).
    pub fn start(
        addr: impl ToSocketAddrs,
        backend: Arc<dyn ProcessCounter + Send + Sync>,
        cfg: ServerConfig,
    ) -> io::Result<CounterServer> {
        CounterServer::start_inner(addr, backend, None, None, cfg)
    }

    /// Like [`start`](Self::start), additionally recording every increment
    /// served into `recorder` (slot `s` writes shard `s`), so the online
    /// monitors can audit the service across the socket boundary.
    ///
    /// # Errors
    ///
    /// Propagates bind failures; fails with `InvalidInput` if the recorder
    /// has fewer shards than `cfg.max_connections`.
    pub fn with_recorder(
        addr: impl ToSocketAddrs,
        backend: Arc<dyn ProcessCounter + Send + Sync>,
        recorder: Arc<TraceRecorder>,
        cfg: ServerConfig,
    ) -> io::Result<CounterServer> {
        check_shards(&recorder, &cfg)?;
        CounterServer::start_inner(addr, backend, Some(recorder), None, cfg)
    }

    /// Starts one node of a counting cluster: the node's own layer range
    /// runs behind the same reactor data path, with
    /// [`Request::ForwardBatch`] hops accepted from upstream peers and (on
    /// the head) client increments entering the fabric, a lone `Next` as a
    /// one-token batch. With a `recorder`, every *client*
    /// operation this node serves is recorded — forwarded hops are not
    /// (the head records them once; recording each hop again would
    /// duplicate values in the merged cluster history).
    ///
    /// The head announces its address down the chain on startup, so any
    /// node can point clients at the head ([`Request::NodeInfo`]).
    ///
    /// # Errors
    ///
    /// Propagates bind failures; fails with `InvalidInput` if the
    /// recorder has fewer shards than `cfg.max_connections`.
    pub fn start_cluster(
        addr: impl ToSocketAddrs,
        cluster: Arc<ClusterNode>,
        recorder: Option<Arc<TraceRecorder>>,
        cfg: ServerConfig,
    ) -> io::Result<CounterServer> {
        if let Some(rec) = recorder.clone() {
            check_shards(&rec, &cfg)?;
        }
        let backend: Arc<dyn ProcessCounter + Send + Sync> = Arc::clone(&cluster) as _;
        CounterServer::start_inner(addr, backend, recorder, Some(cluster), cfg)
    }

    fn start_inner(
        addr: impl ToSocketAddrs,
        backend: Arc<dyn ProcessCounter + Send + Sync>,
        recorder: Option<Arc<TraceRecorder>>,
        cluster: Option<Arc<ClusterNode>>,
        cfg: ServerConfig,
    ) -> io::Result<CounterServer> {
        let max_connections = cfg.max_connections.max(1);
        let reactors = match cfg.reactors {
            0 => std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
            n => n,
        }
        .clamp(1, max_connections);
        let cfg =
            ServerConfig { max_connections, processes: cfg.processes.max(1), reactors, ..cfg };
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        // Build the pollers up front so fd exhaustion or an unsupported
        // platform surfaces here, as a start error, not in a thread.
        let mut pollers: Vec<Poller> = Vec::with_capacity(reactors);
        let mut handles = Vec::with_capacity(reactors);
        for _ in 0..reactors {
            let poller = Poller::new()?;
            let waker = Waker::new(&poller, WAKE_TOKEN)?;
            pollers.push(poller);
            handles.push(ReactorShared {
                waker,
                inbox: Mutex::new(Vec::new()),
                wakeups: CachePadded::new(AtomicU64::new(0)),
                events: CachePadded::new(AtomicU64::new(0)),
            });
        }
        // Reactor 0 accepts: the listener is one more source in its poller.
        pollers[0].register(&listener, LISTEN_TOKEN, Interest::READABLE)?;
        // The head learns its client-facing address at bind time and
        // pushes it down the chain so every node can redirect clients.
        if let Some(c) = &cluster {
            if c.is_head() {
                c.set_head_addr(addr.to_string());
                let announcer = Arc::clone(c);
                std::thread::spawn(move || {
                    let _ = announcer.announce_downstream(0);
                });
            }
        }
        let audit = recorder.as_ref().map(|r| Arc::new(AuditTable::new(Arc::clone(r))));
        let shared = Arc::new(Shared {
            backend,
            recorder,
            cluster,
            advertise: addr.to_string(),
            audit,
            cfg,
            stop: AtomicBool::new(false),
            shutdown_requested: AtomicBool::new(false),
            gate: Mutex::new(Gate {
                free: (0..cfg.max_connections).rev().collect(),
                active: 0,
                accept_parked: false,
            }),
            gate_cv: Condvar::new(),
            reactors: handles.into_boxed_slice(),
            slot_stats: (0..cfg.max_connections).map(|_| CachePadded::default()).collect(),
            total_connections: CachePadded::new(AtomicU64::new(0)),
            rejected_connections: CachePadded::new(AtomicU64::new(0)),
            deferred_accepts: CachePadded::new(AtomicU64::new(0)),
        });
        let mut reactor_threads = Drain::with_capacity(reactors);
        let mut acceptor = Some(Acceptor { listener, parked: None, armed: true });
        for (r, poller) in pollers.into_iter().enumerate() {
            let shared = Arc::clone(&shared);
            let acceptor = acceptor.take();
            reactor_threads
                .push(std::thread::spawn(move || reactor_loop(&shared, r, poller, acceptor)));
        }
        Ok(CounterServer { addr, shared, reactor_threads, down: false })
    }

    /// The bound address (with the real port when bound to port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The recorder's audit table, when auditing: the one way to consume
    /// what this server records.
    pub fn audit(&self) -> Option<&Arc<AuditTable>> {
        self.shared.audit.as_ref()
    }

    /// Aggregates the per-slot statistics into one snapshot.
    pub fn stats(&self) -> StatsSnapshot {
        snapshot(&self.shared)
    }

    /// Whether a client has sent a [`Request::Shutdown`] frame.
    pub fn shutdown_requested(&self) -> bool {
        self.shared.shutdown_requested.load(Ordering::Acquire)
    }

    /// Blocks until a remote shutdown request arrives (or the server is
    /// shut down locally).
    pub fn wait_for_shutdown_request(&self) {
        let mut gate = self.shared.gate.lock();
        while !self.shared.shutdown_requested.load(Ordering::Acquire)
            && !self.shared.stop.load(Ordering::Acquire)
        {
            gate = self
                .shared
                .gate_cv
                .wait_timeout(gate, Duration::from_millis(100))
                .unwrap_or_else(|e| e.into_inner())
                .0;
        }
    }

    /// Drains and stops the server: no new connections, every reactor
    /// answers the frames already in flight (increments get
    /// `ShuttingDown`), flushes with a bounded deadline, and every thread
    /// is joined. Idempotent; also runs on drop.
    pub fn shutdown(&mut self) {
        if self.down {
            return;
        }
        self.down = true;
        self.shared.stop.store(true, Ordering::Release);
        self.shared.gate_cv.notify_all();
        for r in self.shared.reactors.iter() {
            let _ = r.waker.wake();
        }
        self.reactor_threads.join_all();
        // Reactor 0 may have accepted into another reactor's inbox after
        // that reactor's last look at it; with every thread joined nothing
        // pushes any more.
        for r in 0..self.shared.reactors.len() {
            drain_inbox_slots(&self.shared, r);
        }
    }
}

impl Drop for CounterServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Every connection slot is a recorder shard; refuse a recorder that
/// cannot hold them all.
fn check_shards(recorder: &Arc<TraceRecorder>, cfg: &ServerConfig) -> io::Result<()> {
    if recorder.shards() < cfg.max_connections {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!(
                "recorder has {} shards for {} connection slots",
                recorder.shards(),
                cfg.max_connections
            ),
        ));
    }
    Ok(())
}

fn snapshot(shared: &Shared) -> StatsSnapshot {
    let mut s = StatsSnapshot {
        active_connections: shared.gate.lock().active as u64,
        total_connections: shared.total_connections.load(Ordering::Relaxed),
        rejected_connections: shared.rejected_connections.load(Ordering::Relaxed),
        deferred_accepts: shared.deferred_accepts.load(Ordering::Relaxed),
        ..StatsSnapshot::default()
    };
    for slot in shared.slot_stats.iter() {
        s.requests += slot.requests.load(Ordering::Relaxed);
        s.ops += slot.ops.load(Ordering::Relaxed);
        s.batches += slot.batches.load(Ordering::Relaxed);
    }
    for r in shared.reactors.iter() {
        s.reactor_wakeups += r.wakeups.load(Ordering::Relaxed);
        s.reactor_events += r.events.load(Ordering::Relaxed);
    }
    s
}

/// Takes a free connection slot. At the limit under
/// [`Backpressure::Block`] it also marks the accept as parked, under the
/// same lock, so the release that frees a slot wakes reactor 0.
fn acquire_slot(shared: &Shared) -> Option<usize> {
    let mut gate = shared.gate.lock();
    let slot = gate.free.pop();
    match slot {
        Some(_) => gate.active += 1,
        None => gate.accept_parked = shared.cfg.backpressure == Backpressure::Block,
    }
    slot
}

fn release_slot(shared: &Shared, slot: usize) {
    let mut gate = shared.gate.lock();
    gate.free.push(slot);
    gate.active -= 1;
    let parked = std::mem::take(&mut gate.accept_parked);
    drop(gate);
    if parked {
        let _ = shared.reactors[0].waker.wake();
    }
}

/// Reactor 0's accepting half: the listener sits in its poller beside the
/// connections, so a connect is served on the readiness event it raises.
struct Acceptor {
    listener: TcpListener,
    /// Under [`Backpressure::Block`] at the limit: the one accepted stream
    /// waiting for a slot. While it waits nothing else is accepted — the
    /// kernel's backlog holds the rest.
    parked: Option<TcpStream>,
    /// Whether the poller currently watches the listener.
    armed: bool,
}

impl Acceptor {
    /// Accepts until the backlog is empty (`WouldBlock`) or a stream has
    /// to be parked. Any other accept error (fd exhaustion, an aborted
    /// handshake) also ends the pass with the listener disarmed, so a
    /// persistent one costs one failed `accept` per reactor wakeup instead
    /// of a level-triggered spin; [`resume`](Self::resume) re-arms.
    fn accept_ready(
        &mut self,
        shared: &Arc<Shared>,
        poller: &Poller,
        conns: &mut HashMap<u64, Conn>,
    ) {
        while self.parked.is_none() {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    let _ = stream.set_nodelay(true);
                    self.parked = admit(shared, poller, conns, stream, false);
                }
                Err(ref e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(_) => break,
            }
        }
        self.armed = poller.modify(&self.listener, LISTEN_TOKEN, Interest::NONE).is_err();
    }

    /// Runs at the top of every pass of reactor 0: gives a parked stream
    /// the slot a release freed (a deferred accept) and puts a disarmed
    /// listener back in the poller.
    fn resume(&mut self, shared: &Arc<Shared>, poller: &Poller, conns: &mut HashMap<u64, Conn>) {
        if let Some(stream) = self.parked.take() {
            self.parked = admit(shared, poller, conns, stream, true);
            if self.parked.is_some() {
                return;
            }
        }
        if !self.armed {
            self.armed = poller.modify(&self.listener, LISTEN_TOKEN, Interest::READABLE).is_ok();
        }
    }
}

/// Gives a freshly accepted `stream` a slot and hands it to the reactor
/// owning that slot — directly when that is reactor 0 itself, otherwise
/// through the owner's inbox. At the connection limit
/// [`Backpressure::Reject`] answers `Busy` and drops the stream;
/// [`Backpressure::Block`] returns it to be parked. A `deferred` stream
/// (one that was parked) is counted before it is handed over, so its first
/// response never precedes the count.
fn admit(
    shared: &Arc<Shared>,
    poller: &Poller,
    conns: &mut HashMap<u64, Conn>,
    mut stream: TcpStream,
    deferred: bool,
) -> Option<TcpStream> {
    let Some(slot) = acquire_slot(shared) else {
        if shared.cfg.backpressure == Backpressure::Block {
            return Some(stream);
        }
        shared.rejected_connections.fetch_add(1, Ordering::Relaxed);
        // Best-effort refusal so the client sees Busy, not a silent close
        // (the stream is still blocking here, so the small write
        // completes).
        let mut frame = Vec::with_capacity(4 + HEADER_LEN + 1);
        Response::Error(ErrorCode::Busy).encode(0, &mut frame);
        let _ = stream.write_all(&frame);
        return None;
    };
    shared.total_connections.fetch_add(1, Ordering::Relaxed);
    if deferred {
        shared.deferred_accepts.fetch_add(1, Ordering::Relaxed);
    }
    if stream.set_nonblocking(true).is_err() {
        release_slot(shared, slot);
        return None;
    }
    match slot % shared.cfg.reactors {
        0 => adopt(shared, poller, conns, slot, stream),
        r => {
            // The wake is advisory: every reactor also drains its inbox on
            // the 50ms timeout safety net.
            shared.reactors[r].inbox.lock().push((slot, stream));
            let _ = shared.reactors[r].waker.wake();
        }
    }
    None
}

/// Tokens the per-reactor waker and (on reactor 0) the listener are
/// registered under; distinct from every slot token (slots are bounded by
/// `max_connections`).
const WAKE_TOKEN: u64 = u64::MAX;
const LISTEN_TOKEN: u64 = u64::MAX - 1;

/// Reactor read chunk and per-event read budget. Level-triggered polling
/// re-reports a socket that still has bytes after the budget, so a large
/// burst shares the reactor fairly instead of monopolizing it.
const READ_CHUNK: usize = 16 * 1024;
const READS_PER_EVENT: usize = 4;

/// How the state machine phases map to code is described in the module
/// docs; `Closing` additionally flags "answer nothing more, flush and
/// free the slot".
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    /// Waiting for (the rest of) a length prefix + header.
    ReadingHeader,
    /// A frame's length is known; waiting for the rest of its payload.
    ReadingBody,
    /// A decoded request is running against the backend.
    Executing,
    /// A response is buffered and not yet fully flushed.
    Writing,
    /// Terminal: flush pending output, then free the slot.
    Closing,
}

/// One live connection, owned by exactly one reactor.
struct Conn {
    stream: TcpStream,
    slot: usize,
    process: usize,
    decoder: FrameDecoder,
    /// Encoded responses awaiting the socket; `out_pos..` is unsent.
    out: Vec<u8>,
    out_pos: usize,
    phase: Phase,
    /// Whether the poller currently watches write readiness.
    write_interest: bool,
    /// A `ForwardBatch` frame's per-wire counts as the traversal takes
    /// them, reused frame after frame.
    entering: Vec<usize>,
}

impl Conn {
    fn new(slot: usize, process: usize, stream: TcpStream) -> Conn {
        Conn {
            stream,
            slot,
            process,
            decoder: FrameDecoder::new(),
            out: Vec::new(),
            out_pos: 0,
            phase: Phase::ReadingHeader,
            write_interest: false,
            entering: Vec::new(),
        }
    }

    fn pending_out(&self) -> bool {
        self.out_pos < self.out.len()
    }

    /// Re-derives the resting phase after a readiness pass.
    fn settle_phase(&mut self) {
        if self.phase == Phase::Closing {
            return;
        }
        self.phase = if self.pending_out() {
            Phase::Writing
        } else if self.decoder.buffered() > 0 {
            Phase::ReadingBody
        } else {
            Phase::ReadingHeader
        };
    }
}

fn reactor_loop(
    shared: &Arc<Shared>,
    r: usize,
    mut poller: Poller,
    mut acceptor: Option<Acceptor>,
) {
    let me = &shared.reactors[r];
    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut events = Vec::new();
    let mut scratch = vec![0u8; READ_CHUNK];
    while !shared.stop.load(Ordering::Acquire) {
        // The timeout is a safety net (missed wake, slow inbox); the
        // steady state is event-driven.
        match poller.wait(&mut events, Some(Duration::from_millis(50))) {
            Ok(_) => {}
            Err(_) => {
                // A failing poller cannot make progress; parking briefly
                // keeps a transient error (EMFILE pressure) from spinning.
                std::thread::sleep(Duration::from_millis(2));
                continue;
            }
        }
        me.wakeups.fetch_add(1, Ordering::Relaxed);
        me.events.fetch_add(events.len() as u64, Ordering::Relaxed);
        adopt_inbox(shared, r, &poller, &mut conns);
        if let Some(acceptor) = &mut acceptor {
            acceptor.resume(shared, &poller, &mut conns);
        }
        for &ev in &events {
            if ev.token == WAKE_TOKEN {
                me.waker.drain();
                continue;
            }
            if ev.token == LISTEN_TOKEN {
                if let Some(acceptor) = &mut acceptor {
                    acceptor.accept_ready(shared, &poller, &mut conns);
                }
                continue;
            }
            let Some(conn) = conns.get_mut(&ev.token) else {
                continue; // already closed earlier in this batch
            };
            if !handle_ready(shared, conn, &mut scratch) {
                let conn = conns.remove(&ev.token).expect("present");
                close_conn(shared, &poller, conn);
                continue;
            }
            update_interest(&poller, conn);
        }
    }
    drain_reactor(shared, &poller, conns, &mut scratch);
}

/// Registers the connections reactor 0 accepted into this reactor's slots.
fn adopt_inbox(shared: &Arc<Shared>, r: usize, poller: &Poller, conns: &mut HashMap<u64, Conn>) {
    let fresh: Vec<(usize, TcpStream)> = std::mem::take(&mut *shared.reactors[r].inbox.lock());
    for (slot, stream) in fresh {
        debug_assert_eq!(slot % shared.cfg.reactors, r, "slot routed to wrong reactor");
        adopt(shared, poller, conns, slot, stream);
    }
}

/// Starts serving `stream` as `slot` on the calling reactor.
fn adopt(
    shared: &Shared,
    poller: &Poller,
    conns: &mut HashMap<u64, Conn>,
    slot: usize,
    stream: TcpStream,
) {
    match poller.register(&stream, slot as u64, Interest::READABLE) {
        Ok(()) => {
            let process = slot % shared.cfg.processes;
            conns.insert(slot as u64, Conn::new(slot, process, stream));
        }
        Err(_) => release_slot(shared, slot),
    }
}

/// Serves one readiness event. Returns `false` when the connection is
/// finished (flushed + closing, or a hard error) and must be closed.
fn handle_ready(shared: &Shared, conn: &mut Conn, scratch: &mut [u8]) -> bool {
    // Flush first: frees buffer space and detects dead peers early.
    if !flush_out(conn) {
        return false;
    }
    if conn.phase != Phase::Closing {
        for _ in 0..READS_PER_EVENT {
            match conn.stream.read(scratch) {
                Ok(0) => {
                    // EOF. Frames already received still get answers
                    // (the peer may have half-closed after a burst).
                    conn.phase = Phase::Closing;
                    break;
                }
                Ok(n) => {
                    conn.decoder.extend(&scratch[..n]);
                    if n < scratch.len() {
                        break; // drained the kernel buffer
                    }
                }
                Err(ref e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(_) => return false,
            }
        }
        process_frames(shared, conn);
    }
    if !flush_out(conn) {
        return false;
    }
    conn.settle_phase();
    // Closing and fully flushed: nothing left to do for this peer.
    conn.phase != Phase::Closing || conn.pending_out()
}

/// Decodes and executes every complete frame buffered on `conn`, a run of
/// pipelined `Next` frames as one batched count (module docs, "Run
/// coalescing").
fn process_frames(shared: &Shared, conn: &mut Conn) {
    loop {
        if conn.phase == Phase::Closing {
            return;
        }
        let run = conn.decoder.next_run(MAX_BATCH as usize);
        if run >= 1 {
            execute_run(shared, conn, run);
            continue;
        }
        // Decode to owned values before touching `conn` again (the
        // payload borrows the decoder's buffer).
        let decoded = match conn.decoder.next_frame() {
            Ok(Some(payload)) => Request::decode(payload),
            Ok(None) => return,
            Err(e) => Err(e),
        };
        match decoded {
            Ok((seq, req)) => execute(shared, conn, seq, req),
            Err(_) => {
                // Cannot trust anything in the frame, including its seq.
                Response::Error(ErrorCode::Malformed).encode(0, &mut conn.out);
                conn.phase = Phase::Closing;
                return;
            }
        }
    }
}

/// Counts `n` operations for `conn` in one batched backend call — a
/// counting-network backend pays one atomic per balancer for all of them —
/// and records them under one widened interval (the recorder's
/// `record_batch` argument keeps that audit-sound). A `NextBatch` frame
/// and a run of `Next` frames, a lone one included, count through here;
/// nothing else counts a client operation.
/// The values are handed out and recorded ascending, one order for every
/// batch: it is the program order a run's client sees, and the recorder
/// must see the same. The network and `fetch_add` already produce it, so
/// the sort is then one O(n) pass; any other backend is sorted.
///
/// A refusal leaves `conn.phase` at `Closing` when the connection is to be
/// closed after it. `n` outside `1..=MAX_BATCH` is refused as `BadBatch`
/// (a `NextBatch` frame can ask for that; a run is capped by its caller).
fn count_batch(shared: &Shared, conn: &mut Conn, n: usize) -> Result<Vec<u64>, ErrorCode> {
    if shared.stop.load(Ordering::Acquire) {
        conn.phase = Phase::Closing;
        return Err(ErrorCode::ShuttingDown);
    }
    if n == 0 || n > MAX_BATCH as usize {
        return Err(ErrorCode::BadBatch);
    }
    conn.phase = Phase::Executing;
    // A client increment enters the fabric at the head; on any other
    // cluster node the entry ports are interior cut positions, so counting
    // from them is refused.
    let mut values = match &shared.cluster {
        None => shared.backend.next_batch_for(conn.process, n),
        Some(c) if c.is_head() => {
            c.ingress_batch(conn.slot, conn.process, n).map_err(|_| ErrorCode::Cluster)?
        }
        Some(_) => return Err(ErrorCode::Cluster),
    };
    values.sort_unstable();
    if let Some(rec) = &shared.recorder {
        rec.record_batch(conn.slot, &values);
    }
    shared.slot_stats[conn.slot].ops.fetch_add(n as u64, Ordering::Relaxed);
    Ok(values)
}

/// Executes the `k` whole `Next` frames at the decoder's cursor as one
/// batched count and buffers `k` `Value` responses, each echoing its own
/// request's seq, the values ascending in request order. A refusal is
/// answered with one `ShuttingDown` for the first frame before the close,
/// or with one `Cluster` error per frame.
fn execute_run(shared: &Shared, conn: &mut Conn, k: usize) {
    let answered = match count_batch(shared, conn, k) {
        Ok(values) => {
            conn.out.reserve(k * VALUE_FRAME_LEN);
            for (seq, value) in conn.decoder.take_next_run(k).zip(values) {
                Response::Value { value }.encode(seq, &mut conn.out);
            }
            k
        }
        Err(code) => {
            let answered = if conn.phase == Phase::Closing { 1 } else { k };
            for seq in conn.decoder.take_next_run(k).take(answered) {
                Response::Error(code).encode(seq, &mut conn.out);
            }
            answered
        }
    };
    shared.slot_stats[conn.slot].requests.fetch_add(answered as u64, Ordering::Relaxed);
}

/// Runs one decoded request against the backend and buffers the
/// response.
fn execute(shared: &Shared, conn: &mut Conn, seq: u32, req: Request) {
    let stats = &shared.slot_stats[conn.slot];
    stats.requests.fetch_add(1, Ordering::Relaxed);
    match req {
        // `process_frames` counts every `Next` as a run; a decoded one is
        // still a batch of one.
        Request::Next => {
            let resp = match count_batch(shared, conn, 1) {
                Ok(values) => Response::Value { value: values[0] },
                Err(code) => Response::Error(code),
            };
            resp.encode(seq, &mut conn.out);
        }
        Request::NextBatch { n } => {
            let resp = match count_batch(shared, conn, n as usize) {
                Ok(values) => {
                    stats.batches.fetch_add(1, Ordering::Relaxed);
                    Response::Batch { values }
                }
                Err(code) => Response::Error(code),
            };
            resp.encode(seq, &mut conn.out);
        }
        Request::ForwardBatch { token, node_seq, counts } => {
            if shared.stop.load(Ordering::Acquire) {
                Response::Error(ErrorCode::ShuttingDown).encode(seq, &mut conn.out);
                conn.phase = Phase::Closing;
                return;
            }
            // Everything is checked before a word moves: the frame is for
            // this node, it has a count for each wire of the cut, and the
            // counts add up (in `u64`: each alone can be `u32::MAX`) to a
            // batch one response frame can answer.
            let total: u64 = counts.iter().map(|&count| u64::from(count)).sum();
            let resp = match &shared.cluster {
                Some(c) if node_seq as usize == c.node() && counts.len() == c.fan() => {
                    if total == 0 || total > u64::from(MAX_BATCH) {
                        Response::Error(ErrorCode::BadBatch)
                    } else {
                        conn.phase = Phase::Executing;
                        conn.entering.clear();
                        conn.entering.extend(counts.iter().map(|&count| count as usize));
                        match c.step_batch(conn.slot, token, &conn.entering) {
                            Ok(values) => {
                                stats.ops.fetch_add(total, Ordering::Relaxed);
                                stats.batches.fetch_add(1, Ordering::Relaxed);
                                Response::Batch { values }
                            }
                            Err(_) => Response::Error(ErrorCode::Cluster),
                        }
                    }
                }
                _ => Response::Error(ErrorCode::Cluster),
            };
            resp.encode(seq, &mut conn.out);
        }
        Request::NodeInfo => {
            let shards = shared.recorder.as_ref().map_or(0, |r| r.shards() as u32);
            let info = match &shared.cluster {
                Some(c) => NodeInfo {
                    node: c.node() as u32,
                    nodes: c.nodes() as u32,
                    fan: c.fan() as u32,
                    shards,
                    head: c.head_addr(),
                },
                // A plain server is its own one-node cluster; fan 0 means
                // "not partitioned".
                None => {
                    NodeInfo { node: 0, nodes: 1, fan: 0, shards, head: shared.advertise.clone() }
                }
            };
            Response::NodeInfo(info).encode(seq, &mut conn.out);
        }
        Request::Announce { node: _, head } => {
            // Learn the head's address once and relay it onward; repeat
            // announcements are acknowledged without re-propagating.
            if let Some(c) = &shared.cluster {
                if !head.is_empty() && c.head_addr().is_empty() {
                    c.set_head_addr(head);
                    let _ = c.announce_downstream(conn.slot);
                }
            }
            Response::Pong.encode(seq, &mut conn.out);
        }
        Request::Frontier { shard, max } => {
            let resp = match &shared.audit {
                Some(table) if (shard as usize) < table.shards() => {
                    Response::Frontier { frontier: table.ship(shard as usize, max) }
                }
                // Auditing off: an empty, finished frontier tells the
                // puller it will never see events from this shard.
                None => Response::Frontier {
                    frontier: ShardFrontier {
                        shard: shard as usize,
                        finished: true,
                        ..Default::default()
                    },
                },
                // Shard out of range on an audited server: a client bug.
                Some(_) => Response::Error(ErrorCode::Malformed),
            };
            resp.encode(seq, &mut conn.out);
        }
        Request::Ping => Response::Pong.encode(seq, &mut conn.out),
        Request::Stats => {
            Response::Stats(snapshot(shared)).encode(seq, &mut conn.out);
        }
        Request::Shutdown => {
            Response::Bye.encode(seq, &mut conn.out);
            shared.shutdown_requested.store(true, Ordering::Release);
            shared.gate_cv.notify_all();
            conn.phase = Phase::Closing;
        }
    }
}

/// Writes pending output until done or `WouldBlock`. Returns `false` on a
/// hard write error (dead peer — responses are lost, like a broken pipe
/// under the old design).
fn flush_out(conn: &mut Conn) -> bool {
    while conn.pending_out() {
        match conn.stream.write(&conn.out[conn.out_pos..]) {
            Ok(0) => return false,
            Ok(n) => conn.out_pos += n,
            Err(ref e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => return true,
            Err(_) => return false,
        }
    }
    if conn.out_pos > 0 {
        conn.out.clear();
        conn.out_pos = 0;
    }
    true
}

/// Raises or lowers write interest to match pending output. Level
/// triggering makes spurious write events expensive at scale, so the
/// interest is only widened while a response is actually stuck.
fn update_interest(poller: &Poller, conn: &mut Conn) {
    let want_write = conn.pending_out();
    if want_write != conn.write_interest {
        let interest = if want_write { Interest::READABLE_WRITABLE } else { Interest::READABLE };
        if poller.modify(&conn.stream, conn.slot as u64, interest).is_ok() {
            conn.write_interest = want_write;
        }
    }
}

/// Deregisters, flushes the recorder shard, and frees the slot. Runs on
/// the owning reactor thread — the single-writer handoff point: the shard
/// is quiesced before the slot can be reused.
fn close_conn(shared: &Shared, poller: &Poller, conn: Conn) {
    let _ = poller.deregister(&conn.stream);
    if let Some(rec) = &shared.recorder {
        rec.flush(conn.slot);
    }
    release_slot(shared, conn.slot);
}

/// Final drain at reactor exit: one more read pass per connection so
/// frames already in flight are answered (increments see the stop flag
/// and get `ShuttingDown`), then a bounded-deadline flush and close.
fn drain_reactor(
    shared: &Arc<Shared>,
    poller: &Poller,
    mut conns: HashMap<u64, Conn>,
    scratch: &mut [u8],
) {
    for conn in conns.values_mut() {
        if conn.phase != Phase::Closing {
            loop {
                match conn.stream.read(scratch) {
                    Ok(0) => break,
                    Ok(n) => {
                        conn.decoder.extend(&scratch[..n]);
                        if n < scratch.len() {
                            break;
                        }
                    }
                    Err(ref e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => break,
                }
            }
            process_frames(shared, conn);
        }
        // Bounded flush: responses are small, so this is one write in
        // practice; a stuck peer cannot hold shutdown hostage.
        let mut budget = 200;
        while conn.pending_out() && budget > 0 {
            if !flush_out(conn) {
                break;
            }
            if conn.pending_out() {
                std::thread::sleep(Duration::from_millis(1));
                budget -= 1;
            }
        }
    }
    for (_, conn) in conns.drain() {
        close_conn(shared, poller, conn);
    }
}

/// Frees slots of connections reactor 0 handed over after their reactor
/// had already stopped (they were never registered, so closing the stream
/// by drop is all the teardown they need).
fn drain_inbox_slots(shared: &Shared, r: usize) {
    let leftovers: Vec<(usize, TcpStream)> = std::mem::take(&mut *shared.reactors[r].inbox.lock());
    for (slot, _stream) in leftovers {
        release_slot(shared, slot);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{read_frame, VERSION};
    use cnet_runtime::FetchAddCounter;

    fn fetch_add_server(cfg: ServerConfig) -> CounterServer {
        CounterServer::start("127.0.0.1:0", Arc::new(FetchAddCounter::new()), cfg).unwrap()
    }

    /// A minimal raw client for exercising the wire directly.
    struct Raw {
        stream: TcpStream,
        decoder: FrameDecoder,
        seq: u32,
    }

    impl Raw {
        fn connect(addr: SocketAddr) -> Raw {
            let stream = TcpStream::connect(addr).unwrap();
            Raw { stream, decoder: FrameDecoder::new(), seq: 0 }
        }

        fn send(&mut self, req: &Request) -> u32 {
            let seq = self.seq;
            self.seq += 1;
            let mut frame = Vec::new();
            req.encode(seq, &mut frame);
            self.stream.write_all(&frame).unwrap();
            seq
        }

        /// The next frame's payload, version byte and all.
        fn recv_payload(&mut self) -> Vec<u8> {
            read_frame(&mut self.stream, &mut self.decoder).unwrap().unwrap()
        }

        fn recv(&mut self) -> (u32, Response) {
            Response::decode(&self.recv_payload()).unwrap()
        }

        /// Asserts the server sent nothing more and closed the connection.
        fn expect_close(mut self) {
            assert!(read_frame(&mut self.stream, &mut self.decoder).unwrap().is_none());
        }
    }

    #[test]
    fn serves_values_and_batches_with_seq_echo() {
        let mut server = fetch_add_server(ServerConfig::default());
        let mut c = Raw::connect(server.local_addr());
        let s0 = c.send(&Request::Next);
        assert_eq!(c.recv(), (s0, Response::Value { value: 0 }));
        let s1 = c.send(&Request::NextBatch { n: 4 });
        assert_eq!(c.recv(), (s1, Response::Batch { values: vec![1, 2, 3, 4] }));
        let s2 = c.send(&Request::Ping);
        assert_eq!(c.recv(), (s2, Response::Pong));
        let s3 = c.send(&Request::Stats);
        let (seq, resp) = c.recv();
        assert_eq!(seq, s3);
        let Response::Stats(stats) = resp else { panic!("expected stats, got {resp:?}") };
        assert_eq!(stats.ops, 5);
        assert_eq!(stats.batches, 1);
        assert_eq!(stats.requests, 4); // the Stats request itself counted
        assert_eq!(stats.active_connections, 1);
        assert!(stats.reactor_wakeups > 0, "reactor must have woken to serve");
        server.shutdown();
        let final_stats = server.stats();
        assert_eq!(final_stats.total_connections, 1);
        assert_eq!(final_stats.ops, 5);
    }

    #[test]
    fn pipelined_requests_all_get_answers() {
        let server = fetch_add_server(ServerConfig::default());
        let mut c = Raw::connect(server.local_addr());
        // Burst of requests before reading anything.
        let seqs: Vec<u32> = (0..32).map(|_| c.send(&Request::Next)).collect();
        let mut values = Vec::new();
        for expected_seq in seqs {
            let (seq, resp) = c.recv();
            assert_eq!(seq, expected_seq);
            let Response::Value { value } = resp else { panic!("{resp:?}") };
            values.push(value);
        }
        values.sort_unstable();
        assert_eq!(values, (0..32).collect::<Vec<u64>>());
    }

    #[test]
    fn reject_backpressure_answers_busy() {
        let server = fetch_add_server(ServerConfig {
            max_connections: 1,
            backpressure: Backpressure::Reject,
            processes: 1,
            reactors: 1,
        });
        let mut first = Raw::connect(server.local_addr());
        let s = first.send(&Request::Next);
        assert_eq!(first.recv(), (s, Response::Value { value: 0 }));
        // Second connection: refused with Busy.
        let mut second = Raw::connect(server.local_addr());
        let (_, resp) = second.recv();
        assert_eq!(resp, Response::Error(ErrorCode::Busy));
        // The slot frees once the first client leaves.
        drop(first.stream);
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        let mut served = false;
        while std::time::Instant::now() < deadline {
            let mut c = Raw::connect(server.local_addr());
            c.send(&Request::Ping);
            if let (_, Response::Pong) = c.recv() {
                served = true;
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(served, "slot never freed after client disconnect");
        assert!(server.stats().rejected_connections >= 1);
    }

    #[test]
    fn block_backpressure_defers_the_accept_until_a_slot_frees() {
        let server = fetch_add_server(ServerConfig {
            max_connections: 1,
            backpressure: Backpressure::Block,
            processes: 1,
            reactors: 1,
        });
        let addr = server.local_addr();
        let mut first = Raw::connect(addr);
        let s = first.send(&Request::Next);
        assert_eq!(first.recv(), (s, Response::Value { value: 0 }));
        // Second connection parks; it is served after the first leaves.
        let waiter = std::thread::spawn(move || {
            let mut c = Raw::connect(addr);
            c.send(&Request::Next);
            c.recv()
        });
        std::thread::sleep(Duration::from_millis(50));
        drop(first.stream);
        let (_, resp) = waiter.join().unwrap();
        assert_eq!(resp, Response::Value { value: 1 });
        assert!(
            server.stats().deferred_accepts >= 1,
            "the parked accept must be counted as deferred"
        );
    }

    #[test]
    fn malformed_frames_get_an_error_and_a_close() {
        let server = fetch_add_server(ServerConfig::default());
        // A syntactically valid frame with a bogus opcode: never assigned
        // (0x6f), or the retired Trace request (0x0A).
        for opcode in [0x6f, 0x0A] {
            let mut c = Raw::connect(server.local_addr());
            let mut frame = Vec::new();
            Request::NextBatch { n: 4 }.encode(3, &mut frame);
            frame[5] = opcode; // the opcode byte (len(4) + version(1))
            c.stream.write_all(&frame).unwrap();
            let (_, resp) = c.recv();
            assert_eq!(resp, Response::Error(ErrorCode::Malformed));
            // The server closed the connection after the error.
            c.expect_close();
        }
    }

    #[test]
    fn corrupt_framing_closes_the_connection() {
        let server = fetch_add_server(ServerConfig::default());
        let mut c = Raw::connect(server.local_addr());
        // A length word over MAX_FRAME: unrecoverable framing corruption.
        c.stream.write_all(&(((crate::wire::MAX_FRAME + 1) as u32).to_le_bytes())).unwrap();
        let (_, resp) = c.recv();
        assert_eq!(resp, Response::Error(ErrorCode::Malformed));
        c.expect_close();
    }

    #[test]
    fn shutdown_frame_drains_the_server() {
        use std::io::Read as _;
        let mut server = fetch_add_server(ServerConfig::default());
        assert!(!server.shutdown_requested());
        let mut c = Raw::connect(server.local_addr());
        let s0 = c.send(&Request::Next);
        assert_eq!(c.recv(), (s0, Response::Value { value: 0 }));
        let s1 = c.send(&Request::Shutdown);
        assert_eq!(c.recv(), (s1, Response::Bye));
        server.wait_for_shutdown_request();
        assert!(server.shutdown_requested());
        server.shutdown();
        // Fresh connections are no longer accepted/served.
        if let Ok(mut stream) = TcpStream::connect(server.local_addr()) {
            let mut frame = Vec::new();
            Request::Ping.encode(0, &mut frame);
            let _ = stream.write_all(&frame);
            let mut rest = Vec::new();
            let _ = stream.read_to_end(&mut rest);
            assert!(rest.is_empty(), "a drained server must not serve");
        }
    }

    #[test]
    fn bad_batch_sizes_are_refused_without_closing() {
        let server = fetch_add_server(ServerConfig::default());
        let mut c = Raw::connect(server.local_addr());
        let s0 = c.send(&Request::NextBatch { n: 0 });
        assert_eq!(c.recv(), (s0, Response::Error(ErrorCode::BadBatch)));
        let s1 = c.send(&Request::NextBatch { n: MAX_BATCH + 1 });
        assert_eq!(c.recv(), (s1, Response::Error(ErrorCode::BadBatch)));
        // Connection still usable.
        let s2 = c.send(&Request::Next);
        assert_eq!(c.recv(), (s2, Response::Value { value: 0 }));
    }

    #[test]
    fn recorder_sees_every_served_increment() {
        let recorder = Arc::new(TraceRecorder::new(4, 1024));
        let mut server = CounterServer::with_recorder(
            "127.0.0.1:0",
            Arc::new(FetchAddCounter::new()),
            Arc::clone(&recorder),
            ServerConfig { max_connections: 4, ..ServerConfig::default() },
        )
        .unwrap();
        let mut c = Raw::connect(server.local_addr());
        let s = c.send(&Request::NextBatch { n: 100 });
        let (_, resp) = c.recv();
        assert_eq!(s, 0);
        let Response::Batch { values } = resp else { panic!("{resp:?}") };
        assert_eq!(values.len(), 100);
        drop(c);
        server.shutdown();
        let mut auditor = cnet_core::trace::StreamingAuditor::new();
        cnet_runtime::recorder::drain_remaining(&recorder, &mut auditor);
        assert_eq!(auditor.operations(), 100);
        assert!(auditor.is_clean(), "{}", auditor.summary());
    }

    #[test]
    fn with_recorder_validates_shard_count() {
        let recorder = Arc::new(TraceRecorder::new(2, 16));
        let err = CounterServer::with_recorder(
            "127.0.0.1:0",
            Arc::new(FetchAddCounter::new()),
            recorder,
            ServerConfig { max_connections: 8, ..ServerConfig::default() },
        )
        .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }

    #[test]
    fn many_reactors_shard_connections_disjointly() {
        // More reactors than connections is clamped; more connections
        // than reactors shards them. Either way every client is served.
        let server = fetch_add_server(ServerConfig {
            max_connections: 8,
            backpressure: Backpressure::Reject,
            processes: 8,
            reactors: 3,
        });
        let mut clients: Vec<Raw> = (0..8).map(|_| Raw::connect(server.local_addr())).collect();
        let seqs: Vec<u32> = clients.iter_mut().map(|c| c.send(&Request::Next)).collect();
        let mut values = Vec::new();
        for (c, s) in clients.iter_mut().zip(seqs) {
            let (seq, resp) = c.recv();
            assert_eq!(seq, s);
            let Response::Value { value } = resp else { panic!("{resp:?}") };
            values.push(value);
        }
        values.sort_unstable();
        assert_eq!(values, (0..8).collect::<Vec<u64>>());
    }

    /// A `Next` frame stamped with protocol version 1, the pre-cluster
    /// dialect.
    fn v1_next(seq: u32) -> Vec<u8> {
        let mut frame = Vec::new();
        Request::Next.encode(seq, &mut frame);
        frame[4] = 1; // the version byte (after the length word)
        frame
    }

    #[test]
    fn a_version_1_frame_gets_malformed_and_a_close() {
        let server = fetch_add_server(ServerConfig::default());
        let mut c = Raw::connect(server.local_addr());
        c.stream.write_all(&v1_next(8)).unwrap();
        assert_eq!(c.recv().1, Response::Error(ErrorCode::Malformed));
        c.expect_close();
        assert_eq!(server.stats().ops, 0, "the counter did not move");
    }

    #[test]
    fn a_plain_server_answers_node_info_as_a_one_node_cluster() {
        let server = fetch_add_server(ServerConfig::default());
        let mut c = Raw::connect(server.local_addr());
        let s = c.send(&Request::NodeInfo);
        let (seq, resp) = c.recv();
        assert_eq!(seq, s);
        let Response::NodeInfo(info) = resp else { panic!("{resp:?}") };
        assert_eq!((info.node, info.nodes, info.fan), (0, 1, 0));
        assert_eq!(info.head, server.local_addr().to_string());
    }

    #[test]
    fn frontier_chunks_carry_skip_accounting_over_the_wire() {
        // Sampling on (1-in-2): the frontier must carry skip accounting.
        let recorder = Arc::new(TraceRecorder::with_sampling(4, 1024, 2));
        let server = CounterServer::with_recorder(
            "127.0.0.1:0",
            Arc::new(FetchAddCounter::new()),
            Arc::clone(&recorder),
            ServerConfig { max_connections: 4, ..ServerConfig::default() },
        )
        .unwrap();
        let addr = server.local_addr();
        {
            // One round trip each, so every frame is a run of one, sampled
            // by operation like any other run.
            let mut c = Raw::connect(addr);
            for _ in 0..20 {
                c.send(&Request::Next);
                c.recv();
            }
        } // disconnect flushes the slot's shard (and settles the window)
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        let mut ops = Vec::new();
        let mut skipped = 0;
        while ops.len() < 10 && std::time::Instant::now() < deadline {
            let mut c = Raw::connect(addr);
            for shard in 0..4u32 {
                // Chunked fetch: 4 ops at a time until the shard runs dry.
                loop {
                    c.send(&Request::Frontier { shard, max: 4 });
                    let (_, resp) = c.recv();
                    let Response::Frontier { frontier } = resp else { panic!("{resp:?}") };
                    assert_eq!(frontier.shard, shard as usize);
                    assert!(frontier.ops.len() <= 4);
                    skipped = skipped.max(frontier.skipped);
                    if frontier.ops.is_empty() {
                        break;
                    }
                    ops.extend(frontier.ops);
                }
            }
            if ops.len() < 10 {
                std::thread::sleep(Duration::from_millis(10));
            }
        }
        // 20 increments at 1-in-2 sampling: 10 recorded, 10 skipped.
        let mut values: Vec<u64> = ops.iter().map(|op| op.value).collect();
        values.sort_unstable();
        assert_eq!(values, (0..20).filter(|v| v % 2 == 1).collect::<Vec<u64>>());
        assert!(ops.iter().all(|op| op.exit_ns >= op.enter_ns));
        assert_eq!(skipped, 10);
        // Out-of-range shard on an audited server is refused.
        let mut c = Raw::connect(addr);
        c.send(&Request::Frontier { shard: 99, max: 4 });
        let (_, resp) = c.recv();
        assert!(matches!(resp, Response::Error(ErrorCode::Malformed)), "{resp:?}");
    }

    #[test]
    fn the_audit_table_holds_back_what_a_bounded_frontier_cannot_carry() {
        let recorder = Arc::new(TraceRecorder::new(1, 64));
        for v in 0..10 {
            recorder.record(0, v);
        }
        recorder.flush(0);
        let table = AuditTable::new(Arc::clone(&recorder));
        // Six events stay behind: the frontier is not finished, and only
        // the last shipped enter bounds what follows.
        let first = table.frontier(0, 4, true);
        assert_eq!(first.ops.len(), 4);
        assert!(!first.finished);
        assert_eq!(first.watermark, first.ops.last().map(|op| op.enter_ns));
        // A `Frontier` request ships the next three and counts them taken.
        let shipped = table.ship(0, 3);
        assert_eq!((shipped.ops.len(), table.taken()), (3, 3));
        let last = table.frontier(0, usize::MAX, true);
        assert!(last.finished);
        let values: Vec<u64> =
            [first, shipped, last].iter().flat_map(|f| f.ops.iter().map(|op| op.value)).collect();
        assert_eq!(values, (0..10).collect::<Vec<u64>>());
        assert_eq!(table.taken(), 3);
    }

    #[test]
    fn frontier_requests_and_the_servers_own_audit_split_one_stream() {
        let recorder = Arc::new(TraceRecorder::new(2, 1024));
        let mut server = CounterServer::with_recorder(
            "127.0.0.1:0",
            Arc::new(FetchAddCounter::new()),
            Arc::clone(&recorder),
            ServerConfig { max_connections: 2, ..ServerConfig::default() },
        )
        .unwrap();
        assert!(CounterServer::start(
            "127.0.0.1:0",
            Arc::new(FetchAddCounter::new()),
            ServerConfig::default()
        )
        .unwrap()
        .audit()
        .is_none());
        let table = Arc::clone(server.audit().expect("a recording server has a table"));
        {
            let mut c = Raw::connect(server.local_addr());
            for _ in 0..100 {
                c.send(&Request::Next);
                c.recv();
            }
        } // disconnect flushes the slot's shard
        let mut remote = Vec::new();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while remote.len() < 40 && std::time::Instant::now() < deadline {
            let mut c = Raw::connect(server.local_addr());
            c.send(&Request::Frontier { shard: 0, max: 40 - remote.len() as u32 });
            let (_, resp) = c.recv();
            let Response::Frontier { frontier } = resp else { panic!("{resp:?}") };
            remote.extend(frontier.ops.iter().map(|op| op.value));
        }
        server.shutdown();
        let local: Vec<u64> = (0..table.shards())
            .flat_map(|sh| table.frontier(sh, usize::MAX, true).ops)
            .map(|op| op.value)
            .collect();
        assert_eq!((remote.len(), table.taken()), (40, 40));
        let mut all: Vec<u64> = remote.into_iter().chain(local).collect();
        all.sort_unstable();
        assert_eq!(all, (0..100).collect::<Vec<u64>>(), "each event reaches one side");
    }

    #[test]
    fn frontier_without_a_recorder_reports_a_finished_empty_shard() {
        let server = CounterServer::start(
            "127.0.0.1:0",
            Arc::new(FetchAddCounter::new()),
            ServerConfig { max_connections: 2, ..ServerConfig::default() },
        )
        .unwrap();
        let mut c = Raw::connect(server.local_addr());
        c.send(&Request::Frontier { shard: 0, max: 16 });
        let (_, resp) = c.recv();
        let Response::Frontier { frontier } = resp else { panic!("{resp:?}") };
        assert!(frontier.finished && frontier.ops.is_empty());
    }

    #[test]
    fn a_two_node_cluster_serves_the_whole_permutation() {
        use crate::client::RemoteCounter;
        use cnet_topology::construct::bitonic;

        let net = bitonic(8).unwrap();
        let cfg = ServerConfig {
            max_connections: 8,
            processes: 8,
            reactors: 2,
            ..ServerConfig::default()
        };
        // Tail first (it owns the counters and needs no peer), then the
        // head pointed at it — the verify-script startup order.
        let tail = Arc::new(ClusterNode::new(&net, 1, 2, &[], cfg.max_connections).unwrap());
        let tail_server =
            CounterServer::start_cluster("127.0.0.1:0", Arc::clone(&tail), None, cfg).unwrap();
        let peers = vec![tail_server.local_addr().to_string()];
        let head = Arc::new(ClusterNode::new(&net, 0, 2, &peers, cfg.max_connections).unwrap());
        let head_server =
            CounterServer::start_cluster("127.0.0.1:0", Arc::clone(&head), None, cfg).unwrap();

        let client = RemoteCounter::connect(head_server.local_addr(), 2).unwrap();
        let mut values = Vec::new();
        for i in 0..64 {
            values.push(client.try_next(i % 8).unwrap());
        }
        values.extend(client.next_batch(3, 100).unwrap());
        values.sort_unstable();
        assert_eq!(values, (0..164).collect::<Vec<u64>>(), "cluster permutation broke");

        // NodeInfo from both nodes; the tail learns the head's address
        // from the startup announcement.
        let info = client.node_info().unwrap();
        assert_eq!((info.node, info.nodes, info.fan), (0, 2, 8));
        let tail_client = RemoteCounter::connect(tail_server.local_addr(), 1).unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        let mut tail_info = tail_client.node_info().unwrap();
        while tail_info.head.is_empty() && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
            tail_info = tail_client.node_info().unwrap();
        }
        assert_eq!((tail_info.node, tail_info.nodes), (1, 2));
        assert_eq!(tail_info.head, head_server.local_addr().to_string());

        // Routed connect against the tail lands on the head and counts.
        let routed = RemoteCounter::connect_routed(tail_server.local_addr(), 1).unwrap();
        assert_eq!(routed.addr(), head_server.local_addr());
        assert_eq!(routed.try_next(0).unwrap(), 164);

        // A client Next against the tail is refused: its entry ports are
        // interior cut positions.
        assert!(tail_client.try_next(0).is_err());
    }

    #[test]
    fn forward_batches_fail_closed_against_a_live_tail() {
        use cnet_topology::construct::bitonic;
        let net = bitonic(4).unwrap();
        let tail = Arc::new(ClusterNode::new(&net, 1, 2, &[], 2).unwrap());
        let server =
            CounterServer::start_cluster("127.0.0.1:0", tail, None, ServerConfig::default())
                .unwrap();
        let mut c = Raw::connect(server.local_addr());
        let batch = |node_seq: u32, counts: &[u32]| Request::ForwardBatch {
            token: 0,
            node_seq,
            counts: counts.to_vec(),
        };
        for (req, code) in [
            // A count for three or five wires of a four-wire cut.
            (batch(1, &[1, 1, 1]), ErrorCode::Cluster),
            (batch(1, &[1, 1, 1, 1, 1]), ErrorCode::Cluster),
            // Addressed to another node.
            (batch(2, &[1, 1, 1, 1]), ErrorCode::Cluster),
            // No token at all, or more than one response frame can answer:
            // two wires that each fit, and four that would wrap a `u32` sum.
            (batch(1, &[0, 0, 0, 0]), ErrorCode::BadBatch),
            (batch(1, &[40_000, 40_000, 0, 0]), ErrorCode::BadBatch),
            (batch(1, &[u32::MAX; 4]), ErrorCode::BadBatch),
        ] {
            let s = c.send(&req);
            assert_eq!(c.recv(), (s, Response::Error(code)), "{req:?}");
        }
        // A frame in the per-wire format (`token, port, node_seq, n`) from
        // a node one build older: a hop to node 1 is the one such frame
        // that still parses — as one count on a one-wire cut, addressed to
        // node `port` — and the fan check refuses it.
        let mut old = Vec::new();
        old.extend_from_slice(&((HEADER_LEN + 20) as u32).to_le_bytes());
        old.extend_from_slice(&[VERSION, 0x07]);
        old.extend_from_slice(&77u32.to_le_bytes());
        old.extend_from_slice(&0u64.to_le_bytes());
        for word in [1u32, 1, 64] {
            old.extend_from_slice(&word.to_le_bytes());
        }
        c.stream.write_all(&old).unwrap();
        assert_eq!(c.recv(), (77, Response::Error(ErrorCode::Cluster)));
        // Not one counter word moved for any of them.
        assert_eq!(server.stats().ops, 0);

        // A correct frame is answered by one `Batch`, a value per token.
        let s = c.send(&batch(1, &[3, 0, 2, 1]));
        let (seq, resp) = c.recv();
        let Response::Batch { mut values } = resp else { panic!("{resp:?}") };
        values.sort_unstable();
        values.dedup();
        assert_eq!((seq, values.len()), (s, 6), "six distinct values: {values:?}");
        let stats = server.stats();
        assert_eq!((stats.requests, stats.ops, stats.batches), (8, 6, 1));

        // A plain (non-cluster) server has no cut to receive on.
        let plain = fetch_add_server(ServerConfig::default());
        let mut p = Raw::connect(plain.local_addr());
        let s = p.send(&batch(0, &[1, 1, 1, 1]));
        assert_eq!(p.recv(), (s, Response::Error(ErrorCode::Cluster)));
        assert_eq!(plain.stats().ops, 0);

        // Once the node is stopping: one `ShuttingDown`, then the close
        // (on a connection no reactor owns, so the frame cannot race the
        // reactors' exit).
        server.shared.stop.store(true, Ordering::Release);
        let (mut conn, _peer) = detached_conn();
        let (mut frame, mut want) = (Vec::new(), Vec::new());
        batch(1, &[3, 0, 2, 1]).encode(9, &mut frame);
        conn.decoder.extend(&frame);
        process_frames(&server.shared, &mut conn);
        Response::Error(ErrorCode::ShuttingDown).encode(9, &mut want);
        assert_eq!((&conn.out, conn.phase), (&want, Phase::Closing));
        assert_eq!(server.stats().ops, 6);
    }

    #[test]
    fn a_three_node_chain_forwards_one_frame_per_batch_per_hop() {
        use crate::client::RemoteCounter;
        use cnet_topology::construct::bitonic;

        // B(8) is six layers deep: two per node, two reactors per node.
        let net = bitonic(8).unwrap();
        let cfg = ServerConfig {
            max_connections: 8,
            processes: 8,
            reactors: 2,
            ..ServerConfig::default()
        };
        let start = |node: usize, peers: &[String]| {
            let node =
                Arc::new(ClusterNode::new(&net, node, 3, peers, cfg.max_connections).unwrap());
            let server =
                CounterServer::start_cluster("127.0.0.1:0", Arc::clone(&node), None, cfg).unwrap();
            (node, server)
        };
        let (tail, tail_server) = start(2, &[]);
        let (_, mid_server) = start(1, &[tail_server.local_addr().to_string()]);
        let (_, head_server) = start(0, &[mid_server.local_addr().to_string()]);
        let head_addr = head_server.local_addr();
        let mut servers = [head_server, mid_server, tail_server];
        fn chain(servers: &[CounterServer; 3]) -> [StatsSnapshot; 3] {
            servers.each_ref().map(|s| s.stats())
        }
        // Let the head's announcement travel the chain first, so no
        // `Announce` frame lands inside a counted phase below.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while tail.head_addr().is_empty() {
            assert!(std::time::Instant::now() < deadline, "the announcement never arrived");
            std::thread::sleep(Duration::from_millis(5));
        }
        // What a phase added to (`requests`, `batches`) on each node.
        let added = |before: &[StatsSnapshot; 3], after: &[StatsSnapshot; 3]| {
            [0, 1, 2].map(|k| {
                (after[k].requests - before[k].requests, after[k].batches - before[k].batches)
            })
        };
        let client = RemoteCounter::connect(head_addr, 2).unwrap();
        // Each phase runs from both connections at once.
        let on_both = |call: &(dyn Fn(usize) -> Vec<u64> + Sync)| -> Vec<u64> {
            std::thread::scope(|s| {
                let handles = [0, 1].map(|slot| s.spawn(move || call(slot)));
                handles.into_iter().flat_map(|h| h.join().unwrap()).collect()
            })
        };

        // Single increments: the head counts each lone `Next` as a run of
        // one, and it crosses each cut as a one-token `ForwardBatch`.
        let before = chain(&servers);
        let mut values = on_both(&|slot| (0..32).map(|_| client.try_next(slot).unwrap()).collect());
        let singles = added(&before, &chain(&servers));
        assert_eq!(singles, [(64, 0), (64, 64), (64, 64)], "requests, batches per node");

        // Batches: 100 from each connection, and a chunked one — four
        // `NextBatch` frames at the head, so four frames over each cut.
        let before = chain(&servers);
        values.extend(on_both(&|slot| {
            let mut got = client.next_batch(slot, 100).unwrap();
            if slot == 0 {
                got.extend(client.next_batch(slot, MAX_BATCH as usize + 7).unwrap());
            }
            got
        }));
        let batched = added(&before, &chain(&servers));
        assert_eq!(batched[0].1, 4, "NextBatch frames at the head");
        for k in 0..2 {
            assert_eq!(
                batched[k + 1].0,
                batched[k].1,
                "node {} received as many frames as node {k} served batches: {batched:?}",
                k + 1
            );
        }

        // Pipelined runs: the head counts each coalesced run as one
        // `ingress_batch` (and a frame that arrived alone as a single), so
        // again every frame the middle node receives goes on as one frame.
        let before = chain(&servers);
        values.extend(on_both(&|slot| client.next_pipelined(slot, 300).unwrap()));
        let piped = added(&before, &chain(&servers));
        assert_eq!(piped[1], piped[2], "one frame out per frame in: {piped:?}");
        assert!(piped[1].0 < 600, "runs were coalesced: {piped:?}");

        let n = values.len() as u64;
        assert_eq!(n, 64 + 200 + u64::from(MAX_BATCH) + 7 + 600);
        values.sort_unstable();
        assert!(values.iter().copied().eq(0..n), "the chain handed out exactly 0..{n}");
        assert_eq!(chain(&servers).map(|s| s.ops), [n; 3], "ops agree along the chain");

        // Kill the tail: the next batch is refused back along the chain —
        // the middle node wrote its frame, lost the answer, and must not
        // write it again — and no node counts it as served.
        servers[2].shutdown();
        let err = client.next_batch(0, 10).unwrap_err();
        assert!(err.to_string().contains("Cluster"), "{err}");
        assert_eq!(chain(&servers).map(|s| s.ops), [n; 3]);
        // The nodes that are left still answer.
        client.ping(0).unwrap();
    }

    #[test]
    fn slow_reader_gets_every_pipelined_response() {
        // Force the Writing phase: pipeline enough batch responses to
        // overrun the socket buffer while the client is not reading, then
        // read everything back. Exercises partial flush + write interest.
        let server = fetch_add_server(ServerConfig::default());
        let mut c = Raw::connect(server.local_addr());
        let burst = 64u32;
        let per = 4096u32;
        let seqs: Vec<u32> = (0..burst).map(|_| c.send(&Request::NextBatch { n: per })).collect();
        std::thread::sleep(Duration::from_millis(100)); // let responses pile up
        let mut all = Vec::new();
        for s in seqs {
            let (seq, resp) = c.recv();
            assert_eq!(seq, s);
            let Response::Batch { values } = resp else { panic!("{resp:?}") };
            assert_eq!(values.len(), per as usize);
            all.extend(values);
        }
        all.sort_unstable();
        let want: Vec<u64> = (0..u64::from(burst * per)).collect();
        assert_eq!(all, want);
    }

    /// `[Next×5, Ping, Next×3, NextBatch{2}, Next, Next]` as one byte
    /// string, the seqs wrapping past `u32::MAX`, and the requests in it.
    fn mixed_burst() -> (Vec<u8>, Vec<(u32, Request)>) {
        let mut reqs = vec![Request::Next; 5];
        reqs.push(Request::Ping);
        reqs.extend(vec![Request::Next; 3]);
        reqs.push(Request::NextBatch { n: 2 });
        reqs.extend(vec![Request::Next; 2]);
        let mut bytes = Vec::new();
        let mut sent = Vec::new();
        for (i, req) in reqs.into_iter().enumerate() {
            let seq = (u32::MAX - 3).wrapping_add(i as u32);
            req.encode(seq, &mut bytes);
            sent.push((seq, req));
        }
        (bytes, sent)
    }

    #[test]
    fn a_mixed_burst_is_answered_in_order_with_runs_counted_as_one() {
        let server = fetch_add_server(ServerConfig::default());
        let mut c = Raw::connect(server.local_addr());
        let (bytes, sent) = mixed_burst();
        c.stream.write_all(&bytes).unwrap();
        let mut all = Vec::new();
        let mut run: Vec<u64> = Vec::new();
        for (seq, req) in sent {
            let (got_seq, resp) = c.recv();
            assert_eq!(got_seq, seq, "responses come in request order, echoing each seq");
            match (req, resp) {
                (Request::Next, Response::Value { value }) => {
                    assert!(run.last().is_none_or(|&v| v < value), "{run:?} then {value}");
                    run.push(value);
                }
                (Request::Ping, Response::Pong) => all.append(&mut run),
                (Request::NextBatch { n: 2 }, Response::Batch { values }) => {
                    all.append(&mut run);
                    assert_eq!(values.len(), 2);
                    all.extend(values);
                }
                (req, resp) => panic!("{req:?} answered with {resp:?}"),
            }
        }
        all.append(&mut run);
        all.sort_unstable();
        assert_eq!(all, (0..12).collect::<Vec<u64>>());
        let stats = server.stats();
        // A coalesced run is not a `NextBatch` frame: only that one counts.
        assert_eq!((stats.requests, stats.ops, stats.batches), (12, 12, 1));
    }

    /// A connection no reactor owns, so a test decides exactly which bytes
    /// each `process_frames` pass sees. The peer end keeps it open.
    fn detached_conn() -> (Conn, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (stream, _) = listener.accept().unwrap();
        (Conn::new(0, 0, stream), peer)
    }

    /// The response bytes a fresh fetch-add server buffers when `chunks`
    /// arrive in separate readiness passes.
    fn respond_to<'a>(chunks: impl IntoIterator<Item = &'a [u8]>) -> Vec<u8> {
        let server = fetch_add_server(ServerConfig { reactors: 1, ..ServerConfig::default() });
        let (mut conn, _peer) = detached_conn();
        for chunk in chunks {
            conn.decoder.extend(chunk);
            process_frames(&server.shared, &mut conn);
        }
        conn.out
    }

    #[test]
    fn responses_do_not_depend_on_where_the_stream_is_split() {
        let (bytes, _) = mixed_burst();
        let whole = respond_to([&bytes[..]]);
        assert_eq!(whole.len(), 10 * 18 + 10 + 30, "ten Values, a Pong, a Batch of 2");
        // A run cut by a read boundary becomes two shorter runs (or a run
        // and a single); a partial frame is never counted into one.
        for cut in 1..bytes.len() {
            assert_eq!(respond_to([&bytes[..cut], &bytes[cut..]]), whole, "split at byte {cut}");
        }
        assert_eq!(respond_to(bytes.chunks(1)), whole, "one byte at a time");
        // And through a real socket, dribbled.
        let server = fetch_add_server(ServerConfig::default());
        let mut c = Raw::connect(server.local_addr());
        c.stream.set_nodelay(true).unwrap();
        for byte in bytes.chunks(1) {
            c.stream.write_all(byte).unwrap();
        }
        let mut got = vec![0u8; whole.len()];
        c.stream.read_exact(&mut got).unwrap();
        assert_eq!(got, whole);
    }

    #[test]
    fn a_v1_next_inside_a_burst_answers_the_run_before_it_then_closes() {
        let server = fetch_add_server(ServerConfig::default());
        let mut c = Raw::connect(server.local_addr());
        let mut bytes = Vec::new();
        for seq in 0..3 {
            Request::Next.encode(seq, &mut bytes);
        }
        bytes.extend(v1_next(3));
        for seq in 4..7 {
            Request::Next.encode(seq, &mut bytes);
        }
        c.stream.write_all(&bytes).unwrap();
        for seq in 0..3u32 {
            assert_eq!(c.recv(), (seq, Response::Value { value: u64::from(seq) }));
        }
        assert_eq!(c.recv().1, Response::Error(ErrorCode::Malformed));
        c.expect_close();
        assert_eq!(server.stats().ops, 3, "nothing after the v1 frame counted");
    }

    #[test]
    fn a_bad_length_word_after_a_run_answers_the_run_then_closes() {
        let server = fetch_add_server(ServerConfig::default());
        let mut c = Raw::connect(server.local_addr());
        let mut bytes = Vec::new();
        for seq in 0..4 {
            Request::Next.encode(seq, &mut bytes);
        }
        bytes.extend(2u32.to_le_bytes()); // a length that cannot hold the header
        c.stream.write_all(&bytes).unwrap();
        for seq in 0..4u32 {
            assert_eq!(c.recv(), (seq, Response::Value { value: u64::from(seq) }));
        }
        assert_eq!(c.recv().1, Response::Error(ErrorCode::Malformed));
        c.expect_close();
    }

    #[test]
    fn coalesced_runs_are_recorded_and_audit_clean() {
        use crate::client::RemoteCounter;
        // Full recording behind a linearizable backend on two reactors; two
        // connections (slots 0 and 1, one per reactor) pipeline 64 bursts
        // of 256 `Next` each.
        let (bursts, width) = (64usize, 256usize);
        let recorder = Arc::new(TraceRecorder::new(2, bursts * width));
        let mut server = CounterServer::with_recorder(
            "127.0.0.1:0",
            Arc::new(FetchAddCounter::new()),
            Arc::clone(&recorder),
            ServerConfig { max_connections: 2, reactors: 2, ..ServerConfig::default() },
        )
        .unwrap();
        let client = RemoteCounter::connect(server.local_addr(), 2).unwrap();
        std::thread::scope(|s| {
            for slot in 0..2 {
                let client = &client;
                s.spawn(move || {
                    for _ in 0..bursts {
                        let values = client.next_pipelined(slot, width).unwrap();
                        assert!(values.windows(2).all(|w| w[0] < w[1]), "a burst ascends");
                    }
                });
            }
        });
        drop(client);
        server.shutdown();
        let served = server.stats().ops;
        assert_eq!(served, (2 * bursts * width) as u64);
        assert_eq!(server.stats().batches, 0, "runs are not NextBatch frames");
        let mut auditor = cnet_core::trace::StreamingAuditor::new();
        cnet_runtime::recorder::drain_remaining(&recorder, &mut auditor);
        assert_eq!(auditor.operations() as u64, served);
        assert_eq!(recorder.dropped(), 0);
        assert!(auditor.is_clean(), "{}", auditor.summary());
    }

    #[test]
    fn a_run_through_a_network_is_handed_out_and_recorded_ascending() {
        use cnet_runtime::SharedNetworkCounter;
        use cnet_topology::construct::bitonic;
        // A run must hand its values out ascending (per-process monotone)
        // and the recorder must see them in that same program order.
        let recorder = Arc::new(TraceRecorder::new(1, 256));
        let mut server = CounterServer::with_recorder(
            "127.0.0.1:0",
            Arc::new(SharedNetworkCounter::new(&bitonic(8).unwrap())),
            Arc::clone(&recorder),
            ServerConfig { max_connections: 1, ..ServerConfig::default() },
        )
        .unwrap();
        let mut c = Raw::connect(server.local_addr());
        let mut bytes = Vec::new();
        for seq in 0..64 {
            Request::Next.encode(seq, &mut bytes);
        }
        c.stream.write_all(&bytes).unwrap();
        let got: Vec<u64> = (0..64u32)
            .map(|seq| match c.recv() {
                (s, Response::Value { value }) if s == seq => value,
                other => panic!("{other:?}"),
            })
            .collect();
        assert_eq!(got, (0..64).collect::<Vec<u64>>());
        drop(c);
        server.shutdown();
        let mut recorded = Vec::new();
        recorder.pull_shard(0, |_, _, value| recorded.push(value));
        assert_eq!(recorded, got);
    }

    /// Three `NextBatch{64}` frames from one client, one after another,
    /// through `server`: a sequential run, so its recorded trace must
    /// audit clean. Returns the values in the order they were handed out.
    fn three_batches_audit_clean(server: &mut CounterServer, recorder: &TraceRecorder) -> Vec<u64> {
        let mut c = Raw::connect(server.local_addr());
        let mut got = Vec::new();
        for _ in 0..3 {
            let s = c.send(&Request::NextBatch { n: 64 });
            match c.recv() {
                (seq, Response::Batch { values }) if seq == s => got.extend(values),
                other => panic!("{other:?}"),
            }
        }
        drop(c);
        server.shutdown();
        let mut auditor = cnet_core::trace::StreamingAuditor::new();
        assert_eq!(cnet_runtime::recorder::drain_remaining(recorder, &mut auditor), 192);
        assert!(auditor.is_clean(), "{}", auditor.summary());
        got
    }

    #[test]
    fn a_recorded_network_batch_audits_clean() {
        use cnet_runtime::SharedNetworkCounter;
        use cnet_topology::construct::bitonic;
        let recorder = Arc::new(TraceRecorder::new(1, 256));
        let mut server = CounterServer::with_recorder(
            "127.0.0.1:0",
            Arc::new(SharedNetworkCounter::new(&bitonic(8).unwrap())),
            Arc::clone(&recorder),
            ServerConfig { max_connections: 1, ..ServerConfig::default() },
        )
        .unwrap();
        let got = three_batches_audit_clean(&mut server, &recorder);
        assert_eq!(got, (0..192).collect::<Vec<u64>>());
    }

    #[test]
    fn a_recorded_cluster_batch_audits_clean() {
        use cnet_topology::construct::bitonic;
        let net = bitonic(8).unwrap();
        let cfg = ServerConfig { max_connections: 1, ..ServerConfig::default() };
        let tail = Arc::new(ClusterNode::new(&net, 1, 2, &[], 1).unwrap());
        let tail_server = CounterServer::start_cluster("127.0.0.1:0", tail, None, cfg).unwrap();
        let peers = vec![tail_server.local_addr().to_string()];
        let head = Arc::new(ClusterNode::new(&net, 0, 2, &peers, 1).unwrap());
        let recorder = Arc::new(TraceRecorder::new(1, 256));
        let mut head_server =
            CounterServer::start_cluster("127.0.0.1:0", head, Some(Arc::clone(&recorder)), cfg)
                .unwrap();
        let got = three_batches_audit_clean(&mut head_server, &recorder);
        assert_eq!(got, (0..192).collect::<Vec<u64>>());
    }

    #[test]
    fn a_lone_next_is_a_run_of_one_and_its_event_is_published_at_once() {
        let recorder = Arc::new(TraceRecorder::new(1, 256));
        let server = CounterServer::with_recorder(
            "127.0.0.1:0",
            Arc::new(FetchAddCounter::new()),
            Arc::clone(&recorder),
            ServerConfig { max_connections: 1, reactors: 1, ..ServerConfig::default() },
        )
        .unwrap();
        let (mut conn, _peer) = detached_conn();
        let (mut bytes, mut want) = (Vec::new(), Vec::new());
        Request::Next.encode(5, &mut bytes);
        Request::Ping.encode(6, &mut bytes);
        conn.decoder.extend(&bytes);
        process_frames(&server.shared, &mut conn);
        Response::Value { value: 0 }.encode(5, &mut want);
        Response::Pong.encode(6, &mut want);
        assert_eq!(conn.out, want);
        let stats = server.stats();
        assert_eq!((stats.requests, stats.ops, stats.batches), (2, 1, 0));
        // No `flush`: a run is published as it is recorded.
        let mut recorded = Vec::new();
        recorder.pull_shard(0, |_, _, value| recorded.push(value));
        assert_eq!(recorded, [0]);
    }

    #[test]
    fn a_run_on_a_stopping_server_gets_one_shutting_down_and_a_close() {
        let server = fetch_add_server(ServerConfig { reactors: 1, ..ServerConfig::default() });
        server.shared.stop.store(true, Ordering::Release);
        let (mut conn, _peer) = detached_conn();
        let mut bytes = Vec::new();
        for seq in 40..43 {
            Request::Next.encode(seq, &mut bytes);
        }
        conn.decoder.extend(&bytes);
        process_frames(&server.shared, &mut conn);
        let mut want = Vec::new();
        Response::Error(ErrorCode::ShuttingDown).encode(40, &mut want);
        assert_eq!(conn.out, want, "the first frame is refused, the rest go unanswered");
        assert_eq!(conn.phase, Phase::Closing);
        assert_eq!(server.stats().ops, 0);
    }

    #[test]
    fn a_run_refused_by_the_cluster_is_answered_frame_by_frame() {
        use cnet_topology::construct::bitonic;
        // A tail node refuses client increments; the connection stays up.
        let net = bitonic(4).unwrap();
        let tail = Arc::new(ClusterNode::new(&net, 1, 2, &[], 2).unwrap());
        let server =
            CounterServer::start_cluster("127.0.0.1:0", tail, None, ServerConfig::default())
                .unwrap();
        let mut c = Raw::connect(server.local_addr());
        let mut bytes = Vec::new();
        for seq in 0..3 {
            Request::Next.encode(seq, &mut bytes);
        }
        Request::Ping.encode(3, &mut bytes);
        c.stream.write_all(&bytes).unwrap();
        for seq in 0..3u32 {
            assert_eq!(c.recv(), (seq, Response::Error(ErrorCode::Cluster)));
        }
        assert_eq!(c.recv(), (3, Response::Pong));
    }

    #[test]
    fn a_connect_is_accepted_on_its_readiness_event() {
        // Sequential connect → Ping → drop cycles. With the listener in
        // reactor 0's poller each costs a few wakeups; behind a 2 ms accept
        // poll 200 of them took about 400 ms.
        let server = fetch_add_server(ServerConfig {
            max_connections: 256,
            reactors: 1,
            ..ServerConfig::default()
        });
        let start = std::time::Instant::now();
        for _ in 0..200 {
            let mut c = Raw::connect(server.local_addr());
            let s = c.send(&Request::Ping);
            assert_eq!(c.recv(), (s, Response::Pong));
        }
        let took = start.elapsed();
        assert!(took < Duration::from_millis(200), "200 connect cycles took {took:?}");
        assert_eq!(server.stats().total_connections, 200);
    }

    #[test]
    fn a_slot_freed_on_another_reactor_wakes_the_parked_accept() {
        let server = fetch_add_server(ServerConfig {
            max_connections: 2,
            backpressure: Backpressure::Block,
            processes: 2,
            reactors: 2,
        });
        let addr = server.local_addr();
        // Slots 0 and 1, in accept order: the second lives on reactor 1.
        let mut held: Vec<Raw> = (0..2)
            .map(|_| {
                let mut c = Raw::connect(addr);
                let s = c.send(&Request::Ping);
                assert_eq!(c.recv(), (s, Response::Pong));
                c
            })
            .collect();
        let mut third = Raw::connect(addr);
        let s = third.send(&Request::Ping);
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while !server.shared.gate.lock().accept_parked {
            assert!(std::time::Instant::now() < deadline, "the third accept never parked");
            std::thread::yield_now();
        }
        drop(held.pop()); // reactor 1 releases slot 1 and wakes reactor 0
        assert_eq!(third.recv(), (s, Response::Pong));
        assert_eq!(server.stats().deferred_accepts, 1);
    }
}
