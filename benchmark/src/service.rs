//! The networked workloads: an in-process counting server (one node or a
//! two-node fabric) on loopback, one closed-loop load thread on two
//! connections, optionally a recorder with a live audit worker.
//!
//! `tcp_token`, `tcp_pipeline` and `cluster2_batch` are three shapes of
//! this one function, and so are the socket rungs of the replay ladder.
//! Loopback carries the traffic, not a link: the figures are CPU and
//! scheduler cost, and say nothing about wire latency.

use crate::check::{Check, ValueFold};
use crate::load::drive;
use crate::region::{Edge, Probes, Region, ServerProbe};
use crate::spans::{set_role, Role, Tracer, TRACING};
use crate::{stage, sys, Ctx, Run};
use cnet_core::trace::{MergeAuditor, RawOp, ShardMonitor};
use cnet_net::{Backpressure, ClusterNode, CounterServer, RemoteCounter, ServerConfig};
use cnet_runtime::{SharedNetworkCounter, TraceRecorder};
use cnet_topology::construct::bitonic;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Fan of the bitonic network every workload counts through.
pub const FAN: usize = 8;

/// Connections the load thread alternates between. Also the number of
/// server slots, hence of recorder shards: the merging auditor releases
/// nothing while an unfinished shard is silent, so a shard without a
/// connection would stall the live audit forever.
pub const CONNECTIONS: usize = 2;

/// Ring capacity per recorder shard.
const RING: usize = 1 << 16;

/// What one burst sends.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Call {
    /// One `Next` frame, one round trip per operation.
    Single,
    /// This many `Next` frames written before the first response is read.
    Pipelined(usize),
    /// One `NextBatch` frame for this many values.
    Batch(usize),
}

impl Call {
    /// Operations per burst.
    pub fn ops(self) -> u64 {
        match self {
            Call::Single => 1,
            Call::Pipelined(k) | Call::Batch(k) => k as u64,
        }
    }
}

/// One shape of the service workload.
#[derive(Clone, Copy, Debug)]
pub struct ServiceSpec {
    /// What a burst sends.
    pub call: Call,
    /// Servers in the chain: 1, or 2 for the partitioned fabric.
    pub nodes: usize,
    /// Attach a recorder sampling one in this many operations (1 records
    /// everything) and run a live audit worker on the second CPU.
    pub sample_k: Option<usize>,
}

/// What the live audit concluded.
#[derive(Clone, Debug)]
pub struct AuditSummary {
    /// Operations the audit should have accounted for.
    pub expected: u64,
    /// Events the merged auditor consumed.
    pub operations: u64,
    /// Events lost to ring overflow.
    pub dropped: u64,
    /// Events the sampling mode skipped.
    pub skipped: u64,
    /// Whether the merged history is linearizable and sequentially consistent.
    pub clean: bool,
    /// Non-linearizable events.
    pub non_lin: u64,
    /// Non-sequentially-consistent events.
    pub non_sc: u64,
    /// Largest QQC lateness.
    pub qqc_max: u64,
    /// 99th percentile QQC lateness.
    pub qqc_p99: u64,
    /// Non-linearizable fraction.
    pub f_nl: f64,
    /// Most events ever buffered in the merger awaiting a watermark.
    pub buffered_peak: usize,
    /// The worker's last pass after the servers stopped: final pull,
    /// finished frontiers, merge.
    pub final_merge_ms: f64,
}

impl AuditSummary {
    /// Share of the expected operations the audit accounted for, recorded
    /// or deliberately skipped by sampling. Exactly 1 when none was lost.
    pub fn coverage(&self) -> f64 {
        (self.operations + self.skipped) as f64 / self.expected.max(1) as f64
    }

    /// Reads the figures off a finished auditor that was to see `expected`
    /// operations.
    pub fn of(
        merged: &MergeAuditor,
        expected: u64,
        buffered_peak: usize,
        final_merge_ms: f64,
    ) -> AuditSummary {
        let a = merged.auditor();
        AuditSummary {
            expected,
            operations: merged.operations() as u64,
            dropped: merged.dropped(),
            skipped: merged.skipped(),
            clean: merged.is_clean(),
            non_lin: a.non_linearizable() as u64,
            non_sc: a.non_sequentially_consistent() as u64,
            qqc_max: a.qqc_max(),
            qqc_p99: a.qqc_p99(),
            f_nl: a.f_nl(),
            buffered_peak,
            final_merge_ms,
        }
    }
}

/// The audit side of a live run: per-shard monitors over a recorder's
/// rings and the merged auditor their frontiers fold into. One
/// [`poll`](LiveAudit::poll) is one iteration of the stealer loop in
/// `cnet_runtime::drive_audited_parallel`.
pub struct LiveAudit {
    mons: Vec<ShardMonitor>,
    seen: Vec<(u64, u64)>,
    scratch: Vec<RawOp>,
    /// The exact global auditor.
    pub merged: MergeAuditor,
    /// Most events ever buffered in the merger awaiting a watermark.
    pub buffered_peak: usize,
}

impl LiveAudit {
    /// Fresh monitors for every shard of `recorder`.
    pub fn new(recorder: &TraceRecorder) -> LiveAudit {
        let shards = recorder.shards();
        LiveAudit {
            mons: (0..shards).map(ShardMonitor::new).collect(),
            seen: vec![(0, 0); shards],
            scratch: Vec::new(),
            merged: MergeAuditor::new(shards),
            buffered_peak: 0,
        }
    }

    /// Pulls every shard, observes what came, and hands the frontiers to the
    /// merged auditor; `done` marks them finished. Returns the events pulled.
    pub fn poll(&mut self, recorder: &TraceRecorder, tracer: &mut Tracer, done: bool) -> usize {
        tracer.begin_burst();
        let start = Instant::now();
        let mut pulled = 0;
        for (mon, seen) in self.mons.iter_mut().zip(self.seen.iter_mut()) {
            let sh = mon.shard();
            // Pull into a scratch buffer first so that pulling and
            // observing are two spans, not one interleaved loop.
            let scratch = &mut self.scratch;
            scratch.clear();
            let t = tracer.now();
            recorder.pull_shard(sh, |enter_ns, exit_ns, value| {
                scratch.push(RawOp { process: sh, enter_ns, exit_ns, value });
            });
            let totals = (recorder.dropped_on(sh), recorder.skipped_on(sh));
            mon.add_dropped(totals.0 - seen.0);
            mon.add_skipped(totals.1 - seen.1);
            *seen = totals;
            if scratch.is_empty() {
                continue;
            }
            tracer.child("recorder.pull", t);
            let t = tracer.now();
            scratch.iter().for_each(|&op| mon.observe(op));
            tracer.child("trace.observe", t);
            pulled += scratch.len();
        }
        if pulled > 0 || done {
            let t = tracer.now();
            for mon in &mut self.mons {
                if mon.buffered() > 0 || done {
                    self.merged.ingest(mon.take_frontier(done));
                }
            }
            tracer.child("trace.ingest", t);
            self.buffered_peak = self.buffered_peak.max(self.merged.buffered());
            tracer.end_burst("audit.poll", start, Instant::now());
        }
        pulled
    }
}

/// The live audit worker: a thread of its own on the second CPU, polling
/// the recorder every half millisecond and never on the request path.
struct AuditWorker {
    quiesced: Arc<AtomicBool>,
    tid: i32,
    /// The finished audit, its final pass in milliseconds, its spans.
    handle: JoinHandle<(LiveAudit, f64, Tracer)>,
}

fn spawn_audit(
    recorder: Arc<TraceRecorder>,
    cpu: usize,
    mut tracer: Tracer,
) -> Result<AuditWorker, String> {
    let quiesced = Arc::new(AtomicBool::new(false));
    let (ready_tx, ready_rx) = mpsc::channel();
    let flag = Arc::clone(&quiesced);
    let handle = std::thread::spawn(move || {
        set_role(Role::Audit);
        let pinned = sys::pin_current_thread(cpu)
            .map_err(|e| format!("pinning the audit worker to cpu {cpu}: {e}"))
            .and_then(|()| sys::current_tid().ok_or_else(|| "no /proc/thread-self".to_string()));
        // A worker that could not be pinned says so and audits nothing.
        let mut done = pinned.is_err();
        ready_tx.send(pinned).expect("spawner waits for readiness");
        let mut audit = LiveAudit::new(&recorder);
        let mut final_ms = 0.0;
        while !done {
            done = flag.load(Ordering::Acquire);
            tracer.on = TRACING.load(Ordering::Relaxed);
            let start = Instant::now();
            audit.poll(&recorder, &mut tracer, done);
            if done {
                audit.merged.merge();
                final_ms = start.elapsed().as_secs_f64() * 1e3;
            } else {
                std::thread::sleep(Duration::from_micros(500));
            }
        }
        (audit, final_ms, tracer)
    });
    let tid = ready_rx.recv().map_err(|_| "audit worker died before reporting".to_string())??;
    Ok(AuditWorker { quiesced, tid, handle })
}

fn server_cfg() -> ServerConfig {
    ServerConfig {
        max_connections: CONNECTIONS,
        backpressure: Backpressure::Reject,
        processes: FAN,
        reactors: 1,
    }
}

/// Starts one server as the `server.start` stage and names the threads the
/// call spawned.
fn start_server(
    run: &mut Run,
    tracer: &mut Tracer,
    f: impl FnOnce() -> std::io::Result<CounterServer>,
) -> Result<(CounterServer, Vec<i32>), String> {
    let before = sys::task_ids();
    let server =
        stage(run, tracer, "server.start", f).map_err(|e| format!("starting the server: {e}"))?;
    Ok((server, sys::new_tasks(&before, &sys::task_ids())))
}

/// Sets the service up, and unless `dry`, drives `ctx.plan` against it,
/// tears it down and checks what came back.
///
/// The calling thread must already be pinned to `ctx.cpus.first`: the
/// acceptor and reactor threads inherit its affinity, which is what keeps
/// the whole request path on one CPU. The calling thread then becomes the
/// load thread.
///
/// A `dry` run returns after set-up and tear-down with only `setup_s` and
/// `stages` filled; the benchmark repeats it to report set-up time as a
/// median.
///
/// # Errors
///
/// Set-up failures: bind, dial, pinning the audit worker.
pub fn run_service(spec: &ServiceSpec, ctx: &Ctx, dry: bool) -> Result<Run, String> {
    let setup = Instant::now();
    let mut run = Run::default();
    let mut tracer = ctx.tracer(1);

    let net = stage(&mut run, &mut tracer, "topology.build", || bitonic(FAN))
        .map_err(|e| format!("bitonic({FAN}): {e}"))?;
    let recorder =
        spec.sample_k.map(|k| Arc::new(TraceRecorder::with_sampling(CONNECTIONS, RING, k)));

    // Tail first, so the head's downstream peer is listening when dialed.
    let mut servers: Vec<(CounterServer, Vec<i32>)> = Vec::new();
    if spec.nodes == 1 {
        let counter = stage(&mut run, &mut tracer, "compiled.compile", || {
            Arc::new(SharedNetworkCounter::new(&net))
        });
        servers.push(start_server(&mut run, &mut tracer, || match &recorder {
            Some(r) => {
                CounterServer::with_recorder("127.0.0.1:0", counter, Arc::clone(r), server_cfg())
            }
            None => CounterServer::start("127.0.0.1:0", counter, server_cfg()),
        })?);
    } else {
        let mut downstream: Vec<String> = Vec::new();
        for node in (0..spec.nodes).rev() {
            let cluster = stage(&mut run, &mut tracer, "compiled.compile", || {
                ClusterNode::new(&net, node, spec.nodes, &downstream, CONNECTIONS)
            })
            .map_err(|e| format!("cluster node {node}: {e}"))?;
            // Only the head records: it serves the client operations, and a
            // second event per forwarded hop would duplicate values.
            let rec = if node == 0 { recorder.clone() } else { None };
            servers.push(start_server(&mut run, &mut tracer, || {
                CounterServer::start_cluster("127.0.0.1:0", Arc::new(cluster), rec, server_cfg())
            })?);
            downstream = vec![servers.last().expect("just pushed").0.local_addr().to_string()];
        }
    }
    let head_addr = servers.last().expect("at least one node").0.local_addr();

    let client = stage(&mut run, &mut tracer, "client.dial", || {
        let client = RemoteCounter::connect(head_addr, CONNECTIONS)?;
        (0..CONNECTIONS).try_for_each(|slot| client.ping(slot))?;
        Ok(client)
    })
    .map_err(|e: std::io::Error| format!("dialing the server: {e}"))?;

    let audit = match &recorder {
        Some(r) => Some(stage(&mut run, &mut tracer, "audit.start", || {
            spawn_audit(Arc::clone(r), ctx.cpus.second, ctx.tracer(2))
        })?),
        None => None,
    };
    run.setup_s = setup.elapsed().as_secs_f64();

    let mut fold = ValueFold::default();
    let mut edges = Vec::new();
    if !dry {
        let probe = |i: usize| servers.get(i).map(|(server, tids)| ServerProbe { server, tids });
        let probes = Probes {
            head: probe(spec.nodes - 1),
            tail: if spec.nodes > 1 { probe(0) } else { None },
            audit_tid: audit.as_ref().map(|a| a.tid),
        };
        let (ops, mut slot) = (spec.call.ops(), 0);
        set_role(Role::Load);
        let driven =
            drive(&ctx.plan, true, &mut tracer, &mut || edges.push(Edge::take(&probes)), |tr| {
                slot = (slot + 1) % CONNECTIONS;
                let called = tr.now();
                let received = match spec.call {
                    Call::Single => client.try_next(slot).map(|v| {
                        tr.child("client.call", called);
                        fold.add(v);
                    }),
                    Call::Pipelined(k) => client.next_pipelined(slot, k).map(|vs| {
                        tr.child("client.call", called);
                        vs.iter().for_each(|&v| fold.add(v));
                    }),
                    Call::Batch(k) => client.next_batch(slot, k).map(|vs| {
                        tr.child("client.call", called);
                        vs.iter().for_each(|&v| fold.add(v));
                    }),
                };
                received.map(|()| ops).map_err(|e| (ops, e.to_string()))
            });
        set_role(Role::Bench);
        run.driven.push(driven);
    }

    // Tear down: close the connections, stop head then tail (a stopped
    // reactor has flushed its recorder shards), then let the audit worker
    // make its final pass over a quiescent recorder.
    drop(client);
    for (server, _) in servers.iter_mut().rev() {
        server.shutdown();
    }
    let audited = audit.map(|worker| {
        worker.quiesced.store(true, Ordering::Release);
        worker.handle.join().expect("audit worker panicked")
    });
    run.tracers.push(tracer);
    if dry {
        return Ok(run);
    }

    // A run that failed during warm-up never reached the region's edges.
    if let [start, end] = edges[..] {
        run.region = Region::between(&start, &end, &[&run.driven[0]]);
    }
    let head = servers.last().expect("at least one node").0.stats();
    run.checks.push(Check::permutation(&fold));
    run.checks.push(Check::new(
        "served_equals_received",
        head.ops == fold.count(),
        format!("served={} received={}", head.ops, fold.count()),
    ));
    if spec.nodes > 1 {
        let tail = servers[0].0.stats();
        run.checks.push(Check::new(
            "tail_ops_equal_head_ops",
            tail.ops == head.ops,
            format!("tail={} head={}", tail.ops, head.ops),
        ));
    }
    if let Some((live, final_ms, audit_tracer)) = audited {
        let a = AuditSummary::of(&live.merged, head.ops, live.buffered_peak, final_ms);
        run.checks.push(Check::new(
            "audit_saw_every_served_op",
            a.dropped == 0 && a.coverage() == 1.0,
            format!(
                "audited={} skipped={} dropped={} served={}",
                a.operations, a.skipped, a.dropped, head.ops
            ),
        ));
        run.checks.push(Check::new(
            "audit_verdict_clean",
            a.clean,
            format!("non_lin={} non_sc={} qqc_max={}", a.non_lin, a.non_sc, a.qqc_max),
        ));
        run.audit = Some(a);
        run.tracers.push(audit_tracer);
    }
    Ok(run)
}
