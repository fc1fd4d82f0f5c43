//! What a run diffs over its timed region besides the load threads' own
//! windows: CPU clocks by role, server statistics, allocation counts.
//!
//! Everything here is read from outside the measured code, through public
//! accessors and kernel clocks, at the two edges of the region.

use crate::load::Driven;
use crate::spans::{allocs, Role};
use crate::sys;
use cnet_net::wire::StatsSnapshot;
use cnet_net::CounterServer;

/// One server of the run and the threads its `start*` call spawned.
pub struct ServerProbe<'a> {
    /// The running server, for [`CounterServer::stats`].
    pub server: &'a CounterServer,
    /// Its acceptor and reactor threads.
    pub tids: &'a [i32],
}

/// Where an [`Edge`] reads from.
#[derive(Default)]
pub struct Probes<'a> {
    /// The server clients talk to.
    pub head: Option<ServerProbe<'a>>,
    /// The downstream node of a two-node fabric.
    pub tail: Option<ServerProbe<'a>>,
    /// The live audit worker's thread.
    pub audit_tid: Option<i32>,
}

/// A snapshot taken at one edge of the timed region.
#[derive(Clone, Copy, Debug, Default)]
pub struct Edge {
    process_cpu_ns: u64,
    ticks: (u64, u64),
    head_cpu_ns: u64,
    tail_cpu_ns: u64,
    audit_cpu_ns: u64,
    head: StatsSnapshot,
    tail: StatsSnapshot,
    allocs: [u64; 3],
}

impl Edge {
    /// Reads every probe now.
    pub fn take(p: &Probes) -> Edge {
        let cpu = |s: &Option<ServerProbe>| s.as_ref().map_or(0, |s| sys::threads_cpu_ns(s.tids));
        let stats =
            |s: &Option<ServerProbe>| s.as_ref().map(|s| s.server.stats()).unwrap_or_default();
        Edge {
            process_cpu_ns: sys::process_cpu_ns(),
            ticks: sys::cpu_ticks().unwrap_or_default(),
            head_cpu_ns: cpu(&p.head),
            tail_cpu_ns: cpu(&p.tail),
            audit_cpu_ns: p.audit_tid.and_then(sys::thread_cpu_ns_of).unwrap_or(0),
            head: stats(&p.head),
            tail: stats(&p.tail),
            allocs: [allocs(Role::Server), allocs(Role::Load), allocs(Role::Audit)],
        }
    }
}

/// Server counters accumulated over the timed region.
#[derive(Clone, Copy, Debug, Default)]
pub struct StatsDelta {
    /// Request frames served.
    pub requests: u64,
    /// Values handed out.
    pub ops: u64,
    /// `NextBatch`/`ForwardBatch` frames served.
    pub batches: u64,
    /// Returns from `epoll_wait`.
    pub wakeups: u64,
    /// Readiness events delivered.
    pub events: u64,
}

impl StatsDelta {
    fn between(a: &StatsSnapshot, b: &StatsSnapshot) -> StatsDelta {
        StatsDelta {
            requests: b.requests - a.requests,
            ops: b.ops - a.ops,
            batches: b.batches - a.batches,
            wakeups: b.reactor_wakeups - a.reactor_wakeups,
            events: b.reactor_events - a.reactor_events,
        }
    }
}

/// Totals over the timed region, all windows (traced or not) included.
#[derive(Clone, Copy, Debug, Default)]
pub struct Region {
    /// Operations the load threads completed.
    pub ops: u64,
    /// Operations completed in traced windows, the base of allocation counts.
    pub traced_ops: u64,
    /// CPU time of the whole process.
    pub process_cpu_ns: u64,
    /// CPU time of the load threads: the client side.
    pub load_cpu_ns: u64,
    /// CPU time of the live audit worker.
    pub audit_cpu_ns: u64,
    /// CPU time of the head server's threads.
    pub head_cpu_ns: u64,
    /// CPU time of the tail server's threads.
    pub tail_cpu_ns: u64,
    /// Share of the process's CPU time spent in the kernel.
    pub sys_share: f64,
    /// Head server counters.
    pub head: StatsDelta,
    /// Tail server counters.
    pub tail: StatsDelta,
    /// Allocations in traced windows by server, load and audit threads.
    pub allocs: [u64; 3],
}

impl Region {
    /// Diffs the two edges and sums the load threads.
    pub fn between(start: &Edge, end: &Edge, driven: &[&Driven]) -> Region {
        let windows = || driven.iter().flat_map(|d| &d.windows);
        let (user, system) = (end.ticks.0 - start.ticks.0, end.ticks.1 - start.ticks.1);
        Region {
            ops: windows().map(|w| w.ops).sum(),
            traced_ops: windows().filter(|w| w.traced).map(|w| w.ops).sum(),
            process_cpu_ns: end.process_cpu_ns - start.process_cpu_ns,
            load_cpu_ns: driven.iter().map(|d| d.thread_cpu_ns).sum(),
            audit_cpu_ns: end.audit_cpu_ns - start.audit_cpu_ns,
            head_cpu_ns: end.head_cpu_ns.saturating_sub(start.head_cpu_ns),
            tail_cpu_ns: end.tail_cpu_ns.saturating_sub(start.tail_cpu_ns),
            sys_share: system as f64 / (user + system).max(1) as f64,
            head: StatsDelta::between(&start.head, &end.head),
            tail: StatsDelta::between(&start.tail, &end.tail),
            allocs: std::array::from_fn(|i| end.allocs[i] - start.allocs[i]),
        }
    }

    /// `x` per completed operation.
    pub fn per_op(&self, x: u64) -> f64 {
        x as f64 / self.ops.max(1) as f64
    }
}
