//! Multi-threaded load generator for a running counting service.
//!
//! The generator drives [`LoadGenConfig::connections`] pooled client
//! connections from [`LoadGenConfig::threads`] worker threads —
//! decoupled, because the interesting regime for the reactor server is
//! *many mostly-idle connections*: 10,000 sockets cannot each have a
//! thread on either side of the wire. Worker `w` owns the connection
//! slots `{c : c % threads == w}` (disjoint across workers, so the
//! client's per-slot sequence numbering and never-retry guarantee are
//! untouched) and round-robins one burst per connection, which makes
//! every connection periodically active and the rest idle — exactly the
//! load shape an epoll server must not degrade under.
//!
//! Bursts are [`LoadGenConfig::batch`] operations; two [`LoadGenMode`]s
//! decide what a burst is on the wire:
//!
//! * [`Batch`](LoadGenMode::Batch) (the default) — one `NextBatch` frame
//!   per burst: the server claims the whole burst through the backend's
//!   batched path (one atomic per balancer per batch) and records one
//!   widened audit interval;
//! * [`Pipeline`](LoadGenMode::Pipeline) — `batch` single `Next` frames
//!   written back-to-back before any response is read: the per-token
//!   traversal path, amortizing only the socket flush.
//!
//! Every burst's round-trip time lands in a per-worker
//! [`LatencyHistogram`] (merged into [`LoadGenReport::latency`]), so a
//! run reports end-to-end p50/p99/p999 alongside throughput. All
//! connections are dialed and warmed before the timed region starts, so
//! the percentiles are steady-state round trips — TCP handshakes never
//! pollute the tail. The run also
//! returns (optionally) every value received, so callers can check the
//! permutation property — `n` increments return exactly `0..n` — end to
//! end across the wire.

use crate::client::{ClientConfig, RemoteCounter};
use cnet_util::hist::LatencyHistogram;
use std::io;
use std::net::ToSocketAddrs;
use std::sync::Arc;
use std::time::Instant;

/// What a load-generator burst looks like on the wire.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum LoadGenMode {
    /// One `NextBatch` frame per burst — exercises the server's batched
    /// traversal fast path.
    #[default]
    Batch,
    /// `batch` pipelined `Next` frames per burst — exercises the
    /// per-token path with amortized flushes.
    Pipeline,
}

/// Load-generator parameters.
#[derive(Clone, Debug)]
pub struct LoadGenConfig {
    /// Worker threads.
    pub threads: usize,
    /// Pooled client connections, shared out across the workers
    /// (`0` = one per worker, the pre-reactor behaviour).
    pub connections: usize,
    /// Operations per worker thread.
    pub ops_per_thread: usize,
    /// Burst size (1 = one round trip per op).
    pub batch: usize,
    /// What a burst is on the wire.
    pub mode: LoadGenMode,
    /// Keep every received value for permutation checking.
    pub collect_values: bool,
    /// Treat the target as **any** node of a counting cluster: handshake
    /// with [`Request::NodeInfo`](crate::wire::Request::NodeInfo) first
    /// and re-dial the head if the contacted node is a relay or the tail.
    pub route: bool,
}

impl Default for LoadGenConfig {
    fn default() -> Self {
        LoadGenConfig {
            threads: 4,
            connections: 0,
            ops_per_thread: 1000,
            batch: 32,
            mode: LoadGenMode::default(),
            collect_values: false,
            route: false,
        }
    }
}

/// What a load-generator run measured.
#[derive(Clone, Debug)]
pub struct LoadGenReport {
    /// Worker threads that ran.
    pub threads: usize,
    /// Pooled connections the workers drove.
    pub connections: usize,
    /// Total operations completed across all workers.
    pub total_ops: u64,
    /// Wall-clock duration of the measured region, in seconds.
    pub seconds: f64,
    /// Burst round-trip times (one sample per burst), merged across
    /// workers.
    pub latency: LatencyHistogram,
    /// Every value received, in no particular order (only when
    /// [`LoadGenConfig::collect_values`] is set).
    pub values: Option<Vec<u64>>,
}

impl LoadGenReport {
    /// Throughput in operations per second.
    pub fn ops_per_sec(&self) -> f64 {
        if self.seconds > 0.0 {
            self.total_ops as f64 / self.seconds
        } else {
            0.0
        }
    }

    /// Whether the collected values are exactly the permutation
    /// `0..total_ops` — the counting-service correctness criterion.
    /// `None` when values were not collected.
    pub fn is_permutation(&self) -> Option<bool> {
        let values = self.values.as_ref()?;
        let mut sorted = values.clone();
        sorted.sort_unstable();
        Some(sorted.len() as u64 == self.total_ops && sorted.iter().copied().eq(0..self.total_ops))
    }
}

/// Runs the load: `threads` workers over `connections` pooled client
/// connections, each worker completing `ops_per_thread` operations in
/// bursts of `batch` (see [`LoadGenMode`] for what a burst is on the
/// wire), round-robining bursts over its share of the connections.
///
/// Before the timed region every worker dials and pings each of its
/// connections, then all workers release together: the latency histogram
/// and throughput measure steady-state traffic over open sockets, not
/// connection setup (with 1k+ mostly-idle connections the handshake
/// bursts would otherwise *be* the p99).
///
/// # Errors
///
/// Connection failures and any worker's first I/O error (remaining
/// workers still drain before the error is returned).
pub fn run_loadgen(addr: impl ToSocketAddrs, cfg: &LoadGenConfig) -> io::Result<LoadGenReport> {
    let threads = cfg.threads.max(1);
    let connections = if cfg.connections == 0 { threads } else { cfg.connections };
    let batch = cfg.batch.max(1);
    let client = Arc::new(if cfg.route {
        RemoteCounter::connect_routed(addr, connections)?
    } else {
        RemoteCounter::with_config(
            addr,
            ClientConfig { pool: connections, ..ClientConfig::default() },
        )?
    });
    // Workers warm up, meet at the barrier, then the measured region
    // starts; the main thread joins the same barrier to stamp `start`.
    let barrier = Arc::new(std::sync::Barrier::new(threads + 1));
    let workers: Vec<_> = (0..threads)
        .map(|w| {
            let client = Arc::clone(&client);
            let barrier = Arc::clone(&barrier);
            let ops = cfg.ops_per_thread;
            let collect = cfg.collect_values;
            let mode = cfg.mode;
            // Worker w's disjoint connection share. With fewer connections
            // than workers, worker w borrows slot w % connections — slots
            // are mutex-guarded in the client, so sharing is safe, merely
            // contended.
            let mine: Vec<usize> = if connections >= threads {
                (w..connections).step_by(threads).collect()
            } else {
                vec![w % connections]
            };
            std::thread::spawn(move || -> io::Result<(Vec<u64>, LatencyHistogram)> {
                // Dial and warm every owned connection, then wait for the
                // other workers — unconditionally, so a warmup failure
                // cannot strand the main thread at the barrier.
                let warmup: io::Result<()> = mine.iter().try_for_each(|&slot| client.ping(slot));
                barrier.wait();
                warmup?;
                let mut values_out = Vec::with_capacity(if collect { ops } else { 0 });
                let mut latency = LatencyHistogram::new();
                let mut done = 0usize;
                let mut turn = 0usize;
                while done < ops {
                    let burst = batch.min(ops - done);
                    let slot = mine[turn % mine.len()];
                    turn += 1;
                    let t0 = Instant::now();
                    let values = match mode {
                        LoadGenMode::Batch => client.next_batch(slot, burst)?,
                        LoadGenMode::Pipeline => client.next_pipelined(slot, burst)?,
                    };
                    latency.record(t0.elapsed().as_nanos().min(u64::MAX as u128) as u64);
                    done += values.len();
                    if collect {
                        values_out.extend(values);
                    }
                }
                Ok((values_out, latency))
            })
        })
        .collect();
    barrier.wait();
    let start = Instant::now();
    let mut values = cfg.collect_values.then(Vec::new);
    let mut latency = LatencyHistogram::new();
    let mut first_err = None;
    for worker in workers {
        match worker.join() {
            Ok(Ok((mine, hist))) => {
                if let Some(all) = &mut values {
                    all.extend(mine);
                }
                latency.merge(&hist);
            }
            Ok(Err(e)) => first_err = first_err.or(Some(e)),
            Err(_) => {
                first_err =
                    first_err.or_else(|| Some(io::Error::other("load-generator worker panicked")));
            }
        }
    }
    let seconds = start.elapsed().as_secs_f64();
    if let Some(e) = first_err {
        return Err(e);
    }
    Ok(LoadGenReport {
        threads,
        connections,
        total_ops: (threads * cfg.ops_per_thread) as u64,
        seconds,
        latency,
        values,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{CounterServer, ServerConfig};
    use cnet_runtime::FetchAddCounter;

    #[test]
    fn loadgen_values_form_a_permutation() {
        let mut server = CounterServer::start(
            "127.0.0.1:0",
            Arc::new(FetchAddCounter::new()),
            ServerConfig { max_connections: 8, ..ServerConfig::default() },
        )
        .unwrap();
        let report = run_loadgen(
            server.local_addr(),
            &LoadGenConfig {
                threads: 4,
                ops_per_thread: 250,
                batch: 16,
                mode: LoadGenMode::Batch,
                collect_values: true,
                ..LoadGenConfig::default()
            },
        )
        .unwrap();
        assert_eq!(report.total_ops, 1000);
        assert_eq!(report.connections, 4, "connections default to threads");
        assert_eq!(report.is_permutation(), Some(true));
        assert!(report.ops_per_sec() > 0.0);
        // One latency sample per burst: 16 bursts per worker.
        assert_eq!(report.latency.count(), 4 * 16);
        assert!(report.latency.quantile(0.99) >= report.latency.quantile(0.50));
        server.shutdown();
        let stats = server.stats();
        assert_eq!(stats.ops, 1000);
        // Batch mode really used NextBatch frames: 16 bursts per worker.
        assert_eq!(stats.batches, 4 * 16);
    }

    #[test]
    fn pipeline_mode_also_yields_a_permutation() {
        let mut server = CounterServer::start(
            "127.0.0.1:0",
            Arc::new(FetchAddCounter::new()),
            ServerConfig { max_connections: 8, ..ServerConfig::default() },
        )
        .unwrap();
        let report = run_loadgen(
            server.local_addr(),
            &LoadGenConfig {
                threads: 2,
                ops_per_thread: 100,
                batch: 8,
                mode: LoadGenMode::Pipeline,
                collect_values: true,
                ..LoadGenConfig::default()
            },
        )
        .unwrap();
        assert_eq!(report.is_permutation(), Some(true));
        server.shutdown();
        let stats = server.stats();
        assert_eq!(stats.ops, 200);
        assert_eq!(stats.batches, 0, "pipeline mode sends single Next frames");
    }

    #[test]
    fn loadgen_without_collection_reports_throughput_only() {
        let server = CounterServer::start(
            "127.0.0.1:0",
            Arc::new(FetchAddCounter::new()),
            ServerConfig::default(),
        )
        .unwrap();
        let report = run_loadgen(
            server.local_addr(),
            &LoadGenConfig {
                threads: 2,
                ops_per_thread: 100,
                batch: 10,
                mode: LoadGenMode::Batch,
                collect_values: false,
                ..LoadGenConfig::default()
            },
        )
        .unwrap();
        assert_eq!(report.total_ops, 200);
        assert!(report.values.is_none());
        assert_eq!(report.is_permutation(), None);
    }

    #[test]
    fn more_connections_than_threads_still_yields_a_permutation() {
        // 24 mostly-idle connections driven by 3 workers: each worker
        // round-robins its disjoint 8-connection share.
        let mut server = CounterServer::start(
            "127.0.0.1:0",
            Arc::new(FetchAddCounter::new()),
            ServerConfig { max_connections: 32, processes: 8, ..ServerConfig::default() },
        )
        .unwrap();
        let report = run_loadgen(
            server.local_addr(),
            &LoadGenConfig {
                threads: 3,
                connections: 24,
                ops_per_thread: 240,
                batch: 10,
                mode: LoadGenMode::Batch,
                collect_values: true,
                ..LoadGenConfig::default()
            },
        )
        .unwrap();
        assert_eq!(report.connections, 24);
        assert_eq!(report.total_ops, 720);
        assert_eq!(report.is_permutation(), Some(true));
        server.shutdown();
        let stats = server.stats();
        assert_eq!(stats.ops, 720);
        // All 24 connections were actually dialed and served: each worker
        // runs 24 bursts over its 8 connections.
        assert_eq!(stats.total_connections, 24);
    }

    #[test]
    fn routed_loadgen_against_the_tail_counts_through_the_head() {
        use crate::router::ClusterNode;
        use cnet_topology::construct::bitonic;

        let net = bitonic(4).unwrap();
        let cfg = ServerConfig { max_connections: 8, processes: 4, ..ServerConfig::default() };
        let tail = Arc::new(ClusterNode::new(&net, 1, 2, &[], 8).unwrap());
        let tail_server =
            CounterServer::start_cluster("127.0.0.1:0", Arc::clone(&tail), None, cfg).unwrap();
        let peers = vec![tail_server.local_addr().to_string()];
        let head = Arc::new(ClusterNode::new(&net, 0, 2, &peers, 8).unwrap());
        let _head_server = CounterServer::start_cluster("127.0.0.1:0", head, None, cfg).unwrap();

        // Point the generator at the *tail*; routing must land it on the
        // head (poll briefly: the head announces itself asynchronously).
        let deadline = Instant::now() + std::time::Duration::from_secs(5);
        let report = loop {
            let run = run_loadgen(
                tail_server.local_addr(),
                &LoadGenConfig {
                    threads: 2,
                    ops_per_thread: 100,
                    batch: 10,
                    collect_values: true,
                    route: true,
                    ..LoadGenConfig::default()
                },
            );
            match run {
                Ok(r) => break r,
                Err(e) if Instant::now() < deadline => {
                    assert_eq!(e.kind(), io::ErrorKind::AddrNotAvailable, "{e}");
                    std::thread::sleep(std::time::Duration::from_millis(10));
                }
                Err(e) => panic!("routing never became available: {e}"),
            }
        };
        assert_eq!(report.is_permutation(), Some(true));
    }

    #[test]
    fn fewer_connections_than_threads_shares_slots_safely() {
        let mut server = CounterServer::start(
            "127.0.0.1:0",
            Arc::new(FetchAddCounter::new()),
            ServerConfig { max_connections: 4, ..ServerConfig::default() },
        )
        .unwrap();
        let report = run_loadgen(
            server.local_addr(),
            &LoadGenConfig {
                threads: 4,
                connections: 2,
                ops_per_thread: 100,
                batch: 5,
                mode: LoadGenMode::Batch,
                collect_values: true,
                ..LoadGenConfig::default()
            },
        )
        .unwrap();
        assert_eq!(report.connections, 2);
        assert_eq!(report.is_permutation(), Some(true));
        server.shutdown();
        assert_eq!(server.stats().total_connections, 2);
    }

    fn report_with(total_ops: u64, values: Vec<u64>) -> LoadGenReport {
        LoadGenReport {
            threads: 1,
            connections: 1,
            total_ops,
            seconds: 1.0,
            latency: LatencyHistogram::new(),
            values: Some(values),
        }
    }

    #[test]
    fn is_permutation_rejects_gaps_repeats_and_miscounts() {
        assert_eq!(report_with(4, vec![2, 0, 3, 1]).is_permutation(), Some(true));
        assert_eq!(report_with(0, vec![]).is_permutation(), Some(true));
        // A repeated value (and so a missing one).
        assert_eq!(report_with(4, vec![0, 1, 1, 3]).is_permutation(), Some(false));
        // A gap: the right count, a value past the end.
        assert_eq!(report_with(4, vec![0, 1, 2, 4]).is_permutation(), Some(false));
        // Fewer or more values than operations.
        assert_eq!(report_with(4, vec![0, 1, 2]).is_permutation(), Some(false));
        assert_eq!(report_with(3, vec![0, 1, 2, 3]).is_permutation(), Some(false));
    }

    #[test]
    fn ops_per_sec_is_zero_without_elapsed_time() {
        let mut report = report_with(1000, Vec::new());
        assert_eq!(report.ops_per_sec(), 1000.0);
        report.seconds = 0.0;
        assert_eq!(report.ops_per_sec(), 0.0);
    }

    #[test]
    fn a_short_final_burst_completes_the_quota() {
        // 25 ops in bursts of 10: two full bursts and one of 5 per worker.
        let mut server = CounterServer::start(
            "127.0.0.1:0",
            Arc::new(FetchAddCounter::new()),
            ServerConfig { max_connections: 4, ..ServerConfig::default() },
        )
        .unwrap();
        let report = run_loadgen(
            server.local_addr(),
            &LoadGenConfig {
                threads: 2,
                ops_per_thread: 25,
                batch: 10,
                mode: LoadGenMode::Batch,
                collect_values: true,
                ..LoadGenConfig::default()
            },
        )
        .unwrap();
        assert_eq!(report.total_ops, 50);
        assert_eq!(report.values.as_ref().map(Vec::len), Some(50));
        assert_eq!(report.is_permutation(), Some(true));
        assert_eq!(report.latency.count(), 2 * 3);
        server.shutdown();
        let stats = server.stats();
        assert_eq!(stats.ops, 50);
        assert_eq!(stats.batches, 2 * 3);
    }

    #[test]
    fn zero_threads_and_zero_batch_run_as_one() {
        let mut server = CounterServer::start(
            "127.0.0.1:0",
            Arc::new(FetchAddCounter::new()),
            ServerConfig::default(),
        )
        .unwrap();
        let report = run_loadgen(
            server.local_addr(),
            &LoadGenConfig {
                threads: 0,
                ops_per_thread: 12,
                batch: 0,
                mode: LoadGenMode::Pipeline,
                collect_values: true,
                ..LoadGenConfig::default()
            },
        )
        .unwrap();
        assert_eq!(report.threads, 1);
        assert_eq!(report.connections, 1);
        assert_eq!(report.total_ops, 12);
        assert_eq!(report.is_permutation(), Some(true));
        // A batch of one: one round trip, so one latency sample, per op.
        assert_eq!(report.latency.count(), 12);
        server.shutdown();
        assert_eq!(server.stats().ops, 12);
    }
}
