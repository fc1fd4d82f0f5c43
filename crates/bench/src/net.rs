//! Networked throughput: the `cnet-net` loopback service measured with
//! the same [`Measurement`] schema as the in-process sweep.
//!
//! For each thread count, a [`CounterServer`] is started on an ephemeral
//! loopback port and hammered by [`run_loadgen`] workers over
//! [`NetThroughputConfig::connections`] pooled connections (default: one
//! per worker). Two backends bracket the space: the `fetch_add` baseline
//! isolates pure transport cost, and the compiled bitonic network shows
//! what a real counting network delivers across a socket. Rows land in
//! `BENCH_throughput.json` with `"transport": "tcp"`, their connection
//! count, and end-to-end burst latency percentiles (`p50_ns` / `p99_ns` /
//! `p999_ns`, schema v4), next to their shared-memory counterparts, so
//! both the socket tax and the reactor's connection-scaling behaviour are
//! ratios you can read off one artifact.

use crate::throughput::Measurement;
use cnet_net::loadgen::{run_loadgen, LoadGenConfig, LoadGenMode};
use cnet_net::router::ClusterNode;
use cnet_net::server::{CounterServer, ServerConfig};
use cnet_runtime::{FetchAddCounter, ProcessCounter, SharedNetworkCounter};
use cnet_topology::construct::bitonic;
use std::sync::Arc;

/// Configuration of one networked sweep.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NetThroughputConfig {
    /// Network fan `w` for the counting-network backend.
    pub fan: usize,
    /// Client thread counts to sweep.
    pub threads: Vec<usize>,
    /// Pooled client connections shared out across the worker threads
    /// (`0` = one per worker). Counts above the thread count measure the
    /// reactor's many-mostly-idle-connections regime.
    pub connections: usize,
    /// Operations each client thread pushes per timed run.
    pub ops_per_thread: usize,
    /// Burst size per connection (see `mode`).
    pub batch: usize,
    /// What a burst is on the wire: `Batch` sends one `NextBatch` frame
    /// per burst (the server's batched-traversal fast path, rows carry
    /// `"batch": batch`), `Pipeline` sends single `Next` frames
    /// back-to-back (the per-token path, rows carry `"batch": 1`).
    pub mode: LoadGenMode,
    /// Timed repetitions per cell; the best run is kept (matching the
    /// in-process sweep's noise filter).
    pub repeats: usize,
}

impl Default for NetThroughputConfig {
    fn default() -> Self {
        NetThroughputConfig {
            fan: 8,
            threads: vec![1, 2, 4],
            connections: 0,
            ops_per_thread: 5_000,
            batch: 64,
            mode: LoadGenMode::Pipeline,
            repeats: 3,
        }
    }
}

/// Times one (backend, threads) cell: fresh server + fresh load per
/// repetition, best run kept.
fn measure_net(
    label: (&str, &str),
    build: &dyn Fn() -> Arc<dyn ProcessCounter + Send + Sync>,
    threads: usize,
    cfg: &NetThroughputConfig,
) -> std::io::Result<Measurement> {
    let total_ops = threads * cfg.ops_per_thread;
    let connections = if cfg.connections == 0 { threads.max(1) } else { cfg.connections };
    let mut best = f64::INFINITY;
    let mut percentiles = (0, 0, 0);
    for _ in 0..cfg.repeats.max(1) {
        let mut server = CounterServer::start(
            "127.0.0.1:0",
            build(),
            ServerConfig {
                max_connections: connections,
                processes: cfg.fan,
                ..ServerConfig::default()
            },
        )?;
        let report = run_loadgen(
            server.local_addr(),
            &LoadGenConfig {
                threads,
                connections,
                ops_per_thread: cfg.ops_per_thread,
                batch: cfg.batch,
                mode: cfg.mode,
                collect_values: false,
                route: false,
            },
        )?;
        server.shutdown();
        // Keep the latency distribution of the best (kept) run, so the
        // percentile columns describe the same run as the throughput.
        if report.seconds < best {
            best = report.seconds;
            percentiles = report.latency.percentiles();
        }
    }
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut m = Measurement::timed(label.0, label.1, threads, total_ops, best);
    m.transport = Measurement::TRANSPORT_TCP.to_string();
    m.batch = match cfg.mode {
        LoadGenMode::Batch => cfg.batch,
        LoadGenMode::Pipeline => 1,
    };
    m.oversubscribed = threads > cores;
    m.connections = connections;
    m.p50_ns = Some(percentiles.0);
    m.p99_ns = Some(percentiles.1);
    m.p999_ns = Some(percentiles.2);
    Ok(m)
}

/// Times one (threads, nodes) cell of the partitioned fabric: the bitonic
/// network split into `nodes` chained [`ClusterNode`] servers over
/// loopback TCP, the load driven into the head. Fresh chain per
/// repetition, best run kept. Rows carry `"nodes": N` (schema v5).
///
/// The load always uses the batched wire mode regardless of
/// [`NetThroughputConfig::mode`]: one `NextBatch` per burst crosses
/// every cut as one `ForwardBatch` frame carrying each wire's count, which
/// is the fabric's designed fast path. The per-token `Forward` path pays a
/// full peer round trip per increment — that measures the hop latency,
/// not what the fabric can move.
fn measure_cluster(
    threads: usize,
    nodes: usize,
    cfg: &NetThroughputConfig,
) -> std::io::Result<Measurement> {
    let net = bitonic(cfg.fan).expect("power-of-two fan");
    let total_ops = threads * cfg.ops_per_thread;
    let connections = if cfg.connections == 0 { threads.max(1) } else { cfg.connections };
    let mut best = f64::INFINITY;
    let mut percentiles = (0, 0, 0);
    for _ in 0..cfg.repeats.max(1) {
        let server_cfg = ServerConfig {
            max_connections: connections,
            processes: cfg.fan,
            ..ServerConfig::default()
        };
        // Build the chain tail-first so every relay's downstream peer is
        // already listening when the relay dials it.
        let mut servers: Vec<CounterServer> = Vec::new();
        let mut downstream: Option<String> = None;
        for node in (0..nodes).rev() {
            let peers: Vec<String> = downstream.iter().cloned().collect();
            let cluster = ClusterNode::new(&net, node, nodes, &peers, connections)
                .map_err(std::io::Error::other)?;
            let server =
                CounterServer::start_cluster("127.0.0.1:0", Arc::new(cluster), None, server_cfg)?;
            downstream = Some(server.local_addr().to_string());
            servers.push(server);
        }
        let head_addr = downstream.expect("at least one node");
        let report = run_loadgen(
            &head_addr[..],
            &LoadGenConfig {
                threads,
                connections,
                ops_per_thread: cfg.ops_per_thread,
                batch: cfg.batch,
                mode: LoadGenMode::Batch,
                collect_values: false,
                route: false,
            },
        )?;
        // Head first (it stops forwarding), then down the chain.
        for server in servers.iter_mut().rev() {
            server.shutdown();
        }
        if report.seconds < best {
            best = report.seconds;
            percentiles = report.latency.percentiles();
        }
    }
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut m = Measurement::timed("compiled", "bitonic", threads, total_ops, best);
    m.transport = Measurement::TRANSPORT_TCP.to_string();
    m.batch = cfg.batch;
    m.oversubscribed = threads > cores;
    m.connections = connections;
    m.p50_ns = Some(percentiles.0);
    m.p99_ns = Some(percentiles.1);
    m.p999_ns = Some(percentiles.2);
    m.nodes = nodes;
    Ok(m)
}

/// Runs the partitioned-fabric sweep: for each thread count, the compiled
/// bitonic network split across `nodes` chained servers on loopback TCP.
/// Rows are distinguished from the single-server tcp cells by their
/// `"nodes"` column.
///
/// # Errors
///
/// Surfaces server-bind, peer-dial, and client I/O failures, plus invalid
/// partitions (more nodes than the network has layers).
///
/// # Panics
///
/// Panics if `cfg.fan` is not a supported power of two.
pub fn run_cluster_net_throughput(
    cfg: &NetThroughputConfig,
    nodes: usize,
) -> std::io::Result<Vec<Measurement>> {
    let mut rows = Vec::new();
    for &threads in &cfg.threads {
        rows.push(measure_cluster(threads, nodes.max(1), cfg)?);
    }
    Ok(rows)
}

/// Runs the networked sweep and returns rows ready to append to a
/// [`ThroughputReport`](crate::ThroughputReport)'s measurements.
///
/// # Errors
///
/// Surfaces server-bind or client I/O failures.
///
/// # Panics
///
/// Panics if `cfg.fan` is not a supported power of two.
pub fn run_net_throughput(cfg: &NetThroughputConfig) -> std::io::Result<Vec<Measurement>> {
    let fan = cfg.fan;
    let backends: [(&str, &str, Box<dyn Fn() -> Arc<dyn ProcessCounter + Send + Sync>>); 2] = [
        ("fetch_add", "-", Box::new(|| Arc::new(FetchAddCounter::new()))),
        (
            "compiled",
            "bitonic",
            Box::new(move || {
                Arc::new(SharedNetworkCounter::new(
                    &bitonic(fan).expect("power-of-two fan"),
                ))
            }),
        ),
    ];
    let mut rows = Vec::new();
    for &threads in &cfg.threads {
        for (counter, network, build) in &backends {
            rows.push(measure_net((counter, network), build, threads, cfg)?);
        }
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn net_sweep_produces_tcp_rows() {
        let rows = run_net_throughput(&NetThroughputConfig {
            fan: 4,
            threads: vec![1, 2],
            connections: 0,
            ops_per_thread: 200,
            batch: 16,
            mode: LoadGenMode::Pipeline,
            repeats: 1,
        })
        .expect("loopback sweep runs");
        assert_eq!(rows.len(), 4); // 2 thread counts x 2 backends
        for row in &rows {
            assert_eq!(row.transport, Measurement::TRANSPORT_TCP);
            assert!(!row.audited);
            assert_eq!(row.total_ops, row.threads * 200);
            assert!(row.mops > 0.0, "{row:?}");
            assert_eq!(row.batch, 1, "pipeline mode rows are per-token");
            assert_eq!(row.connections, row.threads, "default pools one per worker");
            let (p50, p99, p999) = (row.p50_ns.unwrap(), row.p99_ns.unwrap(), row.p999_ns.unwrap());
            assert!(p50 > 0 && p50 <= p99 && p99 <= p999, "{row:?}");
        }
        assert!(rows.iter().any(|r| r.counter == "fetch_add"));
        assert!(rows.iter().any(|r| r.counter == "compiled" && r.network == "bitonic"));
    }

    #[test]
    fn batch_mode_rows_carry_the_batch_size() {
        let rows = run_net_throughput(&NetThroughputConfig {
            fan: 4,
            threads: vec![1],
            connections: 0,
            ops_per_thread: 200,
            batch: 32,
            mode: LoadGenMode::Batch,
            repeats: 1,
        })
        .expect("loopback sweep runs");
        assert_eq!(rows.len(), 2);
        for row in &rows {
            assert_eq!(row.batch, 32, "{row:?}");
        }
    }

    #[test]
    fn cluster_sweep_rows_carry_the_node_count() {
        let rows = run_cluster_net_throughput(
            &NetThroughputConfig {
                fan: 8,
                threads: vec![1, 2],
                connections: 0,
                ops_per_thread: 200,
                batch: 16,
                mode: LoadGenMode::Batch,
                repeats: 1,
            },
            2,
        )
        .expect("two-node loopback chain runs");
        assert_eq!(rows.len(), 2);
        for row in &rows {
            assert_eq!(row.nodes, 2, "{row:?}");
            assert_eq!(row.transport, Measurement::TRANSPORT_TCP);
            assert_eq!((row.counter.as_str(), row.network.as_str()), ("compiled", "bitonic"));
            assert!(row.mops > 0.0, "{row:?}");
            assert!(row.p99_ns.unwrap() > 0, "{row:?}");
        }
    }

    #[test]
    fn connection_scaling_rows_record_the_pool_size() {
        let rows = run_net_throughput(&NetThroughputConfig {
            fan: 4,
            threads: vec![2],
            connections: 16,
            ops_per_thread: 200,
            batch: 16,
            mode: LoadGenMode::Batch,
            repeats: 1,
        })
        .expect("loopback sweep runs");
        assert_eq!(rows.len(), 2);
        for row in &rows {
            assert_eq!(row.connections, 16, "{row:?}");
            assert_eq!(row.threads, 2, "{row:?}");
            assert!(row.p99_ns.unwrap() > 0, "{row:?}");
        }
    }
}
