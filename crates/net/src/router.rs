//! The cluster router: one node's share of a partitioned counting
//! network, plus the peer link that carries tokens to the next node.
//!
//! # The fabric
//!
//! A [`Partition`] plan splits a uniform network's layers across `N`
//! nodes, node `k` owning a contiguous layer range. Each node compiles
//! only its own sub-network ([`Partition::sub_network`]); the cut between
//! node `k` and node `k+1` is `w` wires wide (the network fan), and a
//! token leaving node `k` on cut position `p` enters node `k+1` on source
//! `p` — both sides derive the cut from the same whole-network plan, so
//! no port translation table ever crosses the wire.
//!
//! A client operation enters at the **head** (node 0), traverses the
//! head's layers, and is forwarded hop by hop down the chain; the **tail**
//! (node `N-1`) owns the output counters and the values flow back along
//! the reverse path, one nested response per hop. Forwarding is strictly
//! downstream — node `k` only ever blocks on node `k+1`, and the tail
//! blocks on nobody — so the linear chain cannot deadlock.
//!
//! Every hop carries a batch, and a single operation is a batch of one.
//! A batch crosses every cut as **one frame**: a node runs the whole
//! batch through its layers in one sweep
//! ([`CompiledNetwork::traverse_counts`], one atomic per balancer however
//! many wires the batch entered on; the balancers on the cut are terminal
//! in the node's sub-network, and a relay reads their port and ignores the
//! rank), writes a single
//! [`Request::ForwardBatch`] carrying the count on each of the cut's `w`
//! wires, and reads a single `Batch` back — one write and one read per hop
//! per batch, on a relay in the middle of a chain as on the head. The
//! timed model charges a token the wire delays it crosses, and the cut is
//! the slowest wire the fabric has.
//!
//! # Exactly-once counting
//!
//! The never-retry rule of [`crate::client`] applies per hop, on the same
//! connection type: once a forward frame has been written the hop is
//! never resent (the tokens may already be counted downstream), the peer
//! connection is torn down, and the failure propagates back to the client
//! as [`ErrorCode::Cluster`](crate::wire::ErrorCode::Cluster). Dialing —
//! before anything is sent — retries freely.

use crate::client::{response_error, with_dialed, Conn};
use crate::wire::{Request, Response};
use cnet_core::trace::{MergeAuditor, ShardFrontier};
use cnet_runtime::{CompiledNetwork, ProcessCounter, SharedNetworkCounter};
use cnet_topology::{Network, Partition, PartitionError};
use cnet_util::sync::atomic::{AtomicU64, Ordering};
use cnet_util::sync::{CachePadded, Mutex};
use std::fmt;
use std::io;
use std::time::Duration;

/// Why a cluster node could not be assembled.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ClusterError {
    /// The partition plan itself was rejected.
    Partition(PartitionError),
    /// The node index is outside `0..nodes`.
    BadNode {
        /// The offending index.
        node: usize,
        /// The chain length.
        nodes: usize,
    },
    /// A non-tail node was given no downstream peer address.
    MissingPeer {
        /// The node that needs a peer.
        node: usize,
    },
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::Partition(e) => write!(f, "partition plan rejected: {e}"),
            ClusterError::BadNode { node, nodes } => {
                write!(f, "node {node} out of range for a {nodes}-node chain")
            }
            ClusterError::MissingPeer { node } => {
                write!(f, "node {node} is not the tail and needs a --peers address")
            }
        }
    }
}

impl std::error::Error for ClusterError {}

impl From<PartitionError> for ClusterError {
    fn from(e: PartitionError) -> ClusterError {
        ClusterError::Partition(e)
    }
}

/// One slot of the peer link: the connection (dialed lazily) and, beside
/// it under the same lock, the buffer the relay's batched traversal counts
/// the cut's wires into — reused batch after batch.
#[derive(Default)]
struct Lane {
    conn: Option<Conn>,
    cut_counts: Vec<usize>,
}

/// A pooled client for one downstream node: `lanes` independent
/// connections so concurrent reactor threads (or slots) never share a
/// stream. Lane `l` maps to slot `l % lanes`. Dialing retries with
/// backoff; a failure after a request has been written tears the lane
/// down without resending (see the module docs).
pub struct RemoteNode {
    addr: String,
    lanes: Box<[CachePadded<Mutex<Lane>>]>,
}

impl fmt::Debug for RemoteNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RemoteNode")
            .field("addr", &self.addr)
            .field("lanes", &self.lanes.len())
            .finish()
    }
}

/// Dial attempts per peer call (nothing has been sent yet, so retrying
/// is safe) and the first backoff, doubled per attempt.
const PEER_DIAL_ATTEMPTS: u32 = 20;
const PEER_DIAL_BACKOFF: Duration = Duration::from_millis(5);

impl RemoteNode {
    /// A pool of `lanes` connection slots toward `addr` (dialed lazily).
    pub fn new(addr: String, lanes: usize) -> RemoteNode {
        RemoteNode { addr, lanes: (0..lanes.max(1)).map(|_| CachePadded::default()).collect() }
    }

    /// The downstream address this link dials.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Runs one conversation on `lane`'s connection, handing `f` the
    /// lane's cut-count buffer with it.
    fn with_lane<T>(
        &self,
        lane: usize,
        f: impl FnOnce(&mut Conn, &mut Vec<usize>) -> io::Result<T>,
    ) -> io::Result<T> {
        let Lane { conn, cut_counts } = &mut *self.lanes[lane % self.lanes.len()].lock();
        with_dialed(conn, &self.addr[..], PEER_DIAL_ATTEMPTS, PEER_DIAL_BACKOFF, |conn| {
            f(conn, cut_counts)
        })
    }

    /// One request, one response, on `lane`.
    pub fn call(&self, lane: usize, req: &Request) -> io::Result<Response> {
        self.with_lane(lane, |conn, _| conn.call(req))
    }
}

/// A node's executable share of the network: relay nodes traverse and
/// forward, the tail traverses and counts.
enum StageKind {
    /// Nodes `0..N-1`: balancer layers only; exits cross the cut.
    Relay { engine: CompiledNetwork, balancers: Box<[CachePadded<AtomicU64>]> },
    /// Node `N-1`: balancer layers plus the output counters, and per lane
    /// the buffer a batched traversal sweeps through — the tail's
    /// counterpart of a relay lane's `cut_counts`.
    Tail { counter: SharedNetworkCounter, scratch: Box<[CachePadded<Mutex<Vec<usize>>>]> },
}

/// One process of the counting fabric: node `node` of an `N`-node chain
/// over a partitioned network, holding its compiled layer range and (on
/// every node but the tail) the peer link to node `node+1`.
///
/// The head (node 0) doubles as a [`ProcessCounter`]: a client `Next`
/// enters the fabric here exactly like a thread enters the shared-memory
/// network, which is what lets [`crate::server::CounterServer`] serve a
/// whole cluster through the same data path as a single process.
pub struct ClusterNode {
    node: usize,
    nodes: usize,
    fan: usize,
    stage: StageKind,
    downstream: Option<RemoteNode>,
    /// Fabric-entry token ids (diagnostic identity carried by
    /// `ForwardBatch`).
    tokens: AtomicU64,
    /// Client-facing address of the head, propagated down the chain by
    /// `Announce`; empty until learned.
    head: Mutex<String>,
}

impl fmt::Debug for ClusterNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ClusterNode")
            .field("node", &self.node)
            .field("nodes", &self.nodes)
            .field("fan", &self.fan)
            .finish_non_exhaustive()
    }
}

impl ClusterNode {
    /// Assembles node `node` of an `nodes`-node chain over `net`,
    /// partitioned by [`Partition::contiguous`]. `peers` lists the
    /// downstream node addresses in chain order (`node+1`, `node+2`, …);
    /// only the first is dialed — each node relays onward. `lanes` sizes
    /// the peer connection pool (use the server's connection-slot count).
    ///
    /// # Errors
    ///
    /// [`ClusterError`] on a rejected plan, an out-of-range node index, or
    /// a missing peer address for a non-tail node.
    pub fn new(
        net: &Network,
        node: usize,
        nodes: usize,
        peers: &[String],
        lanes: usize,
    ) -> Result<ClusterNode, ClusterError> {
        let plan = Partition::contiguous(net, nodes)?;
        if node >= nodes {
            return Err(ClusterError::BadNode { node, nodes });
        }
        let fan = plan.fan();
        let engine = CompiledNetwork::compile(&plan.sub_network(net, node));
        let (stage, downstream) = if node + 1 == nodes {
            let counter = SharedNetworkCounter::from_compiled(engine);
            let scratch = (0..lanes.max(1)).map(|_| CachePadded::default()).collect();
            (StageKind::Tail { counter, scratch }, None)
        } else {
            let peer = peers.first().ok_or(ClusterError::MissingPeer { node })?.clone();
            let balancers = engine.new_balancer_states();
            (StageKind::Relay { engine, balancers }, Some(RemoteNode::new(peer, lanes)))
        };
        Ok(ClusterNode {
            node,
            nodes,
            fan,
            stage,
            downstream,
            tokens: AtomicU64::new(0),
            head: Mutex::new(String::new()),
        })
    }

    /// This node's chain index.
    pub fn node(&self) -> usize {
        self.node
    }

    /// Chain length.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// The network fan `w` (the width of every cut).
    pub fn fan(&self) -> usize {
        self.fan
    }

    /// This node's compiled share of the network.
    fn engine(&self) -> &CompiledNetwork {
        match &self.stage {
            StageKind::Relay { engine, .. } => engine,
            StageKind::Tail { counter, .. } => counter.engine(),
        }
    }

    /// Whether this is the entry node clients count through.
    pub fn is_head(&self) -> bool {
        self.node == 0
    }

    /// Whether this node owns the output counters.
    pub fn is_tail(&self) -> bool {
        self.node + 1 == self.nodes
    }

    /// The head's client-facing address as currently known (empty until
    /// announced down the chain; the head itself learns it at bind time).
    pub fn head_addr(&self) -> String {
        self.head.lock().clone()
    }

    /// Records the head's client-facing address.
    pub fn set_head_addr(&self, addr: String) {
        *self.head.lock() = addr;
    }

    /// Introduces this node to its downstream peer, propagating the
    /// head's address ([`Request::Announce`]). A no-op on the tail.
    ///
    /// # Errors
    ///
    /// I/O failures on the peer link, or a non-`Pong` answer.
    pub fn announce_downstream(&self, lane: usize) -> io::Result<()> {
        let Some(down) = &self.downstream else { return Ok(()) };
        let req = Request::Announce { node: self.node as u32, head: self.head_addr() };
        match down.call(lane, &req)? {
            Response::Pong => Ok(()),
            other => Err(response_error(&other)),
        }
    }

    /// Runs a batch that is already inside the fabric, `entering[p]` tokens
    /// on every cut position `p`. The tail hands out all the values in one
    /// [`SharedNetworkCounter::increment_counts_from`]. A relay pays at
    /// most one atomic per balancer for the whole batch
    /// ([`CompiledNetwork::traverse_counts`]), then crosses the next cut in
    /// **one frame**: a single `ForwardBatch` carrying the count on every
    /// wire, answered by a single `Batch` of as many values as tokens went
    /// in. Values come back ascending, the order the tail's sweep hands
    /// them out in; which token gets which value is not promised (a
    /// counting network never promises per-token order).
    ///
    /// The batch is all-or-nothing at the tail: a refused frame counts no
    /// token, so a refusal costs the fabric no values (only the balancer
    /// states the batch already advanced upstream, which no value depends
    /// on).
    ///
    /// # Errors
    ///
    /// Peer-link I/O failures, downstream refusals, and a downstream
    /// batch of the wrong length.
    ///
    /// # Panics
    ///
    /// Panics if `entering.len() != fan()`.
    pub fn step_batch(&self, lane: usize, token: u64, entering: &[usize]) -> io::Result<Vec<u64>> {
        assert_eq!(entering.len(), self.fan, "one count per cut position");
        let total: usize = entering.iter().sum();
        if total == 0 {
            return Ok(Vec::new());
        }
        match &self.stage {
            StageKind::Tail { counter, scratch } => {
                let mut values = Vec::with_capacity(total);
                let scratch = &mut *scratch[lane % scratch.len()].lock();
                counter.increment_counts_from(entering, scratch, &mut values);
                Ok(values)
            }
            StageKind::Relay { engine, balancers } => {
                let down = self.downstream.as_ref().expect("relay has a downstream");
                let resp = down.with_lane(lane, |conn, cut_counts| {
                    engine.traverse_counts(entering, balancers, cut_counts);
                    conn.call(&Request::ForwardBatch {
                        token,
                        node_seq: (self.node + 1) as u32,
                        counts: cut_counts.iter().map(|&count| count as u32).collect(),
                    })
                })?;
                match resp {
                    Response::Batch { values } if values.len() == total => Ok(values),
                    Response::Batch { values } => Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("forwarded {total} tokens, got {} values", values.len()),
                    )),
                    other => Err(response_error(&other)),
                }
            }
        }
    }

    /// `n` client operations entering the fabric together: stamps fresh
    /// token ids and runs them from `process`'s entry port in this node's
    /// sub-network ([`CompiledNetwork::entry_for`]). Call on the head —
    /// entry ports of any other node are interior cut positions, and
    /// counting from them would skip the upstream layers.
    ///
    /// # Errors
    ///
    /// Peer-link I/O failures and downstream refusals.
    pub fn ingress_batch(&self, lane: usize, process: usize, n: usize) -> io::Result<Vec<u64>> {
        let token = self.tokens.fetch_add(n as u64, Ordering::Relaxed);
        let mut entering = vec![0; self.fan];
        entering[self.engine().entry_for(process)] = n;
        self.step_batch(lane, token, &entering)
    }
}

/// The cluster-wide audit merger: folds [`ShardFrontier`]s fetched from
/// every node ([`Request::Frontier`] / `RemoteCounter::fetch_frontier`)
/// into one [`MergeAuditor`], remapping each node's local shard space into
/// a disjoint global one (node `k`'s shard `s` becomes `offset(k) + s`).
///
/// This is what "per-node shard monitors merged across the wire" means
/// concretely: each node ships its monitors' buffered events, watermarks
/// and drop/skip totals, and the collector's merged verdict — the only
/// one computed — is bit-identical to what the sequential auditor would
/// produce on the concatenated per-shard streams: the [`MergeAuditor`]'s
/// release rule is deterministic in stream contents, independent of
/// fetch interleaving.
///
/// All nodes must share one machine clock for the merged verdict to be
/// meaningful — the stamps are node-local monotonic nanoseconds.
#[derive(Debug)]
pub struct FrontierCollector {
    merged: MergeAuditor,
    offsets: Vec<usize>,
    shards_per_node: Vec<usize>,
}

impl FrontierCollector {
    /// A collector over a chain whose node `k` serves
    /// `shards_per_node[k]` recorder shards.
    pub fn new(shards_per_node: &[usize]) -> FrontierCollector {
        let mut offsets = Vec::with_capacity(shards_per_node.len());
        let mut total = 0usize;
        for &n in shards_per_node {
            offsets.push(total);
            total += n;
        }
        FrontierCollector {
            merged: MergeAuditor::new(total.max(1)),
            offsets,
            shards_per_node: shards_per_node.to_vec(),
        }
    }

    /// The global shard-space size (sum over nodes).
    pub fn total_shards(&self) -> usize {
        self.shards_per_node.iter().sum()
    }

    /// Node `node`'s offset into the global shard space.
    pub fn offset(&self, node: usize) -> usize {
        self.offsets[node]
    }

    /// Folds one frontier fetched from `node` (its `shard` still local to
    /// that node) into the merged audit; returns how many events became
    /// releasable. The op `process` ids are remapped along with the shard,
    /// so per-process SC checks stay per-global-shard.
    ///
    /// # Panics
    ///
    /// Panics if `node` or the frontier's local shard is out of range.
    pub fn ingest(&mut self, node: usize, mut frontier: ShardFrontier) -> usize {
        assert!(
            frontier.shard < self.shards_per_node[node],
            "node {node} frontier for local shard {} of {}",
            frontier.shard,
            self.shards_per_node[node]
        );
        let global = self.offsets[node] + frontier.shard;
        frontier.shard = global;
        for op in &mut frontier.ops {
            op.process = global;
        }
        self.merged.ingest(frontier)
    }

    /// Declares every shard's stream complete and releases everything
    /// still buffered (call once all nodes report dry).
    pub fn finish(&mut self) {
        for shard in 0..self.merged.shard_count() {
            self.merged.finish_shard(shard);
        }
        self.merged.merge();
    }

    /// The merged auditor (exact global verdict + per-shard stats).
    pub fn merged(&self) -> &MergeAuditor {
        &self.merged
    }

    /// Mutable access, e.g. for [`MergeAuditor::summary`].
    pub fn merged_mut(&mut self) -> &mut MergeAuditor {
        &mut self.merged
    }
}

impl ProcessCounter for ClusterNode {
    /// A batch of one. Panics on peer-link failures — the trait is
    /// infallible; the server uses the fallible
    /// [`ClusterNode::ingress_batch`] path instead.
    fn next_for(&self, process: usize) -> u64 {
        self.next_batch_for(process, 1)[0]
    }

    fn next_batch_for(&self, process: usize, n: usize) -> Vec<u64> {
        match self.ingress_batch(process, process, n) {
            Ok(values) => values,
            Err(e) => panic!("cluster hop from node {} failed: {e}", self.node),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnet_topology::construct::bitonic;

    #[test]
    fn a_single_node_chain_is_just_the_network() {
        let net = bitonic(4).unwrap();
        let node = ClusterNode::new(&net, 0, 1, &[], 2).unwrap();
        assert!(node.is_head() && node.is_tail());
        assert_eq!(node.fan(), 4);
        let mut values: Vec<u64> = (0..32).map(|i| node.next_for(i)).collect();
        values.extend(node.next_batch_for(1, 16));
        values.sort_unstable();
        assert_eq!(values, (0..48).collect::<Vec<_>>());
    }

    #[test]
    fn relay_nodes_require_a_peer() {
        let net = bitonic(4).unwrap();
        let err = ClusterNode::new(&net, 0, 2, &[], 1).unwrap_err();
        assert_eq!(err, ClusterError::MissingPeer { node: 0 });
        let err = ClusterNode::new(&net, 5, 2, &[], 1).unwrap_err();
        assert_eq!(err, ClusterError::BadNode { node: 5, nodes: 2 });
        let err = ClusterNode::new(&net, 0, 99, &[], 1).unwrap_err();
        assert!(matches!(err, ClusterError::Partition(_)), "{err}");
    }

    #[test]
    fn the_tail_counts_without_any_peer_link() {
        let net = bitonic(8).unwrap();
        let tail = ClusterNode::new(&net, 1, 2, &[], 1).unwrap();
        assert!(tail.is_tail() && !tail.is_head());
        // Tokens entering the tail one at a time on cut positions count
        // through the final layers; sequentially the values are a
        // permutation.
        let mut values = Vec::new();
        for i in 0..24 {
            let mut entering = [0; 8];
            entering[i % 8] = 1;
            values.extend(tail.step_batch(0, i as u64, &entering).unwrap());
        }
        values.sort_unstable();
        assert_eq!(values, (0..24).collect::<Vec<_>>());
    }

    #[test]
    fn a_torn_hop_is_never_resent_and_the_next_batch_redials() {
        use crate::wire::{read_frame, FrameDecoder};
        use std::io::Write;
        use std::net::{Shutdown, TcpListener};

        // A downstream peer that takes the first connection's frame and
        // hangs up on it unanswered, then answers the second connection's.
        // It reads each connection to its end, so it sees every frame the
        // relay ever wrote.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let peer = std::thread::spawn(move || {
            let mut seen = Vec::new();
            for answer in [false, true] {
                let (mut stream, _) = listener.accept().unwrap();
                let mut decoder = FrameDecoder::new();
                let mut frames = Vec::new();
                while let Some(payload) = read_frame(&mut stream, &mut decoder).unwrap() {
                    let (seq, req) = Request::decode(&payload).unwrap();
                    if let (true, Request::ForwardBatch { counts, .. }) = (answer, &req) {
                        let n = counts.iter().map(|&c| u64::from(c)).sum();
                        let mut out = Vec::new();
                        Response::Batch { values: (0..n).collect() }.encode(seq, &mut out);
                        stream.write_all(&out).unwrap();
                    }
                    frames.push(req);
                    stream.shutdown(Shutdown::Write).unwrap();
                }
                seen.push(frames);
            }
            seen
        });
        let net = bitonic(4).unwrap();
        let head = ClusterNode::new(&net, 0, 2, &[addr], 1).unwrap();
        let err = head.ingress_batch(0, 0, 5).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "{err}");
        assert_eq!(head.ingress_batch(0, 0, 3).unwrap(), [0, 1, 2]);
        drop(head);
        let seen = peer.join().unwrap();
        let tokens: Vec<Vec<(u64, u32)>> = seen
            .iter()
            .map(|frames| {
                frames
                    .iter()
                    .map(|req| match req {
                        Request::ForwardBatch { token, node_seq: 1, counts } => {
                            (*token, counts.iter().sum())
                        }
                        other => panic!("{other:?}"),
                    })
                    .collect()
            })
            .collect();
        // One frame per batch and per connection: the five lost tokens were
        // not written again, on the torn connection or on the fresh one.
        assert_eq!(tokens, [vec![(0, 5)], vec![(5, 3)]]);
    }

    #[test]
    fn a_single_next_crosses_the_cut_as_a_one_token_forward_batch() {
        use crate::wire::{read_frame, FrameDecoder};
        use std::io::Write;
        use std::net::TcpListener;

        // A downstream peer that answers every frame on one connection with
        // value 41, and keeps them all.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let peer = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut decoder = FrameDecoder::new();
            let mut frames = Vec::new();
            while let Some(payload) = read_frame(&mut stream, &mut decoder).unwrap() {
                let (seq, req) = Request::decode(&payload).unwrap();
                let mut out = Vec::new();
                Response::Batch { values: vec![41] }.encode(seq, &mut out);
                stream.write_all(&out).unwrap();
                frames.push(req);
            }
            frames
        });
        let net = bitonic(4).unwrap();
        let head = ClusterNode::new(&net, 0, 2, &[addr], 1).unwrap();
        assert_eq!(head.next_for(3), 41);
        drop(head);
        let frames = peer.join().unwrap();
        let [Request::ForwardBatch { token: 0, node_seq: 1, counts }] = &frames[..] else {
            panic!("one ForwardBatch to node 1, got {frames:?}");
        };
        assert_eq!(counts.len(), 4, "a count for every wire of the cut");
        let nonzero: Vec<u32> = counts.iter().copied().filter(|&c| c != 0).collect();
        assert_eq!(nonzero, [1], "a single count of 1: {counts:?}");
    }

    #[test]
    fn frontier_collector_matches_the_sequential_auditor() {
        use cnet_core::trace::{RawOp, ShardMonitor, StreamingAuditor};

        // Two nodes, two shards each; interleaved clean streams.
        let mk = |shard: usize, base: u64| {
            let mut mon = ShardMonitor::new(shard);
            for i in 0..50u64 {
                let t = base + 4 * i;
                mon.observe(RawOp { process: shard, enter_ns: t, exit_ns: t + 2, value: base + i });
            }
            mon.take_frontier(true)
        };
        let mut collector = FrontierCollector::new(&[2, 2]);
        assert_eq!(collector.total_shards(), 4);
        assert_eq!(collector.offset(1), 2);
        collector.ingest(0, mk(0, 0));
        collector.ingest(0, mk(1, 1));
        collector.ingest(1, mk(0, 2));
        collector.ingest(1, mk(1, 3));
        collector.finish();
        assert_eq!(collector.merged().operations(), 200);
        // The same events through the sequential pipeline, global shards.
        let mut seq = cnet_core::trace::EventMerger::new(4);
        for g in 0..4usize {
            for i in 0..50u64 {
                let t = g as u64 + 4 * i;
                seq.push(g, RawOp { process: g, enter_ns: t, exit_ns: t + 2, value: g as u64 + i });
            }
            seq.finish(g);
        }
        let mut auditor = StreamingAuditor::new();
        seq.drain_into(&mut auditor);
        assert_eq!(collector.merged_mut().summary(), auditor.summary());
    }

    #[test]
    fn frontier_collector_remaps_shards_and_carries_stats() {
        use cnet_core::trace::{RawOp, ShardFrontier};

        let mut collector = FrontierCollector::new(&[1, 3]);
        let f = ShardFrontier {
            shard: 2,
            ops: vec![RawOp { process: 2, enter_ns: 5, exit_ns: 6, value: 0 }],
            watermark: Some(5),
            finished: true,
            dropped: 7,
            skipped: 11,
        };
        collector.ingest(1, f);
        collector.finish();
        let stats = collector.merged().shard_stats();
        assert_eq!(stats.len(), 4);
        assert_eq!(stats[3].dropped, 7); // node 1 shard 2 -> global 3
        assert_eq!(stats[3].skipped, 11);
        assert_eq!(collector.merged().dropped(), 7);
        assert_eq!(collector.merged().skipped(), 11);
    }

    #[test]
    fn cluster_errors_render_their_cause() {
        let msg = ClusterError::MissingPeer { node: 3 }.to_string();
        assert!(msg.contains("node 3"), "{msg}");
        let net = bitonic(2).unwrap();
        let msg = ClusterNode::new(&net, 0, 9, &[], 1).unwrap_err().to_string();
        assert!(msg.contains("partition plan rejected"), "{msg}");
    }
}
