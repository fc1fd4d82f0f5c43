//! The pipelining client: [`RemoteCounter`] speaks the wire protocol to a
//! [`CounterServer`](crate::server::CounterServer) and implements
//! [`ProcessCounter`], so every harness in the workspace — benchmarks,
//! audits, property tests — runs unchanged against a counter on the other
//! side of a socket.
//!
//! # Connection pool
//!
//! The client holds `pool` independent connection slots. A caller's
//! `process` id picks slot `process % pool`; distinct slots never share a
//! connection, so `pool >= threads` gives each load-generator thread a
//! private stream with no client-side contention. Connections are dialed
//! lazily and redialed with exponential backoff after a failure.
//!
//! # Delivery semantics
//!
//! Dialing retries freely — no request has been sent. Once a request has
//! been written, an I/O failure surfaces as an error instead of being
//! retried blindly: the server may already have performed the increment,
//! and a silent retry would double-count, breaking the permutation
//! guarantee the audits depend on. The connection is torn down so the
//! *next* call redials.

use crate::wire::{ErrorCode, FrameDecoder, NodeInfo, Request, Response, StatsSnapshot, MAX_BATCH};
use cnet_runtime::ProcessCounter;
use cnet_util::sync::{CachePadded, Mutex};
use std::io::{self, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Client tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct ClientConfig {
    /// Independent connection slots (callers map to `process % pool`).
    pub pool: usize,
    /// Dial attempts per call before giving up.
    pub max_dial_attempts: u32,
    /// First redial backoff; doubles per attempt, capped at 100x.
    pub base_backoff: Duration,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig { pool: 1, max_dial_attempts: 10, base_backoff: Duration::from_millis(5) }
    }
}

/// The crate's one client-side connection — [`RemoteCounter`]'s pool
/// slots and the cluster's peer lanes ([`crate::router::RemoteNode`]) both
/// hold it: a single stream (one file descriptor — a `BufReader` over a
/// `try_clone` would double the fd cost and halve how many connections fit
/// under `ulimit -n`), an outgoing byte buffer flushed once per pipelined
/// burst, an incremental [`FrameDecoder`] for the inbound side, and the
/// per-connection sequence counter the protocol stamps on every frame.
///
/// The socket is read with [`FrameDecoder::read_from`], straight into the
/// decoder's buffer, and only when the decoder holds no whole frame: one
/// `read` brings in as many frames as have arrived, and frames already
/// buffered cost no syscall and no copy. A pipelined burst's answers are
/// taken as a run of `Value` frames in place
/// ([`FrameDecoder::value_run`]), each frame's seq checked against its
/// request's; anything else at the cursor goes through
/// [`Response::decode`].
pub(crate) struct Conn {
    stream: TcpStream,
    outbox: Vec<u8>,
    decoder: FrameDecoder,
    seq: u32,
}

impl Conn {
    fn dial(addr: impl ToSocketAddrs) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Conn { stream, outbox: Vec::new(), decoder: FrameDecoder::new(), seq: 0 })
    }

    /// Encodes `req` straight into the outbox, returning the sequence
    /// number it was stamped with. Nothing hits the wire until
    /// [`flush`](Self::flush).
    fn send(&mut self, req: &Request) -> u32 {
        let seq = self.seq;
        self.seq = self.seq.wrapping_add(1);
        req.encode(seq, &mut self.outbox);
        seq
    }

    /// Writes the buffered request frames in one syscall.
    fn flush(&mut self) -> io::Result<()> {
        self.stream.write_all(&self.outbox)?;
        self.outbox.clear();
        Ok(())
    }

    /// Reads one response and checks it echoes `expect_seq`.
    fn recv(&mut self, expect_seq: u32) -> io::Result<Response> {
        let (seq, resp) = loop {
            if let Some(frame) = self.decoder.next_frame()? {
                break Response::decode(frame)?;
            }
            if self.decoder.read_from(&mut self.stream)? == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed the connection",
                ));
            }
        };
        check_seq(expect_seq, seq)?;
        Ok(resp)
    }

    /// One round trip: send, flush, receive.
    pub(crate) fn call(&mut self, req: &Request) -> io::Result<Response> {
        let seq = self.send(req);
        self.flush()?;
        self.recv(seq)
    }
}

/// Checks that a response echoes `sent`, the seq its request was stamped
/// with; `got` is the seq it carries.
fn check_seq(sent: u32, got: u32) -> io::Result<()> {
    if got == sent {
        return Ok(());
    }
    Err(io::Error::new(
        io::ErrorKind::InvalidData,
        format!("sequence mismatch: sent {sent}, got {got}"),
    ))
}

/// Runs `f` on the connection in `slot`, dialing `addr` first if the slot
/// is empty: up to `attempts` tries, sleeping `backoff` — doubled per
/// failure, capped at 100× — between them. Nothing has been sent while
/// dialing, so retrying is safe. An error from `f` empties the slot: the
/// conversation is torn, what was sent is never resent, and the next call
/// redials.
pub(crate) fn with_dialed<T>(
    slot: &mut Option<Conn>,
    addr: impl ToSocketAddrs + Copy,
    attempts: u32,
    backoff: Duration,
    f: impl FnOnce(&mut Conn) -> io::Result<T>,
) -> io::Result<T> {
    let conn = match slot {
        Some(conn) => conn,
        None => {
            let mut wait = backoff;
            let mut attempt = 1;
            let conn = loop {
                match Conn::dial(addr) {
                    Ok(conn) => break conn,
                    Err(e) if attempt >= attempts => return Err(e),
                    Err(_) => {
                        std::thread::sleep(wait);
                        wait = (wait * 2).min(backoff * 100);
                        attempt += 1;
                    }
                }
            };
            slot.insert(conn)
        }
    };
    let result = f(conn);
    if result.is_err() {
        *slot = None;
    }
    result
}

/// A [`ProcessCounter`] served over TCP.
///
/// See the [module docs](self) for pooling and delivery semantics.
pub struct RemoteCounter {
    addr: SocketAddr,
    cfg: ClientConfig,
    slots: Box<[CachePadded<Mutex<Option<Conn>>>]>,
}

impl std::fmt::Debug for RemoteCounter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RemoteCounter")
            .field("addr", &self.addr)
            .field("pool", &self.cfg.pool)
            .finish_non_exhaustive()
    }
}

impl RemoteCounter {
    /// Connects to `addr` with a pool of `pool` connection slots. Dials one
    /// connection eagerly so an unreachable server fails here, not on the
    /// first increment.
    ///
    /// # Errors
    ///
    /// Fails if `addr` does not resolve or the server is unreachable.
    pub fn connect(addr: impl ToSocketAddrs, pool: usize) -> io::Result<RemoteCounter> {
        RemoteCounter::with_config(
            addr,
            ClientConfig { pool: pool.max(1), ..ClientConfig::default() },
        )
    }

    /// Connects to **any** node of a counting cluster and routes to the
    /// head: asks the contacted node who it is ([`Request::NodeInfo`]) and,
    /// if it is not the entry node, re-dials the head address the node
    /// advertises. Increments always enter the fabric at the head, so the
    /// never-retry permutation guarantee is untouched — the handshake
    /// happens before any counting request is sent.
    ///
    /// # Errors
    ///
    /// Connection failures, plus `AddrNotAvailable` when the contacted
    /// node does not yet know the head's address (the head has not
    /// announced itself down the chain).
    pub fn connect_routed(addr: impl ToSocketAddrs, pool: usize) -> io::Result<RemoteCounter> {
        let first = RemoteCounter::connect(addr, pool)?;
        let info = first.node_info()?;
        if info.node == 0 {
            return Ok(first);
        }
        if info.head.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::AddrNotAvailable,
                format!("node {} of {} does not know the head yet", info.node, info.nodes),
            ));
        }
        RemoteCounter::connect(&info.head[..], pool)
    }

    /// [`connect`](Self::connect) with explicit [`ClientConfig`].
    ///
    /// # Errors
    ///
    /// Fails if `addr` does not resolve or the server is unreachable.
    pub fn with_config(addr: impl ToSocketAddrs, cfg: ClientConfig) -> io::Result<RemoteCounter> {
        let addr = addr.to_socket_addrs()?.next().ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidInput, "address resolved to nothing")
        })?;
        let cfg = ClientConfig { pool: cfg.pool.max(1), ..cfg };
        let slots: Box<[CachePadded<Mutex<Option<Conn>>>]> =
            (0..cfg.pool).map(|_| CachePadded::new(Mutex::new(None))).collect();
        *slots[0].lock() = Some(Conn::dial(addr)?);
        Ok(RemoteCounter { addr, cfg, slots })
    }

    /// The server address this client dials.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Number of connection slots in the pool.
    pub fn pool(&self) -> usize {
        self.cfg.pool
    }

    /// Runs `f` on `process`'s pool slot ([`with_dialed`]).
    fn with_conn<T>(
        &self,
        process: usize,
        f: impl FnOnce(&mut Conn) -> io::Result<T>,
    ) -> io::Result<T> {
        let mut slot = self.slots[process % self.cfg.pool].lock();
        with_dialed(&mut slot, self.addr, self.cfg.max_dial_attempts, self.cfg.base_backoff, f)
    }

    /// Fallible single increment as `process`.
    ///
    /// # Errors
    ///
    /// I/O failures, and server refusals mapped through
    /// [`response_error`].
    pub fn try_next(&self, process: usize) -> io::Result<u64> {
        self.with_conn(process, |conn| match conn.call(&Request::Next)? {
            Response::Value { value } => Ok(value),
            other => Err(response_error(&other)),
        })
    }

    /// Fallible batched increment: `n` values in one round trip.
    ///
    /// Requests larger than the wire limit ([`MAX_BATCH`]) are chunked
    /// transparently: every chunk's `NextBatch` frame is pipelined on the
    /// slot's connection before any response is read, so even a huge batch
    /// costs one flush. A failure mid-way tears the connection down
    /// *without retrying* — already-sent chunks may have executed
    /// server-side, and re-sending them would double-count, breaking the
    /// permutation guarantee the audits depend on. `n == 0` returns empty
    /// without touching (or dialing) the connection.
    ///
    /// # Errors
    ///
    /// I/O failures, server refusals, and a batch echoing the wrong
    /// length.
    pub fn next_batch(&self, process: usize, n: usize) -> io::Result<Vec<u64>> {
        if n == 0 {
            return Ok(Vec::new());
        }
        let max = MAX_BATCH as usize;
        let chunks = (0..n).step_by(max).map(|start| (n - start).min(max));
        self.with_conn(process, |conn| {
            // Chunk seqs are consecutive from the first, as in
            // `next_pipelined`.
            let first = conn.seq;
            for chunk in chunks.clone() {
                conn.send(&Request::NextBatch { n: chunk as u32 });
            }
            conn.flush()?;
            let mut values = Vec::new();
            for (i, chunk) in chunks.enumerate() {
                let got = match conn.recv(first.wrapping_add(i as u32))? {
                    Response::Batch { values } if values.len() == chunk => values,
                    Response::Batch { values } => {
                        return Err(io::Error::new(
                            io::ErrorKind::InvalidData,
                            format!("asked for {chunk} values, got {}", values.len()),
                        ));
                    }
                    other => return Err(response_error(&other)),
                };
                // The first chunk's vector is the answer's, grown to hold
                // the rest: a one-chunk batch is returned as decoded.
                if i == 0 {
                    values = got;
                    values.reserve_exact(n - chunk);
                } else {
                    values.extend(got);
                }
            }
            Ok(values)
        })
    }

    /// `k` single increments pipelined on one connection: all requests are
    /// written before any response is read, so the batch costs one flush
    /// and one round trip instead of `k`. `k == 0` returns empty without
    /// touching (or dialing) the connection.
    ///
    /// # Errors
    ///
    /// I/O failures and server refusals; on error the connection is torn
    /// down (some of the `k` increments may have executed server-side).
    pub fn next_pipelined(&self, process: usize, k: usize) -> io::Result<Vec<u64>> {
        if k == 0 {
            return Ok(Vec::new());
        }
        self.with_conn(process, |conn| {
            // The burst's seqs are consecutive from the first, so the
            // expected echoes need no list of their own.
            let first = conn.seq;
            for _ in 0..k {
                conn.send(&Request::Next);
            }
            conn.flush()?;
            // Whole `Value` runs are taken in place; whatever else is at
            // the cursor, a partial frame included, goes through `recv`.
            let mut values = Vec::with_capacity(k);
            while values.len() < k {
                let done = values.len();
                let run = conn.decoder.value_run(k - done);
                if run == 0 {
                    match conn.recv(first.wrapping_add(done as u32))? {
                        Response::Value { value } => values.push(value),
                        other => return Err(response_error(&other)),
                    }
                    continue;
                }
                for (i, (seq, value)) in conn.decoder.take_value_run(run).enumerate() {
                    check_seq(first.wrapping_add((done + i) as u32), seq)?;
                    values.push(value);
                }
            }
            Ok(values)
        })
    }

    /// Round-trip liveness probe.
    ///
    /// # Errors
    ///
    /// I/O failures, or a non-`Pong` answer.
    pub fn ping(&self, process: usize) -> io::Result<()> {
        self.with_conn(process, |conn| match conn.call(&Request::Ping)? {
            Response::Pong => Ok(()),
            other => Err(response_error(&other)),
        })
    }

    /// Asks the server who it is in the cluster (a plain server answers
    /// as a one-node cluster).
    ///
    /// # Errors
    ///
    /// I/O failures, or a non-`NodeInfo` answer.
    pub fn node_info(&self) -> io::Result<NodeInfo> {
        self.with_conn(0, |conn| match conn.call(&Request::NodeInfo)? {
            Response::NodeInfo(info) => Ok(info),
            other => Err(response_error(&other)),
        })
    }

    /// Fetches one shard's audit frontier — up to `max` buffered events
    /// plus the shard's watermark and drop/skip totals — for the
    /// cluster-wide merged audit. An empty `ops` list means the shard is
    /// currently dry (re-poll until it settles: the server's close-time
    /// flush is asynchronous).
    ///
    /// # Errors
    ///
    /// I/O failures, a non-`Frontier` answer, or
    /// [`InvalidData`](io::ErrorKind::InvalidData) when the answer is
    /// another shard's frontier: filed under `shard`, its events would join
    /// the wrong stream of the merged audit.
    pub fn fetch_frontier(
        &self,
        shard: u32,
        max: u32,
    ) -> io::Result<cnet_core::trace::ShardFrontier> {
        self.with_conn(0, |conn| match conn.call(&Request::Frontier { shard, max })? {
            Response::Frontier { frontier } if frontier.shard == shard as usize => Ok(frontier),
            Response::Frontier { frontier } => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("asked for shard {shard}'s frontier, got shard {}'s", frontier.shard),
            )),
            other => Err(response_error(&other)),
        })
    }

    /// Fetches the server's aggregated statistics.
    ///
    /// # Errors
    ///
    /// I/O failures, or a non-`Stats` answer.
    pub fn server_stats(&self) -> io::Result<StatsSnapshot> {
        self.with_conn(0, |conn| match conn.call(&Request::Stats)? {
            Response::Stats(stats) => Ok(stats),
            other => Err(response_error(&other)),
        })
    }

    /// Asks the server to shut down; resolves once the server acknowledges
    /// with [`Response::Bye`].
    ///
    /// # Errors
    ///
    /// I/O failures, or a non-`Bye` answer.
    pub fn shutdown_server(&self) -> io::Result<()> {
        self.with_conn(0, |conn| match conn.call(&Request::Shutdown)? {
            Response::Bye => Ok(()),
            other => Err(response_error(&other)),
        })
    }
}

impl ProcessCounter for RemoteCounter {
    /// Panics on I/O or protocol errors — the trait is infallible. Use
    /// [`RemoteCounter::try_next`] where failures must be handled.
    fn next_for(&self, process: usize) -> u64 {
        match self.try_next(process) {
            Ok(value) => value,
            Err(e) => panic!("remote increment against {} failed: {e}", self.addr),
        }
    }

    /// One `NextBatch` round trip (chunked above the wire limit) instead
    /// of `n` request frames. Panics on I/O or protocol errors — use
    /// [`RemoteCounter::next_batch`] where failures must be handled.
    fn next_batch_for(&self, process: usize, n: usize) -> Vec<u64> {
        match self.next_batch(process, n) {
            Ok(values) => values,
            Err(e) => panic!("remote batch against {} failed: {e}", self.addr),
        }
    }
}

/// Maps a refusal (or protocol surprise) to an [`io::Error`].
pub fn response_error(resp: &Response) -> io::Error {
    match resp {
        Response::Error(ErrorCode::Busy) => {
            io::Error::new(io::ErrorKind::ConnectionRefused, "server busy (at connection limit)")
        }
        Response::Error(ErrorCode::ShuttingDown) => {
            io::Error::new(io::ErrorKind::ConnectionAborted, "server shutting down")
        }
        Response::Error(code) => {
            io::Error::new(io::ErrorKind::InvalidData, format!("server error: {code:?}"))
        }
        other => {
            io::Error::new(io::ErrorKind::InvalidData, format!("unexpected response: {other:?}"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{CounterServer, ServerConfig};
    use cnet_runtime::FetchAddCounter;
    use std::sync::Arc;

    fn server() -> CounterServer {
        CounterServer::start(
            "127.0.0.1:0",
            Arc::new(FetchAddCounter::new()),
            ServerConfig::default(),
        )
        .unwrap()
    }

    #[test]
    fn single_batch_and_pipelined_calls_round_trip() {
        let server = server();
        let client = RemoteCounter::connect(server.local_addr(), 2).unwrap();
        let mut values = vec![client.try_next(0).unwrap()];
        values.extend(client.next_batch(1, 5).unwrap());
        values.extend(client.next_pipelined(0, 6).unwrap());
        values.sort_unstable();
        assert_eq!(values, (0..12).collect::<Vec<u64>>());
        client.ping(0).unwrap();
        let stats = client.server_stats().unwrap();
        assert_eq!(stats.ops, 12);
        assert_eq!(stats.batches, 1);
    }

    #[test]
    fn oversized_batches_are_chunked_not_refused() {
        let server = server();
        let client = RemoteCounter::connect(server.local_addr(), 1).unwrap();
        let n = MAX_BATCH as usize + 17;
        let mut values = client.next_batch(0, n).unwrap();
        values.sort_unstable();
        assert_eq!(values, (0..n as u64).collect::<Vec<_>>());
        // Two NextBatch frames on the wire: one full chunk + the remainder.
        assert_eq!(client.server_stats().unwrap().batches, 2);
    }

    #[test]
    fn implements_process_counter() {
        let server = server();
        let client = RemoteCounter::connect(server.local_addr(), 1).unwrap();
        let counter: &dyn ProcessCounter = &client;
        assert_eq!(counter.next_for(0), 0);
        assert_eq!(counter.next_for(7), 1);
    }

    #[test]
    fn connect_to_dead_server_fails_eagerly() {
        // Bind-then-drop yields a port with (very likely) no listener.
        let addr = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        assert!(RemoteCounter::connect(addr, 1).is_err());
    }

    #[test]
    fn reconnects_after_server_restart_on_same_port() {
        let mut first = server();
        let addr = first.local_addr();
        let client = RemoteCounter::with_config(
            addr,
            ClientConfig { pool: 1, max_dial_attempts: 40, ..ClientConfig::default() },
        )
        .unwrap();
        assert_eq!(client.try_next(0).unwrap(), 0);
        first.shutdown();
        // The in-flight-free failure surfaces as an error, not a retry.
        assert!(client.try_next(0).is_err());
        // A fresh server on the same port: the next call redials.
        let replacement =
            CounterServer::start(addr, Arc::new(FetchAddCounter::new()), ServerConfig::default())
                .unwrap();
        let value = client.try_next(0).unwrap();
        assert_eq!(value, 0, "fresh backend restarts the count");
        drop(replacement);
    }

    #[test]
    fn shutdown_request_is_acknowledged() {
        let server = server();
        let client = RemoteCounter::connect(server.local_addr(), 1).unwrap();
        client.shutdown_server().unwrap();
        server.wait_for_shutdown_request();
        assert!(server.shutdown_requested());
    }

    #[test]
    fn an_empty_pipelined_burst_touches_no_socket() {
        let server = server();
        let client = RemoteCounter::connect(server.local_addr(), 2).unwrap();
        client.ping(0).unwrap();
        // Slot 1 has never been dialed, and stays that way.
        assert_eq!(client.next_pipelined(1, 0).unwrap(), Vec::<u64>::new());
        assert_eq!(client.next_pipelined(0, 0).unwrap(), Vec::<u64>::new());
        let stats = server.stats();
        assert_eq!((stats.total_connections, stats.requests), (1, 1));
    }

    #[test]
    fn an_empty_batch_dials_nothing_even_against_a_stopped_server() {
        let mut server = server();
        let client = RemoteCounter::connect(server.local_addr(), 2).unwrap();
        server.shutdown();
        // Slot 1 was never dialed; an empty request must not dial it (which
        // against a stopped server retries its way to `ConnectionRefused`).
        assert_eq!(client.next_batch(1, 0).unwrap(), Vec::<u64>::new());
        assert_eq!(client.next_pipelined(1, 0).unwrap(), Vec::<u64>::new());
        assert_eq!(client.next_batch_for(1, 0), Vec::<u64>::new());
    }

    #[test]
    fn a_seq_mismatch_inside_a_pipelined_burst_tears_the_connection_down() {
        use crate::wire::read_frame;
        // A peer that answers the third frame of a burst under the wrong
        // seq, then serves a second connection honestly.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let peer = std::thread::spawn(move || {
            for bad_at in [Some(2u64), None] {
                let (mut stream, _) = listener.accept().unwrap();
                let (mut decoder, mut out) = (FrameDecoder::new(), Vec::new());
                for value in 0..4u64 {
                    let payload = read_frame(&mut stream, &mut decoder).unwrap().unwrap();
                    let (seq, req) = Request::decode(&payload).unwrap();
                    assert_eq!(req, Request::Next);
                    let seq = if bad_at == Some(value) { seq.wrapping_add(7) } else { seq };
                    Response::Value { value }.encode(seq, &mut out);
                }
                stream.write_all(&out).unwrap();
            }
        });
        let client = RemoteCounter::connect(addr, 1).unwrap();
        let err = client.next_pipelined(0, 4).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        // The next call redials instead of reading the stale responses.
        assert_eq!(client.next_pipelined(0, 4).unwrap(), [0, 1, 2, 3]);
        peer.join().unwrap();
    }

    #[test]
    fn a_frontier_for_another_shard_is_refused() {
        use crate::wire::read_frame;
        use cnet_core::trace::{RawOp, ShardFrontier};
        // A peer that answers a request for shard 0's frontier with shard
        // 1's: the events must not be filed under shard 0.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let peer = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut decoder = FrameDecoder::new();
            let payload = read_frame(&mut stream, &mut decoder).unwrap().unwrap();
            let (seq, req) = Request::decode(&payload).unwrap();
            assert_eq!(req, Request::Frontier { shard: 0, max: 16 });
            let frontier = ShardFrontier {
                shard: 1,
                ops: vec![RawOp { process: 1, enter_ns: 5, exit_ns: 9, value: 3 }],
                watermark: Some(5),
                ..ShardFrontier::default()
            };
            let mut out = Vec::new();
            Response::Frontier { frontier }.encode(seq, &mut out);
            stream.write_all(&out).unwrap();
        });
        let client = RemoteCounter::connect(addr, 1).unwrap();
        let err = client.fetch_frontier(0, 16).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        peer.join().unwrap();
    }

    /// How the scripted peer ends a burst early: the frame it sends in
    /// place of one `Value`, and what the client must make of it.
    #[derive(Clone, Copy, Debug)]
    enum Break {
        ShuttingDown,
        OtherVersion,
        BadLength,
    }

    impl Break {
        fn encode(self, seq: u32, out: &mut Vec<u8>) {
            match self {
                Break::ShuttingDown => Response::Error(ErrorCode::ShuttingDown).encode(seq, out),
                Break::OtherVersion => Response::Value { value: 1 }.encode_versioned(seq, 1, out),
                Break::BadLength => {
                    out.extend_from_slice(&(crate::wire::MAX_FRAME as u32 + 1).to_le_bytes());
                    out.extend_from_slice(&[0; 14]);
                }
            }
        }

        /// The error kind and a word of the message the client reports.
        fn reported(self) -> (io::ErrorKind, &'static str) {
            match self {
                Break::ShuttingDown => (io::ErrorKind::ConnectionAborted, "shutting down"),
                Break::OtherVersion => (io::ErrorKind::InvalidData, "version 1"),
                Break::BadLength => (io::ErrorKind::InvalidData, "length"),
            }
        }
    }

    /// One pipelined burst as the scripted peer answers it: a `Value` per
    /// request carrying `values[i]`, unless `broken = Some((j, how))`, in
    /// which case frame `j` is `how`, nothing follows it, and the peer
    /// closes the connection. The answer bytes are written in pieces cut
    /// by `cut_seed`.
    #[derive(Clone, Debug)]
    struct Burst {
        values: Vec<u64>,
        broken: Option<(usize, Break)>,
        cut_seed: u64,
    }

    /// Cut points in `1..len` for an answer of 18-byte `Value` frames (the
    /// break frame, if any, starts on a `Value` boundary too): one inside
    /// some frame's length word, one inside a seq and one inside a value,
    /// plus up to three anywhere.
    fn cut_points(len: usize, seed: u64) -> Vec<usize> {
        use cnet_util::rng::{Rng, SeedableRng, StdRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let frames = len.div_ceil(18);
        let mut inside = |from: usize, width: usize| {
            18 * rng.random_range(0..frames) + from + rng.random_range(1..width)
        };
        let mut cuts = vec![inside(0, 4), inside(6, 4), inside(10, 8)];
        for _ in 0..rng.random_range(0..4usize) {
            cuts.push(rng.random_range(1..len.max(2)));
        }
        cuts.retain(|&cut| (1..len).contains(&cut));
        cuts.sort_unstable();
        cuts.dedup();
        cuts
    }

    /// Every burst size the harness sends clean, across the boundaries of
    /// one and of a 256-frame burst.
    const BURSTS: [usize; 5] = [1, 2, 255, 256, 257];

    /// The script for one seed: the five clean bursts on one connection,
    /// then each way of breaking a run, each followed by a clean burst
    /// that the client must send on a freshly dialed connection.
    fn script(seed: u64) -> Vec<Burst> {
        use cnet_util::rng::{Rng, SeedableRng, StdRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut burst = |k: usize, how: Option<Break>| Burst {
            values: (0..k).map(|_| rng.next_u64()).collect(),
            broken: how.map(|how| (rng.random_range(0..k), how)),
            cut_seed: rng.next_u64(),
        };
        let mut script: Vec<Burst> = BURSTS.iter().map(|&k| burst(k, None)).collect();
        for how in [Break::ShuttingDown, Break::OtherVersion, Break::BadLength] {
            let k = BURSTS[(seed % 5) as usize];
            script.push(burst(k, Some(how)));
            script.push(burst(k, None));
        }
        script
    }

    /// Plays `script` as the server: reads each burst's `Next` frames,
    /// then writes the answers in cut pieces, pausing between pieces so
    /// each tends to arrive in a read of its own.
    fn play(listener: std::net::TcpListener, script: Vec<Burst>) {
        use crate::wire::read_frame;
        let mut conn = None;
        for burst in script {
            let (stream, decoder) = conn.get_or_insert_with(|| {
                let (stream, _) = listener.accept().unwrap();
                stream.set_nodelay(true).unwrap();
                (stream, FrameDecoder::new())
            });
            let mut out = Vec::new();
            for (i, &value) in burst.values.iter().enumerate() {
                let payload = read_frame(stream, decoder).unwrap().unwrap();
                let (seq, req) = Request::decode(&payload).unwrap();
                assert_eq!(req, Request::Next);
                match burst.broken {
                    Some((j, how)) if j == i => how.encode(seq, &mut out),
                    Some((j, _)) if j < i => {}
                    _ => Response::Value { value }.encode(seq, &mut out),
                }
            }
            let mut from = 0;
            for cut in cut_points(out.len(), burst.cut_seed).into_iter().chain([out.len()]) {
                // The client hangs up as soon as it has read a break, so
                // the rest of a broken answer may find the socket closed.
                if let Err(e) = stream.write_all(&out[from..cut]) {
                    assert!(burst.broken.is_some(), "{e}");
                    break;
                }
                from = cut;
                std::thread::sleep(Duration::from_micros(50));
            }
            if burst.broken.is_some() {
                conn = None;
            }
        }
    }

    #[test]
    fn pipelined_bursts_survive_any_byte_split_and_broken_runs_tear_down() {
        // A release build runs this at depth (`scripts/verify.sh`).
        let seeds = if cfg!(debug_assertions) { 8 } else { 1000 };
        let base = cnet_util::proptest::base_seed();
        for i in 0..seeds {
            let seed = cnet_util::rng::mix_seed(base, i);
            let script = script(seed);
            let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            let client = RemoteCounter::connect(listener.local_addr().unwrap(), 1).unwrap();
            let peer = std::thread::spawn({
                let script = script.clone();
                move || play(listener, script)
            });
            for burst in &script {
                let got = client.next_pipelined(0, burst.values.len());
                match burst.broken {
                    None => assert_eq!(got.unwrap(), burst.values, "seed {seed}"),
                    Some((j, how)) => {
                        let err = got.unwrap_err();
                        let (kind, says) = how.reported();
                        assert_eq!(err.kind(), kind, "seed {seed}, {how:?} at {j}: {err}");
                        assert!(err.to_string().contains(says), "seed {seed}: {err}");
                    }
                }
            }
            peer.join().unwrap_or_else(|_| panic!("seed {seed}: the peer failed"));
        }
    }
}
