//! The counting-service wire protocol: compact length-prefixed binary
//! frames over any byte stream.
//!
//! # Frame layout
//!
//! Every frame is `[len: u32 LE][payload]`, where `payload` is
//!
//! ```text
//! [version: u8][opcode: u8][seq: u32 LE][body ...]
//! ```
//!
//! `len` counts the payload bytes only (so the minimum frame is
//! [`HEADER_LEN`] bytes of payload) and is capped at [`MAX_FRAME`] — a
//! reader never allocates unboundedly on a corrupt or hostile length word.
//! `seq` is a per-connection sequence number: the client stamps each
//! request, the server echoes the stamp in the matching response, and both
//! sides can therefore pipeline many requests on one connection and match
//! responses without heads-of-line bookkeeping.
//!
//! # Opcodes
//!
//! | opcode | direction | frame | body |
//! |-------:|-----------|-------|------|
//! | `0x01` | → server  | [`Request::Next`] | — |
//! | `0x02` | → server  | [`Request::NextBatch`] | `n: u32 LE` |
//! | `0x03` | → server  | [`Request::Ping`] | — |
//! | `0x04` | → server  | [`Request::Stats`] | — |
//! | `0x05` | → server  | [`Request::Shutdown`] | — |
//! | `0x07` | → peer    | [`Request::ForwardBatch`] | `token: u64`, `node_seq: u32`, `w: u32`, `w × u32` counts |
//! | `0x08` | → server  | [`Request::NodeInfo`] | — |
//! | `0x09` | → peer    | [`Request::Announce`] | `node: u32`, `head: u16 LE + UTF-8` |
//! | `0x0B` | → server  | [`Request::Frontier`] | `shard: u32`, `max: u32` |
//! | `0x81` | ← server  | [`Response::Value`] | `value: u64 LE` |
//! | `0x82` | ← server  | [`Response::Batch`] | `n: u32 LE`, `n × u64 LE` |
//! | `0x83` | ← server  | [`Response::Pong`] | — |
//! | `0x84` | ← server  | [`Response::Stats`] | 9 × `u64 LE` ([`StatsSnapshot`]) |
//! | `0x85` | ← server  | [`Response::Bye`] | — |
//! | `0x86` | ← server  | [`Response::Error`] | `code: u8` ([`ErrorCode`]) |
//! | `0x87` | ← server  | [`Response::NodeInfo`] | 4 × `u32 LE`, `head: u16 LE + UTF-8` |
//! | `0x89` | ← server  | [`Response::Frontier`] | 33 B header ([`FRONTIER_HEADER_LEN`]), `n ×` ops (28 B) |
//!
//! Integers are little-endian throughout. Decoding is strict: any version
//! but [`VERSION`], unknown opcodes (`0x06`, the retired per-token hop,
//! and `0x0A`/`0x88`, the retired raw trace fetch, among them), truncated
//! bodies, and trailing bytes are all [`WireError`]s — a server answers
//! them with [`Response::Error`] and drops the connection rather than
//! guessing.

use cnet_core::trace::{RawOp, ShardFrontier};
use std::fmt;
use std::io;

/// Protocol version stamped on every frame, and the only one decoded.
pub const VERSION: u8 = 2;

/// Fixed payload header: version, opcode, sequence number.
pub const HEADER_LEN: usize = 6;

/// Hard cap on a frame's payload length; larger length words are treated
/// as corruption.
pub const MAX_FRAME: usize = 1 << 20;

/// Hard cap on a `NextBatch` request (keeps one request's response under
/// [`MAX_FRAME`] and bounds the work one frame can demand).
pub const MAX_BATCH: u32 = 1 << 16;

/// A request frame, client to server.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// One increment; answered with [`Response::Value`].
    Next,
    /// `n` increments in one frame; answered with [`Response::Batch`] of
    /// `n` values. The batch is the protocol's amortization lever: one
    /// round trip, one syscall pair, `n` counter operations.
    NextBatch {
        /// Number of increments requested (`1..=MAX_BATCH`).
        n: u32,
    },
    /// Liveness probe; answered with [`Response::Pong`].
    Ping,
    /// Server statistics; answered with [`Response::Stats`].
    Stats,
    /// Asks the whole server to drain and stop; answered with
    /// [`Response::Bye`] before the connection closes.
    Shutdown,
    /// A batch crossing a partition cut, node `k` to node `k+1`, in one
    /// frame: `counts[p]` tokens on every cut position `p`, as the
    /// sender's batched traversal left them; answered with one
    /// [`Response::Batch`] carrying a value per token once the chain's
    /// final node has counted them. The receiver counts all of them or
    /// none. A single client operation crosses as a batch of one.
    ForwardBatch {
        /// Cluster-unique id of the first token in the batch, stamped by
        /// the entry node (diagnostic identity; the counting path never
        /// branches on it).
        token: u64,
        /// The receiving node's index in the chain; a node refuses a hop
        /// that does not match its own position
        /// ([`ErrorCode::Cluster`]).
        node_seq: u32,
        /// Tokens per cut position, dense: one entry for each of the
        /// receiver's `w` wires (any other length is refused), summing to
        /// `1..=MAX_BATCH`.
        counts: Vec<u32>,
    },
    /// Asks who the server is in the cluster; answered with
    /// [`Response::NodeInfo`]. Clients use it to route to the entry node.
    NodeInfo,
    /// An upstream peer introducing itself on a freshly dialed peer link,
    /// propagating the cluster head's address down the chain; answered
    /// with [`Response::Pong`].
    Announce {
        /// The announcing (upstream) node's chain index.
        node: u32,
        /// The client-facing address of the cluster head (node 0), as the
        /// announcer knows it; empty if not yet known.
        head: String,
    },
    /// Fetches one recorder shard's audit frontier — buffered events plus
    /// the node-local [`ShardMonitor`](cnet_core::trace::ShardMonitor)'s
    /// watermark and drop/skip accounting — for the cluster-wide
    /// merged audit; answered with [`Response::Frontier`]. Repeated
    /// requests drain the shard; an empty-`ops` frontier means the shard
    /// is currently dry.
    Frontier {
        /// The node-local recorder shard to pull.
        shard: u32,
        /// Upper bound on events returned in one response frame.
        max: u32,
    },
}

/// A response frame, server to client, echoing the request's `seq`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Response {
    /// The value obtained by one increment.
    Value {
        /// The counter value handed out.
        value: u64,
    },
    /// The values obtained by a `NextBatch`.
    Batch {
        /// One value per requested increment, in issue order.
        values: Vec<u64>,
    },
    /// Liveness answer.
    Pong,
    /// A snapshot of the server's aggregate statistics.
    Stats(StatsSnapshot),
    /// Acknowledges a `Shutdown`; the server is draining.
    Bye,
    /// The request could not be served; the server closes the connection
    /// after sending this.
    Error(ErrorCode),
    /// Who the server is in the cluster (answer to [`Request::NodeInfo`]).
    NodeInfo(NodeInfo),
    /// One shard's audit frontier (answer to [`Request::Frontier`]): a
    /// chunk of buffered events in shard order plus the shard's watermark
    /// and lifetime drop/skip accounting on the serving node. The client
    /// folds the frontiers into a
    /// [`MergeAuditor`](cnet_core::trace::MergeAuditor), which computes
    /// the one verdict.
    Frontier {
        /// The shard frontier, `shard` still in the node-local space.
        frontier: ShardFrontier,
    },
}

/// A server's cluster identity, as carried by [`Response::NodeInfo`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct NodeInfo {
    /// This server's chain index (`0` = entry/head node).
    pub node: u32,
    /// Total nodes in the chain (`1` for a single-process server).
    pub nodes: u32,
    /// The network fan `w` — the width of every partition cut.
    pub fan: u32,
    /// Recorder shards this node can serve via [`Request::Frontier`]
    /// (`0` when auditing is off).
    pub shards: u32,
    /// Client-facing address of the head node; empty if unknown (head not
    /// yet announced down the chain) — the head itself always knows it.
    pub head: String,
}

/// Wire size of a [`Response::Frontier`] body before its ops: `shard:
/// u32`, `flags: u8` (bit 0 = finished, bit 1 = watermark present),
/// `watermark`, `dropped`, `skipped` (three `u64`s), `n: u32`. A frontier
/// carries events and accounting, no verdict. Frames from builds whose
/// header was 49 or 65 bytes long never decode under this one, nor the
/// reverse: the lengths differ by 16 or 32 bytes, neither a multiple of
/// [`FRONTIER_OP_LEN`], so a mixed-build cluster fails closed.
pub const FRONTIER_HEADER_LEN: usize = 4 + 1 + 3 * 8 + 4;

/// Wire size of one frontier op: `process: u32`, then three `u64`s.
pub const FRONTIER_OP_LEN: usize = 28;

/// Hard cap on ops per [`Response::Frontier`] frame (keeps the frame
/// comfortably under [`MAX_FRAME`]).
pub const MAX_FRONTIER_OPS: u32 = 1 << 14;

/// Why a request was refused.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorCode {
    /// The frame failed to decode (bad version, opcode, or body).
    Malformed = 1,
    /// A `NextBatch` asked for 0 or more than [`MAX_BATCH`] values.
    BadBatch = 2,
    /// The server is at its connection limit (reject backpressure policy).
    Busy = 3,
    /// The server is draining and no longer serves increments.
    ShuttingDown = 4,
    /// A cluster hop was refused: wrong `node_seq` for this node, a batch
    /// not laid out over this node's `w` wires, a forward to a node with
    /// no downstream stage, or a broken peer link.
    Cluster = 5,
}

impl ErrorCode {
    fn from_byte(b: u8) -> Result<ErrorCode, WireError> {
        match b {
            1 => Ok(ErrorCode::Malformed),
            2 => Ok(ErrorCode::BadBatch),
            3 => Ok(ErrorCode::Busy),
            4 => Ok(ErrorCode::ShuttingDown),
            5 => Ok(ErrorCode::Cluster),
            other => Err(WireError::BadErrorCode(other)),
        }
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ErrorCode::Malformed => "malformed frame",
            ErrorCode::BadBatch => "batch size out of range",
            ErrorCode::Busy => "server at connection limit",
            ErrorCode::ShuttingDown => "server shutting down",
            ErrorCode::Cluster => "cluster hop refused",
        };
        f.write_str(s)
    }
}

/// Aggregate server statistics, as carried by [`Response::Stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Connections currently open.
    pub active_connections: u64,
    /// Connections accepted since start.
    pub total_connections: u64,
    /// Connections refused by the reject backpressure policy.
    pub rejected_connections: u64,
    /// Request frames served.
    pub requests: u64,
    /// Counter values handed out (a `NextBatch{n}` counts `n`).
    pub ops: u64,
    /// `NextBatch` frames served.
    pub batches: u64,
    /// Accepted connections that waited for a slot under the `block`
    /// backpressure policy (deferred accepts).
    pub deferred_accepts: u64,
    /// Times a reactor woke from its readiness wait (`epoll_wait`
    /// returns), across all reactor shards.
    pub reactor_wakeups: u64,
    /// Readiness events delivered across all wakeups; divided by
    /// [`StatsSnapshot::reactor_wakeups`] this is the mean batch size per
    /// `epoll_wait`, a direct read on how well wakeups amortize.
    pub reactor_events: u64,
}

/// A malformed frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// Payload shorter than the fixed header.
    TooShort(usize),
    /// Unknown protocol version byte.
    BadVersion(u8),
    /// Unknown opcode byte.
    BadOpcode(u8),
    /// Body shorter than the opcode requires.
    Truncated {
        /// The opcode whose body was cut off.
        opcode: u8,
        /// Bytes actually present after the header.
        got: usize,
        /// Bytes the opcode's body requires.
        want: usize,
    },
    /// Body longer than the opcode allows.
    TrailingBytes(u8),
    /// Unknown error code in an `Error` response.
    BadErrorCode(u8),
    /// Length word over [`MAX_FRAME`] or under [`HEADER_LEN`].
    BadLength(usize),
    /// A length-prefixed string field was not valid UTF-8.
    BadString(u8),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::TooShort(n) => write!(f, "payload of {n} bytes is shorter than the header"),
            WireError::BadVersion(v) => write!(f, "unknown protocol version {v}"),
            WireError::BadOpcode(op) => write!(f, "unknown opcode {op:#04x}"),
            WireError::Truncated { opcode, got, want } => {
                write!(f, "opcode {opcode:#04x} body truncated: {got} of {want} bytes")
            }
            WireError::TrailingBytes(op) => write!(f, "opcode {op:#04x} carries trailing bytes"),
            WireError::BadErrorCode(c) => write!(f, "unknown error code {c}"),
            WireError::BadLength(n) => write!(f, "frame length {n} out of range"),
            WireError::BadString(op) => {
                write!(f, "opcode {op:#04x} carries a non-UTF-8 string field")
            }
        }
    }
}

impl std::error::Error for WireError {}

impl From<WireError> for io::Error {
    fn from(e: WireError) -> io::Error {
        io::Error::new(io::ErrorKind::InvalidData, e)
    }
}

/// A frame's first bytes: the length word, [`VERSION`], the opcode and
/// the seq, built on the stack so a frame costs one append, not four.
fn header(opcode: u8, seq: u32, body_len: usize) -> [u8; 4 + HEADER_LEN] {
    let mut h = [0; 4 + HEADER_LEN];
    h[..4].copy_from_slice(&((HEADER_LEN + body_len) as u32).to_le_bytes());
    h[4] = VERSION;
    h[5] = opcode;
    h[6..].copy_from_slice(&seq.to_le_bytes());
    h
}

fn put_header(out: &mut Vec<u8>, opcode: u8, seq: u32, body_len: usize) {
    out.extend_from_slice(&header(opcode, seq, body_len));
}

/// Appends a length-prefixed UTF-8 string (`u16 LE` length + bytes).
fn put_string(out: &mut Vec<u8>, s: &str) {
    debug_assert!(s.len() <= u16::MAX as usize);
    out.extend_from_slice(&(s.len() as u16).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

/// Reads a length-prefixed UTF-8 string, returning it and the rest.
fn take_string(opcode: u8, body: &[u8]) -> Result<(String, &[u8]), WireError> {
    if body.len() < 2 {
        return Err(WireError::Truncated { opcode, got: body.len(), want: 2 });
    }
    let len = u16::from_le_bytes(body[..2].try_into().expect("2 bytes")) as usize;
    if body.len() < 2 + len {
        return Err(WireError::Truncated { opcode, got: body.len(), want: 2 + len });
    }
    let s = std::str::from_utf8(&body[2..2 + len])
        .map_err(|_| WireError::BadString(opcode))?
        .to_string();
    Ok((s, &body[2 + len..]))
}

/// Splits a decoded payload into `(seq, opcode, body)`, checking the
/// header length and that the version is [`VERSION`].
fn split_payload(payload: &[u8]) -> Result<(u32, u8, &[u8]), WireError> {
    if payload.len() < HEADER_LEN {
        return Err(WireError::TooShort(payload.len()));
    }
    if payload[0] != VERSION {
        return Err(WireError::BadVersion(payload[0]));
    }
    let seq = u32::from_le_bytes(payload[2..6].try_into().expect("4 bytes"));
    Ok((seq, payload[1], &payload[HEADER_LEN..]))
}

fn body_exactly(opcode: u8, body: &[u8], want: usize) -> Result<(), WireError> {
    match body.len().cmp(&want) {
        std::cmp::Ordering::Less => Err(WireError::Truncated { opcode, got: body.len(), want }),
        std::cmp::Ordering::Greater => Err(WireError::TrailingBytes(opcode)),
        std::cmp::Ordering::Equal => Ok(()),
    }
}

impl Request {
    /// Appends the full frame (length prefix included) to `out`, stamped
    /// with the current [`VERSION`].
    pub fn encode(&self, seq: u32, out: &mut Vec<u8>) {
        match self {
            Request::Next => put_header(out, 0x01, seq, 0),
            Request::NextBatch { n } => {
                put_header(out, 0x02, seq, 4);
                out.extend_from_slice(&n.to_le_bytes());
            }
            Request::Ping => put_header(out, 0x03, seq, 0),
            Request::Stats => put_header(out, 0x04, seq, 0),
            Request::Shutdown => put_header(out, 0x05, seq, 0),
            Request::ForwardBatch { token, node_seq, counts } => {
                put_header(out, 0x07, seq, 16 + 4 * counts.len());
                out.extend_from_slice(&token.to_le_bytes());
                out.extend_from_slice(&node_seq.to_le_bytes());
                out.extend_from_slice(&(counts.len() as u32).to_le_bytes());
                for count in counts {
                    out.extend_from_slice(&count.to_le_bytes());
                }
            }
            Request::NodeInfo => put_header(out, 0x08, seq, 0),
            Request::Announce { node, head } => {
                put_header(out, 0x09, seq, 4 + 2 + head.len());
                out.extend_from_slice(&node.to_le_bytes());
                put_string(out, head);
            }
            Request::Frontier { shard, max } => {
                put_header(out, 0x0B, seq, 8);
                out.extend_from_slice(&shard.to_le_bytes());
                out.extend_from_slice(&max.to_le_bytes());
            }
        }
    }

    /// Decodes a request from a frame payload (length prefix already
    /// stripped), returning the sequence number alongside.
    ///
    /// # Errors
    ///
    /// Any structural defect is a [`WireError`].
    pub fn decode(payload: &[u8]) -> Result<(u32, Request), WireError> {
        let (seq, opcode, body) = split_payload(payload)?;
        let req = match opcode {
            0x01 => {
                body_exactly(opcode, body, 0)?;
                Request::Next
            }
            0x02 => {
                body_exactly(opcode, body, 4)?;
                Request::NextBatch { n: u32::from_le_bytes(body.try_into().expect("4 bytes")) }
            }
            0x03 => {
                body_exactly(opcode, body, 0)?;
                Request::Ping
            }
            0x04 => {
                body_exactly(opcode, body, 0)?;
                Request::Stats
            }
            0x05 => {
                body_exactly(opcode, body, 0)?;
                Request::Shutdown
            }
            0x07 => {
                if body.len() < 16 {
                    return Err(WireError::Truncated { opcode, got: body.len(), want: 16 });
                }
                // `w` must agree with the bytes that follow before anything
                // is sized from it.
                let w = u32::from_le_bytes(body[12..16].try_into().expect("4 bytes")) as usize;
                body_exactly(opcode, &body[16..], w.saturating_mul(4))?;
                Request::ForwardBatch {
                    token: u64::from_le_bytes(body[..8].try_into().expect("8 bytes")),
                    node_seq: u32::from_le_bytes(body[8..12].try_into().expect("4 bytes")),
                    counts: body[16..]
                        .chunks_exact(4)
                        .map(|c| u32::from_le_bytes(c.try_into().expect("4 bytes")))
                        .collect(),
                }
            }
            0x08 => {
                body_exactly(opcode, body, 0)?;
                Request::NodeInfo
            }
            0x09 => {
                if body.len() < 4 {
                    return Err(WireError::Truncated { opcode, got: body.len(), want: 4 });
                }
                let node = u32::from_le_bytes(body[..4].try_into().expect("4 bytes"));
                let (head, rest) = take_string(opcode, &body[4..])?;
                if !rest.is_empty() {
                    return Err(WireError::TrailingBytes(opcode));
                }
                Request::Announce { node, head }
            }
            0x0B => {
                body_exactly(opcode, body, 8)?;
                Request::Frontier {
                    shard: u32::from_le_bytes(body[..4].try_into().expect("4 bytes")),
                    max: u32::from_le_bytes(body[4..8].try_into().expect("4 bytes")),
                }
            }
            other => return Err(WireError::BadOpcode(other)),
        };
        Ok((seq, req))
    }

    /// [`Request::decode`], also returning the frame's protocol version —
    /// always [`VERSION`], the only one that decodes.
    ///
    /// # Errors
    ///
    /// Same as [`Request::decode`].
    pub fn decode_versioned(payload: &[u8]) -> Result<(u32, u8, Request), WireError> {
        let (seq, req) = Request::decode(payload)?;
        Ok((seq, VERSION, req))
    }
}

impl Response {
    /// Appends the full frame (length prefix included) to `out`, stamped
    /// with [`VERSION`].
    pub fn encode(&self, seq: u32, out: &mut Vec<u8>) {
        match self {
            Response::Value { value } => {
                // The run path's only frame: one append of all 18 bytes.
                let mut frame = [0; VALUE_FRAME_LEN];
                frame[..4 + HEADER_LEN].copy_from_slice(&header(0x81, seq, 8));
                frame[4 + HEADER_LEN..].copy_from_slice(&value.to_le_bytes());
                out.extend_from_slice(&frame);
            }
            Response::Batch { values } => {
                put_header(out, 0x82, seq, 4 + 8 * values.len());
                out.extend_from_slice(&(values.len() as u32).to_le_bytes());
                for v in values {
                    out.extend_from_slice(&v.to_le_bytes());
                }
            }
            Response::Pong => put_header(out, 0x83, seq, 0),
            Response::Stats(s) => {
                put_header(out, 0x84, seq, 72);
                for word in [
                    s.active_connections,
                    s.total_connections,
                    s.rejected_connections,
                    s.requests,
                    s.ops,
                    s.batches,
                    s.deferred_accepts,
                    s.reactor_wakeups,
                    s.reactor_events,
                ] {
                    out.extend_from_slice(&word.to_le_bytes());
                }
            }
            Response::Bye => put_header(out, 0x85, seq, 0),
            Response::Error(code) => {
                put_header(out, 0x86, seq, 1);
                out.push(*code as u8);
            }
            Response::NodeInfo(info) => {
                put_header(out, 0x87, seq, 16 + 2 + info.head.len());
                for word in [info.node, info.nodes, info.fan, info.shards] {
                    out.extend_from_slice(&word.to_le_bytes());
                }
                put_string(out, &info.head);
            }
            Response::Frontier { frontier: f } => {
                put_header(out, 0x89, seq, FRONTIER_HEADER_LEN + FRONTIER_OP_LEN * f.ops.len());
                out.extend_from_slice(&(f.shard as u32).to_le_bytes());
                out.push(u8::from(f.finished) | (u8::from(f.watermark.is_some()) << 1));
                out.extend_from_slice(&f.watermark.unwrap_or(0).to_le_bytes());
                out.extend_from_slice(&f.dropped.to_le_bytes());
                out.extend_from_slice(&f.skipped.to_le_bytes());
                out.extend_from_slice(&(f.ops.len() as u32).to_le_bytes());
                for op in &f.ops {
                    out.extend_from_slice(&(op.process as u32).to_le_bytes());
                    out.extend_from_slice(&op.enter_ns.to_le_bytes());
                    out.extend_from_slice(&op.exit_ns.to_le_bytes());
                    out.extend_from_slice(&op.value.to_le_bytes());
                }
            }
        }
    }

    /// [`Response::encode`] with the version byte overwritten by
    /// `version`.
    pub fn encode_versioned(&self, seq: u32, version: u8, out: &mut Vec<u8>) {
        let start = out.len();
        self.encode(seq, out);
        out[start + 4] = version;
    }

    /// Decodes a response from a frame payload, returning the echoed
    /// sequence number alongside.
    ///
    /// # Errors
    ///
    /// Any structural defect is a [`WireError`].
    pub fn decode(payload: &[u8]) -> Result<(u32, Response), WireError> {
        let (seq, opcode, body) = split_payload(payload)?;
        let resp = match opcode {
            0x81 => {
                body_exactly(opcode, body, 8)?;
                Response::Value { value: u64::from_le_bytes(body.try_into().expect("8 bytes")) }
            }
            0x82 => {
                if body.len() < 4 {
                    return Err(WireError::Truncated { opcode, got: body.len(), want: 4 });
                }
                let n = u32::from_le_bytes(body[..4].try_into().expect("4 bytes")) as usize;
                body_exactly(opcode, &body[4..], 8 * n)?;
                let values = body[4..]
                    .chunks_exact(8)
                    .map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes")))
                    .collect();
                Response::Batch { values }
            }
            0x83 => {
                body_exactly(opcode, body, 0)?;
                Response::Pong
            }
            0x84 => {
                body_exactly(opcode, body, 72)?;
                let word = |i: usize| {
                    u64::from_le_bytes(body[8 * i..8 * (i + 1)].try_into().expect("8 bytes"))
                };
                Response::Stats(StatsSnapshot {
                    active_connections: word(0),
                    total_connections: word(1),
                    rejected_connections: word(2),
                    requests: word(3),
                    ops: word(4),
                    batches: word(5),
                    deferred_accepts: word(6),
                    reactor_wakeups: word(7),
                    reactor_events: word(8),
                })
            }
            0x85 => {
                body_exactly(opcode, body, 0)?;
                Response::Bye
            }
            0x86 => {
                body_exactly(opcode, body, 1)?;
                Response::Error(ErrorCode::from_byte(body[0])?)
            }
            0x87 => {
                if body.len() < 16 {
                    return Err(WireError::Truncated { opcode, got: body.len(), want: 16 });
                }
                let word = |i: usize| {
                    u32::from_le_bytes(body[4 * i..4 * (i + 1)].try_into().expect("4 bytes"))
                };
                let (head, rest) = take_string(opcode, &body[16..])?;
                if !rest.is_empty() {
                    return Err(WireError::TrailingBytes(opcode));
                }
                Response::NodeInfo(NodeInfo {
                    node: word(0),
                    nodes: word(1),
                    fan: word(2),
                    shards: word(3),
                    head,
                })
            }
            0x89 => {
                if body.len() < FRONTIER_HEADER_LEN {
                    return Err(WireError::Truncated {
                        opcode,
                        got: body.len(),
                        want: FRONTIER_HEADER_LEN,
                    });
                }
                let u64_at =
                    |i: usize| u64::from_le_bytes(body[i..i + 8].try_into().expect("8 bytes"));
                let shard = u32::from_le_bytes(body[..4].try_into().expect("4 bytes"));
                let flags = body[4];
                let n = u32::from_le_bytes(
                    body[FRONTIER_HEADER_LEN - 4..FRONTIER_HEADER_LEN].try_into().expect("4 bytes"),
                ) as usize;
                body_exactly(opcode, &body[FRONTIER_HEADER_LEN..], FRONTIER_OP_LEN * n)?;
                let ops = body[FRONTIER_HEADER_LEN..]
                    .chunks_exact(FRONTIER_OP_LEN)
                    .map(|c| RawOp {
                        process: u32::from_le_bytes(c[..4].try_into().expect("4 bytes")) as usize,
                        enter_ns: u64::from_le_bytes(c[4..12].try_into().expect("8 bytes")),
                        exit_ns: u64::from_le_bytes(c[12..20].try_into().expect("8 bytes")),
                        value: u64::from_le_bytes(c[20..28].try_into().expect("8 bytes")),
                    })
                    .collect();
                Response::Frontier {
                    frontier: ShardFrontier {
                        shard: shard as usize,
                        ops,
                        watermark: (flags & 0b10 != 0).then(|| u64_at(5)),
                        finished: flags & 0b01 != 0,
                        dropped: u64_at(13),
                        skipped: u64_at(21),
                    },
                }
            }
            other => return Err(WireError::BadOpcode(other)),
        };
        Ok((seq, resp))
    }
}

/// The incremental, resumable frame decoder every reader in this crate
/// frames through.
///
/// A reactor cannot block until a whole frame has arrived, and a blocking
/// reader that asked the socket for one frame at a time would pay a
/// syscall for the length word and another for the payload. A
/// `FrameDecoder` accepts whatever bytes a read produced
/// ([`FrameDecoder::extend`]) and yields complete frame payloads as they
/// materialize ([`FrameDecoder::next_frame`]), preserving partial frames
/// across calls — byte streams may be split at **any** boundary, including
/// inside the length prefix. Each payload is yielded exactly once: the
/// cursor advances before the payload is returned, so re-polling never
/// duplicates a frame.
///
/// Length words outside `HEADER_LEN..=MAX_FRAME` are corruption
/// ([`WireError::BadLength`]); after an error the stream has no
/// trustworthy framing left, so callers should drop the connection
/// (repeated polls keep returning the same error rather than resyncing).
///
/// A blocking reader fills the decoder with [`FrameDecoder::read_from`],
/// which reads straight into the decoder's own buffer: one chunk is
/// zeroed and offered to the reader per `read` call, and nothing is
/// copied a second time.
///
/// A pipelining client's burst is mostly one frame repeated: a
/// [`Request::Next`], ten bytes that differ only in `seq`. [`FrameDecoder::next_run`] reports how many such
/// frames sit whole at the cursor and [`FrameDecoder::take_next_run`]
/// hands out their seqs, so a server can count the run in one batched
/// backend call instead of decoding and executing frame by frame. The
/// answer is the same shape in the other direction — a [`Response::Value`]
/// per request, eighteen bytes that differ only in `seq` and `value` — and
/// [`FrameDecoder::value_run`] / [`FrameDecoder::take_value_run`] are the
/// client's mirror: they hand out `(seq, value)` pairs read in place. A
/// report looks only at whole buffered frames, so it never depends on
/// where the stream was split — a frame cut by a read boundary is simply
/// not in the run yet.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    /// Buffered bytes; `start..` is the unconsumed region.
    buf: Vec<u8>,
    start: usize,
}

/// Consumed-prefix size beyond which `next_frame` compacts the buffer on
/// a partial frame, bounding memory at ~one frame plus this slack.
const COMPACT_THRESHOLD: usize = 4096;

/// Wire size of a [`Request::Next`] frame: length word, header, no body.
const NEXT_FRAME_LEN: usize = 4 + HEADER_LEN;

/// Everything of a `Next` frame but its `seq`.
const NEXT_FRAME_PREFIX: [u8; 6] = [HEADER_LEN as u8, 0, 0, 0, VERSION, 0x01];

/// Wire size of a [`Response::Value`] frame: length word, header, value.
pub(crate) const VALUE_FRAME_LEN: usize = 4 + HEADER_LEN + 8;

/// Everything of a `Value` frame ahead of its `seq`.
const VALUE_FRAME_PREFIX: [u8; 6] = [(HEADER_LEN + 8) as u8, 0, 0, 0, VERSION, 0x81];

/// Bytes [`FrameDecoder::read_from`] offers the reader per call.
const READ_CHUNK: usize = 4096;

impl FrameDecoder {
    /// An empty decoder.
    pub fn new() -> FrameDecoder {
        FrameDecoder::default()
    }

    /// Appends bytes received from the stream.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Reads once from `r` straight into the buffer: grows it by one
    /// zeroed chunk, reads into that tail, and truncates to what arrived.
    /// Returns the byte count, zero at end of stream. The consumed prefix
    /// is reclaimed first, as [`next_frame`](Self::next_frame) does on a
    /// partial frame.
    ///
    /// # Errors
    ///
    /// Whatever `r.read` returns; the buffered bytes are left as they were.
    pub fn read_from(&mut self, r: &mut impl io::Read) -> io::Result<usize> {
        self.compact();
        let end = self.buf.len();
        self.buf.resize(end + READ_CHUNK, 0);
        let got = r.read(&mut self.buf[end..]);
        self.buf.truncate(end + got.as_ref().map_or(0, |&n| n));
        got
    }

    /// Bytes buffered but not yet consumed by a yielded frame. Zero means
    /// the stream is at a frame boundary — the state in which a peer EOF
    /// is a clean close rather than a cut frame.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Yields the next complete frame payload, or `None` if more bytes
    /// are needed.
    ///
    /// # Errors
    ///
    /// An out-of-range length word is [`WireError::BadLength`].
    pub fn next_frame(&mut self) -> Result<Option<&[u8]>, WireError> {
        let avail = self.buf.len() - self.start;
        if avail < 4 {
            self.compact();
            return Ok(None);
        }
        let len_bytes: [u8; 4] = self.buf[self.start..self.start + 4].try_into().expect("4 bytes");
        let len = u32::from_le_bytes(len_bytes) as usize;
        if !(HEADER_LEN..=MAX_FRAME).contains(&len) {
            return Err(WireError::BadLength(len));
        }
        if avail < 4 + len {
            self.compact();
            return Ok(None);
        }
        let payload_start = self.start + 4;
        self.start += 4 + len;
        Ok(Some(&self.buf[payload_start..payload_start + len]))
    }

    /// How many whole frames at the cursor, up to `max`, are byte for byte
    /// a [`Request::Next`]. Anything else at the cursor — another version
    /// byte, another opcode, a bad length word, a frame still partly in
    /// flight — ends the count and is left for
    /// [`next_frame`](Self::next_frame).
    pub fn next_run(&self, max: usize) -> usize {
        self.run(&NEXT_FRAME_PREFIX, NEXT_FRAME_LEN, max)
    }

    /// Consumes the first `k` frames of the run [`next_run`](Self::next_run)
    /// just reported and yields their sequence numbers in stream order.
    ///
    /// # Panics
    ///
    /// Panics if fewer than `k` whole `Next`-sized frames are buffered.
    pub fn take_next_run(&mut self, k: usize) -> impl Iterator<Item = u32> + '_ {
        self.take_run(NEXT_FRAME_LEN, k).map(seq_of)
    }

    /// How many whole frames at the cursor, up to `max`, have the length
    /// word, version and opcode of a [`Response::Value`] — which is all of
    /// a `Value` but its `seq` and `value`. Anything else at the cursor is
    /// left for [`next_frame`](Self::next_frame), as in
    /// [`next_run`](Self::next_run).
    pub fn value_run(&self, max: usize) -> usize {
        self.run(&VALUE_FRAME_PREFIX, VALUE_FRAME_LEN, max)
    }

    /// Consumes the first `k` frames of the run
    /// [`value_run`](Self::value_run) just reported and yields each one's
    /// `(seq, value)` in stream order. Checking the seqs is the caller's.
    ///
    /// # Panics
    ///
    /// Panics if fewer than `k` whole `Value`-sized frames are buffered.
    pub fn take_value_run(&mut self, k: usize) -> impl Iterator<Item = (u32, u64)> + '_ {
        self.take_run(VALUE_FRAME_LEN, k).map(|frame| {
            let value = &frame[VALUE_FRAME_PREFIX.len() + 4..];
            (seq_of(frame), u64::from_le_bytes(value.try_into().expect("8 bytes")))
        })
    }

    /// How many whole `len`-byte frames at the cursor, up to `max`, start
    /// with `prefix`.
    fn run(&self, prefix: &[u8; 6], len: usize, max: usize) -> usize {
        self.buf[self.start..]
            .chunks_exact(len)
            .take(max)
            .take_while(|frame| frame[..prefix.len()] == *prefix)
            .count()
    }

    /// Consumes `k` whole `len`-byte frames at the cursor, yielding each.
    fn take_run(&mut self, len: usize, k: usize) -> std::slice::ChunksExact<'_, u8> {
        let frames = &self.buf[self.start..self.start + k * len];
        self.start += frames.len();
        frames.chunks_exact(len)
    }

    /// Reclaims the consumed prefix. Free when everything was consumed
    /// (a truncate); otherwise a copy, paid only past a slack threshold
    /// so steady-state polling stays amortized O(bytes).
    fn compact(&mut self) {
        if self.start == self.buf.len() {
            self.buf.clear();
            self.start = 0;
        } else if self.start >= COMPACT_THRESHOLD {
            self.buf.drain(..self.start);
            self.start = 0;
        }
    }
}

/// The `seq` of a whole frame, length word included.
fn seq_of(frame: &[u8]) -> u32 {
    u32::from_le_bytes(frame[6..10].try_into().expect("4 bytes"))
}

/// A test client's blocking read of one frame payload through `decoder`:
/// `None` on a clean end-of-stream at a frame boundary, `UnexpectedEof` on
/// a stream cut mid-frame.
#[cfg(test)]
pub(crate) fn read_frame(
    r: &mut impl io::Read,
    decoder: &mut FrameDecoder,
) -> io::Result<Option<Vec<u8>>> {
    loop {
        if let Some(payload) = decoder.next_frame()? {
            return Ok(Some(payload.to_vec()));
        }
        match decoder.read_from(r)? {
            0 if decoder.buffered() == 0 => return Ok(None),
            0 => return Err(io::ErrorKind::UnexpectedEof.into()),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnet_util::proptest::prelude::*;

    fn requests() -> Vec<Request> {
        vec![
            Request::Next,
            Request::NextBatch { n: 1 },
            Request::NextBatch { n: MAX_BATCH },
            Request::Ping,
            Request::Stats,
            Request::Shutdown,
            Request::ForwardBatch { token: u64::MAX, node_seq: 2, counts: vec![0, 61, 0, 3] },
            Request::ForwardBatch { token: 0, node_seq: 1, counts: vec![] },
            Request::NodeInfo,
            Request::Announce { node: 0, head: String::new() },
            Request::Announce { node: 1, head: "127.0.0.1:4040".to_string() },
            Request::Frontier { shard: 3, max: MAX_FRONTIER_OPS },
        ]
    }

    fn responses() -> Vec<Response> {
        vec![
            Response::Value { value: 0 },
            Response::Value { value: u64::MAX },
            Response::Batch { values: vec![] },
            Response::Batch { values: vec![7, 8, 9] },
            Response::Pong,
            Response::Stats(StatsSnapshot {
                active_connections: 1,
                total_connections: 2,
                rejected_connections: 3,
                requests: 4,
                ops: 5,
                batches: 6,
                deferred_accepts: 7,
                reactor_wakeups: 8,
                reactor_events: 9,
            }),
            Response::Bye,
            Response::Error(ErrorCode::Busy),
            Response::Error(ErrorCode::Cluster),
            Response::NodeInfo(NodeInfo {
                node: 1,
                nodes: 2,
                fan: 8,
                shards: 4,
                head: "127.0.0.1:9000".to_string(),
            }),
            Response::NodeInfo(NodeInfo::default()),
            Response::Frontier { frontier: ShardFrontier::default() },
            Response::Frontier {
                frontier: ShardFrontier {
                    shard: 5,
                    ops: vec![
                        RawOp { process: 5, enter_ns: 10, exit_ns: 20, value: 3 },
                        RawOp { process: 5, enter_ns: 15, exit_ns: 35, value: 1 },
                    ],
                    watermark: Some(15),
                    finished: true,
                    dropped: 2,
                    skipped: 40,
                },
            },
        ]
    }

    /// Strips the length prefix after checking it matches the payload.
    fn payload(frame: &[u8]) -> &[u8] {
        let len = u32::from_le_bytes(frame[..4].try_into().unwrap()) as usize;
        assert_eq!(len, frame.len() - 4);
        &frame[4..]
    }

    #[test]
    fn requests_round_trip() {
        for (i, req) in requests().into_iter().enumerate() {
            let seq = 1000 + i as u32;
            let mut frame = Vec::new();
            req.encode(seq, &mut frame);
            let (got_seq, got) = Request::decode(payload(&frame)).unwrap();
            assert_eq!((got_seq, got), (seq, req));
        }
    }

    #[test]
    fn responses_round_trip() {
        for (i, resp) in responses().into_iter().enumerate() {
            let seq = 77 + i as u32;
            let mut frame = Vec::new();
            resp.encode(seq, &mut frame);
            let (got_seq, got) = Response::decode(payload(&frame)).unwrap();
            assert_eq!(got_seq, seq);
            assert_eq!(got, resp);
        }
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// Every frame of [`requests`] and [`responses`], encoded with seq
    /// `0x04030201 + i`: the dialect's bytes, pinned so an encoder
    /// rewrite cannot change what goes on the wire.
    const GOLDEN_REQUESTS: [&str; 12] = [
        "06000000020101020304",
        "0a00000002020202030401000000",
        "0a00000002020302030400000100",
        "06000000020304020304",
        "06000000020405020304",
        "06000000020506020304",
        "26000000020707020304ffffffffffffffff0200000004000000000000003d0000000000000003000000",
        "1600000002070802030400000000000000000100000000000000",
        "06000000020809020304",
        "0c00000002090a020304000000000000",
        "1a00000002090b020304010000000e003132372e302e302e313a34303430",
        "0e000000020b0c0203040300000000400000",
    ];
    const GOLDEN_RESPONSES: [&str; 13] = [
        "0e0000000281010203040000000000000000",
        "0e000000028102020304ffffffffffffffff",
        "0a00000002820302030400000000",
        "2200000002820402030403000000070000000000000008000000000000000900000000000000",
        "06000000028305020304",
        "4e000000028406020304010000000000000002000000000000000300000000000000040000000000000005000000000000000600000000000000070000000000000008000000000000000900000000000000",
        "06000000028507020304",
        "0700000002860802030403",
        "0700000002860902030405",
        "2600000002870a020304010000000200000008000000040000000e003132372e302e302e313a39303030",
        "1800000002870b020304000000000000000000000000000000000000",
        "2700000002890c020304000000000000000000000000000000000000000000000000000000000000000000",
        "5f00000002890d02030405000000030f000000000000000200000000000000280000000000000002000000050000000a0000000000000014000000000000000300000000000000050000000f0000000000000023000000000000000100000000000000",
    ];

    #[test]
    fn every_frame_encodes_to_its_pinned_bytes() {
        // The `Frontier` frames' length prefixes (0x27, 0x5f) pin the
        // header: shard, flags, watermark, dropped, skipped, `n`.
        assert_eq!(FRONTIER_HEADER_LEN, 33);
        let seq = |i: usize| 0x0403_0201 + i as u32;
        assert_eq!(requests().len(), GOLDEN_REQUESTS.len());
        for (i, (req, want)) in requests().iter().zip(GOLDEN_REQUESTS).enumerate() {
            let mut frame = vec![0xAA];
            req.encode(seq(i), &mut frame);
            assert_eq!(hex(&frame[1..]), want, "{req:?}");
        }
        assert_eq!(responses().len(), GOLDEN_RESPONSES.len());
        for (i, (resp, want)) in responses().iter().zip(GOLDEN_RESPONSES).enumerate() {
            let mut frame = vec![0xAA];
            resp.encode(seq(i), &mut frame);
            assert_eq!(hex(&frame[1..]), want, "{resp:?}");
        }
    }

    #[test]
    fn truncated_payloads_are_rejected() {
        for req in requests() {
            let mut frame = Vec::new();
            req.encode(9, &mut frame);
            let p = payload(&frame).to_vec();
            // Every strict prefix of the payload fails to decode.
            for cut in 0..p.len() {
                assert!(Request::decode(&p[..cut]).is_err(), "{req:?} cut at {cut}");
            }
        }
        for resp in responses() {
            let mut frame = Vec::new();
            resp.encode(9, &mut frame);
            let p = payload(&frame).to_vec();
            for cut in 0..p.len() {
                assert!(Response::decode(&p[..cut]).is_err(), "{resp:?} cut at {cut}");
            }
        }
    }

    #[test]
    fn corrupt_headers_are_rejected() {
        let mut frame = Vec::new();
        Request::Next.encode(3, &mut frame);
        let mut p = payload(&frame).to_vec();
        p[0] = 99; // version
        assert_eq!(Request::decode(&p), Err(WireError::BadVersion(99)));
        p[0] = VERSION;
        // 0x7f was never assigned; 0x0A / 0x88 are the retired Trace pair.
        for opcode in [0x7f, 0x0A] {
            p[1] = opcode;
            assert_eq!(Request::decode(&p), Err(WireError::BadOpcode(opcode)));
        }
        p[1] = 0x88;
        assert_eq!(Response::decode(&p), Err(WireError::BadOpcode(0x88)));
        // A request opcode is not a response and vice versa.
        p[1] = 0x01;
        assert_eq!(Response::decode(&p), Err(WireError::BadOpcode(0x01)));
        let mut rframe = Vec::new();
        Response::Pong.encode(3, &mut rframe);
        assert_eq!(Request::decode(payload(&rframe)), Err(WireError::BadOpcode(0x83)));
    }

    #[test]
    fn only_the_current_version_decodes() {
        // Every frame a pre-cluster (version 1) peer would send or answer,
        // well formed in every other byte, is refused before its opcode is
        // read.
        let mut frames = Vec::new();
        for (seq, req) in requests().into_iter().enumerate() {
            let mut frame = Vec::new();
            req.encode(seq as u32, &mut frame);
            frames.push((true, frame));
        }
        for (seq, resp) in responses().into_iter().enumerate() {
            let mut frame = Vec::new();
            resp.encode(seq as u32, &mut frame);
            frames.push((false, frame));
        }
        for (is_request, mut frame) in frames {
            frame[4] = 1;
            let p = payload(&frame);
            let got = if is_request {
                Request::decode(p).map(|_| ())
            } else {
                Response::decode(p).map(|_| ())
            };
            assert_eq!(got, Err(WireError::BadVersion(1)), "{p:?}");
        }
    }

    #[test]
    fn the_retired_per_token_hop_is_an_unknown_opcode() {
        // 0x06 around the body it used to carry: token, port, node_seq.
        let mut frame = Vec::new();
        put_header(&mut frame, 0x06, 1, 16);
        frame.extend_from_slice(&[0; 16]);
        assert_eq!(Request::decode(payload(&frame)), Err(WireError::BadOpcode(0x06)));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut frame = Vec::new();
        Request::Ping.encode(1, &mut frame);
        let mut p = payload(&frame).to_vec();
        p.push(0);
        assert_eq!(Request::decode(&p), Err(WireError::TrailingBytes(0x03)));
        let mut rframe = Vec::new();
        Response::Value { value: 4 }.encode(1, &mut rframe);
        let mut rp = payload(&rframe).to_vec();
        rp.extend_from_slice(&[0, 0]);
        assert_eq!(Response::decode(&rp), Err(WireError::TrailingBytes(0x81)));
    }

    #[test]
    fn batch_length_must_match_count() {
        let mut frame = Vec::new();
        Response::Batch { values: vec![1, 2] }.encode(5, &mut frame);
        let mut p = payload(&frame).to_vec();
        // Claim 3 values while carrying 2.
        p[HEADER_LEN..HEADER_LEN + 4].copy_from_slice(&3u32.to_le_bytes());
        assert!(matches!(Response::decode(&p), Err(WireError::Truncated { opcode: 0x82, .. })));
    }

    /// A `ForwardBatch` payload (no length prefix) around a hand-built body.
    fn forward_batch_payload(body: &[u8]) -> Vec<u8> {
        let mut frame = Vec::new();
        put_header(&mut frame, 0x07, 7, body.len());
        frame.extend_from_slice(body);
        payload(&frame).to_vec()
    }

    #[test]
    fn forward_batch_width_must_match_the_counts_that_follow() {
        let body = |w: u32, counts: usize| {
            let mut body = Vec::new();
            body.extend_from_slice(&9u64.to_le_bytes()); // token
            body.extend_from_slice(&1u32.to_le_bytes()); // node_seq
            body.extend_from_slice(&w.to_le_bytes());
            body.resize(body.len() + 4 * counts, 1);
            forward_batch_payload(&body)
        };
        assert!(Request::decode(&body(4, 4)).is_ok());
        // `w` claims more than the body holds — by one, or by everything a
        // u32 can say (nothing is allocated from `w`) — or less.
        for (w, counts) in [(5, 4), (u32::MAX, 4), (u32::MAX, 0)] {
            assert!(
                matches!(
                    Request::decode(&body(w, counts)),
                    Err(WireError::Truncated { opcode: 0x07, .. })
                ),
                "w={w} over {counts} counts"
            );
        }
        for (w, counts) in [(3, 4), (0, 1)] {
            assert_eq!(Request::decode(&body(w, counts)), Err(WireError::TrailingBytes(0x07)));
        }
    }

    #[test]
    fn forward_batch_frames_in_the_per_wire_format_are_never_counted() {
        // A node built before the frame carried every wire's count sends
        // `token, port, node_seq, n`: its `node_seq` lands where `w` is
        // read now and its `n` is the only count. A mixed cluster must fail
        // closed. Every such frame is an error here, except a hop to node
        // 1, which parses as one count on a one-wire cut — and that the
        // receiver's fan check refuses (`server.rs` pins it against a live
        // tail: no network has a cut one wire wide).
        let old = |port: u32, node_seq: u32, n: u32| {
            let mut body = 9u64.to_le_bytes().to_vec();
            for word in [port, node_seq, n] {
                body.extend_from_slice(&word.to_le_bytes());
            }
            forward_batch_payload(&body)
        };
        assert_eq!(Request::decode(&old(3, 0, 64)), Err(WireError::TrailingBytes(0x07)));
        for node_seq in [2, 3, u32::MAX] {
            assert!(
                matches!(
                    Request::decode(&old(3, node_seq, 64)),
                    Err(WireError::Truncated { opcode: 0x07, .. })
                ),
                "node_seq={node_seq}"
            );
        }
        assert_eq!(
            Request::decode(&old(3, 1, 64)),
            Ok((7, Request::ForwardBatch { token: 9, node_seq: 3, counts: vec![64] }))
        );
    }

    #[test]
    fn frontier_frames_with_an_older_header_are_rejected() {
        // Older nodes send more words ahead of `n`: the five-word header
        // (49 bytes) also carried a partial verdict, a local
        // non-linearizable bound and a local SC count; the seven-word one
        // (65 bytes) two local-lateness words besides. A mixed cluster must
        // fail closed: such a frame is an error, whatever those words held
        // (the first of them lands where `n` is read now), never a
        // frontier read at wrong offsets. It cannot decode: the bytes after
        // the misread `n` are 16 or 32 off a multiple of `FRONTIER_OP_LEN`.
        for extra in [2, 4] {
            for (ops, misread_n) in [(0u32, 0u64), (2, 4), (3, 1), (1, u64::MAX), (2, 2)] {
                let mut body = Vec::new();
                body.extend_from_slice(&5u32.to_le_bytes()); // shard
                body.push(0b11); // finished, watermark present
                for word in [15, 2, 40, misread_n].into_iter().chain([1; 4]).take(3 + extra) {
                    body.extend_from_slice(&word.to_le_bytes());
                }
                body.extend_from_slice(&ops.to_le_bytes());
                body.resize(body.len() + FRONTIER_OP_LEN * ops as usize, 0);
                assert_eq!(body.len(), 33 + 8 * extra + FRONTIER_OP_LEN * ops as usize);
                let mut frame = Vec::new();
                put_header(&mut frame, 0x89, 7, body.len());
                frame.extend_from_slice(&body);
                let got = Response::decode(payload(&frame));
                assert!(got.is_err(), "{extra} extra words, ops={ops}: decoded as {got:?}");
            }
        }
    }

    #[test]
    fn bad_error_codes_are_rejected() {
        let mut frame = Vec::new();
        Response::Error(ErrorCode::Malformed).encode(2, &mut frame);
        let mut p = payload(&frame).to_vec();
        *p.last_mut().unwrap() = 250;
        assert_eq!(Response::decode(&p), Err(WireError::BadErrorCode(250)));
    }

    #[test]
    fn frame_reader_round_trips_and_bounds_lengths() {
        let mut bytes = Vec::new();
        Request::NextBatch { n: 3 }.encode(1, &mut bytes);
        Request::Shutdown.encode(2, &mut bytes);
        let mut cursor = io::Cursor::new(bytes);
        let mut dec = FrameDecoder::new();
        let p1 = read_frame(&mut cursor, &mut dec).unwrap().unwrap();
        assert_eq!(Request::decode(&p1).unwrap(), (1, Request::NextBatch { n: 3 }));
        let p2 = read_frame(&mut cursor, &mut dec).unwrap().unwrap();
        assert_eq!(Request::decode(&p2).unwrap(), (2, Request::Shutdown));
        assert!(read_frame(&mut cursor, &mut dec).unwrap().is_none()); // clean EOF

        // Oversized length word: rejected before any allocation attempt.
        let huge = ((MAX_FRAME + 1) as u32).to_le_bytes();
        let mut cursor = io::Cursor::new(huge.to_vec());
        assert_eq!(
            read_frame(&mut cursor, &mut FrameDecoder::new()).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
        // Undersized too (a length that cannot hold the header).
        let tiny = 2u32.to_le_bytes();
        let mut cursor = io::Cursor::new(tiny.to_vec());
        assert_eq!(
            read_frame(&mut cursor, &mut FrameDecoder::new()).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
        // A stream cut mid-payload is UnexpectedEof, not a clean close.
        let mut bytes = Vec::new();
        Request::Next.encode(7, &mut bytes);
        bytes.truncate(bytes.len() - 2);
        let mut cursor = io::Cursor::new(bytes);
        assert_eq!(
            read_frame(&mut cursor, &mut FrameDecoder::new()).unwrap_err().kind(),
            io::ErrorKind::UnexpectedEof
        );
    }

    #[test]
    fn frame_decoder_yields_each_frame_exactly_once_across_any_split() {
        // A stream of four frames of different shapes.
        let mut stream = Vec::new();
        Request::Next.encode(1, &mut stream);
        Request::NextBatch { n: 9 }.encode(2, &mut stream);
        Request::Stats.encode(3, &mut stream);
        Request::Shutdown.encode(4, &mut stream);
        let expect = [
            (1, Request::Next),
            (2, Request::NextBatch { n: 9 }),
            (3, Request::Stats),
            (4, Request::Shutdown),
        ];
        // Feed in every possible 2-way split, plus byte-by-byte.
        let mut splits: Vec<Vec<&[u8]>> =
            (0..=stream.len()).map(|cut| vec![&stream[..cut], &stream[cut..]]).collect();
        splits.push(stream.chunks(1).collect());
        for chunks in splits {
            let mut dec = FrameDecoder::new();
            let mut got = Vec::new();
            for chunk in chunks {
                dec.extend(chunk);
                while let Some(p) = dec.next_frame().unwrap() {
                    got.push(Request::decode(p).unwrap());
                }
            }
            assert_eq!(got, expect, "split delivery changed the frame stream");
            assert_eq!(dec.buffered(), 0, "stream must end at a frame boundary");
        }
    }

    #[test]
    fn frame_decoder_rejects_bad_length_words_and_stays_put() {
        for bad in [0u32, 1, (HEADER_LEN - 1) as u32, (MAX_FRAME + 1) as u32] {
            let mut dec = FrameDecoder::new();
            dec.extend(&bad.to_le_bytes());
            dec.extend(&[0; 8]);
            assert_eq!(dec.next_frame(), Err(WireError::BadLength(bad as usize)));
            // The error is sticky: no resync is attempted.
            assert_eq!(dec.next_frame(), Err(WireError::BadLength(bad as usize)));
        }
    }

    #[test]
    fn frame_decoder_reports_mid_frame_state() {
        let mut stream = Vec::new();
        Request::Ping.encode(8, &mut stream);
        let mut dec = FrameDecoder::new();
        dec.extend(&stream[..stream.len() - 1]);
        assert!(dec.next_frame().unwrap().is_none());
        assert!(dec.buffered() > 0, "mid-frame EOF must be detectable");
        dec.extend(&stream[stream.len() - 1..]);
        let p = dec.next_frame().unwrap().unwrap();
        assert_eq!(Request::decode(p).unwrap(), (8, Request::Ping));
        assert_eq!(dec.buffered(), 0);
    }

    #[test]
    fn frame_decoder_compacts_without_losing_data() {
        // Push enough consumed frames to cross the compaction threshold,
        // interleaved with partial-frame polls, and check nothing skews.
        let mut one = Vec::new();
        Request::NextBatch { n: 5 }.encode(0, &mut one);
        let mut dec = FrameDecoder::new();
        let rounds = 4096 / one.len() + 8;
        for i in 0..rounds {
            // Half the frame, poll (forces the partial-frame path), rest.
            let cut = one.len() / 2;
            dec.extend(&one[..cut]);
            assert!(dec.next_frame().unwrap().is_none());
            dec.extend(&one[cut..]);
            let p = dec.next_frame().unwrap().expect("complete frame");
            assert_eq!(Request::decode(p).unwrap(), (0, Request::NextBatch { n: 5 }), "round {i}");
        }
        assert_eq!(dec.buffered(), 0);
    }

    #[test]
    fn next_run_counts_only_whole_current_version_next_frames() {
        // Three Next frames whose seqs wrap, then a Ping.
        let mut stream = Vec::new();
        for seq in [u32::MAX - 1, u32::MAX, 0] {
            Request::Next.encode(seq, &mut stream);
        }
        Request::Ping.encode(1, &mut stream);
        assert_eq!(stream.len(), 4 * NEXT_FRAME_LEN);
        // Fed a byte at a time, the report only ever counts whole frames
        // and stops at the Ping however many bytes follow.
        let mut dec = FrameDecoder::new();
        for (i, byte) in stream.iter().enumerate() {
            dec.extend(std::slice::from_ref(byte));
            assert_eq!(dec.next_run(usize::MAX), ((i + 1) / NEXT_FRAME_LEN).min(3), "byte {i}");
        }
        assert_eq!(dec.next_run(2), 2, "the cap bounds the report");
        let seqs: Vec<u32> = dec.take_next_run(3).collect();
        assert_eq!(seqs, [u32::MAX - 1, u32::MAX, 0]);
        assert_eq!(dec.next_run(usize::MAX), 0);
        let p = dec.next_frame().unwrap().unwrap();
        assert_eq!(Request::decode(p).unwrap(), (1, Request::Ping));
        assert_eq!(dec.buffered(), 0);
    }

    #[test]
    fn next_run_leaves_every_other_shape_to_next_frame() {
        let mut next = Vec::new();
        Request::Next.encode(5, &mut next);
        // A v1-stamped Next, a Next-sized frame with another opcode, and a
        // length word that is not a Next's each end the run where they sit.
        let mut v1 = next.clone();
        v1[4] = 1;
        let mut stats = Vec::new();
        Request::Stats.encode(5, &mut stats);
        let mut batch = Vec::new();
        Request::NextBatch { n: 1 }.encode(5, &mut batch);
        let bad_length = 2u32.to_le_bytes().to_vec();
        for other in [v1, stats, batch, bad_length] {
            let mut dec = FrameDecoder::new();
            dec.extend(&next);
            dec.extend(&next);
            dec.extend(&other);
            dec.extend(&next);
            assert_eq!(dec.next_run(usize::MAX), 2, "{other:?}");
            assert_eq!(dec.take_next_run(2).collect::<Vec<_>>(), [5, 5]);
            assert_eq!(dec.next_run(usize::MAX), 0, "{other:?}");
        }
    }

    #[test]
    fn value_run_counts_only_whole_current_version_value_frames() {
        // Three Value frames whose seqs wrap, then a Pong.
        let sent = [(u32::MAX - 1, 0), (u32::MAX, u64::MAX), (0, 0x0102_0304_0506_0708)];
        let mut stream = Vec::new();
        for (seq, value) in sent {
            Response::Value { value }.encode(seq, &mut stream);
        }
        Response::Pong.encode(1, &mut stream);
        assert_eq!(stream.len(), 3 * VALUE_FRAME_LEN + 4 + HEADER_LEN);
        // Fed a byte at a time, the report only ever counts whole frames
        // and stops at the Pong however many bytes follow.
        let mut dec = FrameDecoder::new();
        for (i, byte) in stream.iter().enumerate() {
            dec.extend(std::slice::from_ref(byte));
            assert_eq!(dec.value_run(usize::MAX), ((i + 1) / VALUE_FRAME_LEN).min(3), "byte {i}");
        }
        assert_eq!(dec.value_run(2), 2, "the cap bounds the report");
        assert_eq!(dec.take_value_run(3).collect::<Vec<_>>(), sent);
        assert_eq!(dec.value_run(usize::MAX), 0);
        let p = dec.next_frame().unwrap().unwrap();
        assert_eq!(Response::decode(p).unwrap(), (1, Response::Pong));
        assert_eq!(dec.buffered(), 0);
    }

    #[test]
    fn value_run_leaves_every_other_shape_to_next_frame() {
        let mut value = Vec::new();
        Response::Value { value: 9 }.encode(5, &mut value);
        // A v1-stamped Value, a Value-sized frame with another opcode, a
        // Value with a trailing byte, other responses, and a length word
        // that is not a Value's each end the run where they sit.
        let mut v1 = value.clone();
        v1[4] = 1;
        let mut other_opcode = value.clone();
        other_opcode[5] = 0x82;
        let mut long = Vec::new();
        put_header(&mut long, 0x81, 5, 9);
        long.extend_from_slice(&[0; 9]);
        let [mut batch, mut pong, mut error] = [Vec::new(), Vec::new(), Vec::new()];
        Response::Batch { values: vec![9] }.encode(5, &mut batch);
        Response::Pong.encode(5, &mut pong);
        Response::Error(ErrorCode::ShuttingDown).encode(5, &mut error);
        let bad_length = ((MAX_FRAME + 1) as u32).to_le_bytes().to_vec();
        for other in [v1, other_opcode, long, batch, pong, error, bad_length] {
            let mut dec = FrameDecoder::new();
            dec.extend(&value);
            dec.extend(&value);
            dec.extend(&other);
            dec.extend(&value);
            assert_eq!(dec.value_run(usize::MAX), 2, "{other:?}");
            assert_eq!(dec.take_value_run(2).collect::<Vec<_>>(), [(5, 9), (5, 9)]);
            assert_eq!(dec.value_run(usize::MAX), 0, "{other:?}");
        }
    }

    /// Feeds `stream` to a decoder `chunk` bytes at a time and drains it
    /// after each chunk — with `value_run` runs of at most `cap` frames
    /// ahead of `next_frame` when `runs` is set, with `next_frame` alone
    /// otherwise — up to and including the first error.
    fn drain(
        stream: &[u8],
        chunk: usize,
        runs: Option<usize>,
    ) -> Vec<Result<(u32, Response), WireError>> {
        let mut dec = FrameDecoder::new();
        let mut got = Vec::new();
        for piece in stream.chunks(chunk) {
            dec.extend(piece);
            loop {
                let run = runs.map_or(0, |cap| dec.value_run(cap));
                if run > 0 {
                    let taken = dec.take_value_run(run);
                    got.extend(taken.map(|(seq, value)| Ok((seq, Response::Value { value }))));
                    continue;
                }
                match dec.next_frame() {
                    Ok(Some(p)) => got.push(Response::decode(p)),
                    Ok(None) => break,
                    Err(e) => got.push(Err(e)),
                }
                if got.last().is_some_and(Result::is_err) {
                    return got;
                }
            }
        }
        got
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]
        fn value_runs_drain_like_next_frame(
            frames in prop::collection::vec((0u8..6, 0u64..u64::MAX), 0..48),
            first in 0u32..u32::MAX,
            chunk in 1usize..48,
            cap in 1usize..8,
            v1_tail in proptest::bool::ANY,
        ) {
            let mut stream = Vec::new();
            for (i, &(kind, value)) in frames.iter().enumerate() {
                let seq = first.wrapping_add(i as u32);
                match kind {
                    0..=2 => Response::Value { value },
                    3 => Response::Batch { values: vec![value; (value % 3) as usize] },
                    4 => Response::Pong,
                    _ => Response::Error(ErrorCode::ShuttingDown),
                }
                .encode(seq, &mut stream);
            }
            if v1_tail {
                Response::Value { value: 1 }.encode_versioned(first, 1, &mut stream);
                Response::Value { value: 2 }.encode(first, &mut stream);
            }
            let plain = drain(&stream, chunk, None);
            prop_assert_eq!(plain.len(), frames.len() + usize::from(v1_tail));
            prop_assert_eq!(drain(&stream, chunk, Some(cap)), plain);
        }
    }

    /// A reader handing out `bytes` in seeded chunks of 1..=4096 bytes
    /// (shorter when the caller's buffer or the stream runs out first).
    struct Dribble<'a> {
        bytes: &'a [u8],
        rng: cnet_util::rng::StdRng,
    }

    impl io::Read for Dribble<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            use cnet_util::rng::Rng;
            let n = self.rng.random_range(1..4097usize).min(buf.len()).min(self.bytes.len());
            buf[..n].copy_from_slice(&self.bytes[..n]);
            self.bytes = &self.bytes[n..];
            Ok(n)
        }
    }

    #[test]
    fn read_from_yields_the_frames_extend_does() {
        use cnet_util::rng::{SeedableRng, StdRng};
        // Runs of Values between frames that span more than one read.
        let mut stream = Vec::new();
        for seq in 0..2000u32 {
            let resp = match seq % 500 {
                0 => Response::Batch { values: (0..600).collect() },
                1 => Response::Frontier { frontier: ShardFrontier::default() },
                2 => Response::Pong,
                _ => Response::Value { value: u64::from(seq) << 32 },
            };
            resp.encode(seq, &mut stream);
        }
        let mut whole = FrameDecoder::new();
        whole.extend(&stream);
        let mut expect = Vec::new();
        while let Some(p) = whole.next_frame().unwrap() {
            expect.push(p.to_vec());
        }
        assert_eq!(expect.len(), 2000);
        for seed in 0..32 {
            let mut reader = Dribble { bytes: &stream, rng: StdRng::seed_from_u64(seed) };
            let (mut dec, mut got) = (FrameDecoder::new(), Vec::new());
            loop {
                while let Some(p) = dec.next_frame().unwrap() {
                    got.push(p.to_vec());
                }
                if dec.read_from(&mut reader).unwrap() == 0 {
                    break;
                }
            }
            assert!(got == expect, "seed {seed}: read_from changed the frame stream");
            assert_eq!(dec.buffered(), 0, "seed {seed}");
            // The consumed prefix is reclaimed: one chunk, one frame in
            // flight and the compaction slack bound the buffer.
            assert!(dec.buf.capacity() <= 4 * READ_CHUNK + 8192, "seed {seed}");
        }
    }

    #[test]
    fn read_from_leaves_the_buffer_as_it_was_on_an_error() {
        struct Failing;
        impl io::Read for Failing {
            fn read(&mut self, _: &mut [u8]) -> io::Result<usize> {
                Err(io::ErrorKind::ConnectionReset.into())
            }
        }
        let mut frame = Vec::new();
        Response::Value { value: 3 }.encode(4, &mut frame);
        let mut dec = FrameDecoder::new();
        dec.extend(&frame[..7]);
        let err = dec.read_from(&mut Failing).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::ConnectionReset);
        assert_eq!(dec.buffered(), 7);
        assert_eq!(dec.read_from(&mut &frame[7..]).unwrap(), frame.len() - 7);
        assert_eq!(dec.value_run(usize::MAX), 1);
        assert_eq!(dec.take_value_run(1).collect::<Vec<_>>(), [(4, 3)]);
    }
}
