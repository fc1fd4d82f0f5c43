//! # cnet-net — the counting service over plain `std::net`
//!
//! Turns any [`ProcessCounter`](cnet_runtime::ProcessCounter) backend into
//! a network service, hermetically: the whole stack — wire protocol,
//! server, client, load generator — is built on `std::net` TCP with zero
//! external dependencies, matching the workspace's in-tree-only policy.
//!
//! The paper's question (sequentially consistent versus linearizable
//! counting) is about counters shared *between processes*; this crate
//! makes the process boundary real. A counting network served over a
//! socket keeps its step-property guarantees per connection slot, and the
//! server can stream every increment into the PR 3 online monitors, so
//! `f_nl`/`f_nsc` can be measured across an actual transport rather than
//! simulated wire delays.
//!
//! | module | what it is |
//! |---|---|
//! | [`wire`] | length-prefixed binary frames: `Next`, `NextBatch`, `Ping`, `Stats`, `Shutdown`, plus the cluster opcodes (`ForwardBatch`, `NodeInfo`, `Announce`, `Frontier`); incremental [`wire::FrameDecoder`] |
//! | [`server`] | sharded epoll-reactor [`CounterServer`] (one reactor per core) with backpressure and graceful drain |
//! | [`router`] | the cluster fabric: [`router::ClusterNode`] — one node's partitioned layer range — and the [`router::RemoteNode`] peer link forwarding tokens downstream |
//! | [`client`] | pooling, pipelining [`RemoteCounter`] — itself a `ProcessCounter`, cluster-routing to the head |
//! | [`loadgen`] | multi-threaded load generator: M pooled connections driven by N workers, permutation checking, latency percentiles |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod loadgen;
pub mod router;
pub mod server;
pub mod wire;

pub use client::{ClientConfig, RemoteCounter};
pub use loadgen::{run_loadgen, LoadGenConfig, LoadGenMode, LoadGenReport};
pub use router::{ClusterError, ClusterNode, FrontierCollector, RemoteNode};
pub use server::{AuditTable, Backpressure, CounterServer, ServerConfig};
pub use wire::{Request, Response, StatsSnapshot};
