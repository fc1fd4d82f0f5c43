//! End-to-end service tests: real sockets on an ephemeral loopback port,
//! concurrent client threads, pipelined bursts — checking the counting
//! guarantees (permutation of `0..n`, clean audits for linearizable
//! backends, *counted* violations for counting networks) survive the
//! transport.

use cnet_core::trace::StreamingAuditor;
use cnet_net::loadgen::{run_loadgen, LoadGenConfig, LoadGenMode};
use cnet_net::server::{Backpressure, CounterServer, ServerConfig};
use cnet_net::RemoteCounter;
use cnet_runtime::{
    drain_remaining, CombiningFunnel, DiffractingTree, FetchAddCounter, SharedNetworkCounter,
    TraceRecorder,
};
use cnet_topology::construct::bitonic;
use std::sync::Arc;

/// N client threads, each pushing pipelined bursts over its own
/// connection: the values received across the whole run must be exactly
/// the permutation `0..total` — the counting-service contract.
#[test]
fn concurrent_pipelined_clients_receive_a_permutation() {
    let threads = 4;
    let ops_per_thread = 2_500;
    let mut server = CounterServer::start(
        "127.0.0.1:0",
        Arc::new(FetchAddCounter::new()),
        ServerConfig { max_connections: threads, processes: threads, ..ServerConfig::default() },
    )
    .expect("bind ephemeral loopback port");
    let report = run_loadgen(
        server.local_addr(),
        &LoadGenConfig {
            threads,
            connections: 0,
            ops_per_thread,
            batch: 64,
            mode: LoadGenMode::Pipeline,
            collect_values: true,
            route: false,
        },
    )
    .expect("loadgen completes");
    assert_eq!(report.total_ops, (threads * ops_per_thread) as u64);
    assert_eq!(
        report.is_permutation(),
        Some(true),
        "values over the wire must be exactly 0..{}",
        report.total_ops
    );
    server.shutdown();
    let stats = server.stats();
    assert_eq!(stats.ops, report.total_ops);
    assert_eq!(stats.total_connections, threads as u64);
    assert_eq!(stats.rejected_connections, 0);
}

/// With the PR 3 recorder attached, a linearizable backend served over
/// TCP audits clean: every increment recorded, zero violations.
#[test]
fn fetch_add_service_audits_clean_across_the_socket() {
    let threads = 4;
    let ops_per_thread = 500;
    let total = threads * ops_per_thread;
    let recorder = Arc::new(TraceRecorder::new(threads, 2 * total));
    let mut server = CounterServer::with_recorder(
        "127.0.0.1:0",
        Arc::new(FetchAddCounter::new()),
        Arc::clone(&recorder),
        ServerConfig { max_connections: threads, processes: threads, ..ServerConfig::default() },
    )
    .expect("bind ephemeral loopback port");
    let report = run_loadgen(
        server.local_addr(),
        &LoadGenConfig {
            threads,
            connections: 0,
            ops_per_thread,
            batch: 16,
            mode: LoadGenMode::Pipeline,
            collect_values: true,
            route: false,
        },
    )
    .expect("loadgen completes");
    assert_eq!(report.is_permutation(), Some(true));
    server.shutdown(); // joins handlers, which flush their recorder shards
    let mut auditor = StreamingAuditor::new();
    drain_remaining(&recorder, &mut auditor);
    assert_eq!(auditor.operations(), total);
    assert!(auditor.is_clean(), "fetch_add must audit clean: {}", auditor.summary());
}

/// A counting network served over TCP keeps the permutation property, and
/// any consistency violations the concurrency produces are *counted* by
/// the online monitors — never a crash, never a refused response.
#[test]
fn counting_network_violations_are_counted_not_fatal() {
    let fan = 4;
    let threads = 4;
    let ops_per_thread = 500;
    let total = threads * ops_per_thread;
    let recorder = Arc::new(TraceRecorder::new(threads, 2 * total));
    let net = bitonic(fan).expect("power-of-two fan");
    let mut server = CounterServer::with_recorder(
        "127.0.0.1:0",
        Arc::new(SharedNetworkCounter::new(&net)),
        Arc::clone(&recorder),
        ServerConfig { max_connections: threads, processes: fan, ..ServerConfig::default() },
    )
    .expect("bind ephemeral loopback port");
    let report = run_loadgen(
        server.local_addr(),
        &LoadGenConfig {
            threads,
            connections: 0,
            ops_per_thread,
            batch: 8,
            mode: LoadGenMode::Pipeline,
            collect_values: true,
            route: false,
        },
    )
    .expect("loadgen completes against a counting network");
    assert_eq!(report.is_permutation(), Some(true), "the step property must survive the transport");
    server.shutdown();
    let mut auditor = StreamingAuditor::new();
    drain_remaining(&recorder, &mut auditor);
    assert_eq!(auditor.operations(), total);
    // The monitors report fractions, they do not veto: whatever the
    // interleaving produced is a number in [0, 1], not a panic.
    let f_nl = auditor.f_nl();
    let f_nsc = auditor.f_nsc();
    assert!((0.0..=1.0).contains(&f_nl), "F_nl out of range: {f_nl}");
    assert!((0.0..=1.0).contains(&f_nsc), "F_nsc out of range: {f_nsc}");
    assert_eq!(auditor.non_linearizable() == 0, auditor.is_linearizable());
}

/// Batch mode end-to-end: each burst is one `NextBatch` frame, the server
/// claims it through the backend's batched traversal (one atomic per
/// balancer per batch) and records one widened recorder interval per
/// batch — and the run still yields an exact permutation of `0..n` with a
/// clean audit.
#[test]
fn batched_loadgen_yields_a_permutation_with_a_clean_audit() {
    let threads = 4;
    let ops_per_thread = 1_000;
    let total = threads * ops_per_thread;
    let recorder = Arc::new(TraceRecorder::new(threads, 2 * total));
    let mut server = CounterServer::with_recorder(
        "127.0.0.1:0",
        Arc::new(FetchAddCounter::new()),
        Arc::clone(&recorder),
        ServerConfig { max_connections: threads, processes: threads, ..ServerConfig::default() },
    )
    .expect("bind ephemeral loopback port");
    let report = run_loadgen(
        server.local_addr(),
        &LoadGenConfig {
            threads,
            connections: 0,
            ops_per_thread,
            batch: 64,
            mode: LoadGenMode::Batch,
            collect_values: true,
            route: false,
        },
    )
    .expect("batched loadgen completes");
    assert_eq!(
        report.is_permutation(),
        Some(true),
        "batched values over the wire must be exactly 0..{}",
        report.total_ops
    );
    server.shutdown();
    let stats = server.stats();
    assert_eq!(stats.ops, total as u64);
    // Every burst was a single NextBatch frame: 1000/64 → 16 per worker.
    assert_eq!(stats.batches, (threads * ops_per_thread.div_ceil(64)) as u64);
    let mut auditor = StreamingAuditor::new();
    drain_remaining(&recorder, &mut auditor);
    assert_eq!(auditor.operations(), total, "one widened interval records the whole batch");
    assert!(auditor.is_clean(), "batched fetch_add must audit clean: {}", auditor.summary());
}

/// At the connection limit with the reject policy, surplus clients get a
/// clean `Busy` refusal surfaced as an error — not a hang, not a panic.
#[test]
fn busy_rejection_surfaces_as_a_client_error() {
    let server = CounterServer::start(
        "127.0.0.1:0",
        Arc::new(FetchAddCounter::new()),
        ServerConfig {
            max_connections: 1,
            backpressure: Backpressure::Reject,
            processes: 1,
            reactors: 1,
        },
    )
    .expect("bind ephemeral loopback port");
    let holder = RemoteCounter::connect(server.local_addr(), 1).expect("first connection");
    assert_eq!(holder.try_next(0).expect("slot holder is served"), 0);
    let surplus = RemoteCounter::connect(server.local_addr(), 1).expect("TCP accept still works");
    let err = surplus.try_next(0).expect_err("server at capacity must refuse");
    assert_eq!(err.kind(), std::io::ErrorKind::ConnectionRefused, "{err}");
}

/// The reactor's defining regime: 256 open connections of which only a
/// few are active at any instant (4 workers round-robin their bursts
/// across their shares). The run must still hand out an exact permutation
/// and audit clean through the slot-sharded recorder — the
/// slot = process = recorder-shard invariant survives connection counts
/// far beyond the thread count.
#[test]
fn many_mostly_idle_connections_keep_the_permutation_and_audit_clean() {
    let connections = 256;
    let threads = 4;
    let ops_per_thread = 2_048;
    let total = threads * ops_per_thread;
    let recorder = Arc::new(TraceRecorder::new(connections, 256));
    let mut server = CounterServer::with_recorder(
        "127.0.0.1:0",
        Arc::new(FetchAddCounter::new()),
        Arc::clone(&recorder),
        ServerConfig {
            max_connections: connections,
            processes: connections,
            ..ServerConfig::default()
        },
    )
    .expect("bind ephemeral loopback port");
    let report = run_loadgen(
        server.local_addr(),
        &LoadGenConfig {
            threads,
            connections,
            ops_per_thread,
            batch: 16,
            mode: LoadGenMode::Batch,
            collect_values: true,
            route: false,
        },
    )
    .expect("loadgen completes over 256 connections");
    assert_eq!(report.connections, connections);
    assert_eq!(report.is_permutation(), Some(true), "permutation across 256 connections");
    server.shutdown();
    let stats = server.stats();
    assert_eq!(stats.total_connections, connections as u64);
    assert_eq!(stats.ops, total as u64);
    assert!(stats.reactor_wakeups > 0, "the reactor actually polled");
    assert!(stats.reactor_events >= stats.reactor_wakeups / 64, "events were delivered");
    let mut auditor = StreamingAuditor::new();
    drain_remaining(&recorder, &mut auditor);
    assert_eq!(auditor.operations(), total, "every increment reached its slot's shard");
    assert!(auditor.is_clean(), "fetch_add over 256 conns must audit clean: {}", auditor.summary());
}

/// Graceful drain: a client pipelines eight `Next` frames and a
/// `Shutdown` in one write. The server must answer all eight in order
/// *before* the `Bye` — buffered in-flight frames are served, not
/// dropped, when shutdown arrives on the same connection.
#[test]
fn graceful_shutdown_answers_inflight_frames_before_bye() {
    use cnet_net::wire::{FrameDecoder, Request, Response};
    use std::io::{Read, Write};

    let mut server = CounterServer::start(
        "127.0.0.1:0",
        Arc::new(FetchAddCounter::new()),
        ServerConfig { max_connections: 1, processes: 1, ..ServerConfig::default() },
    )
    .expect("bind ephemeral loopback port");
    let mut stream = std::net::TcpStream::connect(server.local_addr()).expect("connect");
    let mut out = Vec::new();
    for seq in 0..8u32 {
        Request::Next.encode(seq, &mut out);
    }
    Request::Shutdown.encode(8, &mut out);
    stream.write_all(&out).expect("one write carrying nine frames");
    let mut decoder = FrameDecoder::new();
    let mut got: Vec<(u32, Response)> = Vec::new();
    let mut buf = [0u8; 4096];
    while !matches!(got.last(), Some((_, Response::Bye))) {
        let n = stream.read(&mut buf).expect("read responses");
        assert!(n > 0, "EOF before Bye: got {} responses", got.len());
        decoder.extend(&buf[..n]);
        loop {
            match decoder.next_frame() {
                Ok(Some(payload)) => {
                    got.push(Response::decode(payload).expect("well-formed response"));
                }
                Ok(None) => break,
                Err(e) => panic!("framing error mid-drain: {e:?}"),
            }
        }
    }
    assert_eq!(got.len(), 9, "eight values then Bye");
    for (i, (seq, resp)) in got[..8].iter().enumerate() {
        assert_eq!(*seq, i as u32);
        assert_eq!(*resp, Response::Value { value: i as u64 }, "in-flight frame {i} answered");
    }
    assert_eq!(got[8].0, 8);
    server.shutdown();
    assert_eq!(server.stats().ops, 8);
}

/// A diffracting tree across the socket: concurrent pipelined clients
/// against a [`DiffractingTree`]-backed server still receive exactly the
/// multiset `0..total` — prism pairings reorder values between clients
/// but never invent, drop, or duplicate one, and the transport preserves
/// that.
#[test]
fn diffracting_backend_over_tcp_hands_out_the_exact_multiset() {
    let threads = 4;
    let ops_per_thread = 2_500;
    let mut server = CounterServer::start(
        "127.0.0.1:0",
        Arc::new(DiffractingTree::new(8, 4).expect("8 is a tree width")),
        ServerConfig { max_connections: threads, processes: threads, ..ServerConfig::default() },
    )
    .expect("bind ephemeral loopback port");
    let report = run_loadgen(
        server.local_addr(),
        &LoadGenConfig {
            threads,
            connections: 0,
            ops_per_thread,
            batch: 64,
            mode: LoadGenMode::Pipeline,
            collect_values: true,
            route: false,
        },
    )
    .expect("loadgen completes");
    assert_eq!(report.total_ops, (threads * ops_per_thread) as u64);
    assert_eq!(
        report.is_permutation(),
        Some(true),
        "diffracting values over the wire must be exactly 0..{}",
        report.total_ops
    );
    server.shutdown();
    assert_eq!(server.stats().ops, report.total_ops);
}

/// A combining funnel across the socket: pipelined batches from
/// concurrent clients are combined in the funnel and split back out
/// through the compiled traversal, and the values received are still
/// exactly the multiset `0..total`.
#[test]
fn combining_backend_over_tcp_hands_out_the_exact_multiset() {
    let threads = 4;
    let ops_per_thread = 2_500;
    let net = bitonic(8).expect("8 is a bitonic width");
    let mut server = CounterServer::start(
        "127.0.0.1:0",
        Arc::new(CombiningFunnel::new(SharedNetworkCounter::new(&net), threads)),
        ServerConfig { max_connections: threads, processes: threads, ..ServerConfig::default() },
    )
    .expect("bind ephemeral loopback port");
    let report = run_loadgen(
        server.local_addr(),
        &LoadGenConfig {
            threads,
            connections: 0,
            ops_per_thread,
            batch: 64,
            mode: LoadGenMode::Pipeline,
            collect_values: true,
            route: false,
        },
    )
    .expect("loadgen completes");
    assert_eq!(report.total_ops, (threads * ops_per_thread) as u64);
    assert_eq!(
        report.is_permutation(),
        Some(true),
        "combining values over the wire must be exactly 0..{}",
        report.total_ops
    );
    server.shutdown();
    assert_eq!(server.stats().ops, report.total_ops);
}

/// `next_batch_for` edge cases across the socket: `k = 0` is free (no
/// frame on the wire — the server never even sees a request), `k = 1`
/// is exactly `next_for`, and `k = 65537` (one past the `MAX_BATCH`
/// chunk boundary) splits into two pipelined `NextBatch` frames while
/// still handing out a contiguous range.
#[test]
fn remote_batch_edges_zero_one_and_just_past_the_chunk_boundary() {
    use cnet_net::wire::MAX_BATCH;
    use cnet_runtime::ProcessCounter;

    let mut server = CounterServer::start(
        "127.0.0.1:0",
        Arc::new(FetchAddCounter::new()),
        ServerConfig { max_connections: 1, processes: 1, ..ServerConfig::default() },
    )
    .expect("bind ephemeral loopback port");
    let client = RemoteCounter::connect(server.local_addr(), 1).expect("connect");

    // k = 0: empty result, no request frame, no values consumed.
    assert!(client.next_batch_for(0, 0).is_empty());
    let stats = client.server_stats().expect("stats");
    assert_eq!(stats.ops, 0, "an empty batch must not consume values");
    assert_eq!(stats.batches, 0, "an empty batch must not reach the wire");

    // k = 1: indistinguishable from next_for — the next value in line.
    assert_eq!(client.next_batch_for(0, 1), vec![0]);
    assert_eq!(client.next_for(0), 1);

    // k = MAX_BATCH + 1: two chunks, one contiguous gap-free range.
    let k = MAX_BATCH as usize + 1;
    let values = client.next_batch_for(0, k);
    assert_eq!(values.len(), k);
    assert_eq!(values, (2..2 + k as u64).collect::<Vec<_>>());
    let stats = client.server_stats().expect("stats");
    assert_eq!(stats.ops, k as u64 + 2);
    assert_eq!(stats.batches, 3, "65537 values = full chunk + remainder (+ the k=1 batch)");

    drop(client);
    server.shutdown();
}

// ---------------------------------------------------------------------
// Wire-format fuzzing: decode is total on arbitrary bytes.
// ---------------------------------------------------------------------

mod wire_fuzz {
    use cnet_net::wire::{Request, Response, MAX_BATCH};
    use cnet_util::proptest::prelude::*;

    /// Arbitrary frame payloads (length prefix already stripped), from
    /// empty through a few header-and-bodies' worth of junk.
    fn arbitrary_payload() -> impl Strategy<Value = Vec<u8>> {
        prop::collection::vec(0u32..256, 0usize..72)
            .prop_map(|ws| ws.into_iter().map(|w| w as u8).collect())
    }

    /// Every well-formed frame this side of the protocol can produce,
    /// parameterized enough to cover all opcodes and length fields.
    fn any_frame(seq: u32, pick: u32, n: u32, values: &[u64]) -> Vec<u8> {
        let mut out = Vec::new();
        match pick % 8 {
            0 => Request::Next.encode(seq, &mut out),
            1 => Request::NextBatch { n }.encode(seq, &mut out),
            2 => Request::Stats.encode(seq, &mut out),
            3 => Request::Shutdown.encode(seq, &mut out),
            4 => Response::Value { value: u64::from(n) }.encode(seq, &mut out),
            5 => Response::Batch { values: values.to_vec() }.encode(seq, &mut out),
            6 => Response::Pong.encode(seq, &mut out),
            _ => Response::Bye.encode(seq, &mut out),
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// `decode` is total: random bytes yield `Ok` or a `WireError`,
        /// never a panic, for requests and responses alike.
        #[test]
        fn decode_never_panics_on_arbitrary_payloads(
            payload in arbitrary_payload(),
        ) {
            let _ = Request::decode(&payload);
            let _ = Response::decode(&payload);
        }

        /// Neither does corrupting a single byte of a valid frame, or
        /// truncating it anywhere — the two failure shapes a TCP stream
        /// actually produces.
        #[test]
        fn decode_never_panics_on_corrupted_valid_frames(
            seq in 0u32..u32::MAX,
            pick in 0u32..8,
            n in 0u32..(MAX_BATCH + 2),
            values in prop::collection::vec(0u64..u64::MAX, 0usize..4),
            idx in 0usize..256,
            byte in 0u32..256,
            cut in 0usize..256,
        ) {
            let frame = any_frame(seq, pick, n, &values);
            // The payload is the frame minus its 4-byte length prefix.
            let mut payload = frame[4..].to_vec();
            let _ = Request::decode(&payload);
            let _ = Response::decode(&payload);
            let i = idx % payload.len();
            payload[i] = byte as u8;
            let _ = Request::decode(&payload);
            let _ = Response::decode(&payload);
            let truncated = &payload[..cut % payload.len()];
            let _ = Request::decode(truncated);
            let _ = Response::decode(truncated);
        }

        /// And a clean frame round-trips exactly.
        #[test]
        fn request_frames_round_trip(seq in 0u32..u32::MAX, n in 1u32..MAX_BATCH) {
            let mut out = Vec::new();
            Request::NextBatch { n }.encode(seq, &mut out);
            let decoded = Request::decode(&out[4..]);
            prop_assert_eq!(decoded, Ok((seq, Request::NextBatch { n })));
        }
    }
}

// ---------------------------------------------------------------------
// Incremental-decoder fuzzing: the reactor's FrameDecoder is
// split-invariant and total.
// ---------------------------------------------------------------------

mod decoder_fuzz {
    use cnet_net::wire::{FrameDecoder, Request, Response, WireError, MAX_FRAME};
    use cnet_util::proptest::prelude::*;

    /// A stream of well-formed frames plus the `(seq, payload)` pairs a
    /// correct decoder must recover from it.
    fn frame_stream(seqs: &[u32], shapes: &[u32]) -> (Vec<u8>, Vec<Vec<u8>>) {
        let mut stream = Vec::new();
        let mut payloads = Vec::new();
        for (&seq, &shape) in seqs.iter().zip(shapes) {
            let mut frame = Vec::new();
            match shape % 5 {
                0 => Request::Next.encode(seq, &mut frame),
                1 => Request::NextBatch { n: shape }.encode(seq, &mut frame),
                2 => Response::Value { value: u64::from(shape) }.encode(seq, &mut frame),
                3 => Response::Batch { values: (0..u64::from(shape % 7)).collect() }
                    .encode(seq, &mut frame),
                _ => Request::Stats.encode(seq, &mut frame),
            }
            payloads.push(frame[4..].to_vec());
            stream.extend_from_slice(&frame);
        }
        (stream, payloads)
    }

    /// Drains every currently decodable frame into owned payloads.
    fn drain(decoder: &mut FrameDecoder, into: &mut Vec<Vec<u8>>) {
        while let Ok(Some(payload)) = decoder.next_frame() {
            into.push(payload.to_vec());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Splitting the byte stream at *every* position `1..len` — the
        /// arbitrary fragmentation TCP is allowed to produce — yields
        /// exactly the original frames, in order, never duplicated and
        /// never dropped, with the decoder resuming mid-frame exactly
        /// where the first fragment stopped.
        #[test]
        fn decoder_is_split_invariant_at_every_position(
            seqs in prop::collection::vec(0u32..u32::MAX, 1usize..5),
            shapes in prop::collection::vec(0u32..64, 1usize..5),
        ) {
            let n = seqs.len().min(shapes.len());
            let (stream, expected) = frame_stream(&seqs[..n], &shapes[..n]);
            for split in 1..stream.len() {
                let mut decoder = FrameDecoder::new();
                let mut got = Vec::new();
                decoder.extend(&stream[..split]);
                drain(&mut decoder, &mut got);
                decoder.extend(&stream[split..]);
                drain(&mut decoder, &mut got);
                prop_assert_eq!(&got, &expected, "split at {}", split);
                prop_assert_eq!(decoder.buffered(), 0, "split at {}", split);
            }
            // The degenerate fragmentation: one byte at a time.
            let mut decoder = FrameDecoder::new();
            let mut got = Vec::new();
            for b in &stream {
                decoder.extend(std::slice::from_ref(b));
                drain(&mut decoder, &mut got);
            }
            prop_assert_eq!(&got, &expected);
        }

        /// A corrupted length prefix is a sticky `BadLength` error —
        /// reported on every poll, never a panic, never a bogus frame —
        /// and frames decoded *before* the corruption still came out.
        #[test]
        fn corrupted_length_prefixes_error_stickily(
            seqs in prop::collection::vec(0u32..u32::MAX, 1usize..4),
            shapes in prop::collection::vec(0u32..64, 1usize..4),
            bad_pick in 0usize..5,
            junk in prop::collection::vec(0u32..256, 0usize..16),
        ) {
            let bad_len = [0u32, 1, 5, (MAX_FRAME as u32) + 1, u32::MAX][bad_pick];
            let n = seqs.len().min(shapes.len());
            let (mut stream, expected) = frame_stream(&seqs[..n], &shapes[..n]);
            // Append a frame whose length word is out of range, then junk.
            stream.extend_from_slice(&bad_len.to_le_bytes());
            stream.extend(junk.iter().map(|b| *b as u8));
            let mut decoder = FrameDecoder::new();
            decoder.extend(&stream);
            let mut got = Vec::new();
            drain(&mut decoder, &mut got);
            prop_assert_eq!(&got, &expected, "pre-corruption frames all decoded");
            prop_assert_eq!(
                decoder.next_frame(),
                Err(WireError::BadLength(bad_len as usize))
            );
            // Sticky: more bytes do not resynchronize a corrupt stream.
            decoder.extend(&[0u8; 8]);
            prop_assert_eq!(
                decoder.next_frame(),
                Err(WireError::BadLength(bad_len as usize))
            );
        }
    }
}
