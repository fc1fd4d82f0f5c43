//! The replay ladder: the work of one increment driven through each
//! layer's public entry points in isolation, one rung per layer.
//!
//! What happens inside the server cannot be spanned from outside, so the
//! ladder prices the pieces instead: a bare traversal, a recorder stamp, a
//! frame through the wire codec in memory, a shard-epoch through the audit,
//! and on top the socket workloads themselves, run briefly in the shapes
//! that isolate one more cost (recorder on against off, two nodes against
//! one). What a workload's CPU per operation exceeds the sum of its rungs
//! by, that is sockets, syscalls, reactor dispatch and context switches, is
//! reported as `ladder.unattributed_share`, not hidden.
//!
//! Every rung runs on the first CPU; the two-thread rungs put their second
//! thread on the second CPU, as `mem_token` does. The ladder does not
//! depend on the workload being traced, so its figures can be compared
//! across the traced runs of different workloads.

use crate::load::Plan;
use crate::replay::{build_trace, Replay};
use crate::service::{run_service, Call, LiveAudit, ServiceSpec, CONNECTIONS, FAN};
use crate::spans::Tracer;
use crate::spec::Workload;
use crate::stats::median;
use crate::{sys, Ctx, Run};
use cnet_net::wire::{FrameDecoder, Request, Response, VERSION};
use cnet_runtime::{
    CompiledNetwork, FetchAddCounter, ProcessCounter, SharedNetworkCounter, TraceRecorder,
};
use cnet_topology::construct::bitonic;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Tokens in the ladder's own small trace.
const LADDER_TOKENS: usize = 1 << 15;

/// Calls between two looks at the clock in a spinning rung.
const CHUNK: u64 = 1024;

/// Frames encoded or decoded between two looks at the clock.
const FRAMES: u32 = 256;

/// The batch width of `cluster2_batch`.
const BATCH: usize = 64;

/// Named figures, one per ladder metric.
pub type Rungs = BTreeMap<&'static str, f64>;

/// Calls `f` in chunks for `span` and returns nanoseconds per call.
fn spin(span: Duration, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut calls = 0u64;
    while start.elapsed() < span {
        (0..CHUNK).for_each(|_| f());
        calls += CHUNK;
    }
    start.elapsed().as_nanos() as f64 / calls as f64
}

/// Two pinned threads each calling `f(thread)` for `span`. Returns the
/// nanoseconds one call takes its caller: wall time times threads over
/// total calls.
fn spin_two(ctx: &Ctx, span: Duration, f: impl Fn(usize) + Sync) -> Result<f64, String> {
    let cpus = [ctx.cpus.first, ctx.cpus.second];
    let go = Barrier::new(cpus.len());
    let per_call: Vec<Result<f64, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = cpus
            .iter()
            .enumerate()
            .map(|(p, &cpu)| {
                let (go, f) = (&go, &f);
                s.spawn(move || {
                    let pinned = sys::pin_current_thread(cpu)
                        .map_err(|e| format!("pinning a ladder thread to cpu {cpu}: {e}"));
                    go.wait();
                    pinned.map(|()| spin(span, || f(p)))
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("ladder thread panicked")).collect()
    });
    let per_call = per_call.into_iter().collect::<Result<Vec<f64>, String>>()?;
    Ok(per_call.iter().sum::<f64>() / per_call.len() as f64)
}

fn compiled_rungs(ctx: &Ctx, span: Duration, out: &mut Rungs) -> Result<(), String> {
    let mut builds = Vec::new();
    let mut net = bitonic(FAN).expect("power-of-two fan");
    for _ in 0..15 {
        let t = Instant::now();
        net = bitonic(FAN).expect("power-of-two fan");
        builds.push(t.elapsed().as_secs_f64() * 1e3);
    }
    out.insert("topology.build_ms", median(&builds));
    let compiles: Vec<f64> = (0..15)
        .map(|_| {
            let t = Instant::now();
            black_box(CompiledNetwork::compile(&net));
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    out.insert("compiled.compile_ms", median(&compiles));

    let counter = SharedNetworkCounter::new(&net);
    let one = spin(span, || {
        black_box(counter.next_for(0));
    });
    let two = spin_two(ctx, span, |p| {
        black_box(counter.next_for(p));
    })?;
    out.insert("compiled.traverse_ns_1t", one);
    out.insert("compiled.traverse_ns_2t", two);
    // Two threads' rate over twice one thread's: 1 is perfect scaling.
    out.insert("compiled.scaling_2t", one / two);
    let fetch_add = FetchAddCounter::new();
    out.insert(
        "baseline.fetch_add_ns_2t",
        spin_two(ctx, span, |p| {
            black_box(fetch_add.next_for(p));
        })?,
    );
    let batch = spin(span, || {
        black_box(counter.next_batch_for(0, BATCH));
    });
    out.insert("compiled.batch64_ns_per_op", batch / BATCH as f64);
    Ok(())
}

fn recorder_rungs(span: Duration, out: &mut Rungs) {
    const EVENTS: u64 = 1 << 15;
    let recorder = TraceRecorder::new(1, EVENTS as usize);
    let (mut record_ns, mut pull_ns, mut events) = (0u128, 0u128, 0u64);
    let start = Instant::now();
    while start.elapsed() < span {
        let t0 = Instant::now();
        for v in 0..EVENTS {
            recorder.record(0, v);
        }
        recorder.flush(0);
        let t1 = Instant::now();
        let pulled = recorder.pull_shard(0, |enter_ns, exit_ns, value| {
            black_box((enter_ns, exit_ns, value));
        });
        pull_ns += t1.elapsed().as_nanos();
        record_ns += t1.duration_since(t0).as_nanos();
        events += pulled as u64;
    }
    out.insert("recorder.record_ns", record_ns as f64 / events as f64);
    out.insert("recorder.pull_ns_per_event", pull_ns as f64 / events as f64);
}

/// The live audit's loop body over a recorder that another part of the
/// thread fills: sixty-four events per shard, the recorder's own batch, is
/// what one poll of the worker finds at the `tcp_token` rate.
fn audit_loop_rung(span: Duration, out: &mut Rungs) {
    let recorder = TraceRecorder::new(CONNECTIONS, 1 << 12);
    let mut audit = LiveAudit::new(&recorder);
    let mut off = Tracer::new(Instant::now(), 0, false);
    let (mut value, mut audit_ns, mut events) = (0u64, 0u128, 0u64);
    let start = Instant::now();
    while start.elapsed() < span {
        for _ in 0..cnet_runtime::recorder::BATCH {
            for shard in 0..CONNECTIONS {
                recorder.record(shard, value);
                value += 1;
            }
        }
        let t = Instant::now();
        events += audit.poll(&recorder, &mut off, false) as u64;
        audit_ns += t.elapsed().as_nanos();
    }
    out.insert("trace.audit_cpu_ns_per_op", audit_ns as f64 / events.max(1) as f64);
}

/// Encodes frames for `span`, one `frame` call per frame, into a buffer
/// cleared every [`FRAMES`] frames as a connection's outbox is after a
/// flush. Returns nanoseconds per frame.
fn encode_rung(span: Duration, frame: impl Fn(u32, &mut Vec<u8>)) -> f64 {
    let (mut buf, mut seq) = (Vec::new(), 0u32);
    let ns = spin(span, || {
        if seq % FRAMES == 0 {
            buf.clear();
        }
        frame(seq, &mut buf);
        seq = seq.wrapping_add(1);
    });
    black_box(&buf);
    ns
}

/// Decodes the [`FRAMES`] frames in `bytes` over and over for `span`, a
/// burst at a time as a reactor does: everything one read delivered goes
/// into the decoder, then frames come out until it runs dry. Returns
/// nanoseconds per frame.
fn decode_rung(
    span: Duration,
    bytes: &[u8],
    frame: impl Fn(&[u8]) -> Result<(), String>,
) -> Result<f64, String> {
    let mut decoder = FrameDecoder::new();
    let start = Instant::now();
    let mut frames = 0u64;
    while start.elapsed() < span {
        decoder.extend(bytes);
        while let Some(payload) = decoder.next_frame().map_err(|e| e.to_string())? {
            frame(payload)?;
            frames += 1;
        }
    }
    Ok(start.elapsed().as_nanos() as f64 / frames as f64)
}

fn wire_rungs(span: Duration, out: &mut Rungs) -> Result<(), String> {
    let frames_of = |frame: &dyn Fn(u32, &mut Vec<u8>)| {
        let mut bytes = Vec::new();
        (0..FRAMES).for_each(|seq| frame(seq, &mut bytes));
        bytes
    };
    let request = |p: &[u8]| {
        black_box(Request::decode_versioned(p).map_err(|e| format!("wire rung: {e}"))?);
        Ok(())
    };
    let response = |p: &[u8]| {
        black_box(Response::decode(p).map_err(|e| format!("wire rung: {e}"))?);
        Ok(())
    };
    let next = |seq, buf: &mut Vec<u8>| Request::Next.encode(seq, buf);
    let value = |seq, buf: &mut Vec<u8>| {
        Response::Value { value: u64::from(seq) }.encode_versioned(seq, VERSION, buf)
    };
    out.insert("wire.req_encode_ns", encode_rung(span, next));
    out.insert("wire.resp_encode_ns", encode_rung(span, value));
    out.insert("wire.req_decode_ns", decode_rung(span, &frames_of(&next), request)?);
    out.insert("wire.resp_decode_ns", decode_rung(span, &frames_of(&value), response)?);

    // One batch exchange is a request frame and a response frame carrying
    // `BATCH` values between them.
    let batch_req = Request::NextBatch { n: BATCH as u32 };
    let batch_resp = Response::Batch { values: (0..BATCH as u64).collect() };
    let exchange = |seq, buf: &mut Vec<u8>| {
        batch_req.encode(seq, buf);
        batch_resp.encode_versioned(seq, VERSION, buf);
    };
    out.insert("wire.batch64_encode_ns_per_op", encode_rung(span, exchange) / BATCH as f64);
    let per_frame = decode_rung(span, &frames_of(&exchange), |p| match p.get(1) {
        Some(0x02) => request(p),
        _ => response(p),
    })?;
    out.insert("wire.batch64_decode_ns_per_op", per_frame * 2.0 / BATCH as f64);

    out.insert(
        "wire.bytes_per_op",
        (frames_of(&next).len() + frames_of(&value).len()) as f64 / f64::from(FRAMES),
    );
    Ok(())
}

/// The median over `runs` of set-up stage `name`, in milliseconds.
fn stage_median(runs: &[Run], name: &str) -> f64 {
    let of = |r: &Run| r.stages.iter().find(|s| s.0 == name).map_or(0.0, |s| s.1);
    median(&runs.iter().map(of).collect::<Vec<_>>())
}

fn trace_rungs(ctx: &Ctx, span: Duration, out: &mut Rungs) -> Result<(), String> {
    let mut off = Tracer::new(Instant::now(), 0, false);
    let mut builds: Vec<Run> = Vec::new();
    let mut trace = None;
    for _ in 0..3 {
        let mut run = Run::default();
        trace = Some(build_trace(&mut run, &mut off, ctx.seed, LADDER_TOKENS)?);
        builds.push(run);
    }
    out.insert("sim.generate_ms", stage_median(&builds, "sim.generate"));
    out.insert("sim.run_ms", stage_median(&builds, "sim.run"));

    let trace = trace.expect("built three times");
    let mut replay = Replay::new(&trace);
    let start = Instant::now();
    while start.elapsed() < span || replay.rounds == 0 {
        replay.step(&mut off);
    }
    out.insert("trace.observe_ns_per_event", replay.observe_ns as f64 / replay.events as f64);
    out.insert("trace.merge_ns_per_event", replay.ingest_ns as f64 / replay.events as f64);
    out.insert("trace.final_merge_ms", replay.final_ns as f64 / replay.rounds as f64 / 1e6);
    Ok(())
}

fn socket_rungs(ctx: &Ctx, span: Duration, out: &mut Rungs) -> Result<(), String> {
    let rung = Ctx { plan: Plan::rung(span), ..*ctx };
    let run =
        |call, nodes, sample_k| run_service(&ServiceSpec { call, nodes, sample_k }, &rung, false);
    let rate =
        |r: &Run| r.region.ops as f64 / r.driven[0].windows.iter().map(|w| w.secs).sum::<f64>();
    let failed =
        |r: &Run| r.checks.iter().find(|c| !c.ok).map(|c| format!("{}: {}", c.name, c.detail));

    // Recorder off against on, interleaved so drift hits both sides alike.
    let mut singles: Vec<Run> = Vec::new();
    let mut ratios = Vec::new();
    for _ in 0..2 {
        let plain = run(Call::Pipelined(256), 1, None)?;
        let sampled = run(Call::Pipelined(256), 1, Some(8))?;
        ratios.push(rate(&sampled) / rate(&plain));
        singles.extend([plain, sampled]);
    }
    out.insert("recorder.retention", median(&ratios));

    let one = run(Call::Batch(BATCH), 1, None)?;
    let two = run(Call::Batch(BATCH), 2, None)?;
    let cpu_per_op = |r: &Run| r.region.per_op(r.region.process_cpu_ns);
    out.insert("router.hop_cpu_ns_per_op", cpu_per_op(&two) - cpu_per_op(&one));
    out.insert("router.head_cpu_ns_per_op", two.region.per_op(two.region.head_cpu_ns));
    out.insert("router.tail_cpu_ns_per_op", two.region.per_op(two.region.tail_cpu_ns));
    out.insert(
        "router.forward_frames_per_batch",
        two.region.tail.requests as f64 / two.region.head.batches.max(1) as f64,
    );
    singles.push(one);

    // One server start and one dial each: the single-node runs only.
    out.insert("server.start_ms", stage_median(&singles, "server.start"));
    out.insert("client.dial_ms", stage_median(&singles, "client.dial"));
    singles.push(two);
    match singles.iter().find_map(failed) {
        Some(failure) => Err(format!("a ladder socket rung failed its check {failure}")),
        None => Ok(()),
    }
}

/// Climbs the whole ladder in about `budget`.
///
/// # Errors
///
/// Pinning failures, set-up failures of a socket rung, or a socket rung
/// that failed its own correctness checks.
pub fn climb(ctx: &Ctx, budget: Duration) -> Result<Rungs, String> {
    let mut out = Rungs::new();
    // A third of the budget for the thirteen spinning rungs, two thirds for
    // the six socket runs with their warm-ups and set-ups.
    let (micro, socket) = (budget / 40, budget / 10);
    compiled_rungs(ctx, micro, &mut out)?;
    recorder_rungs(micro, &mut out);
    audit_loop_rung(micro, &mut out);
    wire_rungs(micro, &mut out)?;
    trace_rungs(ctx, micro * 2, &mut out)?;
    socket_rungs(ctx, socket, &mut out)?;
    Ok(out)
}

/// The CPU nanoseconds per operation the ladder accounts for on
/// `workload`: the sum of the rungs its request path climbs.
pub fn attributed_ns_per_op(workload: Workload, rungs: &Rungs) -> f64 {
    let sum = |names: &[&str]| names.iter().map(|n| rungs.get(n).copied().unwrap_or(0.0)).sum();
    let codec =
        ["wire.req_encode_ns", "wire.req_decode_ns", "wire.resp_encode_ns", "wire.resp_decode_ns"];
    let audited = ["compiled.traverse_ns_1t", "recorder.record_ns", "trace.audit_cpu_ns_per_op"];
    let batch_codec = ["wire.batch64_encode_ns_per_op", "wire.batch64_decode_ns_per_op"];
    match workload {
        Workload::MemToken => sum(&["compiled.traverse_ns_2t"]),
        Workload::TcpToken => sum(&codec) + sum(&audited),
        Workload::TcpPipeline => sum(&codec) + sum(&["compiled.traverse_ns_1t"]),
        // Every value crosses the codec twice: tail to head, head to client.
        Workload::Cluster2Batch => sum(&["compiled.batch64_ns_per_op"]) + 2.0 * sum(&batch_codec),
        Workload::AuditReplay => sum(&["trace.observe_ns_per_event", "trace.merge_ns_per_event"]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_and_recorder_rungs_produce_positive_figures() {
        let mut out = Rungs::new();
        let span = Duration::from_millis(5);
        wire_rungs(span, &mut out).unwrap();
        recorder_rungs(span, &mut out);
        audit_loop_rung(span, &mut out);
        assert_eq!(out["wire.bytes_per_op"], 28.0);
        for (name, value) in &out {
            assert!(value.is_finite() && *value > 0.0, "{name} = {value}");
        }
        assert_eq!(out.len(), 10);
    }
}
