//! `mem_token`: two threads, each on its own CPU, looping
//! `next_for` on one `SharedNetworkCounter` over `bitonic(8)`. No recorder,
//! no sockets: `runtime::compiled` does all the work, and this is the
//! contention the paper's Section 1.1 is about.

use crate::check::{Check, ValueFold};
use crate::load::{drive, Driven};
use crate::region::{Edge, Probes, Region};
use crate::service::FAN;
use crate::spans::{set_role, Role, Tracer};
use crate::{stage, sys, Ctx, Run};
use cnet_runtime::{CompiledNetwork, ProcessCounter, SharedNetworkCounter};
use cnet_topology::construct::bitonic;
use cnet_topology::state::has_step_property;
use std::sync::Barrier;
use std::time::Instant;

/// Load threads, one per CPU.
pub const THREADS: usize = 2;

/// Increments per burst. One increment takes about a hundred nanoseconds,
/// too short to time alone, so a round-trip sample here is the time a
/// caller waits for this many ids in a row.
pub const BURST: u64 = 1024;

/// Runs the workload (or, `dry`, only its set-up).
///
/// # Errors
///
/// A load thread that could not be pinned.
pub fn run_mem(ctx: &Ctx, dry: bool) -> Result<Run, String> {
    let setup = Instant::now();
    let mut run = Run::default();
    let mut stages = ctx.tracer(THREADS as u64 + 1);
    let net = stage(&mut run, &mut stages, "topology.build", || bitonic(FAN))
        .map_err(|e| format!("bitonic({FAN}): {e}"))?;
    let engine =
        stage(&mut run, &mut stages, "compiled.compile", || CompiledNetwork::compile(&net));
    let counter = SharedNetworkCounter::from_compiled(engine);
    // Set-up is building the counter. Starting the caller's threads is not
    // the system's work, and moving a thread to the second CPU costs a wake
    // of an idle vCPU, which is the hypervisor's time and varies by half.
    run.setup_s = setup.elapsed().as_secs_f64();
    run.tracers.push(stages);
    if dry {
        return Ok(run);
    }

    let ready = Barrier::new(THREADS);
    let cpus = [ctx.cpus.first, ctx.cpus.second];
    type Worked = Result<(Driven, ValueFold, Vec<Edge>, Tracer), String>;
    let worked: Vec<Worked> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|p| {
                let (counter, ready, mut tracer) = (&counter, &ready, ctx.tracer(p as u64 + 1));
                s.spawn(move || {
                    set_role(Role::Load);
                    let pinned = sys::pin_current_thread(cpus[p])
                        .map_err(|e| format!("pinning load thread {p} to cpu {}: {e}", cpus[p]));
                    // Warm-up starts when every thread stands on its CPU.
                    ready.wait();
                    pinned?;
                    let (mut fold, mut edges) = (ValueFold::default(), Vec::new());
                    let edge = &mut || edges.push(Edge::take(&Probes::default()));
                    let driven = drive(&ctx.plan, p == 0, &mut tracer, edge, |tr| {
                        let called = tr.now();
                        for _ in 0..BURST {
                            fold.add(counter.next_for(p));
                        }
                        tr.child("compiled.next_for", called);
                        Ok(BURST)
                    });
                    Ok((driven, fold, edges, tracer))
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("load thread panicked")).collect()
    });

    let (mut fold, mut edges) = (ValueFold::default(), Vec::new());
    for w in worked {
        let (driven, thread_fold, thread_edges, tracer) = w?;
        run.driven.push(driven);
        fold.merge(&thread_fold);
        edges.extend(thread_edges);
        run.tracers.push(tracer);
    }
    if let [start, end] = edges[..] {
        run.region = Region::between(&start, &end, &run.driven.iter().collect::<Vec<_>>());
    }
    run.checks.push(Check::permutation(&fold));
    let counts = counter.output_counts();
    run.checks.push(Check::new(
        "step_property_at_quiescence",
        has_step_property(&counts),
        format!("output_counts={counts:?}"),
    ));
    Ok(run)
}
