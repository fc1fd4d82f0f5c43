//! `audit_replay`: a simulated, seeded, paper-shaped trace fed through the
//! sharded audit (`ShardMonitor` per shard, epoch frontiers into a
//! `MergeAuditor`), round after round until the time is up.
//!
//! `core::trace` does all the work, on input the program only receives:
//! the benchmark generates the trace from the seed during set-up and the
//! audit sees nothing but per-shard event streams.

use crate::check::Check;
use crate::load::drive;
use crate::region::{Edge, Probes, Region};
use crate::service::{AuditSummary, FAN};
use crate::spans::{set_role, Role, Tracer};
use crate::{stage, Ctx, Run};
use cnet_core::trace::{
    secs_to_ns, EventMerger, MergeAuditor, RawOp, ShardMonitor, StreamingAuditor,
};
use cnet_sim::spec::TimedTokenSpec;
use cnet_sim::workload::{generate, WorkloadConfig};
use cnet_topology::construct::bitonic;
use cnet_util::rng::{mix_seed, Rng, SeedableRng, StdRng};
use std::time::Instant;

/// Simulated processes, one audit shard each.
pub const SHARDS: usize = 8;

/// Tokens in the workload's trace. The simulator keeps every step of every
/// token, about 700 bytes a token at its peak, and set-up is repeated
/// several times a run to report its median; a quarter of a million tokens
/// keeps both affordable while a round still takes a tenth of a second.
pub const TOKENS: usize = 1 << 18;

/// Events a shard's monitor observes before handing its frontier to the
/// merged auditor. One such shard-epoch is one burst.
pub const EPOCH: usize = 1024;

/// Events per shard in the prefix the sequential oracle re-audits.
const ORACLE_PREFIX: usize = 100_000 / SHARDS;

/// The timing envelope. Wire delays within a factor of two never reorder
/// anything on `bitonic(8)`, so on top of the envelope one token in fifty
/// stalls on a random wire for sixty times the shortest wire delay, the
/// shape of a preempted thread. That yields a non-linearizable fraction of
/// two to three percent on every seed tried, inside the one-half to five
/// percent this workload is meant to audit; the run checks that it is.
const ENVELOPE: WorkloadConfig = WorkloadConfig {
    processes: SHARDS,
    tokens_per_process: 0,
    c_min: 1.0,
    c_max: 2.0,
    local_delay: 0.1,
    start_spread: 1.0,
};
const STALL_ODDS: f64 = 0.02;
const STALL: f64 = 60.0;
const F_NL_RANGE: std::ops::RangeInclusive<f64> = 0.005..=0.05;

/// One simulator time unit in trace nanoseconds.
const UNIT_SECS: f64 = 1e-6;

/// Per-shard event streams, each in enter order.
#[derive(Clone, Debug)]
pub struct Trace {
    /// `shards[p]` holds process `p`'s operations.
    pub shards: Vec<Vec<RawOp>>,
}

impl Trace {
    /// The first `per_shard` events of every shard.
    fn prefix(&self, per_shard: usize) -> Trace {
        Trace { shards: self.shards.iter().map(|s| s[..per_shard.min(s.len())].to_vec()).collect() }
    }
}

/// Generates, stretches, simulates and converts a trace of `tokens` tokens,
/// as the set-up stages `topology.build`, `sim.generate`, `sim.run` and
/// `trace.convert` of `run`.
///
/// # Errors
///
/// A schedule the simulator rejects (none is expected from the generator).
pub fn build_trace(
    run: &mut Run,
    tracer: &mut Tracer,
    seed: u64,
    tokens: usize,
) -> Result<Trace, String> {
    let net = stage(run, tracer, "topology.build", || bitonic(FAN))
        .map_err(|e| format!("bitonic({FAN}): {e}"))?;
    let per_process = tokens / SHARDS;
    let specs = stage(run, tracer, "sim.generate", || {
        let cfg = WorkloadConfig { tokens_per_process: per_process, ..ENVELOPE };
        let mut specs = generate(&net, &cfg, seed);
        let mut rng = StdRng::seed_from_u64(mix_seed(seed, 1));
        // `generate` lays a process's tokens out back to back; a stalled
        // token exits later, so every later token of its process shifts by
        // the same amount and the process still never overlaps itself.
        for process in specs.chunks_mut(per_process) {
            let mut shift = 0.0;
            for spec in process {
                let mut delays: Vec<f64> =
                    spec.step_times.windows(2).map(|w| w[1] - w[0]).collect();
                if rng.random_range(0.0..1.0) < STALL_ODDS {
                    let wire = rng.random_range(0..delays.len());
                    delays[wire] += STALL;
                }
                let unshifted_exit = spec.exit_time();
                *spec = TimedTokenSpec::with_delays(
                    spec.process,
                    spec.input,
                    spec.enter_time() + shift,
                    &delays,
                );
                shift = spec.exit_time() - unshifted_exit;
            }
        }
        specs
    });
    let exec = stage(run, tracer, "sim.run", || cnet_sim::engine::run(&net, &specs))
        .map_err(|e| format!("simulating the schedule: {e}"))?;
    Ok(stage(run, tracer, "trace.convert", || {
        let mut shards: Vec<Vec<RawOp>> =
            (0..SHARDS).map(|_| Vec::with_capacity(per_process)).collect();
        // Records come in token order, which is enter order per process.
        for r in exec.records() {
            shards[r.process.index()].push(RawOp {
                process: r.process.index(),
                enter_ns: secs_to_ns(r.enter_time * UNIT_SECS),
                exit_ns: secs_to_ns(r.exit_time * UNIT_SECS),
                value: r.value,
            });
        }
        Trace { shards }
    }))
}

/// The replay state machine: each [`step`](Replay::step) feeds one shard
/// one epoch; when the trace is exhausted the round's verdict is read and a
/// fresh set of monitors starts over.
pub struct Replay<'a> {
    trace: &'a Trace,
    mons: Vec<ShardMonitor>,
    merged: MergeAuditor,
    at: usize,
    shard: usize,
    peak: usize,
    /// Completed rounds.
    pub rounds: u64,
    /// The first completed round's verdict.
    pub first: Option<AuditSummary>,
    /// Later rounds whose verdict differed from the first's.
    pub mismatches: u64,
    /// Events observed.
    pub events: u64,
    /// Time inside `ShardMonitor::observe`.
    pub observe_ns: u64,
    /// Time inside `take_frontier` + `MergeAuditor::ingest`.
    pub ingest_ns: u64,
    /// Time inside the rounds' final `merge` + `summary`.
    pub final_ns: u64,
}

fn verdict(a: &AuditSummary) -> (u64, u64, u64) {
    (a.non_lin, a.non_sc, a.qqc_max)
}

impl<'a> Replay<'a> {
    /// A replay at the start of its first round.
    pub fn new(trace: &'a Trace) -> Replay<'a> {
        Replay {
            trace,
            mons: (0..trace.shards.len()).map(ShardMonitor::new).collect(),
            merged: MergeAuditor::new(trace.shards.len()),
            at: 0,
            shard: 0,
            peak: 0,
            rounds: 0,
            first: None,
            mismatches: 0,
            events: 0,
            observe_ns: 0,
            ingest_ns: 0,
            final_ns: 0,
        }
    }

    /// Feeds the next shard-epoch and returns how many events it held. The
    /// three clock reads per thousand events are always on; they are what
    /// the per-stage figures and, in a traced window, the spans come from.
    pub fn step(&mut self, tracer: &mut Tracer) -> u64 {
        let ops = &self.trace.shards[self.shard];
        let end = (self.at + EPOCH).min(ops.len());
        let mon = &mut self.mons[self.shard];
        let t0 = Instant::now();
        ops[self.at..end].iter().for_each(|&op| mon.observe(op));
        let t1 = Instant::now();
        self.merged.ingest(mon.take_frontier(end == ops.len()));
        let t2 = Instant::now();
        tracer.child_at("trace.observe", t0, t1);
        tracer.child_at("trace.ingest", t1, t2);
        self.observe_ns += t1.duration_since(t0).as_nanos() as u64;
        self.ingest_ns += t2.duration_since(t1).as_nanos() as u64;
        self.peak = self.peak.max(self.merged.buffered());
        let n = (end - self.at) as u64;
        self.events += n;

        self.shard += 1;
        if self.shard == self.trace.shards.len() {
            self.shard = 0;
            self.at = end;
            if self.trace.shards.iter().all(|s| s.len() <= end) {
                self.finish_round(tracer);
            }
        }
        n
    }

    fn finish_round(&mut self, tracer: &mut Tracer) {
        let t0 = Instant::now();
        self.merged.merge();
        std::hint::black_box(self.merged.summary());
        let t1 = Instant::now();
        tracer.child_at("trace.final_merge", t0, t1);
        let spent = t1.duration_since(t0);
        self.final_ns += spent.as_nanos() as u64;
        let expected = self.trace.shards.iter().map(|s| s.len() as u64).sum();
        let summary =
            AuditSummary::of(&self.merged, expected, self.peak, spent.as_secs_f64() * 1e3);
        match &self.first {
            Some(first) if verdict(first) != verdict(&summary) => self.mismatches += 1,
            Some(_) => {}
            None => self.first = Some(summary),
        }
        self.rounds += 1;
        // The totals carry over; the audit state starts afresh.
        let fresh = Replay::new(self.trace);
        (self.mons, self.merged) = (fresh.mons, fresh.merged);
        (self.at, self.shard, self.peak) = (0, 0, 0);
    }
}

/// Audits a prefix of the trace twice, through the sharded pipeline and
/// through the sequential `EventMerger` + `StreamingAuditor` reference, and
/// compares the verdict counts.
fn oracle_check(trace: &Trace) -> Check {
    let prefix = trace.prefix(ORACLE_PREFIX);
    let mut replay = Replay::new(&prefix);
    let mut off = Tracer::new(Instant::now(), 0, false);
    while replay.rounds == 0 {
        replay.step(&mut off);
    }
    let sharded = verdict(replay.first.as_ref().expect("one round completed"));

    let mut merger = EventMerger::new(prefix.shards.len());
    for (s, ops) in prefix.shards.iter().enumerate() {
        ops.iter().for_each(|&op| merger.push(s, op));
        merger.finish(s);
    }
    let mut auditor = StreamingAuditor::new();
    merger.drain_into(&mut auditor);
    let sequential = (
        auditor.non_linearizable() as u64,
        auditor.non_sequentially_consistent() as u64,
        auditor.qqc_max(),
    );
    Check::new(
        "sharded_audit_equals_sequential_oracle",
        sharded == sequential,
        format!("(non_lin, non_sc, qqc_max): sharded={sharded:?} sequential={sequential:?}"),
    )
}

/// Runs the workload (or, `dry`, only its set-up) on the calling thread,
/// which must already be pinned.
///
/// # Errors
///
/// Trace generation failures.
pub fn run_replay(ctx: &Ctx, dry: bool) -> Result<Run, String> {
    let setup = Instant::now();
    let mut run = Run::default();
    let mut tracer = ctx.tracer(1);
    let trace = build_trace(&mut run, &mut tracer, ctx.seed, TOKENS)?;
    run.setup_s = setup.elapsed().as_secs_f64();
    if dry {
        run.tracers.push(tracer);
        return Ok(run);
    }

    let mut replay = Replay::new(&trace);
    let mut edges = Vec::new();
    set_role(Role::Load);
    let edge = &mut || edges.push(Edge::take(&Probes::default()));
    let driven = drive(&ctx.plan, true, &mut tracer, edge, |tr| Ok(replay.step(tr)));
    set_role(Role::Bench);
    run.driven.push(driven);
    run.tracers.push(tracer);
    if let [start, end] = edges[..] {
        run.region = Region::between(&start, &end, &[&run.driven[0]]);
    }

    run.checks.push(Check::new(
        "every_round_gives_the_same_verdict",
        replay.rounds > 0 && replay.mismatches == 0,
        format!("rounds={} differing={}", replay.rounds, replay.mismatches),
    ));
    run.checks.push(oracle_check(&trace));
    if let Some(first) = replay.first.take() {
        run.checks.push(Check::new(
            "f_nl_in_stated_range",
            F_NL_RANGE.contains(&first.f_nl),
            format!("f_nl={:.4} range={F_NL_RANGE:?}", first.f_nl),
        ));
        run.audit = Some(first);
    }
    Ok(run)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_trace(seed: u64) -> Trace {
        let mut run = Run::default();
        let mut off = Tracer::new(Instant::now(), 0, false);
        build_trace(&mut run, &mut off, seed, 1 << 13).unwrap()
    }

    #[test]
    fn traces_repeat_per_seed_and_shards_are_enter_ordered() {
        let (a, b, c) = (small_trace(5), small_trace(5), small_trace(6));
        assert_eq!(a.shards, b.shards);
        assert_ne!(a.shards, c.shards);
        for shard in &a.shards {
            assert_eq!(shard.len(), (1 << 13) / SHARDS);
            assert!(shard.windows(2).all(|w| w[0].enter_ns <= w[1].enter_ns));
            assert!(
                shard.windows(2).all(|w| w[0].exit_ns < w[1].enter_ns),
                "a process overlaps itself"
            );
        }
    }

    #[test]
    fn rounds_agree_with_each_other_and_with_the_oracle() {
        let trace = small_trace(9);
        let mut replay = Replay::new(&trace);
        let mut off = Tracer::new(Instant::now(), 0, false);
        while replay.rounds < 3 {
            replay.step(&mut off);
        }
        assert_eq!(replay.mismatches, 0);
        assert_eq!(replay.events, 3 << 13);
        let first = replay.first.as_ref().unwrap();
        assert!(first.non_lin > 0, "the stalls must produce inconsistency");
        assert_eq!(first.operations, 1 << 13);
        assert!(oracle_check(&trace).ok);
    }
}
