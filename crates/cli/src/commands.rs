//! The `cnet` subcommands.

use crate::args::{parse_network, Options};
use crate::artifact::ScheduleArtifact;
use cnet_core::audit::audit;
use cnet_core::conditions::TimingCondition;
use cnet_core::op::Op;
use cnet_core::trace::{Coverage, MergeAuditor, ShardFrontier, StreamingAuditor};
use cnet_net::AuditTable;
use cnet_runtime::{drive_audited, Backend, ProcessCounter, TraceRecorder, Traced, Workload};
use cnet_sim::adversary::{holding_race, three_wave};
use cnet_sim::engine::run;
use cnet_sim::timing::TimingParams;
use cnet_sim::validate::validate;
use cnet_sim::workload::{generate, WorkloadConfig};
use cnet_topology::analysis::split::split_sequence;
use cnet_topology::analysis::{influence_radius, Valencies};
use cnet_topology::Network;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// The tool's usage text.
pub fn usage() -> String {
    format!(
        "usage: cnet <command> <family> <w> [--flag value ...]\n\
     \x20      cnet audit <w> [--flag value ...]\n\
     \n\
     commands:\n\
     \x20 info      structural report: depth, size, split structure, thresholds\n\
     \x20 dot       Graphviz DOT of the network to stdout\n\
     \x20 simulate  random timed schedule; flags: --processes --tokens --ratio\n\
     \x20           --local-delay --seed --save <file>\n\
     \x20 waves     Theorem 5.11 three-wave adversary; flags: --ell --ratio\n\
     \x20           --save <file>\n\
     \x20 race      holding race adversary; flags: --ratio --shared (0/1)\n\
     \x20           --save <file>\n\
     \x20 replay    re-run a saved schedule; flags: --from <file>\n\
     \x20 run       threaded shared-memory run; flags: --threads --ops\n\
     \x20 audit     threaded run through the trace recorder with live online\n\
     \x20           consistency monitors; flags: --backend\n\
     \x20           {audit_list}\n\
     \x20           --family --threads --ops\n\
     \x20           --addr HOST:PORT (backend remote audits a live serve;\n\
     \x20           backend cluster fetches and merges every node's trace\n\
     \x20           shards, --addr ADDR1,ADDR2,...); exits nonzero on a\n\
     \x20           violations verdict\n\
     \x20           and on an incomplete one (a served op it did not\n\
     \x20           see, other than by sampling)\n\
     \x20 serve     counting service on a TCP socket; blocks until a client\n\
     \x20           sends Shutdown; flags: --backend\n\
     \x20           {serve_list}\n\
     \x20           --family --addr 127.0.0.1:0 --max-conns\n\
     \x20           --processes --reactors N (0 = one per core) --backpressure\n\
     \x20           reject|block --audit 0/1 --port-file <file>\n\
     \x20           --cluster K/N --peers ADDR (serve layer range K of an N-node\n\
     \x20           partition, forwarding to the downstream peer)\n\
     \x20 loadgen   hammer a running serve; flags: --addr HOST:PORT --threads\n\
     \x20           --connections M (pooled, 0 = one per thread) --ops (total)\n\
     \x20           --batch --mode batch|pipeline --check 0/1 --shutdown 0/1\n\
     \x20           --cluster 0/1 (route to the head of a counting cluster)\n\
     \x20           (--ops 0 --shutdown 1 sends only the shutdown handshake —\n\
     \x20           the way to drain a relay/tail node that serves no clients)\n\
     \n\
     families: bitonic (b), periodic (p), tree (t), block (l), merger (m)\n",
        audit_list = backend_names(&["remote", "cluster"], "|"),
        serve_list = backend_names(&[], "|"),
    )
}

/// The registry's backend names followed by `extra`, joined by `sep`:
/// every usage and error list is generated, none hand-kept.
fn backend_names(extra: &[&str], sep: &str) -> String {
    let names: Vec<&str> =
        Backend::ALL.iter().map(|b| b.name()).chain(extra.iter().copied()).collect();
    names.join(sep)
}

/// Resolves a `--backend` name through the registry; the error lists the
/// registry's names plus the caller's CLI-level `extra` ones.
fn parse_backend(name: &str, extra: &[&str]) -> Result<Backend, String> {
    Backend::parse(name).ok_or_else(|| {
        format!("unknown backend '{name}' (expected one of: {})", backend_names(extra, ", "))
    })
}

/// Executes an argument vector, returning the rendered output.
///
/// # Errors
///
/// Returns a user-facing message for any malformed invocation or failed
/// construction.
pub fn dispatch(args: &[String]) -> Result<String, String> {
    let expected = || "expected: cnet <command> <family> <w> [flags]".to_string();
    let [command, rest @ ..] = args else { return Err(expected()) };
    // The name is checked before any argument is read as a network, so a
    // typo is reported as one. `audit`, `serve` and `loadgen` take no
    // family argument (`audit` and `serve` select one via `--family`).
    match command.as_str() {
        "audit" => return cmd_audit(rest),
        "serve" => return cmd_serve(rest),
        "loadgen" => return cmd_loadgen(rest),
        "info" | "dot" | "simulate" | "waves" | "race" | "replay" | "run" => {}
        other => return Err(format!("unknown command '{other}'")),
    }
    let [family, w, rest @ ..] = rest else { return Err(expected()) };
    let net = parse_network(family, w)?;
    let opts = Options::parse(rest)?;
    match command.as_str() {
        "info" => {
            opts.allow(&[])?;
            cmd_info(&net)
        }
        "dot" => {
            opts.allow(&[])?;
            Ok(cnet_topology::dot::to_dot(&net, "network"))
        }
        "simulate" => cmd_simulate(&net, family, w, &opts),
        "waves" => cmd_waves(&net, family, w, &opts),
        "race" => cmd_race(&net, family, w, &opts),
        "replay" => cmd_replay(&net, &opts),
        "run" => cmd_run(&net, &opts),
        _ => unreachable!("every network command is listed above"),
    }
}

/// Writes the schedule artifact when `--save` was given; returns the
/// message to prepend to the output.
fn maybe_save(
    opts: &Options,
    family: &str,
    w: &str,
    note: &str,
    specs: &[cnet_sim::TimedTokenSpec],
) -> Result<String, String> {
    let Some(path) = opts.get("save") else { return Ok(String::new()) };
    let artifact = ScheduleArtifact {
        family: family.to_string(),
        w: w.parse().map_err(|_| format!("'{w}' is not a valid width"))?,
        note: note.to_string(),
        specs: specs.to_vec(),
    };
    std::fs::write(path, artifact.to_json()?).map_err(|e| format!("write {path}: {e}"))?;
    Ok(format!("schedule saved to {path}\n"))
}

fn cmd_info(net: &Network) -> Result<String, String> {
    let mut out = String::new();
    let _ = writeln!(out, "{net}");
    let _ = writeln!(out, "  fan-in:       {}", net.fan_in());
    let _ = writeln!(out, "  fan-out:      {}", net.fan_out());
    let _ = writeln!(out, "  size:         {} balancers", net.size());
    let _ = writeln!(out, "  depth d(G):   {}", net.depth());
    let _ = writeln!(out, "  shallowness:  {}", net.shallowness());
    let _ = writeln!(out, "  uniform:      {}", net.is_uniform());
    let _ = writeln!(out, "  regular:      {}", net.is_regular());
    if let Ok(irad) = influence_radius(net) {
        let _ = writeln!(out, "  irad(G):      {irad}");
        let _ = writeln!(
            out,
            "  MPT97 necessary threshold (c_max/c_min): {:.3}",
            net.depth() as f64 / irad as f64 + 1.0
        );
    }
    let val = Valencies::compute(net);
    if let Ok(sd) = cnet_topology::analysis::split_depth(net, &val) {
        let _ = writeln!(out, "  split depth:  {sd}");
    }
    if let Ok(seq) = split_sequence(net) {
        let _ = writeln!(out, "  split number: {}", seq.split_number());
        let depths: Vec<String> =
            (0..seq.split_number()).map(|l| seq.stage_depth(l).to_string()).collect();
        let _ = writeln!(out, "  stage depths: {}", depths.join(", "));
        let _ = writeln!(
            out,
            "  continuously complete / uniformly splittable: {} / {}",
            seq.is_continuously_complete(),
            seq.is_continuously_uniformly_splittable()
        );
    }
    let _ =
        writeln!(out, "  Theorem 4.1 local-delay bound: C_L > {}·(c_max − 2·c_min)", net.depth());
    Ok(out)
}

fn cmd_simulate(net: &Network, family: &str, w: &str, opts: &Options) -> Result<String, String> {
    opts.allow(&["processes", "tokens", "ratio", "local-delay", "seed", "save"])?;
    let cfg = WorkloadConfig {
        processes: opts.usize_or("processes", net.fan_in().min(8))?,
        tokens_per_process: opts.usize_or("tokens", 5)?,
        c_min: 1.0,
        c_max: opts.f64_or("ratio", 2.0)?,
        local_delay: opts.f64_or("local-delay", 0.0)?,
        start_spread: 3.0,
    };
    if cfg.c_max < cfg.c_min {
        return Err("--ratio must be at least 1".to_string());
    }
    let specs = generate(net, &cfg, opts.u64_or("seed", 0)?);
    let mut out = maybe_save(opts, family, w, "random workload schedule", &specs)?;
    let exec = run(net, &specs).map_err(|e| e.to_string())?;
    validate(net, &exec).map_err(|e| format!("execution failed validation: {e}"))?;
    out.push_str(&render_execution(net, &exec));
    Ok(out)
}

fn cmd_waves(net: &Network, family: &str, w: &str, opts: &Options) -> Result<String, String> {
    opts.allow(&["ell", "ratio", "save"])?;
    let ell = opts.usize_or("ell", 1)?;
    let probe = three_wave(net, ell, 1.0, 1.0e6).map_err(|e| e.to_string())?;
    let ratio = opts.f64_or("ratio", probe.required_ratio + 0.01)?;
    let sched = three_wave(net, ell, 1.0, ratio).map_err(|e| e.to_string())?;
    let mut out = maybe_save(
        opts,
        family,
        w,
        &format!("Theorem 5.11 three-wave schedule, ell={ell}, ratio={ratio}"),
        &sched.specs,
    )?;
    let exec = run(net, &sched.specs).map_err(|e| e.to_string())?;
    validate(net, &exec).map_err(|e| format!("execution failed validation: {e}"))?;
    let _ = writeln!(
        out,
        "three-wave adversary at level {ell}: threshold ratio {:.3}, using {:.3}",
        sched.required_ratio, ratio
    );
    out.push_str(&render_execution(net, &exec));
    Ok(out)
}

fn cmd_race(net: &Network, family: &str, w: &str, opts: &Options) -> Result<String, String> {
    opts.allow(&["ratio", "shared", "save"])?;
    let shared = opts.usize_or("shared", 1)? != 0;
    let ratio = opts.f64_or("ratio", net.depth() as f64 + 1.01)?;
    let race = holding_race(net, 1.0, ratio, shared).map_err(|e| e.to_string())?;
    let mut out = maybe_save(
        opts,
        family,
        w,
        &format!("holding-race schedule, ratio={ratio}, shared={shared}"),
        &race.specs,
    )?;
    let exec = run(net, &race.specs).map_err(|e| e.to_string())?;
    validate(net, &exec).map_err(|e| format!("execution failed validation: {e}"))?;
    let _ = writeln!(
        out,
        "holding race: threshold ratio {:.3}, using {:.3}, shared chaser: {shared}",
        race.required_ratio, ratio
    );
    out.push_str(&render_execution(net, &exec));
    Ok(out)
}

fn cmd_replay(net: &Network, opts: &Options) -> Result<String, String> {
    opts.allow(&["from"])?;
    let path = opts.get("from").ok_or("replay needs --from <file>")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let artifact = ScheduleArtifact::from_json(&text)?;
    if artifact.w != net.fan_out().max(net.fan_in()) {
        return Err(format!(
            "artifact targets w={}, but the requested network has fan {}/{}",
            artifact.w,
            net.fan_in(),
            net.fan_out()
        ));
    }
    let exec = run(net, &artifact.specs).map_err(|e| e.to_string())?;
    validate(net, &exec).map_err(|e| format!("execution failed validation: {e}"))?;
    let mut out = format!("replayed {} ({}):\n", path, artifact.note);
    out.push_str(&render_execution(net, &exec));
    Ok(out)
}

fn cmd_run(net: &Network, opts: &Options) -> Result<String, String> {
    opts.allow(&["threads", "ops"])?;
    let workload = cnet_runtime::Workload {
        threads: opts.usize_or("threads", 4)?,
        increments_per_thread: opts.usize_or("ops", 1000)?,
    };
    let counter = cnet_runtime::SharedNetworkCounter::new(net);
    let ops = cnet_runtime::drive(&counter, workload);
    let mut values: Vec<u64> = ops.iter().map(|o| o.value).collect();
    values.sort_unstable();
    let dense = values == (0..values.len() as u64).collect::<Vec<_>>();
    let mut out = format!(
        "threaded run: {} threads x {} ops, values dense: {dense}\n\n",
        workload.threads, workload.increments_per_thread
    );
    let _ = write!(out, "{}", audit(&ops));
    Ok(out)
}

/// Parses a `--cluster K/N` position: node K (0-based) of an N-node chain.
fn parse_cluster_position(spec: &str) -> Result<(usize, usize), String> {
    let err = || format!("--cluster expects K/N (e.g. 0/2), got '{spec}'");
    let (k, n) = spec.split_once('/').ok_or_else(err)?;
    let k: usize = k.trim().parse().map_err(|_| err())?;
    let n: usize = n.trim().parse().map_err(|_| err())?;
    if n == 0 || k >= n {
        return Err(format!("--cluster {spec}: node index must be below the node count"));
    }
    Ok((k, n))
}

/// `cnet serve --audit-threads N`: N workers (at most one per shard) take
/// frontiers of the recorder's shards from the server's [`AuditTable`]
/// *while the server runs*, until `stop` is raised, and return them.
/// Going through the table, they split each shard's stream exactly with
/// any remote puller.
fn spawn_audit_workers(
    table: &Arc<AuditTable>,
    workers: usize,
    stop: &Arc<AtomicBool>,
) -> Vec<std::thread::JoinHandle<Vec<ShardFrontier>>> {
    let stride = workers.min(table.shards());
    (0..stride)
        .map(|worker| {
            let table = Arc::clone(table);
            let stop = Arc::clone(stop);
            std::thread::spawn(move || {
                let mut taken = Vec::new();
                while !stop.load(Ordering::Acquire) {
                    let before = taken.len();
                    for sh in (worker..table.shards()).step_by(stride) {
                        let frontier = table.frontier(sh, usize::MAX, false);
                        if !frontier.ops.is_empty() {
                            taken.push(frontier);
                        }
                    }
                    if taken.len() == before {
                        std::thread::sleep(std::time::Duration::from_millis(1));
                    }
                }
                taken
            })
        })
        .collect()
}

fn cmd_serve(args: &[String]) -> Result<String, String> {
    let [w, flags @ ..] = args else {
        return Err("expected: cnet serve <w> [--backend B] [--family F] [--addr HOST:PORT] \
             [--max-conns N] [--processes N] [--reactors N] [--backpressure reject|block] \
             [--audit 0/1] [--audit-threads N] [--audit-sample k] [--port-file file] \
             [--cluster K/N --peers ADDR]"
            .to_string());
    };
    let fan: usize = w.parse().map_err(|_| format!("'{w}' is not a valid width"))?;
    let opts = Options::parse(flags)?;
    opts.allow(&[
        "backend",
        "family",
        "addr",
        "max-conns",
        "processes",
        "reactors",
        "backpressure",
        "audit",
        "audit-threads",
        "audit-sample",
        "port-file",
        "cluster",
        "peers",
    ])?;
    let backend = parse_backend(opts.get("backend").unwrap_or("compiled"), &[])?;
    let family = opts.get("family").unwrap_or("bitonic").to_string();
    let addr = opts.get("addr").unwrap_or("127.0.0.1:0").to_string();
    let max_connections = opts.usize_or("max-conns", 64)?.max(1);
    let cfg = cnet_net::server::ServerConfig {
        max_connections,
        processes: opts.usize_or("processes", fan)?.max(1),
        // 0 means one reactor per core (the server's own default).
        reactors: opts.usize_or("reactors", 0)?,
        backpressure: match opts.get("backpressure").unwrap_or("reject") {
            "reject" => cnet_net::server::Backpressure::Reject,
            "block" => cnet_net::server::Backpressure::Block,
            other => return Err(format!("--backpressure expects reject or block, got '{other}'")),
        },
    };
    let cluster_position = opts.get("cluster").map(parse_cluster_position).transpose()?;
    let audit = opts.usize_or("audit", 0)? != 0;
    let audit_threads = opts.usize_or("audit-threads", 0)?;
    let sample_k = opts.usize_or("audit-sample", 1)?.max(1);
    if (audit_threads > 0 || sample_k > 1) && !audit {
        return Err("--audit-threads/--audit-sample only make sense with --audit 1".to_string());
    }
    let recorder =
        audit.then(|| Arc::new(TraceRecorder::with_sampling(max_connections, 1 << 16, sample_k)));
    let mut server = match cluster_position {
        Some((node, nodes)) => {
            // A cluster node *is* a partition of the compiled network — the
            // scalar backends have no layers to split.
            if backend != Backend::Compiled {
                return Err(format!(
                    "--cluster partitions the compiled network; backend '{}' cannot be \
                     partitioned",
                    backend.name()
                ));
            }
            let peers: Vec<String> = opts
                .get("peers")
                .map(|p| p.split(',').map(|s| s.trim().to_string()).collect())
                .unwrap_or_default();
            let net = parse_network(&family, w)?;
            let cluster = cnet_net::ClusterNode::new(&net, node, nodes, &peers, max_connections)
                .map_err(|e| format!("cluster {node}/{nodes}: {e}"))?;
            cnet_net::server::CounterServer::start_cluster(
                &addr as &str,
                Arc::new(cluster),
                recorder.as_ref().map(Arc::clone),
                cfg,
            )
        }
        None => {
            if opts.get("peers").is_some() {
                return Err("--peers only makes sense with --cluster K/N".to_string());
            }
            let net = backend.uses_network().then(|| parse_network(&family, w)).transpose()?;
            let counter = backend.build(net.as_ref(), fan, fan)?;
            match &recorder {
                Some(rec) => cnet_net::server::CounterServer::with_recorder(
                    &addr as &str,
                    counter,
                    Arc::clone(rec),
                    cfg,
                ),
                None => cnet_net::server::CounterServer::start(&addr as &str, counter, cfg),
            }
        }
    }
    .map_err(|e| format!("serve {addr}: {e}"))?;
    let bound = server.local_addr();
    // Announce readiness on stderr immediately (stdout output is rendered
    // only after the command returns) so scripts can connect.
    match cluster_position {
        Some((node, nodes)) => {
            eprintln!("cnet serve: cluster node {node}/{nodes} listening on {bound}");
        }
        None => eprintln!("cnet serve: backend={} listening on {bound}", backend.name()),
    }
    if let Some(path) = opts.get("port-file") {
        std::fs::write(path, bound.to_string()).map_err(|e| format!("write {path}: {e}"))?;
    }
    // Only now — the server is up and nothing below returns early — do the
    // `--audit-threads` workers start: spawned any sooner, a failed start
    // would leave them polling for the life of the process.
    let audit_stop = Arc::new(AtomicBool::new(false));
    let audit_table = server.audit().map(Arc::clone);
    let audit_workers = match &audit_table {
        Some(table) => spawn_audit_workers(table, audit_threads, &audit_stop),
        None => Vec::new(),
    };
    server.wait_for_shutdown_request();
    server.shutdown();
    let stats = server.stats();
    let mut out = format!(
        "cnet serve: drained after a remote shutdown request\n\
         connections: {} served, {} rejected, {} deferred accepts\n\
         requests:    {}\n\
         increments:  {} ({} batched frames)\n\
         reactor:     {} wakeups, {} events\n",
        stats.total_connections,
        stats.rejected_connections,
        stats.deferred_accepts,
        stats.requests,
        stats.ops,
        stats.batches,
        stats.reactor_wakeups,
        stats.reactor_events,
    );
    if let (Some(table), Some(rec)) = (&audit_table, &recorder) {
        audit_stop.store(true, Ordering::Release);
        let mut merged = MergeAuditor::new(table.shards());
        let mut stolen = 0usize;
        for handle in audit_workers {
            for frontier in handle.join().expect("audit worker panicked") {
                stolen += frontier.ops.len();
                merged.ingest(frontier);
            }
        }
        if audit_threads > 0 {
            let _ = writeln!(
                out,
                "audit pipeline: {audit_threads} worker(s), {stolen} event(s) stolen live"
            );
        }
        // Writers are quiescent once `shutdown()` has joined the
        // reactors: settle every partial sampling window and publish the
        // tails, then take each shard's last frontier.
        for sh in 0..rec.shards() {
            rec.flush(sh);
        }
        for sh in 0..table.shards() {
            merged.ingest(table.frontier(sh, usize::MAX, true));
        }
        let coverage = Coverage::of(&merged, stats.ops, table.taken());
        out.push_str(&render_verdict(merged.auditor(), None, &coverage));
    }
    Ok(out)
}

fn cmd_loadgen(args: &[String]) -> Result<String, String> {
    let opts = Options::parse(args)?;
    opts.allow(&[
        "addr",
        "threads",
        "connections",
        "ops",
        "batch",
        "mode",
        "check",
        "shutdown",
        "cluster",
    ])?;
    let addr = opts.get("addr").ok_or("loadgen needs --addr HOST:PORT")?.to_string();
    let threads = opts.usize_or("threads", 4)?.max(1);
    let connections = opts.usize_or("connections", 0)?;
    let total_ops = opts.usize_or("ops", 100_000)?;
    // `--ops 0` is a pure control invocation: no traffic, just the
    // shutdown handshake. It is the way to drain a cluster node that
    // serves no client traffic of its own — a relay or tail only
    // answers forwards, so a normal loadgen run against it would fail.
    if total_ops == 0 {
        if opts.usize_or("shutdown", 0)? == 0 {
            return Err("--ops 0 only makes sense with --shutdown 1".to_string());
        }
        let client = cnet_net::RemoteCounter::connect(&addr as &str, 1)
            .map_err(|e| format!("shutdown connect {addr}: {e}"))?;
        client.shutdown_server().map_err(|e| format!("shutdown {addr}: {e}"))?;
        return Ok(format!(
            "cnet loadgen: no traffic (--ops 0)\n\
             server shutdown requested and acknowledged ({addr})\n"
        ));
    }
    let check = opts.usize_or("check", 1)? != 0;
    let mode = match opts.get("mode").unwrap_or("batch") {
        "batch" => cnet_net::LoadGenMode::Batch,
        "pipeline" => cnet_net::LoadGenMode::Pipeline,
        other => return Err(format!("--mode expects batch or pipeline, got '{other}'")),
    };
    let batch = opts.usize_or("batch", 64)?.max(1);
    let route = opts.usize_or("cluster", 0)? != 0;
    let cfg = cnet_net::loadgen::LoadGenConfig {
        threads,
        connections,
        ops_per_thread: total_ops.div_ceil(threads),
        batch,
        mode,
        collect_values: check,
        route,
    };
    let report = cnet_net::loadgen::run_loadgen(&addr as &str, &cfg)
        .map_err(|e| format!("loadgen against {addr}: {e}"))?;
    let mut out = format!(
        "cnet loadgen: {} threads over {} connections x {} ops = {} increments \
         in {:.3}s ({:.0} ops/s)\n",
        report.threads,
        report.connections,
        cfg.ops_per_thread,
        report.total_ops,
        report.seconds,
        report.ops_per_sec(),
    );
    let (p50, p99, p999) = report.latency.percentiles();
    let us = |ns: u64| ns as f64 / 1.0e3;
    let _ = writeln!(
        out,
        "burst latency: p50 {:.1}us  p99 {:.1}us  p999 {:.1}us  ({} bursts sampled)",
        us(p50),
        us(p99),
        us(p999),
        report.latency.count(),
    );
    match report.is_permutation() {
        Some(true) => {
            let _ = writeln!(out, "permutation 0..{}: true", report.total_ops);
        }
        Some(false) => {
            return Err(format!(
                "values are NOT a permutation of 0..{} — the service broke the counting contract",
                report.total_ops
            ));
        }
        None => {}
    }
    if opts.usize_or("shutdown", 0)? != 0 {
        let client = cnet_net::RemoteCounter::connect(&addr as &str, 1)
            .map_err(|e| format!("shutdown connect {addr}: {e}"))?;
        // Snapshot the reactor's counters before asking it to drain.
        let stats = client.server_stats().map_err(|e| format!("stats {addr}: {e}"))?;
        let per_wakeup = if stats.reactor_wakeups > 0 {
            stats.reactor_events as f64 / stats.reactor_wakeups as f64
        } else {
            0.0
        };
        let _ = writeln!(
            out,
            "server reactor: {} open connections, {} epoll wakeups, {} events \
             ({per_wakeup:.2} events/wakeup), {} deferred accepts",
            stats.active_connections,
            stats.reactor_wakeups,
            stats.reactor_events,
            stats.deferred_accepts,
        );
        client.shutdown_server().map_err(|e| format!("shutdown {addr}: {e}"))?;
        let _ = writeln!(out, "server shutdown requested and acknowledged");
    }
    Ok(out)
}

/// Drives an audited run through [`drive_audited`], collecting a bounded
/// set of "live" lines each time the in-flight auditor's violation counts
/// grow. Returns the merged auditor and how many progress reports it made.
fn audit_workload<C: ProcessCounter>(
    counter: &C,
    recorder: &TraceRecorder,
    workload: Workload,
    audit_threads: usize,
    live: &mut Vec<String>,
) -> (MergeAuditor, usize) {
    let mut batches = 0usize;
    let mut seen = (0usize, 0usize);
    let merged = drive_audited(counter, recorder, workload, audit_threads, |m| {
        batches += 1;
        let a = m.auditor();
        let now = (a.non_linearizable(), a.non_sequentially_consistent());
        if now > seen && live.len() < 8 {
            live.push(format!(
                "  [live @ {} ops] non-linearizable: {}  non-SC: {}  F_nl={:.4} F_nsc={:.4}",
                a.operations(),
                now.0,
                now.1,
                a.f_nl(),
                a.f_nsc()
            ));
            seen = now;
        }
    });
    (merged, batches)
}

/// The verdict block every audit report ends with: the audit's
/// [`Coverage`] line, the Section 2.4 conditions with their first
/// witnesses, the Section 5.1 fractions, the QQC lateness profile (beside
/// the audited run's wall-clock rate, when this process drove the run),
/// and the coverage's verdict word. An audit command fails the process
/// unless [`Coverage::passes`]: CI gates read the exit code, not the
/// transcript.
fn render_verdict(a: &StreamingAuditor, ops_per_s: Option<f64>, coverage: &Coverage) -> String {
    let mut out = format!("audit coverage: {coverage}\n");
    let _ = writeln!(out, "linearizable:            {}", a.is_linearizable());
    if let Some(v) = a.linearizability_violation() {
        let _ = writeln!(out, "  first lin violation:   op #{} -> op #{}", v.earlier, v.later);
    }
    let _ = writeln!(out, "sequentially consistent: {}", a.is_sequentially_consistent());
    if let Some(v) = a.sequential_consistency_violation() {
        let _ = writeln!(out, "  first SC violation:    op #{} -> op #{}", v.earlier, v.later);
    }
    let _ = writeln!(out, "F_nl  = {:.4}", a.f_nl());
    let _ = writeln!(out, "F_nsc = {:.4}", a.f_nsc());
    let _ = writeln!(
        out,
        "qqc lateness: max {} mean {:.2} p99 {}",
        a.qqc_max(),
        a.qqc_mean(),
        a.qqc_p99()
    );
    if let Some(rate) = ops_per_s {
        let _ = writeln!(out, "audited rate: {rate:.0} ops/s (wall clock)");
    }
    let _ = writeln!(out, "\naudit verdict: {}", coverage.verdict(a));
    out
}

/// Fetches every node's recorded trace shards over the wire, remaps them
/// into one global shard space, k-way merges them in enter order, and
/// renders a cluster-wide consistency verdict against the operations
/// node 0 served (every node of a chain counts each one). Returns `Err`
/// (nonzero exit) when the merged history shows violations or the audit
/// missed a served operation.
///
/// All nodes must share one machine clock for the merged verdict to be
/// meaningful — the trace stamps are node-local monotonic nanoseconds.
fn cmd_audit_cluster(opts: &Options) -> Result<String, String> {
    let inject: Option<u64> = opts
        .get("inject")
        .map(|s| s.parse().map_err(|_| format!("--inject expects a numeric seed, got '{s}'")))
        .transpose()?;
    let addrs: Vec<String> = opts
        .get("addr")
        .ok_or("backend cluster needs --addr ADDR1,ADDR2,...")?
        .split(',')
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .collect();
    if addrs.is_empty() {
        return Err("backend cluster needs at least one node address".to_string());
    }
    let mut members = Vec::new();
    for addr in &addrs {
        let client = cnet_net::RemoteCounter::connect(&addr[..], 1)
            .map_err(|e| format!("connect {addr}: {e}"))?;
        let info = client.node_info().map_err(|e| format!("node info {addr}: {e}"))?;
        members.push((info, client, addr.clone()));
    }
    let chain = members[0].0.nodes;
    for (info, _, addr) in &members {
        if info.nodes != chain {
            return Err(format!(
                "{addr} reports a {}-node chain but {} reported {chain} — mixed clusters",
                info.nodes, addrs[0]
            ));
        }
    }
    if members.len() != chain as usize {
        return Err(format!(
            "the chain has {chain} nodes but {} addresses were given — the audit needs \
             every node's shards",
            members.len()
        ));
    }
    members.sort_by_key(|(info, _, _)| info.node);
    for (expect, (info, _, addr)) in members.iter().enumerate() {
        if info.node as usize != expect {
            return Err(format!("duplicate cluster position {} (reported by {addr})", info.node));
        }
    }
    let mut out = format!("== cnet audit: backend=cluster, {chain} node(s) ==\n\n");
    // Fetch each node's shard frontiers until every stream stays dry over
    // a settle delay (the server's close-time flush is asynchronous).
    // Frontiers carry lifetime totals (drops, sampling skips) alongside
    // the buffered events, so all of them are kept and folded in fetch
    // order — the MergeAuditor's "latest frontier wins" rule keeps the
    // stats exact.
    let shards_per_node: Vec<usize> =
        members.iter().map(|(info, _, _)| info.shards as usize).collect();
    let mut fetched: Vec<(usize, ShardFrontier)> = Vec::new();
    for (node, (info, client, addr)) in members.iter().enumerate() {
        let mut events = 0usize;
        let mut settle = 0;
        while info.shards > 0 && settle < 2 {
            let mut moved = 0usize;
            for shard in 0..info.shards {
                let frontier = client
                    .fetch_frontier(shard, cnet_net::wire::MAX_FRONTIER_OPS)
                    .map_err(|e| format!("frontier fetch {addr}: {e}"))?;
                moved += frontier.ops.len();
                fetched.push((node, frontier));
            }
            if moved == 0 {
                settle += 1;
                std::thread::sleep(std::time::Duration::from_millis(100));
            } else {
                settle = 0;
                events += moved;
            }
        }
        let _ = writeln!(
            out,
            "node {} @ {addr}: {} shard(s), {} event(s) fetched",
            info.node, info.shards, events
        );
    }
    // Global shard space: node k's local shard s becomes offset(k) + s.
    // The collector remaps shards and process ids and folds every frontier
    // into one exact merged verdict — bit-identical to the sequential
    // auditor on the same per-shard streams.
    let mut collector = cnet_net::FrontierCollector::new(&shards_per_node);
    // `--inject SEED`: deterministically re-stamp one fetched op past the
    // end of the run. The victim is seed-chosen among the ops that some
    // *other* shard outvalues, so the corrupted history provably contains
    // a larger value whose interval completed before the victim's — the
    // audit MUST come back non-linearizable, and a clean verdict here
    // means the pipeline lost the violation (the regression this guards).
    if let Some(seed) = inject {
        let mut shard_max = vec![0u64; collector.total_shards().max(1)];
        let mut max_stamp = 0u64;
        for (node, f) in &fetched {
            let g = collector.offset(*node) + f.shard;
            for op in &f.ops {
                shard_max[g] = shard_max[g].max(op.value);
                max_stamp = max_stamp.max(op.exit_ns);
            }
        }
        let mut victims: Vec<(usize, usize)> = Vec::new();
        for (i, (node, f)) in fetched.iter().enumerate() {
            let g = collector.offset(*node) + f.shard;
            let other_max =
                shard_max.iter().enumerate().filter(|&(s, _)| s != g).map(|(_, &v)| v).max();
            if let Some(other_max) = other_max {
                for (j, op) in f.ops.iter().enumerate() {
                    if op.value < other_max {
                        victims.push((i, j));
                    }
                }
            }
        }
        if victims.is_empty() {
            return Err("--inject: no fetched op is outvalued by another shard — \
                        nothing to corrupt"
                .to_string());
        }
        let (fi, oj) = victims[(seed as usize) % victims.len()];
        let op = &mut fetched[fi].1.ops[oj];
        op.enter_ns = max_stamp + 1_000_000_000;
        op.exit_ns = op.enter_ns + 100;
        let _ = writeln!(
            out,
            "fault injection (seed {seed}): op value {} re-stamped 1s past the end of the run",
            op.value
        );
    }
    for (node, frontier) in fetched {
        collector.ingest(node, frontier);
    }
    collector.finish();
    let (_, head, head_addr) = &members[0];
    let served = head.server_stats().map_err(|e| format!("stats {head_addr}: {e}"))?.ops;
    let coverage = Coverage::of(collector.merged(), served, 0);
    let auditor = collector.merged().auditor();
    out.push('\n');
    out.push_str(&render_verdict(auditor, None, &coverage));
    if coverage.passes(auditor) {
        Ok(out)
    } else {
        Err(out)
    }
}

fn cmd_audit(args: &[String]) -> Result<String, String> {
    let [w, flags @ ..] = args else {
        return Err(format!(
            "expected: cnet audit <w> [--backend {}] [--family F] [--threads N] [--ops N] \
                 [--addr HOST:PORT] [--audit-threads N] [--audit-sample k] \
                 [--inject SEED (cluster only)]",
            backend_names(&["remote", "cluster"], "|")
        ));
    };
    let fan: usize = w.parse().map_err(|_| format!("'{w}' is not a valid width"))?;
    let opts = Options::parse(flags)?;
    opts.allow(&[
        "backend",
        "family",
        "threads",
        "ops",
        "addr",
        "audit-threads",
        "audit-sample",
        "inject",
    ])?;
    let backend = opts.get("backend").unwrap_or("compiled");
    if backend == "cluster" {
        return cmd_audit_cluster(&opts);
    }
    if opts.get("inject").is_some() {
        return Err("--inject only makes sense with --backend cluster".to_string());
    }
    let family = opts.get("family").unwrap_or("bitonic").to_string();
    let threads = opts.usize_or("threads", 1)?.max(1);
    let ops = opts.usize_or("ops", 10_000)?.max(1);
    let audit_threads = opts.usize_or("audit-threads", 0)?;
    let sample_k = opts.usize_or("audit-sample", 1)?.max(1);
    let workload = Workload { threads, increments_per_thread: ops };
    // One ring per thread, sized to the whole run: zero drops by
    // construction, so the audit sees every operation (or, with
    // `--audit-sample k`, exactly the 1-in-k sound sample of it).
    let recorder = Arc::new(TraceRecorder::with_sampling(threads, ops, sample_k));
    let mut live: Vec<String> = Vec::new();
    let (counter, shown_family): (Arc<dyn ProcessCounter + Send + Sync>, _) = match backend {
        // Audits a *live socket*: each audit thread drives its own pooled
        // connection to a running `cnet serve`, and the recorded intervals
        // are the client-observed ones (network delay included).
        "remote" => {
            let addr = opts.get("addr").ok_or("backend remote needs --addr HOST:PORT")?;
            let remote = cnet_net::RemoteCounter::connect(addr, threads)
                .map_err(|e| format!("connect {addr}: {e}"))?;
            (Arc::new(remote), "-")
        }
        name => {
            let b = parse_backend(name, &["remote", "cluster"])?;
            let net = b.uses_network().then(|| parse_network(&family, w)).transpose()?;
            let shown = if b.uses_network() { family.as_str() } else { "-" };
            (b.build(net.as_ref(), fan, threads)?, shown)
        }
    };
    let counter = Traced::new(counter, Arc::clone(&recorder));
    let started = std::time::Instant::now();
    let (merged, batches) = audit_workload(&counter, &recorder, workload, audit_threads, &mut live);
    let ops_per_s = (threads * ops) as f64 / started.elapsed().as_secs_f64();
    let mut out = format!(
        "== cnet audit: backend={backend} family={shown_family} w={fan}, \
         {threads} threads x {ops} ops ==\n\n"
    );
    for line in &live {
        out.push_str(line);
        out.push('\n');
    }
    if !live.is_empty() {
        out.push('\n');
    }
    if audit_threads > 0 {
        let _ = writeln!(out, "audit workers:           {audit_threads}");
    }
    let _ = writeln!(out, "live drain batches:      {batches}");
    let coverage = Coverage::of(&merged, (threads * ops) as u64, 0);
    let a = merged.auditor();
    out.push_str(&render_verdict(a, Some(ops_per_s), &coverage));
    if coverage.passes(a) {
        Ok(out)
    } else {
        Err(out)
    }
}

fn render_execution(net: &Network, exec: &cnet_sim::TimedExecution) -> String {
    let params = TimingParams::measure(exec);
    let ops = Op::from_execution(exec);
    let report = audit(&ops);
    let mut out = String::new();
    let _ = writeln!(out, "\nmeasured timing parameters:");
    let fmt_opt = |v: Option<f64>| v.map_or_else(|| "inf".to_string(), |x| format!("{x:.3}"));
    let _ = writeln!(out, "  c_min = {}", fmt_opt(params.c_min));
    let _ = writeln!(out, "  c_max = {}", fmt_opt(params.c_max));
    let _ = writeln!(out, "  C_L   = {}", fmt_opt(params.local_delay));
    let _ = writeln!(out, "  C_g   = {}", fmt_opt(params.global_delay));
    let _ = writeln!(out, "\ntiming conditions:");
    let mut conditions = vec![
        TimingCondition::RatioAtMostTwo,
        TimingCondition::global_delay(net),
        TimingCondition::local_delay(net),
        TimingCondition::mpt_sufficient(net),
    ];
    if let Ok(c) = TimingCondition::mpt_necessary(net) {
        conditions.push(c);
    }
    for c in conditions {
        let _ =
            writeln!(out, "  [{}] {c}  —  {}", if c.holds(&params) { "x" } else { " " }, c.role());
    }
    let _ = writeln!(out, "\nconsistency audit:");
    let _ = write!(out, "{report}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn call(args: &[&str]) -> Result<String, String> {
        let v: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        dispatch(&v)
    }

    /// Runs `cnet serve <args>` on a thread with a port file named after
    /// `name`, and returns the thread with the address the server bound.
    fn spawn_serve(
        name: &str,
        args: &[&str],
    ) -> (std::thread::JoinHandle<Result<String, String>>, String) {
        let port_file = std::env::temp_dir().join(format!("cnet_cli_test_{name}.port"));
        let _ = std::fs::remove_file(&port_file);
        let mut argv = vec!["serve".to_string()];
        argv.extend(args.iter().map(|a| a.to_string()));
        argv.extend(["--port-file".to_string(), port_file.to_str().unwrap().to_string()]);
        let server =
            std::thread::spawn(move || call(&argv.iter().map(String::as_str).collect::<Vec<_>>()));
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
        let addr = loop {
            if let Ok(addr) = std::fs::read_to_string(&port_file) {
                if !addr.is_empty() {
                    break addr;
                }
            }
            assert!(std::time::Instant::now() < deadline, "serve {name} never wrote its port");
            std::thread::sleep(std::time::Duration::from_millis(10));
        };
        let _ = std::fs::remove_file(&port_file);
        (server, addr)
    }

    /// The counts on a report's `audit coverage:` line: served, audited,
    /// dropped, skipped, taken and not recorded.
    fn coverage_counts(report: &str) -> [u64; 6] {
        let line = report
            .lines()
            .find_map(|l| l.strip_prefix("audit coverage: "))
            .unwrap_or_else(|| panic!("no coverage line: {report}"));
        let counts: Vec<u64> =
            line.split(", ").map(|part| part.split(' ').next().unwrap().parse().unwrap()).collect();
        counts.try_into().unwrap_or_else(|c| panic!("{c:?}: {report}"))
    }

    #[test]
    fn info_reports_structure() {
        let out = call(&["info", "bitonic", "8"]).unwrap();
        assert!(out.contains("depth d(G):   6"));
        assert!(out.contains("split number: 3"));
        assert!(out.contains("irad(G):      3"));
    }

    #[test]
    fn dot_emits_graphviz() {
        let out = call(&["dot", "tree", "4"]).unwrap();
        assert!(out.starts_with("digraph"));
    }

    #[test]
    fn simulate_renders_audit() {
        let out = call(&["simulate", "bitonic", "4", "--ratio", "1.5", "--seed", "3"]).unwrap();
        assert!(out.contains("linearizable:            true"));
        assert!(out.contains("c_max"));
    }

    #[test]
    fn waves_find_violations_above_threshold() {
        let out = call(&["waves", "bitonic", "8", "--ell", "1"]).unwrap();
        assert!(out.contains("linearizable:            false"));
        assert!(out.contains("sequentially consistent: false"));
    }

    #[test]
    fn race_detects_inversion() {
        let out = call(&["race", "bitonic", "2", "--ratio", "2.5"]).unwrap();
        assert!(out.contains("linearizable:            false"));
    }

    #[test]
    fn run_audits_threaded_history() {
        let out = call(&["run", "bitonic", "4", "--threads", "2", "--ops", "50"]).unwrap();
        assert!(out.contains("values dense: true"));
        assert!(out.contains("operations:              100"));
    }

    #[test]
    fn errors_are_user_facing() {
        assert!(call(&["info"]).is_err());
        assert!(call(&["info", "bitonic", "6"]).unwrap_err().contains("unsupported width"));
        assert!(call(&["frobnicate", "bitonic", "8"]).unwrap_err().contains("unknown command"));
        // The name is checked before the arguments are read as a network.
        assert!(call(&["frobnicate", "bitonic", "6"]).unwrap_err().contains("unknown command"));
        assert!(call(&["bench", "8", "--out", "x.json"])
            .unwrap_err()
            .contains("unknown command 'bench'"));
        assert!(call(&["simulate", "bitonic", "4", "--bogus", "1"])
            .unwrap_err()
            .contains("unknown flag"));
        assert!(call(&["waves", "tree", "8"]).is_err()); // tree has no split chops
    }

    #[test]
    fn usage_mentions_every_command() {
        let u = usage();
        for c in [
            "info", "dot", "simulate", "waves", "race", "replay", "run", "audit", "serve",
            "loadgen",
        ] {
            assert!(u.contains(c), "{c}");
        }
        assert!(!u.split_whitespace().any(|w| w == "bench"), "{u}");
    }

    #[test]
    fn usage_lists_the_registry_and_exempts_no_backend() {
        let u = usage();
        let registry = Backend::ALL.map(Backend::name).join("|");
        assert!(u.contains(&format!("{registry}|remote|cluster")), "{u}");
        for gone in ["relaxed", "elimination", "not a failure"] {
            assert!(!u.contains(gone), "{gone}: {u}");
        }
        assert!(u.contains("exits nonzero on a\n") && u.contains("violations verdict\n"), "{u}");
    }

    /// Boots `cnet serve` in a thread, discovers the ephemeral port via
    /// `--port-file`, drives it with `cnet loadgen --check --shutdown`,
    /// and reads both transcripts — the two-terminal quickstart, in-process.
    #[test]
    fn serve_and_loadgen_round_trip_with_audit() {
        let (server, addr) = spawn_serve(
            "serve",
            &["4", "--backend", "fetch_add", "--audit", "1", "--max-conns", "8"],
        );
        let out = call(&[
            "loadgen",
            "--addr",
            &addr,
            "--threads",
            "4",
            "--ops",
            "2000",
            "--batch",
            "32",
            "--check",
            "1",
            "--shutdown",
            "1",
        ])
        .unwrap();
        assert!(out.contains("= 2000 increments"), "{out}");
        assert!(out.contains("permutation 0..2000: true"), "{out}");
        assert!(out.contains("burst latency: p50"), "{out}");
        assert!(out.contains("server reactor:"), "{out}");
        assert!(out.contains("epoll wakeups"), "{out}");
        assert!(out.contains("server shutdown requested and acknowledged"), "{out}");
        let served = server.join().unwrap().unwrap();
        assert!(served.contains("drained after a remote shutdown request"), "{served}");
        assert!(served.contains("increments:  2000"), "{served}");
        assert!(served.contains("reactor:"), "{served}");
        assert!(
            served.contains("audit coverage: 2000 served, 2000 audited, 0 dropped, 0 skipped"),
            "{served}"
        );
        assert!(served.ends_with("\naudit verdict: clean\n"), "{served}");
    }

    /// A served audit whose ring overflowed must not read clean. One
    /// connection slot is one ring of 65,536 events, so 100,000 pipelined
    /// increments from one client drop 34,464 of them.
    #[test]
    fn served_audit_over_a_ring_overflow_reads_incomplete() {
        let (server, addr) = spawn_serve(
            "overflow",
            &["8", "--backend", "fetch_add", "--audit", "1", "--max-conns", "1"],
        );
        let out = call(&[
            "loadgen",
            "--addr",
            &addr,
            "--threads",
            "1",
            "--ops",
            "100000",
            "--mode",
            "pipeline",
            "--shutdown",
            "1",
        ])
        .unwrap();
        assert!(out.contains("server shutdown requested and acknowledged"), "{out}");
        let served = server.join().unwrap().unwrap();
        assert!(served.contains("increments:  100000"), "{served}");
        assert!(
            served
                .contains("audit coverage: 100000 served, 65536 audited, 34464 dropped, 0 skipped"),
            "{served}"
        );
        assert!(served.ends_with("\naudit verdict: incomplete (34464 dropped)\n"), "{served}");
    }

    /// The same overflow seen by a remote cluster audit: it pulls the
    /// 65,536 events the ring kept, and must read `incomplete` over the
    /// 34,464 it dropped and exit nonzero, as the server's own audit does.
    #[test]
    fn cluster_audit_over_a_ring_overflow_reads_incomplete() {
        let (server, addr) =
            spawn_serve("cluster_overflow", &["8", "--audit", "1", "--max-conns", "1"]);
        let out = call(&[
            "loadgen",
            "--addr",
            &addr,
            "--threads",
            "1",
            "--ops",
            "100000",
            "--mode",
            "pipeline",
        ])
        .unwrap();
        assert!(out.contains("permutation 0..100000: true"), "{out}");
        let audit = call(&["audit", "8", "--backend", "cluster", "--addr", &addr])
            .expect_err("an audit over dropped events must exit nonzero");
        assert!(
            audit.contains("audit coverage: 100000 served, 65536 audited, 34464 dropped"),
            "{audit}"
        );
        assert!(audit.ends_with("\naudit verdict: incomplete (34464 dropped)\n"), "{audit}");
        call(&["loadgen", "--addr", &addr, "--ops", "0", "--shutdown", "1"]).unwrap();
        let served = server.join().unwrap().unwrap();
        assert!(served.contains("increments:  100000"), "{served}");
    }

    #[test]
    fn serve_and_loadgen_reject_bad_arguments() {
        assert!(call(&["serve"]).unwrap_err().contains("cnet serve <w>"));
        assert!(call(&["serve", "4", "--backend", "quantum"])
            .unwrap_err()
            .contains("unknown backend"));
        assert!(call(&["serve", "4", "--backpressure", "panic"])
            .unwrap_err()
            .contains("reject or block"));
        assert!(call(&["loadgen"]).unwrap_err().contains("needs --addr"));
        assert!(call(&["loadgen", "--addr", "127.0.0.1:1", "--ops", "1"])
            .unwrap_err()
            .contains("loadgen against"));
        assert!(call(&["loadgen", "--addr", "x", "--bogus", "1"])
            .unwrap_err()
            .contains("unknown flag"));
    }

    #[test]
    fn loadgen_takes_no_artifact_row_flags() {
        // loadgen reports to stdout only; the flags that once tagged and
        // wrote a row of a JSON artifact are rejected before any dial.
        for flag in ["out", "label", "network", "audit-sample"] {
            let err =
                call(&["loadgen", "--addr", "127.0.0.1:1", &format!("--{flag}"), "x"]).unwrap_err();
            assert_eq!(err, format!("unknown flag --{flag}"));
        }
    }

    #[test]
    fn loadgen_rejects_an_unknown_mode_before_dialing() {
        let err = call(&["loadgen", "--addr", "127.0.0.1:1", "--mode", "turbo"]).unwrap_err();
        assert_eq!(err, "--mode expects batch or pipeline, got 'turbo'");
        let err = call(&["loadgen", "--addr", "127.0.0.1:1", "--threads", "many"]).unwrap_err();
        assert!(err.contains("--threads expects an integer"), "{err}");
    }

    #[test]
    fn cluster_flags_are_validated() {
        assert!(call(&["serve", "4", "--cluster", "2"]).unwrap_err().contains("expects K/N"));
        assert!(call(&["serve", "4", "--cluster", "2/2"])
            .unwrap_err()
            .contains("below the node count"));
        assert!(call(&["serve", "4", "--cluster", "0/0"])
            .unwrap_err()
            .contains("below the node count"));
        assert!(call(&["serve", "4", "--cluster", "0/2", "--backend", "fetch_add"])
            .unwrap_err()
            .contains("cannot be partitioned"));
        assert!(call(&["serve", "4", "--peers", "127.0.0.1:1"])
            .unwrap_err()
            .contains("--peers only makes sense with --cluster"));
        assert!(call(&["audit", "4", "--backend", "cluster"])
            .unwrap_err()
            .contains("needs --addr"));
        assert!(call(&["loadgen", "--addr", "127.0.0.1:1", "--ops", "0"])
            .unwrap_err()
            .contains("--ops 0 only makes sense with --shutdown 1"));
    }

    /// The full cluster story through the CLI alone: two `serve --cluster`
    /// nodes chained over loopback, a routed loadgen **at the tail** that
    /// still returns an exact permutation, a merged cluster-wide audit,
    /// and a graceful per-node drain via `--ops 0 --shutdown 1`.
    #[test]
    fn cluster_serve_loadgen_and_audit_round_trip() {
        // Tail first: the head dials its downstream peer at startup.
        let (tail, tail_addr) = spawn_serve(
            "cluster_tail",
            &["8", "--cluster", "1/2", "--audit", "1", "--max-conns", "8"],
        );
        let (head, head_addr) = spawn_serve(
            "cluster_head",
            &["8", "--cluster", "0/2", "--peers", &tail_addr, "--audit", "1", "--max-conns", "8"],
        );
        // Routed loadgen pointed at the *tail*: the NodeInfo handshake
        // must re-dial the head (retry while the announcement settles).
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
        let out = loop {
            match call(&[
                "loadgen",
                "--addr",
                &tail_addr,
                "--cluster",
                "1",
                "--threads",
                "4",
                "--ops",
                "2000",
                "--batch",
                "32",
                "--mode",
                "pipeline",
                "--check",
                "1",
            ]) {
                Ok(out) => break out,
                Err(e) => {
                    assert!(
                        std::time::Instant::now() < deadline,
                        "routed loadgen never reached the head: {e}"
                    );
                    std::thread::sleep(std::time::Duration::from_millis(50));
                }
            }
        };
        assert!(out.contains("permutation 0..2000: true"), "{out}");
        // Cluster-wide audit: fetch both nodes' shards, merge, one verdict.
        // The verdict itself is timing-dependent at 4 concurrent slots (the
        // paper's phenomenon — a clean verdict is asserted by the verify.sh
        // smoke, not here), but the merge must cover every operation, and a
        // violations verdict must come back as an error (nonzero exit).
        let audit = match call(&[
            "audit",
            "8",
            "--backend",
            "cluster",
            "--addr",
            &format!("{head_addr},{tail_addr}"),
        ]) {
            Ok(report) => {
                assert!(report.contains("audit verdict: clean"), "{report}");
                report
            }
            Err(report) => {
                assert!(report.contains("audit verdict: violations detected"), "{report}");
                report
            }
        };
        assert!(audit.contains("node 0 @"), "{audit}");
        assert!(audit.contains("node 1 @"), "{audit}");
        assert!(audit.contains("audit coverage: 2000 served, 2000 audited"), "{audit}");
        // Graceful drain, one node at a time, no traffic required.
        for addr in [&tail_addr, &head_addr] {
            let out = call(&["loadgen", "--addr", addr, "--ops", "0", "--shutdown", "1"]).unwrap();
            assert!(out.contains("shutdown requested and acknowledged"), "{out}");
        }
        let tail_out = tail.join().unwrap().unwrap();
        let head_out = head.join().unwrap().unwrap();
        assert!(tail_out.contains("drained after a remote shutdown request"), "{tail_out}");
        assert!(head_out.contains("drained after a remote shutdown request"), "{head_out}");
        // Every increment crossed the wire twice: once into the head,
        // once forwarded to the tail.
        assert!(head_out.contains("increments:  2000"), "{head_out}");
        assert!(tail_out.contains("increments:  2000"), "{tail_out}");
    }

    /// The parallel audit pipeline end to end through the CLI: a server
    /// with `--audit-threads 2` steals shards while traffic runs, and the
    /// post-shutdown merge of the workers' frontiers covers every op.
    #[test]
    fn serve_with_audit_threads_steals_and_merges_every_op() {
        let (server, addr) = spawn_serve(
            "par_audit",
            &["8", "--audit", "1", "--audit-threads", "2", "--max-conns", "4"],
        );
        let out = call(&[
            "loadgen",
            "--addr",
            &addr,
            "--threads",
            "2",
            "--ops",
            "2000",
            "--shutdown",
            "1",
        ])
        .unwrap();
        assert!(out.contains("permutation 0..2000: true"), "{out}");
        let served = server.join().unwrap().unwrap();
        assert!(served.contains("audit pipeline: 2 worker(s)"), "{served}");
        // Everything the workers did not steal live is swept up by the
        // shutdown pass: the merged verdict covers all 2000 ops.
        assert!(served.contains("audit coverage: 2000 served, 2000 audited"), "{served}");
    }

    /// A server whose rings a remote cluster audit already pulled audits
    /// nothing at shutdown: it must say where the operations went and
    /// must not read clean over them.
    #[test]
    fn served_audit_names_what_a_remote_puller_took() {
        let (server, addr) = spawn_serve(
            "remote_pull",
            &["8", "--backend", "fetch_add", "--audit", "1", "--max-conns", "8"],
        );
        let out = call(&["loadgen", "--addr", &addr, "--threads", "2", "--ops", "400"]).unwrap();
        assert!(out.contains("permutation 0..400: true"), "{out}");
        let audit = call(&["audit", "8", "--backend", "cluster", "--addr", &addr])
            .unwrap_or_else(|report| report);
        assert!(audit.contains("audit coverage: 400 served, 400 audited"), "{audit}");
        call(&["loadgen", "--addr", &addr, "--ops", "0", "--shutdown", "1"]).unwrap();
        let served = server.join().unwrap().unwrap();
        assert!(served.contains("increments:  400"), "{served}");
        assert!(
            served.contains(
                "audit coverage: 400 served, 0 audited, 0 dropped, 0 skipped by sampling, \
                 400 taken by another puller, 0 not recorded\n"
            ),
            "{served}"
        );
        let want = "\naudit verdict: incomplete (400 taken by another puller)\n";
        assert!(served.ends_with(want), "{served}");
    }

    /// A cluster audit of a server that records nothing has seen none of
    /// what it served: it must say so and exit nonzero, not read clean
    /// over an empty history.
    #[test]
    fn cluster_audit_of_an_unaudited_server_reads_incomplete() {
        let (server, addr) = spawn_serve("unaudited", &["8", "--max-conns", "8"]);
        let out = call(&["loadgen", "--addr", &addr, "--threads", "1", "--ops", "2000"]).unwrap();
        assert!(out.contains("permutation 0..2000: true"), "{out}");
        let audit = call(&["audit", "8", "--backend", "cluster", "--addr", &addr])
            .expect_err("an audit that saw none of the served ops must exit nonzero");
        assert_eq!(coverage_counts(&audit), [2000, 0, 0, 0, 0, 2000], "{audit}");
        let want = "\naudit verdict: incomplete (2000 served ops not recorded for this audit)\n";
        assert!(audit.ends_with(want), "{audit}");
        call(&["loadgen", "--addr", &addr, "--ops", "0", "--shutdown", "1"]).unwrap();
        server.join().unwrap().unwrap();
    }

    /// A served node's `--audit-threads` worker and a concurrent remote
    /// puller split one recorded stream: every event reaches exactly one
    /// of them. Both consume the whole recording between them, so their
    /// audited counts add up to what was recorded exactly when no event
    /// reached both; two unsynchronised pullers of one ring read the same
    /// slots and count them twice.
    #[test]
    fn served_audit_workers_and_a_remote_puller_split_the_stream_exactly() {
        let (server, addr) = spawn_serve(
            "split",
            &[
                "8",
                "--backend",
                "fetch_add",
                "--audit",
                "1",
                "--audit-threads",
                "1",
                "--max-conns",
                "8",
            ],
        );
        let traffic = {
            let addr = addr.clone();
            std::thread::spawn(move || {
                call(&[
                    "loadgen",
                    "--addr",
                    &addr,
                    "--threads",
                    "4",
                    "--ops",
                    "200000",
                    "--mode",
                    "pipeline",
                ])
            })
        };
        let mut remote = 0u64;
        while !traffic.is_finished() {
            let audit = call(&["audit", "8", "--backend", "cluster", "--addr", &addr])
                .unwrap_or_else(|report| report);
            remote += coverage_counts(&audit)[1];
        }
        let out = traffic.join().unwrap().unwrap();
        assert!(out.contains("permutation 0..200000: true"), "{out}");
        call(&["loadgen", "--addr", &addr, "--ops", "0", "--shutdown", "1"]).unwrap();
        let served = server.join().unwrap().unwrap();
        let [total, local, dropped, skipped, taken, unrecorded] = coverage_counts(&served);
        assert_eq!(total, 200_000, "{served}");
        assert_eq!(local + remote + dropped + skipped, total, "remote {remote}: {served}");
        assert_eq!((taken, unrecorded), (remote, 0), "{served}");
    }

    /// A cluster node past the head counts the increments forwarded to
    /// it but records none of them (recording is the head's): its served
    /// audit must say so instead of reading clean over nothing, while the
    /// head's covers every operation it served.
    #[test]
    fn served_audit_on_a_cluster_tail_names_what_it_did_not_record() {
        let (tail, tail_addr) = spawn_serve(
            "unrecorded_tail",
            &["8", "--cluster", "1/2", "--audit", "1", "--max-conns", "8"],
        );
        let (head, head_addr) = spawn_serve(
            "unrecorded_head",
            &["8", "--cluster", "0/2", "--peers", &tail_addr, "--audit", "1", "--max-conns", "8"],
        );
        // One sequential client, so the head's own verdict is clean.
        let out = call(&[
            "loadgen",
            "--addr",
            &head_addr,
            "--cluster",
            "1",
            "--threads",
            "1",
            "--ops",
            "400",
            "--batch",
            "16",
            "--check",
            "1",
        ])
        .unwrap();
        assert!(out.contains("permutation 0..400: true"), "{out}");
        for addr in [&tail_addr, &head_addr] {
            call(&["loadgen", "--addr", addr, "--ops", "0", "--shutdown", "1"]).unwrap();
        }
        let tail_out = tail.join().unwrap().unwrap();
        let head_out = head.join().unwrap().unwrap();
        assert!(
            tail_out.contains("audit coverage: 400 served, 0 audited, 0 dropped"),
            "{tail_out}"
        );
        let want = "\naudit verdict: incomplete (400 served ops not recorded for this audit)\n";
        assert!(tail_out.ends_with(want), "{tail_out}");
        assert_eq!(coverage_counts(&head_out), [400, 400, 0, 0, 0, 0], "{head_out}");
        assert!(head_out.ends_with("\naudit verdict: clean\n"), "{head_out}");
    }

    /// A partial remote pull: the served audit covers the rest and names what it missed.
    #[test]
    fn served_audit_after_a_partial_remote_pull_names_the_part_it_missed() {
        let (server, addr) = spawn_serve(
            "partial_pull",
            &["8", "--backend", "fetch_add", "--audit", "1", "--max-conns", "8"],
        );
        let out = call(&["loadgen", "--addr", &addr, "--threads", "2", "--ops", "300"]).unwrap();
        assert!(out.contains("permutation 0..300: true"), "{out}");
        let audit = call(&["audit", "8", "--backend", "cluster", "--addr", &addr])
            .unwrap_or_else(|report| report);
        assert!(audit.contains("audit coverage: 300 served, 300 audited"), "{audit}");
        // These 100 take the values 300..400, so skip the 0..n check.
        call(&["loadgen", "--addr", &addr, "--ops", "100", "--check", "0", "--shutdown", "1"])
            .unwrap();
        let served = server.join().unwrap().unwrap();
        assert!(served.contains("increments:  400"), "{served}");
        assert_eq!(coverage_counts(&served), [400, 100, 0, 0, 300, 0], "{served}");
        let want = "\naudit verdict: incomplete (300 taken by another puller)\n";
        assert!(served.ends_with(want), "{served}");
    }

    #[test]
    fn a_reordering_reads_as_violations_whatever_its_lateness() {
        use cnet_core::{op::op, trace::OpSink};
        // Process 1's 0 starts after process 0's 1 ends: SC, not linearizable,
        // QQC lateness 1 — and no backend's contract forgives it.
        let mut late = StreamingAuditor::new();
        late.record(op(0, 0.0, 1.0, 1));
        late.record(op(1, 2.0, 3.0, 0));
        assert!(late.is_sequentially_consistent() && !late.is_linearizable());
        let whole = Coverage { served: 2, audited: 2, ..Coverage::default() };
        let verdict = render_verdict(&late, None, &whole);
        assert!(verdict.starts_with("audit coverage: 2 served, 2 audited, 0 dropped"));
        assert!(verdict.contains("linearizable:            false"), "{verdict}");
        assert!(verdict.contains("qqc lateness: max 1"), "{verdict}");
        assert!(verdict.ends_with("\naudit verdict: violations detected\n"), "{verdict}");
        let mut clean = StreamingAuditor::new();
        clean.record(op(0, 0.0, 1.0, 0));
        clean.record(op(1, 2.0, 3.0, 1));
        let verdict = render_verdict(&clean, Some(1000.0), &whole);
        assert!(verdict.contains("audited rate: 1000 ops/s (wall clock)\n"), "{verdict}");
        assert!(verdict.ends_with("\naudit verdict: clean\n"), "{verdict}");
        // The verdict word is the coverage's, misses named.
        let dropped = Coverage { served: 7, dropped: 5, ..whole };
        let verdict = render_verdict(&clean, None, &dropped);
        assert!(verdict.ends_with("\naudit verdict: incomplete (5 dropped)\n"), "{verdict}");
    }

    /// The sticky regression for the audit pipeline: a cluster audit with
    /// server-side sampling must still *fail closed* on a corrupted
    /// history. `--inject SEED` re-stamps one sampled op past the end of
    /// the run, and the exit code must go nonzero.
    #[test]
    fn cluster_audit_with_sampling_fails_closed_on_injected_violation() {
        // Twice the loadgen's four connections: the audit dials while the
        // server may not have reaped those four yet.
        let (server, addr) = spawn_serve(
            "inject",
            &["8", "--audit", "1", "--audit-sample", "4", "--max-conns", "8"],
        );
        // Pipelined single increments reach the server as coalesced runs;
        // `record_batch` samples by operation inside a run, so the 1-in-4
        // stride skips three values in four however the frames arrive.
        let out = call(&[
            "loadgen",
            "--addr",
            &addr,
            "--threads",
            "4",
            "--ops",
            "2000",
            "--mode",
            "pipeline",
        ])
        .unwrap();
        assert!(out.contains("permutation 0..2000: true"), "{out}");
        let report =
            call(&["audit", "8", "--backend", "cluster", "--addr", &addr, "--inject", "42"])
                .unwrap_err();
        assert!(report.contains("fault injection (seed 42)"), "{report}");
        assert!(report.contains("audit verdict: violations detected"), "{report}");
        // 1-in-4 sampling really was on server-side: skips crossed the wire.
        let [served, audited, _, skipped, ..] = coverage_counts(&report);
        assert!(skipped > 0, "{report}");
        assert_eq!(audited + skipped, served, "{report}");
        let out = call(&["loadgen", "--addr", &addr, "--ops", "0", "--shutdown", "1"]).unwrap();
        assert!(out.contains("shutdown requested and acknowledged"), "{out}");
        let _ = server.join().unwrap();
    }

    #[test]
    fn audit_single_thread_is_clean_on_every_backend() {
        // One thread: operations are totally ordered in real time and the
        // values strictly increase, so every backend must audit clean —
        // this is the deterministic smoke `scripts/verify.sh` relies on.
        for backend in Backend::ALL.map(Backend::name) {
            let out = call(&["audit", "8", "--backend", backend, "--ops", "300"]).unwrap();
            assert_eq!(coverage_counts(&out), [300, 300, 0, 0, 0, 0], "{backend}: {out}");
            assert!(out.contains("linearizable:            true"), "{backend}: {out}");
            assert!(out.contains("qqc lateness: max 0"), "{backend}: {out}");
            // The run's rate sits on the line after its lateness: one audited
            // run gives a point of the throughput-vs-lateness frontier.
            let rate = out.lines().skip_while(|l| !l.starts_with("qqc lateness:")).nth(1);
            assert!(
                rate.is_some_and(
                    |l| l.starts_with("audited rate: ") && l.ends_with(" ops/s (wall clock)")
                ),
                "{backend}: {out}"
            );
            assert!(out.ends_with("\naudit verdict: clean\n"), "{backend}: {out}");
        }
    }

    /// Every registry backend is serveable: boot it, count through the
    /// socket, drain.
    #[test]
    fn serve_builds_and_serves_every_backend() {
        for backend in Backend::ALL.map(Backend::name) {
            let (server, addr) =
                spawn_serve(&format!("serve_{backend}"), &["4", "--backend", backend]);
            let out = call(&[
                "loadgen",
                "--addr",
                &addr,
                "--threads",
                "2",
                "--ops",
                "400",
                "--shutdown",
                "1",
            ])
            .unwrap();
            assert!(out.contains("permutation 0..400: true"), "{backend}: {out}");
            let served = server.join().unwrap().unwrap();
            assert!(served.contains("increments:  400"), "{backend}: {served}");
        }
    }

    #[test]
    fn audit_reports_fractions_and_family() {
        // Two threads on two CPUs may genuinely overtake (the paper's
        // phenomenon): the report is then the error. Its shape is the
        // subject here, not its verdict.
        let out = call(&["audit", "4", "--family", "periodic", "--threads", "2", "--ops", "200"])
            .unwrap_or_else(|report| report);
        assert!(out.contains("backend=compiled family=periodic w=4, 2 threads x 200 ops"));
        assert!(out.contains("audit coverage: 400 served, 400 audited"), "{out}");
        assert!(out.contains("F_nl  ="));
        assert!(out.contains("F_nsc ="));
        assert!(out.contains("audit verdict:"));
    }

    /// `cnet audit --backend remote` runs the client-side audit against a
    /// live socket: intervals include the wire, every op still accounted.
    #[test]
    fn audit_remote_backend_runs_against_a_live_serve() {
        let (server, addr) = spawn_serve("audit_remote", &["4", "--backend", "fetch_add"]);
        let out = call(&[
            "audit",
            "4",
            "--backend",
            "remote",
            "--addr",
            &addr,
            "--threads",
            "2",
            "--ops",
            "200",
        ])
        .unwrap();
        assert!(out.contains("backend=remote"), "{out}");
        assert!(out.contains("audit coverage: 400 served, 400 audited"), "{out}");
        assert!(out.contains("audit verdict:"), "{out}");
        call(&["loadgen", "--addr", &addr, "--ops", "1", "--check", "0", "--shutdown", "1"])
            .unwrap();
        server.join().unwrap().unwrap();
        assert!(call(&["audit", "4", "--backend", "remote"]).unwrap_err().contains("needs --addr"));
    }

    #[test]
    fn audit_rejects_bad_arguments() {
        assert!(call(&["audit"]).unwrap_err().contains("cnet audit <w>"));
        assert!(call(&["audit", "six"]).unwrap_err().contains("not a valid width"));
        // The error lists the registry's names and the two CLI-level ones;
        // `serve` lists the registry alone.
        let err = call(&["audit", "8", "--backend", "quantum"]).unwrap_err();
        assert!(err.contains("unknown backend") && err.contains("combining"), "{err}");
        assert!(err.ends_with("lock, remote, cluster)"), "{err}");
        let err = call(&["serve", "8", "--backend", "remote"]).unwrap_err();
        assert!(err.ends_with("lock)"), "{err}");
        assert!(usage().contains("compiled|combining|"));
        // The pre-compilation traversal is gone, and its name with it.
        let err = call(&["serve", "8", "--backend", "graph_walk"]).unwrap_err();
        assert!(
            err.contains("unknown backend") && err.contains("one of: compiled, combining,"),
            "{err}"
        );
        assert!(call(&["audit", "8", "--bogus", "1"]).unwrap_err().contains("unknown flag"));
        for command in ["audit", "serve"] {
            let err = call(&[command, "8", "--sub-counters", "8"]).unwrap_err();
            assert_eq!(err, "unknown flag --sub-counters", "{command}");
        }
        assert!(call(&["audit", "6"]).is_err()); // not a power of two
    }

    #[test]
    fn save_and_replay_round_trip() {
        let path = std::env::temp_dir().join("cnet_cli_test_waves.json");
        let path_str = path.to_str().unwrap();
        let saved = call(&["waves", "bitonic", "8", "--ell", "1", "--save", path_str]).unwrap();
        assert!(saved.contains("schedule saved"));
        let replayed = call(&["replay", "bitonic", "8", "--from", path_str]).unwrap();
        assert!(replayed.contains("linearizable:            false"));
        // Replaying against the wrong fan is rejected.
        let err = call(&["replay", "bitonic", "4", "--from", path_str]).unwrap_err();
        assert!(err.contains("artifact targets w=8"));
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn replay_reports_missing_file() {
        let err = call(&["replay", "bitonic", "8", "--from", "/nonexistent/x.json"]).unwrap_err();
        assert!(err.contains("read /nonexistent/x.json"));
    }
}
