//! `cnet-benchmark run [--workload W] [--seed N] [--seconds S] [--trace [0|1]] [--aa]`
//!
//! With `--workload`, runs that workload in this process and ends its
//! output with the one-line JSON result. Without, runs every workload, each
//! in a child process of its own so that peak memory, affinity and
//! allocator state start clean, and prints a summary; `--aa` runs the whole
//! untraced set twice and fails if any end-to-end metric disagrees with
//! itself beyond its bound.
//!
//! `cnet-benchmark manifest` prints `BENCHMARK.json` from the spec tables.

use cnet_benchmark::load::Plan;
use cnet_benchmark::service::{run_service, Call, ServiceSpec};
use cnet_benchmark::spans::{set_role, write_trace, CountingAlloc, Role, Tracer};
use cnet_benchmark::spec::{manifest, Better, Workload, END_TO_END, RUN_SECONDS};
use cnet_benchmark::stats::median;
use cnet_benchmark::sys::{self, Host};
use cnet_benchmark::{ladder, mem, replay, report, Cpus, Ctx, Run};
use cnet_util::json::{parse, Value};
use std::io::{BufRead, BufReader};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Set-up is repeated until it has run this often and for this long (or a
/// thousand times), and reported as the median: a single server start is a
/// millisecond of thread spawns and loopback connects, far too noisy alone.
const MIN_SETUPS: usize = 5;
const MIN_SETUP_TIME: Duration = Duration::from_millis(500);
const MAX_SETUPS: usize = 1000;

const USAGE: &str = "usage: cnet-benchmark run [--workload W] [--seed N] [--seconds S] \
                     [--trace [0|1]] [--aa]\n       cnet-benchmark manifest";

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: u32,
    traced: bool,
    aa: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args { workload: None, seed: 1, seconds: RUN_SECONDS, traced: false, aa: false };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{arg} needs {what}")).cloned();
        match arg.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                out.workload = Some(Workload::named(&name).ok_or_else(|| {
                    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {name}; one of {}", names.join(", "))
                })?);
            }
            "--seed" => {
                out.seed = value("a number")?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                out.seconds = value("a number")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&out.seconds) {
                    return Err("--seconds must be 1 to 60".to_string());
                }
            }
            // A bare `--trace` means 1; the driver always passes the value.
            "--trace" => match it.peek().map(|s| s.as_str()) {
                Some(v @ ("0" | "1")) => {
                    out.traced = v == "1";
                    it.next();
                }
                _ => out.traced = true,
            },
            "--aa" => out.aa = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(out)
}

fn workload_run(workload: Workload, ctx: &Ctx, dry: bool) -> Result<Run, String> {
    let service =
        |call, nodes, sample_k| run_service(&ServiceSpec { call, nodes, sample_k }, ctx, dry);
    match workload {
        Workload::MemToken => mem::run_mem(ctx, dry),
        Workload::TcpToken => service(Call::Single, 1, Some(1)),
        Workload::TcpPipeline => service(Call::Pipelined(256), 1, None),
        Workload::Cluster2Batch => service(Call::Batch(64), 2, None),
        Workload::AuditReplay => replay::run_replay(ctx, dry),
    }
}

/// Runs one workload in this process. `Ok(correct)`, or `Err` when the
/// environment cannot give meaningful numbers at all.
fn run_one(workload: Workload, args: &Args) -> Result<bool, String> {
    let host = Host::read().map_err(|e| format!("reading the host fingerprint: {e}"))?;
    let refuse = |why: String| {
        format!("refusing to run: {why}\n(allowed cpus {:?}, pinned=false)", host.cpus)
    };
    let cpus = Cpus::pick().map_err(refuse)?;
    // Everything this thread spawns from here on, server threads included,
    // inherits the first CPU.
    sys::pin_current_thread(cpus.first)
        .map_err(|e| refuse(format!("pinning to cpu {}: {e}", cpus.first)))?;
    set_role(Role::Bench);
    let plan = if args.traced { Plan::traced(args.seconds) } else { Plan::untraced(args.seconds) };
    report::print_fingerprint(&host, &cpus, workload, args.seed, args.seconds, &plan);
    let ctx = Ctx { seed: args.seed, plan, cpus, origin: Instant::now() };

    let mut setups = Vec::new();
    let repeating = Instant::now();
    // Dry set-ups before the one the run keeps. The traced run does not
    // report set-up time, so it sets up once.
    while !args.traced
        && setups.len() + 1 < MAX_SETUPS
        && (setups.len() + 1 < MIN_SETUPS || repeating.elapsed() < MIN_SETUP_TIME)
    {
        setups.push(workload_run(workload, &ctx, true).map_err(refuse)?.setup_s);
    }
    let run = workload_run(workload, &ctx, false).map_err(refuse)?;
    setups.push(run.setup_s);
    println!("set-ups: {} (median reported)", setups.len());

    let metrics = if args.traced {
        let rungs = ladder::climb(&ctx, Duration::from_secs_f64(f64::from(args.seconds) / 3.0))
            .map_err(refuse)?;
        let path = format!("benchmark/out/trace-{}.json", workload.name());
        let tracers: Vec<&Tracer> = run.tracers.iter().collect();
        write_trace(std::path::Path::new(&path), workload.name(), &tracers)
            .map_err(|e| format!("writing {path}: {e}"))?;
        println!("spans written to {path}");
        report::per_layer(workload, &run, &rungs)
    } else {
        let rss = sys::vm_hwm_mb().ok_or("no VmHWM in /proc/self/status")?;
        report::end_to_end(&run, median(&setups), rss)
    };
    report::print_run(&run, &metrics);
    let (attempted, failed) = report::attempted_failed(&run);
    println!(
        "ops_attempted={attempted} ops_failed={failed} failed_share={}",
        failed as f64 / attempted as f64
    );
    let (correct, line) = report::result_line(&run, &metrics);
    println!("{line}");
    Ok(correct)
}

/// What the parent keeps of one child run.
struct ChildResult {
    correct: bool,
    metrics: Vec<(String, f64, String)>,
    verdict: Option<String>,
}

/// Runs one workload in a child process, echoing its output.
fn run_child(workload: Workload, args: &Args, traced: bool) -> Result<ChildResult, String> {
    let workload = workload.name();
    let exe = std::env::current_exe().map_err(|e| format!("locating this binary: {e}"))?;
    let mut child = Command::new(exe)
        .args(["run", "--workload", workload])
        .args(["--seed", &args.seed.to_string(), "--seconds", &args.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawning the {workload} run: {e}"))?;
    let (mut last, mut verdict) = (String::new(), None);
    for line in BufReader::new(child.stdout.take().expect("piped")).lines() {
        let line = line.map_err(|e| format!("reading the {workload} run: {e}"))?;
        println!("{line}");
        if line.starts_with("verdict ") {
            verdict = Some(line.clone());
        }
        last = line;
    }
    let status = child.wait().map_err(|e| format!("waiting for the {workload} run: {e}"))?;
    let parsed = parse(&last).map_err(|e| format!("{workload} printed no result line: {e}"))?;
    let metrics = match parsed.get("metrics") {
        Some(Value::Object(fields)) => fields
            .iter()
            .map(|(name, m)| {
                let unit = m.get("unit").and_then(Value::as_str).unwrap_or("?").to_string();
                (name.clone(), m.get("value").and_then(Value::as_f64).unwrap_or(f64::NAN), unit)
            })
            .collect(),
        _ => return Err(format!("{workload}: the result line has no metrics")),
    };
    let correct = status.success() && parsed.get("correct").and_then(Value::as_bool) == Some(true);
    Ok(ChildResult { correct, metrics, verdict })
}

fn run_set(args: &Args, traced: bool) -> Result<Vec<(&'static str, ChildResult)>, String> {
    Workload::ALL.into_iter().map(|w| Ok((w.name(), run_child(w, args, traced)?))).collect()
}

fn print_summary(title: &str, set: &[(&'static str, ChildResult)]) {
    println!("\n== {title} ==");
    let Some((_, first)) = set.first() else {
        return;
    };
    print!("{:<32} {:>6}", "metric", "unit");
    set.iter().for_each(|(w, _)| print!(" {w:>15}"));
    println!();
    for (i, (name, _, unit)) in first.metrics.iter().enumerate() {
        print!("{name:<32} {unit:>6}");
        set.iter().for_each(|(_, r)| print!(" {:>15.6}", r.metrics[i].1));
        println!();
    }
    print!("{:<32} {:>6}", "correct", "");
    set.iter().for_each(|(_, r)| print!(" {:>15}", r.correct));
    println!();
}

/// Compares two untraced sets metric by metric against the bounds.
fn print_aa(a: &[(&'static str, ChildResult)], b: &[(&'static str, ChildResult)]) -> bool {
    println!("\n== A/A: the same code measured twice ==");
    println!(
        "{:<16} {:<16} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "first", "second", "diff", "bound"
    );
    let mut agree = true;
    for ((w, ra), (_, rb)) in a.iter().zip(b) {
        for (m, (va, vb)) in END_TO_END
            .iter()
            .zip(ra.metrics.iter().map(|m| m.1).zip(rb.metrics.iter().map(|m| m.1)))
        {
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            let diff = (vb - va).abs() / va.abs();
            // NaN compares false, so an unmeasured side disagrees.
            let ok = diff <= bound;
            agree &= ok;
            let arrow = if m.better == Better::Lower { "lower" } else { "higher" };
            println!(
                "{w:<16} {:<16} {va:>14.6} {vb:>14.6} {:>8.2}% {:>6.0}%  {} ({arrow} is better)",
                m.name,
                diff * 100.0,
                bound * 100.0,
                if ok { "agree" } else { "DISAGREE" },
            );
        }
        if ra.verdict != rb.verdict {
            agree = false;
            println!("{w:<16} verdict lines differ: {:?} vs {:?}", ra.verdict, rb.verdict);
        }
    }
    agree
}

fn run_all(args: &Args) -> Result<bool, String> {
    let first = run_set(args, false)?;
    let mut ok = first.iter().all(|(_, r)| r.correct);
    let second = if args.aa { Some(run_set(args, false)?) } else { None };
    let traced = if args.traced { Some(run_set(args, true)?) } else { None };
    print_summary("end to end (untraced run)", &first);
    if let Some(traced) = &traced {
        ok &= traced.iter().all(|(_, r)| r.correct);
        print_summary("per layer (traced run)", traced);
    }
    if let Some(second) = &second {
        ok &= second.iter().all(|(_, r)| r.correct);
        print_summary("end to end (second untraced run)", second);
        ok &= print_aa(&first, second);
    }
    println!("\n{}", if ok { "all checks passed" } else { "FAILED" });
    Ok(ok)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match argv.split_first() {
        Some((cmd, [])) if cmd == "manifest" => {
            println!("{}", manifest().to_json_string_pretty());
            Ok(true)
        }
        Some((cmd, rest)) if cmd == "run" => {
            parse_args(rest).and_then(|args| match &args.workload {
                Some(w) if !args.aa => run_one(*w, &args),
                Some(_) => Err("--aa runs every workload; drop --workload".to_string()),
                None => run_all(&args),
            })
        }
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(why) => {
            eprintln!("{why}");
            ExitCode::from(2)
        }
    }
}
