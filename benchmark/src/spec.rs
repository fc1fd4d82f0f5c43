//! The benchmark's contract: every workload and every metric by name, with
//! its unit, its direction and, for the end-to-end ones, the bound by which
//! it may worsen before a change counts as a regression.
//!
//! `BENCHMARK.json` at the repository root is this module rendered
//! ([`manifest`]); the self-test fails when the two drift apart.

use cnet_util::json::Value;

/// Which way is better.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

/// One named metric.
#[derive(Clone, Copy, Debug)]
pub struct Metric {
    /// Letters, digits, `_`, `.` and `-` only.
    pub name: &'static str,
    /// The unit the value is printed in.
    pub unit: &'static str,
    /// Which way is better.
    pub better: Better,
    /// End-to-end metrics: the share of the parent's median by which the
    /// metric may get worse. Per-layer metrics carry no bound.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric { name, unit, better, bound: Some(bound) }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric { name, unit, better, bound: None }
}

/// How long one run measures, in seconds: the `--seconds` default.
pub const RUN_SECONDS: u32 = 15;

/// The workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Two threads on the shared-memory network.
    MemToken,
    /// One frame per round trip, recorded and audited live.
    TcpToken,
    /// 256 pipelined frames per burst.
    TcpPipeline,
    /// Batches of 64 through a two-node fabric.
    Cluster2Batch,
    /// A simulated trace through the sharded audit.
    AuditReplay,
}

impl Workload {
    /// Every workload, in the order they run and print.
    pub const ALL: [Workload; 5] = [
        Workload::MemToken,
        Workload::TcpToken,
        Workload::TcpPipeline,
        Workload::Cluster2Batch,
        Workload::AuditReplay,
    ];

    /// The name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::MemToken => "mem_token",
            Workload::TcpToken => "tcp_token",
            Workload::TcpPipeline => "tcp_pipeline",
            Workload::Cluster2Batch => "cluster2_batch",
            Workload::AuditReplay => "audit_replay",
        }
    }

    /// The workload called `name`.
    pub fn named(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The one sentence of why it exists.
    pub fn why(self) -> &'static str {
        match self {
            Workload::MemToken => {
                "2 pinned threads loop next_for on one shared-memory B(8): only runtime::compiled \
                 works, the paper's contention claim; bypasses net, wire, recorder and trace"
            }
            Workload::TcpToken => {
                "1 frame per round trip over loopback with full recording and a live audit: \
                 wakeups, syscalls and switches dominate; the only rate at which the audit must \
                 see every op"
            }
            Workload::TcpPipeline => {
                "256 pipelined frames per burst, no recorder: syscalls amortise, so per-frame CPU \
                 in wire, dispatch and client dominates; bypasses recorder and trace"
            }
            Workload::Cluster2Batch => {
                "batches of 64 through a 2-node fabric: net::router's forward burst and the \
                 batched traversal work; the only workload where a hop costs more than the client \
                 call"
            }
            Workload::AuditReplay => {
                "a seeded simulated trace with 2-3% non-linearizable ops through the sharded \
                 audit: core::trace does all the work, including the lateness term a clean trace \
                 never pays"
            }
        }
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees, measured with tracing off.
///
/// Every bound is the contract's maximum, a quarter of the parent's median.
/// On the two-vCPU sandbox the host flips a vCPU between full speed and a
/// shared mode a quarter to a third slower, for seconds at a time, and over
/// an hour the same code's run medians wander by ten percent and, on
/// `cluster2_batch`, by twenty. A bound the benchmark cannot hold against
/// itself would reject every later change, so smaller effects are for the
/// paired method of the README, not for the bound.
///
/// Two things a user also sees are not in this table. Operations attempted
/// and failed are the `attempted` and `failed` fields of every result line,
/// and any failure makes the run incorrect, which is stricter than a share.
/// `rtt_p99_us` did not repeat within any allowed bound in A/A runs (its
/// run medians spread by 18 to 59 percent), so it is a per-layer metric.
pub const END_TO_END: &[Metric] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("ops_per_s", "1/s", Higher, 0.25),
    e2e("cpu_ns_per_op", "ns", Lower, 0.25),
    e2e("rtt_p50_us", "us", Lower, 0.25),
    e2e("rss_peak_mb", "MB", Lower, 0.25),
];

/// Single layers, measured in the traced run: by the replay ladder in
/// isolation, by thread CPU clocks, or from the layers' public counters.
pub const PER_LAYER: &[Metric] = &[
    // Set-up stages, timed by the ladder.
    layer("topology.build_ms", "ms", Lower),
    layer("compiled.compile_ms", "ms", Lower),
    layer("server.start_ms", "ms", Lower),
    layer("client.dial_ms", "ms", Lower),
    layer("sim.generate_ms", "ms", Lower),
    layer("sim.run_ms", "ms", Lower),
    // runtime::compiled and the baseline it is compared with.
    layer("compiled.traverse_ns_1t", "ns", Lower),
    layer("compiled.traverse_ns_2t", "ns", Lower),
    layer("compiled.scaling_2t", "ratio", Higher),
    layer("compiled.batch64_ns_per_op", "ns", Lower),
    layer("baseline.fetch_add_ns_2t", "ns", Lower),
    // runtime::recorder.
    layer("recorder.record_ns", "ns", Lower),
    layer("recorder.pull_ns_per_event", "ns", Lower),
    layer("recorder.retention", "ratio", Higher),
    layer("recorder.dropped", "count", Lower),
    layer("recorder.skipped", "count", Lower),
    // core::trace.
    layer("trace.observe_ns_per_event", "ns", Lower),
    layer("trace.merge_ns_per_event", "ns", Lower),
    layer("trace.audit_cpu_ns_per_op", "ns", Lower),
    layer("trace.final_merge_ms", "ms", Lower),
    layer("trace.coverage", "ratio", Higher),
    layer("trace.buffered_peak", "count", Lower),
    layer("trace.non_lin", "count", Lower),
    layer("trace.non_sc", "count", Lower),
    layer("trace.qqc_max", "count", Lower),
    layer("trace.qqc_p99", "count", Lower),
    layer("trace.f_nl", "ratio", Lower),
    // net::wire.
    layer("wire.req_encode_ns", "ns", Lower),
    layer("wire.req_decode_ns", "ns", Lower),
    layer("wire.resp_encode_ns", "ns", Lower),
    layer("wire.resp_decode_ns", "ns", Lower),
    layer("wire.batch64_encode_ns_per_op", "ns", Lower),
    layer("wire.batch64_decode_ns_per_op", "ns", Lower),
    layer("wire.bytes_per_op", "count", Lower),
    // net::server.
    layer("server.cpu_ns_per_op", "ns", Lower),
    layer("server.wakeups_per_op", "ratio", Lower),
    layer("server.events_per_wakeup", "ratio", Higher),
    layer("server.frames_per_wakeup", "ratio", Higher),
    layer("server.allocs_per_op", "count", Lower),
    layer("process.sys_share", "ratio", Lower),
    // net::client.
    layer("client.cpu_ns_per_op", "ns", Lower),
    layer("client.allocs_per_op", "count", Lower),
    // net::router.
    layer("router.hop_cpu_ns_per_op", "ns", Lower),
    layer("router.head_cpu_ns_per_op", "ns", Lower),
    layer("router.tail_cpu_ns_per_op", "ns", Lower),
    layer("router.forward_frames_per_batch", "ratio", Lower),
    // The tail, and the benchmark itself.
    layer("rtt_p99_us", "us", Lower),
    layer("ladder.unattributed_share", "ratio", Lower),
    layer("bench.trace_overhead_share", "ratio", Lower),
];

/// Finds a metric of either table by name.
pub fn metric(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

fn text(s: &str) -> Value {
    Value::Str(s.to_string())
}

/// A JSON object with `fields` in the order given.
pub fn object(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn metric_value(m: &Metric) -> Value {
    let better = match m.better {
        Lower => "lower",
        Higher => "higher",
    };
    let mut fields = vec![("name", text(m.name)), ("unit", text(m.unit)), ("better", text(better))];
    fields.extend(m.bound.map(|b| ("bound", Value::Float(b))));
    object(fields)
}

/// `BENCHMARK.json`, rendered from the tables above.
pub fn manifest() -> Value {
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
        "run",
    ];
    let workloads = Workload::ALL
        .iter()
        .map(|w| object(vec![("name", text(w.name())), ("why", text(w.why()))]));
    object(vec![
        ("command", Value::Array(command.iter().map(|s| text(s)).collect())),
        ("paths", Value::Array(vec![text("benchmark")])),
        ("run_seconds", Value::Int(i64::from(RUN_SECONDS))),
        ("workloads", Value::Array(workloads.collect())),
        ("end_to_end", Value::Array(END_TO_END.iter().map(metric_value).collect())),
        ("per_layer", Value::Array(PER_LAYER.iter().map(metric_value).collect())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn well_formed(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_units_and_whys_fit_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(well_formed(m.name), "{}", m.name);
            assert!(seen.insert(m.name), "{} used twice", m.name);
            assert!(
                m.unit.len() <= 16
                    && m.unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{}",
                m.unit
            );
        }
        for w in Workload::ALL {
            let (name, why) = (w.name(), w.why());
            assert!(well_formed(name) && seen.insert(name), "{name}");
            assert!(why.len() <= 200 && !why.contains('\n'), "{name}: {} chars", why.len());
            assert_eq!(Workload::named(name), Some(w));
        }
        assert!((2..=8).contains(&Workload::ALL.len()));
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }

    #[test]
    fn end_to_end_bounds_fit_the_contract() {
        for m in END_TO_END {
            let b = m.bound.expect("end-to-end metrics carry a bound");
            assert!(b > 0.0 && b <= 0.25, "{}", m.name);
        }
        let setup = metric("setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Lower));
        let largest = END_TO_END.iter().filter_map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(largest), "set-up time gets the largest bound");
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
    }
}
