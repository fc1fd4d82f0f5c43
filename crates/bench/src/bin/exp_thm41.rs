//! Theorem 4.1 and Corollary 4.5: the local-delay condition
//! `d(G)·(c_max − 2·c_min) < C_L` is sufficient for sequential consistency
//! but **not** for linearizability — the distinguishing timing condition.
//!
//! Three panels:
//!
//! 1. random schedules engineered to satisfy the condition: zero sequential
//!    consistency violations across every seed;
//! 2. the same envelopes *without* the local delay (C_L = 0): the
//!    adversarial wave schedule now violates sequential consistency, so the
//!    bound on C_L is doing real work;
//! 3. Corollary 4.5's witness: an execution that satisfies the condition
//!    vacuously (one token per process) yet is not linearizable.
//!
//! Run: `cargo run --release -p cnet-bench --bin exp_thm41`

use cnet_bench::{local_delay_sufficiency, Table};
use cnet_core::conditions::TimingCondition;
use cnet_core::consistency::{is_linearizable, is_sequentially_consistent};
use cnet_core::op::Op;
use cnet_sim::adversary::bitonic_three_wave;
use cnet_sim::engine::run;
use cnet_sim::ids::ProcessId;
use cnet_sim::timing::TimingParams;
use cnet_topology::construct::{bitonic, periodic};

const SEEDS: u64 = 200;

fn main() {
    println!("== Theorem 4.1: d(G)(c_max - 2 c_min) < C_L  =>  sequentially consistent ==\n");
    let mut table = Table::new(vec![
        "network",
        "ratio",
        "schedules satisfying C_L bound",
        "non-SC",
        "non-lin observed",
    ]);
    for (label, net) in [
        ("B(8)", bitonic(8).unwrap()),
        ("B(16)", bitonic(16).unwrap()),
        ("P(8)", periodic(8).unwrap()),
    ] {
        for ratio in [3.0, 5.0, 8.0] {
            let report = local_delay_sufficiency(&net, ratio, SEEDS);
            table.row(vec![
                label.to_string(),
                format!("{ratio}"),
                report.schedules_checked.to_string(),
                report.sequential_consistency_violations.to_string(),
                report.linearizability_violations.to_string(),
            ]);
        }
    }
    println!("{table}");
    println!(
        "Reading: the C_L bound forces zero non-SC outcomes at any asynchrony ratio\n\
         (column 4), while linearizability may still fail (column 5 counts how many of\n\
         the same schedules were non-linearizable — allowed, since the condition only\n\
         promises sequential consistency).\n"
    );

    println!("== Without the local delay (C_L = 0) the same asynchrony breaks SC ==\n");
    let mut table =
        Table::new(vec!["network", "ratio", "C_L", "condition holds?", "seq. consistent?"]);
    for w in [8usize, 16] {
        let net = bitonic(w).unwrap();
        let threshold = (w.trailing_zeros() as f64 + 3.0) / 2.0;
        let sched = bitonic_three_wave(&net, 1.0, threshold + 0.5).unwrap();
        let exec = run(&net, &sched.specs).unwrap();
        let params = TimingParams::measure(&exec);
        let cond = TimingCondition::local_delay(&net);
        let ops = Op::from_execution(&exec);
        table.row(vec![
            format!("B({w})"),
            format!("{:.2}", threshold + 0.5),
            format!("{:.2}", params.local_delay.unwrap_or(f64::NAN)),
            cond.holds(&params).to_string(),
            is_sequentially_consistent(&ops).to_string(),
        ]);
    }
    println!("{table}");

    println!("== Corollary 4.5: the condition does NOT imply linearizability ==\n");
    let mut table = Table::new(vec![
        "network",
        "C_L (vacuous: one token/process)",
        "condition holds?",
        "linearizable?",
        "seq. consistent?",
    ]);
    for w in [8usize, 16, 32] {
        let net = bitonic(w).unwrap();
        let threshold = (w.trailing_zeros() as f64 + 3.0) / 2.0;
        let mut sched = bitonic_three_wave(&net, 1.0, threshold + 0.5).unwrap();
        // Rename processes so each token has its own (the paper's move in
        // the proof of Corollary 4.5): C_L becomes vacuous (+inf).
        for (i, s) in sched.specs.iter_mut().enumerate() {
            s.process = ProcessId(i);
        }
        let exec = run(&net, &sched.specs).unwrap();
        let params = TimingParams::measure(&exec);
        let cond = TimingCondition::local_delay(&net);
        let ops = Op::from_execution(&exec);
        table.row(vec![
            format!("B({w})"),
            params.local_delay.map_or_else(|| "inf".into(), |v| format!("{v:.2}")),
            cond.holds(&params).to_string(),
            is_linearizable(&ops).to_string(),
            is_sequentially_consistent(&ops).to_string(),
        ]);
    }
    println!("{table}");
    println!(
        "Reading: these executions satisfy the Theorem 4.1 condition (so they are SC, last\n\
         column) yet are not linearizable — the condition distinguishes the two notions."
    );
}
