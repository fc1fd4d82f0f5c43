//! Table 1: known necessary and sufficient timing conditions for
//! linearizability in counting networks — checked empirically, and (per
//! Theorem 3.2) read simultaneously as conditions for sequential
//! consistency.
//!
//! * **Sufficiency** rows: thousands of random schedules whose *measured*
//!   parameters satisfy the condition; a correct sufficiency theorem admits
//!   zero violations.
//! * **Necessity** rows: explicit adversarial schedules *just above* the
//!   threshold that do violate both conditions — so no weaker bound on the
//!   ratio can suffice.
//!
//! Run: `cargo run --release -p cnet-bench --bin exp_table1`

use cnet_bench::{sufficiency_scan, Table};
use cnet_core::conditions::TimingCondition;
use cnet_core::consistency::{is_linearizable, is_sequentially_consistent};
use cnet_core::op::Op;
use cnet_sim::adversary::{bitonic_three_wave, holding_race};
use cnet_sim::engine::run;
use cnet_sim::workload::WorkloadConfig;
use cnet_topology::construct::{bitonic, counting_tree, periodic};
use cnet_topology::Network;

const SEEDS: u64 = 300;

fn scan_row(table: &mut Table, label: &str, net: &Network, condition: TimingCondition, c_max: f64) {
    let cfg = WorkloadConfig {
        processes: net.fan_in().clamp(2, 8),
        tokens_per_process: 4,
        c_min: 1.0,
        c_max,
        local_delay: 0.0,
        start_spread: 2.0 * c_max,
    };
    let report = sufficiency_scan(net, &cfg, condition, SEEDS);
    table.row(vec![
        label.to_string(),
        condition.to_string(),
        format!("{} schedules", report.schedules_checked),
        report.linearizability_violations.to_string(),
        report.sequential_consistency_violations.to_string(),
    ]);
}

fn main() {
    println!("== Table 1: timing conditions for linearizability (and, by Theorem 3.2, for sequential consistency) ==\n");

    println!("--- Sufficient conditions: random schedules satisfying each condition must show ZERO violations ---\n");
    let mut table = Table::new(vec![
        "network",
        "condition (satisfied by measurement)",
        "sample",
        "non-lin",
        "non-SC",
    ]);
    let b8 = bitonic(8).unwrap();
    let b16 = bitonic(16).unwrap();
    let p8 = periodic(8).unwrap();
    let t8 = counting_tree(8).unwrap();

    // LSST99 Cor 3.10: ratio <= 2 (uniform networks).
    scan_row(&mut table, "B(8)", &b8, TimingCondition::RatioAtMostTwo, 2.0);
    scan_row(&mut table, "B(16)", &b16, TimingCondition::RatioAtMostTwo, 2.0);
    scan_row(&mut table, "P(8)", &p8, TimingCondition::RatioAtMostTwo, 2.0);
    scan_row(&mut table, "Tree(8)", &t8, TimingCondition::RatioAtMostTwo, 2.0);
    // MPT97 Thm 4.1: ratio <= 2 s(G)/d(G) (arbitrary networks; = 2 when uniform).
    scan_row(&mut table, "B(8)", &b8, TimingCondition::mpt_sufficient(&b8), 2.0);
    // LSST99 Cor 3.7: d (c_max - 2 c_min) < C_g. Generate well-spaced
    // schedules (big envelopes, small ratio) and let the measured C_g decide.
    scan_row(&mut table, "B(8)", &b8, TimingCondition::global_delay(&b8), 1.9);
    scan_row(&mut table, "P(8)", &p8, TimingCondition::global_delay(&p8), 1.9);
    println!("{table}");

    println!("--- Necessary conditions: adversarial schedules just above each threshold violate both ---\n");
    let mut table = Table::new(vec![
        "network",
        "threshold exceeded",
        "ratio used",
        "linearizable?",
        "seq. consistent?",
    ]);

    // Bitonic / tree necessity at ratio 2 (LSST99 Thms 4.3/4.1), shown tight
    // here for depth-1 instances by the holding race (threshold d+1).
    for (label, net) in [("B(2)", bitonic(2).unwrap()), ("Tree(2)", counting_tree(2).unwrap())] {
        let race = holding_race(&net, 1.0, 2.01, true).unwrap();
        let exec = run(&net, &race.specs).unwrap();
        let ops = Op::from_execution(&exec);
        table.row(vec![
            label.to_string(),
            "c_max/c_min <= 2 (LSST99 necessity)".to_string(),
            "2.01".to_string(),
            is_linearizable(&ops).to_string(),
            is_sequentially_consistent(&ops).to_string(),
        ]);
    }
    // MPT97 Thm 3.1 necessity: d/irad + 1 = (lg w + 3)/2 for B(w); the
    // three-wave construction violates just above it.
    for w in [8usize, 16, 32] {
        let net = bitonic(w).unwrap();
        let threshold = (w.trailing_zeros() as f64 + 3.0) / 2.0;
        let sched = bitonic_three_wave(&net, 1.0, threshold + 0.01).unwrap();
        let exec = run(&net, &sched.specs).unwrap();
        let ops = Op::from_execution(&exec);
        table.row(vec![
            format!("B({w})"),
            format!("c_max/c_min <= d/irad + 1 = {threshold} (MPT97 necessity)"),
            format!("{:.2}", threshold + 0.01),
            is_linearizable(&ops).to_string(),
            is_sequentially_consistent(&ops).to_string(),
        ]);
    }
    // Deep holding races: any uniform network violates above d+1.
    for (label, net) in [
        ("B(8)", bitonic(8).unwrap()),
        ("P(8)", periodic(8).unwrap()),
        ("Tree(8)", counting_tree(8).unwrap()),
    ] {
        let d = net.depth() as f64;
        let race = holding_race(&net, 1.0, d + 1.01, true).unwrap();
        let exec = run(&net, &race.specs).unwrap();
        let ops = Op::from_execution(&exec);
        table.row(vec![
            label.to_string(),
            format!("holding race, c_max/c_min > d+1 = {}", d + 1.0),
            format!("{:.2}", d + 1.01),
            is_linearizable(&ops).to_string(),
            is_sequentially_consistent(&ops).to_string(),
        ]);
    }
    println!("{table}");
    println!(
        "Reading: every 'false/false' row certifies the execution violates BOTH conditions,\n\
         so conditions on c_min/c_max/C_g alone cannot separate them (Theorem 3.2)."
    );
}
