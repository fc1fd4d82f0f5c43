//! An inconsistency monitor: how consistency degrades as a deployment's
//! timing assumptions erode.
//!
//! Sweeps the asynchrony ratio `c_max/c_min` of simulated schedules on a
//! bitonic counting network across the paper's thresholds and reports, at
//! each point, which timing conditions still hold and the worst observed
//! inconsistency fractions (random schedules plus the paper's adversarial
//! wave schedule once it applies).
//!
//! Run: `cargo run --release -p cnet-bench --example inconsistency_monitor`

use cnet_core::conditions::TimingCondition;
use cnet_core::fractions::{non_linearizability_fraction, non_sequential_consistency_fraction};
use cnet_core::op::Op;
use cnet_core::theory;
use cnet_sim::adversary::bitonic_three_wave;
use cnet_sim::engine::run;
use cnet_sim::timing::TimingParams;
use cnet_sim::workload::{generate, WorkloadConfig};
use cnet_topology::construct::bitonic;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let w = 16usize;
    let net = bitonic(w)?;
    let wave_threshold = theory::bitonic_wave_threshold(w);
    println!(
        "monitoring B({w}): depth {}, LSST sufficiency at ratio 2, wave threshold {:.2}\n",
        net.depth(),
        wave_threshold
    );
    println!(
        "{:>6} | {:>9} | {:>9} | {:>12} | {:>12}",
        "ratio", "ratio<=2", "local-OK", "worst F_nl", "worst F_nsc"
    );

    for ratio in [1.5, 2.0, 2.5, 3.0, wave_threshold + 0.01, 6.0, 10.0] {
        let mut worst_nl = 0.0f64;
        let mut worst_nsc = 0.0f64;
        // Random traffic at this asynchrony.
        let cfg = WorkloadConfig {
            processes: w,
            tokens_per_process: 5,
            c_min: 1.0,
            c_max: ratio,
            local_delay: 0.0,
            start_spread: 2.0,
        };
        let mut params = TimingParams::default();
        for seed in 0..100 {
            let specs = generate(&net, &cfg, seed);
            let exec = run(&net, &specs)?;
            params = TimingParams::measure(&exec);
            let ops = Op::from_execution(&exec);
            worst_nl = worst_nl.max(non_linearizability_fraction(&ops));
            worst_nsc = worst_nsc.max(non_sequential_consistency_fraction(&ops));
        }
        // The adversarial waves, once the asynchrony admits them.
        if ratio > wave_threshold {
            let sched = bitonic_three_wave(&net, 1.0, ratio)?;
            let exec = run(&net, &sched.specs)?;
            let ops = Op::from_execution(&exec);
            worst_nl = worst_nl.max(non_linearizability_fraction(&ops));
            worst_nsc = worst_nsc.max(non_sequential_consistency_fraction(&ops));
        }
        println!(
            "{ratio:>6.2} | {:>9} | {:>9} | {worst_nl:>12.3} | {worst_nsc:>12.3}",
            TimingCondition::RatioAtMostTwo.holds(&params),
            TimingCondition::local_delay(&net).holds(&params),
        );
    }

    println!(
        "\nReading: at ratio <= 2 every schedule is consistent (the sufficient region);\n\
         past the wave threshold {:.2} an adversary can push one third of all operations\n\
         into inconsistency — and if your application only needs per-process montonicity,\n\
         restoring it takes only the LOCAL delay bound of Theorem 4.1, not global timing.",
        wave_threshold
    );
    Ok(())
}
