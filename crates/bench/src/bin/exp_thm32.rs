//! Theorem 3.2: `c_min`, `c_max`, `C_g` cannot distinguish sequential
//! consistency from linearizability.
//!
//! Starting from a non-linearizable-but-sequentially-consistent execution
//! (every token owned by a distinct process), the transformation of
//! `cnet_sim::transform` relabels the earlier witness token to a fresh
//! process and inserts a flushing wave, producing an execution with (up to
//! an infinitesimal skew) the same timing parameters that is **not even
//! sequentially consistent**.
//!
//! Run: `cargo run --release -p cnet-bench --bin exp_thm32`

use cnet_bench::Table;
use cnet_core::consistency::{is_linearizable, is_sequentially_consistent};
use cnet_core::op::Op;
use cnet_sim::adversary::bitonic_three_wave;
use cnet_sim::engine::run;
use cnet_sim::ids::ProcessId;
use cnet_sim::timing::TimingParams;
use cnet_sim::transform::desequentialize;
use cnet_topology::construct::bitonic;

fn show(params: &TimingParams) -> String {
    format!(
        "c_min={:.3} c_max={:.3} C_g={}",
        params.c_min.unwrap_or(f64::NAN),
        params.c_max.unwrap_or(f64::NAN),
        params.global_delay.map_or_else(|| "inf".to_string(), |g| format!("{g:.3}")),
    )
}

fn main() {
    println!("== Theorem 3.2: the non-distinguishing transformation ==\n");
    let mut table = Table::new(vec![
        "w",
        "execution",
        "timing parameters",
        "linearizable?",
        "seq. consistent?",
    ]);
    for w in [8usize, 16, 32] {
        let net = bitonic(w).unwrap();
        // A non-linearizable execution where each token has its own process
        // (hence trivially sequentially consistent). Give wave 3 slack after
        // wave 2 so the transformation has room for its skew.
        let mut sched = bitonic_three_wave(&net, 1.0, 10.0).unwrap();
        for i in sched.wave3.clone() {
            for t in &mut sched.specs[i].step_times {
                *t += 0.5;
            }
        }
        for (i, s) in sched.specs.iter_mut().enumerate() {
            s.process = ProcessId(i);
        }
        let exec = run(&net, &sched.specs).unwrap();
        let ops = Op::from_execution(&exec);
        assert!(is_sequentially_consistent(&ops), "base execution must be SC");
        assert!(!is_linearizable(&ops), "base execution must be non-linearizable");
        let before = TimingParams::measure(&exec);
        table.row(vec![
            w.to_string(),
            "original R_E".to_string(),
            show(&before),
            is_linearizable(&ops).to_string(),
            is_sequentially_consistent(&ops).to_string(),
        ]);

        let outcome = desequentialize(&net, &sched.specs, &exec).unwrap();
        let new_exec = run(&net, &outcome.specs).unwrap();
        let new_ops = Op::from_execution(&new_exec);
        let after = TimingParams::measure(&new_exec);
        table.row(vec![
            w.to_string(),
            "transformed R_E'".to_string(),
            show(&after),
            is_linearizable(&new_ops).to_string(),
            is_sequentially_consistent(&new_ops).to_string(),
        ]);

        let wave = new_exec.record(outcome.wave_witness_token);
        println!(
            "B({w}): witness process {} saw value {} and then value {} — values decreased.",
            outcome.witness_process, outcome.earlier_value, wave.value
        );
    }
    println!("\n{table}");
    println!(
        "Reading: each transformed execution keeps the original's c_min/c_max/C_g (up to\n\
         the documented skew < 1e-6 of the smallest gap) while downgrading the violation\n\
         from 'non-linearizable' to 'non-sequentially-consistent'."
    );
}
