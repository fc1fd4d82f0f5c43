//! Open problems 4 and 5 (Section 6): how tight are the fraction bounds?
//!
//! * **Open problem 4** — is Theorem 5.4's ceiling `F_nsc ≤ (ℓ−2)/(ℓ−1)`
//!   tight? A hill-climbing search over valid schedules with ratio `< ℓ`
//!   reports the best `F_nsc` it can reach; the gap to the ceiling is the
//!   open territory.
//! * **Open problem 5** — can any schedule beat Theorem 5.11's three-wave
//!   lower bounds? The same search, with the asynchrony of each level,
//!   races against the analytic construction.
//!
//! These are *searches*, not proofs: they bound what randomized adversaries
//! achieve, and in every run to date the analytic constructions remain
//! unbeaten — weak evidence the known bounds are the truth for these
//! schedule shapes.
//!
//! Run: `cargo run --release -p cnet-bench --bin exp_open45`

use cnet_bench::report::f3;
use cnet_bench::search::refine;
use cnet_bench::{maximize, SearchSpace, Table};
use cnet_core::fractions::{non_linearizability_fraction, non_sequential_consistency_fraction};
use cnet_core::op::Op;
use cnet_core::theory;
use cnet_sim::adversary::three_wave;
use cnet_sim::engine::run;
use cnet_topology::construct::bitonic;

fn main() {
    let net = bitonic(8).unwrap();

    println!("== Open problem 4: searching for the worst F_nsc under c_max/c_min < l ==\n");
    let mut table = Table::new(vec![
        "l",
        "ceiling (l-2)/(l-1)",
        "best F_nsc found",
        "evaluations",
        "gap to ceiling",
    ]);
    for ell in [3usize, 4, 6, 10] {
        let c_max = ell as f64 - 0.01;
        let space =
            SearchSpace { processes: 8, tokens_per_process: 4, c_min: 1.0, c_max, max_gap: 3.0 };
        // Random restarts…
        let random_outcome = maximize(&net, &space, 2024 + ell as u64, 8, 400, |ops| {
            non_sequential_consistency_fraction(ops)
        });
        // …and refinement from the strongest wave construction whose
        // threshold fits under the ceiling (if any).
        let mut best = random_outcome.best_score;
        let mut evals = random_outcome.evaluations;
        for level in 1..=3usize {
            let Ok(probe) = three_wave(&net, level, 1.0, 1000.0) else { continue };
            if c_max <= probe.required_ratio {
                continue;
            }
            let sched = three_wave(&net, level, 1.0, c_max).expect("probe succeeded");
            let outcome = refine(&net, &space, &sched.specs, 77 + ell as u64, 600, |ops| {
                non_sequential_consistency_fraction(ops)
            });
            best = best.max(outcome.best_score);
            evals += outcome.evaluations;
        }
        let ceiling = theory::thm_5_4_nsc_upper(ell);
        assert!(best <= ceiling + 1e-9, "ceiling breached at l={ell}!");
        table.row(vec![
            ell.to_string(),
            f3(ceiling),
            f3(best),
            evals.to_string(),
            f3(ceiling - best),
        ]);
    }
    println!("{table}");
    println!(
        "Reading: the ceiling is never breached; the residual gap is open problem 4's\n\
         territory (the search's best known lower evidence vs the theorem's upper bound).\n"
    );

    println!("== Open problem 5: trying to beat the three-wave lower bounds ==\n");
    let mut table = Table::new(vec![
        "l",
        "wave F_nl",
        "searched F_nl",
        "wave F_nsc",
        "searched F_nsc",
        "waves beaten?",
    ]);
    for ell in 1..=3usize {
        let probe = three_wave(&net, ell, 1.0, 1000.0).unwrap();
        let ratio = probe.required_ratio + 0.5;
        let sched = three_wave(&net, ell, 1.0, ratio).unwrap();
        let exec = run(&net, &sched.specs).unwrap();
        let ops = Op::from_execution(&exec);
        let wave_nl = non_linearizability_fraction(&ops);
        let wave_nsc = non_sequential_consistency_fraction(&ops);

        let space = SearchSpace {
            processes: 8,
            tokens_per_process: 3,
            c_min: 1.0,
            c_max: ratio,
            max_gap: 3.0,
        };
        // Refine from the waves themselves: the search starts at the
        // analytic optimum and tries to climb past it.
        let nl_outcome = refine(&net, &space, &sched.specs, 9000 + ell as u64, 800, |ops| {
            non_linearizability_fraction(ops)
        });
        let nsc_outcome = refine(&net, &space, &sched.specs, 9100 + ell as u64, 800, |ops| {
            non_sequential_consistency_fraction(ops)
        });
        table.row(vec![
            ell.to_string(),
            f3(wave_nl),
            f3(nl_outcome.best_score),
            f3(wave_nsc),
            f3(nsc_outcome.best_score),
            (nl_outcome.best_score > wave_nl + 1e-9 || nsc_outcome.best_score > wave_nsc + 1e-9)
                .to_string(),
        ]);
    }
    println!("{table}");
    println!(
        "Reading: a 'true' in the last column would improve Theorem 5.11's lower bounds\n\
         (open problem 5). Note the search uses different token budgets than the waves,\n\
         so fractions are comparable as fractions, not token counts."
    );
}
