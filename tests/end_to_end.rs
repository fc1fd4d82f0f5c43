//! End-to-end integration tests: topology → simulation → consistency
//! analysis, asserting the paper's quantitative claims across crates.

use cnet_core::conditions::TimingCondition;
use cnet_core::consistency::{is_linearizable, is_sequentially_consistent};
use cnet_core::fractions::{non_linearizability_fraction, non_sequential_consistency_fraction};
use cnet_core::op::Op;
use cnet_core::theory;
use cnet_sim::adversary::{bitonic_three_wave, holding_race, three_wave};
use cnet_sim::engine::run;
use cnet_sim::ids::ProcessId;
use cnet_sim::timing::TimingParams;
use cnet_sim::transform::desequentialize;
use cnet_sim::workload::{generate, WorkloadConfig};
use cnet_topology::construct::{bitonic, counting_tree, periodic};
use cnet_topology::Network;

fn exec_ops(net: &Network, specs: &[cnet_sim::TimedTokenSpec]) -> Vec<Op> {
    Op::from_execution(&run(net, specs).expect("valid schedule"))
}

#[test]
fn ratio_at_most_two_implies_both_conditions_on_all_classic_networks() {
    // LSST99 Cor 3.10 + Theorem 3.2: under ratio <= 2 every random schedule
    // is linearizable AND sequentially consistent.
    for net in [bitonic(8).unwrap(), periodic(8).unwrap(), counting_tree(8).unwrap()] {
        let cfg = WorkloadConfig {
            processes: 6,
            tokens_per_process: 4,
            c_min: 1.0,
            c_max: 2.0,
            local_delay: 0.0,
            start_spread: 4.0,
        };
        for seed in 0..60 {
            let specs = generate(&net, &cfg, seed);
            let exec = run(&net, &specs).unwrap();
            let params = TimingParams::measure(&exec);
            assert!(TimingCondition::RatioAtMostTwo.holds(&params));
            let ops = Op::from_execution(&exec);
            assert!(is_linearizable(&ops), "{net} seed {seed}");
            assert!(is_sequentially_consistent(&ops), "{net} seed {seed}");
        }
    }
}

#[test]
fn global_delay_condition_implies_linearizability() {
    // LSST99 Cor 3.7: whenever the measured C_g exceeds d(c_max - 2 c_min),
    // the execution is linearizable.
    let net = bitonic(8).unwrap();
    let cond = TimingCondition::global_delay(&net);
    let mut satisfied = 0;
    for seed in 0..150 {
        let cfg = WorkloadConfig {
            processes: 4,
            tokens_per_process: 3,
            c_min: 1.0,
            c_max: 2.2,
            local_delay: 2.0,
            start_spread: 3.0,
        };
        let specs = generate(&net, &cfg, seed);
        let exec = run(&net, &specs).unwrap();
        let params = TimingParams::measure(&exec);
        if cond.holds(&params) {
            satisfied += 1;
            assert!(is_linearizable(&Op::from_execution(&exec)), "seed {seed}");
        }
    }
    assert!(satisfied > 0, "the scan must exercise the condition");
}

#[test]
fn theorem_4_1_local_delay_guarantees_sc_at_high_asynchrony() {
    for net in [bitonic(8).unwrap(), periodic(8).unwrap()] {
        let needed = net.depth() as f64 * (6.0 - 2.0);
        let cfg = WorkloadConfig {
            processes: 6,
            tokens_per_process: 4,
            c_min: 1.0,
            c_max: 6.0,
            local_delay: needed + 0.01,
            start_spread: 40.0,
        };
        let cond = TimingCondition::local_delay(&net);
        for seed in 0..60 {
            let specs = generate(&net, &cfg, seed);
            let exec = run(&net, &specs).unwrap();
            let params = TimingParams::measure(&exec);
            assert!(cond.holds(&params), "{net} seed {seed}: generator must satisfy the bound");
            assert!(is_sequentially_consistent(&Op::from_execution(&exec)), "{net} seed {seed}");
        }
    }
}

#[test]
fn corollary_4_5_condition_is_satisfiable_without_linearizability() {
    let net = bitonic(16).unwrap();
    let mut sched = bitonic_three_wave(&net, 1.0, 5.0).unwrap();
    for (i, s) in sched.specs.iter_mut().enumerate() {
        s.process = ProcessId(i);
    }
    let exec = run(&net, &sched.specs).unwrap();
    let params = TimingParams::measure(&exec);
    assert!(TimingCondition::local_delay(&net).holds(&params));
    let ops = Op::from_execution(&exec);
    assert!(!is_linearizable(&ops));
    assert!(is_sequentially_consistent(&ops));
}

#[test]
fn proposition_5_3_exact_one_third_on_every_fan() {
    for w in [4usize, 8, 16, 32, 64] {
        let net = bitonic(w).unwrap();
        let threshold = theory::bitonic_wave_threshold(w);
        let sched = bitonic_three_wave(&net, 1.0, threshold + 0.01).unwrap();
        let ops = exec_ops(&net, &sched.specs);
        assert!((non_linearizability_fraction(&ops) - 1.0 / 3.0).abs() < 1e-9, "w={w}");
        assert!((non_sequential_consistency_fraction(&ops) - 1.0 / 3.0).abs() < 1e-9, "w={w}");
    }
}

#[test]
fn theorem_5_11_bounds_achieved_on_both_families() {
    for net in [bitonic(16).unwrap(), periodic(16).unwrap()] {
        for ell in 1..=4usize {
            let probe = three_wave(&net, ell, 1.0, 1000.0).unwrap();
            let sched = three_wave(&net, ell, 1.0, probe.required_ratio + 0.01).unwrap();
            let ops = exec_ops(&net, &sched.specs);
            let f_nl = non_linearizability_fraction(&ops);
            let f_nsc = non_sequential_consistency_fraction(&ops);
            assert!((f_nl - theory::thm_5_11_nl_lower(ell)).abs() < 1e-9, "{net} ell={ell}");
            assert!((f_nsc - theory::thm_5_11_nsc_lower(ell)).abs() < 1e-9, "{net} ell={ell}");
        }
    }
}

#[test]
fn corollaries_5_12_and_5_13_at_top_level() {
    for w in [8usize, 16, 32] {
        let net = bitonic(w).unwrap();
        let ell = theory::classic_split_number(w);
        let sched = three_wave(&net, ell, 1.0, 2.0 + net.depth() as f64).unwrap();
        let ops = exec_ops(&net, &sched.specs);
        assert!(
            (non_linearizability_fraction(&ops) - theory::cor_5_12_nl_lower(w)).abs() < 1e-9,
            "w={w}"
        );
        assert!(
            (non_sequential_consistency_fraction(&ops) - theory::cor_5_12_nsc_lower(w)).abs()
                < 1e-9,
            "w={w}"
        );
    }
}

#[test]
fn theorem_3_2_transformation_round_trip() {
    for w in [8usize, 16] {
        let net = bitonic(w).unwrap();
        let mut sched = bitonic_three_wave(&net, 1.0, 8.0).unwrap();
        for i in sched.wave3.clone() {
            for t in &mut sched.specs[i].step_times {
                *t += 1.0;
            }
        }
        for (i, s) in sched.specs.iter_mut().enumerate() {
            s.process = ProcessId(i);
        }
        let exec = run(&net, &sched.specs).unwrap();
        let ops = Op::from_execution(&exec);
        assert!(!is_linearizable(&ops) && is_sequentially_consistent(&ops));

        let outcome = desequentialize(&net, &sched.specs, &exec).unwrap();
        let new_exec = run(&net, &outcome.specs).unwrap();
        let new_ops = Op::from_execution(&new_exec);
        assert!(!is_sequentially_consistent(&new_ops), "w={w}");

        // Timing parameters preserved to within the documented skew.
        let before = TimingParams::measure(&exec);
        let after = TimingParams::measure(&new_exec);
        assert!((before.c_min.unwrap() - after.c_min.unwrap()).abs() < 1e-3, "w={w}");
        assert!((before.c_max.unwrap() - after.c_max.unwrap()).abs() < 1e-3, "w={w}");
    }
}

#[test]
fn theorem_5_4_waves_respect_the_ceiling() {
    // Any wave configuration whose measured ratio stays below an integer l
    // must keep F_nsc within (l-2)/(l-1).
    let net = bitonic(8).unwrap();
    for ell in 2..=12usize {
        for level in 1..=3usize {
            let probe = three_wave(&net, level, 1.0, 1000.0).unwrap();
            let c_max = ell as f64 - 0.01;
            if c_max < 1.0 {
                continue;
            }
            let sched = three_wave(&net, level, 1.0, c_max).unwrap();
            let exec = run(&net, &sched.specs).unwrap();
            let params = TimingParams::measure(&exec);
            if params.ratio().is_some_and(|r| r < ell as f64) {
                let f = non_sequential_consistency_fraction(&Op::from_execution(&exec));
                assert!(
                    f <= theory::thm_5_4_nsc_upper(ell) + 1e-9,
                    "ell={ell} level={level} ratio_req={}",
                    probe.required_ratio
                );
            }
        }
    }
}

#[test]
fn lemma_4_4_protects_a_paced_process_among_unpaced_ones() {
    use cnet_core::consistency::is_sequentially_consistent_for;
    use cnet_sim::TimedTokenSpec;
    // The three-wave adversary breaks SC for the wave processes; one extra
    // process Q paces itself per Lemma 4.4 and keeps its own values
    // monotone regardless.
    let net = bitonic(8).unwrap();
    let d = net.depth();
    let sched = bitonic_three_wave(&net, 1.0, 4.0).unwrap();
    let mut specs = sched.specs.clone();
    let q = ProcessId(1000);
    // Q's own wire delays are all 1.0 (= c_min^Q); the global c_max is 4,
    // so Lemma 4.4 wants C_L^Q > d (4 - 2) = 2d. Use 2d + 0.1.
    let mut t = 0.05; // desynchronized from the waves
    for _ in 0..5 {
        let spec = TimedTokenSpec::lock_step(q, 5, t, 1.0, d);
        t = spec.exit_time() + 2.0 * d as f64 + 0.1;
        specs.push(spec);
    }
    let exec = run(&net, &specs).unwrap();
    let params = TimingParams::measure(&exec);
    assert!(
        TimingCondition::lemma_4_4_holds_for(d, &params, q),
        "Q's measured parameters must satisfy its per-process condition"
    );
    let ops = Op::from_execution(&exec);
    assert!(!is_sequentially_consistent(&ops), "the wave processes still violate SC");
    assert!(
        is_sequentially_consistent_for(&ops, q.index()),
        "the paced process Q must see monotone values"
    );
}

#[test]
fn holding_race_violates_exactly_above_depth_plus_one() {
    for net in [bitonic(4).unwrap(), periodic(4).unwrap(), counting_tree(8).unwrap()] {
        let d = net.depth() as f64;
        // Above d+1: violation.
        let race = holding_race(&net, 1.0, d + 1.05, true).unwrap();
        let ops = exec_ops(&net, &race.specs);
        assert!(!is_linearizable(&ops), "{net} above");
        assert!(!is_sequentially_consistent(&ops), "{net} above");
        // Below d+1: this schedule shape cannot produce the violation.
        let race = holding_race(&net, 1.0, d + 0.95, true).unwrap();
        let ops = exec_ops(&net, &race.specs);
        assert!(is_linearizable(&ops), "{net} below");
        assert!(is_sequentially_consistent(&ops), "{net} below");
    }
}
