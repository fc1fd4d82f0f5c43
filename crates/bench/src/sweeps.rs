//! Reusable experiment drivers.

use cnet_core::conditions::TimingCondition;
use cnet_core::consistency::{is_linearizable, is_sequentially_consistent};
use cnet_core::fractions::{non_linearizability_fraction, non_sequential_consistency_fraction};
use cnet_core::op::Op;
use cnet_sim::adversary::three_wave;
use cnet_sim::engine::run;
use cnet_sim::workload::{generate, WorkloadConfig};
use cnet_sim::TimingParams;
use cnet_topology::Network;

/// Outcome of a randomized sufficiency scan: over `schedules_checked`
/// executions that satisfied the condition, how many violated the
/// consistency property (a correct sufficiency theorem yields zero).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SufficiencyReport {
    /// Executions whose measured parameters satisfied the condition.
    pub schedules_checked: usize,
    /// Executions generated that did *not* satisfy the condition (skipped).
    pub schedules_skipped: usize,
    /// Satisfying executions that violated linearizability.
    pub linearizability_violations: usize,
    /// Satisfying executions that violated sequential consistency.
    pub sequential_consistency_violations: usize,
}

/// Generates `seeds` random executions under the workload envelope, keeps
/// those whose *measured* parameters satisfy `condition`, and counts
/// consistency violations among them.
pub fn sufficiency_scan(
    net: &Network,
    cfg: &WorkloadConfig,
    condition: TimingCondition,
    seeds: u64,
) -> SufficiencyReport {
    let mut report = SufficiencyReport {
        schedules_checked: 0,
        schedules_skipped: 0,
        linearizability_violations: 0,
        sequential_consistency_violations: 0,
    };
    for seed in 0..seeds {
        let specs = generate(net, cfg, seed);
        let exec = run(net, &specs).expect("generated schedules are valid");
        let params = TimingParams::measure(&exec);
        if !condition.holds(&params) {
            report.schedules_skipped += 1;
            continue;
        }
        report.schedules_checked += 1;
        let ops = Op::from_execution(&exec);
        if !is_linearizable(&ops) {
            report.linearizability_violations += 1;
        }
        if !is_sequentially_consistent(&ops) {
            report.sequential_consistency_violations += 1;
        }
    }
    report
}

/// One measured point of an adversarial fraction experiment.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FractionPoint {
    /// Fan of the network.
    pub w: usize,
    /// Level `ℓ` of the construction.
    pub ell: usize,
    /// The asynchrony threshold `1 + d/d(S⁽ℓ⁾)` the schedule exceeded.
    pub threshold: f64,
    /// Measured non-linearizability fraction.
    pub f_nl: f64,
    /// Measured non-sequential-consistency fraction.
    pub f_nsc: f64,
}

/// Runs the Theorem 5.11 three-wave construction at level `ell` with an
/// asynchrony ratio just above its threshold and measures both fractions.
///
/// # Panics
///
/// Panics if the construction is inapplicable (callers pass bitonic or
/// periodic networks with `1 <= ell <= lg w`).
pub fn adversarial_fractions(net: &Network, ell: usize) -> FractionPoint {
    let w = net.fan().expect("counting networks used here have equal fans");
    // Probe the construction's threshold with a generous first build.
    let probe = three_wave(net, ell, 1.0, 1000.0).expect("three-wave construction applies");
    let threshold = probe.required_ratio;
    let sched =
        three_wave(net, ell, 1.0, threshold + 0.01).expect("three-wave construction applies");
    let exec = run(net, &sched.specs).expect("wave schedules are valid");
    let ops = Op::from_execution(&exec);
    FractionPoint {
        w,
        ell,
        threshold,
        f_nl: non_linearizability_fraction(&ops),
        f_nsc: non_sequential_consistency_fraction(&ops),
    }
}

/// Theorem 4.1 evidence: random schedules whose measured local delay
/// satisfies `d·(c_max − 2·c_min) < C_L` must all be sequentially
/// consistent. Returns the scan report.
pub fn local_delay_sufficiency(net: &Network, ratio: f64, seeds: u64) -> SufficiencyReport {
    let c_min = 1.0;
    let c_max = ratio;
    // Enforce the local delay by construction: the generator waits at least
    // d·(c_max − 2·c_min) (plus a hair) between a process's operations.
    let needed = net.depth() as f64 * (c_max - 2.0 * c_min);
    let cfg = WorkloadConfig {
        processes: net.fan_in().min(8),
        tokens_per_process: 4,
        c_min,
        c_max,
        local_delay: needed.max(0.0) + 0.001,
        start_spread: c_max * net.depth() as f64,
    };
    let condition = TimingCondition::local_delay(net);
    sufficiency_scan(net, &cfg, condition, seeds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnet_core::theory;
    use cnet_topology::construct::bitonic;

    #[test]
    fn ratio_two_scan_finds_no_violations() {
        let net = bitonic(8).unwrap();
        let cfg = WorkloadConfig {
            processes: 8,
            tokens_per_process: 3,
            c_min: 1.0,
            c_max: 2.0,
            local_delay: 0.0,
            start_spread: 5.0,
        };
        let report = sufficiency_scan(&net, &cfg, TimingCondition::RatioAtMostTwo, 50);
        assert_eq!(report.schedules_skipped, 0);
        assert_eq!(report.linearizability_violations, 0);
        assert_eq!(report.sequential_consistency_violations, 0);
        assert_eq!(report.schedules_checked, 50);
    }

    #[test]
    fn adversarial_point_matches_theory() {
        let net = bitonic(16).unwrap();
        for ell in 1..=4 {
            let p = adversarial_fractions(&net, ell);
            assert!(p.f_nl >= theory::thm_5_11_nl_lower(ell) - 1e-9, "ell={ell}: {p:?}");
            assert!(p.f_nsc >= theory::thm_5_11_nsc_lower(ell) - 1e-9, "ell={ell}: {p:?}");
        }
    }

    #[test]
    fn local_delay_scan_is_clean() {
        let net = bitonic(8).unwrap();
        let report = local_delay_sufficiency(&net, 5.0, 30);
        assert_eq!(report.sequential_consistency_violations, 0);
        assert!(report.schedules_checked > 0);
    }

    #[test]
    fn scan_accounts_for_every_seed() {
        // A ratio-4 envelope mostly breaks the ratio-2 condition: those
        // schedules are skipped, not judged, and none is lost.
        let net = bitonic(8).unwrap();
        let cfg = WorkloadConfig {
            processes: 8,
            tokens_per_process: 3,
            c_min: 1.0,
            c_max: 4.0,
            local_delay: 0.0,
            start_spread: 5.0,
        };
        let report = sufficiency_scan(&net, &cfg, TimingCondition::RatioAtMostTwo, 20);
        assert_eq!(report.schedules_checked + report.schedules_skipped, 20);
        assert!(report.schedules_skipped > 0, "{report:?}");
        assert!(report.linearizability_violations <= report.schedules_checked);
        assert!(report.sequential_consistency_violations <= report.linearizability_violations);
    }

    #[test]
    fn local_delay_scan_at_ratio_two_is_also_linearizable() {
        // At c_max = 2·c_min the required pause is zero and the schedules
        // meet [LSST99]'s ratio-2 condition, so linearizability holds too.
        let net = bitonic(8).unwrap();
        let report = local_delay_sufficiency(&net, 2.0, 20);
        assert_eq!(report.schedules_checked, 20);
        assert_eq!(report.linearizability_violations, 0);
        assert_eq!(report.sequential_consistency_violations, 0);
    }

    #[test]
    fn adversarial_points_carry_their_parameters() {
        let net = bitonic(8).unwrap();
        for ell in 1..=3 {
            let p = adversarial_fractions(&net, ell);
            assert_eq!((p.w, p.ell), (8, ell));
            assert!(p.threshold > 1.0, "{p:?}");
            assert!((0.0..=1.0).contains(&p.f_nl) && (0.0..=1.0).contains(&p.f_nsc), "{p:?}");
            // Every non-SC history is non-linearizable as well.
            assert!(p.f_nsc <= p.f_nl + 1e-12, "{p:?}");
        }
    }
}
