//! Inconsistency fractions (Section 5.1).
//!
//! A token is **non-linearizable** if some token completely preceding it
//! returned a larger value; it is **non-sequentially-consistent** if some
//! earlier token *of the same process* returned a larger value. The
//! corresponding fractions divide by the total number of tokens.
//!
//! The **absolute** fractions ask for the *least* number of non-linearizable
//! (resp. non-SC) tokens whose removal yields a consistent execution;
//! Lemma 5.1 proves the absolute non-linearizability fraction equals the
//! plain one — validated here by [`absolute_non_linearizable_count`], an
//! exact solver for small instances.
//!
//! The token sets and fractions come from one enter-ordered pass of the
//! audit kernel, [`crate::trace::StreamingAuditor`], whose per-event flags
//! are exactly these two predicates.

use crate::consistency::audit_slice;
use crate::op::Op;
use crate::trace::EventFlags;

/// Slice indices, ascending, of the operations whose kernel flags satisfy
/// `pick`.
fn flagged(ops: &[Op], pick: impl Fn(EventFlags) -> bool) -> Vec<usize> {
    let mut out = Vec::new();
    audit_slice(ops, |i, flags| {
        if pick(flags) {
            out.push(i);
        }
        true
    });
    out.sort_unstable();
    out
}

/// Indices of the non-linearizable operations: those completely preceded by
/// an operation with a larger value.
pub fn non_linearizable_ops(ops: &[Op]) -> Vec<usize> {
    flagged(ops, |f| f.non_linearizable)
}

/// Indices of the non-sequentially-consistent operations: those preceded, at
/// the same process, by an operation with a larger value.
pub fn non_sequentially_consistent_ops(ops: &[Op]) -> Vec<usize> {
    flagged(ops, |f| f.non_sequentially_consistent)
}

/// The non-linearizability fraction: `|non-linearizable| / |all|`
/// (0 for an empty execution).
///
/// # Example
///
/// ```
/// use cnet_core::op::op;
/// use cnet_core::fractions::non_linearizability_fraction;
///
/// let ops = vec![
///     op(0, 0.0, 1.0, 5),
///     op(1, 2.0, 3.0, 1), // after op 0 with a smaller value
///     op(2, 2.0, 3.5, 6),
/// ];
/// assert_eq!(non_linearizability_fraction(&ops), 1.0 / 3.0);
/// ```
pub fn non_linearizability_fraction(ops: &[Op]) -> f64 {
    audit_slice(ops, |_, _| true).0.f_nl()
}

/// The non-sequential-consistency fraction: `|non-SC| / |all|`
/// (0 for an empty execution).
pub fn non_sequential_consistency_fraction(ops: &[Op]) -> f64 {
    audit_slice(ops, |_, _| true).0.f_nsc()
}

/// **Exact** absolute non-linearizability count: the least number of
/// *non-linearizable* tokens whose removal yields a linearizable execution,
/// found by branch-and-bound over the conflict pairs. Exponential in the
/// worst case; used to validate Lemma 5.1 on small executions.
///
/// # Panics
///
/// Panics if the number of non-linearizable tokens exceeds 24 (the exact
/// search would be too large; use [`non_linearizable_ops`] and Lemma 5.1
/// instead).
pub fn absolute_non_linearizable_count(ops: &[Op]) -> usize {
    let candidates = non_linearizable_ops(ops);
    assert!(candidates.len() <= 24, "exact search limited to 24 non-linearizable tokens");
    let keepers: Vec<usize> = (0..ops.len()).filter(|i| !candidates.contains(i)).collect();
    // Search subsets of candidates to KEEP, largest first.
    let k = candidates.len();
    let mut best_removed = k;
    'subsets: for mask in (0u32..(1 << k)).rev() {
        let removed = k - mask.count_ones() as usize;
        if removed >= best_removed {
            continue;
        }
        let kept: Vec<usize> = keepers
            .iter()
            .copied()
            .chain((0..k).filter(|&i| mask >> i & 1 == 1).map(|i| candidates[i]))
            .collect();
        for (ai, &a) in kept.iter().enumerate() {
            for &b in &kept[ai + 1..] {
                let (x, y) = (&ops[a], &ops[b]);
                if (x.completely_precedes(y) && x.value > y.value)
                    || (y.completely_precedes(x) && y.value > x.value)
                {
                    continue 'subsets;
                }
            }
        }
        best_removed = removed;
        if best_removed == 0 {
            break;
        }
    }
    best_removed
}

/// **Exact** absolute non-sequential-consistency count: the least number of
/// *non-SC* tokens whose removal yields a sequentially consistent
/// execution. The paper proves the analogous equality only for
/// linearizability (Lemma 5.1); the same argument specializes per process,
/// and this solver confirms it empirically.
///
/// # Panics
///
/// Panics if the number of non-SC tokens exceeds 24.
pub fn absolute_non_sequentially_consistent_count(ops: &[Op]) -> usize {
    let candidates = non_sequentially_consistent_ops(ops);
    assert!(candidates.len() <= 24, "exact search limited to 24 non-SC tokens");
    let keepers: Vec<usize> = (0..ops.len()).filter(|i| !candidates.contains(i)).collect();
    let k = candidates.len();
    let mut best_removed = k;
    'subsets: for mask in (0u32..(1 << k)).rev() {
        let removed = k - mask.count_ones() as usize;
        if removed >= best_removed {
            continue;
        }
        let kept: Vec<usize> = keepers
            .iter()
            .copied()
            .chain((0..k).filter(|&i| mask >> i & 1 == 1).map(|i| candidates[i]))
            .collect();
        // Check per-process monotonicity over the kept set.
        let mut order = kept.clone();
        order.sort_by_key(|&i| (ops[i].process, ops[i].enter_key()));
        for pair in order.windows(2) {
            let (a, b) = (pair[0], pair[1]);
            if ops[a].process == ops[b].process && ops[a].value > ops[b].value {
                continue 'subsets;
            }
        }
        best_removed = removed;
        if best_removed == 0 {
            break;
        }
    }
    best_removed
}

/// Validates Lemma 5.1's key step on an execution: for every
/// non-linearizable token `T`, the linearizable tokens plus `T` already
/// contain a violation (so no strict subset of the non-linearizable tokens
/// can be removed instead). Returns `true` if the lemma's property holds.
pub fn lemma_5_1_holds(ops: &[Op]) -> bool {
    let bad = non_linearizable_ops(ops);
    let good: Vec<usize> = (0..ops.len()).filter(|i| !bad.contains(i)).collect();
    bad.iter().all(|&t| {
        good.iter().any(|&g| ops[g].completely_precedes(&ops[t]) && ops[g].value > ops[t].value)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::op;

    #[test]
    fn empty_execution_has_zero_fractions() {
        assert_eq!(non_linearizability_fraction(&[]), 0.0);
        assert_eq!(non_sequential_consistency_fraction(&[]), 0.0);
    }

    #[test]
    fn consistent_execution_has_zero_fractions() {
        let ops: Vec<_> = (0..6).map(|k| op(k % 2, k as f64, k as f64 + 0.5, k as u64)).collect();
        assert!(non_linearizable_ops(&ops).is_empty());
        assert!(non_sequentially_consistent_ops(&ops).is_empty());
    }

    #[test]
    fn nl_is_superset_of_nsc() {
        // Every non-SC token is non-linearizable (same-process predecessors
        // completely precede).
        let ops = vec![
            op(0, 0.0, 1.0, 5),
            op(0, 2.0, 3.0, 2), // non-SC and non-lin
            op(1, 4.0, 5.0, 3), // non-lin only (5 precedes it)
        ];
        let nl = non_linearizable_ops(&ops);
        let nsc = non_sequentially_consistent_ops(&ops);
        assert_eq!(nl, vec![1, 2]);
        assert_eq!(nsc, vec![1]);
        for t in &nsc {
            assert!(nl.contains(t));
        }
        assert!(non_linearizability_fraction(&ops) >= non_sequential_consistency_fraction(&ops));
    }

    #[test]
    fn later_small_value_does_not_condemn_earlier_tokens() {
        // The definition deliberately blames the LATER token: a single tiny
        // value cannot make all earlier tokens non-linearizable.
        let ops =
            vec![op(0, 0.0, 1.0, 10), op(1, 2.0, 3.0, 11), op(2, 4.0, 5.0, 12), op(3, 6.0, 7.0, 0)];
        assert_eq!(non_linearizable_ops(&ops), vec![3]);
        assert_eq!(non_linearizability_fraction(&ops), 0.25);
    }

    #[test]
    fn absolute_count_equals_plain_count_lemma_5_1() {
        // Chains and fans of violations: Lemma 5.1 says the minimal removal
        // is exactly the non-linearizable set.
        let cases: Vec<Vec<Op>> = vec![
            // chain: 5 -> 3 -> 4 (both later ones non-lin)
            vec![op(0, 0.0, 1.0, 5), op(1, 2.0, 3.0, 3), op(2, 4.0, 5.0, 4)],
            // fan: one big early value, three small followers
            vec![op(0, 0.0, 1.0, 9), op(1, 2.0, 3.0, 1), op(2, 2.5, 3.5, 2), op(3, 4.0, 5.0, 3)],
            // consistent
            vec![op(0, 0.0, 1.0, 1), op(1, 2.0, 3.0, 2)],
        ];
        for ops in cases {
            assert_eq!(
                absolute_non_linearizable_count(&ops),
                non_linearizable_ops(&ops).len(),
                "{ops:?}"
            );
            assert!(lemma_5_1_holds(&ops), "{ops:?}");
        }
    }

    #[test]
    fn lemma_5_1_on_pseudorandom_executions() {
        let mut seed = 99u64;
        let mut next = || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (seed >> 33) as f64 / (u32::MAX as f64 / 8.0)
        };
        for trial in 0..100 {
            let n = 3 + trial % 8;
            let ops: Vec<Op> = (0..n)
                .map(|k| {
                    let s = next();
                    let mut o = op(k % 3, s, s + next(), (next() * 3.0) as u64 + k as u64 / 2);
                    o.enter_seq = k;
                    o.exit_seq = k + 100;
                    o
                })
                .collect();
            assert!(lemma_5_1_holds(&ops), "trial {trial}: {ops:?}");
            assert_eq!(
                absolute_non_linearizable_count(&ops),
                non_linearizable_ops(&ops).len(),
                "trial {trial}: {ops:?}"
            );
        }
    }

    #[test]
    fn absolute_nsc_count_equals_plain_count() {
        // The per-process specialization of Lemma 5.1's argument: the
        // minimal removal among non-SC tokens is all of them.
        let cases: Vec<Vec<Op>> = vec![
            vec![op(0, 0.0, 1.0, 5), op(0, 2.0, 3.0, 1), op(0, 4.0, 5.0, 2)],
            vec![op(0, 0.0, 1.0, 9), op(0, 2.0, 3.0, 1), op(1, 0.0, 1.0, 8), op(1, 2.0, 3.0, 2)],
            vec![op(0, 0.0, 1.0, 1), op(0, 2.0, 3.0, 2)],
        ];
        for ops in cases {
            assert_eq!(
                absolute_non_sequentially_consistent_count(&ops),
                non_sequentially_consistent_ops(&ops).len(),
                "{ops:?}"
            );
        }
    }

    #[test]
    fn absolute_nsc_on_pseudorandom_executions() {
        let mut seed = 4242u64;
        let mut next = || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (seed >> 33) as f64 / (u32::MAX as f64 / 8.0)
        };
        for trial in 0..60 {
            let n = 3 + trial % 7;
            let ops: Vec<Op> = (0..n)
                .map(|k| {
                    // Sequential per process: process k%2 issues at times 10k.
                    let s = 10.0 * k as f64;
                    let mut o = op(k % 2, s, s + 1.0, (next() * 4.0) as u64 + k as u64 / 3);
                    o.enter_seq = k;
                    o.exit_seq = k + 100;
                    o
                })
                .collect();
            assert_eq!(
                absolute_non_sequentially_consistent_count(&ops),
                non_sequentially_consistent_ops(&ops).len(),
                "trial {trial}: {ops:?}"
            );
        }
    }

    #[test]
    fn absolute_count_on_empty_execution_is_zero() {
        assert_eq!(absolute_non_linearizable_count(&[]), 0);
        assert_eq!(absolute_non_sequentially_consistent_count(&[]), 0);
        assert!(lemma_5_1_holds(&[]));
    }

    #[test]
    fn absolute_count_on_single_op_is_zero() {
        // A lone operation has no predecessor, whatever its value.
        let ops = [op(0, 0.0, 1.0, 1_000_000)];
        assert_eq!(absolute_non_linearizable_count(&ops), 0);
        assert_eq!(non_linearizable_ops(&ops).len(), 0);
        assert!(lemma_5_1_holds(&ops));
    }

    #[test]
    fn absolute_count_when_every_subsequent_op_violates() {
        // The worst case Lemma 5.1 permits: one early maximal value makes
        // every later token non-linearizable (n-1 of n; the first token in
        // enter order is never condemned). Built directly on the new event
        // type to pin the integer-nanosecond keys.
        let mut ops = vec![Op {
            process: 0,
            enter_ns: 0,
            enter_seq: 0,
            exit_ns: 10,
            exit_seq: 0,
            value: 100,
        }];
        for k in 1..8usize {
            ops.push(Op {
                process: k,
                enter_ns: 100 * k as u64,
                enter_seq: k,
                exit_ns: 100 * k as u64 + 10,
                exit_seq: k,
                value: k as u64,
            });
        }
        let bad = non_linearizable_ops(&ops);
        assert_eq!(bad, (1..8).collect::<Vec<_>>());
        // Lemma 5.1: the minimum removal is exactly the non-lin set — no
        // cleverer subset (e.g. removing the big token) counts, because the
        // absolute fraction only removes non-linearizable tokens.
        assert_eq!(absolute_non_linearizable_count(&ops), 7);
        assert!(lemma_5_1_holds(&ops));
    }

    #[test]
    #[should_panic(expected = "exact search limited to 24")]
    fn absolute_count_refuses_oversized_instances() {
        let mut ops = vec![op(0, 0.0, 0.5, 1_000)];
        for k in 1..27usize {
            ops.push(op(k, k as f64, k as f64 + 0.5, k as u64));
        }
        absolute_non_linearizable_count(&ops);
    }

    #[test]
    fn nsc_counts_one_per_decreasing_position() {
        // p0 issues values 5, 1, 2, 6: tokens 1 and 2 are non-SC (preceded by
        // 5); token 3 is fine.
        let ops =
            vec![op(0, 0.0, 1.0, 5), op(0, 2.0, 3.0, 1), op(0, 4.0, 5.0, 2), op(0, 6.0, 7.0, 6)];
        assert_eq!(non_sequentially_consistent_ops(&ops), vec![1, 2]);
    }

    #[test]
    fn three_wave_fraction_is_one_third() {
        use cnet_sim::adversary::bitonic_three_wave;
        use cnet_sim::engine::run;
        use cnet_topology::construct::bitonic;
        for w in [4usize, 8, 16, 32] {
            let net = bitonic(w).unwrap();
            let lgw = w.trailing_zeros() as f64;
            // Just above the (lg w + 3)/2 threshold.
            let sched = bitonic_three_wave(&net, 1.0, (lgw + 3.0) / 2.0 + 0.01).unwrap();
            let exec = run(&net, &sched.specs).unwrap();
            let ops = crate::op::Op::from_execution(&exec);
            assert!(non_sequential_consistency_fraction(&ops) >= 1.0 / 3.0, "B({w}): F_nsc");
            assert!(non_linearizability_fraction(&ops) >= 1.0 / 3.0, "B({w}): F_nl");
        }
    }
}
