//! The consistency conditions of Section 2.4.
//!
//! For counting, values totally order operations, so both conditions reduce
//! to pairwise checks:
//!
//! * an execution is **linearizable** iff no operation completely precedes
//!   another yet returns a larger value (sorting by value is then the unique
//!   candidate linearization, and it extends the complete-precedence order);
//! * an execution is **sequentially consistent** iff no process's operation
//!   returns a smaller value than that process's previous one.
//!
//! The functions here are the *batch* forms: each sorts the finished slice
//! into enter order once and runs the audit kernel,
//! [`crate::trace::StreamingAuditor`], over it, mapping the kernel's push
//! indices back to slice indices. Live pipelines feed the kernel directly
//! and skip the sort.

use crate::op::Op;
use crate::trace::{enter_order, EventFlags, StreamingAuditor};

/// A witnessed violation: the `earlier` operation completely precedes (or,
/// for sequential consistency, precedes at the same process) the `later`
/// operation, yet returned a larger value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Violation {
    /// Index (into the op slice) of the earlier operation.
    pub earlier: usize,
    /// Index of the later operation, which returned the smaller value.
    pub later: usize,
}

impl Violation {
    /// The same pair with push indices mapped through `order` (push index
    /// → slice index).
    pub(crate) fn in_slice(self, order: &[usize]) -> Violation {
        Violation { earlier: order[self.earlier], later: order[self.later] }
    }
}

/// The one pass every batch checker makes: feeds `ops` to a fresh
/// [`StreamingAuditor`] in enter order, handing `visit` each op's slice
/// index and flags, and stops early when `visit` returns `false`. Returns
/// the auditor and the enter order, which maps its push indices to slice
/// indices.
pub(crate) fn audit_slice(
    ops: &[Op],
    mut visit: impl FnMut(usize, EventFlags) -> bool,
) -> (StreamingAuditor, Vec<usize>) {
    let order = enter_order(ops);
    let mut auditor = StreamingAuditor::new();
    for &i in &order {
        if !visit(i, auditor.push(&ops[i])) {
            break;
        }
    }
    (auditor, order)
}

/// Finds a linearizability violation, if any: a pair where `earlier`
/// completely precedes `later` but `value(earlier) > value(later)`.
///
/// Runs in `O(n log n)`: the kernel's first witness, the pass stopping at
/// the first non-linearizable operation.
pub fn find_linearizability_violation(ops: &[Op]) -> Option<Violation> {
    let (auditor, order) = audit_slice(ops, |_, flags| !flags.non_linearizable);
    auditor.linearizability_violation().map(|v| v.in_slice(&order))
}

/// Whether the execution is linearizable.
///
/// # Example
///
/// ```
/// use cnet_core::op::op;
/// use cnet_core::consistency::is_linearizable;
///
/// // b runs entirely after a but returns a smaller value: not linearizable.
/// let a = op(0, 0.0, 1.0, 5);
/// let b = op(1, 2.0, 3.0, 3);
/// assert!(!is_linearizable(&[a, b]));
/// // Overlapping operations may return values in either order.
/// let c = op(1, 0.5, 3.0, 3);
/// assert!(is_linearizable(&[a, c]));
/// ```
pub fn is_linearizable(ops: &[Op]) -> bool {
    find_linearizability_violation(ops).is_none()
}

/// Finds a sequential-consistency violation, if any: two successive
/// operations of one process whose values decrease. Of all such pairs it
/// reports the one whose later operation enters first. The first
/// decreasing pair is also the first operation the Section 5.1 flag marks,
/// so the pass stops there.
pub fn find_sequential_consistency_violation(ops: &[Op]) -> Option<Violation> {
    let (auditor, order) = audit_slice(ops, |_, flags| !flags.non_sequentially_consistent);
    auditor.sequential_consistency_violation().map(|v| v.in_slice(&order))
}

/// Whether the execution is sequentially consistent: no process's
/// successive operations return decreasing values.
///
/// # Example
///
/// ```
/// use cnet_core::op::op;
/// use cnet_core::consistency::is_sequentially_consistent;
///
/// // Different processes may see values out of real-time order...
/// let a = op(0, 0.0, 1.0, 5);
/// let b = op(1, 2.0, 3.0, 3);
/// assert!(is_sequentially_consistent(&[a, b]));
/// // ...but one process must not see its values decrease.
/// let c = op(0, 2.0, 3.0, 3);
/// assert!(!is_sequentially_consistent(&[a, c]));
/// ```
pub fn is_sequentially_consistent(ops: &[Op]) -> bool {
    find_sequential_consistency_violation(ops).is_none()
}

/// Whether the execution is sequentially consistent *with respect to one
/// process* (Observation 2.1's building block): the same check as
/// [`is_sequentially_consistent`] on that process's operations alone, so
/// an execution is sequentially consistent iff it is so for every process.
pub fn is_sequentially_consistent_for(ops: &[Op], process: usize) -> bool {
    let mine: Vec<Op> = ops.iter().filter(|o| o.process == process).copied().collect();
    is_sequentially_consistent(&mine)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::op;

    #[test]
    fn empty_and_singleton_are_consistent() {
        assert!(is_linearizable(&[]));
        assert!(is_sequentially_consistent(&[]));
        let a = op(0, 0.0, 1.0, 0);
        assert!(is_linearizable(&[a]));
        assert!(is_sequentially_consistent(&[a]));
    }

    #[test]
    fn linearizable_implies_sequentially_consistent() {
        // A set of sequential ops with increasing values.
        let ops: Vec<_> =
            (0..10).map(|k| op(k % 3, k as f64 * 2.0, k as f64 * 2.0 + 1.0, k as u64)).collect();
        assert!(is_linearizable(&ops));
        assert!(is_sequentially_consistent(&ops));
    }

    #[test]
    fn sc_but_not_linearizable() {
        // Two processes, each internally increasing; across processes, an
        // earlier-completing op has the larger value.
        let ops = vec![
            op(0, 0.0, 1.0, 5),
            op(0, 2.0, 3.0, 6),
            op(1, 4.0, 5.0, 1), // runs after everything, small value
            op(1, 6.0, 7.0, 2),
        ];
        assert!(is_sequentially_consistent(&ops));
        assert!(!is_linearizable(&ops));
        let v = find_linearizability_violation(&ops).unwrap();
        assert_eq!(ops[v.earlier].value, 6);
        assert!(ops[v.later].value < 6);
    }

    #[test]
    fn non_sc_implies_non_linearizable() {
        let ops = vec![op(0, 0.0, 1.0, 5), op(0, 2.0, 3.0, 3)];
        assert!(!is_sequentially_consistent(&ops));
        assert!(!is_linearizable(&ops));
    }

    #[test]
    fn overlapping_out_of_order_values_are_fine() {
        let ops = vec![op(0, 0.0, 10.0, 9), op(1, 1.0, 2.0, 0), op(2, 3.0, 4.0, 1)];
        assert!(is_linearizable(&ops));
    }

    #[test]
    fn per_process_check() {
        let ops = vec![
            op(0, 0.0, 1.0, 5),
            op(0, 2.0, 3.0, 3), // p0 decreases
            op(1, 0.0, 1.0, 1),
            op(1, 2.0, 3.0, 2), // p1 increases
        ];
        assert!(!is_sequentially_consistent_for(&ops, 0));
        assert!(is_sequentially_consistent_for(&ops, 1));
        assert!(is_sequentially_consistent_for(&ops, 99)); // vacuous
        let v = find_sequential_consistency_violation(&ops).unwrap();
        assert_eq!(ops[v.earlier].process, 0);
    }

    #[test]
    fn witness_indices_refer_to_the_original_slice() {
        // Deliberately feed the slice out of enter order: the wrapper must
        // translate the monitor's push indices back through the sort.
        let ops = vec![
            op(1, 4.0, 5.0, 1), // latest op, smallest value: the victim
            op(0, 0.0, 1.0, 5),
        ];
        let v = find_linearizability_violation(&ops).unwrap();
        assert_eq!(v, Violation { earlier: 1, later: 0 });
    }

    #[test]
    fn violation_sweep_matches_quadratic_oracle() {
        // Pseudo-random small executions: compare the sweep against the
        // O(n^2) definition.
        let mut seed = 12345u64;
        let mut next = || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (seed >> 33) as f64 / (u32::MAX as f64 / 8.0)
        };
        for trial in 0..200 {
            let n = 2 + (trial % 9);
            let ops: Vec<Op> = (0..n)
                .map(|k| {
                    let s = next();
                    let e = s + next();
                    let mut o = op(k % 3, s, e, 0);
                    o.value = (next() * 4.0) as u64;
                    o.enter_seq = k;
                    o.exit_seq = k + 100;
                    o
                })
                .collect();
            let quadratic = ops.iter().enumerate().any(|(i, a)| {
                ops.iter()
                    .enumerate()
                    .any(|(j, b)| i != j && a.completely_precedes(b) && a.value > b.value)
            });
            assert_eq!(
                find_linearizability_violation(&ops).is_some(),
                quadratic,
                "trial {trial}: {ops:?}"
            );
        }
    }
}
