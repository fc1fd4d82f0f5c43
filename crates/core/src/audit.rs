//! One-call consistency audits with human-readable reports and explicit
//! witnesses.
//!
//! [`audit`] bundles everything Section 2.4 and Section 5.1 can say about an
//! execution: both consistency verdicts, the explicit linearization witness
//! when one exists, the inconsistent token sets, and both fractions —
//! rendered by `Display` as the report the CLI and examples print. It is
//! one enter-ordered pass of the audit kernel,
//! [`crate::trace::StreamingAuditor`].

use crate::consistency::{audit_slice, Violation};
use crate::op::Op;
use std::fmt;

/// The full consistency audit of one execution.
#[derive(Clone, Debug, PartialEq)]
pub struct AuditReport {
    /// Number of operations audited.
    pub operations: usize,
    /// Whether the execution is linearizable.
    pub linearizable: bool,
    /// Whether the execution is sequentially consistent.
    pub sequentially_consistent: bool,
    /// A linearizability violation witness, if any.
    pub linearizability_violation: Option<Violation>,
    /// A sequential-consistency violation witness, if any.
    pub sequential_consistency_violation: Option<Violation>,
    /// Indices of the non-linearizable operations.
    pub non_linearizable: Vec<usize>,
    /// Indices of the non-sequentially-consistent operations.
    pub non_sequentially_consistent: Vec<usize>,
    /// The non-linearizability fraction.
    pub f_nl: f64,
    /// The non-sequential-consistency fraction.
    pub f_nsc: f64,
}

/// Audits an execution (see module docs).
///
/// # Example
///
/// ```
/// use cnet_core::op::op;
/// use cnet_core::audit::audit;
///
/// let ops = vec![
///     op(0, 0.0, 1.0, 5),
///     op(1, 2.0, 3.0, 1), // finished-later, smaller value
/// ];
/// let report = audit(&ops);
/// assert!(!report.linearizable);
/// assert!(report.sequentially_consistent); // different processes
/// assert_eq!(report.non_linearizable, vec![1]);
/// ```
pub fn audit(ops: &[Op]) -> AuditReport {
    let mut non_linearizable = Vec::new();
    let mut non_sequentially_consistent = Vec::new();
    let (auditor, order) = audit_slice(ops, |i, flags| {
        if flags.non_linearizable {
            non_linearizable.push(i);
        }
        if flags.non_sequentially_consistent {
            non_sequentially_consistent.push(i);
        }
        true
    });
    non_linearizable.sort_unstable();
    non_sequentially_consistent.sort_unstable();
    AuditReport {
        operations: ops.len(),
        linearizable: auditor.is_linearizable(),
        sequentially_consistent: auditor.is_sequentially_consistent(),
        linearizability_violation: auditor.linearizability_violation().map(|v| v.in_slice(&order)),
        sequential_consistency_violation: auditor
            .sequential_consistency_violation()
            .map(|v| v.in_slice(&order)),
        non_linearizable,
        non_sequentially_consistent,
        f_nl: auditor.f_nl(),
        f_nsc: auditor.f_nsc(),
    }
}

impl fmt::Display for AuditReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "operations:              {}", self.operations)?;
        writeln!(f, "linearizable:            {}", self.linearizable)?;
        writeln!(f, "sequentially consistent: {}", self.sequentially_consistent)?;
        writeln!(
            f,
            "non-linearizable ops:    {} (F_nl = {:.4})",
            self.non_linearizable.len(),
            self.f_nl
        )?;
        writeln!(
            f,
            "non-SC ops:              {} (F_nsc = {:.4})",
            self.non_sequentially_consistent.len(),
            self.f_nsc
        )?;
        if let Some(v) = self.linearizability_violation {
            writeln!(
                f,
                "linearizability witness: op #{} finished before op #{} yet returned more",
                v.earlier, v.later
            )?;
        }
        if let Some(v) = self.sequential_consistency_violation {
            writeln!(
                f,
                "SC witness:              op #{} precedes op #{} at the same process with a larger value",
                v.earlier, v.later
            )?;
        }
        Ok(())
    }
}

/// Produces the explicit linearization of a linearizable execution: the
/// operation indices sorted by value — which, for counting, is the unique
/// candidate total order. Returns `None` if the execution is not
/// linearizable (the value order would contradict real-time order) or if
/// values repeat (not a counting history).
///
/// # Example
///
/// ```
/// use cnet_core::op::op;
/// use cnet_core::audit::linearization;
///
/// let ops = vec![op(0, 0.0, 3.0, 1), op(1, 1.0, 2.0, 0)];
/// assert_eq!(linearization(&ops), Some(vec![1, 0]));
/// ```
pub fn linearization(ops: &[Op]) -> Option<Vec<usize>> {
    let mut order: Vec<usize> = (0..ops.len()).collect();
    order.sort_by_key(|&i| ops[i].value);
    // Values must be distinct for a counting history.
    if order.windows(2).any(|w| ops[w[0]].value == ops[w[1]].value) {
        return None;
    }
    // The order must extend complete precedence: no later-listed op may
    // completely precede an earlier-listed one.
    for (pos, &i) in order.iter().enumerate() {
        for &j in &order[pos + 1..] {
            if ops[j].completely_precedes(&ops[i]) {
                return None;
            }
        }
    }
    // And it must respect per-process order (implied by the above since
    // same-process ops never overlap, but check defensively).
    for (pos, &i) in order.iter().enumerate() {
        for &j in &order[pos + 1..] {
            if ops[i].process == ops[j].process && ops[j].enter_key() < ops[i].enter_key() {
                return None;
            }
        }
    }
    Some(order)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::op;

    #[test]
    fn audit_of_consistent_execution() {
        let ops: Vec<_> = (0..5).map(|k| op(k % 2, k as f64, k as f64 + 0.5, k as u64)).collect();
        let r = audit(&ops);
        assert!(r.linearizable && r.sequentially_consistent);
        assert_eq!(r.f_nl, 0.0);
        assert_eq!(r.f_nsc, 0.0);
        assert!(r.linearizability_violation.is_none());
        let text = r.to_string();
        assert!(text.contains("linearizable:            true"));
    }

    #[test]
    fn audit_reports_witnesses() {
        let ops = vec![op(0, 0.0, 1.0, 5), op(0, 2.0, 3.0, 2)];
        let r = audit(&ops);
        assert!(!r.linearizable && !r.sequentially_consistent);
        assert_eq!(r.non_linearizable, vec![1]);
        assert_eq!(r.non_sequentially_consistent, vec![1]);
        let text = r.to_string();
        assert!(text.contains("witness"));
    }

    #[test]
    fn sc_witness_is_the_earliest_inversion_in_time() {
        // Process 0 decreases at t = 10, process 1 at t = 4. Sorted process
        // by process, p0's pair comes first; in enter order, p1's does.
        let ops =
            vec![op(0, 0.0, 1.0, 5), op(0, 10.0, 11.0, 1), op(1, 2.0, 3.0, 7), op(1, 4.0, 5.0, 2)];
        let first = Violation { earlier: 2, later: 3 };
        assert_eq!(crate::consistency::find_sequential_consistency_violation(&ops), Some(first));
        assert_eq!(audit(&ops).sequential_consistency_violation, Some(first));
    }

    #[test]
    fn audit_of_empty_execution() {
        let r = audit(&[]);
        assert!(r.linearizable && r.sequentially_consistent);
        assert_eq!(r.operations, 0);
        assert_eq!(r.f_nl, 0.0);
    }

    #[test]
    fn linearization_is_value_order_when_consistent() {
        let ops = vec![op(0, 0.0, 1.0, 2), op(1, 0.5, 1.5, 0), op(2, 0.2, 1.9, 1)];
        assert_eq!(linearization(&ops), Some(vec![1, 2, 0]));
    }

    #[test]
    fn linearization_refuses_violations() {
        let ops = vec![op(0, 0.0, 1.0, 5), op(1, 2.0, 3.0, 1)];
        assert_eq!(linearization(&ops), None);
    }

    #[test]
    fn linearization_refuses_duplicate_values() {
        let ops = vec![op(0, 0.0, 1.0, 1), op(1, 2.0, 3.0, 1)];
        assert_eq!(linearization(&ops), None);
    }

    #[test]
    fn linearization_agrees_with_checker_on_random_cases() {
        let mut seed = 7u64;
        let mut next = || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (seed >> 33) as f64 / (u32::MAX as f64 / 4.0)
        };
        for _ in 0..200 {
            let n = 6;
            let mut values: Vec<u64> = (0..n as u64).collect();
            // Pseudo-shuffle.
            for i in (1..n).rev() {
                let j = (next() * (i + 1) as f64) as usize % (i + 1);
                values.swap(i, j);
            }
            let ops: Vec<Op> = (0..n)
                .map(|k| {
                    let s = next();
                    let mut o = op(k % 2, s, s + next(), values[k]);
                    o.enter_seq = k;
                    o.exit_seq = k + 10;
                    o
                })
                .collect();
            let lin = crate::consistency::is_linearizable(&ops);
            // linearization() additionally enforces per-process order, which
            // is part of the serialization requirement. On same-process
            // overlap-free histories the two agree whenever per-process order
            // matches value order.
            if lin && crate::consistency::is_sequentially_consistent(&ops) {
                assert!(linearization(&ops).is_some(), "{ops:?}");
            }
            if !lin {
                assert!(linearization(&ops).is_none(), "{ops:?}");
            }
        }
    }
}
