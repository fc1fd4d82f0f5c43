//! Timing-condition predicates (Table 1 and Sections 3–4).
//!
//! Each predicate takes the [`TimingParams`] measured over a timed execution
//! and decides whether the execution satisfies the condition. Network
//! constants (depth, shallowness, influence radius) are captured when the
//! condition is built from a [`Network`].
//!
//! Unmeasurable parameters are read permissively, matching the paper's
//! quantifiers: a missing `C_g`/`C_L` (no non-overlapping or no consecutive
//! pairs) means the lower-bound constraint is vacuously satisfied, and a
//! missing `c_max` (no wire crossings at all) satisfies everything.

use cnet_sim::TimingParams;
use cnet_topology::analysis::influence_radius;
use cnet_topology::error::TopologyError;
use cnet_topology::Network;
use std::fmt;

/// A timing condition over the measured parameters of a schedule.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum TimingCondition {
    /// [LSST99, Cor. 3.7]: `d(G) · (c_max − 2·c_min) < C_g`.
    /// Sufficient for **linearizability** on uniform counting networks —
    /// and, by Theorem 3.2, for sequential consistency too.
    GlobalDelay {
        /// The network depth `d(G)`.
        depth: usize,
    },
    /// [LSST99, Cor. 3.10]: `c_max / c_min ≤ 2`. Sufficient for
    /// linearizability on uniform counting networks; also *necessary* for
    /// the bitonic network and the counting tree [LSST99, Thms 4.1/4.3].
    RatioAtMostTwo,
    /// [MPT97, Thm. 4.1]: `c_max / c_min ≤ 2·s(G) / d(G)`. Sufficient for
    /// linearizability on *arbitrary* counting networks (s = shallowness).
    MptSufficient {
        /// The network shallowness `s(G)`.
        shallowness: usize,
        /// The network depth `d(G)`.
        depth: usize,
    },
    /// [MPT97, Thm. 3.1]: `c_max / c_min ≤ d(G)/irad(G) + 1`. *Necessary*
    /// for linearizability (hence, by Theorem 3.2, for sequential
    /// consistency) on uniform counting networks.
    MptNecessary {
        /// The network depth `d(G)`.
        depth: usize,
        /// The influence radius `irad(G)`.
        influence_radius: usize,
    },
    /// This paper's Theorem 4.1: `d(G) · (c_max − 2·c_min) < C_L`.
    /// Sufficient for **sequential consistency** on uniform counting
    /// networks, but *not* for linearizability (Corollary 4.5) — the
    /// distinguishing condition.
    LocalDelay {
        /// The network depth `d(G)`.
        depth: usize,
    },
}

impl TimingCondition {
    /// Builds the [LSST99, Cor. 3.7] global-delay condition for a network.
    pub fn global_delay(net: &Network) -> Self {
        TimingCondition::GlobalDelay { depth: net.depth() }
    }

    /// Builds the [MPT97, Thm. 4.1] sufficient condition for a network.
    pub fn mpt_sufficient(net: &Network) -> Self {
        TimingCondition::MptSufficient { shallowness: net.shallowness(), depth: net.depth() }
    }

    /// Builds the [MPT97, Thm. 3.1] necessary condition for a uniform
    /// network.
    ///
    /// # Errors
    ///
    /// Propagates [`TopologyError`] from the influence-radius computation
    /// (non-uniform network, fewer than two sinks, or no common ancestors).
    pub fn mpt_necessary(net: &Network) -> Result<Self, TopologyError> {
        Ok(TimingCondition::MptNecessary {
            depth: net.depth(),
            influence_radius: influence_radius(net)?,
        })
    }

    /// Builds this paper's Theorem 4.1 local-delay condition for a network.
    pub fn local_delay(net: &Network) -> Self {
        TimingCondition::LocalDelay { depth: net.depth() }
    }

    /// **Lemma 4.4**, the per-process refinement of Theorem 4.1: process
    /// `P` alone is guaranteed sequentially consistent values whenever
    /// `d(G)·(c_max − 2·c_min^P) < C_L^P` — even if *other* processes pace
    /// themselves arbitrarily. Evaluates that condition for one process
    /// from the measured per-process parameters (vacuously true when `P`
    /// issued fewer than two operations).
    pub fn lemma_4_4_holds_for(
        depth: usize,
        params: &TimingParams,
        process: cnet_sim::ProcessId,
    ) -> bool {
        let Some(c_max) = params.c_max else { return true };
        let Some(pt) = params.per_process.get(&process) else { return true };
        let Some(c_min_p) = pt.c_min else { return true };
        let lhs = depth as f64 * (c_max - 2.0 * c_min_p);
        match pt.local_delay {
            Some(cl) => lhs < cl,
            None => true,
        }
    }

    /// Whether the measured parameters satisfy the condition.
    ///
    /// # Example
    ///
    /// ```
    /// use cnet_core::conditions::TimingCondition;
    /// use cnet_sim::TimingParams;
    ///
    /// let mut p = TimingParams::default();
    /// p.c_min = Some(1.0);
    /// p.c_max = Some(1.8);
    /// assert!(TimingCondition::RatioAtMostTwo.holds(&p));
    /// p.c_max = Some(2.5);
    /// assert!(!TimingCondition::RatioAtMostTwo.holds(&p));
    /// ```
    pub fn holds(&self, params: &TimingParams) -> bool {
        let (Some(c_min), Some(c_max)) = (params.c_min, params.c_max) else {
            // No wire crossings measured: every condition holds vacuously.
            return true;
        };
        match *self {
            TimingCondition::GlobalDelay { depth } => {
                let lhs = depth as f64 * (c_max - 2.0 * c_min);
                match params.global_delay {
                    Some(cg) => lhs < cg,
                    None => true, // no non-overlapping pairs: C_g = +inf
                }
            }
            TimingCondition::RatioAtMostTwo => c_max <= 2.0 * c_min,
            TimingCondition::MptSufficient { shallowness, depth } => {
                depth > 0 && c_max * depth as f64 <= 2.0 * shallowness as f64 * c_min
            }
            TimingCondition::MptNecessary { depth, influence_radius } => {
                influence_radius > 0
                    && c_max * influence_radius as f64 <= (depth + influence_radius) as f64 * c_min
            }
            TimingCondition::LocalDelay { depth } => {
                let lhs = depth as f64 * (c_max - 2.0 * c_min);
                match params.local_delay {
                    Some(cl) => lhs < cl,
                    None => true, // no process issued two tokens: C_L = +inf
                }
            }
        }
    }

    /// What the condition guarantees (or is necessary for), as stated in the
    /// paper — used in experiment tables.
    pub fn role(&self) -> &'static str {
        match self {
            TimingCondition::GlobalDelay { .. } => {
                "sufficient for linearizability (LSST99 Cor 3.7)"
            }
            TimingCondition::RatioAtMostTwo => {
                "sufficient for linearizability (LSST99 Cor 3.10); necessary for bitonic/tree"
            }
            TimingCondition::MptSufficient { .. } => {
                "sufficient for linearizability (MPT97 Thm 4.1)"
            }
            TimingCondition::MptNecessary { .. } => "necessary for linearizability (MPT97 Thm 3.1)",
            TimingCondition::LocalDelay { .. } => {
                "sufficient for sequential consistency, not linearizability (Thm 4.1 / Cor 4.5)"
            }
        }
    }
}

impl fmt::Display for TimingCondition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            TimingCondition::GlobalDelay { depth } => {
                write!(f, "{depth}·(c_max − 2·c_min) < C_g")
            }
            TimingCondition::RatioAtMostTwo => write!(f, "c_max/c_min ≤ 2"),
            TimingCondition::MptSufficient { shallowness, depth } => {
                write!(f, "c_max/c_min ≤ 2·{shallowness}/{depth}")
            }
            TimingCondition::MptNecessary { depth, influence_radius } => {
                write!(f, "c_max/c_min ≤ {depth}/{influence_radius} + 1")
            }
            TimingCondition::LocalDelay { depth } => {
                write!(f, "{depth}·(c_max − 2·c_min) < C_L")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnet_topology::construct::{bitonic, counting_tree};

    fn params(c_min: f64, c_max: f64, c_l: Option<f64>, c_g: Option<f64>) -> TimingParams {
        TimingParams {
            c_min: Some(c_min),
            c_max: Some(c_max),
            local_delay: c_l,
            global_delay: c_g,
            per_process: Default::default(),
        }
    }

    #[test]
    fn ratio_condition() {
        let c = TimingCondition::RatioAtMostTwo;
        assert!(c.holds(&params(1.0, 2.0, None, None)));
        assert!(!c.holds(&params(1.0, 2.0001, None, None)));
    }

    #[test]
    fn global_delay_condition() {
        let net = bitonic(4).unwrap(); // depth 3
        let c = TimingCondition::global_delay(&net);
        // d(c_max - 2 c_min) = 3*(5-2) = 9 < C_g?
        assert!(c.holds(&params(1.0, 5.0, None, Some(10.0))));
        assert!(!c.holds(&params(1.0, 5.0, None, Some(9.0))));
        assert!(c.holds(&params(1.0, 5.0, None, None))); // C_g = +inf
                                                         // c_max < 2 c_min: lhs negative, holds for any C_g >= 0.
        assert!(c.holds(&params(1.0, 1.5, None, Some(0.0))));
    }

    #[test]
    fn local_delay_condition() {
        let net = bitonic(4).unwrap();
        let c = TimingCondition::local_delay(&net);
        assert!(c.holds(&params(1.0, 5.0, Some(9.5), None)));
        assert!(!c.holds(&params(1.0, 5.0, Some(9.0), None)));
        assert!(c.holds(&params(1.0, 5.0, None, None)));
    }

    #[test]
    fn mpt_sufficient_reduces_to_ratio_two_for_uniform() {
        // For uniform networks s = d, so the bound is ratio <= 2.
        let net = bitonic(8).unwrap();
        let c = TimingCondition::mpt_sufficient(&net);
        assert!(c.holds(&params(1.0, 2.0, None, None)));
        assert!(!c.holds(&params(1.0, 2.1, None, None)));
    }

    #[test]
    fn mpt_necessary_threshold_is_lg_w_based_for_bitonic() {
        // d/irad + 1 = (lg w (lg w+1)/2)/lg w + 1 = (lg w + 3)/2; for w=16
        // that's 3.5.
        let net = bitonic(16).unwrap();
        let c = TimingCondition::mpt_necessary(&net).unwrap();
        assert!(c.holds(&params(1.0, 3.5, None, None)));
        assert!(!c.holds(&params(1.0, 3.6, None, None)));
    }

    #[test]
    fn tree_necessary_condition() {
        // irad(tree) = depth, so threshold is 2 — matching LSST99 Thm 4.1.
        let net = counting_tree(8).unwrap();
        let c = TimingCondition::mpt_necessary(&net).unwrap();
        assert!(c.holds(&params(1.0, 2.0, None, None)));
        assert!(!c.holds(&params(1.0, 2.01, None, None)));
    }

    #[test]
    fn lemma_4_4_per_process_evaluation() {
        use cnet_sim::timing::ProcessTiming;
        use cnet_sim::ProcessId;
        let mut p = params(1.0, 5.0, None, None);
        // Process 0 paces itself: c_min^P = 2 (its own tokens are slower),
        // so the bound is d (5 - 4) = d; with C_L^P above that it holds.
        let d = 3usize;
        p.per_process
            .insert(ProcessId(0), ProcessTiming { c_min: Some(2.0), local_delay: Some(3.5) });
        p.per_process
            .insert(ProcessId(1), ProcessTiming { c_min: Some(1.0), local_delay: Some(0.0) });
        assert!(TimingCondition::lemma_4_4_holds_for(d, &p, ProcessId(0)));
        assert!(!TimingCondition::lemma_4_4_holds_for(d, &p, ProcessId(1)));
        // Unknown process: vacuous.
        assert!(TimingCondition::lemma_4_4_holds_for(d, &p, ProcessId(9)));
    }

    #[test]
    fn vacuous_parameters_hold() {
        let p = TimingParams::default();
        for c in [
            TimingCondition::RatioAtMostTwo,
            TimingCondition::GlobalDelay { depth: 3 },
            TimingCondition::LocalDelay { depth: 3 },
        ] {
            assert!(c.holds(&p));
        }
    }

    #[test]
    fn display_and_roles() {
        let c = TimingCondition::GlobalDelay { depth: 6 };
        assert!(c.to_string().contains("C_g"));
        assert!(c.role().contains("linearizability"));
        let c = TimingCondition::LocalDelay { depth: 6 };
        assert!(c.to_string().contains("C_L"));
        assert!(c.role().contains("sequential consistency"));
    }
}
