//! Timing parameters of a schedule (Section 2.3).
//!
//! Given a [`TimedExecution`], [`TimingParams::measure`] computes the
//! paper's six timing parameters:
//!
//! * `c_min`, `c_max` — extreme wire delays over all tokens and layers;
//! * `c_min^P` — per-process minimum wire delay;
//! * `C_L^P` — per-process minimum local inter-operation delay;
//! * `C_L` — minimum local inter-operation delay over all processes;
//! * `C_g` — minimum global delay between non-overlapping tokens.
//!
//! Parameters that quantify over an empty set (e.g. `C_g` in an execution
//! where every pair of tokens overlaps) are reported as `None`, read as
//! "unconstrained / +∞" by the condition predicates in `cnet-core`.

use crate::exec::{TimedExecution, TokenRecord};
use crate::ids::ProcessId;
use cnet_util::json_struct;
use std::collections::BTreeMap;

/// Per-process timing measurements.
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub struct ProcessTiming {
    /// `c_min^P`: the minimum wire delay over this process's tokens.
    pub c_min: Option<f64>,
    /// `C_L^P`: the minimum gap between one of this process's tokens exiting
    /// and its next token entering.
    pub local_delay: Option<f64>,
}

json_struct!(ProcessTiming { c_min, local_delay });

/// The timing parameters measured over one timed execution.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct TimingParams {
    /// `c_min`: minimum wire delay over all tokens and layers.
    pub c_min: Option<f64>,
    /// `c_max`: maximum wire delay over all tokens and layers.
    pub c_max: Option<f64>,
    /// `C_L`: minimum local inter-operation delay over all processes.
    pub local_delay: Option<f64>,
    /// `C_g`: minimum delay between any two non-overlapping tokens.
    pub global_delay: Option<f64>,
    /// Per-process measurements, keyed by process.
    pub per_process: BTreeMap<ProcessId, ProcessTiming>,
}

json_struct!(TimingParams { c_min, c_max, local_delay, global_delay, per_process });

impl TimingParams {
    /// Measures all timing parameters of an execution.
    ///
    /// # Example
    ///
    /// ```
    /// use cnet_topology::construct::bitonic;
    /// use cnet_sim::{engine::run, spec::TimedTokenSpec, ids::ProcessId};
    /// use cnet_sim::timing::TimingParams;
    ///
    /// let net = bitonic(2)?;
    /// let specs = vec![
    ///     TimedTokenSpec::lock_step(ProcessId(0), 0, 0.0, 1.0, 1),
    ///     TimedTokenSpec::lock_step(ProcessId(0), 0, 3.0, 2.0, 1),
    /// ];
    /// let exec = run(&net, &specs)?;
    /// let p = TimingParams::measure(&exec);
    /// assert_eq!(p.c_min, Some(1.0));
    /// assert_eq!(p.c_max, Some(2.0));
    /// assert_eq!(p.local_delay, Some(2.0)); // exits at 1.0, re-enters at 3.0
    /// assert_eq!(p.global_delay, Some(2.0));
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn measure(exec: &TimedExecution) -> TimingParams {
        let mut params = TimingParams::default();
        // Local inter-operation delays: consecutive tokens of each process.
        let mut by_process: BTreeMap<ProcessId, Vec<&TokenRecord>> = BTreeMap::new();
        for record in exec.records() {
            by_process.entry(record.process).or_default().push(record);
        }
        for (process, mut records) in by_process {
            let entry = params.per_process.entry(process).or_default();
            records.sort_by(|a, b| {
                a.enter_time.total_cmp(&b.enter_time).then(a.enter_seq.cmp(&b.enter_seq))
            });
            for pair in records.windows(2) {
                let gap = pair[1].enter_time - pair[0].exit_time;
                entry.local_delay = Some(entry.local_delay.map_or(gap, |m| m.min(gap)));
                params.local_delay = Some(params.local_delay.map_or(gap, |m| m.min(gap)));
            }
        }
        // Wire delays: each step's gap to its token's previous step.
        let mut last: Vec<Option<f64>> = vec![None; exec.records().len()];
        for ts in exec.steps() {
            let token = ts.step.token();
            let Some(prev) = last[token.index()].replace(ts.time) else { continue };
            let delay = ts.time - prev;
            params.c_min = Some(params.c_min.map_or(delay, |m| m.min(delay)));
            params.c_max = Some(params.c_max.map_or(delay, |m| m.max(delay)));
            let entry = params
                .per_process
                .get_mut(&exec.record(token).process)
                .expect("every record's process has an entry");
            entry.c_min = Some(entry.c_min.map_or(delay, |m| m.min(delay)));
        }
        params.global_delay = global_delay(exec.records());
        params
    }

    /// The asynchrony ratio `c_max / c_min`, or `None` when undefined
    /// (no wire delays, or `c_min = 0`).
    pub fn ratio(&self) -> Option<f64> {
        match (self.c_min, self.c_max) {
            (Some(min), Some(max)) if min > 0.0 => Some(max / min),
            _ => None,
        }
    }
}

/// `C_g`: the minimum, over ordered pairs of tokens `(a, b)` where `a`
/// completely precedes `b`, of `b.enter_time − a.exit_time`. Computed with a
/// sweep in `O(n log n)`.
fn global_delay(records: &[TokenRecord]) -> Option<f64> {
    if records.len() < 2 {
        return None;
    }
    // b-sweep in enter order; a-pointer in exit order. `a` is eligible for
    // `b` when (a.exit_time, a.exit_seq) < (b.enter_time, b.enter_seq); as
    // b's enter key grows, eligibility only grows, and the binding gap for a
    // given b comes from the eligible a with the largest exit time.
    let mut by_enter: Vec<&TokenRecord> = records.iter().collect();
    by_enter
        .sort_by(|a, b| a.enter_time.total_cmp(&b.enter_time).then(a.enter_seq.cmp(&b.enter_seq)));
    let mut by_exit: Vec<&TokenRecord> = records.iter().collect();
    by_exit.sort_by(|a, b| a.exit_time.total_cmp(&b.exit_time).then(a.exit_seq.cmp(&b.exit_seq)));

    let mut best: Option<f64> = None;
    let mut max_exit: Option<f64> = None;
    let mut ai = 0;
    for b in by_enter {
        while ai < by_exit.len() {
            let a = by_exit[ai];
            let eligible = (a.exit_time, a.exit_seq) < (b.enter_time, b.enter_seq);
            if !eligible {
                break;
            }
            max_exit = Some(max_exit.map_or(a.exit_time, |m: f64| m.max(a.exit_time)));
            ai += 1;
        }
        if let Some(me) = max_exit {
            let gap = b.enter_time - me;
            best = Some(best.map_or(gap, |m| m.min(gap)));
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::run;
    use crate::spec::TimedTokenSpec;
    use cnet_topology::construct::bitonic;

    fn exec_of(specs: Vec<TimedTokenSpec>) -> TimedExecution {
        let net = bitonic(4).unwrap(); // depth 3
        run(&net, &specs).unwrap()
    }

    #[test]
    fn wire_delay_extremes() {
        let exec = exec_of(vec![
            TimedTokenSpec::with_delays(ProcessId(0), 0, 0.0, &[1.0, 3.0, 2.0]),
            TimedTokenSpec::with_delays(ProcessId(1), 1, 0.0, &[0.5, 0.5, 0.5]),
        ]);
        let p = TimingParams::measure(&exec);
        assert_eq!(p.c_min, Some(0.5));
        assert_eq!(p.c_max, Some(3.0));
        assert_eq!(p.per_process[&ProcessId(0)].c_min, Some(1.0));
        assert_eq!(p.per_process[&ProcessId(1)].c_min, Some(0.5));
        assert_eq!(p.ratio(), Some(6.0));
    }

    #[test]
    fn local_delay_per_process() {
        let exec = exec_of(vec![
            // p0: exits at 3.0, next enters at 5.0 -> gap 2.0
            TimedTokenSpec::with_delays(ProcessId(0), 0, 0.0, &[1.0, 1.0, 1.0]),
            TimedTokenSpec::with_delays(ProcessId(0), 0, 5.0, &[1.0, 1.0, 1.0]),
            // p1: single token, no local gap
            TimedTokenSpec::with_delays(ProcessId(1), 1, 0.0, &[1.0, 1.0, 1.0]),
        ]);
        let p = TimingParams::measure(&exec);
        assert_eq!(p.local_delay, Some(2.0));
        assert_eq!(p.per_process[&ProcessId(0)].local_delay, Some(2.0));
        assert_eq!(p.per_process[&ProcessId(1)].local_delay, None);
    }

    #[test]
    fn global_delay_over_disjoint_pairs() {
        let exec = exec_of(vec![
            // a: [0, 3]
            TimedTokenSpec::with_delays(ProcessId(0), 0, 0.0, &[1.0, 1.0, 1.0]),
            // b: [10, 13] -> gap to a is 7
            TimedTokenSpec::with_delays(ProcessId(1), 1, 10.0, &[1.0, 1.0, 1.0]),
            // c: [4, 7] -> gap to a is 1; b - c gap is 3
            TimedTokenSpec::with_delays(ProcessId(2), 2, 4.0, &[1.0, 1.0, 1.0]),
        ]);
        let p = TimingParams::measure(&exec);
        assert_eq!(p.global_delay, Some(1.0));
    }

    #[test]
    fn wire_delays_follow_each_token_over_routes_of_different_lengths() {
        use crate::engine::run_adaptive;
        use crate::spec::AdaptiveTokenSpec;
        use cnet_topology::construct::append_adjacent_balancer;
        // Tokens routed through the appended balancer take one more hop.
        let net = append_adjacent_balancer(&bitonic(4).unwrap(), 1).unwrap();
        let specs: Vec<AdaptiveTokenSpec> = (0..8)
            .map(|k| {
                let delay = if k % 2 == 0 { 1.0 } else { 2.5 };
                let enter = k as f64 * 10.0;
                AdaptiveTokenSpec::lock_step(ProcessId(k % 2), k % 4, enter, delay, net.depth())
            })
            .collect();
        let exec = run_adaptive(&net, &specs).unwrap();
        let steps = exec.steps().len();
        assert!(8 * net.depth() < steps && steps < 8 * (net.depth() + 1), "{steps}");
        let p = TimingParams::measure(&exec);
        assert_eq!((p.c_min, p.c_max), (Some(1.0), Some(2.5)));
        assert_eq!(p.per_process[&ProcessId(0)].c_min, Some(1.0));
        assert_eq!(p.per_process[&ProcessId(1)].c_min, Some(2.5));
    }

    #[test]
    fn overlapping_tokens_do_not_constrain_global_delay() {
        let exec = exec_of(vec![
            TimedTokenSpec::with_delays(ProcessId(0), 0, 0.0, &[1.0, 1.0, 1.0]),
            TimedTokenSpec::with_delays(ProcessId(1), 1, 1.0, &[1.0, 1.0, 1.0]),
        ]);
        let p = TimingParams::measure(&exec);
        assert_eq!(p.global_delay, None);
        assert_eq!(p.local_delay, None);
    }

    #[test]
    fn empty_execution_has_no_parameters() {
        let exec = exec_of(vec![]);
        let p = TimingParams::measure(&exec);
        assert_eq!(p, TimingParams::default());
        assert_eq!(p.ratio(), None);
    }

    #[test]
    fn zero_c_min_has_no_ratio() {
        let exec =
            exec_of(vec![TimedTokenSpec::with_delays(ProcessId(0), 0, 0.0, &[0.0, 1.0, 1.0])]);
        let p = TimingParams::measure(&exec);
        assert_eq!(p.c_min, Some(0.0));
        assert_eq!(p.ratio(), None);
    }

    #[test]
    fn timing_params_round_trip_through_json() {
        use cnet_util::json;
        let exec = exec_of(vec![
            TimedTokenSpec::with_delays(ProcessId(0), 0, 0.0, &[1.0, 3.0, 2.0]),
            TimedTokenSpec::with_delays(ProcessId(1), 1, 9.0, &[0.5, 0.5, 0.5]),
        ]);
        let p = TimingParams::measure(&exec);
        assert!(!p.per_process.is_empty());
        let back: TimingParams = json::from_str(&json::to_string(&p)).unwrap();
        assert_eq!(p, back);
        // Defaults (all-None) survive too.
        let empty: TimingParams =
            json::from_str(&json::to_string(&TimingParams::default())).unwrap();
        assert_eq!(empty, TimingParams::default());
    }

    #[test]
    fn global_delay_can_be_negative_only_never() {
        // Back-to-back tokens: gap 0, not negative.
        let exec = exec_of(vec![
            TimedTokenSpec::with_delays(ProcessId(0), 0, 0.0, &[1.0, 1.0, 1.0]),
            TimedTokenSpec::with_delays(ProcessId(0), 0, 3.0, &[1.0, 1.0, 1.0]),
        ]);
        let p = TimingParams::measure(&exec);
        assert_eq!(p.global_delay, Some(0.0));
        assert_eq!(p.local_delay, Some(0.0));
    }
}
