//! The standalone lateness meter: the plain statement of the measure that
//! `StreamingAuditor`'s QQC lateness profile is tested against. It keeps
//! its own pending heap and a floor-compacted tree of finished values, and
//! shares no code with the kernel's bitmap window.

use cnet_core::trace::OpEvent;
use cnet_util::hist::LatencyHistogram;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::ops::Bound::{Excluded, Unbounded};

/// The multiset of finished values: every value below `floor` has
/// finished once; `above` counts the rest, out-of-order values and repeats
/// alike.
#[derive(Clone, Debug, Default)]
struct FinishedSet {
    floor: u64,
    above: BTreeMap<u64, u64>,
}

impl FinishedSet {
    fn finish(&mut self, v: u64) {
        if v != self.floor {
            *self.above.entry(v).or_insert(0) += 1;
            return;
        }
        self.floor += 1;
        while let Some(c) = self.above.remove(&self.floor) {
            if c > 1 {
                // The extra finishes repeat a now-compacted value; keep
                // them as explicit entries below the floor.
                self.above.insert(self.floor, c - 1);
            }
            self.floor += 1;
        }
    }

    /// Finished values strictly greater than `v`.
    fn greater(&self, v: u64) -> u64 {
        let interval = if v < self.floor { self.floor - 1 - v } else { 0 };
        let sparse: u64 = self.above.range((Excluded(v), Unbounded)).map(|(_, c)| c).sum();
        interval + sparse
    }
}

/// Online quantitative-quiescent-consistency meter (Jagadeesan–Riely,
/// arXiv 1402.4043), specialized to counting:
///
/// > `lateness(o)` = number of operations that completely precede `o`
/// > (finished before `o` entered) yet returned a *larger* value.
///
/// Feed in nondecreasing enter order. Tracks the maximum, mean and p99 of
/// the per-op lateness.
#[derive(Clone, Debug, Default)]
pub struct StreamingQqcMeter {
    /// `(exit_ns, exit_seq, value)` of operations not yet finished.
    pending: BinaryHeap<Reverse<(u64, usize, u64)>>,
    finished: FinishedSet,
    total: usize,
    late: usize,
    max: u64,
    sum: u128,
    hist: LatencyHistogram,
}

impl StreamingQqcMeter {
    /// A fresh meter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Consumes one event and returns its lateness.
    pub fn push(&mut self, ev: &OpEvent) -> u64 {
        while let Some(&Reverse((exit_ns, exit_seq, value))) = self.pending.peek() {
            if (exit_ns, exit_seq) >= ev.enter_key() {
                break;
            }
            self.pending.pop();
            self.finished.finish(value);
        }
        let lateness = self.finished.greater(ev.value);
        self.total += 1;
        self.late += usize::from(lateness > 0);
        self.max = self.max.max(lateness);
        self.sum += u128::from(lateness);
        self.hist.record(lateness);
        self.pending.push(Reverse((ev.exit_ns, ev.exit_seq, ev.value)));
        lateness
    }

    /// Events consumed so far.
    pub fn total(&self) -> usize {
        self.total
    }

    /// Operations with nonzero lateness.
    pub fn late_ops(&self) -> usize {
        self.late
    }

    /// Maximum lateness observed.
    pub fn qqc_max(&self) -> u64 {
        self.max
    }

    /// Mean lateness; `0.0` on an empty stream.
    pub fn qqc_mean(&self) -> f64 {
        match self.total {
            0 => 0.0,
            n => self.sum as f64 / n as f64,
        }
    }

    /// The 99th-percentile lateness.
    pub fn qqc_p99(&self) -> u64 {
        self.hist.quantile(0.99)
    }
}
