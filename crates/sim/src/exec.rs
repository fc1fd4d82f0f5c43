//! Timed executions: step traces and per-token operation records.

use crate::ids::{ProcessId, TokenId};
use cnet_util::json::{self, FromJson, JsonError, ToJson, Value};
use cnet_util::json_struct;

/// A transition step of the execution (Section 2.2): either a token crossing
/// a balancer or a token obtaining a value at a counter.
///
/// A step says when (its [`TimedStep::time`]) and where. Who took it and
/// what it returned belong to the token: the process `p` of `BAL_p` and
/// `COUNT_p` and the value `v` of `COUNT` are the `process` and `value` of
/// `exec.record(step.token())`. Token, balancer and sink indices are `u32`
/// and ports `u16`, so a [`TimedStep`] is 24 bytes; the engine refuses
/// input these cannot index
/// ([`SimError::TooManyTokens`](crate::SimError::TooManyTokens),
/// [`SimError::NetworkTooLarge`](crate::SimError::NetworkTooLarge)) rather
/// than truncate.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Step {
    /// The paper's `BAL_p(T, B, i, j)`.
    Bal {
        /// The token taking the step (its [`TokenId`] index).
        token: u32,
        /// The balancer traversed (its `BalancerId` index in the network).
        balancer: u32,
        /// Input port entered on.
        in_port: u16,
        /// Output port exited on.
        out_port: u16,
    },
    /// The paper's `COUNT_p(T, C, v)`.
    Count {
        /// The token taking the step (its [`TokenId`] index).
        token: u32,
        /// The sink (counter) traversed (its `SinkId` index in the network).
        sink: u32,
    },
}

// Externally tagged, like serde: {"Bal": {...}} / {"Count": {...}}. The
// tamper tests in `validate` navigate this exact shape.
impl ToJson for Step {
    fn to_json(&self) -> Value {
        match *self {
            Step::Bal { token, balancer, in_port, out_port } => Value::Object(vec![(
                "Bal".to_string(),
                Value::Object(vec![
                    ("token".to_string(), token.to_json()),
                    ("balancer".to_string(), balancer.to_json()),
                    ("in_port".to_string(), in_port.to_json()),
                    ("out_port".to_string(), out_port.to_json()),
                ]),
            )]),
            Step::Count { token, sink } => Value::Object(vec![(
                "Count".to_string(),
                Value::Object(vec![
                    ("token".to_string(), token.to_json()),
                    ("sink".to_string(), sink.to_json()),
                ]),
            )]),
        }
    }
}

impl FromJson for Step {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        if let Some(b) = v.get("Bal") {
            Ok(Step::Bal {
                token: json::field(b, "token")?,
                balancer: json::field(b, "balancer")?,
                in_port: json::field(b, "in_port")?,
                out_port: json::field(b, "out_port")?,
            })
        } else if let Some(c) = v.get("Count") {
            Ok(Step::Count { token: json::field(c, "token")?, sink: json::field(c, "sink")? })
        } else {
            Err(JsonError::new(format!("invalid Step: {v:?}")))
        }
    }
}

impl Step {
    /// The token taking this step.
    pub fn token(&self) -> TokenId {
        match *self {
            Step::Bal { token, .. } | Step::Count { token, .. } => TokenId(token as usize),
        }
    }
}

/// A step paired with its (non-decreasing) time.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TimedStep {
    /// The time at which the step occurs.
    pub time: f64,
    /// The step itself.
    pub step: Step,
}

json_struct!(TimedStep { time, step });

/// The complete record of one token's increment operation — the unit the
/// consistency checkers in `cnet-core` reason about.
#[derive(Clone, Debug, PartialEq)]
pub struct TokenRecord {
    /// The token.
    pub token: TokenId,
    /// The process that shepherded it.
    pub process: ProcessId,
    /// The input wire it entered on.
    pub input: usize,
    /// Time of its first step (passing layer 1).
    pub enter_time: f64,
    /// Time of its `COUNT` step (passing layer `d + 1`).
    pub exit_time: f64,
    /// Index of its first step in the execution's step sequence; used to
    /// break ties when two steps share a time.
    pub enter_seq: usize,
    /// Index of its `COUNT` step in the execution's step sequence.
    pub exit_seq: usize,
    /// The sink (counter) it exited through.
    pub sink: usize,
    /// The value it obtained.
    pub value: u64,
}

json_struct!(TokenRecord {
    token,
    process,
    input,
    enter_time,
    exit_time,
    enter_seq,
    exit_seq,
    sink,
    value,
});

impl TokenRecord {
    /// Whether this token **completely precedes** `other` in the execution:
    /// its last step comes before the other token's first step. Ties in time
    /// are resolved by position in the step sequence.
    pub fn completely_precedes(&self, other: &TokenRecord) -> bool {
        (self.exit_time, self.exit_seq) < (other.enter_time, other.enter_seq)
    }

    /// Whether the two tokens overlap (neither completely precedes the
    /// other).
    pub fn overlaps(&self, other: &TokenRecord) -> bool {
        !self.completely_precedes(other) && !other.completely_precedes(self)
    }
}

/// A timed execution: the full step trace plus one record per token.
///
/// Produced by [`crate::engine::run`]; consumed by the checkers in
/// `cnet-core` and the measurement functions in [`crate::timing`].
#[derive(Clone, Debug, PartialEq)]
pub struct TimedExecution {
    depth: usize,
    fan_out: usize,
    steps: Vec<TimedStep>,
    records: Vec<TokenRecord>,
}

json_struct!(TimedExecution { depth, fan_out, steps, records });

impl TimedExecution {
    pub(crate) fn new(
        depth: usize,
        fan_out: usize,
        steps: Vec<TimedStep>,
        records: Vec<TokenRecord>,
    ) -> Self {
        TimedExecution { depth, fan_out, steps, records }
    }

    /// The depth of the network the execution ran on.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// The fan-out of the network the execution ran on.
    pub fn fan_out(&self) -> usize {
        self.fan_out
    }

    /// The step trace, in execution order (non-decreasing time).
    pub fn steps(&self) -> &[TimedStep] {
        &self.steps
    }

    /// One record per token, indexed by [`TokenId`].
    pub fn records(&self) -> &[TokenRecord] {
        &self.records
    }

    /// The record for a specific token.
    ///
    /// # Panics
    ///
    /// Panics if the token id is out of range.
    pub fn record(&self, token: TokenId) -> &TokenRecord {
        &self.records[token.index()]
    }

    /// The values obtained, in token-id order.
    pub fn values(&self) -> Vec<u64> {
        self.records.iter().map(|r| r.value).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(enter: f64, exit: f64, enter_seq: usize, exit_seq: usize) -> TokenRecord {
        TokenRecord {
            token: TokenId(0),
            process: ProcessId(0),
            input: 0,
            enter_time: enter,
            exit_time: exit,
            enter_seq,
            exit_seq,
            sink: 0,
            value: 0,
        }
    }

    #[test]
    fn complete_precedence_by_time() {
        let a = record(0.0, 1.0, 0, 1);
        let b = record(2.0, 3.0, 2, 3);
        assert!(a.completely_precedes(&b));
        assert!(!b.completely_precedes(&a));
        assert!(!a.overlaps(&b));
    }

    #[test]
    fn overlap_when_intervals_intersect() {
        let a = record(0.0, 2.0, 0, 2);
        let b = record(1.0, 3.0, 1, 3);
        assert!(a.overlaps(&b));
        assert!(b.overlaps(&a));
    }

    #[test]
    fn ties_resolved_by_sequence() {
        // a exits at time 1.0 (seq 5); b enters at time 1.0 (seq 6):
        // a's last step comes first in the trace, so a completely precedes b.
        let a = record(0.0, 1.0, 0, 5);
        let b = record(1.0, 2.0, 6, 9);
        assert!(a.completely_precedes(&b));
        // reversed sequence order: they overlap.
        let c = record(1.0, 2.0, 3, 4);
        assert!(!a.completely_precedes(&c));
        assert!(a.overlaps(&c));
    }

    #[test]
    fn steps_round_trip_through_json() {
        use cnet_util::json;
        let steps = [
            Step::Bal { token: 4, balancer: 7, in_port: 0, out_port: 1 },
            Step::Count { token: 1, sink: 3 },
        ];
        for s in steps {
            let back: Step = json::from_str(&json::to_string(&s)).unwrap();
            assert_eq!(s, back);
        }
        // The wire shape is serde's external tagging, which the tamper tests
        // in `validate` rely on.
        let v = json::to_value(&steps[1]);
        assert_eq!(v["Count"]["sink"].as_u64(), Some(3));
    }

    #[test]
    fn executions_round_trip_through_json() {
        use cnet_util::json;
        let exec = TimedExecution::new(
            1,
            2,
            vec![TimedStep { time: 0.5, step: Step::Count { token: 0, sink: 0 } }],
            vec![record(0.0, 0.5, 0, 0)],
        );
        let back: TimedExecution = json::from_str(&json::to_string(&exec)).unwrap();
        assert_eq!(exec, back);
    }

    #[test]
    fn a_timed_step_is_24_bytes() {
        assert_eq!(std::mem::size_of::<TimedStep>(), 24);
    }

    #[test]
    fn a_token_record_is_72_bytes() {
        assert_eq!(std::mem::size_of::<TokenRecord>(), 72);
    }

    #[test]
    fn step_accessors() {
        let s = Step::Bal { token: 4, balancer: 0, in_port: 0, out_port: 1 };
        assert_eq!(s.token(), TokenId(4));
        let c = Step::Count { token: 1, sink: 3 };
        assert_eq!(c.token(), TokenId(1));
    }
}
