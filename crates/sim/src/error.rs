//! Errors produced by the simulation engine.

use crate::ids::{ProcessId, TokenId};
use std::error::Error;
use std::fmt;

/// Errors detected while validating token specifications or replaying a
/// timed execution.
#[derive(Clone, Debug, PartialEq)]
pub enum SimError {
    /// The engine requires a uniform network (the paper's timing parameters
    /// are defined layer-by-layer over uniform networks).
    NotUniform,
    /// The network has more wires, or a balancer more ports, than a
    /// [`Step`](crate::exec::Step) can index: its balancer and sink fields
    /// are `u32`, each such index being below the wire count, and its port
    /// fields are `u16`.
    NetworkTooLarge,
    /// There are more token specs than a [`Step`](crate::exec::Step)'s
    /// `u32` token field can index.
    TooManyTokens {
        /// How many specs were supplied.
        count: usize,
    },
    /// A token's `step_times` has the wrong length (must be `depth + 1`).
    WrongStepCount {
        /// The offending token.
        token: TokenId,
        /// How many step times were supplied.
        got: usize,
        /// How many are required (`depth + 1`).
        want: usize,
    },
    /// A token's step times decrease.
    DecreasingStepTimes {
        /// The offending token.
        token: TokenId,
    },
    /// A step time is not a finite number.
    NonFiniteTime {
        /// The offending token.
        token: TokenId,
    },
    /// A token's input wire is out of range.
    BadInputWire {
        /// The offending token.
        token: TokenId,
        /// The requested input wire.
        input: usize,
    },
    /// Two tokens of the same process overlap in time, violating execution
    /// condition 3 of Section 2.2.
    OverlappingProcessTokens {
        /// The process issuing both tokens.
        process: ProcessId,
        /// The two overlapping tokens.
        tokens: (TokenId, TokenId),
    },
    /// The Theorem 3.2 transformation was asked to run on a network with
    /// irregular balancers or unequal fan-in/fan-out (its flushing wave
    /// requires fan-in = fan-out = W with regular balancers).
    TransformNeedsRegularFan,
    /// The Theorem 3.2 transformation found no non-linearizable token pair
    /// to transplant.
    NoWitnessPair,
    /// An adversarial construction's preconditions do not hold.
    InvalidConstruction {
        /// Which precondition failed.
        what: &'static str,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::NotUniform => write!(f, "network is not uniform"),
            SimError::NetworkTooLarge => write!(
                f,
                "network has more than {} wires or a balancer with more than {} ports, \
                 more than a step can index",
                u32::MAX,
                u32::from(u16::MAX) + 1
            ),
            SimError::TooManyTokens { count } => {
                write!(f, "{count} tokens, more than the {} a step can index", u32::MAX)
            }
            SimError::WrongStepCount { token, got, want } => {
                write!(f, "token {token} has {got} step times, expected {want}")
            }
            SimError::DecreasingStepTimes { token } => {
                write!(f, "token {token} has decreasing step times")
            }
            SimError::NonFiniteTime { token } => {
                write!(f, "token {token} has a non-finite step time")
            }
            SimError::BadInputWire { token, input } => {
                write!(f, "token {token} enters on nonexistent input wire {input}")
            }
            SimError::OverlappingProcessTokens { process, tokens } => {
                write!(
                    f,
                    "tokens {} and {} of process {process} overlap in time",
                    tokens.0, tokens.1
                )
            }
            SimError::TransformNeedsRegularFan => {
                write!(f, "transformation requires a regular network with fan-in = fan-out")
            }
            SimError::NoWitnessPair => {
                write!(f, "execution has no non-linearizable token pair to transplant")
            }
            SimError::InvalidConstruction { what } => {
                write!(f, "adversarial construction precondition failed: {what}")
            }
        }
    }
}

impl Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_name_the_offender() {
        let e = SimError::WrongStepCount { token: TokenId(7), got: 3, want: 5 };
        assert_eq!(e.to_string(), "token T7 has 3 step times, expected 5");
        let e = SimError::OverlappingProcessTokens {
            process: ProcessId(2),
            tokens: (TokenId(0), TokenId(1)),
        };
        assert!(e.to_string().contains("p2"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SimError>();
    }
}
