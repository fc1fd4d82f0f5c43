//! Error types for network construction and analysis.

use std::error::Error;
use std::fmt;

/// Errors produced while assembling a network with [`crate::NetworkBuilder`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BuildError {
    /// A balancer was declared with fan-in or fan-out of zero.
    ZeroFan {
        /// The offending balancer.
        balancer: usize,
    },
    /// A balancer input port, balancer output port, source, or sink was left
    /// unconnected when `finish` was called.
    Unconnected {
        /// Human-readable description of the dangling endpoint.
        endpoint: String,
    },
    /// Two wires were attached to the same endpoint.
    DoublyConnected {
        /// Human-readable description of the over-connected endpoint.
        endpoint: String,
    },
    /// The wires form a directed cycle, which the paper's model forbids.
    Cyclic,
    /// An endpoint index was out of range for the declared node.
    IndexOutOfRange {
        /// Human-readable description of the bad reference.
        endpoint: String,
    },
    /// A construction was asked for an unsupported width (e.g. the bitonic
    /// network requires the fan to be a power of two, at least 2).
    UnsupportedWidth {
        /// The requested width.
        width: usize,
        /// What the construction requires.
        requirement: &'static str,
    },
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::ZeroFan { balancer } => {
                write!(f, "balancer b{balancer} has zero fan-in or fan-out")
            }
            BuildError::Unconnected { endpoint } => {
                write!(f, "endpoint {endpoint} is not connected to any wire")
            }
            BuildError::DoublyConnected { endpoint } => {
                write!(f, "endpoint {endpoint} is connected to more than one wire")
            }
            BuildError::Cyclic => write!(f, "wires form a directed cycle"),
            BuildError::IndexOutOfRange { endpoint } => {
                write!(f, "endpoint {endpoint} is out of range")
            }
            BuildError::UnsupportedWidth { width, requirement } => {
                write!(f, "unsupported width {width}: {requirement}")
            }
        }
    }
}

impl Error for BuildError {}

/// Errors produced by structural analyses.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TopologyError {
    /// An analysis that requires a uniform network was applied to a
    /// non-uniform one.
    NotUniform,
    /// An analysis that requires a totally-ordering layer found none (the
    /// network has no split layer).
    NoSplitLayer,
    /// The network does not satisfy a structural precondition of the analysis.
    Precondition {
        /// Which precondition failed.
        what: &'static str,
    },
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::NotUniform => write!(f, "network is not uniform"),
            TopologyError::NoSplitLayer => {
                write!(f, "network has no totally-ordering layer")
            }
            TopologyError::Precondition { what } => {
                write!(f, "structural precondition failed: {what}")
            }
        }
    }
}

impl Error for TopologyError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_error_messages_are_lowercase_and_specific() {
        let e =
            BuildError::UnsupportedWidth { width: 3, requirement: "fan must be a power of two" };
        assert_eq!(e.to_string(), "unsupported width 3: fan must be a power of two");
        let e = BuildError::Cyclic;
        assert!(e.to_string().contains("cycle"));
    }

    #[test]
    fn topology_error_messages() {
        assert_eq!(TopologyError::NotUniform.to_string(), "network is not uniform");
        assert!(TopologyError::NoSplitLayer.to_string().contains("totally-ordering"));
    }

    #[test]
    fn errors_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<BuildError>();
        assert_send_sync::<TopologyError>();
    }
}
