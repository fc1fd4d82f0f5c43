//! Balancers: the routing elements of a balancing network.

use crate::ids::WireId;
use cnet_util::json_struct;

/// An `(f_in, f_out)`-balancer: a routing element that receives tokens on
/// `f_in` input wires and forwards them to its `f_out` output wires in
/// round-robin order, top to bottom (Section 2.1 of the paper).
///
/// The balancer's dynamic state — which output port the next token leaves on —
/// lives in [`crate::state::NetworkState`], not here; `Balancer` records only
/// the wiring.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Balancer {
    /// Incoming wires, one per input port, in port order.
    inputs: Vec<WireId>,
    /// Outgoing wires, one per output port, in port order (port 0 is the
    /// "top" wire, which the first token exits on).
    outputs: Vec<WireId>,
}

json_struct!(Balancer { inputs, outputs });

impl Balancer {
    /// Creates a balancer from its incoming and outgoing wires.
    ///
    /// # Panics
    ///
    /// Panics if either list is empty; a balancer must have fan-in ≥ 1 and
    /// fan-out ≥ 1 (`NetworkBuilder` reports this as a [`crate::BuildError`]
    /// before reaching this constructor).
    pub(crate) fn new(inputs: Vec<WireId>, outputs: Vec<WireId>) -> Self {
        assert!(!inputs.is_empty() && !outputs.is_empty(), "zero fan");
        Balancer { inputs, outputs }
    }

    /// The balancer's fan-in `f_in`.
    #[inline]
    pub fn fan_in(&self) -> usize {
        self.inputs.len()
    }

    /// The balancer's fan-out `f_out`.
    #[inline]
    pub fn fan_out(&self) -> usize {
        self.outputs.len()
    }

    /// Returns `true` if fan-in equals fan-out (a *regular* balancer).
    #[inline]
    pub fn is_regular(&self) -> bool {
        self.fan_in() == self.fan_out()
    }

    /// The incoming wires in input-port order.
    #[inline]
    pub fn inputs(&self) -> &[WireId] {
        &self.inputs
    }

    /// The outgoing wires in output-port order.
    #[inline]
    pub fn outputs(&self) -> &[WireId] {
        &self.outputs
    }

    /// The wire attached to output port `port`.
    ///
    /// # Panics
    ///
    /// Panics if `port >= fan_out()`.
    #[inline]
    pub fn output(&self, port: usize) -> WireId {
        self.outputs[port]
    }

    /// The wire attached to input port `port`.
    ///
    /// # Panics
    ///
    /// Panics if `port >= fan_in()`.
    #[inline]
    pub fn input(&self, port: usize) -> WireId {
        self.inputs[port]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wires(ids: &[usize]) -> Vec<WireId> {
        ids.iter().copied().map(WireId).collect()
    }

    #[test]
    fn fan_accessors() {
        let b = Balancer::new(wires(&[0, 1, 2]), wires(&[3, 4]));
        assert_eq!(b.fan_in(), 3);
        assert_eq!(b.fan_out(), 2);
        assert!(!b.is_regular());
        assert_eq!(b.input(1), WireId(1));
        assert_eq!(b.output(0), WireId(3));
    }

    #[test]
    fn regular_balancer() {
        let b = Balancer::new(wires(&[0, 1]), wires(&[2, 3]));
        assert!(b.is_regular());
        assert_eq!(b.inputs(), &[WireId(0), WireId(1)]);
        assert_eq!(b.outputs(), &[WireId(2), WireId(3)]);
    }

    #[test]
    #[should_panic(expected = "zero fan")]
    fn zero_fan_panics() {
        let _ = Balancer::new(vec![], wires(&[0]));
    }

    #[test]
    fn json_round_trip_keeps_port_order() {
        let b = Balancer::new(wires(&[4, 1]), wires(&[9, 2, 7]));
        let text = cnet_util::json::to_string(&b);
        assert_eq!(text, r#"{"inputs":[4,1],"outputs":[9,2,7]}"#);
        let back: Balancer = cnet_util::json::from_str(&text).unwrap();
        assert_eq!(back, b);
        assert_eq!(back.output(0), WireId(9), "port 0 is still the top wire");
    }

    #[test]
    #[should_panic]
    fn output_port_past_the_fan_out_panics() {
        let b = Balancer::new(wires(&[0, 1]), wires(&[2, 3]));
        let _ = b.output(2);
    }
}
