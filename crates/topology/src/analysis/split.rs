//! Split depths, split networks, split sequences, and split numbers
//! (Section 5.3 of the paper).
//!
//! The *split depth* `sd(G)` is the first layer whose balancers are all
//! totally ordering: the point where a token's eventual "sink decision"
//! becomes confined to a contiguous, ordered band of counters. Chopping the
//! network at its split depth and keeping the bottom half yields the next
//! element of the *split sequence*; its length is the *split number*
//! `sp(G)`, which parameterizes the inconsistency-fraction lower bounds of
//! Theorem 5.11.

use crate::analysis::valency::Valencies;
use crate::builder::NetworkBuilder;
use crate::error::TopologyError;
use crate::ids::{BalancerId, SinkId};
use crate::network::{Network, WireEnd, WireStart};

/// Computes the split depth `sd(G)`: the least layer `ℓ` (1-based,
/// `1 ≤ ℓ ≤ d(G)`) such that layer `ℓ` is totally ordering.
///
/// # Errors
///
/// Returns [`TopologyError::NoSplitLayer`] if no balancer layer is totally
/// ordering (e.g. the network has no balancers at all).
pub fn split_depth(net: &Network, val: &Valencies) -> Result<usize, TopologyError> {
    for l in 1..=net.depth() {
        if val.layer_is_totally_ordering(net, net.layer(l)) {
            return Ok(l);
        }
    }
    Err(TopologyError::NoSplitLayer)
}

/// One element of a split sequence, with the properties Theorem 5.11 needs.
#[derive(Clone, Debug)]
pub struct SplitStage {
    /// The network `S⁽ℓ⁾(G)` itself.
    pub network: Network,
    /// Its split depth, if it has a totally-ordering layer.
    pub split_depth: Option<usize>,
    /// Whether its split layer is complete (every split-layer balancer
    /// reaches every sink). `true` vacuously for the final stage.
    pub complete: bool,
    /// Whether its split layer is uniformly splittable. `true` vacuously for
    /// the final stage.
    pub uniformly_splittable: bool,
}

/// The split sequence `S⁽⁰⁾(G), S⁽¹⁾(G), …` of a network (Section 5.3).
#[derive(Clone, Debug)]
pub struct SplitSequence {
    /// The stages, starting with `S⁽⁰⁾(G) = G`.
    pub stages: Vec<SplitStage>,
}

impl SplitSequence {
    /// The split number `sp(G)`: the length of the split sequence.
    pub fn split_number(&self) -> usize {
        self.stages.len()
    }

    /// `d(S⁽ℓ⁾(G))` for `0 ≤ ℓ < sp(G)` — the depths entering Theorem 5.11's
    /// timing thresholds. By the chopping construction, for `1 ≤ ℓ ≤ sp(G)`
    /// this equals the depth remaining *below* the ℓ-th split layer; index
    /// `sp(G)` is also accepted and reported as the depth of the final stage.
    ///
    /// # Panics
    ///
    /// Panics if `l > sp(G)`.
    pub fn stage_depth(&self, l: usize) -> usize {
        if l < self.stages.len() {
            self.stages[l].network.depth()
        } else if l == self.stages.len() {
            // d(S^(sp)) would be the network after the final chop; the final
            // stage has sd == d, so the (hypothetical) next chop leaves
            // depth d − sd = 0 … except the paper evaluates
            // d(S^(sp(G))) = 1 for B(w)/P(w), meaning the *last* stage.
            self.stages[l - 1].network.depth()
        } else {
            panic!("stage {l} out of range 0..={}", self.stages.len());
        }
    }

    /// Whether `G` is **continuously complete**: every stage but the last is
    /// complete.
    pub fn is_continuously_complete(&self) -> bool {
        self.stages.iter().take(self.stages.len().saturating_sub(1)).all(|s| s.complete)
    }

    /// Whether `G` is **continuously uniformly splittable**: every stage but
    /// the last is uniformly splittable.
    pub fn is_continuously_uniformly_splittable(&self) -> bool {
        self.stages.iter().take(self.stages.len().saturating_sub(1)).all(|s| s.uniformly_splittable)
    }
}

/// Computes the split sequence of a network made up of fan-out-2 balancers
/// at its split layers (the setting of Section 5.3).
///
/// Starting from `S⁽⁰⁾ = G`, repeatedly: if `sd(S) = d(S)` stop; otherwise
/// `S ← SP₂(S)`, the bottom subnetwork of the split network of `S` (the
/// layers past the split layer that reach the bottom half of the sinks).
///
/// # Errors
///
/// * [`TopologyError::NoSplitLayer`] if some stage has no totally-ordering
///   layer.
/// * [`TopologyError::Precondition`] if a split layer is not complete or not
///   uniformly splittable with fan-out-2 balancers (so "bottom half" is not
///   well-defined), or if the network is not uniform.
pub fn split_sequence(net: &Network) -> Result<SplitSequence, TopologyError> {
    if !net.is_uniform() {
        return Err(TopologyError::NotUniform);
    }
    let mut stages: Vec<SplitStage> = Vec::new();
    let mut current = net.clone();
    loop {
        let val = Valencies::compute(&current);
        let sd = split_depth(&current, &val)?;
        let layer = current.layer(sd);
        let complete = val.layer_is_complete(&current, layer);
        let uniformly_splittable = val.layer_is_uniformly_splittable(&current, layer);
        let terminal = sd == current.depth();
        stages.push(SplitStage {
            network: current.clone(),
            split_depth: Some(sd),
            complete,
            uniformly_splittable,
        });
        if terminal {
            return Ok(SplitSequence { stages });
        }
        if !complete || !uniformly_splittable {
            return Err(TopologyError::Precondition {
                what: "split layer must be complete and uniformly splittable to chop",
            });
        }
        current = bottom_split_network(&current, &val, sd)?;
    }
}

/// Extracts `SP₂(S)`: the subnetwork of layers `sd+1 ..= d` whose balancers
/// reach only the bottom half of the sinks, with the cut wires becoming the
/// new sources (ordered by their position in the split layer) and the bottom
/// sinks renumbered from zero.
fn bottom_split_network(
    net: &Network,
    val: &Valencies,
    sd: usize,
) -> Result<Network, TopologyError> {
    let w_out = net.fan_out();
    if !w_out.is_multiple_of(2) {
        return Err(TopologyError::Precondition {
            what: "bottom split needs an even number of sinks",
        });
    }
    let half = w_out / 2;
    // Bottom-half membership test for a valency set.
    let in_bottom = |v: &crate::bitset::BitSet| v.min().is_some_and(|m| m >= half);

    // Select balancers strictly past the split layer reaching only bottom
    // sinks.
    let mut selected = vec![false; net.size()];
    for (b, _) in net.balancers() {
        if net.balancer_depth(b) > sd && in_bottom(&val.balancer(net, b)) {
            selected[b.index()] = true;
        }
    }

    // Boundary wires: start outside the selection, end inside it (or at a
    // bottom sink directly — only possible when sd = d, excluded by caller).
    // These become the sources of the subnetwork, ordered by wire id, which
    // follows the construction order of the split layer.
    let mut boundary: Vec<(crate::ids::WireId, WireEnd)> = Vec::new();
    for (id, wire) in net.wires() {
        let start_inside = matches!(
            wire.start,
            WireStart::Balancer { balancer, .. } if selected[balancer.index()]
        );
        let end_inside = match wire.end {
            WireEnd::Balancer { balancer, .. } => selected[balancer.index()],
            WireEnd::Sink(s) => s.index() >= half,
        };
        if !start_inside && end_inside {
            boundary.push((id, wire.end));
        }
        if start_inside && !end_inside {
            return Err(TopologyError::Precondition {
                what: "bottom split network leaks a wire to the top half",
            });
        }
    }

    let mut nb = NetworkBuilder::new(boundary.len(), half);
    // Map old balancer ids to new.
    let mut bal_map: Vec<Option<BalancerId>> = vec![None; net.size()];
    for (b, bal) in net.balancers() {
        if selected[b.index()] {
            bal_map[b.index()] = Some(nb.add_balancer(bal.fan_in(), bal.fan_out()));
        }
    }
    let map_end = |end: WireEnd| -> WireEnd {
        match end {
            WireEnd::Sink(s) => WireEnd::Sink(SinkId(s.index() - half)),
            WireEnd::Balancer { balancer, port } => WireEnd::Balancer {
                balancer: bal_map[balancer.index()].expect("selected balancer"),
                port,
            },
        }
    };
    // Boundary wires become source wires.
    for (src_idx, &(_, end)) in boundary.iter().enumerate() {
        nb.connect(WireStart::Source(crate::ids::SourceId(src_idx)), map_end(end)).map_err(
            |_| TopologyError::Precondition { what: "bottom split network wiring failed" },
        )?;
    }
    // Internal wires.
    for (_, wire) in net.wires() {
        if let WireStart::Balancer { balancer, port } = wire.start {
            if selected[balancer.index()] {
                nb.connect(
                    WireStart::Balancer { balancer: bal_map[balancer.index()].unwrap(), port },
                    map_end(wire.end),
                )
                .map_err(|_| TopologyError::Precondition {
                    what: "bottom split network wiring failed",
                })?;
            }
        }
    }
    nb.finish().map_err(|_| TopologyError::Precondition {
        what: "bottom split network is not a valid balancing network",
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::construct::{bitonic, counting_tree, merger, periodic};

    #[test]
    fn proposition_5_6_bitonic_split_depth() {
        // sd(B(w)) = (lg²w − lg w + 2) / 2, and B(w) is complete and
        // uniformly splittable.
        for lgw in 1usize..6 {
            let w = 1 << lgw;
            let net = bitonic(w).unwrap();
            let val = Valencies::compute(&net);
            let sd = split_depth(&net, &val).unwrap();
            assert_eq!(sd, (lgw * lgw - lgw + 2) / 2, "sd(B({w}))");
            let layer = net.layer(sd);
            assert!(val.layer_is_complete(&net, layer), "B({w}) complete");
            assert!(val.layer_is_uniformly_splittable(&net, layer), "B({w}) uniformly splittable");
        }
    }

    #[test]
    fn proposition_5_8_periodic_split_depth() {
        // sd(P(w)) = lg²w − lg w + 1.
        for lgw in 1usize..5 {
            let w = 1 << lgw;
            let net = periodic(w).unwrap();
            let val = Valencies::compute(&net);
            let sd = split_depth(&net, &val).unwrap();
            assert_eq!(sd, lgw * lgw - lgw + 1, "sd(P({w}))");
            let layer = net.layer(sd);
            assert!(val.layer_is_complete(&net, layer));
            assert!(val.layer_is_uniformly_splittable(&net, layer));
        }
    }

    #[test]
    fn proposition_5_9_bitonic_split_sequence() {
        for lgw in 1usize..6 {
            let w = 1 << lgw;
            let net = bitonic(w).unwrap();
            let seq = split_sequence(&net).unwrap();
            assert_eq!(seq.split_number(), lgw, "sp(B({w}))");
            assert!(seq.is_continuously_complete(), "B({w})");
            assert!(seq.is_continuously_uniformly_splittable(), "B({w})");
            // S^(1)(B(w)) is the merging network M(w/2).
            if lgw >= 2 {
                let s1 = &seq.stages[1].network;
                let m = merger(w / 2).unwrap();
                assert_eq!(s1.depth(), m.depth());
                assert_eq!(s1.size(), m.size());
                assert_eq!(s1.fan_out(), w / 2);
            }
        }
    }

    #[test]
    fn proposition_5_10_periodic_split_sequence() {
        for lgw in 1usize..5 {
            let w = 1 << lgw;
            let net = periodic(w).unwrap();
            let seq = split_sequence(&net).unwrap();
            assert_eq!(seq.split_number(), lgw, "sp(P({w}))");
            assert!(seq.is_continuously_complete());
            assert!(seq.is_continuously_uniformly_splittable());
        }
    }

    #[test]
    fn final_stage_depth_is_one_for_classic_networks() {
        // Corollaries 5.12/5.13 use d(S^(sp)) = 1 at ℓ = lg w.
        for net in [bitonic(16).unwrap(), periodic(16).unwrap()] {
            let seq = split_sequence(&net).unwrap();
            let sp = seq.split_number();
            assert_eq!(seq.stage_depth(sp), 1);
            assert_eq!(seq.stages.last().unwrap().network.depth(), 1);
        }
    }

    #[test]
    fn stage_depths_decrease() {
        let net = bitonic(32).unwrap();
        let seq = split_sequence(&net).unwrap();
        for l in 1..seq.split_number() {
            assert!(seq.stage_depth(l) < seq.stage_depth(l - 1));
        }
    }

    #[test]
    fn tree_has_trivial_split_only_at_last_layer() {
        // Tree balancers interleave leaves, so only the last layer is
        // totally ordering: sd = d and the sequence has a single stage.
        let net = counting_tree(8).unwrap();
        let seq = split_sequence(&net).unwrap();
        assert_eq!(seq.split_number(), 1);
        let val = Valencies::compute(&net);
        assert_eq!(split_depth(&net, &val).unwrap(), net.depth());
    }

    #[test]
    fn identity_network_has_no_split_layer() {
        let net = crate::construct::identity(4).unwrap();
        let val = Valencies::compute(&net);
        assert_eq!(split_depth(&net, &val), Err(TopologyError::NoSplitLayer));
    }

    #[test]
    fn non_uniform_network_is_rejected() {
        let mut lb = crate::builder::LayeredBuilder::new(3);
        lb.balancer(&[0, 1]);
        let net = lb.finish().unwrap();
        assert_eq!(split_sequence(&net).err(), Some(TopologyError::NotUniform));
    }

    #[test]
    fn stage_depth_matches_theorem_formula_for_bitonic() {
        // For B(w): d(S^(ℓ)) = lg w − ℓ for ℓ >= 1 (each merger chop loses
        // one layer), and d(S^(0)) = d(B(w)).
        let lgw = 5usize;
        let net = bitonic(1 << lgw).unwrap();
        let seq = split_sequence(&net).unwrap();
        assert_eq!(seq.stage_depth(0), lgw * (lgw + 1) / 2);
        for l in 1..seq.split_number() {
            assert_eq!(seq.stage_depth(l), lgw - l, "d(S^({l}))");
        }
    }
}
