//! Graphviz DOT export, for rendering the paper's figures.
//!
//! The experiment binary `exp_figures` in `cnet-bench` uses this to emit the
//! networks of Figures 2, 4, 5, and 6 as `.dot` files.

use crate::network::{Network, WireEnd, WireStart};
use std::fmt::Write as _;

/// Renders the network as a Graphviz `digraph`, ranked left-to-right with
/// one rank per layer (mirroring the paper's horizontal-lines drawings).
///
/// # Example
///
/// ```
/// use cnet_topology::construct::bitonic;
/// use cnet_topology::dot::to_dot;
///
/// let dot = to_dot(&bitonic(4)?, "B4");
/// assert!(dot.starts_with("digraph B4 {"));
/// assert!(dot.contains("x0 -> "));
/// # Ok::<(), cnet_topology::BuildError>(())
/// ```
pub fn to_dot(net: &Network, name: &str) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "digraph {name} {{");
    let _ = writeln!(out, "  rankdir=LR;");
    let _ = writeln!(out, "  node [shape=box, fontsize=10];");
    // Sources.
    let _ = writeln!(out, "  {{ rank=source;");
    for i in 0..net.fan_in() {
        let _ = writeln!(out, "    x{i} [shape=plaintext, label=\"x{i}\"];");
    }
    let _ = writeln!(out, "  }}");
    // Balancers, one rank block per layer.
    for layer in net.layers() {
        let bals: Vec<_> = layer.balancers().collect();
        if bals.is_empty() {
            continue;
        }
        let _ = writeln!(out, "  {{ rank=same;");
        for b in bals {
            let bal = net.balancer(b);
            let _ = writeln!(
                out,
                "    b{} [label=\"({},{})\"];",
                b.index(),
                bal.fan_in(),
                bal.fan_out()
            );
        }
        let _ = writeln!(out, "  }}");
    }
    // Sinks.
    let _ = writeln!(out, "  {{ rank=sink;");
    for j in 0..net.fan_out() {
        let _ = writeln!(out, "    y{j} [shape=plaintext, label=\"y{j}\"];");
    }
    let _ = writeln!(out, "  }}");
    // Wires.
    for (_, wire) in net.wires() {
        let from = match wire.start {
            WireStart::Source(s) => format!("x{}", s.index()),
            WireStart::Balancer { balancer, .. } => format!("b{}", balancer.index()),
        };
        let to = match wire.end {
            WireEnd::Sink(s) => format!("y{}", s.index()),
            WireEnd::Balancer { balancer, .. } => format!("b{}", balancer.index()),
        };
        let _ = writeln!(out, "  {from} -> {to};");
    }
    let _ = writeln!(out, "}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::construct::{bitonic, counting_tree};

    #[test]
    fn dot_contains_all_nodes_and_edges() {
        let net = bitonic(4).unwrap();
        let dot = to_dot(&net, "B4");
        for i in 0..4 {
            assert!(dot.contains(&format!("x{i} ")));
            assert!(dot.contains(&format!("y{i} ")));
        }
        for b in 0..net.size() {
            assert!(dot.contains(&format!("b{b} ")));
        }
        assert_eq!(dot.matches(" -> ").count(), net.num_wires());
    }

    #[test]
    fn dot_renders_irregular_balancers() {
        let net = counting_tree(4).unwrap();
        let dot = to_dot(&net, "T4");
        assert!(dot.contains("(1,2)"));
    }

    #[test]
    fn dot_is_parseable_shape() {
        let dot = to_dot(&bitonic(2).unwrap(), "B2");
        assert!(dot.starts_with("digraph B2 {"));
        assert!(dot.trim_end().ends_with('}'));
        // Braces balance.
        assert_eq!(dot.matches('{').count(), dot.matches('}').count());
    }

    #[test]
    fn one_rank_block_per_layer() {
        // A bitonic B(8) has depth 6: six `rank=same` blocks, each holding
        // the w/2 = 4 balancers of its layer.
        let net = bitonic(8).unwrap();
        let dot = to_dot(&net, "B8");
        let blocks: Vec<&str> = dot.split("{ rank=same;").skip(1).collect();
        assert_eq!(blocks.len(), net.depth());
        for block in blocks {
            let body = &block[..block.find('}').unwrap()];
            assert_eq!(body.matches(" [label=").count(), 4, "{body}");
        }
    }
}
