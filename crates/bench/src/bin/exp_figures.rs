//! Figures 2, 4, 5, 6: the paper's example networks, emitted as Graphviz
//! DOT files plus a structural summary table.
//!
//! Run: `cargo run -p cnet-bench --bin exp_figures [out_dir]`

use cnet_bench::Table;
use cnet_topology::construct::{
    bitonic, block, block_interleaved, counting_tree, merger, periodic,
};
use cnet_topology::dot::to_dot;
use cnet_topology::{LayeredBuilder, Network};
use std::fs;
use std::path::PathBuf;

/// Figure 2's (6,6)-balancing network: a mix of (2,2)- and (3,3)-balancers.
fn figure_2_network() -> Network {
    let mut lb = LayeredBuilder::new(6);
    lb.balancer(&[0, 1, 2]);
    lb.balancer(&[3, 4, 5]);
    lb.balancer(&[0, 3]);
    lb.balancer(&[1, 4]);
    lb.balancer(&[2, 5]);
    lb.balancer(&[1, 2, 3]);
    lb.finish().expect("figure 2 network is well-formed")
}

fn main() {
    let out_dir: PathBuf =
        std::env::args().nth(1).unwrap_or_else(|| "target/figures".to_string()).into();
    fs::create_dir_all(&out_dir).expect("create output directory");

    let fig2 = figure_2_network();
    let nets: Vec<(&str, &str, Network)> = vec![
        ("fig2_balancing_6x6", "Figure 2: a (6,6)-balancing network", fig2),
        ("fig4_bitonic_4", "Figure 4 (left): B(4)", bitonic(4).unwrap()),
        ("fig4_bitonic_8", "Figure 4 (right): B(8)", bitonic(8).unwrap()),
        ("fig5_block_8_tb", "Figure 5 (right): L(8), top-bottom form", block(8).unwrap()),
        (
            "fig5_block_8_interleaved",
            "Figure 5 (left): L(8), interleaved form",
            block_interleaved(8).unwrap(),
        ),
        ("fig5_merger_8", "M(8), isomorphic to L(8)", merger(8).unwrap()),
        ("fig6_periodic_8", "Figure 6: P(8)", periodic(8).unwrap()),
        ("tree_8", "Section 2.6.3: counting tree, fan-out 8", counting_tree(8).unwrap()),
    ];

    println!("== Figures 2, 4, 5, 6: network constructions ==\n");
    let mut table = Table::new(vec!["figure", "fan-in", "fan-out", "size", "depth", "uniform"]);
    for (name, title, net) in &nets {
        let path = out_dir.join(format!("{name}.dot"));
        fs::write(&path, to_dot(net, name)).expect("write dot file");
        println!("{title}  ->  {}", path.display());
        table.row(vec![
            name.to_string(),
            net.fan_in().to_string(),
            net.fan_out().to_string(),
            net.size().to_string(),
            net.depth().to_string(),
            net.is_uniform().to_string(),
        ]);
    }
    println!("\n{table}");
    println!("Herlihy–Tirthapura check: L(8) ≅ M(8): {}", {
        let l8 = block(8).unwrap();
        let m8 = merger(8).unwrap();
        cnet_topology::analysis::are_isomorphic(&l8, &m8)
    });
}
