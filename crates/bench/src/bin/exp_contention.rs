//! Which balancer words the threads share, layer by layer.
//!
//! The motivation for counting networks (\[AHS94\], Section 1.1 of the paper)
//! is that a single fetch-and-increment word concentrates *all* memory
//! contention on one cache line, while a network pays `depth` cheaper
//! operations on `w/2 · depth` separate words. Where the contention can land
//! is fixed by the topology and by where the threads enter: threads enter by
//! the runtime's entry plan (`CompiledNetwork::entry_for`), and each layer's
//! row says how many of them can reach each of its balancers. A balancer one
//! thread reaches is private to it, and its word never leaves that thread's
//! cache; the compiled engine's balancer update is one wait-free atomic, so
//! a shared word costs cache-line transfers, not retries.
//!
//! Run: `cargo run --release -p cnet-bench --bin exp_contention`

use cnet_bench::Table;
use cnet_runtime::CompiledNetwork;
use cnet_topology::construct::{bitonic, counting_tree};
use cnet_topology::Network;

fn profile(label: &str, net: &Network, threads: usize) {
    let engine = CompiledNetwork::compile(net);
    let entries: Vec<usize> = (0..threads).map(|p| engine.entry_for(p)).collect();
    // sharers[b]: how many of the threads can reach balancer b.
    let mut sharers = vec![0usize; net.size()];
    for &wire in &entries {
        for (b, reached) in engine.reachable_from(wire).into_iter().enumerate() {
            sharers[b] += usize::from(reached);
        }
    }
    println!("--- {label}: {threads} threads on wires {entries:?} ---\n");
    let mut table = Table::new(vec!["layer", "balancers", "threads reaching each"]);
    for layer in 1..=net.depth() {
        let reaching: Vec<String> =
            net.layer(layer).balancers().map(|b| sharers[b.index()].to_string()).collect();
        table.row(vec![layer.to_string(), reaching.len().to_string(), reaching.join(" ")]);
    }
    println!("{table}");
}

fn main() {
    profile("bitonic B(8)", &bitonic(8).unwrap(), 2);
    profile("bitonic B(8)", &bitonic(8).unwrap(), 8);
    profile("counting tree, fan-out 8", &counting_tree(8).unwrap(), 8);
    println!(
        "Reading: the bitonic network spreads each layer over w/2 balancers, and the entry\n\
         plan keeps the first threads apart: two threads take the two B(4) halves, so\n\
         layers 1-3 are private to one thread each (a 1 or a 0 under every balancer) and\n\
         only the merger's three layers are shared. The counting tree funnels every token\n\
         through its root balancer, which every thread shares, exactly like the single\n\
         counter the constructions were invented to avoid."
    );
}
