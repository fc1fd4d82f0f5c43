//! Contention profile across the network's depth.
//!
//! The motivation for counting networks (\[AHS94\], Section 1.1 of the paper)
//! is that a single fetch-and-increment word concentrates *all* memory
//! contention on one cache line, while a network pays `depth` cheaper
//! operations on `w/2 · depth` separate words. This experiment measures
//! where the contention actually lands: per-layer token traffic and
//! atomic-CAS retry counts under a saturating threaded workload, for a
//! width-spread network (bitonic) versus a root-bottlenecked one (the
//! counting tree). Threads enter by the runtime's entry plan
//! (`CompiledNetwork::entry_for`), and each layer's row says how many of
//! the threads can reach each of its balancers — a balancer one thread
//! reaches is private to it, and its word never leaves that thread's cache.
//!
//! Run: `cargo run --release -p cnet-bench --bin exp_contention`

use cnet_bench::Table;
use cnet_runtime::InstrumentedNetworkCounter;
use cnet_topology::construct::{bitonic, counting_tree};
use cnet_topology::Network;
use std::thread;

const OPS_PER_THREAD: usize = 20_000;

fn profile(label: &str, net: &Network, threads: usize) {
    let counter = InstrumentedNetworkCounter::new(net);
    let engine = counter.engine();
    let entries: Vec<usize> = (0..threads).map(|p| engine.entry_for(p)).collect();
    thread::scope(|s| {
        for &wire in &entries {
            let c = &counter;
            s.spawn(move || {
                for _ in 0..OPS_PER_THREAD {
                    c.increment_from(wire);
                }
            });
        }
    });
    // sharers[b]: how many of the threads can reach balancer b.
    let mut sharers = vec![0usize; net.size()];
    for &wire in &entries {
        for (b, reached) in engine.reachable_from(wire).into_iter().enumerate() {
            sharers[b] += usize::from(reached);
        }
    }
    let total_ops = (threads * OPS_PER_THREAD) as u64;
    println!(
        "--- {label}: {total_ops} increments across {threads} threads on wires {entries:?} ---\n"
    );
    let mut table = Table::new(vec![
        "layer", "balancers", "threads reaching each", "tokens", "CAS retries",
        "retries per 1k tokens",
    ]);
    for (layer, visits, retries) in counter.layer_profile() {
        let reaching: Vec<String> =
            net.layer(layer).balancers().map(|b| sharers[b.index()].to_string()).collect();
        table.row(vec![
            layer.to_string(),
            reaching.len().to_string(),
            reaching.join(" "),
            visits.to_string(),
            retries.to_string(),
            format!("{:.2}", 1000.0 * retries as f64 / visits.max(1) as f64),
        ]);
    }
    println!("{table}");
    let total_retries: u64 = counter.retries().iter().sum();
    println!(
        "total retries: {total_retries} over {} balancer crossings ({:.4} per crossing)\n",
        counter.visits().iter().sum::<u64>(),
        total_retries as f64 / counter.visits().iter().sum::<u64>().max(1) as f64
    );
}

fn main() {
    profile("bitonic B(8)", &bitonic(8).unwrap(), 2);
    profile("bitonic B(8)", &bitonic(8).unwrap(), 8);
    profile("counting tree, fan-out 8", &counting_tree(8).unwrap(), 8);
    println!(
        "Reading: the bitonic network spreads each layer's traffic over w/2 balancers, so\n\
         retries stay uniformly low, and the entry plan keeps the first threads apart:\n\
         two threads take the two B(4) halves, so layers 1-3 are private to one thread\n\
         each (a 1 or a 0 under every balancer) and only the merger's three layers are\n\
         shared. The counting tree funnels every token through its root balancer, which\n\
         concentrates the retries exactly like the single counter the constructions were\n\
         invented to avoid. (On a single-core host retry counts are near zero everywhere —\n\
         contention requires true parallelism.)"
    );
}
