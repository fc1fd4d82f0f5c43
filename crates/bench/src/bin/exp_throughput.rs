//! Throughput of counting networks versus centralized counters — the
//! motivating claim of Section 1.1 (after \[AHS94\]): spreading tokens
//! through a network reduces contention at high thread counts.
//!
//! A wall-clock table over 1 to 16 threads, one `fetch_add` word beside
//! the networks, the lock and the diffracting tree: the shape recorded in
//! `EXPERIMENTS.md`. Absolute numbers are machine-dependent; the shape —
//! the single word wins at low concurrency, the network narrows the gap or
//! wins as threads grow, and the lock trails — is the reproduced result.
//!
//! Run: `cargo run --release -p cnet-bench --bin exp_throughput`

use cnet_bench::Table;
use cnet_runtime::{
    DiffractingTree, FetchAddCounter, LockCounter, ProcessCounter, SharedNetworkCounter,
};
use cnet_topology::construct::bitonic;
use std::time::Instant;

const OPS_PER_THREAD: usize = 50_000;

fn throughput<C: ProcessCounter>(counter: &C, threads: usize) -> f64 {
    let start = Instant::now();
    std::thread::scope(|s| {
        for p in 0..threads {
            s.spawn(move || {
                for _ in 0..OPS_PER_THREAD {
                    std::hint::black_box(counter.next_for(p));
                }
            });
        }
    });
    (threads * OPS_PER_THREAD) as f64 / start.elapsed().as_secs_f64() / 1.0e6
}

fn main() {
    let cores = std::thread::available_parallelism().map_or(4, |n| n.get());
    println!("== Throughput (Mops/s), {OPS_PER_THREAD} ops/thread, {cores} cores available ==\n");
    let b8 = bitonic(8).unwrap();
    let b16 = bitonic(16).unwrap();
    let net8 = SharedNetworkCounter::new(&b8);
    let net16 = SharedNetworkCounter::new(&b16);
    let fai = FetchAddCounter::new();
    let lock = LockCounter::new();
    let diff8 = DiffractingTree::new(8, 4).expect("power-of-two width");

    let mut table = Table::new(vec![
        "threads",
        "fetch&add",
        "lock",
        "compiled B(8)",
        "compiled B(16)",
        "diffracting(8)",
    ]);
    for threads in [1usize, 2, 4, 8, 16] {
        table.row(vec![
            threads.to_string(),
            format!("{:.2}", throughput(&fai, threads)),
            format!("{:.2}", throughput(&lock, threads)),
            format!("{:.2}", throughput(&net8, threads)),
            format!("{:.2}", throughput(&net16, threads)),
            format!("{:.2}", throughput(&diff8, threads)),
        ]);
    }
    println!("{table}");
    println!(
        "Reading: a single fetch&add word is unbeatable sequentially, but its per-op\n\
         cost grows with contention; the network's cost is ~depth atomic ops, paid on\n\
         disjoint cache lines, so its curve flattens as threads grow. The compiled\n\
         columns traverse flat routing tables with wait-free balancer updates. The\n\
         lock serializes everything and trails under pressure. The diffracting tree pays\n\
         ~depth CAS hops like the bitonic network (its prisms only win under real\n\
         parallelism)."
    );
}
