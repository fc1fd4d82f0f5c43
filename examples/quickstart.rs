//! Quickstart: build a bitonic counting network, hand out values from many
//! threads, and verify the counting guarantees.
//!
//! Run: `cargo run --release -p cnet-bench --example quickstart`

use cnet_runtime::SharedNetworkCounter;
use cnet_topology::construct::bitonic;
use cnet_topology::state::has_step_property;
use std::thread;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Build the classic bitonic counting network B(8): 24 two-by-two
    //    balancers in 6 layers, feeding 8 counters.
    let net = bitonic(8)?;
    println!("built {net}");

    // 2. Lay it out in shared memory: one atomic word per balancer, one
    //    counter per output wire.
    let counter = SharedNetworkCounter::new(&net);

    // 3. Eight threads each grab 1000 values; thread p enters on wire p.
    let mut values: Vec<u64> = thread::scope(|s| {
        let handles: Vec<_> = (0..8)
            .map(|p| {
                let counter = &counter;
                s.spawn(move || (0..1000).map(|_| counter.increment_from(p)).collect::<Vec<u64>>())
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().unwrap()).collect()
    });

    // 4. The counting guarantee: 8000 values, no gaps, no duplicates …
    values.sort_unstable();
    assert_eq!(values, (0..8000).collect::<Vec<_>>());
    println!("8 threads drew 8000 values: gap-free and duplicate-free");

    // 5. … and in the quiescent state the step property holds: each counter
    //    handed out the same number of values (±1, top-justified).
    let counts = counter.output_counts();
    assert!(has_step_property(&counts));
    println!("quiescent output counts {counts:?} satisfy the step property");
    Ok(())
}
