//! Criterion benchmark: increment throughput of the shared-memory counting
//! network versus the centralized baselines, across thread counts — the
//! contention claim of \[AHS94\] that motivates the whole line of work
//! (Section 1.1 of the paper).

use cnet_runtime::{FetchAddCounter, LockCounter, ProcessCounter, SharedNetworkCounter};
use cnet_topology::construct::{bitonic, counting_tree};
use cnet_util::bench::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

const OPS_PER_THREAD: usize = 2_000;

fn run_threads<C: ProcessCounter>(counter: &C, threads: usize) {
    std::thread::scope(|s| {
        for p in 0..threads {
            s.spawn(move || {
                for _ in 0..OPS_PER_THREAD {
                    black_box(counter.next_for(p));
                }
            });
        }
    });
}

fn bench_throughput(c: &mut Criterion) {
    let b8 = bitonic(8).unwrap();
    let b16 = bitonic(16).unwrap();
    let t8 = counting_tree(8).unwrap();
    let mut group = c.benchmark_group("counter_throughput");
    for threads in [1usize, 2, 4, 8] {
        group.throughput(Throughput::Elements((threads * OPS_PER_THREAD) as u64));
        group.bench_with_input(BenchmarkId::new("fetch_add", threads), &threads, |b, &t| {
            let counter = FetchAddCounter::new();
            b.iter(|| run_threads(&counter, t));
        });
        group.bench_with_input(BenchmarkId::new("lock", threads), &threads, |b, &t| {
            let counter = LockCounter::new();
            b.iter(|| run_threads(&counter, t));
        });
        group.bench_with_input(BenchmarkId::new("bitonic_8", threads), &threads, |b, &t| {
            let counter = SharedNetworkCounter::new(&b8);
            b.iter(|| run_threads(&counter, t));
        });
        group.bench_with_input(BenchmarkId::new("bitonic_16", threads), &threads, |b, &t| {
            let counter = SharedNetworkCounter::new(&b16);
            b.iter(|| run_threads(&counter, t));
        });
        group.bench_with_input(BenchmarkId::new("tree_8", threads), &threads, |b, &t| {
            let counter = SharedNetworkCounter::new(&t8);
            b.iter(|| run_threads(&counter, t));
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(15)
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_millis(1500));
    targets = bench_throughput
}
criterion_main!(benches);
