//! Building a network allocates in proportion to its wires, not to the
//! error messages it might have needed: a successful build formats no
//! `BuildError` text, and the layered builder keeps no per-balancer
//! scratch. The counting allocator below counts only the calling
//! thread's allocations, so tests running in parallel do not disturb
//! each other's figures.

use cnet_topology::construct::bitonic;
use cnet_topology::ids::{SinkId, SourceId};
use cnet_topology::{BalancerId, BuildError, NetworkBuilder, WireEnd, WireStart};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

fn count() {
    // `try_with`: a thread's last frees and allocations can run after its
    // thread-locals are gone.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counter touches only
// a const-initialised `Cell` thread-local without a destructor, which does
// not allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

#[test]
fn bitonic_builds_with_fewer_than_four_allocations_per_wire() {
    for w in [8, 16, 64] {
        let before = allocs();
        let net = bitonic(w).unwrap();
        let made = allocs() - before;
        let wires = net.wires().count() as u64;
        assert!(
            made < 4 * wires,
            "bitonic({w}): {made} allocations for {wires} wires ({:.1} per wire)",
            made as f64 / wires as f64
        );
    }
}

#[test]
fn doubly_connected_error_text_is_pinned() {
    let mut nb = NetworkBuilder::new(2, 2);
    let b = nb.add_balancer(2, 2);
    nb.connect(WireStart::Source(SourceId(0)), WireEnd::Balancer { balancer: b, port: 0 }).unwrap();
    let err = nb
        .connect(WireStart::Source(SourceId(1)), WireEnd::Balancer { balancer: b, port: 0 })
        .unwrap_err();
    assert_eq!(err, BuildError::DoublyConnected { endpoint: "b0 input port 0".to_string() });
    assert_eq!(err.to_string(), "endpoint b0 input port 0 is connected to more than one wire");
    let err = nb.connect(WireStart::Source(SourceId(0)), WireEnd::Sink(SinkId(0))).unwrap_err();
    assert_eq!(err.to_string(), "endpoint x0 is connected to more than one wire");
}

#[test]
fn index_out_of_range_error_text_is_pinned() {
    let mut nb = NetworkBuilder::new(1, 1);
    let b = nb.add_balancer(1, 1);
    let err = nb.connect(WireStart::Source(SourceId(5)), WireEnd::Sink(SinkId(0))).unwrap_err();
    assert_eq!(err.to_string(), "endpoint x5 is out of range");
    let err = nb
        .connect(WireStart::Balancer { balancer: b, port: 3 }, WireEnd::Sink(SinkId(0)))
        .unwrap_err();
    assert_eq!(err.to_string(), "endpoint b0 output port 3 is out of range");
    let err = nb
        .connect(
            WireStart::Source(SourceId(0)),
            WireEnd::Balancer { balancer: BalancerId(7), port: 0 },
        )
        .unwrap_err();
    assert_eq!(err.to_string(), "endpoint b7 is out of range");
}
