//! The Monte-Carlo estimator allocates per call, never per sample.
//!
//! A counting global allocator tallies every allocation in the process
//! (worker threads included) while one `q_given_j_monte_carlo` call runs.
//! The count must be the same at 16 000 and at 160 000 samples: the
//! digest, the incidence, the per-chunk scratch and the parallel region
//! are per-call costs, and the sampling loop itself allocates nothing.
//! This file holds a single test so no other test allocates concurrently.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use hcft_graph::Clustering;
use hcft_reliability::model::fti_tolerance;
use hcft_reliability::{EventDistribution, ReliabilityModel};
use hcft_topology::Placement;

struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counter is a plain
// atomic and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded as received; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` was allocated by `System` through this allocator
        // with `layout`, as `realloc`'s caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator with
        // `layout`, as `dealloc`'s caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Fewest allocations seen over a few identical calls: a stray
/// allocation by the test harness can only raise a count, never lower it.
fn allocations_per_call(samples: usize, call: &dyn Fn(usize) -> f64) -> usize {
    (0..3)
        .map(|_| {
            let before = ALLOCATIONS.load(Ordering::SeqCst);
            std::hint::black_box(call(samples));
            ALLOCATIONS.load(Ordering::SeqCst) - before
        })
        .min()
        .expect("three calls")
}

#[test]
fn allocations_do_not_grow_with_samples() {
    // 32 nodes × 8 ranks, clusters of one rank on each of 4 nodes: the
    // estimator draws 6-node events against 8 digests.
    let (nodes, ppn) = (32, 8);
    let assignment: Vec<usize> = (0..nodes * ppn)
        .map(|r| (r / ppn / 4) * ppn + r % ppn)
        .collect();
    let clustering = Clustering::from_assignment(&assignment);
    let placement = Placement::block(nodes, ppn);
    let model = ReliabilityModel::new(nodes, EventDistribution::single_node_only());
    let call = |samples: usize| {
        model.q_given_j_monte_carlo(6, &clustering, &placement, &fti_tolerance, samples, 7)
    };
    // Warm lazy process state (the thread-count latch, thread-locals).
    call(800);

    let small = allocations_per_call(16_000, &call);
    let large = allocations_per_call(160_000, &call);
    assert_eq!(
        small, large,
        "allocations per call grew with the sample count: {small} at 16 000, {large} at 160 000"
    );
    assert!(
        small < 1_000,
        "{small} allocations for one 16 000-sample call"
    );
}
