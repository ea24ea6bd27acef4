//! The steady-state hot path must not touch the global allocator.
//!
//! The arena packet pool, the reusable dispatch batch and the
//! event queue's lanes exist so that once a workload reaches
//! steady state, simulating more virtual time costs zero heap traffic:
//! every packet lives in a recycled pool slot and every queue structure
//! has plateaued at its high-water capacity. This test pins that down
//! with a counting global allocator: warm the fat8 uniform preset up
//! past its fill transient, then assert that a further 100 µs window
//! performs not a single allocation.
//!
//! This file deliberately contains exactly one test: the counter is
//! process-global, and a sibling test allocating on another thread
//! inside the measured window would produce a spurious count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use ibsim_engine::time::Time;
use ibsim_net::{DestPattern, NetConfig, Network, TrafficClass};
use ibsim_topo::FatTreeSpec;

/// Pass-through allocator that counts allocations while armed.
struct CountingAlloc;

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn steady_state_window_performs_zero_allocations() {
    // The bench preset: fat8, uniform all-to-all, CC on.
    let topo = FatTreeSpec::TEST_8.build();
    let mut net = Network::new(&topo, NetConfig::paper());
    for n in 0..topo.num_hcas as u32 {
        net.set_classes(
            n,
            vec![TrafficClass::new(100, DestPattern::UniformExceptSelf, 4096)],
        );
    }

    // Warm-up: long enough that every growable structure — packet
    // pool, event-queue lanes and fallback heap, dispatch batch, VoQ and
    // sink queues — has seen its high-water mark. The run is seeded
    // and fully deterministic, so this bound is exact, not flaky.
    net.run_until(Time::from_us(1000));
    let before = net.events_processed();

    ARMED.store(true, Ordering::SeqCst);
    net.run_until(Time::from_us(1100));
    ARMED.store(false, Ordering::SeqCst);

    let dispatched = net.events_processed() - before;
    let allocs = ALLOCS.load(Ordering::SeqCst);
    assert!(
        dispatched > 1_000,
        "window too quiet to be meaningful: {dispatched} events"
    );
    assert_eq!(
        allocs, 0,
        "hot path allocated {allocs} times across {dispatched} steady-state events"
    );
}
