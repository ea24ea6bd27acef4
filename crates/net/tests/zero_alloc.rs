//! The steady-state hot path must not touch the global allocator.
//!
//! The arena packet pool, the reusable dispatch batch and the
//! event queue's lanes exist so that once a workload reaches
//! steady state, simulating more virtual time costs zero heap traffic:
//! every packet lives in a recycled pool slot and every queue structure
//! has plateaued at its high-water capacity. This test pins that down
//! with a counting global allocator: warm the fat8 uniform preset, and
//! then a fat8 incast, up past its fill transient, then assert that a
//! further window performs not a single allocation — in the uniform
//! case while BECNs arrive and CC flow entries come and go.
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

/// What one measured window saw.
struct Window {
    dispatched: u64,
    allocs: u64,
    /// BECNs the HCAs received during the window.
    becns: u64,
    /// Fewest and most CC flows held across the fabric at the start and
    /// after each 10 µs slice.
    held: (usize, usize),
}

/// BECNs received and CC flows held, summed over every HCA.
fn cc_census(net: &Network) -> (u64, usize) {
    net.hcas.iter().fold((0, 0), |(b, n), h| {
        (b + h.cc.becns_received(), n + h.cc.held_flows())
    })
}

/// Run `net` to `warm_us`, then count the events and allocations of
/// the next `window_us`, run in 10 µs slices so the CC churn inside it
/// is seen too.
fn measured_window(net: &mut Network, warm_us: u64, window_us: u64) -> Window {
    net.run_until(Time::from_us(warm_us));
    let before = net.events_processed();
    let (becns_before, held) = cc_census(net);
    let mut w = Window {
        dispatched: 0,
        allocs: 0,
        becns: 0,
        held: (held, held),
    };
    ALLOCS.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    for t in (warm_us + 10..=warm_us + window_us).step_by(10) {
        net.run_until(Time::from_us(t));
        let (becns, held) = cc_census(net);
        w.becns = becns - becns_before;
        w.held = (w.held.0.min(held), w.held.1.max(held));
    }
    ARMED.store(false, Ordering::SeqCst);
    w.allocs = ALLOCS.load(Ordering::SeqCst);
    w.dispatched = net.events_processed() - before;
    w
}

/// fat8 with every node sending `dest` at line rate.
fn fat8(cfg: NetConfig, dest: impl Fn(u32) -> Option<DestPattern>) -> Network {
    let topo = FatTreeSpec::TEST_8.build();
    let mut net = Network::new(&topo, cfg);
    for n in 0..topo.num_hcas as u32 {
        let classes = dest(n).map(|d| TrafficClass::new(100, d, 4096));
        net.set_classes(n, classes.into_iter().collect());
    }
    net
}

#[test]
fn steady_state_window_performs_zero_allocations() {
    // The bench preset: uniform all-to-all, CC on, where a VoQ is
    // rarely more than one deep. Then an incast on node 0, CC off, where
    // the VoQs toward it stay deep and the backlog slab recycles nodes
    // all window long.
    // Warm-up: long enough that every growable structure — packet
    // pool, event-queue lanes and fallback heap, dispatch batch, the
    // backlog slab and sink queues — has seen its high-water mark. The
    // runs are seeded and fully deterministic, so this bound is exact,
    // not flaky.
    let uniform = fat8(NetConfig::paper(), |_| Some(DestPattern::UniformExceptSelf));
    let cc_off = NetConfig {
        cc: None,
        ..NetConfig::paper()
    };
    let incast = fat8(cc_off, |n| (n != 0).then_some(DestPattern::Fixed(0)));
    // One destination drains the incast, so its window is longer.
    for (name, mut net, window_us) in [("uniform", uniform, 100), ("incast", incast, 300)] {
        let Window {
            dispatched,
            allocs,
            becns,
            held,
        } = measured_window(&mut net, 1000, window_us);
        assert!(
            dispatched > 1_000,
            "{name}: window too quiet to be meaningful: {dispatched} events"
        );
        assert_eq!(
            allocs, 0,
            "{name}: hot path allocated {allocs} times across {dispatched} steady-state events"
        );
        // Under CC the window must brake and release flows, so the
        // zero above covers the flow table's inserts and removals.
        assert!(
            name == "incast" || (becns > 0 && held.0 != held.1),
            "{name}: no CC churn in the window: {becns} BECNs, {held:?} flows held"
        );
        // More packets toward one output than it has inputs: some VoQ
        // there stands two deep, so its backlog is in the slab.
        let deep = (net.switches.iter())
            .any(|s| (0..s.radix() as u16).any(|p| s.queued_toward(p) > s.radix()));
        assert!(name == "uniform" || deep, "{name}: no VoQ two deep");
    }
}
