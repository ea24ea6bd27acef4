//! Metamorphic tests: relations that must hold between *pairs* of runs.
//!
//! Each test runs the simulator twice under a transformation with a
//! known effect on the output — CC toggled below the congestion
//! threshold (no effect), node ids relabeled on a symmetric switch
//! (permuted per-node results, preserved aggregate), FECN marking
//! disabled (the CC-off throughput), the measurement window doubled
//! (doubled counts). No oracle for the absolute numbers
//! is needed; the *relation* is the oracle. The fabric invariant audit
//! runs on every network involved, so each metamorphic pair is also a
//! conservation check.

use ibsim::prelude::*;

mod common;
use common::warm::{self, hotspot_window};

/// Below the congestion threshold the CC mechanism must be inert:
/// nothing gets FECN-marked, so CC-on and CC-off runs deliver the
/// identical per-node packet sets — not just similar throughput.
#[test]
fn low_load_delivery_is_cc_invariant() {
    let run = |cc: bool| {
        let topo = single_switch(8, 6);
        let cfg = if cc {
            NetConfig::paper()
        } else {
            NetConfig::paper_no_cc()
        };
        let mut net = Network::new(&topo, cfg);
        net.enable_audit(20_000);
        // Three disjoint src->dst pairs at 30% load: no shared output,
        // no standing queue, no marks.
        for (src, dst) in [(0u32, 3u32), (1, 4), (2, 5)] {
            net.set_classes(
                src,
                vec![TrafficClass::new(30, DestPattern::Fixed(dst), 4096).with_max_messages(40)],
            );
        }
        net.run_to_idle(10_000_000);
        net.audit_now().raise();
        assert_eq!(net.total_fecn_marks(), 0, "low load must not mark");
        net.hcas
            .iter()
            .map(|h| (h.injected_packets, h.delivered_packets))
            .collect::<Vec<_>>()
    };
    assert_eq!(run(false), run(true));
}

/// A single switch is symmetric: renaming the hotspot and its
/// contributors must permute the per-node results and leave the
/// aggregate unchanged (up to round-robin tie-order noise).
#[test]
fn relabeling_nodes_permutes_results_preserves_aggregate() {
    let run = |senders: [u32; 3], hot: u32| {
        let key = format!("relabel-{}{}{}-{hot}", senders[0], senders[1], senders[2]);
        let net = hotspot_window(
            &single_switch(8, 6),
            NetConfig::paper(),
            &senders,
            hot,
            &key,
        );
        (net.rx_gbps(hot), net.total_rx_gbps())
    };
    let (hot_a, total_a) = run([1, 2, 3], 0);
    let (hot_b, total_b) = run([2, 3, 4], 5);
    let close = |a: f64, b: f64| (a - b).abs() / a < 0.02;
    assert!(
        close(hot_a, hot_b),
        "hotspot rate not relabel-invariant: {hot_a} vs {hot_b}"
    );
    assert!(
        close(total_a, total_b),
        "aggregate not relabel-invariant: {total_a} vs {total_b}"
    );
}

/// A CC loop that never marks is the same as no CC loop: with the
/// congestion threshold weight at 0 (marking disabled), no packet is
/// FECN-marked, no CNP is sent, no source ever throttles, and the
/// fabric must converge to the CC-off throughput. The transformation
/// (cut the feedback at its first link) has a known equivalent
/// configuration (CC off) — the relation is the oracle; the audit
/// confirms losslessness on every run.
#[test]
fn marking_disabled_converges_to_cc_off_throughput() {
    let run = |cfg: NetConfig, key: &str| {
        let topo = FatTreeSpec::TEST_8.build();
        let net = hotspot_window(&topo, cfg, &[2, 3, 4, 5, 6, 7], 0, key);
        let rates = (net.rx_gbps(0), net.total_rx_gbps());
        (rates, net.total_fecn_marks(), net.max_ccti())
    };
    let mut unmarked = NetConfig::paper();
    unmarked.cc.as_mut().expect("CC on").threshold = 0;
    let ((hot_off, total_off), ..) = run(NetConfig::paper_no_cc(), "hotspot-cc-off");
    let ((hot_unmarked, total_unmarked), marks, max_ccti) = run(unmarked, "hotspot-cc-thr0");
    assert_eq!(marks, 0, "threshold 0 must disable marking");
    assert_eq!(max_ccti, 0, "no BECN may throttle");
    let close = |a: f64, b: f64| (a - b).abs() / a < 0.05;
    assert!(
        close(hot_off, hot_unmarked),
        "hotspot rate must match CC off: {hot_off} vs {hot_unmarked}"
    );
    assert!(
        close(total_off, total_unmarked),
        "total throughput must match CC off: {total_off} vs {total_unmarked}"
    );
    // Sanity: CC with intact feedback lands elsewhere (the victims are
    // rescued, the aggregate shifts) — the relation above is not vacuous.
    let ((_, total_cc), ..) = run(NetConfig::paper(), "hotspot-cc-on");
    assert!(
        (total_cc - total_off).abs() / total_off > 0.05,
        "CC on vs off must differ for the relation to mean anything: \
         {total_cc} vs {total_off}"
    );
}

/// In steady state, measuring twice as long delivers twice as much:
/// the delivered-count deltas over back-to-back equal windows must
/// double within tolerance.
#[test]
fn doubling_the_window_doubles_delivered_counts() {
    let topo = single_switch(8, 6);
    let mut net = Network::new(&topo, NetConfig::paper_no_cc());
    net.enable_audit(50_000);
    for s in 1..4u32 {
        net.set_classes(s, vec![TrafficClass::new(100, DestPattern::Fixed(0), 4096)]);
    }
    warm::warm_until(&mut net, "doubling-3to0", Time::from_ms(1)); // drain-limited steady state
    let d0 = net.total_delivered_packets();
    net.run_until(Time::from_ms(2));
    let d1 = net.total_delivered_packets();
    net.run_until(Time::from_ms(3));
    let d2 = net.total_delivered_packets();
    net.audit_now().raise();
    let one = (d1 - d0) as f64;
    let two = (d2 - d0) as f64;
    assert!(one > 0.0, "nothing delivered in the first window");
    let ratio = two / one;
    assert!(
        (1.9..=2.1).contains(&ratio),
        "doubling the window scaled deliveries by {ratio}, not ~2"
    );
}

/// The warm cache is keyed by the test build: a prefix saved under
/// another build's key is never read, and the same file under this
/// build's key is. The planted prefix is a run to 2 ms filed as the
/// 1 ms one, so reading it shows in the clock: past 1 ms.
#[test]
fn another_builds_warm_prefix_is_never_read() {
    let topo = single_switch(4, 2);
    let fresh = || {
        let mut net = Network::new(&topo, NetConfig::paper());
        net.set_classes(1, vec![TrafficClass::new(100, DestPattern::Fixed(0), 4096)]);
        net
    };
    let mut planted = fresh();
    planted.run_until(Time::from_ms(2));
    let (key, t) = (format!("probe-{}", std::process::id()), Time::from_ms(1));
    let label = warm::label(&key, t);
    let other_exe = std::env::temp_dir().join(format!("ibsim_other_build_{}", std::process::id()));
    std::fs::write(&other_exe, b"another build").unwrap();
    let other = warm::cache_dir(&other_exe);
    assert_ne!(other, warm::warm_dir());
    let warmed = |dir: &std::path::Path| {
        let file = ibsim::checkpoint::save_in(dir, &planted, &label);
        let mut net = fresh();
        warm::warm_until(&mut net, &key, t);
        std::fs::remove_file(file).unwrap();
        net.now()
    };
    assert!(warmed(&other) <= t, "another build's prefix was read");
    std::fs::remove_dir_all(&other).ok();
    std::fs::remove_file(&other_exe).ok();
    // `warm_until` saved the cold prefix; the planted file replaces it.
    assert!(
        warmed(&warm::warm_dir()) > t,
        "this build's prefix was not read"
    );
}
