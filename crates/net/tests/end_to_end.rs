//! End-to-end tests of the assembled network: real packets through real
//! switches, credits, arbitration and the CC loop.

use ibsim_engine::time::{Bandwidth, Time, TimeDelta};
use ibsim_net::{DestPattern, EventState, NetConfig, Network, TrafficClass};
use ibsim_topo::{single_switch, FatTreeSpec};

fn msg_class(dst: u32, messages: u64) -> TrafficClass {
    TrafficClass::new(100, DestPattern::Fixed(dst), 4096).with_max_messages(messages)
}

#[test]
fn one_message_crosses_one_switch() {
    let topo = single_switch(4, 2);
    let mut net = Network::new(&topo, NetConfig::paper());
    net.set_classes(0, vec![msg_class(1, 1)]);
    let end = net.run_to_idle(100_000);
    let cnps: u64 = net.hcas.iter().map(|h| h.cnps_sent).sum();
    assert_eq!(net.total_delivered_packets(), 2, "4096 B = two MTU packets");
    assert_eq!(net.total_injected_packets(), 2 + cnps);
    assert_eq!(net.hcas[1].delivered_packets, 2);
    // Latency sanity: at least the serialisation+wire time, below 100 us.
    assert!(end > Time::from_ns(1000));
    assert!(end < Time::from_us(100));
}

#[test]
fn messages_cross_the_fat_tree() {
    let topo = FatTreeSpec::TEST_8.build();
    let mut net = Network::new(&topo, NetConfig::paper());
    // Node 0 (leaf 0) -> node 7 (leaf 3): a 3-hop leaf-spine-leaf path.
    net.set_classes(0, vec![msg_class(7, 5)]);
    net.run_to_idle(100_000);
    assert_eq!(net.hcas[7].delivered_packets, 10);
    let cnps: u64 = net.hcas.iter().map(|h| h.cnps_delivered).sum();
    assert_eq!(
        net.total_injected_packets(),
        net.total_delivered_packets() + cnps
    );
}

#[test]
fn packet_conservation_under_all_to_one() {
    // 7 senders hammer node 0 through the fat tree; everything must
    // still be delivered, in order, with nothing lost or duplicated.
    let topo = FatTreeSpec::TEST_8.build();
    let mut net = Network::new(&topo, NetConfig::paper());
    for n in 1..8u32 {
        net.set_classes(n, vec![msg_class(0, 50)]);
    }
    net.run_to_idle(10_000_000);
    assert_eq!(net.hcas[0].delivered_packets, 7 * 50 * 2);
    let cnps_back: u64 = net.hcas.iter().map(|h| h.cnps_delivered).sum();
    assert_eq!(
        net.total_injected_packets(),
        net.total_delivered_packets() + cnps_back
    );
    assert!(net.workload_drained());
}

#[test]
fn single_flow_reaches_injection_cap() {
    let topo = single_switch(4, 2);
    let mut net = Network::new(&topo, NetConfig::paper());
    net.set_classes(0, vec![TrafficClass::new(100, DestPattern::Fixed(1), 4096)]);
    net.run_until(Time::from_ms(1));
    net.start_measurement();
    net.run_until(Time::from_ms(3));
    net.stop_measurement();
    let rx = net.rx_gbps(1);
    // One flow, no contention: throughput equals the 13.5 Gbit/s
    // injection cap (within rounding).
    assert!((rx - 13.5).abs() < 0.2, "rx = {rx}");
}

#[test]
fn hotspot_saturates_at_drain_cap() {
    // Three senders to one destination on a single switch: the
    // receiver's 13.6 Gbit/s drain is the bottleneck.
    let topo = single_switch(8, 4);
    let mut net = Network::new(&topo, NetConfig::paper_no_cc());
    for n in 1..4u32 {
        net.set_classes(n, vec![TrafficClass::new(100, DestPattern::Fixed(0), 4096)]);
    }
    net.run_until(Time::from_ms(1));
    net.start_measurement();
    net.run_until(Time::from_ms(3));
    net.stop_measurement();
    let rx = net.rx_gbps(0);
    assert!((rx - 13.6).abs() < 0.3, "hotspot rx = {rx}");
}

/// The paper's core phenomenon in miniature: a hotspot's congestion tree
/// HOL-blocks a victim flow that shares only an upstream stage; enabling
/// CC restores the victim's throughput.
fn victim_throughput(cc: bool) -> f64 {
    // TEST_8: 4 leafs x 2 hosts, 2 spines; d-mod-k sends all traffic
    // for node 0 through spine 0.
    let topo = FatTreeSpec::TEST_8.build();
    let cfg = if cc {
        NetConfig::paper()
    } else {
        NetConfig::paper_no_cc()
    };
    let mut net = Network::new(&topo, cfg);
    // Contributors on leafs 1 and 3 hammer node 0 (leaf 0): their
    // packets pile up in spine 0's input buffers.
    for n in [2u32, 3, 6, 7] {
        net.set_classes(n, vec![TrafficClass::new(100, DestPattern::Fixed(0), 4096)]);
    }
    // Victim: node 6 (leaf 3) sends to node 2 (leaf 1; dst%2==0 routes
    // via spine 0). Its packets share the leaf3->spine0 uplink with
    // node 7's hotspot flood, so they are HOL-blocked behind the
    // congestion tree in spine 0's shared per-input credit pool.
    net.set_classes(6, vec![TrafficClass::new(100, DestPattern::Fixed(2), 4096)]);
    net.run_until(Time::from_ms(2));
    net.start_measurement();
    net.run_until(Time::from_ms(6));
    net.stop_measurement();
    net.rx_gbps(2)
}

#[test]
fn congestion_control_rescues_victim_flow() {
    let without = victim_throughput(false);
    let with = victim_throughput(true);
    assert!(
        with > without * 1.5,
        "CC should lift the victim well above the blocked rate: \
         {without:.2} -> {with:.2} Gbit/s"
    );
    // And with CC the victim should be close to its injection cap.
    assert!(with > 10.0, "victim with CC: {with:.2} Gbit/s");
}

#[test]
fn cc_loop_produces_fecn_becn_and_throttling() {
    let topo = FatTreeSpec::TEST_8.build();
    let mut net = Network::new(&topo, NetConfig::paper());
    for n in 2..8u32 {
        net.set_classes(n, vec![TrafficClass::new(100, DestPattern::Fixed(0), 4096)]);
    }
    net.run_until(Time::from_ms(2));
    assert!(net.total_fecn_marks() > 0, "switches must mark");
    assert!(net.total_becns() > 0, "sources must hear BECNs");
    assert!(net.max_ccti() > 0, "flows must be throttled");
}

#[test]
fn no_cc_means_no_marks() {
    let topo = FatTreeSpec::TEST_8.build();
    let mut net = Network::new(&topo, NetConfig::paper_no_cc());
    for n in 2..8u32 {
        net.set_classes(n, vec![TrafficClass::new(100, DestPattern::Fixed(0), 4096)]);
    }
    net.run_until(Time::from_ms(2));
    assert_eq!(net.total_fecn_marks(), 0);
    assert_eq!(net.total_becns(), 0);
    assert_eq!(net.max_ccti(), 0);
}

#[test]
fn identical_seeds_identical_runs() {
    let run = |seed: u64| -> (u64, u64, Vec<u64>) {
        let topo = FatTreeSpec::TEST_8.build();
        let mut net = Network::new(&topo, NetConfig::paper().with_seed(seed));
        for n in 0..8u32 {
            net.set_classes(
                n,
                vec![TrafficClass::new(100, DestPattern::UniformExceptSelf, 4096)],
            );
        }
        net.run_until(Time::from_ms(1));
        let per_node = net.hcas.iter().map(|h| h.delivered_packets).collect();
        (
            net.events_processed(),
            net.total_delivered_packets(),
            per_node,
        )
    };
    let a = run(42);
    let b = run(42);
    assert_eq!(a, b, "same seed must be bit-identical");
    let c = run(43);
    assert_ne!(a.2, c.2, "different seed must differ somewhere");
}

#[test]
fn uniform_traffic_spreads_evenly() {
    let topo = FatTreeSpec::QUICK_72.build();
    // CC off: this is a plumbing check of the fabric, not of CC (the
    // residual CC penalty at pure uniform traffic is measured by the
    // fig-8 experiment instead).
    let mut net = Network::new(&topo, NetConfig::paper_no_cc());
    for n in 0..72u32 {
        net.set_classes(
            n,
            vec![TrafficClass::new(100, DestPattern::UniformExceptSelf, 4096)],
        );
    }
    net.run_until(Time::from_ms(1));
    net.start_measurement();
    net.run_until(Time::from_ms(3));
    net.stop_measurement();
    // All 72 nodes inject 13.5; with the shallow (16 KiB/VL) switch
    // buffers of the calibrated config, transient collisions cost a few
    // percent, landing around 12.7 of the 13.6 drain cap.
    let rates: Vec<f64> = (0..72).map(|n| net.rx_gbps(n)).collect();
    let mean = rates.iter().sum::<f64>() / 72.0;
    assert!((mean - 12.7).abs() < 0.6, "mean rx {mean}");
    for (n, r) in rates.iter().enumerate() {
        assert!((r - mean).abs() < 2.0, "node {n} rate {r} vs mean {mean}");
    }
}

#[test]
fn moving_hotspot_retarget_mid_run() {
    let topo = FatTreeSpec::TEST_8.build();
    let mut net = Network::new(&topo, NetConfig::paper());
    for n in 2..8u32 {
        net.set_classes(n, vec![TrafficClass::new(100, DestPattern::Fixed(0), 4096)]);
    }
    net.run_until(Time::from_ms(1));
    let early = net.hcas[1].delivered_packets;
    assert_eq!(early, 0, "node 1 receives nothing before the move");
    for n in 2..8u32 {
        net.retarget_class(n, 0, 1);
    }
    net.run_until(Time::from_ms(2));
    assert!(
        net.hcas[1].delivered_packets > 100,
        "hotspot moved to node 1: {}",
        net.hcas[1].delivered_packets
    );
}

#[test]
fn sl_mode_throttles_collaterally() {
    use ibsim_cc::{CcMode, CcParams};
    // In SL mode a BECN for the hotspot flow also throttles the
    // victim flow of the same SL at that HCA — the unfairness the
    // paper warns about (§II).
    let run = |mode: CcMode| -> f64 {
        let topo = FatTreeSpec::TEST_8.build();
        let mut cfg = NetConfig::paper();
        let mut params = CcParams::paper_table1();
        params.mode = mode;
        cfg.cc = Some(params);
        let mut net = Network::new(&topo, cfg);
        for n in 2..8u32 {
            net.set_classes(n, vec![TrafficClass::new(100, DestPattern::Fixed(0), 4096)]);
        }
        // Node 2 also runs an innocent flow to node 5 (another leaf).
        net.set_classes(
            2,
            vec![
                TrafficClass::new(50, DestPattern::Fixed(0), 4096),
                TrafficClass::new(50, DestPattern::Fixed(5), 4096),
            ],
        );
        net.run_until(Time::from_ms(2));
        net.start_measurement();
        net.run_until(Time::from_ms(6));
        net.stop_measurement();
        net.rx_gbps(5)
    };
    let qp = run(CcMode::QueuePair);
    let sl = run(CcMode::ServiceLevel);
    assert!(
        qp > sl * 1.3,
        "QP-level CC must spare the innocent flow: qp={qp:.3} sl={sl:.3}"
    );
}

/// Exact timing-model validation: an uncontended flow's end-to-end
/// latency is a closed-form sum of serialisation, propagation, routing
/// and drain terms — the measured mean must match it to the picosecond.
#[test]
fn uncontended_latency_matches_closed_form() {
    let topo = single_switch(4, 2);
    let cfg = NetConfig::paper();
    // Expected path: inject (wire serialisation starts the clock) ->
    // head reaches switch after link_delay -> eligible after
    // switch_latency -> granted immediately (idle output) -> tail
    // reaches the HCA after link_delay + serialisation -> drained at
    // the receive cap.
    let ser = cfg.link_bw.tx_time(2048);
    let drain = cfg.drain_rate.tx_time(2048);
    let expect = cfg.link_delay + cfg.switch_latency + cfg.link_delay + ser + drain;

    let mut net = Network::new(&topo, cfg);
    net.set_classes(
        0,
        vec![TrafficClass::new(100, DestPattern::Fixed(1), 4096).with_max_messages(200)],
    );
    net.run_to_idle(1_000_000);
    let lat = net.latency_histogram();
    assert_eq!(lat.count(), 400, "200 messages x 2 packets");
    // Every packet should see the identical uncontended pipeline: the
    // inter-packet injection gap (13.5 Gbit/s shaping) exceeds the
    // drain time, so no queueing anywhere.
    assert_eq!(lat.min(), lat.max(), "no queueing variance expected");
    assert_eq!(lat.min(), Some(expect.as_ps()), "closed-form latency");
}

/// After a bounded workload drains completely, every flow-control
/// credit must be back where it started: none lost in transit, none
/// double-returned.
#[test]
fn credits_conserved_at_rest() {
    let topo = FatTreeSpec::TEST_8.build();
    for cc in [false, true] {
        let cfg = if cc {
            NetConfig::paper()
        } else {
            NetConfig::paper_no_cc()
        };
        let mut net = Network::new(&topo, cfg);
        for n in 1..8u32 {
            net.set_classes(n, vec![msg_class(0, 30)]);
        }
        net.run_to_idle(10_000_000);
        assert!(net.workload_drained());
        net.check_credits_at_rest()
            .unwrap_or_else(|e| panic!("cc={cc}: {e}"));
    }
}

/// Packet traces: every traced packet follows exactly the switch path
/// the forwarding tables promise, with strictly increasing timestamps
/// through Inject → arrivals/forwards → Arrive → Deliver.
#[test]
fn traces_match_forwarding_tables() {
    use ibsim_net::TracePoint;
    let topo = FatTreeSpec::TEST_8.build();
    let mut net = Network::new(&topo, NetConfig::paper());
    net.enable_trace([(0u32, 7u32)]);
    net.set_classes(0, vec![msg_class(7, 3)]);
    net.run_to_idle(100_000);

    let tracer = net.tracer().unwrap();
    let expected_path: Vec<u32> = topo
        .route_path(0, 7)
        .unwrap()
        .into_iter()
        .map(|s| s as u32)
        .collect();
    for seq in 1..=6u32 {
        let recs = tracer.packet(0, 7, seq);
        assert!(!recs.is_empty(), "packet {seq} untraced");
        assert_eq!(recs.first().unwrap().point, TracePoint::Inject);
        assert_eq!(recs.last().unwrap().point, TracePoint::Deliver);
        assert!(
            recs.windows(2).all(|w| w[0].at_ps <= w[1].at_ps),
            "timestamps must be nondecreasing"
        );
        assert_eq!(
            tracer.path_of(0, 7, seq),
            expected_path,
            "packet {seq} took the wrong route"
        );
    }
    // Untraced flows leave no records.
    assert!(tracer.packet(7, 0, 1).is_empty());
}

/// A congestion notification outruns queued data: once a FECN-marked
/// packet arrives, the CNP is the destination's very next transmission
/// even though its data classes have backlog.
#[test]
fn cnp_preempts_data_backlog() {
    let topo = single_switch(4, 3);
    let mut net = Network::new(&topo, NetConfig::paper());
    // Node 1 floods node 0 (gets marked); node 0 itself has a busy
    // data class toward node 2.
    net.enable_trace([(0u32, 1u32)]);
    net.set_classes(1, vec![TrafficClass::new(100, DestPattern::Fixed(0), 4096)]);
    net.set_classes(2, vec![TrafficClass::new(100, DestPattern::Fixed(0), 4096)]);
    net.set_classes(0, vec![TrafficClass::new(100, DestPattern::Fixed(2), 4096)]);
    net.run_until(Time::from_ms(2));
    // CNPs from node 0 back to node 1 did go out despite node 0's own
    // full-rate data backlog.
    assert!(net.hcas[0].cnps_sent > 0, "destination must return CNPs");
    assert!(net.hcas[1].cc.becns_received() > 0, "source must hear them");
}

/// Deterministic Sequence destinations drive an exact delivery pattern.
#[test]
fn sequence_pattern_round_robins_destinations() {
    let topo = single_switch(8, 4);
    let mut net = Network::new(&topo, NetConfig::paper_no_cc());
    net.set_classes(
        0,
        vec![
            TrafficClass::new(100, DestPattern::Sequence(vec![1, 2, 3]), 4096).with_max_messages(9),
        ],
    );
    net.run_to_idle(1_000_000);
    // 9 messages cycle 1,2,3 three times: 3 messages = 6 packets each.
    for dst in 1..4u32 {
        assert_eq!(
            net.hcas[dst as usize].delivered_packets, 6,
            "dst {dst} should receive exactly 3 messages"
        );
    }
}

/// Larger credit-update latency lowers achievable single-flow
/// throughput once the buffer no longer covers the credit loop.
#[test]
fn credit_latency_throttles_when_bdp_exceeds_buffer() {
    let run = |credit_ns: u64| -> f64 {
        let topo = single_switch(4, 2);
        let mut cfg = NetConfig::paper_no_cc();
        cfg.credit_latency = TimeDelta::from_ns(credit_ns);
        // Shrink the HCA receive buffer to two packets so the credit
        // loop is the binding constraint.
        cfg.hca_ibuf_blocks = 64;
        let mut net = Network::new(&topo, cfg);
        net.set_classes(0, vec![TrafficClass::new(100, DestPattern::Fixed(1), 4096)]);
        net.run_until(Time::from_ms(1));
        net.start_measurement();
        net.run_until(Time::from_ms(3));
        net.stop_measurement();
        net.rx_gbps(1)
    };
    let fast = run(50);
    let slow = run(100_000); // 100 us credit processing
    assert!(fast > 12.0, "short loop sustains full rate: {fast:.2}");
    assert!(
        slow < fast * 0.5,
        "2-packet buffer with a 100 us credit loop must throttle: {fast:.2} -> {slow:.2}"
    );
}

/// The receive-side cap is enforced exactly: raising the drain rate to
/// the wire rate lets a hotspot absorb the full link.
#[test]
fn drain_rate_is_the_hotspot_ceiling() {
    let run = |drain_gbps: f64| -> f64 {
        let topo = single_switch(8, 4);
        let mut cfg = NetConfig::paper_no_cc();
        cfg.drain_rate = Bandwidth::from_gbps_f64(drain_gbps);
        let mut net = Network::new(&topo, cfg);
        for n in 1..4u32 {
            net.set_classes(n, vec![TrafficClass::new(100, DestPattern::Fixed(0), 4096)]);
        }
        net.run_until(Time::from_ms(1));
        net.start_measurement();
        net.run_until(Time::from_ms(3));
        net.stop_measurement();
        net.rx_gbps(0)
    };
    for drain in [6.0, 13.6, 18.0] {
        let rx = run(drain);
        let ceiling = drain.min(20.0);
        assert!(
            (rx - ceiling).abs() < 0.5,
            "drain {drain}: rx {rx:.2} should pin at {ceiling}"
        );
    }
}

/// `run_to_idle` is `run_until` its own end, but for one thing: once the
/// workload has drained it drops the perpetual CCTI timer instead of
/// dispatching it, so the queue empties and the loop stops.
#[test]
fn run_to_idle_is_run_until_but_for_the_idle_timer() {
    let build = |cfg: NetConfig| {
        let topo = single_switch(4, 3);
        let mut net = Network::new(&topo, cfg);
        net.set_classes(0, vec![msg_class(1, 8)]);
        net.set_classes(2, vec![msg_class(1, 8)]);
        net
    };
    // CC off schedules no timer: state for state the same run.
    let mut idle = build(NetConfig::paper_no_cc());
    let end = idle.run_to_idle(1_000_000);
    let mut until = build(NetConfig::paper_no_cc());
    until.run_until(end);
    assert!(
        idle.checkpoint() == until.checkpoint(),
        "CC off: runs diverged"
    );
    // CC on: the same deliveries by the same instant; run_until leaves
    // the timers pending, run_to_idle has dropped them.
    let mut idle = build(NetConfig::paper());
    let end = idle.run_to_idle(1_000_000);
    let mut until = build(NetConfig::paper());
    until.run_until(end);
    assert_eq!(idle.total_delivered_packets(), 32);
    assert_eq!(
        idle.total_delivered_packets(),
        until.total_delivered_packets()
    );
    assert!(idle.checkpoint().events.is_empty());
    let pending = until.checkpoint().events;
    assert!(!pending.is_empty());
    assert!(pending
        .iter()
        .all(|(_, _, ev)| matches!(ev, EventState::CctiTick { .. })));
}
