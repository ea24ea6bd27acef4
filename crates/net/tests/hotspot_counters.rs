//! What a saturated hotspot leaves in the fabric's own counters, read
//! the way a fabric manager reads a real switch: per-port `Xmit_Wait`
//! stalls, credit returns still on the wire, and the sink and injector
//! state of the HCAs at either end.

use ibsim_engine::time::Time;
use ibsim_net::{DestPattern, EventState, NetConfig, Network, TrafficClass};
use ibsim_topo::single_switch;

/// Three senders into one drain-limited sink (node 0) on an 8-port
/// switch, CC off, run for 1 ms: the hotspot stays saturated.
fn saturated_hotspot() -> Network {
    let topo = single_switch(8, 4);
    let mut net = Network::new(&topo, NetConfig::paper_no_cc());
    for n in 1..4 {
        net.set_classes(n, vec![TrafficClass::new(100, DestPattern::Fixed(0), 4096)]);
    }
    net.run_until(Time::from_ms(1));
    net
}

#[test]
fn stalls_concentrate_on_the_hotspot_egress() {
    let net = saturated_hotspot();
    let sw = &net.switches[0];
    assert!(
        sw.queued_packets() > 0,
        "without CC a queue stands at the hotspot"
    );
    let per_port: Vec<u64> = sw.ports.iter().map(|p| p.xmit_wait).collect();
    assert_eq!(per_port.len(), 8, "one counter per port");
    let total: u64 = per_port.iter().sum();
    assert!(total > 0, "no stalls recorded under a saturated hotspot");
    // The hotspot's egress (port 0) is the credit-starved link.
    assert!(
        per_port[0] > 0,
        "the hotspot's egress port is the stalled one"
    );
    let elsewhere: u64 = per_port[1..].iter().sum();
    assert!(
        per_port[0] >= elsewhere,
        "stalls concentrate on the hot port: {per_port:?}"
    );
    // The switch total a checkpoint carries is the same per-port sum.
    let state = net.checkpoint();
    let saved: Vec<u64> = state.switches[0]
        .ports
        .iter()
        .map(|p| p.xmit_wait)
        .collect();
    assert_eq!(saved, per_port);
    assert_eq!(saved.iter().sum::<u64>(), total);
}

#[test]
fn credit_returns_are_in_flight_under_a_saturated_hotspot() {
    // Sinks drain continuously, so at any instant some credit returns
    // are scheduled but not yet applied anywhere: invisible to every
    // device counter, visible only among the pending events.
    let net = saturated_hotspot();
    let state = net.checkpoint();
    assert!(!state.events.is_empty());
    let blocks: Vec<u32> = state
        .events
        .iter()
        .filter_map(|(_, _, ev)| match ev {
            EventState::SwCredit { blocks, .. } | EventState::HcaCredit { blocks, .. } => {
                Some(*blocks)
            }
            _ => None,
        })
        .collect();
    assert!(!blocks.is_empty(), "no credit returns in flight");
    assert!(
        blocks.iter().all(|&b| b >= 1),
        "a credit return carries blocks"
    );
}

#[test]
fn hotspot_sink_drains_while_the_victim_injector_never_armed() {
    let net = saturated_hotspot();
    let hotspot = &net.hcas[0];
    assert!(hotspot.sink_draining(), "the hotspot's sink is mid-drain");
    assert!(
        hotspot.sink_depth() > 0,
        "packets wait at the saturated sink"
    );
    // Node 0 generates nothing, so its injector was never armed.
    assert_eq!(hotspot.wakeup_at, Time::MAX, "node 0 has no wakeup");
    // Nothing flows toward the senders: their sinks are idle.
    assert!(!net.hcas[1].sink_draining(), "a sender's sink is empty");
}
