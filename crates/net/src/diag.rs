//! Introspection of a running network: where the congestion tree is,
//! how deep its branches stand, and how hard the sources are braking.
//!
//! These snapshots power the experiment binaries' diagnostics and make
//! "why is this scenario behaving like that" questions answerable
//! without a debugger — the moral equivalent of the counters a fabric
//! manager reads from real switches.

use crate::network::{Event, Network};
use crate::vlarb::VlArbState;
use serde::Serialize;

/// Aggregate state of one switch at a point in time.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct SwitchSnapshot {
    pub switch: usize,
    /// Packets queued across all input VoQs.
    pub queued_packets: usize,
    /// Output ports currently in the congestion state (any VL).
    pub congested_ports: usize,
    /// FECN marks applied so far.
    pub marked_packets: u64,
    /// Packets forwarded so far.
    pub forwarded_packets: u64,
    /// Arbitration rounds that found a ready packet but no credits —
    /// the `Xmit_Wait`-style stalled-cycles counter of real switches.
    pub stalled_rounds: u64,
    /// The same counter resolved per output port (index = port number),
    /// so a snapshot localises *which* link is credit-starved, exactly
    /// as per-port `PortXmitWait` does on real switches.
    pub stalled_rounds_per_port: Vec<u64>,
    /// Per-port VL-arbiter round-robin cursors (index = port number).
    /// Two fabrics can hold identical queues yet arbitrate differently
    /// next round if these differ — a completeness gap earlier
    /// snapshots had.
    pub vlarb_cursors: Vec<VlArbState>,
    /// Sender-side credits still available per port (summed over VLs).
    pub credits_per_port: Vec<u64>,
}

/// Aggregate state of one HCA at a point in time.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct HcaSnapshot {
    pub node: u32,
    /// Deepest CCTI across this HCA's flows.
    pub max_ccti: u16,
    /// Flows currently above CCTI_Min.
    pub throttled_flows: usize,
    /// Packets waiting in (or being drained by) the sink.
    pub sink_depth: usize,
    /// Congestion notifications waiting to be returned.
    pub pending_cnps: usize,
    pub becns_received: u64,
    /// Is the sink mid-drain right now?
    pub draining: bool,
    /// Earliest pending injector wakeup, picoseconds (`None` when the
    /// injector is parked waiting on an external event).
    pub wakeup_at_ps: Option<u64>,
}

/// A whole-network snapshot.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct NetworkSnapshot {
    pub at_ps: u64,
    pub switches: Vec<SwitchSnapshot>,
    pub hcas: Vec<HcaSnapshot>,
    /// Events pending on the event queue.
    pub pending_events: usize,
    /// Credit-return blocks currently in flight (scheduled `SwCredit` /
    /// `HcaCredit` events not yet delivered). Invisible to every
    /// device-level counter, yet part of the credit ledger — the other
    /// completeness gap earlier snapshots had.
    pub in_flight_credit_blocks: u64,
    /// Credit-return *events* in flight (the count behind the blocks).
    pub in_flight_credit_events: usize,
}

impl NetworkSnapshot {
    /// Capture the current state of `net`.
    pub fn capture(net: &Network) -> Self {
        let switches = net
            .switches
            .iter()
            .enumerate()
            .map(|(i, sw)| {
                // One walk over the ports gathers every aggregate;
                // each port's VoQs and detectors are visited once.
                let mut queued = 0;
                let mut congested = 0;
                let mut forwarded = 0;
                let mut stalled = 0;
                let mut per_port = Vec::with_capacity(sw.ports.len());
                let mut cursors = Vec::with_capacity(sw.ports.len());
                let mut credits = Vec::with_capacity(sw.ports.len());
                for p in 0..sw.radix() {
                    queued += sw.queued_packets_at(p as u16);
                    congested += usize::from(
                        (0..sw.n_vls()).any(|vl| sw.cong(p as u16, vl).in_congestion()),
                    );
                    forwarded += sw.ports[p].forwarded_packets;
                    stalled += sw.ports[p].xmit_wait;
                    per_port.push(sw.ports[p].xmit_wait);
                    cursors.push(sw.vlarb_cursor(p as u16));
                    credits.push(sw.credits_of(p as u16).map(u64::from).sum());
                }
                SwitchSnapshot {
                    switch: i,
                    queued_packets: queued,
                    congested_ports: congested,
                    marked_packets: sw.marked_packets(),
                    forwarded_packets: forwarded,
                    stalled_rounds: stalled,
                    stalled_rounds_per_port: per_port,
                    vlarb_cursors: cursors,
                    credits_per_port: credits,
                }
            })
            .collect();
        let hcas = net
            .hcas
            .iter()
            .map(|h| HcaSnapshot {
                node: h.id,
                max_ccti: h.cc.max_ccti(),
                throttled_flows: h.cc.throttled_flows(),
                sink_depth: h.sink_depth(),
                pending_cnps: h.pending_cnps(),
                becns_received: h.cc.becns_received(),
                draining: h.sink_draining(),
                wakeup_at_ps: (h.wakeup_at != ibsim_engine::time::Time::MAX)
                    .then(|| h.wakeup_at.as_ps()),
            })
            .collect();
        // One pass over the pending events picks up what no device
        // counter can see: credit returns already scheduled but not yet
        // applied anywhere.
        let mut credit_blocks = 0u64;
        let mut credit_events = 0usize;
        let snap = net.queue.snapshot();
        for (_, _, ev) in &snap.entries {
            match ev.unpack() {
                Event::SwCredit { blocks, .. } | Event::HcaCredit { blocks, .. } => {
                    credit_blocks += blocks as u64;
                    credit_events += 1;
                }
                _ => {}
            }
        }
        NetworkSnapshot {
            at_ps: net.now().as_ps(),
            switches,
            hcas,
            pending_events: snap.entries.len(),
            in_flight_credit_blocks: credit_blocks,
            in_flight_credit_events: credit_events,
        }
    }

    /// Total packets standing in switch buffers — the congestion tree's
    /// "inventory". Near zero on an uncongested fabric.
    pub fn tree_inventory(&self) -> usize {
        self.switches.iter().map(|s| s.queued_packets).sum()
    }

    /// Switches holding a standing queue above `threshold` packets —
    /// the extent of the congestion tree across the fabric.
    pub fn tree_extent(&self, threshold: usize) -> usize {
        self.switches
            .iter()
            .filter(|s| s.queued_packets > threshold)
            .count()
    }

    /// Number of sources currently braking (any throttled flow).
    pub fn braking_sources(&self) -> usize {
        self.hcas.iter().filter(|h| h.throttled_flows > 0).count()
    }

    /// A one-line human summary.
    pub fn summary(&self) -> String {
        format!(
            "t={}ms: inventory={} pkts over {} switches, {} congested ports, {} braking sources",
            self.at_ps as f64 / 1e9,
            self.tree_inventory(),
            self.tree_extent(0),
            self.switches
                .iter()
                .map(|s| s.congested_ports)
                .sum::<usize>(),
            self.braking_sources(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NetConfig;
    use crate::gen::{DestPattern, TrafficClass};
    use ibsim_engine::time::Time;
    use ibsim_topo::single_switch;

    fn congested_net(cc: bool) -> Network {
        let topo = single_switch(8, 4);
        let cfg = if cc {
            NetConfig::paper()
        } else {
            NetConfig::paper_no_cc()
        };
        let mut net = Network::new(&topo, cfg);
        for n in 1..4 {
            net.set_classes(n, vec![TrafficClass::new(100, DestPattern::Fixed(0), 4096)]);
        }
        net.run_until(Time::from_ms(1));
        net
    }

    #[test]
    fn snapshot_sees_the_standing_tree_without_cc() {
        let net = congested_net(false);
        let snap = NetworkSnapshot::capture(&net);
        assert!(snap.tree_inventory() > 0, "standing queue at the hotspot");
        assert_eq!(snap.braking_sources(), 0, "no CC, no braking");
        assert!(snap.summary().contains("inventory"));
    }

    #[test]
    fn snapshot_sees_braking_sources_with_cc() {
        let net = congested_net(true);
        let snap = NetworkSnapshot::capture(&net);
        // CC may have pruned the queue to nothing at this instant, but
        // the sources remember their throttling and marks were applied.
        assert!(snap.braking_sources() >= 1, "sources throttled");
        assert!(snap.switches[0].marked_packets > 0);
        assert!(snap.hcas.iter().any(|h| h.becns_received > 0));
    }

    #[test]
    fn hotspot_backpressure_shows_as_stalled_rounds() {
        // Three senders into one drain-limited sink: the hot output
        // port must spend arbitration rounds credit-blocked.
        let net = congested_net(false);
        let snap = NetworkSnapshot::capture(&net);
        let sw = &snap.switches[0];
        assert!(
            sw.stalled_rounds > 0,
            "no stalls recorded under a saturated hotspot"
        );
        // The per-port breakdown accounts for the aggregate exactly and
        // localises the stall to the hotspot's egress (port 0).
        assert_eq!(sw.stalled_rounds_per_port.len(), 8, "one slot per port");
        assert_eq!(
            sw.stalled_rounds_per_port.iter().sum::<u64>(),
            sw.stalled_rounds
        );
        assert!(
            sw.stalled_rounds_per_port[0] > 0,
            "the victim's egress port is the stalled one"
        );
        let elsewhere: u64 = sw.stalled_rounds_per_port[1..].iter().sum();
        assert!(
            sw.stalled_rounds_per_port[0] >= elsewhere,
            "stalls concentrate on the hot port"
        );
    }

    #[test]
    fn snapshot_of_idle_network_is_clean() {
        let topo = single_switch(4, 2);
        let net = Network::new(&topo, NetConfig::paper());
        let snap = NetworkSnapshot::capture(&net);
        assert_eq!(snap.tree_inventory(), 0);
        assert_eq!(snap.tree_extent(0), 0);
        assert_eq!(snap.braking_sources(), 0);
        assert_eq!(snap.at_ps, 0);
    }

    #[test]
    fn snapshot_serialises() {
        let net = congested_net(true);
        let snap = NetworkSnapshot::capture(&net);
        let js = serde_json::to_string(&snap).unwrap();
        assert!(js.contains("queued_packets"));
        assert!(js.contains("stalled_rounds_per_port"));
        assert!(js.contains("vlarb_cursors"));
        assert!(js.contains("in_flight_credit_blocks"));
    }

    #[test]
    fn snapshot_captures_vlarb_cursors_and_credits() {
        let net = congested_net(false);
        let snap = NetworkSnapshot::capture(&net);
        let sw = &snap.switches[0];
        assert_eq!(sw.vlarb_cursors.len(), 8, "one cursor set per port");
        assert_eq!(sw.credits_per_port.len(), 8);
        // A port that forwarded traffic advanced its arbiter at least
        // once over the run; the cursor state must reflect that rather
        // than reading all-zero on every port.
        assert!(
            sw.vlarb_cursors
                .iter()
                .any(|c| c.high_since_low > 0 || c.low_left > 0 || c.high_left > 0),
            "arbiter cursors all at reset despite forwarded traffic: {:?}",
            sw.vlarb_cursors
        );
    }

    #[test]
    fn snapshot_sees_in_flight_credit_returns() {
        // A saturated hotspot always has credit returns mid-flight:
        // sinks drain continuously, so at any instant some SwCredit /
        // HcaCredit events are scheduled but undelivered.
        let net = congested_net(false);
        let snap = NetworkSnapshot::capture(&net);
        assert!(snap.pending_events > 0);
        assert!(
            snap.in_flight_credit_events > 0,
            "no credit returns in flight under a saturated hotspot"
        );
        assert!(snap.in_flight_credit_blocks >= snap.in_flight_credit_events as u64);
    }

    #[test]
    fn snapshot_reports_sink_and_injector_occupancy() {
        let net = congested_net(false);
        let snap = NetworkSnapshot::capture(&net);
        // The hotspot's sink is saturated: mid-drain at any instant.
        let victim = &snap.hcas[0];
        assert!(victim.draining, "hotspot sink should be mid-drain");
        // The victim generates nothing, so its injector was never armed.
        assert!(victim.wakeup_at_ps.is_none(), "victim has no wakeup");
        // The senders' sinks are idle (nothing flows toward them).
        assert!(!snap.hcas[1].draining, "sender's sink is empty");
    }
}
