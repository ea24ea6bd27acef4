//! Fault injection against the assembled network: the schedule fires on
//! the event queue, degradation is graceful (lossless invariants
//! hold), sanctioned BECN drops are ledgered but never raised, and an
//! unsanctioned leak is still caught with faults active.

use ibsim_engine::time::Time;
use ibsim_net::{DestPattern, FaultSchedule, LedgerKind, NetConfig, Network, TrafficClass};
use ibsim_topo::{single_switch, FatTreeSpec};

fn schedule(spec: &str, seed: u64) -> FaultSchedule {
    FaultSchedule::from_spec(spec, seed).expect("valid spec")
}

fn hotspot_net(cfg: NetConfig) -> Network {
    let topo = FatTreeSpec::TEST_8.build();
    let mut net = Network::new(&topo, cfg);
    for n in 2..8u32 {
        net.set_classes(n, vec![TrafficClass::new(100, DestPattern::Fixed(0), 4096)]);
    }
    net
}

/// The library guard behind the command line's check: a selector
/// outside the fabric panics naming it, before anything is scheduled.
#[test]
#[should_panic(expected = "fault selector hca=8 is outside the fabric's 8 HCAs")]
fn a_selector_outside_the_fabric_panics_on_install() {
    hotspot_net(NetConfig::paper()).install_faults(schedule("pause:hca=8,at=1us,dur=1us", 0));
}

/// An empty schedule must be a true no-op: same events, same clock,
/// same deliveries as a run that never touched the fault API.
#[test]
fn empty_schedule_is_bit_identical_to_no_faults() {
    let run = |install: bool| {
        let mut net = hotspot_net(NetConfig::paper());
        if install {
            net.install_faults(schedule("", 42));
            assert!(!net.faults_installed(), "empty schedule must not install");
        }
        net.run_until(Time::from_ms(1));
        (
            net.now(),
            net.events_processed(),
            net.total_injected_packets(),
            net.total_delivered_packets(),
            net.total_becns(),
        )
    };
    assert_eq!(run(false), run(true));
}

/// BECN loss under audit: the report carries exactly the sanctioned
/// entries for the dropped CNPs and nothing else — both conservation
/// ledgers still balance because the dropped CNP's credits are returned
/// as if it had drained.
#[test]
fn becn_loss_audits_clean_except_sanctioned() {
    let mut net = hotspot_net(NetConfig::paper());
    net.enable_audit(2_000);
    net.install_faults(schedule("becnloss:link=hcas,p=0.5,from=0us", 7));
    net.run_until(Time::from_ms(2));
    let dropped = net.sanctioned_becn_drops();
    assert!(dropped > 0, "a hotspot with CC must generate CNPs to drop");

    let report = net.audit_now();
    assert!(
        !report.has_unsanctioned(),
        "only sanctioned entries expected:\n{}",
        report.render()
    );
    assert_eq!(report.sanctioned_drops, dropped);
    let ledgered: u64 = report
        .violations
        .iter()
        .filter(|v| v.ledger == LedgerKind::SanctionedDrop)
        .map(|v| v.actual.parse::<u64>().expect("numeric actual"))
        .sum();
    assert_eq!(ledgered, dropped, "{}", report.render());

    // The CC loop degrades (fewer BECNs heard than sent) but survives.
    let heard: u64 = net.hcas.iter().map(|h| h.cc.becns_received()).sum();
    let sent: u64 = net.hcas.iter().map(|h| h.cnps_sent).sum();
    assert_eq!(sent, heard + dropped, "every CNP is heard or sanctioned");
}

/// A link flap (full stall, then cleared) delays credits but never
/// loses them: a bounded workload still drains completely and the
/// credit books balance at rest.
#[test]
fn flap_preserves_losslessness() {
    let topo = FatTreeSpec::TEST_8.build();
    let mut net = Network::new(&topo, NetConfig::paper());
    for n in 1..8u32 {
        net.set_classes(
            n,
            vec![TrafficClass::new(100, DestPattern::Fixed(0), 4096).with_max_messages(30)],
        );
    }
    net.enable_audit(5_000);
    // Stall node 0's cable for 200 us mid-run, then degrade it 4x.
    net.install_faults(schedule(
        "flap:link=hca:0,at=100us,dur=200us,factor=stall;\
         flap:link=hca:0,at=400us,dur=200us,factor=4",
        3,
    ));
    net.run_to_idle(20_000_000);
    assert!(net.workload_drained(), "flaps must not strand the workload");
    assert_eq!(net.hcas[0].delivered_packets, 7 * 30 * 2);
    net.check_credits_at_rest().expect("credits conserved");
    let report = net.audit_now();
    assert!(!report.has_unsanctioned(), "{}", report.render());
    let stats = net.fault_stats().unwrap();
    assert!(
        stats.credits_stalled + stats.credits_delayed > 0,
        "the flap windows must have touched credit returns"
    );
}

/// Pausing an HCA's sink stops deliveries (backpressure holds the data
/// in the fabric, losslessly); resuming drains the backlog.
#[test]
fn pause_stalls_and_resume_recovers() {
    let topo = single_switch(4, 2);
    let mut net = Network::new(&topo, NetConfig::paper_no_cc());
    net.set_classes(
        0,
        vec![TrafficClass::new(100, DestPattern::Fixed(1), 4096).with_max_messages(100)],
    );
    net.install_faults(schedule("pause:hca=1,at=20us,dur=500us", 1));
    net.run_until(Time::from_us(300));
    let during = net.hcas[1].delivered_packets;
    net.run_to_idle(20_000_000);
    let after = net.hcas[1].delivered_packets;
    assert!(
        during < after,
        "deliveries must stall during the pause: {during} vs {after}"
    );
    assert_eq!(after, 200, "the full workload drains after resume");
    assert!(net.workload_drained());
    net.check_credits_at_rest().expect("credits conserved");
    let stats = net.fault_stats().unwrap();
    assert_eq!((stats.pauses, stats.resumes), (1, 1));
}

/// With faults active, an *unsanctioned* credit leak must still trip
/// the oracle — sanctioned bookkeeping must not mask real bugs.
#[test]
fn unsanctioned_leak_still_caught_under_faults() {
    let topo = single_switch(8, 4);
    let mut net = Network::new(&topo, NetConfig::paper());
    for n in 1..4u32 {
        net.set_classes(n, vec![TrafficClass::new(100, DestPattern::Fixed(0), 4096)]);
    }
    net.enable_audit(u64::MAX);
    net.install_faults(schedule("becnloss:link=hcas,p=1.0", 5));
    net.run_until(Time::from_us(200));
    // Port 1 (toward an uncongested sender's HCA) holds credits, so the
    // leak actually bites even while the hotspot port sits at zero.
    net.switches[0].leak_credits_for_test(1, 0, 3);
    let report = net.audit_now();
    assert!(report.has_unsanctioned(), "the leak must surface");
    assert!(
        report
            .unsanctioned()
            .any(|v| v.ledger == LedgerKind::Credits),
        "{}",
        report.render()
    );
}

/// Same seed + same schedule is bit-identical; a different fault seed
/// flips different coins.
#[test]
fn fault_runs_replay_deterministically() {
    let run = |seed: u64| {
        let mut net = hotspot_net(NetConfig::paper());
        net.install_faults(schedule("becnloss:link=hcas,p=0.5", seed));
        net.run_until(Time::from_ms(1));
        (
            net.events_processed(),
            net.sanctioned_becn_drops(),
            net.total_delivered_packets(),
        )
    };
    assert_eq!(run(9), run(9), "same fault seed must replay identically");
    assert_ne!(
        run(9).1,
        run(10).1,
        "different fault seeds should drop different CNP subsets"
    );
}

/// Mid-run CC parameter drift takes effect: crippling the recovery
/// timer mid-run leaves flows throttled far longer than the baseline.
#[test]
fn drift_changes_cc_behaviour_mid_run() {
    let run = |spec: &str| {
        let mut net = hotspot_net(NetConfig::paper());
        if !spec.is_empty() {
            net.install_faults(schedule(spec, 11));
        }
        net.run_until(Time::from_ms(2));
        net.max_ccti()
    };
    let baseline = run("");
    // 100x slower CCTI decay on every source from 500 us on.
    let mut crippled = 0;
    for h in 2..8u32 {
        crippled = crippled.max(run(&format!("drift:hca={h},at=500us,ccti_timer=15000")));
        if crippled > baseline {
            break;
        }
    }
    assert!(
        crippled > baseline,
        "a crippled CCTI timer must leave CCTI higher: {baseline} vs {crippled}"
    );
}
