//! Oracle under fire: the invariant oracle stays armed while a fault
//! schedule degrades the fabric. Sanctioned BECN drops appear in the
//! audit report as bookkeeping (and only as bookkeeping); any *other*
//! ledger imbalance — here an injected credit leak — still fails the
//! run.

use ibsim::prelude::*;
use ibsim_net::LedgerKind;
use ibsim_traffic::{RoleSpec, Scenario};

/// Every test here pins the oracle on (serial, nothing else armed).
fn audited() -> RunOptions {
    RunOptions {
        audit: Some(ibsim::options::DEFAULT_AUDIT_EVERY),
        ..RunOptions::default()
    }
}

fn windy_roles(topo: &Topology) -> RoleSpec {
    RoleSpec {
        num_nodes: topo.num_hcas,
        num_hotspots: 1,
        b_pct: 50,
        b_p: 50,
        c_pct_of_rest: 80,
    }
}

/// A windy run with BECN loss plus one link flap, audited end to end:
/// the report is clean except for SanctionedDrop entries, and those
/// entries account for exactly the CNPs the schedule swallowed.
#[test]
fn windy_run_under_faults_audits_clean_except_sanctioned() {
    let topo = FatTreeSpec::TEST_8.build();
    let schedule = FaultSchedule::from_spec(
        "becnloss:link=hcas,p=0.5;flap:link=hca:2,at=300us,dur=150us,factor=stall",
        11,
    )
    .expect("valid spec");
    let dur = RunDurations {
        warmup: TimeDelta::from_us(200),
        measure: TimeDelta::from_us(800),
    };
    let (report, audit) = audited().run_drill(
        &topo,
        NetConfig::paper(),
        windy_roles(&topo),
        dur,
        TimeDelta::from_us(100),
        &schedule,
        None,
    );
    assert!(
        !audit.has_unsanctioned(),
        "faults are sanctioned; the ledgers must still balance:\n{}",
        audit.render()
    );
    let dropped = report.fault_stats.becn_dropped;
    assert!(dropped > 0, "a 50% BECN-loss window must drop something");
    assert_eq!(
        audit.sanctioned_drops, dropped,
        "the report's sanctioned total must equal the injected count"
    );
    let ledgered: u64 = audit
        .violations
        .iter()
        .filter(|v| v.ledger == LedgerKind::SanctionedDrop)
        .map(|v| v.actual.parse::<u64>().expect("numeric actual"))
        .sum();
    assert_eq!(ledgered, dropped);
    assert!(
        audit
            .violations
            .iter()
            .all(|v| v.ledger == LedgerKind::SanctionedDrop),
        "nothing but sanctioned entries expected:\n{}",
        audit.render()
    );
}

/// The production workload ladder under a fully armed oracle on the
/// 3-level 54-node Clos: incast and event-builder shifts stress exactly
/// the paths the audit ledgers watch (VoQ conservation at the fan-in
/// port, credit balance across three switch tiers), and both must come
/// back with *zero* violations — not even sanctioned ones, since no
/// fault schedule runs.
#[test]
fn workload_ladder_audits_clean_on_fattree3() {
    let topo = FatTree3Spec::QUICK_54.build();
    let fanin = 8;
    for spec in [
        format!("incast:dst=0,fanin={fanin},bytes=16384,msgs=8,stagger_ns=500"),
        format!("eb:frag=4096,fanin={fanin},shifts=4,slot_us=40"),
    ] {
        let spec = ibsim_traffic::WorkloadSpec::parse(&spec).unwrap();
        let mut net = audited().network(&topo, NetConfig::paper(), None);
        let wl = spec.install(&mut net).expect("workload install");
        assert!(wl.offered_bytes > 0);
        net.run_until(Time::from_us(400));
        let report = net.audit_now();
        assert!(
            report.violations.is_empty(),
            "workload {} dirtied the ledgers:\n{}",
            wl.spec,
            report.render()
        );
        assert!(
            net.total_fecn_marks() > 0,
            "an 8:1 fan-in must congest, or the audit watched an idle fabric"
        );
    }
}

/// Vacuity pin for the workload audits: the same incast on the same
/// fabric with one packet silently discarded from a switch queue *must*
/// trip the oracle — proving the clean reports above are earned, not
/// vacuous.
#[test]
fn workload_audit_catches_a_silent_drop() {
    let topo = FatTree3Spec::QUICK_54.build();
    let spec = ibsim_traffic::WorkloadSpec::parse(
        "incast:dst=0,fanin=8,bytes=16384,msgs=8,stagger_ns=500",
    )
    .unwrap();
    let mut net = audited().network(&topo, NetConfig::paper(), None);
    spec.install(&mut net).expect("workload install");
    net.run_until(Time::from_us(100));
    // Discard the head packet of the first occupied switch queue —
    // unledgered loss on a lossless fabric.
    let dropped = (0..topo.switches.len())
        .find_map(|sw| (0..8).find_map(|p| net.drop_queued_for_test(sw, p)));
    assert!(
        dropped.is_some(),
        "an incast at 100us must have packets queued somewhere"
    );
    net.run_until(Time::from_us(400));
    let report = net.audit_now();
    assert!(
        report.has_unsanctioned(),
        "a silent drop must trip the workload audit — otherwise the \
         clean ladder above proves nothing:\n{}",
        report.render()
    );
}

/// The same faulted fabric with an additional *unsanctioned* credit
/// leak: sanctioned bookkeeping must not blunt the oracle.
#[test]
fn unsanctioned_leak_trips_the_oracle_despite_faults() {
    let topo = FatTreeSpec::TEST_8.build();
    let schedule = FaultSchedule::from_spec("becnloss:link=hcas,p=0.5", 11).expect("valid spec");
    let mut net = audited().network(&topo, NetConfig::paper(), Some(&schedule));
    let _sc = Scenario::install_opts(windy_roles(&topo), &mut net, PAPER_MSG_BYTES, true);
    net.run_until(Time::from_us(500));
    // Eat 2 credit blocks on a leaf switch uplink — corruption no fault
    // schedule sanctioned.
    net.switches[0].leak_credits_for_test(2, 0, 2);
    let report = net.audit_now();
    assert!(
        report.has_unsanctioned(),
        "the leak must still trip the oracle:\n{}",
        report.render()
    );
    assert!(
        report
            .unsanctioned()
            .any(|v| v.ledger == LedgerKind::Credits),
        "{}",
        report.render()
    );
}

/// The drill goes through the one arm: a shard count is honoured (it
/// was silently dropped before), and sharding stays byte-invisible
/// across the per-bin meters.
#[test]
fn drill_honours_the_shard_option() {
    let topo = FatTreeSpec::TEST_8.build();
    let schedule =
        FaultSchedule::from_spec("flap:link=hca:2,at=400us,dur=200us,factor=stall", 7).unwrap();
    let run = |opts: &RunOptions| {
        let dur = RunDurations::new_ms(0, 1);
        let bin = TimeDelta::from_us(250);
        let (cfg, roles) = (NetConfig::paper(), windy_roles(&topo));
        let (report, _) = opts.run_drill(&topo, cfg, roles, dur, bin, &schedule, None);
        serde_json::to_string(&report).unwrap()
    };
    let mut opts = RunOptions {
        audit: Some(20_000),
        ..RunOptions::default()
    };
    let serial = run(&opts);
    opts.shards = 4;
    assert_eq!(serial, run(&opts), "--shards must not change the drill");
}
