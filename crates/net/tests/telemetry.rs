//! The telemetry layer's contract with the simulation: the cadence
//! yields the same sample instants however the run is segmented,
//! congestion is visible in the recorded series, and an audit
//! violation dumps a flight window with causal context. That sampling
//! is purely observational is a row of the root package's equivalence
//! table (`tests/shard_equivalence.rs`), on the full network state.

use ibsim_engine::time::{Time, TimeDelta};
use ibsim_net::{DestPattern, FlightKind, NetConfig, Network, TelemetryConfig, TrafficClass};
use ibsim_topo::single_switch;

/// Three senders into one drain-limited sink on an 8-port switch — the
/// same congested fabric the audit and hotspot-counter tests use.
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
    net
}

#[test]
fn cadence_is_segment_invariant() {
    // One run in a single segment, one chopped into uneven segments:
    // identical sample timestamps.
    let every = TimeDelta::from_us(50);
    let mut whole = congested_net(false);
    whole.enable_telemetry(TelemetryConfig::every(every));
    whole.run_until(Time::from_ms(1));

    let mut chopped = congested_net(false);
    chopped.enable_telemetry(TelemetryConfig::every(every));
    for stop in [7u64, 130, 131, 555, 1000] {
        chopped.run_until(Time::from_us(stop));
    }

    let ts = |n: &Network| -> Vec<u64> {
        n.telemetry()
            .unwrap()
            .table()
            .rows()
            .map(|r| r.t_ps)
            .collect()
    };
    assert_eq!(ts(&whole).len(), 21, "1ms / 50µs + 1");
    assert_eq!(ts(&whole), ts(&chopped));
}

#[test]
fn congestion_is_visible_in_the_series() {
    let mut net = congested_net(true);
    net.enable_telemetry(TelemetryConfig::every(TimeDelta::from_us(25)));
    net.run_until(Time::from_ms(1));
    let tel = net.telemetry().unwrap();
    let table = tel.table();

    // The victim (node 0) receives throughout the steady state.
    let rx = table.series("hca0.rx_gbps");
    assert!(
        rx.iter().any(|&v| v > 1.0),
        "victim throughput never showed up: {rx:?}"
    );
    // The hot egress port buffered packets at some sample.
    let occ = table.series("sw0.p0.occ_blocks");
    assert!(
        occ.iter().any(|&v| v > 0.0),
        "hotspot occupancy never sampled above zero"
    );
    // CC reacted: FECN marks flowed and some source shows CCTI.
    assert!(table.series("fabric.fecn_per_us").iter().any(|&v| v > 0.0));
    assert!(table.series("fabric.max_ccti").iter().any(|&v| v > 0.0));
    // Engine self-metrics are live.
    assert!(table.series("engine.events").iter().sum::<f64>() > 0.0);

    // The flight recorder saw marks and throttles along the way.
    let kinds: Vec<FlightKind> = tel.flight_events().map(|e| e.kind).collect();
    assert!(kinds.contains(&FlightKind::Mark), "no FECN mark recorded");
    assert!(
        kinds.contains(&FlightKind::Throttle),
        "no throttle recorded"
    );
}

#[test]
fn violation_dump_carries_causal_context() {
    let mut net = congested_net(true);
    net.enable_telemetry(TelemetryConfig::every(TimeDelta::from_us(25)));
    net.enable_audit(u64::MAX); // manual passes only
    net.run_until(Time::from_us(200));

    // A clean mid-run pass lands in the flight window.
    let clean = net.audit_checked();
    assert!(clean.is_clean());

    // Sabotage the fabric: leak credits on the hot egress port.
    net.switches[0].leak_credits_for_test(0, 0, 3);
    let report = net.audit_checked();
    assert!(!report.is_clean(), "leak must be caught");

    let tel = net.telemetry().unwrap();
    let viol_seq = tel
        .flight_events()
        .find(|e| e.kind == FlightKind::Violation)
        .expect("violation recorded in flight window")
        .seq;
    let preceding = tel.flight_events().filter(|e| e.seq < viol_seq).count();
    assert!(
        preceding >= 1,
        "a violation dump must carry events preceding the raise"
    );
    assert!(tel
        .flight_events()
        .any(|e| e.kind == FlightKind::AuditPass && e.seq < viol_seq));

    // The dump document itself is self-contained JSON.
    let doc = net.flight_dump_json("test leak").unwrap();
    let v: serde_json::Value = serde_json::from_str(&doc).unwrap();
    assert_eq!(
        v.get("reason"),
        Some(&serde_json::Value::Str("test leak".into()))
    );
    match v.get("events") {
        Some(serde_json::Value::Array(evs)) => {
            assert!(!evs.is_empty(), "dump carries the event window")
        }
        other => panic!("events missing from dump: {other:?}"),
    }
    assert!(v.get("current_sample").is_some());
}

#[test]
fn enable_order_is_irrelevant_for_tracing() {
    // Regression: enable_trace used to *replace* the tracer, so calling
    // it twice (or interleaving with other enable_* calls) silently
    // dropped the first flow set and any collected records.
    let run = |build: &dyn Fn(&mut Network)| -> usize {
        let mut net = congested_net(true);
        build(&mut net);
        net.run_until(Time::from_us(200));
        net.tracer().expect("tracer on").records().len()
    };

    let trace_first = run(&|net| {
        net.enable_trace([(1, 0)]);
        net.enable_audit(50_000);
        net.enable_telemetry(TelemetryConfig::every(TimeDelta::from_us(50)));
        net.enable_trace([(2, 0)]);
    });
    let trace_last = run(&|net| {
        net.enable_audit(50_000);
        net.enable_telemetry(TelemetryConfig::every(TimeDelta::from_us(50)));
        net.enable_trace([(1, 0)]);
        net.enable_trace([(2, 0)]);
    });
    let both_at_once = run(&|net| {
        net.enable_trace([(1, 0), (2, 0)]);
    });

    assert!(both_at_once > 0, "congested flows must produce records");
    assert_eq!(trace_first, both_at_once, "merged != one-shot flow set");
    assert_eq!(trace_last, both_at_once, "enable order changed tracing");
}

#[test]
fn records_survive_widening_the_flow_set() {
    let mut net = congested_net(false);
    net.enable_trace([(1, 0)]);
    net.run_until(Time::from_us(100));
    let before = net.tracer().unwrap().records().len();
    assert!(before > 0);
    net.enable_trace([(2, 0)]);
    assert_eq!(
        net.tracer().unwrap().records().len(),
        before,
        "widening the flow set must not discard collected records"
    );
    net.run_until(Time::from_us(200));
    assert!(net.tracer().unwrap().records().len() > before);
}
