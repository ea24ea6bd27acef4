//! The tentpole acceptance test for the causal tracer: follow victim
//! flows through a windy (fixed-hotspot) congestion tree and assert the
//! complete FECN → BECN → CCTI → throttle chain is captured — every
//! link present, every link in causal time order — plus the export
//! contracts (Perfetto JSON round-trips, CSV stays rectangular).
//!
//! The scenario is the paper's Table II congested cell in miniature:
//! TEST_8, one hotspot, 80% of the remaining nodes contributing at
//! full rate, CC on. Contributors overrun the hotspot's egress, the
//! switch FECN-marks granted packets, the destination queues CNPs, and
//! the sources' CCTIs rise until the injection-rate delay bites. Every
//! one of those steps must land in the trace as a paired chain.

use ibsim::prelude::*;
use ibsim_net::{
    causal_chains, chrome_trace_json, records_csv, CausalChain, TracePoint, TraceRecord, Tracer,
};

/// Build the windy fabric with every contributor→hotspot flow traced,
/// run warmup + measure, and hand back the network plus hotspot id.
fn traced_windy_run() -> (Network, u32) {
    let contributors = |n: u32, hotspot: u32| -> Vec<(u32, u32)> {
        (0..n)
            .filter(|&s| s != hotspot)
            .map(|s| (s, hotspot))
            .collect()
    };
    windy_run_tracing(contributors, 1)
}

/// The windy fabric tracing the flows `pick` chooses from the node
/// count and the hotspot, on `shards` shards, run to 700 µs.
fn windy_run_tracing(pick: impl Fn(u32, u32) -> Vec<(u32, u32)>, shards: usize) -> (Network, u32) {
    let topo = FatTreeSpec::TEST_8.build();
    let roles = RoleSpec {
        num_nodes: topo.num_hcas,
        num_hotspots: 1,
        b_pct: 0,
        b_p: 0,
        c_pct_of_rest: 80,
    };
    let mut net = Network::new(&topo, NetConfig::paper());
    let sc = Scenario::install_opts(roles, &mut net, PAPER_MSG_BYTES, true);
    let hotspot = sc.assignment.hotspots[0];
    net.enable_trace(pick(topo.num_hcas as u32, hotspot));
    if shards > 1 {
        net.set_shards(&topo, shards);
        assert_eq!(net.shard_count(), shards);
    }
    net.run_until(Time::from_us(700));
    (net, hotspot)
}

#[test]
fn windy_victim_flow_yields_complete_causal_chains() {
    let (net, hotspot) = traced_windy_run();
    let tracer = net.tracer().expect("tracing was enabled");
    assert!(
        !tracer.records().is_empty(),
        "a congested run must produce trace records"
    );

    let chains = causal_chains(tracer.records());
    assert!(!chains.is_empty(), "FECN marks must start causal chains");
    let complete: Vec<&CausalChain> = chains.iter().filter(|c| c.complete()).collect();
    assert!(
        !complete.is_empty(),
        "at least one chain must run mark → CNP queued → inject → \
         deliver → CCTI raise → throttle; got {} partial chains",
        chains.len()
    );

    for c in &complete {
        let (src, dst) = c.flow;
        assert_eq!(dst, hotspot, "chains belong to traced victim flows");
        assert_ne!(src, hotspot);
        // Causal time order, link by link.
        let (mark_at, mark_sw) = c.mark.expect("complete");
        let inject_at = c.cnp_inject_at.expect("complete");
        let deliver_at = c.cnp_deliver_at.expect("complete");
        let (raise_at, before, after) = c.ccti_raise.expect("complete");
        let (throttle_at, delay_ps) = c.throttle.expect("complete");
        assert!(
            mark_at <= c.cnp_queued_at,
            "the FECN mark precedes the CNP it provokes"
        );
        assert!(c.cnp_queued_at <= inject_at, "queued before injected");
        assert!(inject_at < deliver_at, "the CNP takes time to travel");
        assert_eq!(
            deliver_at, raise_at,
            "the CCTI raise is recorded by the CNP drain event"
        );
        assert_eq!(throttle_at, raise_at, "the throttle arms at the raise");
        assert!(after > before, "a raise must raise");
        assert!(delay_ps > 0, "a throttle must delay");
        assert!((mark_sw as usize) < 100, "mark names a real switch");
    }

    // The marked data packet's own lifecycle is on record too: the
    // chain key resolves through the O(hits) packet index to a
    // lifecycle that starts with Inject and passes the marking switch.
    let c = complete[0];
    let life = tracer.packet(c.flow.0, c.flow.1, c.data_seq);
    assert!(!life.is_empty(), "the marked packet has lifecycle records");
    assert_eq!(life[0].point, TracePoint::Inject);
    let (_, mark_sw) = c.mark.unwrap();
    assert!(
        life.iter().any(|r| matches!(
            r.point,
            TracePoint::Forward { switch, fecn: true, .. } if switch == mark_sw
        )),
        "the lifecycle contains the FECN-marked grant itself"
    );
    // Records carry hop context: some grant near the hotspot saw a
    // non-empty VoQ (that is what provoked the mark).
    assert!(
        life.iter()
            .any(|r| matches!(r.point, TracePoint::Forward { .. }) && r.voq > 0),
        "a congested grant must see queued descriptors"
    );
}

#[test]
fn windy_trace_exports_parse_and_stay_rectangular() {
    let (net, _) = traced_windy_run();
    let tracer = net.tracer().unwrap();

    // Perfetto / Chrome trace-event JSON: chain arrows present, and the
    // document survives a serialise → parse round trip (the same check
    // the CI observability leg performs with python's json module).
    let doc = chrome_trace_json(tracer.records());
    let text = serde_json::to_string(&doc).expect("trace doc serialises");
    let back: serde_json::Value = serde_json::from_str(&text).expect("round-trips");
    let events = back["traceEvents"].as_array().expect("traceEvents array");
    assert!(!events.is_empty());
    let count = |ph: &str| events.iter().filter(|e| e["ph"] == ph).count();
    assert!(count("s") > 0, "causal chains start flow arrows");
    assert!(count("f") > 0, "complete chains finish flow arrows");
    assert_eq!(count("b"), count("e"), "async spans pair up");

    // Flat CSV: rectangular, capture order, one row per record.
    let csv = records_csv(tracer.records());
    let rows: Vec<&str> = csv.lines().collect();
    assert_eq!(rows.len(), tracer.records().len() + 1);
    let width = rows[0].split(',').count();
    assert!(rows.iter().all(|r| r.split(',').count() == width));
}

/// Tracing a few flows yields exactly the records a trace of every
/// flow holds for them, context included: the per-hop sites skip
/// untraced packets before building a record, and must skip no traced
/// one, a CNP of a traced flow among them.
fn assert_narrow_trace_is_the_wide_trace_filtered(shards: usize) {
    let every = |n: u32, _| (0..n).flat_map(|s| (0..n).map(move |d| (s, d))).collect();
    let victims = |n: u32, hotspot: u32| -> Vec<(u32, u32)> {
        (0..n)
            .filter(|&s| s != hotspot)
            .take(2)
            .map(|s| (s, hotspot))
            .collect()
    };
    let (wide, hotspot) = windy_run_tracing(every, shards);
    let (narrow, _) = windy_run_tracing(victims, shards);
    let filter = Tracer::for_flows(victims(8, hotspot));
    let want: Vec<TraceRecord> = (wide.tracer().unwrap().records().iter())
        .filter(|r| !r.point.packet_scoped() || filter.wants_packet(r.src, r.dst, r.cnp))
        .copied()
        .collect();
    let got = narrow.tracer().unwrap().records();
    assert!(got.iter().any(|r| r.cnp), "the victims' CNPs are traced");
    assert!(
        records_csv(got) == records_csv(&want),
        "{} records traced for the victims, {} of theirs in the full trace",
        got.len(),
        want.len()
    );
}

#[test]
fn narrow_trace_is_the_wide_trace_filtered() {
    assert_narrow_trace_is_the_wide_trace_filtered(1);
}

#[test]
fn narrow_sharded_trace_is_the_wide_trace_filtered() {
    assert_narrow_trace_is_the_wide_trace_filtered(2);
}
