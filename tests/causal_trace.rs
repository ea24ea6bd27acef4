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

mod common;
use common::{artifacts, fnv1a, scratch, trace_all, Desc};

/// The windy fabric: TEST_8's silent forest at the default seed, run to
/// 700 µs.
fn windy() -> Desc {
    Desc::silent(FatTreeSpec::TEST_8.build(), 1).at(&[700])
}

/// The windy run with every contributor→hotspot flow traced, and its
/// hotspot.
fn traced_windy_run() -> (Network, u32) {
    let d = windy();
    let mut net = d.build("trace_flows=hotspots");
    net.run_until(Time::from_us(700));
    (net, d.hotspots()[0])
}

#[test]
fn windy_victim_flow_yields_complete_causal_chains() {
    let (net, hotspot) = traced_windy_run();
    let tracer = net.tracer().expect("tracing was enabled");
    assert!(
        !tracer.is_empty(),
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
    // written document parses (the same check the CI observability leg
    // performs with python's json module).
    let records: Vec<TraceRecord> = tracer.records().collect();
    let mut json = Vec::new();
    chrome_trace_json(&records, &mut json).expect("writes to memory");
    let text = String::from_utf8(json).expect("UTF-8");
    let back: serde_json::Value = serde_json::from_str(&text).expect("parses");
    let events = back["traceEvents"].as_array().expect("traceEvents array");
    assert!(!events.is_empty());
    let count = |ph: &str| events.iter().filter(|e| e["ph"] == ph).count();
    assert!(count("s") > 0, "causal chains start flow arrows");
    assert!(count("f") > 0, "complete chains finish flow arrows");
    assert_eq!(count("b"), count("e"), "async spans pair up");

    // Flat CSV: rectangular, capture order, one row per record.
    let csv = csv_text(tracer.records());
    let rows: Vec<&str> = csv.lines().collect();
    assert_eq!(rows.len(), tracer.len() + 1);
    let width = rows[0].split(',').count();
    assert!(rows.iter().all(|r| r.split(',').count() == width));
}

fn csv_text(records: impl IntoIterator<Item = TraceRecord>) -> String {
    let mut csv = Vec::new();
    records_csv(records, &mut csv).expect("writes to memory");
    String::from_utf8(csv).expect("UTF-8")
}

/// Tracing a few flows yields exactly the records a trace of every
/// flow holds for them, context included: the per-hop sites skip
/// untraced packets before building a record, and must skip no traced
/// one, a CNP of a traced flow among them. Both traced runs, asked for
/// on `shards` shards, run serial and hold the untraced run's state, as
/// do the `also` rows.
fn assert_narrow_trace_is_the_wide_trace_filtered(shards: usize, also: &[&str]) {
    let d = windy();
    let hotspot = d.hotspots()[0];
    let victims: Vec<(u32, u32)> = (0..8)
        .filter(|&s| s != hotspot)
        .take(2)
        .map(|s| (s, hotspot))
        .collect();
    let narrow = victims.iter().map(|(s, d)| format!("{s}:{d}"));
    let rows = [
        format!("{} shards={shards}", trace_all(8)),
        format!(
            "trace_flows={} shards={shards}",
            narrow.collect::<Vec<_>>().join(",")
        ),
    ];
    let (_, nets) = d.check(&[&[rows[0].as_str(), &rows[1]], also].concat());
    let filter = Tracer::for_flows(victims);
    let want: Vec<TraceRecord> = (nets[0].tracer().unwrap().records())
        .filter(|r| filter.wants_packet(r.src, r.dst, r.cnp))
        .collect();
    let got: Vec<TraceRecord> = nets[1].tracer().unwrap().records().collect();
    assert!(got.iter().any(|r| r.cnp), "the victims' CNPs are traced");
    assert!(
        got == want,
        "{} records traced for the victims, {} of theirs in the full trace",
        got.len(),
        want.len()
    );
}

#[test]
fn narrow_trace_is_the_wide_trace_filtered() {
    assert_narrow_trace_is_the_wide_trace_filtered(1, &[]);
}

/// Traces asked for on two shards run serial and filter the same way;
/// the untraced cell on two shards, genuinely split, ends in the
/// untraced serial state too.
#[test]
fn narrow_sharded_trace_is_the_wide_trace_filtered() {
    assert_narrow_trace_is_the_wide_trace_filtered(2, &["shards=2"]);
}

/// The trace files `RunOptions::finish` writes for one traced QUICK_72
/// silent cell (every flow into the two hotspots traced, CC on,
/// 300 µs + 300 µs, two shards asked for), read back as `(csv, json)`.
fn traced_quick_cell_files() -> (Vec<u8>, Vec<u8>) {
    let topo = FatTreeSpec::QUICK_72.build();
    let out = scratch("trace_pin");
    let opts = RunOptions {
        shards: 2,
        trace_flows: Some(FlowSpec::Hotspots),
        out: out.clone(),
        ..RunOptions::default()
    };
    let roles = RoleSpec::silent(topo.num_hcas, 2);
    let dur = RunDurations {
        warmup: TimeDelta::from_us(300),
        measure: TimeDelta::from_us(300),
    };
    opts.run_scenario(&topo, NetConfig::paper(), roles, dur, None, true);
    let read = |ext: &str| {
        let files = artifacts(&out, "trace_", ext);
        assert_eq!(files.len(), 1, "one trace_*.{ext} in {}", out.display());
        std::fs::read(&files[0]).unwrap()
    };
    let files = (read("csv"), read("json"));
    std::fs::remove_dir_all(&out).ok();
    files
}

/// The trace artifacts themselves are pinned: byte length and FNV-1a
/// of the CSV and the Chrome JSON of a traced IB CC cell (injects
/// through throttles). The run asks for two shards; a traced run
/// declines to shard, so the pins hold the serial bytes and the decline
/// path at once. The cell produces every `TracePoint` kind.
#[test]
fn trace_artifacts_are_pinned_byte_for_byte() {
    // (csv bytes, csv fnv), (json bytes, json fnv)
    let (csv_pin, json_pin) = (
        (957_017, 0x54b2_5367_265f_ac9e),
        (6_243_168, 0xff64_18c6_4612_9e3f),
    );
    let (csv, json) = traced_quick_cell_files();
    let got = |b: &[u8]| (b.len(), fnv1a(b));
    assert_eq!(got(&csv), csv_pin, "CSV");
    assert_eq!(got(&json), json_pin, "JSON");
    let text = String::from_utf8(csv).unwrap();
    let kinds: std::collections::BTreeSet<String> = text
        .lines()
        .skip(1)
        .map(|r| r.split(',').nth(5).unwrap().to_string())
        .collect();
    let all = [
        "inject",
        "switch_arrive",
        "forward",
        "arrive",
        "deliver",
        "cnp_queued",
        "ccti_raise",
        "throttle",
    ];
    assert_eq!(kinds, all.map(String::from).into(), "every TracePoint kind");
}

/// The memory budget of the record log: the QUICK_72 silent cell with
/// every flow into its hotspots traced keeps at most 16 bytes a record
/// (a fixed-width record takes 48).
#[test]
fn trace_log_keeps_a_record_in_at_most_16_bytes() {
    let d = Desc::silent(FatTreeSpec::QUICK_72.build(), 2);
    let mut net = d.build("trace_flows=hotspots");
    net.run_until(Time::from_us(600));
    let tracer = net.tracer().unwrap();
    assert!(tracer.len() > 10_000, "{} records", tracer.len());
    let per_record = tracer.log_bytes() as f64 / tracer.len() as f64;
    assert!(per_record <= 16.0, "{per_record:.2} B a record");
}
