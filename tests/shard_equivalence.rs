//! Serial ≡ sharded: rows of the equivalence table (`tests/common`).
//!
//! The contract under test is absolute: for every shard count, running
//! a fabric through `Network::set_shards(topo, n)` produces state
//! **byte-identical** to the serial engine at every `run_until`
//! boundary — same event order, same RNG draws, same audit cadence,
//! same queue keys — and every row's run asked to shard shards
//! genuinely (or, with an observer armed, stays serial).
//!
//! Also here, with their reasons to stand alone: the serial-fallback
//! boundaries (one leaf group; armed observers, through the options
//! too), the profiler's per-subsystem counts and the queue's lane
//! coverage (vacuity guards: both keep every byte identical when they
//! break), and the delivery marks a checkpoint derives, checked against
//! a shadow table of the tracer's deliveries. `--features
//! pool-paranoid` keeps the packet arena's double-free check on for the
//! cross-shard hand-off in release builds.

use ibsim::prelude::*;
use ibsim_net::{ProfileReport, Subsystem, TelemetryConfig, TracePoint};
use proptest::prelude::*;

mod common;
use common::{assert_same, trace_all, Desc, Traffic, SEED};

/// TEST_8's silent forest at `seed`, CC as asked.
fn fat8(seed: u64, cc: bool) -> Desc {
    Desc::silent(FatTreeSpec::TEST_8.build(), 1)
        .seed(seed)
        .cc(cc)
}

/// TEST_8 across shard counts and CC modes, captured mid-warmup, at a
/// measurement-style boundary, and at the horizon. The full
/// {2,4,8} × {off,on} grid runs in the ignored proptest; the everyday
/// matrix covers both CC modes and the extremes.
#[test]
fn fat8_matches_serial_across_shard_counts() {
    for cc in [false, true] {
        let d = fat8(SEED, cc).at(&[150, 350, 500]);
        d.check(&["shards=2", "shards=8"]);
    }
}

/// The invariant oracle is observational: a pass every 500 events
/// leaves the plain run's state. Its cadence and ledgers survive
/// sharding: the replay steps `NetAudit::due` event-exactly (a pass
/// every 10 000 events, several inside every window sweep), and the
/// checkpoint carries the full `NetAuditState` into the comparison.
#[test]
fn fat8_with_audit_matches_serial() {
    let d = fat8(SEED, true).at(&[200, 500]);
    d.check(&["audit=500"]);
    d.arm("audit=10000").check(&["shards=2", "shards=4"]);
}

/// A CCTI_Min above 0 gates every send, so IB CC flow entries are made
/// on the send path too. Each starts at the floor on every shard, and
/// the sharded run lands on the serial bytes.
#[test]
fn fat8_with_a_ccti_floor_matches_serial() {
    let mut d = fat8(SEED, true).arm("audit=10000").at(&[200, 500]);
    d.cfg.cc.as_mut().expect("CC on").ccti_min = 2;
    let (want, _) = d.check(&["shards=2", "shards=4"]);
    for (h, hs) in want.iter().flat_map(|st| st.hcas.iter().enumerate()) {
        let low = hs.cc.flows.iter().position(|f| f.tracked && f.ccti < 2);
        assert_eq!(low, None, "hca {h} holds a flow below CCTI_Min 2");
    }
}

/// The 72-node quick fabric: multi-stage routes cross shard boundaries
/// both leaf→spine and spine→leaf.
#[test]
#[ignore = "simulates a 72-node fabric 3×; run with --release -- --ignored"]
fn fat72_matches_serial() {
    let d = Desc::silent(FatTreeSpec::QUICK_72.build(), 1).at(&[80, 200]);
    d.check(&["shards=2", "shards=4"]);
}

/// One switch = one leaf group: nothing to cut, the executor declines
/// and the run is the serial engine verbatim.
#[test]
fn single_switch_declines_to_shard() {
    let net = Desc::silent(single_switch(8, 2), 1).build("shards=4");
    assert_eq!(net.shard_count(), 1);
}

/// Telemetry and the tracer run on the serial loop only: arming either
/// keeps the run serial, whichever comes first — telemetry before
/// `set_shards`, a tracer after it, and the options' own arming order,
/// where `trace_hotspots` arms the tracer once roles exist. A
/// `run_scenario` that traces hotspots times no barrier; the same run
/// untraced does.
#[test]
fn observation_declines_to_shard() {
    let topo = FatTreeSpec::TEST_8.build();
    let d = fat8(3, true).arm("audit=10000");
    let mut net = d.build("");
    net.enable_telemetry(TelemetryConfig::every(TimeDelta::from_us(50)));
    net.set_shards(&topo, 4);
    assert_eq!(net.shard_count(), 1, "telemetry armed before set_shards");

    let mut net = d.build("shards=4");
    net.enable_trace([(1, 0)]);
    assert_eq!(net.shard_count(), 1, "a tracer armed after set_shards");

    // Through `RunOptions`: `Desc::build` arms with `network` and
    // `trace_hotspots`, and asserts the traced run stays serial.
    let traced = d.build("trace_flows=hotspots shards=4");
    assert!(
        traced.tracer().is_some(),
        "hotspot tracing through RunOptions"
    );

    let out = std::env::temp_dir().join(format!("ibsim_decline_{}", std::process::id()));
    let traced = RunOptions {
        shards: 4,
        trace_flows: Some(FlowSpec::Hotspots),
        profile: true,
        out: out.clone(),
        ..RunOptions::default()
    };
    let dur = RunDurations {
        warmup: TimeDelta::from_us(50),
        measure: TimeDelta::from_us(50),
    };
    let barrier_calls = |opts: &RunOptions| {
        std::fs::remove_dir_all(&out).ok();
        let roles = RoleSpec::silent(topo.num_hcas, 1);
        opts.run_scenario(&topo, NetConfig::paper(), roles, dur, None, true);
        let profile = &common::artifacts(&out, "profile_", "json")[0];
        let report: serde_json::Value =
            serde_json::from_str(&std::fs::read_to_string(profile).unwrap()).unwrap();
        let bins = report["bins"].as_array().expect("profile bins");
        let barrier = bins.iter().find(|b| b["subsystem"] == "barrier");
        barrier.expect("a barrier bin")["calls"].as_u64().unwrap()
    };
    let untraced = RunOptions {
        trace_flows: None,
        ..traced.clone()
    };
    assert!(barrier_calls(&untraced) > 0, "the untraced run shards");
    assert_eq!(
        barrier_calls(&traced),
        0,
        "the traced run_scenario is serial"
    );
    std::fs::remove_dir_all(&out).ok();
}

/// `set_shards` with n = 1 is a no-op: the run is the serial one.
#[test]
fn one_shard_is_serial() {
    fat8(3, true).at(&[300]).check(&["shards=1"]);
}

/// The self-profiler under sharding: per-shard bins fold into the
/// master at merge, and because the profiler counts every call (only
/// the timing is sampled), the counts are a pin, not a smoke test.
/// Every dispatch bin holds exactly the serial run's count at every
/// shard count — the shards dispatch the same events, just elsewhere.
/// The remaining bins count what the executor physically did, which is
/// its own shape: shards pop their own batches (two shards holding
/// events for the same instant pop twice where the serial loop pops
/// once), and the coordinator steps the audit cadence inside its
/// barriers, so that lands in the barrier bin. The serial run is fully
/// observed (audit, telemetry, every pair traced, profiler), the
/// sharded ones audited and profiled; all hold the plain run's state.
#[test]
fn sharded_profile_report_accounts_subsystems() {
    let dispatch_bins: Vec<&str> = Subsystem::ALL
        .iter()
        .filter(|&&s| !s.always_timed() && s != Subsystem::QueuePop)
        .map(|s| s.name())
        .collect();
    let d = fat8(SEED, true).arm("audit=10000 profile=on").at(&[400]);
    let observed = format!("telemetry=50 {}", trace_all(8));
    let (_, nets) = d.check(&[&observed, "shards=2", "shards=4"]);
    let reports: Vec<ProfileReport> = nets.iter().map(|n| n.profile_report().unwrap()).collect();
    let calls = |report: &ProfileReport, name: &str| {
        let bin = report.bins.iter().find(|b| b.subsystem == name);
        bin.unwrap_or_else(|| panic!("report has a {name} bin"))
            .calls
    };

    let serial = &reports[0];
    assert!(serial.events > 0);
    let dispatched: u64 = dispatch_bins.iter().map(|b| calls(serial, b)).sum();
    assert_eq!(dispatched, serial.events, "every event is in a bin");
    assert!(calls(serial, "telemetry") > 0 && calls(serial, "audit") > 0);
    assert_eq!(calls(serial, "barrier"), 0);

    for (n, sharded) in [2, 4].into_iter().zip(&reports[1..]) {
        assert_eq!(sharded.events, serial.events);
        for &name in &dispatch_bins {
            let (got, want) = (calls(sharded, name), calls(serial, name));
            assert_eq!(got, want, "shards={n}: {name} calls differ from serial");
        }
        assert!(
            calls(sharded, "queue_pop") > 0,
            "shard-side pops fold into the master"
        );
        assert!(
            calls(sharded, "barrier") > 0,
            "the coordinator times its barriers"
        );
        assert!(sharded.bins.iter().all(|b| b.timed_calls <= b.calls));
    }
}

/// The threaded stress case: the 54-node 3-level Clos with the audit
/// every 10 000 events, so every barrier carries audit crossings
/// through the replay. At N = 8 three shards own only spines. An
/// observed serial run samples telemetry every 5 µs and traces every
/// flow; it and the sharded runs hold the plain run's state at every
/// capture. On a multi-core host this drives real shard threads.
#[test]
fn fat3_many_short_windows_match_serial_on_threads() {
    let d = Desc::silent(FatTree3Spec::QUICK_54.build(), 1)
        .seed(0x5EED_F354)
        .arm("audit=10000")
        .at(&[25, 60]);
    let observed = format!("telemetry=5 {}", trace_all(54));
    let (_, nets) = d.check(&[&observed, "shards=3", "shards=5", "shards=8"]);
    let serial = &nets[0];
    let rows = serial.telemetry().expect("telemetry is on").table().len();
    assert!(rows > 10, "a sample row every 5 µs, not {rows}");
    let flight = serial.flight_dump_json("obs equivalence pin").unwrap();
    assert!(flight.contains("AuditPass"), "audit passes were noted");
    assert!(serial.tracer().unwrap().len() > 100, "the flows traced");
}

/// Un-congested all-to-all traffic on every HCA of TEST_8, audited and
/// profiled, serial with telemetry and on 2 and 4 shards — where each
/// shard's inbox interleaves arrivals from three senders in every
/// window, streams of equal delay that must not share a lane — all
/// hold the plain run's state. Then the lane-coverage vacuity guard:
/// nearly every insert of these runs has a model constant for its
/// delay, so nearly every one must land in a lane, serial and sharded
/// (where the delay travels with the provisional key across the
/// barrier). A change that quietly sends everything to the fallback
/// heap keeps every byte identical and fails here, not in a benchmark.
#[test]
fn uniform_traffic_matches_serial_and_rides_the_lanes() {
    let d = Desc::new(FatTreeSpec::TEST_8.build(), Traffic::Uniform)
        .arm("audit=10000 profile=on")
        .at(&[120, 300]);
    let (want, nets) = d.check(&["telemetry=50", "shards=2", "shards=4"]);
    let events = want[1].events_processed;
    assert!(events > 20_000, "a loaded fabric, not {events} events");
    // Each of a run's queues (per shard and segment, one for the
    // windows and one behind them) pays SIGHTINGS misses a hint before
    // it lanes, which at four shards is a visible share of so short a
    // run.
    for (net, floor) in nets.iter().zip([0.95, 0.95, 0.90]) {
        let queue = net.profile_report().expect("profiling is on").queue;
        let n = net.shard_count();
        assert!(queue.coverage() >= floor, "shards={n}: {queue:?}");
        assert!(n == 1 || queue.lanes_live >= 8, "shards={n}: {queue:?}");
    }
}

/// 20 repetitions of the same 4-shard run all hold the serial state:
/// OS scheduling, barrier arrival order, and work imbalance never
/// reach an observable.
#[test]
#[ignore = "20 repetitions of a 500 µs run; run with --release -- --ignored"]
fn same_seed_runs_are_jitter_free() {
    fat8(0xD15C, true).at(&[500]).check(&["shards=4"; 20]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Any seed, either fabric, either CC mode, any shard count, two
    /// capture instants: parallel equals serial, byte for byte.
    #[test]
    #[ignore = "16 full runs incl. the 72-node fabric; run with --release -- --ignored"]
    fn sharded_equals_serial_everywhere(
        seed in 0u64..1_000,
        big in proptest::bool::ANY,
        cc in proptest::bool::ANY,
        n in 2usize..=8,
        mid_us in 50u64..=300,
    ) {
        let (topo, horizon) = if big {
            (FatTreeSpec::QUICK_72.build(), 320)
        } else {
            (FatTreeSpec::TEST_8.build(), 600)
        };
        let d = Desc::silent(topo, 1).seed(seed).cc(cc).at(&[mid_us, horizon]);
        d.check(&[&format!("shards={n}")]);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// The `last_seq` a checkpoint derives from the live packets and
    /// the senders' `tx_seq` equals a shadow table of the last data
    /// packet each pair delivered, kept from the tracer's deliveries:
    /// TEST_8, CC on, audited, at random instants. The traced run is
    /// serial; an untraced run on two shards holds the same state at
    /// every instant. The flow-order ledger stays clean throughout.
    #[test]
    fn derived_delivery_marks_match_a_shadow_table(
        mut stops in prop::collection::vec(1u64..700, 4..8),
    ) {
        stops.sort_unstable();
        let d = fat8(0x5EED, true).arm("audit=10000");
        let n = d.topo.num_hcas;
        let mut net = d.build(&trace_all(n as u32));
        let mut sharded = d.build("shards=2");
        let mut shadow = vec![vec![0u32; n]; n];
        let (mut seen, mut lagging) = (0, false);
        for &t in &stops {
            net.run_until(Time::from_us(t));
            let tracer = net.tracer().expect("tracing is on");
            for r in tracer.records().skip(seen) {
                if r.point == TracePoint::Deliver && !r.cnp {
                    let last = &mut shadow[r.dst as usize][r.src as usize];
                    prop_assert_eq!(r.seq, *last + 1, "{}->{} out of order", r.src, r.dst);
                    *last = r.seq;
                }
            }
            seen = tracer.len();
            let st = net.checkpoint();
            // Some pair has sent past what it delivered: the marks
            // come from live packets, not just from `tx_seq`.
            let behind = |d: usize, s: usize| st.hcas[d].last_seq[s] < st.hcas[s].seqs[d];
            lagging |= (0..n).any(|d| (0..n).any(|s| behind(d, s)));
            for (d, h) in st.hcas.iter().enumerate() {
                prop_assert_eq!(
                    &h.last_seq,
                    &shadow[d],
                    "hca {} at {} us: derived {:?}, delivered {:?}",
                    d, t, h.last_seq, shadow[d]
                );
            }
            sharded.run_until(Time::from_us(t));
            assert_same(&st, &sharded.checkpoint(), &format!("2 shards diverged at {t} us"));
        }
        prop_assert!(lagging, "no packet was in flight at any stop");
        for run in [&mut net, &mut sharded] {
            let report = run.audit_now();
            prop_assert!(report.is_clean(), "{}", report.render());
        }
    }

    /// Packets handed across shards are neither leaked nor double-freed:
    /// the merge asserts every shard arena drains to zero live slots
    /// (and under `--features pool-paranoid` each release re-validates
    /// its generation), while the master checkpoint — which resolves
    /// every surviving handle — must still equal serial. Stepping in
    /// 100 µs increments forces a fresh split/merge cycle per step,
    /// each one a full conservation audit.
    #[test]
    fn cross_shard_handoff_conserves_packets(
        seed in 0u64..500,
        n in 2usize..=6,
    ) {
        let d = fat8(seed, true).at(&[100, 200, 300, 400, 500]);
        d.check(&[&format!("shards={n}")]);
    }
}
