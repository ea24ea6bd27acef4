//! Differential pins for the sharded parallel executor.
//!
//! The contract under test is absolute: for every shard count, running
//! a fabric through `Network::set_shards(topo, n)` produces state
//! **byte-identical** to the serial engine at every `run_until`
//! boundary — same event order, same RNG draws, same audit cadence,
//! same queue keys. Equality is checked on the full
//! [`NetworkState`] tree, which is strictly stronger than comparing
//! end-of-run CSVs; on a mismatch the panic names the first diverging
//! field via `ibsim::bisect::diff_values`.
//!
//! Also here: the serial-fallback boundaries (single leaf group, armed
//! observers), cross-shard packet-arena conservation (the merge
//! asserts every shard arena drains; `--features pool-paranoid` keeps
//! the double-free generation check in release builds), and a
//! 20-repetition same-seed run asserting thread-schedule jitter never
//! leaks into results.

use ibsim::bisect::{diff_values, render_diff};
use ibsim::prelude::*;
use ibsim_net::{records_csv, NetworkState, ProfileReport, Subsystem, TelemetryConfig, TracePoint};
use proptest::prelude::*;
use serde::Serialize;

/// A configured fabric: fat tree, one hotspot, CC as requested,
/// optional audit. Deterministic: two calls build identical nets.
fn loaded_net(topo: &Topology, seed: u64, cc: bool, audit: bool) -> Network {
    let mut cfg = NetConfig::paper().with_seed(seed);
    if !cc {
        cfg.cc = None;
    }
    loaded_net_with(topo, cfg, audit)
}

/// [`loaded_net`] under a configuration of the caller's.
fn loaded_net_with(topo: &Topology, cfg: NetConfig, audit: bool) -> Network {
    let mut net = Network::new(topo, cfg);
    if audit {
        // Short cadence: several boundaries fall inside every window
        // sweep below, pinning the replayed `NetAudit::due` positions.
        net.enable_audit(10_000);
    }
    let roles = RoleSpec {
        num_nodes: topo.num_hcas,
        num_hotspots: 1,
        b_pct: 0,
        b_p: 0,
        c_pct_of_rest: 80,
    };
    let _sc = Scenario::install_opts(roles, &mut net, PAPER_MSG_BYTES, true);
    net
}

/// Run to each capture instant in turn, checkpointing at every stop —
/// the multi-boundary trace one run contributes to the comparison.
fn trace(net: &mut Network, captures: &[Time]) -> Vec<NetworkState> {
    captures
        .iter()
        .map(|&t| {
            net.run_until(t);
            net.checkpoint()
        })
        .collect()
}

/// `want == got`, or a panic naming `what` and the first diverging
/// fields.
fn assert_same_state(want: &NetworkState, got: &NetworkState, what: &str) {
    if want != got {
        let diffs = diff_values(&want.to_value(), &got.to_value(), 10);
        panic!("{what}:\n{}", render_diff(&diffs));
    }
}

/// A checkpoint as an unobserved run holds it: observers run serial,
/// so a sharded run is compared against an observed serial one with
/// the telemetry state left out.
fn unobserved(mut state: NetworkState) -> NetworkState {
    state.telemetry = None;
    state
}

/// The core differential: a serial run and an `n`-shard run of the same
/// fabric hold byte-identical state at every capture instant.
fn assert_equivalent(
    topo: &Topology,
    seed: u64,
    cc: bool,
    audit: bool,
    n: usize,
    captures: &[Time],
) {
    let mut serial = loaded_net(topo, seed, cc, audit);
    let want = trace(&mut serial, captures);

    let mut sharded = loaded_net(topo, seed, cc, audit);
    sharded.set_shards(topo, n);
    let got = trace(&mut sharded, captures);

    for (i, (w, g)) in want.iter().zip(&got).enumerate() {
        if w != g {
            let diffs = diff_values(&w.to_value(), &g.to_value(), 10);
            panic!(
                "shards={n} diverged from serial at capture {} of {} \
                 (t={:?}, seed={seed} cc={cc} audit={audit}):\n{}",
                i + 1,
                captures.len(),
                captures[i],
                render_diff(&diffs)
            );
        }
    }
}

fn us(v: u64) -> Time {
    Time::from_us(v)
}

// ---------------------------------------------------------------------
// Deterministic sweeps: the cheap fabrics on every `cargo test`.
// ---------------------------------------------------------------------

/// TEST_8 across shard counts and CC modes, captured mid-warmup, at a
/// measurement-style boundary, and at the horizon.
#[test]
fn fat8_matches_serial_across_shard_counts() {
    let topo = FatTreeSpec::TEST_8.build();
    let captures = [us(150), us(350), us(500)];
    // The full {2,4,8} × {off,on} grid runs in the ignored release
    // sweep; the everyday matrix covers both CC modes and the extremes.
    for (n, cc) in [(2, false), (2, true), (8, false), (8, true)] {
        assert_equivalent(&topo, 0x1B51_C0DE, cc, false, n, &captures);
    }
}

/// The invariant oracle's cadence and ledgers survive sharding: the
/// replay steps `NetAudit::due` event-exactly, and the checkpoint carries
/// the full `NetAuditState` into the comparison.
#[test]
fn fat8_with_audit_matches_serial() {
    let topo = FatTreeSpec::TEST_8.build();
    let captures = [us(200), us(500)];
    assert_equivalent(&topo, 0x1B51_C0DE, true, true, 2, &captures);
    assert_equivalent(&topo, 0x1B51_C0DE, true, true, 4, &captures);
}

/// A CCTI_Min above 0 gates every send, so IB CC flow entries are made
/// on the send path too. Each starts at the floor on every shard, and
/// the sharded run lands on the serial bytes.
#[test]
fn fat8_with_a_ccti_floor_matches_serial() {
    let topo = FatTreeSpec::TEST_8.build();
    let floored = |n: usize| {
        let mut cfg = NetConfig::paper().with_seed(0x1B51_C0DE);
        cfg.cc.as_mut().expect("CC on").ccti_min = 2;
        let mut net = loaded_net_with(&topo, cfg, true);
        if n > 1 {
            net.set_shards(&topo, n);
            assert_eq!(net.shard_count(), n);
        }
        net
    };
    let captures = [us(200), us(500)];
    let want = trace(&mut floored(1), &captures);
    for (h, hs) in want.iter().flat_map(|st| st.hcas.iter().enumerate()) {
        let low = hs.cc.flows.iter().position(|f| f.tracked && f.ccti < 2);
        assert_eq!(low, None, "hca {h} holds a flow below CCTI_Min 2");
    }
    for n in [2, 4] {
        let got = trace(&mut floored(n), &captures);
        for (i, (w, g)) in want.iter().zip(&got).enumerate() {
            if w != g {
                let diffs = diff_values(&w.to_value(), &g.to_value(), 10);
                let at = captures[i];
                panic!(
                    "shards={n} diverged from serial at {at:?} with CCTI_Min 2:\n{}",
                    render_diff(&diffs)
                );
            }
        }
    }
}

/// The 72-node quick fabric: multi-stage routes cross shard boundaries
/// both leaf→spine and spine→leaf.
#[test]
#[ignore = "simulates a 72-node fabric 4×; run with --release -- --ignored"]
fn fat72_matches_serial() {
    let topo = FatTreeSpec::QUICK_72.build();
    let captures = [us(80), us(200)];
    for n in [2, 4] {
        assert_equivalent(&topo, 0x1B51_C0DE, true, false, n, &captures);
    }
}

// ---------------------------------------------------------------------
// Serial-fallback boundaries.
// ---------------------------------------------------------------------

/// One switch = one leaf group: nothing to cut, the executor declines
/// and the run is the serial engine verbatim.
#[test]
fn single_switch_declines_to_shard() {
    let topo = single_switch(8, 2);
    let mut net = loaded_net(&topo, 3, true, false);
    net.set_shards(&topo, 4);
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
    let mut net = loaded_net(&topo, 3, true, true);
    net.enable_telemetry(TelemetryConfig::every(TimeDelta::from_us(50)));
    net.set_shards(&topo, 4);
    assert_eq!(net.shard_count(), 1, "telemetry armed before set_shards");

    let mut net = loaded_net(&topo, 3, true, true);
    net.set_shards(&topo, 4);
    assert_eq!(net.shard_count(), 4);
    net.enable_trace([(1, 0)]);
    assert_eq!(net.shard_count(), 1, "a tracer armed after set_shards");

    let out = std::env::temp_dir().join(format!("ibsim_decline_{}", std::process::id()));
    let traced = RunOptions {
        shards: 4,
        trace_flows: Some(FlowSpec::Hotspots),
        profile: true,
        out: out.clone(),
        ..RunOptions::default()
    };
    let roles = RoleSpec {
        num_nodes: topo.num_hcas,
        num_hotspots: 1,
        b_pct: 0,
        b_p: 0,
        c_pct_of_rest: 80,
    };
    let mut net = traced.network(&topo, NetConfig::paper());
    let sc = Scenario::install_opts(roles, &mut net, PAPER_MSG_BYTES, true);
    traced.trace_hotspots(&mut net, &sc.assignment.hotspots);
    assert!(net.tracer().is_some());
    assert_eq!(net.shard_count(), 1, "hotspot tracing through RunOptions");

    let dur = RunDurations {
        warmup: TimeDelta::from_us(50),
        measure: TimeDelta::from_us(50),
    };
    let barrier_calls = |opts: &RunOptions| {
        std::fs::remove_dir_all(&out).ok();
        opts.run_scenario(&topo, NetConfig::paper(), roles, dur, None, true);
        let profile = std::fs::read_dir(&out)
            .unwrap()
            .map(|e| e.unwrap().path())
            .find(|p| {
                p.file_name()
                    .unwrap()
                    .to_string_lossy()
                    .starts_with("profile_")
            })
            .expect("a profile_*.json");
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

/// `set_shards` with n=1 (or on an already-serial net) is a no-op.
#[test]
fn one_shard_is_serial() {
    let topo = FatTreeSpec::TEST_8.build();
    let mut net = loaded_net(&topo, 3, true, false);
    net.set_shards(&topo, 1);
    assert_eq!(net.shard_count(), 1);
    assert_equivalent(&topo, 3, true, false, 1, &[us(300)]);
}

// ---------------------------------------------------------------------
// Observed serial runs against unobserved sharded ones.
// ---------------------------------------------------------------------

/// Build the fully-instrumented serial fabric: audit (so `AuditPass`
/// flight notes land at every cadence crossing), telemetry in
/// deterministic-wall mode, every HCA pair traced, and the
/// self-profiler on (strictly observational — it must not perturb a
/// single byte).
fn observed_net(topo: &Topology) -> Network {
    let mut net = loaded_net(topo, 0x1B51_C0DE, true, true);
    let mut cfg = TelemetryConfig::every(TimeDelta::from_us(50));
    cfg.deterministic_wall = true;
    net.enable_telemetry(cfg);
    let hcas = topo.num_hcas as u32;
    net.enable_trace((0..hcas).flat_map(|s| (0..hcas).map(move |d| (s, d))));
    net.enable_profile();
    net
}

/// [`observed_net`] without its observers — audit and profiler only —
/// on `n` shards, genuinely.
fn audited_net(topo: &Topology, n: usize) -> Network {
    let mut net = loaded_net(topo, 0x1B51_C0DE, true, true);
    net.enable_profile();
    net.set_shards(topo, n);
    assert!(net.shard_count() > 1, "the audited run shards genuinely");
    net
}

/// The three observation streams a run exposes, serialised.
fn observations(net: &Network) -> (String, String, String) {
    let tel = net.telemetry().expect("telemetry is on");
    let mut trace = Vec::new();
    records_csv(net.tracer().expect("tracing is on").records(), &mut trace).unwrap();
    (
        tel.table().to_csv(),
        net.flight_dump_json("obs equivalence pin").unwrap(),
        String::from_utf8(trace).unwrap(),
    )
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
/// barriers, so that lands in the barrier bin. The serial side is fully
/// observed, the sharded side audited and profiled only: the state at
/// the end is the same.
#[test]
fn sharded_profile_report_accounts_subsystems() {
    let dispatch_bins: Vec<&str> = Subsystem::ALL
        .iter()
        .filter(|&&s| !s.always_timed() && s != Subsystem::QueuePop)
        .map(|s| s.name())
        .collect();
    let topo = FatTreeSpec::TEST_8.build();
    let report_at = |n: usize| {
        let mut net = if n > 1 {
            audited_net(&topo, n)
        } else {
            observed_net(&topo)
        };
        net.run_until(us(400));
        let report = net.profile_report().expect("profiling is on");
        (report, unobserved(net.checkpoint()))
    };
    let calls = |report: &ProfileReport, name: &str| {
        report
            .bins
            .iter()
            .find(|b| b.subsystem == name)
            .unwrap_or_else(|| panic!("report has a {name} bin"))
            .calls
    };

    let (serial, want) = report_at(1);
    assert!(serial.events > 0);
    let dispatched: u64 = dispatch_bins.iter().map(|b| calls(&serial, b)).sum();
    assert_eq!(dispatched, serial.events, "every event is in a bin");
    assert!(calls(&serial, "telemetry") > 0 && calls(&serial, "audit") > 0);
    assert_eq!(calls(&serial, "barrier"), 0);

    for n in [2, 4] {
        let (sharded, state) = report_at(n);
        assert_same_state(
            &want,
            &state,
            &format!("shards={n} state diverged at 400 µs"),
        );
        assert_eq!(sharded.events, serial.events);
        for &name in &dispatch_bins {
            assert_eq!(
                calls(&sharded, name),
                calls(&serial, name),
                "shards={n}: {name} calls differ from serial"
            );
        }
        assert!(
            calls(&sharded, "queue_pop") > 0,
            "shard-side pops fold into the master"
        );
        assert!(
            calls(&sharded, "barrier") > 0,
            "the coordinator times its barriers"
        );
        assert!(sharded.bins.iter().all(|b| b.timed_calls <= b.calls));
    }
}

/// The threaded stress case: the 54-node 3-level Clos with the audit
/// every 10 000 events, so every barrier carries audit crossings
/// through the replay. At N = 8 three shards own only spines. The
/// serial side also samples telemetry every 5 µs and traces every
/// flow; the sharded side runs unobserved, and its checkpoint must
/// equal the serial run's at every capture. On a multi-core host this
/// drives real shard threads (`--features pool-paranoid` keeps the
/// arena's double-free check on for them in release builds).
#[test]
fn fat3_many_short_windows_match_serial_on_threads() {
    let topo = FatTree3Spec::QUICK_54.build();
    let captures = [us(25), us(60)];
    let mut serial = loaded_net(&topo, 0x5EED_F354, true, true);
    let mut cfg = TelemetryConfig::every(TimeDelta::from_us(5));
    cfg.deterministic_wall = true;
    serial.enable_telemetry(cfg);
    let hcas = topo.num_hcas as u32;
    serial.enable_trace((0..hcas).flat_map(|s| (0..hcas).map(move |d| (s, d))));
    let want: Vec<_> = captures
        .iter()
        .map(|&t| {
            serial.run_until(t);
            (observations(&serial), unobserved(serial.checkpoint()))
        })
        .collect();
    let (tel, flight, trace) = &want[1].0;
    assert!(tel.lines().count() > 10, "a sample row every 5 µs");
    assert!(flight.contains("AuditPass"), "audit passes were noted");
    assert!(trace.lines().count() > 100, "the flows traced");
    for n in [3, 5, 8] {
        let mut net = loaded_net(&topo, 0x5EED_F354, true, true);
        net.set_shards(&topo, n);
        assert_eq!(net.shard_count(), n);
        for (&t, (_, wstate)) in captures.iter().zip(&want) {
            net.run_until(t);
            let what = format!("shards={n} state diverged at t={t:?}");
            assert_same_state(wstate, &net.checkpoint(), &what);
        }
    }
}

// ---------------------------------------------------------------------
// Uniform traffic: every shard hears from every other, and the event
// queue's lanes carry it.
// ---------------------------------------------------------------------

/// Un-congested all-to-all traffic on every HCA of the fat-8 fabric,
/// audited and profiled; the serial run (`n = 1`) also samples
/// telemetry. With one leaf per shard at `n = 4`, each shard's inbox
/// interleaves arrivals from three senders in every window — streams of
/// equal delay that must not share a lane.
fn uniform_net(topo: &Topology, n: usize) -> Network {
    let mut net = Network::new(topo, NetConfig::paper().with_seed(0x1B51_C0DE));
    net.enable_audit(10_000);
    if n == 1 {
        let mut cfg = TelemetryConfig::every(TimeDelta::from_us(50));
        cfg.deterministic_wall = true;
        net.enable_telemetry(cfg);
    }
    net.enable_profile();
    for node in 0..topo.num_hcas as u32 {
        let class = TrafficClass::new(100, DestPattern::UniformExceptSelf, PAPER_MSG_BYTES);
        net.set_classes(node, vec![class]);
    }
    net.set_shards(topo, n);
    assert_eq!(net.shard_count(), n);
    net
}

/// Serial ≡ sharded on the uniform fabric — the observed serial run's
/// state against the unobserved sharded runs' at every capture, shard
/// counts 2 and 4 — and the lane-coverage vacuity guard: nearly every
/// insert of
/// these runs has a model constant for its delay, so nearly every one
/// must land in a lane, serial and sharded (where the delay travels
/// with the provisional key across the barrier). A change that quietly
/// sends everything to the fallback heap keeps every byte identical and
/// fails here, not in a benchmark.
#[test]
fn uniform_traffic_matches_serial_and_rides_the_lanes() {
    let topo = FatTreeSpec::TEST_8.build();
    let captures = [us(120), us(300)];
    let run = |n: usize| {
        let mut net = uniform_net(&topo, n);
        let seen: Vec<_> = captures
            .iter()
            .map(|&t| {
                net.run_until(t);
                unobserved(net.checkpoint())
            })
            .collect();
        (seen, net.profile_report().expect("profiling is on").queue)
    };
    let (want, serial_queue) = run(1);
    let events = want[1].events_processed;
    assert!(events > 20_000, "a loaded fabric, not {events} events");
    for n in [2, 4] {
        let (got, queue) = run(n);
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_same_state(w, g, &format!("shards={n} state diverged at capture {i}"));
        }
        // Each of a run's queues (per shard and segment, one for the
        // windows and one behind them) pays SIGHTINGS misses a hint
        // before it lanes, which at four shards is a visible share of
        // so short a run.
        let floor = if n == 2 { 0.95 } else { 0.90 };
        assert!(queue.coverage() >= floor, "shards={n}: {queue:?}");
        assert!(queue.lanes_live >= 8, "shards={n}: {queue:?}");
    }
    assert!(serial_queue.coverage() >= 0.95, "serial: {serial_queue:?}");
}

// ---------------------------------------------------------------------
// Thread-schedule jitter: same seed, many repetitions, one answer.
// ---------------------------------------------------------------------

/// 20 repetitions of the same 4-shard run produce 20 byte-identical
/// checkpoints: OS scheduling, barrier arrival order, and work
/// imbalance never reach an observable.
#[test]
#[ignore = "20 repetitions of a 500 µs run; run with --release -- --ignored"]
fn same_seed_runs_are_jitter_free() {
    let topo = FatTreeSpec::TEST_8.build();
    let reference = {
        let mut net = loaded_net(&topo, 0xD15C, true, false);
        net.set_shards(&topo, 4);
        net.run_until(us(500));
        serde_json::to_string(&net.checkpoint()).expect("serialise")
    };
    for rep in 0..19 {
        let mut net = loaded_net(&topo, 0xD15C, true, false);
        net.set_shards(&topo, 4);
        net.run_until(us(500));
        let got = serde_json::to_string(&net.checkpoint()).expect("serialise");
        assert_eq!(
            got,
            reference,
            "repetition {} of the same seeded run diverged — thread \
             scheduling leaked into simulation state",
            rep + 2
        );
    }
}

// ---------------------------------------------------------------------
// Property sweep: seeds × fabric × CC × shard count.
// ---------------------------------------------------------------------

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
        let topo = if big {
            FatTreeSpec::QUICK_72.build()
        } else {
            FatTreeSpec::TEST_8.build()
        };
        let horizon = if big { 320 } else { 600 };
        assert_equivalent(&topo, seed, cc, false, n, &[us(mid_us), us(horizon)]);
    }
}

// ---------------------------------------------------------------------
// Delivery marks: what a checkpoint derives against what was delivered.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// The `last_seq` a checkpoint derives from the live packets and
    /// the senders' `tx_seq` equals a shadow table of the last data
    /// packet each pair delivered, kept from the tracer's deliveries:
    /// TEST_8, CC on, audited, at random instants. The
    /// traced run is serial; an untraced run on two shards holds the
    /// same state at every instant. The flow-order ledger stays clean
    /// throughout.
    #[test]
    fn derived_delivery_marks_match_a_shadow_table(
        mut stops in prop::collection::vec(1u64..700, 4..8),
    ) {
        stops.sort_unstable();
        let topo = FatTreeSpec::TEST_8.build();
        let n = topo.num_hcas;
        let mut net = loaded_net(&topo, 0x5EED, true, true);
        let all = n as u32;
        net.enable_trace((0..all).flat_map(|s| (0..all).map(move |d| (s, d))));
        let mut sharded = loaded_net(&topo, 0x5EED, true, true);
        sharded.set_shards(&topo, 2);
        prop_assert_eq!(sharded.shard_count(), 2);
        let mut shadow = vec![vec![0u32; n]; n];
        let (mut seen, mut lagging) = (0, false);
        for &t in &stops {
            net.run_until(us(t));
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
            sharded.run_until(us(t));
            assert_same_state(&st, &sharded.checkpoint(), &format!("2 shards diverged at {t} us"));
        }
        prop_assert!(lagging, "no packet was in flight at any stop");
        for run in [&mut net, &mut sharded] {
            let report = run.audit_now();
            prop_assert!(report.is_clean(), "{}", report.render());
        }
    }
}

// ---------------------------------------------------------------------
// Cross-shard hand-off conservation.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Packets handed across shards are neither leaked nor double-freed:
    /// the merge asserts every shard arena drains to zero live slots
    /// (and under `--features pool-paranoid` each release re-validates
    /// its generation), while the master checkpoint — which resolves
    /// every surviving handle — must still equal serial. Many windows
    /// (short horizon steps) maximise hand-off traffic.
    #[test]
    fn cross_shard_handoff_conserves_packets(
        seed in 0u64..500,
        n in 2usize..=6,
    ) {
        let topo = FatTreeSpec::TEST_8.build();
        // Stepping in small increments forces a fresh split/merge cycle
        // per step — each one a full conservation audit.
        let captures: Vec<Time> = (1..=5).map(|k| us(100 * k)).collect();
        assert_equivalent(&topo, seed, true, false, n, &captures);
    }
}
