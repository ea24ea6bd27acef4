//! The differential workload suite: the production-shaped generators
//! (incast, event-builder shifts, collectives, trace replay) are pinned
//! to each other and to the paper's native generators by *degenerate
//! equivalences* — parameter corners where two different generators
//! must produce the same traffic — and by the absolute sharding
//! contract (serial vs `set_shards(n)` byte-identical on the full
//! [`NetworkState`] tree, across seeds and fabrics).
//!
//! The load-bearing corners:
//!
//! * incast with one sender and no stagger *is* a
//!   [`DestPattern::Fixed`] class — byte-identical to installing the
//!   paper generator by hand, which chains the whole incast family to
//!   the existing scenario goldens;
//! * a one-shift event builder at full fan-in *is* a linear-shift
//!   all-to-all — byte-identical to `collective:algo=a2a,rounds=1`;
//! * a synthesized uniform trace replayed through the streaming feeder
//!   statistically matches the native `UniformExceptSelf` generator at
//!   the same offered load.

use ibsim::bisect::{diff_values, render_diff};
use ibsim::prelude::*;
use ibsim_engine::time::PS_PER_US;
use ibsim_net::NetworkState;
use ibsim_traffic::{TraceFeeder, TraceGenSpec, TracePattern, WorkloadSpec};
use proptest::prelude::*;
use serde::Serialize;

fn us(v: u64) -> Time {
    Time::from_us(v)
}

/// The runner's feed/drain segment, mirrored here so the feeding
/// cadence in these tests matches `ibsim::workload::SEGMENT`.
const SEG_PS: u64 = 100 * PS_PER_US;

/// Build a fabric with a workload installed. For trace replay the
/// returned feeder streams the synthesized trace; scripted workloads
/// return `None`.
fn wl_net(topo: &Topology, seed: u64, spec: &WorkloadSpec) -> (Network, Option<TraceFeeder>) {
    let mut net = Network::new(topo, NetConfig::paper().with_seed(seed));
    let wl = spec.install(&mut net).expect("workload install");
    (net, wl.feeder)
}

/// Run to each capture instant, feeding the trace (if any) at fixed
/// 100 µs boundaries exactly as the runner does, and checkpoint.
fn trace_states(
    net: &mut Network,
    feeder: &mut Option<TraceFeeder>,
    captures: &[Time],
) -> Vec<NetworkState> {
    let mut out = Vec::new();
    let mut s = 0u64;
    for &cap in captures {
        while s < cap.0 {
            let next = (s + SEG_PS).min(cap.0);
            if let Some(f) = feeder.as_mut() {
                f.feed_until(net, Time(next + SEG_PS)).expect("feed");
            }
            net.run_until(Time(next));
            s = next;
        }
        out.push(net.checkpoint());
    }
    out
}

fn assert_states_equal(want: &[NetworkState], got: &[NetworkState], what: &str) {
    for (i, (w, g)) in want.iter().zip(got).enumerate() {
        if w != g {
            let diffs = diff_values(&w.to_value(), &g.to_value(), 10);
            panic!(
                "{what}: diverged at capture {} of {}:\n{}",
                i + 1,
                want.len(),
                render_diff(&diffs)
            );
        }
    }
}

// ---------------------------------------------------------------------
// Degenerate equivalences
// ---------------------------------------------------------------------

/// Incast with one sender and no stagger is byte-identical to a
/// hand-installed `DestPattern::Fixed` class: same events, same RNG
/// draws, same checkpoints, at every capture.
#[test]
fn incast_n1_is_byte_identical_to_fixed_class() {
    let topo = FatTreeSpec::TEST_8.build();
    let captures = [us(50), us(200), us(600)];
    let spec = WorkloadSpec::parse("incast:dst=3,fanin=1,bytes=2048,msgs=64,stagger_ns=0").unwrap();
    let (mut a, _) = wl_net(&topo, 0x1B51_C0DE, &spec);
    let want = trace_states(&mut a, &mut None, &captures);

    // The incast sender set is "first `fanin` nodes, skipping dst" —
    // here exactly node 0.
    let mut b = Network::new(&topo, NetConfig::paper().with_seed(0x1B51_C0DE));
    b.set_classes(
        0,
        vec![TrafficClass::new(100, DestPattern::Fixed(3), 2048).with_max_messages(64)],
    );
    let got = trace_states(&mut b, &mut None, &captures);
    assert_states_equal(&want, &got, "incast N=1 vs Fixed class");
}

/// A one-shift event builder at full fan-in is byte-identical to a
/// one-round linear-shift all-to-all collective: both install the same
/// `(i+1+k) mod n` schedule at the same release instants.
#[test]
fn one_shift_event_builder_equals_all_to_all() {
    let topo = FatTreeSpec::TEST_8.build();
    let captures = [us(40), us(150), us(500)];
    let eb = WorkloadSpec::parse("eb:frag=4096,fanin=7,shifts=1,slot_us=40").unwrap();
    let a2a = WorkloadSpec::parse("collective:algo=a2a,bytes=4096,rounds=1,slot_us=40").unwrap();
    let (mut a, _) = wl_net(&topo, 0xFEED, &eb);
    let want = trace_states(&mut a, &mut None, &captures);
    let (mut b, _) = wl_net(&topo, 0xFEED, &a2a);
    let got = trace_states(&mut b, &mut None, &captures);
    assert_states_equal(&want, &got, "one-shift EB vs all-to-all");
}

/// Replaying a synthesized uniform trace statistically matches the
/// native uniform generator at the same offered load: mean receive
/// rate within a tolerance band, uniform spread across nodes.
#[test]
fn trace_replay_of_uniform_matches_native_uniform() {
    let topo = FatTreeSpec::TEST_8.build();
    let n = topo.num_hcas as u32;
    let pct = 60;
    let bytes = 4096u32;

    // Native: every node offers pct% of the injection cap, uniform
    // destinations.
    let mut native = Network::new(&topo, NetConfig::paper().with_seed(7));
    for v in 0..n {
        native.set_classes(
            v,
            vec![TrafficClass::new(
                pct,
                DestPattern::UniformExceptSelf,
                bytes,
            )],
        );
    }
    native.run_until(us(200));
    native.start_measurement();
    native.run_until(us(1200));
    native.stop_measurement();
    let native_avg: f64 = (0..n).map(|v| native.rx_gbps(v)).sum::<f64>() / n as f64;

    // Trace-shaped twin: same fabric-wide load, flows drawn uniformly,
    // streamed through the feeder at runner cadence.
    let gen = TraceGenSpec {
        seed: 7,
        ..TraceGenSpec::uniform_load(n, 50_000, bytes, 13.5, pct)
    };
    let path = std::env::temp_dir().join("ibsim_wl_equiv_uniform.ibtr");
    ibsim_traffic::flowtrace::synthesize_to(&gen, &path).unwrap();
    let mut replay = Network::new(&topo, NetConfig::paper().with_seed(7));
    for v in 0..n {
        replay.set_classes(v, vec![TrafficClass::script()]);
    }
    let mut feeder = Some(TraceFeeder::open(path.to_str().unwrap(), n).unwrap());
    trace_states(&mut replay, &mut feeder, &[us(200)]);
    replay.start_measurement();
    trace_states(&mut replay, &mut feeder, &[us(1200)]);
    replay.stop_measurement();
    let replay_avg: f64 = (0..n).map(|v| replay.rx_gbps(v)).sum::<f64>() / n as f64;

    let expect = 13.5 * pct as f64 / 100.0;
    assert!(
        (native_avg - expect).abs() / expect < 0.15,
        "native uniform off its own offered load: {native_avg} vs {expect}"
    );
    assert!(
        (replay_avg - native_avg).abs() / native_avg < 0.15,
        "trace replay {replay_avg} Gbit/s vs native uniform {native_avg} Gbit/s"
    );
    // Uniform spread: no node starves or hogs.
    for v in 0..n {
        let r = replay.rx_gbps(v);
        assert!(
            (r - replay_avg).abs() / replay_avg < 0.35,
            "node {v} rx {r} vs mean {replay_avg}"
        );
    }
}

// ---------------------------------------------------------------------
// Sharding contract across the whole generator family
// ---------------------------------------------------------------------

const GENERATORS: [&str; 6] = [
    "incast:dst=1,fanin=5,bytes=8192,msgs=16,stagger_ns=300",
    "eb:frag=4096,fanin=3,shifts=4,slot_us=40",
    "collective:algo=ring,bytes=65536,rounds=1,slot_us=30",
    "collective:algo=rd,bytes=16384,rounds=2,slot_us=30",
    "collective:algo=a2a,bytes=8192,rounds=2,slot_us=40",
    "trace",
];

/// Expand a template spec: `"trace"` synthesizes a per-seed hotspot
/// trace file; everything else parses as-is.
fn resolve_spec(topo: &Topology, seed: u64, spec_str: &str) -> WorkloadSpec {
    if spec_str != "trace" {
        return WorkloadSpec::parse(spec_str).unwrap();
    }
    let gen = TraceGenSpec {
        nodes: topo.num_hcas as u32,
        flows: 5_000,
        bytes: 2048,
        mean_gap_ns: 150,
        pattern: TracePattern::Hotspot {
            hotspots: 2,
            pct: 30,
        },
        seed,
    };
    let path = std::env::temp_dir().join(format!("ibsim_wl_equiv_{}_{seed:x}.ibtr", topo.num_hcas));
    ibsim_traffic::flowtrace::synthesize_to(&gen, &path).unwrap();
    WorkloadSpec::parse(&format!("trace:{}", path.display())).unwrap()
}

/// One serial-vs-sharded comparison: same workload, same seed, same
/// feeding cadence, full `NetworkState` equality at every capture.
fn assert_workload_shards_equal(
    topo: &Topology,
    seed: u64,
    shards: usize,
    spec_str: &str,
    captures: &[Time],
) {
    let spec = resolve_spec(topo, seed, spec_str);
    let (mut serial, mut feed_a) = wl_net(topo, seed, &spec);
    let want = trace_states(&mut serial, &mut feed_a, captures);

    let (mut sharded, mut feed_b) = wl_net(topo, seed, &spec);
    sharded.set_shards(topo, shards);
    let got = trace_states(&mut sharded, &mut feed_b, captures);

    for (i, (w, g)) in want.iter().zip(&got).enumerate() {
        if w != g {
            let diffs = diff_values(&w.to_value(), &g.to_value(), 10);
            panic!(
                "workload {spec_str:?} shards={shards} seed={seed:#x} \
                 diverged from serial at capture {} of {}:\n{}",
                i + 1,
                captures.len(),
                render_diff(&diffs)
            );
        }
    }
}

/// Every generator, serial vs 2 and 4 shards, on the 2-level test
/// fabric — the everyday (cheap) slice of the matrix.
#[test]
fn generators_match_serial_on_fat8() {
    let topo = FatTreeSpec::TEST_8.build();
    let captures = [us(130), us(400)];
    for spec in GENERATORS {
        for shards in [2, 4] {
            assert_workload_shards_equal(&topo, 0x1B51_C0DE, shards, spec, &captures);
        }
    }
}

/// Every generator on the 3-level Clos: `ibsim-topo::partition` splits
/// by pod here, so this pins the workload family on multi-level
/// fabrics too.
#[test]
fn generators_match_serial_on_fattree3() {
    let topo = FatTree3Spec::TEST_8.build();
    let captures = [us(130), us(400)];
    for spec in GENERATORS {
        assert_workload_shards_equal(&topo, 0xB0B0, 2, spec, &captures);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The randomized slice: seeds × fabric × shard count
    /// × generator, serial vs sharded byte-identical. Six cases per run
    /// keeps `cargo test` fast; the space is re-drawn every run.
    #[test]
    fn sharded_workloads_equal_serial(
        seed in any::<u64>(),
        fat3 in proptest::bool::ANY,
        shards in 2usize..5,
        which in 0usize..GENERATORS.len(),
    ) {
        let topo = if fat3 {
            FatTree3Spec::TEST_8.build()
        } else {
            FatTreeSpec::TEST_8.build()
        };
        assert_workload_shards_equal(&topo, seed, shards, GENERATORS[which], &[us(250)]);
    }
}

// ---------------------------------------------------------------------
// The workload ladder under the armed oracle.
// ---------------------------------------------------------------------

/// The oracle on, serial, nothing else armed.
fn audited() -> RunOptions {
    RunOptions {
        audit: Some(ibsim::options::DEFAULT_AUDIT_EVERY),
        ..RunOptions::default()
    }
}

/// The production workload ladder under a fully armed oracle on the
/// 3-level 54-node Clos: incast and event-builder shifts stress exactly
/// the paths the audit ledgers watch (VoQ conservation at the fan-in
/// port, credit balance across three switch tiers), and both must come
/// back with *zero* violations.
#[test]
fn workload_ladder_audits_clean_on_fattree3() {
    let topo = FatTree3Spec::QUICK_54.build();
    let fanin = 8;
    for spec in [
        format!("incast:dst=0,fanin={fanin},bytes=16384,msgs=8,stagger_ns=500"),
        format!("eb:frag=4096,fanin={fanin},shifts=4,slot_us=40"),
    ] {
        let spec = ibsim_traffic::WorkloadSpec::parse(&spec).unwrap();
        let mut net = audited().network(&topo, NetConfig::paper());
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
    let mut net = audited().network(&topo, NetConfig::paper());
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
        !report.is_clean(),
        "a silent drop must trip the workload audit — otherwise the \
         clean ladder above proves nothing:\n{}",
        report.render()
    );
}
