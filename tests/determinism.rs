//! Regression pins for whole-simulation determinism, and the runner
//! rows of the equivalence table (`tests/common`) built on them.
//!
//! The event queue, the RNG streams, and every hot-path data structure
//! are supposed to make same-seed runs bit-reproducible. These tests
//! pin the Table II CSV output at the default seed so any change that
//! perturbs event order — however subtly — fails loudly instead of
//! silently shifting published numbers; the same CSV under telemetry,
//! tracing, the profiler and every shard count must be the pinned
//! bytes. Baselines run under the ambient options, so the CI audit and
//! shard legs reach every pin.
//!
//! The quick-preset pins are `#[ignore]`d (they simulate 72 nodes for
//! 6 ms and want a release build); CI runs them in the shards leg via
//! `cargo test --release -q --test determinism -- --ignored`.

use ibsim::prelude::*;

mod common;
use common::{artifacts, fnv1a, scratch, Runner};

/// Table II on TEST_8 at the default seed, 200 + 500 µs: small enough
/// to run in debug on every `cargo test`.
fn tiny() -> Runner<'static> {
    let topo = FatTreeSpec::TEST_8.build();
    let roles = RoleSpec::silent(topo.num_hcas, 1);
    let dur = RunDurations {
        warmup: TimeDelta::from_us(200),
        measure: TimeDelta::from_us(500),
    };
    Runner::table2("tiny", topo, NetConfig::paper(), roles, dur)
}

/// Table II at the quick preset (QUICK_72, 2 ms + 4 ms), exactly as
/// `table2 --preset quick` runs it.
fn quick() -> Runner<'static> {
    let preset = Preset::Quick;
    let topo = preset.topology();
    let roles = RoleSpec::silent(topo.num_hcas, preset.num_hotspots());
    Runner::table2(
        "quick",
        topo,
        preset.net_config(),
        roles,
        preset.durations(),
    )
}

/// The quick CSV's pinned FNV-1a hash.
const QUICK_HASH: u64 = 0x9abd_45e6_1b8e_c195;

/// The tiny CSV, pinned to the exact text.
#[test]
fn tiny_table2_csv_is_pinned() {
    let csv = tiny().baseline();
    let expected = "metric,gbps\n\
        no_hotspots_no_cc_all,3.383\n\
        no_hotspots_cc_all,3.383\n\
        hotspots_no_cc_hotspot,13.600\n\
        hotspots_no_cc_non_hotspot,2.392\n\
        hotspots_cc_hotspot,6.424\n\
        hotspots_cc_non_hotspot,2.762\n\
        total_no_cc,30.346\n\
        total_cc,25.760\n";
    assert_eq!(
        csv,
        expected,
        "tiny table2 CSV drifted — a same-seed run no longer reproduces \
         the pinned event order (hash {:#018x})",
        fnv1a(csv.as_bytes())
    );
}

/// Telemetry is purely observational: sampling every 100 µs writes a
/// sample CSV per cell and reproduces the pinned CSV byte for byte (no
/// scheduled events, no RNG draws).
#[test]
fn telemetry_on_is_byte_identical() {
    tiny().check(&["telemetry=100"]);
}

/// Flow tracing is purely observational: tracing every node's flow
/// toward node 0 writes a Perfetto document per cell and reproduces the
/// pinned CSV byte for byte (the hooks read state the dispatch already
/// computed).
#[test]
fn trace_on_is_byte_identical() {
    tiny().check(&["trace_flows=1:0,2:0,3:0,4:0,5:0,6:0,7:0"]);
}

/// The self-profiler is purely observational: it reads the monotonic
/// clock around work the engine already does, writes a breakdown per
/// cell and reproduces the pinned CSV byte for byte.
#[test]
fn profile_on_is_byte_identical() {
    tiny().check(&["profile=on"]);
}

/// The sharded executor reproduces the pinned CSV byte for byte at
/// every shard count, so any parallel-only drift in event order, RNG
/// draws, or formatting fails against the published numbers directly.
#[test]
fn sharded_tiny_table2_csv_is_pinned() {
    tiny().check(&["shards=2", "shards=4", "shards=8", "shards=1"]);
}

/// The telemetry artifacts themselves are pinned: one TEST_8 hotspot
/// cell (CC on, contributors active) sampled every 50 µs with the
/// wall-clock columns zeroed writes a sample table, a flight dump and
/// a figure series whose bytes are a pure function of the seed. The
/// file *names* carry the per-process run counter, so only contents
/// are hashed.
#[test]
fn telemetry_artifacts_are_pinned() {
    let topo = FatTreeSpec::TEST_8.build();
    let dir = scratch("det_tel_pin");
    let opts = RunOptions {
        telemetry: Some(50),
        telemetry_det: true,
        out: dir.clone(),
        ..RunOptions::default()
    };
    let dur = RunDurations {
        warmup: TimeDelta::from_us(200),
        measure: TimeDelta::from_us(500),
    };
    let roles = RoleSpec::silent(topo.num_hcas, 1);
    opts.run_scenario(&topo, NetConfig::paper(), roles, dur, None, true);
    let hash_of = |prefix: &str, ext: &str| {
        let files = artifacts(&dir, prefix, ext);
        assert_eq!(files.len(), 1, "one {prefix}* artifact per run");
        fnv1a(&std::fs::read(&files[0]).unwrap())
    };
    let got = [
        hash_of("telemetry_", "csv"),
        hash_of("flight_", "json"),
        hash_of("figure_", "csv"),
    ];
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(
        got,
        [
            0xe9f2_7040_53cf_9227,
            0x2195_40c3_bb3e_2cb6,
            0x1dd8_c4e3_41f1_4ac7
        ],
        "telemetry/flight/figure artifact bytes drifted (hashes {got:x?})"
    );
}

/// The quick preset's CSV, pinned by hash.
#[test]
#[ignore = "simulates 24 ms of fabric time across 4 cells; run with --release -- --ignored"]
fn quick_preset_table2_csv_hash_is_pinned() {
    let csv = quick().baseline();
    assert_eq!(
        fnv1a(csv.as_bytes()),
        QUICK_HASH,
        "quick-preset table2 CSV drifted from the pinned hash; output:\n{csv}"
    );
}

/// The quick preset on 4 shards renders the pinned CSV: a genuinely
/// sharded 72-node run (no telemetry, no tracing — nothing forces the
/// serial fallback) lands on the published numbers bit for bit.
#[test]
#[ignore = "simulates 24 ms of fabric time across 4 cells, twice; run with --release -- --ignored"]
fn quick_preset_table2_csv_hash_is_pinned_sharded() {
    let csv = quick().check(&["shards=4"]);
    assert_eq!(fnv1a(csv.as_bytes()), QUICK_HASH, "output:\n{csv}");
}
