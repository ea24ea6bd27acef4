//! Regression pins for whole-simulation determinism.
//!
//! The event queue, the RNG streams, and every hot-path data structure
//! are supposed to make same-seed runs bit-reproducible. These tests
//! pin the Table II CSV output at the default seed so any change that
//! perturbs event order — however subtly — fails loudly instead of
//! silently shifting published numbers.
//!
//! The quick-preset pin is `#[ignore]`d (it simulates 72 nodes for 6 ms
//! and wants a release build); CI runs it in the bench job via
//! `cargo test --release -q -- --ignored`.

use ibsim::prelude::*;

/// Build the exact CSV the `table2` binary writes (same cells, same
/// row labels, same 3-decimal formatting, same serialisation).
/// Runs under the ambient options, so the CI audit and shard legs
/// reach every pin built on it.
fn table2_csv(topo: &Topology, cfg: &NetConfig, roles: RoleSpec, dur: RunDurations) -> String {
    table2_csv_under(RunOptions::ambient(), topo, cfg, roles, dur)
}

/// As [`table2_csv`] under explicit options.
fn table2_csv_under(
    opts: &RunOptions,
    topo: &Topology,
    cfg: &NetConfig,
    roles: RoleSpec,
    dur: RunDurations,
) -> String {
    let f3 = |x: f64| format!("{x:.3}");
    // (cc, contributors_active) — the four cells of Table II.
    let cells = [(false, false), (true, false), (false, true), (true, true)];
    let results: Vec<ScenarioResult> = cells
        .iter()
        .map(|&(cc, active)| {
            let mut c = cfg.clone();
            if !cc {
                c.cc = None;
            }
            opts.run_scenario(topo, c, roles, dur, None, active)
        })
        .collect();
    let (base_off, base_on, hs_off, hs_on) = (&results[0], &results[1], &results[2], &results[3]);
    let rows = [
        ("no_hotspots_no_cc_all", base_off.all_rx),
        ("no_hotspots_cc_all", base_on.all_rx),
        ("hotspots_no_cc_hotspot", hs_off.hotspot_rx),
        ("hotspots_no_cc_non_hotspot", hs_off.non_hotspot_rx),
        ("hotspots_cc_hotspot", hs_on.hotspot_rx),
        ("hotspots_cc_non_hotspot", hs_on.non_hotspot_rx),
        ("total_no_cc", hs_off.total_rx),
        ("total_cc", hs_on.total_rx),
    ];
    let mut out = String::from("metric,gbps\n");
    for (name, v) in rows {
        out.push_str(&format!("{name},{}\n", f3(v)));
    }
    out
}

fn fnv1a(data: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in data {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// TEST_8 cell at the default seed: small enough to run in debug on
/// every `cargo test`, pinned to the exact CSV text.
#[test]
fn tiny_table2_csv_is_pinned() {
    let topo = FatTreeSpec::TEST_8.build();
    let roles = RoleSpec {
        num_nodes: topo.num_hcas,
        num_hotspots: 1,
        b_pct: 0,
        b_p: 0,
        c_pct_of_rest: 80,
    };
    let dur = RunDurations {
        warmup: TimeDelta::from_us(200),
        measure: TimeDelta::from_us(500),
    };
    let csv = table2_csv(&topo, &NetConfig::paper(), roles, dur);
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

fn tiny_roles(topo: &Topology) -> RoleSpec {
    RoleSpec {
        num_nodes: topo.num_hcas,
        num_hotspots: 1,
        b_pct: 0,
        b_p: 0,
        c_pct_of_rest: 80,
    }
}

fn tiny_dur() -> RunDurations {
    RunDurations {
        warmup: TimeDelta::from_us(200),
        measure: TimeDelta::from_us(500),
    }
}

/// The tiny Table II CSV under explicit options.
fn tiny_csv_under(opts: &RunOptions, topo: &Topology) -> String {
    let (roles, dur) = (tiny_roles(topo), tiny_dur());
    table2_csv_under(opts, topo, &NetConfig::paper(), roles, dur)
}

/// Telemetry is purely observational: sampling at a 100 µs cadence
/// through the same runner reproduces the pinned CSV byte for byte.
/// The sampler piggybacks on the event loop — no scheduled events, no
/// RNG draws — so turning it on must not shift a single number. (This
/// extends the pin `tiny_table2_csv_is_pinned` guards.)
#[test]
fn telemetry_on_is_byte_identical() {
    let topo = FatTreeSpec::TEST_8.build();
    let without = table2_csv(&topo, &NetConfig::paper(), tiny_roles(&topo), tiny_dur());

    let dir = std::env::temp_dir().join(format!("ibsim_det_tel_{}", std::process::id()));
    let opts = RunOptions {
        telemetry: Some(100),
        out: dir.clone(),
        ..RunOptions::default()
    };
    let with = tiny_csv_under(&opts, &topo);

    assert_eq!(
        with, without,
        "telemetry-on run diverged from the telemetry-off pin"
    );
    // And the runs did record: artifacts for all 4 cells landed.
    let n_csv = std::fs::read_dir(&dir)
        .expect("telemetry out dir exists")
        .filter(|e| {
            e.as_ref()
                .unwrap()
                .file_name()
                .to_string_lossy()
                .starts_with("telemetry_")
        })
        .count();
    assert_eq!(n_csv, 4, "one sample CSV per Table II cell");
    std::fs::remove_dir_all(&dir).ok();
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
    let dir = std::env::temp_dir().join(format!("ibsim_det_tel_pin_{}", std::process::id()));
    let opts = RunOptions {
        telemetry: Some(50),
        telemetry_det: true,
        out: dir.clone(),
        ..RunOptions::default()
    };
    let (roles, dur) = (tiny_roles(&topo), tiny_dur());
    opts.run_scenario(&topo, NetConfig::paper(), roles, dur, None, true);
    let hash_of = |prefix: &str| -> u64 {
        let files: Vec<_> = std::fs::read_dir(&dir)
            .expect("telemetry out dir exists")
            .map(|e| e.unwrap().path())
            .filter(|p| p.file_name().unwrap().to_string_lossy().starts_with(prefix))
            .collect();
        assert_eq!(files.len(), 1, "one {prefix}* artifact per run");
        fnv1a(&std::fs::read(&files[0]).unwrap())
    };
    let got = [
        hash_of("telemetry_"),
        hash_of("flight_"),
        hash_of("figure_"),
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

/// Flow tracing is purely observational: tracing every node's flow
/// toward node 0 through the same runner reproduces the pinned CSV
/// byte for byte. The trace hooks read state the dispatch already
/// computed — no scheduled events, no RNG draws, no reordering.
#[test]
fn trace_on_is_byte_identical() {
    let topo = FatTreeSpec::TEST_8.build();
    let without = table2_csv(&topo, &NetConfig::paper(), tiny_roles(&topo), tiny_dur());

    let dir = std::env::temp_dir().join(format!("ibsim_det_trc_{}", std::process::id()));
    let opts = RunOptions {
        trace_flows: Some(FlowSpec::Flows((1..8).map(|n| (n, 0)).collect())),
        out: dir.clone(),
        ..RunOptions::default()
    };
    let with = tiny_csv_under(&opts, &topo);

    assert_eq!(
        with, without,
        "trace-on run diverged from the traced-off pin"
    );
    // The runs did record: a Perfetto export per Table II cell landed.
    let n_json = std::fs::read_dir(&dir)
        .expect("trace out dir exists")
        .filter(|e| {
            let name = e.as_ref().unwrap().file_name();
            let name = name.to_string_lossy();
            name.starts_with("trace_") && name.ends_with(".json")
        })
        .count();
    assert_eq!(n_json, 4, "one Perfetto doc per Table II cell");
    std::fs::remove_dir_all(&dir).ok();
}

/// The self-profiler is purely observational: it reads the monotonic
/// clock around work the engine already does, so a profiled run
/// reproduces the pinned CSV byte for byte.
#[test]
fn profile_on_is_byte_identical() {
    let topo = FatTreeSpec::TEST_8.build();
    let without = table2_csv(&topo, &NetConfig::paper(), tiny_roles(&topo), tiny_dur());

    let dir = std::env::temp_dir().join(format!("ibsim_det_prof_{}", std::process::id()));
    let opts = RunOptions {
        profile: true,
        out: dir.clone(),
        ..RunOptions::default()
    };
    let with = tiny_csv_under(&opts, &topo);

    assert_eq!(
        with, without,
        "profile-on run diverged from the profile-off pin"
    );
    let n_json = std::fs::read_dir(&dir)
        .expect("profile out dir exists")
        .filter(|e| {
            e.as_ref()
                .unwrap()
                .file_name()
                .to_string_lossy()
                .starts_with("profile_")
        })
        .count();
    assert_eq!(n_json, 4, "one breakdown per Table II cell");
    std::fs::remove_dir_all(&dir).ok();
}

/// The sharded executor reproduces the pinned CSV byte for byte at
/// every shard count — the same literal string `tiny_table2_csv_is_pinned`
/// guards, so any parallel-only drift in event order, RNG draws, or
/// formatting fails against the published numbers directly.
#[test]
fn sharded_tiny_table2_csv_is_pinned() {
    let topo = FatTreeSpec::TEST_8.build();
    let expected = table2_csv(&topo, &NetConfig::paper(), tiny_roles(&topo), tiny_dur());
    for n in [2, 4, 8, 1] {
        let opts = RunOptions {
            shards: n,
            ..RunOptions::default()
        };
        let csv = tiny_csv_under(&opts, &topo);
        assert_eq!(
            csv, expected,
            "--shards {n} shifted the tiny table2 CSV — the parallel \
             executor no longer replays the serial event stream"
        );
    }
}

/// The quick preset (QUICK_72, 2 ms + 4 ms) exactly as
/// `table2 --preset quick` runs it, pinned by FNV-1a hash.
#[test]
#[ignore = "simulates 24 ms of fabric time across 4 cells; run with --release -- --ignored"]
fn quick_preset_table2_csv_hash_is_pinned() {
    let preset = Preset::Quick;
    let topo = preset.topology();
    let cfg = preset.net_config();
    let roles = RoleSpec {
        num_nodes: topo.num_hcas,
        num_hotspots: preset.num_hotspots(),
        b_pct: 0,
        b_p: 0,
        c_pct_of_rest: 80,
    };
    let csv = table2_csv(&topo, &cfg, roles, preset.durations());
    assert_eq!(
        fnv1a(csv.as_bytes()),
        0x9abd_45e6_1b8e_c195,
        "quick-preset table2 CSV drifted from the pinned hash; output:\n{csv}"
    );
}

/// The quick preset again, on 4 shards, against the *same* pinned hash
/// the serial test guards: a genuinely sharded 72-node run (no
/// telemetry, no tracing — nothing forces the serial fallback) lands on
/// the published numbers bit for bit.
#[test]
#[ignore = "simulates 24 ms of fabric time across 4 cells; run with --release -- --ignored"]
fn quick_preset_table2_csv_hash_is_pinned_sharded() {
    let preset = Preset::Quick;
    let topo = preset.topology();
    let cfg = preset.net_config();
    let roles = RoleSpec {
        num_nodes: topo.num_hcas,
        num_hotspots: preset.num_hotspots(),
        b_pct: 0,
        b_p: 0,
        c_pct_of_rest: 80,
    };
    let opts = RunOptions {
        shards: 4,
        ..RunOptions::default()
    };
    let csv = table2_csv_under(&opts, &topo, &cfg, roles, preset.durations());
    assert_eq!(
        fnv1a(csv.as_bytes()),
        0x9abd_45e6_1b8e_c195,
        "4-shard quick-preset table2 CSV diverged from the serial pin; output:\n{csv}"
    );
}
