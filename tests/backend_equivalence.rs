//! The congestion-control backend differential layer.
//!
//! The IB CC machinery sits behind one seam, the dispatch enum
//! `ibsim_cc::SourceCc`, beside a backend override
//! (`RunOptions::cc_backend`). These tests prove the seam is
//! invisible: `--cc-backend ibcc` — and the flag's absence — reproduce the
//! pre-refactor byte streams exactly (the same literal CSV pin
//! `tests/determinism.rs` guards), across seeds, fabrics, fault
//! schedules and shard counts. The DCQCN half then runs the paper's
//! scenario ladder under the new backend with the invariant oracle
//! armed: `RunOptions::run_scenario` ends every run by raising the
//! end-of-run audit, so a single unsanctioned violation — including
//! `PauseLosslessness` — panics the test.
//!
//! Tests that follow the CI legs start from `RunOptions::ambient()`;
//! tests that pin a value start from `RunOptions::default()`.

use ibsim::prelude::*;
use ibsim_cc::CcBackend;
use proptest::prelude::*;

/// `base` with the backend override set (`None` = flag omitted).
fn with_backend(base: &RunOptions, backend: Option<CcBackend>) -> RunOptions {
    RunOptions {
        cc_backend: backend,
        ..base.clone()
    }
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

/// The `table2` CSV exactly as `tests/determinism.rs` builds it.
fn table2_csv(
    opts: &RunOptions,
    topo: &Topology,
    cfg: &NetConfig,
    roles: RoleSpec,
    dur: RunDurations,
) -> String {
    let f3 = |x: f64| format!("{x:.3}");
    let cells = [(false, false), (true, false), (false, true), (true, true)];
    let results: Vec<ScenarioResult> = cells
        .iter()
        .map(|&(cc, active)| {
            let mut c = cfg.clone();
            if !cc {
                c.cc = None;
            }
            opts.run_scenario(topo, c, roles, dur, None, active, None)
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

/// The exact pre-refactor TEST_8 pin from `tests/determinism.rs`. Both
/// the bare runner and a forced `--cc-backend ibcc` must land on this
/// literal — comparing against the committed string (not merely
/// against each other) rules out the backend split shifting *both*
/// paths in lockstep.
const TINY_TABLE2_PIN: &str = "metric,gbps\n\
    no_hotspots_no_cc_all,3.383\n\
    no_hotspots_cc_all,3.383\n\
    hotspots_no_cc_hotspot,13.600\n\
    hotspots_no_cc_non_hotspot,2.392\n\
    hotspots_cc_hotspot,6.424\n\
    hotspots_cc_non_hotspot,2.762\n\
    total_no_cc,30.346\n\
    total_cc,25.760\n";

#[test]
fn forced_ibcc_and_flag_absence_reproduce_the_pre_refactor_pin() {
    let topo = FatTreeSpec::TEST_8.build();
    let ambient = RunOptions::ambient();

    let opts = with_backend(ambient, None); // flag omitted
    let bare = table2_csv(
        &opts,
        &topo,
        &NetConfig::paper(),
        tiny_roles(&topo),
        tiny_dur(),
    );
    assert_eq!(
        bare, TINY_TABLE2_PIN,
        "the backend refactor shifted the default (flag-omitted) output"
    );

    let opts = with_backend(ambient, Some(CcBackend::IbCc));
    let forced = table2_csv(
        &opts,
        &topo,
        &NetConfig::paper(),
        tiny_roles(&topo),
        tiny_dur(),
    );
    assert_eq!(
        forced, TINY_TABLE2_PIN,
        "--cc-backend ibcc diverged from the pre-refactor pin"
    );
}

/// One scenario run summarised to a comparable byte string.
fn run_digest(
    opts: &RunOptions,
    topo: &Topology,
    roles: RoleSpec,
    seed: u64,
    faults: Option<&FaultSchedule>,
) -> String {
    let cfg = NetConfig::paper().with_seed(seed);
    let dur = RunDurations {
        warmup: TimeDelta::from_us(100),
        measure: TimeDelta::from_us(200),
    };
    let r = opts.run_scenario(topo, cfg, roles, dur, None, true, faults);
    serde_json::to_string(&r).expect("serialise result")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Differential pin over the whole configuration lattice: for any
    /// seed × fabric × fault schedule × shard count, the bare runner
    /// and a forced `--cc-backend ibcc` produce byte-identical run
    /// summaries.
    #[test]
    fn ibcc_backend_is_byte_identical_across_seeds_fabrics_faults_shards(
        seed in 0u64..1_000_000,
        big_fabric in any::<bool>(),
        with_faults in any::<bool>(),
        shard_pick in 0usize..3,
    ) {
        let shards = [1usize, 2, 4][shard_pick];
        let topo = if big_fabric {
            FatTreeSpec::TEST_8.build()
        } else {
            single_switch(6, 2)
        };
        let roles = tiny_roles(&topo);
        let schedule;
        let faults = if with_faults {
            schedule = FaultSchedule::from_spec("becnloss:link=hcas,p=0.5", seed)
                .expect("valid spec");
            Some(&schedule)
        } else {
            None
        };

        let bare = RunOptions { shards, ..RunOptions::ambient().clone() };
        let forced = with_backend(&bare, Some(CcBackend::IbCc));
        let bare = run_digest(&bare, &topo, roles, seed, faults);
        let forced = run_digest(&forced, &topo, roles, seed, faults);

        prop_assert_eq!(
            bare, forced,
            "seed={} fabric={} faults={} shards={}: --cc-backend ibcc \
             diverged from the flag-omitted run",
            seed, if big_fabric { "TEST_8" } else { "sw6" }, with_faults, shards
        );
    }
}

/// The dcqcn backend with the invariant oracle armed, serial.
fn dcqcn_audited() -> RunOptions {
    RunOptions {
        cc_backend: Some(CcBackend::Dcqcn),
        audit: Some(ibsim::options::DEFAULT_AUDIT_EVERY),
        ..RunOptions::default()
    }
}

/// The DCQCN backend runs the paper's scenario ladder — silent, windy
/// and moving (stormy) hotspot forests — with the invariant oracle
/// armed. `RunOptions::run_scenario` raises on any unsanctioned violation,
/// so this test passing means zero credit-ledger, packet-conservation
/// and `PauseLosslessness` violations under the new backend.
#[test]
fn dcqcn_runs_the_scenario_ladder_clean_under_audit() {
    let topo = FatTreeSpec::TEST_8.build();
    let opts = dcqcn_audited();

    // Silent forest (fixed hotspots) and the no-hotspot baseline.
    for active in [true, false] {
        let r = opts.run_scenario(
            &topo,
            NetConfig::paper(),
            tiny_roles(&topo),
            tiny_dur(),
            None,
            active,
            None,
        );
        assert!(r.total_rx > 0.0, "dcqcn run moved no traffic");
    }
    // Windy forest: a couple of B-node fractions.
    for p in [25, 75] {
        let roles = RoleSpec {
            num_nodes: topo.num_hcas,
            num_hotspots: 1,
            b_pct: 50,
            b_p: p,
            c_pct_of_rest: 80,
        };
        let r = opts.run_scenario(
            &topo,
            NetConfig::paper(),
            roles,
            tiny_dur(),
            None,
            true,
            None,
        );
        assert!(r.total_rx > 0.0);
    }
    // Stormy forest: hotspots move every 200 µs.
    let r = opts.run_scenario(
        &topo,
        NetConfig::paper(),
        tiny_roles(&topo),
        tiny_dur(),
        Some(TimeDelta::from_us(200)),
        true,
        None,
    );
    assert!(r.total_rx > 0.0);
}

/// DCQCN under audit + faults (CNP-loss windows where the fault layer
/// drops BECNs today) and 4-shard execution: the run must stay clean,
/// and sharding must not change a byte of the summary.
#[test]
fn dcqcn_with_faults_and_shards_is_clean_and_shard_invariant() {
    let topo = FatTreeSpec::TEST_8.build();
    let schedule =
        FaultSchedule::from_spec("becnloss:link=hcas,p=0.5", 0x1B51_C0DE).expect("valid spec");

    let run = |shards: usize| {
        let opts = RunOptions {
            shards,
            ..dcqcn_audited()
        };
        let r = opts.run_scenario(
            &topo,
            NetConfig::paper(),
            tiny_roles(&topo),
            tiny_dur(),
            None,
            true,
            Some(&schedule),
        );
        serde_json::to_string(&r).expect("serialise result")
    };
    let serial = run(1);
    let sharded = run(4);

    assert_eq!(
        serial, sharded,
        "4-shard dcqcn run diverged from the serial engine"
    );
}

/// The dcqcn backend must actually exercise its new machinery on the
/// congested tiny fabric — otherwise every ladder test above is
/// vacuously green. Checked directly on a `Network` built from the
/// dcqcn paper config.
#[test]
fn dcqcn_tiny_hotspot_run_generates_pause_frames_and_cnps() {
    // Default PFC thresholds (XOFF 160 of 256 ibuf blocks): high enough
    // that egress VoQs still cross the 16 KiB FECN threshold, low
    // enough that a saturated ingress pauses. An aggressive XOFF (e.g.
    // 48 blocks) suppresses marking entirely — PFC caps every ingress
    // below the detector threshold — which the metamorphic tests cover
    // from the other side.
    let topo = FatTreeSpec::TEST_8.build();
    let cfg = NetConfig::paper_dcqcn();
    let mut net = Network::new(&topo, cfg);
    let hot = vec![TrafficClass::new(100, DestPattern::Fixed(0), 4096)];
    for n in 1..topo.num_hcas as u32 {
        net.set_classes(n, hot.clone());
    }
    net.enable_audit(5_000);
    net.run_until(Time::from_us(600));
    let report = net.audit_now();
    assert!(report.is_clean(), "{}", report.render());
    assert!(
        net.total_pfc_pauses() > 0,
        "a 7-into-1 hotspot at 48-block XOFF must pause at least once"
    );
    assert!(
        net.total_becns() > 0,
        "receiver CNPs must reach and be processed by the dcqcn senders"
    );
}
