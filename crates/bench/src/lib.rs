//! Shared helpers for the benchmark harness.
//!
//! Each paper table/figure has a matching bench that runs a scaled-down
//! cell of that experiment (8–72 nodes, sub-millisecond windows) so the
//! entire suite completes in minutes; the `ibsim` subcommands
//! (`cargo run --release -- <command>`) regenerate the full results.

use ibsim::prelude::*;

/// The smallest scenario with real congestion trees: TEST_8 fat tree,
/// one hotspot.
pub fn tiny_roles() -> (Topology, RoleSpec) {
    let topo = FatTreeSpec::TEST_8.build();
    let roles = RoleSpec {
        num_nodes: topo.num_hcas,
        num_hotspots: 1,
        b_pct: 0,
        b_p: 0,
        c_pct_of_rest: 80,
    };
    (topo, roles)
}

/// Bench-scale run durations (0.2 ms warmup + 0.5 ms measure).
pub fn bench_durations() -> RunDurations {
    RunDurations {
        warmup: TimeDelta::from_us(200),
        measure: TimeDelta::from_us(500),
    }
}

/// A bench-scale network config with or without CC.
pub fn bench_cfg(cc: bool) -> NetConfig {
    if cc {
        NetConfig::paper()
    } else {
        NetConfig::paper_no_cc()
    }
}
