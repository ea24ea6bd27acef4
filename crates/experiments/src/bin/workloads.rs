//! Production-shaped workloads on paper-scale fabrics: trace replay,
//! LHCb-style event-builder shifts, MPI collectives, and N:1 incast —
//! each reported as per-category receive rates plus latency quantiles.
//!
//! ```text
//! # one workload
//! cargo run --release -p ibsim-experiments --bin workloads -- \
//!     --workload incast:dst=0,fanin=32,bytes=65536,msgs=64
//!
//! # the whole ladder, quick mode, on the 3-level 54-node Clos
//! cargo run --release -p ibsim-experiments --bin workloads -- \
//!     --all --fabric fat3-54 --warmup-us 200 --measure-us 800
//! ```
//!
//! Fabrics (`--fabric`): `fat8` (default), `fat72`, `fat648` — the
//! paper's 2-level family — and `fat3-8`, `fat3-54` for the 3-level
//! Clos, which exercises `ibsim-topo::partition`'s multi-pod splits
//! under `--shards N`. All workloads are byte-identical between serial
//! and sharded execution, and support `--checkpoint-at`/`--resume-from`
//! mid-shift and mid-phase.

use ibsim::prelude::*;
use ibsim_experiments::{run_workload_cli, Args};
use ibsim_traffic::WorkloadSpec;

fn fabric(name: &str) -> Topology {
    match name {
        "fat8" => FatTreeSpec::TEST_8.build(),
        "fat72" => FatTreeSpec::QUICK_72.build(),
        "fat648" => FatTreeSpec::PAPER_648.build(),
        "fat3-8" => FatTree3Spec::TEST_8.build(),
        "fat3-54" => FatTree3Spec::QUICK_54.build(),
        other => panic!("unknown --fabric {other:?}; try fat8|fat72|fat648|fat3-8|fat3-54"),
    }
}

/// The default quick ladder: one spec per generator family, scaled to
/// run in seconds on a laptop fabric.
fn ladder(nodes: usize) -> Vec<WorkloadSpec> {
    let fanin = (nodes - 1).min(8);
    [
        format!("incast:dst=0,fanin={fanin},bytes=16384,msgs=8,stagger_ns=500"),
        format!("eb:frag=4096,fanin={fanin},shifts=8,slot_us=40"),
        // Ring releases 2(n-1) phases, so the slot must stay short for
        // the 54-node schedule to fit the drain cap.
        "collective:algo=ring,bytes=262144,rounds=1,slot_us=10".to_string(),
        "collective:algo=rd,bytes=65536,rounds=2,slot_us=40".to_string(),
        "collective:algo=a2a,bytes=16384,rounds=2,slot_us=40".to_string(),
    ]
    .iter()
    .map(|s| WorkloadSpec::parse(s).unwrap())
    .collect()
}

fn main() {
    let args = Args::parse();
    let opts = args.run_options();
    let topo = fabric(args.get("fabric").unwrap_or("fat8"));
    let cfg = args.preset().net_config().with_seed(args.seed());
    let dur = RunDurations {
        warmup: TimeDelta::from_us(args.get_u64("warmup-us", 100)),
        measure: TimeDelta::from_us(args.get_u64("measure-us", 400)),
    };

    let specs = match args.workload() {
        Some(one) => vec![one],
        None => {
            assert!(
                args.get_flag("all"),
                "pass --workload SPEC or --all for the default ladder"
            );
            ladder(topo.num_hcas)
        }
    };
    eprintln!(
        "workloads: {} nodes, {} workload(s), warmup {:?} measure {:?}",
        topo.num_hcas,
        specs.len(),
        dur.warmup,
        dur.measure
    );
    let mut summary = Vec::new();
    for spec in &specs {
        let r = run_workload_cli(&opts, &topo, cfg.clone(), spec, dur);
        summary.push((spec.name(), r.total_rx, r.drained));
    }
    if summary.len() > 1 {
        println!("ladder summary:");
        for (name, total, drained) in &summary {
            println!("  {name:<16} total_rx {total:>8.3} Gbit/s  drained {drained}");
        }
    }
}
