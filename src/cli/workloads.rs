//! Production-shaped workloads: trace replay, LHCb-style event-builder
//! shifts, MPI collectives, and N:1 incast — each reported as
//! per-category receive rates plus latency quantiles, and as
//! `workload_<name>.csv`.
//!
//! The fabric is `--fabric` (`fat8` by default; `fat72`, `fat648` are
//! the paper's 2-level family, `fat3-8`, `fat3-54` the 3-level Clos
//! whose multi-pod splits `--shards N` exercises). `--preset` takes the
//! preset's fabric and windows instead, unless `--fabric`,
//! `--warmup-us` or `--measure-us` say otherwise. Every workload is
//! byte-identical between serial and sharded execution and supports
//! `--checkpoint-at`/`--resume-from` mid-shift and mid-phase.

use super::{csv, f3, table, ArgError, Args, Job, MAX_US};
use crate::experiment::RunDurations;
use crate::options::RunOptions;
use crate::report::ascii_table;
use crate::workload::WorkloadResult;
use ibsim_engine::time::TimeDelta;
use ibsim_net::NetConfig;
use ibsim_traffic::WorkloadSpec;

/// The default ladder: one spec per generator family, scaled to run in
/// seconds on a laptop fabric.
fn ladder(nodes: usize) -> Result<Vec<WorkloadSpec>, String> {
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
    .map(|s| WorkloadSpec::parse(s))
    .collect()
}

pub(super) fn plan(a: &Args) -> Result<Job, ArgError> {
    let opts = a.run_options(RunOptions::default())?;
    let seed = a.num("seed", 0..=u64::MAX)?;
    let preset = a.given("preset").then(|| a.preset()).transpose()?;
    let topo = match preset {
        Some(p) if !a.given("fabric") => p.topology(),
        _ => a.fabric()?,
    };
    opts.check_flows(topo.num_hcas)?;
    let window = |flag: &str, of_preset: fn(RunDurations) -> TimeDelta| {
        Ok::<_, ArgError>(match preset {
            Some(p) if !a.given(flag) => of_preset(p.durations()),
            _ => TimeDelta::from_us(a.num(flag, 0..=MAX_US)?),
        })
    };
    let dur = RunDurations {
        warmup: window("warmup-us", |d| d.warmup)?,
        measure: window("measure-us", |d| d.measure)?,
    };
    let cfg = preset.map_or_else(NetConfig::paper, |p| p.net_config());
    let cfg = cfg.with_seed(seed);
    let one = a.workload(&topo)?;
    if one.is_none() && !a.switch("all")? {
        return Err(a.bad("workload", "or --all is required"));
    }
    Ok(Box::new(move || {
        let specs = match one {
            Some(spec) => vec![spec],
            None => ladder(topo.num_hcas)?,
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
            let r = opts.run_workload(&topo, cfg.clone(), spec, dur);
            print(&r, topo.num_hcas);
            let cats = &r.category_rx;
            let (header, rows) = table(
                &[
                    ("workload", &|_| r.workload.clone()),
                    ("category", &|i| cats[i].0.clone()),
                    ("avg_rx_gbps", &|i| f3(cats[i].1)),
                    ("total_rx_gbps", &|_| f3(r.total_rx)),
                    ("p50_us", &|_| f3(r.latency_p50_us)),
                    ("p99_us", &|_| f3(r.latency_p99_us)),
                    ("drained", &|_| r.drained.to_string()),
                    ("events", &|_| r.events.to_string()),
                ],
                cats.len(),
            );
            let name = format!("workload_{}.csv", spec.name());
            csv(&opts.out, &name, &header, &rows)?;
            summary.push((spec.name(), r.total_rx, r.drained));
        }
        if summary.len() > 1 {
            println!("ladder summary:");
            for (name, total, drained) in &summary {
                println!("  {name:<16} total_rx {total:>8.3} Gbit/s  drained {drained}");
            }
        }
        Ok(())
    }))
}

/// The stdout summary of one workload run: per-category receive rates
/// plus the latency / marking / drain line.
pub(super) fn print(r: &WorkloadResult, nodes: usize) {
    let mut rows: Vec<Vec<String>> = r
        .category_rx
        .iter()
        .map(|(name, gbps)| vec![name.clone(), f3(*gbps)])
        .collect();
    rows.push(vec!["total".into(), f3(r.total_rx)]);
    println!("workload {} on {} nodes:", r.workload, nodes);
    println!("{}", ascii_table(&["category", "avg rx (Gbit/s)"], &rows));
    println!(
        "  p50 {:.2} us  p99 {:.2} us  fecn {}  becn {}  max_ccti {}  drained {} ({:.1} us)",
        r.latency_p50_us,
        r.latency_p99_us,
        r.fecn_marks,
        r.becns,
        r.max_ccti,
        r.drained,
        r.drained_at_us
    );
}
