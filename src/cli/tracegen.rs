//! Synthesize compact binary flow traces (the `IBTR` format that
//! `workloads --workload trace:<path>` replays) from closed-form
//! distributions — deterministic in `--seed`, streamed to disk in
//! constant memory. `--mean-gap-ns` sets the inter-arrival directly;
//! `--load-pct` derives it from the paper's 13.5 Gbit/s injection cap.

use super::{ArgError, Args, Job};
use ibsim_traffic::flowtrace::synthesize_to;
use ibsim_traffic::{TraceGenSpec, TracePattern, TraceReader};

pub(super) fn plan(a: &Args) -> Result<Job, ArgError> {
    let path = a.operand()?.to_string();
    let nodes = a.num("nodes", 2..=u32::MAX)?;
    let flows = a.num("flows", 0..=u64::MAX)?;
    let bytes = a.num("bytes", 1..=u32::MAX)?;
    let hotspots = a.num("hotspots", 0..=nodes)?;
    let pattern = if hotspots > 0 {
        let pct = a.num("hot-pct", 0..=100)?;
        TracePattern::Hotspot { hotspots, pct }
    } else {
        TracePattern::Uniform
    };
    let mean_gap_ns = if a.given("mean-gap-ns") {
        a.num("mean-gap-ns", 0..=u64::MAX)?
    } else {
        let load = a.num("load-pct", 1..=100)?;
        TraceGenSpec::uniform_load(nodes, flows, bytes, 13.5, load).mean_gap_ns
    };
    let spec = TraceGenSpec {
        nodes,
        flows,
        bytes,
        mean_gap_ns,
        pattern,
        seed: a.num("seed", 0..=u64::MAX)?,
    };
    Ok(Box::new(move || {
        let failed = |e: &dyn std::fmt::Display| format!("tracegen {path}: {e}");
        synthesize_to(&spec, &path).map_err(|e| failed(&e))?;
        let size = std::fs::metadata(&path).map_err(|e| failed(&e))?.len();
        let r = TraceReader::open(&path).map_err(|e| failed(&e))?;
        eprintln!(
            "tracegen: {} — {} flows over {} nodes, {} bytes each, mean gap {} ns ({} bytes on disk, {:.1} B/record)",
            path,
            r.records(),
            r.nodes(),
            bytes,
            mean_gap_ns,
            size,
            size.saturating_sub(20) as f64 / flows.max(1) as f64,
        );
        Ok(())
    }))
}
