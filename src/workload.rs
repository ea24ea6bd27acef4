//! One-call runner for the production-shaped workloads: build a
//! network, install a [`WorkloadSpec`], stream its trace (if any),
//! measure, drain, and summarise per category — the workload twin of
//! [`RunOptions::run_scenario`], under the same [`RunOptions`] (audit,
//! telemetry, trace, profile, shards, checkpoint/resume).
//!
//! The run's step grid is a fixed 100 µs clock. Segment edges are
//! where the trace feeder installs the next look-ahead window of
//! records and where drain is detected — *deterministic* instants,
//! independent of sharding and of where a checkpoint fell, which is
//! what keeps `--shards N` and `--resume-from` byte-identical for every
//! generator.

use crate::experiment::RunDurations;
use crate::options::{ClockPlan, RunOptions};
use ibsim_engine::time::{Time, TimeDelta};
use ibsim_net::{NetConfig, Network};
use ibsim_topo::Topology;
use ibsim_traffic::{TraceError, TraceReader, Workload, WorkloadKind, WorkloadSpec};
use serde::Serialize;

/// Feed/drain segment length. Also the trace feeder's look-ahead
/// granularity: at each boundary the feeder installs records up to one
/// segment past the next boundary.
pub const SEGMENT: TimeDelta = TimeDelta(100 * ibsim_engine::time::PS_PER_US);

/// Everything a single workload run reports.
#[derive(Clone, Debug, Serialize)]
pub struct WorkloadResult {
    /// Canonical `--workload` string of what ran.
    pub workload: String,
    /// Was congestion control enabled?
    pub cc: bool,
    /// Average receive rate (Gbit/s) per workload category over the
    /// measurement window (e.g. incast's `target` vs `senders`).
    pub category_rx: Vec<(String, f64)>,
    /// Sum of all nodes' receive rates (Gbit/s).
    pub total_rx: f64,
    /// Median end-to-end data latency in microseconds — the flow
    /// completion proxy for these message-sized workloads.
    pub latency_p50_us: f64,
    /// 99th-percentile end-to-end data latency in microseconds.
    pub latency_p99_us: f64,
    pub fecn_marks: u64,
    pub becns: u64,
    pub max_ccti: u16,
    /// Did every class finish and every packet drain before the cap?
    pub drained: bool,
    /// Segment boundary at which the fabric was first observed drained
    /// (µs); meaningful only when `drained`.
    pub drained_at_us: f64,
    /// Bytes the schedule offered (trace replay: bytes actually fed).
    pub offered_bytes: u64,
    /// Trace records replayed (0 for scripted workloads).
    pub records_fed: u64,
    /// Events processed (simulator work, not a paper metric).
    pub events: u64,
}

/// Refuse a workload `topo` cannot run, before anything runs: `spec`
/// is installed on a bare fabric (incast target and fan-in, the send
/// limit, the trace header), and a trace must have been cut for exactly
/// this fabric and decode to its end. The `--workload` flag and a spec
/// file's `workload` both go through here.
pub fn check(spec: &WorkloadSpec, topo: &Topology) -> Result<(), String> {
    spec.install(&mut Network::new(topo, NetConfig::paper()))?;
    if let WorkloadKind::TraceReplay { path } = &spec.kind {
        // A run streams its trace and cannot refuse a bad record half
        // way through, so every record is decoded here first (one
        // record in memory at a time).
        let bad = |e: TraceError| format!("trace {path}: {e}");
        let mut reader = TraceReader::open(path).map_err(bad)?;
        let (cut, nodes) = (reader.nodes(), topo.num_hcas);
        if cut as usize != nodes {
            return Err(format!(
                "trace {path} was cut for {cut} nodes, fabric has {nodes}"
            ));
        }
        while reader.next_record().map_err(bad)?.is_some() {}
    }
    Ok(())
}

/// Run one workload on `topo` under the ambient options (see
/// [`RunOptions::run_workload`]).
pub fn run_workload(
    topo: &Topology,
    cfg: NetConfig,
    spec: &WorkloadSpec,
    dur: RunDurations,
) -> WorkloadResult {
    RunOptions::ambient().run_workload(topo, cfg, spec, dur)
}

impl RunOptions {
    /// Run one workload on `topo`. Warmup/measure windows come from
    /// `dur`; after `dur.total()` the run keeps going (unmeasured)
    /// until the workload drains or a cap of four extra `dur.total()`
    /// passes.
    pub fn run_workload(
        &self,
        topo: &Topology,
        cfg: NetConfig,
        spec: &WorkloadSpec,
        dur: RunDurations,
    ) -> WorkloadResult {
        let mut net = self.network(topo, cfg);
        let mut wl = spec
            .install(&mut net)
            .unwrap_or_else(|e| panic!("workload install: {e}"));

        // A resumed run's restored scripts already carry the records fed
        // before the capture: the trace reader skips past them.
        let label = crate::checkpoint::workload_label(spec, &dur);
        let resumed = self.resume(&mut net, &label, |_, _| {});
        if let (Some(_), Some(feeder)) = (resumed, wl.feeder.as_mut()) {
            let fed: u64 = (0..feeder.nodes()).map(|v| net.script_fed(v, 0)).sum();
            feeder
                .skip_fed(fed)
                .unwrap_or_else(|e| panic!("resume: trace re-read failed: {e}"));
        }

        let t_end = Time::ZERO + dur.total();
        // CC-throttled workloads (incast especially) drain far slower than
        // the offered-bytes arithmetic suggests — sources back off under
        // BECN. Allow four extra run-lengths before giving up.
        let drain_cap = t_end + TimeDelta(4 * dur.total().0);
        // At each segment edge the feeder installs the records of the
        // next segment and one more. After a resume the first feed only
        // re-reads the trace's end, if it was reached before the capture.
        let feed = |wl: &mut Workload, net: &mut Network, t: Time| {
            if let Some(feeder) = wl.feeder.as_mut() {
                feeder
                    .feed_until(net, (t + SEGMENT).min(drain_cap) + SEGMENT)
                    .unwrap_or_else(|e| panic!("trace feed: {e}"));
            }
        };
        feed(&mut wl, &mut net, Time::ZERO);
        let plan = ClockPlan {
            open: (!dur.warmup.is_zero()).then_some(Time::ZERO + dur.warmup),
            close: Some(t_end),
            step: Some(SEGMENT),
            end: drain_cap,
            label: Some(label),
            resumed,
        };
        // A window from the start opens before the first event, with no
        // run to 0.
        if plan.open.is_none() && resumed.is_none() {
            net.start_measurement();
        }
        let mut drained_at = None;
        self.drive(&mut net, plan, |net, t| {
            let fed_done = wl.feeder.as_ref().is_none_or(|f| f.done());
            if drained_at.is_none() && fed_done && net.workload_drained() {
                drained_at = Some(t);
            }
            if t >= t_end && drained_at.is_some() {
                return false;
            }
            if t < drain_cap {
                feed(&mut wl, net, t);
            }
            true
        });
        self.finish(&mut net, None, &[]).audit.raise();

        let lat = net.latency_histogram();
        let to_us = |ps: Option<u64>| ps.map_or(0.0, |v| v as f64 / 1e6);
        WorkloadResult {
            workload: wl.spec.to_string(),
            cc: net.cc_enabled(),
            category_rx: wl.category_rates(&net),
            total_rx: net.total_rx_gbps(),
            latency_p50_us: to_us(lat.quantile(0.5)),
            latency_p99_us: to_us(lat.quantile(0.99)),
            fecn_marks: net.total_fecn_marks(),
            becns: net.total_becns(),
            max_ccti: net.max_ccti(),
            drained: drained_at.is_some(),
            drained_at_us: drained_at.map_or(0.0, |t| t.as_us_f64()),
            offered_bytes: wl.offered_bytes,
            records_fed: wl.feeder.as_ref().map_or(0, |f| f.records_fed()),
            events: net.events_processed(),
        }
    }
}
