//! One-call experiment runners: build a network, install a scenario,
//! warm up, measure, and summarise — the common skeleton of every
//! table and figure in the paper.

use crate::checkpoint::run_label;
use crate::options::{ClockPlan, RunOptions};
use ibsim_engine::time::{Time, TimeDelta, PS_PER_US};
use ibsim_net::{NetConfig, PAPER_MSG_BYTES};
use ibsim_topo::Topology;
use ibsim_traffic::{RoleSpec, Scenario};
use serde::Serialize;

/// The longest duration in µs a run takes from its input, so that
/// windows summed and quintupled (a workload's drain cap) still fit the
/// picosecond clock.
pub(crate) const MAX_US: u64 = u64::MAX / PS_PER_US / 16;

/// Warmup and measurement durations of one run.
#[derive(Clone, Copy, Debug)]
pub struct RunDurations {
    /// Simulated time excluded from measurement (congestion trees and
    /// CCTI state form during this window).
    pub warmup: TimeDelta,
    /// Simulated time measured.
    pub measure: TimeDelta,
}

impl RunDurations {
    pub fn new_ms(warmup_ms: u64, measure_ms: u64) -> Self {
        RunDurations {
            warmup: TimeDelta::from_ms(warmup_ms),
            measure: TimeDelta::from_ms(measure_ms),
        }
    }
    pub fn total(&self) -> TimeDelta {
        self.warmup + self.measure
    }
}

/// Everything a single simulation run reports.
#[derive(Clone, Debug, Serialize)]
pub struct ScenarioResult {
    /// Was congestion control enabled?
    pub cc: bool,
    /// Average receive rate of the hotspot nodes (Gbit/s). For
    /// moving-hotspot runs this reflects the *final* hotspot set; the
    /// figures report `all_rx` for those scenarios, as the paper does.
    pub hotspot_rx: f64,
    /// Average receive rate of the non-hotspot nodes (Gbit/s).
    pub non_hotspot_rx: f64,
    /// Average receive rate over all nodes (Gbit/s).
    pub all_rx: f64,
    /// Sum of all nodes' receive rates (Gbit/s) — "total network
    /// throughput" in the paper's Table II.
    pub total_rx: f64,
    /// The paper's `tmax`: theoretical max non-hotspot receive rate.
    pub tmax: f64,
    /// FECN marks applied by switches during the whole run.
    pub fecn_marks: u64,
    /// BECNs processed by sources during the whole run.
    pub becns: u64,
    /// Highest CCTI at the end of the run.
    pub max_ccti: u16,
    /// Median end-to-end data latency in microseconds.
    pub latency_p50_us: f64,
    /// 99th-percentile end-to-end data latency in microseconds.
    pub latency_p99_us: f64,
    /// Jain's fairness index over contributor shares at the hotspots
    /// (None when nothing reached a hotspot in the window).
    pub fairness: Option<f64>,
    /// Events processed (simulator work, not a paper metric).
    pub events: u64,
}

/// Run one hotspot scenario under the ambient options (see
/// [`RunOptions::run_scenario`]) with contributors active.
pub fn run_scenario(
    topo: &Topology,
    cfg: NetConfig,
    roles: RoleSpec,
    dur: RunDurations,
    hotspot_lifetime: Option<TimeDelta>,
) -> ScenarioResult {
    run_scenario_opts(topo, cfg, roles, dur, hotspot_lifetime, true)
}

/// As [`run_scenario`], optionally silencing contributor nodes (the
/// "no hotspots" baseline rows of Table II).
pub fn run_scenario_opts(
    topo: &Topology,
    cfg: NetConfig,
    roles: RoleSpec,
    dur: RunDurations,
    hotspot_lifetime: Option<TimeDelta>,
    contributors_active: bool,
) -> ScenarioResult {
    let (life, active) = (hotspot_lifetime, contributors_active);
    RunOptions::ambient().run_scenario(topo, cfg, roles, dur, life, active)
}

impl RunOptions {
    /// Run one hotspot scenario. `hotspot_lifetime = None` keeps
    /// hotspots fixed (silent/windy forests); `Some(L)` moves every
    /// hotspot each `L` of simulated time (the stormy forests of §V-C),
    /// starting during warmup so the measured window sees steady-state
    /// churn. `contributors_active = false` silences the contributor
    /// nodes (Table II's "no hotspots" rows). The end-of-run audit
    /// fails the run on any ledger violation.
    pub fn run_scenario(
        &self,
        topo: &Topology,
        cfg: NetConfig,
        roles: RoleSpec,
        dur: RunDurations,
        hotspot_lifetime: Option<TimeDelta>,
        contributors_active: bool,
    ) -> ScenarioResult {
        let inj = cfg.inj_rate;
        let mut net = self.network(topo, cfg);
        let mut sc = Scenario::install_opts(roles, &mut net, PAPER_MSG_BYTES, contributors_active);
        self.trace_hotspots(&mut net, &sc.assignment.hotspots);

        // A resumed run first replays the moves made before the capture:
        // the checkpoint does not carry class configuration.
        let label = run_label(&roles, &dur, hotspot_lifetime, contributors_active);
        let resumed = self.resume(&mut net, &label, |net, at| {
            let moves = hotspot_lifetime.map_or(0, |l| at.as_ps().saturating_sub(1) / l.as_ps());
            for _ in 0..moves {
                sc.move_hotspots(net);
            }
        });
        let t_end = Time::ZERO + dur.total();
        let plan = ClockPlan {
            open: Some(Time::ZERO + dur.warmup),
            close: Some(t_end),
            step: hotspot_lifetime,
            end: t_end,
            label: Some(label),
            resumed,
        };
        self.drive(&mut net, plan, |net, t| {
            if t < t_end {
                sc.move_hotspots(net);
            }
            true
        });
        // The finish groups the figure series by the final hotspot set.
        // A broken ledger fails the run rather than reporting corrupt
        // numbers (a no-op pass when auditing is off).
        self.finish(&mut net, None, &sc.assignment.hotspots)
            .audit
            .raise();

        let lat = net.latency_histogram();
        let to_us = |ps: Option<u64>| ps.map_or(0.0, |v| v as f64 / 1e6);
        ScenarioResult {
            cc: net.cc_enabled(),
            hotspot_rx: sc.hotspot_avg_rx(&net),
            non_hotspot_rx: sc.non_hotspot_avg_rx(&net),
            all_rx: sc.all_avg_rx(&net),
            total_rx: net.total_rx_gbps(),
            tmax: sc.tmax_gbps(inj),
            fecn_marks: net.total_fecn_marks(),
            becns: net.total_becns(),
            max_ccti: net.max_ccti(),
            latency_p50_us: to_us(lat.quantile(0.5)),
            latency_p99_us: to_us(lat.quantile(0.99)),
            fairness: sc.hotspot_fairness(&net),
            events: net.events_processed(),
        }
    }
}

/// A CC-on/CC-off pair of runs over the same workload (identical seeds
/// and therefore identical traffic), the unit of every comparison plot.
#[derive(Clone, Debug, Serialize)]
pub struct CcComparison {
    pub off: ScenarioResult,
    pub on: ScenarioResult,
}

impl CcComparison {
    /// Total-throughput improvement factor from enabling CC (the y-axis
    /// of figures 5(c)–8(c)).
    pub fn improvement(&self) -> f64 {
        if self.off.total_rx == 0.0 {
            return 1.0;
        }
        self.on.total_rx / self.off.total_rx
    }
}

/// Run the same scenario with CC off and on under the ambient options.
pub fn run_cc_pair(
    topo: &Topology,
    base_cfg: &NetConfig,
    roles: RoleSpec,
    dur: RunDurations,
    hotspot_lifetime: Option<TimeDelta>,
) -> CcComparison {
    RunOptions::ambient().run_cc_pair(topo, base_cfg, roles, dur, hotspot_lifetime)
}

impl RunOptions {
    /// Run the same scenario with CC off and on over identical traffic,
    /// so the comparison isolates what CC buys, or costs.
    pub fn run_cc_pair(
        &self,
        topo: &Topology,
        base_cfg: &NetConfig,
        roles: RoleSpec,
        dur: RunDurations,
        hotspot_lifetime: Option<TimeDelta>,
    ) -> CcComparison {
        let mut cfg_off = base_cfg.clone();
        cfg_off.cc = None;
        let mut cfg_on = base_cfg.clone();
        if cfg_on.cc.is_none() {
            cfg_on.cc = Some(ibsim_cc::CcParams::paper_table1());
        }
        CcComparison {
            off: self.run_scenario(topo, cfg_off, roles, dur, hotspot_lifetime, true),
            on: self.run_scenario(topo, cfg_on, roles, dur, hotspot_lifetime, true),
        }
    }
}
