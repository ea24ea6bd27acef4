//! One-call experiment runners: build a network, install a scenario,
//! warm up, measure, and summarise — the common skeleton of every
//! table and figure in the paper.

use crate::checkpoint::CkptHook;
use crate::options::RunOptions;
use ibsim_engine::time::{Time, TimeDelta};
use ibsim_net::{FaultSchedule, NetConfig, Network};
use ibsim_topo::Topology;
use ibsim_traffic::{RoleSpec, Scenario};
use serde::Serialize;

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
    /// CNPs sanctioned-dropped by an installed fault schedule (0 when
    /// the run had no faults).
    pub sanctioned_becn_drops: u64,
    /// Events processed (simulator work, not a paper metric).
    pub events: u64,
}

/// Run one hotspot scenario under the ambient options (see
/// [`RunOptions::run_scenario`]) with contributors active and no
/// faults.
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
    RunOptions::ambient().run_scenario(topo, cfg, roles, dur, life, active, None)
}

impl RunOptions {
    /// Run one hotspot scenario. `hotspot_lifetime = None` keeps
    /// hotspots fixed (silent/windy forests); `Some(L)` moves every
    /// hotspot each `L` of simulated time (the stormy forests of §V-C),
    /// starting during warmup so the measured window sees steady-state
    /// churn. `contributors_active = false` silences the contributor
    /// nodes (Table II's "no hotspots" rows). `faults` is installed
    /// before the first event; `None` (or an empty schedule) is
    /// bit-identical to a fault-free run. The end-of-run audit
    /// tolerates sanctioned drops but fails the run on any
    /// unsanctioned ledger violation.
    #[allow(clippy::too_many_arguments)]
    pub fn run_scenario(
        &self,
        topo: &Topology,
        cfg: NetConfig,
        roles: RoleSpec,
        dur: RunDurations,
        hotspot_lifetime: Option<TimeDelta>,
        contributors_active: bool,
        faults: Option<&FaultSchedule>,
    ) -> ScenarioResult {
        let inj = cfg.inj_rate;
        let mut net = self.network(topo, cfg, faults);
        let mut sc = Scenario::install_opts(
            roles,
            &mut net,
            ibsim_net::PAPER_MSG_BYTES,
            contributors_active,
        );
        self.trace_hotspots(&mut net, &sc.assignment.hotspots);
        let t_end = Time::ZERO + dur.total();

        // Optional resume: fast-forward the freshly configured (but not yet
        // primed) fabric from this run's checkpoint, if one exists. Hotspot
        // moves the saved run performed before the capture are replayed
        // first — retargeting rewires class *configuration*, which the
        // checkpoint deliberately does not carry. The move scheduled at the
        // capture instant itself (if any) fired after the save, so it is
        // left to the resumed epoch loop below.
        let label = crate::checkpoint::run_label(
            &roles,
            &dur,
            hotspot_lifetime,
            contributors_active,
            faults,
        );
        let (mut ck, resumed) = CkptHook::resume(self, &net, label);
        let resumed_at = resumed.as_ref().map(|(at, _)| *at);
        if let Some((at, state)) = resumed {
            if let Some(life) = hotspot_lifetime {
                let mut m = Time::ZERO + life;
                while m < at {
                    sc.move_hotspots(&mut net);
                    m += life;
                }
            }
            net.restore(&state)
                .unwrap_or_else(|e| panic!("checkpoint restore failed: {e}"));
        }

        match hotspot_lifetime {
            None => {
                ck.run_until(&mut net, Time::ZERO + dur.warmup);
                if !net.is_measuring() {
                    net.start_measurement();
                }
                ck.run_until(&mut net, t_end);
            }
            Some(life) => {
                assert!(!life.is_zero(), "hotspot lifetime must be positive");
                let mut t = Time::ZERO;
                if let Some(at) = resumed_at {
                    // Re-enter the epoch loop at the last boundary strictly
                    // before the capture, so a move scheduled exactly at the
                    // capture instant still fires.
                    while t + life < at {
                        t += life;
                    }
                }
                let mut measuring = net.is_measuring();
                while t < t_end {
                    let next_move = t + life;
                    let warmup_end = Time::ZERO + dur.warmup;
                    if !measuring && warmup_end <= next_move.min(t_end) {
                        ck.run_until(&mut net, warmup_end);
                        if !net.is_measuring() {
                            net.start_measurement();
                        }
                        measuring = true;
                    }
                    let stop = next_move.min(t_end);
                    ck.run_until(&mut net, stop);
                    t = stop;
                    if t < t_end {
                        sc.move_hotspots(&mut net);
                    }
                }
                if !measuring && !net.is_measuring() {
                    net.start_measurement();
                }
            }
        }
        net.stop_measurement();
        // A broken ledger fails the run rather than reporting corrupt
        // numbers (a no-op pass when auditing is off).
        let hint = cc_hint(&net);
        self.finish(&mut net, hint, &sc.assignment.hotspots)
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
            sanctioned_becn_drops: net.sanctioned_becn_drops(),
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
    run_cc_pair_faults(topo, base_cfg, roles, dur, hotspot_lifetime, None)
}

/// As [`run_cc_pair`], injecting the same fault schedule into both runs.
pub fn run_cc_pair_faults(
    topo: &Topology,
    base_cfg: &NetConfig,
    roles: RoleSpec,
    dur: RunDurations,
    hotspot_lifetime: Option<TimeDelta>,
    faults: Option<&FaultSchedule>,
) -> CcComparison {
    RunOptions::ambient().run_cc_pair(topo, base_cfg, roles, dur, hotspot_lifetime, faults)
}

impl RunOptions {
    /// Run the same scenario with CC off and on, injecting the same
    /// fault schedule (if any) into both — so the comparison isolates
    /// what CC buys, or costs, under identical degradation.
    pub fn run_cc_pair(
        &self,
        topo: &Topology,
        base_cfg: &NetConfig,
        roles: RoleSpec,
        dur: RunDurations,
        hotspot_lifetime: Option<TimeDelta>,
        faults: Option<&FaultSchedule>,
    ) -> CcComparison {
        let mut cfg_off = base_cfg.clone();
        cfg_off.cc = None;
        let mut cfg_on = base_cfg.clone();
        if cfg_on.cc.is_none() {
            cfg_on.cc = Some(ibsim_cc::CcParams::paper_table1());
        }
        CcComparison {
            off: self.run_scenario(topo, cfg_off, roles, dur, hotspot_lifetime, true, faults),
            on: self.run_scenario(topo, cfg_on, roles, dur, hotspot_lifetime, true, faults),
        }
    }
}

/// The artifact-label hint of a finished run: which half of a CC pair.
pub(crate) fn cc_hint(net: &Network) -> &'static str {
    if net.cc_enabled() {
        "cc_on"
    } else {
        "cc_off"
    }
}
