//! One simulated cell, two ways: through the experiment runners (what a
//! user calls) and assembled by hand from `Network`'s public functions
//! (so the harness can put a span around each layer call and switch
//! the profiler on without a process-wide toggle). The two must report
//! the same simulated outputs; the traced run checks that they do.

use crate::digest::Fnv;
use crate::spans::Spans;
use ibsim::prelude::*;
use ibsim::{ScenarioResult, WorkloadResult};
use ibsim_net::{ProfileReport, TelemetryConfig};

/// Run-loop segments per cell. `Network::queue_depth` is read at each
/// boundary; on a sharded network every segment also pays one split and
/// one merge, so the count is small and the same for every workload.
const SEGMENTS: u64 = 4;

/// Which observers a hand-assembled cell switches on.
#[derive(Clone, Copy, Debug, Default)]
pub struct Observe {
    pub profile: bool,
    /// Conservation ledgers on, with a full pass every this many
    /// events (`u64::MAX`: only the end-of-run pass).
    pub audit_every: Option<u64>,
    pub telemetry_us: Option<u64>,
    /// Trace every flow into a hotspot, hop by hop.
    pub trace_hotspots: bool,
}

impl Observe {
    /// The traced repetition: profiler bins plus an end-of-run audit.
    pub const TRACED: Observe = Observe {
        profile: true,
        audit_every: Some(u64::MAX),
        telemetry_us: None,
        trace_hotspots: false,
    };
    /// The observed stage of `quick72_session`: everything on.
    pub fn everything(audit_every: u64) -> Observe {
        Observe {
            profile: true,
            audit_every: Some(audit_every),
            telemetry_us: Some(100),
            trace_hotspots: true,
        }
    }
}

/// What one cell reported.
#[derive(Clone, Debug, Default)]
pub struct CellOut {
    /// Hash of the fields a runner-driven and a hand-assembled cell
    /// both have.
    pub core: u64,
    /// `core` plus per-node receive rates and packet counts, which only
    /// a hand-assembled cell can read.
    pub full: u64,
    pub events: u64,
    pub fecn_marks: u64,
    pub becns: u64,
    pub max_ccti: u16,
    pub total_rx_gbps: f64,
    pub victim_rx_gbps: f64,
    pub latency_p99_us: f64,
    /// Simulated time the cell covered, in µs.
    pub sim_us: f64,
    // ---- hand-assembled cells only ----
    pub hand: bool,
    pub injected: u64,
    pub delivered: u64,
    pub depth_sum: u64,
    pub depth_samples: u64,
    pub profile: Option<ProfileReport>,
    /// End-of-run audit verdict, when the ledgers were on.
    pub audit_clean: Option<bool>,
}

fn scenario_core(cc: bool, rx: [f64; 4], counts: [u64; 4], lat: [f64; 2]) -> u64 {
    let mut h = Fnv::new();
    h.u64(cc as u64);
    for v in rx.iter().chain(&lat) {
        h.f64(*v);
    }
    for v in counts {
        h.u64(v);
    }
    h.finish()
}

impl CellOut {
    pub fn from_scenario(r: &ScenarioResult, dur: RunDurations) -> CellOut {
        let core = scenario_core(
            r.cc,
            [r.hotspot_rx, r.non_hotspot_rx, r.all_rx, r.total_rx],
            [r.fecn_marks, r.becns, r.max_ccti as u64, r.events],
            [r.latency_p50_us, r.latency_p99_us],
        );
        CellOut {
            core,
            full: core,
            events: r.events,
            fecn_marks: r.fecn_marks,
            becns: r.becns,
            max_ccti: r.max_ccti,
            total_rx_gbps: r.total_rx,
            victim_rx_gbps: r.non_hotspot_rx,
            latency_p99_us: r.latency_p99_us,
            sim_us: dur.total().as_ps() as f64 / 1e6,
            ..CellOut::default()
        }
    }

    pub fn from_workload(r: &WorkloadResult, dur: RunDurations) -> CellOut {
        // Not `r.workload`: for a replay it spells out the trace's path,
        // and the scratch directory is named after the process.
        let mut h = Fnv::new();
        h.u64(r.cc as u64).f64(r.total_rx);
        for (name, rx) in &r.category_rx {
            h.str(name).f64(*rx);
        }
        h.f64(r.latency_p50_us).f64(r.latency_p99_us);
        h.u64(r.fecn_marks).u64(r.becns).u64(r.max_ccti as u64);
        h.u64(r.drained as u64).f64(r.drained_at_us);
        h.u64(r.offered_bytes).u64(r.records_fed).u64(r.events);
        let core = h.finish();
        CellOut {
            core,
            full: core,
            events: r.events,
            fecn_marks: r.fecn_marks,
            becns: r.becns,
            max_ccti: r.max_ccti,
            total_rx_gbps: r.total_rx,
            latency_p99_us: r.latency_p99_us,
            // The runner keeps going until the trace drains.
            sim_us: r.drained_at_us.max(dur.total().as_ps() as f64 / 1e6),
            ..CellOut::default()
        }
    }
}

/// A hotspot-scenario cell through the real runner.
pub fn runner_scenario(
    sp: &mut Spans,
    topo: &Topology,
    cfg: NetConfig,
    roles: RoleSpec,
    dur: RunDurations,
) -> CellOut {
    let r = sp.scope("runner.cell", || {
        run_scenario_opts(topo, cfg, roles, dur, None, true)
    });
    CellOut::from_scenario(&r, dur)
}

/// A network with its observers on, before any traffic is installed.
fn new_network(sp: &mut Spans, topo: &Topology, cfg: NetConfig, obs: Observe) -> Network {
    let mut net = sp.scope("net.new", || Network::new(topo, cfg));
    if let Some(every) = obs.audit_every {
        net.enable_audit(every);
    }
    if let Some(us) = obs.telemetry_us {
        net.enable_telemetry(TelemetryConfig::every(TimeDelta::from_us(us)));
    }
    if obs.profile {
        net.enable_profile();
    }
    net
}

/// A hotspot-scenario network up to its first `run_until`.
pub fn scenario_network(
    sp: &mut Spans,
    topo: &Topology,
    cfg: NetConfig,
    roles: RoleSpec,
    obs: Observe,
) -> (Network, Scenario) {
    let mut net = new_network(sp, topo, cfg, obs);
    let sc = sp.scope("traffic.install", || {
        Scenario::install_opts(roles, &mut net, PAPER_MSG_BYTES, true)
    });
    if obs.trace_hotspots {
        let n = topo.num_hcas as u32;
        for &h in &sc.assignment.hotspots {
            net.enable_trace((0..n).filter(|&s| s != h).map(move |s| (s, h)));
        }
    }
    (net, sc)
}

/// A uniform-traffic network up to its first `run_until`: one
/// `UniformExceptSelf` class of 4096-byte messages on every HCA, cut
/// into `shards` shards when that is more than one.
pub fn uniform_network(
    sp: &mut Spans,
    topo: &Topology,
    cfg: NetConfig,
    shards: usize,
    obs: Observe,
) -> Network {
    let mut net = new_network(sp, topo, cfg, obs);
    sp.scope("traffic.install", || {
        for n in 0..topo.num_hcas as u32 {
            let class = TrafficClass::new(100, DestPattern::UniformExceptSelf, PAPER_MSG_BYTES);
            net.set_classes(n, vec![class]);
        }
    });
    if shards > 1 {
        sp.scope("shard.partition", || net.set_shards(topo, shards));
    }
    net
}

/// Queue depth read at every segment boundary of one cell.
#[derive(Default)]
pub struct Depth {
    sum: u64,
    samples: u64,
}

/// Advance `net` from `from` to `to` in `segments` equal `run_until`
/// calls.
pub fn run_segments(
    sp: &mut Spans,
    net: &mut Network,
    from: Time,
    to: Time,
    segments: u64,
    depth: &mut Depth,
) {
    let span = to.as_ps() - from.as_ps();
    for i in 1..=segments {
        let t = Time(from.as_ps() + span * i / segments);
        sp.scope("net.run_until", || net.run_until(t));
        depth.sum += net.queue_depth() as u64;
        depth.samples += 1;
    }
}

/// Warm up, open the measurement window, measure.
pub fn run_windows(sp: &mut Spans, net: &mut Network, dur: RunDurations, depth: &mut Depth) {
    let warm = Time::ZERO + dur.warmup;
    run_segments(sp, net, Time::ZERO, warm, 1, depth);
    net.start_measurement();
    run_segments(sp, net, warm, Time::ZERO + dur.total(), SEGMENTS - 1, depth);
}

/// Close the window, audit if the ledgers are on, and read everything
/// the cell reports. `hotspots` is empty for uniform traffic.
pub fn finish_cell(
    sp: &mut Spans,
    net: &mut Network,
    hotspots: &[u32],
    dur: RunDurations,
    depth: Depth,
) -> CellOut {
    sp.enter("net.finish");
    net.stop_measurement();
    let audit_clean = net.audit_enabled().then(|| net.audit_checked().is_clean());
    let n = net.hcas.len() as u32;
    let mut rx_hash = Fnv::new();
    for node in 0..n {
        rx_hash.f64(net.rx_gbps(node));
    }
    // Summed in the order the runner's `Scenario` helpers sum them, so
    // the averages agree to the last bit.
    let avg_rx = |nodes: &[u32]| {
        if nodes.is_empty() {
            return 0.0;
        }
        nodes.iter().map(|&v| net.rx_gbps(v)).sum::<f64>() / nodes.len() as f64
    };
    let cold: Vec<u32> = (0..n).filter(|v| !hotspots.contains(v)).collect();
    let everyone: Vec<u32> = (0..n).collect();
    let (hotspot_rx, victim_rx, all_rx) = (avg_rx(hotspots), avg_rx(&cold), avg_rx(&everyone));
    let lat = net.latency_histogram();
    let to_us = |ps: Option<u64>| ps.map_or(0.0, |v| v as f64 / 1e6);
    let (p50, p99) = (to_us(lat.quantile(0.5)), to_us(lat.quantile(0.99)));
    let total_rx = net.total_rx_gbps();
    let out = CellOut {
        core: scenario_core(
            net.cc_enabled(),
            [hotspot_rx, victim_rx, all_rx, total_rx],
            [
                net.total_fecn_marks(),
                net.total_becns(),
                net.max_ccti() as u64,
                net.events_processed(),
            ],
            [p50, p99],
        ),
        full: 0,
        events: net.events_processed(),
        fecn_marks: net.total_fecn_marks(),
        becns: net.total_becns(),
        max_ccti: net.max_ccti(),
        total_rx_gbps: total_rx,
        victim_rx_gbps: victim_rx,
        latency_p99_us: p99,
        sim_us: dur.total().as_ps() as f64 / 1e6,
        hand: true,
        injected: net.total_injected_packets(),
        delivered: net.total_delivered_packets(),
        depth_sum: depth.sum,
        depth_samples: depth.samples,
        profile: net.profile_report(),
        audit_clean,
    };
    let full = Fnv::new()
        .u64(out.core)
        .u64(rx_hash.finish())
        .u64(out.injected)
        .u64(out.delivered)
        .finish();
    sp.exit();
    CellOut { full, ..out }
}

/// A hotspot-scenario cell assembled by hand: the same calls, in the
/// same order, as `run_scenario_opts` makes.
pub fn hand_scenario(
    sp: &mut Spans,
    topo: &Topology,
    cfg: NetConfig,
    roles: RoleSpec,
    dur: RunDurations,
    obs: Observe,
) -> CellOut {
    let (mut net, sc) = scenario_network(sp, topo, cfg, roles, obs);
    let mut depth = Depth::default();
    run_windows(sp, &mut net, dur, &mut depth);
    finish_cell(sp, &mut net, &sc.assignment.hotspots, dur, depth)
}
