//! Fabric telemetry: the periodic sampler and flight recorder wired to
//! this network model.
//!
//! [`NetTelemetry`] owns a dense [`Registry`] whose metric blocks are
//! keyed by the simulator's existing id spaces — HCA ids, flat
//! (switch, port) indices — plus the ring-buffered [`SampleTable`] the
//! sampler fills and the [`FlightRecorder`] the event hooks feed. The
//! `Network` holds the whole thing behind `Option<Box<NetTelemetry>>`:
//! disabled runs pay one `None` branch per event, exactly like the
//! invariant oracle and the fault state.
//!
//! Sampling is driven by the event loop, **not** by scheduled events:
//! state is constant between events, so each cadence boundary is
//! sampled lazily once the loop pops past it. No event is ever added,
//! no RNG drawn — a telemetry-on run is bit-identical to a
//! telemetry-off run (pinned by `tests/telemetry.rs` and the
//! workspace determinism pins).

use crate::hca::Hca;
use crate::network::Network;
use crate::switch::Switch;
use ibsim_cc::CcBackend;
use ibsim_engine::time::Time;
use ibsim_engine::{Histogram, HistogramState, RunMeter};
use ibsim_telemetry::{
    Cadence, FlightRecorder, HistId, MetricId, MetricKind, Registry, SampleRow, SampleTable,
};
use serde::{Deserialize, Serialize};

pub use ibsim_telemetry::{FlightEvent, FlightKind, TelemetryConfig};

/// Columns allocated per HCA (see `NetTelemetry::new`).
const HCA_METRICS: [(&str, MetricKind); 7] = [
    ("rx_gbps", MetricKind::Counter),
    ("tx_gbps", MetricKind::Counter),
    ("max_ccti", MetricKind::Gauge),
    ("mean_ccti", MetricKind::Gauge),
    ("ird_mult", MetricKind::Gauge),
    ("throttled", MetricKind::Gauge),
    ("sink_depth", MetricKind::Gauge),
];

/// A read-only view of the whole fabric at a sample boundary: device
/// references in global id order plus the engine counters the sampler
/// needs. The serial loop builds it from `&Network` directly
/// ([`Network::fabric_view`]); the sharded coordinator assembles it
/// *across* shard guards at a window barrier, indexing each device in
/// whichever shard owns it — so one `sample` implementation serves
/// both, reading identical state in identical order.
pub(crate) struct FabricView<'a> {
    pub hcas: Vec<&'a Hca>,
    pub switches: Vec<&'a Switch>,
    /// What `queue.processed()` read at the serial sample point (the
    /// sharded path reconstructs the exact serial value, including the
    /// first already-popped event of the batch past the boundary).
    pub events_processed: u64,
    /// What `Network::queue_depth` read at the serial sample point.
    pub queue_depth: usize,
}

// The fabric totals, defined once over any walk of the devices:
// `Network`'s methods of the same names pass its own tables, the
// sampler a `FabricView`'s.

/// FECN marks applied across `switches`.
pub(crate) fn total_fecn_marks<'a>(switches: impl Iterator<Item = &'a Switch>) -> u64 {
    switches.map(Switch::marked_packets).sum()
}
/// BECNs (CNPs) received across `hcas`.
pub(crate) fn total_becns<'a>(hcas: impl Iterator<Item = &'a Hca>) -> u64 {
    hcas.map(|h| h.cc.becns_received()).sum()
}
/// Highest CCTI across `hcas` (0 with none).
pub(crate) fn max_ccti<'a>(hcas: impl Iterator<Item = &'a Hca>) -> u16 {
    hcas.map(|h| h.cc.max_ccti()).max().unwrap_or(0)
}
/// PFC pause frames emitted across `switches`.
pub(crate) fn total_pfc_pauses<'a>(switches: impl Iterator<Item = &'a Switch>) -> u64 {
    switches.map(Switch::pfc_pauses_total).sum()
}

/// All telemetry state of one network. Constructed against the wired
/// fabric (the dense tables are sized from it) before the first event.
pub struct NetTelemetry {
    cadence: Cadence,
    /// Zero the wall-clock self-metric columns at sample time (see
    /// [`TelemetryConfig::deterministic_wall`]).
    det_wall: bool,
    reg: Registry,
    table: SampleTable,
    pub(crate) flight: FlightRecorder,
    run_meter: RunMeter,
    // -- column bases ------------------------------------------------------
    /// 7 blocks of `n_hcas` columns each, in `HCA_METRICS` order.
    hca_base: [MetricId; HCA_METRICS.len()],
    port_occ: MetricId,
    port_stall: MetricId,
    fab_fecn: MetricId,
    fab_becn: MetricId,
    fab_cnp: MetricId,
    fab_max_ccti: MetricId,
    fab_throttled: MetricId,
    eng_events: MetricId,
    eng_qdepth: MetricId,
    eng_eps: MetricId,
    eng_wall: MetricId,
    occ_hist: HistId,
    /// DCQCN-only columns: per-HCA paused-VL gauge and the fabric-wide
    /// pause-frame total. `None` under the IB backend, so the ibcc
    /// registry layout (and every checkpointed value vector) is
    /// byte-identical to the pre-backend-refactor one. Both are
    /// cumulative-state gauges — no delta baselines, so
    /// [`NetTelemetryState`] keeps its schema.
    dcqcn_hca_paused: Option<MetricId>,
    fab_pfc_pauses: Option<MetricId>,
    // -- flat (switch, port) indexing -------------------------------------
    /// Base into the flat port arrays, per switch.
    port_start: Vec<usize>,
    // -- previous cumulative counters (for per-interval deltas) -----------
    prev_rx: Vec<u64>,
    prev_tx: Vec<u64>,
    prev_stall: Vec<u64>,
    prev_fecn: u64,
    prev_becn: u64,
    prev_cnp: u64,
}

impl NetTelemetry {
    pub(crate) fn new(net: &Network, cfg: TelemetryConfig) -> Self {
        let n = net.hcas.len();
        let mut port_start = Vec::with_capacity(net.switches.len());
        let mut n_ports = 0usize;
        for sw in &net.switches {
            port_start.push(n_ports);
            n_ports += sw.radix();
        }
        let mut reg = Registry::new();
        let hca_base = HCA_METRICS
            .map(|(name, kind)| reg.block(n, kind, |i| format!("hca{i}.{name}")));
        let port_name = |flat: usize| {
            let s = port_start.partition_point(|&b| b <= flat) - 1;
            format!("sw{s}.p{}", flat - port_start[s])
        };
        let port_occ = reg.block(n_ports, MetricKind::Gauge, |f| {
            format!("{}.occ_blocks", port_name(f))
        });
        let port_stall = reg.block(n_ports, MetricKind::Counter, |f| {
            format!("{}.stalls", port_name(f))
        });
        let fab_fecn = reg.counter("fabric.fecn_per_us");
        let fab_becn = reg.counter("fabric.becn_per_us");
        let fab_cnp = reg.counter("fabric.cnp_tx_per_us");
        let fab_max_ccti = reg.gauge("fabric.max_ccti");
        let fab_throttled = reg.gauge("fabric.throttled_flows");
        let eng_events = reg.counter("engine.events");
        let eng_qdepth = reg.gauge("engine.queue_depth");
        let eng_eps = reg.counter("engine.events_per_sec");
        let eng_wall = reg.counter("engine.wall_ms_per_sim_ms");
        let occ_hist = reg.histogram("fabric.total_occ_blocks");
        let (dcqcn_hca_paused, fab_pfc_pauses) = if net.cc_backend() == CcBackend::Dcqcn {
            (
                Some(reg.block(n, MetricKind::Gauge, |i| format!("hca{i}.vls_paused"))),
                Some(reg.gauge("fabric.pfc_pauses_total")),
            )
        } else {
            (None, None)
        };
        let table = SampleTable::new(
            reg.names().to_vec(),
            reg.kinds().to_vec(),
            cfg.sample_capacity,
        );
        NetTelemetry {
            cadence: Cadence::new(cfg.every),
            det_wall: cfg.deterministic_wall,
            reg,
            table,
            flight: FlightRecorder::with_capacity(cfg.flight_capacity),
            run_meter: RunMeter::start(net.events_processed(), net.now()),
            hca_base,
            port_occ,
            port_stall,
            fab_fecn,
            fab_becn,
            fab_cnp,
            fab_max_ccti,
            fab_throttled,
            eng_events,
            eng_qdepth,
            eng_eps,
            eng_wall,
            occ_hist,
            dcqcn_hca_paused,
            fab_pfc_pauses,
            port_start,
            prev_rx: vec![0; n],
            prev_tx: vec![0; n],
            prev_stall: vec![0; n_ports],
            prev_fecn: 0,
            prev_becn: 0,
            prev_cnp: 0,
        }
    }

    /// Is a sample boundary strictly before `at` pending?
    #[inline]
    pub(crate) fn due_before(&self, at: Time) -> bool {
        self.cadence.due_before(at)
    }

    /// Is a sample boundary at or before `t` pending?
    #[inline]
    pub(crate) fn due_at(&self, t: Time) -> bool {
        self.cadence.due_at(t)
    }

    /// Consume the next boundary time.
    pub(crate) fn pop_boundary(&mut self) -> Time {
        self.cadence.pop()
    }

    /// The next unconsumed boundary. The sharded coordinator caps its
    /// windows here so no window dispatches past a boundary before it
    /// is sampled.
    pub(crate) fn next_boundary(&self) -> Time {
        self.cadence.next()
    }

    /// Record every metric at boundary `at` into the ring. Read-only
    /// with respect to the fabric.
    pub(crate) fn sample(&mut self, at: Time, net: &FabricView<'_>) {
        let every_ps = self.cadence.every().as_ps() as f64;
        let dt_us = every_ps / 1e6;
        // bytes over one interval → Gbit/s: bits / ps · 10³.
        let gbps = |bytes: u64| bytes as f64 * 8.0 / every_ps * 1e3;

        let [rx, tx, maxc, meanc, ird, thr, sink] = self.hca_base;
        for (i, h) in net.hcas.iter().enumerate() {
            let rxd = h.rx_bytes_total - self.prev_rx[i];
            self.prev_rx[i] = h.rx_bytes_total;
            let txd = h.tx_bytes_total - self.prev_tx[i];
            self.prev_tx[i] = h.tx_bytes_total;
            self.reg.set_at(rx, i, gbps(rxd));
            self.reg.set_at(tx, i, gbps(txd));
            self.reg.set_at(maxc, i, h.cc.max_ccti() as f64);
            let tracked = h.cc.tracked_flows();
            let mean = if tracked > 0 {
                h.cc.sum_ccti() as f64 / tracked as f64
            } else {
                0.0
            };
            self.reg.set_at(meanc, i, mean);
            self.reg.set_at(ird, i, h.cc.ird_multiplier() as f64);
            self.reg.set_at(thr, i, h.cc.throttled_flows() as f64);
            self.reg.set_at(sink, i, h.sink_depth() as f64);
        }

        let mut total_occ = 0u64;
        for (s, sw) in net.switches.iter().enumerate() {
            let base = self.port_start[s];
            for p in 0..sw.radix() {
                let occ: u64 = (0..sw.n_vls())
                    .map(|vl| sw.buffered_blocks(p as u16, vl))
                    .sum();
                total_occ += occ;
                self.reg.set_at(self.port_occ, base + p, occ as f64);
                let xw = sw.ports[p].xmit_wait;
                self.reg
                    .set_at(self.port_stall, base + p, (xw - self.prev_stall[base + p]) as f64);
                self.prev_stall[base + p] = xw;
            }
        }
        self.reg.record_hist(self.occ_hist, total_occ);

        let fecn = total_fecn_marks(net.switches.iter().copied());
        let becn = total_becns(net.hcas.iter().copied());
        let cnp: u64 = net.hcas.iter().map(|h| h.cnps_sent).sum();
        self.reg
            .set(self.fab_fecn, (fecn - self.prev_fecn) as f64 / dt_us);
        self.reg
            .set(self.fab_becn, (becn - self.prev_becn) as f64 / dt_us);
        self.reg
            .set(self.fab_cnp, (cnp - self.prev_cnp) as f64 / dt_us);
        self.prev_fecn = fecn;
        self.prev_becn = becn;
        self.prev_cnp = cnp;
        self.reg
            .set(self.fab_max_ccti, max_ccti(net.hcas.iter().copied()) as f64);
        let throttled: usize = net.hcas.iter().map(|h| h.cc.throttled_flows()).sum();
        self.reg.set(self.fab_throttled, throttled as f64);

        if let Some(paused) = self.dcqcn_hca_paused {
            for (i, h) in net.hcas.iter().enumerate() {
                let n = (0..h.credits.len()).filter(|&vl| h.cc.tx_paused(vl)).count();
                self.reg.set_at(paused, i, n as f64);
            }
        }
        if let Some(pauses) = self.fab_pfc_pauses {
            self.reg.set(
                pauses,
                total_pfc_pauses(net.switches.iter().copied()) as f64,
            );
        }

        let lap = self.run_meter.lap(net.events_processed, at);
        self.reg.set(self.eng_events, lap.events as f64);
        self.reg.set(self.eng_qdepth, net.queue_depth as f64);
        if self.det_wall {
            // Deterministic mode: the two wall-clock self-metrics are
            // the only columns that are not a pure function of simulated
            // history; pinning them to zero makes the whole table
            // byte-reproducible (the same normalisation `state()`
            // applies to checkpoints).
            self.reg.set(self.eng_eps, 0.0);
            self.reg.set(self.eng_wall, 0.0);
        } else {
            self.reg.set(self.eng_eps, lap.events_per_sec());
            self.reg.set(self.eng_wall, lap.wall_ms_per_sim_ms());
        }

        self.table.push(at.as_ps(), self.reg.values());
    }

    /// The recorded time series.
    pub fn table(&self) -> &SampleTable {
        &self.table
    }

    /// The flight recorder's retained window.
    pub fn flight_events(&self) -> impl Iterator<Item = &FlightEvent> {
        self.flight.events()
    }

    /// The sampling period.
    pub fn every(&self) -> ibsim_engine::time::TimeDelta {
        self.cadence.every()
    }

    /// Export the telemetry runtime state (checkpoint). The column
    /// layout, metric ids and capacities are configuration — rebuilt by
    /// [`NetTelemetry::new`] against the same fabric; only the sampler
    /// position, recorded series and delta baselines are captured.
    pub(crate) fn state(&self) -> NetTelemetryState {
        // A checkpoint is a pure function of simulated history; the two
        // wall-clock self-metrics (events/sec, wall-ms per sim-ms) are
        // not, so capture normalises them to zero — in the live values
        // and in every recorded sample row — making save → restore →
        // run byte-identical to an uninterrupted run.
        let wall = [self.eng_eps.0 as usize, self.eng_wall.0 as usize];
        let mut values = self.reg.values().to_vec();
        let mut rows: Vec<SampleRow> = self.table.rows().cloned().collect();
        for &w in &wall {
            values[w] = 0.0;
            for r in &mut rows {
                r.values[w] = 0.0;
            }
        }
        NetTelemetryState {
            cadence_next: self.cadence.next(),
            values,
            rows,
            rows_pushed: self.table.len() as u64 + self.table.dropped(),
            flight_events: self.flight.events().cloned().collect(),
            flight_recorded: self.flight.recorded(),
            occ_hist: self.reg.hist(self.occ_hist).state(),
            meter_events: self.run_meter.baseline().0,
            meter_sim: self.run_meter.baseline().1,
            prev_rx: self.prev_rx.clone(),
            prev_tx: self.prev_tx.clone(),
            prev_stall: self.prev_stall.clone(),
            prev_fecn: self.prev_fecn,
            prev_becn: self.prev_becn,
            prev_cnp: self.prev_cnp,
        }
    }

    /// Overlay a checkpointed telemetry state onto a freshly
    /// constructed instance (same fabric, same config). The run meter
    /// resumes from the captured lap baseline, so the per-lap event
    /// count stays replay-identical; only its wall-clock anchor
    /// restarts — wall-time self-metrics are the one telemetry channel
    /// that is not reproducible, and capture zeroes them.
    pub(crate) fn restore_state(&mut self, s: &NetTelemetryState) -> Result<(), String> {
        if s.values.len() != self.reg.len() {
            return Err(format!(
                "telemetry state has {} metric values, registry has {}",
                s.values.len(),
                self.reg.len()
            ));
        }
        if s.prev_rx.len() != self.prev_rx.len()
            || s.prev_tx.len() != self.prev_tx.len()
            || s.prev_stall.len() != self.prev_stall.len()
        {
            return Err("telemetry delta-baseline table width mismatch".into());
        }
        if !s.cadence_next.as_ps().is_multiple_of(self.cadence.every().as_ps()) {
            return Err(format!(
                "telemetry cadence position {} ps is not a multiple of the {} ps period",
                s.cadence_next.as_ps(),
                self.cadence.every().as_ps()
            ));
        }
        for r in &s.rows {
            if r.values.len() != self.reg.len() {
                return Err("telemetry sample row width mismatch".into());
            }
        }
        self.cadence.set_next(s.cadence_next);
        self.reg.set_values(&s.values);
        self.reg
            .set_hist(self.occ_hist, Histogram::from_state(s.occ_hist.clone()));
        self.table.restore_rows(s.rows.clone(), s.rows_pushed);
        self.flight = FlightRecorder::restore(
            self.flight.capacity(),
            s.flight_events.clone(),
            s.flight_recorded,
        );
        self.run_meter = RunMeter::start(s.meter_events, s.meter_sim);
        self.prev_rx = s.prev_rx.clone();
        self.prev_tx = s.prev_tx.clone();
        self.prev_stall = s.prev_stall.clone();
        self.prev_fecn = s.prev_fecn;
        self.prev_becn = s.prev_becn;
        self.prev_cnp = s.prev_cnp;
        Ok(())
    }

    /// Assemble the owned dump document written on a violation (or at
    /// end of run by the experiment runners).
    pub fn dump(&self, at: Time, reason: &str) -> FlightDump {
        let h = self.reg.hist(self.occ_hist);
        FlightDump {
            at_ps: at.as_ps(),
            reason: reason.to_string(),
            recorded: self.flight.recorded(),
            dropped: self.flight.dropped(),
            events: self.flight.events().cloned().collect(),
            metric_names: self.table.names().to_vec(),
            current_sample: self.table.latest().cloned(),
            occ_blocks_p50: h.quantile(0.5),
            occ_blocks_p99: h.quantile(0.99),
        }
    }
}

/// Serializable image of [`NetTelemetry`]'s runtime state. Capacities,
/// column names and metric ids are not captured — they are derived from
/// the fabric and `TelemetryConfig` on reconstruction.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct NetTelemetryState {
    /// Next unconsumed sample boundary.
    pub cadence_next: Time,
    /// Current value of every registered metric, in registry order.
    pub values: Vec<f64>,
    /// Retained sample rows, oldest first.
    pub rows: Vec<SampleRow>,
    /// Lifetime rows pushed (retained + evicted).
    pub rows_pushed: u64,
    /// Retained flight-recorder window, oldest first.
    pub flight_events: Vec<FlightEvent>,
    /// Lifetime flight events recorded.
    pub flight_recorded: u64,
    /// The whole-fabric occupancy histogram.
    pub occ_hist: HistogramState,
    /// The run meter's lap baseline (events, sim time at lap start) —
    /// deterministic, unlike its wall-clock anchor.
    pub meter_events: u64,
    pub meter_sim: Time,
    pub prev_rx: Vec<u64>,
    pub prev_tx: Vec<u64>,
    pub prev_stall: Vec<u64>,
    pub prev_fecn: u64,
    pub prev_becn: u64,
    pub prev_cnp: u64,
}

/// The flight-recorder dump: the causal window of structured events
/// plus the current metric sample — written as `flight_{run}.json`, and
/// automatically (to `IBSIM_FLIGHT_DUMP`) when an audit raises an
/// unsanctioned violation.
#[derive(Clone, Debug, Serialize)]
pub struct FlightDump {
    pub at_ps: u64,
    pub reason: String,
    /// Flight events ever recorded / evicted from the window.
    pub recorded: u64,
    pub dropped: u64,
    pub events: Vec<FlightEvent>,
    pub metric_names: Vec<String>,
    pub current_sample: Option<SampleRow>,
    /// Whole-fabric buffered-blocks histogram quantiles over all samples.
    pub occ_blocks_p50: Option<u64>,
    pub occ_blocks_p99: Option<u64>,
}

