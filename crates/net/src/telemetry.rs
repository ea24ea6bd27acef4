//! Fabric telemetry: the periodic sampler and flight recorder of this
//! network model.
//!
//! [`NetTelemetry`] keeps one `Vec<f64>` row whose columns are laid out
//! in blocks keyed by the simulator's existing id spaces — HCA ids,
//! flat (switch, port) indices — plus the ring-buffered [`SampleTable`]
//! the sampler fills and the flight ring the event hooks feed. The
//! `Network` holds the whole thing behind `Option<Box<NetTelemetry>>`:
//! disabled runs pay one `None` branch per event, exactly like the
//! invariant oracle. Every access after setup is
//! plain `Vec` indexing: nothing hashes, looks up a name or allocates
//! beyond the one row a sample pushes.
//!
//! Sampling is driven by the event loop, **not** by scheduled events:
//! state is constant between events, so each boundary (`0, every,
//! 2·every, …`) is sampled lazily once the loop pops past it. No event
//! is ever added, no RNG drawn — a telemetry-on run is bit-identical to
//! a telemetry-off run (pinned by `tests/telemetry.rs` and the
//! workspace determinism pins), and a run over horizon `H` yields
//! exactly `floor(H / every) + 1` samples however it is segmented.

use crate::network::Network;
use ibsim_engine::time::{Time, TimeDelta};
use ibsim_engine::{Histogram, HistogramState, RunMeter};
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// Rows the sample ring keeps (oldest evicted first): every preset's
/// full run fits without wrapping (paper preset: 102 ms / 100 µs =
/// 1021 samples).
const SAMPLE_CAPACITY: usize = 4096;
/// Events the flight window keeps: deep enough for the causal context
/// of a violation (marks, throttles and audit passes of the last
/// few hundred microseconds under congestion).
const FLIGHT_CAPACITY: usize = 1024;

/// Knobs for a telemetry-enabled run. The default samples every
/// 100 µs, the cadence of the paper's figures.
#[derive(Clone, Copy, Debug)]
pub struct TelemetryConfig {
    /// Simulated time between samples.
    pub every: TimeDelta,
    /// Zero the two wall-clock self-metrics (`engine.events_per_sec`,
    /// `engine.wall_ms_per_sim_ms`) at sample time. Every other column
    /// is a pure function of simulated history; with this set the whole
    /// sample table is byte-reproducible run-to-run — the mode the
    /// sharded-equivalence pins and CI diffs sample under.
    pub deterministic_wall: bool,
}

impl TelemetryConfig {
    /// The default configuration at a caller-chosen sampling period.
    pub fn every(every: TimeDelta) -> Self {
        TelemetryConfig {
            every,
            ..TelemetryConfig::default()
        }
    }
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            every: TimeDelta::from_us(100),
            deterministic_wall: false,
        }
    }
}

/// What kind of fabric event a flight record describes.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum FlightKind {
    /// A FECN-marked packet was forwarded (congestion detected).
    Mark,
    /// A CNP reached its source and raised a flow's CCTI (throttle).
    Throttle,
    /// A periodic or end-of-run audit pass completed.
    AuditPass,
    /// An audit violation was raised.
    Violation,
    /// Free-form annotation from a runner (measurement marks etc.).
    Note,
}

/// One flight record.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct FlightEvent {
    /// Simulated time of the event, picoseconds.
    pub at_ps: u64,
    /// Monotonic record number (survives ring eviction, so a dump shows
    /// how many earlier events were lost).
    pub seq: u64,
    pub kind: FlightKind,
    /// What the event happened to (`sw2.p5`, `hca17`, `audit`, …).
    pub subject: String,
    /// Human-readable specifics.
    pub detail: String,
}

/// One sample: every column's value at one boundary.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SampleRow {
    pub t_ps: u64,
    pub values: Vec<f64>,
}

/// A fixed-capacity FIFO ring: push never allocates after construction,
/// the oldest element is evicted on overflow, and iteration yields
/// oldest to newest — telemetry memory is bounded however long a run
/// lasts.
#[derive(Clone, Debug)]
struct Ring<T, const CAP: usize> {
    buf: Vec<T>,
    /// Index of the oldest element once the ring is full (0 before).
    head: usize,
}

impl<T, const CAP: usize> Ring<T, CAP> {
    /// A ring holding `window` (oldest first); the caller checked that
    /// it fits.
    fn new(window: Vec<T>) -> Self {
        debug_assert!(window.len() <= CAP);
        let mut buf = Vec::with_capacity(CAP);
        buf.extend(window);
        Ring { buf, head: 0 }
    }

    fn len(&self) -> usize {
        self.buf.len()
    }

    fn push(&mut self, item: T) {
        if self.buf.len() < CAP {
            self.buf.push(item);
        } else {
            self.buf[self.head] = item;
            self.head = (self.head + 1) % CAP;
        }
    }

    fn iter(&self) -> impl Iterator<Item = &T> {
        let (newer, older) = self.buf.split_at(self.head);
        older.iter().chain(newer)
    }

    fn latest(&self) -> Option<&T> {
        match self.head {
            0 => self.buf.last(),
            h => self.buf.get(h - 1),
        }
    }
}

/// The recorded time series: a ring of rows over one column layout,
/// exported as wide-format CSV.
#[derive(Clone, Debug)]
pub struct SampleTable {
    names: Vec<String>,
    rows: Ring<SampleRow, SAMPLE_CAPACITY>,
    /// Rows ever pushed (retained plus evicted).
    pushed: u64,
}

impl SampleTable {
    pub fn new(names: Vec<String>) -> Self {
        SampleTable {
            names,
            rows: Ring::new(Vec::new()),
            pushed: 0,
        }
    }

    /// Append one row; `values` must match the column layout.
    pub fn push(&mut self, t_ps: u64, values: &[f64]) {
        debug_assert_eq!(values.len(), self.names.len());
        self.pushed += 1;
        self.rows.push(SampleRow {
            t_ps,
            values: values.to_vec(),
        });
    }

    pub fn names(&self) -> &[String] {
        &self.names
    }

    pub fn len(&self) -> usize {
        self.rows.len()
    }

    pub fn is_empty(&self) -> bool {
        self.rows.len() == 0
    }

    /// Retained rows, oldest first.
    pub fn rows(&self) -> impl Iterator<Item = &SampleRow> {
        self.rows.iter()
    }

    pub fn latest(&self) -> Option<&SampleRow> {
        self.rows.latest()
    }

    /// Column index of `name`, if there is one.
    pub fn col(&self, name: &str) -> Option<usize> {
        self.names.iter().position(|n| n == name)
    }

    /// The full series of one column (empty when the name is unknown).
    pub fn series(&self, name: &str) -> Vec<f64> {
        match self.col(name) {
            Some(i) => self.rows().map(|r| r.values[i]).collect(),
            None => Vec::new(),
        }
    }

    /// Wide-format CSV: `t_us,<column>,<column>,…` — one row per
    /// sample. Values print with Rust's shortest-round-trip `f64`
    /// formatting (deterministic for deterministic inputs; wall-clock
    /// self-metrics naturally vary between runs).
    pub fn to_csv(&self) -> String {
        let mut out = String::from("t_us");
        for n in &self.names {
            out.push(',');
            out.push_str(n);
        }
        out.push('\n');
        for row in self.rows() {
            let _ = write!(out, "{}", row.t_ps as f64 / 1e6);
            for v in &row.values {
                let _ = write!(out, ",{v}");
            }
            out.push('\n');
        }
        out
    }
}

/// Per-HCA columns: one block of `n_hcas` columns each, in this order,
/// at the start of the row.
const HCA_COLS: [&str; 7] = [
    "rx_gbps",
    "tx_gbps",
    "max_ccti",
    "mean_ccti",
    "ird_mult",
    "throttled",
    "sink_depth",
];

/// Fabric and engine columns, one each, after the two per-port blocks.
/// The last two are the wall-clock self-metrics.
const SCALAR_COLS: [&str; 9] = [
    "fabric.fecn_per_us",
    "fabric.becn_per_us",
    "fabric.cnp_tx_per_us",
    "fabric.max_ccti",
    "fabric.throttled_flows",
    "engine.events",
    "engine.queue_depth",
    "engine.events_per_sec",
    "engine.wall_ms_per_sim_ms",
];

/// All telemetry state of one network. Constructed against the wired
/// fabric (the row is sized from it) before the first event.
///
/// The row's columns, in order: the seven `HCA_COLS` blocks of
/// `n_hcas` columns; one occupancy and one stall block of one column
/// per flat (switch, port); and the `SCALAR_COLS`.
pub struct NetTelemetry {
    /// Simulated time between samples.
    every: TimeDelta,
    /// The next boundary that has not been sampled yet.
    next: Time,
    /// Zero the wall-clock self-metric columns at sample time (see
    /// [`TelemetryConfig::deterministic_wall`]).
    det_wall: bool,
    /// Every column's value at the latest sample.
    values: Vec<f64>,
    table: SampleTable,
    flight: Ring<FlightEvent, FLIGHT_CAPACITY>,
    /// Flight events ever recorded: the next event's `seq`.
    flight_seq: u64,
    /// Whole-fabric buffered blocks, one record per sample.
    occ_hist: Histogram,
    run_meter: RunMeter,
    // -- column offsets ----------------------------------------------------
    port_occ: usize,
    port_stall: usize,
    scalars: usize,
    /// Base into the flat port blocks, per switch.
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
        assert!(!cfg.every.is_zero(), "sampling period must be positive");
        let n = net.hcas.len();
        let mut port_start = Vec::with_capacity(net.switches.len());
        let mut ports = Vec::new();
        for (s, sw) in net.switches.iter().enumerate() {
            port_start.push(ports.len());
            ports.extend((0..sw.radix()).map(|p| format!("sw{s}.p{p}")));
        }
        let mut names: Vec<String> = HCA_COLS
            .iter()
            .flat_map(|col| (0..n).map(move |i| format!("hca{i}.{col}")))
            .collect();
        let port_occ = names.len();
        names.extend(ports.iter().map(|p| format!("{p}.occ_blocks")));
        let port_stall = names.len();
        names.extend(ports.iter().map(|p| format!("{p}.stalls")));
        let scalars = names.len();
        names.extend(SCALAR_COLS.map(String::from));
        NetTelemetry {
            every: cfg.every,
            next: Time::ZERO,
            det_wall: cfg.deterministic_wall,
            values: vec![0.0; names.len()],
            table: SampleTable::new(names),
            flight: Ring::new(Vec::new()),
            flight_seq: 0,
            occ_hist: Histogram::new(),
            run_meter: RunMeter::start(net.events_processed(), net.now()),
            port_occ,
            port_stall,
            scalars,
            port_start,
            prev_rx: vec![0; n],
            prev_tx: vec![0; n],
            prev_stall: vec![0; ports.len()],
            prev_fecn: 0,
            prev_becn: 0,
            prev_cnp: 0,
        }
    }

    /// Is a sample boundary strictly before `at` pending? Mid-run form:
    /// state is constant between events, so a boundary `b < at` is
    /// sampled exactly at `b` before the event at `at` runs.
    #[inline]
    pub(crate) fn due_before(&self, at: Time) -> bool {
        self.next < at
    }

    /// Is a sample boundary at or before `t` pending? End-of-segment
    /// form: `run_until(t)` runs the events at exactly `t` first.
    #[inline]
    pub(crate) fn due_at(&self, t: Time) -> bool {
        self.next <= t
    }

    /// Consume the next boundary time.
    pub(crate) fn pop_boundary(&mut self) -> Time {
        let t = self.next;
        self.next = t + self.every;
        t
    }

    /// Append a structured event to the flight window.
    pub(crate) fn record_flight(
        &mut self,
        at: Time,
        kind: FlightKind,
        subject: impl Into<String>,
        detail: impl Into<String>,
    ) {
        self.flight.push(FlightEvent {
            at_ps: at.as_ps(),
            seq: self.flight_seq,
            kind,
            subject: subject.into(),
            detail: detail.into(),
        });
        self.flight_seq += 1;
    }

    /// Record every column at boundary `at` into the ring. Read-only
    /// with respect to the fabric.
    pub(crate) fn sample(&mut self, at: Time, net: &Network) {
        let every_ps = self.every.as_ps() as f64;
        let dt_us = every_ps / 1e6;
        // bytes over one interval → Gbit/s: bits / ps · 10³.
        let gbps = |bytes: u64| bytes as f64 * 8.0 / every_ps * 1e3;
        let n = net.hcas.len();
        let v = &mut self.values;

        for (i, h) in net.hcas.iter().enumerate() {
            let rxd = h.rx_bytes_total - self.prev_rx[i];
            self.prev_rx[i] = h.rx_bytes_total;
            let txd = h.tx_bytes_total - self.prev_tx[i];
            self.prev_tx[i] = h.tx_bytes_total;
            let tracked = h.cc.tracked_flows();
            let mean = if tracked > 0 {
                h.cc.sum_ccti() as f64 / tracked as f64
            } else {
                0.0
            };
            let cols = [
                gbps(rxd),
                gbps(txd),
                h.cc.max_ccti() as f64,
                mean,
                h.cc.ird_multiplier() as f64,
                h.cc.throttled_flows() as f64,
                h.sink_depth() as f64,
            ];
            for (k, x) in cols.into_iter().enumerate() {
                v[k * n + i] = x;
            }
        }

        let mut total_occ = 0u64;
        for (s, sw) in net.switches.iter().enumerate() {
            let base = self.port_start[s];
            for p in 0..sw.radix() {
                let occ: u64 = (0..sw.n_vls())
                    .map(|vl| sw.buffered_blocks(p as u16, vl))
                    .sum();
                total_occ += occ;
                v[self.port_occ + base + p] = occ as f64;
                let xw = sw.ports[p].xmit_wait;
                v[self.port_stall + base + p] = (xw - self.prev_stall[base + p]) as f64;
                self.prev_stall[base + p] = xw;
            }
        }
        self.occ_hist.record(total_occ);

        let fecn = net.total_fecn_marks();
        let becn = net.total_becns();
        let cnp: u64 = net.hcas.iter().map(|h| h.cnps_sent).sum();
        let throttled: usize = net.hcas.iter().map(|h| h.cc.throttled_flows()).sum();
        let lap = self.run_meter.lap(net.events_processed(), at);
        // Deterministic mode: the two wall-clock self-metrics are the
        // only columns that are not a pure function of simulated
        // history; pinning them to zero makes the whole table
        // byte-reproducible (the same normalisation `state()` applies
        // to checkpoints).
        let (eps, wall) = if self.det_wall {
            (0.0, 0.0)
        } else {
            (lap.events_per_sec(), lap.wall_ms_per_sim_ms())
        };
        let scalars = [
            (fecn - self.prev_fecn) as f64 / dt_us,
            (becn - self.prev_becn) as f64 / dt_us,
            (cnp - self.prev_cnp) as f64 / dt_us,
            net.max_ccti() as f64,
            throttled as f64,
            lap.events as f64,
            net.queue_depth() as f64,
            eps,
            wall,
        ];
        v[self.scalars..self.scalars + SCALAR_COLS.len()].copy_from_slice(&scalars);
        self.prev_fecn = fecn;
        self.prev_becn = becn;
        self.prev_cnp = cnp;

        self.table.push(at.as_ps(), &self.values);
    }

    /// The recorded time series.
    pub fn table(&self) -> &SampleTable {
        &self.table
    }

    /// The flight recorder's retained window, oldest first.
    pub fn flight_events(&self) -> impl Iterator<Item = &FlightEvent> {
        self.flight.iter()
    }

    /// Export the telemetry runtime state (checkpoint). The column
    /// layout and ring capacities are configuration — rebuilt by
    /// [`NetTelemetry::new`] against the same fabric; only the sampler
    /// position, recorded series and delta baselines are captured.
    pub(crate) fn state(&self) -> NetTelemetryState {
        // A checkpoint is a pure function of simulated history; the two
        // wall-clock self-metrics (events/sec, wall-ms per sim-ms) are
        // not, so capture normalises them to zero — in the live values
        // and in every recorded sample row — making save → restore →
        // run byte-identical to an uninterrupted run.
        let wall = self.scalars + SCALAR_COLS.len() - 2..self.scalars + SCALAR_COLS.len();
        let mut values = self.values.clone();
        let mut rows: Vec<SampleRow> = self.table.rows().cloned().collect();
        for row in std::iter::once(&mut values).chain(rows.iter_mut().map(|r| &mut r.values)) {
            row[wall.clone()].fill(0.0);
        }
        NetTelemetryState {
            cadence_next: self.next,
            values,
            rows,
            rows_pushed: self.table.pushed,
            flight_events: self.flight.iter().cloned().collect(),
            flight_recorded: self.flight_seq,
            occ_hist: self.occ_hist.state(),
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
    /// constructed instance (same fabric, same config). Every check
    /// runs before anything is overwritten. The run meter resumes from
    /// the captured lap baseline, so the per-lap event count stays
    /// replay-identical; only its wall-clock anchor restarts —
    /// wall-time self-metrics are the one telemetry channel that is not
    /// reproducible, and capture zeroes them.
    pub(crate) fn restore_state(&mut self, s: &NetTelemetryState) -> Result<(), String> {
        let width = self.values.len();
        if s.values.len() != width {
            return Err(format!(
                "telemetry state has {} metric values, the fabric has {width} columns",
                s.values.len()
            ));
        }
        if s.prev_rx.len() != self.prev_rx.len()
            || s.prev_tx.len() != self.prev_tx.len()
            || s.prev_stall.len() != self.prev_stall.len()
        {
            return Err("telemetry delta-baseline table width mismatch".into());
        }
        if !s.cadence_next.as_ps().is_multiple_of(self.every.as_ps()) {
            return Err(format!(
                "telemetry cadence position {} ps is not a multiple of the {} ps period",
                s.cadence_next.as_ps(),
                self.every.as_ps()
            ));
        }
        if s.rows.iter().any(|r| r.values.len() != width) {
            return Err("telemetry sample row width mismatch".into());
        }
        if s.rows.len() > SAMPLE_CAPACITY || s.rows_pushed < s.rows.len() as u64 {
            return Err(format!(
                "telemetry sample window holds {} rows: more than the {} ever \
                 pushed or the ring's {SAMPLE_CAPACITY}",
                s.rows.len(),
                s.rows_pushed
            ));
        }
        if s.flight_events.len() > FLIGHT_CAPACITY
            || s.flight_recorded < s.flight_events.len() as u64
        {
            return Err(format!(
                "telemetry flight window holds {} events: more than the {} ever \
                 recorded or the ring's {FLIGHT_CAPACITY}",
                s.flight_events.len(),
                s.flight_recorded
            ));
        }
        self.occ_hist = Histogram::from_state(s.occ_hist.clone())
            .map_err(|e| format!("telemetry occupancy {e}"))?;
        self.next = s.cadence_next;
        self.values.copy_from_slice(&s.values);
        self.table.rows = Ring::new(s.rows.clone());
        self.table.pushed = s.rows_pushed;
        self.flight = Ring::new(s.flight_events.clone());
        self.flight_seq = s.flight_recorded;
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
        FlightDump {
            at_ps: at.as_ps(),
            reason: reason.to_string(),
            recorded: self.flight_seq,
            dropped: self.flight_seq - self.flight.len() as u64,
            events: self.flight.iter().cloned().collect(),
            metric_names: self.table.names().to_vec(),
            current_sample: self.table.latest().cloned(),
            occ_blocks_p50: self.occ_hist.quantile(0.5),
            occ_blocks_p99: self.occ_hist.quantile(0.99),
        }
    }
}

/// Serializable image of [`NetTelemetry`]'s runtime state. Capacities
/// and column names are not captured — they are derived from the
/// fabric on reconstruction.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct NetTelemetryState {
    /// Next unconsumed sample boundary.
    pub cadence_next: Time,
    /// Current value of every column, in column order.
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
/// automatically (to `IBSIM_FLIGHT_DUMP`) when an audit raises a
/// violation.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NetConfig;
    use proptest::prelude::*;

    /// Telemetry over a two-port single switch, fresh from `new`.
    fn tiny(every: TimeDelta) -> NetTelemetry {
        let net = Network::new(&ibsim_topo::single_switch(2, 1), NetConfig::paper());
        NetTelemetry::new(&net, TelemetryConfig::every(every))
    }

    #[test]
    fn default_config_is_sane() {
        let cfg = TelemetryConfig::default();
        assert_eq!(cfg.every, TimeDelta::from_us(100));
        assert!(!cfg.deterministic_wall);
        const { assert!(SAMPLE_CAPACITY >= 1021, "paper preset must fit") };
        let c = TelemetryConfig::every(TimeDelta::from_us(50));
        assert_eq!(c.every, TimeDelta::from_us(50));
    }

    #[test]
    fn ring_fills_then_wraps_oldest_first() {
        let mut r = Ring::<i32, 3>::new(Vec::new());
        assert_eq!(r.len(), 0);
        for i in 0..5 {
            r.push(i);
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.iter().copied().collect::<Vec<_>>(), vec![2, 3, 4]);
        assert_eq!(r.latest(), Some(&4));
    }

    #[test]
    fn ring_under_capacity_keeps_order() {
        let mut r = Ring::<&str, 8>::new(Vec::new());
        r.push("a");
        r.push("b");
        assert_eq!(r.iter().copied().collect::<Vec<_>>(), vec!["a", "b"]);
        assert_eq!(r.latest(), Some(&"b"));
    }

    #[test]
    fn flight_seq_survives_eviction() {
        let mut t = tiny(TimeDelta::from_us(100));
        for i in 0..FLIGHT_CAPACITY as u64 + 2 {
            t.record_flight(Time(i), FlightKind::Mark, "sw0.p1", "0->3");
        }
        let dump = t.dump(Time(0), "test");
        assert_eq!(dump.events.len(), FLIGHT_CAPACITY);
        assert_eq!(dump.dropped, 2);
        assert_eq!(dump.recorded, FLIGHT_CAPACITY as u64 + 2);
        let seqs: Vec<u64> = t.flight_events().map(|e| e.seq).collect();
        assert_eq!(seqs[0], 2, "seq numbers survive eviction");
        assert_eq!(*seqs.last().unwrap(), FLIGHT_CAPACITY as u64 + 1);
    }

    #[test]
    fn flight_events_serialise() {
        let mut t = tiny(TimeDelta::from_us(100));
        t.record_flight(Time(1), FlightKind::Violation, "channel 3 VL 0", "credits");
        let ev = t.flight_events().next().unwrap();
        let v = serde::Serialize::to_value(ev);
        assert_eq!(
            v.get("kind").cloned(),
            Some(serde::Value::Str("Violation".into()))
        );
        assert_eq!(v.get("at_ps").cloned(), Some(serde::Value::U64(1)));
    }

    fn table() -> SampleTable {
        let mut t = SampleTable::new(vec!["a.rx".into(), "b.rx".into()]);
        t.push(0, &[1.0, 2.0]);
        t.push(100_000_000, &[3.5, 4.0]);
        t
    }

    #[test]
    fn csv_layout_and_series() {
        let t = table();
        let csv = t.to_csv();
        assert_eq!(csv, "t_us,a.rx,b.rx\n0,1,2\n100,3.5,4\n");
        assert_eq!(t.series("a.rx"), vec![1.0, 3.5]);
        assert_eq!(t.col("b.rx"), Some(1));
        assert!(t.series("missing").is_empty());
        assert_eq!(t.latest().unwrap().t_ps, 100_000_000);
    }

    #[test]
    fn ring_bounds_the_table() {
        let mut t = table();
        for i in 0..SAMPLE_CAPACITY as u64 {
            t.push(i, &[0.0, 0.0]);
        }
        assert_eq!(t.len(), SAMPLE_CAPACITY);
        assert_eq!(t.pushed, SAMPLE_CAPACITY as u64 + 2, "two rows evicted");
        assert_eq!(t.rows().next().unwrap().t_ps, 0, "oldest retained first");
        assert_eq!(t.latest().unwrap().t_ps, SAMPLE_CAPACITY as u64 - 1);
    }

    #[test]
    fn boundaries_start_at_zero() {
        let mut c = tiny(TimeDelta::from_us(100));
        assert!(c.due_at(Time::ZERO));
        assert_eq!(c.pop_boundary(), Time::ZERO);
        assert!(!c.due_at(Time::from_us(99)));
        assert!(c.due_at(Time::from_us(100)));
        assert!(!c.due_before(Time::from_us(100)));
        assert!(c.due_before(Time(Time::from_us(100).as_ps() + 1)));
    }

    proptest! {
        /// However a horizon is sliced into segments — catch-ups at
        /// arbitrary interior event times, a flush at each segment end —
        /// the total sample count is exactly floor(horizon/every) + 1.
        #[test]
        fn sample_count_is_floor_horizon_over_every_plus_one(
            every_ps in 1u64..5_000,
            horizon_ps in 0u64..1_000_000,
            cuts in proptest::collection::vec(0u64..1_000_000, 0..6),
        ) {
            let mut c = tiny(TimeDelta(every_ps));
            let mut got = Vec::new();
            let mut stops: Vec<u64> = cuts.into_iter().filter(|&t| t < horizon_ps).collect();
            stops.sort_unstable();
            for s in stops {
                // Mid-segment: an event at time s triggers catch-up.
                while c.due_before(Time(s)) {
                    got.push(c.pop_boundary());
                }
                // Segment boundary: run_until(s) flushes inclusively.
                while c.due_at(Time(s)) {
                    got.push(c.pop_boundary());
                }
            }
            while c.due_at(Time(horizon_ps)) {
                got.push(c.pop_boundary());
            }
            let expect = horizon_ps / every_ps + 1;
            prop_assert_eq!(got.len() as u64, expect);
            // Boundaries are exact multiples, strictly increasing.
            prop_assert!(got.windows(2).all(|w| w[0] < w[1]));
            prop_assert!(got.iter().all(|t| t.as_ps() % every_ps == 0));
        }
    }
}
