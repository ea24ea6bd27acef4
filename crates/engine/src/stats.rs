//! Measurement primitives.
//!
//! Simulations measure two kinds of quantities:
//!
//! * event counts and byte counts over a *measurement window* (warmup
//!   excluded) — [`RateMeter`];
//! * distributions of per-packet quantities such as end-to-end latency —
//!   [`Histogram`] (log-spaced bins).

use crate::time::{rate_gbps, Time, TimeDelta};
use serde::{Deserialize, Serialize};

/// Serializable image of a [`RateMeter`] (checkpoint/restore).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RateMeterState {
    pub window_start: Option<Time>,
    pub window_end: Option<Time>,
    pub bytes: u64,
    pub packets: u64,
}

/// Serializable image of a [`Histogram`] (checkpoint/restore).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct HistogramState {
    pub bins: Vec<u64>,
    pub count: u64,
    pub sum: u128,
    pub min: u64,
    pub max: u64,
}

/// Counts bytes (and packets) delivered inside a measurement window.
#[derive(Clone, Debug, Default)]
pub struct RateMeter {
    window_start: Option<Time>,
    window_end: Option<Time>,
    bytes: u64,
    packets: u64,
}

impl RateMeter {
    pub fn new() -> Self {
        Self::default()
    }

    /// Open the measurement window at `t`; samples before it are ignored.
    pub fn start_window(&mut self, t: Time) {
        self.window_start = Some(t);
        self.window_end = None;
        self.bytes = 0;
        self.packets = 0;
    }

    /// Close the window at `t`; samples after it are ignored.
    pub fn end_window(&mut self, t: Time) {
        self.window_end = Some(t);
    }

    #[inline]
    fn in_window(&self, t: Time) -> bool {
        match self.window_start {
            None => false,
            Some(s) => t >= s && self.window_end.is_none_or(|e| t < e),
        }
    }

    /// Is `t` inside the measurement window?
    #[inline]
    pub fn is_open(&self, t: Time) -> bool {
        self.in_window(t)
    }

    /// Record a delivery of `bytes` at time `t`.
    #[inline]
    pub fn record(&mut self, t: Time, bytes: u64) {
        if self.in_window(t) {
            self.bytes += bytes;
            self.packets += 1;
        }
    }

    pub fn bytes(&self) -> u64 {
        self.bytes
    }
    pub fn packets(&self) -> u64 {
        self.packets
    }

    /// Elapsed window at time `now` (or full window if already closed).
    pub fn window(&self, now: Time) -> TimeDelta {
        match self.window_start {
            None => TimeDelta::ZERO,
            Some(s) => self.window_end.unwrap_or(now).saturating_since(s),
        }
    }

    /// Average rate over the window in Gbit/s, evaluated at `now`.
    pub fn gbps(&self, now: Time) -> f64 {
        rate_gbps(self.bytes, self.window(now))
    }

    /// Export the meter's complete state (checkpoint/restore).
    pub fn state(&self) -> RateMeterState {
        RateMeterState {
            window_start: self.window_start,
            window_end: self.window_end,
            bytes: self.bytes,
            packets: self.packets,
        }
    }

    /// Rebuild a meter from an exported state.
    pub fn from_state(s: RateMeterState) -> Self {
        RateMeter {
            window_start: s.window_start,
            window_end: s.window_end,
            bytes: s.bytes,
            packets: s.packets,
        }
    }
}

/// Log₂-spaced histogram of u64 samples (e.g. latency in picoseconds).
///
/// Bin `i` covers `[2^i, 2^(i+1))`; bin 0 also absorbs the value 0.
#[derive(Clone, Debug)]
pub struct Histogram {
    bins: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    pub fn new() -> Self {
        Histogram {
            bins: vec![0; 64],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// A histogram with no bins, for a slot that never records: it
    /// allocates nothing, reads as empty, and panics on [`record`].
    ///
    /// [`record`]: Histogram::record
    pub fn unallocated() -> Self {
        Histogram {
            bins: Vec::new(),
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    #[inline]
    pub fn record(&mut self, v: u64) {
        let bin = 63u32.saturating_sub(v.max(1).leading_zeros()) as usize;
        self.bins[bin] += 1;
        self.count += 1;
        self.sum += v as u128;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    pub fn count(&self) -> u64 {
        self.count
    }
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Approximate quantile using the bin upper bounds (q in `[0,1]`).
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &c) in self.bins.iter().enumerate() {
            seen += c;
            if seen >= target {
                // Upper bound of this bin, clamped to the observed max.
                let hi = if i >= 63 {
                    u64::MAX
                } else {
                    (1u64 << (i + 1)) - 1
                };
                return Some(hi.min(self.max));
            }
        }
        Some(self.max)
    }

    /// Export the histogram's complete state (checkpoint/restore).
    pub fn state(&self) -> HistogramState {
        HistogramState {
            bins: self.bins.clone(),
            count: self.count,
            sum: self.sum,
            min: self.min,
            max: self.max,
        }
    }

    /// Rebuild a histogram from an exported state. The bin layout is
    /// structural (64 log₂ bins): a state with any other bin count is
    /// corrupt, and would index out of bounds on the next `record`.
    pub fn from_state(s: HistogramState) -> Result<Self, String> {
        if s.bins.len() != 64 {
            return Err(format!("histogram has {} bins, expected 64", s.bins.len()));
        }
        Ok(Histogram {
            bins: s.bins,
            count: s.count,
            sum: s.sum,
            min: s.min,
            max: s.max,
        })
    }

    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.bins.iter_mut().zip(&other.bins) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        if other.count > 0 {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
    }
}

/// Engine self-metrics: how fast the simulator itself is running.
/// Feed it the event counter and the simulated clock at each sampling
/// boundary; each [`RunMeter::lap`] reports the deltas since the last
/// one plus wall-clock derived rates (events/sec, wall time burned per
/// simulated second). Wall time never feeds back into the simulation —
/// it only rides along in telemetry output.
#[derive(Clone, Debug)]
pub struct RunMeter {
    wall: std::time::Instant,
    events: u64,
    sim: Time,
}

/// One lap's deltas and rates.
#[derive(Clone, Copy, Debug)]
pub struct RunLap {
    /// Events processed since the previous lap.
    pub events: u64,
    /// Wall-clock seconds elapsed since the previous lap.
    pub wall_secs: f64,
    /// Simulated time elapsed since the previous lap.
    pub sim: TimeDelta,
}

impl RunMeter {
    /// Start measuring from the given counters.
    pub fn start(events: u64, sim: Time) -> Self {
        RunMeter {
            wall: std::time::Instant::now(),
            events,
            sim,
        }
    }

    /// The current lap's starting counters `(events, sim)` — the
    /// deterministic half of the meter (the wall-clock anchor is not).
    pub fn baseline(&self) -> (u64, Time) {
        (self.events, self.sim)
    }

    /// Close the current lap and start the next one.
    pub fn lap(&mut self, events: u64, sim: Time) -> RunLap {
        let now = std::time::Instant::now();
        let lap = RunLap {
            events: events.saturating_sub(self.events),
            wall_secs: now.duration_since(self.wall).as_secs_f64(),
            sim: TimeDelta(sim.as_ps().saturating_sub(self.sim.as_ps())),
        };
        self.wall = now;
        self.events = events;
        self.sim = sim;
        lap
    }
}

impl RunLap {
    /// Events dispatched per wall-clock second (0 on an empty lap).
    pub fn events_per_sec(&self) -> f64 {
        if self.wall_secs <= 0.0 {
            return 0.0;
        }
        self.events as f64 / self.wall_secs
    }

    /// Wall-clock milliseconds burned per simulated millisecond
    /// (0 when no simulated time passed).
    pub fn wall_ms_per_sim_ms(&self) -> f64 {
        let sim_ms = self.sim.as_ps() as f64 / 1e9;
        if sim_ms <= 0.0 {
            return 0.0;
        }
        self.wall_secs * 1e3 / sim_ms
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_meter_laps_report_deltas() {
        let mut m = RunMeter::start(100, Time(0));
        let lap = m.lap(1_100, Time::from_ms(2));
        assert_eq!(lap.events, 1_000);
        assert_eq!(lap.sim, TimeDelta::from_ms(2));
        assert!(lap.wall_secs >= 0.0);
        assert!(lap.events_per_sec() >= 0.0);
        assert!(lap.wall_ms_per_sim_ms() >= 0.0);
        // Second lap starts from the new baseline.
        let lap2 = m.lap(1_100, Time::from_ms(2));
        assert_eq!(lap2.events, 0);
        assert_eq!(lap2.sim, TimeDelta(0));
        assert_eq!(lap2.wall_ms_per_sim_ms(), 0.0);
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn an_unallocated_histogram_reads_empty_and_refuses_a_sample() {
        let mut h = Histogram::unallocated();
        assert_eq!((h.count(), h.quantile(0.5)), (0, None));
        h.record(1);
    }

    #[test]
    fn rate_meter_ignores_outside_window() {
        let mut m = RateMeter::new();
        m.record(Time(10), 100); // before window opens: ignored
        m.start_window(Time(100));
        m.record(Time(50), 100); // still before start: ignored
        m.record(Time(100), 200);
        m.record(Time(150), 300);
        m.end_window(Time(200));
        m.record(Time(250), 400); // after end: ignored
        assert_eq!(m.bytes(), 500);
        assert_eq!(m.packets(), 2);
        assert_eq!(m.window(Time(999)), TimeDelta(100));
    }

    #[test]
    fn rate_meter_gbps() {
        let mut m = RateMeter::new();
        m.start_window(Time::ZERO);
        // 125 bytes over 1 ns = 1000 bits / 1e-9 s = 1000 Gbit/s.
        m.record(Time(0), 125);
        let g = m.gbps(Time(1000));
        assert!((g - 1000.0).abs() < 1e-9, "{g}");
    }

    #[test]
    fn histogram_basics() {
        let mut h = Histogram::new();
        for v in [1u64, 2, 3, 4, 1000, 0] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(1000));
        assert!((h.mean() - (1010.0 / 6.0)).abs() < 1e-9);
    }

    #[test]
    fn histogram_quantiles_monotone() {
        let mut h = Histogram::new();
        for v in 1..=1024u64 {
            h.record(v);
        }
        let q50 = h.quantile(0.5).unwrap();
        let q99 = h.quantile(0.99).unwrap();
        assert!(q50 <= q99);
        assert!((256..=1023).contains(&q50), "{q50}");
        assert_eq!(h.quantile(1.0), Some(1024));
        assert!(Histogram::new().quantile(0.5).is_none());
    }

    #[test]
    fn histogram_merge() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(5);
        b.record(500);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.min(), Some(5));
        assert_eq!(a.max(), Some(500));
    }

    #[test]
    fn histogram_state_round_trips_and_rejects_bad_bins() {
        let mut h = Histogram::new();
        h.record(77);
        let back = Histogram::from_state(h.state()).unwrap();
        assert_eq!(back.state(), h.state());
        let mut s = h.state();
        s.bins.truncate(3);
        let err = Histogram::from_state(s).unwrap_err();
        assert!(err.contains("3 bins"), "{err}");
    }
}
