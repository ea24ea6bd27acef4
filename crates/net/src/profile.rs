//! Engine self-profiling: exact per-subsystem call counts plus sampled
//! wall-clock timing for the hot path, toggled by `--profile`.
//!
//! Each dispatched event is binned by the subsystem its event kind
//! belongs to (routing, VL arbitration, injection, sink, CC timers),
//! plus the queue-pop, telemetry-sampling, audit and
//! shard-barrier paths that run between events.
//!
//! **Counts are exact, timing is sampled.** Every pop and every
//! dispatch increments its bin's `calls` (one array add). The clock is
//! read only in every [`SAMPLE_PERIOD`]th batch a profiler sees — a
//! fixed stride, so the schedule is a pure function of the batch
//! sequence and never consults a simulation RNG.
//! Inside a timed batch the timestamps are *chained*: one read opens
//! the batch, one read closes each region (pop, dispatch₁, dispatch₂,
//! …), and each region's end is the next one's start. That is one read
//! per region with no untimed gaps between them; the loop bookkeeping
//! between two dispatches lands in the later one's bin.
//!
//! **Scaling and calibration.** A timed region costs more than the
//! same region untimed: it contains a clock read, the read drains the
//! out-of-order pipeline, and the timing path is cold after sixty
//! untimed batches. On the development box that overhead is 45–60 ns
//! per region in situ against 30 ns for back-to-back reads, and it
//! moves with the workload's cache behaviour, so a bench-top constant
//! left the bins 20–37 % over wall time. The profiler instead measures
//! the overhead in the run it describes: every call that runs a batch
//! loop is bracketed ([`EngineProfiler::run_begin`] /
//! [`EngineProfiler::run_end`], two reads per serial `run_until` or
//! shard window), and the per-region overhead `δ` is the one value for
//! which the scaled bins add up to the time those calls took:
//!
//! ```text
//! raw    = Σ_bins timed_ns × calls / timed_calls      (every region as if timed)
//! δ      = (raw − loop_ns) / (regions − clock reads made inside the loops)
//! ns     = (timed_ns − timed_calls × δ) × calls / timed_calls
//! ```
//!
//! The timed sample decides how the loop time *splits* between bins;
//! the brackets decide what it *adds up to*. [`ProfileReport::
//! coverage`] then says how much of `run_until` the bins account for:
//! near 1 on a serial run (what is missing is the timed batches' own
//! reads), and on a sharded run the shards' busy time over the
//! master's wall time.
//!
//! **Always timed.** Telemetry samples, audit passes and shard barriers
//! are rare and long, so every one is timed (`timed_calls == calls`)
//! with its own pair of reads and reported as measured; the chain and
//! the loop bracket both step over them.
//!
//! Profiling is strictly observational: it reads the monotonic clock
//! around work that already happens and never touches simulation
//! state, the event queue, or any RNG — a profile-on run is
//! byte-identical to a profile-off run for every simulation output.
//! When off it costs one `Option` branch per event.

use ibsim_engine::queue::LaneStats;
use serde::Serialize;
use std::time::Instant;

/// The engine subsystems the profiler attributes time to.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize)]
pub enum Subsystem {
    /// Event-queue batch extraction (`pop_batch_until`).
    QueuePop,
    /// Switch ingress: routing + VoQ enqueue (`SwArrive`).
    Routing,
    /// Switch output arbitration, credits, transmit (`SwTxDone`,
    /// `SwTryArb`, `SwCredit`).
    Arbitration,
    /// HCA injection: generator, shaper, credits (`HcaTxDone`,
    /// `HcaTrySend`, `HcaCredit`).
    Inject,
    /// HCA ingress + sink drain (`HcaArrive`, `SinkDone`).
    Sink,
    /// CC recovery timers (`CctiTick`).
    Cc,
    /// Telemetry boundary sampling.
    Telemetry,
    /// Invariant-oracle passes.
    Audit,
    /// Sharded-executor coordination: window barriers, replay, merge.
    Barrier,
}

pub const N_SUBSYSTEMS: usize = 9;

/// One batch in this many is timed. Prime, so the stride cannot lock
/// onto a power-of-two or decimal period in the event stream.
pub const SAMPLE_PERIOD: u32 = 61;

impl Subsystem {
    pub const ALL: [Subsystem; N_SUBSYSTEMS] = [
        Subsystem::QueuePop,
        Subsystem::Routing,
        Subsystem::Arbitration,
        Subsystem::Inject,
        Subsystem::Sink,
        Subsystem::Cc,
        Subsystem::Telemetry,
        Subsystem::Audit,
        Subsystem::Barrier,
    ];

    /// Timed on every call with its own pair of reads, rather than as
    /// one region of a sampled batch.
    pub fn always_timed(self) -> bool {
        matches!(
            self,
            Subsystem::Telemetry | Subsystem::Audit | Subsystem::Barrier
        )
    }

    pub fn name(self) -> &'static str {
        match self {
            Subsystem::QueuePop => "queue_pop",
            Subsystem::Routing => "routing",
            Subsystem::Arbitration => "arbitration",
            Subsystem::Inject => "inject",
            Subsystem::Sink => "sink",
            Subsystem::Cc => "cc",
            Subsystem::Telemetry => "telemetry",
            Subsystem::Audit => "audit",
            Subsystem::Barrier => "barrier",
        }
    }
}

/// Where the profiler reads time from: the monotonic clock in the
/// engine, a scripted counter in the unit tests.
pub trait Clock {
    /// Nanoseconds since an arbitrary fixed origin; never decreases.
    fn now_ns(&mut self) -> u64;
}

/// The host's monotonic clock, counted from when profiling was enabled.
#[derive(Clone, Debug)]
pub struct Monotonic(Instant);

impl Clock for Monotonic {
    #[inline]
    fn now_ns(&mut self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}

/// Per-subsystem exact call counts and sampled time.
#[derive(Clone, Debug)]
pub struct EngineProfiler<C: Clock = Monotonic> {
    clock: C,
    /// Every execution of the region, timed or not.
    calls: [u64; N_SUBSYSTEMS],
    /// Executions whose duration was measured.
    timed_calls: [u64; N_SUBSYSTEMS],
    /// Raw measured time over `timed_calls` (timing overhead included).
    timed_ns: [u64; N_SUBSYSTEMS],
    /// Batches left until the next timed one.
    countdown: u32,
    /// Whether the current batch is timed.
    sampling: bool,
    /// End of the last closed region in the current timed batch.
    mark: u64,
    /// Whether a batch loop is open.
    in_loop: bool,
    /// Start of the open batch loop, stepped over always-timed regions.
    loop_mark: u64,
    /// Host time inside batch loops, always-timed regions excluded.
    loop_ns: u64,
    /// Clock reads whose cost is part of `loop_ns`.
    loop_reads: u64,
    /// Start of the open `run_until` call.
    run_mark: u64,
    /// Host time spent inside `run_until` calls.
    wall_ns: u64,
    /// Insert counts of event queues that are gone: a sharded run's
    /// shard and window queues, and the master queue each merge
    /// replaces.
    queue: LaneStats,
}

impl EngineProfiler<Monotonic> {
    /// A profiler on the host's monotonic clock.
    pub fn new() -> Self {
        Self::with_clock(Monotonic(Instant::now()))
    }
}

impl Default for EngineProfiler<Monotonic> {
    fn default() -> Self {
        Self::new()
    }
}

impl<C: Clock> EngineProfiler<C> {
    /// Empty bins on `clock`. The first timed batch is the
    /// `SAMPLE_PERIOD`th, not the first: a run's opening batches touch
    /// everything cold, and scaling one of those up by the period would
    /// put start-up cost into every bin of a short run.
    pub fn with_clock(clock: C) -> Self {
        EngineProfiler {
            clock,
            calls: [0; N_SUBSYSTEMS],
            timed_calls: [0; N_SUBSYSTEMS],
            timed_ns: [0; N_SUBSYSTEMS],
            countdown: SAMPLE_PERIOD,
            sampling: false,
            mark: 0,
            in_loop: false,
            loop_mark: 0,
            loop_ns: 0,
            loop_reads: 0,
            run_mark: 0,
            wall_ns: 0,
            queue: LaneStats::default(),
        }
    }

    /// A profiler for one shard: empty bins and its own sampling
    /// schedule on the parent's clock.
    pub fn fork(&self) -> Self
    where
        C: Clone,
    {
        Self::with_clock(self.clock.clone())
    }

    /// Open a call that runs a batch loop on this profiler — a serial
    /// `run_until`, one shard window. Closed by [`Self::run_end`]; the
    /// two reads give [`ProfileReport::wall_ns`] and the loop time the
    /// bins must add up to.
    pub fn run_begin(&mut self) {
        self.in_loop = true;
        self.run_mark = self.clock.now_ns();
        self.loop_mark = self.run_mark;
    }

    /// Open a `run_until` whose batches run elsewhere (the master of a
    /// sharded run): wall time only.
    pub fn wall_begin(&mut self) {
        self.run_mark = self.clock.now_ns();
    }

    pub fn run_end(&mut self) {
        let now = self.clock.now_ns();
        self.wall_ns += now - self.run_mark;
        if self.in_loop {
            self.in_loop = false;
            self.loop_ns += now - self.loop_mark;
            self.loop_reads += 1;
        }
    }

    /// Open a batch, before its queue pop: decide whether this batch is
    /// timed and, if so, start the timestamp chain. Every region of the
    /// batch then closes with [`Self::lap`].
    #[inline]
    pub fn begin_batch(&mut self) {
        self.countdown -= 1;
        self.sampling = self.countdown == 0;
        if self.sampling {
            self.countdown = SAMPLE_PERIOD;
            self.mark = self.clock.now_ns();
            self.loop_reads += 1;
        }
    }

    /// Close one region of the current batch into `s`: always counted,
    /// timed (from the previous region's end) when the batch is.
    #[inline]
    pub fn lap(&mut self, s: Subsystem) {
        let i = s as usize;
        self.calls[i] += 1;
        if self.sampling {
            let now = self.clock.now_ns();
            self.timed_calls[i] += 1;
            self.timed_ns[i] += now - self.mark;
            self.mark = now;
            self.loop_reads += 1;
        }
    }

    /// Start an always-timed region (telemetry sample, audit pass,
    /// shard barrier); hand the result to [`Self::stop`].
    #[inline]
    pub fn start(&mut self) -> u64 {
        self.clock.now_ns()
    }

    /// Close an always-timed region opened at `t0` into `s`. Inside a
    /// batch loop, the open chain and the loop bracket step over it so
    /// neither counts it a second time (the coordinator's barriers run
    /// outside any loop).
    pub fn stop(&mut self, s: Subsystem, t0: u64) {
        let i = s as usize;
        let dur = self.clock.now_ns() - t0;
        self.calls[i] += 1;
        self.timed_calls[i] += 1;
        self.timed_ns[i] += dur;
        if self.in_loop {
            self.mark += dur;
            self.loop_mark += dur;
            self.loop_reads += 1;
        }
    }

    /// Fold a shard profiler's bins and loop time into this one. Pure
    /// sums: the scaling happens on the pooled totals at report time.
    pub fn merge(&mut self, other: &EngineProfiler<C>) {
        for i in 0..N_SUBSYSTEMS {
            self.calls[i] += other.calls[i];
            self.timed_calls[i] += other.timed_calls[i];
            self.timed_ns[i] += other.timed_ns[i];
        }
        self.loop_ns += other.loop_ns;
        self.loop_reads += other.loop_reads;
    }

    /// Keep the insert counts of a queue about to be reset or replaced.
    pub fn absorb_queue(&mut self, stats: LaneStats) {
        self.queue.absorb(stats);
    }

    pub fn calls(&self, s: Subsystem) -> u64 {
        self.calls[s as usize]
    }

    /// `s`'s timed mean scaled to every call, overhead still included.
    /// Zero when none of the bin's calls fell in a timed batch.
    fn raw_ns(&self, s: Subsystem) -> f64 {
        let i = s as usize;
        if self.timed_calls[i] == 0 {
            return 0.0;
        }
        self.timed_ns[i] as f64 * self.calls[i] as f64 / self.timed_calls[i] as f64
    }

    /// The measured cost of timing one region (`δ` in the module doc):
    /// what every sampled region would have to shed for the bins to add
    /// up to the time the batch loops took.
    pub fn region_overhead_ns(&self) -> f64 {
        let sampled = || Subsystem::ALL.iter().filter(|s| !s.always_timed());
        let raw: f64 = sampled().map(|&s| self.raw_ns(s)).sum();
        let regions: u64 = sampled()
            .filter(|&&s| self.timed_calls[s as usize] > 0)
            .map(|&s| self.calls[s as usize])
            .sum();
        let untimed = regions.saturating_sub(self.loop_reads);
        if untimed == 0 {
            return 0.0;
        }
        ((raw - self.loop_ns as f64) / untimed as f64).max(0.0)
    }

    /// Estimated time in `s` over all of its calls.
    pub fn ns(&self, s: Subsystem) -> u64 {
        self.ns_with(s, self.region_overhead_ns())
    }

    fn ns_with(&self, s: Subsystem, overhead: f64) -> u64 {
        let i = s as usize;
        if s.always_timed() || self.timed_calls[i] == 0 {
            return self.timed_ns[i];
        }
        (self.raw_ns(s) - overhead * self.calls[i] as f64)
            .max(0.0)
            .round() as u64
    }

    /// Build the serializable breakdown. `events` is the engine's
    /// processed-event count for the run, so the report can state an
    /// overall ns/event next to the per-subsystem shares; `queue` is
    /// the live event queue's insert counts, reported together with
    /// those absorbed from queues that are gone.
    pub fn report(&self, events: u64, mut queue: LaneStats) -> ProfileReport {
        queue.absorb(self.queue);
        let overhead = self.region_overhead_ns();
        let ns = Subsystem::ALL.map(|s| self.ns_with(s, overhead));
        let total_ns: u64 = ns.iter().sum();
        let ratio = |num: u64, den: u64| {
            if den > 0 {
                num as f64 / den as f64
            } else {
                0.0
            }
        };
        let bins = Subsystem::ALL
            .iter()
            .zip(ns)
            .map(|(&s, ns)| {
                let i = s as usize;
                ProfileBin {
                    subsystem: s.name(),
                    calls: self.calls[i],
                    timed_calls: self.timed_calls[i],
                    ns,
                    ns_per_call: ratio(ns, self.calls[i]),
                    share: ratio(ns, total_ns),
                }
            })
            .collect();
        ProfileReport {
            events,
            sample_period: SAMPLE_PERIOD,
            region_overhead_ns: overhead,
            total_ns,
            wall_ns: self.wall_ns,
            coverage: ratio(total_ns, self.wall_ns),
            ns_per_event: ratio(total_ns, events),
            bins,
            queue,
        }
    }
}

/// One subsystem's row in the per-run JSON breakdown.
#[derive(Clone, Debug, Serialize)]
pub struct ProfileBin {
    pub subsystem: &'static str,
    /// Exact: every execution of the region.
    pub calls: u64,
    /// How many of `calls` were timed (all of them for telemetry, audit
    /// and barrier; about one in `sample_period` for the rest).
    pub timed_calls: u64,
    /// Estimated time over all `calls`, scaled from the timed ones.
    pub ns: u64,
    pub ns_per_call: f64,
    /// Fraction of the total profiled time.
    pub share: f64,
}

/// The per-run JSON document `--profile` writes.
#[derive(Clone, Debug, Serialize)]
pub struct ProfileReport {
    /// Events the engine processed over the profiled run.
    pub events: u64,
    /// One batch in this many had its pop and dispatches timed.
    pub sample_period: u32,
    /// What timing a region cost, measured in this run and subtracted
    /// from every timed call before scaling (see the module doc).
    pub region_overhead_ns: f64,
    /// Sum over all subsystem bins.
    pub total_ns: u64,
    /// Host time inside `run_until` calls, read twice per call.
    pub wall_ns: u64,
    /// `total_ns / wall_ns`: how much of the run the bins account for.
    /// Near 1 on a serial run; up to the shard count on a threaded one,
    /// whose bins add up busy time across threads.
    pub coverage: f64,
    pub ns_per_event: f64,
    pub bins: Vec<ProfileBin>,
    /// Exact event-queue insert counts over every queue the run used
    /// (a sharded run files an event twice: window list, then the
    /// shard's queue): how many were appended to a FIFO lane, how many
    /// took the fallback heap, and the most lanes any one queue had
    /// claimed.
    pub queue: LaneStats,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A scripted clock: every read costs `read_ns` (spent before the
    /// value is taken), and the test moves time forward by the cost of
    /// the work it pretends to do.
    #[derive(Clone, Debug)]
    struct FakeClock {
        now: u64,
        read_ns: u64,
    }

    impl Clock for FakeClock {
        fn now_ns(&mut self) -> u64 {
            self.now += self.read_ns;
            self.now
        }
    }

    fn fake(read_ns: u64) -> EngineProfiler<FakeClock> {
        EngineProfiler::with_clock(FakeClock { now: 0, read_ns })
    }

    impl EngineProfiler<FakeClock> {
        fn work(&mut self, ns: u64) {
            self.clock.now += ns;
        }
    }

    const POP: u64 = 40;
    const ROUTE: u64 = 90;
    const ARB: u64 = 130;

    /// One batch: a pop, then `n` routing + `n` arbitration dispatches.
    fn batch(p: &mut EngineProfiler<FakeClock>, n: usize) {
        p.begin_batch();
        p.work(POP);
        p.lap(Subsystem::QueuePop);
        for _ in 0..n {
            p.work(ROUTE);
            p.lap(Subsystem::Routing);
            p.work(ARB);
            p.lap(Subsystem::Arbitration);
        }
    }

    fn bin<'a>(r: &'a ProfileReport, name: &str) -> &'a ProfileBin {
        r.bins.iter().find(|b| b.subsystem == name).unwrap()
    }

    #[test]
    fn sampled_bins_reconstruct_known_costs_exactly() {
        let mut p = fake(25);
        let batches = 10 * SAMPLE_PERIOD as u64 + 7;
        p.run_begin();
        for _ in 0..batches {
            batch(&mut p, 3);
        }
        p.run_end();
        let r = p.report(batches * 6, LaneStats::default());
        // Counts are exact; every 61st batch was timed.
        assert_eq!(bin(&r, "queue_pop").calls, batches);
        assert_eq!(bin(&r, "queue_pop").timed_calls, 10);
        assert_eq!(bin(&r, "routing").calls, batches * 3);
        assert_eq!(bin(&r, "routing").timed_calls, 30);
        // The loop bracket recovers what a timed region cost extra —
        // the scripted read — and with it subtracted, the scripted
        // per-call costs come out to the nanosecond.
        assert_eq!(r.region_overhead_ns, 25.0);
        assert_eq!(bin(&r, "queue_pop").ns, batches * POP);
        assert_eq!(bin(&r, "routing").ns, batches * 3 * ROUTE);
        assert_eq!(bin(&r, "arbitration").ns, batches * 3 * ARB);
        assert_eq!(bin(&r, "routing").ns_per_call, ROUTE as f64);
        assert_eq!(r.sample_period, SAMPLE_PERIOD);
        assert_eq!(r.total_ns, batches * (POP + 3 * (ROUTE + ARB)));
        // The timed batches' reads are in the wall time, not the bins.
        assert!(r.total_ns < r.wall_ns);
        assert!(r.coverage > 0.99 && r.coverage < 1.0);
    }

    #[test]
    fn always_timed_regions_are_exact_and_stepped_over() {
        let mut p = fake(25);
        p.run_begin();
        for _ in 1..SAMPLE_PERIOD {
            p.begin_batch();
        }
        // A timed batch with an audit pass inside it.
        p.begin_batch();
        assert!(p.sampling);
        p.work(POP);
        p.lap(Subsystem::QueuePop);
        p.work(ROUTE);
        let t0 = p.start();
        p.work(5_000);
        p.stop(Subsystem::Audit, t0);
        p.lap(Subsystem::Routing);
        // An un-timed batch: the audit pass is still timed.
        p.begin_batch();
        assert!(!p.sampling);
        p.lap(Subsystem::QueuePop);
        let t0 = p.start();
        p.work(7_000);
        p.stop(Subsystem::Audit, t0);
        p.run_end();
        // A barrier outside any loop touches neither chain nor bracket.
        let (loop_ns, loop_reads) = (p.loop_ns, p.loop_reads);
        let t0 = p.start();
        p.work(300);
        p.stop(Subsystem::Barrier, t0);
        assert_eq!((p.loop_ns, p.loop_reads), (loop_ns, loop_reads));

        // Each always-timed call is reported as measured: its work
        // plus the one read between its two timestamps.
        assert_eq!(p.calls(Subsystem::Audit), 2);
        assert_eq!(p.timed_calls[Subsystem::Audit as usize], 2);
        assert_eq!(p.ns(Subsystem::Audit), 5_025 + 7_025);
        assert_eq!(p.ns(Subsystem::Barrier), 325);
        // The routing lap enclosed the first pass and did not count
        // it: the region's work and the reads either side remain.
        assert_eq!(p.timed_ns[Subsystem::Routing as usize], ROUTE + 2 * 25);
        // Nor did the loop bracket: it holds the two regions' work and
        // the six reads (begin, lap, stop, lap, stop, end) left in it.
        assert_eq!(p.loop_ns, POP + ROUTE + 6 * 25);
        assert_eq!(p.loop_reads, 6);
    }

    #[test]
    fn shard_bins_pool_before_scaling() {
        let mut master = fake(10);
        let mut a = master.fork();
        let mut b = master.fork();
        a.run_begin();
        for _ in 0..SAMPLE_PERIOD {
            batch(&mut a, 1);
        }
        a.run_end();
        // Two windows on the second shard.
        for _ in 0..2 {
            b.run_begin();
            for _ in 0..SAMPLE_PERIOD {
                batch(&mut b, 2);
            }
            b.run_end();
        }
        master.merge(&a);
        master.merge(&b);
        let n = SAMPLE_PERIOD as u64;
        assert_eq!(master.calls(Subsystem::QueuePop), 3 * n);
        assert_eq!(master.calls(Subsystem::Routing), 5 * n);
        assert_eq!(master.region_overhead_ns(), 10.0);
        assert_eq!(master.ns(Subsystem::Routing), 5 * n * ROUTE);
        let r = master.report(0, LaneStats::default());
        assert_eq!(r.total_ns, 3 * n * POP + 5 * n * (ROUTE + ARB));
    }

    #[test]
    fn report_shares_sum_to_one_and_serialise() {
        let mut p = fake(0);
        p.run_begin();
        for _ in 0..SAMPLE_PERIOD {
            batch(&mut p, 1);
        }
        p.run_end();
        let r = p.report(10, LaneStats::default());
        let sum: f64 = r.bins.iter().map(|b| b.share).sum();
        assert!((sum - 1.0).abs() < 1e-9);
        assert_eq!(r.bins.len(), N_SUBSYSTEMS);
        assert!(r.bins.iter().all(|b| b.timed_calls <= b.calls));
        // An untouched bin reports zeros, not NaN; so does a profiler
        // that never ran.
        let cc = bin(&r, "cc");
        assert_eq!((cc.calls, cc.ns, cc.ns_per_call), (0, 0, 0.0));
        let idle = fake(5).report(0, LaneStats::default());
        assert_eq!((idle.coverage, idle.ns_per_event), (0.0, 0.0));
        // Serialises (the harness writes this as profile_{label}.json).
        let doc = serde_json::to_string(&r).unwrap();
        assert!(doc.contains("queue_pop") && doc.contains("sample_period"));
    }
}
