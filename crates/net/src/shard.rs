//! The sharded parallel DES executor: conservative time windows over a
//! leaf-group fabric partition, pinned **byte-for-byte** to the serial
//! engine.
//!
//! # How the serial event stream is reproduced exactly
//!
//! The fabric is split at leaf-switch-group boundaries
//! ([`ibsim_topo::partition_leaf_groups`]): each shard owns a block of
//! leaf switches, their HCAs, and a round-robin share of the spines.
//! Every cross-shard edge is an inter-switch (or spine↔leaf) cable, so
//! any event one shard schedules onto another lies at least one link
//! latency in the future — that minimum latency is the executor's
//! *lookahead* `L`. All shards therefore advance independently through
//! a window `(w₀, w₁]` with `w₁ = min(target, gmin + L − 1)` where
//! `gmin` is the earliest pending event anywhere: events generated
//! during the window for a foreign shard land strictly after `w₁` and
//! are exchanged at the barrier.
//!
//! Determinism is the hard part. The serial engine's observable state
//! (checkpoints, goldens, CSVs) depends on the *global* `(time, seq)`
//! event order, and `seq` is assigned in dispatch order — which the
//! parallel run does not follow. The executor reconstructs it exactly:
//!
//! * Inside a window a shard gives every newly scheduled event a
//!   **provisional key** `PROV_BASE + k` (`k` a per-shard counter).
//!   `PROV_BASE = 1 << 62` exceeds any real sequence number, so at
//!   equal times provisional events pop after all pre-window events —
//!   exactly where the serial engine's higher sequence numbers would
//!   have put them.
//! * Every dispatch is logged as `(time, key, n_sched)`. At the
//!   barrier the coordinator **replays** the per-shard logs in global
//!   `(time, true-key)` order — a deterministic merge that depends
//!   only on the logs, never on thread timing — assigning each
//!   provisional event the true sequence number the serial engine
//!   would have used, and stepping the audit cadence event-exactly.
//! * Each shard then relabels its window-local events with the agreed
//!   keys and installs cross-shard arrivals before the next window.
//!
//! At [`Network::run_until`]'s end the shards merge back into the
//! master: devices swap home, per-shard packet arenas drain into the
//! master pool (a shard arena with a packet left over is a leak, and
//! one freed twice trips the generation check — the `pool-paranoid`
//! feature keeps that oracle in release builds), queues concatenate
//! under their true keys, and fault statistics and audit ledgers —
//! all pure per-event sums — add element-wise. The resulting
//! [`Network::checkpoint`] is byte-identical to the serial engine's at
//! every window boundary.
//!
//! # How the serial *observation* stream is reproduced exactly
//!
//! Telemetry, tracing and profiling all ride the same replay:
//!
//! * **Trace records and flight notes** are captured on the shards
//!   (each shard carries a flow-filter clone of the master tracer and
//!   a plain [`ObsBuf`] for flight tuples) and tagged per dispatch by
//!   [`DispatchRec::n_trace`]/[`DispatchRec::n_flight`]. The replay
//!   copies them into the master streams in global `(time, true-key)`
//!   order — the exact order the serial loop would have captured them
//!   in — and synthesizes the serial loop's per-audit-pass flight note
//!   at each cadence crossing.
//! * **Telemetry samples** read barrier-consistent global state. The
//!   serial loop samples a boundary `b` lazily, when the first batch
//!   with time `> b` pops: the coordinator reproduces that by capping
//!   every window at the next unconsumed boundary and sampling due
//!   boundaries between windows through a [`FabricView`] assembled
//!   across the shard guards (same counters: `events + 1` and
//!   `depth − 1` mid-run for the already-extracted head event, plain
//!   totals at the final flush).
//! * **Profiler bins** are pure sums: each shard records into its own
//!   [`EngineProfiler`] and the bins fold into the master's at the
//!   merge, with coordination itself attributed to
//!   [`Subsystem::Barrier`].
//!
//! # What falls back to the serial loop
//!
//! * **BECN-loss fault windows** — `drop_becn` draws from one shared
//!   RNG stream in global CNP-arrival order ([`Network::set_shards`]
//!   declines to install). Every other fault family (flap, pause,
//!   drift) is per-device or consulted lazily by time and shards
//!   cleanly.

use crate::network::{Dev, Ev, Event, Network};
use crate::profile::{EngineProfiler, Subsystem};
use crate::state::EventState;
use crate::telemetry::{FabricView, FlightKind, NetTelemetry};
use crate::trace::Tracer;
use crate::NetAudit;
use ibsim_engine::queue::EventQueue;
use ibsim_engine::time::Time;
use ibsim_engine::QueueSnapshot;
use ibsim_faults::{FaultAction, FaultStats};
use ibsim_topo::{partition_leaf_groups, Topology};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Provisional keys start here: above every true sequence number a
/// simulation can reach, so at equal times window-local events sort
/// after all pre-window events — the order serial seq assignment gives.
pub(crate) const PROV_BASE: u64 = 1 << 62;

/// Device → shard lookup tables, shared by the master's executor and
/// every shard's router.
#[derive(Clone)]
pub(crate) struct OwnerMap {
    pub sw: Arc<Vec<u32>>,
    pub hca: Arc<Vec<u32>>,
    /// Per channel: the shard of the channel's *destination* device
    /// (arrivals dispatch where the receiver lives).
    pub ch: Arc<Vec<u32>>,
    /// Per fault-schedule transition: the affected HCA's shard for
    /// pause/resume/drift, shard 0 for pure-bookkeeping transitions.
    pub fault: Arc<Vec<u32>>,
}

impl OwnerMap {
    pub(crate) fn owner_of(&self, ev: &Event) -> u32 {
        match *ev {
            Event::SwArrive { ch, .. } | Event::HcaArrive { ch, .. } => self.ch[ch as usize],
            Event::SwTxDone { sw, .. } | Event::SwTryArb { sw, .. } | Event::SwCredit { sw, .. } => {
                self.sw[sw as usize]
            }
            Event::HcaTxDone { hca }
            | Event::HcaTrySend { hca }
            | Event::HcaCredit { hca, .. }
            | Event::SinkDone { hca }
            | Event::CctiTick { hca } => self.hca[hca as usize],
            Event::Fault { idx } => self.fault[idx as usize],
            // PFC frames are ordinary events: they cross shard
            // boundaries through the same outbox/replay machinery as
            // packets and credits.
            Event::PfcSw { sw, .. } => self.sw[sw as usize],
            Event::PfcHca { hca, .. } => self.hca[hca as usize],
        }
    }
}

/// One event bound for another shard, carried by value (the packet, if
/// any, leaves the sender's arena and re-allocates in the receiver's).
pub(crate) struct OutMsg {
    pub at: Time,
    /// `at` minus the time of the dispatch that scheduled the event:
    /// the lane hint the receiving queue files it under.
    pub delta: u64,
    /// The provisional index the sender allocated; the coordinator
    /// resolves it to the true sequence number before delivery.
    pub prov: u64,
    pub target: u32,
    pub ev: EventState,
}

/// One dispatched event, as the coordinator's replay sees it.
#[derive(Clone, Copy)]
pub(crate) struct DispatchRec {
    pub at: Time,
    /// True sequence number, or `PROV_BASE + prov` for events scheduled
    /// earlier in the same window.
    pub key: u64,
    /// How many events this dispatch scheduled (provisional indices are
    /// allocated contiguously, so the replay can assign their true
    /// sequence numbers without recording each one).
    pub n_sched: u32,
    /// Trace records this dispatch appended to the shard tracer — the
    /// replay copies exactly this many into the master tracer when it
    /// reaches this dispatch, reproducing serial capture order.
    pub n_trace: u16,
    /// Flight notes this dispatch appended to the shard's [`ObsBuf`].
    pub n_flight: u16,
}

/// Shard-side flight-note buffer: dispatch-order tuples the replay
/// copies into the master [`NetTelemetry`]'s recorder under their true
/// global order. Exists iff the master has telemetry on.
pub(crate) struct ObsBuf {
    /// Timestamp of the batch currently dispatching. The shard's main
    /// queue clock goes stale for window-queue pops, so
    /// [`Network::run_window`] pins this per batch and
    /// [`Network::flight_note`] stamps notes with it.
    pub now: Time,
    pub flight: Vec<(Time, FlightKind, String, String)>,
}

impl ObsBuf {
    pub(crate) fn new() -> Self {
        ObsBuf {
            now: Time(0),
            flight: Vec::new(),
        }
    }
}

/// The master's instruments, taken out of the network for the duration
/// of a sharded drive: the coordinator samples and merges into them at
/// every window barrier, while holding all shard locks.
pub(crate) struct MasterObs<'a> {
    pub tel: Option<&'a mut NetTelemetry>,
    pub trc: Option<&'a mut Tracer>,
    pub prof: Option<&'a mut EngineProfiler>,
}

/// Event-routing overlay installed on each *shard* network. While
/// present, [`Network::sched`] diverts newly scheduled events here
/// instead of the main queue.
pub(crate) struct ShardRoute {
    pub my: u32,
    pub owners: OwnerMap,
    /// Window-local events due *inside* the current window (provisional
    /// keys): these can pop before the barrier, so they need a real
    /// priority queue.
    pub win: EventQueue<Ev>,
    /// Window-local events due *after* the current window end: they
    /// cannot pop before the barrier, so they skip the queue and wait
    /// here for relabelling — one Vec push instead of a queue insert
    /// and drain, and it is most of the event traffic (anything a link
    /// latency or more out lands past the window by construction).
    /// `(at, provisional index, at − dispatch time, event)`.
    pub later: Vec<(Time, u64, u64, Ev)>,
    /// End of the window currently running, the `win`/`later` boundary.
    pub w_end: Time,
    /// Timestamp of the batch currently dispatching, pinned by
    /// [`Network::run_window`] like [`ObsBuf::now`]. An event's distance
    /// from it is the model delay that produced the event, and travels
    /// with the provisional key as the lane hint: by the time the true
    /// key is known the queue's own clock says nothing about it.
    pub now: Time,
    /// Next provisional index (reset every window).
    pub prov: u64,
    pub outbox: Vec<OutMsg>,
    pub log: Vec<DispatchRec>,
    /// Provisional index → true sequence number, written by the
    /// coordinator's replay of this window's logs.
    pub map: Vec<u64>,
    /// Cross-shard arrivals `(at, true key, lane hint, event)`,
    /// installed at the next window prologue.
    pub inbox: Vec<(Time, u64, u64, EventState)>,
}

/// Lane hint of a cross-shard arrival: each sender's events of one
/// delay are a monotone stream, two senders' interleaved are not, so
/// the sender is part of the hint (deltas stay far below 2^48 ps).
fn foreign_hint(delta: u64, from: usize) -> u64 {
    delta | (from as u64 + 1) << 48
}

impl ShardRoute {
    #[inline]
    pub(crate) fn owner_of(&self, ev: &Event) -> u32 {
        self.owners.owner_of(ev)
    }
}

/// The sharded-executor state on the *master* network.
pub(crate) struct ShardExec {
    pub n: usize,
    /// One worker network per shard. Uncontended: workers and the
    /// coordinator alternate via the window barrier; the mutex is the
    /// `Sync` fence that hands each network across threads.
    pub nets: Vec<Mutex<Network>>,
    pub owners: OwnerMap,
    /// Minimum latency of any cross-shard channel, in picoseconds.
    /// Strictly positive — zero-latency cuts are rejected at
    /// [`Network::set_shards`].
    pub lookahead_ps: u64,
}

/// Replay bookkeeping threaded from split through the windows to the
/// merge: the serial engine's queue position, plus the audit cadence
/// replicated event-exactly.
struct Flow {
    /// Next sequence number the serial engine would assign.
    gseq: u64,
    processed: u64,
    last_pop: Option<(Time, u64)>,
    /// Timestamp of the last replayed dispatch (the serial queue's
    /// clock after `run_until`).
    now: Time,
    /// Master fault statistics at split, the base every shard's delta
    /// is measured against.
    split_stats: Option<FaultStats>,
    audit_every: u64,
    /// Audit cadence position, stepped exactly as `Audit::due` would.
    next_at: u64,
    checks0: u64,
    audit_on: bool,
    /// Cadence boundaries crossed during the windows.
    crossings: u64,
    /// `(last_pop, processed)` at the most recent crossing — what the
    /// serial engine's last periodic pass recorded.
    cross_marks: (Option<(Time, u64)>, u64),
    /// Sanctioned-drop count at split. Sanctioned drops only accrue
    /// under BECN-loss faults, which decline sharding, so the count is
    /// constant across the drive — the replay echoes it in the
    /// `AuditPass` flight note it synthesizes at each cadence crossing.
    sanction0: u64,
}

/// A sense-reversing spin barrier: windows are short (one lookahead of
/// simulated time), so parking on a futex every round would dominate.
struct SpinBarrier {
    n: usize,
    count: AtomicUsize,
    generation: AtomicU64,
}

impl SpinBarrier {
    fn new(n: usize) -> Self {
        SpinBarrier {
            n,
            count: AtomicUsize::new(0),
            generation: AtomicU64::new(0),
        }
    }

    fn wait(&self) {
        let gen = self.generation.load(Ordering::Acquire);
        if self.count.fetch_add(1, Ordering::AcqRel) + 1 == self.n {
            self.count.store(0, Ordering::Relaxed);
            self.generation.store(gen + 1, Ordering::Release);
        } else {
            let mut spins = 0u32;
            while self.generation.load(Ordering::Acquire) == gen {
                spins += 1;
                if spins < 10_000 {
                    std::hint::spin_loop();
                } else {
                    std::thread::yield_now();
                }
            }
        }
    }
}

impl Network {
    /// Partition the fabric and run subsequent [`Network::run_until`]
    /// calls on `n` parallel shards. Checkpoints, goldens and CSVs are
    /// byte-identical to the serial engine for every shard count.
    ///
    /// Must be called before the first event is dispatched (the split
    /// assumes it sees the whole initial state). A no-op — the run
    /// stays serial — when `n <= 1`, when the fabric has too few leaf
    /// switches to cut, when a cross-shard cable has zero latency, or
    /// when the installed fault schedule contains BECN-loss windows
    /// (their shared RNG stream draws in global CNP-arrival order).
    pub fn set_shards(&mut self, topo: &Topology, n: usize) {
        assert!(!self.primed, "set_shards after the first event");
        self.shards = None;
        if n <= 1 {
            return;
        }
        if let Some(f) = &self.faults {
            let has_becn_loss = f.schedule().faults().iter().any(|tf| {
                matches!(
                    tf.action,
                    FaultAction::BecnLossOpen { .. } | FaultAction::BecnLossClose { .. }
                )
            });
            if has_becn_loss {
                return;
            }
        }
        let part = partition_leaf_groups(topo, n);
        if part.n <= 1 {
            return;
        }
        let ch_owner: Vec<u32> = self
            .channels
            .iter()
            .map(|ch| match ch.to.0 {
                Dev::Switch(s) => part.switch_shard[s as usize],
                Dev::Hca(h) => part.hca_shard[h as usize],
            })
            .collect();
        let from_owner = |ch: &crate::network::Channel| match ch.from.0 {
            Dev::Switch(s) => part.switch_shard[s as usize],
            Dev::Hca(h) => part.hca_shard[h as usize],
        };
        let lookahead_ps = self
            .channels
            .iter()
            .zip(&ch_owner)
            .filter(|(ch, &to)| from_owner(ch) != to)
            .map(|(ch, _)| ch.delay.as_ps())
            .min()
            .unwrap_or(u64::MAX / 4);
        if lookahead_ps == 0 {
            // A zero-latency cut gives the windows no room to advance.
            return;
        }
        let fault_owner: Vec<u32> = match &self.faults {
            Some(f) => f
                .schedule()
                .faults()
                .iter()
                .map(|tf| match tf.action {
                    FaultAction::Drift { hca, .. }
                    | FaultAction::Pause { hca }
                    | FaultAction::Resume { hca } => part.hca_shard[hca as usize],
                    _ => 0,
                })
                .collect(),
            None => Vec::new(),
        };
        let owners = OwnerMap {
            sw: Arc::new(part.switch_shard),
            hca: Arc::new(part.hca_shard),
            ch: Arc::new(ch_owner),
            fault: Arc::new(fault_owner),
        };
        let mut nets = Vec::with_capacity(part.n);
        for s in 0..part.n {
            let mut sh = Network::new(topo, self.cfg.clone());
            // Shards never prime: the master's queue is authoritative,
            // and its entries arrive at the split.
            sh.primed = true;
            sh.shard_route = Some(Box::new(ShardRoute {
                my: s as u32,
                owners: owners.clone(),
                win: EventQueue::with_capacity(256),
                later: Vec::new(),
                w_end: Time(0),
                now: Time(0),
                prov: 0,
                outbox: Vec::new(),
                log: Vec::new(),
                map: Vec::new(),
                inbox: Vec::new(),
            }));
            nets.push(Mutex::new(sh));
        }
        self.shards = Some(Box::new(ShardExec {
            n: part.n,
            nets,
            owners,
            lookahead_ps,
        }));
    }

    /// Effective shard count (1 when running serial).
    pub fn shard_count(&self) -> usize {
        self.shards.as_ref().map_or(1, |e| e.n)
    }

    /// The parallel counterpart of [`Network::run_until`], dispatched
    /// from its gate. Splits the fabric across the shards, advances
    /// them window by window to `t`, and merges back into `self` — at
    /// which point every observable is byte-identical to what the
    /// serial loop would hold.
    pub(crate) fn run_until_sharded(&mut self, t: Time) {
        if !self.primed {
            self.prime();
        }
        let mut ex = self.shards.take().expect("gated on shards.is_some()");
        let mut flow = self.split(&mut ex);
        // The master's instruments leave the network for the drive: the
        // coordinator samples and merges into them at every barrier
        // while holding all shard locks. Telemetry and tracer stay out
        // until after the merge — its final audit pass must not record
        // a flight note the serial loop never produced (the serial
        // cadence notes were already synthesized during replay).
        let mut tel = self.telemetry.take();
        let mut trc = self.tracer.take();
        let mut prof = self.prof.take();
        {
            let mut obs = MasterObs {
                tel: tel.as_deref_mut(),
                trc: trc.as_mut(),
                prof: prof.as_deref_mut(),
            };
            drive(&mut ex, t, &mut flow, &mut obs);
        }
        // Profiler first: the merge folds the shard bins into it.
        self.prof = prof;
        self.merge(&mut ex, &flow);
        self.telemetry = tel;
        self.tracer = trc;
        self.shards = Some(ex);
    }

    /// Move every piece of runtime state to its owning shard: devices
    /// swap out (the master keeps pristine placeholders), pending
    /// events travel by value to their dispatch shard, fault state is
    /// cloned (deltas merge back), and each shard gets a zero audit
    /// ledger to accumulate its window updates into.
    fn split(&mut self, ex: &mut ShardExec) -> Flow {
        let snap = self.queue.snapshot();
        let mut per: Vec<Vec<(Time, u64, EventState)>> = Vec::new();
        per.resize_with(ex.n, Vec::new);
        for &(at, seq, ev) in &snap.entries {
            let ev = ev.unpack();
            let owner = ex.owners.owner_of(&ev) as usize;
            let es = EventState::capture(ev, &self.pool);
            if let Event::SwArrive { h, .. } | Event::HcaArrive { h, .. } = ev {
                self.pool.release(h);
            }
            per[owner].push((at, seq, es));
        }
        let (n_channels, n_vls) = (self.channels.len(), self.cfg.n_vls as usize);
        for (s, entries) in per.into_iter().enumerate() {
            let sh = ex.nets[s].get_mut().expect("no poisoned shard");
            for (i, &o) in ex.owners.sw.iter().enumerate() {
                if o == s as u32 {
                    std::mem::swap(&mut self.switches[i], &mut sh.switches[i]);
                    sh.switches[i].remap_pool(&mut self.pool, &mut sh.pool);
                }
            }
            for (i, &o) in ex.owners.hca.iter().enumerate() {
                if o == s as u32 {
                    std::mem::swap(&mut self.hcas[i], &mut sh.hcas[i]);
                    sh.hcas[i].remap_pool(&mut self.pool, &mut sh.pool);
                }
            }
            sh.faults = self.faults.clone();
            sh.audit = self
                .audit
                .as_ref()
                .map(|_| Box::new(NetAudit::new(n_channels, n_vls, u64::MAX)));
            // Observability capture mirrors the master's toggles: a
            // flow-filter clone of the tracer, a flight buffer iff
            // telemetry is on, a private profiler iff profiling is on.
            // All three merge into the master streams at the barriers.
            sh.tracer = self
                .tracer
                .as_ref()
                .map(|t| Tracer::for_flows(t.flows().iter().copied()));
            sh.obs_buf = self.telemetry.as_ref().map(|_| Box::new(ObsBuf::new()));
            sh.prof = self.prof.as_ref().map(|p| Box::new(p.fork()));
            let installed: Vec<(Time, u64, Ev)> = entries
                .into_iter()
                .map(|(at, seq, es)| (at, seq, Ev::pack(es.install(&mut sh.pool))))
                .collect();
            sh.queue = EventQueue::from_snapshot(QueueSnapshot {
                now: snap.now,
                seq: 0,
                processed: 0,
                last_pop: None,
                entries: installed,
            });
            let r = sh.shard_route.as_mut().expect("shards carry a route");
            r.win.reset();
            r.later.clear();
            r.w_end = Time(0);
            r.prov = 0;
            r.outbox.clear();
            r.log.clear();
            r.map.clear();
            r.inbox.clear();
        }
        assert_eq!(
            self.pool.live(),
            0,
            "split left {} live packet(s) behind in the master arena",
            self.pool.live()
        );
        let (next_at, checks0) = self
            .audit
            .as_ref()
            .map_or((u64::MAX, 0), |a| a.position());
        Flow {
            gseq: snap.seq,
            processed: snap.processed,
            last_pop: snap.last_pop,
            now: snap.now,
            split_stats: self.faults.as_ref().map(|f| *f.stats()),
            audit_every: self.audit.as_ref().map_or(u64::MAX, |a| a.interval()),
            next_at,
            checks0,
            audit_on: self.audit.is_some(),
            crossings: 0,
            cross_marks: (None, 0),
            sanction0: self.audit.as_ref().map_or(0, |a| a.sanctioned_packets()),
        }
    }

    /// Undo the split after the windows have run: final prologues,
    /// devices home, shard arenas drained (conservation asserted),
    /// queues concatenated under true keys, fault deltas and audit
    /// ledgers summed, and the audit cadence patched to the position
    /// the serial loop's periodic passes would have left it at.
    fn merge(&mut self, ex: &mut ShardExec, flow: &Flow) {
        let mut entries: Vec<(Time, u64, EventState)> = Vec::new();
        let mut merged_stats = flow.split_stats;
        for s in 0..ex.n {
            let sh = ex.nets[s].get_mut().expect("no poisoned shard");
            // The last replay resolved this window's keys; fold the
            // still-provisional events and the late inbox into the
            // shard's main queue before collecting it.
            sh.window_prologue();
            for (i, &o) in ex.owners.sw.iter().enumerate() {
                if o == s as u32 {
                    std::mem::swap(&mut self.switches[i], &mut sh.switches[i]);
                    self.switches[i].remap_pool(&mut sh.pool, &mut self.pool);
                }
            }
            for (i, &o) in ex.owners.hca.iter().enumerate() {
                if o == s as u32 {
                    std::mem::swap(&mut self.hcas[i], &mut sh.hcas[i]);
                    self.hcas[i].remap_pool(&mut sh.pool, &mut self.pool);
                }
            }
            let snap = sh.queue.snapshot();
            for &(at, seq, ev) in &snap.entries {
                let ev = ev.unpack();
                let es = EventState::capture(ev, &sh.pool);
                if let Event::SwArrive { h, .. } | Event::HcaArrive { h, .. } = ev {
                    sh.pool.release(h);
                }
                entries.push((at, seq, es));
            }
            // The cross-shard hand-off oracle: every packet that entered
            // this shard's arena must have left it — a leftover is a
            // leak, and a double-free already tripped the generation
            // check on release (kept in release builds by the
            // `pool-paranoid` feature).
            assert_eq!(
                sh.pool.live(),
                0,
                "shard {s} leaked {} packet slot(s) across the merge",
                sh.pool.live()
            );
            if let Some(m) = self.prof.as_deref_mut() {
                m.absorb_queue(sh.queue.lane_stats());
                m.absorb_queue(sh.shard_route.as_ref().expect("shard").win.lane_stats());
            }
            sh.queue.reset();
            if let (Some(m), Some(f), Some(base)) =
                (merged_stats.as_mut(), &sh.faults, &flow.split_stats)
            {
                add_stats_delta(m, f.stats(), base);
            }
            sh.faults = None;
            if let Some(a) = sh.audit.take() {
                self.audit
                    .as_mut()
                    .expect("shard audits exist iff the master's does")
                    .absorb(&a);
            }
            // The last replay drained the shard-side capture buffers;
            // drop them and fold the shard's profiler bins in (pure
            // sums, so addition order does not matter).
            debug_assert!(sh.tracer.as_ref().is_none_or(|t| t.records().is_empty()));
            debug_assert!(sh.obs_buf.as_ref().is_none_or(|b| b.flight.is_empty()));
            sh.tracer = None;
            sh.obs_buf = None;
            if let Some(p) = sh.prof.take() {
                if let Some(m) = self.prof.as_deref_mut() {
                    m.merge(&p);
                }
            }
        }
        entries.sort_unstable_by_key(|&(at, seq, _)| (at, seq));
        let installed: Vec<(Time, u64, Ev)> = entries
            .into_iter()
            .map(|(at, seq, es)| (at, seq, Ev::pack(es.install(&mut self.pool))))
            .collect();
        if let Some(m) = self.prof.as_deref_mut() {
            m.absorb_queue(self.queue.lane_stats());
        }
        self.queue = EventQueue::from_snapshot(QueueSnapshot {
            now: flow.now,
            seq: flow.gseq,
            processed: flow.processed,
            last_pop: flow.last_pop,
            entries: installed,
        });
        if let (Some(f), Some(stats)) = (self.faults.as_deref_mut(), merged_stats) {
            let mut rt = f.runtime_state();
            rt.stats = stats;
            f.restore_runtime_state(&rt)
                .expect("restoring onto the machine the state came from");
        }
        if flow.crossings > 0 {
            // The serial loop ran a full pass at each cadence crossing;
            // one pass over the merged state checks the same ledgers
            // (they are constant-summed, just later), then the cadence
            // position and event-order watermarks are patched to what
            // the last serial pass would have recorded.
            self.audit_checked().raise();
            let a = self.audit.as_mut().expect("crossings imply an audit");
            a.set_position(flow.next_at, flow.checks0 + flow.crossings);
            a.set_order_marks(flow.cross_marks.0, flow.cross_marks.1);
        }
    }

    /// Start-of-window bookkeeping on one shard: relabel the previous
    /// window's provisional events with their replay-agreed true keys,
    /// install cross-shard arrivals, and reset the window counters.
    pub(crate) fn window_prologue(&mut self) {
        let mut r = self.shard_route.take().expect("prologue runs on shards");
        let map = &r.map;
        r.win.drain(|at, key, ev| {
            let true_seq = map[(key - PROV_BASE) as usize];
            self.queue.schedule_keyed(at, true_seq, ev);
        });
        for (at, prov, delta, ev) in r.later.drain(..) {
            let true_seq = map[prov as usize];
            self.queue.schedule_keyed_hint(at, true_seq, delta, ev);
        }
        for (at, seq, hint, es) in r.inbox.drain(..) {
            let ev = Ev::pack(es.install(&mut self.pool));
            self.queue.schedule_keyed_hint(at, seq, hint, ev);
        }
        r.map.clear();
        r.log.clear();
        r.prov = 0;
        debug_assert!(r.outbox.is_empty(), "coordinator must drain the outbox");
        self.shard_route = Some(r);
    }

    /// Dispatch every event on this shard with time ≤ `w_end`,
    /// interleaving the main queue (true keys) and the window queue
    /// (provisional keys) exactly as the serial engine would order
    /// them, and logging each dispatch for the coordinator's replay.
    pub(crate) fn run_window(&mut self, w_end: Time, batch: &mut Vec<(u64, Ev)>) {
        self.shard_route
            .as_mut()
            .expect("windows run on shards")
            .w_end = w_end;
        self.profiling(EngineProfiler::run_begin);
        loop {
            let tm = self.queue.peek_time();
            let tw = self
                .shard_route
                .as_ref()
                .expect("windows run on shards")
                .win
                .peek_time();
            let t = match (tm, tw) {
                (Some(a), Some(b)) => a.min(b),
                (Some(a), None) => a,
                (None, Some(b)) => b,
                (None, None) => break,
            };
            if t > w_end {
                break;
            }
            batch.clear();
            // True keys are all < PROV_BASE, so the concatenation of
            // the two per-queue batches is already in key order —
            // pre-window events first, window-local events after, just
            // as serial seq assignment orders them.
            self.profiling(EngineProfiler::begin_batch);
            if tm == Some(t) {
                self.queue.pop_batch_until(t, batch);
            }
            if tw == Some(t) {
                self.shard_route
                    .as_mut()
                    .expect("checked above")
                    .win
                    .pop_batch_until(t, batch);
            }
            self.profiling(|p| p.lap(Subsystem::QueuePop));
            // What these dispatches schedule and note is measured from
            // and stamped with the batch time — the shard's main-queue
            // clock is stale for window-queue pops.
            self.shard_route.as_mut().expect("checked above").now = t;
            if let Some(b) = self.obs_buf.as_deref_mut() {
                b.now = t;
            }
            for &(key, ev) in batch.iter() {
                let before = self.shard_route.as_ref().expect("shard").prov;
                let tr0 = self.tracer.as_ref().map_or(0, |tr| tr.records().len());
                let fl0 = self.obs_buf.as_ref().map_or(0, |b| b.flight.len());
                self.dispatch_profiled(t, ev);
                let tr1 = self.tracer.as_ref().map_or(0, |tr| tr.records().len());
                let fl1 = self.obs_buf.as_ref().map_or(0, |b| b.flight.len());
                let r = self.shard_route.as_mut().expect("shard");
                r.log.push(DispatchRec {
                    at: t,
                    key,
                    n_sched: (r.prov - before) as u32,
                    n_trace: (tr1 - tr0) as u16,
                    n_flight: (fl1 - fl0) as u16,
                });
            }
        }
        self.profiling(EngineProfiler::run_end);
    }
}

/// `merged += shard − base`, field by field: every counter is a pure
/// sum of per-event increments, so per-shard deltas over the split
/// snapshot add up to exactly what the serial loop would have counted.
fn add_stats_delta(merged: &mut FaultStats, shard: &FaultStats, base: &FaultStats) {
    merged.becn_dropped += shard.becn_dropped - base.becn_dropped;
    merged.becn_spared += shard.becn_spared - base.becn_spared;
    merged.credits_stalled += shard.credits_stalled - base.credits_stalled;
    merged.credits_delayed += shard.credits_delayed - base.credits_delayed;
    merged.flap_transitions += shard.flap_transitions - base.flap_transitions;
    merged.becn_transitions += shard.becn_transitions - base.becn_transitions;
    merged.drifts_applied += shard.drifts_applied - base.drifts_applied;
    merged.pauses += shard.pauses - base.pauses;
    merged.resumes += shard.resumes - base.resumes;
}

/// Run windows to `t` across all shards: workers on their own threads,
/// the coordinator (who also runs shard 0) replaying logs, routing
/// outboxes and choosing each window's end between rounds. One
/// sense-reversing barrier, crossed twice per window, alternates the
/// two phases; the replay depends only on the per-shard logs, so the
/// outcome is independent of thread scheduling.
fn drive(ex: &mut ShardExec, t: Time, flow: &mut Flow, obs: &mut MasterObs<'_>) {
    let n = ex.n;
    let lookahead_ps = ex.lookahead_ps;
    let owners = ex.owners.clone();
    // On a single hardware thread, n spinning workers just timeshare
    // one core; run the identical window/replay cycle inline instead.
    // Same prologue, same run_window, same coordinate — the driver loop
    // is the only difference, so both paths are byte-identical by
    // construction (and the equivalence suite exercises whichever one
    // the host selects).
    let single = std::thread::available_parallelism().map_or(1, |p| p.get()) == 1;
    if single {
        let mut batch: Vec<(u64, Ev)> = Vec::with_capacity(64);
        let mut cursors = vec![0usize; n];
        while let Some(w_end) =
            coordinate_timed(&ex.nets, &mut cursors, &owners, lookahead_ps, t, flow, obs)
        {
            for net in &ex.nets {
                let mut net = net.lock().expect("no poisoned shard");
                net.window_prologue();
                net.run_window(w_end, &mut batch);
            }
        }
        return;
    }
    let stop = AtomicBool::new(false);
    let w_end_ps = AtomicU64::new(0);
    let barrier = SpinBarrier::new(n);
    let nets = &ex.nets;
    std::thread::scope(|scope| {
        for worker_net in nets.iter().skip(1) {
            let (barrier, stop, w_end_ps) = (&barrier, &stop, &w_end_ps);
            scope.spawn(move || {
                let mut batch: Vec<(u64, Ev)> = Vec::with_capacity(64);
                loop {
                    barrier.wait();
                    if stop.load(Ordering::Acquire) {
                        break;
                    }
                    let w_end = Time(w_end_ps.load(Ordering::Acquire));
                    let mut net = worker_net.lock().expect("no poisoned shard");
                    net.window_prologue();
                    net.run_window(w_end, &mut batch);
                    drop(net);
                    barrier.wait();
                }
            });
        }
        let mut batch: Vec<(u64, Ev)> = Vec::with_capacity(64);
        let mut cursors = vec![0usize; n];
        loop {
            // Coordination phase: every worker is parked at the round
            // barrier, so the locks are free.
            let next = coordinate_timed(nets, &mut cursors, &owners, lookahead_ps, t, flow, obs);
            match next {
                Some(w_end) => {
                    w_end_ps.store(w_end.as_ps(), Ordering::Release);
                    barrier.wait();
                    {
                        let mut net = nets[0].lock().expect("no poisoned shard");
                        net.window_prologue();
                        net.run_window(w_end, &mut batch);
                    }
                    barrier.wait();
                }
                None => {
                    stop.store(true, Ordering::Release);
                    barrier.wait();
                    break;
                }
            }
        }
    });
}

/// [`coordinate`], attributed to [`Subsystem::Barrier`] when profiling
/// (the coordinator's own work is the sharded executor's overhead).
#[allow(clippy::too_many_arguments)]
fn coordinate_timed(
    nets: &[Mutex<Network>],
    cursors: &mut [usize],
    owners: &OwnerMap,
    lookahead_ps: u64,
    t: Time,
    flow: &mut Flow,
    obs: &mut MasterObs<'_>,
) -> Option<Time> {
    let t0 = obs.prof.as_mut().map(|p| p.start());
    let next = coordinate(nets, cursors, owners, lookahead_ps, t, flow, obs);
    if let (Some(t0), Some(p)) = (t0, obs.prof.as_mut()) {
        p.stop(Subsystem::Barrier, t0);
    }
    next
}

/// One coordination step: replay the previous window's logs into true
/// sequence numbers (stepping the audit cadence event-exactly and
/// merging shard-captured trace/flight records into the master streams
/// in replayed order), route the outboxes, sample any due telemetry
/// boundaries against the barrier-consistent global state, and pick
/// the next window end — or `None` when nothing at or before `t`
/// remains anywhere.
#[allow(clippy::too_many_arguments)]
fn coordinate(
    nets: &[Mutex<Network>],
    cursors: &mut [usize],
    owners: &OwnerMap,
    lookahead_ps: u64,
    t: Time,
    flow: &mut Flow,
    obs: &mut MasterObs<'_>,
) -> Option<Time> {
    let mut guards: Vec<_> = nets
        .iter()
        .map(|m| m.lock().expect("no poisoned shard"))
        .collect();
    let n = guards.len();
    cursors.fill(0);
    let mut tcur = vec![0usize; n];
    let mut fcur = vec![0usize; n];

    // Replay: merge the per-shard dispatch logs in global (time, true
    // key) order. A provisional head key always resolves — the
    // dispatch that allocated it precedes it in the same shard's log.
    loop {
        let mut best: Option<(Time, u64, usize)> = None;
        for (s, g) in guards.iter().enumerate() {
            let r = g.shard_route.as_ref().expect("shards carry a route");
            if cursors[s] < r.log.len() {
                let rec = r.log[cursors[s]];
                let true_key = if rec.key < PROV_BASE {
                    rec.key
                } else {
                    r.map[(rec.key - PROV_BASE) as usize]
                };
                if best.is_none_or(|(bt, bk, _)| (rec.at, true_key) < (bt, bk)) {
                    best = Some((rec.at, true_key, s));
                }
            }
        }
        let Some((at, true_key, s)) = best else { break };
        let rec = {
            let r = guards[s].shard_route.as_mut().expect("shard");
            let rec = r.log[cursors[s]];
            cursors[s] += 1;
            for j in 0..rec.n_sched as u64 {
                r.map.push(flow.gseq + j);
            }
            rec
        };
        // This dispatch's captured observability records enter the
        // master streams here — the replay position IS the serial
        // capture order, so record sequence numbers come out identical.
        if rec.n_trace > 0 {
            let end = tcur[s] + rec.n_trace as usize;
            if let Some(mt) = obs.trc.as_mut() {
                let st = guards[s]
                    .tracer
                    .as_ref()
                    .expect("shards trace iff the master does");
                for i in tcur[s]..end {
                    mt.push(st.records()[i]);
                }
            }
            tcur[s] = end;
        }
        if rec.n_flight > 0 {
            let end = fcur[s] + rec.n_flight as usize;
            if let Some(tel) = obs.tel.as_mut() {
                for i in fcur[s]..end {
                    let (fat, kind, subject, detail) = {
                        let b = guards[s]
                            .obs_buf
                            .as_ref()
                            .expect("shards buffer flight iff telemetry is on");
                        let e = &b.flight[i];
                        (e.0, e.1, e.2.clone(), e.3.clone())
                    };
                    tel.flight.record(fat, kind, subject, detail);
                }
            }
            fcur[s] = end;
        }
        flow.gseq += rec.n_sched as u64;
        flow.processed += 1;
        flow.last_pop = Some((at, true_key));
        flow.now = at;
        // Audit::due, replicated: the serial loop consults it after
        // every dispatched event.
        if flow.audit_on && flow.processed >= flow.next_at {
            flow.next_at = flow.processed + flow.audit_every;
            flow.crossings += 1;
            flow.cross_marks = (flow.last_pop, flow.processed);
            // The serial pass here recorded a clean AuditPass note
            // (violations would have panicked the run; the merge's
            // deferred full pass re-checks that). Sanctioned drops are
            // constant during a drive — BECN-loss declines sharding.
            if let Some(tel) = obs.tel.as_mut() {
                tel.flight.record(
                    at,
                    FlightKind::AuditPass,
                    "audit",
                    format!("clean; sanctioned drops {}", flow.sanction0),
                );
            }
        }
    }

    // Every logged dispatch replayed exactly once, so the shard-side
    // capture buffers must now be fully consumed; reset them for the
    // next window.
    for (s, g) in guards.iter_mut().enumerate() {
        if let Some(tr) = g.tracer.as_mut() {
            debug_assert_eq!(tcur[s], tr.records().len(), "unreplayed trace records");
            tr.drain_records();
        }
        if let Some(b) = g.obs_buf.as_mut() {
            debug_assert_eq!(fcur[s], b.flight.len(), "unreplayed flight notes");
            b.flight.clear();
        }
    }

    // Route the outboxes now that every provisional key has its true
    // identity. Shard-index order keeps delivery deterministic (the
    // keys, not arrival order, decide everything downstream anyway).
    for s in 0..n {
        let msgs = {
            let r = guards[s].shard_route.as_mut().expect("shard");
            std::mem::take(&mut r.outbox)
        };
        for m in msgs {
            let seq = guards[s].shard_route.as_ref().expect("shard").map[m.prov as usize];
            let tgt = m.target as usize;
            guards[tgt]
                .shard_route
                .as_mut()
                .expect("shard")
                .inbox
                .push((m.at, seq, foreign_hint(m.delta, s), m.ev));
        }
    }

    // Next window: everything pending anywhere — main queues, not-yet-
    // relabelled window queues, undelivered inboxes — bounds gmin.
    let mut gmin: Option<Time> = None;
    for g in guards.iter() {
        let r = g.shard_route.as_ref().expect("shard");
        let candidates = [
            g.queue.peek_time(),
            r.win.peek_time(),
            r.later.iter().map(|e| e.0).min(),
            r.inbox.iter().map(|e| e.0).min(),
        ];
        for c in candidates.into_iter().flatten() {
            gmin = Some(gmin.map_or(c, |m| m.min(c)));
        }
    }
    match gmin {
        Some(gmin) if gmin <= t => {
            // Boundaries strictly before the next event: the serial
            // loop samples them lazily when the batch at gmin pops,
            // right after extracting its head event — so the reading
            // shows one more processed event and one less pending.
            if let Some(tel) = obs.tel.as_mut() {
                if tel.due_before(gmin) {
                    let pend = total_pending(&guards);
                    let view = build_view(&guards, owners, flow.processed + 1, pend - 1);
                    while tel.due_before(gmin) {
                        let b = tel.pop_boundary();
                        tel.sample(b, &view);
                    }
                }
            }
            // Cross-shard events generated in (w₀, w₁] land at
            // ≥ gmin + L, so w₁ = gmin + L − 1 is the widest window
            // that cannot miss one. With telemetry on, the window also
            // stops at the next unconsumed boundary: no shard may
            // dispatch an event past a boundary before it is sampled.
            // (After the loop above, next_boundary ≥ gmin, so the cap
            // never stalls the window.)
            let mut w1 = Time(gmin.as_ps().saturating_add(lookahead_ps - 1)).min(t);
            if let Some(tel) = obs.tel.as_ref() {
                w1 = w1.min(tel.next_boundary());
            }
            Some(w1)
        }
        _ => {
            // Nothing left at or before t: flush boundaries up to and
            // including t with the final counters, exactly like the
            // serial epilogue's inclusive sample.
            if let Some(tel) = obs.tel.as_mut() {
                if tel.due_at(t) {
                    let pend = total_pending(&guards);
                    let view = build_view(&guards, owners, flow.processed, pend);
                    while tel.due_at(t) {
                        let b = tel.pop_boundary();
                        tel.sample(b, &view);
                    }
                }
            }
            None
        }
    }
}

/// Global pending-event count across the shards — main queues plus
/// every not-yet-requeued window-local, later and inbox event. At a
/// barrier this equals the serial engine's `pending()` exactly: the
/// windows drained every event with time < gmin, and nothing else.
fn total_pending(guards: &[MutexGuard<'_, Network>]) -> usize {
    guards
        .iter()
        .map(|g| {
            let r = g.shard_route.as_ref().expect("shard");
            g.queue.pending() + r.win.pending() + r.later.len() + r.inbox.len()
        })
        .sum()
}

/// Assemble the sampler's whole-fabric view across the shard guards,
/// in global device-id order (each shard network holds full-size
/// device vectors; the owner map says which slot is live where).
fn build_view<'a>(
    guards: &'a [MutexGuard<'_, Network>],
    owners: &OwnerMap,
    events_processed: u64,
    queue_depth: usize,
) -> FabricView<'a> {
    FabricView {
        hcas: owners
            .hca
            .iter()
            .enumerate()
            .map(|(i, &o)| &guards[o as usize].hcas[i])
            .collect(),
        switches: owners
            .sw
            .iter()
            .enumerate()
            .map(|(i, &o)| &guards[o as usize].switches[i])
            .collect(),
        events_processed,
        queue_depth,
    }
}
