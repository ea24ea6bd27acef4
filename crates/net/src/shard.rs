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
//! * Dispatches are logged as `(time, key, n_sched)`. At the barrier
//!   the coordinator **replays** the per-shard logs in global
//!   `(time, true-key)` order — a deterministic merge that depends
//!   only on the logs, never on thread timing — and steps the audit
//!   cadence event-exactly. Its output is a few [`Run`]s per shard:
//!   a dispatch's provisional index `p` numbers `gseq₀ + p + F`, where
//!   `F` (what the other shards scheduled before it) only changes when
//!   the merge switches shard ([`Replay`]). A dispatch that scheduled
//!   nothing moves no `F`, so it is only logged while the audit cadence
//!   needs every event in order.
//! * Each shard then relabels its window-local events from the runs
//!   and installs cross-shard arrivals before the next window.
//! * A panic on any thread poisons the window barrier, which releases
//!   the other threads; the drive re-raises the original panic.
//!
//! At [`Network::run_until`]'s end the shards merge back into the
//! master: devices swap home, per-shard packet arenas drain into the
//! master pool (a shard arena with a packet left over is a leak, and
//! one freed twice trips the generation check — the `pool-paranoid`
//! feature keeps that oracle in release builds), queues concatenate
//! under their true keys, and audit ledgers — pure per-event sums —
//! add element-wise. The resulting
//! [`Network::checkpoint`] is byte-identical to the serial engine's at
//! every window boundary.
//!
//! # Observers
//!
//! Telemetry and the tracer run on the serial loop only: a sample reads
//! the whole fabric at one instant, and trace records and flight notes
//! follow serial capture order, neither of which a shard sees. Arming
//! either keeps the run serial (see below). The audit and the profiler
//! do shard: the replay steps the audit cadence event-exactly, and each
//! shard's [`EngineProfiler`] bins — pure sums — fold into the master's
//! at the merge, with coordination itself attributed to
//! [`Subsystem::Barrier`].
//!
//! # What falls back to the serial loop
//!
//! Telemetry and tracing: [`Network::set_shards`] declines while
//! either is armed, and arming one afterwards drops the split.

use crate::network::{Dev, Ev, Event, Network};
use crate::profile::{EngineProfiler, Subsystem};
use crate::state::EventState;
use ibsim_engine::queue::EventQueue;
use ibsim_engine::time::Time;
use ibsim_engine::QueueSnapshot;
use ibsim_topo::{partition_leaf_groups, Topology};
use std::any::Any;
use std::panic::AssertUnwindSafe;
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
}

impl OwnerMap {
    pub(crate) fn owner_of(&self, ev: &Event) -> u32 {
        match *ev {
            Event::SwArrive { ch, .. } | Event::HcaArrive { ch, .. } => self.ch[ch as usize],
            Event::SwTxDone { sw, .. }
            | Event::SwTryArb { sw, .. }
            | Event::SwCredit { sw, .. } => self.sw[sw as usize],
            Event::HcaTxDone { hca }
            | Event::HcaTrySend { hca }
            | Event::HcaCredit { hca, .. }
            | Event::SinkDone { hca }
            | Event::CctiTick { hca } => self.hca[hca as usize],
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
    /// `(at, provisional index, at − dispatch time, event)`, in
    /// provisional-index order.
    pub later: Vec<(Time, u64, u64, Ev)>,
    /// Earliest `at` in `later` (`Time::MAX` while it is empty), kept on
    /// push so the coordinator's `gmin` needs no scan.
    pub later_min: Time,
    /// End of the window currently running, the `win`/`later` boundary.
    pub w_end: Time,
    /// Timestamp of the batch currently dispatching, pinned by
    /// [`Network::run_window`] (the shard's main-queue clock goes stale
    /// for window-queue pops). An event's distance
    /// from it is the model delay that produced the event, and travels
    /// with the provisional key as the lane hint: by the time the true
    /// key is known the queue's own clock says nothing about it.
    pub now: Time,
    /// Next provisional index (reset every window).
    pub prov: u64,
    /// Cross-shard events.
    pub outbox: Vec<OutMsg>,
    /// The window's dispatches that scheduled events — all of them
    /// under `audit_live`.
    pub log: Vec<DispatchRec>,
    /// Log every dispatch: set while the audit cadence can fire, since
    /// the replay then steps them in order.
    pub audit_live: bool,
    /// Dispatches this window, logged or not.
    pub dispatched: u64,
    /// `(time, key)` of the window's last dispatch.
    pub last: (Time, u64),
    /// Provisional index → true sequence number for the window just
    /// replayed, as [`Run`]s written by the coordinator.
    pub runs: Vec<Run>,
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

/// One stretch of a shard's provisional indices that share a relabel
/// offset: every `p` from `p0` up to the next run's `p0` has true
/// sequence number `p + off`. The replay starts a run each time it
/// switches to the shard (see [`Replay`]), so a window needs a few
/// runs per shard where a map would need one entry per event.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct Run {
    pub p0: u64,
    pub off: u64,
}

/// True sequence number of provisional index `p`, for lookups in no
/// particular order. `runs` must cover `p` (its first run starts at 0).
fn resolve(runs: &[Run], p: u64) -> u64 {
    let k = runs.partition_point(|r| r.p0 <= p);
    p + runs[k - 1].off
}

/// True key of a logged key: itself if it is a sequence number,
/// resolved through `runs` if it is provisional.
fn true_key(runs: &[Run], key: u64) -> u64 {
    if key < PROV_BASE {
        key
    } else {
        resolve(runs, key - PROV_BASE)
    }
}

/// [`resolve`] for dense lookups in nondecreasing `p` — `later` is
/// filled in allocation order, so one forward cursor serves it.
struct Relabel<'a> {
    runs: &'a [Run],
    k: usize,
}

impl<'a> Relabel<'a> {
    fn new(runs: &'a [Run]) -> Self {
        Relabel { runs, k: 0 }
    }

    #[inline]
    fn seq(&mut self, p: u64) -> u64 {
        // Mostly zero or one run lies between consecutive lookups: take
        // that step without a branch, loop only past several.
        let next = self.runs.get(self.k + 1).map_or(u64::MAX, |r| r.p0);
        self.k += usize::from(next <= p);
        while self.runs.get(self.k + 1).is_some_and(|r| r.p0 <= p) {
            self.k += 1;
        }
        p + self.runs[self.k].off
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
    audit_every: u64,
    /// Audit cadence position, stepped exactly as `NetAudit::due` would.
    next_at: u64,
    checks0: u64,
    /// The audit is on and its cadence can fire: `processed` stays
    /// below `gseq < PROV_BASE`, so a `next_at` at or past `PROV_BASE`
    /// never comes due.
    audit_live: bool,
    /// Cadence boundaries crossed during the windows.
    crossings: u64,
    /// `(last_pop, processed)` at the most recent crossing — what the
    /// serial engine's last periodic pass recorded.
    cross_marks: (Option<(Time, u64)>, u64),
}

/// A sense-reversing barrier whose waiters poll and yield their time
/// slice between polls. Windows are short (one lookahead of simulated
/// time), and parking on a condvar cost 21 % of `uniform648_s2`'s
/// `run_s` (median 1.79 against 1.49 s on a 2-vCPU VM). Spinning
/// between polls wastes the slice of the thread a waiter waits for
/// whenever threads outnumber free cores (parallel tests, sweep cells
/// that each run shards): quick `table2 --shards 2` on the same VM took
/// 1.1–2.0 s with a 10 000-poll spin phase and 0.8–0.9 s without.
///
/// A participant that dies never arrives, so the barrier also carries
/// a poison flag: each thread body holds a [`PoisonOnUnwind`] guard,
/// and a waiter that sees the flag panics with [`POISONED`] instead of
/// spinning forever.
struct SpinBarrier {
    n: usize,
    count: AtomicUsize,
    generation: AtomicU64,
    poisoned: AtomicBool,
}

/// The panic a barrier waiter raises when another participant died.
const POISONED: &str = "shard thread panicked";

impl SpinBarrier {
    fn new(n: usize) -> Self {
        SpinBarrier {
            n,
            count: AtomicUsize::new(0),
            generation: AtomicU64::new(0),
            poisoned: AtomicBool::new(false),
        }
    }

    fn wait(&self) {
        let gen = self.generation.load(Ordering::Acquire);
        if self.count.fetch_add(1, Ordering::AcqRel) + 1 == self.n {
            self.count.store(0, Ordering::Relaxed);
            self.generation.store(gen + 1, Ordering::Release);
        } else {
            while self.generation.load(Ordering::Acquire) == gen {
                // The flag publishes nothing but itself: Relaxed.
                if self.poisoned.load(Ordering::Relaxed) {
                    std::panic::panic_any(POISONED);
                }
                std::thread::yield_now();
            }
        }
    }
}

/// Poisons the barrier if the thread holding it unwinds.
struct PoisonOnUnwind<'a>(&'a SpinBarrier);

impl Drop for PoisonOnUnwind<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.poisoned.store(true, Ordering::Relaxed);
        }
    }
}

/// Of the panics a drive's threads ended with, the one that started it:
/// the others are waiters released by the poison flag.
fn first_cause(
    panics: impl IntoIterator<Item = Box<dyn Any + Send>>,
) -> Option<Box<dyn Any + Send>> {
    let (released, causes): (Vec<_>, Vec<_>) = panics
        .into_iter()
        .partition(|p| p.downcast_ref::<&str>() == Some(&POISONED));
    causes.into_iter().chain(released).next()
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
    /// when telemetry or a tracer is armed (observers run serial; arming one
    /// after this call drops the split too).
    pub fn set_shards(&mut self, topo: &Topology, n: usize) {
        assert!(!self.primed, "set_shards after the first event");
        self.shards = None;
        if n <= 1 || self.telemetry.is_some() || self.tracer.is_some() {
            return;
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
        let owners = OwnerMap {
            sw: Arc::new(part.switch_shard),
            hca: Arc::new(part.hca_shard),
            ch: Arc::new(ch_owner),
        };
        let nets = (0..part.n)
            .map(|s| {
                Mutex::new(self.shard_shell(Box::new(ShardRoute {
                    my: s as u32,
                    owners: owners.clone(),
                    win: EventQueue::with_capacity(256),
                    later: Vec::new(),
                    later_min: Time::MAX,
                    w_end: Time(0),
                    now: Time(0),
                    prov: 0,
                    outbox: Vec::new(),
                    log: Vec::new(),
                    audit_live: false,
                    dispatched: 0,
                    last: (Time(0), 0),
                    runs: Vec::new(),
                    inbox: Vec::new(),
                })))
            })
            .collect();
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
        debug_assert!(
            self.telemetry.is_none() && self.tracer.is_none(),
            "observers keep a run serial"
        );
        if !self.primed {
            self.prime();
        }
        let mut ex = self.shards.take().expect("gated on shards.is_some()");
        let mut flow = self.split(&mut ex);
        // The master's profiler leaves the network for the drive: the
        // coordinator times its barriers into it, and the merge folds
        // the shard bins in.
        let mut prof = self.prof.take();
        drive(&ex, t, &mut flow, prof.as_deref_mut());
        self.prof = prof;
        self.merge(&mut ex, &flow);
        self.shards = Some(ex);
    }

    /// Move every piece of runtime state to its owning shard: devices
    /// swap out (the master keeps the shard's placeholders in their
    /// slots until the merge swaps them back), pending
    /// events travel by value to their dispatch shard, and each shard
    /// gets a zero audit
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
        let (next_at, checks0) = self
            .audit
            .as_ref()
            .map_or((u64::MAX, 0), |a| (a.next_at, a.checks_run));
        let audit_live = self.audit.is_some() && next_at < PROV_BASE;
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
            sh.audit = self.audit.as_ref().map(|a| Box::new(a.fork()));
            // A private profiler iff profiling is on; its bins fold into
            // the master's at the merge.
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
            r.later_min = Time::MAX;
            r.w_end = Time(0);
            r.prov = 0;
            r.outbox.clear();
            r.log.clear();
            r.audit_live = audit_live;
            r.dispatched = 0;
            r.runs.clear();
            r.inbox.clear();
        }
        assert_eq!(
            self.pool.live(),
            0,
            "split left {} live packet(s) behind in the master arena",
            self.pool.live()
        );
        Flow {
            gseq: snap.seq,
            processed: snap.processed,
            last_pop: snap.last_pop,
            now: snap.now,
            audit_every: self.audit.as_ref().map_or(u64::MAX, |a| a.every),
            next_at,
            checks0,
            audit_live,
            crossings: 0,
            cross_marks: (None, 0),
        }
    }

    /// Undo the split after the windows have run: final prologues,
    /// devices home, shard arenas drained (conservation asserted),
    /// queues concatenated under true keys, audit ledgers summed, and
    /// the audit cadence patched to the position the serial loop's
    /// periodic passes would have left it at.
    fn merge(&mut self, ex: &mut ShardExec, flow: &Flow) {
        let mut entries: Vec<(Time, u64, EventState)> = Vec::new();
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
            if let Some(a) = sh.audit.take() {
                self.audit
                    .as_mut()
                    .expect("shard audits exist iff the master's does")
                    .absorb(&a);
            }
            // Fold the shard's profiler bins in (pure sums, so addition
            // order does not matter).
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
        if flow.crossings > 0 {
            // The serial loop ran a full pass at each cadence crossing;
            // one pass over the merged state checks the same ledgers
            // (they are constant-summed, just later), then the cadence
            // position and event-order watermarks are patched to what
            // the last serial pass would have recorded.
            self.audit_checked().raise();
            let a = self.audit.as_mut().expect("crossings imply an audit");
            a.next_at = flow.next_at;
            a.checks_run = flow.checks0 + flow.crossings;
            a.set_order_marks(flow.cross_marks.0, flow.cross_marks.1);
        }
    }

    /// Start-of-window bookkeeping on one shard: relabel the previous
    /// window's provisional events with their replay-agreed true keys,
    /// install cross-shard arrivals, and reset the window counters.
    pub(crate) fn window_prologue(&mut self) {
        let mut r = self.shard_route.take().expect("prologue runs on shards");
        let runs = &r.runs;
        r.win.drain(|at, key, ev| {
            self.queue
                .schedule_keyed(at, resolve(runs, key - PROV_BASE), ev);
        });
        let mut relabel = Relabel::new(runs);
        for (at, prov, delta, ev) in r.later.drain(..) {
            self.queue
                .schedule_keyed_hint(at, relabel.seq(prov), delta, ev);
        }
        for (at, seq, hint, es) in r.inbox.drain(..) {
            let ev = Ev::pack(es.install(&mut self.pool));
            self.queue.schedule_keyed_hint(at, seq, hint, ev);
        }
        r.runs.clear();
        r.later_min = Time::MAX;
        r.prov = 0;
        r.dispatched = 0;
        debug_assert!(r.log.is_empty(), "coordinator must consume the log");
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
        let audit_live = self.shard_route.as_ref().expect("shard").audit_live;
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
            // What these dispatches schedule is measured from the batch
            // time — the shard's main-queue clock is stale for
            // window-queue pops.
            self.shard_route.as_mut().expect("checked above").now = t;
            for &(key, ev) in batch.iter() {
                let before = self.shard_route.as_ref().expect("shard").prov;
                self.dispatch_profiled(t, ev);
                let r = self.shard_route.as_mut().expect("shard");
                r.dispatched += 1;
                r.last = (t, key);
                r.log.push(DispatchRec {
                    at: t,
                    key,
                    n_sched: u32::try_from(r.prov - before)
                        .expect("one dispatch schedules fewer than 2^32 events"),
                });
                // Half the dispatches schedule nothing: drop those again
                // unless every dispatch is logged (no branch to mispredict).
                let keep = r.prov > before || audit_live;
                r.log.truncate(r.log.len() - usize::from(!keep));
            }
        }
        self.profiling(EngineProfiler::run_end);
    }
}

/// Run windows to `t` across all shards on T = min(shards, cores)
/// threads: thread k runs shards k, k + T, k + 2T, … in index order
/// each window, and thread 0 also coordinates — replaying logs, routing
/// outboxes and choosing each window's end between rounds. One
/// sense-reversing barrier, crossed twice per window, alternates the
/// two phases; the replay depends only on the per-shard logs, so the
/// outcome is independent of the thread count and of scheduling. A
/// panic on any thread poisons the barrier, releases the others, and
/// is re-raised here.
fn drive(ex: &ShardExec, t: Time, flow: &mut Flow, mut prof: Option<&mut EngineProfiler>) {
    let threads = std::thread::available_parallelism()
        .map_or(1, |p| p.get())
        .min(ex.n);
    let stop = AtomicBool::new(false);
    let w_end_ps = AtomicU64::new(0);
    let barrier = SpinBarrier::new(threads);
    let run_shards = |k: usize, w_end: Time, batch: &mut Vec<(u64, Ev)>| {
        for net in ex.nets.iter().skip(k).step_by(threads) {
            let mut net = net.lock().expect("no poisoned shard");
            net.window_prologue();
            net.run_window(w_end, batch);
        }
    };
    let panics: Vec<_> = std::thread::scope(|scope| {
        let workers: Vec<_> = (1..threads)
            .map(|k| {
                let (barrier, stop, w_end_ps) = (&barrier, &stop, &w_end_ps);
                scope.spawn(move || {
                    let _poison = PoisonOnUnwind(barrier);
                    let mut batch: Vec<(u64, Ev)> = Vec::with_capacity(64);
                    loop {
                        barrier.wait();
                        if stop.load(Ordering::Acquire) {
                            break;
                        }
                        run_shards(k, Time(w_end_ps.load(Ordering::Acquire)), &mut batch);
                        barrier.wait();
                    }
                })
            })
            .collect();
        let coordinator = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let _poison = PoisonOnUnwind(&barrier);
            let mut coord = Coord::new(ex);
            let mut batch: Vec<(u64, Ev)> = Vec::with_capacity(64);
            // Coordination phase: every worker is parked at the round
            // barrier, so the locks are free.
            while let Some(w_end) = coord.step(t, flow, prof.as_deref_mut()) {
                w_end_ps.store(w_end.as_ps(), Ordering::Release);
                barrier.wait();
                run_shards(0, w_end, &mut batch);
                barrier.wait();
            }
            stop.store(true, Ordering::Release);
            barrier.wait();
        }));
        coordinator
            .err()
            .into_iter()
            .chain(workers.into_iter().filter_map(|w| w.join().err()))
            .collect()
    });
    if let Some(cause) = first_cause(panics) {
        std::panic::resume_unwind(cause);
    }
}

/// The coordinator of one drive. Its buffers are reused from window to
/// window, so a coordination step allocates nothing in steady state.
struct Coord<'a> {
    ex: &'a ShardExec,
    /// Every shard's lock, held for one coordination step.
    guards: Vec<MutexGuard<'a, Network>>,
    /// The window's dispatch logs and the runs the replay writes,
    /// swapped out of (and back into) the shard routes.
    logs: Vec<Vec<DispatchRec>>,
    runs: Vec<Vec<Run>>,
    heads: Vec<Head>,
    /// The outbox being routed, swapped out of its shard.
    out: Vec<OutMsg>,
}

impl<'a> Coord<'a> {
    fn new(ex: &'a ShardExec) -> Self {
        let n = ex.n;
        Coord {
            ex,
            guards: Vec::with_capacity(n),
            logs: vec![Vec::new(); n],
            runs: vec![Vec::new(); n],
            heads: vec![Head::default(); n],
            out: Vec::new(),
        }
    }

    /// [`Coord::coordinate`], attributed to [`Subsystem::Barrier`] when
    /// profiling (the coordinator's own work is the sharded executor's
    /// overhead).
    fn step(
        &mut self,
        t: Time,
        flow: &mut Flow,
        prof: Option<&mut EngineProfiler>,
    ) -> Option<Time> {
        let Some(p) = prof else {
            return self.coordinate(t, flow);
        };
        let t0 = p.start();
        let next = self.coordinate(t, flow);
        p.stop(Subsystem::Barrier, t0);
        next
    }

    /// One coordination step: replay the previous window's logs into
    /// true sequence numbers (stepping the audit cadence event-exactly),
    /// route the outboxes, and pick the next window end — or `None`
    /// when nothing at or before `t` remains anywhere.
    fn coordinate(&mut self, t: Time, flow: &mut Flow) -> Option<Time> {
        self.guards.extend(
            self.ex
                .nets
                .iter()
                .map(|m| m.lock().expect("no poisoned shard")),
        );
        let mut window_events = 0;
        for (g, log) in self.guards.iter_mut().zip(&mut self.logs) {
            let r = g.shard_route.as_mut().expect("shards carry a route");
            std::mem::swap(log, &mut r.log);
            window_events += r.prov;
        }
        // Provisional keys sort after true ones only while every true
        // sequence number stays below PROV_BASE (2^62: 146 years at 10^9
        // events per second, so this never fires in practice).
        assert!(
            flow.gseq + window_events < PROV_BASE,
            "sequence numbers reached the provisional key space"
        );
        self.replay(flow);

        // Route the outboxes now that every provisional key has its
        // true identity. Shard-index order keeps delivery deterministic
        // (the keys, not arrival order, decide everything downstream).
        // The next window starts at gmin, the earliest event pending
        // anywhere: routed arrivals, main queues, window-local events.
        let mut gmin: Option<Time> = None;
        let mut see = |c: Time| gmin = Some(gmin.map_or(c, |m| m.min(c)));
        for s in 0..self.guards.len() {
            let r = self.guards[s].shard_route.as_mut().expect("shard");
            std::mem::swap(&mut self.out, &mut r.outbox);
            // A shard sends far fewer events than it opens runs, so a
            // forward cursor would cross several runs per lookup.
            let runs = &self.runs[s];
            for m in self.out.drain(..) {
                see(m.at);
                let seq = resolve(runs, m.prov);
                let to = self.guards[m.target as usize]
                    .shard_route
                    .as_mut()
                    .expect("shard");
                to.inbox.push((m.at, seq, foreign_hint(m.delta, s), m.ev));
            }
            let r = self.guards[s].shard_route.as_mut().expect("shard");
            std::mem::swap(&mut self.out, &mut r.outbox);
        }
        for ((g, log), runs) in self
            .guards
            .iter_mut()
            .zip(&mut self.logs)
            .zip(&mut self.runs)
        {
            let queued = g.queue.peek_time();
            let r = g.shard_route.as_mut().expect("shard");
            log.clear();
            std::mem::swap(log, &mut r.log);
            std::mem::swap(runs, &mut r.runs);
            let later = (!r.later.is_empty()).then_some(r.later_min);
            for c in [queued, r.win.peek_time(), later].into_iter().flatten() {
                see(c);
            }
        }
        self.guards.clear();
        // Cross-shard events generated in (w₀, w₁] land at ≥ gmin + L,
        // so w₁ = gmin + L − 1 is the widest window that cannot miss one.
        let gmin = gmin.filter(|&g| g <= t)?;
        Some(Time(gmin.as_ps().saturating_add(self.ex.lookahead_ps - 1)).min(t))
    }

    /// Replay the window: merge the logs, advancing the serial engine's
    /// counters. The audit cadence runs only when armed — and then every
    /// dispatch is logged — in the order the serial loop would have run
    /// it.
    fn replay(&mut self, flow: &mut Flow) {
        let mut rp = Replay::new(&self.logs, &mut self.runs, &mut self.heads, flow.gseq);
        let mut processed = flow.processed;
        while let Some((s, i)) = rp.next() {
            if !flow.audit_live {
                continue;
            }
            processed += 1;
            // NetAudit::due, replicated: the serial loop consults it after
            // every dispatched event.
            if processed >= flow.next_at {
                flow.next_at = processed + flow.audit_every;
                flow.crossings += 1;
                flow.cross_marks = (Some((self.logs[s][i].at, rp.key(s, i))), processed);
            }
        }
        flow.gseq = rp.gseq;
        // The window's last dispatch is the latest of the shards' last
        // ones; every dispatch counts, logged or not.
        let mut last: Option<(Time, u64)> = None;
        for (s, g) in self.guards.iter().enumerate() {
            let r = g.shard_route.as_ref().expect("shard");
            if r.dispatched > 0 {
                let pop = (r.last.0, true_key(&self.runs[s], r.last.1));
                last = last.max(Some(pop));
            }
            flow.processed += r.dispatched;
        }
        debug_assert!(
            !flow.audit_live || processed == flow.processed,
            "an armed replay places every dispatch"
        );
        if let Some(pop) = last {
            flow.last_pop = Some(pop);
            flow.now = pop.0;
        }
    }
}

/// Where one shard's log stands in the replay.
#[derive(Clone, Copy, Default)]
struct Head {
    /// Time of record `i` and of the record after it (`Time::MAX` past
    /// the end): the merge compares the first and moves on to the
    /// second without waiting for a load.
    at: Time,
    next_at: Time,
    /// Next record to replay.
    i: usize,
    /// Provisional indices the records before it allocated.
    p: u64,
}

impl Head {
    fn at(log: &[DispatchRec], i: usize) -> Time {
        log.get(i).map_or(Time::MAX, |r| r.at)
    }
}

/// The replay of one window: a merge of the per-shard dispatch logs in
/// global `(time, true key)` order — the serial dispatch order, since
/// each log is already in that order (pre-window keys are below every
/// provisional one, and provisional indices number in dispatch order).
///
/// Keys come from one identity. Let dispatch `d` of shard `s` allocate
/// provisional index `p`. The serial engine numbers that event
/// `gseq₀ + p + F(d)`, where `F(d)` sums `n_sched` over the *other*
/// shards' dispatches replayed before `d`. `F` changes only when the
/// merge switches shard, so each switch opens one [`Run`]
/// `(p, gseq − p)` that numbers everything the shard allocates until
/// the next switch. The merge compares times first and resolves keys
/// only when two heads share a time; a provisional head always
/// resolves, because the dispatch that allocated it came earlier in
/// the same log. Dispatches that allocate nothing move no `F`, so the
/// logs may leave them out.
struct Replay<'a> {
    logs: &'a [Vec<DispatchRec>],
    runs: &'a mut [Vec<Run>],
    heads: &'a mut [Head],
    /// Next true sequence number: `gseq₀` plus every `n_sched` so far.
    gseq: u64,
    /// Shard of the previous record (`usize::MAX` before the first).
    prev: usize,
    /// Records not yet replayed.
    left: usize,
}

impl<'a> Replay<'a> {
    fn new(
        logs: &'a [Vec<DispatchRec>],
        runs: &'a mut [Vec<Run>],
        heads: &'a mut [Head],
        gseq: u64,
    ) -> Self {
        let mut left = 0;
        for ((log, head), runs) in logs.iter().zip(heads.iter_mut()).zip(runs.iter_mut()) {
            *head = Head {
                at: Head::at(log, 0),
                next_at: Head::at(log, 1),
                i: 0,
                p: 0,
            };
            runs.clear();
            left += log.len();
        }
        Replay {
            logs,
            runs,
            heads,
            gseq,
            prev: usize::MAX,
            left,
        }
    }

    /// True key of record `i` of shard `s`, once replayed up to it.
    fn key(&self, s: usize, i: usize) -> u64 {
        true_key(&self.runs[s], self.logs[s][i].key)
    }

    /// Of the heads at time `t`, the one with the smallest true key.
    #[cold]
    fn tie(&self, t: Time) -> usize {
        let mut best: Option<(u64, usize)> = None;
        for (s, h) in self.heads.iter().enumerate() {
            if h.at == t && h.i < self.logs[s].len() {
                let key = self.key(s, h.i);
                if best.is_none_or(|(k, _)| key < k) {
                    best = Some((key, s));
                }
            }
        }
        best.expect("a head at the earliest time").1
    }

    /// The next dispatch in serial order, as `(shard, log index)`.
    #[inline]
    fn next(&mut self) -> Option<(usize, usize)> {
        if self.left == 0 {
            return None;
        }
        self.left -= 1;
        // Earliest head by time, branch-free; a shared time is rare and
        // goes to the key comparison.
        let (mut s, mut t) = (0, self.heads[0].at);
        for (x, h) in self.heads.iter().enumerate().skip(1) {
            let earlier = h.at < t;
            s = if earlier { x } else { s };
            t = if earlier { h.at } else { t };
        }
        if self.heads.iter().filter(|h| h.at == t).count() > 1 {
            s = self.tie(t);
        }
        let h = self.heads[s];
        // A switch opens a run: push one per record, keep it on a switch.
        let runs = &mut self.runs[s];
        runs.push(Run {
            p0: h.p,
            off: self.gseq - h.p,
        });
        runs.truncate(runs.len() - usize::from(s == self.prev));
        self.prev = s;
        let log = &self.logs[s];
        let n = u64::from(log[h.i].n_sched);
        self.gseq += n;
        self.heads[s] = Head {
            at: h.next_at,
            next_at: Head::at(log, h.i + 2),
            i: h.i + 1,
            p: h.p + n,
        };
        Some((s, h.i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{DestPattern, TrafficClass};
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    use std::time::Duration;

    fn rec(at: u64, key: u64, n_sched: u32) -> DispatchRec {
        DispatchRec {
            at: Time(at),
            key,
            n_sched,
        }
    }

    /// The replay the runs replaced: a min-select over every head that
    /// resolves each provisional key through a per-event map, filled as
    /// dispatches replay. Returns the order and the map.
    #[allow(clippy::type_complexity)]
    fn brute_force(logs: &[Vec<DispatchRec>], gseq0: u64) -> (Vec<(usize, usize)>, Vec<Vec<u64>>) {
        let mut cur = vec![0; logs.len()];
        let mut map = vec![Vec::new(); logs.len()];
        let (mut gseq, mut order) = (gseq0, Vec::new());
        loop {
            let head = (0..logs.len())
                .filter(|&s| cur[s] < logs[s].len())
                .min_by_key(|&s| {
                    let r = logs[s][cur[s]];
                    let key = if r.key < PROV_BASE {
                        r.key
                    } else {
                        map[s][(r.key - PROV_BASE) as usize]
                    };
                    (r.at, key)
                });
            let Some(s) = head else { break };
            let n = u64::from(logs[s][cur[s]].n_sched);
            order.push((s, cur[s]));
            cur[s] += 1;
            map[s].extend(gseq..gseq + n);
            gseq += n;
        }
        (order, map)
    }

    /// The replay under test: order, runs, final sequence number.
    fn replay(logs: &[Vec<DispatchRec>], gseq0: u64) -> (Vec<(usize, usize)>, Vec<Vec<Run>>, u64) {
        let mut runs = vec![Vec::new(); logs.len()];
        let mut heads = vec![Head::default(); logs.len()];
        let mut rp = Replay::new(logs, &mut runs, &mut heads, gseq0);
        let order = std::iter::from_fn(|| rp.next()).collect();
        let gseq = rp.gseq;
        (order, runs, gseq)
    }

    /// Replay equals the brute force: same order, same final sequence
    /// number, and every provisional index relabels to the same true
    /// key — by binary search and by the forward cursor.
    fn assert_replays(logs: &[Vec<DispatchRec>], gseq0: u64) {
        let (want_order, map) = brute_force(logs, gseq0);
        let (order, runs, gseq) = replay(logs, gseq0);
        assert_eq!(order, want_order, "replay order");
        let sched: u64 = logs.iter().flatten().map(|r| u64::from(r.n_sched)).sum();
        assert_eq!(gseq, gseq0 + sched);
        for (s, (map, runs)) in map.iter().zip(&runs).enumerate() {
            let mut cursor = Relabel::new(runs);
            for (p, &want) in map.iter().enumerate() {
                assert_eq!(resolve(runs, p as u64), want, "shard {s} p {p}");
                assert_eq!(cursor.seq(p as u64), want, "shard {s} p {p} (cursor)");
            }
        }
        // Dispatches that allocate nothing move no offset: a log without
        // them relabels every provisional index the same way.
        let short: Vec<Vec<DispatchRec>> = logs
            .iter()
            .map(|l| l.iter().copied().filter(|r| r.n_sched > 0).collect())
            .collect();
        let (_, short_runs, _) = replay(&short, gseq0);
        for (s, (map, runs)) in map.iter().zip(&short_runs).enumerate() {
            for (p, &want) in map.iter().enumerate() {
                assert_eq!(resolve(runs, p as u64), want, "short log: shard {s} p {p}");
            }
        }
    }

    const P: u64 = PROV_BASE;

    /// Two shards whose heads share a time on provisional keys that
    /// only their resolved values order: shard 0's index 1 numbers
    /// before shard 1's index 0.
    #[test]
    fn equal_time_heads_order_by_resolved_keys_on_two_shards() {
        let logs = vec![
            vec![rec(10, 5, 2), rec(20, P + 1, 0), rec(30, P, 0)],
            vec![rec(10, 7, 1), rec(20, P, 0)],
        ];
        assert_replays(&logs, 100);
        // t=10: key 5 numbers shard 0's indices 100 and 101, then key 7
        // numbers shard 1's index 0 as 102; at t=20, 101 goes first.
        let (order, runs, _) = replay(&logs, 100);
        assert_eq!(order, vec![(0, 0), (1, 0), (0, 1), (1, 1), (0, 2)]);
        assert_eq!([resolve(&runs[0], 1), resolve(&runs[1], 0)], [101, 102]);
    }

    /// Three shards tied at one time on provisional keys allocated in
    /// interleaved order, so the raw indices say nothing.
    #[test]
    fn equal_time_heads_order_by_resolved_keys_on_three_shards() {
        let logs = vec![
            vec![rec(3, 30, 1), rec(9, P, 0)],
            vec![rec(1, 10, 1), rec(2, 20, 1), rec(9, P, 0), rec(9, P + 1, 0)],
            vec![rec(2, 15, 2), rec(9, P, 0), rec(9, P + 1, 0)],
        ];
        assert_replays(&logs, 1_000);
        // Numbered: shard 1's p0 = 1000 (t=1), shard 2's p0, p1 = 1001,
        // 1002 (t=2, key 15), shard 1's p1 = 1003 (t=2, key 20), shard
        // 0's p0 = 1004 (t=3). At t=9 they dispatch in that order.
        let (order, _, _) = replay(&logs, 1_000);
        assert_eq!(order[4..], [(1, 2), (2, 1), (2, 2), (1, 3), (0, 1)]);
    }

    /// One window as shards would log it: pre-window events with
    /// distinct true keys below `gseq0`, dispatched per shard in `(time,
    /// key)` order; each dispatch schedules 0–3 events a few picoseconds
    /// out under provisional keys, dispatched in the window when they
    /// fall inside it. Times are coarse, so heads tie often.
    fn window(seed: u64, shards: usize, gseq0: u64) -> Vec<Vec<DispatchRec>> {
        let mut x = seed | 1;
        let mut rng = move |m: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % m
        };
        let mut queues = vec![BinaryHeap::new(); shards];
        for key in 0..(8 * shards as u64).min(gseq0) {
            queues[rng(shards as u64) as usize].push(Reverse((rng(4), key)));
        }
        queues
            .into_iter()
            .map(|mut q| {
                let (mut log, mut prov) = (Vec::new(), 0);
                while let Some(Reverse((at, key))) = q.pop() {
                    let n = rng(4) as u32;
                    for _ in 0..n {
                        let due = at + rng(3);
                        if due <= 6 {
                            q.push(Reverse((due, P + prov)));
                        }
                        prov += 1;
                    }
                    log.push(rec(at, key, n));
                }
                log
            })
            .collect()
    }

    #[test]
    fn replay_matches_brute_force_on_generated_windows() {
        let mut ties = 0;
        for seed in 1..400u64 {
            for shards in [2, 3, 5] {
                let logs = window(seed * 7919, shards, 64);
                assert_replays(&logs, 64);
                let (order, _, _) = replay(&logs, 64);
                ties += order
                    .windows(2)
                    .filter(|w| {
                        let (a, b) = (logs[w[0].0][w[0].1], logs[w[1].0][w[1].1]);
                        w[0].0 != w[1].0 && a.at == b.at && a.key >= P && b.key >= P
                    })
                    .count();
            }
        }
        assert!(
            ties > 1_000,
            "the windows must tie on provisional keys ({ties})"
        );
    }

    /// Sequence numbers are assigned one per scheduled event and the
    /// coordinator asserts every window stays below `PROV_BASE`. At 10^9
    /// events per second that bound is 146 years of wall time away.
    #[test]
    fn key_space_outlasts_146_years_at_a_billion_events_per_second() {
        let years = PROV_BASE as f64 / 1e9 / (365.25 * 86_400.0);
        assert!(years > 146.0, "{years:.1} years");
    }

    /// A 2-party barrier whose other party dies before arriving releases
    /// the waiter with the poison panic instead of spinning forever.
    #[test]
    fn a_dead_party_releases_the_barrier() {
        let barrier = Arc::new(SpinBarrier::new(2));
        let (tx, rx) = std::sync::mpsc::channel();
        // Not scoped: if the barrier regresses, the waiter spins forever
        // and the timeout below must still end the test.
        let waiter = Arc::clone(&barrier);
        let waiter = std::thread::spawn(move || {
            let waited = std::panic::catch_unwind(AssertUnwindSafe(|| waiter.wait()));
            let _ = tx.send(waited.map_err(|p| p.downcast_ref::<&str>().copied()));
        });
        let dead = Arc::clone(&barrier);
        let died = std::thread::spawn(move || {
            let _poison = PoisonOnUnwind(&dead);
            panic!("party died before the barrier");
        })
        .join();
        assert!(died.is_err());
        let waited = rx
            .recv_timeout(Duration::from_secs(30))
            .expect("the waiter was released, not left spinning");
        assert_eq!(waited, Err(Some(POISONED)));
        waiter.join().expect("the released waiter ends normally");
    }

    /// Every shard slot a placeholder, every master slot a full device.
    fn assert_one_copy(net: &Network, when: &str) {
        let n_hcas = net.hcas.len();
        assert!(
            net.switches.iter().all(|sw| sw.radix() > 0),
            "{when}: the master holds a placeholder switch"
        );
        assert!(
            net.hcas.iter().all(|h| h.rx_by_src().count() == n_hcas),
            "{when}: the master holds a placeholder HCA"
        );
        let ex = net.shards.as_ref().expect("the run is sharded");
        for (s, sh) in ex.nets.iter().enumerate() {
            let sh = sh.lock().expect("no poisoned shard");
            assert_eq!(sh.switches.len(), net.switches.len());
            assert_eq!(sh.hcas.len(), n_hcas);
            assert!(
                sh.switches.iter().all(|sw| sw.radix() == 0),
                "{when}: shard {s} holds a switch outside a run"
            );
            assert!(
                sh.hcas.iter().all(|h| h.rx_by_src().count() == 0),
                "{when}: shard {s} holds an HCA outside a run"
            );
        }
    }

    /// The devices of a sharded run exist once, whatever the shard
    /// count: shard networks hold placeholders, and the devices only
    /// visit them for the length of a `run_until`.
    #[test]
    fn shards_hold_placeholders_and_the_master_the_fabric() {
        let topo = ibsim_topo::FatTreeSpec::QUICK_72.build();
        for n in [2, 4, 8] {
            let mut net = Network::new(&topo, crate::NetConfig::paper());
            for h in 0..topo.num_hcas as u32 {
                let class = TrafficClass::new(100, DestPattern::UniformExceptSelf, 4096);
                net.set_classes(h, vec![class]);
            }
            net.set_shards(&topo, n);
            assert_eq!(net.shard_count(), n);
            assert_one_copy(&net, &format!("{n} shards, after set_shards"));
            net.run_until(Time::from_us(5));
            assert_one_copy(&net, &format!("{n} shards, between segments"));
            net.run_until(Time::from_us(10));
            assert!(net.total_delivered_packets() > 0, "{n} shards: no traffic");
        }
    }

    #[test]
    fn the_first_cause_outranks_released_waiters() {
        let panics: Vec<Box<dyn Any + Send>> = vec![Box::new(POISONED), Box::new("boom")];
        let cause = first_cause(panics).expect("a panic");
        assert_eq!(cause.downcast_ref::<&str>(), Some(&"boom"));
        assert!(first_cause(Vec::new()).is_none());
    }
}
