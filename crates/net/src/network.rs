//! The assembled network: devices wired per a topology, one event loop.

use crate::audit::{AuditReport, NetAudit};
use crate::config::NetConfig;
use crate::gen::TrafficClass;
use crate::hca::{Hca, NextSend};
use crate::pool::{PacketPool, PktHandle};
use crate::profile::{EngineProfiler, ProfileReport, Subsystem};
use crate::switch::{Grant, Switch};
use crate::telemetry::{FlightKind, NetTelemetry, TelemetryConfig};
use crate::trace::{TraceCtx, TracePoint, Tracer};
use crate::types::{blocks_for, NodeId, Packet, Vl};
use ibsim_cc::HcaCc;
use ibsim_engine::queue::EventQueue;
use ibsim_engine::rng::Rng;
use ibsim_engine::time::{Time, TimeDelta};
use ibsim_topo::{Endpoint, Topology};
use std::sync::Arc;

/// A device reference: switches and HCAs live in separate arenas.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Dev {
    Switch(u32),
    Hca(u32),
}

/// A unidirectional channel (each topology cable becomes two).
#[derive(Clone, Copy, Debug)]
pub struct Channel {
    pub from: (Dev, u16),
    pub to: (Dev, u16),
    pub delay: TimeDelta,
    /// Channel id of the opposite direction (credit return path).
    pub reverse: u32,
}

impl Channel {
    /// Blocks per VL of the input buffer this channel feeds: the credits
    /// its sender starts with.
    pub(crate) fn capacity(&self, cfg: &NetConfig) -> u32 {
        match self.to.0 {
            Dev::Switch(_) => cfg.switch_ibuf_blocks,
            Dev::Hca(_) => cfg.hca_ibuf_blocks,
        }
    }
}

/// Simulation events, as the dispatch path reads them. Packet payloads
/// are arena handles ([`PktHandle`]) into the network's [`PacketPool`];
/// checkpoints persist the resolved packets via
/// [`crate::state::EventState`] instead. The queues never hold this
/// enum: they hold its packed form, [`Ev`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Event {
    /// Packet head reaches the receiving end of `ch` (switch ingress).
    SwArrive { ch: u32, h: PktHandle },
    /// Packet tail fully arrives at an HCA.
    HcaArrive { ch: u32, h: PktHandle },
    /// Switch output transmitter frees up.
    SwTxDone { sw: u32, port: u16 },
    /// Explicit arbitration trigger (packet became ready).
    SwTryArb { sw: u32, port: u16 },
    /// Flow-control credit update reaches a switch output port.
    SwCredit {
        sw: u32,
        port: u16,
        vl: Vl,
        blocks: u32,
    },
    /// HCA transmitter frees up.
    HcaTxDone { hca: u32 },
    /// Injection wakeup (budget/IRD gate opens).
    HcaTrySend { hca: u32 },
    /// Flow-control credit update reaches an HCA.
    HcaCredit { hca: u32, vl: Vl, blocks: u32 },
    /// HCA sink finished draining a packet.
    SinkDone { hca: u32 },
    /// CCTI recovery-timer expiry at an HCA.
    CctiTick { hca: u32 },
}

/// An [`Event`] as every queue holds it — the main queue, the dispatch
/// batch, a shard's window queue and a [`QueueSnapshot`]'s entries:
/// two words, `tag | x << 32` (`x` the event's channel or device) and
/// `lo | hi << 32` (`lo` a packet handle or `port | vl << 16`, `hi` a
/// credit's blocks).
///
/// Two words rather than the enum because of how each is written. The
/// enum is stored field by field — a one-byte tag, a two-byte port, a
/// four-byte device — and the queue then copies it with eight-byte
/// loads, which the store buffer cannot forward from narrower stores:
/// every insert and every pop stalled until those stores retired. The
/// words are assembled in registers and stored whole, so every later
/// copy reads what one store wrote. Packed once where an event is
/// scheduled, unpacked once where it is dispatched.
///
/// [`QueueSnapshot`]: ibsim_engine::QueueSnapshot
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Ev(u64, u64);

const _: () = assert!(std::mem::size_of::<Ev>() == 16);
const _: () = assert!(ibsim_engine::queue::entry_size::<Ev>() == 32);

impl Ev {
    #[inline(always)]
    pub fn pack(ev: Event) -> Ev {
        let w = |tag: u64, x: u32, lo: u32, hi: u32| {
            Ev(tag | (x as u64) << 32, lo as u64 | (hi as u64) << 32)
        };
        let sub = |port: u16, vl: Vl| port as u32 | (vl as u32) << 16;
        match ev {
            Event::SwArrive { ch, h } => w(0, ch, h.bits(), 0),
            Event::HcaArrive { ch, h } => w(1, ch, h.bits(), 0),
            Event::SwTxDone { sw, port } => w(2, sw, sub(port, 0), 0),
            Event::SwTryArb { sw, port } => w(3, sw, sub(port, 0), 0),
            Event::SwCredit {
                sw,
                port,
                vl,
                blocks,
            } => w(4, sw, sub(port, vl), blocks),
            Event::HcaTxDone { hca } => w(5, hca, 0, 0),
            Event::HcaTrySend { hca } => w(6, hca, 0, 0),
            Event::HcaCredit { hca, vl, blocks } => w(7, hca, sub(0, vl), blocks),
            Event::SinkDone { hca } => w(8, hca, 0, 0),
            Event::CctiTick { hca } => w(9, hca, 0, 0),
        }
    }

    #[inline(always)]
    pub fn unpack(self) -> Event {
        let x = (self.0 >> 32) as u32;
        let (lo, blocks) = (self.1 as u32, (self.1 >> 32) as u32);
        let h = PktHandle::from_bits(lo);
        let (port, vl) = (lo as u16, (lo >> 16) as Vl);
        match self.0 as u32 {
            0 => Event::SwArrive { ch: x, h },
            1 => Event::HcaArrive { ch: x, h },
            2 => Event::SwTxDone { sw: x, port },
            3 => Event::SwTryArb { sw: x, port },
            4 => Event::SwCredit {
                sw: x,
                port,
                vl,
                blocks,
            },
            5 => Event::HcaTxDone { hca: x },
            6 => Event::HcaTrySend { hca: x },
            7 => Event::HcaCredit { hca: x, vl, blocks },
            8 => Event::SinkDone { hca: x },
            9 => Event::CctiTick { hca: x },
            tag => unreachable!("packed event with tag {tag}"),
        }
    }
}

/// The fully-wired simulator for one network.
pub struct Network {
    pub cfg: NetConfig,
    pub(crate) queue: EventQueue<Ev>,
    /// Arena of every packet currently alive in the fabric (queued in a
    /// VoQ or sink, or riding a scheduled event). Handle-indexed with
    /// free-list recycling: the steady-state event loop allocates
    /// nothing.
    pub(crate) pool: PacketPool,
    /// Reusable scratch for same-timestamp batch dispatch; empty
    /// between `run_*` calls.
    batch: Vec<(u64, Ev)>,
    /// Batch events extracted from the queue but not yet dispatched at
    /// the instant a telemetry sample runs — logically still pending,
    /// so [`Network::queue_depth`] adds them back and reads exactly
    /// what the one-pop-at-a-time loop read. Zero outside sampling.
    batch_undispatched: usize,
    pub switches: Vec<Switch>,
    pub hcas: Vec<Hca>,
    pub channels: Vec<Channel>,
    cc_params: Option<Arc<ibsim_cc::CcParams>>,
    pub(crate) tracer: Option<Tracer>,
    /// The engine self-profiler (`--profile`); `None` costs one branch
    /// per event. Purely observational: it reads the monotonic clock
    /// around work that already happens and never touches simulation
    /// state.
    pub(crate) prof: Option<Box<EngineProfiler>>,
    /// The invariant oracle; `None` costs one branch per event.
    pub(crate) audit: Option<Box<NetAudit>>,
    /// The telemetry sampler + flight recorder; `None` costs one branch
    /// per popped event.
    pub(crate) telemetry: Option<Box<NetTelemetry>>,
    pub(crate) primed: bool,
    pub(crate) measuring_since: Option<Time>,
    pub(crate) measured_until: Option<Time>,
    /// Sharded-executor state on the *master* network (`None` runs
    /// serial). Built by [`Network::set_shards`].
    pub(crate) shards: Option<Box<crate::shard::ShardExec>>,
    /// Event-routing overlay on a *shard* network: while present,
    /// [`Network::sched`] diverts newly scheduled events to the window
    /// queue or the cross-shard outbox instead of the main queue.
    /// Always `None` on the master.
    pub(crate) shard_route: Option<Box<crate::shard::ShardRoute>>,
}

impl Network {
    /// Instantiate `topo` with `cfg`. Panics on an invalid config; the
    /// topology is assumed validated (`Topology::validate`).
    pub fn new(topo: &Topology, cfg: NetConfig) -> Self {
        cfg.validate().expect("invalid NetConfig");
        let cc_params = cfg.cc.clone().map(Arc::new);
        let n_vls = cfg.n_vls;

        // Backlog slab room for every input buffer full of MTU-size
        // packets, less the one at a head: only smaller packets can
        // make a slab grow past it, so under MTU traffic a slab never
        // allocates once the fabric is built.
        let behind_head = (cfg.switch_ibuf_blocks / blocks_for(cfg.mtu)).saturating_sub(1);
        let mut switches: Vec<Switch> = topo
            .switches
            .iter()
            .zip(&topo.lfts)
            .map(|(s, lft)| {
                let arb = cfg.vl_arbitration.clone();
                let mut sw = Switch::with_arbitration(s.ports, n_vls, lft.clone(), arb);
                sw.reserve_backlog(behind_head as usize);
                sw
            })
            .collect();
        let num_nodes = topo.num_hcas as u32;
        let mut hcas: Vec<Hca> = (0..topo.num_hcas)
            .map(|i| {
                let params = cc_params
                    .clone()
                    .unwrap_or_else(|| Arc::new(ibsim_cc::CcParams::paper_table1()));
                Hca::new(i as NodeId, num_nodes, n_vls, HcaCc::new(params))
            })
            .collect();

        // Expand cables into unidirectional channel pairs and wire ports.
        let mut channels = Vec::with_capacity(topo.num_channels());
        let as_dev = |ep: Endpoint| -> (Dev, u16) {
            match ep {
                Endpoint::Hca(h) => (Dev::Hca(h as u32), 0),
                Endpoint::SwitchPort { switch, port } => (Dev::Switch(switch as u32), port as u16),
            }
        };
        for l in &topo.links {
            let a = as_dev(l.a);
            let b = as_dev(l.b);
            let fwd = channels.len() as u32;
            channels.push(Channel {
                from: a,
                to: b,
                delay: cfg.link_delay,
                reverse: fwd + 1,
            });
            channels.push(Channel {
                from: b,
                to: a,
                delay: cfg.link_delay,
                reverse: fwd,
            });
        }
        for (id, ch) in channels.iter().enumerate() {
            let id = id as u32;
            match ch.from.0 {
                Dev::Switch(s) => {
                    switches[s as usize].ports[ch.from.1 as usize].out_channel = Some(id)
                }
                Dev::Hca(h) => hcas[h as usize].out_channel = id,
            }
            match ch.to.0 {
                Dev::Switch(s) => {
                    switches[s as usize].ports[ch.to.1 as usize].in_channel = Some(id)
                }
                Dev::Hca(h) => hcas[h as usize].in_channel = id,
            }
        }

        for sw in switches.iter_mut() {
            sw.wire(&channels);
        }

        // Initial credits: the downstream input buffer size, per VL.
        for ch in &channels {
            let credit = ch.capacity(&cfg);
            match ch.from.0 {
                Dev::Switch(s) => {
                    for vl in 0..n_vls {
                        switches[s as usize].set_credit(ch.from.1, vl, credit);
                    }
                }
                Dev::Hca(h) => {
                    hcas[h as usize].credits = vec![credit; n_vls as usize];
                }
            }
        }

        // Congestion detectors, Victim_Mask on HCA-facing ports.
        if let Some(params) = &cc_params {
            for sw in switches.iter_mut() {
                let victim: Vec<bool> = (0..sw.radix())
                    .map(|p| {
                        sw.ports[p]
                            .out_channel
                            .map(|c| matches!(channels[c as usize].to.0, Dev::Hca(_)))
                            .unwrap_or(false)
                    })
                    .collect();
                sw.install_cc(params, cfg.cc_detect_capacity, &victim);
            }
        }

        // Pending events scale with the wired port count: roughly one
        // in-flight packet or credit per unidirectional channel plus a
        // couple of self-events (wakeup, timer) per HCA.
        let pending_hint = channels.len() + hcas.len() * 2;
        Network {
            cfg,
            queue: EventQueue::with_capacity(pending_hint),
            pool: PacketPool::with_capacity(pending_hint),
            batch: Vec::with_capacity(64),
            batch_undispatched: 0,
            switches,
            hcas,
            channels,
            cc_params,
            tracer: None,
            prof: None,
            audit: None,
            telemetry: None,
            primed: false,
            measuring_since: None,
            measured_until: None,
            shards: None,
            shard_route: None,
        }
    }

    /// A shard network built from this master: its configuration,
    /// channels and CC parameters, a fresh queue and pool, `route`, and
    /// a placeholder in every device slot — a radix-0 switch sharing
    /// the master's forwarding table, an [`Hca::placeholder`] with a
    /// zero-capacity CC agent. The split swaps each shard's
    /// own devices in, so the devices of a sharded run exist once
    /// whatever the shard count; a placeholder reached by mistake
    /// panics on its first per-peer lookup.
    pub(crate) fn shard_shell(&self, route: Box<crate::shard::ShardRoute>) -> Network {
        let n_vls = self.cfg.n_vls;
        let params = self
            .cc_params
            .clone()
            .unwrap_or_else(|| Arc::new(ibsim_cc::CcParams::paper_table1()));
        let pending_hint = self.channels.len() + self.hcas.len() * 2;
        Network {
            cfg: self.cfg.clone(),
            // Replaced by the split's snapshot before the first window.
            queue: EventQueue::with_capacity(0),
            pool: PacketPool::with_capacity(pending_hint),
            batch: Vec::with_capacity(64),
            batch_undispatched: 0,
            switches: self
                .switches
                .iter()
                .map(|sw| Switch::new(0, n_vls, sw.lft.clone()))
                .collect(),
            hcas: self
                .hcas
                .iter()
                .map(|h| Hca::placeholder(h.id, n_vls, HcaCc::new(params.clone())))
                .collect(),
            channels: self.channels.clone(),
            cc_params: self.cc_params.clone(),
            tracer: None,
            prof: None,
            audit: None,
            telemetry: None,
            // Shards never prime: the master's queue is authoritative,
            // and its entries arrive at the split.
            primed: true,
            measuring_since: None,
            measured_until: None,
            shards: None,
            shard_route: Some(route),
        }
    }

    // ---- configuration before running ----------------------------------

    /// Install traffic classes on `node`, deriving each class's random
    /// stream from the root seed.
    pub fn set_classes(&mut self, node: NodeId, classes: Vec<TrafficClass>) {
        assert!(!self.primed, "set_classes after prime");
        let seed = self.cfg.seed;
        let hca = &mut self.hcas[node as usize];
        hca.classes = classes;
        for (i, c) in hca.classes.iter_mut().enumerate() {
            c.set_rng(Rng::derive(seed, (node as u64) << 8 | i as u64));
        }
    }

    /// Retarget a `Fixed`-destination class (moving hotspots); safe
    /// while running.
    pub fn retarget_class(&mut self, node: NodeId, class: usize, new_dst: NodeId) {
        self.hcas[node as usize].classes[class].retarget(new_dst);
        // The class may have been parked with an unreachable wakeup;
        // give the injector a nudge.
        self.nudge_hca(node);
    }

    /// Append timed sends to a script class (streaming workload
    /// feeders); safe while running. Like retargeting, the append
    /// happens between `run_until` segments, so it lands identically
    /// whether the engine is serial or sharded.
    pub fn append_script(&mut self, node: NodeId, class: usize, sends: &[crate::gen::ScriptSend]) {
        self.hcas[node as usize].classes[class].append_script(sends);
        // A drained-but-open script parks with an unreachable wakeup.
        self.nudge_hca(node);
    }

    /// Close a script class: no further appends; the class finishes
    /// when its queued sends drain. Closing creates no new work, so no
    /// injector nudge (and no event) is needed.
    pub fn close_script(&mut self, node: NodeId, class: usize) {
        self.hcas[node as usize].classes[class].close_script();
    }

    /// Total sends ever appended to a script class — the streaming
    /// feeder's resume cursor after a checkpoint restore.
    pub fn script_fed(&self, node: NodeId, class: usize) -> u64 {
        self.hcas[node as usize].classes[class]
            .script_state()
            .map_or(0, |s| s.fed)
    }

    /// Turn the invariant oracle on, auditing every `every` processed
    /// events (plus whenever [`Network::audit_now`] is called). Must be
    /// enabled before the first event is dispatched — the conservation
    /// ledgers start from an empty fabric.
    pub fn enable_audit(&mut self, every: u64) {
        assert!(
            self.queue.processed() == 0,
            "enable_audit after events were dispatched"
        );
        self.audit = Some(Box::new(NetAudit::new(
            self.channels.len(),
            self.cfg.n_vls as usize,
            self.hcas.len(),
            every,
        )));
    }

    pub fn audit_enabled(&self) -> bool {
        self.audit.is_some()
    }

    /// Turn the telemetry sampler + flight recorder on. Must be enabled
    /// before the first event is dispatched so the cumulative counters
    /// the sampler differences start from an empty fabric. Sampling
    /// never schedules events or draws randomness: a telemetry-on run
    /// is bit-identical to a telemetry-off run. The sampler runs on the
    /// serial loop only: arming it drops any shard split.
    pub fn enable_telemetry(&mut self, cfg: TelemetryConfig) {
        assert!(
            self.queue.processed() == 0,
            "enable_telemetry after events were dispatched"
        );
        self.shards = None;
        self.telemetry = Some(Box::new(NetTelemetry::new(self, cfg)));
    }

    pub fn telemetry_enabled(&self) -> bool {
        self.telemetry.is_some()
    }

    /// The telemetry state (sample table + flight recorder), if enabled.
    pub fn telemetry(&self) -> Option<&NetTelemetry> {
        self.telemetry.as_deref()
    }

    /// Events currently scheduled on the event queue (plus, during a
    /// mid-batch telemetry sample, batch events not yet dispatched).
    pub fn queue_depth(&self) -> usize {
        self.queue.pending() + self.batch_undispatched
    }

    /// Append a structured event to the flight recorder; no-op when
    /// telemetry is off. Runners use this for marks the net layer
    /// cannot see (measurement windows).
    pub fn flight_note(
        &mut self,
        kind: FlightKind,
        subject: impl Into<String>,
        detail: impl Into<String>,
    ) {
        if let Some(t) = &mut self.telemetry {
            t.record_flight(self.queue.now(), kind, subject, detail);
        }
    }

    /// The flight-recorder dump document (events window + current
    /// sample), serialised; `None` when telemetry is off.
    pub fn flight_dump_json(&self, reason: &str) -> Option<String> {
        self.telemetry.as_deref().map(|t| {
            serde_json::to_string_pretty(&t.dump(self.queue.now(), reason))
                .expect("flight dump serialises")
        })
    }

    /// Run a full audit pass now and return the report (clean and empty
    /// when the oracle is disabled). The caller decides whether to
    /// [`AuditReport::raise`].
    pub fn audit_now(&mut self) -> AuditReport {
        match self.audit.take() {
            Some(mut a) => {
                let report = a.check(self);
                self.audit = Some(a);
                report
            }
            None => AuditReport::default(),
        }
    }

    /// [`Network::audit_now`] plus flight-recorder context: a clean
    /// pass records an `AuditPass`, each violation records a
    /// `Violation`, and — when anything surfaced — the whole flight
    /// window is dumped to `$IBSIM_FLIGHT_DUMP` (if set)
    /// *before* the caller gets the chance to raise and panic.
    pub fn audit_checked(&mut self) -> AuditReport {
        let report = self.audit_now();
        if self.telemetry.is_some() && self.audit.is_some() {
            if !report.is_clean() {
                let viols: Vec<String> = report.violations.iter().map(|v| v.to_string()).collect();
                for v in &viols {
                    self.flight_note(FlightKind::Violation, "audit", v.clone());
                }
                if let Ok(path) = std::env::var("IBSIM_FLIGHT_DUMP") {
                    if !path.is_empty() {
                        let doc = self
                            .flight_dump_json("audit violation")
                            .expect("telemetry is on");
                        let _ = std::fs::write(path, doc);
                    }
                }
            } else {
                self.flight_note(FlightKind::AuditPass, "audit", "clean".to_string());
            }
        }
        report
    }

    /// True when the periodic cadence wants a pass (advances the
    /// schedule).
    #[inline]
    fn audit_due(&mut self) -> bool {
        let processed = self.queue.processed();
        match &mut self.audit {
            Some(a) => a.due(processed),
            None => false,
        }
    }

    /// The (time, seq) key of the most recent event pop, if any.
    pub fn last_event_key(&self) -> Option<(Time, u64)> {
        self.queue.last_pop()
    }

    /// Trace the given (src, dst) flows hop by hop. Calls merge: a
    /// second call (in any order relative to `enable_audit` /
    /// `enable_telemetry`) widens the flow set and
    /// keeps records already collected, rather than silently dropping
    /// the earlier tracer. The tracer runs on the serial loop only:
    /// arming it drops any shard split, whether or not `set_shards`
    /// came first.
    pub fn enable_trace(&mut self, flows: impl IntoIterator<Item = (NodeId, NodeId)>) {
        self.shards = None;
        match &mut self.tracer {
            Some(t) => t.add_flows(flows),
            None => self.tracer = Some(Tracer::for_flows(flows)),
        }
    }

    /// Collected trace records (empty tracer if tracing is off).
    pub fn tracer(&self) -> Option<&Tracer> {
        self.tracer.as_ref()
    }

    /// Turn the engine self-profiler on: every subsequent dispatched
    /// event, queue pop, telemetry sample and audit pass is counted in
    /// its subsystem's bin, and a fixed one-in-N sample of batches is
    /// timed (see [`crate::profile`]). Byte-identical simulation
    /// outputs — the profiler only reads the monotonic clock.
    pub fn enable_profile(&mut self) {
        if self.prof.is_none() {
            self.prof = Some(Box::new(EngineProfiler::new()));
        }
    }

    pub fn profile_enabled(&self) -> bool {
        self.prof.is_some()
    }

    /// The per-run profile breakdown (`None` when profiling is off).
    pub fn profile_report(&self) -> Option<ProfileReport> {
        let p = self.prof.as_ref()?;
        Some(p.report(self.queue.processed(), self.queue.lane_stats()))
    }

    /// Is `pkt` on a traced flow? The per-hop sites check this before
    /// building a record's context, which can walk a switch's VoQs.
    #[inline]
    fn tracing(&self, pkt: &Packet) -> bool {
        self.tracer
            .as_ref()
            .is_some_and(|t| t.wants_packet(pkt.src, pkt.dst, pkt.is_cnp()))
    }

    #[inline]
    fn trace(&mut self, at: Time, pkt: &Packet, point: TracePoint, ctx: TraceCtx) {
        if let Some(t) = &mut self.tracer {
            t.record(at, pkt.src, pkt.dst, pkt.seq, pkt.is_cnp(), point, ctx);
        }
    }

    /// Schedule the initial events. Call once, before `run_until`.
    pub(crate) fn prime(&mut self) {
        assert!(!self.primed, "prime twice");
        self.primed = true;
        for i in 0..self.hcas.len() {
            if !self.hcas[i].classes.is_empty() {
                self.hcas[i].wakeup_at = Time::ZERO;
                self.queue
                    .schedule(Time::ZERO, Ev::pack(Event::HcaTrySend { hca: i as u32 }));
                if let Some(p) = &self.cc_params {
                    // Stagger each HCA's recovery-timer phase with a
                    // deterministic offset. Real adapters boot at
                    // different times; a fleet of timers firing in
                    // lockstep would synchronise every flow's additive
                    // decrease and amplify the AIMD sawtooth.
                    let phase = Rng::derive(self.cfg.seed, 0xC711 ^ i as u64)
                        .next_below(p.timer_period_ps());
                    self.queue.schedule(
                        Time(p.timer_period_ps() + phase),
                        Ev::pack(Event::CctiTick { hca: i as u32 }),
                    );
                }
            }
        }
    }

    // ---- running ---------------------------------------------------------

    pub fn now(&self) -> Time {
        self.queue.now()
    }
    pub fn events_processed(&self) -> u64 {
        self.queue.processed()
    }
    pub fn cc_enabled(&self) -> bool {
        self.cc_params.is_some()
    }
    /// Loss hook for oracle tests: silently discard the head
    /// packet queued from `in_port` on switch `sw` (see
    /// [`Switch::drop_queued_for_test`]). Nothing ledgers the loss.
    pub fn drop_queued_for_test(&mut self, sw: usize, in_port: u16) -> Option<Packet> {
        self.switches[sw].drop_queued_for_test(in_port, &mut self.pool)
    }

    /// Run the event loop until simulated time `t` (events at exactly
    /// `t` are processed).
    ///
    /// Events are drained in same-timestamp batches: one queue
    /// extraction per distinct time, with the telemetry boundary check
    /// hoisted out of the per-event path. Dispatch order within a batch
    /// is ascending sequence number, so the event stream — and with it
    /// the audit cadence and every golden checkpoint — is byte-identical
    /// to the one-pop-at-a-time loop. Events scheduled *during* a batch
    /// for the same timestamp get higher sequence numbers and form the
    /// next batch at that time.
    pub fn run_until(&mut self, t: Time) {
        // The sharded executor replicates the serial event stream
        // exactly. Observers (telemetry, tracer) keep a run serial:
        // `set_shards` declines them, and arming an observer afterwards
        // drops the split.
        if self.shards.is_some() {
            self.profiling(EngineProfiler::wall_begin);
            self.run_until_sharded(t);
            return self.profiling(EngineProfiler::run_end);
        }
        self.profiling(EngineProfiler::run_begin);
        if !self.primed {
            self.prime();
        }
        let mut batch = std::mem::take(&mut self.batch);
        while let Some(at) = self.pop_batch(t, &mut batch) {
            for i in 0..batch.len() {
                let (seq, ev) = batch[i];
                self.queue.note_dispatched(at, seq);
                // Sample every cadence boundary strictly before this
                // batch: state is constant in between, so the boundary
                // reading is exact even though it is taken lazily. One
                // check per batch — the first event consumes every due
                // boundary.
                if i == 0 && matches!(&self.telemetry, Some(tel) if tel.due_before(at)) {
                    self.batch_undispatched = batch.len() - 1;
                    self.telemetry_sample(at, false);
                    self.batch_undispatched = 0;
                }
                self.dispatch_profiled(at, ev);
                if self.audit_due() {
                    self.timed(Subsystem::Audit, |net| net.audit_checked().raise());
                }
            }
            batch.clear();
        }
        self.batch = batch;
        // Boundaries up to and including `t` belong to this segment.
        if matches!(&self.telemetry, Some(tel) if tel.due_at(t)) {
            self.telemetry_sample(t, true);
        }
        self.profiling(EngineProfiler::run_end);
    }

    /// Take/restore dance around `&mut telemetry` + `&self` sampling.
    /// Samples boundaries `< at` (or `≤ at` when `inclusive`).
    fn telemetry_sample(&mut self, at: Time, inclusive: bool) {
        self.timed(Subsystem::Telemetry, |net| {
            if let Some(mut tel) = net.telemetry.take() {
                while if inclusive {
                    tel.due_at(at)
                } else {
                    tel.due_before(at)
                } {
                    let b = tel.pop_boundary();
                    tel.sample(b, net);
                }
                net.telemetry = Some(tel);
            }
        });
    }

    /// Tell the profiler, when there is one.
    #[inline]
    pub(crate) fn profiling(&mut self, f: impl FnOnce(&mut EngineProfiler)) {
        if let Some(p) = self.prof.as_deref_mut() {
            f(p);
        }
    }

    /// Run `f`, as an always-timed region of `s` when profiling: the
    /// rare, long paths (telemetry sample, audit pass) that a one-in-N
    /// sample would mostly miss.
    fn timed(&mut self, s: Subsystem, f: impl FnOnce(&mut Self)) {
        let t0 = self.prof.as_deref_mut().map(|p| p.start());
        f(self);
        if let (Some(t0), Some(p)) = (t0, self.prof.as_deref_mut()) {
            p.stop(s, t0);
        }
    }

    /// `pop_batch_until`; when profiling, opens the batch on the
    /// profiler (which decides whether this batch is timed) and closes
    /// the pop into [`Subsystem::QueuePop`].
    #[inline]
    fn pop_batch(&mut self, t: Time, batch: &mut Vec<(u64, Ev)>) -> Option<Time> {
        let Some(p) = self.prof.as_deref_mut() else {
            return self.queue.pop_batch_until(t, batch);
        };
        p.begin_batch();
        let r = self.queue.pop_batch_until(t, batch);
        p.lap(Subsystem::QueuePop);
        r
    }

    /// `dispatch`, closed into the event kind's subsystem when
    /// profiling. The off cost is one branch. Never inlined: the three
    /// run loops share this one copy of the dispatch body.
    #[inline(never)]
    pub(crate) fn dispatch_profiled(&mut self, at: Time, ev: Ev) {
        self.dispatch(at, ev.unpack());
        self.profiling(|p| p.lap(Network::subsystem_of(&ev.unpack())));
    }

    /// Run until the workload drains (every class finished, every
    /// packet delivered). Only terminates for workloads with message
    /// caps; panics after `max_events` as a runaway guard. Returns the
    /// time of the last meaningful event.
    pub fn run_to_idle(&mut self, max_events: u64) -> Time {
        if !self.primed {
            self.prime();
        }
        self.profiling(EngineProfiler::run_begin);
        let mut last = self.queue.now();
        let mut batch = std::mem::take(&mut self.batch);
        while let Some(at) = self.pop_batch(Time::MAX, &mut batch) {
            // Lazily sampled before the first event actually dispatched
            // at `at` — a batch of nothing but dropped ticks samples
            // nothing, exactly like the one-pop loop did.
            let mut sampled = false;
            for i in 0..batch.len() {
                let (seq, ev) = batch[i];
                self.queue.note_dispatched(at, seq);
                let is_tick = matches!(ev.unpack(), Event::CctiTick { .. });
                if is_tick && self.workload_drained() {
                    // Drop the perpetual recovery timer once nothing can
                    // ever send again; the heap then drains and we stop.
                    continue;
                }
                if !sampled {
                    if matches!(&self.telemetry, Some(tel) if tel.due_before(at)) {
                        self.batch_undispatched = batch.len() - 1 - i;
                        self.telemetry_sample(at, false);
                        self.batch_undispatched = 0;
                    }
                    sampled = true;
                }
                self.dispatch_profiled(at, ev);
                if self.audit_due() {
                    self.timed(Subsystem::Audit, |net| net.audit_checked().raise());
                }
                if !is_tick {
                    last = at;
                }
                assert!(
                    self.queue.processed() <= max_events,
                    "run_to_idle exceeded {max_events} events; unbounded workload?"
                );
            }
            batch.clear();
        }
        self.batch = batch;
        if matches!(&self.telemetry, Some(tel) if tel.due_at(last)) {
            self.telemetry_sample(last, true);
        }
        self.profiling(EngineProfiler::run_end);
        last
    }

    /// Credit conservation at quiescence: once nothing is in flight,
    /// every sender-side credit counter must have recovered to the full
    /// downstream buffer capacity — any shortfall means credits (i.e.
    /// buffer space) leaked somewhere. Returns the first violation.
    pub fn check_credits_at_rest(&self) -> Result<(), String> {
        for (id, ch) in self.channels.iter().enumerate() {
            let expect = ch.capacity(&self.cfg);
            for vl in 0..self.cfg.n_vls {
                let c = match ch.from {
                    (Dev::Switch(sw), port) => self.switches[sw as usize].credit(port, vl),
                    (Dev::Hca(h), _) => self.hcas[h as usize].credits[vl as usize],
                };
                if c != expect {
                    return Err(format!(
                        "channel {id} VL {vl}: {c} credits at rest, expected {expect}"
                    ));
                }
            }
        }
        Ok(())
    }

    /// Every class finished, nothing in flight, every sink empty.
    pub fn workload_drained(&self) -> bool {
        let delivered: u64 = self
            .hcas
            .iter()
            .map(|h| h.delivered_packets + h.cnps_delivered)
            .sum();
        self.hcas.iter().all(|h| {
            h.sink_depth() == 0 && h.pending_cnps() == 0 && h.classes.iter().all(|c| c.finished())
        }) && self.total_injected_packets() == delivered
    }

    // ---- measurement -----------------------------------------------------

    /// Open the measurement window at the current instant (end of
    /// warmup).
    pub fn start_measurement(&mut self) {
        let now = self.queue.now();
        self.measuring_since = Some(now);
        self.measured_until = None;
        for h in &mut self.hcas {
            h.rx_meter.start_window(now);
            h.tx_meter.start_window(now);
            h.clear_rx_by_src();
        }
    }

    /// Close the measurement window at the current instant.
    pub fn stop_measurement(&mut self) {
        let now = self.queue.now();
        self.measured_until = Some(now);
        for h in &mut self.hcas {
            h.rx_meter.end_window(now);
            h.tx_meter.end_window(now);
        }
    }

    /// True while a measurement window is open and not yet closed.
    /// A resumed run uses this to skip re-opening a window the
    /// checkpointed segment already opened.
    pub fn is_measuring(&self) -> bool {
        self.measuring_since.is_some() && self.measured_until.is_none()
    }

    /// Average receive rate of `node` over the measurement window, Gbit/s.
    pub fn rx_gbps(&self, node: NodeId) -> f64 {
        self.hcas[node as usize].rx_meter.gbps(self.queue.now())
    }

    /// Average injection rate of `node` over the window, Gbit/s.
    pub fn tx_gbps(&self, node: NodeId) -> f64 {
        self.hcas[node as usize].tx_meter.gbps(self.queue.now())
    }

    /// Sum of all nodes' receive rates (total network throughput).
    pub fn total_rx_gbps(&self) -> f64 {
        (0..self.hcas.len() as u32).map(|n| self.rx_gbps(n)).sum()
    }

    /// Merged end-to-end latency histogram (picoseconds) over all
    /// deliveries — window-independent (records since simulation start).
    pub fn latency_histogram(&self) -> ibsim_engine::Histogram {
        let mut h = ibsim_engine::Histogram::new();
        for hca in &self.hcas {
            h.merge(&hca.latency);
        }
        h
    }

    /// Total FECN marks applied across all switches.
    pub fn total_fecn_marks(&self) -> u64 {
        self.switches.iter().map(Switch::marked_packets).sum()
    }

    /// Total BECNs (CNPs) received across all HCAs.
    pub fn total_becns(&self) -> u64 {
        self.hcas.iter().map(|h| h.cc.becns_received()).sum()
    }

    /// Highest CCTI across all HCAs right now.
    pub fn max_ccti(&self) -> u16 {
        self.hcas.iter().map(|h| h.cc.max_ccti()).max().unwrap_or(0)
    }

    pub fn total_injected_packets(&self) -> u64 {
        self.hcas.iter().map(|h| h.injected_packets).sum()
    }
    pub fn total_delivered_packets(&self) -> u64 {
        self.hcas.iter().map(|h| h.delivered_packets).sum()
    }

    // ---- event dispatch ---------------------------------------------------

    /// Schedule an event from inside the dispatch path. Serial runs
    /// (no [`crate::shard::ShardRoute`] overlay) go straight to the
    /// main queue with the next counter sequence. On a shard, the
    /// event instead gets a *provisional* key: locally-owned events
    /// land in the window queue, foreign-owned events are serialized
    /// into the outbox — and the barrier replay later renames every
    /// provisional key to the exact `(time, seq)` the serial engine
    /// would have assigned. Only dispatch-path sites route through
    /// here; priming and configuration run serial by construction.
    #[inline]
    pub(crate) fn sched(&mut self, at: Time, ev: Event) {
        match &mut self.shard_route {
            None => self.queue.schedule(at, Ev::pack(ev)),
            Some(r) => {
                let prov = r.prov;
                r.prov += 1;
                let delta = at.0 - r.now.0;
                let target = r.owner_of(&ev);
                if target == r.my {
                    if at > r.w_end {
                        // Cannot pop before the barrier: skip the queue,
                        // wait for relabelling as a plain list entry.
                        r.later_min = r.later_min.min(at);
                        r.later.push((at, prov, delta, Ev::pack(ev)));
                    } else {
                        let key = crate::shard::PROV_BASE + prov;
                        r.win.schedule_keyed_hint(at, key, delta, Ev::pack(ev));
                    }
                } else {
                    let es = crate::state::EventState::capture(ev, &self.pool);
                    r.outbox.push(crate::shard::OutMsg {
                        at,
                        delta,
                        prov,
                        target,
                        ev: es,
                    });
                    // The packet now travels by value; free its slot in
                    // this shard's arena (cross-shard hand-off must
                    // neither leak nor double-free).
                    if let Event::SwArrive { h, .. } | Event::HcaArrive { h, .. } = ev {
                        self.pool.release(h);
                    }
                }
            }
        }
    }

    /// Which profiler bin an event kind's dispatch belongs to.
    pub(crate) fn subsystem_of(ev: &Event) -> Subsystem {
        match ev {
            Event::SwArrive { .. } => Subsystem::Routing,
            Event::SwTxDone { .. } | Event::SwTryArb { .. } | Event::SwCredit { .. } => {
                Subsystem::Arbitration
            }
            Event::HcaTxDone { .. } | Event::HcaTrySend { .. } | Event::HcaCredit { .. } => {
                Subsystem::Inject
            }
            Event::HcaArrive { .. } | Event::SinkDone { .. } => Subsystem::Sink,
            Event::CctiTick { .. } => Subsystem::Cc,
        }
    }

    /// Inlined into [`Self::dispatch_profiled`] so that the unpacked
    /// event is never materialised: the match on the packed tag and
    /// this match on the enum fold into one.
    #[inline(always)]
    pub(crate) fn dispatch(&mut self, now: Time, ev: Event) {
        match ev {
            Event::SwArrive { ch, h } => self.on_sw_arrive(now, ch, h),
            Event::HcaArrive { ch, h } => self.on_hca_arrive(now, ch, h),
            Event::SwTxDone { sw, port } | Event::SwTryArb { sw, port } => {
                self.sw_arbitrate(now, sw, port)
            }
            Event::SwCredit {
                sw,
                port,
                vl,
                blocks,
            } => {
                if let Some(a) = &mut self.audit {
                    let ch = self.switches[sw as usize].ports[port as usize]
                        .out_channel
                        .expect("credit return to an uncabled port");
                    a.note_credit_returned(ch, vl, blocks);
                }
                self.switches[sw as usize].add_credits(port, vl, blocks);
                self.sw_arbitrate(now, sw, port);
            }
            Event::HcaTxDone { hca } => self.hca_try_send(now, hca),
            Event::HcaTrySend { hca } => {
                self.hcas[hca as usize].wakeup_at = Time::MAX;
                self.hca_try_send(now, hca);
            }
            Event::HcaCredit { hca, vl, blocks } => {
                if let Some(a) = &mut self.audit {
                    a.note_credit_returned(self.hcas[hca as usize].out_channel, vl, blocks);
                }
                self.hcas[hca as usize].credits[vl as usize] += blocks;
                self.hca_try_send(now, hca);
            }
            Event::SinkDone { hca } => self.on_sink_done(now, hca),
            Event::CctiTick { hca } => {
                let h = &mut self.hcas[hca as usize];
                if let Some(a) = &mut self.audit {
                    // `max_ccti` walks the whole flow table; only the
                    // ledger reads it.
                    let before = h.cc.max_ccti();
                    h.cc.on_timer_at(now);
                    a.note_timer(hca, now, before, h.cc.max_ccti());
                } else {
                    h.cc.on_timer_at(now);
                }
                if let Some(p) = &self.cc_params {
                    let period = p.timer_period_ps();
                    self.sched(now + TimeDelta(period), Event::CctiTick { hca });
                }
            }
        }
    }

    /// Packet head arrives at a switch ingress: route, buffer, and
    /// trigger arbitration once the routing pipeline is done.
    fn on_sw_arrive(&mut self, now: Time, ch: u32, h: PktHandle) {
        let channel = self.channels[ch as usize];
        let (Dev::Switch(si), in_port) = channel.to else {
            unreachable!("SwArrive on a non-switch endpoint")
        };
        let pkt = *self.pool.get(h);
        if self.tracing(&pkt) {
            // Context at ingress: depth of the VoQ set feeding the
            // egress this packet routes to, and that egress's credits —
            // the two numbers that decide how long it will wait here.
            let sw = &self.switches[si as usize];
            let out = sw.route(pkt.dst);
            let ctx = TraceCtx {
                vl: pkt.vl,
                voq: sw.queued_toward(out) as u32,
                credit: sw.credit(out, pkt.vl),
            };
            self.trace(
                now,
                &pkt,
                TracePoint::SwitchArrive {
                    switch: si,
                    in_port,
                },
                ctx,
            );
        }
        if let Some(a) = &mut self.audit {
            a.note_arrive(ch, pkt.vl, pkt.blocks());
        }
        let sw = &mut self.switches[si as usize];
        let out = sw.route(pkt.dst);
        let ready_at = now + self.cfg.switch_latency;
        let busy_until = sw.busy_until(out);
        sw.enqueue(in_port, out, h, ready_at, &self.pool);
        // If the transmitter will still be busy at ready time, the
        // pending SwTxDone re-arbitrates; otherwise schedule a trigger.
        if busy_until <= ready_at {
            self.sched(ready_at, Event::SwTryArb { sw: si, port: out });
        }
    }

    /// Run one arbitration round on a switch output and wire up the
    /// consequences of a grant.
    fn sw_arbitrate(&mut self, now: Time, si: u32, port: u16) {
        let link_bw = self.cfg.link_bw;
        let grant = {
            let sw = &mut self.switches[si as usize];
            sw.arbitrate(
                port,
                now,
                |b| link_bw.tx_time(b as u64),
                self.cc_params.as_deref(),
                &mut self.pool,
            )
        };
        let Some(Grant {
            pkt,
            h,
            in_port,
            blocks,
            ser,
        }) = grant
        else {
            return;
        };
        if self.tracing(&pkt) {
            // Context at grant: what is still queued behind this packet
            // toward the same egress, and the credits left after the
            // grant consumed its blocks.
            let sw = &self.switches[si as usize];
            let ctx = TraceCtx {
                vl: pkt.vl,
                voq: sw.queued_toward(port) as u32,
                credit: sw.credit(port, pkt.vl),
            };
            self.trace(
                now,
                &pkt,
                TracePoint::Forward {
                    switch: si,
                    out_port: port,
                    fecn: pkt.fecn,
                },
                ctx,
            );
        }
        if pkt.fecn && self.telemetry.is_some() {
            self.flight_note(
                FlightKind::Mark,
                format!("sw{si}.p{port}"),
                format!("{}->{} vl{} seq {}", pkt.src, pkt.dst, pkt.vl, pkt.seq),
            );
        }
        let vl = pkt.vl;

        // Transmitter done → next arbitration.
        self.sched(now + ser, Event::SwTxDone { sw: si, port });

        // Hand the packet to the peer, over the granting port's cable.
        let sw = &self.switches[si as usize];
        let (out, back) = (sw.link(port), sw.link(in_port));
        match out.peer.0 {
            Dev::Switch(_) => self.sched(now + out.delay, Event::SwArrive { ch: out.out_ch, h }),
            Dev::Hca(_) => self.sched(
                now + out.delay + ser,
                Event::HcaArrive { ch: out.out_ch, h },
            ),
        }

        // Return credits upstream, over the cable the packet came in
        // on, once the tail has left this ibuf.
        if let Some(a) = &mut self.audit {
            a.note_grant(out.out_ch, back.in_ch, vl, blocks);
        }
        let at = now + ser + back.delay + self.cfg.credit_latency;
        match back.peer {
            (Dev::Switch(up), up_port) => self.sched(
                at,
                Event::SwCredit {
                    sw: up,
                    port: up_port,
                    vl,
                    blocks,
                },
            ),
            (Dev::Hca(h), _) => self.sched(at, Event::HcaCredit { hca: h, vl, blocks }),
        }
    }

    /// Ask an HCA's injector for work and wire up a sent packet.
    fn hca_try_send(&mut self, now: Time, hi: u32) {
        let num_nodes = self.hcas.len() as u32;
        let cc_on = self.cc_params.is_some();
        // Disjoint field borrows: the HCA is mutated while the config is
        // read — never clone NetConfig (it owns the CCT and arbitration
        // tables) on the per-event path.
        let h = &mut self.hcas[hi as usize];
        match h.next_packet(now, num_nodes, &self.cfg, cc_on) {
            NextSend::Packet(pkt) => {
                let ser = h.note_sent(&pkt, now, &self.cfg, cc_on);
                let out_ch = h.out_channel;
                let busy_until = h.busy_until;
                if let Some(a) = &mut self.audit {
                    a.note_send(out_ch, pkt.vl, pkt.blocks());
                }
                if self.tracing(&pkt) {
                    // Context at injection: CNPs still queued ahead of
                    // data (strict priority) and link credits on the VL
                    // the packet leaves on.
                    let h = &self.hcas[hi as usize];
                    let ctx = TraceCtx {
                        vl: pkt.vl,
                        voq: h.pending_cnps() as u32,
                        credit: h.credits[pkt.vl as usize],
                    };
                    self.trace(now, &pkt, TracePoint::Inject, ctx);
                }
                // The packet enters the arena here and leaves it at the
                // destination sink.
                let hp = self.pool.alloc(pkt);
                let channel = self.channels[out_ch as usize];
                self.sched(busy_until, Event::HcaTxDone { hca: hi });
                match channel.to.0 {
                    Dev::Switch(_) => {
                        self.sched(now + channel.delay, Event::SwArrive { ch: out_ch, h: hp })
                    }
                    Dev::Hca(_) => self.sched(
                        now + channel.delay + ser,
                        Event::HcaArrive { ch: out_ch, h: hp },
                    ),
                }
            }
            NextSend::WaitUntil(t) => self.schedule_hca_wakeup(hi, t),
            NextSend::Idle => {}
        }
    }

    /// Schedule (or keep) the earliest injector wakeup for `hi`.
    fn schedule_hca_wakeup(&mut self, hi: u32, t: Time) {
        let h = &mut self.hcas[hi as usize];
        if t < h.wakeup_at && t != Time::MAX {
            h.wakeup_at = t;
            self.sched(t, Event::HcaTrySend { hca: hi });
        }
    }

    /// Give an HCA's injector a chance to run "now" (used after
    /// external state changes such as hotspot retargeting).
    fn nudge_hca(&mut self, node: NodeId) {
        if self.primed {
            let now = self.queue.now();
            self.schedule_hca_wakeup(node, now);
        }
    }

    /// Packet tail fully arrived at an HCA.
    fn on_hca_arrive(&mut self, now: Time, ch: u32, h: PktHandle) {
        let channel = self.channels[ch as usize];
        let (Dev::Hca(hi), _) = channel.to else {
            unreachable!("HcaArrive on a non-HCA endpoint")
        };
        let cc_on = self.cc_params.is_some();
        let pkt = *self.pool.get(h);
        if self.tracing(&pkt) {
            let hca = &self.hcas[hi as usize];
            let ctx = TraceCtx {
                vl: pkt.vl,
                voq: hca.sink_depth() as u32,
                credit: hca.credits[pkt.vl as usize],
            };
            self.trace(now, &pkt, TracePoint::Arrive, ctx);
        }
        if let Some(a) = &mut self.audit {
            a.note_arrive(ch, pkt.vl, pkt.blocks());
        }
        let had_cnp_work;
        let start;
        {
            let hca = &mut self.hcas[hi as usize];
            let before = hca.pending_cnps();
            hca.receive(h, &self.pool, cc_on);
            had_cnp_work = hca.pending_cnps() > before;
            start = hca.start_drain(&self.cfg, &self.pool);
        }
        if let Some(dt) = start {
            self.sched(now + dt, Event::SinkDone { hca: hi });
        }
        if had_cnp_work {
            if self.tracing(&pkt) {
                // Causal edge: the FECN mark on this data packet just
                // queued a CNP toward its source. Recorded under the
                // data packet's key so the span exporter can pair
                // mark → CNP without guessing.
                let hca = &self.hcas[hi as usize];
                let ctx = TraceCtx {
                    vl: pkt.vl,
                    voq: hca.pending_cnps() as u32,
                    credit: hca.credits[pkt.vl as usize],
                };
                self.trace(now, &pkt, TracePoint::CnpQueued, ctx);
            }
            // CNPs preempt the injector queue; try to send immediately.
            self.schedule_hca_wakeup(hi, now);
        }
    }

    /// Sink finished one packet: release credits upstream, deliver, and
    /// start the next drain.
    fn on_sink_done(&mut self, now: Time, hi: u32) {
        let cc_on = self.cc_params.is_some();
        // Peek the drain ahead of consuming it: if a CNP is about to
        // deliver, its flow's CCTI (pre-raise) is the causal "before"
        // the tracer pairs with the post-`on_becn` "after".
        let cnp_peek = if self.tracer.is_some() && cc_on {
            let h = &self.hcas[hi as usize];
            h.draining_packet(&self.pool)
                .filter(|p| p.is_cnp() && self.tracing(p))
                .map(|p| (p, h.cc.ccti(h.cc.flow_key(p.src, p.sl))))
        } else {
            None
        };
        let (pkt, next) = {
            let h = &mut self.hcas[hi as usize];
            let pkt = h.finish_drain(now, cc_on, &mut self.pool);
            let next = h.start_drain(&self.cfg, &self.pool);
            (pkt, next)
        };
        if let (Some(a), false) = (&mut self.audit, pkt.is_cnp()) {
            a.note_delivered(hi, pkt.src, pkt.seq, now);
        }
        if self.tracing(&pkt) {
            let (deliver_ctx, raise) = {
                let hca = &self.hcas[hi as usize];
                let deliver_ctx = TraceCtx {
                    vl: pkt.vl,
                    voq: hca.sink_depth() as u32,
                    credit: hca.credits[pkt.vl as usize],
                };
                let raise = cnp_peek.map(|(cnp, before)| {
                    let key = hca.cc.flow_key(cnp.src, cnp.sl);
                    let after = hca.cc.ccti(key);
                    // Would the raised CCTI delay a full-MTU packet
                    // right now? That is the IRD throttle the paper's
                    // mechanism exists to apply.
                    let mtu_time = self.cfg.link_bw.tx_time(self.cfg.mtu as u64);
                    let delay = hca.cc.params().cct.ird_delay(after, mtu_time);
                    (cnp, before, after, delay)
                });
                (deliver_ctx, raise)
            };
            self.trace(now, &pkt, TracePoint::Deliver, deliver_ctx);
            if let Some((cnp, before, after, delay)) = raise {
                let ctx = TraceCtx {
                    vl: cnp.vl,
                    voq: deliver_ctx.voq,
                    credit: 0,
                };
                self.trace(now, &cnp, TracePoint::CctiRaise { before, after }, ctx);
                if delay > TimeDelta::ZERO {
                    self.trace(
                        now,
                        &cnp,
                        TracePoint::Throttle {
                            delay_ps: delay.as_ps(),
                        },
                        ctx,
                    );
                }
            }
        }
        if pkt.is_cnp() && self.telemetry.is_some() {
            let ccti = self.hcas[hi as usize].cc.max_ccti();
            self.flight_note(
                FlightKind::Throttle,
                format!("hca{hi}"),
                format!("cnp from {}; max_ccti {ccti}", pkt.src),
            );
        }
        if let Some(dt) = next {
            self.sched(now + dt, Event::SinkDone { hca: hi });
        }
        // Credits back to the upstream switch output.
        let in_ch = self.hcas[hi as usize].in_channel;
        if let Some(a) = &mut self.audit {
            a.note_credit_pending(in_ch, pkt.vl, pkt.blocks());
        }
        let rev = self.channels[self.channels[in_ch as usize].reverse as usize];
        let at = now + rev.delay + self.cfg.credit_latency;
        match self.channels[in_ch as usize].from {
            (Dev::Switch(up), up_port) => self.sched(
                at,
                Event::SwCredit {
                    sw: up,
                    port: up_port,
                    vl: pkt.vl,
                    blocks: pkt.blocks(),
                },
            ),
            (Dev::Hca(_), _) => unreachable!("HCA fed directly by an HCA"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::DestPattern;
    use crate::profile::N_SUBSYSTEMS;
    use ibsim_topo::FatTreeSpec;
    use proptest::prelude::*;

    /// A field value: its type's extremes half the time (`port =
    /// u16::MAX`, `vl = 15`, `blocks = u32::MAX`, a handle with every
    /// generation bit set), anything else otherwise.
    fn field(max: u32) -> impl Strategy<Value = u32> {
        (0u32..4, 0..=max).prop_map(move |(pick, any)| match pick {
            0 => 0,
            1 => max,
            _ => any,
        })
    }

    proptest! {
        /// Every event survives the queue's two-word form, whatever
        /// its fields hold, and no two events share a packed form.
        #[test]
        fn packed_events_round_trip(
            (variant, x, handle) in (0u32..10, field(u32::MAX), field(u32::MAX)),
            (port, vl, blocks) in (field(u16::MAX as u32), field(15), field(u32::MAX)),
            other in (0u32..10, field(u32::MAX), field(u32::MAX)),
        ) {
            let event = |variant: u32, x: u32, lo: u32| {
                let (port, vl, h) = (port as u16, vl as Vl, PktHandle::from_bits(lo));
                match variant {
                    0 => Event::SwArrive { ch: x, h },
                    1 => Event::HcaArrive { ch: x, h },
                    2 => Event::SwTxDone { sw: x, port },
                    3 => Event::SwTryArb { sw: x, port },
                    4 => Event::SwCredit { sw: x, port, vl, blocks },
                    5 => Event::HcaTxDone { hca: x },
                    6 => Event::HcaTrySend { hca: x },
                    7 => Event::HcaCredit { hca: x, vl, blocks },
                    8 => Event::SinkDone { hca: x },
                    _ => Event::CctiTick { hca: x },
                }
            };
            let ev = event(variant, x, handle);
            prop_assert_eq!(Ev::pack(ev).unpack(), ev);
            let ev2 = event(other.0, other.1, other.2);
            prop_assert_eq!(Ev::pack(ev) == Ev::pack(ev2), ev == ev2);
        }
    }

    /// The 8-node fat tree under uniform traffic, CC on.
    fn fat8_cc_on() -> Network {
        let topo = FatTreeSpec::TEST_8.build();
        let mut net = Network::new(&topo, NetConfig::paper());
        for n in 0..topo.num_hcas as NodeId {
            net.set_classes(
                n,
                vec![TrafficClass::new(100, DestPattern::UniformExceptSelf, 4096)],
            );
        }
        net
    }

    /// The profiler's counts are exact, not sampled: against the same
    /// fabric driven by hand with the profiler off, every dispatch bin
    /// holds exactly the events of its kinds, the dispatch bins add up
    /// to `events_processed()`, and the pop bin holds every batch (plus
    /// the one empty pop that ends a `run_until`).
    #[test]
    fn profiler_counts_every_pop_and_dispatch_exactly() {
        let t = Time::from_us(200);
        let mut net = fat8_cc_on();
        net.enable_profile();
        net.run_until(t);
        let report = net.profile_report().expect("profiling is on");

        let mut plain = fat8_cc_on();
        plain.prime();
        let mut batches = 0u64;
        let mut by_bin = [0u64; N_SUBSYSTEMS];
        let mut batch = Vec::new();
        while let Some(at) = plain.queue.pop_batch_until(t, &mut batch) {
            batches += 1;
            for (seq, ev) in batch.drain(..) {
                plain.queue.note_dispatched(at, seq);
                by_bin[Network::subsystem_of(&ev.unpack()) as usize] += 1;
                plain.dispatch(at, ev.unpack());
            }
        }
        assert!(batches > 1_000, "the run did real work");
        assert_eq!(plain.events_processed(), net.events_processed());

        assert_eq!(report.events, net.events_processed());
        let mut dispatched = 0;
        for (bin, s) in report.bins.iter().zip(Subsystem::ALL) {
            assert_eq!(bin.subsystem, s.name());
            assert!(bin.timed_calls <= bin.calls);
            if s == Subsystem::QueuePop {
                assert_eq!(bin.calls, batches + 1, "one pop per batch, one empty");
            } else {
                assert_eq!(bin.calls, by_bin[s as usize], "{} calls", s.name());
                dispatched += bin.calls;
            }
        }
        assert_eq!(dispatched, net.events_processed());
        // Every SAMPLE_PERIOD-th batch was timed.
        let pops = &report.bins[Subsystem::QueuePop as usize];
        assert_eq!(
            pops.timed_calls,
            pops.calls / crate::profile::SAMPLE_PERIOD as u64
        );
        assert!(report.wall_ns > 0 && report.total_ns > 0);
    }
}
