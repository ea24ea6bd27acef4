//! The Host Channel Adapter model: traffic generation (`gen`), packet
//! sinking (`sink`), injection-rate shaping, CNP generation and the CA
//! side of congestion control (`ccmgr`).

use crate::gen::{ClassState, TrafficClass};
use crate::pool::{PacketPool, PktHandle};
use crate::types::{NodeId, Packet, PacketKind, Vl, CNP_BYTES};
use ibsim_cc::{SourceCc, SourceCcState};
use ibsim_engine::time::{Time, TimeDelta};
use ibsim_engine::{HistogramState, RateMeterState};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// What the HCA's injector wants to do next.
#[derive(Debug)]
pub enum NextSend {
    /// A packet to put on the wire now.
    Packet(Packet),
    /// Nothing sendable now; retry at this time (budget or IRD gate).
    WaitUntil(Time),
    /// Nothing sendable; only an external event (credits, a new CNP,
    /// transmitter freeing) can unblock.
    Idle,
}

/// A pending congestion notification to return to a source.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct PendingCnp {
    pub dst: NodeId,
    pub vl: Vl,
    pub sl: u8,
}

/// What an HCA keeps about one other node, as sender to it and as
/// receiver from it: one record, so that a send and a delivery each
/// touch one line of the dense per-peer table.
#[derive(Clone, Copy, Debug, Default)]
struct Peer {
    /// Sequence number of the last packet injected toward this node.
    tx_seq: u32,
    /// Sequence number of the last packet delivered from this node
    /// (ordering check).
    last_seq: u32,
    /// Bytes received from this node inside the measurement window.
    rx_bytes: u64,
}

/// One end node: generator, sink, and CC agent.
#[derive(Clone, Debug)]
pub struct Hca {
    pub id: NodeId,
    // ---- egress ---------------------------------------------------------
    /// Channel from this HCA into the fabric.
    pub out_channel: u32,
    /// Credits available at the attached switch's input buffer, per VL.
    pub credits: Vec<u32>,
    /// Transmitter busy until (wire-rate serialisation).
    pub busy_until: Time,
    /// Injection shaping: earliest next packet start (PCIe cap).
    next_inject_at: Time,
    /// Earliest pending `HcaTrySend` event (dedup guard), `Time::MAX`
    /// when none.
    pub wakeup_at: Time,
    /// Congestion notifications waiting to go out (strict priority).
    cnp_queue: VecDeque<PendingCnp>,
    pub classes: Vec<TrafficClass>,
    rr_class: usize,
    /// CA-side congestion control state (IB CC or DCQCN, per backend).
    pub cc: SourceCc,
    /// Per-node sequence numbers and receive accounting, indexed by
    /// node id.
    peers: Vec<Peer>,
    // ---- ingress --------------------------------------------------------
    /// Channel from the fabric into this HCA.
    pub in_channel: u32,
    /// The packet currently being drained by the sink, if any
    /// (pool handle; resolved through the network's arena).
    draining: Option<PktHandle>,
    sink_queue: VecDeque<PktHandle>,
    /// Fault injection: a paused sink stops starting drains (the
    /// in-flight one finishes), so arriving packets pile up in the
    /// sink queue and backpressure the fabric through held credits.
    sink_paused: bool,
    // ---- statistics ------------------------------------------------------
    pub rx_meter: ibsim_engine::RateMeter,
    pub tx_meter: ibsim_engine::RateMeter,
    pub latency: ibsim_engine::Histogram,
    pub injected_packets: u64,
    pub delivered_packets: u64,
    pub cnps_sent: u64,
    pub cnps_delivered: u64,
    /// Cumulative data bytes delivered / injected since simulation
    /// start. Unlike the windowed meters these never reset, so a
    /// telemetry sampler can difference them at any cadence without
    /// touching the measurement window.
    pub rx_bytes_total: u64,
    pub tx_bytes_total: u64,
}

impl Hca {
    /// `num_nodes` sizes the dense per-peer table (sequence numbers,
    /// ordering checks, per-source receive accounting).
    pub fn new(id: NodeId, num_nodes: u32, n_vls: u8, cc: SourceCc) -> Self {
        Hca {
            id,
            out_channel: u32::MAX,
            credits: vec![0; n_vls as usize],
            busy_until: Time::ZERO,
            next_inject_at: Time::ZERO,
            wakeup_at: Time::MAX,
            cnp_queue: VecDeque::new(),
            classes: Vec::new(),
            rr_class: 0,
            cc,
            peers: vec![Peer::default(); num_nodes as usize],
            in_channel: u32::MAX,
            draining: None,
            // Pre-sized so steady-state receive stays allocation-free:
            // 64 four-byte handles is past any observed high-water mark
            // and costs 256 B per HCA.
            sink_queue: VecDeque::with_capacity(64),
            sink_paused: false,
            rx_meter: ibsim_engine::RateMeter::new(),
            tx_meter: ibsim_engine::RateMeter::new(),
            latency: ibsim_engine::Histogram::new(),
            injected_packets: 0,
            delivered_packets: 0,
            cnps_sent: 0,
            cnps_delivered: 0,
            rx_bytes_total: 0,
            tx_bytes_total: 0,
        }
    }

    /// Decide the next packet to put on the wire at `now`.
    ///
    /// Order of precedence:
    /// 1. the transmitter must be free and the injection shaper open;
    /// 2. pending CNPs (strict priority — congestion feedback must not
    ///    sit behind throttled data);
    /// 3. traffic classes, round-robin among those with budget, an open
    ///    IRD gate, and whole-packet credits.
    pub fn next_packet(
        &mut self,
        now: Time,
        num_nodes: u32,
        cfg: &crate::config::NetConfig,
        cc_enabled: bool,
    ) -> NextSend {
        if self.busy_until > now {
            // TxDone re-fires the injector. So no gate is read before
            // the last packet's end, and `HcaCc` can let go of a flow
            // whose gate lies there.
            return NextSend::Idle;
        }
        if self.next_inject_at > now {
            return NextSend::WaitUntil(self.next_inject_at);
        }

        // CNPs first.
        if let Some(&cnp) = self.cnp_queue.front() {
            if self.credits[cnp.vl as usize] >= 1 && !self.cc.tx_paused(cnp.vl as usize) {
                self.cnp_queue.pop_front();
                return NextSend::Packet(Packet {
                    src: self.id,
                    dst: cnp.dst,
                    bytes: CNP_BYTES,
                    vl: cnp.vl,
                    sl: cnp.sl,
                    kind: PacketKind::Cnp,
                    fecn: false,
                    seq: 0,
                    injected_at: now,
                });
            }
            // Credit-blocked CNP: data on the same VL is blocked too,
            // but another VL may still proceed; fall through.
        }

        let n = self.classes.len();
        let mut wakeup = Time::MAX;
        for k in 0..n {
            let i = (self.rr_class + k) % n;
            let class = &mut self.classes[i];
            let (dst, bytes) = match class.peek(now, self.id, num_nodes, cfg.inj_rate, cfg.mtu) {
                Ok(x) => x,
                Err(t) => {
                    if t < wakeup {
                        wakeup = t;
                    }
                    continue;
                }
            };
            // IRD gate for this flow.
            if cc_enabled {
                let key = self.cc.flow_key(dst, class.sl);
                let gate = self.cc.next_allowed(key);
                if gate > now {
                    if gate < wakeup {
                        wakeup = gate;
                    }
                    continue;
                }
            }
            // Whole-packet credits at the attached switch.
            let vl = class.vl as usize;
            if self.credits[vl] < crate::types::blocks_for(bytes) {
                continue; // a credit event re-fires the injector
            }
            // PFC: a paused priority transmits nothing; the resume
            // frame re-fires the injector.
            if self.cc.tx_paused(vl) {
                continue;
            }
            class.take(bytes);
            let sl = class.sl;
            let vlv = class.vl;
            let seq = {
                let s = &mut self.peers[dst as usize].tx_seq;
                *s += 1;
                *s
            };
            self.rr_class = (i + 1) % n;
            return NextSend::Packet(Packet {
                src: self.id,
                dst,
                bytes,
                vl: vlv,
                sl,
                kind: PacketKind::Data { class: i as u8 },
                fecn: false,
                seq,
                injected_at: now,
            });
        }
        if wakeup == Time::MAX {
            NextSend::Idle
        } else {
            NextSend::WaitUntil(wakeup)
        }
    }

    /// Account for a packet put on the wire at `now`: occupy the
    /// transmitter, advance the injection shaper, consume credits,
    /// apply the CC bookkeeping. Returns the serialisation time.
    pub fn note_sent(
        &mut self,
        pkt: &Packet,
        now: Time,
        cfg: &crate::config::NetConfig,
        cc_enabled: bool,
    ) -> TimeDelta {
        let ser = cfg.link_bw.tx_time(pkt.bytes as u64);
        self.busy_until = now + ser;
        self.next_inject_at = now + cfg.inj_rate.tx_time(pkt.bytes as u64);
        self.credits[pkt.vl as usize] -= pkt.blocks();
        self.injected_packets += 1;
        if pkt.is_cnp() {
            self.cnps_sent += 1;
        } else {
            self.tx_bytes_total += pkt.bytes as u64;
            self.tx_meter.record(now, pkt.bytes as u64);
            if cc_enabled {
                let key = self.cc.flow_key(pkt.dst, pkt.sl);
                self.cc
                    .note_packet_sent(key, self.busy_until, ser, pkt.bytes as u64);
            }
        }
        ser
    }

    /// A packet fully arrived from the fabric. FECN-marked data
    /// immediately queues a CNP back to its source ("the CA should as
    /// quickly as possible notify the source"). Returns true if the
    /// sink was idle and a drain should start.
    pub fn receive(&mut self, h: PktHandle, pool: &PacketPool, cc_enabled: bool) -> bool {
        let pkt = pool.get(h);
        if pkt.fecn && cc_enabled && !pkt.is_cnp() && self.cc.cnp_on() {
            self.cnp_queue.push_back(PendingCnp {
                dst: pkt.src,
                vl: pkt.vl,
                sl: pkt.sl,
            });
        }
        let idle = self.draining.is_none();
        self.sink_queue.push_back(h);
        idle
    }

    /// Begin draining the next queued packet, if the sink is idle.
    /// Returns the drain time of the packet now being drained.
    pub fn start_drain(
        &mut self,
        cfg: &crate::config::NetConfig,
        pool: &PacketPool,
    ) -> Option<TimeDelta> {
        if self.draining.is_some() || self.sink_paused {
            return None;
        }
        let h = self.sink_queue.pop_front()?;
        let dt = cfg.drain_rate.tx_time(pool.get(h).bytes as u64);
        self.draining = Some(h);
        Some(dt)
    }

    /// Peek the packet the sink is currently draining (the one the next
    /// `finish_drain` will consume), without touching the pipeline. The
    /// tracer reads CC state on either side of a CNP delivery through
    /// this.
    pub fn draining_packet(&self, pool: &PacketPool) -> Option<Packet> {
        self.draining.map(|h| *pool.get(h))
    }

    /// The sink finished draining the current packet at `now`. Performs
    /// delivery accounting (or BECN processing for CNPs), releases the
    /// packet's pool slot, and returns the packet for credit release.
    pub fn finish_drain(&mut self, now: Time, cc_enabled: bool, pool: &mut PacketPool) -> Packet {
        let h = self.draining.take().expect("finish_drain with idle sink");
        let pkt = pool.release(h);
        match pkt.kind {
            PacketKind::Cnp => {
                self.cnps_delivered += 1;
                if cc_enabled {
                    let key = self.cc.flow_key(pkt.src, pkt.sl);
                    self.cc.on_becn(key);
                }
            }
            PacketKind::Data { .. } => {
                self.delivered_packets += 1;
                self.rx_bytes_total += pkt.bytes as u64;
                let from = &mut self.peers[pkt.src as usize];
                if self.rx_meter.is_open(now) {
                    from.rx_bytes += pkt.bytes as u64;
                }
                self.rx_meter.record(now, pkt.bytes as u64);
                self.latency
                    .record(now.saturating_since(pkt.injected_at).as_ps());
                // Deterministic routing + FIFO queueing must preserve
                // per-(src,dst) ordering.
                debug_assert!(
                    pkt.seq > from.last_seq,
                    "out-of-order delivery from {}: {} after {}",
                    pkt.src,
                    pkt.seq,
                    from.last_seq
                );
                from.last_seq = pkt.seq;
            }
        }
        pkt
    }

    /// Fault injection: stop sinking. The drain in flight (if any)
    /// completes; nothing new starts until [`Hca::resume_sink`].
    pub fn pause_sink(&mut self) {
        self.sink_paused = true;
    }

    /// Fault injection: resume sinking. The caller must follow up with
    /// [`Hca::start_drain`] to restart the pipeline.
    pub fn resume_sink(&mut self) {
        self.sink_paused = false;
    }

    pub fn sink_paused(&self) -> bool {
        self.sink_paused
    }

    /// Bytes received from each node inside the measurement window,
    /// by node id (zero = nothing received) — feeds per-flow fairness
    /// metrics.
    pub fn rx_by_src(&self) -> impl Iterator<Item = u64> + '_ {
        self.peers.iter().map(|p| p.rx_bytes)
    }

    /// Forget the per-source receive counts (a measurement window
    /// opens).
    pub fn clear_rx_by_src(&mut self) {
        for p in &mut self.peers {
            p.rx_bytes = 0;
        }
    }

    pub fn pending_cnps(&self) -> usize {
        self.cnp_queue.len()
    }
    pub fn sink_depth(&self) -> usize {
        self.sink_queue.len() + usize::from(self.draining.is_some())
    }

    /// Is the sink mid-drain right now?
    pub fn sink_draining(&self) -> bool {
        self.draining.is_some()
    }

    /// Blocks of sink-side buffer still held on `vl`: everything queued
    /// or draining whose credits have not yet been returned upstream.
    /// One term of the per-(channel, VL) credit ledger.
    pub fn sink_blocks(&self, vl: Vl, pool: &PacketPool) -> u64 {
        self.sink_queue
            .iter()
            .chain(self.draining.iter())
            .map(|&h| pool.get(h))
            .filter(|p| p.vl == vl)
            .map(|p| p.blocks() as u64)
            .sum()
    }

    /// Export the HCA's complete mutable state (checkpoint). Channel
    /// wiring and class configuration (rates, destinations, VL/SL) are
    /// rebuilt from the scenario; everything that evolves at runtime is
    /// here.
    pub fn state(&self, pool: &PacketPool) -> HcaState {
        HcaState {
            busy_until: self.busy_until,
            next_inject_at: self.next_inject_at,
            wakeup_at: self.wakeup_at,
            credits: self.credits.clone(),
            cnp_queue: self.cnp_queue.iter().copied().collect(),
            classes: self.classes.iter().map(|c| c.state()).collect(),
            rr_class: self.rr_class as u32,
            cc: self.cc.state(),
            seqs: self.peers.iter().map(|p| p.tx_seq).collect(),
            draining: self.draining.map(|h| *pool.get(h)),
            sink_queue: self.sink_queue.iter().map(|&h| *pool.get(h)).collect(),
            sink_paused: self.sink_paused,
            last_seq: self.peers.iter().map(|p| p.last_seq).collect(),
            rx_by_src: self.rx_by_src().collect(),
            rx_meter: self.rx_meter.state(),
            tx_meter: self.tx_meter.state(),
            latency: self.latency.state(),
            injected_packets: self.injected_packets,
            delivered_packets: self.delivered_packets,
            cnps_sent: self.cnps_sent,
            cnps_delivered: self.cnps_delivered,
            rx_bytes_total: self.rx_bytes_total,
            tx_bytes_total: self.tx_bytes_total,
        }
    }

    /// Move every pool handle this HCA holds from `src` to `dst`,
    /// releasing the source slots. Used by the sharded executor when a
    /// device migrates between the master network and its shard: the
    /// device structure moves wholesale (`mem::swap`), but its packets
    /// live in the owning network's arena and must follow it.
    pub(crate) fn remap_pool(&mut self, src: &mut PacketPool, dst: &mut PacketPool) {
        if let Some(h) = self.draining.take() {
            self.draining = Some(dst.alloc(src.release(h)));
        }
        for h in self.sink_queue.iter_mut() {
            *h = dst.alloc(src.release(*h));
        }
    }

    /// Overwrite the HCA's mutable state (checkpoint restore). The
    /// traffic classes must already be installed by the scenario; their
    /// runtime cursors are overlaid onto the configured classes.
    pub fn restore_state(&mut self, s: &HcaState, pool: &mut PacketPool) -> Result<(), String> {
        if s.classes.len() != self.classes.len() {
            return Err(format!(
                "hca {}: state has {} traffic classes, scenario installed {}",
                self.id,
                s.classes.len(),
                self.classes.len()
            ));
        }
        let n = self.peers.len();
        if s.credits.len() != self.credits.len()
            || s.seqs.len() != n
            || s.last_seq.len() != n
            || s.rx_by_src.len() != n
        {
            return Err(format!("hca {}: per-VL or per-peer table width mismatch", self.id));
        }
        self.busy_until = s.busy_until;
        self.next_inject_at = s.next_inject_at;
        self.wakeup_at = s.wakeup_at;
        self.credits = s.credits.clone();
        self.cnp_queue = s.cnp_queue.iter().copied().collect();
        for (c, cs) in self.classes.iter_mut().zip(&s.classes) {
            c.restore_state(cs);
        }
        self.rr_class = s.rr_class as usize;
        self.cc
            .restore_state(&s.cc)
            .map_err(|e| format!("hca {}: {e}", self.id))?;
        for (i, p) in self.peers.iter_mut().enumerate() {
            *p = Peer {
                tx_seq: s.seqs[i],
                last_seq: s.last_seq[i],
                rx_bytes: s.rx_by_src[i],
            };
        }
        self.draining = s.draining.map(|p| pool.alloc(p));
        self.sink_queue = s.sink_queue.iter().map(|&p| pool.alloc(p)).collect();
        self.sink_paused = s.sink_paused;
        self.rx_meter = ibsim_engine::RateMeter::from_state(s.rx_meter.clone());
        self.tx_meter = ibsim_engine::RateMeter::from_state(s.tx_meter.clone());
        self.latency = ibsim_engine::Histogram::from_state(s.latency.clone())
            .map_err(|e| format!("hca {} latency: {e}", self.id))?;
        self.injected_packets = s.injected_packets;
        self.delivered_packets = s.delivered_packets;
        self.cnps_sent = s.cnps_sent;
        self.cnps_delivered = s.cnps_delivered;
        self.rx_bytes_total = s.rx_bytes_total;
        self.tx_bytes_total = s.tx_bytes_total;
        Ok(())
    }
}

/// Serializable image of an [`Hca`]'s mutable state.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct HcaState {
    pub busy_until: Time,
    pub next_inject_at: Time,
    pub wakeup_at: Time,
    pub credits: Vec<u32>,
    /// Pending congestion notifications, front-to-back.
    pub cnp_queue: Vec<PendingCnp>,
    /// Runtime cursors of each installed traffic class, in order.
    pub classes: Vec<ClassState>,
    pub rr_class: u32,
    pub cc: SourceCcState,
    pub seqs: Vec<u32>,
    pub draining: Option<Packet>,
    pub sink_queue: Vec<Packet>,
    pub sink_paused: bool,
    pub last_seq: Vec<u32>,
    pub rx_by_src: Vec<u64>,
    pub rx_meter: RateMeterState,
    pub tx_meter: RateMeterState,
    pub latency: HistogramState,
    pub injected_packets: u64,
    pub delivered_packets: u64,
    pub cnps_sent: u64,
    pub cnps_delivered: u64,
    pub rx_bytes_total: u64,
    pub tx_bytes_total: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NetConfig;
    use crate::gen::DestPattern;
    use ibsim_cc::{CcParams, HcaCc};
    use ibsim_engine::Rng;
    use std::sync::Arc;

    fn hca() -> (Hca, NetConfig) {
        let cfg = NetConfig::paper();
        let cc = SourceCc::Ib(HcaCc::new(Arc::new(CcParams::paper_table1())));
        let mut h = Hca::new(3, 16, 1, cc);
        h.credits = vec![128];
        (h, cfg)
    }

    fn add_class(h: &mut Hca, percent: u32, dest: DestPattern) {
        let mut c = TrafficClass::new(percent, dest, 4096);
        c.set_rng(Rng::derive(1, h.classes.len() as u64));
        h.classes.push(c);
    }

    #[test]
    fn sends_data_when_open() {
        let (mut h, cfg) = hca();
        add_class(&mut h, 100, DestPattern::Fixed(7));
        // Budget needs 4096 bytes at 13.5 Gbit/s ≈ 2.43 µs.
        let t = Time::from_us(3);
        match h.next_packet(t, 16, &cfg, true) {
            NextSend::Packet(p) => {
                assert_eq!(p.dst, 7);
                assert_eq!(p.bytes, 2048);
                assert_eq!(p.seq, 1);
                let ser = h.note_sent(&p, t, &cfg, true);
                assert_eq!(ser, TimeDelta(819_200));
                assert_eq!(h.credits[0], 128 - 32);
                assert_eq!(h.injected_packets, 1);
            }
            other => panic!("expected packet, got {other:?}"),
        }
    }

    #[test]
    fn script_class_releases_through_injector() {
        use crate::gen::ScriptSend;
        let (mut h, cfg) = hca();
        let mut c = TrafficClass::scripted(vec![ScriptSend {
            at: Time::from_us(5),
            dst: 9,
            bytes: 1024,
        }]);
        c.set_rng(Rng::derive(1, 0));
        h.classes.push(c);
        // Parked until the scripted release time — no budget involved.
        match h.next_packet(Time::ZERO, 16, &cfg, true) {
            NextSend::WaitUntil(t) => assert_eq!(t, Time::from_us(5)),
            other => panic!("expected wait, got {other:?}"),
        }
        match h.next_packet(Time::from_us(5), 16, &cfg, true) {
            NextSend::Packet(p) => {
                assert_eq!((p.dst, p.bytes), (9, 1024));
            }
            other => panic!("expected packet, got {other:?}"),
        }
        assert!(h.classes[0].finished());
    }

    #[test]
    fn budget_wakeup_before_first_message() {
        let (mut h, cfg) = hca();
        add_class(&mut h, 100, DestPattern::Fixed(7));
        match h.next_packet(Time::ZERO, 16, &cfg, true) {
            NextSend::WaitUntil(t) => {
                // 4096 bytes at 13.5 Gbit/s = 2427.26 ns (rounded up).
                assert!(t > Time::ZERO && t < Time::from_us(3), "{t:?}");
            }
            other => panic!("expected wait, got {other:?}"),
        }
    }

    #[test]
    fn injection_shaping_spaces_packets() {
        let (mut h, cfg) = hca();
        add_class(&mut h, 100, DestPattern::Fixed(7));
        let t = Time::from_us(5);
        let p = match h.next_packet(t, 16, &cfg, true) {
            NextSend::Packet(p) => p,
            o => panic!("{o:?}"),
        };
        h.note_sent(&p, t, &cfg, true);
        // Transmitter frees at t+819.2ns but the shaper holds the next
        // packet until t + 2048B/13.5Gbps ≈ t + 1213.6ns.
        let after_tx = h.busy_until;
        match h.next_packet(after_tx, 16, &cfg, true) {
            NextSend::WaitUntil(w) => {
                let spacing = w.saturating_since(t);
                let expect = cfg.inj_rate.tx_time(2048);
                assert_eq!(spacing, expect);
            }
            o => panic!("expected shaper wait, got {o:?}"),
        }
    }

    #[test]
    fn cnp_takes_priority_over_data() {
        let (mut h, cfg) = hca();
        add_class(&mut h, 100, DestPattern::Fixed(7));
        // Enough budget for data, but a FECN-marked arrival queued a CNP.
        let marked = Packet {
            src: 9,
            dst: 3,
            bytes: 2048,
            vl: 0,
            sl: 0,
            kind: PacketKind::Data { class: 0 },
            fecn: true,
            seq: 1,
            injected_at: Time::ZERO,
        };
        let mut pool = PacketPool::new();
        let m = pool.alloc(marked);
        h.receive(m, &pool, true);
        assert_eq!(h.pending_cnps(), 1);
        let t = Time::from_us(5);
        match h.next_packet(t, 16, &cfg, true) {
            NextSend::Packet(p) => {
                assert!(p.is_cnp());
                assert_eq!(p.dst, 9, "CNP returns to the marker's source");
                assert_eq!(p.bytes, CNP_BYTES);
            }
            o => panic!("{o:?}"),
        }
    }

    #[test]
    fn no_cnp_when_cc_disabled() {
        let (mut h, _) = hca();
        let marked = Packet {
            src: 9,
            dst: 3,
            bytes: 2048,
            vl: 0,
            sl: 0,
            kind: PacketKind::Data { class: 0 },
            fecn: true,
            seq: 1,
            injected_at: Time::ZERO,
        };
        let mut pool = PacketPool::new();
        let m = pool.alloc(marked);
        h.receive(m, &pool, false);
        assert_eq!(h.pending_cnps(), 0);
    }

    #[test]
    fn ird_gate_blocks_flow_but_not_other_class() {
        let (mut h, cfg) = hca();
        add_class(&mut h, 50, DestPattern::Fixed(7));
        add_class(&mut h, 50, DestPattern::Fixed(9));
        // Throttle destination 7 hard.
        for _ in 0..50 {
            h.cc.on_becn(7);
        }
        let t = Time::from_us(10);
        // Prime flow 7's gate by "sending" one packet.
        h.cc.note_packet_sent(7, t, TimeDelta::from_ns(820), 2048);
        // 50 BECNs → CCTI 50 → gate = t + 50*820ns, far in the future.
        match h.next_packet(t, 16, &cfg, true) {
            NextSend::Packet(p) => assert_eq!(p.dst, 9, "unthrottled class proceeds"),
            o => panic!("{o:?}"),
        }
    }

    #[test]
    fn becn_on_cnp_drain_raises_ccti() {
        let (mut h, cfg) = hca();
        let cnp = Packet {
            src: 5,
            dst: 3,
            bytes: CNP_BYTES,
            vl: 0,
            sl: 0,
            kind: PacketKind::Cnp,
            fecn: false,
            seq: 0,
            injected_at: Time::ZERO,
        };
        let mut pool = PacketPool::new();
        let hc = pool.alloc(cnp);
        assert!(h.receive(hc, &pool, true));
        let dt = h.start_drain(&cfg, &pool).unwrap();
        assert!(dt > TimeDelta::ZERO);
        let pkt = h.finish_drain(Time::from_ns(100), true, &mut pool);
        assert!(pkt.is_cnp());
        assert_eq!(pool.live(), 0, "drained packet released its slot");
        assert_eq!(h.cc.max_ccti(), 1, "BECN raises CCTI toward CNP source");
        assert_eq!(h.delivered_packets, 0, "CNPs are not data deliveries");
    }

    #[test]
    fn sink_serialises_drains() {
        let (mut h, cfg) = hca();
        let mk = |seq| Packet {
            src: 2,
            dst: 3,
            bytes: 2048,
            vl: 0,
            sl: 0,
            kind: PacketKind::Data { class: 0 },
            fecn: false,
            seq,
            injected_at: Time::ZERO,
        };
        let mut pool = PacketPool::new();
        let p1 = pool.alloc(mk(1));
        assert!(h.receive(p1, &pool, true), "idle sink starts drain");
        h.start_drain(&cfg, &pool).unwrap();
        let p2 = pool.alloc(mk(2));
        assert!(!h.receive(p2, &pool, true), "busy sink just queues");
        assert_eq!(h.sink_depth(), 2);
        assert!(h.start_drain(&cfg, &pool).is_none(), "one drain at a time");
        h.finish_drain(Time::from_us(2), true, &mut pool);
        assert_eq!(h.delivered_packets, 1);
        h.start_drain(&cfg, &pool).unwrap();
        h.finish_drain(Time::from_us(4), true, &mut pool);
        assert_eq!(h.delivered_packets, 2);
        assert_eq!(h.sink_depth(), 0);
        assert_eq!(pool.live(), 0);
    }

    #[test]
    #[should_panic]
    #[cfg(debug_assertions)]
    fn out_of_order_delivery_asserts() {
        let (mut h, cfg) = hca();
        let mk = |seq| Packet {
            src: 2,
            dst: 3,
            bytes: 64,
            vl: 0,
            sl: 0,
            kind: PacketKind::Data { class: 0 },
            fecn: false,
            seq,
            injected_at: Time::ZERO,
        };
        let mut pool = PacketPool::new();
        let p2 = pool.alloc(mk(2));
        let p1 = pool.alloc(mk(1));
        h.receive(p2, &pool, true);
        h.receive(p1, &pool, true);
        h.start_drain(&cfg, &pool);
        h.finish_drain(Time::from_us(1), true, &mut pool);
        h.start_drain(&cfg, &pool);
        h.finish_drain(Time::from_us(2), true, &mut pool); // seq 1 after 2: assert
    }

    /// The per-peer table against the three vectors it replaced, kept
    /// by hand beside it: the exported state holds the same numbers,
    /// field for field, and restores into the same table.
    #[test]
    fn peer_table_exports_the_three_vectors() {
        let (mut h, cfg) = hca();
        for dst in [7, 9] {
            add_class(&mut h, 50, DestPattern::Fixed(dst));
        }
        let (mut seqs, mut last_seq, mut rx_by_src) =
            (vec![0u32; 16], vec![0u32; 16], vec![0u64; 16]);
        let mut now = Time::from_us(10);
        for _ in 0..5 {
            if let NextSend::Packet(p) = h.next_packet(now, 16, &cfg, false) {
                h.note_sent(&p, now, &cfg, false);
                seqs[p.dst as usize] = p.seq;
            }
            now += TimeDelta::from_us(5);
        }
        assert!(seqs[7] > 0 && seqs[9] > 0, "both classes sent");
        // Deliveries before the window opens set the ordering mark
        // only; inside it they are counted per source as well.
        let mut pool = PacketPool::new();
        let mut deliver = |h: &mut Hca, src: u32, seq: u32, bytes: u32, now: Time| {
            let pkt = Packet {
                src,
                dst: 3,
                bytes,
                vl: 0,
                sl: 0,
                kind: PacketKind::Data { class: 0 },
                fecn: false,
                seq,
                injected_at: Time::ZERO,
            };
            h.receive(pool.alloc(pkt), &pool, false);
            h.start_drain(&cfg, &pool).expect("the sink was idle");
            h.finish_drain(now, false, &mut pool);
        };
        deliver(&mut h, 5, 1, 2048, now);
        last_seq[5] = 1;
        h.rx_meter.start_window(now);
        for (src, seq, bytes) in [(5, 2, 2048), (15, 1, 64), (5, 3, 1000), (0, 4, 1)] {
            deliver(&mut h, src, seq, bytes, now);
            last_seq[src as usize] = seq;
            rx_by_src[src as usize] += bytes as u64;
        }
        let state = h.state(&pool);
        assert_eq!(
            (&state.seqs, &state.last_seq, &state.rx_by_src),
            (&seqs, &last_seq, &rx_by_src)
        );
        assert_eq!(h.rx_by_src().collect::<Vec<_>>(), rx_by_src);

        let (mut h2, _) = hca();
        h2.classes = h.classes.clone();
        h2.restore_state(&state, &mut pool).unwrap();
        assert_eq!(h2.state(&pool), state);
        h2.clear_rx_by_src();
        let cleared = h2.state(&pool);
        assert_eq!((&cleared.seqs, &cleared.last_seq), (&seqs, &last_seq));
        assert!(cleared.rx_by_src.iter().all(|&b| b == 0));
    }

    #[test]
    fn idle_when_no_classes() {
        let (mut h, cfg) = hca();
        match h.next_packet(Time::from_us(1), 16, &cfg, true) {
            NextSend::Idle => {}
            o => panic!("{o:?}"),
        }
    }

    #[test]
    fn credit_starved_class_is_idle_not_waiting() {
        let (mut h, cfg) = hca();
        add_class(&mut h, 100, DestPattern::Fixed(7));
        h.credits = vec![0];
        match h.next_packet(Time::from_us(5), 16, &cfg, true) {
            NextSend::Idle => {} // credits will re-fire the injector
            o => panic!("{o:?}"),
        }
    }
}
