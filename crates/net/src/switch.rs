//! The crossbar switch model: per-port input buffers with virtual output
//! queueing, round-robin output arbitration over (input, VL) pairs,
//! credit-based egress, virtual cut-through timing, and the switch side
//! of congestion control.
//!
//! This plays the role of the `Switch`/`SwitchPort` compound modules
//! (`ibuf`, `obuf`, `vlarb`, `ccmgr`) of the paper's OMNeT++ model.
//!
//! Data layout follows what one event touches. An arbitration round
//! that grants nothing — transmitter busy, nothing queued, or no
//! credits: most rounds — reads one cache line, the output's
//! [`HotPort`]: its transmitter deadline, its cable, and per VL the
//! occupancy mask over inputs, the credits and the round-robin cursor.
//! A round that finds a candidate reads one more, the candidate queue's
//! head in the flat [`Voqs`] array, which caches the byte size so the
//! scan never dereferences the packet pool. Queued packets are
//! [`PktHandle`]s into the network's arena pool. Everything else — the
//! congestion detectors, the VL arbiter's cursors, the forwarding
//! counters, the cabling as the audit reads it — is touched only on a
//! grant or by observers and stays in per-port vectors of its own.

use crate::network::{Channel, Dev};
use crate::pool::{PacketPool, PktHandle};
use crate::types::{blocks_for, Packet, Vl};
use crate::vlarb::{VlArbState, VlArbTable, VlArbiter};
use ibsim_cc::{CcParams, PortVlCongestion, PortVlCongestionState};
use ibsim_engine::time::{Time, TimeDelta};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// A queued packet descriptor as checkpoints persist it: the full
/// packet plus its arbitration-eligibility instant (head arrival +
/// routing latency; cut-through, not store-and-forward).
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct Desc {
    pub pkt: Packet,
    pub ready_at: Time,
}

/// In-memory queue entry: pool handle plus the two fields the
/// arbitration scan reads (16 bytes, vs a 40-byte inline packet). The
/// top two bits of `meta` are [`Voqs`]'s, and clear outside it.
#[derive(Clone, Copy, Debug)]
struct HDesc {
    h: PktHandle,
    /// Packet size in bytes, under [`OCCUPIED`] and [`MORE`].
    meta: u32,
    ready_at: Time,
}

/// `meta` bit of a [`Voqs`] head slot: the queue is non-empty and this
/// slot is its front.
const OCCUPIED: u32 = 1 << 31;
/// `meta` bit of a [`Voqs`] head slot: more packets stand behind this
/// one, in the queue's backlog ring.
const MORE: u32 = 1 << 30;
/// No node: the end of the free list.
const NIL: u32 = u32::MAX;

impl HDesc {
    fn new(h: PktHandle, bytes: u32, ready_at: Time) -> Self {
        assert!(
            bytes < MORE,
            "a {bytes}-byte packet overflows the size field"
        );
        HDesc {
            h,
            meta: bytes,
            ready_at,
        }
    }

    #[inline]
    fn bytes(&self) -> u32 {
        self.meta & (MORE - 1)
    }
}

/// A packet waiting behind a VoQ head: one node of a switch's backlog
/// slab, linked to the next packet of its queue (the last to the
/// first), or to the next free node.
#[derive(Clone, Copy, Debug)]
struct Node {
    d: HDesc,
    next: u32,
}

/// The virtual output queues of one switch, `radix² · n_vls` FIFOs
/// indexed `q = (out * n_vls + vl) * radix + in`: output-major, so one
/// arbitration round's candidate scan walks contiguous heads.
///
/// A queue is almost always empty or one deep, so its front lives
/// inline in the flat `heads` array — one load decides a candidate —
/// and only what stands behind the front goes to the switch's one
/// backlog slab, as a ring of `nodes` whose last is `tails[q]`: the
/// tail's `next` is the first, so one index per queue serves both
/// ends. Freed nodes go on a LIFO free list, so the next push reuses
/// the most recently touched one; the slab grows (by doubling) only
/// when the free list is empty. Credits bound every input's backlog,
/// so it never needs more than `radix · n_vls · switch_ibuf_blocks`
/// nodes.
///
/// Invariants, per queue `q`:
/// - `heads[q]` carries [`OCCUPIED`] iff the queue is non-empty, and is
///   then its front;
/// - `heads[q]` carries [`MORE`] iff the queue has a backlog; `tails[q]`
///   is then its last node (and is meaningless otherwise), and the ring
///   from the tail's `next` round to the tail holds the queue behind its
///   front in order, flags clear;
/// - every node is on exactly one ring or on the free list.
#[derive(Clone, Debug)]
struct Voqs {
    heads: Vec<HDesc>,
    tails: Vec<u32>,
    nodes: Vec<Node>,
    /// The most recently freed node, heading the free list through
    /// `next`, or [`NIL`].
    free: u32,
}

impl Voqs {
    fn new(queues: usize) -> Self {
        let empty = HDesc {
            h: PktHandle::from_bits(0),
            meta: 0,
            ready_at: Time::ZERO,
        };
        Voqs {
            heads: vec![empty; queues],
            tails: vec![0; queues],
            nodes: Vec::new(),
            free: NIL,
        }
    }

    /// The front of queue `q`, if it has one.
    #[inline]
    fn front(&self, q: usize) -> Option<&HDesc> {
        let head = &self.heads[q];
        (head.meta & OCCUPIED != 0).then_some(head)
    }

    /// Append `d` to queue `q`; true if the queue was empty.
    #[inline]
    fn push(&mut self, q: usize, d: HDesc) -> bool {
        let meta = self.heads[q].meta;
        if meta & OCCUPIED == 0 {
            self.heads[q] = HDesc {
                meta: d.meta | OCCUPIED,
                ..d
            };
            return true;
        }
        let node = Node { d, next: NIL };
        let n = match self.free {
            NIL => {
                let n = u32::try_from(self.nodes.len()).expect("backlog slab full");
                self.nodes.push(node);
                n
            }
            n => {
                self.free = self.nodes[n as usize].next;
                self.nodes[n as usize] = node;
                n
            }
        };
        let tail = self.tails[q] as usize;
        self.nodes[n as usize].next = if meta & MORE == 0 {
            self.heads[q].meta |= MORE;
            n
        } else {
            std::mem::replace(&mut self.nodes[tail].next, n)
        };
        self.tails[q] = n;
        false
    }

    /// Take the front of queue `q`, promoting the next packet (if any)
    /// into the head slot.
    #[inline]
    fn pop(&mut self, q: usize) -> Option<HDesc> {
        let head = self.heads[q];
        if head.meta & OCCUPIED == 0 {
            return None;
        }
        if head.meta & MORE != 0 {
            let tail = self.tails[q] as usize;
            let first = self.nodes[tail].next;
            let node = &mut self.nodes[first as usize];
            let (next, d) = (std::mem::replace(&mut node.next, self.free), node.d);
            self.free = first;
            let more = if first as usize == tail {
                0
            } else {
                self.nodes[tail].next = next;
                MORE
            };
            self.heads[q] = HDesc {
                meta: d.meta | OCCUPIED | more,
                ..d
            };
        } else {
            self.heads[q].meta = 0;
        }
        Some(HDesc {
            meta: head.bytes(),
            ..head
        })
    }

    fn len(&self, q: usize) -> usize {
        self.iter(q).count()
    }

    /// Queue `q`'s backlog nodes, front to back.
    fn ring(&self, q: usize) -> impl Iterator<Item = usize> + '_ {
        let tail = self.tails[q] as usize;
        let first = (self.heads[q].meta & MORE != 0).then(|| self.nodes[tail].next as usize);
        let next = move |&n: &usize| (n != tail).then(|| self.nodes[n].next as usize);
        std::iter::successors(first, next)
    }

    /// Queue `q` front to back.
    fn iter(&self, q: usize) -> impl Iterator<Item = &HDesc> {
        let rest = self.ring(q).map(|n| &self.nodes[n].d);
        self.front(q).into_iter().chain(rest)
    }

    /// Total packets over all queues.
    fn total(&self) -> usize {
        (0..self.heads.len()).map(|q| self.len(q)).sum()
    }

    /// Rewrite every queued packet's handle in place: the heads, then
    /// each queue's backlog.
    fn rewrite_handles(&mut self, mut f: impl FnMut(PktHandle) -> PktHandle) {
        for head in self.heads.iter_mut().filter(|d| d.meta & OCCUPIED != 0) {
            head.h = f(head.h);
        }
        for q in (0..self.heads.len()).filter(|&q| self.heads[q].meta & MORE != 0) {
            let tail = self.tails[q] as usize;
            let mut n = tail;
            loop {
                n = self.nodes[n].next as usize;
                self.nodes[n].d.h = f(self.nodes[n].d.h);
                if n == tail {
                    break;
                }
            }
        }
    }

    /// Empty queue `q`, splicing its backlog onto the free list.
    fn clear(&mut self, q: usize) {
        if self.heads[q].meta & MORE != 0 {
            let tail = self.tails[q] as usize;
            self.free = std::mem::replace(&mut self.nodes[tail].next, self.free);
        }
        self.heads[q].meta = 0;
    }
}

/// Per-port cabling as observers read it, and cold statistics.
/// Everything the arbitration hot path touches lives in [`HotPort`].
#[derive(Clone, Debug)]
pub struct SwPort {
    /// Channel arriving at this port (None if uncabled).
    pub in_channel: Option<u32>,
    /// Channel leaving this port (None if uncabled).
    pub out_channel: Option<u32>,
    // ---- statistics ----------------------------------------------------
    pub forwarded_packets: u64,
    pub forwarded_bytes: u64,
    /// Arbitration rounds on this output where at least one head packet
    /// was ready to go but lacked whole-packet downstream credits and
    /// nothing could be granted — the moral equivalent of the
    /// `PortXmitWait` counter a fabric manager reads from real switches.
    pub xmit_wait: u64,
}

/// A cabled port's two channels and the device at the far end, resolved
/// once from the network's channel table ([`Switch::wire`]) so that a
/// grant reads its consequences — where the packet goes, where its
/// credits return to — from the two ports involved.
#[derive(Clone, Copy, Debug)]
pub struct PortLink {
    /// Channel leaving this port toward `peer`; also the reverse of
    /// `in_ch`, the way credits for arrivals on it return.
    pub out_ch: u32,
    /// Channel arriving at this port from `peer`.
    pub in_ch: u32,
    /// The device at the far end of the cable, and its port there.
    pub peer: (Dev, u16),
    /// Propagation delay of `out_ch`.
    pub delay: TimeDelta,
}

/// What one output `(port, VL)` contributes to an arbitration round.
#[derive(Clone, Copy, Debug, Default)]
struct Lane {
    /// Bit `in` set iff the queue from input `in` toward this
    /// `(out, vl)` is non-empty; the input scan visits set bits only.
    /// Kept for radix ≤ 64 (any real InfiniBand crossbar); a wider
    /// switch scans the head slots themselves.
    waiting: u64,
    /// Downstream credits (64-byte blocks).
    credits: u32,
    /// Round-robin cursor over input ports.
    rr_in: u32,
}

/// The hot state of one port, one cache line: all an arbitration round
/// on this output reads unless it finds a candidate, and (as `link`)
/// all a grant needs to know about this port as the packet's input.
#[derive(Clone, Debug)]
#[repr(align(64))]
struct HotPort {
    /// Transmitter occupied until this instant.
    busy_until: Time,
    /// `None` if uncabled.
    link: Option<PortLink>,
    /// VL 0's lane, inline: the paper's fabric runs one data VL. Higher
    /// VLs are in [`Switch::lanes_hi`].
    lane0: Lane,
}

const _: () = assert!(std::mem::size_of::<HotPort>() == 64);
const _: () = assert!(std::mem::size_of::<HDesc>() == 16);
const _: () = assert!(std::mem::size_of::<Node>() == 24);

/// The decision produced by one successful arbitration round.
#[derive(Debug)]
pub struct Grant {
    /// Copy of the granted packet (FECN already applied — the pooled
    /// packet carries the same mark).
    pub pkt: Packet,
    /// Pool handle of the granted packet.
    pub h: PktHandle,
    pub in_port: u16,
    pub blocks: u32,
    /// Serialisation time on the output link.
    pub ser: TimeDelta,
}

/// A `radix`-port InfiniBand crossbar.
#[derive(Clone, Debug)]
pub struct Switch {
    pub ports: Vec<SwPort>,
    /// Linear forwarding table: destination LID → output port. Shared
    /// with the topology (and anyone else) — routing state is
    /// configuration, never mutated by the simulation.
    pub lft: Arc<Vec<u16>>,
    n_vls: u8,
    hot: Vec<HotPort>,
    /// Lanes of VLs 1.., `[port * (n_vls - 1) + vl - 1]`.
    lanes_hi: Vec<Lane>,
    voqs: Voqs,
    /// VL arbitration cursors, `[port]` (table shared via `Arc`).
    varb: Vec<VlArbiter>,
    /// Congestion detectors for each *output* `(port, vl)`,
    /// `[port * n_vls + vl]`.
    cong: Vec<PortVlCongestion>,
}

impl Switch {
    pub fn new(radix: usize, n_vls: u8, lft: impl Into<Arc<Vec<u16>>>) -> Self {
        Self::with_arbitration(radix, n_vls, lft, VlArbTable::round_robin(n_vls))
    }

    /// Build with an explicit VL arbitration table.
    pub fn with_arbitration(
        radix: usize,
        n_vls: u8,
        lft: impl Into<Arc<Vec<u16>>>,
        arb: VlArbTable,
    ) -> Self {
        let nv = n_vls as usize;
        let arb = Arc::new(arb);
        let ports = (0..radix)
            .map(|_| SwPort {
                in_channel: None,
                out_channel: None,
                forwarded_packets: 0,
                forwarded_bytes: 0,
                xmit_wait: 0,
            })
            .collect();
        let hot = HotPort {
            busy_until: Time::ZERO,
            link: None,
            lane0: Lane::default(),
        };
        Switch {
            ports,
            lft: lft.into(),
            n_vls,
            hot: vec![hot; radix],
            lanes_hi: vec![Lane::default(); radix * (nv - 1)],
            voqs: Voqs::new(radix * nv * radix),
            varb: (0..radix).map(|_| VlArbiter::new(arb.clone())).collect(),
            cong: (0..radix * nv)
                .map(|_| PortVlCongestion::disabled())
                .collect(),
        }
    }

    pub fn radix(&self) -> usize {
        self.ports.len()
    }
    pub fn n_vls(&self) -> u8 {
        self.n_vls
    }

    /// Make room in the backlog slab for `packets` per input
    /// `(port, VL)` before it has to grow.
    pub(crate) fn reserve_backlog(&mut self, packets: usize) {
        let nodes = self.ports.len() * self.n_vls as usize * packets;
        self.voqs.nodes.reserve_exact(nodes);
    }

    /// Flat `(port, vl)` index.
    #[inline]
    fn pv(&self, port: usize, vl: usize) -> usize {
        port * self.n_vls as usize + vl
    }

    #[inline]
    fn lane(&self, port: usize, vl: usize) -> &Lane {
        match vl.checked_sub(1) {
            None => &self.hot[port].lane0,
            Some(hi) => &self.lanes_hi[port * (self.n_vls as usize - 1) + hi],
        }
    }

    #[inline]
    fn lane_mut(&mut self, port: usize, vl: usize) -> &mut Lane {
        match vl.checked_sub(1) {
            None => &mut self.hot[port].lane0,
            Some(hi) => &mut self.lanes_hi[port * (self.n_vls as usize - 1) + hi],
        }
    }

    /// Note in output `(out, vl)`'s occupancy mask whether input `inp`
    /// has anything queued toward it.
    #[inline]
    fn set_waiting(&mut self, out: usize, vl: usize, inp: usize, waiting: bool) {
        if self.ports.len() <= 64 {
            let mask = &mut self.lane_mut(out, vl).waiting;
            *mask = *mask & !(1 << inp) | (waiting as u64) << inp;
        }
    }

    /// Resolve the cabling in `ports` against the network's channel
    /// table. Called once, when the fabric is wired.
    pub fn wire(&mut self, channels: &[Channel]) {
        for (port, hot) in self.ports.iter().zip(&mut self.hot) {
            hot.link = match (port.out_channel, port.in_channel) {
                (Some(out_ch), Some(in_ch)) => {
                    let out = &channels[out_ch as usize];
                    assert_eq!(out.reverse, in_ch, "a port's two channels share a cable");
                    Some(PortLink {
                        out_ch,
                        in_ch,
                        peer: out.to,
                        delay: out.delay,
                    })
                }
                _ => None,
            };
        }
    }

    /// The resolved cabling of `port`; panics if it is uncabled.
    #[inline]
    pub fn link(&self, port: u16) -> PortLink {
        self.hot[port as usize]
            .link
            .expect("traffic on an uncabled port")
    }

    /// Output port toward `dst`.
    #[inline]
    pub fn route(&self, dst: u32) -> u16 {
        self.lft[dst as usize]
    }

    /// Downstream credits available on `(out_port, vl)`.
    #[inline]
    pub fn credit(&self, port: u16, vl: Vl) -> u32 {
        self.lane(port as usize, vl as usize).credits
    }

    /// Per-VL credit counters of `port`, VL 0 first.
    pub fn credits_of(&self, port: u16) -> impl Iterator<Item = u32> + '_ {
        (0..self.n_vls).map(move |vl| self.credit(port, vl))
    }

    /// Overwrite one credit counter (test setup).
    pub fn set_credit(&mut self, port: u16, vl: Vl, blocks: u32) {
        self.lane_mut(port as usize, vl as usize).credits = blocks;
    }

    /// Instant `port`'s transmitter frees up.
    #[inline]
    pub fn busy_until(&self, port: u16) -> Time {
        self.hot[port as usize].busy_until
    }

    /// Congestion detector for output `(port, vl)`.
    #[inline]
    pub fn cong(&self, port: u16, vl: Vl) -> &PortVlCongestion {
        &self.cong[self.pv(port as usize, vl as usize)]
    }

    /// The detector for output `(port, vl)`, writable: the audit's
    /// arming tests desynchronise it from the VoQs.
    #[cfg(test)]
    pub(crate) fn cong_mut(&mut self, port: u16, vl: Vl) -> &mut PortVlCongestion {
        let i = self.pv(port as usize, vl as usize);
        &mut self.cong[i]
    }

    /// Packets standing in all of this switch's VoQs.
    pub fn queued_packets(&self) -> usize {
        self.voqs.total()
    }

    /// Install congestion detectors (CC on) for every cabled output.
    pub fn install_cc(&mut self, params: &CcParams, detect_capacity: u64, victim_ports: &[bool]) {
        let nv = self.n_vls as usize;
        for p in 0..self.ports.len() {
            if self.ports[p].out_channel.is_some() {
                let vm = victim_ports.get(p).copied().unwrap_or(false);
                for vl in 0..nv {
                    self.cong[p * nv + vl] = PortVlCongestion::new(params, detect_capacity, vm);
                }
            }
        }
    }

    /// Loss hook for oracle tests: silently discard the head
    /// packet of the first non-empty VoQ fed by `in_port`, releasing its
    /// pool slot — the drop a buggy buffer manager could commit.
    /// Nothing ledgers it, so the conservation check must flag it.
    pub fn drop_queued_for_test(&mut self, in_port: u16, pool: &mut PacketPool) -> Option<Packet> {
        let radix = self.ports.len();
        let nv = self.n_vls as usize;
        let inp = in_port as usize;
        for ov in 0..radix * nv {
            let q = ov * radix + inp;
            if let Some(d) = self.voqs.pop(q) {
                let waiting = self.voqs.front(q).is_some();
                self.set_waiting(ov / nv, ov % nv, inp, waiting);
                return Some(pool.release(d.h));
            }
        }
        None
    }

    /// Buffer an arriving packet (head at `now`) at `in_port`, routed to
    /// `out_port`; it becomes arbitrable at `ready_at`.
    pub fn enqueue(
        &mut self,
        in_port: u16,
        out_port: u16,
        h: PktHandle,
        ready_at: Time,
        pool: &PacketPool,
    ) {
        let pkt = pool.get(h);
        let (vl, bytes) = (pkt.vl as usize, pkt.bytes);
        let (out, inp) = (out_port as usize, in_port as usize);
        let ov = self.pv(out, vl);
        let has_credits = self.lane(out, vl).credits > 0;
        self.cong[ov].on_enqueue(bytes as u64, has_credits);
        let q = ov * self.ports.len() + inp;
        if self.voqs.push(q, HDesc::new(h, bytes, ready_at)) {
            self.set_waiting(out, vl, inp, true);
        }
    }

    /// Total packets queued toward `out_port` across all inputs and VLs
    /// (diagnostics).
    pub fn queued_toward(&self, out_port: u16) -> usize {
        let per_out = self.n_vls as usize * self.ports.len();
        let first = out_port as usize * per_out;
        (first..first + per_out).map(|q| self.voqs.len(q)).sum()
    }

    /// One arbitration round for `out_port` at `now`: the VL arbiter
    /// picks a lane among those with an eligible head packet (past its
    /// routing latency, whole-packet downstream credits available —
    /// virtual cut-through needs whole-packet buffering), then inputs
    /// are served round-robin within the lane.
    ///
    /// On success the packet is dequeued, credits are consumed, the
    /// transmitter is marked busy and — with CC installed — the FECN
    /// marking decision is applied (to the pooled packet and the
    /// returned copy alike). The caller handles event scheduling.
    pub fn arbitrate(
        &mut self,
        out_port: u16,
        now: Time,
        link_tx: impl Fn(u32) -> TimeDelta,
        cc: Option<&CcParams>,
        pool: &mut PacketPool,
    ) -> Option<Grant> {
        let o = out_port as usize;
        let nv = self.n_vls as usize;
        let radix = self.ports.len();
        if self.hot[o].busy_until > now {
            return None;
        }
        // Per-VL candidate: the first input (round robin from this
        // VL's cursor) whose head packet is past its routing latency,
        // with whole-packet downstream credits available.
        let mut sizes = [None::<u32>; 16];
        let mut cand_input = [0usize; 16];
        let mut credit_blocked = false;
        for vl in 0..nv {
            let ov = o * nv + vl;
            let Lane {
                waiting,
                credits,
                rr_in,
            } = *self.lane(o, vl);
            let heads = &self.voqs.heads[ov * radix..][..radix];
            let mut consider = |inp: usize| -> bool {
                let head = &heads[inp];
                if head.meta & OCCUPIED != 0 && head.ready_at <= now {
                    if credits >= blocks_for(head.bytes()) {
                        sizes[vl] = Some(head.bytes());
                        cand_input[vl] = inp;
                        return true;
                    }
                    credit_blocked = true;
                }
                false
            };
            let start = rr_in as usize;
            if radix <= 64 {
                // Round-robin order over the occupied inputs only:
                // bits start.. then 0..start.
                let rotate = !0u64 << start;
                'scan: for mut m in [waiting & rotate, waiting & !rotate] {
                    while m != 0 {
                        let inp = m.trailing_zeros() as usize;
                        m &= m - 1;
                        if consider(inp) {
                            break 'scan;
                        }
                    }
                }
            } else {
                (start..radix).chain(0..start).any(consider);
            }
        }
        // With no candidate the VL arbiter would pick nothing and keep
        // its cursors; its state is left untouched, unread.
        let sizes = &sizes[..nv];
        let picked = if sizes.iter().any(Option::is_some) {
            self.varb[o].pick_sized(sizes)
        } else {
            None
        };
        let Some(vl) = picked else {
            if credit_blocked {
                // Data stood ready but downstream buffer space alone
                // held the output idle: one stalled arbitration round.
                self.ports[o].xmit_wait += 1;
            }
            return None;
        };
        let vl = vl as usize;
        let inp = cand_input[vl];
        let ov = o * nv + vl;
        let q = ov * radix + inp;
        let hd = self.voqs.pop(q).expect("candidate head vanished");
        let bytes = hd.bytes();
        let blocks = blocks_for(bytes);
        let ser = link_tx(bytes);

        if self.voqs.front(q).is_none() {
            self.set_waiting(o, vl, inp, false);
        }
        let lane = self.lane_mut(o, vl);
        lane.rr_in = ((inp + 1) % radix) as u32;
        lane.credits -= blocks;
        let has_credits = lane.credits > 0;
        // FECN decision uses the congestion state *including* this
        // packet, then the occupancy drops (fused hook).
        let fecn = match cc {
            Some(params) => self.cong[ov].on_forward(bytes, has_credits, params),
            None => {
                self.cong[ov].on_dequeue(bytes as u64, has_credits);
                false
            }
        };
        let pkt = {
            let p = pool.get_mut(hd.h);
            if fecn {
                p.fecn = true;
            }
            *p
        };
        self.hot[o].busy_until = now + ser;
        let op = &mut self.ports[o];
        op.forwarded_packets += 1;
        op.forwarded_bytes += bytes as u64;

        Some(Grant {
            pkt,
            h: hd.h,
            in_port: inp as u16,
            blocks,
            ser,
        })
    }

    /// Flow-control blocks standing in `in_port`'s input buffer on `vl`
    /// (across all output VoQs) — the buffered term of the credit
    /// conservation ledger for the channel feeding that port.
    pub fn buffered_blocks(&self, in_port: u16, vl: Vl) -> u64 {
        let radix = self.ports.len();
        let nv = self.n_vls as usize;
        (0..radix)
            .map(|o| o * nv + vl as usize)
            .flat_map(|ov| self.voqs.iter(ov * radix + in_port as usize))
            .map(|d| blocks_for(d.bytes()) as u64)
            .sum()
    }

    /// Bytes standing in VoQs across all inputs toward `(out_port, vl)`
    /// — the ground truth the congestion detector's occupancy counter
    /// shadows.
    pub fn queued_bytes_toward(&self, out_port: u16, vl: Vl) -> u64 {
        let radix = self.ports.len();
        let ov = self.pv(out_port as usize, vl as usize);
        (0..radix)
            .flat_map(|inp| self.voqs.iter(ov * radix + inp))
            .map(|d| d.bytes() as u64)
            .sum()
    }

    /// Corruption hook for oracle tests: make `blocks` credits on
    /// `out_port`/`vl` vanish without any packet movement — exactly the
    /// corruption a refactor of the credit path could introduce.
    /// Nothing ledgers it, so the oracle must flag it. Always compiled
    /// so integration tests (the flight-recorder dump) can trip the
    /// oracle too.
    pub fn leak_credits_for_test(&mut self, out_port: u16, vl: Vl, blocks: u32) {
        let credits = &mut self.lane_mut(out_port as usize, vl as usize).credits;
        *credits = credits.saturating_sub(blocks);
    }

    /// Credit update from downstream for `out_port`.
    pub fn add_credits(&mut self, out_port: u16, vl: Vl, blocks: u32) {
        let lane = self.lane_mut(out_port as usize, vl as usize);
        lane.credits += blocks;
        let has = lane.credits > 0;
        let i = self.pv(out_port as usize, vl as usize);
        self.cong[i].on_credit_change(has);
    }

    /// Sum of FECN marks applied by this switch.
    pub fn marked_packets(&self) -> u64 {
        self.cong.iter().map(|c| c.marked_packets()).sum()
    }

    /// Move every queued packet handle from `src` to `dst`, releasing
    /// the source slots (see `Hca::remap_pool`): device migration
    /// between the master network and a shard carries the VoQ contents
    /// into the destination's arena.
    pub(crate) fn remap_pool(&mut self, src: &mut PacketPool, dst: &mut PacketPool) {
        self.voqs.rewrite_handles(|h| dst.alloc(src.release(h)));
    }

    /// Export the switch's complete mutable state (checkpoint),
    /// resolving queued handles to full packets. The wiring (channels,
    /// LFT, arbitration tables, detector thresholds) is configuration,
    /// rebuilt from the topology and `NetConfig`. The serialized shape
    /// is identical to the pre-pool per-port layout, so golden
    /// checkpoints stay byte-stable.
    pub fn state(&self, pool: &PacketPool) -> SwitchState {
        let radix = self.ports.len();
        let nv = self.n_vls as usize;
        SwitchState {
            ports: (0..radix)
                .map(|p| SwPortState {
                    voq: (0..radix * nv)
                        .map(|ov| {
                            self.voqs
                                .iter(ov * radix + p)
                                .map(|d| Desc {
                                    pkt: *pool.get(d.h),
                                    ready_at: d.ready_at,
                                })
                                .collect()
                        })
                        .collect(),
                    busy_until: self.hot[p].busy_until,
                    credits: self.credits_of(p as u16).collect(),
                    varb: self.varb[p].state(),
                    rr_in: (0..nv).map(|vl| self.lane(p, vl).rr_in).collect(),
                    cong: self.cong[p * nv..][..nv]
                        .iter()
                        .map(|c| c.state())
                        .collect(),
                    forwarded_packets: self.ports[p].forwarded_packets,
                    forwarded_bytes: self.ports[p].forwarded_bytes,
                    xmit_wait: self.ports[p].xmit_wait,
                })
                .collect(),
        }
    }

    /// Overwrite the switch's mutable state (checkpoint restore),
    /// allocating every queued packet into `pool`. Validates every
    /// per-port table width against this switch's geometry before
    /// touching anything.
    pub fn restore_state(&mut self, s: &SwitchState, pool: &mut PacketPool) -> Result<(), String> {
        let radix = self.ports.len();
        let nv = self.n_vls as usize;
        if s.ports.len() != radix {
            return Err(format!(
                "switch state has {} ports, fabric has {}",
                s.ports.len(),
                radix
            ));
        }
        for (i, ps) in s.ports.iter().enumerate() {
            if ps.voq.len() != radix * nv {
                return Err(format!(
                    "port {i}: state has {} VoQs, fabric has {}",
                    ps.voq.len(),
                    radix * nv
                ));
            }
            if ps.credits.len() != nv || ps.cong.len() != nv || ps.rr_in.len() != nv {
                return Err(format!("port {i}: per-VL table width mismatch"));
            }
            if ps.rr_in.iter().any(|&inp| inp as usize >= radix) {
                return Err(format!("port {i}: round-robin cursor past the last input"));
            }
        }
        for (p, ps) in s.ports.iter().enumerate() {
            for (ov, qs) in ps.voq.iter().enumerate() {
                let q = ov * radix + p;
                self.voqs.clear(q);
                for d in qs {
                    let h = pool.alloc(d.pkt);
                    self.voqs.push(q, HDesc::new(h, d.pkt.bytes, d.ready_at));
                }
                self.set_waiting(ov / nv, ov % nv, p, !qs.is_empty());
            }
            self.hot[p].busy_until = ps.busy_until;
            self.varb[p].restore_state(&ps.varb);
            for vl in 0..nv {
                let lane = self.lane_mut(p, vl);
                lane.credits = ps.credits[vl];
                lane.rr_in = ps.rr_in[vl];
                self.cong[p * nv + vl].restore_state(&ps.cong[vl]);
            }
            self.ports[p].forwarded_packets = ps.forwarded_packets;
            self.ports[p].forwarded_bytes = ps.forwarded_bytes;
            self.ports[p].xmit_wait = ps.xmit_wait;
        }
        Ok(())
    }
}

/// Serializable image of one [`SwPort`]'s mutable state.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SwPortState {
    /// `voq[out_port * n_vls + vl]`, each queue front-to-back.
    pub voq: Vec<Vec<Desc>>,
    pub busy_until: Time,
    pub credits: Vec<u32>,
    /// VL-arbiter round-robin cursors.
    pub varb: VlArbState,
    /// Per-VL round-robin cursor over input ports.
    pub rr_in: Vec<u32>,
    pub cong: Vec<PortVlCongestionState>,
    pub forwarded_packets: u64,
    pub forwarded_bytes: u64,
    pub xmit_wait: u64,
}

/// Serializable image of a [`Switch`]'s mutable state.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SwitchState {
    pub ports: Vec<SwPortState>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::PacketKind;
    use ibsim_engine::time::Bandwidth;
    use proptest::prelude::*;
    use std::collections::VecDeque;

    const BW: Bandwidth = Bandwidth::from_gbps(20);

    fn pkt(dst: u32, bytes: u32) -> Packet {
        Packet {
            src: 0,
            dst,
            bytes,
            vl: 0,
            sl: 0,
            kind: PacketKind::Data { class: 0 },
            fecn: false,
            seq: 0,
            injected_at: Time::ZERO,
        }
    }

    fn enq(s: &mut Switch, pool: &mut PacketPool, inp: u16, out: u16, p: Packet, ready: u64) {
        let h = pool.alloc(p);
        s.enqueue(inp, out, h, Time(ready), pool);
    }

    /// 4-port switch, port i routes dst i, everything cabled.
    fn sw() -> Switch {
        let mut s = Switch::new(4, 1, vec![0, 1, 2, 3]);
        for p in 0..4 {
            s.ports[p].in_channel = Some(0);
            s.ports[p].out_channel = Some(0);
            s.set_credit(p as u16, 0, 128);
        }
        s
    }

    #[test]
    fn grants_ready_packet() {
        let mut s = sw();
        let mut pool = PacketPool::new();
        enq(&mut s, &mut pool, 0, 1, pkt(1, 2048), 0);
        let g = s
            .arbitrate(1, Time(0), |b| BW.tx_time(b as u64), None, &mut pool)
            .unwrap();
        assert_eq!(g.in_port, 0);
        assert_eq!(g.blocks, 32);
        assert_eq!(g.ser, TimeDelta(819_200));
        assert_eq!(s.credit(1, 0), 128 - 32);
        assert_eq!(s.busy_until(1), Time(819_200));
        assert_eq!(s.ports[1].forwarded_packets, 1);
        assert_eq!(pool.get(g.h), &g.pkt);
    }

    #[test]
    fn respects_ready_time() {
        let mut s = sw();
        let mut pool = PacketPool::new();
        enq(&mut s, &mut pool, 0, 1, pkt(1, 2048), 500);
        assert!(s
            .arbitrate(1, Time(499), |b| BW.tx_time(b as u64), None, &mut pool)
            .is_none());
        assert!(s
            .arbitrate(1, Time(500), |b| BW.tx_time(b as u64), None, &mut pool)
            .is_some());
    }

    #[test]
    fn busy_output_grants_nothing() {
        let mut s = sw();
        let mut pool = PacketPool::new();
        enq(&mut s, &mut pool, 0, 1, pkt(1, 2048), 0);
        enq(&mut s, &mut pool, 2, 1, pkt(1, 2048), 0);
        assert!(s
            .arbitrate(1, Time(0), |b| BW.tx_time(b as u64), None, &mut pool)
            .is_some());
        assert!(s
            .arbitrate(1, Time(1), |b| BW.tx_time(b as u64), None, &mut pool)
            .is_none());
        // After the transmitter frees up, the second packet goes.
        assert!(s
            .arbitrate(1, Time(819_200), |b| BW.tx_time(b as u64), None, &mut pool)
            .is_some());
    }

    #[test]
    fn requires_whole_packet_credits() {
        let mut s = sw();
        let mut pool = PacketPool::new();
        s.set_credit(1, 0, 31); // one block short of a 2 KiB packet
        enq(&mut s, &mut pool, 0, 1, pkt(1, 2048), 0);
        assert!(s
            .arbitrate(1, Time(0), |b| BW.tx_time(b as u64), None, &mut pool)
            .is_none());
        s.add_credits(1, 0, 1);
        assert!(s
            .arbitrate(1, Time(0), |b| BW.tx_time(b as u64), None, &mut pool)
            .is_some());
        assert_eq!(s.credit(1, 0), 0);
    }

    #[test]
    fn round_robin_across_inputs() {
        let mut s = sw();
        let mut pool = PacketPool::new();
        for inp in [0u16, 2, 3] {
            enq(&mut s, &mut pool, inp, 1, pkt(1, 64), 0);
            enq(&mut s, &mut pool, inp, 1, pkt(1, 64), 0);
        }
        let mut order = vec![];
        let mut t = Time(0);
        for _ in 0..6 {
            let g = s
                .arbitrate(1, t, |b| BW.tx_time(b as u64), None, &mut pool)
                .unwrap();
            order.push(g.in_port);
            pool.release(g.h);
            t = s.busy_until(1);
        }
        assert_eq!(order, [0, 2, 3, 0, 2, 3], "round robin interleaves inputs");
    }

    #[test]
    fn per_flow_fifo_within_queue() {
        let mut s = sw();
        let mut pool = PacketPool::new();
        let mut p1 = pkt(1, 64);
        p1.seq = 1;
        let mut p2 = pkt(1, 64);
        p2.seq = 2;
        enq(&mut s, &mut pool, 0, 1, p1, 0);
        enq(&mut s, &mut pool, 0, 1, p2, 0);
        let g1 = s
            .arbitrate(1, Time(0), |b| BW.tx_time(b as u64), None, &mut pool)
            .unwrap();
        let g2 = s
            .arbitrate(
                1,
                s.busy_until(1),
                |b| BW.tx_time(b as u64),
                None,
                &mut pool,
            )
            .unwrap();
        assert_eq!((g1.pkt.seq, g2.pkt.seq), (1, 2));
    }

    #[test]
    fn fecn_marked_under_congestion() {
        let mut s = sw();
        let mut pool = PacketPool::new();
        let params = CcParams::paper_table1();
        // Tiny detect capacity: threshold = max(16/16..) -> 1/16 of 1024 = 64.
        s.install_cc(&params, 1024, &[false; 4]);
        // Queue 2 packets toward port 1 -> 4096 bytes >> 64-byte threshold.
        enq(&mut s, &mut pool, 0, 1, pkt(1, 2048), 0);
        enq(&mut s, &mut pool, 2, 1, pkt(1, 2048), 0);
        let g = s
            .arbitrate(
                1,
                Time(0),
                |b| BW.tx_time(b as u64),
                Some(&params),
                &mut pool,
            )
            .unwrap();
        assert!(g.pkt.fecn, "root port above threshold marks");
        assert!(pool.get(g.h).fecn, "pooled packet carries the mark too");
        assert_eq!(s.marked_packets(), 1);
    }

    #[test]
    fn no_fecn_without_credits_unless_victim_masked() {
        let params = CcParams::paper_table1();
        // Victim (no credits, no mask): no marking.
        let mut s = sw();
        let mut pool = PacketPool::new();
        s.install_cc(&params, 1024, &[false; 4]);
        s.set_credit(1, 0, 32); // just enough to forward one packet
        enq(&mut s, &mut pool, 0, 1, pkt(1, 2048), 0);
        enq(&mut s, &mut pool, 2, 1, pkt(1, 2048), 0);
        // After this grant the port has zero credits -> victim.
        let g = s
            .arbitrate(
                1,
                Time(0),
                |b| BW.tx_time(b as u64),
                Some(&params),
                &mut pool,
            )
            .unwrap();
        // First grant happened while credits were available: marks.
        assert!(g.pkt.fecn);
        // Second: no credits -> cannot even forward; and the detector
        // has left/never entered congestion for marking purposes.
        assert!(s
            .arbitrate(
                1,
                s.busy_until(1),
                |b| BW.tx_time(b as u64),
                Some(&params),
                &mut pool
            )
            .is_none());

        // Same situation with Victim_Mask: state is held even at zero
        // credits, so when credits return the packet is marked.
        let mut s = sw();
        let mut pool = PacketPool::new();
        s.install_cc(&params, 1024, &[false, true, false, false]);
        s.set_credit(1, 0, 0);
        enq(&mut s, &mut pool, 0, 1, pkt(1, 2048), 0);
        enq(&mut s, &mut pool, 2, 1, pkt(1, 2048), 0);
        assert!(
            s.cong(1, 0).in_congestion(),
            "masked port congests without credits"
        );
    }

    #[test]
    fn uncabled_ports_get_no_detectors() {
        let mut s = Switch::new(4, 1, vec![0, 1, 2, 3]);
        s.ports[0].out_channel = Some(0);
        let params = CcParams::paper_table1();
        s.install_cc(&params, 1024, &[false; 4]);
        // Port 3 is uncabled; its detector stays disabled.
        let i = s.pv(3, 0);
        s.cong[i].on_enqueue(1 << 20, true);
        assert!(!s.cong(3, 0).in_congestion());
    }

    #[test]
    fn queued_toward_counts_all_inputs() {
        let mut s = sw();
        let mut pool = PacketPool::new();
        enq(&mut s, &mut pool, 0, 2, pkt(2, 64), 0);
        enq(&mut s, &mut pool, 1, 2, pkt(2, 64), 0);
        enq(&mut s, &mut pool, 3, 2, pkt(2, 64), 0);
        assert_eq!(s.queued_toward(2), 3);
        assert_eq!(s.queued_toward(1), 0);
    }

    #[test]
    fn xmit_wait_counts_credit_stalls_only() {
        let mut s = sw();
        let mut pool = PacketPool::new();
        // Not yet ready: idle, not stalled.
        enq(&mut s, &mut pool, 0, 1, pkt(1, 2048), 900);
        assert!(s
            .arbitrate(1, Time(0), |b| BW.tx_time(b as u64), None, &mut pool)
            .is_none());
        assert_eq!(s.ports[1].xmit_wait, 0);
        // Ready but credit-starved: a stall per arbitration round.
        s.set_credit(1, 0, 0);
        assert!(s
            .arbitrate(1, Time(900), |b| BW.tx_time(b as u64), None, &mut pool)
            .is_none());
        assert!(s
            .arbitrate(1, Time(901), |b| BW.tx_time(b as u64), None, &mut pool)
            .is_none());
        assert_eq!(s.ports[1].xmit_wait, 2);
        // Credits restored: the grant proceeds and stalls stop counting.
        s.add_credits(1, 0, 128);
        assert!(s
            .arbitrate(1, Time(902), |b| BW.tx_time(b as u64), None, &mut pool)
            .is_some());
        assert_eq!(s.ports[1].xmit_wait, 2);
    }

    #[test]
    fn audit_helpers_count_blocks_and_bytes() {
        let mut s = sw();
        let mut pool = PacketPool::new();
        enq(&mut s, &mut pool, 0, 1, pkt(1, 2048), 0); // 32 blocks from input 0
        enq(&mut s, &mut pool, 2, 1, pkt(1, 64), 0); // 1 block from input 2
        assert_eq!(s.buffered_blocks(0, 0), 32);
        assert_eq!(s.buffered_blocks(2, 0), 1);
        assert_eq!(s.buffered_blocks(1, 0), 0);
        assert_eq!(s.queued_bytes_toward(1, 0), 2048 + 64);
        assert_eq!(s.queued_bytes_toward(2, 0), 0);
    }

    #[test]
    fn multi_vl_arbitration() {
        let mut s = Switch::new(2, 2, vec![0, 1]);
        for p in 0..2u16 {
            s.ports[p as usize].in_channel = Some(0);
            s.ports[p as usize].out_channel = Some(0);
            s.set_credit(p, 0, 128);
            s.set_credit(p, 1, 128);
        }
        let mut pool = PacketPool::new();
        let mut p0 = pkt(1, 64);
        p0.vl = 0;
        let mut p1 = pkt(1, 64);
        p1.vl = 1;
        enq(&mut s, &mut pool, 0, 1, p0, 0);
        enq(&mut s, &mut pool, 0, 1, p1, 0);
        let g1 = s
            .arbitrate(1, Time(0), |b| BW.tx_time(b as u64), None, &mut pool)
            .unwrap();
        let g2 = s
            .arbitrate(
                1,
                s.busy_until(1),
                |b| BW.tx_time(b as u64),
                None,
                &mut pool,
            )
            .unwrap();
        let vls = [g1.pkt.vl, g2.pkt.vl];
        assert!(vls.contains(&0) && vls.contains(&1), "both VLs served");
    }

    #[test]
    fn drop_queued_for_test_discards_head() {
        let mut s = sw();
        let mut pool = PacketPool::new();
        enq(&mut s, &mut pool, 0, 1, pkt(1, 2048), 0);
        let dropped = s.drop_queued_for_test(0, &mut pool).unwrap();
        assert_eq!(dropped.bytes, 2048);
        assert_eq!(pool.live(), 0);
        assert_eq!(s.queued_packets(), 0);
        assert!(s.drop_queued_for_test(0, &mut pool).is_none());
    }

    #[test]
    fn wide_switch_scans_heads_round_robin() {
        // 70 ports: no occupancy mask, the scan reads the head slots.
        let mut s = Switch::new(70, 1, (0..70).collect::<Vec<u16>>());
        s.set_credit(1, 0, 128);
        let mut pool = PacketPool::new();
        for inp in [0u16, 65, 69, 65] {
            enq(&mut s, &mut pool, inp, 1, pkt(1, 64), 0);
        }
        let mut order = vec![];
        while let Some(g) = s.arbitrate(1, s.busy_until(1), |_| TimeDelta(1), None, &mut pool) {
            order.push(g.in_port);
        }
        assert_eq!(order, [0, 65, 69, 65]);
        assert_eq!(s.queued_packets(), 0);
    }

    /// Slab nodes not on the free list.
    fn live_nodes(v: &Voqs) -> usize {
        let next = |n: u32| Some(v.nodes[n as usize].next).filter(|&n| n != NIL);
        let free = std::iter::successors(Some(v.free).filter(|&n| n != NIL), |&n| next(n));
        v.nodes.len() - free.count()
    }

    /// One step of the differential test below.
    #[derive(Clone, Copy, Debug)]
    enum Op {
        Enqueue {
            inp: u16,
            out: u16,
            vl: Vl,
            bytes: u32,
        },
        Arbitrate {
            out: u16,
        },
        Drop {
            inp: u16,
        },
        /// `state` into a fresh pool and either a fresh switch or this
        /// one (whose queues the restore must empty), which take over.
        Checkpoint {
            fresh: bool,
        },
        /// `remap_pool` into a fresh pool, which takes over.
        Remap,
    }

    /// Ports and VLs are drawn without knowing the switch; the test
    /// folds them into its geometry.
    fn ops() -> impl Strategy<Value = Vec<Op>> {
        let op = (0u32..12, 0u16..1000, 0u16..1000, 0u8..16, 1u32..5000).prop_map(
            |(kind, a, b, vl, bytes)| match kind {
                // Enqueues outnumber grants, so queues get deep, and
                // one queue draws a third of them.
                0..=3 => Op::Enqueue {
                    inp: a,
                    out: b,
                    vl,
                    bytes,
                },
                4..=5 => Op::Enqueue {
                    inp: 0,
                    out: 1,
                    vl: 0,
                    bytes,
                },
                6..=8 => Op::Arbitrate { out: a },
                9 => Op::Drop { inp: a },
                10 => Op::Checkpoint { fresh: a % 2 == 0 },
                _ => Op::Remap,
            },
        );
        prop::collection::vec(op, 1..120)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The switch's queues against the obvious model, one
        /// `VecDeque` of packets per (output, VL, input): whatever is
        /// enqueued, granted, dropped, checkpointed into a fresh or a
        /// used switch or moved to another pool, every queue holds the
        /// model's packets in the model's order, a grant takes a model
        /// queue's front, an idle output is one the model has nothing
        /// for, and the backlog slab's live nodes are exactly the
        /// packets standing behind a head.
        #[test]
        fn queues_match_a_deque_model(
            (radix, n_vls, wide) in (2u16..5, 1u8..3, 0u32..4),
            script in ops(),
        ) {
            // One switch in four is too wide for occupancy masks.
            let radix = if wide == 0 { radix + 64 } else { radix };
            let (r, nv) = (radix as usize, n_vls as usize);
            let fresh = || {
                let mut s = Switch::new(r, n_vls, (0..radix).collect::<Vec<u16>>());
                for p in 0..radix {
                    for vl in 0..n_vls {
                        s.set_credit(p, vl, u32::MAX);
                    }
                }
                s
            };
            let (mut sw, mut pool) = (fresh(), PacketPool::new());
            let mut model: Vec<VecDeque<Desc>> = vec![VecDeque::new(); r * nv * r];
            let mut now = Time(0);
            let mut seq = 0;
            for op in script {
                now += TimeDelta(2);
                match op {
                    Op::Enqueue { inp, out, vl, bytes } => {
                        let (inp, out, vl) = (inp % radix, out % radix, vl % n_vls);
                        seq += 1;
                        let p = Packet { vl, seq, ..pkt(out as u32, bytes) };
                        enq(&mut sw, &mut pool, inp, out, p, now.0);
                        let q = (out as usize * nv + vl as usize) * r + inp as usize;
                        model[q].push_back(Desc { pkt: p, ready_at: now });
                    }
                    Op::Arbitrate { out } => {
                        let out = out % radix;
                        let toward = out as usize * nv * r..(out as usize + 1) * nv * r;
                        match sw.arbitrate(out, now, |_| TimeDelta(1), None, &mut pool) {
                            Some(g) => {
                                let q = toward.start + g.pkt.vl as usize * r + g.in_port as usize;
                                let want = model[q].pop_front();
                                prop_assert_eq!(want.map(|d| d.pkt), Some(pool.release(g.h)));
                            }
                            None => prop_assert!(model[toward].iter().all(|q| q.is_empty())),
                        }
                    }
                    Op::Drop { inp } => {
                        let inp = inp % radix;
                        let first = (0..r * nv).find_map(|ov| model[ov * r + inp as usize].pop_front());
                        let got = sw.drop_queued_for_test(inp, &mut pool);
                        prop_assert_eq!(got, first.map(|d| d.pkt));
                    }
                    Op::Checkpoint { fresh: into_fresh } => {
                        let (mut sw2, mut pool2) = (sw.clone(), PacketPool::new());
                        if into_fresh {
                            sw2 = fresh();
                        }
                        sw2.restore_state(&sw.state(&pool), &mut pool2).unwrap();
                        (sw, pool) = (sw2, pool2);
                    }
                    Op::Remap => {
                        let mut pool2 = PacketPool::new();
                        sw.remap_pool(&mut pool, &mut pool2);
                        prop_assert_eq!(pool.live(), 0);
                        pool = pool2;
                    }
                }
                let st = sw.state(&pool);
                for (q, want) in model.iter().enumerate() {
                    let got = &st.ports[q % r].voq[q / r];
                    prop_assert_eq!(got, &Vec::from(want.clone()), "queue {}", q);
                    prop_assert_eq!(sw.voqs.len(q), want.len());
                    prop_assert_eq!(sw.voqs.front(q).map(|d| d.h), sw.voqs.iter(q).next().map(|d| d.h));
                }
                let total: usize = model.iter().map(VecDeque::len).sum();
                prop_assert_eq!(sw.queued_packets(), total);
                prop_assert_eq!(pool.live(), total);
                // The slab holds every packet behind a head, and no more.
                let backlog: usize = model.iter().map(|q| q.len().saturating_sub(1)).sum();
                prop_assert_eq!(live_nodes(&sw.voqs), backlog);
            }
        }
    }

    #[test]
    fn state_roundtrip_via_pool() {
        let mut s = sw();
        let mut pool = PacketPool::new();
        enq(&mut s, &mut pool, 0, 1, pkt(1, 2048), 7);
        enq(&mut s, &mut pool, 2, 3, pkt(3, 64), 9);
        let snap = s.state(&pool);
        let mut s2 = sw();
        let mut pool2 = PacketPool::new();
        s2.restore_state(&snap, &mut pool2).unwrap();
        assert_eq!(s2.state(&pool2), snap);
        assert_eq!(pool2.live(), 2);
        // The restored switch arbitrates identically.
        let g = s2
            .arbitrate(1, Time(7), |b| BW.tx_time(b as u64), None, &mut pool2)
            .unwrap();
        assert_eq!(g.pkt.bytes, 2048);
    }
}
