//! Per-packet tracing: follow selected flows hop by hop through the
//! fabric. Used by tests to prove packets take exactly the routes the
//! forwarding tables promise, and by humans to watch a congestion tree
//! delay a specific packet.
//!
//! Beyond plain hop records, the tracer captures the *causal* CC chain
//! the paper's claims rest on: a FECN mark at a switch arbiter leads to
//! a CNP queued at the destination ([`TracePoint::CnpQueued`]), whose
//! delivery raises the source's CCTI ([`TracePoint::CctiRaise`]) and —
//! when the injection-rate delay is live — throttles the next packet
//! ([`TracePoint::Throttle`]). CNPs travel dst→src, so a flow's CNP
//! records are captured under the *reversed* key;
//! [`Tracer::wants_packet`] handles the reversal.
//!
//! Every record carries the VL it was observed on, the instantaneous
//! VoQ depth at the recording device, and the credit state of the
//! egress it is bound for — the three numbers a congestion post-mortem
//! always wants next.
//!
//! Tracing is off by default and costs one branch per hook when off.

use crate::types::{NodeId, Vl};
use ibsim_engine::time::Time;
use serde::Serialize;

/// Where in a packet's life a record was taken.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize)]
pub enum TracePoint {
    /// First flit left the source HCA.
    Inject,
    /// Head reached a switch ingress.
    SwitchArrive { switch: u32, in_port: u16 },
    /// Granted by a switch output arbiter (FECN state as forwarded).
    Forward {
        switch: u32,
        out_port: u16,
        fecn: bool,
    },
    /// Tail fully received by the destination HCA.
    Arrive,
    /// Drained by the destination sink (delivery complete).
    Deliver,
    /// A FECN-marked data packet was received and a CNP was queued
    /// toward the source. Recorded under the data packet's key.
    CnpQueued,
    /// A CNP drained at the flow source and raised the CCTI.
    /// Recorded under the CNP's (reversed) key.
    CctiRaise { before: u16, after: u16 },
    /// The raised CCTI left a live injection-rate delay: the flow's
    /// next packet is gated for `delay_ps`. Recorded right after the
    /// [`TracePoint::CctiRaise`] that caused it.
    Throttle { delay_ps: u64 },
}

/// Instantaneous context captured alongside a record: the VL the
/// packet is observed on, the VoQ/queue depth at the recording device,
/// and the credit count of the egress it is bound for.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize)]
pub struct TraceCtx {
    pub vl: Vl,
    pub voq: u32,
    pub credit: u32,
}

/// One trace record. Data packets are identified by
/// `(src, dst, seq)` — unique per flow by construction. CNPs carry
/// their own (reversed) `src`/`dst` with `seq = 0` and `cnp = true`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub struct TraceRecord {
    pub at_ps: u64,
    pub src: NodeId,
    pub dst: NodeId,
    pub seq: u32,
    pub cnp: bool,
    pub vl: Vl,
    /// VoQ (switch) or pending-queue (HCA) depth at record time.
    pub voq: u32,
    /// Credits available toward the next hop at record time.
    pub credit: u32,
    pub point: TracePoint,
}

impl TraceRecord {
    /// The `(src, dst, seq)` identity used by [`Tracer::packet`].
    pub fn key(&self) -> (NodeId, NodeId, u32) {
        (self.src, self.dst, self.seq)
    }
}

/// Collects records for an explicit set of (src, dst) flows.
///
/// Records live in one append-only byte log, in capture order (the
/// deterministic event order). Each record is one header byte — the
/// point's tag in bits 0–3, `cnp` in bit 4, `Forward`'s `fecn` in bit 5 —
/// then LEB128 varints: `at_ps` as a wrapping delta from the previous
/// record, `src`, `dst`, `seq`,
/// `vl`, `voq`, `credit`, and the point's payload fields in
/// declaration order. A hop record of a 72-node fabric takes about
/// 12 bytes against the 48 of a [`TraceRecord`]; [`Tracer::records`]
/// decodes them back.
#[derive(Clone, Debug, Default)]
pub struct Tracer {
    /// The traced flows, as the per-hop filter reads them: the traced
    /// destinations in ascending order, each with its traced sources in
    /// ascending order, no duplicates. Most packets are bound for no
    /// traced destination and leave after a short search over the few
    /// that are; nothing is hashed on the hot path.
    by_dst: Vec<(NodeId, Vec<NodeId>)>,
    log: Vec<u8>,
    len: usize,
    /// `at_ps` of the last record: the next one's delta is taken from it.
    last_at: u64,
}

/// A position in a [`Tracer`]'s log: a byte offset and the `at_ps` of
/// the record before it, which the next record's delta is taken from.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct TraceCursor {
    pos: usize,
    at_ps: u64,
}

impl Tracer {
    pub fn for_flows(flows: impl IntoIterator<Item = (NodeId, NodeId)>) -> Self {
        let mut t = Tracer::default();
        t.add_flows(flows);
        t
    }

    /// Widen the traced flow set, keeping records already collected.
    /// `Network::enable_trace` merges through here so enable order
    /// relative to other `enable_*`/`install_*` calls never matters.
    pub fn add_flows(&mut self, flows: impl IntoIterator<Item = (NodeId, NodeId)>) {
        let held = self
            .by_dst
            .drain(..)
            .flat_map(|(d, srcs)| srcs.into_iter().map(move |s| (d, s)));
        let mut pairs: Vec<(NodeId, NodeId)> =
            held.chain(flows.into_iter().map(|(s, d)| (d, s))).collect();
        pairs.sort_unstable();
        pairs.dedup();
        for (d, s) in pairs {
            match self.by_dst.last_mut() {
                Some((last, srcs)) if *last == d => srcs.push(s),
                _ => self.by_dst.push((d, vec![s])),
            }
        }
    }

    #[inline]
    pub fn wants(&self, src: NodeId, dst: NodeId) -> bool {
        self.by_dst
            .binary_search_by_key(&dst, |e| e.0)
            .is_ok_and(|i| self.by_dst[i].1.binary_search(&src).is_ok())
    }

    /// Flow-set check with CNP reversal: a CNP for traced flow
    /// (s, d) travels d→s, so it is wanted when (dst, src) is traced.
    #[inline]
    pub fn wants_packet(&self, src: NodeId, dst: NodeId, cnp: bool) -> bool {
        if cnp {
            self.wants(dst, src)
        } else {
            self.wants(src, dst)
        }
    }

    /// Record a packet-scoped point. Returns whether it was kept.
    // The arguments mirror the TraceRecord fields one-to-one.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    pub fn record(
        &mut self,
        at: Time,
        src: NodeId,
        dst: NodeId,
        seq: u32,
        cnp: bool,
        point: TracePoint,
        ctx: TraceCtx,
    ) -> bool {
        if !self.wants_packet(src, dst, cnp) {
            return false;
        }
        self.push(TraceRecord {
            at_ps: at.as_ps(),
            src,
            dst,
            seq,
            cnp,
            vl: ctx.vl,
            voq: ctx.voq,
            credit: ctx.credit,
            point,
        });
        true
    }

    /// Append an already-filtered record.
    pub fn push(&mut self, rec: TraceRecord) {
        use TracePoint::*;
        let (head, payload, n): (u8, [u64; 2], usize) = match rec.point {
            Inject => (0, [0; 2], 0),
            SwitchArrive { switch, in_port } => (1, [switch.into(), in_port.into()], 2),
            Forward {
                switch,
                out_port,
                fecn,
            } => (2 | flag(fecn, FLAG), [switch.into(), out_port.into()], 2),
            Arrive => (3, [0; 2], 0),
            Deliver => (4, [0; 2], 0),
            CnpQueued => (5, [0; 2], 0),
            CctiRaise { before, after } => (6, [before.into(), after.into()], 2),
            Throttle { delay_ps } => (7, [delay_ps, 0], 1),
        };
        let log = &mut self.log;
        log.push(head | flag(rec.cnp, CNP));
        put_varint(log, rec.at_ps.wrapping_sub(self.last_at));
        let fields = [
            rec.src,
            rec.dst,
            rec.seq,
            rec.vl.into(),
            rec.voq,
            rec.credit,
        ];
        for v in fields.map(u64::from).iter().chain(&payload[..n]) {
            put_varint(log, *v);
        }
        self.len += 1;
        self.last_at = rec.at_ps;
    }

    /// Number of records held.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bytes the encoded records take.
    pub fn log_bytes(&self) -> usize {
        self.log.len()
    }

    /// Every record, decoded in capture order.
    pub fn records(&self) -> TraceRecords<'_> {
        TraceRecords {
            log: &self.log,
            at: TraceCursor::default(),
            left: self.len,
        }
    }

    /// Records of one specific packet, in capture order: a scan of the
    /// whole trace, so a query, not a hot-path call.
    pub fn packet(&self, src: NodeId, dst: NodeId, seq: u32) -> Vec<TraceRecord> {
        self.records()
            .filter(|r| r.key() == (src, dst, seq))
            .collect()
    }

    /// The switch sequence a packet was forwarded through.
    pub fn path_of(&self, src: NodeId, dst: NodeId, seq: u32) -> Vec<u32> {
        self.packet(src, dst, seq)
            .iter()
            .filter_map(|r| match r.point {
                TracePoint::Forward { switch, .. } => Some(switch),
                _ => None,
            })
            .collect()
    }
}

/// Header-byte bits above the point tag.
const CNP: u8 = 1 << 4;
const FLAG: u8 = 1 << 5;

fn flag(on: bool, bit: u8) -> u8 {
    if on {
        bit
    } else {
        0
    }
}

fn put_varint(log: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        log.push(v as u8 | 0x80);
        v >>= 7;
    }
    log.push(v as u8);
}

/// Decoding iterator over a [`Tracer`]'s records ([`Tracer::records`]).
#[derive(Clone, Debug)]
pub struct TraceRecords<'a> {
    log: &'a [u8],
    at: TraceCursor,
    left: usize,
}

impl TraceRecords<'_> {
    fn byte(&mut self) -> u8 {
        let b = self.log[self.at.pos];
        self.at.pos += 1;
        b
    }

    fn varint(&mut self) -> u64 {
        let (mut v, mut shift) = (0u64, 0);
        loop {
            let b = self.byte();
            v |= u64::from(b & 0x7f) << shift;
            if b < 0x80 {
                return v;
            }
            shift += 7;
        }
    }
}

impl Iterator for TraceRecords<'_> {
    type Item = TraceRecord;

    fn next(&mut self) -> Option<TraceRecord> {
        if self.left == 0 {
            return None;
        }
        self.left -= 1;
        // Every field was encoded from its own type, so the narrowing
        // casts below give back exactly what was pushed.
        let head = self.byte();
        let at_ps = self.at.at_ps.wrapping_add(self.varint());
        let src = self.varint() as NodeId;
        let dst = self.varint() as NodeId;
        let seq = self.varint() as u32;
        let (vl, voq, credit) = (
            self.varint() as Vl,
            self.varint() as u32,
            self.varint() as u32,
        );
        let point = match head & 0x0f {
            0 => TracePoint::Inject,
            1 => TracePoint::SwitchArrive {
                switch: self.varint() as u32,
                in_port: self.varint() as u16,
            },
            2 => TracePoint::Forward {
                switch: self.varint() as u32,
                out_port: self.varint() as u16,
                fecn: head & FLAG != 0,
            },
            3 => TracePoint::Arrive,
            4 => TracePoint::Deliver,
            5 => TracePoint::CnpQueued,
            6 => TracePoint::CctiRaise {
                before: self.varint() as u16,
                after: self.varint() as u16,
            },
            7 => TracePoint::Throttle {
                delay_ps: self.varint(),
            },
            tag => unreachable!("trace log tag {tag}: the log is only written by push"),
        };
        self.at.at_ps = at_ps;
        Some(TraceRecord {
            at_ps,
            src,
            dst,
            seq,
            cnp: head & CNP != 0,
            vl,
            voq,
            credit,
            point,
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for TraceRecords<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn ctx(vl: Vl, voq: u32, credit: u32) -> TraceCtx {
        TraceCtx { vl, voq, credit }
    }

    #[test]
    fn tracer_filters_flows() {
        let mut t = Tracer::for_flows([(1, 2)]);
        t.record(Time(10), 1, 2, 1, false, TracePoint::Inject, ctx(0, 3, 8));
        t.record(Time(20), 3, 4, 1, false, TracePoint::Inject, ctx(0, 0, 0)); // not traced
        assert_eq!(t.records().len(), 1);
        assert!(t.wants(1, 2));
        assert!(!t.wants(2, 1), "direction matters");
        // Context fields ride along untouched.
        let r = t.records().next().unwrap();
        assert_eq!((r.vl, r.voq, r.credit), (0, 3, 8));
    }

    #[test]
    fn flow_filter_agrees_with_the_flow_set_however_it_was_built() {
        // Several destinations, shared sources, duplicates, and a second
        // widening call: the sorted index must answer exactly what set
        // membership answers, for every pair in a box around the ids.
        let first = [(9, 2), (1, 2), (5, 7), (1, 7), (1, 2)];
        let second = [(3, 2), (0, 0), (9, 2)];
        let mut t = Tracer::for_flows(first);
        t.add_flows(second);
        let mut u = Tracer::for_flows(second);
        u.add_flows(first);
        let set: HashSet<(NodeId, NodeId)> = first.into_iter().chain(second).collect();
        assert_eq!(set.len(), 6, "duplicates collapse");
        let held: usize = t.by_dst.iter().map(|(_, srcs)| srcs.len()).sum();
        assert_eq!(held, set.len(), "the index holds each flow once");
        for src in 0..12 {
            for dst in 0..12 {
                let want = set.contains(&(src, dst));
                assert_eq!(t.wants(src, dst), want, "({src}, {dst})");
                assert_eq!(u.wants(src, dst), want, "order-irrelevant ({src}, {dst})");
            }
        }
        assert!(!Tracer::default().wants(0, 0));
    }

    #[test]
    fn cnp_records_are_captured_under_the_reversed_key() {
        let mut t = Tracer::for_flows([(1, 2)]);
        // The CNP for flow 1→2 travels 2→1; it must be kept.
        assert!(t.record(Time(5), 2, 1, 0, true, TracePoint::Inject, ctx(0, 0, 1)));
        // A data packet 2→1 is a different (untraced) flow.
        assert!(!t.record(Time(6), 2, 1, 3, false, TracePoint::Inject, ctx(0, 0, 1)));
        assert_eq!(t.records().len(), 1);
        assert!(t.records().next().unwrap().cnp);
    }

    #[test]
    fn packet_and_path_extraction() {
        let mut t = Tracer::for_flows([(0, 5)]);
        t.record(Time(1), 0, 5, 7, false, TracePoint::Inject, ctx(1, 0, 4));
        t.record(
            Time(2),
            0,
            5,
            7,
            false,
            TracePoint::SwitchArrive {
                switch: 3,
                in_port: 0,
            },
            ctx(1, 2, 4),
        );
        t.record(
            Time(3),
            0,
            5,
            7,
            false,
            TracePoint::Forward {
                switch: 3,
                out_port: 9,
                fecn: false,
            },
            ctx(1, 2, 3),
        );
        t.record(Time(4), 0, 5, 7, false, TracePoint::Deliver, ctx(1, 0, 0));
        t.record(Time(9), 0, 5, 8, false, TracePoint::Inject, ctx(1, 1, 2)); // other packet
        let p = t.packet(0, 5, 7);
        assert_eq!(p.len(), 4);
        // VL and VoQ depth are carried per record.
        assert!(p.iter().all(|r| r.vl == 1));
        assert_eq!(p[1].voq, 2, "switch ingress saw two queued descriptors");
        assert_eq!(t.path_of(0, 5, 7), vec![3]);
        assert_eq!(t.path_of(0, 5, 8), Vec::<u32>::new());
    }

    #[test]
    fn packet_query_preserves_capture_order() {
        // Interleave three packets' records; per-packet order must be
        // exactly capture order.
        let mut t = Tracer::for_flows([(0, 5), (5, 0)]);
        for step in 0u64..30 {
            let seq = (step % 3) as u32 + 1;
            let point = match step / 10 {
                0 => TracePoint::Inject,
                1 => TracePoint::Arrive,
                _ => TracePoint::Deliver,
            };
            t.record(Time(step), 0, 5, seq, false, point, ctx(0, step as u32, 0));
        }
        for seq in 1u32..=3 {
            let recs = t.packet(0, 5, seq);
            assert_eq!(recs.len(), 10);
            let times: Vec<u64> = recs.iter().map(|r| r.at_ps).collect();
            let mut sorted = times.clone();
            sorted.sort_unstable();
            assert_eq!(times, sorted, "capture order preserved for seq {seq}");
            assert_eq!(recs[0].point, TracePoint::Inject);
            assert_eq!(recs[9].point, TracePoint::Deliver);
        }
        assert!(t.packet(0, 5, 9).is_empty());
    }
}
