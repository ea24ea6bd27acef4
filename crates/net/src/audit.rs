//! The network-level invariant oracle: conservation ledgers recomputed
//! from first principles against the live [`Network`] state.
//!
//! The simulator's results are only as trustworthy as its physics. This
//! module maintains, per unidirectional channel and VL, the two pieces
//! of state the device models do *not* track — blocks in flight on the
//! wire and credit returns scheduled but not yet delivered — and at
//! every audit pass closes the books:
//!
//! ```text
//! sender credits + on-wire + buffered downstream + pending returns
//!     == downstream input-buffer capacity          (per channel, VL)
//! injected == delivered + CNPs delivered + in flight (wire/VoQ/sink)
//! FECN marks >= CNPs queued >= sent >= delivered == BECNs >= raises
//! every CCTI in [0, CCTI_Limit]; the recovery timer only decreases
//! detector occupancy == bytes standing in the VoQs it watches
//! event-queue pops strictly monotone in (time, seq)
//! each (src, dst) pair delivers seq 1, 2, 3, ... in order
//! ```
//!
//! The ledger updates are O(1) per event and only run when the audit is
//! enabled ([`Network::enable_audit`]); the full pass is O(fabric) and
//! runs at the configured cadence plus at end of run.

use crate::network::{Dev, Network};
use crate::types::Vl;
use ibsim_check::{Audit, AuditReport, LedgerKind, Violation};
use ibsim_engine::time::Time;
use serde::{Deserialize, Serialize};

/// The per-network audit state. Lives behind an `Option<Box<..>>` on
/// [`Network`], so the disabled path costs one branch per event.
#[derive(Debug)]
pub struct NetAudit {
    cadence: Audit,
    n_vls: usize,
    /// Blocks on the wire per `channel * n_vls + vl`. Signed so a
    /// double-free shows up as a negative balance, not a wrapped panic.
    on_wire_blocks: Vec<i64>,
    /// Whole packets on the wire per channel.
    on_wire_packets: Vec<i64>,
    /// Credit-return blocks scheduled upstream but not yet applied,
    /// per `channel * n_vls + vl` (the channel whose sender gets them).
    pending_credit_blocks: Vec<i64>,
    /// Sanctioned drops (fault-injection CNP losses) per channel, and
    /// the blocks they carried. These are *bookkeeping*: each audit
    /// pass reports them as `SanctionedDrop` entries and adds them to
    /// the packet ledger, but they never fail a run. Any loss that does
    /// not pass through [`NetAudit::note_sanctioned_drop`] still
    /// unbalances the ledgers and trips the oracle.
    sanctioned_dropped_packets: Vec<u64>,
    sanctioned_dropped_blocks: Vec<u64>,
    /// The last sequence number each receiver delivered from each
    /// source, at `dst * n_hcas + src`: the delivery-order ledger.
    /// Dense, so it is held only while the audit is on; the HCAs
    /// themselves keep no such mark.
    delivered: Vec<u32>,
    n_hcas: usize,
    /// The (time, seq) key of the pop seen at the previous pass.
    last_seen_pop: Option<(Time, u64)>,
    seen_processed: u64,
    /// Violations observed inline between passes (timer monotonicity),
    /// drained into the next report.
    deferred: Vec<Violation>,
}

impl NetAudit {
    pub fn new(channels: usize, n_vls: usize, n_hcas: usize, every: u64) -> Self {
        NetAudit {
            cadence: Audit::every(every),
            n_vls,
            on_wire_blocks: vec![0; channels * n_vls],
            on_wire_packets: vec![0; channels],
            pending_credit_blocks: vec![0; channels * n_vls],
            sanctioned_dropped_packets: vec![0; channels],
            sanctioned_dropped_blocks: vec![0; channels],
            delivered: vec![0; n_hcas * n_hcas],
            n_hcas,
            last_seen_pop: None,
            seen_processed: 0,
            deferred: Vec::new(),
        }
    }

    /// A shard's audit: zero summed ledgers to accumulate a drive's
    /// updates into, no pass cadence of its own, and this audit's
    /// delivery marks, which only the receiver's shard advances.
    pub(crate) fn fork(&self) -> Self {
        let channels = self.on_wire_packets.len();
        NetAudit {
            delivered: self.delivered.clone(),
            n_hcas: self.n_hcas,
            ..NetAudit::new(channels, self.n_vls, 0, u64::MAX)
        }
    }

    #[inline]
    fn slot(&self, ch: u32, vl: Vl) -> usize {
        ch as usize * self.n_vls + vl as usize
    }

    // ---- O(1) ledger updates, one per dispatch site ---------------------

    /// A switch grant put `blocks` on `out_ch` and scheduled a credit
    /// return to the sender of `in_ch`.
    #[inline]
    pub(crate) fn note_grant(&mut self, out_ch: u32, in_ch: u32, vl: Vl, blocks: u32) {
        let (wire, pend) = (self.slot(out_ch, vl), self.slot(in_ch, vl));
        self.on_wire_blocks[wire] += blocks as i64;
        self.on_wire_packets[out_ch as usize] += 1;
        self.pending_credit_blocks[pend] += blocks as i64;
    }

    /// An HCA injected `blocks` onto `out_ch`.
    #[inline]
    pub(crate) fn note_send(&mut self, out_ch: u32, vl: Vl, blocks: u32) {
        let slot = self.slot(out_ch, vl);
        self.on_wire_blocks[slot] += blocks as i64;
        self.on_wire_packets[out_ch as usize] += 1;
    }

    /// A packet left the wire of `ch` (arrived at the downstream device).
    #[inline]
    pub(crate) fn note_arrive(&mut self, ch: u32, vl: Vl, blocks: u32) {
        let slot = self.slot(ch, vl);
        self.on_wire_blocks[slot] -= blocks as i64;
        self.on_wire_packets[ch as usize] -= 1;
    }

    /// A sink drain freed `blocks` of `ch`'s downstream buffer; the
    /// credit return is now in flight.
    #[inline]
    pub(crate) fn note_credit_pending(&mut self, ch: u32, vl: Vl, blocks: u32) {
        let slot = self.slot(ch, vl);
        self.pending_credit_blocks[slot] += blocks as i64;
    }

    /// A credit return for `ch` reached its sender.
    #[inline]
    pub(crate) fn note_credit_returned(&mut self, ch: u32, vl: Vl, blocks: u32) {
        let slot = self.slot(ch, vl);
        self.pending_credit_blocks[slot] -= blocks as i64;
    }

    /// The fault layer sanctioned the loss of one packet (a CNP in a
    /// BECN-loss window) on `ch`. The caller separately books the
    /// freed buffer via [`NetAudit::note_credit_pending`]; this records
    /// the packet itself so the packet ledger can account for it.
    #[inline]
    pub(crate) fn note_sanctioned_drop(&mut self, ch: u32, _vl: Vl, blocks: u32) {
        self.sanctioned_dropped_packets[ch as usize] += 1;
        self.sanctioned_dropped_blocks[ch as usize] += blocks as u64;
    }

    /// Total sanctioned packet drops ledgered so far — what
    /// [`AuditReport::sanctioned_drops`] would report right now. The
    /// sharded coordinator reads this once at split (it cannot change
    /// during a drive: only BECN-loss windows sanction drops, and they
    /// decline sharding) to replicate the serial `AuditPass` notes.
    pub(crate) fn sanctioned_packets(&self) -> u64 {
        self.sanctioned_dropped_packets.iter().sum()
    }

    /// HCA `dst` delivered data packet `seq` from `src`: it must be the
    /// pair's next one.
    #[inline]
    pub(crate) fn note_delivered(&mut self, dst: u32, src: u32, seq: u32, now: Time) {
        let last = &mut self.delivered[dst as usize * self.n_hcas + src as usize];
        if seq != last.wrapping_add(1) {
            let expected = format!("seq {}", last.wrapping_add(1));
            self.deferred.push(Violation {
                ledger: LedgerKind::FlowOrder,
                at_ps: now.as_ps(),
                subject: format!("hca {dst} from {src}"),
                expected,
                actual: format!("seq {seq}"),
                detail: format!(
                    "last delivered seq {last}: a pair delivers in order, none skipped"
                ),
            });
        }
        *last = (*last).max(seq);
    }

    /// Overwrite the delivery marks with each receiver's captured
    /// `last_seq` row (checkpoint restore, rows in HCA order).
    pub(crate) fn seed_flow_order<'a>(&mut self, rows: impl Iterator<Item = &'a [u32]>) {
        for (d, row) in rows.enumerate() {
            let at = d * self.n_hcas;
            self.delivered[at..at + row.len()].copy_from_slice(row);
        }
    }

    /// The CCTI recovery timer must only ever decrease table indices.
    #[inline]
    pub(crate) fn note_timer(&mut self, hca: u32, now: Time, before: u16, after: u16) {
        if after > before {
            self.deferred.push(Violation {
                ledger: LedgerKind::CctiBounds,
                at_ps: now.as_ps(),
                subject: format!("hca {hca} recovery timer"),
                expected: format!("max CCTI <= {before} after on_timer"),
                actual: after.to_string(),
                detail: "the recovery timer may only decrease CCTIs".into(),
            });
        }
    }

    /// True when the periodic pass is due.
    #[inline]
    pub(crate) fn due(&mut self, events_processed: u64) -> bool {
        self.cadence.due(events_processed)
    }

    pub fn interval(&self) -> u64 {
        self.cadence.interval()
    }

    // ---- the full pass ---------------------------------------------------

    /// Recompute every ledger against `net` and return the report.
    pub fn check(&mut self, net: &Network) -> AuditReport {
        self.cadence.note_pass();
        let mut r = AuditReport {
            at_ps: net.now().as_ps(),
            events_processed: net.events_processed(),
            checks_run: self.cadence.checks_run(),
            sanctioned_drops: self.sanctioned_dropped_packets.iter().sum(),
            violations: std::mem::take(&mut self.deferred),
        };
        self.check_event_order(net, &mut r);
        self.check_credits(net, &mut r);
        self.check_packets(net, &mut r);
        self.check_notification_chain(net, &mut r);
        self.check_ccti_bounds(net, &mut r);
        self.check_congestion_occupancy(net, &mut r);
        self.check_pause_losslessness(net, &mut r);
        self.report_sanctioned_drops(&mut r);
        r
    }

    /// PFC losslessness, recomputed from switch PFC state at pass time.
    /// Two laws per cabled (ingress port, priority): every pause frame
    /// sent is eventually matched by a resume (`pauses == resumes`
    /// once the pause clears, `resumes + 1` while it is standing), and
    /// a standing pause implies the ingress occupancy is still above
    /// the XON threshold — a packet vanishing from a paused ingress
    /// (the only way occupancy drops without crossing XON through
    /// [`Switch::pfc_check_xon`]) breaks the implication and is named
    /// here by switch, port and VL.
    fn check_pause_losslessness(&self, net: &Network, r: &mut AuditReport) {
        for (si, sw) in net.switches.iter().enumerate() {
            if !sw.pfc_enabled() {
                continue;
            }
            let (_, xon) = sw.pfc_thresholds().unwrap();
            for p in 0..sw.radix() as u16 {
                if sw.ports[p as usize].in_channel.is_none() {
                    continue;
                }
                for vl in 0..sw.n_vls() {
                    let (pauses, resumes) = sw.pfc_pause_counts(p, vl);
                    let standing = u64::from(sw.rx_paused(p, vl));
                    if pauses != resumes + standing {
                        r.violate(
                            LedgerKind::PauseLosslessness,
                            format!("switch {si} port {p} VL {vl}"),
                            format!("{pauses} pauses paired with resumes"),
                            format!("{resumes} resumes, {standing} standing"),
                            "every XOFF must be matched by exactly one XON",
                        );
                    }
                    if standing == 1 {
                        let occ = sw.buffered_blocks(p, vl);
                        if occ <= xon as u64 {
                            r.violate(
                                LedgerKind::PauseLosslessness,
                                format!("switch {si} port {p} VL {vl}"),
                                format!("occupancy > {xon} blocks while paused"),
                                occ,
                                "ingress drained below XON without a resume: \
                                 a packet was lost while its ingress was paused",
                            );
                        }
                    }
                }
            }
        }
    }

    /// Ledger every sanctioned loss as a non-failing `SanctionedDrop`
    /// entry, one per affected channel, with the cumulative count in
    /// `actual`. The CI artifact then records exactly what the fault
    /// schedule sacrificed, while [`AuditReport::raise`] ignores these
    /// when deciding whether to fail the run.
    fn report_sanctioned_drops(&self, r: &mut AuditReport) {
        for (ch, &n) in self.sanctioned_dropped_packets.iter().enumerate() {
            if n > 0 {
                r.violate(
                    LedgerKind::SanctionedDrop,
                    format!("channel {ch}"),
                    "0 losses absent a fault schedule",
                    n,
                    format!(
                        "{n} CNP(s), {} block(s) dropped by becn-loss windows",
                        self.sanctioned_dropped_blocks[ch]
                    ),
                );
            }
        }
    }

    /// Per-(channel, VL) credit conservation. The four terms partition
    /// the downstream input buffer: credits the sender may still spend,
    /// blocks serialising on the wire, blocks standing in the downstream
    /// buffer, and credit returns flying back.
    fn check_credits(&self, net: &Network, r: &mut AuditReport) {
        for (id, ch) in net.channels.iter().enumerate() {
            let capacity = ch.capacity(&net.cfg) as i64;
            for vl in 0..self.n_vls {
                let sender = match ch.from {
                    (Dev::Switch(s), port) => net.switches[s as usize].credit(port, vl as Vl),
                    (Dev::Hca(h), _) => net.hcas[h as usize].credits[vl],
                } as i64;
                let wire = self.on_wire_blocks[id * self.n_vls + vl];
                let buffered = match ch.to {
                    (Dev::Switch(s), port) => {
                        net.switches[s as usize].buffered_blocks(port, vl as Vl)
                    }
                    (Dev::Hca(h), _) => net.hcas[h as usize].sink_blocks(vl as Vl, &net.pool),
                } as i64;
                let pending = self.pending_credit_blocks[id * self.n_vls + vl];
                let total = sender + wire + buffered + pending;
                let detail = format!(
                    "sender={sender} wire={wire} buffered={buffered} pending={pending}"
                );
                if total != capacity {
                    r.violate(
                        LedgerKind::Credits,
                        format!("channel {id} VL {vl}"),
                        format!("{capacity} blocks conserved"),
                        total,
                        detail,
                    );
                } else if wire < 0 || pending < 0 || sender > capacity {
                    // The sum can balance even when individual terms are
                    // out of range (e.g. a double-returned credit paired
                    // with a negative pending count).
                    r.violate(
                        LedgerKind::Credits,
                        format!("channel {id} VL {vl}"),
                        format!("every term in [0, {capacity}]"),
                        detail.clone(),
                        detail,
                    );
                }
            }
        }
    }

    /// Fabric-wide packet conservation: the lossless network neither
    /// drops nor duplicates.
    fn check_packets(&self, net: &Network, r: &mut AuditReport) {
        let injected: u64 = net.hcas.iter().map(|h| h.injected_packets).sum();
        let delivered: u64 = net
            .hcas
            .iter()
            .map(|h| h.delivered_packets + h.cnps_delivered)
            .sum();
        let on_wire: i64 = self.on_wire_packets.iter().sum();
        let in_voq: usize = net.switches.iter().map(|s| s.queued_packets()).sum();
        let in_sink: usize = net.hcas.iter().map(|h| h.sink_depth()).sum();
        let sanctioned: u64 = self.sanctioned_dropped_packets.iter().sum();
        let accounted =
            delivered as i64 + on_wire + in_voq as i64 + in_sink as i64 + sanctioned as i64;
        if accounted != injected as i64 {
            r.violate(
                LedgerKind::Packets,
                "fabric",
                format!("{injected} injected packets accounted for"),
                accounted,
                format!(
                    "delivered={delivered} wire={on_wire} voq={in_voq} sink={in_sink} \
                     sanctioned_dropped={sanctioned}"
                ),
            );
        }
    }

    /// The FECN → BECN → CCTI chain only attenuates.
    fn check_notification_chain(&self, net: &Network, r: &mut AuditReport) {
        if !net.cc_enabled() {
            return;
        }
        let marks: u64 = net.switches.iter().map(|s| s.marked_packets()).sum();
        let queued: u64 = net
            .hcas
            .iter()
            .map(|h| h.cnps_sent + h.pending_cnps() as u64)
            .sum();
        let sent: u64 = net.hcas.iter().map(|h| h.cnps_sent).sum();
        let delivered: u64 = net.hcas.iter().map(|h| h.cnps_delivered).sum();
        let becns: u64 = net.hcas.iter().map(|h| h.cc.becns_received()).sum();
        let raises: u64 = net.hcas.iter().map(|h| h.cc.ccti_raises()).sum();
        let detail = format!(
            "marks={marks} cnps_queued={queued} cnps_sent={sent} \
             cnps_delivered={delivered} becns={becns} ccti_raises={raises}"
        );
        let chain = [
            (marks >= queued, "marks >= CNPs ever queued"),
            (queued >= sent, "CNPs queued >= CNPs sent"),
            (sent >= delivered, "CNPs sent >= CNPs delivered"),
            (delivered == becns, "CNPs delivered == BECNs processed"),
            (becns >= raises, "BECNs processed >= CCTI raises"),
        ];
        for (holds, law) in chain {
            if !holds {
                r.violate(
                    LedgerKind::NotificationChain,
                    "fabric",
                    law,
                    "violated",
                    detail.clone(),
                );
            }
        }
    }

    /// Delegate the CA-side table checks to each HCA's CC agent.
    fn check_ccti_bounds(&self, net: &Network, r: &mut AuditReport) {
        if !net.cc_enabled() {
            return;
        }
        for (i, h) in net.hcas.iter().enumerate() {
            if let Err(why) = h.cc.audit() {
                r.violate(
                    LedgerKind::CctiBounds,
                    format!("hca {i}"),
                    "CC state within Annex A10 bounds",
                    "violated",
                    why,
                );
            }
        }
    }

    /// The congestion detector's occupancy counter against the ground
    /// truth: bytes actually standing in the VoQs toward (port, VL).
    fn check_congestion_occupancy(&self, net: &Network, r: &mut AuditReport) {
        for (si, sw) in net.switches.iter().enumerate() {
            for o in 0..sw.radix() {
                for vl in 0..sw.n_vls() {
                    let cong = sw.cong(o as u16, vl);
                    let truth = sw.queued_bytes_toward(o as u16, vl);
                    if cong.queued_bytes() != truth {
                        r.violate(
                            LedgerKind::CongestionOccupancy,
                            format!("switch {si} port {o} VL {vl}"),
                            format!("{truth} queued bytes"),
                            cong.queued_bytes(),
                            "detector occupancy out of sync with the VoQs",
                        );
                    }
                }
            }
        }
    }

    /// Event pops must advance strictly in (time, seq) between passes.
    fn check_event_order(&mut self, net: &Network, r: &mut AuditReport) {
        let pop = net.last_event_key();
        let processed = net.events_processed();
        if processed > self.seen_processed {
            let regressed = match (self.last_seen_pop, pop) {
                (Some(prev), Some(cur)) => cur <= prev,
                (Some(_), None) => true,
                _ => false,
            };
            if regressed {
                r.violate(
                    LedgerKind::EventOrder,
                    "event queue",
                    format!("pop key strictly after {:?}", self.last_seen_pop),
                    format!("{pop:?}"),
                    format!("{} events since previous pass", processed - self.seen_processed),
                );
            }
        }
        self.last_seen_pop = pop;
        self.seen_processed = processed;
    }

    /// The cadence schedule position — `(next_at, checks_run)`.
    pub(crate) fn position(&self) -> (u64, u64) {
        self.cadence.position()
    }

    /// Reposition the cadence schedule (sharded-executor merge: the
    /// coordinator replays the cadence crossings event-exactly and
    /// patches the position to what the serial loop would hold).
    pub(crate) fn set_position(&mut self, next_at: u64, checks_run: u64) {
        self.cadence.set_position(next_at, checks_run);
    }

    /// Overwrite the event-order watermarks (sharded-executor merge:
    /// the serial loop's last pass recorded the pop key and processed
    /// count *at the pass*, not at the end of the segment).
    pub(crate) fn set_order_marks(&mut self, last_seen_pop: Option<(Time, u64)>, seen_processed: u64) {
        self.last_seen_pop = last_seen_pop;
        self.seen_processed = seen_processed;
    }

    /// Fold another audit's inline ledgers into this one. Every ledger
    /// but the delivery marks is a pure sum of O(1) per-event updates,
    /// so summing per-shard ledgers reproduces exactly what the serial
    /// loop would have accumulated; a delivery mark only grows, and
    /// only on its receiver's shard, so the marks merge by maximum.
    /// Deferred violations are appended in call order (they only exist
    /// when the simulation is already broken).
    pub(crate) fn absorb(&mut self, other: &NetAudit) {
        for (a, &b) in self.delivered.iter_mut().zip(&other.delivered) {
            *a = (*a).max(b);
        }
        debug_assert_eq!(self.on_wire_blocks.len(), other.on_wire_blocks.len());
        for (a, b) in self.on_wire_blocks.iter_mut().zip(&other.on_wire_blocks) {
            *a += b;
        }
        for (a, b) in self.on_wire_packets.iter_mut().zip(&other.on_wire_packets) {
            *a += b;
        }
        for (a, b) in self
            .pending_credit_blocks
            .iter_mut()
            .zip(&other.pending_credit_blocks)
        {
            *a += b;
        }
        for (a, b) in self
            .sanctioned_dropped_packets
            .iter_mut()
            .zip(&other.sanctioned_dropped_packets)
        {
            *a += b;
        }
        for (a, b) in self
            .sanctioned_dropped_blocks
            .iter_mut()
            .zip(&other.sanctioned_dropped_blocks)
        {
            *a += b;
        }
        self.deferred.extend(other.deferred.iter().cloned());
    }

    /// Export the audit's runtime state (checkpoint): the inline
    /// ledgers, the pass cadence position and any deferred violations.
    /// Table geometry (channel count, VL count) is configuration.
    pub(crate) fn state(&self) -> NetAuditState {
        let (next_at, checks_run) = self.cadence.position();
        NetAuditState {
            next_at,
            checks_run,
            on_wire_blocks: self.on_wire_blocks.clone(),
            on_wire_packets: self.on_wire_packets.clone(),
            pending_credit_blocks: self.pending_credit_blocks.clone(),
            sanctioned_dropped_packets: self.sanctioned_dropped_packets.clone(),
            sanctioned_dropped_blocks: self.sanctioned_dropped_blocks.clone(),
            last_seen_pop: self.last_seen_pop,
            seen_processed: self.seen_processed,
            deferred: self.deferred.clone(),
        }
    }

    /// Overlay a checkpointed audit state onto a freshly constructed
    /// instance sized for the same fabric. The delivery marks are not
    /// in it: `Network::restore` seeds them from the HCAs' `last_seq`.
    pub(crate) fn restore_state(&mut self, s: &NetAuditState) -> Result<(), String> {
        if s.on_wire_blocks.len() != self.on_wire_blocks.len()
            || s.on_wire_packets.len() != self.on_wire_packets.len()
            || s.pending_credit_blocks.len() != self.pending_credit_blocks.len()
            || s.sanctioned_dropped_packets.len() != self.sanctioned_dropped_packets.len()
            || s.sanctioned_dropped_blocks.len() != self.sanctioned_dropped_blocks.len()
        {
            return Err(format!(
                "audit state ledgers sized for {} channel-VL slots, fabric has {}",
                s.on_wire_blocks.len(),
                self.on_wire_blocks.len()
            ));
        }
        self.cadence.set_position(s.next_at, s.checks_run);
        self.on_wire_blocks = s.on_wire_blocks.clone();
        self.on_wire_packets = s.on_wire_packets.clone();
        self.pending_credit_blocks = s.pending_credit_blocks.clone();
        self.sanctioned_dropped_packets = s.sanctioned_dropped_packets.clone();
        self.sanctioned_dropped_blocks = s.sanctioned_dropped_blocks.clone();
        self.last_seen_pop = s.last_seen_pop;
        self.seen_processed = s.seen_processed;
        self.deferred = s.deferred.clone();
        Ok(())
    }
}

/// Serializable image of [`NetAudit`]'s runtime state.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct NetAuditState {
    /// Event count at which the next periodic pass fires.
    pub next_at: u64,
    /// Passes completed so far.
    pub checks_run: u64,
    pub on_wire_blocks: Vec<i64>,
    pub on_wire_packets: Vec<i64>,
    pub pending_credit_blocks: Vec<i64>,
    pub sanctioned_dropped_packets: Vec<u64>,
    pub sanctioned_dropped_blocks: Vec<u64>,
    pub last_seen_pop: Option<(Time, u64)>,
    pub seen_processed: u64,
    pub deferred: Vec<Violation>,
}

#[cfg(test)]
mod tests {
    use crate::config::NetConfig;
    use crate::gen::{DestPattern, TrafficClass};
    use crate::network::Network;
    use ibsim_check::LedgerKind;
    use ibsim_engine::time::Time;
    use ibsim_topo::single_switch;

    fn loaded_net(cfg: NetConfig) -> Network {
        let topo = single_switch(8, 4);
        let mut net = Network::new(&topo, cfg);
        for n in 1..4u32 {
            net.set_classes(
                n,
                vec![TrafficClass::new(100, DestPattern::Fixed(0), 4096)],
            );
        }
        net
    }

    #[test]
    fn clean_run_audits_clean() {
        let mut net = loaded_net(NetConfig::paper());
        net.enable_audit(1_000);
        net.run_until(Time::from_us(300));
        let report = net.audit_now();
        assert!(report.is_clean(), "{}", report.render());
        assert!(report.checks_run > 1, "periodic passes must have fired");
    }

    #[test]
    fn clean_run_audits_clean_without_cc() {
        let mut net = loaded_net(NetConfig::paper_no_cc());
        net.enable_audit(1_000);
        net.run_until(Time::from_us(300));
        let report = net.audit_now();
        assert!(report.is_clean(), "{}", report.render());
    }

    #[test]
    fn audit_does_not_perturb_the_simulation() {
        let run = |audit: bool| {
            let mut net = loaded_net(NetConfig::paper());
            if audit {
                net.enable_audit(500);
            }
            net.run_until(Time::from_us(300));
            (
                net.now(),
                net.events_processed(),
                net.total_injected_packets(),
                net.total_delivered_packets(),
                net.total_fecn_marks(),
            )
        };
        assert_eq!(run(false), run(true), "the oracle must be observational");
    }

    #[test]
    fn injected_credit_leak_is_caught_and_named() {
        let mut net = loaded_net(NetConfig::paper());
        net.enable_audit(u64::MAX); // end-of-run pass only
        net.run_until(Time::from_us(100));
        // Fault injection: eat 3 credit blocks on the switch's port 0
        // output (toward the hotspot HCA), as a buggy arbiter would.
        net.switches[0].leak_credits_for_test(0, 0, 3);
        let report = net.audit_now();
        let v = report
            .violations
            .iter()
            .find(|v| v.ledger == LedgerKind::Credits)
            .expect("the leak must surface on the credits ledger");
        assert!(v.subject.contains("VL 0"), "subject: {}", v.subject);
        assert!(
            v.detail.contains("sender="),
            "diff must show the ledger terms: {}",
            v.detail
        );
    }

    #[test]
    fn swapped_deliveries_trip_the_flow_order_ledger() {
        // CC off, so queues build toward the hotspot. Its oldest
        // waiting packet from some source trades sequence numbers by
        // hand with a later one of the same pair.
        // The pair's lowest and highest live seq stay put, so the
        // restore accepts the swap; the delivery that follows is out of
        // order, and the ledger names the pair.
        let mut net = loaded_net(NetConfig::paper_no_cc());
        net.enable_audit(u64::MAX);
        net.run_until(Time::from_us(100));
        let mut state = net.checkpoint();
        let sink = &mut state.hcas[0];
        let mut toward_0: Vec<&mut crate::types::Packet> = sink
            .draining
            .iter_mut()
            .chain(sink.sink_queue.iter_mut())
            .collect();
        let in_sink = toward_0.len();
        let voqs = state.switches.iter_mut().flat_map(|s| s.ports.iter_mut());
        toward_0.extend(voqs.flat_map(|p| p.voq.iter_mut().flatten().map(|d| &mut d.pkt)));
        let (i, j) = (0..in_sink)
            .find_map(|i| {
                let pair = (toward_0[i].src, toward_0[i].dst);
                let j = (i + 1..toward_0.len())
                    .find(|&j| (toward_0[j].src, toward_0[j].dst) == pair)?;
                Some((i, j))
            })
            .expect("a source has a packet in the hotspot's sink and another behind it");
        let (src, a, b) = (toward_0[i].src, toward_0[i].seq, toward_0[j].seq);
        (toward_0[i].seq, toward_0[j].seq) = (b, a);

        let mut swapped = loaded_net(NetConfig::paper_no_cc());
        swapped.enable_audit(u64::MAX);
        swapped
            .restore(&state)
            .expect("the swap keeps the implied marks");
        swapped.run_until(Time::from_us(200));
        let report = swapped.audit_now();
        let v = report
            .violations
            .iter()
            .find(|v| v.ledger == LedgerKind::FlowOrder)
            .unwrap_or_else(|| panic!("the swap must trip the ledger:\n{}", report.render()));
        assert_eq!(v.subject, format!("hca 0 from {src}"));
        assert_eq!(
            (&v.expected, &v.actual),
            (&format!("seq {a}"), &format!("seq {b}"))
        );
    }

    #[test]
    fn report_localises_the_leaked_channel() {
        // The violation must name the channel whose books no longer
        // balance — switch port 1's output — and only that channel.
        let mut net = loaded_net(NetConfig::paper());
        net.enable_audit(u64::MAX);
        net.run_until(Time::from_us(100));
        net.switches[0].leak_credits_for_test(1, 0, 5);
        let report = net.audit_now();
        let creds: Vec<_> = report
            .violations
            .iter()
            .filter(|v| v.ledger == LedgerKind::Credits)
            .collect();
        assert_eq!(creds.len(), 1, "{}", report.render());
        let expect_ch = net.switches[0].ports[1].out_channel.unwrap();
        assert!(
            creds[0].subject.contains(&format!("channel {expect_ch} ")),
            "subject: {}",
            creds[0].subject
        );
    }
}
