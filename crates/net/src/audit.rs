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
//! runs at the configured cadence plus at end of run. Disabled, the
//! oracle costs one `Option` branch per event.
//!
//! A pass yields an [`AuditReport`]: each broken ledger ([`LedgerKind`])
//! as a [`Violation`] — a structured diff (subject, expected, actual)
//! rather than a bare boolean. [`AuditReport::raise`] panics with the
//! diff, after writing a JSON artifact if `IBSIM_AUDIT_REPORT` names a
//! path, so CI can upload exactly what went wrong.

use crate::network::{Dev, Network};
use crate::types::Vl;
use ibsim_engine::time::Time;
use serde::{Deserialize, Serialize};

/// The conservation ledgers the simulator maintains.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum LedgerKind {
    /// Per-(channel, VL) credit conservation: sender credits plus
    /// in-flight blocks plus downstream-buffered blocks plus pending
    /// credit returns must equal the downstream buffer capacity, and no
    /// term may go negative or exceed the capacity.
    Credits,
    /// Packet conservation: injected = delivered + in flight + sunk.
    /// The lossless fabric neither drops nor duplicates.
    Packets,
    /// The FECN → BECN → CCTI chain only attenuates: marks applied ≥
    /// CNPs queued ≥ CNPs sent ≥ CNPs delivered = BECNs processed ≥
    /// CCTI increases.
    NotificationChain,
    /// Every flow's CCTI within [0, CCTI_Limit], and the throttled-flow
    /// counter equal to a recount; the timer only decreases CCTIs.
    CctiBounds,
    /// Switch-side congestion detectors' byte occupancy equals the
    /// bytes actually standing in the VoQs toward that (port, VL).
    CongestionOccupancy,
    /// Event-queue pops strictly monotone in (time, seq).
    EventOrder,
    /// Each (source, destination) pair delivers its data packets in
    /// sequence order with none skipped: the fabric is lossless and a
    /// pair's packets share one route and one VL, so they stay FIFO.
    FlowOrder,
}

impl LedgerKind {
    pub fn name(&self) -> &'static str {
        match self {
            LedgerKind::Credits => "credits",
            LedgerKind::Packets => "packets",
            LedgerKind::NotificationChain => "notification-chain",
            LedgerKind::CctiBounds => "ccti-bounds",
            LedgerKind::CongestionOccupancy => "congestion-occupancy",
            LedgerKind::EventOrder => "event-order",
            LedgerKind::FlowOrder => "flow-order",
        }
    }
}

impl std::fmt::Display for LedgerKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One broken invariant, reported as a structured diff.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Violation {
    /// Which ledger failed to balance.
    pub ledger: LedgerKind,
    /// Simulated time of the audit pass (picoseconds).
    pub at_ps: u64,
    /// What was being checked, e.g. `channel 12 VL 0`.
    pub subject: String,
    /// The value the ledger demands.
    pub expected: String,
    /// The value found.
    pub actual: String,
    /// Free-form context: the ledger terms, counters, anything that
    /// turns "it broke" into "here is where the blocks went".
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[{}] {} at t={}ps\n  expected: {}\n  actual:   {}",
            self.ledger, self.subject, self.at_ps, self.expected, self.actual
        )?;
        if !self.detail.is_empty() {
            write!(f, "\n  detail:   {}", self.detail)?;
        }
        Ok(())
    }
}

/// Everything one audit pass (or run) found.
#[derive(Clone, Debug, Default, Serialize)]
pub struct AuditReport {
    /// Simulated time of the latest pass (picoseconds).
    pub at_ps: u64,
    /// Events the simulation had processed when the pass ran.
    pub events_processed: u64,
    /// Full audit passes performed so far on this network.
    pub checks_run: u64,
    pub violations: Vec<Violation>,
}

impl AuditReport {
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Record one broken invariant.
    pub fn violate(
        &mut self,
        ledger: LedgerKind,
        subject: impl Into<String>,
        expected: impl std::fmt::Display,
        actual: impl std::fmt::Display,
        detail: impl Into<String>,
    ) {
        self.violations.push(Violation {
            ledger,
            at_ps: self.at_ps,
            subject: subject.into(),
            expected: expected.to_string(),
            actual: actual.to_string(),
            detail: detail.into(),
        });
    }

    /// The human-readable structured diff.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "invariant audit: {} violation(s) at t={}ps after {} events ({} passes)",
            self.violations.len(),
            self.at_ps,
            self.events_processed,
            self.checks_run
        );
        for v in &self.violations {
            let _ = writeln!(out, "{v}");
        }
        out
    }

    /// Panic with the structured diff if any ledger failed to balance.
    /// When the `IBSIM_AUDIT_REPORT` environment variable names a path, the
    /// report is first serialised there so CI can upload it.
    pub fn raise(&self) {
        if self.is_clean() {
            return;
        }
        if let Ok(path) = std::env::var("IBSIM_AUDIT_REPORT") {
            if !path.is_empty() {
                let json = serde_json::to_string(self).unwrap_or_default();
                // Best effort: a failing write must not mask the panic.
                let _ = std::fs::write(&path, json);
            }
        }
        panic!("{}", self.render());
    }
}

/// The per-network audit state. Lives behind an `Option<Box<..>>` on
/// [`Network`], so the disabled path costs one branch per event.
#[derive(Debug)]
pub struct NetAudit {
    /// Run a full pass every this many processed events.
    pub(crate) every: u64,
    /// Event count at which the next periodic pass fires.
    pub(crate) next_at: u64,
    /// Full passes performed so far.
    pub(crate) checks_run: u64,
    n_vls: usize,
    /// Blocks on the wire per `channel * n_vls + vl`. Signed so a
    /// double-free shows up as a negative balance, not a wrapped panic.
    on_wire_blocks: Vec<i64>,
    /// Whole packets on the wire per channel.
    on_wire_packets: Vec<i64>,
    /// Credit-return blocks scheduled upstream but not yet applied,
    /// per `channel * n_vls + vl` (the channel whose sender gets them).
    pending_credit_blocks: Vec<i64>,
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
    /// Audit every `every` processed events (0 is clamped to 1).
    pub fn new(channels: usize, n_vls: usize, n_hcas: usize, every: u64) -> Self {
        let every = every.max(1);
        NetAudit {
            every,
            next_at: every,
            checks_run: 0,
            n_vls,
            on_wire_blocks: vec![0; channels * n_vls],
            on_wire_packets: vec![0; channels],
            pending_credit_blocks: vec![0; channels * n_vls],
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

    /// True when a periodic pass is due at `events_processed`; advances
    /// the schedule so the pass runs once.
    #[inline]
    pub(crate) fn due(&mut self, events_processed: u64) -> bool {
        if events_processed < self.next_at {
            return false;
        }
        self.next_at = events_processed + self.every;
        true
    }

    // ---- the full pass ---------------------------------------------------

    /// Recompute every ledger against `net` and return the report.
    pub fn check(&mut self, net: &Network) -> AuditReport {
        self.checks_run += 1;
        let mut r = AuditReport {
            at_ps: net.now().as_ps(),
            events_processed: net.events_processed(),
            checks_run: self.checks_run,
            violations: std::mem::take(&mut self.deferred),
        };
        self.check_event_order(net, &mut r);
        self.check_credits(net, &mut r);
        self.check_packets(net, &mut r);
        self.check_notification_chain(net, &mut r);
        self.check_ccti_bounds(net, &mut r);
        self.check_congestion_occupancy(net, &mut r);
        r
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
                let detail =
                    format!("sender={sender} wire={wire} buffered={buffered} pending={pending}");
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
        let accounted = delivered as i64 + on_wire + in_voq as i64 + in_sink as i64;
        if accounted != injected as i64 {
            r.violate(
                LedgerKind::Packets,
                "fabric",
                format!("{injected} injected packets accounted for"),
                accounted,
                format!("delivered={delivered} wire={on_wire} voq={in_voq} sink={in_sink}"),
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
                    format!(
                        "{} events since previous pass",
                        processed - self.seen_processed
                    ),
                );
            }
        }
        self.last_seen_pop = pop;
        self.seen_processed = processed;
    }

    /// Overwrite the event-order watermarks (sharded-executor merge:
    /// the serial loop's last pass recorded the pop key and processed
    /// count *at the pass*, not at the end of the segment).
    pub(crate) fn set_order_marks(
        &mut self,
        last_seen_pop: Option<(Time, u64)>,
        seen_processed: u64,
    ) {
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
        fn add<T: Copy + std::ops::AddAssign>(into: &mut [T], from: &[T]) {
            into.iter_mut().zip(from).for_each(|(a, &b)| *a += b);
        }
        add(&mut self.on_wire_blocks, &other.on_wire_blocks);
        add(&mut self.on_wire_packets, &other.on_wire_packets);
        add(
            &mut self.pending_credit_blocks,
            &other.pending_credit_blocks,
        );
        self.deferred.extend(other.deferred.iter().cloned());
    }

    /// Export the audit's runtime state (checkpoint): the inline
    /// ledgers, the pass cadence position and any deferred violations.
    /// Table geometry (channel count, VL count) is configuration.
    pub(crate) fn state(&self) -> NetAuditState {
        NetAuditState {
            next_at: self.next_at,
            checks_run: self.checks_run,
            on_wire_blocks: self.on_wire_blocks.clone(),
            on_wire_packets: self.on_wire_packets.clone(),
            pending_credit_blocks: self.pending_credit_blocks.clone(),
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
        {
            return Err(format!(
                "audit state ledgers sized for {} channel-VL slots, fabric has {}",
                s.on_wire_blocks.len(),
                self.on_wire_blocks.len()
            ));
        }
        self.next_at = s.next_at;
        self.checks_run = s.checks_run;
        self.on_wire_blocks = s.on_wire_blocks.clone();
        self.on_wire_packets = s.on_wire_packets.clone();
        self.pending_credit_blocks = s.pending_credit_blocks.clone();
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
    pub last_seen_pop: Option<(Time, u64)>,
    pub seen_processed: u64,
    pub deferred: Vec<Violation>,
}

#[cfg(test)]
mod tests {
    use crate::config::NetConfig;
    use crate::gen::{DestPattern, TrafficClass};
    use crate::network::Network;
    use crate::{AuditReport, LedgerKind, NetAudit};
    use ibsim_engine::time::Time;
    use ibsim_topo::single_switch;

    fn loaded_net(cfg: NetConfig) -> Network {
        let topo = single_switch(8, 4);
        let mut net = Network::new(&topo, cfg);
        for n in 1..4u32 {
            net.set_classes(n, vec![TrafficClass::new(100, DestPattern::Fixed(0), 4096)]);
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
    fn injected_credit_leak_is_caught_and_named() {
        let mut net = loaded_net(NetConfig::paper());
        net.enable_audit(u64::MAX); // end-of-run pass only
        net.run_until(Time::from_us(100));
        // Eat 3 credit blocks on the switch's port 0 output (toward
        // the hotspot HCA), as a buggy arbiter would.
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

    /// Each ledger without an arming proof elsewhere, broken on a live
    /// CC-on fabric by one corruption only it can see: the pass must
    /// report that ledger and no other.
    #[test]
    fn each_ledger_fires_alone_on_its_own_corruption() {
        type Break = fn(&mut Network);
        let cases: [(LedgerKind, Break); 4] = [
            // CNPs sent that no FECN mark asked for.
            (LedgerKind::NotificationChain, |net| {
                net.hcas[1].cnps_sent += 1_000_000
            }),
            // One CCTI raise moved from one source to another that
            // already raised on every BECN: the fabric totals keep the
            // chain intact, the receiving agent's own books do not.
            (LedgerKind::CctiBounds, |net| {
                let (to, from) = (1..4)
                    .flat_map(|to| (1..4).map(move |from| (to, from)))
                    .find(|&(to, from)| {
                        let (a, b) = (&net.hcas[to].cc, &net.hcas[from].cc);
                        to != from && a.ccti_raises() == a.becns_received() && b.ccti_raises() > 0
                    })
                    .expect("two braked sources");
                for (hca, delta) in [(to, 1i64), (from, -1)] {
                    let mut s = net.hcas[hca].cc.state();
                    s.ccti_raises = (s.ccti_raises as i64 + delta) as u64;
                    net.hcas[hca].cc.restore_state(&s).unwrap();
                }
            }),
            // Bytes the detector counts but no VoQ holds.
            (LedgerKind::CongestionOccupancy, |net| {
                net.switches[0].cong_mut(0, 0).on_enqueue(2048, true)
            }),
            // A previous pass that saw a pop later than any to come.
            (LedgerKind::EventOrder, |net| {
                let a = net.audit.as_deref_mut().unwrap();
                a.set_order_marks(Some((Time::MAX, u64::MAX)), 0)
            }),
        ];
        for (want, corrupt) in cases {
            let mut net = loaded_net(NetConfig::paper());
            net.enable_audit(u64::MAX);
            net.run_until(Time::from_us(100));
            corrupt(&mut net);
            let report = net.audit_now();
            let fired: Vec<LedgerKind> = report.violations.iter().map(|v| v.ledger).collect();
            assert!(!fired.is_empty(), "{want}: nothing fired");
            assert!(
                fired.iter().all(|&k| k == want),
                "{want}: fired {fired:?}\n{}",
                report.render()
            );
        }
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

    #[test]
    fn clean_report_does_not_raise() {
        let r = AuditReport::default();
        assert!(r.is_clean());
        r.raise(); // no panic
    }

    #[test]
    #[should_panic(expected = "credits")]
    fn dirty_report_panics_naming_the_ledger() {
        let mut r = AuditReport {
            at_ps: 42,
            events_processed: 7,
            checks_run: 1,
            ..AuditReport::default()
        };
        r.violate(
            LedgerKind::Credits,
            "channel 3 VL 0",
            256,
            255,
            "sender=100 wire=60 buffered=64 pending=31",
        );
        assert!(!r.is_clean());
        r.raise();
    }

    #[test]
    fn render_contains_the_diff() {
        let mut r = AuditReport::default();
        r.violate(LedgerKind::Packets, "fabric", 10, 9, "");
        let s = r.render();
        assert!(s.contains("[packets]"));
        assert!(s.contains("expected: 10"));
        assert!(s.contains("actual:   9"));
    }

    #[test]
    fn report_serialises() {
        let mut r = AuditReport::default();
        r.violate(LedgerKind::EventOrder, "queue", "monotone", "regressed", "");
        let js = serde_json::to_string(&r).unwrap();
        assert!(js.contains("EventOrder") || js.contains("event-order"));
        assert!(js.contains("violations"));
    }

    #[test]
    fn render_counts_violations() {
        let mut r = AuditReport::default();
        r.violate(LedgerKind::Credits, "channel 1 VL 0", 256, 254, "");
        assert!(
            r.render().contains("1 violation(s) at t="),
            "{}",
            r.render()
        );
    }

    #[test]
    fn cadence_fires_on_schedule() {
        let mut a = NetAudit::new(0, 1, 0, 100);
        assert!(!a.due(99));
        assert!(a.due(100));
        assert!(!a.due(150), "not again until the next window");
        assert!(a.due(250));
    }

    #[test]
    fn zero_interval_clamped() {
        let mut a = NetAudit::new(0, 1, 0, 0);
        assert!(a.due(1));
    }
}
