//! # ibsim-check
//!
//! The fabric-wide invariant oracle. The paper's throughput numbers rest
//! on the simulator being a *lossless* network whose CC state machine
//! follows IB spec Annex A10 — a single leaked credit or dropped packet
//! invalidates every result. This crate holds the machinery shared by
//! every layer that wants to prove it still obeys the physics:
//!
//! * [`LedgerKind`] — the catalogue of conservation ledgers the
//!   simulator maintains (credits, packets, the FECN→BECN→CCTI
//!   notification chain, CCTI bounds, switch occupancy, event order,
//!   per-pair delivery order);
//! * [`Violation`] — one broken invariant, as a structured diff
//!   (subject, expected, actual) rather than a bare boolean;
//! * [`AuditReport`] — everything one audit pass found, renderable as a
//!   human-readable report and serialisable for CI artifacts;
//! * [`Audit`] — the cadence hook a `Network` consults to decide when
//!   the next periodic pass is due.
//!
//! The oracle is always compiled and cheaply toggleable: when disabled
//! it costs one `Option` branch per event; when enabled it recomputes
//! every ledger from first principles at the configured interval and at
//! end of run, and [`AuditReport::raise`] panics with the structured
//! diff (after writing a JSON artifact if `IBSIM_AUDIT_REPORT` names a
//! path) so CI can upload exactly what went wrong.

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
    /// PFC losslessness (DCQCN backend): pause and resume frames pair up
    /// per (port, priority) — every XOFF is eventually matched by one
    /// XON — and while an ingress is paused its buffered occupancy stays
    /// above the XON threshold (a packet silently leaving a paused
    /// ingress without a resume is a drop the pause was meant to
    /// prevent).
    PauseLosslessness,
    /// A loss the fault-injection layer was *told* to cause (e.g. a CNP
    /// dropped by a BECN-loss window). Ledgered so the audit artifact
    /// shows exactly what was sacrificed, but sanctioned: it never
    /// fails a run. Any loss the faults layer did not sanction still
    /// trips the ledgers above.
    SanctionedDrop,
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
            LedgerKind::PauseLosslessness => "pause-losslessness",
            LedgerKind::SanctionedDrop => "sanctioned-drop",
        }
    }

    /// Sanctioned entries are bookkeeping, not failures: [`AuditReport::raise`]
    /// ignores them when deciding whether to panic.
    pub fn is_sanctioned(&self) -> bool {
        matches!(self, LedgerKind::SanctionedDrop)
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
    /// Total losses the fault-injection layer sanctioned (e.g. CNPs
    /// dropped by BECN-loss windows); mirrored as per-channel
    /// [`LedgerKind::SanctionedDrop`] entries in `violations`.
    pub sanctioned_drops: u64,
    pub violations: Vec<Violation>,
}

impl AuditReport {
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Violations that actually fail a run: everything except
    /// sanctioned-drop bookkeeping entries.
    pub fn unsanctioned(&self) -> impl Iterator<Item = &Violation> {
        self.violations.iter().filter(|v| !v.ledger.is_sanctioned())
    }

    pub fn has_unsanctioned(&self) -> bool {
        self.unsanctioned().next().is_some()
    }

    /// Sanctioned-drop bookkeeping entries (fault-injection losses).
    pub fn sanctioned(&self) -> impl Iterator<Item = &Violation> {
        self.violations.iter().filter(|v| v.ledger.is_sanctioned())
    }

    /// Record one broken invariant.
    #[allow(clippy::too_many_arguments)]
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
        let sanctioned = self.sanctioned().count();
        let _ = writeln!(
            out,
            "invariant audit: {} violation(s) ({} sanctioned) at t={}ps after {} events ({} passes)",
            self.violations.len(),
            sanctioned,
            self.at_ps,
            self.events_processed,
            self.checks_run
        );
        for v in &self.violations {
            let _ = writeln!(out, "{v}");
        }
        out
    }

    /// Panic with the structured diff if any ledger failed to balance
    /// for a reason the fault layer did not sanction. Sanctioned-drop
    /// entries are still serialised (so the artifact records what was
    /// sacrificed) but never panic on their own. When the
    /// `IBSIM_AUDIT_REPORT` environment variable names a path, the
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
        if self.has_unsanctioned() {
            panic!("{}", self.render());
        }
    }
}

/// The cadence hook: decides when the next periodic audit pass is due.
///
/// A `Network` holds one of these (boxed behind an `Option`, so the
/// disabled path costs a single branch per event) and asks [`Audit::due`]
/// after each dispatched event.
#[derive(Clone, Debug)]
pub struct Audit {
    /// Run a full pass every this many processed events.
    every: u64,
    next_at: u64,
    checks_run: u64,
}

impl Audit {
    /// Audit every `every` processed events (0 is clamped to 1).
    pub fn every(every: u64) -> Self {
        let every = every.max(1);
        Audit {
            every,
            next_at: every,
            checks_run: 0,
        }
    }

    /// True when a periodic pass is due at `events_processed`; advances
    /// the schedule so the pass runs once.
    #[inline]
    pub fn due(&mut self, events_processed: u64) -> bool {
        if events_processed < self.next_at {
            return false;
        }
        self.next_at = events_processed + self.every;
        true
    }

    /// Record that a full pass ran.
    pub fn note_pass(&mut self) {
        self.checks_run += 1;
    }

    pub fn checks_run(&self) -> u64 {
        self.checks_run
    }

    pub fn interval(&self) -> u64 {
        self.every
    }

    /// The schedule position — `(next_at, checks_run)` — for
    /// checkpointing.
    pub fn position(&self) -> (u64, u64) {
        (self.next_at, self.checks_run)
    }

    /// Reposition the schedule (checkpoint restore): the next periodic
    /// pass fires at `next_at` processed events, with `checks_run`
    /// passes already on the books.
    pub fn set_position(&mut self, next_at: u64, checks_run: u64) {
        self.next_at = next_at;
        self.checks_run = checks_run;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn sanctioned_only_report_does_not_raise() {
        let mut r = AuditReport::default();
        r.violate(
            LedgerKind::SanctionedDrop,
            "channel 5",
            "0 sanctioned drops",
            "3 sanctioned drops",
            "becn-loss window",
        );
        assert!(!r.is_clean(), "sanctioned entries are still recorded");
        assert!(!r.has_unsanctioned());
        assert_eq!(r.sanctioned().count(), 1);
        r.raise(); // no panic: every entry is sanctioned
    }

    #[test]
    #[should_panic(expected = "credits")]
    fn unsanctioned_violation_still_raises_alongside_sanctioned() {
        let mut r = AuditReport::default();
        r.violate(LedgerKind::SanctionedDrop, "channel 5", 0, 3, "");
        r.violate(LedgerKind::Credits, "channel 3 VL 0", 256, 255, "");
        assert!(r.has_unsanctioned());
        assert_eq!(r.unsanctioned().count(), 1);
        r.raise();
    }

    #[test]
    fn render_counts_sanctioned_entries() {
        let mut r = AuditReport::default();
        r.violate(LedgerKind::SanctionedDrop, "channel 1", 0, 2, "");
        assert!(r.render().contains("1 violation(s) (1 sanctioned)"), "{}", r.render());
    }

    #[test]
    fn cadence_fires_on_schedule() {
        let mut a = Audit::every(100);
        assert!(!a.due(99));
        assert!(a.due(100));
        assert!(!a.due(150), "not again until the next window");
        assert!(a.due(250));
        assert_eq!(a.interval(), 100);
    }

    #[test]
    fn zero_interval_clamped() {
        let mut a = Audit::every(0);
        assert!(a.due(1));
    }
}
