//! Whole-network checkpoint: one serializable value capturing every
//! bit of mutable simulator state, such that
//!
//! ```text
//! run_until(t); let s = net.checkpoint();
//! // ... later, on a freshly built network with the same topology,
//! // config, classes, audit and telemetry ...
//! net2.restore(&s)?;  net2.run_until(h)
//! ```
//!
//! produces byte-identical results to running the original network
//! straight to `h`. The split between *configuration* (rebuilt from
//! the topology, `NetConfig` and the scenario: wiring, LFTs,
//! arbitration tables, class rates, metric layouts)
//! and *runtime state* (everything here) is deliberate: the checkpoint
//! stays small and self-describing, and a restore against the wrong
//! configuration fails loudly instead of silently diverging.
//!
//! The event queue is captured with its original `(time, seq)` keys —
//! tie order among simultaneous events is part of the determinism
//! contract and must survive the round trip.
//!
//! Workload-generator cursors ride along inside each HCA's
//! [`ClassState`](crate::gen::ClassState): a [`DestPattern::Script`]
//! (crate::gen::DestPattern::Script) carries its unstarted sends, its
//! `fed` streaming cursor and its `closed` flag in canonical form, so
//! a checkpoint taken mid-shift or mid-collective-phase restores the
//! generator bit-exactly and a resumed trace replay knows how many
//! records the captured run had already consumed.

use crate::audit::NetAuditState;
use crate::config::NetConfig;
use crate::hca::{Hca, HcaState, InFlight};
use crate::network::{Channel, Ev, Event, Network};
use crate::pool::PacketPool;
use crate::switch::{Switch, SwitchState};
use crate::telemetry::NetTelemetryState;
use crate::types::{Packet, Vl};
use ibsim_engine::queue::EventQueue;
use ibsim_engine::time::Time;
use ibsim_engine::QueueSnapshot;
use serde::{Deserialize, Serialize};

/// A pending event as checkpoints persist it: the in-memory [`Event`]
/// with its packet-pool handles resolved to full packets. The variant
/// and field names mirror the pre-pool `Event` enum exactly, so golden
/// checkpoints stay byte-stable across the arena refactor.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum EventState {
    SwArrive {
        ch: u32,
        pkt: Packet,
    },
    HcaArrive {
        ch: u32,
        pkt: Packet,
    },
    SwTxDone {
        sw: u32,
        port: u16,
    },
    SwTryArb {
        sw: u32,
        port: u16,
    },
    SwCredit {
        sw: u32,
        port: u16,
        vl: Vl,
        blocks: u32,
    },
    HcaTxDone {
        hca: u32,
    },
    HcaTrySend {
        hca: u32,
    },
    HcaCredit {
        hca: u32,
        vl: Vl,
        blocks: u32,
    },
    SinkDone {
        hca: u32,
    },
    CctiTick {
        hca: u32,
    },
}

impl EventState {
    /// Resolve an in-memory event's handles against the live pool.
    /// Also the sharded executor's cross-shard hand-off format: a
    /// pool-independent descriptor that installs into the target
    /// shard's own arena.
    pub(crate) fn capture(ev: Event, pool: &PacketPool) -> EventState {
        match ev {
            Event::SwArrive { ch, h } => EventState::SwArrive {
                ch,
                pkt: *pool.get(h),
            },
            Event::HcaArrive { ch, h } => EventState::HcaArrive {
                ch,
                pkt: *pool.get(h),
            },
            Event::SwTxDone { sw, port } => EventState::SwTxDone { sw, port },
            Event::SwTryArb { sw, port } => EventState::SwTryArb { sw, port },
            Event::SwCredit {
                sw,
                port,
                vl,
                blocks,
            } => EventState::SwCredit {
                sw,
                port,
                vl,
                blocks,
            },
            Event::HcaTxDone { hca } => EventState::HcaTxDone { hca },
            Event::HcaTrySend { hca } => EventState::HcaTrySend { hca },
            Event::HcaCredit { hca, vl, blocks } => EventState::HcaCredit { hca, vl, blocks },
            Event::SinkDone { hca } => EventState::SinkDone { hca },
            Event::CctiTick { hca } => EventState::CctiTick { hca },
        }
    }

    /// Re-allocate the carried packet (if any) into `pool` and rebuild
    /// the in-memory event.
    pub(crate) fn install(&self, pool: &mut PacketPool) -> Event {
        match *self {
            EventState::SwArrive { ch, pkt } => Event::SwArrive {
                ch,
                h: pool.alloc(pkt),
            },
            EventState::HcaArrive { ch, pkt } => Event::HcaArrive {
                ch,
                h: pool.alloc(pkt),
            },
            EventState::SwTxDone { sw, port } => Event::SwTxDone { sw, port },
            EventState::SwTryArb { sw, port } => Event::SwTryArb { sw, port },
            EventState::SwCredit {
                sw,
                port,
                vl,
                blocks,
            } => Event::SwCredit {
                sw,
                port,
                vl,
                blocks,
            },
            EventState::HcaTxDone { hca } => Event::HcaTxDone { hca },
            EventState::HcaTrySend { hca } => Event::HcaTrySend { hca },
            EventState::HcaCredit { hca, vl, blocks } => Event::HcaCredit { hca, vl, blocks },
            EventState::SinkDone { hca } => Event::SinkDone { hca },
            EventState::CctiTick { hca } => Event::CctiTick { hca },
        }
    }
}

/// Complete mutable state of a [`Network`] at one instant.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct NetworkState {
    /// Simulated clock at the checkpoint.
    pub now: Time,
    /// Next event sequence number the queue will assign.
    pub queue_seq: u64,
    pub events_processed: u64,
    /// `(time, seq)` key of the most recent pop (event-order audit).
    pub last_pop: Option<(Time, u64)>,
    /// Pending events with their original keys, sorted by `(time, seq)`.
    pub events: Vec<(Time, u64, EventState)>,
    pub switches: Vec<SwitchState>,
    pub hcas: Vec<HcaState>,
    pub primed: bool,
    pub measuring_since: Option<Time>,
    pub measured_until: Option<Time>,
    /// Invariant-oracle ledgers; present iff the audit was enabled.
    pub audit: Option<NetAuditState>,
    /// Telemetry sampler position and series; present iff enabled.
    pub telemetry: Option<NetTelemetryState>,
}

impl Network {
    /// Capture the complete mutable state of this network.
    pub fn checkpoint(&self) -> NetworkState {
        let snap = self.queue.snapshot();
        NetworkState {
            now: snap.now,
            queue_seq: snap.seq,
            events_processed: snap.processed,
            last_pop: snap.last_pop,
            events: snap
                .entries
                .iter()
                .map(|&(t, q, ev)| (t, q, EventState::capture(ev.unpack(), &self.pool)))
                .collect(),
            switches: self.switches.iter().map(|s| s.state(&self.pool)).collect(),
            hcas: {
                let fifo = InFlight::of(&self.pool);
                let last = |h: &Hca| fifo.last_delivered(&self.hcas, h.id);
                self.hcas
                    .iter()
                    .map(|h| h.state(&self.pool, last(h)))
                    .collect()
            },
            primed: self.primed,
            measuring_since: self.measuring_since,
            measured_until: self.measured_until,
            audit: self.audit.as_deref().map(|a| a.state()),
            telemetry: self.telemetry.as_deref().map(|t| t.state()),
        }
    }

    /// Overwrite this network's mutable state with a checkpoint.
    ///
    /// The receiver must be *configured* identically to the network the
    /// checkpoint was taken from — same topology and `NetConfig`, same
    /// installed traffic classes, same audit cadence
    /// and telemetry config — but not yet run (or run arbitrarily; all
    /// runtime state is overwritten). Mismatched geometry returns a
    /// structured error naming the first divergence; no panic, though a
    /// failed restore may leave the receiver partially overwritten.
    pub fn restore(&mut self, s: &NetworkState) -> Result<(), String> {
        if s.switches.len() != self.switches.len() {
            return Err(format!(
                "checkpoint has {} switches, fabric has {}",
                s.switches.len(),
                self.switches.len()
            ));
        }
        if s.hcas.len() != self.hcas.len() {
            return Err(format!(
                "checkpoint has {} HCAs, fabric has {}",
                s.hcas.len(),
                self.hcas.len()
            ));
        }
        match (&s.audit, self.audit.is_some()) {
            (Some(_), false) => {
                return Err("checkpoint carries audit ledgers but the audit is not enabled".into())
            }
            (None, true) => {
                return Err("the audit is enabled but the checkpoint carries no ledgers".into())
            }
            _ => {}
        }
        match (&s.telemetry, self.telemetry.is_some()) {
            (Some(_), false) => {
                return Err(
                    "checkpoint carries telemetry state but telemetry is not enabled".into(),
                )
            }
            (None, true) => {
                return Err("telemetry is enabled but the checkpoint carries no state".into())
            }
            _ => {}
        }

        // Every live packet is re-allocated below — from the device
        // states and the pending events alike — so the arena restarts
        // empty. Handles are never persisted; they are an in-memory
        // indexing scheme, not state.
        self.pool.clear();
        for (i, (sw, ss)) in self.switches.iter_mut().zip(&s.switches).enumerate() {
            sw.restore_state(ss, &mut self.pool)?;
            check_buffers(i, sw, &self.cfg, &self.channels)?;
        }
        for (h, hs) in self.hcas.iter_mut().zip(&s.hcas) {
            h.restore_state(hs, &mut self.pool)?;
        }
        if let (Some(a), Some(as_)) = (self.audit.as_deref_mut(), &s.audit) {
            a.restore_state(as_)?;
        }
        if let (Some(t), Some(ts)) = (self.telemetry.as_deref_mut(), &s.telemetry) {
            t.restore_state(ts)?;
        }
        self.queue = EventQueue::from_snapshot(QueueSnapshot {
            now: s.now,
            seq: s.queue_seq,
            processed: s.events_processed,
            last_pop: s.last_pop,
            entries: s
                .events
                .iter()
                .map(|(t, q, es)| (*t, *q, Ev::pack(es.install(&mut self.pool))))
                .collect(),
        });
        check_flow_order(self, s)?;
        if let Some(a) = self.audit.as_deref_mut() {
            a.seed_flow_order(s.hcas.iter().map(|h| h.last_seq.as_slice()));
        }
        self.primed = s.primed;
        self.measuring_since = s.measuring_since;
        self.measured_until = s.measured_until;
        Ok(())
    }
}

/// Refuse delivery marks the restored fabric contradicts: a live data
/// packet no send accounts for, or a captured `last_seq` other than
/// the one its pair's live packets and `tx_seq` imply.
fn check_flow_order(net: &Network, s: &NetworkState) -> Result<(), String> {
    let fifo = InFlight::of(&net.pool);
    fifo.check_sent(&net.hcas)?;
    for (d, hs) in s.hcas.iter().enumerate() {
        let implied = fifo.last_delivered(&net.hcas, d as u32);
        let bad = implied.iter().zip(&hs.last_seq).position(|(a, b)| a != b);
        if let Some(src) = bad {
            return Err(format!(
                "hca {d}: last_seq from {src} is {}, the fabric implies {}",
                hs.last_seq[src], implied[src]
            ));
        }
    }
    Ok(())
}

/// Refuse a restored switch no run can reach: an input `(port, VL)`
/// holding more blocks than its buffer, or a credit counter above the
/// buffer at the far end of the port's cable (an uncabled port has
/// none). Credits bound every backlog, so this is also what bounds the
/// backlog slab.
fn check_buffers(
    i: usize,
    sw: &Switch,
    cfg: &NetConfig,
    channels: &[Channel],
) -> Result<(), String> {
    let held = cfg.switch_ibuf_blocks;
    for (p, port) in sw.ports.iter().enumerate() {
        let far = port
            .out_channel
            .map_or(0, |ch| channels[ch as usize].capacity(cfg));
        for vl in 0..sw.n_vls() {
            let (queued, credits) = (sw.buffered_blocks(p as u16, vl), sw.credit(p as u16, vl));
            if queued > held as u64 {
                let why = format!("{queued} blocks queued, its input buffer holds {held}");
                return Err(format!("switch {i} port {p} VL {vl}: {why}"));
            }
            if credits > far {
                let why = format!("{credits} credits, the buffer they stand for holds {far}");
                return Err(format!("switch {i} port {p} VL {vl}: {why}"));
            }
        }
    }
    Ok(())
}
