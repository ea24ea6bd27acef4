//! Channel-adapter-side congestion control: the source response function.
//!
//! When a source HCA receives a BECN for one of its flows, the flow's
//! index into the Congestion Control Table (the CCTI) is increased by
//! `CCTI_Increase`, bounded by `CCTI_Limit`. The table entry at the CCTI
//! defines the injection rate delay (IRD) inserted between consecutive
//! packets of the flow. A per-SL recovery timer (`CCTI_Timer`, units of
//! 1.024 µs) decrements every flow's CCTI by one on each expiry, down to
//! `CCTI_Min`; a flow at CCTI 0 experiences no IRD.
//!
//! Depending on [`CcMode`], a "flow" is either a
//! queue pair (keyed by destination here — one QP per destination, as in
//! the paper) or a whole service level.
//!
//! Flow state is held only while a flow brakes: a small open-addressing
//! table per HCA, keyed by [`FlowKey`], gains an entry on a flow's BECN
//! (or on a gated send when `CCTI_Min > 0`) and, when `CCTI_Min` is 0,
//! drops it once the CCTI is back at 0 and the flow's IRD gate has
//! passed. Such a flow reads exactly like one never touched, so the
//! table grows with the flows CC is braking rather than with the
//! number of destinations. With keys below `n` it never takes more
//! than `1.5 n` slots of the dense table's 16 bytes, so even holding
//! every flow (as it does once `CCTI_Min > 0` gates every send) it
//! costs at most 1.5× the dense per-destination table (for `n ≥ 2`).

use crate::params::{CcMode, CcParams};
use ibsim_engine::time::{Time, TimeDelta};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Key identifying a throttled flow at an HCA: the destination node id
/// in QP mode, the service level in SL mode. `FlowKey::MAX` is reserved
/// (it marks a free table slot).
pub type FlowKey = u32;

const FREE: FlowKey = FlowKey::MAX;

/// One slot of [`FlowTable`].
#[derive(Clone, Copy, Debug)]
struct FlowCc {
    /// Earliest instant the next packet of this flow may start.
    next_allowed: Time,
    /// The flow, or [`FREE`].
    key: FlowKey,
    ccti: u16,
}

const FREE_SLOT: FlowCc = FlowCc {
    next_allowed: Time::ZERO,
    key: FREE,
    ccti: 0,
};

/// Smallest table a first insert allocates (unless fewer keys exist).
const MIN_SLOTS: usize = 16;

/// Slots needed to hold `n` keys at no more than 3/4 load.
fn slots_for(n: usize) -> usize {
    (n * 4).div_ceil(3)
}

/// The flows an HCA is braking: linear probing with backward-shift
/// deletion, never more than 3/4 full. Capacity only grows, so once a
/// run has seen its widest brake, inserts and removals allocate nothing.
#[derive(Clone, Debug, Default)]
struct FlowTable {
    slots: Vec<FlowCc>,
    len: usize,
    /// One past the largest key ever inserted: the extent the dense
    /// checkpoint schema and the telemetry mean are written against.
    extent: usize,
}

impl FlowTable {
    /// Fibonacci hash of `key`, scaled onto the capacity.
    #[inline]
    fn home(&self, key: FlowKey) -> usize {
        let h = key.wrapping_mul(0x9E37_79B9) as u64;
        ((h * self.slots.len() as u64) >> 32) as usize
    }

    #[inline]
    fn next(&self, i: usize) -> usize {
        if i + 1 == self.slots.len() {
            0
        } else {
            i + 1
        }
    }

    /// The slot holding `key`, if any.
    #[inline]
    fn find(&self, key: FlowKey) -> Option<usize> {
        if self.len == 0 {
            return None;
        }
        let mut i = self.home(key);
        loop {
            match self.slots[i].key {
                k if k == key => return Some(i),
                FREE => return None,
                _ => i = self.next(i),
            }
        }
    }

    #[inline]
    fn get(&self, key: FlowKey) -> Option<&FlowCc> {
        self.find(key).map(|i| &self.slots[i])
    }

    /// Insert `key` (absent) at `ccti` with an open gate; its slot.
    fn insert(&mut self, key: FlowKey, ccti: u16) -> usize {
        debug_assert!(key != FREE && self.find(key).is_none());
        self.extent = self.extent.max(key as usize + 1);
        if (self.len + 1) * 4 > self.slots.len() * 3 {
            // Double, but never past 1.5 slots per key below the extent
            // (which still grows by at least 1/8 when every such key is
            // held), unless 3/4 load needs more.
            let cap = (self.slots.len() * 2)
                .max(MIN_SLOTS)
                .min(self.extent * 3 / 2)
                .max(slots_for(self.len + 1));
            let old = std::mem::replace(&mut self.slots, vec![FREE_SLOT; cap]);
            for f in old.into_iter().filter(|f| f.key != FREE) {
                let i = self.free_slot(f.key);
                self.slots[i] = f;
            }
        }
        let i = self.free_slot(key);
        self.slots[i] = FlowCc {
            key,
            ccti,
            ..FREE_SLOT
        };
        self.len += 1;
        i
    }

    /// The first free slot on `key`'s probe path.
    fn free_slot(&self, key: FlowKey) -> usize {
        let mut i = self.home(key);
        while self.slots[i].key != FREE {
            i = self.next(i);
        }
        i
    }

    /// Free slot `hole`, shifting later entries of its probe run back
    /// so every remaining key stays reachable from its home slot.
    fn remove_at(&mut self, mut hole: usize) {
        self.len -= 1;
        let mut j = hole;
        loop {
            j = self.next(j);
            let key = self.slots[j].key;
            if key == FREE {
                break;
            }
            // An entry whose home lies cyclically in (hole, j] must stay.
            let home = self.home(key);
            let stays = if hole <= j {
                hole < home && home <= j
            } else {
                hole < home || home <= j
            };
            if !stays {
                self.slots[hole] = self.slots[j];
                hole = j;
            }
        }
        self.slots[hole] = FREE_SLOT;
    }

    fn iter(&self) -> impl Iterator<Item = &FlowCc> {
        self.slots.iter().filter(|f| f.key != FREE)
    }
}

/// CA-side CC state for one HCA.
#[derive(Clone, Debug)]
pub struct HcaCc {
    params: Arc<CcParams>,
    /// The flows being braked, or whose gate is still closed.
    flows: FlowTable,
    /// Keys of the flows with CCTI above CCTI_Min, in no particular
    /// order. The recovery timer walks these instead of the whole
    /// table, and is a no-op when there are none.
    throttled: Vec<FlowKey>,
    // ---- statistics ----------------------------------------------------
    becns_received: u64,
    /// BECNs that actually moved a CCTI upward (a BECN against a flow
    /// already clamped at CCTI_Limit raises nothing). Along the
    /// notification chain this can never exceed `becns_received`.
    ccti_raises: u64,
}

impl HcaCc {
    pub fn new(params: Arc<CcParams>) -> Self {
        HcaCc {
            params,
            flows: FlowTable::default(),
            throttled: Vec::new(),
            becns_received: 0,
            ccti_raises: 0,
        }
    }

    /// Like [`HcaCc::new`], with the table sized to hold `n_flows` flows
    /// without growing — for a caller that will brake every flow.
    pub fn with_flow_capacity(params: Arc<CcParams>, n_flows: usize) -> Self {
        let mut cc = Self::new(params);
        cc.flows.slots = vec![FREE_SLOT; slots_for(n_flows)];
        cc
    }

    pub fn params(&self) -> &CcParams {
        &self.params
    }

    /// Rebuild the throttled-key list from the table, after the table
    /// changed wholesale.
    fn collect_throttled(&mut self) {
        let min = self.params.ccti_min;
        self.throttled.clear();
        let held = self.flows.iter().filter(|f| f.ccti > min);
        self.throttled.extend(held.map(|f| f.key));
    }

    /// Map (destination, service level) to the throttling key per mode.
    #[inline]
    pub fn flow_key(&self, dst: u32, sl: u8) -> FlowKey {
        match self.params.mode {
            CcMode::QueuePair => dst,
            CcMode::ServiceLevel => sl as u32,
        }
    }

    /// Handle a BECN for `key`: increase the CCTI.
    pub fn on_becn(&mut self, key: FlowKey) {
        self.becns_received += 1;
        let (inc, limit, min) = {
            let p = &self.params;
            (p.ccti_increase, p.ccti_limit, p.ccti_min)
        };
        // A flow not held reads CCTI_Min, and that is where it starts.
        let i = self
            .flows
            .find(key)
            .unwrap_or_else(|| self.flows.insert(key, min));
        let f = &mut self.flows.slots[i];
        let before = f.ccti;
        f.ccti = before.saturating_add(inc).min(limit);
        let after = f.ccti;
        if after > before {
            self.ccti_raises += 1;
        }
        if before <= min && after > min {
            self.throttled.push(key);
        }
    }

    /// Recovery-timer expiry at `now`: decrement every throttled flow's
    /// CCTI by one, and let go of each flow that is back at CCTI 0 with
    /// its gate passed. Returns the number of flows still throttled.
    pub fn on_timer_at(&mut self, now: Time) -> usize {
        let (flows, min) = (&mut self.flows, self.params.ccti_min);
        self.throttled.retain(|&k| {
            let i = flows.find(k).expect("a throttled flow is held");
            let f = &mut flows.slots[i];
            f.ccti -= 1;
            if f.ccti > min {
                return true;
            }
            // Above a zero floor the CCTI stops at the floor, never at
            // 0, so only CCTI_Min 0 lets flows go.
            if f.ccti == 0 && f.next_allowed <= now {
                flows.remove_at(i);
            }
            false
        });
        self.throttled.len()
    }

    /// [`HcaCc::on_timer_at`] without a clock: only flows that never
    /// had a gate are let go.
    pub fn on_timer(&mut self) -> usize {
        self.on_timer_at(Time::ZERO)
    }

    /// Current CCTI of a flow (CCTI_Min if not held).
    pub fn ccti(&self, key: FlowKey) -> u16 {
        self.flows.get(key).map_or(self.params.ccti_min, |f| f.ccti)
    }

    /// Earliest time the next packet of `key` may start.
    #[inline]
    pub fn next_allowed(&self, key: FlowKey) -> Time {
        self.flows.get(key).map_or(Time::ZERO, |f| f.next_allowed)
    }

    /// Record that a packet of `key` finished serialising at `tx_end`
    /// after occupying the line for `pkt_time`; computes and stores the
    /// IRD gate for the flow's next packet.
    pub fn note_packet_sent(&mut self, key: FlowKey, tx_end: Time, pkt_time: TimeDelta) {
        let slot = self.flows.find(key);
        let ccti = slot.map_or(self.params.ccti_min, |i| self.flows.slots[i].ccti);
        if ccti == 0 {
            // No IRD. The transmitter is busy until `tx_end` and the
            // next packet starts no earlier, so a gate there never
            // closes: at CCTI_Min 0 the flow now reads like an
            // untouched one and is let go.
            if let Some(i) = slot {
                if self.params.ccti_min == 0 {
                    self.flows.remove_at(i);
                } else {
                    self.flows.slots[i].next_allowed = tx_end;
                }
            }
            return;
        }
        let delay = self.params.cct.ird_delay(ccti, pkt_time);
        let i = slot.unwrap_or_else(|| self.flows.insert(key, ccti));
        self.flows.slots[i].next_allowed = tx_end + delay;
    }

    /// Number of flows currently above CCTI_Min.
    pub fn throttled_flows(&self) -> usize {
        self.throttled.len()
    }

    /// Flows the table holds right now: the braking ones, and those
    /// whose gate has not yet passed.
    pub fn held_flows(&self) -> usize {
        self.flows.len
    }

    pub fn becns_received(&self) -> u64 {
        self.becns_received
    }

    /// BECNs that actually increased a CCTI (see the field doc).
    pub fn ccti_raises(&self) -> u64 {
        self.ccti_raises
    }

    /// Verify this agent's own invariants: every CCTI within
    /// `[0, CCTI_Limit]`, the cached throttled-flow counter equal to a
    /// recount, and CCTI raises not exceeding BECNs. Returns the first
    /// inconsistency (the lowest offending key first) as a structured
    /// message.
    pub fn audit(&self) -> Result<(), String> {
        let p = &self.params;
        let over = self.flows.iter().filter(|f| f.ccti > p.ccti_limit);
        if let Some(f) = over.min_by_key(|f| f.key) {
            return Err(format!(
                "flow {}: CCTI {} above CCTI_Limit {}",
                f.key, f.ccti, p.ccti_limit
            ));
        }
        let recount = self.flows.iter().filter(|f| f.ccti > p.ccti_min).count();
        if recount != self.throttled.len() {
            return Err(format!(
                "throttled-flow counter {} but recount {}",
                self.throttled.len(),
                recount
            ));
        }
        if self.ccti_raises > self.becns_received {
            return Err(format!(
                "{} CCTI raises from only {} BECNs",
                self.ccti_raises, self.becns_received
            ));
        }
        Ok(())
    }

    /// Largest CCTI across flows (0 when none) — a useful gauge of how
    /// hard the mechanism is braking.
    pub fn max_ccti(&self) -> u16 {
        self.flows.iter().map(|f| f.ccti).max().unwrap_or(0)
    }

    /// Sum of all held flows' CCTIs — divided by
    /// [`HcaCc::tracked_flows`] it gives the mean brake depth, the CCTI
    /// gauge a telemetry sampler records per node.
    pub fn sum_ccti(&self) -> u64 {
        self.flows.iter().map(|f| f.ccti as u64).sum()
    }

    /// One past the largest key ever held: the extent of the dense
    /// per-flow view [`HcaCc::state`] writes.
    pub fn tracked_flows(&self) -> usize {
        self.flows.extent
    }

    /// The CCT inter-packet-delay multiplier at the current worst CCTI:
    /// how many packet-times the most-throttled flow waits between
    /// packets (the IRD gauge; 0 = unthrottled).
    pub fn ird_multiplier(&self) -> u32 {
        self.params.cct.multiplier(self.max_ccti())
    }

    /// Complete serialisable image of this agent (checkpointing),
    /// parameters included.
    /// Flows are written densely up to [`HcaCc::tracked_flows`], keys
    /// ascending; a key not held is written as an untracked default.
    pub fn state(&self) -> HcaCcState {
        let mut flows = vec![FlowCcState::UNTRACKED; self.flows.extent];
        for f in self.flows.iter() {
            flows[f.key as usize] = FlowCcState {
                ccti: f.ccti,
                tracked: true,
                next_allowed: f.next_allowed,
            };
        }
        HcaCcState {
            params: (*self.params).clone(),
            flows,
            throttled: self.throttled.len() as u64,
            becns_received: self.becns_received,
            ccti_raises: self.ccti_raises,
        }
    }

    /// Overwrite this agent with a previously captured [`HcaCcState`],
    /// holding exactly its tracked entries. The throttled flows are
    /// recollected from the restored table. An entry the table cannot
    /// hold — a CCTI above the captured `CCTI_Limit`, or an untracked
    /// entry carrying a CCTI or a gate — is refused and leaves this
    /// agent unchanged.
    pub fn restore_state(&mut self, s: &HcaCcState) -> Result<(), FlowStateError> {
        let mut flows = FlowTable {
            extent: s.flows.len(),
            ..FlowTable::default()
        };
        for (key, f) in s.flows.iter().enumerate() {
            let key = key as FlowKey;
            let refuse = |field, value, bound_name, bound| FlowStateError {
                key,
                field,
                value,
                bound_name,
                bound,
            };
            if f.ccti > s.params.ccti_limit {
                let limit = s.params.ccti_limit as u64;
                return Err(refuse("ccti", f.ccti as u64, "CCTI_Limit", limit));
            }
            if !f.tracked {
                let bound = "the untracked bound";
                if f.ccti != 0 {
                    return Err(refuse("ccti", f.ccti as u64, bound, 0));
                }
                if f.next_allowed != Time::ZERO {
                    return Err(refuse("next_allowed", f.next_allowed.as_ps(), bound, 0));
                }
                continue;
            }
            let i = flows.insert(key, f.ccti);
            flows.slots[i].next_allowed = f.next_allowed;
        }
        self.params = Arc::new(s.params.clone());
        self.flows = flows;
        self.collect_throttled();
        self.becns_received = s.becns_received;
        self.ccti_raises = s.ccti_raises;
        Ok(())
    }
}

/// A captured flow entry [`HcaCc::restore_state`] refuses: which flow,
/// which field, its value and the bound it breaks.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FlowStateError {
    pub key: FlowKey,
    pub field: &'static str,
    pub value: u64,
    pub bound_name: &'static str,
    pub bound: u64,
}

impl std::fmt::Display for FlowStateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "cc flow {}: {} {} exceeds {} {}",
            self.key, self.field, self.value, self.bound_name, self.bound
        )
    }
}

/// Serialisable image of one flow slot of [`HcaCc`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlowCcState {
    pub ccti: u16,
    pub tracked: bool,
    pub next_allowed: Time,
}

impl FlowCcState {
    /// A key the table does not hold.
    pub const UNTRACKED: FlowCcState = FlowCcState {
        ccti: 0,
        tracked: false,
        next_allowed: Time::ZERO,
    };
}

/// Complete serialisable image of one HCA's CC agent — everything
/// [`HcaCc`] mutates after construction.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct HcaCcState {
    pub params: CcParams,
    pub flows: Vec<FlowCcState>,
    pub throttled: u64,
    pub becns_received: u64,
    pub ccti_raises: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::CcParams;

    fn cc() -> HcaCc {
        HcaCc::new(Arc::new(CcParams::paper_table1()))
    }

    #[test]
    fn becn_increases_ccti_up_to_limit() {
        let mut c = cc();
        for _ in 0..200 {
            c.on_becn(5);
        }
        assert_eq!(c.ccti(5), 127, "clamped at CCTI_Limit");
        assert_eq!(c.becns_received(), 200);
        assert_eq!(c.throttled_flows(), 1);
    }

    #[test]
    fn timer_decrements_all_flows() {
        let mut c = cc();
        c.on_becn(1);
        c.on_becn(1);
        c.on_becn(2);
        assert_eq!(c.ccti(1), 2);
        assert_eq!(c.ccti(2), 1);
        assert_eq!(c.on_timer(), 1); // flow 2 recovered
        assert_eq!(c.ccti(1), 1);
        assert_eq!(c.ccti(2), 0);
        assert_eq!(c.on_timer(), 0);
        assert_eq!(c.ccti(1), 0);
        assert_eq!(c.on_timer(), 0, "no-op once recovered");
    }

    /// The throttled-key list is rebuilt, not carried, across a
    /// checkpoint restore: the copy recovers tick for tick with the
    /// original, and both stay audit-clean.
    #[test]
    fn restored_agent_recovers_like_the_original() {
        let mut c = HcaCc::with_flow_capacity(Arc::new(CcParams::paper_table1()), 64);
        for k in [3u32, 40, 3, 7, 3] {
            c.on_becn(k);
        }
        let mut restored = cc();
        restored.restore_state(&c.state()).unwrap();
        for _ in 0..4 {
            let left = c.on_timer();
            assert_eq!(restored.on_timer(), left);
            for k in [3, 7, 40] {
                assert_eq!(restored.ccti(k), c.ccti(k));
            }
            for a in [&c, &restored] {
                a.audit().unwrap();
            }
        }
        assert_eq!(c.throttled_flows(), 0);
    }

    #[test]
    fn ird_gates_next_packet() {
        let mut c = cc();
        let pkt = TimeDelta::from_ns(800);
        // Unthrottled: no gate.
        c.note_packet_sent(7, Time::from_ns(1000), pkt);
        assert_eq!(c.next_allowed(7), Time::ZERO, "no state for clean flows");
        // Throttle to CCTI=3 (linear CCT -> multiplier 3).
        for _ in 0..3 {
            c.on_becn(7);
        }
        c.note_packet_sent(7, Time::from_ns(1000), pkt);
        assert_eq!(c.next_allowed(7), Time::from_ns(1000 + 3 * 800));
    }

    #[test]
    fn ird_relative_to_packet_length() {
        let mut c = cc();
        c.on_becn(9);
        c.note_packet_sent(9, Time::from_ns(100), TimeDelta::from_ns(50));
        assert_eq!(c.next_allowed(9), Time::from_ns(150));
        c.note_packet_sent(9, Time::from_ns(100), TimeDelta::from_ns(500));
        assert_eq!(c.next_allowed(9), Time::from_ns(600));
    }

    #[test]
    fn flow_key_follows_mode() {
        let c = cc();
        assert_eq!(c.flow_key(42, 3), 42, "QP mode keys by destination");
        let mut p = CcParams::paper_table1();
        p.mode = CcMode::ServiceLevel;
        let c = HcaCc::new(Arc::new(p));
        assert_eq!(c.flow_key(42, 3), 3, "SL mode keys by service level");
        assert_eq!(c.flow_key(99, 3), 3, "all destinations share the SL key");
    }

    #[test]
    fn ccti_increase_parameter_respected() {
        let mut p = CcParams::paper_table1();
        p.ccti_increase = 5;
        let mut c = HcaCc::new(Arc::new(p));
        c.on_becn(0);
        assert_eq!(c.ccti(0), 5);
    }

    #[test]
    fn ccti_min_floor() {
        let mut p = CcParams::paper_table1();
        p.ccti_min = 2;
        let mut c = HcaCc::new(Arc::new(p));
        // A fresh flow starts at CCTI_Min: one BECN lifts it above.
        c.on_becn(1);
        assert_eq!((c.ccti(1), c.throttled_flows()), (3, 1));
        c.on_becn(1);
        c.on_becn(1);
        assert_eq!(c.ccti(1), 5);
        for want in [4, 3, 2, 2] {
            c.on_timer();
            assert_eq!(c.ccti(1), want, "the timer floors at CCTI_Min");
        }
        // An untouched flow reports CCTI_Min, and the entry its gated
        // send creates keeps it there.
        assert_eq!(c.ccti(99), 2);
        c.note_packet_sent(99, Time(1000), TimeDelta(100));
        assert_eq!((c.ccti(99), c.held_flows()), (2, 2));
        c.audit().unwrap();
    }

    #[test]
    fn ccti_raises_stop_at_the_limit() {
        let mut c = cc();
        for _ in 0..200 {
            c.on_becn(5);
        }
        assert_eq!(c.becns_received(), 200);
        assert_eq!(c.ccti_raises(), 127, "raises stop once clamped at limit");
        c.audit().unwrap();
    }

    #[test]
    fn audit_is_clean_under_a_mixed_schedule() {
        let mut c = cc();
        for k in [1u32, 2, 1, 3, 1] {
            c.on_becn(k);
        }
        c.on_timer();
        c.on_timer();
        c.audit().unwrap();
    }

    #[test]
    fn max_ccti_tracks_peak() {
        let mut c = cc();
        assert_eq!(c.max_ccti(), 0);
        c.on_becn(1);
        c.on_becn(1);
        c.on_becn(2);
        assert_eq!(c.max_ccti(), 2);
    }

    #[test]
    fn independent_flows_in_qp_mode() {
        let mut c = cc();
        for _ in 0..10 {
            c.on_becn(1);
        }
        assert_eq!(c.ccti(1), 10);
        assert_eq!(c.ccti(2), 0, "other destinations unaffected");
        assert_eq!(c.throttled_flows(), 1);
    }

    #[test]
    fn untouched_low_keys_keep_map_semantics_after_growth() {
        // on_becn(7) grows the dense table past keys 0..7; those slots
        // must still behave exactly like absent map entries.
        let mut p = CcParams::paper_table1();
        p.ccti_min = 2;
        let mut c = HcaCc::new(Arc::new(p));
        c.on_becn(7);
        assert_eq!(c.ccti(3), 2, "untouched in-range key reports CCTI_Min");
        assert_eq!(c.next_allowed(3), Time::ZERO);
        c.note_packet_sent(3, Time::from_ns(500), TimeDelta::from_ns(50));
        // ccti_min > 0 means the send is gated, which (as with the map)
        // creates state for the flow from a starting CCTI of 0.
        assert!(c.next_allowed(3) > Time::from_ns(500));
    }

    #[test]
    fn with_flow_capacity_is_behaviourally_identical() {
        let mut a = HcaCc::with_flow_capacity(Arc::new(CcParams::paper_table1()), 64);
        let mut b = cc();
        for k in [5u32, 1, 5, 9] {
            a.on_becn(k);
            b.on_becn(k);
        }
        for k in 0..12 {
            assert_eq!(a.ccti(k), b.ccti(k));
            assert_eq!(a.next_allowed(k), b.next_allowed(k));
        }
        assert_eq!(a.throttled_flows(), b.throttled_flows());
    }

    #[test]
    fn telemetry_gauges_track_becn_state() {
        let mut c = cc();
        assert_eq!(c.sum_ccti(), 0);
        assert_eq!(c.tracked_flows(), 0);
        assert_eq!(
            c.ird_multiplier(),
            0,
            "unthrottled flows wait 0 packet-times"
        );
        c.on_becn(3);
        c.on_becn(3);
        c.on_becn(7);
        let inc = c.params().ccti_increase as u64;
        assert_eq!(c.sum_ccti(), 3 * inc, "two raises on flow 3, one on flow 7");
        assert_eq!(c.tracked_flows(), 8, "the extent reaches the largest key");
        assert_eq!(
            c.ird_multiplier(),
            c.params().cct.multiplier(c.max_ccti()),
            "IRD gauge reads the CCT at the worst CCTI"
        );
        assert!(c.ird_multiplier() > 0, "a raised CCTI must throttle");
    }

    #[test]
    fn a_recovered_flow_is_let_go_once_its_gate_passes() {
        let mut c = cc();
        let pkt = TimeDelta::from_ns(100);
        c.on_becn(4);
        c.on_becn(4);
        c.note_packet_sent(4, Time::from_ns(1000), pkt); // gate at 1200
        c.on_becn(9);
        assert_eq!(c.held_flows(), 2);
        c.on_timer_at(Time::from_ns(1100));
        assert_eq!(c.held_flows(), 1, "flow 9 never had a gate");
        c.on_timer_at(Time::from_ns(1150));
        assert_eq!((c.ccti(4), c.held_flows()), (0, 1), "gate still closed");
        assert_eq!(c.next_allowed(4), Time::from_ns(1200));
        c.note_packet_sent(4, Time::from_ns(1300), pkt);
        assert_eq!(c.held_flows(), 0, "a send at CCTI 0 lets it go");
        assert_eq!((c.tracked_flows(), c.next_allowed(4)), (10, Time::ZERO));
        let s = c.state();
        assert!(s.flows.iter().all(|f| *f == FlowCcState::UNTRACKED));
        c.audit().unwrap();
    }

    #[test]
    fn nothing_is_let_go_above_a_zero_floor() {
        let mut p = CcParams::paper_table1();
        p.ccti_min = 1;
        let mut c = HcaCc::new(Arc::new(p));
        c.note_packet_sent(2, Time::from_ns(10), TimeDelta::from_ns(10));
        c.on_becn(3);
        c.on_becn(3);
        c.on_timer_at(Time::MAX);
        c.note_packet_sent(3, Time::from_ns(20), TimeDelta::from_ns(10));
        assert_eq!(c.held_flows(), 2);
    }

    /// Holding every flow, the table costs at most 1.5× the dense
    /// per-destination table it replaced (16-byte slots, one per key).
    #[test]
    fn a_table_holding_every_flow_stays_within_one_and_a_half_dense_tables() {
        const DENSE_SLOT: usize = 16;
        assert_eq!(std::mem::size_of::<FlowCc>(), DENSE_SLOT);
        for n in [2u32, 8, 72, 648] {
            let mut p = CcParams::paper_table1();
            p.ccti_min = 1;
            let mut c = HcaCc::new(Arc::new(p));
            for k in (0..n).rev() {
                c.note_packet_sent(k, Time::from_ns(1), TimeDelta::from_ns(1));
            }
            assert_eq!(c.held_flows(), n as usize);
            let bytes = c.flows.slots.capacity() * DENSE_SLOT;
            assert!(
                2 * bytes <= 3 * n as usize * DENSE_SLOT,
                "{n} flows: {bytes} B"
            );
        }
    }

    /// Deletion with wrap-around and growth keep every held key
    /// reachable, and a table that has seen its widest brake inserts
    /// and removes without reallocating.
    #[test]
    fn churn_keeps_keys_reachable_without_reallocating() {
        let mut c = cc();
        let t = Time::from_ns(1);
        for round in 0..50u32 {
            for k in 0..300u32 {
                if (k + round) % 3 != 0 {
                    c.on_becn(k);
                }
            }
            let slots = c.flows.slots.as_ptr();
            while c.on_timer_at(t) > 0 {}
            assert_eq!(c.held_flows(), 0);
            for k in 0..300u32 {
                c.on_becn(k);
                c.on_becn(k);
            }
            for k in (0..300u32).step_by(7) {
                assert_eq!(c.ccti(k), 2);
            }
            c.on_timer_at(t);
            c.on_timer_at(t);
            assert_eq!((c.held_flows(), c.throttled_flows()), (0, 0));
            if round > 0 {
                assert_eq!(c.flows.slots.as_ptr(), slots, "round {round} reallocated");
            }
        }
        c.audit().unwrap();
    }

    #[test]
    fn restore_refuses_entries_the_table_cannot_hold() {
        let mut c = cc();
        c.on_becn(2);
        let good = c.state();
        let mut over = good.clone();
        over.flows[2].ccti = 128;
        let err = cc().restore_state(&over).unwrap_err();
        assert_eq!(
            err.to_string(),
            "cc flow 2: ccti 128 exceeds CCTI_Limit 127"
        );
        let mut gated = good.clone();
        gated.flows[0].next_allowed = Time::from_ns(1);
        let err = cc().restore_state(&gated).unwrap_err();
        assert_eq!(
            err.to_string(),
            "cc flow 0: next_allowed 1000 exceeds the untracked bound 0"
        );
        let mut target = cc();
        target.on_becn(5);
        let mut braked = good;
        braked.flows[1].ccti = 3;
        assert!(target.restore_state(&braked).is_err());
        assert_eq!(target.ccti(5), 1, "a refused restore changes nothing");
    }
}
