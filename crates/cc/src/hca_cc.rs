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
//! Flow state lives in a dense table indexed directly by [`FlowKey`]
//! (destinations are dense node ids, service levels are small
//! integers), so the per-packet IRD-gate lookup on the injection hot
//! path is a bounds-checked array load instead of a hash probe. Slots
//! are assigned once, on a flow's first BECN or throttled send, and the
//! table is pre-sized from the topology via [`HcaCc::with_flow_capacity`].

use crate::params::{CcMode, CcParams};
use ibsim_engine::time::{Time, TimeDelta};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Key identifying a throttled flow at an HCA. Dense: the destination
/// node id in QP mode, the service level in SL mode.
pub type FlowKey = u32;

#[derive(Clone, Copy, Debug, Default)]
struct FlowCc {
    ccti: u16,
    /// Whether this slot has ever been touched. Mirrors map presence in
    /// the sparse representation: an untouched flow reports `ccti_min`
    /// from [`HcaCc::ccti`] but starts throttling from 0 on its first
    /// BECN.
    tracked: bool,
    /// Earliest instant the next packet of this flow may start.
    next_allowed: Time,
}

/// CA-side CC state for one HCA.
#[derive(Clone, Debug)]
pub struct HcaCc {
    params: Arc<CcParams>,
    /// Dense flow table indexed by `FlowKey`; grown on first touch.
    flows: Vec<FlowCc>,
    /// Keys of the flows with CCTI above CCTI_Min, in no particular
    /// order. The recovery timer walks these instead of the whole
    /// table — a few flows per HCA are throttled at a time, out of one
    /// slot per destination — and is a no-op when there are none.
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
            flows: Vec::new(),
            throttled: Vec::new(),
            becns_received: 0,
            ccti_raises: 0,
        }
    }

    /// Like [`HcaCc::new`], pre-allocating the dense flow table for
    /// `n_flows` keys (number of destinations in QP mode, number of
    /// service levels in SL mode) so the hot path never reallocates.
    pub fn with_flow_capacity(params: Arc<CcParams>, n_flows: usize) -> Self {
        let mut cc = Self::new(params);
        cc.flows.reserve(n_flows);
        cc
    }

    pub fn params(&self) -> &CcParams {
        &self.params
    }

    /// Swap in new CC parameters mid-run (firmware re-tune / parameter
    /// drift). Existing flow state is kept but re-clamped to the new
    /// table: CCTIs above the new `ccti_limit` come down to it, CCTIs
    /// below the new `ccti_min` are lifted to it, and the throttled
    /// flows are recollected so `audit()` stays clean across the swap.
    pub fn set_params(&mut self, params: Arc<CcParams>) {
        self.params = params;
        let (min, limit) = (self.params.ccti_min, self.params.ccti_limit);
        for f in &mut self.flows {
            if f.tracked {
                f.ccti = f.ccti.clamp(min, limit);
            }
        }
        self.collect_throttled();
    }

    /// Rebuild the throttled-key list from the table, after the table or
    /// its floor changed wholesale.
    fn collect_throttled(&mut self) {
        let (flows, min) = (&self.flows, self.params.ccti_min);
        self.throttled.clear();
        self.throttled
            .extend((0..flows.len() as FlowKey).filter(|&k| flows[k as usize].ccti > min));
    }

    /// Map (destination, service level) to the throttling key per mode.
    #[inline]
    pub fn flow_key(&self, dst: u32, sl: u8) -> FlowKey {
        match self.params.mode {
            CcMode::QueuePair => dst,
            CcMode::ServiceLevel => sl as u32,
        }
    }

    /// The slot for `key`, growing the table on first touch.
    #[inline]
    fn slot_mut(&mut self, key: FlowKey) -> &mut FlowCc {
        let i = key as usize;
        if i >= self.flows.len() {
            self.flows.resize(i + 1, FlowCc::default());
        }
        &mut self.flows[i]
    }

    /// Handle a BECN for `key`: increase the CCTI.
    pub fn on_becn(&mut self, key: FlowKey) {
        self.becns_received += 1;
        let (inc, limit, min) = {
            let p = &self.params;
            (p.ccti_increase, p.ccti_limit, p.ccti_min)
        };
        let f = self.slot_mut(key);
        f.tracked = true;
        let was_min = f.ccti <= min;
        let before = f.ccti;
        f.ccti = f.ccti.saturating_add(inc).min(limit);
        let after = f.ccti;
        if after > before {
            self.ccti_raises += 1;
        }
        if was_min && after > min {
            self.throttled.push(key);
        }
    }

    /// Recovery-timer expiry: decrement every throttled flow's CCTI by
    /// one. Returns the number of flows still throttled.
    pub fn on_timer(&mut self) -> usize {
        let (flows, min) = (&mut self.flows, self.params.ccti_min);
        self.throttled.retain(|&k| {
            let f = &mut flows[k as usize];
            f.ccti -= 1;
            f.ccti > min
        });
        self.throttled.len()
    }

    /// Current CCTI of a flow (CCTI_Min if never throttled).
    pub fn ccti(&self, key: FlowKey) -> u16 {
        match self.flows.get(key as usize) {
            Some(f) if f.tracked => f.ccti,
            _ => self.params.ccti_min,
        }
    }

    /// Earliest time the next packet of `key` may start.
    #[inline]
    pub fn next_allowed(&self, key: FlowKey) -> Time {
        self.flows
            .get(key as usize)
            .map(|f| f.next_allowed)
            .unwrap_or(Time::ZERO)
    }

    /// Record that a packet of `key` finished serialising at `tx_end`
    /// after occupying the line for `pkt_time`; computes and stores the
    /// IRD gate for the flow's next packet.
    pub fn note_packet_sent(&mut self, key: FlowKey, tx_end: Time, pkt_time: TimeDelta) {
        let ccti = self.ccti(key);
        if ccti == 0 {
            // No IRD; avoid creating state for unthrottled flows.
            if let Some(f) = self.flows.get_mut(key as usize) {
                if f.tracked {
                    f.next_allowed = tx_end;
                }
            }
            return;
        }
        let delay = self.params.cct.ird_delay(ccti, pkt_time);
        let f = self.slot_mut(key);
        f.tracked = true;
        f.next_allowed = tx_end + delay;
    }

    /// Number of flows currently above CCTI_Min.
    pub fn throttled_flows(&self) -> usize {
        self.throttled.len()
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
    /// inconsistency as a structured message.
    pub fn audit(&self) -> Result<(), String> {
        let p = &self.params;
        for (key, f) in self.flows.iter().enumerate() {
            if f.ccti > p.ccti_limit {
                return Err(format!(
                    "flow {key}: CCTI {} above CCTI_Limit {}",
                    f.ccti, p.ccti_limit
                ));
            }
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

    /// Sum of all tracked flows' CCTIs — divided by
    /// [`HcaCc::tracked_flows`] it gives the mean brake depth, the CCTI
    /// gauge a telemetry sampler records per node.
    pub fn sum_ccti(&self) -> u64 {
        self.flows.iter().map(|f| f.ccti as u64).sum()
    }

    /// Flows that have ever received a BECN (the dense table's extent).
    pub fn tracked_flows(&self) -> usize {
        self.flows.len()
    }

    /// The CCT inter-packet-delay multiplier at the current worst CCTI:
    /// how many packet-times the most-throttled flow waits between
    /// packets (the IRD gauge; 0 = unthrottled).
    pub fn ird_multiplier(&self) -> u32 {
        self.params.cct.multiplier(self.max_ccti())
    }

    /// Complete serialisable image of this agent (checkpointing). The
    /// parameters are included because mid-run drift faults can leave an
    /// HCA on a different table than the network-wide configuration.
    pub fn state(&self) -> HcaCcState {
        HcaCcState {
            params: (*self.params).clone(),
            flows: self
                .flows
                .iter()
                .map(|f| FlowCcState {
                    ccti: f.ccti,
                    tracked: f.tracked,
                    next_allowed: f.next_allowed,
                })
                .collect(),
            throttled: self.throttled.len() as u64,
            becns_received: self.becns_received,
            ccti_raises: self.ccti_raises,
        }
    }

    /// Overwrite this agent with a previously captured [`HcaCcState`].
    /// The throttled flows are recollected from the restored table.
    pub fn restore_state(&mut self, s: &HcaCcState) {
        self.params = Arc::new(s.params.clone());
        self.flows = s
            .flows
            .iter()
            .map(|f| FlowCc {
                ccti: f.ccti,
                tracked: f.tracked,
                next_allowed: f.next_allowed,
            })
            .collect();
        self.collect_throttled();
        self.becns_received = s.becns_received;
        self.ccti_raises = s.ccti_raises;
    }
}

/// Serialisable image of one flow slot of [`HcaCc`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlowCcState {
    pub ccti: u16,
    pub tracked: bool,
    pub next_allowed: Time,
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

    /// The throttled-key list is rebuilt, not carried, across a re-tune
    /// and a checkpoint restore: both copies recover tick for tick with
    /// the original, and all three stay audit-clean.
    #[test]
    fn retuned_and_restored_agents_recover_like_the_original() {
        let mut c = HcaCc::with_flow_capacity(Arc::new(CcParams::paper_table1()), 64);
        for k in [3u32, 40, 3, 7, 3] {
            c.on_becn(k);
        }
        let mut restored = cc();
        restored.restore_state(&c.state());
        let mut retuned = c.clone();
        retuned.set_params(Arc::new(CcParams::paper_table1()));
        for _ in 0..4 {
            let left = c.on_timer();
            assert_eq!(restored.on_timer(), left);
            assert_eq!(retuned.on_timer(), left);
            for k in [3, 7, 40] {
                assert_eq!(restored.ccti(k), c.ccti(k));
                assert_eq!(retuned.ccti(k), c.ccti(k));
            }
            for a in [&c, &restored, &retuned] {
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
        c.on_becn(1); // 0 -> min(0+1,...) = 1? starts at default 0
                      // A BECN lifts it; timer may only come back down to ccti_min.
        c.on_becn(1);
        c.on_becn(1);
        assert_eq!(c.ccti(1), 3);
        c.on_timer();
        assert_eq!(c.ccti(1), 2);
        c.on_timer();
        assert_eq!(c.ccti(1), 2, "floored at CCTI_Min");
        // And an untouched flow reports CCTI_Min.
        assert_eq!(c.ccti(99), 2);
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
    fn set_params_clamps_existing_state_to_the_new_table() {
        let mut c = cc();
        for _ in 0..50 {
            c.on_becn(3);
        }
        c.on_becn(8);
        assert_eq!(c.ccti(3), 50);
        // Drift to a much tighter limit: flow 3 must come down to it.
        let mut p = CcParams::paper_table1();
        p.ccti_limit = 20;
        c.set_params(Arc::new(p));
        assert_eq!(c.ccti(3), 20);
        assert_eq!(c.ccti(8), 1, "in-range flows untouched");
        assert_eq!(c.throttled_flows(), 2);
        c.audit().unwrap();
        // Further BECNs respect the drifted increase and limit.
        let mut p2 = CcParams::paper_table1();
        p2.ccti_limit = 20;
        p2.ccti_increase = 7;
        c.set_params(Arc::new(p2));
        c.on_becn(8);
        assert_eq!(c.ccti(8), 8);
        c.audit().unwrap();
    }

    #[test]
    fn set_params_raised_min_lifts_tracked_flows() {
        let mut c = cc();
        c.on_becn(1); // tracked at CCTI 1
        let mut p = CcParams::paper_table1();
        p.ccti_min = 4;
        c.set_params(Arc::new(p));
        assert_eq!(c.ccti(1), 4, "tracked flow lifted to the new floor");
        assert_eq!(c.ccti(9), 4, "untouched flows report the new min");
        assert_eq!(c.throttled_flows(), 0, "at the floor is not throttled");
        c.audit().unwrap();
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
        assert_eq!(c.ird_multiplier(), 0, "unthrottled flows wait 0 packet-times");
        c.on_becn(3);
        c.on_becn(3);
        c.on_becn(7);
        let inc = c.params().ccti_increase as u64;
        assert_eq!(c.sum_ccti(), 3 * inc, "two raises on flow 3, one on flow 7");
        assert_eq!(c.tracked_flows(), 8, "dense table extends to the largest key");
        assert_eq!(
            c.ird_multiplier(),
            c.params().cct.multiplier(c.max_ccti()),
            "IRD gauge reads the CCT at the worst CCTI"
        );
        assert!(c.ird_multiplier() > 0, "a raised CCTI must throttle");
    }
}
