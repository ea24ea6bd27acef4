//! Property-based tests for the congestion-control state machines.

use ibsim_cc::{CcMode, CcParams, Cct, CctShape, HcaCc, PortVlCongestion};
use ibsim_engine::time::{Time, TimeDelta};
use proptest::prelude::*;
use std::sync::Arc;

proptest! {
    /// Linear CCTs are monotone for every step, and clamping holds.
    #[test]
    fn cct_linear_monotone(len in 1usize..300, step in 0u32..1000, idx: u16) {
        let t = Cct::populate(len, CctShape::Linear { step });
        prop_assert!(t.is_monotone());
        let m = t.multiplier(idx);
        prop_assert_eq!(m, (idx as usize).min(len - 1) as u32 * step);
    }

    /// Exponential CCTs are monotone and respect their cap.
    #[test]
    fn cct_exponential_monotone(len in 1usize..128, base in 1.0f64..3.0, max in 1u32..100_000) {
        let t = Cct::populate(len, CctShape::Exponential { base, max });
        prop_assert!(t.is_monotone());
        prop_assert!(t.entries().iter().all(|&e| e <= max));
    }

    /// IRD delay scales exactly linearly with the packet time.
    #[test]
    fn ird_scales_with_packet(ccti in 0u16..128, pkt_ns in 0u64..100_000) {
        let t = Cct::populate(128, CctShape::Linear { step: 1 });
        let one = t.ird_delay(ccti, TimeDelta::from_ns(pkt_ns));
        let two = t.ird_delay(ccti, TimeDelta::from_ns(pkt_ns) * 2);
        prop_assert_eq!(one * 2, two);
    }

    /// The CCTI stays within [ccti_min, ccti_limit] under any
    /// interleaving of BECNs and timer ticks, and the throttled-flow
    /// counter matches reality.
    #[test]
    fn ccti_bounded_under_any_schedule(
        increase in 1u16..8,
        limit in 1u16..127,
        min_ in 0u16..4,
        ops in prop::collection::vec((0u32..8, prop::bool::ANY), 1..300),
    ) {
        let min = min_.min(limit);
        let mut params = CcParams::paper_table1();
        params.ccti_increase = increase;
        params.ccti_limit = limit;
        params.ccti_min = min;
        prop_assert!(params.validate().is_ok());
        let mut cc = HcaCc::new(Arc::new(params));
        let mut keys = std::collections::HashSet::new();
        for (key, is_becn) in ops {
            if is_becn {
                cc.on_becn(key);
                keys.insert(key);
            } else {
                cc.on_timer();
            }
            for &k in &keys {
                let c = cc.ccti(k);
                prop_assert!(c <= limit, "ccti {c} > limit {limit}");
            }
            let actual_throttled = keys.iter().filter(|&&k| cc.ccti(k) > min).count();
            prop_assert_eq!(cc.throttled_flows(), actual_throttled);
        }
    }

    /// Enough timer ticks always fully recover every flow.
    #[test]
    fn timer_always_recovers(becns in prop::collection::vec(0u32..5, 1..100)) {
        let mut cc = HcaCc::new(Arc::new(CcParams::paper_table1()));
        for k in becns {
            cc.on_becn(k);
        }
        for _ in 0..128 {
            cc.on_timer();
        }
        prop_assert_eq!(cc.throttled_flows(), 0);
        prop_assert_eq!(cc.max_ccti(), 0);
    }

    /// Detector state is always consistent with its own queue counter,
    /// and the queue counter never underflows for balanced traffic.
    #[test]
    fn detector_queue_consistency(
        ops in prop::collection::vec((1u64..5000, prop::bool::ANY, prop::bool::ANY), 1..200)
    ) {
        let params = CcParams::paper_table1();
        let mut d = PortVlCongestion::new(&params, 64 * 1024, false);
        let mut fifo: std::collections::VecDeque<u64> = Default::default();
        for (bytes, enqueue, credits) in ops {
            if enqueue {
                d.on_enqueue(bytes, credits);
                fifo.push_back(bytes);
            } else if let Some(b) = fifo.pop_front() {
                d.on_dequeue(b, credits);
            }
            let expect: u64 = fifo.iter().sum();
            prop_assert_eq!(d.queued_bytes(), expect);
            // Below threshold we can never be in the congestion state.
            if expect < params.threshold_bytes(64 * 1024).unwrap() {
                prop_assert!(!d.in_congestion());
            }
        }
    }

    /// Marking decisions never fire outside the congestion state, and
    /// with Marking_Rate = r exactly one in (r+1) eligible packets is
    /// marked while saturated.
    #[test]
    fn marking_rate_exact(rate in 0u16..32, n in 1usize..200) {
        let mut params = CcParams::paper_table1();
        params.marking_rate = rate;
        let mut d = PortVlCongestion::new(&params, 1024, true);
        d.on_enqueue(1 << 20, false); // victim-masked: congested
        let marks = (0..n).filter(|_| d.mark_decision(2048, &params)).count();
        let period = rate as usize + 1;
        prop_assert_eq!(marks, n.div_ceil(period));
    }

    /// The threshold mapping is monotone in the weight for any capacity.
    #[test]
    fn threshold_monotone_in_weight(capacity in 16u64..10_000_000) {
        let mut params = CcParams::paper_table1();
        let mut last = u64::MAX;
        for w in 1..=15 {
            params.threshold = w;
            let th = params.threshold_bytes(capacity).unwrap();
            prop_assert!(th <= last);
            prop_assert!(th >= 1);
            last = th;
        }
    }

    /// CCT boundary indexing: index 0 reads the first entry, the last
    /// valid index reads the last entry, and anything beyond clamps to
    /// it instead of walking off the table.
    #[test]
    fn cct_boundary_indexing(len in 1usize..300, step in 1u32..50, over in 0u16..500) {
        let t = Cct::populate(len, CctShape::Linear { step });
        prop_assert_eq!(t.multiplier(0), 0);
        let last_idx = (len - 1) as u16;
        let last = (len - 1) as u32 * step;
        prop_assert_eq!(t.multiplier(last_idx), last);
        prop_assert_eq!(t.multiplier(last_idx + over), last);
    }

    /// Timer recovery floors at CCTI_Min: a fresh flow starts at the
    /// floor, so any BECN burst lifts it above, and each tick walks the
    /// index down by exactly one until the floor.
    #[test]
    fn timer_recovery_floors_at_ccti_min(
        min_ in 1u16..8,
        becns in 1u16..200,
        ticks in 0u16..200,
    ) {
        let mut params = CcParams::paper_table1();
        params.ccti_min = min_;
        prop_assert!(params.validate().is_ok());
        let (inc, limit) = (params.ccti_increase, params.ccti_limit);
        let mut cc = HcaCc::new(Arc::new(params));
        for _ in 0..becns {
            cc.on_becn(3);
        }
        for _ in 0..ticks {
            cc.on_timer();
        }
        let start = min_.saturating_add(becns.saturating_mul(inc)).min(limit);
        let expect = start.saturating_sub(ticks).max(min_);
        prop_assert_eq!(cc.ccti(3), expect);
        prop_assert!(cc.audit().is_ok());
    }

    /// `ccti_raises` counts exactly the BECNs that moved the index:
    /// once the limit is reached, BECNs keep arriving but raises stop.
    #[test]
    fn ccti_raises_count_only_movement(becns in 0u32..400) {
        let params = CcParams::paper_table1();
        let (inc, limit) = (params.ccti_increase, params.ccti_limit);
        let mut cc = HcaCc::new(Arc::new(params));
        for _ in 0..becns {
            cc.on_becn(0);
        }
        let moving = (limit as u32).div_ceil(inc as u32) as u64;
        prop_assert_eq!(cc.ccti_raises(), (becns as u64).min(moving));
        prop_assert_eq!(cc.becns_received(), becns as u64);
        prop_assert!(cc.audit().is_ok());
    }

    /// QP-keyed and SL-keyed CC are indistinguishable for a single
    /// flow: the key spaces differ, the per-flow state machine must
    /// not.
    #[test]
    fn qp_and_sl_modes_agree_on_a_single_flow(
        dst in 0u32..1000,
        sl_in in 0u8..16,
        ops in prop::collection::vec((prop::bool::ANY, 1u64..5000), 1..200),
    ) {
        let mut qp_params = CcParams::paper_table1();
        qp_params.mode = CcMode::QueuePair;
        let mut sl_params = CcParams::paper_table1();
        sl_params.mode = CcMode::ServiceLevel;
        let mut qp = HcaCc::new(Arc::new(qp_params));
        let mut sl = HcaCc::new(Arc::new(sl_params));
        let kq = qp.flow_key(dst, sl_in);
        let ks = sl.flow_key(dst, sl_in);
        let mut t = Time::from_ns(1);
        for (becn, pkt_ns) in ops {
            if becn {
                qp.on_becn(kq);
                sl.on_becn(ks);
            } else {
                qp.on_timer();
                sl.on_timer();
            }
            prop_assert_eq!(qp.ccti(kq), sl.ccti(ks));
            prop_assert_eq!(qp.throttled_flows(), sl.throttled_flows());
            let dt = TimeDelta::from_ns(pkt_ns);
            qp.note_packet_sent(kq, t + dt, dt);
            sl.note_packet_sent(ks, t + dt, dt);
            prop_assert_eq!(qp.next_allowed(kq), sl.next_allowed(ks));
            t += dt;
        }
        prop_assert_eq!(qp.becns_received(), sl.becns_received());
        prop_assert_eq!(qp.ccti_raises(), sl.ccti_raises());
        prop_assert!(qp.audit().is_ok());
        prop_assert!(sl.audit().is_ok());
    }

    /// next_allowed gates reflect the current CCTI at send time.
    #[test]
    fn gate_matches_ccti(becns in 0u16..200, pkt_ns in 1u64..10_000) {
        let params = CcParams::paper_table1();
        let limit = params.ccti_limit;
        let mut cc = HcaCc::new(Arc::new(params));
        for _ in 0..becns {
            cc.on_becn(1);
        }
        let expect_ccti = becns.min(limit);
        prop_assert_eq!(cc.ccti(1), expect_ccti);
        let t0 = Time::from_ns(1000);
        cc.note_packet_sent(1, t0, TimeDelta::from_ns(pkt_ns));
        let gate = cc.next_allowed(1);
        if expect_ccti == 0 {
            // Unthrottled flows keep no gate state; any gate at or
            // before the send time is behaviourally "no delay".
            prop_assert!(gate <= t0);
        } else {
            prop_assert_eq!(
                gate,
                t0 + TimeDelta::from_ns(pkt_ns).saturating_mul(expect_ccti as u64)
            );
        }
    }
}

// ---------------------------------------------------------------------------
// HcaCc against the dense table it replaced: one slot per key up to the
// largest ever touched, and a `tracked` flag that is never cleared. The
// held-flow table must be indistinguishable from it through every
// accessor the simulator reads.
// ---------------------------------------------------------------------------

use ibsim_cc::FlowCcState;

#[derive(Clone, Copy, Default)]
struct DenseFlow {
    ccti: u16,
    tracked: bool,
    next_allowed: Time,
}

struct DenseCc {
    params: Arc<CcParams>,
    flows: Vec<DenseFlow>,
    throttled: Vec<u32>,
    becns: u64,
    raises: u64,
}

impl DenseCc {
    fn new(params: Arc<CcParams>) -> Self {
        DenseCc {
            params,
            flows: Vec::new(),
            throttled: Vec::new(),
            becns: 0,
            raises: 0,
        }
    }

    fn slot(&mut self, key: u32) -> &mut DenseFlow {
        let i = key as usize;
        if i >= self.flows.len() {
            self.flows.resize(i + 1, DenseFlow::default());
        }
        &mut self.flows[i]
    }

    fn on_becn(&mut self, key: u32) {
        self.becns += 1;
        let (inc, limit, min) = (
            self.params.ccti_increase,
            self.params.ccti_limit,
            self.params.ccti_min,
        );
        let f = self.slot(key);
        if !f.tracked {
            // A fresh flow starts at CCTI_Min, where it read.
            (f.tracked, f.ccti) = (true, min);
        }
        let before = f.ccti;
        f.ccti = before.saturating_add(inc).min(limit);
        let after = f.ccti;
        self.raises += (after > before) as u64;
        if before <= min && after > min {
            self.throttled.push(key);
        }
    }

    fn on_timer(&mut self) -> usize {
        let (flows, min) = (&mut self.flows, self.params.ccti_min);
        self.throttled.retain(|&k| {
            let f = &mut flows[k as usize];
            f.ccti -= 1;
            f.ccti > min
        });
        self.throttled.len()
    }

    fn ccti(&self, key: u32) -> u16 {
        match self.flows.get(key as usize) {
            Some(f) if f.tracked => f.ccti,
            _ => self.params.ccti_min,
        }
    }

    fn next_allowed(&self, key: u32) -> Time {
        self.flows
            .get(key as usize)
            .map_or(Time::ZERO, |f| f.next_allowed)
    }

    fn note_packet_sent(&mut self, key: u32, tx_end: Time, pkt_time: TimeDelta) {
        let ccti = self.ccti(key);
        if ccti == 0 {
            if let Some(f) = self.flows.get_mut(key as usize).filter(|f| f.tracked) {
                f.next_allowed = tx_end;
            }
            return;
        }
        let delay = self.params.cct.ird_delay(ccti, pkt_time);
        let f = self.slot(key);
        (f.tracked, f.ccti) = (true, ccti);
        f.next_allowed = tx_end + delay;
    }

    fn audit(&self) -> Result<(), String> {
        let p = &self.params;
        if let Some((key, f)) = self
            .flows
            .iter()
            .enumerate()
            .find(|(_, f)| f.ccti > p.ccti_limit)
        {
            return Err(format!(
                "flow {key}: CCTI {} above CCTI_Limit {}",
                f.ccti, p.ccti_limit
            ));
        }
        let recount = self.flows.iter().filter(|f| f.ccti > p.ccti_min).count();
        if recount != self.throttled.len() {
            return Err(format!(
                "throttled-flow counter {} but recount {recount}",
                self.throttled.len()
            ));
        }
        if self.raises > self.becns {
            return Err(format!(
                "{} CCTI raises from only {} BECNs",
                self.raises, self.becns
            ));
        }
        Ok(())
    }

    fn state(&self) -> Vec<FlowCcState> {
        let image = |f: &DenseFlow| FlowCcState {
            ccti: f.ccti,
            tracked: f.tracked,
            next_allowed: f.next_allowed,
        };
        self.flows.iter().map(image).collect()
    }
}

#[derive(Clone, Debug)]
enum CcOp {
    Becn(u32),
    /// A recovery-timer expiry after `dt` ns.
    Timer(u64),
    /// Send a packet of `pkt` ns on `key` if its gate is open: the
    /// transmitter stays busy until the packet ends.
    Send(u32, u64),
    /// Idle time on the line, in ns.
    Wait(u64),
}

fn cc_op() -> impl Strategy<Value = CcOp> {
    // Keys past the 16-slot first allocation, so growth and deletion
    // wrap-around run; weighted 3:3:4:1 toward sends.
    (0u8..11, 0u32..40, 1u64..5000).prop_map(|(op, key, n)| match op {
        0..=2 => CcOp::Becn(key),
        3..=5 => CcOp::Timer(1 + n % 3000),
        6..=9 => CcOp::Send(key, 50 + n % 2000),
        _ => CcOp::Wait(n),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Through any schedule a simulator can produce — sends only while
    /// the line is free and the flow's gate open — the held-flow table
    /// and the dense one agree on every CCTI, gate decision and gauge,
    /// and their checkpoints differ only in flows whose gate has passed:
    /// let go at CCTI 0 (written untracked), or let go and braked again
    /// (written with no gate). With CCTI_Min above 0 nothing is let go
    /// and the checkpoints are identical.
    #[test]
    fn held_flow_table_matches_the_dense_table(
        min in 0u16..4,
        ops in prop::collection::vec(cc_op(), 1..300),
    ) {
        let mut params = CcParams::paper_table1();
        params.ccti_min = min;
        let params = Arc::new(params);
        let mut cc = HcaCc::new(params.clone());
        let mut dense = DenseCc::new(params);
        let mut now = Time::ZERO;
        for op in ops {
            match op {
                CcOp::Becn(k) => {
                    cc.on_becn(k);
                    dense.on_becn(k);
                }
                CcOp::Timer(dt) => {
                    now += TimeDelta::from_ns(dt);
                    prop_assert_eq!(cc.on_timer_at(now), dense.on_timer());
                }
                CcOp::Send(k, pkt) => {
                    if dense.next_allowed(k) <= now {
                        let pkt = TimeDelta::from_ns(pkt);
                        now += pkt;
                        cc.note_packet_sent(k, now, pkt);
                        dense.note_packet_sent(k, now, pkt);
                    }
                }
                CcOp::Wait(dt) => now += TimeDelta::from_ns(dt),
            }
            for k in 0..40 {
                prop_assert_eq!(cc.ccti(k), dense.ccti(k), "ccti of flow {}", k);
                prop_assert_eq!(cc.next_allowed(k) <= now, dense.next_allowed(k) <= now, "gate of flow {}", k);
            }
            prop_assert_eq!(cc.throttled_flows(), dense.throttled.len());
            prop_assert_eq!(cc.max_ccti(), dense.flows.iter().map(|f| f.ccti).max().unwrap_or(0));
            prop_assert_eq!(cc.sum_ccti(), dense.flows.iter().map(|f| f.ccti as u64).sum::<u64>());
            prop_assert_eq!(cc.tracked_flows(), dense.flows.len());
            prop_assert_eq!(cc.ccti_raises(), dense.raises);
            prop_assert_eq!(cc.becns_received(), dense.becns);
            prop_assert_eq!(cc.audit(), dense.audit());
            let (held, all) = (cc.state().flows, dense.state());
            for (k, (h, d)) in held.iter().zip(&all).enumerate() {
                if h == d {
                    continue;
                }
                prop_assert!(min == 0, "flow {}: {:?} != {:?} at CCTI_Min {}", k, h, d, min);
                let let_go = !h.tracked && d.ccti == 0 && *h == FlowCcState::UNTRACKED;
                let braked_again = h.tracked && h.ccti == d.ccti && h.next_allowed == Time::ZERO;
                prop_assert!(
                    (let_go || braked_again) && d.next_allowed <= now,
                    "flow {}: {:?} != {:?} at {:?}", k, h, d, now
                );
            }
        }
    }
}
