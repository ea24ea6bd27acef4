//! Pluggable congestion-control backends.
//!
//! The paper's mechanism — FECN marking at switches, BECN echo, CCT/CCTI
//! rate delay at sources — is one point in a design space. This module
//! makes the source-side response function *pluggable* behind one seam,
//! the closed dispatch enum [`SourceCc`]:
//!
//! * [`SourceCc::Ib`] wraps the existing [`HcaCc`] agent unchanged — a
//!   network built on it is byte-for-byte the pre-refactor simulator
//!   (pinned by `tests/backend_equivalence.rs` and every golden).
//! * [`SourceCc::Dcqcn`] implements the RoCEv2 response function from
//!   "Implementation of PFC and RCM for RoCEv2 Simulation in OMNeT++":
//!   CNP-driven multiplicative decrease with an EWMA congestion estimate
//!   `alpha`, and the DCQCN three-phase recovery (fast recovery /
//!   additive increase / hyper increase) driven by a timer and a byte
//!   counter. Marking reuses the same switch-side threshold detector
//!   ([`crate::switch_cc::PortVlCongestion`]); only the source response
//!   and the lossless-fallback layer (PFC pause frames, owned by the
//!   network crate) differ.
//!
//! Every backend fulfils one contract, written down as [`SourceCc`]'s
//! inherent methods: notifications arrive (BECN or CNP — one call either
//! way), a periodic timer drives recovery, and the injection hot path
//! asks when a flow's next packet may start. The network calls them
//! directly — a two-variant match, not a vtable — and a new backend is a
//! new variant plus one arm per method.
//!
//! All DCQCN arithmetic is integer (rates in parts-per-million of line
//! rate, `alpha` in ppm of 1), so the state machine is bit-deterministic
//! across checkpoint/restore and shard merges.

use crate::hca_cc::{FlowKey, HcaCc, HcaCcState};
use crate::params::{CcMode, CcParams};
use ibsim_engine::time::{Time, TimeDelta};
use serde::{Deserialize, Error, Serialize, Value};
use std::sync::Arc;

/// Which congestion-control backend a network runs. Selects the source
/// response function and (for [`CcBackend::Dcqcn`]) arms PFC pause
/// generation at switch ingress buffers; the switch-side threshold
/// detector and the notification packets are shared.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum CcBackend {
    /// IB CC (Annex A10): FECN/BECN, CCT/CCTI injection-rate delay.
    #[default]
    IbCc,
    /// RoCEv2: PFC pause frames for losslessness + DCQCN rate control.
    Dcqcn,
}

impl CcBackend {
    /// The flag spelling (`--cc-backend {ibcc,dcqcn}`) and checkpoint tag.
    pub fn name(self) -> &'static str {
        match self {
            CcBackend::IbCc => "ibcc",
            CcBackend::Dcqcn => "dcqcn",
        }
    }

    pub fn parse(s: &str) -> Option<CcBackend> {
        match s {
            "ibcc" | "ib" | "ibCC" => Some(CcBackend::IbCc),
            "dcqcn" | "rocev2" => Some(CcBackend::Dcqcn),
            _ => None,
        }
    }
}

/// Rate expressed in parts-per-million of line rate: `1_000_000` = the
/// full injection rate, the unit of every DCQCN rate variable.
pub const LINE_RATE_PPM: u32 = 1_000_000;

/// Tunables of the DCQCN/PFC backend. Rates are ppm of line rate;
/// buffer thresholds are 64-byte blocks of switch ingress occupancy.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
#[serde(default)]
pub struct DcqcnParams {
    /// Floor of the multiplicative decrease (RP min rate).
    pub min_rate_ppm: u32,
    /// Additive-increase step, added to the target rate per event.
    pub rate_ai_ppm: u32,
    /// Hyper-increase step, once both counters pass the threshold.
    pub rate_hai_ppm: u32,
    /// EWMA gain `g` as a right-shift: `g = 1 / 2^shift`.
    pub alpha_g_shift: u32,
    /// Increase events in fast recovery before additive increase (F).
    pub fast_recovery_rounds: u32,
    /// Byte-counter period: one increase event per this many bytes sent.
    pub byte_counter_bytes: u64,
    /// Generate CNPs at receivers of marked packets. Off, the rate
    /// machine never engages — the PFC-only degenerate mode the
    /// metamorphic suite compares against CC-off.
    pub cnp_enabled: bool,
    /// Ingress occupancy (blocks, per input port × priority) at or above
    /// which the switch sends XOFF upstream.
    pub pfc_xoff_blocks: u32,
    /// Occupancy at or below which a paused ingress sends XON. Must be
    /// strictly below the XOFF threshold.
    pub pfc_xon_blocks: u32,
}

impl Default for DcqcnParams {
    fn default() -> Self {
        DcqcnParams {
            min_rate_ppm: 10_000,
            rate_ai_ppm: 5_000,
            rate_hai_ppm: 50_000,
            alpha_g_shift: 4,
            fast_recovery_rounds: 5,
            byte_counter_bytes: 64 * 1024,
            cnp_enabled: true,
            pfc_xoff_blocks: 160,
            pfc_xon_blocks: 64,
        }
    }
}

impl DcqcnParams {
    pub fn validate(&self) -> Result<(), String> {
        if self.min_rate_ppm == 0 || self.min_rate_ppm > LINE_RATE_PPM {
            return Err(format!(
                "dcqcn min_rate_ppm {} outside (0, {LINE_RATE_PPM}]",
                self.min_rate_ppm
            ));
        }
        if self.rate_ai_ppm == 0 || self.rate_hai_ppm == 0 {
            return Err("dcqcn increase steps must be positive".into());
        }
        if !(1..=20).contains(&self.alpha_g_shift) {
            return Err(format!(
                "dcqcn alpha_g_shift {} outside [1, 20]",
                self.alpha_g_shift
            ));
        }
        if self.byte_counter_bytes == 0 {
            return Err("dcqcn byte_counter_bytes must be positive".into());
        }
        if self.pfc_xon_blocks >= self.pfc_xoff_blocks {
            return Err(format!(
                "dcqcn PFC XON threshold {} must be below XOFF {}",
                self.pfc_xon_blocks, self.pfc_xoff_blocks
            ));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// DCQCN source state machine
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, Debug)]
struct DcqcnFlow {
    /// Current sending rate (ppm of line rate).
    rate_ppm: u32,
    /// Recovery target (the rate before the last cut, raised by AI/HI).
    target_ppm: u32,
    /// EWMA congestion estimate, ppm of 1. Starts at 1 (a fresh flow's
    /// first cut halves it), decays toward 0 between CNPs.
    alpha_ppm: u32,
    /// Increase events since the last cut, timer- and byte-driven.
    timer_stage: u32,
    byte_stage: u32,
    /// Bytes sent since the last byte-counter event.
    bytes: u64,
    /// Touched by at least one CNP. Untracked flows take the fast path
    /// (no gate state), mirroring [`HcaCc`]'s map semantics.
    tracked: bool,
    next_allowed: Time,
}

impl Default for DcqcnFlow {
    fn default() -> Self {
        DcqcnFlow {
            rate_ppm: LINE_RATE_PPM,
            target_ppm: LINE_RATE_PPM,
            alpha_ppm: LINE_RATE_PPM,
            timer_stage: 0,
            byte_stage: 0,
            bytes: 0,
            tracked: false,
            next_allowed: Time::ZERO,
        }
    }
}

/// CA-side DCQCN agent for one HCA: the RoCEv2 reaction point. Holds
/// the shared [`CcParams`] for the flow keying mode and the recovery
/// timer period (so CC parameter-drift faults apply to both backends),
/// plus the DCQCN-specific tunables; also carries this HCA's per-VL
/// PFC transmit-pause flags, set by pause frames from the attached
/// switch port.
#[derive(Clone, Debug)]
pub struct DcqcnCc {
    params: Arc<CcParams>,
    dcqcn: DcqcnParams,
    flows: Vec<DcqcnFlow>,
    /// Per-VL transmit pause (true = an XOFF from the wire is in force).
    paused: Vec<bool>,
    cnps_received: u64,
    /// CNPs that actually cut a rate (a CNP against a flow already at
    /// the floor cuts nothing). Never exceeds `cnps_received`.
    rate_cuts: u64,
}

impl DcqcnCc {
    pub fn new(params: Arc<CcParams>, dcqcn: DcqcnParams, n_flows: usize, n_vls: usize) -> Self {
        let flows = Vec::with_capacity(n_flows);
        DcqcnCc {
            params,
            dcqcn,
            flows,
            paused: vec![false; n_vls],
            cnps_received: 0,
            rate_cuts: 0,
        }
    }

    pub fn params(&self) -> &CcParams {
        &self.params
    }

    pub fn dcqcn_params(&self) -> &DcqcnParams {
        &self.dcqcn
    }

    pub fn set_params(&mut self, params: Arc<CcParams>) {
        self.params = params;
    }

    #[inline]
    pub fn flow_key(&self, dst: u32, sl: u8) -> FlowKey {
        match self.params.mode {
            CcMode::QueuePair => dst,
            CcMode::ServiceLevel => sl as u32,
        }
    }

    #[inline]
    fn slot_mut(&mut self, key: FlowKey) -> &mut DcqcnFlow {
        let i = key as usize;
        if i >= self.flows.len() {
            self.flows.resize(i + 1, DcqcnFlow::default());
        }
        &mut self.flows[i]
    }

    /// One increase event (timer tick or byte-counter rollover): fast
    /// recovery toward the target for the first F events of both
    /// counters, additive increase once either passes F, hyper increase
    /// once both do.
    fn increase(f: &mut DcqcnFlow, p: &DcqcnParams) {
        let (st, sb, fr) = (f.timer_stage, f.byte_stage, p.fast_recovery_rounds);
        if st > fr && sb > fr {
            f.target_ppm = f
                .target_ppm
                .saturating_add(p.rate_hai_ppm)
                .min(LINE_RATE_PPM);
        } else if st > fr || sb > fr {
            f.target_ppm = f
                .target_ppm
                .saturating_add(p.rate_ai_ppm)
                .min(LINE_RATE_PPM);
        }
        // All three phases converge rate toward target by halving the
        // gap (from the target side, so integer division still closes
        // the final ppm).
        f.rate_ppm = f.target_ppm - (f.target_ppm - f.rate_ppm) / 2;
    }

    /// Handle a CNP for `key`: multiplicative decrease by `alpha/2`,
    /// raise `alpha` toward 1, restart both recovery counters.
    pub fn on_cnp(&mut self, key: FlowKey) {
        self.cnps_received += 1;
        let p = self.dcqcn;
        let f = self.slot_mut(key);
        f.tracked = true;
        f.target_ppm = f.rate_ppm;
        let cut = (f.rate_ppm as u64 * f.alpha_ppm as u64 / (2 * LINE_RATE_PPM as u64)) as u32;
        let before = f.rate_ppm;
        f.rate_ppm = f.rate_ppm.saturating_sub(cut).max(p.min_rate_ppm);
        let cut_landed = f.rate_ppm < before;
        f.alpha_ppm += (LINE_RATE_PPM - f.alpha_ppm) >> p.alpha_g_shift;
        f.timer_stage = 0;
        f.byte_stage = 0;
        f.bytes = 0;
        if cut_landed {
            self.rate_cuts += 1;
        }
    }

    /// Recovery-timer expiry: decay every tracked flow's `alpha` and run
    /// one timer-driven increase event. Returns flows still below line
    /// rate.
    pub fn on_timer(&mut self) -> usize {
        let p = self.dcqcn;
        let mut throttled = 0;
        for f in &mut self.flows {
            if !f.tracked {
                continue;
            }
            if f.alpha_ppm > 0 {
                f.alpha_ppm -= (f.alpha_ppm >> p.alpha_g_shift).max(1);
            }
            if f.rate_ppm < LINE_RATE_PPM {
                f.timer_stage += 1;
                Self::increase(f, &p);
            }
            if f.rate_ppm < LINE_RATE_PPM {
                throttled += 1;
            }
        }
        throttled
    }

    #[inline]
    pub fn next_allowed(&self, key: FlowKey) -> Time {
        self.flows
            .get(key as usize)
            .map(|f| f.next_allowed)
            .unwrap_or(Time::ZERO)
    }

    /// Record a completed transmission: advance the byte counter (which
    /// may fire increase events) and store the rate gate — a packet
    /// occupying the line for `pkt_time` at rate `r` reserves
    /// `pkt_time · (1 − r) / r` of extra quiet time after `tx_end`.
    pub fn note_packet_sent(
        &mut self,
        key: FlowKey,
        tx_end: Time,
        pkt_time: TimeDelta,
        bytes: u64,
    ) {
        let p = self.dcqcn;
        let Some(f) = self.flows.get_mut(key as usize) else {
            return;
        };
        if !f.tracked {
            return;
        }
        f.bytes += bytes;
        while f.bytes >= p.byte_counter_bytes {
            f.bytes -= p.byte_counter_bytes;
            f.byte_stage += 1;
            Self::increase(f, &p);
        }
        let extra_ps = pkt_time.as_ps() * (LINE_RATE_PPM - f.rate_ppm) as u64 / f.rate_ppm as u64;
        f.next_allowed = tx_end + TimeDelta(extra_ps);
    }

    /// Current rate of a flow, ppm of line rate (full rate if untracked).
    pub fn rate_ppm(&self, key: FlowKey) -> u32 {
        match self.flows.get(key as usize) {
            Some(f) if f.tracked => f.rate_ppm,
            _ => LINE_RATE_PPM,
        }
    }

    /// Lowest rate across flows (line rate when none is throttled).
    pub fn min_rate_ppm(&self) -> u32 {
        self.flows
            .iter()
            .filter(|f| f.tracked)
            .map(|f| f.rate_ppm)
            .min()
            .unwrap_or(LINE_RATE_PPM)
    }

    pub fn throttled_flows(&self) -> usize {
        self.flows
            .iter()
            .filter(|f| f.tracked && f.rate_ppm < LINE_RATE_PPM)
            .count()
    }

    pub fn cnps_received(&self) -> u64 {
        self.cnps_received
    }

    pub fn rate_cuts(&self) -> u64 {
        self.rate_cuts
    }

    pub fn tracked_flows(&self) -> usize {
        self.flows.len()
    }

    /// The brake depth of one flow on the CCTI-like 0..=127 gauge the
    /// reporting layer shares between backends: 0 = full rate, 127 = at
    /// a 1% floor. Purely observational.
    fn pseudo_ccti(rate_ppm: u32) -> u16 {
        ((LINE_RATE_PPM - rate_ppm) as u64 * 127 / (LINE_RATE_PPM - 10_000) as u64).min(127) as u16
    }

    pub fn max_pseudo_ccti(&self) -> u16 {
        Self::pseudo_ccti(self.min_rate_ppm())
    }

    /// One flow's brake depth on the shared 0..=127 gauge.
    pub fn pseudo_ccti_of(&self, key: FlowKey) -> u16 {
        Self::pseudo_ccti(self.rate_ppm(key))
    }

    /// Extra per-packet quiet time the flow's current rate imposes on a
    /// packet occupying the line for `pkt_time`. Purely observational.
    pub fn inject_delay(&self, key: FlowKey, pkt_time: TimeDelta) -> TimeDelta {
        let r = self.rate_ppm(key);
        if r >= LINE_RATE_PPM {
            return TimeDelta::ZERO;
        }
        TimeDelta(pkt_time.as_ps() * (LINE_RATE_PPM - r) as u64 / r as u64)
    }

    pub fn sum_pseudo_ccti(&self) -> u64 {
        self.flows
            .iter()
            .filter(|f| f.tracked)
            .map(|f| Self::pseudo_ccti(f.rate_ppm) as u64)
            .sum()
    }

    /// Extra quiet line-times the most-throttled flow inserts per packet
    /// (the IRD-multiplier gauge's DCQCN analogue).
    pub fn ird_multiplier(&self) -> u32 {
        let r = self.min_rate_ppm();
        (LINE_RATE_PPM - r) / r
    }

    // ---- PFC transmit pause ----------------------------------------------

    pub fn set_tx_paused(&mut self, vl: usize, on: bool) {
        self.paused[vl] = on;
    }

    #[inline]
    pub fn tx_paused(&self, vl: usize) -> bool {
        self.paused.get(vl).copied().unwrap_or(false)
    }

    pub fn audit(&self) -> Result<(), String> {
        let p = &self.dcqcn;
        for (key, f) in self.flows.iter().enumerate() {
            if !f.tracked {
                continue;
            }
            if f.rate_ppm < p.min_rate_ppm || f.rate_ppm > LINE_RATE_PPM {
                return Err(format!(
                    "flow {key}: rate {} ppm outside [{}, {LINE_RATE_PPM}]",
                    f.rate_ppm, p.min_rate_ppm
                ));
            }
            if f.target_ppm < f.rate_ppm || f.target_ppm > LINE_RATE_PPM {
                return Err(format!(
                    "flow {key}: target {} ppm outside [rate {}, {LINE_RATE_PPM}]",
                    f.target_ppm, f.rate_ppm
                ));
            }
            if f.alpha_ppm > LINE_RATE_PPM {
                return Err(format!("flow {key}: alpha {} ppm above 1", f.alpha_ppm));
            }
        }
        if self.rate_cuts > self.cnps_received {
            return Err(format!(
                "{} rate cuts from only {} CNPs",
                self.rate_cuts, self.cnps_received
            ));
        }
        Ok(())
    }

    pub fn state(&self) -> DcqcnCcState {
        DcqcnCcState {
            params: (*self.params).clone(),
            dcqcn: self.dcqcn,
            flows: self
                .flows
                .iter()
                .map(|f| DcqcnFlowState {
                    rate_ppm: f.rate_ppm,
                    target_ppm: f.target_ppm,
                    alpha_ppm: f.alpha_ppm,
                    timer_stage: f.timer_stage,
                    byte_stage: f.byte_stage,
                    bytes: f.bytes,
                    tracked: f.tracked,
                    next_allowed: f.next_allowed,
                })
                .collect(),
            paused: self.paused.clone(),
            cnps_received: self.cnps_received,
            rate_cuts: self.rate_cuts,
        }
    }

    pub fn restore_state(&mut self, s: &DcqcnCcState) {
        self.params = Arc::new(s.params.clone());
        self.dcqcn = s.dcqcn;
        self.flows = s
            .flows
            .iter()
            .map(|f| DcqcnFlow {
                rate_ppm: f.rate_ppm,
                target_ppm: f.target_ppm,
                alpha_ppm: f.alpha_ppm,
                timer_stage: f.timer_stage,
                byte_stage: f.byte_stage,
                bytes: f.bytes,
                tracked: f.tracked,
                next_allowed: f.next_allowed,
            })
            .collect();
        self.paused = s.paused.clone();
        self.cnps_received = s.cnps_received;
        self.rate_cuts = s.rate_cuts;
    }
}

/// Serialisable image of one DCQCN flow slot.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct DcqcnFlowState {
    pub rate_ppm: u32,
    pub target_ppm: u32,
    pub alpha_ppm: u32,
    pub timer_stage: u32,
    pub byte_stage: u32,
    pub bytes: u64,
    pub tracked: bool,
    pub next_allowed: Time,
}

/// Complete serialisable image of one HCA's DCQCN agent.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct DcqcnCcState {
    pub params: CcParams,
    pub dcqcn: DcqcnParams,
    pub flows: Vec<DcqcnFlowState>,
    pub paused: Vec<bool>,
    pub cnps_received: u64,
    pub rate_cuts: u64,
}

// ---------------------------------------------------------------------------
// The dispatch enum the network embeds
// ---------------------------------------------------------------------------

/// The source-side CC agent of one HCA, backend-dispatched. Inherent
/// methods mirror [`HcaCc`]'s API so the network's hot path is a plain
/// match on two variants; [`SourceCc::Ib`] delegates unchanged, which
/// is what keeps the IB backend byte-identical to the pre-trait engine.
#[derive(Clone, Debug)]
pub enum SourceCc {
    Ib(HcaCc),
    Dcqcn(DcqcnCc),
}

impl SourceCc {
    pub fn backend(&self) -> CcBackend {
        match self {
            SourceCc::Ib(_) => CcBackend::IbCc,
            SourceCc::Dcqcn(_) => CcBackend::Dcqcn,
        }
    }

    pub fn params(&self) -> &CcParams {
        match self {
            SourceCc::Ib(c) => c.params(),
            SourceCc::Dcqcn(c) => c.params(),
        }
    }

    pub fn set_params(&mut self, params: Arc<CcParams>) {
        match self {
            SourceCc::Ib(c) => c.set_params(params),
            SourceCc::Dcqcn(c) => c.set_params(params),
        }
    }

    #[inline]
    pub fn flow_key(&self, dst: u32, sl: u8) -> FlowKey {
        match self {
            SourceCc::Ib(c) => c.flow_key(dst, sl),
            SourceCc::Dcqcn(c) => c.flow_key(dst, sl),
        }
    }

    /// A congestion notification (BECN or CNP) for `key` arrived.
    pub fn on_becn(&mut self, key: FlowKey) {
        match self {
            SourceCc::Ib(c) => c.on_becn(key),
            SourceCc::Dcqcn(c) => c.on_cnp(key),
        }
    }

    /// Recovery-timer expiry at `now`; the number of flows still
    /// throttled.
    pub fn on_timer(&mut self, now: Time) -> usize {
        match self {
            SourceCc::Ib(c) => c.on_timer_at(now),
            SourceCc::Dcqcn(c) => c.on_timer(),
        }
    }

    #[inline]
    pub fn next_allowed(&self, key: FlowKey) -> Time {
        match self {
            SourceCc::Ib(c) => c.next_allowed(key),
            SourceCc::Dcqcn(c) => c.next_allowed(key),
        }
    }

    pub fn note_packet_sent(
        &mut self,
        key: FlowKey,
        tx_end: Time,
        pkt_time: TimeDelta,
        bytes: u64,
    ) {
        match self {
            SourceCc::Ib(c) => c.note_packet_sent(key, tx_end, pkt_time),
            SourceCc::Dcqcn(c) => c.note_packet_sent(key, tx_end, pkt_time, bytes),
        }
    }

    pub fn throttled_flows(&self) -> usize {
        match self {
            SourceCc::Ib(c) => c.throttled_flows(),
            SourceCc::Dcqcn(c) => c.throttled_flows(),
        }
    }

    /// Notifications processed (BECNs or CNPs, per backend).
    pub fn becns_received(&self) -> u64 {
        match self {
            SourceCc::Ib(c) => c.becns_received(),
            SourceCc::Dcqcn(c) => c.cnps_received(),
        }
    }

    /// Notifications that actually deepened the brake (CCTI raises /
    /// rate cuts). Never exceeds [`SourceCc::becns_received`].
    pub fn ccti_raises(&self) -> u64 {
        match self {
            SourceCc::Ib(c) => c.ccti_raises(),
            SourceCc::Dcqcn(c) => c.rate_cuts(),
        }
    }

    pub fn audit(&self) -> Result<(), String> {
        match self {
            SourceCc::Ib(c) => c.audit(),
            SourceCc::Dcqcn(c) => c.audit(),
        }
    }

    /// Worst brake depth on the shared 0..=127 gauge (true CCTI for IB,
    /// the rate-derived pseudo-CCTI for DCQCN).
    pub fn max_ccti(&self) -> u16 {
        match self {
            SourceCc::Ib(c) => c.max_ccti(),
            SourceCc::Dcqcn(c) => c.max_pseudo_ccti(),
        }
    }

    pub fn sum_ccti(&self) -> u64 {
        match self {
            SourceCc::Ib(c) => c.sum_ccti(),
            SourceCc::Dcqcn(c) => c.sum_pseudo_ccti(),
        }
    }

    /// One flow's brake depth on the shared 0..=127 gauge (true CCTI
    /// for IB, rate-derived pseudo-CCTI for DCQCN). Observational —
    /// the causal tracer differences this across a notification.
    pub fn flow_ccti(&self, key: FlowKey) -> u16 {
        match self {
            SourceCc::Ib(c) => c.ccti(key),
            SourceCc::Dcqcn(c) => c.pseudo_ccti_of(key),
        }
    }

    /// Extra per-packet quiet time the flow's current brake imposes on
    /// a packet occupying the line for `pkt_time` (IRD delay for IB,
    /// rate-gap quiet time for DCQCN). Zero when the flow is open.
    pub fn inject_delay(&self, key: FlowKey, pkt_time: TimeDelta) -> TimeDelta {
        match self {
            SourceCc::Ib(c) => c.params().cct.ird_delay(c.ccti(key), pkt_time),
            SourceCc::Dcqcn(c) => c.inject_delay(key, pkt_time),
        }
    }

    pub fn tracked_flows(&self) -> usize {
        match self {
            SourceCc::Ib(c) => c.tracked_flows(),
            SourceCc::Dcqcn(c) => c.tracked_flows(),
        }
    }

    pub fn ird_multiplier(&self) -> u32 {
        match self {
            SourceCc::Ib(c) => c.ird_multiplier(),
            SourceCc::Dcqcn(c) => c.ird_multiplier(),
        }
    }

    /// Does the receive side answer marked packets with CNPs? Always on
    /// for IB CC (the FECN→BECN echo is the mechanism); configurable
    /// for DCQCN (`cnp_enabled`).
    pub fn cnp_on(&self) -> bool {
        match self {
            SourceCc::Ib(_) => true,
            SourceCc::Dcqcn(c) => c.dcqcn_params().cnp_enabled,
        }
    }

    /// Is this HCA's transmit path PFC-paused on `vl`? Always false for
    /// IB CC (losslessness comes from credits alone).
    #[inline]
    pub fn tx_paused(&self, vl: usize) -> bool {
        match self {
            SourceCc::Ib(_) => false,
            SourceCc::Dcqcn(c) => c.tx_paused(vl),
        }
    }

    /// Apply a pause frame from the wire. A pause frame reaching an IB
    /// CC source is a protocol error — the IB backend never emits them.
    pub fn set_tx_paused(&mut self, vl: usize, on: bool) {
        match self {
            SourceCc::Ib(_) => panic!("PFC pause frame delivered to an IB CC source"),
            SourceCc::Dcqcn(c) => c.set_tx_paused(vl, on),
        }
    }

    pub fn state(&self) -> SourceCcState {
        match self {
            SourceCc::Ib(c) => SourceCcState::Ib(c.state()),
            SourceCc::Dcqcn(c) => SourceCcState::Dcqcn(c.state()),
        }
    }

    /// Overwrite from a captured state. Fails when the captured backend
    /// is not the live one — a checkpoint crossing `--cc-backend` values
    /// must be refused, not reinterpreted.
    pub fn restore_state(&mut self, s: &SourceCcState) -> Result<(), String> {
        match (self, s) {
            (SourceCc::Ib(c), SourceCcState::Ib(st)) => {
                c.restore_state(st).map_err(|e| e.to_string())
            }
            (SourceCc::Dcqcn(c), SourceCcState::Dcqcn(st)) => {
                c.restore_state(st);
                Ok(())
            }
            (live, got) => Err(format!(
                "cc state backend mismatch: checkpoint holds {}, live HCA runs {}",
                match got {
                    SourceCcState::Ib(_) => "ibcc",
                    SourceCcState::Dcqcn(_) => "dcqcn",
                },
                live.backend().name()
            )),
        }
    }
}

/// Serialisable image of a [`SourceCc`]. The IB variant serialises as a
/// bare [`HcaCcState`] object — exactly the pre-backend schema, so
/// every committed golden checkpoint decodes (and re-encodes)
/// unchanged; the DCQCN variant nests under a `"dcqcn"` key, which the
/// IB schema never uses.
#[derive(Clone, Debug, PartialEq)]
pub enum SourceCcState {
    Ib(HcaCcState),
    Dcqcn(DcqcnCcState),
}

impl Serialize for SourceCcState {
    fn to_value(&self) -> Value {
        match self {
            SourceCcState::Ib(s) => s.to_value(),
            SourceCcState::Dcqcn(s) => Value::Object(vec![("dcqcn".to_string(), s.to_value())]),
        }
    }
}

impl Deserialize for SourceCcState {
    fn from_value(v: &Value) -> Result<Self, Error> {
        if let Some(inner) = v.get("dcqcn") {
            return Ok(SourceCcState::Dcqcn(DcqcnCcState::from_value(inner)?));
        }
        Ok(SourceCcState::Ib(HcaCcState::from_value(v)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dc() -> DcqcnCc {
        DcqcnCc::new(
            Arc::new(CcParams::paper_table1()),
            DcqcnParams::default(),
            8,
            2,
        )
    }

    #[test]
    fn first_cnp_halves_the_rate() {
        let mut c = dc();
        c.on_cnp(3);
        assert_eq!(c.rate_ppm(3), LINE_RATE_PPM / 2, "alpha starts at 1");
        assert_eq!(c.cnps_received(), 1);
        assert_eq!(c.rate_cuts(), 1);
        assert_eq!(c.throttled_flows(), 1);
        c.audit().unwrap();
    }

    #[test]
    fn rate_floors_at_min_rate() {
        let mut c = dc();
        for _ in 0..200 {
            c.on_cnp(1);
        }
        assert_eq!(c.rate_ppm(1), c.dcqcn_params().min_rate_ppm);
        assert!(c.rate_cuts() < c.cnps_received());
        c.audit().unwrap();
    }

    #[test]
    fn timer_recovers_toward_line_rate() {
        let mut c = dc();
        c.on_cnp(1);
        let mut last = c.rate_ppm(1);
        for _ in 0..200 {
            c.on_timer();
            let r = c.rate_ppm(1);
            assert!(r >= last, "recovery is monotone between CNPs");
            last = r;
            c.audit().unwrap();
        }
        assert_eq!(last, LINE_RATE_PPM, "full recovery");
        assert_eq!(c.on_timer(), 0, "recovered flows leave the timer idle");
    }

    #[test]
    fn byte_counter_fires_increase_events() {
        let mut c = dc();
        c.on_cnp(1);
        let r0 = c.rate_ppm(1);
        let b = c.dcqcn_params().byte_counter_bytes;
        c.note_packet_sent(1, Time::from_ns(1000), TimeDelta::from_ns(800), b + 1);
        assert!(
            c.rate_ppm(1) > r0,
            "a byte-counter rollover raises the rate"
        );
        c.audit().unwrap();
    }

    #[test]
    fn gate_scales_with_rate() {
        let mut c = dc();
        let pkt = TimeDelta::from_ns(800);
        // Untracked: no state, no gate.
        c.note_packet_sent(5, Time::from_ns(1000), pkt, 4096);
        assert_eq!(c.next_allowed(5), Time::ZERO);
        c.on_cnp(5); // rate = 1/2 → one extra packet-time of quiet.
        c.note_packet_sent(5, Time::from_ns(1000), pkt, 64);
        assert_eq!(c.next_allowed(5), Time::from_ns(1800));
    }

    #[test]
    fn untracked_flows_report_full_rate() {
        let c = dc();
        assert_eq!(c.rate_ppm(7), LINE_RATE_PPM);
        assert_eq!(c.min_rate_ppm(), LINE_RATE_PPM);
        assert_eq!(c.max_pseudo_ccti(), 0);
        assert_eq!(c.ird_multiplier(), 0);
    }

    #[test]
    fn pause_flags_per_vl() {
        let mut c = dc();
        assert!(!c.tx_paused(1));
        c.set_tx_paused(1, true);
        assert!(c.tx_paused(1));
        assert!(!c.tx_paused(0));
        c.set_tx_paused(1, false);
        assert!(!c.tx_paused(1));
    }

    #[test]
    fn state_roundtrip_is_exact() {
        let mut c = dc();
        for k in [1u32, 3, 1, 5] {
            c.on_cnp(k);
        }
        c.on_timer();
        c.note_packet_sent(3, Time::from_ns(5000), TimeDelta::from_ns(800), 2048);
        c.set_tx_paused(0, true);
        let s = c.state();
        let mut c2 = dc();
        c2.restore_state(&s);
        assert_eq!(c2.state(), s);
        assert_eq!(c2.rate_ppm(3), c.rate_ppm(3));
        assert!(c2.tx_paused(0));
    }

    #[test]
    fn source_state_serde_discriminates_on_the_dcqcn_key() {
        let ib = SourceCc::Ib(HcaCc::new(Arc::new(CcParams::paper_table1())));
        let v = ib.state().to_value();
        assert!(v.get("dcqcn").is_none(), "IB schema must stay bare");
        assert!(v.get("params").is_some());
        let back = SourceCcState::from_value(&v).unwrap();
        assert_eq!(back, ib.state());

        let mut d = dc();
        d.on_cnp(2);
        let v = SourceCcState::Dcqcn(d.state()).to_value();
        assert!(v.get("dcqcn").is_some());
        let back = SourceCcState::from_value(&v).unwrap();
        assert_eq!(back, SourceCcState::Dcqcn(d.state()));
    }

    #[test]
    fn restore_refuses_a_backend_mismatch() {
        let mut ib = SourceCc::Ib(HcaCc::new(Arc::new(CcParams::paper_table1())));
        let d_state = SourceCcState::Dcqcn(dc().state());
        let err = ib.restore_state(&d_state).unwrap_err();
        assert!(err.contains("dcqcn") && err.contains("ibcc"), "{err}");
    }

    #[test]
    fn source_cc_drives_either_backend() {
        let mut agents = [
            SourceCc::Ib(HcaCc::new(Arc::new(CcParams::paper_table1()))),
            SourceCc::Dcqcn(dc()),
        ];
        for a in &mut agents {
            a.on_becn(1);
            a.on_becn(1);
            a.on_timer(Time::ZERO);
            a.note_packet_sent(1, Time::from_ns(1000), TimeDelta::from_ns(800), 2048);
            assert!(a.throttled_flows() >= 1);
            assert_eq!(a.becns_received(), 2);
            assert!(a.next_allowed(1) > Time::from_ns(1000), "both gates engage");
            a.audit().unwrap();
        }
    }

    #[test]
    fn params_validate_rejects_inverted_pfc_thresholds() {
        let mut p = DcqcnParams::default();
        assert!(p.validate().is_ok());
        p.pfc_xon_blocks = p.pfc_xoff_blocks;
        assert!(p.validate().is_err());
    }

    #[test]
    fn backend_names_roundtrip() {
        for b in [CcBackend::IbCc, CcBackend::Dcqcn] {
            assert_eq!(CcBackend::parse(b.name()), Some(b));
        }
        assert_eq!(CcBackend::default(), CcBackend::IbCc);
        assert!(CcBackend::parse("tcp").is_none());
    }
}
