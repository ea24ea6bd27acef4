//! # ibsim-cc
//!
//! The InfiniBand congestion-control mechanism (IB Architecture
//! Specification release 1.2.1, Annex A10) as pure, network-agnostic
//! state machines — the role the `ccmgr` simple module plays in the
//! paper's OMNeT++ model.
//!
//! * [`params::CcParams`] — the full tunable set, with the paper's
//!   Table I values as [`params::CcParams::paper_table1`].
//! * [`cct::Cct`] — the Congestion Control Table mapping a flow's CCTI
//!   to an injection-rate-delay multiplier.
//! * [`switch_cc::PortVlCongestion`] — switch-side detection (threshold,
//!   root-vs-victim, Victim_Mask) and FECN marking (Marking_Rate,
//!   Packet_Size).
//! * [`hca_cc::HcaCc`] — CA-side source response (BECN handling, CCTI,
//!   IRD gating, CCTI_Timer recovery, QP- vs SL-level operation).
//!
//! The network crate (`ibsim-net`) drives these from its event loop; the
//! logic here is synchronous and fully unit-testable in isolation.

pub mod cct;
pub mod hca_cc;
pub mod params;
pub mod switch_cc;

pub use cct::{Cct, CctShape};
pub use hca_cc::{FlowCcState, FlowKey, FlowStateError, HcaCc, HcaCcState};
pub use params::{CcMode, CcParams};
pub use switch_cc::{PortVlCongestion, PortVlCongestionState};
