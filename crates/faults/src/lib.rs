//! # ibsim-faults
//!
//! Deterministic fault injection for the simulated fabric. The paper
//! assumes a perfectly behaved network: every link runs at rate, every
//! BECN arrives, every CA keeps the parameters it booted with. Real
//! fabrics do none of that — links degrade and flap, the unacked
//! datagrams carrying congestion notifications get lost, firmware
//! mis-tunes CC parameters, and end nodes stall. This crate turns those
//! misbehaviours into *scheduled, seeded, reproducible* events so the
//! simulator can answer the question the paper leaves open: does the
//! CC mechanism degrade gracefully when its control loop is damaged?
//!
//! Four fault families, all grounded in the IB model:
//!
//! * **link flap / degradation** ([`FaultDecl::Flap`]) — an effective
//!   rate drop (or full stall) on a cable for a window, implemented by
//!   the network as *credit-return throttling* so losslessness is
//!   preserved exactly;
//! * **BECN loss** ([`FaultDecl::BecnLoss`]) — CNPs (unacked datagrams
//!   in the spec) are dropped on delivery with a per-link probability
//!   or a deterministic 1-in-N pattern, so sources keep injecting into
//!   a marked hotspot;
//! * **CC parameter drift** ([`FaultDecl::Drift`]) — a CA's
//!   `CCTI_Timer` / `CCTI_Increase` are re-tuned mid-run, modelling
//!   firmware misconfiguration;
//! * **node pause** ([`FaultDecl::Pause`]) — an HCA stops sinking for a
//!   window, creating an instant endpoint congestion tree.
//!
//! The pipeline: a spec string (see [`spec`]) parses into
//! [`FaultDecl`]s, [`schedule::FaultSchedule::compile`] turns them into
//! absolute-time `(time, seq)`-ordered [`schedule::TimedFault`]s which
//! the network puts on its event queue, and
//! [`schedule::FaultState`] is the runtime state machine the network
//! consults on its hot paths (one `Option` branch when no faults are
//! installed). [`metrics`] computes per-fault recovery metrics
//! (time-to-recover, victim floor, CCTI decay) from a sampled
//! throughput timeline.
//!
//! Everything is deterministic: probabilistic drops draw from an
//! [`ibsim_engine::Rng`] stream derived from the scenario seed, so the
//! same seed plus the same schedule replays identically — and an empty
//! schedule is byte-identical to no schedule at all.

pub mod metrics;
pub mod schedule;
pub mod spec;

pub use metrics::{RecoveryMetrics, Sample};
pub use schedule::{
    AppliedEffect, FaultAction, FaultRuntimeState, FaultSchedule, FaultState, FaultStats,
    TimedFault,
};
pub use spec::{parse_spec, FaultDecl, LinkSel};
