//! # ibsim-net
//!
//! The lossless InfiniBand network model: the role of the compound
//! OMNeT++ modules (`HCA`, `Switch`, `SwitchPort` with their `ibuf`,
//! `obuf`, `vlarb`, `gen`, `sink`, `ccmgr` simple modules) in the
//! paper's simulator.
//!
//! * packet-granular discrete-event model with **virtual cut-through**
//!   timing and **credit-based link-level flow control** in 64-byte
//!   blocks — the network never drops a packet;
//! * switches with per-input virtual output queueing and round-robin
//!   output arbitration over (input, VL) pairs;
//! * HCAs with independent per-class injection budgets (the paper's
//!   Frame I semantics), injection-rate shaping (the 13.5 Gbit/s PCIe
//!   cap), a rate-limited sink (13.6 Gbit/s) and CNP generation;
//! * the full FECN → BECN → IRD congestion-control loop, wired to
//!   `ibsim-cc`.
//!
//! Build a [`network::Network`] from an `ibsim-topo` topology plus a
//! [`config::NetConfig`], install [`gen::TrafficClass`]es, and run.

pub mod audit;
pub mod config;
pub mod gen;
pub mod hca;
pub mod network;
pub mod pool;
pub mod profile;
pub(crate) mod shard;
pub mod span;
pub mod state;
pub mod switch;
pub mod telemetry;
pub mod trace;
pub mod types;
pub mod vlarb;

pub use audit::{AuditReport, LedgerKind, NetAudit, NetAuditState, Violation};
pub use config::NetConfig;
pub use gen::{ClassState, DestPattern, Script, ScriptSend, TrafficClass, PAPER_MSG_BYTES};
pub use hca::{Hca, HcaState};
pub use network::{Dev, Ev, Event, Network};
pub use pool::{PacketPool, PktHandle};
pub use profile::{EngineProfiler, ProfileReport, Subsystem};
pub use span::{causal_chains, chrome_trace_json, records_csv, CausalChain};
pub use state::{EventState, NetworkState};
pub use switch::{SwPortState, Switch, SwitchState};
pub use telemetry::{
    FlightDump, FlightEvent, FlightKind, NetTelemetry, NetTelemetryState, SampleTable,
    TelemetryConfig,
};
pub use trace::{TraceCtx, TracePoint, TraceRecord, TraceRecords, Tracer};
pub use types::{blocks_for, NodeId, Packet, PacketKind, Vl, BLOCK_BYTES, CNP_BYTES};
pub use vlarb::{VlArbState, VlArbTable, VlArbiter, VlWeight};
