//! # ibsim — an InfiniBand congestion-control simulation suite
//!
//! A from-scratch Rust reproduction of the simulation infrastructure
//! and experiments of *"Exploring the Scope of the InfiniBand
//! Congestion Control Mechanism"* (Gran, Reinemo, Lysne, Skeie, Zahavi,
//! Shainer — IPDPS 2012).
//!
//! The stack, bottom to top:
//!
//! | crate | role |
//! |---|---|
//! | [`ibsim_engine`] | deterministic discrete-event kernel: time, event queue, rng, stats |
//! | [`ibsim_cc`] | the IB CC mechanism (spec 1.2.1 Annex A10) as pure state machines |
//! | [`ibsim_topo`] | fat trees (incl. the 648-node Sun DCS 648), meshes/tori, LFT routing |
//! | [`ibsim_net`] | lossless network model: credits, VoQ switches, HCAs, the FECN/BECN loop |
//! | [`ibsim_traffic`] | the paper's workloads: V/C/B roles, hotspot forests, moving hotspots |
//! | `ibsim` (this crate) | experiment runners, presets, parallel sweeps, reporting, and the `ibsim` binary's subcommands ([`cli`]) |
//!
//! ## Quickstart
//!
//! ```
//! use ibsim::prelude::*;
//!
//! // An 8-node fat tree with one hotspot: the smallest congestion tree.
//! let topo = FatTreeSpec::TEST_8.build();
//! let roles = RoleSpec::silent(8, 1);
//! let pair = run_cc_pair(
//!     &topo,
//!     &NetConfig::paper(),
//!     roles,
//!     RunDurations::new_ms(1, 2),
//!     None,
//! );
//! // Enabling congestion control never hurts total throughput here.
//! assert!(pair.improvement() > 0.9);
//! ```

pub mod bisect;
pub mod checkpoint;
pub mod cli;
pub mod experiment;
pub mod figures;
pub mod options;
pub mod preset;
pub mod replicas;
pub mod report;
pub mod spec;
pub mod sweep;
pub mod workload;

pub use bisect::{bisect_divergence, perturb_cc, Divergence};
pub use experiment::{
    run_cc_pair, run_scenario, run_scenario_opts, CcComparison, RunDurations, ScenarioResult,
};
pub use figures::{FigureRow, FigureSeries};
pub use options::{FlowSpec, OptionsError, RunArtifacts, RunOptions};
pub use preset::Preset;
pub use replicas::{run_scenario_replicated, Estimate, ReplicatedResult};
pub use sweep::{parallel_map, parallel_map_progress};
pub use workload::{run_workload, WorkloadResult};

/// One-stop imports for examples and binaries.
pub mod prelude {
    pub use crate::experiment::{
        run_cc_pair, run_scenario, run_scenario_opts, CcComparison, RunDurations, ScenarioResult,
    };
    pub use crate::figures::{FigureRow, FigureSeries};
    pub use crate::options::{FlowSpec, OptionsError, RunArtifacts, RunOptions};
    pub use crate::preset::Preset;
    pub use crate::replicas::{run_scenario_replicated, Estimate, ReplicatedResult};
    pub use crate::report::{ascii_plot, ascii_table, write_csv, write_json, PlotSeries};
    pub use crate::sweep::{parallel_map, parallel_map_progress};
    pub use crate::workload::{run_workload, WorkloadResult};
    pub use ibsim_cc::{CcMode, CcParams, Cct, CctShape};
    pub use ibsim_engine::time::{Bandwidth, Time, TimeDelta};
    pub use ibsim_net::{DestPattern, NetConfig, Network, TrafficClass, PAPER_MSG_BYTES};
    pub use ibsim_topo::{single_switch, FatTree3Spec, FatTreeSpec, Topology, TorusSpec};
    pub use ibsim_traffic::{
        CollectiveAlgo, NodeRole, RoleAssignment, RoleSpec, Scenario, TraceGenSpec, TracePattern,
        TraceReader, TraceWriter, WorkloadKind, WorkloadSpec,
    };
}
