//! Naming, saving and loading the checkpoint files of experiment runs.
//!
//! *Whether* a run checkpoints or resumes is decided by its
//! [`RunOptions`] (`checkpoint_at`, `checkpoint_dir`, `resume_from`)
//! and *when* by the run driver; this module names, moves and restores
//! the files.
//!
//! One file per run: the name encodes the topology digest (switch /
//! HCA / channel counts, VLs, seed, CC on/off) *and* a workload label
//! (role split, durations, hotspot lifetime, fault count), because a
//! single binary runs many scenarios over the same fabric and seed.
//! Runs with no matching file start from scratch, so a multi-run binary
//! (Table II's four cells, a CC pair) resumes exactly the cells that
//! were checkpointed. Resuming against a file whose header digest
//! disagrees with the live fabric fails loudly, naming the first
//! mismatching field — the format- and topology-validation layer lives
//! in `ibsim-state`.

use ibsim_engine::time::{Time, TimeDelta};
use ibsim_net::{FaultSchedule, Network, NetworkState};
use ibsim_state::{CheckpointHeader, TopoDigest};
use ibsim_traffic::RoleSpec;
use serde::Deserialize;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use crate::experiment::RunDurations;
use crate::options::RunOptions;

/// The live fabric's identity, embedded in every checkpoint header and
/// re-validated on resume.
pub fn digest(net: &Network) -> TopoDigest {
    TopoDigest {
        switches: net.switches.len() as u64,
        hcas: net.hcas.len() as u64,
        channels: net.channels.len() as u64,
        n_vls: net.cfg.n_vls as u64,
        seed: net.cfg.seed,
        cc: net.cc_enabled(),
        backend: net.cc_backend().name().to_string(),
    }
}

/// The workload half of a run's checkpoint file name: everything that
/// distinguishes two runs sharing a fabric and seed.
pub fn run_label(
    roles: &RoleSpec,
    dur: &RunDurations,
    hotspot_lifetime: Option<TimeDelta>,
    contributors_active: bool,
    faults: Option<&FaultSchedule>,
) -> String {
    format!(
        "r{}-{}-{}-{}-{}_w{}m{}_l{}_a{}_f{}",
        roles.num_nodes,
        roles.num_hotspots,
        roles.b_pct,
        roles.b_p,
        roles.c_pct_of_rest,
        dur.warmup.as_ps(),
        dur.measure.as_ps(),
        hotspot_lifetime.map_or(0, |l| l.as_ps()),
        contributors_active as u8,
        faults.map_or(0, |f| f.faults().len()),
    )
}

/// The checkpoint label of a production-workload run: the canonical
/// `--workload` string (sanitized for file names) plus the durations.
pub fn workload_label(spec: &ibsim_traffic::WorkloadSpec, dur: &RunDurations) -> String {
    let s: String = spec
        .to_string()
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
        .collect();
    format!("wl-{}_w{}m{}", s, dur.warmup.as_ps(), dur.measure.as_ps())
}

/// Deterministic checkpoint file name for one run. The backend tag is
/// only spliced in for non-default backends, so every ibcc checkpoint
/// keeps its pre-backend-refactor name.
pub fn file_name(d: &TopoDigest, label: &str) -> String {
    let backend = if d.backend == ibsim_state::BACKEND_IBCC {
        String::new()
    } else {
        format!("_{}", d.backend)
    };
    format!(
        "ckpt_s{}h{}c{}v{}_seed{:x}_cc{}{}_{}.json",
        d.switches, d.hcas, d.channels, d.n_vls, d.seed, d.cc as u8, backend, label
    )
}

/// Save a checkpoint of `net` into `dir`, returning the path.
/// Panics on I/O failure: a silently missing checkpoint would turn a
/// later resume into a silent from-scratch rerun.
pub fn save_in(dir: &Path, net: &Network, label: &str) -> PathBuf {
    let d = digest(net);
    std::fs::create_dir_all(dir)
        .unwrap_or_else(|e| panic!("checkpoint: cannot create {}: {e}", dir.display()));
    let path = dir.join(file_name(&d, label));
    let header = CheckpointHeader::new(net.now().as_ps(), net.events_processed(), d);
    ibsim_state::save(&path, &header, &net.checkpoint())
        .unwrap_or_else(|e| panic!("checkpoint: {e}"));
    eprintln!(
        "checkpoint: saved {} at t={:.1} us ({} events)",
        path.display(),
        net.now().as_us_f64(),
        net.events_processed()
    );
    path
}

/// Look for this run's checkpoint in `dir`. Returns the saved clock
/// and decoded state, or `None` when no matching file exists. A file
/// that exists but fails format, topology or payload validation panics
/// with the structured `ibsim-state` error — resuming from the wrong
/// checkpoint must never degrade into a silent cold start.
pub fn load_from(dir: &Path, net: &Network, label: &str) -> Option<(Time, NetworkState)> {
    let d = digest(net);
    let path = dir.join(file_name(&d, label));
    if !path.exists() {
        return None;
    }
    let (header, state) = ibsim_state::load(&path)
        .unwrap_or_else(|e| panic!("resume {}: {e}", path.display()));
    header
        .validate_topo(&d)
        .unwrap_or_else(|e| panic!("resume {}: {e}", path.display()));
    let state = NetworkState::from_value(&state)
        .unwrap_or_else(|e| panic!("resume {}: corrupt state: {e}", path.display()));
    eprintln!(
        "checkpoint: resuming {} from t={:.1} us ({} events)",
        path.display(),
        Time(header.at_ps).as_us_f64(),
        header.events_processed
    );
    Some((Time(header.at_ps), state))
}

impl RunOptions {
    /// Restore the run `label` names when `resume_from` holds its
    /// checkpoint, returning the saved clock. `replay` runs first, on
    /// the fresh fabric: configuration the capture does not carry
    /// (hotspot retargets) is re-applied there, before the restore.
    pub(crate) fn resume(
        &self,
        net: &mut Network,
        label: &str,
        replay: impl FnOnce(&mut Network, Time),
    ) -> Option<Time> {
        let (at, state) = load_from(self.resume_from.as_deref()?, net, label)?;
        replay(net, at);
        net.restore(&state)
            .unwrap_or_else(|e| panic!("checkpoint restore failed: {e}"));
        Some(at)
    }
}

// ---------------------------------------------------------------------
// Compat block: the four functions `benchmark/README.md` lists as its
// contract. No runner reads these two statics — runs are configured by
// `RunOptions` — and the block goes when a benchmark-only change moves
// the driver onto `save_in` / `load_from`.
// ---------------------------------------------------------------------

static DIR: Mutex<Option<PathBuf>> = Mutex::new(None);
static RESUME: Mutex<Option<PathBuf>> = Mutex::new(None);

/// Compat: the directory [`save`] writes to (default `checkpoints`).
pub fn set_dir(dir: impl Into<PathBuf>) {
    *DIR.lock().expect("no panic holds this lock") = Some(dir.into());
}

/// Compat: the directory [`load_for`] reads (`None` = it finds nothing).
pub fn force_resume(dir: Option<PathBuf>) {
    *RESUME.lock().expect("no panic holds this lock") = dir;
}

/// Compat: [`save_in`] the [`set_dir`] directory.
pub fn save(net: &Network, label: &str) -> PathBuf {
    let dir = DIR.lock().expect("no panic holds this lock").clone();
    save_in(&dir.unwrap_or_else(|| "checkpoints".into()), net, label)
}

/// Compat: [`load_from`] the [`force_resume`] directory.
pub fn load_for(net: &Network, label: &str) -> Option<(Time, NetworkState)> {
    let dir = RESUME.lock().expect("no panic holds this lock").clone();
    load_from(&dir?, net, label)
}
