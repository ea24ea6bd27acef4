//! Naming, saving and loading the checkpoint files of experiment runs.
//!
//! *Whether* a run checkpoints or resumes is decided by its
//! [`RunOptions`] (`checkpoint_at`, `checkpoint_dir`, `resume_from`)
//! and *when* by the run driver; this module names, moves and restores
//! the files.
//!
//! One file per run: the name encodes the topology digest (switch /
//! HCA / channel counts, VLs, seed, CC on/off) *and* a workload label
//! (role split, durations, hotspot lifetime, contributors on or off), because a
//! single binary runs many scenarios over the same fabric and seed.
//! Runs with no matching file start from scratch, so a multi-run binary
//! (Table II's four cells, a CC pair) resumes exactly the cells that
//! were checkpointed. Resuming against a file whose header digest
//! disagrees with the live fabric fails loudly, naming the first
//! mismatching field.
//!
//! The file is a versioned JSON document: a [`CheckpointHeader`]
//! (magic, format version, [`TopoDigest`]), checked before any state is
//! parsed, then the plain state `Network::checkpoint()` produces, whose
//! `to_value()` trees two captures can be diffed on
//! (`bisect::diff_values`). The codec streams: [`encode`] writes the
//! document one pending event, switch and HCA at a time, and [`decode`]
//! reads it back the same way, so neither holds a tree of the whole
//! document. Every way a document can be wrong is a [`StateError`]
//! naming the mismatch; [`load_from`] turns it into a panic naming the
//! file.

use ibsim_engine::time::{Time, TimeDelta};
use ibsim_net::{Network, NetworkState};
use ibsim_traffic::RoleSpec;
use serde::{Deserialize, Serialize, Value};
use serde_json::Reader;
use std::fmt;
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use crate::experiment::RunDurations;
use crate::options::RunOptions;

/// Checkpoint format version. Bump on any incompatible change to the
/// state tree's schema; restore refuses every other version with
/// [`StateError::VersionMismatch`]. Version 1 carried a fault-injection
/// overlay (a fault state per run, a sink-pause flag per HCA) that the
/// fault-free fabric no longer has; version 2 was the form of a
/// since-retired second congestion-control backend.
pub const FORMAT_VERSION: u32 = 3;

/// Leading magic string; guards against feeding arbitrary JSON (or a
/// telemetry CSV) to the restore path.
pub const MAGIC: &str = "ibsim-checkpoint";

/// Structural fingerprint of the fabric a checkpoint was taken on.
/// Restore validates it against the live network before touching any
/// state: applying a 72-node checkpoint to an 8-node fabric must fail
/// loudly, not scribble.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct TopoDigest {
    pub switches: u64,
    pub hcas: u64,
    pub channels: u64,
    pub n_vls: u64,
    pub seed: u64,
    /// Congestion control armed? (A CC-on checkpoint carries per-flow
    /// tables a CC-off network has no home for.)
    pub cc: bool,
}

/// The envelope every checkpoint starts with.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CheckpointHeader {
    pub magic: String,
    pub version: u32,
    /// Simulated instant the state was captured at (picoseconds).
    pub at_ps: u64,
    /// Events processed up to the capture.
    pub events_processed: u64,
    pub topo: TopoDigest,
}

impl CheckpointHeader {
    pub fn new(at_ps: u64, events_processed: u64, topo: TopoDigest) -> Self {
        CheckpointHeader {
            magic: MAGIC.to_string(),
            version: FORMAT_VERSION,
            at_ps,
            events_processed,
            topo,
        }
    }

    /// Check magic and version — the first gate of every restore.
    pub fn validate_format(&self) -> Result<(), StateError> {
        if self.magic != MAGIC {
            return Err(StateError::BadMagic {
                found: self.magic.clone(),
            });
        }
        if self.version != FORMAT_VERSION {
            return Err(StateError::VersionMismatch {
                found: self.version,
                expected: FORMAT_VERSION,
            });
        }
        Ok(())
    }

    /// Check the topology digest against the live fabric — the second
    /// gate. Names the first mismatching field.
    pub fn validate_topo(&self, live: &TopoDigest) -> Result<(), StateError> {
        let (t, num) = (&self.topo, |n: u64| n.to_string());
        let fields = [
            ("switches", num(t.switches), num(live.switches)),
            ("hcas", num(t.hcas), num(live.hcas)),
            ("channels", num(t.channels), num(live.channels)),
            ("n_vls", num(t.n_vls), num(live.n_vls)),
            ("seed", num(t.seed), num(live.seed)),
            ("cc", t.cc.to_string(), live.cc.to_string()),
        ];
        match fields.into_iter().find(|(_, found, live)| found != live) {
            None => Ok(()),
            Some((field, found, expected)) => Err(StateError::TopologyMismatch {
                field: field.to_string(),
                found,
                expected,
            }),
        }
    }
}

/// Why a checkpoint could not be restored. Every variant names what
/// mismatched; none of them panic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StateError {
    /// The file does not start with the ibsim checkpoint magic.
    BadMagic { found: String },
    /// Produced by a different (older or newer) format version.
    VersionMismatch { found: u32, expected: u32 },
    /// The payload ends mid-document (partial write, interrupted copy).
    Truncated { detail: String },
    /// Parses as JSON but the tree does not decode as checkpoint state.
    Corrupt { detail: String },
    /// Taken on a different fabric than the one being restored into.
    TopologyMismatch {
        field: String,
        found: String,
        expected: String,
    },
}

impl fmt::Display for StateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StateError::BadMagic { found } => {
                write!(f, "not an ibsim checkpoint (magic {found:?}, want {MAGIC:?})")
            }
            StateError::VersionMismatch { found, expected } => write!(
                f,
                "checkpoint format version {found} incompatible with this build (expects {expected})"
            ),
            StateError::Truncated { detail } => {
                write!(f, "checkpoint payload truncated: {detail}")
            }
            StateError::Corrupt { detail } => write!(f, "checkpoint corrupt: {detail}"),
            StateError::TopologyMismatch {
                field,
                found,
                expected,
            } => write!(
                f,
                "checkpoint topology mismatch: {field} = {found}, live fabric has {expected}"
            ),
        }
    }
}

impl std::error::Error for StateError {}

impl From<serde_json::Error> for StateError {
    /// A parse that ran off the end of the text is a truncation;
    /// anything else is corruption.
    fn from(e: serde_json::Error) -> Self {
        let detail = e.to_string();
        if e.is_eof() {
            StateError::Truncated { detail }
        } else {
            StateError::Corrupt { detail }
        }
    }
}

fn corrupt(detail: String) -> StateError {
    StateError::Corrupt { detail }
}

/// Write the checkpoint document of `state` to `w`: the header, then
/// the state's fields in declaration order, with each pending event,
/// switch and HCA turned into text on its own and dropped before the
/// next. No tree of the whole document is built; the bytes are those
/// of `serde_json::to_string` on `{"header": .., "state": ..}`.
pub fn encode(
    w: &mut impl Write,
    header: &CheckpointHeader,
    state: &NetworkState,
) -> io::Result<()> {
    // Listed without `..`, so a new field fails to compile here.
    let NetworkState {
        now,
        queue_seq,
        events_processed,
        last_pop,
        events,
        switches,
        hcas,
        primed,
        measuring_since,
        measured_until,
        audit,
        telemetry,
    } = state;
    w.write_all(b"{\"header\":")?;
    put(w, header)?;
    w.write_all(b",\"state\":{\"now\":")?;
    put(w, now)?;
    field(w, "queue_seq", queue_seq)?;
    field(w, "events_processed", events_processed)?;
    field(w, "last_pop", last_pop)?;
    each(w, "events", events)?;
    each(w, "switches", switches)?;
    each(w, "hcas", hcas)?;
    field(w, "primed", primed)?;
    field(w, "measuring_since", measuring_since)?;
    field(w, "measured_until", measured_until)?;
    field(w, "audit", audit)?;
    field(w, "telemetry", telemetry)?;
    w.write_all(b"}}")
}

fn put(w: &mut impl Write, v: &impl Serialize) -> io::Result<()> {
    w.write_all(serde_json::to_string(v)?.as_bytes())
}

fn field(w: &mut impl Write, key: &str, v: &impl Serialize) -> io::Result<()> {
    write!(w, ",\"{key}\":")?;
    put(w, v)
}

fn each<T: Serialize>(w: &mut impl Write, key: &str, xs: &[T]) -> io::Result<()> {
    write!(w, ",\"{key}\":[")?;
    for (i, x) in xs.iter().enumerate() {
        if i > 0 {
            w.write_all(b",")?;
        }
        put(w, x)?;
    }
    w.write_all(b"]")
}

/// Parse and gate a checkpoint document: magic and version are checked
/// before any state is parsed, and the state is then decoded one
/// pending event, switch and HCA at a time. The topology is left to the
/// caller ([`CheckpointHeader::validate_topo`]).
pub fn decode(text: &str) -> Result<(CheckpointHeader, NetworkState), StateError> {
    let mut r = Reader::new(text);
    r.expect(b'{')?;
    want_key(&mut r, "header")?;
    let header = CheckpointHeader::from_value(&r.value()?)
        .map_err(|e| corrupt(format!("bad header: {e}")))?;
    header.validate_format()?;
    r.expect(b',')?;
    want_key(&mut r, "state")?;
    let state = decode_state(&mut r)?;
    r.expect(b'}')?;
    r.end()?;
    Ok((header, state))
}

fn want_key(r: &mut Reader, want: &str) -> Result<(), StateError> {
    match r.key()? {
        k if k == want => Ok(()),
        k => Err(corrupt(format!("expected `{want}`, found `{k}`"))),
    }
}

/// The `state` object. The device arrays are read element by element;
/// the other fields are few and small, and decode through the derive as
/// one object in which each device array stands empty, so a missing
/// key is named just as the derive names it.
fn decode_state(r: &mut Reader) -> Result<NetworkState, StateError> {
    let (mut events, mut switches, mut hcas) = (Vec::new(), Vec::new(), Vec::new());
    let mut rest: Vec<(String, Value)> = Vec::new();
    r.expect(b'{')?;
    loop {
        let k = r.key()?;
        if rest.iter().any(|(seen, _)| *seen == k) {
            return Err(corrupt(format!("duplicate key `{k}` in state")));
        }
        let v = match k.as_str() {
            "events" => elements(r, &k, &mut events)?,
            "switches" => elements(r, &k, &mut switches)?,
            "hcas" => elements(r, &k, &mut hcas)?,
            _ => r.value()?,
        };
        rest.push((k, v));
        if !r.next_is(b',') {
            break;
        }
    }
    r.expect(b'}')?;
    let mut state = NetworkState::from_value(&Value::Object(rest))
        .map_err(|e| corrupt(format!("bad state: {e}")))?;
    (state.events, state.switches, state.hcas) = (events, switches, hcas);
    Ok(state)
}

/// Read the array `key` holds into `out`, one element at a time; the
/// empty array that stands for it in the scalar object.
fn elements<T: Deserialize>(
    r: &mut Reader,
    key: &str,
    out: &mut Vec<T>,
) -> Result<Value, StateError> {
    r.expect(b'[')?;
    if !r.next_is(b']') {
        loop {
            let x = T::from_value(&r.value()?)
                .map_err(|e| corrupt(format!("bad {key}[{}]: {e}", out.len())))?;
            out.push(x);
            if !r.next_is(b',') {
                break;
            }
        }
        r.expect(b']')?;
    }
    Ok(Value::Array(Vec::new()))
}

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
    }
}

/// The header of a capture of `net` at its current instant.
pub fn header(net: &Network) -> CheckpointHeader {
    CheckpointHeader::new(net.now().as_ps(), net.events_processed(), digest(net))
}

/// The workload half of a run's checkpoint file name: everything that
/// distinguishes two runs sharing a fabric and seed.
pub fn run_label(
    roles: &RoleSpec,
    dur: &RunDurations,
    hotspot_lifetime: Option<TimeDelta>,
    contributors_active: bool,
) -> String {
    format!(
        "r{}-{}-{}-{}-{}_w{}m{}_l{}_a{}",
        roles.num_nodes,
        roles.num_hotspots,
        roles.b_pct,
        roles.b_p,
        roles.c_pct_of_rest,
        dur.warmup.as_ps(),
        dur.measure.as_ps(),
        hotspot_lifetime.map_or(0, |l| l.as_ps()),
        contributors_active as u8,
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

/// Deterministic checkpoint file name for one run.
pub fn file_name(d: &TopoDigest, label: &str) -> String {
    format!(
        "ckpt_s{}h{}c{}v{}_seed{:x}_cc{}_{}.json",
        d.switches, d.hcas, d.channels, d.n_vls, d.seed, d.cc as u8, label
    )
}

/// Save a checkpoint of `net` into `dir`, returning the path.
/// Panics on I/O failure: a silently missing checkpoint would turn a
/// later resume into a silent from-scratch rerun.
pub fn save_in(dir: &Path, net: &Network, label: &str) -> PathBuf {
    let header = header(net);
    std::fs::create_dir_all(dir)
        .unwrap_or_else(|e| panic!("checkpoint: cannot create {}: {e}", dir.display()));
    let path = dir.join(file_name(&header.topo, label));
    std::fs::File::create(&path)
        .and_then(|f| {
            let mut w = BufWriter::new(f);
            encode(&mut w, &header, &net.checkpoint())?;
            w.flush()
        })
        .unwrap_or_else(|e| panic!("checkpoint: cannot write {}: {e}", path.display()));
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
/// with the structured [`StateError`] — resuming from the wrong
/// checkpoint must never degrade into a silent cold start.
pub fn load_from(dir: &Path, net: &Network, label: &str) -> Option<(Time, NetworkState)> {
    let d = digest(net);
    let path = dir.join(file_name(&d, label));
    if !path.exists() {
        return None;
    }
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("resume {}: cannot read: {e}", path.display()));
    let decoded = decode(&text).and_then(|(header, state)| {
        header.validate_topo(&d)?;
        Ok((header, state))
    });
    let (header, state) = decoded.unwrap_or_else(|e| panic!("resume {}: {e}", path.display()));
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
    /// checkpoint, returning the saved clock; when it does not, say on
    /// stderr that the run starts cold. `replay` runs first, on the
    /// fresh fabric: configuration the capture does not carry (hotspot
    /// retargets) is re-applied there, before the restore.
    pub(crate) fn resume(
        &self,
        net: &mut Network,
        label: &str,
        replay: impl FnOnce(&mut Network, Time),
    ) -> Option<Time> {
        let dir = self.resume_from.as_deref()?;
        let Some((at, state)) = load_from(dir, net, label) else {
            eprintln!(
                "checkpoint: no {} in {}; the run starts cold",
                file_name(&digest(net), label),
                dir.display()
            );
            return None;
        };
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

#[cfg(test)]
mod tests {
    use super::*;

    fn digest() -> TopoDigest {
        TopoDigest {
            switches: 1,
            hcas: 8,
            channels: 16,
            n_vls: 1,
            seed: 7,
            cc: true,
        }
    }

    /// The document of a fabric-less state under `h`.
    fn text(h: &CheckpointHeader) -> String {
        let state = NetworkState {
            now: Time(5),
            queue_seq: 0,
            events_processed: 0,
            last_pop: None,
            events: Vec::new(),
            switches: Vec::new(),
            hcas: Vec::new(),
            primed: false,
            measuring_since: None,
            measured_until: None,
            audit: None,
            telemetry: None,
        };
        let mut out = Vec::new();
        encode(&mut out, h, &state).unwrap();
        String::from_utf8(out).unwrap()
    }

    #[test]
    fn version_bump_is_refused_with_structured_error() {
        // 1 is the retired fault-overlay format, 2 the retired second
        // backend's, 4 the next bump.
        assert_eq!(FORMAT_VERSION, 3);
        for version in [1, 2, FORMAT_VERSION + 1] {
            let mut h = CheckpointHeader::new(0, 0, digest());
            h.version = version;
            match decode(&text(&h)) {
                Err(StateError::VersionMismatch { found, expected }) => {
                    assert_eq!((found, expected), (version, 3));
                }
                other => panic!("v{version}: want VersionMismatch, got {other:?}"),
            }
        }
    }

    #[test]
    fn ibcc_digest_serialization_omits_the_backend_key() {
        // Byte-compat guard: every committed digest has exactly these
        // keys in this order, and decodes back to itself.
        let text = serde_json::to_string(&digest().to_value()).unwrap();
        assert_eq!(
            text,
            r#"{"switches":1,"hcas":8,"channels":16,"n_vls":1,"seed":7,"cc":true}"#
        );
        let back = TopoDigest::from_value(&serde_json::from_str(&text).unwrap()).unwrap();
        assert_eq!(back, digest());
    }

    #[test]
    fn topo_mismatch_names_the_field() {
        // Each row: the field, the checkpoint's value, the live fabric's.
        let (h, d) = (CheckpointHeader::new(0, 0, digest()), digest);
        for (live, want) in [
            (TopoDigest { switches: 2, ..d() }, ["switches", "1", "2"]),
            (TopoDigest { hcas: 72, ..d() }, ["hcas", "8", "72"]),
            (TopoDigest { channels: 9, ..d() }, ["channels", "16", "9"]),
            (TopoDigest { n_vls: 4, ..d() }, ["n_vls", "1", "4"]),
            (TopoDigest { seed: 9, ..d() }, ["seed", "7", "9"]),
            (TopoDigest { cc: false, ..d() }, ["cc", "true", "false"]),
        ] {
            match h.validate_topo(&live) {
                Err(StateError::TopologyMismatch {
                    field,
                    found,
                    expected,
                }) => assert_eq!([field, found, expected], want),
                other => panic!("{want:?}: want TopologyMismatch, got {other:?}"),
            }
        }
        assert!(h.validate_topo(&d()).is_ok());
    }

    #[test]
    fn truncated_payload_is_classified() {
        let text = text(&CheckpointHeader::new(0, 0, digest()));
        let cut = &text[..text.len() - 5];
        match decode(cut) {
            Err(StateError::Truncated { .. }) => {}
            other => panic!("want Truncated, got {other:?}"),
        }
    }

    #[test]
    fn garbage_is_corrupt_not_panic() {
        assert!(matches!(
            decode("{\"header\": 42, \"state\": null}"),
            Err(StateError::Corrupt { .. })
        ));
        assert!(matches!(
            decode("[1, 2, \"zzz\"]"),
            Err(StateError::Corrupt { .. })
        ));
    }
}
