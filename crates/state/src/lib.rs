//! # ibsim-state
//!
//! The checkpoint container format shared by every stateful layer of the
//! simulator: a versioned, self-describing JSON document holding a
//! [`CheckpointHeader`] (format version plus a topology digest, checked
//! *before* any state is decoded) and an opaque state tree produced by
//! `Network::checkpoint()`.
//!
//! Three deliberate properties:
//!
//! * **Fail structured, never panic.** Every way a restore can go wrong —
//!   wrong magic, bumped version, truncated payload, checkpoint from a
//!   different topology — is a [`StateError`] variant naming the exact
//!   mismatch.
//! * **Self-describing.** The payload is a plain JSON tree; two
//!   checkpoints can be compared field-by-field ([`diff_values`])
//!   without the producing build, which is what the golden-snapshot CI
//!   leg and the divergence bisector are built on.
//! * **Geometry-free.** Nothing in the format depends on in-memory
//!   layout (event-queue shape, hash order); a checkpoint taken under
//!   one event-queue implementation restores under the other.

use serde::{Deserialize, Serialize, Value};
use std::fmt;
use std::path::Path;

/// Checkpoint format version of IB CC (`ibcc` backend) state trees —
/// unchanged since the format landed, so every previously written
/// checkpoint still restores. Bump on any incompatible change to the
/// state tree's schema; restore refuses unknown versions with
/// [`StateError::VersionMismatch`].
pub const FORMAT_VERSION: u32 = 1;

/// Format version of `dcqcn`-backend checkpoints: the state tree gains
/// backend-tagged per-HCA CC sections and per-switch PFC sections, so
/// the version is bumped rather than silently reusing v1.
pub const FORMAT_VERSION_DCQCN: u32 = 2;

/// Highest format version this build understands.
pub const FORMAT_VERSION_MAX: u32 = FORMAT_VERSION_DCQCN;

/// The default backend tag (the one whose digests predate the field).
pub const BACKEND_IBCC: &str = "ibcc";

fn default_backend() -> String {
    BACKEND_IBCC.to_string()
}

/// Leading magic string; guards against feeding arbitrary JSON (or a
/// telemetry CSV) to the restore path.
pub const MAGIC: &str = "ibsim-checkpoint";

/// Structural fingerprint of the fabric a checkpoint was taken on.
/// Restore validates it against the live network before touching any
/// state: applying a 72-node checkpoint to an 8-node fabric must fail
/// loudly, not scribble.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TopoDigest {
    pub switches: u64,
    pub hcas: u64,
    pub channels: u64,
    pub n_vls: u64,
    pub seed: u64,
    /// Congestion control armed? (A CC-on checkpoint carries per-flow
    /// tables a CC-off network has no home for.)
    pub cc: bool,
    /// Congestion-control backend tag (`"ibcc"` or `"dcqcn"`). An `ibcc`
    /// checkpoint carries CCT/CCTI state; a `dcqcn` one carries rate and
    /// PFC state — restoring across backends would scribble, so the
    /// digest refuses the mix before any state is decoded.
    pub backend: String,
}

// Hand-written serde: the `backend` key is omitted when it holds the
// default (`"ibcc"`), so every digest written before the field existed —
// including the committed golden checkpoints — stays byte-identical and
// still decodes.
impl Serialize for TopoDigest {
    fn to_value(&self) -> Value {
        let mut pairs = vec![
            ("switches".to_string(), self.switches.to_value()),
            ("hcas".to_string(), self.hcas.to_value()),
            ("channels".to_string(), self.channels.to_value()),
            ("n_vls".to_string(), self.n_vls.to_value()),
            ("seed".to_string(), self.seed.to_value()),
            ("cc".to_string(), self.cc.to_value()),
        ];
        if self.backend != BACKEND_IBCC {
            pairs.push(("backend".to_string(), self.backend.to_value()));
        }
        Value::Object(pairs)
    }
}

impl Deserialize for TopoDigest {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        let field = |k: &str| {
            v.get(k)
                .ok_or_else(|| serde::Error::custom(format!("missing field `{k}` in TopoDigest")))
        };
        Ok(TopoDigest {
            switches: u64::from_value(field("switches")?)?,
            hcas: u64::from_value(field("hcas")?)?,
            channels: u64::from_value(field("channels")?)?,
            n_vls: u64::from_value(field("n_vls")?)?,
            seed: u64::from_value(field("seed")?)?,
            cc: bool::from_value(field("cc")?)?,
            backend: match v.get("backend") {
                Some(b) => String::from_value(b)?,
                None => default_backend(),
            },
        })
    }
}

/// The format version a checkpoint from the given backend must carry.
pub fn expected_version(backend: &str) -> u32 {
    if backend == BACKEND_IBCC {
        FORMAT_VERSION
    } else {
        FORMAT_VERSION_DCQCN
    }
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
        let version = expected_version(&topo.backend);
        CheckpointHeader {
            magic: MAGIC.to_string(),
            version,
            at_ps,
            events_processed,
            topo,
        }
    }

    /// Check magic and version — the first gate of every restore. The
    /// version must be the one the digest's backend writes: an `ibcc`
    /// header claiming v2 (or a v3 from a future build) is refused with
    /// the version this build expects for that backend.
    pub fn validate_format(&self) -> Result<(), StateError> {
        if self.magic != MAGIC {
            return Err(StateError::BadMagic {
                found: self.magic.clone(),
            });
        }
        let expected = expected_version(&self.topo.backend);
        if self.version != expected {
            return Err(StateError::VersionMismatch {
                found: self.version,
                expected,
            });
        }
        Ok(())
    }

    /// Check the topology digest against the live fabric — the second
    /// gate. Names the first mismatching field.
    pub fn validate_topo(&self, live: &TopoDigest) -> Result<(), StateError> {
        let t = &self.topo;
        let fields: [(&str, u64, u64); 5] = [
            ("switches", t.switches, live.switches),
            ("hcas", t.hcas, live.hcas),
            ("channels", t.channels, live.channels),
            ("n_vls", t.n_vls, live.n_vls),
            ("seed", t.seed, live.seed),
        ];
        for (field, found, expected) in fields {
            if found != expected {
                return Err(StateError::TopologyMismatch {
                    field: field.to_string(),
                    found: found.to_string(),
                    expected: expected.to_string(),
                });
            }
        }
        if t.cc != live.cc {
            return Err(StateError::TopologyMismatch {
                field: "cc".to_string(),
                found: t.cc.to_string(),
                expected: live.cc.to_string(),
            });
        }
        if t.backend != live.backend {
            return Err(StateError::TopologyMismatch {
                field: "backend".to_string(),
                found: t.backend.clone(),
                expected: live.backend.clone(),
            });
        }
        Ok(())
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
    /// Filesystem-level failure.
    Io { path: String, detail: String },
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
            StateError::Io { path, detail } => write!(f, "checkpoint io error on {path}: {detail}"),
        }
    }
}

impl std::error::Error for StateError {}

// ---------------------------------------------------------------------------
// Encode / decode
// ---------------------------------------------------------------------------

/// Assemble the complete checkpoint document as JSON text.
pub fn encode<T: Serialize>(header: &CheckpointHeader, state: &T) -> String {
    let doc = Value::Object(vec![
        ("header".to_string(), header.to_value()),
        ("state".to_string(), state.to_value()),
    ]);
    serde_json::to_string(&doc).expect("Value serialization is infallible")
}

/// Parse and gate a checkpoint document: magic and version are checked
/// here, before the caller decodes (or topology-checks) the state tree.
pub fn decode(text: &str) -> Result<(CheckpointHeader, Value), StateError> {
    let doc: Value = serde_json::from_str(text).map_err(|e| classify_parse_error(text, e))?;
    let header_v = doc.get("header").ok_or_else(|| StateError::Corrupt {
        detail: "missing `header` object".to_string(),
    })?;
    let header = CheckpointHeader::from_value(header_v).map_err(|e| StateError::Corrupt {
        detail: format!("bad header: {e}"),
    })?;
    header.validate_format()?;
    let state = doc
        .get("state")
        .cloned()
        .ok_or_else(|| StateError::Corrupt {
            detail: "missing `state` object".to_string(),
        })?;
    Ok((header, state))
}

/// A JSON parse failure is a truncation when the parser ran off the end
/// of the input; anything else is corruption.
fn classify_parse_error(text: &str, e: serde_json::Error) -> StateError {
    let detail = e.to_string();
    let at_end = detail
        .rsplit("at byte ")
        .next()
        .and_then(|n| n.trim().parse::<usize>().ok())
        .is_some_and(|pos| pos >= text.len());
    if at_end {
        StateError::Truncated { detail }
    } else {
        StateError::Corrupt { detail }
    }
}

/// Write a checkpoint document to disk.
pub fn save<T: Serialize>(
    path: &Path,
    header: &CheckpointHeader,
    state: &T,
) -> Result<(), StateError> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| StateError::Io {
            path: dir.display().to_string(),
            detail: e.to_string(),
        })?;
    }
    std::fs::write(path, encode(header, state)).map_err(|e| StateError::Io {
        path: path.display().to_string(),
        detail: e.to_string(),
    })
}

/// Read and gate a checkpoint document from disk.
pub fn load(path: &Path) -> Result<(CheckpointHeader, Value), StateError> {
    let text = std::fs::read_to_string(path).map_err(|e| StateError::Io {
        path: path.display().to_string(),
        detail: e.to_string(),
    })?;
    decode(&text)
}

// ---------------------------------------------------------------------------
// Structural diff
// ---------------------------------------------------------------------------

/// One field where two state trees disagree. `path` is a JSON-pointer
/// style locator (`/switches/3/ports/0/credits/0`), which the state
/// schema makes directly meaningful: the segment names are the
/// simulator's own field names, so a diff entry reads as "switch 3,
/// port 0, VL-0 credit count".
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct DiffEntry {
    pub path: String,
    pub left: String,
    pub right: String,
}

/// Field-by-field structural diff of two state trees, depth-first in
/// schema order, capped at `limit` entries (the count of *reported*
/// entries; traversal stops once the cap is hit). An empty result means
/// the trees are identical.
pub fn diff_values(left: &Value, right: &Value, limit: usize) -> Vec<DiffEntry> {
    let mut out = Vec::new();
    diff_into(left, right, &mut String::new(), limit, &mut out);
    out
}

fn render_short(v: &Value) -> String {
    match v {
        Value::Array(xs) => format!("[…{} items]", xs.len()),
        Value::Object(ps) => format!("{{…{} fields}}", ps.len()),
        other => serde_json::to_string(other).unwrap_or_else(|_| format!("{other:?}")),
    }
}

fn diff_into(left: &Value, right: &Value, path: &mut String, limit: usize, out: &mut Vec<DiffEntry>) {
    if out.len() >= limit {
        return;
    }
    match (left, right) {
        (Value::Object(l), Value::Object(r)) => {
            // Schema order: walk the union of keys, left order first.
            for (k, lv) in l {
                let len = path.len();
                path.push('/');
                path.push_str(k);
                match serde::get_field(r, k) {
                    Some(rv) => diff_into(lv, rv, path, limit, out),
                    None => out.push(DiffEntry {
                        path: path.clone(),
                        left: render_short(lv),
                        right: "<missing>".to_string(),
                    }),
                }
                path.truncate(len);
                if out.len() >= limit {
                    return;
                }
            }
            for (k, rv) in r {
                if serde::get_field(l, k).is_none() {
                    out.push(DiffEntry {
                        path: format!("{path}/{k}"),
                        left: "<missing>".to_string(),
                        right: render_short(rv),
                    });
                    if out.len() >= limit {
                        return;
                    }
                }
            }
        }
        (Value::Array(l), Value::Array(r)) => {
            if l.len() != r.len() {
                out.push(DiffEntry {
                    path: format!("{path}/len"),
                    left: l.len().to_string(),
                    right: r.len().to_string(),
                });
                if out.len() >= limit {
                    return;
                }
            }
            for (i, (lv, rv)) in l.iter().zip(r.iter()).enumerate() {
                let len = path.len();
                path.push('/');
                path.push_str(&i.to_string());
                diff_into(lv, rv, path, limit, out);
                path.truncate(len);
                if out.len() >= limit {
                    return;
                }
            }
        }
        (l, r) => {
            if !scalar_eq(l, r) {
                out.push(DiffEntry {
                    path: if path.is_empty() {
                        "/".to_string()
                    } else {
                        path.clone()
                    },
                    left: render_short(l),
                    right: render_short(r),
                });
            }
        }
    }
}

/// JSON has a single number type: a non-negative integer re-parsed from
/// text arrives as `U64` even when the producing field was `i64`.
/// Compare integer variants numerically so a parse → serialize round
/// trip is not reported as a diff.
fn scalar_eq(l: &Value, r: &Value) -> bool {
    if l == r {
        return true;
    }
    match (l, r) {
        (Value::U64(u), Value::I64(i)) | (Value::I64(i), Value::U64(u)) => {
            i64::try_from(*u).is_ok_and(|u| u == *i)
        }
        _ => false,
    }
}

/// Render a diff as a human-readable report (one line per entry).
pub fn render_diff(entries: &[DiffEntry]) -> String {
    let mut s = String::new();
    for e in entries {
        s.push_str(&format!("{}: {} != {}\n", e.path, e.left, e.right));
    }
    s
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
            backend: default_backend(),
        }
    }

    fn dcqcn_digest() -> TopoDigest {
        TopoDigest {
            backend: "dcqcn".to_string(),
            ..digest()
        }
    }

    #[test]
    fn round_trip_through_text() {
        let h = CheckpointHeader::new(123, 456, digest());
        let state = Value::Object(vec![("x".into(), Value::U64(9))]);
        let text = encode(&h, &state);
        let (h2, s2) = decode(&text).unwrap();
        assert_eq!(h2.at_ps, 123);
        assert_eq!(h2.events_processed, 456);
        assert_eq!(h2.topo, digest());
        assert_eq!(s2, state);
    }

    #[test]
    fn version_bump_is_refused_with_structured_error() {
        // v2 exists now, but it is the *dcqcn* version: an ibcc digest
        // claiming it is still refused, naming the version ibcc writes.
        let mut h = CheckpointHeader::new(0, 0, digest());
        h.version = FORMAT_VERSION + 1;
        let text = encode(&h, &Value::Null);
        match decode(&text) {
            Err(StateError::VersionMismatch { found, expected }) => {
                assert_eq!(found, FORMAT_VERSION + 1);
                assert_eq!(expected, FORMAT_VERSION);
            }
            other => panic!("want VersionMismatch, got {other:?}"),
        }
        // A version beyond anything this build writes is refused for
        // either backend.
        let mut h = CheckpointHeader::new(0, 0, dcqcn_digest());
        h.version = FORMAT_VERSION_MAX + 1;
        match decode(&encode(&h, &Value::Null)) {
            Err(StateError::VersionMismatch { found, expected }) => {
                assert_eq!(found, FORMAT_VERSION_MAX + 1);
                assert_eq!(expected, FORMAT_VERSION_DCQCN);
            }
            other => panic!("want VersionMismatch, got {other:?}"),
        }
    }

    #[test]
    fn dcqcn_header_round_trips_at_v2() {
        let h = CheckpointHeader::new(5, 6, dcqcn_digest());
        assert_eq!(h.version, FORMAT_VERSION_DCQCN);
        let (h2, _) = decode(&encode(&h, &Value::Null)).unwrap();
        assert_eq!(h2.topo.backend, "dcqcn");
        assert_eq!(h2.version, FORMAT_VERSION_DCQCN);
    }

    #[test]
    fn ibcc_digest_serialization_omits_the_backend_key() {
        // Byte-compat guard: digests written before the backend field
        // existed must re-encode identically, and decode with the
        // default backend filled in.
        let text = serde_json::to_string(&digest().to_value()).unwrap();
        assert!(!text.contains("backend"), "{text}");
        let back = TopoDigest::from_value(&serde_json::from_str(&text).unwrap()).unwrap();
        assert_eq!(back.backend, BACKEND_IBCC);
        let dc = serde_json::to_string(&dcqcn_digest().to_value()).unwrap();
        assert!(dc.contains("\"backend\":\"dcqcn\""), "{dc}");
    }

    #[test]
    fn backend_mismatch_names_found_and_expected_backend() {
        let h = CheckpointHeader::new(0, 0, dcqcn_digest());
        match h.validate_topo(&digest()) {
            Err(StateError::TopologyMismatch {
                field,
                found,
                expected,
            }) => {
                assert_eq!(field, "backend");
                assert_eq!(found, "dcqcn");
                assert_eq!(expected, "ibcc");
            }
            other => panic!("want TopologyMismatch, got {other:?}"),
        }
    }

    #[test]
    fn bad_magic_is_refused() {
        let mut h = CheckpointHeader::new(0, 0, digest());
        h.magic = "telemetry-csv".into();
        match decode(&encode(&h, &Value::Null)) {
            Err(StateError::BadMagic { found }) => assert_eq!(found, "telemetry-csv"),
            other => panic!("want BadMagic, got {other:?}"),
        }
    }

    #[test]
    fn truncated_payload_is_classified() {
        let text = encode(&CheckpointHeader::new(0, 0, digest()), &Value::U64(1));
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

    #[test]
    fn topo_mismatch_names_the_field() {
        let h = CheckpointHeader::new(0, 0, digest());
        let mut live = digest();
        live.hcas = 72;
        match h.validate_topo(&live) {
            Err(StateError::TopologyMismatch {
                field,
                found,
                expected,
            }) => {
                assert_eq!(field, "hcas");
                assert_eq!(found, "8");
                assert_eq!(expected, "72");
            }
            other => panic!("want TopologyMismatch, got {other:?}"),
        }
        assert!(h.validate_topo(&digest()).is_ok());
    }

    #[test]
    fn diff_names_the_divergent_path() {
        let a = Value::Object(vec![(
            "switches".into(),
            Value::Array(vec![Value::Object(vec![
                ("credits".into(), Value::Array(vec![Value::U64(10)])),
                ("busy".into(), Value::Bool(false)),
            ])]),
        )]);
        let b = Value::Object(vec![(
            "switches".into(),
            Value::Array(vec![Value::Object(vec![
                ("credits".into(), Value::Array(vec![Value::U64(12)])),
                ("busy".into(), Value::Bool(false)),
            ])]),
        )]);
        let d = diff_values(&a, &b, 32);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].path, "/switches/0/credits/0");
        assert_eq!(d[0].left, "10");
        assert_eq!(d[0].right, "12");
        assert!(render_diff(&d).contains("/switches/0/credits/0: 10 != 12"));
    }

    #[test]
    fn diff_reports_missing_keys_and_length_mismatch() {
        let a = Value::Object(vec![
            ("x".into(), Value::U64(1)),
            ("arr".into(), Value::Array(vec![Value::U64(1), Value::U64(2)])),
        ]);
        let b = Value::Object(vec![
            ("arr".into(), Value::Array(vec![Value::U64(1)])),
            ("y".into(), Value::U64(3)),
        ]);
        let d = diff_values(&a, &b, 32);
        let paths: Vec<&str> = d.iter().map(|e| e.path.as_str()).collect();
        assert!(paths.contains(&"/x"), "{paths:?}");
        assert!(paths.contains(&"/arr/len"), "{paths:?}");
        assert!(paths.contains(&"/y"), "{paths:?}");
    }

    #[test]
    fn diff_respects_the_cap() {
        let mk = |v: u64| Value::Array((0..100).map(|i| Value::U64(i * v)).collect());
        let d = diff_values(&mk(1), &mk(2), 5);
        assert_eq!(d.len(), 5);
    }

    #[test]
    fn identical_trees_diff_empty() {
        let v = Value::Object(vec![("a".into(), Value::F64(1.5))]);
        assert!(diff_values(&v, &v, 10).is_empty());
    }
}
