//! The compact binary flow-trace format behind the trace-replay
//! workload, plus the `tracegen` synthesis core.
//!
//! A trace is a header followed by time-sorted flow records:
//!
//! ```text
//! magic   4 bytes  b"IBTR"
//! version u32 LE   1
//! nodes   u32 LE   fabric size the trace was cut for
//! records u64 LE   record count (validated on read *and* write)
//! record* varint   dt_ps  — picoseconds since the previous record
//!         varint   src    — injecting end node
//!         varint   dst    — receiving end node (never == src)
//!         varint   bytes  — flow size (> 0)
//! ```
//!
//! Delta-encoded LEB128 varints keep a realistic record near 6–10
//! bytes, so a million-flow trace is a few megabytes. The reader is
//! strictly streaming — one record decoded per call, nothing buffered
//! beyond `BufReader`'s fixed block — which is what lets the replay
//! path run traces far larger than memory. Every failure is a
//! structured [`TraceError`] naming what was found and what was
//! expected, the checkpoint error idiom.

use ibsim_engine::rng::Rng;
use ibsim_engine::time::Time;
use ibsim_net::NodeId;
use std::fmt;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::Path;

/// File magic: "IBTR" (InfiniBand Trace).
pub const MAGIC: [u8; 4] = *b"IBTR";
/// Current format version.
pub const FORMAT_VERSION: u32 = 1;

/// One flow: at time `t`, `src` offers `bytes` toward `dst`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FlowRec {
    pub t: Time,
    pub src: NodeId,
    pub dst: NodeId,
    pub bytes: u32,
}

/// Structured trace-format failure: every variant names what was found
/// and what was expected, so a truncated or foreign file fails loudly
/// instead of replaying garbage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceError {
    Io(String),
    /// The first four bytes were not `IBTR`.
    BadMagic {
        found: [u8; 4],
    },
    /// A version this build does not speak.
    BadVersion {
        found: u32,
        expected: u32,
    },
    /// The stream ended inside record `record` of `expected` — a
    /// truncated copy or a lying header.
    Truncated {
        record: u64,
        expected: u64,
    },
    /// More bytes follow the last declared record.
    TrailingData {
        expected: u64,
    },
    /// A record that cannot be offered to a fabric: self-flow, node out
    /// of range, or an empty flow.
    BadRecord {
        record: u64,
        reason: String,
    },
    /// A writer finished with the wrong record count.
    CountMismatch {
        found: u64,
        expected: u64,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "trace i/o: {e}"),
            TraceError::BadMagic { found } => write!(
                f,
                "bad trace magic: found {found:?}, expected {MAGIC:?} (\"IBTR\")"
            ),
            TraceError::BadVersion { found, expected } => {
                write!(
                    f,
                    "trace format version {found}, this build reads {expected}"
                )
            }
            TraceError::Truncated { record, expected } => write!(
                f,
                "trace truncated inside record {record} of {expected} declared"
            ),
            TraceError::TrailingData { expected } => {
                write!(f, "trailing bytes after the {expected} declared records")
            }
            TraceError::BadRecord { record, reason } => {
                write!(f, "trace record {record}: {reason}")
            }
            TraceError::CountMismatch { found, expected } => write!(
                f,
                "trace writer finished with {found} records, header declared {expected}"
            ),
        }
    }
}

impl std::error::Error for TraceError {}

impl From<std::io::Error> for TraceError {
    fn from(e: std::io::Error) -> Self {
        TraceError::Io(e.to_string())
    }
}

fn write_varint(w: &mut impl Write, mut v: u64) -> Result<(), TraceError> {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            w.write_all(&[byte])?;
            return Ok(());
        }
        w.write_all(&[byte | 0x80])?;
    }
}

/// Reads one LEB128 varint. `Ok(None)` = clean EOF before the first
/// byte; a tear mid-varint is an error the caller wraps as truncation.
fn read_varint(r: &mut impl Read) -> Result<Option<u64>, ()> {
    let mut v = 0u64;
    let mut shift = 0u32;
    let mut first = true;
    loop {
        let mut b = [0u8; 1];
        match r.read(&mut b) {
            Ok(0) => return if first { Ok(None) } else { Err(()) },
            Ok(_) => {}
            Err(ref e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return Err(()),
        }
        first = false;
        if shift >= 64 {
            return Err(()); // overlong encoding
        }
        v |= ((b[0] & 0x7f) as u64) << shift;
        if b[0] & 0x80 == 0 {
            return Ok(Some(v));
        }
        shift += 7;
    }
}

/// Streaming trace writer. Declares the record count up front and
/// validates it at [`finish`](Self::finish) — a half-written trace must
/// never pass for a complete one.
pub struct TraceWriter<W: Write> {
    w: W,
    nodes: u32,
    declared: u64,
    written: u64,
    last_t: Time,
}

impl TraceWriter<BufWriter<std::fs::File>> {
    pub fn create(path: impl AsRef<Path>, nodes: u32, records: u64) -> Result<Self, TraceError> {
        let f = std::fs::File::create(path)?;
        Self::new(BufWriter::new(f), nodes, records)
    }
}

impl<W: Write> TraceWriter<W> {
    pub fn new(mut w: W, nodes: u32, records: u64) -> Result<Self, TraceError> {
        w.write_all(&MAGIC)?;
        w.write_all(&FORMAT_VERSION.to_le_bytes())?;
        w.write_all(&nodes.to_le_bytes())?;
        w.write_all(&records.to_le_bytes())?;
        Ok(TraceWriter {
            w,
            nodes,
            declared: records,
            written: 0,
            last_t: Time::ZERO,
        })
    }

    /// Append one record. Records must arrive time-sorted; the on-disk
    /// form is the delta against the previous record.
    pub fn push(&mut self, rec: FlowRec) -> Result<(), TraceError> {
        // The reason is formatted only for a record that fails.
        let bad = |reason: String| TraceError::BadRecord {
            record: self.written,
            reason,
        };
        if rec.t < self.last_t {
            let (t, last) = (rec.t.as_ps(), self.last_t.as_ps());
            return Err(bad(format!("time goes backwards: {t} < {last}")));
        }
        if rec.src == rec.dst {
            return Err(bad(format!("self-flow at node {}", rec.src)));
        }
        if rec.src >= self.nodes || rec.dst >= self.nodes {
            return Err(bad(format!(
                "node out of range: found src {} dst {}, expected < {}",
                rec.src, rec.dst, self.nodes
            )));
        }
        if rec.bytes == 0 {
            return Err(bad("empty flow".to_string()));
        }
        write_varint(&mut self.w, rec.t.as_ps() - self.last_t.as_ps())?;
        write_varint(&mut self.w, rec.src as u64)?;
        write_varint(&mut self.w, rec.dst as u64)?;
        write_varint(&mut self.w, rec.bytes as u64)?;
        self.last_t = rec.t;
        self.written += 1;
        Ok(())
    }

    /// Flush and validate the declared count.
    pub fn finish(mut self) -> Result<(), TraceError> {
        if self.written != self.declared {
            return Err(TraceError::CountMismatch {
                found: self.written,
                expected: self.declared,
            });
        }
        self.w.flush()?;
        Ok(())
    }
}

/// Streaming trace reader: header validated on open, one record
/// decoded (and validated) per [`next_record`](Self::next_record) call.
pub struct TraceReader<R: Read> {
    r: R,
    nodes: u32,
    declared: u64,
    read: u64,
    last_t: Time,
}

impl TraceReader<BufReader<std::fs::File>> {
    pub fn open(path: impl AsRef<Path>) -> Result<Self, TraceError> {
        let f = std::fs::File::open(path)?;
        Self::new(BufReader::new(f))
    }
}

impl<R: Read> TraceReader<R> {
    pub fn new(mut r: R) -> Result<Self, TraceError> {
        let mut magic = [0u8; 4];
        r.read_exact(&mut magic)
            .map_err(|e| TraceError::Io(format!("reading magic: {e}")))?;
        if magic != MAGIC {
            return Err(TraceError::BadMagic { found: magic });
        }
        let mut word = [0u8; 4];
        r.read_exact(&mut word)
            .map_err(|e| TraceError::Io(format!("reading version: {e}")))?;
        let version = u32::from_le_bytes(word);
        if version != FORMAT_VERSION {
            return Err(TraceError::BadVersion {
                found: version,
                expected: FORMAT_VERSION,
            });
        }
        r.read_exact(&mut word)
            .map_err(|e| TraceError::Io(format!("reading node count: {e}")))?;
        let nodes = u32::from_le_bytes(word);
        let mut dword = [0u8; 8];
        r.read_exact(&mut dword)
            .map_err(|e| TraceError::Io(format!("reading record count: {e}")))?;
        let declared = u64::from_le_bytes(dword);
        Ok(TraceReader {
            r,
            nodes,
            declared,
            read: 0,
            last_t: Time::ZERO,
        })
    }

    /// Fabric size the trace was cut for.
    pub fn nodes(&self) -> u32 {
        self.nodes
    }
    /// Record count the header declares.
    pub fn records(&self) -> u64 {
        self.declared
    }
    /// Records decoded so far.
    pub fn position(&self) -> u64 {
        self.read
    }

    /// Decode the next record, or `Ok(None)` after the last declared
    /// one (any trailing bytes are an error).
    pub fn next_record(&mut self) -> Result<Option<FlowRec>, TraceError> {
        if self.read == self.declared {
            // The declared stream is done; anything further is rot.
            let mut b = [0u8; 1];
            return match self.r.read(&mut b) {
                Ok(0) => Ok(None),
                Ok(_) => Err(TraceError::TrailingData {
                    expected: self.declared,
                }),
                Err(e) => Err(TraceError::Io(e.to_string())),
            };
        }
        let truncated = TraceError::Truncated {
            record: self.read,
            expected: self.declared,
        };
        let Some(dt) = read_varint(&mut self.r).map_err(|_| truncated.clone())? else {
            return Err(truncated);
        };
        let mut field = || match read_varint(&mut self.r) {
            Ok(Some(v)) => Ok(v),
            _ => Err(truncated.clone()),
        };
        let src = field()?;
        let dst = field()?;
        let bytes = field()?;
        let bad = |reason: String| TraceError::BadRecord {
            record: self.read,
            reason,
        };
        if src == dst {
            return Err(bad(format!("self-flow at node {src}")));
        }
        if src >= self.nodes as u64 || dst >= self.nodes as u64 {
            return Err(bad(format!(
                "node out of range: found src {src} dst {dst}, expected < {}",
                self.nodes
            )));
        }
        if bytes == 0 || bytes > u32::MAX as u64 {
            return Err(bad(format!("flow size {bytes} out of range")));
        }
        let t = Time(self.last_t.as_ps().checked_add(dt).ok_or_else(|| {
            bad(format!(
                "time overflow: +{dt} ps past {}",
                self.last_t.as_ps()
            ))
        })?);
        self.last_t = t;
        self.read += 1;
        Ok(Some(FlowRec {
            t,
            src: src as NodeId,
            dst: dst as NodeId,
            bytes: bytes as u32,
        }))
    }

    /// Skip `n` records (checkpoint resume: the captured run already
    /// consumed them). Decoding still validates — a resume through a
    /// corrupt region must fail exactly like a cold read would.
    pub fn skip(&mut self, n: u64) -> Result<(), TraceError> {
        for _ in 0..n {
            if self.next_record()?.is_none() {
                return Err(TraceError::Truncated {
                    record: self.read,
                    expected: self.declared.max(n),
                });
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Synthesis — the tracegen core
// ---------------------------------------------------------------------------

/// Destination distribution of a synthesized trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TracePattern {
    /// Every flow: uniform source, uniform destination ≠ source — the
    /// trace-shaped twin of [`DestPattern::UniformExceptSelf`]
    /// (ibsim_net::DestPattern::UniformExceptSelf).
    Uniform,
    /// `pct` percent of flows target one of `hotspots` fixed nodes
    /// (round-robin over the set); the rest are uniform.
    Hotspot { hotspots: u32, pct: u32 },
}

/// What `tracegen` synthesizes: `flows` records over `nodes` end nodes,
/// each `bytes` long, with exponential-ish inter-arrivals around
/// `mean_gap_ns` — deterministic in `seed`.
#[derive(Clone, Copy, Debug)]
pub struct TraceGenSpec {
    pub nodes: u32,
    pub flows: u64,
    pub bytes: u32,
    /// Mean gap between consecutive records, nanoseconds. The offered
    /// load is therefore `bytes * 8 / mean_gap_ns` Gbit/s fabric-wide.
    pub mean_gap_ns: u64,
    pub pattern: TracePattern,
    pub seed: u64,
}

impl TraceGenSpec {
    /// The spec whose replay statistically matches the paper's uniform
    /// V-node generator: every node offers `percent`% of `inj_gbps`,
    /// uniform destinations.
    pub fn uniform_load(nodes: u32, flows: u64, bytes: u32, inj_gbps: f64, percent: u32) -> Self {
        let fabric_gbps = inj_gbps * percent as f64 / 100.0 * nodes as f64;
        let mean_gap_ns = ((bytes as f64 * 8.0) / fabric_gbps).max(1.0).round() as u64;
        TraceGenSpec {
            nodes,
            flows,
            bytes,
            mean_gap_ns,
            pattern: TracePattern::Uniform,
            seed: 0x7AACE,
        }
    }
}

/// Synthesize a trace into `w`. Streaming: one record is drawn,
/// encoded, and dropped per iteration, so generating a 10⁷-flow trace
/// costs constant memory.
pub fn synthesize<W: Write>(spec: &TraceGenSpec, w: W) -> Result<(), TraceError> {
    assert!(spec.nodes >= 2, "a trace needs at least two nodes");
    let mut out = TraceWriter::new(w, spec.nodes, spec.flows)?;
    let mut rng = Rng::derive(spec.seed, 0x7F10_77AC);
    let mut t = 0u64;
    let n = spec.nodes as u64;
    for i in 0..spec.flows {
        // Exponential inter-arrival via inverse CDF on a uniform draw,
        // quantized to ps; deterministic and allocation-free.
        let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        let gap_ps = (-(1.0 - u).ln() * spec.mean_gap_ns as f64 * 1e3).round() as u64;
        t += gap_ps.max(1);
        let src = rng.next_below(n) as NodeId;
        let dst = match spec.pattern {
            TracePattern::Uniform => {
                let r = rng.next_below(n - 1) as NodeId;
                if r >= src {
                    r + 1
                } else {
                    r
                }
            }
            TracePattern::Hotspot { hotspots, pct } => {
                if rng.next_below(100) < pct as u64 {
                    let hs = (i % hotspots as u64) as NodeId;
                    if hs == src {
                        (hs + 1) % spec.nodes
                    } else {
                        hs
                    }
                } else {
                    let r = rng.next_below(n - 1) as NodeId;
                    if r >= src {
                        r + 1
                    } else {
                        r
                    }
                }
            }
        };
        out.push(FlowRec {
            t: Time(t),
            src,
            dst,
            bytes: spec.bytes,
        })?;
    }
    out.finish()
}

/// Synthesize straight to a file.
pub fn synthesize_to(spec: &TraceGenSpec, path: impl AsRef<Path>) -> Result<(), TraceError> {
    let f = std::fs::File::create(path)?;
    synthesize(spec, BufWriter::new(f))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(recs: &[FlowRec], nodes: u32) -> Vec<u8> {
        let mut buf = Vec::new();
        let mut w = TraceWriter::new(&mut buf, nodes, recs.len() as u64).unwrap();
        for &r in recs {
            w.push(r).unwrap();
        }
        w.finish().unwrap();
        buf
    }

    #[test]
    fn encode_decode_identity() {
        let recs = vec![
            FlowRec {
                t: Time(5),
                src: 0,
                dst: 1,
                bytes: 4096,
            },
            FlowRec {
                t: Time(5),
                src: 3,
                dst: 2,
                bytes: 1,
            },
            FlowRec {
                t: Time(1_000_000_007),
                src: 1,
                dst: 0,
                bytes: u32::MAX,
            },
        ];
        let buf = roundtrip(&recs, 4);
        let mut r = TraceReader::new(&buf[..]).unwrap();
        assert_eq!(r.nodes(), 4);
        assert_eq!(r.records(), 3);
        let mut got = Vec::new();
        while let Some(rec) = r.next_record().unwrap() {
            got.push(rec);
        }
        assert_eq!(got, recs);
        assert!(r.next_record().unwrap().is_none(), "EOF is sticky");
    }

    #[test]
    fn bad_magic_named() {
        let mut buf = roundtrip(&[], 2);
        buf[0] = b'X';
        match TraceReader::new(&buf[..]).err() {
            Some(TraceError::BadMagic { found }) => assert_eq!(&found, b"XBTR"),
            other => panic!("expected BadMagic, got {other:?}"),
        }
    }

    #[test]
    fn bad_version_found_vs_expected() {
        let mut buf = roundtrip(&[], 2);
        buf[4] = 99;
        match TraceReader::new(&buf[..]).err() {
            Some(TraceError::BadVersion {
                found: 99,
                expected: 1,
            }) => {}
            other => panic!("expected BadVersion, got {other:?}"),
        }
    }

    #[test]
    fn truncation_names_the_record() {
        let recs = vec![
            FlowRec {
                t: Time(5),
                src: 0,
                dst: 1,
                bytes: 4096,
            },
            FlowRec {
                t: Time(9),
                src: 1,
                dst: 0,
                bytes: 4096,
            },
        ];
        let buf = roundtrip(&recs, 2);
        // Cut mid-way through the second record.
        let mut r = TraceReader::new(&buf[..buf.len() - 2]).unwrap();
        assert!(r.next_record().unwrap().is_some());
        match r.next_record() {
            Err(TraceError::Truncated {
                record: 1,
                expected: 2,
            }) => {}
            other => panic!("expected Truncated, got {other:?}"),
        }
    }

    #[test]
    fn trailing_data_rejected() {
        let recs = vec![FlowRec {
            t: Time(5),
            src: 0,
            dst: 1,
            bytes: 64,
        }];
        let mut buf = roundtrip(&recs, 2);
        buf.push(0x00);
        let mut r = TraceReader::new(&buf[..]).unwrap();
        assert!(r.next_record().unwrap().is_some());
        match r.next_record() {
            Err(TraceError::TrailingData { expected: 1 }) => {}
            other => panic!("expected TrailingData, got {other:?}"),
        }
    }

    #[test]
    fn self_flow_rejected_on_both_sides() {
        let rec = FlowRec {
            t: Time(1),
            src: 1,
            dst: 1,
            bytes: 64,
        };
        let mut buf = Vec::new();
        let mut w = TraceWriter::new(&mut buf, 4, 1).unwrap();
        match w.push(rec) {
            Err(TraceError::BadRecord { record: 0, reason }) => {
                assert!(reason.contains("self-flow"), "{reason}");
            }
            other => panic!("expected BadRecord, got {other:?}"),
        }
    }

    #[test]
    fn writer_count_mismatch() {
        let mut buf = Vec::new();
        let w = TraceWriter::new(&mut buf, 4, 2).unwrap();
        match w.finish() {
            Err(TraceError::CountMismatch {
                found: 0,
                expected: 2,
            }) => {}
            other => panic!("expected CountMismatch, got {other:?}"),
        }
    }

    #[test]
    fn synthesis_is_deterministic_and_sorted() {
        let spec = TraceGenSpec {
            nodes: 8,
            flows: 500,
            bytes: 2048,
            mean_gap_ns: 100,
            pattern: TracePattern::Uniform,
            seed: 42,
        };
        let mut a = Vec::new();
        synthesize(&spec, &mut a).unwrap();
        let mut b = Vec::new();
        synthesize(&spec, &mut b).unwrap();
        assert_eq!(a, b, "same spec, byte-identical trace");
        let mut r = TraceReader::new(&a[..]).unwrap();
        let mut last = Time::ZERO;
        let mut n = 0;
        while let Some(rec) = r.next_record().unwrap() {
            assert!(rec.t >= last);
            assert_ne!(rec.src, rec.dst);
            last = rec.t;
            n += 1;
        }
        assert_eq!(n, 500);
    }

    #[test]
    fn skip_fast_forwards() {
        let spec = TraceGenSpec {
            nodes: 4,
            flows: 50,
            bytes: 512,
            mean_gap_ns: 10,
            pattern: TracePattern::Hotspot {
                hotspots: 1,
                pct: 50,
            },
            seed: 7,
        };
        let mut buf = Vec::new();
        synthesize(&spec, &mut buf).unwrap();
        let mut all = TraceReader::new(&buf[..]).unwrap();
        let mut expect = Vec::new();
        while let Some(rec) = all.next_record().unwrap() {
            expect.push(rec);
        }
        let mut r = TraceReader::new(&buf[..]).unwrap();
        r.skip(30).unwrap();
        assert_eq!(r.position(), 30);
        assert_eq!(r.next_record().unwrap(), Some(expect[30]));
    }
}
