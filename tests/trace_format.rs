//! Property tests for the IBTR flow-trace format: encode → decode is
//! the identity over arbitrary record sequences, every corruption mode
//! (truncation, foreign magic, trailing bytes, lying headers) fails
//! with a structured found-vs-expected error, and synthesis is pinned
//! byte-for-byte so the on-disk format can never drift silently.

use ibsim::prelude::*;
use ibsim_traffic::flowtrace::{self, FORMAT_VERSION, MAGIC};
use ibsim_traffic::{FlowRec, TraceError, TraceGenSpec, TracePattern, TraceReader, TraceWriter};
use proptest::prelude::*;

/// Header length: magic + version + nodes + records.
const HEADER: usize = 4 + 4 + 4 + 8;

/// Turn a proptest-drawn raw tuple stream into valid records: times
/// accumulate (sorted), nodes fold into range, self-flows are bumped.
fn mk_records(nodes: u32, raw: &[(u64, u32, u32, u32)]) -> Vec<FlowRec> {
    let mut t = 0u64;
    raw.iter()
        .map(|&(dt, s, d, bytes)| {
            t += dt;
            let src = s % nodes;
            let mut dst = d % nodes;
            if dst == src {
                dst = (dst + 1) % nodes;
            }
            FlowRec {
                t: Time(t),
                src,
                dst,
                bytes,
            }
        })
        .collect()
}

fn encode(nodes: u32, records: &[FlowRec]) -> Vec<u8> {
    let mut buf = Vec::new();
    let mut w = TraceWriter::new(&mut buf, nodes, records.len() as u64).unwrap();
    for &r in records {
        w.push(r).unwrap();
    }
    w.finish().unwrap();
    buf
}

fn decode_all(buf: &[u8]) -> Result<Vec<FlowRec>, TraceError> {
    let mut r = TraceReader::new(buf)?;
    let mut out = Vec::new();
    while let Some(rec) = r.next_record()? {
        out.push(rec);
    }
    Ok(out)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any valid record sequence survives the encode → decode round
    /// trip exactly: same times, same endpoints, same sizes.
    #[test]
    fn roundtrip_is_identity(
        nodes in 2u32..200,
        raw in prop::collection::vec(
            (0u64..2_000_000, any::<u32>(), any::<u32>(), 1u32..5_000_000),
            0..300,
        ),
    ) {
        let records = mk_records(nodes, &raw);
        let buf = encode(nodes, &records);
        let got = decode_all(&buf).unwrap();
        prop_assert_eq!(got, records);
        // And the header survives too.
        let r = TraceReader::new(&buf[..]).unwrap();
        prop_assert_eq!(r.nodes(), nodes);
        prop_assert_eq!(r.records(), raw.len() as u64);
    }

    /// Cutting the stream anywhere strictly inside it fails loudly —
    /// inside the header as an i/o error, inside the records as
    /// `Truncated` naming the record that tore (the final varint byte
    /// of a record is the only cut that shifts blame to the *next*
    /// record, which the lying header then reports as truncated).
    #[test]
    fn any_truncation_is_detected(
        nodes in 2u32..50,
        raw in prop::collection::vec(
            (0u64..1_000_000, any::<u32>(), any::<u32>(), 1u32..1_000_000),
            1..100,
        ),
        frac in 0.0f64..1.0,
    ) {
        let records = mk_records(nodes, &raw);
        let buf = encode(nodes, &records);
        let cut = (buf.len() as f64 * frac) as usize; // always < len
        let err = decode_all(&buf[..cut]).expect_err("truncated trace accepted");
        match err {
            TraceError::Io(_) => prop_assert!(cut < HEADER, "i/o error past the header at cut {cut}"),
            TraceError::Truncated { expected, .. } => {
                prop_assert!(cut >= HEADER);
                prop_assert_eq!(expected, records.len() as u64);
            }
            other => prop_assert!(false, "unexpected error for cut {}: {:?}", cut, other),
        }
    }

    /// Any corruption of the magic is named back to the caller with the
    /// bytes actually found.
    #[test]
    fn corrupt_magic_is_named(byte in 0usize..4, val in any::<u8>()) {
        let mut buf = encode(4, &mk_records(4, &[(10, 0, 1, 64)]));
        prop_assume!(buf[byte] != val);
        buf[byte] = val;
        match decode_all(&buf).expect_err("foreign magic accepted") {
            TraceError::BadMagic { found } => prop_assert_eq!(&found[..], &buf[..4]),
            other => prop_assert!(false, "unexpected error: {:?}", other),
        }
    }

    /// Bytes after the last declared record are rot, not slack.
    #[test]
    fn trailing_bytes_are_rejected(extra in prop::collection::vec(any::<u8>(), 1..16)) {
        let mut buf = encode(4, &mk_records(4, &[(10, 0, 1, 64), (5, 2, 3, 128)]));
        buf.extend_from_slice(&extra);
        match decode_all(&buf).expect_err("trailing bytes accepted") {
            TraceError::TrailingData { expected } => prop_assert_eq!(expected, 2),
            other => prop_assert!(false, "unexpected error: {:?}", other),
        }
    }
}

/// A version from the future is refused with both numbers in hand.
#[test]
fn future_version_is_refused() {
    let mut buf = encode(4, &mk_records(4, &[(10, 0, 1, 64)]));
    buf[4..8].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
    match decode_all(&buf).expect_err("future version accepted") {
        TraceError::BadVersion { found, expected } => {
            assert_eq!(found, FORMAT_VERSION + 1);
            assert_eq!(expected, FORMAT_VERSION);
        }
        other => panic!("unexpected error: {other:?}"),
    }
}

/// A header declaring more records than the stream carries reads as a
/// truncated copy — the reader trusts bytes, not declarations.
#[test]
fn lying_record_count_reads_as_truncation() {
    let mut buf = encode(4, &mk_records(4, &[(10, 0, 1, 64)]));
    buf[12..20].copy_from_slice(&2u64.to_le_bytes());
    match decode_all(&buf).expect_err("lying header accepted") {
        TraceError::Truncated { record, expected } => {
            assert_eq!(record, 1);
            assert_eq!(expected, 2);
        }
        other => panic!("unexpected error: {other:?}"),
    }
}

/// FNV-1a over a byte stream — a stable pin that cannot drift with
/// rustc's hasher internals.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x1_0000_01b3);
    }
    h
}

/// Synthesis determinism, twice over: the same spec produces identical
/// bytes on repeated runs, and a fixed spec's digest is pinned so any
/// change to the record layout, the varint coding, or the synthesis
/// RNG stream fails here first (bump the pin only with a deliberate
/// `FORMAT_VERSION` change).
#[test]
fn synthesis_is_pinned_byte_for_byte() {
    let spec = TraceGenSpec {
        nodes: 16,
        flows: 4_000,
        bytes: 2048,
        mean_gap_ns: 200,
        pattern: TracePattern::Hotspot {
            hotspots: 2,
            pct: 25,
        },
        seed: 0x7AACE,
    };
    let mut a = Vec::new();
    flowtrace::synthesize(&spec, &mut a).unwrap();
    let mut b = Vec::new();
    flowtrace::synthesize(&spec, &mut b).unwrap();
    assert_eq!(a, b, "synthesis is not deterministic");
    assert_eq!(
        fnv1a(&a),
        0xab22_1298_ecaf_d270,
        "IBTR byte stream drifted: record layout, varint coding, or the \
         synthesis RNG changed without a FORMAT_VERSION bump"
    );
}

/// The compactness claim the module documents: delta-encoded varints
/// keep a realistic record under 10 bytes.
#[test]
fn records_stay_compact() {
    let spec = TraceGenSpec::uniform_load(64, 10_000, 4096, 13.5, 60);
    let mut buf = Vec::new();
    flowtrace::synthesize(&spec, &mut buf).unwrap();
    let per_record = (buf.len() - HEADER) as f64 / spec.flows as f64;
    assert!(
        per_record < 10.0,
        "{per_record:.1} bytes per record — the delta coding regressed"
    );
    assert_eq!(buf[..4], MAGIC);
}

/// A small valid TEST_8 trace: 40 uniform flows.
fn test8_trace() -> Vec<u8> {
    let mut buf = Vec::new();
    let spec = TraceGenSpec::uniform_load(8, 40, 2048, 13.5, 50);
    flowtrace::synthesize(&spec, &mut buf).unwrap();
    buf
}

/// Hostile bytes end in `Ok` or a named error at every layer that
/// reads them, never in an unwind: the reader, the workload check
/// (which installs the workload on a bare TEST_8 fabric and decodes the
/// whole trace), and — for what the check accepts — a short run.
fn hostile_trace_is_refused_or_runs(bytes: &[u8]) -> Result<(), TestCaseError> {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static CASE: AtomicUsize = AtomicUsize::new(0);
    if let Err(e) = decode_all(bytes) {
        prop_assert!(!e.to_string().is_empty());
    }
    let path = std::env::temp_dir().join(format!(
        "ibsim_hostile_{}_{}.ibtr",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::write(&path, bytes).unwrap();
    let spec = WorkloadSpec::parse(&format!("trace:{}", path.display())).unwrap();
    let topo = FatTreeSpec::TEST_8.build();
    let checked = ibsim::workload::check(&spec, &topo);
    if checked.is_ok() {
        let dur = RunDurations {
            warmup: TimeDelta::from_us(10),
            measure: TimeDelta::from_us(40),
        };
        let r = run_workload(&topo, NetConfig::paper(), &spec, dur);
        prop_assert!(r.records_fed <= 40, "{} records fed", r.records_fed);
    }
    std::fs::remove_file(&path).ok();
    if let Err(e) = checked {
        prop_assert!(e.contains("trace"), "{}", e);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary bytes, half of them behind a valid magic and version
    /// so they reach the header and record decoders.
    #[test]
    fn arbitrary_bytes_never_unwind(
        framed in any::<bool>(),
        tail in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        let mut bytes = Vec::new();
        if framed {
            bytes.extend_from_slice(&MAGIC);
            bytes.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        }
        bytes.extend_from_slice(&tail);
        hostile_trace_is_refused_or_runs(&bytes)?;
    }

    /// Every single-byte flip of a valid trace.
    #[test]
    fn flipped_bytes_never_unwind(at in any::<usize>(), val in any::<u8>()) {
        let mut bytes = test8_trace();
        let at = at % bytes.len();
        bytes[at] ^= val | 1;
        hostile_trace_is_refused_or_runs(&bytes)?;
    }

    /// Headers that lie about the node count (up to `u32::MAX`, which
    /// once sized a staging table of 2^32 entries before the count was
    /// compared with the fabric) or the record count.
    #[test]
    fn lying_headers_never_unwind(
        any_nodes in any::<u32>(),
        pick in 0usize..6,
        records in any::<u64>(),
        lie_about_records in any::<bool>(),
    ) {
        let mut bytes = test8_trace();
        let nodes = [0, 1, 7, 9, u32::MAX, any_nodes][pick];
        if lie_about_records {
            bytes[12..20].copy_from_slice(&(records % 80).to_le_bytes());
        } else {
            bytes[8..12].copy_from_slice(&nodes.to_le_bytes());
        }
        hostile_trace_is_refused_or_runs(&bytes)?;
    }
}
