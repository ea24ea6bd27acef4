//! Resumed ≡ uninterrupted: rows of the equivalence table
//! (`tests/common`), and the refusals of the checkpoint subsystem.
//!
//! The contract under test: `run_until(T); capture; restore onto a
//! fresh fabric; run_until(H)` holds state *identical* to running
//! straight to `H` — with every stateful overlay armed (the invariant
//! audit, telemetry sampling), and through a runner's checkpoint files.
//! Identity is checked on the full [`NetworkState`] tree (event queue
//! with original `(time, seq)` keys, every buffer, CCTI, ledger and
//! sample row), which is strictly stronger than comparing end-of-run
//! CSVs.
//!
//! Also here: the corruption/negative paths (bumped format version,
//! truncated payload, wrong magic, checkpoint from a different fabric,
//! impossible device state — all structured errors, never panics) and
//! the committed golden checkpoints the CI leg diffs structurally
//! (re-bless with `IBSIM_BLESS=1 cargo test`).

use ibsim::bisect::{diff_values, render_diff};
use ibsim::checkpoint::{decode, encode, CheckpointHeader, StateError, FORMAT_VERSION};
use ibsim::prelude::*;
use ibsim_cc::FlowCcState;
use ibsim_net::NetworkState;
use proptest::prelude::*;
use serde::Serialize;

mod common;
use common::{Desc, Runner, SEED};

/// TEST_8's silent forest at `seed`, CC as asked, nothing armed.
fn fat8(seed: u64, cc: bool) -> Desc {
    Desc::silent(FatTreeSpec::TEST_8.build(), 1)
        .seed(seed)
        .cc(cc)
}

/// [`fat8`] fully loaded: audit and telemetry armed.
fn loaded(seed: u64, cc: bool) -> Desc {
    fat8(seed, cc).arm("audit=20000 telemetry=50")
}

/// A fresh [`loaded`] network, not yet run.
fn loaded_net(seed: u64, cc: bool) -> Network {
    loaded(seed, cc).build("")
}

#[test]
fn roundtrip_mid_warmup_cc_on() {
    loaded(SEED, true).at(&[700]).check(&["resume=150"]);
}

#[test]
fn roundtrip_cc_off() {
    loaded(SEED, false).at(&[700]).check(&["resume=350"]);
}

/// Mid-run on the same CC-on fabric: past the warm-up, while the
/// hotspot's congestion tree is built.
#[test]
fn roundtrip_no_faults() {
    loaded(SEED, true).at(&[700]).check(&["resume=250"]);
}

/// Degenerate capture points: before the first event and at the end.
#[test]
fn roundtrip_at_zero_and_at_horizon() {
    loaded(7, true)
        .at(&[400])
        .check(&["resume=0", "resume=400"]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any capture instant in [0, horizon], any seed, either CC mode:
    /// the round trip is exact.
    #[test]
    fn roundtrip_is_exact_everywhere(
        seed in 0u64..1_000,
        cc in proptest::bool::ANY,
        ck_us in 0u64..=500,
    ) {
        loaded(seed, cc).at(&[500]).check(&[&format!("resume={ck_us}")]);
    }
}

// ---------------------------------------------------------------------
// Negative paths: every way a restore can go wrong is a structured
// error naming the mismatch — never a panic, never a silent cold start.
// ---------------------------------------------------------------------

/// The loaded fixture at seed 3, captured at 200 µs: the header and
/// state of its (memoised) serial baseline.
fn tiny_checkpoint() -> (CheckpointHeader, NetworkState) {
    baseline_capture(&loaded(3, true).at(&[200]))
}

/// The header and state of `d`'s serial baseline at its last capture.
fn baseline_capture(d: &Desc) -> (CheckpointHeader, NetworkState) {
    let state = d.check(&[]).0.pop().expect("a capture");
    let digest = ibsim::checkpoint::digest(&d.build(""));
    let header = CheckpointHeader::new(state.now.as_ps(), state.events_processed, digest);
    (header, state)
}

/// The checkpoint document `encode` streams for `state`.
fn encoded(header: &CheckpointHeader, state: &NetworkState) -> String {
    let mut out = Vec::new();
    encode(&mut out, header, state).expect("writing to memory cannot fail");
    String::from_utf8(out).expect("the encoder writes UTF-8")
}

#[test]
fn bumped_version_is_rejected_with_both_versions_named() {
    // 0 was never written; 1 carried the retired fault overlay; 2 is
    // the retired second backend's form; 4 is the next bump's.
    assert_eq!(FORMAT_VERSION, 3);
    let (mut header, state) = tiny_checkpoint();
    for version in [0, 1, 2, 4] {
        header.version = version;
        let text = encoded(&header, &state);
        match decode(&text) {
            Err(StateError::VersionMismatch { found, expected }) => {
                assert_eq!((found, expected), (version, FORMAT_VERSION));
            }
            other => panic!("v{version}: expected VersionMismatch, got {other:?}"),
        }
    }
}

#[test]
fn wrong_magic_is_rejected() {
    let (mut header, state) = tiny_checkpoint();
    header.magic = "telemetry-csv".into();
    let text = encoded(&header, &state);
    match decode(&text) {
        Err(StateError::BadMagic { found }) => assert_eq!(found, "telemetry-csv"),
        other => panic!("expected BadMagic, got {other:?}"),
    }
}

#[test]
fn truncated_payload_is_rejected_not_panicking() {
    let tiny = tiny_checkpoint_text();
    let text = &tiny.text;
    // Chop at several depths: mid-header, mid-state, last byte.
    for cut in [text.len() / 50, text.len() / 2, text.len() - 1] {
        let err = decode(&text[..cut]).expect_err("truncated text must not decode");
        let msg = err.to_string();
        assert!(
            matches!(
                err,
                StateError::Truncated { .. } | StateError::Corrupt { .. }
            ),
            "cut at {cut}: expected Truncated/Corrupt, got {msg}"
        );
        assert!(!msg.is_empty());
    }
    // Cut exactly between two devices, before and after the comma: a
    // streaming reader that took the short array would pass these.
    for ends in [&tiny.switch_ends, &tiny.hca_ends] {
        let end = ends[ends.len() / 2];
        for cut in [end, end + 1] {
            match decode(&text[..cut]) {
                Err(StateError::Truncated { .. }) => {}
                other => panic!("cut at {cut}: want Truncated, got {other:?}"),
            }
        }
    }
}

/// `tiny_checkpoint`'s text, encoded once, and the byte offset just
/// past each switch and each HCA in it.
struct TinyText {
    text: String,
    switch_ends: Vec<usize>,
    hca_ends: Vec<usize>,
}

fn tiny_checkpoint_text() -> &'static TinyText {
    static TEXT: std::sync::OnceLock<TinyText> = std::sync::OnceLock::new();
    TEXT.get_or_init(|| {
        let (header, state) = tiny_checkpoint();
        let text = encoded(&header, &state);
        TinyText {
            switch_ends: element_ends(&text, "switches", &state.switches),
            hca_ends: element_ends(&text, "hcas", &state.hcas),
            text,
        }
    })
}

/// The offset just past each element of the array `key` holds in
/// `text`, whose elements are `xs`.
fn element_ends<T: Serialize>(text: &str, key: &str, xs: &[T]) -> Vec<usize> {
    let open = format!("\"{key}\":[");
    let start = text.find(&open).expect("the key is in the text");
    assert_eq!(text.rfind(&open), Some(start), "`{key}` appears once");
    let mut at = start + open.len() - 1; // the byte before element 0
    let ends: Vec<usize> = xs
        .iter()
        .map(|x| {
            at += 1 + serde_json::to_string(x).unwrap().len();
            at
        })
        .collect();
    assert_eq!(&text[at..=at], "]", "`{key}` ends where its elements do");
    assert!(ends.len() >= 2, "`{key}` has two elements to cut between");
    ends
}

/// The tiny text reshaped: `hcas` removed, a key repeated, bytes after
/// the document. Each is a `Corrupt` naming what is wrong.
fn malformed_tiny_texts() -> [(String, &'static str); 4] {
    let TinyText { text, hca_ends, .. } = tiny_checkpoint_text();
    let hcas_at = text.find(",\"hcas\":[").unwrap();
    let hcas_end = hca_ends.last().unwrap() + 1;
    let hcas = &text[hcas_at..hcas_end];
    [
        (text.replacen(hcas, "", 1), "missing field `hcas`"),
        (
            text.replacen(hcas, &hcas.repeat(2), 1),
            "duplicate key `hcas`",
        ),
        (
            text.replacen(",\"primed\":", ",\"primed\":true,\"primed\":", 1),
            "duplicate key `primed`",
        ),
        (format!("{text}{{}}"), "trailing characters"),
    ]
}

#[test]
fn malformed_documents_are_corrupt_naming_the_fault() {
    for (text, want) in malformed_tiny_texts() {
        match decode(&text) {
            Err(StateError::Corrupt { detail }) => {
                assert!(detail.contains(want), "want {want:?}, got {detail:?}")
            }
            other => panic!("{want}: want Corrupt, got {other:?}"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Arbitrary bytes, deep nesting, truncations (anywhere, or
    /// between two switches or two HCAs), single-byte flips and the
    /// malformed reshapes of a valid TEST_8 capture: the streaming
    /// `decode` gives a state or a named `StateError`. Never a panic.
    #[test]
    fn hostile_checkpoint_text_never_unwinds(
        shape in 0u8..7,
        at in 0.0f64..1.0,
        flip in 1u8..=255,
        noise in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        let tiny = tiny_checkpoint_text();
        let valid = tiny.text.as_bytes();
        let i = (at * valid.len() as f64) as usize;
        let pick = |xs: &[usize]| xs[(at * xs.len() as f64) as usize];
        let bytes = match shape {
            0 => noise,
            1 => valid[..i].to_vec(),
            2 => {
                let mut b = valid.to_vec();
                b[i] ^= flip;
                b
            }
            3 => "[".repeat(i).into_bytes(),
            4 => valid[..pick(&tiny.switch_ends) + (flip & 1) as usize].to_vec(),
            5 => valid[..pick(&tiny.hca_ends) + (flip & 1) as usize].to_vec(),
            _ => {
                let texts = malformed_tiny_texts();
                texts[flip as usize % texts.len()].0.clone().into_bytes()
            }
        };
        if let Err(e) = decode(&String::from_utf8_lossy(&bytes)) {
            prop_assert!(!e.to_string().is_empty());
        }
    }
}

#[test]
fn checkpoint_from_different_fabric_is_rejected_naming_the_field() {
    let (header, state) = tiny_checkpoint();
    // A different fabric: one switch, four HCAs.
    let topo = single_switch(4, 2);
    let mut other = Network::new(&topo, NetConfig::paper());
    let live = ibsim::checkpoint::digest(&other);
    match header.validate_topo(&live) {
        Err(StateError::TopologyMismatch {
            field,
            found,
            expected,
        }) => {
            assert_eq!(field, "switches");
            assert_ne!(found, expected);
        }
        other => panic!("expected TopologyMismatch, got {other:?}"),
    }
    // The state-level restore also refuses, naming the count mismatch.
    let err = other
        .restore(&state)
        .expect_err("cross-fabric restore must fail");
    assert!(err.contains("switches"), "unhelpful error: {err}");
}

#[test]
fn overlay_mismatch_is_rejected() {
    // A checkpoint with the audit and telemetry armed, restored into a
    // fabric without one of them (and the other way round): every
    // direction is a structured error naming the overlay.
    let mut loaded = loaded_net(5, true);
    loaded.run_until(Time::from_us(100));
    let armed_state = loaded.checkpoint();
    let d = fat8(5, true);
    let err = (d.build("audit=20000").restore(&armed_state))
        .expect_err("telemetry-overlay mismatch must fail");
    assert!(err.contains("telemetry"), "unhelpful error: {err}");
    let err = (d.build("telemetry=50").restore(&armed_state))
        .expect_err("audit-overlay mismatch must fail");
    assert!(err.contains("audit"), "unhelpful error: {err}");

    let mut bare_run = d.build("");
    bare_run.run_until(Time::from_us(100));
    let err = loaded_net(5, true)
        .restore(&bare_run.checkpoint())
        .expect_err("overlay mismatch must fail");
    assert!(err.contains("audit"), "unhelpful error: {err}");
}

#[test]
fn corrupt_telemetry_cadence_is_rejected() {
    // A cadence position that is not a multiple of the sampling period
    // is structurally impossible; restore must reject it rather than
    // trip the sampler's internal assertion later.
    let (_, mut state) = tiny_checkpoint();
    let tel = state.telemetry.as_mut().expect("telemetry armed");
    tel.cadence_next = Time(tel.cadence_next.as_ps() + 1);
    let mut net = loaded_net(3, true);
    let err = net
        .restore(&state)
        .expect_err("off-cadence restore must fail");
    assert!(err.contains("cadence"), "unhelpful error: {err}");
}

/// Restore the tiny capture after `corrupt` onto a fresh loaded
/// fabric: it must be refused with an error naming every `want`.
fn refused(corrupt: impl FnOnce(&mut NetworkState), want: &[&str]) {
    let (_, mut state) = tiny_checkpoint();
    corrupt(&mut state);
    let err = (loaded_net(3, true).restore(&state)).expect_err("a corrupt capture is refused");
    assert!(
        want.iter().all(|w| err.contains(w)),
        "unhelpful error: {err}"
    );
}

#[test]
fn corrupt_telemetry_windows_are_rejected() {
    // A ring window larger than its lifetime push count, or larger
    // than the ring itself, cannot come from a real run.
    let (_, state) = tiny_checkpoint();
    let tel = state.telemetry.as_ref().expect("telemetry armed");
    assert!(!tel.rows.is_empty() && !tel.flight_events.is_empty());
    let corruptions: [fn(&mut NetworkState); 4] = [
        |s| s.telemetry.as_mut().unwrap().rows_pushed = 0,
        |s| s.telemetry.as_mut().unwrap().flight_recorded = 0,
        |s| {
            let tel = s.telemetry.as_mut().unwrap();
            let row = tel.rows[0].clone();
            tel.rows = vec![row; 5000];
            tel.rows_pushed = 5000;
        },
        |s| {
            let tel = s.telemetry.as_mut().unwrap();
            let ev = tel.flight_events[0].clone();
            tel.flight_events = vec![ev; 2000];
            tel.flight_recorded = 2000;
        },
    ];
    for corrupt in corruptions {
        refused(corrupt, &["telemetry"]);
    }
}

#[test]
fn corrupt_occupancy_histogram_is_rejected() {
    let truncate = |s: &mut NetworkState| s.telemetry.as_mut().unwrap().occ_hist.bins.truncate(3);
    refused(truncate, &["telemetry", "3 bins"]);
}

#[test]
fn corrupt_latency_histogram_is_rejected() {
    refused(|s| s.hcas[2].latency.bins.truncate(3), &["hca 2", "3 bins"]);
}

/// HCA `hca`'s CC flow entries in a captured state.
fn ib_flows(s: &mut NetworkState, hca: usize) -> &mut Vec<FlowCcState> {
    &mut s.hcas[hca].cc.flows
}

#[test]
fn corrupt_cc_flow_entries_are_rejected() {
    // A CCTI above CCTI_Limit, or an untracked entry carrying a CCTI or
    // a gate, cannot come from a real run: restore names the HCA, the
    // flow, the field, its value and the bound it breaks.
    let (_, mut state) = tiny_checkpoint();
    let (hca, key) = (0..state.hcas.len())
        .find_map(|h| Some((h, ib_flows(&mut state, h).iter().position(|f| f.tracked)?)))
        .expect("some flow is braked at 200 µs");
    let over = NetConfig::paper().cc.expect("CC on").ccti_limit + 1;
    let want = format!(
        "hca {hca}: cc flow {key}: ccti {over} exceeds CCTI_Limit {}",
        over - 1
    );
    refused(|s| ib_flows(s, hca)[key].ccti = over, &[&want]);

    let end = ib_flows(&mut state, 1).len();
    let untracked = |ccti, ps| FlowCcState {
        ccti,
        tracked: false,
        next_allowed: Time(ps),
    };
    let want = format!("hca 1: cc flow {end}: next_allowed 1000 exceeds the untracked bound 0");
    refused(|s| ib_flows(s, 1).push(untracked(0, 1000)), &[&want]);
    let want = format!("hca 1: cc flow {end}: ccti 5 exceeds the untracked bound 0");
    refused(|s| ib_flows(s, 1).push(untracked(5, 0)), &[&want]);
}

#[test]
fn inconsistent_flow_sequence_is_rejected() {
    // A receiver's last delivered seq from a source is implied by the
    // pair's live packets and the source's tx_seq: a checkpoint that
    // says otherwise, or holds a packet no send accounts for, cannot
    // come from a real run. The honest one restores and re-captures
    // byte for byte.
    let (_, state) = tiny_checkpoint();
    let mut net = loaded_net(3, true);
    net.restore(&state).expect("the captured state restores");
    assert!(
        net.checkpoint() == state,
        "restore then capture changed the state"
    );

    let (d, src) = (0..state.hcas.len())
        .find_map(|d| Some((d, state.hcas[d].last_seq.iter().position(|&q| q > 0)?)))
        .expect("something was delivered by 200 µs");
    let was = state.hcas[d].last_seq[src];
    let want = format!(
        "hca {d}: last_seq from {src} is {}, the fabric implies {was}",
        was + 2
    );
    refused(|s| s.hcas[d].last_seq[src] = was + 2, &[&want]);

    let (d, i) = first_data_in_a_sink(&state);
    let p = state.hcas[d].sink_queue[i];
    let sent = state.hcas[p.src as usize].seqs[p.dst as usize];
    let (src, dst, seq) = (p.src, p.dst, sent + 3);
    let want = format!("hca {src}: a live packet to {dst} has seq {seq}, above its tx_seq {sent}");
    refused(|s| s.hcas[d].sink_queue[i].seq = seq, &[&want]);
}

/// The first data packet waiting in any sink of `state`: its HCA and
/// its index in that sink's queue.
fn first_data_in_a_sink(state: &NetworkState) -> (usize, usize) {
    let data_in_sink = |d: usize| state.hcas[d].sink_queue.iter().position(|p| !p.is_cnp());
    (0..state.hcas.len())
        .find_map(|d| Some((d, data_in_sink(d)?)))
        .expect("a data packet waits in some sink at 200 µs")
}

#[test]
fn live_packet_with_sequence_zero_is_rejected() {
    // Sends number each pair from 1, so a live packet at seq 0 was
    // never sent.
    let (_, state) = tiny_checkpoint();
    let (d, i) = first_data_in_a_sink(&state);
    let p = state.hcas[d].sink_queue[i];
    let want = format!(
        "hca {}: a live packet to {} has seq 0, sends start at 1",
        p.src, p.dst
    );
    refused(|s| s.hcas[d].sink_queue[i].seq = 0, &[&want]);
}

#[test]
fn live_packet_from_outside_the_fabric_is_rejected() {
    // A source no HCA of the fabric has: restore names it and the
    // fabric's size instead of indexing past the per-peer table.
    let (_, state) = tiny_checkpoint();
    let (d, i) = first_data_in_a_sink(&state);
    let dst = state.hcas[d].sink_queue[i].dst;
    let want = format!("a live packet runs 99 -> {dst}, the fabric has 8 nodes");
    refused(|s| s.hcas[d].sink_queue[i].src = 99, &[&want]);
}

#[test]
fn drained_pair_mark_must_equal_its_tx_seq() {
    // A pair with nothing live has delivered all it sent: its mark is
    // the sender's tx_seq, and one below it is refused.
    let (_, state) = tiny_checkpoint();
    let (d, src, sent) = (0..state.hcas.len())
        .flat_map(|d| (0..state.hcas.len()).map(move |s| (d, s)))
        .map(|(d, s)| (d, s, state.hcas[s].seqs[d]))
        .find(|&(d, s, sent)| sent > 0 && state.hcas[d].last_seq[s] == sent)
        .expect("some pair has delivered everything it sent by 200 µs");
    let want = format!(
        "hca {d}: last_seq from {src} is {}, the fabric implies {sent}",
        sent - 1
    );
    refused(|s| s.hcas[d].last_seq[src] = sent - 1, &[&want]);
}

/// The flow-order ledger is not in the checkpoint: restore seeds it
/// from the captured `last_seq`. Unseeded, the first delivery of every
/// pair already under way would read as out of order, and the resumed
/// run's closing audit pass would not be clean.
#[test]
fn restored_audit_resumes_the_delivery_marks() {
    loaded(3, true).at(&[600]).check(&["resume=200"]);
}

/// The seeded marks fork to the shards, and each shard advances only
/// its own receivers' marks: a capture restored onto two shards runs
/// on, genuinely split, to the serial state and a clean audit.
#[test]
fn restored_audit_resumes_the_delivery_marks_on_shards() {
    let d = fat8(3, true).arm("audit=20000").at(&[600]);
    d.check(&["resume=200 shards=2"]);
}

#[test]
fn skipped_sequence_after_restore_trips_the_flow_order_ledger() {
    // A pair whose next packet waits in its receiver's sink has it
    // renumbered one lower, and its mark lowered to match. Restore
    // accepts that: the implied mark agrees and no seq exceeds tx_seq.
    // Delivery then goes k, k + 2: the ledger names the skipped seq.
    // The audit runs no periodic pass, which would panic on the skip.
    let quiet_audit = || loaded(3, true).build(&format!("audit={}", u64::MAX));
    let mut net = quiet_audit();
    net.run_until(Time::from_us(200));
    let mut state = net.checkpoint();
    let (d, i, src, next) = (0..state.hcas.len())
        .find_map(|d| {
            let h = &state.hcas[d];
            let i = h.sink_queue.iter().position(|p| {
                let last = h.last_seq[p.src as usize];
                !p.is_cnp() && last > 0 && p.seq == last + 1
            })?;
            let p = h.sink_queue[i];
            Some((d, i, p.src as usize, p.seq))
        })
        .expect("some pair's next packet waits in a sink at 200 µs");
    state.hcas[d].sink_queue[i].seq = next - 1;
    state.hcas[d].last_seq[src] = next - 2;
    let mut net = quiet_audit();
    net.restore(&state)
        .expect("the renumbering keeps the implied marks");
    net.run_until(Time::from_us(600));
    let report = net.audit_now();
    let v = report
        .violations
        .iter()
        .find(|v| v.ledger == ibsim_net::LedgerKind::FlowOrder)
        .unwrap_or_else(|| panic!("the skip must trip the ledger:\n{}", report.render()));
    assert_eq!(v.subject, format!("hca {d} from {src}"));
    assert_eq!(
        (&v.expected, &v.actual),
        (&format!("seq {next}"), &format!("seq {}", next + 1))
    );
}

/// With CCTI_Min above 0 every send is gated, so flow entries are made
/// on the send path as well as by BECNs. Each starts at the floor: no
/// held flow ever reads below it, and the state restores, re-captures
/// and runs on byte for byte.
#[test]
fn fresh_cc_flows_start_at_ccti_min() {
    let mut d = loaded(3, true).at(&[100, 250, 400]);
    d.cfg.cc.as_mut().expect("CC on").ccti_min = 2;
    let (want, _) = d.check(&["resume=100", "resume=250", "resume=400"]);
    let mut held = 0;
    for (state, t) in want.iter().zip(&d.captures) {
        for (h, hs) in state.hcas.iter().enumerate() {
            for (key, f) in hs.cc.flows.iter().enumerate() {
                assert!(
                    !f.tracked || f.ccti >= 2,
                    "hca {h}: cc flow {key} holds ccti {} below CCTI_Min 2 at {t} µs",
                    f.ccti
                );
                held += f.tracked as usize;
            }
        }
    }
    assert!(held > 0, "no flow was held at any capture");
}

#[test]
fn overfull_switch_buffers_are_rejected() {
    // An input holding more blocks than its buffer, or a credit counter
    // above the buffer it stands for, cannot come from a real run.
    let (_, state) = tiny_checkpoint();
    let (sw, port, ov) = (state.switches.iter().enumerate())
        .flat_map(|(s, ss)| ss.ports.iter().enumerate().map(move |(p, ps)| (s, p, ps)))
        .find_map(|(s, p, ps)| Some((s, p, ps.voq.iter().position(|q| !q.is_empty())?)))
        .expect("a packet stands in some switch at 200 µs");
    let overfill = |s: &mut NetworkState| {
        let q = &mut s.switches[sw].ports[port].voq[ov];
        let d = q[0].clone();
        q.resize(300, d);
    };
    let at = format!("switch {sw} port {port} VL 0");
    refused(overfill, &[&at, "blocks queued", "holds 256"]);
    let credits = |s: &mut NetworkState| s.switches[1].ports[0].credits[0] = 100_000;
    refused(credits, &["switch 1 port 0 VL 0: 100000 credits"]);
}

// ---------------------------------------------------------------------
// Harness-level resume: `RunOptions::run_scenario` and
// `RunOptions::run_workload` save at `checkpoint_at` and resume from
// `resume_from` with byte-identical results, across plain, measured,
// moving-hotspot and workload runs, including captures on the edges
// where the measurement window opens or closes.
// ---------------------------------------------------------------------

fn dur_us(warmup_us: u64, measure_us: u64) -> RunDurations {
    RunDurations {
        warmup: TimeDelta::from_us(warmup_us),
        measure: TimeDelta::from_us(measure_us),
    }
}

/// The TEST_8 hotspot run the scenario resume rows share, 500 µs
/// measured after `warmup_us`, as JSON.
fn harness_run(opts: &RunOptions, warmup_us: u64, lifetime: Option<TimeDelta>) -> String {
    let topo = FatTreeSpec::TEST_8.build();
    let dur = dur_us(warmup_us, 500);
    let r = opts.run_scenario(
        &topo,
        NetConfig::paper(),
        RoleSpec::silent(8, 1),
        dur,
        lifetime,
        true,
    );
    serde_json::to_string(&r).expect("serialise result")
}

/// The resume row of the scenario run: save at `ck_us`, resume.
fn assert_harness_resume(ck_us: u64, warmup_us: u64, lifetime: Option<TimeDelta>) {
    let name = format!("scenario_{warmup_us}_{}", lifetime.map_or(0, |l| l.as_ps()));
    let run = Runner::new(&name, 1, |opts, _| harness_run(opts, warmup_us, lifetime));
    run.check(&[&format!("resume={ck_us}")]);
}

#[test]
fn harness_resume_mid_warmup() {
    assert_harness_resume(100, 200, None);
}

#[test]
fn harness_resume_mid_measurement() {
    assert_harness_resume(450, 200, None);
}

#[test]
fn harness_resume_moving_hotspots_mid_epoch() {
    // 150 µs epochs; 475 µs is mid-epoch, past warmup, after 3 moves.
    assert_harness_resume(475, 200, Some(TimeDelta::from_us(150)));
}

#[test]
fn harness_resume_moving_hotspots_at_epoch_boundary() {
    // 450 µs is exactly an epoch boundary: the capture lands before the
    // move at 450 µs, which the resumed run must re-execute.
    assert_harness_resume(450, 200, Some(TimeDelta::from_us(150)));
}

#[test]
fn harness_resume_moving_hotspots_zero_warmup() {
    // The window opens at 0, where no move falls; 325 µs is mid-epoch
    // after the moves at 150 and 300 µs.
    assert_harness_resume(325, 0, Some(TimeDelta::from_us(150)));
}

/// Hotspots first move one lifetime in, also when the window opens at
/// 0: a lifetime past the run's end never moves them, so the run is
/// the fixed-hotspot run.
#[test]
fn lifetime_past_the_run_never_moves_hotspots() {
    let opts = RunOptions::ambient();
    let moving = harness_run(opts, 0, Some(TimeDelta::from_us(600)));
    assert_eq!(moving, harness_run(opts, 0, None));
}

/// `RunOptions::run_workload` through a capture and a resume, with the
/// runner's 100 µs feed segments.
fn assert_workload_resume(spec: &str, ck_us: u64, warmup_us: u64, measure_us: u64) {
    let topo = FatTreeSpec::TEST_8.build();
    let spec = WorkloadSpec::parse(spec).expect("valid workload spec");
    let dur = dur_us(warmup_us, measure_us);
    let name = format!("wl{}_{ck_us}_{warmup_us}", spec.name());
    let run = Runner::new(&name, 1, |opts, _| {
        let r = opts.run_workload(&topo, NetConfig::paper(), &spec, dur);
        serde_json::to_string(&r).expect("serialise result")
    });
    run.check(&[&format!("resume={ck_us}")]);
}

/// The event builder on 40 µs slots: shifts mid-flight at 150 µs, and
/// segment edges on the measurement edges at 200 µs.
const EB: &str = "eb:frag=4096,fanin=8,shifts=8,slot_us=40";

#[test]
fn harness_resume_workload_mid_segment() {
    assert_workload_resume(EB, 150, 200, 400);
}

#[test]
fn harness_resume_workload_at_warmup_edge() {
    // The capture lands on the segment edge where the window opens,
    // before it opens: the resumed run must still open it.
    assert_workload_resume(EB, 200, 200, 400);
}

#[test]
fn harness_resume_workload_at_measure_end() {
    // The capture lands on the segment edge where the window closes.
    assert_workload_resume(EB, 200, 0, 200);
}

/// Mid-stream trace replay resumes exactly: the restored scripts carry
/// `fed` cursors, `skip_fed` fast-forwards a fresh reader past the
/// records the checkpoint already absorbed, and the driver re-enters
/// the segment grid before the capture.
#[test]
fn harness_resume_workload_trace_mid_segment() {
    let gen = ibsim_traffic::TraceGenSpec {
        nodes: 8,
        flows: 20_000,
        bytes: 2048,
        mean_gap_ns: 100,
        pattern: ibsim_traffic::TracePattern::Uniform,
        seed: 0xC4A1,
    };
    let path = std::env::temp_dir().join(format!("ibsim_ckpt_rt_{}.ibtr", std::process::id()));
    ibsim_traffic::flowtrace::synthesize_to(&gen, &path).unwrap();
    let spec = format!("trace:{}", path.display());
    let fed = trace_fed_at(&spec, 250, 100, 400);
    assert!(fed > 0, "250us into the stream, records must have been fed");
    assert_workload_resume(&spec, 250, 100, 400);
    std::fs::remove_file(&path).ok();
}

/// The trace records a runner's capture at `ck_us` holds as fed: one
/// before the first feed would leave `skip_fed` nothing to skip.
fn trace_fed_at(spec: &str, ck_us: u64, warmup_us: u64, measure_us: u64) -> u64 {
    let dir = std::env::temp_dir().join(format!("ibsim_ckpt_rt_{}_fed", std::process::id()));
    let opts = RunOptions {
        checkpoint_at: Some(ck_us),
        checkpoint_dir: dir.clone(),
        ..RunOptions::default()
    };
    let dur = dur_us(warmup_us, measure_us);
    let wl_spec = WorkloadSpec::parse(spec).expect("valid workload spec");
    let topo = FatTreeSpec::TEST_8.build();
    opts.run_workload(&topo, NetConfig::paper(), &wl_spec, dur);
    let (mut net, wl) = workload_net(spec, NetConfig::paper().seed);
    let label = ibsim::checkpoint::workload_label(&wl_spec, &dur);
    let (_, state) = ibsim::checkpoint::load_from(&dir, &net, &label).expect("saved capture");
    std::fs::remove_dir_all(&dir).ok();
    net.restore(&state).expect("restore trace fabric");
    let nodes = wl.feeder.expect("trace workload has a feeder").nodes();
    (0..nodes).map(|v| net.script_fed(v, 0)).sum()
}

// ---------------------------------------------------------------------
// Golden checkpoint: the committed snapshot the CI leg diffs against.
// ---------------------------------------------------------------------

/// Compare a capture against the committed golden file `name`
/// *structurally* (header equality + field-by-field state diff), so a
/// failure names drifted fields instead of dumping two JSON blobs; under
/// `IBSIM_BLESS`, rewrite the file instead. `restore_into`, when given,
/// is a fresh fabric configured like the one the golden was taken on;
/// the decoded golden must restore and run on it.
fn assert_matches_golden(
    name: &str,
    header: &CheckpointHeader,
    state: &NetworkState,
    restore_into: Option<Network>,
) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    // The streamed bytes are those of the whole document as one tree.
    let text = encoded(header, state);
    let doc = serde_json::json!({ "header": header, "state": state });
    assert!(
        text == serde_json::to_string(&doc).unwrap(),
        "streamed text differs from the tree's ({name})"
    );
    if std::env::var("IBSIM_BLESS").is_ok() {
        std::fs::write(&path, text).unwrap();
        eprintln!("blessed {}", path.display());
        return;
    }
    let golden_text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden checkpoint {} ({e}); bless it with IBSIM_BLESS=1",
            path.display()
        )
    });
    let (golden_header, golden_state) =
        decode(&golden_text).expect("committed golden checkpoint decodes");
    assert_eq!(
        &golden_header, header,
        "golden checkpoint header drifted ({name})"
    );
    let diffs = diff_values(&golden_state.to_value(), &state.to_value(), 25);
    assert!(
        diffs.is_empty(),
        "simulator state at the golden capture point drifted ({name}):\n{}",
        render_diff(&diffs)
    );
    // And the golden file still restores and runs on a live fabric.
    if let Some(mut live) = restore_into {
        live.restore(&golden_state).expect("golden state restores");
        live.run_until(Time::from_us(700));
    }
}

/// The golden `name` pins `d`'s serial baseline at its last capture,
/// the state every row of `d` is compared against.
fn assert_baseline_matches_golden(name: &str, d: &Desc, restore: bool) {
    let (header, state) = baseline_capture(d);
    assert_matches_golden(name, &header, &state, restore.then(|| d.build("")));
}

/// The fully loaded TEST_8 fixture, captured at 350 µs.
fn tiny_golden() -> Desc {
    loaded(SEED, true).at(&[350])
}

/// TEST_8-scale golden: runs on every `cargo test`.
#[test]
fn golden_tiny_checkpoint_is_stable() {
    assert_baseline_matches_golden("tiny_test8.ckpt.json", &tiny_golden(), true);
}

/// The committed tiny golden's baseline, reproduced under every shard
/// count. The fully loaded fixture has telemetry armed — a
/// serial-fallback condition — so what this pins is the *boundary*: a
/// `set_shards` call on such a run must be byte-free, falling back to
/// the serial engine without perturbing a single field.
#[test]
fn golden_tiny_checkpoint_is_stable_under_shards() {
    tiny_golden().check(&["shards=1", "shards=2", "shards=4", "shards=8"]);
}

/// The quick preset's CC-on hotspot cell (72 nodes), captured at 3 ms.
fn quick_golden() -> Desc {
    let preset = Preset::Quick;
    let d = Desc::silent(preset.topology(), preset.num_hotspots());
    Desc {
        cfg: preset.net_config(),
        ..d
    }
    .at(&[3_000])
}

/// Quick-preset golden: `#[ignore]`d for the debug-build loop; CI runs
/// it in the release job alongside the determinism hash pin.
#[test]
#[ignore = "simulates 3 ms on 72 nodes; run with --release -- --ignored"]
fn golden_quick_checkpoint_is_stable() {
    assert_baseline_matches_golden("quick_cc_on.ckpt.json", &quick_golden(), false);
}

/// The committed quick golden's baseline, reproduced by *genuinely
/// sharded* runs: the quick cell has no telemetry, so nothing forces
/// the serial fallback and every shard count must land on the
/// committed bytes through the full split/window/merge machinery.
#[test]
#[ignore = "simulates 3 ms on 72 nodes per shard count; run with --release -- --ignored"]
fn golden_quick_checkpoint_is_stable_under_shards() {
    quick_golden().check(&["shards=2", "shards=4", "shards=8"]);
}

// ---------------------------------------------------------------------
// Production-workload round trips: generator cursors in ClassState.
// ---------------------------------------------------------------------

/// Build a fabric with a workload installed, exactly as the runner does.
fn workload_net(spec: &str, seed: u64) -> (Network, ibsim_traffic::Workload) {
    let topo = FatTreeSpec::TEST_8.build();
    let mut net = Network::new(&topo, NetConfig::paper().with_seed(seed));
    let spec = ibsim_traffic::WorkloadSpec::parse(spec).expect("valid workload spec");
    let wl = spec.install(&mut net).expect("workload install");
    (net, wl)
}

/// A scripted workload (event builder, collective) checkpoints and
/// resumes from any instant by restore alone: the script cursor rides
/// in `ClassState`, so the interrupted run rejoins the uninterrupted
/// one byte for byte.
fn assert_scripted_workload_roundtrip(spec: &str, ck_at: Time, horizon: Time) {
    let (mut straight, _) = workload_net(spec, 0x1B51_C0DE);
    straight.run_until(ck_at);
    let saved = straight.checkpoint();
    straight.run_until(horizon);
    let want = straight.checkpoint();

    let (mut resumed, _) = workload_net(spec, 0x1B51_C0DE);
    resumed.restore(&saved).expect("restore workload fabric");
    resumed.run_until(horizon);
    let got = resumed.checkpoint();
    if want != got {
        let diffs = diff_values(&want.to_value(), &got.to_value(), 10);
        panic!(
            "workload {spec:?} resumed from {ck_at:?} diverged:\n{}",
            render_diff(&diffs)
        );
    }
}

/// Mid-shift: 150 µs is inside shift 3 of an event builder on 40 µs
/// slots — some fragments of the shift in flight, some not yet
/// released.
#[test]
fn workload_roundtrip_mid_event_builder_shift() {
    assert_scripted_workload_roundtrip(
        "eb:frag=4096,fanin=5,shifts=8,slot_us=40",
        Time::from_us(150),
        Time::from_us(600),
    );
}

/// Mid-phase: 45 µs is inside phase 1 of a recursive-doubling
/// all-reduce on 30 µs slots — partners mid-exchange.
#[test]
fn workload_roundtrip_mid_collective_phase() {
    assert_scripted_workload_roundtrip(
        "collective:algo=rd,bytes=16384,rounds=2,slot_us=30",
        Time::from_us(45),
        Time::from_us(500),
    );
    assert_scripted_workload_roundtrip(
        "collective:algo=ring,bytes=65536,rounds=1,slot_us=30",
        Time::from_us(45),
        Time::from_us(500),
    );
}

/// Committed workload golden: an event builder caught mid-shift, script
/// cursors and all. Pins the `ClassState` script fields in the on-disk
/// schema — any drift in how scripts checkpoint fails here naming the
/// field (re-bless with `IBSIM_BLESS=1 cargo test`).
#[test]
fn golden_workload_checkpoint_is_stable() {
    let spec = "eb:frag=4096,fanin=5,shifts=8,slot_us=40";
    let (mut net, _) = workload_net(spec, 0x1B51_C0DE);
    net.run_until(Time::from_us(150));
    let (fresh, _) = workload_net(spec, 0x1B51_C0DE);
    let (header, state) = (ibsim::checkpoint::header(&net), net.checkpoint());
    assert_matches_golden("wl_eb_test8.ckpt.json", &header, &state, Some(fresh));
}
