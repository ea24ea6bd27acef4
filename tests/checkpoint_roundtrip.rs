//! Round-trip guarantees of the checkpoint subsystem.
//!
//! The contract under test: `run_until(T); save; restore onto a fresh
//! fabric; run_until(H)` holds state *identical* to running straight
//! to `H` — with every stateful overlay armed (the invariant audit,
//! telemetry sampling). Identity is checked on
//! the full [`NetworkState`] tree (event queue with original `(time,
//! seq)` keys, every buffer, CCTI, ledger and sample row), which is
//! strictly stronger than comparing end-of-run CSVs.
//!
//! Also here: the corruption/negative paths (bumped format version,
//! truncated payload, wrong magic, checkpoint from a different fabric
//! — all structured errors, never panics) and the committed golden
//! checkpoint the CI leg diffs structurally (re-bless with
//! `IBSIM_BLESS=1 cargo test`).

use ibsim::bisect::{diff_values, render_diff};
use ibsim::checkpoint::{decode, encode, CheckpointHeader, StateError, FORMAT_VERSION};
use ibsim::prelude::*;
use ibsim_cc::FlowCcState;
use ibsim_net::{NetworkState, TelemetryConfig};
use proptest::prelude::*;
use serde::Serialize;

/// The silent forest on TEST_8's eight nodes, with one hotspot.
const SILENT_8: RoleSpec = RoleSpec::silent(8, 1);

/// A fully loaded tiny fabric: TEST_8 fat-tree, one hotspot, CC as
/// requested, audit and telemetry armed. Deterministic: two calls
/// build identical nets.
fn loaded_net(seed: u64, cc: bool) -> Network {
    let mut cfg = NetConfig::paper().with_seed(seed);
    if !cc {
        cfg.cc = None;
    }
    loaded(cfg)
}

fn loaded(cfg: NetConfig) -> Network {
    let mut net = Network::new(&FatTreeSpec::TEST_8.build(), cfg);
    net.enable_audit(20_000);
    net.enable_telemetry(TelemetryConfig::every(TimeDelta::from_us(50)));
    let _sc = Scenario::install_opts(SILENT_8, &mut net, PAPER_MSG_BYTES, true);
    net
}

/// The core identity check: interrupted and uninterrupted runs reach
/// byte-identical state at the horizon.
fn assert_roundtrip(seed: u64, cc: bool, ck_at_ps: u64, horizon_ps: u64) {
    let ck_at = Time(ck_at_ps);
    let horizon = Time(horizon_ps);

    let mut straight = loaded_net(seed, cc);
    straight.run_until(ck_at);
    let saved = straight.checkpoint();
    straight.run_until(horizon);
    let want = straight.checkpoint();

    let mut resumed = loaded_net(seed, cc);
    resumed
        .restore(&saved)
        .expect("restore onto an identically configured fabric");
    resumed.run_until(horizon);
    let got = resumed.checkpoint();

    if want != got {
        let diffs = diff_values(&want.to_value(), &got.to_value(), 10);
        panic!(
            "resumed state diverged (seed={seed} cc={cc} ck={ck_at_ps}):\n{}",
            render_diff(&diffs)
        );
    }
}

#[test]
fn roundtrip_mid_warmup_cc_on() {
    assert_roundtrip(0x1B51_C0DE, true, 150_000_000, 700_000_000);
}

#[test]
fn roundtrip_cc_off() {
    assert_roundtrip(0x1B51_C0DE, false, 350_000_000, 700_000_000);
}

#[test]
fn roundtrip_no_faults() {
    assert_roundtrip(0x1B51_C0DE, true, 250_000_000, 700_000_000);
}

#[test]
fn roundtrip_at_zero_and_at_horizon() {
    // Degenerate capture points: before the first event and at the end.
    assert_roundtrip(7, true, 0, 400_000_000);
    assert_roundtrip(7, true, 400_000_000, 400_000_000);
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
        assert_roundtrip(seed, cc, ck_us * 1_000_000, 500_000_000);
    }
}

// ---------------------------------------------------------------------
// Negative paths: every way a restore can go wrong is a structured
// error naming the mismatch — never a panic, never a silent cold start.
// ---------------------------------------------------------------------

fn tiny_checkpoint() -> (CheckpointHeader, NetworkState, Network) {
    let mut net = loaded_net(3, true);
    net.run_until(Time::from_us(200));
    (ibsim::checkpoint::header(&net), net.checkpoint(), net)
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
    let (mut header, state, _net) = tiny_checkpoint();
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
    let (mut header, state, _net) = tiny_checkpoint();
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
        let (header, state, _net) = tiny_checkpoint();
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
    let (header, state, _net) = tiny_checkpoint();
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
    let bare = || {
        let mut net = Network::new(
            &FatTreeSpec::TEST_8.build(),
            NetConfig::paper().with_seed(5),
        );
        let _sc = Scenario::install_opts(SILENT_8, &mut net, PAPER_MSG_BYTES, true);
        net
    };
    let mut audited = bare();
    audited.enable_audit(20_000);
    let err = audited
        .restore(&armed_state)
        .expect_err("telemetry-overlay mismatch must fail");
    assert!(err.contains("telemetry"), "unhelpful error: {err}");
    let mut sampled = bare();
    sampled.enable_telemetry(TelemetryConfig::every(TimeDelta::from_us(50)));
    let err = sampled
        .restore(&armed_state)
        .expect_err("audit-overlay mismatch must fail");
    assert!(err.contains("audit"), "unhelpful error: {err}");

    let mut bare_run = bare();
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
    let (_header, mut state, _net) = tiny_checkpoint();
    let tel = state.telemetry.as_mut().expect("telemetry armed");
    tel.cadence_next = Time(tel.cadence_next.as_ps() + 1);
    let mut net = loaded_net(3, true);
    let err = net
        .restore(&state)
        .expect_err("off-cadence restore must fail");
    assert!(err.contains("cadence"), "unhelpful error: {err}");
}

/// Restore `state` after `corrupt` onto a fresh loaded fabric; the
/// error it must come back with.
fn corrupt_restore_error(corrupt: impl FnOnce(&mut NetworkState)) -> String {
    let (_header, mut state, _net) = tiny_checkpoint();
    corrupt(&mut state);
    let mut net = loaded_net(3, true);
    net.restore(&state)
        .expect_err("corrupt checkpoint must be rejected")
}

#[test]
fn corrupt_telemetry_windows_are_rejected() {
    // A ring window larger than its lifetime push count, or larger
    // than the ring itself, cannot come from a real run.
    let (_header, state, _net) = tiny_checkpoint();
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
        let err = corrupt_restore_error(corrupt);
        assert!(err.contains("telemetry"), "unhelpful error: {err}");
    }
}

#[test]
fn corrupt_occupancy_histogram_is_rejected() {
    let err = corrupt_restore_error(|s| {
        s.telemetry.as_mut().unwrap().occ_hist.bins.truncate(3);
    });
    assert!(
        err.contains("telemetry") && err.contains("3 bins"),
        "unhelpful error: {err}"
    );
}

#[test]
fn corrupt_latency_histogram_is_rejected() {
    let err = corrupt_restore_error(|s| s.hcas[2].latency.bins.truncate(3));
    assert!(
        err.contains("hca 2") && err.contains("3 bins"),
        "unhelpful error: {err}"
    );
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
    let (_header, mut state, _net) = tiny_checkpoint();
    let (hca, key) = (0..state.hcas.len())
        .find_map(|h| Some((h, ib_flows(&mut state, h).iter().position(|f| f.tracked)?)))
        .expect("some flow is braked at 200 µs");
    let over = NetConfig::paper().cc.expect("CC on").ccti_limit + 1;
    let err = corrupt_restore_error(|s| ib_flows(s, hca)[key].ccti = over);
    let want = format!(
        "hca {hca}: cc flow {key}: ccti {over} exceeds CCTI_Limit {}",
        over - 1
    );
    assert!(err.contains(&want), "unhelpful error: {err}");

    let end = ib_flows(&mut state, 1).len();
    let untracked = |ccti, ps| FlowCcState {
        ccti,
        tracked: false,
        next_allowed: Time(ps),
    };
    let err = corrupt_restore_error(|s| ib_flows(s, 1).push(untracked(0, 1000)));
    let want = format!("hca 1: cc flow {end}: next_allowed 1000 exceeds the untracked bound 0");
    assert!(err.contains(&want), "unhelpful error: {err}");
    let err = corrupt_restore_error(|s| ib_flows(s, 1).push(untracked(5, 0)));
    let want = format!("hca 1: cc flow {end}: ccti 5 exceeds the untracked bound 0");
    assert!(err.contains(&want), "unhelpful error: {err}");
}

#[test]
fn inconsistent_flow_sequence_is_rejected() {
    // A receiver's last delivered seq from a source is implied by the
    // pair's live packets and the source's tx_seq: a checkpoint that
    // says otherwise, or holds a packet no send accounts for, cannot
    // come from a real run. The honest one restores and re-captures
    // byte for byte.
    let (_header, state, _net) = tiny_checkpoint();
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
    let err = corrupt_restore_error(|s| s.hcas[d].last_seq[src] = was + 2);
    let want = format!(
        "hca {d}: last_seq from {src} is {}, the fabric implies {was}",
        was + 2
    );
    assert!(err.contains(&want), "unhelpful error: {err}");

    let data_in_sink = |d: usize| state.hcas[d].sink_queue.iter().position(|p| !p.is_cnp());
    let (d, i) = (0..state.hcas.len())
        .find_map(|d| Some((d, data_in_sink(d)?)))
        .expect("a data packet waits in some sink at 200 µs");
    let p = state.hcas[d].sink_queue[i];
    let sent = state.hcas[p.src as usize].seqs[p.dst as usize];
    let err = corrupt_restore_error(|s| s.hcas[d].sink_queue[i].seq = sent + 3);
    let want = format!(
        "hca {}: a live packet to {} has seq {}, above its tx_seq {sent}",
        p.src,
        p.dst,
        sent + 3
    );
    assert!(err.contains(&want), "unhelpful error: {err}");
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
    let (_header, state, _net) = tiny_checkpoint();
    let (d, i) = first_data_in_a_sink(&state);
    let p = state.hcas[d].sink_queue[i];
    let err = corrupt_restore_error(|s| s.hcas[d].sink_queue[i].seq = 0);
    let want = format!(
        "hca {}: a live packet to {} has seq 0, sends start at 1",
        p.src, p.dst
    );
    assert!(err.contains(&want), "unhelpful error: {err}");
}

#[test]
fn live_packet_from_outside_the_fabric_is_rejected() {
    // A source no HCA of the fabric has: restore names it and the
    // fabric's size instead of indexing past the per-peer table.
    let (_header, state, _net) = tiny_checkpoint();
    let (d, i) = first_data_in_a_sink(&state);
    let dst = state.hcas[d].sink_queue[i].dst;
    let err = corrupt_restore_error(|s| s.hcas[d].sink_queue[i].src = 99);
    let want = format!("a live packet runs 99 -> {dst}, the fabric has 8 nodes");
    assert!(err.contains(&want), "unhelpful error: {err}");
}

#[test]
fn drained_pair_mark_must_equal_its_tx_seq() {
    // A pair with nothing live has delivered all it sent: its mark is
    // the sender's tx_seq, and one below it is refused.
    let (_header, state, _net) = tiny_checkpoint();
    let (d, src, sent) = (0..state.hcas.len())
        .flat_map(|d| (0..state.hcas.len()).map(move |s| (d, s)))
        .map(|(d, s)| (d, s, state.hcas[s].seqs[d]))
        .find(|&(d, s, sent)| sent > 0 && state.hcas[d].last_seq[s] == sent)
        .expect("some pair has delivered everything it sent by 200 µs");
    let err = corrupt_restore_error(|s| s.hcas[d].last_seq[src] = sent - 1);
    let want = format!(
        "hca {d}: last_seq from {src} is {}, the fabric implies {sent}",
        sent - 1
    );
    assert!(err.contains(&want), "unhelpful error: {err}");
}

#[test]
fn restored_audit_resumes_the_delivery_marks() {
    // The flow-order ledger is not in the checkpoint: restore seeds it
    // from the captured `last_seq`. Unseeded, the first delivery of
    // every pair already under way would read as out of order.
    let (_header, state, mut straight) = tiny_checkpoint();
    let mut net = loaded_net(3, true);
    net.restore(&state).expect("the captured state restores");
    for run in [&mut straight, &mut net] {
        run.run_until(Time::from_us(600));
        let report = run.audit_now();
        assert!(report.is_clean(), "{}", report.render());
    }
    assert!(net.checkpoint() == straight.checkpoint());
}

#[test]
fn restored_audit_resumes_the_delivery_marks_on_shards() {
    // The seeded marks fork to the shards, and each shard advances only
    // its own receivers' marks.
    // Telemetry keeps a run serial, so the sharded side restores the
    // capture without it and runs unobserved.
    let topo = FatTreeSpec::TEST_8.build();
    let mut straight = loaded_net(3, true);
    straight.run_until(Time::from_us(200));
    let mut state = straight.checkpoint();
    state.telemetry = None;
    let mut net = Network::new(&topo, NetConfig::paper().with_seed(3));
    net.enable_audit(20_000);
    let _sc = Scenario::install_opts(SILENT_8, &mut net, PAPER_MSG_BYTES, true);
    net.set_shards(&topo, 2);
    net.restore(&state).expect("the captured state restores");
    assert_eq!(
        net.shard_count(),
        2,
        "the restored run must shard genuinely"
    );
    for run in [&mut straight, &mut net] {
        run.run_until(Time::from_us(600));
        let report = run.audit_now();
        assert!(report.is_clean(), "{}", report.render());
    }
    let mut want = straight.checkpoint();
    want.telemetry = None;
    assert!(net.checkpoint() == want);
}

#[test]
fn skipped_sequence_after_restore_trips_the_flow_order_ledger() {
    // A pair whose next packet waits in its receiver's sink has it
    // renumbered one lower, and its mark lowered to match. Restore
    // accepts that: the implied mark agrees and no seq exceeds tx_seq.
    // Delivery then goes k, k + 2: the ledger names the skipped seq.
    // The audit runs no periodic pass, which would panic on the skip.
    let quiet_audit = || {
        let mut net = loaded_net(3, true);
        net.enable_audit(u64::MAX);
        net
    };
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

#[test]
fn fresh_cc_flows_start_at_ccti_min() {
    // With CCTI_Min above 0 every send is gated, so flow entries are
    // made on the send path as well as by BECNs. Each starts at the
    // floor: no held flow ever reads below it, and the state restores
    // and re-captures byte for byte.
    let floored = || {
        let mut cfg = NetConfig::paper().with_seed(3);
        cfg.cc.as_mut().expect("CC on").ccti_min = 2;
        loaded(cfg)
    };
    let mut net = floored();
    let mut held = 0;
    for t in [100, 250, 400] {
        net.run_until(Time::from_us(t));
        let mut state = net.checkpoint();
        for h in 0..state.hcas.len() {
            for (key, f) in ib_flows(&mut state, h).iter().enumerate() {
                assert!(
                    !f.tracked || f.ccti >= 2,
                    "hca {h}: cc flow {key} holds ccti {} below CCTI_Min 2 at {t} µs",
                    f.ccti
                );
                held += f.tracked as usize;
            }
        }
        let mut restored = floored();
        restored
            .restore(&state)
            .expect("the floored state restores");
        assert!(
            restored.checkpoint() == state,
            "restore then capture changed the state"
        );
    }
    assert!(held > 0, "no flow was held at any capture");
}

#[test]
fn overfull_switch_buffers_are_rejected() {
    // An input holding more blocks than its buffer, or a credit counter
    // above the buffer it stands for, cannot come from a real run.
    let (_header, state, _net) = tiny_checkpoint();
    let (sw, port, ov) = (state.switches.iter().enumerate())
        .flat_map(|(s, ss)| ss.ports.iter().enumerate().map(move |(p, ps)| (s, p, ps)))
        .find_map(|(s, p, ps)| Some((s, p, ps.voq.iter().position(|q| !q.is_empty())?)))
        .expect("a packet stands in some switch at 200 µs");
    let err = corrupt_restore_error(|s| {
        let q = &mut s.switches[sw].ports[port].voq[ov];
        let d = q[0].clone();
        q.resize(300, d);
    });
    assert!(
        err.contains(&format!("switch {sw} port {port} VL 0"))
            && err.contains("blocks queued")
            && err.contains("holds 256"),
        "unhelpful error: {err}"
    );
    let err = corrupt_restore_error(|s| s.switches[1].ports[0].credits[0] = 100_000);
    assert!(
        err.contains("switch 1 port 0 VL 0: 100000 credits"),
        "unhelpful error: {err}"
    );
}

// ---------------------------------------------------------------------
// Harness-level resume: `RunOptions::run_scenario` and
// `RunOptions::run_workload` save at `checkpoint_at` and resume from
// `resume_from` with byte-identical results, across plain, measured,
// moving-hotspot and workload runs, including captures on the edges
// where the measurement window opens or closes.
// ---------------------------------------------------------------------

/// Save a checkpoint at `ck_us` through a runner and resume from it:
/// both passes must reproduce the cold run's result, and the resumed
/// run must capture the cold run's full state 100 µs after the capture.
/// `run` serialises one run's result under the given options.
fn assert_runner_resume(tag: &str, ck_us: u64, run: impl Fn(&RunOptions) -> String) {
    let dir = |pass: &str| {
        let name = format!("ibsim_ckpt_rt_{}_{tag}_{pass}", std::process::id());
        let dir = std::env::temp_dir().join(name);
        std::fs::remove_dir_all(&dir).ok();
        dir
    };
    let (at, cold_later, resumed_later) = (dir("at"), dir("cold"), dir("resumed"));

    // Follow the CI legs (audit, shards) but pin the checkpoint keys.
    let cold = RunOptions {
        checkpoint_at: None,
        resume_from: None,
        ..RunOptions::ambient().clone()
    };
    let baseline = run(&cold);
    let saving = |us: u64, dir: &std::path::PathBuf| RunOptions {
        checkpoint_at: Some(us),
        checkpoint_dir: dir.clone(),
        ..cold.clone()
    };

    // Pass 1: save a checkpoint mid-run (the save must not perturb).
    let saved = run(&saving(ck_us, &at));
    assert_eq!(saved, baseline, "saving a checkpoint perturbed the run");
    assert_eq!(
        std::fs::read_dir(&at).expect("checkpoint dir").count(),
        1,
        "expected exactly one checkpoint file"
    );

    // Pass 2: resume from it. It and a cold run both capture again
    // 100 µs later, and the two captures must be the same bytes.
    run(&saving(ck_us + 100, &cold_later));
    let resume = RunOptions {
        resume_from: Some(at.clone()),
        ..saving(ck_us + 100, &resumed_later)
    };
    assert_eq!(run(&resume), baseline, "resumed run diverged from baseline");
    let capture = |dir: &std::path::PathBuf| {
        let file = std::fs::read_dir(dir).expect("later capture").next();
        std::fs::read(file.expect("a file").unwrap().path()).expect("capture reads")
    };
    let same = capture(&cold_later) == capture(&resumed_later);
    assert!(same, "resumed state diverged 100 µs after the capture");

    for dir in [at, cold_later, resumed_later] {
        std::fs::remove_dir_all(dir).ok();
    }
}

fn dur_us(warmup_us: u64, measure_us: u64) -> RunDurations {
    RunDurations {
        warmup: TimeDelta::from_us(warmup_us),
        measure: TimeDelta::from_us(measure_us),
    }
}

/// The TEST_8 hotspot run the scenario resume tests share, 500 µs
/// measured after `warmup_us`, as JSON.
fn harness_run(opts: &RunOptions, warmup_us: u64, lifetime: Option<TimeDelta>) -> String {
    let topo = FatTreeSpec::TEST_8.build();
    let dur = dur_us(warmup_us, 500);
    let cfg = NetConfig::paper();
    let r = opts.run_scenario(&topo, cfg, SILENT_8, dur, lifetime, true);
    serde_json::to_string(&r).expect("serialise result")
}

fn assert_harness_resume(ck_us: u64, warmup_us: u64, lifetime: Option<TimeDelta>) {
    let tag = format!("{ck_us}_{warmup_us}_{}", lifetime.map_or(0, |l| l.as_ps()));
    assert_runner_resume(&tag, ck_us, |opts| harness_run(opts, warmup_us, lifetime));
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
    let tag = format!("wl{}_{ck_us}_{warmup_us}", spec.name());
    assert_runner_resume(&tag, ck_us, |opts| {
        let r = opts.run_workload(&topo, NetConfig::paper(), &spec, dur);
        serde_json::to_string(&r).expect("serialise result")
    });
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

fn golden_path(name: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// Compare `net`'s capture now, from a `run` run (`serial`, `N
/// shards`), against a committed golden file *structurally* (header
/// equality + field-by-field state diff), so a failure names drifted
/// fields instead of dumping two JSON blobs. `restore_into`, when
/// given, is a fresh fabric configured like the one the golden was
/// taken on; the decoded golden must restore and run on it. Under
/// `IBSIM_BLESS` a serial run rewrites the golden instead; other runs
/// still only compare.
fn assert_matches_golden(name: &str, run: &str, net: &Network, restore_into: Option<Network>) {
    let path = golden_path(name);
    let (header, state) = (ibsim::checkpoint::header(net), net.checkpoint());
    // The streamed bytes are those of the whole document as one tree.
    let text = encoded(&header, &state);
    let doc = serde_json::json!({ "header": header, "state": state });
    assert!(
        text == serde_json::to_string(&doc).unwrap(),
        "streamed text differs from the tree's ({name}, {run})"
    );
    if run == "serial" && std::env::var("IBSIM_BLESS").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, text).unwrap();
        eprintln!("blessed {}", path.display());
        return;
    }
    let golden_text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden checkpoint {} ({e}); run the serial test under IBSIM_BLESS=1 to create it",
            path.display()
        )
    });
    let (golden_header, golden_state) =
        decode(&golden_text).expect("committed golden checkpoint decodes");
    assert_eq!(
        golden_header, header,
        "golden checkpoint header drifted ({name}, {run})"
    );
    let diffs = diff_values(&golden_state.to_value(), &state.to_value(), 25);
    assert!(
        diffs.is_empty(),
        "simulator state at the golden capture point drifted ({name}, {run}):\n{}",
        render_diff(&diffs)
    );
    // And the golden file still restores and runs on a live fabric.
    if let Some(mut live) = restore_into {
        live.restore(&golden_state).expect("golden state restores");
        live.run_until(Time::from_us(700));
    }
}

/// TEST_8-scale golden: runs on every `cargo test`.
#[test]
fn golden_tiny_checkpoint_is_stable() {
    let mut net = loaded_net(0x1B51_C0DE, true);
    net.run_until(Time::from_us(350));
    let fresh = loaded_net(0x1B51_C0DE, true);
    assert_matches_golden("tiny_test8.ckpt.json", "serial", &net, Some(fresh));
}

/// The committed tiny golden, reproduced under every shard count. The
/// fully-loaded fixture has telemetry armed — a serial-fallback
/// condition — so what this pins is the *boundary*: a `set_shards`
/// call on such a run must be byte-free, falling back to the serial
/// engine without perturbing a single field of the committed file.
#[test]
fn golden_tiny_checkpoint_is_stable_under_shards() {
    let topo = FatTreeSpec::TEST_8.build();
    for n in [1, 2, 4, 8] {
        let mut net = loaded_net(0x1B51_C0DE, true);
        net.set_shards(&topo, n);
        net.run_until(Time::from_us(350));
        let fresh = loaded_net(0x1B51_C0DE, true);
        assert_matches_golden(
            "tiny_test8.ckpt.json",
            &format!("{n} shards"),
            &net,
            Some(fresh),
        );
    }
}

/// Quick-preset golden (72 nodes, capture at 3 ms in the CC-on hotspot
/// cell): `#[ignore]`d for the debug-build loop; CI runs it in the
/// release job alongside the determinism hash pin.
#[test]
#[ignore = "simulates 3 ms on 72 nodes; run with --release -- --ignored"]
fn golden_quick_checkpoint_is_stable() {
    let preset = Preset::Quick;
    let topo = preset.topology();
    let cfg = preset.net_config();
    let mut net = Network::new(&topo, cfg);
    let roles = RoleSpec::silent(topo.num_hcas, preset.num_hotspots());
    let _sc = Scenario::install_opts(roles, &mut net, PAPER_MSG_BYTES, true);
    net.run_until(Time::from_ms(3));
    assert_matches_golden("quick_cc_on.ckpt.json", "serial", &net, None);
}

/// The committed quick golden, reproduced by *genuinely sharded* runs:
/// the quick cell has no telemetry, so nothing forces the
/// serial fallback and every shard count must land on the committed
/// bytes through the full split/window/merge machinery.
#[test]
#[ignore = "simulates 3 ms on 72 nodes per shard count; run with --release -- --ignored"]
fn golden_quick_checkpoint_is_stable_under_shards() {
    let preset = Preset::Quick;
    let topo = preset.topology();
    for n in [2, 4, 8] {
        let mut net = Network::new(&topo, preset.net_config());
        let roles = RoleSpec::silent(topo.num_hcas, preset.num_hotspots());
        let _sc = Scenario::install_opts(roles, &mut net, PAPER_MSG_BYTES, true);
        net.set_shards(&topo, n);
        assert!(net.shard_count() > 1, "quick cell must shard genuinely");
        net.run_until(Time::from_ms(3));
        assert_matches_golden("quick_cc_on.ckpt.json", &format!("{n} shards"), &net, None);
    }
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
    assert_matches_golden("wl_eb_test8.ckpt.json", "serial", &net, Some(fresh));
}
