//! The `PauseLosslessness` ledger under fire.
//!
//! PFC's whole contract is that a paused ingress loses nothing. The
//! armed-oracle test commits exactly the crime the ledger exists to
//! catch — packets silently discarded from an ingress while its pause
//! is standing — and demands a violation naming the switch, port and
//! priority. The observational test pins the oracle's other half: with
//! no crime, auditing a DCQCN run must not change a single byte of its
//! result.

use ibsim::prelude::*;
use ibsim_cc::CcBackend;
use ibsim_net::LedgerKind;

fn hotspot_net(xoff: u32, xon: u32) -> (Network, Topology) {
    let topo = FatTreeSpec::TEST_8.build();
    let mut cfg = NetConfig::paper_dcqcn();
    cfg.dcqcn.pfc_xoff_blocks = xoff;
    cfg.dcqcn.pfc_xon_blocks = xon;
    let mut net = Network::new(&topo, cfg);
    let hot = vec![TrafficClass::new(100, DestPattern::Fixed(0), 4096)];
    for n in 1..topo.num_hcas as u32 {
        net.set_classes(n, hot.clone());
    }
    (net, topo)
}

/// Walk the fabric for a standing pause: `(switch, port, vl)` with
/// `rx_paused` latched.
fn find_paused(net: &Network) -> Option<(usize, u16, u8)> {
    for (si, sw) in net.switches.iter().enumerate() {
        for p in 0..sw.radix() as u16 {
            for vl in 0..sw.n_vls() {
                if sw.rx_paused(p, vl) {
                    return Some((si, p, vl));
                }
            }
        }
    }
    None
}

/// A drop during a pause window trips the oracle, and the violation
/// names the paused port and priority.
#[test]
fn drop_during_pause_window_is_caught_and_named() {
    // Aggressive thresholds: the 7-into-1 hotspot pauses within a few
    // hundred microseconds.
    let (mut net, _topo) = hotspot_net(48, 16);
    net.enable_audit(u64::MAX); // end-of-run / on-demand passes only

    let mut paused = None;
    for step in 1..=60u64 {
        net.run_until(Time::from_us(step * 10));
        paused = find_paused(&net);
        if paused.is_some() {
            break;
        }
    }
    let (si, p, vl) = paused.expect("the hotspot must pause an ingress within 600 us");

    // The crime: discard queued packets from the paused ingress until
    // its occupancy falls to the XON threshold — the drain that, in a
    // correct fabric, can only happen through a resume.
    let mut dropped = 0;
    while net.switches[si].buffered_blocks(p, vl) > 16 {
        if net.drop_queued_for_test(si, p).is_none() {
            break;
        }
        dropped += 1;
    }
    assert!(dropped > 0, "a paused ingress must be holding packets");

    let report = net.audit_now();
    let v = report
        .violations
        .iter()
        .find(|v| v.ledger == LedgerKind::PauseLosslessness)
        .unwrap_or_else(|| {
            panic!(
                "dropping {dropped} packet(s) from a paused ingress must \
                 trip the pause-losslessness ledger:\n{}",
                report.render()
            )
        });
    let expect = format!("switch {si} port {p} VL {vl}");
    assert_eq!(
        v.subject, expect,
        "the violation must name the paused port and priority"
    );
    assert!(
        report.has_unsanctioned(),
        "pause-losslessness violations are never sanctioned"
    );
}

/// Pause/resume pairing: a clean dcqcn run audits with zero
/// pause-losslessness entries, and every pause the fabric ever sent is
/// matched by a resume or still standing at the pass.
#[test]
fn clean_dcqcn_run_pairs_every_pause() {
    let (mut net, _topo) = hotspot_net(48, 16);
    net.enable_audit(10_000);
    net.run_until(Time::from_us(600));
    let report = net.audit_now();
    assert!(report.is_clean(), "{}", report.render());
    assert!(
        net.total_pfc_pauses() > 0,
        "the aggressive thresholds must pause at least once"
    );
}

/// The oracle is observational under dcqcn: an audited run produces
/// byte-identical results to an unaudited one.
#[test]
fn dcqcn_audit_on_equals_audit_off() {
    let topo = FatTreeSpec::TEST_8.build();
    let roles = RoleSpec {
        num_nodes: topo.num_hcas,
        num_hotspots: 1,
        b_pct: 0,
        b_p: 0,
        c_pct_of_rest: 80,
    };
    let dur = RunDurations {
        warmup: TimeDelta::from_us(200),
        measure: TimeDelta::from_us(500),
    };
    let run = |audit: Option<u64>| {
        let opts = RunOptions {
            cc_backend: Some(CcBackend::Dcqcn),
            audit,
            ..RunOptions::default()
        };
        let r = opts.run_scenario(&topo, NetConfig::paper(), roles, dur, None, true, None);
        serde_json::to_string(&r).expect("serialise result")
    };
    let with = run(Some(ibsim::options::DEFAULT_AUDIT_EVERY));
    let without = run(None);
    assert_eq!(
        with, without,
        "the oracle must be observational under dcqcn"
    );
}
