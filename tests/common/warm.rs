//! The warm-checkpoint cache of the integration suites.
//!
//! The expensive part of most paper-shape runs is simulating the
//! warm-up, identical for every invocation at the same fabric, seed and
//! traffic. This cache keeps that prefix as checkpoints under
//! `target/warm-checkpoints/<test binary>-<length>-<mtime>/`: the key is
//! the identity of the running test build, so a rebuilt binary never
//! reads a prefix an older build simulated (a behaviour-changing edit
//! would otherwise restore stale state and hide a regression or invent
//! one). A build's first use removes the directories of the same
//! binary's earlier builds. Two forms:
//!
//! * [`warm_until`] — library-level: fast-forward a freshly configured
//!   `Network` to `t`, restoring the cached prefix when one matches
//!   (fabric digest + caller key + instant), else simulating and
//!   saving it for next time;
//! * [`enable_harness`] — runner-level: the [`RunOptions`] under which
//!   every `run_scenario` call saves at its warm-up end on the first
//!   invocation and resumes from the cache afterwards.
//!
//! Round trips are byte-identical (the resume rows of
//! `checkpoint_roundtrip.rs`), so a warm run gives exactly the numbers a
//! cold one would.

use ibsim::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;
use std::time::UNIX_EPOCH;

/// The cache directory of the build whose binary is `exe`.
pub fn cache_dir(exe: &Path) -> PathBuf {
    let meta = std::fs::metadata(exe).expect("the build's binary");
    let mtime = meta.modified().unwrap().duration_since(UNIX_EPOCH).unwrap();
    let stem = exe.file_stem().unwrap().to_string_lossy();
    let (secs, nanos) = (mtime.as_secs(), mtime.subsec_nanos());
    root().join(format!("{stem}-{}-{secs}.{nanos:09}", meta.len()))
}

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("target/warm-checkpoints")
}

/// The running build's cache directory.
pub fn warm_dir() -> PathBuf {
    static DIR: OnceLock<PathBuf> = OnceLock::new();
    DIR.get_or_init(|| {
        let exe = std::env::current_exe().expect("the running test binary");
        let dir = cache_dir(&exe);
        let stem = format!("{}-", exe.file_stem().unwrap().to_string_lossy());
        for old in std::fs::read_dir(root()).into_iter().flatten().flatten() {
            let name = old.file_name().to_string_lossy().into_owned();
            if name.starts_with(&stem) && old.path() != dir {
                std::fs::remove_dir_all(old.path()).ok();
            }
        }
        dir
    })
    .clone()
}

/// The checkpoint label of `key`'s prefix at `t`.
pub fn label(key: &str, t: Time) -> String {
    format!("warm-{key}-{}", t.as_ps())
}

/// Fast-forward `net` (freshly built, classes installed, not yet run)
/// to `t`, reusing the cached warm prefix for (`key`, fabric digest,
/// `t`) when present. `key` must distinguish everything the digest does
/// not — the installed traffic classes in particular.
pub fn warm_until(net: &mut Network, key: &str, t: Time) {
    let label = label(key, t);
    if let Some((_, state)) = ibsim::checkpoint::load_from(&warm_dir(), net, &label) {
        if net.restore(&state).is_ok() {
            return;
        }
        // A cache entry this network cannot take: rebuild it.
    }
    net.run_until(t);
    ibsim::checkpoint::save_in(&warm_dir(), net, &label);
}

/// The options the paper-shape tests run under: the ambient ones (so
/// the CI audit and shard legs still reach them) plus the warm cache —
/// every `run_scenario` under them saves its state at `warmup_us` into
/// the cache and resumes from it when the file already exists.
pub fn enable_harness(warmup_us: u64) -> RunOptions {
    let ambient = RunOptions::ambient();
    // Audited checkpoints carry ledgers an unaudited run cannot
    // restore (and vice versa): one cache per audit setting.
    let sub = if ambient.audit.is_some() {
        "audited"
    } else {
        "plain"
    };
    let dir = warm_dir().join(sub);
    RunOptions {
        checkpoint_at: Some(warmup_us),
        checkpoint_dir: dir.clone(),
        resume_from: Some(dir),
        ..ambient.clone()
    }
}

/// The measured window of a hotspot run: `senders` send to `hot` at
/// full rate in 4 KiB messages, audited, warmed to 1 ms (cached under
/// `key`) and measured to 3 ms.
pub fn hotspot_window(
    topo: &Topology,
    cfg: NetConfig,
    senders: &[u32],
    hot: u32,
    key: &str,
) -> Network {
    let mut net = Network::new(topo, cfg);
    net.enable_audit(50_000);
    for &s in senders {
        net.set_classes(
            s,
            vec![TrafficClass::new(100, DestPattern::Fixed(hot), 4096)],
        );
    }
    warm_until(&mut net, key, Time::from_ms(1));
    net.start_measurement();
    net.run_until(Time::from_ms(3));
    net.stop_measurement();
    net.audit_now().raise();
    net
}
