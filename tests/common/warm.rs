//! Shared warm-checkpoint fixture for the integration suites.
//!
//! The expensive part of most integration tests is simulating the
//! warmup window — identical for every invocation at the same topology,
//! seed and workload. This fixture caches that prefix as checkpoints
//! under `target/warm-checkpoints/v<FORMAT_VERSION>/` (wiped by `cargo
//! clean`, rebuilt on a miss) in two forms:
//!
//! * [`warm_until`] — library-level: fast-forward a freshly configured
//!   `Network` to `t`, restoring the cached prefix when one matches
//!   (topology digest + caller key + instant), else simulating and
//!   saving it for next time;
//! * [`enable_harness`] — runner-level: the [`RunOptions`] under which
//!   every `run_scenario` call saves at its warmup end on the
//!   first-ever invocation and resumes from the cache afterwards
//!   (checkpoint file names already encode fabric + workload, so
//!   distinct tests never collide).
//!
//! Round trips are byte-identical (pinned by `checkpoint_roundtrip.rs`),
//! so cached runs produce exactly the numbers a cold run would — as
//! long as the cache is *fresh*. A behaviour-changing edit makes cached
//! prefixes stale: `rm -rf target/warm-checkpoints` (or `cargo clean`)
//! after such edits. A format version bump starts a fresh directory, so
//! files of another version are never read. CI always starts cold.

#![allow(dead_code)] // each test binary uses the half it needs

use ibsim::prelude::*;
use std::path::PathBuf;

pub fn warm_dir() -> PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("target")
        .join("warm-checkpoints")
        .join(format!("v{}", ibsim::checkpoint::FORMAT_VERSION))
}

/// Fast-forward `net` (freshly built, classes installed, not yet run)
/// to `t`, reusing the cached warm prefix for (`key`, fabric digest,
/// `t`) when present. `key` must distinguish everything the digest does
/// not — the installed traffic classes in particular.
pub fn warm_until(net: &mut Network, key: &str, t: Time) {
    let label = format!("warm-{key}-{}", t.as_ps());
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
/// the shared cache and resumes from it when the file already exists.
pub fn enable_harness(warmup_us: u64) -> RunOptions {
    let ambient = RunOptions::ambient();
    // Audited checkpoints carry ledgers an unaudited run cannot
    // restore (and vice versa): one cache per audit setting.
    let dir = warm_dir().join(if ambient.audit.is_some() {
        "audited"
    } else {
        "plain"
    });
    RunOptions {
        checkpoint_at: Some(warmup_us),
        checkpoint_dir: dir.clone(),
        resume_from: Some(dir),
        ..ambient.clone()
    }
}
