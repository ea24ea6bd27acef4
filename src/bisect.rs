//! Divergence bisector: localise *when* two builds of the same
//! scenario first disagree, and on *which field*.
//!
//! The debugging situation this serves: a run that should be
//! deterministic (same topology, seed and workload) produces different
//! numbers under two configurations — a CC parameter changed, a
//! refactor that was meant to be behaviour-preserving, a suspect
//! optimisation. End-of-run CSVs only say *that* the runs diverged;
//! this module binary-searches over checkpoint times to find the first
//! window in which the two full state trees differ, then names the
//! differing fields via [`diff_values`] (JSON-pointer paths like
//! `/hcas/3/cc/flows/0/ccti`).
//!
//! Both sides are re-simulated from scratch for every probe — runs are
//! deterministic, so state at time `t` is a pure function of the
//! configuration, and divergence is monotone: once the trees differ
//! they never re-converge (the differing state feeds every later
//! event). That monotonicity is what makes bisection sound.

use crate::options::RunOptions;
use ibsim_cc::CcParams;
use ibsim_engine::time::{Time, TimeDelta};
use ibsim_net::NetConfig;
use ibsim_topo::Topology;
use ibsim_traffic::{RoleSpec, Scenario};
use serde::{Serialize, Value};

/// Diff entries whose path contains any of these substrings are not
/// divergence: a deliberately perturbed parameter — and its static
/// per-port mirror (`threshold_bytes`) — differs from t = 0 by
/// construction. Everything *downstream* of the parameter (CCTIs,
/// queue contents, event timing) still counts.
pub const DEFAULT_IGNORE: &[&str] = &["/cc/params", "/threshold_bytes"];

/// Outcome of a successful bisection.
#[derive(Clone, Debug)]
pub struct Divergence {
    /// Last probed instant at which the two state trees were identical
    /// (modulo ignored paths).
    pub clean_at: Time,
    /// First probed instant at which they differed. The first divergent
    /// event lies in `(clean_at, diverged_at]`.
    pub diverged_at: Time,
    /// Field-level differences at `diverged_at`, ignored paths removed.
    pub diffs: Vec<DiffEntry>,
    /// Probes performed (pairs of runs).
    pub probes: u32,
}

impl Divergence {
    /// The JSON-pointer path of the most informative differing field:
    /// the first device-state difference (a switch or HCA field) when
    /// one exists, else the first difference of any kind — engine
    /// bookkeeping (`/now`, `/events_processed`) diverges with
    /// everything and names nothing.
    pub fn first_field(&self) -> Option<&str> {
        self.diffs
            .iter()
            .find(|d| d.path.starts_with("/switches") || d.path.starts_with("/hcas"))
            .or_else(|| self.diffs.first())
            .map(|d| d.path.as_str())
    }
}

/// Run `roles` on a fresh fabric to `t` and capture the full state tree
/// as a JSON value. Hotspots stay fixed; the bisector compares fabrics
/// under steady congestion, where CC behaviour differences surface.
pub fn state_value_at(topo: &Topology, cfg: &NetConfig, roles: RoleSpec, t: Time) -> Value {
    let mut net = RunOptions::default().network(topo, cfg.clone());
    let _sc = Scenario::install_opts(roles, &mut net, ibsim_net::PAPER_MSG_BYTES, true);
    net.run_until(t);
    net.checkpoint().to_value()
}

/// Binary-search `[0, horizon]` for the first window (of width at most
/// `resolution`) in which runs under `cfg_a` and `cfg_b` hold different
/// state. Returns `None` when the two agree over the whole horizon.
///
/// Cost: two full runs per probe, ~`2·log2(horizon/resolution)` runs
/// total — size the topology accordingly.
pub fn bisect_divergence(
    topo: &Topology,
    cfg_a: &NetConfig,
    cfg_b: &NetConfig,
    roles: RoleSpec,
    horizon: Time,
    resolution: TimeDelta,
    ignore: &[&str],
) -> Option<Divergence> {
    assert!(!resolution.is_zero(), "bisect resolution must be positive");
    let mut probes = 0u32;
    let mut run = |t: Time| {
        probes += 1;
        let a = state_value_at(topo, cfg_a, roles, t);
        let b = state_value_at(topo, cfg_b, roles, t);
        let mut diffs = diff_values(&a, &b, 4096);
        diffs.retain(|d| !ignore.iter().any(|pat| d.path.contains(pat)));
        diffs
    };

    let mut hi_diffs = run(horizon);
    if hi_diffs.is_empty() {
        return None;
    }
    let mut lo = Time::ZERO;
    let mut hi = horizon;
    // The two fabrics share all pre-run state except the ignored
    // parameters, but parameter-derived scheduling (CCTI timer phases)
    // can differ from the very first event — probe t = 0 rather than
    // assuming it is clean.
    let zero_diffs = run(Time::ZERO);
    if !zero_diffs.is_empty() {
        return Some(Divergence {
            clean_at: Time::ZERO,
            diverged_at: Time::ZERO,
            diffs: zero_diffs,
            probes,
        });
    }
    while hi.as_ps() - lo.as_ps() > resolution.as_ps() {
        let mid = Time(lo.as_ps() + (hi.as_ps() - lo.as_ps()) / 2);
        let d = run(mid);
        eprintln!(
            "bisect: t={:.1} us -> {}",
            mid.as_us_f64(),
            if d.is_empty() {
                "identical".to_string()
            } else {
                format!("{} fields differ", d.len())
            }
        );
        if d.is_empty() {
            lo = mid;
        } else {
            hi = mid;
            hi_diffs = d;
        }
    }
    Some(Divergence {
        clean_at: lo,
        diverged_at: hi,
        diffs: hi_diffs,
        probes,
    })
}

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
    out.truncate(limit);
    out
}

fn render_short(v: &Value) -> String {
    match v {
        Value::Array(xs) => format!("[…{} items]", xs.len()),
        Value::Object(ps) => format!("{{…{} fields}}", ps.len()),
        other => serde_json::to_string(other).unwrap_or_else(|_| format!("{other:?}")),
    }
}

/// Append the diffs under `path` to `out`, returning once `out` holds
/// `limit` (one level may overshoot; [`diff_values`] cuts it back).
fn diff_into(
    left: &Value,
    right: &Value,
    path: &mut String,
    limit: usize,
    out: &mut Vec<DiffEntry>,
) {
    let entry = |path: String, left: String, right: String| DiffEntry { path, left, right };
    match (left, right) {
        (Value::Object(l), Value::Object(r)) => {
            // Schema order: walk the union of keys, left order first.
            for (k, lv) in l {
                if out.len() >= limit {
                    return;
                }
                let len = path.len();
                path.push('/');
                path.push_str(k);
                match serde::get_field(r, k) {
                    Some(rv) => diff_into(lv, rv, path, limit, out),
                    None => out.push(entry(path.clone(), render_short(lv), "<missing>".into())),
                }
                path.truncate(len);
            }
            for (k, rv) in r.iter().filter(|(k, _)| serde::get_field(l, k).is_none()) {
                out.push(entry(
                    format!("{path}/{k}"),
                    "<missing>".into(),
                    render_short(rv),
                ));
            }
        }
        (Value::Array(l), Value::Array(r)) => {
            if l.len() != r.len() {
                out.push(entry(
                    format!("{path}/len"),
                    l.len().to_string(),
                    r.len().to_string(),
                ));
            }
            for (i, (lv, rv)) in l.iter().zip(r).enumerate() {
                if out.len() >= limit {
                    return;
                }
                let len = path.len();
                path.push('/');
                path.push_str(&i.to_string());
                diff_into(lv, rv, path, limit, out);
                path.truncate(len);
            }
        }
        (l, r) if !scalar_eq(l, r) => {
            let at = if path.is_empty() {
                "/".into()
            } else {
                path.clone()
            };
            out.push(entry(at, render_short(l), render_short(r)));
        }
        _ => {}
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
    let line = |e: &DiffEntry| format!("{}: {} != {}\n", e.path, e.left, e.right);
    entries.iter().map(line).collect()
}

/// Apply a named single-parameter perturbation to a `CcParams` — the
/// "one build differs by one knob" setup `ibsim bisect` drives. An
/// unknown key or a value the field cannot hold is refused, never
/// truncated.
pub fn perturb_cc(params: &mut CcParams, key: &str, value: u64) -> Result<(), String> {
    fn fit<T: TryFrom<u64>>(key: &str, value: u64) -> Result<T, String> {
        T::try_from(value).map_err(|_| format!("{key}={value} is out of range"))
    }
    match key {
        "threshold" => params.threshold = fit(key, value)?,
        "packet_size" => params.packet_size = fit(key, value)?,
        "marking_rate" => params.marking_rate = fit(key, value)?,
        "ccti_increase" => params.ccti_increase = fit(key, value)?,
        "ccti_limit" => params.ccti_limit = fit(key, value)?,
        "ccti_min" => params.ccti_min = fit(key, value)?,
        "ccti_timer" => params.ccti_timer = fit(key, value)?,
        other => {
            return Err(format!(
                "unknown CC parameter {other:?}; one of threshold, packet_size, \
                 marking_rate, ccti_increase, ccti_limit, ccti_min, ccti_timer"
            ))
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ibsim_topo::FatTreeSpec;

    /// The silent forest on the 8-node fat tree, and the bisection grid.
    fn setup() -> (Topology, RoleSpec, Time, TimeDelta) {
        let topo = FatTreeSpec::TEST_8.build();
        let roles = RoleSpec::silent(topo.num_hcas, 1);
        (topo, roles, Time::from_us(1000), TimeDelta::from_us(50))
    }

    #[test]
    fn identical_configs_do_not_diverge() {
        let (topo, roles, horizon, res) = setup();
        let cfg = NetConfig::paper();
        let found = bisect_divergence(&topo, &cfg, &cfg, roles, horizon, res, DEFAULT_IGNORE);
        assert!(found.is_none(), "{found:?}");
    }

    #[test]
    fn a_threshold_perturbation_is_localised() {
        let (topo, roles, horizon, res) = setup();
        let cfg = NetConfig::paper();
        let mut perturbed = cfg.clone();
        let cc = perturbed.cc.as_mut().expect("the paper config runs CC");
        perturb_cc(cc, "threshold", 7).unwrap();
        let d = bisect_divergence(&topo, &cfg, &perturbed, roles, horizon, res, DEFAULT_IGNORE)
            .expect("threshold=7 changes marking within the horizon");
        let (clean, diverged) = (d.clean_at.as_ps(), d.diverged_at.as_ps());
        assert!(diverged <= horizon.as_ps(), "{d:?}");
        assert!(
            (clean < diverged && diverged - clean <= res.as_ps()) || diverged == 0,
            "window ({clean}, {diverged}] ps wider than {res:?}"
        );
        let field = d.first_field().expect("a differing field");
        assert!(
            field.starts_with("/switches") || field.starts_with("/hcas"),
            "{field}"
        );
        let steps = (horizon.as_ps() as f64 / res.as_ps() as f64).log2().ceil() as u32;
        assert!(
            d.probes <= 2 + steps,
            "{} probes for {steps} halvings",
            d.probes
        );
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
            (
                "arr".into(),
                Value::Array(vec![Value::U64(1), Value::U64(2)]),
            ),
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
