//! Shared plumbing for the experiment binaries: a tiny argument parser
//! (no external CLI dependency) and common output helpers.

pub mod spec;

use ibsim::{OptionsError, Preset, RunOptions};
use std::collections::HashMap;

/// Unwrap a start-up result or print the error and exit 2 — how every
/// binary reports a bad option.
pub fn or_exit<T>(r: Result<T, impl std::fmt::Display>) -> T {
    r.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2)
    })
}

/// Parsed `--key value` arguments plus positionals.
#[derive(Debug, Default)]
pub struct Args {
    flags: HashMap<String, String>,
    pub positionals: Vec<String>,
}

impl Args {
    /// Parse `std::env::args()` (skipping `argv[0]`). `--key value` and
    /// `--key=value` are both accepted; bare `--key` stores "true".
    pub fn parse() -> Args {
        Self::from_iter(std::env::args().skip(1))
    }

    /// Build from an explicit argument sequence (tests, embedding).
    // Not the std trait: this is a fallible-free constructor that also
    // takes owned Strings; the name matches clap's convention.
    #[allow(clippy::should_implement_trait)]
    pub fn from_iter(iter: impl IntoIterator<Item = String>) -> Args {
        let mut args = Args::default();
        let mut it = iter.into_iter().peekable();
        while let Some(a) = it.next() {
            if let Some(key) = a.strip_prefix("--") {
                if let Some((k, v)) = key.split_once('=') {
                    args.flags.insert(k.to_string(), v.to_string());
                } else if it.peek().is_some_and(|n| !n.starts_with("--")) {
                    let v = it.next().unwrap();
                    args.flags.insert(key.to_string(), v);
                } else {
                    args.flags.insert(key.to_string(), "true".to_string());
                }
            } else {
                args.positionals.push(a);
            }
        }
        args
    }

    pub fn get(&self, key: &str) -> Option<&str> {
        self.flags.get(key).map(|s| s.as_str())
    }

    pub fn get_u64(&self, key: &str, default: u64) -> u64 {
        self.get(key)
            .map(|v| {
                v.parse()
                    .unwrap_or_else(|_| panic!("--{key} wants a number, got {v:?}"))
            })
            .unwrap_or(default)
    }

    pub fn get_u32(&self, key: &str, default: u32) -> u32 {
        self.get_u64(key, default as u64) as u32
    }

    pub fn get_flag(&self, key: &str) -> bool {
        self.get(key).is_some_and(|v| v != "false")
    }

    /// The shared `--preset {quick|medium|paper}` flag.
    pub fn preset(&self) -> Preset {
        match self.get("preset") {
            None => Preset::Quick,
            Some(s) => Preset::parse(s)
                .unwrap_or_else(|| panic!("unknown preset {s:?}; try quick|medium|paper")),
        }
    }

    /// The shared `--seed N` flag.
    pub fn seed(&self) -> u64 {
        self.get_u64("seed", 0x1B51_C0DE)
    }

    /// The shared `--threads N` flag (0 = auto).
    pub fn threads(&self) -> usize {
        self.get_u64("threads", 0) as usize
    }

    /// The shared `--faults SPEC` flag: compile the fault-schedule spec
    /// (see `ibsim_faults::spec` / README for the grammar) against the
    /// run seed. `None` when the flag is absent; panics, naming the
    /// parse error, when the spec is malformed — a drill whose faults
    /// silently failed to install would measure nothing.
    pub fn faults(&self) -> Option<ibsim_net::FaultSchedule> {
        self.get("faults").map(|spec| {
            ibsim_net::FaultSchedule::from_spec(spec, self.seed())
                .unwrap_or_else(|e| panic!("--faults: {e}"))
        })
    }

    /// The shared run options (`--audit --cc-backend --shards
    /// --telemetry[=US] --telemetry-det --trace-flows --profile --out
    /// --checkpoint-at --checkpoint-dir --resume-from`), resolved once:
    /// defaults, then `IBSIM_<KEY>`, then the flags. A bad value prints
    /// the error — naming key and value — and exits 2.
    pub fn run_options(&self) -> RunOptions {
        or_exit(self.try_run_options(RunOptions::default()))
    }

    /// As [`Args::run_options`], layered over `base` (a spec file's
    /// `options`) and returning the error instead of exiting.
    pub fn try_run_options(&self, base: RunOptions) -> Result<RunOptions, OptionsError> {
        base.overlay_env()?
            .overlay(|key| self.get(&key.replace('_', "-")).map(String::from))
    }

    /// The shared `--workload SPEC` flag: a production-shaped workload
    /// (`incast:…`, `eb:…`, `collective:…` or `trace:<path>`) to run on
    /// the binary's fabric *instead of* its hotspot scenario. See
    /// `WorkloadSpec::parse` for the grammar.
    pub fn workload(&self) -> Option<ibsim_traffic::WorkloadSpec> {
        self.get("workload").map(|s| {
            ibsim_traffic::WorkloadSpec::parse(s).unwrap_or_else(|e| panic!("--workload: {e}"))
        })
    }
}

/// Run one `--workload` end to end on `topo` and report: an ASCII
/// summary on stdout plus `workload_<name>.csv` in `--out`. Shared by
/// the `workloads` bin and the `--workload` escape hatch on the
/// scenario binaries (`windy`, `table2`).
pub fn run_workload_cli(
    opts: &RunOptions,
    topo: &ibsim_topo::Topology,
    cfg: ibsim_net::NetConfig,
    spec: &ibsim_traffic::WorkloadSpec,
    dur: ibsim::RunDurations,
) -> ibsim::WorkloadResult {
    let r = opts.run_workload(topo, cfg, spec, dur);
    print_workload(&r, topo.num_hcas);
    let out = &opts.out;
    std::fs::create_dir_all(out).expect("create out dir");
    let csv_rows: Vec<Vec<String>> = r
        .category_rx
        .iter()
        .map(|(name, gbps)| {
            vec![
                r.workload.clone(),
                name.clone(),
                f3(*gbps),
                f3(r.total_rx),
                f3(r.latency_p50_us),
                f3(r.latency_p99_us),
                r.drained.to_string(),
                r.events.to_string(),
            ]
        })
        .collect();
    ibsim::prelude::write_csv(
        &out.join(format!("workload_{}.csv", spec.name())),
        &[
            "workload",
            "category",
            "avg_rx_gbps",
            "total_rx_gbps",
            "p50_us",
            "p99_us",
            "drained",
            "events",
        ],
        &csv_rows,
    )
    .expect("write workload csv");
    r
}

/// The stdout summary of one workload run: per-category receive rates
/// plus the latency / marking / drain line.
pub fn print_workload(r: &ibsim::WorkloadResult, nodes: usize) {
    let mut rows: Vec<Vec<String>> = r
        .category_rx
        .iter()
        .map(|(name, gbps)| vec![name.clone(), f3(*gbps)])
        .collect();
    rows.push(vec!["total".into(), f3(r.total_rx)]);
    println!("workload {} on {} nodes:", r.workload, nodes);
    println!(
        "{}",
        ibsim::prelude::ascii_table(&["category", "avg rx (Gbit/s)"], &rows)
    );
    println!(
        "  p50 {:.2} us  p99 {:.2} us  fecn {}  becn {}  max_ccti {}  drained {} ({:.1} us)",
        r.latency_p50_us,
        r.latency_p99_us,
        r.fecn_marks,
        r.becns,
        r.max_ccti,
        r.drained,
        r.drained_at_us
    );
}

/// Format a float with 3 decimals for tables.
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}
/// Format a float with 2 decimals for tables.
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &[&str]) -> Args {
        Args::from_iter(s.iter().map(|s| s.to_string()))
    }

    #[test]
    fn key_value_styles() {
        let a = parse(&["pos", "--x", "25", "--preset=paper", "--verbose"]);
        assert_eq!(a.get("x"), Some("25"));
        assert_eq!(a.get("preset"), Some("paper"));
        assert!(a.get_flag("verbose"));
        assert_eq!(a.positionals, vec!["pos"]);
        assert_eq!(a.preset(), Preset::Paper);
    }

    #[test]
    fn defaults() {
        let a = parse(&[]);
        assert_eq!(a.preset(), Preset::Quick);
        assert_eq!(a.get_u64("nope", 7), 7);
        assert!(!a.get_flag("missing"));
    }

    #[test]
    #[should_panic]
    fn bad_number_panics() {
        parse(&["--n", "abc"]).get_u64("n", 0);
    }

    #[test]
    fn flag_followed_by_flag() {
        // A value that looks like a flag is not eaten as a value.
        let a = parse(&["--a", "--b", "val"]);
        assert_eq!(a.get("a"), Some("true"));
        assert_eq!(a.get("b"), Some("val"));
    }
}
