//! Run any hotspot scenario or workload from a JSON specification — the
//! config-file front door a downstream user reaches for first.
//!
//! ```text
//! cargo run --release -p ibsim-experiments --bin simulate -- configs/silent_forest.json
//! ```
//!
//! The spec format is documented on [`ibsim_experiments::spec::SimSpec`];
//! see `configs/` for ready-made examples. Results print as a table and
//! as JSON on stdout (`--json` for JSON only).

use ibsim::prelude::*;
use ibsim_experiments::spec::{SimResult, SimSpec};
use ibsim_experiments::{f2, f3, or_exit, print_workload, Args};

fn main() {
    let args = Args::parse();
    let Some(path) = args.positionals.first() else {
        eprintln!("usage: simulate <spec.json> [--json] [run options]");
        std::process::exit(2);
    };
    let text =
        or_exit(std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}")));
    let mut spec = or_exit(SimSpec::from_json(&text).map_err(|e| format!("bad spec {path}: {e}")));
    // Spec `options` < IBSIM_* < flags, resolved before anything runs.
    spec.options = or_exit(args.try_run_options(spec.options.clone()));
    let nodes = spec.topology.build().num_hcas;
    let (on, off) = or_exit(spec.run().map_err(|e| format!("run failed: {e}")));

    if args.get_flag("json") {
        println!(
            "{}",
            serde_json::to_string_pretty(&(&on, &off)).expect("serialise")
        );
        return;
    }

    let mut rows = vec![];
    for r in [Some(&on), off.as_ref()].into_iter().flatten() {
        match r {
            SimResult::Workload(r) => print_workload(r, nodes),
            SimResult::Scenario(r) => rows.push(vec![
                if r.cc { "on" } else { "off" }.to_string(),
                f3(r.hotspot_rx),
                f3(r.non_hotspot_rx),
                f3(r.all_rx),
                f2(r.total_rx),
                format!("{:.1}", r.latency_p50_us),
                format!("{:.1}", r.latency_p99_us),
                r.fairness.map(|f| format!("{f:.3}")).unwrap_or_default(),
            ]),
        }
    }
    if rows.is_empty() {
        return;
    }
    println!(
        "{}",
        ascii_table(
            &[
                "cc",
                "hotspot",
                "non-hotspot",
                "all",
                "total",
                "p50 us",
                "p99 us",
                "fairness"
            ],
            &rows
        )
    );
}
