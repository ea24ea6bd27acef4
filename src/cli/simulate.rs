//! Run any hotspot scenario or workload from a JSON specification — the
//! config-file front door a downstream user reaches for first. The
//! format is documented on [`SimSpec`]; `configs/` has ready-made
//! examples. Results print as a table, or as JSON with `--json`.

use super::{f2, f3, table, workloads, ArgError, Args, Job};
use crate::report::ascii_table;
use crate::spec::{SimResult, SimSpec};

pub(super) fn plan(a: &Args) -> Result<Job, ArgError> {
    let path = a.operand()?;
    let bad = |reason: String| ArgError::new("<spec.json>", path, reason);
    let text = std::fs::read_to_string(path).map_err(|e| bad(format!("cannot be read: {e}")))?;
    let mut spec = SimSpec::from_json(&text).map_err(|e| bad(format!("is not a spec: {e}")))?;
    // Spec `options` < IBSIM_* < flags, resolved before anything runs.
    spec.options = a.run_options(spec.options.clone())?;
    let nodes = spec.check().map_err(bad)?.0.num_hcas;
    let as_json = a.switch("json")?;
    Ok(Box::new(move || {
        let (on, off) = spec.run()?;
        if as_json {
            let text = serde_json::to_string_pretty(&(&on, &off)).map_err(|e| e.to_string())?;
            println!("{text}");
            return Ok(());
        }
        let mut scenarios = vec![];
        for r in [Some(&on), off.as_ref()].into_iter().flatten() {
            match r {
                SimResult::Workload(r) => workloads::print(r, nodes),
                SimResult::Scenario(r) => scenarios.push(r),
            }
        }
        if !scenarios.is_empty() {
            let r = &scenarios;
            let (header, rows) = table(
                &[
                    ("cc", &|i| if r[i].cc { "on" } else { "off" }.into()),
                    ("hotspot", &|i| f3(r[i].hotspot_rx)),
                    ("non-hotspot", &|i| f3(r[i].non_hotspot_rx)),
                    ("all", &|i| f3(r[i].all_rx)),
                    ("total", &|i| f2(r[i].total_rx)),
                    ("p50 us", &|i| format!("{:.1}", r[i].latency_p50_us)),
                    ("p99 us", &|i| format!("{:.1}", r[i].latency_p99_us)),
                    ("fairness", &|i| {
                        r[i].fairness.map(|f| format!("{f:.3}")).unwrap_or_default()
                    }),
                ],
                r.len(),
            );
            println!("{}", ascii_table(&header, &rows));
        }
        Ok(())
    }))
}
