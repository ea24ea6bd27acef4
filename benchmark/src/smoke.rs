//! All four workloads at smoke scale, held against BENCHMARK.json.

use crate::measure::{self, Args};
use crate::report::contract_line;
use crate::scale::{DEFAULT_SEED, SMOKE};
use crate::workloads::Kind;
use serde_json::Value;

fn names(list: &Value) -> Vec<(String, String)> {
    let list = list.as_array().expect("a list of metrics");
    list.iter()
        .map(|m| {
            let field = |k: &str| {
                m[k].as_str()
                    .unwrap_or_else(|| panic!("metric without {k}"))
            };
            (field("name").to_string(), field("unit").to_string())
        })
        .collect()
}

/// One test, not one per workload: the checkpoint directory the ckpt
/// stage saves to is process-wide state in `ibsim::checkpoint`.
#[test]
fn emits_exactly_the_metrics_benchmark_json_names() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the root of the repository");
    let spec: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");

    let workloads: Vec<&str> = spec["workloads"]
        .as_array()
        .expect("workloads")
        .iter()
        .map(|w| w["name"].as_str().expect("a workload name"))
        .collect();
    assert_eq!(workloads, Kind::ALL.map(Kind::name));

    for kind in Kind::ALL {
        for (trace, listed) in [(false, "end_to_end"), (true, "per_layer")] {
            let outcome = measure::run(&Args {
                kind,
                seed: DEFAULT_SEED,
                seconds: 0.0,
                trace,
                min_reps: 2,
                scale: &SMOKE,
            })
            .expect("a scratch directory");
            let line: Value =
                serde_json::from_str(&contract_line(&outcome)).expect("one JSON object");
            let keys: Vec<&str> = line
                .as_object()
                .expect("an object")
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            let failed: Vec<_> = outcome
                .checks
                .iter()
                .filter(|c| !c.ok)
                .map(|c| c.name)
                .collect();
            assert!(
                failed.is_empty(),
                "{} trace {trace}: failed checks {failed:?}",
                kind.name()
            );
            assert_eq!(line["correct"], Value::Bool(true));
            assert!(line["attempted"].as_u64().expect("attempted") >= 1);

            // Exactly the listed names, each once, in the listed order.
            let emitted: Vec<(String, String)> = line["metrics"]
                .as_object()
                .expect("metrics")
                .iter()
                .map(|(name, m)| {
                    (
                        name.clone(),
                        m["unit"].as_str().expect("a unit").to_string(),
                    )
                })
                .collect();
            assert_eq!(emitted, names(&spec[listed]), "{} {listed}", kind.name());
            for (name, m) in line["metrics"].as_object().expect("metrics") {
                assert!(
                    name.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                    "metric name {name}"
                );
                match m["value"] {
                    Value::F64(v) => assert!(v.is_finite(), "{name} = {v}"),
                    ref other => panic!("{name}: value {other:?} is not a float"),
                }
            }
        }
    }
}
