//! The JSON scenario files shipped in `configs/` must stay parseable
//! and runnable as the spec format evolves.

use ibsim::spec::{SimResult, SimSpec};

fn configs_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("configs")
}

#[test]
fn every_shipped_config_parses_and_validates() {
    let dir = configs_dir();
    let mut found = 0;
    for entry in std::fs::read_dir(&dir).expect("configs/ exists") {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|e| e == "json") {
            found += 1;
            let text = std::fs::read_to_string(&path).unwrap();
            let spec = SimSpec::from_json(&text).unwrap_or_else(|e| panic!("{path:?}: {e}"));
            // Cheap structural validation without a full run.
            let topo = spec.topology.build();
            topo.validate().unwrap_or_else(|e| panic!("{path:?}: {e}"));
            spec.net
                .validate()
                .unwrap_or_else(|e| panic!("{path:?}: {e}"));
        }
    }
    assert!(
        found >= 3,
        "expected the shipped example configs, found {found}"
    );
}

#[test]
fn silent_forest_config_runs_end_to_end() {
    let text = std::fs::read_to_string(configs_dir().join("silent_forest.json")).unwrap();
    let mut spec = SimSpec::from_json(&text).unwrap();
    // Shrink for test speed; semantics unchanged.
    spec.warmup_ms = 1;
    spec.measure_ms = 1;
    let (on, off) = spec.run().unwrap();
    let (SimResult::Scenario(on), Some(SimResult::Scenario(off))) = (on, off) else {
        panic!("config requests a CC-off twin of a hotspot scenario");
    };
    assert!(
        on.total_rx > off.total_rx,
        "CC must win on the silent forest"
    );
}
