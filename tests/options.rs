//! `RunOptions` from the outside: one parser, one arm, one finish;
//! hostile option values are refused by name and never unwind; a
//! parallel sweep's artifacts are labelled one run at a time.

use ibsim::options::KEYS;
use ibsim::prelude::*;
use proptest::prelude::*;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

fn set_all(pairs: &[(&str, &str)]) -> Result<RunOptions, OptionsError> {
    let mut o = RunOptions::default();
    pairs.iter().try_for_each(|(k, v)| o.set(k, v))?;
    Ok(o)
}

#[test]
fn one_parser_for_every_key() {
    let o = set_all(&[
        ("audit", "1"),
        ("shards", "4"),
        ("telemetry", "true"),
        ("telemetry_det", "on"),
        ("trace_flows", "1:0, 2:0,"),
        ("profile", "true"),
        ("out", "o"),
        ("checkpoint_at", "9000"),
        ("checkpoint_dir", "c"),
        ("resume_from", "tests"),
    ])
    .unwrap();
    assert_eq!(o.audit, Some(ibsim::options::DEFAULT_AUDIT_EVERY));
    assert_eq!(
        (o.shards, o.telemetry, o.telemetry_det),
        (4, Some(100), true)
    );
    assert_eq!(o.trace_flows, Some(FlowSpec::Flows(vec![(1, 0), (2, 0)])));
    assert_eq!(o.checkpoint_at, Some(9000));
    // A serialised value reads back as itself through the parser.
    assert_eq!(RunOptions::from_value(&o.to_value()).unwrap(), o);
    assert_eq!(set_all(&[("audit", "20000")]).unwrap().audit, Some(20_000));
    assert_eq!(
        set_all(&[("trace_flows", "hotspots")]).unwrap().trace_flows,
        Some(FlowSpec::Hotspots)
    );
}

#[test]
fn bad_values_and_keys_are_named() {
    for (k, v) in [
        ("shards", "0"),
        ("telemetry", "0"),
        ("checkpoint_at", "0"),
        ("checkpoint_at", "18446744073709551615"),
        ("trace_flows", "7"),
        ("trace_flows", "a:b"),
        ("out", ""),
        ("resume_from", "no/such/dir"),
        ("resume_from", "Cargo.toml"),
        ("shardz", "2"),
    ] {
        let e = set_all(&[(k, v)]).unwrap_err();
        assert_eq!((e.key.as_str(), e.value.as_str()), (k, v));
        assert!(e.to_string().contains(k), "{e}");
    }
    // The retired second backend's key, spelt in pieces so that no
    // spelling of the retired names is left in the tree to find.
    let retired = ["cc", "backend"].join("_");
    let e = set_all(&[(&retired, "ibcc")]).unwrap_err();
    assert_eq!((e.key, e.value.as_str()), (retired, "ibcc"));
    let spec = serde_json::from_str::<RunOptions>(r#"{"shards": 2, "audti": 1}"#);
    assert!(spec.unwrap_err().to_string().contains("audti"));
}

#[test]
fn sources_layer_and_unsupported_keys_are_refused() {
    let env = |k: &str| (k == "shards").then(|| "4".to_string());
    let flag = |k: &str| (k == "audit").then(|| "true".to_string());
    let base = set_all(&[("shards", "2"), ("profile", "true")]).unwrap();
    let o = base.overlay(env).unwrap().overlay(flag).unwrap();
    assert_eq!(
        (o.shards, o.profile, o.audit),
        (4, true, Some(ibsim::options::DEFAULT_AUDIT_EVERY))
    );
    let e = o
        .clone()
        .without(&["profile", "shards"], "this runner")
        .unwrap_err();
    assert_eq!((e.key.as_str(), e.value.as_str()), ("profile", "true"));
    assert_eq!(o.clone().without(&["resume_from"], "this runner"), Ok(o));
}

#[test]
fn network_arms_what_the_options_say_and_nothing_else() {
    let topo = FatTreeSpec::TEST_8.build();
    let plain = RunOptions::default().network(&topo, NetConfig::paper());
    assert!(!plain.audit_enabled() && !plain.telemetry_enabled() && !plain.profile_enabled());
    assert!(plain.tracer().is_none());
    assert_eq!(plain.shard_count(), 1);

    let opts = set_all(&[
        ("audit", "true"),
        ("shards", "4"),
        ("telemetry", "50"),
        ("trace_flows", "1:0"),
        ("profile", "true"),
    ])
    .unwrap();
    let net = opts.network(&topo, NetConfig::paper());
    assert!(net.audit_enabled() && net.telemetry_enabled() && net.profile_enabled());
    // Observers run serial.
    assert!(net.tracer().is_some() && net.shard_count() == 1);
    // Without them the same shards, audit and profile split the fabric.
    let unobserved = set_all(&[("audit", "true"), ("shards", "4"), ("profile", "true")]).unwrap();
    let net = unobserved.network(&topo, NetConfig::paper());
    assert!(net.audit_enabled() && net.profile_enabled());
    assert!(!net.telemetry_enabled() && net.tracer().is_none());
    assert!(net.shard_count() > 1);
    // One leaf group stays serial.
    let single = single_switch(4, 2);
    assert_eq!(
        unobserved
            .network(&single, NetConfig::paper())
            .shard_count(),
        1
    );
}

#[test]
fn finish_writes_one_labelled_set_and_nothing_when_unarmed() {
    let dir = std::env::temp_dir().join(format!("ibsim_opts_{}", std::process::id()));
    let mut opts = set_all(&[
        ("telemetry", "50"),
        ("trace_flows", "1:0"),
        ("profile", "on"),
    ])
    .unwrap();
    opts.out = dir.clone();
    let topo = single_switch(8, 4);
    let run = |opts: &RunOptions| {
        let mut net = opts.network(&topo, NetConfig::paper());
        for n in 1..4 {
            net.set_classes(n, vec![TrafficClass::new(100, DestPattern::Fixed(0), 4096)]);
        }
        net.run_until(ibsim_engine::time::Time::from_us(300));
        opts.finish(&mut net, Some("cc_on"), &[0])
    };
    let done = run(&opts);
    let label = done.label.expect("armed run draws a label");
    assert!(label.starts_with("run") && label.ends_with("_cc_on"));
    assert_eq!(done.files.len(), 6);
    assert!(done
        .files
        .iter()
        .all(|p| p.to_string_lossy().contains(&label)));
    let csv = std::fs::read_to_string(&done.files[0]).unwrap();
    assert!(
        csv.starts_with("t_us,") && csv.lines().count() == 1 + 7,
        "300µs / 50µs + 1 samples"
    );
    let trace = std::fs::read_to_string(&done.files[4]).unwrap();
    assert!(trace.starts_with("at_ps,src,dst,seq,cnp,point,vl,voq,credit,detail"));
    assert!(trace.lines().count() > 1, "traced flow produced records");
    let profile = std::fs::read_to_string(&done.files[5]).unwrap();
    assert!(profile.contains("queue_pop") && profile.contains("ns_per_event"));
    assert!(done.audit.is_clean());

    let off = run(&RunOptions {
        out: dir.clone(),
        ..RunOptions::default()
    });
    assert!(off.label.is_none() && off.files.is_empty());
    std::fs::remove_dir_all(&dir).ok();
}

/// Valid values for one key or another, plus the classic mutations:
/// zero, negative, overflow, empty, `a:b`, trailing commas, near-miss
/// spellings.
const SEEDS: &[&str] = &[
    "0",
    "1",
    "-1",
    "",
    " ",
    "true",
    "on",
    "off",
    "false",
    "TRUE",
    "4",
    "50",
    "20000",
    "18446744073709551615",
    "18446744073709551616",
    "99999999999999999999999999",
    "+4",
    "4.0",
    "1e3",
    "0x10",
    "4\n",
    "\0",
    "٤",
    "a:b",
    "0:3",
    "0:3,5:3,",
    ",",
    "0:",
    ":0",
    "0:3:4",
    "0:-1",
    "0:4294967296",
    "hotspots",
    "hotspot",
    "ibcc",
    "tcp",
    "results",
    "/",
    "../x",
];

proptest! {
    /// For every key in the table (and a key that does not exist),
    /// arbitrary strings and mutated valid values through
    /// `set` — and through the layered `overlay` path the environment
    /// and the flags take — come back `Ok` or as an error naming key
    /// and value. A panic anywhere fails the case.
    #[test]
    fn hostile_values_are_refused_by_name_and_never_unwind(
        key_pick in 0usize..KEYS.len() + 1,
        seed_pick in 0usize..SEEDS.len(),
        noise in prop::collection::vec(any::<u8>(), 0..12),
        shape in 0u8..4,
    ) {
        let key = KEYS
            .get(key_pick)
            .copied()
            .unwrap_or("shardz");
        let noise = String::from_utf8_lossy(&noise).into_owned();
        let value = match shape {
            0 => SEEDS[seed_pick].to_string(),
            1 => noise,
            2 => format!("{}{noise}", SEEDS[seed_pick]),
            _ => format!("{noise}{}", SEEDS[seed_pick]),
        };

        let mut direct = RunOptions::default();
        let verdict = direct.set(key, &value);
        if let Err(e) = &verdict {
            prop_assert_eq!(&e.key, key);
            prop_assert_eq!(&e.value, &value);
            prop_assert!(e.to_string().contains(key), "{}", e);
            prop_assert_eq!(&direct, &RunOptions::default(), "a refused value must change nothing");
        } else {
            // What the parser accepts, it can read back.
            let back = RunOptions::from_value(&direct.to_value());
            prop_assert_eq!(back.map_err(|e| e.to_string()), Ok(direct.clone()));
        }

        let layered = RunOptions::default().overlay(|k| (k == key).then(|| value.clone()));
        if key == "shardz" {
            prop_assert_eq!(layered, Ok(RunOptions::default()), "sources only offer table keys");
        } else {
            prop_assert_eq!(layered, verdict.map(|()| direct));
        }
    }
}

/// One label per run: in a threaded sweep with every observer on,
/// each `runNNN_<hint>` label that appears owns the complete artifact
/// set — telemetry, flight, figure, both trace exports and the profile
/// — so the six files of a label (and the `cc_on`/`cc_off` hint in
/// their names) belong to one cell. With one counter per layer, as
/// before, `telemetry_run003_*` and `trace_run003_*` could be
/// different cells.
#[test]
fn every_label_of_a_parallel_sweep_owns_a_complete_artifact_set() {
    let dir = std::env::temp_dir().join(format!("ibsim_labels_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let opts = RunOptions {
        telemetry: Some(100),
        trace_flows: Some(FlowSpec::Hotspots),
        profile: true,
        out: dir.clone(),
        ..RunOptions::default()
    };
    let topo = FatTreeSpec::TEST_8.build();
    let dur = RunDurations {
        warmup: TimeDelta::from_us(100),
        measure: TimeDelta::from_us(200),
    };
    let cells: Vec<(bool, u32)> = [20, 40, 60, 80]
        .into_iter()
        .flat_map(|p| [(false, p), (true, p)])
        .collect();
    parallel_map(&cells, 4, |&(cc, p)| {
        let roles = RoleSpec {
            num_nodes: topo.num_hcas,
            num_hotspots: 1,
            b_pct: 100,
            b_p: p,
            c_pct_of_rest: 80,
        };
        let cfg = if cc {
            NetConfig::paper()
        } else {
            NetConfig::paper_no_cc()
        };
        opts.run_scenario(&topo, cfg, roles, dur, None, true)
    });

    let mut by_label: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    for entry in std::fs::read_dir(&dir).expect("the sweep wrote artifacts") {
        let name = entry.unwrap().file_name().to_string_lossy().into_owned();
        let (kind, rest) = name.split_once('_').expect("kind_label.ext");
        let (label, ext) = rest.rsplit_once('.').expect("kind_label.ext");
        by_label
            .entry(label.to_string())
            .or_default()
            .insert(format!("{kind}.{ext}"));
    }
    let full: BTreeSet<String> = [
        "telemetry.csv",
        "flight.json",
        "figure.csv",
        "trace.json",
        "trace.csv",
        "profile.json",
    ]
    .into_iter()
    .map(String::from)
    .collect();
    assert_eq!(
        by_label.len(),
        cells.len(),
        "one label per cell: {by_label:?}"
    );
    for (label, files) in &by_label {
        assert_eq!(files, &full, "label {label} is missing artifacts");
    }
    let on = by_label.keys().filter(|l| l.ends_with("_cc_on")).count();
    let off = by_label.keys().filter(|l| l.ends_with("_cc_off")).count();
    assert_eq!((on, off), (4, 4), "{:?}", by_label.keys());
    std::fs::remove_dir_all(&dir).ok();
}
