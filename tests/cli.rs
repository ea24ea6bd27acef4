//! The `ibsim` command line from the outside: hostile input is refused
//! with an error naming the flag and the value — never a panic, never a
//! silent default — and the binary exits 2 for it.

use ibsim::cli::{parse, ArgError, Args, COMMANDS};
use ibsim::prelude::{FatTreeSpec, NetConfig, Network, WorkloadSpec};
use ibsim_traffic::{TraceGenSpec, TracePattern};
use proptest::prelude::*;
use std::process::Command;

fn argv(line: &str) -> Vec<String> {
    line.split_whitespace().map(String::from).collect()
}

fn refused(line: &str) -> ArgError {
    match parse(&argv(line)) {
        Ok(_) => panic!("`{line}` was accepted"),
        Err(e) => e,
    }
}

fn args(cmd: &str, line: &str) -> Args {
    let cmd = COMMANDS.iter().find(|c| c.name == cmd).unwrap();
    Args::parse(cmd, &argv(line)).unwrap()
}

/// The inputs that used to panic (exit 101) or silently run something
/// else: each is an `ArgError` naming the flag and the value.
#[test]
fn hostile_command_lines_are_refused_by_name() {
    // The retired second backend's flags, spelt in pieces so that no
    // spelling of the retired names is left in the tree to find.
    let compare = format!("--{}-compare", "backend");
    let (table2_compare, windy_compare) =
        (format!("table2 {compare}"), format!("windy {compare} true"));
    for (line, flag, value) in [
        ("table2 --cc-backend ibcc", "--cc-backend", "ibcc"),
        (table2_compare.as_str(), compare.as_str(), "true"),
        (windy_compare.as_str(), compare.as_str(), "true"),
        ("table2 --preset quickk", "--preset", "quickk"),
        ("windy --x abc", "--x", "abc"),
        ("windy --x 101", "--x", "101"),
        ("workloads --workload bogus", "--workload", "bogus"),
        ("ablation --param nope", "--param", "nope"),
        ("tracegen", "<out.ibtr>", ""),
        // The retired fault layer's flag and command.
        ("moving --faults nonsense", "--faults", "nonsense"),
        ("faults --bin-us 0", "command", "faults"),
        // Used to run x = 25: an undeclared flag was ignored …
        ("windy --xx 50", "--xx", "50"),
        // … and a u32 was truncated.
        ("windy --x 4294967321", "--x", "4294967321"),
        ("tracegen --shards 2 t.ibtr", "--shards", "2"),
        ("table2 quick", "ibsim table2", "quick"),
        ("bisect --perturb threshold", "--perturb", "threshold"),
        ("bisect --perturb threshold=x", "--perturb", "threshold=x"),
        ("bisect --perturb threshold=15", "--perturb", "threshold=15"),
        (
            "bisect --perturb threshold=300",
            "--perturb",
            "threshold=300",
        ),
        ("bisect --perturb nosuch=3", "--perturb", "nosuch=3"),
        ("bisect --resolution-us 0", "--resolution-us", "0"),
        ("moving --b maybe", "--b", "maybe"),
        ("tabel2", "command", "tabel2"),
    ] {
        let e = refused(line);
        let ArgError::Arg {
            arg, value: got, ..
        } = &e
        else {
            panic!("`{line}`: {e}");
        };
        assert_eq!((arg.as_str(), got.as_str()), (flag, value), "`{line}`");
        let text = e.to_string();
        assert!(text.contains(flag) && text.contains(value), "{text}");
    }
    // Run options go through the one `RunOptions` parser.
    let ArgError::RunOption(e) = refused("table2 --shards 0") else {
        panic!("--shards 0 is a run-option error");
    };
    assert_eq!((e.key.as_str(), e.value.as_str()), ("shards", "0"));
    let ArgError::RunOption(e) = refused("latency --resume-from ckpts") else {
        panic!("latency refuses resume_from");
    };
    assert_eq!(e.key, "resume_from");
    // A workload the fabric's clock or memory cannot hold used to panic;
    // the reason names the options at fault.
    for (wl, names) in [
        ("eb:shifts=4294967295", "shifts=4294967295,fanin=8"),
        ("collective:algo=a2a,rounds=4294967295", "rounds=4294967295"),
        ("collective:slot_us=18446744073709551615", "slot_us="),
        (
            "incast:dst=0,fanin=2,stagger_ns=18446744073709551615",
            "stagger_ns=",
        ),
    ] {
        let e = refused(&format!("workloads --workload {wl}"));
        let ArgError::Arg { arg, value, reason } = &e else {
            panic!("`{wl}`: {e}");
        };
        assert_eq!((arg.as_str(), value.as_str()), ("--workload", wl));
        assert!(reason.contains(names), "`{wl}`: {reason}");
    }
}

/// `--key value`, `--key=value`, a bare `--key`; a value that looks
/// like a flag is not eaten; defaults come from the command table.
#[test]
fn spellings_and_declared_defaults() {
    let a = args("moving", "--v=60 --b --p 30 --seed 7");
    assert_eq!(a.num("v", 0..=100u32), Ok(60));
    assert_eq!(a.switch("b"), Ok(true));
    assert_eq!(a.num("p", 0..=100u32), Ok(30));
    assert!(a.given("seed") && !a.given("threads"));
    assert_eq!(a.num("threads", 0..=usize::MAX), Ok(0));
    assert_eq!(a.preset().map(|p| p.name()), Ok("quick"));
    let a = args("simulate", "spec.json --json --shards 2");
    assert_eq!((a.operand(), a.switch("json")), (Ok("spec.json"), Ok(true)));
    // Every declared default parses for the commands that need no
    // operand, and the seed is the paper configuration's.
    for cmd in COMMANDS.iter().filter(|c| c.operand.is_empty()) {
        let all = if cmd.name == "workloads" {
            " --all"
        } else {
            ""
        };
        assert!(
            parse(&argv(&format!("{}{all}", cmd.name))).is_ok(),
            "{}",
            cmd.name
        );
    }
    let seed = args("table2", "").num("seed", 0..=u64::MAX);
    assert_eq!(seed, Ok(ibsim_net::NetConfig::paper().seed));
}

fn trace(nodes: u32, name: &str) -> String {
    let path = std::env::temp_dir().join(format!("ibsim_cli_{}_{name}", std::process::id()));
    let spec = TraceGenSpec {
        nodes,
        flows: 16,
        bytes: 4096,
        mean_gap_ns: 1000,
        pattern: TracePattern::Uniform,
        seed: 1,
    };
    ibsim_traffic::flowtrace::synthesize_to(&spec, &path).unwrap();
    path.to_string_lossy().into_owned()
}

/// A trace cut for another fabric is refused naming the file and both
/// node counts (it used to panic inside the run); `--preset` picks the
/// fabric the trace is checked against.
#[test]
fn a_trace_must_fit_the_fabric() {
    let t72 = trace(72, "t72.ibtr");
    let e = refused(&format!("workloads --workload trace:{t72}")).to_string();
    assert!(
        e.contains(&t72) && e.contains("72 nodes, fabric has 8"),
        "{e}"
    );
    assert!(parse(&argv(&format!(
        "workloads --preset quick --workload trace:{t72}"
    )))
    .is_ok());
    let e = refused(&format!(
        "workloads --preset quick --fabric fat8 --workload trace:{t72}"
    ));
    assert!(e.to_string().contains("fabric has 8"), "{e}");
    let e = refused("workloads --workload trace:/nonexistent/x.ibtr").to_string();
    assert!(e.contains("opening trace /nonexistent/x.ibtr"), "{e}");
    // The install checks run before anything does (this used to panic
    // inside the run).
    let e = refused("workloads --workload incast:dst=0,fanin=32").to_string();
    assert!(e.contains("fanin 32") && e.contains("--workload"), "{e}");
    std::fs::remove_file(t72).ok();
}

fn ibsim(line: &str, out: &std::path::Path) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_ibsim"))
        .args(argv(line))
        .arg("--out")
        .arg(out)
        .output()
        .unwrap()
}

/// `workloads --preset` takes the preset's fabric and windows unless
/// `--fabric`, `--warmup-us` or `--measure-us` say otherwise; without
/// it the defaults stay fat8, 100/400 µs.
#[test]
fn workloads_preset_selects_fabric_and_windows() {
    let out = std::env::temp_dir().join(format!("ibsim_cli_wl_{}", std::process::id()));
    let wl = "--workload incast:dst=0,fanin=2,bytes=4096,msgs=1";
    for (flags, nodes, windows) in [
        ("", 8, "warmup 100000000ps measure 400000000ps"),
        (
            "--preset quick",
            72,
            "warmup 2000000000ps measure 4000000000ps",
        ),
        (
            "--preset quick --fabric fat8 --measure-us 300",
            8,
            "warmup 2000000000ps measure 300000000ps",
        ),
    ] {
        let run = ibsim(&format!("workloads {wl} {flags}"), &out);
        assert!(run.status.success(), "{flags}: {run:?}");
        let stdout = String::from_utf8_lossy(&run.stdout);
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert!(stdout.contains(&format!(" on {nodes} nodes:")), "{stdout}");
        assert!(stderr.contains(windows), "{flags}: {stderr}");
    }
    std::fs::remove_dir_all(out).ok();
}

/// `--resume-from` a directory without the run's file: the run starts
/// cold and says so, naming the file it looked for and where.
#[test]
fn a_resume_that_finds_nothing_says_so() {
    let tmp = std::env::temp_dir();
    let (out, dir) = (
        tmp.join(format!("ibsim_cli_cold_{}", std::process::id())),
        tmp.join(format!("ibsim_cli_no_ckpt_{}", std::process::id())),
    );
    std::fs::create_dir_all(&dir).unwrap();
    let line = format!(
        "workloads --workload incast:dst=0,fanin=2,bytes=4096,msgs=1 --resume-from {}",
        dir.display()
    );
    let run = ibsim(&line, &out);
    assert!(run.status.success(), "{run:?}");
    let stderr = String::from_utf8_lossy(&run.stderr);
    let want = format!("in {}; the run starts cold", dir.display());
    let said = stderr
        .lines()
        .find(|l| l.starts_with("checkpoint: no ckpt_") && l.ends_with(&want));
    assert!(said.is_some(), "{stderr}");
    std::fs::remove_dir_all(out).ok();
    std::fs::remove_dir_all(dir).ok();
}

/// Through the real binary: a refused command line exits 2, not 101,
/// and says `error:` instead of panicking; `help` exits 0.
#[test]
fn the_binary_exits_2_on_a_bad_command_line() {
    let out = std::env::temp_dir().join(format!("ibsim_cli_bin_{}", std::process::id()));
    // Hostile roles in a spec file used to panic inside the placement.
    let spec = std::env::temp_dir().join(format!("ibsim_cli_roles_{}.json", std::process::id()));
    let roles = r#""num_nodes": 0, "num_hotspots": 0, "b_pct": 0, "b_p": 0, "c_pct_of_rest": 80"#;
    let fabric = r#"{"FatTree": {"radix": 4, "leafs": 4}}"#;
    std::fs::write(
        &spec,
        format!(r#"{{"topology": {fabric}, "roles": {{{roles}}}}}"#),
    )
    .unwrap();
    let simulate = format!("simulate {}", spec.display());
    // So did a spec file's workload: an incast onto a node outside the
    // fabric, or of empty messages.
    let incast = |name: &str, fields: &str| {
        let path =
            std::env::temp_dir().join(format!("ibsim_cli_{name}_{}.json", std::process::id()));
        let incast =
            format!(r#"{{"kind": {{"Incast": {{{fields}, "messages": 4, "stagger_ns": 500}}}}}}"#);
        std::fs::write(
            &path,
            format!(r#"{{"topology": {fabric}, "roles": {{{roles}}}, "workload": {incast}}}"#),
        )
        .unwrap();
        path
    };
    let far = incast("far_incast", r#""dst": 99, "fanin": 3, "bytes": 8192"#);
    let empty = incast("empty_incast", r#""dst": 0, "fanin": 3, "bytes": 0"#);
    let (simulate_far, simulate_empty) = (
        format!("simulate {}", far.display()),
        format!("simulate {}", empty.display()),
    );
    // Each line, and what its error must name besides `error: `.
    for (line, names) in [
        ("windy --x 101", &[][..]),
        ("faults --bin-us 0", &["faults"]),
        ("moving --faults nonsense", &["--faults", "nonsense"]),
        ("table2 --shards 0", &[]),
        ("table2 --trace-flows 9999:1", &[]),
        ("nope", &[]),
        (&simulate, &[]),
        (&simulate_far, &["workload", "dst 99", "8 end nodes"]),
        (&simulate_empty, &["workload", "bytes"]),
        (
            "workloads --workload incast:dst=0,fanin=2,bytes=0",
            &["--workload", "bytes"],
        ),
        (
            "workloads --workload incast:dst=4294967297,fanin=2",
            &["--workload", "dst", "4294967297"],
        ),
    ] {
        let run = ibsim(line, &out);
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert_eq!(run.status.code(), Some(2), "{line}: {stderr}");
        assert!(
            stderr.starts_with("error: ") && !stderr.contains("panicked"),
            "{stderr}"
        );
        assert!(names.iter().all(|n| stderr.contains(n)), "{line}: {stderr}");
    }
    let help = Command::new(env!("CARGO_BIN_EXE_ibsim"))
        .arg("help")
        .output()
        .unwrap();
    assert!(help.status.success());
    let listing = String::from_utf8_lossy(&help.stdout);
    assert!(
        COMMANDS.iter().all(|c| listing.contains(c.name)),
        "{listing}"
    );
    assert!(!out.exists(), "a refused command line writes nothing");
    for path in [spec, far, empty] {
        std::fs::remove_file(path).ok();
    }
}

/// Tokens a command line is made of: every command and flag name,
/// valid and hostile values, and the shapes that have broken parsers.
fn vocabulary() -> Vec<String> {
    let mut v: Vec<String> = ["help", "--help", "-h", "--", "--=", "=", "", " "]
        .map(String::from)
        .into();
    for c in &COMMANDS {
        v.push(c.name.into());
        for f in c.flags {
            v.push(format!("--{}", f.name));
            v.push(format!("--{}={}", f.name, f.default));
        }
    }
    for key in ibsim::options::KEYS {
        v.push(format!("--{}", key.replace('_', "-")));
    }
    let values = [
        "0",
        "1",
        "-1",
        "2",
        "7",
        "25",
        "100",
        "101",
        "250",
        "4294967296",
        "4294967321",
        "18446744073709551616",
        "1e3",
        "0x10",
        "NaN",
        "inf",
        "true",
        "false",
        "maybe",
        "quick",
        "medium",
        "quickk",
        "fat8",
        "fat3-54",
        "fat9",
        "threshold",
        "threshold=7",
        "threshold=",
        "=7",
        "nosuch=3",
        "incast:dst=0,fanin=2",
        "incast:dst=x",
        "eb:",
        "collective:algo=zz",
        "trace:",
        "trace:/nonexistent",
        "nonsense",
        "configs/silent_forest.json",
        "/nonexistent.json",
        "Cargo.toml",
        "٤",
        "\0",
        "--x",
    ];
    v.extend(values.map(String::from));
    v
}

proptest! {
    /// Arbitrary token sequences over that vocabulary, plus noise,
    /// mostly after a real command name: the parse-and-check step
    /// returns a job or a non-empty error, and never unwinds. Nothing
    /// runs (a job is never called here).
    #[test]
    fn arbitrary_command_lines_never_panic(
        cmd in 0usize..COMMANDS.len() + 2,
        picks in prop::collection::vec(0usize..10_000, 0..7),
        noise in prop::collection::vec(any::<u8>(), 0..6),
        at in 0usize..8,
    ) {
        let vocab = vocabulary();
        let mut line: Vec<String> = COMMANDS.get(cmd).map(|c| c.name.to_string()).into_iter().collect();
        line.extend(picks.iter().map(|&i| vocab[i % vocab.len()].clone()));
        if at < line.len() {
            line[at].push_str(&String::from_utf8_lossy(&noise));
        }
        if let Err(e) = parse(&line) {
            prop_assert!(!e.to_string().is_empty());
        }
    }
}

/// Valid `--workload` specs.
const SPECS: [&str; 4] = [
    "incast:dst=5,fanin=7,bytes=4096,msgs=16,stagger_ns=250",
    "eb:frag=2048,fanin=4,shifts=8,slot_us=20",
    "collective:algo=rd,bytes=65536,rounds=3,slot_us=50",
    "collective:algo=a2a,bytes=1,rounds=2",
];

proptest! {
    /// Arbitrary text, and valid specs with one value swapped, noise
    /// spliced in or the tail cut: the workload parser plus `install`
    /// on an 8-node fat tree return `Ok` or a non-empty error and never
    /// unwind.
    #[test]
    fn workload_specs_never_unwind(
        spec in 0usize..SPECS.len(),
        shape in 0u8..4,
        nth in 0usize..12,
        bits in 0u32..70,
        delta in 0u8..3,
        noise in prop::collection::vec(any::<u8>(), 0..12),
    ) {
        let valid = SPECS[spec];
        prop_assert!(WorkloadSpec::parse(valid).is_ok(), "{valid} is not a valid spec");
        let noise = String::from_utf8_lossy(&noise).into_owned();
        let text = match shape {
            0 => noise,
            1 => {
                // The value after the nth `=` or `:` becomes 2^bits - 1 + delta.
                let starts: Vec<usize> = valid.match_indices(['=', ':']).map(|(i, _)| i + 1).collect();
                let a = starts[nth % starts.len()];
                let b = valid[a..].find(|c: char| !c.is_ascii_digit()).map_or(valid.len(), |e| a + e);
                let number = (1u128 << bits) - 1 + delta as u128;
                format!("{}{number}{}", &valid[..a], &valid[b..])
            }
            2 => {
                let at = nth * valid.len() / 11;
                format!("{}{noise}{}", &valid[..at], &valid[at..])
            }
            _ => valid[..nth * valid.len() / 11].to_string(),
        };
        let topo = FatTreeSpec::TEST_8.build();
        match WorkloadSpec::parse(&text) {
            Err(e) => prop_assert!(!e.is_empty(), "{text}"),
            Ok(wl) => {
                if let Err(e) = wl.install(&mut Network::new(&topo, NetConfig::paper())) {
                    prop_assert!(!e.is_empty(), "{text}");
                }
            }
        }
    }
}
