//! The BENCHMARK.json driver.
//!
//! With `--workload` it measures that one workload in this process and
//! prints, as the last line of standard output, the JSON object the
//! benchmark contract asks for. Without it, it runs every workload in
//! turn — each in a child process of its own, so peak memory is per
//! workload and only one load-generating process is alive at a time —
//! first with tracing off, then traced, and prints one report.

mod cells;
mod digest;
mod kernels;
mod measure;
mod metrics;
mod report;
mod scale;
#[cfg(test)]
mod smoke;
mod spans;
mod stats;
mod workloads;

use measure::Args;
use serde_json::Value;
use std::process::{Command, ExitCode, Stdio};
use workloads::Kind;

const USAGE: &str = "usage: ibsim-benchmark [--workload NAME] [--seed N] [--seconds S] \
[--trace 0|1] [--reps N] [--smoke] [--calibrate]
  --workload NAME  one of silent648, uniform648, uniform648_s2, quick72_session;
                   without it every workload runs, each in a child process
  --seed N         workload seed, decimal or 0x-hex (default 0x1B51C0DE)
  --seconds S      host seconds of warm-up plus timed repetitions (default 20)
  --trace 0|1      0: end-to-end metrics, tracing off; 1: per-layer metrics
  --reps N         time at least N repetitions (default 3)
  --smoke          8-node fabrics and sub-100 us windows (the smoke test's scale)
  --calibrate      two full end-to-end sets, and the spread between them";

struct Cli {
    workload: Option<Kind>,
    seed: u64,
    seconds: f64,
    trace: bool,
    reps: usize,
    smoke: bool,
    calibrate: bool,
}

fn parse_seed(s: &str) -> Option<u64> {
    match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: scale::DEFAULT_SEED,
        seconds: 20.0,
        trace: false,
        reps: 3,
        smoke: false,
        calibrate: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        let bad = |v: &str| format!("{flag}: cannot read `{v}`");
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                cli.workload = Some(Kind::parse(v).ok_or_else(|| bad(v))?);
            }
            "--seed" => {
                let v = value()?;
                cli.seed = parse_seed(v).ok_or_else(|| bad(v))?;
            }
            "--seconds" => {
                let v = value()?;
                cli.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s >= 0.0)
                    .ok_or_else(|| bad(v))?;
            }
            "--trace" => {
                cli.trace = match value()? {
                    "0" => false,
                    "1" => true,
                    v => return Err(bad(v)),
                }
            }
            "--reps" => {
                let v = value()?;
                cli.reps = v.parse().ok().filter(|n| *n >= 1).ok_or_else(|| bad(v))?;
            }
            "--smoke" => cli.smoke = true,
            "--calibrate" => cli.calibrate = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(cli)
}

/// Measure one workload here and print its result.
fn run_one(cli: &Cli, kind: Kind) -> ExitCode {
    let outcome = match measure::run(&Args {
        kind,
        seed: cli.seed,
        seconds: cli.seconds,
        trace: cli.trace,
        min_reps: cli.reps,
        scale: if cli.smoke {
            &scale::SMOKE
        } else {
            &scale::FULL
        },
    }) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("cannot use a scratch directory beside the executable: {e}");
            return ExitCode::from(2);
        }
    };
    report::print_human(&outcome);
    let detail = serde_json::to_string(&report::detail(&outcome)).expect("a JSON value serialises");
    println!("{detail}");
    println!("{}", report::contract_line(&outcome));
    ExitCode::SUCCESS
}

/// Run one workload in a child process and return its detail document.
fn run_child(cli: &Cli, kind: Kind, trace: bool) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", kind.name()])
        .args(["--seed", &cli.seed.to_string()])
        .args(["--seconds", &cli.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(["--reps", &cli.reps.to_string()]);
    if cli.smoke {
        cmd.arg("--smoke");
    }
    // `output` waits for the child: no process outlives this call.
    let out = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the {} child: {e}", kind.name()))?;
    if !out.status.success() {
        return Err(format!(
            "the {} child ended with {}",
            kind.name(),
            out.status
        ));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let detail = stdout
        .lines()
        .rev()
        .nth(1)
        .ok_or_else(|| format!("the {} child printed no detail line", kind.name()))?;
    serde_json::from_str(detail).map_err(|e| format!("{} detail line: {e}", kind.name()))
}

fn number(v: &Value) -> f64 {
    match *v {
        Value::U64(n) => n as f64,
        Value::I64(n) => n as f64,
        Value::F64(f) => f,
        _ => f64::NAN,
    }
}

/// Every workload: tracing off, then traced. One JSON report on
/// standard output.
fn run_all(cli: &Cli) -> Result<ExitCode, String> {
    let mut workloads = Vec::new();
    let (mut failed, mut total) = (0, 0);
    let mut run_s = Vec::new();
    for kind in Kind::ALL {
        let end_to_end = run_child(cli, kind, false)?;
        let per_layer = run_child(cli, kind, true)?;
        for doc in [&end_to_end, &per_layer] {
            failed += doc["failed_checks"].as_u64().unwrap_or(1);
            total += doc["checks_total"].as_u64().unwrap_or(0);
        }
        run_s.push(number(&end_to_end["metrics"]["run_s"]["value"]));
        workloads.push((
            kind.name().to_string(),
            Value::Object(vec![
                ("end_to_end".to_string(), end_to_end),
                ("per_layer".to_string(), per_layer),
            ]),
        ));
    }
    let report = Value::Object(vec![
        ("fingerprint".to_string(), report::fingerprint()),
        ("failed_checks".to_string(), Value::U64(failed)),
        ("checks_total".to_string(), Value::U64(total)),
        // Median against median, both from full end-to-end runs; the
        // per-layer `shard.speedup` of uniform648_s2 has one serial
        // sample to go on.
        ("shard.speedup".to_string(), Value::F64(run_s[1] / run_s[2])),
        ("workloads".to_string(), Value::Object(workloads)),
    ]);
    println!(
        "{}",
        serde_json::to_string_pretty(&report).expect("a JSON value serialises")
    );
    eprintln!("failed_checks {failed} of checks_total {total}");
    Ok(if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

/// Two full end-to-end sets of the same code: what one set's medians
/// differ from the other's by is the noise a bound has to clear.
fn calibrate(cli: &Cli) -> Result<ExitCode, String> {
    let bounds: Option<Value> = std::fs::read_to_string("BENCHMARK.json")
        .ok()
        .and_then(|s| serde_json::from_str(&s).ok());
    let bound_of = |metric: &str| -> f64 {
        bounds
            .as_ref()
            .and_then(|b| b["end_to_end"].as_array())
            .and_then(|list| list.iter().find(|m| m["name"] == metric))
            .map_or(f64::NAN, |m| number(&m["bound"]))
    };
    let mut sets = Vec::new();
    for _ in 0..2 {
        let mut set = Vec::new();
        for kind in Kind::ALL {
            set.push(run_child(cli, kind, false)?);
        }
        sets.push(set);
    }
    println!(
        "{:<16} {:<14} {:>14} {:>14} {:>9} {:>9} {:>7}",
        "workload", "metric", "set 1", "set 2", "|diff|", "iqr/med", "bound"
    );
    let mut exceeded = false;
    for (i, kind) in Kind::ALL.iter().enumerate() {
        for &(metric, _) in metrics::END_TO_END {
            let m = |set: usize| &sets[set][i]["metrics"][metric];
            let (a, b) = (number(&m(0)["value"]), number(&m(1)["value"]));
            let diff = (a - b).abs() / a;
            // The wider of the two sets' own inter-quartile spreads.
            let iqr = [0, 1]
                .map(|s| (number(&m(s)["q3"]) - number(&m(s)["q1"])) / number(&m(s)["value"]))
                .into_iter()
                .fold(f64::NAN, f64::max);
            let bound = bound_of(metric);
            exceeded |= diff > bound;
            println!(
                "{:<16} {:<14} {:>14.6} {:>14.6} {:>8.2}% {:>8.2}% {:>6.0}%",
                kind.name(),
                metric,
                a,
                b,
                diff * 100.0,
                iqr * 100.0,
                bound * 100.0
            );
        }
        for (s, set) in sets.iter().enumerate() {
            let samples: Vec<String> = set[i]["run_s_samples"]
                .as_array()
                .map(|a| a.iter().map(|v| format!("{:.3}", number(v))).collect())
                .unwrap_or_default();
            println!(
                "{:<16} run_s of each repetition, set {}: {}",
                kind.name(),
                s + 1,
                samples.join(" ")
            );
        }
        let same = sets[0][i]["digest"] == sets[1][i]["digest"];
        exceeded |= !same;
        println!(
            "{:<16} digests {}",
            kind.name(),
            if same { "agree" } else { "DIFFER" }
        );
    }
    Ok(if exceeded {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    })
}

fn main() -> ExitCode {
    // The experiment runners read `IBSIM_*` switches from the
    // environment (audit, profile, shards, checkpoint, ...). A stray
    // one would change what is measured, so none survives.
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("IBSIM_") {
            eprintln!("ignoring {} from the environment", key.to_string_lossy());
            std::env::remove_var(key);
        }
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match cli.workload {
        Some(kind) => Ok(run_one(&cli, kind)),
        None if cli.calibrate => calibrate(&cli),
        None => run_all(&cli),
    };
    result.unwrap_or_else(|e| {
        eprintln!("{e}");
        ExitCode::from(1)
    })
}
