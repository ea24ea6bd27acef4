//! What a run prints: the one-line result the driver reads, a detail
//! line the all-workloads command collects, and tables for a person.

use crate::measure::{Metric, Outcome};
use serde_json::Value;

fn obj(pairs: Vec<(&str, Value)>) -> Value {
    Value::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// `{value, unit}` of one metric, with quartiles and sample count when
/// `summary` is asked for and the value is a median.
fn metric(m: &Metric, summary: bool) -> (String, Value) {
    let mut v = vec![
        ("value", Value::F64(m.value)),
        ("unit", Value::Str(m.unit.to_string())),
    ];
    if let Some(s) = m.summary.filter(|_| summary) {
        v.push(("q1", Value::F64(s.q1)));
        v.push(("q3", Value::F64(s.q3)));
        v.push(("n", Value::U64(s.n as u64)));
    }
    (m.name.clone(), obj(v))
}

fn failed(o: &Outcome) -> u64 {
    o.checks.iter().filter(|c| !c.ok).count() as u64
}

/// The driver's line: exactly `correct`, `attempted`, `failed` and
/// `metrics`. `attempted` / `failed` count correctness checks — the
/// issue's `checks_total` / `failed_checks`.
pub fn contract_line(o: &Outcome) -> String {
    let metrics = o.metrics.iter().map(|m| metric(m, false)).collect();
    let line = obj(vec![
        ("correct", Value::Bool(failed(o) == 0)),
        ("attempted", Value::U64(o.checks.len() as u64)),
        ("failed", Value::U64(failed(o))),
        ("metrics", Value::Object(metrics)),
    ]);
    serde_json::to_string(&line).expect("a JSON value serialises")
}

/// Everything measured, with quartiles and sample counts.
pub fn detail(o: &Outcome) -> Value {
    let metrics = o.metrics.iter().map(|m| metric(m, true)).collect();
    let checks = o
        .checks
        .iter()
        .map(|c| {
            obj(vec![
                ("name", Value::Str(c.name.to_string())),
                ("ok", Value::Bool(c.ok)),
                ("detail", Value::Str(c.detail.clone())),
            ])
        })
        .collect();
    obj(vec![
        ("workload", Value::Str(o.kind.name().to_string())),
        ("seed", Value::U64(o.seed)),
        ("trace", Value::Bool(o.trace)),
        ("reps", Value::U64(o.reps as u64)),
        ("digest", Value::Str(format!("{:016x}", o.digest))),
        ("checks_total", Value::U64(o.checks.len() as u64)),
        ("failed_checks", Value::U64(failed(o))),
        ("checks", Value::Array(checks)),
        (
            "run_s_samples",
            Value::Array(o.run_samples.iter().map(|&v| Value::F64(v)).collect()),
        ),
        ("metrics", Value::Object(metrics)),
    ])
}

/// The tables, on standard error.
pub fn print_human(o: &Outcome) {
    eprintln!(
        "== {} seed {:#x} {} — {} timed repetitions, digest {:016x}",
        o.kind.name(),
        o.seed,
        if o.trace {
            "per-layer (traced)"
        } else {
            "end-to-end (tracing off)"
        },
        o.reps,
        o.digest
    );
    eprintln!(
        "{:<36} {:>16} {:<9} {:>14} {:>14} {:>3}",
        "metric", "value", "unit", "q1", "q3", "n"
    );
    for m in &o.metrics {
        match m.summary {
            Some(s) => eprintln!(
                "{:<36} {:>16.6} {:<9} {:>14.6} {:>14.6} {:>3}",
                m.name, m.value, m.unit, s.q1, s.q3, s.n
            ),
            None => eprintln!("{:<36} {:>16.6} {:<9}", m.name, m.value, m.unit),
        }
    }
    let samples: Vec<String> = o.run_samples.iter().map(|v| format!("{v:.3}")).collect();
    eprintln!(
        "run span of each timed repetition, s: {}",
        samples.join(" ")
    );
    if !o.traced_spans.is_empty() {
        eprintln!("spans of the traced repetition:");
        eprintln!(
            "{:<24} {:>6} {:>12} {:>12}",
            "span", "calls", "seconds", "self seconds"
        );
        for (name, calls, secs, own) in &o.traced_spans {
            eprintln!("{name:<24} {calls:>6} {secs:>12.6} {own:>12.6}");
        }
    }
    for c in &o.checks {
        eprintln!(
            "check {:<30} {} {}",
            c.name,
            if c.ok { "ok  " } else { "FAIL" },
            c.detail
        );
    }
    eprintln!(
        "failed_checks {} of checks_total {}",
        failed(o),
        o.checks.len()
    );
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// The machine and toolchain the numbers were measured on.
pub fn fingerprint() -> Value {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    obj(vec![
        ("nproc", Value::U64(nproc as u64)),
        ("cpu", Value::Str(cpu)),
        ("rustc", Value::Str(command_line("rustc", &["--version"]))),
        (
            "git_revision",
            Value::Str(command_line("git", &["rev-parse", "HEAD"])),
        ),
    ])
}
