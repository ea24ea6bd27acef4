//! One workload, measured: set-up samples, a warm-up, timed
//! repetitions, the correctness checks, and — for the per-layer run —
//! a traced repetition and the layer kernels.

use crate::cells::CellOut;
use crate::kernels::{self, Sizing};
use crate::metrics::{self, PROF_BINS};
use crate::scale::{Scale, DEFAULT_SEED, FULL};
use crate::spans::Spans;
use crate::stats::{summarize, Summary};
use crate::workloads::{Ctx, Kind, Mode, RepOut};
use std::path::PathBuf;
use std::time::{Duration, Instant};

pub struct Args {
    pub kind: Kind,
    pub seed: u64,
    /// Host seconds the warm-up and the timed repetitions may take; at
    /// least `min_reps` repetitions are timed whatever it says.
    pub seconds: f64,
    pub trace: bool,
    pub min_reps: usize,
    pub scale: &'static Scale,
}

/// A scratch directory beside the executable — inside the checkout,
/// under the build directory `.gitignore` names — removed when the run
/// ends. Checkpoints and the synthesised trace go here.
struct Scratch(PathBuf);

impl Scratch {
    fn create() -> std::io::Result<Scratch> {
        let exe = std::env::current_exe()?;
        let beside = exe.parent().unwrap_or(std::path::Path::new("."));
        let dir = beside.join(format!("benchmark-scratch-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    /// Quartiles and sample count, for a value that is a median.
    pub summary: Option<Summary>,
}

pub struct Check {
    pub name: &'static str,
    pub ok: bool,
    pub detail: String,
}

pub struct Outcome {
    pub kind: Kind,
    pub seed: u64,
    pub trace: bool,
    /// Timed repetitions.
    pub reps: usize,
    /// Hash of everything a user-mode repetition reported.
    pub digest: u64,
    pub metrics: Vec<Metric>,
    pub checks: Vec<Check>,
    /// `run` span of each timed repetition, in order: a bimodal
    /// workload shows here and nowhere else.
    pub run_samples: Vec<f64>,
    /// Spans of the traced repetition by name: calls, seconds, self
    /// seconds.
    pub traced_spans: Vec<(&'static str, usize, f64, f64)>,
}

/// Digests pinned at the default seed and the full scale.
const EXPECTED: &str = include_str!("../expected/digests.txt");

fn expected_digest(kind: Kind) -> Option<u64> {
    EXPECTED
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| l.split_once(' '))
        .find(|(name, _)| *name == kind.name())
        .and_then(|(_, hex)| u64::from_str_radix(hex.trim(), 16).ok())
}

/// Peak resident set of this process in MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `name`'s summed duration in each set of spans.
fn totals(spans: &[&Spans], name: &str) -> Vec<f64> {
    spans.iter().map(|s| s.total(name)).collect()
}

/// The correctness checks made so far.
#[derive(Default)]
struct Checks(Vec<Check>);

impl Checks {
    fn that(&mut self, name: &'static str, ok: bool, detail: String) {
        self.0.push(Check { name, ok, detail });
    }

    fn same(&mut self, name: &'static str, got: u64, want: u64) {
        self.that(name, got == want, format!("{got:016x} vs {want:016x}"));
    }
}

pub fn run(args: &Args) -> std::io::Result<Outcome> {
    let kind = args.kind;
    let scratch = Scratch::create()?;
    let ctx = Ctx {
        scale: args.scale,
        seed: args.seed,
        tmp: scratch.0.clone(),
    };
    ibsim::checkpoint::set_dir(&ctx.tmp);

    // Warm-up and timed repetitions share the budget, so the run ends
    // on time whatever one repetition costs here.
    let (budget, mode, min_reps) = if args.trace {
        (args.seconds / 2.0, Mode::Hand, 2)
    } else {
        (args.seconds, Mode::User, args.min_reps.max(1))
    };
    let budget = Duration::from_secs_f64(budget);
    let started = Instant::now();
    let warm = ctx.rep(kind, Mode::User);
    // One whole repetition in a fresh process: what a user's own run
    // needs. Later repetitions reuse freed memory in ways that depend
    // on the allocator more than on the simulator.
    let peak_rss = peak_rss_mb();
    let mut reps: Vec<RepOut> = Vec::new();
    loop {
        let t = Instant::now();
        reps.push(ctx.rep(kind, mode));
        if reps.len() >= min_reps && started.elapsed() + t.elapsed() > budget {
            break;
        }
    }
    let setup_started = Instant::now();
    let mut setups: Vec<Spans> = Vec::new();
    while setups.len() < args.scale.setup_samples
        && (setups.is_empty() || setup_started.elapsed().as_secs_f64() < args.scale.setup_budget_s)
    {
        setups.push(ctx.setup_only(kind));
    }
    let setups: Vec<&Spans> = setups.iter().collect();
    let rep_spans: Vec<&Spans> = reps.iter().map(|r| &r.spans).collect();

    let mut checks = Checks::default();
    let first = &reps[0];
    let agree =
        reps.iter().all(|r| r.full == first.full) && (args.trace || warm.full == first.full);
    checks.that(
        "reps_agree",
        agree,
        format!("{} repetitions, digest {:016x}", reps.len(), first.full),
    );
    if args.seed == DEFAULT_SEED && *args.scale == FULL {
        match expected_digest(kind) {
            Some(want) => checks.same("pinned_digest", warm.full, want),
            None => checks.that("pinned_digest", false, "no pin on file".into()),
        }
    }
    // Workload-specific references, run once; their wall time feeds a
    // per-layer ratio.
    let mut reference_s = 0.0;
    match kind {
        Kind::Uniform648S2 => {
            let serial = ctx.rep(Kind::Uniform648, Mode::Hand);
            reference_s = serial.spans.total("run");
            checks.same("sharded_equals_serial", first.full, serial.full);
        }
        Kind::Quick72Session => {
            let t = Instant::now();
            let plain = ctx.session_reference();
            reference_s = t.elapsed().as_secs_f64();
            let s = first.session.as_ref().expect("a session repetition");
            checks.same("resumed_equals_uninterrupted", s.ckpt_full, plain.full);
            checks.same("observed_equals_unobserved", s.observed_full, plain.full);
            checks.that("replay_drained", s.replay_drained, String::new());
            checks.that(
                "replay_fed_every_record",
                s.records_fed == args.scale.trace_records,
                format!("{} of {} records", s.records_fed, args.scale.trace_records),
            );
        }
        _ => {}
    }

    let mut metrics = Vec::new();
    let mut traced_spans = Vec::new();
    if args.trace {
        checks.same("hand_equals_runner", first.core, warm.core);
        let traced = ctx.rep(kind, Mode::Traced);
        checks.same("traced_equals_untraced", traced.full, first.full);
        let audits: Vec<bool> = traced.cells.iter().filter_map(|c| c.audit_clean).collect();
        checks.that(
            "end_of_run_audit_clean",
            !audits.is_empty() && audits.iter().all(|&ok| ok),
            format!("{} audited cells", audits.len()),
        );
        per_layer(
            args,
            &setups,
            &rep_spans,
            &traced,
            reference_s,
            &mut metrics,
        );
        traced_spans = traced.spans.by_name();
    } else {
        let speed: Vec<f64> = reps
            .iter()
            .map(|r| r.sim_us() / r.spans.total("run"))
            .collect();
        let medians = [
            summarize(&totals(&setups, "setup")),
            summarize(&totals(&rep_spans, "run")),
            summarize(&totals(&rep_spans, "rep")),
            summarize(&speed),
        ];
        let values = medians
            .iter()
            .map(|s| (s.median, Some(*s)))
            .chain([(peak_rss, None)]);
        for (&(name, unit), (value, summary)) in metrics::END_TO_END.iter().zip(values) {
            metrics.push(Metric {
                name: name.to_string(),
                unit,
                value,
                summary,
            });
        }
    }

    Ok(Outcome {
        kind,
        seed: args.seed,
        trace: args.trace,
        reps: reps.len(),
        digest: warm.full,
        metrics,
        checks: checks.0,
        run_samples: totals(&rep_spans, "run"),
        traced_spans,
    })
}

/// Measured values by name, before they are put in reporting order.
struct Values(Vec<(String, f64, Option<Summary>)>);

impl Values {
    fn put(&mut self, name: &str, v: f64) {
        self.0.push((name.to_string(), v, None));
    }

    /// Record the median of `samples` (with its quartiles) and return it.
    fn put_median(&mut self, name: &str, samples: &[f64]) -> f64 {
        let s = summarize(samples);
        self.0.push((name.to_string(), s.median, Some(s)));
        s.median
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Every per-layer metric, from the set-up samples, the hand-assembled
/// untraced repetitions, the traced repetition and the kernels.
fn per_layer(
    args: &Args,
    setups: &[&Spans],
    reps: &[&Spans],
    traced: &RepOut,
    reference_s: f64,
    out: &mut Vec<Metric>,
) {
    let scale = args.scale;
    let session = args.kind == Kind::Quick72Session;
    let mut values = Values(Vec::new());

    // Set-up spans: the dedicated set-up samples have the most of them.
    let new_s = values.put_median("net.new_s", &totals(setups, "net.new"));
    let install_s = values.put_median("traffic.install_s", &totals(setups, "traffic.install"));
    for (name, span) in [
        ("topo.build_s", "topo.build"),
        ("shard.partition_s", "shard.partition"),
        ("flowtrace.synth_s", "flowtrace.synth"),
    ] {
        values.put_median(name, &totals(setups, span));
    }

    // Run-loop spans of the untraced hand-assembled repetitions.
    let run_until_s = values.put_median("net.run_until_s", &totals(reps, "net.run_until"));
    values.put_median("net.finish_s", &totals(reps, "net.finish"));
    let sweep_s = values.put_median("session.sweep_s", &totals(reps, "session.sweep"));
    values.put_median("session.ckpt_s", &totals(reps, "session.ckpt"));
    let observed_s = values.put_median("session.observed_s", &totals(reps, "session.observed"));
    values.put_median("session.replay_s", &totals(reps, "session.replay"));
    for (name, span) in [
        ("state.capture_s", "state.capture"),
        ("state.save_s", "state.save"),
        ("state.load_s", "state.load"),
        ("state.restore_s", "state.restore"),
    ] {
        values.put_median(name, &totals(reps, span));
    }
    let run = summarize(&totals(reps, "run"));
    values.put("run_s.iqr_rel", run.iqr_rel());
    // `reference_s` is the serial run on `uniform648_s2`, the plain
    // cell on `quick72_session`, and 0 elsewhere.
    let only = |on: bool, v: f64| if on { v } else { 0.0 };
    let sharded = args.kind == Kind::Uniform648S2;
    values.put(
        "shard.speedup",
        only(sharded, ratio(reference_s, run.median)),
    );
    values.put(
        "session.observed_vs_plain",
        only(session, ratio(observed_s, reference_s)),
    );
    values.put(
        "flowtrace.records",
        only(session, scale.trace_records as f64),
    );
    let sweep_cells = (scale.sweep_p.len() * 2) as f64;
    values.put(
        "sweep.cell_setup_share",
        ratio((new_s + install_s) * sweep_cells, sweep_s),
    );

    // Exact counts of the traced repetition's hand-assembled cells.
    let hand: Vec<&CellOut> = traced.cells.iter().filter(|c| c.hand).collect();
    let sum = |f: fn(&CellOut) -> u64| hand.iter().map(|c| f(c)).sum::<u64>() as f64;
    let events = sum(|c| c.events);
    let delivered = sum(|c| c.delivered);
    let depth_mean = ratio(sum(|c| c.depth_sum), sum(|c| c.depth_samples));
    values.put("net.events", events);
    values.put("net.events_per_s", ratio(events, run_until_s));
    values.put("net.ns_per_event", ratio(run_until_s * 1e9, events));
    values.put("net.injected_pkts", sum(|c| c.injected));
    values.put("net.delivered_pkts", delivered);
    values.put("net.events_per_delivered_pkt", ratio(events, delivered));
    values.put("net.queue_depth_mean", depth_mean);
    values.put("cc.fecn_marks", sum(|c| c.fecn_marks));
    values.put("cc.becns", sum(|c| c.becns));
    let max_ccti = hand.iter().map(|c| c.max_ccti).max().unwrap_or(0);
    values.put("cc.max_ccti", max_ccti as f64);
    values.put(
        "state.bytes",
        traced.session.as_ref().map_or(0, |s| s.state_bytes) as f64,
    );

    // Profiler bins, summed over every profiled network.
    let bin = |subsystem: &str| -> (u64, u64) {
        traced
            .profiles
            .iter()
            .flat_map(|p| &p.bins)
            .filter(|b| b.subsystem == subsystem)
            .fold((0, 0), |(calls, ns), b| (calls + b.calls, ns + b.ns))
    };
    let prof_ns: u64 = traced.profiles.iter().map(|p| p.total_ns).sum();
    for &(subsystem, layer) in PROF_BINS {
        let (calls, ns) = bin(subsystem);
        values.put(&format!("prof.{layer}.calls"), calls as f64);
        values.put(
            &format!("prof.{layer}.ns_per_call"),
            ratio(ns as f64, calls as f64),
        );
        values.put(
            &format!("prof.{layer}.share"),
            ratio(ns as f64, prof_ns as f64),
        );
    }
    let traced_run_until = traced.spans.total("net.run_until");
    values.put(
        "trace.coverage",
        ratio(prof_ns as f64, traced_run_until * 1e9),
    );
    values.put("trace.overhead", ratio(traced_run_until, run_until_s));

    // Kernels, sized from the counts above.
    let sim_ps: f64 = hand.iter().map(|c| c.sim_us * 1e6).sum();
    let nodes = if session { scale.small } else { scale.big }.num_hosts() as u32;
    let k = kernels::run(
        &Sizing {
            events: events as u64,
            queue_depth_mean: depth_mean,
            ps_per_event: ratio(sim_ps, events),
            arbitration_calls: bin("arbitration").0,
            becns: sum(|c| c.becns) as u64,
            timer_calls: bin("cc").0,
            nodes,
            trace_records: scale.trace_records,
            max_ops: scale.kernel_ops,
        },
        args.seed,
    );
    values.put("engine.queue.hold_ns_per_op", k.queue_hold_ns_per_op);
    values.put("vlarb.pick_ns", k.vlarb_pick_ns);
    values.put("cc.on_becn_ns", k.cc_on_becn_ns);
    values.put("cc.on_timer_ns_per_flow", k.cc_on_timer_ns_per_flow);
    values.put("flowtrace.decode_ns_per_rec", k.flowtrace_decode_ns_per_rec);
    values.put(
        "engine.queue.kernel_vs_prof",
        ratio(k.queue_hold_ns_per_op * events, bin("queue_pop").1 as f64),
    );

    // Simulated results of one named cell, for reading only: the first
    // placement, the uniform cell, or the session's silent cell.
    let shown = if session {
        &traced.cells[scale.sweep_p.len() * 2]
    } else {
        &traced.cells[0]
    };
    values.put("sim.total_rx_gbps", shown.total_rx_gbps);
    values.put("sim.victim_rx_gbps", shown.victim_rx_gbps);
    values.put("sim.latency_p99_us", shown.latency_p99_us);

    // Report in the order BENCHMARK.json lists them.
    for (name, unit) in metrics::per_layer() {
        let (_, value, summary) = values
            .0
            .iter()
            .find(|(n, _, _)| *n == name)
            .unwrap_or_else(|| panic!("per-layer metric {name} was not measured"));
        out.push(Metric {
            name,
            unit,
            value: *value,
            summary: *summary,
        });
    }
}
