//! The `ibsim` command line: one table of subcommands, one argument
//! layer ([`Args`]) whose getters return a named [`ArgError`] instead of
//! panicking, and the steps the experiments share.
//!
//! [`parse`] resolves and checks a whole command line without running
//! anything and hands back the [`Job`] that does the work. The binary
//! prints an `ArgError` and exits 2; a job that fails exits 1.

mod ablation;
mod args;
mod bisect;
mod futurework;
mod latency;
mod moving;
mod simulate;
mod table2;
mod tracegen;
mod tune;
mod windy;
mod workloads;

pub use args::{ArgError, Args};

use crate::experiment::MAX_US;
use crate::options::{RunOptions, KEYS};
use crate::preset::Preset;
use crate::report::{ascii_plot, write_csv, write_json, PlotSeries};
use crate::sweep::parallel_map_progress;
use ibsim_net::NetConfig;
use ibsim_topo::Topology;
use ibsim_traffic::RoleSpec;
use std::path::Path;

/// A checked command line, ready to run. `Err` is the message of a
/// failure found while running (a file that cannot be written).
pub type Job = Box<dyn FnOnce() -> Result<(), String>>;

/// A declared flag: name, the default it takes when absent (empty when
/// absence means something of its own, as the help says), and help.
pub struct Flag {
    pub name: &'static str,
    pub default: &'static str,
    pub help: &'static str,
}

const fn flag(name: &'static str, default: &'static str, help: &'static str) -> Flag {
    Flag {
        name,
        default,
        help,
    }
}

/// One subcommand: what `ibsim help` lists, what `ibsim <name> --help`
/// prints, and what [`Args`] accepts.
pub struct Command {
    pub name: &'static str,
    pub summary: &'static str,
    /// The one positional argument, e.g. `<spec.json>`; empty for none.
    pub operand: &'static str,
    /// Whether the ten run options (`--audit`, `--shards`, …) apply.
    pub run_options: bool,
    pub flags: &'static [Flag],
    plan: fn(&Args) -> Result<Job, ArgError>,
}

impl Command {
    fn declares(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f.name == name)
            || (self.run_options && KEYS.iter().any(|k| k.replace('_', "-") == name))
    }

    fn help(&self) -> String {
        let mut s = format!(
            "ibsim {} {}[flags]\n  {}\n\nflags:\n",
            self.name,
            if self.operand.is_empty() {
                String::new()
            } else {
                format!("{} ", self.operand)
            },
            self.summary
        );
        for f in self.flags {
            let default = match f.default {
                "" => String::new(),
                d => format!(" (default {d})"),
            };
            s += &format!("  --{:<15} {}{default}\n", f.name, f.help);
        }
        if self.run_options {
            let keys: Vec<String> = KEYS
                .iter()
                .map(|k| format!("--{}", k.replace('_', "-")))
                .collect();
            s += "\nrun options (also IBSIM_<KEY>; README.md \"Run options\"):\n  ";
            s += &keys.join(" ");
            s += "\n";
        }
        s
    }
}

/// A command with no operand that takes the run options.
const fn cmd(
    name: &'static str,
    summary: &'static str,
    flags: &'static [Flag],
    plan: fn(&Args) -> Result<Job, ArgError>,
) -> Command {
    Command {
        name,
        summary,
        operand: "",
        run_options: true,
        flags,
        plan,
    }
}

const PRESET: Flag = flag("preset", "quick", "quick|medium|paper (72/162/648 nodes)");
const SEED: Flag = flag("seed", "458342622", "root seed of every random stream");
const THREADS: Flag = flag("threads", "0", "cells run in parallel (0 = one per core)");
const HOTSPOTS: Flag = flag("hotspots", "", "hotspot count (default: the preset's)");
const REPLICAS: Flag = flag("replicas", "1", "seeds per hotspot cell; > 1 adds a 95% CI");
const X: Flag = flag("x", "25", "B-node percentage: 25/50/75/100 = fig 5/6/7/8");
const V: Flag = flag("v", "20", "V-node percentage, the rest C nodes (fig 9)");
const B: Flag = flag("b", "false", "100% B nodes instead (fig 10)");
const P: Flag = flag("p", "60", "hotspot share of the B nodes' traffic, with --b");
const PARAM: Flag = flag("param", "threshold", ablation::PARAMS);
const MS: Flag = flag("ms", "2", "warmup and measure window, ms each");
const JSON: Flag = flag("json", "false", "print only the JSON result");
const WL_PRESET: Flag = flag("preset", "", "take the preset's fabric and windows");
const FABRIC: Flag = flag("fabric", "fat8", "fat8|fat72|fat648|fat3-8|fat3-54");
const WARMUP_US: Flag = flag("warmup-us", "100", "warmup window, µs");
const MEASURE_US: Flag = flag("measure-us", "400", "measure window, µs");
const WORKLOAD: Flag = flag("workload", "", "incast:…|eb:…|collective:…|trace:<path>");
const ALL: Flag = flag("all", "false", "the default five-workload ladder");
const NODES: Flag = flag("nodes", "8", "fabric size the trace is cut for");
const FLOWS: Flag = flag("flows", "10000", "flow records");
const BYTES: Flag = flag("bytes", "4096", "bytes per flow");
const TARGETS: Flag = flag("hotspots", "0", "fixed hotspot targets (0 = uniform)");
const HOT_PCT: Flag = flag("hot-pct", "30", "percentage of flows into the hotspots");
const GAP_NS: Flag = flag("mean-gap-ns", "", "mean inter-arrival ns (else --load-pct)");
const LOAD_PCT: Flag = flag("load-pct", "60", "offered load, % of the 13.5 Gbit/s cap");
const PERTURB: Flag = flag("perturb", "threshold=7", bisect::PERTURB);
const RESOLUTION: Flag = flag("resolution-us", "50", "stop at a window this narrow, µs");

/// Every subcommand, in `ibsim help` order.
pub static COMMANDS: [Command; 11] = [
    cmd(
        "table2",
        "Table II: the silent forest, CC off and on, with and without hotspots",
        &[PRESET, SEED, THREADS, HOTSPOTS, REPLICAS],
        table2::plan,
    ),
    cmd(
        "windy",
        "Fig. 5-8: windy forests at x% B nodes, sweeping the hotspot share p",
        &[PRESET, SEED, THREADS, X],
        windy::plan,
    ),
    cmd(
        "moving",
        "Fig. 9-10: moving hotspots, sweeping their lifetime",
        &[PRESET, SEED, THREADS, V, B, P],
        moving::plan,
    ),
    cmd(
        "ablation",
        "sweep one CC or buffer parameter on the silent forest",
        &[PRESET, SEED, THREADS, PARAM],
        ablation::plan,
    ),
    cmd(
        "futurework",
        "§VI: the silent forest on a 3-level Clos, a mesh and a torus",
        &[SEED],
        futurework::plan,
    ),
    cmd(
        "tune",
        "27-candidate CC parameter search and its Pareto front",
        &[PRESET, SEED, THREADS],
        tune::plan,
    ),
    cmd(
        "latency",
        "uniform load sweep: latency percentiles and throughput, CC off and on",
        &[PRESET, SEED, THREADS, MS],
        latency::plan,
    ),
    Command {
        operand: "<spec.json>",
        ..cmd(
            "simulate",
            "run a JSON scenario or workload spec (configs/)",
            &[JSON],
            simulate::plan,
        )
    },
    cmd(
        "workloads",
        "production workloads: incast, event builder, collectives, trace replay",
        &[
            WL_PRESET, SEED, FABRIC, WARMUP_US, MEASURE_US, WORKLOAD, ALL,
        ],
        workloads::plan,
    ),
    Command {
        operand: "<out.ibtr>",
        run_options: false,
        ..cmd(
            "tracegen",
            "synthesize an IBTR flow trace for `workloads --workload trace:<path>`",
            &[
                NODES, FLOWS, BYTES, TARGETS, HOT_PCT, GAP_NS, LOAD_PCT, SEED,
            ],
            tracegen::plan,
        )
    },
    Command {
        run_options: false,
        ..cmd(
            "bisect",
            "find when and where a one-knob CC change first alters the fabric state",
            &[PRESET, SEED, PERTURB, RESOLUTION],
            bisect::plan,
        )
    },
];

/// Check `argv` (the arguments after the program name) and return the
/// job it asks for; nothing runs and nothing is written until the job
/// is called. `help`, `--help` and `<command> --help` are jobs too.
pub fn parse(argv: &[String]) -> Result<Job, ArgError> {
    let (name, rest) = match argv {
        [] => ("help", argv),
        [name, rest @ ..] => (name.as_str(), rest),
    };
    if matches!(name, "help" | "--help" | "-h") {
        return Ok(match rest.first() {
            None => show(usage()),
            Some(name) => show(command(name)?.help()),
        });
    }
    let cmd = command(name)?;
    if rest.iter().any(|t| t == "--help" || t == "-h") {
        return Ok(show(cmd.help()));
    }
    (cmd.plan)(&Args::parse(cmd, rest)?)
}

fn command(name: &str) -> Result<&'static Command, ArgError> {
    COMMANDS
        .iter()
        .find(|c| c.name == name)
        .ok_or_else(|| ArgError::new("command", name, "is unknown (`ibsim help` lists them)"))
}

fn usage() -> String {
    let mut s = String::from(
        "ibsim — the InfiniBand congestion-control simulator's experiments\n\n\
         usage: ibsim <command> [flags]    (ibsim <command> --help for its flags)\n\n\
         commands:\n",
    );
    for c in &COMMANDS {
        s += &format!("  {:<11} {}\n", c.name, c.summary);
    }
    s
}

/// The job that prints `text` (help is a job like any other).
fn show(text: String) -> Job {
    Box::new(move || {
        print!("{text}");
        Ok(())
    })
}

/// The common ground of the preset-driven commands: resolved run
/// options, the preset's fabric, and its configuration under the seed.
struct Ctx {
    opts: RunOptions,
    preset: Preset,
    seed: u64,
    topo: Topology,
    cfg: NetConfig,
}

impl Ctx {
    fn new(a: &Args) -> Result<Ctx, ArgError> {
        let preset = a.preset()?;
        let seed = a.num("seed", 0..=u64::MAX)?;
        let (opts, topo) = (a.run_options(RunOptions::default())?, preset.topology());
        opts.check_flows(topo.num_hcas)?;
        Ok(Ctx {
            opts,
            preset,
            seed,
            topo,
            cfg: preset.net_config().with_seed(seed),
        })
    }

    /// The preset's hotspots among `b_pct` % B nodes (sending `b_p` %
    /// of their traffic to a hotspot) and, of the rest, `c_pct_of_rest`
    /// % C nodes and V nodes.
    fn roles(&self, b_pct: u32, b_p: u32, c_pct_of_rest: u32) -> RoleSpec {
        RoleSpec {
            num_nodes: self.topo.num_hcas,
            num_hotspots: self.preset.num_hotspots(),
            b_pct,
            b_p,
            c_pct_of_rest,
        }
    }

    /// The silent forest: 80 % C nodes, 20 % V nodes.
    fn silent(&self) -> RoleSpec {
        RoleSpec::silent(self.topo.num_hcas, self.preset.num_hotspots())
    }

    /// The stderr line a command starts with.
    fn banner(&self, cmd: &str, detail: std::fmt::Arguments) {
        let (preset, nodes) = (self.preset.name(), self.topo.num_hcas);
        eprintln!("{cmd}: preset={preset} nodes={nodes} {detail}");
    }
}

/// `cfg` with congestion control on, or switched off.
fn with_cc(cfg: &NetConfig, cc: bool) -> NetConfig {
    let mut c = cfg.clone();
    if !cc {
        c.cc = None;
    }
    c
}

/// `--threads`.
fn threads(a: &Args) -> Result<usize, ArgError> {
    a.num("threads", 0..=usize::MAX)
}

/// Run independent cells over `threads` threads, reporting progress on
/// stderr.
fn sweep<T: Sync, R: Send>(threads: usize, cells: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    parallel_map_progress(cells, threads, f, |d, t| eprintln!("  cell {d}/{t}"))
}

/// A report column: its header and the cell it shows for row `i`.
type Col<'a> = (&'static str, &'a dyn Fn(usize) -> String);

/// Rows `0..n` under `cols`: the header and each row's cells.
fn table(cols: &[Col], n: usize) -> (Vec<&'static str>, Vec<Vec<String>>) {
    let header = cols.iter().map(|&(h, _)| h).collect();
    let rows = (0..n).map(|i| cols.iter().map(|(_, cell)| cell(i)).collect());
    (header, rows.collect())
}

/// Print one 60-column ASCII plot: each series' `y(i)` over `xs[i]`.
fn plot(title: &str, xs: &[f64], height: usize, series: &[(&str, &dyn Fn(usize) -> f64)]) {
    let series: Vec<PlotSeries> = series
        .iter()
        .map(|&(label, y)| PlotSeries {
            label,
            points: xs.iter().enumerate().map(|(i, &x)| (x, y(i))).collect(),
        })
        .collect();
    println!("{title}");
    println!("{}", ascii_plot(&series, 60, height));
}

/// Write `<out>/<name>` as CSV and say so on stderr.
fn csv(out: &Path, name: &str, header: &[&str], rows: &[Vec<String>]) -> Result<(), String> {
    let path = out.join(name);
    write_csv(&path, header, rows).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    eprintln!("wrote {}", path.display());
    Ok(())
}

/// Write `<out>/<name>` as JSON and say so on stderr.
fn json<T: serde::Serialize>(out: &Path, name: &str, value: &T) -> Result<(), String> {
    let path = out.join(name);
    write_json(&path, value).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    eprintln!("wrote {}", path.display());
    Ok(())
}

/// Format a float with 3 decimals for tables.
fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// Format a float with 2 decimals for tables.
fn f2(x: f64) -> String {
    format!("{x:.2}")
}
