//! The equivalence table the integration suites share.
//!
//! Every number this repository reports holds only if a run gives the
//! same bytes sharded or serial, resumed or straight through, observed
//! or plain. Each such relation is a row: a run description × a
//! transformation × a comparator.
//!
//! * A transformation is spelt as `key=value` words: the run-option
//!   keys [`RunOptions::set`] reads (`shards=4`, `audit=10000`,
//!   `telemetry=50`, `trace_flows=hotspots`, `profile=on`), plus
//!   `resume=<µs>` and `threads=<n>` (a parallel sweep). `""` repeats
//!   the baseline.
//! * [`Desc`] describes a library-level run: fabric, traffic,
//!   [`NetConfig`] (seed included), the options every run of it arms,
//!   and its capture instants. Its comparator is the full
//!   [`NetworkState`] at each capture; a mismatch names the diverging
//!   fields through `ibsim::bisect::diff_values`.
//! * [`Runner`] describes a run through the runners — a Table II sweep,
//!   a scenario cell, a workload. Its comparator is the text the run
//!   renders (a CSV, a result as JSON) and the artifact and checkpoint
//!   files the transformation makes it write.
//!
//! A description runs one serial baseline per test process (memoised,
//! so tests sharing a description share it); every transformation of
//! it is compared against that baseline.

#![allow(dead_code)] // each test binary uses the rows it needs

pub mod warm;

use ibsim::bisect::{diff_values, render_diff};
use ibsim::prelude::*;
use ibsim_net::NetworkState;
use serde::Serialize;
use std::any::Any;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// The default seed of `NetConfig::paper()`, which most rows run at.
pub const SEED: u64 = 0x1B51_C0DE;

/// 64-bit FNV-1a: the fingerprint the hash and artifact pins compare.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `trace_flows=` every `(src, dst)` pair of an `n`-node fabric.
pub fn trace_all(n: u32) -> String {
    let pairs: Vec<String> = (0..n)
        .flat_map(|s| (0..n).map(move |d| format!("{s}:{d}")))
        .collect();
    format!("trace_flows={}", pairs.join(","))
}

/// A fresh, empty directory under the system temp dir, unique to this
/// call.
pub fn scratch(what: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let k = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("ibsim_{what}_{}_{k}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// The files in `dir` named `<prefix>*.<ext>`, sorted by name.
pub fn artifacts(dir: &Path, prefix: &str, ext: &str) -> Vec<PathBuf> {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return Vec::new();
    };
    let mut files: Vec<PathBuf> = entries
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == ext))
        .filter(|p| p.file_name().unwrap().to_string_lossy().starts_with(prefix))
        .collect();
    files.sort();
    files
}

/// `f` once per process for `key`; later callers get a clone.
fn memo<T: Clone + Send + Sync + 'static>(key: String, f: impl FnOnce() -> T) -> T {
    type Cells = BTreeMap<String, Arc<dyn Any + Send + Sync>>;
    static CELLS: Mutex<Cells> = Mutex::new(BTreeMap::new());
    let cell = (CELLS.lock().unwrap_or_else(|e| e.into_inner()))
        .entry(key)
        .or_insert_with(|| Arc::new(OnceLock::<T>::new()))
        .clone();
    let cell = cell.downcast::<OnceLock<T>>().expect("one type per key");
    cell.get_or_init(f).clone()
}

/// A transformation, parsed: `base` with its run options set, where
/// it resumes, and on how many sweep threads.
struct Tf {
    opts: RunOptions,
    resume: Option<u64>,
    threads: usize,
}

fn parse(base: &RunOptions, words: &str) -> Tf {
    let mut tf = Tf {
        opts: base.clone(),
        resume: None,
        threads: 1,
    };
    for word in words.split_whitespace() {
        let (key, value) = word.split_once('=').expect("key=value");
        match key {
            "resume" => tf.resume = Some(value.parse().expect("µs")),
            "threads" => tf.threads = value.parse().expect("a thread count"),
            _ => tf.opts.set(key, value).unwrap_or_else(|e| panic!("{e}")),
        }
    }
    tf
}

/// What a library-level run's fabric carries.
#[derive(Clone, Copy, Debug)]
pub enum Traffic {
    /// The silent forest with this many hotspots, contributors active.
    Silent(usize),
    /// Every node sends to every other at full rate.
    Uniform,
}

/// A library-level run description: its state at each capture instant
/// (µs; the last is the horizon) is what its rows compare.
#[derive(Clone, Debug)]
pub struct Desc {
    pub topo: Topology,
    pub traffic: Traffic,
    pub cfg: NetConfig,
    /// Run options armed on the baseline and every transformation.
    pub arm: String,
    pub captures: Vec<u64>,
}

impl Desc {
    /// `traffic` on `topo` at [`SEED`], CC on, nothing armed.
    pub fn new(topo: Topology, traffic: Traffic) -> Desc {
        let (cfg, arm, captures) = (NetConfig::paper(), String::new(), Vec::new());
        Desc {
            topo,
            traffic,
            cfg,
            arm,
            captures,
        }
    }

    /// The silent forest with `hotspots` hotspots on `topo`.
    pub fn silent(topo: Topology, hotspots: usize) -> Desc {
        Desc::new(topo, Traffic::Silent(hotspots))
    }

    pub fn seed(mut self, seed: u64) -> Desc {
        self.cfg.seed = seed;
        self
    }

    pub fn cc(mut self, on: bool) -> Desc {
        if !on {
            self.cfg.cc = None;
        }
        self
    }

    /// Arm the run options `words` on every run of this description.
    pub fn arm(mut self, words: &str) -> Desc {
        self.arm = format!("{} {words}", self.arm);
        self
    }

    pub fn at(mut self, captures_us: &[u64]) -> Desc {
        self.captures = captures_us.to_vec();
        self
    }

    /// The hotspots the seed draws for the silent forest.
    pub fn hotspots(&self) -> Vec<u32> {
        let Traffic::Silent(h) = self.traffic else {
            return Vec::new();
        };
        let mut net = Network::new(&self.topo, self.cfg.clone());
        let roles = RoleSpec::silent(self.topo.num_hcas, h);
        let sc = Scenario::install_opts(roles, &mut net, PAPER_MSG_BYTES, true);
        sc.assignment.hotspots
    }

    fn parse(&self, words: &str) -> Tf {
        parse(&RunOptions::default(), &format!("{} {words}", self.arm))
    }

    /// A fresh network of this description under `words`, traffic
    /// installed, not yet run. It is armed by [`RunOptions::network`],
    /// as the runners arm theirs, and asked to shard it shards
    /// genuinely, unless an observer keeps it serial.
    pub fn build(&self, words: &str) -> Network {
        let opts = self.parse(words).opts;
        let mut net = opts.network(&self.topo, self.cfg.clone());
        let n = self.topo.num_hcas;
        match self.traffic {
            Traffic::Silent(h) => {
                let roles = RoleSpec::silent(n, h);
                let sc = Scenario::install_opts(roles, &mut net, PAPER_MSG_BYTES, true);
                opts.trace_hotspots(&mut net, &sc.assignment.hotspots);
            }
            Traffic::Uniform => {
                for node in 0..n as u32 {
                    let class =
                        TrafficClass::new(100, DestPattern::UniformExceptSelf, PAPER_MSG_BYTES);
                    net.set_classes(node, vec![class]);
                }
            }
        }
        let shards = match opts.telemetry.is_some() || opts.trace_flows.is_some() {
            true => 1, // observers run serial
            false => ibsim_topo::partition_leaf_groups(&self.topo, opts.shards).n,
        };
        assert_eq!(net.shard_count(), shards, "{words:?}");
        net
    }

    /// The serial baseline: the state at each capture and at each
    /// instant in `stops`, by instant.
    fn baseline(&self, stops: &[u64]) -> BTreeMap<u64, NetworkState> {
        let mut at: Vec<u64> = self.captures.iter().chain(stops).copied().collect();
        at.sort_unstable();
        at.dedup();
        memo(format!("{self:?} {at:?}"), || {
            let mut net = self.build("");
            let states = at.iter().map(|&t| {
                net.run_until(Time::from_us(t));
                (t, net.checkpoint())
            });
            let states = states.collect();
            audit_clean(&mut net, "the baseline");
            states
        })
    }

    /// The rows: each transformation's run holds the serial baseline's
    /// state at every capture it reaches, and an audited run ends with
    /// a clean oracle pass. Returns the baseline's states at the
    /// captures and each transformation's network after its last one.
    pub fn check(&self, rows: &[&str]) -> (Vec<NetworkState>, Vec<Network>) {
        let tfs: Vec<Tf> = rows.iter().map(|words| self.parse(words)).collect();
        let stops: Vec<u64> = tfs.iter().filter_map(|tf| tf.resume).collect();
        let base = self.baseline(&stops);
        let plain = self.parse("").opts;
        let nets = rows.iter().zip(&tfs).map(|(words, tf)| {
            let mut net = self.build(words);
            // An overlay only one side arms is left out of the comparison.
            let strip = |mut s: NetworkState| {
                if tf.opts.audit.is_some() != plain.audit.is_some() {
                    s.audit = None;
                }
                if tf.opts.telemetry.is_some() != plain.telemetry.is_some() {
                    s.telemetry = None;
                }
                s
            };
            if let Some(t) = tf.resume {
                let shards = net.shard_count();
                (net.restore(&strip(base[&t].clone())))
                    .unwrap_or_else(|e| panic!("{words:?}: restore at {t} µs: {e}"));
                assert_eq!(
                    net.shard_count(),
                    shards,
                    "{words:?}: restore kept the split"
                );
            }
            // Stop where the baseline stopped: a telemetry sample on a
            // stop instant reads differently from one taken mid-run.
            for &t in base.keys().filter(|&&t| t >= tf.resume.unwrap_or(0)) {
                net.run_until(Time::from_us(t));
                if self.captures.contains(&t) {
                    let seed = self.cfg.seed;
                    let what = format!("{words:?} diverged from serial at {t} µs, seed {seed:#x}");
                    assert_same(&strip(base[&t].clone()), &strip(net.checkpoint()), &what);
                }
            }
            audit_clean(&mut net, words);
            net
        });
        let nets = nets.collect();
        let want = self.captures.iter().map(|t| base[t].clone()).collect();
        (want, nets)
    }
}

/// `want == got`, or a panic naming `what` and the first diverging
/// fields.
pub fn assert_same(want: &NetworkState, got: &NetworkState, what: &str) {
    if want != got {
        let diffs = diff_values(&want.to_value(), &got.to_value(), 10);
        panic!("{what}:\n{}", render_diff(&diffs));
    }
}

fn audit_clean(net: &mut Network, what: &str) {
    if net.audit_enabled() {
        let report = net.audit_now();
        assert!(report.is_clean(), "{what}: {}", report.render());
    }
}

/// `f` over `items`: in order on this thread, or on `threads` workers.
pub fn sweep<T: Sync, R: Send>(items: &[T], threads: usize, f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    match threads {
        0 | 1 => items.iter().map(f).collect(),
        _ => parallel_map(items, threads, f),
    }
}

/// A run through the runners, rendered to the text it writes. One pass
/// makes `runs` runs, each writing one artifact set per armed observer.
pub struct Runner<'a> {
    pub name: String,
    pub runs: usize,
    /// The baseline's options: the ambient ones (so the CI audit and
    /// shard legs reach every row) without checkpointing, unless set
    /// otherwise.
    pub base: RunOptions,
    pub pass: Box<Pass<'a>>,
}

/// One pass under the given options on the given sweep threads.
pub type Pass<'a> = dyn Fn(&RunOptions, usize) -> String + 'a;

impl<'a> Runner<'a> {
    pub fn new(name: &str, runs: usize, pass: impl Fn(&RunOptions, usize) -> String + 'a) -> Self {
        let base = RunOptions {
            checkpoint_at: None,
            resume_from: None,
            ..RunOptions::ambient().clone()
        };
        let (name, pass) = (name.to_string(), Box::new(pass));
        Runner {
            name,
            runs,
            base,
            pass,
        }
    }

    /// Table II's four cells (CC off/on × contributors silent/active),
    /// rendered as the CSV `ibsim table2` writes.
    pub fn table2(
        name: &str,
        topo: Topology,
        cfg: NetConfig,
        roles: RoleSpec,
        dur: RunDurations,
    ) -> Self {
        let cells = [(false, false), (true, false), (false, true), (true, true)];
        Runner::new(name, cells.len(), move |opts, threads| {
            let r = sweep(&cells, threads, |&(cc, active)| {
                let cfg = NetConfig {
                    cc: cfg.cc.clone().filter(|_| cc),
                    ..cfg.clone()
                };
                opts.run_scenario(&topo, cfg, roles, dur, None, active)
            });
            let rows = [
                ("no_hotspots_no_cc_all", r[0].all_rx),
                ("no_hotspots_cc_all", r[1].all_rx),
                ("hotspots_no_cc_hotspot", r[2].hotspot_rx),
                ("hotspots_no_cc_non_hotspot", r[2].non_hotspot_rx),
                ("hotspots_cc_hotspot", r[3].hotspot_rx),
                ("hotspots_cc_non_hotspot", r[3].non_hotspot_rx),
                ("total_no_cc", r[2].total_rx),
                ("total_cc", r[3].total_rx),
            ];
            let rows = rows.iter().map(|(name, v)| format!("{name},{v:.3}\n"));
            std::iter::once("metric,gbps\n".into())
                .chain(rows)
                .collect()
        })
    }

    /// The baseline: one pass under [`Runner::base`], once per process.
    pub fn baseline(&self) -> String {
        memo(format!("runner {}", self.name), || {
            (self.pass)(&self.base, 1)
        })
    }

    /// The rows: each transformation's pass renders the baseline's text
    /// and writes one artifact set per run for each observer it arms.
    /// A `resume=<µs>` row saves there (which must not change the
    /// text), resumes from that file, and both it and a cold pass save
    /// again 100 µs later: the two saves must be the same bytes.
    /// Returns the baseline.
    pub fn check(&self, rows: &[&str]) -> String {
        let want = self.baseline();
        for words in rows {
            let tf = parse(&self.base, words);
            let out = scratch("rows_out");
            let opts = RunOptions {
                out: out.clone(),
                ..tf.opts
            };
            let pass = |opts: &RunOptions| (self.pass)(opts, tf.threads);
            let what = format!("{} under {words:?}", self.name);
            let Some(at) = tf.resume else {
                assert_eq!(pass(&opts), want, "{what}");
                for (on, prefix, ext) in [
                    (opts.telemetry.is_some(), "telemetry_", "csv"),
                    (opts.trace_flows.is_some(), "trace_", "json"),
                    (opts.profile, "profile_", "json"),
                ] {
                    let files = artifacts(&out, prefix, ext);
                    assert_eq!(files.len(), self.runs * on as usize, "{what}: {prefix}*");
                }
                std::fs::remove_dir_all(&out).ok();
                continue;
            };
            let (saved, cold, resumed) = (scratch("at"), scratch("cold"), scratch("resumed"));
            let saving = |us: u64, dir: &Path| RunOptions {
                checkpoint_at: Some(us),
                checkpoint_dir: dir.to_path_buf(),
                ..opts.clone()
            };
            let saves = |dir: &Path| {
                let files = artifacts(dir, "", "json");
                files
                    .iter()
                    .map(|p| std::fs::read(p).unwrap())
                    .collect::<Vec<_>>()
            };
            let text = pass(&saving(at, &saved));
            assert_eq!(text, want, "{what}: saving changed the pass");
            assert_eq!(saves(&saved).len(), self.runs, "{what}: one save per run");
            pass(&saving(at + 100, &cold));
            let resume = RunOptions {
                resume_from: Some(saved.clone()),
                ..saving(at + 100, &resumed)
            };
            assert_eq!(pass(&resume), want, "{what}: the resumed pass diverged");
            let same = saves(&cold) == saves(&resumed);
            assert!(same, "{what}: resumed state diverged 100 µs later");
            for dir in [out, saved, cold, resumed] {
                std::fs::remove_dir_all(dir).ok();
            }
        }
        want
    }
}
