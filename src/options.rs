//! One value configures a run: [`RunOptions`].
//!
//! Everything that shapes *how* a scenario is executed and observed —
//! the invariant oracle, sharding, telemetry,
//! flow tracing, profiling, the artifact directory and
//! checkpoint/resume — is a field of this struct, and there is exactly
//! one of each mechanism around it:
//!
//! * **one parser** — [`RunOptions::set`], fed key by key (see
//!   [`KEYS`]) from a spec file's `options` object, then `IBSIM_<KEY>`,
//!   then `--<key>`, and validated before any network is built;
//! * **one arm** — [`RunOptions::network`] builds the [`Network`] and
//!   applies the options in a fixed order;
//! * **one driver** — `RunOptions::drive` runs a run's clock plan
//!   (window, step grid, checkpoint capture, resume re-entry);
//! * **one finish** — [`RunOptions::finish`] draws one run label,
//!   writes every artifact under it and runs the end-of-run audit.
//!
//! The runners ([`RunOptions::run_scenario`],
//! [`RunOptions::run_workload`]) take the
//! value by reference; nothing here is a process-wide toggle, so two
//! threads can run differently configured cells side by side.

use crate::checkpoint::save_in;
use ibsim_engine::time::{Time, TimeDelta, PS_PER_US};
use ibsim_net::{
    chrome_trace_json, records_csv, AuditReport, NetConfig, Network, NodeId, TelemetryConfig,
    TraceRecord,
};
use ibsim_topo::Topology;
use serde::{Deserialize, Serialize, Value};
use std::fs::File;
use std::io::Write;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Events between oracle passes when `audit` is just switched on.
pub const DEFAULT_AUDIT_EVERY: u64 = 50_000;
/// Sampling period (µs) when `telemetry` is just switched on.
pub const DEFAULT_TELEMETRY_US: u64 = 100;

/// The key table: every run option, spelt as the spec-file field. The
/// flag is `--<key>` with `-` for `_`, the variable `IBSIM_<KEY>`.
pub const KEYS: [&str; 10] = [
    "audit",
    "shards",
    "telemetry",
    "telemetry_det",
    "trace_flows",
    "profile",
    "out",
    "checkpoint_at",
    "checkpoint_dir",
    "resume_from",
];

/// What `trace_flows` asked for.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FlowSpec {
    /// Explicit `SRC:DST` pairs.
    Flows(Vec<(NodeId, NodeId)>),
    /// The `hotspots` keyword: every flow *into* the run's hotspots.
    /// Hotspot locations are drawn from the scenario RNG, so
    /// [`RunOptions::network`] arms nothing for this variant and the
    /// runner calls [`RunOptions::trace_hotspots`] once roles exist.
    Hotspots,
}

impl FlowSpec {
    /// Parse `hotspots` or a `SRC:DST[,SRC:DST…]` list (`0:3,5:3`).
    pub fn parse(spec: &str) -> Result<FlowSpec, String> {
        if spec.trim() == "hotspots" {
            return Ok(FlowSpec::Hotspots);
        }
        let flows = spec
            .split(',')
            .filter(|part| !part.trim().is_empty())
            .map(|part| {
                let (s, d) = part.split_once(':').ok_or_else(|| {
                    format!("flow {part:?} wants SRC:DST or the keyword hotspots")
                })?;
                let node = |n: &str| n.trim().parse().map_err(|_| format!("bad node {n:?}"));
                Ok((node(s)?, node(d)?))
            })
            .collect::<Result<Vec<_>, String>>()?;
        if flows.is_empty() {
            return Err("wants SRC:DST[,SRC:DST…] or the keyword hotspots".into());
        }
        Ok(FlowSpec::Flows(flows))
    }
}

/// Serialises as the string [`FlowSpec::parse`] reads.
impl Serialize for FlowSpec {
    fn to_value(&self) -> Value {
        Value::Str(match self {
            FlowSpec::Hotspots => "hotspots".into(),
            FlowSpec::Flows(flows) => {
                let parts: Vec<String> = flows.iter().map(|(s, d)| format!("{s}:{d}")).collect();
                parts.join(",")
            }
        })
    }
}

/// A rejected option: which key, the offending value, and why.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OptionsError {
    pub key: String,
    pub value: String,
    pub reason: String,
}

impl std::fmt::Display for OptionsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let OptionsError { key, value, reason } = self;
        write!(
            f,
            "option `{key}` (--{} / IBSIM_{} / spec options.{key}): {reason}, got {value:?}",
            key.replace('_', "-"),
            key.to_uppercase(),
        )
    }
}

impl std::error::Error for OptionsError {}

/// How one run is executed and observed. `Default` is everything off,
/// serial, artifacts under `results/`, checkpoints under
/// `checkpoints/`. Field names are the [`KEYS`].
#[derive(Clone, Debug, PartialEq, Eq, Serialize)]
pub struct RunOptions {
    /// Invariant oracle: events between periodic passes (`None` = off).
    pub audit: Option<u64>,
    /// Parallel shards (1 = the serial engine). Byte-invisible.
    /// Telemetry and tracing keep a run serial.
    pub shards: usize,
    /// Telemetry sampling period in µs (`None` = off). Writes
    /// `telemetry_*.csv`, `flight_*.json`, `figure_*.csv`.
    pub telemetry: Option<u64>,
    /// Zero the two wall-clock telemetry columns, so telemetry CSVs of
    /// two runs can be diffed.
    pub telemetry_det: bool,
    /// Flows to trace hop by hop. Writes `trace_*.json` / `trace_*.csv`.
    pub trace_flows: Option<FlowSpec>,
    /// Bin hot-path time by subsystem. Writes `profile_*.json`.
    pub profile: bool,
    /// Where every artifact above lands.
    pub out: PathBuf,
    /// Save a checkpoint when the clock first reaches this many µs.
    pub checkpoint_at: Option<u64>,
    /// Where checkpoints are written.
    pub checkpoint_dir: PathBuf,
    /// Fast-forward each run from its matching checkpoint in this
    /// directory, which must exist; runs with no matching file start
    /// cold.
    pub resume_from: Option<PathBuf>,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            audit: None,
            shards: 1,
            telemetry: None,
            telemetry_det: false,
            trace_flows: None,
            profile: false,
            out: PathBuf::from("results"),
            checkpoint_at: None,
            checkpoint_dir: PathBuf::from("checkpoints"),
            resume_from: None,
        }
    }
}

/// What [`RunOptions::finish`] produced.
#[derive(Debug)]
#[must_use = "the audit report decides whether the run's numbers can be trusted"]
pub struct RunArtifacts {
    /// `runNNN_<hint>`, shared by every file of this run; `None` when
    /// no observer was armed and nothing was written.
    pub label: Option<String>,
    pub files: Vec<PathBuf>,
    /// The end-of-run oracle pass (clean and empty when audit is off).
    pub audit: AuditReport,
}

/// A run's clock, run by [`RunOptions::drive`]. Its edges are `open`,
/// `close`, every `step` from 0, and `end`.
#[derive(Default)]
pub(crate) struct ClockPlan {
    /// The measurement window's edges; `None` leaves them to the caller.
    pub open: Option<Time>,
    pub close: Option<Time>,
    /// The caller's grid: hotspot epochs, workload segments.
    pub step: Option<TimeDelta>,
    /// The last edge, unless the caller ends the run first.
    pub end: Time,
    /// The checkpoint file label (`None`: neither save nor resume) and
    /// the clock [`RunOptions::resume`] restored.
    pub label: Option<String>,
    pub resumed: Option<Time>,
}

impl RunOptions {
    /// The one parser: set `key` from its textual `value`. Switches
    /// take `true|on|1` / `false|off|0`; `audit` and `telemetry` also
    /// take their number. Never panics — a bad key or value comes back
    /// as an [`OptionsError`] naming both.
    pub fn set(&mut self, key: &str, value: &str) -> Result<(), OptionsError> {
        let v = value.trim();
        let bad = |reason: &str| OptionsError {
            key: key.to_string(),
            value: value.to_string(),
            reason: reason.to_string(),
        };
        let switch = || match v {
            "1" | "true" | "on" => Ok(true),
            "0" | "false" | "off" => Ok(false),
            _ => Err(bad("wants true|false")),
        };
        let count = |max: u64, what: &str| {
            let n = v.parse::<u64>().ok().filter(|n| (1..=max).contains(n));
            n.ok_or_else(|| bad(what))
        };
        // Microseconds that still fit the picosecond clock.
        let micros = || {
            count(
                u64::MAX / PS_PER_US,
                "wants a positive number of microseconds",
            )
        };
        let dir = || match v {
            "" => Err(bad("wants a directory")),
            _ => Ok(PathBuf::from(v)),
        };
        match key {
            "audit" => {
                self.audit = match switch() {
                    Ok(true) => Some(self.audit.unwrap_or(DEFAULT_AUDIT_EVERY)),
                    Ok(false) => None,
                    Err(_) => Some(count(
                        u64::MAX,
                        "wants true|false or the events between passes",
                    )?),
                }
            }
            "shards" => {
                self.shards = count(u32::MAX as u64, "wants a positive shard count")? as usize;
            }
            "telemetry" => {
                self.telemetry = match v {
                    "true" | "on" => Some(DEFAULT_TELEMETRY_US),
                    "false" | "off" => None,
                    _ => Some(micros()?),
                }
            }
            "telemetry_det" => self.telemetry_det = switch()?,
            "trace_flows" => {
                self.trace_flows = match v {
                    "false" | "off" => None,
                    _ => Some(FlowSpec::parse(v).map_err(|e| bad(&e))?),
                }
            }
            "profile" => self.profile = switch()?,
            "out" => self.out = dir()?,
            "checkpoint_at" => self.checkpoint_at = Some(micros()?),
            "checkpoint_dir" => self.checkpoint_dir = dir()?,
            "resume_from" => {
                let d = dir()?;
                if !d.is_dir() {
                    return Err(bad("is not an existing directory"));
                }
                self.resume_from = Some(d);
            }
            _ => {
                return Err(bad(&format!(
                    "unknown option; the keys are {}",
                    KEYS.join(", ")
                )))
            }
        }
        Ok(())
    }

    /// Layer one source over `self`: for every key in the table, the
    /// value `lookup(key)` returns (if any) goes through [`Self::set`].
    pub fn overlay(
        mut self,
        lookup: impl Fn(&str) -> Option<String>,
    ) -> Result<Self, OptionsError> {
        for key in KEYS {
            if let Some(v) = lookup(key) {
                self.set(key, &v)?;
            }
        }
        Ok(self)
    }

    /// Layer the process environment (`IBSIM_<KEY>`, empty = unset)
    /// over `self`.
    pub fn overlay_env(self) -> Result<Self, OptionsError> {
        self.overlay(|key| {
            std::env::var(format!("IBSIM_{}", key.to_uppercase()))
                .ok()
                .filter(|v| !v.is_empty())
        })
    }

    /// The options of a process that was handed none: the defaults
    /// under the environment, resolved once and immutable thereafter.
    /// The signature-stable runners (`run_scenario`, `run_workload`, …)
    /// run under this, which is what lets `IBSIM_AUDIT=1 cargo test`
    /// and `IBSIM_SHARDS=4 cargo test` cover the whole suite. Panics,
    /// naming key and value, if the environment holds a bad value.
    pub fn ambient() -> &'static RunOptions {
        static AMBIENT: OnceLock<RunOptions> = OnceLock::new();
        AMBIENT.get_or_init(|| {
            RunOptions::default()
                .overlay_env()
                .unwrap_or_else(|e| panic!("{e}"))
        })
    }

    /// Refuse a `trace_flows` pair naming a node outside a fabric of
    /// `nodes` end nodes: `Err` gives the flow and the node count.
    pub fn check_flows(&self, nodes: usize) -> Result<(), OptionsError> {
        let Some(FlowSpec::Flows(flows)) = &self.trace_flows else {
            return Ok(());
        };
        match flows.iter().find(|(s, d)| *s.max(d) as usize >= nodes) {
            None => Ok(()),
            Some((s, d)) => Err(OptionsError {
                key: "trace_flows".into(),
                value: value_text(&self.trace_flows.to_value()),
                reason: format!("flow {s}:{d} names a node outside the fabric's {nodes} nodes"),
            }),
        }
    }

    /// Refuse options a runner cannot honour: `Err` names the first of
    /// `keys` that differs from its default.
    pub fn without(self, keys: &[&str], who: &str) -> Result<Self, OptionsError> {
        let (mine, default) = (self.to_value(), RunOptions::default().to_value());
        match keys.iter().find(|k| mine.get(k) != default.get(k)) {
            None => Ok(self),
            Some(key) => Err(OptionsError {
                key: key.to_string(),
                value: value_text(&mine[*key]),
                reason: format!("{who} cannot honour this option"),
            }),
        }
    }

    /// The one arm: build the network for `cfg` and apply the options.
    /// The order — `Network::new`, audit, telemetry, trace,
    /// profile, shards — is part of the byte-identity contract (the
    /// oracle and sampler must see an empty fabric). Telemetry and
    /// tracing run serial: with either armed — here, or by
    /// [`RunOptions::trace_hotspots`] later — the run does not shard.
    pub fn network(&self, topo: &Topology, cfg: NetConfig) -> Network {
        let mut net = Network::new(topo, cfg);
        if let Some(every) = self.audit {
            net.enable_audit(every);
        }
        if let Some(us) = self.telemetry {
            let mut tel = TelemetryConfig::every(TimeDelta::from_us(us));
            tel.deterministic_wall = self.telemetry_det;
            net.enable_telemetry(tel);
        }
        if let Some(FlowSpec::Flows(flows)) = &self.trace_flows {
            net.enable_trace(flows.iter().copied());
        }
        if self.profile {
            net.enable_profile();
        }
        if self.shards > 1 {
            // Fabrics or observers the executor cannot split (one leaf
            // group, telemetry, tracing) silently stay serial.
            net.set_shards(topo, self.shards);
        }
        net
    }

    /// The one driver: run `plan` on an armed, installed `net`; the
    /// caller then [`RunOptions::finish`]es it. At each edge, in order:
    /// run to it, first to a pending
    /// `checkpoint_at` capture at or before it and save there; open or
    /// close the window; on a step edge or at `end`, after 0, call
    /// `at_step`, whose `false` ends the run. A stepped plan of no
    /// length never runs, not even to 0. A resumed run re-enters at the
    /// last edge strictly before the restored clock.
    pub(crate) fn drive(
        &self,
        net: &mut Network,
        plan: ClockPlan,
        mut at_step: impl FnMut(&mut Network, Time) -> bool,
    ) {
        let (open, close, step, end) = (plan.open, plan.close, plan.step, plan.end);
        assert!(step.is_none_or(|s| s.as_ps() > 0), "zero clock step");
        // A resumed run never re-saves a capture its file already holds.
        let capture_at = self.checkpoint_at.map(Time::from_us);
        let capture_at = capture_at.filter(|&at| plan.resumed.is_none_or(|r| at > r));
        let mut capture = plan.label.zip(capture_at);
        let runs = step.is_none() || end > Time::ZERO;
        let next = |from: Time| {
            let grid = step.map(|s| Time(from.as_ps().div_ceil(s.as_ps()).max(1) * s.as_ps()));
            let edges = [open, close, grid, Some(end)].into_iter().flatten();
            edges.filter(|&e| from <= e && e <= end).min()
        };
        let mut from = plan.resumed.unwrap_or(Time::ZERO);
        while let Some(t) = next(from) {
            if let Some((label, at)) = capture.take_if(|(_, at)| runs && *at <= t) {
                net.run_until(at);
                save_in(&self.checkpoint_dir, net, &label);
            }
            if runs {
                net.run_until(t);
            }
            if open == Some(t) && !net.is_measuring() {
                net.start_measurement();
            }
            if close == Some(t) && net.is_measuring() {
                net.stop_measurement();
            }
            let on_step = t == end || step.is_some_and(|s| t.as_ps() % s.as_ps() == 0);
            if t > Time::ZERO && on_step && !at_step(net, t) {
                break;
            }
            from = Time(t.as_ps() + 1);
        }
    }

    /// Resolve the `hotspots` trace keyword against a drawn role
    /// assignment: trace every flow from any end node into any
    /// hotspot. A no-op for every other `trace_flows` value.
    pub fn trace_hotspots(&self, net: &mut Network, hotspots: &[NodeId]) {
        if self.trace_flows != Some(FlowSpec::Hotspots) {
            return;
        }
        let nodes = net.hcas.len() as NodeId;
        for &h in hotspots {
            net.enable_trace((0..nodes).filter(|&n| n != h).map(move |n| (n, h)));
        }
    }

    /// The one finish: draw one `runNNN_<hint>` label (`None`: `cc_on`
    /// or `cc_off`), write every armed observer's artifacts under it
    /// into `out`, then run the
    /// end-of-run oracle pass. Artifacts go to disk *before* the audit
    /// so they survive the caller raising on a broken ledger.
    /// `hotspots` groups the `figure_*.csv` series.
    pub fn finish(
        &self,
        net: &mut Network,
        hint: Option<&str>,
        hotspots: &[NodeId],
    ) -> RunArtifacts {
        /// Per-process run counter: parallel sweeps never clobber each
        /// other's artifacts, and all files of one run share a label.
        static RUN_SEQ: AtomicUsize = AtomicUsize::new(0);
        let hint = hint.unwrap_or(if net.cc_enabled() { "cc_on" } else { "cc_off" });
        let armed = net.telemetry_enabled() || net.tracer().is_some() || net.profile_enabled();
        let label =
            armed.then(|| format!("run{:03}_{hint}", RUN_SEQ.fetch_add(1, Ordering::Relaxed)));
        let mut files = Vec::new();
        let mut put = |kind: &str, ext: &str, write: &dyn Fn(File) -> std::io::Result<()>| {
            let label = label.as_deref().expect("an observer is armed");
            let path = self.out.join(format!("{kind}_{label}.{ext}"));
            File::create(&path)
                .and_then(write)
                .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
            files.push(path);
        };
        let text = |body: String| move |mut f: File| f.write_all(body.as_bytes());
        if armed {
            std::fs::create_dir_all(&self.out)
                .unwrap_or_else(|e| panic!("cannot create {}: {e}", self.out.display()));
        }
        if let Some(tel) = net.telemetry() {
            put("telemetry", "csv", &text(tel.table().to_csv()));
            let flight = net.flight_dump_json("end of run");
            put("flight", "json", &text(flight.expect("telemetry is armed")));
            let figure = crate::figures::FigureSeries::from_table(tel.table(), hotspots);
            put("figure", "csv", &text(figure.to_csv()));
        }
        if let Some(tracer) = net.tracer() {
            // Decoded once for the JSON, whose packet spans group records
            // out of capture order; the CSV streams straight off the log.
            let records: Vec<TraceRecord> = tracer.records().collect();
            put("trace", "json", &|f| chrome_trace_json(&records, f));
            put("trace", "csv", &|f| records_csv(tracer.records(), f));
        }
        if let Some(report) = net.profile_report() {
            let json = serde_json::to_string_pretty(&report).expect("profile report serialises");
            put("profile", "json", &text(json));
        }
        RunArtifacts {
            label,
            files,
            audit: net.audit_checked(),
        }
    }
}

/// A serialised option value as the text [`RunOptions::set`] reads.
fn value_text(v: &Value) -> String {
    match v {
        Value::Str(s) => s.clone(),
        other => serde_json::to_string(other).unwrap_or_default(),
    }
}

/// A spec file's `options` object goes through the same parser as
/// flags and environment, so a misspelt key or a bad value is rejected
/// by name (and a serialised `RunOptions` reads back as itself).
impl Deserialize for RunOptions {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        let pairs = v.as_object().ok_or_else(|| {
            serde::Error::custom(format!("options: expected an object, got {v:?}"))
        })?;
        let mut opts = RunOptions::default();
        for (key, value) in pairs {
            if *value != Value::Null {
                opts.set(key, &value_text(value))
                    .map_err(serde::Error::custom)?;
            }
        }
        Ok(opts)
    }
}
