//! Production-shaped workload generators: the four traffic patterns
//! that dominate real InfiniBand fabrics, expressed on the same
//! deterministic [`TrafficClass`] substrate as the paper's hotspot
//! forests so every existing guarantee — byte-identical sharding,
//! checkpoint/resume, the invariant audit — applies
//! unchanged.
//!
//! * **Incast** — N:1 fan-in with optional request staggering, built
//!   from plain [`DestPattern::Fixed`] classes. With one sender and no
//!   stagger it *is* a fixed class: the degenerate case is
//!   byte-identical to the paper generator, which is what pins the
//!   whole family to the existing goldens.
//! * **Event builder** — the LHCb-style barrier-synchronized all-to-all
//!   shift schedule: every readout node pushes its event fragment to a
//!   rotating window of builder nodes, one shift per time slot.
//! * **Collectives** — MPI-style all-to-all, ring all-reduce and
//!   recursive-doubling all-reduce as dependency-ordered phase
//!   schedules on a fixed slot clock.
//! * **Trace replay** — streams a [`flowtrace`](crate::flowtrace) file
//!   through open [`Script`](ibsim_net::Script) classes via
//!   [`TraceFeeder`], a bounded look-ahead window at a time, so traces
//!   far larger than memory replay in constant space.
//!
//! Shift and phase barriers are *fixed slots*, not drain barriers: slot
//! `s` releases at `s × slot`, unconditionally. That keeps the release
//! schedule pure configuration — independent of simulation outcomes —
//! which is what makes resume-from-checkpoint and sharded execution
//! byte-identical for free. A slot long enough to drain models a
//! synchronized barrier; a short one models the (realistic) case of
//! shifts bleeding into each other.

use crate::flowtrace::{TraceError, TraceReader};
use ibsim_engine::time::{Time, PS_PER_NS, PS_PER_US};
use ibsim_net::{DestPattern, Network, NodeId, ScriptSend, TrafficClass};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::fs::File;
use std::io::BufReader;

/// Which collective a [`WorkloadKind::Collective`] runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum CollectiveAlgo {
    /// Linear-shift all-to-all: one phase, node `i` sends to
    /// `i+1, i+2, …` (mod `n`). With `bytes` equal to a fragment this
    /// is exactly a one-shift event builder at full fan-in.
    AllToAll,
    /// Ring all-reduce: `2(n−1)` phases, each node passes a
    /// `⌈bytes/n⌉` chunk to its ring successor per phase.
    RingAllReduce,
    /// Recursive-doubling all-reduce: `log₂ m` phases over the largest
    /// power-of-two subset `m ≤ n`, partner `i XOR 2ᵏ`, full payload
    /// per phase.
    RecursiveDoubling,
}

impl CollectiveAlgo {
    pub fn name(&self) -> &'static str {
        match self {
            CollectiveAlgo::AllToAll => "a2a",
            CollectiveAlgo::RingAllReduce => "ring",
            CollectiveAlgo::RecursiveDoubling => "rd",
        }
    }
}

/// One of the four production workload shapes, with its knobs.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum WorkloadKind {
    /// `fanin` senders each push `messages` messages of `bytes` toward
    /// one destination, sender `k` starting at `k × stagger_ns`.
    Incast {
        dst: NodeId,
        fanin: u32,
        bytes: u32,
        messages: u64,
        #[serde(default)]
        stagger_ns: u64,
    },
    /// `shifts` barrier slots of `slot_us`; in shift `s` node `i`
    /// pushes a `fragment` to `fanin` builders in a rotating window.
    EventBuilder {
        fragment: u32,
        fanin: u32,
        shifts: u32,
        slot_us: u64,
    },
    /// `rounds` back-to-back collectives of `bytes` per rank, phases on
    /// a `slot_us` clock.
    Collective {
        algo: CollectiveAlgo,
        bytes: u32,
        rounds: u32,
        slot_us: u64,
    },
    /// Replay a [`flowtrace`](crate::flowtrace) file, streamed.
    TraceReplay { path: String },
}

/// A declarative workload: what to offer the fabric. Parsed from
/// `--workload` strings or deserialized out of a `SimSpec`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct WorkloadSpec {
    pub kind: WorkloadKind,
}

impl fmt::Display for WorkloadSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.kind {
            WorkloadKind::Incast {
                dst,
                fanin,
                bytes,
                messages,
                stagger_ns,
            } => write!(
                f,
                "incast:dst={dst},fanin={fanin},bytes={bytes},msgs={messages},stagger_ns={stagger_ns}"
            ),
            WorkloadKind::EventBuilder {
                fragment,
                fanin,
                shifts,
                slot_us,
            } => write!(
                f,
                "eb:frag={fragment},fanin={fanin},shifts={shifts},slot_us={slot_us}"
            ),
            WorkloadKind::Collective {
                algo,
                bytes,
                rounds,
                slot_us,
            } => write!(
                f,
                "collective:algo={},bytes={bytes},rounds={rounds},slot_us={slot_us}",
                algo.name()
            ),
            WorkloadKind::TraceReplay { path } => write!(f, "trace:{path}"),
        }
    }
}

impl WorkloadSpec {
    /// Short category name for file names and CSV columns.
    pub fn name(&self) -> String {
        match &self.kind {
            WorkloadKind::Incast { .. } => "incast".into(),
            WorkloadKind::EventBuilder { .. } => "eb".into(),
            WorkloadKind::Collective { algo, .. } => format!("collective-{}", algo.name()),
            WorkloadKind::TraceReplay { .. } => "trace".into(),
        }
    }

    /// Parse a `--workload` argument. Grammar, with every key optional
    /// (missing keys take the defaults shown by [`Display`]):
    ///
    /// ```text
    /// incast:dst=0,fanin=32,bytes=65536,msgs=64,stagger_ns=0
    /// eb:frag=4096,fanin=8,shifts=16,slot_us=50
    /// collective:algo=ring|rd|a2a,bytes=262144,rounds=2,slot_us=100
    /// trace:<path>
    /// ```
    pub fn parse(s: &str) -> Result<WorkloadSpec, String> {
        let (head, rest) = match s.split_once(':') {
            Some((h, r)) => (h, r),
            None => (s, ""),
        };
        if head == "trace" {
            if rest.is_empty() {
                return Err("trace workload needs a path: trace:<path>".into());
            }
            return Ok(WorkloadSpec {
                kind: WorkloadKind::TraceReplay { path: rest.into() },
            });
        }
        let mut kv = std::collections::BTreeMap::new();
        for part in rest.split(',').filter(|p| !p.is_empty()) {
            let (k, v) = part
                .split_once('=')
                .ok_or_else(|| format!("workload option `{part}`: expected key=value"))?;
            kv.insert(k.to_string(), v.to_string());
        }
        let algo_opt = kv.remove("algo");
        let kv = &mut kv;
        let kind = match head {
            "incast" => WorkloadKind::Incast {
                dst: take(kv, "dst", 0)?,
                fanin: take(kv, "fanin", 32)?,
                bytes: take(kv, "bytes", 65536)?,
                messages: take(kv, "msgs", 64)?,
                stagger_ns: take(kv, "stagger_ns", 0)?,
            },
            "eb" | "event-builder" => WorkloadKind::EventBuilder {
                fragment: take(kv, "frag", 4096)?,
                fanin: take(kv, "fanin", 8)?,
                shifts: take(kv, "shifts", 16)?,
                slot_us: take(kv, "slot_us", 50)?,
            },
            "collective" => {
                let algo = match algo_opt.as_deref() {
                    None | Some("ring") => CollectiveAlgo::RingAllReduce,
                    Some("rd") => CollectiveAlgo::RecursiveDoubling,
                    Some("a2a") => CollectiveAlgo::AllToAll,
                    Some(other) => {
                        return Err(format!(
                            "collective algo `{other}`: expected ring, rd or a2a"
                        ))
                    }
                };
                WorkloadKind::Collective {
                    algo,
                    bytes: take(kv, "bytes", 262_144)?,
                    rounds: take(kv, "rounds", 2)?,
                    slot_us: take(kv, "slot_us", 100)?,
                }
            }
            other => {
                return Err(format!(
                    "unknown workload `{other}`: expected incast, eb, collective or trace"
                ))
            }
        };
        if let Some(k) = kv.keys().next() {
            return Err(format!("workload option `{k}` not understood by `{head}`"));
        }
        let spec = WorkloadSpec { kind };
        spec.check()?;
        Ok(spec)
    }

    /// Refuse a message size of zero bytes, by option name: nothing
    /// could carry it. [`WorkloadSpec::parse`] and
    /// [`WorkloadSpec::install`] both run this, so a spec deserialized
    /// from a file meets it too.
    fn check(&self) -> Result<(), String> {
        let (key, size) = match self.kind {
            WorkloadKind::Incast { bytes, .. } => ("bytes", bytes),
            WorkloadKind::EventBuilder { fragment, .. } => ("frag", fragment),
            WorkloadKind::Collective { bytes, .. } => ("bytes", bytes),
            WorkloadKind::TraceReplay { .. } => return Ok(()),
        };
        match size {
            0 => Err(format!(
                "workload option {key}=0: a message needs at least one byte"
            )),
            _ => Ok(()),
        }
    }

    /// Install this workload on a freshly built (un-primed) network.
    pub fn install(&self, net: &mut Network) -> Result<Workload, String> {
        let n = net.hcas.len() as u32;
        assert!(n >= 2, "a workload needs at least two end nodes");
        self.check()?;
        match &self.kind {
            WorkloadKind::Incast {
                dst,
                fanin,
                bytes,
                messages,
                stagger_ns,
            } => install_incast(self, net, *dst, *fanin, *bytes, *messages, *stagger_ns),
            WorkloadKind::EventBuilder {
                fragment,
                fanin,
                shifts,
                slot_us,
            } => install_event_builder(self, net, *fragment, *fanin, *shifts, *slot_us),
            WorkloadKind::Collective {
                algo,
                bytes,
                rounds,
                slot_us,
            } => install_collective(self, net, *algo, *bytes, *rounds, *slot_us),
            WorkloadKind::TraceReplay { path } => install_trace(self, net, path),
        }
    }
}

/// Take `key` out of a workload's options (`default` when absent) as a
/// `T`, refusing, by name, text that is not a number and a number the
/// field cannot hold.
fn take<T: TryFrom<u64>>(
    kv: &mut std::collections::BTreeMap<String, String>,
    key: &str,
    default: u64,
) -> Result<T, String> {
    let v = match kv.remove(key) {
        None => default,
        Some(v) => v
            .parse()
            .map_err(|_| format!("workload option {key}={v}: expected a number"))?,
    };
    T::try_from(v).map_err(|_| {
        let ty = std::any::type_name::<T>();
        format!("workload option {key}={v}: does not fit the field's {ty}")
    })
}

/// Most sends an `eb` or `collective` schedule may hold: 256 MiB of
/// [`ScriptSend`]s, 16 Mi sends. Such a schedule is built in full
/// before the run starts and each send is held until it is released,
/// so this is a deliberate limit (DESIGN.md §13): a mistyped count is
/// refused by name rather than allowed to ask for the machine's memory.
/// A paper-fabric all-to-all round is 648 × 647 sends, so 40 fit.
const MAX_SCRIPT_SENDS: u64 = (256 << 20) / std::mem::size_of::<ScriptSend>() as u64;

/// Refuse a schedule of more than [`MAX_SCRIPT_SENDS`] `sends` (`None`:
/// past `u64`) on `n` end nodes, naming `options`, the options that
/// set the count.
fn check_sends(options: &str, n: u32, sends: Option<u64>) -> Result<(), String> {
    match sends {
        Some(s) if s <= MAX_SCRIPT_SENDS => Ok(()),
        _ => Err(format!(
            "workload options {options}: {n} end nodes would hold more than \
             {MAX_SCRIPT_SENDS} sends up front"
        )),
    }
}

/// A release clock ticking every `step` × `unit_ps`: the tick and the
/// instant of tick `last`. Refuses, naming `what` and `step`, a last
/// tick past the clock's range.
fn clock(what: &str, step: u64, unit_ps: u64, last: u64) -> Result<(u64, Time), String> {
    let tick = step.checked_mul(unit_ps);
    tick.and_then(|t| Some((t, Time(t.checked_mul(last)?))))
        .ok_or_else(|| format!("{what}={step}: the last release is past the clock's range"))
}

/// A workload bound to a network: the node categories it reports on,
/// its release horizon, and — for trace replay — the streaming feeder.
pub struct Workload {
    pub spec: WorkloadSpec,
    /// Named node categories for per-category receive-rate summaries
    /// (e.g. incast's `target` vs `senders`).
    pub categories: Vec<(String, Vec<NodeId>)>,
    /// Instant of the last scheduled release, where the schedule is
    /// known up front (everything but trace replay).
    pub last_release: Option<Time>,
    /// Total bytes the schedule offers (excluding trace replay, whose
    /// offered volume is only known once the stream ends).
    pub offered_bytes: u64,
    /// Streaming feeder for trace replay; `None` for scripted loads.
    pub feeder: Option<TraceFeeder>,
}

impl Workload {
    /// Average receive rate (Gbit/s) per category over the measurement
    /// window.
    pub fn category_rates(&self, net: &Network) -> Vec<(String, f64)> {
        self.categories
            .iter()
            .map(|(name, nodes)| {
                let avg = if nodes.is_empty() {
                    0.0
                } else {
                    nodes.iter().map(|&v| net.rx_gbps(v)).sum::<f64>() / nodes.len() as f64
                };
                (name.clone(), avg)
            })
            .collect()
    }
}

fn install_incast(
    spec: &WorkloadSpec,
    net: &mut Network,
    dst: NodeId,
    fanin: u32,
    bytes: u32,
    messages: u64,
    stagger_ns: u64,
) -> Result<Workload, String> {
    let n = net.hcas.len() as u32;
    if dst >= n {
        return Err(format!("incast dst {dst}: fabric has {n} end nodes"));
    }
    if fanin >= n {
        return Err(format!(
            "incast fanin {fanin}: fabric has only {} possible senders",
            n - 1
        ));
    }
    // Senders are the first `fanin` nodes, skipping the target — a
    // fixed, seed-independent choice so the degenerate N = 1 case is
    // trivially reproducible by hand.
    let senders: Vec<NodeId> = (0..n).filter(|&v| v != dst).take(fanin as usize).collect();
    let last = (senders.len() as u64).saturating_sub(1);
    let (_, last_release) = clock("stagger_ns", stagger_ns, PS_PER_NS, last)?;
    for (k, &src) in senders.iter().enumerate() {
        let start = Time(stagger_ns * k as u64 * PS_PER_NS);
        net.set_classes(
            src,
            vec![TrafficClass::new(100, DestPattern::Fixed(dst), bytes)
                .with_max_messages(messages)
                .with_start(start)],
        );
    }
    Ok(Workload {
        spec: spec.clone(),
        categories: vec![
            ("target".into(), vec![dst]),
            ("senders".into(), senders.clone()),
        ],
        last_release: Some(last_release),
        offered_bytes: (senders.len() as u64)
            .saturating_mul(messages)
            .saturating_mul(bytes as u64),
        feeder: None,
    })
}

fn install_event_builder(
    spec: &WorkloadSpec,
    net: &mut Network,
    fragment: u32,
    fanin: u32,
    shifts: u32,
    slot_us: u64,
) -> Result<Workload, String> {
    let n = net.hcas.len() as u32;
    let options = format!("shifts={shifts},fanin={fanin}");
    let fanin = fanin.clamp(1, n - 1);
    let per_node = shifts as u64 * fanin as u64;
    check_sends(&options, n, per_node.checked_mul(n as u64))?;
    let last = (shifts as u64).saturating_sub(1);
    let (slot, last_release) = clock("slot_us", slot_us, PS_PER_US, last)?;
    for i in 0..n {
        let mut sends = Vec::with_capacity(per_node as usize);
        for s in 0..shifts {
            let at = Time(s as u64 * slot);
            for k in 0..fanin {
                // Rotating builder window: shift s covers the fan-in
                // slice starting at offset s·fanin of the n−1 possible
                // peers, so successive shifts sweep the whole fabric.
                let off = (s as u64 * fanin as u64 + k as u64) % (n as u64 - 1);
                let dst = ((i as u64 + 1 + off) % n as u64) as NodeId;
                sends.push(ScriptSend {
                    at,
                    dst,
                    bytes: fragment,
                });
            }
        }
        net.set_classes(i, vec![TrafficClass::scripted(sends)]);
    }
    Ok(Workload {
        spec: spec.clone(),
        categories: vec![("builders".into(), (0..n).collect())],
        last_release: Some(last_release),
        offered_bytes: n as u64 * per_node * fragment as u64,
        feeder: None,
    })
}

fn install_collective(
    spec: &WorkloadSpec,
    net: &mut Network,
    algo: CollectiveAlgo,
    bytes: u32,
    rounds: u32,
    slot_us: u64,
) -> Result<Workload, String> {
    let n = net.hcas.len() as u32;
    // Phase schedule of one collective: (phase index, sends-per-node
    // closure). Built per node below to keep release times per-node
    // sorted by construction.
    let (phases, ranks): (u32, u32) = match algo {
        CollectiveAlgo::AllToAll => (1, n),
        CollectiveAlgo::RingAllReduce => (2 * (n - 1), n),
        CollectiveAlgo::RecursiveDoubling => {
            let m = if n.is_power_of_two() {
                n
            } else {
                (n / 2).next_power_of_two().min(1 << 31)
            };
            (m.trailing_zeros(), m)
        }
    };
    let total_phases = rounds as u64 * phases as u64;
    let per_phase = match algo {
        CollectiveAlgo::AllToAll => n as u64 - 1,
        _ => 1,
    };
    let sends = (total_phases * per_phase).checked_mul(ranks as u64);
    check_sends(&format!("rounds={rounds}"), n, sends)?;
    let last = total_phases.saturating_sub(1);
    let (slot, last_release) = clock("slot_us", slot_us, PS_PER_US, last)?;
    let mut offered = 0u64;
    for i in 0..ranks {
        let mut sends = Vec::new();
        for r in 0..rounds {
            for p in 0..phases {
                let at = Time((r as u64 * phases as u64 + p as u64) * slot);
                match algo {
                    CollectiveAlgo::AllToAll => {
                        for k in 0..n - 1 {
                            sends.push(ScriptSend {
                                at,
                                dst: ((i as u64 + 1 + k as u64) % n as u64) as NodeId,
                                bytes,
                            });
                        }
                    }
                    CollectiveAlgo::RingAllReduce => {
                        let chunk = bytes.div_ceil(n).max(1);
                        sends.push(ScriptSend {
                            at,
                            dst: (i + 1) % n,
                            bytes: chunk,
                        });
                    }
                    CollectiveAlgo::RecursiveDoubling => {
                        sends.push(ScriptSend {
                            at,
                            dst: i ^ (1 << p),
                            bytes,
                        });
                    }
                }
            }
        }
        offered += sends.iter().map(|s| s.bytes as u64).sum::<u64>();
        net.set_classes(i, vec![TrafficClass::scripted(sends)]);
    }
    Ok(Workload {
        spec: spec.clone(),
        categories: vec![("ranks".into(), (0..ranks).collect())],
        last_release: Some(last_release),
        offered_bytes: offered,
        feeder: None,
    })
}

fn install_trace(spec: &WorkloadSpec, net: &mut Network, path: &str) -> Result<Workload, String> {
    let feeder = TraceFeeder::open(path, net.hcas.len() as u32)?;
    // Every potential source gets one open script class; the feeder
    // appends records as simulated time approaches them.
    for i in 0..feeder.nodes() {
        net.set_classes(i, vec![TrafficClass::script()]);
    }
    Ok(Workload {
        spec: spec.clone(),
        categories: vec![("nodes".into(), (0..feeder.nodes()).collect())],
        last_release: None,
        offered_bytes: 0,
        feeder: Some(feeder),
    })
}

/// Streams a trace file into a network's open script classes, a
/// bounded time window at a time. Peak memory is one look-ahead window
/// of sends plus `BufReader`'s fixed block — never the whole trace.
pub struct TraceFeeder {
    reader: TraceReader<BufReader<File>>,
    /// One decoded record the previous window could not yet install.
    pending: Option<crate::flowtrace::FlowRec>,
    /// Reusable per-source staging buffers (allocations are retained
    /// across windows, so steady-state feeding does not allocate).
    staging: Vec<Vec<ScriptSend>>,
    closed: bool,
    records_fed: u64,
}

impl TraceFeeder {
    /// Open `path` for a fabric of `fabric_nodes` end nodes. A trace cut
    /// for more nodes is refused before anything is sized: the staging
    /// table has one entry per fabric node, never one per node the
    /// header claims.
    pub fn open(path: &str, fabric_nodes: u32) -> Result<Self, String> {
        let reader = TraceReader::open(path).map_err(|e| format!("opening trace {path}: {e}"))?;
        if reader.nodes() > fabric_nodes {
            return Err(format!(
                "trace {path} was cut for {} nodes, fabric has {fabric_nodes}",
                reader.nodes()
            ));
        }
        Ok(TraceFeeder {
            reader,
            pending: None,
            staging: vec![Vec::new(); fabric_nodes as usize],
            closed: false,
            records_fed: 0,
        })
    }

    /// Fabric size the trace was cut for.
    pub fn nodes(&self) -> u32 {
        self.reader.nodes()
    }

    /// Total records the trace declares.
    pub fn records(&self) -> u64 {
        self.reader.records()
    }

    /// Records installed into the network so far.
    pub fn records_fed(&self) -> u64 {
        self.records_fed
    }

    /// True once the whole trace is installed and the scripts closed.
    pub fn done(&self) -> bool {
        self.closed
    }

    /// Resume support: skip the `fed` records a restored checkpoint's
    /// scripts already carry (the sum of each class's `fed` cursor).
    pub fn skip_fed(&mut self, fed: u64) -> Result<(), TraceError> {
        self.reader.skip(fed)?;
        self.records_fed = fed;
        Ok(())
    }

    /// Install every record with `t < horizon`. Call at deterministic
    /// instants (fixed feed boundaries) with a horizon past the next
    /// boundary, then `run_until` the boundary — the schedule each
    /// class sees is then independent of sharding and checkpoints.
    /// Returns `true` once the trace is exhausted (scripts closed).
    pub fn feed_until(&mut self, net: &mut Network, horizon: Time) -> Result<bool, TraceError> {
        if self.closed {
            return Ok(true);
        }
        let mut exhausted = false;
        loop {
            let rec = match self.pending.take() {
                Some(r) => r,
                None => match self.reader.next_record()? {
                    Some(r) => r,
                    None => {
                        exhausted = true;
                        break;
                    }
                },
            };
            if rec.t >= horizon {
                self.pending = Some(rec);
                break;
            }
            self.staging[rec.src as usize].push(ScriptSend {
                at: rec.t,
                dst: rec.dst,
                bytes: rec.bytes,
            });
            self.records_fed += 1;
        }
        for (src, sends) in self.staging.iter_mut().enumerate() {
            if !sends.is_empty() {
                net.append_script(src as NodeId, 0, sends);
                sends.clear();
            }
        }
        if exhausted {
            for src in 0..self.reader.nodes() {
                net.close_script(src, 0);
            }
            self.closed = true;
        }
        Ok(exhausted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_roundtrips_through_display() {
        for s in [
            "incast:dst=5,fanin=8,bytes=4096,msgs=16,stagger_ns=250",
            "eb:frag=2048,fanin=4,shifts=8,slot_us=20",
            "collective:algo=rd,bytes=65536,rounds=3,slot_us=50",
            "trace:/tmp/x.ibtr",
        ] {
            let spec = WorkloadSpec::parse(s).unwrap();
            assert_eq!(WorkloadSpec::parse(&spec.to_string()).unwrap(), spec);
        }
    }

    #[test]
    fn parse_defaults_and_errors() {
        let spec = WorkloadSpec::parse("incast").unwrap();
        assert!(matches!(
            spec.kind,
            WorkloadKind::Incast {
                dst: 0,
                fanin: 32,
                ..
            }
        ));
        assert!(WorkloadSpec::parse("warp-drive").is_err());
        assert!(WorkloadSpec::parse("incast:fanin=lots").is_err());
        assert!(WorkloadSpec::parse("incast:warp=9").is_err());
        assert!(WorkloadSpec::parse("collective:algo=mesh").is_err());
        assert!(WorkloadSpec::parse("trace").is_err());
    }

    #[test]
    fn parse_refuses_zero_sizes_and_values_past_their_field() {
        for (spec, names) in [
            ("incast:bytes=0", "bytes=0"),
            ("eb:frag=0", "frag=0"),
            ("collective:bytes=0", "bytes=0"),
            ("incast:dst=4294967297", "dst=4294967297"),
            ("incast:fanin=4294967296", "fanin=4294967296"),
            ("eb:shifts=4294967296", "shifts=4294967296"),
            ("collective:rounds=99999999999", "rounds=99999999999"),
            (
                "incast:msgs=18446744073709551616",
                "msgs=18446744073709551616",
            ),
        ] {
            let e = WorkloadSpec::parse(spec).expect_err(spec);
            assert!(e.contains(names), "{spec}: {e}");
        }
        assert!(WorkloadSpec::parse("incast:dst=4294967295,bytes=1").is_ok());
    }

    #[test]
    fn event_builder_shift_covers_rotating_window() {
        // n = 5, fanin = 2: node 0's shift 0 hits {1,2}, shift 1 hits
        // {3,4}, shift 2 wraps to {1,2} again (offset 4 % 4 = 0).
        let n = 5u64;
        let fanin = 2u64;
        let dsts = |s: u64| -> Vec<u64> {
            (0..fanin)
                .map(|k| (1 + (s * fanin + k) % (n - 1)) % n)
                .collect()
        };
        assert_eq!(dsts(0), vec![1, 2]);
        assert_eq!(dsts(1), vec![3, 4]);
        assert_eq!(dsts(2), vec![1, 2]);
    }

    #[test]
    fn serde_value_roundtrip() {
        let spec =
            WorkloadSpec::parse("collective:algo=ring,bytes=1024,rounds=1,slot_us=10").unwrap();
        let v = serde::Serialize::to_value(&spec);
        let back: WorkloadSpec = serde::Deserialize::from_value(&v).unwrap();
        assert_eq!(back, spec);
    }
}
