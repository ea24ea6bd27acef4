//! The four workloads. Each is a set-up and a run; one repetition does
//! both and hashes what the simulator reported.

use crate::cells::{
    finish_cell, hand_scenario, run_segments, run_windows, runner_scenario, scenario_network,
    uniform_network, CellOut, Depth, Observe,
};
use crate::digest::Fnv;
use crate::scale::Scale;
use crate::spans::Spans;
use ibsim::prelude::*;
use ibsim_net::ProfileReport;
use ibsim_traffic::flowtrace::synthesize_to;
use std::path::PathBuf;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    Silent648,
    Uniform648,
    Uniform648S2,
    Quick72Session,
}

impl Kind {
    /// In the order BENCHMARK.json lists them.
    pub const ALL: [Kind; 4] = [
        Kind::Silent648,
        Kind::Uniform648,
        Kind::Uniform648S2,
        Kind::Quick72Session,
    ];

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::Silent648 => "silent648",
            Kind::Uniform648 => "uniform648",
            Kind::Uniform648S2 => "uniform648_s2",
            Kind::Quick72Session => "quick72_session",
        }
    }
}

/// How a repetition drives the simulator.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Mode {
    /// As a user would: through `run_scenario_opts` / `parallel_map`
    /// wherever the workload names a runner. The end-to-end metrics
    /// come from these repetitions.
    User,
    /// Every scenario cell assembled by hand, observers off: the same
    /// simulated outputs, with a span around each layer call.
    Hand,
    /// As `Hand`, with the profiler bins and an end-of-run audit on.
    Traced,
}

pub struct Ctx {
    pub scale: &'static Scale,
    pub seed: u64,
    /// Scratch directory inside the checkout (checkpoints, the trace).
    pub tmp: PathBuf,
}

/// What the observed-by-name parts of a `quick72_session` repetition
/// reported, for the correctness checks.
#[derive(Clone, Debug, Default)]
pub struct SessionOut {
    pub ckpt_full: u64,
    pub observed_full: u64,
    pub replay_drained: bool,
    pub records_fed: u64,
    pub state_bytes: u64,
}

pub struct RepOut {
    pub spans: Spans,
    /// Fold of every cell's `core` / `full` hash, in run order.
    pub core: u64,
    pub full: u64,
    pub cells: Vec<CellOut>,
    pub profiles: Vec<ProfileReport>,
    pub session: Option<SessionOut>,
}

impl RepOut {
    /// Simulated µs the repetition covered, all cells together.
    pub fn sim_us(&self) -> f64 {
        self.cells.iter().map(|c| c.sim_us).sum()
    }
}

/// What the run phase of a repetition collects.
#[derive(Default)]
struct Ran {
    cells: Vec<CellOut>,
    profiles: Vec<ProfileReport>,
    session: Option<SessionOut>,
}

/// What a set-up leaves behind for the run.
struct Prepared {
    topo: Topology,
    /// The network the run advances (uniform workloads). The runner-
    /// driven workloads build their own; for them the set-up builds
    /// one cell's network the same way and drops it, so `setup_s`
    /// still times `Network::new` and the traffic install.
    net: Option<Network>,
    trace: Option<PathBuf>,
}

fn durations(warmup_us: u64, measure_us: u64) -> RunDurations {
    RunDurations {
        warmup: TimeDelta::from_us(warmup_us),
        measure: TimeDelta::from_us(measure_us),
    }
}

fn silent_roles(nodes: usize, hotspots: usize) -> RoleSpec {
    RoleSpec {
        num_nodes: nodes,
        num_hotspots: hotspots,
        b_pct: 0,
        b_p: 0,
        c_pct_of_rest: 80,
    }
}

impl Ctx {
    fn cfg(&self, cc: bool) -> NetConfig {
        let cfg = if cc {
            NetConfig::paper()
        } else {
            NetConfig::paper_no_cc()
        };
        cfg.with_seed(self.seed)
    }

    /// Seed of `silent648`'s `i`-th placement; the first is `--seed`.
    fn placement_seed(&self, i: u64) -> u64 {
        self.seed
            .wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    fn trace_spec(&self) -> TraceGenSpec {
        let mut spec = TraceGenSpec::uniform_load(
            self.scale.small.num_hosts() as u32,
            self.scale.trace_records,
            PAPER_MSG_BYTES,
            13.5,
            50,
        );
        spec.seed = self.seed ^ 0x7AACE;
        spec
    }

    /// The silent cell of `quick72_session`'s ckpt and observed stages.
    fn session_cell(&self) -> (RoleSpec, RunDurations) {
        let s = self.scale;
        (
            silent_roles(s.small.num_hosts(), s.small_hotspots),
            durations(s.cell_warmup_us, s.cell_measure_us),
        )
    }

    /// Everything up to the first `run_until`.
    fn prepare(&self, sp: &mut Spans, kind: Kind, obs: Observe) -> Prepared {
        let s = self.scale;
        sp.enter("setup");
        let spec = match kind {
            Kind::Quick72Session => s.small,
            _ => s.big,
        };
        let topo = sp.scope("topo.build", || spec.build());
        let mut prepared = Prepared {
            topo,
            net: None,
            trace: None,
        };
        let topo = &prepared.topo;
        let scratch_roles = match kind {
            Kind::Uniform648 | Kind::Uniform648S2 => {
                let shards = if kind == Kind::Uniform648S2 { 2 } else { 1 };
                prepared.net = Some(uniform_network(sp, topo, self.cfg(true), shards, obs));
                None
            }
            Kind::Silent648 => Some(silent_roles(topo.num_hcas, s.big_hotspots)),
            Kind::Quick72Session => {
                let path = self.tmp.join("session.ibtr");
                sp.scope("flowtrace.synth", || {
                    synthesize_to(&self.trace_spec(), &path)
                })
                .expect("write the synthesised trace");
                prepared.trace = Some(path);
                Some(self.session_cell().0)
            }
        };
        if let Some(roles) = scratch_roles {
            let cfg = self.cfg(true);
            drop(scenario_network(sp, topo, cfg, roles, Observe::default()));
        }
        sp.exit();
        prepared
    }

    /// One set-up, timed and dropped.
    pub fn setup_only(&self, kind: Kind) -> Spans {
        let mut sp = Spans::new();
        drop(self.prepare(&mut sp, kind, Observe::default()));
        sp
    }

    /// The unobserved silent cell `quick72_session`'s ckpt and observed
    /// stages must reproduce.
    pub fn session_reference(&self) -> CellOut {
        let topo = self.scale.small.build();
        let (roles, dur) = self.session_cell();
        let mut sp = Spans::new();
        hand_scenario(
            &mut sp,
            &topo,
            self.cfg(true),
            roles,
            dur,
            Observe::default(),
        )
    }

    /// One repetition: set-up, run, finish.
    pub fn rep(&self, kind: Kind, mode: Mode) -> RepOut {
        let obs = match mode {
            Mode::Traced => Observe::TRACED,
            _ => Observe::default(),
        };
        let mut sp = Spans::new();
        sp.enter("rep");
        let prepared = self.prepare(&mut sp, kind, obs);
        let mut ran = Ran::default();
        match kind {
            Kind::Silent648 => self.run_silent(&mut sp, &prepared.topo, mode, obs, &mut ran),
            Kind::Uniform648 | Kind::Uniform648S2 => {
                let mut net = prepared.net.expect("uniform set-up builds the network");
                let dur = durations(self.scale.uniform_us / 5, self.scale.uniform_us * 4 / 5);
                let mut depth = Depth::default();
                sp.enter("run");
                run_windows(&mut sp, &mut net, dur, &mut depth);
                sp.exit();
                sp.enter("finish");
                ran.cells
                    .push(finish_cell(&mut sp, &mut net, &[], dur, depth));
                sp.exit();
            }
            Kind::Quick72Session => {
                let trace = prepared.trace.expect("session set-up writes the trace");
                self.run_session(&mut sp, &prepared.topo, &trace, mode, obs, &mut ran)
            }
        }
        let (mut core, mut full) = (Fnv::new(), Fnv::new());
        for cell in &mut ran.cells {
            core.u64(cell.core);
            full.u64(cell.full);
            ran.profiles.extend(cell.profile.take());
        }
        sp.exit();
        RepOut {
            spans: sp,
            core: core.finish(),
            full: full.finish(),
            cells: ran.cells,
            profiles: ran.profiles,
            session: ran.session,
        }
    }

    /// `silent648`: the Table II "hotspots, CC on" cell, once per
    /// placement.
    fn run_silent(&self, sp: &mut Spans, topo: &Topology, mode: Mode, obs: Observe, out: &mut Ran) {
        let roles = silent_roles(topo.num_hcas, self.scale.big_hotspots);
        let dur = durations(self.scale.silent_warmup_us, self.scale.silent_measure_us);
        sp.enter("run");
        for i in 0..self.scale.silent_placements {
            let cfg = NetConfig::paper().with_seed(self.placement_seed(i));
            out.cells.push(match mode {
                Mode::User => runner_scenario(sp, topo, cfg, roles, dur),
                _ => hand_scenario(sp, topo, cfg, roles, dur, obs),
            });
        }
        sp.exit();
    }

    /// `quick72_session`: sweep, ckpt, observed, replay.
    fn run_session(
        &self,
        sp: &mut Spans,
        topo: &Topology,
        trace: &std::path::Path,
        mode: Mode,
        obs: Observe,
        out: &mut Ran,
    ) {
        let s = self.scale;
        let mut session = SessionOut::default();
        sp.enter("run");

        // sweep: windy x = 100 cells, p × CC off/on.
        sp.enter("session.sweep");
        let dur = durations(s.sweep_warmup_us, s.sweep_measure_us);
        let cells: Vec<(RoleSpec, NetConfig)> = s
            .sweep_p
            .iter()
            .flat_map(|&p| [false, true].map(|cc| (p, cc)))
            .map(|(p, cc)| {
                let roles = RoleSpec {
                    b_pct: 100,
                    b_p: p,
                    ..silent_roles(topo.num_hcas, s.small_hotspots)
                };
                (roles, self.cfg(cc))
            })
            .collect();
        if mode == Mode::User {
            let results = sp.scope("runner.sweep", || {
                parallel_map(&cells, 1, |(roles, cfg)| {
                    run_scenario_opts(topo, cfg.clone(), *roles, dur, None, true)
                })
            });
            out.cells
                .extend(results.iter().map(|r| CellOut::from_scenario(r, dur)));
        } else {
            for (roles, cfg) in &cells {
                out.cells
                    .push(hand_scenario(sp, topo, cfg.clone(), *roles, dur, obs));
            }
        }
        sp.exit();

        // ckpt: run to mid-measure, save, load, restore into a fresh
        // network, finish.
        sp.enter("session.ckpt");
        let (roles, dur) = self.session_cell();
        let cell = self.ckpt_stage(sp, topo, roles, dur, obs, out, &mut session);
        session.ckpt_full = cell.full;
        out.cells.push(cell);
        sp.exit();

        // observed: the same cell with every observer on.
        sp.enter("session.observed");
        let everything = Observe::everything(s.audit_every);
        let cell = hand_scenario(sp, topo, self.cfg(true), roles, dur, everything);
        session.observed_full = cell.full;
        out.cells.push(cell);
        sp.exit();

        // replay: the synthesised trace, streamed until it drains.
        sp.enter("session.replay");
        let spec = WorkloadSpec::parse(&format!("trace:{}", trace.display()))
            .expect("a trace: workload string");
        let span_us = (s.trace_records * self.trace_spec().mean_gap_ns).div_ceil(1000);
        let dur = durations(span_us / 10, span_us - span_us / 10);
        let r = sp.scope("runner.workload", || {
            run_workload(topo, self.cfg(true), &spec, dur)
        });
        session.replay_drained = r.drained;
        session.records_fed = r.records_fed;
        out.cells.push(CellOut::from_workload(&r, dur));
        sp.exit();

        sp.exit();
        out.session = Some(session);
    }

    #[allow(clippy::too_many_arguments)]
    fn ckpt_stage(
        &self,
        sp: &mut Spans,
        topo: &Topology,
        roles: RoleSpec,
        dur: RunDurations,
        obs: Observe,
        out: &mut Ran,
        session: &mut SessionOut,
    ) -> CellOut {
        const LABEL: &str = "benchmark-session-ckpt";
        let warm = Time::ZERO + dur.warmup;
        let mid = warm + TimeDelta(dur.measure.as_ps() / 2);
        let mut depth = Depth::default();

        let (mut first, _) = scenario_network(sp, topo, self.cfg(true), roles, obs);
        run_segments(sp, &mut first, Time::ZERO, warm, 1, &mut depth);
        first.start_measurement();
        run_segments(sp, &mut first, warm, mid, 1, &mut depth);
        let state = sp.scope("state.capture", || first.checkpoint());
        drop(std::hint::black_box(state));
        let path = sp.scope("state.save", || ibsim::checkpoint::save(&first, LABEL));
        session.state_bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
        out.profiles.extend(first.profile_report());
        drop(first);

        let (mut second, sc) = scenario_network(sp, topo, self.cfg(true), roles, obs);
        ibsim::checkpoint::force_resume(Some(self.tmp.clone()));
        let loaded = sp.scope("state.load", || ibsim::checkpoint::load_for(&second, LABEL));
        // Off again at once: the runners look for a checkpoint of their
        // own whenever a resume directory is set.
        ibsim::checkpoint::force_resume(None);
        let (_, state) = loaded.expect("the checkpoint saved a moment ago");
        sp.scope("state.restore", || second.restore(&state))
            .expect("restore into an identically configured network");
        run_segments(
            sp,
            &mut second,
            mid,
            Time::ZERO + dur.total(),
            2,
            &mut depth,
        );
        finish_cell(sp, &mut second, &sc.assignment.hotspots, dur, depth)
    }
}
