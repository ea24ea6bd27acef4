//! Compiled fault schedules and the runtime fault state machine.
//!
//! [`FaultSchedule::compile`] turns parsed [`FaultDecl`]s into a flat,
//! `(time, seq)`-ordered list of [`TimedFault`] transitions — one *open*
//! and (for windowed faults) one *close* per declaration — that the
//! network schedules verbatim on its event queue. [`FaultState`] is
//! the object the network consults at dispatch time: it resolves link
//! selectors to concrete channel ids once at install time, owns the
//! dedicated RNG stream for probabilistic BECN loss, and accumulates
//! [`FaultStats`] for the run summary.

use crate::spec::{FaultDecl, LinkSel};
use ibsim_engine::rng::Rng;
use ibsim_engine::time::{Time, TimeDelta};
use serde::{Deserialize, Serialize};

/// RNG stream tag for BECN-loss coin flips, derived from the scenario
/// seed. Distinct from every stream id the traffic/topology layers use,
/// so installing a schedule never perturbs their sequences.
const BECN_LOSS_STREAM: u64 = 0xFA17_BEC2;

/// A fault-state transition, resolved to an absolute instant.
#[derive(Clone, Copy, PartialEq, Debug, Serialize)]
pub struct TimedFault {
    /// When the transition fires.
    pub at: Time,
    /// Tie-breaker: transitions at equal times fire in `seq` order.
    pub seq: u32,
    pub action: FaultAction,
}

/// What a [`TimedFault`] does when it fires.
#[derive(Clone, Copy, PartialEq, Debug, Serialize)]
pub enum FaultAction {
    /// A link-degradation window opens on `link` until `until`;
    /// `factor == 0` is a full stall.
    FlapOpen {
        link: LinkSel,
        factor: u32,
        until: Time,
    },
    /// The matching window closes.
    FlapClose { link: LinkSel },
    /// A BECN-loss window opens on `link` until `until`.
    BecnLossOpen {
        link: LinkSel,
        p: f64,
        every: Option<u32>,
        until: Time,
    },
    /// The matching window closes (never emitted for open-ended loss).
    BecnLossClose { link: LinkSel },
    /// Re-tune one CA's CC parameters from here on.
    Drift {
        hca: u32,
        ccti_timer: Option<u16>,
        ccti_increase: Option<u16>,
    },
    /// `hca` stops sinking.
    Pause { hca: u32 },
    /// `hca` resumes sinking.
    Resume { hca: u32 },
}

/// A compiled, sorted fault schedule plus the seed its runtime state
/// will draw from.
#[derive(Clone, Debug, Serialize)]
pub struct FaultSchedule {
    seed: u64,
    faults: Vec<TimedFault>,
}

fn saturating_add(t: Time, d: TimeDelta) -> Time {
    Time(t.as_ps().saturating_add(d.as_ps()))
}

impl FaultSchedule {
    /// Compile declarations into `(time, seq)`-ordered transitions.
    /// Windowed faults always produce a close strictly after their open
    /// (declaration parsing guarantees positive durations).
    pub fn compile(decls: &[FaultDecl], seed: u64) -> FaultSchedule {
        let mut faults = Vec::with_capacity(decls.len() * 2);
        let mut push = |at: Time, action: FaultAction| {
            faults.push(TimedFault { at, seq: 0, action });
        };
        for &decl in decls {
            match decl {
                FaultDecl::Flap {
                    link,
                    at,
                    dur,
                    factor,
                } => {
                    let until = saturating_add(at, dur);
                    push(
                        at,
                        FaultAction::FlapOpen {
                            link,
                            factor,
                            until,
                        },
                    );
                    push(until, FaultAction::FlapClose { link });
                }
                FaultDecl::BecnLoss {
                    link,
                    p,
                    every,
                    from,
                    until,
                } => {
                    push(
                        from,
                        FaultAction::BecnLossOpen {
                            link,
                            p,
                            every,
                            until,
                        },
                    );
                    if until < Time::MAX {
                        push(until, FaultAction::BecnLossClose { link });
                    }
                }
                FaultDecl::Drift {
                    hca,
                    at,
                    ccti_timer,
                    ccti_increase,
                } => push(
                    at,
                    FaultAction::Drift {
                        hca,
                        ccti_timer,
                        ccti_increase,
                    },
                ),
                FaultDecl::Pause { hca, at, dur } => {
                    push(at, FaultAction::Pause { hca });
                    push(saturating_add(at, dur), FaultAction::Resume { hca });
                }
            }
        }
        // Stable sort keeps emission order among equal times (an open
        // emitted before a close at the same instant stays first), then
        // seq is assigned so (at, seq) is strictly increasing.
        faults.sort_by_key(|f| f.at);
        for (i, f) in faults.iter_mut().enumerate() {
            f.seq = i as u32;
        }
        FaultSchedule { seed, faults }
    }

    /// Parse and compile a `--faults` spec string in one step.
    pub fn from_spec(spec: &str, seed: u64) -> Result<FaultSchedule, String> {
        Ok(FaultSchedule::compile(
            &crate::spec::parse_spec(spec)?,
            seed,
        ))
    }

    /// Refuse a selector naming a device a fabric of `hcas` end nodes
    /// and `channels` channels does not have: `Err` names the selector
    /// and the fabric's size. `Network::install_faults` panics on it.
    pub fn check_fabric(&self, hcas: usize, channels: usize) -> Result<(), String> {
        let outside = |what: &str, id: u32, n: usize, of: &str| {
            Err(format!("{what}{id} is outside the fabric's {n} {of}"))
        };
        for f in &self.faults {
            match f.action {
                FaultAction::FlapOpen { link, .. }
                | FaultAction::FlapClose { link }
                | FaultAction::BecnLossOpen { link, .. }
                | FaultAction::BecnLossClose { link } => match link {
                    LinkSel::Hca(h) if h as usize >= hcas => {
                        return outside("hca:", h, hcas, "HCAs")
                    }
                    LinkSel::Channel(c) if c as usize >= channels => {
                        return outside("ch:", c, channels, "channels")
                    }
                    _ => {}
                },
                FaultAction::Drift { hca, .. }
                | FaultAction::Pause { hca }
                | FaultAction::Resume { hca } => {
                    if hca as usize >= hcas {
                        return outside("hca=", hca, hcas, "HCAs");
                    }
                }
            }
        }
        Ok(())
    }

    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    pub fn faults(&self) -> &[TimedFault] {
        &self.faults
    }

    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The `[first onset, last finite transition]` envelope of the
    /// schedule, for recovery-metric windows. `None` when empty.
    pub fn span(&self) -> Option<(Time, Time)> {
        let first = self.faults.first()?.at;
        let last = self
            .faults
            .iter()
            .map(|f| f.at)
            .filter(|&t| t < Time::MAX)
            .max()
            .unwrap_or(first);
        Some((first, last))
    }
}

/// A link-degradation window on one concrete channel.
#[derive(Clone, Copy, Debug)]
struct FlapWindow {
    from: Time,
    until: Time,
    /// Rate divisor; 0 = stall.
    factor: u32,
}

/// A BECN-loss window on one concrete channel.
#[derive(Clone, Debug)]
struct BecnWindow {
    from: Time,
    until: Time,
    p: f64,
    every: Option<u32>,
    /// CNPs seen inside this window, for the `every`-th pattern.
    seen: u64,
}

/// What the network must do when a [`TimedFault`] fires. Flap and
/// BECN-loss windows are consulted lazily by time on the hot paths, so
/// their transitions need no action beyond bookkeeping.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AppliedEffect {
    /// Bookkeeping only.
    None,
    /// Stop sinking at this HCA.
    PauseHca(u32),
    /// Resume sinking at this HCA (restart its drain pipeline).
    ResumeHca(u32),
    /// Re-tune this CA's CC parameters.
    Drift {
        hca: u32,
        ccti_timer: Option<u16>,
        ccti_increase: Option<u16>,
    },
}

/// Counters for the run summary; everything the schedule actually did.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultStats {
    /// CNPs sanctioned-dropped by BECN-loss windows.
    pub becn_dropped: u64,
    /// CNPs that traversed a BECN-loss window and survived the coin.
    pub becn_spared: u64,
    /// Credit returns held to the end of a stall window.
    pub credits_stalled: u64,
    /// Credit returns stretched by a degradation factor.
    pub credits_delayed: u64,
    /// Window/state transitions fired, by family.
    pub flap_transitions: u64,
    pub becn_transitions: u64,
    pub drifts_applied: u64,
    pub pauses: u64,
    pub resumes: u64,
}

/// The mutable runtime state of a [`FaultState`], for checkpointing:
/// per-window CNP counters (flattened in channel-major window order),
/// the BECN-loss RNG stream, and the accumulated statistics. Everything
/// else in a `FaultState` is immutable after install and is rebuilt by
/// reinstalling the same schedule.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct FaultRuntimeState {
    /// `seen` counter of every BECN window, channels in id order.
    pub becn_seen: Vec<u64>,
    /// The xoshiro256** state of the BECN-loss stream.
    pub rng: (u64, u64, u64, u64),
    pub stats: FaultStats,
}

/// Runtime fault state the network consults while dispatching. Built by
/// `Network::install_faults` once selectors can be resolved to channels.
#[derive(Clone, Debug)]
pub struct FaultState {
    schedule: FaultSchedule,
    /// Per-channel degradation windows, indexed by channel id.
    flap: Vec<Vec<FlapWindow>>,
    /// Per-channel BECN-loss windows, indexed by channel id.
    becn: Vec<Vec<BecnWindow>>,
    rng: Rng,
    stats: FaultStats,
}

impl FaultState {
    /// Resolve a schedule against a concrete fabric. `n_channels` sizes
    /// the per-channel tables; `resolve` maps a [`LinkSel`] to the
    /// channel ids it covers (empty if the selector misses — callers
    /// validate selectors before install).
    pub fn new(
        schedule: FaultSchedule,
        n_channels: usize,
        resolve: impl Fn(LinkSel) -> Vec<u32>,
    ) -> FaultState {
        let mut flap: Vec<Vec<FlapWindow>> = vec![Vec::new(); n_channels];
        let mut becn: Vec<Vec<BecnWindow>> = vec![Vec::new(); n_channels];
        for f in &schedule.faults {
            match f.action {
                FaultAction::FlapOpen {
                    link,
                    factor,
                    until,
                } => {
                    for ch in resolve(link) {
                        flap[ch as usize].push(FlapWindow {
                            from: f.at,
                            until,
                            factor,
                        });
                    }
                }
                FaultAction::BecnLossOpen {
                    link,
                    p,
                    every,
                    until,
                } => {
                    for ch in resolve(link) {
                        becn[ch as usize].push(BecnWindow {
                            from: f.at,
                            until,
                            p,
                            every,
                            seen: 0,
                        });
                    }
                }
                _ => {}
            }
        }
        let rng = Rng::derive(schedule.seed, BECN_LOSS_STREAM);
        FaultState {
            schedule,
            flap,
            becn,
            rng,
            stats: FaultStats::default(),
        }
    }

    pub fn schedule(&self) -> &FaultSchedule {
        &self.schedule
    }

    pub fn stats(&self) -> &FaultStats {
        &self.stats
    }

    /// Fire transition `idx` (index into `schedule.faults()`); returns
    /// what the network must do beyond bookkeeping.
    pub fn apply(&mut self, idx: usize) -> AppliedEffect {
        match self.schedule.faults[idx].action {
            FaultAction::FlapOpen { .. } | FaultAction::FlapClose { .. } => {
                self.stats.flap_transitions += 1;
                AppliedEffect::None
            }
            FaultAction::BecnLossOpen { .. } | FaultAction::BecnLossClose { .. } => {
                self.stats.becn_transitions += 1;
                AppliedEffect::None
            }
            FaultAction::Drift {
                hca,
                ccti_timer,
                ccti_increase,
            } => {
                self.stats.drifts_applied += 1;
                AppliedEffect::Drift {
                    hca,
                    ccti_timer,
                    ccti_increase,
                }
            }
            FaultAction::Pause { hca } => {
                self.stats.pauses += 1;
                AppliedEffect::PauseHca(hca)
            }
            FaultAction::Resume { hca } => {
                self.stats.resumes += 1;
                AppliedEffect::ResumeHca(hca)
            }
        }
    }

    /// When should a credit scheduled for release at `at` on channel
    /// `ch` actually be released? `base_tx` is the serialisation time of
    /// the blocks being credited at the link's healthy rate.
    ///
    /// Stall windows hold the credit to the latest covering window end
    /// (a downed link returns nothing); degradation windows stretch the
    /// release by `(factor - 1) · base_tx` — the extra serialisation
    /// time at the degraded rate. Losslessness is untouched: credits
    /// are delayed, never dropped.
    pub fn credit_release(&mut self, ch: u32, at: Time, base_tx: TimeDelta) -> Time {
        let ws = &self.flap[ch as usize];
        if ws.is_empty() {
            return at;
        }
        let mut t = at;
        // Hop out of stall windows until none covers t. Terminates:
        // every hop lands on some window's finite `until`, strictly
        // later than t.
        while let Some(until) = ws
            .iter()
            .filter(|w| w.factor == 0 && w.from <= t && t < w.until)
            .map(|w| w.until)
            .max()
        {
            t = until;
        }
        // Overlapping degradations compose by the slowest surviving
        // rate: the largest active divisor wins.
        let factor = ws
            .iter()
            .filter(|w| w.factor > 1 && w.from <= t && t < w.until)
            .map(|w| w.factor)
            .max();
        if let Some(f) = factor {
            t = saturating_add(t, base_tx.saturating_mul((f - 1) as u64));
            self.stats.credits_delayed += 1;
        } else if t != at {
            self.stats.credits_stalled += 1;
        }
        t
    }

    /// The mutable runtime state of this fault machine (checkpointing).
    /// The schedule itself and the resolved windows are *not* included:
    /// they are immutable after install, so a restore reinstalls the
    /// same schedule and overlays this on top.
    pub fn runtime_state(&self) -> FaultRuntimeState {
        FaultRuntimeState {
            becn_seen: self
                .becn
                .iter()
                .flat_map(|ws| ws.iter().map(|w| w.seen))
                .collect(),
            rng: {
                let s = self.rng.state();
                (s[0], s[1], s[2], s[3])
            },
            stats: self.stats,
        }
    }

    /// Overlay a previously captured [`FaultRuntimeState`] onto this
    /// (freshly installed, identical) fault machine. Fails when the
    /// BECN-window count differs — that means the schedule or the
    /// fabric it was resolved against is not the one checkpointed.
    pub fn restore_runtime_state(&mut self, s: &FaultRuntimeState) -> Result<(), String> {
        let n_windows: usize = self.becn.iter().map(|ws| ws.len()).sum();
        if n_windows != s.becn_seen.len() {
            return Err(format!(
                "fault schedule has {n_windows} BECN windows but the checkpoint recorded {}",
                s.becn_seen.len()
            ));
        }
        let mut it = s.becn_seen.iter();
        for ws in &mut self.becn {
            for w in ws {
                w.seen = *it.next().expect("count checked above");
            }
        }
        self.rng = Rng::from_state([s.rng.0, s.rng.1, s.rng.2, s.rng.3]);
        self.stats = s.stats;
        Ok(())
    }

    /// Should a CNP arriving on channel `ch` at `now` be (sanctioned-)
    /// dropped? Draws from the dedicated RNG stream only inside an
    /// active window, so a schedule whose windows are never hit makes
    /// no draws at all.
    pub fn drop_becn(&mut self, ch: u32, now: Time) -> bool {
        for w in &mut self.becn[ch as usize] {
            if w.from <= now && now < w.until {
                w.seen += 1;
                let drop = match w.every {
                    Some(n) => w.seen % n as u64 == 0,
                    None => self.rng.next_bool(w.p),
                };
                if drop {
                    self.stats.becn_dropped += 1;
                } else {
                    self.stats.becn_spared += 1;
                }
                return drop;
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::parse_spec;

    fn one_to_one(sel: LinkSel) -> Vec<u32> {
        match sel {
            LinkSel::Channel(c) => vec![c],
            LinkSel::Hca(h) => vec![h * 2, h * 2 + 1],
            LinkSel::AllHcaLinks => vec![0, 1, 2, 3],
        }
    }

    fn state(spec: &str, seed: u64) -> FaultState {
        let sched = FaultSchedule::from_spec(spec, seed).unwrap();
        FaultState::new(sched, 8, one_to_one)
    }

    #[test]
    fn compile_orders_and_pairs_transitions() {
        let decls = parse_spec(
            "flap:link=ch:1,at=3ms,dur=1ms,factor=2;\
             pause:hca=0,at=1ms,dur=5ms;\
             becnloss:link=ch:2,p=0.5,from=2ms,until=4ms",
        )
        .unwrap();
        let sched = FaultSchedule::compile(&decls, 7);
        let times: Vec<u64> = sched.faults().iter().map(|f| f.at.as_ps()).collect();
        let mut sorted = times.clone();
        sorted.sort_unstable();
        assert_eq!(times, sorted, "transitions must be time-ordered");
        let seqs: Vec<u32> = sched.faults().iter().map(|f| f.seq).collect();
        assert_eq!(seqs, (0..6).collect::<Vec<_>>());
        assert_eq!(
            sched.span(),
            Some((Time::from_ms(1), Time::from_ms(6))),
            "span covers pause onset through pause end"
        );
    }

    #[test]
    fn selectors_outside_the_fabric_are_named() {
        for (spec, named) in [
            (
                "flap:link=ch:8,at=1us,dur=1us,factor=0",
                "ch:8 is outside the fabric's 8 channels",
            ),
            (
                "becnloss:link=hca:4,p=1",
                "hca:4 is outside the fabric's 4 HCAs",
            ),
            (
                "pause:hca=4,at=1us,dur=1us",
                "hca=4 is outside the fabric's 4 HCAs",
            ),
            (
                "drift:hca=9,at=1us,ccti_timer=5",
                "hca=9 is outside the fabric's 4 HCAs",
            ),
        ] {
            let sched = FaultSchedule::from_spec(spec, 0).unwrap();
            assert_eq!(sched.check_fabric(4, 8), Err(named.to_string()), "{spec}");
        }
        let inside = "flap:link=ch:7,at=1us,dur=1us,factor=0;pause:hca=3,at=1us,dur=1us;\
                      becnloss:link=hcas,p=1";
        assert_eq!(
            FaultSchedule::from_spec(inside, 0)
                .unwrap()
                .check_fabric(4, 8),
            Ok(())
        );
    }

    #[test]
    fn open_ended_becnloss_has_no_close() {
        let sched = FaultSchedule::from_spec("becnloss:link=ch:0,p=1.0", 0).unwrap();
        assert_eq!(sched.faults().len(), 1);
        assert!(matches!(
            sched.faults()[0].action,
            FaultAction::BecnLossOpen {
                until: Time::MAX,
                ..
            }
        ));
    }

    #[test]
    fn stall_holds_credits_to_window_end() {
        let mut st = state("flap:link=ch:3,at=1ms,dur=2ms,factor=stall", 1);
        let base = TimeDelta::from_ns(100);
        // Before the window: untouched.
        assert_eq!(
            st.credit_release(3, Time::from_us(500), base),
            Time::from_us(500)
        );
        // Inside: held to the end.
        assert_eq!(
            st.credit_release(3, Time::from_ms(2), base),
            Time::from_ms(3)
        );
        // After: untouched. Other channels: untouched.
        assert_eq!(
            st.credit_release(3, Time::from_ms(3), base),
            Time::from_ms(3)
        );
        assert_eq!(
            st.credit_release(4, Time::from_ms(2), base),
            Time::from_ms(2)
        );
        assert_eq!(st.stats().credits_stalled, 1);
    }

    #[test]
    fn degradation_stretches_by_factor_minus_one() {
        let mut st = state("flap:link=ch:0,at=1ms,dur=1ms,factor=4", 1);
        let base = TimeDelta::from_ns(100);
        let rel = st.credit_release(0, Time::from_ms(1), base);
        assert_eq!(rel, Time::from_ms(1) + base.saturating_mul(3));
        assert_eq!(st.stats().credits_delayed, 1);
    }

    #[test]
    fn overlapping_flaps_compose_to_the_slowest() {
        // A factor-2 window overlapping a factor-8 window: the slower
        // (larger divisor) wins while both are active.
        let mut st = state(
            "flap:link=ch:0,at=1ms,dur=4ms,factor=2;\
             flap:link=ch:0,at=2ms,dur=1ms,factor=8",
            1,
        );
        let base = TimeDelta::from_ns(100);
        assert_eq!(
            st.credit_release(0, Time::from_ms(2), base),
            Time::from_ms(2) + base.saturating_mul(7)
        );
        assert_eq!(
            st.credit_release(0, Time::from_ms(4), base),
            Time::from_ms(4) + base.saturating_mul(1)
        );
    }

    #[test]
    fn stall_then_degradation_applies_both() {
        // A stall inside a longer degradation window: the credit is
        // held to the stall end, then still serialises at the degraded
        // rate there.
        let mut st = state(
            "flap:link=ch:0,at=1ms,dur=4ms,factor=3;\
             flap:link=ch:0,at=2ms,dur=1ms,factor=stall",
            1,
        );
        let base = TimeDelta::from_ns(100);
        assert_eq!(
            st.credit_release(0, Time(Time::from_ms(2).as_ps() + 5), base),
            Time::from_ms(3) + base.saturating_mul(2)
        );
    }

    #[test]
    fn every_nth_becn_drop_is_deterministic() {
        let mut st = state("becnloss:link=ch:1,every=3", 9);
        let drops: Vec<bool> = (0..9)
            .map(|i| st.drop_becn(1, Time::from_us(i + 1)))
            .collect();
        assert_eq!(
            drops,
            vec![false, false, true, false, false, true, false, false, true]
        );
        assert_eq!(st.stats().becn_dropped, 3);
        assert_eq!(st.stats().becn_spared, 6);
        // A channel with no window never drops.
        assert!(!st.drop_becn(0, Time::from_us(1)));
    }

    #[test]
    fn probabilistic_drop_replays_identically_and_respects_window() {
        let spec = "becnloss:link=ch:2,p=0.5,from=1ms,until=2ms";
        let run = |seed| {
            let mut st = state(spec, seed);
            (0..200)
                .map(|i| st.drop_becn(2, Time(Time::from_ms(1).as_ps() + i * 1000)))
                .collect::<Vec<bool>>()
        };
        assert_eq!(run(42), run(42), "same seed must replay identically");
        assert_ne!(run(42), run(43), "different seeds should differ");
        let mut st = state(spec, 42);
        assert!(!st.drop_becn(2, Time::from_us(999)), "before window");
        assert!(!st.drop_becn(2, Time::from_ms(2)), "at window close");
        assert_eq!(st.stats().becn_dropped + st.stats().becn_spared, 0);
    }

    #[test]
    fn apply_returns_the_right_effects() {
        let mut st = state(
            "pause:hca=2,at=1ms,dur=1ms;drift:hca=1,at=3ms,ccti_timer=20",
            0,
        );
        let effects: Vec<AppliedEffect> = (0..st.schedule().faults().len())
            .map(|i| st.apply(i))
            .collect();
        assert_eq!(
            effects,
            vec![
                AppliedEffect::PauseHca(2),
                AppliedEffect::ResumeHca(2),
                AppliedEffect::Drift {
                    hca: 1,
                    ccti_timer: Some(20),
                    ccti_increase: None
                },
            ]
        );
        assert_eq!(st.stats().pauses, 1);
        assert_eq!(st.stats().resumes, 1);
        assert_eq!(st.stats().drifts_applied, 1);
    }

    #[test]
    fn flap_lands_on_its_channels_only() {
        let st = state("flap:link=hca:1,at=1ms,dur=1ms,factor=2", 0);
        // hca:1 resolves to channels 2 and 3 under the test resolver.
        let flapped = |ch: usize| !st.flap[ch].is_empty();
        assert!(flapped(2) && flapped(3));
        assert!(!flapped(0));
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    /// Strategy: one arbitrary (possibly degenerate) declaration, built
    /// from raw draws so every branch of the compiler gets exercised.
    fn decl_from(raw: (u8, u32, u64, u64, u32, u64)) -> FaultDecl {
        let (kind, link_raw, at_us, dur_us, factor, aux) = raw;
        let link = match link_raw % 3 {
            0 => LinkSel::Channel(link_raw % 8),
            1 => LinkSel::Hca(link_raw % 4),
            _ => LinkSel::AllHcaLinks,
        };
        let at = Time::from_us(at_us % 10_000);
        let dur = TimeDelta::from_us(dur_us % 5_000 + 1);
        match kind % 4 {
            0 => FaultDecl::Flap {
                link,
                at,
                dur,
                factor: factor % 9, // 0 (stall) ..= 8
            },
            1 => FaultDecl::BecnLoss {
                link,
                p: (aux % 101) as f64 / 100.0,
                every: if aux % 3 == 0 {
                    Some(aux as u32 % 7 + 1)
                } else {
                    None
                },
                from: at,
                until: if aux % 5 == 0 { Time::MAX } else { at + dur },
            },
            2 => FaultDecl::Drift {
                hca: link_raw % 4,
                at,
                ccti_timer: Some((aux % 300 + 1) as u16),
                ccti_increase: Some((aux % 16) as u16),
            },
            _ => FaultDecl::Pause {
                hca: link_raw % 4,
                at,
                dur,
            },
        }
    }

    fn resolver(sel: LinkSel) -> Vec<u32> {
        match sel {
            LinkSel::Channel(c) => vec![c % 8],
            LinkSel::Hca(h) => vec![(h * 2) % 8, (h * 2 + 1) % 8],
            LinkSel::AllHcaLinks => vec![0, 1, 2, 3, 4, 5, 6, 7],
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Compiled transitions fire in strictly increasing (time, seq)
        /// order, and every windowed open has a close strictly after it.
        #[test]
        fn schedules_are_ordered_and_windows_close_after_open(
            raws in prop::collection::vec(
                (0u8..=255, 0u32..1000, 0u64..20_000, 0u64..10_000, 0u32..20, 0u64..1000),
                0..12,
            ),
            seed: u64,
        ) {
            let decls: Vec<FaultDecl> = raws.into_iter().map(decl_from).collect();
            let sched = FaultSchedule::compile(&decls, seed);
            let fs = sched.faults();
            for w in fs.windows(2) {
                prop_assert!(
                    (w[0].at, w[0].seq) < (w[1].at, w[1].seq),
                    "not (time, seq)-ordered: {:?} then {:?}", w[0], w[1]
                );
            }
            for (i, f) in fs.iter().enumerate() {
                match f.action {
                    FaultAction::FlapOpen { link, until, .. } => {
                        prop_assert!(until > f.at || until == Time::MAX);
                        prop_assert!(
                            fs[i + 1..].iter().any(|g| g.action
                                == FaultAction::FlapClose { link } && g.at == until),
                            "flap open at {:?} lacks a close at {until:?}", f.at
                        );
                    }
                    FaultAction::Pause { hca } => {
                        prop_assert!(
                            fs[i + 1..].iter().any(|g| matches!(
                                g.action, FaultAction::Resume { hca: h } if h == hca
                            )),
                            "pause of hca {hca} never resumes"
                        );
                    }
                    FaultAction::BecnLossOpen { link, until, .. } if until < Time::MAX => {
                        prop_assert!(
                            fs[i + 1..].iter().any(|g| g.action
                                == FaultAction::BecnLossClose { link } && g.at == until),
                            "becnloss open lacks its close"
                        );
                    }
                    _ => {}
                }
            }
            // Compilation is deterministic: same decls + seed, same schedule.
            let again = FaultSchedule::compile(&decls, seed);
            prop_assert_eq!(sched.faults(), again.faults());
        }

        /// Overlapping flaps compose sanely: a release is never earlier
        /// than asked, never lands inside a stall window, and matches
        /// the largest active divisor at the resolved instant.
        #[test]
        fn flap_composition_is_sane(
            raws in prop::collection::vec(
                // All flaps (kind forced to 0 below) on a small channel set.
                (0u32..6, 0u64..5_000, 1u64..3_000, 0u32..5),
                1..8,
            ),
            asks in prop::collection::vec((0u32..8, 0u64..12_000), 1..16),
            seed: u64,
        ) {
            let decls: Vec<FaultDecl> = raws
                .iter()
                .map(|&(ch, at, dur, factor)| FaultDecl::Flap {
                    link: LinkSel::Channel(ch),
                    at: Time::from_us(at),
                    dur: TimeDelta::from_us(dur),
                    factor,
                })
                .collect();
            let sched = FaultSchedule::compile(&decls, seed);
            let mut st = FaultState::new(sched, 8, resolver);
            let base = TimeDelta::from_ns(100);
            for &(ch, at_us) in &asks {
                let at = Time::from_us(at_us);
                let rel = st.credit_release(ch, at, base);
                prop_assert!(rel >= at, "release {rel:?} before ask {at:?}");
                // The release instant must be outside every stall window.
                for &(wch, wat, wdur, wf) in &raws {
                    if wch % 8 == ch && wf == 0 {
                        let (from, until) = (Time::from_us(wat), Time::from_us(wat + wdur));
                        prop_assert!(
                            !(from <= rel && rel < until),
                            "release {rel:?} inside stall [{from:?}, {until:?})"
                        );
                    }
                }
            }
        }

        /// BECN-loss replays identically for one seed, and p=0 / p=1
        /// windows behave like constants.
        #[test]
        fn becn_loss_is_deterministic_and_edge_exact(
            seed: u64,
            p_raw in 0u32..=100,
            n in 1u64..64,
        ) {
            let p = p_raw as f64 / 100.0;
            let decls = [FaultDecl::BecnLoss {
                link: LinkSel::Channel(0),
                p,
                every: None,
                from: Time::ZERO,
                until: Time::MAX,
            }];
            let mk = || {
                FaultState::new(FaultSchedule::compile(&decls, seed), 1, resolver)
            };
            let (mut a, mut b) = (mk(), mk());
            for i in 0..n {
                let t = Time::from_us(i);
                let (da, db) = (a.drop_becn(0, t), b.drop_becn(0, t));
                prop_assert_eq!(da, db, "replay diverged at draw {}", i);
                if p == 0.0 {
                    prop_assert!(!da, "p=0 must never drop");
                }
                if p == 1.0 {
                    prop_assert!(da, "p=1 must always drop");
                }
            }
            prop_assert_eq!(a.stats().becn_dropped + a.stats().becn_spared, n);
        }
    }
}
