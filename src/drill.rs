//! Fault drills: run a hotspot scenario with a fault schedule, sample
//! throughput in fixed bins across the fault window, and distil the
//! samples into per-run recovery metrics (time-to-recover, victim
//! floor, CCTI decay) via [`ibsim_faults::RecoveryMetrics`].

use crate::experiment::RunDurations;
use crate::options::{ClockPlan, RunOptions};
use ibsim_engine::time::{Time, TimeDelta};
use ibsim_faults::{FaultStats, RecoveryMetrics, Sample};
use ibsim_net::{AuditReport, FaultSchedule, FlightKind, NetConfig};
use ibsim_topo::Topology;
use ibsim_traffic::{RoleSpec, Scenario};
use serde::Serialize;

/// Everything one drill run reports — serialised as the CI artifact.
#[derive(Clone, Debug, Serialize)]
pub struct DrillReport {
    /// Spec echo: when the first transition fires / the last clears, µs.
    pub fault_start_us: f64,
    pub fault_clear_us: f64,
    /// Per-bin victim (non-hotspot) throughput and worst CCTI.
    pub samples: Vec<Sample>,
    /// The distilled recovery metrics (None when the run ended before a
    /// pre-fault baseline existed).
    pub recovery: Option<RecoveryMetrics>,
    /// What the schedule actually did.
    pub fault_stats: FaultStats,
    /// Sanctioned CNP drops ledgered by the oracle (0 when audit off).
    pub audited_sanctioned_drops: u64,
    /// Unsanctioned violations found by the end-of-run audit pass. The
    /// caller fails the run when this is nonzero.
    pub unsanctioned_violations: usize,
    /// The configured victim-throughput floor (Gbit/s), if any.
    pub floor_gbps: Option<f64>,
    /// Bins whose victim throughput fell below the floor. Each breach
    /// is also recorded in the flight window; the first one dumps it.
    pub floor_breaches: usize,
}

impl RunOptions {
    /// Run `roles` on `topo` for `dur.total()`, with `schedule`
    /// installed, sampling the non-hotspot receive rate every `bin`.
    /// The measurement meters restart per bin, so each [`Sample`] is an
    /// independent window average; warmup bins are sampled too (the
    /// recovery baseline needs pre-fault bins). The audit report is
    /// returned, not raised — callers get the artifact either way.
    ///
    /// With a `floor_gbps`, every bin below it is counted and recorded
    /// as a `FloorBreach` flight event; the first breach dumps the
    /// flight window (events + current metric sample) to
    /// `flight_breach_drill.json` in `out` — the same automatic-dump
    /// contract an unsanctioned audit violation has.
    ///
    /// The per-bin meter restarts are not checkpointable state, so a
    /// drill ignores `checkpoint_at` / `resume_from`; `ibsim faults`
    /// refuses them by name.
    #[allow(clippy::too_many_arguments)]
    pub fn run_drill(
        &self,
        topo: &Topology,
        cfg: NetConfig,
        roles: RoleSpec,
        dur: RunDurations,
        bin: TimeDelta,
        schedule: &FaultSchedule,
        floor_gbps: Option<f64>,
    ) -> (DrillReport, AuditReport) {
        let mut net = self.network(topo, cfg, Some(schedule));
        let sc = Scenario::install_opts(roles, &mut net, ibsim_net::PAPER_MSG_BYTES, true);
        self.trace_hotspots(&mut net, &sc.assignment.hotspots);

        // Every bin is its own measurement window: the step callback
        // closes it, samples, and opens the next.
        let t_end = Time::ZERO + dur.total();
        let plan = ClockPlan {
            step: Some(bin),
            end: t_end,
            ..ClockPlan::default()
        };
        let mut samples: Vec<Sample> = Vec::new();
        let mut floor_breaches = 0usize;
        net.start_measurement();
        self.drive(&mut net, plan, |net, t| {
            net.stop_measurement();
            let s = Sample {
                t_us: t.as_ps() as f64 / 1e6,
                gbps: sc.non_hotspot_avg_rx(net),
                max_ccti: net.max_ccti(),
            };
            if let Some(floor) = floor_gbps.filter(|&floor| s.gbps < floor) {
                floor_breaches += 1;
                let (t_us, gbps) = (s.t_us, s.gbps);
                let note =
                    format!("bin ending {t_us:.0}µs: victims {gbps:.3} Gbit/s < floor {floor:.3}");
                net.flight_note(FlightKind::FloorBreach, "drill", note);
                if floor_breaches == 1 {
                    if let Some(doc) = net.flight_dump_json("drill floor breach") {
                        std::fs::create_dir_all(&self.out).expect("create out dir");
                        std::fs::write(self.out.join("flight_breach_drill.json"), doc)
                            .expect("write breach dump");
                    }
                }
            }
            samples.push(s);
            if t < t_end {
                net.start_measurement();
            }
            true
        });
        let audit = self
            .finish(&mut net, Some("drill"), &sc.assignment.hotspots)
            .audit;

        let (start, clear) = schedule
            .span()
            .map(|(s, c)| (s.as_ps() as f64 / 1e6, c.as_ps() as f64 / 1e6))
            .unwrap_or((0.0, 0.0));
        let recovery = RecoveryMetrics::compute(&samples, start, clear);
        let report = DrillReport {
            fault_start_us: start,
            fault_clear_us: clear,
            samples,
            recovery,
            fault_stats: net.fault_stats().copied().unwrap_or_default(),
            audited_sanctioned_drops: audit.sanctioned_drops,
            unsanctioned_violations: audit.unsanctioned().count(),
            floor_gbps,
            floor_breaches,
        };
        (report, audit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ibsim_topo::FatTreeSpec;

    #[test]
    fn drill_samples_cover_the_run_and_metrics_emerge() {
        let topo = FatTreeSpec::TEST_8.build();
        let schedule =
            FaultSchedule::from_spec("flap:link=hca:2,at=1500us,dur=500us,factor=stall", 7)
                .unwrap();
        let (report, _) = RunOptions::ambient().run_drill(
            &topo,
            NetConfig::paper(),
            RoleSpec::silent(8, 1),
            RunDurations::new_ms(1, 3),
            TimeDelta::from_us(250),
            &schedule,
            None,
        );
        assert_eq!(report.samples.len(), 16, "4 ms / 250 us bins");
        assert!(report.samples.windows(2).all(|w| w[0].t_us < w[1].t_us));
        assert_eq!(report.fault_start_us, 1500.0);
        assert_eq!(report.fault_clear_us, 2000.0);
        let r = report.recovery.expect("6 pre-fault bins exist");
        assert!(r.pre_fault_gbps > 0.0);
        assert!(
            r.floor_gbps < r.pre_fault_gbps,
            "a stalled victim link must dent throughput: floor {} vs pre {}",
            r.floor_gbps,
            r.pre_fault_gbps
        );
        assert_eq!(report.unsanctioned_violations, 0);
    }

    #[test]
    fn floor_breaches_are_counted_per_bin() {
        let topo = FatTreeSpec::TEST_8.build();
        let schedule =
            FaultSchedule::from_spec("flap:link=hca:2,at=400us,dur=200us,factor=stall", 7).unwrap();
        let (report, _) = RunOptions::ambient().run_drill(
            &topo,
            NetConfig::paper(),
            RoleSpec::silent(8, 1),
            RunDurations::new_ms(0, 1),
            TimeDelta::from_us(250),
            &schedule,
            Some(1e6), // unreachable floor: every bin breaches
        );
        assert_eq!(report.floor_gbps, Some(1e6));
        assert_eq!(report.floor_breaches, report.samples.len());
        let (report, _) = RunOptions::ambient().run_drill(
            &topo,
            NetConfig::paper(),
            RoleSpec::silent(8, 1),
            RunDurations::new_ms(0, 1),
            TimeDelta::from_us(250),
            &schedule,
            Some(0.0), // throughput is never negative: no breach
        );
        assert_eq!(report.floor_breaches, 0);
    }

    #[test]
    fn drill_recovers_after_the_flap_clears() {
        let topo = FatTreeSpec::TEST_8.build();
        let schedule =
            FaultSchedule::from_spec("flap:link=hca:2,at=1000us,dur=300us,factor=stall", 7)
                .unwrap();
        let (report, _) = RunOptions::ambient().run_drill(
            &topo,
            NetConfig::paper(),
            RoleSpec::silent(8, 1),
            RunDurations::new_ms(1, 4),
            TimeDelta::from_us(200),
            &schedule,
            None,
        );
        let r = report.recovery.expect("pre-fault bins exist");
        let ttr = r
            .time_to_recover_us
            .expect("throughput must return to 95% of baseline");
        assert!(ttr >= 0.0);
        assert!(r.post_fault_gbps > 0.9 * r.pre_fault_gbps);
    }
}
