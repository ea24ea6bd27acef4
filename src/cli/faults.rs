//! Fault drill: inject a deterministic fault schedule into a silent
//! hotspot run, sample victim throughput across the fault window, and
//! report recovery metrics (time-to-recover, throughput floor, CCTI
//! decay) as `faults_recovery.json` — the artifact the CI faults leg
//! archives.
//!
//! Without `--faults` the canonical drill runs: a full stall of one
//! victim link for 1 ms mid-measurement, plus a 25 % BECN-loss window
//! over every HCA link for the same millisecond. The job fails if the
//! end-of-run audit finds any *unsanctioned* violation; sanctioned BECN
//! drops are expected and merely ledgered.

use super::{f2, f3, json, table, ArgError, Args, Ctx, Job, MAX_US};
use crate::report::ascii_table;
use ibsim_engine::time::TimeDelta;

/// One stalled victim link plus lossy BECN delivery, both clearing
/// 1 ms before the run ends so recovery is observable.
pub(super) const DEFAULT_SPEC: &str = "flap:link=hca:1,at=3ms,dur=1ms,factor=stall;\
                                       becnloss:link=hcas,p=0.25,from=3ms,until=4ms";

pub(super) fn plan(a: &Args) -> Result<Job, ArgError> {
    let mut c = Ctx::new(a)?;
    // The drill's per-bin meter restarts are not checkpointable state.
    c.opts = c
        .opts
        .without(&["checkpoint_at", "resume_from"], "the fault drill")?;
    let spec = a.text("faults").unwrap_or_default().to_string();
    let schedule = a
        .faults(c.seed, &c.topo)?
        .ok_or_else(|| a.bad("faults", "wants a fault schedule"))?;
    let bin = TimeDelta::from_us(a.num("bin-us", 1..=MAX_US)?);
    // Optional victim-throughput floor: every bin below it is counted,
    // flight-recorded, and (first breach) dumps the flight window.
    let floor = if a.given("floor") {
        Some(a.num("floor", 0.0..=f64::INFINITY)?)
    } else {
        None
    };
    Ok(Box::new(move || {
        let bin_us = bin.as_ps() / 1_000_000;
        c.banner("faults", format_args!("spec={spec:?} bin={bin_us}us"));
        let (roles, dur) = (c.silent(), c.preset.durations());
        let (report, audit) =
            c.opts
                .run_drill(&c.topo, c.cfg.clone(), roles, dur, bin, &schedule, floor);

        let s = &report.samples;
        let phase = |t| match t {
            t if t <= report.fault_start_us => "pre",
            t if t <= report.fault_clear_us => "fault",
            _ => "post",
        };
        let (header, rows) = table(
            &[
                ("t (us)", &|i| f2(s[i].t_us)),
                ("victim rx (Gbit/s)", &|i| f3(s[i].gbps)),
                ("max CCTI", &|i| s[i].max_ccti.to_string()),
                ("phase", &|i| phase(s[i].t_us).into()),
            ],
            s.len(),
        );
        println!("{}", ascii_table(&header, &rows));

        let us = |t: Option<f64>| t.map_or("not reached in window".into(), |t| f2(t) + " us");
        match &report.recovery {
            Some(r) => {
                println!("pre-fault victim rx : {} Gbit/s", f3(r.pre_fault_gbps));
                println!("floor during fault  : {} Gbit/s", f3(r.floor_gbps));
                println!("post-fault victim rx: {} Gbit/s", f3(r.post_fault_gbps));
                println!("time to 95% recovery: {}", us(r.time_to_recover_us));
                let (pre, at_clear) = (r.ccti_pre_fault, r.ccti_at_clear);
                println!("CCTI pre/at-clear   : {pre} / {at_clear}");
                println!("CCTI decay to pre   : {}", us(r.ccti_decay_us));
            }
            None => println!("no pre-fault bins — recovery metrics unavailable"),
        }
        println!(
            "schedule effects: {} CNPs dropped, {} spared, {} credit returns stalled, {} delayed",
            report.fault_stats.becn_dropped,
            report.fault_stats.becn_spared,
            report.fault_stats.credits_stalled,
            report.fault_stats.credits_delayed,
        );

        json(&c.opts.out, "faults_recovery.json", &report)?;
        if let Some(f) = report.floor_gbps {
            eprintln!(
                "floor {} Gbit/s: {} breach(es) across {} bins",
                f2(f),
                report.floor_breaches,
                report.samples.len()
            );
        }
        if report.unsanctioned_violations > 0 {
            eprintln!("{}", audit.render());
            return Err(format!(
                "{} unsanctioned violation(s) — the fault schedule only \
                 sanctions BECN drops; anything else is a real bug",
                report.unsanctioned_violations
            ));
        }
        eprintln!(
            "audit: clean ({} sanctioned BECN drops ledgered)",
            report.audited_sanctioned_drops
        );
        Ok(())
    }))
}
