//! Divergence bisector: find when and where a one-knob CC change first
//! alters simulator state. Runs the preset's silent forest twice per
//! probe — once with the paper's Table I CC parameters, once with one
//! parameter perturbed — and binary-searches checkpoint times for the
//! first window in which the two full state trees differ, reporting the
//! diverging fields as JSON-pointer paths.

use super::{ArgError, Args, Ctx, Job, MAX_US};
use crate::bisect::{bisect_divergence, perturb_cc, render_diff, DEFAULT_IGNORE};
use ibsim_cc::CcParams;
use ibsim_engine::time::{Time, TimeDelta};
use ibsim_net::NetConfig;

/// What `--perturb` takes.
pub(super) const PERTURB: &str = "KEY=VALUE, KEY one of threshold, packet_size, marking_rate, \
                                  ccti_increase, ccti_limit, ccti_min, ccti_timer";

pub(super) fn plan(a: &Args) -> Result<Job, ArgError> {
    let c = Ctx::new(a)?;
    let resolution = TimeDelta::from_us(a.num("resolution-us", 1..=MAX_US)?);
    let perturb = a.text("perturb").unwrap_or_default().to_string();
    let (key, value) = perturb
        .split_once('=')
        .ok_or_else(|| a.bad("perturb", format_args!("wants {PERTURB}")))?;
    let value: u64 = value
        .parse()
        .map_err(|_| a.bad("perturb", format_args!("{key} wants a number")))?;
    let mut cc = c.cfg.cc.clone().unwrap_or_else(CcParams::paper_table1);
    perturb_cc(&mut cc, key, value)
        .and_then(|()| cc.validate())
        .map_err(|e| a.bad("perturb", e))?;
    if c.cfg.cc.as_ref() == Some(&cc) {
        return Err(a.bad("perturb", "equals the baseline value; nothing to bisect"));
    }
    let perturbed = NetConfig {
        cc: Some(cc),
        ..c.cfg.clone()
    };
    Ok(Box::new(move || {
        let horizon = Time::ZERO + c.preset.durations().total();
        eprintln!(
            "bisect: preset={} nodes={} perturb {perturb} horizon={:.1} us resolution={} us",
            c.preset.name(),
            c.topo.num_hcas,
            horizon.as_us_f64(),
            resolution.as_ps() / 1_000_000,
        );
        let roles = c.silent();
        let found = bisect_divergence(
            &c.topo,
            &c.cfg,
            &perturbed,
            roles,
            horizon,
            resolution,
            DEFAULT_IGNORE,
        );
        let Some(d) = found else {
            println!(
                "no divergence: state trees identical over [0, {:.1}] us (perturbation {perturb} is inert here)",
                horizon.as_us_f64()
            );
            return Ok(());
        };
        println!(
            "first divergence in ({:.1}, {:.1}] us ({} probes)",
            d.clean_at.as_us_f64(),
            d.diverged_at.as_us_f64(),
            d.probes
        );
        if let Some(f) = d.first_field() {
            println!("first diverging field: {f}");
        }
        let shown = d.diffs.len().min(20);
        println!(
            "state diff at t={:.1} us ({} of {} fields):",
            d.diverged_at.as_us_f64(),
            shown,
            d.diffs.len()
        );
        print!("{}", render_diff(&d.diffs[..shown]));
        Ok(())
    }))
}
