//! Parameter search over the CC configuration space — the paper calls
//! identifying Table I "a nontrivial task" (§IV) and "a highly
//! specialized task" (§VI); this command shows why by mapping the
//! trade-off surface and printing its Pareto front.
//!
//! Each candidate (threshold, CCT step, CCTI timer) is scored on the
//! silent-forest scenario along two axes the operator actually cares
//! about: victim recovery (non-hotspot receive rate) and bottleneck
//! utilisation (hotspot receive rate). Dominated candidates are marked.

use super::{csv, f3, sweep, table, threads, ArgError, Args, Ctx, Job};
use crate::report::ascii_table;
use ibsim_cc::{CcParams, Cct, CctShape};

pub(super) fn plan(a: &Args) -> Result<Job, ArgError> {
    let c = Ctx::new(a)?;
    let threads = threads(a)?;
    Ok(Box::new(move || {
        // (threshold, CCT step, CCTI timer)
        let mut candidates = Vec::new();
        for threshold in [3u8, 9, 15] {
            for step in [1u32, 2, 4] {
                for timer in [75u16, 150, 300] {
                    candidates.push((threshold, step, timer));
                }
            }
        }
        c.banner("tune", format_args!("{} candidates", candidates.len()));

        let (roles, dur) = (c.silent(), c.preset.durations());
        let results = sweep(threads, &candidates, |&(threshold, step, timer)| {
            let mut p = CcParams::paper_table1();
            p.threshold = threshold;
            p.ccti_timer = timer;
            p.cct = Cct::populate(128, CctShape::Linear { step });
            let mut cfg = c.cfg.clone();
            cfg.cc = Some(p);
            c.opts.run_scenario(&c.topo, cfg, roles, dur, None, true)
        });

        // Pareto front over (victims ↑, hotspot ↑).
        let dominated: Vec<bool> = results
            .iter()
            .map(|r| {
                results.iter().any(|o| {
                    o.non_hotspot_rx > r.non_hotspot_rx + 1e-9 && o.hotspot_rx > r.hotspot_rx + 1e-9
                })
            })
            .collect();

        // Rows by total throughput, best first.
        let mut order: Vec<usize> = (0..results.len()).collect();
        order.sort_by(|&a, &b| results[b].total_rx.total_cmp(&results[a].total_rx));
        let r = |i: usize| &results[order[i]];
        let (header, rows) = table(
            &[
                ("candidate", &|i| {
                    let (w, step, timer) = candidates[order[i]];
                    format!("w={w} step={step} timer={timer}")
                }),
                ("victims", &|i| f3(r(i).non_hotspot_rx)),
                ("hotspot", &|i| f3(r(i).hotspot_rx)),
                ("total", &|i| f3(r(i).total_rx)),
                ("pareto", &|i| {
                    if dominated[order[i]] { "" } else { "*" }.into()
                }),
                ("note", &|i| match candidates[order[i]] {
                    (15, 1, 150) => "<- Table I".into(),
                    _ => String::new(),
                }),
            ],
            order.len(),
        );
        let shown = ["candidate", "victims", "hotspot", "total", "pareto", ""];
        println!("{}", ascii_table(&shown, &rows));
        let front = dominated.iter().filter(|&&d| !d).count();
        println!(
            "{front} of {} candidates are Pareto-optimal; every one trades victim recovery against\n\
             bottleneck utilisation — there is no free lunch, which is exactly why the paper calls\n\
             CC tuning a specialised task.",
            candidates.len()
        );
        csv(&c.opts.out, "tune.csv", &header, &rows)
    }))
}
