//! Ablation studies over the design choices DESIGN.md calls out: sweep
//! one CC or model parameter on the silent-forest scenario and report
//! the effect on victims, hotspots and total throughput.

use super::{csv, f2, f3, json, sweep, table, threads, ArgError, Args, Ctx, Job};
use crate::report::ascii_table;
use ibsim_cc::{CcMode, CcParams, Cct, CctShape};
use ibsim_net::NetConfig;

/// The `--param` values.
pub(super) const PARAMS: &str =
    "threshold|marking-rate|cct-step|cct-shape|timer|mode|buffer|detect";

/// The cells of one `--param` sweep, each a label and the config it
/// runs; `None` for an unknown parameter.
fn cells_for(param: &str, base: &NetConfig) -> Option<Vec<(String, NetConfig)>> {
    // Table I with one change.
    let cc = |label: String, f: &dyn Fn(&mut CcParams)| {
        let mut p = CcParams::paper_table1();
        f(&mut p);
        (
            label,
            NetConfig {
                cc: Some(p),
                ..base.clone()
            },
        )
    };
    let linear = |step| Cct::populate(128, CctShape::Linear { step });
    Some(match param {
        "threshold" => (1..=15)
            .step_by(2)
            .map(|w| cc(format!("threshold={w}"), &|p| p.threshold = w))
            .collect(),
        "marking-rate" => [0u16, 1, 3, 7, 15, 31]
            .map(|m| cc(format!("marking_rate={m}"), &|p| p.marking_rate = m))
            .into(),
        "cct-step" => [1u32, 2, 4, 8]
            .map(|s| cc(format!("cct_step={s}"), &|p| p.cct = linear(s)))
            .into(),
        "cct-shape" => vec![
            cc("linear(step=1)".into(), &|p| p.cct = linear(1)),
            cc("exponential(1.1,cap 512)".into(), &|p| {
                let shape = CctShape::Exponential {
                    base: 1.1,
                    max: 512,
                };
                p.cct = Cct::populate(128, shape)
            }),
        ],
        "timer" => [38u16, 75, 150, 300, 600]
            .map(|t| {
                let label = format!("ccti_timer={t} ({:.1}us)", t as f64 * 1.024);
                cc(label, &|p| p.ccti_timer = t)
            })
            .into(),
        "mode" => vec![
            cc("QP-level".into(), &|p| p.mode = CcMode::QueuePair),
            cc("SL-level".into(), &|p| p.mode = CcMode::ServiceLevel),
        ],
        "buffer" => [256u32, 512, 1024, 2048]
            .map(|b| {
                let cfg = NetConfig {
                    switch_ibuf_blocks: b,
                    hca_ibuf_blocks: b,
                    ..base.clone()
                };
                (format!("ibuf={}KiB/VL", b / 16), cfg)
            })
            .into(),
        "detect" => [128u64, 256, 512, 1024]
            .map(|k| {
                let cfg = NetConfig {
                    cc_detect_capacity: k * 1024,
                    ..base.clone()
                };
                (format!("detect={k}KiB (th={}KiB)", k / 16), cfg)
            })
            .into(),
        _ => return None,
    })
}

pub(super) fn plan(a: &Args) -> Result<Job, ArgError> {
    let c = Ctx::new(a)?;
    let threads = threads(a)?;
    let param = a.text("param").unwrap_or_default().to_string();
    let cells = cells_for(&param, &c.cfg)
        .ok_or_else(|| a.bad("param", format_args!("wants one of {PARAMS}")))?;
    Ok(Box::new(move || {
        c.banner(
            "ablation",
            format_args!("over {param}, {} cells", cells.len()),
        );
        let (roles, dur) = (c.silent(), c.preset.durations());
        let results = sweep(threads, &cells, |(_, cfg)| {
            c.opts
                .run_scenario(&c.topo, cfg.clone(), roles, dur, None, true)
        });

        let (header, rows) = table(
            &[
                ("setting", &|i| cells[i].0.clone()),
                ("non-hs rx", &|i| f3(results[i].non_hotspot_rx)),
                ("hs rx", &|i| f3(results[i].hotspot_rx)),
                ("total", &|i| f2(results[i].total_rx)),
                ("fecn marks", &|i| results[i].fecn_marks.to_string()),
                ("max ccti", &|i| results[i].max_ccti.to_string()),
            ],
            cells.len(),
        );
        println!("{}", ascii_table(&header, &rows));

        let (header, rows) = table(
            &[
                ("setting", &|i| cells[i].0.clone()),
                ("nonhs_rx", &|i| f3(results[i].non_hotspot_rx)),
                ("hs_rx", &|i| f3(results[i].hotspot_rx)),
                ("total_rx", &|i| f3(results[i].total_rx)),
                ("fecn", &|i| results[i].fecn_marks.to_string()),
                ("becn", &|i| results[i].becns.to_string()),
                ("max_ccti", &|i| results[i].max_ccti.to_string()),
            ],
            cells.len(),
        );
        let out = &c.opts.out;
        csv(out, &format!("ablation_{param}.csv"), &header, &rows)?;
        json(out, &format!("ablation_{param}.json"), &results)
    }))
}
