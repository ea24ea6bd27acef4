//! Ablation studies over the design choices DESIGN.md calls out:
//! sweep one CC or model parameter on the silent-forest scenario and
//! report the effect on victims, hotspots and total throughput.
//!
//! ```text
//! cargo run --release -p ibsim-experiments --bin ablation -- --param threshold
//! cargo run --release -p ibsim-experiments --bin ablation -- --param marking-rate
//! cargo run --release -p ibsim-experiments --bin ablation -- --param cct-step
//! cargo run --release -p ibsim-experiments --bin ablation -- --param cct-shape
//! cargo run --release -p ibsim-experiments --bin ablation -- --param timer
//! cargo run --release -p ibsim-experiments --bin ablation -- --param mode
//! cargo run --release -p ibsim-experiments --bin ablation -- --param buffer
//! ```

use ibsim::prelude::*;
use ibsim_experiments::{f2, f3, Args};

/// One ablation cell: a label plus the config it produces.
struct Cell {
    label: String,
    cfg: NetConfig,
}

fn cells_for(param: &str, base: &NetConfig) -> Vec<Cell> {
    let with_cc = |f: &dyn Fn(&mut CcParams)| -> NetConfig {
        let mut c = base.clone();
        let mut p = CcParams::paper_table1();
        f(&mut p);
        c.cc = Some(p);
        c
    };
    match param {
        "threshold" => (1..=15)
            .step_by(2)
            .map(|w| Cell {
                label: format!("threshold={w}"),
                cfg: with_cc(&|p| p.threshold = w),
            })
            .collect(),
        "marking-rate" => [0u16, 1, 3, 7, 15, 31]
            .into_iter()
            .map(|m| Cell {
                label: format!("marking_rate={m}"),
                cfg: with_cc(&|p| p.marking_rate = m),
            })
            .collect(),
        "cct-step" => [1u32, 2, 4, 8]
            .into_iter()
            .map(|s| Cell {
                label: format!("cct_step={s}"),
                cfg: with_cc(&|p| p.cct = Cct::populate(128, CctShape::Linear { step: s })),
            })
            .collect(),
        "cct-shape" => vec![
            Cell {
                label: "linear(step=1)".into(),
                cfg: with_cc(&|p| p.cct = Cct::populate(128, CctShape::Linear { step: 1 })),
            },
            Cell {
                label: "exponential(1.1,cap 512)".into(),
                cfg: with_cc(&|p| {
                    p.cct = Cct::populate(
                        128,
                        CctShape::Exponential {
                            base: 1.1,
                            max: 512,
                        },
                    )
                }),
            },
        ],
        "timer" => [38u16, 75, 150, 300, 600]
            .into_iter()
            .map(|t| Cell {
                label: format!("ccti_timer={t} ({:.1}us)", t as f64 * 1.024),
                cfg: with_cc(&|p| p.ccti_timer = t),
            })
            .collect(),
        "mode" => vec![
            Cell {
                label: "QP-level".into(),
                cfg: with_cc(&|p| p.mode = CcMode::QueuePair),
            },
            Cell {
                label: "SL-level".into(),
                cfg: with_cc(&|p| p.mode = CcMode::ServiceLevel),
            },
        ],
        "buffer" => [256u32, 512, 1024, 2048]
            .into_iter()
            .map(|b| {
                let mut c = base.clone();
                c.switch_ibuf_blocks = b;
                c.hca_ibuf_blocks = b;
                Cell {
                    label: format!("ibuf={}KiB/VL", b / 16),
                    cfg: c,
                }
            })
            .collect(),
        "detect" => [128u64, 256, 512, 1024]
            .into_iter()
            .map(|k| {
                let mut c = base.clone();
                c.cc_detect_capacity = k * 1024;
                Cell {
                    label: format!("detect={k}KiB (th={}KiB)", k / 16),
                    cfg: c,
                }
            })
            .collect(),
        other => panic!(
            "unknown --param {other:?}; try threshold|marking-rate|cct-step|\
             cct-shape|timer|mode|buffer|detect"
        ),
    }
}

fn main() {
    let args = Args::parse();
    let opts = args.run_options();
    let preset = args.preset();
    let param = args.get("param").unwrap_or("threshold").to_string();
    let topo = preset.topology();
    let base = preset.net_config().with_seed(args.seed());
    let dur = preset.durations();
    let roles = RoleSpec {
        num_nodes: topo.num_hcas,
        num_hotspots: preset.num_hotspots(),
        b_pct: 0,
        b_p: 0,
        c_pct_of_rest: 80,
    };
    let cells = cells_for(&param, &base);
    eprintln!(
        "ablation over {param}: preset={} ({} cells)",
        preset.name(),
        cells.len()
    );

    let results = parallel_map_progress(
        &cells,
        args.threads(),
        |cell| opts.run_scenario(&topo, cell.cfg.clone(), roles, dur, None, true, None),
        |d, t| eprintln!("  cell {d}/{t}"),
    );

    let mut rows = Vec::new();
    for (cell, r) in cells.iter().zip(&results) {
        rows.push(vec![
            cell.label.clone(),
            f3(r.non_hotspot_rx),
            f3(r.hotspot_rx),
            f2(r.total_rx),
            r.fecn_marks.to_string(),
            r.max_ccti.to_string(),
        ]);
    }
    println!(
        "{}",
        ascii_table(
            &[
                "setting",
                "non-hs rx",
                "hs rx",
                "total",
                "fecn marks",
                "max ccti"
            ],
            &rows
        )
    );

    let out = &opts.out;
    let csv: Vec<Vec<String>> = cells
        .iter()
        .zip(&results)
        .map(|(c, r)| {
            vec![
                c.label.clone(),
                f3(r.non_hotspot_rx),
                f3(r.hotspot_rx),
                f3(r.total_rx),
                r.fecn_marks.to_string(),
                r.becns.to_string(),
                r.max_ccti.to_string(),
            ]
        })
        .collect();
    let name = format!("ablation_{param}.csv");
    write_csv(
        &out.join(&name),
        &[
            "setting", "nonhs_rx", "hs_rx", "total_rx", "fecn", "becn", "max_ccti",
        ],
        &csv,
    )
    .expect("write csv");
    write_json(&out.join(format!("ablation_{param}.json")), &results).expect("json");
    eprintln!("wrote {}", out.join(&name).display());
}
