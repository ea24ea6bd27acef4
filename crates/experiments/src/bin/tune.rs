//! Parameter search over the CC configuration space — the paper calls
//! identifying Table I "a nontrivial task" (§IV) and "a highly
//! specialized task" (§VI); this binary shows why by mapping the
//! trade-off surface and printing its Pareto front.
//!
//! Each candidate (threshold, CCT step, CCTI timer) is scored on the
//! silent-forest scenario along two axes the operator actually cares
//! about: victim recovery (non-hotspot receive rate) and bottleneck
//! utilisation (hotspot receive rate). Dominated candidates are marked.
//!
//! ```text
//! cargo run --release -p ibsim-experiments --bin tune -- --preset quick
//! ```

use ibsim::prelude::*;
use ibsim_experiments::{f3, Args};

#[derive(Clone, Copy, Debug)]
struct Candidate {
    threshold: u8,
    step: u32,
    timer: u16,
}

fn main() {
    let args = Args::parse();
    let opts = args.run_options();
    let preset = args.preset();
    let topo = preset.topology();
    let dur = preset.durations();
    let roles = RoleSpec {
        num_nodes: topo.num_hcas,
        num_hotspots: preset.num_hotspots(),
        b_pct: 0,
        b_p: 0,
        c_pct_of_rest: 80,
    };

    let mut candidates = Vec::new();
    for threshold in [3u8, 9, 15] {
        for step in [1u32, 2, 4] {
            for timer in [75u16, 150, 300] {
                candidates.push(Candidate {
                    threshold,
                    step,
                    timer,
                });
            }
        }
    }
    eprintln!(
        "tuning sweep: {} candidates on {} ({} nodes)",
        candidates.len(),
        preset.name(),
        topo.num_hcas
    );

    let results = parallel_map_progress(
        &candidates,
        args.threads(),
        |c| {
            let mut cfg = preset.net_config().with_seed(args.seed());
            let mut p = CcParams::paper_table1();
            p.threshold = c.threshold;
            p.ccti_timer = c.timer;
            p.cct = Cct::populate(128, CctShape::Linear { step: c.step });
            cfg.cc = Some(p);
            opts.run_scenario(&topo, cfg, roles, dur, None, true, None)
        },
        |d, t| {
            if d % 9 == 0 || d == t {
                eprintln!("  {d}/{t}");
            }
        },
    );

    // Pareto front over (victims ↑, hotspot ↑).
    let dominated: Vec<bool> = results
        .iter()
        .map(|r| {
            results.iter().any(|o| {
                o.non_hotspot_rx > r.non_hotspot_rx + 1e-9 && o.hotspot_rx > r.hotspot_rx + 1e-9
            })
        })
        .collect();

    let mut order: Vec<usize> = (0..results.len()).collect();
    order.sort_by(|&a, &b| {
        results[b]
            .total_rx
            .partial_cmp(&results[a].total_rx)
            .unwrap()
    });

    let mut rows = Vec::new();
    for &i in &order {
        let c = candidates[i];
        let r = &results[i];
        rows.push(vec![
            format!("w={} step={} timer={}", c.threshold, c.step, c.timer),
            f3(r.non_hotspot_rx),
            f3(r.hotspot_rx),
            f3(r.total_rx),
            if dominated[i] { "" } else { "*" }.to_string(),
            if c.threshold == 15 && c.step == 1 && c.timer == 150 {
                "<- Table I"
            } else {
                ""
            }
            .to_string(),
        ]);
    }
    println!(
        "{}",
        ascii_table(
            &["candidate", "victims", "hotspot", "total", "pareto", ""],
            &rows
        )
    );
    let front = dominated.iter().filter(|&&d| !d).count();
    println!(
        "{front} of {} candidates are Pareto-optimal; every one trades victim recovery against\n\
         bottleneck utilisation — there is no free lunch, which is exactly why the paper calls\n\
         CC tuning a specialised task.",
        candidates.len()
    );

    let out = &opts.out;
    write_csv(
        &out.join("tune.csv"),
        &["candidate", "victims", "hotspot", "total", "pareto", "note"],
        &rows,
    )
    .expect("csv");
    eprintln!("wrote {}", out.join("tune.csv").display());
}
